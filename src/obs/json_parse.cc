#include "obs/json_parse.hh"

#include <cctype>
#include <cstdlib>

#include "support/logging.hh"

namespace sched91::obs
{

double
JsonValue::numberOr(const std::string &k, double fallback) const
{
    if (!has(k) || !at(k).isNumber())
        return fallback;
    return at(k).number();
}

std::string
JsonValue::strOr(const std::string &k, const std::string &fallback) const
{
    if (!has(k) || !at(k).isString())
        return fallback;
    return at(k).str();
}

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        fatal("malformed JSON at offset ", pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"':
            return JsonValue{parseString()};
        case 't':
            if (!literal("true"))
                fail("bad literal");
            return JsonValue{true};
        case 'f':
            if (!literal("false"))
                fail("bad literal");
            return JsonValue{false};
        case 'n':
            if (!literal("null"))
                fail("bad literal");
            return JsonValue{nullptr};
        default:
            return parseNumber();
        }
    }

    /** Counts one nesting level for the life of a parseObject or
     * parseArray frame. */
    class Nest
    {
      public:
        explicit Nest(Parser &p) : p_(p)
        {
            if (p_.depth_ == kMaxJsonDepth)
                p_.fail("nesting too deep");
            ++p_.depth_;
        }
        ~Nest() { --p_.depth_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

      private:
        Parser &p_;
    };

    JsonValue
    parseObject()
    {
        Nest nest(*this);
        expect('{');
        JsonValue::Object obj;
        if (peek() != '}') {
            while (true) {
                std::string key = parseString();
                expect(':');
                obj.insert_or_assign(std::move(key), parseValue());
                if (peek() != ',')
                    break;
                ++pos_;
            }
        }
        expect('}');
        return JsonValue{std::move(obj)};
    }

    JsonValue
    parseArray()
    {
        Nest nest(*this);
        expect('[');
        JsonValue::Array arr;
        if (peek() != ']') {
            while (true) {
                arr.push_back(parseValue());
                if (peek() != ',')
                    break;
                ++pos_;
            }
        }
        expect(']');
        return JsonValue{std::move(arr)};
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                // The writer only emits \u00xx (control characters).
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a') + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A') + 10;
                    else
                        fail("bad \\u escape");
                }
                if (code > 0xff)
                    fail("\\u escape beyond latin-1 unsupported");
                out += static_cast<char>(code);
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        skipWs();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        std::string num(text_.substr(start, pos_ - start));
        char *end = nullptr;
        double d = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            fail("bad number");
        return JsonValue{d};
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

} // namespace

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace sched91::obs
