/**
 * @file
 * Entry point of the benchmark client, plus the pieces every workload
 * shares: statistics, the result document, the span log and the
 * seeded inputs.  perfbench/run.py builds this and runs it as
 *
 *     perfbench_client --workload W --seed N --seconds S --trace 0|1
 *                      --sched91 PATH --run-dir DIR
 *
 * The last line of stdout is the result document.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "bench.hh"
#include "fuzz/program_gen.hh"
#include "obs/json.hh"
#include "support/prng.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace perfbench
{

using namespace sched91;

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

/** Where the probe leaves its result, so the work is not optimised
 * away. */
volatile std::size_t probeSink;

double
probeOnce()
{
    // Number formatting, a string sort and hash-map inserts: the mix
    // of text handling, comparison, allocation and scattered loads the
    // scheduler's parse, DAG build and ready list make.
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::vector<std::string> words;
    words.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        words.push_back(std::to_string(x % 1000003));
    }
    std::sort(words.begin(), words.end());
    std::unordered_map<std::string, int> counts;
    for (const std::string &w : words)
        ++counts[w];
    std::size_t sum = 0;
    for (const auto &[w, n] : counts)
        sum += w.size() * static_cast<std::size_t>(n);
    probeSink = sum;
    return 1e3 * secondsSince(t0);
}

} // namespace

double
hostProbeMs(int runs)
{
    // Each CPU the process may use, in turn: the program's threads
    // move between them, and each may be slowed by its own neighbour.
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity() failed");
    std::vector<double> perCpu;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0)
            continue;
        std::vector<double> ms;
        for (int i = 0; i < runs; ++i)
            ms.push_back(probeOnce());
        perCpu.push_back(median(ms));
    }
    sched_setaffinity(0, sizeof allowed, &allowed);
    if (perCpu.empty())
        throw std::runtime_error("no CPU to probe");
    return mean(perCpu);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Result::check(bool ok, const std::string &what)
{
    if (!ok)
        problems_.push_back(what);
}

void
Result::print() const
{
    for (const std::string &p : problems_)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    std::string doc = "{\"correct\": ";
    doc += correct() ? "true" : "false";
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                  attempted_, failed_);
    doc += buf;
    doc += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // A non-finite value is not JSON: print null, which run.py's
        // self-check rejects.
        if (std::isfinite(m.value))
            std::snprintf(buf, sizeof buf, "%.17g", m.value);
        else
            std::snprintf(buf, sizeof buf, "null");
        doc += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    doc += "}}";
    std::printf("%s\n", doc.c_str());
    std::fflush(stdout);
}

int
SpanLog::open(const char *layer, int parent)
{
    if (spans_.size() >= kCap)
        return -1;
    const Clock::time_point now = Clock::now();
    spans_.push_back({layer, parent, now, now});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::close(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto us = [this](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "{\"id\": %zu, \"layer\": \"%s\", \"parent\": %d, "
                      "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                      i, s.layer, s.parent, us(s.start), us(s.end));
        out << buf;
    }
}

std::string
Job::requestLine(const std::string &id) const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("source").value(source);
    w.key("builder").value(builderKindName(builder));
    w.key("algorithm").value(algorithmName(algorithm));
    w.key("evaluate").value(true);
    if (emit)
        w.key("emit").value("schedule");
    w.endObject();
    return w.take();
}

namespace
{

/** Seed-derived generator seed for one input stream. */
std::uint64_t
mix(std::uint64_t seed, const std::string &stream)
{
    return Prng(fnv1a(stream, seed * 0x9e3779b97f4a7c15ULL + 1)).next();
}

std::size_t
countInsts(const std::string &text)
{
    // Generated and rendered programs carry one instruction per
    // non-label line; the parsed count is authoritative and is
    // checked against responses, this only sizes the job.
    std::size_t n = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        const std::string_view line(text.data() + pos, nl - pos);
        const std::size_t first = line.find_first_not_of(" \t");
        if (first != std::string_view::npos && line.back() != ':' &&
            line[first] != '!' && line[first] != '.')
            ++n;
        pos = nl + 1;
    }
    return n;
}

} // namespace

bool
isBatch(const std::string &workload)
{
    return workload.rfind("batch-", 0) == 0;
}

bool
isolated(const std::string &workload)
{
    return workload == "serve-isolated";
}

std::vector<Job>
batchJobs(const std::string &workload, std::uint64_t seed)
{
    std::vector<std::string> names;
    if (workload == "batch-fpppp")
        names = {"fpppp"};
    else
        for (const WorkloadProfile &p : allProfiles())
            if (p.name != "fpppp")
                names.push_back(p.name);
    std::vector<Job> jobs;
    for (const std::string &name : names) {
        WorkloadProfile profile = profileByName(name);
        profile.seed = mix(seed, name);
        Job job;
        job.source = generateProgram(profile).toString();
        job.insts = countInsts(job.source);
        job.emit = true;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<Job>
serveCorpus(std::uint64_t seed, std::size_t count)
{
    // The shape of entry i (its knobs, builder and algorithm) is the
    // same for every seed; the seed drives only the generated content.
    // The heaviest requests set the p99, so a shape mix that moved
    // with the seed would move the p99 from seed to seed.
    Prng rng(mix(0, "serve-shape"));
    Prng content(mix(seed, "serve"));
    const std::vector<BuilderKind> builders = allBuilderKinds();
    const std::vector<AlgorithmKind> algorithms = allAlgorithms();
    const std::size_t combos = builders.size() * algorithms.size();

    // Latin-hypercube draws: every knob is stratified into equal bands
    // visited in a fixed shuffled order (every builder x algorithm
    // pair, every block count, every band of each mix equally often).
    auto strata = [&rng, count](std::size_t n) {
        std::vector<std::size_t> out;
        while (out.size() < count) {
            std::vector<std::size_t> chunk(n);
            std::iota(chunk.begin(), chunk.end(), std::size_t{0});
            for (std::size_t i = n; i > 1; --i)
                std::swap(chunk[i - 1], chunk[rng.below(i)]);
            out.insert(out.end(), chunk.begin(), chunk.end());
        }
        out.resize(count);
        return out;
    };
    static constexpr std::size_t kBands = 16;
    auto knob = [&](double lo, double hi) {
        return [&rng, lo, hi, bands = strata(kBands)](std::size_t i) {
            return lo + (hi - lo) * (static_cast<double>(bands[i]) +
                                     rng.uniform()) /
                            static_cast<double>(kBands);
        };
    };
    const std::vector<std::size_t> combo = strata(combos);
    const std::vector<std::size_t> nblocks = strata(16);
    auto blockSize = knob(1, 257);
    auto fpMix = knob(0, 1);
    auto memMix = knob(0, 0.9);
    auto storeBias = knob(0, 1);
    auto branchProb = knob(0, 1);
    auto intRegs = knob(1, 21);
    auto fpRegs = knob(1, 17);
    auto memExprs = knob(1, 33);
    auto symbolMix = knob(0, 1);

    std::vector<Job> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        fuzz::GenParams p;
        p.seed = content.next();
        p.numBlocks = static_cast<int>(nblocks[i]) + 1;
        p.maxBlockSize = static_cast<int>(blockSize(i));
        p.fpMix = fpMix(i);
        p.memMix = memMix(i);
        p.storeBias = storeBias(i);
        p.branchProb = branchProb(i);
        p.intRegPool = static_cast<int>(intRegs(i));
        p.fpRegPool = static_cast<int>(fpRegs(i));
        p.memExprPool = static_cast<int>(memExprs(i));
        p.symbolMix = symbolMix(i);
        p.bigImmMix = 0.0;
        p.corruption = 0.0;
        p.allowCalls = i % 2 == 0;
        Job job;
        job.source = fuzz::generateSource(p);
        job.insts = countInsts(job.source);
        job.builder = builders[combo[i] % builders.size()];
        job.algorithm = algorithms[combo[i] / builders.size()];
        // A fixed share (one in four) asks for the schedule text.
        job.emit = i % 4 == 1;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::uint64_t
fingerprint(const std::vector<Job> &jobs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Job &j : jobs) {
        h = fnv1a(j.source, h);
        h = fnv1a(std::string(builderKindName(j.builder)) + "/" +
                      std::string(algorithmName(j.algorithm)) +
                      (j.emit ? "/emit" : ""),
                  h);
    }
    return h;
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_client: %s\n"
                 "usage: perfbench_client --workload W --seed N "
                 "--seconds S --trace 0|1 --sched91 PATH --run-dir DIR\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed")
            opts.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            opts.seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            opts.trace = std::strcmp(val, "0") != 0;
        else if (arg == "--sched91")
            opts.sched91 = val;
        else if (arg == "--run-dir")
            opts.runDir = val;
        else
            usage(("unknown option " + arg).c_str());
    }
    const std::string &w = opts.workload;
    if (w != "batch-table3" && w != "batch-fpppp" && w != "serve-mixed" &&
        w != "serve-isolated")
        usage(("unknown workload '" + w + "'").c_str());
    if (opts.seconds <= 0.0)
        usage("--seconds must be positive");
    if (opts.sched91.empty() || opts.runDir.empty())
        usage("--sched91 and --run-dir are required");

    perfbench::Result result;
    try {
        if (opts.trace)
            perfbench::runLayers(opts, result);
        else if (perfbench::isBatch(w))
            perfbench::runBatch(opts, result);
        else
            perfbench::runServe(opts, result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_client: %s\n", e.what());
        return 1;
    }
    result.print();
    return 0;
}
