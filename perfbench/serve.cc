/**
 * @file
 * Serve workloads (serve-mixed, serve-isolated): `sched91 serve
 * --threads 2`, in process or with --isolate=process, driven as an
 * open loop at fixed rates from one load-generator thread.
 */

#include "serve.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/pipeline.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/json_parse.hh"
#include "support/prng.hh"

extern char **environ;

namespace perfbench
{

using namespace sched91;

namespace
{

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error(what);
}

int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        fail(std::string("socket(): ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fail("socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Blocking write of a whole buffer. */
void
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail(std::string("send(): ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
}

/** Blocking read of one line. */
std::string
readLine(int fd, std::string &buffer)
{
    for (;;) {
        const std::size_t nl = buffer.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            return line;
        }
        char chunk[65536];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n == 0)
            fail("daemon closed the connection");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail(std::string("recv(): ") + std::strerror(errno));
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::vector<pid_t> out;
    std::error_code ec;
    const std::string task = "/proc/" + std::to_string(pid) + "/task";
    for (const auto &entry :
         std::filesystem::directory_iterator(task, ec)) {
        std::ifstream in(entry.path() / "children");
        pid_t child;
        while (in >> child)
            out.push_back(child);
    }
    return out;
}

/** Per-workload load shape: a fixed rate ladder, a fixed reference
 * rate and a fixed latency limit. */
struct ServeShape
{
    std::vector<double> ladder; ///< ascending rates, requests/s
    double referenceRate;       ///< rate for the p50/p99 metrics
    double p99LimitMs;          ///< a ladder rung must meet this
};

ServeShape
shapeFor(const std::string &workload)
{
    // 128 rungs, 3% apart, from 100/s to ~4,300/s: room for a daemon
    // several times faster than today's without changing the ladder,
    // and fine enough that one rung either way moves the result 3%.
    std::vector<double> ladder;
    for (int k = 0; k < 128; ++k)
        ladder.push_back(std::round(100.0 * std::pow(1.03, k)));
    return {ladder, referenceRate(workload), 50.0};
}

/** A rung passes with zero failures and p99 within the limit (a
 * growing backlog shows as a p99 over the limit). */
bool
meets(const PhaseStats &p, const ServeShape &shape)
{
    return p.failed() == 0 && !p.latencyMs.empty() &&
           quantile(p.latencyMs, 0.99) <= shape.p99LimitMs;
}

constexpr int kConnections = 4;
/** A monitoring scrape a second.  Each `stats` answer snapshots the
 * counter registry the in-process workers write, under its lock. */
constexpr double kScrapeHz = 1.0;
constexpr double kGraceSeconds = 2.0;
constexpr double kDrainSeconds = 10.0;
constexpr int kSetupSamples = 11;
/** The reference phase runs as this many windows, with a host probe
 * between each two, so each window's latencies are adjusted by the
 * host's speed over that window. */
constexpr int kReferenceWindows = 9;
/** Probe runs per CPU at each host probe. */
constexpr int kProbeRuns = 3;
constexpr std::size_t kRecheckSample = 48;

} // namespace

double
referenceRate(const std::string &workload)
{
    // Near 35% of today's capacity (~400/s in process, ~850/s isolated
    // on a 4-vCPU host), leaving headroom for a shared host's slow
    // spells before queueing sets in.
    return isolated(workload) ? 300.0 : 150.0;
}

void
PhaseStats::merge(const PhaseStats &later)
{
    sent += later.sent;
    ok += later.ok;
    bad += later.bad;
    missing += later.missing;
    latencyMs.insert(latencyMs.end(), later.latencyMs.begin(),
                     later.latencyMs.end());
    lateMs.insert(lateMs.end(), later.lateMs.begin(), later.lateMs.end());
    okInsts += later.okInsts;
    span += later.span;
    for (const auto &[status, n] : later.badStatus)
        badStatus[status] += n;
}

// --- DaemonProcess ----------------------------------------------------

DaemonProcess::DaemonProcess(const Options &opts, bool isolate,
                             const std::string &tag)
    : opts_(opts), isolate_(isolate),
      socket_(opts.runDir + "/" + tag + ".sock"),
      log_(opts.runDir + "/" + tag + ".log"),
      stats_(opts.runDir + "/" + tag + ".stats.json")
{
}

DaemonProcess::~DaemonProcess()
{
    stop();
}

double
DaemonProcess::start()
{
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {
        opts_.sched91,
        "serve",
        "--socket",
        socket_,
        "--threads",
        std::to_string(kServeLanes),
        "--max-block-insts",
        std::to_string(kServeMaxBlockInsts),
        "--stats-json",
        stats_};
    if (isolate_) {
        args.push_back("--isolate");
        args.push_back("process");
    }
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY,
                                     0);
    const Clock::time_point t0 = Clock::now();
    const int rc = posix_spawn(&pid_, opts_.sched91.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        fail("cannot spawn " + opts_.sched91 + ": " + std::strerror(rc));
    }

    // Ready = the first scheduling request answered.
    int fd = -1;
    while ((fd = connectUnix(socket_)) < 0) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            fail("daemon exited during start-up (see " + log_ + ")");
        }
        if (secondsSince(t0) > 30.0)
            fail("daemon did not listen within 30 s");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::string buffer;
    writeAll(fd, "{\"id\":\"ready\",\"source\":\"add %g1, %g2, %g3\\n\"}\n");
    const std::string answer = readLine(fd, buffer);
    const double seconds = secondsSince(t0);
    ::close(fd);
    if (answer.find("\"ok\"") == std::string::npos)
        fail("daemon's first answer is not ok: " + answer);
    return seconds;
}

double
DaemonProcess::peakRssMb() const
{
    if (pid_ <= 0)
        return 0.0;
    double mb = vmHwmMb(pid_);
    for (pid_t child : childrenOf(pid_))
        mb += vmHwmMb(child);
    return mb;
}

void
DaemonProcess::stop()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 20.0) {
            ::kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
}

// --- LoadGen ------------------------------------------------------------

LoadGen::LoadGen(const std::string &socketPath,
                 const std::vector<Job> &corpus, int connections)
    : corpus_(corpus), cycles_(corpus.size(), -1)
{
    // Each request line is `{"id":"r<n>"` + a precomputed tail.
    const std::string head = "{\"id\":\"\"";
    for (const Job &job : corpus) {
        const std::string line = job.requestLine("");
        if (line.rfind(head, 0) != 0)
            fail("unexpected request encoding");
        tails_.push_back(line.substr(head.size()) + "\n");
    }
    for (int i = 0; i < connections; ++i) {
        Conn c;
        c.fd = connectUnix(socketPath);
        if (c.fd < 0)
            fail("cannot connect to " + socketPath);
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
        conns_.push_back(std::move(c));
    }
}

LoadGen::~LoadGen()
{
    for (Conn &c : conns_)
        ::close(c.fd);
}

void
LoadGen::send(std::size_t conn, const std::string &line)
{
    Conn &c = conns_[conn % conns_.size()];
    if (c.outOff == c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    }
    c.out += line;
}

void
LoadGen::flush()
{
    for (Conn &c : conns_) {
        while (c.outOff < c.out.size()) {
            const ssize_t n =
                ::send(c.fd, c.out.data() + c.outOff,
                       c.out.size() - c.outOff, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                fail(std::string("send(): ") + std::strerror(errno));
            }
            c.outOff += static_cast<std::size_t>(n);
        }
    }
}

bool
LoadGen::pump(Clock::time_point until)
{
    std::vector<pollfd> fds;
    for (const Conn &c : conns_)
        fds.push_back(
            {c.fd,
             static_cast<short>(POLLIN |
                                (c.outOff < c.out.size() ? POLLOUT : 0)),
             0});
    const auto wait = std::max(Clock::duration::zero(),
                               until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR)
        fail(std::string("ppoll(): ") + std::strerror(errno));
    if (rc <= 0)
        return false;
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents & POLLOUT)
            flush();
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
            continue;
        Conn &c = conns_[i];
        for (;;) {
            char chunk[65536];
            const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
            if (n == 0)
                fail("daemon closed a connection");
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                fail(std::string("recv(): ") + std::strerror(errno));
            }
            c.in.append(chunk, static_cast<std::size_t>(n));
        }
        const Clock::time_point now = Clock::now();
        std::size_t start = 0, nl;
        while ((nl = c.in.find('\n', start)) != std::string::npos) {
            handle(c.in.substr(start, nl - start), now);
            start = nl + 1;
        }
        c.in.erase(0, start);
    }
    return true;
}

void
LoadGen::handle(const std::string &line, Clock::time_point now)
{
    // Stats documents are large and only their id matters here; keep
    // the generator's own per-answer cost small.
    if (line.rfind("{\"sched91_serve_stats\"", 0) == 0) {
        const std::size_t at = line.find("\"id\":\"s");
        if (at == std::string::npos) {
            ++checks_.malformed;
            return;
        }
        const std::size_t k =
            std::strtoull(line.c_str() + at + 7, nullptr, 10);
        auto it = scrapeDue_.find(k);
        if (it == scrapeDue_.end()) {
            if (staleScrapes_.erase(k) == 0)
                ++checks_.unknownIds;
            return;
        }
        scrapeMs_.push_back(1e3 * secondsBetween(it->second, now));
        scrapeDue_.erase(it);
        lastScrape_ = line;
        --outstanding_;
        return;
    }
    obs::JsonValue doc;
    try {
        doc = obs::parseJson(line);
    } catch (const std::exception &) {
        ++checks_.malformed;
        return;
    }
    const std::string id = doc.strOr("id", "");
    const std::size_t n =
        id.size() > 1 && id[0] == 'r'
            ? std::strtoull(id.c_str() + 1, nullptr, 10)
            : sent_.size();
    if (n >= sent_.size()) {
        ++checks_.unknownIds;
        return;
    }
    Sent &s = sent_[n];
    if (s.answered) {
        ++checks_.duplicates;
        return;
    }
    s.answered = true;
    ++answered_;
    const bool current = n >= phaseFirst_;
    if (current)
        --outstanding_;
    const std::string status = doc.strOr("status", "");
    const bool scheduled = status == "ok" || status == "degraded";
    if (scheduled) {
        // Every request asks to evaluate, so every scheduled answer
        // must carry cycles, identical each time an entry is sent.
        if (!doc.has("cycles_scheduled")) {
            ++checks_.missingCycles;
        } else {
            const long long cyc = static_cast<long long>(
                doc.at("cycles_scheduled").number());
            long long &known = cycles_[s.corpus];
            if (status == "ok" && known < 0)
                known = cyc;
            else if (status == "ok" && known != cyc)
                ++checks_.cycleMismatches;
        }
        const std::size_t insts =
            static_cast<std::size_t>(doc.numberOr("insts", -1));
        if (corpus_[s.corpus].emit &&
            (!doc.has("schedule") ||
             doc.at("schedule").array().size() != insts))
            ++checks_.scheduleMismatches;
    }
    if (phase_ == nullptr || !current)
        return;
    if (status == "ok") {
        ++phase_->ok;
        phase_->latencyMs.push_back(1e3 * secondsBetween(s.due, now));
        phase_->okInsts += doc.numberOr("insts", 0);
    } else {
        ++phase_->bad;
        ++phase_->badStatus[status + "/" + doc.strOr("reason", "")];
    }
}

PhaseStats
LoadGen::run(double rate, double seconds, double scrapeHz,
             double graceSeconds)
{
    PhaseStats ps;
    phase_ = &ps;
    const std::size_t count =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     std::llround(rate * seconds)));
    const std::size_t first = sent_.size();
    phaseFirst_ = first;
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](std::size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate));
    };
    const std::size_t scrapeCount =
        scrapeHz > 0 ? static_cast<std::size_t>(seconds * scrapeHz) : 0;
    auto scrapeAt = [&](std::size_t k) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>((k + 0.5) /
                                                      scrapeHz));
    };
    const Clock::time_point end = due(count);
    const Clock::time_point giveUp =
        end + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(graceSeconds));
    std::size_t next = 0, nextScrape = 0;
    Clock::time_point lastAnswer = t0;
    for (;;) {
        Clock::time_point now = Clock::now();
        while (next < count && due(next) <= now) {
            const std::size_t n = sent_.size();
            Sent s;
            s.corpus = nextCorpus_;
            s.due = due(next);
            sent_.push_back(s);
            send(n, "{\"id\":\"r" + std::to_string(n) + "\"" +
                        tails_[nextCorpus_]);
            nextCorpus_ = (nextCorpus_ + 1) % corpus_.size();
            ++outstanding_;
            ps.lateMs.push_back(1e3 * secondsBetween(s.due, now));
            ++next;
            now = Clock::now();
        }
        while (nextScrape < scrapeCount && scrapeAt(nextScrape) <= now) {
            const std::size_t k = scrapes_++;
            scrapeDue_[k] = scrapeAt(nextScrape);
            send(0, "{\"type\":\"stats\",\"id\":\"s" + std::to_string(k) +
                        "\"}\n");
            ++outstanding_;
            ++nextScrape;
        }
        flush();
        if (next == count && nextScrape == scrapeCount && outstanding_ == 0)
            break;
        if (next == count && now >= giveUp)
            break;
        Clock::time_point wake = giveUp;
        if (next < count)
            wake = std::min(wake, due(next));
        if (nextScrape < scrapeCount)
            wake = std::min(wake, scrapeAt(nextScrape));
        const std::size_t before = ps.ok + ps.bad;
        pump(wake);
        if (ps.ok + ps.bad != before)
            lastAnswer = Clock::now();
    }
    ps.sent = count;
    for (std::size_t i = first; i < sent_.size(); ++i)
        if (!sent_[i].answered)
            ++ps.missing;
    ps.span = secondsBetween(t0, lastAnswer);
    phase_ = nullptr;
    // Stragglers of this phase are not waited for again; forget them
    // so later phases end when their own requests are answered.
    outstanding_ = 0;
    staleScrapes_.insert(scrapeDue_.begin(), scrapeDue_.end());
    scrapeDue_.clear();
    return ps;
}

std::vector<double>
LoadGen::roundTrips(const std::vector<std::size_t> &entries)
{
    std::vector<double> out;
    phaseFirst_ = sent_.size();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::size_t n = sent_.size();
        Sent s;
        s.corpus = entries[i];
        s.due = Clock::now();
        sent_.push_back(s);
        send(i, "{\"id\":\"r" + std::to_string(n) + "\"" +
                    tails_[s.corpus]);
        ++outstanding_;
        flush();
        const Clock::time_point giveUp = s.due + std::chrono::seconds(30);
        while (!sent_[n].answered && Clock::now() < giveUp)
            pump(giveUp);
        if (!sent_[n].answered)
            fail("no answer within 30 s in a round-trip probe");
        out.push_back(secondsSince(s.due));
    }
    return out;
}

std::string
LoadGen::scrape()
{
    const std::size_t k = scrapes_++;
    scrapeDue_[k] = Clock::now();
    lastScrape_.clear();
    ++outstanding_;
    send(0, "{\"type\":\"stats\",\"id\":\"s" + std::to_string(k) + "\"}\n");
    flush();
    const Clock::time_point giveUp = Clock::now() + std::chrono::seconds(10);
    while (lastScrape_.empty() && Clock::now() < giveUp)
        pump(giveUp);
    return lastScrape_;
}

bool
LoadGen::drain(double seconds)
{
    const Clock::time_point giveUp =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (answered_ < sent_.size() && Clock::now() < giveUp)
        pump(giveUp);
    return answered_ == sent_.size();
}

long long
inProcessCycles(const Job &job)
{
    DiagnosticEngine diags(DiagnosticEngine::Options{});
    Program prog = parseAssembly(job.source, diags, "request");
    PipelineOptions popts;
    popts.builder = job.builder;
    popts.algorithm = job.algorithm;
    popts.threads = 1;
    popts.evaluate = true;
    popts.verify = true;
    popts.containFaults = false;
    popts.maxBlockInsts = kServeMaxBlockInsts;
    return runPipeline(prog, presetByName("sparcstation2"), popts)
        .cyclesScheduled;
}

double
queueWaitP99Ms(const std::string &statsDoc)
{
    try {
        const obs::JsonValue doc = obs::parseJson(statsDoc);
        return doc.at("histograms")
                   .at("svc.queue_wait_ns")
                   .numberOr("p99", -1e6) /
               1e6;
    } catch (const std::exception &) {
        return -1.0;
    }
}

// --- The workload ---------------------------------------------------------

void
runServe(const Options &opts, Result &out)
{
    const bool iso = isolated(opts.workload);
    const ServeShape shape = shapeFor(opts.workload);
    const std::vector<Job> corpus = serveCorpus(opts.seed, kServeCorpus);

    // Set-up: start to first answer, several daemons, each followed by
    // a host probe; the last one stays up for the measurement.
    std::vector<double> setups;
    for (int i = 0; i + 1 < kSetupSamples; ++i) {
        DaemonProcess d(opts, iso, "setup");
        const double s = d.start();
        setups.push_back(s * hostScale(hostProbeMs(kProbeRuns)));
    }
    DaemonProcess daemon(opts, iso, "serve");
    const double s = daemon.start();
    setups.push_back(s * hostScale(hostProbeMs(kProbeRuns)));

    LoadGen gen(daemon.socketPath(), corpus, kConnections);
    const double budget = opts.seconds;
    // Warm-up, then the reference rate, then the ladder; the corpus
    // is sent in order, cycling, across all of them.
    const PhaseStats warm = gen.run(shape.referenceRate, 0.05 * budget,
                                    kScrapeHz, kGraceSeconds);
    // Every timed phase sits between two host probes, each taken once
    // the daemon has answered everything (after an overloaded rung it
    // may still be working off a backlog, which would slow the probe);
    // the phase's scale is that of their mean.
    struct ScaledPhase
    {
        PhaseStats stats;
        double scale;
    };
    gen.drain(kDrainSeconds);
    double probe = hostProbeMs(kProbeRuns);
    auto probedRun = [&](double rate, double seconds) {
        ScaledPhase p{gen.run(rate, seconds, kScrapeHz, kGraceSeconds),
                      1.0};
        gen.drain(kDrainSeconds);
        const double after = hostProbeMs(kProbeRuns);
        p.scale = hostScale(0.5 * (probe + after));
        probe = after;
        return p;
    };
    PhaseStats ref;
    std::vector<double> refScales, windowP50s, windowP99s;
    for (int w = 0; w < kReferenceWindows; ++w) {
        const ScaledPhase p = probedRun(shape.referenceRate,
                                        0.5 * budget / kReferenceWindows);
        windowP50s.push_back(p.scale * median(p.stats.latencyMs));
        windowP99s.push_back(p.scale * quantile(p.stats.latencyMs, 0.99));
        refScales.push_back(p.scale);
        ref.merge(p.stats);
    }
    // Peak memory at the reference load; the overloaded rungs below
    // fill the admission queue to a depth that depends on timing.
    const double rss = daemon.peakRssMb();
    std::size_t attempted = warm.sent + ref.sent;
    std::size_t failed = warm.failed() + ref.failed();

    // Binary search for the highest passing rung, starting from the
    // reference rate (a pass when it meets the limit).  Rungs that
    // fail are over capacity by design; their requests are not
    // counted as attempted.
    const std::vector<double> &ladder = shape.ladder;
    const double rungSeconds = 0.06 * budget;
    int lo = -1, hi = static_cast<int>(ladder.size());
    PhaseStats best = ref;
    double bestScale = median(refScales);
    if (meets(ref, shape))
        while (lo + 1 < hi && ladder[static_cast<std::size_t>(lo + 1)] <=
                                  shape.referenceRate)
            ++lo;
    while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        const double rate = ladder[static_cast<std::size_t>(mid)];
        ScaledPhase rung = probedRun(rate, rungSeconds);
        const bool pass = meets(rung.stats, shape);
        std::fprintf(stderr,
                     "perfbench: rung %6.0f/s: %zu sent, %zu failed, "
                     "p50 %.2f ms, p99 %.2f ms, %.1f/s -> %s\n",
                     rate, rung.stats.sent, rung.stats.failed(),
                     median(rung.stats.latencyMs),
                     quantile(rung.stats.latencyMs, 0.99),
                     rung.stats.throughput(), pass ? "pass" : "fail");
        if (pass) {
            lo = mid;
            attempted += rung.stats.sent;
            best = std::move(rung.stats);
            bestScale = rung.scale;
        } else {
            hi = mid;
        }
    }
    // Entries no timed phase answered ok (a short run, or answers an
    // overloaded rung rejected) are asked once more, untimed, so the
    // cycle total always covers the whole corpus.
    std::vector<std::size_t> unanswered;
    for (std::size_t k = 0; k < corpus.size(); ++k)
        if (gen.cycles()[k] < 0)
            unanswered.push_back(k);
    gen.roundTrips(unanswered);
    daemon.stop();

    // Output checks.
    const ServeChecks &c = gen.checks();
    out.check(c.unknownIds == 0, "answers with unknown ids");
    out.check(c.duplicates == 0, "ids answered more than once");
    out.check(c.malformed == 0, "malformed answer lines");
    out.check(c.missingCycles == 0,
              "evaluate answers without cycles_scheduled");
    out.check(c.cycleMismatches == 0,
              "cycles_scheduled differs between sends of one request");
    out.check(c.scheduleMismatches == 0,
              "emitted schedule length differs from the request's insts");
    long long cycles = 0;
    std::size_t never = 0;
    for (long long cyc : gen.cycles()) {
        if (cyc < 0)
            ++never;
        else
            cycles += cyc;
    }
    out.check(never == 0, std::to_string(never) +
                              " corpus entries never answered ok");
    Prng pick(opts.seed * 31 + 7);
    std::size_t recheckMismatch = 0;
    for (std::size_t i = 0; i < kRecheckSample; ++i) {
        const std::size_t k = pick.below(corpus.size());
        if (gen.cycles()[k] >= 0 &&
            inProcessCycles(corpus[k]) != gen.cycles()[k])
            ++recheckMismatch;
    }
    out.check(recheckMismatch == 0,
              std::to_string(recheckMismatch) +
                  " sampled requests differ from in-process runPipeline");
    out.check(fingerprint(serveCorpus(opts.seed + 1, kServeCorpus)) !=
                  fingerprint(corpus),
              "the seed does not change the generated inputs");
    out.check(meets(best, shape), "no ladder rung met the latency limit");

    out.attempt(attempted, failed);
    // Rates are divided by the scale, times multiplied.  The p50 and
    // p99 are medians over the windows, so a burst of host noise moves
    // the windows it covers, not the figure.
    out.metric("insts_per_s", best.okInsts / best.span / bestScale, "1/s");
    out.metric("serve_rps_max", best.throughput() / bestScale, "1/s");
    out.metric("serve_p50_ms", median(windowP50s), "ms");
    out.metric("serve_p99_ms", median(windowP99s), "ms");
    out.metric("sched_cycles", static_cast<double>(cycles), "cycles");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("setup_s", median(setups), "s");
    std::fprintf(stderr,
                 "perfbench: %s: reference %.0f/s: %zu sent, %zu failed, "
                 "late p99 %.3f ms; unadjusted p50 %.2f ms, p99 %.2f ms; "
                 "median host scale %.3f; best rung %.1f/s unadjusted, "
                 "scale %.3f\n",
                 opts.workload.c_str(), shape.referenceRate, ref.sent,
                 ref.failed(), quantile(ref.lateMs, 0.99),
                 median(ref.latencyMs), quantile(ref.latencyMs, 0.99),
                 median(refScales), best.throughput(), bestScale);
    for (const auto &[status, n] : ref.badStatus)
        std::fprintf(stderr, "perfbench:   %zu answered %s\n", n,
                     status.c_str());
}

} // namespace perfbench
