/**
 * @file
 * Client side of the serve workloads: a `sched91 serve` child process
 * and a single-threaded open-loop load generator over at most four
 * connections.
 */
#ifndef SCHED91_PERFBENCH_SERVE_HH
#define SCHED91_PERFBENCH_SERVE_HH

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** Worker lanes of every daemon the benchmark starts. */
constexpr unsigned kServeLanes = 2;
/** n**2 builders fall back to table building above this block size,
 * so requests drawn with an n**2 builder exercise the fallback. */
constexpr int kServeMaxBlockInsts = 200;
/** Requests in a serve corpus.  Per-request cycles vary with content
 * (CV ~1), so the corpus total needs a few thousand entries to read
 * the same to ~1% from seed to seed. */
constexpr std::size_t kServeCorpus = 2048;

/** Fixed reference rate of a serve workload, requests/s: the rate
 * the p50/p99 metrics are measured at. */
double referenceRate(const std::string &workload);

/** `sched91 serve` as a child process. */
class DaemonProcess
{
  public:
    DaemonProcess(const Options &opts, bool isolate, const std::string &tag);
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Spawn the daemon and wait for its first answer; returns the
     * seconds from spawn to that answer. */
    double start();
    /** Peak resident set of the daemon plus its children, MiB. */
    double peakRssMb() const;
    /** SIGTERM (graceful drain), then wait; SIGKILL if it hangs. */
    void stop();
    const std::string &socketPath() const { return socket_; }

  private:
    const Options &opts_;
    bool isolate_;
    std::string socket_, log_, stats_;
    pid_t pid_ = -1;
};

/** Counts of output-check violations seen by the load generator. */
struct ServeChecks
{
    std::size_t unknownIds = 0;
    std::size_t duplicates = 0;
    std::size_t missingCycles = 0;
    std::size_t cycleMismatches = 0;
    std::size_t scheduleMismatches = 0;
    std::size_t malformed = 0;
};

/** One open-loop phase at a fixed rate. */
struct PhaseStats
{
    std::size_t sent = 0;
    std::size_t ok = 0;
    std::size_t bad = 0;     ///< answered, but not "ok"
    std::size_t missing = 0; ///< never answered within the grace time
    std::vector<double> latencyMs; ///< ok answers, from due time
    std::vector<double> lateMs;    ///< send time minus due time
    double okInsts = 0.0;
    double span = 0.0; ///< first due time to last answer, seconds
    std::map<std::string, std::size_t> badStatus;

    std::size_t failed() const { return bad + missing; }
    /** Measured throughput: ok answers over the phase's span. */
    double throughput() const { return span > 0 ? ok / span : 0.0; }
    /** Add a later phase at the same rate: counts and spans add,
     * samples append. */
    void merge(const PhaseStats &later);
};

/** Single-threaded open-loop load generator. */
class LoadGen
{
  public:
    LoadGen(const std::string &socketPath, const std::vector<Job> &corpus,
            int connections);
    ~LoadGen();
    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /**
     * Send @p rate requests per second for @p seconds (the corpus is
     * cycled in order), with `stats` scrapes at @p scrapeHz, then wait
     * up to @p graceSeconds for outstanding answers.
     */
    PhaseStats run(double rate, double seconds, double scrapeHz,
                   double graceSeconds);

    /** The given corpus entries, one request in flight at a time
     * (the low-rate probe): round-trip seconds of each. */
    std::vector<double> roundTrips(const std::vector<std::size_t> &entries);

    /** One `stats` scrape, answered synchronously. */
    std::string scrape();
    /** Wait up to @p seconds until every request sent so far is
     * answered (stragglers of an overloaded phase included), so the
     * daemon is idle; returns whether it is. */
    bool drain(double seconds);

    /** cycles_scheduled per corpus entry (-1 = never answered ok). */
    const std::vector<long long> &cycles() const { return cycles_; }
    const ServeChecks &checks() const { return checks_; }
    /** Latencies of the `stats` scrapes, ms. */
    const std::vector<double> &scrapeMs() const { return scrapeMs_; }

  private:
    struct Conn
    {
        int fd = -1;
        std::string out;
        std::size_t outOff = 0;
        std::string in;
    };
    struct Sent
    {
        std::size_t corpus = 0;
        Clock::time_point due;
        bool answered = false;
    };

    void send(std::size_t conn, const std::string &line);
    void flush();
    /** Wait for input up to @p until; returns false on timeout. */
    bool pump(Clock::time_point until);
    void handle(const std::string &line, Clock::time_point now);

    const std::vector<Job> &corpus_;
    std::vector<std::string> tails_; ///< request lines after the id
    std::vector<Conn> conns_;
    std::vector<Sent> sent_;
    std::size_t nextCorpus_ = 0;
    std::vector<long long> cycles_;
    ServeChecks checks_;
    std::vector<double> scrapeMs_;
    std::map<std::size_t, Clock::time_point> scrapeDue_;
    std::map<std::size_t, Clock::time_point> staleScrapes_;
    std::size_t scrapes_ = 0;
    std::size_t answered_ = 0; ///< requests in sent_ answered so far
    std::string lastScrape_;
    PhaseStats *phase_ = nullptr;
    /** First request id of the current phase; answers to earlier ids
     * are stragglers, checked but not counted in the phase. */
    std::size_t phaseFirst_ = 0;
    std::size_t outstanding_ = 0; ///< current phase's requests + scrapes
};

/** cycles_scheduled of @p job through in-process runPipeline, with
 * the options the daemon's first ladder rung uses. */
long long inProcessCycles(const Job &job);

/** p99 of `svc.queue_wait_ns` in a stats document, ms (-1 absent). */
double queueWaitP99Ms(const std::string &statsDoc);

} // namespace perfbench

#endif // SCHED91_PERFBENCH_SERVE_HH
