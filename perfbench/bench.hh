/**
 * @file
 * Shared pieces of the sched91 end-to-end benchmark client (see
 * README.md): options, timing and statistics, the result document,
 * the span log of the traced run, and the seeded input generators.
 */
#ifndef SCHED91_PERFBENCH_BENCH_HH
#define SCHED91_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dag/builder.hh"
#include "sched/registry.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

double mean(const std::vector<double> &v);

/** FNV-1a 64-bit hash, chained through @p h. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/**
 * How fast the host runs right now: a fixed CPU and memory kernel
 * that is not the program's code, run @p runs times pinned to each
 * CPU this process may use; the mean over the CPUs of the median
 * time, ms.
 */
double hostProbeMs(int runs);

/**
 * Host-speed adjustment.  Shared hosts drift in speed by up to ~1.5x,
 * for seconds to minutes at a time, when a neighbour loads the same
 * physical core; CPU time drifts with wall time, so it is not steal.
 * Every time the benchmark reports is scaled by kProbeRefMs over the
 * probe taken next to it (rates by the inverse): it reads at the
 * speed of a host where one probe run takes kProbeRefMs.  The probe
 * is not the program's code, so a change to the program moves the
 * adjusted figure as much as the raw one.
 */
constexpr double kProbeRefMs = 4.0;

inline double
hostScale(double probeMs)
{
    return kProbeRefMs / probeMs;
}

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** Command-line options of the client. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string sched91;  ///< path of the shipped `sched91` binary
    std::string runDir;   ///< scratch directory for sockets and logs
};

/** The one JSON document a run prints (last line of stdout). */
class Result
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record an output check; a failed one makes the run incorrect. */
    void check(bool ok, const std::string &what);
    void attempt(std::uint64_t n, std::uint64_t failed)
    {
        attempted_ += n;
        failed_ += failed;
    }
    bool correct() const { return problems_.empty(); }
    /** Problems go to stderr; the document to stdout. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Spans of the traced run: one per call into a layer, with the span
 * that caused it.  Kept in memory and written as JSONL at the end.
 */
class SpanLog
{
  public:
    /** Open a span; returns its id (-1 once the log is full). */
    int open(const char *layer, int parent);
    void close(int id);
    /** One JSON object per line: id, layer, parent, start_us, end_us. */
    void write(const std::string &path) const;
    std::size_t size() const { return spans_.size(); }

  private:
    static constexpr std::size_t kCap = 400000;
    struct Span
    {
        const char *layer;
        int parent;
        Clock::time_point start, end;
    };
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

/** One scheduling job: a program's text plus its configuration. */
struct Job
{
    std::string source;
    sched91::BuilderKind builder = sched91::BuilderKind::TableForward;
    sched91::AlgorithmKind algorithm =
        sched91::AlgorithmKind::SimpleForward;
    bool emit = false;
    std::size_t insts = 0;
    /** The wire request for this job, with @p id. */
    std::string requestLine(const std::string &id) const;
};

/** Batch inputs: the workload's Table 3 programs, generated from
 * their profiles with seed-derived generator seeds. */
std::vector<Job> batchJobs(const std::string &workload,
                           std::uint64_t seed);

/** Serve inputs: @p count requests from fuzz::generateSource, with
 * shapes stratified over the whole GenParams range and builder x
 * algorithm drawn over all 35 combinations. */
std::vector<Job> serveCorpus(std::uint64_t seed, std::size_t count);

/** Hash over every job's text and configuration. */
std::uint64_t fingerprint(const std::vector<Job> &jobs);

/** Workload runners; each fills @p out. */
void runBatch(const Options &opts, Result &out);
void runServe(const Options &opts, Result &out);
/** The traced per-layer run (any workload). */
void runLayers(const Options &opts, Result &out);

/** Workload helpers. */
bool isBatch(const std::string &workload);
bool isolated(const std::string &workload);

} // namespace perfbench

#endif // SCHED91_PERFBENCH_BENCH_HH
