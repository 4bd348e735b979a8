/**
 * @file
 * Batch workloads (batch-table3, batch-fpppp): each pass renders the
 * workload's programs to assembly text, parses them, runs the
 * pipeline (table-fwd, simple-forward, verify and evaluate on, two
 * lanes) and renders the scheduled text.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/pipeline.hh"
#include "dag/table_forward.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "sched/verifier.hh"

namespace perfbench
{

using namespace sched91;

namespace
{

constexpr unsigned kLanes = 2;
/** Probe runs after each cold pass, and after each measured pass. */
constexpr int kSetupProbeRuns = 3;
constexpr int kPassProbeRuns = 1;

/** Outcome of one pass over all of a workload's programs. */
struct PassOutput
{
    double seconds = 0.0;
    std::uint64_t textHash = 0;
    long long cycles = 0;
    std::size_t blocks = 0;
    std::size_t degraded = 0;
    std::size_t insts = 0;
    /** Kept only when asked: the parsed programs and their schedules,
     * for the verifier re-check. */
    std::vector<Program> programs;
    std::vector<std::vector<Schedule>> schedules;
};

/** Scheduled text of @p prog, block by block. */
std::string
renderSchedule(Program &prog, const std::vector<Schedule> &schedules)
{
    std::string out;
    out.reserve(prog.size() * 24);
    const std::vector<BasicBlock> blocks = partitionBlocks(prog, {});
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        BlockView block(prog, blocks[b]);
        for (std::uint32_t pos : schedules[b].order) {
            out += block.inst(pos).toString();
            out += '\n';
        }
    }
    return out;
}

PipelineOptions
batchPipelineOptions()
{
    PipelineOptions popts;
    popts.builder = BuilderKind::TableForward;
    popts.algorithm = AlgorithmKind::SimpleForward;
    popts.verify = true;
    popts.evaluate = true;
    popts.threads = kLanes;
    return popts;
}

PassOutput
runPass(const std::vector<Job> &jobs, const MachineModel &machine,
        bool keep)
{
    PassOutput out;
    const Clock::time_point t0 = Clock::now();
    for (const Job &job : jobs) {
        DiagnosticEngine diags(DiagnosticEngine::Options{});
        Program prog = parseAssembly(job.source, diags, "batch");
        std::vector<Schedule> schedules;
        PipelineOptions popts = batchPipelineOptions();
        popts.schedules = &schedules;
        const ProgramResult r = runPipeline(prog, machine, popts);
        out.textHash = fnv1a(renderSchedule(prog, schedules), out.textHash);
        out.cycles += r.cyclesScheduled;
        out.blocks += r.numBlocks;
        out.degraded += r.blocksDegraded;
        out.insts += r.numInsts;
        if (keep) {
            out.programs.push_back(std::move(prog));
            out.schedules.push_back(std::move(schedules));
        }
    }
    out.seconds = secondsSince(t0);
    return out;
}

/** Set-up time: the first pass of a process, cold (input generation
 * is the benchmark's own work and is not timed), host-speed adjusted
 * by a probe taken after it. */
double
coldSetup(const Options &opts, const MachineModel &machine)
{
    const double s =
        runPass(batchJobs(opts.workload, opts.seed), machine, false)
            .seconds;
    return s * hostScale(hostProbeMs(kSetupProbeRuns));
}

/** Set-up time of a fresh process (forked before this one has run
 * anything), reported through a pipe; negative on failure. */
double
forkedColdSetup(const Options &opts, const MachineModel &machine)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        double s = -1.0;
        try {
            s = coldSetup(opts, machine);
        } catch (...) {
        }
        ssize_t n = write(fds[1], &s, sizeof s);
        _exit(n == static_cast<ssize_t>(sizeof s) ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s)
        s = -1.0;
    close(fds[0]);
    if (pid > 0) {
        int status = 0;
        waitpid(pid, &status, 0);
    }
    return s;
}

} // namespace

void
runBatch(const Options &opts, Result &out)
{
    const MachineModel machine = presetByName("sparcstation2");

    // Set-up, five times, each cold: four forked children, then this
    // process itself (whose inputs the measurement reuses).
    std::vector<double> setups;
    for (int i = 0; i < 4; ++i) {
        const double s = forkedColdSetup(opts, machine);
        out.check(s > 0.0, "forked set-up run failed");
        setups.push_back(s);
    }
    const std::vector<Job> jobs = batchJobs(opts.workload, opts.seed);
    PassOutput first = runPass(jobs, machine, true);
    setups.push_back(first.seconds *
                     hostScale(hostProbeMs(kSetupProbeRuns)));

    // Measurement: whole passes until the time is spent, each
    // followed by a host probe that adjusts its time.
    std::vector<double> passSeconds, rawSeconds, probes, instsPerSecond;
    std::size_t mismatched = 0;
    const Clock::time_point m0 = Clock::now();
    while (passSeconds.size() < 3 || secondsSince(m0) < opts.seconds) {
        const PassOutput p = runPass(jobs, machine, false);
        probes.push_back(hostProbeMs(kPassProbeRuns));
        rawSeconds.push_back(p.seconds);
        passSeconds.push_back(p.seconds * hostScale(probes.back()));
        instsPerSecond.push_back(static_cast<double>(p.insts) /
                                 passSeconds.back());
        if (p.textHash != first.textHash || p.cycles != first.cycles)
            ++mismatched;
    }

    // Output checks: every pass produced the same schedules, and every
    // schedule passes the verifier against a freshly built DAG.
    out.check(mismatched == 0,
              std::to_string(mismatched) +
                  " passes differ from the first (text or cycles)");
    std::size_t verified = 0, rejected = 0;
    std::size_t jobInsts = 0;
    for (std::size_t j = 0; j < first.programs.size(); ++j) {
        Program &prog = first.programs[j];
        jobInsts += jobs[j].insts;
        const std::vector<BasicBlock> blocks = partitionBlocks(prog, {});
        out.check(blocks.size() == first.schedules[j].size(),
                  "schedule count differs from block count");
        for (std::size_t b = 0;
             b < blocks.size() && b < first.schedules[j].size(); ++b) {
            BlockView block(prog, blocks[b]);
            Dag dag = TableForwardBuilder().build(block, machine, {});
            ++verified;
            if (!verifySchedule(dag, first.schedules[j][b], machine).ok())
                ++rejected;
        }
    }
    out.check(rejected == 0, std::to_string(rejected) + " of " +
                                 std::to_string(verified) +
                                 " schedules rejected on re-check");
    out.check(verified == first.blocks, "not every block was re-checked");
    out.check(jobInsts == first.insts,
              "parsed instruction count differs from the generated one");
    out.check(fingerprint(batchJobs(opts.workload, opts.seed + 1)) !=
                  fingerprint(jobs),
              "the seed does not change the generated inputs");

    out.attempt(first.blocks, first.degraded);
    const double passMs = 1e3 * median(passSeconds);
    out.metric("insts_per_s", median(instsPerSecond), "1/s");
    out.metric("serve_rps_max", 1e3 / passMs, "1/s");
    out.metric("serve_p50_ms", passMs, "ms");
    out.metric("serve_p99_ms", 1e3 * quantile(passSeconds, 0.99), "ms");
    out.metric("sched_cycles", static_cast<double>(first.cycles), "cycles");
    out.metric("peak_rss_mb", selfPeakRssMb(), "MiB");
    out.metric("setup_s", median(setups), "s");
    std::fprintf(stderr,
                 "perfbench: %s: %zu passes of %zu insts in %zu blocks, "
                 "pass median %.2f ms adjusted, %.2f ms raw, "
                 "probe median %.2f ms\n",
                 opts.workload.c_str(), passSeconds.size(), first.insts,
                 first.blocks, passMs, 1e3 * median(rawSeconds),
                 median(probes));
}

} // namespace perfbench
