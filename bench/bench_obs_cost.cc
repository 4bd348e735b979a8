/**
 * @file
 * Observation cost: wall time of runPipeline with the observability
 * layer off and on, interleaved on one host, for the workloads the
 * counters were slowest on.  `sched91 serve` keeps observation on for
 * every request, so the on/off ratio is what each request pays for its
 * counters, phase tree and histograms.  The target is <= 1.15x on
 * cccp, a workload of ~3,500 small blocks where per-phase snapshot
 * cost dominates.
 *
 * Machine-readable output: one record per workload in
 * BENCH_obs-cost.json: off_seconds and on_seconds samples, the
 * overhead ratio of their medians (report-only: suffix _ratio), the
 * counted run's deterministic arcs_added, and its counter deltas.
 */

#include <chrono>

#include "bench_util.hh"

using namespace sched91;
using namespace sched91::bench;

namespace
{

/** Target on/off ratio for cccp (ROADMAP, "make observation cheap
 * enough to leave on"). */
constexpr double kTargetRatio = 1.15;

/** Seconds of one single-lane runPipeline on a fresh copy of @p w,
 * with observation @p on.  The counted result lands in @p counted. */
double
runSeconds(const Workload &w, const MachineModel &machine, bool on,
           ProgramResult &counted)
{
    PipelineOptions opts;
    opts.threads = 1;
    opts.partition.window = w.window;
    Program prog = loadProgram(w);
    obs::setEnabled(on);
    auto t0 = std::chrono::steady_clock::now();
    ProgramResult res = runPipeline(prog, machine, opts);
    auto t1 = std::chrono::steady_clock::now();
    obs::setEnabled(false);
    if (on)
        counted = std::move(res);
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    banner("Observation cost: runPipeline with counters off vs on "
           "(1 lane, interleaved)");
    std::vector<int> widths{10, 10, 10, 7, 7};
    printCells({"benchmark", "off(ms)", "on(ms)", "ratio", "target"},
               widths);
    printRule(widths);

    const int runs = 21;
    BenchReporter rep("obs-cost");
    MachineModel machine = sparcstation2();
    for (const Workload &w :
         {Workload{"cccp", "cccp", 0}, Workload{"linpack", "linpack", 0},
          Workload{"fpppp", "fpppp", 0}}) {
        BenchRecord rec;
        rec.workload = w.display;
        rec.threads = 1;
        rec.repetitions = runs;
        ProgramResult counted;
        // Off and on alternate, so host-speed drift hits both alike.
        for (int r = 0; r < runs; ++r) {
            rec.metric("off_seconds")
                .add(runSeconds(w, machine, false, counted));
            rec.metric("on_seconds")
                .add(runSeconds(w, machine, true, counted));
        }
        const double off = rec.metric("off_seconds").median();
        const double on = rec.metric("on_seconds").median();
        rec.addScalar("obs_overhead_ratio", on / off);
        rec.addScalar("arcs_added", static_cast<double>(
                                        counted.counters.value(
                                            "dag.arcs_added")));
        rec.counters = counted.counters;
        rep.write(rec);
        printCells({w.display, formatFixed(off * 1e3, 2),
                    formatFixed(on * 1e3, 2), formatFixed(on / off, 2),
                    w.profile == "cccp" ? formatFixed(kTargetRatio, 2)
                                        : "-"},
                   widths);
    }

    std::printf("\nShape check: the ratio stays near 1 on every row; "
                "cccp's many small\nblocks make it the most "
                "snapshot-sensitive row.\n");
    return 0;
}
