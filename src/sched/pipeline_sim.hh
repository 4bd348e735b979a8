/**
 * @file
 * In-order pipeline simulator: the authoritative measure of schedule
 * quality in machine cycles.
 *
 * Instructions issue in schedule order on an in-order machine: an
 * instruction stalls until (a) every dependence delay from already
 * issued producers has elapsed, (b) its function unit is free
 * (non-pipelined units such as FP divide stay busy for their full
 * latency — the structural hazards of Section 1), and (c) an issue
 * slot is available.  With issueWidth > 1 the machine can issue
 * multiple instructions per cycle but no two of the same issue group —
 * the superscalar setting that motivates the alternate-type heuristic.
 *
 * The issue walk also checks that the order is legal: a missing,
 * repeated or out-of-range node, or an arc that runs backward, panics.
 *
 * groundTruthCycles() owns the rule for choosing the DAG a schedule is
 * costed on (see paper F3: transitive-arc removal loses timing
 * constraints, table building keeps them).
 */

#ifndef SCHED91_SCHED_PIPELINE_SIM_HH
#define SCHED91_SCHED_PIPELINE_SIM_HH

#include <functional>
#include <vector>

#include "dag/builder.hh"
#include "dag/dag.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"

namespace sched91
{

/** Cycle-level outcome of executing one block in a given order. */
struct SimResult
{
    int cycles = 0;      ///< block completion time (last writeback)
    int lastIssue = 0;   ///< issue cycle of the final instruction
    int stallCycles = 0; ///< issue slots lost to dependence/structural
                         ///< hazards
};

/**
 * Simulate @p order on @p machine using the dependence arcs of
 * @p ground_truth (build it with a full-dependence builder over the
 * same block so no conservative constraint is missed).
 *
 * @p initial_ready, when non-null, gives per-node earliest issue
 * floors carried in from the previous block (see
 * sched/global_info.hh).
 */
SimResult simulateSchedule(const Dag &ground_truth,
                           const std::vector<std::uint32_t> &order,
                           const MachineModel &machine,
                           const std::vector<int> *initial_ready = nullptr);

/** Sees each instruction issue: its order position, node and cycle. */
using IssueHook = std::function<void(std::uint32_t position,
                                     std::uint32_t node, int cycle)>;

/**
 * simulateSchedule() from the per-node earliest issue cycles
 * @p dep_ready, telling @p onIssue about every issue (the timeline
 * renders from it).
 */
SimResult replaySchedule(const Dag &ground_truth,
                         const std::vector<std::uint32_t> &order,
                         const MachineModel &machine,
                         std::vector<int> dep_ready,
                         const IssueHook &onIssue);

/** Simulated outcomes of a block's original and scheduled orders. */
struct BlockCycles
{
    SimResult original;
    SimResult scheduled;
};

/**
 * Cost a block on its ground truth, a DAG that keeps every timing
 * constraint.  The scheduler's @p dag, built by @p builtBy with
 * @p build, is reused when it was table-built without transitive
 * prevention.  Otherwise (or when @p dag is null) the ground truth is
 * rebuilt by TableForwardBuilder with transitive prevention, reach
 * maps and cancellation off.  @p inspect, when given, sees that DAG.
 * The original order is costed first, then @p order; a null @p order
 * means the block kept its original order.  Throws what the rebuild
 * throws.
 */
BlockCycles
groundTruthCycles(const BlockView &block, const Dag *dag,
                  BuilderKind builtBy,
                  const std::vector<std::uint32_t> *order,
                  const MachineModel &machine, const BuildOptions &build,
                  const std::function<void(const Dag &)> &inspect =
                      nullptr);

} // namespace sched91

#endif // SCHED91_SCHED_PIPELINE_SIM_HH
