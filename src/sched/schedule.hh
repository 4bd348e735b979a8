/**
 * @file
 * Schedule results and validity checks.
 */

#ifndef SCHED91_SCHED_SCHEDULE_HH
#define SCHED91_SCHED_SCHEDULE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "dag/dag.hh"

namespace sched91
{

/** The result of scheduling one basic block. */
struct Schedule
{
    /** Block-relative node ids in issue order (a permutation). */
    std::vector<std::uint32_t> order;

    /** Issue cycle per order position (scheduler's own accounting). */
    std::vector<int> issueCycle;

    /** Scheduler's estimate of total cycles (see PipelineSim for the
     * authoritative measurement). */
    int makespan = 0;
};

/** One way an order fails to be a legal schedule of a DAG. */
struct OrderFault
{
    enum class Kind
    {
        Length,   ///< the order's size differs from the DAG's
        Range,    ///< a position names a node outside the block
        Repeat,   ///< a node appears a second time
        Backward, ///< an arc runs backward in the order
    };
    Kind kind;
    std::uint32_t position = 0; ///< Range, Repeat: where in the order
    std::uint32_t node = 0;     ///< Range, Repeat: the node named there
    const Arc *arc = nullptr;   ///< Backward: the offending arc
};

/**
 * The one decision of "a permutation of @p dag's nodes that respects
 * every arc".  Fills @p pos[node] with the node's position in
 * @p order.  Each fault goes to @p report; without one, the check
 * stops at the first fault.  A Length, Range or Repeat fault ends the
 * check before any arc is looked at, since the positions are then
 * unusable.  Returns true when no fault was found.
 */
bool checkOrder(const Dag &dag, const std::vector<std::uint32_t> &order,
                std::vector<int> &pos,
                const std::function<void(const OrderFault &)> &report =
                    nullptr);

/** True when @p order is a permutation respecting every arc of @p dag. */
bool isValidTopologicalOrder(const Dag &dag,
                             const std::vector<std::uint32_t> &order);

/** The identity (original program order) schedule. */
Schedule originalOrderSchedule(const Dag &dag);

} // namespace sched91

#endif // SCHED91_SCHED_SCHEDULE_HH
