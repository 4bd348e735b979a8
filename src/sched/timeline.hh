/**
 * @file
 * ASCII function-unit occupancy timelines.
 *
 * Renders a scheduled block as one row per function-unit pool and one
 * column per cycle: the issue cycle of each instruction is marked
 * with its schedule position (base-36), non-pipelined busy cycles
 * with '='.  Makes structural hazards (Section 1) and the shadows the
 * schedulers fill visually obvious; used by the CLI's `timeline`
 * command and the examples.
 */

#ifndef SCHED91_SCHED_TIMELINE_HH
#define SCHED91_SCHED_TIMELINE_HH

#include <string>

#include "dag/dag.hh"
#include "machine/machine_model.hh"
#include "sched/schedule.hh"

namespace sched91
{

/** Rendering options. */
struct TimelineOptions
{
    int maxCycles = 100; ///< truncate (with ellipsis) beyond this
    bool showLegend = true;
};

/**
 * Render @p order executing on @p machine, replayed through the
 * pipeline simulator (dependence delays, issue slots, function-unit
 * occupancy; an illegal order panics).
 */
std::string renderTimeline(const Dag &dag,
                           const std::vector<std::uint32_t> &order,
                           const MachineModel &machine,
                           const TimelineOptions &opts = {});

} // namespace sched91

#endif // SCHED91_SCHED_TIMELINE_HH
