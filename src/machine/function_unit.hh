/**
 * @file
 * Function-unit occupancy tracking (resource reservation).
 *
 * Supports the "busy times for floating point function units" dynamic
 * heuristic of Table 1 and the structural-hazard component of the
 * pipeline simulator: non-pipelined units (FP divide/sqrt, integer
 * multiply/divide) stay busy for their full latency.
 */

#ifndef SCHED91_MACHINE_FUNCTION_UNIT_HH
#define SCHED91_MACHINE_FUNCTION_UNIT_HH

#include <array>
#include <vector>

#include "machine/machine_model.hh"

namespace sched91
{

/** Busy-until times for every function-unit pool of a machine. */
class FuState
{
  public:
    explicit FuState(const MachineModel &machine);

    /** Forget all occupancy. */
    void reset();

    /**
     * Earliest cycle >= @p now at which some unit of @p kind can accept
     * a new operation.
     */
    int earliestFree(FuKind kind, int now) const;

    /**
     * Record that an operation of class @p cls starts at @p start,
     * occupying its unit for the machine-defined busy time.  Picks the
     * unit in the pool that frees soonest.
     */
    void occupy(InstClass cls, int start);

  private:
    /** Non-owning; FuState stays copyable for search-state snapshots. */
    const MachineModel *machine_;
    /** busyUntil_[kind] holds one entry per unit in the pool. */
    std::array<std::vector<int>, static_cast<std::size_t>(
                                     FuKind::kNumFuKinds)> busyUntil_;
};

} // namespace sched91

#endif // SCHED91_MACHINE_FUNCTION_UNIT_HH
