#include "machine/function_unit.hh"

#include <algorithm>

namespace sched91
{

FuState::FuState(const MachineModel &machine) : machine_(&machine)
{
    for (int k = 0; k < kNumFuKinds; ++k) {
        busyUntil_[k].assign(
            std::max(1, machine.fuDesc(static_cast<FuKind>(k)).count), 0);
    }
}

void
FuState::reset()
{
    for (auto &pool : busyUntil_)
        std::fill(pool.begin(), pool.end(), 0);
}

int
FuState::earliestFree(FuKind kind, int now) const
{
    const auto &pool = busyUntil_[static_cast<std::size_t>(kind)];
    int best = pool.front();
    for (int t : pool)
        best = std::min(best, t);
    return std::max(now, best);
}

void
FuState::occupy(InstClass cls, int start)
{
    FuKind kind = machine_->fuFor(cls);
    auto &pool = busyUntil_[static_cast<std::size_t>(kind)];
    auto it = std::min_element(pool.begin(), pool.end());
    *it = start + machine_->fuBusyCycles(cls);
}

} // namespace sched91
