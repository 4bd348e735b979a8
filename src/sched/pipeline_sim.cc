#include "sched/pipeline_sim.hh"

#include <algorithm>
#include <climits>
#include <optional>

#include "dag/table_forward.hh"
#include "machine/function_unit.hh"
#include "support/logging.hh"

namespace sched91
{

namespace
{

/** dep_ready mark of a node that has issued. */
constexpr int kIssued = INT_MIN;

/**
 * Issue @p order (the identity when null) on @p machine.  @p dep_ready
 * holds each node's earliest issue cycle and @p fus must be idle; both
 * are consumed.  An illegal order panics mid-walk.
 */
SimResult
simulate(const Dag &ground_truth, const std::vector<std::uint32_t> *order,
         const MachineModel &machine, std::vector<int> &dep_ready,
         FuState &fus, const IssueHook &onIssue = nullptr)
{
    const std::uint32_t size = ground_truth.size();
    if (order != nullptr && order->size() != size)
        panic("schedule violates dependences: order covers ",
              order->size(), " of ", size, " nodes");

    SimResult result;
    int cycle = 0;
    int issued_this_cycle = 0;
    unsigned groups_used = 0;
    int prev_issue = -1;

    for (std::uint32_t p = 0; p < size; ++p) {
        const std::uint32_t n = order ? (*order)[p] : p;
        if (n >= size || dep_ready[n] == kIssued)
            panic("schedule violates dependences: node ", n,
                  " at position ", p, " is outside the block or repeated");
        const Instruction &inst = ground_truth.inst(n);
        InstClass cls = inst.cls();
        unsigned group_bit = 1u << static_cast<unsigned>(inst.group());

        int earliest = std::max(dep_ready[n],
                                fus.earliestFree(machine.fuFor(cls), 0));
        dep_ready[n] = kIssued;
        int t = std::max(cycle, earliest);

        auto reset_cycle = [&](int new_cycle) {
            cycle = new_cycle;
            issued_this_cycle = 0;
            groups_used = 0;
        };

        if (t > cycle)
            reset_cycle(t);
        // Issue-slot and group constraints (superscalar only).
        while (issued_this_cycle >= machine.issueWidth ||
               (machine.issueWidth > 1 && (groups_used & group_bit))) {
            reset_cycle(cycle + 1);
        }

        int issue = cycle;
        ++issued_this_cycle;
        groups_used |= group_bit;
        fus.occupy(cls, issue);
        if (onIssue)
            onIssue(p, n, issue);

        int latency = machine.latency(cls);
        result.cycles = std::max(result.cycles, issue + latency);
        if (prev_issue >= 0)
            result.stallCycles += std::max(0, issue - prev_issue - 1);
        prev_issue = issue;
        result.lastIssue = issue;

        std::span<const std::uint32_t> to = ground_truth.succTo(n);
        std::span<const std::int32_t> delay = ground_truth.succDelay(n);
        for (std::size_t k = 0; k < to.size(); ++k) {
            if (dep_ready[to[k]] == kIssued)
                panic("schedule violates dependences: arc ", n, " -> ",
                      to[k], " runs backward");
            dep_ready[to[k]] =
                std::max(dep_ready[to[k]], issue + delay[k]);
        }
    }

    return result;
}

} // namespace

SimResult
simulateSchedule(const Dag &ground_truth,
                 const std::vector<std::uint32_t> &order,
                 const MachineModel &machine,
                 const std::vector<int> *initial_ready)
{
    std::vector<int> dep_ready(ground_truth.size(), 0);
    if (initial_ready) {
        SCHED91_ASSERT(initial_ready->size() == ground_truth.size());
        dep_ready = *initial_ready;
    }
    FuState fus(machine);
    return simulate(ground_truth, &order, machine, dep_ready, fus);
}

SimResult
replaySchedule(const Dag &ground_truth,
               const std::vector<std::uint32_t> &order,
               const MachineModel &machine, std::vector<int> dep_ready,
               const IssueHook &onIssue)
{
    FuState fus(machine);
    return simulate(ground_truth, &order, machine, dep_ready, fus,
                    onIssue);
}

BlockCycles
groundTruthCycles(const BlockView &block, const Dag *dag,
                  BuilderKind builtBy,
                  const std::vector<std::uint32_t> *order,
                  const MachineModel &machine, const BuildOptions &build,
                  const std::function<void(const Dag &)> &inspect)
{
    const bool table_built = builtBy == BuilderKind::TableForward ||
                             builtBy == BuilderKind::TableBackward;
    std::optional<Dag> rebuilt;
    if (dag == nullptr || !table_built || build.preventTransitive) {
        BuildOptions gt_opts = build;
        gt_opts.preventTransitive = false;
        gt_opts.maintainReachMaps = false;
        gt_opts.cancel = nullptr;
        dag = &rebuilt.emplace(
            TableForwardBuilder().build(block, machine, gt_opts));
    }
    if (inspect)
        inspect(*dag);

    std::vector<int> dep_ready(dag->size(), 0);
    FuState fus(machine);
    BlockCycles c;
    c.original = simulate(*dag, nullptr, machine, dep_ready, fus);
    c.scheduled = c.original;
    if (order != nullptr) {
        std::fill(dep_ready.begin(), dep_ready.end(), 0);
        fus.reset();
        c.scheduled = simulate(*dag, order, machine, dep_ready, fus);
    }
    return c;
}

} // namespace sched91
