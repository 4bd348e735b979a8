#include "sched/delay_slot.hh"

#include <algorithm>

#include "ir/opcode.hh"

namespace sched91
{

namespace
{

/** Is @p node's only influence on the branch the control anchor? */
bool
onlyControlToBranch(const Dag &dag, std::uint32_t node,
                    std::uint32_t branch)
{
    for (std::uint32_t arc_id : dag.succs(node)) {
        const Arc &arc = dag.arc(arc_id);
        if (arc.to != branch || arc.kind != DepKind::CTRL)
            return false;
    }
    return !dag.succs(node).empty();
}

} // namespace

DelaySlotResult
fillBranchDelaySlot(const Dag &dag, Schedule &sched)
{
    DelaySlotResult result;
    if (dag.size() < 2 || sched.order.empty())
        return result;

    std::uint32_t branch = dag.size() - 1;
    const Instruction &tail = dag.inst(branch);
    if (!isControlTransfer(tail.cls()) || sched.order.back() != branch)
        return result;

    // Latest-scheduled candidate whose only tie to the branch is the
    // control anchor: it contributes nothing the branch reads, so it
    // may execute in the slot.
    for (std::size_t p = sched.order.size() - 1; p-- > 0;) {
        std::uint32_t node = sched.order[p];
        if (!onlyControlToBranch(dag, node, branch))
            continue;
        // Rotate the filler past the branch.
        sched.order.erase(sched.order.begin() +
                          static_cast<std::ptrdiff_t>(p));
        sched.order.push_back(node);
        if (!sched.issueCycle.empty())
            sched.issueCycle.clear(); // timings no longer meaningful
        result.filled = true;
        result.filler = node;
        return result;
    }
    return result;
}

bool
isValidModuloDelaySlot(const Dag &dag,
                       const std::vector<std::uint32_t> &order)
{
    std::vector<int> pos;
    if (checkOrder(dag, order, pos))
        return true;
    // Only the advisory anchors into the branch may run backward.
    bool ok = true;
    checkOrder(dag, order, pos, [&](const OrderFault &f) {
        ok = ok && f.kind == OrderFault::Kind::Backward &&
             f.arc->kind == DepKind::CTRL && f.arc->to == dag.size() - 1;
    });
    return ok;
}

} // namespace sched91
