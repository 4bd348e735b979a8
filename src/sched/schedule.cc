#include "sched/schedule.hh"

#include <numeric>

namespace sched91
{

bool
checkOrder(const Dag &dag, const std::vector<std::uint32_t> &order,
           std::vector<int> &pos,
           const std::function<void(const OrderFault &)> &report)
{
    using Kind = OrderFault::Kind;
    bool ok = true;
    auto fault = [&](const OrderFault &f) {
        ok = false;
        if (report)
            report(f);
        return !report; // true: stop at this fault
    };

    if (order.size() != dag.size()) {
        fault({Kind::Length});
        return false;
    }
    pos.assign(dag.size(), -1);
    for (std::uint32_t p = 0; p < order.size(); ++p) {
        std::uint32_t n = order[p];
        if (n >= dag.size() || pos[n] != -1) {
            if (fault({n >= dag.size() ? Kind::Range : Kind::Repeat, p, n}))
                return false;
            continue;
        }
        pos[n] = static_cast<int>(p);
    }
    if (!ok)
        return false;
    for (const Arc &arc : dag.arcs())
        if (pos[arc.from] >= pos[arc.to] &&
            fault({Kind::Backward, 0, 0, &arc}))
            return false;
    return ok;
}

bool
isValidTopologicalOrder(const Dag &dag,
                        const std::vector<std::uint32_t> &order)
{
    std::vector<int> pos;
    return checkOrder(dag, order, pos);
}

Schedule
originalOrderSchedule(const Dag &dag)
{
    Schedule s;
    s.order.resize(dag.size());
    std::iota(s.order.begin(), s.order.end(), 0);
    s.issueCycle.assign(dag.size(), 0);
    return s;
}

} // namespace sched91
