#include "sched/timeline.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "sched/pipeline_sim.hh"
#include "support/string_util.hh"

namespace sched91
{

namespace
{

char
positionMark(std::size_t pos)
{
    static const char digits[] =
        "0123456789abcdefghijklmnopqrstuvwxyz";
    return digits[pos % 36];
}

const char *
fuName(FuKind kind)
{
    switch (kind) {
      case FuKind::IntAlu: return "int-alu";
      case FuKind::IntMulDiv: return "int-muldiv";
      case FuKind::MemPort: return "mem-port";
      case FuKind::BranchUnit: return "branch";
      case FuKind::FpAdd: return "fp-add";
      case FuKind::FpMul: return "fp-mul";
      case FuKind::FpDivSqrt: return "fp-divsqrt";
      default: return "?";
    }
}

} // namespace

std::string
renderTimeline(const Dag &dag, const std::vector<std::uint32_t> &order,
               const MachineModel &machine, const TimelineOptions &opts)
{
    // Replay through the pipeline simulator, recording placements.
    struct Placement
    {
        FuKind fu;
        int issue;
        int busy;
        char mark;
    };
    std::vector<Placement> placements;
    int last_cycle = 0;
    const ArenaVector<int> &eet = dag.ann().inheritedEet;
    replaySchedule(
        dag, order, machine, std::vector<int>(eet.begin(), eet.end()),
        [&](std::uint32_t p, std::uint32_t n, int cycle) {
            InstClass cls = dag.inst(n).cls();
            int busy = machine.fuBusyCycles(cls);
            placements.push_back(
                Placement{machine.fuFor(cls), cycle, busy, positionMark(p)});
            last_cycle = std::max(last_cycle, cycle + busy);
        });

    int width = std::min(last_cycle, opts.maxCycles);
    bool truncated = last_cycle > opts.maxCycles;

    std::ostringstream os;
    // Cycle ruler (tens).
    os << padRight("", 12);
    for (int c = 0; c < width; ++c)
        os << (c % 10 == 0 ? static_cast<char>('0' + (c / 10) % 10)
                           : ' ');
    os << "\n";

    for (int k = 0; k < kNumFuKinds; ++k) {
        FuKind kind = static_cast<FuKind>(k);
        std::string row(static_cast<std::size_t>(width), '.');
        bool used = false;
        for (const Placement &pl : placements) {
            if (pl.fu != kind)
                continue;
            used = true;
            if (pl.issue < width)
                row[pl.issue] = pl.mark;
            for (int b = 1; b < pl.busy && pl.issue + b < width; ++b)
                if (row[pl.issue + b] == '.')
                    row[pl.issue + b] = '=';
        }
        if (used)
            os << padRight(fuName(kind), 12) << row
               << (truncated ? "…" : "") << "\n";
    }

    if (opts.showLegend) {
        os << "\n(" << order.size() << " instructions, "
           << last_cycle << " cycles; digits mark issue position, "
           << "'=' marks non-pipelined busy cycles)\n";
    }
    return os.str();
}

} // namespace sched91
