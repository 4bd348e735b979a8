/**
 * @file
 * One owner per decision: checkOrder decides order legality for the
 * verifier and isValidTopologicalOrder, the simulator checks inside
 * its own issue walk, and groundTruthCycles owns the rule for the DAG
 * a schedule is costed on.  These tests pin that the three legality
 * judges agree on every order, and that groundTruthCycles returns
 * exactly the cycles of the explicit rebuild-and-simulate code it
 * replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/pipeline.hh"
#include "dag/builder.hh"
#include "dag/table_forward.hh"
#include "ir/basic_block.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "sched/pipeline_sim.hh"
#include "sched/verifier.hh"
#include "support/logging.hh"
#include "workload/generator.hh"
#include "workload/kernels.hh"
#include "workload/profiles.hh"

namespace sched91
{
namespace
{

using Order = std::vector<std::uint32_t>;

/** A random order respecting every arc (Kahn with random picks). */
Order
randomTopologicalOrder(const Dag &dag, std::mt19937 &rng)
{
    std::vector<int> parents(dag.size());
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        parents[i] = dag.numParents(i);
    Order ready, order;
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        if (parents[i] == 0)
            ready.push_back(i);
    while (!ready.empty()) {
        std::size_t k = std::uniform_int_distribution<std::size_t>(
            0, ready.size() - 1)(rng);
        std::uint32_t n = ready[k];
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
        order.push_back(n);
        for (std::uint32_t c : dag.succTo(n))
            if (--parents[c] == 0)
                ready.push_back(c);
    }
    return order; // short of dag.size() when the arcs form a cycle
}

/** Legal, illegal and malformed orders of @p dag. */
std::vector<Order>
candidateOrders(const Dag &dag, std::mt19937 &rng)
{
    std::vector<Order> orders;
    Order identity(dag.size());
    std::iota(identity.begin(), identity.end(), 0);
    orders.push_back(identity);
    for (int k = 0; k < 4; ++k) {
        Order shuffled = identity;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        orders.push_back(shuffled);

        Order topo = randomTopologicalOrder(dag, rng);
        orders.push_back(topo);
        if (topo.size() >= 2) {
            std::size_t p = std::uniform_int_distribution<std::size_t>(
                0, topo.size() - 2)(rng);
            Order swapped = topo;
            std::swap(swapped[p], swapped[p + 1]);
            orders.push_back(swapped);
            Order repeated = topo;
            repeated[p] = repeated[p + 1];
            orders.push_back(repeated);
        }
    }
    if (!identity.empty()) {
        Order truncated = identity;
        truncated.pop_back();
        orders.push_back(truncated);
        Order outside = identity;
        outside.back() = dag.size();
        orders.push_back(outside);
    }
    orders.push_back(Order(identity.rbegin(), identity.rend()));
    return orders;
}

struct Verdicts
{
    std::size_t legal = 0;
    std::size_t illegal = 0;
};

/** The verifier, the checker and the simulator judge every candidate
 * order of @p dag alike. */
void
expectAgreement(const Dag &dag, std::mt19937 &rng, Verdicts &verdicts)
{
    const MachineModel machine = sparcstation2();
    for (const Order &order : candidateOrders(dag, rng)) {
        Schedule sched;
        sched.order = order;
        const bool verified = verifySchedule(dag, sched, machine).ok();
        const bool valid = isValidTopologicalOrder(dag, order);
        bool simulated = true;
        try {
            simulateSchedule(dag, order, machine);
        } catch (const PanicError &) {
            simulated = false;
        }
        EXPECT_EQ(verified, valid) << "dag of " << dag.size() << " nodes";
        EXPECT_EQ(simulated, valid) << "dag of " << dag.size() << " nodes";
        ++(valid ? verdicts.legal : verdicts.illegal);
    }
}

TEST(OrderLegality, JudgesAgreeOnBuiltDags)
{
    std::mt19937 rng(91);
    Verdicts verdicts;
    const MachineModel machine = sparcstation2();
    std::vector<Program> programs;
    for (const std::string &name : kernelNames())
        programs.push_back(kernelProgram(name));
    programs.push_back(cachedProgram("linpack"));
    for (Program &prog : programs) {
        std::vector<BasicBlock> blocks = partitionBlocks(prog);
        if (blocks.size() > 40)
            blocks.resize(40);
        for (const BasicBlock &bb : blocks)
            for (BuilderKind kind : allBuilderKinds()) {
                Dag dag = makeBuilder(kind)->build(BlockView(prog, bb),
                                                   machine);
                expectAgreement(dag, rng, verdicts);
            }
    }
    EXPECT_GT(verdicts.legal, 1000u);
    EXPECT_GT(verdicts.illegal, 1000u);
}

TEST(OrderLegality, JudgesAgreeOnHandMadeBackwardArcs)
{
    std::mt19937 rng(1991);
    Verdicts verdicts;
    for (int n : {2, 3, 5, 8, 12}) {
        std::string text;
        for (int i = 0; i < n; ++i)
            text += "add %g1, %g2, %g3\n";
        Program prog = parseAssembly(text);
        std::vector<BasicBlock> blocks = partitionBlocks(prog);
        for (int trial = 0; trial < 20; ++trial) {
            Dag dag(BlockView(prog, blocks.at(0)));
            // One arc from the last node back to the first, so the
            // original order itself runs an arc backward; the other
            // arcs point either way and may close a cycle.
            dag.addArc(static_cast<std::uint32_t>(n - 1), 0,
                       DepKind::RAW, 1);
            std::uniform_int_distribution<int> node(0, n - 1);
            for (int a = 0; a < n; ++a) {
                int from = node(rng), to = node(rng);
                if (from != to)
                    dag.addArc(static_cast<std::uint32_t>(from),
                               static_cast<std::uint32_t>(to),
                               DepKind::WAR, 1 + a % 3);
            }
            Order identity(dag.size());
            std::iota(identity.begin(), identity.end(), 0);
            EXPECT_FALSE(isValidTopologicalOrder(dag, identity));
            expectAgreement(dag, rng, verdicts);
        }
    }
    EXPECT_GT(verdicts.legal, 0u);
    EXPECT_GT(verdicts.illegal, 0u);
}

/** The evaluate phase as it was written out before groundTruthCycles:
 * reuse a table-built DAG without transitive prevention, otherwise
 * rebuild one with TableForwardBuilder, then cost both orders. */
BlockCycles
explicitRebuildCycles(const BlockView &block, const Dag &dag,
                      BuilderKind kind, const Order &order,
                      const MachineModel &machine,
                      const BuildOptions &build)
{
    bool reusable = (kind == BuilderKind::TableForward ||
                     kind == BuilderKind::TableBackward) &&
                    !build.preventTransitive;
    if (reusable)
        return {simulateSchedule(dag, originalOrderSchedule(dag).order,
                                 machine),
                simulateSchedule(dag, order, machine)};
    BuildOptions gt_opts = build;
    gt_opts.preventTransitive = false;
    gt_opts.maintainReachMaps = false;
    Dag gt = TableForwardBuilder().build(block, machine, gt_opts);
    return {simulateSchedule(gt, originalOrderSchedule(gt).order, machine),
            simulateSchedule(gt, order, machine)};
}

TEST(GroundTruth, MatchesExplicitRebuildOnTable3Workloads)
{
    const MachineModel machine = sparcstation2();
    constexpr int kMaxBlockInsts = 400; // the pipeline's F1 window
    for (const WorkloadProfile &profile : allProfiles()) {
        Program prog = cachedProgram(profile.name);
        std::vector<BasicBlock> blocks = partitionBlocks(prog);
        for (BuilderKind kind : allBuilderKinds()) {
            const bool n2_family = kind == BuilderKind::N2Forward ||
                                   kind == BuilderKind::N2Backward ||
                                   kind == BuilderKind::N2Landskov;
            for (bool prevent : {false, true}) {
                PipelineOptions opts;
                opts.builder = kind;
                opts.build.preventTransitive = prevent;
                opts.evaluate = true;
                opts.threads = 1;
                opts.maxBlockInsts = kMaxBlockInsts;
                ProgramResult r = runPipeline(prog, machine, opts);
                ASSERT_EQ(r.blocksDegraded, 0u) << profile.name;

                long long original = 0, scheduled = 0;
                std::size_t mismatches = 0;
                for (const BasicBlock &bb : blocks) {
                    BlockView block(prog, bb);
                    // The builder the pipeline used for this block.
                    PipelineOptions block_opts = opts;
                    if (n2_family && bb.size() > kMaxBlockInsts)
                        block_opts.builder = BuilderKind::TableForward;
                    BlockScheduleResult s =
                        scheduleBlock(block, machine, block_opts);
                    BlockCycles want = explicitRebuildCycles(
                        block, s.dag, block_opts.builder, s.sched.order,
                        machine, opts.build);
                    BlockCycles got = groundTruthCycles(
                        block, &s.dag, block_opts.builder, &s.sched.order,
                        machine, opts.build);
                    if (got.original.cycles != want.original.cycles ||
                        got.scheduled.cycles != want.scheduled.cycles ||
                        got.original.stallCycles !=
                            want.original.stallCycles ||
                        got.scheduled.stallCycles !=
                            want.scheduled.stallCycles)
                        ++mismatches;
                    original += want.original.cycles;
                    scheduled += want.scheduled.cycles;
                }
                EXPECT_EQ(mismatches, 0u)
                    << profile.name << " " << builderKindName(kind)
                    << (prevent ? " prevent" : "");
                EXPECT_EQ(r.cyclesOriginal, original) << profile.name;
                EXPECT_EQ(r.cyclesScheduled, scheduled) << profile.name;
            }
        }
    }
}

TEST(GroundTruth, NullOrderCostsTheOriginalOrderTwice)
{
    Program prog = kernelProgram("divide-chain");
    std::vector<BasicBlock> blocks = partitionBlocks(prog);
    const MachineModel machine = sparcstation2();
    for (const BasicBlock &bb : blocks) {
        BlockView block(prog, bb);
        BlockCycles kept = groundTruthCycles(
            block, nullptr, BuilderKind::N2Forward, nullptr, machine, {});
        Dag gt = TableForwardBuilder().build(block, machine);
        SimResult want =
            simulateSchedule(gt, originalOrderSchedule(gt).order, machine);
        EXPECT_EQ(kept.original.cycles, want.cycles);
        EXPECT_EQ(kept.scheduled.cycles, want.cycles);
    }
}

} // namespace
} // namespace sched91
