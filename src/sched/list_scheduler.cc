#include "sched/list_scheduler.hh"

#include <algorithm>
#include <optional>

#include "heuristics/dynamic.hh"
#include "machine/function_unit.hh"
#include "obs/events.hh"
#include "sched/fixup.hh"
#include "support/dary_heap.hh"
#include "support/logging.hh"
#include "support/worker_context.hh"

namespace sched91
{

namespace
{

/**
 * Heuristics whose value depends on scheduling state (Table 1's 'v'
 * work or the evaluation context): these must be re-evaluated at every
 * pick, so a ranking containing one cannot precompute heap keys.
 * Everything else falls through evaluate()'s default case to
 * staticValue()/staticValueMax(), fixed once the heuristic passes ran.
 */
bool
isDynamicHeuristic(Heuristic h)
{
    switch (h) {
      case Heuristic::InterlockWithPrevious:
      case Heuristic::EarliestExecutionTime:
      case Heuristic::FpuBusyTimes:
      case Heuristic::AlternateType:
      case Heuristic::NumSingleParentChildren:
      case Heuristic::SumDelaysToSingleParentChildren:
      case Heuristic::NumUncoveredChildren:
      case Heuristic::BirthingInstruction:
        return true;
      default:
        return false;
    }
}

/** Mutable evaluation context for the dynamic ("v") heuristics. */
struct EvalContext
{
    std::int64_t last = -1; ///< most recently scheduled node
    int lastGroup = -1;     ///< its issue group
    const FuState *fus = nullptr;
    int time = 0;
};

/** Evaluate one heuristic for candidate @p n. */
long long
evaluate(const Dag &dag, std::uint32_t n, const RankedHeuristic &rh,
         const EvalContext &ctx, const MachineModel &machine)
{
    obs::ev::schedHeuristicEvals.inc();
    const NodeAnnotations &ann = dag.ann();
    switch (rh.heuristic) {
      case Heuristic::InterlockWithPrevious:
        return interlocksWithPrevious(dag, n, ctx.last) ? 1 : 0;
      case Heuristic::EarliestExecutionTime:
        // EET acts as admission: every candidate already issueable at
        // the current time ranks equally (the paper admits nodes with
        // "EET <= current time"); later heuristics break the tie.
        return std::max<long long>(ann.earliestExecTime[n], ctx.time);
      case Heuristic::FpuBusyTimes: {
        if (!ctx.fus)
            return 0;
        FuKind fu = machine.fuFor(dag.inst(n).cls());
        return std::max(0, ctx.fus->earliestFree(fu, ctx.time) - ctx.time);
      }
      case Heuristic::AlternateType:
        return ann.altType[n] != ctx.lastGroup ? 1 : 0;
      case Heuristic::NumSingleParentChildren:
        return numSingleParentChildren(dag, n);
      case Heuristic::SumDelaysToSingleParentChildren:
        return sumDelaysToSingleParentChildren(dag, n);
      case Heuristic::NumUncoveredChildren:
        return numUncoveredChildren(dag, n);
      case Heuristic::BirthingInstruction:
        return static_cast<long long>(ann.priorityBoost[n]);
      default:
        return rh.phiMax ? staticValueMax(dag, n, rh.heuristic)
                         : staticValue(dag, n, rh.heuristic);
    }
}

/**
 * True when candidate @p a beats candidate @p b under the ranked
 * chain; ties fall through to original order (@p forward selects which
 * end of the block "earlier" means).
 */
bool
better(const Dag &dag, std::uint32_t a, std::uint32_t b,
       const SchedulerConfig &config, const EvalContext &ctx,
       const MachineModel &machine)
{
    for (const RankedHeuristic &rh : config.ranking) {
        long long va = evaluate(dag, a, rh, ctx, machine);
        long long vb = evaluate(dag, b, rh, ctx, machine);
        if (va != vb)
            return rh.preferLarger ? va > vb : va < vb;
    }
    return config.forward ? a < b : a > b;
}

/**
 * Pick the best candidate.  The default path is a linear lexicographic
 * scan; when @p stats is requested the pick runs as an explicit
 * winnowing pass (paper Section 5: "apply heuristics in a given order
 * in a winnowing-like process") recording the deciding rank.  Both
 * paths select the same winner.
 */
std::size_t
selectBest(const Dag &dag, const std::vector<std::uint32_t> &candidates,
           const SchedulerConfig &config, const EvalContext &ctx,
           const MachineModel &machine, DecisionStats *stats)
{
    SCHED91_ASSERT(!candidates.empty());
    if (!stats) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < candidates.size(); ++i)
            if (better(dag, candidates[i], candidates[best], config, ctx,
                       machine)) {
                best = i;
            }
        return best;
    }

    ++stats->totalPicks;
    stats->decidedAtRank.resize(config.ranking.size(), 0);

    // Optional decision log: one record per pick, filed at the
    // winning return point with the rank that decided it.
    auto logPick = [&](std::size_t idx, std::int32_t rank) {
        if (!stats->recordLog)
            return;
        DecisionRecord rec;
        rec.pick = static_cast<std::uint32_t>(stats->totalPicks - 1);
        rec.node = candidates[idx];
        rec.readySize = static_cast<std::uint32_t>(candidates.size());
        rec.decidedRank = rank;
        rec.time = ctx.time;
        stats->log.push_back(rec);
    };

    if (candidates.size() == 1) {
        ++stats->trivialPicks;
        logPick(0, DecisionStats::kDecidedTrivial);
        return 0;
    }

    std::vector<std::size_t> alive(candidates.size());
    for (std::size_t i = 0; i < alive.size(); ++i)
        alive[i] = i;

    for (std::size_t r = 0; r < config.ranking.size(); ++r) {
        const RankedHeuristic &rh = config.ranking[r];
        long long best_value =
            evaluate(dag, candidates[alive[0]], rh, ctx, machine);
        std::vector<std::size_t> kept{alive[0]};
        for (std::size_t k = 1; k < alive.size(); ++k) {
            long long v =
                evaluate(dag, candidates[alive[k]], rh, ctx, machine);
            bool better_value =
                rh.preferLarger ? v > best_value : v < best_value;
            if (better_value) {
                best_value = v;
                kept.clear();
                kept.push_back(alive[k]);
            } else if (v == best_value) {
                kept.push_back(alive[k]);
            }
        }
        alive = std::move(kept);
        if (alive.size() == 1) {
            ++stats->decidedAtRank[r];
            logPick(alive[0], static_cast<std::int32_t>(r));
            return alive[0];
        }
    }

    ++stats->originalOrderTies;
    std::size_t best = alive[0];
    for (std::size_t k : alive) {
        bool wins = config.forward ? candidates[k] < candidates[best]
                                   : candidates[k] > candidates[best];
        if (wins)
            best = k;
    }
    logPick(best, DecisionStats::kDecidedOriginalOrder);
    return best;
}

/** Compute issue cycles and makespan for a completed order. */
void
fillTiming(const Dag &dag, Schedule &sched)
{
    // Inherited cross-block floors participate in the timing just
    // like dependence arcs from a previous block would.
    WorkerContext *wc = WorkerContext::current();
    std::vector<int> local_dep;
    std::vector<int> &dep_ready = wc ? wc->depReady : local_dep;
    dep_ready.assign(dag.size(), 0);
    const NodeAnnotations &ann = dag.ann();
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        dep_ready[i] = ann.inheritedEet[i];
    sched.issueCycle.assign(sched.order.size(), 0);
    int time = 0;
    sched.makespan = 0;
    for (std::size_t p = 0; p < sched.order.size(); ++p) {
        std::uint32_t n = sched.order[p];
        int issue = std::max(time, dep_ready[n]);
        sched.issueCycle[p] = issue;
        std::span<const std::uint32_t> to = dag.succTo(n);
        std::span<const std::int32_t> delay = dag.succDelay(n);
        for (std::size_t k = 0; k < to.size(); ++k) {
            dep_ready[to[k]] =
                std::max(dep_ready[to[k]], issue + delay[k]);
        }
        sched.makespan =
            std::max(sched.makespan, issue + ann.execTime[n]);
        time = issue + 1;
    }
}

} // namespace

ListScheduler::ListScheduler(SchedulerConfig config,
                             const MachineModel &machine)
    : config_(std::move(config)), machine_(machine), rankingStatic_(true)
{
    for (const RankedHeuristic &rh : config_.ranking)
        if (isDynamicHeuristic(rh.heuristic))
            rankingStatic_ = false;
}

Schedule
ListScheduler::run(Dag &dag, DecisionStats *stats,
                   const CancellationToken *cancel) const
{
    // DecisionStats needs the explicit winnowing pass, so the heap
    // fast path only serves plain scheduling runs.
    Schedule sched = (rankingStatic_ && !stats)
                         ? runHeap(dag, cancel)
                         : runScan(dag, stats, cancel);
    if (config_.postpassFixup)
        applyPostpassFixup(dag, sched);
    fillTiming(dag, sched);
    return sched;
}

Schedule
ListScheduler::runHeap(Dag &dag, const CancellationToken *cancel) const
{
    initDynamicState(dag);

    const std::size_t ranks = config_.ranking.size();
    const bool forward = config_.forward;

    WorkerContext *wc = WorkerContext::current();
    std::vector<long long> local_keys;
    std::vector<std::uint32_t> local_heap;
    std::vector<long long> &keys = wc ? wc->heapKeys : local_keys;
    std::vector<std::uint32_t> &store = wc ? wc->heapNodes : local_heap;
    keys.resize(static_cast<std::size_t>(dag.size()) * ranks);

    // Each node enters the ready list exactly once, so its ranked
    // tuple is evaluated exactly once, at admission.
    auto computeKey = [&](std::uint32_t n) {
        for (std::size_t r = 0; r < ranks; ++r) {
            const RankedHeuristic &rh = config_.ranking[r];
            keys[n * ranks + r] =
                rh.phiMax ? staticValueMax(dag, n, rh.heuristic)
                          : staticValue(dag, n, rh.heuristic);
        }
        obs::ev::schedHeuristicEvals.inc(ranks);
    };

    // Same strict total order as better(): the ranked tuple, then
    // program order (earlier wins forward, later wins backward) — so
    // extract-max returns exactly the node the linear scan would pick.
    auto outranks = [&](std::uint32_t a, std::uint32_t b) {
        for (std::size_t r = 0; r < ranks; ++r) {
            long long va = keys[a * ranks + r];
            long long vb = keys[b * ranks + r];
            if (va != vb)
                return config_.ranking[r].preferLarger ? va > vb : va < vb;
        }
        return forward ? a < b : a > b;
    };

    DaryHeap<std::uint32_t, decltype(outranks)> ready(outranks, &store);
    for (std::uint32_t i = 0; i < dag.size(); ++i) {
        bool root = forward ? dag.numParents(i) == 0
                            : dag.numChildren(i) == 0;
        if (root) {
            computeKey(i);
            ready.push(i);
        }
    }

    Schedule sched;
    sched.order.reserve(dag.size());
    int time = 0;

    while (!ready.empty()) {
        if (cancel)
            cancel->poll();
        obs::ev::schedNodeVisits.inc();
        obs::ev::schedReadyListPeak.max(ready.size());
        std::uint32_t n = ready.pop();
        sched.order.push_back(n);

        if (forward) {
            int issue = std::max(time, dag.ann().earliestExecTime[n]);
            onScheduledForward(dag, n, issue);
            for (std::uint32_t c : dag.succTo(n)) {
                if (dag.ann().unscheduledParents[c] == 0) {
                    computeKey(c);
                    ready.push(c);
                }
            }
            time = issue + 1;
        } else {
            onScheduledBackward(dag, n, config_.birthing);
            for (std::uint32_t p : dag.predFrom(n)) {
                if (dag.ann().unscheduledChildren[p] == 0) {
                    computeKey(p);
                    ready.push(p);
                }
            }
        }
    }

    SCHED91_ASSERT(sched.order.size() == dag.size(),
                   "scheduler lost nodes (cyclic DAG?)");
    if (!forward)
        std::reverse(sched.order.begin(), sched.order.end());
    return sched;
}

Schedule
ListScheduler::runScan(Dag &dag, DecisionStats *stats,
                       const CancellationToken *cancel) const
{
    initDynamicState(dag);
    const bool forward = config_.forward;

    WorkerContext *wc = WorkerContext::current();
    std::vector<std::uint32_t> local_candidates;
    std::vector<std::uint32_t> &candidates =
        wc ? wc->readyList : local_candidates;
    candidates.clear();
    for (std::uint32_t i = 0; i < dag.size(); ++i)
        if ((forward ? dag.numParents(i) : dag.numChildren(i)) == 0)
            candidates.push_back(i);

    // FU and time context exist only in a forward pass.
    std::optional<FuState> fus;
    EvalContext ctx;
    if (forward)
        ctx.fus = &fus.emplace(machine_);

    Schedule sched;
    sched.order.reserve(dag.size());

    while (!candidates.empty()) {
        if (cancel)
            cancel->poll();
        obs::ev::schedNodeVisits.inc();
        obs::ev::schedReadyListPeak.max(candidates.size());
        std::size_t best =
            selectBest(dag, candidates, config_, ctx, machine_, stats);

        std::uint32_t n = candidates[best];
        candidates.erase(candidates.begin() +
                         static_cast<std::ptrdiff_t>(best));
        sched.order.push_back(n);

        if (forward) {
            int issue = std::max(ctx.time, dag.ann().earliestExecTime[n]);
            fus->occupy(dag.inst(n).cls(), issue);
            onScheduledForward(dag, n, issue);
            for (std::uint32_t c : dag.succTo(n))
                if (dag.ann().unscheduledParents[c] == 0)
                    candidates.push_back(c);
            ctx.time = issue + 1;
        } else {
            onScheduledBackward(dag, n, config_.birthing);
            for (std::uint32_t p : dag.predFrom(n))
                if (dag.ann().unscheduledChildren[p] == 0)
                    candidates.push_back(p);
        }
        ctx.last = n;
        ctx.lastGroup = dag.ann().altType[n];
    }

    SCHED91_ASSERT(sched.order.size() == dag.size(),
                   "scheduler lost nodes (cyclic DAG?)");
    if (!forward)
        std::reverse(sched.order.begin(), sched.order.end());
    return sched;
}

} // namespace sched91
