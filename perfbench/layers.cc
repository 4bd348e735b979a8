/**
 * @file
 * The traced per-layer run (`--trace 1`, any workload).  It times
 * calls into each module's public functions on the workload's own
 * inputs, from outside the library, and records one span per call:
 *
 *  - pipeline probe: ir (parse, partition, emit), dag (build),
 *    heuristics (the passes the algorithm needs), sched (run, verify,
 *    evaluate), each called directly, block by block; and core
 *    (runPipeline at one lane, at two lanes, and with observation on,
 *    which also yields the paper's work counters);
 *  - engine probe: service decode (parseRequestLine) and
 *    Engine::process with observation on and off;
 *  - daemon probe: sequential round trips through `sched91 serve` in
 *    both modes (daemon overhead, sandbox IPC), then a low-rate open
 *    loop in the workload's own mode (stats scrapes, queue wait,
 *    generator lateness).
 *
 * core.unattributed_ms is runPipeline's time minus the sum of the
 * layers it runs (partition, build, heuristics, schedule, verify,
 * evaluate), reported as is so a gap shows instead of hiding.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/pipeline.hh"
#include "dag/table_forward.hh"
#include "heuristics/register_pressure.hh"
#include "heuristics/static_passes.hh"
#include "ir/parser.hh"
#include "machine/presets.hh"
#include "obs/counters.hh"
#include "sched/pipeline_sim.hh"
#include "sched/verifier.hh"
#include "serve.hh"
#include "service/engine.hh"
#include "service/protocol.hh"

namespace perfbench
{

using namespace sched91;

namespace
{

/** Timed layers; the first group is what runPipeline runs itself. */
enum Layer
{
    Partition,
    Build,
    Heuristics,
    Run,
    Verify,
    Evaluate,
    Parse,
    Emit,
    Pipeline,
    Pipeline2Lanes,
    PipelineObserved,
    kLayers
};
constexpr int kPipelineLayers = Parse; // Partition .. Evaluate

const char *const kLayerName[kLayers] = {
    "ir.partition",  "dag.build",      "heuristics.pass",
    "sched.run",     "sched.verify",   "sched.evaluate",
    "ir.parse",      "ir.emit",        "core.pipeline",
    "core.pipeline_2lanes", "core.pipeline_observed"};

/** Counters reported from ProgramResult::counters. */
const char *const kCounters[] = {
    "dag.arcs_added",       "dag.alias_queries",
    "dag.table_probes",     "dag.pairwise_compares",
    "heur.forward_visits",  "heur.backward_visits",
    "heur.descendant_sweeps", "sched.heuristic_evals",
    "sched.node_visits"};

/** Span-recording stopwatch: accumulates seconds per layer. */
class LayerClock
{
  public:
    template <typename F>
    auto
    time(Layer layer, int parent, F &&fn)
    {
        const int span = open(kLayerName[layer], parent);
        const Clock::time_point t0 = Clock::now();
        auto result = fn();
        seconds_[layer] += secondsSince(t0);
        close(span);
        return result;
    }

    int
    open(const char *name, int parent)
    {
        return spans_ ? spans_->open(name, parent) : -1;
    }
    void
    close(int id)
    {
        if (spans_)
            spans_->close(id);
    }

    /** Start a pass: zero the sums; record spans into @p spans
     * (null = none). */
    void
    reset(SpanLog *spans)
    {
        spans_ = spans;
        std::fill(std::begin(seconds_), std::end(seconds_), 0.0);
    }
    double seconds(Layer layer) const { return seconds_[layer]; }

  private:
    SpanLog *spans_ = nullptr;
    double seconds_[kLayers] = {};
};

bool
n2Family(BuilderKind kind)
{
    return kind == BuilderKind::N2Forward ||
           kind == BuilderKind::N2Backward ||
           kind == BuilderKind::N2Landskov;
}

/** The options runPipeline gets for @p job on this workload: the
 * batch pass's, or the daemon's first ladder rung's. */
PipelineOptions
pipelineOptions(const Job &job, bool batch, unsigned lanes)
{
    PipelineOptions popts;
    popts.builder = job.builder;
    popts.algorithm = job.algorithm;
    popts.evaluate = true;
    popts.verify = true;
    popts.threads = lanes;
    if (!batch) {
        popts.containFaults = false;
        popts.maxBlockInsts = kServeMaxBlockInsts;
    }
    return popts;
}

/**
 * One job through the layers, called one by one as runPipeline calls
 * them.  Returns the scheduled cycles.
 */
long long
decomposedJob(const Job &job, bool batch, const MachineModel &machine,
              LayerClock &clock, int parent, std::size_t &blocksOut)
{
    DiagnosticEngine diags(DiagnosticEngine::Options{});
    Program prog = clock.time(Parse, parent, [&] {
        return parseAssembly(job.source, diags, "layers");
    });
    const std::vector<BasicBlock> blocks = clock.time(
        Partition, parent, [&] { return partitionBlocks(prog, {}); });
    blocksOut += blocks.size();

    const PipelineOptions popts = pipelineOptions(job, batch, 1);
    const SchedulerConfig config = algorithmSpec(job.algorithm).config;
    const std::unique_ptr<DagBuilder> builder = makeBuilder(job.builder);
    const std::unique_ptr<DagBuilder> table =
        makeBuilder(BuilderKind::TableForward);
    const ListScheduler scheduler(config, machine);

    long long cycles = 0;
    std::vector<Schedule> schedules;
    schedules.reserve(blocks.size());
    for (const BasicBlock &bb : blocks) {
        BlockView block(prog, bb);
        const bool fallback =
            popts.maxBlockInsts > 0 && n2Family(job.builder) &&
            bb.size() > static_cast<std::uint32_t>(popts.maxBlockInsts);
        DagBuilder &use = fallback ? *table : *builder;
        Dag dag = clock.time(Build, parent, [&] {
            return use.build(block, machine, popts.build);
        });
        clock.time(Heuristics, parent, [&] {
            if (config.needsForwardPass)
                runForwardPass(dag, popts.passImpl);
            if (config.needsBackwardPass)
                runBackwardPass(dag, popts.passImpl,
                                config.needsDescendants);
            if (config.needsForwardPass && config.needsBackwardPass)
                computeSlack(dag);
            if (config.needsRegisterPressure)
                computeRegisterPressure(dag);
            return 0;
        });
        Schedule sched = clock.time(Run, parent,
                                    [&] { return scheduler.run(dag); });
        clock.time(Verify, parent, [&] {
            return verifySchedule(dag, sched, machine).ok();
        });
        cycles += clock.time(Evaluate, parent, [&] {
            const bool reusable =
                (fallback || job.builder == BuilderKind::TableForward ||
                 job.builder == BuilderKind::TableBackward) &&
                !popts.build.preventTransitive;
            if (reusable) {
                simulateSchedule(dag, originalOrderSchedule(dag).order,
                                 machine);
                return simulateSchedule(dag, sched.order, machine).cycles;
            }
            BuildOptions gt = popts.build;
            gt.preventTransitive = false;
            gt.maintainReachMaps = false;
            Dag truth = TableForwardBuilder().build(block, machine, gt);
            simulateSchedule(truth, originalOrderSchedule(truth).order,
                             machine);
            return simulateSchedule(truth, sched.order, machine).cycles;
        });
        schedules.push_back(std::move(sched));
    }
    clock.time(Emit, parent, [&] {
        std::string text;
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            BlockView block(prog, blocks[b]);
            for (std::uint32_t pos : schedules[b].order) {
                text += block.inst(pos).toString();
                text += '\n';
            }
        }
        return text.size();
    });
    return cycles;
}

/** runPipeline over every job (timed by the clock); summed results. */
struct PipelineRun
{
    long long cycles = 0;
    std::size_t blocks = 0;
    std::size_t degraded = 0;
    std::map<std::string, std::uint64_t> counters;
};

PipelineRun
pipelineRun(const std::vector<Job> &jobs, bool batch,
            const MachineModel &machine, unsigned lanes, bool observe,
            LayerClock &clock, int parent)
{
    obs::setEnabled(observe);
    PipelineRun run;
    for (const Job &job : jobs) {
        DiagnosticEngine diags(DiagnosticEngine::Options{});
        Program prog = parseAssembly(job.source, diags, "layers");
        const PipelineOptions popts = pipelineOptions(job, batch, lanes);
        const ProgramResult r =
            clock.time(lanes == 1 ? (observe ? PipelineObserved : Pipeline)
                                  : Pipeline2Lanes,
                       parent,
                       [&] { return runPipeline(prog, machine, popts); });
        run.cycles += r.cyclesScheduled;
        run.blocks += r.numBlocks;
        run.degraded += r.blocksDegraded;
        if (observe)
            for (const char *name : kCounters)
                run.counters[name] += r.counters.value(name);
    }
    obs::setEnabled(false);
    return run;
}

/** Engine::process over @p specs: seconds per request; answers other
 * than ok count in @p failures. */
std::vector<double>
engineSeconds(service::Engine &engine,
              const std::vector<service::RequestSpec> &specs, bool observe,
              std::size_t &failures)
{
    obs::setEnabled(observe);
    std::vector<double> out;
    for (const service::RequestSpec &spec : specs) {
        const Clock::time_point t0 = Clock::now();
        const std::string line = engine.process(spec, 0.0);
        out.push_back(secondsSince(t0));
        if (line.find("\"status\":\"ok\"") == std::string::npos)
            ++failures;
    }
    obs::setEnabled(false);
    return out;
}

/** Fixed open-loop rate of the daemon probe, requests/s. */
double
probeRate(const std::string &workload)
{
    if (workload == "batch-table3")
        return 2.0;
    if (workload == "batch-fpppp")
        return 1.0;
    return referenceRate(workload);
}

} // namespace

void
runLayers(const Options &opts, Result &out)
{
    const bool batch = isBatch(opts.workload);
    // Serve workloads: the first quarter of the measured corpus, so a
    // pass over every layer takes a couple of seconds, not ten.
    std::vector<Job> jobs = batch ? batchJobs(opts.workload, opts.seed)
                                  : serveCorpus(opts.seed, kServeCorpus);
    jobs.resize(std::min(jobs.size(), kServeCorpus / 4));
    const MachineModel machine = presetByName("sparcstation2");
    obs::setEnabled(false);

    // --- Pipeline probe ------------------------------------------------
    SpanLog spans;
    LayerClock clock;
    std::vector<double> perPass[kLayers];
    PipelineRun observed;
    long long decomposedCycles = 0;
    std::size_t decomposedBlocks = 0;
    const Clock::time_point p0 = Clock::now();
    for (int pass = 0; pass < 3 || secondsSince(p0) < 0.45 * opts.seconds;
         ++pass) {
        // Spans of the first pass only: enough to see the structure,
        // small enough to write out.
        clock.reset(pass == 0 ? &spans : nullptr);
        const int root = clock.open("pass", -1);
        decomposedCycles = 0;
        decomposedBlocks = 0;
        for (const Job &job : jobs) {
            const int js = clock.open("job", root);
            decomposedCycles +=
                decomposedJob(job, batch, machine, clock, js,
                              decomposedBlocks);
            clock.close(js);
        }
        pipelineRun(jobs, batch, machine, 1, false, clock, root);
        pipelineRun(jobs, batch, machine, 2, false, clock, root);
        observed = pipelineRun(jobs, batch, machine, 1, true, clock, root);
        clock.close(root);
        for (int l = 0; l < kLayers; ++l)
            perPass[l].push_back(clock.seconds(static_cast<Layer>(l)));
    }
    auto layerMs = [&](Layer layer) { return 1e3 * median(perPass[layer]); };
    double attributedMs = 0.0;
    for (int l = 0; l < kPipelineLayers; ++l)
        attributedMs += layerMs(static_cast<Layer>(l));
    const double pipelineMs = layerMs(Pipeline);

    out.check(decomposedCycles == observed.cycles,
              "layer-by-layer schedules differ from runPipeline's (" +
                  std::to_string(decomposedCycles) + " vs " +
                  std::to_string(observed.cycles) + " cycles)");
    out.check(decomposedBlocks == observed.blocks,
              "layer-by-layer block count differs from runPipeline's");

    // --- Engine probe ----------------------------------------------------
    // The first m jobs, decoded and processed in process; the daemon
    // probe's round trips replay exactly these.
    const std::size_t m = std::min<std::size_t>(jobs.size(), 128);
    const std::vector<Job> probeJobs(jobs.begin(), jobs.begin() + m);
    std::vector<std::string> lines;
    std::vector<service::RequestSpec> specs;
    std::vector<double> decodeUs;
    for (std::size_t i = 0; i < m; ++i)
        lines.push_back(probeJobs[i].requestLine("p" + std::to_string(i)));
    service::EngineConfig ecfg;
    ecfg.maxBlockInsts = kServeMaxBlockInsts;
    ecfg.quarantineCapacity = 0;
    service::Engine engine(ecfg);
    std::vector<std::vector<double>> engOn(m), engOff(m);
    std::size_t engineFailures = 0;
    const Clock::time_point e0 = Clock::now();
    for (int sweep = 0; sweep < 2 || secondsSince(e0) < 0.2 * opts.seconds;
         ++sweep) {
        specs.clear();
        for (const std::string &line : lines) {
            std::string error;
            const Clock::time_point t0 = Clock::now();
            std::optional<service::RequestSpec> spec =
                service::parseRequestLine(line, error);
            decodeUs.push_back(1e6 * secondsSince(t0));
            out.check(spec.has_value(), "request does not decode: " + error);
            if (!spec)
                return;
            specs.push_back(std::move(*spec));
        }
        const std::vector<double> on =
            engineSeconds(engine, specs, true, engineFailures);
        const std::vector<double> off =
            engineSeconds(engine, specs, false, engineFailures);
        for (std::size_t i = 0; i < m; ++i) {
            engOn[i].push_back(on[i]);
            engOff[i].push_back(off[i]);
        }
    }
    // Per-job medians, then means over jobs (the round trips below
    // visit each job the same number of times).
    std::vector<double> onMed, offMed;
    for (std::size_t i = 0; i < m; ++i) {
        onMed.push_back(median(engOn[i]));
        offMed.push_back(median(engOff[i]));
    }
    const double engineOnUs = 1e6 * mean(onMed);
    const double engineOffUs = 1e6 * mean(offMed);

    // --- Daemon probe ------------------------------------------------------
    const bool primaryIsolated = isolated(opts.workload);
    const std::size_t reps = (16 + m - 1) / m;
    double overheadUs = 0.0, ipcUs = 0.0;
    PhaseStats loop;
    std::string stats;
    std::vector<double> scrapeMs;
    std::size_t serveSent = 0, serveFailed = 0;
    for (const bool iso : {primaryIsolated, !primaryIsolated}) {
        DaemonProcess daemon(opts, iso, iso ? "layers-iso" : "layers");
        daemon.start();
        {
            LoadGen probe(daemon.socketPath(), probeJobs, 1);
            std::vector<std::size_t> entries;
            for (std::size_t i = 0; i < reps * m; ++i)
                entries.push_back(i % m);
            const std::vector<double> rtt = probe.roundTrips(entries);
            // Sandbox workers do not count, so the isolated daemon's
            // engine time is the observation-off one.
            const double engineUs = iso ? engineOffUs : engineOnUs;
            (iso ? ipcUs : overheadUs) = 1e6 * mean(rtt) - engineUs;
            serveSent += rtt.size();
        }
        if (iso != primaryIsolated)
            continue;
        LoadGen gen(daemon.socketPath(), jobs, 4);
        loop = gen.run(probeRate(opts.workload), 0.25 * opts.seconds, 10.0,
                       10.0);
        stats = gen.scrape();
        scrapeMs = gen.scrapeMs();
        serveSent += loop.sent;
        serveFailed += loop.failed();
    }
    const double queueWaitMs = queueWaitP99Ms(stats);
    out.check(queueWaitMs >= 0.0,
              "stats scrape lacks svc.queue_wait_ns");
    out.check(engineFailures == 0, std::to_string(engineFailures) +
                                       " in-process engine requests not ok");

    const std::string spanPath =
        opts.runDir + "/" + opts.workload + "-" + std::to_string(opts.seed) +
        ".spans.jsonl";
    spans.write(spanPath);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 spans.size(), spanPath.c_str());

    const std::size_t units = observed.blocks + serveSent;
    const std::size_t failures = observed.degraded + serveFailed;
    out.attempt(units, failures);

    out.metric("fail_ratio",
               static_cast<double>(failures) / static_cast<double>(units),
               "ratio");
    out.metric("ir.parse_ms", layerMs(Parse), "ms");
    out.metric("ir.partition_ms", layerMs(Partition), "ms");
    out.metric("ir.emit_ms", layerMs(Emit), "ms");
    out.metric("dag.build_ms", layerMs(Build), "ms");
    out.metric("heuristics.pass_ms", layerMs(Heuristics), "ms");
    out.metric("sched.run_ms", layerMs(Run), "ms");
    out.metric("sched.verify_ms", layerMs(Verify), "ms");
    out.metric("sched.evaluate_ms", layerMs(Evaluate), "ms");
    out.metric("core.pipeline_ms", pipelineMs, "ms");
    out.metric("core.unattributed_ms", pipelineMs - attributedMs, "ms");
    out.metric("core.lane_speedup", pipelineMs / layerMs(Pipeline2Lanes),
               "ratio");
    out.metric("obs.pipeline_overhead_ratio",
               layerMs(PipelineObserved) / pipelineMs, "ratio");
    out.metric("obs.engine_overhead_ratio", engineOnUs / engineOffUs,
               "ratio");
    for (const char *name : kCounters)
        out.metric(name,
                   static_cast<double>(observed.counters[name]),
                   "count");
    out.metric("service.decode_us", mean(decodeUs), "us");
    out.metric("service.engine_us",
               primaryIsolated ? engineOffUs : engineOnUs, "us");
    out.metric("service.queue_wait_ms_p99", queueWaitMs, "ms");
    out.metric("service.daemon_overhead_us", overheadUs, "us");
    out.metric("service.ipc_us", ipcUs, "us");
    out.metric("service.stats_scrape_ms_p99", quantile(scrapeMs, 0.99),
               "ms");
    out.metric("client.late_ms_p99", quantile(loop.lateMs, 0.99), "ms");
}

} // namespace perfbench
