/**
 * layer_probe: the per-layer half of the figure-regeneration benchmark
 * (perfbench/run.py drives it; see perfbench/README.md).
 *
 * It links the vpsim libraries and calls each module's public entry
 * points on the inputs a benchmark workload uses, recording one span
 * (name, start, end, parent, count) around every call. Spans stay in
 * memory and are written once, at exit, to --spans; run.py derives the
 * per-layer self times from them. Three modes:
 *
 *   --probe-mode calibrate  fixed integer loop -> host speed score
 *   --probe-mode setup      time SimRunner::captureBenchmarks() for a
 *                           list of --insts values, --repeats times
 *   --probe-mode layers     the layer sequence, traced then untraced;
 *                           simulated counters must repeat exactly
 *
 * Results go to stdout as one JSON object. Every option of
 * fleet_sweep is accepted too: the grid axes (--predictors,
 * --table-sizes, --window-sizes, --fetch-rates, --vp-penalties) and
 * --insts/--seed define the ideal-machine grid the predictor and core
 * layers run.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/did.hpp"
#include "analysis/predictability.hpp"
#include "bpred/branch_predictor.hpp"
#include "bpred/two_level.hpp"
#include "common/logging.hpp"
#include "common/options.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "fetch/trace_cache.hpp"
#include "fleet/grid.hpp"
#include "fleet/result_store.hpp"
#include "fleet/shard_planner.hpp"
#include "predictor/classifier.hpp"
#include "predictor/factory.hpp"
#include "sim/sim_runner.hpp"
#include "trace/trace_cache_store.hpp"
#include "trace/trace_v3.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace vpsim;
using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** In-memory span store; one writer thread (the probe's main thread). */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;
        std::uint64_t count = 0;
    };

    bool enabled = false;

    int
    open(const std::string &name)
    {
        if (!enabled)
            return -1;
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, nowNs(), 0, parent, 0});
        stack.push_back(static_cast<int>(spans.size() - 1));
        return stack.back();
    }

    void
    close(int id, std::uint64_t count)
    {
        if (id < 0)
            return;
        spans[static_cast<std::size_t>(id)].end = nowNs();
        spans[static_cast<std::size_t>(id)].count = count;
        stack.pop_back();
    }

    void
    write(const std::string &path) const
    {
        if (path.empty())
            return;
        std::FILE *file = std::fopen(path.c_str(), "w");
        fatalIf(!file, "cannot write spans to " + path);
        std::fputs("[\n", file);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(file,
                         "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                         "%" PRId64 ", \"end_ns\": %" PRId64
                         ", \"parent\": %d, \"count\": %" PRIu64 "}%s\n",
                         i, s.name.c_str(), s.start, s.end, s.parent,
                         s.count, i + 1 < spans.size() ? "," : "");
        }
        std::fputs("]\n", file);
        std::fclose(file);
    }

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
};

SpanRecorder recorder;

/** RAII span; set `count` before it closes. */
struct ScopedSpan
{
    explicit ScopedSpan(const std::string &name) : id(recorder.open(name))
    {
    }
    ~ScopedSpan() { recorder.close(id, count); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id;
    std::uint64_t count = 0;
};

/** FNV-1a over a stream of 64-bit values (simulated-result digest). */
struct Digest
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (value >> (8 * i)) & 0xffU;
            state *= 1099511628211ULL;
        }
    }
};

std::uint64_t
traceDigest(const std::vector<TraceRecord> &records)
{
    Digest d;
    for (const TraceRecord &r : records) {
        d.add(r.pc);
        d.add(r.nextPc);
        d.add(static_cast<std::uint64_t>(r.result));
        d.add(r.memAddr);
    }
    return d.state;
}

/** Fixed integer work: the calibration loop and the fixed-cost cells. */
std::uint64_t
spin(std::uint64_t iterations, std::uint64_t seed)
{
    std::uint64_t x = seed | 1U;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

std::vector<std::uint64_t>
parseLengths(const std::string &text)
{
    std::vector<std::uint64_t> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!item.empty())
            out.push_back(std::stoull(item));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Parse an argv built from strings into a fresh Options. */
void
parseInto(Options &options, const std::vector<std::string> &args)
{
    std::vector<const char *> argv;
    argv.push_back("layer_probe");
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    options.parse(static_cast<int>(argv.size()), argv.data(),
                  "layer_probe internal runner");
}

/** JSON object writer for the probe's single result line. */
class JsonOut
{
  public:
    void
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        field(key, buf);
    }
    void
    u64(const std::string &key, std::uint64_t value)
    {
        field(key, std::to_string(value));
    }
    void
    str(const std::string &key, const std::string &value)
    {
        field(key, "\"" + value + "\"");
    }
    void
    list(const std::string &key, const std::vector<double> &values)
    {
        std::string text = "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", values[i]);
            text += (i ? ", " : "") + std::string(buf);
        }
        field(key, text + "]");
    }
    void
    print() const
    {
        std::printf("{%s}\n", body.c_str());
    }

  private:
    void
    field(const std::string &key, const std::string &value)
    {
        body += (body.empty() ? "\"" : ", \"") + key + "\": " + value;
    }
    std::string body;
};

int
calibrate()
{
    // Best of five: the score describes the host, not its momentary load.
    constexpr std::uint64_t iterations = 50'000'000;
    double best = 0.0;
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 5; ++i) {
        const std::int64_t start = nowNs();
        sink = spin(iterations, static_cast<std::uint64_t>(i) + 1);
        const double secs = static_cast<double>(nowNs() - start) * 1e-9;
        best = std::max(best, static_cast<double>(iterations) / secs / 1e6);
    }
    // xorshift never reaches 0 from a non-zero state.
    fatalIf(sink == 0, "calibration loop produced no result");
    JsonOut out;
    out.num("calibration_mops", best);
#ifdef __OPTIMIZE__
    out.u64("optimized", 1);
#else
    out.u64("optimized", 0);
#endif
    out.str("compiler", __VERSION__);
    out.print();
    return 0;
}

/**
 * Time SimRunner::captureBenchmarks() for each --setup-lengths value in
 * order, under the cache state the workload sees: --fresh-cache 1 wipes
 * --trace-cache-dir before every repeat (cold), 0 keeps it (warm), and
 * an empty --trace-cache-dir captures in memory.
 */
int
setupMode(const Options &options)
{
    const std::vector<std::uint64_t> lengths =
        parseLengths(options.getString("setup-lengths"));
    const std::string cache_dir = options.getString("trace-cache-dir");
    std::vector<double> samples;
    for (std::int64_t rep = 0; rep < options.getInt("repeats"); ++rep) {
        if (options.getBool("fresh-cache") && !cache_dir.empty())
            std::filesystem::remove_all(cache_dir);
        double total = 0.0;
        for (const std::uint64_t insts : lengths) {
            Options run_options;
            declareStandardOptions(run_options, insts);
            parseInto(run_options,
                      {"--insts", std::to_string(insts), "--jobs",
                       options.getString("jobs"), "--seed",
                       options.getString("seed"), "--trace-cache-dir",
                       cache_dir});
            SimRunner runner(run_options);
            const std::int64_t start = nowNs();
            const BenchmarkTraces traces = runner.captureBenchmarks();
            total += static_cast<double>(nowNs() - start) * 1e-9;
            fatalIf(traces.size() == 0, "setup captured no traces");
        }
        samples.push_back(total);
    }
    JsonOut out;
    out.list("setup_s", samples);
    out.print();
    return 0;
}

/** Simulated counts of one layer sequence; must repeat exactly. */
using Counts = std::map<std::string, std::uint64_t>;

/** Inputs of the layer sequence, as run.py describes the workload. */
struct LayerPlan
{
    const fleet::FleetGrid *grid = nullptr;
    WorkloadParams params;
    std::uint64_t idealInsts = 0;
    std::uint64_t pipelineInsts = 0;
    std::uint64_t analysisInsts = 0;
    /** Captures per workload: (length, times) in pass order. */
    std::map<std::string, std::vector<std::pair<std::uint64_t, unsigned>>>
        captures;
    std::string workDir;
    unsigned jobs = 1;
    /** fleet_sweep's --fleet-shard-cells: cells per planned shard. */
    std::uint32_t shardCells = 64;
};

/** What the layers accumulate over the workloads of one sequence. */
struct Tally
{
    Counts counts;
    Digest ideal;
    Digest pipeline;
    Digest analysis;
    /** Ideal-grid cells (VP speedup - 1) by global cell index. */
    std::map<std::uint32_t, double> cells;
};

using Traces = std::map<std::uint64_t, std::vector<TraceRecord>>;

void
vmLayer(const LayerPlan &plan, const std::string &name, Traces &traces,
        Tally &t)
{
    ScopedSpan layer("layer.vm");
    std::uint64_t longest = 0;
    for (const auto &[length, times] : plan.captures.at(name)) {
        for (unsigned i = 0; i < times; ++i) {
            ScopedSpan span("vm.capture");
            traces[length] = captureWorkloadTrace(name, length, plan.params);
            span.count = traces[length].size();
            t.counts["vm.captured_insts"] += span.count;
        }
        longest = std::max(longest, length);
    }
    t.counts["vm.distinct_insts"] += longest;
}

/** v3 file round trip, then a trace-cache store and hit, per trace. */
void
traceLayer(const LayerPlan &plan, const std::string &name,
           const Traces &traces, const TraceCacheStore &store, Tally &t)
{
    ScopedSpan layer("layer.trace");
    const std::string file = plan.workDir + "/encode.vptrace";
    for (const auto &[length, records] : traces) {
        const std::uint64_t digest = traceDigest(records);
        std::uint64_t &materialized = t.counts["trace.materialized_bytes"];
        materialized = std::max<std::uint64_t>(
            materialized,
            records.size() * sizeof(TraceRecord) * plan.grid->rows());
        {
            ScopedSpan span("trace.v3_encode");
            const Status status = writeTraceV3(file, records);
            fatalIf(!status.isOk(), status.message());
            span.count = records.size();
        }
        std::vector<TraceRecord> decoded;
        {
            ScopedSpan span("trace.v3_decode");
            const Status status = readTraceV3(file, &decoded);
            fatalIf(!status.isOk(), status.message());
            span.count = decoded.size();
        }
        fatalIf(traceDigest(decoded) != digest,
                "v3 round trip changed the " + name + " trace");
        decoded = {};

        TraceCacheKey key;
        key.workload = name;
        key.insts = length;
        key.scale = plan.params.scale;
        key.seed = plan.params.seed;
        key.formatVersion = traceFormatVersionV3;
        {
            ScopedSpan span("trace.cache_store");
            const Status status = store.store(key, records);
            fatalIf(!status.isOk(), status.message());
            span.count = records.size();
        }
        std::vector<TraceRecord> loaded;
        {
            ScopedSpan span("trace.cache_load");
            Status error = Status::ok();
            fatalIf(!store.tryLoad(key, &loaded, &error),
                    "probe cache missed its own entry: " + error.message());
            span.count = loaded.size();
        }
        fatalIf(traceDigest(loaded) != digest,
                "cache round trip changed the " + name + " trace");
        const std::uint64_t entry_bytes =
            std::filesystem::file_size(store.pathFor(key));
        t.counts["trace.loaded_insts"] += loaded.size();
        t.counts["trace.cache_bytes_written"] += entry_bytes;
        t.counts["trace.cache_bytes_read"] += entry_bytes;
    }
    std::filesystem::remove(file);
}

/**
 * One classified-predictor pass per distinct predictor key. A
 * classified prediction depends only on the trace and (kind,
 * capacity), never on timing, so this is all the work a fused sweep
 * would need.
 */
void
predictorLayer(const fleet::FleetGrid &grid,
               const std::vector<TraceRecord> &trace, Tally &t)
{
    ScopedSpan layer("layer.predictor");
    std::set<std::pair<PredictorKind, std::size_t>> keys;
    for (std::size_t col = 0; col < grid.cols(); ++col) {
        const IdealMachineConfig &cfg = grid.columnConfig(col);
        keys.insert({cfg.predictorKind, cfg.tableCapacity});
    }
    std::uint64_t producing = 0;
    for (const TraceRecord &r : trace)
        producing += r.producesValue() ? 1 : 0;
    for (const auto &[kind, capacity] : keys) {
        auto predictor = makeClassifiedPredictor(kind, capacity);
        std::uint64_t predicted = 0;
        std::uint64_t correct = 0;
        {
            ScopedSpan span("predictor.kernel");
            for (const TraceRecord &r : trace) {
                if (!r.producesValue())
                    continue;
                const ClassifiedPrediction p =
                    predictor->predictAndTrain(r.pc, r.result);
                predicted += p.predicted ? 1 : 0;
                correct += p.predicted && p.value == r.result ? 1 : 0;
            }
            span.count = producing;
        }
        t.counts["predictor.predicted"] += predicted;
        t.counts["predictor.correct"] += correct;
    }
    t.counts["predictor.value_insts"] += producing;
    t.counts["predictor.keys"] = keys.size();
    // Today every VP cell of the grid predicts the whole trace again:
    // one call per value-producing instruction per cell.
    t.counts["predictor.calls"] += producing * grid.cols();
}

void
idealLayer(const fleet::FleetGrid &grid, std::size_t row,
           const std::vector<TraceRecord> &trace, Tally &t)
{
    ScopedSpan layer("layer.core.ideal");
    for (std::size_t col = 0; col < grid.cols(); ++col) {
        IdealMachineConfig novp = grid.columnConfig(col);
        novp.useValuePrediction = false;
        IdealMachineConfig vp = novp;
        vp.useValuePrediction = true;
        IdealMachineResult base;
        IdealMachineResult with_vp;
        {
            ScopedSpan span("core.ideal.novp");
            base = runIdealMachine(trace, novp);
            span.count = base.instructions;
        }
        {
            ScopedSpan span("core.ideal.vp");
            with_vp = runIdealMachine(trace, vp);
            span.count = with_vp.instructions;
        }
        t.counts["core.ideal.insts"] +=
            base.instructions + with_vp.instructions;
        t.counts["core.ideal.useful"] += with_vp.usefulPredictions;
        t.counts["core.ideal.correct_uses"] +=
            with_vp.correctlyPredictedUses;
        t.ideal.add(base.cycles);
        t.ideal.add(with_vp.cycles);
        t.cells[static_cast<std::uint32_t>(row * grid.cols() + col)] =
            static_cast<double>(base.cycles) /
                static_cast<double>(with_vp.cycles) -
            1.0;
    }
}

/** fig5.1's sequential and fig5.3's trace-cache machines, VP off/on. */
void
pipelineLayer(const std::vector<TraceRecord> &trace, Tally &t)
{
    ScopedSpan layer("layer.core.pipeline");
    std::vector<std::pair<const char *, PipelineConfig>> configs;
    for (const unsigned limit : {1U, 2U, 3U, 4U, 0U}) {
        PipelineConfig config;
        config.frontEnd = FrontEndKind::Sequential;
        config.maxTakenBranches = limit;
        config.perfectBranchPredictor = true;
        configs.emplace_back("core.pipeline.sequential", config);
    }
    for (const bool perfect : {false, true}) {
        PipelineConfig config;
        config.frontEnd = FrontEndKind::TraceCache;
        config.perfectBranchPredictor = perfect;
        configs.emplace_back("core.pipeline.trace_cache", config);
    }
    for (const auto &[span_name, base] : configs) {
        for (const bool vp : {false, true}) {
            PipelineConfig config = base;
            config.useValuePrediction = vp;
            ScopedSpan span(span_name);
            const PipelineResult result = runPipelineMachine(trace, config);
            span.count = result.instructions;
            t.counts["core.pipeline.insts"] += result.instructions;
            t.counts["core.pipeline.cycles"] += result.cycles;
            t.pipeline.add(result.cycles);
        }
    }
}

/** The trace-cache front end alone, fed by a perfect branch predictor. */
void
fetchLayer(const std::vector<TraceRecord> &trace, Tally &t)
{
    ScopedSpan layer("layer.fetch");
    PerfectBranchPredictor oracle;
    TraceCacheFetch fetch(trace, oracle);
    std::vector<FetchedInst> bundle;
    const unsigned width = PipelineConfig{}.issueWidth;
    Cycle calls = 0;
    {
        ScopedSpan span("fetch.trace_cache");
        while (!fetch.done()) {
            bundle.clear();
            fetch.fetch(calls++, width, bundle);
        }
        span.count = trace.size();
    }
    t.counts["fetch.insts"] += fetch.fetchedInsts();
    t.counts["fetch.calls"] += calls;
    t.counts["fetch.tc_lookups"] += fetch.lookups();
    t.counts["fetch.tc_hits"] += fetch.hits();
}

void
bpredLayer(const std::vector<TraceRecord> &trace, Tally &t)
{
    ScopedSpan layer("layer.bpred");
    TwoLevelPApPredictor btb;
    ScopedSpan span("bpred.two_level");
    for (const TraceRecord &r : trace) {
        if (!r.isControlFlow())
            continue;
        const BranchPrediction p = btb.predict(r);
        btb.update(r, p);
    }
    t.counts["bpred.predictions"] += btb.predictions();
    t.counts["bpred.correct"] += btb.correctPredictions();
    span.count = btb.predictions();
}

void
analysisLayer(const std::vector<TraceRecord> &trace, Tally &t)
{
    ScopedSpan layer("layer.analysis");
    {
        ScopedSpan span("analysis.did");
        t.analysis.add(analyzeDid(trace).totalArcs);
        span.count = trace.size();
    }
    {
        ScopedSpan span("analysis.predictability");
        const PredictabilityAnalysis pa = analyzePredictability(trace);
        t.analysis.add(static_cast<std::uint64_t>(
            pa.fracPredictableDid4Plus * 1e12));
        span.count = trace.size();
    }
    t.counts["analysis.insts"] += 2 * trace.size();
}

/**
 * Publish the ideal grid's cells the way fleet workers do (one shard
 * file per planned shard), then merge them back.
 */
void
fleetLayer(const LayerPlan &plan, const Tally &t)
{
    ScopedSpan layer("layer.fleet");
    const fleet::FleetGrid &grid = *plan.grid;
    const std::string store_dir = plan.workDir + "/results";
    std::filesystem::remove_all(store_dir);
    const fleet::ResultStore results(store_dir, grid.fleetHash());
    std::vector<std::uint32_t> all;
    for (std::uint32_t cell = 0; cell < grid.cells(); ++cell)
        all.push_back(cell);
    for (const fleet::Shard &shard :
         fleet::ShardPlanner::plan(all, plan.shardCells)) {
        fleet::ShardResult result;
        for (std::uint32_t cell = shard.firstCell; cell <= shard.lastCell;
             ++cell)
            result.cells.emplace_back(cell, t.cells.at(cell));
        ScopedSpan span("fleet.store_write");
        const Status status =
            results.store(shard.firstCell, shard.lastCell, result);
        fatalIf(!status.isOk(), status.message());
        span.count = result.cells.size();
    }
    std::map<std::uint32_t, double> merged;
    SalvageRegistry::Totals salvage;
    {
        ScopedSpan span("fleet.store_merge");
        span.count = results.mergeAll(&merged, &salvage).cellsMerged;
    }
    fatalIf(merged != t.cells, "result store round trip changed cells");
}

/** The full layer sequence; traced when the recorder is enabled. */
Counts
runLayers(const LayerPlan &plan)
{
    const fleet::FleetGrid &grid = *plan.grid;
    ScopedSpan whole("probe.layers");
    Tally t;
    const std::string cache_dir = plan.workDir + "/cache";
    std::filesystem::remove_all(cache_dir);
    const TraceCacheStore store(cache_dir);
    fatalIf(!store.status().isOk(),
            "probe cache unusable: " + store.status().message());

    // Workload by workload, so at most one workload's traces are held.
    for (std::size_t row = 0; row < grid.rows(); ++row) {
        const std::string &name = grid.workloads()[row];
        Traces traces;
        vmLayer(plan, name, traces, t);
        traceLayer(plan, name, traces, store, t);
        predictorLayer(grid, traces.at(plan.idealInsts), t);
        idealLayer(grid, row, traces.at(plan.idealInsts), t);
        pipelineLayer(traces.at(plan.pipelineInsts), t);
        fetchLayer(traces.at(plan.pipelineInsts), t);
        bpredLayer(traces.at(plan.pipelineInsts), t);
        analysisLayer(traces.at(plan.analysisInsts), t);
    }
    fleetLayer(plan, t);

    t.counts["core.ideal.cycles_digest"] = t.ideal.state;
    t.counts["core.pipeline.cycles_digest"] = t.pipeline.state;
    t.counts["analysis.digest"] = t.analysis.state;
    whole.count = t.counts["vm.captured_insts"];
    return t.counts;
}

/**
 * The sim layer: SimRunner dispatch cost on empty cells and scaling on
 * fixed-cost cells. Host-time only, so outside the repeat check.
 */
void
simLayer(const LayerPlan &plan, JsonOut &out)
{
    ScopedSpan layer("layer.sim");
    const auto runner_for = [](unsigned jobs) {
        auto options = std::make_unique<Options>();
        declareRunnerOptions(*options);
        parseInto(*options, {"--jobs", std::to_string(jobs)});
        return options;
    };

    const auto wide = runner_for(plan.jobs);
    SimRunner runner(*wide);
    constexpr std::size_t empty_side = 64;
    {
        ScopedSpan span("sim.dispatch");
        const std::int64_t start = nowNs();
        const auto cells = runner.runGrid(
            empty_side, empty_side,
            [](std::size_t, std::size_t) { return 0.0; });
        span.count = empty_side * empty_side;
        out.num("sim.dispatch_us_per_job",
                static_cast<double>(nowNs() - start) * 1e-3 /
                    static_cast<double>(span.count));
        fatalIf(cells.size() != empty_side, "dispatch grid lost rows");
    }

    // Fixed-cost cells: each spins the same loop, so ideal scaling
    // divides the jobs=1 wall by the thread count exactly.
    constexpr std::size_t fixed_cells = 64;
    constexpr std::uint64_t fixed_spin = 2'000'000;
    std::vector<double> job_cpu(fixed_cells, 0.0);
    const auto fixed = [&](SimRunner &r) {
        const std::int64_t start = nowNs();
        (void)r.runGrid(fixed_cells, 1, [&](std::size_t row, std::size_t) {
            const double cpu0 = threadCpuSeconds();
            const double v = static_cast<double>(spin(fixed_spin, row) & 1U);
            job_cpu[row] = threadCpuSeconds() - cpu0;
            return v;
        });
        return static_cast<double>(nowNs() - start) * 1e-9;
    };
    const auto narrow = runner_for(1);
    SimRunner serial(*narrow);
    double t1 = 0.0;
    double tn = 0.0;
    {
        ScopedSpan span("sim.fixed_jobs1");
        t1 = fixed(serial);
        span.count = fixed_cells;
    }
    {
        ScopedSpan span("sim.fixed_jobsn");
        tn = fixed(runner);
        span.count = fixed_cells;
    }
    double cpu = 0.0;
    for (const double v : job_cpu)
        cpu += v;
    out.num("sim.scaling_eff", t1 / (tn * static_cast<double>(plan.jobs)));
    out.num("sim.job_cpu_s", cpu);
}

int
layersMode(const Options &options)
{
    const fleet::FleetGrid grid(options);
    LayerPlan plan;
    plan.grid = &grid;
    plan.params.scale = static_cast<unsigned>(options.getInt("scale"));
    plan.params.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    plan.idealInsts = static_cast<std::uint64_t>(options.getInt("insts"));
    plan.pipelineInsts =
        static_cast<std::uint64_t>(options.getInt("pipeline-insts"));
    plan.analysisInsts =
        static_cast<std::uint64_t>(options.getInt("analysis-insts"));
    plan.workDir = options.getString("work-dir");
    plan.jobs = static_cast<unsigned>(std::max<std::int64_t>(
        1, options.getInt("jobs")));
    plan.shardCells =
        static_cast<std::uint32_t>(options.getInt("fleet-shard-cells"));
    fatalIf(plan.workDir.empty(), "--work-dir is required");
    std::filesystem::create_directories(plan.workDir);

    // Capture plan: "shards" replays fleet_sweep's per-shard captures
    // (each shard worker captures every workload row it touches);
    // otherwise each listed length is captured once per workload, as a
    // shared trace cache does for the figure set.
    const std::string capture_spec = options.getString("capture-lengths");
    if (capture_spec == "shards") {
        std::vector<std::uint32_t> all;
        for (std::uint32_t cell = 0; cell < grid.cells(); ++cell)
            all.push_back(cell);
        std::map<std::string, unsigned> touched;
        for (const fleet::Shard &shard :
             fleet::ShardPlanner::plan(all, plan.shardCells)) {
            for (std::size_t row = grid.rowOf(shard.firstCell);
                 row <= grid.rowOf(shard.lastCell); ++row)
                ++touched[grid.workloads()[row]];
        }
        for (const auto &[name, times] : touched)
            plan.captures[name] = {{plan.idealInsts, times}};
    } else {
        for (const std::string &name : grid.workloads()) {
            for (const std::uint64_t length : parseLengths(capture_spec))
                plan.captures[name].push_back({length, 1});
        }
    }
    for (const auto &[name, list] : plan.captures) {
        std::set<std::uint64_t> have;
        for (const auto &entry : list)
            have.insert(entry.first);
        for (const std::uint64_t need :
             {plan.idealInsts, plan.pipelineInsts, plan.analysisInsts})
            fatalIf(!have.count(need),
                    "capture plan of " + name + " lacks length " +
                        std::to_string(need));
    }

    JsonOut out;
    recorder.enabled = true;
    const std::int64_t traced_start = nowNs();
    const Counts traced = runLayers(plan);
    const double traced_s =
        static_cast<double>(nowNs() - traced_start) * 1e-9;
    simLayer(plan, out);
    recorder.write(options.getString("spans"));

    recorder.enabled = false;
    const std::int64_t plain_start = nowNs();
    const Counts plain = runLayers(plan);
    const double plain_s = static_cast<double>(nowNs() - plain_start) * 1e-9;
    std::filesystem::remove_all(plan.workDir);

    out.u64("repeat_ok", traced == plain ? 1 : 0);
    out.num("probe.traced_s", traced_s);
    out.num("probe.untraced_s", plain_s);
    for (const auto &[key, value] : traced)
        out.u64(key, value);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    fleet::declareFleetOptions(options, {});
    options.declare("probe-mode", "layers",
                    "calibrate, setup or layers");
    options.declare("setup-lengths", "",
                    "setup: comma-separated --insts values captured in "
                    "order, as the workload's figure binaries do");
    options.declare("repeats", "3", "setup: timed repetitions");
    options.declare("fresh-cache", "0",
                    "setup: wipe --trace-cache-dir before each repeat");
    options.declare("pipeline-insts", "200000",
                    "layers: trace length of the pipeline, fetch and "
                    "bpred layers");
    options.declare("analysis-insts", "1000000",
                    "layers: trace length of the analysis layer");
    options.declare("capture-lengths", "",
                    "layers: comma-separated capture lengths per "
                    "workload, or 'shards' for fleet_sweep's plan");
    options.declare("work-dir", "", "layers: scratch directory");
    options.declare("spans", "", "layers: write the spans here at exit");
    options.parse(argc, argv, "Per-layer probe of perfbench/run.py");

    const std::string mode = options.getString("probe-mode");
    if (mode == "calibrate")
        return calibrate();
    if (mode == "setup")
        return setupMode(options);
    if (mode == "layers")
        return layersMode(options);
    fatal("unknown --probe-mode '" + mode + "'");
}
