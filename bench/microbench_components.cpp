/**
 * @file
 * Component micro-benchmarks (google-benchmark): raw throughput of the
 * predictors, the branch predictor, the trace interpreter, the DID
 * collector, both machine models, the trace codec (v3 whole-file
 * decode, CRC-32) and the experiment runtime (thread pool scheduling
 * overhead, trace-cache round trips). These guard
 * against performance regressions that would make the figure sweeps
 * impractically slow.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>

#include "analysis/did.hpp"
#include "bpred/two_level.hpp"
#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "core/ideal_machine.hpp"
#include "core/pipeline_machine.hpp"
#include "predictor/factory.hpp"
#include "trace/trace_cache_store.hpp"
#include "trace/trace_v3.hpp"
#include "workloads/workload.hpp"

namespace
{

using namespace vpsim;

const std::vector<TraceRecord> &
sharedTrace()
{
    static const std::vector<TraceRecord> trace =
        captureWorkloadTrace("m88ksim", 100000);
    return trace;
}

void
benchPredictor(benchmark::State &state, PredictorKind kind)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        auto predictor = makeClassifiedPredictor(kind);
        for (const TraceRecord &rec : trace) {
            if (!rec.producesValue())
                continue;
            const ClassifiedPrediction p = predictor->predict(rec.pc);
            predictor->update(rec.pc, p, rec.result);
        }
        benchmark::DoNotOptimize(predictor->predictionsCorrect());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
benchPredictorFused(benchmark::State &state, PredictorKind kind)
{
    // Same work as benchPredictor through the fused immediate-verify
    // entry point the ideal machine uses (one table probe per half).
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        auto predictor = makeClassifiedPredictor(kind);
        for (const TraceRecord &rec : trace) {
            if (!rec.producesValue())
                continue;
            const ClassifiedPrediction p =
                predictor->predictAndTrain(rec.pc, rec.result);
            benchmark::DoNotOptimize(p.predicted);
        }
        benchmark::DoNotOptimize(predictor->predictionsCorrect());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void BM_LastValuePredictor(benchmark::State &state)
{ benchPredictor(state, PredictorKind::LastValue); }
void BM_StridePredictor(benchmark::State &state)
{ benchPredictor(state, PredictorKind::Stride); }
void BM_StridePredictorFused(benchmark::State &state)
{ benchPredictorFused(state, PredictorKind::Stride); }
void BM_HybridPredictor(benchmark::State &state)
{ benchPredictor(state, PredictorKind::Hybrid); }

void
BM_TwoLevelBtb(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        TwoLevelPApPredictor bpred;
        for (const TraceRecord &rec : trace) {
            if (!rec.isControlFlow())
                continue;
            const BranchPrediction p = bpred.predict(rec);
            bpred.update(rec, p);
        }
        benchmark::DoNotOptimize(bpred.correctPredictions());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_TraceCapture(benchmark::State &state)
{
    for (auto _ : state) {
        const auto trace = captureWorkloadTrace("compress", 50000);
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 50000);
}

void
BM_DidCollector(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    for (auto _ : state) {
        const DidAnalysis did = analyzeDid(trace);
        benchmark::DoNotOptimize(did.averageDid);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_IdealMachine(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    IdealMachineConfig config;
    config.fetchRate = static_cast<unsigned>(state.range(0));
    config.useValuePrediction = true;
    for (auto _ : state) {
        const IdealMachineResult run = runIdealMachine(trace, config);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_PipelineMachine(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    PipelineConfig config;
    config.useValuePrediction = true;
    config.maxTakenBranches = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const PipelineResult run = runPipelineMachine(trace, config);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_PipelineTraceCache(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    PipelineConfig config;
    config.useValuePrediction = true;
    config.frontEnd = FrontEndKind::TraceCache;
    for (auto _ : state) {
        const PipelineResult run = runPipelineMachine(trace, config);
        benchmark::DoNotOptimize(run.cycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
}

void
BM_ThreadPoolSubmitWait(benchmark::State &state)
{
    // Scheduling overhead per (trivial) task: dominated by queue and
    // wakeup costs, the fixed tax every SimJob pays.
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    constexpr int tasksPerBatch = 256;
    for (auto _ : state) {
        std::atomic<int> done{0};
        for (int i = 0; i < tasksPerBatch; ++i) {
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait();
        benchmark::DoNotOptimize(done.load());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * tasksPerBatch);
}

void
BM_TraceV3Decode(benchmark::State &state)
{
    // Whole-file read of a multi-block entry: the warm trace-cache hit
    // minus the cache's own bookkeeping.
    const auto path = std::filesystem::temp_directory_path() /
        "vpsim-microbench-decode.vptrace";
    static const std::vector<TraceRecord> trace =
        captureWorkloadTrace("m88ksim", 400000);
    const Status written = writeTraceV3(path.string(), trace);
    if (!written.isOk())
        state.SkipWithError(written.message().c_str());
    for (auto _ : state) {
        std::vector<TraceRecord> decoded;
        const Status read = readTraceV3(path.string(), &decoded);
        benchmark::DoNotOptimize(read.isOk());
        benchmark::DoNotOptimize(decoded.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * trace.size()));
    std::filesystem::remove(path);
}

void
BM_Crc32(benchmark::State &state)
{
    std::vector<unsigned char> bytes(1 << 20);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<unsigned char>(i * 131 + (i >> 9));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(bytes.data(), bytes.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * bytes.size()));
}

void
BM_TraceCacheRoundTrip(benchmark::State &state)
{
    const auto dir = std::filesystem::temp_directory_path() /
        "vpsim-microbench-cache";
    std::filesystem::remove_all(dir);
    TraceCacheStore cache(dir.string());
    TraceCacheKey key;
    key.workload = "m88ksim";
    key.insts = 100000;
    const Status stored = cache.store(key, sharedTrace());
    if (!stored.isOk())
        state.SkipWithError(stored.message().c_str());
    for (auto _ : state) {
        std::vector<TraceRecord> loaded;
        Status error = Status::ok();
        const bool hit = cache.tryLoad(key, &loaded, &error);
        benchmark::DoNotOptimize(hit);
        benchmark::DoNotOptimize(loaded.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * sharedTrace().size()));
    std::filesystem::remove_all(dir);
}

BENCHMARK(BM_ThreadPoolSubmitWait)->Arg(1)->Arg(4);
BENCHMARK(BM_TraceCacheRoundTrip);
BENCHMARK(BM_TraceV3Decode);
BENCHMARK(BM_Crc32);
BENCHMARK(BM_LastValuePredictor);
BENCHMARK(BM_StridePredictor);
BENCHMARK(BM_StridePredictorFused);
BENCHMARK(BM_HybridPredictor);
BENCHMARK(BM_TwoLevelBtb);
BENCHMARK(BM_TraceCapture);
BENCHMARK(BM_DidCollector);
BENCHMARK(BM_IdealMachine)->Arg(4)->Arg(40);
BENCHMARK(BM_PipelineMachine)->Arg(1)->Arg(4);
BENCHMARK(BM_PipelineTraceCache);

} // namespace
