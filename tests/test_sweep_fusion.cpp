/**
 * @file
 * Differential tests for sweep fusion (core/ideal_sweep.hpp): every
 * fused result must equal the unfused live-predictor runIdealMachine()
 * pair exactly, across every predictor key dimension and a spread of
 * timing keys; the fleet's fused evaluateCells() must give bit-identical
 * doubles to per-cell live speedups; and the replay checks must catch a
 * column applied to the wrong trace.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/invariant.hpp"
#include "core/ideal_sweep.hpp"
#include "fleet/grid.hpp"
#include "fleet/worker.hpp"
#include "sim/sim_runner.hpp"
#include "workloads/workload.hpp"

namespace vpsim
{
namespace
{

/** Restores the process-wide invariant level on scope exit. */
struct LevelGuard
{
    InvariantLevel saved = invariantLevel();
    ~LevelGuard() { setInvariantLevel(saved); }
};

std::string
describe(const IdealMachineConfig &config)
{
    return "kind=" + std::to_string(static_cast<int>(config.predictorKind)) +
           " cap=" + std::to_string(config.tableCapacity) +
           " bits=" + std::to_string(config.counterBits) +
           " miss=" + std::to_string(static_cast<int>(config.missPolicy)) +
           " scope=" + std::to_string(static_cast<int>(config.vpScope)) +
           " bw=" + std::to_string(config.fetchRate) +
           " w=" + std::to_string(config.windowSize) +
           " p=" + std::to_string(config.vpPenalty) +
           " vp=" + std::to_string(config.useValuePrediction);
}

void
expectSameResult(const IdealMachineResult &fused,
                 const IdealMachineResult &live, const std::string &label)
{
    EXPECT_EQ(fused.cycles, live.cycles) << label;
    EXPECT_EQ(fused.instructions, live.instructions) << label;
    EXPECT_EQ(fused.predictionsMade, live.predictionsMade) << label;
    EXPECT_EQ(fused.predictionsCorrect, live.predictionsCorrect) << label;
    EXPECT_EQ(fused.predictionsWrong, live.predictionsWrong) << label;
    EXPECT_EQ(fused.correctlyPredictedUses, live.correctlyPredictedUses)
        << label;
    EXPECT_EQ(fused.usefulPredictions, live.usefulPredictions) << label;
    EXPECT_EQ(fused.stallingUses, live.stallingUses) << label;
}

/** Every predictor-key dimension crossed with a spread of timing keys. */
std::vector<IdealMachineConfig>
fusionConfigs()
{
    std::vector<IdealMachineConfig> configs;
    for (const PredictorKind kind :
         {PredictorKind::LastValue, PredictorKind::Stride,
          PredictorKind::TwoDeltaStride, PredictorKind::Hybrid,
          PredictorKind::Fcm}) {
        for (const std::size_t capacity : {0u, 16u, 1024u}) {
            for (const unsigned bits : {1u, 2u, 3u}) {
                for (const MissPolicy miss :
                     {MissPolicy::Decrement, MissPolicy::Reset}) {
                    for (const VpScope scope :
                         {VpScope::AllInstructions, VpScope::LoadsOnly}) {
                        for (const unsigned rate : {4u, 40u}) {
                            for (const unsigned window : {20u, 80u}) {
                                for (const unsigned penalty : {0u, 3u}) {
                                    IdealMachineConfig config;
                                    config.predictorKind = kind;
                                    config.tableCapacity = capacity;
                                    config.counterBits = bits;
                                    config.missPolicy = miss;
                                    config.vpScope = scope;
                                    config.fetchRate = rate;
                                    config.windowSize = window;
                                    config.vpPenalty = penalty;
                                    configs.push_back(config);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return configs;
}

class SweepFusion : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SweepFusion, FusedRunsMatchLiveRunsExactly)
{
    const std::vector<TraceRecord> trace =
        captureWorkloadTrace(GetParam(), 3000);
    IdealSweep sweep;
    BorrowedTraceSource source{TraceSpan(trace)};
    const std::vector<IdealMachineConfig> configs = fusionConfigs();
    for (IdealMachineConfig config : configs) {
        config.useValuePrediction = false;
        const IdealMachineResult base_live = runIdealMachine(trace, config);
        expectSameResult(sweep.run(source, config), base_live,
                         describe(config));
        config.useValuePrediction = true;
        const IdealMachineResult vp_live = runIdealMachine(trace, config);
        expectSameResult(sweep.run(source, config), vp_live,
                         describe(config));
        EXPECT_EQ(sweep.vpSpeedup(source, config),
                  static_cast<double>(base_live.cycles) /
                      static_cast<double>(vp_live.cycles))
            << describe(config);
    }
    // 5 kinds x 3 capacities x 3 counter widths x 2 policies x 2
    // scopes share 2 x 2 timing keys: one pass per key, no more.
    const IdealSweep::Counters counts = sweep.counters();
    EXPECT_EQ(counts.predictorPasses, 5u * 3u * 3u * 2u * 2u);
    EXPECT_EQ(counts.baselineRuns, 4u);
    EXPECT_EQ(counts.replays, 2u * configs.size());
}

INSTANTIATE_TEST_SUITE_P(Registry, SweepFusion,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(SweepFusion, OneColumnBoundStillMatchesLive)
{
    // The fleet keeps one live column per row: alternating predictor
    // keys recompute instead of reusing, with identical results.
    const std::vector<TraceRecord> trace =
        captureWorkloadTrace("vortex", 2500);
    IdealSweep sweep(/*max_columns=*/1);
    BorrowedTraceSource source{TraceSpan(trace)};
    IdealMachineConfig config;
    config.useValuePrediction = true;
    for (int round = 0; round < 2; ++round) {
        for (const PredictorKind kind :
             {PredictorKind::Stride, PredictorKind::LastValue}) {
            config.predictorKind = kind;
            expectSameResult(sweep.run(source, config),
                             runIdealMachine(trace, config),
                             describe(config));
        }
    }
    EXPECT_EQ(sweep.counters().predictorPasses, 4u);
}

TEST(SweepFusion, PerfectPredictionRunsLive)
{
    const std::vector<TraceRecord> trace =
        captureWorkloadTrace("li", 2000);
    IdealSweep sweep;
    IdealMachineConfig config;
    config.useValuePrediction = true;
    config.perfectValuePrediction = true;
    BorrowedTraceSource source{TraceSpan(trace)};
    expectSameResult(sweep.run(source, config),
                     runIdealMachine(trace, config), "perfect vp");
    EXPECT_EQ(sweep.counters().predictorPasses, 0u);
}

TEST(SweepFusion, EvaluateCellsMatchesPerCellSpeedupBitForBit)
{
    std::vector<const char *> args = {
        "fleet", "--benchmarks", "compress,go,perl", "--insts", "3000",
        "--predictors", "stride,2-delta", "--table-sizes", "0,16",
        "--window-sizes", "20,80", "--fetch-rates", "4,40",
        "--vp-penalties", "0,3", "--jobs", "1"};
    Options options;
    fleet::declareFleetOptions(options);
    options.parse(static_cast<int>(args.size()), args.data(), "test");
    const fleet::FleetGrid grid(options);
    ASSERT_EQ(grid.cells(), 3u * 32u);

    SimRunner runner(options);
    // 7-cell shards straddle predictor-key blocks (8 cells) and rows
    // (32 cells), so every shard starts mid-block somewhere.
    std::vector<std::pair<std::uint32_t, double>> fused;
    for (std::uint32_t first = 0; first < grid.cells(); first += 7) {
        const std::uint32_t last =
            std::min<std::uint32_t>(first + 6, grid.cells() - 1);
        const auto shard =
            fleet::evaluateCells(grid, runner, options, first, last,
                                 fleet::PoisonAction::kQuarantine);
        fused.insert(fused.end(), shard.begin(), shard.end());
    }
    ASSERT_EQ(fused.size(), grid.cells());

    WorkloadParams params;
    for (std::size_t row = 0; row < grid.rows(); ++row) {
        const TraceHandle trace =
            runner.captureTrace(grid.workloads()[row], 3000, 0, params);
        for (std::size_t col = 0; col < grid.cols(); ++col) {
            const std::uint32_t cell =
                static_cast<std::uint32_t>(row * grid.cols() + col);
            ASSERT_EQ(fused[cell].first, cell);
            IdealMachineConfig config = grid.columnConfig(col);
            config.useValuePrediction = false;
            const double base =
                static_cast<double>(runIdealMachine(*trace, config).cycles);
            config.useValuePrediction = true;
            const double vp =
                static_cast<double>(runIdealMachine(*trace, config).cycles);
            EXPECT_EQ(fused[cell].second, base / vp - 1.0)
                << grid.columnLabel(col) << " row " << row;
            EXPECT_EQ(fused[cell].second,
                      idealVpSpeedup(*trace, grid.columnConfig(col)) - 1.0)
                << grid.columnLabel(col) << " row " << row;
        }
    }
}

// ---------------------------------------------------------------------
// Replay-path invariants
// ---------------------------------------------------------------------

/** The check an InvariantViolation names, or "" when none is thrown. */
template <typename Run>
std::string
violatedCheck(Run &&run)
{
    try {
        run();
    } catch (const InvariantViolation &violation) {
        return violation.check();
    }
    return "";
}

IdealMachineConfig
vpConfig()
{
    IdealMachineConfig config;
    config.useValuePrediction = true;
    config.fetchRate = 16;
    return config;
}

TEST(ReplayInvariants, PrefixColumnIsCaught)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    const std::vector<TraceRecord> trace =
        captureWorkloadTrace("compress", 3000);
    const std::vector<TraceRecord> prefix(trace.begin(),
                                          trace.begin() + 2000);
    BorrowedTraceSource prefix_source{TraceSpan(prefix)};
    const OutcomeColumn column = computeOutcomes(prefix_source, vpConfig());
    BorrowedTraceSource source{TraceSpan(trace)};
    EXPECT_EQ(violatedCheck([&] {
                  runIdealMachine(source, vpConfig(), column);
              }),
              "ideal.replay_length");
}

TEST(ReplayInvariants, ColumnOfAnotherTraceIsCaught)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    const std::vector<TraceRecord> compress =
        captureWorkloadTrace("compress", 3000);
    const std::vector<TraceRecord> go = captureWorkloadTrace("go", 3000);
    BorrowedTraceSource go_source{TraceSpan(go)};
    const OutcomeColumn column = computeOutcomes(go_source, vpConfig());
    BorrowedTraceSource source{TraceSpan(compress)};
    EXPECT_EQ(violatedCheck([&] {
                  runIdealMachine(source, vpConfig(), column);
              }),
              "ideal.replay_predictions");
}

TEST(ReplayInvariants, HitMissBalanceStillFiresOnReplay)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Cheap);
    const std::vector<TraceRecord> trace =
        captureWorkloadTrace("m88ksim", 3000);
    BorrowedTraceSource source{TraceSpan(trace)};
    OutcomeColumn column = computeOutcomes(source, vpConfig());
    ASSERT_GT(column.predictionsCorrect, 0u);
    // What the classifier-drop-correct mutant does to the live
    // predictor's counters, carried into the column.
    --column.predictionsCorrect;
    EXPECT_EQ(violatedCheck([&] {
                  runIdealMachine(source, vpConfig(), column);
              }),
              "vp.hit_miss_balance");
}

TEST(ReplayInvariants, MatchingColumnPassesEveryCheck)
{
    LevelGuard guard;
    setInvariantLevel(InvariantLevel::Full);
    const std::vector<TraceRecord> trace =
        captureWorkloadTrace("ijpeg", 3000);
    BorrowedTraceSource source{TraceSpan(trace)};
    const OutcomeColumn column = computeOutcomes(source, vpConfig());
    EXPECT_EQ(column.size(), trace.size());
    EXPECT_EQ(violatedCheck([&] {
                  expectSameResult(
                      runIdealMachine(source, vpConfig(), column),
                      runIdealMachine(trace, vpConfig()), "ijpeg");
              }),
              "");
}

} // namespace
} // namespace vpsim
