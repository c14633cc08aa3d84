/**
 * @file
 * Tests for the fleet subsystem's deterministic building blocks: the
 * retry/backoff policy (cap, jitter bounds, give-up point — all pure
 * arithmetic, no sleeping), shard planning and bisection, the
 * content-addressed result store (round trip plus a corruption fuzzer
 * over truncated / bit-flipped / garbage files), the heartbeat pipe
 * framing, and the worker exit-code taxonomy.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.hpp"
#include "common/rng.hpp"
#include "fleet/grid.hpp"
#include "fleet/result_store.hpp"
#include "fleet/retry_policy.hpp"
#include "fleet/shard_planner.hpp"
#include "fleet/worker.hpp"
#include "fleet/worker_handle.hpp"
#include "sim/experiment.hpp"

namespace vpsim
{
namespace fleet
{
namespace
{

// ---------------------------------------------------------------------
// RetryPolicy

TEST(RetryPolicy, DelayDoublesThenSaturatesAtMaxDelay)
{
    RetryPolicy policy;
    policy.baseDelay = std::chrono::milliseconds(100);
    policy.maxDelay = std::chrono::milliseconds(1000);
    policy.jitterFrac = 0.0;

    Rng rng(1);
    EXPECT_EQ(policy.delay(1, rng).count(), 100);
    EXPECT_EQ(policy.delay(2, rng).count(), 200);
    EXPECT_EQ(policy.delay(3, rng).count(), 400);
    EXPECT_EQ(policy.delay(4, rng).count(), 800);
    EXPECT_EQ(policy.delay(5, rng).count(), 1000);
    // Far past the cap: the doubling loop must not overflow.
    EXPECT_EQ(policy.delay(64, rng).count(), 1000);
}

TEST(RetryPolicy, JitterStaysWithinDocumentedBounds)
{
    RetryPolicy policy;
    policy.baseDelay = std::chrono::milliseconds(200);
    policy.maxDelay = std::chrono::milliseconds(5000);
    policy.jitterFrac = 0.25;

    Rng rng(42);
    for (int attempt = 1; attempt <= 6; ++attempt) {
        // Un-jittered value for this attempt.
        RetryPolicy flat = policy;
        flat.jitterFrac = 0.0;
        Rng unused(0);
        const auto center = flat.delay(attempt, unused).count();
        const auto spread = static_cast<std::int64_t>(
            static_cast<double>(center) * policy.jitterFrac);
        for (int draw = 0; draw < 200; ++draw) {
            const auto ms = policy.delay(attempt, rng).count();
            EXPECT_GE(ms, center - spread)
                << "attempt " << attempt << " draw " << draw;
            EXPECT_LE(ms, center + spread)
                << "attempt " << attempt << " draw " << draw;
        }
    }
}

TEST(RetryPolicy, JitterIsDeterministicForASeed)
{
    RetryPolicy policy;
    Rng a(7);
    Rng b(7);
    for (int attempt = 1; attempt <= 8; ++attempt)
        EXPECT_EQ(policy.delay(attempt, a).count(),
                  policy.delay(attempt, b).count());
}

TEST(RetryPolicy, GivesUpExactlyAtMaxAttempts)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    EXPECT_FALSE(policy.givesUpAfter(1));
    EXPECT_FALSE(policy.givesUpAfter(2));
    EXPECT_TRUE(policy.givesUpAfter(3));
    EXPECT_TRUE(policy.givesUpAfter(4));
}

// ---------------------------------------------------------------------
// ShardPlanner

TEST(ShardPlanner, PlanCarvesContiguousRunsIntoBoundedShards)
{
    std::vector<std::uint32_t> missing;
    for (std::uint32_t c = 0; c < 10; ++c)
        missing.push_back(c);
    const auto shards = ShardPlanner::plan(missing, 4);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].id, 0u);
    EXPECT_EQ(shards[0].firstCell, 0u);
    EXPECT_EQ(shards[0].lastCell, 3u);
    EXPECT_EQ(shards[1].firstCell, 4u);
    EXPECT_EQ(shards[1].lastCell, 7u);
    EXPECT_EQ(shards[2].firstCell, 8u);
    EXPECT_EQ(shards[2].lastCell, 9u);
    EXPECT_EQ(shards[2].size(), 2u);
}

TEST(ShardPlanner, PlanStartsANewShardAtEveryGap)
{
    // A fragmented missing set, as after a resume.
    const std::vector<std::uint32_t> missing = {0, 1, 5, 6, 7, 9};
    const auto shards = ShardPlanner::plan(missing, 100);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].firstCell, 0u);
    EXPECT_EQ(shards[0].lastCell, 1u);
    EXPECT_EQ(shards[1].firstCell, 5u);
    EXPECT_EQ(shards[1].lastCell, 7u);
    EXPECT_EQ(shards[2].firstCell, 9u);
    EXPECT_EQ(shards[2].lastCell, 9u);
}

TEST(ShardPlanner, PlanOfEmptyMissingSetIsEmpty)
{
    EXPECT_TRUE(ShardPlanner::plan({}, 8).empty());
}

TEST(ShardPlanner, BisectSplitsEvenAndOddShards)
{
    Shard even;
    even.firstCell = 4;
    even.lastCell = 7;
    const auto halves = ShardPlanner::bisect(even);
    EXPECT_EQ(halves.first.firstCell, 4u);
    EXPECT_EQ(halves.first.lastCell, 5u);
    EXPECT_EQ(halves.second.firstCell, 6u);
    EXPECT_EQ(halves.second.lastCell, 7u);

    Shard odd;
    odd.firstCell = 0;
    odd.lastCell = 2;
    const auto split = ShardPlanner::bisect(odd);
    EXPECT_EQ(split.first.firstCell, 0u);
    EXPECT_EQ(split.first.lastCell, 0u);
    EXPECT_EQ(split.second.firstCell, 1u);
    EXPECT_EQ(split.second.lastCell, 2u);
}

TEST(ShardPlanner, RepeatedBisectionIsolatesASingleCell)
{
    // Bisecting down from any range must terminate at size-1 shards
    // whose union is exactly the original range.
    Shard shard;
    shard.firstCell = 0;
    shard.lastCell = 12;
    std::vector<Shard> work = {shard};
    std::vector<std::uint32_t> singles;
    while (!work.empty()) {
        const Shard s = work.back();
        work.pop_back();
        if (s.size() == 1) {
            singles.push_back(s.firstCell);
            continue;
        }
        const auto halves = ShardPlanner::bisect(s);
        work.push_back(halves.first);
        work.push_back(halves.second);
    }
    std::sort(singles.begin(), singles.end());
    ASSERT_EQ(singles.size(), 13u);
    for (std::uint32_t c = 0; c < 13; ++c)
        EXPECT_EQ(singles[c], c);
}

// ---------------------------------------------------------------------
// ResultStore

class ResultStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
            ("vpsim_fleet_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
        std::filesystem::remove_all(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    static ShardResult sampleResult(std::uint32_t first,
                                    std::uint32_t last)
    {
        ShardResult result;
        for (std::uint32_t c = first; c <= last; ++c)
            result.cells.emplace_back(c, 0.125 * c + 1.0);
        result.salvage.files = 1;
        result.salvage.blocksQuarantined = 2;
        result.salvage.recordsLost = 300;
        result.salvage.bytesSkipped = 4096;
        return result;
    }

    std::filesystem::path dir;
};

TEST_F(ResultStoreTest, StoreLoadRoundTripPreservesCellsAndSalvage)
{
    ResultStore store(dir.string(), 0xabcdefu);
    ASSERT_TRUE(store.status().isOk());
    const ShardResult in = sampleResult(10, 14);
    ASSERT_TRUE(store.store(10, 14, in).isOk());

    ShardResult out;
    ASSERT_TRUE(store.load(10, 14, &out).isOk());
    ASSERT_EQ(out.cells.size(), in.cells.size());
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
        EXPECT_EQ(out.cells[i].first, in.cells[i].first);
        EXPECT_EQ(out.cells[i].second, in.cells[i].second);
    }
    EXPECT_EQ(out.salvage.files, in.salvage.files);
    EXPECT_EQ(out.salvage.blocksQuarantined,
              in.salvage.blocksQuarantined);
    EXPECT_EQ(out.salvage.recordsLost, in.salvage.recordsLost);
    EXPECT_EQ(out.salvage.bytesSkipped, in.salvage.bytesSkipped);
}

TEST_F(ResultStoreTest, RoundTripPreservesNaNCells)
{
    // Quarantined cells travel through result files as NaN; the hex
    // bit-pattern encoding must carry them exactly.
    ResultStore store(dir.string(), 1);
    ShardResult in;
    in.cells.emplace_back(0, std::nan(""));
    ASSERT_TRUE(store.store(0, 0, in).isOk());
    ShardResult out;
    ASSERT_TRUE(store.load(0, 0, &out).isOk());
    ASSERT_EQ(out.cells.size(), 1u);
    EXPECT_TRUE(std::isnan(out.cells[0].second));
}

TEST_F(ResultStoreTest, MergeAllIgnoresOtherFleetsAndMergesOwn)
{
    ResultStore mine(dir.string(), 111);
    ResultStore theirs(dir.string(), 222);
    ASSERT_TRUE(mine.store(0, 1, sampleResult(0, 1)).isOk());
    ASSERT_TRUE(mine.store(4, 5, sampleResult(4, 5)).isOk());
    ASSERT_TRUE(theirs.store(0, 9, sampleResult(0, 9)).isOk());

    std::map<std::uint32_t, double> cells;
    SalvageRegistry::Totals salvage;
    const auto report = mine.mergeAll(&cells, &salvage);
    EXPECT_EQ(report.filesMerged, 2u);
    EXPECT_EQ(report.cellsMerged, 4u);
    EXPECT_EQ(report.filesQuarantined, 0u);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_TRUE(cells.count(0) && cells.count(1) && cells.count(4) &&
                cells.count(5));
    // Two files, each carrying the sample salvage totals.
    EXPECT_EQ(salvage.files, 2u);
    EXPECT_EQ(salvage.recordsLost, 600u);
}

TEST_F(ResultStoreTest, RemoveAllDeletesOnlyThisFleet)
{
    ResultStore mine(dir.string(), 111);
    ResultStore theirs(dir.string(), 222);
    ASSERT_TRUE(mine.store(0, 1, sampleResult(0, 1)).isOk());
    ASSERT_TRUE(theirs.store(0, 1, sampleResult(0, 1)).isOk());
    EXPECT_EQ(mine.removeAll(), 1u);

    std::map<std::uint32_t, double> cells;
    SalvageRegistry::Totals salvage;
    EXPECT_EQ(mine.mergeAll(&cells, &salvage).filesMerged, 0u);
    EXPECT_EQ(theirs.mergeAll(&cells, &salvage).filesMerged, 1u);
}

TEST_F(ResultStoreTest, FuzzedCorruptionNeverYieldsWrongData)
{
    // The supervisor trusts load() blindly, so a damaged file must
    // either fail cleanly or parse to exactly what was stored — never
    // to different values. Fuzz the same corruption families the
    // trace-file fuzzer uses: truncation at every prefix class,
    // single bit flips everywhere, and appended garbage.
    ResultStore store(dir.string(), 0x5eedu);
    const ShardResult in = sampleResult(3, 9);
    ASSERT_TRUE(store.store(3, 9, in).isOk());
    const std::string path = store.pathFor(3, 9);

    std::string pristine;
    {
        std::ifstream file(path, std::ios::binary);
        ASSERT_TRUE(file.good());
        pristine.assign(std::istreambuf_iterator<char>(file),
                        std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(pristine.empty());

    const auto write_mutant = [&](const std::string &bytes) {
        std::ofstream file(path,
                           std::ios::binary | std::ios::trunc);
        file.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
    };
    const auto check_mutant = [&](const std::string &label) {
        ShardResult out;
        const Status loaded = store.load(3, 9, &out);
        if (!loaded.isOk())
            return; // Clean rejection is the expected outcome.
        ASSERT_EQ(out.cells.size(), in.cells.size()) << label;
        for (std::size_t i = 0; i < in.cells.size(); ++i) {
            EXPECT_EQ(out.cells[i].first, in.cells[i].first) << label;
            EXPECT_EQ(out.cells[i].second, in.cells[i].second)
                << label;
        }
    };

    Rng rng(2026);
    // Truncations: one inside every 16-byte window of the file.
    for (std::size_t cut = 0; cut < pristine.size(); cut += 16) {
        write_mutant(pristine.substr(0, cut));
        check_mutant("truncated to " + std::to_string(cut));
    }
    // Bit flips: 200 random single-bit mutations.
    for (int trial = 0; trial < 200; ++trial) {
        std::string mutant = pristine;
        const auto pos = static_cast<std::size_t>(
            rng.nextBelow(mutant.size()));
        mutant[pos] = static_cast<char>(
            mutant[pos] ^ (1u << rng.nextBelow(8)));
        write_mutant(mutant);
        check_mutant("bit flip at " + std::to_string(pos));
    }
    // Appended garbage after a complete, valid file.
    write_mutant(pristine + "trailing junk\n0 deadbeef\n");
    check_mutant("appended garbage");

    // Restore and confirm the pristine bytes still load.
    write_mutant(pristine);
    ShardResult out;
    EXPECT_TRUE(store.load(3, 9, &out).isOk());
}

TEST_F(ResultStoreTest, MergeAllQuarantinesCorruptFiles)
{
    ResultStore store(dir.string(), 77);
    ASSERT_TRUE(store.store(0, 3, sampleResult(0, 3)).isOk());
    ASSERT_TRUE(store.store(4, 7, sampleResult(4, 7)).isOk());

    // Truncate one of the two files mid-body.
    const std::string victim = store.pathFor(4, 7);
    std::filesystem::resize_file(victim,
                                 std::filesystem::file_size(victim) /
                                     2);

    std::map<std::uint32_t, double> cells;
    SalvageRegistry::Totals salvage;
    const auto report = store.mergeAll(&cells, &salvage);
    EXPECT_EQ(report.filesMerged, 1u);
    EXPECT_EQ(report.cellsMerged, 4u);
    EXPECT_EQ(report.filesQuarantined, 1u);
    EXPECT_FALSE(std::filesystem::exists(victim));

    bool quarantined = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().rfind(".corrupt-", 0) ==
            0)
            quarantined = true;
    }
    EXPECT_TRUE(quarantined);
}

// ---------------------------------------------------------------------
// Heartbeat pipe framing

TEST(Heartbeat, WriterToReaderRoundTripKeepsLatestValue)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    HeartbeatWriter writer;
    HeartbeatReader reader;
    writer.attach(fds[1]);
    reader.attach(fds[0]);

    EXPECT_FALSE(reader.poll());
    writer.beat(1);
    writer.beat(2);
    writer.beat(40);
    EXPECT_TRUE(reader.poll());
    EXPECT_EQ(reader.latest(), 40u);
    EXPECT_FALSE(reader.poll()) << "drained; no new frames";
    EXPECT_EQ(reader.latest(), 40u);
}

TEST(Heartbeat, TornFrameIsHeldUntilItsBytesArrive)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    HeartbeatReader reader;
    reader.attach(fds[0]);

    // A frame is 8 little-endian bytes; deliver it split in two.
    const std::uint64_t value = 0x0102030405060708ull;
    unsigned char frame[8];
    for (int i = 0; i < 8; ++i)
        frame[i] = static_cast<unsigned char>(value >> (8 * i));
    ASSERT_EQ(::write(fds[1], frame, 5), 5);
    EXPECT_FALSE(reader.poll()) << "incomplete frame must not count";
    ASSERT_EQ(::write(fds[1], frame + 5, 3), 3);
    EXPECT_TRUE(reader.poll());
    EXPECT_EQ(reader.latest(), value);
    ::close(fds[1]);
}

// ---------------------------------------------------------------------
// Worker exit taxonomy

TEST(WorkerExit, ExitCodesRoundTripThroughClassification)
{
    const StatusCode codes[] = {StatusCode::kIo, StatusCode::kCorrupt,
                                StatusCode::kTimeout,
                                StatusCode::kInternal};
    for (const StatusCode code : codes) {
        const int exit_code = exitCodeForStatus(code);
        const pid_t pid = ::fork();
        if (pid == 0)
            ::_exit(exit_code);
        int status = 0;
        ::waitpid(pid, &status, 0);
        EXPECT_EQ(classifyExit(status), code)
            << "exit code " << exit_code;
    }
}

TEST(WorkerExit, CleanExitIsOk)
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(kWorkerExitOk);
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_EQ(classifyExit(status), StatusCode::kOk);
}

TEST(WorkerExit, DeathBySignalIsInternal)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::raise(SIGKILL);
        ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_EQ(classifyExit(status), StatusCode::kInternal);
}

TEST(WorkerExit, UnknownExitCodeIsInternal)
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(97);
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_EQ(classifyExit(status), StatusCode::kInternal);
}

// ---------------------------------------------------------------------
// Grid axis and cell-range parsing

Options
fleetOptions(std::vector<const char *> args)
{
    args.insert(args.begin(), "fleet");
    Options options;
    declareFleetOptions(options);
    options.parse(static_cast<int>(args.size()), args.data(), "test");
    return options;
}

TEST(GridAxes, NegativeValueIsAParseError)
{
    const Options options = fleetOptions({"--fetch-rates", "-4"});
    EXPECT_EXIT(FleetGrid{options}, ::testing::ExitedWithCode(1),
                "--fetch-rates: bad value '-4'");
    const Options tables = fleetOptions({"--table-sizes", "0,-1"});
    EXPECT_EXIT(FleetGrid{tables}, ::testing::ExitedWithCode(1),
                "--table-sizes: bad value '-1'");
}

TEST(GridAxes, ValueAboveUint32IsAParseError)
{
    // 4294967336 = 2^32 + 40 used to wrap silently to window 40.
    const Options windows =
        fleetOptions({"--window-sizes", "4294967336"});
    EXPECT_EXIT(FleetGrid{windows}, ::testing::ExitedWithCode(1),
                "--window-sizes: bad value '4294967336'");
    const Options penalties =
        fleetOptions({"--vp-penalties", "1,4294967296"});
    EXPECT_EXIT(FleetGrid{penalties}, ::testing::ExitedWithCode(1),
                "--vp-penalties: bad value '4294967296'");
}

TEST(GridAxes, LargestUint32ValueIsKept)
{
    const FleetGrid grid(fleetOptions(
        {"--vp-penalties", "4294967295", "--benchmarks", "go"}));
    EXPECT_EQ(grid.columnConfig(0).vpPenalty, 4294967295u);
}

TEST(FleetOptions, ResultStoreAndResumeAreTheOnlyPersistenceOptions)
{
    EXPECT_DEATH(fleetOptions({"--resume", "1"}),
                 "--resume 1 requires --result-store");
    EXPECT_EXIT(fleetOptions({"--fleet-resume", "1"}),
                ::testing::ExitedWithCode(1),
                "unknown option --fleet-resume");
    EXPECT_EXIT(fleetOptions({"--checkpoint", "/tmp/grid.ckpt"}),
                ::testing::ExitedWithCode(1), "unknown option --checkpoint");
    EXPECT_TRUE(fleetOptions({"--resume", "1", "--result-store", "/tmp/s"})
                    .getBool("resume"));
}

TEST(FleetOptions, ExclusionsExtendTheRunnerList)
{
    const std::vector<std::string> &runner = runnerFingerprintExclusions();
    const std::vector<std::string> &fleet = fleetFingerprintExclusions();
    ASSERT_GT(fleet.size(), runner.size());
    EXPECT_TRUE(std::equal(runner.begin(), runner.end(), fleet.begin()));
}

TEST(WorkerCells, TrailingGarbageIsAParseError)
{
    for (const char *range : {"0x-0zz", "0-5zz", "1-4294967296", "0--5"}) {
        const Options options =
            fleetOptions({"--fleet-worker", "1", "--fleet-cells", range,
                          "--result-store", "/nonexistent-store"});
        EXPECT_EXIT(runFleetWorker(options), ::testing::ExitedWithCode(1),
                    "--fleet-cells expects")
            << range;
    }
}

} // namespace
} // namespace fleet
} // namespace vpsim
