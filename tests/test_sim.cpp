/**
 * @file
 * Tests for the experiment harness: standard options, trace capture
 * (benchmark subsets, scale/seed/skip), figure-table rendering, the
 * CSV exporter, benchmark-name validation, and SimRunner's deterministic
 * parallel grid execution.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ideal_machine.hpp"
#include "core/ideal_sweep.hpp"
#include "sim/sim_runner.hpp"

namespace vpsim
{
namespace
{

Options
parsedOptions(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    Options options;
    declareStandardOptions(options, 5000);
    options.parse(static_cast<int>(args.size()), args.data(), "test");
    return options;
}

BenchmarkTraces
capture(const Options &options)
{
    SimRunner runner(options);
    return runner.captureBenchmarks();
}

TEST(Harness, DefaultsCaptureAllEight)
{
    const Options options = parsedOptions({});
    const BenchmarkTraces bench = capture(options);
    EXPECT_EQ(bench.size(), 8u);
    for (std::size_t i = 0; i < bench.size(); ++i)
        EXPECT_EQ(bench.trace(i).size(), 5000u);
}

TEST(Harness, BenchmarkSubsetFilter)
{
    const Options options =
        parsedOptions({"--benchmarks", "go,vortex", "--insts", "2000"});
    const BenchmarkTraces bench = capture(options);
    ASSERT_EQ(bench.size(), 2u);
    EXPECT_EQ(bench.names[0], "go");
    EXPECT_EQ(bench.names[1], "vortex");
    EXPECT_EQ(bench.trace(0).size(), 2000u);
}

TEST(Harness, UnknownBenchmarkNameDies)
{
    const Options options =
        parsedOptions({"--benchmarks", "go,notabench"});
    EXPECT_DEATH(capture(options), "unknown benchmark 'notabench'");
    EXPECT_DEATH(capture(options), "valid names");
}

TEST(Harness, SkipDropsWarmup)
{
    const Options plain = parsedOptions({"--insts", "3000"});
    const Options skipped =
        parsedOptions({"--insts", "3000", "--skip", "1000"});
    const auto full = capture(plain);
    const auto warm = capture(skipped);
    ASSERT_EQ(warm.trace(0).size(), 3000u)
        << "--insts counts the measured window, not the warmup";
    // The warm trace must be the tail of a longer run: its first record
    // differs from the cold trace's first record in general, and its
    // seqs are renumbered densely.
    EXPECT_EQ(warm.trace(0)[0].seq, 0u);
    EXPECT_EQ(warm.trace(0)[2999].seq, 2999u);
}

TEST(Harness, ScaleAndSeedReachTheWorkloads)
{
    const Options seeded =
        parsedOptions({"--insts", "3000", "--seed", "7",
                       "--benchmarks", "compress"});
    const Options plain =
        parsedOptions({"--insts", "3000", "--benchmarks", "compress"});
    const auto a = capture(seeded);
    const auto b = capture(plain);
    bool differs = false;
    for (std::size_t i = 0; i < 3000 && !differs; ++i)
        differs = a.trace(0)[i].result != b.trace(0)[i].result;
    EXPECT_TRUE(differs);
}

TEST(Harness, TraceHandlesShareStorage)
{
    // BenchmarkTraces hands out shared_ptr handles; copying the struct
    // must not copy the (large) trace storage.
    const Options options =
        parsedOptions({"--insts", "2000", "--benchmarks", "go"});
    const BenchmarkTraces bench = capture(options);
    const BenchmarkTraces copy = bench;
    EXPECT_EQ(&copy.trace(0), &bench.trace(0));
}

TEST(Harness, StatsSplitSetUpIntoCapturesAndCacheLoads)
{
    // Set-up is either VM capture or cache decode; a warm run must not
    // report "(0 VM captures, 0 ms)" and leave its loads unaccounted.
    const char *tmp = std::getenv("TMPDIR");
    const std::string dir = std::string(tmp ? tmp : "/tmp") +
                            "/vpsim_stats_cache_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    const Options options =
        parsedOptions({"--insts", "2000", "--benchmarks", "go,compress",
                       "--trace-cache-dir", dir.c_str(), "--stats", "1"});
    const auto run_stats = [&options] {
        SimRunner runner(options);
        (void)runner.captureBenchmarks();
        testing::internal::CaptureStderr();
        runner.reportStats();
        return testing::internal::GetCapturedStderr();
    };
    const std::string cold = run_stats();
    EXPECT_NE(cold.find("(2 VM captures, "), std::string::npos) << cold;
    EXPECT_NE(cold.find("; 0 trace cache loads, "), std::string::npos)
        << cold;

    const std::string warm = run_stats();
    EXPECT_NE(warm.find("(0 VM captures, "), std::string::npos) << warm;
    EXPECT_NE(warm.find("; 2 trace cache loads, "), std::string::npos)
        << warm;
    const std::size_t counter = warm.find("sim_runner.trace_cache_loads ");
    ASSERT_NE(counter, std::string::npos) << warm;
    std::istringstream line(warm.substr(counter));
    std::string name;
    std::uint64_t loads = 0;
    line >> name >> loads;
    EXPECT_EQ(loads, 2u) << warm;
    for (const char *stat :
         {"jobs", "job_micros", "wall_micros", "vm_captures",
          "vm_capture_micros", "trace_cache_loads",
          "trace_cache_load_micros", "failed_jobs", "resumed_cells",
          "cross_checked_cells", "timed_out_jobs", "invariant_checks",
          "trace_cache_hits", "ideal_predictor_passes", "ideal_novp_runs",
          "ideal_vp_replays", "salvaged_blocks", "salvaged_records_lost",
          "trace_cache_hit_rate"}) {
        EXPECT_NE(warm.find("\nsim_runner." + std::string(stat) + " "),
                  std::string::npos)
            << stat << " missing from\n" << warm;
    }
    // Names pad to 32 columns, values right-align in 14.
    EXPECT_NE(warm.find("sim_runner.trace_cache_hit_rate" +
                        std::string(19, ' ') +
                        "1.000000  # hits / lookups\n"),
              std::string::npos)
        << warm;
    std::filesystem::remove_all(dir);
}

TEST(Harness, FigureTableHasAverageRow)
{
    const std::string table = renderFigureTable(
        "t", {"a", "b"}, {"c1", "c2"},
        {{1.0, 2.0}, {3.0, 4.0}},
        [](double v) { return TablePrinter::numberCell(v, 1); });
    EXPECT_NE(table.find("avg"), std::string::npos);
    EXPECT_NE(table.find("2.0"), std::string::npos)
        << "column c1 average of 1 and 3";
    EXPECT_NE(table.find("3.0"), std::string::npos)
        << "column c2 average of 2 and 4";
}

TEST(Harness, CsvExportWritesTidyRows)
{
    const std::string path = "/tmp/vpsim_test_csv.csv";
    std::remove(path.c_str());
    const Options options = parsedOptions({"--csv", path.c_str()});
    maybeWriteCsv(options, "figX", {"go"}, {"BW=4", "BW=8"},
                  {{0.25, 0.5}});
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), "figX,go,BW=4,0.25\nfigX,go,BW=8,0.5\n");
    std::remove(path.c_str());
}

TEST(Harness, CsvDisabledByDefault)
{
    const Options options = parsedOptions({});
    // Must be a no-op (no crash, no file named "").
    maybeWriteCsv(options, "figX", {"go"}, {"c"}, {{1.0}});
}

TEST(Harness, StallingUsesGrowWithBandwidth)
{
    // The Section 3 mechanism as a harness-level invariant: more fetch
    // bandwidth exposes at least as many stalling dependences.
    const Options options =
        parsedOptions({"--insts", "20000", "--benchmarks", "m88ksim"});
    const BenchmarkTraces bench = capture(options);
    IdealMachineConfig narrow;
    narrow.fetchRate = 4;
    IdealMachineConfig wide;
    wide.fetchRate = 40;
    const auto r_narrow = runIdealMachine(bench.trace(0), narrow);
    const auto r_wide = runIdealMachine(bench.trace(0), wide);
    EXPECT_GT(r_wide.stallingUses, r_narrow.stallingUses);
}

/** Figure 3.1-shaped grid under a given --jobs count. */
std::vector<std::vector<double>>
fig31Grid(const char *jobs)
{
    const Options options = parsedOptions(
        {"--insts", "4000", "--benchmarks", "go,compress,m88ksim",
         "--jobs", jobs});
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const std::vector<unsigned> rates = {4, 8, 16};
    return runner.runGrid(bench.size(), rates.size(),
                          [&](std::size_t row, std::size_t col) {
                              IdealMachineConfig config;
                              config.fetchRate = rates[col];
                              return idealVpSpeedup(bench.trace(row),
                                                    config);
                          });
}

TEST(SimRunner, GridIsDeterministicAcrossJobCounts)
{
    // The acceptance property of the parallel runtime: cell placement is
    // preassigned, so the grid is bit-identical for any worker count.
    const auto serial = fig31Grid("1");
    const auto parallel = fig31Grid("8");
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
        ASSERT_EQ(serial[r].size(), parallel[r].size());
        for (std::size_t c = 0; c < serial[r].size(); ++c)
            EXPECT_EQ(serial[r][c], parallel[r][c])
                << "cell (" << r << "," << c << ")";
    }
}

/** fig3.1-shaped cells through the runner's per-row fused sweep. */
std::vector<std::vector<double>>
fusedGrid(const char *jobs, IdealSweep::Counters *totals)
{
    const Options options = parsedOptions(
        {"--insts", "4000", "--benchmarks", "go,compress,m88ksim",
         "--jobs", jobs});
    SimRunner runner(options);
    const BenchmarkTraces bench = runner.captureBenchmarks();
    const std::vector<unsigned> rates = {4, 8, 16, 40};
    const std::vector<unsigned> penalties = {0, 1, 3};
    const auto cells = runner.runGrid(
        bench.size(), rates.size() * penalties.size(),
        [&](std::size_t row, std::size_t col) {
            IdealMachineConfig config;
            config.fetchRate = rates[col / penalties.size()];
            config.vpPenalty = penalties[col % penalties.size()];
            return runner.rowSweep(row).vpSpeedup(bench.trace(row),
                                                  config);
        });
    *totals = runner.sweepTotals();
    return cells;
}

TEST(SimRunner, RowSweepMatchesLiveRunsAtAnyJobCount)
{
    IdealSweep::Counters serial_totals;
    IdealSweep::Counters parallel_totals;
    const auto serial = fusedGrid("1", &serial_totals);
    const auto parallel = fusedGrid("4", &parallel_totals);
    const Options options = parsedOptions(
        {"--insts", "4000", "--benchmarks", "go,compress,m88ksim"});
    const BenchmarkTraces bench = capture(options);
    const std::vector<unsigned> rates = {4, 8, 16, 40};
    const std::vector<unsigned> penalties = {0, 1, 3};
    for (std::size_t row = 0; row < bench.size(); ++row) {
        for (std::size_t col = 0; col < serial[row].size(); ++col) {
            IdealMachineConfig config;
            config.fetchRate = rates[col / penalties.size()];
            config.vpPenalty = penalties[col % penalties.size()];
            const double base = static_cast<double>(
                runIdealMachine(bench.trace(row), config).cycles);
            config.useValuePrediction = true;
            const double vp = static_cast<double>(
                runIdealMachine(bench.trace(row), config).cycles);
            EXPECT_EQ(serial[row][col], base / vp)
                << "cell (" << row << "," << col << ")";
            EXPECT_EQ(parallel[row][col], serial[row][col])
                << "cell (" << row << "," << col << ")";
        }
    }
    // One predictor key per row, four timing keys per row — however
    // the cells of a row were spread over threads.
    for (const IdealSweep::Counters &totals :
         {serial_totals, parallel_totals}) {
        EXPECT_EQ(totals.predictorPasses, 3u);
        EXPECT_EQ(totals.baselineRuns, 3u * 4u);
        EXPECT_EQ(totals.replays, 3u * 12u);
    }
}

TEST(ComputeOnceMap, ConcurrentCallersShareOneComputation)
{
    ComputeOnceMap<int, int> map;
    std::atomic<int> computations{0};
    std::vector<std::thread> threads;
    std::vector<int> seen(6, 0);
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&, t] {
            seen[t] = map.get(7, [&] {
                ++computations;
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
                return 49;
            });
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(computations.load(), 1);
    for (const int value : seen)
        EXPECT_EQ(value, 49);
}

TEST(ComputeOnceMap, AThrowingComputationHandsTheKeyToAWaiter)
{
    ComputeOnceMap<int, int> map;
    std::atomic<bool> started{false};
    std::thread first([&] {
        EXPECT_THROW(map.get(1,
                             [&]() -> int {
                                 started = true;
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(30));
                                 throw std::runtime_error("canceled");
                             }),
                     std::runtime_error);
    });
    while (!started)
        std::this_thread::yield();
    bool computed = false;
    EXPECT_EQ(map.get(1,
                      [&] {
                          computed = true;
                          return 42;
                      }),
              42);
    first.join();
    EXPECT_TRUE(computed);
}

TEST(ComputeOnceMap, AFullMapDropsItsFinishedEntriesForANewKey)
{
    ComputeOnceMap<int, int> map(/*max_entries=*/1);
    int computations = 0;
    const auto square = [&](int key) {
        return map.get(key, [&] {
            ++computations;
            return key * key;
        });
    };
    EXPECT_EQ(square(2), 4);
    EXPECT_EQ(square(2), 4);
    EXPECT_EQ(square(3), 9);
    EXPECT_EQ(square(2), 4);
    EXPECT_EQ(computations, 3);
}

TEST(SimRunner, RunGridShapesOutput)
{
    const Options options = parsedOptions({"--jobs", "2"});
    SimRunner runner(options);
    const auto cells = runner.runGrid(
        3, 2, [](std::size_t row, std::size_t col) {
            return static_cast<double>(10 * row + col);
        });
    ASSERT_EQ(cells.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
        ASSERT_EQ(cells[r].size(), 2u);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(cells[r][c], static_cast<double>(10 * r + c));
    }
}

TEST(SimRunner, NegativeJobsDies)
{
    const Options options = parsedOptions({"--jobs", "-3"});
    EXPECT_DEATH(SimRunner runner(options), "jobs");
}

/** A 2x2 grid whose (1,0) cell throws; other cells are 10*row+col. */
double
faultyCell(std::size_t row, std::size_t col)
{
    if (row == 1 && col == 0)
        throw std::runtime_error("injected cell failure");
    return static_cast<double>(10 * row + col);
}

TEST(SimRunner, ThrowingJobAbortsTheSweepByDefault)
{
    const Options options = parsedOptions({"--jobs", "2"});
    SimRunner runner(options);
    EXPECT_THROW(runner.runGrid(2, 2, faultyCell), std::runtime_error);
}

TEST(SimRunner, KeepGoingIsolatesTheFailureAsNan)
{
    const Options options =
        parsedOptions({"--jobs", "2", "--keep-going", "1"});
    SimRunner runner(options);
    const auto cells = runner.runGrid(2, 2, faultyCell);
    EXPECT_TRUE(std::isnan(cells[1][0]))
        << "the failed cell must be visibly absent, not silently zero";
    EXPECT_EQ(cells[0][0], 0.0);
    EXPECT_EQ(cells[0][1], 1.0);
    EXPECT_EQ(cells[1][1], 11.0);
    ASSERT_EQ(runner.failures().size(), 1u);
    EXPECT_EQ(runner.failures()[0].label, "cell[1][0]");
    EXPECT_NE(runner.failures()[0].error.find("injected cell failure"),
              std::string::npos);
}

TEST(SimRunner, ConcurrentFailureSnapshotsStayConsistent)
{
    // failures() takes a locked snapshot, so it is safe to poll from
    // another thread while 8 workers are recording failures. Under
    // TSan this is the regression test for the old unlocked const-ref
    // accessor; on any build it checks snapshot consistency: every
    // observed size must be a plausible prefix of the final list.
    const Options options =
        parsedOptions({"--jobs", "8", "--keep-going", "1"});
    SimRunner runner(options);

    std::atomic<bool> done{false};
    std::atomic<std::size_t> max_seen{0};
    std::thread observer([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::vector<JobFailure> snapshot = runner.failures();
            std::size_t prev = max_seen.load();
            while (prev < snapshot.size() &&
                   !max_seen.compare_exchange_weak(prev,
                                                   snapshot.size())) {
            }
            for (const JobFailure &failure : snapshot)
                EXPECT_NE(failure.error.find("flaky cell"),
                          std::string::npos);
            std::this_thread::yield();
        }
    });

    constexpr std::size_t rows = 8;
    constexpr std::size_t cols = 8;
    const auto cells =
        runner.runGrid(rows, cols, [](std::size_t row, std::size_t col) {
            if ((row + col) % 3 == 0)
                throw std::runtime_error("flaky cell");
            return static_cast<double>(10 * row + col);
        });
    done.store(true, std::memory_order_release);
    observer.join();

    std::size_t expected_failures = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if ((r + c) % 3 == 0) {
                ++expected_failures;
                EXPECT_TRUE(std::isnan(cells[r][c]));
            } else {
                EXPECT_EQ(cells[r][c],
                          static_cast<double>(10 * r + c));
            }
        }
    }
    EXPECT_EQ(runner.failures().size(), expected_failures);
    EXPECT_LE(max_seen.load(), expected_failures)
        << "a snapshot saw more failures than ever existed";
}

TEST(SimRunner, ResumeWithoutResultStoreDies)
{
    // The combination is rejected at parse time (option validators),
    // before a SimRunner is ever constructed.
    EXPECT_DEATH(parsedOptions({"--resume", "1"}),
                 "--resume 1 requires --result-store");
}

std::string
scratchStore(const char *tag)
{
    const std::string dir = "/tmp/vpsim_test_" + std::string(tag) + "_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

/** Files in @p dir whose names start with @p prefix, sorted. */
std::vector<std::string>
filesWithPrefix(const std::string &dir, const std::string &prefix)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

double
gridValue(std::size_t row, std::size_t col)
{
    return 0.125 * static_cast<double>(10 * row + col + 1);
}

/**
 * Run a 2x2 grid with --jobs 1 in a death-test child and SIGINT it at
 * job @p sigint_job; cells before it finish and are published.
 */
void
interruptGrid(const std::string &store, const char *sigint_job)
{
    const Options options = parsedOptions(
        {"--jobs", "1", "--result-store", store.c_str(), "--fault-inject",
         sigint_job});
    SimRunner runner(options);
    runner.runGrid(2, 2, gridValue);
}

TEST(SimRunner, SigintFlushesACheckpointAndResumeFinishes)
{
    const std::string store = scratchStore("store");

    // Interrupted sweep, in a death-test child: with --jobs 1 the grid
    // runs in submission order, so `job:2:sigint` lands after exactly
    // one finished cell. The runner must drain, publish the finished
    // cell to the result store, and exit 128+SIGINT.
    EXPECT_EXIT(interruptGrid(store, "job:2:sigint"),
                ::testing::ExitedWithCode(128 + SIGINT),
                "interrupted by signal 2; 1 of 4 cells published");
    ASSERT_EQ(filesWithPrefix(store, "shard-").size(), 1u)
        << "the interrupted run must leave one store file behind";

    // Resume: the finished cell is served from the store (its job
    // never runs again), the rest compute, and values are identical to
    // an uninterrupted sweep.
    const Options options = parsedOptions(
        {"--jobs", "1", "--result-store", store.c_str(), "--resume", "1"});
    SimRunner runner(options);
    std::atomic<int> cell_calls{0};
    const auto cells =
        runner.runGrid(2, 2, [&](std::size_t row, std::size_t col) {
            ++cell_calls;
            return gridValue(row, col);
        });
    EXPECT_EQ(runner.resumedCells(), 1u);
    EXPECT_EQ(cell_calls.load(), 3)
        << "resume must not recompute the published cell";
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(cells[r][c], gridValue(r, c));
    std::filesystem::remove_all(store);
}

TEST(SimRunner, BitFlippedStoreFileIsQuarantinedOnResume)
{
    const std::string store = scratchStore("bitflip");
    EXPECT_EXIT(interruptGrid(store, "job:3:sigint"),
                ::testing::ExitedWithCode(128 + SIGINT),
                "2 of 4 cells published");
    const std::vector<std::string> published =
        filesWithPrefix(store, "shard-");
    ASSERT_EQ(published.size(), 1u);

    // Flip the last hex digit of the first cell's value bits (line 4:
    // magic, fleet hash, cell count, then "index bits" per cell).
    const std::string path = store + "/" + published[0];
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream bytes;
        bytes << in.rdbuf();
        text = bytes.str();
    }
    std::size_t line_end = 0;
    for (int line = 0; line < 4; ++line)
        line_end = text.find('\n', line_end + (line > 0 ? 1 : 0));
    ASSERT_NE(line_end, std::string::npos);
    char &digit = text[line_end - 1];
    digit = digit == '0' ? '1' : '0';
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    // The flipped file must not reload a wrong cell: it is quarantined
    // and every cell recomputes to the uninterrupted values.
    const Options options = parsedOptions(
        {"--jobs", "1", "--result-store", store.c_str(), "--resume", "1"});
    SimRunner runner(options);
    std::atomic<int> cell_calls{0};
    const auto cells =
        runner.runGrid(2, 2, [&](std::size_t row, std::size_t col) {
            ++cell_calls;
            return gridValue(row, col);
        });
    EXPECT_EQ(runner.resumedCells(), 0u);
    EXPECT_EQ(cell_calls.load(), 4);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(cells[r][c], gridValue(r, c));
    EXPECT_TRUE(filesWithPrefix(store, "shard-").empty());
    EXPECT_EQ(filesWithPrefix(store, ".corrupt-shard-").size(), 1u)
        << "the corrupt store file must be kept for post-mortem";
    std::filesystem::remove_all(store);
}

TEST(SimRunner, ResumeRejectsCellsOutsideTheGrid)
{
    // The store file is named by the options and the grid's ordinal,
    // not its shape: a bench whose grid shrank between runs finds its
    // old file, whose cell 2 does not exist in a 1x2 grid. None of the
    // file's cells may be trusted then, so every cell recomputes.
    const std::string store = scratchStore("shape");
    EXPECT_EXIT(interruptGrid(store, "job:4:sigint"),
                ::testing::ExitedWithCode(128 + SIGINT),
                "3 of 4 cells published");
    const Options options = parsedOptions(
        {"--jobs", "1", "--result-store", store.c_str(), "--resume", "1"});
    SimRunner runner(options);
    std::atomic<int> cell_calls{0};
    const auto cells =
        runner.runGrid(1, 2, [&](std::size_t row, std::size_t col) {
            ++cell_calls;
            return gridValue(row, col) + 1.0;
        });
    EXPECT_EQ(runner.resumedCells(), 0u);
    EXPECT_EQ(cell_calls.load(), 2);
    EXPECT_EQ(cells[0][1], gridValue(0, 1) + 1.0);
    std::filesystem::remove_all(store);
}

TEST(SimRunner, StoreIsOnlyOpenedOnResumeOrSignal)
{
    // Fleet workers carry --result-store but never run a grid through
    // SimRunner; a run that is neither resumed nor interrupted must
    // not create, probe or write the store.
    const std::string store = scratchStore("untouched");
    const Options options = parsedOptions(
        {"--jobs", "2", "--result-store", store.c_str(), "--insts",
         "1000", "--benchmarks", "go"});
    SimRunner runner(options);
    (void)runner.captureBenchmarks();
    const auto cells = runner.runGrid(2, 2, gridValue);
    EXPECT_EQ(cells[1][1], gridValue(1, 1));
    EXPECT_FALSE(std::filesystem::exists(store));
}

TEST(SimRunner, SigintOutsideAGridSaysThereIsNothingToResume)
{
    // Capture runs through run(), not runGrid(): a signal there has no
    // grid to publish, whatever --result-store says.
    const std::string store = scratchStore("nogrid");
    const auto interrupted = [&store] {
        const Options options = parsedOptions(
            {"--jobs", "1", "--result-store", store.c_str(), "--insts",
             "1000", "--benchmarks", "go", "--fault-inject",
             "job:1:sigint"});
        SimRunner runner(options);
        (void)runner.captureBenchmarks();
    };
    EXPECT_EXIT(interrupted(), ::testing::ExitedWithCode(128 + SIGINT),
                "no resumable grid was in flight");
    EXPECT_FALSE(std::filesystem::exists(store));
}

} // namespace
} // namespace vpsim
