#include "fleet/worker.hpp"

#include <signal.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <thread>

#include "common/cancellation.hpp"
#include "common/logging.hpp"
#include "core/ideal_sweep.hpp"
#include "fleet/result_store.hpp"
#include "fleet/worker_handle.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{
namespace fleet
{

namespace
{

/** Parse the '--fleet-cells first-last' range (inclusive). */
void
parseCellRange(const std::string &text, std::uint32_t *first,
               std::uint32_t *last)
{
    const std::size_t dash = text.find('-');
    fatalIf(dash == std::string::npos || dash == 0 ||
                dash + 1 >= text.size(),
            "--fleet-cells expects FIRST-LAST, got '" + text + "'");
    // Both bounds must be whole decimal cell indices: a stray suffix
    // ("0x-0zz") must not quietly evaluate some other range.
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    constexpr std::uint64_t cell_max =
        std::numeric_limits<std::uint32_t>::max();
    fatalIf(!parseUnsigned(text.substr(0, dash), cell_max, &lo, 10) ||
                !parseUnsigned(text.substr(dash + 1), cell_max, &hi, 10),
            "--fleet-cells expects FIRST-LAST cell indices, got '" +
                text + "'");
    fatalIf(lo > hi, "--fleet-cells range is inverted: " + text);
    *first = static_cast<std::uint32_t>(lo);
    *last = static_cast<std::uint32_t>(hi);
}

/**
 * Apply the supervisor-imposed worker fault (chaos testing). Called
 * after the first completed cell so every fault strikes mid-shard —
 * the hardest point: work exists but nothing is published yet.
 */
void
applyWorkerFault(const std::string &kind, HeartbeatWriter &heartbeat)
{
    if (kind.empty())
        return;
    if (kind == "kill9") {
        // An unannounced death: no exit code, no stored result.
        (void)std::raise(SIGKILL);
        return;
    }
    if (kind == "hang") {
        // Stop heartbeating but stay alive: only the supervisor's
        // hang detector can clean this up.
        heartbeat.close();
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
    if (kind == "enospc") {
        // Persistent publish failure (disk full): report kIo without
        // storing anything, like a real ENOSPC on the result store.
        std::exit(kWorkerExitIo);
    }
    fatal("unknown --fleet-fault kind '" + kind + "'");
}

} // namespace

std::vector<std::pair<std::uint32_t, double>>
evaluateCells(const FleetGrid &grid, SimRunner &runner,
              const Options &options, std::uint32_t first_cell,
              std::uint32_t last_cell, PoisonAction poison_action,
              const std::function<void(std::uint64_t)> &after_cell)
{
    fatalIf(last_cell >= grid.cells(),
            "cell range end " + std::to_string(last_cell) +
                " outside grid of " + std::to_string(grid.cells()) +
                " cells");
    const std::uint64_t insts =
        static_cast<std::uint64_t>(options.getInt("insts"));
    const auto skip =
        static_cast<std::uint64_t>(options.getInt("skip"));
    WorkloadParams params;
    params.scale = static_cast<unsigned>(options.getInt("scale"));
    params.seed = static_cast<std::uint64_t>(options.getInt("seed"));
    const std::int64_t poison_cell = options.getInt("poison-cell");

    // A shard is a contiguous ascending cell range, so a row, once
    // left, is never revisited: keep only the current row's trace and
    // its fused sweep. Columns nest predictor-key-outer (grid.cpp), so
    // consecutive cells share a predictor key and the sweep needs one
    // live outcome column; the no-VP memo is a few words per timing key.
    std::size_t current_row = grid.rows();
    TraceHandle trace;
    std::optional<IdealSweep> sweep;
    std::vector<std::pair<std::uint32_t, double>> cells;
    cells.reserve(last_cell - first_cell + 1);
    std::uint64_t done = 0;
    for (std::uint32_t cell = first_cell; cell <= last_cell; ++cell) {
        const std::size_t row = grid.rowOf(cell);
        if (row != current_row) {
            if (sweep)
                runner.recordSweep(*sweep);
            trace = runner.captureTrace(grid.workloads()[row], insts,
                                        skip, params);
            sweep.emplace(/*max_columns=*/1);
            current_row = row;
        }
        double value = 0.0;
        if (poison_cell >= 0 &&
            static_cast<std::uint64_t>(poison_cell) == cell) {
            if (poison_action == PoisonAction::kCrash) {
                // Simulated model bug: die the way a real memory
                // corruption would — no status, no explanation.
                std::abort();
            }
            value = std::nan("");
        } else {
            value = sweep->vpSpeedup(
                        *trace, grid.columnConfig(grid.colOf(cell))) -
                    1.0;
        }
        cells.emplace_back(cell, value);
        ++done;
        if (after_cell)
            after_cell(done);
    }
    if (sweep)
        runner.recordSweep(*sweep);
    return cells;
}

int
runFleetWorker(const Options &options)
{
    // A dead supervisor must not SIGPIPE-kill us mid-shard: heartbeat
    // writes just start failing (EPIPE) and the shard still publishes.
    ::signal(SIGPIPE, SIG_IGN);

    std::uint32_t first_cell = 0;
    std::uint32_t last_cell = 0;
    parseCellRange(options.getString("fleet-cells"), &first_cell,
                   &last_cell);

    HeartbeatWriter heartbeat;
    const std::int64_t heartbeat_fd =
        options.getInt("fleet-heartbeat-fd");
    if (heartbeat_fd >= 0)
        heartbeat.attach(static_cast<int>(heartbeat_fd));
    heartbeat.beat(0);

    const std::string store_dir = options.getString("result-store");
    fatalIf(store_dir.empty(),
            "fleet worker launched without --result-store");
    const std::string fault = options.getString("fleet-fault");

    try {
        FleetGrid grid(options);
        ResultStore store(store_dir, grid.fleetHash());
        if (!store.status().isOk()) {
            warn("fleet worker: " + store.status().message());
            return exitCodeForStatus(store.status().code());
        }

        SimRunner runner(options);
        ShardResult result;
        result.cells = evaluateCells(
            grid, runner, options, first_cell, last_cell,
            PoisonAction::kCrash,
            [&heartbeat, &fault](std::uint64_t done) {
                heartbeat.beat(done);
                if (done == 1)
                    applyWorkerFault(fault, heartbeat);
            });
        result.salvage = salvageRegistry().totals();

        const Status stored =
            store.store(first_cell, last_cell, result);
        if (!stored.isOk()) {
            warn("fleet worker: " + stored.message());
            return exitCodeForStatus(stored.code());
        }
        heartbeat.beat(result.cells.size() + 1);
        return kWorkerExitOk;
    } catch (const JobCanceledError &canceled) {
        warn("fleet worker: " + std::string(canceled.what()));
        return kWorkerExitTimeout;
    } catch (const std::exception &error) {
        warn("fleet worker: " + std::string(error.what()));
        return kWorkerExitInternal;
    }
}

} // namespace fleet
} // namespace vpsim
