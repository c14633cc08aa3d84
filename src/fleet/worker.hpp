/**
 * @file
 * Cell evaluation and the fleet worker entry point.
 *
 * evaluateCells() is the one function that turns a cell index into a
 * number — worker processes and the supervisor's in-process reference
 * mode both call it, which is what makes "fleet output is byte-identical
 * to single-process output" a structural property instead of a test
 * hope. runFleetWorker() wraps it in the worker process protocol:
 * heartbeats on the inherited pipe, a result file published to the
 * shared store, and an exit code that reports the failure class
 * (worker_handle.hpp) when anything goes wrong.
 */

#ifndef VPSIM_FLEET_WORKER_HPP
#define VPSIM_FLEET_WORKER_HPP

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "fleet/grid.hpp"
#include "sim/sim_runner.hpp"

namespace vpsim
{
namespace fleet
{

/** What to do when evaluation reaches the --poison-cell index. */
enum class PoisonAction
{
    /** Crash (std::abort) — worker mode, so the supervisor sees an
     *  unexplained death and must bisect its way to this cell. */
    kCrash,
    /** Record NaN — in-process reference mode, matching the NaN the
     *  supervisor's bisection quarantine converges to. */
    kQuarantine,
};

/**
 * Evaluate global cells [first, last] of @p grid: capture (or load from
 * the runner's trace cache) each touched workload's trace, then compute
 * `idealVpSpeedup(trace, column config) - 1.0` per cell — the exact
 * convention the figure benches use — through one fused IdealSweep per
 * row (core/ideal_sweep.hpp), whose pass counts are recorded in
 * @p runner.
 *
 * @param after_cell Invoked after each finished cell with the count of
 *        cells completed so far (monotonic; heartbeat hook). May be
 *        empty.
 * @return (cell index, value) pairs in ascending index order.
 */
std::vector<std::pair<std::uint32_t, double>> evaluateCells(
    const FleetGrid &grid, SimRunner &runner, const Options &options,
    std::uint32_t first_cell, std::uint32_t last_cell,
    PoisonAction poison_action,
    const std::function<void(std::uint64_t)> &after_cell = {});

/**
 * Fleet worker main: evaluate the --fleet-cells range, publish the
 * result (plus this process's salvage totals) to the --result-store,
 * heartbeat on --fleet-heartbeat-fd throughout, and apply any
 * supervisor-imposed --fleet-fault after the first completed cell.
 *
 * @return The process exit code (WorkerExitCode).
 */
int runFleetWorker(const Options &options);

} // namespace fleet
} // namespace vpsim

#endif // VPSIM_FLEET_WORKER_HPP
