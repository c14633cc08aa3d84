/**
 * @file
 * The fleet supervisor: a single-threaded event loop that drives the
 * whole experiment grid to completion across isolated worker processes.
 *
 * Fault model: a worker can exit cleanly with a coded failure class,
 * die on a signal (SIGKILL, SIGSEGV, abort), hang (alive but no
 * heartbeat), or publish a corrupt result file. The supervisor's
 * response is uniform — the shard attempt failed — and recovery is
 * policy-driven: bounded retries with exponential backoff and seeded
 * jitter (retry_policy.hpp), then bisection for multi-cell shards
 * (shard_planner.hpp), then quarantine of the single surviving cell as
 * NaN. A poisoned cell therefore costs exactly one NaN; every other
 * cell is computed.
 *
 * Determinism: the merged grid is keyed by global cell index, so the
 * order workers finish in — and the worker count itself — cannot change
 * the output. `--fleet-workers 0` runs every cell in-process through
 * the same planner and the same evaluateCells(), and must produce
 * byte-identical tables/CSV/manifest; scripts/fleet_chaos.sh holds the
 * two modes against each other.
 *
 * The supervisor never simulates and never spawns threads: all
 * simulation happens in workers (or in the in-process reference mode's
 * SimRunner), so fork() here never duplicates a running thread pool.
 */

#ifndef VPSIM_FLEET_SUPERVISOR_HPP
#define VPSIM_FLEET_SUPERVISOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "fleet/grid.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{
namespace fleet
{

/**
 * Lineage of one executed shard (manifest + report material).
 *
 * The lineage is the *deterministic* recovery record: it depends only
 * on the grid, the shard plan, the set of poisoned cells and the retry
 * policy — never on worker count, scheduling, or transient faults that
 * were retried away. A shard whose result merged records attempts=1
 * and "ok" even if earlier launches of it were killed; a shard that
 * fails terminally records the policy's full attempt budget and
 * "bisected"/"quarantined". That is what lets a fault-injected fleet
 * sign a manifest byte-identical to a clean single-process run.
 * Bisection children take tree-derived ids (2*id + planCount [+1]),
 * unique across the forest and independent of discovery order.
 */
struct ShardOutcome
{
    std::uint64_t id = 0;
    std::uint32_t firstCell = 0;
    std::uint32_t lastCell = 0;
    /** 1 for a merged result; the policy budget for a terminal loss. */
    int attempts = 0;
    /** "ok", "bisected" or "quarantined". */
    std::string outcome;
};

/** Everything a fleet run produced, ready for rendering. */
struct FleetReport
{
    /** cells[row][col]; quarantined cells are NaN. */
    std::vector<std::vector<double>> cells;
    /** Global indices of cells quarantined as NaN, ascending. */
    std::vector<std::uint32_t> quarantinedCells;
    /** Executed shards, sorted by (firstCell, id). */
    std::vector<ShardOutcome> shards;
    /** Cells served from the result store by --resume. */
    std::uint64_t reusedCells = 0;
    /** Deterministic (signed) retries: attempts beyond the first that
     *  the lineage records, i.e. sum of (attempts - 1) over terminal
     *  shard losses. Independent of transient faults. */
    std::uint64_t retries = 0;
    /** Observed retries of any kind (crash, hang, ENOSPC, corrupt
     *  result). Execution telemetry: stderr only, never signed. */
    std::uint64_t transientRetries = 0;
    /** Shards split after exhausting their attempts. */
    std::uint64_t bisections = 0;
    /** Worker processes launched (0 in in-process mode). */
    std::uint64_t workersLaunched = 0;
    /** Resolved concurrent-worker budget after --mem-budget. */
    unsigned workerBudget = 0;
    /** Merged salvage totals across every worker (--stats parity). */
    SalvageRegistry::Totals salvage;
};

/**
 * Run the full grid: resume from the result store when asked, plan
 * shards over the missing cells, execute them — in worker processes
 * (--fleet-workers >= 1) or inline (0) — and merge everything into a
 * dense report. Fatal on unusable stores or spawn-level misconfiguration;
 * per-shard failures are absorbed by retry/bisect/quarantine.
 */
FleetReport runFleet(const Options &options, const FleetGrid &grid);

/** Print the supervisor's summary (workers, retries, salvage) to
 *  stderr; with --stats, the in-process runner's registry dump too. */
void reportFleetStats(const Options &options, const FleetReport &report);

} // namespace fleet
} // namespace vpsim

#endif // VPSIM_FLEET_SUPERVISOR_HPP
