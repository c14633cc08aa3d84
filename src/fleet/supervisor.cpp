#include "fleet/supervisor.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <system_error>
#include <thread>

#include "common/io.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "fleet/result_store.hpp"
#include "fleet/retry_policy.hpp"
#include "fleet/shard_planner.hpp"
#include "fleet/worker.hpp"
#include "fleet/worker_handle.hpp"
#include "sim/sim_runner.hpp"

namespace vpsim
{
namespace fleet
{

namespace
{

volatile std::sig_atomic_t fleetSignal = 0;

void
fleetSignalHandler(int signal_number)
{
    fleetSignal = signal_number;
}

/** The FaultKind a worker:N clause drew, as a --fleet-fault value. */
std::string
workerFaultArg(io::FaultKind kind)
{
    switch (kind) {
      case io::FaultKind::Kill9: return "kill9";
      case io::FaultKind::Hang: return "hang";
      case io::FaultKind::Enospc: return "enospc";
      default: return "";
    }
}

/** One shard awaiting (re)execution. */
struct PendingShard
{
    Shard shard;
    int attempts = 0;
    std::chrono::steady_clock::time_point readyAt;
};

/** One live worker process and its hang-detection state. */
struct RunningWorker
{
    WorkerHandle handle;
    Shard shard;
    int attempts = 0; ///< Including the in-flight attempt.
    std::chrono::steady_clock::time_point lastBeatTime;
};

/**
 * Options the supervisor overrides (or withholds) when building a
 * worker command line; everything else passes through verbatim so
 * worker and supervisor agree on the experiment definition.
 */
const std::set<std::string> &
workerOverriddenOptions()
{
    static const std::set<std::string> overridden = {
        // Worker-protocol plumbing, set per launch.
        "fleet-worker", "fleet-cells", "fleet-heartbeat-fd",
        "fleet-fault", "result-store",
        // Supervisor-level execution knobs a worker must not recurse
        // on or duplicate.
        "fleet-workers", "resume", "jobs", "stats", "csv",
        // The supervisor's injector drives worker faults; forwarding
        // the spec would double-arm io clauses in every child.
        "fault-inject",
    };
    return overridden;
}

std::vector<std::string>
workerArgvTail(const Options &options, const std::string &store_dir,
               const Shard &shard, const std::string &fault)
{
    std::vector<std::string> argv;
    for (const auto &[name, value] : options.items()) {
        // Replay only options the user set explicitly: the worker
        // re-execs this very binary, so defaults re-derive identically,
        // and several validators reject a default value that is only
        // legal when *omitted* (e.g. --job-timeout 0).
        if (!options.provided(name))
            continue;
        if (workerOverriddenOptions().count(name) != 0)
            continue;
        argv.push_back("--" + name);
        argv.push_back(value);
    }
    const auto push = [&argv](const std::string &name,
                              const std::string &value) {
        argv.push_back(name);
        argv.push_back(value);
    };
    push("--fleet-worker", "1");
    push("--fleet-cells", std::to_string(shard.firstCell) + "-" +
                              std::to_string(shard.lastCell));
    push("--fleet-heartbeat-fd", "3");
    push("--result-store", store_dir);
    push("--jobs", "1");
    push("--stats", "0");
    if (!fault.empty())
        push("--fleet-fault", fault);
    return argv;
}

/** Resolved concurrent-worker budget after the memory budget. */
unsigned
resolveWorkerBudget(const Options &options)
{
    const auto requested =
        static_cast<unsigned>(options.getInt("fleet-workers"));
    const auto mem_budget_mb =
        static_cast<std::uint64_t>(options.getInt("mem-budget"));
    if (requested == 0 || mem_budget_mb == 0)
        return requested;
    const auto worker_mb = static_cast<std::uint64_t>(
        options.getInt("fleet-worker-mem-mb"));
    const std::uint64_t allowed =
        std::max<std::uint64_t>(1, mem_budget_mb / worker_mb);
    if (allowed < requested) {
        warn("fleet: --mem-budget " + std::to_string(mem_budget_mb) +
             " MB supports " + std::to_string(allowed) + " worker(s) at " +
             std::to_string(worker_mb) +
             " MB each; shrinking --fleet-workers from " +
             std::to_string(requested));
        return static_cast<unsigned>(allowed);
    }
    return requested;
}

/** Cells of the grid not yet present in @p merged, ascending. */
std::vector<std::uint32_t>
missingCells(const FleetGrid &grid,
             const std::map<std::uint32_t, double> &merged)
{
    std::vector<std::uint32_t> missing;
    for (std::uint32_t cell = 0; cell < grid.cells(); ++cell) {
        if (merged.find(cell) == merged.end())
            missing.push_back(cell);
    }
    return missing;
}

void
sortLineage(std::vector<ShardOutcome> *shards)
{
    std::sort(shards->begin(), shards->end(),
              [](const ShardOutcome &a, const ShardOutcome &b) {
                  if (a.firstCell != b.firstCell)
                      return a.firstCell < b.firstCell;
                  return a.id < b.id;
              });
}

/** Fill the dense rows × cols report grid from the merged cell map. */
void
fillReportCells(const FleetGrid &grid,
                const std::map<std::uint32_t, double> &merged,
                FleetReport *report)
{
    report->cells.assign(
        grid.rows(),
        std::vector<double>(grid.cols(),
                            std::numeric_limits<double>::quiet_NaN()));
    for (const auto &[cell, value] : merged) {
        report->cells[grid.rowOf(cell)][grid.colOf(cell)] = value;
    }
}

/**
 * The multi-process event loop. Single-threaded by design: every
 * decision (launch, reap, retry, bisect) happens at one sequence
 * point, so there is no lock to get wrong and fork() never races a
 * sibling thread.
 */
void
runWorkerFleet(const Options &options, const FleetGrid &grid,
               const ResultStore &store,
               std::map<std::uint32_t, double> *merged,
               FleetReport *report)
{
    const RetryPolicy policy = {
        static_cast<int>(options.getInt("fleet-max-attempts")),
        std::chrono::milliseconds(
            options.getInt("fleet-retry-base-ms")),
        std::chrono::milliseconds(
            options.getInt("fleet-retry-base-ms") * 25),
        0.25};
    const auto hang_timeout =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                options.getDouble("fleet-worker-timeout")));
    // Seeded from the experiment identity: retry schedules are
    // reproducible, per the determinism contract.
    Rng rng(static_cast<std::uint64_t>(options.getInt("seed")) ^
            grid.fleetHash());

    std::vector<PendingShard> pending;
    std::uint64_t plan_count = 0;
    {
        const std::vector<Shard> planned = ShardPlanner::plan(
            missingCells(grid, *merged),
            static_cast<std::uint32_t>(
                options.getInt("fleet-shard-cells")));
        const auto now = std::chrono::steady_clock::now();
        for (const Shard &shard : planned)
            pending.push_back({shard, 0, now});
        plan_count = planned.size();
    }

    std::vector<RunningWorker> running;
    const unsigned budget = report->workerBudget;

    // Cooperative shutdown: on SIGINT/SIGTERM the loop kills its
    // children (via the handle destructors) and exits 128+signal,
    // mirroring SimRunner's contract. Published shards survive in the
    // store for --resume.
    void (*previous_sigint)(int) =
        std::signal(SIGINT, fleetSignalHandler);
    void (*previous_sigterm)(int) =
        std::signal(SIGTERM, fleetSignalHandler);

    const auto handleFailure = [&](const Shard &shard, int attempts,
                                   const char *why) {
        warn("fleet: shard " + std::to_string(shard.id) + " (cells " +
             std::to_string(shard.firstCell) + "-" +
             std::to_string(shard.lastCell) + ") attempt " +
             std::to_string(attempts) + " failed: " + why);
        if (!policy.givesUpAfter(attempts)) {
            ++report->transientRetries;
            pending.push_back({shard, attempts,
                               std::chrono::steady_clock::now() +
                                   policy.delay(attempts, rng)});
            return;
        }
        // Terminal loss: from here on the bookkeeping is deterministic
        // (attempts == the policy budget, child ids derive from the
        // parent id, not from discovery order), so the signed lineage
        // of a poisoned grid reproduces across worker counts and
        // transient-fault schedules.
        report->retries += static_cast<std::uint64_t>(attempts - 1);
        if (shard.size() >= 2) {
            ++report->bisections;
            report->shards.push_back({shard.id, shard.firstCell,
                                      shard.lastCell, attempts,
                                      "bisected"});
            auto halves = ShardPlanner::bisect(shard);
            halves.first.id = 2 * shard.id + plan_count;
            halves.second.id = 2 * shard.id + plan_count + 1;
            const auto now = std::chrono::steady_clock::now();
            pending.push_back({halves.first, 0, now});
            pending.push_back({halves.second, 0, now});
            return;
        }
        // A single cell that keeps killing workers: quarantine it.
        warn("fleet: quarantining poisoned cell " +
             std::to_string(shard.firstCell) + " as NaN");
        report->shards.push_back({shard.id, shard.firstCell,
                                  shard.lastCell, attempts,
                                  "quarantined"});
        report->quarantinedCells.push_back(shard.firstCell);
        merged->emplace(shard.firstCell,
                        std::numeric_limits<double>::quiet_NaN());
    };

    while (!pending.empty() || !running.empty()) {
        if (fleetSignal != 0) {
            // Children die with the handles; exit like SimRunner does.
            running.clear();
            std::exit(128 + static_cast<int>(fleetSignal));
        }

        // Launch: fill free slots with the lowest-cell ready shard
        // (deterministic pick order).
        const auto now = std::chrono::steady_clock::now();
        while (running.size() < budget) {
            std::size_t best = pending.size();
            for (std::size_t i = 0; i < pending.size(); ++i) {
                if (pending[i].readyAt > now)
                    continue;
                if (best == pending.size() ||
                    pending[i].shard.firstCell <
                        pending[best].shard.firstCell)
                    best = i;
            }
            if (best == pending.size())
                break;
            PendingShard next = pending[best];
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(best));
            const std::string fault =
                workerFaultArg(io::faultInjector().next("worker"));
            RunningWorker worker;
            worker.shard = next.shard;
            worker.attempts = next.attempts + 1;
            worker.lastBeatTime = now;
            const Status spawned = worker.handle.spawn(workerArgvTail(
                options, store.directory(), next.shard, fault));
            if (!spawned.isOk()) {
                handleFailure(next.shard, next.attempts + 1,
                              spawned.message().c_str());
                continue;
            }
            ++report->workersLaunched;
            running.push_back(std::move(worker));
        }

        // Reap / heartbeat / hang-detect every running worker.
        for (std::size_t i = 0; i < running.size();) {
            RunningWorker &worker = running[i];
            int wait_status = 0;
            if (worker.handle.poll(&wait_status)) {
                const StatusCode code = classifyExit(wait_status);
                if (code == StatusCode::kOk) {
                    ShardResult result;
                    const Status loaded = store.load(
                        worker.shard.firstCell, worker.shard.lastCell,
                        &result);
                    if (loaded.isOk()) {
                        for (const auto &[cell, value] : result.cells)
                            merged->emplace(cell, value);
                        report->salvage.files += result.salvage.files;
                        report->salvage.blocksQuarantined +=
                            result.salvage.blocksQuarantined;
                        report->salvage.recordsLost +=
                            result.salvage.recordsLost;
                        report->salvage.bytesSkipped +=
                            result.salvage.bytesSkipped;
                        // attempts=1 regardless of retried launches:
                        // the lineage records the result that merged,
                        // not the transient faults on the way there
                        // (those are transientRetries, stderr only).
                        report->shards.push_back(
                            {worker.shard.id, worker.shard.firstCell,
                             worker.shard.lastCell, 1, "ok"});
                    } else {
                        // Clean exit but unusable result file: treat
                        // as a failed attempt; a retry re-publishes
                        // over it.
                        handleFailure(worker.shard, worker.attempts,
                                      loaded.message().c_str());
                    }
                } else {
                    handleFailure(worker.shard, worker.attempts,
                                  statusCodeName(code));
                }
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(i));
                continue;
            }
            if (worker.handle.pollHeartbeat())
                worker.lastBeatTime = std::chrono::steady_clock::now();
            if (std::chrono::steady_clock::now() -
                    worker.lastBeatTime >
                hang_timeout) {
                warn("fleet: worker pid " +
                     std::to_string(worker.handle.pid()) +
                     " silent past --fleet-worker-timeout; killing");
                worker.handle.kill9();
                // SIGKILL is prompt; reap synchronously so the slot
                // frees this iteration.
                while (!worker.handle.poll(&wait_status)) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
                handleFailure(worker.shard, worker.attempts,
                              statusCodeName(StatusCode::kTimeout));
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(i));
                continue;
            }
            ++i;
        }

        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    (void)std::signal(SIGINT, previous_sigint);
    (void)std::signal(SIGTERM, previous_sigterm);
}

/**
 * Rebuild the deterministic lineage a fleet would have recorded for
 * @p shard given the set of poisoned (NaN) cells inside it: a clean
 * shard is "ok" in 1 attempt; a poisoned one exhausts the full
 * @p max_attempts budget and bisects (same split math, same
 * tree-derived child ids) until each poisoned cell is quarantined
 * alone. Mirrors handleFailure() in runWorkerFleet byte-for-byte so
 * the two modes sign identical manifests even for poisoned grids.
 */
void
recordInProcessLineage(const Shard &shard,
                       const std::vector<std::uint32_t> &nan_cells,
                       int max_attempts, std::uint64_t plan_count,
                       FleetReport *report)
{
    const bool poisoned = std::any_of(
        nan_cells.begin(), nan_cells.end(),
        [&shard](std::uint32_t cell) {
            return cell >= shard.firstCell && cell <= shard.lastCell;
        });
    if (!poisoned) {
        report->shards.push_back({shard.id, shard.firstCell,
                                  shard.lastCell, 1, "ok"});
        return;
    }
    report->retries += static_cast<std::uint64_t>(max_attempts - 1);
    if (shard.size() < 2) {
        report->shards.push_back({shard.id, shard.firstCell,
                                  shard.lastCell, max_attempts,
                                  "quarantined"});
        return;
    }
    ++report->bisections;
    report->shards.push_back({shard.id, shard.firstCell,
                              shard.lastCell, max_attempts,
                              "bisected"});
    auto halves = ShardPlanner::bisect(shard);
    halves.first.id = 2 * shard.id + plan_count;
    halves.second.id = 2 * shard.id + plan_count + 1;
    recordInProcessLineage(halves.first, nan_cells, max_attempts,
                           plan_count, report);
    recordInProcessLineage(halves.second, nan_cells, max_attempts,
                           plan_count, report);
}

/**
 * In-process reference mode: the same planner and evaluation, no
 * processes. Publishes per-shard results to the store (when one is
 * configured) so a later fleet run can resume off this one.
 */
void
runInProcess(const Options &options, const FleetGrid &grid,
             const ResultStore *store,
             std::map<std::uint32_t, double> *merged,
             FleetReport *report)
{
    SimRunner runner(options);
    const std::vector<Shard> planned = ShardPlanner::plan(
        missingCells(grid, *merged),
        static_cast<std::uint32_t>(
            options.getInt("fleet-shard-cells")));
    const int max_attempts =
        static_cast<int>(options.getInt("fleet-max-attempts"));
    for (const Shard &shard : planned) {
        ShardResult result;
        result.cells = evaluateCells(grid, runner, options,
                                     shard.firstCell, shard.lastCell,
                                     PoisonAction::kQuarantine);
        std::vector<std::uint32_t> nan_cells;
        for (const auto &[cell, value] : result.cells) {
            merged->emplace(cell, value);
            if (std::isnan(value)) {
                report->quarantinedCells.push_back(cell);
                nan_cells.push_back(cell);
            }
        }
        if (store != nullptr) {
            result.salvage = salvageRegistry().totals();
            const Status stored = store->store(
                shard.firstCell, shard.lastCell, result);
            if (!stored.isOk())
                warn("fleet: " + stored.message());
        }
        recordInProcessLineage(shard, nan_cells, max_attempts,
                               planned.size(), report);
    }
    report->salvage = salvageRegistry().totals();
    runner.reportStats();
}

} // namespace

FleetReport
runFleet(const Options &options, const FleetGrid &grid)
{
    FleetReport report;
    report.workerBudget = resolveWorkerBudget(options);
    const bool multi_process = report.workerBudget > 0;

    // Multi-process mode arms the injector here (no SimRunner in this
    // process); in-process mode leaves it to SimRunner's constructor.
    if (multi_process)
        io::configureFaultInjection(options.getString("fault-inject"));

    std::string store_dir = options.getString("result-store");
    bool private_store = false;
    if (store_dir.empty() && multi_process) {
        // Workers need *some* directory to publish through; a private
        // one, torn down at the end, keeps the no-store UX identical
        // to the in-process mode.
        std::error_code ec;
        store_dir = (std::filesystem::temp_directory_path(ec) /
                     ("vpsim-fleet-" + std::to_string(::getpid())))
                        .string();
        fatalIf(static_cast<bool>(ec),
                "cannot resolve a temporary result-store directory: " +
                    ec.message());
        private_store = true;
    }

    std::unique_ptr<ResultStore> store;
    if (!store_dir.empty()) {
        store = std::make_unique<ResultStore>(store_dir,
                                              grid.fleetHash());
        fatalIf(!store->status().isOk(), store->status().message());
    }

    std::map<std::uint32_t, double> merged;
    if (store) {
        if (options.getBool("resume")) {
            SalvageRegistry::Totals reused_salvage;
            const ResultStore::ScanReport scan =
                store->mergeAll(&merged, &reused_salvage);
            report.reusedCells = scan.cellsMerged;
            report.salvage = reused_salvage;
            if (scan.filesQuarantined > 0) {
                warn("fleet: quarantined " +
                     std::to_string(scan.filesQuarantined) +
                     " corrupt shard result file(s) during resume");
            }
        } else {
            // Fresh start: a stale store must not satisfy this sweep.
            (void)store->removeAll();
        }
    }

    if (multi_process) {
        runWorkerFleet(options, grid, *store, &merged, &report);
    } else {
        runInProcess(options, grid, store.get(), &merged, &report);
    }

    fatalIf(merged.size() != grid.cells(),
            "fleet finished with " + std::to_string(merged.size()) +
                " of " + std::to_string(grid.cells()) + " cells");
    fillReportCells(grid, merged, &report);
    std::sort(report.quarantinedCells.begin(),
              report.quarantinedCells.end());
    sortLineage(&report.shards);

    // Fold worker salvage into the process-global registry so any
    // caller consulting salvageRegistry() (stats parity) sees the
    // fleet-wide damage, not just this process's.
    if (multi_process)
        salvageRegistry().addTotals(report.salvage);

    if (private_store) {
        std::error_code ec;
        std::filesystem::remove_all(store_dir, ec);
    }
    return report;
}

void
reportFleetStats(const Options &options, const FleetReport &report)
{
    if (report.workerBudget > 0) {
        std::fprintf(
            stderr,
            "fleet: %llu worker launch(es) on %u slot(s), %llu "
            "transient retr%s, %llu lineage retr%s, %llu "
            "bisection(s), %zu quarantined cell(s), %llu reused "
            "cell(s)\n",
            static_cast<unsigned long long>(report.workersLaunched),
            report.workerBudget,
            static_cast<unsigned long long>(report.transientRetries),
            report.transientRetries == 1 ? "y" : "ies",
            static_cast<unsigned long long>(report.retries),
            report.retries == 1 ? "y" : "ies",
            static_cast<unsigned long long>(report.bisections),
            report.quarantinedCells.size(),
            static_cast<unsigned long long>(report.reusedCells));
        const SalvageRegistry::Totals &salvage = report.salvage;
        if (salvage.files > 0) {
            // Byte-for-byte the SimRunner salvage line: fleet --stats
            // output must match the in-process mode's.
            std::fprintf(
                stderr,
                "sim: salvage (--salvage-blocks): %llu damaged trace "
                "file(s), %llu block(s) quarantined, %llu record(s) "
                "lost, %llu byte(s) skipped\n",
                static_cast<unsigned long long>(salvage.files),
                static_cast<unsigned long long>(
                    salvage.blocksQuarantined),
                static_cast<unsigned long long>(salvage.recordsLost),
                static_cast<unsigned long long>(salvage.bytesSkipped));
        }
    }
    (void)options;
}

} // namespace fleet
} // namespace vpsim
