#include "fleet/fleet_main.hpp"

#include <cstdio>

#include "common/options.hpp"
#include "fleet/grid.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/worker.hpp"
#include "sim/experiment.hpp"
#include "sim/run_manifest.hpp"

namespace vpsim
{
namespace fleet
{

namespace
{

/**
 * The fleet's signed assembly provenance. The fingerprint is the
 * grid's, not the full options: those include execution knobs like
 * --fleet-workers and would break the "fleet output == in-process
 * output" byte-identity contract.
 */
FleetLineage
lineageOf(const FleetGrid &grid, const FleetReport &report)
{
    FleetLineage lineage;
    lineage.fingerprint = grid.fingerprint();
    lineage.fleetHash = grid.fleetHash();
    lineage.rows = grid.rows();
    lineage.cols = grid.cols();
    lineage.retries = report.retries;
    lineage.bisections = report.bisections;
    lineage.reusedCells = report.reusedCells;
    lineage.quarantinedCells = report.quarantinedCells;
    for (const ShardOutcome &shard : report.shards) {
        lineage.shards.push_back(
            std::to_string(shard.id) + ':' +
            std::to_string(shard.firstCell) + ':' +
            std::to_string(shard.lastCell) + ':' +
            std::to_string(shard.attempts) + ':' + shard.outcome);
    }
    return lineage;
}

} // namespace

int
fleetMain(int argc, const char *const *argv,
          const std::string &description,
          const std::map<std::string, std::string> &defaults)
{
    Options options;
    declareFleetOptions(options, defaults);
    options.parse(argc, argv, description);

    if (options.getBool("fleet-worker"))
        return runFleetWorker(options);

    FleetGrid grid(options);
    const FleetReport report = runFleet(options, grid);

    std::vector<std::string> column_labels;
    column_labels.reserve(grid.cols());
    for (std::size_t col = 0; col < grid.cols(); ++col)
        column_labels.push_back(grid.columnLabel(col));
    std::fputs(renderPercentTable(
                   "Fleet sweep - ideal VP speedup over baseline",
                   grid.workloads(), column_labels, report.cells)
                   .c_str(),
               stdout);

    const FleetLineage lineage = lineageOf(grid, report);
    maybeWriteCsv(options, "fleet", grid.workloads(), column_labels,
                  report.cells, &lineage);
    reportFleetStats(options, report);
    return 0;
}

} // namespace fleet
} // namespace vpsim
