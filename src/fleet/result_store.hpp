/**
 * @file
 * Content-addressed store of finished shard results: the one place
 * finished cells persist, for fleets and for SimRunner grids alike.
 *
 * Each fleet worker that completes its shard publishes one small text
 * file — the shard's cell values plus the worker's salvage totals —
 * named by the fleet hash and the shard's cell range, written through
 * the fault-injectable io layer to a temporary and renamed into place
 * (the same torn-write-proof publish protocol the trace cache uses).
 * A CRC-32 footer covers every byte above it, so a supervisor never
 * merges a truncated or bit-flipped file: corrupt files are quarantined
 * to `.corrupt-*` for post-mortem and their cells simply recomputed.
 *
 * Resume: a restarted supervisor scans the directory, merges every
 * intact file carrying its fleet hash — regardless of how shard
 * boundaries were drawn when the file was written — and plans new
 * shards only over the cells still missing. Killing a supervisor with
 * `kill -9` therefore costs at most the shards that were in flight.
 *
 * SimRunner uses the same files for an interrupted runGrid() grid:
 * the "fleet hash" is then the grid's identity (fingerprint hash +
 * grid ordinal) and one file covers the grid's finished cells. The
 * code is compiled into vpsim_sim for that reason.
 */

#ifndef VPSIM_FLEET_RESULT_STORE_HPP
#define VPSIM_FLEET_RESULT_STORE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "trace/trace_v3.hpp"

namespace vpsim
{
namespace fleet
{

/** One finished shard: its cells and the worker's salvage damage. */
struct ShardResult
{
    /** (global cell index, value) pairs in ascending index order. */
    std::vector<std::pair<std::uint32_t, double>> cells;
    /** The producing process's salvage totals (merged by the
     *  supervisor into the global registry). */
    SalvageRegistry::Totals salvage;
};

/** A directory of per-shard result files for one fleet. */
class ResultStore
{
  public:
    /**
     * @param dir Store directory; created (with parents) if missing.
     *        Failure is recorded in status(), not fatal.
     * @param fleet_hash The owning fleet's identity; files from other
     *        fleets sharing the directory are ignored.
     */
    ResultStore(std::string dir, std::uint64_t fleet_hash);

    /** ok() when the directory exists and is writable. */
    const Status &status() const { return creationStatus; }

    const std::string &directory() const { return dir; }

    /** The file a result for cells [first, last] is published under. */
    std::string pathFor(std::uint32_t first_cell,
                        std::uint32_t last_cell) const;

    /**
     * Publish @p result for cells [first, last]: serialize with a
     * CRC-32 footer to a temporary, fsync, rename into place.
     */
    [[nodiscard]] Status store(std::uint32_t first_cell,
                               std::uint32_t last_cell,
                               const ShardResult &result) const;

    /**
     * Strict-parse the result file for cells [first, last]. kCorrupt
     * on any framing, checksum, hash or count anomaly; kIo when the
     * file cannot be read. The file is not quarantined here — the
     * caller decides (the supervisor quarantines and recomputes).
     */
    [[nodiscard]] Status load(std::uint32_t first_cell,
                              std::uint32_t last_cell,
                              ShardResult *out) const;

    /** Outcome of a directory scan. */
    struct ScanReport
    {
        std::uint64_t filesMerged = 0;
        std::uint64_t cellsMerged = 0;
        std::uint64_t filesQuarantined = 0;
    };

    /**
     * Merge every intact result file of this fleet into @p cells
     * (later files never overwrite earlier cells — shard files of one
     * fleet agree by construction) and fold their salvage totals into
     * @p salvage. Corrupt files are quarantined to `.corrupt-*`.
     */
    ScanReport mergeAll(std::map<std::uint32_t, double> *cells,
                        SalvageRegistry::Totals *salvage) const;

    /**
     * Delete every result file of this fleet (fresh-start mode: a
     * stale store must not silently satisfy a sweep the user asked to
     * recompute).
     */
    std::uint64_t removeAll() const;

  private:
    [[nodiscard]] Status parseFile(const std::string &path,
                                   ShardResult *out) const;

    std::string dir;
    std::uint64_t fleetHash = 0;
    Status creationStatus = Status::ok();
};

} // namespace fleet
} // namespace vpsim

#endif // VPSIM_FLEET_RESULT_STORE_HPP
