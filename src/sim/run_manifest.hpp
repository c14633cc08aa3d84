/**
 * @file
 * Signed run manifests: provenance sidecars for emitted CSV data.
 *
 * Every producer that writes `--csv FILE` — a bench process or a fleet
 * supervisor — also writes `FILE.manifest.json` describing exactly how
 * the data was produced: the experiment fingerprint, the source
 * revision the binary was built from, the binary trace format version,
 * the self-check configuration (--check-invariants / --cross-check /
 * --job-timeout), the salvage tally, and a CRC-32 of the CSV's bytes at
 * write time. A fleet additionally signs its assembly lineage (grid
 * shape, per-shard outcomes, retries, quarantined cells).
 *
 * The manifest body is itself signed with a CRC-32 over a canonical
 * rendering: a header line, then `key=value` per field in document
 * order, one line per element for list fields. Any later edit to the
 * manifest or the CSV is detectable — tamper-*evidence* for honest
 * mistakes (truncated copies, stale files mixed into a figure), not
 * cryptographic protection.
 *
 * `scripts/verify_manifest.py` re-derives both checksums and fails on
 * any mismatch; docs/VALIDATION.md documents the schema.
 */

#ifndef VPSIM_SIM_RUN_MANIFEST_HPP
#define VPSIM_SIM_RUN_MANIFEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.hpp"

namespace vpsim
{

/**
 * A fleet's assembly provenance, signed on top of the common fields.
 * The fleet signs its grid's result-defining fingerprint instead of the
 * full options, so a fleet and its in-process reference mode (which
 * differ in execution knobs such as --fleet-workers) sign the same
 * identity and write byte-identical manifests.
 */
struct FleetLineage
{
    /** Result-defining fingerprint (fleet/grid.hpp). */
    std::string fingerprint;
    std::uint64_t fleetHash = 0;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::uint64_t retries = 0;
    std::uint64_t bisections = 0;
    std::uint64_t reusedCells = 0;
    /** Global indices of cells quarantined as NaN, ascending. */
    std::vector<std::uint32_t> quarantinedCells;
    /** One `id:first:last:attempts:outcome` line per executed shard. */
    std::vector<std::string> shards;
};

/**
 * Write `<csv_path>.manifest.json` describing @p csv_path as it exists
 * on disk right now. Called by maybeWriteCsv() after each append, so
 * the manifest always matches the CSV's latest state; a bench that
 * appends several figures leaves one manifest covering the final file.
 * Failure to write the manifest is fatal: a run whose provenance
 * cannot be recorded should not look like it succeeded.
 *
 * @param fleet The fleet's lineage, whose fingerprint is signed; null
 *        for a single bench process, which signs every option.
 */
void writeRunManifest(const Options &options, const std::string &csv_path,
                      const FleetLineage *fleet);

/** The revision the binary was built from ("unknown" outside git). */
std::string buildGitDescribe();

} // namespace vpsim

#endif // VPSIM_SIM_RUN_MANIFEST_HPP
