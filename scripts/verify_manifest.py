#!/usr/bin/env python3
"""Verify vpsim run manifests (sidecar files next to a CSV).

Every producer that writes `--csv FILE` — a bench or a fleet — also
writes `FILE.manifest.json` (see src/sim/run_manifest.hpp and
docs/VALIDATION.md). This checker re-derives, for each manifest given
on the command line (or found under a directory):

  1. the CRC-32 of the CSV the manifest describes (the file next to the
     manifest, i.e. the manifest path minus its suffix) and its byte
     count, compared against csvCrc32 / csvBytes;
  2. the manifest's own signature: CRC-32 over the canonical signing
     string rebuilt from the parsed JSON fields, compared against the
     stored "crc32:XXXXXXXX" signature;
  3. for fleet manifests (those with `shards`), the structural
     invariants of the signed lineage: every
     `id:first:last:attempts:outcome` shard line parses, outcomes are
     from the known set, quarantined cells are strictly ascending, in
     range, and consistent with the quarantined shard lines.

Exit status 0 when every manifest passes, 1 otherwise. Only the Python
standard library is used.
"""

import argparse
import json
import os
import sys
import zlib

REQUIRED_FIELDS = [
    "schema", "gitDescribe", "traceFormatVersion", "checkInvariants",
    "crossCheck", "jobTimeout", "salvageBlocks", "salvagedFiles",
    "salvagedBlocks", "salvagedRecordsLost", "fingerprint", "csvFile",
    "csvBytes", "csvCrc32", "signature",
]

FLEET_FIELDS = [
    "fleetHash", "rows", "cols", "cells", "retries", "bisections",
    "reusedCells", "quarantinedCells", "shards",
]

SCHEMA = "vpsim-manifest 3"
MANIFEST_SUFFIX = ".manifest.json"
FLEET_SHARD_OUTCOMES = {"ok", "bisected", "quarantined"}


def signing_string(manifest):
    """The canonical signing string (see run_manifest.cpp): a header,
    then key=value per field in document order, one line per element
    of a list field."""
    lines = ["vpsim-manifest-signing-v3"]
    for key, value in manifest.items():
        if key == "signature":
            continue
        items = value if isinstance(value, list) else [value]
        lines.extend(f"{key}={item}" for item in items)
    return "\n".join(lines) + "\n"


def check_fleet_lineage(manifest):
    """Structural checks on the signed shard lineage; returns problems."""
    problems = []
    cells = manifest["cells"]
    covered = set()
    quarantined_shard_cells = set()
    for line in manifest["shards"]:
        parts = line.split(":")
        if len(parts) != 5:
            problems.append(
                f"shard line '{line}' is not id:first:last:attempts:"
                "outcome")
            continue
        try:
            first, last, attempts = (
                int(parts[1]), int(parts[2]), int(parts[3]))
        except ValueError:
            problems.append(f"shard line '{line}' has non-numeric fields")
            continue
        outcome = parts[4]
        if outcome not in FLEET_SHARD_OUTCOMES:
            problems.append(
                f"shard line '{line}' has unknown outcome '{outcome}'")
        if not 0 <= first <= last < cells:
            problems.append(
                f"shard line '{line}' spans cells outside [0, {cells})")
        if attempts < 1:
            problems.append(
                f"shard line '{line}' claims {attempts} attempt(s)")
        covered.update(range(first, last + 1))
        if outcome == "quarantined":
            quarantined_shard_cells.update(range(first, last + 1))
    reused = manifest["reusedCells"]
    if len(covered) + reused < cells:
        problems.append(
            f"shard lineage covers {len(covered)} cell(s) plus "
            f"{reused} reused, grid has {cells}")
    quarantined = manifest["quarantinedCells"]
    if quarantined != sorted(set(quarantined)):
        problems.append("quarantinedCells is not strictly ascending")
    for cell in quarantined:
        if not 0 <= cell < cells:
            problems.append(
                f"quarantined cell {cell} outside [0, {cells})")
    if set(quarantined) != quarantined_shard_cells:
        problems.append(
            "quarantinedCells disagrees with the quarantined shard "
            "lines")
    return problems


def check_csv(manifest, manifest_path, problems):
    """The data file next to the manifest must match the checksum taken
    when it was written. The stored csvFile is the path the producer
    was invoked with (possibly relative to a different cwd), so locate
    the CSV from the manifest's own name instead."""
    csv_path = manifest_path[: -len(MANIFEST_SUFFIX)]
    if os.path.basename(manifest["csvFile"]) != os.path.basename(csv_path):
        problems.append(
            f"csvFile '{manifest['csvFile']}' does not name '"
            f"{os.path.basename(csv_path)}'")
    try:
        with open(csv_path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        problems.append(f"unreadable CSV: {error}")
        return
    if len(data) != manifest["csvBytes"]:
        problems.append(
            f"CSV is {len(data)} bytes, manifest says "
            f"{manifest['csvBytes']}")
    crc = f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"
    if crc != manifest["csvCrc32"]:
        problems.append(
            f"CSV CRC-32 is {crc}, manifest says "
            f"{manifest['csvCrc32']}")


def verify(manifest_path):
    """Check one manifest; returns a list of problems (empty = pass)."""
    problems = []
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable manifest: {error}"]

    is_fleet = "shards" in manifest
    required = REQUIRED_FIELDS + (FLEET_FIELDS if is_fleet else [])
    missing = [f for f in required if f not in manifest]
    if missing:
        return [f"missing fields: {', '.join(missing)}"]
    if manifest["schema"] != SCHEMA:
        return [f"unknown schema '{manifest['schema']}'"]

    # Signature: the manifest body must not have been edited.
    body = signing_string(manifest).encode("utf-8")
    expected = f"crc32:{zlib.crc32(body) & 0xFFFFFFFF:08x}"
    if manifest["signature"] != expected:
        problems.append(
            f"signature mismatch: manifest says {manifest['signature']},"
            f" body hashes to {expected}")

    if is_fleet:
        problems.extend(check_fleet_lineage(manifest))

    if not manifest_path.endswith(MANIFEST_SUFFIX):
        problems.append(f"manifest name should end with {MANIFEST_SUFFIX}")
        return problems
    check_csv(manifest, manifest_path, problems)
    return problems


def collect(paths):
    """Expand directories into the manifests they contain."""
    manifests = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in sorted(os.walk(path)):
                manifests.extend(
                    os.path.join(root, name)
                    for name in sorted(files)
                    if name.endswith(MANIFEST_SUFFIX))
        else:
            manifests.append(path)
    return manifests


def main():
    parser = argparse.ArgumentParser(
        description="Verify vpsim run manifests")
    parser.add_argument(
        "paths", nargs="+",
        help="manifest files or directories to scan for *.manifest.json")
    args = parser.parse_args()

    manifests = collect(args.paths)
    if not manifests:
        print("verify_manifest: no manifests found", file=sys.stderr)
        return 1

    failed = 0
    for path in manifests:
        problems = verify(path)
        if problems:
            failed += 1
            print(f"FAIL {path}")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"PASS {path}")
    print(f"verify_manifest: {len(manifests) - failed} of "
          f"{len(manifests)} manifest(s) valid")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
