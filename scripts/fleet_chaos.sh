#!/usr/bin/env bash
# Fleet chaos harness: drive the multi-process sweep supervisor through
# worker crashes, hangs, ENOSPC, a poisoned cell, a kill -9'd
# supervisor, and tampered artifacts, and require that recovery never
# changes a byte of the merged output.
#
#   1. golden:     single-process (--fleet-workers 0) run — the
#                  reference stdout + CSV + signed manifest.
#   2. clean fleet: 3 workers, no faults; stdout, CSV and manifest must
#                  all be byte-identical to the golden run (worker
#                  counts are deliberately outside the signed region).
#   3. kill9:      `worker:2:kill9` SIGKILLs one worker after its first
#                  cell; the supervisor retries and output is unchanged.
#   4. hang:       `worker:1:hang` stops one worker's heartbeat; the
#                  watchdog kill -9s it after --fleet-worker-timeout
#                  and the retry completes the shard.
#   5. enospc:     `worker:2:enospc` makes one worker exit with the IO
#                  exit code before publishing; retried, unchanged.
#   6. poison:     --poison-cell N crashes any worker evaluating cell N;
#                  bisection must quarantine exactly that one cell as
#                  NaN — in both modes, with byte-identical CSVs and
#                  (because the signed lineage is deterministic)
#                  byte-identical manifests too.
#   7. supervisor kill -9: the supervisor is SIGKILLed mid-run; a rerun
#                  with --resume 1 reuses every published shard
#                  and produces the golden bytes.
#   8. store corruption: a published shard result is bit-flipped; the
#                  resume run must quarantine it (.corrupt-*),
#                  recompute, and still produce the golden bytes.
#   9. tamper:     editing the merged CSV must make
#                  scripts/verify_manifest.py fail.
#  10. salvage parity: a damaged v3 trace cache under --salvage-blocks
#                  must report identical salvage totals from the fleet
#                  (per-worker totals merged by the supervisor) and the
#                  single process.
#
# Wired into ctest as `fleet_chaos`.
#
# Usage: scripts/fleet_chaos.sh [build-dir]
set -euo pipefail

build="${1:-build}"
bench="$build/bench/fleet_sweep"
[ -x "$bench" ] || { echo "no fleet binary at '$bench'" >&2; exit 1; }
scripts="$(cd "$(dirname "$0")" && pwd)"
bench="$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")"

work="$(mktemp -d "${TMPDIR:-/tmp}/vpsim-fleet-chaos.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# Every stage runs in its own subdirectory with the same relative
# --csv out.csv so the signed csvFile field matches across runs.
args=(--insts 2000 --benchmarks go,compress --fetch-rates 4,8
      --fleet-shard-cells 4 --fleet-retry-base-ms 20)
failed=0

run_stage() { # run_stage <dir> <fleet args...>
    local dir="$work/$1"; shift
    mkdir -p "$dir"
    (cd "$dir" && "$bench" "${args[@]}" "$@" --csv out.csv \
        > stdout.txt 2> stderr.txt)
}

check_identical() { # check_identical <label> <dir> [with-manifest]
    local label="$1" dir="$work/$2" manifest="${3:-yes}"
    if ! cmp -s "$work/golden/stdout.txt" "$dir/stdout.txt"; then
        echo "FAIL: $label stdout differs from golden" >&2
        diff "$work/golden/stdout.txt" "$dir/stdout.txt" | head -10 >&2
        failed=1
        return
    fi
    if ! cmp -s "$work/golden/out.csv" "$dir/out.csv"; then
        echo "FAIL: $label CSV differs from golden" >&2
        failed=1
        return
    fi
    if [ "$manifest" = yes ] &&
       ! cmp -s "$work/golden/out.csv.manifest.json" \
                "$dir/out.csv.manifest.json"; then
        echo "FAIL: $label manifest differs from golden" >&2
        diff "$work/golden/out.csv.manifest.json" \
             "$dir/out.csv.manifest.json" | head -10 >&2
        failed=1
        return
    fi
    echo "ok: $label output is byte-identical"
}

echo "== golden (single process, --fleet-workers 0)"
run_stage golden --fleet-workers 0

echo "== clean fleet (3 workers, no faults)"
run_stage clean --fleet-workers 3
check_identical "clean fleet" clean

echo "== worker kill -9 (worker:2:kill9)"
run_stage kill9 --fleet-workers 3 --fault-inject worker:2:kill9
check_identical "kill9" kill9
grep -q "1 transient retry" "$work/kill9/stderr.txt" ||
    { echo "FAIL: kill9 run retried nothing" >&2; failed=1; }

echo "== worker hang (worker:1:hang, 5s watchdog)"
run_stage hang --fleet-workers 3 --fault-inject worker:1:hang \
    --fleet-worker-timeout 5
check_identical "hang" hang

echo "== worker ENOSPC (worker:2:enospc)"
run_stage enospc --fleet-workers 3 --fault-inject worker:2:enospc
check_identical "enospc" enospc

echo "== poisoned cell (--poison-cell 5, both modes)"
run_stage poison0 --fleet-workers 0 --poison-cell 5
run_stage poison1 --fleet-workers 3 --poison-cell 5
for mode in poison0 poison1; do
    nan_rows="$(grep -c nan "$work/$mode/out.csv" || true)"
    if [ "$nan_rows" -ne 1 ]; then
        echo "FAIL: $mode has $nan_rows NaN rows, want exactly 1" >&2
        failed=1
    fi
done
if ! cmp -s "$work/poison0/out.csv" "$work/poison1/out.csv"; then
    echo "FAIL: poisoned CSVs differ between modes" >&2
    failed=1
else
    echo "ok: poisoned cell is exactly one NaN, identical across modes"
fi
# The signed lineage is deterministic (attempts at a terminal loss are
# the policy budget, bisection ids derive from the parent), so even
# the poisoned manifests must match byte-for-byte across modes.
if ! cmp -s "$work/poison0/out.csv.manifest.json" \
            "$work/poison1/out.csv.manifest.json"; then
    echo "FAIL: poisoned manifests differ between modes" >&2
    diff "$work/poison0/out.csv.manifest.json" \
         "$work/poison1/out.csv.manifest.json" | head -10 >&2
    failed=1
fi
python3 "$scripts/verify_manifest.py" \
    "$work/poison0/out.csv.manifest.json" \
    "$work/poison1/out.csv.manifest.json" > /dev/null ||
    { echo "FAIL: poisoned manifests do not verify" >&2; failed=1; }

echo "== supervisor kill -9 mid-run, then --resume 1"
mkdir -p "$work/resume"
store="$work/resume/store"
# exec setsid: $! becomes the supervisor itself, alone (with its
# workers) in a fresh process group we can SIGKILL wholesale without
# touching this script.
(cd "$work/resume" && exec setsid "$bench" "${args[@]}" \
    --fleet-workers 1 --fleet-shard-cells 2 --result-store store \
    --csv pre.csv > pre.stdout 2> pre.stderr) &
runner=$!
disown "$runner" # no async "Killed" job notice from the shell
# Wait for at least one published shard, then SIGKILL the supervisor's
# whole process group (supervisor + any worker it has running).
for _ in $(seq 1 500); do
    if ls "$store"/shard-*.vpshard > /dev/null 2>&1; then break; fi
    sleep 0.02
done
kill -9 "-$runner" 2> /dev/null || true
while kill -0 "$runner" 2> /dev/null; do sleep 0.02; done
published="$(ls "$store"/shard-*.vpshard 2> /dev/null | wc -l)"
if [ "$published" -lt 1 ]; then
    echo "FAIL: no shard results were published before the kill" >&2
    failed=1
fi
(cd "$work/resume" && "$bench" "${args[@]}" --fleet-workers 3 \
    --fleet-shard-cells 2 --result-store store --resume 1 \
    --csv out.csv > stdout.txt 2> stderr.txt)
check_identical "supervisor kill -9 + resume" resume no
if ! grep -q "[1-9][0-9]* reused cell" "$work/resume/stderr.txt"; then
    echo "FAIL: resume run reused no published shards" >&2
    cat "$work/resume/stderr.txt" >&2
    failed=1
else
    echo "ok: resume reused $published published shard(s) without" \
         "recomputing"
fi

echo "== store corruption (bit-flipped shard result, then resume)"
mkdir -p "$work/corrupt"
(cd "$work/corrupt" && "$bench" "${args[@]}" --fleet-workers 2 \
    --result-store store --csv pre.csv > /dev/null 2> /dev/null)
victim="$(ls "$work/corrupt/store"/shard-*.vpshard | head -1)"
printf 'X' | dd of="$victim" bs=1 seek=60 conv=notrunc 2> /dev/null
(cd "$work/corrupt" && "$bench" "${args[@]}" --fleet-workers 2 \
    --result-store store --resume 1 --csv out.csv \
    > stdout.txt 2> stderr.txt)
check_identical "store corruption" corrupt no
if ls "$work/corrupt/store"/.corrupt-* > /dev/null 2>&1; then
    echo "ok: corrupt shard result quarantined and recomputed"
else
    echo "FAIL: corrupt shard result was not quarantined" >&2
    failed=1
fi

echo "== tampered CSV (verify_manifest.py must fail)"
sed 's/^fleet,go/fleet,GO/' "$work/clean/out.csv" > "$work/clean/tampered"
mv "$work/clean/tampered" "$work/clean/out.csv"
if python3 "$scripts/verify_manifest.py" \
    "$work/clean/out.csv.manifest.json" > /dev/null 2>&1; then
    echo "FAIL: verify_manifest.py accepted a tampered CSV" >&2
    failed=1
else
    echo "ok: tampered CSV rejected by verify_manifest.py"
fi

echo "== salvage parity (damaged v3 cache, per-worker totals merged)"
cache="$work/salvage-cache"
mkdir -p "$work/sal0"
(cd "$work/sal0" && "$bench" "${args[@]}" --fleet-workers 0 \
    --trace-cache-dir "$cache" --csv pre.csv > /dev/null 2> /dev/null)
# Bit-flip the middle of every cached v3 trace: --salvage-blocks must
# quarantine the damaged block(s) identically in both modes. (The
# salvaged results legitimately differ from golden — records were
# lost — so this stage compares the two modes against each other.)
for entry in "$cache"/*-v3.vptrace; do
    size="$(stat -c %s "$entry")"
    printf 'X' | dd of="$entry" bs=1 seek=$((size / 2)) \
        conv=notrunc 2> /dev/null
done
# --fleet-shard-cells 8 = one workload row per shard in BOTH modes:
# traces load (and salvage) once per shard, so matching shard sizes is
# what makes the totals comparable.
run_stage sal_single --fleet-workers 0 --fleet-shard-cells 8 \
    --trace-cache-dir "$cache" --salvage-blocks 1
run_stage sal_fleet --fleet-workers 2 --fleet-shard-cells 8 \
    --trace-cache-dir "$cache" --salvage-blocks 1
single_line="$(grep "sim: salvage" "$work/sal_single/stderr.txt" || true)"
fleet_line="$(grep "sim: salvage" "$work/sal_fleet/stderr.txt" || true)"
if [ -z "$single_line" ]; then
    echo "FAIL: single-process salvage run reported no salvage" >&2
    failed=1
elif [ "$single_line" != "$fleet_line" ]; then
    echo "FAIL: salvage totals differ:" >&2
    echo "  single: $single_line" >&2
    echo "  fleet:  $fleet_line" >&2
    failed=1
else
    echo "ok: fleet salvage totals match the single process"
fi
if ! cmp -s "$work/sal_single/out.csv" "$work/sal_fleet/out.csv"; then
    echo "FAIL: salvage-mode CSVs differ between modes" >&2
    failed=1
fi

if [ "$failed" -ne 0 ]; then
    echo "fleet chaos FAILED" >&2
    exit 1
fi
echo "fleet chaos OK (crashes, hangs, ENOSPC, poison, kill -9 and" \
     "tampering all contained)"
