#!/usr/bin/env bash
# Mutation smoke test: prove the self-checking machinery actually
# detects a model bug, not just that it stays quiet on correct code.
#
# Stage 1 builds a separate tree with
# -DVPSIM_MUTATION=classifier-drop-correct, which deletes the
# classifier's correct-prediction increment (see
# src/predictor/classifier.cpp). The vp.hit_miss_balance invariant
# (predictions made == correct + wrong) must then fire — fig3.1 runs
# fused, so this also proves the check survives outcome replay: under
# --keep-going the affected cells become NaN and the failure list shows
# a [internal] invariant violation. If the mutant runs cleanly, the
# self-checks are dead and this script fails.
#
# Stage 2 builds -DVPSIM_MUTATION=ideal-replay-drop-correct, which makes
# the fused ideal machine read every replayed correct prediction as
# wrong (src/core/ideal_machine.cpp). No counter disagrees, so only the
# reference machine — which runs its own live predictor — can see it:
# fig3_1_fetch_rate --cross-check must report the divergence.
#
# Usage: scripts/mutation_smoke.sh [mutant-build-dir]
#   (stage 2 builds in <mutant-build-dir>-replay)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-mutation-smoke}"
replay_build="$build-replay"

echo "mutation-smoke: building mutant (classifier-drop-correct)"
cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DVPSIM_MUTATION=classifier-drop-correct >/dev/null
cmake --build "$build" -j"$(nproc)" --target fig3_1_fetch_rate >/dev/null

echo "mutation-smoke: running the mutant with --check-invariants cheap"
out="$("$build/bench/fig3_1_fetch_rate" --insts 2000 \
    --benchmarks compress --check-invariants cheap \
    --keep-going 1 2>&1 || true)"

if grep -q "vp.hit_miss_balance" <<<"$out" &&
    grep -q "\[internal\]" <<<"$out"; then
    echo "mutation-smoke: PASS (invariant engine caught the mutant:" \
         "kInternal NaN cells)"
else
    echo "mutation-smoke: FAIL - the mutant ran without tripping" \
         "vp.hit_miss_balance; self-checks are not protecting the" \
         "predictor bookkeeping"
    echo "---- mutant output ----"
    echo "$out"
    exit 1
fi

echo "mutation-smoke: checking --check-invariants off lets the mutant through"
out_off="$("$build/bench/fig3_1_fetch_rate" --insts 2000 \
    --benchmarks compress --check-invariants off \
    --keep-going 1 2>&1 || true)"
if grep -q "vp.hit_miss_balance" <<<"$out_off"; then
    echo "mutation-smoke: FAIL - invariants fired despite" \
         "--check-invariants off"
    exit 1
fi
echo "mutation-smoke: PASS (gate respected: off level is silent)"

echo "mutation-smoke: building mutant (ideal-replay-drop-correct)"
cmake -B "$replay_build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DVPSIM_MUTATION=ideal-replay-drop-correct >/dev/null
cmake --build "$replay_build" -j"$(nproc)" --target fig3_1_fetch_rate \
    >/dev/null

echo "mutation-smoke: running the replay mutant with --cross-check 5"
out_replay="$("$replay_build/bench/fig3_1_fetch_rate" --insts 2000 \
    --benchmarks compress --cross-check 5 --keep-going 1 2>&1 || true)"
if grep -q "cross-check" <<<"$out_replay" &&
    grep -q "diverges from the reference model" <<<"$out_replay"; then
    echo "mutation-smoke: PASS (reference machine caught the replay" \
         "mutant)"
else
    echo "mutation-smoke: FAIL - the replay mutant passed --cross-check;" \
         "the reference no longer checks the fused predictions"
    echo "---- mutant output ----"
    echo "$out_replay"
    exit 1
fi
