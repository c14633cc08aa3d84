#!/usr/bin/env python3
"""Self-test of the figure-regeneration benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, at --tiny trace lengths, that:
  * every workload completes, untraced and traced, with correct=true;
  * every metric BENCHMARK.json names is printed with its unit;
  * a deliberately altered figure CSV is caught as a failure;
  * without the vpsim sources the benchmark exits non-zero and prints
    no result.
Exits 0 when all hold.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(argv):
    """run.main() in-process; returns (exit code, parsed last line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload, trace)
            code, result = bench(["--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--tiny"])
            if code != 0 or result is None:
                problems.append(label + ": no result")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(label + ": outputs failed the gate")
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: metric %s missing or not in %s" %
                                    (label, metric["name"], metric["unit"]))
            print("ok   " + label, flush=True)

    # Alter one value of the second fig5.1 CSV: the pass digests differ.
    seen = []

    def corrupt(path):
        seen.append(path)
        if os.path.basename(path) == "fig5_1.csv" and \
                sum(p.endswith("fig5_1.csv") for p in seen) == 2:
            with open(path) as f:
                rows = f.read().splitlines()
            fig, bench_name, col, value = rows[0].split(",")
            rows[0] = ",".join([fig, bench_name, col,
                                repr(float(value) + 1e-3)])
            with open(path, "w") as f:
                f.write("\n".join(rows) + "\n")

    run.CORRUPT = corrupt
    try:
        code, result = bench(["--workload", "figset-cold", "--seed", "0",
                              "--seconds", "1", "--trace", "0", "--tiny"])
    finally:
        run.CORRUPT = None
    if result is None or result["correct"] or result["failed"] == 0:
        problems.append("an altered fig5.1 CSV was not caught")
    else:
        print("ok   altered CSV caught (%d of %d operations failed)" %
              (result["failed"], result["attempted"]), flush=True)

    # A directory holding only the benchmark must fail cleanly.
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figset-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a tree without sources produced a result")
    else:
        print("ok   bare benchmark directory exits %d with no result" %
              proc.returncode, flush=True)

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
