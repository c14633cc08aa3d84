#!/usr/bin/env python3
"""Validate and compare perf_harness JSON reports (schema vpsim-perf-1).

Two modes:

  perf_report.py --validate FILE
      Schema-check a single report (used by scripts/smoke_bench.sh and
      the CI perf-smoke job). Exits non-zero with a diagnostic if any
      required field is missing or ill-typed.

  perf_report.py --compare BASELINE CURRENT [--max-mips-drop PCT]
                 [--markdown]
      Compare two reports model-by-model and print MIPS, wall-clock and
      peak-RSS deltas, e.g. against the latest committed BENCH_*.json.
      When both reports carry mips_min (the fastest-repeat figure the
      harness emits alongside the median) the comparison uses it, so a
      busy machine's one-sided noise cannot masquerade as a code
      regression. With --max-mips-drop the script exits 1 if any model
      common to both reports lost more than PCT percent MIPS — the CI
      perf-smoke gate. --markdown additionally emits the comparison as
      a GitHub-flavored table (pasteable into docs/PERF.md).

      Invoking with two bare positional files (no --compare) is the
      legacy informational spelling and still works.

The schema is documented in docs/PERF.md.
"""

import argparse
import json
import sys

SCHEMA = "vpsim-perf-1"

TOP_FIELDS = {
    "schema": str,
    "insts_per_benchmark": int,
    "repeats": int,
    "benchmarks": list,
    "total_instructions": int,
    "process_peak_rss_bytes": int,
    "models": list,
}

MODEL_FIELDS = {
    "name": str,
    "wall_seconds": (int, float),
    "wall_seconds_all": list,
    "mips": (int, float),
    "peak_rss_bytes": int,
    "cycles_digest": int,
}

# Added by the PR 7 harness; absent from older committed reports, so
# they are validated only when present.
OPTIONAL_MODEL_FIELDS = {
    "wall_seconds_min": (int, float),
    "mips_min": (int, float),
}

# Span-vs-per-record speedups from harnesses that still measured the
# per-record shim (BENCH_6/7); validated and compared only when present.
DERIVED_FIELDS = {
    "span_vs_per_record_speedup": (int, float),
    "span_vs_per_record_speedup_vp": (int, float),
}


def fail(message):
    print(f"perf_report: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(obj, fields, where):
    for key, expected in fields.items():
        if key not in obj:
            fail(f"{where}: missing field '{key}'")
        value = obj[key]
        # bool is an int subclass; never a valid numeric field here.
        if isinstance(value, bool) or not isinstance(value, expected):
            fail(f"{where}: field '{key}' has type "
                 f"{type(value).__name__}, expected "
                 f"{getattr(expected, '__name__', expected)}")


def load_report(path):
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")
    if not isinstance(report, dict):
        fail(f"{path}: top level is not an object")
    return report


def validate(path):
    report = load_report(path)
    check_fields(report, TOP_FIELDS, path)
    if report["schema"] != SCHEMA:
        fail(f"{path}: schema is '{report['schema']}', expected "
             f"'{SCHEMA}'")
    if report["repeats"] < 1:
        fail(f"{path}: repeats must be >= 1")
    if not report["benchmarks"]:
        fail(f"{path}: benchmarks list is empty")
    if not all(isinstance(b, str) for b in report["benchmarks"]):
        fail(f"{path}: benchmarks must be strings")
    if not report["models"]:
        fail(f"{path}: models list is empty")
    for index, model in enumerate(report["models"]):
        where = f"{path}: models[{index}]"
        if not isinstance(model, dict):
            fail(f"{where}: not an object")
        check_fields(model, MODEL_FIELDS, where)
        present_optional = {key: expected for key, expected
                            in OPTIONAL_MODEL_FIELDS.items()
                            if key in model}
        check_fields(model, present_optional, where)
        samples = model["wall_seconds_all"]
        if len(samples) != report["repeats"]:
            fail(f"{where}: {len(samples)} wall-clock samples for "
                 f"{report['repeats']} repeats")
        if not all(isinstance(s, (int, float)) and not isinstance(s, bool)
                   and s >= 0 for s in samples):
            fail(f"{where}: wall_seconds_all entries must be "
                 f"non-negative numbers")
        if model["mips"] < 0:
            fail(f"{where}: negative mips")
    names = [model["name"] for model in report["models"]]
    if len(names) != len(set(names)):
        fail(f"{path}: duplicate model names")
    if "derived" in report:
        derived = report["derived"]
        if not isinstance(derived, dict):
            fail(f"{path}: field 'derived' has type "
                 f"{type(derived).__name__}, expected dict")
        check_fields(derived,
                     {key: expected for key, expected
                      in DERIVED_FIELDS.items() if key in derived},
                     f"{path}: derived")
    return report


def format_delta(base, current, suffix=""):
    if base == 0:
        return "n/a"
    delta = (current - base) / base * 100.0
    return f"{delta:+.1f}%{suffix}"


def comparison_mips(base, cur):
    """The MIPS pair to compare for one model, preferring the
    noise-resistant fastest-repeat figure when both reports have it."""
    if "mips_min" in base and "mips_min" in cur:
        return base["mips_min"], cur["mips_min"], "mips_min"
    return base["mips"], cur["mips"], "mips"


def compare(baseline_path, current_path, max_mips_drop=None,
            markdown=False):
    baseline = validate(baseline_path)
    current = validate(current_path)
    base_models = {m["name"]: m for m in baseline["models"]}
    cur_models = {m["name"]: m for m in current["models"]}

    print(f"baseline: {baseline_path} "
          f"({baseline['insts_per_benchmark']} insts x "
          f"{len(baseline['benchmarks'])} benchmarks, "
          f"{baseline['repeats']} repeats)")
    print(f"current:  {current_path} "
          f"({current['insts_per_benchmark']} insts x "
          f"{len(current['benchmarks'])} benchmarks, "
          f"{current['repeats']} repeats)")
    if (baseline["insts_per_benchmark"] != current["insts_per_benchmark"]
            or baseline["benchmarks"] != current["benchmarks"]):
        print("note: workloads differ; deltas compare unlike runs")
    print()
    header = (f"{'model':<24} {'base MIPS':>10} {'cur MIPS':>10} "
              f"{'delta':>8} {'base RSS':>10} {'cur RSS':>10} "
              f"{'delta':>8}")
    print(header)
    print("-" * len(header))
    regressions = []
    markdown_rows = []
    for name in base_models:
        if name not in cur_models:
            print(f"{name:<24} (missing from current)")
            continue
        base, cur = base_models[name], cur_models[name]
        base_mips, cur_mips, metric = comparison_mips(base, cur)
        base_mib = base["peak_rss_bytes"] / (1024.0 * 1024.0)
        cur_mib = cur["peak_rss_bytes"] / (1024.0 * 1024.0)
        print(f"{name:<24} {base_mips:>10.2f} {cur_mips:>10.2f} "
              f"{format_delta(base_mips, cur_mips):>8} "
              f"{base_mib:>9.1f}M {cur_mib:>9.1f}M "
              f"{format_delta(base['peak_rss_bytes'], cur['peak_rss_bytes']):>8}")
        markdown_rows.append(
            f"| `{name}` | {base_mips:.2f} | {cur_mips:.2f} | "
            f"{format_delta(base_mips, cur_mips)} |")
        if base_mips > 0:
            drop = (base_mips - cur_mips) / base_mips * 100.0
            if max_mips_drop is not None and drop > max_mips_drop:
                regressions.append((name, metric, drop))
    for name in cur_models:
        if name not in base_models:
            print(f"{name:<24} (new in current: "
                  f"{cur_models[name]['mips']:.2f} MIPS)")
    print()
    for key in DERIVED_FIELDS:
        base_value = baseline.get("derived", {}).get(key)
        cur_value = current.get("derived", {}).get(key)
        if base_value is not None and cur_value is not None:
            print(f"{key}: baseline {base_value:.3f}, "
                  f"current {cur_value:.3f}")

    if markdown:
        print()
        print("| model | baseline MIPS | current MIPS | delta |")
        print("|---|---:|---:|---:|")
        for row in markdown_rows:
            print(row)

    if regressions:
        print(file=sys.stderr)
        for name, metric, drop in regressions:
            print(f"perf_report: model '{name}' lost {drop:.1f}% "
                  f"{metric} (gate: {max_mips_drop:.0f}%)",
                  file=sys.stderr)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(
        description="Validate or compare perf_harness JSON reports")
    parser.add_argument("--validate", metavar="FILE",
                        help="schema-check one report and exit")
    parser.add_argument("--compare", nargs=2,
                        metavar=("BASELINE", "CURRENT"),
                        help="compare two reports model-by-model")
    parser.add_argument("--max-mips-drop", type=float, metavar="PCT",
                        help="with --compare: exit 1 if any common "
                             "model lost more than PCT%% MIPS")
    parser.add_argument("--markdown", action="store_true",
                        help="with --compare: also print a markdown "
                             "table for docs/PERF.md")
    parser.add_argument("files", nargs="*",
                        help="legacy BASELINE CURRENT comparison mode")
    options = parser.parse_args()

    if options.validate:
        if options.files or options.compare:
            parser.error("--validate takes no other files")
        validate(options.validate)
        print(f"{options.validate}: valid {SCHEMA} report")
        return
    if options.compare:
        if options.files:
            parser.error("--compare takes no positional files")
        compare(options.compare[0], options.compare[1],
                max_mips_drop=options.max_mips_drop,
                markdown=options.markdown)
        return
    if len(options.files) != 2:
        parser.error("comparison mode needs exactly BASELINE and CURRENT")
    if options.max_mips_drop is not None or options.markdown:
        parser.error("--max-mips-drop/--markdown require --compare")
    compare(options.files[0], options.files[1])


if __name__ == "__main__":
    main()
