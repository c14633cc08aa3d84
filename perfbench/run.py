#!/usr/bin/env python3
"""Figure-regeneration benchmark for vpsim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figset-cold --seed 1 --seconds 20 --trace 0

Builds the figure binaries, fleet_sweep and the per-layer probe under
.bench_build/, runs the workload as a user would, checks every output,
and prints one JSON result as the last line of stdout. --trace 1 runs
the traced per-layer pass instead. The full result, with the host
record, is also written to .bench_out/results/. See perfbench/README.md.

    python3 perfbench/run.py --compare A.json B.json

compares two saved results and refuses when their host records differ.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "vpsim")
OUT = os.path.join(ROOT, ".bench_out")
NPROC = os.cpu_count() or 1

WORKLOADS = ("figset-cold", "figset-warm", "sweep-grid")

# The figure set: binary, label, default --insts. fig3.3 writes no CSV;
# its stdout table is digested alone.
FIGURES = (
    ("fig3_1_fetch_rate", "fig3_1", 400000),
    ("fig3_3_avg_did", "fig3_3", 1000000),
    ("fig3_5_predictability", "fig3_5", 1000000),
    ("fig5_1_taken_branches_ideal_btb", "fig5_1", 200000),
    ("fig5_3_trace_cache", "fig5_3", 200000),
)
# The sweep grid: 2 predictors x 2 table sizes x 5 fetch rates x
# 3 windows x 3 VP penalties = 180 columns x 8 workloads = 1440 cells.
# Each (predictor, table) key is shared by 45 cells.
SWEEP_AXES = ["--predictors", "stride,2-delta", "--table-sizes", "0,1024",
              "--window-sizes", "20,40,80", "--fetch-rates", "4,8,16,32,40",
              "--vp-penalties", "0,1,3"]
SWEEP_INSTS = 40000
# fig3.1's machine as a fleet grid (the probe's ideal layer on figsets).
FIG3_1_AXES = ["--predictors", "stride", "--table-sizes", "0",
               "--window-sizes", "40", "--fetch-rates", "4,8,16,32,40",
               "--vp-penalties", "1"]
# Published averages (percent): Figure 3.1 and Figure 5.1 of the paper.
PAPER = {("fig3.1", "BW=4"): 0.0, ("fig3.1", "BW=8"): 8.0,
         ("fig3.1", "BW=16"): 33.0, ("fig3.1", "BW=32"): 70.0,
         ("fig3.1", "BW=40"): 80.0, ("fig5.1", "n=1"): 3.0,
         ("fig5.1", "n=4"): 50.0}

MIN_PASSES = 3
# The sweep's in-memory set-up takes ~10 ms, so it is repeated more.
SETUP_REPEATS = {"figset-cold": 3, "figset-warm": 3, "sweep-grid": 15}
OP_TIMEOUT_S = 150
TINY_DIVISOR = 100

# Test hook: called with each CSV path before it is digested.
CORRUPT = None


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no vpsim source tree in %s (run from the root "
                         "of a checkout)" % ROOT)
    os.makedirs(OUT, exist_ok=True)
    build_log = os.path.join(OUT, "build.log")
    hook = os.path.join(HERE, "probe", "hook.cmake")
    targets = [f[0] for f in FIGURES] + ["fleet_sweep", "layer_probe"]
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_PROJECT_vpsim_INCLUDE=" + hook])
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC),
                  "--target"] + targets)
    with open(build_log, "w") as out:
        for step in steps:
            code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                   timeout=850)
            if code != 0:
                with open(build_log) as f:
                    log(f.read()[-3000:])
                raise BenchError("build step failed: " + " ".join(step))


def binary(name):
    if name == "layer_probe":
        return os.path.join(BUILD, name)
    return os.path.join(BUILD, "bench", name)


# ----------------------------------------------------------- host record

def source_digest():
    """Content hash of the simulator sources (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    calib = json.loads(run_probe(["--probe-mode", "calibrate"]))
    record = {
        "cpu_model": cpu,
        "nproc": NPROC,
        "compiler": "gcc-compatible " + calib["compiler"],
        # An empty cache value means the tree's own default applies.
        "build_type": build_type or "RelWithDebInfo (tree default)",
        "optimized": bool(calib["optimized"]),
        "source_digest": source_digest(),
        "calibration_mops": calib["calibration_mops"],
    }
    if not record["optimized"]:
        log("WARNING: the build is not optimized (%s); timings are not "
            "representative" % record["build_type"])
    return record


# ------------------------------------------------------------ processes

class Op:
    """One binary invocation: timing, resource use and output digest."""

    def __init__(self, label):
        self.label = label
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.code = None
        self.digest = ""
        self.error = ""
        self.stderr = ""
        self.csv_rows = []


def run_process(args, stdout_path, stderr_path):
    """Run @args to completion; returns (exit code, wall s, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(OP_TIMEOUT_S, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def invoke(label, args, csv_path=None):
    op = Op(label)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    if csv_path and os.path.exists(csv_path):
        os.remove(csv_path)
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    op.code, op.wall, usage = run_process(args, out_path, err_path)
    # wait4 reports the process plus every descendant it reaped (fleet
    # workers), so cpu and rss cover the whole invocation.
    op.cpu = usage.ru_utime + usage.ru_stime
    op.rss_mb = usage.ru_maxrss / 1024.0
    with open(err_path, errors="replace") as f:
        op.stderr = f.read()
    with open(out_path, "rb") as f:
        stdout = f.read()
    if op.code != 0:
        op.error = "exit code %d: %s" % (op.code, op.stderr[-500:])
        return op
    data = b""
    if csv_path:
        if CORRUPT:
            CORRUPT(csv_path)
        with open(csv_path, "rb") as f:
            data = f.read()
        op.csv_rows = list(csv.reader(data.decode().splitlines()))
        if any(len(r) != 4 or r[3].strip().lower() in ("nan", "-nan")
               for r in op.csv_rows):
            op.error = "NaN or malformed cell in " + csv_path
    elif b"nan" in stdout.lower():
        op.error = "NaN cell in the table of " + label
    op.digest = hashlib.sha256(stdout + b"\0" + data).hexdigest()
    return op


def run_probe(args):
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    out_path = os.path.join(tmp, "probe.stdout")
    err_path = os.path.join(tmp, "probe.stderr")
    code, _, _ = run_process([binary("layer_probe")] + args, out_path,
                             err_path)
    with open(out_path) as f:
        text = f.read().strip()
    if code != 0 or not text:
        with open(err_path, errors="replace") as f:
            raise BenchError("layer_probe %s failed (exit %d): %s" %
                             (" ".join(args[:2]), code, f.read()[-800:]))
    return text.splitlines()[-1]


# ---------------------------------------------------------------- passes

class Shape:
    """Input sizes of a run; --tiny divides every length."""

    def __init__(self, tiny):
        div = TINY_DIVISOR if tiny else 1
        self.fig_insts = {fig: insts // div for _, fig, insts in FIGURES}
        self.sweep_insts = SWEEP_INSTS // div
        self.tiny = tiny

    def figure_args(self, fig):
        # Figures run at their own default --insts; tiny mode overrides.
        return ["--insts", str(self.fig_insts[fig])] if self.tiny else []

    def setup_lengths(self):
        return [self.fig_insts[fig] for _, fig, _ in FIGURES]


def figset_pass(shape, seed, cache_dir, insts=None):
    """fig3.1, 3.3, 3.5, 5.1 and 5.3 in order, sharing @cache_dir."""
    ops = []
    for name, fig, _ in FIGURES:
        csv_path = None
        args = [binary(name), "--jobs", str(NPROC), "--seed", str(seed)]
        if fig != "fig3_3":
            csv_path = os.path.join(OUT, "tmp", fig + ".csv")
            args += ["--csv", csv_path]
        args += ["--insts", str(insts)] if insts else shape.figure_args(fig)
        if cache_dir:
            args += ["--trace-cache-dir", cache_dir]
        ops.append(invoke(fig, args, csv_path))
    return ops


def sweep_pass(shape, seed, workers, store_dir):
    shutil.rmtree(store_dir, ignore_errors=True)
    csv_path = os.path.join(OUT, "tmp", "fleet.csv")
    args = [binary("fleet_sweep"), "--insts", str(shape.sweep_insts),
            "--seed", str(seed), "--fleet-workers", str(workers),
            "--result-store", store_dir, "--csv", csv_path] + SWEEP_AXES
    return [invoke("fleet_sweep", args, csv_path)]


def pass_totals(ops):
    return {"wall_s": sum(o.wall for o in ops),
            "cpu_s": sum(o.cpu for o in ops),
            "peak_rss_mb": max(o.rss_mb for o in ops)}


def paper_err_pp(ops):
    """Mean |simulated - published| average, in percentage points."""
    cells = {}
    for op in ops:
        for fig, _, col, value in op.csv_rows:
            if (fig, col) in PAPER:
                cells.setdefault((fig, col), []).append(float(value))
    if set(cells) != set(PAPER) and set(cells) != {
            k for k in PAPER if k[0] == "fig3.1"}:
        raise BenchError("figure CSVs lack the published columns")
    errs = [abs(100.0 * statistics.mean(v) - PAPER[k])
            for k, v in cells.items()]
    return statistics.mean(errs)


def fleet_paper_rows(op):
    """fig3.1's configuration inside the sweep grid, relabelled."""
    rows = []
    for _, bench, col, value in op.csv_rows:
        pred, table, window, rate, penalty = col.split("/")
        if (pred, table, window, penalty) == ("stride", "t0", "w40", "p1"):
            rows.append(["fig3.1", bench, "BW=" + rate[2:], value])
    fake = Op("fleet-as-fig3.1")
    fake.csv_rows = rows
    return fake


# ----------------------------------------------------------- correctness

class Gate:
    """Counts operations and failures; every digest mismatch fails."""

    def __init__(self, workload, seed, tiny):
        self.attempted = 0
        self.failures = []
        self.reference = {}
        recorded = {}
        path = os.path.join(HERE, "digests.json")
        if os.path.exists(path):
            with open(path) as f:
                recorded = json.load(f)
        # Recorded digests are for full-size inputs only.
        self.recorded = {} if tiny else recorded.get(
            "seed%d" % seed, {}).get(workload, {})

    def check(self, ops):
        """Count each op once; it fails on an error or a digest mismatch.

        The first digest seen for a label is the reference: a set-up
        pass, a --fleet-workers 0 run, or the first timed pass.
        """
        for op in ops:
            self.attempted += 1
            problems = [op.error] if op.error else []
            if not op.error:
                ref = self.reference.setdefault(op.label, op.digest)
                if op.digest != ref:
                    problems.append("digest %s differs from the reference "
                                    "%s" % (op.digest[:12], ref[:12]))
                want = self.recorded.get(op.label)
                if want and op.digest != want:
                    problems.append("digest %s differs from the recorded "
                                    "%s" % (op.digest[:12], want[:12]))
            if problems:
                self.failures.append(op.label + ": " + "; ".join(problems))


# -------------------------------------------------------------- untraced

def setup_times(shape, workload, seed, cache_dir):
    args = ["--probe-mode", "setup", "--seed", str(seed), "--jobs",
            str(NPROC), "--repeats",
            str(1 if shape.tiny else SETUP_REPEATS[workload])]
    if workload == "sweep-grid":
        args += ["--setup-lengths", str(shape.sweep_insts)]
    else:
        args += ["--setup-lengths",
                 ",".join(str(x) for x in shape.setup_lengths()),
                 "--trace-cache-dir", cache_dir,
                 "--fresh-cache", "1" if workload == "figset-cold" else "0"]
    return json.loads(run_probe(args))["setup_s"]


def measure(workload, seed, seconds, shape, gate):
    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    cache = os.path.join(work, "cache")
    store = os.path.join(work, "store")

    # Set-up: reference outputs, then the timed trace acquisition.
    if workload == "figset-warm":
        gate.check(figset_pass(shape, seed, cache))
    elif workload == "sweep-grid":
        gate.check(sweep_pass(shape, seed, 0, store))
    setup = setup_times(shape, workload, seed,
                        os.path.join(work, "setup-cache")
                        if workload == "figset-cold" else cache)

    passes = []
    first_ops = None
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or
           time.perf_counter() - start < seconds):
        if workload == "sweep-grid":
            ops = sweep_pass(shape, seed, NPROC, store)
        else:
            if workload == "figset-cold":
                shutil.rmtree(cache, ignore_errors=True)
            ops = figset_pass(shape, seed, cache)
        gate.check(ops)
        passes.append(pass_totals(ops))
        first_ops = first_ops or ops
    if workload == "figset-cold":
        # The cache the last pass filled must serve identical figures.
        gate.check(figset_pass(shape, seed, cache))

    if workload == "sweep-grid":
        err = paper_err_pp([fleet_paper_rows(first_ops[0])])
    else:
        err = paper_err_pp(first_ops)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"]
                                          for p in passes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "paper_err_pp": (err, "pp"),
    }
    detail = {"passes": passes, "setup_samples": setup,
              "digests": gate.reference}
    return metrics, detail


# ---------------------------------------------------------------- traced

def self_times(spans):
    """Span duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            if c["end_ns"] > lo:
                covered += c["end_ns"] - lo
                cursor = c["end_ns"]
        total = s["end_ns"] - s["start_ns"] - covered
        out[s["name"]] = out.get(s["name"], 0.0) + total * 1e-9
    return out


def parse_cache_counts(ops):
    hits = misses = 0
    for op in ops:
        for line in op.stderr.splitlines():
            if line.startswith("trace cache:") and " hits, " in line:
                words = line.split()
                hits += int(words[2])
                misses += int(words[4])
    return hits, misses


def parse_fleet(op):
    for line in op.stderr.splitlines():
        if line.startswith("fleet: ") and "worker launch" in line:
            words = line.replace(",", "").split()
            launches = int(words[1])
            retries = int(words[words.index("transient") - 1]) + \
                int(words[words.index("lineage") - 1])
            return launches, retries
    raise BenchError("fleet_sweep printed no launch summary")


def fold(digest):
    """A 64-bit digest as a number JSON carries exactly (48 bits)."""
    return float((digest ^ (digest >> 48)) & ((1 << 48) - 1))


def traced(workload, seed, shape, gate):
    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    cache = os.path.join(work, "cache")

    # Untraced figure pass under the workload's cache state.
    if workload == "sweep-grid":
        figs = figset_pass(shape, seed, None, shape.sweep_insts)
    else:
        if workload == "figset-warm":
            gate.check(figset_pass(shape, seed, cache))
        figs = figset_pass(shape, seed, cache)
    gate.check(figs)
    hits, misses = parse_cache_counts(figs)

    # The --cross-check sample on the ideal figure (fig3.1).
    name, fig, _ = FIGURES[0]
    args = [binary(name), "--jobs", str(NPROC), "--seed", str(seed),
            "--cross-check", "4"]
    args += (["--insts", str(shape.sweep_insts)]
             if workload == "sweep-grid" else shape.figure_args(fig))
    check = invoke("fig3_1 --cross-check", args)
    if not check.error and "cross-checked against the reference" not in \
            check.stderr:
        check.error = "the --cross-check sample checked no cells"
    gate.check([check])

    # The fleet, on workers and in-process.
    store = os.path.join(work, "store")
    inproc = sweep_pass(shape, seed, 0, store)
    fleet = sweep_pass(shape, seed, NPROC, store)
    gate.check(inproc)
    gate.check(fleet)
    launches, retries = parse_fleet(fleet[0])

    # The probe's layer sequence on the workload's inputs.
    spans_path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
    args = ["--probe-mode", "layers", "--seed", str(seed), "--jobs",
            str(NPROC), "--work-dir", os.path.join(work, "probe"),
            "--spans", spans_path]
    if workload == "sweep-grid":
        n = str(shape.sweep_insts)
        args += SWEEP_AXES + ["--insts", n, "--pipeline-insts", n,
                              "--analysis-insts", n,
                              "--capture-lengths", "shards"]
    else:
        fi = shape.fig_insts
        args += FIG3_1_AXES + [
            "--insts", str(fi["fig3_1"]),
            "--pipeline-insts", str(fi["fig5_1"]),
            "--analysis-insts", str(fi["fig3_3"]),
            "--capture-lengths", "%d,%d,%d" % (fi["fig3_1"], fi["fig3_3"],
                                               fi["fig5_1"])]
    p = json.loads(run_probe(args))
    repeat = Op("layer_probe")
    if not p["repeat_ok"]:
        repeat.error = ("simulated counters differ between the traced "
                        "and untraced sequence")
    gate.check([repeat])
    with open(spans_path) as f:
        t = self_times(json.load(f))

    capture_rate = p["vm.captured_insts"] / t["vm.capture"]
    keyed = p["predictor.value_insts"] * p["predictor.keys"]
    ideal_s = t["core.ideal.novp"] + t["core.ideal.vp"]
    pipe_s = t["core.pipeline.sequential"] + t["core.pipeline.trace_cache"]
    # Seconds per instruction of a warm hit over those of VM capture.
    load_vs_capture = (t["trace.cache_load"] / p["trace.loaded_insts"]) / \
        (t["vm.capture"] / p["vm.captured_insts"])
    m = {
        "vm.capture_s": (t["vm.capture"], "s"),
        "vm.capture_minst_per_s": (capture_rate / 1e6, "Minst/s"),
        "vm.captured_insts": (p["vm.captured_insts"], "count"),
        "vm.recapture_ratio": (p["vm.captured_insts"] /
                               p["vm.distinct_insts"], "ratio"),
        "trace.v3_encode_s": (t["trace.v3_encode"], "s"),
        "trace.v3_decode_s": (t["trace.v3_decode"], "s"),
        "trace.cache_store_s": (t["trace.cache_store"], "s"),
        "trace.cache_load_s": (t["trace.cache_load"], "s"),
        "trace.cache_bytes_written": (p["trace.cache_bytes_written"],
                                      "bytes"),
        "trace.cache_bytes_read": (p["trace.cache_bytes_read"], "bytes"),
        "trace.cache_hit_ratio": (hits / (hits + misses)
                                  if hits + misses else 0.0, "ratio"),
        "trace.load_vs_capture": (load_vs_capture, "ratio"),
        "trace.materialized_bytes": (p["trace.materialized_bytes"],
                                     "bytes"),
        "predictor.kernel_s": (t["predictor.kernel"], "s"),
        "predictor.ns_per_inst": (t["predictor.kernel"] / keyed * 1e9,
                                  "ns"),
        "predictor.calls": (p["predictor.calls"], "count"),
        "predictor.calls_per_key": (p["predictor.calls"] / keyed, "ratio"),
        "predictor.accuracy": (p["predictor.correct"] /
                               p["predictor.predicted"], "ratio"),
        "core.ideal.novp_s": (t["core.ideal.novp"], "s"),
        "core.ideal.vp_s": (t["core.ideal.vp"], "s"),
        "core.ideal.vp_over_novp": (t["core.ideal.vp"] /
                                    t["core.ideal.novp"], "ratio"),
        "core.ideal.minst_per_s": (p["core.ideal.insts"] / ideal_s / 1e6,
                                   "Minst/s"),
        "core.ideal.useful_ratio": (p["core.ideal.useful"] /
                                    p["core.ideal.correct_uses"], "ratio"),
        "core.ideal.cycles_digest": (fold(p["core.ideal.cycles_digest"]),
                                     "digest"),
        "core.pipeline.sequential_s": (t["core.pipeline.sequential"], "s"),
        "core.pipeline.trace_cache_s": (t["core.pipeline.trace_cache"],
                                        "s"),
        "core.pipeline.minst_per_s": (p["core.pipeline.insts"] / pipe_s /
                                      1e6, "Minst/s"),
        "core.pipeline.sim_ipc": (p["core.pipeline.insts"] /
                                  p["core.pipeline.cycles"], "ipc"),
        "core.pipeline.cycles_digest": (
            fold(p["core.pipeline.cycles_digest"]), "digest"),
        "fetch.trace_cache_s": (t["fetch.trace_cache"], "s"),
        "fetch.tc_hit_ratio": (p["fetch.tc_hits"] / p["fetch.tc_lookups"],
                               "ratio"),
        "fetch.insts_per_fetch": (p["fetch.insts"] / p["fetch.calls"],
                                  "insts"),
        "bpred.two_level_s": (t["bpred.two_level"], "s"),
        "bpred.accuracy": (p["bpred.correct"] / p["bpred.predictions"],
                           "ratio"),
        "analysis.did_s": (t["analysis.did"], "s"),
        "analysis.predictability_s": (t["analysis.predictability"], "s"),
        "analysis.minst_per_s": (p["analysis.insts"] /
                                 (t["analysis.did"] +
                                  t["analysis.predictability"]) / 1e6,
                                 "Minst/s"),
        "sim.dispatch_us_per_job": (p["sim.dispatch_us_per_job"], "us"),
        "sim.scaling_eff": (p["sim.scaling_eff"], "ratio"),
        "sim.job_cpu_s": (p["sim.job_cpu_s"], "s"),
        "fleet.worker_launches": (launches, "count"),
        "fleet.overhead_s": ((fleet[0].cpu - inproc[0].cpu) /
                             max(launches, 1), "s"),
        "fleet.store_write_ms": (t["fleet.store_write"] * 1e3, "ms"),
        "fleet.store_merge_ms": (t["fleet.store_merge"] * 1e3, "ms"),
        "fleet.retries": (retries, "count"),
        "probe.tracing_overhead_s": (p["probe.traced_s"] -
                                     p["probe.untraced_s"], "s"),
    }
    for op in figs:
        m["figure.%s_s" % op.label] = (op.wall, "s")
    detail = {"probe": p, "self_times_s": t, "digests": gate.reference}
    return m, detail


# ---------------------------------------------------------------- compare

HOST_IDENTITY = ("cpu_model", "nproc", "compiler", "build_type", "optimized")


def compare(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    a, b = results
    diffs = [k for k in HOST_IDENTITY if a["host"][k] != b["host"][k]]
    ca, cb = a["host"]["calibration_mops"], b["host"]["calibration_mops"]
    if abs(ca - cb) > 0.1 * max(ca, cb):
        diffs.append("calibration_mops (%.0f vs %.0f)" % (ca, cb))
    if diffs:
        log("refusing to compare: host records differ in " +
            ", ".join(diffs))
        return 3
    if a["workload"] != b["workload"]:
        log("refusing to compare different workloads")
        return 3
    for name, va in a["result"]["metrics"].items():
        vb = b["result"]["metrics"].get(name)
        if vb is None:
            continue
        x, y = va["value"], vb["value"]
        change = "%+.1f%%" % (100.0 * (y - x) / x) if x else "n/a"
        print("%-30s %14.6g -> %14.6g %s  %s" % (name, x, y, va["unit"],
                                                  change))
    return 0


# ------------------------------------------------------------------ main

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="divide every trace length by %d (self-test)"
                        % TINY_DIVISOR)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        host = host_record()
        gate = Gate(args.workload, args.seed, args.tiny)
        shape = Shape(args.tiny)
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, shape, gate)
        else:
            metrics, detail = measure(args.workload, args.seed,
                                      args.seconds, shape, gate)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        log("benchmark failed: %s" % exc)
        return 1

    for failure in gate.failures:
        log("FAILED " + failure)
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    saved = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "tiny": args.tiny, "host": host,
             "fail_ratio": result["failed"] / result["attempted"],
             "failures": gate.failures, "detail": detail,
             "result": result}
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(saved, f, indent=1)
    log("host: " + json.dumps(host))
    log("fail_ratio: %d/%d" % (result["failed"], result["attempted"]))
    if not args.trace:
        log("passes: %d" % len(detail["passes"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
