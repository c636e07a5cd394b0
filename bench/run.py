"""Benchmark of zotune's hourly decision loop, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload wide_bucket --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass and the tracing overhead.  Earlier lines
are for people (machine info, report digests, each metric with its unit); the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, so both sides of any
# comparison run the same single-threaded kernels.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
# Set-up is timed in fresh interpreters, half before the workload's units and
# half after them, so a slow spell of the machine at either end moves the
# median little.  It builds the same landscapes in every run, whatever
# ``--seed``, because the redraw loop makes some twice as slow to build.
SETUP_SEEDS = (1, 2, 3)
SETUP_REPEATS = 4
SETUP_CODE = """
import json, statistics, sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import zotune
import_s = time.perf_counter() - start
from zotune.harness import SingleRun
from workloads import WORKLOADS
first_config = WORKLOADS[sys.argv[3]].first_config
builds = []
for seed in map(int, sys.argv[4:]):
    start = time.perf_counter()
    SingleRun(seed, first_config(seed))
    builds.append(time.perf_counter() - start)
print(json.dumps([import_s, statistics.median(builds)]))
"""
P90_MIN_DECISIONS = 100
MAX_MEASURE_S = 120.0   # stop starting units here, so a run ends well within 180 s

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "round_p50_ms": "ms",
    "round_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layers with spans report calls, total_ms and self_ms; the rest are counts.
SPAN_LAYERS = (
    "harness.run_single",
    "simenv.build",
    "simenv.step",
    "scheduler.run_round",
    "scheduler.ingest",
    "scheduler.persist",
    "scheduler.restore",
    "optimizer.select",
    "optimizer.propose",
    "gp.fit",
    "gp.predict",
    "problem.batch",
    "deltastats.aggregate",
)
# Layers every workload reaches; a wrapper that records nothing there was
# patched on a name no caller looks up.
REQUIRED_LAYERS = (
    "simenv.build", "simenv.step", "scheduler.run_round", "scheduler.ingest",
    "optimizer.select", "optimizer.propose", "gp.fit", "gp.predict", "problem.batch",
    "deltastats.aggregate", "deltastats.absorb", "deltastats.hourly",
)
COUNTS = {
    "deltastats.absorb.calls": "count",
    "deltastats.hourly.calls": "count",
    "simenv.step.readings": "count",
    "gp.fit.points": "count",
    "gp.predict.queries": "count",
    "optimizer.select.reps": "count",
    "optimizer.select.infeasible_reps": "count",
    "optimizer.select.infeasible_frac": "ratio",
    "optimizer.propose.sampled": "count",
    "optimizer.propose.feasible": "count",
    "optimizer.propose.feasible_frac": "ratio",
    "scheduler.ingest.rows_offered": "count",
    "scheduler.ingest.rows_absorbed": "count",
    "scheduler.ingest.rows_duplicate": "count",
    "scheduler.ingest.rows_degenerate": "count",
    "scheduler.ingest.absorbed_frac": "ratio",
    "scheduler.persist.bytes": "B",
    "trace.rounds": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
    "quality.final_gain_pct": "%",
    "quality.final_gain_share_pct": "%",
    "quality.final_violation": "ratio",
}
PER_LAYER = {
    **{f"{layer}.{q}": unit for layer in SPAN_LAYERS
       for q, unit in (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))},
    **COUNTS,
}


def blas_info() -> dict:
    """BLAS libraries loaded by numpy and scipy, with their thread counts."""
    import numpy

    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy_blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["numpy_blas"] = "unknown"
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in sorted(glob.glob(os.path.join(site, "*.libs", "*openblas*"))):
        owner = os.path.basename(os.path.dirname(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info[f"{owner}_threads"] = fn()
                break
    return info


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


class SeedStream:
    """Distinct workload seeds drawn from the run's ``--seed``."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._used: set[int] = set()

    def take(self, n: int) -> tuple[int, ...]:
        out = []
        while len(out) < n:
            s = self._rng.randrange(2**31)
            if s not in self._used:
                self._used.add(s)
                out.append(s)
        return tuple(out)


def code_hash() -> str:
    """SHA-256 of zotune's sources and the bench's own code, so report
    digests are compared only between runs of the same code."""
    h = hashlib.sha256()
    for top in (SRC, BENCH):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def load_digests() -> dict:
    try:
        with open(os.path.join(OUT, "digests.json"), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_digests(digests: dict) -> None:
    path = os.path.join(OUT, "digests.json")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def run_units(workload, ctx, stream, seconds, failures):
    """Run the workload's minimum units, then more until ``seconds`` have
    passed and enough decisions were timed."""
    units = []
    start = time.perf_counter()
    while True:
        seeds = stream.take(workload.seeds_per_unit)
        try:
            units.append(workload.run_unit(ctx, seeds))
        except Exception as exc:  # the program raised: count it and go on
            failures.append(f"unit on seeds {seeds} raised {type(exc).__name__}: {exc}")
            units.append(None)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S:
            break
        decisions = sum(len(w) for u in units if u is not None for w in u.windows)
        if len(units) >= workload.min_units and elapsed >= seconds and decisions >= P90_MIN_DECISIONS:
            break
    return units


def grid_optimum_gain(seed: int) -> float:
    from zotune.simenv import SimEnv

    return SimEnv.build(seed).grid_scan()[1]


def quality(units) -> dict:
    """Final gain of the units' full-variant runs: raw, and as a share of the
    best feasible gain on the landscape's grid, which evens out how much each
    landscape has to give."""
    finals = [f for unit in units for f in unit.full_finals]
    optimum = {seed: grid_optimum_gain(seed) for seed in {s for s, _, _ in finals}}
    return {
        "final_gain_pct": 100.0 * statistics.fmean(g for _, g, _ in finals),
        "final_gain_share_pct": 100.0 * statistics.fmean(g / optimum[s] for s, g, _ in finals),
        "final_violation": statistics.fmean(v for _, _, v in finals),
    }


def measure_setup(workload, samples: list) -> None:
    """Add ``SETUP_REPEATS // 2`` set-up samples: in a fresh interpreter, the
    time to import ``zotune`` and the median time to build a first run
    (landscape plus bootstrap) on each of ``SETUP_SEEDS``."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC, BENCH, workload.name, *map(str, SETUP_SEEDS)]
    for _ in range(SETUP_REPEATS // 2):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout))


def emit(line_metrics: dict, units: dict, correct: bool, attempted: int, failed: int, extra: dict):
    for name, value in line_metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name} = {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in line_metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ablation", "wide_bucket"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zotune", "__init__.py")):
        print(f"bench: no zotune sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import zotune

    if os.path.dirname(os.path.abspath(zotune.__file__)) != os.path.join(SRC, "zotune"):
        print(f"bench: imported zotune from {zotune.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    os.makedirs(OUT, exist_ok=True)
    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    stream = SeedStream(args.seed)
    store_dir = os.path.join(OUT, f"store-{os.getpid()}")
    failures: list[str] = []
    try:
        if args.trace:
            result = traced_run(args, workload, stream, store_dir, failures)
        else:
            result = timed_run(args, workload, stream, store_dir, failures)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    metrics, units, attempted, extra = result

    for msg in failures[:20]:
        print(f"FAILED: {msg}")
    failed = min(len(failures), attempted)
    extra["failed_frac"] = f"{failed / attempted:.6g} ratio (base {attempted} rounds)"
    correct = not failures
    with open(os.path.join(OUT, f"result_{args.workload}_{args.seed}_{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "metrics": metrics, "extra": extra,
                   "failures": failures, "correct": correct}, fh, indent=1, sort_keys=True)
    emit(metrics, units, correct, attempted, failed, extra)
    return 0


def check_digests(args, units, failures) -> None:
    """Digests of the same seeds must match every earlier run of the same code
    in this checkout."""
    digests = load_digests()
    code = code_hash()[:16]
    for i, unit in enumerate(units):
        if unit is None:
            continue
        key = f"{code}/{args.workload}/{args.seed}/{i}"
        print(f"digest {key} {unit.digest}")
        known = digests.setdefault(key, unit.digest)
        if known != unit.digest:
            failures.append(f"digest {key} is {unit.digest}, an earlier run gave {known}")
    save_digests(digests)


def window_percentile(windows, q: float) -> float:
    """The mean over latency windows of each window's ``q``th percentile, in ms.

    A window is one full-variant campaign: on ``ablation`` 2 seeds and about
    58 decisions of some 20 ms, on ``wide_bucket`` 29 decisions of some
    400 ms.  On a shared machine whose cores switch between a fast state and
    one a quarter to half again as slow, often for a second or so and at
    times for minutes, a short decision runs wholly in one state, so the
    decisions of a run form two modes.  A percentile of them all pooled, or
    a median over windows, jumps from one mode to the other as the slow
    share of the run crosses a threshold.  The mean over windows spread
    across the whole run moves in proportion to the slow share instead.
    """
    import numpy

    return 1000.0 * statistics.fmean(float(numpy.percentile(w, q)) for w in windows)


def timed_run(args, workload, stream, store_dir, failures):
    import spans
    import workloads as wl

    setup: list[list[float]] = []
    measure_setup(workload, setup)
    tracer = spans.Tracer(recording=False)
    probe = wl.Probe()
    spans.install(tracer, probe)
    try:
        ctx = wl.Context(probe, store_dir, tracer.suspend)
        units = run_units(workload, ctx, stream, args.seconds, failures)
    finally:
        tracer.restore()
    measure_setup(workload, setup)
    print("setup: " + ", ".join(f"import {i:.4f} s + build {b:.4f} s" for i, b in setup))
    done = [u for u in units if u is not None]
    failures += probe.failures + [f for u in done for f in u.failures]
    check_digests(args, units, failures)
    attempted = sum(u.rounds for u in done) + units.count(None)
    windows = [w for u in done for w in u.windows if w]
    decisions = sum(len(w) for w in windows)
    with open(os.path.join(OUT, f"units_{args.workload}_{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"rounds": [u.rounds for u in done], "seconds": [u.seconds for u in done],
                   "windows_s": [u.windows for u in done]}, fh)
    if decisions < P90_MIN_DECISIONS:
        failures.append(f"only {decisions} decisions timed; p90 needs {P90_MIN_DECISIONS}")
    if not windows:
        failures.append("no unit completed")
        return {}, END_TO_END, max(attempted, 1), {}
    first = units[: workload.min_units]
    q = quality(first) if None not in first else {}
    metrics = {
        "setup_s": statistics.median(i + b for i, b in setup),
        "rounds_per_s": sum(u.rounds for u in done) / sum(u.seconds for u in done),
        "round_p50_ms": window_percentile(windows, 50),
        "round_p90_ms": window_percentile(windows, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "units": len(units),
        "decisions_timed": f"{decisions} in {len(windows)} windows of {len(done)} units",
        "final_gain_pct": f"{q.get('final_gain_pct', 0.0):.6g} % (full variant, first {len(first)} units)",
        "final_gain_share_pct": f"{q.get('final_gain_share_pct', 0.0):.6g} % of the grid optimum",
        "final_violation": f"{q.get('final_violation', 0.0):.6g} (full variant, first {len(first)} units)",
    }
    restores = [s for u in done for s in u.restore_s]
    if restores:
        extra["restore_s"] = f"{statistics.median(restores):.6g} s (median of {len(restores)})"
    return metrics, END_TO_END, attempted, extra


def run_pass(workload, seeds, store_dir, trace: bool):
    """One unit on ``seeds``, with spans recorded or not."""
    import spans
    import workloads as wl

    gc.collect()
    tracer = spans.Tracer(recording=trace)
    counts = tracer.counts
    probe = wl.Probe(
        dropped=lambda: counts["deltastats.absorb.duplicates"] + counts["deltastats.hourly.degenerate"]
    ) if trace else wl.Probe()
    spans.install(tracer, probe)
    try:
        unit = workload.run_unit(wl.Context(probe, store_dir, tracer.suspend), seeds)
    finally:
        tracer.restore()
    unit.failures += probe.failures
    return tracer, probe, unit


def traced_run(args, workload, stream, store_dir, failures):
    """One unit four times: untraced, traced, traced, untraced.

    The first traced pass gives the per-layer metrics; its spans are written
    out and dropped before the next pass.  ``trace.overhead_pct`` compares
    the two traced passes with the two untraced ones around them, so the
    order of the passes and a drift in machine speed cancel out.  A first
    run is built beforehand, so no pass pays for code loaded on first use.
    """
    from zotune.harness import SingleRun

    seeds = stream.take(workload.seeds_per_unit)
    try:
        SingleRun(seeds[0], workload.first_config(seeds[0]))
        _, _, before = run_pass(workload, seeds, store_dir, False)
        tracer, probe, traced = run_pass(workload, seeds, store_dir, True)
        metrics = layer_metrics(tracer, probe, traced, failures)
        tracer.write(os.path.join(OUT, f"spans_{args.workload}.jsonl"))
        tracer.spans.clear()
        _, _, traced_again = run_pass(workload, seeds, store_dir, True)
        _, _, after = run_pass(workload, seeds, store_dir, False)
    except Exception as exc:  # the program raised: report it as a failed run
        failures.append(f"traced unit on seeds {seeds} raised {type(exc).__name__}: {exc}")
        return dict.fromkeys(PER_LAYER, 0), PER_LAYER, 1, {}
    passes = (before, traced, traced_again, after)
    failures += [f for unit in passes for f in unit.failures]
    if len({unit.digest for unit in passes}) != 1:
        failures.append("traced and untraced passes gave different digests: "
                        + " ".join(unit.digest for unit in passes))
    check_digests(args, [traced], failures)

    traced_s = traced.seconds + traced_again.seconds
    untraced_s = before.seconds + after.seconds
    q = quality([traced])
    metrics.update({
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        "quality.final_gain_pct": q["final_gain_pct"],
        "quality.final_gain_share_pct": q["final_gain_share_pct"],
        "quality.final_violation": q["final_violation"],
    })
    extra = {
        "pass_seconds": " ".join(f"{unit.seconds:.3f}" for unit in passes)
        + " s (untraced, traced, traced, untraced)",
        "optimizer.select.infeasible_frac base": f"{metrics['optimizer.select.reps']} reps",
        "optimizer.propose.feasible_frac base": f"{metrics['optimizer.propose.sampled']} samples",
        "scheduler.ingest.absorbed_frac base":
            f"{metrics['scheduler.ingest.rows_offered']} rows offered",
    }
    return metrics, PER_LAYER, sum(unit.rounds for unit in passes), extra


def layer_metrics(tracer, probe, traced, failures) -> dict:
    """Per-layer metrics of one traced pass."""
    times = tracer.layer_times()
    counts = tracer.counts
    for layer in REQUIRED_LAYERS:
        if layer not in times:
            failures.append(f"no span recorded for {layer}")
    metrics = {}
    for layer in SPAN_LAYERS:
        row = times.get(layer, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for quantity, value in row.items():
            metrics[f"{layer}.{quantity}"] = value
    reps, sampled = counts["optimizer.select.reps"], counts["optimizer.propose.sampled"]
    metrics.update({
        "deltastats.absorb.calls": times.get("deltastats.absorb", {}).get("calls", 0),
        "deltastats.hourly.calls": times.get("deltastats.hourly", {}).get("calls", 0),
        "simenv.step.readings": counts["simenv.step.readings"],
        "gp.fit.points": counts["gp.fit.points"],
        "gp.predict.queries": counts["gp.predict.queries"],
        "optimizer.select.reps": reps,
        "optimizer.select.infeasible_reps": counts["optimizer.select.infeasible_reps"],
        "optimizer.select.infeasible_frac": counts["optimizer.select.infeasible_reps"] / reps if reps else 0.0,
        "optimizer.propose.sampled": sampled,
        "optimizer.propose.feasible": counts["optimizer.propose.feasible"],
        "optimizer.propose.feasible_frac": counts["optimizer.propose.feasible"] / sampled if sampled else 0.0,
        "scheduler.ingest.rows_offered": probe.rows_offered,
        "scheduler.ingest.rows_absorbed": probe.rows_absorbed,
        "scheduler.ingest.rows_duplicate": counts["deltastats.absorb.duplicates"],
        "scheduler.ingest.rows_degenerate": counts["deltastats.hourly.degenerate"],
        "scheduler.ingest.absorbed_frac": probe.rows_absorbed / probe.rows_offered if probe.rows_offered else 0.0,
        "scheduler.persist.bytes": counts["scheduler.persist.bytes"],
        "trace.rounds": traced.rounds,
        "trace.spans": len(tracer.spans),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main())
