"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/sweep.py --workloads ablation wide_bucket \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/BENCH_baseline.json

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  Runs go one after another, never in parallel, so they do not
disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["machine"] = next(
        (json.loads(line[len("machine: "):]) for line in lines if line.startswith("machine: ")), {}
    )
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write medians, quartiles and machine info here")
    args = parser.parse_args()

    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    summary: dict = {"seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"] or set(result["metrics"]) != set(bounds):
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"metrics={sorted(result['metrics'])}")
            results.append(result)
            summary["machine"] = result["machine"]
            print(f"{workload} seed {seed} wall {result['wall_s']:.1f} s " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        rows = {}
        walls = [r["wall_s"] for r in results]
        print(f"\n{workload}: {len(results)} runs, wall s median {statistics.median(walls):.1f} "
              f"max {max(walls):.1f}")
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            rows[name] = stats
            bound = bounds[name]
            flag = ""
            if bound is not None:
                flag = "ok" if stats["spread"] <= bound / 3 else (
                    "WITHIN BOUND" if stats["spread"] <= bound else "OVER BOUND")
                ok &= stats["spread"] <= bound
            print(f"  {name:<34} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} bound {bound} {flag}", flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
