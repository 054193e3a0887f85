"""Measure a commit's baseline: every metric's median and quartiles over seeds.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 11-20 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time and for
``run_seconds`` of ``BENCHMARK.json`` each, untraced for the end-to-end
metrics, then traced with seeds 1 and 2 for the per-layer ones.  For
each metric it records the per-run values, their median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median, plus each run's detail line (the tail
percentile and its sample count, raw wall times).  It also records the
machine and the settings used, and prints the spreads.  A failed run
stops it with an error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

from run import BLAS_THREADS, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
BENCHMARK = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
TRACED_SEEDS = [1, 2]


def seed_range(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def machine():
    model = "unknown"
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
    }


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {done.returncode}: {done.stderr[-800:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(runs):
    """Per metric: unit, values, median, quartiles and their spread."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, for example 11-20")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {"machine": machine(), "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        untraced = []
        for seed in args.seeds:
            result, detail = run_once(workload, seed, seconds, 0)
            untraced.append({"seed": seed, "metrics": result["metrics"], "detail": detail})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        traced = []
        for seed in TRACED_SEEDS:
            result, detail = run_once(workload, seed, seconds, 1)
            traced.append({"seed": seed, "metrics": result["metrics"], "detail": detail})
        report["workloads"][workload] = {
            "end_to_end": summarize(untraced),
            "per_layer": summarize(traced),
            "traced_seeds": TRACED_SEEDS,
            "details": {"untraced": [r["detail"] for r in untraced], "traced": [r["detail"] for r in traced]},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}", flush=True)
        overhead = report["workloads"][workload]["per_layer"]["trace.overhead"]["median"]
        print(f"{workload} trace.overhead: {overhead:.4f}", flush=True)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
