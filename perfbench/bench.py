"""One benchmark run: set-up probes, the timed job loop and the metrics.

``run.py`` checks the checkout, fixes the BLAS threads and puts ``src``
on the path before importing this module.
"""

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracer as tracer_module
import workloads

SETUP_REPEATS = 5
RUN_DIR = ".perfbench_run"

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(latencies):
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it; with fewer than eleven samples, the
    slowest job (percentile 100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def measure_setup(workload, seed, work_dir, env):
    """Fresh-interpreter set-ups: median rescaled seconds, and import data."""
    walls, calibrations, imports, scipy_flags = [], [], [], []
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    for repeat in range(SETUP_REPEATS):
        calibrations.append(speed.time_calibration_child(env))
        probe_dir = os.path.join(work_dir, f"setup{repeat}")
        os.makedirs(probe_dir)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), probe_dir],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - start)
        shutil.rmtree(probe_dir)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(report["import_s"])
        scipy_flags.append(report["scipy_loaded"])
    scaled = [wall * f for wall, f in zip(walls, speed.child_factors(calibrations))]
    return {
        "setup_s": statistics.median(scaled),
        "setup_wall_s": statistics.median(walls),
        "import_s": statistics.median(imports),
        "scipy_loaded": int(all(scipy_flags)),
    }


class Run:
    """The jobs of one run and their outcomes, in order."""

    def __init__(self, runner, calibrate):
        self.runner = runner
        self.calibrate = calibrate
        self.speedometer = speed.Speedometer() if calibrate and runner.in_process else None
        self.outcomes = []

    @contextlib.contextmanager
    def calibrating(self):
        """Sample the in-process speed, if this run does, while the block runs."""
        if self.speedometer is not None:
            self.speedometer.start_timer()
        try:
            yield
        finally:
            if self.speedometer is not None:
                self.speedometer.stop_timer()

    def job(self, index, job, tracer):
        """Run and check one job; an exception fails the job, not the run."""
        installed = tracer is not None and self.runner.in_process
        calibration = None
        if self.calibrate and not self.runner.in_process:
            calibration = speed.time_calibration_child(self.runner.env)
        if installed:
            tracer.job = index
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = self.runner.execute(job, index, tracer)
        except Exception as exc:
            traceback.print_exc()
            outcome = workloads.Outcome(time.perf_counter() - start, job.cells, f"{job.kind}: {exc!r}", start=start)
        finally:
            if installed:
                tracer.uninstall()
        outcome.calibration = calibration
        if outcome.trace is not None:
            merge_child_trace(tracer, outcome.trace, index)
        if outcome.error:
            print(f"perfbench: job {index} failed: {outcome.error}", file=sys.stderr)
        self.outcomes.append((index, job, outcome, tracer is not None))
        return outcome


def merge_child_trace(tracer, trace, job):
    """Append a child process's spans to the tracer under the given job id."""
    offset = len(tracer.spans)
    for name, start, end, parent, _ in trace["spans"]:
        tracer.spans.append((name, start, end, parent + offset if parent >= 0 else -1, job))
    tracer.counts.update(trace["counts"])
    tracer.errors.update(trace["errors"])


def rescaled(run):
    """Each job's wall seconds less calibration work, its speed factor, and
    the rescaled seconds, in job order."""
    outcomes = [o for _, _, o, _ in run.outcomes]
    if run.runner.in_process:
        meter = run.speedometer
        walls = [o.seconds - meter.within(o.start, o.start + o.seconds) for o in outcomes]
        factors = [meter.factor_near(o.start, o.start + o.seconds) for o in outcomes]
    else:
        walls = [o.seconds for o in outcomes]
        factors = speed.child_factors([o.calibration for o in outcomes])
    return walls, factors, [wall * f for wall, f in zip(walls, factors)]


def end_to_end_metrics(run, setup):
    """End-to-end metrics, with every time rescaled by its speed factor."""
    outcomes = [o for _, _, o, _ in run.outcomes]
    if run.runner.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.rss_kb for o in outcomes)
    walls, factors, scaled = rescaled(run)
    # The tail is read over the jobs that every run measures, the first
    # min_blocks blocks of the plan, so its percentile and its mix of jobs
    # do not depend on how many jobs a faster or slower program fits in.
    fixed = run.runner.min_blocks * run.runner.block
    tail_s, percentile, samples = tail(scaled[:fixed])
    values = {
        "setup_s": setup["setup_s"],
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": tail_s,
        "cells_per_s": sum(o.cells for o in outcomes) / sum(scaled),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    detail = {
        "job_tail_percentile": percentile,
        "job_tail_samples": samples,
        "speed_factor_median": statistics.median(factors),
        "wall_setup_s": setup["setup_wall_s"],
        "wall_job_p50_s": statistics.median(walls),
        "wall_job_tail_s": tail(walls[:fixed])[0],
    }
    return metrics, detail


def per_layer_metrics(sample_run, sample, overhead_run, setup):
    """Per-layer metrics from the traced sample jobs, plus the tracer's
    overhead from the rescaled times of the later jobs, each of which ran
    once untraced and once traced."""
    summary = tracer_module.layer_summary(sample.spans)
    counts = sample.counts
    unattributed = sum(o.seconds - summary["top_s"].get(i, 0.0) for i, _, o, _ in sample_run.outcomes)
    _, _, scaled = rescaled(overhead_run)
    pairs = {}
    for seconds, (index, _, _, traced) in zip(scaled, overhead_run.outcomes):
        pairs.setdefault(index, {})[traced] = seconds
    ratios = [pair[True] / pair[False] for pair in pairs.values()]
    taken = counts["evolution.rk4_steps"]
    values = {
        "import.cold_s": (setup["import_s"], "s"),
        "import.scipy_loaded": (setup["scipy_loaded"], "flag"),
        "scenarios.cells": (counts["scenarios.cells"], "count"),
        "scenarios.csv_s": (summary["inclusive_s"]["csv"], "s"),
        "scenarios.csv_bytes": (counts["scenarios.csv_bytes"], "bytes"),
        "pulses.calls": (summary["calls"]["pulses"], "count"),
        "evolution.calls": (summary["calls"]["evolution"], "count"),
        "evolution.rk4_s": (summary["inclusive_s"]["rk4"], "s"),
        "evolution.rk4_steps": (taken, "count"),
        "evolution.rk4_useful_ratio": (counts["evolution.rk4_needed_steps"] / taken if taken else 0.0, "ratio"),
        "evolution.oracle_s": (summary["inclusive_s"]["oracle"], "s"),
        "pauli.matrices": (counts["pauli.matrices"], "count"),
        "unattributed_s": (unattributed, "s"),
        "trace.overhead": (statistics.median(ratios) - 1.0, "ratio"),
    }
    for layer in tracer_module.LAYERS:
        values[f"{layer}.self_s"] = (float(summary["self_s"][layer]), "s")
        values[f"{layer}.errors"] = (sample.errors[layer], "count")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(values.items())}
    detail = {"trace_sample_jobs": len(sample_run.outcomes), "overhead_pairs": len(ratios)}
    return metrics, detail


def run(args, root) -> int:
    """Run one workload as ``args`` asks; print the details and the result line."""
    work_dir = os.path.join(root, RUN_DIR, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = workloads.child_env()
    setup = measure_setup(args.workload, args.seed, work_dir, env)
    runner = workloads.RUNNERS[args.workload](work_dir, workloads.load_references())
    jobs = runner.plan(args.seed)

    start = time.perf_counter()
    if args.trace:
        # The per-layer numbers are raw seconds of the first block, so no
        # calibration work may run inside it.
        sample_run = Run(runner, calibrate=False)
        sample = tracer_module.Tracer()
        for index in range(runner.block):
            sample_run.job(index, jobs[index], sample)
        # Then each later job runs untraced and traced, in alternating
        # order, rescaled as in an untraced run, for the tracer's overhead.
        # Comparing a job with itself keeps the mix of job kinds out of it.
        run = Run(runner, calibrate=True)
        overhead = tracer_module.Tracer()
        with run.calibrating():
            for pair, index in enumerate(range(runner.block, len(jobs))):
                if pair >= 1 and time.perf_counter() - start >= args.seconds:
                    break
                for traced in (False, True) if pair % 2 == 0 else (True, False):
                    run.job(index, jobs[index], overhead if traced else None)
                    overhead.spans.clear()
        runs = [sample_run, run]
    else:
        run = Run(runner, calibrate=True)
        with run.calibrating():
            for index, job in enumerate(jobs):
                boundary = index % runner.block == 0 and index >= runner.min_blocks * runner.block
                if boundary and time.perf_counter() - start >= args.seconds:
                    break
                run.job(index, job, None)
        runs = [run]
    elapsed = time.perf_counter() - start

    if args.trace:
        metrics, detail = per_layer_metrics(sample_run, sample, run, setup)
        sample.write_spans(os.path.join(work_dir, "spans.tsv"))
    else:
        metrics, detail = end_to_end_metrics(run, setup)
    outcomes = [o for r in runs for _, _, o, _ in r.outcomes]
    failed = [o for o in outcomes if o.error]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        measured_s=elapsed,
        error_rate=len(failed) / len(outcomes),
        failures=[o.error for o in failed[:5]],
    )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(outcomes),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failed else 1

