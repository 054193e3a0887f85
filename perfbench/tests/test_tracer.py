"""Tests of the benchmark's tracer, its counts and its output checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The end-to-end cases run ``perfbench/run.py`` in a temporary copy of the
checkout (``src`` plus ``perfbench``), exactly as the benchmark is run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import pulsepair  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pulsepair import pulses, scenarios  # noqa: E402

COUNT_METRICS = (
    "pauli.matrices",
    "scenarios.cells",
    "evolution.rk4_steps",
    "scenarios.csv_bytes",
    "import.scipy_loaded",
)


def _span(name, start, end, parent, job=0):
    return (name, start, end, parent, job)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("scenarios.run_sweep", 0.0, 10.0, -1),
        _span("pulses.coefficient_map", 1.0, 4.0, 0),
        _span("evolution.evolve_correlations", 5.0, 9.0, 0),
        _span("pauli.hermitian_eigenvalues_batch", 6.0, 7.5, 2),
        _span("scenarios.run_sweep", 20.0, 21.0, -1, job=1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 2.5, 1.5, 1.0])
    summary = tracer.layer_summary(spans)
    assert summary["self_s"] == pytest.approx({"scenarios": 4.0, "pulses": 3.0, "evolution": 2.5, "pauli": 1.5})
    assert summary["calls"]["scenarios"] == 2
    assert summary["top_s"] == pytest.approx({0: 10.0, 1: 1.0})


def test_inclusive_time_counts_nested_csv_spans_once():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("scenarios.SweepResult.write_csv", 2.0, 6.0, 0),
        _span("scenarios.SweepResult.csv_text", 2.5, 5.0, 1),
        _span("scenarios.SweepResult.csv_text", 7.0, 8.0, 0),
    ]
    assert tracer.layer_summary(spans)["inclusive_s"]["csv"] == pytest.approx(5.0)


def test_tail_is_read_over_the_first_min_blocks_blocks_only():
    class Runner:
        in_process = False
        block = 7
        min_blocks = 2

    run = bench.Run(Runner(), calibrate=True)
    # a faster program fits more jobs in a run; the extra jobs must not
    # move the tail's percentile or its mix of jobs
    seconds = [1.0 + i / 100 for i in range(14)] + [0.5] * 30
    for i, s in enumerate(seconds):
        outcome = workloads.Outcome(s, 1, rss_kb=1024)
        outcome.calibration = 0.2
        run.outcomes.append((i, None, outcome, False))
    setup = {"setup_s": 0.5, "setup_wall_s": 0.5}
    metrics, detail = bench.end_to_end_metrics(run, setup)
    assert detail["job_tail_samples"] == 14
    assert detail["job_tail_percentile"] == pytest.approx(100.0 * 4 / 14)
    assert metrics["job_tail_s"]["value"] == pytest.approx(1.03 * bench.speed.REFERENCE_CHILD_S / 0.2)


def _small_sweep():
    cfg = pulsepair.paper_figure_presets()["fig2b"]
    return scenarios.SweepConfig(
        family=cfg.family,
        initial_states=cfg.initial_states[:2],
        drive=cfg.drive,
        grid=scenarios.GridSpec(0.0, 2.0, 5),
        detuning_prime=cfg.detuning_prime,
        rabi_ratio=cfg.rabi_ratio,
    )


def test_rebinding_reaches_from_import_call_sites():
    original = pulses.coefficient_map
    assert scenarios.coefficient_map is original  # bound by `from .pulses import`
    t = tracer.Tracer()
    t.install()
    try:
        assert scenarios.coefficient_map is not original
        scenarios.run_sweep(_small_sweep()).csv_text()
    finally:
        t.uninstall()
    assert scenarios.coefficient_map is original
    assert pulses.coefficient_map is original
    names = [s[tracer.NAME] for s in t.spans]
    root = names.index("scenarios.run_sweep")
    maps = [s for s in t.spans if s[tracer.NAME] == "pulses.coefficient_map"]
    # 4 driven grid points x 2 qubits; the undriven x = 0 point maps nothing
    assert len(maps) == 8
    assert all(s[tracer.PARENT] == root for s in maps)
    assert "pauli.hermitian_eigenvalues_batch" in names  # bound in entanglement
    assert t.counts["scenarios.cells"] == 10
    assert t.counts["pauli.matrices"] == 10
    assert t.counts["scenarios.csv_bytes"] > 0
    recorded = len(t.spans)
    scenarios.run_sweep(_small_sweep())
    assert len(t.spans) == recorded  # nothing is recorded once uninstalled


def test_rk4_steps_follow_the_common_step_count():
    assert tracer._rk4_steps([0.5, 2.0, 0.0], 0.1) == (3 * 20, 5 + 20)
    assert tracer._rk4_steps([0.0], 0.1) == (0, 0)


@pytest.fixture
def checkout(tmp_path):
    """A copy of the files the benchmark runs from: src and perfbench."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests")
    )
    return tmp_path


def _bench(cwd, workload, seed, trace, seconds=0):
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["figures", "cli", "validate"])
def test_counts_repeat_exactly_for_a_fixed_seed(checkout, workload):
    runs = [_bench(checkout, workload, seed=7, trace=1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"] and result["failed"] == 0
    first, second = ({k: result["metrics"][k]["value"] for k in COUNT_METRICS} for _, result in runs)
    assert first == second
    assert first["scenarios.cells"] > 0 and first["pauli.matrices"] > 0
    if workload == "validate":
        assert first["evolution.rk4_steps"] > 0
    else:
        assert first["scenarios.csv_bytes"] > 0


def test_corrupted_reference_digest_fails_the_run(checkout):
    seed = 3
    first_key = workloads.plan_figures(seed)[0].key
    path = checkout / "perfbench" / "reference_digests.json"
    references = json.loads(path.read_text())
    references[first_key] = "0" * 64
    path.write_text(json.dumps(references))
    code, result = _bench(checkout, "figures", seed, trace=0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _bench(tmp_path, "figures", 1, trace=0)
    assert code != 0
    assert result is None
