"""Acceptance gate.

Every test here evaluates one acceptance criterion end to end at its
stated tolerance, prints a single `ACCEPTANCE <name>: PASS/FAIL` line
directly to the terminal (bypassing capture so the line shows up in any
pytest invocation), and enforces the criterion's runtime budget.

One criterion is recorded as a strict expected failure: literal mode
cannot report a nonzero imaginary residue for every departing curve,
because resonant literal coefficient rows are exactly real. The FAIL
line is still printed so the gate's output stays complete.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from pulsepair import cli
from pulsepair.entanglement import _clamp, zero_bloch_negativity_batch
from pulsepair.evolution import (
    InitialState,
    adjoint_rotation,
    rk4_oracle_batch,
    unitary_oracle_batch,
)
from pulsepair.pulses import CoefficientMode, PulseSpec, coefficient_map_batch
from pulsepair.scenarios import paper_figure_presets, run_sweep
from pulsepair.validation import VALIDATION_NOTES, _random_physical_correlations, _random_pulses

README = Path(__file__).resolve().parents[1] / "README.md"


def closed_form_negativities(cs) -> np.ndarray:
    """The package's clamped negativities of the Bell-diagonal states cs."""
    return _clamp(zero_bloch_negativity_batch(np.array([np.diag(c) for c in cs])))


def report(capsys, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {status} ({detail})")


def test_pinned_reference_values(capsys):
    start = time.perf_counter()
    singlet = oracles.brute_negativity(InitialState.bell_singlet().correlations)
    singlet_err = abs(singlet - 1.0)

    result = run_sweep(paper_figure_presets()["fig1a"])
    # whole numbers of Rabi cycles sit on every 40th node of the area grid
    node = np.abs(result.params - np.round(result.params)) < 1e-9
    revival_err = float(
        np.abs(result.negativities[node] - result.negativities[0]).max()
    )
    elapsed = time.perf_counter() - start

    ok = singlet_err <= 1e-12 and revival_err <= 1e-10 and elapsed < 1.0
    report(
        capsys,
        "pinned_reference_values",
        ok,
        f"singlet_err={singlet_err:.2e} revival_err={revival_err:.2e} "
        f"elapsed={elapsed:.2f}s",
    )
    assert int(node.sum()) == 21
    assert singlet_err <= 1e-12
    assert revival_err <= 1e-10
    assert elapsed < 1.0


def test_rotation_row_closed_forms(capsys):
    # the sigma_z row of the unitary-mode map, written out longhand, for
    # both pulse shapes, against 1000 random parameter triples
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    specs, times, expected = [], [], []
    for _ in range(1000):
        omega = rng.uniform(0.05, 6.0)
        delta = rng.uniform(-6.0, 6.0) if rng.random() < 0.75 else 0.0
        gamma = rng.uniform(0.2, 2.5)
        t = rng.uniform(0.0, 50.0)

        rect = PulseSpec.rectangular(omega, duration=50.0, delta=delta)
        om1 = math.hypot(omega, delta)
        phase = om1 * t
        d_rect = np.array(
            [
                delta * omega / om1**2 * (1.0 - math.cos(phase)),
                omega / om1 * math.sin(phase),
                (omega**2 * math.cos(phase) + delta**2) / om1**2,
            ]
        )
        pulse = PulseSpec.exponential(omega, gamma)
        lam = (omega / gamma) * (1.0 - math.exp(-gamma * t))
        d_exp = np.array([0.0, math.sin(lam), math.cos(lam)])
        specs += [rect, pulse]
        times += [t, t]
        expected += [d_rect, d_exp]
    got = coefficient_map_batch(oracles.stack(specs), times, CoefficientMode.UNITARY).real[:, 2]
    worst = float(np.abs(got - np.array(expected)).max())
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-12 and elapsed < 1.0
    report(
        capsys,
        "coefficient_anchor_equivalence",
        ok,
        f"max_err={worst:.2e} elapsed={elapsed:.2f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_three_way_propagator_agreement(capsys):
    rng = np.random.default_rng(314159)
    start = time.perf_counter()
    # the pulse draws of validate's oracle triangle, 200 of them
    specs, t_ends = _random_pulses(rng, 200)

    r_rk4 = adjoint_rotation(rk4_oracle_batch(specs, t_ends, step=1e-3))
    analytic = coefficient_map_batch(specs, t_ends, CoefficientMode.UNITARY).real
    r_exact = adjoint_rotation(unitary_oracle_batch(specs, t_ends))
    pairs = ((analytic, r_exact), (analytic, r_rk4), (r_exact, r_rk4))
    worst = max(float(np.abs(a - b).max()) for a, b in pairs)
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-6 and elapsed < 30.0
    report(
        capsys,
        "oracle_triangle",
        ok,
        f"max_pairwise_err={worst:.2e} configs=200 elapsed={elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_negativity_against_independent_diagonalization(capsys):
    rng = np.random.default_rng(4242)
    start = time.perf_counter()
    cs = _random_physical_correlations(rng, 1000)
    ours = closed_form_negativities(cs)
    brute = np.array([oracles.brute_negativity(c) for c in cs])
    random_err = float(np.abs(ours - brute).max())

    threshold, werner, edge = closed_form_negativities(
        [InitialState.werner(x).correlations for x in (-1.0 / 3.0, -0.9)]
        # (-0.9, -0.8, -0.6) fails the density-matrix positivity gate, but its
        # partial-transpose arithmetic is still defined; the ungated
        # correlation-tensor route reaches the pinned value
        + [(-0.9, -0.8, -0.6)]
    )
    werner_err = abs(werner - 0.85)
    edge_err = abs(edge - 0.65)
    elapsed = time.perf_counter() - start

    ok = (
        random_err <= 1e-10
        and threshold <= 1e-12
        and werner_err <= 1e-10
        and edge_err <= 1e-10
        and elapsed < 5.0
    )
    report(
        capsys,
        "entanglement_measure_oracle",
        ok,
        f"random_err={random_err:.2e} threshold={threshold:.2e} "
        f"werner_err={werner_err:.2e} edge_err={edge_err:.2e} "
        f"elapsed={elapsed:.1f}s",
    )
    assert random_err <= 1e-10
    assert threshold <= 1e-12
    assert werner_err <= 1e-10
    assert edge_err <= 1e-10
    assert elapsed < 5.0


@pytest.mark.slow
def test_unitary_constancy_is_documented(capsys):
    start = time.perf_counter()
    worst = 0.0
    for cfg in paper_figure_presets().values():
        result = run_sweep(cfg)
        worst = max(
            worst,
            float(np.abs(result.negativities - result.negativities[0]).max()),
        )

    # collapse the hard wrapping so phrase checks cannot split on it
    readme = " ".join(README.read_text(encoding="utf-8").split())
    documented = (
        "only qualitatively" in readme
        and "constant" in readme
        and "literal" in readme
    )
    notes = " ".join(VALIDATION_NOTES)
    recorded = "qualitatively" in notes and "constant" in notes
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-9 and documented and recorded and elapsed < 10.0
    report(
        capsys,
        "invariance_and_documentation",
        ok,
        f"constancy_err={worst:.2e} readme_documented={documented} "
        f"validation_recorded={recorded} elapsed={elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert documented
    assert recorded
    assert elapsed < 10.0


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="resonant literal coefficient rows are exactly real, so the "
    "imaginary residue is identically zero while those curves still "
    "depart from their initial values; only detuned rectangular drives "
    "carry a residue signal",
)
def test_literal_residue_flags_every_departure(capsys):
    start = time.perf_counter()
    violations = []
    for name, cfg in paper_figure_presets().items():
        literal = run_sweep(replace(cfg, mode=CoefficientMode.LITERAL))
        initial = np.array(
            [oracles.brute_negativity(s.correlations) for s in cfg.initial_states]
        )
        departed = np.abs(literal.negativities - initial).max(axis=1) > 1e-6
        silent = departed & (literal.residues == 0.0)
        if silent.any():
            violations.append((name, int(silent.sum())))
    elapsed = time.perf_counter() - start

    detail = (
        f"departing grid points with zero residue: "
        f"{', '.join(f'{n}:{k}' for n, k in violations) or 'none'} "
        f"elapsed={elapsed:.1f}s"
    )
    report(capsys, "literal_residue_on_departure", not violations, detail)
    assert elapsed < 10.0
    assert violations == []


@pytest.mark.slow
def test_deterministic_csv_and_clean_validate(capsys, tmp_path):
    start = time.perf_counter()
    mismatched = []
    for name in paper_figure_presets():
        first = tmp_path / f"{name}_first.csv"
        second = tmp_path / f"{name}_second.csv"
        assert cli.main(["preset", name, "--out", str(first)]) == 0
        assert cli.main(["preset", name, "--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            mismatched.append(name)

    validate_exit = cli.main(["validate"])
    capsys.readouterr()  # swallow the check listing; only the code matters here
    elapsed = time.perf_counter() - start

    ok = not mismatched and validate_exit == 0 and elapsed < 60.0
    report(
        capsys,
        "determinism_and_format",
        ok,
        f"presets=12 mismatched={mismatched or 'none'} "
        f"validate_exit={validate_exit} elapsed={elapsed:.1f}s",
    )
    assert mismatched == []
    assert validate_exit == 0
    assert elapsed < 60.0
