import math

import numpy as np
import pytest

from pulsepair import entanglement, evolution, scenarios, validation
from pulsepair.pulses import PulseShape
from pulsepair.validation import VALIDATION_NOTES, CheckResult, run_validation

EXPECTED_NAMES = [
    "pauli_algebra",
    "eigensolver_lapack_agreement",
    "eigenvalue_trace_identity",
    "rotation_d_row_anchor",
    "rotation_orthogonality",
    "oracle_triangle_rotations",
    "oracle_triangle_propagators",
    "fano_conjugation_consistency",
    "negativity_brute_force",
    "pinned_singlet_negativity",
    "pinned_werner_threshold",
    "pinned_partial_negativities",
    "werner_line_monotone",
    "preset_unitary_constancy",
    "preset_initial_value",
    "literal_residue_detuned_floor",
    "literal_residue_resonant_zero",
    "negativity_closed_form_triangle",
]


@pytest.fixture(scope="module")
def results():
    return run_validation(seed=0)


@pytest.mark.slow
class TestFullRun:
    def test_every_check_passes(self, results):
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_stable_name_order(self, results):
        assert [r.name for r in results] == EXPECTED_NAMES

    def test_errors_are_finite_and_tolerances_positive(self, results):
        for r in results:
            assert math.isfinite(r.max_error), r.name
            assert r.max_error >= 0.0, r.name
            assert r.tolerance > 0.0, r.name

    def test_passed_flag_matches_comparison(self, results):
        for r in results:
            assert r.passed == (r.max_error <= r.tolerance), r.name


def test_tolerance_hook_forces_failure(monkeypatch):
    # the scale multiplies every tolerance, so zeroing it fails any check
    # whose measured error is nonzero
    monkeypatch.setattr(validation, "_TOLERANCE_SCALE", 0.0)
    squeezed = validation._check_fano_consistency(__import__("numpy").random.default_rng(0))
    assert squeezed.tolerance == 0.0
    assert not squeezed.passed


def test_result_helper_applies_the_scale(monkeypatch):
    monkeypatch.setattr(validation, "_TOLERANCE_SCALE", 0.5)
    r = validation._result("demo", 0.7, 1.0)  # would pass unscaled
    assert r.tolerance == 0.5
    assert not r.passed


def test_check_result_is_frozen():
    r = CheckResult("demo", 0.0, 1.0, True)
    with pytest.raises(AttributeError):
        r.passed = False


def test_notes_document_the_literal_mode_caveats():
    assert len(VALIDATION_NOTES) == 2
    joined = " ".join(VALIDATION_NOTES)
    assert "constant" in joined
    assert "qualitative" in joined
    assert "residue" in joined


def test_preset_checks_evolve_the_unitary_maps(monkeypatch):
    # a UNITARY sweep reads its maps only for their errors, so a map that is
    # no rotation can only show through the long route the preset checks take
    grid_maps = scenarios._grid_maps

    def scaled(cfg, x):
        m1, m2 = grid_maps(cfg, x)
        return 1.01 * m1, m2

    cfg = scenarios.paper_figure_presets()["fig2b"]
    before = scenarios.run_sweep(cfg).negativities
    monkeypatch.setattr(scenarios, "_grid_maps", scaled)
    assert (scenarios.run_sweep(cfg).negativities == before).all()
    checks = {r.name: r for r in validation._check_presets()}
    assert not checks["preset_unitary_constancy"].passed
    assert checks["preset_unitary_constancy"].max_error > 1e-3


def test_preset_checks_skip_the_guard_and_the_literal_closed_form(monkeypatch):
    # only the UNITARY tensors and the initial states take the closed form; a
    # LITERAL sweep's residues need the evolution alone, and no cell is guarded
    jacobi_cells, spectrum_cells = [], []

    def counting(record, fn):
        def counted(tensors):
            record.append(int(np.prod(np.shape(tensors)[:-2])))
            return fn(tensors)

        return counted

    for module in (entanglement, scenarios):
        monkeypatch.setattr(module, "_jacobi_negativities", counting(jacobi_cells, module._jacobi_negativities))
    monkeypatch.setattr(
        entanglement, "zero_bloch_spectrum_batch", counting(spectrum_cells, entanglement.zero_bloch_spectrum_batch)
    )
    assert all(r.passed for r in validation._check_presets())
    presets = scenarios.paper_figure_presets().values()
    unitary_cells = sum(cfg.grid.points * len(cfg.initial_states) for cfg in presets)
    initial_cells = sum(len(cfg.initial_states) for cfg in presets)
    assert jacobi_cells == []
    assert sum(spectrum_cells) == unitary_cells + initial_cells


def test_seeded_samplers():
    specs, t = validation._random_pulses(np.random.default_rng(3), 2000)
    assert len(specs) == 2000 and t.shape == (2000,)
    assert ((0.05 <= t) & (t <= 50.0)).all()
    rect = [(p, x) for p, x in zip(specs, t) if p.shape is PulseShape.RECTANGULAR]
    exp = [p for p in specs if p.shape is PulseShape.EXPONENTIAL]
    assert rect and exp and len(rect) + len(exp) == len(specs)
    assert all(p.duration == x and 0.05 <= p.omega0 <= 4.0 and -4.0 <= p.delta <= 4.0 for p, x in rect)
    assert 0 < sum(p.delta != 0.0 for p, _ in rect) < len(rect)  # detuned with probability 0.7
    assert all(0.0 <= p.omega0 <= 10.0 and 0.2 <= p.gamma_p <= 2.0 for p in exp)

    c = validation._random_physical_correlations(np.random.default_rng(3), 1000)
    assert c.shape == (1000, 3) and np.abs(c).max() <= 1.0
    assert np.min(evolution._bell_diagonal_rho_eigenvalues(c.T), axis=0).min() >= 0.0

    again = validation._random_pulses(np.random.default_rng(3), 2000)
    assert again[0] == specs and np.array_equal(again[1], t)
    assert np.array_equal(validation._random_physical_correlations(np.random.default_rng(3), 1000), c)
    rng = np.random.default_rng(3)
    empty_specs, empty_t = validation._random_pulses(rng, 0)
    assert empty_specs == [] and empty_t.shape == (0,)
    assert validation._random_physical_correlations(rng, 0).shape == (0, 3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 42, 2**31 - 1])
def test_every_check_passes_on_the_pinned_seeds(seed):
    results = run_validation(seed=seed)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert [r.name for r in results if not r.passed] == []
