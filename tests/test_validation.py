import math

import pytest

from pulsepair import scenarios, validation
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


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 42])
def test_every_check_passes_on_the_pinned_seeds(seed):
    results = run_validation(seed=seed)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert [r.name for r in results if not r.passed] == []
