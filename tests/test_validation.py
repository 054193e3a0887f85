import dataclasses
import math

import numpy as np
import pytest

from pulsepair import entanglement, evolution, pulses, scenarios, validation
from pulsepair.validation import VALIDATION_NOTES, CheckResult, run_validation

EXPECTED_NAMES = [
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


def test_fano_check_measures_a_real_error():
    # the check compares two routes that round differently, so a zero tolerance would fail it
    assert validation._check_fano_consistency(np.random.default_rng(0))[0].max_error > 0.0


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
    checks = {r.name: r for r in validation._check_presets(np.random.default_rng(0))}
    assert not checks["preset_unitary_constancy"].passed
    assert checks["preset_unitary_constancy"].max_error > 1e-3


def test_preset_checks_skip_the_guard_and_the_literal_closed_form(monkeypatch):
    # only the UNITARY tensors and the initial states take the closed form; a
    # LITERAL sweep's residues need the evolution alone, and no cell is guarded
    jacobi_cells, spectrum_cells = [], []

    def counting(record, fn):
        def counted(tensors, *solver):
            record.append(int(np.prod(np.shape(tensors)[:-2])))
            return fn(tensors, *solver)

        return counted

    for module in (entanglement, scenarios):
        monkeypatch.setattr(module, "_density_negativities", counting(jacobi_cells, module._density_negativities))
    monkeypatch.setattr(
        entanglement, "zero_bloch_spectrum_batch", counting(spectrum_cells, entanglement.zero_bloch_spectrum_batch)
    )
    assert all(r.passed for r in validation._check_presets(np.random.default_rng(0)))
    presets = scenarios.paper_figure_presets().values()
    unitary_cells = sum(cfg.grid.points * len(cfg.initial_states) for cfg in presets)
    initial_cells = sum(len(cfg.initial_states) for cfg in presets)
    assert jacobi_cells == []
    assert sum(spectrum_cells) == unitary_cells + initial_cells


def _swap_the_maps(evolve):
    return lambda diagonals, m1, m2: evolve(diagonals, m2, m1)


def _drop_the_c_yy_term(evolve):
    return lambda diagonals, m1, m2: evolve(np.asarray(diagonals) * [1.0, 0.0, 1.0], m1, m2)


@pytest.mark.parametrize("mutant", [_swap_the_maps, _drop_the_c_yy_term])
def test_fano_check_fails_on_a_wrong_evolution(monkeypatch, mutant):
    # the two densities are compared entry by entry, so a wrong tensor shows however it is wrong
    (healthy,) = validation._check_fano_consistency(np.random.default_rng([0, 3]))
    assert healthy.name == "fano_conjugation_consistency" and healthy.passed
    monkeypatch.setattr(evolution, "evolve_correlations_batch", mutant(evolution.evolve_correlations_batch))
    (mutated,) = validation._check_fano_consistency(np.random.default_rng([0, 3]))
    assert not mutated.passed and mutated.max_error > 1e-3


def test_seeded_samplers():
    batch, t = validation._random_pulses(np.random.default_rng(3), 2000)
    assert isinstance(batch, pulses.PulseSpec) and t.shape == (2000,)
    assert all(a.shape == (2000,) for a in batch)
    assert ((0.05 <= t) & (t <= 50.0)).all()
    rect = np.isfinite(batch.window)
    assert 0 < rect.sum() < len(t)
    assert np.array_equal(batch.window[rect], t[rect])  # a rectangle ends at its window
    assert ((0.05 <= batch.omega0[rect]) & (batch.omega0[rect] <= 4.0)).all()
    assert (np.abs(batch.delta[rect]) <= 4.0).all() and (batch.gamma[rect] == 0.0).all()
    assert 0 < np.count_nonzero(batch.delta[rect]) < rect.sum()  # detuned with probability 0.7
    assert ((0.0 <= batch.omega0[~rect]) & (batch.omega0[~rect] <= 10.0)).all()
    assert ((0.2 <= batch.gamma[~rect]) & (batch.gamma[~rect] <= 2.0)).all()
    assert (batch.delta[~rect] == 0.0).all() and (batch.window[~rect] == np.inf).all()

    c = validation._random_physical_correlations(np.random.default_rng(3), 1000)
    assert c.shape == (1000, 3) and np.abs(c).max() <= 1.0
    assert np.min(evolution._bell_diagonal_rho_eigenvalues(c.T), axis=0).min() >= 0.0

    again, t_again = validation._random_pulses(np.random.default_rng(3), 2000)
    assert all(np.array_equal(a, b) for a, b in zip(again, batch)) and np.array_equal(t_again, t)
    assert np.array_equal(validation._random_physical_correlations(np.random.default_rng(3), 1000), c)
    rng = np.random.default_rng(3)
    empty, empty_t = validation._random_pulses(rng, 0)
    assert all(a.shape == (0,) for a in empty) and empty_t.shape == (0,)
    assert validation._random_physical_correlations(rng, 0).shape == (0, 3)


def test_validation_builds_one_pulse_spec_per_sampler_call_not_per_draw(monkeypatch):
    # each _random_pulses call builds one checked PulseSpec of all its draws,
    # and the Fano check's stretched windows one more; the others are those
    # _grid_maps builds for the presets' maps
    built, where, calls = [], ["run"], []
    new, grid_maps, sampler = pulses.PulseSpec.__new__, scenarios._grid_maps, validation._random_pulses

    def spied(cls, *args, **kwargs):
        spec = new(cls, *args, **kwargs)
        built.append((where[0], spec))
        return spec

    def inside(place, fn):
        def call(*args):
            where[0] = place
            try:
                return fn(*args)
            finally:
                where[0] = "run"

        return call

    monkeypatch.setattr(pulses.PulseSpec, "__new__", spied)
    monkeypatch.setattr(scenarios, "_grid_maps", inside("grid", grid_maps))
    monkeypatch.setattr(validation, "_random_pulses", inside("sampler", lambda rng, n: calls.append(n) or sampler(rng, n)))
    for cfg in scenarios.paper_figure_presets().values():
        for mode in (pulses.CoefficientMode.UNITARY, pulses.CoefficientMode.LITERAL):  # _check_presets' order
            scenarios._grid_maps(dataclasses.replace(cfg, mode=mode), cfg.grid.values())
    expected = [spec for _, spec in built]
    built.clear()
    assert all(r.passed for r in run_validation(seed=0))
    assert [spec for place, spec in built if place == "grid"] == expected
    assert [np.shape(spec.omega0) for place, spec in built if place == "sampler"] == [(n,) for n in calls]
    assert calls == [1000, 80, 500, 500]
    assert [np.shape(spec.omega0) for place, spec in built if place == "run"] == [(500,)]


def test_a_process_computes_the_preset_checks_once(monkeypatch):
    built, grid_maps = [], scenarios._grid_maps
    monkeypatch.setattr(scenarios, "_grid_maps", lambda cfg, x: built.append(cfg.mode) or grid_maps(cfg, x))

    def maps_built(seed):
        built.clear()
        run_validation(seed)
        return len(built)

    every_preset_map = 2 * len(scenarios.paper_figure_presets())  # each preset's UNITARY and LITERAL maps
    assert maps_built(0) == every_preset_map
    assert maps_built(1) == 0
    validation._preset_results.cache_clear()
    assert maps_built(0) == every_preset_map


@pytest.mark.parametrize("seed", [0, 7, 42, 2**31 - 1])
def test_warm_and_cold_runs_give_the_same_bits(seed):
    # cold: the memo is empty; warm: another seed's run filled it, so equal bits show it holds nothing of a seed
    cold = [(r.name, r.max_error.hex()) for r in run_validation(seed)]
    validation._preset_results.cache_clear()
    run_validation(seed + 1)
    warm = [(r.name, r.max_error.hex()) for r in run_validation(seed)]
    assert validation._preset_results.cache_info().misses == 1
    assert warm == cold
    assert [name for name, _ in warm] == EXPECTED_NAMES


def test_the_preset_checks_list_is_the_callers_own():
    first = validation._check_presets(np.random.default_rng([0, 7]))
    expected = list(first)
    first.clear()  # a caller that edits its list changes no later run
    assert validation._check_presets(np.random.default_rng([0, 7])) == expected
    assert [r.name for r in run_validation(0)] == EXPECTED_NAMES


def test_the_preset_checks_leave_their_stream_untouched():
    # a cached result that drew from its stream would freeze the first seed's draw
    for _ in ("miss", "hit"):
        rng = np.random.default_rng([0, 7])
        state = rng.bit_generator.state
        validation._check_presets(rng)
        assert rng.bit_generator.state == state


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 42, 2**31 - 1, 1, 2, 1000])
def test_every_check_passes_on_the_pinned_seeds(seed):
    results = run_validation(seed=seed)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert [r.name for r in results if not r.passed] == []


def _bits(results):
    return {r.name: r.max_error.hex() for r in results}


def test_check_keys_are_distinct_positive_ints():
    # a key of 0 would give default_rng([seed, 0]), which is default_rng(seed)
    keys = [key for _, key in validation._CHECKS]
    assert all(type(key) is int and key > 0 for key in keys)
    assert len(set(keys)) == len(keys)
    assert len({check for check, _ in validation._CHECKS}) == len(keys)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7])
def test_dropping_a_check_moves_no_other_checks_inputs(monkeypatch, seed):
    full = _bits(run_validation(seed))
    for dropped in validation._CHECKS:
        monkeypatch.setattr(validation, "_CHECKS", tuple(entry for entry in validation._CHECKS if entry != dropped))
        rest = _bits(run_validation(seed))
        monkeypatch.undo()
        assert rest and rest == {name: full[name] for name in rest}, dropped[0].__name__
        assert set(full) - set(rest) == {r.name for r in dropped[0](np.random.default_rng([seed, dropped[1]]))}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7])
def test_a_reversed_table_gives_every_check_the_same_bits(monkeypatch, seed):
    full = run_validation(seed)
    monkeypatch.setattr(validation, "_CHECKS", validation._CHECKS[::-1])
    reversed_run = run_validation(seed)
    assert [r.name for r in reversed_run] != [r.name for r in full]
    assert _bits(reversed_run) == _bits(full)
