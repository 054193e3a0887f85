import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import stat
import threading
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pulsepair import scenarios
from pulsepair.config import format_config
from pulsepair.entanglement import CLAMP_TOL, _density_negativities, zero_bloch_negativity_batch
from pulsepair.errors import InvalidConfig
from pulsepair.evolution import InitialState, evolve_correlations_batch
from pulsepair.pauli import hermitian_eigenvalues_batch
from pulsepair.pulses import CoefficientMode
from pulsepair.scenarios import (
    PARAM_LIMIT,
    DriveMode,
    GridSpec,
    SweepConfig,
    SweepFamily,
    SweepResult,
    detect_sudden_death,
    paper_figure_presets,
    run_sweep,
)

STATES = (
    InitialState.bell_singlet(),
    InitialState.werner(-0.9),
    InitialState.generalized_werner(-0.9, -0.8, -0.7),
)
INITIAL_E = (1.0, 0.85, 0.70)


def small_config(family=SweepFamily.RECT_VS_AREA, **kw):
    defaults = dict(
        family=family,
        initial_states=STATES,
        drive=DriveMode.ONE_QUBIT,
        grid=GridSpec(0.0, 3.0, 13),
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestGridSpec:
    def test_values_are_affine_in_the_index(self):
        g = GridSpec(0.0, 20.0, 801)
        v = g.values()
        assert v.shape == (801,)
        assert v[0] == 0.0
        assert v[-1] == pytest.approx(20.0, abs=1e-12)
        step = (20.0 - 0.0) / 800
        assert np.array_equal(v, 0.0 + step * np.arange(801))

    def test_refinement_keeps_shared_nodes_bitwise(self):
        fine = GridSpec(0.0, 20.0, 801).values()
        coarse = GridSpec(0.0, 20.0, 401).values()
        assert np.array_equal(fine[::2], coarse)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(InvalidConfig):
            GridSpec(-0.5, 1.0, 10)
        with pytest.raises(InvalidConfig):
            GridSpec(2.0, 1.0, 10)
        with pytest.raises(InvalidConfig):
            GridSpec(1.0, 1.0, 10)
        for bad in (float("nan"), float("inf"), 2.0 * PARAM_LIMIT):
            with pytest.raises(InvalidConfig):
                GridSpec(0.0, bad, 10)
            with pytest.raises(InvalidConfig):
                GridSpec(bad, 1.0, 10)
        GridSpec(0.0, 1.0, int(PARAM_LIMIT))
        for too_many in (int(PARAM_LIMIT) + 1, 10**20):
            with pytest.raises(InvalidConfig):
                GridSpec(0.0, 1.0, too_many)

    def test_points_must_be_an_integer(self):
        # a float count of 2.5 gave three nodes spaced 2/3 apart
        for bad in (2.5, 3.0, np.float64(3.0), np.array(3.0), Decimal(3), "3", None):
            with pytest.raises(InvalidConfig):
                GridSpec(0.0, 1.0, bad)
        with pytest.raises(InvalidConfig):
            GridSpec(0.0, 1.0, True)  # an integer, but fewer than two points
        for points in (np.int64(3), np.array(3)):
            assert GridSpec(0.0, 1.0, points).values().tolist() == [0.0, 0.5, 1.0]

    def test_last_node_never_passes_stop(self):
        # unclamped, 0.989 + 45 * step rounds to 1.8130000000000002, which
        # fell outside the combined family's rectangle window
        grid = GridSpec(0.989, 1.813, 46)
        assert grid.values()[-1] == 1.813
        cfg = small_config(
            family=SweepFamily.COMBINED_VS_TIME, drive=DriveMode.BOTH_QUBITS, grid=grid
        )
        assert run_sweep(cfg).params[-1] == 1.813

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    def test_halved_grids_always_share_nodes(self, half_points):
        fine = GridSpec(0.0, 5.0, 2 * half_points + 1).values()
        coarse = GridSpec(0.0, 5.0, half_points + 1).values()
        assert np.array_equal(fine[::2], coarse)


class TestSweepConfigValidation:
    def test_needs_states(self):
        with pytest.raises(InvalidConfig):
            small_config(initial_states=())

    def test_combined_requires_both_drives(self):
        with pytest.raises(InvalidConfig):
            small_config(family=SweepFamily.COMBINED_VS_TIME, drive=DriveMode.ONE_QUBIT)

    def test_combined_requires_positive_rect_omega(self):
        # at 1e-200, rect_omega**2 underflows to a zero divisor in the literal map
        for rect_omega in (0.0, 1e-200):
            with pytest.raises(InvalidConfig):
                small_config(
                    family=SweepFamily.COMBINED_VS_TIME,
                    drive=DriveMode.BOTH_QUBITS,
                    rect_omega=rect_omega,
                )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e200])
    @pytest.mark.parametrize("field", ["detuning_prime", "rabi_ratio", "rect_omega"])
    def test_non_finite_and_huge_values(self, field, bad):
        value = bad if field == "rect_omega" else (0.0, bad)
        with pytest.raises(InvalidConfig):
            small_config(**{field: value})

    def test_rabi_ratio_sign(self):
        with pytest.raises(InvalidConfig):
            small_config(rabi_ratio=(-1.0, 0.0))

    def test_per_qubit_tuples(self):
        with pytest.raises(InvalidConfig):
            small_config(detuning_prime=(1.0,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("family", "rect_vs_area"),
            ("drive", "one_qubit"),
            ("mode", "literal"),
            ("grid", (0.0, 1.0, 3)),
            ("initial_states", ("bell",)),
            ("initial_states", (STATES[0], "bell")),
        ],
        ids=["family", "drive", "mode", "grid", "states", "second_state"],
    )
    def test_fields_must_have_their_types(self, field, value):
        # unchecked, a string family takes _grid_maps' combined branch, and a tuple
        # grid or a string state fails inside run_sweep with an AttributeError
        with pytest.raises(InvalidConfig, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("detuning_prime", 1.0), ("initial_states", None), ("rabi_ratio", None)],
        ids=["scalar_detuning_prime", "no_initial_states", "no_rabi_ratio"],
    )
    def test_a_field_that_is_not_a_sequence_is_invalid(self, field, value):
        # tuple() of a scalar or None would raise an untyped TypeError
        with pytest.raises(InvalidConfig, match=field):
            dataclasses.replace(paper_figure_presets()["fig5a"], **{field: value})


class TestRunSweep:
    def test_resonant_one_qubit_rectangle_full_cycles(self):
        # integer pulse areas restore the initial entanglement exactly
        cfg = small_config(grid=GridSpec(1.0, 3.0, 3))
        result = run_sweep(cfg)
        for row, initial in zip(result.negativities.T, INITIAL_E):
            assert np.abs(row - initial).max() < 1e-10

    def test_time_zero_equals_initial_negativity(self):
        cfg = small_config(family=SweepFamily.EXP_VS_TIME, grid=GridSpec(0.0, 2.0, 5))
        result = run_sweep(cfg)
        for j, s in enumerate(STATES):
            expected = oracles.brute_negativity(s.correlations)
            assert abs(result.negativities[0, j] - expected) < 1e-10
            assert abs(expected - INITIAL_E[j]) < 1e-10

    def test_unitary_sweeps_are_constant(self):
        configs = [
            small_config(detuning_prime=(1.0, 0.0)),
            small_config(
                family=SweepFamily.EXP_VS_TIME,
                drive=DriveMode.BOTH_QUBITS,
                rabi_ratio=(5.0, 10.0),
            ),
            small_config(
                family=SweepFamily.COMBINED_VS_TIME,
                drive=DriveMode.BOTH_QUBITS,
                rect_omega=2.0,
                rabi_ratio=(0.0, 10.0),
            ),
        ]
        for cfg in configs:
            result = run_sweep(cfg)
            for row, initial in zip(result.negativities.T, INITIAL_E):
                assert np.abs(row - initial).max() < 1e-9
            assert result.residues.max() == 0.0

    def test_rows_ordered_and_bounded(self):
        cfg = small_config(mode=CoefficientMode.LITERAL, detuning_prime=(1.0, 0.0))
        result = run_sweep(cfg)
        assert (np.diff(result.params) > 0.0).all()
        assert (result.negativities >= 0.0).all()
        assert (result.negativities <= 1.0 + 1e-9).all()

    def test_literal_detuned_rectangle_reports_residue(self):
        cfg = small_config(mode=CoefficientMode.LITERAL, detuning_prime=(1.0, 0.0))
        result = run_sweep(cfg)
        assert result.residues.max() > 1e-6

    def test_literal_resonant_exponential_is_real_and_frozen(self):
        # the verbatim closed forms are real on resonance: zero residue,
        # and the curve parks at a constant below the initial value
        cfg = small_config(
            family=SweepFamily.EXP_VS_TIME,
            mode=CoefficientMode.LITERAL,
            rabi_ratio=(10.0, 0.0),
            grid=GridSpec(0.0, 5.0, 21),
        )
        result = run_sweep(cfg)
        assert result.residues.max() == 0.0
        assert np.abs(result.negativities[:, 0] - 0.5).max() < 1e-12

    def test_determinism_bitwise(self):
        cfg = small_config(detuning_prime=(5.0, 5.0), drive=DriveMode.BOTH_QUBITS)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert np.array_equal(a.negativities, b.negativities)
        assert a.csv_text() == b.csv_text()


    @pytest.mark.filterwarnings("error")
    def test_tiny_detuning_sweeps_without_warnings(self):
        # a tiny but normal off-diagonal makes tau * tau overflow in the
        # Jacobi rotation, which is harmless there because t becomes 0
        result = run_sweep(small_config(detuning_prime=(-1.2e-240, 0.0)))
        for row, initial in zip(result.negativities.T, INITIAL_E):
            assert np.abs(row - initial).max() < 1e-9


REFERENCE_DIGESTS = Path(__file__).with_name("preset_digests.json")


def _preset_modes(names=None):
    for name, cfg in paper_figure_presets().items():
        if names is None or name in names:
            for mode in CoefficientMode:
                yield f"{name}/{mode.value}", dataclasses.replace(cfg, mode=mode)


class TestBatchedSweep:
    def test_preset_csvs_match_reference_digests(self):
        expected = json.loads(REFERENCE_DIGESTS.read_text("ascii"))
        for key, cfg in _preset_modes():
            result = run_sweep(cfg)
            assert hashlib.sha256(result.csv_text().encode("ascii")).hexdigest() == expected[key], key
            if cfg.mode is CoefficientMode.UNITARY:  # real maps: exactly zero residues
                assert np.array_equal(result.residues, np.zeros(cfg.grid.points)), key

    @pytest.mark.parametrize("chunk_cells", [1, 7])
    def test_chunk_size_does_not_change_a_byte(self, monkeypatch, chunk_cells):
        # one preset per family and drive; a coarser grid over the same range
        configs = [
            (key, dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, points=41)))
            for key, cfg in _preset_modes({"fig1b", "fig2b", "fig3a", "fig4b", "fig5b"})
        ]
        whole = [run_sweep(cfg).csv_text() for _, cfg in configs]
        monkeypatch.setattr(scenarios, "_CHUNK_CELLS", chunk_cells)
        for (key, cfg), text in zip(configs, whole):
            assert run_sweep(cfg).csv_text() == text, key

    def test_literal_negativities_match_signed_singular_value_form(self):
        for key, cfg in _preset_modes():
            if cfg.mode is not CoefficientMode.LITERAL:
                continue
            grid = cfg.grid.values()
            diagonals = [s.correlations for s in cfg.initial_states]
            tensors, _ = evolve_correlations_batch(diagonals, *scenarios._grid_maps(cfg, grid))
            raw = oracles.zero_bloch_negativities(tensors)
            closed = np.where(raw < CLAMP_TOL, 0.0, raw)
            assert np.abs(run_sweep(cfg).negativities - closed).max() < 1e-10, key


class TestResonantLiteralRoute:
    # a LITERAL sweep whose built pulses all have delta = 0 builds no maps and
    # evolves no tensor; the family decides which detuning slots build a pulse
    LITERAL = CoefficientMode.LITERAL
    RESONANT = {
        "fig3a with detuning_prime_a = 3 (exp_vs_time ignores it)": ("fig3a", (3.0, 0.0)),
        "fig1a with detuning_prime_b = 3 (one_qubit ignores it)": ("fig1a", (0.0, 3.0)),
        **{f"{name}/literal": (name, None) for name in paper_figure_presets() if name not in ("fig1b", "fig2b")},
    }
    DETUNED = {
        "fig1b/literal": ("fig1b", None),
        "fig2b/literal": ("fig2b", None),
        "fig5a with detuning_prime_a = 2": ("fig5a", (2.0, 0.0)),
    }

    def _spied(self, monkeypatch, name, detuning):
        cfg = dataclasses.replace(paper_figure_presets()[name], mode=self.LITERAL)
        if detuning is not None:
            cfg = dataclasses.replace(cfg, detuning_prime=detuning)
        calls = []

        def spy(label, function, *args):
            calls.append(label)
            return function(*args)

        for spied in ("coefficient_map_batch", "evolve_correlations_batch", "_long_route"):
            monkeypatch.setattr(scenarios, spied, functools.partial(spy, spied, getattr(scenarios, spied)))
        return cfg, run_sweep(cfg), calls

    @pytest.mark.parametrize("key", list(RESONANT))
    def test_a_resonant_literal_sweep_builds_no_maps_and_evolves_nothing(self, monkeypatch, key):
        cfg, result, calls = self._spied(monkeypatch, *self.RESONANT[key])
        assert calls == []
        assert np.array_equal(result.residues, np.zeros(cfg.grid.points))
        monkeypatch.undo()
        long_route = SweepResult(cfg, cfg.grid.values(), *scenarios._long_route(cfg, cfg.grid.values()))
        assert result.csv_text().splitlines() == long_route.csv_text().splitlines()  # lines: a quick diff

    @pytest.mark.parametrize("key", list(DETUNED))
    def test_a_detuned_literal_sweep_takes_the_long_route(self, monkeypatch, key):
        _, _, calls = self._spied(monkeypatch, *self.DETUNED[key])
        assert calls == ["_long_route", "coefficient_map_batch", "coefficient_map_batch", "evolve_correlations_batch"]

    def test_only_the_identity_points_keep_the_initial_negativity(self):
        # the literal time sweeps have no identity point: their maps at t = 0 are
        # not the identity, so row 0 already has the value of diag(c_xx, 0, c_zz)
        presets = paper_figure_presets()
        area, decay = (run_sweep(dataclasses.replace(presets[n], mode=self.LITERAL)) for n in ("fig1a", "fig3a"))
        assert np.abs(area.negativities[0] - INITIAL_E).max() < 1e-12
        assert np.abs(area.negativities[1:] - (0.5, 0.4, 0.3)).max() < 1e-12
        assert np.abs(decay.negativities - (0.5, 0.4, 0.3)).max() < 1e-12


class TestFixedRouteMemo:
    # the unitary and resonant literal routes take their two rows of S negativities
    # from scenarios._fixed_negativities, keyed by the bits of the states' diagonals

    def test_a_pass_over_the_presets_misses_once_in_any_order(self):
        # the 22 fixed-route sweeps share one set of states; fig1b/literal and fig2b/literal take the long route
        memo, configs = scenarios._fixed_negativities, dict(_preset_modes())
        expected = json.loads(REFERENCE_DIGESTS.read_text("ascii"))
        keys = list(configs)
        shuffled = keys.copy()
        np.random.default_rng(38).shuffle(shuffled)
        for order in (keys, keys[::-1], shuffled):
            for key in order:
                text = run_sweep(configs[key]).csv_text()
                assert hashlib.sha256(text.encode("ascii")).hexdigest() == expected[key], key
            if order is keys:
                assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 21)
        assert (memo.cache_info().misses, memo.cache_info().hits, memo.cache_info().currsize) == (1, 65, 1)

    @pytest.mark.parametrize("mode", list(CoefficientMode))
    def test_state_sets_apart_only_in_a_zero_sign_take_two_entries(self, mode):
        # resonant in LITERAL mode: the zero reaches both rows, the resonant one through its c_xx
        configs = [
            small_config(mode=mode, initial_states=(STATES[0], InitialState("zero", (zero, -0.5, -0.5))))
            for zero in (0.0, -0.0)
        ]
        cleared = []
        for cfg in configs:
            scenarios._fixed_negativities.cache_clear()
            cleared.append(run_sweep(cfg).csv_text())
        scenarios._fixed_negativities.cache_clear()
        for i in (0, 1, 0, 1):
            assert run_sweep(configs[i]).csv_text() == cleared[i]
        info = scenarios._fixed_negativities.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_the_memo_keeps_its_bound(self):
        configs = [small_config(initial_states=(InitialState.werner(-0.1 * k),)) for k in range(1, 8)]
        texts = [run_sweep(cfg).csv_text() for cfg in configs]
        assert len(configs) > scenarios._MEMO_STATE_SETS
        assert scenarios._fixed_negativities.cache_info().currsize == scenarios._MEMO_STATE_SETS
        assert run_sweep(configs[0]).csv_text() == texts[0]  # evicted: computed again, the same bytes
        assert scenarios._fixed_negativities.cache_info().misses == len(configs) + 1

    def test_a_cached_array_is_read_only(self):
        cfg = small_config()
        before = run_sweep(cfg).csv_text()
        values = scenarios._fixed_negativities(np.array([s.correlations for s in cfg.initial_states]).tobytes())
        assert scenarios._fixed_negativities.cache_info().hits == 1
        initial, resonant = values
        with pytest.raises(TypeError):
            values[0] = initial.copy()
        for array in (initial, resonant):
            with pytest.raises(ValueError):
                array[0] = 0.25
        assert run_sweep(cfg).csv_text() == before

    def test_a_hit_makes_no_closed_form_call(self, monkeypatch):
        calls = []

        def spy(tensors):
            calls.append(tensors.tobytes())
            return zero_bloch_negativity_batch(tensors)

        monkeypatch.setattr(scenarios, "zero_bloch_negativity_batch", spy)
        presets = paper_figure_presets()
        texts = [run_sweep(presets["fig1a"]).csv_text()]
        # one call on a miss: the initial rows, then the resonant rows with a +0.0 c_yy, bit for bit
        c = [s.correlations for s in STATES]
        miss = [scenarios._diagonal_tensors(c + [(x, 0.0, z) for x, _, z in c]).tobytes()]
        assert calls == miss
        resonant = dataclasses.replace(presets["fig3a"], mode=CoefficientMode.LITERAL)
        texts += [run_sweep(cfg).csv_text() for cfg in (presets["fig1a"], presets["fig4b"], resonant)]
        assert calls == miss
        assert texts[1] == texts[0]


class TestClosedFormGuard:
    # fig1b/literal, state werner, at params 6.95 and 18.475: the partial
    # transposes' negativities to 17 digits, from a 50-digit evaluation
    # (mpmath eigh); the 12th digit of either lies within 3e-17 of a tie
    FIG1B_LITERAL_CELLS = {278: 0.61159140352649977, 739: 0.54943957387949996}

    def _fig1b_literal(self):
        return dataclasses.replace(paper_figure_presets()["fig1b"], mode=CoefficientMode.LITERAL)

    def test_closed_form_gives_the_fig1b_literal_cells_to_1e16(self):
        cfg = self._fig1b_literal()
        rows = list(self.FIG1B_LITERAL_CELLS)
        maps = scenarios._grid_maps(cfg, cfg.grid.values()[rows])
        tensors, _ = evolve_correlations_batch([InitialState.werner(-0.9).correlations], *maps)
        raw = zero_bloch_negativity_batch(tensors[:, 0])
        assert np.abs(raw - list(self.FIG1B_LITERAL_CELLS.values())).max() <= 1e-16

    def test_only_detuned_preset_cells_go_to_lapack(self, monkeypatch):
        # the closed form sends a tensor to np.linalg.svd unless T_xy, T_xz,
        # T_yx and T_zx are zero, which resonant drives keep exactly
        svd, sent = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda t, **kw: sent.append(len(t)) or svd(t, **kw))
        cfg = self._fig1b_literal()
        maps = scenarios._grid_maps(cfg, cfg.grid.values()[list(self.FIG1B_LITERAL_CELLS)])
        zero_bloch_negativity_batch(evolve_correlations_batch([InitialState.werner(-0.9).correlations], *maps)[0])
        assert sent == [2]  # so the 1e-16 pin above holds LAPACK's values
        cells = lapack = 0
        for name, preset in paper_figure_presets().items():
            for mode in CoefficientMode:
                sent.clear()
                cells += scenarios._long_route(dataclasses.replace(preset, mode=mode), preset.grid.values())[0].size
                lapack += sum(sent)
                assert name in ("fig1b", "fig2b") or sum(sent) == 0, (name, mode)
        assert (cells, cells - lapack) == (57_672, 48_089)

    def test_csv_keeps_the_jacobi_digits_of_those_cells(self):
        # the closed form would print 0.611591403526 and 0.549439573879
        lines = run_sweep(self._fig1b_literal()).csv_text().splitlines()
        assert lines[1 + 278].split(",")[:3] == ["6.95", "0.735101559474", "0.611591403527"]
        assert lines[1 + 739].split(",")[:3] == ["18.475", "0.666043970977", "0.54943957388"]

    def test_doubt_equals_formatting_every_cell(self):
        # values at and beside 12-digit ties and powers of ten in every decade
        # the CSV can print, about CLAMP_TOL, and log-uniform down past zero
        rng = np.random.default_rng(5)
        margin = scenarios._JACOBI_MARGIN
        decades = 10.0 ** np.arange(-12, 3)[:, None]
        ties = (rng.integers(10**11, 10**12, (15, 2000)) + 0.5) * decades * 1e-11
        edges = decades * (1.0 + rng.uniform(-1e-11, 1e-11, (15, 2000)))
        near = np.concatenate([ties.ravel(), edges.ravel(), np.full(2000, CLAMP_TOL)])
        raw = np.concatenate([
            near + rng.uniform(-3.0, 3.0, near.size) * margin,
            10.0 ** rng.uniform(-16.0, 2.0, 20_000) * rng.choice([-1.0, 1.0], 20_000),
        ])
        lo, hi = (np.where(v < CLAMP_TOL, 0.0, v).tolist() for v in (raw - margin, raw + margin))
        every = np.flatnonzero([scenarios._fmt(x) != scenarios._fmt(y) for x, y in zip(lo, hi)])
        assert len(every) > 10_000
        assert np.array_equal(scenarios._in_doubt(raw), every)

    def test_guarded_values_print_as_the_jacobi_route_on_random_tensors(self):
        rng = np.random.default_rng(11)
        tensors = rng.uniform(-1.0, 1.0, size=(20_000, 3, 3))
        # rank 2 and rank 1, and diagonals about the Werner threshold x = -1/3,
        # where the negativity crosses CLAMP_TOL
        tensors[5000:10_000, 2] = tensors[5000:10_000, 0] - 0.5 * tensors[5000:10_000, 1]
        tensors[10_000:12_000, 1:] = 0.3 * tensors[10_000:12_000, :1]
        x = -1.0 / 3.0 - rng.uniform(-1.0, 1.0, size=2000) * 1e-12
        tensors[12_000:14_000] = x[:, None, None] * np.eye(3)
        det = np.linalg.det(tensors)
        assert (det < 0.0).sum() > 4000 and (np.abs(det) < 1e-12).sum() >= 7000
        guarded, _ = scenarios._negativities(tensors)
        (jacobi,) = _density_negativities(tensors, hermitian_eigenvalues_batch)
        assert [scenarios._fmt(v) for v in guarded] == [scenarios._fmt(v) for v in jacobi]
        raw = zero_bloch_negativity_batch(tensors)
        # the guard had work to do: unguarded, some cells would print otherwise
        unguarded = np.where(raw < CLAMP_TOL, 0.0, raw)
        assert [scenarios._fmt(v) for v in unguarded] != [scenarios._fmt(v) for v in jacobi]


# CSV cells: signed zeros, NaNs of other payloads and signs, infinities, subnormals, any finite float
_GUARD_DIGIT = pytest.mark.xfail(
    strict=True,
    reason="the sweep's rounding guard (scenarios._in_doubt) prints Jacobi's digit here; "
    "deleting it, ROADMAP item 2, refreshes the fig1b/literal digest",
)


@functools.lru_cache(maxsize=None)
def _literal_csv_rows(name):
    cfg = dataclasses.replace(paper_figure_presets()[name], mode=CoefficientMode.LITERAL)
    rows = [line.split(",") for line in run_sweep(cfg).csv_text().splitlines()]
    return [dict(zip(rows[0], row)) for row in rows[1:]]


# the six literal preset cells nearest a 12-digit tie (within 4 ulp), as a
# 50-digit evaluation of their float tensors gives them, cut to 20 digits
@pytest.mark.parametrize(
    "name, row, column, value",
    [
        pytest.param("fig1b", 739, "E_werner", "0.54943957387949996259", marks=_GUARD_DIGIT),
        ("fig2b", 107, "E_bell", "0.45038639056750006881"),
        pytest.param("fig1b", 278, "E_werner", "0.61159140352649977472", marks=_GUARD_DIGIT),
        ("fig1b", 534, "E_bell", "0.65292590186550016627"),
        ("fig1b", 744, "E_bell", "0.76348511940150059968"),
        ("fig1b", 297, "E_werner", "0.40000382361650039018"),
    ],
)
def test_cells_next_to_a_tie_print_correctly_rounded(name, row, column, value):
    assert _literal_csv_rows(name)[row][column] == format(Decimal(value), ".12g")


_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 0.5]),
    st.sampled_from([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0000]).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
    ),
    st.floats(allow_nan=False),
)
_NAN_PAYLOAD = float(np.array(0x7FF8DEADBEEF0000, dtype=np.uint64).view(np.float64))


def _column(rows):
    """One column of rows cells: one value throughout, 0.0 and -0.0 mixed, any cells, or any row 0 above one value."""
    cells = functools.partial(st.lists, min_size=rows, max_size=rows)
    return st.one_of(
        _CELLS.map(lambda v: [v] * rows),
        cells(st.sampled_from([0.0, -0.0])),
        cells(_CELLS),
        st.tuples(_CELLS, _CELLS).map(lambda pair: ([pair[0]] + [pair[1]] * rows)[:rows]),
    )


class TestCsvFormat:
    def test_header_and_shape(self):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        text = result.csv_text()
        lines = text.split("\n")
        assert lines[0] == "param,E_bell,E_werner,E_genwerner,imag_residue"
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    @settings(max_examples=60, deadline=None)
    @given(st.text(st.sampled_from('ab:_ ,"\r\n\t\x85\u2028\u00e9'), max_size=6))
    def test_every_accepted_label_gives_a_header_as_wide_as_each_row(self, label):
        if any(ch in label for ch in ',"\r\n') or not label.isascii():
            with pytest.raises(InvalidConfig):
                InitialState(label, (-1.0, -1.0, -1.0))
            return
        states = (InitialState(label, (-1.0, -1.0, -1.0)), InitialState.werner(-0.9))
        text = run_sweep(small_config(initial_states=states, grid=GridSpec(0.0, 1.0, 3))).csv_text()
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert header[1] == f"E_{label}"
        assert len(header) == 4
        assert [len(row) for row in rows] == [4, 4, 4]

    def test_twelve_significant_digits(self):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 4)))
        row = result.csv_text().split("\n")[2]
        first = row.split(",")[0]
        assert first == format(1.0 / 3.0, ".12g")

    def test_every_cell_prints_as_the_guard_formats_it(self):
        # the guard's _fmt decides which cells go to Jacobi by how they print,
        # so the CSV must print each value exactly as _fmt does
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e16, 1e22, 999999999999.5, 1.0 / 3.0, -1.0 / 3.0, 1e-12, 0.611591403527]
        rng = np.random.default_rng(8)
        drawn = 10.0 ** rng.uniform(-320.0, 300.0, 3000) * rng.choice([-1.0, 1.0], 3000)
        values = np.concatenate([np.repeat(special, 5), drawn])  # each special value fills one row
        table = values.reshape(-1, 5)
        result = SweepResult(small_config(), table[:, 0], table[:, 1:4], table[:, 4])
        lines = result.csv_text().splitlines()
        assert lines[0] == "param,E_bell,E_werner,E_genwerner,imag_residue"
        cells = [cell for line in lines[1:] for cell in line.split(",")]
        assert cells == [scenarios._fmt(v) for v in values.tolist()]
        # and _fmt keeps the bytes of format(v, ".12g"), which the CSV has always printed
        assert cells == [format(v, ".12g") for v in values.tolist()]
        assert cells[:75:5] == ["0", "-0", "inf", "-inf", "nan", "4.94065645841e-324", "-4.94065645841e-324",
                              "2.22507385851e-308", "1e+16", "1e+22", "1e+12", "0.333333333333",
                              "-0.333333333333", "1e-12", "0.611591403527"]

    @staticmethod
    def _row_by_row_csv(result):
        """The CSV text formatted one row at a time, every cell with its own %.12g."""
        labels = ",".join(f"E_{s.label}" for s in result.config.initial_states)
        table = np.column_stack((result.params, result.negativities, result.residues))
        row = ",".join(["%.12g"] * table.shape[1])
        return "\n".join([f"param,{labels},imag_residue"] + [row % tuple(r) for r in table.tolist()]) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 4), st.data())
    def test_folded_columns_print_as_the_row_by_row_format(self, rows, states, data):
        cells = [data.draw(_column(rows)) for _ in range(states + 2)]
        table = np.array(cells, dtype=float).T.reshape(rows, states + 2)
        four = STATES + (InitialState.werner(-0.5),)
        result = SweepResult(small_config(initial_states=four[:states]), table[:, 0], table[:, 1:-1], table[:, -1])
        assert result.csv_text() == self._row_by_row_csv(result)

    @pytest.mark.parametrize("rows", [0, 1, 2, 5])
    @pytest.mark.parametrize(
        "first, after",
        [(-0.0, 0.0), (0.0, -0.0), (np.nan, 0.5), (0.5, np.nan), (np.inf, 1.0), (1.0, -np.inf), (_NAN_PAYLOAD, np.nan)],
    )
    def test_row_zero_above_a_folded_column(self, rows, first, after):
        # the second negativity column swaps row 0's value with the one below it
        column, swapped = (([a] + [b] * rows)[:rows] for a, b in ((first, after), (after, first)))
        params, negativities = np.arange(rows, dtype=float), np.array([column, swapped]).T.reshape(rows, 2)
        result = SweepResult(small_config(initial_states=STATES[:2]), params, negativities, column)
        assert result.csv_text() == self._row_by_row_csv(result)

    @pytest.mark.parametrize("rows", [scenarios._MEMO_ROWS + 1, 5000])
    @pytest.mark.parametrize("same, deep", [(0.0, -0.0), (-0.0, 0.0), (np.nan, _NAN_PAYLOAD), (_NAN_PAYLOAD, np.nan)])
    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_one_deep_cell_apart_in_a_zero_sign_or_a_nan_payload_unfolds_its_column(self, rows, same, deep, column):
        # the fold compares every byte of a column, not a prefix: one cell near the end differs
        table = np.full((rows, 5), 0.25)
        table[:, column] = same
        table[rows - 2, column] = deep
        result = SweepResult(small_config(), table[:, 0], table[:, 1:4], table[:, 4])
        assert result.csv_text() == self._row_by_row_csv(result)
        # the parameter column, the one left to format, reaches the memo when it is short enough
        assert scenarios._param_cells.cache_info().currsize == (column == 0 and rows - 1 <= scenarios._MEMO_ROWS)

    @pytest.mark.parametrize("rows", [0, 1])
    @pytest.mark.parametrize("value", [0.25, -0.0, np.nan, _NAN_PAYLOAD])
    def test_tables_of_no_row_or_one_row_print_as_the_row_by_row_format(self, rows, value):
        table = np.full((rows, 5), value)
        result = SweepResult(small_config(), table[:, 0], table[:, 1:4], table[:, 4])
        assert result.csv_text() == self._row_by_row_csv(result)
        assert result.csv_text().count("\n") == rows + 1

    @pytest.fixture
    def memo(self):
        """scenarios._param_cells, which conftest.py empties before each test: its entries and counts start at zero."""
        return scenarios._param_cells

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_results_that_share_a_parameter_column_print_as_the_row_by_row_format(self, rows, data):
        # every other column is drawn per result, folded or not, and the results print in any order, twice
        params = data.draw(_column(rows))
        results = []
        for _ in range(data.draw(st.integers(2, 4))):
            table = np.array([params] + [data.draw(_column(rows)) for _ in range(4)], dtype=float).T
            results.append(SweepResult(small_config(), table[:, 0], table[:, 1:4], table[:, 4]))
        order = data.draw(st.permutations(range(len(results))))
        for i in order + order[::-1]:
            assert results[i].csv_text() == self._row_by_row_csv(results[i])

    @pytest.mark.parametrize("a, b", [(0.0, -0.0), (np.nan, _NAN_PAYLOAD), (np.nan, -np.nan)])
    def test_columns_apart_only_in_a_zero_sign_or_a_nan_payload_print_apart(self, memo, a, b):
        results = [
            SweepResult(small_config(), [0.0, 1.0, v, 3.0], np.full((4, 3), 0.5), np.zeros(4)) for v in (a, b)
        ]
        for result in results + results[::-1]:
            assert result.csv_text() == self._row_by_row_csv(result)
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (2, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_CELLS, min_size=3, max_size=6), st.data())
    def test_columns_one_bit_apart_never_share_a_memo_entry(self, column, data):
        column = np.array(column)
        flipped = column.copy()
        bit = np.uint64(1) << np.uint64(data.draw(st.integers(0, 63)))
        flipped.view(np.uint64)[data.draw(st.integers(1, len(column) - 1))] ^= bit
        memo = scenarios._param_cells
        memo.cache_clear()
        for params in (column, flipped, column):
            result = SweepResult(small_config(), params, np.full((len(column), 3), 0.5), np.zeros(len(column)))
            assert result.csv_text() == self._row_by_row_csv(result)
        # a column reaches the memo when its cells after row 0 hold more than one bit pattern
        varies = [len(set(c[1:].view(np.uint64).tolist())) > 1 for c in (column, flipped)]
        info = memo.cache_info()
        assert (info.misses, info.currsize, info.hits) == (sum(varies), sum(varies), varies[0])

    def test_a_pass_over_the_presets_misses_the_memo_twice_in_any_order(self, memo):
        # 22 of the 24 take their parameter cells from the memo; the area and time grids are its two keys
        results = {key: run_sweep(cfg) for key, cfg in _preset_modes()}
        expected = json.loads(REFERENCE_DIGESTS.read_text("ascii"))
        keys = list(results)
        shuffled = keys.copy()
        np.random.default_rng(37).shuffle(shuffled)
        for order in (keys, keys[::-1], shuffled):
            for key in order:
                assert hashlib.sha256(results[key].csv_text().encode("ascii")).hexdigest() == expected[key], key
            if order is keys:
                assert (memo.cache_info().misses, memo.cache_info().hits) == (2, 20)
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (2, 2)

    def test_the_memo_keeps_its_bounds(self, memo):
        for points in range(3, 3 + scenarios._MEMO_GRIDS + 2):
            result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, points)))
            assert result.csv_text() == self._row_by_row_csv(result)
        assert memo.cache_info().currsize == scenarios._MEMO_GRIDS
        memo.cache_clear()
        for points, entries in ((scenarios._MEMO_ROWS + 2, 0), (scenarios._MEMO_ROWS + 1, 1)):
            result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, points)))
            assert result.csv_text() == self._row_by_row_csv(result)
            assert memo.cache_info().currsize == entries  # rows 1 onward: kept only up to _MEMO_ROWS cells

    def test_write_round_trip(self, tmp_path):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        out = tmp_path / "sweep.csv"
        result.write_csv(out)
        assert out.read_bytes().decode("ascii") == result.csv_text()

    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        out = tmp_path / "sweep.csv"
        out.write_text("earlier\n", "ascii")
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError):
            result.write_csv(tmp_path / "taken")  # a directory is opened in place, and refuses
        monkeypatch.setattr(SweepResult, "csv_text", lambda self: "caf\u00e9\n")
        with pytest.raises(UnicodeEncodeError):
            result.write_csv(out)  # fails while writing
        assert out.read_text("ascii") == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "taken"]
        assert not any((tmp_path / "taken").iterdir())

    def test_write_replaces_a_symlink_target_and_keeps_its_mode(self, tmp_path):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        target = tmp_path / "target.csv"
        target.write_text("earlier\n", "ascii")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        result.write_csv(link)
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text("ascii") == result.csv_text()
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_write_to_a_fifo_is_in_place(self, tmp_path):
        # a rename over the FIFO would replace it, and its reader would get nothing
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        result.write_csv(fifo)
        reader.join(timeout=10)
        assert received == [result.csv_text().encode("ascii")]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]

    def test_write_accepts_a_name_of_the_longest_usual_length(self, tmp_path):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        out = tmp_path / ("n" * 251 + ".csv")  # 255 bytes, the usual NAME_MAX
        result.write_csv(out)
        assert out.read_text("ascii") == result.csv_text()


class TestPresets:
    def test_the_twelve_names(self):
        presets = paper_figure_presets()
        assert sorted(presets) == [
            "fig1a",
            "fig1b",
            "fig2a",
            "fig2b",
            "fig3a",
            "fig3b",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "fig5c",
            "fig5d",
        ]

    def test_rectangular_presets(self):
        presets = paper_figure_presets()
        fig1a = presets["fig1a"]
        assert fig1a.family is SweepFamily.RECT_VS_AREA
        assert fig1a.drive is DriveMode.ONE_QUBIT
        assert fig1a.detuning_prime == (0.0, 0.0)
        assert presets["fig1b"].detuning_prime == (1.0, 0.0)
        assert presets["fig2b"].detuning_prime == (5.0, 5.0)
        assert presets["fig2b"].drive is DriveMode.BOTH_QUBITS

    def test_exponential_presets(self):
        presets = paper_figure_presets()
        assert presets["fig3a"].family is SweepFamily.EXP_VS_TIME
        assert presets["fig3a"].rabi_ratio == (5.0, 0.0)
        assert presets["fig4b"].rabi_ratio == (10.0, 10.0)

    def test_combined_presets(self):
        presets = paper_figure_presets()
        fig5b = presets["fig5b"]
        assert fig5b.family is SweepFamily.COMBINED_VS_TIME
        assert fig5b.rect_omega == 2.0
        assert fig5b.rabi_ratio[1] == 5.0
        assert presets["fig5c"].rect_omega == 1.0
        assert presets["fig5d"].rabi_ratio[1] == 10.0

    def test_table_text_is_pinned(self):
        # every slot, used or not, and the order of the presets
        text = "".join(format_config(c) for c in paper_figure_presets().values())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "30fd1fec9343051ba37ddaf05358ae14819bf5311374e3226bb1fafbbb5742f8"

    def test_shared_structure(self):
        for cfg in paper_figure_presets().values():
            assert cfg.grid.points == 801
            assert cfg.mode is CoefficientMode.UNITARY
            labels = [s.label for s in cfg.initial_states]
            assert labels == ["bell", "werner", "genwerner"]
            assert cfg.initial_states[2].correlations == (-0.9, -0.8, -0.7)


class TestSuddenDeath:
    def _result(self, params, series):
        cfg = small_config(
            initial_states=(InitialState.bell_singlet(),),
            grid=GridSpec(float(params[0]), float(params[-1]), len(params)),
        )
        values = np.asarray(series, dtype=float)[:, None]
        return SweepResult(
            config=cfg,
            params=np.asarray(params, dtype=float),
            negativities=values,
            residues=np.zeros(len(params)),
        )

    def test_single_interval(self):
        result = self._result([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.3])
        assert detect_sudden_death(result) == [(1.0, 2.0)]

    def test_no_death(self):
        result = self._result([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
        assert detect_sudden_death(result) == []

    def test_interval_reaching_the_end(self):
        result = self._result([0.0, 1.0, 2.0, 3.0], [0.4, 1e-12, 0.0, 0.0])
        assert detect_sudden_death(result) == [(1.0, 3.0)]

    def test_multiple_intervals_and_state_index(self):
        params = [0.0, 1.0, 2.0, 3.0, 4.0]
        result = self._result(params, [0.0, 0.5, 0.0, 0.0, 0.9])
        assert detect_sudden_death(result) == [(0.0, 0.0), (2.0, 3.0)]

    def test_all_dead(self):
        result = self._result([0.0, 1.0, 2.0], [0.0, -0.0, 1e-9])
        assert detect_sudden_death(result) == [(0.0, 2.0)]

    def test_nan_point_splits_a_run(self):
        result = self._result([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 0.0, 0.0])
        assert detect_sudden_death(result) == [(0.0, 0.0), (2.0, 3.0)]
