import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pulsepair import scenarios
from pulsepair.config import format_config
from pulsepair.entanglement import CLAMP_TOL, negativity
from pulsepair.errors import InvalidConfig
from pulsepair.evolution import InitialState, assemble_density_batch, evolve_correlations_batch
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
            expected = negativity(assemble_density_batch(np.diag(s.correlations))).value
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


REFERENCE_DIGESTS = Path(__file__).parents[1] / "perfbench" / "reference_digests.json"


def _preset_modes(names=None):
    for name, cfg in paper_figure_presets().items():
        if names is None or name in names:
            for mode in CoefficientMode:
                yield f"{name}/{mode.value}", dataclasses.replace(cfg, mode=mode)


class TestBatchedSweep:
    def test_preset_csvs_match_reference_digests(self):
        expected = json.loads(REFERENCE_DIGESTS.read_text("ascii"))
        for key, cfg in _preset_modes():
            text = run_sweep(cfg).csv_text()
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == expected[key], key

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


class TestCsvFormat:
    def test_header_and_shape(self):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 3)))
        text = result.csv_text()
        lines = text.split("\n")
        assert lines[0] == "param,E_bell,E_werner,E_genwerner,imag_residue"
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_twelve_significant_digits(self):
        result = run_sweep(small_config(grid=GridSpec(0.0, 1.0, 4)))
        row = result.csv_text().split("\n")[2]
        first = row.split(",")[0]
        assert first == format(1.0 / 3.0, ".12g")

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
            result.write_csv(tmp_path / "taken")  # fails at the final rename
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
