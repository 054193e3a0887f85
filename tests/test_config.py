import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pulsepair import scenarios
from pulsepair.config import format_config, parse_config
from pulsepair.entanglement import CLAMP_TOL
from pulsepair.errors import InvalidConfig, PulsePairError, TraceNotOne, UnphysicalState
from pulsepair.evolution import evolve_correlations_batch
from pulsepair.pulses import CoefficientMode
from pulsepair.scenarios import DriveMode, SweepFamily, paper_figure_presets, run_sweep

GOOD = """\
# resonant rectangular sweep over pulse area
family = rect_vs_area
drive = one_qubit            # trailing comment
grid_start = 0.0
grid_stop = 20.0
grid_points = 801

initial_states = bell, werner:-0.9, genwerner:-0.9:-0.8:-0.7
"""


def test_minimal_config_defaults():
    cfg = parse_config(GOOD)
    assert cfg.family is SweepFamily.RECT_VS_AREA
    assert cfg.drive is DriveMode.ONE_QUBIT
    assert cfg.mode is CoefficientMode.UNITARY
    assert cfg.detuning_prime == (0.0, 0.0)
    assert cfg.rabi_ratio == (5.0, 5.0)
    assert cfg.rect_omega == 1.0
    assert cfg.grid.points == 801
    assert [s.label for s in cfg.initial_states] == ["bell", "werner", "genwerner"]
    assert cfg.initial_states[1].correlations == (-0.9, -0.9, -0.9)


def test_round_trip_every_preset():
    for name, cfg in paper_figure_presets().items():
        assert parse_config(format_config(cfg)) == cfg, name


def test_round_trip_keeps_awkward_floats():
    cfg = paper_figure_presets()["fig5c"]
    import dataclasses

    cfg = dataclasses.replace(cfg, rect_omega=0.1 + 0.2)  # not representable as "0.3"
    assert parse_config(format_config(cfg)) == cfg


def test_mode_key():
    cfg = parse_config(GOOD + "mode = literal\n")
    assert cfg.mode is CoefficientMode.LITERAL
    with pytest.raises(InvalidConfig):
        parse_config(GOOD + "mode = heisenberg\n")


@pytest.mark.parametrize(
    "mutation",
    [
        "grid_start = 0.0\n",  # duplicate key
        "exposure = 3\n",  # unknown key
        "rabi_ratio_a = five\n",  # not a number
        "grid_points = 12.5\n",  # not an integer
    ],
)
def test_defective_lines_raise(mutation):
    with pytest.raises(InvalidConfig):
        parse_config(GOOD + mutation)


@pytest.mark.parametrize(
    "token",
    [
        "ghz",  # unknown state token
        "werner",  # missing parameter
        "werner:0.1:0.2",  # too many parameters
        "bell:0.5",  # parameter where none belongs
        "genwerner:-0.9:-0.8",  # wrong arity
        "genwerner:a:b:c",  # non-numeric components
    ],
)
def test_bad_state_tokens_raise(token):
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("bell, werner:-0.9, genwerner:-0.9:-0.8:-0.7", token))


def test_structural_defects():
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("grid_stop = 20.0\n", ""))  # missing required key
    with pytest.raises(InvalidConfig):
        parse_config("family rect_vs_area\n")  # no equals sign
    with pytest.raises(InvalidConfig):
        parse_config("family =\n")  # empty value
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("initial_states = bell, werner:-0.9, genwerner:-0.9:-0.8:-0.7", "initial_states = ,"))


def test_unphysical_state_tokens_fail_loudly():
    with pytest.raises(UnphysicalState):
        parse_config(GOOD.replace("werner:-0.9", "werner:0.9"))
    with pytest.raises(UnphysicalState):
        parse_config(GOOD.replace("genwerner:-0.9:-0.8:-0.7", "genwerner:-0.9:-0.8:-0.6"))


def test_grid_defects_surface_as_invalid_config():
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("grid_points = 801", "grid_points = 1"))
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("grid_start = 0.0", "grid_start = 30.0"))


def test_family_and_drive_enums():
    cfg = parse_config(
        GOOD.replace("rect_vs_area", "exp_vs_time").replace("one_qubit", "both_qubits")
    )
    assert cfg.family is SweepFamily.EXP_VS_TIME
    assert cfg.drive is DriveMode.BOTH_QUBITS
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("rect_vs_area", "sinc_vs_area"))
    with pytest.raises(InvalidConfig):
        parse_config(GOOD.replace("one_qubit", "three_qubits"))


# Any number text at all, from NaN and inf through subnormals to 1e308, plus
# text that is not a number.
ANY_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "five", "0x10", ""]),
)
WILD_STATE = st.one_of(
    st.builds("werner:{}".format, ANY_NUMBER),
    st.builds("genwerner:{}:{}:{}".format, ANY_NUMBER, ANY_NUMBER, ANY_NUMBER),
    st.text(max_size=10),
)
PLAIN_STATE = st.one_of(
    st.just("bell"),
    st.builds("werner:{!r}".format, st.floats(-1.0, 1.0 / 3.0)),
    st.builds("genwerner:{!r}:{!r}:{!r}".format, *[st.floats(-1.0, 0.0)] * 3),
)


def _float_key(low, high):
    return st.floats(low, high).map(repr), ANY_NUMBER


# (plausible, wild) values per key: plausible ones let most examples get
# through parsing and run the sweep; the keys drawn as wild get the second.
VALUES = {
    "grid_start": _float_key(0.0, 5.0),
    "grid_stop": _float_key(5.0, 50.0),
    "detuning_prime_a": _float_key(-10.0, 10.0),
    "detuning_prime_b": _float_key(-10.0, 10.0),
    "rabi_ratio_a": _float_key(0.0, 10.0),
    "rabi_ratio_b": _float_key(0.0, 10.0),
    "rect_omega": _float_key(0.0, 10.0),
    # capped: the property is about values, never about grid size
    "grid_points": (st.integers(2, 64).map(str), st.integers(-3, 64).map(str)),
    "initial_states": (
        st.lists(PLAIN_STATE, min_size=1, max_size=3).map(", ".join),
        st.lists(st.one_of(PLAIN_STATE, WILD_STATE), max_size=3).map(", ".join),
    ),
}


@st.composite
def config_text(draw, modes=tuple(CoefficientMode)):
    """Config text that is mostly well formed, with a few arbitrary parts."""
    wild = draw(st.sets(st.sampled_from(sorted(VALUES)), max_size=2))
    family = draw(st.sampled_from(list(SweepFamily)))
    both = family is SweepFamily.COMBINED_VS_TIME or draw(st.booleans())
    pairs = {
        "family": family.value,
        "drive": "both_qubits" if both else "one_qubit",
        "mode": draw(st.sampled_from(modes)).value,
    }
    for key, (plausible, arbitrary) in VALUES.items():
        pairs[key] = draw(arbitrary if key in wild else plausible)
    lines = [f"{key} = {value}" for key, value in pairs.items()]
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.text(max_size=20)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=300, deadline=None)
@given(config_text())
def test_any_config_text_gives_finite_rows_or_a_typed_error(text):
    try:
        cfg = parse_config(text)
        result = run_sweep(cfg)
    except (InvalidConfig, UnphysicalState):
        return
    assert cfg.grid.points <= 64
    for values in (result.params, result.negativities, result.residues):
        assert np.isfinite(values).all()


def _error_type(route, *args):
    try:
        route(*args)
    except PulsePairError as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(config_text(modes=(CoefficientMode.UNITARY,)))
def test_unitary_sweep_agrees_with_the_long_route(text):
    # the unitary route gives every cell its state's initial negativity; the
    # long route evolves each cell and takes its closed form
    try:
        cfg = parse_config(text)
    except (InvalidConfig, UnphysicalState):
        return
    assert cfg.mode is CoefficientMode.UNITARY
    try:
        negativities, residues = scenarios._long_route(cfg, cfg.grid.values())
    except PulsePairError as exc:
        assert _error_type(run_sweep, cfg) is type(exc)
        return
    result = run_sweep(cfg)
    assert np.abs(result.negativities - negativities).max() <= 1e-12
    assert np.array_equal(residues, np.zeros(cfg.grid.points))
    assert np.array_equal(result.residues, np.zeros(cfg.grid.points))


@pytest.mark.parametrize("mode", list(CoefficientMode))
def test_a_non_finite_map_raises_trace_not_one_on_either_route(monkeypatch, mode):
    grid_maps = scenarios._grid_maps

    def broken(cfg, x):
        m1, m2 = grid_maps(cfg, x)
        m1 = m1.copy()
        m1[-1, 0, 0] = np.nan
        return m1, m2

    cfg = dataclasses.replace(paper_figure_presets()["fig3a"], mode=mode)
    monkeypatch.setattr(scenarios, "_grid_maps", broken)
    assert _error_type(scenarios._long_route, cfg, cfg.grid.values()) is TraceNotOne
    assert _error_type(run_sweep, cfg) is TraceNotOne


# The property test above found this config: a literal-mode sweep of a
# generalized Werner state with one tiny correlation.  Its partial transposes
# have two doubly degenerate eigenvalues, so rounding-level off-diagonals sit
# between equal diagonal entries.  The threshold rule in pauli._jacobi_rotate
# must skip them: a 45-degree rotation on each only halves the off-diagonal
# norm per sweep, which needs more than _MAX_SWEEPS (40) sweeps.
DEGENERATE_LITERAL = """\
family = rect_vs_area
drive = one_qubit
mode = literal
grid_start = 0.0
grid_stop = 5.0
grid_points = 51
detuning_prime_a = 1.0
rect_omega = 0.0
initial_states = genwerner:0.0:-1.0:{c3}
"""


@pytest.mark.parametrize("c3", ["-1e-17", "-1e-30", "-1e-200", "-5.172089916602981e-259"])
def test_degenerate_literal_sweep_gives_finite_rows(c3):
    cfg = parse_config(DEGENERATE_LITERAL.format(c3=c3))
    result = run_sweep(cfg)
    assert np.isfinite(result.negativities).all()
    diagonals = [s.correlations for s in cfg.initial_states]
    tensors, _ = evolve_correlations_batch(diagonals, *scenarios._grid_maps(cfg, cfg.grid.values()))
    raw = oracles.zero_bloch_negativities(tensors)
    assert np.abs(result.negativities - np.where(raw < CLAMP_TOL, 0.0, raw)).max() < 1e-10


# Another config the property test found.  np.linalg.det, which gave the sign
# of det C~, warned "divide by zero" in LAPACK's LU on its subnormal detuning,
# so the RuntimeWarning filter failed about one fresh run in five; the sign
# now comes from the triple product.
SUBNORMAL_DETUNING = """\
family = rect_vs_area
drive = both_qubits
mode = literal
grid_start = 0.0
grid_stop = 5.0
detuning_prime_a = 1.875
detuning_prime_b = 2.2250738585072014e-308
rabi_ratio_a = 0.0
rabi_ratio_b = 0.0
rect_omega = 0.0
grid_points = 3
initial_states = genwerner:-1.0:0.0:0.0
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_detuning_sweep_runs_without_a_warning():
    result = run_sweep(parse_config(SUBNORMAL_DETUNING))
    assert np.array_equal(result.negativities, np.zeros((3, 1)))
    assert np.array_equal(result.residues, np.zeros(3))
