import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from pulsepair import scenarios
from pulsepair.config import format_config, parse_config
from pulsepair.entanglement import CLAMP_TOL
from pulsepair.errors import InvalidConfig, PulsePairError, TraceNotOne, UnphysicalState
from pulsepair.evolution import InitialState, evolve_correlations_batch
from pulsepair.pulses import CoefficientMode, PulseSpec
from pulsepair.scenarios import DriveMode, SweepConfig, SweepFamily, paper_figure_presets, run_sweep

README = Path(__file__).resolve().parents[1] / "README.md"

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


@pytest.mark.parametrize("kind", [np.float64, np.float32, int, bool])
def test_round_trip_stores_every_real_number_as_a_float(kind):
    # numpy >= 2 writes repr(np.float64(2.0)) as "np.float64(2.0)", and "true" is no float
    cfg = dataclasses.replace(
        paper_figure_presets()["fig5a"],
        grid=scenarios.GridSpec(kind(0), kind(1), 11),
        detuning_prime=(kind(1), kind(0)),
        rabi_ratio=(kind(0), kind(1)),
        rect_omega=kind(1),
    )
    values = (cfg.grid.start, cfg.grid.stop, *cfg.detuning_prime, *cfg.rabi_ratio, cfg.rect_omega)
    assert [type(v) for v in values] == [float] * 7
    assert parse_config(format_config(cfg)) == cfg


_WITH_PARAM = {
    "grid_start": lambda cfg, v: dataclasses.replace(cfg, grid=scenarios.GridSpec(v, 5.0, 11)),
    "grid_stop": lambda cfg, v: dataclasses.replace(cfg, grid=scenarios.GridSpec(0.0, v, 11)),
    "detuning_prime_b": lambda cfg, v: dataclasses.replace(cfg, detuning_prime=(0.0, v)),
    "rabi_ratio_a": lambda cfg, v: dataclasses.replace(cfg, rabi_ratio=(v, 5.0)),
    "rect_omega": lambda cfg, v: dataclasses.replace(cfg, rect_omega=v),
}


@pytest.mark.parametrize("key", _WITH_PARAM)
@pytest.mark.parametrize("value", [1j, "2.0", None])
def test_a_parameter_that_is_not_a_real_number_raises_naming_its_key(key, value):
    with pytest.raises(InvalidConfig, match=f"^{key} = .* is not a real number$"):
        _WITH_PARAM[key](paper_figure_presets()["fig5a"], value)


@pytest.mark.parametrize(
    "state",
    [
        InitialState("mystate", (0.0, 0.0, 0.0)),  # a label with no token
        InitialState("werner", (0.1, 0.2, 0.3)),  # werner:0.1 would parse back to (0.1, 0.1, 0.1)
    ],
)
def test_format_refuses_a_state_its_token_cannot_rebuild(state):
    cfg = dataclasses.replace(paper_figure_presets()["fig1a"], initial_states=(state,))
    with pytest.raises(InvalidConfig):
        format_config(cfg)


def test_the_readme_config_example_parses_and_round_trips():
    section = README.read_text(encoding="utf-8").split("### Config files", 1)[1]
    cfg = parse_config(section.split("```\n", 2)[1])
    assert cfg.detuning_prime == (1.0, 0.0)
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
        "junk line\n",  # no equals sign after a complete config
        "grid_stop 20\n",  # likewise, with a known key
    ],
)
def test_defective_lines_raise(mutation):
    with pytest.raises(InvalidConfig) as info:
        parse_config(GOOD + mutation)
    if "=" not in mutation:  # a line that is not key = value is named by its number
        assert str(info.value).startswith(f"line {len(GOOD.splitlines()) + 1}: expected key = value")


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


@pytest.mark.parametrize(
    "pairs, error",
    [
        ({"grid_points": "1", "initial_states": "werner:0.9"}, InvalidConfig),
        ({"grid_start": "nan", "initial_states": "werner:0.9"}, InvalidConfig),
        ({"rabi_ratio_a": "five", "initial_states": "werner:0.9"}, UnphysicalState),
        ({"rect_omega": "nan", "initial_states": "werner:0.9"}, UnphysicalState),
        ({"initial_states": "werner:0.9, ghz"}, UnphysicalState),
        ({"initial_states": "ghz, werner:0.9"}, InvalidConfig),
    ],
)
def test_defects_are_reported_grid_first_then_states_then_parameters(pairs, error):
    lines = [line for line in GOOD.splitlines() if line.partition("=")[0].strip() not in pairs]
    with pytest.raises(error):
        parse_config("\n".join(lines + [f"{key} = {value}" for key, value in pairs.items()]))


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
def config_text(draw, modes=tuple(CoefficientMode), values=VALUES):
    """Config text that is mostly well formed, with a few arbitrary parts."""
    wild = draw(st.sets(st.sampled_from(sorted(values)), max_size=2))
    family = draw(st.sampled_from(list(SweepFamily)))
    both = family is SweepFamily.COMBINED_VS_TIME or draw(st.booleans())
    pairs = {
        "family": family.value,
        "drive": "both_qubits" if both else "one_qubit",
        "mode": draw(st.sampled_from(modes)).value,
    }
    for key, (plausible, arbitrary) in values.items():
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


OPTIONAL_KEYS = ("mode", "detuning_prime_a", "detuning_prime_b", "rabi_ratio_a", "rabi_ratio_b", "rect_omega")


@settings(max_examples=300, deadline=None)
@given(config_text(), st.sets(st.sampled_from(OPTIONAL_KEYS)))
def test_every_config_that_parses_round_trips(text, omitted):
    text = "".join(line + "\n" for line in text.splitlines() if line.partition("=")[0].strip() not in omitted)
    try:
        cfg = parse_config(text)
    except (InvalidConfig, UnphysicalState):
        return
    defaults = {field.name: field.default for field in dataclasses.fields(SweepConfig)}
    for key in omitted & {"mode", "rect_omega"}:
        assert getattr(cfg, key) == defaults[key]
    written = format_config(cfg)
    assert parse_config(written) == cfg
    assert format_config(parse_config(written)) == written


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
    # the long route of either mode evolves the maps, so a NaN in them is a
    # typed error; only a detuned LITERAL sweep takes it, so a UNITARY sweep
    # and a resonant LITERAL one build no maps and never meet the NaN
    grid_maps = scenarios._grid_maps

    def broken(cfg, x):
        m1, m2 = grid_maps(cfg, x)
        m1 = m1.copy()
        m1[-1, 0, 0] = np.nan
        return m1, m2

    monkeypatch.setattr(scenarios, "_grid_maps", broken)
    for name in ("fig1b", "fig3a"):
        cfg = dataclasses.replace(paper_figure_presets()[name], mode=mode)
        assert _error_type(scenarios._long_route, cfg, cfg.grid.values()) is TraceNotOne
        if (name, mode) == ("fig1b", CoefficientMode.LITERAL):
            assert _error_type(run_sweep, cfg) is TraceNotOne
        else:
            assert np.isfinite(run_sweep(cfg).negativities).all()


# Every key at its extremes, on 5-point grids: detunings from 5e-324 to 1e6 in
# size, ratios from 0 to 1e6, rect_omega from 1e-6 to 1e6, stop from 1e-300 to 1e6.
_EXTREME = st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, 1e-6, -1.0, 1.0, 1e3, -1e6, 1e6]).map(repr)
EXTREME_VALUES = {
    **{key: (_EXTREME, _EXTREME) for key in ("detuning_prime_a", "detuning_prime_b")},
    **{key: (st.sampled_from(["0.0", "1e-6", "1.0", "1e6"]),) * 2 for key in ("rabi_ratio_a", "rabi_ratio_b")},
    "rect_omega": (st.sampled_from(["1e-6", "1e-3", "1.0", "1e6"]),) * 2,
    "grid_start": (st.just("0.0"),) * 2,
    "grid_stop": (st.sampled_from(["1e-300", "1e-6", "1.0", "20.0", "1e6"]),) * 2,
    "grid_points": (st.just("5"),) * 2,
    "initial_states": VALUES["initial_states"][:1] * 2,
}


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(config_text(modes=(CoefficientMode.LITERAL,), values=v) for v in (VALUES, EXTREME_VALUES))))
# diag(c_xx, 0, c_zz) has negativity 2**-10, whose 12th digit is in doubt: Jacobi prints it otherwise on the evolved tensors
@example(
    "family = exp_vs_time\ndrive = one_qubit\nmode = literal\nrabi_ratio_a = 1.0\ngrid_start = 0.0\ngrid_stop = 1.0\n"
    "grid_points = 5\ninitial_states = genwerner:-0.82421875:-0.25:-0.177734375\n"
)
def test_resonant_literal_sweep_prints_the_long_route_bytes(text):
    # a LITERAL sweep whose pulses all have delta = 0 gives each cell the value
    # of diag(c_xx, 0, c_zz) (its state's initial one at an identity point)
    # without evolving, unless one of those values is in doubt; the long route
    # evolves every cell and must print alike
    try:
        cfg = parse_config(text)
    except (InvalidConfig, UnphysicalState):
        return
    assert cfg.mode is CoefficientMode.LITERAL
    if any(delta for _, delta, _, _ in scenarios._grid_pulses(cfg)):  # the route run_sweep reads
        return
    event("resonant")
    grid = cfg.grid.values()
    assert run_sweep(cfg).csv_text() == scenarios.SweepResult(cfg, grid, *scenarios._long_route(cfg, grid)).csv_text()


def _factory_specs(cfg):
    """The checked PulseSpecs that the factories give for a sweep's pulses (Omega = gamma_p = 1)."""
    if cfg.family is SweepFamily.RECT_VS_AREA:
        window = 2.0 * math.pi * cfg.grid.stop
        pa, pb = (PulseSpec.rectangular(1.0, window, delta) for delta in cfg.detuning_prime)
    elif cfg.family is SweepFamily.EXP_VS_TIME:
        pa, pb = (PulseSpec.exponential(ratio, 1.0) for ratio in cfg.rabi_ratio)
    else:
        omega = cfg.rect_omega
        pa = PulseSpec.rectangular(omega, cfg.grid.stop, cfg.detuning_prime[0] * omega)
        pb = PulseSpec.exponential(cfg.rabi_ratio[1], 1.0)
    if cfg.drive is DriveMode.ONE_QUBIT:
        pb = PulseSpec.none()
    return pa, pb


def _assert_grid_pulses_are_the_factory_specs(cfg):
    # plain floats, which PulseSpec turns into the factories' specs bit for bit
    fields = scenarios._grid_pulses(cfg)
    assert [[type(v) for v in f] for f in fields] == [[float] * 4] * 2
    for f, spec in zip(fields, _factory_specs(cfg)):
        assert [a.tobytes() for a in PulseSpec(*f)] == [a.tobytes() for a in spec]


@pytest.mark.parametrize("mode", list(CoefficientMode))
@pytest.mark.parametrize("name", sorted(paper_figure_presets()))
def test_grid_pulse_fields_of_every_preset_build_the_factory_specs(name, mode):
    _assert_grid_pulses_are_the_factory_specs(dataclasses.replace(paper_figure_presets()[name], mode=mode))


@settings(max_examples=300, deadline=None)
@given(st.one_of(config_text(), config_text(values=EXTREME_VALUES)))
def test_grid_pulse_fields_of_every_config_build_the_factory_specs(text):
    try:
        cfg = parse_config(text)
    except (InvalidConfig, UnphysicalState):
        return
    _assert_grid_pulses_are_the_factory_specs(cfg)


def test_only_a_detuned_literal_sweep_builds_pulse_specs(monkeypatch):
    # the route comes from plain fields; _grid_maps alone builds (and so checks) PulseSpecs
    built = []

    def spy(*fields):
        built.append(fields)
        return PulseSpec(*fields)

    monkeypatch.setattr(scenarios, "PulseSpec", spy)
    presets = paper_figure_presets()
    # fig3a literal with detuning_prime_a = 3.0, a slot exp_vs_time ignores, stays resonant
    slot = dataclasses.replace(presets["fig3a"], mode=CoefficientMode.LITERAL, detuning_prime=(3.0, 0.0))
    for (name, cfg), mode in itertools.product(presets.items(), CoefficientMode):
        built.clear()
        run_sweep(dataclasses.replace(cfg, mode=mode))
        detuned = name in ("fig1b", "fig2b") and mode is CoefficientMode.LITERAL
        assert len(built) == (2 if detuned else 0), (name, mode)
    built.clear()
    run_sweep(slot)
    assert built == []


@settings(max_examples=300, deadline=None)
@given(st.one_of(config_text(), config_text(values=EXTREME_VALUES)))
def test_the_maps_of_every_config_that_constructs_are_finite(text):
    # why a UNITARY sweep may skip its maps: no config reaches their errors
    try:
        cfg = parse_config(text)
    except (InvalidConfig, UnphysicalState):
        return
    for m in scenarios._grid_maps(cfg, cfg.grid.values()):
        assert np.isfinite(m).all()


# test_any_config_text_gives_finite_rows_or_a_typed_error found this config:
# a literal-mode sweep of a generalized Werner state with one tiny
# correlation.  Its partial transposes
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
