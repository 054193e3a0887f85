"""Flat key = value config files describing one sweep.

The format is deliberately dumb: one `key = value` pair per line, `#`
starts a comment, blank lines ignored.  Keys mirror the SweepConfig
fields; initial states are a comma list of tokens

    bell | werner:<x> | genwerner:<c_xx>:<c_yy>:<c_zz>

A config written by format_config parses back to an equal SweepConfig,
which the test suite pins as a round-trip property.
"""

from .errors import InvalidConfig
from .evolution import InitialState
from .pulses import CoefficientMode
from .scenarios import DriveMode, GridSpec, SweepConfig, SweepFamily

__all__ = ["parse_config", "format_config"]

_REQUIRED = ("family", "drive", "grid_start", "grid_stop", "grid_points", "initial_states")
_OPTIONAL = (
    "mode",
    "detuning_prime_a",
    "detuning_prime_b",
    "rabi_ratio_a",
    "rabi_ratio_b",
    "rect_omega",
)


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InvalidConfig(f"{key}: not a number: {raw!r}") from None


def _parse_enum(kind, key: str, raw: str):
    try:
        return kind(raw.lower())
    except ValueError:
        raise InvalidConfig(f"unknown {key} {raw!r}") from None


def _parse_state(token: str) -> InitialState:
    parts = token.split(":")
    name = parts[0].strip().lower()
    args = [p.strip() for p in parts[1:]]
    if name == "bell":
        if args:
            raise InvalidConfig("bell takes no parameters")
        return InitialState.bell_singlet()
    if name == "werner":
        if len(args) != 1:
            raise InvalidConfig("werner takes exactly one parameter, werner:<x>")
        return InitialState.werner(_parse_float("werner", args[0]))
    if name == "genwerner":
        if len(args) != 3:
            raise InvalidConfig("genwerner takes three parameters, genwerner:<cxx>:<cyy>:<czz>")
        return InitialState.generalized_werner(*(_parse_float("genwerner", a) for a in args))
    raise InvalidConfig(f"unknown initial state {name!r}")


def _format_state(state: InitialState) -> str:
    c = state.correlations
    if state.label == "bell":
        return "bell"
    if state.label == "werner":
        return f"werner:{c[0]!r}"
    return f"genwerner:{c[0]!r}:{c[1]!r}:{c[2]!r}"


def parse_config(text: str) -> SweepConfig:
    """Parse config text into a SweepConfig; raises InvalidConfig on any defect."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise InvalidConfig(f"line {lineno}: empty key or value")
        if key in pairs:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value

    unknown = set(pairs) - set(_REQUIRED) - set(_OPTIONAL)
    if unknown:
        raise InvalidConfig(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED if k not in pairs]
    if missing:
        raise InvalidConfig(f"missing keys: {', '.join(missing)}")

    family = _parse_enum(SweepFamily, "family", pairs["family"])
    drive = _parse_enum(DriveMode, "drive", pairs["drive"])
    mode = _parse_enum(CoefficientMode, "mode", pairs.get("mode", "unitary"))

    try:
        points = int(pairs["grid_points"])
    except ValueError:
        raise InvalidConfig(f"grid_points: not an integer: {pairs['grid_points']!r}") from None
    grid = GridSpec(
        start=_parse_float("grid_start", pairs["grid_start"]),
        stop=_parse_float("grid_stop", pairs["grid_stop"]),
        points=points,
    )
    states = tuple(
        _parse_state(tok) for tok in pairs["initial_states"].split(",") if tok.strip()
    )
    if not states:
        raise InvalidConfig("initial_states must list at least one state")
    return SweepConfig(
        family=family,
        initial_states=states,
        drive=drive,
        grid=grid,
        mode=mode,
        detuning_prime=(
            _parse_float("detuning_prime_a", pairs.get("detuning_prime_a", "0.0")),
            _parse_float("detuning_prime_b", pairs.get("detuning_prime_b", "0.0")),
        ),
        rabi_ratio=(
            _parse_float("rabi_ratio_a", pairs.get("rabi_ratio_a", "5.0")),
            _parse_float("rabi_ratio_b", pairs.get("rabi_ratio_b", "5.0")),
        ),
        rect_omega=_parse_float("rect_omega", pairs.get("rect_omega", "1.0")),
    )


def format_config(cfg: SweepConfig) -> str:
    """Render a SweepConfig as config text that parses back to an equal value."""
    states = ", ".join(_format_state(s) for s in cfg.initial_states)
    lines = [
        "# pulsepair sweep configuration",
        f"family = {cfg.family.value}",
        f"drive = {cfg.drive.value}",
        f"mode = {cfg.mode.value}",
        f"detuning_prime_a = {cfg.detuning_prime[0]!r}",
        f"detuning_prime_b = {cfg.detuning_prime[1]!r}",
        f"rabi_ratio_a = {cfg.rabi_ratio[0]!r}",
        f"rabi_ratio_b = {cfg.rabi_ratio[1]!r}",
        f"rect_omega = {cfg.rect_omega!r}",
        f"grid_start = {cfg.grid.start!r}",
        f"grid_stop = {cfg.grid.stop!r}",
        f"grid_points = {cfg.grid.points}",
        f"initial_states = {states}",
    ]
    return "\n".join(lines) + "\n"
