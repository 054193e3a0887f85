"""Flat key = value config files describing one sweep.

One `key = value` pair per line, `#` starts a comment, blank lines are
ignored.  A key names a SweepConfig field, an entry `<field>_a`/`<field>_b`
of a per-qubit pair, or a GridSpec attribute `grid_<name>`; a key that a
file leaves out takes its field's default.  Initial states are a comma list
of tokens `bell | werner:<x> | genwerner:<c_xx>:<c_yy>:<c_zz>`.  A config
written by format_config parses back to an equal SweepConfig.
"""

import contextlib
import dataclasses
import itertools
from enum import Enum

from .errors import InvalidConfig, PulsePairError
from .evolution import InitialState
from .pulses import CoefficientMode
from .scenarios import DriveMode, GridSpec, SweepConfig, SweepFamily

__all__ = ["parse_config", "format_config"]

# SweepConfig field -> its default (None: required); a per-qubit pair's entries are _a and _b
_DEFAULTS = {f.name: None if f.default is dataclasses.MISSING else f.default for f in dataclasses.fields(SweepConfig)}
_QUBITS = ("a", "b")


def _locate(key: str) -> tuple[str, str | None]:
    """The field a key sets, and which part of it: None (all of it), a qubit or a GridSpec attribute."""
    field, _, part = key.rpartition("_")
    return (key, None) if key in _DEFAULTS else (field, part)


def _read(fields: dict, key: str):
    """A key's value in a mapping of SweepConfig fields; a None field gives None."""
    field, part = _locate(key)
    value = fields[field]
    if value is None or part is None:
        return value
    return value[_QUBITS.index(part)] if part in _QUBITS else getattr(value, part)


# state token, which is also the state's label -> (constructor, parameter count)
_STATES = {
    "bell": (InitialState.bell_singlet, 0), "werner": (InitialState.werner, 1),
    "genwerner": (InitialState.generalized_werner, 3),
}


def _states(raw: str) -> tuple[InitialState, ...]:
    """The initial states of a comma list of state tokens."""
    states = []
    for token in filter(str.strip, raw.split(",")):
        name, *args = (part.strip() for part in token.split(":"))
        if name not in _STATES or len(args) != _STATES[name][1]:
            raise InvalidConfig(f"state {token.strip()!r} is not bell, werner:<x> or genwerner:<cxx>:<cyy>:<czz>")
        states.append(_STATES[name][0](*map(float, args)))
    return tuple(states)


def _token(state: InitialState) -> str:
    """A state's token; raises InvalidConfig unless the token parses back to this very state."""
    token = ":".join([state.label, *map(repr, state.correlations[: _STATES.get(state.label, (None, 0))[1]])])
    with contextlib.suppress(PulsePairError, ValueError):  # a label holding a colon, say
        if _states(token) == (state,):
            return token
    raise InvalidConfig(f"no state token gives {state}")


# key -> (type, default) in file order; the type parses the text, and None marks a required key
_KEYS = {
    key: (kind, _read(_DEFAULTS, key))
    for key, kind in [
        ("family", SweepFamily), ("drive", DriveMode), ("mode", CoefficientMode),
        ("detuning_prime_a", float), ("detuning_prime_b", float), ("rabi_ratio_a", float), ("rabi_ratio_b", float),
        ("rect_omega", float), ("grid_start", float), ("grid_stop", float), ("grid_points", int),
        ("initial_states", _states),
    ]
}


def _whole(parts: dict):
    """A field from its parts: the one whole value, a per-qubit pair or a GridSpec."""
    return parts[None] if None in parts else tuple(parts.values()) if set(parts) == set(_QUBITS) else GridSpec(**parts)


def parse_config(text: str) -> SweepConfig:
    """Parse config text into a SweepConfig; raises InvalidConfig, or UnphysicalState for an unphysical state."""
    given: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, equals, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
        if not (key or equals or value):
            continue
        if not (key and equals and value):
            raise InvalidConfig(f"line {lineno}: expected key = value, got {raw!r}")
        if key in given:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        given[key] = value.lower()
    unknown = sorted(given.keys() - _KEYS.keys())
    missing = [key for key, (_, default) in _KEYS.items() if default is None and key not in given]
    if unknown or missing:
        raise InvalidConfig(f"unknown keys: {', '.join(unknown)}" if unknown else f"missing keys: {', '.join(missing)}")

    def parsed(key):
        kind, default = _KEYS[key]
        try:
            return kind(given[key]) if key in given else default
        except ValueError as exc:
            raise InvalidConfig(f"{key}: {exc}") from None

    # Pulse parameters (the optional numbers) are read last and a field is built once its keys are
    # read, so a defect of the grid is reported before a state's, and a state's before a parameter's.
    order = sorted(_KEYS, key=lambda key: _KEYS[key][0] is float and _KEYS[key][1] is not None)
    groups = itertools.groupby(order, key=lambda key: _locate(key)[0])
    return SweepConfig(**{field: _whole({_locate(key)[1]: parsed(key) for key in keys}) for field, keys in groups})


def format_config(cfg: SweepConfig) -> str:
    """Render a SweepConfig as config text that parses back to an equal value; raises InvalidConfig otherwise."""
    lines = ["# pulsepair sweep configuration"]
    for key, (kind, _) in _KEYS.items():
        value = _read(vars(cfg), key)
        if kind is _states:
            value = ", ".join(map(_token, value))
        lines.append(f"{key} = {value.value if isinstance(value, Enum) else repr(value) if kind is float else value}")
    return "\n".join(lines) + "\n"
