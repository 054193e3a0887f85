"""Sweep families: negativity against pulse area or normalized time.

Three families cover the figure-style parameter scans this tool ships:

* RECT_VS_AREA: rectangular drive, sweep the pulse area parameter
  n = Omega T / (2 pi) and evaluate at the end of the pulse, t = T.
  Rates are normalized to Omega = 1; detunings are given as
  Delta' = Delta / Omega.  n = 0 means no pulse at all.
* EXP_VS_TIME: resonant exponential drive with gamma_p = 1, sweep the
  normalized time T' = gamma_p t.  Drive strength enters as the ratio
  Omega / gamma_p per qubit.
* COMBINED_VS_TIME: rectangular drive (strength rect_omega, window
  covering the whole grid) on qubit a and an exponential drive on qubit
  b, swept over T' as above.

Each sweep evaluates every configured initial state at every grid point
and records one negativity per state plus the row-wise maximum
imaginary residue (zero everywhere except LITERAL mode with a detuned
rectangular drive).  Evaluation is strictly deterministic: identical
configurations give bit-identical results, and grid values are defined as
start + i * step (the last clamped to stop) so refining a grid never moves
the shared nodes.

A sweep takes one of three routes.  A UNITARY sweep builds no maps: they
are proper rotations, which keep the negativity exactly, so each cell has
its state's initial value (Vidal & Werner, PRA 65, 032314, 2002).  Nor does
a resonant LITERAL sweep: its printed maps (B = 0, A = e_x, D a unit vector)
give C~ = c_xx e_x e_x^T + c_zz D1 D2^T, whose singular values |c_xx|, |c_zz|
and 0 are those of diag(c_xx, 0, c_zz) (Horodecki & Horodecki, PRA 54, 1838,
1996); every residue is 0.  Both take these values from _fixed_negativities,
computed once per process for each set of states.  A resonant LITERAL sweep
where one of those values has its 12th digit in doubt takes the long route
instead: Jacobi decides that digit, and may decide it otherwise on the evolved
tensors than on diag(c_xx, 0, c_zz).  A detuned LITERAL sweep takes the
grid in chunks of at most _CHUNK_CELLS (point, state) cells, and each chunk
the long route: maps, evolved tensors, closed-form negativities (Jacobi on a
density where the 12th digit is in doubt).  No stage mixes matrices, so the
chunk size never changes a bit.
"""

import functools
import math
import numbers
import operator
import os
import shutil
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entanglement import CLAMP_TOL, _clamp, _density_negativities, zero_bloch_negativity_batch
from .errors import InvalidConfig
from .evolution import InitialState, _diagonal_tensors, evolve_correlations_batch
from .pauli import hermitian_eigenvalues_batch
from .pulses import CoefficientMode, PulseSpec, coefficient_map_batch

__all__ = [
    "SweepFamily",
    "DriveMode",
    "GridSpec",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "paper_figure_presets",
    "detect_sudden_death",
    "DEATH_TOL",
    "PARAM_LIMIT",
]

DEATH_TOL = 1e-9
#: Largest magnitude of any float a sweep is built from (1/PARAM_LIMIT is the
#: smallest rect_omega); far outside it the maps over- or underflow to NaN.
PARAM_LIMIT = 1e6
#: Most (grid point, initial state) cells per batch; a preset's 2403 fit in one.
_CHUNK_CELLS = 4096


def _check_param(name: str, value) -> float:
    """value as a Python float; raises InvalidConfig unless it is a real number of size at most PARAM_LIMIT."""
    if not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} = {value!r} is not a real number")
    if not abs(value) <= PARAM_LIMIT:  # false for NaN and inf too
        raise InvalidConfig(f"{name} = {value!r} is not finite or exceeds {PARAM_LIMIT:g} in size")
    return float(value)


class SweepFamily(Enum):
    RECT_VS_AREA = "rect_vs_area"
    EXP_VS_TIME = "exp_vs_time"
    COMBINED_VS_TIME = "combined_vs_time"


class DriveMode(Enum):
    ONE_QUBIT = "one_qubit"
    BOTH_QUBITS = "both_qubits"


@dataclass(frozen=True)
class GridSpec:
    """Uniform sweep grid: points values from start to stop inclusive."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "start", _check_param("grid_start", self.start))
        object.__setattr__(self, "stop", _check_param("grid_stop", self.stop))
        try:
            operator.index(self.points)
        except TypeError:
            raise InvalidConfig(f"grid_points = {self.points!r} is not an integer") from None
        if not 2 <= self.points <= PARAM_LIMIT:
            raise InvalidConfig(f"grid_points = {self.points} is outside [2, {PARAM_LIMIT:g}]")
        if self.start < 0.0:
            raise InvalidConfig("grid start must be non-negative")
        if self.stop <= self.start:
            raise InvalidConfig("grid stop must exceed start")

    def values(self) -> np.ndarray:
        step = (self.stop - self.start) / (self.points - 1)
        # the last node can round one ulp past stop, out of the combined window
        return np.minimum(self.start + step * np.arange(self.points), self.stop)


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep.

    detuning_prime and rabi_ratio hold one value per qubit (a, b), (0, 0) and
    (5, 5) by default; a family ignores the slots it does not use.  rect_omega
    (default 1) is qubit a's rectangle strength in the combined family.
    """

    family: SweepFamily
    initial_states: tuple[InitialState, ...]
    drive: DriveMode
    grid: GridSpec
    mode: CoefficientMode = CoefficientMode.UNITARY
    detuning_prime: tuple[float, float] = (0.0, 0.0)
    rabi_ratio: tuple[float, float] = (5.0, 5.0)
    rect_omega: float = 1.0

    def __post_init__(self):
        for key in ("initial_states", "detuning_prime", "rabi_ratio"):
            try:
                object.__setattr__(self, key, tuple(getattr(self, key)))
            except TypeError:
                raise InvalidConfig(f"{key} = {getattr(self, key)!r} is not a sequence") from None
        for key, kind in (("family", SweepFamily), ("drive", DriveMode), ("grid", GridSpec), ("mode", CoefficientMode)):
            if not isinstance(getattr(self, key), kind):
                raise InvalidConfig(f"{key} = {getattr(self, key)!r} is not a {kind.__name__}")
        if not self.initial_states or not all(isinstance(s, InitialState) for s in self.initial_states):
            raise InvalidConfig(f"initial_states = {self.initial_states!r} is not one or more InitialState values")
        if len(self.detuning_prime) != 2 or len(self.rabi_ratio) != 2:
            raise InvalidConfig("detuning_prime and rabi_ratio take one value per qubit")
        for key, pair in (("detuning_prime", self.detuning_prime), ("rabi_ratio", self.rabi_ratio)):
            object.__setattr__(self, key, tuple(_check_param(f"{key}_{q}", v) for q, v in zip("ab", pair)))
        object.__setattr__(self, "rect_omega", _check_param("rect_omega", self.rect_omega))
        if min(self.rabi_ratio) < 0.0:
            raise InvalidConfig("rabi_ratio entries must be non-negative")
        if self.family is SweepFamily.COMBINED_VS_TIME:
            if self.drive is not DriveMode.BOTH_QUBITS:
                raise InvalidConfig("the combined family drives both qubits by construction")
            if self.rect_omega < 1.0 / PARAM_LIMIT:
                raise InvalidConfig(f"rect_omega must be at least {1.0 / PARAM_LIMIT:g}")


@dataclass(frozen=True)
class SweepResult:
    """Sweep output: parameter values, per-state negativities, residues."""

    config: SweepConfig
    params: np.ndarray
    negativities: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        for name in ("params", "negativities", "residues"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def csv_text(self) -> str:
        """CSV text, each cell as _CELL prints it.

        Row 0 prints apart.  After it, a column whose bytes are one cell's repeated is formatted once; bytes keep
        -0.0 and NaN payloads apart, and one column is copied at a time, so the fold's temporaries stay small.
        """
        labels = ",".join(f"E_{s.label}" for s in self.config.initial_states)
        table = np.column_stack((self.params, self.negativities, self.residues))
        first, rest = table[:1], table[1:]  # row 0 prints apart: an area sweep's identity point differs
        folded = np.array([rest[:, j].tobytes() == rest[:1, j].tobytes() * len(rest) for j in range(table.shape[1])])
        folded &= len(rest) > 0
        row = ",".join(_CELL % rest[0, j] if f else _CELL for j, f in enumerate(folded))
        text = ("\n" + ",".join([_CELL] * len(folded))) * len(first) % tuple(first.ravel().tolist())
        if not folded[0] and folded[1:].all() and len(rest) <= _MEMO_ROWS:  # only the parameter column varies
            tail = row[len(_CELL):]
            text += "\n" + (tail + "\n").join(_param_cells(rest[:, 0].tobytes())) + tail
        else:
            text += ("\n" + row) * len(rest) % tuple(rest[:, ~folded].ravel().tolist())
        return f"param,{labels},imag_residue{text}\n"

    def write_csv(self, path) -> None:
        """Write csv_text() to a temporary file beside path, then rename it over path.

        A symlink's target is replaced, an existing file keeps its mode, and a FIFO or a
        device is written in place.  The README says what a failure leaves behind.
        """
        # a name ending in a separator, a parent that is no directory (realpath would drop the separator, or
        # collapse x/.. without looking at x), or no earlier content to keep: opened in place, as a plain write opens it
        named_dir = os.fsdecode(path).endswith((os.sep, os.altsep or os.sep))
        no_parent = not os.path.isdir(os.path.dirname(path) or os.curdir)
        if named_dir or no_parent or os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(self.csv_text())
            return
        path = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
        fh = open(tmp, "x", encoding="ascii", newline="\n")
        try:
            with fh:
                fh.write(self.csv_text())
            if os.path.exists(path):
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise


#: One CSV cell, 12 significant digits: csv_text and the guard's _fmt both print with it.
_CELL = "%.12g"


def _fmt(v: float) -> str:
    return _CELL % v


#: _param_cells keeps at most _MEMO_GRIDS columns; csv_text asks it for none longer than _MEMO_ROWS cells.
_MEMO_GRIDS, _MEMO_ROWS = 4, 4096


@functools.lru_cache(maxsize=_MEMO_GRIDS)
def _param_cells(bits: bytes) -> tuple[str, ...]:
    """The _CELL text of each float64 in bits, kept per process: the presets print two grids' columns."""
    return tuple([_CELL % v for v in np.frombuffer(bits).tolist()])


#: Widest closed-form vs Jacobi negativity gap _negativities allows for; the
#: largest measured is 3.6e-15, over 20 000 random tensors and every preset cell.
_JACOBI_MARGIN = 3e-14


def _in_doubt(raw: np.ndarray) -> np.ndarray:
    """Indices of the raw negativities that, moved by _JACOBI_MARGIN either way, print otherwise after the clamp."""
    lo, hi = (_clamp(raw + shift) for shift in (-_JACOBI_MARGIN, _JACOBI_MARGIN))
    # Only these cells are formatted: hi is not 0, and lo or hi lies outside the
    # decade log10 gives for hi, or [lo, hi] reaches a tie k + 1/2 in units of
    # its 12th digit (1e-3 units spare for rounding); the rest print alike.
    unit = 10.0 ** (np.floor(np.log10(np.maximum(hi, CLAMP_TOL))) - 11)
    a, b = lo / unit - 0.5, hi / unit - 0.5
    near = (a < 1e11) | (b > 1e12 - 2.0) | (np.floor(a - 1e-3) != np.floor(b + 1e-3))
    maybe = np.flatnonzero((hi > 0.0) & near)
    pairs = zip(lo[maybe].tolist(), hi[maybe].tolist())
    return maybe[np.array([_fmt(x) != _fmt(y) for x, y in pairs], dtype=bool)]


def _negativities(tensors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped negativities of (N, 3, 3) tensors, each printing as its Jacobi value does, and the cells in doubt.

    A cell whose closed form has its 12th digit in doubt (_in_doubt) is solved
    through its density instead; a chunk with no such cell never reaches Jacobi.
    """
    raw = zero_bloch_negativity_batch(tensors)
    doubt = _in_doubt(raw)
    values = _clamp(raw)
    if doubt.size:
        values[doubt] = _density_negativities(tensors[doubt], hermitian_eigenvalues_batch)[0]
    return values, doubt


#: _fixed_negativities keeps the values of at most _MEMO_STATE_SETS sets of initial states.
_MEMO_STATE_SETS = 4


@functools.lru_cache(maxsize=_MEMO_STATE_SETS)
def _fixed_negativities(bits: bytes) -> tuple[np.ndarray, np.ndarray | None]:
    """Read-only (S,) arrays: initial negativities of the states whose diagonals are bits, then of diag(c_xx, 0, c_zz).

    The second is None when one of its cells is in doubt (_in_doubt): such a resonant LITERAL sweep takes the long route.
    """
    c = np.frombuffer(bits).reshape(-1, 3).tolist()
    values, doubt = _negativities(_diagonal_tensors(c + [(x, 0.0, z) for x, _, z in c]))
    values = values.reshape(2, -1)
    values.setflags(write=False)
    return values[0], None if (doubt >= len(c)).any() else values[1]


def _grid_pulses(cfg: SweepConfig) -> tuple[tuple[float, float, float, float], ...]:
    """Unchecked PulseSpec fields of the qubits' pulses (pa, pb) at Omega = gamma_p = 1, as tuples of floats."""
    if cfg.family is SweepFamily.RECT_VS_AREA:
        # each point is its own pulse ending at t = 2 pi n (_grid_maps); one window admits them all
        pa, pb = ((1.0, delta, 2.0 * math.pi * cfg.grid.stop, 0.0) for delta in cfg.detuning_prime)
    elif cfg.family is SweepFamily.EXP_VS_TIME:
        pa, pb = ((ratio, 0.0, math.inf, 1.0) for ratio in cfg.rabi_ratio)
    else:  # rectangle on qubit a spanning the whole grid, exponential on b
        pa = (cfg.rect_omega, cfg.detuning_prime[0] * cfg.rect_omega, cfg.grid.stop, 0.0)
        pb = (cfg.rabi_ratio[1], 0.0, math.inf, 1.0)
    return pa, (0.0, 0.0, math.inf, 0.0) if cfg.drive is DriveMode.ONE_QUBIT else pb


def _identity_points(cfg: SweepConfig, x: np.ndarray) -> np.ndarray:
    """Mask of grid values x where no pulse acts (n = 0 of RECT_VS_AREA), so the maps are np.eye(3)."""
    return (x == 0.0) & (cfg.family is SweepFamily.RECT_VS_AREA)


def _grid_maps(cfg: SweepConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient maps (m1, m2), each (N, 3, 3), at grid values x, of the checked PulseSpecs of _grid_pulses."""
    t = 2.0 * math.pi * x if cfg.family is SweepFamily.RECT_VS_AREA else x
    idle = _identity_points(cfg, x)
    m1, m2 = (coefficient_map_batch(PulseSpec(*fields), t, cfg.mode) for fields in _grid_pulses(cfg))
    m1[idle] = m2[idle] = np.eye(3)  # the literal closed forms at t = 0 are not the identity bit for bit
    return m1, m2


def _long_route(cfg: SweepConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativities (N, S) and residues (N,) at grid values x: maps, evolved tensors, closed form."""
    tensors, residues = evolve_correlations_batch([s.correlations for s in cfg.initial_states], *_grid_maps(cfg, x))
    return _negativities(tensors.reshape(-1, 3, 3))[0].reshape(tensors.shape[:2]), residues


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep configuration over its whole grid, by one of three routes.

    A UNITARY cell has its state's initial negativity; a resonant LITERAL one
    (every pulse of _grid_pulses has delta = 0) that of diag(c_xx, 0, c_zz), or at an
    identity point (_identity_points) the initial one; detuned LITERAL chunks
    take _long_route, and so do resonant LITERAL ones whose diag(c_xx, 0, c_zz)
    has a cell in doubt (_fixed_negativities gives them None).  Raises
    ConvergenceFailure if a Jacobi solve fails.
    The grid keeps rectangles' t in their windows and PARAM_LIMIT angles in
    the float range, so the maps of any config that constructs are finite.
    """
    grid = cfg.grid.values()
    negativities = np.empty((len(grid), len(cfg.initial_states)))
    residues = np.zeros(len(grid))
    literal = cfg.mode is CoefficientMode.LITERAL
    initial = resonant = None
    if not (literal and any(delta for _, delta, _, _ in _grid_pulses(cfg))):
        # once per process for each set of states: their initial negativities, then those of diag(c_xx, 0, c_zz)
        initial, resonant = _fixed_negativities(np.array([s.correlations for s in cfg.initial_states]).tobytes())
    fixed = resonant if literal else initial
    if fixed is None:
        step = max(1, _CHUNK_CELLS // len(cfg.initial_states))
        for chunk in (slice(lo, lo + step) for lo in range(0, len(grid), step)):
            negativities[chunk], residues[chunk] = _long_route(cfg, grid[chunk])
    else:
        negativities[:] = fixed
        negativities[_identity_points(cfg, grid)] = initial
    return SweepResult(config=cfg, params=grid, negativities=negativities, residues=residues)


def paper_figure_presets() -> dict[str, SweepConfig]:
    """The named figure-style presets, keyed fig1a..fig5d.

    All presets share the three standard initial states (Bell singlet,
    Werner -0.9, generalized Werner (-0.9, -0.8, -0.7)) and default to
    UNITARY mode.  Parameter slots a preset does not consume are zero.
    """
    states = (
        InitialState.bell_singlet(),
        InitialState.werner(-0.9),
        InitialState.generalized_werner(-0.9, -0.8, -0.7),
    )
    area, one, both = SweepFamily.RECT_VS_AREA, DriveMode.ONE_QUBIT, DriveMode.BOTH_QUBITS
    exp, combined = SweepFamily.EXP_VS_TIME, SweepFamily.COMBINED_VS_TIME
    # name: family, drive, detuning_prime, rabi_ratio, rect_omega
    table = {
        "fig1a": (area, one, (0.0, 0.0), (0.0, 0.0), 1.0),
        "fig1b": (area, one, (1.0, 0.0), (0.0, 0.0), 1.0),
        "fig2a": (area, both, (0.0, 0.0), (0.0, 0.0), 1.0),
        "fig2b": (area, both, (5.0, 5.0), (0.0, 0.0), 1.0),
        "fig3a": (exp, one, (0.0, 0.0), (5.0, 0.0), 1.0),
        "fig3b": (exp, one, (0.0, 0.0), (10.0, 0.0), 1.0),
        "fig4a": (exp, both, (0.0, 0.0), (5.0, 5.0), 1.0),
        "fig4b": (exp, both, (0.0, 0.0), (10.0, 10.0), 1.0),
        "fig5a": (combined, both, (0.0, 0.0), (0.0, 5.0), 1.0),
        "fig5b": (combined, both, (0.0, 0.0), (0.0, 5.0), 2.0),
        "fig5c": (combined, both, (0.0, 0.0), (0.0, 10.0), 1.0),
        "fig5d": (combined, both, (0.0, 0.0), (0.0, 10.0), 2.0),
    }
    return {
        name: SweepConfig(
            family=family,
            initial_states=states,
            drive=drive,
            grid=GridSpec(0.0, 20.0 if family is area else 5.0, 801),
            detuning_prime=dprime,
            rabi_ratio=ratio,
            rect_omega=rect_omega,
        )
        for name, (family, drive, dprime, ratio, rect_omega) in table.items()
    }


def detect_sudden_death(result: SweepResult, state_index: int = 0) -> list[tuple[float, float]]:
    """Maximal parameter intervals where one state's negativity sits at zero.

    An interval is reported as (first parameter, last parameter) of a
    contiguous run of grid points with E <= DEATH_TOL.  Single-point dips
    give degenerate intervals (p, p).
    """
    dead = np.concatenate(([False], result.negativities[:, state_index] <= DEATH_TOL, [False]))
    # each run of dead points starts at one edge and ends one before the next
    edges = np.flatnonzero(dead[1:] != dead[:-1]).reshape(-1, 2)
    params = result.params
    return [(float(params[lo]), float(params[hi - 1])) for lo, hi in edges]
