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

run_sweep takes the grid in chunks of at most _CHUNK_CELLS (point, state)
cells, so memory stays bounded.  A LITERAL chunk takes the long route: maps,
evolved tensors, closed-form negativities (Jacobi on a density where the
12th digit is in doubt).  A UNITARY chunk builds its maps only for their
errors: its maps are proper rotations, which keep the negativity exactly, so
each cell has its state's initial value (Vidal & Werner, PRA 65, 032314,
2002).  No stage mixes matrices, so the chunk size never changes a bit.
"""

import math
import os
import shutil
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entanglement import CLAMP_TOL, _clamp, _jacobi_negativities, zero_bloch_negativity_batch
from .errors import InvalidConfig, TraceNotOne
from .evolution import InitialState, _diagonal_tensors, evolve_correlations_batch
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


def _check_param(name: str, value: float) -> None:
    if not abs(value) <= PARAM_LIMIT:  # false for NaN and inf too
        raise InvalidConfig(f"{name} = {value!r} is not finite or exceeds {PARAM_LIMIT:g} in size")


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
        _check_param("grid_start", self.start)
        _check_param("grid_stop", self.stop)
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

    detuning_prime and rabi_ratio hold one value per qubit (a, b); entries
    for slots a family does not consume are conventionally 0.  rect_omega
    is the rectangular drive strength of qubit a in the combined family.
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
        object.__setattr__(self, "initial_states", tuple(self.initial_states))
        object.__setattr__(self, "detuning_prime", tuple(float(v) for v in self.detuning_prime))
        object.__setattr__(self, "rabi_ratio", tuple(float(v) for v in self.rabi_ratio))
        if not self.initial_states:
            raise InvalidConfig("at least one initial state is required")
        if len(self.detuning_prime) != 2 or len(self.rabi_ratio) != 2:
            raise InvalidConfig("detuning_prime and rabi_ratio take one value per qubit")
        for qubit, dprime, ratio in zip("ab", self.detuning_prime, self.rabi_ratio):
            _check_param(f"detuning_prime_{qubit}", dprime)
            _check_param(f"rabi_ratio_{qubit}", ratio)
        _check_param("rect_omega", self.rect_omega)
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
        labels = ",".join(f"E_{s.label}" for s in self.config.initial_states)
        table = np.column_stack((self.params, self.negativities, self.residues))
        bits = table.view(np.int64)  # compared as bits, so -0.0 and NaN payloads stay apart
        folded = (bits == bits[:1]).all(axis=0) & (len(table) > 0)  # columns of one bit pattern
        row = ",".join(_CELL % table[0, j] if f else _CELL for j, f in enumerate(folded))
        text = ("\n" + row) * len(table) % tuple(table[:, ~folded].ravel().tolist())
        return f"param,{labels},imag_residue{text}\n"

    def write_csv(self, path) -> None:
        """Write csv_text() to a temporary file beside path, then rename it over path.

        A symlink's target is replaced; an existing file keeps its mode.  See
        the README for what a failing process or a power loss leaves behind.
        """
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


def _negativities(tensors: np.ndarray) -> np.ndarray:
    """Clamped negativities of (N, 3, 3) tensors, each printing as its Jacobi value does.

    A cell whose closed form has its 12th digit in doubt (_in_doubt) is solved
    through its density instead; a chunk with no such cell never reaches Jacobi.
    """
    raw = zero_bloch_negativity_batch(tensors)
    doubt = _in_doubt(raw)
    values = _clamp(raw)
    if doubt.size:
        values[doubt] = _jacobi_negativities(tensors[doubt])
    return values


def _grid_maps(cfg: SweepConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient maps (m1, m2), each (N, 3, 3), at grid values x (Omega = gamma_p = 1)."""
    t = x
    if cfg.family is SweepFamily.RECT_VS_AREA:
        # each point is its own pulse ending at t = 2 pi n; one window over
        # the whole grid admits every such t
        t = 2.0 * math.pi * x
        window = 2.0 * math.pi * cfg.grid.stop
        pa, pb = (PulseSpec.rectangular(1.0, window, delta) for delta in cfg.detuning_prime)
    elif cfg.family is SweepFamily.EXP_VS_TIME:
        pa, pb = (PulseSpec.exponential(ratio, 1.0) for ratio in cfg.rabi_ratio)
    else:
        # rectangle on qubit a spanning the whole grid, exponential on b
        omega = cfg.rect_omega
        pa = PulseSpec.rectangular(omega, cfg.grid.stop, cfg.detuning_prime[0] * omega)
        pb = PulseSpec.exponential(cfg.rabi_ratio[1], 1.0)
    if cfg.drive is DriveMode.ONE_QUBIT:
        pb = PulseSpec.none()
    m1, m2 = (coefficient_map_batch(p, t, cfg.mode) for p in (pa, pb))
    if cfg.family is SweepFamily.RECT_VS_AREA:
        # n = 0 is no pulse at all: the identity, which the literal closed
        # forms at t = 0 are not bit for bit
        m1, m2 = (np.where((x == 0.0)[:, None, None], np.eye(3), m) for m in (m1, m2))
    return m1, m2


def _long_route(cfg: SweepConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativities (N, S) and residues (N,) at grid values x: maps, evolved tensors, closed form."""
    tensors, residues = evolve_correlations_batch([s.correlations for s in cfg.initial_states], *_grid_maps(cfg, x))
    return _negativities(tensors.reshape(-1, 3, 3)).reshape(tensors.shape[:2]), residues


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep configuration over its whole grid, chunk by chunk.

    LITERAL chunks take _long_route; UNITARY chunks build their maps only for
    their errors, as rotations keep each state's initial negativity exactly.
    Raises OutOfWindow outside a rectangular pulse window, TraceNotOne if a map
    or tensor is not finite, and ConvergenceFailure if a Jacobi solve fails.
    """
    grid = cfg.grid.values()
    step = max(1, _CHUNK_CELLS // len(cfg.initial_states))
    negativities = np.empty((len(grid), len(cfg.initial_states)))
    residues = np.zeros(len(grid))
    if cfg.mode is CoefficientMode.UNITARY:  # computed once: every cell has its state's initial value
        negativities[:] = _negativities(_diagonal_tensors([s.correlations for s in cfg.initial_states]))
    for lo in range(0, len(grid), step):
        chunk = slice(lo, lo + step)
        if cfg.mode is CoefficientMode.LITERAL:
            negativities[chunk], residues[chunk] = _long_route(cfg, grid[chunk])
        elif not np.isfinite(_grid_maps(cfg, grid[chunk])).all():
            raise TraceNotOne("coefficient map is not finite, so neither is the correlation tensor")
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
