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
cells, so memory stays bounded, and runs each chunk through one batched
path: maps, evolved tensors, densities, negativities.  Each stage acts on
each matrix alone, so the chunk size never changes a bit of the output.
"""

import math
import os
import shutil
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entanglement import negativity_batch
from .errors import InvalidConfig
from .evolution import InitialState, assemble_density_batch, evolve_correlations_batch
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
        lines = [f"param,{labels},imag_residue"]
        columns = (self.params.tolist(), self.negativities.tolist(), self.residues.tolist())
        for p, values, residue in zip(*columns):
            cells = ",".join(_fmt(v) for v in values)
            lines.append(f"{_fmt(p)},{cells},{_fmt(residue)}")
        return "\n".join(lines) + "\n"

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


def _fmt(v: float) -> str:
    # 12 significant digits, plain decimal point
    return format(v, ".12g")


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


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep configuration over its whole grid, chunk by chunk.

    Raises OutOfWindow if a grid value falls outside a rectangular pulse
    window, and TraceNotOne or NonHermitianInput if a density matrix
    fails the entanglement layer's gates.
    """
    grid = cfg.grid.values()
    diagonals = np.array([s.correlations for s in cfg.initial_states])
    step = max(1, _CHUNK_CELLS // len(diagonals))
    negativities = np.empty((len(grid), len(diagonals)))
    residues = np.empty(len(grid))
    for lo in range(0, len(grid), step):
        chunk = slice(lo, lo + step)
        maps = _grid_maps(cfg, grid[chunk])
        tensors, residues[chunk] = evolve_correlations_batch(diagonals, *maps)
        rhos = assemble_density_batch(tensors).reshape(-1, 4, 4)
        negativities[chunk] = negativity_batch(rhos).reshape(tensors.shape[:2])
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
