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
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entanglement import negativity_batch
from .errors import InvalidConfig
from .evolution import InitialState, assemble_density, evolve_correlations
from .pulses import CoefficientMode, PulseSpec, coefficient_map, undriven_coefficients

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
        if self.points < 2:
            raise InvalidConfig("grid needs at least 2 points")
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

    def rows(self):
        for i, p in enumerate(self.params):
            yield float(p), tuple(float(v) for v in self.negativities[i]), float(self.residues[i])

    def csv_text(self) -> str:
        labels = ",".join(f"E_{s.label}" for s in self.config.initial_states)
        lines = [f"param,{labels},imag_residue"]
        for p, values, residue in self.rows():
            cells = ",".join(_fmt(v) for v in values)
            lines.append(f"{_fmt(p)},{cells},{_fmt(residue)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.csv_text())


def _fmt(v: float) -> str:
    # 12 significant digits, plain decimal point
    return format(v, ".12g")


def _point_maps(cfg: SweepConfig, x: float):
    """Coefficient maps (m1, m2) for one grid point of the sweep parameter."""
    mode = cfg.mode
    if cfg.family is SweepFamily.RECT_VS_AREA:
        omega = 1.0
        t = 2.0 * math.pi * x / omega
        if x == 0.0:
            m1 = undriven_coefficients(mode)
        else:
            pa = PulseSpec.rectangular(omega, duration=t, delta=cfg.detuning_prime[0] * omega)
            m1 = coefficient_map(pa, t, mode)
        if cfg.drive is DriveMode.BOTH_QUBITS:
            if x == 0.0:
                m2 = undriven_coefficients(mode)
            else:
                pb = PulseSpec.rectangular(omega, duration=t, delta=cfg.detuning_prime[1] * omega)
                m2 = coefficient_map(pb, t, mode)
        else:
            m2 = undriven_coefficients(mode)
        return m1, m2
    gamma_p = 1.0
    t = x / gamma_p
    if cfg.family is SweepFamily.EXP_VS_TIME:
        pa = PulseSpec.exponential(cfg.rabi_ratio[0] * gamma_p, gamma_p)
        m1 = coefficient_map(pa, t, mode)
        if cfg.drive is DriveMode.BOTH_QUBITS:
            pb = PulseSpec.exponential(cfg.rabi_ratio[1] * gamma_p, gamma_p)
            m2 = coefficient_map(pb, t, mode)
        else:
            m2 = undriven_coefficients(mode)
        return m1, m2
    # combined: rectangle on qubit a spanning the whole grid, exponential on b
    duration = cfg.grid.stop / gamma_p
    pa = PulseSpec.rectangular(
        cfg.rect_omega, duration=duration, delta=cfg.detuning_prime[0] * cfg.rect_omega
    )
    pb = PulseSpec.exponential(cfg.rabi_ratio[1] * gamma_p, gamma_p)
    return coefficient_map(pa, t, mode), coefficient_map(pb, t, mode)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate one sweep configuration over its whole grid.

    Grid points are independent; they are evaluated in grid order and the
    partial transposes of all (point, state) density matrices are
    diagonalized in a single batch.
    """
    grid = cfg.grid.values()
    states = [s.state() for s in cfg.initial_states]
    n_states = len(states)
    rhos = np.empty((len(grid) * n_states, 4, 4), dtype=np.complex128)
    residues = np.zeros(len(grid))
    for i, x in enumerate(grid):
        m1, m2 = _point_maps(cfg, float(x))
        worst = 0.0
        for j, state in enumerate(states):
            evolved = evolve_correlations(state, m1, m2)
            worst = max(worst, evolved.imag_residue)
            rhos[i * n_states + j] = assemble_density(evolved)
        residues[i] = worst
    values = negativity_batch(rhos).reshape(len(grid), n_states)
    return SweepResult(config=cfg, params=grid, negativities=values, residues=residues)


def _standard_states() -> tuple[InitialState, ...]:
    return (
        InitialState.bell_singlet(),
        InitialState.werner(-0.9),
        InitialState.generalized_werner(-0.9, -0.8, -0.7),
    )


def paper_figure_presets() -> dict[str, SweepConfig]:
    """The named figure-style presets, keyed fig1a..fig5d.

    All presets share the three standard initial states (Bell singlet,
    Werner -0.9, generalized Werner (-0.9, -0.8, -0.7)) and default to
    UNITARY mode.  Parameter slots a preset does not consume are zero.
    """
    states = _standard_states()
    area_grid = GridSpec(0.0, 20.0, 801)
    time_grid = GridSpec(0.0, 5.0, 801)

    def rect(drive: DriveMode, dprime: float) -> SweepConfig:
        per_qubit = (dprime, dprime if drive is DriveMode.BOTH_QUBITS else 0.0)
        return SweepConfig(
            family=SweepFamily.RECT_VS_AREA,
            initial_states=states,
            drive=drive,
            grid=area_grid,
            detuning_prime=per_qubit,
            rabi_ratio=(0.0, 0.0),
        )

    def exponential(drive: DriveMode, ratio: float) -> SweepConfig:
        per_qubit = (ratio, ratio if drive is DriveMode.BOTH_QUBITS else 0.0)
        return SweepConfig(
            family=SweepFamily.EXP_VS_TIME,
            initial_states=states,
            drive=drive,
            grid=time_grid,
            rabi_ratio=per_qubit,
        )

    def combined(rect_omega: float, ratio: float) -> SweepConfig:
        return SweepConfig(
            family=SweepFamily.COMBINED_VS_TIME,
            initial_states=states,
            drive=DriveMode.BOTH_QUBITS,
            grid=time_grid,
            rabi_ratio=(0.0, ratio),
            rect_omega=rect_omega,
        )

    return {
        "fig1a": rect(DriveMode.ONE_QUBIT, 0.0),
        "fig1b": rect(DriveMode.ONE_QUBIT, 1.0),
        "fig2a": rect(DriveMode.BOTH_QUBITS, 0.0),
        "fig2b": rect(DriveMode.BOTH_QUBITS, 5.0),
        "fig3a": exponential(DriveMode.ONE_QUBIT, 5.0),
        "fig3b": exponential(DriveMode.ONE_QUBIT, 10.0),
        "fig4a": exponential(DriveMode.BOTH_QUBITS, 5.0),
        "fig4b": exponential(DriveMode.BOTH_QUBITS, 10.0),
        "fig5a": combined(1.0, 5.0),
        "fig5b": combined(2.0, 5.0),
        "fig5c": combined(1.0, 10.0),
        "fig5d": combined(2.0, 10.0),
    }


def detect_sudden_death(result: SweepResult, state_index: int = 0) -> list[tuple[float, float]]:
    """Maximal parameter intervals where one state's negativity sits at zero.

    An interval is reported as (first parameter, last parameter) of a
    contiguous run of grid points with E <= DEATH_TOL.  Single-point dips
    give degenerate intervals (p, p).
    """
    series = result.negativities[:, state_index]
    params = result.params
    intervals: list[tuple[float, float]] = []
    run_start = None
    for i, value in enumerate(series):
        if value <= DEATH_TOL:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            intervals.append((float(params[run_start]), float(params[i - 1])))
            run_start = None
    if run_start is not None:
        intervals.append((float(params[run_start]), float(params[-1])))
    return intervals
