"""Pulse specifications and per-qubit Heisenberg coefficient maps.

A driven qubit evolves in its rotating frame under

    H = (Delta * sigma_z + Omega0 * f(t) * sigma_x) / 2,

where f(t) is the pulse envelope: a unit rectangle on [0, T], a decaying
exponential exp(-gamma_p * t), or zero for an undriven qubit.  The
Heisenberg picture maps each Pauli operator at time t back onto the t = 0
triple, giving a 3x3 coefficient matrix whose rows we call A, B and D:

    sigma_x(t) = A_x sigma_x(0) + A_y sigma_y(0) + A_z sigma_z(0)
    sigma_y(t) = B_x sigma_x(0) + B_y sigma_y(0) + B_z sigma_z(0)
    sigma_z(t) = D_x sigma_x(0) + D_y sigma_y(0) + D_z sigma_z(0)

For a rectangular pulse the closed forms are expressed through the
intermediate complex coefficients

    C_plus  = (1/2) [ (Omega/Omega_1)^2 + ((Delta^2 + Omega_1^2)/Omega_1^2) cos(Omega_1 t) ]
              + i (Delta/Omega_1) sin(Omega_1 t)
    C_minus = (1/2) (Omega/Omega_1)^2 (1 - cos(Omega_1 t))
    C_z     = (Delta Omega/Omega_1^2)(1 - cos(Omega_1 t)) - i (Omega/Omega_1) sin(Omega_1 t)

with Omega_1 = sqrt(Omega0^2 + Delta^2).  The resonant exponential pulse
takes the same forms at Omega = Omega_1 = 1, Delta = 0, with Omega_1 t
replaced by the accumulated rotation angle

    lambda(t) = (Omega0/gamma_p) (1 - exp(-gamma_p t)).

Two assembly modes are provided, because the raw closed-form relations for
the B row,

    B_x = -(i/2)(C_plus + C_minus - c.c.),  B_y = i B_x,  B_z = -i A_z,

are internally inconsistent: they give imaginary coefficients for a
Hermitian observable.  LITERAL mode evaluates these relations verbatim and
lets downstream code measure the damage (see the imaginary-residue
diagnostics in the evolution module).  UNITARY mode, the default, keeps
the A and D rows and replaces the map by the unique proper rotation with
the same D row: the axis-angle rotation about (Omega0/Omega_1, 0,
Delta/Omega_1) by angle Omega_1 t for the rectangle, and about the x axis
by lambda(t) for the exponential.  The unitary map is exactly what
conjugation by the 2x2 propagator exp(-i t H) produces, which the test
suite verifies against independent oracles.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AngleOverflow, OutOfWindow, ResonanceRequired

__all__ = [
    "PulseShape",
    "CoefficientMode",
    "PulseSpec",
    "pulse_angle",
    "rotation_matrix",
    "coefficient_map_batch",
]


class PulseShape(Enum):
    RECTANGULAR = "rectangular"
    EXPONENTIAL = "exponential"
    NONE = "none"


class CoefficientMode(Enum):
    LITERAL = "literal"
    UNITARY = "unitary"


@dataclass(frozen=True)
class PulseSpec:
    """One qubit's drive: shape plus the parameters that shape needs.

    omega0 is the Rabi frequency, delta the detuning (drive frequency
    offset from the qubit transition).  Rectangular pulses carry a
    duration T > 0; exponential pulses carry a width gamma_p > 0 and are
    only defined on resonance, so delta must be zero for them.  Every
    parameter given must be finite (ValueError otherwise).
    """

    shape: PulseShape
    omega0: float = 0.0
    delta: float = 0.0
    duration: float | None = None
    gamma_p: float | None = None

    def __post_init__(self):
        for name in ("omega0", "delta", "duration", "gamma_p"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} = {value!r} must be finite")
        if self.omega0 < 0.0:
            raise ValueError("omega0 must be non-negative")
        if self.shape is PulseShape.RECTANGULAR:
            if self.duration is None or self.duration <= 0.0:
                raise ValueError("rectangular pulse requires duration > 0")
            if self.gamma_p is not None:
                raise ValueError("gamma_p does not apply to a rectangular pulse")
        elif self.shape is PulseShape.EXPONENTIAL:
            if self.gamma_p is None or self.gamma_p <= 0.0:
                raise ValueError("exponential pulse requires gamma_p > 0")
            if self.duration is not None:
                raise ValueError("duration does not apply to an exponential pulse")
            if self.delta != 0.0:
                raise ResonanceRequired("exponential drive is defined only at delta = 0")
        else:
            if self.omega0 != 0.0 or self.delta != 0.0:
                raise ValueError("an undriven qubit has omega0 = delta = 0")
            if self.duration is not None or self.gamma_p is not None:
                raise ValueError("width parameters do not apply to an undriven qubit")

    @classmethod
    def rectangular(cls, omega0: float, duration: float, delta: float = 0.0) -> "PulseSpec":
        return cls(PulseShape.RECTANGULAR, omega0=omega0, delta=delta, duration=duration)

    @classmethod
    def exponential(cls, omega0: float, gamma_p: float) -> "PulseSpec":
        return cls(PulseShape.EXPONENTIAL, omega0=omega0, gamma_p=gamma_p)

    @classmethod
    def none(cls) -> "PulseSpec":
        return cls(PulseShape.NONE)


def pulse_angle(p: PulseSpec, t):
    """Accumulated rotation angle lambda(t) of a resonant exponential pulse.

    lambda(t) = (Omega0/gamma_p)(1 - exp(-gamma_p t)), for a scalar or an
    array t >= 0 (see _rotations for the errors).  Monotone non-decreasing,
    saturating at Omega0/gamma_p, which is what makes the exponential drive
    leave a frozen long-time state behind.
    """
    if p.shape is not PulseShape.EXPONENTIAL:
        raise ValueError("pulse_angle applies to exponential pulses only")
    t = np.asarray(t, dtype=float)
    return _rotations(p, t.reshape(-1))[3].reshape(t.shape)[()]


def _rotations(pulses, times, literal: bool = False):
    """Check N (pulse, time) pairs and give each as a rotation: (omega, delta, Omega_1, tau).

    Pair i turns by Omega_1 tau about (omega, 0, delta)/Omega_1: a rectangle
    with its own omega0 and delta and tau = t, an exponential pulse as the
    resonant unit-rate rectangle (omega = Omega_1 = 1, delta = 0) with
    tau = lambda(t), an undriven qubit with omega = delta = Omega_1 = 0.
    ``pulses`` is one PulseSpec for every time, giving the first three arrays
    shape (1,) to broadcast, or a sequence of N, giving them shape (N,).

    The first pair with t outside its window (from 0 to a rectangle's T; NaN
    fails) raises OutOfWindow, and the first whose angle Omega_1 tau (with
    ``literal``, also Delta^2 + Omega_1^2) overflows a float AngleOverflow,
    without a numpy warning.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    one = isinstance(pulses, PulseSpec)
    specs = [pulses] if one else list(pulses)
    if not one and len(specs) != len(t):
        raise ValueError("times must match pulses in length")
    rows = []  # omega, delta, Omega_1, window end, lambda's scale Omega0/gamma_p and rate gamma_p
    for p in specs:
        if p.shape is PulseShape.RECTANGULAR:
            rows.append((p.omega0, p.delta, math.hypot(p.omega0, p.delta), p.duration, 0.0, 0.0))
        elif p.shape is PulseShape.EXPONENTIAL:
            rows.append((1.0, 0.0, 1.0, math.inf, p.omega0 / p.gamma_p, p.gamma_p))
        else:
            rows.append((0.0, 0.0, 0.0, math.inf, 0.0, 0.0))
    om, dl, om1, end, scale, rate = np.array(rows, dtype=float).reshape(-1, 6).T
    outside = ~((0.0 <= t) & (t <= end))
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfWindow(f"pair {i}: t = {t[i]} outside the pulse window [0, {end[0 if one else i]}]")
    # an overflowing Omega0/gamma_p gives inf or NaN here, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        tau = np.where(rate > 0.0, scale * (1.0 - np.exp(-rate * t)), t) if rate.any() else t
        huge = ~np.isfinite(om1 * tau)
        if literal:
            huge |= ~np.isfinite(dl * dl + om1 * om1)
    if huge.any():
        i = int(np.argmax(huge))
        raise AngleOverflow(f"pair {i}: the rotation of {specs[0 if one else i]} at t = {t[i]} overflows a float")
    return om, dl, om1, tau


def rotation_matrix(axis, angle) -> np.ndarray:
    """Proper rotations (Rodrigues form) about unit axes: (3, 3) for one axis and one
    angle, (N, 3, 3) for N angles about one axis (3,) or (1, 3), or about N axes (N, 3)."""
    n = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)[..., None, None]
    c = np.cos(angle)
    s = np.sin(angle)
    cross = np.zeros(n.shape + (3,))  # cross @ v = n x v
    cross[..., [2, 0, 1], [1, 2, 0]] = n
    cross[..., [1, 2, 0], [2, 0, 1]] = -n
    return c * np.eye(3) + s * cross + (1.0 - c) * (n[..., :, None] * n[..., None, :])


def _literal_matrix(c_plus, c_minus, c_z, d_row) -> np.ndarray:
    """Assemble the verbatim closed-form maps (N, 3, 3) from arrays of C coefficients.

    A row: A_x = Re(C+ + C-), A_y = -Im(C+ - C-), A_z = Re(C_z).
    B row taken at face value: B_x = Im(C+ + C-), B_y = i B_x,
    B_z = -i A_z.  The last two are imaginary whenever they are nonzero,
    which is the inconsistency LITERAL mode exists to expose.
    """
    a_x = (c_plus + c_minus).real
    a_y = -(c_plus - c_minus).imag
    a_z = c_z.real
    b_x = (c_plus + c_minus).imag
    rows = ((a_x, a_y, a_z), (b_x, 1j * b_x, -1j * a_z), d_row)
    return np.moveaxis(np.array([np.broadcast_arrays(*r) for r in rows], np.complex128), -1, 0)


def _identity_maps(n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(3, dtype=np.complex128), (n, 3, 3)).copy()


def coefficient_map_batch(
    pulses, times, mode: CoefficientMode = CoefficientMode.UNITARY
) -> np.ndarray:
    """Coefficient maps (N, 3, 3) complex, rows A, B, D, of N (pulse, time) pairs.

    ``pulses`` is one PulseSpec for all N times or a sequence of N, one per
    time; _rotations checks them.  Every driven pair takes the rectangle's
    forms, with Omega_1 tau for Omega_1 t.  The D row is the same in both modes:

        D = ( (Delta Omega/Omega_1^2)(1 - cos),  (Omega/Omega_1) sin,
              (Omega^2 cos + Delta^2)/Omega_1^2 ),

    the last entry written in the equivalent form that stays finite as
    Omega -> 0; for an exponential pulse it is (0, sin lambda, cos lambda).
    UNITARY mode returns the rotation about (Omega/Omega_1, 0, Delta/Omega_1)
    by Omega_1 tau, whose third row is exactly this D row.  LITERAL mode
    assembles the verbatim closed forms, whose B row vanishes on resonance.
    A pair with Omega_1 = 0 (undriven, or Omega0 = Delta = 0) is the identity.
    """
    om, dl, om1, tau = _rotations(pulses, times, mode is CoefficientMode.LITERAL)
    idle = om1 == 0.0
    if idle.all():
        return _identity_maps(len(tau))
    om1 = np.where(idle, 1.0, om1)  # no 0/0: idle pairs are set to the identity below
    angle = om1 * tau
    if mode is CoefficientMode.UNITARY:
        maps = rotation_matrix(np.array([om, 0.0 * om, dl]).T / om1[:, None], angle).astype(np.complex128)
    else:
        c = np.cos(angle)
        s = np.sin(angle)
        ratio2 = (om / om1) ** 2
        c_plus = 0.5 * (ratio2 + (dl * dl + om1 * om1) / (om1 * om1) * c) + 1j * (dl / om1) * s
        c_minus = 0.5 * ratio2 * (1.0 - c)
        c_z = (dl * om / (om1 * om1)) * (1.0 - c) - 1j * (om / om1) * s
        d_row = (
            (dl * om / (om1 * om1)) * (1.0 - c),
            (om / om1) * s,
            (om * om * c + dl * dl) / (om1 * om1),
        )
        maps = _literal_matrix(c_plus, c_minus, c_z, d_row)
    if idle.any():
        maps[idle] = np.eye(3)
    return maps
