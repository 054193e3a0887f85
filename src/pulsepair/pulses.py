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

with Omega_1 = sqrt(Omega0^2 + Delta^2), and for the resonant exponential
pulse through the accumulated rotation angle

    lambda(t) = (Omega0/gamma_p) (1 - exp(-gamma_p t)),
    C_plus/minus = (1 +/- cos lambda)/2,   C_z = -i sin lambda.

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

from .errors import OutOfWindow, ResonanceRequired

__all__ = [
    "PulseShape",
    "CoefficientMode",
    "PulseSpec",
    "pulse_angle",
    "rotation_matrix",
    "coefficient_map",
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
    array t.  Monotone non-decreasing, saturating at Omega0/gamma_p, which
    is what makes the exponential drive leave a frozen long-time state behind.
    """
    if p.shape is not PulseShape.EXPONENTIAL:
        raise ValueError("pulse_angle applies to exponential pulses only")
    return (p.omega0 / p.gamma_p) * (1.0 - np.exp(-p.gamma_p * np.asarray(t, dtype=float)))


def rotation_matrix(axis, angle) -> np.ndarray:
    """Proper rotation about a unit axis (Rodrigues form): (3, 3), or (N, 3, 3) for N angles."""
    n = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)[..., None, None]
    c = np.cos(angle)
    s = np.sin(angle)
    cross = np.array(
        [
            [0.0, -n[2], n[1]],
            [n[2], 0.0, -n[0]],
            [-n[1], n[0], 0.0],
        ]
    )
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)


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
    p: PulseSpec, times, mode: CoefficientMode = CoefficientMode.UNITARY
) -> np.ndarray:
    """Coefficient maps of one pulse at an array of N times, shape (N, 3, 3) complex.

    Rectangular pulse, every t in the window [0, T] (else OutOfWindow).
    The D row is the same in both modes:

        D = ( (Delta Omega/Omega_1^2)(1 - cos),  (Omega/Omega_1) sin,
              (Omega^2 cos + Delta^2)/Omega_1^2 ),

    the last entry written in the equivalent form that stays finite as
    Omega -> 0.  UNITARY mode returns the rotation about
    (Omega/Omega_1, 0, Delta/Omega_1) by Omega_1 t, whose third row is
    exactly this D row.  A drive with Omega0 = 0 is a valid no-op at
    Delta = 0 (identity) and a plain z rotation otherwise.

    Resonant exponential pulse, every t >= 0 (else OutOfWindow): D row =
    (0, sin lambda, cos lambda).  UNITARY mode is the x-axis rotation by
    lambda(t); LITERAL mode assembles the verbatim closed forms, whose B
    row vanishes identically on resonance.

    Undriven qubit: the identity.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    if p.shape is PulseShape.RECTANGULAR:
        outside = ~((0.0 <= t) & (t <= p.duration))
        if outside.any():
            raise OutOfWindow(f"t = {t[outside][0]} outside the pulse window [0, {p.duration}]")
        om, dl = p.omega0, p.delta
        om1 = math.hypot(om, dl)
        if om1 == 0.0:
            return _identity_maps(len(t))
        axis, angle = (om / om1, 0.0, dl / om1), om1 * t
    elif p.shape is PulseShape.EXPONENTIAL:
        before = ~(t >= 0.0)  # NaN fails the window too
        if before.any():
            raise OutOfWindow(f"t = {t[before][0]} precedes the pulse start")
        axis, angle = (1.0, 0.0, 0.0), pulse_angle(p, t)
    else:
        return _identity_maps(len(t))
    if mode is CoefficientMode.UNITARY:
        return rotation_matrix(axis, angle).astype(np.complex128)
    c = np.cos(angle)
    s = np.sin(angle)
    if p.shape is PulseShape.EXPONENTIAL:
        return _literal_matrix(0.5 * (1.0 + c), 0.5 * (1.0 - c), -1j * s, (0.0, s, c))
    ratio2 = (om / om1) ** 2
    c_plus = 0.5 * (ratio2 + (dl * dl + om1 * om1) / (om1 * om1) * c) + 1j * (dl / om1) * s
    c_minus = 0.5 * ratio2 * (1.0 - c)
    c_z = (dl * om / (om1 * om1)) * (1.0 - c) - 1j * (om / om1) * s
    d_row = (
        (dl * om / (om1 * om1)) * (1.0 - c),
        (om / om1) * s,
        (om * om * c + dl * dl) / (om1 * om1),
    )
    return _literal_matrix(c_plus, c_minus, c_z, d_row)


def coefficient_map(
    p: PulseSpec, t: float, mode: CoefficientMode = CoefficientMode.UNITARY
) -> np.ndarray:
    """Coefficient map (3, 3) complex, rows A, B, D, of any pulse at one time t (see the batch form)."""
    return coefficient_map_batch(p, [t], mode)[0]
