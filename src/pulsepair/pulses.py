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

For a rectangular pulse the paper prints the rows in closed form.  With
Omega_1 = sqrt(Omega0^2 + Delta^2), c = cos(Omega_1 t) and s = sin(Omega_1 t):

    A = ( (1/2)[(Omega/Omega_1)^2 + ((Delta^2 + Omega_1^2)/Omega_1^2) c]
              + (1/2)(Omega/Omega_1)^2 (1 - c),
          -(Delta/Omega_1) s,  (Delta Omega/Omega_1^2)(1 - c) ),
    B = ( B_x,  i B_x,  -i A_z ),  B_x = (Delta/Omega_1) s,
    D = ( (Delta Omega/Omega_1^2)(1 - c),  (Omega/Omega_1) s,
          (Omega^2 c + Delta^2)/Omega_1^2 ),

A_x keeping the form of the real part of the paper's C_plus + C_minus.  The
resonant exponential pulse takes the same forms at Omega = Omega_1 = 1,
Delta = 0, with Omega_1 t replaced by the accumulated rotation angle

    lambda(t) = (Omega0/gamma_p) (1 - exp(-gamma_p t)).

The A and D rows are one set of rows for both assembly modes; the mode
decides only the B row, because the printed one is internally
inconsistent: it gives imaginary coefficients for a Hermitian observable.
LITERAL mode takes it verbatim and lets downstream code measure the damage
(see the imaginary-residue diagnostics in the evolution module).  UNITARY
mode, the default, takes B = D x A, the middle row of the unique proper
rotation with rows A and D: the axis-angle rotation about (Omega0/Omega_1,
0, Delta/Omega_1) by angle Omega_1 t for the rectangle, and about the x
axis by lambda(t) for the exponential.  The unitary map is what
conjugation by the 2x2 propagator exp(-i t H) produces, which the test
suite verifies against independent oracles.
"""

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import AngleOverflow, OutOfWindow, ResonanceRequired

__all__ = [
    "CoefficientMode",
    "PulseSpec",
    "coefficient_map_batch",
]


class CoefficientMode(Enum):
    LITERAL = "literal"
    UNITARY = "unitary"


class PulseSpec(namedtuple("PulseSpec", "omega0 delta window gamma")):
    """One qubit's drive, or N: four read-only float arrays, 0-d for one pulse, (N,) for N.

    omega0 is the Rabi frequency, delta the detuning (drive frequency offset
    from the qubit transition), window a rectangle's duration T (inf for any
    other pulse) and gamma an exponential pulse's width gamma_p (0 for any
    other); an entry with neither is an undriven qubit.  The constructor, which
    _replace goes through too, broadcasts the fields and raises the error of
    the first of its rules that an entry breaks.  A spec is not hashable.
    """

    __slots__ = ()

    def __new__(cls, omega0=0.0, delta=0.0, window=math.inf, gamma=0.0):
        fields = np.empty((4,) + np.broadcast(omega0, delta, window, gamma).shape)
        fields[0], fields[1], fields[2], fields[3] = omega0, delta, window, gamma
        fields.flags.writeable = False
        fin, pos, nonneg, zero = np.isfinite(fields), fields > 0.0, fields >= 0.0, fields == 0.0
        # (where the rule holds, its error, the rule); rows 0-3 of each mask are omega0, delta, window, gamma
        rules = (
            (fin[0] & nonneg[0], ValueError, "omega0 must be finite and >= 0"),
            (fin[1], ValueError, "delta must be finite"),
            (pos[2], ValueError, "window must be > 0"),
            (fin[3] & nonneg[3], ValueError, "gamma must be finite and >= 0"),
            (~fin[2] | zero[3], ValueError, "a pulse has a finite window or gamma > 0, not both"),
            (zero[3] | zero[1], ResonanceRequired, "exponential drive is defined only at delta = 0"),
            (fin[2] | pos[3] | zero[0] & zero[1], ValueError, "an undriven qubit has omega0 = delta = 0"),
        )
        holds = np.array([r[0] for r in rules]).reshape(len(rules), -1)
        if not holds.all():
            k, i = np.argwhere(~holds)[0]
            entry = ", ".join(f"{name} = {v!r}" for name, v in zip(cls._fields, fields.reshape(4, -1)[:, i].tolist()))
            raise rules[k][1](f"{rules[k][2]}; entry {i} has {entry}")
        return super().__new__(cls, *(fields[i, ...] for i in range(4)))

    @classmethod
    def _make(cls, iterable) -> "PulseSpec":
        return cls(*iterable)

    @classmethod
    def rectangular(cls, omega0: float, duration: float, delta: float = 0.0) -> "PulseSpec":
        if not 0.0 < duration < math.inf:
            raise ValueError(f"duration = {duration!r} must be finite and > 0")
        return cls(omega0, delta, duration)

    @classmethod
    def exponential(cls, omega0: float, gamma_p: float) -> "PulseSpec":
        if not 0.0 < gamma_p < math.inf:
            raise ValueError(f"gamma_p = {gamma_p!r} must be finite and > 0")
        return cls(omega0, gamma=gamma_p)

    @classmethod
    def none(cls) -> "PulseSpec":
        return cls()


def _rotations(pulses: PulseSpec, times):
    """Check N (pulse, time) pairs and give each as a rotation: (omega, delta, Omega_1, tau), each (N,).

    Pair i turns by Omega_1 tau about (omega, 0, delta)/Omega_1: a rectangle
    with its own omega0 and delta and tau = t, an exponential pulse as the
    resonant unit-rate rectangle (omega = Omega_1 = 1, delta = 0) with
    tau = lambda(t), an undriven qubit with omega = delta = Omega_1 = 0.
    ``pulses`` is one PulseSpec for every time, or a PulseSpec of N.

    The first pair with t outside its window (from 0 to a rectangle's T; NaN
    fails) raises OutOfWindow, and the first whose angle Omega_1 tau overflows
    a float AngleOverflow, without a numpy warning.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    if np.shape(pulses.omega0) not in ((), t.shape):
        raise ValueError("times must match pulses in length")
    om, dl, end, rate = np.broadcast_arrays(*pulses, t)[:4]
    outside = ~((0.0 <= t) & (t <= end))
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfWindow(f"pair {i}: t = {t[i]} outside the pulse window [0, {end[i]}]")
    exponential = rate > 0.0
    # an overflowing Omega0/gamma_p gives inf or NaN here, caught below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tau = np.where(exponential, om / rate * (1.0 - np.exp(-rate * t)), t)
        om1 = np.where(exponential, 1.0, np.hypot(om, dl))
        huge = ~np.isfinite(om1 * tau)
    if huge.any():
        i = int(np.argmax(huge))
        pair = f"omega0 = {om[i]}, delta = {dl[i]}, gamma_p = {rate[i]}"
        raise AngleOverflow(f"pair {i}: the rotation of {pair} at t = {t[i]} overflows a float")
    return np.where(exponential, 1.0, om), np.where(exponential, 0.0, dl), om1, tau


def coefficient_map_batch(
    pulses: PulseSpec, times, mode: CoefficientMode = CoefficientMode.UNITARY
) -> np.ndarray:
    """Coefficient maps (N, 3, 3), rows A, B, D, of N (pulse, time) pairs.

    ``pulses`` is one PulseSpec for all N times or a PulseSpec of N;
    _rotations checks the pairs and raises its OutOfWindow and AngleOverflow.  Every driven pair takes the rectangle's
    rows of the module docstring, with Omega_1 tau for Omega_1 t.  Both
    modes share the A and D rows bit for bit; UNITARY mode adds B = D x A
    and gives real float64 maps, LITERAL mode the printed B row, which
    vanishes on resonance, in complex128 maps.  The rows take only
    ratios of Omega, Delta and Omega_1, so no finite angle overflows or
    underflows them.  A pair with Omega_1 = 0 (undriven, or Omega0 = Delta = 0)
    is the identity.
    """
    om, dl, om1, tau = _rotations(pulses, times)
    dtype = float if mode is CoefficientMode.UNITARY else np.complex128
    idle = om1 == 0.0
    if idle.all():
        return np.tile(np.eye(3, dtype=dtype), (len(tau), 1, 1))
    om1 = np.where(idle, 1.0, om1)  # no 0/0: idle pairs are set to the identity below
    angle = om1 * tau
    c = np.cos(angle)
    s = np.sin(angle)
    # dividing omega, delta and Omega_1 by a power of two near Omega_1 is exact
    e = np.frexp(om1)[1]
    om, dl, om1 = (np.ldexp(v, -e) for v in (om, dl, om1))
    ratio2 = (om / om1) ** 2
    maps = np.zeros((len(tau), 3, 3), dtype)
    r = maps.real  # a view (the maps themselves when real): writing it fills the real parts
    a_x = 0.5 * (ratio2 + (dl * dl + om1 * om1) / (om1 * om1) * c) + 0.5 * ratio2 * (1.0 - c)
    a_y = -(dl / om1) * s
    a_z = d_x = (dl * om / (om1 * om1)) * (1.0 - c)
    d_y = (om / om1) * s
    d_z = (om * om * c + dl * dl) / (om1 * om1)
    r[:, 0, 0], r[:, 0, 1], r[:, 0, 2] = a_x, a_y, a_z
    r[:, 2, 0], r[:, 2, 1], r[:, 2, 2] = d_x, d_y, d_z
    if mode is CoefficientMode.UNITARY:
        # B = D x A, the middle row of the proper rotation with rows A and D
        r[:, 1, 0] = d_y * a_z - d_z * a_y
        r[:, 1, 1] = d_z * a_x - d_x * a_z
        r[:, 1, 2] = d_x * a_y - d_y * a_x
    else:
        r[:, 1, 0] = maps.imag[:, 1, 1] = -a_y
        maps.imag[:, 1, 2] = -a_z
    if idle.any():
        maps[idle] = np.eye(3)
    return maps
