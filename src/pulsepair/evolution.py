"""Two-qubit state evolution in Fano form, plus the propagator oracles.

A Bell-diagonal initial state

    rho(0) = (1/4) (I + sum_k c_kk sigma_k x sigma_k)

is specified by the three diagonal correlations (c_xx, c_yy, c_zz); local
Bloch vectors are zero and stay zero because the dynamics is a product of
single-qubit maps.  Each qubit's coefficient map (rows A, B, D from the
pulses module) transforms the correlation tensor as

    C~ = M1^T diag(c_xx, c_yy, c_zz) M2.

In LITERAL mode M can carry complex entries; the real part is kept as the
state and the largest imaginary magnitude is recorded as a diagnostic
(``imag_residue``), never silently dropped.

Two independent oracles are provided for cross-validation of the analytic
maps, both for many (pulse, time) pairs at once: ``unitary_oracle_batch``
builds the exact 2x2 propagators as matrix exponentials through numpy's
``eigh``, and ``rk4_oracle_batch`` integrates dU/dt = -i H(t) U with
classical Runge-Kutta from U(0) = I.  The adjoint action of either
propagator on the Pauli triple must reproduce the UNITARY-mode
coefficient matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleOverflow, OutOfWindow, StepTooLarge, UnphysicalState
from .pauli import IDENTITY2, PAULIS, SIGMA_X, SIGMA_Z, kron
from .pulses import CoefficientMode, PulseShape, PulseSpec, coefficient_map_batch, pulse_angle

__all__ = [
    "InitialState",
    "evolve_correlations_batch",
    "assemble_density_batch",
    "correlations_from_density_batch",
    "adjoint_rotation",
    "unitary_oracle",
    "unitary_oracle_batch",
    "rk4_oracle_batch",
    "evolve_state",
    "RK4_DEFAULT_STEP",
]

RK4_DEFAULT_STEP = 1e-3
# step-matrix cells per RK4 block: a block holds max(1, this // pairs) steps
_RK4_BLOCK_CELLS = 4096
# far above validation's 50 000 steps; bounds the time a tiny step can ask for
_RK4_MAX_STEPS = 10**7

# Pauli product stacks for density assembly/extraction:
# _PP[k, l] = sigma_k x sigma_l, _PA[k] = sigma_k x I, _PB[l] = I x sigma_l.
_PP = np.array([[kron(a, b) for b in PAULIS] for a in PAULIS])
_PA = np.array([kron(s, IDENTITY2) for s in PAULIS])
_PB = np.array([kron(IDENTITY2, s) for s in PAULIS])
_I4 = np.eye(4, dtype=np.complex128)
_PAULIS = np.array(PAULIS)


def _bell_diagonal_rho_eigenvalues(c: tuple[float, float, float]) -> tuple[float, ...]:
    # Spectrum of (1/4)(I + sum c_k sigma_k x sigma_k): the four Bell
    # projectors diagonalize every term simultaneously.
    c1, c2, c3 = c
    return (
        0.25 * (1.0 + c1 - c2 + c3),
        0.25 * (1.0 - c1 + c2 + c3),
        0.25 * (1.0 + c1 + c2 - c3),
        0.25 * (1.0 - c1 - c2 - c3),
    )


@dataclass(frozen=True)
class InitialState:
    """A named initial-state family member: label plus diagonal correlations.

    Constructors validate physicality (finite parameters, density-matrix
    positivity up to 1e-10) and raise UnphysicalState otherwise; the
    werner range test is false for NaN, so it needs no separate check.
    The label feeds the CSV column names of the sweep layer.
    """

    label: str
    correlations: tuple[float, float, float]

    @classmethod
    def bell_singlet(cls) -> "InitialState":
        return cls("bell", (-1.0, -1.0, -1.0))

    @classmethod
    def werner(cls, x: float) -> "InitialState":
        if not -1.0 <= x <= 1.0 / 3.0:
            raise UnphysicalState(f"werner parameter {x} outside [-1, 1/3]")
        return cls("werner", (x, x, x))

    @classmethod
    def generalized_werner(cls, c_xx: float, c_yy: float, c_zz: float) -> "InitialState":
        c = (float(c_xx), float(c_yy), float(c_zz))
        if not all(map(math.isfinite, c)):
            raise UnphysicalState(f"correlations {c} must be finite")
        if min(_bell_diagonal_rho_eigenvalues(c)) < -1e-10:
            raise UnphysicalState(f"correlations {c} give a negative density eigenvalue")
        return cls("genwerner", c)


def _diagonal_tensors(diagonals) -> np.ndarray:
    """(S, 3, 3) real tensors diag(c) of an (S, 3) array of diagonals."""
    tensors = np.zeros((len(diagonals), 3, 3))
    tensors[:, [0, 1, 2], [0, 1, 2]] = diagonals
    return tensors


def evolve_correlations_batch(diagonals, m1, m2) -> tuple[np.ndarray, np.ndarray]:
    """Transform diagonal initial states by per-qubit coefficient maps.

    C~_kl = A_k^(1) A_l^(2) c_xx + B_k^(1) B_l^(2) c_yy + D_k^(1) D_l^(2) c_zz,
    i.e. C~ = M1^T diag(c) M2.  This substitutes the evolved operators
    into the initial expansion; on the density-matrix side it matches
    conjugation by U^dag (not U), which only reverses the sense of the
    local rotations and leaves every entanglement quantity untouched.
    Bloch vectors stay zero: the transform has no single-qubit source
    terms.

    ``diagonals`` is an (S, 3) array of (c_xx, c_yy, c_zz); ``m1`` and
    ``m2`` are (N, 3, 3) arrays, one map per grid point.  Returns the real
    parts of C~ for every (point, state) pair, shape (N, S, 3, 3), and per
    point the largest imaginary magnitude discarded over all S states
    (nonzero only for LITERAL-mode maps).
    """
    product = m1.transpose(0, 2, 1)[:, None] @ _diagonal_tensors(diagonals) @ m2[:, None]
    return product.real.copy(), np.abs(product.imag).max(axis=(1, 2, 3))


def assemble_density_batch(tensors) -> np.ndarray:
    """Zero-Bloch densities rho = (1/4)(I + sum_kl C_kl sigma_k x sigma_l), (..., 3, 3) -> (..., 4, 4)."""
    return 0.25 * (_I4 + np.einsum("...kl,klij->...ij", tensors, _PP))


def correlations_from_density_batch(rhos) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the Fano data (C, a, b) out of densities of shape (..., 4, 4).

    C_kl = trace(rho . sigma_k x sigma_l), a_k = trace(rho . sigma_k x I), b_l
    likewise: complex, with zero imaginary parts for Hermitian input.
    C round-trips with assemble_density_batch.
    """
    rhos = np.asarray(rhos, dtype=np.complex128)
    pairs = (("kl", _PP), ("k", _PA), ("k", _PB))
    return tuple(np.einsum(f"...ij,{k}ji->...{k}", rhos, basis) for k, basis in pairs)


def adjoint_rotation(u) -> np.ndarray:
    """SO(3) action of a 2x2 unitary on the Pauli triple: (3, 3), or (n, 3, 3) for n unitaries.

    R[k, l] = (1/2) Re trace(U^dag sigma_k U sigma_l), so that
    U^dag sigma_k U = sum_l R[k, l] sigma_l.  This is the bridge between
    the propagator oracles and the 3x3 coefficient maps.
    """
    u = np.asarray(u, dtype=np.complex128)[..., None, :, :]
    conj = u.conj().swapaxes(-1, -2) @ _PAULIS @ u
    return 0.5 * np.einsum("...kij,lji->...kl", conj, _PAULIS).real


def unitary_oracle_batch(pulses, times) -> np.ndarray:
    """Exact rotating-frame propagators U(t) = exp(-i t h) of n (pulse, t) pairs, (n, 2, 2).

    h is the pulse's constant 2x2 Hermitian generator, and U = V diag(exp(-i t w)) V^dag
    from one stacked LAPACK (not pauli) eigh.  Rectangular: h = (Delta sigma_z + Omega0
    sigma_x)/2 for t in [0, T] (outside the window the generator would be wrong, so that
    is an error, matching the coefficient-map domain).  Exponential: U = exp(-i lambda(t)
    sigma_x / 2).  Undriven: identity.  A phase that overflows a float raises AngleOverflow.
    """
    times = np.asarray(times, dtype=float)
    if times.shape != (len(pulses),):
        raise ValueError("times must match pulses in length")
    gens = np.zeros((len(pulses), 2, 2), dtype=np.complex128)
    angles = np.zeros(len(pulses))
    for i, (p, t) in enumerate(zip(pulses, times)):
        if p.shape is PulseShape.RECTANGULAR:
            if not 0.0 <= t <= p.duration:
                raise OutOfWindow(f"t = {t} outside the pulse window [0, {p.duration}]")
            if not math.isfinite(math.hypot(p.omega0, p.delta) * float(t)):  # no numpy warning
                raise AngleOverflow(f"Omega_1 t at t = {t} overflows a float")
            gens[i], angles[i] = 0.5 * (p.delta * SIGMA_Z + p.omega0 * SIGMA_X), t
        elif p.shape is PulseShape.EXPONENTIAL:
            if not t >= 0.0:  # false for NaN too
                raise OutOfWindow(f"t = {t} precedes the pulse start")
            if not math.isfinite(p.omega0 / p.gamma_p):
                raise AngleOverflow(f"Omega0 / gamma_p = {p.omega0} / {p.gamma_p} overflows a float")
            gens[i], angles[i] = 0.5 * SIGMA_X, pulse_angle(p, t)
    w, v = np.linalg.eigh(gens)
    return (v * np.exp(-1j * angles[:, None] * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def unitary_oracle(p: PulseSpec, t: float) -> np.ndarray:
    """Exact propagator of one pulse at one time t (see unitary_oracle_batch)."""
    return unitary_oracle_batch([p], [t])[0]


def _qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion products p q of component stacks of shape (4, ...)."""
    (a1, b1, c1, d1), (a2, b2, c2, d2) = p, q
    return np.stack(
        (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )
    )


def _amul(w, dz, q) -> np.ndarray:
    """_qmul(A, q) for A = w X + dz Z, dropping A's zero terms (the result bits stay the same)."""
    qa, qb, qc, qd = q
    return np.stack((-w * qb - dz * qd, w * qa - dz * qc, dz * qb - w * qd, w * qc + dz * qa))


def rk4_oracle_batch(pulses, t_ends, step: float = RK4_DEFAULT_STEP) -> np.ndarray:
    """Integrate dU/dt = -i H(t) U, H(t) = (Delta sigma_z + Omega0 f(t) sigma_x)/2.

    Classical fixed-step RK4 from U(0) = I for many (pulse, t_end) pairs at
    once; pair i takes its own n_i = ceil(t_end_i / step) steps of h_i =
    t_end_i / n_i, and f is sampled at t0, t0 + h/2 and min(t0 + h, t_end).
    Deliberately shares no code with unitary_oracle or the coefficient
    maps; this is the independent route.  Raises ValueError
    unless step is positive and every t_end non-negative, all finite, and
    the step count at most _RK4_MAX_STEPS, and StepTooLarge if step
    exceeds a tenth of the shortest t_end > 0.

    The equation is linear, so a step is U <- P U with P = I + h/6 (K1 +
    2 K2 + 2 K3 + K4), K1 = A(t0), K2 = A(t0 + h/2)(I + h/2 K1), K3 =
    A(t0 + h/2)(I + h/2 K2), K4 = A(t0 + h)(I + h K3) and A = -i H.  In the
    units X, Y, Z = -i sigma_x, -i sigma_y, -i sigma_z, which multiply as
    quaternions (XY = Z, X^2 = -I), every P is a real a I + b X + c Y + d Z.
    With the pairs sorted by n_i, each block advances the r pairs still
    running by max(1, _RK4_BLOCK_CELLS // r) steps, P = I past a pair's
    n_i; it is reduced by pairwise products in time order (later times
    earlier), and the result left-multiplies U.
    """
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    t_ends = np.asarray(t_ends, dtype=float)
    n = len(pulses)
    if t_ends.shape != (n,):
        raise ValueError("t_ends must match pulses in length")
    if not (np.isfinite(t_ends) & (t_ends >= 0.0)).all():
        raise ValueError("t_end must be finite and non-negative")
    positive = t_ends[t_ends > 0.0]
    if positive.size and step > positive.min() / 10.0:
        raise StepTooLarge(f"step {step} exceeds t_end/10 = {positive.min() / 10.0}")
    if not positive.size:
        return np.broadcast_to(np.eye(2, dtype=np.complex128), (n, 2, 2)).copy()

    t_max = float(positive.max())
    if t_max / step > _RK4_MAX_STEPS:
        raise ValueError(f"t_end {t_max} takes {t_max / step:.3g} steps of {step}, over {_RK4_MAX_STEPS}")
    # pairs sorted by step count, longest first, so the running ones are a prefix
    counts = np.ceil(t_ends / step).astype(np.int64)
    order = np.argsort(-counts, kind="stable")
    counts, t_ends, pulses = counts[order], t_ends[order], [pulses[i] for i in order]
    h = t_ends / np.maximum(counts, 1)
    omega = np.array([p.omega0 for p in pulses])
    dz = 0.5 * np.array([p.delta for p in pulses])
    is_rect = np.array([p.shape is PulseShape.RECTANGULAR for p in pulses])
    is_exp = np.array([p.shape is PulseShape.EXPONENTIAL for p in pulses])
    duration = np.array([p.duration if rect else 0.0 for p, rect in zip(pulses, is_rect)])
    gamma = np.array([p.gamma_p if exp else 0.0 for p, exp in zip(pulses, is_exp)])

    def drive(t):  # w(t) in A(t) = w(t) X + dz Z, for the first t.shape[1] pairs
        m = t.shape[1]
        f = np.where(is_rect[:m], t <= duration[:m], np.where(is_exp[:m], np.exp(-gamma[:m] * t), 0.0))
        return 0.5 * omega[:m] * f

    eye = np.array([1.0, 0.0, 0.0, 0.0])[:, None, None]
    u = np.broadcast_to(eye[:, 0], (4, n)).copy()
    first = 0
    while first < counts[0]:
        active = int(np.count_nonzero(counts > first))
        hs, ts, dzs = h[:active], t_ends[:active], dz[:active]
        steps = np.arange(first, min(first + max(1, _RK4_BLOCK_CELLS // active), counts[0]))[:, None]
        t0 = steps * hs
        w1 = drive(t0)
        w2 = drive(t0 + 0.5 * hs)
        # clamp the full-step sample: rounding in t_end / count can push
        # the last (i+1)*h one ulp past a rectangular window edge
        w3 = drive(np.minimum(t0 + hs, ts))
        k2 = _amul(w2, dzs, (1.0, 0.5 * hs * w1, 0.0, 0.5 * hs * dzs))
        k3 = _amul(w2, dzs, eye + 0.5 * hs * k2)
        k4 = _amul(w3, dzs, eye + hs * k3)
        k = 2.0 * k2  # plus K1 = (0, w1, 0, dz): K1 + 2 K2
        k[1] += w1
        k[3] += dzs
        q = np.where(steps < counts[:active], eye + hs / 6.0 * (k + 2.0 * k3 + k4), eye)
        while q.shape[1] > 1:
            pairs = q.shape[1] // 2
            product = _qmul(q[:, 1 : 2 * pairs : 2], q[:, 0 : 2 * pairs : 2])
            q = np.concatenate((product, q[:, 2 * pairs :]), axis=1)
        u[:, :active] = _qmul(q[:, 0], u[:, :active])
        first = int(steps[-1, 0]) + 1
    a, b, c, d = u[:, np.argsort(order)]
    return np.stack((a - 1j * d, -c - 1j * b, c - 1j * b, a + 1j * d), axis=-1).reshape(n, 2, 2)


def evolve_state(
    c,
    pulse_a: PulseSpec,
    pulse_b: PulseSpec,
    t: float,
    mode: CoefficientMode = CoefficientMode.UNITARY,
) -> tuple[np.ndarray, float]:
    """Evolve the diagonal correlations c = (c_xx, c_yy, c_zz) under two drives to time t.

    Returns C~ (3, 3) and its discarded imaginary residue (see evolve_correlations_batch).
    """
    m1 = coefficient_map_batch(pulse_a, [t], mode)
    m2 = coefficient_map_batch(pulse_b, [t], mode)
    tensors, residues = evolve_correlations_batch([c], m1, m2)
    return tensors[0, 0], float(residues[0])
