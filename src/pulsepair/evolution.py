"""Two-qubit state evolution in Fano form, plus the propagator oracles.

A Bell-diagonal initial state

    rho(0) = (1/4) (I + sum_k c_kk sigma_k x sigma_k)

is specified by the three diagonal correlations (c_xx, c_yy, c_zz); local
Bloch vectors are zero and stay zero because the dynamics is a product of
single-qubit maps.  Each qubit's coefficient map (rows A, B, D from the
pulses module) transforms the correlation tensor as

    C~ = M1^T diag(c_xx, c_yy, c_zz) M2,

summed elementwise as c_xx outer(A1, A2) + c_yy outer(B1, B2) + c_zz
outer(D1, D2).  UNITARY-mode maps are real, so C~ is float64 and carries no
imaginary part.  LITERAL-mode maps are complex; the real part is kept as
the state and the largest imaginary magnitude is recorded as a diagnostic
(``imag_residue``), never silently dropped.

Two oracles are provided for cross-validation of the analytic maps, both
for many (pulse, time) pairs at once: ``unitary_oracle_batch`` builds the
exact 2x2 propagators as matrix exponentials through numpy's ``eigh``,
sharing only the pulse gathering with the maps, and ``rk4_oracle_batch``,
which shares nothing with either, integrates dU/dt = -i H(t) U with
classical Runge-Kutta from U(0) = I.  Each RK4 pair takes the same steps
in one of two product orders, chosen from its pulse: a rectangle's or an
undriven qubit's piecewise constant drive raises its step matrices to
their counts on either side of the window edge, and an exponential pulse
multiplies its steps as complex numbers.  The adjoint action of either
propagator on the Pauli triple must reproduce the UNITARY-mode
coefficient matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge, UnphysicalState
from .pauli import IDENTITY2, PAULIS, SIGMA_X, SIGMA_Z, kron
from .pulses import _rotations

__all__ = [
    "InitialState",
    "evolve_correlations_batch",
    "assemble_density_batch",
    "correlations_from_density_batch",
    "adjoint_rotation",
    "unitary_oracle_batch",
    "rk4_oracle_batch",
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
    """Real tensors diag(c), (..., 3, 3), of diagonals (..., 3)."""
    d = np.asarray(diagonals, dtype=float)
    tensors = np.zeros(d.shape + (3,))
    tensors[..., [0, 1, 2], [0, 1, 2]] = d
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

    ``diagonals`` is an (S, 3) array of (c_xx, c_yy, c_zz), or (N, 1, 3)
    for one state per point; ``m1`` and ``m2`` are (N, 3, 3) arrays, one map
    per grid point.  C~ is the elementwise sum c_xx outer(A1, A2) + c_yy
    outer(B1, B2) + c_zz outer(D1, D2), in float64 when neither map has a
    nonzero imaginary part (real UNITARY maps; LITERAL maps on resonance go
    through their real parts).  Returns the real parts of C~ for every (point,
    state) pair, shape (N, S, 3, 3), and per point the largest imaginary
    magnitude discarded over all S states: exactly 0.0 on the float64 route.
    """
    d = np.asarray(diagonals, dtype=float)
    if d.shape[-1:] != (3,) or not (d.ndim == 2 or d.ndim == 3 and d.shape[1] == 1):
        raise ValueError(f"expected diagonals of shape (S, 3) or (N, 1, 3), got {d.shape}")
    if not (np.imag(m1).any() or np.imag(m2).any()):
        m1, m2 = np.real(m1), np.real(m2)
    c = d[..., None, None]  # c[..., j, :, :] is (S, 1, 1) or (N, 1, 1, 1)
    rows = (m1[:, :, :, None] * m2[:, :, None, :])[:, None]  # rows[n, 0, j] = outer(m1[n, j], m2[n, j])
    product = c[..., 0, :, :] * rows[:, :, 0] + c[..., 1, :, :] * rows[:, :, 1] + c[..., 2, :, :] * rows[:, :, 2]
    if np.iscomplexobj(product):
        return product.real.copy(), np.abs(product.imag).max(axis=(1, 2, 3))
    return product, np.zeros(len(product))


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
    """Exact rotating-frame propagators U = exp(-i tau h) of N (pulse, time) pairs, (N, 2, 2).

    ``pulses`` is one PulseSpec for every time or a sequence of N.  h is the
    constant 2x2 Hermitian generator (Delta sigma_z + Omega0 sigma_x)/2 and
    tau = t for a rectangle; an exponential pulse is the resonant unit-rate
    rectangle h = sigma_x/2 turned through tau = lambda(t); an undriven qubit
    has h = 0.  The pairs, and their OutOfWindow and AngleOverflow errors,
    come from the coefficient maps' pulses._rotations; the propagator itself
    is U = V diag(exp(-i tau w)) V^dag from one stacked LAPACK (not pauli) eigh.
    """
    om, dl, _, tau = _rotations(pulses, times)
    gens = 0.5 * (dl[:, None, None] * SIGMA_Z + om[:, None, None] * SIGMA_X)
    w, v = np.linalg.eigh(gens)
    return (v * np.exp(-1j * tau[:, None] * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


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


_QEYE = np.array([1.0, 0.0, 0.0, 0.0])[:, None]  # the quaternion 1, for (4, pairs) stacks


def _rk4_step(w1, w2, w3, dz, h) -> np.ndarray:
    """One RK4 step P of A(t) = w(t) X + dz Z from w at t0, t0 + h/2 and t0 + h, as (4, pairs) components."""
    k2 = _amul(w2, dz, (1.0, 0.5 * h * w1, 0.0, 0.5 * h * dz))
    k3 = _amul(w2, dz, _QEYE + 0.5 * h * k2)
    k4 = _amul(w3, dz, _QEYE + h * k3)
    k = 2.0 * k2  # plus K1 = (0, w1, 0, dz): K1 + 2 K2
    k[1] += w1
    k[3] += dz
    return _QEYE + h / 6.0 * (k + 2.0 * k3 + k4)


def rk4_oracle_batch(pulses, t_ends, step: float = RK4_DEFAULT_STEP) -> np.ndarray:
    """Integrate dU/dt = -i H(t) U, H(t) = (Delta sigma_z + Omega0 f(t) sigma_x)/2.

    Classical fixed-step RK4 from U(0) = I for many (pulse, t_end) pairs at
    once; pair i takes its own n_i = ceil(t_end_i / step) steps of h_i =
    t_end_i / n_i, and f is sampled at t0, t0 + h/2 and t0 + h.
    Deliberately shares no code, not even the pulse gathering, with
    unitary_oracle_batch or the coefficient maps; this is the independent
    route.  Raises ValueError unless step is positive and every t_end
    non-negative, all finite, and the step count at most _RK4_MAX_STEPS,
    and StepTooLarge if step exceeds a tenth of the shortest t_end > 0 or if
    h_i hypot(Omega0, Delta) > 4 sqrt(2), a bound that buys stability, not accuracy.

    The equation is linear, so a step is U <- P U with P = I + h/6 (K1 +
    2 K2 + 2 K3 + K4), K1 = A(t0), K2 = A(t0 + h/2)(I + h/2 K1), K3 =
    A(t0 + h/2)(I + h/2 K2), K4 = A(t0 + h)(I + h K3) and A = -i H.  In the
    units X, Y, Z = -i sigma_x, -i sigma_y, -i sigma_z, which multiply as
    quaternions (XY = Z, X^2 = -I), every P is a real a I + b X + c Y + d Z.
    The pulse decides the order of the products, never the steps or samples:
    - a rectangle or an undriven qubit steps by P_in inside its window [0, T]
      and by P_out (w = 0) past it.  With k0 = floor(T / h), the steps up to
      k0 - 3 are P_in and those from k0 + 3 are P_out, each raised to its
      count by binary powering; the at most two steps that straddle T lie
      in k0 - 2 .. k0 + 2 and are taken one by one from their own samples.
      A pair with t_end <= T is P_in^n_i.
    - an exponential pulse (Omega0 != 0) is resonant: P = a I + b X is the
      complex number a + i b, with u_i = h w_i, a = 1 - (u1 u2 + u2^2 + u2 u3)/6
      + u1 u2^2 u3/24 and b = (u1 + 4 u2 + u3)/6 - u2^2 (u1 + u3)/12 in real
      arithmetic.  Pairs sort longest first, the r still running advance by
      max(1, _RK4_BLOCK_CELLS // r) steps per block, P = 1 past a pair's n_i.
    The stepped reference clamps the last sample to t_end; no clamp is
    needed here.  A pair with an edge has t_end > T, so the clamp moves no
    sample across T, and for an exponential pulse it moves one sample by an
    ulp.
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
    counts = np.ceil(t_ends / step).astype(np.int64)
    h = t_ends / np.maximum(counts, 1)
    omega = np.array([p.omega0 for p in pulses])
    dz = 0.5 * np.array([p.delta for p in pulses])
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, nan (no step) at h = 0
        if (h * np.hypot(0.5 * omega, dz) > 2.0 * math.sqrt(2.0)).any():  # |h eig(-iH)|: RK4 diverges past 2 sqrt(2)
            raise StepTooLarge(f"step {step} is past RK4's stability bound h hypot(Omega0, Delta) <= 4 sqrt(2)")
    window = np.array([p.duration or np.inf for p in pulses])  # T, infinite unless a rectangle
    gamma = np.array([p.gamma_p or 0.0 for p in pulses])
    exponential = (gamma > 0.0) & (omega != 0.0)

    u = np.zeros((4, n))
    u[0] = 1.0
    i = np.flatnonzero(~exponential & (counts > 0))  # a pair with t_end = 0 takes no step: U = I
    hi, wi, dzi, ni, ti = h[i], 0.5 * omega[i], dz[i], counts[i], window[i]
    k0 = np.where(t_ends[i] <= ti, ni + 2, np.floor(ti / hi)).astype(np.int64)

    def power(q, w, k):  # left-multiply q by P^k, P the step of constant drive w, by binary powering
        p = _rk4_step(w, w, w, dzi, hi)
        while k.any():
            q = np.where(k & 1, _qmul(p, q), q)
            p, k = _qmul(p, p), k >> 1
        return q

    q = power(u[:, i], wi, np.maximum(k0 - 2, 0))
    for k in k0 + np.arange(-2, 3)[:, None]:
        t0 = k * hi
        w1, w2, w3 = (wi * (t <= ti) for t in (t0, t0 + 0.5 * hi, t0 + hi))
        q = np.where((0 <= k) & (k < ni), _qmul(_rk4_step(w1, w2, w3, dzi, hi), q), q)
    u[:, i] = power(q, 0.0 * wi, np.maximum(ni - k0 - 3, 0))

    z = np.ones(n, np.complex128)  # exponential pulses: U = Re z I + Im z X
    idx = np.flatnonzero(exponential)
    idx = idx[np.argsort(-counts[idx], kind="stable")]  # longest first: the running pairs are a prefix
    first, last = 0, counts[idx].max(initial=0)
    while first < last:
        a = idx[: np.count_nonzero(counts[idx] > first)]
        hs = h[a]
        steps = np.arange(first, min(first + max(1, _RK4_BLOCK_CELLS // a.size), last))[:, None]
        t0 = steps * hs
        uh = np.where(steps < counts[a], 0.5 * omega[a] * hs, 0.0)  # u = h w, and P = 1 past n_i
        u1, u2, u3 = (uh * np.exp(-gamma[a] * t) for t in (t0, t0 + 0.5 * hs, t0 + hs))
        u22, u13 = u2 * u2, u1 + u3
        p = np.empty(uh.shape, np.complex128)
        p.real = 1.0 - (u2 * u13 + u22) / 6.0 + u1 * u22 * u3 / 24.0
        p.imag = (u13 + 4.0 * u2) / 6.0 - u22 * u13 / 12.0
        z[a] *= np.prod(p, axis=0)
        first = int(steps[-1, 0]) + 1
    u[0, exponential], u[1, exponential] = z.real[exponential], z.imag[exponential]
    a, b, c, d = u
    return np.stack((a - 1j * d, -c - 1j * b, c - 1j * b, a + 1j * d), axis=-1).reshape(n, 2, 2)
