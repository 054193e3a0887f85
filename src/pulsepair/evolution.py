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
sharing the pulse gathering with the maps, and ``rk4_oracle_batch``, which
shares no code with either, integrates dU/dt = -i H(t) U with classical
Runge-Kutta from U(0) = I on the same domain, the pulse window [0, T].
There each RK4 pair turns about one fixed axis, so its steps multiply as
complex numbers: a constant drive raises its one step to its count, and an
exponential pulse multiplies its own steps in blocks.  The adjoint action of
either propagator on the Pauli triple must reproduce the UNITARY-mode
coefficient matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfWindow, StepTooLarge, UnphysicalState
from .pauli import IDENTITY2, PAULIS, SIGMA_X, SIGMA_Z
from .pulses import PulseSpec, _rotations

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
_PP = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])
_PA = np.array([np.kron(s, IDENTITY2) for s in PAULIS])
_PB = np.array([np.kron(IDENTITY2, s) for s in PAULIS])
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

    The constructor checks physicality (finite correlations, density-matrix
    positivity up to 1e-10) and raises UnphysicalState otherwise, so every
    state, one built by a classmethod or not, is physical.  The label feeds
    the CSV column names of the sweep layer.
    """

    label: str
    correlations: tuple[float, float, float]

    def __post_init__(self):
        c = tuple(map(float, self.correlations))
        object.__setattr__(self, "correlations", c)
        if not all(map(math.isfinite, c)):
            raise UnphysicalState(f"correlations {c} must be finite")
        if min(_bell_diagonal_rho_eigenvalues(c)) < -1e-10:
            raise UnphysicalState(f"correlations {c} give a negative density eigenvalue")

    @classmethod
    def bell_singlet(cls) -> "InitialState":
        return cls("bell", (-1.0, -1.0, -1.0))

    @classmethod
    def werner(cls, x: float) -> "InitialState":
        return cls("werner", (x, x, x))

    @classmethod
    def generalized_werner(cls, c_xx: float, c_yy: float, c_zz: float) -> "InitialState":
        return cls("genwerner", (c_xx, c_yy, c_zz))


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


def unitary_oracle_batch(pulses: PulseSpec, times) -> np.ndarray:
    """Exact rotating-frame propagators U = exp(-i tau h) of N (pulse, time) pairs, (N, 2, 2).

    ``pulses`` is one PulseSpec for every time or a PulseSpec of N.  h
    is the constant 2x2 Hermitian generator (Delta sigma_z + Omega0 sigma_x)/2
    and tau = t for a rectangle; an exponential pulse is the resonant unit-rate
    rectangle h = sigma_x/2 turned through tau = lambda(t); an undriven qubit
    has h = 0.  The pairs, and their OutOfWindow and AngleOverflow errors,
    come from the coefficient maps' pulses._rotations; the propagator itself
    is U = V diag(exp(-i tau w)) V^dag from one stacked LAPACK (not pauli) eigh.
    """
    om, dl, _, tau = _rotations(pulses, times)
    gens = 0.5 * (dl[:, None, None] * SIGMA_Z + om[:, None, None] * SIGMA_X)
    w, v = np.linalg.eigh(gens)
    return (v * np.exp(-1j * tau[:, None] * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _rk4_step(u1, u2, u3) -> np.ndarray:
    """RK4 steps P = a I + b J, J^2 = -I, as complex a + i b of u = h w at t0, t0 + h/2 and t0 + h."""
    u22, u13 = u2 * u2, u1 + u3
    p = np.empty(np.shape(u2), np.complex128)
    p.real = 1.0 - (u2 * u13 + u22) / 6.0 + u1 * u22 * u3 / 24.0
    p.imag = (u13 + 4.0 * u2) / 6.0 - u22 * u13 / 12.0
    return p


def rk4_oracle_batch(pulses: PulseSpec, t_ends, step: float = RK4_DEFAULT_STEP) -> np.ndarray:
    """Integrate dU/dt = -i H(t) U, H(t) = (Delta sigma_z + Omega0 f(t) sigma_x)/2, on [0, T].

    Classical fixed-step RK4 from U(0) = I for many (pulse, t_end) pairs at
    once; pair i takes its own n_i = ceil(t_end_i / step) steps of h_i =
    t_end_i / n_i.  ``pulses`` is one PulseSpec for every t_end or a
    PulseSpec of N.  It shares no code with unitary_oracle_batch and the maps;
    its window test, envelope and stepping are its own, the independent route.
    Raises ValueError unless step is positive, t_ends matches the pulses in
    length and every t_end is non-negative, all finite, and the step count
    at most _RK4_MAX_STEPS; OutOfWindow for the first pair with t_end past
    its window T (a rectangle's duration, inf otherwise), as the maps do; and
    StepTooLarge if step exceeds a tenth of the shortest t_end > 0 or if
    h_i hypot(Omega0, Delta) > 4 sqrt(2), a bound that buys stability, not
    accuracy.

    The equation is linear, so a step is U <- P U with P = I + h/6 (K1 +
    2 K2 + 2 K3 + K4), K1 = A(t0), K2 = A(t0 + h/2)(I + h/2 K1), K3 =
    A(t0 + h/2)(I + h/2 K2), K4 = A(t0 + h)(I + h K3) and A = -i H.  Inside
    its window each pair turns about one fixed axis n: x for an exponential
    pulse, (Omega0/2, 0, Delta/2)/r with r = hypot(Omega0/2, Delta/2) for a
    constant drive (a rectangle, an undriven qubit, or Omega0 = 0).  So
    A = w J with J = -i n . sigma, J^2 = -I, and every P = a I + b J is the
    complex number a + i b: with u_i = h w_i at t0, t0 + h/2 and t0 + h,
    a = 1 - (u1 u2 + u2^2 + u2 u3)/6 + u1 u2^2 u3/24 and b = (u1 + 4 u2 +
    u3)/6 - u2^2 (u1 + u3)/12, in real arithmetic (_rk4_step).
    - a constant drive has u1 = u2 = u3 = h r, and its pair is P^n_i by
      binary powering (the Taylor route of Moler & Van Loan, 2003);
    - an exponential pulse samples w = Omega0 exp(-gamma_p t)/2 at each
      step.  Pairs sort longest first, the r still running advance by
      max(1, _RK4_BLOCK_CELLS // r) steps per block, P = 1 past a pair's n_i.
    U = Re z I + Im z J of each pair's product z.
    """
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    t_ends = np.asarray(t_ends, dtype=float)
    if t_ends.ndim != 1 or np.shape(pulses.omega0) not in ((), t_ends.shape):
        raise ValueError("t_ends must match pulses in length")
    omega, delta, window, gamma = np.broadcast_arrays(*pulses, t_ends)[:4]  # window T, gamma_p: inf, 0 if unused
    n = len(t_ends)
    if not (np.isfinite(t_ends) & (t_ends >= 0.0)).all():
        raise ValueError("t_end must be finite and non-negative")
    outside = t_ends > window
    if outside.any():
        i = int(np.argmax(outside))
        raise OutOfWindow(f"pair {i}: t = {t_ends[i]} outside the pulse window [0, {window[i]}]")
    positive = t_ends[t_ends > 0.0]
    if positive.size and step > positive.min() / 10.0:
        raise StepTooLarge(f"step {step} exceeds t_end/10 = {positive.min() / 10.0}")
    t_max = float(t_ends.max(initial=0.0))
    if t_max / step > _RK4_MAX_STEPS:
        raise ValueError(f"t_end {t_max} takes {t_max / step:.3g} steps of {step}, over {_RK4_MAX_STEPS}")
    counts = np.ceil(t_ends / step).astype(np.int64)
    h = t_ends / np.maximum(counts, 1)  # 0 for a pair with t_end = 0: U = I
    r = np.hypot(0.5 * omega, 0.5 * delta)
    with np.errstate(over="ignore"):  # inf past the float range
        if (h * r > 2.0 * math.sqrt(2.0)).any():  # |h eig(-iH)|: RK4 diverges past 2 sqrt(2)
            raise StepTooLarge(f"step {step} is past RK4's stability bound h hypot(Omega0, Delta) <= 4 sqrt(2)")
    exponential = (gamma > 0.0) & (omega != 0.0)

    # a constant drive: its one step raised to its count; an exponential pair stays at z = 1 here
    u = h * r
    z, p, k = np.ones(n, np.complex128), _rk4_step(u, u, u), np.where(exponential, 0, counts)
    while k.any():
        z = np.where(k & 1, z * p, z)
        p, k = p * p, k >> 1

    idx = np.flatnonzero(exponential)
    idx = idx[np.argsort(-counts[idx], kind="stable")]  # longest first: the running pairs are a prefix
    first, last = 0, counts[idx].max(initial=0)
    while first < last:
        a = idx[: np.count_nonzero(counts[idx] > first)]
        hs = h[a]
        steps = np.arange(first, min(first + max(1, _RK4_BLOCK_CELLS // a.size), last))[:, None]
        t0 = steps * hs
        uh = np.where(steps < counts[a], 0.5 * omega[a] * hs, 0.0)  # u = h w, and P = 1 past n_i
        z[a] *= np.prod(_rk4_step(*(uh * np.exp(-gamma[a] * t) for t in (t0, t0 + 0.5 * hs, t0 + hs))), axis=0)
        first = int(steps[-1, 0]) + 1

    # J = -i (n_x sigma_x + n_z sigma_z), exactly x for an exponential pulse (Delta = 0); at r = 0, z = 1
    # and r = 1 stands in, so no 0/0
    r = np.where(r > 0.0, r, 1.0)
    nx, nz = 0.5 * omega / r, 0.5 * delta / r
    s = -1j * z.imag
    return np.stack((z.real + s * nz, s * nx, s * nx, z.real - s * nz), axis=-1).reshape(n, 2, 2)
