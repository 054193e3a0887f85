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
imaginary part.  LITERAL-mode maps are complex; the real part is kept as the state and the
largest imaginary magnitude is recorded as a diagnostic (``imag_residue``), never silently
dropped.  Validate's Fano check builds rho, and entanglement's density route its partial transpose (the
density of C~ diag(1, -1, 1)), by assemble_density_batch, one real matrix product exact in any summation order.

Two oracles are provided for cross-validation of the analytic maps, both
for many (pulse, time) pairs at once: ``unitary_oracle_batch`` builds the
exact 2x2 propagators as matrix exponentials through numpy's ``eigh``,
sharing the pulse gathering with the maps, and ``rk4_oracle_batch``, which
shares no code with either, integrates dU/dt = -i H(t) U with classical
Runge-Kutta from U(0) = I on the same domain, the pulse window [0, T].
There each RK4 pair turns about one fixed axis, so its steps multiply as
complex numbers, each a quartic P in one envelope sample, and every pair's
product is the exponential of the series of log P summed over its steps in
closed form (its samples are geometric; a constant drive's are equal).  The
adjoint action of either propagator on the Pauli triple must reproduce the
UNITARY-mode coefficient matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, OutOfWindow, StepTooLarge, UnphysicalState
from .pauli import PAULIS, SIGMA_X, SIGMA_Z
from .pulses import PulseSpec, _rotations

__all__ = [
    "InitialState",
    "evolve_correlations_batch",
    "assemble_density_batch",
    "adjoint_rotation",
    "unitary_oracle_batch",
    "rk4_oracle_batch",
    "RK4_DEFAULT_STEP",
]

RK4_DEFAULT_STEP = 1e-3
# the premise of the series' tail bound below (validation takes at most 50 000 steps)
_RK4_MAX_STEPS = 10**7
# a pair with u0 = h hypot(Omega0, Delta)/2 <= 0.1 sums K = 17 terms of the series of log P; P's zeros lie at
# |u| >= 1.944, so the terms past K add at most 4 n (0.1/1.944)^(K+1)/((K+1)(1 - 0.1/1.944)) = 1.5e-17 < 2^-52
# at n = _RK4_MAX_STEPS
_RK4_SERIES_BOUND = 0.1
_RK4_SERIES_TERMS = 17

# Row 3k + l is sigma_k x sigma_l as 32 reals, each real part before its imaginary part, all 0 or +-1 and at most
# two nonzero per column: C @ _PP rounds each sum once, so no summation order, FMA or BLAS thread split moves a bit
_PP = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS]).reshape(9, 16).view(np.float64)
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
    the CSV column names of the sweep layer, unquoted and ASCII-encoded, so it
    raises InvalidConfig for a label holding a comma, a double quote, a line
    break or a character outside ASCII.
    """

    label: str
    correlations: tuple[float, float, float]

    def __post_init__(self):
        if any(ch in self.label for ch in ',"\r\n'):
            raise InvalidConfig(f"state label {self.label!r} holds a comma, a double quote or a line break")
        if not self.label.isascii():
            raise InvalidConfig(f"state label {self.label!r} holds a character outside ASCII")
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
    outer(B1, B2) + c_zz outer(D1, D2), in float64 for two real maps (UNITARY)
    and in complex128 otherwise (LITERAL).  Returns the real parts of C~ for
    every (point, state) pair, shape (N, S, 3, 3), and per point the largest
    imaginary magnitude discarded over all S states: exactly 0.0 for real maps.
    The domain is that of the sweeps: physical diagonals, and map entries of
    magnitude at most 1, so every cell is at most 3 in magnitude and finite.
    """
    d = np.asarray(diagonals, dtype=float)
    if d.shape[-1:] != (3,) or not (d.ndim == 2 or d.ndim == 3 and d.shape[1] == 1):
        raise ValueError(f"expected diagonals of shape (S, 3) or (N, 1, 3), got {d.shape}")
    c = d[..., None, None]  # c[..., j, :, :] is (S, 1, 1) or (N, 1, 1, 1)
    rows = (m1[:, :, :, None] * m2[:, :, None, :])[:, None]  # rows[n, 0, j] = outer(m1[n, j], m2[n, j])
    product = c[..., 0, :, :] * rows[:, :, 0] + c[..., 1, :, :] * rows[:, :, 1] + c[..., 2, :, :] * rows[:, :, 2]
    if np.iscomplexobj(product):
        return product.real.copy(), np.abs(product.imag).max(axis=(1, 2, 3))
    return product, np.zeros(len(product))


def assemble_density_batch(tensors) -> np.ndarray:
    """Zero-Bloch densities rho = (1/4)(I + sum_kl C_kl sigma_k x sigma_l), (..., 3, 3) -> (..., 4, 4), by C @ _PP.

    C must be real (a complex one, such as a literal C~ before its real part is taken, raises TypeError)."""
    if np.iscomplexobj(tensors):
        raise TypeError("assemble_density_batch takes a real correlation tensor, not a complex one")
    t = np.asarray(tensors, dtype=float)
    rho = (t.reshape(-1, 9) @ _PP).view(np.complex128).reshape(t.shape[:-2] + (4, 4))
    return 0.25 * (_I4 + rho)


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


def _rk4_series(u0, rate, counts) -> np.ndarray:
    """Products over j < n of the steps P(u0 q^j), q = exp(-rate), as exp(sum_k alpha_k S_k); see rk4_oracle_batch."""
    s = np.exp(-0.5 * rate)  # the drive's factor per half step
    s2 = s * s
    # P(u) = Q(iu), Q(x) = 1 + c1 x + c2 x^2 + c3 x^3 + c4 x^4
    c = (1.0 + 4.0 * s + s2) / 6.0, s * (1.0 + s + s2) / 6.0, s2 * (1.0 + s2) / 12.0, s2 * s2 / 24.0
    beta, uk, log_z = [], np.ones(len(u0)), [np.zeros(len(u0)), np.zeros(len(u0))]
    for k in range(1, _RK4_SERIES_TERMS + 1):
        # log Q(x) = sum_k beta_k x^k with beta_k = c_k - (1/k) sum_{m<k} m beta_m c_{k-m}, c_k = 0 past k = 4
        b = c[k - 1] if k <= 4 else 0.0
        for m in range(max(1, k - 4), k):
            b = b - m / k * beta[m - 1] * c[k - m - 1]
        beta.append(b)
        uk = uk * u0
        # sum_j q^(kj) over j < n, and n where k rate is 0 (a constant drive, t_end = 0, or gamma_p h
        # below the float range)
        d = np.expm1(-k * rate)
        geometric = np.divide(np.expm1(-k * rate * counts), d, out=counts.astype(float), where=d != 0.0)
        # alpha_k = i^k beta_k: even k add to the real part of log z, odd k to the imaginary part
        log_z[k % 2] += (b if k % 4 < 2 else -b) * uk * geometric
    return np.exp(log_z[0] + 1j * log_z[1])


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
    h_i hypot(Omega0, Delta)/2 > _RK4_SERIES_BOUND (0.1), where the series
    below stops meeting rounding in _RK4_SERIES_TERMS terms: a bound on the
    route, not on RK4's accuracy.

    The equation is linear, so a step is U <- P U with P = I + h/6 (K1 +
    2 K2 + 2 K3 + K4), K1 = A(t0), K2 = A(t0 + h/2)(I + h/2 K1), K3 =
    A(t0 + h/2)(I + h/2 K2), K4 = A(t0 + h)(I + h K3) and A = -i H.  Inside
    its window each pair turns about one fixed axis n: x for an exponential
    pulse, (Omega0/2, 0, Delta/2)/r with r = hypot(Omega0/2, Delta/2) for a
    constant drive (a rectangle, an undriven qubit, or Omega0 = 0).  So
    A = w J with J = -i n . sigma, J^2 = -I, and every P = a I + b J is the
    complex number a + i b.  On either kind of pair the drive scales by a
    fixed s per half step, w(t0 + h/2) = s w(t0) and w(t0 + h) = s^2 w(t0),
    so with u = h w(t0) the step is a quartic in u, P(u) = Q(iu) with Q(x) =
    1 + c1 x + c2 x^2 + c3 x^3 + c4 x^4, where c1 = (1 + 4s + s^2)/6, c2 =
    s (1 + s + s^2)/6, c3 = s^2 (1 + s^2)/12 and c4 = s^4/24.  Step j has
    u_j = u0 q^j with u0 = h r, q = exp(-gamma_p h) and s = exp(-gamma_p
    h/2): a constant drive has gamma_p = 0, so s = q = 1.  |u| stays below the nearest zero of P (|u| >= 1.944 for
    every s in (0, 1]), so log P(u) = sum_k alpha_k u^k with alpha_k = i^k
    beta_k, beta_k = c_k - (1/k) sum_{m<k} m beta_m c_{k-m} (c_k = 0 past
    k = 4).  The product of the n_i steps is then exactly exp(sum_k alpha_k
    S_k) with S_k = sum_j u_j^k = u0^k expm1(-k gamma_p h n_i)/expm1(-k
    gamma_p h), a geometric sum (n_i u0^k where k gamma_p h is 0).  Its first
    _RK4_SERIES_TERMS terms give the step product to rounding, in O(terms)
    work per pair instead of O(n_i) (_rk4_series; the Taylor route of Moler
    & Van Loan, 2003, summed in the logarithm).  U = Re z I + Im z J of each
    pair's product z.
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
        u0 = h * r  # h w(0); 0 for an undriven pair or one with t_end = 0
        # gamma_p h, 0 for a constant drive; exp(-750) is already 0.0, so the cap moves no envelope sample
        # and keeps k rate n finite
        rate = np.minimum(gamma * h, 1500.0)
    past = u0 > _RK4_SERIES_BOUND
    if past.any():
        i = int(np.argmax(past))
        u = f"h hypot(Omega0, Delta)/2 = {u0[i]:.3g}"
        raise StepTooLarge(f"pair {i}: step {step} gives {u}, past the series bound {_RK4_SERIES_BOUND}")
    z = _rk4_series(u0, rate, counts)

    # J = -i (n_x sigma_x + n_z sigma_z), exactly x for an exponential pulse (Delta = 0); at r = 0, z = 1
    # and r = 1 stands in, so no 0/0
    r = np.where(r > 0.0, r, 1.0)
    nx, nz = 0.5 * omega / r, 0.5 * delta / r
    s = -1j * z.imag
    return np.stack((z.real + s * nz, s * nx, s * nx, z.real - s * nz), axis=-1).reshape(n, 2, 2)
