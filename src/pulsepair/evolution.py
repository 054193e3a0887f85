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
maps: ``unitary_oracle`` builds the exact 2x2 propagator via a matrix
exponential, and ``rk4_oracle_batch`` integrates the Schrodinger equation
dU/dt = -i H(t) U with classical Runge-Kutta from U(0) = I, for many
(pulse, end time) pairs at once.  The adjoint action of either propagator
on the Pauli triple must reproduce the UNITARY-mode coefficient matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NonDiagonalInput, OutOfWindow, StepTooLarge, UnphysicalState
from .pauli import IDENTITY2, PAULIS, SIGMA_X, SIGMA_Z, kron
from .pulses import CoefficientMatrix, CoefficientMode, PulseShape, PulseSpec, coefficient_map, pulse_angle

__all__ = [
    "CorrelationState",
    "InitialState",
    "evolve_correlations",
    "evolve_correlations_batch",
    "assemble_density",
    "assemble_density_batch",
    "correlations_from_density",
    "adjoint_rotation",
    "unitary_oracle",
    "rk4_oracle_batch",
    "evolve_state",
    "RK4_DEFAULT_STEP",
]

DIAG_TOL = 1e-12
RK4_DEFAULT_STEP = 1e-3

# Pauli product stacks for density assembly/extraction:
# _PP[k, l] = sigma_k x sigma_l, _PA[k] = sigma_k x I, _PB[l] = I x sigma_l.
_PP = np.array([[kron(a, b) for b in PAULIS] for a in PAULIS])
_PA = np.array([kron(s, IDENTITY2) for s in PAULIS])
_PB = np.array([kron(IDENTITY2, s) for s in PAULIS])
_I4 = np.eye(4, dtype=np.complex128)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CorrelationState:
    """Fano form of a two-qubit state: correlation tensor plus Bloch vectors.

    ``imag_residue`` is the diagnostic carried along by LITERAL-mode
    evolution: the largest imaginary magnitude that was discarded when the
    tensor was forced real.  It is 0.0 for anything built by UNITARY-mode
    evolution or by hand.
    """

    tensor: np.ndarray
    bloch_a: np.ndarray
    bloch_b: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self):
        t = np.array(self.tensor, dtype=float)
        if t.shape != (3, 3):
            raise ValueError(f"correlation tensor must be 3x3, got {t.shape}")
        a = np.array(self.bloch_a, dtype=float)
        b = np.array(self.bloch_b, dtype=float)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("Bloch vectors must have three components")
        object.__setattr__(self, "tensor", _readonly(t))
        object.__setattr__(self, "bloch_a", _readonly(a))
        object.__setattr__(self, "bloch_b", _readonly(b))

    @classmethod
    def diagonal(cls, c_xx: float, c_yy: float, c_zz: float) -> "CorrelationState":
        """Bell-diagonal state with zero Bloch vectors (no physicality check)."""
        return cls(np.diag([c_xx, c_yy, c_zz]), np.zeros(3), np.zeros(3))

    def diagonal_values(self) -> tuple[float, float, float]:
        d = np.diagonal(self.tensor)
        return float(d[0]), float(d[1]), float(d[2])

    def is_diagonal(self, tol: float = DIAG_TOL) -> bool:
        off = self.tensor - np.diag(np.diagonal(self.tensor))
        return (
            np.abs(off).max() <= tol
            and np.abs(self.bloch_a).max() <= tol
            and np.abs(self.bloch_b).max() <= tol
        )


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

    def state(self) -> CorrelationState:
        return CorrelationState.diagonal(*self.correlations)


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
    diag = np.zeros((len(diagonals), 3, 3), dtype=np.complex128)
    diag[:, [0, 1, 2], [0, 1, 2]] = diagonals
    product = m1.transpose(0, 2, 1)[:, None] @ diag @ m2[:, None]
    return product.real.copy(), np.abs(product.imag).max(axis=(1, 2, 3))


def evolve_correlations(
    c0: CorrelationState, m1: CoefficientMatrix, m2: CoefficientMatrix
) -> CorrelationState:
    """Evolve one diagonal state (see evolve_correlations_batch); the residue goes on the result."""
    if not c0.is_diagonal():
        raise NonDiagonalInput("initial state must be diagonal with zero Bloch vectors")
    tensors, residues = evolve_correlations_batch(
        np.diagonal(c0.tensor)[None], m1.matrix[None], m2.matrix[None]
    )
    return CorrelationState(tensors[0, 0], np.zeros(3), np.zeros(3), float(residues[0]))


def assemble_density_batch(tensors, bloch_a=(0.0,) * 3, bloch_b=(0.0,) * 3) -> np.ndarray:
    """Density matrices rho = (1/4)(I + Bloch terms + sum_kl C_kl sigma_k x sigma_l).

    Tensors of shape (..., 3, 3) and Bloch vectors of shape (..., 3), zero
    by default, give densities of shape (..., 4, 4).
    """
    rho = _I4 + np.einsum("...k,kij->...ij", bloch_a, _PA)
    rho = rho + np.einsum("...l,lij->...ij", bloch_b, _PB)
    return 0.25 * (rho + np.einsum("...kl,klij->...ij", tensors, _PP))


def assemble_density(state: CorrelationState) -> np.ndarray:
    """Density matrix of one Fano-form state (see assemble_density_batch)."""
    return assemble_density_batch(state.tensor, state.bloch_a, state.bloch_b)


def correlations_from_density(rho) -> CorrelationState:
    """Extract the Fano data back out of a 4x4 density matrix.

    Convention: C_kl = trace(rho . sigma_k x sigma_l), a_k = trace(rho .
    sigma_k x I), b_l likewise.  Round-trips exactly with
    assemble_density.  Imaginary parts of the traces (zero for Hermitian
    input) are folded into the diagnostic residue.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    tensor = np.einsum("ij,klji->kl", rho, _PP)
    bloch_a = np.einsum("ij,kji->k", rho, _PA)
    bloch_b = np.einsum("ij,kji->k", rho, _PB)
    residue = max(
        float(np.abs(tensor.imag).max()),
        float(np.abs(bloch_a.imag).max()),
        float(np.abs(bloch_b.imag).max()),
    )
    return CorrelationState(tensor.real.copy(), bloch_a.real.copy(), bloch_b.real.copy(), residue)


def adjoint_rotation(u) -> np.ndarray:
    """SO(3) action of a 2x2 unitary on the Pauli triple.

    R[k, l] = (1/2) Re trace(U^dag sigma_k U sigma_l), so that
    U^dag sigma_k U = sum_l R[k, l] sigma_l.  This is the bridge between
    the propagator oracles and the 3x3 coefficient maps.
    """
    u = np.asarray(u, dtype=np.complex128)
    rot = np.empty((3, 3))
    for k in range(3):
        conj = u.conj().T @ PAULIS[k] @ u
        for l in range(3):
            rot[k, l] = 0.5 * np.trace(conj @ PAULIS[l]).real
    return rot


def unitary_oracle(p: PulseSpec, t: float) -> np.ndarray:
    """Exact rotating-frame propagator U(t) via matrix exponential.

    Rectangular: U = exp(-i t (Delta sigma_z + Omega0 sigma_x)/2) for
    t in [0, T] (outside the window the generator would be wrong, so that
    is an error, matching the coefficient-map domain).  Exponential:
    U = exp(-i lambda(t) sigma_x / 2).  Undriven: identity.
    """
    if p.shape is PulseShape.NONE:
        return np.eye(2, dtype=np.complex128)
    if p.shape is PulseShape.RECTANGULAR:
        if not 0.0 <= t <= p.duration:
            raise OutOfWindow(f"t = {t} outside the pulse window [0, {p.duration}]")
        h = 0.5 * (p.delta * SIGMA_Z + p.omega0 * SIGMA_X)
        return expm(-1j * t * h)
    if t < 0.0:
        raise OutOfWindow(f"t = {t} precedes the pulse start")
    lam = pulse_angle(p, t)
    return expm(-0.5j * lam * SIGMA_X)


def rk4_oracle_batch(pulses, t_ends, step: float = RK4_DEFAULT_STEP) -> np.ndarray:
    """Integrate dU/dt = -i H(t) U, H(t) = (Delta sigma_z + Omega0 f(t) sigma_x)/2.

    Classical fixed-step RK4 from U(0) = I for many (pulse, t_end) pairs at
    once, with a common step count (the largest any of them needs) and a
    per-pair evenly dividing h <= step.  Deliberately shares no code with
    unitary_oracle or the coefficient maps; this is the independent route.
    Raises StepTooLarge if step exceeds a tenth of the shortest t_end > 0.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    t_ends = np.asarray(t_ends, dtype=float)
    n = len(pulses)
    if t_ends.shape != (n,):
        raise ValueError("t_ends must match pulses in length")
    if (t_ends < 0.0).any():
        raise ValueError("t_end must be non-negative")
    positive = t_ends[t_ends > 0.0]
    if positive.size and step > positive.min() / 10.0:
        raise StepTooLarge(f"step {step} exceeds t_end/10 = {positive.min() / 10.0}")
    if not positive.size:
        return np.broadcast_to(np.eye(2, dtype=np.complex128), (n, 2, 2)).copy()

    n_steps = int(np.ceil(positive.max() / step))
    h = t_ends / n_steps
    omega = np.array([p.omega0 for p in pulses])
    delta = np.array([p.delta for p in pulses])
    is_rect = np.array([p.shape is PulseShape.RECTANGULAR for p in pulses])
    is_exp = np.array([p.shape is PulseShape.EXPONENTIAL for p in pulses])
    duration = np.array(
        [p.duration if p.shape is PulseShape.RECTANGULAR else 0.0 for p in pulses]
    )
    gamma = np.array([p.gamma_p if p.shape is PulseShape.EXPONENTIAL else 0.0 for p in pulses])

    def w_at(t):
        f = np.where(
            is_rect,
            (t <= duration).astype(float),
            np.where(is_exp, np.exp(-gamma * t), 0.0),
        )
        return 0.5 * omega * f

    dz = (0.5 * delta)[:, None]
    u = np.broadcast_to(np.eye(2, dtype=np.complex128), (n, 2, 2)).copy()
    hh = h[:, None, None]

    def deriv(w, m):
        w = w[:, None]
        top = -1j * (dz * m[:, 0, :] + w * m[:, 1, :])
        bot = -1j * (w * m[:, 0, :] - dz * m[:, 1, :])
        return np.stack((top, bot), axis=1)

    for i in range(n_steps):
        t0 = i * h
        # clamp the full-step sample: rounding in t_ends / n_steps can
        # push the last (i+1)*h one ulp past a rectangular window edge
        w1 = w_at(t0)
        w2 = w_at(t0 + 0.5 * h)
        w3 = w_at(np.minimum(t0 + h, t_ends))
        k1 = deriv(w1, u)
        k2 = deriv(w2, u + 0.5 * hh * k1)
        k3 = deriv(w2, u + 0.5 * hh * k2)
        k4 = deriv(w3, u + hh * k3)
        u += (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def evolve_state(
    c0: CorrelationState,
    pulse_a: PulseSpec,
    pulse_b: PulseSpec,
    t: float,
    mode: CoefficientMode = CoefficientMode.UNITARY,
) -> CorrelationState:
    """Evolve a diagonal initial state under two independent drives to time t."""
    m1 = coefficient_map(pulse_a, t, mode)
    m2 = coefficient_map(pulse_b, t, mode)
    return evolve_correlations(c0, m1, m2)
