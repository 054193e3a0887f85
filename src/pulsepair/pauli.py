"""Pauli basis, Kronecker products, and a small dense Hermitian eigensolver.

Complex scalars are Python/numpy complex doubles and matrices are numpy
``complex128`` arrays throughout; this module pins the basis conventions
and supplies the eigensolver used by the entanglement measure.

The eigensolver is a cyclic complex Jacobi iteration.  At 4x4 scale it is
unconditionally stable, needs no pivoting heuristics, and its rotation
sequence for a given matrix is fully deterministic, which the sweep layer
relies on for byte-identical output.  LAPACK (``numpy.linalg.eigvalsh``)
is deliberately not used here so that tests can treat it as an independent
cross-check rather than the implementation itself.
"""

import numpy as np

from .errors import NonHermitianInput

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY2",
    "PAULIS",
    "kron",
    "commutator_check",
    "hermiticity_defect",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_batch",
]


def _frozen(values) -> np.ndarray:
    m = np.array(values, dtype=np.complex128)
    m.setflags(write=False)
    return m


SIGMA_X = _frozen([[0, 1], [1, 0]])
SIGMA_Y = _frozen([[0, -1j], [1j, 0]])
SIGMA_Z = _frozen([[1, 0], [0, -1]])
IDENTITY2 = _frozen([[1, 0], [0, 1]])

#: Pauli triple in (x, y, z) order, matching correlation-tensor indexing.
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Hermiticity gate applied before diagonalization.
HERMITICITY_TOL = 1e-10

# Off-diagonal Frobenius norm (relative to max(1, ||A||_F)) below which the
# Jacobi iteration stops.
_OFFDIAG_TOL = 1e-13
_MAX_SWEEPS = 40


def kron(a, b) -> np.ndarray:
    """Kronecker (tensor) product of two complex matrices.

    Thin wrapper over ``numpy.kron`` that fixes the dtype, so products of
    the module's Pauli constants always come out as complex128 arrays.
    """
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def commutator_check(sx=None, sy=None, sz=None, tol: float = 1e-12) -> bool:
    """Return True iff the (given or stored) basis satisfies the su(2) algebra.

    Checks the cyclic commutators [s_x, s_y] = 2i s_z (and permutations)
    together with s_k^2 = I.  Passing a scaled or permuted basis breaks at
    least one of these relations, which is what makes the check useful as a
    convention guard.
    """
    sx = SIGMA_X if sx is None else np.asarray(sx, dtype=np.complex128)
    sy = SIGMA_Y if sy is None else np.asarray(sy, dtype=np.complex128)
    sz = SIGMA_Z if sz is None else np.asarray(sz, dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    triples = ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy))
    defect = 0.0
    for a, b, c in triples:
        defect = max(defect, np.abs(a @ b - b @ a - 2j * c).max())
    for s in (sx, sy, sz):
        defect = max(defect, np.abs(s @ s - eye).max())
    return defect <= tol


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    m = np.asarray(m, dtype=np.complex128)
    return float(np.abs(m - m.conj().T).max())


def _offdiag_norms(a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    mask = ~np.eye(n, dtype=bool)
    return np.sqrt((np.abs(a[:, mask]) ** 2).sum(axis=1))


def _jacobi_rotate(a: np.ndarray, p: int, q: int, active: np.ndarray) -> None:
    """Apply one cyclic Jacobi rotation in the (p, q) plane to a batch.

    Each matrix in the batch gets its own rotation angle; matrices flagged
    inactive (already converged) receive the identity rotation so that a
    matrix's rotation history never depends on what else sits in the batch.
    """
    apq = a[:, p, q]
    r = np.abs(apq)
    # complex / r overflows to NaN for subnormal r, far below any tolerance
    big = r >= np.finfo(float).tiny
    rot = active & big
    if not rot.any():
        return
    safe_r = np.where(big, r, 1.0)
    u = np.where(rot, apq / safe_r, 1.0)
    tau = (a[:, q, q].real - a[:, p, p].real) / np.where(rot, 2.0 * safe_r, 1.0)
    root = np.sqrt(1.0 + tau * tau)
    # smaller-magnitude root of t^2 + 2 tau t - 1 = 0 keeps rotations mild;
    # the sign form avoids a division by zero when |tau| overflows root
    sign = np.where(tau >= 0.0, 1.0, -1.0)
    t = sign / (np.abs(tau) + root)
    t = np.where(rot, t, 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    cc = c[:, None]
    su = (s * u)[:, None]
    scu = (s * np.conj(u))[:, None]
    col_p = a[:, :, p] * cc - a[:, :, q] * scu
    col_q = a[:, :, p] * su + a[:, :, q] * cc
    a[:, :, p] = col_p
    a[:, :, q] = col_q
    row_p = a[:, p, :] * cc - a[:, q, :] * su
    row_q = a[:, p, :] * scu + a[:, q, :] * cc
    a[:, p, :] = row_p
    a[:, q, :] = row_q


def hermitian_eigenvalues_batch(ms) -> np.ndarray:
    """Eigenvalues of a batch of Hermitian matrices, each row ascending.

    Input shape (N, n, n); output shape (N, n).  Raises NonHermitianInput
    if any matrix in the batch fails the Hermiticity gate.  Convergence is
    tracked per matrix, so results for a given matrix are bit-identical
    whether it is solved alone or inside a larger batch.
    """
    a = np.array(ms, dtype=np.complex128)
    if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a batch of square matrices, got shape {a.shape}")
    defect = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    # written so that a NaN defect fails the gate too
    if not (defect <= HERMITICITY_TOL).all():
        raise NonHermitianInput(
            f"hermiticity defect {defect.max():.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    a = 0.5 * (a + a.conj().transpose(0, 2, 1))
    n = a.shape[-1]
    fro = np.sqrt((np.abs(a) ** 2).sum(axis=(1, 2)))
    tol = _OFFDIAG_TOL * np.maximum(1.0, fro)
    active = _offdiag_norms(a) > tol
    sweeps = 0
    while active.any():
        if sweeps >= _MAX_SWEEPS:
            raise ArithmeticError("jacobi iteration failed to converge")
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, p, q, active)
        sweeps += 1
        active = _offdiag_norms(a) > tol
    eigs = np.diagonal(a, axis1=1, axis2=2).real.copy()
    eigs.sort(axis=1)
    return eigs


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of one Hermitian matrix, sorted ascending.

    The matrix must be Hermitian within HERMITICITY_TOL, otherwise
    NonHermitianInput is raised.  The eigenvalue sum reproduces the trace
    to working precision (tested property).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return hermitian_eigenvalues_batch(m[None])[0]
