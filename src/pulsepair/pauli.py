"""Pauli basis and a small dense Hermitian eigensolver.

Complex scalars are Python/numpy complex doubles and matrices are numpy
``complex128`` arrays throughout; this module pins the basis conventions
and supplies the eigensolver that entanglement._density_negativities takes
for the sweep rounding guard's ties and, beside LAPACK's, for validate's closed-form triangle.

The eigensolver is a cyclic complex Jacobi iteration.  At 4x4 scale it is
unconditionally stable, needs no pivoting heuristics, and its rotation
sequence for a given matrix is fully deterministic, which the sweep layer
relies on for byte-identical output.  LAPACK (``numpy.linalg.eigvalsh``)
is deliberately not used here so that tests can treat it as an independent
cross-check rather than the implementation itself.  A batch is held as
(n, n, N), so each row a rotation touches is one contiguous block, and a
matrix leaves the batch at the start of the first sweep that finds it
converged.  A rotation whose off-diagonal entry is lost in floating point
next to both of its diagonal entries is skipped, so a degenerate spectrum
does not stall the iteration on rounding noise.  A batch that has not
converged after _MAX_SWEEPS sweeps raises ConvergenceFailure, a
PulsePairError that the command line reports with exit code 1.
"""

import numpy as np

from .errors import ConvergenceFailure, NonHermitianInput

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "hermitian_eigenvalues_batch",
]


def _frozen(values) -> np.ndarray:
    m = np.array(values, dtype=np.complex128)
    m.setflags(write=False)
    return m


SIGMA_X = _frozen([[0, 1], [1, 0]])
SIGMA_Y = _frozen([[0, -1j], [1j, 0]])
SIGMA_Z = _frozen([[1, 0], [0, -1]])

#: Pauli triple in (x, y, z) order, matching correlation-tensor indexing.
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Hermiticity gate applied before diagonalization.
HERMITICITY_TOL = 1e-10

# Off-diagonal Frobenius norm (relative to max(1, ||A||_F)) below which the
# Jacobi iteration stops.
_OFFDIAG_TOL = 1e-13
_MAX_SWEEPS = 40


def _offdiag_norms(a: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix of an (n, n, N) batch.

    The squares are added one entry at a time in row-major order, so a
    matrix's norm does not depend on how many others share the batch.
    """
    total = np.zeros(a.shape[2])
    for square in np.abs(a[~np.eye(a.shape[0], dtype=bool)]) ** 2:
        total += square
    return np.sqrt(total)


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    """Apply one cyclic Jacobi rotation in the (p, q) plane to an (n, n, N) batch.

    Each matrix in the batch gets its own rotation angle.  Row p of every
    matrix is the contiguous (n, N) block ``a[p]``.
    """
    apq = a[p, q]
    r = np.abs(apq)
    app, aqq = a[p, p].real, a[q, q].real
    abs_pp, abs_qq, g = np.abs(app), np.abs(aqq), 100.0 * r
    # complex / r overflows to NaN for subnormal r, far below any tolerance;
    # an a_pq lost next to both |a_pp| and |a_qq| is skipped (the threshold
    # rule of cyclic Jacobi codes), else equal diagonals turn rounding noise
    # into a 45-degree rotation every sweep
    big = (r >= np.finfo(float).tiny) & ((abs_pp + g != abs_pp) | (abs_qq + g != abs_qq))
    if not big.any():
        return
    safe_r = np.where(big, r, 1.0)
    u = np.where(big, apq / safe_r, 1.0)
    tau = (aqq - app) / np.where(big, 2.0 * safe_r, 1.0)
    root = np.sqrt(1.0 + tau * tau)
    # smaller-magnitude root of t^2 + 2 tau t - 1 = 0 keeps rotations mild;
    # the sign form avoids a division by zero when |tau| overflows root
    sign = np.where(tau >= 0.0, 1.0, -1.0)
    t = sign / (np.abs(tau) + root)
    t = np.where(big, t, 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    su = s * u
    scu = s * np.conj(u)
    # the complex cast numpy would make inside each product, made once
    c = c.astype(np.complex128)
    col_p = a[:, p] * c - a[:, q] * scu
    col_q = a[:, p] * su + a[:, q] * c
    a[:, p] = col_p
    a[:, q] = col_q
    row_p = a[p] * c - a[q] * su
    row_q = a[p] * scu + a[q] * c
    a[p] = row_p
    a[q] = row_q


def hermitian_eigenvalues_batch(ms) -> np.ndarray:
    """Eigenvalues of a batch of Hermitian matrices, each row ascending.

    Input shape (N, n, n); output shape (N, n).  Raises NonHermitianInput
    if any matrix in the batch fails the Hermiticity gate.  Convergence is
    tested per matrix at the start of each sweep; a converged matrix writes
    its diagonal out and leaves the batch, so each matrix sees exactly the
    rotations of its own solo solve and its result is bit-identical whether
    it is solved alone or inside a larger batch.
    """
    m = np.asarray(ms, dtype=np.complex128)
    if m.ndim != 3 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a batch of square matrices, got shape {m.shape}")
    count, n = m.shape[:2]
    # a C-ordered (n, n, N) copy: entry (i, j) of every matrix is one contiguous vector
    a = np.array(m.transpose(1, 2, 0), order="C")
    a_dagger = a.conj().transpose(1, 0, 2)
    defect = np.abs(a - a_dagger).max(axis=(0, 1))
    # written so that a NaN defect fails the gate too
    if not (defect <= HERMITICITY_TOL).all():
        raise NonHermitianInput(
            f"hermiticity defect {defect.max():.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    a = 0.5 * (a + a_dagger)
    # one contiguous row of n*n squares per matrix, so each sum has a fixed order
    squares = np.ascontiguousarray((np.abs(a.reshape(n * n, count)) ** 2).T)
    tol = _OFFDIAG_TOL * np.maximum(1.0, np.sqrt(squares.sum(axis=1)))
    eigs = np.empty((count, n))
    rows = np.arange(count)
    sweeps = 0
    # tau * tau in _jacobi_rotate overflows for a tiny but normal
    # off-diagonal; the rotation is still right, because t becomes 0
    with np.errstate(over="ignore"):
        while True:
            active = _offdiag_norms(a) > tol
            if not active.all():
                eigs[rows[~active]] = np.diagonal(a, axis1=0, axis2=1)[~active].real
                a, rows, tol = a[:, :, active], rows[active], tol[active]
            if not len(rows):
                break
            if sweeps >= _MAX_SWEEPS:
                raise ConvergenceFailure(f"jacobi iteration failed to converge in {sweeps} sweeps")
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _jacobi_rotate(a, p, q)
            sweeps += 1
    eigs.sort(axis=1)
    return eigs
