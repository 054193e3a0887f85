"""Independent reference computations used across the test modules.

Everything here is deliberately written against numpy/scipy primitives
only, never against the package under test, so a test comparing the two
routes is a genuine cross-check rather than a tautology.
"""

import numpy as np
from scipy.linalg import expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULI3 = (SX, SY, SZ)


def bell_diagonal_rho(c: tuple[float, float, float]) -> np.ndarray:
    """rho = (1/4)(I + c1 XX + c2 YY + c3 ZZ), assembled with raw krons."""
    rho = np.eye(4, dtype=np.complex128)
    for ck, sk in zip(c, PAULI3):
        rho += ck * np.kron(sk, sk)
    return 0.25 * rho


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    out = np.empty_like(rho)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
    return out


def pt_eigenvalues_closed_form(c: tuple[float, float, float]) -> np.ndarray:
    """Partial-transpose spectrum of a Bell-diagonal state, by algebra.

    Transposition of the second qubit flips the sign of c_yy only, and
    the Bell basis diagonalizes every such matrix.
    """
    c1, c2, c3 = c
    return np.sort(
        np.array(
            [
                (1.0 + c1 + c2 + c3) / 4.0,
                (1.0 - c1 - c2 + c3) / 4.0,
                (1.0 + c1 - c2 - c3) / 4.0,
                (1.0 - c1 + c2 - c3) / 4.0,
            ]
        )
    )


def zero_bloch_negativities(tensors: np.ndarray) -> np.ndarray:
    """Unclamped negativities of (1/4)(I + sum_kl T_kl s_k x s_l) for a stack of T.

    With zero Bloch vectors, local rotations bring T to diag(t1, t2, t3),
    the singular values of T with the sign of det T on the last one
    (Horodecki & Horodecki, PRA 54, 1838, 1996).  The rotated state is
    Bell-diagonal, and local rotations keep the partial-transpose spectrum.
    """
    u, s, vt = np.linalg.svd(tensors)
    c1, c2 = s[..., 0], s[..., 1]
    c3 = np.sign(np.linalg.det(u) * np.linalg.det(vt)) * s[..., 2]
    mu = np.stack(
        [1.0 + c1 + c2 + c3, 1.0 - c1 - c2 + c3, 1.0 + c1 - c2 - c3, 1.0 - c1 + c2 - c3], -1
    ) / 4.0
    return np.abs(mu).sum(axis=-1) - 1.0


def brute_negativity(c: tuple[float, float, float]) -> float:
    mu = np.linalg.eigvalsh(partial_transpose_second(bell_diagonal_rho(c)))
    return float(np.abs(mu).sum() - 1.0)


def rho_eigenvalues_closed_form(c: tuple[float, float, float]) -> np.ndarray:
    c1, c2, c3 = c
    return np.sort(
        np.array(
            [
                (1.0 + c1 - c2 + c3) / 4.0,
                (1.0 - c1 + c2 + c3) / 4.0,
                (1.0 + c1 + c2 - c3) / 4.0,
                (1.0 - c1 - c2 - c3) / 4.0,
            ]
        )
    )


def rect_propagator(omega0: float, delta: float, t: float) -> np.ndarray:
    return expm(-1j * t * 0.5 * (delta * SZ + omega0 * SX))


def exp_propagator(omega0: float, gamma_p: float, t: float) -> np.ndarray:
    lam = (omega0 / gamma_p) * (1.0 - np.exp(-gamma_p * t))
    return expm(-0.5j * lam * SX)


def heisenberg_rotation(u: np.ndarray) -> np.ndarray:
    """R[k, l] with U^dag sigma_k U = sum_l R[k, l] sigma_l."""
    r = np.empty((3, 3))
    for k in range(3):
        evolved = u.conj().T @ PAULI3[k] @ u
        for l in range(3):
            r[k, l] = 0.5 * np.trace(evolved @ PAULI3[l]).real
    return r


def rk4_sequential(pulses, t_ends, step: float) -> np.ndarray:
    """Classical RK4 for dU/dt = -i H(t) U, one step at a time over a batch.

    The step-by-step form of the package's RK4 oracle, kept as the
    reference for its blocked product form: pair i takes n_i =
    ceil(t_end_i / step) steps of h_i = t_end_i / n_i and then stops, and
    the envelope is sampled at t0, t0 + h/2 and min(t0 + h, t_end).
    Pulses are read through their attributes only; inputs are not
    validated.
    """
    t_ends = np.asarray(t_ends, dtype=float)
    counts = np.ceil(t_ends / step).astype(int)
    h = t_ends / np.maximum(counts, 1)
    shape = [p.shape.value for p in pulses]
    is_rect = np.array([s == "rectangular" for s in shape])
    is_exp = np.array([s == "exponential" for s in shape])
    omega = np.array([p.omega0 for p in pulses])
    duration = np.array([p.duration if r else 0.0 for p, r in zip(pulses, is_rect)])
    gamma = np.array([p.gamma_p if e else 0.0 for p, e in zip(pulses, is_exp)])
    dz = (0.5 * np.array([p.delta for p in pulses]))[:, None]

    def w_at(t):
        f = np.where(is_rect, (t <= duration).astype(float), np.where(is_exp, np.exp(-gamma * t), 0.0))
        return 0.5 * omega * f

    def deriv(w, m):
        w = w[:, None]
        top = -1j * (dz * m[:, 0, :] + w * m[:, 1, :])
        bot = -1j * (w * m[:, 0, :] - dz * m[:, 1, :])
        return np.stack((top, bot), axis=1)

    u = np.broadcast_to(np.eye(2, dtype=np.complex128), (len(pulses), 2, 2)).copy()
    hh = h[:, None, None]
    for i in range(counts.max()):
        t0 = i * h
        w1 = w_at(t0)
        w2 = w_at(t0 + 0.5 * h)
        w3 = w_at(np.minimum(t0 + h, t_ends))
        k1 = deriv(w1, u)
        k2 = deriv(w2, u + 0.5 * hh * k1)
        k3 = deriv(w2, u + 0.5 * hh * k2)
        k4 = deriv(w3, u + hh * k3)
        running = (i < counts)[:, None, None]
        u = np.where(running, u + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), u)
    return u
