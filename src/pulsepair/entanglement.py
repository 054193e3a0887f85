"""Partial transpose and negativity.

Negativity here is E = sum_i |mu_i| - 1 over the four eigenvalues mu_i of
the partial transpose of rho.  Since the partial transpose preserves the
trace, E equals twice the total weight of negative mu_i, vanishes iff the
partial transpose is positive, and reaches 1 on maximally entangled
two-qubit states.  Tiny negative round-off is clamped to zero.
zero_bloch_spectrum_batch takes the mu_i of a state with zero Bloch vectors
from the singular values of its 3x3 correlation tensor alone: in closed form
where the tensor splits into T_xx and a yz block, as under resonant drives
(which turn their qubits about x), and from LAPACK's SVD otherwise.
zero_bloch_negativity_batch takes E of those other, x-coupled tensors (a
detuned drive's) from the roots of a quartic in double-double instead.
_density_negativities is the one route through the density: rho^T_B is the
density of T diag(1, -1, 1), as sigma_y^T = -sigma_y; its mu_i come from each
solver the caller names (pauli's Jacobi for the sweep rounding guard, LAPACK's
eigvalsh for validate's oracles; the closed-form triangle's two share one build).
"""

import numpy as np

from .errors import TraceNotOne
from .evolution import assemble_density_batch

__all__ = [
    "zero_bloch_spectrum_batch",
    "zero_bloch_negativity_batch",
]

CLAMP_TOL = 1e-12
_X_COUPLINGS = (..., [0, 0, 1, 2], [1, 2, 0, 0])  # T_xy, T_xz, T_yx and T_zx, where -0.0 is no coupling


def _clamp(raw: np.ndarray) -> np.ndarray:
    return np.where(raw < CLAMP_TOL, 0.0, raw)


def _density_negativities(tensors, *solvers) -> list[np.ndarray]:
    """Clamped negativities of (N, 3, 3) tensors through partial transposes built once, per solver (N, 4, 4) -> (N, 4)."""
    transposes = assemble_density_batch(tensors * np.array([1.0, -1.0, 1.0]))  # rho^T_B = density of T diag(1, -1, 1)
    return [_clamp(np.abs(solve(transposes)).sum(axis=1) - 1.0) for solve in solvers]


def _triple_product(t: np.ndarray) -> np.ndarray:
    """det T of (..., 3, 3) as the triple product (LAPACK's LU warns on some subnormal entries), each row first
    scaled by a power of two to a largest magnitude in [0.5, 1): the sign stays, nothing overflows."""
    rows = np.moveaxis(t, (-2, -1), (0, 1)).copy()  # (3, 3, ...), so that max(axis=1) is fast
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])
    return r11 * (r22 * r33 - r23 * r32) + r12 * (r23 * r31 - r21 * r33) + r13 * (r21 * r32 - r22 * r31)


@np.errstate(over="ignore", invalid="ignore")  # a spectrum past the float range raises at the end
def zero_bloch_spectrum_batch(tensors) -> np.ndarray:
    """Partial-transpose spectra of the states (1/4)(I + sum_kl T_kl sigma_k x sigma_l), (..., 3, 3) -> (..., 4).

    Local rotations, which keep the partial-transpose spectrum, bring a real T
    to diag(t1, t2, t3): its singular values with the sign of det T on the
    smallest (Horodecki & Horodecki, PRA 54, 1838, 1996).  The spectrum is then
    (1 + t1 + t2 + t3)/4, (1 - t1 - t2 + t3)/4, (1 + t1 - t2 - t3)/4 and
    (1 - t1 + t2 - t3)/4, in that order, physical state or not.  A non-finite T
    raises TraceNotOne, as its density's trace would, and so does a T whose
    spectrum overflows the float range, such as diag(1.7e308, 1.7e308, 1).

    The singular values take one of two routes, chosen per cell from T alone.
    An x-decoupled T, whose T_xy, T_xz, T_yx and T_zx are all zero (-0.0
    included), is block diagonal, so its singular values are exactly |T_xx| and
    those of its yz block [[a, b], [c, d]]: (hypot(a + d, c - b) +- hypot(a - d,
    c + b))/2, the second in magnitude, sorted descending as LAPACK's are.  Every
    other T goes to one stacked LAPACK np.linalg.svd, whose values replace the
    block formula's (zero_bloch_negativity_batch takes those of its cells from a quartic).
    """
    t = np.asarray(tensors, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"expected shape (..., 3, 3), got {t.shape}")
    if not np.isfinite(t).all():
        raise TraceNotOne("correlation tensor is not finite, so neither is the density trace")
    yy, yz, zy, zz = t[..., 1, 1], t[..., 1, 2], t[..., 2, 1], t[..., 2, 2]
    p, q = np.hypot(yy + zz, zy - yz), np.hypot(yy - zz, zy + yz)  # p**2 - q**2 = 4 det of the yz block
    a, b, c = np.abs(t[..., 0, 0]), 0.5 * (p + q), 0.5 * np.abs(p - q)  # b >= c
    s = np.stack((np.maximum(a, b), np.maximum(np.minimum(a, b), c), np.minimum(a, c)), axis=-1)
    coupled = t[_X_COUPLINGS].any(axis=-1)
    if coupled.any():
        s[coupled] = np.linalg.svd(t[coupled], compute_uv=False)
    t1, t2 = s[..., 0], s[..., 1]
    t3 = np.where(_triple_product(t) < 0.0, -s[..., 2], s[..., 2])
    mu = np.stack((1.0 + t1 + t2 + t3, 1.0 - t1 - t2 + t3, 1.0 + t1 - t2 - t3, 1.0 - t1 + t2 - t3))
    if not np.isfinite(mu).all():
        raise TraceNotOne("correlation tensor is so large that its partial-transpose spectrum overflows")
    return np.moveaxis(0.25 * mu, 0, -1)  # a last-axis np.stack gives the same bits at twice the time


_PART_CELLS = 512  # x-coupled cells per _quartic_negativities call, whose temporaries then stay in cache
_EXT = [3 * r + c for r in (0, 1, 2, 0, 1) for c in (0, 1, 2, 0, 1)]  # T's rows and columns, cyclically extended


def _split(x):  # Veltkamp: x = hi + lo, halves of at most 26 bits whose products are exact
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_sum(a, b):  # a + b = s + e exactly (Knuth)
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b, ah, al, bh, bl):  # a * b = p + e exactly (Dekker), from the halves of a and b
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_sum(p, e, sigma):  # sum of p + e over axis 0 as (hi, lo), for sum |p| < sigma, a power of two (ExtractScalar)
    q = (sigma + p) - sigma
    hi, lo = q.sum(axis=0), ((p - q) + e).sum(axis=0)
    s = hi + lo
    return s, lo - (s - hi)


@np.errstate(all="ignore")  # a root past the float range or a 0/0 step sends its cell back instead
def _quartic_negativities(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negativities of finite x-coupled tensors (N, 3, 3), and the mask of the cells that need their spectrum.

    T is scaled by 2**-e to a largest entry in [0.5, 1), and so are the roots: -1 becomes -2**-e.  Each root starts
    in float64 from the eigenvalues of T^T T, the roots of l^3 - a l^2 + b l - det^2, then takes one Newton step and
    one correction whose residual is in double-double.  A cell goes back if a root near -1 has |f'| under 2**-10 or
    a correction whose second-order term is not under 2**-80 |f'|, or if a root overflows."""
    x = np.ascontiguousarray(t.reshape(n := len(t), 9).T)
    e = np.maximum(np.frexp(np.abs(x).max(axis=0))[1], -1000)  # below 2**-1000, E is 0 however T is scaled
    x5 = (x * np.ldexp(1.0, -e))[_EXT].reshape(5, 5, n)
    h5, l5 = _split(x5)
    x, xh, xl = x5[:3, :3], h5[:3, :3], l5[:3, :3]
    p, pe = _two_prod(x, x, xh, xl, xh, xl)
    a0, a1 = _dd_sum(p.reshape(9, n), pe.reshape(9, n), 16.0)
    (u, v), (w, z) = (np.s_[1:4, 1:4], np.s_[2:5, 2:5]), (np.s_[1:4, 2:5], np.s_[2:5, 1:4])
    p, pe = _two_prod(x5[u], x5[v], h5[u], l5[u], h5[v], l5[v])
    q, qe = _two_prod(x5[w], x5[z], h5[w], l5[w], h5[z], l5[z])
    c, ce = _two_sum(p, -q)
    ce += pe - qe  # the cofactors of T, as c + ce
    p, pe = _two_prod(c, c, *(_split(c) * 2))
    b0, b1 = _dd_sum(p.reshape(9, n), (pe + 2.0 * c * ce).reshape(9, n), 32.0)
    p, pe = _two_prod(c[0], x[0], *_split(c[0]), xh[0], xl[0])
    d0, d1 = _dd_sum(p, pe + ce[0] * x[0], 8.0)
    m, k = np.maximum(a0 * a0 / 9.0 - b0 / 3.0, 0.0), a0 * (a0 * a0 / 27.0 - b0 / 6.0) + 0.5 * d0 * d0
    r = np.sqrt(m)  # l = a/3 + y solves y^3 - 3m y - 2k = 0
    phi = np.arccos(np.clip(k / np.maximum(m * r, 1e-300), -1.0, 1.0)) / 3.0
    l1, l3 = a0 / 3.0 + 2.0 * r * np.cos(phi), a0 / 3.0 + 2.0 * r * np.cos(phi + 2.0 * np.pi / 3.0)
    s1, s2 = np.sqrt(np.maximum((l1, a0 - l1 - l3), 0.0))
    s3 = np.copysign(np.minimum(np.abs(d0) / np.maximum(s1 * s2, 1e-300), s2), d0)  # |det T| / (s1 s2), signed
    back = ~np.isfinite(np.ldexp(s1 + s2 + np.abs(s3), e))
    roots = np.stack((-s1 - s2 + s3, s1 - s2 - s3, -s1 + s2 - s3))  # the fourth, s1 + s2 + s3, is positive
    i, cell = np.nonzero(roots < 2.0**-10 - np.ldexp(1.0, -e))
    s, (a0, a1, b0, b1, d0, d1) = roots[i, cell], np.stack((a0, a1, b0, b1, d0, d1))[:, cell]
    g = s * s - a0
    s = s - (g * g - 4.0 * (b0 + 2.0 * d0 * s)) / (4.0 * s * g - 8.0 * d0)  # f = (s^2 - a)^2 - 4(b + 2 det s)
    sh, sl = _split(s)
    p, pe = _two_prod(s, s, sh, sl, sh, sl)
    g, ge = _two_sum(p, -a0)
    ge += pe - a1  # s^2 - a
    p, pe = _two_prod(g, g, *(_split(g) * 2))
    q, qe = _two_prod(d0, s, *_split(d0), sh, sl)
    q, qs = _two_sum(b0, 2.0 * q)
    r, re = _two_sum(p, -4.0 * q)  # f(s) is r + re + the low parts summed below
    f1 = 4.0 * s * g - 8.0 * d0
    delta = -(r + (re + ((pe + 2.0 * g * ge) - 4.0 * (qs + b1 + 2.0 * (qe + d1 * s))))) / f1
    back[cell[~(np.abs(f1) > 2.0**-10 + 2.0**80 * np.abs(12.0 * s * s - 4.0 * a0) * delta * delta)]] = True
    w = np.maximum((-1.0 - np.ldexp(s, e[cell])) - np.ldexp(delta, e[cell]), 0.0) * 0.5  # -1 - s is exact at s <= -1
    return np.bincount(cell, weights=w, minlength=n), back


def zero_bloch_negativity_batch(tensors) -> np.ndarray:
    """Unclamped negativities of the zero_bloch_spectrum_batch spectra, (..., 3, 3) -> (...).

    An x-decoupled T takes its spectrum.  Otherwise, with mu = (1 + s)/4, E is the sum of -(1 + s)/2 over the roots
    s < -1 of s^4 - 2a s^2 - 8 det(T) s + a^2 - 4b, a = |T|_F^2 and b = |cof T|_F^2, with a, b and det T formed in
    double-double (Dekker, Numer. Math. 18, 224, 1971; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955, 2005;
    Rump, Ogita & Oishi, ibid. 31, 189, 2008): correctly rounded where one root lies below -1, as on every physical
    state.  A cell with a near-double root below -1, or roots that overflow, takes its spectrum (LAPACK's SVD).
    """
    t = np.asarray(tensors, dtype=float)
    if t.shape[-2:] != (3, 3) or not np.isfinite(t).all() or not (coupled := t[_X_COUPLINGS].any(axis=-1)).any():
        return np.abs(zero_bloch_spectrum_batch(t)).sum(axis=-1) - 1.0  # and raises as the spectrum does
    t, values, rest, cells = t.reshape(-1, 3, 3), np.empty(coupled.size), ~coupled.ravel(), np.flatnonzero(coupled)
    for part in (cells[lo : lo + _PART_CELLS] for lo in range(0, len(cells), _PART_CELLS)):
        values[part], rest[part] = _quartic_negativities(t[part])
    values[rest] = np.abs(zero_bloch_spectrum_batch(t[rest])).sum(axis=-1) - 1.0
    return values.reshape(coupled.shape)
