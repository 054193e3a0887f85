import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pulsepair import entanglement, pauli, validation
from pulsepair.entanglement import (
    _clamp,
    _density_negativities,
    zero_bloch_negativity_batch,
    zero_bloch_spectrum_batch,
)
from pulsepair.errors import NonHermitianInput, TraceNotOne, UnphysicalState
from pulsepair.evolution import InitialState, assemble_density_batch

import oracles


def _rho(c):
    return assemble_density_batch(np.diag(c))


def _value(c):
    """Clamped closed-form negativity of the Bell-diagonal state with diagonal c."""
    return float(_clamp(zero_bloch_negativity_batch(np.diag(c))))


def test_the_density_route_solves_the_partial_transposes_bit_for_bit():
    # rho^T_B of T is the density of T diag(1, -1, 1), since the transpose of sigma_y is -sigma_y: the
    # route's matrices equal the entry-by-entry transpose of the densities, signed zeros included
    rng = np.random.default_rng(43)
    entries = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 0.5, -1.0])
    t = np.concatenate(
        [
            rng.uniform(-1.0, 1.0, size=(2000, 3, 3)),
            rng.choice(entries, size=(2000, 3, 3)),
            rng.choice([-1.0, 1.0], size=(2000, 3, 3)) * 10.0 ** rng.uniform(-100.0, 100.0, size=(2000, 3, 3)),
        ]
    )
    t[rng.random(t.shape) < 0.2] = -0.0
    solved = []
    _density_negativities(t, lambda m: solved.append(m) or np.zeros(m.shape[:2]))
    expected = oracles.partial_transpose_second(assemble_density_batch(t))
    assert np.isfinite(expected).all()
    assert solved[0].tobytes() == expected.tobytes()


def test_singlet_negativity_is_one():
    c = (-1.0, -1.0, -1.0)
    assert abs(_value(c) - 1.0) < 1e-12
    assert np.abs(np.sort(zero_bloch_spectrum_batch(np.diag(c))) - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_werner_threshold_is_exactly_separable():
    c = (-1.0 / 3.0,) * 3
    assert _value(c) == 0.0
    assert abs(zero_bloch_negativity_batch(np.diag(c))) < 1e-12


def test_pinned_werner_and_generalized_values():
    assert abs(_value((-0.9,) * 3) - 0.85) < 1e-10
    assert abs(_value((-0.5,) * 3) - 0.25) < 1e-10
    assert abs(_value((-0.9, -0.8, -0.7)) - 0.70) < 1e-10
    # not a physical state (rho has eigenvalue -0.025) but the partial
    # transpose arithmetic is still well defined and pinned
    assert abs(_value((-0.9, -0.8, -0.6)) - 0.65) < 1e-10


def test_eigenvalues_sorted_and_match_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(300):
        c = tuple(rng.uniform(-1.0, 1.0, size=3))
        eigs = np.sort(zero_bloch_spectrum_batch(np.diag(c)))
        assert np.abs(eigs - oracles.pt_eigenvalues_closed_form(c)).max() < 1e-12


def test_spectrum_matches_lapack_on_random_tensors():
    rng = np.random.default_rng(41)
    t = rng.uniform(-1.0, 1.0, size=(500, 3, 3))
    t[250:, 0, 1:] = t[250:, 1:, 0] = 0.0  # x-decoupled: the block route
    spectrum = zero_bloch_spectrum_batch(t.reshape(2, 250, 3, 3))
    assert spectrum.shape == (2, 250, 4)
    lapack = np.linalg.eigvalsh(oracles.partial_transpose_second(assemble_density_batch(t)))
    assert np.abs(np.sort(spectrum.reshape(500, 4), axis=1) - lapack).max() < 1e-14


def test_agreement_with_brute_force_diagonalization():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = tuple(rng.uniform(-1.0, 1.0, size=3))
        brute = oracles.brute_negativity(c)
        assert abs(zero_bloch_negativity_batch(np.diag(c)) - brute) < 1e-10


def test_hermiticity_gate():
    rho = _rho((-0.5, -0.5, -0.5)).copy()
    rho[0, 1] += 0.01
    with pytest.raises(NonHermitianInput):
        pauli.hermitian_eigenvalues_batch(rho[None])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_closed_form_rejects_a_non_finite_tensor(bad):
    # the density route's error for a NaN trace, not LinAlgError from the
    # SVD; the RuntimeWarning-as-error filter fails the test on any warning
    tensors = np.stack([np.diag([-0.9, -0.8, -0.7]), np.eye(3)])
    tensors[1, 2, 0] = bad
    with pytest.raises(TraceNotOne):
        zero_bloch_negativity_batch(tensors)
    with pytest.raises(ValueError):
        zero_bloch_negativity_batch(np.zeros((2, 4, 4)))


def _lapack_route(t):
    """The closed form with every singular value from np.linalg.svd."""
    s = np.linalg.svd(t, compute_uv=False)
    det = np.einsum("...i,...i->...", t[..., 0, :], np.cross(t[..., 1, :], t[..., 2, :]))
    t1, t2, t3 = s[..., 0], s[..., 1], np.where(det < 0.0, -s[..., 2], s[..., 2])
    mu = np.stack((1.0 + t1 + t2 + t3, 1.0 - t1 - t2 + t3, 1.0 + t1 - t2 - t3, 1.0 - t1 + t2 - t3))
    return np.abs(0.25 * mu).sum(axis=0) - 1.0


_SIGN = st.sampled_from([1.0, -1.0])
# exact and signed zeros, subnormals, and magnitudes 1e-100 .. 1e100
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, s: s * m, st.floats(5e-324, 2.2e-308), _SIGN),
    st.builds(lambda e, s: s * 10.0**e, st.floats(-100.0, 100.0), _SIGN),
)
_YZ_BLOCK = st.one_of(
    st.lists(_ENTRY, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
    # rank 1: a row and a multiple of it
    st.builds(lambda a, b, k: np.array([[a, b], [k * a, k * b]]), _ENTRY, _ENTRY, st.sampled_from([1.0, -1.0, 0.5, -3.0])),
    # equal singular values: a scaled rotation or reflection
    st.builds(lambda a, b, s: np.array([[a, -s * b], [b, s * a]]), _ENTRY, _ENTRY, _SIGN),
)


@st.composite
def _x_decoupled(draw):
    t = np.zeros((3, 3))
    t[0, 1:], t[1:, 0] = draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0]))
    t[0, 0], t[1:, 1:] = draw(_ENTRY), draw(_YZ_BLOCK)
    return t


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(), (1,), (5,), (0,), (2, 3), (3, 1)]), st.data())
def test_split_route_matches_lapack_on_x_decoupled_tensors(shape, data):
    # the RuntimeWarning-as-error filter fails the test on any warning
    n = math.prod(shape)
    t = np.array(data.draw(st.lists(_x_decoupled(), min_size=n, max_size=n)) or np.zeros((0, 3, 3)))
    t = t.reshape(shape + (3, 3))
    ours = zero_bloch_negativity_batch(t)
    assert ours.shape == shape
    assert np.abs(ours - _lapack_route(t)).max(initial=0.0) <= 4e-15 * max(1.0, np.abs(t).max(initial=0.0))


def _route_spies(monkeypatch):
    """Lists that get the number of tensors of every np.linalg.svd call and of every quartic call from now on."""
    svd, quartic, sent, solved = np.linalg.svd, entanglement._quartic_negativities, [], []
    monkeypatch.setattr(np.linalg, "svd", lambda t, **kw: sent.append(len(t)) or svd(t, **kw))
    monkeypatch.setattr(entanglement, "_quartic_negativities", lambda t: solved.append(len(t)) or quartic(t))
    return sent, solved


def test_only_tensors_with_an_x_coupling_take_the_quartic(monkeypatch):
    # the negativity of an x-coupled tensor comes from the quartic, with no SVD; its spectrum still takes LAPACK's
    t = np.tile(np.diag([-0.9, -0.8, -0.7]), (4, 2, 1, 1))
    t[0, 0, 0, 1], t[1, 1, 2, 0], t[2, 0, 1, 0] = 1e-300, -0.1, -0.0
    t[3, :, 0, 0] = 0.0
    expected = _lapack_route(t)
    sent, solved = _route_spies(monkeypatch)
    assert zero_bloch_negativity_batch(t) == pytest.approx(expected, abs=1e-15)
    assert (sent, solved) == ([], [2])
    zero_bloch_spectrum_batch(t)
    assert (sent, solved) == ([2], [2])


def test_a_near_double_root_below_minus_one_takes_lapack(monkeypatch):
    # 2 R for a proper rotation R has singular values (2, 2, 2) and det 8 > 0, so s = 6, -2, -2, -2: a triple root
    # at -2 and E = 3 * 0.5 = 1.5.  Only those cells reach np.linalg.svd, and they keep the spectrum's value.
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.normal(size=(3, 3, 3)))[0]
    rotations = 2.0 * q * np.sign(np.linalg.det(q))[:, None, None]
    t = np.concatenate([rotations[:2], np.diag([-0.9, -0.8, -0.7])[None] @ q[2:], rotations[2:]])
    sent, solved = _route_spies(monkeypatch)
    values = zero_bloch_negativity_batch(t)
    assert (sent, solved) == ([3], [4])
    spectrum = np.abs(zero_bloch_spectrum_batch(t)).sum(axis=-1) - 1.0
    assert values[[0, 1, 3]].tobytes() == spectrum[[0, 1, 3]].tobytes()
    assert values[[0, 1, 3]] == pytest.approx(1.5, abs=1e-14)


def _x_coupled(tensors):
    return tensors[..., [0, 0, 1, 2], [1, 2, 0, 0]].any(axis=-1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_quartic_route_matches_lapack_on_x_coupled_tensors(n, data):
    # the entries of the x-decoupled test, an x coupling drawn among them; the RuntimeWarning-as-error filter fails
    # the test on any warning
    t = np.reshape(data.draw(st.lists(_ENTRY, min_size=9 * n, max_size=9 * n)), (n, 3, 3))
    t[:, 0, 1] = data.draw(st.sampled_from([0.5, -1e-3, 1e-100]))
    assert _x_coupled(t).all()
    assert np.abs(zero_bloch_negativity_batch(t) - _lapack_route(t)).max() <= 1e-15 * max(1.0, np.abs(t).max())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300, 5e307, 1e308])
def test_tiny_and_huge_x_coupled_tensors_give_what_the_spectrum_gives(scale):
    # a proper rotation, a reflection and a rotation of diag(1, 0.5, 0.25), each times scale: finite values as the
    # spectrum's route gives them, or TraceNotOne where its spectrum overflows
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.normal(size=(3, 3, 3)))[0]
    q *= np.sign(np.linalg.det(q))[:, None, None]
    t = scale * np.stack([q[0], -q[1], np.diag([1.0, 0.5, 0.25]) @ q[2]])
    assert _x_coupled(t).all()
    for tensors in (t[:1], t[1:2], t[2:], t):
        try:
            expected = np.abs(zero_bloch_spectrum_batch(tensors)).sum(axis=-1) - 1.0
        except TraceNotOne:
            with pytest.raises(TraceNotOne):
                zero_bloch_negativity_batch(tensors)
            continue
        assert zero_bloch_negativity_batch(tensors) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_no_coupled_triangle_tensor_of_seed_0_takes_lapack(monkeypatch):
    # its 1000 x-coupled tensors go to the quartic in two parts, and none comes back to np.linalg.svd
    sent, solved = _route_spies(monkeypatch)
    key = dict(validation._CHECKS)[validation._check_negativity_closed_form]
    (result,) = validation._check_negativity_closed_form(np.random.default_rng([0, key]))
    assert result.passed and (sent, solved) == ([], [512, 488])


def test_the_part_size_changes_no_bit(monkeypatch):
    rng = np.random.default_rng(13)
    t = rng.uniform(-1.0, 1.0, size=(1500, 3, 3))
    t[::3, 0, 1:] = t[::3, 1:, 0] = 0.0  # a third x-decoupled, between the parts
    before = zero_bloch_negativity_batch(t)
    monkeypatch.setattr(entanglement, "_PART_CELLS", 7)
    assert zero_bloch_negativity_batch(t).tobytes() == before.tobytes()


@pytest.mark.parametrize("k, l", [(0, 1), (0, 2), (1, 0), (2, 0)], ids=["T_xy", "T_xz", "T_yx", "T_zx"])
def test_one_x_coupling_alone_takes_lapacks_singular_values(k, l):
    # with T_yx = 0.3 alone, the block formula would give (0.5, 0.4, 0.2), LAPACK (0.632, 0.316, 0.2); the
    # negativity takes the quartic, as every x-coupled cell does
    t = np.diag([0.5, 0.4, -0.2])
    t[k, l] = 0.3
    assert zero_bloch_negativity_batch(t) == pytest.approx(_lapack_route(t), abs=1e-15)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_triple_product_of_huge_rows_does_not_overflow(sign):
    # det T = sign * 1e600 unscaled; each row is scaled by a power of two first.  The spectrum is
    # (1 + 3s)/4 and three times (1 - s)/4, or with t3 = -s (1 + s)/4 three times and (1 - 3s)/4:
    # 1.5s either way at s = 1e200.  The RuntimeWarning-as-error filter fails the test on any warning.
    t = np.diag([1e200, 1e200, sign * 1e200])
    c, s = math.cos(0.5), math.sin(0.5)
    # x-coupled: the quartic's negativity, or LAPACK's at the triple root of sign = 1
    rotated = t @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert zero_bloch_negativity_batch(np.stack([t, rotated])) == pytest.approx([1.5e200, 1.5e200], rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_past_the_float_range_raises_trace_not_one():
    # 1 + t1 + t2 overflows at t1 = t2 = 1.7e308; the error is typed, with no overflow warning on the way
    huge = np.diag([1.7e308, 1.7e308, 1.0])
    with pytest.raises(TraceNotOne, match="overflows"):
        zero_bloch_spectrum_batch(huge)
    with pytest.raises(TraceNotOne, match="overflows"):
        zero_bloch_spectrum_batch(np.stack([np.diag([-1.0, -1.0, -1.0]), huge, np.diag([5e307] * 3)]))
    # just inside the range the spectrum stays finite: (1 + 1.5e308)/4 and three times (1 - 5e307)/4
    assert zero_bloch_spectrum_batch(np.diag([5e307] * 3)) == pytest.approx([3.75e307] + [-1.25e307] * 3, rel=1e-15)


_MAGNITUDE = st.one_of(st.just(0.0), st.floats(-300.0, math.log10(1.7e308)).map(lambda e: 10.0**e))  # 0, 1e-300-1.7e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_any_tensor_gives_a_finite_spectrum_or_trace_not_one(n, decoupled, data):
    # both routes of the singular values: x-decoupled tensors and those that go to LAPACK
    entries = data.draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDE), min_size=9 * n, max_size=9 * n))
    tensors = np.reshape([sign * size for sign, size in entries], (n, 3, 3))
    if decoupled:
        tensors[:, [0, 0, 1, 2], [1, 2, 0, 0]] = 0.0
    for call in (zero_bloch_spectrum_batch, zero_bloch_negativity_batch):
        try:
            out = call(tensors)
        except TraceNotOne:
            continue
        assert np.isfinite(out).all(), call.__name__


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_negativity_bounds_on_physical_states(c1, c2, c3):
    c = (c1, c2, c3)
    assume(oracles.rho_eigenvalues_closed_form(c)[0] >= 0.0)
    raw = float(zero_bloch_negativity_batch(np.diag(c)))
    value = _value(c)
    assert 0.0 <= value <= 1.0 + 1e-9
    assert value == 0.0 or value == raw


class TestClassifyWerner:
    """The Werner line c = (x, x, x): generalized_werner's physicality gate, then the clamped negativity."""

    @staticmethod
    def negativity(x):
        return _value(InitialState.generalized_werner(x, x, x).correlations)

    def test_entangled_region(self):
        for x in (-1.0, -0.9, -1.0 / 3.0 - 1e-6):
            assert self.negativity(x) > 0.0

    def test_separable_region(self):
        for x in (-1.0 / 3.0, 0.0, 1.0 / 3.0):
            assert self.negativity(x) == 0.0

    def test_unphysical_region(self):
        for x in (0.5, -1.1, math.nan):
            with pytest.raises(UnphysicalState):
                InitialState.generalized_werner(x, x, x)

    def test_physicality_tolerance_at_both_ends(self):
        # a density eigenvalue down to -1e-10 still counts as physical
        assert self.negativity(-1.0 - 1e-11) > 0.0
        assert self.negativity(1.0 / 3.0 + 1e-11) == 0.0
        for x in (-1.0 - 1e-9, 1.0 / 3.0 + 1e-9):
            with pytest.raises(UnphysicalState):
                InitialState.generalized_werner(x, x, x)


# sha256 of seed 0's closed-form-triangle tensors and of their negativities through the density by the
# Jacobi and the LAPACK solver, recorded from the two routes _density_negativities replaced (one per
# solver); the LAPACK bytes depend on this LAPACK build, as the preset digests depend on numpy's
TRIANGLE_DIGESTS = (
    "2dfa22bef766cc464cc0445cc98f57b4e5873a629962d1a30210888046304a0a",
    "9aa892af5e3e2ac2c6a30b5950ccb80eeec52b79329b7bafa61d59b17abf32a9",
    "ce6731ca8743c795cd9a83f6ff5993cddd13fda542aac939fc38f7728493fabf",
)


def test_density_route_keeps_the_bytes_of_the_jacobi_and_lapack_routes(monkeypatch):
    # one call takes both solvers, and the triangle builds its densities once
    route, calls, builds = entanglement._density_negativities, [], []
    monkeypatch.setattr(entanglement, "_density_negativities", lambda *args: calls.append(args) or route(*args))
    assemble = entanglement.assemble_density_batch
    monkeypatch.setattr(entanglement, "assemble_density_batch", lambda t: builds.append(len(t)) or assemble(t))
    key = dict(validation._CHECKS)[validation._check_negativity_closed_form]
    validation._check_negativity_closed_form(np.random.default_rng([0, key]))
    ((tensors, *solvers),) = calls
    assert solvers == [pauli.hermitian_eigenvalues_batch, np.linalg.eigvalsh] and builds == [2000]
    digests = [hashlib.sha256(x.tobytes()).hexdigest() for x in (tensors, *route(tensors, *solvers))]
    assert tuple(digests) == TRIANGLE_DIGESTS
