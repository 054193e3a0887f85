import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pulsepair.entanglement import (
    WernerClass,
    classify_werner,
    negativity,
    negativity_batch,
    partial_transpose_b,
    zero_bloch_negativity_batch,
)
from pulsepair.errors import NonHermitianInput, TraceNotOne
from pulsepair.evolution import assemble_density_batch

import oracles


def _rho(c):
    return assemble_density_batch(np.diag(c))


def test_partial_transpose_swaps_second_qubit_indices():
    rho = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0).reshape(4, 4) * 0.1
    ours = partial_transpose_b(rho)
    assert np.array_equal(ours, oracles.partial_transpose_second(rho))
    # involution
    assert np.array_equal(partial_transpose_b(ours), rho)


def test_partial_transpose_shape_check():
    with pytest.raises(ValueError):
        partial_transpose_b(np.eye(3))


def test_singlet_negativity_is_one():
    r = negativity(_rho((-1.0, -1.0, -1.0)))
    assert abs(r.value - 1.0) < 1e-12
    assert np.abs(np.array(r.eigenvalues) - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_werner_threshold_is_exactly_separable():
    r = negativity(_rho((-1.0 / 3.0,) * 3))
    assert r.value == 0.0
    assert abs(r.raw_value) < 1e-12


def test_pinned_werner_and_generalized_values():
    assert abs(negativity(_rho((-0.9,) * 3)).value - 0.85) < 1e-10
    assert abs(negativity(_rho((-0.5,) * 3)).value - 0.25) < 1e-10
    assert abs(negativity(_rho((-0.9, -0.8, -0.7))).value - 0.70) < 1e-10
    # not a physical state (rho has eigenvalue -0.025) but the partial
    # transpose arithmetic is still well defined and pinned
    assert abs(negativity(_rho((-0.9, -0.8, -0.6))).value - 0.65) < 1e-10


def test_eigenvalues_sorted_and_match_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(300):
        c = tuple(rng.uniform(-1.0, 1.0, size=3))
        r = negativity(_rho(c))
        eigs = np.array(r.eigenvalues)
        assert (np.diff(eigs) >= 0.0).all()
        assert np.abs(eigs - oracles.pt_eigenvalues_closed_form(c)).max() < 1e-12


def test_agreement_with_brute_force_diagonalization():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = tuple(rng.uniform(-1.0, 1.0, size=3))
        ours = negativity(_rho(c))
        brute = oracles.brute_negativity(c)
        assert abs(ours.raw_value - brute) < 1e-10


def test_trace_gate():
    with pytest.raises(TraceNotOne):
        negativity(0.5 * np.eye(4))
    with pytest.raises(TraceNotOne):
        negativity(np.full((4, 4), np.nan))


def test_hermiticity_gate():
    rho = _rho((-0.5, -0.5, -0.5)).copy()
    rho[0, 1] += 0.01
    with pytest.raises(NonHermitianInput):
        negativity(rho)


def test_batch_is_bitwise_identical_to_scalar():
    rng = np.random.default_rng(37)
    cs = [tuple(rng.uniform(-1.0, 1.0, size=3)) for _ in range(120)]
    rhos = np.stack([_rho(c) for c in cs])
    batch = negativity_batch(rhos)
    solo = np.array([negativity(r).value for r in rhos])
    assert np.array_equal(batch, solo)


def test_batch_validation():
    with pytest.raises(ValueError):
        negativity_batch(np.zeros((2, 3, 3)))
    bad = np.stack([np.eye(4) / 4.0, np.eye(4)])
    with pytest.raises(TraceNotOne):
        negativity_batch(bad)
    with pytest.raises(TraceNotOne):
        negativity_batch(np.stack([np.eye(4) / 4.0, np.full((4, 4), np.nan)]))


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


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_negativity_bounds_on_physical_states(c1, c2, c3):
    c = (c1, c2, c3)
    assume(oracles.rho_eigenvalues_closed_form(c)[0] >= 0.0)
    r = negativity(_rho(c))
    assert 0.0 <= r.value <= 1.0 + 1e-9
    assert r.value == 0.0 or r.value == r.raw_value


class TestClassifyWerner:
    def test_entangled_region(self):
        assert classify_werner(-1.0) is WernerClass.ENTANGLED
        assert classify_werner(-0.9) is WernerClass.ENTANGLED
        assert classify_werner(-1.0 / 3.0 - 1e-6) is WernerClass.ENTANGLED

    def test_separable_region(self):
        assert classify_werner(-1.0 / 3.0) is WernerClass.SEPARABLE
        assert classify_werner(0.0) is WernerClass.SEPARABLE
        assert classify_werner(1.0 / 3.0) is WernerClass.SEPARABLE

    def test_unphysical_region(self):
        assert classify_werner(0.5) is WernerClass.UNPHYSICAL
        assert classify_werner(-1.1) is WernerClass.UNPHYSICAL
        assert classify_werner(math.nan) is WernerClass.UNPHYSICAL

    def test_physicality_tolerance_at_both_ends(self):
        # a density eigenvalue down to -1e-10 still counts as physical
        assert classify_werner(-1.0 - 1e-11) is WernerClass.ENTANGLED
        assert classify_werner(-1.0 - 1e-9) is WernerClass.UNPHYSICAL
        assert classify_werner(1.0 / 3.0 + 1e-11) is WernerClass.SEPARABLE
        assert classify_werner(1.0 / 3.0 + 1e-9) is WernerClass.UNPHYSICAL
