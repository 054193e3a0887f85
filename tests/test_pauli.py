import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsepair import pauli, scenarios
from pulsepair.errors import ConvergenceFailure, NonHermitianInput
from pulsepair.pauli import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eigenvalues_batch,
)
from pulsepair.evolution import assemble_density_batch, evolve_correlations_batch
from pulsepair.pulses import CoefficientMode
from pulsepair.scenarios import paper_figure_presets

import oracles


def solo_eigenvalues(m):
    """Eigenvalues of one matrix, solved as a batch of one."""
    return hermitian_eigenvalues_batch(np.asarray(m)[None])[0]


def test_pauli_constants_are_the_standard_matrices():
    assert np.array_equal(SIGMA_X, oracles.SX)
    assert np.array_equal(SIGMA_Y, oracles.SY)
    assert np.array_equal(SIGMA_Z, oracles.SZ)
    assert PAULIS == (SIGMA_X, SIGMA_Y, SIGMA_Z)


def test_pauli_constants_are_immutable():
    with pytest.raises(ValueError):
        SIGMA_X[0, 0] = 9.0


def test_hermiticity_gate_threshold():
    # the gate rejects a defect above HERMITICITY_TOL = 1e-10 and passes one below
    with pytest.raises(NonHermitianInput):
        solo_eigenvalues(np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]]))
    eigs = solo_eigenvalues(np.array([[0.0, 1.0], [1.0 + 5e-11, 0.0]]))
    assert np.allclose(eigs, [-1.0, 1.0], atol=1e-10)


def test_eigenvalues_of_pinned_correlation_projector():
    # (I + YY)/4 has a doubly degenerate pair {0, 1/2}
    m = 0.25 * (np.eye(4) + np.kron(SIGMA_Y, SIGMA_Y))
    eigs = solo_eigenvalues(m)
    assert np.allclose(eigs, [0.0, 0.0, 0.5, 0.5], atol=1e-14)


def test_eigenvalues_of_diagonal_matrix_are_exact():
    eigs = solo_eigenvalues(np.diag([3.0, -1.0, 2.0, 0.5]))
    assert np.array_equal(eigs, [-1.0, 0.5, 2.0, 3.0])


def test_eigenvalues_match_lapack_on_random_batches():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        raw = rng.normal(size=(300, n, n)) + 1j * rng.normal(size=(300, n, n))
        mats = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        ours = hermitian_eigenvalues_batch(mats)
        ref = np.linalg.eigvalsh(mats)
        assert np.abs(ours - ref).max() < 1e-12 * max(1.0, np.abs(mats).max())


def test_batch_result_is_bitwise_independent_of_batch_composition():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
    mats = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    batched = hermitian_eigenvalues_batch(mats)
    solo = np.array([solo_eigenvalues(m) for m in mats])
    assert np.array_equal(batched, solo)


def _random_hermitian(seed, count, n=4):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return 0.5 * (raw + raw.conj().transpose(0, 2, 1))


def _solo_sweeps(m, monkeypatch) -> int:
    """Jacobi sweeps that one matrix takes when it is solved alone."""
    rotations = []
    rotate = pauli._jacobi_rotate
    with monkeypatch.context() as patch:
        patch.setattr(pauli, "_jacobi_rotate", lambda a, p, q: (rotations.append(p), rotate(a, p, q)))
        solo_eigenvalues(m)
    n = len(m)
    return len(rotations) // (n * (n - 1) // 2)


def _mixed_batch(monkeypatch):
    """Diagonal, Werner partial-transpose and random rows, with their solo sweep counts."""
    diagonal = np.stack([np.diag(d) for d in ([3.0, -1.0, 2.0, 0.5], [0.0, 0.0, 1.0, 1.0])])
    werner = np.stack(
        [oracles.partial_transpose_second(oracles.bell_diagonal_rho((-p, -p, -p))) for p in (1.0, 0.6, 0.2)]
    )
    mats = np.concatenate([diagonal, werner, _random_hermitian(1, 8)])
    return mats, [_solo_sweeps(m, monkeypatch) for m in mats]


def test_mixed_convergence_batch_matches_solo_solves_bit_for_bit(monkeypatch):
    mats, sweeps = _mixed_batch(monkeypatch)
    assert sweeps[:5] == [0, 0, 1, 1, 1]
    assert set(sweeps[5:]) == {4, 5}
    batched = hermitian_eigenvalues_batch(mats)
    for m, row in zip(mats, batched):
        assert row.tobytes() == solo_eigenvalues(m).tobytes()


def _fig1b_literal_partial_transposes() -> np.ndarray:
    # the preset's 801 x 3 densities, partially transposed
    cfg = dataclasses.replace(paper_figure_presets()["fig1b"], mode=CoefficientMode.LITERAL)
    diagonals = [s.correlations for s in cfg.initial_states]
    tensors, _ = evolve_correlations_batch(diagonals, *scenarios._grid_maps(cfg, cfg.grid.values()))
    return oracles.partial_transpose_second(assemble_density_batch(tensors).reshape(-1, 4, 4))


PINNED_EIGENVALUE_DIGEST = "51e25f40e61196a8aa98b50ea9b92c0a6b83a86607c6895421f24f8e7f0f2dd4"


def test_eigenvalue_bytes_are_pinned():
    # Recorded with the solver of commit 0a231fa, which rotated converged
    # matrices by the identity instead of dropping them from the batch; the
    # bytes depend on this numpy build's complex abs, as the preset digests do.
    mats = np.concatenate([_random_hermitian(2000, 2000), _fig1b_literal_partial_transposes()])
    assert mats.shape == (4403, 4, 4)
    digest = hashlib.sha256(hermitian_eigenvalues_batch(mats).tobytes()).hexdigest()
    assert digest == PINNED_EIGENVALUE_DIGEST


def test_convergence_failure_when_only_the_slowest_row_is_left(monkeypatch):
    mats, sweeps = _mixed_batch(monkeypatch)
    slowest = max(sweeps)
    assert sweeps.count(slowest) == 1
    expected = hermitian_eigenvalues_batch(mats)
    monkeypatch.setattr(pauli, "_MAX_SWEEPS", slowest - 1)
    with pytest.raises(ConvergenceFailure):
        hermitian_eigenvalues_batch(mats)
    monkeypatch.setattr(pauli, "_MAX_SWEEPS", slowest)
    assert hermitian_eigenvalues_batch(mats).tobytes() == expected.tobytes()


def test_empty_batch_gives_empty_rows():
    assert hermitian_eigenvalues_batch(np.zeros((0, 4, 4))).shape == (0, 4)


def test_rows_come_out_sorted_and_trace_is_preserved():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(200, 4, 4)) + 1j * rng.normal(size=(200, 4, 4))
    mats = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    eigs = hermitian_eigenvalues_batch(mats)
    assert (np.diff(eigs, axis=1) >= 0.0).all()
    traces = np.einsum("nii->n", mats).real
    assert np.abs(eigs.sum(axis=1) - traces).max() < 1e-13 * max(1.0, np.abs(traces).max())


def test_non_hermitian_input_is_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        solo_eigenvalues(m)
    batch = np.stack([np.eye(2), m])
    with pytest.raises(NonHermitianInput):
        hermitian_eigenvalues_batch(batch)
    with pytest.raises(NonHermitianInput):
        hermitian_eigenvalues_batch(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def test_subnormal_off_diagonal_leaves_eigenvalues_finite():
    # the (0, 1) element keeps the matrix active while (0, 2) is subnormal
    m = np.array([[1.0, 0.5, 2.2e-309j], [0.5, 2.0, 0.0], [-2.2e-309j, 0.0, 3.0]])
    assert np.abs(solo_eigenvalues(m) - np.linalg.eigvalsh(m)).max() < 1e-12


def test_shape_validation():
    with pytest.raises(ValueError):
        solo_eigenvalues(np.zeros(4))
    with pytest.raises(ValueError):
        hermitian_eigenvalues_batch(np.zeros((2, 3, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_spectrum_invariant_under_random_unitary_conjugation(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = 0.5 * (raw + raw.conj().T)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = q @ herm @ q.conj().T
    rotated = 0.5 * (rotated + rotated.conj().T)
    a = solo_eigenvalues(herm)
    b = solo_eigenvalues(rotated)
    assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())
