import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsepair
from pulsepair import evolution
from pulsepair.errors import AngleOverflow, OutOfWindow, StepTooLarge, UnphysicalState
from pulsepair.evolution import (
    InitialState,
    adjoint_rotation,
    assemble_density_batch,
    correlations_from_density_batch,
    evolve_correlations_batch,
    rk4_oracle_batch,
    unitary_oracle_batch,
)
from pulsepair.pulses import CoefficientMode, PulseSpec, coefficient_map_batch
from pulsepair.validation import _random_physical_correlations

import oracles


def undriven(mode=CoefficientMode.UNITARY):
    return coefficient_map_batch(PulseSpec.none(), [0.0], mode)[0]


def exact_single(p, t):
    return unitary_oracle_batch(p, [t])[0]


def evolve_one(c, m1, m2):
    """C~ and residue of one diagonal state under one pair of maps."""
    tensors, residues = evolve_correlations_batch([c], m1[None], m2[None])
    return tensors[0, 0], residues[0]


def fano_density(tensor, bloch_a, bloch_b):
    """(1/4)(I + a.sigma x I + I x b.sigma + sum_kl C_kl sigma_k x sigma_l), from raw krons."""
    eye2 = np.eye(2)
    rho = np.eye(4, dtype=np.complex128)
    for k, sk in enumerate(oracles.PAULI3):
        rho += bloch_a[k] * np.kron(sk, eye2) + bloch_b[k] * np.kron(eye2, sk)
        for l, sl in enumerate(oracles.PAULI3):
            rho += tensor[k, l] * np.kron(sk, sl)
    return 0.25 * rho


class TestInitialState:
    def test_bell_singlet(self):
        s = InitialState.bell_singlet()
        assert s.label == "bell"
        assert s.correlations == (-1.0, -1.0, -1.0)

    def test_werner_range(self):
        assert InitialState.werner(-0.9).correlations == (-0.9, -0.9, -0.9)
        assert InitialState.werner(1.0 / 3.0).label == "werner"
        with pytest.raises(UnphysicalState):
            InitialState.werner(0.5)
        with pytest.raises(UnphysicalState):
            InitialState.werner(-1.0001)
        for x in (math.nan, math.inf):
            with pytest.raises(UnphysicalState):
                InitialState.werner(x)

    def test_generalized_werner_positivity_gate(self):
        s = InitialState.generalized_werner(-0.9, -0.8, -0.7)
        assert s.label == "genwerner"
        # the -0.6 variant leaves rho with eigenvalue -0.025
        with pytest.raises(UnphysicalState):
            InitialState.generalized_werner(-0.9, -0.8, -0.6)
        # NaN fails no comparison-based gate, and inf - inf is NaN
        for c in ((math.nan, -0.5, -0.5), (math.inf, math.inf, 0.0), (-math.inf, 0.0, 0.0)):
            with pytest.raises(UnphysicalState):
                InitialState.generalized_werner(*c)

    def test_state_round_trip(self):
        s = InitialState.generalized_werner(-0.9, -0.8, -0.7)
        assert s.correlations == (-0.9, -0.8, -0.7)

    def test_the_constructor_itself_checks_physicality(self):
        # the classmethods are not the only way in: a direct construction and a
        # replace of the correlations meet the same check
        with pytest.raises(UnphysicalState):
            InitialState("genwerner", (0.9, 0.9, 0.9))
        with pytest.raises(UnphysicalState):
            dataclasses.replace(InitialState.generalized_werner(-0.9, -0.8, -0.7), correlations=(0.9, 0.9, 0.9))


class TestEvolveCorrelations:
    def test_identity_maps_leave_state_alone(self):
        c0 = (-0.9, -0.8, -0.7)
        tensor, residue = evolve_one(c0, undriven(), undriven())
        assert np.array_equal(tensor, np.diag(c0))
        assert residue == 0.0

    def test_x_half_turn_on_one_qubit(self):
        # rotation about x by pi on qubit a: lambda = pi exponential map
        p = PulseSpec.exponential(math.pi, 1.0)
        t = 60.0  # angle saturated at omega0/gamma_p = pi
        tensor, _ = evolve_one((-1.0, -1.0, -1.0), coefficient_map_batch(p, [t])[0], undriven())
        assert np.abs(tensor - np.diag([-1.0, 1.0, 1.0])).max() < 1e-12

    def test_x_quarter_turn_on_both_qubits(self):
        p = PulseSpec.exponential(math.pi / 2.0, 1.0)
        m = coefficient_map_batch(p, [60.0])[0]
        tensor, _ = evolve_one((-0.9, -0.8, -0.6), m, m)
        assert np.abs(tensor - np.diag([-0.9, -0.6, -0.8])).max() < 1e-12

    def test_rejects_non_diagonal_input(self):
        # an initial state is given by its three diagonal correlations; a
        # full tensor does not fit that slot
        t = np.diag([0.1, 0.2, 0.3])
        t[1, 0] = 0.05
        with pytest.raises(ValueError):
            evolve_correlations_batch([t], undriven()[None], undriven()[None])

    def test_one_state_per_point(self):
        # diagonals of shape (N, 1, 3) pair state n with maps n, as the (S, 3) form does for all n
        p = PulseSpec.rectangular(1.0, duration=10.0, delta=1.0)
        m = coefficient_map_batch(p, [0.5, 2.0, 3.0], CoefficientMode.LITERAL)
        c = [(-0.9, -0.8, -0.7), (-1.0, -1.0, -1.0), (0.1, 0.2, 0.3)]
        tensors, residues = evolve_correlations_batch(np.array(c)[:, None], m, m)
        every, _ = evolve_correlations_batch(c, m, m)
        assert tensors.shape == (3, 1, 3, 3)
        assert np.array_equal(tensors[:, 0], every[[0, 1, 2], [0, 1, 2]])
        assert residues.shape == (3,) and residues.min() > 0.0

    def test_literal_map_records_imaginary_residue(self):
        p = PulseSpec.rectangular(1.0, duration=10.0, delta=1.0)
        m = coefficient_map_batch(p, [2.0], CoefficientMode.LITERAL)[0]
        tensor, residue = evolve_one((-1.0, -1.0, -1.0), m, undriven(CoefficientMode.LITERAL))
        assert residue > 1e-3
        assert np.isreal(tensor).all()

    @pytest.mark.parametrize("complex_maps", [False, True])
    @pytest.mark.parametrize("one_state_per_point", [False, True])
    def test_elementwise_sum_matches_the_stacked_product(self, complex_maps, one_state_per_point):
        rng = np.random.default_rng(3)
        m1, m2 = rng.uniform(-1.0, 1.0, size=(2, 200, 3, 3))
        if complex_maps:
            m1, m2 = m1 + 1j * rng.uniform(-1.0, 1.0, size=m1.shape), m2 + 1j * rng.uniform(-1.0, 1.0, size=m2.shape)
        c = rng.uniform(-1.0, 1.0, size=(200, 1, 3) if one_state_per_point else (5, 3))
        stacked = m1.transpose(0, 2, 1)[:, None] @ evolution._diagonal_tensors(c) @ m2[:, None]
        tensors, residues = evolve_correlations_batch(c, m1, m2)
        assert tensors.shape == stacked.shape and tensors.dtype == np.float64
        assert np.abs(tensors - stacked.real).max() <= 1e-15
        assert np.abs(residues - np.abs(stacked.imag).max(axis=(1, 2, 3))).max() <= 1e-15
        # real maps give exactly zero residues: nothing imaginary is discarded
        assert residues.min() > 0.0 if complex_maps else np.array_equal(residues, np.zeros(len(m1)))

    @staticmethod
    def _complex_route(c, m1, m2):
        """C~ and residues summed in complex128 throughout, as for maps with imaginary parts."""
        c = np.asarray(c, dtype=float)[..., None, None]
        m1, m2 = np.asarray(m1, dtype=complex), np.asarray(m2, dtype=complex)
        rows = (m1[:, :, :, None] * m2[:, :, None, :])[:, None]
        product = c[..., 0, :, :] * rows[:, :, 0] + c[..., 1, :, :] * rows[:, :, 1] + c[..., 2, :, :] * rows[:, :, 2]
        return product.real, np.abs(product.imag).max(axis=(1, 2, 3))

    def test_resonant_literal_maps_take_the_float64_route(self):
        # on resonance the printed B row vanishes: complex maps whose imaginary parts are all zero
        times = np.linspace(0.0, 5.0, 41)
        m1 = coefficient_map_batch(PulseSpec.exponential(5.0, 1.0), times, CoefficientMode.LITERAL)
        m2 = coefficient_map_batch(PulseSpec.rectangular(1.0, 6.0), times, CoefficientMode.LITERAL)
        assert m1.dtype == m2.dtype == np.complex128 and not (m1.imag.any() or m2.imag.any())
        c = [(-1.0, -1.0, -1.0), (-0.9, -0.8, -0.7)]
        tensors, residues = evolve_correlations_batch(c, m1, m2)
        real, _ = self._complex_route(c, m1, m2)
        assert tensors.dtype == np.float64 and np.array_equal(tensors, real)
        assert np.array_equal(residues, np.zeros(len(times)))
        # evolved as their real parts, bit for bit
        assert np.array_equal(tensors.view(np.int64), evolve_correlations_batch(c, m1.real, m2.real)[0].view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.lists(st.floats(-1e150, 1e150), min_size=18, max_size=18), st.data())
    def test_imaginary_free_maps_give_the_complex_route_real_parts(self, n, entries, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m1, m2 = (np.resize(entries, (n, 3, 3)) * rng.uniform(-1.0, 1.0, (n, 3, 3)) for _ in range(2))
        zeros = rng.choice([0.0, -0.0], (2, n, 3, 3))  # either sign of zero in the imaginary parts
        m1, m2 = m1 + zeros[0] * 1j, m2 + zeros[1] * 1j
        c = rng.uniform(-1.0, 1.0, (3, 3))
        tensors, residues = evolve_correlations_batch(c, m1, m2)
        real, _ = self._complex_route(c, m1, m2)
        assert tensors.dtype == np.float64 and np.array_equal(tensors, real)
        assert np.array_equal(residues, np.zeros(n))

    @pytest.mark.parametrize("pulses", [("detuned", "none"), ("none", "detuned"), ("detuned", "detuned")])
    def test_a_map_with_an_imaginary_part_keeps_the_complex_route(self, pulses):
        # fig1b-style: a detuned rectangle on one qubit; the undriven map's imaginary part is zero
        times = np.linspace(0.0, 5.0, 41)
        specs = {"detuned": PulseSpec.rectangular(1.0, 6.0, 1.0), "none": PulseSpec.none()}
        m1, m2 = (coefficient_map_batch(specs[p], times, CoefficientMode.LITERAL) for p in pulses)
        c = [(-1.0, -1.0, -1.0), (-0.9, -0.8, -0.7)]
        tensors, residues = evolve_correlations_batch(c, m1, m2)
        real, imag = self._complex_route(c, m1, m2)
        assert np.array_equal(tensors.view(np.int64), real.view(np.int64))  # bit for bit, zero signs included
        assert np.array_equal(residues, imag) and residues[1:].min() > 0.0


class TestDensityAssembly:
    def test_singlet_density_matrix(self):
        rho = assemble_density_batch(np.diag(InitialState.bell_singlet().correlations))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.abs(rho - expected).max() < 1e-15

    def test_werner_diagonal(self):
        rho = assemble_density_batch(np.diag(InitialState.werner(-0.9).correlations))
        assert np.allclose(np.diagonal(rho).real, [0.025, 0.475, 0.475, 0.025], atol=1e-15)
        assert abs(np.trace(rho) - 1.0) == 0.0

    def test_matches_raw_kron_assembly(self):
        rng = np.random.default_rng(17)
        for c in _random_physical_correlations(rng, 50):
            ours = assemble_density_batch(np.diag(c))
            assert np.abs(ours - oracles.bell_diagonal_rho(c)).max() < 1e-15

    def test_extraction_round_trip(self):
        rng = np.random.default_rng(19)
        for c in _random_physical_correlations(rng, 50):
            tensor, bloch_a, bloch_b = correlations_from_density_batch(assemble_density_batch(np.diag(c)))
            assert np.abs(tensor - np.diag(c)).max() < 1e-14
            assert np.abs(bloch_a).max() < 1e-14
            assert np.abs(bloch_b).max() < 1e-14

    def test_batch_extraction_matches_the_scalar_form(self):
        rng = np.random.default_rng(29)
        tensors = rng.uniform(-1.0, 1.0, size=(6, 3, 3))
        bloch_a, bloch_b = rng.uniform(-1.0, 1.0, size=(2, 6, 3))
        rhos = np.array([fano_density(*x) for x in zip(tensors, bloch_a, bloch_b)])
        c, a, b = correlations_from_density_batch(rhos)
        assert c.shape == (6, 3, 3) and a.shape == b.shape == (6, 3)
        assert np.abs(c - tensors).max() < 1e-14
        assert np.abs(a - bloch_a).max() < 1e-14 and np.abs(b - bloch_b).max() < 1e-14
        for i, rho in enumerate(rhos):
            one = correlations_from_density_batch(rho)
            assert [x.shape for x in one] == [(3, 3), (3,), (3,)]
            assert all(np.array_equal(x, y[i]) for x, y in zip(one, (c, a, b)))

    def test_extraction_handles_bloch_terms(self):
        # |0><0| x I/2 has a pure z Bloch vector on qubit a
        rho = fano_density(np.zeros((3, 3)), [0.0, 0.0, 1.0], np.zeros(3))
        assert np.array_equal(rho, np.diag([0.5, 0.5, 0.0, 0.0]))
        tensor, bloch_a, bloch_b = correlations_from_density_batch(rho)
        assert np.allclose(bloch_a, [0.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(bloch_b, [0.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(tensor, np.diag([0.0, 0.0, 0.0]), atol=1e-15)


class TestAdjointRotation:
    def test_identity(self):
        assert np.array_equal(adjoint_rotation(np.eye(2)), np.eye(3))

    def test_matches_independent_trace_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(raw)
            assert np.abs(adjoint_rotation(q) - oracles.heisenberg_rotation(q)).max() < 1e-13

    def test_stack_gives_each_rotation(self):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        qs = np.linalg.qr(raw)[0]
        rots = adjoint_rotation(qs)
        assert rots.shape == (5, 3, 3)
        for q, r in zip(qs, rots):
            assert np.array_equal(r, adjoint_rotation(q))

    def test_result_is_proper_rotation(self):
        u = oracles.rect_propagator(1.3, -0.7, 2.1)
        r = adjoint_rotation(u)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-13
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestUnitaryOracle:
    def test_rectangular_matches_expm(self):
        p = PulseSpec.rectangular(1.1, duration=5.0, delta=0.4)
        u = exact_single(p, 3.0)
        assert np.abs(u - oracles.rect_propagator(1.1, 0.4, 3.0)).max() < 1e-14

    def test_exponential_matches_expm(self):
        p = PulseSpec.exponential(5.0, 1.0)
        u = exact_single(p, 2.0)
        assert np.abs(u - oracles.exp_propagator(5.0, 1.0, 2.0)).max() < 1e-14

    def test_window_and_shape_guards(self):
        with pytest.raises(OutOfWindow):
            exact_single(PulseSpec.rectangular(1.0, duration=1.0), 2.0)
        with pytest.raises(OutOfWindow):
            exact_single(PulseSpec.exponential(1.0, 1.0), -0.5)
        assert np.array_equal(exact_single(PulseSpec.none(), 3.0), np.eye(2))

    def test_unitarity(self):
        u = exact_single(PulseSpec.rectangular(2.0, duration=10.0, delta=-1.5), 7.0)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-13

    # the ranges of validation._random_pulses; t = 0 and t = duration (the
    # window edge) are drawn on purpose, and lambda reaches Omega0/gamma_p = 50
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 4.0),
        st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
        st.floats(0.05, 50.0),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_rectangular_property_against_expm(self, omega0, delta, duration, fraction):
        t = duration * fraction
        u = exact_single(PulseSpec.rectangular(omega0, duration=duration, delta=delta), t)
        assert np.abs(u - oracles.rect_propagator(omega0, delta, t)).max() < 1e-13
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-13

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 10.0),
        st.floats(0.2, 2.0),
        st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    )
    def test_exponential_property_against_expm(self, omega0, gamma_p, t):
        u = exact_single(PulseSpec.exponential(omega0, gamma_p), t)
        assert np.abs(u - oracles.exp_propagator(omega0, gamma_p, t)).max() < 1e-13
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-13

    BATCH = (
        (PulseSpec.rectangular(1.1, duration=5.0, delta=0.4), 3.0),
        (PulseSpec.exponential(5.0, 1.0), 2.0),
        (PulseSpec.none(), 4.0),
        (PulseSpec.rectangular(0.7, duration=2.0), 2.0),
        (PulseSpec.exponential(8.0, 0.5), 0.0),
    )

    def test_batch_entries_equal_the_scalar_calls(self):
        specs, times = zip(*self.BATCH)
        batch = unitary_oracle_batch(oracles.stack(specs), times)
        assert batch.shape == (5, 2, 2)
        for i, (p, t) in enumerate(self.BATCH):
            assert np.array_equal(batch[i], unitary_oracle_batch(oracles.stack([p]), [t])[0])
            assert np.array_equal(batch[i], unitary_oracle_batch(p, [t])[0])
        assert np.array_equal(batch[2], np.eye(2))
        assert unitary_oracle_batch(PulseSpec([]), []).shape == (0, 2, 2)

    def test_batch_rejects_one_out_of_window_element(self):
        specs, times = zip(*self.BATCH)
        for i, bad in ((0, 5.5), (3, -1e-9), (1, -0.5), (0, math.nan), (1, math.nan), (4, math.nan)):
            with pytest.raises(OutOfWindow):
                unitary_oracle_batch(oracles.stack(specs), times[:i] + (bad,) + times[i + 1 :])
        with pytest.raises(ValueError):
            unitary_oracle_batch(oracles.stack(specs), times[:4])

    def test_batch_rejects_an_overflowing_phase(self):
        # Omega_1 t = 1e310 and Omega0 / gamma_p = 1e600 do not fit in a float;
        # the RuntimeWarning-as-error filter fails the test on any numpy warning
        specs, times = zip(*self.BATCH)
        overflowing = ((PulseSpec.rectangular(1e300, duration=1e10), 1e10), (PulseSpec.exponential(1e300, 1e-300), 0.0))
        for spec, t in overflowing:
            with pytest.raises(AngleOverflow, match="overflows a float"):
                unitary_oracle_batch(oracles.stack(specs + (spec,)), times + (t,))
        assert np.isfinite(exact_single(PulseSpec.rectangular(1e150, duration=1e150), 1e150)).all()

    # the ranges of validation._random_pulses, as (pulse, time) pairs
    RECT_DRAWS = st.builds(
        lambda omega0, delta, duration, fraction: (
            PulseSpec.rectangular(omega0, duration=duration, delta=delta),
            duration * fraction,
        ),
        st.floats(0.0, 4.0),
        st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
        st.floats(0.05, 50.0),
        st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    EXP_DRAWS = st.builds(
        lambda omega0, gamma_p, t: (PulseSpec.exponential(omega0, gamma_p), t),
        st.floats(0.0, 10.0),
        st.floats(0.2, 2.0),
        st.floats(0.0, 50.0),
    )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(RECT_DRAWS, EXP_DRAWS), min_size=1, max_size=8))
    def test_batch_property_against_expm(self, draws):
        expected = [
            oracles.rect_propagator(p.omega0, p.delta, t)
            if p.gamma == 0.0
            else oracles.exp_propagator(p.omega0, p.gamma, t)
            for p, t in draws
        ]
        specs, times = zip(*draws)
        assert np.abs(unitary_oracle_batch(oracles.stack(specs), times) - np.array(expected)).max() < 1e-13

    def test_no_run_path_imports_scipy(self, tmp_path):
        # a fresh interpreter, because this one holds scipy through tests/oracles
        code = textwrap.dedent(
            f"""
            import sys
            import pulsepair
            from pulsepair import cli
            from pulsepair.evolution import unitary_oracle_batch
            from pulsepair.pulses import PulseSpec
            unitary_oracle_batch(PulseSpec([1.0, 5.0], [0.5, 0.0], [2.0, float("inf")], [0.0, 1.0]), [1.5, 2.0])
            assert cli.main(["preset", "fig2b", "--out", {str(tmp_path / "fig2b.csv")!r}]) == 0
            print(sorted(name for name in sys.modules if name.startswith("scipy")))
            """
        )
        path = [str(Path(pulsepair.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


def rk4_single(p, t_end, **kw):
    return rk4_oracle_batch(p, [t_end], **kw)[0]


class TestRk4Oracle:
    def test_zero_time_is_identity(self):
        p = PulseSpec.rectangular(1.0, duration=1.0)
        assert np.array_equal(rk4_single(p, 0.0), np.eye(2))

    def test_step_gate(self):
        p = PulseSpec.rectangular(1.0, duration=50.0)  # every t_end below lies inside the window
        with pytest.raises(StepTooLarge):
            rk4_single(p, 0.005, step=1e-3)
        for step in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                rk4_single(p, 1.0, step=step)
        for t_end in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                rk4_single(p, t_end)
        # a step count above the cap, finite (5e13) or not (1 / 1e-320)
        for step, t_end in ((1e-320, 1.0), (1e-12, 50.0)):
            with pytest.raises(ValueError, match="steps of .*, over 10000000"):
                rk4_single(p, t_end, step=step)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [PulseSpec.rectangular(1e6, 1.0), PulseSpec.exponential(1e6, 1.0)])
    def test_step_past_the_stability_bound_raises_before_any_product(self, p):
        # h Omega0 = 1e3, far past 4 sqrt(2): the step matrices overflowed
        # ("overflow encountered in multiply", or in reduce) before the gate
        with pytest.raises(StepTooLarge, match="stability bound"):
            rk4_single(p, 1.0, step=1e-3)

    def test_stability_bound_takes_drive_and_detuning_together(self):
        # ten steps of h = 0.1: h hypot(Omega0, Delta) against 4 sqrt(2) = 5.657
        for omega, delta in ((56.0, 0.0), (0.0, 56.0), (39.0, 39.0)):
            u = rk4_single(PulseSpec.rectangular(omega, 1.0, delta), 1.0, step=0.1)
            assert np.isfinite(u).all()
        for omega, delta in ((57.0, 0.0), (0.0, -57.0), (41.0, 41.0)):
            with pytest.raises(StepTooLarge, match="stability bound"):
                rk4_single(PulseSpec.rectangular(omega, 1.0, delta), 1.0, step=0.1)
        # a pair past the bound fails the whole batch; one with t_end = 0 takes no step
        p = PulseSpec.exponential(100.0, 1.0)
        pair = oracles.stack([PulseSpec.none(), p])
        with pytest.raises(StepTooLarge):
            rk4_oracle_batch(pair, [1.0, 1.0], step=0.1)
        assert np.array_equal(rk4_oracle_batch(pair, [1.0, 0.0], step=0.1)[1], np.eye(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("omega, delta", [(1e308, 0.0), (0.0, 1e308), (1e308, -1e308)])
    def test_a_pair_that_takes_no_step_builds_no_step_from_its_drive(self, omega, delta):
        # its step matrix from a drive near the float range overflowed ("overflow
        # encountered in add") though the pair takes no step and passes the bound
        p, q = PulseSpec.rectangular(omega, 1.0, delta), PulseSpec.rectangular(1.0, 1.0)
        u = rk4_oracle_batch(oracles.stack([p, q]), [0.0, 1.0], 1e-3)
        assert np.array_equal(u[0], np.eye(2))
        assert np.array_equal(u[1], rk4_single(q, 1.0))

    def test_agreement_with_exact_propagator(self):
        cases = [
            (PulseSpec.rectangular(1.0, duration=7.0, delta=0.3), 6.0),
            (PulseSpec.rectangular(2.5, duration=4.0, delta=-1.0), 4.0),
            (PulseSpec.exponential(5.0, 1.0), 5.0),
            (PulseSpec.exponential(8.0, 0.5), 3.0),
            (PulseSpec.exponential(1.0, 0.5), 4.0),  # Omega0 = 1: integrated as a constant drive, 1.07 away
        ]
        for p, t in cases:
            err = np.abs(rk4_single(p, t) - exact_single(p, t)).max()
            assert err < 1e-9

    @pytest.mark.parametrize(
        "p",
        [PulseSpec.exponential(3.0, 0.7), PulseSpec.rectangular(1.3, duration=5.0, delta=-0.7), PulseSpec.none()],
        ids=["exponential", "detuned", "none"],
    )
    def test_one_spec_for_every_end_is_the_spec_repeated(self, p):
        ends = [0.0, 0.5, 4.0, 2.3]
        repeated = oracles.stack([p] * len(ends))
        assert rk4_oracle_batch(p, ends, 0.01).tobytes() == rk4_oracle_batch(repeated, ends, 0.01).tobytes()

    def test_rectangular_edge_is_sampled_inside_the_window(self):
        # duration == t_end: the last step ends on the window edge, which
        # still lies in the domain [0, T]
        p = PulseSpec.rectangular(
            2.6254388966933235, duration=49.68892250324508, delta=3.6528710962000357
        )
        err = np.abs(rk4_single(p, p.window) - exact_single(p, p.window)).max()
        assert err < 1e-9

    def test_batch_matches_exact_propagator(self):
        specs = [
            PulseSpec.rectangular(1.0, duration=7.0, delta=0.3),
            PulseSpec.exponential(5.0, 1.0),
            PulseSpec.rectangular(0.5, duration=3.0),
            PulseSpec.none(),
        ]
        t_ends = np.array([6.0, 2.5, 3.0, 4.0])
        batch = rk4_oracle_batch(oracles.stack(specs), t_ends)
        for p, t, u in zip(specs, t_ends, batch):
            if p.window == np.inf and p.gamma == 0.0:  # undriven
                assert np.abs(u - np.eye(2)).max() < 1e-12
            else:
                assert np.abs(u - exact_single(p, t)).max() < 1e-9

    def test_each_pair_takes_its_own_step_count(self):
        # pair 1 stops after its 50 steps of 1e-2; under a common count it
        # took 100 steps of 5e-3 and was 2e-9 away from the lone run
        p = PulseSpec.rectangular(4.0, duration=4.5, delta=2.0)
        pair = rk4_oracle_batch(p, [1.0, 0.5], step=1e-2)
        alone = rk4_oracle_batch(p, [0.5], step=1e-2)[0]
        assert np.abs(pair[1] - alone).max() < 1e-13
        # sorting these end times by step count is a 3-cycle, so results
        # put back in the wrong order would show
        ends = [0.5, 1.0, 0.8]
        for u, t in zip(rk4_oracle_batch(p, ends, step=1e-2), ends):
            assert np.abs(u - rk4_oracle_batch(p, [t], step=1e-2)[0]).max() < 1e-13

    def test_empty_batch(self):
        assert rk4_oracle_batch(PulseSpec([]), []).shape == (0, 2, 2)

    def test_batch_gates(self):
        p = PulseSpec.rectangular(1.0, duration=5.0)  # every t_end below lies inside the window
        with pytest.raises(StepTooLarge):
            rk4_oracle_batch(p, np.array([5.0, 0.005]))
        with pytest.raises(ValueError):
            rk4_oracle_batch(p, np.array([-1.0]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                rk4_oracle_batch(p, np.array([1.0, bad]))
        out = rk4_oracle_batch(p, np.array([0.0, 0.0]))
        assert np.array_equal(out[0], np.eye(2))

    # pairs 2 and 5 are exponential (complex blocks); the rest are powered:
    # a detuned rectangle inside its window and one ending at it, an
    # undriven qubit, and a resonant rectangle at t_end = 0
    MIXED = (
        (PulseSpec.rectangular(1.0, duration=6.0, delta=0.3), 6.0),
        (PulseSpec.rectangular(2.5, duration=4.0, delta=-1.0), 4.0),
        (PulseSpec.exponential(5.0, 1.0), 5.0),
        (PulseSpec.none(), 4.0),
        (PulseSpec.rectangular(0.5, duration=3.0), 0.0),
        (PulseSpec.exponential(3.0, 0.7), 3.34),
    )

    def test_matches_sequential_steps(self):
        # the same RK4 scheme, not merely an accurate one: at step 1e-2 a
        # different scheme would be off by far more than rounding
        specs, t_ends = zip(*self.MIXED)
        specs = oracles.stack(specs)
        batch = rk4_oracle_batch(specs, t_ends, step=1e-2)
        assert np.abs(batch - oracles.rk4_sequential(specs, t_ends, 1e-2)).max() < 1e-12
        assert np.array_equal(batch[4], np.eye(2))

    @pytest.mark.parametrize("steps_per_block", [1, 7])
    def test_block_size_does_not_change_the_result(self, monkeypatch, steps_per_block):
        # the two exponential pairs take 500 and 334 complex steps.  With 7
        # steps per pair, a block holds 21 steps while both run (334 ends
        # inside one), then 42; with 1, it holds 3 steps (334 is not a
        # multiple of 3), then 6
        specs, t_ends = zip(*self.MIXED)
        specs = oracles.stack(specs)
        default = rk4_oracle_batch(specs, t_ends, step=1e-2)
        monkeypatch.setattr(evolution, "_RK4_BLOCK_CELLS", steps_per_block * len(t_ends))
        blocked = rk4_oracle_batch(specs, t_ends, step=1e-2)
        assert np.abs(blocked - default).max() < 1e-13

    # a rectangle ending at its window: the stepped reference samples it at
    # (n - 1) h + h, one ulp past t_end, and clamps; ENDS take 10 (the fewest
    # the step gate allows), 15, 16, 17, 63, 64 and 65 steps of 0.2
    EDGE = PulseSpec.rectangular(2.6254388966933235, duration=49.68892250324508, delta=3.6528710962000357)
    ENDS = (2.0, 2.9, 3.1, 3.3, 12.5, 12.7, 12.9)
    ROUTES = {
        # a constant drive: one step matrix raised to the step count
        "powered": (
            (EDGE, EDGE.window),
            (EDGE, np.nextafter(EDGE.window, 0.0)),
            (PulseSpec.rectangular(0.0, duration=5.0, delta=1.5), 4.0),  # P = a I + d Z
            (PulseSpec.rectangular(1.3, duration=2.0), 2.0),  # resonant: P = a I + b X
            (PulseSpec.none(), 3.0),
            (PulseSpec.exponential(0.0, 0.4), 3.0),  # no drive to sample
            *((PulseSpec.rectangular(1.3, duration=20.0, delta=-0.7), t) for t in ENDS),
        ),
        # exponential pulses: steps multiplied as complex numbers
        "complex": tuple((PulseSpec.exponential(2.0, 0.4), t) for t in ENDS),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_each_route_matches_sequential_steps(self, route):
        assert list(np.ceil(np.array(self.ENDS) / 0.2)) == [10, 15, 16, 17, 63, 64, 65]
        specs, t_ends = zip(*self.ROUTES[route])
        specs = oracles.stack(specs)
        batch = rk4_oracle_batch(specs, t_ends, step=0.2)
        assert np.abs(batch - oracles.rk4_sequential(specs, t_ends, 0.2)).max() < 1e-12

    @pytest.mark.parametrize("route", ["mixed", "powered"])
    def test_each_powered_pair_is_the_same_alone_and_in_the_batch(self, route):
        # every pair but the driven exponential ones is powered, a pair with
        # t_end = 0 included: it takes no step and is the power P^0
        pairs, step = (self.MIXED, 1e-2) if route == "mixed" else (self.ROUTES[route], 0.2)
        specs, t_ends = zip(*pairs)
        batch = rk4_oracle_batch(oracles.stack(specs), t_ends, step=step)
        powered = [j for j, p in enumerate(specs) if p.gamma == 0.0 or p.omega0 == 0.0]
        assert len(powered) >= 3
        for j in powered:
            assert batch[j].tobytes() == rk4_oracle_batch(specs[j], [t_ends[j]], step=step)[0].tobytes()


def evolve_pair(pa, pb, t, mode=CoefficientMode.UNITARY):
    """C~ and residue of the singlet under drives pa and pb at time t, through the batch forms."""
    m1, m2 = (coefficient_map_batch(p, [t], mode) for p in (pa, pb))
    tensors, residues = evolve_correlations_batch([InitialState.bell_singlet().correlations], m1, m2)
    return tensors[0, 0], residues[0]


class TestEvolveState:
    def test_resonant_pi_pulse_flips_two_correlations(self):
        # Omega0 t = pi: x rotation by pi on qubit a only
        t = math.pi
        tensor, residue = evolve_pair(PulseSpec.rectangular(1.0, duration=t), PulseSpec.none(), t)
        assert np.abs(tensor - np.diag([-1.0, 1.0, 1.0])).max() < 1e-12
        assert residue == 0.0

    def test_literal_mode_propagates_residue(self):
        t = 2.0
        pa = PulseSpec.rectangular(1.0, duration=t, delta=1.0)
        _, residue = evolve_pair(pa, PulseSpec.none(), t, CoefficientMode.LITERAL)
        assert residue > 1e-6
