import dataclasses
import hashlib
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
from pulsepair import evolution, validation
from pulsepair.errors import AngleOverflow, InvalidConfig, OutOfWindow, StepTooLarge, UnphysicalState
from pulsepair.evolution import (
    InitialState,
    adjoint_rotation,
    assemble_density_batch,
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

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb", ",", "\n", "caf\u00e9", "a\u2028b", "a\x85b"])
    def test_a_label_that_would_split_the_csv_header_is_refused(self, label):
        # the label is written into the CSV header unquoted: "a,b" gave the
        # header param,E_a,b,imag_residue over rows of three fields.  The
        # header is written as ASCII: "caf\u00e9" ran the sweep and then raised
        # an untyped UnicodeEncodeError at the write
        with pytest.raises(InvalidConfig, match="state label"):
            InitialState(label, (-1.0, -1.0, -1.0))
        with pytest.raises(InvalidConfig):
            dataclasses.replace(InitialState.bell_singlet(), label=label)


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

    def test_resonant_literal_maps_evolve_as_their_real_parts(self):
        # on resonance the printed B row vanishes: complex maps whose imaginary parts are all zero
        times = np.linspace(0.0, 5.0, 41)
        m1 = coefficient_map_batch(PulseSpec.exponential(5.0, 1.0), times, CoefficientMode.LITERAL)
        m2 = coefficient_map_batch(PulseSpec.rectangular(1.0, 6.0), times, CoefficientMode.LITERAL)
        assert m1.dtype == m2.dtype == np.complex128 and not (m1.imag.any() or m2.imag.any())
        c = [(-1.0, -1.0, -1.0), (-0.9, -0.8, -0.7)]
        tensors, residues = evolve_correlations_batch(c, m1, m2)
        real, _ = self._complex_route(c, m1, m2)
        assert tensors.dtype == np.float64 and np.array_equal(tensors.view(np.int64), real.view(np.int64))
        assert np.array_equal(residues, np.zeros(len(times)))
        # the real parts' tensors, up to the sign of a zero, which the closed form ignores
        assert np.array_equal(tensors, evolve_correlations_batch(c, m1.real, m2.real)[0])

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_the_documented_domain_gives_finite_cells(self, n, complex_maps, data):
        # physical diagonals, the tetrahedron's corners among them, and map entries of magnitude 0 or 1e-300 to 1
        unit = st.one_of(st.just(0.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e))
        sizes = np.reshape(data.draw(st.lists(unit, min_size=18 * n, max_size=18 * n)), (2, n, 3, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        phases = np.exp(2j * np.pi * rng.random(sizes.shape)) if complex_maps else rng.choice([-1.0, 1.0], sizes.shape)
        corners = [(-1.0, -1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)]
        c = np.concatenate((corners, _random_physical_correlations(rng, 4)))
        tensors, residues = evolve_correlations_batch(c, *(sizes * phases))
        assert np.isfinite(tensors).all() and np.isfinite(residues).all()

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


# signed zeros, subnormals, and magnitudes up to half the float range, where a sum of two stays finite
_DENSITY_SIGN = st.sampled_from([1.0, -1.0])
_DENSITY_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(lambda m, s: s * m, st.floats(5e-324, 2.2e-308), _DENSITY_SIGN),
    st.builds(lambda e, s: s * 10.0**e, st.floats(-300.0, 307.0), _DENSITY_SIGN),
    st.floats(-8.9e307, 8.9e307),
)


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

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(), (0,), (1,), (2, 3)]), st.data())
    def test_gives_the_bytes_of_the_complex_einsum(self, shape, data):
        n = 9 * math.prod(shape)
        t = np.reshape(data.draw(st.lists(_DENSITY_ENTRY, min_size=n, max_size=n)), shape + (3, 3))
        assert assemble_density_batch(t).tobytes() == oracles.zero_bloch_density(t).tobytes()

    def test_complex_tensor_raises_rather_than_dropping_its_imaginary_part(self):
        with pytest.raises(TypeError, match="real correlation tensor"):
            assemble_density_batch(np.diag([1.0, -1.0, 1.0]) + 1e-3j)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # signed zeros, subnormals, entries near 1 and near half the float range, solved in a fresh
        # interpreter per thread count, as OpenBLAS reads it at load
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1.0, -2.5, 8.9e307, -8.9e307]
        t = rng.choice(values, size=(20_000, 3, 3)) * rng.choice([1.0, -1.0, 0.3], size=(20_000, 3, 3))
        np.save(tmp_path / "t.npy", t)
        code = textwrap.dedent(
            f"""
            import hashlib
            import numpy as np
            from pulsepair.evolution import assemble_density_batch
            t = np.load({str(tmp_path / "t.npy")!r})
            print(hashlib.sha256(assemble_density_batch(t).tobytes()).hexdigest())
            """
        )
        digests = {hashlib.sha256(oracles.zero_bloch_density(t).tobytes()).hexdigest()}
        path = [str(Path(pulsepair.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "OPENBLAS_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            digests.add(run.stdout.strip())
        assert len(digests) == 1


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
    @pytest.mark.parametrize(
        "p, t_end, step",
        [
            (PulseSpec.rectangular(1e6, 1.0), 1.0, 1e-3),
            (PulseSpec.rectangular(1e6, 1.0, delta=-1e6), 1.0, 1e-3),
            (PulseSpec.exponential(1e6, 1.0), 1.0, 1e-3),
            (PulseSpec.rectangular(1e308, 1e10, delta=1e308), 1e10, 1e9),  # h hypot(Omega0, Delta)/2 overflows
        ],
        ids=["resonant", "detuned", "exponential", "overflow"],
    )
    def test_step_past_the_series_bound_raises_before_any_product(self, p, t_end, step):
        # h Omega0/2 = 500, or inf: refused before any product, with no
        # "overflow encountered in multiply"
        with pytest.raises(StepTooLarge, match="pair 0: .* past the series bound 0.1"):
            rk4_single(p, t_end, step=step)

    def test_series_bound_takes_drive_and_detuning_together(self):
        # ten steps of h = 0.1: h hypot(Omega0, Delta)/2 against 0.1
        for omega, delta in ((2.0, 0.0), (0.0, 2.0), (1.4, 1.4)):
            u = rk4_single(PulseSpec.rectangular(omega, 1.0, delta), 1.0, step=0.1)
            assert np.isfinite(u).all()
        for omega, delta in ((2.1, 0.0), (0.0, -2.1), (1.5, 1.5)):
            with pytest.raises(StepTooLarge, match="series bound"):
                rk4_single(PulseSpec.rectangular(omega, 1.0, delta), 1.0, step=0.1)
        # a pair past the bound fails the whole batch; one with t_end = 0 takes no step
        p = PulseSpec.exponential(100.0, 1.0)
        pair = oracles.stack([PulseSpec.none(), p])
        with pytest.raises(StepTooLarge, match="pair 1: "):
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

    # pairs 2 and 5 are exponential; the rest are constant drives: a detuned
    # rectangle inside its window and one ending at it, an undriven qubit, and a
    # resonant rectangle at t_end = 0
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

    # a rectangle ending at its window: the stepped reference samples it at
    # (n - 1) h + h, one ulp past t_end, and clamps; ENDS take 10 (the fewest
    # the step gate allows), 15, 16, 17, 63, 64 and 65 steps of 0.2
    EDGE = PulseSpec.rectangular(0.5250877793386647, duration=49.68892250324508, delta=0.7305742192400071)
    ENDS = (2.0, 2.9, 3.1, 3.3, 12.5, 12.7, 12.9)
    # every first sample u0 = h hypot(Omega0, Delta)/2 at h <= 0.2 is at most 0.09, inside the series bound
    KINDS = {
        # constant drives: s = q = 1, so S_k = n u0^k; and Omega0 = 0, where u0 = 0 and z = 1
        "constant": (
            (EDGE, EDGE.window),
            (EDGE, np.nextafter(EDGE.window, 0.0)),
            (PulseSpec.rectangular(0.0, duration=5.0, delta=0.9), 4.0),  # P = a I + d Z
            (PulseSpec.rectangular(0.9, duration=2.0), 2.0),  # resonant: P = a I + b X
            (PulseSpec.none(), 3.0),
            (PulseSpec.exponential(0.0, 0.4), 3.0),
            *((PulseSpec.rectangular(0.4, duration=20.0, delta=-0.3), t) for t in ENDS),
        ),
        # exponential pulses: geometric samples u0 q^j
        "exponential": tuple((PulseSpec.exponential(0.8, 0.4), t) for t in ENDS),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_each_kind_of_pair_matches_sequential_steps(self, kind):
        assert list(np.ceil(np.array(self.ENDS) / 0.2)) == [10, 15, 16, 17, 63, 64, 65]
        specs, t_ends = zip(*self.KINDS[kind])
        specs = oracles.stack(specs)
        batch = rk4_oracle_batch(specs, t_ends, step=0.2)
        assert np.abs(batch - oracles.rk4_sequential(specs, t_ends, 0.2)).max() < 1e-12

    @pytest.mark.parametrize("pairs", ["mixed", "constant"])
    def test_each_pair_is_the_same_alone_and_in_the_batch(self, pairs):
        # a pair with t_end = 0 included: it takes no step and is the empty product
        pairs, step = (self.MIXED, 1e-2) if pairs == "mixed" else (self.KINDS[pairs], 0.2)
        specs, t_ends = zip(*pairs)
        batch = rk4_oracle_batch(oracles.stack(specs), t_ends, step=step)
        for j, (p, t) in enumerate(pairs):
            assert batch[j].tobytes() == rk4_oracle_batch(p, [t], step=step)[0].tobytes()

    # six constant drives of 10^4 to 1.05 10^4 steps of 1e-3: resonant and detuned rectangles, a pure
    # detuning and a drive near the series bound (u0 = 0.0875)
    LONG = (
        (PulseSpec.rectangular(1.0, duration=50.0, delta=0.3), 10.0),
        (PulseSpec.rectangular(2.5, duration=30.0, delta=-1.0), 10.3),
        (PulseSpec.rectangular(4.0, duration=10.0), 10.0),
        (PulseSpec.rectangular(0.0, duration=40.0, delta=3.3), 10.45),
        (PulseSpec.rectangular(0.6, duration=12.0, delta=-0.05), 10.2),
        (PulseSpec.rectangular(150.0, duration=20.0, delta=90.0), 10.5),
    )

    def test_long_constant_drives_match_sequential_steps(self):
        specs, t_ends = zip(*self.LONG)
        specs = oracles.stack(specs)
        assert np.ceil(np.array(t_ends) / 1e-3).min() == 1e4
        batch = rk4_oracle_batch(specs, t_ends, step=1e-3)
        assert np.abs(batch - oracles.rk4_sequential(specs, t_ends, 1e-3)).max() < 1e-12

    # 40 exponential pulses in the ranges validate draws from, ending anywhere up to 20 at step 1e-2: 10-2000
    # steps each
    _rng = np.random.default_rng(1)
    DRAWN = (PulseSpec(_rng.uniform(0.0, 10.0, 40), gamma=_rng.uniform(0.2, 2.0, 40)), _rng.uniform(0.1, 20.0, 40))

    def test_drawn_exponential_pairs_match_sequential_steps(self):
        specs, t_ends = self.DRAWN
        assert len(set(np.ceil(t_ends / 1e-2))) == 40
        batch = rk4_oracle_batch(specs, t_ends, step=1e-2)
        assert np.abs(batch - oracles.rk4_sequential(specs, t_ends, 1e-2)).max() < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma_p", [1e307, 1e308])
    def test_a_pulse_that_vanishes_within_one_step_stays_finite(self, gamma_p):
        # gamma_p t overflowed at the step ends ("overflow encountered in
        # multiply"), and 0 * inf would be NaN in an envelope table.  gamma_p h
        # is capped at 1500, so the first step sees u = h Omega0/2 (0.05, or 0.1
        # at the series bound), every later sample is 0.0, sum_j q^(kj) = 1 and
        # U = I - (i u/6) X
        omega0 = np.array([0.05, 0.1])
        u = rk4_oracle_batch(PulseSpec(omega0, gamma=gamma_p), [20.0, 20.0], step=2.0)
        assert np.abs(u - (np.eye(2) - 1j * omega0[:, None, None] / 6.0 * oracles.SX)).max() <= 1e-15

    # on h = 0.25 (t_end 2.5 in 10 steps, 12.5 in 50), (Omega0 at the bound, Omega0 one ulp over it, Delta)
    # with u0 = h hypot(Omega0, Delta)/2 exactly 0.1 and exactly one ulp past it
    BOUND = {"resonant": (0.8, 0.8000000000000002, 0.0), "detuned": (0.64, 0.6400000000000002, 0.48)}
    BOUND["exponential"] = BOUND["resonant"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(BOUND))
    @pytest.mark.parametrize("t_end", [2.5, 12.5])
    def test_a_pair_at_the_series_bound_passes_and_one_ulp_over_raises(self, kind, t_end):
        assert evolution._RK4_SERIES_BOUND == 0.1
        at, over, delta = self.BOUND[kind]
        assert [0.25 * np.hypot(0.5 * w, 0.5 * delta) for w in (at, over)] == [0.1, np.nextafter(0.1, 1.0)]

        def pulse(omega0):
            if kind == "exponential":
                return PulseSpec.exponential(omega0, 0.4)
            return PulseSpec.rectangular(omega0, t_end, delta)

        u = rk4_single(pulse(at), t_end, step=0.25)
        assert np.abs(u - oracles.rk4_sequential(oracles.stack([pulse(at)]), [t_end], 0.25)[0]).max() < 1e-12
        with pytest.raises(StepTooLarge, match="pair 0: .* past the series bound"):
            rk4_single(pulse(over), t_end, step=0.25)

    def test_pairs_at_the_step_cap_match_the_exact_propagator(self):
        # t_end = 10 at step 1e-6 is exactly _RK4_MAX_STEPS steps, the count the
        # series' tail bound assumes, and one ulp more is past the cap
        specs = oracles.stack(
            [
                PulseSpec.rectangular(1.0, duration=20.0, delta=0.5),
                PulseSpec.exponential(2.0, 0.3),
                PulseSpec.rectangular(1.5, duration=20.0),
            ]
        )
        assert np.ceil(10.0 / 1e-6) == evolution._RK4_MAX_STEPS
        batch = rk4_oracle_batch(specs, [10.0] * 3, step=1e-6)
        assert np.abs(batch - unitary_oracle_batch(specs, [10.0] * 3)).max() < 1e-13
        with pytest.raises(ValueError, match="steps of 1e-06, over 10000000"):
            rk4_oracle_batch(specs, [10.0, np.nextafter(10.0, 11.0), 10.0], step=1e-6)

    @pytest.mark.parametrize("terms", [1, 2, 3, 5, 8])
    def test_the_series_is_the_exponential_of_its_first_terms(self, monkeypatch, terms):
        # log P(u) = sum_i log(1 - u/z_i) over the four zeros z_i of the step
        # quartic, so alpha_k = -sum_i z_i^-k / k; S_k = sum_j u_j^k summed
        # here step by step.  Few terms on u0 = 0.1 leave a tail far above
        # rounding, so a term too few or too many, or a wrong S_k, shows
        monkeypatch.setattr(evolution, "_RK4_SERIES_TERMS", terms)
        h, n = 0.25, np.array([10, 50, 50])
        omega0, gamma_p = np.array([0.8, 0.8, 0.4]), np.array([0.4, 4.0, 1.0])
        batch = rk4_oracle_batch(PulseSpec(omega0, gamma=gamma_p), h * n, step=h)
        for u, w, g, steps in zip(batch, omega0, gamma_p, n):
            s = math.exp(-0.5 * g * h)
            c1, c2, c3, c4 = (1 + 4 * s + s * s) / 6, s * (1 + s + s * s) / 6, s * s * (1 + s * s) / 12, s**4 / 24
            zeros = np.roots([c4, -1j * c3, -c2, 1j * c1, 1.0])
            samples = h * w / 2 * np.exp(-g * h * np.arange(steps))
            log_z = sum(-(zeros ** -k).sum() / k * (samples**k).sum() for k in range(1, terms + 1))
            z = np.exp(log_z)
            assert np.abs(u - (z.real * np.eye(2) - 1j * z.imag * oracles.SX)).max() < 1e-12

    def test_each_series_pair_is_the_same_alone_and_in_the_batch(self):
        specs, t_ends = self.DRAWN
        batch = rk4_oracle_batch(specs, t_ends, step=1e-2)
        for j, t in enumerate(t_ends):
            alone = rk4_oracle_batch(PulseSpec(specs.omega0[j], gamma=specs.gamma[j]), [t], step=1e-2)
            assert batch[j].tobytes() == alone[0].tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_series_pair_at_zero_time_or_a_vanishing_rate_is_exact(self):
        # t_end = 0 takes no step: k gamma_p h = 0 and sum_j q^(kj) over no j
        # is 0, not the 0/0 of the geometric ratio.  gamma_p h tiny (1e-302),
        # subnormal (1e-312) or zero (5e-324 h) makes every sample 1.0 and s = 1:
        # the rectangle's step, summed by the same series
        flat = PulseSpec(2.0, gamma=[0.4, 1e-300, 1e-310, 5e-324])
        identities = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        assert rk4_oracle_batch(flat, [0.0] * 4).tobytes() == identities.tobytes()
        batch = rk4_oracle_batch(flat, [0.0, 5.0, 5.0, 5.0], step=1e-2)
        assert np.array_equal(batch[0], np.eye(2))
        rect = rk4_single(PulseSpec.rectangular(2.0, 5.0), 5.0, step=1e-2)
        assert np.abs(batch[1:] - rect).max() < 1e-12


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
