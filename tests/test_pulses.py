import math

import numpy as np
import pytest

from pulsepair.errors import AngleOverflow, OutOfWindow, ResonanceRequired
from pulsepair.evolution import rk4_oracle_batch, unitary_oracle_batch
from pulsepair.pulses import (
    CoefficientMode,
    PulseShape,
    PulseSpec,
    coefficient_map_batch,
    pulse_angle,
    rotation_matrix,
)

import oracles

LITERAL = CoefficientMode.LITERAL
UNITARY = CoefficientMode.UNITARY


class TestPulseSpec:
    def test_factories_set_shapes(self):
        assert PulseSpec.rectangular(1.0, duration=2.0).shape is PulseShape.RECTANGULAR
        assert PulseSpec.exponential(1.0, 0.5).shape is PulseShape.EXPONENTIAL
        assert PulseSpec.none().shape is PulseShape.NONE

    def test_rectangular_requires_positive_duration(self):
        with pytest.raises(ValueError):
            PulseSpec.rectangular(1.0, duration=0.0)
        with pytest.raises(ValueError):
            PulseSpec.rectangular(1.0, duration=-1.0)

    def test_exponential_requires_positive_width(self):
        with pytest.raises(ValueError):
            PulseSpec.exponential(1.0, 0.0)

    def test_exponential_rejects_detuning(self):
        with pytest.raises(ResonanceRequired):
            PulseSpec(shape=PulseShape.EXPONENTIAL, omega0=1.0, delta=0.3, gamma_p=1.0)

    def test_negative_rabi_frequency_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec.rectangular(-1.0, duration=1.0)

    def test_undriven_spec_must_be_empty(self):
        with pytest.raises(ValueError):
            PulseSpec(shape=PulseShape.NONE, omega0=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: PulseSpec.rectangular(v, duration=1.0),
            lambda v: PulseSpec.rectangular(1.0, duration=1.0, delta=v),
            lambda v: PulseSpec.rectangular(1.0, duration=v),
            lambda v: PulseSpec.exponential(v, 1.0),
            lambda v: PulseSpec.exponential(1.0, v),
        ],
        ids=["omega0", "delta", "duration", "exp_omega0", "gamma_p"],
    )
    def test_non_finite_parameters_rejected(self, build, bad):
        with pytest.raises(ValueError, match="must be finite"):
            build(bad)


class TestEnvelope:
    """The envelope f(t) that runs is the drive inside rk4_oracle_batch."""

    def test_rectangle_window(self):
        # the drive is off past T = 2, so the last 3 time units are free
        # precession about z; left on, the result would differ by about 1.18
        p = PulseSpec.rectangular(1.3, duration=2.0, delta=0.7)
        free = np.diag(np.exp(-0.5j * 0.7 * 3.0 * np.array([1.0, -1.0])))
        u = rk4_oracle_batch([p], [5.0])[0]
        # the step across the edge samples f on both sides: first order there
        assert np.abs(u - free @ unitary_oracle_batch(p, [2.0])[0]).max() < 1e-3

    def test_exponential_decay(self):
        p = PulseSpec.exponential(3.0, 0.8)
        u = rk4_oracle_batch([p], [4.0])[0]
        assert np.abs(u - unitary_oracle_batch(p, [4.0])[0]).max() < 1e-9

    def test_none_is_identically_zero(self):
        assert np.array_equal(rk4_oracle_batch([PulseSpec.none()], [3.7])[0], np.eye(2))


class TestPulseAngle:
    def test_starts_at_zero(self):
        assert pulse_angle(PulseSpec.exponential(3.0, 0.7), 0.0) == 0.0

    def test_saturates_at_rabi_over_width(self):
        p = PulseSpec.exponential(5.0, 1.0)
        assert pulse_angle(p, 1000.0) == pytest.approx(5.0, abs=1e-15)

    def test_monotone_and_bounded(self):
        p = PulseSpec.exponential(4.0, 0.5)
        ts = np.linspace(0.0, 30.0, 400)
        lams = [pulse_angle(p, t) for t in ts]
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        assert lams[-1] <= 4.0 / 0.5

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            pulse_angle(PulseSpec.rectangular(1.0, duration=1.0), 0.5)

    def test_overflowing_scale_is_a_typed_error(self):
        # Omega0 / gamma_p = 1e600; the RuntimeWarning-as-error filter fails the test on any numpy warning
        with pytest.raises(AngleOverflow, match="overflows a float"):
            pulse_angle(PulseSpec.exponential(1e300, 1e-300), 0.0)

    def test_window_starts_at_zero(self):
        with pytest.raises(OutOfWindow):
            pulse_angle(PulseSpec.exponential(1.0, 1.0), np.array([0.5, -0.5]))


def test_rotation_matrix_is_proper_orthogonal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = rotation_matrix(axis, rng.uniform(-8.0, 8.0))
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_rotation_matrix_x_quarter_turn():
    r = rotation_matrix((1.0, 0.0, 0.0), math.pi / 2.0)
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.abs(r - expected).max() < 1e-15


def literal_rows(c_plus, c_minus, c_z):
    """A and B rows of the verbatim closed forms, as the pulses docstring states them."""
    a_z = c_z.real
    b_x = (c_plus + c_minus).imag
    return np.array(
        [[(c_plus + c_minus).real, -(c_plus - c_minus).imag, a_z], [b_x, 1j * b_x, -1j * a_z]]
    )


def rect_draws(rng, count):
    """Detuned rectangles in a 25-unit window and one time in [0, 20] each: (specs, times)."""
    draws = []
    for _ in range(count):
        om = rng.uniform(0.05, 4.0)
        dl = rng.uniform(-4.0, 4.0)
        draws.append((PulseSpec.rectangular(om, duration=25.0, delta=dl), rng.uniform(0.0, 20.0)))
    return tuple(zip(*draws))


class TestRectIntermediates:
    """LITERAL-mode rectangular rows built from the C coefficients."""

    def test_start_values(self):
        # c_plus(0) = 1 exactly: the two prefactors average to one, so the
        # A row starts at (1, 0, 0) and the B row at zero
        specs = [PulseSpec.rectangular(1.3, 4.0, delta=delta) for delta in (0.0, 0.7, -2.5)]
        for m in coefficient_map_batch(specs, [0.0] * 3, LITERAL):
            assert np.array_equal(m[:2], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_rows_follow_stated_forms(self):
        specs, times = rect_draws(np.random.default_rng(24), 60)
        for p, t, m in zip(specs, times, coefficient_map_batch(specs, times, LITERAL)):
            om, dl = p.omega0, p.delta
            om1 = math.hypot(om, dl)
            cos, sin = math.cos(om1 * t), math.sin(om1 * t)
            c_plus = 0.5 * ((om / om1) ** 2 + (dl**2 + om1**2) / om1**2 * cos) + 1j * dl / om1 * sin
            c_minus = 0.5 * (om / om1) ** 2 * (1.0 - cos)
            c_z = dl * om / om1**2 * (1.0 - cos) - 1j * om / om1 * sin
            assert np.abs(m[:2] - literal_rows(c_plus, c_minus, c_z)).max() < 1e-12

    def test_window_enforced(self):
        p = PulseSpec.rectangular(1.0, duration=1.0)
        with pytest.raises(OutOfWindow):
            coefficient_map_batch(p, [1.5], LITERAL)
        with pytest.raises(OutOfWindow):
            coefficient_map_batch(p, [-0.1], LITERAL)


class TestRectCoefficients:
    def test_full_cycle_is_identity(self):
        t = 2.0 * math.pi
        m = coefficient_map_batch(PulseSpec.rectangular(1.0, duration=t), [t], UNITARY)[0]
        assert np.abs(m - np.eye(3)).max() < 1e-12

    def test_resonant_quarter_cycle_d_row(self):
        t = math.pi / 2.0
        m = coefficient_map_batch(PulseSpec.rectangular(1.0, duration=t), [t], UNITARY)[0]
        assert np.abs(m[2] - np.array([0.0, 1.0, 0.0])).max() < 1e-12

    def test_detuned_half_turn_anchor(self):
        # delta = omega0, Omega1 t = pi: rotation by pi about (1,0,1)/sqrt(2)
        om = 1.0
        om1 = math.hypot(om, om)
        t = math.pi / om1
        m = coefficient_map_batch(PulseSpec.rectangular(om, duration=t, delta=om), [t], UNITARY)[0]
        expected = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.abs(m.real - expected).max() < 1e-12
        oracle = oracles.heisenberg_rotation(oracles.rect_propagator(om, om, t))
        assert np.abs(m.real - oracle).max() < 1e-12

    def test_unitary_map_matches_propagator_oracle(self):
        specs, times = rect_draws(np.random.default_rng(21), 80)
        for p, t, m in zip(specs, times, coefficient_map_batch(specs, times, UNITARY)):
            oracle = oracles.heisenberg_rotation(oracles.rect_propagator(p.omega0, p.delta, t))
            assert np.abs(m.real - oracle).max() < 1e-11

    def test_unitary_d_row_equals_published_formulas(self):
        specs, times = rect_draws(np.random.default_rng(22), 200)
        for p, t, m in zip(specs, times, coefficient_map_batch(specs, times, UNITARY)):
            om, dl = p.omega0, p.delta
            om1 = math.hypot(om, dl)
            d = np.array(
                [
                    dl * om / om1**2 * (1.0 - math.cos(om1 * t)),
                    om / om1 * math.sin(om1 * t),
                    (om / om1) ** 2 * (math.cos(om1 * t) + (dl / om) ** 2),
                ]
            )
            assert np.abs(m[2].real - d).max() < 1e-12

    def test_resonant_period_property(self):
        om = 1.7
        period = 2.0 * math.pi / om
        p = PulseSpec.rectangular(om, duration=40.0)
        times = np.array([0.3, 1.1, 2.9])
        a = coefficient_map_batch(p, times, UNITARY)
        b = coefficient_map_batch(p, times + period, UNITARY)
        assert np.abs(a - b).max() < 1e-10

    def test_zero_drive_gives_identity(self):
        for mode in (UNITARY, LITERAL):
            m = coefficient_map_batch(PulseSpec.rectangular(0.0, duration=1.0), [0.7], mode)[0]
            assert np.array_equal(m, np.eye(3))

    def test_literal_shares_a_and_d_rows_with_unitary(self):
        specs, times = rect_draws(np.random.default_rng(23), 60)
        lit, uni = (coefficient_map_batch(specs, times, mode) for mode in (LITERAL, UNITARY))
        assert np.abs(lit[:, 0] - uni[:, 0]).max() < 1e-12
        assert np.abs(lit[:, 2] - uni[:, 2]).max() < 1e-12
        assert np.isfinite(lit).all()

    def test_literal_b_row_structure(self):
        # the printed relations tie the whole B row to B_x and A_z
        p = PulseSpec.rectangular(1.0, duration=10.0, delta=0.8)
        m = coefficient_map_batch(p, [2.3], LITERAL)[0]
        assert m[1, 1] == 1j * m[1, 0]
        assert m[1, 2] == -1j * m[0, 2]
        assert abs(m[1, 2].imag) > 1e-3  # genuinely complex when detuned


class TestExpCoefficients:
    def test_time_zero_is_identity(self):
        m = coefficient_map_batch(PulseSpec.exponential(5.0, 1.0), [0.0], UNITARY)[0]
        assert np.abs(m - np.eye(3)).max() == 0.0

    def test_long_time_d_row_saturates(self):
        m = coefficient_map_batch(PulseSpec.exponential(5.0, 1.0), [1000.0], UNITARY)[0]
        expected = np.array([0.0, math.sin(5.0), math.cos(5.0)])
        assert np.abs(m[2].real - expected).max() < 1e-12

    def test_two_parameter_sets_reaching_the_same_angle(self):
        # ratio 10 at gamma t = ln 2 accumulates the same 5 rad as ratio 5
        # fully decayed
        specs = [PulseSpec.exponential(5.0, 1.0), PulseSpec.exponential(10.0, 1.0)]
        late, half = coefficient_map_batch(specs, [1000.0, math.log(2.0)], UNITARY)
        assert np.abs(late - half).max() < 1e-12

    def test_unitary_is_x_rotation_by_pulse_angle(self):
        p = PulseSpec.exponential(3.0, 0.8)
        times = (0.1, 0.9, 4.0)
        maps = coefficient_map_batch(p, times, UNITARY)
        assert np.abs(maps.real - rotation_matrix((1, 0, 0), pulse_angle(p, times))).max() < 1e-14
        for t, m in zip(times, maps):
            oracle = oracles.heisenberg_rotation(oracles.exp_propagator(3.0, 0.8, t))
            assert np.abs(m.real - oracle).max() < 1e-12

    def test_intermediates_follow_stated_forms(self):
        p = PulseSpec.exponential(2.0, 1.0)
        m = coefficient_map_batch(p, [0.7], LITERAL)[0]
        lam = pulse_angle(p, 0.7)
        c_plus = 0.5 * (1.0 + math.cos(lam))
        c_minus = 0.5 * (1.0 - math.cos(lam))
        rows = literal_rows(complex(c_plus), complex(c_minus), -1j * math.sin(lam))
        assert np.abs(m[:2] - rows).max() < 1e-15
        assert np.abs(m[2] - [0.0, math.sin(lam), math.cos(lam)]).max() < 1e-15

    def test_literal_map_is_real_on_resonance(self):
        m = coefficient_map_batch(PulseSpec.exponential(5.0, 1.0), [1.3], LITERAL)
        assert np.abs(m.imag).max() == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(OutOfWindow):
            coefficient_map_batch(PulseSpec.exponential(1.0, 1.0), [-0.2])


def test_undriven_map_is_identity_in_both_modes():
    for mode in (UNITARY, LITERAL):
        m = coefficient_map_batch(PulseSpec.none(), [0.0], mode)[0]
        assert np.array_equal(m, np.eye(3))
        assert np.linalg.det(m.real) == 1.0


def test_coefficient_map_dispatches_by_shape():
    specs = [PulseSpec.rectangular(1.0, duration=2.0), PulseSpec.exponential(1.0, 1.0), PulseSpec.none()]
    rect, exp, none = coefficient_map_batch(specs, [1.0] * 3)
    assert rect.shape == (3, 3) and rect.dtype == np.complex128
    assert not np.array_equal(rect, np.eye(3))
    assert not np.array_equal(exp, np.eye(3))
    assert np.array_equal(none, np.eye(3))


@pytest.mark.parametrize("mode", [LITERAL, UNITARY])
def test_batch_entries_equal_single_time_maps_bitwise(mode):
    times = np.linspace(0.0, 2.0, 9)
    pulses = (
        PulseSpec.rectangular(1.3, duration=2.0, delta=0.7),
        PulseSpec.exponential(4.0, 0.5),
        PulseSpec.none(),
    )
    for p in pulses:
        batch = coefficient_map_batch(p, times, mode)
        assert batch.shape == (9, 3, 3)
        for t, m in zip(times, batch):
            assert np.array_equal(m, coefficient_map_batch(p, [t], mode)[0])


def test_batch_guards():
    rect = PulseSpec.rectangular(1.0, duration=2.0)
    for times in (1.0, [[1.0]]):
        with pytest.raises(ValueError):
            coefficient_map_batch(rect, times)
    with pytest.raises(OutOfWindow):
        coefficient_map_batch(rect, [0.5, 2.5])
    for bad in (-0.1, math.nan):
        with pytest.raises(OutOfWindow, match=f"pair 1: t = {bad} outside"):
            coefficient_map_batch(PulseSpec.exponential(1.0, 1.0), [1.0, bad])
    with pytest.raises(ValueError, match="times must match pulses"):
        coefficient_map_batch([rect, rect], [1.0])


@pytest.mark.parametrize("mode", [UNITARY, LITERAL])
def test_overflowing_angle_is_a_typed_error(mode):
    # Omega_1 t = 1e310 and Omega0 / gamma_p = 1e600 do not fit in a float;
    # the RuntimeWarning-as-error filter fails the test on any numpy warning
    with pytest.raises(AngleOverflow, match="overflows a float"):
        coefficient_map_batch(PulseSpec.rectangular(1e300, duration=1e10), [1.0, 1e10], mode)
    with pytest.raises(AngleOverflow, match="overflows a float"):
        coefficient_map_batch(PulseSpec.exponential(1e300, 1e-300), [0.0, 1.0], mode)
    assert np.isfinite(coefficient_map_batch(PulseSpec.rectangular(1e150, duration=1e150), [1e150], mode)).all()


def test_literal_square_of_omega_1_overflow_is_a_typed_error():
    # Omega_1 t = 1e190 fits, but the literal forms' Omega_1^2 = 1e400 does not
    p = PulseSpec.rectangular(1e200, duration=1e-10)
    with pytest.raises(AngleOverflow, match="pair 0: .* overflows a float"):
        coefficient_map_batch(p, [1e-10], LITERAL)
    unitary = coefficient_map_batch(p, [1e-10], UNITARY)[0]
    assert np.array_equal(unitary.real, rotation_matrix((1.0, 0.0, 0.0), 1e190))
    assert np.isfinite(unitary_oracle_batch(p, [1e-10])).all()


MIXED = (
    (PulseSpec.rectangular(1.3, duration=2.0, delta=0.7), 1.1),
    (PulseSpec.exponential(4.0, 0.5), 2.5),
    (PulseSpec.none(), 0.4),
    (PulseSpec.rectangular(0.0, duration=1.0), 0.3),
    (PulseSpec.exponential(1.0, 1.0), 0.0),
)


@pytest.mark.parametrize("mode", [LITERAL, UNITARY])
def test_mixed_pairs_equal_each_spec_own_call_bitwise(mode):
    specs, times = zip(*MIXED)
    maps = coefficient_map_batch(specs, times, mode)
    propagators = unitary_oracle_batch(specs, times)
    for (p, t), m, u in zip(MIXED, maps, propagators):
        assert m.tobytes() == coefficient_map_batch(p, [t], mode)[0].tobytes()
        assert u.tobytes() == unitary_oracle_batch(p, [t])[0].tobytes()


def test_errors_name_the_first_failing_pair():
    specs, times = zip(*MIXED)
    for i, bad in ((1, -1.0), (0, 2.5), (2, math.nan)):
        moved = times[:i] + (bad,) + times[i + 1 :]
        both = moved[:3] + (-2.0,) + moved[4:]  # pair 3 fails too, later
        for call in (lambda: coefficient_map_batch(specs, both), lambda: unitary_oracle_batch(specs, both)):
            with pytest.raises(OutOfWindow, match=f"pair {i}: t = {bad} outside"):
                call()
    huge = specs[:2] + (PulseSpec.rectangular(1e300, duration=1e10), PulseSpec.exponential(1e300, 1e-300))
    for call in (coefficient_map_batch, unitary_oracle_batch):
        with pytest.raises(AngleOverflow, match="pair 2: .* overflows a float"):
            call(huge, (1.1, 2.5, 1e10, 1.0))


def test_unitary_mode_matrices_are_proper_rotations():
    rng = np.random.default_rng(31)
    specs, times = [], []
    for _ in range(1000):
        if rng.random() < 0.5:
            om = rng.uniform(0.0, 4.0)
            dl = rng.uniform(-4.0, 4.0)
            times.append(rng.uniform(0.0, 30.0))
            specs.append(PulseSpec.rectangular(om, duration=30.0, delta=dl))
        else:
            specs.append(PulseSpec.exponential(rng.uniform(0.0, 8.0), rng.uniform(0.2, 2.0)))
            times.append(rng.uniform(0.0, 30.0))
    m = coefficient_map_batch(specs, times, UNITARY)
    assert np.abs(m.imag).max() < 1e-12
    r = m.real
    assert np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max() < 1e-10
    assert np.abs(np.linalg.det(r) - 1.0).max() < 1e-10
