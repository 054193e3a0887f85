import math

import numpy as np
import pytest

from pulsepair.errors import OutOfWindow, ResonanceRequired
from pulsepair.evolution import rk4_oracle_batch, unitary_oracle
from pulsepair.pulses import (
    CoefficientMode,
    PulseShape,
    PulseSpec,
    coefficient_map,
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
        assert np.abs(u - free @ unitary_oracle(p, 2.0)).max() < 1e-3

    def test_exponential_decay(self):
        p = PulseSpec.exponential(3.0, 0.8)
        u = rk4_oracle_batch([p], [4.0])[0]
        assert np.abs(u - unitary_oracle(p, 4.0)).max() < 1e-9

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


class TestRectIntermediates:
    """LITERAL-mode rectangular rows built from the C coefficients."""

    def test_start_values(self):
        # c_plus(0) = 1 exactly: the two prefactors average to one, so the
        # A row starts at (1, 0, 0) and the B row at zero
        for delta in (0.0, 0.7, -2.5):
            m = coefficient_map(PulseSpec.rectangular(1.3, 4.0, delta=delta), 0.0, LITERAL)
            assert np.array_equal(m[:2], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_rows_follow_stated_forms(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            om = rng.uniform(0.05, 4.0)
            dl = rng.uniform(-4.0, 4.0)
            t = rng.uniform(0.0, 20.0)
            m = coefficient_map(PulseSpec.rectangular(om, duration=25.0, delta=dl), t, LITERAL)
            om1 = math.hypot(om, dl)
            cos, sin = math.cos(om1 * t), math.sin(om1 * t)
            c_plus = 0.5 * ((om / om1) ** 2 + (dl**2 + om1**2) / om1**2 * cos) + 1j * dl / om1 * sin
            c_minus = 0.5 * (om / om1) ** 2 * (1.0 - cos)
            c_z = dl * om / om1**2 * (1.0 - cos) - 1j * om / om1 * sin
            assert np.abs(m[:2] - literal_rows(c_plus, c_minus, c_z)).max() < 1e-12

    def test_window_enforced(self):
        p = PulseSpec.rectangular(1.0, duration=1.0)
        with pytest.raises(OutOfWindow):
            coefficient_map(p, 1.5, LITERAL)
        with pytest.raises(OutOfWindow):
            coefficient_map(p, -0.1, LITERAL)


class TestRectCoefficients:
    def test_full_cycle_is_identity(self):
        t = 2.0 * math.pi
        m = coefficient_map(PulseSpec.rectangular(1.0, duration=t), t, UNITARY)
        assert np.abs(m - np.eye(3)).max() < 1e-12

    def test_resonant_quarter_cycle_d_row(self):
        t = math.pi / 2.0
        m = coefficient_map(PulseSpec.rectangular(1.0, duration=t), t, UNITARY)
        assert np.abs(m[2] - np.array([0.0, 1.0, 0.0])).max() < 1e-12

    def test_detuned_half_turn_anchor(self):
        # delta = omega0, Omega1 t = pi: rotation by pi about (1,0,1)/sqrt(2)
        om = 1.0
        om1 = math.hypot(om, om)
        t = math.pi / om1
        m = coefficient_map(PulseSpec.rectangular(om, duration=t, delta=om), t, UNITARY)
        expected = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.abs(m.real - expected).max() < 1e-12
        oracle = oracles.heisenberg_rotation(oracles.rect_propagator(om, om, t))
        assert np.abs(m.real - oracle).max() < 1e-12

    def test_unitary_map_matches_propagator_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(80):
            om = rng.uniform(0.05, 4.0)
            dl = rng.uniform(-4.0, 4.0)
            t = rng.uniform(0.0, 20.0)
            m = coefficient_map(PulseSpec.rectangular(om, duration=25.0, delta=dl), t, UNITARY)
            oracle = oracles.heisenberg_rotation(oracles.rect_propagator(om, dl, t))
            assert np.abs(m.real - oracle).max() < 1e-11

    def test_unitary_d_row_equals_published_formulas(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            om = rng.uniform(0.05, 4.0)
            dl = rng.uniform(-4.0, 4.0)
            t = rng.uniform(0.0, 20.0)
            m = coefficient_map(PulseSpec.rectangular(om, duration=25.0, delta=dl), t, UNITARY)
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
        for t in (0.3, 1.1, 2.9):
            a = coefficient_map(p, t, UNITARY)
            b = coefficient_map(p, t + period, UNITARY)
            assert np.abs(a - b).max() < 1e-10

    def test_zero_drive_gives_identity(self):
        m = coefficient_map(PulseSpec.rectangular(0.0, duration=1.0), 0.7, UNITARY)
        assert np.array_equal(m, np.eye(3))
        m = coefficient_map(PulseSpec.rectangular(0.0, duration=1.0), 0.7, LITERAL)
        assert np.array_equal(m, np.eye(3))

    def test_literal_shares_a_and_d_rows_with_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            om = rng.uniform(0.05, 4.0)
            dl = rng.uniform(-4.0, 4.0)
            t = rng.uniform(0.0, 20.0)
            p = PulseSpec.rectangular(om, duration=25.0, delta=dl)
            lit = coefficient_map(p, t, LITERAL)
            uni = coefficient_map(p, t, UNITARY)
            assert np.abs(lit[0] - uni[0]).max() < 1e-12
            assert np.abs(lit[2] - uni[2]).max() < 1e-12
            assert np.isfinite(lit).all()

    def test_literal_b_row_structure(self):
        # the printed relations tie the whole B row to B_x and A_z
        p = PulseSpec.rectangular(1.0, duration=10.0, delta=0.8)
        m = coefficient_map(p, 2.3, LITERAL)
        assert m[1, 1] == 1j * m[1, 0]
        assert m[1, 2] == -1j * m[0, 2]
        assert abs(m[1, 2].imag) > 1e-3  # genuinely complex when detuned


class TestExpCoefficients:
    def test_time_zero_is_identity(self):
        m = coefficient_map(PulseSpec.exponential(5.0, 1.0), 0.0, UNITARY)
        assert np.abs(m - np.eye(3)).max() == 0.0

    def test_long_time_d_row_saturates(self):
        m = coefficient_map(PulseSpec.exponential(5.0, 1.0), 1000.0, UNITARY)
        expected = np.array([0.0, math.sin(5.0), math.cos(5.0)])
        assert np.abs(m[2].real - expected).max() < 1e-12

    def test_two_parameter_sets_reaching_the_same_angle(self):
        # ratio 10 at gamma t = ln 2 accumulates the same 5 rad as ratio 5
        # fully decayed
        late = coefficient_map(PulseSpec.exponential(5.0, 1.0), 1000.0, UNITARY)
        half = coefficient_map(PulseSpec.exponential(10.0, 1.0), math.log(2.0), UNITARY)
        assert np.abs(late - half).max() < 1e-12

    def test_unitary_is_x_rotation_by_pulse_angle(self):
        p = PulseSpec.exponential(3.0, 0.8)
        for t in (0.1, 0.9, 4.0):
            lam = pulse_angle(p, t)
            m = coefficient_map(p, t, UNITARY)
            assert np.abs(m.real - rotation_matrix((1, 0, 0), lam)).max() < 1e-14
            oracle = oracles.heisenberg_rotation(oracles.exp_propagator(3.0, 0.8, t))
            assert np.abs(m.real - oracle).max() < 1e-12

    def test_intermediates_follow_stated_forms(self):
        p = PulseSpec.exponential(2.0, 1.0)
        m = coefficient_map(p, 0.7, LITERAL)
        lam = pulse_angle(p, 0.7)
        c_plus = 0.5 * (1.0 + math.cos(lam))
        c_minus = 0.5 * (1.0 - math.cos(lam))
        rows = literal_rows(complex(c_plus), complex(c_minus), -1j * math.sin(lam))
        assert np.abs(m[:2] - rows).max() < 1e-15
        assert np.abs(m[2] - [0.0, math.sin(lam), math.cos(lam)]).max() < 1e-15

    def test_literal_map_is_real_on_resonance(self):
        m = coefficient_map(PulseSpec.exponential(5.0, 1.0), 1.3, LITERAL)
        assert np.abs(m.imag).max() == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(OutOfWindow):
            coefficient_map(PulseSpec.exponential(1.0, 1.0), -0.2)


def test_undriven_map_is_identity_in_both_modes():
    for mode in (UNITARY, LITERAL):
        m = coefficient_map(PulseSpec.none(), 0.0, mode)
        assert np.array_equal(m, np.eye(3))
        assert np.linalg.det(m.real) == 1.0


def test_coefficient_map_dispatches_by_shape():
    t = 1.0
    rect = coefficient_map(PulseSpec.rectangular(1.0, duration=2.0), t)
    exp = coefficient_map(PulseSpec.exponential(1.0, 1.0), t)
    none = coefficient_map(PulseSpec.none(), t)
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
            assert np.array_equal(m, coefficient_map(p, t, mode))


def test_batch_guards():
    rect = PulseSpec.rectangular(1.0, duration=2.0)
    for times in (1.0, [[1.0]]):
        with pytest.raises(ValueError):
            coefficient_map_batch(rect, times)
    with pytest.raises(OutOfWindow):
        coefficient_map_batch(rect, [0.5, 2.5])
    for bad in (-0.1, math.nan):
        with pytest.raises(OutOfWindow, match=f"t = {bad} precedes"):
            coefficient_map_batch(PulseSpec.exponential(1.0, 1.0), [1.0, bad])


def test_unitary_mode_matrices_are_proper_rotations():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        if rng.random() < 0.5:
            om = rng.uniform(0.0, 4.0)
            dl = rng.uniform(-4.0, 4.0)
            t = rng.uniform(0.0, 30.0)
            p = PulseSpec.rectangular(om, duration=30.0, delta=dl)
        else:
            p = PulseSpec.exponential(rng.uniform(0.0, 8.0), rng.uniform(0.2, 2.0))
            t = rng.uniform(0.0, 30.0)
        m = coefficient_map(p, t, UNITARY)
        assert np.abs(m.imag).max() < 1e-12
        r = m.real
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10
