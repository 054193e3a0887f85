import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsepair.errors import AngleOverflow, OutOfWindow, ResonanceRequired, StepTooLarge
from pulsepair.evolution import adjoint_rotation, rk4_oracle_batch, unitary_oracle_batch
from pulsepair.pulses import CoefficientMode, PulseSpec, coefficient_map_batch

import oracles

LITERAL = CoefficientMode.LITERAL
UNITARY = CoefficientMode.UNITARY


class TestPulseSpec:
    def test_factories_set_shapes(self):
        # a rectangle has a finite window, an exponential pulse gamma > 0, an undriven qubit neither
        assert PulseSpec.rectangular(1.0, duration=2.0, delta=0.5) == (1.0, 0.5, 2.0, 0.0)
        assert PulseSpec.exponential(1.0, 0.5) == (1.0, 0.0, math.inf, 0.5)
        assert PulseSpec.none() == (0.0, 0.0, math.inf, 0.0)
        assert all(np.shape(f) == () and f.dtype == float for f in PulseSpec.none())

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
            PulseSpec(1.0, delta=0.3, gamma=1.0)

    def test_negative_rabi_frequency_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec.rectangular(-1.0, duration=1.0)

    def test_undriven_spec_must_be_empty(self):
        with pytest.raises(ValueError):
            PulseSpec(1.0)

    def test_fields_are_read_only_and_replace_is_checked(self):
        p = PulseSpec.rectangular(1.0, duration=2.0)
        with pytest.raises(ValueError, match="read-only"):
            p.omega0[...] = -1.0
        with pytest.raises(ValueError, match="window must be > 0"):
            p._replace(window=0.0)
        assert p._replace(window=3.0) == (1.0, 0.0, 3.0, 0.0)

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
    """The envelope f(t) that runs is the drive inside rk4_oracle_batch; its window bounds every route."""

    @pytest.mark.parametrize(
        "route", [coefficient_map_batch, unitary_oracle_batch, rk4_oracle_batch], ids=["maps", "exact", "rk4"]
    )
    def test_rectangle_window(self, route):
        # every route ends where the drive does: T and the float below it
        # integrate, and each route names pair 1, the first past its window
        p = PulseSpec.rectangular(1.3, duration=2.0, delta=0.7)
        specs = oracles.stack([PulseSpec.none(), p, p])
        assert np.isfinite(route(specs, [3.0, 2.0, np.nextafter(2.0, 0.0)])).all()
        late = np.nextafter(2.0, np.inf)
        with pytest.raises(OutOfWindow, match=re.escape(f"pair 1: t = {late} outside the pulse window [0, 2.0]")):
            route(specs, [3.0, late, 5.0])

    def test_exponential_decay(self):
        p = PulseSpec.exponential(3.0, 0.8)
        u = rk4_oracle_batch(p, [4.0])[0]
        assert np.abs(u - unitary_oracle_batch(p, [4.0])[0]).max() < 1e-9

    def test_none_is_identically_zero(self):
        assert np.array_equal(rk4_oracle_batch(PulseSpec.none(), [3.7])[0], np.eye(2))


class TestPulseAngle:
    """The angle lambda(t) of an exponential pulse, read off its unitary maps: x rotations by lambda(t)."""

    def test_starts_at_zero(self):
        assert np.array_equal(coefficient_map_batch(PulseSpec.exponential(3.0, 0.7), [0.0], UNITARY)[0], np.eye(3))

    def test_saturates_at_rabi_over_width(self):
        m = coefficient_map_batch(PulseSpec.exponential(5.0, 1.0), [1000.0], UNITARY)[0]
        assert np.abs(m - x_rotation(5.0)).max() <= 1e-15

    def test_monotone_and_bounded(self):
        # the D row (0, sin lambda, cos lambda) unwraps to lambda(t) on a grid this fine
        maps = coefficient_map_batch(PulseSpec.exponential(4.0, 0.5), np.linspace(0.0, 30.0, 400), UNITARY)
        lams = np.unwrap(np.arctan2(maps[:, 2, 1], maps[:, 2, 2]))
        assert (np.diff(lams) >= 0.0).all()
        assert lams[-1] <= 4.0 / 0.5

    def test_overflowing_scale_is_a_typed_error(self):
        # Omega0 / gamma_p = 1e600; the RuntimeWarning-as-error filter fails the test on any numpy warning
        with pytest.raises(AngleOverflow, match="overflows a float"):
            coefficient_map_batch(PulseSpec.exponential(1e300, 1e-300), [0.0])

    def test_window_starts_at_zero(self):
        with pytest.raises(OutOfWindow):
            coefficient_map_batch(PulseSpec.exponential(1.0, 1.0), np.array([0.5, -0.5]))


def x_rotation(angle):
    """The proper rotation about the x axis by one angle, from math.cos and math.sin."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def test_unitary_maps_are_proper_orthogonal():
    rng = np.random.default_rng(5)
    specs, times = (list(v) for v in rect_draws(rng, 50))
    for _ in range(50):
        specs.append(PulseSpec.exponential(rng.uniform(0.0, 8.0), rng.uniform(0.2, 2.0)))
        times.append(rng.uniform(0.0, 30.0))
    r = coefficient_map_batch(oracles.stack(specs), times, UNITARY).real
    assert np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.det(r) - 1.0).max() < 1e-12


def test_resonant_quarter_turn_map():
    t = math.pi / 2.0
    m = coefficient_map_batch(PulseSpec.rectangular(1.0, duration=t), [t], UNITARY)[0]
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert np.abs(m - expected).max() < 1e-15


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
        for m in coefficient_map_batch(oracles.stack(specs), [0.0] * 3, LITERAL):
            assert np.array_equal(m[:2], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_rows_follow_stated_forms(self):
        specs, times = rect_draws(np.random.default_rng(24), 60)
        for p, t, m in zip(specs, times, coefficient_map_batch(oracles.stack(specs), times, LITERAL)):
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
        for p, t, m in zip(specs, times, coefficient_map_batch(oracles.stack(specs), times, UNITARY)):
            oracle = oracles.heisenberg_rotation(oracles.rect_propagator(p.omega0, p.delta, t))
            assert np.abs(m.real - oracle).max() < 1e-11

    def test_unitary_d_row_equals_published_formulas(self):
        specs, times = rect_draws(np.random.default_rng(22), 200)
        for p, t, m in zip(specs, times, coefficient_map_batch(oracles.stack(specs), times, UNITARY)):
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
        lit, uni = (coefficient_map_batch(oracles.stack(specs), times, mode) for mode in (LITERAL, UNITARY))
        assert np.array_equal(lit[:, 0], uni[:, 0])
        assert np.array_equal(lit[:, 2], uni[:, 2])
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
        specs = oracles.stack([PulseSpec.exponential(5.0, 1.0), PulseSpec.exponential(10.0, 1.0)])
        late, half = coefficient_map_batch(specs, [1000.0, math.log(2.0)], UNITARY)
        assert np.abs(late - half).max() < 1e-12

    def test_unitary_is_x_rotation_by_pulse_angle(self):
        p = PulseSpec.exponential(3.0, 0.8)
        times = (0.1, 0.9, 4.0)
        maps = coefficient_map_batch(p, times, UNITARY)
        for t, m in zip(times, maps):
            lam = (3.0 / 0.8) * (1.0 - math.exp(-0.8 * t))
            assert np.abs(m.real - x_rotation(lam)).max() < 1e-14
        for t, m in zip(times, maps):
            oracle = oracles.heisenberg_rotation(oracles.exp_propagator(3.0, 0.8, t))
            assert np.abs(m.real - oracle).max() < 1e-12

    def test_intermediates_follow_stated_forms(self):
        p = PulseSpec.exponential(2.0, 1.0)
        m = coefficient_map_batch(p, [0.7], LITERAL)[0]
        lam = (2.0 / 1.0) * (1.0 - math.exp(-1.0 * 0.7))
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


@pytest.mark.parametrize("mode, dtype", [(UNITARY, np.float64), (LITERAL, np.complex128)])
def test_an_all_undriven_batch_gives_exact_identities_in_the_dtype_of_its_mode(mode, dtype):
    # one path for undriven pairs, whether the batch has driven pairs or none
    specs = oracles.stack([PulseSpec.none(), PulseSpec.rectangular(0.0, duration=3.0, delta=0.0), PulseSpec.none()])
    for batch in (specs, PulseSpec.none()):
        maps = coefficient_map_batch(batch, [0.0, 2.5, 1e300], mode)
        assert maps.dtype == dtype
        assert maps.tobytes() == np.tile(np.eye(3, dtype=dtype), (3, 1, 1)).tobytes()  # no -0.0 either


def test_coefficient_map_dispatches_by_shape():
    specs = oracles.stack(
        [PulseSpec.rectangular(1.0, duration=2.0), PulseSpec.exponential(1.0, 1.0), PulseSpec.none()]
    )
    # unitary maps are real rotations; only the printed literal B row needs complex entries
    for mode, dtype in ((UNITARY, np.float64), (LITERAL, np.complex128)):
        rect, exp, none = coefficient_map_batch(specs, [1.0] * 3, mode)
        assert rect.shape == (3, 3) and rect.dtype == dtype
        assert not np.array_equal(rect, np.eye(3))
        assert not np.array_equal(exp, np.eye(3))
        assert np.array_equal(none, np.eye(3))
        assert coefficient_map_batch(PulseSpec.none(), [0.0, 1.0], mode).dtype == dtype


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
        coefficient_map_batch(oracles.stack([rect, rect]), [1.0])


@pytest.mark.parametrize("mode", [UNITARY, LITERAL])
def test_overflowing_angle_is_a_typed_error(mode):
    # Omega_1 t = 1e310 and Omega0 / gamma_p = 1e600 do not fit in a float;
    # the RuntimeWarning-as-error filter fails the test on any numpy warning
    with pytest.raises(AngleOverflow, match="overflows a float"):
        coefficient_map_batch(PulseSpec.rectangular(1e300, duration=1e10), [1.0, 1e10], mode)
    with pytest.raises(AngleOverflow, match="overflows a float"):
        coefficient_map_batch(PulseSpec.exponential(1e300, 1e-300), [0.0, 1.0], mode)
    assert np.isfinite(coefficient_map_batch(PulseSpec.rectangular(1e150, duration=1e150), [1e150], mode)).all()


def test_huge_omega_1_gives_finite_maps_in_both_modes():
    # Omega_1 t = 1e190 fits, and so does Omega_1^2 = 1e400 once the rows are scaled
    p = PulseSpec.rectangular(1e200, duration=1e-10)
    literal, unitary = (coefficient_map_batch(p, [1e-10], mode)[0] for mode in (LITERAL, UNITARY))
    assert np.isfinite(literal).all() and np.isfinite(unitary).all()
    assert np.array_equal(literal[[0, 2]], unitary[[0, 2]])
    assert np.abs(unitary - x_rotation(1e190)).max() < 1e-15
    assert np.isfinite(unitary_oracle_batch(p, [1e-10])).all()


@pytest.mark.parametrize(
    "p, t",
    [
        (PulseSpec.rectangular(1e-200, duration=1.0), 0.5),
        (PulseSpec.rectangular(3e-170, duration=1.0, delta=4e-170), 0.5),
    ],
    ids=["resonant", "detuned"],
)
def test_tiny_omega_1_gives_the_oracle_rows_in_both_modes(p, t):
    # Omega_1^2 underflows a float; the RuntimeWarning-as-error filter fails the test on any numpy warning
    exact = adjoint_rotation(unitary_oracle_batch(p, [t]))[0]
    for mode in (LITERAL, UNITARY):
        m = coefficient_map_batch(p, [t], mode)[0]
        assert np.isfinite(m).all()
        assert np.abs(m[[0, 2]] - exact[[0, 2]]).max() < 1e-15


@pytest.mark.parametrize("k", [-600, -520, -1, 1, 500, 600])
@pytest.mark.parametrize("mode", [LITERAL, UNITARY])
def test_maps_keep_their_bits_under_power_of_two_scaling(mode, k):
    # (2^k Omega, 2^k Delta, 2^-k T) read at 2^-k t turns through the same angle
    # about the same axis, and scaling by a power of two is exact
    specs, times = rect_draws(np.random.default_rng(41), 300)
    scaled = [
        PulseSpec.rectangular(math.ldexp(p.omega0, k), math.ldexp(p.window, -k), math.ldexp(p.delta, k))
        for p in specs
    ]
    base = coefficient_map_batch(oracles.stack(specs), times, mode)
    moved = coefficient_map_batch(oracles.stack(scaled), [math.ldexp(t, -k) for t in times], mode)
    assert moved.tobytes() == base.tobytes()


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
    specs = oracles.stack(specs)
    maps = coefficient_map_batch(specs, times, mode)
    propagators = unitary_oracle_batch(specs, times)
    for (p, t), m, u in zip(MIXED, maps, propagators):
        assert m.tobytes() == coefficient_map_batch(p, [t], mode)[0].tobytes()
        assert u.tobytes() == unitary_oracle_batch(p, [t])[0].tobytes()


def test_errors_name_the_first_failing_pair():
    specs, times = zip(*MIXED)
    specs = oracles.stack(specs)
    for i, bad in ((1, -1.0), (0, 2.5), (2, math.nan)):
        moved = times[:i] + (bad,) + times[i + 1 :]
        both = moved[:3] + (-2.0,) + moved[4:]  # pair 3 fails too, later
        for call in (lambda: coefficient_map_batch(specs, both), lambda: unitary_oracle_batch(specs, both)):
            with pytest.raises(OutOfWindow, match=f"pair {i}: t = {bad} outside"):
                call()
    huge = oracles.stack(
        [MIXED[0][0], MIXED[1][0], PulseSpec.rectangular(1e300, duration=1e10), PulseSpec.exponential(1e300, 1e-300)]
    )
    for call in (coefficient_map_batch, unitary_oracle_batch):
        with pytest.raises(AngleOverflow, match="pair 2: .* overflows a float"):
            call(huge, (1.1, 2.5, 1e10, 1.0))


def _batch_and_specs(rng):
    # a hand-built batch of arrays and the equal PulseSpecs: detuned and resonant
    # rectangles, exponential pulses (one of them at omega0 = 0) and an undriven qubit
    n = 40
    rect = np.arange(n) % 3 == 1
    omega = rng.uniform(0.0, 4.0, n)
    omega[2] = 0.0
    delta = np.where(rect & (rng.random(n) < 0.7), rng.uniform(-4.0, 4.0, n), 0.0)
    times = rng.uniform(0.05, 20.0, n)
    window = np.where(rect, times * rng.uniform(1.0, 2.0, n), np.inf)
    gamma = np.where(rect, 0.0, rng.uniform(0.2, 2.0, n))
    omega[-1] = gamma[-1] = 0.0  # undriven
    batch = PulseSpec(omega, delta, window, gamma)
    specs = [
        PulseSpec.rectangular(o, w, d) if r else PulseSpec.exponential(o, g) if g else PulseSpec.none()
        for r, o, d, w, g in zip(rect.tolist(), omega.tolist(), delta.tolist(), window.tolist(), gamma.tolist())
    ]
    assert [(p.window < np.inf, p.gamma > 0.0) for p in specs[-3:]] == [(True, False), (False, True), (False, False)]
    return batch, specs, times


def test_a_pulse_batch_and_its_specs_give_the_same_bits_and_errors():
    batch, specs, times = _batch_and_specs(np.random.default_rng(23))
    stacked = oracles.stack(specs)
    for mode in (LITERAL, UNITARY):
        assert coefficient_map_batch(batch, times, mode).tobytes() == coefficient_map_batch(stacked, times, mode).tobytes()
    assert unitary_oracle_batch(batch, times).tobytes() == unitary_oracle_batch(stacked, times).tobytes()
    step = times.min() / 10.0
    assert rk4_oracle_batch(batch, times, step).tobytes() == rk4_oracle_batch(stacked, times, step).tobytes()

    late = times.copy()
    late[[7, 10]] = 1.5 * batch.window[[7, 10]]  # both rectangles, out of their windows
    omega, gamma = batch.omega0.copy(), batch.gamma.copy()
    omega[[5, 8]], gamma[[5, 8]] = 1e300, 1e-300  # exponential pulses: Omega0/gamma_p overflows
    huge = batch._replace(omega0=omega, gamma=gamma)
    huge_specs = oracles.stack(
        [PulseSpec.exponential(1e300, 1e-300) if i in (5, 8) else p for i, p in enumerate(specs)]
    )
    for call in (coefficient_map_batch, unitary_oracle_batch):
        with pytest.raises(OutOfWindow, match="pair 7: ") as from_batch:
            call(batch, late)
        with pytest.raises(OutOfWindow, match="pair 7: ") as from_specs:
            call(stacked, late)
        assert str(from_batch.value) == str(from_specs.value)
        with pytest.raises(AngleOverflow, match="pair 5: the rotation of omega0 = 1e.300, delta = 0.0, gamma_p = 1e-300 at t = ") as a:
            call(huge, times)
        with pytest.raises(AngleOverflow) as b:
            call(huge_specs, times)
        assert str(a.value) == str(b.value)


# entry j of _batch_and_specs' batch set to one invalid pulse: j = 4 and 7 are
# rectangles, 3 is exponential and 39 undriven
BAD_ENTRIES = {
    "nan_omega0": (4, (math.nan, 0.5, 3.0, 0.0)),
    "negative_omega0": (4, (-1.0, 0.5, 3.0, 0.0)),
    "zero_window": (7, (1.0, 0.5, 0.0, 0.0)),
    "window_and_gamma": (3, (1.0, 0.0, 3.0, 0.5)),
    "detuned_exponential": (3, (1.0, 0.3, math.inf, 0.5)),
    "driven_undriven": (39, (1.0, 0.0, math.inf, 0.0)),
}


@pytest.mark.parametrize("j, entry", BAD_ENTRIES.values(), ids=list(BAD_ENTRIES))
def test_a_batch_is_checked_entry_by_entry(j, entry):
    batch, _, _ = _batch_and_specs(np.random.default_rng(23))
    with pytest.raises((ValueError, ResonanceRequired)) as one:
        PulseSpec(*entry)
    fields = [np.array(f) for f in batch]
    for field, value in zip(fields, entry):
        field[j] = value
    with pytest.raises(type(one.value), match=f"; entry {j} has ") as batched:
        PulseSpec(*fields)
    assert type(batched.value) is type(one.value)


def test_a_sequence_of_another_length_than_the_times_is_rejected():
    batch, specs, times = _batch_and_specs(np.random.default_rng(5))
    one = oracles.stack(specs[:1])  # a spec of one is not one pulse for every time
    for pulses, t in ((batch, times[:-1]), (one, times[:2])):
        for call in (coefficient_map_batch, unitary_oracle_batch):
            with pytest.raises(ValueError, match="times must match pulses"):
                call(pulses, t)
        with pytest.raises(ValueError, match="t_ends must match pulses"):
            rk4_oracle_batch(pulses, t, times.min() / 10.0)


def test_a_list_of_specs_is_not_a_pulse_input():
    # a list is never read as fields: it fails at its first field access
    p = PulseSpec.rectangular(1.0, duration=2.0)
    for call in (coefficient_map_batch, unitary_oracle_batch, rk4_oracle_batch):
        with pytest.raises(AttributeError, match="omega0"):
            call([p, p], [0.5, 1.0])


_POSITIVE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)  # 1e-300 to 1e300
_MAGNITUDE = st.one_of(st.just(0.0), _POSITIVE)


@st.composite
def _pairs(draw):
    """One (pulse, time) pair of any kind with magnitudes from 1e-300 to 1e300; a rectangle's t mostly in its window."""
    kind = draw(st.sampled_from(["rectangle", "exponential", "none"]))
    if kind == "rectangle":
        window, delta = draw(_POSITIVE), draw(st.sampled_from([-1.0, 1.0])) * draw(_MAGNITUDE)
        t = draw(st.one_of(st.floats(0.0, 1.0).map(lambda f: f * window), _MAGNITUDE))
        return PulseSpec.rectangular(draw(_MAGNITUDE), window, delta), t
    if kind == "exponential":
        return PulseSpec.exponential(draw(_MAGNITUDE), draw(_POSITIVE)), draw(_MAGNITUDE)
    return PulseSpec.none(), draw(_MAGNITUDE)


# each public batch function on (pulses, times, step), and the errors its docstring names
NAMED_ERRORS = {
    "maps_unitary": (lambda p, t, step: coefficient_map_batch(p, t, UNITARY), (OutOfWindow, AngleOverflow)),
    "maps_literal": (lambda p, t, step: coefficient_map_batch(p, t, LITERAL), (OutOfWindow, AngleOverflow)),
    "exact": (lambda p, t, step: unitary_oracle_batch(p, t), (OutOfWindow, AngleOverflow)),
    "rk4": (rk4_oracle_batch, (ValueError, OutOfWindow, StepTooLarge)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.lists(_pairs(), min_size=1, max_size=4), st.floats(1.0, 8.0), _POSITIVE)
def test_every_batch_gives_finite_output_or_an_error_its_docstring_names(pairs, steps, other_step):
    # the RK4 step is mostly t_max / 10^steps, so that some calls pass its step gates
    specs, times = zip(*pairs)
    step = max(times) / 10.0**steps if max(times) > 0.0 else other_step
    for name, (call, named) in NAMED_ERRORS.items():
        try:
            out = call(oracles.stack(specs), times, step)
        except named:
            continue
        assert np.isfinite(out).all(), name


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
    m = coefficient_map_batch(oracles.stack(specs), times, UNITARY)
    assert np.abs(m.imag).max() < 1e-12
    r = m.real
    assert np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max() < 1e-10
    assert np.abs(np.linalg.det(r) - 1.0).max() < 1e-10
