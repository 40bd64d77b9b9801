"""Schedule shapes, sweeps, and extrapolation."""

import math

import numpy as np
import pytest

from adiametric.errors import ConfigError, DimensionMismatch, NonpositiveWeight, OutOfRange
from adiametric.metric_flow import static_metric
from adiametric.moyal import cubic_linear_switch_evolve, linear_switch_closed_form
from adiametric.operator_core import biorthogonal_decompose
from adiametric.scattering import (
    ScatteringConfig,
    adiabatic_metric,
    moller_minus,
    s_matrix,
)
from adiametric.switching import (
    Constant,
    ExponentialSwitch,
    LinearRamp,
    SmoothSwitch,
    adiabatic_sweep,
    extrapolate_to_zero,
    is_monotone_nonincreasing,
)
from adiametric.two_level import CrossedRampSchedule, ramp_experiment

from helpers import SX, SZ

H0 = 2.0 * SZ
HI = 0.75j * SX


class TestSchedules:
    def test_constant(self):
        sched = Constant(H0)
        np.testing.assert_array_equal(sched.at(3.7), H0)
        assert sched.breakpoints() == ()

    def test_exponential_switch_exact_at_zero(self):
        sched = ExponentialSwitch(H0, HI, eps=0.1)
        np.testing.assert_array_equal(sched.at(0.0), H0 + HI)

    def test_exponential_switch_decay_bound(self):
        eps = 0.2
        sched = ExponentialSwitch(H0, HI, eps)
        for t in (-40.0, 55.0):
            dev = np.linalg.norm(sched.at(t) - H0)
            assert dev <= math.exp(-eps * abs(t)) * np.linalg.norm(HI) + 1e-15

    def test_linear_ramp_midpoint_and_clamp(self):
        h1 = H0 + HI
        sched = LinearRamp(H0, h1, duration=4.0)
        np.testing.assert_allclose(sched.at(2.0), 0.5 * (H0 + h1), atol=1e-15)
        np.testing.assert_array_equal(sched.at(-1.0), H0)
        np.testing.assert_array_equal(sched.at(9.0), h1)
        assert sched.breakpoints() == (0.0, 4.0)

    def test_smooth_switch_support_and_peak(self):
        sched = SmoothSwitch(H0, HI, width=10.0)
        np.testing.assert_array_equal(sched.at(0.0), H0 + HI)
        np.testing.assert_array_equal(sched.at(10.0), H0)
        np.testing.assert_array_equal(sched.at(-12.0), H0)

    def test_switch_factor_builds_at(self):
        for sched in (ExponentialSwitch(H0, HI, 0.3), SmoothSwitch(H0, HI, 5.0)):
            assert sched.factor(0.0) == 1.0
            for t in (-7.0, -2.5, 0.0, 1.25, 5.0):
                np.testing.assert_array_equal(sched.at(t), H0 + sched.factor(t) * HI)
        assert SmoothSwitch(H0, HI, 5.0).factor(-5.0) == 0.0

    def test_every_schedule_is_affine_with_a_vectorized_factor(self):
        ts = np.array([-7.0, -2.5, 0.0, 1.25, 4.0, 5.0])
        for sched in (Constant(H0), ExponentialSwitch(H0, HI, 0.3), LinearRamp(H0, 3.0 * HI, 4.0),
                      SmoothSwitch(H0, HI, 5.0), CrossedRampSchedule(4.0)):
            np.testing.assert_array_equal(sched.factor(ts), [sched.factor(t) for t in ts])
            for t in ts:
                np.testing.assert_array_equal(sched.at(t), sched.h0 + sched.factor(t) * sched.h_int)
        np.testing.assert_array_equal(LinearRamp(H0, 3.0 * HI, 4.0).h_int, 3.0 * HI - H0)
        np.testing.assert_array_equal(Constant(H0).h_int, np.zeros((2, 2)))

    def test_schedules_hash_and_compare_by_identity(self):
        # array fields: field-wise equality would be ambiguous
        for make in (lambda: Constant(H0), lambda: LinearRamp(H0, HI, 1.0),
                     lambda: CrossedRampSchedule(1.0)):
            a, b = make(), make()
            assert a == a and a != b and len({a, b}) == 2

    @pytest.mark.parametrize("rate", [0.05, 0.3, 1.6, 7.0])
    def test_switches_are_even(self, rate):
        # one CF4 stack serves both Moller dressings only because f(-t) == f(t)
        for sched in (ExponentialSwitch(H0, HI, rate), SmoothSwitch(H0, HI, 12.0 / rate)):
            t = np.linspace(0.0, 1.5 * sched.support, 4097)
            t = np.concatenate([t, t * (1.0 + 1e-9), np.nextafter(t, np.inf)])
            np.testing.assert_array_equal(sched.factor(-t), sched.factor(t))

    @pytest.mark.parametrize("rate", [0.05, 0.3, 1.6, 7.0])
    def test_switch_factor_negligible_beyond_support(self, rate):
        for sched in (ExponentialSwitch(H0, HI, rate), SmoothSwitch(H0, HI, 12.0 / rate)):
            assert sched.factor(0.999 * sched.support) > 0.0
            for t in (-sched.support, sched.support, 2.0 * sched.support):
                assert sched.factor(t) <= 2.0**-53

    def test_schedules_are_lipschitz(self):
        # |H(t) - H(t')| <= L |t - t'| sampled on a fine grid
        for sched, rate in [
            (ExponentialSwitch(H0, HI, 0.3), 0.3 * np.linalg.norm(HI)),
            (LinearRamp(H0, H0 + HI, 2.0), np.linalg.norm(HI) / 2.0),
            (SmoothSwitch(H0, HI, 5.0), np.linalg.norm(HI) * math.pi / 10.0),
        ]:
            ts = np.linspace(-6.0, 6.0, 601)
            vals = [sched.at(t) for t in ts]
            dt = ts[1] - ts[0]
            for a, b in zip(vals, vals[1:]):
                assert np.linalg.norm(b - a) <= rate * dt * 1.01 + 1e-14

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            ExponentialSwitch(H0, HI, eps=-1.0)
        with pytest.raises(ConfigError):
            LinearRamp(H0, HI, duration=0.0)
        with pytest.raises(ConfigError):
            SmoothSwitch(H0, HI, width=-2.0)

    def test_schedule_boundary_raises_config_error(self):
        # once ValueError; the scattering layer maps shape names to switches
        with pytest.raises(ConfigError):
            s_matrix(H0, HI, 0.1, shape="cosine")
        with pytest.raises(ConfigError):
            s_matrix(H0, HI, 0.0)
        with pytest.raises(ConfigError):
            CrossedRampSchedule(0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build, error", [
        (lambda x: ExponentialSwitch(H0, HI, eps=x), ConfigError),
        (lambda x: LinearRamp(H0, HI, duration=x), ConfigError),
        (lambda x: SmoothSwitch(H0, HI, width=x), ConfigError),
        (lambda x: s_matrix(H0, HI, x), ConfigError),
        (lambda x: s_matrix(H0, HI, 0.4, shape="smooth", config=ScatteringConfig(
            horizon_factor=x)), ConfigError),
        (lambda x: ramp_experiment(x), ConfigError),
        (lambda x: cubic_linear_switch_evolve(x, math.pi), OutOfRange),
        (lambda x: cubic_linear_switch_evolve(0.1, x), OutOfRange),
        (lambda x: linear_switch_closed_form(x, math.pi, 1.0), OutOfRange),
        (lambda x: linear_switch_closed_form(0.1, x, 1.0), OutOfRange),
        (lambda x: linear_switch_closed_form(0.1, math.pi, x), OutOfRange),
        (lambda x: static_metric(biorthogonal_decompose(H0), [1.0, x]), NonpositiveWeight),
    ], ids=["exp-eps", "ramp-duration", "smooth-width", "s_matrix-eps",
            "s_matrix-horizon", "ramp_experiment-duration", "cubic-g", "cubic-duration",
            "closed_form-g", "closed_form-duration", "closed_form-t", "static-weight"])
    def test_non_finite_scalars_rejected(self, build, error, value):
        # NaN once passed every `x <= 0` guard: the switches built, s_matrix
        # raised an untyped ValueError (LinAlgError for inf), ramp_experiment(inf)
        # an OverflowError, and the cubic model returned NaN coefficients
        with pytest.raises(error):
            build(value)

    @pytest.mark.parametrize("build", [
        lambda h0, h_int: ExponentialSwitch(h0, h_int, 0.5),
        lambda h0, h_int: SmoothSwitch(h0, h_int, 2.0),
        lambda h0, h1: LinearRamp(h0, h1, 2.0),
        lambda h0, h_int: s_matrix(h0, h_int, 0.4),
        lambda h0, h_int: moller_minus(h0, h_int, 0.4),
        lambda h0, h_int: adiabatic_metric(h0, h_int, np.eye(len(h0)), 0.4),
    ], ids=["exponential", "smooth", "ramp", "s_matrix", "moller_minus", "adiabatic_metric"])
    @pytest.mark.parametrize("swap", [False, True], ids=["2x2-3x3", "3x3-2x2"])
    def test_mismatched_generator_shapes_rejected(self, build, swap):
        # a typed precondition error, not numpy's broadcasting ValueError
        pair = (H0, np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch, match="shapes"):
            build(*(pair[::-1] if swap else pair))


class TestSweep:
    def test_runs_in_order(self):
        table = adiabatic_sweep([4.0, 2.0, 1.0], lambda p: p**2)
        assert [p for p, _ in table] == [4.0, 2.0, 1.0]
        assert [v for _, v in table] == [16.0, 4.0, 1.0]

    def test_single_point(self):
        assert adiabatic_sweep([3.0], lambda p: -p) == [(3.0, -3.0)]

    def test_rejects_nonmonotone(self):
        with pytest.raises(ConfigError):
            adiabatic_sweep([1.0, 3.0, 2.0], lambda p: p)
        with pytest.raises(ConfigError):
            adiabatic_sweep([], lambda p: p)

    @pytest.mark.parametrize("params", [[math.nan], [1.0, math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_before_any_run(self, params):
        # [nan] once ran the experiment at NaN; [1.0, inf] passed the monotone check
        runs = []
        with pytest.raises(ConfigError, match="finite"):
            adiabatic_sweep(params, runs.append)
        assert runs == []

    def test_extrapolation_exact_on_linear_data(self):
        params = [0.4, 0.2, 0.1, 0.05]
        values = [7.0 + 3.0 * p for p in params]
        assert abs(extrapolate_to_zero(params, values) - 7.0) < 1e-12

    def test_extrapolation_elementwise(self):
        params = [0.2, 0.1]
        values = [np.array([1.2, -0.4]), np.array([1.1, -0.2])]
        np.testing.assert_allclose(
            extrapolate_to_zero(params, values), [1.0, 0.0], atol=1e-12
        )

    @pytest.mark.parametrize("params", [[math.nan, 1.0], [0.1, math.inf]], ids=["nan", "inf"])
    def test_extrapolation_rejects_non_finite(self, params):
        # [nan, 1.0] once returned nan, and [0.1, inf] the value at 0.1, with no error
        with pytest.raises(ConfigError, match="finite"):
            extrapolate_to_zero(params, [1.0, 2.0])

    def test_extrapolation_needs_two_points(self):
        with pytest.raises(ConfigError):
            extrapolate_to_zero([0.1], [1.0])

    @pytest.mark.parametrize("params", [[0.8, 0.8], [0.4, 0.1, 0.1], [-0.2, 0.5, -0.2]])
    def test_extrapolation_rejects_repeated_smallest_parameter(self, params):
        # a zero-width fit once divided by zero and returned NaN
        with pytest.raises(ConfigError, match="distinct"):
            extrapolate_to_zero(params, [1.0 + p for p in params])

    def test_extrapolation_accepts_opposite_smallest_parameters(self):
        assert abs(extrapolate_to_zero([-0.2, 0.2], [0.8, 1.2]) - 1.0) < 1e-12

    def test_monotone_helper(self):
        assert is_monotone_nonincreasing([3.0, 2.0, 2.0, 1.0])
        assert not is_monotone_nonincreasing([3.0, 2.0, 2.5])
