"""Schedule shapes, sweeps, and extrapolation."""

import math

import numpy as np
import pytest

from adiametric.errors import ConfigError
from adiametric.switching import (
    Constant,
    ExponentialSwitch,
    LinearRamp,
    SmoothSwitch,
    adiabatic_sweep,
    extrapolate_to_zero,
    is_monotone_nonincreasing,
)

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

    def test_extrapolation_needs_two_points(self):
        with pytest.raises(ConfigError):
            extrapolate_to_zero([0.1], [1.0])

    def test_monotone_helper(self):
        assert is_monotone_nonincreasing([3.0, 2.0, 2.0, 1.0])
        assert not is_monotone_nonincreasing([3.0, 2.0, 2.5])
