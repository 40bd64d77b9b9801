"""Pauli-component metric flow, closed forms, and the ramp experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiametric.errors import (
    ConfigError,
    DimensionMismatch,
    NotPseudoHermitian,
    RealSpectrumViolated,
)
from adiametric.metric_flow import (
    SolverConfig,
    adiabatic_transport_prediction,
    evolve_metric,
    flow_rhs,
)
from adiametric.operator_core import _expm_orbit
from adiametric.switching import Constant
from adiametric.two_level import (
    CrossedRampSchedule,
    MetricComponents,
    TwoLevelParams,
    classify_regime,
    component_generator,
    pauli_compose,
    pauli_decompose,
    ramp_experiment,
    static_solution,
)

from helpers import dp5_ramp, hermitian_precession

FIXTURE = TwoLevelParams(v=np.array([0.0, 4.0, 0.0, 0.0]), w=np.array([0.0, 0.0, 0.0, 3.0]))


finite_reals = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


class TestPauliMaps:
    def test_sigma_z_composition(self):
        np.testing.assert_array_equal(
            pauli_compose(TwoLevelParams(v=np.array([0.0, 0, 0, 2.0]), w=np.zeros(4))),
            np.diag([1.0 + 0j, -1.0]),
        )

    def test_imaginary_sigma_z(self):
        np.testing.assert_array_equal(
            pauli_compose(TwoLevelParams(v=np.zeros(4), w=np.array([0.0, 0, 0, 2.0]))),
            np.diag([1j, -1j]),
        )

    @given(st.lists(finite_reals, min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, xs):
        params = TwoLevelParams(v=np.array(xs[:4]), w=np.array(xs[4:]))
        back = pauli_decompose(pauli_compose(params))
        np.testing.assert_allclose(back.v, params.v, atol=1e-14)
        np.testing.assert_allclose(back.w, params.w, atol=1e-14)

    def test_decompose_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            pauli_decompose(np.eye(3))

    def test_metric_components_roundtrip(self):
        comp = MetricComponents(theta0=1.2, vec=np.array([0.1, -0.4, 0.25]))
        back = MetricComponents.from_matrix(comp.matrix())
        assert abs(back.theta0 - comp.theta0) < 1e-14
        np.testing.assert_allclose(back.vec, comp.vec, atol=1e-14)


class TestComponentFlow:
    def test_hermitian_case_reduces_to_precession_field(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = np.concatenate([[rng.normal()], rng.normal(size=3)])
            params = TwoLevelParams(v=v, w=np.zeros(4))
            theta0, vec = rng.normal(), rng.normal(size=3)
            d0, *dvec = component_generator(params) @ np.concatenate(([theta0], vec))
            assert d0 == 0.0
            np.testing.assert_allclose(dvec, np.cross(v[1:], vec), atol=1e-14)

    def test_collinear_is_stationary(self):
        params = TwoLevelParams(v=np.array([0.0, 1, 2, 3.0]), w=np.zeros(4))
        d0, *dvec = component_generator(params) @ np.concatenate(([1.0], 2.5 * params.v[1:]))
        assert d0 == 0.0
        np.testing.assert_allclose(dvec, 0.0, atol=1e-15)

    def test_matches_matrix_flow(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            params = TwoLevelParams(v=rng.normal(size=4), w=rng.normal(size=4))
            comp = MetricComponents(theta0=rng.normal(), vec=rng.normal(size=3))
            d0, *dvec = component_generator(params) @ comp.four_vector()
            component_form = MetricComponents(theta0=d0, vec=dvec).matrix()
            matrix_form = flow_rhs(pauli_compose(params), comp.matrix())
            np.testing.assert_allclose(component_form, matrix_form, atol=1e-12)


class TestStaticSolution:
    def test_hermitian_alpha_zero_is_scalar(self):
        params = TwoLevelParams(v=np.array([0.0, 3, 0, 0.0]), w=np.zeros(4))
        comp = static_solution(params)
        assert comp.theta0 == 1.0
        np.testing.assert_allclose(comp.vec, 0.0, atol=1e-15)

    def test_fixture_closed_form(self):
        comp = static_solution(FIXTURE)
        np.testing.assert_allclose(comp.vec, [0.0, 0.75, 0.0], atol=1e-14)
        assert comp.is_positive  # 1 > 0.75

    def test_flow_vanishes_on_static_family(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = np.concatenate([[rng.normal()], rng.normal(size=3)])
            w_vec = np.cross(v[1:], rng.normal(size=3))
            w_vec /= max(np.linalg.norm(w_vec), 1e-3)
            params = TwoLevelParams(v=v, w=np.concatenate([[0.0], w_vec]))
            comp = static_solution(params, theta0_s=1.4, alpha=rng.normal())
            d0, *dvec = component_generator(params) @ comp.four_vector()
            assert abs(d0) < 1e-14
            np.testing.assert_allclose(dvec, 0.0, atol=1e-14)

    def test_rejects_nonpseudo_hermitian(self):
        with pytest.raises(NotPseudoHermitian):
            static_solution(
                TwoLevelParams(v=np.array([0, 1, 0, 0.0]), w=np.array([0.5, 0, 0, 0.0]))
            )
        with pytest.raises(NotPseudoHermitian):
            static_solution(
                TwoLevelParams(v=np.array([0, 1, 0, 0.0]), w=np.array([0, 1, 0, 0.0]))
            )
        with pytest.raises(NotPseudoHermitian):
            static_solution(TwoLevelParams(v=np.zeros(4), w=np.zeros(4)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        lambda x: MetricComponents(x, [0.0, 0.5, 0.0]),
        lambda x: MetricComponents(2.0, [0.0, x, 0.0]),
        lambda x: static_solution(FIXTURE, theta0_s=x),
        lambda x: static_solution(FIXTURE, alpha=x),
    ], ids=["theta0", "component", "theta0_s", "alpha"])
    def test_non_finite_metric_is_refused(self, build, value):
        # static_solution(theta0_s=nan) once returned an all-NaN metric
        with pytest.raises(DimensionMismatch, match="metric components must be finite"):
            build(value)


class TestRegime:
    def test_oscillatory_fixture(self):
        regime = classify_regime(FIXTURE)
        assert regime.kind == "oscillatory"
        assert abs(regime.value - math.sqrt(7.0)) < 1e-12

    def test_growth_fixture(self):
        params = TwoLevelParams(v=np.array([0, 2, 0, 0.0]), w=np.array([0, 0, 0, 3.0]))
        regime = classify_regime(params)
        assert regime.kind == "exponential_growth"
        assert abs(regime.value - math.sqrt(5.0)) < 1e-12

    def test_hermitian_frequency_is_splitting(self):
        params = TwoLevelParams(v=np.array([0, 1, 2, 2.0]), w=np.zeros(4))
        regime = classify_regime(params)
        assert regime.kind == "oscillatory"
        assert abs(regime.value - 3.0) < 1e-12

    def test_degenerate_boundary(self):
        params = TwoLevelParams(v=np.array([0, 3, 0, 0.0]), w=np.array([0, 0, 0, 3.0]))
        assert classify_regime(params).kind == "degenerate"

    def test_agrees_with_spectrum_reality(self):
        from adiametric.operator_core import spectrum_reality_check

        rng = np.random.default_rng(3)
        for _ in range(30):
            v_vec = rng.normal(size=3) * 2
            w_vec = np.cross(v_vec, rng.normal(size=3))
            params = TwoLevelParams(
                v=np.concatenate([[rng.normal()], v_vec]),
                w=np.concatenate([[0.0], w_vec]),
            )
            regime = classify_regime(params)
            real = spectrum_reality_check(pauli_compose(params))
            if regime.kind == "oscillatory":
                assert real
            elif regime.kind == "exponential_growth":
                assert not real


class TestPrecession:
    def test_collinear_constant(self):
        v = np.array([1.0, 2.0, -1.0])
        np.testing.assert_allclose(
            hermitian_precession(3 * v, v, 17.3), 3 * v, atol=1e-12
        )

    def test_quarter_turn_hand_value(self):
        out = hermitian_precession(np.array([1.0, 0, 0]), np.array([0, 0, 2.0]), math.pi / 2)
        np.testing.assert_allclose(out, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_metric_evolution(self):
        params = TwoLevelParams(v=np.array([0.3, 1.0, -0.5, 2.0]), w=np.zeros(4))
        vec0 = np.array([0.4, 0.0, -1.2])
        theta0 = MetricComponents(theta0=2.0, vec=vec0).matrix()
        t = 2.7
        traj = evolve_metric(
            Constant(pauli_compose(params)), theta0, 0.0, t,
            SolverConfig(rtol=1e-11, atol=1e-13),
        )
        expected = MetricComponents(
            theta0=2.0, vec=hermitian_precession(vec0, params.v[1:], t)
        ).matrix()
        np.testing.assert_allclose(traj.final, expected, atol=1e-8)

    def test_conserved_quantities_along_flow(self):
        params = TwoLevelParams(v=np.array([0.0, 1.0, 2.0, 0.5]), w=np.zeros(4))
        vec0 = np.array([1.0, -0.3, 0.8])
        theta0 = MetricComponents(theta0=2.0, vec=vec0).matrix()
        traj = evolve_metric(
            Constant(pauli_compose(params)), theta0, 0.0, 10.0,
            SolverConfig(rtol=1e-11, atol=1e-13, samples=101),
        )
        for m in traj.metrics:
            comp = MetricComponents.from_matrix(m)
            assert abs(np.linalg.norm(comp.vec) - np.linalg.norm(vec0)) < 1e-10
            assert abs(comp.vec @ params.v[1:] - vec0 @ params.v[1:]) < 1e-10


class TestOscillationPeriod:
    def test_period_by_zero_crossings(self):
        # perturb the static metric; the off-diagonal eigenbasis coefficient
        # oscillates with period 2 pi / sqrt(v^2 - w^2)
        from adiametric.metric_flow import (
            eigenbasis_coefficients,
            metric_from_eigenbasis,
        )
        from adiametric.operator_core import biorthogonal_decompose

        h = pauli_compose(FIXTURE)
        sys = biorthogonal_decompose(h)
        # build the perturbation from an off-diagonal coefficient so the
        # oscillating mode is actually excited
        bump = metric_from_eigenbasis(sys, np.array([[0.0, 0.05], [0.05, 0.0]]))
        theta0 = static_solution(FIXTURE).matrix() + bump
        traj = evolve_metric(
            Constant(h), theta0, 0.0, 30.0,
            SolverConfig(rtol=1e-11, atol=1e-13, samples=6001),
        )
        signal = np.array(
            [
                (eigenbasis_coefficients(sys, m)[0, 1]).real
                for m in traj.metrics
            ]
        )
        signal -= signal.mean()
        crossings = []
        for k in range(len(signal) - 1):
            if signal[k] <= 0.0 < signal[k + 1]:
                a, b = signal[k], signal[k + 1]
                crossings.append(traj.times[k] - a * (traj.times[k + 1] - traj.times[k]) / (b - a))
        periods = np.diff(crossings)
        expected = 2.0 * math.pi / math.sqrt(7.0)
        assert abs(np.mean(periods) - expected) / expected < 1e-3


class TestRampExperiment:
    def test_literal_amplitude_violates_reality(self):
        with pytest.raises(RealSpectrumViolated):
            ramp_experiment(10.0, amplitude=2.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_nonpositive_duration_is_config_error(self, duration):
        # checked before the spectrum: an amplitude that also breaks
        # reality does not change the error
        for amplitude in (5.0, 2.0):
            with pytest.raises(ConfigError, match="ramp duration must be finite and positive"):
                ramp_experiment(duration, amplitude=amplitude)

    def test_slow_ramp_nearly_static(self):
        res = ramp_experiment(100.0)
        assert res.deviation < 0.05

    def test_fast_ramp_oscillates(self):
        res = ramp_experiment(1.0)
        assert res.deviation > 0.3

    def test_deviation_monotone_on_ladder(self):
        devs = [ramp_experiment(T).deviation for T in (1.0, 10.0, 100.0)]
        assert devs[0] > devs[1] > devs[2]

    def test_selected_static_is_static(self):
        res = ramp_experiment(30.0)
        sched = CrossedRampSchedule(30.0)
        d0, *dvec = component_generator(sched.params_at(30.0)) @ res.selected_static.four_vector()
        bound = 1e-12 * np.linalg.norm(res.selected_static.four_vector())
        assert abs(d0) <= bound
        assert np.linalg.norm(dvec) <= bound

    def test_arrival_matches_transport_prediction(self):
        # quantitative adiabatic theorem: slow-ramp arrival equals the
        # parallel-transported static metric
        res = ramp_experiment(100.0)
        sched = CrossedRampSchedule(100.0)
        path = [sched.at(s * 100.0) for s in np.linspace(0.0, 1.0, 400)]
        predicted = adiabatic_transport_prediction(
            path, res.initial_static.matrix()
        )
        arrived = res.selected_static.matrix()
        rel = np.linalg.norm(arrived - predicted) / np.linalg.norm(predicted)
        # 1.15e-6: the ramp's own distance from the adiabatic limit; the
        # second-order predictor is exact to rounding on this path
        assert rel < 3.5e-6

    def test_schedule_is_the_ramp_of_its_params(self):
        # the LinearRamp between the generators at s = 0 and s = 1 is the
        # generator of the interpolated Pauli parameters, up to rounding
        sched = CrossedRampSchedule(4.0, amplitude=4.5, w3=2.0, v0=0.3)
        for t in (-1.0, 0.0, 0.7, 2.0, 4.0, 6.0):
            want = pauli_compose(sched.params_at(t))
            np.testing.assert_allclose(sched.at(t), want, rtol=0.0, atol=1e-15 * np.abs(want).max())
        assert sched.breakpoints() == (0.0, 4.0)

    def test_matrix_level_schedule_agrees(self):
        sched = CrossedRampSchedule(duration=3.0)
        res = ramp_experiment(3.0, config=SolverConfig(rtol=1e-11, atol=1e-13))
        theta0 = res.initial_static.matrix()
        traj = evolve_metric(
            sched, theta0, 0.0, 3.0, SolverConfig(rtol=1e-11, atol=1e-13)
        )
        # compare at the ramp end
        end_comp = MetricComponents.from_matrix(traj.final).four_vector()
        idx = np.argmin(np.abs(res.times - 3.0))
        np.testing.assert_allclose(res.components[idx], end_comp, atol=1e-8)


ramp_parameters = st.tuples(
    st.floats(min_value=0.5, max_value=4.0),  # w3
    st.floats(min_value=1.05, max_value=2.0),  # amplitude / (sqrt(2) w3)
).map(lambda p: (p[0] * p[1] * math.sqrt(2.0), p[0]))


class TestRampAgainstDP5:
    """The CF4 ramp and its exact tail against the DP5 oracle at rtol 1e-13."""

    @given(st.floats(min_value=0.5, max_value=60.0), ramp_parameters)
    @settings(max_examples=10, deadline=None)
    def test_every_sample_matches_oracle(self, duration, params):
        amplitude, w3 = params  # v^2 - w^2 >= 0.1 w3^2 along the ramp
        res = ramp_experiment(duration, amplitude=amplitude, w3=w3)
        ref = dp5_ramp(res.times, res.initial_static.four_vector(), duration, amplitude, w3)
        err = np.linalg.norm(res.components - ref, axis=1)
        assert np.all(err <= 1e-8 * np.linalg.norm(ref, axis=1))

    def test_solver_counts(self):
        stats = ramp_experiment(10.0).solver_stats
        again = ramp_experiment(10.0).solver_stats
        assert stats == again
        assert stats["steps"] % 201 == 0  # default samples: 201 ramp points
        assert stats["exponentials"] > 2 * stats["steps"]
        assert 0.0 < stats["error_estimate"] < 1e-8


def _post_ramp(res, duration, amplitude, w3, v0=0.0):
    """Final generator, its frequency and the end state of the ramp."""
    m1 = component_generator(CrossedRampSchedule(duration, amplitude, w3, v0).params_at(duration))
    return m1, math.sqrt(amplitude**2 - w3**2), res.components[res.times == duration][0]


class TestRampClosedForms:
    """The exact static part and deviation against independent oracles."""

    @given(st.floats(min_value=0.5, max_value=4.0), st.floats(min_value=0.0, max_value=0.95),
           st.floats(min_value=-3.0, max_value=3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_generator_cube_identity(self, speed, ratio, v0, seed):
        rng = np.random.default_rng(seed)
        axes = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        vv, wv = speed * axes[:, 0], ratio * speed * axes[:, 1]  # v.w = 0, v^2 > w^2
        m = component_generator(TwoLevelParams(np.array([v0, *vv]), np.array([0.0, *wv])))
        omega2 = vv @ vv - wv @ wv
        np.testing.assert_allclose(m @ m @ m, -omega2 * m, rtol=0.0, atol=1e-14 * speed**3)

    @given(st.floats(min_value=0.5, max_value=200.0), st.floats(min_value=-4.0, max_value=4.0),
           st.floats(min_value=0.5, max_value=10.0), st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_post_ramp_samples_are_the_exact_orbit(self, duration, w3, margin, v0):
        amplitude = math.sqrt(2.0 * (w3**2 + margin))  # a^2/2 - w3^2 = margin along the ramp
        res = ramp_experiment(duration, amplitude=amplitude, w3=w3, v0=v0)
        m1, _, y_end = _post_ramp(res, duration, amplitude, w3, v0)
        after = res.times >= duration
        orbit = _expm_orbit(m1, res.times[after] - duration, y_end)
        scale = np.max(np.abs(res.components))
        assert np.max(np.abs(res.components[after] - orbit)) <= 1e-13 * scale

    @given(st.floats(min_value=0.5, max_value=100.0), ramp_parameters)
    @settings(max_examples=10, deadline=None)
    def test_selected_static_is_one_period_average(self, duration, params):
        amplitude, w3 = params
        res = ramp_experiment(duration, amplitude=amplitude, w3=w3)
        m1, omega, y_end = _post_ramp(res, duration, amplitude, w3)
        ref = res.selected_static.four_vector()
        ref_norm = np.linalg.norm(ref)
        assert np.linalg.norm(m1 @ ref) <= 1e-13 * np.linalg.norm(m1) * ref_norm
        # the trapezoid rule over one full period is exact for cos and sin
        t = np.linspace(0.0, 2.0 * math.pi / omega, 64)
        average = np.trapezoid(_expm_orbit(m1, t, y_end), t, axis=0) / t[-1]
        assert np.linalg.norm(average - ref) <= 1e-12 * ref_norm

    @given(st.floats(min_value=0.5, max_value=100.0), ramp_parameters)
    @settings(max_examples=10, deadline=None)
    def test_deviation_is_sampled_supremum(self, duration, params):
        amplitude, w3 = params
        res = ramp_experiment(duration, amplitude=amplitude, w3=w3)
        m1, omega, y_end = _post_ramp(res, duration, amplitude, w3)
        ref = res.selected_static.four_vector()
        t = np.linspace(0.0, 2.0 * math.pi / omega, 20001)
        sampled = np.max(np.linalg.norm(_expm_orbit(m1, t, y_end) - ref, axis=1))
        assert abs(sampled / np.linalg.norm(ref) - res.deviation) <= 1e-7 * res.deviation
