"""Metric-flow solvers, static metrics, eigenbasis laws, observables."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiametric import _integrate, metric_flow
from adiametric.errors import (
    ComplexSpectrum,
    ConfigError,
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitianInput,
    NonpositiveWeight,
    NotPositive,
    SingularMetric,
    SolverError,
)
from adiametric.metric_flow import (
    _REP_BLOCK,
    MetricTrajectory,
    SolverConfig,
    _hermitian_flow_rhs,
    adiabatic_transport_prediction,
    eigenbasis_coefficients,
    evolve_metric,
    evolve_metric_via_propagator,
    flow_rhs,
    hermitian_representation,
    metric_from_eigenbasis,
    observable_hamiltonian,
    quasi_hermiticity_residual,
    static_metric,
    transition_probability,
)
from adiametric.operator_core import (
    PATH_CHUNK,
    biorthogonal_decompose,
    hermitian_sqrt,
    hermiticity_defect,
    propagator,
)
from adiametric.switching import Constant, ExponentialSwitch, LinearRamp, SmoothSwitch
from adiametric.two_level import CrossedRampSchedule

from helpers import (
    I2,
    SY,
    SZ,
    cholesky_gauge,
    dp5_propagator,
    eigenbasis_evolution,
    entrywise_sum,
    evolve_metric_oracle,
    finite_difference_residuals,
    hermitian_representation_oracle,
    metric_correction_residuals,
    midpoint_metric_via_propagator,
    normal_ordered_exp,
    picard_iterate,
    random_bounded_nonhermitian,
    random_hermitian,
    random_quasi_hermitian,
    root_representation,
    transition_probability_oracle,
    two_level_matrix,
)

# the standing two-level fixture: v = (4,0,0), w = (0,0,3); real spectrum,
# static metric I + 0.75 sigma_y
H_TL = two_level_matrix([0, 4, 0, 0], [0, 0, 0, 3])
THETA_TL = I2 + 0.75 * SY


def random_flow(seed, dim, exp_shape):
    """A seeded quasi-Hermitian schedule, its span and a Hermitian start metric.

    H_a moves to H_b by a ``LinearRamp`` over [0, 1] or an
    ``ExponentialSwitch`` of rate 2 over [-1, 0]; the start is the static
    metric S^2 of H_a.
    """
    rng = np.random.default_rng(seed)
    (ha, sa), (hb, _) = (random_quasi_hermitian(rng, dim, 2.0) for _ in range(2))
    if exp_shape:
        schedule, t0, t1 = ExponentialSwitch(ha, hb - ha, 2.0), -1.0, 0.0
    else:
        schedule, t0, t1 = LinearRamp(ha, hb, 1.0), 0.0, 1.0
    theta0 = sa @ sa
    return schedule, 0.5 * (theta0 + theta0.conj().T), t0, t1


def exact_constant_flow(h, theta0, t):
    """Independent oracle: exp(-i H^dag t) Theta0 exp(i H t) via scipy."""
    left = scipy.linalg.expm(-1j * h.conj().T * t)
    right = scipy.linalg.expm(1j * h * t)
    return left @ theta0 @ right


class TestResidualAndRhs:
    def test_hermitian_identity_residual_zero(self):
        h = random_hermitian(np.random.default_rng(0), 3)
        assert quasi_hermiticity_residual(h, np.eye(3)) < 1e-15

    def test_two_level_static_residual(self):
        assert quasi_hermiticity_residual(H_TL, THETA_TL) < 1e-12

    def test_identity_metric_residual_value(self):
        # H - H^dag = 3i sigma_z: Frobenius norm 3 sqrt(2)
        expected = 3.0 * math.sqrt(2.0)
        assert abs(quasi_hermiticity_residual(H_TL, I2) - expected) < 1e-12

    def test_rhs_zero_for_hermitian(self):
        h = random_hermitian(np.random.default_rng(1), 4)
        assert np.linalg.norm(flow_rhs(h, np.eye(4))) < 1e-15

    def test_rhs_zero_on_static(self):
        assert np.linalg.norm(flow_rhs(H_TL, THETA_TL)) < 1e-12

    def test_rhs_preserves_hermiticity(self):
        rng = np.random.default_rng(2)
        h = random_bounded_nonhermitian(rng, 4)
        theta = random_hermitian(rng, 4) + 2 * np.eye(4)
        assert hermiticity_defect(flow_rhs(h, theta)) < 1e-14


class TestStaticMetric:
    def test_hermitian_unit_weights_give_identity(self):
        h = random_hermitian(np.random.default_rng(3), 4)
        sys = biorthogonal_decompose(h)
        np.testing.assert_allclose(
            static_metric(sys, np.ones(4)), np.eye(4), atol=1e-12
        )

    def test_two_level_closed_form_reached(self):
        sys = biorthogonal_decompose(H_TL)
        # weights that reproduce the closed form are its own diagonal
        # coefficients; static metrics are diagonal in this basis
        coeffs = eigenbasis_coefficients(sys, THETA_TL)
        off = coeffs - np.diag(np.diag(coeffs))
        assert np.max(np.abs(off)) < 1e-12
        weights = np.diag(coeffs).real
        rebuilt = static_metric(sys, weights)
        np.testing.assert_allclose(rebuilt, THETA_TL, atol=1e-12)

    def test_random_fixture_residuals(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            h, _ = random_quasi_hermitian(rng, 5)
            sys = biorthogonal_decompose(h)
            theta = static_metric(sys, rng.uniform(0.5, 2.0, size=5))
            assert quasi_hermiticity_residual(h, theta) < 1e-10
            assert np.linalg.eigvalsh(theta)[0] > 0

    def test_complex_spectrum_rejected(self):
        h = two_level_matrix([0, 2, 0, 0], [0, 0, 0, 3])
        sys = biorthogonal_decompose(h)
        with pytest.raises(ComplexSpectrum):
            static_metric(sys, np.ones(2))

    def test_nonpositive_weight_rejected(self):
        sys = biorthogonal_decompose(H_TL)
        with pytest.raises(NonpositiveWeight):
            static_metric(sys, np.array([1.0, 0.0]))


class TestEvolveMetric:
    def test_hermitian_constant_identity_fixed(self):
        h = random_hermitian(np.random.default_rng(5), 3)
        traj = evolve_metric(Constant(h), np.eye(3), 0.0, 5.0)
        assert np.max(np.abs(traj.metrics - np.eye(3))) < 1e-9

    def test_matches_exact_constant_solution(self):
        rng = np.random.default_rng(6)
        h = random_bounded_nonhermitian(rng, 3, 0.5, 0.5)
        theta0 = random_hermitian(rng, 3) + 2 * np.eye(3)
        traj = evolve_metric(
            Constant(h), theta0, 0.0, 2.0, SolverConfig(rtol=1e-11, atol=1e-13)
        )
        np.testing.assert_allclose(
            traj.final, exact_constant_flow(h, theta0, 2.0), atol=1e-8
        )

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(7)
        h = random_bounded_nonhermitian(rng, 4)
        theta0 = random_hermitian(rng, 4) + 2 * np.eye(4)
        traj = evolve_metric(Constant(h), theta0, 0.0, 10.0)
        assert np.all(traj.hermiticity_defects() == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), exp_shape=st.booleans())
    def test_exactly_hermitian_fsal_and_matches_symmetrizing_oracle(self, seed, dim, exp_shape):
        schedule, theta0, t0, t1 = random_flow(seed, dim, exp_shape)
        cfg = SolverConfig(samples=11)
        traj = evolve_metric(schedule, theta0, t0, t1, cfg)
        assert np.all(traj.hermiticity_defects() == 0.0)
        # 12 rhs calls per accepted step (the last first-same-as-last), 11 per
        # rejected one, the first stage, and 3 per step that interpolates
        stats = traj.stats
        assert 0 <= stats["ndense"] <= stats["naccept"]
        assert stats["nfev"] == (
            12 * stats["naccept"] + 11 * stats["nreject"] + 1 + 3 * stats["ndense"]
        )
        h = np.asarray(schedule.at(t1), dtype=complex)
        for theta in traj.metrics:
            err = np.linalg.norm(_hermitian_flow_rhs(h, theta) - flow_rhs(h, theta))
            assert err <= 1e-14 * np.linalg.norm(h) * np.linalg.norm(theta)
        # a tight DP5 run on the general rhs is the reference: each sample
        # lies within the configured tolerance of it
        tight = SolverConfig(rtol=1e-13, atol=1e-16, samples=cfg.samples)
        want, _ = evolve_metric_oracle(schedule, theta0, t0, t1, tight)
        err = np.linalg.norm(traj.metrics - want, axis=(1, 2))
        bound = cfg.rtol * np.linalg.norm(want, axis=(1, 2)) + dim * cfg.atol
        assert np.all(err <= bound)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.one_of(st.integers(1, 9), st.sampled_from([32, 64])),
        hs=st.floats(-0.5, 0.5).filter(lambda h: abs(h) > 1e-3),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    @example(seed=0, dim=32, hs=0.1, fractions=[0.5])
    @example(seed=1, dim=64, hs=-0.1, fractions=[0.25, 0.75])
    def test_stage_sums_match_entrywise_oracle(self, seed, dim, hs, fractions):
        # each combination solve_ode forms by one BLAS product (the stage
        # arguments, the new state, a step's samples) against the entry-by-entry
        # sum: both are n-term sums, so they differ by at most 2 gamma_n
        # sum_j |c_j| |r_j| per real entry, gamma_n = n u / (1 - n u)
        rng = np.random.default_rng(seed)
        rows = np.array([random_hermitian(rng, dim) for _ in range(18)])
        real = np.abs(rows.reshape(18, -1).view(float))
        coeffs = hs * _integrate._Y_A
        coeffs[:, 0] = 1.0
        stages = [coeffs[s, : s + 1] for s in range(1, 16)]  # row 12: the new state
        weights = _integrate._interpolant_weights(np.array(fractions), hs)
        combos = [(c, _integrate._combine(c, rows)) for c in stages]
        combos += zip(weights, _integrate._combine(weights, rows))
        for c, got in combos:
            n, u = len(c), np.finfo(float).eps / 2
            bound = 2 * n * u / (1 - n * u) * (np.abs(c) @ real[:n])
            diff = (got - entrywise_sum(c, rows)).reshape(-1).view(float)
            assert np.all(np.abs(diff) <= bound)
        # and the metric flow's samples are exactly Hermitian at this size
        schedule, theta0, t0, t1 = random_flow(seed, dim, hs > 0)
        traj = evolve_metric(schedule, theta0, t0, t1, SolverConfig(samples=11))
        assert np.all(traj.hermiticity_defects() == 0.0)

    def test_samples_exactly_hermitian_however_the_solver_rounds(self, monkeypatch):
        # a BLAS may round an entry and its conjugate partner differently; the
        # metric flow, not the solver, makes its samples exactly Hermitian
        rng = np.random.default_rng(11)
        solve = metric_flow.solve_ode

        def skewed(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.states = [m + 1e-15 * rng.standard_normal(m.shape) for m in sol.states]
            return sol

        monkeypatch.setattr(metric_flow, "solve_ode", skewed)
        schedule, theta0, t0, t1 = random_flow(3, 5, True)
        traj = evolve_metric(schedule, theta0, t0, t1, SolverConfig(samples=7))
        assert np.all(traj.hermiticity_defects() == 0.0)

    @pytest.mark.parametrize("exp_shape", [False, True], ids=["ramp", "exp"])
    def test_flow_dense_step_counts_are_pinned(self, exp_shape):
        # the flow-dense benchmark's schedules at d = 32, norm scaled by sqrt(d);
        # any change to the stage sums, the error norm or the step control
        # that moves a step shows here
        rng = np.random.default_rng(0)
        dim = 32
        ha, hb, hc, hd = (random_quasi_hermitian(rng, dim, math.sqrt(dim))[0] for _ in range(4))
        if exp_shape:
            schedule, t0, t1 = ExponentialSwitch(hc, hd - hc, 2.0), -1.0, 0.0
        else:
            schedule, t0, t1 = LinearRamp(ha, hb, 1.0), 0.0, 1.0
        traj = evolve_metric(schedule, np.eye(dim), t0, t1, SolverConfig(rtol=1e-9, samples=51))
        counts = {key: traj.stats[key] for key in ("nfev", "naccept", "nreject", "ndense")}
        assert counts == {"nfev": 181, "naccept": 12, "nreject": 0, "ndense": 12}

    @pytest.mark.parametrize("samples", [1, 0, 2.5])
    def test_fewer_than_two_samples_rejected(self, samples):
        # uniform samples over [t0, t1] include both ends and are whole in number
        with pytest.raises(ConfigError):
            SolverConfig(samples=samples)

    def test_numpy_integer_samples_accepted(self):
        assert SolverConfig(samples=np.int64(3)).samples == 3

    @pytest.mark.parametrize("tols", [{"rtol": -1e-9}, {"rtol": 0.0, "atol": 0.0},
                                      {"atol": math.inf}, {"rtol": math.nan}])
    def test_nonpositive_or_nonfinite_tolerances_rejected(self, tols):
        # a negative rtol once returned a trajectory, and rtol = atol = 0
        # divided by zero in the error norm
        with pytest.raises(ConfigError):
            SolverConfig(**tols)

    def test_hermiticity_defects_match_per_sample_norms(self):
        rng = np.random.default_rng(10)
        metrics = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
        traj = MetricTrajectory(times=np.arange(7.0), metrics=metrics, solver="test")
        want = [hermiticity_defect(m) for m in metrics]
        np.testing.assert_array_equal(traj.hermiticity_defects(), want)

    def test_rejects_nonhermitian_start(self):
        with pytest.raises(NonHermitianInput):
            evolve_metric(Constant(SZ), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 1.0)

    @pytest.mark.parametrize("solver", [evolve_metric, evolve_metric_via_propagator])
    def test_rejects_metric_of_another_shape(self, solver):
        # once an untyped numpy matmul ValueError
        with pytest.raises(DimensionMismatch, match=r"shapes \(2, 2\) and \(3, 3\)"):
            solver(Constant(2.0 * SZ), np.eye(3), 0.0, 1.0)

    def test_empty_window_is_config_error(self):
        # once a SolverError about a t_eval the caller never passed
        with pytest.raises(ConfigError, match=r"evolution window \[1.5, 1.5\] is empty"):
            evolve_metric(Constant(2.0 * SZ), np.eye(2), 1.5, 1.5)

    def test_perturbed_static_stays_close(self):
        # stability of static solutions: O(delta) excursion for all t
        rng = np.random.default_rng(8)
        delta = 1e-3 * random_hermitian(rng, 2)
        traj = evolve_metric(
            Constant(H_TL), THETA_TL + delta, 0.0, 100.0,
            SolverConfig(rtol=1e-10, atol=1e-13, samples=2001),
        )
        excursion = max(
            np.linalg.norm(m - THETA_TL) for m in traj.metrics
        )
        assert excursion <= 10.0 * 1e-3

    def test_complex_spectrum_growth_rate(self):
        # v^2 < w^2: metric grows at twice the top imaginary eigenvalue
        h = two_level_matrix([0, 2, 0, 0], [0, 0, 0, 3])
        rate = 2.0 * np.max(np.linalg.eigvals(h).imag)
        traj = evolve_metric(
            Constant(h), np.eye(2), 0.0, 10.0,
            SolverConfig(rtol=1e-10, atol=1e-13, samples=201),
        )
        mask = traj.times >= 5.0
        slope = np.polyfit(
            traj.times[mask],
            [math.log(np.linalg.norm(m)) for m in traj.metrics[mask]],
            1,
        )[0]
        assert abs(slope - rate) / rate < 0.05

    def test_conservation_under_schedule(self):
        # d/dt <psi|Theta phi> = 0 sampled through the propagator identity
        rng = np.random.default_rng(9)
        h = random_bounded_nonhermitian(rng, 3, 0.6, 0.4)
        theta0 = random_hermitian(rng, 3) + 2 * np.eye(3)
        t1 = 4.0
        traj = evolve_metric(
            Constant(h), theta0, 0.0, t1, SolverConfig(rtol=1e-11, atol=1e-13)
        )
        u = scipy.linalg.expm(-1j * h * t1)
        np.testing.assert_allclose(
            u.conj().T @ traj.final @ u, theta0, atol=1e-7
        )


class TestPropagatorConjugationSolver:
    def test_identity_preserved_hermitian(self):
        h = random_hermitian(np.random.default_rng(10), 3)
        traj = evolve_metric_via_propagator(Constant(h), np.eye(3), 0.0, 3.0, 500)
        assert np.max(np.abs(traj.metrics - np.eye(3))) < 1e-10

    def test_unitary_conjugation_conserves_spectrum(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 3)
        theta0 = random_hermitian(rng, 3) + 2 * np.eye(3)
        traj = evolve_metric_via_propagator(Constant(h), theta0, 0.0, 3.0, 400)
        ev0 = np.linalg.eigvalsh(theta0)
        for m in traj.metrics:
            np.testing.assert_allclose(np.linalg.eigvalsh(m), ev0, atol=1e-10)

    @pytest.mark.parametrize("nsteps", [0, -3, 2.5])
    def test_steps_not_a_positive_integer_is_config_error(self, nsteps):
        # 0 once returned Theta_0 at t0 as the final metric, -3 raised numpy's
        # ValueError and 2.5 a TypeError
        with pytest.raises(ConfigError, match="propagator steps must be"):
            evolve_metric_via_propagator(Constant(2.0 * SZ), np.eye(2), 0.0, 1.0, nsteps)

    def test_numpy_integer_steps_pass(self):
        traj = evolve_metric_via_propagator(Constant(2.0 * SZ), np.eye(2), 0.0, 1.0, np.int64(4))
        assert traj.times[-1] == 1.0 and traj.stats == {"nsteps": 4}

    def test_empty_window_is_config_error(self):
        # once a one-sample trajectory
        with pytest.raises(ConfigError, match=r"evolution window \[1.5, 1.5\] is empty"):
            evolve_metric_via_propagator(Constant(2.0 * SZ), np.eye(2), 1.5, 1.5)

    @pytest.mark.parametrize("shape, t0, t1, kink", [
        ("exp", -0.7, 1.3, 0.0), ("ramp", -0.3, 1.4, 0.0), ("ramp", 1.4, -0.3, 1.0)])
    def test_breakpoint_inside_the_window_is_config_error(self, shape, t0, t1, kink):
        # fixed CF4 steps across the kink of the factor once fell to orders
        # 1.5-2.5 (exp switch on [-0.7, 1.3], 16-128 steps, against DOP853)
        rng = np.random.default_rng(5)
        (ha, _), (hb, _) = (random_quasi_hermitian(rng, 4, 2.0) for _ in range(2))
        if shape == "exp":
            schedule = ExponentialSwitch(ha, hb - ha, 2.0)
        else:
            schedule = LinearRamp(ha, hb, 1.0)
        with pytest.raises(ConfigError, match=f"schedule breakpoint {kink} inside"):
            evolve_metric_via_propagator(schedule, np.eye(4), t0, t1, 64)

    @pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                        (-math.inf, 0.0)])
    def test_non_finite_window_is_solver_error(self, t0, t1):
        # once NaN metrics with no error
        with pytest.raises(SolverError, match="non-finite evolution window"):
            evolve_metric_via_propagator(Constant(2.0 * SZ), np.eye(2), t0, t1, 8)

    def test_agrees_with_rk_on_ramp_schedule(self):
        from adiametric.two_level import CrossedRampSchedule, static_solution

        sched = CrossedRampSchedule(duration=5.0)
        theta0 = static_solution(sched.params_at(0.0)).matrix()
        rk = evolve_metric(
            sched, theta0, 0.0, 5.0, SolverConfig(rtol=1e-11, atol=1e-13)
        )
        pc = evolve_metric_via_propagator(sched, theta0, 0.0, 5.0, 4000)
        np.testing.assert_allclose(pc.final, rk.final, atol=1e-6)


class TestConjugationOnCF4:
    """The CF4 rebuild of :func:`evolve_metric_via_propagator` against DOP853
    and against the exponential-midpoint stepper it replaced; every bound was
    fixed before the first run."""

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("shape", ["ramp", "exp"])
    def test_matches_dop853_at_64_steps(self, shape, backward):
        schedule, theta0, t0, t1 = random_flow(3, 8, shape == "exp")
        if backward:
            t0, t1 = t1, t0
        want = evolve_metric(schedule, theta0, t0, t1,
                             SolverConfig(rtol=1e-13, atol=1e-15, samples=2)).final
        got = evolve_metric_via_propagator(schedule, theta0, t0, t1, 64).final
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", ["ramp", "exp"])
    def test_fourth_order(self, shape):
        # successive differences shrink by 2^p per halving of the step
        schedule, theta0, t0, t1 = random_flow(4, 8, shape == "exp")
        finals = [evolve_metric_via_propagator(schedule, theta0, t0, t1, n).final
                  for n in (16, 32, 64)]
        order = math.log2(np.linalg.norm(finals[0] - finals[1])
                          / np.linalg.norm(finals[1] - finals[2]))
        assert order >= 3.8

    @pytest.mark.parametrize("shape", ["ramp", "exp"])
    def test_within_midpoint_stepper_error_estimate(self, shape):
        # the midpoint stepper is second order, so ||Theta_2n - Theta_n|| / 3
        # estimates the error of Theta_2n; 1.5 allows for its own h^2 error
        schedule, theta0, t0, t1 = random_flow(5, 8, shape == "exp")
        coarse, fine = (midpoint_metric_via_propagator(schedule, theta0, t0, t1, n).final
                        for n in (200, 400))
        got = evolve_metric_via_propagator(schedule, theta0, t0, t1, 64).final
        assert np.linalg.norm(got - fine) <= 1.5 * np.linalg.norm(fine - coarse) / 3.0

    @pytest.mark.parametrize("nsteps", [1, 3, 7, 64, 200])
    def test_exact_on_constant_schedule(self, nsteps):
        rng = np.random.default_rng(12)
        h = random_bounded_nonhermitian(rng, 3, 0.6, 0.4)
        theta0 = random_hermitian(rng, 3) + 2.0 * np.eye(3)
        traj = evolve_metric_via_propagator(Constant(h), theta0, 0.0, 3.0, nsteps)
        for t, got in zip(traj.times, traj.metrics):
            v = scipy.linalg.expm(-1j * h.conj().T * t)
            want = v @ theta0 @ v.conj().T
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("nsteps", [200, 400, 2000])
    def test_samples_on_the_201_point_grid(self, nsteps):
        traj = evolve_metric_via_propagator(Constant(2.0 * SZ), np.eye(2), -0.3, 1.7, nsteps)
        np.testing.assert_array_equal(traj.times, np.linspace(-0.3, 1.7, 201))
        assert traj.metrics.shape == (201, 2, 2)

    @pytest.mark.parametrize("nsteps, samples", [(1, 1), (64, 8), (250, 50), (4000, 200)])
    def test_samples_divide_the_steps(self, nsteps, samples):
        traj = evolve_metric_via_propagator(Constant(2.0 * SZ), np.eye(2), 0.0, 1.0, nsteps)
        np.testing.assert_array_equal(traj.times, np.linspace(0.0, 1.0, samples + 1))
        np.testing.assert_array_equal(traj.metrics[0], np.eye(2))

    @pytest.mark.parametrize("nsteps", [500, 2000])
    def test_peak_memory_below_midpoint_stepper(self, nsteps):
        schedule, theta0, t0, t1 = random_flow(2, 32, True)
        peaks = []
        for solver in (evolve_metric_via_propagator, midpoint_metric_via_propagator):
            tracemalloc.start()
            try:
                solver(schedule, theta0, t0, t1, nsteps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


class TestMetricWindow:
    """One window check, ``operator_core._require_window``, for the three
    metric entry points, before any work."""

    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0),
                                        (-math.inf, 0.0)])
    def test_evolve_metric_non_finite_window(self, t0, t1):
        # [0, inf] once built np.linspace(0, inf, 201): a RuntimeWarning, or a
        # SolverError about a t_eval the caller never passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"non-finite evolution window \["):
                evolve_metric(Constant(2.0 * SZ), np.eye(2), t0, t1)

    def test_transition_names_the_window_as_given(self):
        # once "non-finite CF4 window [0.0, inf]": reversed, naming the integrator
        with pytest.raises(SolverError, match=r"non-finite transition window \[inf, 0.0\]"):
            transition_probability(np.ones(2), np.ones(2), Constant(H_TL), math.inf, 0.0,
                                   THETA_TL)

    def test_window_checked_before_the_states(self):
        # an empty window is reported even when the states do not fit
        with pytest.raises(ConfigError, match=r"transition window \[1.0, 1.0\] is empty"):
            transition_probability(np.ones(3), np.ones(2), Constant(H_TL), 1.0, 1.0, THETA_TL)


class TestSeriesSolvers:
    def test_picard_hermitian_identity(self):
        h = random_hermitian(np.random.default_rng(12), 3)
        np.testing.assert_allclose(
            picard_iterate(h, np.eye(3), 2.0, 6), np.eye(3), atol=1e-13
        )

    def test_picard_first_order_term(self):
        rng = np.random.default_rng(13)
        h = random_bounded_nonhermitian(rng, 3)
        theta0 = random_hermitian(rng, 3) + 2 * np.eye(3)
        t = 0.3
        expected = theta0 + 1j * (theta0 @ h - h.conj().T @ theta0) * t
        np.testing.assert_allclose(
            picard_iterate(h, theta0, t, 1), expected, atol=1e-14
        )

    def test_normal_ordered_displayed_expansion(self):
        rng = np.random.default_rng(14)
        h = random_bounded_nonhermitian(rng, 3)
        hd = h.conj().T
        t = 0.4
        expected = (
            np.eye(3)
            + 1j * (h - hd) * t
            - (h @ h - 2 * hd @ h + hd @ hd) * t**2 / 2.0
        )
        np.testing.assert_allclose(
            normal_ordered_exp(h, t, 2), expected, atol=1e-14
        )

    def test_normal_ordered_hermitian_is_identity(self):
        h = random_hermitian(np.random.default_rng(15), 4)
        for n in (0, 3, 9):
            np.testing.assert_allclose(
                normal_ordered_exp(h, 1.7, n), np.eye(4), atol=1e-12
            )

    def test_series_vs_exact_closed_form(self):
        rng = np.random.default_rng(16)
        h = random_bounded_nonhermitian(rng, 3, 0.2, 0.2)
        theta0 = random_hermitian(rng, 3) + 2 * np.eye(3)
        t = 1.0
        exact = exact_constant_flow(h, theta0, t)
        np.testing.assert_allclose(
            normal_ordered_exp(h, t, 20, theta0), exact, atol=1e-12
        )
        np.testing.assert_allclose(
            picard_iterate(h, theta0, t, 20), exact, atol=1e-12
        )

    def test_four_solvers_pairwise(self):
        rng = np.random.default_rng(17)
        h = random_bounded_nonhermitian(rng, 3, 0.2, 0.2)
        theta0 = np.eye(3, dtype=complex)
        t = 1.0
        results = {
            "rk": evolve_metric(
                Constant(h), theta0, 0.0, t, SolverConfig(rtol=1e-11, atol=1e-13)
            ).final,
            "prop": evolve_metric_via_propagator(
                Constant(h), theta0, 0.0, t, 200
            ).final,
            "picard": picard_iterate(h, theta0, t, 8),
            "series": normal_ordered_exp(h, t, 12),
        }
        names = list(results)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert np.max(np.abs(results[a] - results[b])) < 1e-6, (a, b)


class TestEigenbasisPicture:
    def test_static_weights_roundtrip(self):
        sys = biorthogonal_decompose(H_TL)
        weights = np.array([0.8, 1.9])
        theta = static_metric(sys, weights)
        coeffs = eigenbasis_coefficients(sys, theta)
        np.testing.assert_allclose(coeffs, np.diag(weights), atol=1e-12)

    def test_hermitian_identity_coefficients(self):
        h = random_hermitian(np.random.default_rng(18), 4)
        sys = biorthogonal_decompose(h)
        np.testing.assert_allclose(
            eigenbasis_coefficients(sys, np.eye(4)), np.eye(4), atol=1e-12
        )

    def test_roundtrip_reconstruction(self):
        rng = np.random.default_rng(19)
        h, _ = random_quasi_hermitian(rng, 5)
        sys = biorthogonal_decompose(h)
        theta = random_hermitian(rng, 5) + 3 * np.eye(5)
        coeffs = eigenbasis_coefficients(sys, theta)
        np.testing.assert_allclose(
            metric_from_eigenbasis(sys, coeffs), theta, atol=1e-12
        )

    def test_real_spectrum_moduli_conserved(self):
        rng = np.random.default_rng(20)
        h, _ = random_quasi_hermitian(rng, 4)
        sys = biorthogonal_decompose(h)
        coeffs0 = eigenbasis_coefficients(sys, random_hermitian(rng, 4) + 2 * np.eye(4))
        for t in (0.7, 3.0, 10.0):
            ct = eigenbasis_evolution(sys, coeffs0, t)
            np.testing.assert_allclose(np.diag(ct), np.diag(coeffs0), atol=1e-10)
            np.testing.assert_allclose(np.abs(ct), np.abs(coeffs0), atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_evolution_through_coefficients(self, dim, seed):
        rng = np.random.default_rng(seed)
        h, _ = random_quasi_hermitian(rng, dim)
        sys = biorthogonal_decompose(h)
        theta0 = random_hermitian(rng, dim) + 2 * np.eye(dim)
        t = 2.0
        traj = evolve_metric(
            Constant(h), theta0, 0.0, t, SolverConfig(rtol=1e-11, atol=1e-13)
        )
        via_coeffs = metric_from_eigenbasis(
            sys, eigenbasis_evolution(sys, eigenbasis_coefficients(sys, theta0), t)
        )
        np.testing.assert_allclose(traj.final, via_coeffs, atol=1e-8)


class TestObservableHamiltonian:
    def test_static_metric_returns_h(self):
        h_obs = observable_hamiltonian(H_TL, THETA_TL, np.zeros((2, 2)))
        np.testing.assert_allclose(h_obs, H_TL, atol=1e-14)

    def test_hermitian_identity_returns_h(self):
        h = random_hermitian(np.random.default_rng(22), 3)
        np.testing.assert_allclose(
            observable_hamiltonian(h, np.eye(3), flow_rhs(h, np.eye(3))), h,
            atol=1e-14,
        )

    def test_quasi_hermitian_along_flow(self):
        rng = np.random.default_rng(23)
        h = random_bounded_nonhermitian(rng, 3, 0.7, 0.5)
        theta = random_hermitian(rng, 3) + 2 * np.eye(3)
        h_obs = observable_hamiltonian(h, theta, flow_rhs(h, theta))
        assert quasi_hermiticity_residual(h_obs, theta) < 1e-12

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularMetric):
            observable_hamiltonian(SZ, np.diag([1.0, 1e-15]), np.eye(2))


class TestHermitianRepresentation:
    def test_hermitian_schedule_recovers_h(self):
        h = random_hermitian(np.random.default_rng(24), 3)
        traj = evolve_metric(Constant(h), np.eye(3), 0.0, 1.0, SolverConfig(samples=5))
        rep = hermitian_representation(traj, Constant(h))
        for h_rep in rep.h_ops:
            np.testing.assert_allclose(h_rep, h, atol=1e-9)

    def test_static_two_level_similarity(self):
        traj = evolve_metric(
            Constant(H_TL), THETA_TL, 0.0, 1.0, SolverConfig(samples=5)
        )
        rep = hermitian_representation(traj, Constant(H_TL))
        om = hermitian_sqrt(THETA_TL)
        oracle = om @ H_TL @ np.linalg.inv(om)
        gauge = cholesky_gauge(THETA_TL)
        np.testing.assert_allclose(rep.h_ops[0], gauge @ oracle @ gauge.conj().T, atol=1e-9)
        assert hermiticity_defect(oracle) < 1e-10
        assert rep.hermiticity_defects.max() < 1e-9

    def test_ramp_trajectory_hermitian_and_generator(self):
        from adiametric.two_level import CrossedRampSchedule, static_solution

        def run(duration):
            sched = CrossedRampSchedule(duration=duration)
            theta0 = static_solution(sched.params_at(0.0)).matrix()
            traj = evolve_metric(
                sched, theta0, 0.0, duration,
                SolverConfig(rtol=1e-10, atol=1e-13, samples=40 * int(duration) + 1),
            )
            rep = hermitian_representation(traj, sched)
            assert rep.hermiticity_defects.max() < 1e-6
            return rep.generator_residuals.max()

        # the generator consistency report carries the square-root ordering
        # term and the metric oscillation, both of which die off under
        # slower driving
        fast, slow = run(10.0), run(40.0)
        assert slow < fast
        assert slow < 0.1

    def test_residuals_match_per_sample_recomputation(self):
        from adiametric.two_level import CrossedRampSchedule, static_solution

        sched = CrossedRampSchedule(duration=3.0)
        theta0 = static_solution(sched.params_at(0.0)).matrix()
        traj = evolve_metric(sched, theta0, 0.0, 3.0, SolverConfig(samples=13))
        rep = hermitian_representation(traj, sched)
        assert_matches_oracle(rep, traj, sched)
        # finite at both ends; at the static start dTheta/dt is roundoff
        assert np.isfinite(rep.generator_residuals).all()
        assert rep.generator_residuals[0] <= 1e-15

    def test_finite_differences_converge_to_residuals(self):
        from adiametric.two_level import CrossedRampSchedule, static_solution

        sched = CrossedRampSchedule(duration=3.0)
        theta0 = static_solution(sched.params_at(0.0)).matrix()
        gaps = []
        for samples in (49, 193, 769):
            traj = evolve_metric(sched, theta0, 0.0, 3.0,
                                 SolverConfig(rtol=1e-12, atol=1e-15, samples=samples))
            exact = hermitian_representation_oracle(traj, sched)[2]
            gaps.append(np.max(np.abs(finite_difference_residuals(traj, sched) - exact)[1:-1]))
        # the spacing shrinks fourfold per step: order p shrinks the gap 4**p-fold
        orders = np.log(np.divide(gaps[:-1], gaps[1:])) / np.log(4.0)
        assert np.all(orders >= 1.9), orders

    def test_residual_vanishes_where_the_flow_commutes_with_the_metric(self):
        # diagonal H keeps Theta diagonal: dTheta/dt = -2 Theta Im(H) is
        # nonzero but commutes with Theta, so the ordering term is zero
        h = np.diag([1.0 + 0.3j, -1.0 - 0.2j])
        traj = evolve_metric(Constant(h), np.diag([2.0, 1.0]), 0.0, 1.0,
                             SolverConfig(samples=_REP_BLOCK + 3))
        assert np.linalg.norm(flow_rhs(h, traj.metrics[-1])) > 0.1
        rep = hermitian_representation(traj, Constant(h))
        assert np.all(rep.generator_residuals <= 1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        samples=st.sampled_from([1, 2, 3, _REP_BLOCK - 1, _REP_BLOCK, _REP_BLOCK + 1]),
        exp_shape=st.booleans(),
    )
    def test_matches_per_sample_oracle(self, seed, dim, samples, exp_shape):
        schedule, theta0, t0, t1 = random_flow(seed, dim, exp_shape)
        traj = evolve_metric(schedule, theta0, t0, t1, SolverConfig(samples=max(samples, 2)))
        if samples == 1:  # a one-sample trajectory: the end of a two-sample run
            traj = MetricTrajectory(traj.times[-1:], traj.metrics[-1:], traj.solver)
        assert_matches_oracle(hermitian_representation(traj, schedule), traj, schedule)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8))
    @example(seed=0, dim=32)
    def test_is_hermitian_part_of_root_similarity(self, seed, dim):
        # with dTheta/dt from the flow, H_obs = (H + Theta^-1 H^dag Theta) / 2,
        # so Omega H_obs Omega^-1 is the Hermitian part of X = Omega H Omega^-1
        # (Omega = Theta^(1/2), X^dag = Omega^-1 H^dag Omega): an identity free
        # of H_obs, checked here with scipy's matrix square root and moved to
        # the Cholesky gauge by the unitary Q = L^dag Omega^-1, Theta = L L^dag
        rng = np.random.default_rng(seed)
        h, _ = random_quasi_hermitian(rng, dim, 2.0)
        roots = [random_quasi_hermitian(rng, dim)[1] for _ in range(3)]
        metrics = np.array([s @ s for s in roots], dtype=complex)
        traj = MetricTrajectory(times=np.arange(3.0), metrics=metrics, solver="test")
        rep = hermitian_representation(traj, Constant(h))
        for theta, h_rep in zip(metrics, rep.h_ops):
            omega = scipy.linalg.sqrtm(theta)
            x = omega @ np.linalg.solve(omega.T, h.T).T
            gauge = np.linalg.solve(omega.T, np.linalg.cholesky(theta).conj()).T
            want = gauge @ (0.5 * (x + x.conj().T)) @ gauge.conj().T
            assert np.linalg.norm(h_rep - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
           mixing=st.sampled_from([0.3, 0.5]))
    @example(seed=0, dim=32, mixing=0.5)
    @example(seed=1, dim=64, mixing=0.5)
    def test_cholesky_gauge_is_unitarily_equivalent_to_the_root_gauge(self, seed, dim, mixing):
        # metrics S^2 with cond(S) <= (1 + mixing) / (1 - mixing), read against
        # a ramp whose generator moves between two quasi-Hermitian ends; the
        # samples cross a block boundary
        rng = np.random.default_rng(seed)
        (ha, _), (hb, _) = (random_quasi_hermitian(rng, dim, 2.0) for _ in range(2))
        schedule = LinearRamp(ha, hb, 1.0)
        roots = [random_quasi_hermitian(rng, dim, mixing=mixing)[1]
                 for _ in range(_REP_BLOCK + 1)]
        metrics = np.array([s @ s for s in roots], dtype=complex)
        times = np.linspace(0.0, 1.0, len(metrics))
        traj = MetricTrajectory(times=times, metrics=metrics, solver="test")
        rep = hermitian_representation(traj, schedule)
        residuals = metric_correction_residuals(traj, schedule)
        for t, theta, h_rep in zip(times, metrics, rep.h_ops):
            h_root = root_representation(schedule.at(t), theta)
            want = np.linalg.eigvalsh(h_root)
            gap = np.max(np.abs(np.linalg.eigvalsh(h_rep) - want))
            assert gap <= 1e-13 * np.max(np.abs(want))
            gauge = cholesky_gauge(theta)
            moved = gauge @ h_root @ gauge.conj().T
            assert np.linalg.norm(h_rep - moved) <= 1e-12 * np.linalg.norm(moved)
        np.testing.assert_allclose(rep.generator_residuals, residuals, rtol=1e-12, atol=1e-15)

    def test_frobenius_bound_past_the_limit_is_decided_on_eigenvalues(self, monkeypatch):
        # eight eigenvalues at 1 and eight at 2e-12, rotated: cond = 5e11 is
        # inside the limit, the bound (8 + 1.6e-11)(8 + 4e12) = 3.2e13 is not
        rng = np.random.default_rng(30)
        q = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
        theta = (q * np.repeat([1.0, 2e-12], 8)) @ q.conj().T
        theta = 0.5 * (theta + theta.conj().T)
        low = np.linalg.cholesky(theta)
        assert (np.linalg.norm(low) * np.linalg.norm(np.linalg.inv(low))) ** 2 > 1e12
        assert np.linalg.cond(theta) <= 1e12
        h, s = random_quasi_hermitian(rng, 16, 2.0)
        metrics = np.array([s @ s, theta, s @ s], dtype=complex)
        traj = MetricTrajectory(times=np.arange(3.0), metrics=metrics, solver="test")
        calls, checked = [], []
        eigvalsh, sqrt = np.linalg.eigvalsh, metric_flow.hermitian_sqrt
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(len(a)) or eigvalsh(a))
        monkeypatch.setattr(metric_flow, "hermitian_sqrt", lambda t: checked.append(t) or sqrt(t))
        rep = hermitian_representation(traj, Constant(h))
        # no eigenvalue screen: the per-sample checks run up to the sample past the bound
        assert calls == [] and len(checked) == 2
        assert np.isfinite(rep.h_ops).all() and np.isfinite(rep.generator_residuals).all()
        monkeypatch.undo()
        hermitian_representation_oracle(traj, Constant(h))  # the per-sample path accepts it too

    def test_well_conditioned_read_decomposes_nothing(self, monkeypatch):
        schedule, theta0, t0, t1 = random_flow(31, 6, False)
        traj = evolve_metric(schedule, theta0, t0, t1, SolverConfig(samples=2 * _REP_BLOCK + 1))

        def refuse(*args, **kwargs):
            raise AssertionError("an eigendecomposition on the read path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rep = hermitian_representation(traj, schedule)
        monkeypatch.undo()
        assert_matches_oracle(rep, traj, schedule)

    def test_schedule_of_another_size_is_dimension_mismatch(self):
        # once numpy's "matmul: Input operand 1 has a mismatch in its core dimension"
        traj = evolve_metric(Constant(H_TL), THETA_TL, 0.0, 1.0, SolverConfig(samples=3))
        with pytest.raises(DimensionMismatch, match=r"\(3, 3\) against metrics of shape \(2, 2\)"):
            hermitian_representation(traj, Constant(np.eye(3)))

    @pytest.mark.parametrize(
        "faults, error",
        [
            ({9: "nonfinite"}, DimensionMismatch),
            ({9: "nonfinite_h"}, DimensionMismatch),
            ({9: "nonhermitian"}, NonHermitianInput),
            ({9: "indefinite"}, NotPositive),
            ({9: "ill_conditioned"}, SingularMetric),
            ({9: "singular"}, SingularMetric),
            ({0: "nonhermitian_ill_conditioned"}, SingularMetric),
            ({2: "indefinite", 5: "nonfinite"}, NotPositive),
            ({3: "ill_conditioned", 10: "nonhermitian"}, SingularMetric),
        ],
    )
    def test_raises_what_the_per_sample_path_raises(self, faults, error):
        bad = {
            "nonfinite": np.array([[1.0, np.nan], [np.nan, 1.0]]),
            "nonfinite_h": np.eye(2),
            "nonhermitian": np.array([[1.0, 1e-6], [0.0, 1.0]]),
            "indefinite": np.diag([1.0, -1.0]),
            "ill_conditioned": np.diag([1.0, 1e-13]),
            "singular": np.diag([1.0, 0.0]),
            "nonhermitian_ill_conditioned": np.array([[1.0, 1e-6], [0.0, 1e-13]]),
        }
        times = np.linspace(0.0, 1.0, 12)
        metrics = np.array([bad[faults[k]] if k in faults else THETA_TL for k in range(12)])
        traj = MetricTrajectory(times=times, metrics=metrics.astype(complex), solver="test")
        nan_at = {times[k] for k, kind in faults.items() if kind == "nonfinite_h"}

        class Schedule:
            def at(self, t):
                return np.full((2, 2), np.nan) if t in nan_at else H_TL

        with pytest.raises(error):
            hermitian_representation_oracle(traj, Schedule())
        with pytest.raises(error):
            hermitian_representation(traj, Schedule())


def assert_matches_oracle(rep, traj, schedule):
    """``rep`` against the per-sample oracles, within 1e-12 relative.

    ``h_ops`` is the principal-root oracle's moved to the Cholesky gauge by
    the unitary ``cholesky_gauge``, and the residuals are the per-sample
    metric-correction norms.  Defects and residuals are already relative
    quantities; the defects, roundoff in size, are held to 1e-12 absolute,
    and residuals at the roundoff of a static sample to 1e-15 absolute.
    """
    h_root, defects, _ = hermitian_representation_oracle(traj, schedule)
    gauges = np.array([cholesky_gauge(theta) for theta in traj.metrics])
    h_ops = gauges @ h_root @ gauges.conj().swapaxes(1, 2)
    residuals = metric_correction_residuals(traj, schedule)
    err = np.linalg.norm(rep.h_ops - h_ops, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(h_ops, axis=(1, 2)))
    np.testing.assert_allclose(rep.hermiticity_defects, defects, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rep.generator_residuals, residuals, rtol=1e-12, atol=1e-15)


class TestTransitionProbability:
    def test_unitary_image_certainty(self):
        h = random_hermitian(np.random.default_rng(25), 3)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        phi = propagator(h, 2.0) @ psi
        p = transition_probability(phi, psi, Constant(h), 0.0, 2.0, np.eye(3))
        assert abs(p - 1.0) < 1e-9

    def test_orthogonal_image_zero(self):
        h = random_hermitian(np.random.default_rng(26), 3)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        u_psi = propagator(h, 2.0) @ psi
        # build a vector orthogonal to the evolved state
        phi = np.array([0.0, 1.0, 0.0], dtype=complex)
        phi -= (u_psi.conj() @ phi) / (u_psi.conj() @ u_psi) * u_psi
        p = transition_probability(phi, psi, Constant(h), 0.0, 2.0, np.eye(3))
        assert p < 1e-18

    def test_in_unit_interval_nonhermitian(self):
        rng = np.random.default_rng(27)
        h = random_bounded_nonhermitian(rng, 3, 0.6, 0.5)
        theta0 = random_hermitian(rng, 3) + 2 * np.eye(3)
        for _ in range(5):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            p = transition_probability(phi, psi, Constant(h), 0.0, 1.5, theta0)
            assert 0.0 <= p <= 1.0 + 1e-12

    def test_indefinite_metric_raises_not_positive(self):
        # e_2 has metric norm squared -0.5 under diag(1, -0.5)
        psi = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(NotPositive):
            transition_probability(
                psi, psi, Constant(SZ), 0.0, 1.0, np.diag([1.0, -0.5])
            )

    def test_integrates_no_metric_flow(self, monkeypatch):
        # phi is pulled back by one CF4 propagator; DOP853 is never run
        def refuse(*args, **kwargs):
            raise AssertionError("transition_probability called solve_ode")

        monkeypatch.setattr(metric_flow, "solve_ode", refuse)
        schedule = ExponentialSwitch(H_TL, 0.5 * SZ, 0.5)
        p = transition_probability(np.ones(2), np.array([1.0, 1j]), schedule, -3.0, 2.0,
                                   THETA_TL)
        assert 0.0 <= p <= 1.0 + 1e-12

    def test_empty_window_raises_config_error(self):
        with pytest.raises(ConfigError, match="empty"):
            transition_probability(np.ones(2), np.ones(2), Constant(H_TL), 1.0, 1.0, THETA_TL)

    @pytest.mark.parametrize("t_from, t_to", [(0.0, math.nan), (math.nan, 1.0),
                                              (0.0, math.inf), (-math.inf, 1.0)],
                             ids=["nan-to", "nan-from", "inf-to", "inf-from"])
    def test_non_finite_window_raises_solver_error(self, t_from, t_to):
        with pytest.raises(SolverError, match="non-finite"):
            transition_probability(np.ones(2), np.ones(2), Constant(H_TL), t_from, t_to,
                                   THETA_TL)


class TestAccumulatedPropagator:
    """The CF4 propagator behind :func:`transition_probability` against DP5."""

    rng = np.random.default_rng(41)
    H0 = random_quasi_hermitian(rng, 3, 2.0)[0]
    HI = random_bounded_nonhermitian(rng, 3, 0.5, 0.3)
    SPANS = {
        "constant": (Constant(H0 + HI), 0.0, 2.0),
        "exp": (ExponentialSwitch(H0, HI, 0.5), -3.0, 2.0),
        "smooth": (SmoothSwitch(H0, HI, 2.0), -3.0, 2.5),
        "ramp": (LinearRamp(H0, H0 + HI, 2.0), -0.5, 3.0),
        "crossed_ramp": (CrossedRampSchedule(2.0), -0.5, 3.0),
    }

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("name", list(SPANS))
    def test_matches_dp5_across_breakpoints(self, name, backward):
        # every span but the constant one crosses all of its breakpoints;
        # the bound was fixed before the first run
        schedule, t0, t1 = self.SPANS[name]
        if backward:
            t0, t1 = t1, t0
        want = dp5_propagator(schedule, t0, t1, 1e-13, 1e-15)
        got = metric_flow._accumulate_propagator(schedule, t0, t1, 1e-11, 1e-13)
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    @pytest.mark.parametrize("t1", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_end_raises_solver_error(self, t1):
        # math.ceil once raised an untyped ValueError or OverflowError
        with pytest.raises(SolverError, match="non-finite CF4 window"):
            metric_flow._accumulate_propagator(Constant(H_TL), 0.0, t1, 1e-11, 1e-13)


class TestTransitionPullBack:
    """:func:`transition_probability` against the two-integrator oracle: DOP853's
    Theta(t_to) with the forward and the pull-back amplitude forms."""

    SPANS = TestAccumulatedPropagator.SPANS

    @staticmethod
    def start_metric(schedule, kind):
        """The identity, or a static metric of the free generator: ``H0`` for
        the three-level spans (``Constant``'s own h0 has a complex spectrum),
        the crossed ramp's start for the two-level one."""
        if kind == "identity":
            return np.eye(len(schedule.h0))
        free = TestAccumulatedPropagator.H0 if len(schedule.h0) == 3 else schedule.h0
        return static_metric(biorthogonal_decompose(free), np.linspace(1.0, 2.0, len(free)))

    @pytest.mark.parametrize("metric", ["identity", "quasi_hermitian"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("name", list(SPANS))
    def test_matches_two_form_oracle(self, name, backward, metric):
        # P <= 1; the oracle's forms agree within 1e-10 in amplitude and its
        # Theta(t_to) is held to rtol 1e-11; the bound was fixed before the first run
        schedule, t0, t1 = self.SPANS[name]
        if backward:
            t0, t1 = t1, t0
        theta = self.start_metric(schedule, metric)
        rng = np.random.default_rng(43)
        dim = len(theta)
        phi, psi = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        want = transition_probability_oracle(phi, psi, schedule, t0, t1, theta)
        got = transition_probability(phi, psi, schedule, t0, t1, theta)
        assert abs(got - want) <= 1e-9


class TestTransportPrediction:
    def test_constant_path_reproduces_static(self):
        sys = biorthogonal_decompose(H_TL)
        theta = static_metric(sys, np.array([1.3, 0.6]))
        pred = adiabatic_transport_prediction([H_TL, H_TL, H_TL], theta)
        np.testing.assert_allclose(pred, theta, atol=1e-12)

    def test_coupling_path_gives_quasi_hermitian_limit(self):
        h0 = 2.0 * SZ
        h_int = 0.75j * np.array([[0, 1], [1, 0]])
        path = [h0 + s * h_int for s in np.linspace(0, 1, 200)]
        pred = adiabatic_transport_prediction(path, np.eye(2))
        assert quasi_hermiticity_residual(h0 + h_int, pred) < 1e-8
        assert np.linalg.eigvalsh(pred)[0] > 0

    def test_second_order_in_the_path_spacing(self):
        # a curved path of 4x4 generators: 4x the points, 16x closer to the
        # prediction of a fine path (first-order transport only gets 4x)
        rng = np.random.default_rng(3)
        (ha, sa), (hb, _), (hc, _) = (
            random_quasi_hermitian(rng, 4, 2.0) for _ in range(3)
        )

        def predict(points):
            path = [ha + x * (hb - ha) + x * (1 - x) * (hc - ha)
                    for x in np.linspace(0.0, 1.0, points)]
            return adiabatic_transport_prediction(path, sa @ sa)

        fine = predict(6400)
        coarse, finer = (np.linalg.norm(predict(n) - fine) for n in (100, 400))
        assert coarse / finer > 12.0

    def test_one_eig_per_path_chunk(self, monkeypatch):
        # the separation check and the level matching share each chunk's eig
        sizes, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: sizes.append(len(a)) or eig(a))
        h0, h_int = 2.0 * SZ, 0.75j * np.array([[0, 1], [1, 0]])
        path = [h0 + s * h_int for s in np.linspace(0, 1, 2 * PATH_CHUNK + 10)]
        adiabatic_transport_prediction(path, np.eye(2))
        assert sizes == [PATH_CHUNK, PATH_CHUNK, 10]

    def test_degenerate_path_point_rejected(self):
        # the level identity is undefined where two levels coincide
        with pytest.raises(DegenerateSpectrum):
            adiabatic_transport_prediction([H_TL, np.eye(2), H_TL], np.eye(2))


SYSTEM_TL = biorthogonal_decompose(H_TL)
I3 = np.eye(3)


@pytest.mark.parametrize("call, error", [
    (lambda: adiabatic_transport_prediction([], I2), ConfigError),
    (lambda: adiabatic_transport_prediction([H_TL, H_TL], I3), DimensionMismatch),
    (lambda: adiabatic_transport_prediction([H_TL, I3, H_TL], I2), DimensionMismatch),
    (lambda: transition_probability(np.ones(3), np.ones(2), Constant(H_TL), 0.0, 1.0, THETA_TL),
     DimensionMismatch),
    (lambda: transition_probability(np.ones(2), np.ones(3), Constant(H_TL), 0.0, 1.0, THETA_TL),
     DimensionMismatch),
    (lambda: transition_probability(np.ones(2), np.ones(2), Constant(H_TL), 0.0, 1.0, I3),
     DimensionMismatch),
    (lambda: observable_hamiltonian(H_TL, I3, I3), DimensionMismatch),
    (lambda: observable_hamiltonian(H_TL, THETA_TL, I3), DimensionMismatch),
    (lambda: quasi_hermiticity_residual(H_TL, I3), DimensionMismatch),
    (lambda: eigenbasis_coefficients(SYSTEM_TL, I3), DimensionMismatch),
    (lambda: metric_from_eigenbasis(SYSTEM_TL, I3), DimensionMismatch),
    (lambda: eigenbasis_evolution(SYSTEM_TL, I3, 1.0), DimensionMismatch),
    (lambda: eigenbasis_evolution(SYSTEM_TL, np.eye(1), 1.0), DimensionMismatch),
], ids=["transport-empty", "transport-metric", "transport-path", "transition-phi", "transition-psi",
        "transition-metric", "observable-metric", "observable-derivative", "residual",
        "coefficients", "from-eigenbasis", "evolution", "evolution-broadcast"])
def test_mismatched_operands_raise_typed_errors(call, error):
    # each once raised an untyped numpy ValueError or an UnboundLocalError;
    # a 1x1 coefficient matrix was even broadcast silently
    with pytest.raises(error):
        call()
