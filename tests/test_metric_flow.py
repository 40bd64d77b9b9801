"""Metric-flow solvers, static metrics, eigenbasis laws, observables."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiametric.errors import (
    ComplexSpectrum,
    DegenerateSpectrum,
    DimensionMismatch,
    NonHermitianInput,
    NonpositiveWeight,
    NotPositive,
    SingularMetric,
)
from adiametric.metric_flow import (
    _REP_BLOCK,
    MetricTrajectory,
    SolverConfig,
    _hermitian_flow_rhs,
    adiabatic_transport_prediction,
    eigenbasis_coefficients,
    eigenbasis_evolution,
    evolve_metric,
    evolve_metric_via_propagator,
    flow_rhs,
    hermitian_representation,
    metric_from_eigenbasis,
    normal_ordered_exp,
    observable_hamiltonian,
    picard_iterate,
    quasi_hermiticity_residual,
    static_metric,
    transition_probability,
)
from adiametric.operator_core import (
    biorthogonal_decompose,
    hermitian_sqrt,
    hermiticity_defect,
    propagator,
)
from adiametric.switching import Constant, ExponentialSwitch, LinearRamp

from helpers import (
    I2,
    SY,
    SZ,
    evolve_metric_oracle,
    hermitian_representation_oracle,
    random_bounded_nonhermitian,
    random_hermitian,
    random_quasi_hermitian,
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
        steps = traj.stats["naccept"] + traj.stats["nreject"]
        assert traj.stats["nfev"] == 6 * steps + 1
        h = np.asarray(schedule.at(t1), dtype=complex)
        for theta in traj.metrics:
            err = np.linalg.norm(_hermitian_flow_rhs(h, theta) - flow_rhs(h, theta))
            assert err <= 1e-14 * np.linalg.norm(h) * np.linalg.norm(theta)
        # the embedded error estimate is a difference of stages, so a last-bit
        # change in them can move a step: the runs then differ by local
        # truncation errors (up to 4e-13 in 4000 draws), far below rtol
        want, _ = evolve_metric_oracle(schedule, theta0, t0, t1, cfg)
        err = np.linalg.norm(traj.metrics - want, axis=(1, 2))
        assert np.all(err <= 1e-11 * np.linalg.norm(want, axis=(1, 2)))

    def test_hermiticity_defects_match_per_sample_norms(self):
        rng = np.random.default_rng(10)
        metrics = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
        traj = MetricTrajectory(times=np.arange(7.0), metrics=metrics, solver="test")
        want = [hermiticity_defect(m) for m in metrics]
        np.testing.assert_array_equal(traj.hermiticity_defects(), want)

    def test_rejects_nonhermitian_start(self):
        with pytest.raises(NonHermitianInput):
            evolve_metric(Constant(SZ), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0, 1.0)

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

    def test_agrees_with_rk_on_ramp_schedule(self):
        from adiametric.two_level import CrossedRampSchedule, static_solution

        sched = CrossedRampSchedule(duration=5.0)
        theta0 = static_solution(sched.params_at(0.0)).matrix()
        rk = evolve_metric(
            sched, theta0, 0.0, 5.0, SolverConfig(rtol=1e-11, atol=1e-13)
        )
        pc = evolve_metric_via_propagator(sched, theta0, 0.0, 5.0, 4000)
        np.testing.assert_allclose(pc.final, rk.final, atol=1e-6)


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
        np.testing.assert_allclose(rep.h_ops[0], oracle, atol=1e-9)
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
            return np.nanmax(rep.generator_residuals[1:-1])

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
        assert np.isnan(rep.generator_residuals[[0, -1]]).all()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        samples=st.sampled_from([1, 2, 3, _REP_BLOCK - 1, _REP_BLOCK, _REP_BLOCK + 1]),
        exp_shape=st.booleans(),
    )
    def test_matches_per_sample_oracle(self, seed, dim, samples, exp_shape):
        schedule, theta0, t0, t1 = random_flow(seed, dim, exp_shape)
        traj = evolve_metric(schedule, theta0, t0, t1, SolverConfig(samples=samples))
        assert_matches_oracle(hermitian_representation(traj, schedule), traj, schedule)

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
    """``rep`` against the per-sample oracle, within 1e-12 relative.

    Defects and residuals are already relative quantities; the defects,
    roundoff in size, are held to 1e-12 absolute.
    """
    h_ops, defects, residuals = hermitian_representation_oracle(traj, schedule)
    err = np.linalg.norm(rep.h_ops - h_ops, axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(h_ops, axis=(1, 2)))
    np.testing.assert_allclose(rep.hermiticity_defects, defects, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rep.generator_residuals, residuals, rtol=1e-12, atol=0.0)


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

    def test_degenerate_path_point_rejected(self):
        # the level identity is undefined where two levels coincide
        with pytest.raises(DegenerateSpectrum):
            adiabatic_transport_prediction([H_TL, np.eye(2), H_TL], np.eye(2))
