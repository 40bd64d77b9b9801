"""Moller operators, adiabatic metrics, dressed S-matrices."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adiametric import scattering
from adiametric._integrate import magnus_cf4
from adiametric.errors import (
    ComplexSpectrum,
    ConfigError,
    DimensionMismatch,
    NoConvergence,
    NotPositive,
)
from adiametric.metric_flow import (
    adiabatic_transport_prediction,
    eigenbasis_coefficients,
    quasi_hermiticity_residual,
)
from adiametric.operator_core import biorthogonal_decompose, eigenframe
from adiametric.scattering import (
    ScatteringConfig,
    _dressing,
    _mirrored_pass,
    _switch_schedule,
    adiabatic_metric,
    dynamical_phase_integrals,
    moller_minus,
    moller_plus,
    out_dressing,
    s_matrix,
)
from adiametric.switching import ExponentialSwitch, extrapolate_to_zero

from helpers import (
    SX,
    SZ,
    dp5_dressing,
    dp5_propagator,
    flow_adiabatic_metric,
    random_hermitian,
    random_quasi_hermitian,
)

# shipped scattering fixture: Hermitian free part with gap 4, anti-Hermitian
# interaction of strength 0.75; v^2 = 16 > w^2 = 2.25 all along the switch
H0 = 2.0 * SZ
HI = 0.75j * SX

FAST = ScatteringConfig(rtol=1e-9, atol=1e-12)


class TestMollerOperators:
    def test_free_theory_identity(self):
        zero = np.zeros((2, 2))
        np.testing.assert_allclose(moller_minus(H0, zero, 0.2), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(moller_plus(H0, zero, 0.2), np.eye(2), atol=1e-12)

    def test_hermitian_interaction_unitary(self):
        hi = 0.6 * SX
        for op in (moller_minus(H0, hi, 0.1, FAST), moller_plus(H0, hi, 0.1, FAST)):
            assert np.linalg.norm(op.conj().T @ op - np.eye(2)) < 1e-8

    def test_composition_identity(self):
        # U_0(0,t+) U(t+,t-) U_0(t-,0) equals moller_plus . moller_minus,
        # at the doubled horizon where the exp dressings are taken
        eps = 0.25
        cfg = ScatteringConfig(rtol=1e-11, atol=1e-13)
        om_p = moller_plus(H0, HI, eps, cfg)
        om_m = moller_minus(H0, HI, eps, cfg)

        horizon = 2.0 * cfg.horizon_factor / eps
        sched = ExponentialSwitch(H0, HI, eps)
        u_full = dp5_propagator(sched, -horizon, horizon, 1e-11, 1e-13)
        u0 = lambda dt: scipy.linalg.expm(-1j * H0 * dt)
        direct = u0(-horizon) @ u_full @ u0(-horizon)
        np.testing.assert_allclose(direct, om_p @ om_m, atol=1e-8)

    def test_out_dressing_inverts_moller_plus(self):
        # against G = U_0(0, 2T) U(2T, 0) integrated on its own by DP5, since
        # moller_plus is inv(out_dressing) by construction
        cfg = ScatteringConfig(rtol=1e-11, atol=1e-13)
        om_g = _dp5_limit(H0, HI, 0.2, cfg, "G", +1, "exp")
        np.testing.assert_allclose(out_dressing(H0, HI, 0.2, cfg) @ om_g, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(moller_plus(H0, HI, 0.2, cfg), om_g, atol=1e-8)

    def test_bounded_for_nonhermitian_fixture(self):
        op = moller_minus(H0, HI, 0.1, FAST)
        assert np.all(np.isfinite(op.view(float)))
        assert np.linalg.norm(op) < 10.0

    def test_no_convergence_detection(self):
        # a horizon far too short cannot have settled the limit
        cfg = ScatteringConfig(horizon_factor=0.5)
        with pytest.raises(NoConvergence):
            moller_minus(H0, HI, 0.2, cfg)

    def test_each_dressing_checks_only_its_own_limit(self):
        # doubling the horizon moves K(-T) by 1.43e-3 and K(T) by 7.6e-4 here,
        # astride MOLLER_DRIFT_TOL = 1e-3
        h0 = np.diag([2.0, 0.5, -1.5]).astype(complex)
        rng = np.random.default_rng(3)
        h_int = 0.4 * random_hermitian(rng, 3) + 0.3j * random_hermitian(rng, 3)
        cfg = ScatteringConfig(horizon_factor=6.6)
        with pytest.raises(NoConvergence):
            moller_minus(h0, h_int, 0.5, cfg)
        with pytest.raises(NoConvergence):  # both sides, as s_matrix checks
            _dressing(h0, h_int, 0.5, cfg, "exp", eigenframe(h0))
        om_out = out_dressing(h0, h_int, 0.5, cfg)
        np.testing.assert_allclose(moller_plus(h0, h_int, 0.5, cfg) @ om_out, np.eye(3), atol=1e-12)


class TestAdiabaticMetric:
    def test_free_theory_keeps_identity(self):
        theta = adiabatic_metric(H0, np.zeros((2, 2)), np.eye(2), 0.2, FAST)
        np.testing.assert_allclose(theta, np.eye(2), atol=1e-10)

    def test_residual_decreases_with_switching_rate(self):
        h_full = H0 + HI
        residuals = []
        for eps in (0.4, 0.2, 0.1):
            theta = adiabatic_metric(H0, HI, np.eye(2), eps, FAST)
            residuals.append(quasi_hermiticity_residual(h_full, theta))
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 0.2

    def test_offdiagonal_coefficients_vanish_in_limit(self):
        sys = biorthogonal_decompose(H0 + HI)
        offs = []
        for eps in (0.4, 0.1):
            theta = adiabatic_metric(H0, HI, np.eye(2), eps, FAST)
            c = eigenbasis_coefficients(sys, theta)
            offs.append(abs(c[0, 1]))
        assert offs[1] < offs[0]

    def test_limit_matches_transport_prediction(self):
        theta = adiabatic_metric(H0, HI, np.eye(2), 0.05, FAST)
        path = [H0 + s * HI for s in np.linspace(0.0, 1.0, 300)]
        predicted = adiabatic_transport_prediction(path, np.eye(2))
        assert np.linalg.norm(theta - predicted) < 0.1

    def test_complex_spectrum_rejected(self):
        with pytest.raises(ComplexSpectrum):
            adiabatic_metric(0.5 * SZ, 2.0j * SX, np.eye(2), 0.1, FAST)

    def test_indefinite_theta0_rejected_before_integration(self, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("theta0 must be checked before any integration")

        monkeypatch.setattr(scattering, "magnus_cf4", no_integration)
        with pytest.raises(NotPositive, match="theta0's smallest eigenvalue"):
            adiabatic_metric(H0, HI, np.diag([1.0, -0.5]), 0.4, FAST)

    def test_shape_independent_limit(self):
        # two different switching profiles grow the same metric from
        # unity once extrapolated to the slow limit
        cfg = ScatteringConfig(rtol=1e-10, atol=1e-13)
        ladder = [0.1, 0.05]
        runs = {
            shape: [
                adiabatic_metric(H0, HI, np.eye(2), eps, cfg, shape=shape)
                for eps in ladder
            ]
            for shape in ("exp", "smooth")
        }
        gap = np.max(
            np.abs(
                extrapolate_to_zero(ladder, runs["exp"])
                - extrapolate_to_zero(ladder, runs["smooth"])
            )
        )
        assert gap < 1e-3


class TestInOutIsometry:
    def test_in_pairing_reproduces_free_product(self):
        # <psi_in | Theta phi_in> = <psi | phi> with the identity free metric
        rng = np.random.default_rng(0)
        eps = 0.1
        om = moller_minus(H0, HI, eps, FAST)
        theta = adiabatic_metric(H0, HI, np.eye(2), eps, FAST)
        for _ in range(5):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = (om @ psi).conj() @ theta @ (om @ phi)
            rhs = psi.conj() @ phi
            assert abs(lhs - rhs) < 1e-5

    def test_out_pairing_conservation_mirror(self):
        # forward evolution: <psi_out | Theta_out phi_out> = <psi|Theta(0) phi>
        # with Theta_out the free-frame pull-back of the late-time metric, at
        # the doubled horizon where the exp dressings are taken
        rng = np.random.default_rng(1)
        eps = 0.1
        cfg = ScatteringConfig(rtol=1e-11, atol=1e-13)
        horizon = 2.0 * cfg.horizon_factor / eps
        sched = ExponentialSwitch(H0, HI, eps)
        theta0 = adiabatic_metric(H0, HI, np.eye(2), eps, cfg)
        from adiametric.metric_flow import SolverConfig, evolve_metric

        theta_plus = evolve_metric(
            sched, theta0, 0.0, horizon,
            SolverConfig(rtol=1e-11, atol=1e-13, samples=2),
        ).final
        u0 = scipy.linalg.expm(-1j * H0 * horizon)
        theta_out = u0.conj().T @ theta_plus @ u0
        om_plus = moller_plus(H0, HI, eps, cfg)
        for _ in range(5):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = (om_plus @ psi).conj() @ theta_out @ (om_plus @ phi)
            rhs = psi.conj() @ theta0 @ phi
            assert abs(lhs - rhs) < 1e-6


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("field", ["rtol", "atol", "horizon_factor"])
def test_scattering_config_rejects_nonpositive_or_non_finite(field, value):
    # horizon_factor=0 once returned S = Theta(0) = I with defect 0, and a
    # NaN or negative rtol raised an untyped ValueError or TypeError in the solver
    with pytest.raises(ConfigError, match=f"scattering {field} must be finite and positive"):
        ScatteringConfig(**{field: value})


class TestSMatrix:
    def test_free_theory_is_identity(self):
        r = s_matrix(H0, np.zeros((2, 2)), 0.1, config=FAST)
        np.testing.assert_allclose(r.s_matrix, np.eye(2), atol=1e-12)
        assert r.unitarity_defect < 1e-12

    def test_hermitian_interaction_unitary(self):
        r = s_matrix(H0, 0.6 * SX, 0.1, config=FAST)
        assert r.unitarity_defect < 1e-7

    def test_defect_ladder_and_extrapolation(self):
        ladder = [0.4, 0.2, 0.1, 0.05]
        defects = [s_matrix(H0, HI, eps, config=FAST).unitarity_defect for eps in ladder]
        assert all(a > b for a, b in zip(defects, defects[1:]))
        assert extrapolate_to_zero(ladder, defects) < 1e-3

    def test_phase_renormalized_converges_to_identity(self):
        ladder = [0.2, 0.1, 0.05]
        tilded = [
            s_matrix(H0, HI, eps, config=FAST).phase_renormalized() for eps in ladder
        ]
        limit = extrapolate_to_zero(ladder, tilded)
        np.testing.assert_allclose(limit, np.eye(2), atol=5e-3)

    def test_complex_spectrum_rejected(self):
        with pytest.raises(ComplexSpectrum):
            s_matrix(0.5 * SZ, 2.0j * SX, 0.1)

    @pytest.mark.parametrize("c", [0.3, 0.1, 0.03, 0.01])
    def test_mid_switch_exceptional_point_rejected_before_integration(self, monkeypatch, c):
        # diag(0, 1) + f [[2, ic], [ic, 0]] has real levels at f = 0 and f = 1
        # and a complex pair near f = 1/2; once a SolverError ("eigenvector
        # matching failed") after the dressings or, from c = 0.03 down, an
        # S-matrix, and a metric at every c
        def no_integration(*args, **kwargs):
            raise AssertionError("the switch's spectrum must be checked before any integration")

        monkeypatch.setattr(scattering, "magnus_cf4", no_integration)
        h0, h_int = np.diag([0.0, 1.0]), np.array([[2.0, 1j * c], [1j * c, 0.0]])
        for shape in ("exp", "smooth"):
            with pytest.raises(ComplexSpectrum, match="along the switch"):
                s_matrix(h0, h_int, 0.2, shape=shape)
            with pytest.raises(ComplexSpectrum, match="along the switch"):
                adiabatic_metric(h0, h_int, None, 0.2, shape=shape)

    @pytest.mark.parametrize("shape", ["exp", "smooth"])
    @pytest.mark.parametrize("ratio", [0.999, 1 - 1e-5, 1 - 1e-7])
    def test_couplings_next_to_an_exceptional_point_keep_real_levels(self, shape, ratio):
        # 2 sigma_z + 2 i r f sigma_x: levels +-2 sqrt(1 - r^2 f^2), real on the whole switch
        phases = dynamical_phase_integrals(2.0 * SZ, 2j * ratio * SX, 0.4, shape)
        assert phases[0] > 0.0 and abs(phases.sum()) <= 1e-10 * phases[0]

    def test_metric_of_another_shape_rejected(self):
        # once an untyped numpy matmul ValueError, raised after the dressings
        with pytest.raises(DimensionMismatch, match=r"shapes \(2, 2\) and \(3, 3\)"):
            s_matrix(H0, HI, 0.4, theta0=np.eye(3))

    @pytest.mark.parametrize("theta0", [-np.eye(2), np.diag([1.0, -0.5]), np.diag([1.0, 0.0])],
                             ids=["negative", "indefinite", "singular"])
    def test_metric_not_positive_definite_rejected(self, theta0):
        # theta0 = -I once returned a Theta(0) with eigenvalues -1.46 and -0.68
        with pytest.raises(NotPositive, match="theta0's smallest eigenvalue"):
            s_matrix(2.0 * SZ, 0.75j * SX, 0.8, theta0=theta0)

    def test_switch_shapes_agree_after_extrapolation(self):
        ladder = [0.2, 0.1]
        exp_runs = [
            s_matrix(H0, HI, eps, config=FAST).phase_renormalized() for eps in ladder
        ]
        smooth_runs = [
            s_matrix(H0, HI, eps, config=FAST, shape="smooth").phase_renormalized()
            for eps in ladder
        ]
        disagreement = np.max(
            np.abs(
                extrapolate_to_zero(ladder, exp_runs)
                - extrapolate_to_zero(ladder, smooth_runs)
            )
        )
        assert disagreement < 1e-3


def _phase_closed_form(level, eps, shape, horizon_factor=12.0):
    """``2 int_0^inf (E(f(t)) - E(0)) dt`` for a level ``E(u)`` of the coupling path.

    exp: ``u = exp(-eps t)`` gives ``(2/eps) int_0^1 g(u)/u du``; smooth:
    ``u = cos^2 s`` with ``s = pi t / (2 W)`` gives
    ``(4W/pi) int_0^{pi/2} g(cos^2 s) ds``, where ``g(u) = E(u) - E(0)``.
    """
    g = lambda u: level(u) - level(0.0)
    quad = lambda fn, upper: scipy.integrate.quad(fn, 0.0, upper, epsabs=0.0, epsrel=1e-12)[0]
    if shape == "exp":
        return (2.0 / eps) * quad(lambda u: g(u) / u, 1.0)
    width = horizon_factor / eps
    return (4.0 * width / np.pi) * quad(lambda s: g(np.cos(s) ** 2), 0.5 * np.pi)


class TestDynamicalPhases:
    def test_free_theory_zero(self):
        phases = dynamical_phase_integrals(H0, np.zeros((2, 2)), 0.1)
        np.testing.assert_allclose(phases, 0.0, atol=1e-12)

    def test_scaling_with_switching_rate(self):
        for shape in ("exp", "smooth"):
            p1 = dynamical_phase_integrals(H0, HI, 0.1, shape)
            p2 = dynamical_phase_integrals(H0, HI, 0.05, shape)
            np.testing.assert_allclose(p2, 2.0 * p1, rtol=1e-10)

    def test_trace_preserved(self):
        # sum of level shifts equals the integrated trace shift: the
        # interaction here is traceless, so phases sum to ~0
        phases = dynamical_phase_integrals(H0, HI, 0.1)
        assert abs(phases.sum()) < 1e-8

    @pytest.mark.parametrize("shape", ["exp", "smooth"])
    @pytest.mark.parametrize("ratio", [0.375, 0.95, 0.99])
    @pytest.mark.parametrize("eps", [0.4, 0.05])
    def test_pt_block_matches_closed_form(self, shape, ratio, eps):
        # levels +-sqrt(a^2 - u^2 b^2) of a sigma_z + i u b sigma_x
        a, b = 2.0, 2.0 * ratio
        level = lambda u: np.sqrt(a**2 - (u * b) ** 2)
        reference = _phase_closed_form(level, eps, shape)
        np.testing.assert_allclose(
            dynamical_phase_integrals(a * SZ, 1j * b * SX, eps, shape),
            [-reference, reference],
            rtol=1e-10,
        )

    def test_crossing_levels_keep_their_phases(self):
        # decoupled blocks: level A = +-sqrt(4 - 3.61 u^2) (PT-symmetric) and
        # level B = +-sqrt(0.25 + 2.25 u^2) (Hermitian) cross near u = 0.8;
        # matching by eigenvalue alone swaps them there
        h0 = scipy.linalg.block_diag(2.0 * SZ, 0.5 * SZ)
        h_int = scipy.linalg.block_diag(1.9j * SX, 1.5 * SX)
        eps = 0.1
        a = lambda u: np.sqrt(4.0 - 3.61 * u**2)
        b = lambda u: np.sqrt(0.25 + 2.25 * u**2)
        # free levels in (real, imag) order: -2 (A), -0.5 (B), 0.5 (B), 2 (A)
        branches = [lambda u: -a(u), lambda u: -b(u), b, a]
        for shape, rounded in (
            ("exp", [10.654, -14.294, 14.294, -10.654]),
            ("smooth", [106.369, -111.768, 111.768, -106.369]),
        ):
            reference = [_phase_closed_form(e, eps, shape) for e in branches]
            np.testing.assert_allclose(reference, rounded, atol=1e-3)
            np.testing.assert_allclose(
                dynamical_phase_integrals(h0, h_int, eps, shape), reference, rtol=1e-10
            )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rotate=st.booleans(),
        shape=st.sampled_from(["exp", "smooth"]),
    )
    def test_decoupled_blocks_match_per_block_phases(self, seed, rotate, shape):
        # a PT-symmetric block and a Hermitian block whose levels may cross:
        # each level of the coupling keeps the phase of its own block
        rng = np.random.default_rng(seed)
        a = rng.uniform(1.5, 2.5)
        pt = (a * SZ, 1j * a * rng.uniform(0.0, 0.95) * SX)
        herm = (rng.uniform(0.2, 1.0) * SZ, random_hermitian(rng, 2, 3.0))
        h0 = scipy.linalg.block_diag(pt[0], herm[0])
        h_int = scipy.linalg.block_diag(pt[1], herm[1])
        if rotate:
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(z)
            h0, h_int = q @ h0 @ q.conj().T, q @ h_int @ q.conj().T
        eps = 0.1
        # per-block phases, ordered by free level like the coupled levels
        free, phases = [], []
        for block_h0, block_int in (pt, herm):
            free.extend(np.sort(np.diag(block_h0).real))
            phases.extend(dynamical_phase_integrals(block_h0, block_int, eps, shape))
        expected = np.asarray(phases)[np.argsort(free)]
        np.testing.assert_allclose(
            dynamical_phase_integrals(h0, h_int, eps, shape), expected, atol=1e-8
        )


def _pt_coupling(dim, levels, ratios, seed):
    """Rotated PT-symmetric blocks ``a sigma_z`` + ``i b sigma_x``, b < a.

    Odd ``dim`` adds one uncoupled free level.  Each block keeps the real
    levels ``+-sqrt(a^2 - u^2 b^2)`` all along the switching path.
    """
    h0 = np.zeros((dim, dim), dtype=complex)
    h_int = np.zeros((dim, dim), dtype=complex)
    for n in range(dim // 2):
        block = slice(2 * n, 2 * n + 2)
        h0[block, block] = levels[n] * SZ
        h_int[block, block] = 1j * ratios[n] * levels[n] * SX
    if dim % 2:
        h0[-1, -1] = levels[-1]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(z)
    return v, v @ h0 @ v.conj().T, v @ h_int @ v.conj().T


class TestMollerIdentityMetric:
    """``s_matrix`` and ``adiabatic_metric`` take Theta(0) from the in-dressing;
    the integrated flow of :func:`helpers.flow_adiabatic_metric` is the oracle."""

    CFG = ScatteringConfig()

    @settings(max_examples=6, deadline=None)
    @given(
        dim=st.integers(2, 4),
        levels=st.lists(st.floats(0.8, 2.5), min_size=2, max_size=2, unique=True),
        ratios=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2),
        weights=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 2),
        eps=st.floats(0.8, 1.6),
        shape=st.sampled_from(["smooth", "exp"]),
        static=st.booleans(),
    )
    def test_matches_integrated_flow(
        self, dim, levels, ratios, weights, seed, eps, shape, static
    ):
        v, h0, h_int = _pt_coupling(dim, levels, ratios, seed)
        # diagonal in the eigenframe of h0 (static for it) or in a random frame
        q = v if static else _pt_coupling(dim, levels, ratios, seed + 1)[0]
        theta0 = q @ np.diag(weights[:dim]) @ q.conj().T
        result = s_matrix(h0, h_int, eps, theta0, self.CFG, shape)
        oracle = flow_adiabatic_metric(h0, h_int, theta0, eps, self.CFG, shape)
        assert np.max(np.abs(result.theta_adiabatic - oracle)) < 1e-8

    def test_exp_horizon_check_keeps_single_horizon_metric(self):
        # the doubled-horizon dressing differs by the e^-12 damping tail;
        # Theta(0) must pair with the flow's start at the single horizon
        result = s_matrix(H0, HI, 1.6)
        oracle = flow_adiabatic_metric(H0, HI, np.eye(2), 1.6)
        assert np.max(np.abs(result.theta_adiabatic - oracle)) < 1e-8

    @pytest.mark.parametrize("shape", ["smooth", "exp"])
    def test_non_static_theta0_matches_flow(self, shape):
        theta0 = np.eye(2) + 0.3 * SX  # does not commute with H0
        result = s_matrix(H0, HI, 0.8, theta0, self.CFG, shape)
        oracle = flow_adiabatic_metric(H0, HI, theta0, 0.8, self.CFG, shape)
        assert np.max(np.abs(result.theta_adiabatic - oracle)) < 1e-8

    @pytest.mark.parametrize("shape", ["smooth", "exp"])
    def test_adiabatic_metric_is_s_matrix_metric(self, shape):
        # the same mirrored pass and pull-back: equal bit for bit, although
        # s_matrix also runs the horizon-doubling tail on the exp shape
        _, h0, h_int = _pt_coupling(3, [1.2, 2.0], [0.4, 0.3], 7)
        theta0 = np.eye(3) + 0.2 * random_hermitian(np.random.default_rng(3), 3)
        result = s_matrix(h0, h_int, 0.8, theta0, shape=shape)
        theta = adiabatic_metric(h0, h_int, theta0, 0.8, shape=shape)
        assert np.array_equal(theta, result.theta_adiabatic)


def _cf4_dressing(h0, h_int, eps, config, form, direction, shape):
    """The CF4 dressing in :func:`helpers.dp5_dressing`'s terms: ``K`` at the
    far past (-1) or future (+1) horizon, or ``G = K^-1``."""
    k = _dressing(h0, h_int, eps, config, shape, eigenframe(h0))[0 if direction < 0 else 1]
    return k if form == "K" else np.linalg.inv(k)


def _dp5_limit(h0, h_int, eps, config, form, direction, shape):
    """:func:`helpers.dp5_dressing` at the horizon :func:`_dressing` returns:
    the doubled one on the exp shape, whose ``horizon_factor`` moves only
    the horizon."""
    if shape == "exp":
        config = dataclasses.replace(config, horizon_factor=2.0 * config.horizon_factor)
    return dp5_dressing(h0, h_int, eps, config, form, direction, shape)


class TestCF4Dressings:
    """The lab-frame CF4 dressings against the interaction-picture DP5 oracle."""

    CFG = ScatteringConfig()
    ORACLE = ScatteringConfig(rtol=1e-12, atol=1e-14)
    REFERENCE = ScatteringConfig(rtol=1e-13, atol=1e-15)

    @settings(max_examples=16, deadline=None)
    @given(
        dim=st.integers(2, 4),
        levels=st.lists(st.floats(0.8, 2.5), min_size=2, max_size=2, unique=True),
        ratios=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.8, 1.6),
        shape=st.sampled_from(["smooth", "exp"]),
        form_direction=st.sampled_from([("K", -1), ("K", +1), ("G", +1), ("G", -1)]),
    )
    def test_matches_dp5_oracle(self, dim, levels, ratios, seed, eps, shape, form_direction):
        _, h0, h_int = _pt_coupling(dim, levels, ratios, seed)
        form, direction = form_direction
        cf4 = _cf4_dressing(h0, h_int, eps, self.CFG, form, direction, shape)
        oracle = _dp5_limit(h0, h_int, eps, self.ORACLE, form, direction, shape)
        assert np.max(np.abs(cf4 - oracle)) < 1e-9

    @settings(max_examples=16, deadline=None)
    @given(
        dim=st.integers(2, 4),
        levels=st.lists(st.floats(0.8, 2.5), min_size=2, max_size=2, unique=True),
        ratios=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.2, 1.6),
        shape=st.sampled_from(["smooth", "exp"]),
    )
    def test_mirrored_product_is_the_backward_pass(self, dim, levels, ratios, seed, eps, shape):
        # U(0, -T) from the forward stack in reverse order against the
        # inverse of a direct CF4 pass from 0 to -T
        _, h0, h_int = _pt_coupling(dim, levels, ratios, seed)
        switch = _switch_schedule(h0, h_int, eps, shape, self.CFG.horizon_factor)
        a0, a1 = -1j * switch.h0, -1j * switch.h_int
        horizon = self.CFG.horizon_factor / eps
        tols = {"rtol": self.CFG.rtol, "atol": self.CFG.atol}
        (_, mirrored), _ = magnus_cf4(a0, a1, switch.factor, 0.0, horizon, mirror=True, **tols)
        backward, _ = magnus_cf4(a0, a1, switch.factor, 0.0, -horizon, **tols)
        direct = np.linalg.inv(backward)
        assert np.linalg.norm(mirrored - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("shape", ["smooth", "exp"])
    def test_no_less_accurate_than_dp5_default(self, shape):
        _, h0, h_int = _pt_coupling(4, [2.0, 1.1], [0.4, 0.3], 3)
        reference = _dp5_limit(h0, h_int, 0.8, self.REFERENCE, "K", -1, shape)
        dp5 = _dp5_limit(h0, h_int, 0.8, self.CFG, "K", -1, shape)
        cf4 = _cf4_dressing(h0, h_int, 0.8, self.CFG, "K", -1, shape)
        assert np.max(np.abs(cf4 - reference)) <= np.max(np.abs(dp5 - reference))

    def test_quasi_hermitian_free_part(self):
        rng = np.random.default_rng(4)
        h0, _ = random_quasi_hermitian(rng, 3, 3.0)
        h_int = 0.3 * random_hermitian(rng, 3) + 0.2j * random_hermitian(rng, 3)
        for form, direction in (("K", -1), ("G", +1)):
            cf4 = _cf4_dressing(h0, h_int, 1.2, self.CFG, form, direction, "smooth")
            oracle = dp5_dressing(h0, h_int, 1.2, self.ORACLE, form, direction, "smooth")
            assert np.max(np.abs(cf4 - oracle)) < 1e-9

    @pytest.mark.parametrize("shape, integral", [
        ("exp", lambda eps: (1.0 - np.exp(-24.0)) / eps),  # checked: limit at 2T
        ("smooth", lambda eps: 6.0 / eps),                  # width / 2
    ])
    def test_commuting_interaction_closed_form(self, shape, integral):
        # [H_0, H_I] = 0: K = U(0,-T) U_0(-T,0) = exp(-i H_I int_{-T}^0 f)
        h0 = np.diag([2.0, -0.5, 1.0]).astype(complex)
        h_int = np.diag([0.3 + 0.1j, -0.2j, 0.4])
        eps = 0.5
        expected = scipy.linalg.expm(-1j * h_int * integral(eps))
        np.testing.assert_allclose(
            moller_minus(h0, h_int, eps, shape=shape), expected, atol=1e-12
        )

    @pytest.mark.parametrize("shape", ["smooth", "exp"])
    def test_free_theory_s_is_identity(self, shape):
        _, h0, _ = _pt_coupling(4, [2.0, 1.1], [0.0, 0.0], 5)
        result = s_matrix(h0, np.zeros((4, 4)), 0.4, shape=shape)
        np.testing.assert_allclose(result.s_matrix, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("shape, tail", [("smooth", False), ("exp", True)])
    def test_horizon_tail_only_inside_support(self, shape, tail):
        # the smooth horizon is its support: the doubled-horizon segment
        # would integrate the free motion, so the dressing skips it
        dressed = _dressing(H0, HI, 0.8, self.CFG, shape, eigenframe(H0))
        switch = _switch_schedule(H0, HI, 0.8, shape, self.CFG.horizon_factor)
        (_, u_in), single = _mirrored_pass(switch, 0.0, self.CFG.horizon_factor / 0.8, self.CFG)
        assert (dressed[3]["steps"] > single["steps"]) == tail
        if not tail:
            assert dressed[3] == single
            np.testing.assert_array_equal(dressed[2], u_in)

    def test_result_carries_deterministic_solver_stats(self):
        first = s_matrix(H0, HI, 0.8).solver_stats
        assert first == s_matrix(H0, HI, 0.8).solver_stats
        stats = first["dressings"]
        assert stats["steps"] > 0
        assert stats["exponentials"] >= 2 * stats["steps"]
        assert 0.0 < stats["error_estimate"] < 1e-9
