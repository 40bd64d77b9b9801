"""Integrator sanity: accuracy, order, direction, forced stops, failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiametric import _integrate
from adiametric._integrate import _cf4_propagator, magnus_cf4, solve_ode
from adiametric.errors import SolverError, StepSizeUnderflow

from helpers import SX, SZ


def test_scalar_exponential_accuracy():
    sol = solve_ode(lambda t, y: -y, 0.0, 5.0, np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert abs(sol.states[-1][0] - np.exp(-5.0)) < 1e-9


def test_matrix_rotation_accuracy():
    # y' = i w y on a matrix state: entrywise phase rotation
    w = 3.0
    y0 = np.array([[1.0 + 0j, 2.0], [0.5j, -1.0]])
    sol = solve_ode(lambda t, y: 1j * w * y, 0.0, 2.0, y0, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(sol.states[-1], np.exp(1j * w * 2.0) * y0, atol=1e-9)


def test_backward_integration():
    sol = solve_ode(lambda t, y: -y, 0.0, -3.0, np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert abs(sol.states[-1][0] - np.exp(3.0)) < 1e-7


def test_t_eval_sampling_exact_times():
    t_eval = np.linspace(0.0, 1.0, 11)
    sol = solve_ode(
        lambda t, y: np.array([2 * t]), 0.0, 1.0, np.array([0.0]),
        t_eval=t_eval, rtol=1e-10, atol=1e-14,
    )
    np.testing.assert_array_equal(sol.times, t_eval)
    np.testing.assert_allclose(
        [s[0] for s in sol.states], t_eval**2, atol=1e-12
    )


def test_t_eval_backward_order():
    t_eval = [-0.5, -1.0, -2.0]
    sol = solve_ode(
        lambda t, y: -y, 0.0, -2.0, np.array([1.0]),
        t_eval=t_eval, rtol=1e-10, atol=1e-12,
    )
    np.testing.assert_array_equal(sol.times, t_eval)
    np.testing.assert_allclose([s[0] for s in sol.states], np.exp(-np.array(t_eval)))


@pytest.mark.parametrize("t_eval, bad", [([-1.0, 0.5, 2.0], "-1"), ([0.5, 2.0], "2")])
def test_t_eval_outside_window_rejected(t_eval, bad):
    with pytest.raises(SolverError, match=f"t_eval time {bad} lies outside"):
        solve_ode(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), t_eval=t_eval)


@pytest.mark.parametrize(
    "t1, t_eval",
    [(1.0, [0.5, 0.2, 1.0]), (1.0, [0.5, 0.5]), (-1.0, [-0.2, -0.5, -0.3])],
)
def test_t_eval_not_monotone_rejected(t1, t_eval):
    with pytest.raises(SolverError, match="strictly monotone"):
        solve_ode(lambda t, y: -y, 0.0, t1, np.array([1.0]), t_eval=t_eval)


def test_non_finite_rhs_raises():
    def rhs(t, y):
        return np.array([np.nan if t > 0.3 else 1.0])

    with pytest.raises(SolverError, match="non-finite right-hand side near t=") as info:
        solve_ode(rhs, 0.0, 1.0, np.array([0.0]))
    assert not isinstance(info.value, StepSizeUnderflow)


def test_breakpoint_kink_handled():
    # rhs with a corner at t=0.5; hitting it exactly keeps full accuracy
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else -1.0])

    sol = solve_ode(
        rhs, 0.0, 1.0, np.array([0.0]), breakpoints=(0.5,), rtol=1e-10, atol=1e-14
    )
    # stages evaluated exactly at the kink see one branch only; accuracy is
    # limited by the local tolerance there, not machine precision
    assert abs(sol.states[-1][0]) < 1e-9


def test_post_step_hook_applied():
    calls = []

    def hook(y):
        calls.append(1)
        return y

    solve_ode(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), post_step=hook)
    assert len(calls) > 0


def test_step_underflow_raises():
    # y' = y^2 from y(0)=1 blows up at t=1; no step survives past it
    with pytest.raises(StepSizeUnderflow):
        solve_ode(lambda t, y: y**2, 0.0, 2.0, np.array([1.0]), rtol=1e-10, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    t1=st.floats(-3.0, 3.0).filter(lambda t: abs(t) > 0.1),
)
def test_forward_then_backward_returns_start(seed, dim, t1):
    # a time-dependent linear rhs with a bounded generator
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim)))
    y0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    def rhs(t, y):
        return (a + np.sin(2.0 * t) * b) @ y

    there = solve_ode(rhs, 0.0, t1, y0, rtol=1e-11, atol=1e-13).states[-1]
    back = solve_ode(rhs, t1, 0.0, there, rtol=1e-11, atol=1e-13).states[-1]
    scale = max(1.0, np.linalg.norm(there))
    assert np.linalg.norm(back - y0) < 1e-7 * scale * np.linalg.norm(y0)


# ------------------------------------------------------------------ CF4

# H = 2 sigma_z + f(t) 0.75i sigma_x with a factor smooth away from t = 0
A0, A1 = -2.0j * SZ, 0.75 * SX


def _factor(t):
    return np.exp(-0.3 * np.abs(t)) * (1.0 + 0.5 * np.sin(t))


def _dp5_propagator(f, t0, t1, a0=A0, a1=A1, rtol=1e-13, atol=1e-15):
    return solve_ode(
        lambda t, u: (a0 + f(t) * a1) @ u, t0, t1, np.eye(len(a0), dtype=complex),
        rtol=rtol, atol=atol,
    ).states[-1]


def test_cf4_matches_dp5():
    u, stats = magnus_cf4(A0, A1, _factor, 0.0, 6.0, rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(u, _dp5_propagator(_factor, 0.0, 6.0), atol=1e-10)
    assert stats["error_estimate"] <= 2 * 1e-13 + 1e-10 * np.linalg.norm(u)
    assert stats["exponentials"] >= 2 * stats["steps"]


def test_cf4_backward_is_inverse_of_forward():
    forward, _ = magnus_cf4(A0, A1, _factor, 0.5, 4.0, rtol=1e-11, atol=1e-14)
    backward, _ = magnus_cf4(A0, A1, _factor, 4.0, 0.5, rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(backward @ forward, np.eye(2), atol=1e-10)


def _observed_orders(weights, monkeypatch):
    monkeypatch.setattr(_integrate, "_CF4_WEIGHTS", weights)
    ref = _dp5_propagator(_factor, 0.0, 6.0)
    errors = [
        np.linalg.norm(_cf4_propagator(A0, A1, _factor, 0.0, 6.0, n) - ref)
        for n in (20, 40, 80)
    ]
    return [errors[i] / errors[i + 1] for i in range(2)]


def test_cf4_is_fourth_order(monkeypatch):
    ratios = _observed_orders(_integrate._CF4_WEIGHTS, monkeypatch)
    for ratio in ratios:
        assert 13.0 < ratio < 19.0  # 2^4 per halving of h


def test_reversed_exponentials_are_second_order(monkeypatch):
    # the order test tells the two products apart
    ratios = _observed_orders(_integrate._CF4_WEIGHTS[::-1], monkeypatch)
    for ratio in ratios:
        assert 3.0 < ratio < 5.0  # 2^2 per halving of h


@pytest.mark.parametrize("steps", [40, 80])
def test_cf4_error_estimate_tracks_true_error(steps):
    ref = _dp5_propagator(_factor, 0.0, 6.0)
    coarse = _cf4_propagator(A0, A1, _factor, 0.0, 6.0, steps // 2)
    fine = _cf4_propagator(A0, A1, _factor, 0.0, 6.0, steps)
    estimate = np.linalg.norm(fine - coarse) / 15.0
    true = np.linalg.norm(fine - ref)
    assert 0.5 < estimate / true < 2.0


def test_cf4_through_exceptional_point():
    # H = sigma_z + f i sigma_x is defective at f = 1 (t = 0) and its
    # eigenvector matrix ill-conditioned nearby; the Taylor exponentials
    # need no eigenvectors (exponentials taken as V exp(D) V^-1 from eig
    # miss the reference by 3e-11 here)
    a0, a1 = -1j * SZ, 1.0 * SX
    assert np.linalg.cond(np.linalg.eig(SZ + 1j * SX)[1]) > 1e12

    def f(t):
        return np.cos(0.5 * np.pi * t) ** 2

    u, _ = magnus_cf4(a0, a1, f, -1.0, 0.5, rtol=1e-11, atol=1e-14)
    np.testing.assert_allclose(u, _dp5_propagator(f, -1.0, 0.5, a0, a1), atol=1e-12)


def test_cf4_step_cap_raises(monkeypatch):
    monkeypatch.setattr(_integrate, "MAGNUS_MAX_STEPS", 64)
    with pytest.raises(SolverError, match="CF4 needs more than 64 steps"):
        magnus_cf4(A0, A1, _factor, 0.0, 6.0, rtol=1e-10, atol=1e-13)


def test_cf4_non_finite_factor_raises():
    with pytest.raises(SolverError, match="non-finite switch factor"):
        magnus_cf4(A0, A1, lambda t: np.where(t > 1.0, np.nan, 1.0), 0.0, 2.0)


def test_cf4_empty_interval_is_identity():
    u, stats = magnus_cf4(A0, A1, _factor, 1.0, 1.0)
    np.testing.assert_array_equal(u, np.eye(2))
    assert stats["steps"] == 0


def test_cf4_dense_output_ends_at_the_endpoint_result():
    tols = {"rtol": 1e-10, "atol": 1e-13}
    u, stats = magnus_cf4(A0, A1, _factor, 0.0, 6.0, **tols)
    one, one_stats = magnus_cf4(A0, A1, _factor, 0.0, 6.0, samples=1, **tols)
    np.testing.assert_array_equal(one[0], np.eye(2))
    np.testing.assert_array_equal(one[-1], u)
    assert one_stats == stats
    dense, dense_stats = magnus_cf4(A0, A1, _factor, 0.0, 6.0, samples=7, **tols)
    assert dense.shape == (8, 2, 2)
    assert dense_stats["steps"] % 7 == 0
    np.testing.assert_allclose(dense[-1], u, atol=1e-10)
    for j, t in enumerate(np.linspace(0.0, 6.0, 8)):
        np.testing.assert_allclose(dense[j], _dp5_propagator(_factor, 0.0, t), atol=1e-10)


def test_cf4_dense_output_with_samples_longer_than_a_chunk():
    # 2 samples over >= 600 steps each: every sample spans several chunks
    tols = {"rtol": 1e-10, "atol": 1e-13}
    dense, stats = magnus_cf4(A0, A1, _factor, 0.0, 600.0, samples=2, **tols)
    assert stats["steps"] // 2 > _integrate.PATH_CHUNK
    half, _ = magnus_cf4(A0, A1, _factor, 0.0, 300.0, **tols)
    whole, _ = magnus_cf4(A0, A1, _factor, 0.0, 600.0, **tols)
    np.testing.assert_allclose(dense[1], half, atol=1e-9)
    np.testing.assert_allclose(dense[2], whole, atol=1e-9)


def test_cf4_keeps_real_generators_real():
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a1 = np.array([[0.3, 0.0], [1.0, -0.2]])
    u, _ = magnus_cf4(a0, a1, np.sin, 0.0, 3.0, rtol=1e-11, atol=1e-14)
    assert u.dtype == np.float64
    np.testing.assert_allclose(u, _dp5_propagator(np.sin, 0.0, 3.0, a0, a1), atol=1e-10)
