"""Integrator sanity: accuracy, order, direction, forced stops, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiametric import _integrate
from adiametric._integrate import _cf4_propagator, magnus_cf4, solve_ode
from adiametric.errors import SolverError, StepSizeUnderflow

from helpers import SX, SZ, dp5_solve_ode

# the solve_ode contract holds for the package's DOP853 stepper and for the
# DP5 stepper the tests keep as an oracle
steppers = pytest.mark.parametrize(
    "stepper", [solve_ode, dp5_solve_ode], ids=["dop853", "dp5"]
)


@steppers
def test_scalar_exponential_accuracy(stepper):
    sol = stepper(lambda t, y: -y, 0.0, 5.0, np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert abs(sol.states[-1][0] - np.exp(-5.0)) < 1e-9


@steppers
def test_matrix_rotation_accuracy(stepper):
    # y' = i w y on a matrix state: entrywise phase rotation
    w = 3.0
    y0 = np.array([[1.0 + 0j, 2.0], [0.5j, -1.0]])
    sol = stepper(lambda t, y: 1j * w * y, 0.0, 2.0, y0, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(sol.states[-1], np.exp(1j * w * 2.0) * y0, atol=1e-9)


@steppers
def test_backward_integration(stepper):
    sol = stepper(lambda t, y: -y, 0.0, -3.0, np.array([1.0]), rtol=1e-10, atol=1e-12)
    assert abs(sol.states[-1][0] - np.exp(3.0)) < 1e-7


@steppers
def test_t_eval_sampling_exact_times(stepper):
    t_eval = np.linspace(0.0, 1.0, 11)
    sol = stepper(
        lambda t, y: np.array([2 * t]), 0.0, 1.0, np.array([0.0]),
        t_eval=t_eval, rtol=1e-10, atol=1e-14,
    )
    np.testing.assert_array_equal(sol.times, t_eval)
    np.testing.assert_allclose(
        [s[0] for s in sol.states], t_eval**2, atol=1e-12
    )


@steppers
def test_t_eval_backward_order(stepper):
    t_eval = [-0.5, -1.0, -2.0]
    sol = stepper(
        lambda t, y: -y, 0.0, -2.0, np.array([1.0]),
        t_eval=t_eval, rtol=1e-10, atol=1e-12,
    )
    np.testing.assert_array_equal(sol.times, t_eval)
    np.testing.assert_allclose([s[0] for s in sol.states], np.exp(-np.array(t_eval)))


@steppers
@pytest.mark.parametrize("t_eval, bad", [([-1.0, 0.5, 2.0], "-1"), ([0.5, 2.0], "2")])
def test_t_eval_outside_window_rejected(stepper, t_eval, bad):
    with pytest.raises(SolverError, match=f"t_eval time {bad} lies outside"):
        stepper(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), t_eval=t_eval)


@steppers
@pytest.mark.parametrize(
    "t1, t_eval",
    [(1.0, [0.5, 0.2, 1.0]), (1.0, [0.5, 0.5]), (-1.0, [-0.2, -0.5, -0.3])],
)
def test_t_eval_not_monotone_rejected(stepper, t1, t_eval):
    with pytest.raises(SolverError, match="strictly monotone"):
        stepper(lambda t, y: -y, 0.0, t1, np.array([1.0]), t_eval=t_eval)


@steppers
def test_non_finite_rhs_raises(stepper):
    def rhs(t, y):
        return np.array([np.nan if t > 0.3 else 1.0])

    with pytest.raises(SolverError, match="non-finite right-hand side near t=") as info:
        stepper(rhs, 0.0, 1.0, np.array([0.0]))
    assert not isinstance(info.value, StepSizeUnderflow)


@steppers
def test_breakpoint_kink_handled(stepper):
    # rhs with a corner at t=0.5; hitting it exactly keeps full accuracy
    def rhs(t, y):
        return np.array([1.0 if t < 0.5 else -1.0])

    sol = stepper(
        rhs, 0.0, 1.0, np.array([0.0]), breakpoints=(0.5,), rtol=1e-10, atol=1e-14
    )
    # stages evaluated exactly at the kink see one branch only; accuracy is
    # limited by the local tolerance there, not machine precision
    assert abs(sol.states[-1][0]) < 1e-9


@steppers
def test_post_step_hook_applied(stepper):
    calls = []

    def hook(y):
        calls.append(1)
        return y

    stepper(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), post_step=hook)
    assert len(calls) > 0


@steppers
def test_post_step_hook_maps_every_accepted_state(stepper):
    # a hook that halves the state: each accepted step ends at half of what
    # the flow y' = 0 carried in, and the endpoint sample is the mapped state
    calls = []

    def hook(y):
        calls.append(1)
        return 0.5 * y

    sol = stepper(lambda t, y: 0.0 * y, 0.0, 1.0, np.array([1.0]), post_step=hook)
    assert sol.stats["naccept"] == len(calls)
    assert sol.states[-1][0] == 0.5 ** len(calls)


@steppers
def test_post_step_none_by_keyword(stepper):
    # the calling form of a tracing wrapper that forwards every keyword
    sol = stepper(lambda t, y: -y, 0.0, 1.0, np.array([1.0]), post_step=None)
    assert abs(sol.states[-1][0] - np.exp(-1.0)) < 1e-8


@steppers
def test_step_underflow_raises(stepper):
    # y' = y^2 from y(0)=1 blows up at t=1; no step survives past it
    with pytest.raises(StepSizeUnderflow):
        stepper(lambda t, y: y**2, 0.0, 2.0, np.array([1.0]), rtol=1e-10, atol=1e-12)


@steppers
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    t1=st.floats(-3.0, 3.0).filter(lambda t: abs(t) > 0.1),
)
@example(seed=15531, dim=4, t1=-3.0)  # kappa = 2.2e7: err 5.3e-5, 9.8e-13 kappa |y0|
def test_forward_then_backward_returns_start(stepper, seed, dim, t1):
    # a time-dependent linear rhs with a bounded generator
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim)))
    y0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    def rhs(t, y):
        return (a + np.sin(2.0 * t) * b) @ y

    there = stepper(rhs, 0.0, t1, y0, rtol=1e-11, atol=1e-13).states[-1]
    back = stepper(rhs, t1, 0.0, there, rtol=1e-11, atol=1e-13).states[-1]
    # the round trip amplifies the local errors by the condition number of
    # the propagator, taken here from a separate identity solve
    u = stepper(rhs, 0.0, t1, np.eye(dim, dtype=complex), rtol=1e-11, atol=1e-13)
    kappa = np.linalg.cond(u.states[-1])
    assert np.linalg.norm(back - y0) < 1e-9 * kappa * np.linalg.norm(y0)


# ------------------------------------------------------------------ DOP853


def test_output_times_do_not_force_steps():
    # y'' = -y as a first-order system: 2 or 201 samples, the same steps;
    # each step costs 12 rhs calls (11 when rejected: no first-same-as-last
    # stage), plus 3 for the dense output when a sample falls inside it
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    coarse = solve_ode(rhs, 0.0, 10.0, y0, t_eval=[0.0, 10.0])
    dense_times = np.linspace(0.0, 10.0, 201)
    dense = solve_ode(rhs, 0.0, 10.0, y0, t_eval=dense_times)
    assert dense.stats["naccept"] == coarse.stats["naccept"]
    assert dense.stats["nreject"] == coarse.stats["nreject"]
    np.testing.assert_array_equal(dense.states[-1], coarse.states[-1])
    steps = 12 * coarse.stats["naccept"] + 11 * coarse.stats["nreject"] + 1
    assert coarse.stats["nfev"] == steps
    extra = dense.stats["nfev"] - steps
    assert extra % 3 == 0 and 0 < extra <= 3 * dense.stats["naccept"]
    np.testing.assert_allclose(
        [s[0] for s in dense.states], np.cos(dense_times), rtol=0, atol=1e-8
    )


@pytest.mark.parametrize("degree, exact", [(7, True), (8, False)])
def test_dense_output_is_seventh_order(degree, exact):
    # y' = n t^(n-1): a few big steps, most of the 41 samples interpolated;
    # the 8th-order steps and the 7th-order interpolant reproduce y = t^7 to
    # rounding, but not y = t^8
    t_eval = np.linspace(0.0, 2.0, 41)
    sol = solve_ode(
        lambda t, y: degree * t ** (degree - 1) + 0.0 * y, 0.0, 2.0, np.array([0.0]),
        t_eval=t_eval, rtol=1e-3, atol=1e-3,
    )
    assert sol.stats["naccept"] < 10
    err = np.max(np.abs(np.array(sol.states)[:, 0] - t_eval**degree)) / 2.0**degree
    assert (err < 1e-14) == exact


def test_sample_on_a_breakpoint_takes_the_stepped_state():
    # the stepper lands on the breakpoint, so that sample costs no dense output
    sol = solve_ode(
        lambda t, y: -y, 0.0, 1.0, np.array([1.0]), t_eval=[0.0, 0.25, 1.0],
        breakpoints=(0.25,), rtol=1e-10, atol=1e-12,
    )
    stats = sol.stats
    assert stats["nfev"] == 12 * stats["naccept"] + 11 * stats["nreject"] + 1
    np.testing.assert_allclose(
        [s[0] for s in sol.states], np.exp(-sol.times), rtol=1e-9
    )


@pytest.mark.parametrize("t0, t1", [(0.0, 2.0), (2.0, 0.0)], ids=["forward", "backward"])
def test_stops_keep_breakpoints_strictly_inside_the_window(t0, t1):
    # on the ends (0, 2), outside (-1, 3) or repeated (0.5): only 0.5 and 1.5 stay
    stops = _integrate._stops([3.0, 1.5, 0.0, 0.5, -1.0, 2.0, 0.5], t0, t1)
    assert stops == ([0.5, 1.5] if t1 > t0 else [1.5, 0.5]) + [t1]
    assert _integrate._stops([0.0, 1.0], 1.0, 1.0) == [1.0]


def test_tableau_matches_scipy_transcription():
    from scipy.integrate._ivp import dop853_coefficients as coeffs

    n = coeffs.N_STAGES
    np.testing.assert_allclose(_integrate._A, coeffs.A, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_integrate._C, coeffs.C, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_integrate._B, coeffs.B, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_integrate._E3, coeffs.E3[:n], rtol=0, atol=1e-15)
    np.testing.assert_allclose(_integrate._E5, coeffs.E5[:n], rtol=0, atol=1e-15)
    np.testing.assert_allclose(_integrate._D, coeffs.D, rtol=0, atol=1e-15)
    # scipy pads the error rows with a zero weight on the FSAL stage
    assert coeffs.E3[n] == coeffs.E5[n] == 0.0


def test_tableau_row_sums_are_nodes():
    # c = A 1 for every stage, the dense-output ones included, to the
    # rounding of the transcribed coefficients
    for row, c in zip(_integrate._A, _integrate._C):
        assert abs(math.fsum(row) - c) <= 1e-15 * math.fsum(abs(row))


# ------------------------------------------------------------------ CF4

# H = 2 sigma_z + f(t) 0.75i sigma_x with a factor smooth away from t = 0
A0, A1 = -2.0j * SZ, 0.75 * SX


def _factor(t):
    return np.exp(-0.3 * np.abs(t)) * (1.0 + 0.5 * np.sin(t))


def _dp5_propagator(f, t0, t1, a0=A0, a1=A1, rtol=1e-13, atol=1e-15):
    return dp5_solve_ode(
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


@pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                    (-math.inf, 0.0)],
                         ids=["nan-end", "nan-start", "inf-end", "inf-start"])
def test_cf4_non_finite_window_raises(t0, t1):
    # math.ceil once raised an untyped ValueError or OverflowError
    with pytest.raises(SolverError, match="non-finite CF4 window"):
        magnus_cf4(A0, A1, _factor, t0, t1)


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
