"""Stepper sanity: accuracy, direction, forced stops, failure mode."""

import numpy as np
import pytest

from adiametric._integrate import solve_ode
from adiametric.errors import SolverError, StepSizeUnderflow


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
