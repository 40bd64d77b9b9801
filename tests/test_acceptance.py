"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is fixed here, not tuned elsewhere.
"""

import math
import time

import numpy as np
import scipy.linalg

from adiametric.metric_flow import (
    SolverConfig,
    eigenbasis_coefficients,
    evolve_metric,
    evolve_metric_via_propagator,
    hermitian_representation,
    quasi_hermiticity_residual,
    static_metric,
)
from adiametric.moyal import (
    ANSATZ_NAMES,
    P,
    PhasePolynomial,
    Q,
    cubic_linear_switch_evolve,
    harmonic_transport_check,
    linear_switch_closed_form,
    moyal_product,
    star_flow_rhs,
)
from adiametric.operator_core import biorthogonal_decompose
from adiametric.scattering import ScatteringConfig, s_matrix
from adiametric.switching import Constant, extrapolate_to_zero
from adiametric.two_level import ramp_experiment

from helpers import (
    SX,
    SZ,
    normal_ordered_exp,
    picard_iterate,
    random_bounded_nonhermitian,
    random_hermitian,
    random_quasi_hermitian,
    two_level_matrix,
)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}  ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_closed_form_regression():
    started = time.perf_counter()
    g = 0.1
    worst = 0.0
    for duration in (math.pi, 10.0, 100.0):
        pts = [duration / 4, duration / 2, duration]
        traj = cubic_linear_switch_evolve(g, duration, t_eval=pts)
        for k, t in enumerate(pts):
            exact = linear_switch_closed_form(g, duration, t)
            # relative per coefficient, floored at the g/T coefficient scale
            scale = np.maximum(np.abs(exact), g / duration)
            worst = max(worst, float(np.max(np.abs(traj.values[k] - exact) / scale)))
    spot = linear_switch_closed_form(g, math.pi, math.pi)[ANSATZ_NAMES.index("p3")]
    spot_ok = abs(spot - 1.0 / 15.0) < 1e-12
    elapsed = time.perf_counter() - started
    report(
        1,
        "closed-form regression of the switched cubic metric",
        worst < 1e-6 and spot_ok and elapsed < 5.0,
        f"worst rel {worst:.2e}, spot p3(pi)={spot:.12f}, {elapsed:.2f}s",
    )


def test_criterion_02_cubic_adiabatic_limit():
    g = 0.1
    envelopes = {}
    endpoint_errors = []
    for duration in (40.0, 80.0):
        traj = cubic_linear_switch_evolve(g, duration)
        window = traj.times >= duration - math.pi
        envelopes[duration] = {
            name: float(np.max(np.abs(traj.coefficient(name)[window])))
            for name in ("p2q", "q3")
        }
        final = traj.values[-1]
        endpoint_errors.append(
            (
                duration,
                abs(final[ANSATZ_NAMES.index("pq2")] - g) / g,
                abs(final[ANSATZ_NAMES.index("p3")] - 2 * g / 3) / (2 * g / 3),
            )
        )
    ratios = [envelopes[80.0][n] / envelopes[40.0][n] for n in ("p2q", "q3")]
    ratio_ok = all(0.4 <= r <= 0.6 for r in ratios)
    conv_ok = all(
        e_pq2 < 2.0 / duration and e_p3 < 2.0 / duration
        for duration, e_pq2, e_p3 in endpoint_errors
    )
    report(
        2,
        "adiabatic limit of the cubic metric (two surviving terms)",
        ratio_ok and conv_ok,
        f"envelope ratios {ratios[0]:.3f}/{ratios[1]:.3f}, "
        f"endpoint errors {endpoint_errors[-1][1]:.2e}/{endpoint_errors[-1][2]:.2e}",
    )


def test_criterion_03_two_level_ramp_ladder():
    started = time.perf_counter()
    cfg = SolverConfig(rtol=1e-8, atol=1e-11, samples=201)
    devs = {T: ramp_experiment(T, config=cfg).deviation for T in (1, 3, 10, 30, 100)}
    ladder = [devs[T] for T in (1, 3, 10, 30, 100)]
    monotone = all(a >= b for a, b in zip(ladder, ladder[1:]))
    elapsed = time.perf_counter() - started
    report(
        3,
        "slow-vs-fast ramp deviation ladder",
        devs[100] < 0.05 and devs[1] > 0.3 and monotone and elapsed < 2.0,
        f"dev(1)={devs[1]:.3f}, dev(100)={devs[100]:.4f}, "
        f"monotone={monotone}, {elapsed:.2f}s",
    )


def test_criterion_04_conservation_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t_final = 10.0
    for k in range(20):
        dim = int(rng.integers(2, 7))
        h, s = random_quasi_hermitian(rng, dim, scale=1.5)
        bump = random_hermitian(rng, dim, 0.2)
        theta0 = s.conj().T @ s + bump @ bump.conj().T
        traj = evolve_metric(
            Constant(h), theta0, 0.0, t_final,
            SolverConfig(rtol=1e-11, atol=1e-13, samples=2),
        )
        u = scipy.linalg.expm(-1j * h * t_final)
        worst = max(
            worst,
            float(np.linalg.norm(u.conj().T @ traj.final @ u - theta0)),
        )
    report(
        4,
        "probability conservation through the evolved metric",
        worst < 1e-6,
        f"worst ||U^dag Theta(10) U - Theta(0)|| = {worst:.2e} over 20 fixtures",
    )


def test_criterion_05_solver_cross_validation():
    rng = np.random.default_rng(7)
    t = 1.0
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        h = random_bounded_nonhermitian(rng, dim, 0.2, 0.2)
        assert np.linalg.norm(h - h.conj().T) * t <= 0.5
        theta0 = np.eye(dim, dtype=complex)
        outs = [
            evolve_metric(
                Constant(h), theta0, 0.0, t, SolverConfig(rtol=1e-11, atol=1e-13)
            ).final,
            evolve_metric_via_propagator(Constant(h), theta0, 0.0, t, 400).final,
            picard_iterate(h, theta0, t, 8),
            normal_ordered_exp(h, t, 12),
        ]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                worst = max(worst, float(np.max(np.abs(outs[i] - outs[j]))))
    report(
        5,
        "four metric solvers agree pairwise",
        worst < 1e-6,
        f"worst pairwise deviation {worst:.2e} over 10 fixtures",
    )


def test_criterion_06_eigenbasis_law():
    rng = np.random.default_rng(11)
    drift_worst = 0.0
    for _ in range(5):
        dim = int(rng.integers(2, 5))
        h, s = random_quasi_hermitian(rng, dim, scale=1.0)
        sys = biorthogonal_decompose(h)
        theta0 = s.conj().T @ s
        traj = evolve_metric(
            Constant(h), theta0, 0.0, 10.0,
            SolverConfig(rtol=1e-12, atol=1e-14, samples=41),
        )
        coeffs0 = eigenbasis_coefficients(sys, theta0)
        for m in traj.metrics:
            c = eigenbasis_coefficients(sys, m)
            drift_worst = max(
                drift_worst,
                float(np.max(np.abs(np.diag(c) - np.diag(coeffs0)))),
                float(np.max(np.abs(np.abs(c) - np.abs(coeffs0)))),
            )

    # complex spectrum: growth rate of the metric norm
    h = two_level_matrix([0, 2, 0, 0], [0, 0, 0, 3])
    rate = 2.0 * float(np.max(np.linalg.eigvals(h).imag))
    traj = evolve_metric(
        Constant(h), np.eye(2), 0.0, 10.0,
        SolverConfig(rtol=1e-10, atol=1e-13, samples=201),
    )
    mask = traj.times >= 5.0
    slope = np.polyfit(
        traj.times[mask], [math.log(np.linalg.norm(m)) for m in traj.metrics[mask]], 1
    )[0]
    rate_ok = abs(slope - rate) / rate < 0.05
    report(
        6,
        "eigenbasis coefficient law (conservation and growth)",
        drift_worst < 1e-8 and rate_ok,
        f"worst drift {drift_worst:.2e}, growth slope {slope:.4f} vs {rate:.4f}",
    )


def test_criterion_07_scattering_ladder():
    h0 = 2.0 * SZ
    h_int = 0.75j * SX
    cfg = ScatteringConfig(rtol=1e-10, atol=1e-13)

    free = s_matrix(h0, np.zeros((2, 2)), 0.1, config=cfg)
    free_ok = float(np.max(np.abs(free.s_matrix - np.eye(2)))) < 1e-12

    ladder = [0.4, 0.2, 0.1, 0.05]
    runs = [s_matrix(h0, h_int, eps, config=cfg) for eps in ladder]
    defects = [r.unitarity_defect for r in runs]
    decreasing = all(a > b for a, b in zip(defects, defects[1:]))
    extrapolated = float(extrapolate_to_zero(ladder, defects))

    smooth = [s_matrix(h0, h_int, eps, config=cfg, shape="smooth") for eps in ladder]
    s_exp = extrapolate_to_zero(ladder, [r.phase_renormalized() for r in runs])
    s_smooth = extrapolate_to_zero(ladder, [r.phase_renormalized() for r in smooth])
    shape_gap = float(np.max(np.abs(s_exp - s_smooth)))

    report(
        7,
        "dressed S-matrix: unitarity ladder and switch-shape independence",
        free_ok and decreasing and abs(extrapolated) < 1e-3 and shape_gap < 1e-3,
        f"free {free_ok}, ladder {['%.3e' % d for d in defects]}, "
        f"extrapolated {extrapolated:.2e}, shape gap {shape_gap:.2e}",
    )


def test_criterion_08_hermitization():
    from adiametric.two_level import CrossedRampSchedule, static_solution

    worst = 0.0
    # driven trajectory
    sched = CrossedRampSchedule(duration=10.0)
    theta0 = static_solution(sched.params_at(0.0)).matrix()
    traj = evolve_metric(
        sched, theta0, 0.0, 10.0, SolverConfig(rtol=1e-10, atol=1e-13, samples=201)
    )
    rep = hermitian_representation(traj, sched)
    worst = max(worst, float(rep.hermiticity_defects.max()))
    # constant non-Hermitian trajectory away from the static solution
    rng = np.random.default_rng(5)
    h = random_bounded_nonhermitian(rng, 3, 0.8, 0.5)
    theta0 = np.eye(3, dtype=complex)
    traj = evolve_metric(
        Constant(h), theta0, 0.0, 4.0, SolverConfig(rtol=1e-10, atol=1e-13, samples=81)
    )
    rep = hermitian_representation(traj, Constant(h))
    worst = max(worst, float(rep.hermiticity_defects.max()))
    report(
        8,
        "hermitization of the observable generator along trajectories",
        worst < 1e-6,
        f"worst relative defect of Omega H_obs Omega^-1: {worst:.2e}",
    )


def test_criterion_09_moyal_exactness():
    comm_ok = (
        moyal_product(Q, P) - moyal_product(P, Q) == PhasePolynomial({(0, 0): 1j})
    )

    rng = np.random.default_rng(3)

    def random_dyadic(max_degree=4):
        terms = {}
        for _ in range(int(rng.integers(1, 6))):
            i = int(rng.integers(0, max_degree + 1))
            j = int(rng.integers(0, max_degree + 1 - i))
            terms[(i, j)] = complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 2
        return PhasePolynomial(terms)

    assoc_ok = True
    for _ in range(20):
        f, g, k = random_dyadic(), random_dyadic(), random_dyadic()
        assoc_ok = assoc_ok and (
            moyal_product(moyal_product(f, g), k)
            == moyal_product(f, moyal_product(g, k))
        )

    h0 = PhasePolynomial({(2, 0): 1, (0, 2): 1})
    rot_ok = True
    for i in range(7):
        for j in range(7 - i):
            m = PhasePolynomial.monomial(i, j)
            rhs = (Q.pointwise_mul(m.diff_p()) - P.pointwise_mul(m.diff_q())).scale(2)
            rot_ok = rot_ok and star_flow_rhs(m, h0) == rhs

    theta = PhasePolynomial({(3, 0): 0.75, (1, 2): -2, (0, 1): 1.25})
    periodic_ok = (
        harmonic_transport_check(theta, math.pi) == theta
        and harmonic_transport_check(theta, 2 * math.pi) == theta
    )

    report(
        9,
        "star-product algebra holds exactly",
        comm_ok and assoc_ok and rot_ok and periodic_ok,
        f"commutator {comm_ok}, associativity {assoc_ok}, "
        f"rotation field {rot_ok}, pi-periodic transport {periodic_ok}",
    )


def test_criterion_10_static_metric_residuals():
    worst = quasi_hermiticity_residual(
        two_level_matrix([0, 4, 0, 0], [0, 0, 0, 3]),
        np.eye(2) + 0.75 * np.array([[0, -1j], [1j, 0]]),
    )
    rng = np.random.default_rng(42)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        h, _ = random_quasi_hermitian(rng, dim, scale=1.5)
        sys = biorthogonal_decompose(h)
        theta = static_metric(sys, rng.uniform(0.5, 2.0, size=dim))
        worst = max(worst, quasi_hermiticity_residual(h, theta))
        assert np.linalg.eigvalsh(theta)[0] > 0
    report(
        10,
        "static metrics satisfy the intertwining relation",
        worst < 1e-10,
        f"worst residual {worst:.2e} over the closed form and 20 fixtures",
    )
