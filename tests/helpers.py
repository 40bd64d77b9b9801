"""Shared fixture builders for the test suite."""

import math
import numbers
from fractions import Fraction

import numpy as np

from adiametric._integrate import OdeSolution
from adiametric.errors import ConfigError, DimensionMismatch, SolverError, StepSizeUnderflow
from adiametric.metric_flow import (
    MetricTrajectory,
    SolverConfig,
    _accumulate_propagator,
    _metric_normalized,
    evolve_metric,
)
from adiametric.operator_core import (
    PATH_CHUNK,
    _expm_stack,
    _hermitian_part,
    _operator_pair,
    _require_hermitian,
    _require_real_spectrum,
    as_operator,
)
from adiametric.scattering import ScatteringConfig, _switch_schedule

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (a + a.conj().T)
    return scale * h / np.linalg.norm(h)


def random_quasi_hermitian(rng, dim, scale=1.0, mixing=0.3):
    """Conjugated Hermitian matrix: real spectrum guaranteed.

    Returns ``(H, S)`` with ``H = S^-1 h S`` for a Hermitian positive S
    (so ``S^dag S = S^2`` is a static metric for H).  Taking S Hermitian
    with spectrum in ``[1 - mixing, 1 + mixing]`` keeps the eigenvector
    condition of H bounded by cond(S) independently of spectral gaps,
    which is what makes tight residual bounds meaningful for random
    fixtures.
    """
    h = random_hermitian(rng, dim, scale)
    s = np.eye(dim) + mixing * random_hermitian(rng, dim)
    return np.linalg.solve(s, h @ s), s


def random_bounded_nonhermitian(rng, dim, herm_scale=0.2, anti_scale=0.2):
    """H = A + iB with controlled Hermitian/anti-Hermitian norms."""
    return random_hermitian(rng, dim, herm_scale) + 1j * random_hermitian(
        rng, dim, anti_scale
    )


def two_level_matrix(v, w):
    """Compose 2x2 from real 4-vectors without importing the package twice."""
    from adiametric.two_level import TwoLevelParams, pauli_compose

    return pauli_compose(TwoLevelParams(v=np.asarray(v, float), w=np.asarray(w, float)))


def entrywise_sum(coeffs, rows):
    """``sum_j coeffs[j] rows[j]`` over the leading ``len(coeffs)`` rows, each
    real and imaginary part summed row by row in the same order: the oracle
    for the BLAS combinations of ``solve_ode`` (``_integrate._combine``)."""
    flat = rows[: len(coeffs)].reshape(len(coeffs), -1)
    out = (coeffs[:, None] * flat.view(flat.real.dtype)).sum(axis=0)
    return out.view(rows.dtype).reshape(rows.shape[1:])


# ------------------------------------------------------------ DP5 oracle
# The adaptive Dormand-Prince 5(4) stepper the package ran before DOP853,
# kept as an independent integrator for the oracles below.

# Dormand-Prince 5(4) tableau, written out stage by stage in dp5_solve_ode.
# B5 propagates; E = B5 - B4 weighs the embedded error estimate; the last
# stage is FSAL (its nodes are 1 and its weights B5, so it sees y_new).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1 = _B1 - 5179 / 57600
_E3 = _B3 - 7571 / 16695
_E4 = _B4 - 393 / 640
_E5 = _B5 + 92097 / 339200
_E6 = _B6 - 187 / 2100
_E7 = -1 / 40

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9


def _error_norm(err, y_old, y_new, rtol, atol):
    """RMS over entries of ``|err| / (atol + rtol max(|y_old|, |y_new|))``."""
    q = np.abs(err).ravel()
    q /= atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new)).ravel()
    return math.sqrt(np.dot(q, q) / q.size)


def dp5_solve_ode(
    rhs,
    t0,
    t1,
    y0,
    *,
    rtol=1e-9,
    atol=1e-12,
    t_eval=None,
    breakpoints=(),
    post_step=None,
):
    """Integrate ``dy/dt = rhs(t, y)`` from t0 to t1 (either direction).

    Returns an :class:`OdeSolution` sampled at ``t_eval`` (default: the
    endpoint only).  ``t_eval`` must lie in ``[t0, t1]`` and be strictly
    monotone in the direction of integration; samples come back in that
    order.  ``breakpoints`` are interior times the stepper must land on
    exactly.  Raises :class:`SolverError` for a ``t_eval`` that breaks
    these rules or a right-hand side that turns non-finite, and its
    subclass :class:`StepSizeUnderflow` when the error controller stalls.
    """
    direction = 1.0 if t1 >= t0 else -1.0
    if t_eval is None:
        t_eval = np.array([t1], dtype=float)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        outside = ~((t_eval >= min(t0, t1)) & (t_eval <= max(t0, t1)))
        if outside.any():
            raise SolverError(
                f"t_eval time {t_eval[outside][0]:.6g} lies outside [{t0:.6g}, {t1:.6g}]"
            )
        if np.any(np.diff(t_eval) * direction <= 0.0):
            raise SolverError(
                "t_eval must be strictly monotone in the direction of integration"
            )

    y = np.array(y0, copy=True)
    if t1 == t0:
        return OdeSolution(np.array([t0]), [y], {"naccept": 0, "nreject": 0, "nfev": 0})

    span = abs(t1 - t0)

    # Merge output times and interior breakpoints into one forced-stop grid.
    stops = set(float(t) for t in t_eval)
    stops.add(float(t1))
    for b in breakpoints:
        b = float(b)
        if (b - t0) * direction > 0 and (t1 - b) * direction > 0:
            stops.add(b)
    stops = sorted(stops, reverse=direction < 0)
    eval_set = {float(t) for t in t_eval}

    # t0 itself, when requested in t_eval, is emitted by the stop loop below.
    out_times, out_states = [], []
    h_floor = 1e-14 * max(abs(t0), abs(t1), 1.0)
    h = span / 100.0

    t = float(t0)
    k1 = rhs(t, y)
    nfev = 1
    naccept = nreject = 0

    for stop in stops:
        while (stop - t) * direction > 1e-15 * max(abs(stop), 1.0):
            h = min(h, abs(stop - t))
            if h < h_floor:
                raise StepSizeUnderflow(
                    f"step size {h:.3e} underflowed at t={t:.6g} (rtol={rtol:.1e})"
                )
            hs = h * direction
            k2 = rhs(t + _C2 * hs, y + hs * (_A21 * k1))
            k3 = rhs(t + _C3 * hs, y + hs * (_A31 * k1 + _A32 * k2))
            k4 = rhs(t + _C4 * hs, y + hs * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = rhs(
                t + _C5 * hs,
                y + hs * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4),
            )
            k6 = rhs(
                t + hs,
                y + hs * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5),
            )
            y_new = y + hs * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7 = rhs(t + hs, y_new)
            nfev += 6
            err = hs * (
                _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
            )
            enorm = _error_norm(err, y, y_new, rtol, atol)
            if not math.isfinite(enorm):
                raise SolverError(f"non-finite right-hand side near t={t:.6g}")

            if enorm <= 1.0:
                t = t + hs
                if abs(stop - t) <= 1e-15 * max(abs(stop), 1.0):
                    t = stop
                y = y_new
                if post_step is not None:
                    y = post_step(y)
                    k1 = rhs(t, y)
                    nfev += 1
                else:
                    k1 = k7  # FSAL
                naccept += 1
                factor = _MAX_FACTOR if enorm == 0.0 else _SAFETY * enorm ** -0.2
                h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            else:
                nreject += 1
                h *= max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
        if stop in eval_set:
            out_times.append(stop)
            out_states.append(y.copy())

    return OdeSolution(
        np.array(out_times),
        out_states,
        {"naccept": naccept, "nreject": nreject, "nfev": nfev},
    )


def dp5_dressing(h0, h_int, eps, config, form, direction, shape):
    """Interaction-picture DP5 dressing at the horizon: the oracle for CF4.

    ``form="K"`` integrates ``K(t) = U(0,t) U_0(t,0)`` (rhs ``i f K H_I(t)``),
    ``form="G"`` integrates ``G(t) = U_0(0,t) U(t,0)`` (rhs ``-i f H_I(t) G``)
    with ``dp5_solve_ode`` from 0 to ``direction * horizon_factor / eps``.  The
    state lives in the eigenframe of ``H_0 = V diag(E) V^-1``, where
    ``H_I(t)`` is ``V^-1 H_int V`` times the phases ``exp(i (E_m - E_n) t)``
    and the switch factor of ``shape``, and is mapped back at the end.
    """
    from adiametric.operator_core import eigenframe
    from adiametric.scattering import _switch_schedule

    factor = _switch_schedule(h0, h_int, eps, shape, config.horizon_factor).factor
    vals, vecs, vecs_inv = eigenframe(h0)
    h_tilde = vecs_inv @ np.asarray(h_int, dtype=complex) @ vecs
    gap = 1j * (vals[:, None] - vals[None, :])
    if form == "K":

        def rhs(t, k):
            return 1j * factor(t) * (k @ (h_tilde * np.exp(gap * t)))

    else:

        def rhs(t, g):
            return -1j * factor(t) * ((h_tilde * np.exp(gap * t)) @ g)

    sol = dp5_solve_ode(
        rhs,
        0.0,
        direction * config.horizon_factor / eps,
        np.eye(len(vals), dtype=complex),
        rtol=config.rtol,
        atol=config.atol,
    )
    return vecs @ sol.states[-1] @ vecs_inv


def dp5_ramp(times, y0, duration, amplitude=5.0, w3=3.0, rtol=1e-13, atol=1e-15):
    """Crossed-ramp component flow by ``dp5_solve_ode``: the oracle for CF4.

    Integrates ``dy/dt = M(t) y`` from ``y0`` at 0 with the generator of
    :class:`CrossedRampSchedule` (constant after ``duration``), landing on
    ``duration``, and returns the rows at ``times``.
    """
    from adiametric.two_level import CrossedRampSchedule, component_generator

    schedule = CrossedRampSchedule(duration, amplitude=amplitude, w3=w3)
    m_start = component_generator(schedule.params_at(0.0))
    m_slope = component_generator(schedule.params_at(duration)) - m_start
    sol = dp5_solve_ode(
        lambda t, y: (m_start + min(t / duration, 1.0) * m_slope) @ y,
        0.0,
        float(times[-1]),
        np.asarray(y0, dtype=float),
        rtol=rtol,
        atol=atol,
        t_eval=times,
        breakpoints=(duration,),
    )
    return np.array(sol.states)


def dp5_propagator(schedule, t0, t1, rtol, atol):
    """``U(t1, t0)`` of ``dU/dt = -i H(t) U`` by ``dp5_solve_ode``, landing on
    the schedule's breakpoints: the oracle for the CF4 propagator."""
    return dp5_solve_ode(
        lambda t, u: -1j * (schedule.at(t) @ u),
        t0,
        t1,
        np.eye(len(schedule.at(t0)), dtype=complex),
        rtol=rtol,
        atol=atol,
        breakpoints=schedule.breakpoints(),
    ).states[-1]


def evolve_metric_oracle(schedule, theta0, t0, t1, config):
    """Metric flow on the general two-product ``flow_rhs``, re-symmetrized after
    every accepted step: the oracle for ``evolve_metric``.

    Returns the samples at ``config.samples`` uniform times and the solver
    statistics.
    """
    from adiametric.metric_flow import flow_rhs
    from adiametric.operator_core import _hermitian_part

    sol = dp5_solve_ode(
        lambda t, y: flow_rhs(schedule.at(t), y),
        t0,
        t1,
        theta0,
        rtol=config.rtol,
        atol=config.atol,
        t_eval=np.linspace(t0, t1, config.samples),
        breakpoints=schedule.breakpoints(),
        post_step=_hermitian_part,
    )
    return np.array(sol.states), sol.stats


def root_representation(h, theta):
    """``Omega H_obs Omega^-1`` of one sample: Omega by ``hermitian_sqrt``,
    ``H_obs`` by ``observable_hamiltonian`` with dTheta/dt from ``flow_rhs``
    and ``inv`` for Omega^-1."""
    from adiametric.metric_flow import flow_rhs, observable_hamiltonian
    from adiametric.operator_core import hermitian_sqrt

    h_obs = observable_hamiltonian(h, theta, flow_rhs(h, theta))
    omega = hermitian_sqrt(theta)
    return omega @ h_obs @ np.linalg.inv(omega)


def hermitian_representation_oracle(trajectory, schedule):
    """Per-sample Hermitian representation: the oracle for ``hermitian_representation``.

    Every sample on its own: Omega by ``hermitian_sqrt``, ``H_obs`` by
    ``observable_hamiltonian`` with dTheta/dt from ``flow_rhs`` and ``inv``
    for Omega^-1.  The generator residual is the ordering term
    ``(i/2) Omega^-2 [Y, Omega]``, with ``Y = dOmega/dt`` from a Kronecker
    solve of ``Omega Y + Y Omega = dTheta/dt``, which uses no eigenbasis.
    Returns ``(h_ops, hermiticity_defects, generator_residuals)`` and raises
    what those functions raise, sample by sample.
    """
    from adiametric.metric_flow import flow_rhs
    from adiametric.operator_core import hermitian_sqrt

    h_ops, defects, residuals = [], [], []
    for t, theta in zip(trajectory.times, trajectory.metrics):
        h = schedule.at(t)
        theta_dot = flow_rhs(h, theta)
        h_rep = root_representation(h, theta)
        omega = hermitian_sqrt(theta)
        h_ops.append(h_rep)
        defects.append(np.linalg.norm(h_rep - h_rep.conj().T)
                       / max(np.linalg.norm(h_rep), 1e-300))
        # row-major vec: vec(Omega Y) = (Omega (x) I) vec Y, vec(Y Omega) = (I (x) Omega^T) vec Y
        eye = np.eye(len(omega))
        sylvester = np.kron(omega, eye) + np.kron(eye, omega.T)
        omega_dot = np.linalg.solve(sylvester, theta_dot.ravel()).reshape(omega.shape)
        ordering = 0.5j * np.linalg.solve(theta, omega_dot @ omega - omega @ omega_dot)
        residuals.append(np.linalg.norm(ordering) / max(np.linalg.norm(h), 1.0))
    return np.array(h_ops), np.array(defects), np.array(residuals)


def cholesky_gauge(theta):
    """``Q = L^dagger Omega^-1`` with ``Theta = L L^dagger`` and ``Omega = Theta^(1/2)``.

    Q is unitary (``Q Q^dagger = L^dagger Theta^-1 L = I``) and moves a
    representation in the principal-root gauge to the Cholesky gauge:
    ``L^dagger H_obs L^-dagger = Q (Omega H_obs Omega^-1) Q^dagger``.
    """
    from adiametric.operator_core import hermitian_sqrt

    low = np.linalg.cholesky(0.5 * (theta + theta.conj().T))
    return np.linalg.solve(hermitian_sqrt(theta).T, low.conj()).T


def metric_correction_residuals(trajectory, schedule):
    """``||Herm((i/2) Theta^-1 dTheta/dt)||_F / max(||H||_F, 1)`` sample by sample,
    with dTheta/dt from ``flow_rhs`` and one ``solve``: the oracle for the
    generator residuals of ``hermitian_representation``."""
    from adiametric.metric_flow import flow_rhs

    residuals = []
    for t, theta in zip(trajectory.times, trajectory.metrics):
        h = schedule.at(t)
        correction = 0.5j * np.linalg.solve(theta, flow_rhs(h, theta))
        hermitian = 0.5 * (correction + correction.conj().T)
        residuals.append(np.linalg.norm(hermitian) / max(np.linalg.norm(h), 1.0))
    return np.array(residuals)


def finite_difference_residuals(trajectory, schedule):
    """Generator residual ``||H_obs - i Omega^-1 dOmega/dt - H||_F / max(||H||_F, 1)``
    with dOmega/dt from central differences of the sampled square roots.

    NaN at both ends; at the inner samples it tends to the exact ordering
    term of :func:`hermitian_representation_oracle` at second order in the
    sample spacing.
    """
    from adiametric.metric_flow import flow_rhs, observable_hamiltonian
    from adiametric.operator_core import hermitian_sqrt

    times = trajectory.times
    hs = [schedule.at(t) for t in times]
    omegas = [hermitian_sqrt(theta) for theta in trajectory.metrics]
    residuals = np.full(len(times), np.nan)
    for i in range(1, len(times) - 1):
        theta = trajectory.metrics[i]
        h_obs = observable_hamiltonian(hs[i], theta, flow_rhs(hs[i], theta))
        omega_dot = (omegas[i + 1] - omegas[i - 1]) / (times[i + 1] - times[i - 1])
        gen = h_obs - 1j * np.linalg.solve(omegas[i], omega_dot)
        residuals[i] = np.linalg.norm(gen - hs[i]) / max(np.linalg.norm(hs[i]), 1.0)
    return residuals


# ------------------------------------------------ alternate metric solvers
# Closed forms and series the package once shipped beside its integrators,
# kept here as independent oracles for them.


# largest gap allowed between the forward and pull-back amplitude forms
_FORMS_TOL = 1e-10


def transition_probability_oracle(
    phi,
    psi,
    schedule,
    t_from,
    t_to,
    theta_from,
    config: SolverConfig | None = None,
) -> float:
    """Probability of finding ``phi`` at ``t_to`` after preparing ``psi``.

    Both states are normalized in the metric inner product of their own
    time (psi under Theta(t_from), phi under Theta(t_to)); the returned
    value is ``|<phi|Theta(t_to) U(t_to, t_from) psi>|^2``, with U from
    :func:`magnus_cf4` on the schedule's ``h0``, ``h_int`` and ``factor``,
    independent of the metric flow.  The algebraically equivalent pull-back
    form through Theta(t_from) is evaluated as well and a
    :class:`SolverError` is raised if the two disagree beyond 1e-10, which
    would signal integration failure of the conservation law.  A state
    whose metric norm is not positive (an indefinite ``theta_from``) raises
    :class:`NotPositive`; a state or ``theta_from`` of another size than
    the schedule raises :class:`DimensionMismatch`.

    Theta(t_to) by ``evolve_metric`` (DOP853) and both amplitude forms: the
    oracle for ``transition_probability``.
    """
    cfg = config or SolverConfig(rtol=1e-11, atol=1e-13, samples=2)
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    theta_from = _require_hermitian(_operator_pair(schedule.h0, theta_from)[1])
    if not phi.shape == psi.shape == theta_from.shape[:1]:
        raise DimensionMismatch(f"states of shapes {phi.shape} and {psi.shape} do not match "
                                f"the {theta_from.shape} metric")
    psi_n = _metric_normalized(psi, theta_from)

    theta_to = evolve_metric(schedule, theta_from, t_from, t_to, cfg).final
    phi_n = _metric_normalized(phi, theta_to)
    u = _accumulate_propagator(schedule, t_from, t_to, cfg.rtol, cfg.atol)

    amp_forward = phi_n.conj() @ theta_to @ (u @ psi_n)
    # pull-back form: <phi| U(t_from,t_to)^dagger Theta(t_from) |psi>
    amp_pullback = np.linalg.solve(u, phi_n).conj() @ (theta_from @ psi_n)
    if abs(amp_forward - amp_pullback) > _FORMS_TOL:
        raise SolverError(
            "transition amplitude forms disagree by "
            f"{abs(amp_forward - amp_pullback):.3e}"
        )
    return float(abs(amp_forward) ** 2)


def midpoint_metric_via_propagator(schedule, theta0, t0, t1, nsteps=2000):
    """Metric evolution by conjugation with accumulated short-time propagators.

    Each step contributes ``exp(+i h H(t_mid))`` to the backward evolution
    operator B(t) mapping states at t to states at t0; the metric is then
    ``B^dagger Theta_0 B``, an exact solution of the flow whenever H is
    piecewise constant.  Midpoint sampling makes the accumulation second
    order in the step for smooth schedules.  The step exponentials are
    formed ``PATH_CHUNK`` at a time by one stacked Taylor evaluation.  A
    ``theta0`` of another shape than the generator raises
    :class:`DimensionMismatch`, an ``nsteps`` that is not a positive integer
    or an empty window :class:`ConfigError`, and a non-finite window
    :class:`SolverError`.

    The second-order exponential-midpoint stepper ``evolve_metric_via_propagator``
    ran before it was rebuilt on CF4, kept as its oracle.
    """
    if not isinstance(nsteps, numbers.Integral):  # numpy integers pass
        raise ConfigError(f"propagator steps must be an integer, got {nsteps!r}")
    if nsteps < 1:
        raise ConfigError(f"propagator steps must be at least 1, got {nsteps}")
    if t1 == t0:
        raise ConfigError(f"evolution window [{t0}, {t1}] is empty: t1 must differ from t0")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise SolverError(f"non-finite evolution window [{t0}, {t1}]")
    theta0 = _require_hermitian(_operator_pair(schedule.h0, theta0)[1])
    dim = theta0.shape[0]
    grid = np.linspace(t0, t1, nsteps + 1)
    back = np.eye(dim, dtype=complex)
    times, metrics = [t0], [theta0.copy()]
    sample_every = max(1, nsteps // 200)
    for start in range(0, nsteps, PATH_CHUNK):
        ks = range(start, min(start + PATH_CHUNK, nsteps))
        mids = np.array([as_operator(schedule.at(0.5 * (grid[k] + grid[k + 1]))) for k in ks])
        widths = np.diff(grid[ks.start : ks.stop + 1])[:, None, None]
        for k, step in zip(ks, _expm_stack(1j * widths * mids)):
            back = back @ step
            if (k + 1) % sample_every == 0 or k == nsteps - 1:
                times.append(grid[k + 1])
                metrics.append(_hermitian_part(back.conj().T @ theta0 @ back))
    return MetricTrajectory(
        times=np.array(times),
        metrics=np.array(metrics),
        solver="propagator_conjugation",
        stats={"nsteps": nsteps},
    )


def flow_adiabatic_metric(h0, h_int, theta0, eps, config=None, shape="exp"):
    """Theta(0) by integrating the metric flow from the far-past horizon with
    ``evolve_metric``: the oracle for the Moller identity of ``adiabatic_metric``
    and ``s_matrix``.  It checks the real spectrum of ``h0 + h_int`` on its
    own, at that one point, independently of the library's switch path."""
    cfg = config or ScatteringConfig()
    h0, h_int = _operator_pair(h0, h_int)
    _require_real_spectrum(np.linalg.eigvals(h0 + h_int),
                           "full generator has complex spectrum; adiabatic metric undefined")
    schedule = _switch_schedule(h0, h_int, eps, shape, cfg.horizon_factor)
    horizon = cfg.horizon_factor / eps
    cfg_flow = SolverConfig(rtol=cfg.rtol, atol=cfg.atol, samples=2)
    return evolve_metric(schedule, theta0, -horizon, 0.0, cfg_flow).final


def picard_iterate(h, theta0, t, order) -> np.ndarray:
    """k-th Picard iterate of the constant-H metric flow, exact in t.

    The iteration map is ``Theta -> Theta_0 + i int_0^t (Theta H -
    H^dagger Theta)``, carried on polynomial coefficients in t so no
    quadrature error enters; only series truncation remains.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    h = as_operator(h)
    theta0 = as_operator(theta0)
    coeffs = [theta0]
    for _ in range(order):
        new = [theta0]
        for m, c in enumerate(coeffs):
            new.append(1j * (c @ h - h.conj().T @ c) / (m + 1))
        coeffs = new
    # Horner evaluation of sum_m coeffs[m] t^m.
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = c + t * acc
    return acc


def normal_ordered_exp(h, t, truncation, theta0=None) -> np.ndarray:
    """Partial sum of the normal-ordered exponential solution.

    For constant H the flow from Theta_0 has the closed form
    ``exp(-i H^dagger t) Theta_0 exp(i H t)``; expanding and collecting
    every adjoint factor to the left gives terms

        (i t)^n / n! * sum_j C(n, j) (-1)^j (H^dagger)^j Theta_0 H^(n-j),

    summed here through order ``truncation``.  With Theta_0 = I and
    truncation 2 this is ``I + i(H - H^dagger)t - (H^2 - 2 H^dagger H +
    H^dagger^2) t^2/2``.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    h = as_operator(h)
    dim = h.shape[0]
    theta0 = np.eye(dim, dtype=complex) if theta0 is None else as_operator(theta0)
    hd = h.conj().T

    pow_h = [np.eye(dim, dtype=complex)]
    pow_hd = [np.eye(dim, dtype=complex)]
    for _ in range(truncation):
        pow_h.append(pow_h[-1] @ h)
        pow_hd.append(pow_hd[-1] @ hd)

    total = np.zeros((dim, dim), dtype=complex)
    for n in range(truncation + 1):
        term = np.zeros((dim, dim), dtype=complex)
        for j in range(n + 1):
            sign = -1.0 if j % 2 else 1.0
            term += sign * math.comb(n, j) * (pow_hd[j] @ theta0 @ pow_h[n - j])
        total += (1j * t) ** n / math.factorial(n) * term
    return total


def eigenbasis_evolution(system, coeffs0, t) -> np.ndarray:
    """Exact coefficient flow ``c_mn(t) = exp(i (E_n - E_m^*) t) c_mn(0)``.

    Substituting the dyad expansion into the metric flow gives this phase
    law (the index order follows from bra-side eigenvectors carrying the
    unconjugated eigenvalue; it is verified against direct integration in
    the tests).  For a real spectrum the diagonal is constant and
    off-diagonal moduli are conserved (pure phase rotation); any imaginary
    eigenvalue parts turn the phases into exponential growth or decay.
    """
    coeffs0 = _operator_pair(system.right, coeffs0)[1]
    e = system.eigenvalues
    phase = np.exp(1j * (e[None, :] - e[:, None].conj()) * t)
    return phase * coeffs0


def hermitian_precession(vec0, v_vec, t) -> np.ndarray:
    """Rotate ``vec0`` about axis ``v_vec`` by angle ``|v_vec| t`` (Rodrigues).

    Exact solution of the w = 0 component flow; the frequency is set by the
    level splitting alone, independent of the initial condition.
    """
    vec0 = np.asarray(vec0, dtype=float)
    v_vec = np.asarray(v_vec, dtype=float)
    speed = float(np.linalg.norm(v_vec))
    if speed == 0.0:
        return vec0.copy()
    axis = v_vec / speed
    angle = speed * t
    return (
        vec0 * math.cos(angle)
        + np.cross(axis, vec0) * math.sin(angle)
        + axis * (axis @ vec0) * (1.0 - math.cos(angle))
    )


# ------------------------------------------------------- Fraction oracle
# The star-product algebra as the package ran it before its one-denominator
# form: every coefficient a pair of Fractions, every term added and scaled
# on its own.  Slow, and independent of adiametric.moyal.

_ZERO = Fraction(0)


def _to_pair(value):
    if isinstance(value, tuple):
        return value
    if isinstance(value, complex):
        return (Fraction(value.real), Fraction(value.imag))
    return (Fraction(value), _ZERO)


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


class FractionPolynomial:
    """Immutable polynomial in (p, q) with exact rational complex coefficients,
    each a pair of Fractions.

    ``terms`` maps exponent pairs ``(i, j)`` (p-power, q-power) to nonzero
    coefficients.  Accepts int, float, Fraction, or complex coefficient
    values; floats convert exactly (every float is a dyadic rational).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, value in (terms or {}).items():
            i, j = int(key[0]), int(key[1])
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            pair = _to_pair(value)
            if pair[0] or pair[1]:
                clean[(i, j)] = pair
        self._terms = clean

    # -- construction helpers -------------------------------------------
    @classmethod
    def monomial(cls, i, j, coeff=1):
        return cls({(i, j): coeff})

    @classmethod
    def _raw(cls, terms):
        poly = cls.__new__(cls)
        poly._terms = {k: v for k, v in terms.items() if v[0] or v[1]}
        return poly

    # -- inspection ------------------------------------------------------
    @property
    def degree(self) -> int:
        return max((i + j for i, j in self._terms), default=0)

    def coefficient(self, i, j) -> complex:
        re, im = self._terms.get((i, j), (_ZERO, _ZERO))
        return complex(float(re), float(im))

    def terms(self):
        """Iterate ``((i, j), complex_coefficient)`` pairs, sorted."""
        for key in sorted(self._terms):
            yield key, self.coefficient(*key)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, FractionPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "FractionPolynomial(0)"
        bits = []
        for (i, j), c in self.terms():
            mono = "".join(
                s for s, e in (("p^%d" % i, i), ("q^%d" % j, j)) if e
            ) or "1"
            bits.append(f"({c:g})*{mono}")
        return "FractionPolynomial(" + " + ".join(bits) + ")"

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        terms = dict(self._terms)
        for key, val in other._terms.items():
            terms[key] = _cadd(terms.get(key, (_ZERO, _ZERO)), val)
        return FractionPolynomial._raw(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionPolynomial._raw(
            {k: (-v[0], -v[1]) for k, v in self._terms.items()}
        )

    def scale(self, value):
        pair = _to_pair(value)
        return FractionPolynomial._raw(
            {k: _cmul(v, pair) for k, v in self._terms.items()}
        )

    def times_i(self):
        return FractionPolynomial._raw(
            {k: (-v[1], v[0]) for k, v in self._terms.items()}
        )

    def conjugate(self):
        """Coefficient conjugation: the symbol of the operator adjoint."""
        return FractionPolynomial._raw(
            {k: (v[0], -v[1]) for k, v in self._terms.items()}
        )

    def pointwise_mul(self, other):
        """Ordinary commutative polynomial product."""
        terms = {}
        for (a, b), cf in self._terms.items():
            for (c, d), cg in other._terms.items():
                key = (a + c, b + d)
                terms[key] = _cadd(terms.get(key, (_ZERO, _ZERO)), _cmul(cf, cg))
        return FractionPolynomial._raw(terms)

    def diff_p(self):
        return FractionPolynomial._raw(
            {
                (i - 1, j): (v[0] * i, v[1] * i)
                for (i, j), v in self._terms.items()
                if i > 0
            }
        )

    def diff_q(self):
        return FractionPolynomial._raw(
            {
                (i, j - 1): (v[0] * j, v[1] * j)
                for (i, j), v in self._terms.items()
                if j > 0
            }
        )

    def substitute_linear(self, pp, pq, qp, qq):
        """Compose with p -> pp*p + pq*q, q -> qp*p + qq*q (exact pairs)."""
        new_p = FractionPolynomial({(1, 0): pp, (0, 1): pq})
        new_q = FractionPolynomial({(1, 0): qp, (0, 1): qq})
        # precompute powers up to needed degree
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        pow_p = [FRACTION_ONE]
        for _ in range(max_i):
            pow_p.append(pow_p[-1].pointwise_mul(new_p))
        pow_q = [FRACTION_ONE]
        for _ in range(max_j):
            pow_q.append(pow_q[-1].pointwise_mul(new_q))
        total = FractionPolynomial()
        for (i, j), v in self._terms.items():
            total = total + pow_p[i].pointwise_mul(pow_q[j]).scale(v)
        return total


FRACTION_ONE = FractionPolynomial.monomial(0, 0)


def fraction_moyal_product(f: FractionPolynomial, g: FractionPolynomial) -> FractionPolynomial:
    """Star product; a finite sum for polynomials, evaluated exactly.

    Expanding the exponential bidifferential operator binomially,

        F * G = sum_{k,m} (i/2)^k (-1)^m / (m! (k-m)!)
                * (d_p^m d_q^(k-m) F) (d_p^(k-m) d_q^m G),

    truncating at ``k = min(deg F, deg G)``.  Each k-th order scalar is a
    Gaussian integer divided by 2^k, so the rational coefficient pairs
    stay exact.
    """
    kmax = min(f.degree, g.degree)
    fd = {(0, 0): f}
    gd = {(0, 0): g}

    def deriv(cache, dp, dq):
        key = (dp, dq)
        if key not in cache:
            if dp > 0:
                cache[key] = deriv(cache, dp - 1, dq).diff_p()
            else:
                cache[key] = deriv(cache, 0, dq - 1).diff_q()
        return cache[key]

    total = FractionPolynomial()
    # i^k cycles (1, i, -1, -i); attach (1/2)^k and the factorial split.
    for k in range(kmax + 1):
        ik = (1, 0) if k % 4 == 0 else (0, 1) if k % 4 == 1 else (-1, 0) if k % 4 == 2 else (0, -1)
        half = Fraction(1, 2**k)
        for m in range(k + 1):
            scalar = Fraction((-1) ** m, math.factorial(m) * math.factorial(k - m))
            coeff = (ik[0] * half * scalar, ik[1] * half * scalar)
            left = deriv(fd, m, k - m)
            right = deriv(gd, k - m, m)
            if left.is_zero or right.is_zero:
                continue
            total = total + left.pointwise_mul(right).scale(coeff)
    return total


# ------------------------------------------------ per-term substitution
# PhasePolynomial.substitute_linear before its one-denominator sum, on the
# package's own ring operations.


def substitute_linear_per_term(poly, pp, pq, qp, qq):
    """Compose with p -> pp*p + pq*q, q -> qp*p + qq*q (exact scalars).

    ``PhasePolynomial.substitute_linear`` as the package ran it before its
    one-denominator sum: every term added and reduced on its own.  The
    oracle for that sum.
    """
    from adiametric.moyal import ONE, PhasePolynomial

    new_p = PhasePolynomial({(1, 0): pp, (0, 1): pq})
    new_q = PhasePolynomial({(1, 0): qp, (0, 1): qq})
    # precompute powers up to needed degree
    max_i = max((i for i, _ in poly._terms), default=0)
    max_j = max((j for _, j in poly._terms), default=0)
    pow_p = [ONE]
    for _ in range(max_i):
        pow_p.append(pow_p[-1].pointwise_mul(new_p))
    pow_q = [ONE]
    for _ in range(max_j):
        pow_q.append(pow_q[-1].pointwise_mul(new_q))
    total = PhasePolynomial()
    for (i, j), v in poly._terms.items():  # numerators: divide by _den once, below
        total = total + pow_p[i].pointwise_mul(pow_q[j]).scale(v)
    return total.scale(Fraction(1, poly._den))
