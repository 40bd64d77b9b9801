"""Shared fixture builders for the test suite."""

import numpy as np

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


def dp5_dressing(h0, h_int, eps, config, form, direction, shape):
    """Interaction-picture DP5 dressing at the horizon: the oracle for CF4.

    ``form="K"`` integrates ``K(t) = U(0,t) U_0(t,0)`` (rhs ``i f K H_I(t)``),
    ``form="G"`` integrates ``G(t) = U_0(0,t) U(t,0)`` (rhs ``-i f H_I(t) G``)
    with ``solve_ode`` from 0 to ``direction * horizon_factor / eps``.  The
    state lives in the eigenframe of ``H_0 = V diag(E) V^-1``, where
    ``H_I(t)`` is ``V^-1 H_int V`` times the phases ``exp(i (E_m - E_n) t)``
    and the switch factor of ``shape``, and is mapped back at the end.
    """
    from adiametric._integrate import solve_ode
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

    sol = solve_ode(
        rhs,
        0.0,
        direction * config.horizon_factor / eps,
        np.eye(len(vals), dtype=complex),
        rtol=config.rtol,
        atol=config.atol,
    )
    return vecs @ sol.states[-1] @ vecs_inv


def dp5_ramp(times, y0, duration, amplitude=5.0, w3=3.0, rtol=1e-13, atol=1e-15):
    """Crossed-ramp component flow by ``solve_ode``: the oracle for CF4.

    Integrates ``dy/dt = M(t) y`` from ``y0`` at 0 with the generator of
    :class:`CrossedRampSchedule` (constant after ``duration``), landing on
    ``duration``, and returns the rows at ``times``.
    """
    from adiametric._integrate import solve_ode
    from adiametric.two_level import CrossedRampSchedule, component_generator

    schedule = CrossedRampSchedule(duration, amplitude=amplitude, w3=w3)
    m_start = component_generator(schedule.params_at(0.0))
    m_slope = component_generator(schedule.params_at(duration)) - m_start
    sol = solve_ode(
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


def evolve_metric_oracle(schedule, theta0, t0, t1, config):
    """Metric flow on the general two-product ``flow_rhs``, re-symmetrized after
    every accepted step: the oracle for ``evolve_metric``.

    Returns the samples at ``config.samples`` uniform times and the solver
    statistics.
    """
    from adiametric._integrate import solve_ode
    from adiametric.metric_flow import _symmetrize, flow_rhs

    sol = solve_ode(
        lambda t, y: flow_rhs(schedule.at(t), y),
        t0,
        t1,
        theta0,
        rtol=config.rtol,
        atol=config.atol,
        t_eval=np.linspace(t0, t1, config.samples),
        breakpoints=getattr(schedule, "breakpoints", tuple)(),
        post_step=_symmetrize,
    )
    return np.array(sol.states), sol.stats


def hermitian_representation_oracle(trajectory, schedule):
    """Per-sample Hermitian representation: the oracle for ``hermitian_representation``.

    Every sample on its own: Omega by ``hermitian_sqrt``, ``H_obs`` by
    ``observable_hamiltonian`` with dTheta/dt from ``flow_rhs``, ``inv`` for
    Omega^-1 and ``solve`` for Omega^-1 dOmega/dt.  Returns ``(h_ops,
    hermiticity_defects, generator_residuals)`` and raises what those
    functions raise, sample by sample.
    """
    from adiametric.metric_flow import flow_rhs, observable_hamiltonian
    from adiametric.operator_core import hermitian_sqrt

    times = trajectory.times
    hs, h_obs, omegas, h_ops = [], [], [], []
    for t, theta in zip(times, trajectory.metrics):
        h = schedule.at(t)
        hs.append(h)
        h_obs.append(observable_hamiltonian(h, theta, flow_rhs(h, theta)))
        omegas.append(hermitian_sqrt(theta))
        h_ops.append(omegas[-1] @ h_obs[-1] @ np.linalg.inv(omegas[-1]))
    defects = [
        np.linalg.norm(h - h.conj().T) / max(np.linalg.norm(h), 1e-300) for h in h_ops
    ]
    residuals = np.full(len(times), np.nan)
    for i in range(1, len(times) - 1):
        omega_dot = (omegas[i + 1] - omegas[i - 1]) / (times[i + 1] - times[i - 1])
        gen = h_obs[i] - 1j * np.linalg.solve(omegas[i], omega_dot)
        residuals[i] = np.linalg.norm(gen - hs[i]) / max(np.linalg.norm(hs[i]), 1.0)
    return np.array(h_ops), np.array(defects), residuals
