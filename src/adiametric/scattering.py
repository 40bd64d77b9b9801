"""Moller operators, adiabatically evolved metrics, and dressed S-matrices.

The interaction is switched on and off by a slow damping factor so that
free and full dynamics coincide at large |t|.  In-states are free states
evolved far backward and returned under the full generator; the S-matrix
pairs out- and in-states through the metric that grows out of the free
metric along the same switching,

    S_fi = <phi_f_out | Theta | phi_i_in>,

evaluated on the eigenbasis of the free generator.  At finite switching
rate the dressed S-matrix is only approximately Theta-unitary; the defect
decreases with the rate and is extrapolated to zero by the sweep helpers.

Moller operators come from the lab-frame propagator of the switched
generator, integrated to a finite horizon by the commutator-free Magnus
method (:func:`magnus_cf4`), which carries the free motion exactly; the
horizon maps to a quantified truncation error.  The switch enters only
through its ``factor`` and ``support``; :func:`_switch_schedule` alone
maps a shape name to a switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrate import magnus_cf4
from .errors import ComplexSpectrum, NoConvergence
from .metric_flow import SolverConfig, _symmetrize, evolve_metric
from .operator_core import (
    _require_hermitian,
    as_operator,
    continued_eigensystems,
    eigenframe,
    frobenius,
    spectrum_reality_check,
)
from .switching import ExponentialSwitch, SmoothSwitch

__all__ = [
    "ScatteringConfig",
    "ScatteringResult",
    "moller_minus",
    "moller_plus",
    "out_dressing",
    "adiabatic_metric",
    "s_matrix",
    "dynamical_phase_integrals",
]


@dataclass(frozen=True)
class ScatteringConfig:
    """Horizon and accuracy knobs shared by all scattering operations.

    The integration horizon is ``horizon_factor / eps``, where the damping
    factor has decayed to ``exp(-horizon_factor)``; convergence of the
    Moller limits is verified by doubling a horizon inside the support.

    ``rtol``/``atol`` set the accuracy of both integrators.  The dressings
    use :func:`magnus_cf4`, which accepts a propagator ``U`` of dimension d
    on one segment when its Richardson error estimate is at most
    ``d * atol + rtol * ||U||_F`` (the ``solve_ode`` step test applied once
    to the whole segment with a uniform scale), and returns the
    extrapolant.  :func:`adiabatic_metric` integrates the metric flow with
    ``solve_ode`` at the same ``rtol``/``atol`` per step.
    """

    rtol: float = 1e-10
    atol: float = 1e-13
    horizon_factor: float = 12.0
    check_convergence: bool = True
    convergence_tol: float = 1e-3


def _switch_schedule(h0, h_int, eps, shape, horizon_factor):
    if eps <= 0.0:
        raise ValueError("switching rate eps must be positive")
    if shape == "exp":
        return ExponentialSwitch(h0, h_int, eps)
    if shape == "smooth":
        return SmoothSwitch(h0, h_int, width=horizon_factor / eps)
    raise ValueError(f"unknown switch shape {shape!r}")


def _dressing(h0, h_int, eps, config, form, direction, shape, frame):
    """A dressing operator from the lab-frame propagator ``U(t, 0)``.

    ``form="K"`` gives ``K(t) = U(0,t) U_0(t,0) = U(t,0)^-1 W(t)``,
    ``form="G"`` gives ``G(t) = U_0(0,t) U(t,0) = W(t)^-1 U(t,0)``, with the
    free propagator ``W(t) = V diag(exp(-i E t)) V^-1`` from the H_0
    eigenframe ``frame = (E, V, V^-1)``; ``direction`` picks the far-past
    (-1) or far-future (+1) horizon T.  ``U(T, 0)`` comes from
    :func:`magnus_cf4` on ``H_0 + f(t) H_int`` with the switch factor of
    ``shape``, at the configured ``rtol``/``atol``.  With the convergence
    check on and |T| < ``support``, ``U(2T, T)`` is multiplied on too.

    Returns ``(limit, u_horizon, stats)``: the dressing at 2T when checked,
    else at T; ``U(T, 0)``; and the per-segment integrator counts summed
    (``error_estimate`` is the sum of the segments' estimates).
    """
    cfg = config or ScatteringConfig()
    switch = _switch_schedule(h0, h_int, eps, shape, cfg.horizon_factor)
    a0, a1 = -1j * switch.h0, -1j * switch.h_int
    vals, vecs, vecs_inv = frame
    horizon = direction * cfg.horizon_factor / eps

    def dressed(u, t):
        if form == "K":
            return np.linalg.solve(u, (vecs * np.exp(-1j * vals * t)) @ vecs_inv)
        return (vecs * np.exp(1j * vals * t)) @ vecs_inv @ u

    tols = {"rtol": cfg.rtol, "atol": cfg.atol}
    u_horizon, stats = magnus_cf4(a0, a1, switch.factor, 0.0, horizon, **tols)
    at_horizon = dressed(u_horizon, horizon)
    # Beyond its support the switch is free to roundoff: nothing to check.
    if not (cfg.check_convergence and abs(horizon) < switch.support):
        return at_horizon, u_horizon, stats
    u_tail, tail_stats = magnus_cf4(a0, a1, switch.factor, horizon, 2.0 * horizon, **tols)
    stats = {key: stats[key] + tail_stats[key] for key in stats}
    limit = dressed(u_tail @ u_horizon, 2.0 * horizon)
    drift = frobenius(limit - at_horizon)
    if drift > cfg.convergence_tol:
        raise NoConvergence(
            f"Moller limit moved by {drift:.3e} when doubling the horizon"
        )
    return limit, u_horizon, stats


def moller_minus(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """In-map ``lim_{t -> -inf} U(0, t) U_0(t, 0)`` at switching rate eps."""
    return _dressing(h0, h_int, eps, config, "K", -1, shape, eigenframe(h0))[0]


def moller_plus(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """Out-map ``lim_{t -> +inf} U_0(0, t) U(t, 0)`` at switching rate eps."""
    return _dressing(h0, h_int, eps, config, "G", +1, shape, eigenframe(h0))[0]


def out_dressing(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """``lim_{t -> +inf} U(0, t) U_0(t, 0)``, the bra-side dressing.

    This is the inverse of :func:`moller_plus`; the transition amplitudes
    pair it against the adiabatic metric, which is what makes the free
    probability-conservation identity carry over to the dressed S-matrix.
    """
    return _dressing(h0, h_int, eps, config, "K", +1, shape, eigenframe(h0))[0]


def adiabatic_metric(
    h0,
    h_int,
    theta0,
    eps,
    config: ScatteringConfig | None = None,
    shape="exp",
) -> np.ndarray:
    """Metric at t=0 grown from the free metric along the switching.

    The free metric is installed at the far-past horizon and pushed
    forward with the metric flow, the direction consistent with
    conservation of the dressed inner product.  As the switching rate
    vanishes the result approaches a static metric of the full generator
    (diagonal in its adjoint eigenbasis).  Raises
    :class:`ComplexSpectrum` when the full generator has no real spectrum,
    since the metric then grows without bound and no limit exists.

    This integrates the metric flow itself.  :func:`s_matrix` does not
    call it: there Theta(0) follows from the in-dressing by the Moller
    identity, and this function is the oracle that identity is tested
    against.
    """
    cfg = config or ScatteringConfig()
    h0 = as_operator(h0)
    h_int = as_operator(h_int)
    if not spectrum_reality_check(h0 + h_int):
        raise ComplexSpectrum(
            "full generator has complex spectrum; adiabatic metric undefined"
        )
    schedule = _switch_schedule(h0, h_int, eps, shape, cfg.horizon_factor)
    horizon = cfg.horizon_factor / eps
    traj = evolve_metric(
        schedule,
        theta0,
        -horizon,
        0.0,
        SolverConfig(rtol=cfg.rtol, atol=cfg.atol, samples=2),
    )
    return traj.final


def _clenshaw_curtis(n):
    """Clenshaw-Curtis nodes on [0, 1], from 1 down to 0, and weights, n even
    (closed form of Trefethen, SIAM Rev. 50 (2008) 67)."""
    angles = np.pi * np.arange(n + 1) / n
    weights = np.ones(n + 1)
    for j in range(1, n // 2 + 1):  # one cosine row at a time: O(n) memory
        weights -= (1.0 if 2 * j == n else 2.0) / (4 * j * j - 1) * np.cos(2 * j * angles)
    weights[1:-1] *= 2.0
    return 0.5 * (1.0 + np.cos(angles)), weights / (2 * n)


_PHASE_RULE = _clenshaw_curtis(512)  # the dynamical-phase quadrature rule


def dynamical_phase_integrals(h0, h_int, eps, shape="exp", horizon_factor=12.0) -> np.ndarray:
    """Per-level accumulated energy shift ``int (E_n(t) - E_n_free) dt``.

    This integral grows like 1/eps under slow switching, which is why raw
    S-matrix entries never converge entrywise: each level spins up an
    unbounded dynamical phase.  Multiplying half the counterphase onto
    each side of the S-matrix removes the divergence and leaves a
    switching-shape-independent limit.  It is ``2 int_0^support`` by one
    Clenshaw-Curtis rule along ``H_0 + f(t) H_I``, with the levels followed
    from the free end t = support by :func:`continued_eigensystems`, in the
    (real, imag) order of the free spectrum; only the real parts of their
    eigenvalues contribute (real-spectrum paths).
    """
    switch = _switch_schedule(h0, h_int, eps, shape, horizon_factor)
    nodes, weights = _PHASE_RULE
    path = switch.h0 + switch.factor(switch.support * nodes)[:, None, None] * switch.h_int
    ((levels, _, _),) = continued_eigensystems([path])  # 513 nodes: one chunk
    return 2.0 * switch.support * (weights @ (levels.real - levels[0].real))


@dataclass(frozen=True)
class ScatteringResult:
    """Dressed S-matrix and the operators it was assembled from.

    ``solver_stats`` holds the :func:`magnus_cf4` counts of each dressing,
    ``{"in_dressing": ..., "out_dressing": ...}``; they are deterministic.
    """

    s_matrix: np.ndarray
    theta_adiabatic: np.ndarray
    moller_minus: np.ndarray
    eps: float
    unitarity_defect: float
    phases: np.ndarray
    solver_stats: dict

    def phase_renormalized(self) -> np.ndarray:
        """S-matrix with half the dynamical counterphase on each side.

        The renormalized entries converge entrywise in the slow-switching
        limit and are the quantities compared across switching shapes.
        """
        half = np.exp(0.5j * self.phases)
        return (half[:, None] * self.s_matrix) * half[None, :]

    def as_report(self) -> dict:
        """JSON-ready summary (entries as re/im pairs)."""
        from .ioutil import matrix_to_json

        return {
            "eps": self.eps,
            "s_matrix": matrix_to_json(self.s_matrix),
            "s_matrix_phase_renormalized": matrix_to_json(self.phase_renormalized()),
            "theta_adiabatic": matrix_to_json(self.theta_adiabatic),
            "unitarity_defect": self.unitarity_defect,
            "dynamical_phases": list(map(float, self.phases)),
        }


def s_matrix(
    h0,
    h_int,
    eps,
    theta0=None,
    config: ScatteringConfig | None = None,
    shape="exp",
) -> ScatteringResult:
    """Metric-dressed S-matrix on the free eigenbasis.

    Entries are amplitudes between free eigenstates prepared in the far
    past and detected in the far future, with the metric paired at the
    detection time and pulled back to t=0 through the conservation law:

        S = basis^dag . Omega_out^dag . Theta(0) . Omega_in . basis,

    where both dressings are ``lim U(0,t) U_0(t,0)`` (far future / far
    past) and Theta(0) is the metric adiabatically evolved from ``theta0``
    (default: identity) along the same switching.  For the identity free
    metric the biorthonormal pairing of transported eigenvectors makes S
    diagonal unit-modulus phases in the slow-switching limit, so the
    reported unitarity defect ``||S^dag S - I||`` extrapolates to zero.

    The metric flow conserves ``U^-dag Theta U^-1``, so Theta(0) is the
    Moller identity ``K^-dag W^dag Theta_0 W K^-1 = U^dag Theta_0 U``, with
    K the in-dressing at the single horizon ``-T`` where the integrated
    flow would start, ``W = U_0(-T, 0)`` and ``U = U(-T, 0)`` the
    propagator the in-dressing is built from.  That leaves one propagator
    integration per dressing and no ``solve_ode`` call;
    :func:`adiabatic_metric` integrates the flow and is the oracle for the
    identity.  The H_0 eigenframe is resolved once and shared by both
    dressings.  Raises :class:`ComplexSpectrum` when ``h0 + h_int`` has
    no real spectrum.
    """
    cfg = config or ScatteringConfig()
    h0 = as_operator(h0)
    h_int = as_operator(h_int)
    if not spectrum_reality_check(h0 + h_int):
        raise ComplexSpectrum(
            "full generator has complex spectrum; adiabatic metric undefined"
        )
    theta0 = _require_hermitian(
        np.eye(h0.shape[0], dtype=complex) if theta0 is None else theta0
    )

    frame = eigenframe(h0)
    vecs = frame[1]
    basis = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)

    om_in, u_past, in_stats = _dressing(h0, h_int, eps, cfg, "K", -1, shape, frame)
    om_out, _, out_stats = _dressing(h0, h_int, eps, cfg, "K", +1, shape, frame)
    theta = _symmetrize(u_past.conj().T @ theta0 @ u_past)

    s = basis.conj().T @ om_out.conj().T @ theta @ om_in @ basis
    defect = frobenius(s.conj().T @ s - np.eye(s.shape[0]))
    phases = dynamical_phase_integrals(h0, h_int, eps, shape, cfg.horizon_factor)
    return ScatteringResult(
        s_matrix=s,
        theta_adiabatic=theta,
        moller_minus=om_in,
        eps=eps,
        unitarity_defect=defect,
        phases=phases,
        solver_stats={"in_dressing": in_stats, "out_dressing": out_stats},
    )
