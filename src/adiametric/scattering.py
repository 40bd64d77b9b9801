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

Moller operators are accumulated in the interaction picture, where the
integrand carries the damping factor explicitly and the integration
horizon maps to a quantified truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import solve_ode
from .errors import ComplexSpectrum, NoConvergence
from .metric_flow import SolverConfig, _symmetrize, evolve_metric
from .operator_core import (
    PATH_CHUNK,
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
    "in_state",
    "out_state",
    "s_matrix",
    "dynamical_phase_integrals",
]


# coupling-path samples of the dynamical-phase quadrature
_PHASE_POINTS = 4001


@dataclass(frozen=True)
class ScatteringConfig:
    """Horizon and accuracy knobs shared by all scattering operations.

    The integration horizon is ``horizon_factor / eps``, where the damping
    factor has decayed to ``exp(-horizon_factor)``; convergence of the
    Moller limits is verified by doubling the horizon and comparing.
    """

    rtol: float = 1e-10
    atol: float = 1e-13
    horizon_factor: float = 12.0
    check_convergence: bool = True
    convergence_tol: float = 1e-3


def _switch_schedule(h0, h_int, eps, shape, horizon_factor):
    if shape == "exp":
        return ExponentialSwitch(h0, h_int, eps)
    if shape == "smooth":
        return SmoothSwitch(h0, h_int, width=horizon_factor / eps)
    raise ValueError(f"unknown switch shape {shape!r}")


def _dressing(h0, h_int, eps, config, form, direction, shape):
    """Accumulate an interaction-picture dressing operator.

    ``form="K"`` integrates ``K(t) = U(0,t) U_0(t,0)`` (rhs ``i f K H_I(t)``),
    ``form="G"`` integrates ``G(t) = U_0(0,t) U(t,0)`` (rhs ``-i f H_I(t) G``);
    ``direction`` picks the far-past (-1) or far-future (+1) horizon.

    The state is integrated in the eigenframe of ``H_0 = V diag(E) V^-1``,
    where ``H_I(t)`` is ``V^-1 H_int V`` times the elementwise phases
    ``exp(i (E_m - E_n) t)`` and the switch factor ``f(t)`` of the
    schedule for ``shape``, and mapped back once per output sample.
    Returns ``(limit, at_horizon)``: the dressing at twice the horizon when
    the exp-shape convergence check is on (one pass sampled at both times),
    else at the horizon, and the dressing at the single horizon.
    """
    if eps <= 0.0:
        raise ValueError("switching rate eps must be positive")
    cfg = config or ScatteringConfig()
    factor = _switch_schedule(h0, h_int, eps, shape, cfg.horizon_factor).factor
    vals, vecs, vecs_inv = eigenframe(h0)
    h_tilde = vecs_inv @ as_operator(h_int) @ vecs
    gap = 1j * (vals[:, None] - vals[None, :])
    horizon = direction * cfg.horizon_factor / eps
    # The smooth switch is exactly free beyond its support: nothing to check.
    doubled = cfg.check_convergence and shape == "exp"
    t_eval = [horizon, 2.0 * horizon] if doubled else [horizon]

    if form == "K":

        def rhs(t, k):
            return 1j * factor(t) * (k @ (h_tilde * np.exp(gap * t)))

    else:

        def rhs(t, g):
            return -1j * factor(t) * ((h_tilde * np.exp(gap * t)) @ g)

    sol = solve_ode(
        rhs,
        0.0,
        t_eval[-1],
        np.eye(len(vals), dtype=complex),
        rtol=cfg.rtol,
        atol=cfg.atol,
        t_eval=t_eval,
    )
    at_horizon, limit = (vecs @ y @ vecs_inv for y in (sol.states[0], sol.states[-1]))
    if doubled:
        drift = frobenius(limit - at_horizon)
        if drift > cfg.convergence_tol:
            raise NoConvergence(
                f"Moller limit moved by {drift:.3e} when doubling the horizon"
            )
    return limit, at_horizon


def moller_minus(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """In-map ``lim_{t -> -inf} U(0, t) U_0(t, 0)`` at switching rate eps."""
    return _dressing(h0, h_int, eps, config, "K", -1, shape)[0]


def moller_plus(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """Out-map ``lim_{t -> +inf} U_0(0, t) U(t, 0)`` at switching rate eps."""
    return _dressing(h0, h_int, eps, config, "G", +1, shape)[0]


def out_dressing(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """``lim_{t -> +inf} U(0, t) U_0(t, 0)``, the bra-side dressing.

    This is the inverse of :func:`moller_plus`; the transition amplitudes
    pair it against the adiabatic metric, which is what makes the free
    probability-conservation identity carry over to the dressed S-matrix.
    """
    return _dressing(h0, h_int, eps, config, "K", +1, shape)[0]


def in_state(psi, h0, h_int, eps, config=None, shape="exp") -> np.ndarray:
    """Free state dressed into the interacting in-state."""
    return moller_minus(h0, h_int, eps, config, shape) @ np.asarray(psi, dtype=complex)


def out_state(psi, h0, h_int, eps, config=None, shape="exp") -> np.ndarray:
    """Free state dressed into the interacting out-state."""
    return moller_plus(h0, h_int, eps, config, shape) @ np.asarray(psi, dtype=complex)


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


def dynamical_phase_integrals(h0, h_int, eps, shape="exp", horizon_factor=12.0) -> np.ndarray:
    """Per-level accumulated energy shift ``int (E_n(t) - E_n_free) dt``.

    This integral grows like 1/eps under slow switching, which is why raw
    S-matrix entries never converge entrywise: each level spins up an
    unbounded dynamical phase.  Multiplying half the counterphase onto
    each side of the S-matrix removes the divergence and leaves a
    switching-shape-independent limit.  Levels are followed along the
    coupling path by :func:`continued_eigensystems`, in the (real, imag)
    order of the free spectrum, and only the real parts of their
    eigenvalues contribute (real-spectrum paths).
    """
    us = np.linspace(0.0, 1.0, _PHASE_POINTS)
    h0, h_int = as_operator(h0), as_operator(h_int)
    path = (
        h0 + us[i : i + PATH_CHUNK, None, None] * h_int
        for i in range(0, _PHASE_POINTS, PATH_CHUNK)
    )
    levels = np.concatenate([vals.real for vals, _, _ in continued_eigensystems(path)])
    g = levels - levels[0]
    if shape == "exp":
        # int_R g(exp(-eps|t|)) dt = (2/eps) int_0^1 g(u)/u du
        integrand = np.empty_like(g)
        integrand[1:] = g[1:] / us[1:, None]
        integrand[0] = 2.0 * integrand[1] - integrand[2]
        return (2.0 / eps) * np.trapezoid(integrand, us, axis=0)
    if shape == "smooth":
        # f(t) = cos^2(pi t / (2 width)); substitute s = pi t / (2 width)
        width = horizon_factor / eps
        s_grid = np.linspace(0.0, 0.5 * math.pi, _PHASE_POINTS)
        u_vals = np.cos(s_grid) ** 2
        g_interp = np.stack(
            [np.interp(u_vals, us, g[:, n]) for n in range(g.shape[1])], axis=1
        )
        return (4.0 * width / math.pi) * np.trapezoid(g_interp, s_grid, axis=0)
    raise ValueError(f"unknown switch shape {shape!r}")


@dataclass(frozen=True)
class ScatteringResult:
    """Dressed S-matrix and the operators it was assembled from."""

    s_matrix: np.ndarray
    theta_adiabatic: np.ndarray
    moller_minus: np.ndarray
    eps: float
    unitarity_defect: float
    phases: np.ndarray

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
    Moller identity ``K^-dag W^dag Theta_0 W K^-1``, with K the in-dressing
    at the single horizon ``-T`` where the integrated flow would start and
    ``W = U_0(-T, 0)``.  When ``theta0`` is static for ``h0`` (as the
    identity is for Hermitian ``h0``) ``W^dag Theta_0 W = Theta_0``.  That
    leaves one solve per dressing; :func:`adiabatic_metric` integrates the
    flow and is the oracle for the identity.  Raises
    :class:`ComplexSpectrum` when ``h0 + h_int`` has no real spectrum.
    """
    cfg = config or ScatteringConfig()
    h0 = as_operator(h0)
    h_int = as_operator(h_int)
    if not spectrum_reality_check(h0 + h_int, 1e-9):
        raise ComplexSpectrum(
            "full generator has complex spectrum; adiabatic metric undefined"
        )
    theta0 = _require_hermitian(
        np.eye(h0.shape[0], dtype=complex) if theta0 is None else theta0
    )

    vals, vecs, vecs_inv = eigenframe(h0)
    basis = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)

    om_in, k_horizon = _dressing(h0, h_int, eps, cfg, "K", -1, shape)
    om_out = out_dressing(h0, h_int, eps, cfg, shape)
    # U(0, -T)^-1 = W K^-1 with W = U_0(-T, 0) = V diag(exp(i E T)) V^-1
    phase = np.exp(1j * vals * (cfg.horizon_factor / eps))
    pull = vecs @ (phase[:, None] * vecs_inv) @ np.linalg.inv(k_horizon)
    theta = _symmetrize(pull.conj().T @ theta0 @ pull)

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
    )
