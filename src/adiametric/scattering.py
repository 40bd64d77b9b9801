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
method (:func:`magnus_cf4`), which carries the free motion exactly; every
switch is even, so one exponential stack serves the far past and the far
future.  The adiabatic metric comes from the same stack by the Moller
identity, so no metric flow is integrated here.  The switch enters only
through its ``factor`` and ``support``; :func:`_switch_schedule` alone maps
a shape name to a switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrate import magnus_cf4
from .errors import ConfigError, NoConvergence, NotPositive
from .operator_core import (
    _continued_levels,
    _hermitian_part,
    _operator_pair,
    _require_hermitian,
    _require_positive,
    _require_real_spectrum,
    eigenframe,
    frobenius,
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


#: Largest change of a Moller limit under horizon doubling that counts as settled.
MOLLER_DRIFT_TOL = 1e-3


@dataclass(frozen=True)
class ScatteringConfig:
    """Accuracy and horizon shared by all scattering operations.

    The integration horizon is ``horizon_factor / eps``, where the damping
    factor has decayed to ``exp(-horizon_factor)``.  A dressing whose
    horizon lies inside the switch's support (the exp shape) is taken at the
    doubled horizon, and its Moller limit must have moved by at most
    ``MOLLER_DRIFT_TOL`` there (:func:`_dressing`).

    ``rtol``/``atol`` set the accuracy of the one integrator, :func:`magnus_cf4`,
    that gives the dressings and the adiabatic metric.  It accepts a
    propagator ``U`` of dimension d on one segment when its Richardson error
    estimate is at most ``d * atol + rtol * ||U||_F``.  That estimate,
    reported as ``error_estimate``, is the unextrapolated pass's; the
    returned extrapolant is typically about three orders more accurate.
    """

    rtol: float = 1e-10
    atol: float = 1e-13
    horizon_factor: float = 12.0

    def __post_init__(self):
        for name in ("rtol", "atol", "horizon_factor"):
            _require_positive(getattr(self, name), f"scattering {name}")


def _switch_schedule(h0, h_int, eps, shape, horizon_factor):
    _require_positive(eps, "switching rate eps")
    if shape == "exp":
        return ExponentialSwitch(h0, h_int, eps)
    if shape == "smooth":
        return SmoothSwitch(h0, h_int, width=horizon_factor / eps)
    raise ConfigError(f"unknown switch shape {shape!r}")


def _free_metric(h0, theta0):
    """``theta0`` (default: identity) checked as a free metric for ``h0``:
    :class:`DimensionMismatch` for another shape, :class:`NonHermitianInput`
    and :class:`NotPositive` for one that is not positive definite."""
    if theta0 is None:
        return np.eye(len(h0), dtype=complex)
    theta0 = _require_hermitian(_operator_pair(h0, theta0)[1])
    smallest = float(np.linalg.eigvalsh(theta0)[0])
    if smallest <= 0.0:
        raise NotPositive(f"theta0's smallest eigenvalue {smallest:.3e} is not positive")
    return theta0


def _mirrored_pass(switch, t0, t1, cfg):
    """``((U(t1, t0), U(-t0, -t1)), stats)`` of one mirrored :func:`magnus_cf4` pass."""
    return magnus_cf4(-1j * switch.h0, -1j * switch.h_int, switch.factor, t0, t1,
                      rtol=cfg.rtol, atol=cfg.atol, mirror=True)


def _moller_metric(theta0, u_in):
    """Theta(0) by the Moller identity ``U^dag Theta_0 U``, ``U = U(-T, 0)``,
    from ``u_in = U(0, -T)``: the metric flow conserves ``U^-dag Theta U^-1``."""
    u_past = np.linalg.inv(u_in)
    return _hermitian_part(u_past.conj().T @ theta0 @ u_past)


def _dressing(h0, h_int, eps, config, shape, frame, sides=(0, 1)):
    """Dressings ``K(t) = U(0,t) U_0(t,0)`` at the far past and future.

    ``K(-T) = U(0,-T) W(-T)`` and ``K(T) = U(T,0)^-1 W(T)``, with ``W(t) = V
    diag(exp(-i E t)) V^-1`` from ``frame = (E, V, V^-1)``.  The switch is
    even, so one mirrored :func:`magnus_cf4` pass from 0 to T gives ``U(T, 0)``
    and ``U(0, -T)``.  Exactly when T < ``support`` (the exp shape, never the
    smooth one), a tail pass gives the limits at 2T, which are returned, and
    those in ``sides`` (0 past, 1 future) must have moved by at most
    ``MOLLER_DRIFT_TOL`` (else :class:`NoConvergence`).  Returns ``(k_in,
    k_out, U(0, -T), stats)``, counts summed over segments.
    """
    cfg = config or ScatteringConfig()
    switch = _switch_schedule(h0, h_int, eps, shape, cfg.horizon_factor)
    vals, vecs, vecs_inv = frame
    horizon = cfg.horizon_factor / eps

    def dressings(u_out, u_in, t):
        free = [(vecs * np.exp(-1j * vals * s)) @ vecs_inv for s in (-t, t)]
        return u_in @ free[0], np.linalg.solve(u_out, free[1])

    (u_out, u_in), stats = _mirrored_pass(switch, 0.0, horizon, cfg)
    at_horizon = dressings(u_out, u_in, horizon)
    # Beyond its support the switch is free to roundoff: nothing to check.
    if horizon >= switch.support:
        return (*at_horizon, u_in, stats)
    (tail_out, tail_in), more = _mirrored_pass(switch, horizon, 2 * horizon, cfg)
    stats = {key: stats[key] + more[key] for key in stats}
    limits = dressings(tail_out @ u_out, u_in @ tail_in, 2.0 * horizon)
    drift = max(frobenius(limits[i] - at_horizon[i]) for i in sides)
    if drift > MOLLER_DRIFT_TOL:
        raise NoConvergence(f"Moller limit moved by {drift:.3e} when doubling the horizon")
    return (*limits, u_in, stats)


def moller_minus(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """In-map ``lim_{t -> -inf} U(0, t) U_0(t, 0)`` at switching rate eps."""
    return _dressing(h0, h_int, eps, config, shape, eigenframe(h0), (0,))[0]


def moller_plus(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """Out-map ``lim_{t -> +inf} U_0(0, t) U(t, 0)``, the inverse of :func:`out_dressing`."""
    return np.linalg.inv(out_dressing(h0, h_int, eps, config, shape))


def out_dressing(h0, h_int, eps, config: ScatteringConfig | None = None, shape="exp"):
    """``lim_{t -> +inf} U(0, t) U_0(t, 0)``, the bra-side dressing.

    This is the inverse of :func:`moller_plus`; the transition amplitudes
    pair it against the adiabatic metric, which is what makes the free
    probability-conservation identity carry over to the dressed S-matrix.
    """
    return _dressing(h0, h_int, eps, config, shape, eigenframe(h0), (1,))[1]


def adiabatic_metric(
    h0,
    h_int,
    theta0,
    eps,
    config: ScatteringConfig | None = None,
    shape="exp",
) -> np.ndarray:
    """Metric at t=0 grown from the free metric along the switching.

    The free metric is installed at the far-past horizon ``-T`` and carried
    forward by the metric flow, the direction consistent with conservation
    of the dressed inner product.  The flow conserves ``U^-dag Theta
    U^-1``, so this is the Moller identity ``U^dag Theta_0 U`` with ``U =
    U(-T, 0)`` from the mirrored :func:`magnus_cf4` pass that gives the
    dressings; it equals ``s_matrix(...).theta_adiabatic`` bit for bit.  As
    the switching rate vanishes the result approaches a static metric of
    the full generator (diagonal in its adjoint eigenbasis).  Before any
    integration it raises :class:`ComplexSpectrum` off a real spectrum on
    the switch (:func:`_switch_levels`), where the metric grows without
    bound, and checks ``theta0`` as :func:`s_matrix` does.
    """
    cfg = config or ScatteringConfig()
    switch = _switch_schedule(h0, h_int, eps, shape, cfg.horizon_factor)
    _switch_levels(switch)
    theta0 = _free_metric(switch.h0, theta0)
    (_, u_in), _ = _mirrored_pass(switch, 0.0, cfg.horizon_factor / eps, cfg)
    return _moller_metric(theta0, u_in)


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


def _switch_levels(switch):
    """Levels ``(513, d)`` of ``H_0 + f(t) H_I`` at the ``_PHASE_RULE`` nodes on
    ``[0, support]``, continued from the free end in the (real, imag) order
    of the free spectrum.  Their one batched ``eig`` decides real spectrum on
    the whole switch (:class:`ComplexSpectrum`), as finely as the nodes do: a
    complex window narrower than their spacing can fall between them."""
    factors = switch.factor(switch.support * _PHASE_RULE[0])
    vals, right = np.linalg.eig(switch.h0 + factors[:, None, None] * switch.h_int)
    _require_real_spectrum(vals, "complex spectrum along the switch; adiabatic metric undefined")
    ((levels, _, _),) = _continued_levels([(vals, right)])  # 513 nodes: one chunk
    return levels


def dynamical_phase_integrals(
    h0, h_int, eps, shape="exp", horizon_factor=ScatteringConfig.horizon_factor
) -> np.ndarray:
    """Per-level accumulated energy shift ``int (E_n(t) - E_n_free) dt``.

    This integral grows like 1/eps under slow switching, which is why raw
    S-matrix entries never converge entrywise: each level spins up an
    unbounded dynamical phase.  Multiplying half the counterphase onto
    each side of the S-matrix removes the divergence and leaves a
    switching-shape-independent limit.  It is ``2 int_0^support`` by one
    Clenshaw-Curtis rule on the levels of :func:`_switch_levels`; it raises
    :class:`ComplexSpectrum` where they are not real.
    """
    switch = _switch_schedule(h0, h_int, eps, shape, horizon_factor)
    levels = _switch_levels(switch)
    return 2.0 * switch.support * (_PHASE_RULE[1] @ (levels.real - levels[0].real))


@dataclass(frozen=True)
class ScatteringResult:
    """Dressed S-matrix and the operators it was assembled from.

    ``solver_stats`` holds the :func:`magnus_cf4` counts of the one
    integration both dressings come from, ``{"dressings": {"steps": ...,
    "exponentials": ..., "error_estimate": ...}}``; they are deterministic.
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
    K the in-dressing at the single horizon ``-T`` where the flow starts,
    ``W = U_0(-T, 0)`` and ``U = U(-T, 0)``; :func:`adiabatic_metric` returns
    the same matrix.  Both dressings and U come from one propagator
    integration (:func:`_dressing`).  Before any integration it raises
    :class:`ComplexSpectrum` for a switch without real spectrum (the phases
    come first, on :func:`_switch_levels`), :class:`DimensionMismatch` for a
    ``theta0`` of another shape than ``h0`` and :class:`NotPositive` for one
    that is not positive definite.
    """
    cfg = config or ScatteringConfig()
    phases = dynamical_phase_integrals(h0, h_int, eps, shape, cfg.horizon_factor)
    h0, h_int = _operator_pair(h0, h_int)
    theta0 = _free_metric(h0, theta0)
    frame = eigenframe(h0)
    basis = frame[1] / np.linalg.norm(frame[1], axis=0, keepdims=True)

    om_in, om_out, u_in, stats = _dressing(h0, h_int, eps, cfg, shape, frame)
    theta = _moller_metric(theta0, u_in)

    s = basis.conj().T @ om_out.conj().T @ theta @ om_in @ basis
    defect = frobenius(s.conj().T @ s - np.eye(s.shape[0]))
    return ScatteringResult(
        s_matrix=s,
        theta_adiabatic=theta,
        moller_minus=om_in,
        eps=eps,
        unitarity_defect=defect,
        phases=phases,
        solver_stats={"dressings": stats},
    )
