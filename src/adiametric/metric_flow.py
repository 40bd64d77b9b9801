"""Evolution and analysis of time-dependent metric operators.

A non-Hermitian generator H conserves the redefined inner product
``<Psi|Theta Phi>`` exactly when the metric obeys the flow equation

    dTheta/dt = i (Theta H - H^dagger Theta).

This module integrates that equation for metric trajectories (the adaptive
DOP853 pair with interpolated samples, on a right-hand side that is
Hermitian entry by entry); a metric at one time comes from a CF4
propagator U instead, as the flow conserves ``U^-dagger Theta U^-1``.  It
provides one alternative solver that cross-validates the flow (conjugation
by midpoint propagators from the stacked Taylor exponential), constructs
static metrics from biorthogonal eigensystems, maps metrics to and from the
left-eigenbasis coefficient picture where the flow is diagonal, and derives
the quasi-Hermitian "observable" generator along with its Hermitian
representation in the Cholesky gauge and the gauge-free residual of its
metric correction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._integrate import _stops, magnus_cf4, solve_ode
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonpositiveWeight,
    NotPositive,
    SingularMetric,
    SolverError,
)
from .operator_core import (
    PATH_CHUNK,
    BiorthogonalSystem,
    _continued_levels,
    _expm_stack,
    _frobenius_stack,
    _hermiticity_defects,
    _hermitian_part,
    _is_hermitian,
    _lower_inverse,
    _operator_pair,
    _require_hermitian,
    _require_positive,
    _require_real_spectrum,
    _require_separated,
    as_operator,
    frobenius,
    hermitian_sqrt,
)

__all__ = [
    "SolverConfig",
    "MetricTrajectory",
    "quasi_hermiticity_residual",
    "static_metric",
    "flow_rhs",
    "evolve_metric",
    "evolve_metric_via_propagator",
    "eigenbasis_coefficients",
    "metric_from_eigenbasis",
    "adiabatic_transport_prediction",
    "observable_hamiltonian",
    "hermitian_representation",
    "HermitianRepresentation",
    "transition_probability",
]


@dataclass(frozen=True)
class SolverConfig:
    """Step control for the adaptive metric integrator."""

    rtol: float = 1e-9
    atol: float = 1e-12
    samples: int = 201

    def __post_init__(self):
        _require_positive(self.rtol, "solver rtol")
        _require_positive(self.atol, "solver atol")
        if not isinstance(self.samples, numbers.Integral):  # numpy integers pass
            raise ConfigError(f"solver samples must be an integer, got {self.samples!r}")
        if self.samples < 2:  # the samples span [t0, t1], both ends included
            raise ConfigError(f"solver samples must be at least 2, got {self.samples}")


@dataclass(frozen=True)
class MetricTrajectory:
    """Time-ordered metric samples, the solver name and its metadata."""

    times: np.ndarray
    metrics: np.ndarray
    solver: str
    stats: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.metrics[-1]

    def hermiticity_defects(self) -> np.ndarray:
        return _hermiticity_defects(np.asarray(self.metrics, dtype=complex))


def quasi_hermiticity_residual(h, theta) -> float:
    """``||H^dagger Theta - Theta H||_F``; zero when H is quasi-Hermitian."""
    h, theta = _operator_pair(h, theta)
    return frobenius(h.conj().T @ theta - theta @ h)


def flow_rhs(h, theta) -> np.ndarray:
    """Right-hand side ``i (Theta H - H^dagger Theta)`` of the metric flow.

    The result is Hermitian whenever ``theta`` is, which is what keeps
    Hermiticity an invariant of the evolution.
    """
    h = np.asarray(h, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    return 1j * (theta @ h - h.conj().T @ theta)


def static_metric(system: BiorthogonalSystem, weights) -> np.ndarray:
    """Static metric ``sum_n w_n |left_n><left_n|`` for a real spectrum.

    Raises :class:`ComplexSpectrum` when the eigenvalues are not real
    within ``SPECTRUM_TOL`` (no positive static solution exists then) and
    :class:`NonpositiveWeight` unless every weight is finite and positive.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (system.dim,):
        raise NonpositiveWeight(f"expected {system.dim} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise NonpositiveWeight("all static-metric weights must be finite and positive")
    _require_real_spectrum(system.eigenvalues,
                           "spectrum has imaginary parts; no positive static metric exists")
    return _hermitian_part((system.left * w) @ system.left.conj().T)


def _hermitian_flow_rhs(h, theta):
    """:func:`flow_rhs` for a Hermitian ``theta``, from the one product ``Theta H``.

    ``H^dagger Theta = (Theta H)^dagger`` then, and ``i (A - A^dagger)`` is
    Hermitian bit for bit: entry (j, i) is formed from the same two entries
    of A as entry (i, j) and comes out as its exact complex conjugate.
    """
    a = theta @ h
    return 1j * (a - a.conj().swapaxes(-1, -2))


def evolve_metric(schedule, theta0, t0, t1, config: SolverConfig | None = None):
    """Integrate the metric flow along a Hamiltonian schedule.

    ``schedule`` provides ``at(t)`` and ``breakpoints()``, where the
    stepper lands exactly; the ``config.samples`` uniform
    samples are read off its dense output.  Every stage ``i (A - A^dagger)``,
    ``A = Theta H``, is Hermitian bit for bit whatever its argument, so the
    anti-Hermitian part that rounding leaves in the carried state is never
    driven and needs no projection.  :func:`solve_ode` combines stages by
    BLAS products, which may round an entry and its conjugate partner
    differently, so each returned sample is made exactly Hermitian: its
    strict lower triangle is the conjugate of the upper one.  A step
    costs 12 rhs calls (the last first-same-as-last), 3 more when a sample
    falls inside it; ``stats["ndense"]`` counts those steps.  A ``theta0``
    of another shape than the generator raises :class:`DimensionMismatch`,
    and an empty window, ``t1 == t0``, :class:`ConfigError`.
    """
    cfg = config or SolverConfig()
    if t1 == t0:
        raise ConfigError(f"evolution window [{t0}, {t1}] is empty: t1 must differ from t0")
    theta0 = _require_hermitian(_operator_pair(schedule.h0, theta0)[1])
    t_eval = np.linspace(t0, t1, cfg.samples)
    sol = solve_ode(lambda t, y: _hermitian_flow_rhs(schedule.at(t), y), t0, t1, theta0,
                    rtol=cfg.rtol, atol=cfg.atol, t_eval=t_eval,
                    breakpoints=schedule.breakpoints())
    metrics = np.array(sol.states)
    lower = np.tri(len(theta0), k=-1, dtype=bool)
    np.copyto(metrics, metrics.conj().swapaxes(1, 2), where=lower)
    return MetricTrajectory(
        times=sol.times,
        metrics=metrics,
        solver="runge_kutta",
        stats=sol.stats,
    )


def evolve_metric_via_propagator(schedule, theta0, t0, t1, nsteps=2000):
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


def eigenbasis_coefficients(system: BiorthogonalSystem, theta) -> np.ndarray:
    """Coefficients of the metric on the left-eigenvector dyads.

    Writing ``Theta = sum_mn c_mn |left_m><left_n|``, biorthonormality
    gives ``c = right^dagger Theta right``.  Hermitian metrics produce
    Hermitian coefficient matrices.
    """
    theta = _operator_pair(system.right, theta)[1]
    return system.right.conj().T @ theta @ system.right


def metric_from_eigenbasis(system: BiorthogonalSystem, coeffs) -> np.ndarray:
    """Inverse of :func:`eigenbasis_coefficients`."""
    coeffs = _operator_pair(system.left, coeffs)[1]
    return system.left @ coeffs @ system.left.conj().T


def adiabatic_transport_prediction(hamiltonians, theta0) -> np.ndarray:
    """Predicted endpoint of an adiabatic metric transport.

    ``hamiltonians`` is a dense sequence of generators sampled along a
    slow path.  The initial metric is decomposed on the first eigensystem;
    the left eigenvectors are then continued along the path by
    :func:`continued_eigensystems` in the parallel gauge (the pairing of
    consecutive right vectors against the previous left vectors is held at
    unity, which removes the normalization freedom of the biorthogonal
    family), and the diagonal weights are carried unchanged.  Each path
    step takes the pairing at its midpoint, as the geometric mean of the
    forward and the inverse backward pairing, so the transport is second
    order in the path spacing.  For a real-spectrum path the result is the
    static metric an infinitely slow traversal of the same path would
    reach; it serves as an independent oracle for slow-ramp and
    slow-switching experiments.  Path points :func:`biorthogonal_decompose`
    would reject raise the same errors, decided on the one ``eig`` of each
    path chunk before its levels are matched; an empty path raises
    :class:`ConfigError`.
    """
    if len(hamiltonians) == 0:
        raise ConfigError("hamiltonian path must not be empty")
    theta0 = _operator_pair(hamiltonians[0], theta0)[1]
    chunks = (np.array([as_operator(h) for h in hamiltonians[i : i + PATH_CHUNK]])
              for i in range(0, len(hamiltonians), PATH_CHUNK))
    gauge = None
    levels = _continued_levels(_require_separated(c, *np.linalg.eig(c)) for c in chunks)
    for _, right, left_h in levels:
        if gauge is None:
            weights = np.diag(right[0].conj().T @ theta0 @ right[0]).real
            gauge, carry = np.ones(len(weights), dtype=complex), (right[0], left_h[0])
        # per path step the left vectors pick up p / sqrt(p q) = sqrt(p / q)
        # from the pairings p = diag(left_{k-1}^dag right_k) and
        # q = diag(left_k^dag right_{k-1}) of the unit-norm right vectors;
        # p q = 1 + O(h^2) is free of the arbitrary eigenvector phases, so
        # its principal root fixes the branch
        prev_right = np.concatenate([carry[0][None], right[:-1]])
        prev_left = np.concatenate([carry[1][None], left_h[:-1]])
        forward = np.einsum("kmi,kim->km", prev_left, right)
        backward = np.einsum("kmi,kim->km", left_h, prev_right)
        gauge = gauge * np.prod(forward / np.sqrt(forward * backward), axis=0)
        carry = (right[-1], left_h[-1])
    left = carry[1].conj().T * gauge.conj()
    return _hermitian_part((left * weights) @ left.conj().T)


#: Largest metric condition number :func:`observable_hamiltonian` accepts.
_MAX_COND = 1e12

#: Samples per block of :func:`hermitian_representation`; bounds its scratch memory.
_REP_BLOCK = 8


def observable_hamiltonian(h, theta, theta_dot) -> np.ndarray:
    """Energy-like generator quasi-Hermitian under the instantaneous metric.

    Returns ``H + (i/2) Theta^-1 dTheta/dt``.  With the time derivative
    supplied by :func:`flow_rhs` this operator satisfies the algebraic
    quasi-Hermiticity condition exactly, and its similarity transform by
    the metric square root is exactly Hermitian; the factor i/2 is what
    makes both identities hold (a bare factor i leaves residuals of order
    ``||dTheta/dt||``).
    """
    h, theta = _operator_pair(h, theta)
    theta_dot = _operator_pair(h, theta_dot)[1]
    cond = np.linalg.cond(theta)
    if not np.isfinite(cond) or cond > _MAX_COND:
        raise SingularMetric(f"metric condition number {cond:.3e}")
    return h + 0.5j * np.linalg.solve(theta, theta_dot)


@dataclass(frozen=True)
class HermitianRepresentation:
    """Hermitian counterpart of the observable generator along a trajectory.

    ``h_ops`` holds ``eta H_obs eta^-1`` in the Cholesky gauge ``eta = L^dagger``,
    ``Theta = L L^dagger``.  Every factor ``eta^dagger eta = Theta`` gives a
    Hermitian matrix unitarily equivalent to this one; the principal root
    ``Omega = Theta^(1/2)`` gives ``Q^dagger h_ops Q``, ``Q = L^dagger Omega^-1``,
    so the spectrum and the Hermiticity do not depend on the choice.
    ``generator_residuals`` is the gauge-free part of the metric correction:
    ``||Herm((i/2) Theta^-1 dTheta/dt)||_F`` with dTheta/dt from the flow,
    relative to ``max(||H||_F, 1)``.  It is finite at every sample, ends
    included, zero exactly where dTheta/dt commutes with Theta, and
    vanishes in the slow-driving limit.
    """

    times: np.ndarray
    h_ops: np.ndarray
    hermiticity_defects: np.ndarray
    generator_residuals: np.ndarray


def hermitian_representation(trajectory: MetricTrajectory, schedule):
    """Hermitian counterpart ``eta H_obs eta^-1`` at every sample, ``eta = L^dagger``.

    ``H_obs`` is :func:`observable_hamiltonian` with dTheta/dt from the
    flow.  The samples are taken ``_REP_BLOCK`` at a time, each block on its
    own: one batched Cholesky factorization ``Theta = L L^dagger`` and one
    triangular inverse give ``h_ops`` and the residuals, and the Frobenius
    bound ``(||L||_F ||L^-1||_F)^2 >= cond(Theta)`` screens the condition
    number; a block past it is decided on its eigenvalues.  A sample the
    per-sample path rejects raises the same error: :class:`DimensionMismatch`
    for non-finite entries or a schedule of another size than the metrics,
    :class:`SingularMetric` past condition number 1e12,
    :class:`NonHermitianInput` and :class:`NotPositive`.
    """
    times = np.asarray(trajectory.times, dtype=float)
    thetas = np.asarray(trajectory.metrics, dtype=complex)
    if thetas.ndim != 3 or thetas.shape[1] != thetas.shape[2] or len(thetas) != len(times):
        raise DimensionMismatch(f"expected {len(times)} square metrics, got shape {thetas.shape}")
    n = len(times)
    h_ops = np.empty_like(thetas)
    defects = np.empty(n)
    residuals = np.empty(n)
    for start in range(0, n, _REP_BLOCK):
        block = slice(start, start + _REP_BLOCK)
        h = np.array([schedule.at(t) for t in times[block]], dtype=complex)
        if h.shape != thetas[block].shape:
            raise DimensionMismatch(
                f"schedule operators of shape {h.shape[1:]} against metrics of shape "
                f"{thetas.shape[1:]}")
        h_rep, correction = _representation_factors(h, thetas[block])
        h_ops[block] = h_rep
        defects[block] = _hermiticity_defects(h_rep) / (
            np.maximum(_frobenius_stack(h_rep), 1e-300))
        residuals[block] = _frobenius_stack(correction) / np.maximum(_frobenius_stack(h), 1.0)
    return HermitianRepresentation(times, h_ops, defects, residuals)


def _representation_factors(h, theta):
    """``(L^dagger H_obs L^-dagger, C)`` of a block of samples, ``Theta = L L^dagger``.

    The flow gives ``H_obs = (H + Theta^-1 H^dagger Theta) / 2``, so with
    ``B = (L^dagger H) L^-dagger`` and ``D = L^-1 (H^dagger L)`` the representation
    is ``(B + D) / 2``.  B and D are separate products and nothing is
    symmetrized after them, so the Hermiticity defect measures their
    rounding.  ``G = H - L^-dagger D L^dagger = -i Theta^-1 dTheta/dt``, and C is
    ``(G + G^dagger) / 4``, the Hermitian part of the metric correction
    ``H_obs - H``.  Every array is C-contiguous: a stacked ``@`` copies a
    transposed view.
    """
    ok = np.isfinite(h).all(axis=(1, 2)) & np.isfinite(theta).all(axis=(1, 2))
    ok &= _is_hermitian(theta)
    if not ok.all():
        _raise_first_fault(h, theta, ~ok)
    low, low_inv = _metric_factors(h, theta)
    low_h = np.ascontiguousarray(low.conj().swapaxes(1, 2))
    low_inv_h = np.ascontiguousarray(low_inv.conj().swapaxes(1, 2))
    h_h = np.ascontiguousarray(h.conj().swapaxes(1, 2))
    b = (low_h @ h) @ low_inv_h
    d = low_inv @ (h_h @ low)
    g = h - (low_inv_h @ d) @ low_h
    return 0.5 * (b + d), 0.25 * (g + g.conj().swapaxes(1, 2))


def _metric_factors(h, theta):
    """``(L, L^-1)`` with ``Theta = L L^dagger`` for a block of finite Hermitian metrics.

    A block whose Cholesky factorization fails, or whose Frobenius bound
    ``(||L||_F ||L^-1||_F)^2`` passes ``_MAX_COND``, is decided on its
    eigenvalues as the per-sample path decides it: a sample past the
    condition limit or not positive goes to :func:`_raise_first_fault`.
    """
    herm = _hermitian_part(theta)
    try:
        low = np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        low, wide = None, np.ones(len(theta), dtype=bool)
    else:
        low_inv = _lower_inverse(low)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (_frobenius_stack(low) * _frobenius_stack(low_inv)) ** 2
        wide = ~(bound <= _MAX_COND)
    if wide.any():
        vals = np.linalg.eigvalsh(herm[wide])
        with np.errstate(divide="ignore", invalid="ignore"):
            # the singular values of a Hermitian matrix are its |eigenvalues|
            cond = np.abs(vals).max(axis=1) / np.abs(vals).min(axis=1)
        bad = np.zeros(len(theta), dtype=bool)
        bad[wide] = ~(cond <= _MAX_COND) | (vals[:, 0] <= 0.0)
        if bad.any() or low is None:  # a failed factorization with no bad sample is at the limit
            _raise_first_fault(h, theta, bad if bad.any() else wide)
    return low, low_inv


def _raise_first_fault(h, theta, flagged):
    """Raise what the per-sample path raises for the first flagged sample.

    The samples up to it go through the per-sample checks in order, so an
    earlier sample those checks reject raises first, as it would there.
    Those checks (the condition number from an SVD, positivity from
    ``eigh``) are the reference: the Cholesky screen and the eigenvalue test
    of :func:`_metric_factors` only choose the samples sent here.
    """
    for k in range(int(np.argmax(flagged)) + 1):
        observable_hamiltonian(h[k], theta[k], flow_rhs(h[k], theta[k]))
        hermitian_sqrt(theta[k])
    # only a condition number that eigvalsh puts just past the limit and the
    # SVD of the per-sample check does not, or a block whose Cholesky
    # factorization fails though its eigenvalues pass, gets here
    raise SingularMetric(f"metric condition number at the limit {_MAX_COND:.0e}")


def _accumulate_propagator(schedule, t_from, t_to, rtol, atol):
    """Evolution operator U(t_to, t_from), either direction in time, by
    :func:`magnus_cf4` on ``-i (h0 + factor(t) h_int)``, one segment per
    interval between the schedule's breakpoints, so each sees a smooth factor."""
    ends = [t_from, *_stops(schedule.breakpoints(), t_from, t_to)]
    a0, a1 = -1j * schedule.h0, -1j * schedule.h_int
    u = np.eye(len(a0), dtype=complex)
    for a, b in zip(ends, ends[1:]):
        u = magnus_cf4(a0, a1, schedule.factor, a, b, rtol=rtol, atol=atol)[0] @ u
    return u


def _metric_normalized(state, theta):
    """``state`` scaled to unit norm in the inner product of ``theta``."""
    norm2 = float(np.real(state.conj() @ theta @ state))
    if not norm2 > 0.0:
        raise NotPositive(f"state has metric norm squared {norm2:.3e}, not positive")
    return state / math.sqrt(norm2)


def transition_probability(
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
    value is ``|<phi|Theta(t_to) U(t_to, t_from) psi>|^2``.  The flow gives
    ``Theta(t_to) = V^dagger Theta(t_from) V``, ``V = U(t_from, t_to)``, so
    this is ``|<V phi|Theta(t_from) psi>|^2`` with V from :func:`magnus_cf4`
    run backward on the schedule's ``h0``, ``h_int`` and ``factor``; only
    ``config``'s ``rtol`` and ``atol`` apply.  A state whose metric norm is
    not positive raises :class:`NotPositive`, a state or ``theta_from`` of
    another size than the schedule :class:`DimensionMismatch`, an empty
    window :class:`ConfigError` and a non-finite one :class:`SolverError`.
    """
    cfg = config or SolverConfig(rtol=1e-11, atol=1e-13)
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    theta_from = _require_hermitian(_operator_pair(schedule.h0, theta_from)[1])
    if not phi.shape == psi.shape == theta_from.shape[:1]:
        raise DimensionMismatch(f"states of shapes {phi.shape} and {psi.shape} do not match "
                                f"the {theta_from.shape} metric")
    psi_n = _metric_normalized(psi, theta_from)
    if t_to == t_from:
        raise ConfigError(f"transition window [{t_from}, {t_to}] is empty")
    pulled = _accumulate_propagator(schedule, t_to, t_from, cfg.rtol, cfg.atol) @ phi
    phi_n = _metric_normalized(pulled, theta_from)
    return float(abs(phi_n.conj() @ theta_from @ psi_n) ** 2)
