"""Evolution and analysis of time-dependent metric operators.

A non-Hermitian generator H conserves the redefined inner product
``<Psi|Theta Phi>`` exactly when the metric obeys the flow equation

    dTheta/dt = i (Theta H - H^dagger Theta).

This module integrates that equation (adaptive Runge-Kutta on a
right-hand side that is Hermitian entry by entry), provides three
alternative solvers that cross-validate it
(conjugation by midpoint propagators from the stacked Taylor exponential,
Picard iteration, normal-ordered exponential series), constructs static
metrics from biorthogonal eigensystems, maps metrics to and from the
left-eigenbasis coefficient picture where the flow is diagonal, and derives
the quasi-Hermitian "observable" generator along with its Hermitian
representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._integrate import solve_ode
from .errors import (
    ComplexSpectrum,
    DimensionMismatch,
    NonpositiveWeight,
    NotPositive,
    SingularMetric,
    SolverError,
)
from .operator_core import (
    GAP_TOL,
    HERMITICITY_TOL,
    PATH_CHUNK,
    SPECTRUM_TOL,
    BiorthogonalSystem,
    _expm_stack,
    _frobenius_stack,
    _require_hermitian,
    _require_separated,
    as_operator,
    continued_eigensystems,
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
    "picard_iterate",
    "normal_ordered_exp",
    "eigenbasis_coefficients",
    "metric_from_eigenbasis",
    "eigenbasis_evolution",
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
        m = np.asarray(self.metrics, dtype=complex)
        return _frobenius_stack(m - m.conj().swapaxes(1, 2))


def quasi_hermiticity_residual(h, theta) -> float:
    """``||H^dagger Theta - Theta H||_F``; zero when H is quasi-Hermitian."""
    h = as_operator(h)
    theta = as_operator(theta)
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
    :class:`NonpositiveWeight` unless every weight is positive.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (system.dim,):
        raise NonpositiveWeight(f"expected {system.dim} weights, got shape {w.shape}")
    if np.any(w <= 0.0):
        raise NonpositiveWeight("all static-metric weights must be positive")
    if np.max(np.abs(system.eigenvalues.imag)) >= SPECTRUM_TOL:
        raise ComplexSpectrum(
            "spectrum has imaginary parts; no positive static metric exists"
        )
    theta = (system.left * w) @ system.left.conj().T
    return 0.5 * (theta + theta.conj().T)


def _symmetrize(m):
    return 0.5 * (m + m.conj().T)


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

    ``schedule`` provides ``at(t)`` (and optionally ``breakpoints()``).
    The right-hand side is exactly Hermitian for a Hermitian metric, and
    every Runge-Kutta stage is a real combination of such terms, so the
    samples are Hermitian bit for bit and need no re-symmetrization;
    the stepper keeps its first-same-as-last stage (6 rhs calls a step).
    """
    cfg = config or SolverConfig()
    theta0 = _require_hermitian(theta0)
    t_eval = np.linspace(t0, t1, cfg.samples)
    breaks = getattr(schedule, "breakpoints", tuple)()
    sol = solve_ode(
        lambda t, y: _hermitian_flow_rhs(schedule.at(t), y),
        t0,
        t1,
        theta0,
        rtol=cfg.rtol,
        atol=cfg.atol,
        t_eval=t_eval,
        breakpoints=breaks,
    )
    return MetricTrajectory(
        times=sol.times,
        metrics=np.array(sol.states),
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
    formed ``PATH_CHUNK`` at a time by one stacked Taylor evaluation.
    """
    theta0 = _require_hermitian(theta0)
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
                metrics.append(_symmetrize(back.conj().T @ theta0 @ back))
    return MetricTrajectory(
        times=np.array(times),
        metrics=np.array(metrics),
        solver="propagator_conjugation",
        stats={"nsteps": nsteps},
    )


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


def eigenbasis_coefficients(system: BiorthogonalSystem, theta) -> np.ndarray:
    """Coefficients of the metric on the left-eigenvector dyads.

    Writing ``Theta = sum_mn c_mn |left_m><left_n|``, biorthonormality
    gives ``c = right^dagger Theta right``.  Hermitian metrics produce
    Hermitian coefficient matrices.
    """
    theta = as_operator(theta)
    return system.right.conj().T @ theta @ system.right


def metric_from_eigenbasis(system: BiorthogonalSystem, coeffs) -> np.ndarray:
    """Inverse of :func:`eigenbasis_coefficients`."""
    coeffs = as_operator(coeffs)
    return system.left @ coeffs @ system.left.conj().T


def eigenbasis_evolution(system: BiorthogonalSystem, coeffs0, t) -> np.ndarray:
    """Exact coefficient flow ``c_mn(t) = exp(i (E_n - E_m^*) t) c_mn(0)``.

    Substituting the dyad expansion into the metric flow gives this phase
    law (the index order follows from bra-side eigenvectors carrying the
    unconjugated eigenvalue; it is verified against direct integration in
    the tests).  For a real spectrum the diagonal is constant and
    off-diagonal moduli are conserved (pure phase rotation); any imaginary
    eigenvalue parts turn the phases into exponential growth or decay.
    """
    coeffs0 = as_operator(coeffs0)
    e = system.eigenvalues
    phase = np.exp(1j * (e[None, :] - e[:, None].conj()) * t)
    return phase * coeffs0


def adiabatic_transport_prediction(hamiltonians, theta0) -> np.ndarray:
    """Predicted endpoint of an adiabatic metric transport.

    ``hamiltonians`` is a dense sequence of generators sampled along a
    slow path.  The initial metric is decomposed on the first eigensystem;
    the left eigenvectors are then continued along the path by
    :func:`continued_eigensystems` in the parallel gauge (the pairing of
    consecutive right vectors against the previous left vectors is held at
    unity, which removes the normalization freedom of the biorthogonal
    family), and the diagonal weights are carried unchanged.  For a
    real-spectrum path the result is the static metric an infinitely slow
    traversal of the same path would reach; it serves as an independent
    oracle for slow-ramp and slow-switching experiments.  Path points
    :func:`biorthogonal_decompose` would reject raise the same errors.
    """
    gauge = None
    for _, right, left_h in continued_eigensystems(_separated_chunks(hamiltonians)):
        if gauge is None:
            weights = np.diag(right[0].conj().T @ as_operator(theta0) @ right[0]).real
            gauge, carry = np.ones(len(weights), dtype=complex), left_h[0]
        # parallel gauge: the left vectors pick up every pairing
        # diag(left_{k-1}^dag right_k) of the unit-norm right vectors
        prev = np.concatenate([carry[None], left_h[:-1]])
        gauge = gauge * np.prod(np.einsum("kmi,kim->km", prev, right), axis=0)
        carry = left_h[-1]
    left = carry.conj().T * gauge.conj()
    return _symmetrize((left * weights) @ left.conj().T)


def _separated_chunks(hamiltonians):
    """Stacked path chunks, each checked as :func:`biorthogonal_decompose` would."""
    for i in range(0, len(hamiltonians), PATH_CHUNK):
        chunk = np.array([as_operator(h) for h in hamiltonians[i : i + PATH_CHUNK]])
        vals, right = np.linalg.eig(chunk)
        norms = np.linalg.norm(chunk, axis=(1, 2))
        _require_separated(vals, right, GAP_TOL * np.maximum(1.0, norms))
        yield chunk


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
    h = as_operator(h)
    theta = as_operator(theta)
    theta_dot = as_operator(theta_dot)
    cond = np.linalg.cond(theta)
    if not np.isfinite(cond) or cond > _MAX_COND:
        raise SingularMetric(f"metric condition number {cond:.3e}")
    return h + 0.5j * np.linalg.solve(theta, theta_dot)


@dataclass(frozen=True)
class HermitianRepresentation:
    """Similarity-transformed generator samples along a trajectory.

    ``generator_residuals`` reports how well ``H_obs - i Omega^-1 dOmega/dt``
    reproduces the schedule Hamiltonian, with dOmega/dt from central finite
    differences on the sampled square roots (endpoints are NaN).  The
    residual is diagnostic: it carries both the finite-difference error and
    the square-root ordering term, and vanishes in the slow-driving limit.
    """

    times: np.ndarray
    h_ops: np.ndarray
    hermiticity_defects: np.ndarray
    generator_residuals: np.ndarray


def hermitian_representation(trajectory: MetricTrajectory, schedule):
    """Hermitian counterpart ``Omega H_obs Omega^-1`` at every sample.

    The samples are taken ``_REP_BLOCK`` at a time.  One batched ``eigh``
    of a block's metrics gives Omega, Omega^-1 and Theta^-1 for
    ``H_obs = H + (i/2) Theta^-1 dTheta/dt`` (:func:`observable_hamiltonian`
    with dTheta/dt from the flow), the condition number and the positivity
    test.  A sample the per-sample path rejects raises the same error:
    :class:`DimensionMismatch` for non-finite entries,
    :class:`SingularMetric` past condition number 1e12,
    :class:`NonHermitianInput` and :class:`NotPositive`.
    """
    times = np.asarray(trajectory.times, dtype=float)
    thetas = np.asarray(trajectory.metrics, dtype=complex)
    if thetas.ndim != 3 or thetas.shape[1] != thetas.shape[2] or len(thetas) != len(times):
        raise DimensionMismatch(
            f"expected {len(times)} square metrics, got shape {thetas.shape}"
        )
    n = len(times)
    h_ops = np.empty_like(thetas)
    defects = np.empty(n)
    residuals = np.full(n, np.nan)
    carry = None  # the previous block's last two samples
    for start in range(0, n, _REP_BLOCK):
        stop = min(start + _REP_BLOCK, n)
        h = np.array([schedule.at(t) for t in times[start:stop]], dtype=complex)
        omega, omega_inv, h_obs = _representation_factors(h, thetas[start:stop])
        h_rep = omega @ h_obs @ omega_inv
        h_ops[start:stop] = h_rep
        defects[start:stop] = _frobenius_stack(h_rep - h_rep.conj().swapaxes(1, 2)) / (
            np.maximum(_frobenius_stack(h_rep), 1e-300))
        # central differences of Omega reach two samples back into the
        # previous block; the block's last sample waits for the next one
        window = (omega, omega_inv, h_obs, h)
        if carry is not None:
            window = [np.concatenate(pair) for pair in zip(carry, window)]
        carry = [x[-2:] for x in window]
        om, om_inv, h_obs, h = window
        first = stop - len(om)
        if len(om) >= 3:
            dt = (times[first + 2 : stop] - times[first : stop - 2])[:, None, None]
            gen = h_obs[1:-1] - 1j * (om_inv[1:-1] @ ((om[2:] - om[:-2]) / dt))
            residuals[first + 1 : stop - 1] = _frobenius_stack(gen - h[1:-1]) / (
                np.maximum(_frobenius_stack(h[1:-1]), 1.0))

    return HermitianRepresentation(
        times=times,
        h_ops=h_ops,
        hermiticity_defects=defects,
        generator_residuals=residuals,
    )


def _representation_factors(h, theta):
    """``(Omega, Omega^-1, H_obs)`` of a block of samples from one batched ``eigh``.

    Every array is C-contiguous: a stacked ``@`` copies a transposed view.
    """
    ok = np.isfinite(h).all(axis=(1, 2)) & np.isfinite(theta).all(axis=(1, 2))
    ok &= _frobenius_stack(theta - theta.conj().swapaxes(1, 2)) <= (
        HERMITICITY_TOL * np.maximum(1.0, _frobenius_stack(theta)))
    if not ok.all():
        _raise_first_fault(h, theta, ~ok)
    herm = 0.5 * (theta + theta.conj().swapaxes(1, 2))
    vals, vecs = np.linalg.eigh(herm)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the singular values of a Hermitian matrix are its |eigenvalues|
        cond = np.abs(vals).max(axis=1) / np.abs(vals).min(axis=1)
    bad = ~(cond <= _MAX_COND) | (vals[:, 0] <= 0.0)
    if bad.any():
        _raise_first_fault(h, theta, bad)
    vecs_h = np.ascontiguousarray(vecs.conj().swapaxes(1, 2))
    root = np.sqrt(vals)[:, None, :]
    theta_inv = (vecs / vals[:, None, :]) @ vecs_h
    h_obs = h + 0.5j * (theta_inv @ _hermitian_flow_rhs(h, herm))
    return (vecs * root) @ vecs_h, (vecs / root) @ vecs_h, h_obs


def _raise_first_fault(h, theta, flagged):
    """Raise what the per-sample path raises for the first flagged sample.

    The samples up to it go through the per-sample checks in order, so an
    earlier sample those checks reject raises first, as it would there.
    """
    for k in range(int(np.argmax(flagged)) + 1):
        observable_hamiltonian(h[k], theta[k], flow_rhs(h[k], theta[k]))
        hermitian_sqrt(theta[k])
    # only a condition number that eigh puts just past the limit and the SVD
    # of the per-sample check does not gets here
    raise SingularMetric(f"metric condition number at the limit {_MAX_COND:.0e}")


def _accumulate_propagator(schedule, t_from, t_to, rtol, atol):
    """Forward evolution operator U(t_to, t_from) by direct integration."""
    h0 = as_operator(schedule.at(t_from))
    eye = np.eye(h0.shape[0], dtype=complex)
    sol = solve_ode(
        lambda t, u: -1j * (schedule.at(t) @ u),
        t_from,
        t_to,
        eye,
        rtol=rtol,
        atol=atol,
        breakpoints=getattr(schedule, "breakpoints", tuple)(),
    )
    return sol.states[-1]


# largest gap allowed between the forward and pull-back amplitude forms
_FORMS_TOL = 1e-10


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
    value is ``|<phi|Theta(t_to) U(t_to, t_from) psi>|^2``.  The
    algebraically equivalent pull-back form through Theta(t_from) is
    evaluated as well and a :class:`SolverError` is raised if the two
    disagree beyond 1e-10, which would signal integration failure
    of the conservation law.  A state whose metric norm is not positive
    (an indefinite ``theta_from``) raises :class:`NotPositive`.
    """
    cfg = config or SolverConfig(rtol=1e-11, atol=1e-13, samples=2)
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    theta_from = _require_hermitian(theta_from)
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
