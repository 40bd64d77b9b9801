"""Two-level toy model: Pauli-parametrized generator and real metric flow.

With ``H = h_0 + h_i sigma_i`` split into real 4-vectors ``v = 2 Re h`` and
``w = 2 Im h``, a Hermitian metric ``Theta = th_0 + th_i sigma_i`` obeys
the closed real system

    d(th_0)/dt = -(th_0 w_0 + th . w)
    d(th)/dt   = -th_0 w - w_0 th + v x th

which is the matrix metric flow written on Pauli components.  For w = 0
the vector part simply precesses about v; for the pseudo-Hermitian case
(w_0 = 0, v.w = 0) an explicit static family exists, and the spectrum is
real precisely when v^2 > w^2.  The ramp experiment drives the generator
between two static configurations and measures how far the metric lands
from the final static solution, the metric-space analogue of the adiabatic
theorem.  Every flow here is linear: the ramp's affine generator runs on
CF4 with dense output, and after the ramp the orbit is known in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import magnus_cf4
from .errors import ConfigError, DimensionMismatch, NotPseudoHermitian, RealSpectrumViolated
from .metric_flow import SolverConfig
from .switching import LinearRamp, _freeze

__all__ = [
    "SIGMA",
    "TwoLevelParams",
    "MetricComponents",
    "pauli_compose",
    "pauli_decompose",
    "component_generator",
    "static_solution",
    "Regime",
    "classify_regime",
    "CrossedRampSchedule",
    "RampResult",
    "ramp_experiment",
]

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_PSEUDO_TOL = 1e-9

#: Relative size of ``v^2 - w^2`` below which the splitting counts as degenerate.
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class TwoLevelParams:
    """Real Pauli parameters: v = 2 Re h_mu, w = 2 Im h_mu (mu = 0..3)."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if v.shape != (4,) or w.shape != (4,):
            raise DimensionMismatch("v and w must be real 4-vectors")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise DimensionMismatch("parameters must be finite")
        _freeze(self, v=v, w=w)

    def hamiltonian(self) -> np.ndarray:
        return pauli_compose(self)


@dataclass(frozen=True)
class MetricComponents:
    """Metric in Pauli components, ``Theta = th_0 + th_i sigma_i``."""

    theta0: float
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=float)
        if vec.shape != (3,):
            raise DimensionMismatch("vector part must have 3 components")
        if not (math.isfinite(self.theta0) and np.all(np.isfinite(vec))):
            raise DimensionMismatch("metric components must be finite")
        _freeze(self, vec=vec)

    # the Pauli map with h_mu = th_mu: v = 2 th, w = 0
    def matrix(self) -> np.ndarray:
        return pauli_compose(TwoLevelParams(v=2.0 * self.four_vector(), w=np.zeros(4)))

    @classmethod
    def from_matrix(cls, theta) -> "MetricComponents":
        v = pauli_decompose(theta).v
        return cls(float(0.5 * v[0]), 0.5 * v[1:])

    def four_vector(self) -> np.ndarray:
        return np.concatenate(([self.theta0], self.vec))

    @property
    def is_positive(self) -> bool:
        return self.theta0 > float(np.linalg.norm(self.vec))


def pauli_compose(params: TwoLevelParams) -> np.ndarray:
    """Matrix ``H = h_0 + h_i sigma_i`` with ``h_mu = (v_mu + i w_mu)/2``."""
    h = 0.5 * (params.v + 1j * params.w)
    # the (1, 3) @ (3, 4) product np.tensordot forms, without its reshaping cost
    return h[0] * np.eye(2, dtype=complex) + np.dot(h[None, 1:], SIGMA.reshape(3, 4)).reshape(2, 2)


def pauli_decompose(m) -> TwoLevelParams:
    """Invert :func:`pauli_compose`; raises on non-2x2 input."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {a.shape}")
    h = 0.5 * np.array([np.trace(a), *(np.trace(s @ a) for s in SIGMA)])
    return TwoLevelParams(v=2.0 * h.real, w=2.0 * h.imag)


def component_generator(params: TwoLevelParams) -> np.ndarray:
    """Real 4x4 ``M`` with ``dy/dt = M y`` for ``y = (th_0, th_1, th_2, th_3)``."""
    v1, v2, v3 = params.v[1:]
    w0, wv = params.w[0], params.w[1:]
    m = -w0 * np.eye(4)
    m[0, 1:] = m[1:, 0] = -wv
    m[1:, 1:] += np.array([[0.0, -v3, v2], [v3, 0.0, -v1], [-v2, v1, 0.0]])
    return m


def _check_pseudo_hermitian(params: TwoLevelParams):
    vv, wv = params.v[1:], params.w[1:]
    scale = max(1.0, float(np.linalg.norm(vv)), float(np.linalg.norm(wv)))
    if abs(params.w[0]) > _PSEUDO_TOL * scale:
        raise NotPseudoHermitian(f"w_0 = {params.w[0]:.3e} must vanish")
    if abs(vv @ wv) > _PSEUDO_TOL * scale**2:
        raise NotPseudoHermitian(f"v.w = {vv @ wv:.3e} must vanish")
    return vv, wv


def static_solution(params: TwoLevelParams, theta0_s=1.0, alpha=0.0) -> MetricComponents:
    """Static metric family ``-(th_0/v^2) (v x w) + alpha v``.

    Requires the pseudo-Hermitian conditions w_0 = 0 and v.w = 0 and a
    nonvanishing v.  The result is positive definite iff ``th_0 > |vec|``.
    """
    vv, wv = _check_pseudo_hermitian(params)
    v2 = float(vv @ vv)
    if v2 == 0.0:
        raise NotPseudoHermitian("static solution needs a nonzero v vector")
    if not (math.isfinite(theta0_s) and math.isfinite(alpha)):
        raise DimensionMismatch("metric components must be finite")
    vec = -(theta0_s / v2) * np.cross(vv, wv) + alpha * vv
    return MetricComponents(theta0=theta0_s, vec=vec)


@dataclass(frozen=True)
class Regime:
    """Qualitative behaviour of the constant-parameter metric flow."""

    kind: str  # "oscillatory" | "exponential_growth" | "degenerate"
    value: float  # angular frequency or growth rate


def classify_regime(params: TwoLevelParams) -> Regime:
    """Oscillation frequency or growth rate from the eigenvalue splitting.

    The energy splitting is ``sqrt(v^2 - w^2)`` under the pseudo-Hermitian
    conditions: real (oscillatory metric) for v^2 > w^2, imaginary
    (exponential growth) for v^2 < w^2, and degenerate when ``|v^2 - w^2|``
    is at most ``_DEGENERATE_TOL`` times ``max(v^2, w^2, 1)``.
    """
    vv, wv = _check_pseudo_hermitian(params)
    disc = float(vv @ vv - wv @ wv)
    scale = max(float(vv @ vv), float(wv @ wv), 1.0)
    if abs(disc) <= _DEGENERATE_TOL * scale:
        return Regime(kind="degenerate", value=0.0)
    if disc > 0.0:
        return Regime(kind="oscillatory", value=math.sqrt(disc))
    return Regime(kind="exponential_growth", value=math.sqrt(-disc))


def _crossed_ramp_params(s, amplitude, w3, v0) -> TwoLevelParams:
    """Crossed-ramp parameters at ramp fraction s: v_1 = a s, v_2 = a (1 - s)."""
    return TwoLevelParams(v=np.array([v0, amplitude * s, amplitude * (1.0 - s), 0.0]),
                          w=np.array([0.0, 0.0, 0.0, w3]))


class CrossedRampSchedule(LinearRamp):
    """Crossed linear ramp: v_1 rises 0 -> a while v_2 falls a -> 0 on [0, T].

    Components v_0, v_3 and the w vector stay fixed; outside the ramp the
    generator is constant.  H is affine in the ramp parameter, so this is
    the :class:`LinearRamp` between the generators at s = 0 and s = 1: the
    matrix-level counterpart of the component-flow experiment, usable with
    :func:`adiametric.metric_flow.evolve_metric`.  A non-finite amplitude,
    w3 or v0 raises :class:`ConfigError`.
    """

    def __init__(self, duration, amplitude=5.0, w3=3.0, v0=0.0):
        for name, value in (("amplitude", float(amplitude)), ("w3", float(w3)), ("v0", float(v0))):
            if not math.isfinite(value):
                raise ConfigError(f"crossed-ramp {name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        ends = (_crossed_ramp_params(s, self.amplitude, self.w3, self.v0) for s in (0.0, 1.0))
        super().__init__(*map(pauli_compose, ends), float(duration))

    def params_at(self, t) -> TwoLevelParams:
        return _crossed_ramp_params(self.factor(t), self.amplitude, self.w3, self.v0)


@dataclass(frozen=True)
class RampResult:
    """Component trajectory of the ramp experiment plus its deviation metric.

    ``selected_static`` is the member of the final static family the
    dynamics actually oscillates around: the end state projected onto the
    kernel of the final generator ``M_1`` along its oscillating modes, by
    ``P = I + M_1^2/omega^2``, which is exactly the post-ramp time average.
    The free constants of the static family are not adiabatic invariants of
    the ramp, so the deviation is measured against this dynamically
    selected member rather than against an arbitrary normalization choice.
    """

    times: np.ndarray
    components: np.ndarray  # shape (n, 4): theta_0, theta_1..3
    deviation: float
    selected_static: MetricComponents
    initial_static: MetricComponents
    solver_stats: dict  # magnus_cf4 counts of the ramp: steps, exponentials, error_estimate


def ramp_experiment(
    duration,
    amplitude=5.0,
    w3=3.0,
    config: SolverConfig | None = None,
    v0=0.0,
) -> RampResult:
    """Drive the crossed ramp starting from the initial static metric.

    Integrates the component flow from the static solution of the initial
    generator across the ramp, and samples the exact post-ramp flow over a
    window of one and a half oscillation periods.  The selected static
    metric is the spectral projection of the ramp's end state onto the
    final static family, which is the exact post-ramp time average.  The
    deviation metric is the exact post-ramp supremum of ``|theta(t) -
    theta_static_final| / |theta_static_final|`` on 4-component vectors:
    near zero for adiabatic ramps, order one when the ramp is fast.

    The generator is that of :class:`CrossedRampSchedule`, built once; a
    duration that is not finite and positive raises its :class:`ConfigError`.
    The default amplitude keeps ``v(t)^2 > w^2`` everywhere; amplitudes that let the
    spectrum go complex raise :class:`RealSpectrumViolated` (the metric
    then has no nearby static solution and the deviation loses its
    meaning).
    """
    schedule = CrossedRampSchedule(duration, amplitude, w3, v0)
    margin = 0.5 * amplitude**2 - w3**2  # v^2 - w^2 at the ramp's midpoint, its minimum
    if margin <= 0.0:
        raise RealSpectrumViolated(
            f"ramp reaches v^2 - w^2 = {margin:.3e}; "
            "metric growth makes the deviation metric meaningless"
        )

    cfg = config or SolverConfig()
    first = schedule.params_at(0.0)
    start = static_solution(first)

    omega = math.sqrt(amplitude**2 - w3**2)  # post-ramp; real since margin > 0
    period = 2.0 * math.pi / omega
    tail = max(1.5 * period, 1.0)
    t_end = duration + tail

    n_ramp = max(int(cfg.samples), 101)
    n_tail = max(321, int(80 * tail / period) | 1)
    tail_times = np.linspace(duration, t_end, n_tail)
    times = np.concatenate([np.linspace(0.0, duration, n_ramp, endpoint=False), tail_times])

    # v is affine in the ramp parameter s = t/T and w is fixed, so the
    # generator is exactly M_0 + s (M_1 - M_0) on the ramp: CF4 with dense
    # output at the ramp samples.  After it the generator is M_1.
    m_start = component_generator(first)
    m_end = component_generator(schedule.params_at(duration))
    props, stats = magnus_cf4(
        m_start, m_end - m_start, schedule.factor, 0.0, duration,
        rtol=cfg.rtol, atol=cfg.atol, samples=n_ramp,
    )
    ramp = props @ start.four_vector()

    # After the ramp y(T + t) = exp(t M_1) y(T) with M_1^3 = -omega^2 M_1, so
    # P = I + M_1^2/omega^2 projects onto ker M_1 (the static family) along
    # the oscillation: P y(T) is the exact post-ramp time average.  The
    # remainder a = y(T) - P y(T) turns as cos(omega t) a + sin(omega t) b
    # with b = M_1 a/omega, which gives the post-ramp samples exactly; the
    # supremum norm of that orbit is sigma_max([a, b]).
    y_end = ramp[-1]
    remainder = -(m_end @ (m_end @ y_end)) / omega**2
    ref = y_end - remainder
    orbit = np.stack([remainder, m_end @ remainder / omega], axis=1)
    phase = omega * (tail_times[1:] - duration)
    tail_rows = ref + np.column_stack([np.cos(phase), np.sin(phase)]) @ orbit.T
    comps = np.concatenate([ramp, tail_rows])
    deviation = float(np.linalg.norm(orbit, 2) / np.linalg.norm(ref))
    return RampResult(
        times=times,
        components=comps,
        deviation=deviation,
        selected_static=MetricComponents(theta0=float(ref[0]), vec=ref[1:]),
        initial_static=start,
        solver_stats=stats,
    )
