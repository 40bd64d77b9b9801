"""Integrators: adaptive Dormand-Prince 5(4) and a commutator-free Magnus method.

:func:`solve_ode` integrates ``dy/dt = rhs(t, y)`` for any ndarray state (a
complex matrix, a real component vector); all tableau arithmetic is
elementwise.  Step control is the usual embedded error estimate with a
PI-flavoured limiter, and the stepper lands exactly on requested output
times and schedule breakpoints, so discontinuous right-hand sides never
hide inside a step.  An optional ``post_step`` hook runs after every
accepted step; it costs the first-same-as-last stage, one more rhs call
per step.

:func:`magnus_cf4` returns the propagator of a linear equation whose
generator is ``A0 + f(t) A1`` with a scalar, vectorized ``f``, at the
endpoint or, as dense output, at uniform sample times.  It is the
4th-order commutator-free Magnus method of Blanes & Moan (Appl. Numer.
Math. 56 (2006) 1519): two matrix exponentials per step, formed by the
stacked Taylor kernel of :mod:`.operator_core`, so the ``A0`` motion is
carried exactly and the step is set by how ``f`` varies.  It serves both
scattering dressings from one stack, and the two-level ramp; the metric
flow stays on :func:`solve_ode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, StepSizeUnderflow
from .operator_core import PATH_CHUNK, _expm_stack

# Dormand-Prince 5(4) tableau, written out stage by stage in solve_ode.
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


@dataclass
class OdeSolution:
    """Samples of the solution at the requested output times."""

    times: np.ndarray
    states: list
    stats: dict = field(default_factory=dict)


def _error_norm(err, y_old, y_new, rtol, atol):
    """RMS over entries of ``|err| / (atol + rtol max(|y_old|, |y_new|))``."""
    q = np.abs(err).ravel()
    q /= atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new)).ravel()
    return math.sqrt(np.dot(q, q) / q.size)


def solve_ode(
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


# CF4: per step of size h from t, the exponentials exp(h (A0/2 + phi A1)) at
# phi = a1 f1 + a2 f2, then a2 f1 + a1 f2, with f1, f2 the factor at the Gauss
# nodes t + c1 h, t + c2 h.  The reverse order is only 2nd order.
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF4_WEIGHTS = np.array(
    [
        [0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0],
        [0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0],
    ]
)

#: Fewest steps of the first segment pass; each further pass may grow 8-fold.
MAGNUS_START_STEPS = 16

#: Most steps one segment may take before :func:`magnus_cf4` gives up.
MAGNUS_MAX_STEPS = 1 << 20


def _ordered_product(mats):
    """``mats[-1] @ ... @ mats[0]`` along the first axis by pairwise batched products."""
    left = None
    while len(mats) > 1:
        if len(mats) % 2:
            left = mats[-1] if left is None else left @ mats[-1]
            mats = mats[:-1]
        mats = mats[1::2] @ mats[0::2]
    return mats[0] if left is None else left @ mats[0]


def _prefix_products(mats):
    """Running products ``mats[k] @ ... @ mats[0]`` for every k, in log2(n) batched passes."""
    out = mats.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = out[shift:] @ out[:-shift]
        shift *= 2
    return out


def _cf4_propagator(a0, a1, f, t0, t1, steps, samples=1, mirror=False):
    """``(samples, d, d)`` CF4 propagators from t0 to the ends of ``samples``
    equal subintervals, by ``steps`` uniform steps (a multiple of ``samples``)
    taken ``PATH_CHUNK`` at a time: whole subintervals, or part of a long one;
    ``mirror`` appends their product in the opposite order."""
    h = (t1 - t0) / steps
    per = steps // samples
    half = 0.5 * a0
    u = v = np.eye(len(a0), dtype=half.dtype)
    out = []
    start = 0
    while start < steps:
        if per > PATH_CHUNK:  # a piece of one subinterval
            stop = min(start + PATH_CHUNK, (start // per + 1) * per)
        else:  # whole subintervals
            stop = min(start + per * (PATH_CHUNK // per), steps)
        k = np.arange(start, stop, dtype=float)
        phi = f(t0 + (k[:, None] + _GAUSS) * h) @ _CF4_WEIGHTS.T
        if not np.all(np.isfinite(phi)):
            raise SolverError(f"non-finite switch factor in [{t0:.6g}, {t1:.6g}]")
        exps = _expm_stack(h * (half + phi.reshape(-1, 1, 1) * a1))
        if mirror:
            v = v @ _ordered_product(exps[::-1])
        # two exponentials per step, grouped by subinterval
        groups = exps.reshape(-1, 2 * min(per, stop - start), *a0.shape).swapaxes(0, 1)
        ends = _prefix_products(_ordered_product(groups)) @ u
        u = ends[-1]
        if stop % per == 0:
            out.extend(ends)
        start = stop
    return np.array(out + [v] if mirror else out)


def magnus_cf4(a0, a1, f, t0, t1, *, rtol=1e-9, atol=1e-12, samples=None, mirror=False):
    """Propagator ``Y(t1) Y(t0)^-1`` of ``dY/dt = (A0 + f(t) A1) Y`` by CF4.

    ``f`` maps an array of times to the array of scalar factors; it must be
    smooth inside ``(t0, t1)`` (a kink belongs at a segment end, or the
    order drops and the step count grows accordingly).  Steps are
    uniform; the step count is chosen by Richardson extrapolation on the
    whole segment.  The first pass takes ``MAGNUS_START_STEPS`` steps, or
    ``|t1 - t0| ||A0 - tr(A0)/d||_2`` if more, so that every pass resolves
    the ``A0`` motion (``h ||A0|| <= 1``; ``f A1`` is taken to be no
    larger) and the ``h^4`` error law the estimate rests on holds: with
    coarser steps the phases alias and two passes can agree by accident.
    Passes with ``n`` and ``m`` steps give the error
    estimate ``e = ||U_m - U_n||_F / ((m/n)^4 - 1)`` of ``U_m``, and the
    segment is accepted when ``e <= d atol + rtol ||U_m||_F``, the
    ``solve_ode`` step test (an RMS over entries of ``err / (atol + rtol
    |y|)``) applied once to the whole propagator with a uniform scale.
    Otherwise the next pass takes the step count predicted to meet half the
    tolerance, between 1.25 and 8 times the last.  The accepted propagator
    is the extrapolant ``U_m + (U_m - U_n) / ((m/n)^4 - 1)``.  The test and
    ``error_estimate`` refer to the unextrapolated ``U_m``; the returned
    extrapolant is typically about three orders more accurate, so
    ``error_estimate`` bounds its error loosely.

    Dense output: with ``samples=k`` both passes take a multiple of ``k``
    steps, and their partial products at ``t0 + j (t1 - t0) / k`` are
    tested and extrapolated like the endpoint; the result is the ``(k + 1,
    d, d)`` stack of propagators from t0 to those times (``j = 0..k``).
    ``mirror=True`` (endpoint only) returns ``[U(t1, t0), U(-t0, -t1)]`` for
    an even ``f``: a pass from -t0 to -t1 meets the same Gauss-node factors
    with h negated, so its exponentials invert these, and ``U(-t0, -t1)``
    is their product in the opposite order.  Both pass the test above.

    Each pass forms its exponentials ``PATH_CHUNK`` steps at a time in one
    stacked Taylor evaluation and reduces them by pairwise batched
    products, so memory stays O(``PATH_CHUNK`` d^2).  Real generators give
    real propagators.

    Returns ``(U, stats)`` with ``stats`` counting the accepted ``steps``,
    the ``exponentials`` formed over all passes and the final
    ``error_estimate`` (the largest over the samples and products).  Raises
    :class:`SolverError` when the factor or the propagator turns
    non-finite or the tolerance needs more than ``MAGNUS_MAX_STEPS`` steps.
    """
    a0, a1 = np.asarray(a0), np.asarray(a1)
    dtype = np.result_type(a0, a1, float)
    a0, a1 = a0.astype(dtype), a1.astype(dtype)
    dim = len(a0)
    count = 1 if samples is None else int(samples)
    if count < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if mirror and samples is not None:
        raise ValueError("mirror gives endpoints only; it takes no samples")
    eye = np.eye(dim, dtype=dtype)
    ends = np.repeat(eye[None], count + mirror, axis=0)
    stats = {"steps": 0, "exponentials": 0, "error_estimate": 0.0}
    rate = np.linalg.norm(a0 - np.trace(a0) / dim * np.eye(dim), 2)
    m = max(MAGNUS_START_STEPS, math.ceil(abs(t1 - t0) * rate))
    n = u_n = None
    formed = 0
    while t1 != t0:
        m = -(-m // count) * count
        if m > MAGNUS_MAX_STEPS:
            raise SolverError(
                f"CF4 needs more than {MAGNUS_MAX_STEPS} steps on "
                f"[{t0:.6g}, {t1:.6g}] (rtol={rtol:.1e}, atol={atol:.1e})"
            )
        u_m = _cf4_propagator(a0, a1, f, t0, t1, m, count, mirror)
        formed += m
        if n is None:
            n, u_n, m = m, u_m, 2 * m
            continue
        ratio = (m / n) ** 4 - 1.0
        diff = u_m - u_n
        estimates = np.array([np.linalg.norm(d) for d in diff]) / ratio
        tols = dim * atol + rtol * np.array([np.linalg.norm(u) for u in u_m])
        if not np.all(np.isfinite(estimates)):
            raise SolverError(f"non-finite CF4 propagator on [{t0:.6g}, {t1:.6g}]")
        if np.all(estimates <= tols):
            stats = {"steps": m, "exponentials": 2 * formed,
                     "error_estimate": float(estimates.max())}
            ends = u_m + diff / ratio
            break
        grow = float(np.max(2.0 * estimates / tols)) ** 0.25
        n, u_n = m, u_m
        m = min(8 * m, max(math.ceil(1.25 * m), math.ceil(grow * m)))
    if samples is None:
        return (ends if mirror else ends[0]), stats
    return np.concatenate([eye[None], ends]), stats
