"""Adaptive Dormand-Prince 5(4) integrator for dense complex array states.

The state may be any ndarray (a complex matrix, a real component vector);
all tableau arithmetic is elementwise.  Step control is the usual embedded
error estimate with a PI-flavoured limiter, and the stepper lands exactly
on requested output times and schedule breakpoints, so discontinuous
right-hand sides never hide inside a step.  An optional ``post_step`` hook
runs after every accepted step (used for Hermitian symmetrization of
evolving metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, StepSizeUnderflow

# Dormand-Prince 5(4) tableau.  b5 propagates, b4 is the embedded estimate;
# the last stage is FSAL.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = _B5 - _B4

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
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((np.abs(err) / scale) ** 2)))


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
    k = [None] * 7
    k[0] = rhs(t, y)
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
            for i in range(1, 7):
                yi = y + hs * sum(_A[i][j] * k[j] for j in range(i))
                k[i] = rhs(t + _C[i] * hs, yi)
            nfev += 6
            y_new = y + hs * sum(_B5[i] * k[i] for i in range(7) if _B5[i] != 0.0)
            err = hs * sum(_E[i] * k[i] for i in range(7) if _E[i] != 0.0)
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
                    k[0] = rhs(t, y)
                    nfev += 1
                else:
                    k[0] = k[6]  # FSAL
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
