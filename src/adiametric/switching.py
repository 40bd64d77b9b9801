"""Hamiltonian time-dependence schedules and adiabatic parameter sweeps.

Every schedule is ``H(t) = h0 + factor(t) h_int``: it carries the read-only
``h0`` and ``h_int``, a ``factor`` that also takes an array of times, and
``breakpoints()``, where the factor has kinks; ``at(t)`` is defined once for
all.  The shapes: constant generators (zero ``h_int``), exponentially damped
switching ``H_0 + exp(-eps |t|) H_I``, straight-line ramps (``h_int = h1 -
h0``, factor ``t/T`` clamped to [0, 1]), and a smooth compactly supported
switch showing that adiabatic limits do not depend on the switching profile.
The two switches also expose ``support``: their factor is at most 2^-53 beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .operator_core import _operator_pair, _require_positive, as_operator

__all__ = [
    "Constant",
    "ExponentialSwitch",
    "LinearRamp",
    "SmoothSwitch",
    "adiabatic_sweep",
    "extrapolate_to_zero",
    "is_monotone_nonincreasing",
]


def _freeze(obj, **arrays) -> None:
    """Set each checked array of ``arrays`` on the frozen ``obj`` as a read-only copy."""
    for name, a in arrays.items():
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(obj, name, a)


def _affine_at(self, t) -> np.ndarray:
    """The generator ``h0 + factor(t) h_int`` at time t."""
    return self.h0 + self.factor(t) * self.h_int


# eq=False: the fields are arrays, so schedules compare and hash by identity
@dataclass(frozen=True, eq=False)
class Constant:
    """Time-independent generator: ``h0`` is ``h``, ``h_int`` is zero."""

    h: np.ndarray
    h0: np.ndarray = field(init=False, repr=False)
    h_int: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = as_operator(self.h)
        _freeze(self, h=h, h0=h, h_int=np.zeros_like(h))

    def factor(self, t):
        """0, elementwise for an array of times."""
        return np.zeros(np.shape(t))

    at = _affine_at

    def breakpoints(self) -> tuple:
        return ()


@dataclass(frozen=True, eq=False)
class ExponentialSwitch:
    """``H(t) = H_0 + exp(-eps |t|) H_I``; equals H_0 + H_I exactly at t=0."""

    h0: np.ndarray
    h_int: np.ndarray
    eps: float

    def __post_init__(self):
        _require_positive(self.eps, "switching rate eps")
        h0, h_int = _operator_pair(self.h0, self.h_int)
        _freeze(self, h0=h0, h_int=h_int)

    def factor(self, t):
        """``exp(-eps |t|)``, elementwise for an array of times."""
        return np.exp(-self.eps * np.abs(t))

    @property
    def support(self) -> float:
        """37 / eps: 53 ln 2 rounded up, so ``factor`` is below 2^-53 beyond."""
        return math.ceil(53.0 * math.log(2.0)) / self.eps

    at = _affine_at

    def breakpoints(self) -> tuple:
        return (0.0,)  # derivative kink of |t|


@dataclass(frozen=True, eq=False)
class LinearRamp:
    """Straight-line H_0 -> H_1 over [0, T], clamped outside; ``at(T)`` is
    ``h0 + (h1 - h0)``, which may differ from ``h1`` by rounding."""

    h0: np.ndarray
    h1: np.ndarray
    duration: float
    h_int: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_positive(self.duration, "ramp duration")
        h0, h1 = _operator_pair(self.h0, self.h1)
        _freeze(self, h0=h0, h1=h1, h_int=as_operator(h1 - h0))

    def factor(self, t):
        """``t / T`` clamped to [0, 1], elementwise for an array of times."""
        # np.minimum/np.maximum: np.clip costs microseconds on a scalar
        return np.minimum(np.maximum(t / self.duration, 0.0), 1.0)

    at = _affine_at

    def breakpoints(self) -> tuple:
        return (0.0, self.duration)


@dataclass(frozen=True, eq=False)
class SmoothSwitch:
    """Compactly supported switch ``H_0 + cos^2(pi t / (2 width)) H_I``.

    The damping factor is 1 at t=0 and exactly 0 for |t| >= width, with a
    continuous derivative everywhere; at comparable slowness it drives the
    same interaction as :class:`ExponentialSwitch`, which the adiabatic
    limit must not distinguish.
    """

    h0: np.ndarray
    h_int: np.ndarray
    width: float

    def __post_init__(self):
        _require_positive(self.width, "switch width")
        h0, h_int = _operator_pair(self.h0, self.h_int)
        _freeze(self, h0=h0, h_int=h_int)

    def factor(self, t):
        """``cos^2(pi t / (2 width))`` inside the support, exactly 0 outside;
        elementwise for an array of times."""
        inside = np.abs(t) < self.width
        return inside * np.cos(math.pi * t / (2.0 * self.width)) ** 2

    @property
    def support(self) -> float:
        """The width: the factor is exactly 0 beyond."""
        return self.width

    at = _affine_at

    def breakpoints(self) -> tuple:
        return (-self.width, 0.0, self.width)


def adiabatic_sweep(parameters, experiment):
    """Run ``experiment(parameter)`` over a strictly monotone list of finite parameters.

    Returns the list of ``(parameter, result)`` pairs in input order.
    Used for switching-rate and ramp-duration convergence studies, whose
    limits are then read off with :func:`extrapolate_to_zero`.
    """
    params = [float(p) for p in parameters]
    if len(params) == 0:
        raise ConfigError("parameter list must not be empty")
    if not all(math.isfinite(p) for p in params):
        raise ConfigError(f"parameter list must be finite, got {params}")
    if len(params) > 1:
        diffs = np.diff(params)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("parameter list must be strictly monotone")
    return [(p, experiment(p)) for p in params]


def extrapolate_to_zero(parameters, values):
    """First-order Richardson extrapolation of ``values`` to parameter 0.

    Fits ``value = a + b * parameter`` through the two smallest parameters
    and returns ``a``; two equal smallest parameters, a non-finite one or
    values of another length than the parameters raise :class:`ConfigError`.
    Callers studying a slow-ramp limit pass 1/T as the parameter.  Works
    elementwise on array-valued results.
    """
    params = np.asarray(parameters, dtype=float)
    if params.size < 2:
        raise ConfigError("extrapolation needs at least two parameters")
    if not np.all(np.isfinite(params)):
        raise ConfigError(f"extrapolation parameters must be finite, got {params.tolist()}")
    if len(values) != params.size:
        raise ConfigError(f"{len(values)} values for {params.size} extrapolation parameters")
    order = np.argsort(np.abs(params))
    p1, p2 = params[order[0]], params[order[1]]
    if p1 == p2:
        raise ConfigError(f"extrapolation needs two distinct smallest parameters, got {p1} twice")
    v1, v2 = values[order[0]], values[order[1]]
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    slope = (v2 - v1) / (p2 - p1)
    result = v1 - slope * p1
    return result if result.ndim else result.item()


def is_monotone_nonincreasing(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(v) <= 0.0))
