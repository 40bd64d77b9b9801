"""Hamiltonian time-dependence schedules and adiabatic parameter sweeps.

A schedule is any object with ``at(t) -> matrix`` and ``breakpoints() ->
tuple``; the classes here cover the shapes used by the experiments:
constant generators, exponentially damped interaction switching
``H_0 + exp(-eps |t|) H_I``, straight-line ramps between two generators,
and a smooth compactly supported switch used to demonstrate that adiabatic
limits do not depend on the switching profile.  The two switches also
expose their scalar factor: ``at(t) = H_0 + factor(t) H_I``; ``factor``
also takes an array of times and is at most 2^-53 beyond ``support``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .operator_core import as_operator

__all__ = [
    "Constant",
    "ExponentialSwitch",
    "LinearRamp",
    "SmoothSwitch",
    "adiabatic_sweep",
    "extrapolate_to_zero",
    "is_monotone_nonincreasing",
]


def _freeze(m) -> np.ndarray:
    a = as_operator(m).copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Constant:
    """Time-independent generator."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _freeze(self.h))

    def at(self, t) -> np.ndarray:
        return self.h

    def breakpoints(self) -> tuple:
        return ()


@dataclass(frozen=True)
class ExponentialSwitch:
    """``H(t) = H_0 + exp(-eps |t|) H_I``; equals H_0 + H_I exactly at t=0."""

    h0: np.ndarray
    h_int: np.ndarray
    eps: float

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigError("switching rate eps must be positive")
        object.__setattr__(self, "h0", _freeze(self.h0))
        object.__setattr__(self, "h_int", _freeze(self.h_int))

    def factor(self, t):
        """``exp(-eps |t|)``, elementwise for an array of times."""
        return np.exp(-self.eps * np.abs(t))

    @property
    def support(self) -> float:
        """37 / eps: 53 ln 2 rounded up, so ``factor`` is below 2^-53 beyond."""
        return math.ceil(53.0 * math.log(2.0)) / self.eps

    def at(self, t) -> np.ndarray:
        return self.h0 + self.factor(t) * self.h_int

    def breakpoints(self) -> tuple:
        return (0.0,)  # derivative kink of |t|


@dataclass(frozen=True)
class LinearRamp:
    """Straight-line interpolation H_0 -> H_1 over [0, T], clamped outside."""

    h0: np.ndarray
    h1: np.ndarray
    duration: float

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ConfigError("ramp duration must be positive")
        object.__setattr__(self, "h0", _freeze(self.h0))
        object.__setattr__(self, "h1", _freeze(self.h1))

    def at(self, t) -> np.ndarray:
        s = min(max(t / self.duration, 0.0), 1.0)
        return (1.0 - s) * self.h0 + s * self.h1

    def breakpoints(self) -> tuple:
        return (0.0, self.duration)


@dataclass(frozen=True)
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
        if self.width <= 0.0:
            raise ConfigError("switch width must be positive")
        object.__setattr__(self, "h0", _freeze(self.h0))
        object.__setattr__(self, "h_int", _freeze(self.h_int))

    def factor(self, t):
        """``cos^2(pi t / (2 width))`` inside the support, exactly 0 outside;
        elementwise for an array of times."""
        inside = np.abs(t) < self.width
        return inside * np.cos(math.pi * t / (2.0 * self.width)) ** 2

    @property
    def support(self) -> float:
        """The width: the factor is exactly 0 beyond."""
        return self.width

    def at(self, t) -> np.ndarray:
        return self.h0 + self.factor(t) * self.h_int

    def breakpoints(self) -> tuple:
        return (-self.width, 0.0, self.width)


def adiabatic_sweep(parameters, experiment):
    """Run ``experiment(parameter)`` over a strictly monotone parameter list.

    Returns the list of ``(parameter, result)`` pairs in input order.
    Used for switching-rate and ramp-duration convergence studies, whose
    limits are then read off with :func:`extrapolate_to_zero`.
    """
    params = [float(p) for p in parameters]
    if len(params) == 0:
        raise ConfigError("parameter list must not be empty")
    if len(params) > 1:
        diffs = np.diff(params)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("parameter list must be strictly monotone")
    return [(p, experiment(p)) for p in params]


def extrapolate_to_zero(parameters, values):
    """First-order Richardson extrapolation of ``values`` to parameter 0.

    Fits ``value = a + b * parameter`` through the two smallest parameters
    and returns ``a``.  Callers studying a slow-ramp limit pass 1/T as the
    parameter.  Works elementwise on array-valued results.
    """
    params = np.asarray(parameters, dtype=float)
    if params.size < 2:
        raise ConfigError("extrapolation needs at least two parameters")
    order = np.argsort(np.abs(params))
    p1, p2 = params[order[0]], params[order[1]]
    v1, v2 = values[order[0]], values[order[1]]
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    slope = (v2 - v1) / (p2 - p1)
    result = v1 - slope * p1
    return result if result.ndim else result.item()


def is_monotone_nonincreasing(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(v) <= 0.0))
