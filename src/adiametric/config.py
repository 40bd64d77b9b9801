"""Model configuration: JSON schema, loading, and schedule construction.

One configuration object drives every CLI command.  Matrices travel as
nested ``[re, im]`` pairs; configurations round-trip losslessly through
JSON, and identical configurations produce byte-identical outputs (no
randomness, no timestamps, sorted keys).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ConfigError
from .ioutil import json_to_matrix
from .metric_flow import SolverConfig
from .switching import Constant, ExponentialSwitch, LinearRamp, SmoothSwitch
from .two_level import TwoLevelParams

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POSITIVE_LIST = {"type": "array", "items": _POSITIVE, "minItems": 1}
_VECTOR4 = {"type": "array", "items": _NUMBER, "minItems": 4, "maxItems": 4}
_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _PAIR}}

_SCHEDULE = {
    "type": "object",
    "properties": {
        "type": {
            "enum": ["constant", "exponential-switch", "linear-ramp", "smooth-switch"]
        },
        "h": _MATRIX,
        "h0": _MATRIX,
        "h1": _MATRIX,
        "h_int": _MATRIX,
        "eps": _POSITIVE,
        "duration": _POSITIVE,
        "width": _POSITIVE,
    },
    "required": ["type"],
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "adiametric model configuration",
    "type": "object",
    "properties": {
        "model": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["matrix", "two-level", "cubic"]},
                # matrix kind
                "h": _MATRIX,
                "schedule": _SCHEDULE,
                "theta0": _MATRIX,
                "t0": _NUMBER,
                "t1": _NUMBER,
                # two-level kind
                "v": _VECTOR4,
                "w": _VECTOR4,
                "ramp": {
                    "type": "object",
                    "properties": {"duration": _POSITIVE, "amplitude": _NUMBER,
                                   "w3": _NUMBER, "v0": _NUMBER},
                    "required": ["duration"],
                },
                "initial": {
                    "type": "object",
                    "properties": {"theta0": _NUMBER, "alpha": _NUMBER,
                                   "components": _VECTOR4},
                },
                # cubic kind
                "g": _NUMBER,
                "duration": _POSITIVE,
                # static-metric weights (matrix kind)
                "weights": {"type": "array", "items": _NUMBER},
            },
            "required": ["kind"],
        },
        "scattering": {
            "type": "object",
            "properties": {
                "h0": _MATRIX,
                "h_int": _MATRIX,
                "eps": _POSITIVE,
                "eps_ladder": _POSITIVE_LIST,
                "theta0": _MATRIX,
                "compare_shapes": {"type": "boolean"},
                "horizon_factor": _POSITIVE,
            },
        },
        "sweep": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["two-level-deviation", "smatrix-defect"]},
                "durations": _POSITIVE_LIST,
                "eps_ladder": _POSITIVE_LIST,
                "amplitude": _NUMBER,
                "w3": _NUMBER,
                "h0": _MATRIX,
                "h_int": _MATRIX,
            },
            "required": ["kind"],
        },
        "solver": {
            "type": "object",
            "properties": {
                "rtol": _POSITIVE,
                "atol": _POSITIVE,
                "samples": {"type": "integer", "minimum": 2},
            },
        },
        "output": {
            "type": "object",
            "properties": {"format": {"enum": ["csv", "json"]}},
        },
    },
    "required": ["model"],
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "adiametric JSON report",
    "type": "object",
    "properties": {
        "config": {"type": "object"},
        "result": {"type": "object"},
        "diagnostics": {"type": "object"},
    },
    "required": ["config", "result", "diagnostics"],
}


@dataclass(frozen=True)
class ModelConfig:
    """Validated configuration with the raw document kept for reports."""

    raw: dict
    kind: str
    solver: SolverConfig
    output_format: str

    @property
    def model(self) -> dict:
        return self.raw["model"]

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})


# built once: ``jsonschema.validate`` would re-check the schema on every call
_CONFIG_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def parse_config(document: Any) -> ModelConfig:
    """Validate a configuration document and wrap it."""
    error = best_match(_CONFIG_VALIDATOR.iter_errors(document))
    if error is not None:
        raise ConfigError(f"invalid configuration: {error.message}") from error
    solver = document.get("solver", {})
    kinds = {"rtol": float, "atol": float, "samples": int}
    cfg = SolverConfig(**{key: kind(solver[key]) for key, kind in kinds.items() if key in solver})
    fmt = document.get("output", {}).get("format", "csv")
    return ModelConfig(
        raw=document,
        kind=document["model"]["kind"],
        solver=cfg,
        output_format=fmt,
    )


def _finite_number(literal, parse=float):
    """``json.load`` hook for every number literal, ``NaN`` and ``Infinity`` included."""
    if not math.isfinite(float(literal)):  # 1e400 overflows to inf
        raise ConfigError(f"configuration holds the non-finite number {literal}")
    return parse(literal)


def load_config(path) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number,
                                 parse_int=lambda literal: _finite_number(literal, int))
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(document)


def matrix_from(section: dict, key: str, required=True):
    if section.get(key) is None:
        if required:
            raise ConfigError(f"missing matrix field {key!r}")
        return None
    try:
        return json_to_matrix(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad matrix field {key!r}: {exc}") from exc


def build_schedule(spec: dict):
    """Instantiate a Hamiltonian schedule from its JSON description."""
    kind = spec["type"]
    if kind == "constant":
        return Constant(matrix_from(spec, "h"))
    if kind == "exponential-switch":
        return ExponentialSwitch(
            matrix_from(spec, "h0"), matrix_from(spec, "h_int"), float(spec["eps"])
        )
    if kind == "linear-ramp":
        return LinearRamp(
            matrix_from(spec, "h0"), matrix_from(spec, "h1"), float(spec["duration"])
        )
    if kind == "smooth-switch":
        return SmoothSwitch(
            matrix_from(spec, "h0"), matrix_from(spec, "h_int"), float(spec["width"])
        )
    raise ConfigError(f"unknown schedule type {kind!r}")


def two_level_params(model: dict) -> TwoLevelParams:
    if "v" not in model or "w" not in model:
        raise ConfigError("two-level model needs 'v' and 'w' 4-vectors")
    return TwoLevelParams(
        v=np.asarray(model["v"], dtype=float), w=np.asarray(model["w"], dtype=float)
    )

