"""Model configuration: JSON schema, loading, and schedule construction.

One configuration object drives every CLI command.  Matrices travel as
nested ``[re, im]`` pairs; configurations round-trip losslessly through
JSON, and identical configurations produce byte-identical outputs (no
randomness, no timestamps, sorted keys).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

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


# The JSON types and keywords CONFIG_SCHEMA uses, checked as jsonschema's
# Draft 2020-12 validator checks them ("$schema" and "title" are annotations).
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}
_KEYWORDS = {"type", "properties", "required", "items", "enum", "minItems", "maxItems",
             "minimum", "exclusiveMinimum", "$schema", "title"}


def _check_keywords(schema) -> None:
    """Raise unless ``schema`` uses only the keywords and types checked below."""
    unknown = set(schema) - _KEYWORDS
    if unknown or schema.get("type", "object") not in _TYPES:
        raise ValueError(f"schema keywords {sorted(unknown)} or type {schema.get('type')!r} "
                         "are not checked by the configuration validator")
    for sub in schema.get("properties", {}).values():
        _check_keywords(sub)
    if "items" in schema:
        _check_keywords(schema["items"])


_check_keywords(CONFIG_SCHEMA)


def _schema_errors(instance, schema, path=()):
    """Yield ``(path, instance matches the schema's type, message)`` per
    violation, in the order and wording of jsonschema's ``iter_errors``."""
    typed = "type" in schema and _TYPES[schema["type"]](instance)
    for keyword, value in schema.items():
        if keyword == "type":
            if not typed:
                yield path, False, f"{instance!r} is not of type {value!r}"
        elif keyword == "enum":
            if instance not in value:
                yield path, typed, f"{instance!r} is not one of {value!r}"
        elif isinstance(instance, dict):
            if keyword == "properties":
                for key, sub in value.items():
                    if key in instance:
                        yield from _schema_errors(instance[key], sub, path + (key,))
            elif keyword == "required":
                for key in value:
                    if key not in instance:
                        yield path, typed, f"{key!r} is a required property"
        elif isinstance(instance, list):
            if keyword == "items":
                for index, item in enumerate(instance):
                    yield from _schema_errors(item, value, path + (index,))
            elif keyword == "minItems" and len(instance) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                yield path, typed, f"{instance!r} {short}"
            elif keyword == "maxItems" and len(instance) > value:
                long = "is expected to be empty" if value == 0 else "is too long"
                yield path, typed, f"{instance!r} {long}"
        elif _TYPES["number"](instance):
            if keyword == "minimum" and instance < value:
                yield path, typed, f"{instance!r} is less than the minimum of {value!r}"
            elif keyword == "exclusiveMinimum" and instance <= value:
                yield (path, typed,
                       f"{instance!r} is less than or equal to the minimum of {value!r}")


def _best_error(document):
    """The message of the violation jsonschema 4.26's ``best_match`` picks, or None.

    ``best_match`` takes the first error of highest relevance: the shortest
    path, then the greatest path, then one whose instance fails its schema's
    ``type``.  Its weak keywords, ``anyOf`` and ``oneOf``, are not used here.
    """
    errors = list(_schema_errors(document, CONFIG_SCHEMA))
    if not errors:
        return None
    return max(errors, key=lambda e: (-len(e[0]), e[0], not e[1]))[2]


def parse_config(document: Any) -> ModelConfig:
    """Validate a configuration document and wrap it."""
    error = _best_error(document)
    if error is not None:
        raise ConfigError(f"invalid configuration: {error}")
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


#: schedule type -> (class, its matrix fields, its number fields), in argument order
_SCHEDULES = {
    "constant": (Constant, ("h",), ()),
    "exponential-switch": (ExponentialSwitch, ("h0", "h_int"), ("eps",)),
    "linear-ramp": (LinearRamp, ("h0", "h1"), ("duration",)),
    "smooth-switch": (SmoothSwitch, ("h0", "h_int"), ("width",)),
}


def build_schedule(spec: dict):
    """Instantiate a Hamiltonian schedule from its JSON description; a
    missing matrix field, then a missing number field, raises :class:`ConfigError`."""
    kind = spec["type"]
    if kind not in _SCHEDULES:
        raise ConfigError(f"unknown schedule type {kind!r}")
    cls, matrices, scalars = _SCHEDULES[kind]
    args = [matrix_from(spec, key) for key in matrices]
    for key in scalars:
        if key not in spec:
            raise ConfigError(f"missing number field {key!r}")
        args.append(float(spec[key]))
    return cls(*args)


def two_level_params(model: dict) -> TwoLevelParams:
    if "v" not in model or "w" not in model:
        raise ConfigError("two-level model needs 'v' and 'w' 4-vectors")
    return TwoLevelParams(
        v=np.asarray(model["v"], dtype=float), w=np.asarray(model["w"], dtype=float)
    )

