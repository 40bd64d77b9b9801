"""Serialization helpers: complex-matrix JSON encoding and the CSV format.

Complex matrices travel as nested lists of ``[re, im]`` pairs.  CSV files
carry a schema-versioned first line and 17-significant-digit decimals so
that values round-trip exactly and outputs are byte-identical for
identical configurations.
"""

from __future__ import annotations

import json

import numpy as np

CSV_HEADER = "# adiametric-csv v1"


def matrix_to_json(m) -> list:
    """Nested ``[re, im]`` pairs; a stack of matrices gives a list of them."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def json_to_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix JSON must be a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def write_csv(stream, columns, rows) -> None:
    """Write the versioned CSV: header comment, column row, then the 2-D real
    ``rows`` (booleans as 0 and 1), one ``%.17g`` format string per row."""
    table = np.asarray(rows, dtype=float)
    row_format = ",".join(["%.17g"] * table.shape[-1]) + "\n"
    stream.write(CSV_HEADER + "\n")
    stream.write(",".join(columns) + "\n")
    for row in table:
        stream.write(row_format % tuple(row.tolist()))


# the C encoder: one call formats a scalar, or a whole list or table of numbers
_encode = json.JSONEncoder(sort_keys=True).encode
_NESTED = (str, list, tuple, dict)


def _numbers_only(text) -> bool:
    """Whether C-encoded ``text`` holds no string and no object."""
    return '"' not in text and "{" not in text


def _layout(value, indent, markers) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` lays it out
    at the line break and indentation ``indent``."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        inner = indent + "  "
        markers = _enter(value, markers)
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _encode(key)
            items.append(f"{_encode(key)}: {_layout(item, inner, markers)}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(value, (list, tuple)):
        return _encode(value)
    if not value:
        return "[]"
    inner = indent + "  "
    first = value[0]
    if not isinstance(first, _NESTED):  # a list of numbers, in one call
        text = _encode(value)
        if text.count("[") == 1 and _numbers_only(text):
            return "[" + inner + text[1:-1].replace(", ", "," + inner) + indent + "]"
    elif isinstance(first, (list, tuple)) and first and not isinstance(first[0], _NESTED):
        text = _encode(value)  # a table of number rows, in one call
        if (text.count("[") == len(value) + 1 and "[]" not in text and _numbers_only(text)
                and all(isinstance(row, (list, tuple)) for row in value)):
            cell = inner + "  "
            body = text[2:-2].replace("], [", inner + "]," + inner + "[" + cell)
            body = body.replace(", ", "," + cell)
            return "[" + inner + "[" + cell + body + inner + "]" + indent + "]"
    markers = _enter(value, markers)
    items = [_layout(item, inner, markers) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _enter(container, markers) -> frozenset:
    """The ids of the enclosing containers plus ``container``'s; ValueError on a cycle."""
    if id(container) in markers:
        raise ValueError("Circular reference detected")
    return markers | {id(container)}


def dump_json(stream, payload) -> None:
    """Write ``json.dump(payload, stream, indent=2, sort_keys=True)`` and a
    newline, byte for byte, in one ``stream.write``.  Dicts and lists are
    laid out here; every scalar, list of numbers and table of number rows is
    formatted by the C encoder."""
    stream.write(_layout(payload, "\n", frozenset()) + "\n")
