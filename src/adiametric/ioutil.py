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


def dump_json(stream, payload) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")
