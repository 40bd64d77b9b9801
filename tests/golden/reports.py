"""Golden CLI reports: regenerate them, or show how today's reports differ.

``tests/golden/`` holds one JSON report for every command and shipped
config that succeeds, plus ``moyal-check``.  Lists longer than ``LONG``
entries (the trajectories) are thinned to every ``STRIDE``-th entry,
starting with the first, plus the last; CSV is not kept, since
``tests/test_cli.py::TestFormatsAgree`` pins it to the JSON numbers.
``tests/test_golden.py`` reruns every command against its report:
strings, booleans, integers (the CF4 ``steps`` and ``exponentials``, the
DOP853 ``nfev``) and the shape of the report must match exactly, and the
floats of each array within ``FLOAT_RTOL`` of that array's largest
magnitude.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/reports.py          # largest change per key
    PYTHONPATH=src python tests/golden/reports.py --write  # regenerate the files

A change that moves an output regenerates the files in the same commit and
quotes the printed table in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from adiametric.cli import main

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[1] / "configs"

LONG = 64
STRIDE = 8
FLOAT_RTOL = 1e-12

#: report name -> CLI arguments; every command and config pair that succeeds
RUNS = {
    f"{config}.{command}": [command, "--config", str(CONFIGS / f"{config}.json"), "--format", "json"]
    for config, command in [
        ("cubic_switch", "evolve"),
        ("smatrix_ladder", "smatrix"),
        ("sweep_durations", "sweep"),
        ("two_level_ramp", "evolve"),
        ("two_level_static", "evolve"),
        ("two_level_static", "static"),
    ]
}
RUNS["moyal-check"] = ["moyal-check"]


def thin(value):
    """``value`` with every list longer than ``LONG`` thinned to ``STRIDE``."""
    if isinstance(value, dict):
        return {key: thin(item) for key, item in value.items()}
    if isinstance(value, list):
        if len(value) > LONG:
            value = value[::STRIDE] + ([] if (len(value) - 1) % STRIDE == 0 else value[-1:])
        return [thin(item) for item in value]
    return value


def run_report(name) -> dict:
    """The thinned JSON report of run ``name``, produced in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(RUNS[name])
    if code != 0:
        raise RuntimeError(f"{name}: exit code {code}")
    return thin(json.loads(out.getvalue()))


def golden_path(name) -> Path:
    return HERE / f"{name}.json"


def load_golden(name) -> dict:
    return json.loads(golden_path(name).read_text(encoding="utf-8"))


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _float_array(value):
    """``value`` as a float array when it is a float or a nested list of
    floats only (no integers, booleans or strings), else None."""
    if not all(type(x) is float for x in _leaves(value)):
        return None
    try:
        return np.array(value, dtype=float)
    except ValueError:  # ragged
        return None


def differences(golden, fresh, path=""):
    """Yield ``(key, abs_change, rel_change, exact)`` for every array and
    leaf: ``exact`` is False where a string, boolean, integer or the
    structure differs.  ``rel_change`` is relative to the golden array's
    largest magnitude.  List indices in ``key`` are collapsed to ``[]``."""
    key = re.sub(r"\[\d+\]", "[]", path) or "."
    want, got = _float_array(golden), _float_array(fresh)
    if want is not None and got is not None and want.shape == got.shape:
        change = float(np.max(np.abs(got - want), initial=0.0))
        scale = float(np.max(np.abs(want), initial=0.0))
        rel = change / scale if scale else (0.0 if change == 0.0 else np.inf)
        yield key, change, rel, True
    elif isinstance(golden, dict) and isinstance(fresh, dict) and golden.keys() == fresh.keys():
        for k in sorted(golden):
            yield from differences(golden[k], fresh[k], f"{path}.{k}")
    elif isinstance(golden, list) and isinstance(fresh, list) and len(golden) == len(fresh):
        for i, (a, b) in enumerate(zip(golden, fresh)):
            yield from differences(a, b, f"{path}[{i}]")
    else:
        same = type(golden) is type(fresh) and golden == fresh
        yield key, 0.0, 0.0, same


def mismatches(golden, fresh) -> list:
    """Keys where ``fresh`` fails the golden test, with the reason."""
    out = []
    for key, change, rel, exact in differences(golden, fresh):
        if not exact:
            out.append(f"{key}: value, type or structure differs")
        elif rel > FLOAT_RTOL:
            out.append(f"{key}: floats moved by {change:.3e} ({rel:.3e} of the array scale)")
    return out


def _table(name, golden, fresh) -> list:
    worst = {}
    for key, change, rel, exact in differences(golden, fresh):
        prev = worst.get(key, (0.0, 0.0, True))
        worst[key] = (max(prev[0], change), max(prev[1], rel), prev[2] and exact)
    return [f"| {name} | `{key}` | {change:.3e} | {rel:.3e} |" if exact else
            f"| {name} | `{key}` | differs | (exact key) |"
            for key, (change, rel, exact) in worst.items() if change or not exact]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden files")
    args = parser.parse_args(argv)
    rows, failed = [], False
    for name in RUNS:
        fresh = run_report(name)
        if args.write:
            golden_path(name).write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
            continue
        golden = load_golden(name)
        rows += _table(name, golden, fresh)
        failed = failed or bool(mismatches(golden, fresh))
    if args.write:
        print(f"wrote {len(RUNS)} reports to {HERE}")
        return 0
    if not rows:
        print("every report matches its golden file exactly")
        return 0
    print("| report | key | largest abs change | largest rel change |")
    print("|---|---|---|---|")
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
