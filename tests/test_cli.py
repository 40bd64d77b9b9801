"""CLI contract: formats, determinism, exit codes, report schemas."""

import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import adiametric
from adiametric import cli
from adiametric.cli import main
from adiametric.config import CONFIG_SCHEMA, REPORT_SCHEMA, _check_keywords, parse_config
from adiametric.errors import ConfigError
from adiametric.ioutil import CSV_HEADER, dump_json, json_to_matrix, write_csv
from adiametric.metric_flow import SolverConfig
from adiametric.scattering import s_matrix
from adiametric.two_level import TwoLevelParams, ramp_experiment, static_solution

from helpers import hermitian_precession


def csv_rows(text):
    """Data rows of a CSV output, below the version line and the header."""
    lines = text.strip().splitlines()
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])


def run_cli(tmp_path, command, config=None, fmt=None, name="cfg.json"):
    argv = [command]
    if config is not None:
        cfg_path = tmp_path / name
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    out_path = tmp_path / "out.txt"
    argv += ["--out", str(out_path)]
    if fmt:
        argv += ["--format", fmt]
    code = main(argv)
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


TWO_LEVEL_STATIC = {
    "model": {
        "kind": "two-level",
        "v": [0.0, 4.0, 0.0, 0.0],
        "w": [0.0, 0.0, 0.0, 3.0],
    },
    "output": {"format": "json"},
}

CUBIC = {
    "model": {"kind": "cubic", "g": 0.1, "duration": math.pi},
    "output": {"format": "csv"},
}

RAMP = {
    "model": {"kind": "two-level", "ramp": {"duration": 100.0}},
    "output": {"format": "csv"},
}

MATRIX_EVOLVE = {
    "model": {
        "kind": "matrix",
        "schedule": {
            "type": "constant",
            "h": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        },
        "t1": 2.0,
    },
    "solver": {"samples": 11},
    "output": {"format": "csv"},
}

SMATRIX = {
    "model": {"kind": "matrix"},
    "scattering": {
        "h0": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]],
        "h_int": [[[0.0, 0.0], [0.0, 0.75]], [[0.0, 0.75], [0.0, 0.0]]],
        "eps_ladder": [0.4, 0.2],
    },
    "output": {"format": "json"},
}


class TestStatic:
    def test_two_level_fixture_report(self, tmp_path):
        code, text = run_cli(tmp_path, "static", TWO_LEVEL_STATIC)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["result"]["components"] == [1.0, 0.0, 0.75, 0.0]
        assert report["diagnostics"]["positive_definite"] is True
        assert report["diagnostics"]["quasi_hermiticity_residual"] < 1e-10
        assert abs(report["diagnostics"]["smallest_eigenvalue"] - 0.25) < 1e-12

    def test_hermitian_model_identity_metric(self, tmp_path):
        cfg = {
            "model": {
                "kind": "two-level",
                "v": [0.0, 0.0, 0.0, 2.0],
                "w": [0.0, 0.0, 0.0, 0.0],
            },
            "output": {"format": "json"},
        }
        code, text = run_cli(tmp_path, "static", cfg)
        assert code == 0
        report = json.loads(text)
        assert report["result"]["components"] == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("model, weights", [
        ({"h": [[[2.0, 0.0], [0.0, 0.75]], [[0.0, 0.75], [-2.0, 0.0]]], "weights": [1, 2]},
         [1.0, 2.0]),
        ({"schedule": {"type": "exponential-switch", "h0": SMATRIX["scattering"]["h0"],
                       "h_int": SMATRIX["scattering"]["h_int"], "eps": 0.5}}, [1.0, 1.0]),
    ], ids=["h-weights", "schedule-at-0"])
    def test_matrix_model_report(self, tmp_path, model, weights):
        # 2 sigma_z + 0.75 i sigma_x, given as h or as the switch read at t = 0
        code, text = run_cli(tmp_path, "static", {"model": {"kind": "matrix", **model}})
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["result"]["weights"] == weights
        assert report["diagnostics"]["positive_definite"] is True
        assert report["diagnostics"]["quasi_hermiticity_residual"] < 1e-14

    def test_complex_spectrum_structured_error(self, tmp_path):
        cfg = {
            "model": {
                "kind": "two-level",
                "v": [0.0, 2.0, 0.0, 0.0],
                "w": [0.0, 0.0, 0.0, 3.0],
            },
            "output": {"format": "json"},
        }
        code, text = run_cli(tmp_path, "static", cfg)
        assert code == 4
        report = json.loads(text)
        assert report["diagnostics"]["error"]["type"] == "ComplexSpectrum"


class TestEvolve:
    def test_cubic_csv_header_and_spot_value(self, tmp_path):
        code, text = run_cli(tmp_path, "evolve", CUBIC)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        columns = lines[1].split(",")
        assert columns[0] == "t"
        last = dict(zip(columns, map(float, lines[-1].split(","))))
        assert abs(last["t"] - math.pi) < 1e-12
        # p^3 coefficient at t = duration = pi is (g/T) 2 pi / 3 = 1/15
        assert abs(last["coeff_p3_re"] - 1.0 / 15.0) < 1e-6
        assert last["coeff_p3_im"] == 0.0

    def test_ramp_nearly_constant_after_slow_ramp(self, tmp_path):
        code, text = run_cli(tmp_path, "evolve", RAMP)
        assert code == 0
        lines = text.strip().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
        tail = rows[rows[:, 0] >= 100.0][:, 1:]
        spread = np.max(tail, axis=0) - np.min(tail, axis=0)
        assert np.max(spread) < 0.01

    def test_constant_hermitian_columns_constant(self, tmp_path):
        code, text = run_cli(tmp_path, "evolve", MATRIX_EVOLVE)
        assert code == 0
        lines = text.strip().splitlines()
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
        assert rows.shape[0] == 11
        for col in range(1, rows.shape[1]):
            assert np.ptp(rows[:, col]) < 1e-12

    def test_two_level_static_start_stays_static(self, tmp_path):
        cfg = {
            "model": {**TWO_LEVEL_STATIC["model"], "t1": 5.0},
            "solver": {"samples": 51},
            "output": {"format": "csv"},
        }
        code, text = run_cli(tmp_path, "evolve", cfg)
        assert code == 0
        rows = csv_rows(text)
        assert rows.shape == (51, 5)
        static = [[1.0, 0.0, 0.75, 0.0]] * 51
        np.testing.assert_allclose(rows[:, 1:], static, atol=1e-8)

    def test_two_level_hermitian_precession(self, tmp_path):
        v = [0.3, 1.0, -2.0, 0.5]
        start = [1.2, 0.3, -0.2, 0.5]
        cfg = {
            "model": {
                "kind": "two-level",
                "v": v,
                "w": [0.0, 0.0, 0.0, 0.0],
                "initial": {"components": start},
                "t1": 6.0,
            },
            "solver": {"samples": 61},
            "output": {"format": "csv"},
        }
        code, text = run_cli(tmp_path, "evolve", cfg)
        assert code == 0
        rows = csv_rows(text)
        # a constant generator takes exact exponentials: roundoff only
        np.testing.assert_allclose(rows[:, 1], start[0], atol=1e-12)
        exact = [hermitian_precession(start[1:], v[1:], t) for t in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 2:], exact, atol=1e-12)

    def test_ramp_report_has_solver_counts(self, tmp_path):
        ramp = {**RAMP, "model": {"kind": "two-level", "ramp": {"duration": 3.0}}}
        code, text = run_cli(tmp_path, "evolve", ramp, fmt="json")
        assert code == 0
        solver = json.loads(text)["diagnostics"]["solver"]
        assert set(solver) == {"steps", "exponentials", "error_estimate"}
        assert solver["steps"] % 201 == 0  # whole CF4 steps per ramp sample
        assert solver["exponentials"] > 2 * solver["steps"]
        assert 0.0 < solver["error_estimate"] < 1e-8

    def test_cubic_ignores_solver_section(self, tmp_path, monkeypatch):
        # the cubic flow is exact exponentials: no tolerances to pass on
        seen = []
        evolve = cli.cubic_linear_switch_evolve

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "cubic_linear_switch_evolve", spy)
        code, plain = run_cli(tmp_path, "evolve", CUBIC)
        assert code == 0
        code, with_solver = run_cli(tmp_path, "evolve", {**CUBIC, "solver": {"rtol": 1e-4}})
        assert code == 0
        assert with_solver == plain
        assert seen == [((0.1, math.pi), {})] * 2

    def test_deterministic_output(self, tmp_path):
        _, first = run_cli(tmp_path, "evolve", CUBIC)
        _, second = run_cli(tmp_path, "evolve", CUBIC, name="cfg2.json")
        assert first == second

    def test_json_format_override(self, tmp_path):
        code, text = run_cli(tmp_path, "evolve", MATRIX_EVOLVE, fmt="json")
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, REPORT_SCHEMA)


class TestSweep:
    def test_duration_ladder_monotone(self, tmp_path):
        cfg = {
            "model": {"kind": "two-level"},
            "sweep": {
                "kind": "two-level-deviation",
                "durations": [1.0, 3.0, 10.0],
            },
            "output": {"format": "csv"},
        }
        code, text = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        lines = text.strip().splitlines()
        rows = [ln.split(",") for ln in lines[2:]]
        values = [float(r[1]) for r in rows]
        assert values[0] > values[1] > values[2]
        assert all(float(r[2]) == 1.0 for r in rows)

    def test_single_point_ladder(self, tmp_path):
        cfg = {
            "model": {"kind": "two-level"},
            "sweep": {"kind": "two-level-deviation", "durations": [2.0]},
            "output": {"format": "csv"},
        }
        code, text = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        assert len(text.strip().splitlines()) == 3

    def test_single_point_ladder_json_has_no_extrapolation(self, tmp_path):
        cfg = {
            "model": {"kind": "two-level"},
            "sweep": {"kind": "two-level-deviation", "durations": [2.0]},
        }
        code, text = run_cli(tmp_path, "sweep", cfg, fmt="json")
        assert code == 0
        report = json.loads(text)
        assert report["result"]["parameters"] == [2.0]
        assert "extrapolated" not in report["diagnostics"]

    def test_smatrix_defect_ladder(self, tmp_path):
        cfg = {
            "model": {"kind": "matrix"},
            "sweep": {
                "kind": "smatrix-defect",
                "eps_ladder": [0.4, 0.2],
                "h0": SMATRIX["scattering"]["h0"],
                "h_int": SMATRIX["scattering"]["h_int"],
            },
            "output": {"format": "json"},
        }
        code, text = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        report = json.loads(text)
        assert report["result"]["monotone_nonincreasing"] is True


class TestSmatrix:
    def test_ladder_report(self, tmp_path):
        code, text = run_cli(tmp_path, "smatrix", SMATRIX)
        assert code == 0
        report = json.loads(text)
        jsonschema.validate(report, REPORT_SCHEMA)
        defects = report["result"]["unitarity_defects"]
        assert defects[1] < defects[0]
        assert "extrapolated_defect" in report["diagnostics"]

    def test_solver_diagnostics_per_eps(self, tmp_path):
        cfg = json.loads(json.dumps(SMATRIX))
        cfg["scattering"]["compare_shapes"] = True
        code, text = run_cli(tmp_path, "smatrix", cfg)
        assert code == 0
        solver = json.loads(text)["diagnostics"]["solver"]
        assert [entry["eps"] for entry in solver] == [0.4, 0.2]
        for entry in solver:
            for shape in ("exp", "smooth"):
                assert set(entry[shape]) == {"dressings"}
                stats = entry[shape]["dressings"]
                assert set(stats) == {"steps", "exponentials", "error_estimate"}
                assert stats["steps"] > 0
                assert stats["error_estimate"] < 1e-9
        _, again = run_cli(tmp_path, "smatrix", cfg, name="cfg2.json")
        assert again == text

    def test_free_theory_identity(self, tmp_path):
        cfg = {
            "model": {"kind": "matrix"},
            "scattering": {
                "h0": SMATRIX["scattering"]["h0"],
                "h_int": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "eps": 0.2,
            },
            "output": {"format": "json"},
        }
        code, text = run_cli(tmp_path, "smatrix", cfg)
        assert code == 0
        report = json.loads(text)
        s = np.array(report["result"]["runs"][0]["s_matrix"])
        np.testing.assert_allclose(s[..., 0], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(s[..., 1], 0.0, atol=1e-12)


class TestMoyalCheck:
    def test_all_checks_pass(self, tmp_path):
        code, text = run_cli(tmp_path, "moyal-check")
        assert code == 0
        report = json.loads(text)
        assert report["result"]["all_passed"] is True
        names = {c["name"] for c in report["result"]["checks"]}
        assert "canonical_commutator" in names

    def test_reversed_transport_fails(self, tmp_path, monkeypatch):
        # a rotation the wrong way round still returns theta after a whole
        # period, so only a check at an angle the reduction keeps can see it
        forward = cli.harmonic_transport_check
        monkeypatch.setattr(cli, "harmonic_transport_check", lambda theta, t: forward(theta, -t))
        code, text = run_cli(tmp_path, "moyal-check")
        assert code == 3
        failed = [c["name"] for c in json.loads(text)["result"]["checks"] if not c["passed"]]
        assert failed == ["transport_solves_flow"]


class TestParser:
    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        cfg = tmp_path / "cubic.json"
        cfg.write_text(json.dumps(CUBIC))
        first, second = tmp_path / "first.json", tmp_path / "second.csv"
        assert main(["evolve", "--config", str(cfg), "--format", "json",
                     "--out", str(first)]) == 0
        # neither the first --format nor its --out carries over
        assert main(["evolve", "--config", str(cfg), "--out", str(second)]) == 0
        assert "times" in json.loads(first.read_text())["result"]
        assert second.read_text().startswith(CSV_HEADER + "\n")
        capsys.readouterr()
        assert main(["moyal-check", "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["all_passed"] is True
        assert cli._build_parser() is cli._build_parser()

    def test_version_exits_through_system_exit(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.strip() == cli.__version__


def format_float(x):
    """One CSV value: 17 significant digits, as the CSV format fixes it."""
    return f"{float(x):.17g}"


class TestCsvWriter:
    def test_bytes_equal_per_value_formatting(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-309,
                  1e308, -1.7976931348623157e308, 3.0, -42.0, 2.0**53 + 2, 1e16, 0.1, 1 / 3]
        flags = np.array([True, False, True])
        tables = [
            np.array(values).reshape(5, 3),
            # the sweep's table: a boolean column stacked with float columns
            np.column_stack([[1.0, 3.0, 10.0], [0.5, 0.25, 0.125], flags]),
            np.empty((0, 3)),
        ]
        for rows in tables:
            columns = [f"c{j}" for j in range(rows.shape[1])]
            stream = io.StringIO()
            write_csv(stream, columns, rows)
            want = "".join([CSV_HEADER + "\n", ",".join(columns) + "\n",
                            *(",".join(format_float(x) for x in row) + "\n" for row in rows)])
            assert stream.getvalue() == want


def oracle_json(payload):
    """What ``dump_json`` must write: ``json.dump``'s indented text and a newline."""
    stream = io.StringIO()
    json.dump(payload, stream, indent=2, sort_keys=True)
    return stream.getvalue() + "\n"


def written_json(payload):
    stream = io.StringIO()
    dump_json(stream, payload)
    return stream.getvalue()


def outcome(write, payload):
    """The text ``write`` produces, or the class of the exception it raises."""
    try:
        return write(payload)
    except Exception as exc:
        return type(exc)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0])
_NUMBERS = st.integers() | _FLOATS
_STRINGS = st.text() | st.sampled_from(["a, b", ", ", "], [", "\u00e9, \u2603", '"q", "r"'])
_SCALARS = st.none() | st.booleans() | _NUMBERS | _STRINGS
_KEYS = st.text() | st.sampled_from(["\u00e9", "\u2603 key", "k, v", "", "10", "9"])
_PAIR = st.tuples(_FLOATS, _FLOATS).map(list)
_JSON = st.recursive(
    _SCALARS
    # the report shapes: [re, im] matrices and tables of number rows
    | st.lists(st.lists(_PAIR, min_size=1, max_size=3), min_size=1, max_size=3)
    | st.lists(st.lists(_NUMBERS, max_size=5), max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_KEYS, children, max_size=4)
                      | st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False),
                                      children, max_size=3)
                      | st.dictionaries(st.none(), children, max_size=1)),
    max_leaves=20,
)
# what JSON cannot encode: other key types, sets, bytes, complex numbers
_UNENCODABLE = st.sampled_from([{(1, 2): 0}, {1, 2}, b"x", 1j, object(), {"a": 1, 2: "b"}])


class TestJsonWriter:
    @settings(max_examples=80, deadline=None)
    @given(payload=_JSON)
    def test_bytes_equal_json_dump(self, payload):
        assert written_json(payload) == oracle_json(payload)

    @settings(max_examples=30, deadline=None)
    @given(payload=_JSON, bad=_UNENCODABLE, index=st.integers(0, 4))
    def test_unencodable_input_raises_as_json_dump(self, payload, bad, index):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        rows[index % 2].insert(index % 3, bad)
        for document in ([payload, bad], {"k": bad, "rows": payload}, rows):
            want = outcome(oracle_json, document)
            assert isinstance(want, type) and outcome(written_json, document) is want

    def test_circular_reference_raises_as_json_dump(self):
        loop = [1.0]
        loop.append(loop)
        cycle = {"a": []}
        cycle["a"].append(cycle)
        for document in (loop, [loop], cycle, {"rows": [[1.0], loop]}):
            with pytest.raises(ValueError, match="Circular reference"):
                oracle_json(document)
            with pytest.raises(ValueError, match="Circular reference"):
                written_json(document)

    def test_one_write(self):
        writes = []
        stream = io.StringIO()
        stream.write = writes.append
        dump_json(stream, {"rows": [[1.0, 2.0]], "b": [True, None]})
        assert writes == [oracle_json({"rows": [[1.0, 2.0]], "b": [True, None]})]


class TestExitCodes:
    def test_unparseable_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evolve", "--config", str(bad), "--quiet"]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, literal):
        # "g": NaN once wrote NaN coefficients with exit 0, and a 401-digit
        # integer ended in an OverflowError traceback with exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CUBIC).replace('"g": 0.1', f'"g": {literal}'))
        out = tmp_path / "out.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"non-finite number {literal}" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_runs_without_jsonschema(self, tmp_path):
        # jsonschema and scipy are test dependencies only: with their imports
        # made to fail, the CLI still starts, loads and validates a
        # configuration, and runs every command on the shipped configs
        runs = [["moyal-check"], ["static", "--config", str(CONFIGS / "two_level_static.json")],
                *(["evolve", "--config", str(CONFIGS / f"{name}.json")]
                  for name in ("cubic_switch", "two_level_ramp", "two_level_static")),
                ["sweep", "--config", str(CONFIGS / "sweep_durations.json")],
                ["smatrix", "--config", str(CONFIGS / "smatrix_ladder.json")]]
        script = (
            "import json, sys\n"
            "sys.modules['jsonschema'] = sys.modules['scipy'] = None\n"
            "from adiametric import cli\n"
            "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
            "codes = [cli.main([*argv, '--out', f'{out}.{k}']) for k, argv in enumerate(runs)]\n"
            "sys.exit(max(codes))\n"
        )
        src = str(Path(adiametric.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", script, str(out), json.dumps(runs)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "out.1").read_text())["result"]["components"]
        assert all((tmp_path / f"out.{k}").stat().st_size for k in range(len(runs)))

    def test_schema_violation_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "evolve", {"model": {"kind": "nonsense"}})
        assert code == 2

    def test_missing_section_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "sweep", {"model": {"kind": "two-level"}})
        assert code == 2

    @pytest.mark.parametrize("command, cfg, message", [
        ("static", {"model": {"kind": "two-level"}},
         "two-level model needs 'v' and 'w' 4-vectors"),
        ("static", {"model": {"kind": "matrix", "h": [[[1, 0], [0, 0]], [[0, 0]]]}},
         "bad matrix field 'h'"),
        ("sweep", {"model": {"kind": "two-level"}, "sweep": {"kind": "two-level-deviation"}},
         "two-level sweep needs 'durations'"),
        ("sweep", {"model": {"kind": "matrix"},
                   "sweep": {"kind": "smatrix-defect", "h0": SMATRIX["scattering"]["h0"],
                             "h_int": SMATRIX["scattering"]["h_int"]}},
         "smatrix sweep needs 'eps_ladder'"),
    ], ids=["two-level-without-v-w", "ragged-matrix", "sweep-without-durations",
            "sweep-without-eps-ladder"])
    def test_incomplete_model_or_sweep_is_config_error(self, tmp_path, capsys, command, cfg,
                                                      message):
        assert run_cli(tmp_path, command, cfg) == (2, "")
        assert capsys.readouterr().err.startswith(f"configuration error: {message}")

    def test_static_matrix_without_generator_is_config_error(self, tmp_path):
        # a matrix model with neither 'h' nor 'schedule', like smatrix configs
        code, _ = run_cli(tmp_path, "static", SMATRIX)
        assert code == 2

    def test_solver_failure_is_exit_3(self, tmp_path):
        cfg = {
            "model": {"kind": "matrix"},
            "scattering": {
                "h0": SMATRIX["scattering"]["h0"],
                "h_int": SMATRIX["scattering"]["h_int"],
                "eps": 0.2,
                "horizon_factor": 0.5,
            },
            "output": {"format": "json"},
        }
        code, _ = run_cli(tmp_path, "smatrix", cfg)
        assert code == 3

    @pytest.mark.parametrize("ladder", [[0.8, 0.8], [0.4, 0.1, 0.2]], ids=["repeated", "unordered"])
    def test_smatrix_ladder_not_strictly_monotone_is_config_error(self, tmp_path, ladder):
        # a repeated eps once wrote NaN extrapolations with exit 0
        cfg = json.loads(json.dumps(SMATRIX))
        cfg["scattering"].update(eps_ladder=ladder, compare_shapes=True)
        assert run_cli(tmp_path, "smatrix", cfg) == (2, "")

    H3 = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3  # 3x3, every row (1, 0, 0)
    I3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]

    @pytest.mark.parametrize("command, section", [
        ("smatrix", {"scattering": {"h0": SMATRIX["scattering"]["h0"], "h_int": H3}}),
        ("evolve", {"model": {"kind": "matrix", "schedule": {
            "type": "exponential-switch", "h0": SMATRIX["scattering"]["h0"],
            "h_int": H3, "eps": 0.5}}}),
        ("evolve", {"model": {"kind": "matrix", "schedule": {
            "type": "linear-ramp", "h0": SMATRIX["scattering"]["h0"],
            "h1": H3, "duration": 1.0}}}),
        ("evolve", {"model": {"kind": "matrix", "schedule": {
            "type": "smooth-switch", "h0": H3,
            "h_int": SMATRIX["scattering"]["h0"], "width": 1.0}}}),
        ("evolve", {"model": {"kind": "matrix", "h": SMATRIX["scattering"]["h0"],
                              "theta0": I3}}),
        ("smatrix", {"scattering": {**SMATRIX["scattering"], "theta0": I3}}),
    ], ids=["smatrix", "exponential-switch", "linear-ramp", "smooth-switch",
            "evolve-metric", "smatrix-metric"])
    def test_mismatched_generator_shapes_are_exit_4(self, tmp_path, command, section):
        # once an untyped numpy ValueError with exit 1
        cfg = {"model": {"kind": "matrix"}, "output": {"format": "json"}, **section}
        code, text = run_cli(tmp_path, command, cfg)
        assert code == 4
        assert json.loads(text)["diagnostics"]["error"]["type"] == "DimensionMismatch"

    @pytest.mark.parametrize("schedule, message", [
        ({"type": "exponential-switch", "h0": H3, "h_int": H3}, "missing number field 'eps'"),
        ({"type": "linear-ramp", "h0": H3, "h1": H3}, "missing number field 'duration'"),
        ({"type": "smooth-switch", "h0": H3, "h_int": H3}, "missing number field 'width'"),
        ({"type": "linear-ramp", "h0": H3}, "missing matrix field 'h1'"),
    ], ids=["eps", "duration", "width", "matrix-first"])
    def test_schedule_without_field_is_config_error(self, tmp_path, capsys, schedule, message):
        # a missing number field once ended in a KeyError traceback, exit 1
        cfg = {"model": {"kind": "matrix", "schedule": schedule}}
        assert run_cli(tmp_path, "evolve", cfg) == (2, "")
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_empty_evolution_window_is_config_error(self, tmp_path, capsys):
        # once exit 3, a solver error about a t_eval no configuration names
        cfg = copy.deepcopy(MATRIX_EVOLVE)
        cfg["model"].update(t0=2.0, t1=2.0)
        assert run_cli(tmp_path, "evolve", cfg) == (2, "")
        assert "evolution window [2.0, 2.0] is empty" in capsys.readouterr().err

    def test_smatrix_metric_not_positive_definite_is_exit_4(self, tmp_path):
        # theta0 = -I once exited 0 with a negative definite Theta(0)
        minus_i = [[[-float(i == j), 0.0] for j in range(2)] for i in range(2)]
        cfg = {"model": {"kind": "matrix"}, "output": {"format": "json"},
               "scattering": {**SMATRIX["scattering"], "eps_ladder": [0.8], "theta0": minus_i}}
        code, text = run_cli(tmp_path, "smatrix", cfg)
        assert code == 4
        assert json.loads(text)["diagnostics"]["error"]["type"] == "NotPositive"

    @pytest.mark.parametrize("fmt", [None, "csv"], ids=["configured", "csv-flag"])
    def test_json_only_command_writes_error_report_without_output_section(self, tmp_path,
                                                                         fmt):
        # the switch meets an exceptional point halfway; with no 'output'
        # section the configured format is CSV, and the report was once lost
        cfg = {"model": {"kind": "matrix"},
               "scattering": {"h0": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                              "h_int": [[[2, 0], [0, 0.01]], [[0, 0.01], [0, 0]]], "eps": 0.2}}
        code, text = run_cli(tmp_path, "smatrix", cfg, fmt)
        assert code == 4
        assert json.loads(text)["diagnostics"]["error"]["type"] == "ComplexSpectrum"

    def test_csv_command_writes_no_error_report(self, tmp_path):
        cfg = {"model": {"kind": "matrix", "h": SMATRIX["scattering"]["h0"],
                         "theta0": self.I3}}
        assert run_cli(tmp_path, "evolve", cfg) == (4, "")

    def test_physics_error_is_exit_4(self, tmp_path):
        cfg = {
            "model": {
                "kind": "two-level",
                "v": [0.0, 2.0, 0.0, 0.0],
                "w": [0.0, 0.0, 0.0, 3.0],
            },
            "output": {"format": "json"},
        }
        code, _ = run_cli(tmp_path, "static", cfg)
        assert code == 4

    @pytest.mark.parametrize("v", [[0.0, 4.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
                             ids=["result", "error-report"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, v):
        # v = (0, 2, 0, 0) has a complex spectrum: the exit-4 JSON report
        # is what fails to open
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TWO_LEVEL_STATIC,
                                   "model": {**TWO_LEVEL_STATIC["model"], "v": v}}))
        out = tmp_path / "no" / "such" / "x.json"
        assert main(["static", "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error: cannot write --out" in capsys.readouterr().err

    def test_unwritable_out_stops_before_any_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "s_matrix", lambda *a, **k: calls.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMATRIX))
        for out in (tmp_path / "no" / "such" / "x.json", tmp_path):
            assert main(["smatrix", "--config", str(cfg), "--out", str(out)]) == 2
        assert calls == []

    def test_failing_command_keeps_existing_out(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("previous run")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "matrix"}}))
        assert main(["smatrix", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.read_text() == "previous run"


def csv_table(text):
    """Column names and data rows of a CSV output."""
    lines = text.strip().splitlines()
    return lines[1].split(","), csv_rows(text)


class TestFormatsAgree:
    """CSV and JSON outputs of one run carry the same numbers."""

    def both(self, tmp_path, command, config):
        code, csv_text = run_cli(tmp_path, command, config, fmt="csv")
        assert code == 0
        code, json_text = run_cli(tmp_path, command, config, fmt="json")
        assert code == 0
        report = json.loads(json_text)
        jsonschema.validate(report, REPORT_SCHEMA)
        return csv_table(csv_text), report["result"]

    @pytest.mark.parametrize("model", [
        {**TWO_LEVEL_STATIC["model"], "initial": {"alpha": 0.1}, "t1": 2.0},
        {"kind": "two-level", "ramp": {"duration": 3.0}},
    ], ids=["constant", "ramp"])
    def test_two_level(self, tmp_path, model):
        cfg = {"model": model, "solver": {"samples": 21}}
        (columns, rows), result = self.both(tmp_path, "evolve", cfg)
        assert result["columns"] == columns
        np.testing.assert_array_equal(rows, result["rows"])

    def test_matrix(self, tmp_path):
        cfg = {"model": {"kind": "matrix",
                         "schedule": {"type": "smooth-switch",
                                      "h0": SMATRIX["scattering"]["h0"],
                                      "h_int": SMATRIX["scattering"]["h_int"],
                                      "width": 2.0},
                         "t0": -1.0, "t1": 1.0},
               "solver": {"samples": 9}}
        (columns, rows), result = self.both(tmp_path, "evolve", cfg)
        np.testing.assert_array_equal(rows[:, 0], result["times"])
        metrics = np.array(result["metrics"])
        for i in range(2):
            for j in range(2):
                for k, part in enumerate(("re", "im")):
                    col = columns.index(f"theta_{part}_{i}_{j}")
                    np.testing.assert_array_equal(rows[:, col], metrics[:, i, j, k])

    def test_cubic(self, tmp_path):
        (columns, rows), result = self.both(tmp_path, "evolve", CUBIC)
        np.testing.assert_array_equal(rows[:, 0], result["times"])
        for name, values in result["coefficients"].items():
            np.testing.assert_array_equal(rows[:, columns.index(f"coeff_{name}_re")], values)
            assert not rows[:, columns.index(f"coeff_{name}_im")].any()

    def test_sweep(self, tmp_path):
        cfg = {"model": {"kind": "two-level"},
               "sweep": {"kind": "two-level-deviation", "durations": [1.0, 3.0]}}
        (columns, rows), result = self.both(tmp_path, "sweep", cfg)
        assert columns == ["duration", "value", "monotone_nonincreasing_prefix"]
        np.testing.assert_array_equal(rows[:, 0], result["parameters"])
        np.testing.assert_array_equal(rows[:, 1], result["values"])
        assert rows[-1, 2] == float(result["monotone_nonincreasing"])


class TestLibraryDefaults:
    """A key absent from the config leaves the library's own default in force:
    each report equals, bit for bit, the library call without that argument."""

    def test_ramp_evolve(self, tmp_path):
        cfg = {"model": {"kind": "two-level", "ramp": {"duration": 3.0}}}
        code, text = run_cli(tmp_path, "evolve", cfg, fmt="json")
        assert code == 0
        diag = json.loads(text)["diagnostics"]
        want = ramp_experiment(3.0)
        assert diag["deviation"] == want.deviation
        assert diag["selected_static"] == want.selected_static.four_vector().tolist()

    def test_two_level_sweep(self, tmp_path):
        durations = [1.0, 3.0]
        cfg = {"model": {"kind": "two-level"},
               "sweep": {"kind": "two-level-deviation", "durations": durations}}
        code, text = run_cli(tmp_path, "sweep", cfg, fmt="json")
        assert code == 0
        values = json.loads(text)["result"]["values"]
        assert values == [ramp_experiment(T).deviation for T in durations]

    def test_two_level_static(self, tmp_path):
        code, text = run_cli(tmp_path, "static", TWO_LEVEL_STATIC)
        assert code == 0
        params = TwoLevelParams(v=np.array(TWO_LEVEL_STATIC["model"]["v"]),
                                w=np.array(TWO_LEVEL_STATIC["model"]["w"]))
        want = static_solution(params).four_vector().tolist()
        assert json.loads(text)["result"]["components"] == want

    def test_single_eps_smatrix(self, tmp_path):
        cfg = json.loads(json.dumps(SMATRIX))
        spec = cfg["scattering"]
        del spec["eps_ladder"]
        spec["eps"] = 0.4
        code, text = run_cli(tmp_path, "smatrix", cfg)
        assert code == 0
        report = s_matrix(json_to_matrix(spec["h0"]), json_to_matrix(spec["h_int"]), 0.4).as_report()
        want = json.loads(json.dumps(report))
        assert json.loads(text)["result"]["runs"] == [want]


CONFIG_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# every shipped configuration, this file's fixtures, and documents shaped
# like the benchmark's cli-suite tasks
BASE_CONFIGS = [
    *(json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))),
    TWO_LEVEL_STATIC, CUBIC, RAMP, MATRIX_EVOLVE, SMATRIX,
    {"model": {"kind": "matrix", "weights": [0.5, 1.5, 2.0],
               "h": [[[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0], [0.0, 0.5]],
                     [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]]},
     "output": {"format": "json"}},
    {"model": {"kind": "two-level", "ramp": {"duration": 30.0, "amplitude": 1.0, "w3": 0.5}},
     "output": {"format": "json"}},
    {"model": {"kind": "two-level"},
     "sweep": {"kind": "two-level-deviation", "durations": [1.0, 3.0, 10.0],
               "amplitude": 1.0, "w3": 0.5},
     "solver": {"rtol": 1e-8, "atol": 1e-11, "samples": 5},
     "output": {"format": "csv"}},
]
# wrong types, bools where numbers go, samples as 5.0 and 2.5, bounds, unknown enums
REPLACEMENTS = ["nonsense", "", None, True, False, 0, -1, 1, 5.0, 2.5, 0.0, -0.5, [], [1.0],
                [[1.0, 0.0]], {}, {"kind": "cubic"}]


def _paths(node, path=()):
    """Every path into a JSON document, the root's ``()`` first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, (*path, index))


@st.composite
def mutated_config(draw):
    """A base configuration with up to three mutations at random depths: a
    key or entry dropped, a value replaced, a list cut short or lengthened,
    a key added."""
    document = copy.deepcopy(draw(st.sampled_from(BASE_CONFIGS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(document))[1:]
        if not paths:
            break
        *parent_path, last = draw(st.sampled_from(paths))
        parent = document
        for key in parent_path:
            parent = parent[key]
        value = parent[last]
        kind = draw(st.sampled_from(["drop", "replace", "shorten", "extend", "add"]))
        if kind == "drop":
            del parent[last]
        elif kind == "shorten" and isinstance(value, list) and value:
            parent[last] = value[:draw(st.integers(0, len(value) - 1))]
        elif kind == "extend" and isinstance(value, list):
            value.append(copy.deepcopy(value[-1] if value else 1.0))
        elif kind == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(["extra", "kind", "samples", "rtol", "format"]))] = \
                copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    if draw(st.integers(0, 19)) == 0:  # the whole document of the wrong type
        document = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return document


class TestConfigRoundTrip:
    def test_lossless_json_roundtrip(self):
        doc = json.loads(json.dumps(SMATRIX))
        cfg = parse_config(doc)
        assert cfg.raw == SMATRIX
        jsonschema.validate(cfg.raw, CONFIG_SCHEMA)

    def test_solver_defaults_come_from_solver_config(self):
        assert parse_config({"model": {"kind": "cubic"}}).solver == SolverConfig()
        partial = {"model": {"kind": "cubic"}, "solver": {"atol": 1e-10, "samples": 7}}
        assert parse_config(partial).solver == SolverConfig(atol=1e-10, samples=7)

    def test_schemas_are_valid(self):
        for schema in (CONFIG_SCHEMA, REPORT_SCHEMA):
            Draft202012Validator.check_schema(schema)

    @pytest.mark.parametrize("schema", [
        {"type": "object", "properties": {"a": {"type": "array", "items": {"pattern": "x"}}}},
        {"type": "object", "additionalProperties": False},
        {"type": "string"},
    ])
    def test_validator_refuses_unchecked_keywords(self, schema):
        # CONFIG_SCHEMA passes this check at import; a keyword or type the
        # validator does not implement would otherwise be silently ignored
        with pytest.raises(ValueError, match="not checked"):
            _check_keywords(schema)

    @settings(max_examples=200, deadline=None)
    @given(document=mutated_config())
    def test_validator_matches_jsonschema_best_match(self, document):
        error = best_match(CONFIG_VALIDATOR.iter_errors(document))
        if error is None:
            assert parse_config(document).raw is document
        else:
            with pytest.raises(ConfigError) as got:
                parse_config(document)
            assert str(got.value) == f"invalid configuration: {error.message}"

    @pytest.mark.parametrize("document", [
        [],
        {},
        {"model": {"kind": "nonsense"}},
        {"model": {"kind": "two-level", "v": [1.0, 2.0]}},
        {"model": {"kind": "matrix"}, "solver": {"rtol": -1.0, "samples": 1}},
        {"model": {"kind": "matrix"}, "output": {"format": "xml"}},
    ])
    def test_invalid_config_message_matches_jsonschema(self, document):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(document, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            parse_config(document)
        assert str(got.value) == f"invalid configuration: {expected.value.message}"
