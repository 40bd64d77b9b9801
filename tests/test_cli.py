"""CLI contract: formats, determinism, exit codes, report schemas."""

import json
import math

import jsonschema
import numpy as np
import pytest
from jsonschema import Draft202012Validator

from adiametric import cli
from adiametric.cli import main
from adiametric.config import CONFIG_SCHEMA, REPORT_SCHEMA, parse_config
from adiametric.errors import ConfigError
from adiametric.ioutil import CSV_HEADER
from adiametric.metric_flow import SolverConfig
from adiametric.two_level import hermitian_precession


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
            "solver": {"rtol": 1e-11, "atol": 1e-13, "samples": 61},
            "output": {"format": "csv"},
        }
        code, text = run_cli(tmp_path, "evolve", cfg)
        assert code == 0
        rows = csv_rows(text)
        np.testing.assert_allclose(rows[:, 1], start[0], atol=1e-8)
        exact = [hermitian_precession(start[1:], v[1:], t) for t in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 2:], exact, atol=1e-8)

    def test_cubic_takes_solver_section_when_present(self, tmp_path, monkeypatch):
        seen = []
        evolve = cli.cubic_linear_switch_evolve

        def spy(g, duration, t_eval=None, config=None):
            seen.append(config)
            return evolve(g, duration, t_eval, config)

        monkeypatch.setattr(cli, "cubic_linear_switch_evolve", spy)
        assert run_cli(tmp_path, "evolve", CUBIC)[0] == 0
        with_solver = {**CUBIC, "solver": {"rtol": 1e-4}}
        assert run_cli(tmp_path, "evolve", with_solver)[0] == 0
        # no section: the model's own tight default, so outputs do not move
        assert seen == [None, SolverConfig(rtol=1e-4)]
        assert seen[1] == parse_config(with_solver).solver

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
                for side in ("in_dressing", "out_dressing"):
                    stats = entry[shape][side]
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


class TestExitCodes:
    def test_unparseable_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["evolve", "--config", str(bad), "--quiet"]) == 2

    def test_schema_violation_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "evolve", {"model": {"kind": "nonsense"}})
        assert code == 2

    def test_missing_section_is_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "sweep", {"model": {"kind": "two-level"}})
        assert code == 2

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


class TestConfigRoundTrip:
    def test_lossless_json_roundtrip(self):
        doc = json.loads(json.dumps(SMATRIX))
        cfg = parse_config(doc)
        assert cfg.raw == SMATRIX
        jsonschema.validate(cfg.raw, CONFIG_SCHEMA)

    def test_schemas_are_valid(self):
        for schema in (CONFIG_SCHEMA, REPORT_SCHEMA):
            Draft202012Validator.check_schema(schema)

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
