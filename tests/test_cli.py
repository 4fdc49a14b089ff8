"""Config validation, exit codes, determinism, and report formats."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import holonomylab
from holonomylab import cli, transport
from holonomylab.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_PASS,
    ConfigError,
    emit,
    load_schema,
    main,
    run_config,
    validate_config,
)
from holonomylab.curvature import constant_base_field
from holonomylab.finsler import catalog_names, catalog_norm

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    st = None


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(tmp_path, payload, *extra):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_report(out):
    return json.loads((out / "report.json").read_text())


def test_minimal_metric_check_passes(tmp_path):
    code, out = run_cli(tmp_path, {"metric": "euclidean", "command": "metric-check"})
    assert code == EXIT_PASS
    report = read_report(out)
    assert report["summary"]["passed"]
    assert [c["passed"] for c in report["tasks"][0]["checks"]] == [True] * 4
    # emitted reports re-validate against the published report schema
    jsonschema.Draft202012Validator(load_schema("report.schema.json")).validate(report)
    assert (out / "report.meta.json").exists()


def test_strict_profile_on_flat_metric(tmp_path):
    code, out = run_cli(
        tmp_path,
        {"metric": "euclidean", "command": "metric-check"},
        "--tolerance-profile",
        "strict",
    )
    assert code == EXIT_PASS
    assert read_report(out)["provenance"]["tolerance_profile"] == "strict"


def test_strict_profile_is_the_only_verdict_on_a_metric_check(tmp_path):
    # the homogeneity residual, about 8e-9, passes the default profile and
    # fails the strict one; the results carry it without a verdict of their own
    metric = {"norm": "sqrt(y1^2 + y2^2) + 3e-9", "lo": [-1, -1], "hi": [1, 1]}
    code, out = run_cli(
        tmp_path, {"metric": metric, "command": "metric-check"}, "--tolerance-profile", "strict"
    )
    assert code == EXIT_NUMERIC
    task = read_report(out)["tasks"][0]
    checks = {c["name"]: c["passed"] for c in task["checks"]}
    assert not checks["homogeneity"] and not task["passed"]
    assert "passed" not in task["results"]
    assert 1e-9 < task["results"]["homogeneity_residual"] < 1e-8


def test_unknown_key_rejected():
    problems = validate_config({"metric": "euclidean", "command": "metric-check", "bogus": 1})
    assert len(problems) == 1 and "bogus" in problems[0]


def test_conditional_requirements():
    assert any("loop" in p for p in validate_config({"command": "holonomy", "metric": "sphere"}))
    assert any("fields" in p for p in validate_config({"command": "closure"}))
    assert any("metric" in p for p in validate_config({"command": "transport"}))
    assert any("op" in p for p in validate_config({"command": "grouplab"}))
    assert validate_config({"command": "grouplab", "op": "sum", "k": 1, "l": 2}) == []


def test_schema_violation_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"metric": "euclidean", "command": "shake"})
    assert code == EXIT_CONFIG
    assert "command" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"metric": "euclidean",}')
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    code = main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "content, expected",
    [
        (None, "No such file or directory"),
        ("directory", "Is a directory"),
        (b'{"metric": "euclidean",}', "invalid JSON at line 1 column 24"),
        (b'{"command": "grouplab", "op": "scale", "lambda": NaN}', "invalid JSON: NaN is not a JSON number"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 100_000 + b"]" * 100_000, "config error: lists and objects nest deeper than 64 levels"),
        (b'{"command": "grouplab", "op": "exp-iterate", "t": 1e400}', "invalid JSON: 1e400 is out of float range"),
        (b'{"command": "grouplab", "op": "exp-iterate", "t": ' + b"1" * 5000 + b"}",
         "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
        (b"[" * 990 + b"]" * 990, "config error: lists and objects nest deeper than 64 levels"),
        (b"[" * 65 + b"]" * 65, "config error: lists and objects nest deeper than 64 levels"),
        (b"[" * 64 + b"]" * 64, "config error: schema validation failed"),
    ],
    ids=["missing", "directory", "trailing-comma", "nan", "not-utf8", "deep-nesting", "float-overflow",
         "long-integer", "deep-valid-json", "nesting-limit", "at-nesting-limit"],
)
def test_unusable_config_file_exits_2(tmp_path, capsys, content, expected):
    # nothing runs and no output directory is made for a file that is not a config
    cfg = tmp_path / "config.json"
    if content == "directory":
        cfg.mkdir()
    elif content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and expected in err
    assert not out.exists()


NILPOTENT = [[0, 1], [0, 0]]


def _closure(*fields):
    return {"command": "closure", "fields": [{"variables": v, "components": c} for v, c in fields]}


def _geometry(command, **values):
    return {"command": command, "metric": "sphere", **values}


@pytest.mark.parametrize(
    "task, field",
    [
        ({"command": "grouplab", "op": "contact", "x": [1.0, 2.0]}, "x"),
        ({"command": "grouplab", "op": "contact", "x": [[1, 2], [3]]}, "x"),
        ({"command": "grouplab", "op": "exp-iterate", "x": NILPOTENT, "m": np.eye(3).tolist()}, "m"),
        ({"command": "grouplab", "op": "commutator", "x": NILPOTENT, "y": np.eye(3).tolist()}, "y"),
        (_closure((["x", "y"], ["1"])), "fields/0"),
        (_closure((["x"], ["x +"])), "fields/0"),
        (_closure((["x", "y"], ["1", "0"]), (["x"], ["x"])), "fields/1"),
        (_geometry("curvature", point=[0.3]), "point"),
        (_geometry("chain", point=[1.1, 0.2, 0.0]), "point"),
        (_geometry("parallelogram", point=[1.1]), "point"),
        (_geometry("parallelogram", point=[1.1, 0.2], x=[1.0, 0.0, 0.0]), "x"),
        (_geometry("parallelogram", point=[1.1, 0.2], y=NILPOTENT), "y"),
        (_geometry("parallelogram", point=[1.1, 0.2], vector=[1.0]), "vector"),
        (_geometry("holonomy", loop={"expressions": ["1+(", "0.5"]}), "loop"),
        (_geometry("holonomy", loop={"expressions": ["1", "0.5", "t*(1-t)"]}), "loop"),
        (_geometry("holonomy", loop={"expressions": ["1 + 0.2*t", "0.5"]}), "loop"),
        (_geometry("holonomy", loop={"rect": [[1.0], [1.2]]}), "loop"),
    ],
)
def test_unusable_config_value_exits_2(tmp_path, capsys, task, field):
    # the schema accepts these values; the command cannot use them
    code, out = run_cli(tmp_path, task)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: tasks/0/{field}: ")
    assert not (out / "report.json").exists()


def test_unknown_metric_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"metric": "hyperbolic", "command": "metric-check"})
    assert code == EXIT_CONFIG
    assert "hyperbolic" in capsys.readouterr().err


def test_bad_format_exits_2(tmp_path):
    code, _ = run_cli(
        tmp_path, {"metric": "euclidean", "command": "metric-check"}, "--format", "yaml"
    )
    assert code == EXIT_CONFIG


def test_unwritable_out_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = write_config(tmp_path, {"metric": "euclidean", "command": "metric-check"})
    code = main(["--config", str(cfg), "--out", str(blocker)])
    assert code == EXIT_IO


def test_reports_are_byte_identical(tmp_path):
    payload = {"metric": "euclidean", "command": "transport", "curves": 3, "seed": 11}
    _, out1 = run_cli(tmp_path, payload)
    first = (out1 / "report.json").read_bytes()
    (out1 / "report.json").unlink()
    code, out2 = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    assert (out2 / "report.json").read_bytes() == first


def test_cli_seed_overrides_config(tmp_path):
    payload = {"tasks": [{"metric": "sphere", "command": "transport", "curves": 2}], "seed": 1}
    _, out = run_cli(tmp_path, payload)
    first = read_report(out)
    code, out = run_cli(tmp_path, payload, "--seed", "2")
    assert code == EXIT_PASS
    second = read_report(out)
    assert second["provenance"]["seed"] == 2
    assert first["tasks"][0]["results"] != second["tasks"][0]["results"]


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, {"metric": "euclidean", "command": "metric-check"}, "--seed", "-1"
    )
    assert code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_empty_task_list_is_valid(tmp_path):
    code, out = run_cli(tmp_path, {"tasks": []})
    assert code == EXIT_PASS
    report = read_report(out)
    assert report["tasks"] == [] and report["summary"]["num_tasks"] == 0


def test_sphere_holonomy_matches_gauss_bonnet(tmp_path):
    payload = {
        "metric": "sphere",
        "command": "holonomy",
        "loop": {"rect": [[math.pi / 3, 0.0], [math.pi / 2, 1.0]]},
        "samples": 6,
    }
    code, out = run_cli(tmp_path, payload, "--format", "json,csv")
    assert code == EXIT_PASS
    results = read_report(out)["tasks"][0]["results"]
    assert results["rotation_oracle"] == pytest.approx(0.5)
    assert abs(results["rotation"] - 0.5) < 1e-6
    csv_path = next(out.glob("*holonomy*.csv"))
    text = csv_path.read_bytes()
    assert text.count(b"\r\n") == 7  # header + six samples, RFC 4180 endings
    assert text.startswith(b"sample,angle_shift\r\n")


def test_rotation_oracle_follows_the_catalog_metric_not_its_name(tmp_path):
    # an expression metric may carry any name; a flat one named "sphere" has
    # no Gauss-Bonnet rotation, so the sphere oracle must not apply to it
    payload = {
        "metric": {"norm": "sqrt(y1^2 + y2^2)", "lo": [0.5, -0.5], "hi": [2.0, 1.5], "name": "sphere"},
        "command": "holonomy",
        "loop": {"rect": [[math.pi / 3, 0.0], [math.pi / 2, 1.0]]},
        "samples": 6,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    results = read_report(out)["tasks"][0]["results"]
    assert "rotation" not in results


def test_grouplab_sum_example(tmp_path):
    code, out = run_cli(tmp_path, {"command": "grouplab", "op": "sum", "k": 1, "l": 2, "seed": 7})
    assert code == EXIT_PASS
    task = read_report(out)["tasks"][0]
    assert task["checks"][0]["value"] <= 1e-9
    assert np.allclose(task["results"]["direction"], task["results"]["expected"], atol=1e-9)


def test_grouplab_alternate_constants_regression_exits_1(tmp_path):
    payload = {"command": "grouplab", "op": "sum", "k": 1, "l": 2, "constants": "alternate", "seed": 5}
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_NUMERIC
    report = read_report(out)
    assert not report["summary"]["passed"]
    assert report["summary"]["failures"] == ["task0-grouplab: grouplab-direction"]


def test_transport_tasks_fail_when_no_step_meets_the_tolerance(tmp_path, monkeypatch):
    # no step can meet a zero tolerance; every transport route must fail the run
    monkeypatch.setattr(transport, "ATOL", 0.0)
    monkeypatch.setattr(transport, "RTOL", 0.0)
    tasks = [
        {"command": "transport", "metric": "sphere", "curves": 2},
        {"command": "holonomy", "metric": "sphere", "loop": {"rect": [[1.0, 0.0], [1.2, 0.3]]},
         "samples": 2},
        {"command": "parallelogram", "metric": "funk_disk", "point": [0.3, 0.0]},
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, {"seed": 1, "tasks": tasks})
    assert code == EXIT_NUMERIC
    errors = [task.get("error", "") for task in read_report(out)["tasks"]]
    assert len(errors) == 3 and all(e.startswith("TransportFailure") for e in errors), errors


def test_exp_iterate_convergence_csv(tmp_path):
    payload = {"command": "grouplab", "op": "exp-iterate", "seed": 3}
    code, out = run_cli(tmp_path, payload, "--format", "json,csv")
    assert code == EXIT_PASS
    csv_path = next(out.glob("*convergence.csv"))
    lines = csv_path.read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "n,error"
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert errors == sorted(errors, reverse=True)


def test_csv_only_format_skips_report_json(tmp_path):
    payload = {"command": "grouplab", "op": "exp-iterate", "seed": 3}
    code, out = run_cli(tmp_path, payload, "--format", "csv")
    assert code == EXIT_PASS
    assert not (out / "report.json").exists()
    assert list(out.glob("*.csv"))


def test_closure_command_reports_ranks(tmp_path):
    payload = {
        "command": "closure",
        "fields": [
            {"variables": ["x", "y"], "components": ["1", "0"], "name": "dx"},
            {"variables": ["x", "y"], "components": ["-y", "x"], "name": "rot"},
        ],
        "depth": 3,
    }
    code, out = run_cli(tmp_path, payload, "--format", "json,csv")
    assert code == EXIT_PASS
    results = read_report(out)["tasks"][0]["results"]
    assert results["rank_report"]["rank"] == 3
    assert results["trace"]["termination"] == "rank-stable"
    csv_path = next(out.glob("*singular_values.csv"))
    text = csv_path.read_bytes().decode()
    values = [float(line.split(",")[1]) for line in text.strip().split("\r\n")[1:]]
    assert values == sorted(values, reverse=True)


def test_closure_and_chain_reports_through_emit(tmp_path):
    config = {
        "tasks": [
            {
                "command": "closure",
                "fields": [
                    {"variables": ["x", "y"], "components": ["1", "0"], "name": "d0"},
                    {"variables": ["x", "y"], "components": ["0", "x"], "name": "x dy"},
                ],
                "depth": 3,
            },
            {"command": "chain", "metric": "funk_disk", "point": [0.3, 0.0], "depth": 1},
        ]
    }
    report, tables = run_config(config, 0, "default")
    written = emit(report, tables, tmp_path, ["json", "csv"])
    closure, chain = read_report(tmp_path)["tasks"]

    rank_report, trace = closure["results"]["rank_report"], closure["results"]["trace"]
    assert rank_report["kind"] == "rank-report" and rank_report["rank"] == 3
    assert trace["kind"] == "closure-trace" and trace["termination"] == "rank-stable"
    assert trace["generations"][0]["rank_after"] == 3

    results = chain["results"]
    assert results["kind"] == "chain-report"
    for part in ("curvature", "ihol"):
        assert results[f"{part}_report"]["kind"] == "rank-report"
        assert results[f"{part}_trace"]["kind"] == "closure-trace"
    assert results["ranks"] == {
        "curvature": results["curvature_report"]["rank"],
        "ihol": results["ihol_report"]["rank"],
    }
    assert results["ranks"]["curvature"] <= results["ranks"]["ihol"]
    assert "not directly computable" in results["holonomy"]

    spectra = {
        "00-task0-closure.singular_values.csv": rank_report,
        "01-task1-chain.curvature_singular_values.csv": results["curvature_report"],
        "01-task1-chain.ihol_singular_values.csv": results["ihol_report"],
    }
    assert sorted(p.name for p in written if p.suffix == ".csv") == sorted(spectra)
    for name, spectrum in spectra.items():
        text = (tmp_path / name).read_bytes().decode()
        lines = text.strip().splitlines()
        assert lines[0] == "index,singular_value"
        assert len(lines) == 1 + len(spectrum["singular_values"])
        assert text.count("\r\n") == len(lines)


def test_parallelogram_command_flat_metric(tmp_path):
    payload = {
        "metric": "euclidean",
        "command": "parallelogram",
        "point": [0.1, 0.2],
        "vector": [1.0, 0.5],
    }
    code, out = run_cli(tmp_path, payload, "--format", "json,csv")
    assert code == EXIT_PASS
    task = read_report(out)["tasks"][0]
    assert {c["name"] for c in task["checks"]} == {
        "parallelogram-first-derivative",
        "parallelogram-second-vs-curvature",
    }
    assert next(out.glob("*derivative_vs_step.csv")).read_text().startswith("step,")


def test_parallelogram_task_reaches_transport_integrate(tmp_path, monkeypatch):
    # perfbench's tracer binds `transport.integrate` by name, and its REQUIRED
    # groups need it reached on the demo and transport workloads; loop builds
    # keep their flow legs on it until the tracer reads the library's own
    # counters (ROADMAP item 3)
    calls = []
    real = transport.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "integrate", counted)
    payload = {"metric": "sphere", "command": "parallelogram", "point": [1.0, 0.2]}
    code, _ = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    assert calls


def test_parallelogram_task_reads_parallelogram_derivatives():
    report, tables = run_config(
        {"metric": "sphere", "command": "parallelogram", "point": [1.0, 0.2]}, 0, "default"
    )
    results = report["tasks"][0]["results"]
    sphere = catalog_norm("sphere")
    X = constant_base_field(sphere.manifold, [1.0, 0.0], "X")
    Y = constant_base_field(sphere.manifold, [0.0, 1.0], "Y")
    p, v = np.array(results["point"]), np.array(results["vector"])
    ders = transport.parallelogram_derivatives(sphere, X, Y, p, v)

    def same(got, want):
        return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()

    assert same(results["first_derivative"], ders.first)
    assert same(results["second_derivative"], ders.second)
    assert same(results["extrapolation_errors"], [ders.first_error, ders.second_error])
    target = np.array(results["curvature_doubled"])
    _, rows = tables[0]["derivative_vs_step"]
    want = [
        [h, np.linalg.norm(first), np.linalg.norm(second - target)]
        for h, first, second in zip(transport.H_SCHEDULE, ders.firsts, ders.seconds)
    ]
    assert same(rows, want)


def test_curvature_command_sphere(tmp_path):
    payload = {"metric": "sphere", "command": "curvature", "point": [1.1, 0.4], "samples": 8}
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    results = read_report(out)["tasks"][0]["results"]
    assert results["tangency_residual"] < 1e-8
    assert results["max_component"] > 0.1


def test_chain_command_euclidean(tmp_path):
    payload = {
        "metric": "euclidean",
        "command": "chain",
        "point": [0.0, 0.0],
        "depth": 1,
        "samples": 12,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    results = read_report(out)["tasks"][0]["results"]
    assert results["ranks"] == {"curvature": 0, "ihol": 0}
    assert "not directly computable" in results["holonomy"]


def test_expression_metric_roundtrip(tmp_path):
    payload = {
        "metric": {
            "norm": "sqrt(y1^2 + y2^2)",
            "lo": [-1.0, -1.0],
            "hi": [1.0, 1.0],
            "name": "flat-expr",
        },
        "command": "metric-check",
        "samples": 10,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    assert read_report(out)["tasks"][0]["results"]["name"] == "flat-expr"


def test_oversized_metric_expression_exits_2(tmp_path, capsys):
    for terms in (1200, 20000):
        norm = "sqrt(" + " + ".join(["y1^2 + y2^2"] * terms) + ")"
        payload = {
            "metric": {"norm": norm, "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "command": "metric-check",
            "samples": 4,
        }
        code, _ = run_cli(tmp_path, payload)
        assert code == EXIT_CONFIG
        assert "tasks/0/metric" in capsys.readouterr().err


def test_infinite_literal_in_metric_exits_2(tmp_path, capsys):
    # 1e999 reads as inf: a config error, not a failed positivity check
    payload = {
        "metric": {"norm": "sqrt(y1^2 + y2^2) * 1e999", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "command": "metric-check",
        "samples": 4,
    }
    code, _ = run_cli(tmp_path, payload)
    assert code == EXIT_CONFIG
    assert "tasks/0/metric" in capsys.readouterr().err


def test_numeric_task_error_is_captured(tmp_path):
    # base point outside the chart: the task fails, the run still reports
    payload = {
        "tasks": [
            {"metric": "funk_disk", "command": "curvature", "point": [5.0, 0.0]},
            {"command": "grouplab", "op": "scale", "k": 1, "lambda": -2.0, "seed": 1},
        ]
    }
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_NUMERIC
    report = read_report(out)
    first, second = report["tasks"]
    assert not first["passed"] and "error" in first
    assert second["passed"]


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("HOLONOMYLAB_OUT", str(target))
    cfg = write_config(tmp_path, {"command": "grouplab", "op": "contact", "k": 2, "seed": 0})
    code = main(["--config", str(cfg)])
    assert code == EXIT_PASS
    assert (target / "report.json").exists()


def test_run_config_callable_directly():
    report, tables = run_config(
        {"command": "grouplab", "op": "commutator", "k": 1, "l": 1, "seed": 4}, 0, "default"
    )
    task = report["tasks"][0]
    assert task["passed"]
    mixed = np.array(task["results"]["mixed_derivative"])
    expected = np.array(task["results"]["expected_bracket"])
    assert np.allclose(mixed, expected, atol=1e-9)
    assert task["results"]["diagonal_order"] == 2


def test_run_config_resolves_every_metric_before_any_task(monkeypatch):
    # a bad metric at task 1 raises with its config path, and task 0 never runs
    ran = []
    real = cli._HANDLERS["metric-check"]

    def spy(task, norm, rng):
        ran.append(task["metric"])
        return real(task, norm, rng)

    monkeypatch.setitem(cli._HANDLERS, "metric-check", spy)
    config = {
        "tasks": [
            {"metric": "euclidean", "command": "metric-check"},
            {"metric": "hyperbolic", "command": "metric-check"},
        ]
    }
    with pytest.raises(ConfigError, match=r"^tasks/1/metric: .*hyperbolic"):
        run_config(config, 0, "default")
    assert ran == []


CONTACT_TASK = {"command": "grouplab", "op": "contact", "k": 2, "seed": 0}


def _grouplab_handler(monkeypatch, seen, fail=None):
    # the handler records the freeze count it runs under, then raises `fail`
    real = cli._HANDLERS["grouplab"]

    def spy(task, norm, rng):
        seen.append(gc.get_freeze_count())
        if fail is not None:
            raise fail
        return real(task, norm, rng)

    monkeypatch.setitem(cli._HANDLERS, "grouplab", spy)


def test_a_run_keeps_the_import_heap_out_of_the_collector(monkeypatch):
    seen = []
    _grouplab_handler(monkeypatch, seen)
    before = gc.get_freeze_count()
    report, _ = run_config(CONTACT_TASK, 0, "default")
    assert report["summary"]["passed"]
    assert seen[0] > 10_000
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "fail, raised",
    [
        (ConfigError("op: refused"), ConfigError),
        (KeyError("escapes the task"), KeyError),
        (ValueError("a task error"), None),
    ],
)
def test_a_run_restores_the_collector_when_it_raises(monkeypatch, fail, raised):
    seen = []
    _grouplab_handler(monkeypatch, seen, fail)
    before = gc.get_freeze_count()
    if raised is None:
        report, _ = run_config(CONTACT_TASK, 0, "default")
        assert report["tasks"][0]["error"] == "ValueError: a task error"
    else:
        with pytest.raises(raised):
            run_config(CONTACT_TASK, 0, "default")
    assert seen[0] > 10_000
    assert gc.get_freeze_count() == before


def _collectable(obj) -> bool:
    # gc.get_objects() lists the three generations, never the frozen objects
    return any(item is obj for item in gc.get_objects())


def test_a_callers_own_freeze_is_left_as_it_is():
    # frozen objects may die during the run, so sentinels show what moved
    kept = []
    gc.freeze()
    try:
        fresh = []
        run_config(CONTACT_TASK, 0, "default")
        assert gc.get_freeze_count() > 10_000
        assert not _collectable(kept)
        assert _collectable(fresh)
    finally:
        gc.unfreeze()
    assert _collectable(kept)


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def test_indefinite_metric_writes_strict_json(tmp_path):
    metric = {"norm": "sqrt(y1^2 - y2^2)", "lo": [-1, -1], "hi": [1, 1]}
    with np.errstate(invalid="ignore"):
        code, out = run_cli(tmp_path, {"metric": metric, "command": "metric-check", "samples": 10})
    assert code == EXIT_NUMERIC
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["tasks"][0]["results"]["min_eigenvalue"] is None
    jsonschema.Draft202012Validator(load_schema("report.schema.json")).validate(report)


def test_non_finite_check_fails_as_null():
    from holonomylab.cli import _check

    for value in (math.nan, math.inf):
        check = _check("probe", value, 1.0)
        assert check["value"] is None and check["passed"] is False
    assert _check("probe", 0.5, 1.0) == {
        "name": "probe", "value": 0.5, "tolerance": 1.0, "passed": True
    }


def test_non_finite_config_constant_exits_2(tmp_path, capsys):
    # the schema admits NaN as a number; the report could not echo it as JSON
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"command": "grouplab", "op": "scale", "k": 1, "lambda": NaN, "seed": 1}')
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "NaN" in capsys.readouterr().err


def test_undefined_scaled_norm_fails_homogeneity(tmp_path):
    # F(lam y) is NaN for lam = 2 and 3.7; the residual must not drop it
    norm = "sqrt(y1^2 + y2^2) * (1 + 0*sqrt(1.5 - y1^2 - y2^2))"
    metric = {"norm": norm, "lo": [-1, -1], "hi": [1, 1]}
    with np.errstate(invalid="ignore"):
        code, out = run_cli(tmp_path, {"metric": metric, "command": "metric-check", "samples": 10})
    assert code == EXIT_NUMERIC
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    check = report["tasks"][0]["checks"][0]
    assert check["name"] == "homogeneity" and check["value"] is None and not check["passed"]


def test_meta_sidecar_carries_task_telemetry(tmp_path):
    payload = {
        "tasks": [
            {"metric": "sphere", "command": "curvature", "point": [1.1, 0.4], "samples": 8},
            {"metric": "sphere", "command": "chain", "point": [0.9, 0.4], "depth": 1, "samples": 12},
            {"command": "grouplab", "op": "scale", "k": 1, "lambda": -2.0, "seed": 1},
            {"metric": "funk_disk", "command": "curvature", "point": [5.0, 0.0]},
        ]
    }
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_NUMERIC
    meta = json.loads((out / "report.meta.json").read_text())
    assert "created" in meta
    tasks = meta["tasks"]
    assert [t["command"] for t in tasks] == ["curvature", "chain", "grouplab", "curvature"]
    assert all(t["wall_s"] > 0.0 for t in tasks)
    assert all({"spray_tables", "lockstep"} <= t.keys() for t in tasks)
    for t in tasks[:2]:
        assert 0 < t["spray_tables"]["computed"] <= t["spray_tables"]["requests"]
    assert tasks[2]["spray_tables"] == {"requests": 0, "computed": 0}
    assert tasks[2]["lockstep"] == {"members": 0, "rounds": 0, "requests": 0}
    assert tasks[3]["spray_tables"] == {"requests": 0, "computed": 0}
    # telemetry stays out of the deterministic report
    assert "wall_s" not in (out / "report.json").read_text()


def test_meta_sidecar_counts_lockstep_transports(tmp_path):
    payload = {
        "tasks": [
            {"metric": "euclidean", "command": "transport", "curves": 3, "seed": 2},
            {"metric": "euclidean", "command": "parallelogram", "point": [0.1, 0.2]},
            {"metric": "euclidean", "command": "holonomy", "loop": {"rect": [[0, 0], [1, 1]]}},
        ]
    }
    code, out = run_cli(tmp_path, payload)
    assert code == EXIT_PASS
    tasks = json.loads((out / "report.meta.json").read_text())["tasks"]
    assert all({"spray_tables", "lockstep"} <= t.keys() for t in tasks)
    transport, parallelogram, holonomy = tasks
    # one member per curve, and per scale of the schedule (+t and -t)
    assert transport["lockstep"]["members"] == 3
    assert parallelogram["lockstep"]["members"] == 8
    for task in (transport, parallelogram):
        counts = task["lockstep"]
        assert 0 < counts["rounds"] <= counts["requests"] <= 2 * counts["members"] * counts["rounds"]
    assert holonomy["lockstep"]["members"] == 1
    assert "lockstep" not in (out / "report.json").read_text()


def test_constant_loop_component_exits_0(tmp_path):
    # a loop component that does not depend on t is a constant curve coordinate
    loop = {"expressions": ["0.3*cos(2*pi*t)", "0.5"]}
    code, out = run_cli(tmp_path, {"metric": "euclidean", "command": "holonomy", "loop": loop})
    assert code == EXIT_PASS
    results = read_report(out)["tasks"][0]["results"]
    assert results["base_point"] == [0.3, 0.5]
    assert results["max_displacement"] == 0.0


def test_constant_norm_fails_its_checks(tmp_path):
    # F = 2 is no norm: not homogeneous and with a zero fundamental tensor
    metric = {"norm": "2", "lo": [-1, -1], "hi": [1, 1]}
    code, out = run_cli(tmp_path, {"metric": metric, "command": "metric-check"})
    assert code == EXIT_NUMERIC
    checks = {c["name"]: c["passed"] for c in read_report(out)["tasks"][0]["checks"]}
    assert not checks["homogeneity"] and not checks["convexity-failures"]


# scipy.stats costs about a second of import and of interpreter exit;
# scipy.sparse and scipy.linalg cost about 0.3 s of import, and only grouplab
# (expm) needs one of them, which the CLI loads before run_config is entered
_IMPORT_CASES = {
    "closure": (
        {
            "command": "closure",
            "fields": [
                {"variables": ["x", "y"], "components": ["1", "0"], "name": "dx"},
                {"variables": ["x", "y"], "components": ["-y", "x"], "name": "rot"},
            ],
            "depth": 2,
        },
        {"scipy.stats"},
        set(),
    ),
    "transport-holonomy": (
        {
            "tasks": [
                {"metric": "funk_disk", "command": "transport", "curves": 1},
                {"metric": "sphere", "command": "holonomy", "loop": {"rect": [[1.0, 0.0], [1.5, 1.0]]}},
            ]
        },
        {"scipy.sparse", "scipy.linalg"},
        set(),
    ),
    "grouplab": ({"command": "grouplab", "op": "sum", "k": 1, "l": 2}, set(), {"scipy.linalg"}),
}


@pytest.mark.parametrize("case", sorted(_IMPORT_CASES))
def test_a_run_imports_only_the_scipy_it_needs(tmp_path, case):
    payload, never, at_entry = _IMPORT_CASES[case]
    cfg = write_config(tmp_path, payload)
    watched = sorted(never | at_entry)
    probe = (
        "import json, sys\n"
        "from holonomylab import cli\n"
        "run_config, seen = cli.run_config, {}\n"
        "def entered(*args):\n"
        f"    seen['entry'] = [m for m in {watched!r} if m in sys.modules]\n"
        "    return run_config(*args)\n"
        "cli.run_config = entered\n"
        f"code = cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        f"seen['exit'] = [m for m in {watched!r} if m in sys.modules]\n"
        "print(json.dumps([code, seen]))\n"
    )
    # the child imports the package these tests import
    env = {**os.environ, "PYTHONPATH": str(Path(holonomylab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    code, seen = json.loads(done.stdout.splitlines()[-1])
    assert code == EXIT_PASS
    assert never.isdisjoint(seen["exit"]) and at_entry <= set(seen["entry"])


if st is None:

    def test_exit_codes_on_random_schema_valid_configs():
        pytest.skip("hypothesis is not installed")

else:
    ENTRIES = st.integers(-20, 20).map(lambda i: i / 10)
    GROUPLAB_OPS = ("contact", "commutator", "sum", "scale", "exp-iterate", "weak-tangency")
    METRIC_COMMANDS = ("chain", "curvature", "holonomy", "metric-check", "parallelogram", "transport")

    def _rows(draw, count, width):
        return [draw(st.lists(ENTRIES, min_size=width, max_size=width)) for _ in range(count)]

    @st.composite
    def matrices(draw):
        """Square, non-square, ragged and flat matrices of sides 1..3."""
        n = draw(st.integers(1, 3))
        shape = draw(st.sampled_from(("square", "square", "wide", "ragged", "flat")))
        if shape == "square":
            return _rows(draw, n, n)
        if shape == "wide":
            return _rows(draw, n, n + 1)
        if shape == "ragged":
            return _rows(draw, 1, n) + _rows(draw, 1, n + 1)
        return draw(st.lists(ENTRIES, min_size=1, max_size=3))

    @st.composite
    def grouplab_tasks(draw):
        task = {
            "command": "grouplab",
            "op": draw(st.sampled_from(GROUPLAB_OPS)),
            "k": draw(st.integers(1, 3)),
            "l": draw(st.integers(1, 3)),
            "constants": draw(st.sampled_from(("exact", "alternate"))),
            "reading": draw(st.sampled_from(("exact", "alternate"))),
            "seed": draw(st.integers(0, 100)),
        }
        for key in draw(st.lists(st.sampled_from("xym"), unique=True)):
            matrix = draw(matrices())
            if key != "m" or isinstance(matrix[0], list):  # m admits no flat vector
                task[key] = matrix
        return task

    def _expressions(names):
        """Sums, differences and products of two terms, each a variable, a
        literal, or sin/cos/exp of one."""
        leaf = st.one_of(st.sampled_from(names), ENTRIES.map(str))
        call = st.tuples(st.sampled_from(("sin", "cos", "exp")), leaf)
        term = st.one_of(leaf, call.map("{0[0]}({0[1]})".format))
        return st.tuples(term, st.sampled_from("+-*"), term).map(" ".join)

    @st.composite
    def closure_tasks(draw):
        """Expression fields over 1..3 variables; some draws give a field one
        component too many or too few, or fields of different dimensions."""
        fields = []
        for _ in range(draw(st.integers(1, 3))):
            names = ("x", "y", "z")[: draw(st.integers(1, 3))]
            count = max(1, len(names) + draw(st.sampled_from((0, 0, 0, 0, -1, 1))))
            comps = draw(st.lists(_expressions(names), min_size=count, max_size=count))
            fields.append({"variables": list(names), "components": comps})
        return {"command": "closure", "fields": fields, "depth": draw(st.integers(0, 2))}

    def _points(n):
        """n coordinates, or now and then one too many."""
        return st.sampled_from((n,) * 5 + (n + 1,)).flatmap(
            lambda size: st.lists(ENTRIES, min_size=size, max_size=size)
        )

    @st.composite
    def metrics(draw):
        """(metric, dimension): a catalog norm, an unknown name, or an
        expression norm over 1..3 dimensions; its box may be empty, and its
        expression may be no norm at all or name a variable it lacks."""
        kind = draw(st.sampled_from(("catalog",) * 3 + ("unknown", "expression", "expression")))
        if kind == "catalog":
            return draw(st.sampled_from(catalog_names())), 2
        if kind == "unknown":
            return "hyperbolic", 2
        n = draw(st.integers(1, 3))
        lo = draw(st.lists(ENTRIES, min_size=n, max_size=n))
        hi = [a + draw(st.sampled_from((0.5, 1.0, 2.0, 0.0))) for a in lo]
        ys, c = " + ".join(f"y{i}*y{i}" for i in range(1, n + 1)), draw(ENTRIES)
        norms = (f"sqrt({ys})", f"sqrt((1 + {c}*x1*x1)*({ys}))", f"sqrt({ys}) + {c}*y1", "y1", f"x{n + 1}")
        return {"norm": draw(st.sampled_from(norms)), "lo": lo, "hi": hi}, n

    @st.composite
    def metric_tasks(draw):
        """The six commands on a metric, kept short: one or two curves, small
        loops, few samples, chains of depth 0 or 1; points and loop corners
        fall inside or outside the chart box."""
        metric, n = draw(metrics())
        task = {"command": draw(st.sampled_from(METRIC_COMMANDS)), "metric": metric}
        task["seed"] = draw(st.integers(0, 100))
        if task["command"] == "transport":
            task["curves"] = draw(st.integers(1, 2))
        elif task["command"] == "holonomy":
            if draw(st.booleans()):
                a = draw(_points(n))
                task["loop"] = {"rect": [a, [v + draw(st.sampled_from((0.1, 0.3, -0.2))) for v in a]]}
            else:
                r, c = draw(st.sampled_from(("0.1", "0.3"))), draw(ENTRIES)
                loop = [f"{c} + {r}*cos(2*pi*t)", f"{r}*sin(2*pi*t)", "0.5"]
                task["loop"] = {"expressions": loop[: draw(st.sampled_from((n,) * 3 + (n + 1,)))]}
        elif task["command"] != "metric-check":
            task["point"] = draw(_points(n))
        if task["command"] == "parallelogram":
            for key in draw(st.lists(st.sampled_from(("x", "y", "vector")), unique=True)):
                task[key] = draw(_points(n))
        elif task["command"] == "chain":
            task["depth"] = draw(st.integers(0, 1))
        if task["command"] not in ("transport", "parallelogram"):
            task["samples"] = draw(st.integers(2, 4))
        return task

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(st.one_of(grouplab_tasks(), closure_tasks(), metric_tasks()))
    # each command once: a loop inside the box and a chain (exit 0), a loop
    # that leaves the box (the transport underflows), a point outside it and
    # an expression that is no norm (exit 1), a wrong length and an unknown
    # metric (exit 2)
    @example({"command": "holonomy", "metric": "sphere", "loop": {"rect": [[1.0, 0.0], [1.3, 0.3]]}})
    @example({"command": "chain", "metric": "funk_disk", "point": [0.1, 0.2], "depth": 1, "samples": 3})
    @example({"command": "holonomy", "metric": "sphere", "loop": {"rect": [[2.9, 0.0], [3.1, 0.3]]}})
    @example({"command": "curvature", "metric": "sphere", "point": [5.0, 0.2], "samples": 2})
    @example({"command": "transport", "metric": {"norm": "y1", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "curves": 1})
    @example({"command": "parallelogram", "metric": "euclidean", "point": [0.5, 0.5], "x": [1.0, 0.0, 0.0]})
    @example({"command": "metric-check", "metric": "hyperbolic"})
    def test_exit_codes_on_random_schema_valid_configs(task):
        """Every schema-valid config ends in 0 or 1 with a strict-JSON report
        holding no config error, or in 2 with a config error and no report."""
        assert validate_config(task) == []
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(task))
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with np.errstate(all="ignore"):
                    code = main(["--config", str(cfg), "--out", str(out)])
            assert code in (EXIT_PASS, EXIT_NUMERIC, EXIT_CONFIG)
            if code == EXIT_CONFIG:
                assert not (out / "report.json").exists()
                assert stderr.getvalue().startswith("config error")
            else:
                text = (out / "report.json").read_text()
                report = json.loads(text, parse_constant=_reject_constant)
                errors = [t.get("error", "") for t in report["tasks"]]
                assert not any(e.startswith("ConfigError") for e in errors), errors
