"""Self-tests of the benchmark: config generators and output checks.

    python3 -m pytest perfbench

One small config, with a task for every check, runs through the CLI once;
its output must pass, and every perturbation below must be rejected, so a
check that cannot fail is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import checks
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "holonomylab" / "schemas"
SEED = 11


def _schema(name):
    return json.loads((SCHEMAS / name).read_text(encoding="utf-8"))


# -- config generators ------------------------------------------------------------


@pytest.mark.parametrize("name", ["transport", "algebra"])
def test_configs_are_seeded_valid_and_fixed_in_shape(name):
    make = getattr(workloads, f"{name}_config")
    validator = jsonschema.Draft202012Validator(_schema("config.schema.json"))
    assert make(3) == make(3)
    assert make(3) != make(4)
    shapes = set()
    for seed in range(6):
        config = make(seed)
        assert not list(validator.iter_errors(config))
        assert all("seed" in task for task in config["tasks"])
        shapes.add(tuple((t["command"], t.get("op"), t.get("k"), len(t.get("x", []))) for t in config["tasks"]))
    assert len(shapes) == 1


def test_demo_config_is_the_shipped_file():
    shipped = json.loads((ROOT / "demos" / "batch_config.json").read_text(encoding="utf-8"))
    assert workloads.workload_config("demo", 5, ROOT) == shipped


def test_mixes_are_invertible_and_so3_fields_span_the_basis():
    rng = np.random.default_rng(0)
    mix = workloads._mix(rng, 3)
    assert np.linalg.cond(mix) <= 4.0 + 1e-9
    fields = workloads.so3_fields(mix)
    assert [f["variables"] for f in fields] == [["x", "y", "z"]] * 3


# -- closed forms -------------------------------------------------------------------


def test_closed_forms():
    assert checks.sphere_rotation([[np.pi / 3, 0.0], [np.pi / 2, 1.0]]) == pytest.approx(0.5)
    assert checks.rank_from_singular_values([3.0, 1e-3, 1e-9], 1e-7) == 2
    assert checks.rank_from_singular_values([], 1e-7) == 0
    # the Funk norm at the origin is Euclidean and dF/dy is y/|y|
    y = np.array([0.6, 0.8])
    assert checks.norm_value("funk_disk", [0.0, 0.0], y) == pytest.approx(1.0)
    assert np.allclose(checks.norm_gradient("funk_disk", [0.0, 0.0], y), y)
    # on the sphere's equator xi = F (F_y(e0) e1 - F_y(e1) e0) = (-y1, y0) on F = 1
    xi = checks.curvature_closed_form("sphere", [np.pi / 2, 0.0], y, [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(xi, [-0.8, 0.6])


# -- speed scaling ------------------------------------------------------------------


def test_scaled_time_leaves_out_the_kernel_and_extrapolates_the_ends():
    half = speed.K_REF_S / 2  # a kernel twice as fast as the reference: factor 2
    samples = [[0.0, 1.0], [half, half]]
    assert speed.scaled(samples, -1.0, 2.0) == pytest.approx(2 * (3.0 - 2 * half))
    assert speed.scaled(samples, 0.25, 0.75) == pytest.approx(1.0)


def test_scaled_time_ignores_one_stray_sample():
    ref = speed.K_REF_S
    samples = [[0.0, 1.0, 2.0, 3.0, 4.0], [ref, ref, 4 * ref, ref, ref]]
    # the local median keeps factor 1 everywhere; the kernels' own 6 ref are left out
    assert speed.scaled(samples, 0.5, 3.5) == pytest.approx(3.0 - 6 * ref)


def test_sampler_times_the_kernel_in_the_main_thread():
    sampler = speed.Sampler()
    sampler.start()
    try:
        began = time.monotonic()
        while time.monotonic() - began < 0.2:
            pass
    finally:
        sampler.stop()
    t, k = sampler.samples()
    assert len(t) == len(k) >= 5
    assert all(0.0 < d < 0.01 for d in k)
    assert speed.scaled([t, k], t[0], t[-1]) > 0.0


def test_strict_json_rejects_non_finite_constants():
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            checks.strict_json(text)


# -- output checks on a real CLI run --------------------------------------------------


def _small_config():
    transport = workloads.transport_config(SEED)["tasks"]
    algebra = workloads.algebra_config(SEED)["tasks"]
    keep = {"loop-sphere-0", "loop-euclidean", "parallelogram-sphere"}
    tasks = [t for t in transport if t["label"] in keep]
    segment = dict(transport[0], curves=1)
    tasks.append(segment)
    tasks += [t for t in algebra if not t["label"].endswith("-1") and t["command"] != "metric-check"
              or t["label"] == "metric-warped-0"]
    return {"seed": SEED, "tolerance_profile": "default", "tasks": tasks}


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    config = _small_config()
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, "-m", "holonomylab.cli", "--config", str(base / "config.json"),
         "--out", str(base / "out"), "--format", "json,csv"],
        env=env, check=True, capture_output=True, timeout=300,
    )
    return base / "out", config


def test_clean_output_passes(clean_run):
    out, config = clean_run
    problems, raw = checks.check_output(out, config, SEED, _schema("report.schema.json"))
    assert problems == []
    assert raw


def _index(config, label):
    return next(i for i, t in enumerate(config["tasks"]) if t["label"] == label)


def _bump(values, delta):
    arr = np.asarray(values, dtype=float)
    arr.flat[0] += delta
    return arr.tolist()


# each perturbation edits a copy of the report (and may edit a CSV table)
REPORT_PERTURBATIONS = {
    "sphere-rotation": ("loop-sphere-0", lambda r: r.update(rotation=r["rotation"] + 1e-4)),
    "flat-displacement": ("loop-euclidean", lambda r: r.update(max_displacement=1e-6)),
    "curvature-doubled": ("parallelogram-sphere",
                          lambda r: r.update(curvature_doubled=_bump(r["curvature_doubled"], 1e-6))),
    "second-derivative": ("parallelogram-sphere",
                          lambda r: r.update(second_derivative=_bump(r["second_derivative"], 1e-2))),
    "chain-ranks": ("chain-sphere", lambda r: (r["ranks"].update(ihol=2), r["ihol_report"].update(rank=2))),
    "chain-recount": ("chain-sphere", lambda r: r["curvature_report"]["singular_values"].append(1.0)),
    "closure-dimension": ("closure-so3-0", lambda r: r["rank_report"].update(
        rank=2, singular_values=r["rank_report"]["singular_values"][:2])),
    "closure-recount": ("closure-heisenberg-0", lambda r: r["rank_report"].update(rank=2)),
    "contact-order": ("grouplab-contact-0", lambda r: r.update(order=3)),
    "commutator": ("grouplab-commutator-2",
                   lambda r: r.update(mixed_derivative=_bump(r["mixed_derivative"], 1e-6))),
    "sum": ("grouplab-sum-4", lambda r: r.update(direction=_bump(r["direction"], 1e-6))),
    "scale": ("grouplab-scale-6", lambda r: r.update(direction=_bump(r["direction"], 1e-6))),
    "weak-tangency": ("grouplab-weak-tangency-10", lambda r: r.update(derivative=_bump(r["derivative"], 1e-4))),
    "exp-iterate-value": ("grouplab-exp-iterate-8",
                          lambda r: r.update(errors=[r["errors"][0] * 1.001] + r["errors"][1:])),
    "metric-eigenvalue": ("metric-warped-0", lambda r: r.update(min_eigenvalue=0.5)),
    "transport-drift": ("segments-sphere-cap",lambda r: r.update(max_norm_drift=1e-6)),
}

TABLE_PERTURBATIONS = {
    "curvature-components": ("curvature-sphere", "curvature_components", "xi0"),
    "curvature-components-funk": ("curvature-funk_disk", "curvature_components", "xi1"),
    "flat-samples": ("loop-euclidean", "holonomy_samples", "displacement"),
    "convergence-table": ("grouplab-exp-iterate-8", "convergence", "error"),
    "singular-values-table": ("closure-sine-0", "singular_values", "singular_value"),
}


def _copy(out, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return dst


def _problems(dst, config):
    return checks.check_output(dst, config, SEED, _schema("report.schema.json"))[0]


@pytest.mark.parametrize("name", sorted(REPORT_PERTURBATIONS))
def test_perturbed_report_is_rejected(clean_run, tmp_path, name):
    out, config = clean_run
    label, edit = REPORT_PERTURBATIONS[name]
    dst = _copy(out, tmp_path)
    report = json.loads((dst / "report.json").read_text())
    edit(report["tasks"][_index(config, label)]["results"])
    (dst / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    problems = _problems(dst, config)
    assert any(label in line for line in problems), problems


@pytest.mark.parametrize("name", sorted(TABLE_PERTURBATIONS))
def test_perturbed_table_is_rejected(clean_run, tmp_path, name):
    out, config = clean_run
    label, table, column = TABLE_PERTURBATIONS[name]
    dst = _copy(out, tmp_path)
    index = _index(config, label)
    (path,) = [p for p in dst.glob(f"{index:02d}-*.{table}.csv")]
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    problems = _problems(dst, config)
    assert any(label in line for line in problems), problems


def test_non_finite_report_is_rejected(clean_run, tmp_path):
    out, config = clean_run
    dst = _copy(out, tmp_path)
    text = (dst / "report.json").read_text()
    key = '"min_eigenvalue": '
    start = text.index(key) + len(key)
    end = text.index(",", start)
    (dst / "report.json").write_text(text[:start] + "Infinity" + text[end:])
    assert any("non-RFC 8259" in line for line in _problems(dst, config))


@pytest.mark.parametrize("edit", ["drop-summary", "failed-summary", "seed", "config"])
def test_report_envelope_is_checked(clean_run, tmp_path, edit):
    out, config = clean_run
    dst = _copy(out, tmp_path)
    report = json.loads((dst / "report.json").read_text())
    if edit == "drop-summary":
        del report["summary"]
    elif edit == "failed-summary":
        report["summary"]["passed"] = False
    elif edit == "seed":
        report["provenance"]["seed"] += 1
    else:
        report["config"]["tasks"] = report["config"]["tasks"][:-1]
    (dst / "report.json").write_text(json.dumps(report))
    assert _problems(dst, config)


def test_demo_grouplab_draws_follow_the_cli_seeding():
    # a task without x/y draws from SeedSequence(seed, spawn_key=(index,)) as the CLI does
    task = {"command": "grouplab", "op": "commutator"}
    a1, b1, _ = checks.grouplab_matrices(task, 7, 5)
    a2, b2, _ = checks.grouplab_matrices(task, 7, 5)
    a3, _, _ = checks.grouplab_matrices(task, 7, 6)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, a3)
    assert np.linalg.norm(a1, 2) <= 1.0 + 1e-12
