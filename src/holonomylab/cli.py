"""Batch experiment runner: config in, machine-readable reports out.

A config (JSON, schema-validated, unknown keys rejected) names one task or a
list of tasks; each task picks a command and its parameters.  Commands cover
the full pipeline: norm health checks, parallel transport contracts, loop
holonomy, parallelogram curvature probes, curvature fields, bracket
closures, the inclusion-chain report, and the matrix-group constructions.

Reports are deterministic: identical config and seed produce byte-identical
report.json (keys sorted, task randomness drawn from per-task seed
sequences); wall-clock data lives in the report.meta.json sidecar: the
creation timestamp and every task's wall time and `jets.tally` counts
(spray-memo tables, lockstep transports), zero where a layer was not used.
report.json is RFC 8259 JSON: a non-finite result is written as null, and a
check whose value is not finite fails.  CSV tables (RFC 4180, CRLF line
endings) carry the plot-ready series: singular values, convergence errors,
derivative-vs-step diagnostics.  Library results are dataclasses; this
module alone writes JSON and CSV, building each task's results with
`dataclasses.asdict` and adding the `kind` tags.  Command handlers return
measurements; `run_config` alone grades them against the tolerance profile,
so a task's `checks` and `passed` are its only verdicts.

Exit codes: 0 all declared tolerance checks pass, 1 a numeric check failed
(report still written), 2 config errors (a file unreadable as UTF-8 JSON of
finite numbers, schema violations, unknown metric, a value the schema accepts
but the command cannot use; diagnostics name the offending field, and no
report is written), 3 output I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .curvature import constant_base_field, coordinate_fields, curvature_field, ihol_generators
from .finsler import FinslerNorm, catalog_norm, indicatrix_samples, norm_diagnostics
from .grouplab import (
    CommutatorFamily,
    MatrixCurve,
    diagonal_bracket_factor,
    exp_iterate,
    one_sided_derivative,
    order_of_contact,
    scale_curve,
    sum_curve,
    weak_tangency_reparam,
)
from .jets import richardson_extrapolate, tally
from .liealg import (
    DEFAULT_TAU,
    ExpressionField,
    inclusion_chain_report,
    lie_closure,
    numerical_rank,
)
from .transport import (
    H_SCHEDULE,
    CurveSpec,
    LoopSpec,
    ParallelogramTransporter,
    holonomy_map,
    parallel_transports,
)

EXIT_PASS = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_IO = 3

OUT_ENV_VAR = "HOLONOMYLAB_OUT"
DEFAULT_OUT = "holonomylab-out"

HOMOGENEITY_LAMBDAS = (0.5, 2.0, 10.0)

TOLERANCES = {
    "default": {
        "homogeneity": 1e-8,
        "positivity-failures": 0.0,
        "convexity-failures": 0.0,
        "jet-consistency": 1e-10,
        "transport-norm-drift": 1e-8,
        "transport-homogeneity": 1e-8,
        "holonomy-indicatrix-drift": 1e-8,
        "holonomy-rotation-oracle": 1e-6,
        "parallelogram-first-derivative": 1e-6,
        "parallelogram-second-vs-curvature": 1e-4,
        "curvature-tangency": 1e-8,
        "curvature-antisymmetry": 1e-10,
        "chain-monotone": 0.0,
        "grouplab-contact": 0.0,
        "grouplab-direction": 1e-9,
        "grouplab-diagonal": 1e-8,
        "grouplab-monotone": 0.0,
        "grouplab-ratio": 0.2,
        "weak-direction": 1e-5,
    },
    "strict": {
        "homogeneity": 1e-9,
        "positivity-failures": 0.0,
        "convexity-failures": 0.0,
        "jet-consistency": 1e-11,
        "transport-norm-drift": 1e-9,
        "transport-homogeneity": 1e-9,
        "holonomy-indicatrix-drift": 1e-9,
        "holonomy-rotation-oracle": 1e-7,
        "parallelogram-first-derivative": 1e-7,
        "parallelogram-second-vs-curvature": 1e-5,
        "curvature-tangency": 1e-10,
        "curvature-antisymmetry": 1e-11,
        "chain-monotone": 0.0,
        "grouplab-contact": 0.0,
        "grouplab-direction": 1e-10,
        "grouplab-diagonal": 1e-9,
        "grouplab-monotone": 0.0,
        "grouplab-ratio": 0.1,
        "weak-direction": 5e-6,
    },
}

_TASK_ERRORS = (ValueError, RuntimeError, ArithmeticError, NotImplementedError)


class ConfigError(ValueError):
    """Configuration problems; each arg line names a field or file."""


def load_schema(name: str) -> dict:
    text = resources.files("holonomylab").joinpath(f"schemas/{name}").read_text("utf-8")
    return json.loads(text)


def _py(obj):
    """Recursively convert numpy scalars and arrays for JSON emission; NaN and
    infinities become None."""
    if isinstance(obj, dict):
        return {str(k): _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _py(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _check(name: str, value, tol) -> dict:
    value, tol = float(value), float(tol)
    passed = math.isfinite(value) and value <= tol
    value = value if math.isfinite(value) else None
    return {"name": name, "value": value, "tolerance": tol, "passed": passed}


def _non_finite(name: str):
    raise ConfigError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ConfigError(f"{text} is out of float range")
    return value


def validate_config(config) -> list:
    """Field-level diagnostics for a parsed config; empty when valid.

    Validation always runs against the normalized {tasks: [...]} branch of
    the published schema so the error paths point at concrete fields
    instead of a one-of mismatch at the root.
    """
    schema = load_schema("config.schema.json")
    branch = dict(schema["oneOf"][1])
    branch["$defs"] = schema["$defs"]
    single = not (isinstance(config, dict) and "tasks" in config)
    instance = {"tasks": [config]} if single else config
    validator = jsonschema.Draft202012Validator(branch)
    out = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: (list(map(str, e.absolute_path)), e.message)):
        path = list(err.absolute_path)
        if single and len(path) >= 2 and path[0] == "tasks":
            path = path[2:]
        where = "/".join(str(p) for p in path) or "(root)"
        out.append(f"{where}: {err.message}")
    return out


def normalize_config(config) -> dict:
    if isinstance(config, dict) and "tasks" in config:
        return config
    return {"tasks": [config]}


def resolve_metric(spec) -> FinslerNorm:
    if isinstance(spec, str):
        try:
            return catalog_norm(spec)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    try:
        return FinslerNorm.from_expression(
            spec["norm"], spec["lo"], spec["hi"], name=spec.get("name", "expression")
        )
    except ValueError as exc:
        raise ConfigError(f"metric expression: {exc}") from None


def _task_rng(global_seed: int, index: int, task: dict) -> np.random.Generator:
    if "seed" in task:
        ss = np.random.SeedSequence(int(task["seed"]))
    else:
        ss = np.random.SeedSequence(int(global_seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- command handlers -----------------------------------------------------------
# each returns (results: dict, measured: {check name: value}, tables: {name:
# (header, rows)}); the checks keep the order of `measured`


def _run_metric_check(task, norm, rng):
    report = norm_diagnostics(norm, samples=task.get("samples", 40), seed=_int_seed(rng))
    measured = {
        "homogeneity": report.homogeneity_residual,
        "positivity-failures": report.positivity_failures,
        "convexity-failures": report.convexity_failures,
        "jet-consistency": report.jet_consistency,
    }
    return asdict(report), measured, {}


def _run_transport(task, norm, rng):
    count = task.get("curves", 20)
    draw = norm.manifold.interior_sampler(rng)
    lambdas = np.array(HOMOGENEITY_LAMBDAS)
    ends, curves, batches = [], [], []
    for _ in range(count):
        a, b = draw(), draw()
        ends.append(b)
        curves.append(CurveSpec.line_segment(a, b))
        y0 = norm.normalize(a, rng.normal(size=norm.dim))
        batches.append(np.concatenate([y0[:, None], y0[:, None] * lambdas[None, :]], axis=1))
    rows = []
    worst_drift = 0.0
    worst_hom = 0.0
    for index, (b, result) in enumerate(zip(ends, parallel_transports(norm, curves, batches))):
        f_end = norm.value(b, result.y_end)
        drift = float(np.max(np.abs(f_end[0] - 1.0)))
        base = result.y_end[:, 0]
        hom = float(
            np.max(
                np.linalg.norm(result.y_end[:, 1:] - base[:, None] * lambdas[None, :], axis=0)
                / (lambdas * np.linalg.norm(base))
            )
        )
        worst_drift = max(worst_drift, drift)
        worst_hom = max(worst_hom, hom)
        rows.append([index, drift, hom])
    results = {
        "curves": count,
        "max_norm_drift": worst_drift,
        "max_homogeneity_defect": worst_hom,
        "lambdas": list(HOMOGENEITY_LAMBDAS),
    }
    measured = {"transport-norm-drift": worst_drift, "transport-homogeneity": worst_hom}
    tables = {"transport_diagnostics": (["curve", "norm_drift", "homogeneity_defect"], rows)}
    return results, measured, tables


def _build_loop(spec) -> LoopSpec:
    if "rect" in spec:
        a, b = spec["rect"]
        return LoopSpec.rectangle(a, b)
    return CurveSpec.from_expressions(spec["expressions"]).as_loop()


def _run_holonomy(task, norm, rng):
    loop = _build_loop(task["loop"])
    p = loop.start
    count = task.get("samples", 8)
    samples = indicatrix_samples(norm, p, count)
    out = holonomy_map(norm, loop, samples)
    drift = float(np.max(np.abs(norm.value(p, out) - 1.0)))
    displacement = float(np.max(np.linalg.norm(out - samples, axis=0)))
    results = {
        "base_point": list(p),
        "samples": count,
        "indicatrix_drift": drift,
        "max_displacement": displacement,
    }
    measured = {"holonomy-indicatrix-drift": drift}
    rows = [[i, float(np.linalg.norm(out[:, i] - samples[:, i]))] for i in range(count)]
    header = ["sample", "displacement"]
    if task["metric"] == "sphere" and "rect" in task["loop"]:
        # on the sphere chart the transported frame rotates by the enclosed
        # area (Gauss-Bonnet); the angle is read in the orthonormal frame
        sin_t = np.sin(p[0])
        before = np.arctan2(samples[1] * sin_t, samples[0])
        after = np.arctan2(out[1] * sin_t, out[0])
        shifts = np.unwrap(after - before)
        rotation = float(np.mean(shifts))
        (t1, p1), (t2, p2) = task["loop"]["rect"]
        oracle = (p2 - p1) * (np.cos(t1) - np.cos(t2))
        results["rotation"] = rotation
        results["rotation_oracle"] = float(oracle)
        results["rotation_spread"] = float(np.max(np.abs(shifts - rotation)))
        measured["holonomy-rotation-oracle"] = abs(rotation - oracle)
        rows = [[i, float(shifts[i])] for i in range(count)]
        header = ["sample", "angle_shift"]
    return results, measured, {"holonomy_samples": (header, rows)}


def _run_parallelogram(task, norm, rng):
    p = np.asarray(task["point"], dtype=float)
    n = norm.dim
    xv = np.asarray(task.get("x", np.eye(n)[0]), dtype=float)
    yv = np.asarray(task.get("y", np.eye(n)[1 % n]), dtype=float)
    X = constant_base_field(norm.manifold, xv, "X")
    Y = constant_base_field(norm.manifold, yv, "Y")
    if "vector" in task:
        v = norm.normalize(p, np.asarray(task["vector"], dtype=float))
    else:
        v = indicatrix_samples(norm, p, 1, offset=0.3)[:, 0]
    xi = curvature_field(norm, X, Y, p).values(v)
    target = 2.0 * xi

    firsts, seconds = ParallelogramTransporter(norm, X, Y, p).difference_quotients(v)
    rows = [
        [h, float(np.linalg.norm(first)), float(np.linalg.norm(second - target))]
        for h, first, second in zip(H_SCHEDULE, firsts, seconds)
    ]
    d1, e1 = richardson_extrapolate(firsts, H_SCHEDULE)
    d2, e2 = richardson_extrapolate(seconds, H_SCHEDULE)

    scale = max(float(np.linalg.norm(target)), 1.0)
    first_rel = float(np.linalg.norm(d1)) / scale
    second_rel = float(np.linalg.norm(d2 - target)) / scale
    results = {
        "point": list(p),
        "vector": list(v),
        "first_derivative": list(d1),
        "second_derivative": list(d2),
        "curvature_doubled": list(target),
        "extrapolation_errors": [float(e1), float(e2)],
    }
    measured = {
        "parallelogram-first-derivative": first_rel,
        "parallelogram-second-vs-curvature": second_rel,
    }
    tables = {
        "derivative_vs_step": (["step", "first_norm", "second_residual"], rows)
    }
    return results, measured, tables


def _run_curvature(task, norm, rng):
    p = np.asarray(task["point"], dtype=float)
    count = task.get("samples", 12)
    samples = indicatrix_samples(norm, p, count)
    frame = coordinate_fields(norm.manifold)
    n = norm.dim
    fields = ihol_generators(norm, p, frame, depth=0)
    tangency = max([0.0] + [field.tangency_residual(samples) for field in fields])
    degenerate = curvature_field(norm, frame[0], frame[0], p)
    antisym = float(np.max(np.abs(degenerate.values(samples))))
    values = fields[0].values(samples)
    results = {
        "point": list(p),
        "fields": [f.label for f in fields],
        "tangency_residual": float(tangency),
        "antisymmetry_defect": antisym,
        "max_component": float(np.max(np.abs(values))),
    }
    measured = {"curvature-tangency": tangency, "curvature-antisymmetry": antisym}
    rows = [
        [i] + [float(samples[d, i]) for d in range(n)] + [float(values[d, i]) for d in range(n)]
        for i in range(count)
    ]
    header = ["sample"] + [f"y{d}" for d in range(n)] + [f"xi{d}" for d in range(n)]
    return results, measured, {"curvature_components": (header, rows)}


def _singular_value_rows(report):
    return [[i, s] for i, s in enumerate(report.singular_values)]


def _run_closure(task, norm, rng):
    fields = []
    for i, f in enumerate(task["fields"]):
        try:
            field = ExpressionField(f["variables"], f["components"], f.get("name", f"f{i}"))
        except ValueError as exc:
            raise ConfigError(f"fields/{i}: {exc}") from None
        if fields and field.dim != fields[0].dim:
            raise ConfigError(f"fields/{i}: {field.dim} variables, fields/0 has {fields[0].dim}")
        fields.append(field)
    tau = task.get("tau", DEFAULT_TAU)
    span, trace = lie_closure(fields, depth=task.get("depth", 3), tau=tau)
    report = numerical_rank(span, span.points, tau)
    results = {
        "rank_report": {"kind": "rank-report", **asdict(report)},
        "trace": {"kind": "closure-trace", **asdict(trace)},
        "labels": span.labels(),
    }
    tables = {"singular_values": (["index", "singular_value"], _singular_value_rows(report))}
    return results, {}, tables


def _run_chain(task, norm, rng):
    report = inclusion_chain_report(
        norm,
        np.asarray(task["point"], dtype=float),
        depth=task.get("depth", 2),
        tau=task.get("tau", DEFAULT_TAU),
        num_points=task.get("samples", 50),
    )
    gap = float(report.curvature.rank - report.ihol.rank)
    measured = {"chain-monotone": gap}
    tables = {
        "curvature_singular_values": (
            ["index", "singular_value"],
            _singular_value_rows(report.curvature),
        ),
        "ihol_singular_values": (
            ["index", "singular_value"],
            _singular_value_rows(report.ihol),
        ),
    }
    results = {
        "kind": "chain-report",
        "norm": report.norm_name,
        "base_point": report.base_point,
        "depth": report.depth,
        "ranks": {"curvature": report.curvature.rank, "ihol": report.ihol.rank},
        "ambient_bound": report.ambient_bound,
        "holonomy": report.hol_note,
        "curvature_report": {"kind": "rank-report", **asdict(report.curvature)},
        "ihol_report": {"kind": "rank-report", **asdict(report.ihol)},
        "curvature_trace": {"kind": "closure-trace", **asdict(report.curvature_trace)},
        "ihol_trace": {"kind": "closure-trace", **asdict(report.ihol_trace)},
    }
    return results, measured, tables


def _direction_matrix(task, key, rng, size=None):
    """The task's matrix `key`, or a random one of 2-norm at most 1; `size`,
    when given, is the side the matrix must have (a drawn one defaults to 2)."""
    if key in task:
        try:
            M = np.asarray(task[key], dtype=float)
        except ValueError:
            raise ConfigError(f"{key}: ragged matrix") from None
        if M.ndim != 2 or M.shape[0] != M.shape[1] or size not in (None, M.shape[0]):
            want = "a square matrix" if size is None else f"a {size}x{size} matrix"
            raise ConfigError(f"{key}: {want} required, got shape {M.shape}")
        return M
    size = size or 2
    M = rng.standard_normal((size, size))
    s = float(np.linalg.norm(M, 2))
    return M / s if s > 1.0 else M


def _rel_defect(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1.0)


def _run_grouplab(task, norm, rng):
    op = task["op"]
    k = task.get("k", 1)
    l = task.get("l", 1)
    A = _direction_matrix(task, "x", rng)
    B = _direction_matrix(task, "y", rng, size=A.shape[0])
    phi = MatrixCurve.exponential(A, power=k)
    psi = MatrixCurve.exponential(B, power=l)
    X = phi.derivative(k)
    Y = psi.derivative(l)

    if op == "contact":
        record = order_of_contact(phi, max_order=task.get("max_order", 6))
        defect = 0.0 if record.order == k else 1.0
        return asdict(record), {"grouplab-contact": defect}, {}

    if op == "commutator":
        family = CommutatorFamily(phi, psi)
        mixed = family.mixed_derivative()
        expected = Y @ X - X @ Y
        record = order_of_contact(family.diagonal(), k + l + 1)
        factor = diagonal_bracket_factor(k, l)
        results = {
            "mixed_derivative": mixed.tolist(),
            "expected_bracket": expected.tolist(),
            "diagonal_order": record.order,
            "diagonal_factor": factor,
        }
        measured = {"grouplab-direction": _rel_defect(mixed, expected)}
        if record.order is not None:
            measured["grouplab-diagonal"] = _rel_defect(record.direction, factor * mixed)
        return results, measured, {}

    if op == "sum":
        combined = sum_curve(phi, psi, constants=task.get("constants", "exact"))
        direction = combined.derivative(combined.order)
        # the claim is checked as stated: the combined direction is X + Y;
        # the alternate constants miss it for k != l, and a run configured
        # with them documents that as a failing check
        results = {
            "order": combined.order,
            "direction": direction.tolist(),
            "expected": (X + Y).tolist(),
            "constants": task.get("constants", "exact"),
        }
        return results, {"grouplab-direction": _rel_defect(direction, X + Y)}, {}

    if op == "scale":
        lam = task.get("lambda", -2.0)
        scaled = scale_curve(phi, lam)
        direction = scaled.derivative(k)
        results = {"lambda": lam, "direction": direction.tolist(), "expected": (lam * X).tolist()}
        return results, {"grouplab-direction": _rel_defect(direction, lam * X)}, {}

    if op == "exp-iterate":
        M = _direction_matrix(task, "m", rng, size=A.shape[0])
        psi1 = MatrixCurve.polynomial(A.shape[0], {1: A, 2: M})
        t = task.get("t", 1.0)
        series = task.get("n_series", [8, 16, 32, 64, 128, 256])
        errors = [exp_iterate(psi1, t, n).distance for n in series]
        rows = [[n, e] for n, e in zip(series, errors)]
        monotone = max(
            (errors[i + 1] - errors[i] for i in range(len(errors) - 1)), default=0.0
        )
        ratio_defect = 0.0
        for i in range(len(series) - 1):
            if series[i] >= 64 and series[i + 1] == 2 * series[i] and errors[i + 1] > 0.0:
                ratio_defect = max(ratio_defect, abs(errors[i] / errors[i + 1] - 2.0))
        results = {"t": t, "n_series": list(series), "errors": errors}
        measured = {"grouplab-monotone": monotone, "grouplab-ratio": ratio_defect}
        return results, measured, {"convergence": (["n", "error"], rows)}

    if op == "weak-tangency":
        reading = task.get("reading", "exact")
        sigma = weak_tangency_reparam(phi, reading=reading)
        derivative, residual = one_sided_derivative(sigma, k)
        scale = 1.0 if reading == "exact" else float(math.factorial(k)) ** (k - 1)
        expected = scale * X
        results = {
            "reading": reading,
            "derivative": derivative.tolist(),
            "expected": expected.tolist(),
            "extrapolation_residual": float(residual),
        }
        return results, {"weak-direction": _rel_defect(derivative, expected)}, {}

    raise ConfigError(f"op: unknown grouplab operation {op!r}")


_HANDLERS = {
    "metric-check": _run_metric_check,
    "transport": _run_transport,
    "holonomy": _run_holonomy,
    "parallelogram": _run_parallelogram,
    "curvature": _run_curvature,
    "closure": _run_closure,
    "chain": _run_chain,
    "grouplab": _run_grouplab,
}

_NEEDS_METRIC = {"metric-check", "transport", "holonomy", "parallelogram", "curvature", "chain"}


class _Report(dict):
    """The report; `meta` holds per-task telemetry for report.meta.json only."""

    meta: dict


def run_config(config: dict, seed: int, profile: str):
    """Execute every task; returns (report dict, per-task CSV tables).

    Tasks are independent and run sequentially in config order so the
    report assembly stays deterministic.  Every task's metric is resolved
    before any task runs, so a bad one runs nothing.  A metric or a value a
    task cannot use raises ConfigError naming tasks/<index>/<field>.
    """
    normalized = normalize_config(config)
    tol = TOLERANCES[profile]
    norms = [None] * len(normalized["tasks"])
    for index, task in enumerate(normalized["tasks"]):
        if task["command"] in _NEEDS_METRIC:
            try:
                norms[index] = resolve_metric(task["metric"])
            except ConfigError as exc:
                raise ConfigError(f"tasks/{index}/metric: {exc}") from None
    tasks_out = []
    tables_out = []
    tasks_meta = []
    failures = []
    for index, (task, norm) in enumerate(zip(normalized["tasks"], norms)):
        label = task.get("label", f"task{index}-{task['command']}")
        start = time.perf_counter()
        rng = _task_rng(seed, index, task)
        entry = {"label": label, "command": task["command"]}
        with tally() as counts:
            try:
                results, measured, tables = _HANDLERS[task["command"]](task, norm, rng)
            except ConfigError as exc:
                raise ConfigError(f"tasks/{index}/{exc}") from None
            except _TASK_ERRORS as exc:
                # a failed task is measured as nothing: no checks, one failure line
                results, measured, tables = {}, {}, {}
                entry["error"] = f"{type(exc).__name__}: {exc}"
                failures.append(f"{label}: {type(exc).__name__}")
        wall_s = time.perf_counter() - start
        tasks_meta.append({"label": label, "command": task["command"], "wall_s": wall_s, **counts})
        checks = [_check(name, value, tol[name]) for name, value in measured.items()]
        passed = "error" not in entry and all(c["passed"] for c in checks)
        failures.extend(f"{label}: {c['name']}" for c in checks if not c["passed"])
        entry.update(results=_py(results), checks=checks, passed=passed)
        tasks_out.append(entry)
        tables_out.append(tables)
    report = _Report({
        "config": config,
        "provenance": {
            "package": "holonomylab",
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "seed": int(seed),
            "tolerance_profile": profile,
        },
        "tasks": tasks_out,
        "summary": {
            "passed": not failures,
            "num_tasks": len(tasks_out),
            "num_checks": sum(len(entry["checks"]) for entry in tasks_out),
            "failures": failures,
        },
    })
    report.meta = {"tasks": tasks_meta}
    jsonschema.Draft202012Validator(load_schema("report.schema.json")).validate(report)
    return report, tables_out


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in label)


def emit(report: dict, tables, out_dir, formats) -> list:
    """Write report.json, its report.meta.json sidecar and the CSV tables.

    The sidecar holds the creation timestamp and, for a report made by
    `run_config`, each task's wall time and telemetry counts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / "report.json"
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        path.write_text(text + "\n", encoding="utf-8")
        written.append(path)
        meta = {"created": datetime.now(timezone.utc).isoformat(), **getattr(report, "meta", {})}
        meta_path = out / "report.meta.json"
        meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        written.append(meta_path)
    if "csv" in formats:
        for index, (entry, task_tables) in enumerate(zip(report["tasks"], tables)):
            base = f"{index:02d}-{_safe_name(entry['label'])}"
            for name, (header, rows) in sorted(task_tables.items()):
                path = out / f"{base}.{name}.csv"
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh, lineterminator="\r\n")
                    writer.writerow(header)
                    writer.writerows(rows)
                written.append(path)
    return written


def _parse_formats(text: str) -> list:
    formats = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [f for f in formats if f not in ("json", "csv")]
    if unknown or not formats:
        raise ConfigError(f"--format must name json and/or csv, got {text!r}")
    return formats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonomylab",
        description="Run holonomy-laboratory experiment configs.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default ${OUT_ENV_VAR} or ./{DEFAULT_OUT})",
    )
    parser.add_argument("--format", default="json", help="comma list of json,csv")
    parser.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    parser.add_argument(
        "--tolerance-profile",
        choices=("default", "strict"),
        default=None,
        help="which tolerance table gates the checks",
    )
    return parser


def _read_config(path: str):
    """The schema-valid config in the UTF-8 JSON file `path`; raises
    ConfigError when the file cannot be read, parsed or validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from None
    try:
        config = json.loads(text, parse_constant=_non_finite, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ConfigError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("invalid JSON: nesting too deep to parse") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"invalid JSON: {exc}") from None
    try:
        problems = validate_config(config)
    except RecursionError:
        raise ConfigError("schema validation failed: nesting too deep to validate") from None
    if problems:
        raise ConfigError("\n  ".join(["schema validation failed", *problems]))
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        config = _read_config(args.config)
        formats = _parse_formats(args.format)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        normalized = normalize_config(config)
        seed = args.seed if args.seed is not None else normalized.get("seed", 0)
        profile = args.tolerance_profile or normalized.get("tolerance_profile", "default")
        report, tables = run_config(config, seed, profile)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT
    try:
        written = emit(report, tables, out_dir, formats)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO

    status = "passed" if report["summary"]["passed"] else "FAILED"
    print(f"{status}: {report['summary']['num_checks']} checks over {report['summary']['num_tasks']} tasks")
    for path in written:
        print(f"  wrote {path}")
    if not report["summary"]["passed"]:
        for line in report["summary"]["failures"]:
            print(f"  failed: {line}")
        return EXIT_NUMERIC
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
