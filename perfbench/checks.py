"""Checks of holonomylab CLI output against computations made here.

Every reference value is computed with numpy/scipy from the task's own
inputs: closed forms (Gauss-Bonnet areas, constant flag curvature), known
algebra dimensions, matrix identities and `scipy.linalg.expm`.  Nothing is
compared with a stored copy of earlier output.  `check_output` returns a list
of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
from scipy.linalg import expm

# constant flag curvature of the catalog metrics that have one
FLAG_CURVATURE = {"sphere": 1.0, "funk_disk": -0.25}
# known chain ranks (curvature, ihol) of the catalog metrics with a closed answer
CHAIN_RANKS = {"sphere": (1, 1), "euclidean": (0, 0)}
# closure dimension by generated field-name prefix (see workloads.py)
CLOSURE_DIMENSION = {"so3": 3, "heis": 3, "sine": 3}
FLAT = ("euclidean", "flat_torus")


# -- closed-form geometry --------------------------------------------------------


def norm_value(metric: str, x, y) -> np.ndarray:
    """F(x, y) for the catalog metrics; y may be (2,) or (2, B)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if metric == "sphere":
        return np.sqrt(y[0] ** 2 + np.sin(x[0]) ** 2 * y[1] ** 2)
    if metric == "funk_disk":
        ip = x @ y
        q = 1.0 - x @ x
        return (np.sqrt(q * np.sum(y * y, axis=0) + ip * ip) + ip) / q
    if metric in FLAT:
        return np.sqrt(np.sum(y * y, axis=0))
    raise KeyError(metric)


def norm_gradient(metric: str, x, y) -> np.ndarray:
    """dF/dy at (x, y), same shape as y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if metric == "sphere":
        s2 = np.sin(x[0]) ** 2
        return np.stack([y[0], s2 * y[1]]) / norm_value(metric, x, y)
    if metric == "funk_disk":
        ip = x @ y
        q = 1.0 - x @ x
        root = np.sqrt(q * np.sum(y * y, axis=0) + ip * ip)
        xb = x if y.ndim == 1 else x[:, None]
        return ((q * y + ip * xb) / root + xb) / q
    raise KeyError(metric)


def curvature_closed_form(metric: str, x, y, X, Y) -> np.ndarray:
    """xi = K F (F_y(X) Y - F_y(Y) X) for constant flag curvature K."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    F = norm_value(metric, x, y)
    g = norm_gradient(metric, x, y)
    fx = np.tensordot(X, g, axes=(0, 0))
    fy = np.tensordot(Y, g, axes=(0, 0))
    if y.ndim == 2:
        return FLAG_CURVATURE[metric] * F * (fx * Y[:, None] - fy * X[:, None])
    return FLAG_CURVATURE[metric] * F * (fx * Y - fy * X)


def sphere_rotation(rect) -> float:
    """Holonomy angle of a (theta, phi) rectangle on the unit sphere: its area."""
    (t1, p1), (t2, p2) = rect
    return (p2 - p1) * (math.cos(t1) - math.cos(t2))


def rank_from_singular_values(values, tau: float) -> int:
    s = np.asarray(values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tau * s[0]))


# -- matrices the CLI draws when a grouplab task names none ---------------------


def task_rng(seed: int, index: int, task: dict) -> np.random.Generator:
    """The CLI's per-task generator: the task's own seed, else (seed, index)."""
    if "seed" in task:
        return np.random.default_rng(np.random.SeedSequence(int(task["seed"])))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(index),)))


def _direction(task: dict, key: str, rng, size: int) -> np.ndarray:
    if key in task:
        return np.asarray(task[key], dtype=float)
    m = rng.standard_normal((size, size))
    s = float(np.linalg.norm(m, 2))
    return m / s if s > 1.0 else m


def grouplab_matrices(task: dict, seed: int, index: int):
    rng = task_rng(seed, index, task)
    A = _direction(task, "x", rng, 2)
    B = _direction(task, "y", rng, A.shape[0])
    M = _direction(task, "m", rng, A.shape[0]) if task["op"] == "exp-iterate" else None
    return A, B, M


def exp_iterate_errors(A, M, t: float, series) -> list:
    """max |(I + hA + h^2 M)^n - expm(tA)| with h = t/n, for each n."""
    eye = np.eye(A.shape[0])
    ref = expm(t * A)
    out = []
    for n in series:
        h = t / n
        out.append(float(np.max(np.abs(np.linalg.matrix_power(eye + h * A + h * h * M, n) - ref))))
    return out


# -- per-command checks -----------------------------------------------------------


def _close(got, want, rtol: float) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and float(np.max(np.abs(got - want), initial=0.0)) <= rtol * max(
        float(np.max(np.abs(want), initial=0.0)), 1.0
    )


def _metric_name(task: dict):
    metric = task.get("metric")
    return metric if isinstance(metric, str) else None


def check_holonomy(task, res, tables, seed, index):
    problems = []
    metric = _metric_name(task)
    if metric == "sphere" and "rect" in task["loop"]:
        want = sphere_rotation(task["loop"]["rect"])
        if abs(res["rotation"] - want) > 1e-6:
            problems.append(f"rotation {res['rotation']!r} vs enclosed area {want!r}")
    if metric in FLAT:
        rows = tables.get("holonomy_samples", [])
        shifts = [float(r["displacement"]) for r in rows]
        if len(rows) != task.get("samples", 8) or max(shifts + [res["max_displacement"]]) > 1e-12:
            problems.append(f"flat holonomy moved samples by {res['max_displacement']!r}")
    return problems


def check_parallelogram(task, res, tables, seed, index):
    metric = _metric_name(task)
    if metric not in FLAG_CURVATURE:
        return []
    p, v = res["point"], res["vector"]
    X = task.get("x", [1.0, 0.0])
    Y = task.get("y", [0.0, 1.0])
    problems = []
    if abs(float(norm_value(metric, p, v)) - 1.0) > 1e-10:
        problems.append("parallelogram vector is off the indicatrix")
    want = 2.0 * curvature_closed_form(metric, p, v, X, Y)
    if not _close(res["curvature_doubled"], want, 1e-8):
        problems.append(f"curvature_doubled {res['curvature_doubled']} vs closed form {want.tolist()}")
    if not _close(res["second_derivative"], want, 1e-4):
        problems.append(f"second_derivative {res['second_derivative']} vs closed form {want.tolist()}")
    return problems


def check_curvature(task, res, tables, seed, index):
    metric = _metric_name(task)
    if metric not in FLAG_CURVATURE:
        return []
    rows = tables.get("curvature_components", [])
    if len(rows) != task.get("samples", 12):
        return [f"curvature table has {len(rows)} rows"]
    ys = np.array([[float(r["y0"]), float(r["y1"])] for r in rows]).T
    xi = np.array([[float(r["xi0"]), float(r["xi1"])] for r in rows]).T
    p = task["point"]
    want = curvature_closed_form(metric, p, ys, [1.0, 0.0], [0.0, 1.0])
    problems = []
    if float(np.max(np.abs(norm_value(metric, p, ys) - 1.0))) > 1e-10:
        problems.append("curvature samples are off the indicatrix")
    if not _close(xi, want, 1e-8):
        problems.append(f"curvature components differ from closed form by {float(np.max(np.abs(xi - want)))!r}")
    return problems


def _rank_report_problems(name, report, table_rows):
    problems = []
    recount = rank_from_singular_values(report["singular_values"], report["tau"])
    if recount != report["rank"]:
        problems.append(f"{name} rank {report['rank']} but {recount} singular values exceed tau*s0")
    if table_rows is not None:
        col = [float(r["singular_value"]) for r in table_rows]
        if col != [float(s) for s in report["singular_values"]]:
            problems.append(f"{name} singular-value table differs from the report")
    return problems


def check_chain(task, res, tables, seed, index):
    metric = _metric_name(task)
    cur, ihol = res["ranks"]["curvature"], res["ranks"]["ihol"]
    problems = _rank_report_problems(
        "curvature", res["curvature_report"], tables.get("curvature_singular_values")
    ) + _rank_report_problems("ihol", res["ihol_report"], tables.get("ihol_singular_values"))
    if (res["curvature_report"]["rank"], res["ihol_report"]["rank"]) != (cur, ihol):
        problems.append("chain ranks disagree with their rank reports")
    if metric in CHAIN_RANKS and (cur, ihol) != CHAIN_RANKS[metric]:
        problems.append(f"{metric} chain ranks {(cur, ihol)}, expected {CHAIN_RANKS[metric]}")
    if metric == "funk_disk" and not (cur == 1 and 1 <= ihol <= res["ambient_bound"]):
        problems.append(f"funk_disk chain ranks {(cur, ihol)} outside 1 = curvature <= ihol <= bound")
    return problems


def check_closure(task, res, tables, seed, index):
    report = res["rank_report"]
    problems = _rank_report_problems("closure", report, tables.get("singular_values"))
    kinds = {f.get("name", "").split("_")[0] for f in task["fields"]}
    if len(kinds) == 1 and (kind := kinds.pop()) in CLOSURE_DIMENSION:
        if report["rank"] != CLOSURE_DIMENSION[kind]:
            problems.append(f"{kind} closure rank {report['rank']}, expected {CLOSURE_DIMENSION[kind]}")
    return problems


def check_grouplab(task, res, tables, seed, index):
    op = task["op"]
    k, l = task.get("k", 1), task.get("l", 1)
    A, B, M = grouplab_matrices(task, seed, index)
    X = math.factorial(k) * A
    Y = math.factorial(l) * B
    if op == "contact":
        ok = res["order"] == k and _close(res["direction"], X, 1e-9)
        return [] if ok else [f"contact order {res['order']} / direction differ from k={k}, k!X"]
    if op == "commutator":
        return [] if _close(res["mixed_derivative"], Y @ X - X @ Y, 1e-9) else ["mixed derivative is not YX - XY"]
    if op == "sum":
        return [] if _close(res["direction"], X + Y, 1e-9) else ["sum direction is not X + Y"]
    if op == "scale":
        lam = task.get("lambda", -2.0)
        return [] if _close(res["direction"], lam * X, 1e-9) else ["scale direction is not lambda X"]
    if op == "weak-tangency":
        return [] if _close(res["derivative"], X, 1e-5) else ["weak tangent is not X"]
    if op == "exp-iterate":
        series = task.get("n_series", [8, 16, 32, 64, 128, 256])
        want = exp_iterate_errors(A, M, float(task.get("t", 1.0)), series)
        got = res["errors"]
        problems = []
        if len(got) != len(want) or not np.allclose(got, want, rtol=1e-6, atol=1e-15):
            problems.append(f"exp-iterate errors {got} vs expm {want}")
        if any(b >= a for a, b in zip(got, got[1:])):
            problems.append("exp-iterate errors do not fall monotonically")
        for n, a, b in zip(series, got, got[1:]):
            if n >= 64 and abs(a / b - 2.0) > 0.2:
                problems.append(f"exp-iterate error ratio {a / b:.4f} at n={n} is not first order")
        rows = tables.get("convergence", [])
        if [float(r["error"]) for r in rows] != [float(e) for e in got]:
            problems.append("convergence table differs from the report")
        return problems
    return []


def check_metric(task, res, tables, seed, index):
    problems = []
    if res["positivity_failures"] or res["convexity_failures"]:
        problems.append("norm diagnostics report failures")
    if not 0.0 < res["min_eigenvalue"] < math.inf:
        problems.append(f"min_eigenvalue {res['min_eigenvalue']!r} is not positive and finite")
    metric = task["metric"]
    if isinstance(metric, dict) and metric.get("name") == "warped":
        # F^2 = y1^2 + (lam + x1^2) y2^2, so g = diag(1, lam + x1^2) with lam >= 1
        lam = float(re.search(r"\(([^()]+) \+ x1\^2\)", metric["norm"]).group(1))
        bound = lam + max(abs(metric["lo"][0]), abs(metric["hi"][0])) ** 2
        if abs(res["min_eigenvalue"] - 1.0) > 1e-9 or not lam - 1e-9 <= res["max_condition"] <= bound + 1e-9:
            problems.append(
                f"warped metric eigenvalues ({res['min_eigenvalue']!r}, cond {res['max_condition']!r}) "
                f"outside [1, {lam}..{bound}]"
            )
    return problems


def check_transport(task, res, tables, seed, index):
    rows = tables.get("transport_diagnostics", [])
    count = task.get("curves", 20)
    if res["curves"] != count or len(rows) != count:
        return [f"transport covered {len(rows)} of {count} curves"]
    drift = max(float(r["norm_drift"]) for r in rows)
    if drift != res["max_norm_drift"] or drift > 1e-8:
        return [f"transport norm drift {drift!r}"]
    return []


CHECKS = {
    "holonomy": check_holonomy,
    "parallelogram": check_parallelogram,
    "curvature": check_curvature,
    "chain": check_chain,
    "closure": check_closure,
    "grouplab": check_grouplab,
    "metric-check": check_metric,
    "transport": check_transport,
}


# -- whole outputs -----------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _safe_name(label: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in label)


def read_tables(out_dir: Path, index: int, label: str) -> dict:
    """The task's CSV tables as {name: [row dicts]}."""
    tables = {}
    prefix = f"{index:02d}-{_safe_name(label)}."
    for path in sorted(out_dir.glob(f"{index:02d}-*.csv")):
        if path.name.startswith(prefix):
            with open(path, newline="", encoding="utf-8") as fh:
                tables[path.name[len(prefix):-4]] = list(csv.DictReader(fh))
    return tables


def check_report(report: dict, config: dict, seed: int, schema: dict, out_dir: Path) -> list:
    problems = [f"schema: {e.message}" for e in jsonschema.Draft202012Validator(schema).iter_errors(report)]
    if problems:
        return problems
    tasks = config["tasks"] if "tasks" in config else [config]
    if report["config"] != config:
        problems.append("report does not echo its config")
    if report["provenance"]["seed"] != seed:
        problems.append(f"report seed {report['provenance']['seed']} is not {seed}")
    summary = report["summary"]
    if not summary["passed"] or summary["failures"] or summary["num_tasks"] != len(tasks):
        problems.append(f"summary: passed={summary['passed']} failures={summary['failures']}")
    if len(report["tasks"]) != len(tasks):
        return problems + ["report task count differs from the config"]
    for index, (task, entry) in enumerate(zip(tasks, report["tasks"])):
        if entry["command"] != task["command"] or "error" in entry or not entry["passed"]:
            problems.append(f"task {index} ({entry['label']}): {entry.get('error', 'not passed')}")
            continue
        tables = read_tables(out_dir, index, entry["label"])
        for line in CHECKS[task["command"]](task, entry["results"], tables, seed, index):
            problems.append(f"task {index} ({entry['label']}): {line}")
    return problems


def check_output(out_dir: Path, config: dict, seed: int, schema: dict) -> tuple:
    """(problems, report bytes) for one CLI output directory."""
    path = Path(out_dir) / "report.json"
    try:
        raw = path.read_bytes()
        report = strict_json(raw.decode("utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report.json: {exc}"], b""
    return check_report(report, config, seed, schema, Path(out_dir)), raw
