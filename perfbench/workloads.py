"""Workload configs for the holonomylab CLI benchmark, generated from a seed.

Each workload is one CLI config.  The `demo` workload is the shipped
`demos/batch_config.json`, run with the benchmark seed as `--seed`; the
`transport` and `algebra` configs are drawn here from
`numpy.random.default_rng(seed)`.  Task counts, curve counts, matrix sizes and
contact orders are fixed per workload so that the work in a config barely
depends on the seed; the seed moves base points, corners, directions and
coefficients.  Every generated task carries its own `seed` key, so a task run
on its own (as the traced run does) draws exactly what it draws inside the
whole config.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("demo", "transport", "algebra")

# the charts the expression metrics below are declared on
EXPR_LO = [-1.0, -1.0]
EXPR_HI = [1.0, 1.0]

# The round sphere in polar coordinates on a cap of the catalog chart: the
# CLI draws segment end points uniformly in the chart, and on the whole
# catalog chart (phi over two turns) their length, and with it the cost of a
# segment, varies by a factor of twenty between seeds.
SPHERE_CAP = {
    "norm": "sqrt(y1^2 + sin(x1)^2*y2^2)",
    "lo": [0.9, -1.2],
    "hi": [2.2, 1.2],
    "name": "sphere-cap",
}

# scalar coordinate maps of the basis fields used by the closure tasks
SO3_BASIS = (
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
)


def demo_config(root: Path) -> dict:
    return json.loads((root / "demos" / "batch_config.json").read_text(encoding="utf-8"))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _mix(rng, size: int) -> np.ndarray:
    """An invertible mixing matrix with condition number at most 4."""
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    return q @ np.diag(rng.uniform(0.5, 2.0, size))


def _unit_matrix(rng, size: int) -> list:
    """A Gaussian matrix scaled to spectral norm 0.8."""
    m = rng.standard_normal((size, size))
    return (0.8 * m / np.linalg.norm(m, 2)).tolist()


def _linear(coeffs, names) -> str:
    return " + ".join(f"({float(c)!r})*{v}" for c, v in zip(coeffs, names))


def so3_fields(mix: np.ndarray) -> list:
    """Fields sum_j mix[i, j] L_j for the rotation fields L_j of R^3."""
    names = ("x", "y", "z")
    out = []
    for i in range(3):
        b = sum(mix[i, j] * SO3_BASIS[j] for j in range(3))
        comps = [_linear(b[c], names) for c in range(3)]
        out.append({"variables": list(names), "components": comps, "name": f"so3_{i}"})
    return out


def heisenberg_fields(mix: np.ndarray) -> list:
    """Fields a X + b Y + c Z for X = d/dx, Y = d/dy + x d/dz, Z = d/dz."""
    out = []
    for i in range(3):
        a, b, c = (float(v) for v in mix[i])
        comps = [repr(a), repr(b), f"({b!r})*x + ({c!r})"]
        out.append({"variables": ["x", "y", "z"], "components": comps, "name": f"heis_{i}"})
    return out


def sine_fields(mix: np.ndarray, w: float) -> list:
    """Mixes of d/dx and sin(w x) d/dy; their closure adds cos(w x) d/dy."""
    out = []
    for i in range(2):
        a, b = (float(v) for v in mix[i])
        comps = [repr(a), f"({b!r})*sin(({w!r})*x)"]
        out.append({"variables": ["x", "y"], "components": comps, "name": f"sine_{i}"})
    return out


def _sphere_rect(rng, theta: float) -> list:
    """A (theta, phi) rectangle of fixed size at a seeded phi.

    The sphere metric does not depend on phi, so moving a loop along phi
    leaves its cost unchanged; the seed moves nothing else.
    """
    p1 = rng.uniform(-1.0, 1.0)
    return [[theta, p1], [theta + 0.5, p1 + 0.8]]


def _planar_rect(rng, half: float, side: float) -> list:
    a = rng.uniform(-half, half - side, 2)
    return [a.tolist(), (a + side).tolist()]


def _vector(rng) -> list:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(ang), math.sin(ang)]


# A segment's cost grows with its length, which the CLI draws uniformly in the
# chart, so one segment's cost varies between seeds with a coefficient of
# variation of about 0.5.  Two curves per metric keep that share of the
# config small.
SEGMENT_CURVES = 2
WARPED = {
    "norm": "sqrt(y1^2 + (0.75 + x1^2)*y2^2)",
    "lo": [-0.5, -0.5],
    "hi": [0.5, 0.5],
    "name": "warped",
}


def transport_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    tasks = []
    for metric in (SPHERE_CAP, "funk_disk", WARPED):
        name = metric if isinstance(metric, str) else metric["name"]
        tasks.append(
            {"label": f"segments-{name}", "command": "transport", "metric": metric,
             "curves": SEGMENT_CURVES, "seed": _seed(rng)}
        )
    for i, theta in enumerate((0.9, 1.1, 1.3, 1.5)):
        tasks.append(
            {"label": f"loop-sphere-{i}", "command": "holonomy", "metric": "sphere",
             "loop": {"rect": _sphere_rect(rng, theta)}, "samples": 6, "seed": _seed(rng)}
        )
    for name, half, side in (("euclidean", 2.0, 1.0), ("flat_torus", 3.0, 2.0), ("funk_disk", 0.45, 0.3)):
        tasks.append(
            {"label": f"loop-{name}", "command": "holonomy", "metric": name,
             "loop": {"rect": _planar_rect(rng, half, side)}, "samples": 6, "seed": _seed(rng)}
        )
    tasks.append(  # fixed theta and a seeded phi, as in _sphere_rect
        {"label": "parallelogram-sphere", "command": "parallelogram", "metric": "sphere",
         "point": [1.2, rng.uniform(-1.0, 1.0)], "vector": _vector(rng), "seed": _seed(rng)}
    )
    r, ang = rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0 * math.pi)
    tasks.append(
        {"label": "parallelogram-funk_disk", "command": "parallelogram", "metric": "funk_disk",
         "point": [r * math.cos(ang), r * math.sin(ang)], "vector": _vector(rng), "seed": _seed(rng)}
    )
    return {"seed": int(seed), "tolerance_profile": "default", "tasks": tasks}


def algebra_config(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(2):
        tasks.append({"label": f"closure-so3-{i}", "command": "closure",
                      "fields": so3_fields(_mix(rng, 3)), "seed": _seed(rng)})
        tasks.append({"label": f"closure-heisenberg-{i}", "command": "closure",
                      "fields": heisenberg_fields(_mix(rng, 3)), "seed": _seed(rng)})
        tasks.append({"label": f"closure-sine-{i}", "command": "closure",
                      "fields": sine_fields(_mix(rng, 2), float(rng.uniform(0.8, 1.2))),
                      "seed": _seed(rng)})
    # contact orders and matrix sizes are fixed per slot; the seed draws matrices
    slots = (
        ("contact", 2, {"k": 2}),
        ("contact", 3, {"k": 3}),
        ("commutator", 2, {"k": 1, "l": 2}),
        ("commutator", 3, {"k": 1, "l": 1}),
        ("sum", 2, {"k": 1, "l": 2}),
        ("sum", 3, {"k": 2, "l": 2}),
        ("scale", 2, {"k": 2}),
        ("scale", 3, {"k": 1}),
        ("exp-iterate", 2, {}),
        ("exp-iterate", 3, {}),
        ("weak-tangency", 2, {"k": 2}),
        ("weak-tangency", 3, {"k": 2}),
    )
    for index, (op, size, extra) in enumerate(slots):
        task = {"label": f"grouplab-{op}-{index}", "command": "grouplab", "op": op,
                "x": _unit_matrix(rng, size), "y": _unit_matrix(rng, size), **extra}
        if op == "scale":
            task["lambda"] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        if op == "exp-iterate":
            task["m"] = _unit_matrix(rng, size)
        task["seed"] = _seed(rng)
        tasks.append(task)
    for i in range(2):
        lam = 1.0 + rng.uniform(0.0, 1.0)
        tasks.append({
            "label": f"metric-warped-{i}", "command": "metric-check", "samples": 20,
            "metric": {"norm": f"sqrt(y1^2 + ({lam!r} + x1^2)*y2^2)", "lo": EXPR_LO, "hi": EXPR_HI,
                       "name": "warped"},
            "seed": _seed(rng),
        })
    for metric in ("sphere", "funk_disk"):
        if metric == "sphere":
            point = [rng.uniform(0.8, 2.3), rng.uniform(-1.0, 1.0)]
        else:
            r, ang = rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0 * math.pi)
            point = [r * math.cos(ang), r * math.sin(ang)]
        tasks.append({"label": f"curvature-{metric}", "command": "curvature", "metric": metric,
                      "point": point, "samples": 12, "seed": _seed(rng)})
    for metric in ("sphere", "euclidean"):
        point = [rng.uniform(0.8, 2.3), rng.uniform(-1.0, 1.0)]
        tasks.append({"label": f"chain-{metric}", "command": "chain", "metric": metric,
                      "point": point, "depth": 1, "samples": 20, "seed": _seed(rng)})
    return {"seed": int(seed), "tolerance_profile": "default", "tasks": tasks}


def workload_config(name: str, seed: int, root: Path) -> dict:
    if name == "demo":
        return demo_config(root)
    if name == "transport":
        return transport_config(seed)
    if name == "algebra":
        return algebra_config(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
