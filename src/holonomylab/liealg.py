"""Lie brackets of evaluable vector fields and numerical span estimation.

A vector field here is anything with `.dim` and `.taylor(center, order)`
returning one jet of value shape (dim, *batch); centers may carry a trailing
batch axis, in which case all evaluation is columnwise.  Fields given by a
function of the coordinates are `jets.SmoothMap`s: the polynomial and
expression fields below, and the base fields of the curvature module, so a
base field brackets directly; indicatrix fields and brackets are the others.
Brackets are formed lazily: [X, Y]^i = X^j dY^i/dx^j - Y^j dX^i/dx^j consumes
one jet order from each parent, so a field of finite order capability
eventually exhausts and the bracket reports the order it would have needed.

Spans are measured numerically: fields are evaluated on a fixed list of
sample points, stacked into a matrix, and the rank is the number of singular
values above a relative tolerance.  The closure generator brackets fields
breadth first and admits a candidate only if it raises that rank, so the
result is a finite-dimensional lower bound of the generated algebra, never a
claim about its full size.  Each field is evaluated once: the closure admits
a candidate's row into the span it returns, so admission and report read one
matrix.  The inclusion chain report applies this to the
curvature fields and the covariant-derivative closure over one base point,
whose spans bound the holonomy algebra from below; the holonomy algebra
itself has no generating procedure here and is reported as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .curvature import ihol_generators
from .jets import Jet, JetOrderError, SmoothMap
from .expressions import parse_expression
from .finsler import indicatrix_samples

__all__ = [
    "PolynomialField",
    "ExpressionField",
    "BracketField",
    "field_values",
    "FieldSpan",
    "RankReport",
    "numerical_rank",
    "GenerationRecord",
    "ClosureTrace",
    "lie_closure",
    "ChainReport",
    "inclusion_chain_report",
    "DEFAULT_TAU",
]

DEFAULT_TAU = 1e-7


def field_label(f, index: int | None = None) -> str:
    lab = getattr(f, "label", None) or getattr(f, "name", None)
    if lab:
        return str(lab)
    return f"field{index}" if index is not None else "field"


# -- concrete fields ----------------------------------------------------------


class PolynomialField(SmoothMap):
    """A polynomial vector field; component i is {exponent tuple: coefficient}."""

    def __init__(self, dim: int, components, name: str = ""):
        dim = int(dim)
        if len(components) != dim:
            raise ValueError("need one component per dimension")
        comps = []
        for comp in components:
            clean = {}
            for expo, coeff in comp.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != dim or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo}")
                clean[expo] = float(coeff)
            comps.append(clean)
        self.components = comps

        def fun(seeds):
            out = []
            for comp in comps:
                acc = seeds[0] * 0.0
                for expo, coeff in sorted(comp.items()):
                    term = coeff
                    for v, e in zip(seeds, expo):
                        for _ in range(e):
                            term = term * v
                    acc = acc + term
                out.append(acc)
            return out

        super().__init__(fun, dim, name=name)


class ExpressionField(SmoothMap):
    """A vector field whose components are expression strings in the
    coordinates, e.g. ExpressionField(("x", "y"), ("-y", "x"))."""

    def __init__(self, variables, exprs, name: str = ""):
        variables = tuple(variables)
        exprs = tuple(exprs)
        if len(exprs) != len(variables):
            raise ValueError("need one component expression per coordinate")
        exprs = [parse_expression(text, variables) for text in exprs]
        super().__init__(
            lambda seeds: [expr(*seeds) for expr in exprs], len(variables), name=name
        )


class BracketField:
    """The lazy Lie bracket [X, Y]^i = X^j dY^i/dx^j - Y^j dX^i/dx^j.

    Evaluating at order m pulls order m + 1 from both parents; one derivative
    order is consumed per bracket, which bounds how deep a chain of brackets
    of finite-order fields can go.
    """

    def __init__(self, X, Y):
        if X.dim != Y.dim:
            raise ValueError(f"dimension mismatch: {X.dim} vs {Y.dim}")
        px, py = getattr(X, "p", None), getattr(Y, "p", None)
        if px is not None and py is not None and not np.array_equal(px, py):
            raise ValueError("bracket requires fields over the same base point")
        self.X = X
        self.Y = Y
        self.dim = X.dim
        self.label = f"[{field_label(X)},{field_label(Y)}]"
        capacities = [
            mo for mo in (getattr(X, "max_order", None), getattr(Y, "max_order", None))
            if mo is not None
        ]
        self.max_order = min(capacities) - 1 if capacities else None

    def taylor(self, center, order: int) -> Jet:
        if self.max_order is not None and order > self.max_order:
            raise JetOrderError(
                f"{self.label}: bracket at order {order} needs order {order + 1} "
                f"parent jets, but only {self.max_order + 1} are available"
            )
        tx = self.X.taylor(center, order + 1)
        ty = self.Y.taylor(center, order + 1)
        target, xs = ((self.dim, order),), range(self.dim)
        # [i, j] = X^j dY^i/dx^j - Y^j dX^i/dx^j, summed over j in order
        terms = (
            tx.truncated(target) * ty.gradient(xs, axis=1)
            - ty.truncated(target) * tx.gradient(xs, axis=1)
        )
        return terms.sum(axis=1)


# -- spans and ranks -----------------------------------------------------------


def field_values(f, points: np.ndarray) -> np.ndarray:
    """Component values of a field at sample points, shape (dim, K)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return np.array(f.taylor(points, 0).value)


class FieldSpan:
    """Fields with their sample points and the evaluation matrix.

    Row i holds field i's values at every point, point-major, so the matrix
    is rebuilt identically from the same fields and points.
    """

    def __init__(self, fields, points):
        if not fields:
            raise ValueError("need at least one field")
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.shape[1] < 1:
            raise ValueError("need at least one sample point")
        dims = {f.dim for f in fields}
        if len(dims) != 1 or points.shape[0] != dims.pop():
            raise ValueError("fields and points must share one dimension")
        self.fields = list(fields)
        self.points = points
        self.matrix = np.stack([field_values(f, points).T.ravel() for f in self.fields])

    @property
    def num_points(self) -> int:
        return self.points.shape[1]

    def labels(self) -> list:
        return [field_label(f, i) for i, f in enumerate(self.fields)]


@dataclass(frozen=True)
class RankReport:
    """Singular spectrum of an evaluation matrix and the rank it supports."""

    singular_values: tuple
    tau: float
    rank: int
    stabilized: bool
    num_fields: int
    num_points: int


def _matrix_rank(matrix: np.ndarray, tau: float):
    if matrix.size == 0:
        return 0, np.zeros(0)
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0, s
    return int(np.sum(s > tau * s[0])), s


def numerical_rank(fields, points, tau: float = DEFAULT_TAU) -> RankReport:
    """Rank of the span of the fields over the sample points.

    Rank counts singular values above tau times the largest one.  The
    stabilization check recomputes the rank on the first half of the points;
    equality means doubling the sample count did not change the answer.
    """
    span = fields if isinstance(fields, FieldSpan) else FieldSpan(fields, points)
    dim = span.points.shape[0]
    rank, s = _matrix_rank(span.matrix, tau)
    half_pts = max(1, span.num_points // 2)
    half = span.matrix[:, : half_pts * dim]
    half_rank, _ = _matrix_rank(half, tau)
    return RankReport(
        singular_values=tuple(float(v) for v in s),
        tau=float(tau),
        rank=rank,
        stabilized=(half_rank == rank),
        num_fields=len(span.fields),
        num_points=span.num_points,
    )


# -- bracket closure -----------------------------------------------------------


@dataclass(frozen=True)
class GenerationRecord:
    """One breadth-first generation: what was admitted and the rank after."""

    index: int
    new_labels: tuple
    parents: tuple
    rank_after: int


@dataclass
class ClosureTrace:
    """Replayable record of a bracket-closure run."""

    generations: list = dataclass_field(default_factory=list)
    termination: str = ""
    notes: list = dataclass_field(default_factory=list)

    def ranks(self) -> list:
        return [g.rank_after for g in self.generations]


def _radical_inverses(count: int, base: int) -> np.ndarray:
    """Van der Corput points 1..count in `base`, digits added from the least
    significant up (the order that makes them equal scipy's bit for bit)."""
    index = np.arange(1, count + 1)
    out = np.zeros(count)
    scale = 1.0 / base
    while index.any():
        index, digit = np.divmod(index, base)
        out += digit * scale
        scale /= base
    return out


def _default_points(f, count: int = 50) -> np.ndarray:
    """Deterministic sample points matched to the field's domain.

    Fields anchored to a norm and base point sample its indicatrix; plain
    fields get the unscrambled Halton block in [-1, 1]^dim that starts after
    the origin, one prime base per coordinate.
    """
    norm = getattr(f, "norm", None)
    p = getattr(f, "p", None)
    if norm is not None and p is not None:
        return indicatrix_samples(norm, p, count)
    primes = (q for q in itertools.count(2) if all(q % r for r in range(2, q)))
    bases = itertools.islice(primes, f.dim)
    return 2.0 * np.stack([_radical_inverses(count, b) for b in bases]) - 1.0


def lie_closure(generators, depth: int = 3, tau: float = DEFAULT_TAU, points=None):
    """Breadth-first bracket closure of the generators, rank gated.

    Candidate brackets pair every admitted field with at least one field of
    the previous generation; all candidates of a generation are evaluated
    up front, then admission runs in index order, keeping a candidate only
    if it raises the numerical rank on the sample points.  Terminates when a
    full generation admits nothing (rank-stable) or at the depth limit.
    Returns (FieldSpan of admitted fields, ClosureTrace); the span starts as
    the generators' and gains each admitted candidate's row.
    """
    generators = list(generators)
    if points is None and generators:
        points = _default_points(generators[0])
    span = FieldSpan(generators, points)
    fields, points = span.fields, span.points
    rank, _ = _matrix_rank(span.matrix, tau)
    trace = ClosureTrace()
    frontier = list(range(len(fields)))

    for g in range(1, depth + 1):
        frontier_set = set(frontier)
        pairs = [
            (a, b)
            for a in range(len(fields))
            for b in range(a + 1, len(fields))
            if a in frontier_set or b in frontier_set
        ]
        candidates = []
        for a, b in pairs:
            cand = BracketField(fields[a], fields[b])
            try:
                row = field_values(cand, points).T.ravel()  # the row FieldSpan builds
            except JetOrderError as exc:
                trace.notes.append(f"generation {g}: {cand.label} truncated: {exc}")
                continue
            candidates.append((a, b, cand, row))
        new_labels, parents, new_indices = [], [], []
        for a, b, cand, row in candidates:
            trial = np.vstack([span.matrix, row])
            trial_rank, _ = _matrix_rank(trial, tau)
            if trial_rank > rank:
                span.matrix = trial
                rank = trial_rank
                new_indices.append(len(fields))
                fields.append(cand)
                new_labels.append(cand.label)
                parents.append((field_label(fields[a], a), field_label(fields[b], b)))
        trace.generations.append(
            GenerationRecord(g, tuple(new_labels), tuple(parents), rank)
        )
        if not new_indices:
            trace.termination = "rank-stable"
            break
        frontier = new_indices
    else:
        trace.termination = "depth-limit"
    return span, trace


# -- the inclusion chain -------------------------------------------------------

HOL_NOTE = (
    "holonomy algebra not directly computable: membership is defined by "
    "tangency, with no generating procedure; the reported ranks bound it "
    "from below"
)


@dataclass(frozen=True)
class ChainReport:
    """Ranks of the curvature algebra and its covariant-derivative closure."""

    norm_name: str
    base_point: tuple
    depth: int
    curvature: RankReport
    ihol: RankReport
    curvature_trace: ClosureTrace
    ihol_trace: ClosureTrace
    ambient_bound: int
    hol_note: str = HOL_NOTE

    @property
    def ranks(self) -> tuple:
        return (self.curvature.rank, self.ihol.rank)


def inclusion_chain_report(
    norm, p, depth: int = 2, tau: float = DEFAULT_TAU, num_points: int = 50
) -> ChainReport:
    """Ranks of the algebra chain at p: curvature fields vs their ihol closure.

    The curvature algebra is the bracket closure of the plain curvature
    fields; the infinitesimal holonomy algebra additionally closes under
    covariant derivatives along the base directions (built in the curvature
    module).  Both ranks use the same indicatrix sample points, so the
    inclusion shows up as a plain inequality of integers.  The first deepest
    generator, D^d R, is evaluated first at the top order `depth`: its spray
    caps (d + 1, 2d + 2) dominate every later request of both closures, which
    read that table's exact truncation.  A closure that turns rank-stable
    early still pays for this widest table.
    """
    p = np.asarray(p, dtype=float)
    gen = ihol_generators(norm, p, depth=depth)
    points = indicatrix_samples(norm, p, num_points)
    max(gen, key=lambda f: f.depth).taylor(points, depth)

    base = [f for f in gen if f.depth == 0]
    curv_span, curv_trace = lie_closure(base, depth=depth, tau=tau, points=points)
    ihol_span, ihol_trace = lie_closure(gen, depth=depth, tau=tau, points=points)
    curv_report = numerical_rank(curv_span, points, tau)
    ihol_report = numerical_rank(ihol_span, points, tau)
    ambient = (norm.dim - 1) * num_points
    return ChainReport(
        norm_name=norm.name,
        base_point=tuple(float(v) for v in p),
        depth=depth,
        curvature=curv_report,
        ihol=ihol_report,
        curvature_trace=curv_trace,
        ihol_trace=ihol_trace,
        ambient_bound=ambient,
    )
