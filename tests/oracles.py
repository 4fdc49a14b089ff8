"""Second routes to quantities the package computes, for the tests to check
it against: Taylor composition and Richardson differences against jets, the
horizontal flow against transport, the bundle commutator against the Berwald
derivative, the reversed curve, and on the circle exact trigonometric
brackets and closure ranks and the closed-form flows of sin(k theta) d/dtheta.
So that no route certifies itself, they use only names the package's modules
export (`test_layering` checks this).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from holonomylab.curvature import IndicatrixVectorField
from holonomylab.finsler import FinslerNorm, connection_values, spray_jets
from holonomylab.jets import Jet, JetShapeError, SmoothMap, grouped_space, richardson_extrapolate
from holonomylab.transport import CurveSpec, flow_curve, integrate, parallel_transport

_RICHARDSON_SCHEDULE = (0.1, 0.05, 0.025, 0.0125)
# largest last Richardson correction, relative to the value scale, that
# counts as converged
_RICHARDSON_THRESHOLD = 1e-5


def monomial_parents(space):
    """(parent position, variable) pairs for incremental monomial building,
    valid because indices are stored in graded order."""
    parents = np.zeros(space.size, dtype=np.int64)
    last_var = np.zeros(space.size, dtype=np.int64)
    for i, t in enumerate(space.tuples):
        if i == 0:
            continue
        v = max(k for k, d in enumerate(t) if d > 0)
        down = list(t)
        down[v] -= 1
        parents[i] = space.position[tuple(down)]
        last_var[i] = v
    return parents, last_var


def compose_table(table: Jet, args: Sequence[Jet], center) -> Jet:
    """Evaluate a Taylor table on jets whose value parts sit at its center.

    The displacement jets (argument minus center) are nilpotent, so plugging
    them into the table polynomial is exact at the outer truncation order.
    Monomials are built incrementally in graded order (one multiplication per
    table index) and shared by every entry of the table's value shape, which
    broadcasts against the arguments' shape.
    """
    center = np.asarray(center, dtype=float)
    if len(args) != table.space.num_vars:
        raise JetShapeError(
            f"table over {table.space.num_vars} variables, got {len(args)} arguments"
        )
    outer = args[0].space
    disp = []
    for a, c in zip(args, center):
        w = a - c
        w.coeffs[0] = 0.0 * w.coeffs[0]  # kill rounding dust; exactness needs it
        disp.append(w)
    parents, last_var = monomial_parents(table.space)
    monos: list[Jet | None] = [None] * table.space.size
    monos[0] = Jet.constant(outer, np.ones(disp[0].shape))
    out = monos[0] * table.coeffs[0]
    for i in range(1, table.space.size):
        monos[i] = monos[parents[i]] * disp[last_var[i]]
        out = out + monos[i] * table.coeffs[i]
    return out


@dataclass(frozen=True)
class DerivativeEstimate:
    """A derivative value; in richardson mode `error` is the last correction
    and `converged` whether it cleared `_RICHARDSON_THRESHOLD`, in jet mode 0."""

    value: np.ndarray
    error: float
    converged: bool
    mode: str


def finite_difference_weights(m: int, xs: Sequence[float]) -> np.ndarray:
    """Fornberg weights for the m-th derivative at 0 on arbitrary nodes."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    d = np.zeros((n, n, m + 1))
    d[0, 0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            for k in range(min(i, m), -1, -1):
                d[i, j, k] = (xs[i] * d[i - 1, j, k] - k * d[i - 1, j, k - 1]) / c3
        for k in range(min(i, m), -1, -1):
            d[i, i, k] = (c1 / c2) * (k * d[i - 1, i - 1, k - 1] - xs[i - 1] * d[i - 1, i - 1, k])
        c1 = c2
    return d[n - 1, :, m]


def _stencil(k: int) -> tuple[np.ndarray, np.ndarray]:
    m = (k + 1) // 2
    nodes = np.arange(-m, m + 1, dtype=float)
    return nodes, finite_difference_weights(k, nodes)


def _partial(f, orders: tuple, mode: str) -> DerivativeEstimate:
    """The derivative of multi-index `orders` at the origin, one parameter per entry.

    Jet mode seeds one group per parameter, with cap equal to its order.
    Richardson mode runs the tensor product of central stencils with every
    step halved together, extrapolates, and flags convergence; a value that
    did not converge is still returned.
    """
    if min(orders) < 0:
        raise ValueError("derivative order must be >= 0")
    if mode == "jet":
        space = grouped_space(tuple((1, k) for k in orders))
        args = [Jet.variable(space, v, 0.0) for v in range(len(orders))]
        out = f.jets(args) if isinstance(f, SmoothMap) else f(*args)
        value = (out if isinstance(out, Jet) else Jet.stack(out)).derivative(orders)
        return DerivativeEstimate(float(value) if value.ndim == 0 else value, 0.0, True, "jet")
    if mode != "richardson":
        raise ValueError(f"unknown mode {mode!r}")
    stencils = [list(zip(*_stencil(k))) for k in orders]
    estimates = []
    for h in _RICHARDSON_SCHEDULE:
        acc = None
        for taps in itertools.product(*stencils):
            weight = math.prod(w for _, w in taps)
            if weight == 0.0:
                continue
            point = [float(node * h) for node, _ in taps]
            if isinstance(f, SmoothMap):
                term = weight * f.value(np.array(point))
            else:
                term = weight * np.asarray(f(*point), dtype=float)
            acc = term if acc is None else acc + term
        estimates.append(acc / h ** sum(orders))
    value, err = richardson_extrapolate(estimates, _RICHARDSON_SCHEDULE)
    if value.ndim == 0:
        value = float(value)
    scale = max(1.0, float(np.max(np.abs(value))))
    return DerivativeEstimate(value, err, bool(err <= _RICHARDSON_THRESHOLD * scale), "richardson")


def curve_derivative(c, k: int, mode: str = "jet") -> DerivativeEstimate:
    """k-th derivative at t = 0 of a SmoothMap of one input, or of a callable
    of a float (and, in jet mode, of a Jet)."""
    return _partial(c, (k,), mode)


def mixed_partial(f, k: int, l: int, mode: str = "jet") -> DerivativeEstimate:
    """Mixed partial d^{k+l}/dt^k ds^l at the origin of a SmoothMap of two
    inputs, or of a callable f(t, s)."""
    return _partial(f, (k, l), mode)


def horizontal_lift(norm: FinslerNorm, x, y, X) -> np.ndarray:
    """The horizontal lift (X^i, -G^i_j X^j) at (x, y) of the base vector X."""
    X = np.asarray(X, dtype=float)
    return np.concatenate([X, -connection_values(norm, x, y) @ X])


def horizontal_flow(norm: FinslerNorm, X: SmoothMap, p, y0, t: float):
    """Flow (p, y0) along the horizontal lift X^h for time t.

    State is (x, V); dx/dt = X(x), dV^i/dt = -G^i_j(x, V) X(x)^j.  Returns
    (x_end, V_end).
    """
    n = norm.dim

    def rhs(s, z):
        return horizontal_lift(norm, z[:n], z[n:], X.value(z[:n]))

    z, _ = integrate(rhs, 0.0, t, np.concatenate([p, y0]))
    return z[:n], z[n:]


def flow_transport_discrepancy(norm: FinslerNorm, X: SmoothMap, p, y0, t: float) -> float:
    """Distance between transporting y0 along the integral curve of X and
    flowing (p, y0) by the horizontal lift.  The two routes share nothing
    but the integrator, so agreement is a real check of both."""
    if t == 0.0:
        return 0.0
    curve = CurveSpec([flow_curve(X, p, t)])
    via_transport = parallel_transport(norm, curve, y0).y_end
    _, via_flow = horizontal_flow(norm, X, p, y0, t)
    return float(np.linalg.norm(via_transport - via_flow))


class _Reversed:
    def __init__(self, inner):
        self.dim = inner.dim
        self._inner = inner

    def point_velocity(self, u):
        x, dx = self._inner.point_velocity(1.0 - u)
        return x, -dx


def reverse(curve: CurveSpec) -> CurveSpec:
    """`curve` run backward, from its end to its start."""
    return CurveSpec([_Reversed(p) for p in reversed(curve.pieces)])


def horizontal_field(norm: FinslerNorm, X: SmoothMap) -> SimpleNamespace:
    """The horizontal lift X^h = (X^j, -G^i_j X^j) as a field in (x, y):
    `taylor(center, order)` is its jet at a point of the bundle chart."""
    n = norm.dim

    def taylor(center, order):
        x0, y0 = center[:n], center[n:]
        gspace = grouped_space(((n, order), (n, order)))
        total = ((2 * n, order),)
        G = spray_jets(norm, x0, list(y0), xorder=order, yorder=order + 1)
        Xc = X.jets([Jet.variable(gspace, i, x0[i]) for i in range(n)])
        lift = -(G.gradient(range(n, 2 * n), axis=1) * Xc).sum(axis=1)  # -G^i_j X^j
        return Jet(gspace, np.concatenate([Xc.coeffs, lift.coeffs], axis=1)).truncated(total)

    return SimpleNamespace(taylor=taylor)


def vertical_field(xi: IndicatrixVectorField) -> SimpleNamespace:
    """xi as a bundle field (0, xi^i), as `horizontal_field`; only valid over
    the field's base point."""
    n = xi.dim
    p = xi.p

    def taylor(center, order):
        if not np.allclose(center[:n], p, rtol=0.0, atol=1e-12):
            raise ValueError("fiber field is anchored at its base point")
        xij = xi.bundle_jets(order, order, center[n:]).truncated(((2 * n, order),))
        return Jet(xij.space, np.concatenate([np.zeros_like(xij.coeffs), xij.coeffs], axis=1))

    return SimpleNamespace(taylor=taylor)


# -- the circle: exact trigonometric fields and closed-form flows -------------
#
# A field u(theta) d/dtheta is a trigonometric polynomial, held as
# {("cos", k): c, ("sin", k): c} with Fraction coefficients, k >= 0, and no
# ("sin", 0) term.


def _trig_add(terms: dict, kind: str, k: int, c: Fraction) -> None:
    if k < 0:  # cos(-x) = cos(x), sin(-x) = -sin(x)
        k, c = -k, c if kind == "cos" else -c
    if kind == "cos" or k > 0:
        terms[kind, k] = terms.get((kind, k), 0) + c


def _trig_clean(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c != 0}


def trig_product(u: dict, v: dict) -> dict:
    """u v, by the product-to-sum identities."""
    out: dict = {}
    for (p, a), c in u.items():
        for (q, b), d in v.items():
            h = Fraction(c) * d / 2
            if p == q == "cos":  # cos a cos b = (cos(a - b) + cos(a + b)) / 2
                _trig_add(out, "cos", a - b, h)
                _trig_add(out, "cos", a + b, h)
            elif p == q == "sin":  # sin a sin b = (cos(a - b) - cos(a + b)) / 2
                _trig_add(out, "cos", a - b, h)
                _trig_add(out, "cos", a + b, -h)
            else:  # sin a cos b = (sin(a + b) + sin(a - b)) / 2
                s, o = (a, b) if p == "sin" else (b, a)
                _trig_add(out, "sin", s + o, h)
                _trig_add(out, "sin", s - o, h)
    return _trig_clean(out)


def trig_derivative(u: dict) -> dict:
    """u', term by term."""
    out: dict = {}
    for (kind, k), c in u.items():
        if kind == "cos":  # (cos kx)' = -k sin kx
            _trig_add(out, "sin", k, -k * c)
        else:  # (sin kx)' = k cos kx
            _trig_add(out, "cos", k, k * c)
    return _trig_clean(out)


def trig_bracket(u: dict, v: dict) -> dict:
    """The vector-field bracket [u, v] = u v' - v u' on the circle."""
    out = dict(trig_product(u, trig_derivative(v)))
    for key, c in trig_product(v, trig_derivative(u)).items():
        out[key] = out.get(key, 0) - c
    return _trig_clean(out)


def trig_closure_ranks(generators, depth: int) -> tuple[list, str]:
    """(rank after each generation, termination) of the bracket closure of
    trigonometric fields, ranks by exact elimination over Fractions.

    Candidates are admitted in the closure's order: each generation brackets
    every pair (a, b), a < b, of the fields so far with at least one of the
    previous generation, in index order, and admits a candidate that raises
    the rank; a generation that admits nothing ends the closure as
    "rank-stable", else the depth does, as "depth-limit".
    """
    pivots: list = []  # (pivot key, row), each row zero at the earlier pivots

    def admit(u: dict) -> bool:
        row = dict(u)
        for key, pivot in pivots:
            if row.get(key, 0) != 0:
                factor = row[key] / pivot[key]
                for k, c in pivot.items():
                    row[k] = row.get(k, 0) - factor * c
        row = _trig_clean(row)
        if row:
            pivots.append((next(iter(row)), row))
        return bool(row)

    fields = list(generators)
    for u in fields:
        admit(u)
    ranks, frontier = [], set(range(len(fields)))
    for _ in range(depth):
        pairs = [
            (a, b)
            for a in range(len(fields))
            for b in range(a + 1, len(fields))
            if a in frontier or b in frontier
        ]
        new = set()
        for a, b in pairs:
            candidate = trig_bracket(fields[a], fields[b])
            if admit(candidate):
                new.add(len(fields))
                fields.append(candidate)
        ranks.append(len(pivots))
        if not new:
            return ranks, "rank-stable"
        frontier = new
    return ranks, "depth-limit"


def sine_flow(k: int, t: float, theta) -> np.ndarray:
    """The time-t flow of sin(k theta) d/dtheta, in closed form.

    With phi = k theta, tan(phi / 2) -> e^{kt} tan(phi / 2), taken on the
    branch of phi / 2 in [pi m - pi/2, pi m + pi/2] that holds the point: the
    zeros of sin(k theta), phi / 2 = pi m / 2, are fixed points, so no point
    leaves its branch.
    """
    phi = k * np.asarray(theta, dtype=float)
    m = np.round(phi / (2.0 * np.pi))
    half = (phi - 2.0 * np.pi * m) / 2.0  # in [-pi/2, pi/2]
    moved = np.where(np.abs(half) == np.pi / 2, half, np.arctan(np.exp(k * t) * np.tan(half)))
    return (2.0 * np.pi * m + 2.0 * moved) / k
