"""Curvature vector fields on indicatrices and their covariant calculus.

The holonomy of a parallelogram loop at scale t, differentiated twice at
t = 0, produces a vertical vector field on the indicatrix at the base point:
the curvature field of the two loop directions.  This module computes those
fields directly from spray jets,

    xi^k(x, y) = R^k_{ij}(x, y) X^i(x) Y^j(x),
    R^k_{ij}   = dG^k_i/dx^j - dG^k_j/dx^i + G^l_i G^k_{jl} - G^l_j G^k_{il},

with G^k_i, G^k_{ij} the y-derivatives of the spray.  The sign is pinned by
the transport oracle: the second t-derivative of the parallelogram family
h_t(v) equals 2 xi(v), with no sign freedom left.

Fields are stored as jet evaluators over the bundle chart, so every field
can report its x- and y-derivatives to any order its construction supports.
From the curvature fields, two operations generate larger families:

  * the fiber bracket [xi, eta]^i = xi^k d eta^i/dy^k - eta^k d xi^i/dy^k,
  * the horizontal covariant derivative
    (D_X xi)^i = X^j (d xi^i/dx^j - G^k_j d xi^i/dy^k + G^i_{jk} xi^k),

whose closure up to a fixed depth is the generator set of the infinitesimal
holonomy algebra at the base point.  Before entering that closure, the
curvature fields, positively 1-homogeneous in y, are extended to degree 0
by Euler's identity xi(x, y / F) = xi(x, y) / F(x, y): one jet division.
Radial y-derivatives then vanish; values on the indicatrix stay unchanged.

Spray tables, fields and base vector fields are each one jet whose first
value axis runs over their components.  The fields over one base point form
a family with one norm and one memo of spray tables: a new curvature field
starts a family, and its radialization, covariant derivatives and brackets
join it, receiving the memo at construction, so an `ihol_generators` list
builds one memo.  Every field also memoizes its evaluator in `bundle_jets`.
Both memos key entries by the exact y-batch shape and bytes, then by caps,
and read a request that a stored entry dominates as that entry's truncation:
bit for bit a fresh evaluation, since truncation commutes with every jet
operation.  A family asked for its widest caps first thus computes one spray
table per y-batch.  Cached arrays are read-only and live as long as their
fields; `spray_tables` in `jets.tally` counts requests and computed tables.
The parallelogram transport oracle never reads them.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, SmoothMap, count, grouped_space, jet_space
from .finsler import FinslerNorm, spray_jets

__all__ = [
    "PROVENANCE_TAGS",
    "IndicatrixVectorField",
    "coordinate_fields",
    "constant_base_field",
    "curvature_field",
    "berwald_covariant_derivative",
    "fiber_bracket",
    "horizontal_field",
    "vertical_field",
    "ihol_generators",
]

PROVENANCE_TAGS = ("curvature", "bracket", "covariant-derivative", "user")


def _memo_read(memo: dict, caps: tuple, yc: np.ndarray, compute) -> Jet:
    """The entry at yc's exact shape and bytes and at caps (a, b): stored, the
    exact truncation of a stored entry at caps >= (a, b), or `compute()`;
    the answer is stored read-only under (a, b)."""
    entries = memo.setdefault((yc.shape, yc.tobytes()), {})
    if caps not in entries:
        wide = next((j for c, j in entries.items() if c[0] >= caps[0] and c[1] >= caps[1]), None)
        jet = compute() if wide is None else wide.truncated(
            (size, cap) for (size, _), cap in zip(wide.space.groups, caps)
        )
        jet.coeffs.flags.writeable = False
        entries[caps] = jet
    return entries[caps]


class _SprayMemo:
    """Spray jets of one norm at one base point, each computed once."""

    def __init__(self, norm: FinslerNorm, p):
        self.norm = norm
        self.p = p
        self._tables: dict = {}

    def get(self, xorder: int, yorder: int, yc: np.ndarray) -> Jet:
        """The G^k jet at caps (xorder, yorder) and (p, yc), read-only; keyed
        by yc's exact bytes, narrower caps read a wider table's exact
        truncation, and only an undominated request calls `spray_jets`."""

        def compute():
            count("spray_tables", computed=1)
            return spray_jets(self.norm, self.p, list(yc), xorder=xorder, yorder=yorder)

        count("spray_tables", requests=1)
        return _memo_read(self._tables, (xorder, yorder), yc, compute)


# -- fields on one indicatrix --------------------------------------------------


class IndicatrixVectorField:
    """A vertical vector field along the indicatrix over the base point p.

    Only fiber components are stored, so verticality is structural.  The
    field is a jet evaluator: `evaluator(xcap, ycap, y_center)` returns the
    field as one jet of value shape (n, *batch) in the bundle space with
    per-group caps (xcap, ycap), seeded at (p, y_center), and `bundle_jets`
    and `taylor` return that one jet, its first value axis running over the
    components xi^i.  Fields built from spray data are therefore fibered:
    they know their x-dependence near p, which is what the covariant
    derivative consumes.

    `homogeneity` records the radial degree of the components in y when it
    is known: 1 for raw curvature fields, 0 after `radialized()`, None for
    fields without a definite degree (covariant derivatives, brackets, user
    fields).  The field memoizes its evaluations and carries the spray memo
    `sprays` of its family: a field derived from another passes its parent's,
    and a field given none starts a family with a new memo; see the module
    docstring.
    """

    def __init__(
        self,
        norm: FinslerNorm,
        p,
        evaluator,
        provenance: str,
        label: str,
        homogeneity=None,
        depth: int = 0,
        parents: tuple = (),
        sprays: _SprayMemo | None = None,
    ):
        if provenance not in PROVENANCE_TAGS:
            raise ValueError(
                f"unknown provenance {provenance!r}; expected one of {PROVENANCE_TAGS}"
            )
        self.norm = norm
        self.p = norm.manifold.require(np.asarray(p, dtype=float))
        self._evaluator = evaluator
        self.provenance = provenance
        self.label = label
        self.homogeneity = homogeneity
        self.depth = depth
        self.parents = tuple(parents)
        self._sprays = _SprayMemo(norm, self.p) if sprays is None else sprays
        self._bundle: dict = {}

    @property
    def dim(self) -> int:
        """Fiber dimension; fields act on y-space."""
        return self.norm.dim

    def __repr__(self):
        return (
            f"IndicatrixVectorField({self.label!r}, provenance={self.provenance!r}, "
            f"depth={self.depth})"
        )

    def bundle_jets(self, xcap: int, ycap: int, y_center) -> Jet:
        """The field's jet in the bundle space ((n, xcap), (n, ycap)) at (p, y_center).

        y_center entries may be (B,) arrays for a batched evaluation.  The jet
        is the memoized evaluation itself, with read-only coefficients, keyed
        by y_center's exact bytes; narrower caps read a wider stored
        evaluation's truncation, which is exact bit for bit.
        """
        xcap, ycap = int(xcap), int(ycap)
        yc = np.asarray(y_center, float)
        return _memo_read(self._bundle, (xcap, ycap), yc, lambda: self._evaluator(xcap, ycap, yc))

    def taylor(self, center, order: int) -> Jet:
        """The fiber-only jet at y = center, in jet_space(n, order).

        At x-cap 0 the bundle space lists its indices in the order of
        jet_space(n, order), so the bundle table is read as it stands.
        """
        return Jet(jet_space(self.dim, order), self.bundle_jets(0, order, center).coeffs)

    def values(self, ys) -> np.ndarray:
        """Component values at y; accepts shape (n,) or (n, B)."""
        return np.array(self.bundle_jets(0, 0, ys).value)

    def tangency_residual(self, ys) -> float:
        """Largest relative violation of xi^i dF/dy^i = 0 over the given y's.

        The y's should sit on (or near) the indicatrix; the residual is scaled
        by |xi| |dF/dy|, and a zero field reports zero.
        """
        ys = np.asarray(ys, dtype=float)
        if ys.ndim == 1:
            ys = ys[:, None]
        n = self.dim
        E = self.norm.energy_jet(self.p, list(ys), xcap=0, ycap=1)
        Ey = E.gradient(range(n, 2 * n)).value
        F = np.sqrt(2.0 * np.asarray(E.value))
        Fy = Ey / F  # dF/dy^i = (dE/dy^i) / F
        xi = self.values(ys)
        fscale = float(np.max(np.linalg.norm(xi, axis=0)))
        if fscale <= 1e-13:  # the zero field is tangent; don't amplify roundoff
            return 0.0
        resid = np.abs(np.sum(xi * Fy, axis=0))
        return float(np.max(resid / (fscale * np.linalg.norm(Fy, axis=0))))

    def radialized(self) -> "IndicatrixVectorField":
        """The degree-0 radial extension xi(y / F(y)); identical on the indicatrix.

        For a field positively 1-homogeneous in y, Euler's identity gives
        xi(x, y / F(x, y)) = xi(x, y) / F(x, y) exactly, so the extension is
        one jet division at the caps asked for.  A degree-0 field is its own
        extension; any other degree raises ValueError.
        """
        if self.homogeneity == 0:
            return self
        if self.homogeneity != 1:
            raise ValueError(f"cannot radialize {self.label!r} of homogeneity {self.homogeneity}")
        norm, p = self.norm, self.p

        def evaluator(xcap, ycap, yc):
            F = (2.0 * norm.energy_jet(p, list(yc), xcap=xcap, ycap=ycap)).sqrt()
            return self.bundle_jets(xcap, ycap, yc) / F

        return IndicatrixVectorField(
            norm,
            p,
            evaluator,
            self.provenance,
            self.label,
            homogeneity=0,
            depth=self.depth,
            parents=self.parents,
            sprays=self._sprays,
        )


# -- base vector fields --------------------------------------------------------


def constant_base_field(manifold, vec, name: str = "") -> SmoothMap:
    """The constant vector field x -> vec on the chart."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (manifold.dim,):
        raise ValueError(f"expected a {manifold.dim}-vector, got shape {vec.shape}")

    def fun(xs):
        return [xs[0] * 0.0 + float(v) for v in vec]

    return SmoothMap(fun, manifold.dim, lo=manifold.lo, hi=manifold.hi, name=name)


def coordinate_fields(manifold) -> list:
    """The constant unit fields e_0, ..., e_{n-1}; default generator directions."""
    out = []
    for i in range(manifold.dim):
        e = np.zeros(manifold.dim)
        e[i] = 1.0
        out.append(constant_base_field(manifold, e, name=f"e{i}"))
    return out


def _base_jets(X: SmoothMap, p, space, batch):
    # jets at every xcap, so a narrower read truncates a wider one exactly
    xj = [Jet.variable(space, i, p[i]) for i in range(p.shape[0])]
    if batch:
        xj = [xi + np.zeros(batch) for xi in xj]
    return X.jets(xj)


# -- curvature fields ----------------------------------------------------------


def curvature_field(norm: FinslerNorm, X: SmoothMap, Y: SmoothMap, p) -> IndicatrixVectorField:
    """The curvature vector field xi = R(X, Y) on the indicatrix at p.

    Components xi^k(x, y) = R^k_{ij}(x, y) X^i(x) Y^j(x) with

        R^k_{ij} = dG^k_i/dx^j - dG^k_j/dx^i + G^l_i G^k_{jl} - G^l_j G^k_{il}.

    The sign convention is pinned by the parallelogram transport oracle:
    d^2/dt^2 h_t(v) at t = 0 equals 2 xi(v).  Components are 1-homogeneous
    in y; the value at y depends on X and Y only through X(p), Y(p).
    """
    p = norm.manifold.require(np.asarray(p, dtype=float))
    return _curvature_field(X, Y, _SprayMemo(norm, p))


def _curvature_field(X, Y, sprays: _SprayMemo) -> IndicatrixVectorField:
    norm, p = sprays.norm, sprays.p
    n = norm.dim
    xs, ys = range(n), range(n, 2 * n)

    def evaluator(xcap, ycap, yc):
        target = ((n, xcap), (n, ycap))
        G = sprays.get(xcap + 1, ycap + 2, yc)
        Gy = G.gradient(ys, axis=1)  # [k, i] = G^k_i
        Gyt = Gy.truncated(target)
        Gyy = Gy.gradient(ys, axis=2).truncated(target)  # [k, i, l] = G^k_il
        # R[k, i, j] = R^k_ij, from dG^k_i/dx^j - dG^k_j/dx^i; each l then adds
        # its two terms for every (k, i, j) at once
        R = Gy.gradient(xs, axis=2).truncated(target) - Gy.gradient(xs, axis=1).truncated(target)
        for l in range(n):
            R = (
                R
                + Gyt.at(np.s_[None, l, :, None]) * Gyy.at(np.s_[:, None, :, l])
                - Gyt.at(np.s_[None, l, None, :]) * Gyy.at(np.s_[:, :, None, l])
            )
        space = grouped_space(target)
        Xc = _base_jets(X, p, space, yc.shape[1:])
        Yc = _base_jets(Y, p, space, yc.shape[1:])
        acc = Jet.constant(space, np.zeros(yc.shape[1:]))
        for i in range(n):
            for j in range(n):
                acc = acc + R.at(np.s_[:, i, j]) * Xc.at(i) * Yc.at(j)
        return acc

    label = f"R({X.name or 'X'},{Y.name or 'Y'})"
    return IndicatrixVectorField(
        norm, p, evaluator, "curvature", label, homogeneity=1, sprays=sprays
    )


# -- derived fields ------------------------------------------------------------


def berwald_covariant_derivative(xi: IndicatrixVectorField, X: SmoothMap) -> IndicatrixVectorField:
    """The horizontal covariant derivative D_X xi along the base field X,

        (D_X xi)^i = X^j (d xi^i/dx^j - G^k_j d xi^i/dy^k + G^i_{jk} xi^k),

    with the spray G of xi's norm, which equals the bundle commutator [X^h, xi]
    of the horizontal lift of X with the vertical field xi.  A field of known
    homogeneity degree 1 is radially extended to degree 0 first, so that
    y-derivatives act on the extension the algebra actually uses.  The result
    joins xi's family and reads its spray memo.
    """
    if xi.homogeneity == 1:
        xi = xi.radialized()
    p, n = xi.p, xi.dim
    xs, ys = range(n), range(n, 2 * n)

    def evaluator(xcap, ycap, yc):
        target = ((n, xcap), (n, ycap))
        parent = xi.bundle_jets(xcap + 1, ycap + 1, yc)
        G = xi._sprays.get(xcap, ycap + 2, yc)
        # [i, j, k] = G^k_j d xi^i/dy^k and G^i_jk xi^k, for every k at once
        Gy = G.gradient(ys).truncated(target).at(None)
        Gy_xiy = Gy * parent.gradient(ys, axis=1).truncated(target).at(np.s_[:, None])
        Gyy = G.gradient(ys, axis=1).gradient(ys, axis=2).truncated(target)
        Gyy_xi = Gyy * parent.truncated(target)
        term = parent.gradient(xs, axis=1).truncated(target)  # [i, j] = d xi^i/dx^j
        for k in range(n):
            term = term - Gy_xiy.at(np.s_[:, :, k]) + Gyy_xi.at(np.s_[:, :, k])
        space = grouped_space(target)
        Xc = _base_jets(X, p, space, yc.shape[1:])
        acc = Jet.constant(space, np.zeros(yc.shape[1:]))
        for j in range(n):
            acc = acc + term.at(np.s_[:, j]) * Xc.at(j)
        return acc

    label = f"D[{X.name or 'X'}]{xi.label}"
    return IndicatrixVectorField(
        xi.norm,
        p,
        evaluator,
        "covariant-derivative",
        label,
        homogeneity=None,
        depth=xi.depth + 1,
        parents=(xi.label, X.name or "X"),
        sprays=xi._sprays,
    )


def fiber_bracket(
    xi: IndicatrixVectorField, eta: IndicatrixVectorField
) -> IndicatrixVectorField:
    """The bracket [xi, eta]^i = xi^k d eta^i/dy^k - eta^k d xi^i/dy^k.

    Both fields must live over the same base point.  Inputs of known
    homogeneity degree 1 are radially extended first, matching the extension
    convention of the generator closure.
    """
    if not np.array_equal(xi.p, eta.p):
        raise ValueError("bracket requires fields over the same base point")
    if xi.norm is not eta.norm:
        raise ValueError("bracket requires fields of the same norm")
    if xi.homogeneity == 1:
        xi = xi.radialized()
    if eta.homogeneity == 1:
        eta = eta.radialized()
    n = xi.dim
    ys = range(n, 2 * n)

    def evaluator(xcap, ycap, yc):
        target = ((n, xcap), (n, ycap))
        a = xi.bundle_jets(xcap, ycap + 1, yc)
        b = eta.bundle_jets(xcap, ycap + 1, yc)
        # [i, k] = a^k d b^i/dy^k and b^k d a^i/dy^k
        ab = a.truncated(target) * b.gradient(ys, axis=1).truncated(target)
        ba = b.truncated(target) * a.gradient(ys, axis=1).truncated(target)
        acc = ab.at(np.s_[:, 0]) - ba.at(np.s_[:, 0])
        for k in range(1, n):
            acc = acc + ab.at(np.s_[:, k]) - ba.at(np.s_[:, k])
        return acc

    label = f"[{xi.label},{eta.label}]"
    return IndicatrixVectorField(
        xi.norm,
        xi.p,
        evaluator,
        "bracket",
        label,
        homogeneity=None,
        depth=xi.depth + eta.depth + 1,
        parents=(xi.label, eta.label),
        sprays=xi._sprays,  # eta's would serve too: same norm, same base point
    )


# -- bundle-field adapters -----------------------------------------------------


class _BundleField:
    """A 2n-dimensional field on the bundle chart, for commutator checks."""

    def __init__(self, dim: int, taylor_fn, name: str = ""):
        self.dim = dim
        self._taylor = taylor_fn
        self.name = name

    def taylor(self, center, order: int) -> Jet:
        return self._taylor(np.asarray(center, dtype=float), int(order))


def horizontal_field(norm: FinslerNorm, X: SmoothMap) -> _BundleField:
    """The horizontal lift X^h = (X^j, -G^i_j X^j) as a field in (x, y)."""
    n = norm.dim

    def taylor(center, order):
        x0, y0 = center[:n], center[n:]
        gspace = grouped_space(((n, order), (n, order)))
        total = ((2 * n, order),)
        G = spray_jets(norm, x0, list(y0), xorder=order, yorder=order + 1)
        Xc = X.jets([Jet.variable(gspace, i, x0[i]) for i in range(n)])
        lift = -(G.gradient(range(n, 2 * n), axis=1) * Xc).sum(axis=1)  # -G^i_j X^j
        return Jet(gspace, np.concatenate([Xc.coeffs, lift.coeffs], axis=1)).truncated(total)

    return _BundleField(2 * n, taylor, name=f"{X.name or 'X'}^h")


def vertical_field(xi: IndicatrixVectorField) -> _BundleField:
    """xi as a bundle field (0, xi^i); only valid over the field's base point."""
    n = xi.dim
    p = xi.p

    def taylor(center, order):
        if not np.allclose(center[:n], p, rtol=0.0, atol=1e-12):
            raise ValueError("fiber field is anchored at its base point")
        xij = xi.bundle_jets(order, order, center[n:]).truncated(((2 * n, order),))
        return Jet(xij.space, np.concatenate([np.zeros_like(xij.coeffs), xij.coeffs], axis=1))

    return _BundleField(2 * n, taylor, name=xi.label)


# -- generator lists -----------------------------------------------------------


def ihol_generators(norm: FinslerNorm, p, fields=None, depth: int = 2) -> list:
    """Generators of the infinitesimal holonomy algebra at p, up to `depth`.

    Starts from the curvature fields R(e_a, e_b) of the given base fields
    (coordinate fields by default), radially extended to degree 0, and closes
    under covariant derivatives along the base fields and fiber brackets.
    Depth counts applications along a construction path: D_X adds one, a
    bracket adds one plus the depths of its arguments.  Returns the list of
    fields in construction order, every produced field kept, zero fields
    included; rank decisions belong to the caller.  Each field carries its
    label, provenance, depth and parents, so the list is the replayable
    record of the construction.  All fields form one family with one spray
    memo.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    p = norm.manifold.require(np.asarray(p, dtype=float))
    if fields is None:
        fields = coordinate_fields(norm.manifold)
    sprays = _SprayMemo(norm, p)
    base = []
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            base.append(_curvature_field(fields[a], fields[b], sprays).radialized())
    by_depth = {0: base}
    out = list(base)
    for d in range(1, depth + 1):
        new = []
        for f in by_depth[d - 1]:
            for X in fields:
                new.append(berwald_covariant_derivative(f, X))
        for da in range(d):
            db = d - 1 - da
            if da > db:
                break
            lhs, rhs = by_depth.get(da, ()), by_depth.get(db, ())
            for i, f in enumerate(lhs):
                start = i + 1 if da == db else 0
                for g in list(rhs)[start:]:
                    new.append(fiber_bracket(f, g))
        by_depth[d] = new
        out.extend(new)
    return out
