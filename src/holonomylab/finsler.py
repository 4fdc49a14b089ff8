"""Finsler norms and the tables derived from them.

A Finsler structure enters every computation through the energy E = F^2/2,
evaluated on truncated jets in the 2n bundle variables (x, y).  From E we
derive the fundamental tensor

    g_ij(x, y) = d^2 E / dy^i dy^j,

the spray coefficients via the Euler-Lagrange form

    G^i = 1/2 g^{il} ( y^k d^2 E / dx^k dy^l  -  dE / dx^l ),

and the nonlinear connection G^i_j = dG^i/dy^j together with its
y-derivatives G^i_{jk} (the Berwald connection).  All of these come out of a
single jet pipeline: seed (x, y) in a bundle jet space whose per-group caps
are exactly what the requested output needs, read every table the system
needs from E in one `Jet.read` (one cached gather, truncated to the common
target), and solve the small linear system g w = rhs with `jets.solve`,
which inverts g's value part and sums the rest as a finite series.

Caps are chosen per call:  output retaining xorder x-derivatives and yorder
y-derivatives of G^i needs E with caps (xorder + 1, yorder + 2) and total
degree xorder + yorder + 2, the entries its three reads reach.  Jet
truncation commutes with products on downward-closed index sets, so all
factors are truncated to the target before multiplying.  For the same
reason the tables at caps (a, b) equal, bit for bit, the truncation of the
tables at any caps (X, Y) with a <= X and b <= Y; the test suite checks
this on the catalog norms.

Each table is one tensor jet whose value shape is the table's index shape
followed by the batch axis of y (a batch of tangent vectors at a common base
point), which is what the transport integrator wants.  `indicatrix_samples`
draws the points of F(p, .) = 1 at which fields and holonomy maps are read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .expressions import parse_expression
from .jets import (
    DomainBox,
    DomainBoxError,
    Jet,
    JetDomainError,
    JetSpace,
    grouped_space,
    solve,
)

__all__ = [
    "ChartDomainError",
    "ChartManifold",
    "ConicDomainError",
    "FinslerNorm",
    "MetricDegeneracyError",
    "MetricTensor",
    "NormReport",
    "SprayData",
    "catalog_norm",
    "catalog_names",
    "connection_values",
    "geodesic_coefficients",
    "indicatrix_samples",
    "metric_tensor",
    "norm_diagnostics",
    "spray_jets",
]

CONDITION_LIMIT = 1e12


class ChartDomainError(DomainBoxError):
    """Point left the chart box of the manifold."""


class MetricDegeneracyError(ValueError):
    """Fundamental tensor not positive definite, or numerically singular."""


class ConicDomainError(DomainBoxError):
    """y = 0 requested; the tables live on the slit bundle y != 0."""


@dataclass(frozen=True)
class ChartManifold:
    """A single coordinate chart: an open box in R^dim.

    All geometry in this package happens in one chart.  Operations raise
    ChartDomainError rather than extrapolate outside the `jets.DomainBox`.
    """

    dim: int
    lo: tuple
    hi: tuple
    name: str = "chart"

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != self.dim or len(hi) != self.dim:
            raise ValueError("bounds must have one entry per dimension")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("chart box must have lo < hi in every coordinate")
        object.__setattr__(self, "_box", DomainBox(lo, hi, self.dim))

    def require(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise ValueError(f"point has {x.shape[0]} coordinates, chart has {self.dim}")
        if self._box.side(x) is not None:
            raise ChartDomainError(
                f"{self.name}: point outside chart box "
                f"(lo={self.lo}, hi={self.hi})"
            )
        return x

    def interior_sampler(self, rng: np.random.Generator, margin_fraction: float = 0.1):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        pad = margin_fraction * (hi - lo)

        def draw():
            return rng.uniform(lo + pad, hi - pad)

        return draw


class FinslerNorm:
    """A Finsler norm F(x, y) on a chart, entered via its energy F^2/2.

    `fsq` must map two lists of jets (x components, y components) to the jet
    of F^2; it is also called with plain floats/arrays by the sampling
    helpers, so it should stick to arithmetic and the sqrt/sin/cos/exp/log
    methods, which both jets and numpy arrays provide through the same
    operator surface.
    """

    def __init__(self, manifold: ChartManifold, fsq, name: str):
        self.manifold = manifold
        self.dim = manifold.dim
        self._fsq = fsq
        self.name = name

    def __repr__(self):
        return f"FinslerNorm({self.name!r}, dim={self.dim})"

    # -- plain evaluation ----------------------------------------------------

    def squared_value(self, x, y):
        x = self.manifold.require(x)
        y = np.asarray(y, dtype=float)
        return self._fsq(list(x), list(y))

    def value(self, x, y):
        """F(x, y); y may carry a trailing batch axis."""
        return np.sqrt(self.squared_value(x, y))

    def normalize(self, x, y):
        """Rescale y to the indicatrix F = 1."""
        f = self.value(x, y)
        if np.any(f <= 0.0):
            raise ValueError("cannot normalize a vector of zero norm")
        return np.asarray(y, dtype=float) / f

    # -- jet evaluation ------------------------------------------------------

    def energy_jet(self, x, y, xcap: int, ycap: int, total: int | None = None) -> Jet:
        """Jet of E = F^2/2 at (x, y) with per-group caps (xcap, ycap), cut
        to total degree `total` when given.

        y entries may be (B,) arrays for a batched evaluation at a shared x.
        """
        x = self.manifold.require(x)
        n = self.dim
        space = JetSpace.create(((n, xcap), (n, ycap)), total)
        xj = [Jet.variable(space, i, x[i]) for i in range(n)]
        yj = [Jet.variable(space, n + i, np.asarray(y[i], dtype=float)) for i in range(n)]
        return self._fsq(xj, yj) * 0.5

    @classmethod
    def from_expression(cls, text: str, lo, hi, name: str = "expression"):
        """Build a norm from an expression for F in x1..xn, y1..yn."""
        lo = tuple(float(v) for v in lo)
        dim = len(lo)
        manifold = ChartManifold(dim, lo, hi, name=name)
        names = tuple(f"x{i+1}" for i in range(dim)) + tuple(f"y{i+1}" for i in range(dim))
        expr = parse_expression(text, names)

        def fsq(xs, ys):
            f = expr(*xs, *ys)
            return f * f

        return cls(manifold, fsq, name=name)


# -- catalog ------------------------------------------------------------------


def _euclidean_fsq(xs, ys):
    acc = ys[0] * ys[0]
    for v in ys[1:]:
        acc = acc + v * v
    return acc


def _make_euclidean():
    man = ChartManifold(2, (-10.0,) * 2, (10.0,) * 2, name="euclidean")
    return FinslerNorm(man, _euclidean_fsq, "euclidean")


def _make_flat_torus():
    # flat metric of period 2 pi; the chart spans several fundamental domains
    # so loops fit
    man = ChartManifold(2, (-4.0 * np.pi,) * 2, (4.0 * np.pi,) * 2, name="flat_torus")
    return FinslerNorm(man, _euclidean_fsq, "flat_torus")


def _make_sphere():
    # unit round sphere in polar coordinates (theta, phi); stay 0.2 away from
    # the poles
    man = ChartManifold(
        2,
        (0.2, -2.0 * np.pi),
        (np.pi - 0.2, 2.0 * np.pi),
        name="sphere",
    )

    def fsq(xs, ys):
        s = xs[0].sin() if isinstance(xs[0], Jet) else np.sin(xs[0])
        return ys[0] * ys[0] + (s * s) * (ys[1] * ys[1])

    return FinslerNorm(man, fsq, "sphere")


def _make_funk_disk():
    # Funk metric on the unit disk; the chart is a box inscribed well inside
    man = ChartManifold(2, (-0.63,) * 2, (0.63,) * 2, name="funk_disk")

    def fsq(xs, ys):
        ip = xs[0] * ys[0] + xs[1] * ys[1]
        xx = xs[0] * xs[0] + xs[1] * xs[1]
        yy = ys[0] * ys[0] + ys[1] * ys[1]
        q = 1.0 - xx
        rad = q * yy + ip * ip
        root = rad.sqrt() if isinstance(rad, Jet) else np.sqrt(rad)
        f = (root + ip) / q
        return f * f

    return FinslerNorm(man, fsq, "funk_disk")


_CATALOG = {
    "euclidean": _make_euclidean,
    "flat_torus": _make_flat_torus,
    "sphere": _make_sphere,
    "funk_disk": _make_funk_disk,
}


def catalog_names() -> tuple:
    return tuple(sorted(_CATALOG))


def catalog_norm(name: str) -> FinslerNorm:
    """Instantiate a catalog norm: euclidean, flat_torus, sphere, funk_disk."""
    try:
        maker = _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown norm {name!r}; available: {', '.join(catalog_names())}") from None
    return maker()


def indicatrix_samples(norm: FinslerNorm, p, count: int, offset: float = 0.0) -> np.ndarray:
    """`count` vectors on the indicatrix F(p, .) = 1, shape (n, count).

    Directions come from a uniform Euclidean grid (angles in the plane),
    rescaled radially by 1/F.  In dimension >= 3 the grid is replaced by a
    deterministic low-discrepancy spiral on the unit sphere.
    """
    p = np.asarray(p, dtype=float)
    n = norm.dim
    if count < 1:
        raise ValueError("need at least one sample")
    if n == 2:
        ang = offset + 2.0 * np.pi * np.arange(count) / count
        dirs = np.stack([np.cos(ang), np.sin(ang)])
    elif n == 3:
        # Fibonacci-type spiral: deterministic, roughly even coverage
        k = np.arange(count) + 0.5
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        z = 1.0 - 2.0 * k / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        th = 2.0 * np.pi * k / golden
        dirs = np.stack([r * np.cos(th), r * np.sin(th), z])
    else:
        raise NotImplementedError("indicatrix sampling implemented for dim 2 and 3")
    return dirs / norm.value(p, dirs)


# -- derived tables -----------------------------------------------------------


@dataclass(frozen=True)
class MetricTensor:
    """Fundamental tensor at one (x, y), with inverse and conditioning."""

    matrix: np.ndarray
    inverse: np.ndarray
    condition: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class SprayData:
    """Spray coefficients and their y-derivatives at one (x, y).

    G has shape (n,), G_j has (n, n) with G_j[i, j] = dG^i/dy^j, and G_jk has
    (n, n, n) with G_jk[i, j, k] = d^2 G^i / dy^j dy^k.  Batched y appends a
    trailing axis to each.
    """

    G: np.ndarray
    G_j: np.ndarray
    G_jk: np.ndarray | None = None


def _check_y(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if ((y * y).sum(0) == 0.0).any():
        raise ConicDomainError("tables are undefined at y = 0")
    return y


def metric_tensor(norm: FinslerNorm, x, y) -> MetricTensor:
    """g_ij = d^2(F^2/2)/dy^i dy^j at a single (x, y), y != 0."""
    y = _check_y(y)
    if y.ndim != 1:
        raise ValueError("metric_tensor takes a single tangent vector")
    n = norm.dim
    E = norm.energy_jet(x, y, xcap=0, ycap=2)
    steps = [(n + i, n + j) for i in range(n) for j in range(n)]
    g = E.read(steps, ((n, 0), (n, 0))).value.reshape(n, n)
    eig = np.linalg.eigvalsh(g)
    if eig[0] <= 0.0:
        raise MetricDegeneracyError(
            f"fundamental tensor not positive definite at x={x}, y={y}: eigenvalues {eig}"
        )
    condition = float(eig[-1] / eig[0])
    if condition > CONDITION_LIMIT:
        raise MetricDegeneracyError(
            f"fundamental tensor ill conditioned ({condition:.3e} > {CONDITION_LIMIT:.0e})"
        )
    return MetricTensor(g, np.linalg.inv(g), condition, eig)


@functools.cache
def _spray_reads(n: int) -> tuple:
    """The reads of E's tables in `spray_jets`, y step first, row by row: row
    i holds d^2E/dy^c dx^i in column c < n, g_ic = d^2E/dy^min(i,c) dy^max(i,c)
    in column n + c and dE/dx^i in column 2n."""
    rows = [
        [(n + c, i) for c in range(n)] + [(n + min(i, c), n + max(i, c)) for c in range(n)] + [(i,)]
        for i in range(n)
    ]
    return tuple(sum(rows, []))


def spray_jets(norm: FinslerNorm, x, y, xorder: int = 0, yorder: int = 0) -> Jet:
    """The jet of the spray coefficients G^i at (x, y), of value shape (n, *batch).

    The jet lives in the bundle space with caps (xorder, yorder), so it
    retains xorder x-derivatives and yorder y-derivatives of each G^i.
    y may be batched: pass components that are (B,) arrays.
    """
    y = _check_y(y)
    n = norm.dim
    E = norm.energy_jet(x, list(y), xcap=xorder + 1, ycap=yorder + 2, total=xorder + yorder + 2)
    target = ((n, xorder), (n, yorder))
    space = grouped_space(target)
    tables = E.read(_spray_reads(n), target).coeffs
    tables = tables.reshape((space.size, n, 2 * n + 1) + tables.shape[2:])
    # y^k d^2E/dx^k dy^l for every (k, l) in one product, summed in k order
    ys = Jet.stack([Jet.variable(space, n + k, y[k]) for k in range(n)]).coeffs
    rhs = Jet(space, space.product(ys[:, :, None], tables[:, :, :n])).sum().coeffs
    # the right-hand side replaces dE/dx as column 2n: [g | rhs] is the system
    tables[:, :, 2 * n] = rhs + -tables[:, :, 2 * n]
    try:
        return solve(Jet(space, tables[:, :, n : 2 * n]), Jet(space, tables[:, :, 2 * n])) * 0.5
    except JetDomainError:
        raise MetricDegeneracyError("fundamental tensor singular in the spray solve") from None


def geodesic_coefficients(norm: FinslerNorm, x, y, with_second: bool = True) -> SprayData:
    """Spray values G^i, connection G^i_j, and optionally G^i_{jk} at (x, y)."""
    ys = range(norm.dim, 2 * norm.dim)
    G = spray_jets(norm, x, y, xorder=0, yorder=2 if with_second else 1)
    Gy = G.gradient(ys, axis=1)
    Gyy = Gy.gradient(ys, axis=2).value if with_second else None
    return SprayData(G.value, Gy.value, Gyy)


def connection_values(norm: FinslerNorm, x, y) -> np.ndarray:
    """G^i_j at (x, y); the parallel transport right-hand side. Batched in y."""
    G = spray_jets(norm, x, y, xorder=0, yorder=1)
    return G.gradient(range(norm.dim, 2 * norm.dim), axis=1).value


# -- diagnostics ---------------------------------------------------------------


@dataclass
class NormReport:
    """Sampled health check of a norm: positivity, homogeneity, convexity.

    Measurements only; the caller grades them against its tolerances.
    """

    name: str
    samples: int
    positivity_failures: int
    homogeneity_residual: float
    convexity_failures: int
    min_eigenvalue: float | None  # None when no sample gave a positive definite g
    max_condition: float
    jet_consistency: float


def norm_diagnostics(norm: FinslerNorm, samples: int = 40, seed: int = 0) -> NormReport:
    """Sample the chart and check the axioms that make the tables valid.

    Positivity of F away from y = 0, positive 1-homogeneity in y, positive
    definiteness of g, and agreement of the jet pipeline's value part with
    direct numeric evaluation.
    """
    rng = np.random.default_rng(seed)
    draw = norm.manifold.interior_sampler(rng)
    n = norm.dim
    positivity = 0
    convexity = 0
    hom = 0.0
    jet_consistency = 0.0
    min_eig = np.inf
    max_cond = 0.0
    for _ in range(samples):
        x = draw()
        y = rng.normal(size=n)
        y /= np.linalg.norm(y)
        f = float(norm.value(x, y))
        if not np.isfinite(f) or f <= 0.0:
            positivity += 1
            continue
        for lam in (0.5, 2.0, 3.7):
            resid = abs(float(norm.value(x, lam * y)) - lam * f) / max(1.0, f)
            hom = float(np.maximum(hom, resid))  # keeps a NaN, which max() would drop
        try:
            mt = metric_tensor(norm, x, y)
            min_eig = min(min_eig, float(mt.eigenvalues[0]))
            max_cond = max(max_cond, mt.condition)
        except MetricDegeneracyError:
            convexity += 1
        E = norm.energy_jet(x, y, xcap=0, ycap=2)
        jet_consistency = float(
            np.maximum(jet_consistency, abs(2.0 * float(E.value) - f * f) / max(1.0, f * f))
        )
    return NormReport(
        name=norm.name,
        samples=samples,
        positivity_failures=positivity,
        homogeneity_residual=hom,
        convexity_failures=convexity,
        min_eigenvalue=float(min_eig) if np.isfinite(min_eig) else None,
        max_condition=float(max_cond),
        jet_consistency=jet_consistency,
    )
