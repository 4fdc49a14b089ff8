import dataclasses

import numpy as np
import pytest

from holonomylab import finsler
from holonomylab.jets import DomainBoxError, Jet, JetSpace, SmoothMap, solve
from holonomylab.finsler import (
    ChartDomainError,
    ChartManifold,
    FinslerNorm,
    MetricDegeneracyError,
    catalog_norm,
    connection_values,
    geodesic_coefficients,
    metric_tensor,
    norm_diagnostics,
    spray_jets,
)
from oracles import horizontal_lift

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below skips itself
    st = None


# Hand-derived reference for the round sphere in polar coordinates (theta, phi):
# geodesic equations give
#   G^theta = -(1/2) sin(theta) cos(theta) (y_phi)^2
#   G^phi   = cot(theta) y_theta y_phi
def sphere_spray_oracle(th, y):
    yt, yp = y
    cot = np.cos(th) / np.sin(th)
    return np.array([-0.5 * np.sin(th) * np.cos(th) * yp ** 2, cot * yt * yp])


def test_chart_box_validation():
    with pytest.raises(ValueError):
        ChartManifold(2, (0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        ChartManifold(1, (2.0,), (1.0,))
    m = ChartManifold(2, (0.0, 0.0), (1.0, 2.0))
    np.testing.assert_array_equal(m.require(np.array([0.5, 1.0])), [0.5, 1.0])
    with pytest.raises(ChartDomainError):
        m.require(np.array([1.5, 1.0]))
    with pytest.raises(ChartDomainError):
        m.require(np.array([-0.5, 0.5]))


def test_catalog_lists_four_norms():
    assert finsler.catalog_names() == ("euclidean", "flat_torus", "funk_disk", "sphere")
    with pytest.raises(KeyError):
        catalog_norm("hyperbolic")


def test_euclidean_tables_vanish():
    eu = catalog_norm("euclidean")
    sd = geodesic_coefficients(eu, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.max(np.abs(sd.G)) == 0.0
    assert np.max(np.abs(sd.G_j)) == 0.0
    assert np.max(np.abs(sd.G_jk)) == 0.0
    mt = metric_tensor(eu, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(mt.matrix, np.eye(2), atol=1e-14)


def test_sphere_metric_is_round():
    sph = catalog_norm("sphere")
    x = np.array([1.1, 0.3])
    mt = metric_tensor(sph, x, np.array([0.4, -0.7]))
    np.testing.assert_allclose(mt.matrix, np.diag([1.0, np.sin(1.1) ** 2]), atol=1e-13)
    np.testing.assert_allclose(mt.inverse @ mt.matrix, np.eye(2), atol=1e-12)


def test_sphere_spray_matches_geodesic_equations():
    sph = catalog_norm("sphere")
    rng = np.random.default_rng(3)
    for _ in range(5):
        th = rng.uniform(0.4, np.pi - 0.4)
        x = np.array([th, rng.uniform(-1, 1)])
        y = rng.normal(size=2)
        sd = geodesic_coefficients(sph, x, y)
        np.testing.assert_allclose(sd.G, sphere_spray_oracle(th, y), atol=1e-12)


def test_sphere_connection_and_berwald_tables():
    sph = catalog_norm("sphere")
    th = 1.1
    x = np.array([th, 0.3])
    y = np.array([0.4, -0.7])
    sd = geodesic_coefficients(sph, x, y)
    cot = np.cos(th) / np.sin(th)
    Gj = np.array(
        [[0.0, -np.sin(th) * np.cos(th) * y[1]], [cot * y[1], cot * y[0]]]
    )
    np.testing.assert_allclose(sd.G_j, Gj, atol=1e-13)
    np.testing.assert_allclose(
        sd.G_jk[0], [[0.0, 0.0], [0.0, -np.sin(th) * np.cos(th)]], atol=1e-13
    )
    np.testing.assert_allclose(sd.G_jk[1], [[0.0, cot], [cot, 0.0]], atol=1e-13)


def test_funk_spray_is_projective():
    # the Funk disk is projectively flat with factor F/2: G^i = (F/2) y^i
    funk = catalog_norm("funk_disk")
    rng = np.random.default_rng(11)
    for _ in range(6):
        x = rng.uniform(-0.6, 0.6, size=2)
        y = rng.normal(size=2)
        F = funk.value(x, y)
        sd = geodesic_coefficients(funk, x, y, with_second=False)
        np.testing.assert_allclose(sd.G, 0.5 * F * y, atol=1e-12 * max(1.0, F))


def test_funk_norm_positive_but_asymmetric():
    funk = catalog_norm("funk_disk")
    x = np.array([0.4, 0.0])
    y = np.array([1.0, 0.0])
    fwd = funk.value(x, y)
    back = funk.value(x, -y)
    assert fwd > 0 and back > 0
    assert abs(fwd - back) > 0.1  # reversibility fails for Funk


def test_spray_homogeneity():
    # G^i(x, λy) = λ^2 G^i(x, y) for λ > 0
    funk = catalog_norm("funk_disk")
    x = np.array([0.2, -0.3])
    y = np.array([0.7, 0.4])
    a = geodesic_coefficients(funk, x, y, with_second=False)
    b = geodesic_coefficients(funk, x, 3.0 * y, with_second=False)
    np.testing.assert_allclose(b.G, 9.0 * a.G, rtol=1e-11)
    np.testing.assert_allclose(b.G_j, 3.0 * a.G_j, rtol=1e-11)


def test_two_spray_routes_agree():
    # Euler-Lagrange assembly vs the textbook formula
    # 4 G^i = g^{il} (2 dg_jl/dx^k - dg_jk/dx^l) y^j y^k
    sph = catalog_norm("sphere")
    x = np.array([0.9, -0.4])
    y = np.array([0.3, 1.2])
    n = 2
    E = sph.energy_jet(x, y, xcap=1, ycap=2)

    def d(jet, xs=(), ys=()):
        a = [0] * (2 * n)
        for k in xs:
            a[k] += 1
        for j in ys:
            a[n + j] += 1
        return jet.derivative(tuple(a))

    g = np.array([[d(E, ys=(l, j)) for j in range(n)] for l in range(n)])
    dg = np.array(
        [[[d(E, xs=(k,), ys=(l, j)) for j in range(n)] for l in range(n)] for k in range(n)]
    )  # dg[k, l, j] = dg_lj/dx^k
    ginv = np.linalg.inv(g)
    G_alt = np.zeros(n)
    for i in range(n):
        for l in range(n):
            for j in range(n):
                for k in range(n):
                    G_alt[i] += 0.25 * ginv[i, l] * (2 * dg[k, j, l] - dg[l, j, k]) * y[j] * y[k]
    sd = geodesic_coefficients(sph, x, y, with_second=False)
    np.testing.assert_allclose(sd.G, G_alt, atol=1e-12)


# the expression norm of the transport tests: x-only factors under exp and log
WARPED = "sqrt((1 + 0.3*x1^2)*y1^2 + exp(x2)*y2^2) + 0.1*log(2 + x1)*y1"


def test_batched_connection_matches_singles():
    # what a lone transport request relies on: its base point given once,
    # shape (n,), has the bits of that point repeated over the columns, and
    # each column has the bits of its tangent vector alone
    norms = [catalog_norm("sphere"), catalog_norm("funk_disk"),
             FinslerNorm.from_expression(WARPED, [-1.0, -1.0], [1.0, 1.0])]
    rng = np.random.default_rng(5)
    for norm in norms:
        lo, hi = np.asarray(norm.manifold.lo), np.asarray(norm.manifold.hi)
        x = lo + rng.uniform(0.2, 0.8, size=2) * (hi - lo)
        ys = rng.normal(size=(2, 6))
        Gb = connection_values(norm, x, ys)
        assert Gb.shape == (2, 2, 6)
        repeated = connection_values(norm, np.repeat(x[:, None], 6, axis=1), ys)
        assert Gb.tobytes() == repeated.tobytes(), norm.name
        for b in range(6):
            single = connection_values(norm, x, ys[:, b])
            assert np.ascontiguousarray(Gb[:, :, b]).tobytes() == single.tobytes(), (norm.name, b)


def test_horizontal_lift_and_split():
    sph = catalog_norm("sphere")
    x = np.array([1.2, 0.1])
    y = np.array([0.5, -0.2])
    X = np.array([1.0, 2.0])
    lift = horizontal_lift(sph, x, y, X)
    Gj = connection_values(sph, x, y)
    np.testing.assert_allclose(lift, np.concatenate([X, -Gj @ X]), atol=1e-14)


def test_spray_jets_retain_x_derivatives():
    # finite difference in x of G^i_j vs the jet's mixed entry
    sph = catalog_norm("sphere")
    x = np.array([1.0, 0.0])
    y = np.array([0.6, 0.8])
    G = spray_jets(sph, x, y, xorder=1, yorder=1)
    h = 1e-6
    for i in range(2):
        for j in range(2):
            for k in range(2):
                alpha = [0, 0, 0, 0]
                alpha[k] += 1
                alpha[2 + j] += 1
                jet_val = G.at(i).derivative(tuple(alpha))
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (
                    connection_values(sph, xp, y)[i, j]
                    - connection_values(sph, xm, y)[i, j]
                ) / (2 * h)
                assert abs(jet_val - fd) < 5e-6, (i, j, k)


def test_expression_norm_matches_catalog():
    text = "sqrt(y1^2 + sin(x1)^2 * y2^2)"
    sph_expr = FinslerNorm.from_expression(
        text, lo=(0.2, -6.0), hi=(np.pi - 0.2, 6.0), name="sphere_expr"
    )
    sph = catalog_norm("sphere")
    x = np.array([1.3, 0.7])
    y = np.array([-0.2, 0.9])
    assert sph_expr.value(x, y) == pytest.approx(float(sph.value(x, y)), abs=1e-13)
    a = geodesic_coefficients(sph_expr, x, y)
    b = geodesic_coefficients(sph, x, y)
    np.testing.assert_allclose(a.G, b.G, atol=1e-11)
    np.testing.assert_allclose(a.G_jk, b.G_jk, atol=1e-10)


def test_metric_degeneracy_detected():
    # F = |y_1| alone is degenerate in the y_2 direction
    bad = FinslerNorm.from_expression("sqrt(y1^2)", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    with pytest.raises(MetricDegeneracyError):
        metric_tensor(bad, np.array([0.0, 0.0]), np.array([1.0, 0.5]))


def test_zero_vector_rejected():
    eu = catalog_norm("euclidean")
    with pytest.raises(ValueError):
        metric_tensor(eu, np.array([0.0, 0.0]), np.array([0.0, 0.0]))


def test_norm_diagnostics_pass_catalog():
    for name in finsler.catalog_names():
        rep = norm_diagnostics(catalog_norm(name), samples=12, seed=1)
        assert rep.positivity_failures == 0 and rep.convexity_failures == 0, (name, rep)
        assert rep.homogeneity_residual < 1e-8 and rep.jet_consistency < 1e-10, (name, rep)
    d = dataclasses.asdict(rep)
    assert set(d) >= {"homogeneity_residual", "max_condition"} and "passed" not in d


def test_diagnostics_flag_indefinite_norm():
    # "norm" with the wrong signature: F^2 = y1^2 - y2^2 has indefinite g
    weird = FinslerNorm(
        ChartManifold(2, (-1, -1), (1, 1), name="indefinite"),
        lambda xs, ys: ys[0] * ys[0] - ys[1] * ys[1],
        name="indefinite",
    )
    with np.errstate(invalid="ignore"):  # sqrt of the negative F^2 region
        rep = norm_diagnostics(weird, samples=10, seed=0)
    assert rep.convexity_failures + rep.positivity_failures > 0


@pytest.mark.parametrize("name", finsler.catalog_names())
def test_spray_jets_truncate_to_lower_caps_bitwise(name):
    # a spray table at caps (a, b) is the truncation of the table at any
    # larger caps, bit for bit, for a single y and for a batch
    points = {"euclidean": [0.1, -0.3], "flat_torus": [0.5, 0.25], "sphere": [0.9, 0.4], "funk_disk": [0.3, 0.0]}
    norm = catalog_norm(name)
    x = np.array(points[name])
    n = norm.dim
    single = norm.normalize(x, np.array([0.6, 0.8]))
    batch = np.stack([norm.normalize(x, v) for v in ([1.0, 0.2], [-0.3, 0.7], [0.5, -0.9])], axis=1)
    for y in (single, batch):
        top = spray_jets(norm, x, list(y), 3, 8)
        for a in range(4):
            for b in range(9):
                low = spray_jets(norm, x, list(y), a, b)
                for i in range(n):
                    cut = top.at(i).truncated(((n, a), (n, b)))
                    assert cut.space is low.at(i).space
                    assert np.array_equal(cut.coeffs, low.at(i).coeffs), (a, b, i)


def _spray_by_composition(norm, x, y, xorder, yorder):
    # spray_jets as the gradient / truncated composition:
    # G = 1/2 g^{-1} (y^k d^2E/dx^k dy - dE/dx), g read at (min, max) indices;
    # both sides solve with jets.solve (checked on its own in test_jets), so
    # this pins the one-read table layout and the right-hand side bit for bit
    y = np.asarray(y, dtype=float)
    n = norm.dim
    E = norm.energy_jet(x, list(y), xcap=xorder + 1, ycap=yorder + 2)
    target = ((n, xorder), (n, yorder))
    space = JetSpace.create(target)
    xs, ys = range(n), range(n, 2 * n)
    Ey = E.gradient(ys)
    rhs = None
    for k in range(n):
        term = Jet.variable(space, n + k, y[k]) * Ey.gradient((k,)).at(0).truncated(target)
        rhs = term if rhs is None else rhs + term
    rhs = rhs - E.gradient(xs).truncated(target)
    cols = Jet.stack([Ey.gradient((v,)).at(0).truncated(target) for v in ys] + [rhs], axis=1)
    l, j = np.indices((n, n + 1))
    aug = cols.at((np.minimum(l, j), np.maximum(l, j)))
    return solve(aug.at(np.s_[:, :n]), aug.at(np.s_[:, n])) * 0.5


SKEWED_3D = "sqrt(y1^2 + (1 + 0.2*x1^2)*y2^2 + exp(0.3*x2)*y3^2 + 0.4*x3*y1*y2) + 0.1*sin(x1)*y3"


@pytest.mark.parametrize("name", finsler.catalog_names() + ("skewed_3d",))
def test_spray_jets_is_the_gradient_composition_bitwise(name):
    if name == "skewed_3d":
        norm = FinslerNorm.from_expression(SKEWED_3D, [-0.5] * 3, [0.5] * 3, name=name)
    else:
        norm = catalog_norm(name)
    lo, hi = np.asarray(norm.manifold.lo), np.asarray(norm.manifold.hi)
    rng = np.random.default_rng(11)
    n = norm.dim
    for _ in range(2):
        x = lo + rng.uniform(0.2, 0.8, size=n) * (hi - lo)
        for y in (rng.normal(size=n), rng.normal(size=(n, 5))):
            for caps in ((0, 1), (1, 2), (2, 3)):
                got = spray_jets(norm, x, list(y), *caps)
                want = _spray_by_composition(norm, x, y, *caps)
                assert got.space is want.space and got.shape == want.shape
                assert got.coeffs.tobytes() == want.coeffs.tobytes(), caps


# a Riemannian expression metric whose energy jet runs through exp and log
EXP_LOG = "sqrt(exp(0.4*x1)*y1^2 + log(2 + x2^2)*y2^2 + 0.2*y1*y2)"


FULL_ENERGY_JET = FinslerNorm.energy_jet


def _uncapped_energy_jet(self, x, y, xcap, ycap, total=None):
    """`FinslerNorm.energy_jet` with no total cap: the reference for the cut."""
    return FULL_ENERGY_JET(self, x, y, xcap, ycap)

if st is None:

    def test_spray_jets_read_the_total_capped_energy_jet_bitwise():
        pytest.skip("hypothesis is not installed")

else:

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(finsler.catalog_names() + ("exp_log",)),
        st.integers(0, 2),
        st.integers(0, 3),
        st.sampled_from((None, 4)),
        st.integers(0, 2**32 - 1),
    )
    def test_spray_jets_read_the_total_capped_energy_jet_bitwise(name, xorder, yorder, batch, seed):
        # E cut to total degree xorder + yorder + 2 holds every entry the
        # three reads reach, with the bits of the jet without the cut
        if name == "exp_log":
            norm = FinslerNorm.from_expression(EXP_LOG, [-1.0, -1.0], [1.0, 1.0], name=name)
        else:
            norm = catalog_norm(name)
        rng = np.random.default_rng(seed)
        lo, hi = np.asarray(norm.manifold.lo), np.asarray(norm.manifold.hi)
        x = lo + rng.uniform(0.2, 0.8, size=2) * (hi - lo)
        y = list(rng.normal(size=2 if batch is None else (2, batch)))
        caps = dict(xcap=xorder + 1, ycap=yorder + 2)
        cut = norm.energy_jet(x, y, **caps, total=xorder + yorder + 2)
        full = norm.energy_jet(x, y, **caps)
        assert cut.space.size < full.space.size
        target = ((2, xorder), (2, yorder))
        reads = finsler._spray_reads(2)
        assert cut.read(reads, target).coeffs.tobytes() == full.read(reads, target).coeffs.tobytes()
        got = spray_jets(norm, x, y, xorder, yorder)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FinslerNorm, "energy_jet", _uncapped_energy_jet)
            want = spray_jets(norm, x, y, xorder, yorder)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def test_spray_jets_still_reject_zero_and_degenerate_metrics():
    sphere = catalog_norm("sphere")
    with pytest.raises(finsler.ConicDomainError):
        spray_jets(sphere, np.array([1.0, 0.0]), [0.0, 0.0], 0, 1)
    with pytest.raises(finsler.ConicDomainError):
        spray_jets(sphere, np.array([1.0, 0.0]), [np.array([1.0, 0.0]), np.array([0.5, 0.0])], 1, 2)
    # g = diag(1, x1^2) is singular on x1 = 0
    singular = FinslerNorm.from_expression("sqrt(y1^2 + x1^2*y2^2)", [-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(MetricDegeneracyError):
        spray_jets(singular, np.array([0.0, 0.3]), [0.6, 0.8], 0, 1)


def _smoothmap_verdict_by_arrays(lo, hi, v):
    # SmoothMap's box test on numpy arrays: x - lo < -slack or hi - x < -slack
    low = v.T - lo if v.ndim > 1 else v - lo
    if (low < -1e-9 * np.maximum(1.0, np.abs(lo))).any():
        return "below"
    high = hi - v.T if v.ndim > 1 else hi - v
    if (high < -1e-9 * np.maximum(1.0, np.abs(hi))).any():
        return "above"
    return None


if st is None:

    def test_domain_checks_keep_their_verdicts_at_the_walls():
        pytest.skip("hypothesis is not installed")

else:

    @st.composite
    def _boxes_and_points(draw):
        d = draw(st.integers(1, 3))
        lo = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
        hi = lo + np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
        walls = [
            lo - 1e-9 * np.maximum(1.0, np.abs(lo)), hi + 1e-9 * np.maximum(1.0, np.abs(hi)),
            lo - 1e-9 * np.maximum(hi - lo, 1.0), hi + 1e-9 * np.maximum(hi - lo, 1.0),
            lo, hi, 0.5 * (lo + hi), np.full(d, np.nan),
        ]
        batch = draw(st.sampled_from((None, 1, 3)))
        shape = (d,) if batch is None else (d, batch)
        x = np.empty(shape)
        for index in np.ndindex(shape):
            x[index] = walls[draw(st.integers(0, len(walls) - 1))][index[0]]
            ulps = draw(st.integers(-3, 3))
            for _ in range(abs(ulps)):
                x[index] = np.nextafter(x[index], np.inf if ulps > 0 else -np.inf)
        return lo, hi, x

    @settings(max_examples=400, deadline=None)
    @given(_boxes_and_points())
    def test_domain_checks_keep_their_verdicts_at_the_walls(case):
        # the walls are computed once per box; single points compare floats,
        # batches compare arrays, and both give the array expressions' verdict;
        # a chart has no wall rule of its own, so it decides as a map on its box
        lo, hi, x = case
        field = SmoothMap(lambda a: list(a), len(lo), lo=lo, hi=hi)
        try:
            field._check_domain(x)
            got = None
        except DomainBoxError as exc:
            got = "below" if "below" in str(exc) else "above"
        assert got == _smoothmap_verdict_by_arrays(lo, hi, x)
        chart = ChartManifold(len(lo), lo, hi)
        try:
            chart.require(x)
            outside = False
        except ChartDomainError:
            outside = True
        assert outside == (got is not None)
