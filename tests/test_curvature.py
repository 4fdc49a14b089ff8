import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from holonomylab import curvature, transport
from holonomylab.curvature import (
    IndicatrixVectorField,
    berwald_covariant_derivative,
    constant_base_field,
    coordinate_fields,
    curvature_field,
    fiber_bracket,
    horizontal_field,
    ihol_generators,
    vertical_field,
)
from holonomylab.finsler import (
    FinslerNorm,
    catalog_names,
    catalog_norm,
    indicatrix_samples,
    spray_jets,
)
from holonomylab.jets import Jet, SmoothMap, compose_table, grouped_space, jet_space, tally
from holonomylab.liealg import inclusion_chain_report
from holonomylab.transport import (
    CurveSpec,
    ParallelogramTransporter,
    parallel_transport,
    parallelogram_derivatives,
)


@pytest.fixture(scope="module")
def sphere():
    return catalog_norm("sphere")


@pytest.fixture(scope="module")
def funk():
    return catalog_norm("funk_disk")


def field_rank(fields, norm, p, count=25, tol=1e-7):
    ys = indicatrix_samples(norm, p, count)
    rows = np.stack([f.values(ys).ravel() for f in fields])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > tol * s[0])) if s[0] > 0 else 0


def bundle_bracket_value(A, B, z):
    # [A, B]^i = A^j d_j B^i - B^j d_j A^i from order-1 Taylor tables
    ta, tb = A.taylor(z, 1).unstack(), B.taylor(z, 1).unstack()
    m = len(ta)
    av = np.array([float(t.value) for t in ta])
    bv = np.array([float(t.value) for t in tb])
    da = np.array([[float(ta[i].derivative_table(j).value) for j in range(m)] for i in range(m)])
    db = np.array([[float(tb[i].derivative_table(j).value) for j in range(m)] for i in range(m)])
    return db @ av - da @ bv


# -- the frozen sign convention ----------------------------------------------


def test_equator_field_matches_transport_oracle(sphere):
    # the pinned reference configuration: d^2/dt^2 h_t(d_theta) = (0, 2) there
    p = np.array([np.pi / 2, 0.0])
    e0, e1 = coordinate_fields(sphere.manifold)
    xi = curvature_field(sphere, e0, e1, p)
    assert np.allclose(xi.values([1.0, 0.0]), [0.0, 1.0], atol=1e-10)


def test_sphere_curvature_matches_parallelogram_at_general_point(sphere):
    # quadratic G.G terms are nonzero away from the equator; the sign
    # convention has to survive them too
    q = np.array([0.9, 0.4])
    X = constant_base_field(sphere.manifold, [1.0, 0.0], "X")
    Y = constant_base_field(sphere.manifold, [0.0, 1.0], "Y")
    v = sphere.normalize(q, np.array([0.5, 1.0]))
    xi = curvature_field(sphere, X, Y, q)
    (_, _), (second, err) = parallelogram_derivatives(sphere, X, Y, q, v)
    assert err < 1e-6
    assert np.linalg.norm(second - 2.0 * xi.values(v)) < 1e-6 * np.linalg.norm(second)


def test_funk_curvature_matches_parallelogram(funk):
    q = np.array([0.3, 0.0])
    X = constant_base_field(funk.manifold, [1.0, 0.0], "X")
    Y = constant_base_field(funk.manifold, [0.0, 1.0], "Y")
    v = funk.normalize(q, np.array([0.2, 0.9]))
    xi = curvature_field(funk, X, Y, q)
    (_, _), (second, err) = parallelogram_derivatives(funk, X, Y, q, v)
    assert err < 1e-6
    assert np.linalg.norm(second - 2.0 * xi.values(v)) < 1e-6 * max(np.linalg.norm(second), 1.0)


# -- algebraic structure -------------------------------------------------------


def test_antisymmetry(funk):
    q = np.array([0.25, -0.1])
    X = constant_base_field(funk.manifold, [0.8, 0.3], "X")
    Y = constant_base_field(funk.manifold, [-0.2, 1.1], "Y")
    ys = indicatrix_samples(funk, q, 7)
    fwd = curvature_field(funk, X, Y, q).values(ys)
    rev = curvature_field(funk, Y, X, q).values(ys)
    assert np.max(np.abs(fwd + rev)) < 1e-10
    diag = curvature_field(funk, X, X, q).values(ys)
    assert np.max(np.abs(diag)) < 1e-10


def test_bilinearity(funk):
    q = np.array([0.3, 0.0])
    man = funk.manifold
    X = constant_base_field(man, [1.0, 0.2], "X")
    Z = constant_base_field(man, [-0.4, 0.9], "Z")
    Y = constant_base_field(man, [0.3, -1.0], "Y")
    a, b = 1.7, -0.6
    comb = constant_base_field(man, a * np.array([1.0, 0.2]) + b * np.array([-0.4, 0.9]), "aX+bZ")
    ys = indicatrix_samples(funk, q, 9)
    lhs = curvature_field(funk, comb, Y, q).values(ys)
    rhs = a * curvature_field(funk, X, Y, q).values(ys) + b * curvature_field(funk, Z, Y, q).values(ys)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_raw_components_one_homogeneous(funk):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    xi = curvature_field(funk, e0, e1, q)
    y = funk.normalize(q, np.array([0.6, 0.8]))
    base = xi.values(y)
    for lam in (0.5, 2.0, 3.7):
        assert np.allclose(xi.values(lam * y), lam * base, rtol=1e-10, atol=1e-12)


def test_riemannian_fields_are_linear_in_y(sphere):
    # quadratic-metric sprays make R linear in y: second y-derivatives vanish
    q = np.array([0.9, 0.4])
    e0, e1 = coordinate_fields(sphere.manifold)
    jets = curvature_field(sphere, e0, e1, q).bundle_jets(0, 2, np.array([0.6, 0.8]))
    n = 2
    for i in range(n):
        for a in range(n):
            for b in range(n):
                d2 = jets.at(i).derivative_table(n + a).derivative_table(n + b).value
                assert abs(float(d2)) < 1e-8


def test_funk_fields_are_not_linear_in_y(funk):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    y = funk.normalize(q, np.array([0.6, 0.8]))
    jets = curvature_field(funk, e0, e1, q).bundle_jets(0, 2, y)
    n = 2
    worst = max(
        abs(float(jets.at(i).derivative_table(n + a).derivative_table(n + b).value))
        for i in range(n)
        for a in range(n)
        for b in range(n)
    )
    assert worst > 1e-2


# -- extension and tangency ------------------------------------------------------


def test_radialized_agrees_on_indicatrix_and_is_degree_zero(funk):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    raw = curvature_field(funk, e0, e1, q)
    rad = raw.radialized()
    y = funk.normalize(q, np.array([-0.5, 0.9]))
    assert np.allclose(raw.values(y), rad.values(y), atol=1e-12)
    for lam in (0.5, 2.0, 3.7):
        assert np.allclose(rad.values(lam * y), rad.values(y), rtol=1e-10, atol=1e-12)
    assert rad.homogeneity == 0
    assert rad.radialized() is rad


def test_radialized_euler_identity(funk):
    # degree 0 means the radial y-derivative vanishes identically
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    rad = curvature_field(funk, e0, e1, q).radialized()
    y = funk.normalize(q, np.array([0.6, 0.8]))
    jets = rad.bundle_jets(0, 1, y)
    n = 2
    for i in range(n):
        radial = sum(y[k] * float(jets.at(i).derivative_table(n + k).value) for k in range(n))
        assert abs(radial) < 1e-12


def composed_radialization(field, xcap, ycap, yc):
    """xi(x, y / F(x, y)) by composing the raw field's Taylor table with the
    jets of u = y / F.  An x-derivative of the composite can fall on the
    u-arguments, so the table is taken at y-cap xcap + ycap."""
    norm, p, n = field.norm, field.p, field.dim
    space = grouped_space(((n, xcap), (n, ycap)))
    E = norm.energy_jet(p, list(yc), xcap=xcap, ycap=ycap)
    y = Jet.stack([Jet.variable(space, n + i, yc[i]) for i in range(n)])
    u = y / (2.0 * E).sqrt()
    table = field.bundle_jets(xcap, xcap + ycap, u.value)
    batch = np.zeros(yc.shape[1:])
    xj = [Jet.variable(space, i, p[i]) + batch for i in range(n)]
    center = np.concatenate([p.reshape(p.shape + (1,) * batch.ndim) + batch, u.value])
    return compose_table(table, xj + u.unstack(), center)


RADIALIZATION_CASES = {
    "euclidean": [0.2, -0.5],
    "flat_torus": [0.2, -0.5],
    "sphere": [0.9, 0.4],
    "funk_disk": [0.3, 0.0],
}


def radialization_norms():
    # every catalog norm, plus a non-Riemannian expression chart with curvature
    for name in catalog_names():
        yield pytest.param(catalog_norm(name), np.array(RADIALIZATION_CASES[name]), id=name)
    text = "sqrt(y1^2 + (1 + x1^2) * y2^2) + 0.2 * x1 * y2"
    norm = FinslerNorm.from_expression(text, [-0.5, -0.5], [0.5, 0.5])
    yield pytest.param(norm, np.array([0.2, 0.1]), id="expression")


@pytest.mark.parametrize("norm, q", list(radialization_norms()))
def test_radialized_matches_composition(norm, q):
    # the division by F against the composition route, coefficient by coefficient
    e0, e1 = coordinate_fields(norm.manifold)
    raw = curvature_field(norm, e0, e1, q)
    rad = raw.radialized()
    on = norm.normalize(q, np.array([0.6, -0.8]))
    batch = indicatrix_samples(norm, q, 3) * np.array([0.5, 1.0, 3.0])
    for xcap, ycap in ((0, 0), (0, 2), (1, 1), (2, 2), (1, 3)):
        for yc in (on, 0.5 * on, 3.0 * on, batch):
            want = composed_radialization(raw, xcap, ycap, yc)
            got = rad.bundle_jets(xcap, ycap, yc)
            assert got.space is want.space and got.shape == want.shape
            scale = np.max(np.abs(want.coeffs))
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10 * scale, (xcap, ycap)


def divided_field(manifold):
    """A base field that varies with x and divides: at every base point of
    `radialization_norms` some component rounds differently as a float
    quotient a / b than as the jet quotient a * (1 / b)."""

    def fun(xs):
        return [(xs[1] + 0.3) / (xs[0] + 0.7), xs[0] / (xs[1] + 1.3)]

    return SmoothMap(fun, 2, lo=manifold.lo, hi=manifold.hi, name="V")


def field_kinds(norm, q, base):
    """One field of each kind over q from the two base fields `base`: a raw
    curvature field, and the radialized field, a covariant derivative and a
    bracket of a depth-1 ihol family."""
    gen = ihol_generators(norm, q, fields=base, depth=1)
    return {
        "curvature": curvature_field(norm, *base, q),
        "radialized": gen[0],
        "covariant-derivative": gen[2],
        "bracket": fiber_bracket(gen[1], gen[2]),
    }


def assert_same_bits(got, want, where):
    assert got.space is want.space, where
    assert got.coeffs.shape == want.coeffs.shape, where
    assert got.coeffs.tobytes() == want.coeffs.tobytes(), where


@pytest.mark.parametrize("norm, q", list(radialization_norms()))
def test_dominated_reads_equal_fresh_evaluations(norm, q):
    # after a read at caps (1, 2), every read at caps <= (1, 2), x-cap 0
    # included, is a truncation that asks for no spray table, and it has the
    # bits of the same read from a fresh family, for constant base fields and
    # for one that varies and divides; likewise for the spray memo
    ys = indicatrix_samples(norm, q, 3)
    e0, e1 = coordinate_fields(norm.manifold)
    for yc, base in itertools.product((ys[:, 0], ys), ([e0, e1], [divided_field(norm.manifold), e1])):
        for kind, field in field_kinds(norm, q, base).items():
            field.bundle_jets(1, 2, yc)
            for caps in itertools.product(range(2), range(3)):
                with tally() as counts:
                    got = field.bundle_jets(*caps, yc)
                assert counts["spray_tables"]["requests"] == 0
                want = field_kinds(norm, q, base)[kind].bundle_jets(*caps, yc)
                assert_same_bits(got, want, (kind, base[0].name, caps))
    for yc in (ys[:, 0], ys):
        memo = curvature._SprayMemo(norm, q)
        memo.get(2, 4, yc)
        for caps in itertools.product(range(3), range(5)):
            with tally() as counts:
                got = memo.get(*caps, yc)
            assert counts["spray_tables"] == {"requests": 1, "computed": 0}
            want = spray_jets(norm, q, list(yc), xorder=caps[0], yorder=caps[1])
            assert_same_bits(got, want, ("spray", caps))


def test_radialized_asks_the_parent_at_the_same_caps(funk):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    raw = curvature_field(funk, e0, e1, q)
    calls = []
    parent_jets = raw.bundle_jets

    def spy(xcap, ycap, yc):
        calls.append((xcap, ycap, np.array(yc)))
        return parent_jets(xcap, ycap, yc)

    raw.bundle_jets = spy
    rad = raw.radialized()
    ys = indicatrix_samples(funk, q, 4)
    for xcap, ycap, yc in ((0, 0, ys[:, 0]), (1, 3, ys), (2, 2, 2.0 * ys[:, 1])):
        calls.clear()
        rad.bundle_jets(xcap, ycap, yc)
        assert len(calls) == 1
        assert calls[0][:2] == (xcap, ycap) and np.array_equal(calls[0][2], yc)


def test_radialized_rejects_fields_without_degree_one(funk):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    xi = curvature_field(funk, e0, e1, q).radialized()
    derived = berwald_covariant_derivative(xi, e0)
    with pytest.raises(ValueError, match=re.escape(derived.label)):
        derived.radialized()

    def evaluator(xcap, ycap, yc):
        return xi.bundle_jets(xcap, ycap, yc)

    for degree in (None, 2):
        user = IndicatrixVectorField(funk, q, evaluator, "user", "my-field", homogeneity=degree)
        with pytest.raises(ValueError, match="my-field"):
            user.radialized()
    user = IndicatrixVectorField(funk, q, evaluator, "user", "my-field", homogeneity=0)
    assert user.radialized() is user


def test_tangency_of_all_produced_fields(sphere, funk):
    for norm, q in ((sphere, np.array([0.9, 0.4])), (funk, np.array([0.3, 0.0]))):
        gen = ihol_generators(norm, q, depth=2)
        ys = indicatrix_samples(norm, q, 16)
        for f in gen:
            assert f.tangency_residual(ys) < 1e-8, f.label


def test_values_batch_matches_singles(sphere):
    q = np.array([0.9, 0.4])
    e0, e1 = coordinate_fields(sphere.manifold)
    xi = curvature_field(sphere, e0, e1, q)
    ys = indicatrix_samples(sphere, q, 5)
    batch = xi.values(ys)
    for b in range(5):
        assert np.array_equal(xi.values(ys[:, b]), batch[:, b])


def test_taylor_lands_in_fiber_space(funk):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    xi = curvature_field(funk, e0, e1, q).radialized()
    y = funk.normalize(q, np.array([0.6, 0.8]))
    tab = xi.taylor(y, 2)
    assert tab.shape == (2,)
    assert tab.space is jet_space(2, 2)
    bj = xi.bundle_jets(0, 2, y)
    assert np.allclose(tab.at(0).derivative((1, 1)), bj.at(0).derivative((0, 0, 1, 1)))


# -- covariant derivative ----------------------------------------------------------


def test_berwald_equals_bundle_commutator(sphere, funk):
    for norm, q in ((sphere, np.array([0.9, 0.4])), (funk, np.array([0.25, -0.1]))):
        man = norm.manifold
        X = constant_base_field(man, [0.7, -0.4], "X")
        e0, e1 = coordinate_fields(man)
        xi = curvature_field(norm, e0, e1, q).radialized()
        dxi = berwald_covariant_derivative(xi, X)
        for seed in ([0.6, 0.8], [-1.0, 0.3]):
            v = norm.normalize(q, np.asarray(seed))
            z = np.concatenate([q, v])
            br = bundle_bracket_value(horizontal_field(norm, X), vertical_field(xi), z)
            assert np.max(np.abs(br[:2])) < 1e-12  # stays vertical
            assert np.max(np.abs(br[2:] - dxi.values(v))) < 1e-8


def test_berwald_sphere_closed_form(sphere):
    # for xi = radialized R(e0, e1) on the round sphere a short computation
    # gives D_e0 xi = (-sc y^phi, (c/s) y^theta)/F and D_e1 xi = 0
    q = np.array([0.9, 0.4])
    s, c = np.sin(q[0]), np.cos(q[0])
    e0, e1 = coordinate_fields(sphere.manifold)
    xi = curvature_field(sphere, e0, e1, q).radialized()
    d0 = berwald_covariant_derivative(xi, e0)
    d1 = berwald_covariant_derivative(xi, e1)
    for seed in ([0.6, 0.8], [0.6, -0.8], [-1.0, 0.3]):
        v = sphere.normalize(q, np.asarray(seed))
        want = np.array([-s * c * v[1], (c / s) * v[0]])
        assert np.allclose(d0.values(v), want, atol=1e-11)
        assert np.max(np.abs(d1.values(v))) < 1e-12


def test_berwald_radializes_degree_one_input(sphere):
    # passing the raw field must give the same result as radializing by hand
    q = np.array([0.9, 0.4])
    e0, e1 = coordinate_fields(sphere.manifold)
    raw = curvature_field(sphere, e0, e1, q)
    v = sphere.normalize(q, np.array([0.5, 1.0]))
    a = berwald_covariant_derivative(raw, e0).values(v)
    b = berwald_covariant_derivative(raw.radialized(), e0).values(v)
    assert np.allclose(a, b, atol=1e-12)


def test_bracket_antisymmetry_and_base_point_check(funk, sphere):
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    xi = curvature_field(funk, e0, e1, q).radialized()
    eta = berwald_covariant_derivative(xi, e0)
    ys = indicatrix_samples(funk, q, 6)
    ab = fiber_bracket(xi, eta).values(ys)
    ba = fiber_bracket(eta, xi).values(ys)
    assert np.max(np.abs(ab + ba)) < 1e-10
    other = curvature_field(funk, e0, e1, np.array([0.1, 0.2])).radialized()
    with pytest.raises(ValueError):
        fiber_bracket(xi, other)


# -- generator sets ---------------------------------------------------------------


def test_euclidean_generators_are_zero():
    euc = catalog_norm("euclidean")
    q = np.array([0.2, -0.5])
    gen = ihol_generators(euc, q, depth=2)
    assert len(gen) == 9
    ys = indicatrix_samples(euc, q, 12)
    for f in gen:
        assert np.max(np.abs(f.values(ys))) < 1e-12
    assert field_rank(gen, euc, q) == 0


def test_sphere_depth_zero_rank_one(sphere):
    q = np.array([0.9, 0.4])
    gen = ihol_generators(sphere, q, depth=0)
    assert len(gen) == 1
    assert field_rank(gen, sphere, q) == 1


def test_funk_rank_grows_with_depth(funk):
    q = np.array([0.3, 0.0])
    gen = ihol_generators(funk, q, depth=2)
    r0 = field_rank([f for f in gen if f.depth <= 0], funk, q)
    r2 = field_rank(gen, funk, q)
    assert r0 == 1
    assert r2 > r0
    # rank stable against sample refinement
    assert field_rank(gen, funk, q, count=50) == r2


def test_generator_log_is_replayable(funk):
    gen = ihol_generators(funk, [0.3, 0.0], depth=2)
    base_names = {b.name for b in coordinate_fields(funk.manifold)}
    seen = set()
    for f in gen:
        if f.provenance == "curvature":
            assert f.depth == 0
        elif f.provenance == "covariant-derivative":
            assert f.parents[0] in seen and f.parents[1] in base_names
        else:
            assert set(f.parents) <= seen
        seen.add(f.label)
    depths = [f.depth for f in gen]
    assert depths == sorted(depths)


# -- guards -----------------------------------------------------------------------


def test_provenance_tag_rejected(sphere):
    with pytest.raises(ValueError):
        IndicatrixVectorField(sphere, [0.9, 0.4], lambda *a: [], "mystery", "bad")


def test_vertical_field_anchored(sphere):
    q = np.array([0.9, 0.4])
    e0, e1 = coordinate_fields(sphere.manifold)
    vf = vertical_field(curvature_field(sphere, e0, e1, q))
    with pytest.raises(ValueError):
        vf.taylor(np.array([1.0, 0.4, 1.0, 0.0]), 1)


def test_constant_base_field_shape_check(sphere):
    with pytest.raises(ValueError):
        constant_base_field(sphere.manifold, [1.0, 0.0, 0.0])


# -- memoized evaluation ---------------------------------------------------------

BASE_POINTS = {
    "euclidean": [0.1, -0.3],
    "flat_torus": [0.5, 0.25],
    "sphere": [0.9, 0.4],
    "funk_disk": [0.3, 0.0],
}


def test_chain_computes_each_spray_table_once(funk, monkeypatch):
    # widest first: D^2 R asks for caps (3, 6), and every other table of
    # both closures is its truncation
    calls = []
    bare = curvature.spray_jets

    def counted(norm, x, y, xorder=0, yorder=0):
        calls.append((xorder, yorder, np.asarray(y, dtype=float).shape))
        return bare(norm, x, y, xorder=xorder, yorder=yorder)

    monkeypatch.setattr(curvature, "spray_jets", counted)
    with tally() as counts:
        rep = inclusion_chain_report(funk, (0.3, 0.0), depth=2)
    sprays = counts["spray_tables"]
    assert rep.ranks == (1, 15)
    assert calls == [(3, 6, (2, 50))]
    assert sprays["computed"] == 1
    assert sprays["requests"] > sprays["computed"]


def test_a_generator_list_is_one_family(funk, monkeypatch):
    # every field of an ihol list, derived ones included, reads the one
    # spray memo that the list built
    built = []

    class CountedMemo(curvature._SprayMemo):
        def __init__(self, norm, p):
            built.append(p)
            super().__init__(norm, p)

    monkeypatch.setattr(curvature, "_SprayMemo", CountedMemo)
    gen = ihol_generators(funk, (0.3, 0.0), depth=2)
    assert len(gen) == 9
    assert len(built) == 1
    assert all(f._sprays is gen[0]._sprays for f in gen)


def test_only_the_constructor_assigns_the_family_memo():
    package = Path(curvature.__file__).parent
    stores, allowed = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "IndicatrixVectorField":
                init = next(f for f in node.body if getattr(f, "name", None) == "__init__")
                allowed.update(id(n) for n in ast.walk(init))
        stores.extend(
            (path.name, node.lineno, id(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "_sprays"
            and isinstance(node.ctx, ast.Store)
        )
    assert len([s for s in stores if s[2] in allowed]) == 1
    assert [s[:2] for s in stores if s[2] not in allowed] == []


@pytest.mark.parametrize("name", catalog_names())
def test_memoized_reads_match_a_fresh_generator_set(name):
    norm = catalog_norm(name)
    p = BASE_POINTS[name]
    ys = indicatrix_samples(norm, p, 6)

    def tables(gen):
        out = []
        for f in gen:
            out.append(f.values(ys))
            out.extend(j.coeffs for j in f.taylor(ys, 2).unstack())
        return [(a.shape, a.tobytes()) for a in out]

    warm = ihol_generators(norm, p, depth=1)
    first, second = tables(warm), tables(warm)
    fresh = tables(ihol_generators(norm, p, depth=1))
    assert first == second == fresh

    field = warm[-1]
    jets = field.bundle_jets(1, 1, ys)
    before = jets.at(0).coeffs.copy()
    with pytest.raises(ValueError):
        jets.at(0).coeffs[0, 0] = 1.0
    assert np.array_equal(field.bundle_jets(1, 1, ys).at(0).coeffs, before)


def test_transport_oracle_never_reads_the_memos(funk, monkeypatch):
    q = np.array([0.3, 0.0])
    X = constant_base_field(funk.manifold, [1.0, 0.0], "X")
    Y = constant_base_field(funk.manifold, [0.0, 1.0], "Y")
    v = funk.normalize(q, np.array([0.2, 0.9]))
    curve = CurveSpec.line_segment(q, q + np.array([0.1, 0.2]))
    monkeypatch.setattr(transport, "H_SCHEDULE", (0.1, 0.05))

    def run():
        firsts, seconds = ParallelogramTransporter(funk, X, Y, q).difference_quotients(v)
        return firsts + seconds + [parallel_transport(funk, curve, v).y_end]

    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("memo read")

    monkeypatch.setattr(curvature._SprayMemo, "get", refuse)
    monkeypatch.setattr(IndicatrixVectorField, "bundle_jets", refuse)
    with pytest.raises(AssertionError, match="memo read"):
        curvature_field(funk, X, Y, q)._evaluator(0, 0, v)
    got = run()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
