import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from holonomylab import liealg
from holonomylab.curvature import coordinate_fields, curvature_field, fiber_bracket
from holonomylab.finsler import catalog_norm, indicatrix_samples
from holonomylab.jets import JetOrderError, SmoothMap, jet_space, Jet, richardson_extrapolate
from holonomylab.liealg import (
    BracketField,
    ExpressionField,
    FieldSpan,
    PolynomialField,
    inclusion_chain_report,
    lie_closure,
    numerical_rank,
)
from oracles import sine_flow, trig_closure_ranks


def const_field(vec, name=""):
    dim = len(vec)
    comps = [{(0,) * dim: v} if v else {} for v in vec]
    return PolynomialField(dim, comps, name=name)


def d_dx(dim, axis, name=None):
    e = [0.0] * dim
    e[axis] = 1.0
    return const_field(e, name or f"d{axis}")


def random_polynomial_field(rng, dim, degree=2, name=""):
    expos = [()]
    # all exponent tuples of total degree <= degree
    def extend(prefix, remaining, budget):
        if remaining == 0:
            expos.append(tuple(prefix))
            return
        for e in range(budget + 1):
            extend(prefix + [e], remaining - 1, budget - e)

    expos.clear()
    extend([], dim, degree)
    comps = [
        {e: rng.uniform(-1.0, 1.0) for e in expos}
        for _ in range(dim)
    ]
    return PolynomialField(dim, comps, name=name)


def values_at(f, pts):
    jets = f.taylor(pts, 0)
    return np.stack([np.atleast_1d(j.value) for j in jets.unstack()])


# -- brackets -----------------------------------------------------------------


def test_coordinate_fields_commute():
    b = BracketField(d_dx(2, 0), d_dx(2, 1))
    pts = np.array([[0.3, -1.2, 0.7], [0.1, 0.4, -0.9]])
    assert np.max(np.abs(values_at(b, pts))) == 0.0


def test_self_bracket_vanishes():
    rng = np.random.default_rng(7)
    X = random_polynomial_field(rng, 3, degree=2, name="X")
    b = BracketField(X, X)
    pts = rng.uniform(-1.0, 1.0, size=(3, 5))
    assert np.max(np.abs(values_at(b, pts))) < 1e-12


def test_rotation_bracket_symbolic_oracle():
    # [x d/dy, y d/dx] = x d/dx - y d/dy
    X = PolynomialField(2, [{}, {(1, 0): 1.0}], name="x dy")
    Y = PolynomialField(2, [{(0, 1): 1.0}, {}], name="y dx")
    expected = PolynomialField(2, [{(1, 0): 1.0}, {(0, 1): -1.0}])
    b = BracketField(X, Y)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(2, 6))
    assert np.allclose(values_at(b, pts), values_at(expected, pts), atol=1e-12)
    # first derivatives agree as well
    tb = b.taylor(pts[:, 0], 1)
    te = expected.taylor(pts[:, 0], 1)
    for jb, je in zip(tb.unstack(), te.unstack()):
        assert np.allclose(jb.coeffs, je.coeffs, atol=1e-12)


def test_antisymmetry_and_jacobi_randomized():
    rng = np.random.default_rng(11)
    X = random_polynomial_field(rng, 2, name="X")
    Y = random_polynomial_field(rng, 2, name="Y")
    Z = random_polynomial_field(rng, 2, name="Z")
    pts = rng.uniform(-1.0, 1.0, size=(2, 8))
    xy = values_at(BracketField(X, Y), pts)
    yx = values_at(BracketField(Y, X), pts)
    assert np.max(np.abs(xy + yx)) < 1e-10
    jac = (
        values_at(BracketField(X, BracketField(Y, Z)), pts)
        + values_at(BracketField(Y, BracketField(Z, X)), pts)
        + values_at(BracketField(Z, BracketField(X, Y)), pts)
    )
    assert np.max(np.abs(jac)) < 1e-10


def test_expression_field_matches_polynomial():
    rot_e = ExpressionField(("x", "y"), ("-y", "x"), name="rot")
    rot_p = PolynomialField(2, [{(0, 1): -1.0}, {(1, 0): 1.0}])
    pts = np.array([[0.5, -0.3], [1.1, 0.2]])
    assert np.allclose(values_at(rot_e, pts), values_at(rot_p, pts), atol=1e-15)
    b = BracketField(rot_e, d_dx(2, 0))
    # [rot, d/dx] = -d(rot)/dx = -d/dy
    assert np.allclose(values_at(b, pts), -values_at(d_dx(2, 1), pts), atol=1e-14)


def test_base_fields_bracket_directly():
    # base fields are SmoothMaps with a domain box; [rot, e0] = -d(rot)/dx = -e1
    man = catalog_norm("funk_disk").manifold
    rot = SmoothMap(lambda a: [-a[1], a[0]], 2, lo=man.lo, hi=man.hi, name="rot")
    e0, e1 = coordinate_fields(man)
    pts = np.array([[0.3, -0.5, 0.1, 0.6], [0.0, 0.4, -0.6, 0.2]])
    values = values_at(BracketField(rot, e0), pts)
    assert np.array_equal(values, np.tile([[0.0], [-1.0]], (1, pts.shape[1])))
    span, trace = lie_closure([rot, e0, e1], depth=2, points=pts)
    assert trace.termination == "rank-stable"
    assert len(span.fields) == 3 and numerical_rank(span, pts).rank == 3


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        BracketField(d_dx(2, 0), d_dx(3, 0))


def test_bracket_order_exhaustion_diagnostic():
    def fun(seeds):
        return [seeds[1], seeds[0] * seeds[1]]

    limited = SmoothMap(fun, 2, name="data", max_order=2)
    free = PolynomialField(2, [{(1, 0): 1.0}, {}], name="x dx")
    b = BracketField(limited, free)
    assert b.max_order == 1
    b.taylor(np.array([0.2, 0.3]), 1)  # still fine
    with pytest.raises(JetOrderError) as err:
        b.taylor(np.array([0.2, 0.3]), 2)
    assert "order 3" in str(err.value)
    bb = BracketField(b, free)
    with pytest.raises(JetOrderError):
        bb.taylor(np.array([0.2, 0.3]), 1)


def test_fiber_bracket_cross_check():
    # the generic bracket on fiber taylor tables agrees with the bundle-aware one
    funk = catalog_norm("funk_disk")
    q = np.array([0.3, 0.0])
    e0, e1 = coordinate_fields(funk.manifold)
    xi = curvature_field(funk, e0, e1, q).radialized()
    from holonomylab.curvature import berwald_covariant_derivative

    eta = berwald_covariant_derivative(xi, e0)
    ys = indicatrix_samples(funk, q, 6)
    generic = values_at(BracketField(xi, eta), ys)
    bundle = fiber_bracket(xi, eta).values(ys)
    assert np.allclose(generic, bundle, atol=1e-11)


# -- the circle: known closure ranks and the bracket by composed flows ----------

# each generator text as the trigonometric term it reads
_CIRCLE_TERMS = {
    "1": ("cos", 0), "sin(x)": ("sin", 1), "cos(x)": ("cos", 1),
    "sin(2*x)": ("sin", 2), "cos(2*x)": ("cos", 2),
}


@pytest.mark.parametrize(
    "texts, ranks, termination",
    [
        # two realizations of sl(2), the algebra of PSL(2, R) on the circle
        (("1", "sin(x)", "cos(x)"), [3], "rank-stable"),
        (("1", "sin(2*x)", "cos(2*x)"), [3], "rank-stable"),
        # each bracket raises the top Fourier mode: an algebra of infinite
        # dimension, exact ranks 3, 5, 9 and 17 at depths 1-4; depth 4 is not
        # asserted, since the sampled rank at tau reads 16 there
        (("sin(x)", "sin(2*x)"), [3, 5, 9], "depth-limit"),
    ],
)
def test_circle_closure_ranks_equal_the_exact_ones(texts, ranks, termination):
    fields = [ExpressionField(("x",), (text,), name=text) for text in texts]
    points = np.linspace(-np.pi, np.pi, 50, endpoint=False)[None, :]
    _, trace = lie_closure(fields, depth=len(ranks), points=points)
    exact = [{_CIRCLE_TERMS[text]: Fraction(1)} for text in texts]
    assert trig_closure_ranks(exact, len(ranks)) == (ranks, termination)
    assert ([g.rank_after for g in trace.generations], trace.termination) == (ranks, termination)


def test_circle_flow_commutator_is_minus_the_bracket():
    # C_t = phi^u_t o phi^v_t o phi^u_-t o phi^v_-t, by the closed-form flows,
    # gives C_t = id - t^2 [u, v] + O(t^3) with [u, v] = u v' - v u', the
    # bracket of `BracketField`: the group's bracket is minus the vector
    # fields' on Diff(M), as the matrix commutator family's mixed derivative
    # is YX - XY (grouplab).  Richardson in t over four steps reached 2.2e-7;
    # the raw quotient at t = 0.005 is off by 1.1e-2.
    u, v = ExpressionField(("x",), ("sin(x)",)), ExpressionField(("x",), ("sin(2*x)",))
    x = np.linspace(-3.0, 3.0, 13)
    steps = (0.04, 0.02, 0.01, 0.005)
    quotients = []
    for t in steps:
        c = sine_flow(2, -t, x)
        c = sine_flow(1, t, sine_flow(2, t, sine_flow(1, -t, c)))
        quotients.append((c - x) / t**2)
    limit, _ = richardson_extrapolate(quotients, steps, power=1.0)
    bracket = liealg.field_values(BracketField(u, v), x[None, :])[0]
    assert np.max(np.abs(limit + bracket)) < 1e-6  # 4.5x the measured 2.2e-7


# -- rank ---------------------------------------------------------------------


def test_rank_zero_fields():
    zero = const_field([0.0, 0.0], name="0")
    pts = np.array([[0.1, 0.5], [-0.2, 0.3]])
    rep = numerical_rank([zero, zero], pts)
    assert rep.rank == 0
    assert rep.stabilized


def test_rank_duplicate_field():
    f = PolynomialField(2, [{(1, 0): 1.0}, {(0, 1): 2.0}], name="f")
    pts = np.array([[0.4, -0.7, 1.2], [0.9, 0.2, -0.5]])
    rep = numerical_rank([f, f], pts)
    assert rep.rank == 1


def test_rank_three_generic_points():
    fields = [d_dx(2, 0), d_dx(2, 1), PolynomialField(2, [{(1, 0): 1.0}, {}], name="x dx")]
    pts = np.array([[0.7, -0.4, 1.3], [0.2, 0.9, -0.6]])
    rep = numerical_rank(fields, pts)
    assert rep.rank == 3
    assert rep.singular_values == tuple(sorted(rep.singular_values, reverse=True))


def test_rank_stabilization_and_monotonicity():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(2, 50))
    fields = [d_dx(2, 0), d_dx(2, 1), PolynomialField(2, [{(1, 0): 1.0}, {}], name="x dx")]
    rep = numerical_rank(fields, pts)
    assert rep.rank == 3
    assert rep.stabilized
    more = fields + [random_polynomial_field(rng, 2, name="extra")]
    assert numerical_rank(more, pts).rank >= rep.rank


def linear_combination(coeffs, fields, name=""):
    dim = fields[0].dim
    comps = []
    for i in range(dim):
        merged = {}
        for c, f in zip(coeffs, fields):
            for expo, val in f.components[i].items():
                merged[expo] = merged.get(expo, 0.0) + c * val
        comps.append(merged)
    return PolynomialField(dim, comps, name=name)


def test_rank_invariant_under_recombination():
    rng = np.random.default_rng(17)
    fields = [
        d_dx(2, 0),
        PolynomialField(2, [{}, {(1, 0): 1.0}], name="x dy"),
        random_polynomial_field(rng, 2, name="r"),
    ]
    pts = rng.uniform(-1.0, 1.0, size=(2, 50))
    base = numerical_rank(fields, pts).rank
    A = rng.uniform(-1.0, 1.0, size=(3, 3)) + 3.0 * np.eye(3)  # invertible mix
    recombined = [linear_combination(A[r], fields, name=f"mix{r}") for r in range(3)]
    assert numerical_rank(recombined, pts).rank == base


def test_field_span_shape_checks():
    with pytest.raises(ValueError):
        FieldSpan([], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FieldSpan([d_dx(2, 0), d_dx(3, 0)], np.zeros((2, 3)))


def test_rank_report_serialization():
    pts = np.array([[0.7, -0.4], [0.2, 0.9]])
    rep = numerical_rank([d_dx(2, 0), d_dx(2, 1)], pts)
    payload = dataclasses.asdict(rep)
    assert payload["rank"] == 2
    assert len(payload["singular_values"]) == 2


# -- closure --------------------------------------------------------------------


def test_closure_commuting_generators():
    pts = np.array([[0.3, -0.8, 1.1, 0.6], [0.5, 0.2, -0.4, -1.0]])
    span, trace = lie_closure([d_dx(2, 0), d_dx(2, 1)], depth=3, points=pts)
    assert len(span.fields) == 2
    assert trace.termination == "rank-stable"
    assert len(trace.generations) == 1
    assert trace.generations[0].rank_after == 2


def test_closure_redundant_bracket():
    # [d/dx, x d/dx] = d/dx: rank already present, nothing admitted
    fields = [d_dx(2, 0), PolynomialField(2, [{(1, 0): 1.0}, {}], name="x dx")]
    pts = np.array([[0.7, -0.4, 1.3, 0.5], [0.2, 0.9, -0.6, 1.4]])
    span, trace = lie_closure(fields, depth=3, points=pts)
    assert len(span.fields) == 2
    assert numerical_rank(span, pts).rank == 2
    assert trace.termination == "rank-stable"


def test_closure_heisenberg_pattern():
    # [d/dx, x d/dy] = d/dy: one new direction
    fields = [d_dx(2, 0), PolynomialField(2, [{}, {(1, 0): 1.0}], name="x dy")]
    pts = np.array([[0.7, -0.4, 1.3, 0.5], [0.2, 0.9, -0.6, 1.4]])
    span, trace = lie_closure(fields, depth=3, points=pts)
    assert numerical_rank(span, pts).rank == 3
    assert trace.generations[0].new_labels == ("[d0,x dy]",)
    new = span.fields[-1]
    assert np.allclose(values_at(new, pts), values_at(d_dx(2, 1), pts), atol=1e-12)


def test_closure_three_dim_heisenberg():
    # {d/dx, d/dy + x d/dz} generates d/dz
    X = d_dx(3, 0)
    Y = PolynomialField(3, [{}, {(0, 0, 0): 1.0}, {(1, 0, 0): 1.0}], name="dy+x dz")
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(3, 10))
    span, trace = lie_closure([X, Y], depth=3, points=pts)
    assert numerical_rank(span, pts).rank == 3
    assert trace.generations[0].rank_after == 3


def test_closure_idempotent():
    fields = [d_dx(2, 0), PolynomialField(2, [{}, {(1, 0): 1.0}], name="x dy")]
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1.0, 1.0, size=(2, 30))
    span1, _ = lie_closure(fields, depth=3, points=pts)
    r1 = numerical_rank(span1, pts).rank
    span2, trace2 = lie_closure(span1.fields, depth=3, points=pts)
    assert numerical_rank(span2, pts).rank == r1
    assert len(span2.fields) == len(span1.fields)


def test_closure_depth_limit_reported():
    # solvable pattern that keeps admitting for several generations:
    # [d/dx, x^k d/dy] = k x^{k-1} d/dy
    fields = [d_dx(2, 0), PolynomialField(2, [{}, {(3, 0): 1.0}], name="x3 dy")]
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1.0, 1.0, size=(2, 30))
    span, trace = lie_closure(fields, depth=2, points=pts)
    assert trace.termination == "depth-limit"
    ranks = [g.rank_after for g in trace.generations]
    assert ranks == sorted(ranks)


def test_closure_trace_serialization():
    fields = [d_dx(2, 0), PolynomialField(2, [{}, {(1, 0): 1.0}], name="x dy")]
    pts = np.array([[0.7, -0.4, 1.3, 0.5], [0.2, 0.9, -0.6, 1.4]])
    _, trace = lie_closure(fields, depth=3, points=pts)
    payload = dataclasses.asdict(trace)
    assert payload["termination"] == "rank-stable"
    assert payload["generations"][0]["rank_after"] == 3


def test_closure_evaluates_each_field_once(monkeypatch):
    # one field_values call per generator and per candidate: the returned
    # span keeps the rows that admission read
    evaluated, candidates = [], []
    bare = liealg.field_values

    def counted(f, points):
        evaluated.append(f)
        return bare(f, points)

    class CountedBracket(BracketField):
        def __init__(self, X, Y):
            super().__init__(X, Y)
            candidates.append(self)

    monkeypatch.setattr(liealg, "field_values", counted)
    monkeypatch.setattr(liealg, "BracketField", CountedBracket)
    X = d_dx(3, 0)
    Y = PolynomialField(3, [{}, {(0, 0, 0): 1.0}, {(1, 0, 0): 1.0}], name="dy+x dz")
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 10))
    span, trace = lie_closure([X, Y], depth=3, points=pts)
    assert len(span.fields) == 3 and candidates
    assert len(evaluated) == 2 + len(candidates)
    assert len({id(f) for f in evaluated}) == len(evaluated)
    monkeypatch.undo()
    assert np.array_equal(span.matrix, FieldSpan(span.fields, pts).matrix)


def test_closure_notes_truncation():
    def fun(seeds):
        return [seeds[1], seeds[0]]

    limited = SmoothMap(fun, 2, name="data", max_order=1)
    other = PolynomialField(2, [{(0, 1): 1.0}, {(1, 0): 2.0}], name="g")
    pts = np.array([[0.7, -0.4, 1.3], [0.2, 0.9, -0.6]])
    span, trace = lie_closure([limited, other], depth=2, points=pts)
    assert any("truncated" in note for note in trace.notes)



def test_default_points_are_scipy_halton_bitwise():
    from scipy.stats import qmc

    from holonomylab.liealg import _default_points

    for dim in range(1, 9):
        field = PolynomialField(dim, [{}] * dim)
        for count in (1, 50, 333):
            sampler = qmc.Halton(d=dim, scramble=False)
            sampler.fast_forward(1)
            expected = (2.0 * sampler.random(count) - 1.0).T
            got = _default_points(field, count)
            assert got.shape == expected.shape and np.array_equal(got, expected)


# -- inclusion chain ------------------------------------------------------------


def test_chain_euclidean_all_zero():
    euc = catalog_norm("euclidean")
    rep = inclusion_chain_report(euc, [0.1, -0.3], depth=2)
    assert rep.ranks == (0, 0)


def test_chain_sphere_so2():
    sphere = catalog_norm("sphere")
    rep = inclusion_chain_report(sphere, [0.9, 0.4], depth=2)
    assert rep.ranks == (1, 1)
    assert rep.curvature.stabilized and rep.ihol.stabilized


def test_chain_funk_monotone():
    funk = catalog_norm("funk_disk")
    rep = inclusion_chain_report(funk, [0.3, 0.0], depth=2)
    r_curv, r_ihol = rep.ranks
    assert r_curv <= r_ihol
    assert r_ihol > r_curv  # covariant derivatives add directions here
    assert r_ihol <= rep.ambient_bound
