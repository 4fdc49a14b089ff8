import contextlib
import itertools
import operator
import sys
import threading
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from holonomylab import jets
from holonomylab.curvature import constant_base_field, coordinate_fields
from holonomylab.expressions import parse_expression
from holonomylab.finsler import catalog_names, catalog_norm
from holonomylab.jets import (
    DomainBoxError,
    Jet,
    JetDomainError,
    JetOrderError,
    JetShapeError,
    SmoothMap,
    count,
    grouped_space,
    jet_point,
    jet_space,
    richardson_extrapolate,
    solve,
    tally,
)
from holonomylab.liealg import ExpressionField, PolynomialField
from oracles import compose_table, curve_derivative, finite_difference_weights, mixed_partial

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    st = None


def test_square_jet_matches_hand_derivatives():
    sp = jet_space(1, 2)
    x = Jet.variable(sp, 0, 3.0)
    f = x * x
    assert [f.derivative(k) for k in range(3)] == [9.0, 6.0, 2.0]


def test_first_order_product():
    sp = jet_space(1, 2)
    x = Jet.variable(sp, 0, 1.0)
    np.testing.assert_array_equal((x * x).coeffs, [1.0, 2.0, 1.0])


def test_sqrt_of_square_recovers_identity():
    sp = jet_space(1, 2)
    x = Jet.variable(sp, 0, 2.0)
    np.testing.assert_allclose((x * x).sqrt().coeffs, [2.0, 1.0, 0.0], atol=1e-14)


def test_polynomial_arithmetic_is_bit_exact():
    # ring ops on polynomial jets incur no rounding beyond the fp ops themselves
    sp = jet_space(1, 5)
    x = Jet.variable(sp, 0, 0.5)
    f = (x * x * x - 2.0 * x + 1.0) * (x * x + 4.0)
    expect = np.array(
        [P.polyval(0.5, P.polyder(P.polymul([1, -2, 0, 1], [4, 0, 1]), m)) for m in range(6)]
    )
    got = f.coeffs * sp.fact
    np.testing.assert_allclose(got, expect, rtol=1e-15)


def test_division_and_power_consistency():
    sp = jet_space(1, 4)
    x = Jet.variable(sp, 0, 1.3)
    lhs = (x ** 3 / x).coeffs
    rhs = (x * x).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)
    np.testing.assert_allclose((x ** -2).coeffs, (1.0 / (x * x)).coeffs, atol=1e-13)
    np.testing.assert_allclose((x ** 0.5).coeffs, x.sqrt().coeffs, atol=1e-13)


def test_analytic_functions_match_richardson():
    for name in ["sin", "cos", "exp", "log", "sqrt"]:
        sp = jet_space(1, 4)
        x = Jet.variable(sp, 0, 0.7)
        j = getattr(x, name)()
        for k in range(1, 4):
            est = curve_derivative(
                lambda t, n=name: getattr(np, n)(0.7 + t), k, mode="richardson"
            )
            assert abs(j.derivative(k) - est.value) < 1e-6, (name, k)


def test_domain_errors():
    sp = jet_space(1, 3)
    with pytest.raises(JetDomainError):
        Jet.variable(sp, 0, -1.0).sqrt()
    with pytest.raises(JetDomainError):
        Jet.variable(sp, 0, 0.0).log()
    with pytest.raises(JetDomainError):
        x = Jet.variable(sp, 0, 0.0)
        (x * x) / x


def test_mixed_space_arithmetic_rejected():
    a = Jet.variable(jet_space(1, 2), 0, 1.0)
    b = Jet.variable(jet_space(1, 3), 0, 1.0)
    with pytest.raises(JetShapeError):
        a * b


def test_derivative_order_guard():
    sp = jet_space(1, 2)
    x = Jet.variable(sp, 0, 1.0)
    with pytest.raises(JetOrderError):
        x.derivative(3)


def test_grouped_space_keeps_per_group_caps():
    sp = grouped_space(((1, 3), (1, 2)))
    t = Jet.variable(sp, 0, 0.0)
    s = Jet.variable(sp, 1, 0.0)
    f = (t ** 3) * (s ** 2)
    assert f.derivative((3, 2)) == pytest.approx(12.0)  # 3! * 2!
    with pytest.raises(JetOrderError):
        f.derivative((4, 0))


def test_shift_acts_as_partial_derivative():
    sp = grouped_space(((2, 3),))
    x = Jet.variable(sp, 0, 0.4)
    y = Jet.variable(sp, 1, -0.2)
    f = x * x * y + y * y * y
    dfdx = f.gradient((0,)).at(0)
    # d/dx (x^2 y + y^3) = 2xy
    assert dfdx.value == pytest.approx(2 * 0.4 * -0.2)
    assert dfdx.derivative((1, 1)) == pytest.approx(2.0)


def test_truncation_to_lower_caps():
    sp = grouped_space(((1, 3), (1, 3)))
    x = Jet.variable(sp, 0, 0.3)
    y = Jet.variable(sp, 1, 0.9)
    f = x.exp() * y.sin()
    g = f.truncated(((1, 1), (1, 2)))
    assert g.derivative((1, 2)) == pytest.approx(f.derivative((1, 2)))
    with pytest.raises(JetOrderError):
        g.derivative((2, 0))


def test_reads_beyond_the_jet_raise_typed_errors():
    x = Jet.variable(jet_space(2, 1), 0, 0.5)
    for target, error in ((((2, 2),), JetOrderError), (((3, 1),), JetShapeError)):
        with pytest.raises(error) as err:
            x.truncated(target)
        assert str(target) in str(err.value) and "((2, 1),)" in str(err.value)
    with pytest.raises(JetOrderError):
        x.read([(0, 0)], ((2, 0),))
    with pytest.raises(JetOrderError):  # no x-derivative in a space of x-cap 0
        Jet.variable(grouped_space(((1, 0), (1, 2))), 1, 0.5).gradient((0,)).at(0)
    with pytest.raises(JetShapeError, match=r"\(\(2, -1\),\)"):  # a negative cap
        Jet.variable(jet_space(2, 2), 0, 0.5).truncated(((2, -1),))


def _reference_read(jet, steps, target, drop=None):
    """The tables of `steps` in `target` by brute force: the coefficients as
    {multi-index: value}, each step d/dv mapping a table T to the table
    u -> T[u + e_v] * (u_v + 1) on the u with u + e_v in T, then group
    `drop`, if any, set to 0 and removed; None when some index of `target`
    is missing after the steps."""

    def indices(groups):
        bounds = np.cumsum([0] + [size for size, _ in groups])
        caps = [cap for _, cap in groups]
        box = itertools.product(range(max(caps, default=0) + 1), repeat=int(bounds[-1]))
        kept = [t for t in box if all(sum(t[a:b]) <= c for a, b, c in zip(bounds, bounds[1:], caps))]
        return sorted(kept, key=lambda t: (sum(t), t))

    bounds = np.cumsum([0] + [size for size, _ in jet.space.groups])
    columns = []
    for read in steps:
        table = dict(zip(indices(jet.space.groups), jet.coeffs))
        for v in read:
            table = {w[:v] + (w[v] - 1,) + w[v + 1:]: c * w[v] for w, c in table.items() if w[v]}
        if drop is not None:
            a, b = bounds[drop], bounds[drop + 1]
            table = {w[:a] + w[b:]: c for w, c in table.items() if not any(w[a:b])}
        if any(t not in table for t in indices(target)):
            return None
        columns.append([table[t] for t in indices(target)])
    return np.array(columns).swapaxes(0, 1)


if st is None:

    def test_reads_match_the_stepwise_taylor_shift():
        pytest.skip("hypothesis is not installed")

else:

    @st.composite
    def read_cases(draw):
        groups = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 3)), min_size=1, max_size=3))
        drop = draw(st.none() | st.integers(0, len(groups) - 1))
        target = tuple((size, draw(st.integers(0, cap))) for g, (size, cap) in enumerate(groups) if g != drop)
        variables = st.integers(0, sum(size for size, _ in groups) - 1)
        steps = draw(st.lists(st.lists(variables, max_size=3).map(tuple), min_size=1, max_size=3))
        shape = draw(st.sampled_from(((), (2,), (2, 3))))
        return tuple(groups), target, steps, shape, draw(st.integers(0, 2**32 - 1)), drop

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(read_cases())
    @example((((2, 3),), ((2, 1),), [(0, 1), (1, 1), ()], (2,), 0, None))
    @example((((1, 2), (2, 3), (1, 1)), ((1, 1), (2, 1), (1, 0)), [(3, 1, 0), (2,)], (2, 3), 1, None))
    # scales 3 then 3 round otherwise than one scale of 9
    @example((((1, 3), (1, 3)), ((1, 2), (1, 2)), [(0, 1), (1, 0)], (2, 3), 2, None))
    # a fiber-only jet: the x-cap-0 bundle table with x held at p
    @example((((2, 0), (2, 3)), ((2, 3),), [()], (2, 3), 3, 0))
    def test_reads_match_the_stepwise_taylor_shift(case):
        """`Jet.read` through `JetSpace.reads` is the per-step Taylor shift,
        scales applied in step order, then the dropped group held at 0, bit
        for bit, and raises JetOrderError exactly where the shifted table
        lacks an index of the target."""
        groups, target, steps, shape, seed, drop = case
        space = grouped_space(groups)
        jet = Jet(space, np.random.default_rng(seed).uniform(-1.0, 1.0, (space.size,) + shape))
        want = _reference_read(jet, steps, target, drop)
        if want is None:
            with pytest.raises(JetOrderError):
                jet.read(steps, target, drop)
            return
        got = jet.read(steps, target, drop)
        assert got.space is grouped_space(target)
        assert got.coeffs.shape == want.shape and got.coeffs.tobytes() == want.tobytes()


TRUNCATION_OPS = {
    "*": operator.mul,
    "/": operator.truediv,
    "+": operator.add,
    "-": operator.sub,
    "sqrt": Jet.sqrt,
    "exp": Jet.exp,
    "log": Jet.log,
    "sin": Jet.sin,
    "cos": Jet.cos,
}


def random_jet(space, kind, batched, positive, rng):
    """A jet with uniform coefficients in [-1, 1] and a value part of modulus
    in [0.5, 2] (positive if asked).  "group0"/"group1" zero every coefficient
    that moves the other group, "variable" is the coordinate x1."""
    batch = (3,) if batched else ()
    value = rng.uniform(0.5, 2.0, batch)
    if not positive:
        value = value * rng.choice((-1.0, 1.0), batch)
    if kind == "variable":
        return Jet.variable(space, 0, value)
    coeffs = rng.uniform(-1.0, 1.0, (space.size,) + batch)
    if kind != "dense":
        split = space.groups[0][0]
        other = space.multi[:, split:] if kind == "group0" else space.multi[:, :split]
        coeffs[other.sum(axis=1) > 0] = 0.0
    coeffs[0] = value
    return Jet(space, coeffs)


if st is None:

    def test_truncation_commutes_with_jet_operations():
        pytest.skip("hypothesis is not installed")

else:
    KINDS = st.sampled_from(("dense", "group0", "group1", "variable"))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.tuples(st.integers(1, 2), st.integers(0, 3), st.integers(1, 2), st.integers(0, 5)),
        st.tuples(st.integers(0, 3), st.integers(0, 5)),
        st.sampled_from(sorted(TRUNCATION_OPS)),
        st.tuples(KINDS, KINDS),
        st.tuples(st.booleans(), st.booleans()),
        st.integers(0, 2**32 - 1),
    )
    @example((1, 1, 1, 3), (1, 1), "sin", ("variable", "dense"), (False, False), 0)
    @example((2, 1, 2, 2), (0, 2), "sin", ("variable", "dense"), (True, False), 1)
    # the widest space folds its pair products by layers, the target by bincount
    @example((2, 3, 2, 5), (1, 1), "*", ("dense", "dense"), (False, False), 2)
    @example((2, 3, 2, 5), (0, 1), "exp", ("dense", "dense"), (False, False), 3)
    def test_truncation_commutes_with_jet_operations(groups, lower, name, kinds, batched, seed):
        """op(u, v).truncated(t) is op(u.truncated(t), v.truncated(t)), bit for
        bit and in the same space object, for every target t <= the caps."""
        nx, capx, ny, capy = groups
        space = grouped_space(((nx, capx), (ny, capy)))
        target = ((nx, max(capx - lower[0], 0)), (ny, max(capy - lower[1], 0)))
        rng = np.random.default_rng(seed)
        positive = name in ("sqrt", "log")
        u, v = (random_jet(space, k, b, positive, rng) for k, b in zip(kinds, batched))
        op = TRUNCATION_OPS[name]
        if name in ("*", "/", "+", "-"):
            wide, narrow = op(u, v), op(u.truncated(target), v.truncated(target))
        else:
            wide, narrow = op(u), op(u.truncated(target))
        got = wide.truncated(target)
        assert got.space is narrow.space
        assert got.coeffs.shape == narrow.coeffs.shape
        assert got.coeffs.tobytes() == narrow.coeffs.tobytes()


def test_batched_coefficients_broadcast():
    sp = jet_space(1, 3)
    vals = np.array([0.5, 1.0, 2.0])
    x = Jet.variable(sp, 0, vals)
    f = x.exp() * x
    single = [Jet.variable(sp, 0, v).exp() * Jet.variable(sp, 0, v) for v in vals]
    for b, jb in enumerate(single):
        np.testing.assert_allclose(f.coeffs[:, b], jb.coeffs, rtol=1e-14)
    # unbatched jet times a batch vector promotes
    g = Jet.variable(sp, 0, 1.0) * np.array([1.0, 2.0])
    assert g.coeffs.shape == (sp.size, 2)
    np.testing.assert_allclose(g.coeffs[:, 1], 2 * g.coeffs[:, 0])


def test_compose_table_equals_polynomial_composition():
    rng = np.random.default_rng(7)
    fc, gc = rng.normal(size=5), rng.normal(size=5)
    sp = jet_space(1, 4)
    g = Jet(sp, gc.copy())
    c0 = g.value
    ftab = Jet(sp, np.array([P.polyval(c0, P.polyder(fc, m)) for m in range(5)]) / sp.fact)
    h = compose_table(ftab, [g], center=[c0])
    comp = np.zeros(1)
    powg = np.array([1.0])
    for m in range(5):
        comp = P.polyadd(comp, fc[m] * powg)
        powg = P.polymul(powg, gc)[:5]
    expect = np.array([P.polyval(0.0, P.polyder(comp[:5], m)) for m in range(5)])
    np.testing.assert_allclose(h.coeffs * sp.fact, expect, rtol=1e-12, atol=1e-12)


def test_jet_point_seeds_all_variables():
    sp = grouped_space(((2, 2),))
    pt = jet_point(sp, np.array([1.0, 2.0]))
    f = pt[0] * pt[1]
    assert f.value == pytest.approx(2.0)
    assert f.derivative((1, 1)) == pytest.approx(1.0)
    assert f.derivative((1, 0)) == pytest.approx(2.0)


def test_smoothmap_jacobian_and_domain_box():
    m = SmoothMap(lambda a: [a[0] * a[1], a[0].sin()], 2, lo=[-1, -1], hi=[1, 1])
    out = m.jets(jet_point(jet_space(2, 1), np.array([0.5, 0.25])))
    J = [[j.derivative((1, 0)), j.derivative((0, 1))] for j in out.unstack()]
    np.testing.assert_allclose(J, [[0.25, 0.5], [np.cos(0.5), 0.0]], atol=1e-14)
    with pytest.raises(DomainBoxError):
        m.value(np.array([1.5, 0.0]))
    with pytest.raises(DomainBoxError):
        m.jets(jet_point(jet_space(2, 2), np.array([0.0, -2.0])))


def order0_jets(m, x):
    return m.jets(jet_point(jet_space(m.dim, 0), x))


def order0_values(m, x):
    return np.stack([j.value for j in order0_jets(m, x).unstack()])


def rotation_field(manifold):
    return SmoothMap(lambda a: [-a[1], a[0]], 2, lo=manifold.lo, hi=manifold.hi)


def test_smoothmap_value_is_the_order0_jet_bitwise():
    rng = np.random.default_rng(3)
    for name in catalog_names():
        man = catalog_norm(name).manifold
        lo, hi = np.array(man.lo), np.array(man.hi)
        fields = coordinate_fields(man) + [
            constant_base_field(man, [0.0, -0.0]),
            constant_base_field(man, [-0.0, 2.5]),
            constant_base_field(man, rng.standard_normal(2)),
            rotation_field(man),
            ExpressionField(("x", "y"), ("x^2 - sin(y)", "exp(x) * y + 0.5")),
            PolynomialField(2, [{(0, 1): -1.0}, {(1, 0): 1.0, (2, 1): 0.5}]),
        ]
        points = [lo + (hi - lo) * rng.uniform(size=2) for _ in range(5)]
        points += [np.clip([-0.0, 0.0], lo, hi), lo, hi]
        points.append((lo + (hi - lo) * rng.uniform(size=(3, 2))).T)  # a batch of points
        for m in fields:
            for x in points:
                assert m.value(x).tobytes() == order0_values(m, x).tobytes()


def test_smoothmap_value_raises_at_the_box_slack():
    # outside means more than 1e-9 * max(1, |wall|) beyond a wall
    lo, hi = np.array([-5.0, 0.2]), np.array([0.5, 3.0])
    m = SmoothMap(lambda a: [-a[1], a[0]], 2, lo=lo, hi=hi)
    inside = np.array([0.0, 1.0])
    for axis in range(2):
        for wall, outward in ((lo, -1.0), (hi, 1.0)):
            slack = 1e-9 * max(1.0, abs(wall[axis]))
            for factor in (0.0, 0.5, 0.999, 1.001, 2.0):
                x = inside.copy()
                x[axis] = wall[axis] + outward * factor * slack
                batch = np.stack([inside, x], axis=1)
                for point in (x, batch):
                    if factor > 1.0:
                        with pytest.raises(DomainBoxError):
                            m.value(point)
                        with pytest.raises(DomainBoxError):
                            order0_jets(m, point)
                    else:
                        assert m.value(point).tobytes() == order0_values(m, point).tobytes()


def test_reciprocal_value_at_a_tiny_value_part():
    x = Jet.variable(jet_space(2, 2), 0, 1.3e-275)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (0.5 / x).value == 0.5 / 1.3e-275
        assert (1 / Jet.variable(jet_space(2, 2), 0, 1e-110)).value == 1e110


def test_curve_derivative_sin():
    est = curve_derivative(lambda t: np.sin(t), 1)
    assert est.mode == "jet" and est.error == 0.0
    assert est.value == pytest.approx(1.0, abs=1e-14)


def test_curve_derivative_cubic():
    est = curve_derivative(lambda t: t * t * t, 3)
    assert est.value == pytest.approx(6.0, abs=1e-12)


def test_richardson_exp_curve():
    est = curve_derivative(lambda t: np.exp(2.0 * t), 3, mode="richardson")
    assert est.converged
    assert est.error < 1e-8
    assert est.value == pytest.approx(8.0, abs=1e-7)


def test_jet_and_richardson_agree_on_smooth_curve():
    def c(t):
        return np.sin(3.0 * t) * np.exp(-t)

    for k in range(1, 5):
        a = curve_derivative(c, k, mode="jet")
        b = curve_derivative(c, k, mode="richardson")
        assert abs(a.value - b.value) < 1e-5 * max(1.0, abs(a.value)), k


if st is None:

    def test_jet_and_richardson_agree_on_random_expressions():
        pytest.skip("hypothesis is not installed")

else:
    CURVES = st.recursive(
        st.one_of(st.just("t"), st.integers(-200, 200).map(lambda i: f"{i / 100}")),
        lambda sub: st.one_of(
            st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda e: f"({e[0]} {e[1]} {e[2]})"),
            st.tuples(st.sampled_from(("sin", "cos", "exp")), sub).map(lambda e: f"{e[0]}({e[1]})"),
        ),
        max_leaves=8,
    )

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(CURVES, st.sampled_from((1, 2, 3)))
    def test_jet_and_richardson_agree_on_random_expressions(text, k):
        """Wherever Richardson extrapolation reports convergence, it agrees
        with the exact jet derivative."""
        curve = parse_expression(text, ("t",))
        with np.errstate(all="ignore"):
            exact = curve_derivative(curve, k, "jet").value
            estimate = curve_derivative(curve, k, "richardson")
        if estimate.converged:
            assert abs(estimate.value - exact) <= 1e-5 * max(1.0, abs(exact)), text


def test_mixed_partial_examples():
    assert mixed_partial(lambda t, s: t * s, 1, 1).value == pytest.approx(1.0)
    assert mixed_partial(lambda t, s: t * t * s, 2, 1).value == pytest.approx(2.0)
    est = mixed_partial(lambda t, s: np.sin(t) * np.sin(s), 1, 1, mode="richardson")
    assert est.value == pytest.approx(1.0, abs=1e-8)
    jm = mixed_partial(lambda t, s: np.sin(t) * np.sin(s), 3, 2)
    # d3/dt3 sin t = -cos t -> -1; d2/ds2 sin s = -sin s -> 0 at 0
    assert jm.value == pytest.approx(0.0, abs=1e-14)


def test_vector_valued_curve_derivative():
    est = curve_derivative(lambda t: [t * t, 3.0 * t, t.sin() if isinstance(t, Jet) else np.sin(t)], 2)
    np.testing.assert_allclose(est.value, [2.0, 0.0, 0.0], atol=1e-14)


def test_fornberg_weights_reproduce_classic_stencils():
    w = finite_difference_weights(1, np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(w, [-0.5, 0.0, 0.5], atol=1e-14)
    w = finite_difference_weights(2, np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-13)


def test_richardson_extrapolate_kills_h2_error():
    steps = (0.1, 0.05, 0.025, 0.0125)
    # D(h) = 5 + 3 h^2 + 0.2 h^4
    vals = [5.0 + 3.0 * h ** 2 + 0.2 * h ** 4 for h in steps]
    limit, err = richardson_extrapolate(list(vals), steps)
    assert limit == pytest.approx(5.0, abs=1e-12)
    assert err < 1e-9


def test_spaces_are_cached():
    assert jet_space(2, 3) is jet_space(2, 3)
    assert grouped_space(((2, 1), (2, 3))) is grouped_space(((2, 1), (2, 3)))


def test_a_total_cap_keeps_the_entries_of_low_total_degree():
    full = grouped_space(((2, 1), (2, 3)))
    cut = grouped_space(((2, 1), (2, 3)), total=3)
    assert (full.size, cut.size, cut.max_total) == (30, 22, 3)
    assert cut.tuples == [t for t in full.tuples if sum(t) <= 3]
    assert grouped_space(((2, 1), (2, 3)), total=4) is full
    assert grouped_space(((2, 4), (2, 8)), total=11).size == 630
    with pytest.raises(JetShapeError):
        grouped_space(((2, 1), (2, 3)), total=-1)
    # a product on the cut space is the product on the full one at its entries
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, full.size, 3))
    keep = [full.position[t] for t in cut.tuples]
    assert full.multiply(a, b)[keep].tobytes() == cut.multiply(a[keep], b[keep]).tobytes()


def test_a_wide_product_stays_in_bounded_memory():
    # 34,650 pairs in 50 columns: one pair array would hold 13 MB, and the
    # product took 26.7 MB when it made its pair arrays whole
    space = grouped_space(((2, 4), (2, 8)))
    a, b = np.random.default_rng(3).standard_normal((2, space.size, 50))
    space.multiply(a[:, :1], b[:, :1])  # the pair table is built outside the measurement
    tracemalloc.start()
    try:
        space.multiply(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_concurrent_wide_products_each_get_the_serial_result():
    # each call folds into arrays of its own, and the threads share a space's layered plan
    rng = np.random.default_rng(4)
    work = []
    for groups, width in ((((2, 4), (2, 8)), 50), (((2, 3), (2, 7)), 37)):
        space = grouped_space(groups)
        a, b = rng.standard_normal((2, space.size, width))
        work.append((space, a, b, space.multiply(a, b)))
    start = threading.Barrier(2)
    wrong = []

    def run(space, a, b, want):
        start.wait(timeout=30)
        for _ in range(8):
            if space.multiply(a, b).tobytes() != want.tobytes():
                wrong.append(space.groups)

    threads = [threading.Thread(target=run, args=item) for item in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_variable_outside_the_space_rejected():
    sp = jet_space(2, 2)
    for var in (-1, 2, 5):
        with pytest.raises(JetShapeError):
            Jet.variable(sp, var, 3.0)


def test_cap_zero_variable_is_the_truncated_variable():
    big = grouped_space(((2, 2), (2, 3)))
    for groups in (((2, 0), (2, 3)), ((2, 2), (2, 0)), ((2, 0), (2, 0))):
        for var in range(4):
            value = np.array([0.3, -1.2])
            seeded = Jet.variable(grouped_space(groups), var, value)
            truncated = Jet.variable(big, var, value).truncated(groups)
            assert seeded.space is truncated.space
            assert np.array_equal(seeded.coeffs, truncated.coeffs)


def test_tally_counts_only_into_the_innermost_block():
    count("lockstep", members=5)  # outside any block: no effect, no error
    with tally() as outer:
        count("lockstep", members=2, rounds=3)
        with tally() as inner:
            count("spray_tables", requests=1, computed=1)
            count("lockstep", requests=4)
        count("lockstep", rounds=1)
    count("lockstep", members=7)  # after the blocks: no effect either
    assert inner == {
        "spray_tables": {"requests": 1, "computed": 1},
        "lockstep": {"members": 0, "rounds": 0, "requests": 4},
    }
    assert outer == {
        "spray_tables": {"requests": 0, "computed": 0},
        "lockstep": {"members": 2, "rounds": 4, "requests": 0},
    }


def test_tally_block_resets_when_its_body_raises():
    with tally() as outer:
        with pytest.raises(RuntimeError):
            with tally() as inner:
                count("lockstep", rounds=1)
                raise RuntimeError("body failed")
        count("lockstep", rounds=2)
    assert inner["lockstep"]["rounds"] == 1
    assert outer["lockstep"]["rounds"] == 2
    assert jets._TALLY.get() is None


def test_count_rejects_unknown_groups_and_keys():
    for block in (False, True):
        with tally() if block else contextlib.nullcontext():
            with pytest.raises(KeyError):
                count("steps", accepted=1)
            with pytest.raises(KeyError):
                count("lockstep", members=1, steps=1)


SOLVE_SPACES = {
    "one variable": jet_space(1, 5),
    "grouped": grouped_space(((2, 1), (2, 3))),
    "total cut": grouped_space(((3, 2), (3, 2)), 3),
}


def _system(space, n, batch, kind, seed):
    """A jet M of value shape (n, n, *batch) and a jet R of (n, *batch).

    M's value part is symmetric positive definite ("spd") or has a zero
    (0, 0) entry, so elimination needs a row swap ("pivot")."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(space.size, n, n) + batch) * 0.5
    B = rng.normal(size=(n, n) + batch)
    if kind == "spd":
        M[0] = np.einsum("ik...,jk...->ij...", B, B) + np.eye(n).reshape((n, n) + (1,) * len(batch))
    else:
        M[0] = np.roll(np.eye(n), 1, axis=1).reshape((n, n) + (1,) * len(batch)) + 0.3 * B
        M[0, 0, 0] = 0.0
    return Jet(space, M), Jet(space, rng.normal(size=(space.size, n) + batch))


def _eliminate(aug):
    # Gaussian elimination without pivoting in jet arithmetic, on the
    # augmented rows [A | b] of a jet matrix: an independent side for solve
    n = aug.shape[0]
    rows = aug.unstack()
    inv = []
    for col in range(n):
        inv.append(1.0 / rows[col].at(0))
        for r in range(col + 1, n):
            factor = rows[r].at(0) * inv[col]
            rows[r] = rows[r].at(np.s_[1:]) - factor * rows[col].at(np.s_[1:])
    w = [None] * n
    for row in range(n - 1, -1, -1):
        acc = rows[row].at(n - row)
        for c in range(row + 1, n):
            acc = acc - rows[row].at(c - row) * w[c]
        w[row] = acc * inv[row]
    return w


@pytest.mark.parametrize("space", SOLVE_SPACES.values(), ids=SOLVE_SPACES.keys())
@pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batch"])
@pytest.mark.parametrize("n", [2, 3])
def test_solve_leaves_a_rounding_residual_and_matches_elimination(space, batch, n):
    for seed, kind in enumerate(("spd", "pivot", "spd", "pivot")):
        M, R = _system(space, n, batch, kind, seed)
        X = solve(M, R)
        assert X.space is space and X.shape == (n,) + batch
        residual = (M * X.at(None)).sum(axis=1) - R
        assert np.max(np.abs(residual.coeffs)) <= 1e-12 * np.max(np.abs(R.coeffs)), kind
        if kind == "spd":
            aug = Jet.stack([M.at(np.s_[:, k]) for k in range(n)] + [R], axis=1)
            want = Jet.stack(_eliminate(aug)).coeffs
            assert np.max(np.abs(X.coeffs - want)) <= 1e-12 * np.max(np.abs(want))


def test_batched_solve_is_each_column_solved_alone_bitwise():
    for space in SOLVE_SPACES.values():
        for kind in ("spd", "pivot"):
            M, R = _system(space, 3, (5,), kind, 7)
            X = solve(M, R)
            shared = solve(M.at(np.s_[..., :1]), R)  # one matrix against five right-hand sides
            for b in range(5):
                alone = solve(M.at((..., b)), R.at((..., b)))
                assert alone.coeffs.tobytes() == np.ascontiguousarray(X.coeffs[..., b]).tobytes()
                first = solve(M.at((..., 0)), R.at((..., b)))
                assert first.coeffs.tobytes() == np.ascontiguousarray(shared.coeffs[..., b]).tobytes()


def test_solve_rejects_a_singular_value_part():
    space = SOLVE_SPACES["grouped"]
    M, R = _system(space, 3, (5,), "spd", 3)
    M.coeffs[0, :, 2, 4] = M.coeffs[0, :, 0, 4]  # member 4's value part has two equal columns
    with pytest.raises(JetDomainError):
        solve(M, R)
    with pytest.raises(JetDomainError):
        solve(M.at((..., 4)), R.at((..., 4)))
