"""The tensor layout of jets: an operation on a jet of value shape S gives,
bit for bit, what the same operation gives on each scalar component.  The
byte-identical reports of the geometry layers rest on this."""

import numpy as np
import pytest
import scipy.sparse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from holonomylab import jets  # noqa: E402
from holonomylab.jets import Jet, compose_table, grouped_space, jet_space  # noqa: E402

GROUPS = (((1, 3),), ((2, 2),), ((2, 1), (2, 2)), ((1, 2), (2, 1)))
SHAPES = ((), (3,), (2, 3), (2, 2))
ENTRIES = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


def same_bits(x, y) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def components(jet):
    """(index, scalar jet) for every entry of the value shape."""
    for idx in np.ndindex(jet.shape):
        yield idx, Jet(jet.space, np.ascontiguousarray(jet.coeffs[(slice(None),) + idx]))


def matches_components(out, op, *operands):
    """out == op applied to the matching component of each operand, entry by entry."""
    for idx, part in components(out):
        args = [a.at(idx[len(idx) - len(a.shape):]) if isinstance(a, Jet) else a for a in operands]
        args = [Jet(a.space, a.coeffs.copy()) if isinstance(a, Jet) else a for a in args]
        if not same_bits(part.coeffs, op(*args).coeffs):
            return False
    return True


@st.composite
def tables(draw, shape=None, positive=False):
    space = grouped_space(draw(st.sampled_from(GROUPS)))
    shape = draw(st.sampled_from(SHAPES)) if shape is None else shape
    coeffs = draw(arrays(float, (space.size,) + shape, elements=ENTRIES))
    if positive:
        coeffs[0] = 0.5 + np.abs(coeffs[0])
    return Jet(space, coeffs)


@st.composite
def pairs(draw):
    """Two jets in one space; the second may carry only the trailing axes of the first."""
    a = draw(tables(positive=True))
    cut = draw(st.integers(0, len(a.shape)))
    coeffs = draw(arrays(float, (a.space.size,) + a.shape[cut:], elements=ENTRIES))
    coeffs[0] = 0.5 + np.abs(coeffs[0])
    return a, Jet(a.space, coeffs)


@given(pairs())
def test_binary_operations_act_per_component(ab):
    a, b = ab
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y):
        assert matches_components(op(a, b), op, a, b)
        assert matches_components(op(b, a), op, b, a)


@given(tables(positive=True), st.floats(-3.0, 3.0, allow_nan=False))
def test_numeric_operands_act_per_component(a, c):
    for op in (lambda x: x + c, lambda x: c - x, lambda x: x * c, lambda x: x / (c or 1.0)):
        assert matches_components(op(a), op, a)


@given(tables(positive=True))
def test_elementary_functions_act_per_component(a):
    for op in (Jet.sqrt, Jet.exp, lambda x: 1.0 / x, lambda x: x ** 3):
        assert matches_components(op(a), op, a)


@given(tables(), st.data())
def test_structural_maps_act_per_component(a, data):
    space = a.space
    var = data.draw(st.integers(0, space.num_vars - 1))
    if space.caps[space._group_of_var[var]]:
        assert matches_components(a.gradient((var,)).at(0), lambda x: x.gradient((var,)).at(0), a)
    lower = tuple((size, data.draw(st.integers(0, cap))) for size, cap in space.groups)
    assert matches_components(a.truncated(lower), lambda x: x.truncated(lower), a)


@given(tables(), st.data())
def test_compose_table_acts_per_component(table, data):
    outer = grouped_space(((2, 2),))
    center = data.draw(arrays(float, (table.space.num_vars,), elements=ENTRIES))
    args = []
    for c in center:
        coeffs = data.draw(arrays(float, (outer.size,), elements=ENTRIES))
        coeffs[0] = c
        args.append(Jet(outer, coeffs))
    out = compose_table(table, args, center)
    assert matches_components(out, lambda t: compose_table(t, args, center), table)


@given(tables(shape=(2, 3)), st.data())
def test_compose_table_rows_match_batched_arguments(table, data):
    # a table of value shape (n, B) against arguments batched over B
    outer = grouped_space(((1, 2),))
    center = data.draw(arrays(float, (table.space.num_vars, 3), elements=ENTRIES))
    args = []
    for c in center:
        coeffs = data.draw(arrays(float, (outer.size, 3), elements=ENTRIES))
        coeffs[0] = c
        args.append(Jet(outer, coeffs))
    out = compose_table(table, args, center)
    for i, row in enumerate(table.unstack()):
        assert same_bits(out.at(i).coeffs, compose_table(row, args, center).coeffs)


@given(tables())
def test_stack_and_unstack_are_inverse(a):
    if a.shape:
        assert same_bits(Jet.stack(a.unstack()).coeffs, a.coeffs)
        assert same_bits(a.sum().coeffs, sum(a.unstack()[1:], a.unstack()[0]).coeffs)


# -- the truncated product against the sparse fold --------------------------------

SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e300, -5e-324])


def pair_table(space):
    """(ii, jj, kk) of every pair of entries whose product stays in the space,
    in row-major (i, j) order, by brute force over the multi-indices."""
    ii, jj, kk = [], [], []
    for i, s in enumerate(space.tuples):
        for j, t in enumerate(space.tuples):
            k = space.position.get(tuple(u + v for u, v in zip(s, t)))
            if k is not None:
                ii.append(i)
                jj.append(j)
                kk.append(k)
    return ii, jj, kk


def sparse_fold(space, a, b):
    """The product as a CSR matrix summing each pair into its target, pairs in
    row-major (i, j) order: the fold the product is defined by."""
    ii, jj, kk = pair_table(space)
    fold = scipy.sparse.csr_matrix(
        (np.ones(len(kk)), (kk, np.arange(len(kk)))), shape=(space.size, len(kk))
    )
    return fold @ (a[ii] * b[jj]), len(kk)


def same_bits_or_nan(x, y) -> bool:
    """Equal bits, except that a NaN matches a NaN of any sign or payload: the
    sparse kernel may add two NaNs in either operand order."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and same_bits(np.where(nan, 0.0, x), np.where(nan, 0.0, y))


def special_table(rng, shape):
    """Random entries with every special value planted somewhere."""
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    spots = rng.choice(flat.size, size=min(flat.size, 3 * len(SPECIALS)), replace=False)
    flat[spots] = np.resize(SPECIALS, len(spots))
    return out


def columns_for(space, pairs, side, rng):
    """A column count whose product lands on `side` of the space's bincount limit."""
    fit = space.bincount_limit() // pairs
    return int(rng.integers(1, min(fit, 12) + 1)) if side == "small" else fit + 1


@given(
    st.sampled_from(GROUPS + (((1, 1), (1, 1)), ((2, 1), (2, 3)))),
    st.sampled_from(("1-D", "small", "large")),
    st.integers(0, 2**32 - 1),
)
def test_multiply_is_the_sparse_fold_bitwise(groups, side, seed):
    space = grouped_space(groups)
    rng = np.random.default_rng(seed)
    _, pairs = sparse_fold(space, np.zeros(space.size), np.zeros(space.size))
    shape = (space.size,) if side == "1-D" else (space.size, columns_for(space, pairs, side, rng))
    a, b = special_table(rng, shape), special_table(rng, shape)
    with np.errstate(invalid="ignore", over="ignore"):
        want, _ = sparse_fold(space, a, b)
        assert same_bits_or_nan(space.multiply(a, b), want)


def test_multiply_is_the_sparse_fold_for_a_large_one_dimensional_product():
    # 66,045 pairs in 306 layers: within the space's bincount limit, and
    # past it, to the layered fold, once the limit per layer is 1
    space = jet_space(2, 33)
    rng = np.random.default_rng(5)
    a, b = special_table(rng, (space.size,)), special_table(rng, (space.size,))
    with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as mp:
        want, pairs = sparse_fold(space, a, b)
        for per_layer, layered in ((jets._BINCOUNT_MAX_ELEMENTS, False), (1, True)):
            mp.setattr(jets, "_BINCOUNT_MAX_ELEMENTS", per_layer)
            assert (pairs > space.bincount_limit()) == layered
            assert same_bits_or_nan(space.multiply(a, b), want)


# -- products and pair tables in blocks -------------------------------------------

# (groups, total) of spaces of 10 to 90 entries, two of them cut to a total degree
BLOCKED = (
    (((1, 9),), None),
    (((2, 3),), None),
    (((3, 2),), None),
    (((2, 1), (2, 3)), None),
    (((2, 1), (2, 3)), 3),
    (((2, 2), (2, 2)), None),
    (((2, 2), (2, 4)), None),
    (((2, 2), (2, 4)), 5),
)


@given(
    st.sampled_from(BLOCKED),
    st.integers(0, 12),
    st.floats(0.3, 3.5),
    st.integers(0, 2**32 - 1),
)
@example(BLOCKED[3], 7, 2.5, 0)  # an odd column count
@example(BLOCKED[6], 5, 0.5, 1)  # a budget below one column's pairs
@example(BLOCKED[6], 0, 0.5, 2)  # and a one-dimensional table
@example((((2, 3), (2, 6)), 8), 5, 1.0, 3)  # 252 entries, 5,670 pairs in 72 layers
def test_blocked_multiply_is_one_unblocked_fold_bitwise(case, columns, per_budget, seed):
    # every product takes the layered fold; the budget bounds only the pair
    # table's build, when this call makes it; columns 0 is a one-dimensional table
    space = grouped_space(*case)
    rng = np.random.default_rng(seed)
    pairs = len(pair_table(space)[0])
    shape = (space.size,) if columns == 0 else (space.size, columns)
    a, b = special_table(rng, shape), special_table(rng, shape)
    with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_BINCOUNT_MAX_ELEMENTS", 0)
        mp.setattr(jets, "_PAIR_BUDGET", max(1, int(per_budget * pairs)))
        want, _ = sparse_fold(space, a, b)
        assert same_bits_or_nan(space.multiply(a, b), want)


@given(st.sampled_from(BLOCKED), st.integers(1, 9000))
def test_row_blocked_pair_table_is_the_dense_enumeration(case, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_PAIR_BUDGET", budget)
        space = jets.JetSpace(*case)
        ii, jj, kk = space._mul_table()  # built afresh, not cached
    for got, want in zip((ii, jj, kk), pair_table(grouped_space(*case))):
        assert got.dtype == np.int64 and got.tolist() == want
    # the bincount limit scales with a quarter of the layer count, the most pairs on one target
    layers = int(np.bincount(kk).max())
    assert space.bincount_limit() == jets._BINCOUNT_MAX_ELEMENTS * max(1, layers // 4)


# -- the fast paths of products, series and gradients, bit for bit ---------------

# (groups, total): spaces capped per group, and cut to a total degree
FAST = ((((1, 3),), None), (((2, 1), (2, 3)), None), (((2, 1), (2, 3)), 3), (((2, 2), (2, 4)), 5))
# value shapes of two factors: equal scalars and vectors, which take the direct
# path, (size,) against (size, w), (size, 1) against (size, w), and 3-D
FACTORS = {
    "scalar": ((), ()),
    "equal": ((4,), (4,)),
    "1-D": ((), (4,)),
    "unit": ((1,), (4,)),
    "3-D": ((2, 1, 4), (2, 3, 4)),
}


@given(st.sampled_from(FAST), st.sampled_from(sorted(FACTORS)), st.integers(0, 2**32 - 1))
def test_jet_product_is_the_space_product_bitwise(case, factors, seed):
    space = grouped_space(*case)
    rng = np.random.default_rng(seed)
    a, b = (Jet(space, special_table(rng, (space.size,) + shape)) for shape in FACTORS[factors])
    ndim = max(len(a.shape), len(b.shape))
    with np.errstate(invalid="ignore", over="ignore"):
        for x, y in ((a, b), (b, a)):
            want = space.product(jets._pad(x.coeffs, ndim), jets._pad(y.coeffs, ndim))
            assert same_bits((x * y).coeffs, want)


def horner_in_jets(jet, series_fn):
    """`Jet._analytic`'s Horner loop written in `Jet` arithmetic."""
    m = jet.space.max_total
    series = series_fn(np.asarray(jet.value, dtype=float), m)
    w = Jet(jet.space, jet.coeffs.copy())
    w.coeffs[0] = 0.0
    out = Jet.constant(jet.space, series[m])
    for j in range(m - 1, -1, -1):
        out = out * w
        out.coeffs[0] = series[j]
    return out


@given(st.sampled_from(FAST), st.sampled_from(((), (4,), (2, 3))), st.integers(0, 2**32 - 1))
def test_analytic_is_the_horner_loop_in_jets_bitwise(case, shape, seed):
    space = grouped_space(*case)
    coeffs = special_table(np.random.default_rng(seed), (space.size,) + shape)
    free = Jet(space, coeffs)
    positive = Jet(space, np.concatenate([0.25 + np.abs(coeffs[:1]), coeffs[1:]]))
    with np.errstate(all="ignore"):
        for jet, op, series_fn in (
            (positive, Jet.sqrt, jets._pow_series(0.5)),
            (positive, Jet._reciprocal, jets._recip_series),
            (free, Jet.sin, jets._sin_series),
        ):
            assert same_bits(op(jet).coeffs, horner_in_jets(jet, series_fn).coeffs)


# the spaces of FAST with no total cut, which have room for a gradient's reads
WHOLE = tuple(groups for groups, total in FAST if total is None)


@given(st.sampled_from(WHOLE), st.integers(0, 2), st.integers(0, 2**32 - 1), st.data())
def test_gradient_is_the_moveaxis_form_bitwise(groups, axis, seed, data):
    space = grouped_space(groups)
    jet = Jet(space, special_table(np.random.default_rng(seed), (space.size, 2, 3)))
    g = data.draw(st.sampled_from([i for i, cap in enumerate(space.caps) if cap]))
    start = sum(size for size, _ in space.groups[:g])
    variables = range(start, start + space.groups[g][0])
    lowered = tuple((size, cap - (i == g)) for i, (size, cap) in enumerate(space.groups))
    table = jet.read([(v,) for v in variables], lowered)
    got = jet.gradient(variables, axis)
    assert got.space is table.space
    assert same_bits(got.coeffs, np.moveaxis(table.coeffs, 1, 1 + axis))
