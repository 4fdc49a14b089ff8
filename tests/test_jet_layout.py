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
        assert matches_components(a.derivative_table(var), lambda x: x.derivative_table(var), a)
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


def columns_for(pairs, side, rng):
    """A column count whose product lands on `side` of the bincount limit."""
    fit = jets._BINCOUNT_MAX_ELEMENTS // pairs
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
    shape = (space.size,) if side == "1-D" else (space.size, columns_for(pairs, side, rng))
    a, b = special_table(rng, shape), special_table(rng, shape)
    with np.errstate(invalid="ignore", over="ignore"):
        want, _ = sparse_fold(space, a, b)
        assert same_bits_or_nan(space.multiply(a, b), want)


def test_multiply_is_the_sparse_fold_for_a_large_one_dimensional_product():
    space = jet_space(2, 33)
    rng = np.random.default_rng(5)
    a, b = special_table(rng, (space.size,)), special_table(rng, (space.size,))
    with np.errstate(invalid="ignore", over="ignore"):
        want, pairs = sparse_fold(space, a, b)
        assert pairs > jets._BINCOUNT_MAX_ELEMENTS
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
@example(BLOCKED[3], 7, 2.5, 0)  # blocks of 2 columns do not divide 7
@example(BLOCKED[6], 5, 0.5, 1)  # one column holds more pairs than the budget
@example(BLOCKED[6], 0, 0.5, 2)  # so does a one-dimensional table
def test_blocked_multiply_is_one_unblocked_fold_bitwise(case, columns, per_budget, seed):
    # every product takes the blocked fold, and the budget, in pairs, lands
    # between a third of a column and 3.5 columns, so products on either side
    # of it and blocks of every width occur; columns 0 is a one-dimensional table
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
        ii, jj, kk, _ = jets.JetSpace(*case)._mul_table()  # built afresh, not cached
    for got, want in zip((ii, jj, kk), pair_table(grouped_space(*case))):
        assert got.dtype == np.int64 and got.tolist() == want
