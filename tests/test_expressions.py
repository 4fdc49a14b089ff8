import math

import numpy as np
import pytest

from holonomylab.expressions import ExpressionError, parse_expression
from holonomylab.jets import Jet, JetDomainError, jet_space

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    st = None


def test_basic_arithmetic():
    e = parse_expression("x1 + 2*x2 - x1/4", ("x1", "x2"))
    assert e(4.0, 1.0) == pytest.approx(4 + 2 - 1)


def test_caret_means_power():
    e = parse_expression("x1^2 + x1^0.5", ("x1",))
    assert e(4.0) == pytest.approx(18.0)


def test_functions_and_pi():
    e = parse_expression("sin(pi/2) + cos(0) + sqrt(x1) + log(exp(x1))", ("x1",))
    assert e(9.0) == pytest.approx(1 + 1 + 3 + 9)


def test_unary_minus():
    e = parse_expression("-x1 + (+x1)*2", ("x1",))
    assert e(3.0) == pytest.approx(3.0)


def test_evaluates_on_jets():
    e = parse_expression("sqrt(x1^2 + y1^2)", ("x1", "y1"))
    sp = jet_space(2, 3)
    x = Jet.variable(sp, 0, 3.0)
    y = Jet.variable(sp, 1, 4.0)
    r = e(x, y)
    assert r.value == pytest.approx(5.0)
    assert r.derivative((1, 0)) == pytest.approx(3.0 / 5.0)
    assert r.derivative((0, 1)) == pytest.approx(4.0 / 5.0)


def test_evaluates_on_arrays():
    e = parse_expression("x1*x1 + 1", ("x1",))
    np.testing.assert_allclose(e(np.array([1.0, 2.0])), [2.0, 5.0])


def test_evaluate_by_name():
    e = parse_expression("t^3", ("t",))
    assert e.evaluate({"t": 2.0}) == pytest.approx(8.0)
    with pytest.raises(ExpressionError):
        e.evaluate({})


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError, match="unknown name"):
        parse_expression("x1 + secret", ("x1",))


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("tan(x1)", ("x1",))


def test_attribute_access_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x1.__class__", ("x1",))


def test_call_chains_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("(sqrt)(x1)(x1)", ("x1",))
    with pytest.raises(ExpressionError):
        parse_expression("sqrt(x1, x1)", ("x1",))


def test_comparison_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x1 < 2", ("x1",))


def test_string_literal_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("'a' * x1", ("x1",))


def test_syntax_error_becomes_expression_error():
    with pytest.raises(ExpressionError, match="cannot parse"):
        parse_expression("x1 + * 2", ("x1",))


def test_bare_function_name_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("sqrt + 1", ("x1",))


def test_bad_variable_declarations():
    for bad in [("pi",), ("sqrt",), ("x", "x"), ("not an id",)]:
        with pytest.raises(ExpressionError):
            parse_expression("1", bad)


def test_wrong_arity_call():
    e = parse_expression("x1 + x2", ("x1", "x2"))
    with pytest.raises(ExpressionError):
        e(1.0)


def test_pi_is_math_pi():
    e = parse_expression("pi", ())
    assert e() == math.pi


def test_oversized_expressions_rejected():
    # 1,200 terms parse but nest past MAX_DEPTH; 20,000 overflow the parser itself
    for terms, reason in ((1200, "levels deep"), (20000, "too large")):
        text = "sqrt(" + " + ".join(["y1^2"] * terms) + ")"
        with pytest.raises(ExpressionError, match=reason):
            parse_expression(text, ("x1", "y1"))
    text = "sqrt(" + " + ".join(["y1^2"] * 150) + ")"
    assert parse_expression(text, ("x1", "y1"))(0.0, 2.0) == pytest.approx(2.0 * math.sqrt(150))


def test_literals_out_of_float_range_rejected():
    # 1e999 reads as inf, and a 400-digit integer has no float
    for text in ("1e999", "-1e999", "y1 * 1e999", "1" + "0" * 400):
        with pytest.raises(ExpressionError, match="out of float range"):
            parse_expression(text, ("y1",))
    assert parse_expression("1.7976931348623157e308", ())() == 1.7976931348623157e308


def test_constant_expression_on_jets_is_a_constant_jet():
    space = jet_space(2, 2)
    x = Jet.variable(space, 0, np.array([0.3, -0.5, 0.7]))
    y = Jet.variable(space, 1, 2.0)
    out = parse_expression("sqrt(2) * 3", ("x1", "x2"))(x, y)
    assert isinstance(out, Jet) and out.space is space and out.shape == (3,)
    assert np.array_equal(out.value, np.full(3, math.sqrt(2) * 3))
    assert not np.any(out.coeffs[1:])


if st is None:

    def test_jet_arguments_give_a_jet():
        pytest.skip("hypothesis is not installed")

    def test_parser_raises_only_expression_errors():
        pytest.skip("hypothesis is not installed")

else:

    def _grammar(leaves):
        """Expression strings over `leaves` with every operator and function."""

        def extend(sub):
            return st.one_of(
                st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                    lambda t: f"({t[0]} {t[1]} {t[2]})"
                ),
                st.tuples(st.sampled_from(("sqrt", "sin", "cos", "exp", "log")), sub).map(
                    lambda t: f"{t[0]}({t[1]})"
                ),
                st.tuples(sub, st.sampled_from("23")).map(lambda t: f"({t[0]})^{t[1]}"),
                sub.map(lambda t: f"-{t}"),
            )

        return st.recursive(leaves, extend, max_leaves=6)

    CONSTANTS = st.sampled_from(("0.5", "1.5", "2", "3.25", "pi"))
    TEXTS = st.one_of(
        _grammar(CONSTANTS), _grammar(st.one_of(CONSTANTS, st.sampled_from(("x1", "x2"))))
    )
    # away from 0: the Taylor coefficients of 1/x at x = 1e-275 overflow
    POINTS = st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1e-2)

    @given(TEXTS, st.sampled_from(((), (3,))), st.lists(POINTS, min_size=6, max_size=6))
    def test_jet_arguments_give_a_jet(text, shape, values):
        """On jet arguments an expression gives a jet in their space and shape,
        whose value part is the expression's value at their value parts."""
        expr = parse_expression(text, ("x1", "x2"))
        has_variables = "x1" in text or "x2" in text
        space = jet_space(2, 2)
        grid = np.array(values).reshape(2, 3)
        args = [Jet.variable(space, i, grid[i] if shape else grid[i, 0]) for i in range(2)]
        with np.errstate(all="ignore"):
            try:
                expected = np.asarray(expr(*(a.value for a in args)), dtype=float)
            except ArithmeticError:  # 1/0 or an overflow in the constant part
                assume(False)
            try:
                out = expr(*args)
            except JetDomainError:
                assert has_variables
                return
        assert isinstance(out, Jet) and out.space is space and out.shape == shape
        expected = np.broadcast_to(expected, shape)
        finite = np.isfinite(expected)
        if has_variables:
            # jet division multiplies by a reciprocal, so not bit for bit
            np.testing.assert_allclose(out.value[finite], expected[finite], rtol=1e-12)
        else:
            assert np.array_equal(out.value[finite], expected[finite])

    # the grammar's characters and tokens, plus pieces of Python it rejects
    TOKENS = st.sampled_from(
        list("0123456789.e+-*/^() ,")
        + ["x1", "x2", "x3", "pi", "sqrt", "sin", "exp", "log", "1e999", "0x1f", "1_0"]
        + ["**", "//", "%", "@", "j", "[", "]", "{", "}", ":", "'", "lambda", "if", "==", "\n"]
    )

    @settings(max_examples=500)
    @given(st.one_of(st.lists(TOKENS, max_size=30).map("".join), st.text(max_size=40)))
    def test_parser_raises_only_expression_errors(text):
        """Every string parses or raises ExpressionError; nothing else escapes."""
        try:
            parse_expression(text, ("x1", "x2"))
        except ExpressionError:
            pass
