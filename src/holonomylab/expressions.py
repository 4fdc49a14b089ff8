"""Tiny arithmetic expression language.

Norms, vector fields, and curves can be given on the command line or in config
files as strings like ``"sqrt(y1^2 + sin(x1)^2 * y2^2)"``.  We parse them with
the stdlib ``ast`` module, then one recursive pass over the syntax tree checks
each node against a strict whitelist and compiles it into a closure: binary
``+ - * / ^``, unary minus, parentheses, the functions sqrt/sin/cos/exp/log,
the constant ``pi``, numeric literals, and exactly the variable names declared
by the caller.  Anything else is rejected, so config files cannot smuggle in
attribute access or calls; a string with several violations names the first
in depth-first order.

Evaluation is generic over the operand type: floats, numpy arrays, and jets
all work because only arithmetic dunders and the five named functions are
ever applied.  On jet arguments the result is always a jet: an expression
that does not depend on them (``"0.5"``, ``"sqrt(2)"``) evaluates to the
constant jet in their space, with their broadcast value shape.
"""

from __future__ import annotations

import ast
import math
import numbers
import operator
import sys
import warnings

import numpy as np

from .jets import Jet

__all__ = ["Expression", "ExpressionError", "parse_expression"]

_FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")

# Compilation and evaluation recurse once per tree level; this keeps the
# deepest accepted tree well inside the interpreter's recursion limit.
MAX_DEPTH = 200

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


class ExpressionError(ValueError):
    """Raised for syntax the mini-language does not accept."""


def _apply_function(name: str, value):
    if isinstance(value, Jet):
        return getattr(value, name)()
    return getattr(np, name)(value)


class Expression:
    """A parsed expression over a fixed tuple of variable names.

    Call with positional values in declaration order, or use `evaluate` with
    a name-to-value mapping.  Values may be numbers, arrays, or jets.
    """

    def __init__(self, text: str, variables: tuple[str, ...], compiled):
        self.text = text
        self.variables = variables
        self._compiled = compiled

    def __repr__(self):
        return f"Expression({self.text!r}, variables={self.variables})"

    def evaluate(self, env: dict):
        missing = [v for v in self.variables if v not in env]
        if missing:
            raise ExpressionError(f"missing values for {missing}")
        result = self._compiled(env)
        jets = [env[v] for v in self.variables if isinstance(env[v], Jet)]
        if isinstance(result, Jet) or not jets:
            return result
        # the result does not depend on the jet arguments: their constant jet
        shape = np.broadcast_shapes(np.shape(result), *(j.shape for j in jets))
        return Jet.constant(jets[0].space, np.broadcast_to(result, shape))

    def __call__(self, *values):
        if len(values) != len(self.variables):
            raise ExpressionError(
                f"expected {len(self.variables)} values for {self.variables}, got {len(values)}"
            )
        return self.evaluate(dict(zip(self.variables, values)))


def _compile(node, variables: tuple[str, ...]):
    """The evaluator env -> value of `node`, checked against the grammar on
    the way down; raises ExpressionError for anything outside it."""
    if isinstance(node, ast.BinOp):
        kind = type(node.op)
        if kind not in _BINOPS and kind is not ast.Pow:
            raise ExpressionError(f"operator {kind.__name__} is not allowed")
        left, right = _compile(node.left, variables), _compile(node.right, variables)
        if kind is ast.Pow:

            def power(env):
                base = left(env)
                exponent = right(env)
                if isinstance(exponent, Jet):
                    raise ExpressionError("exponents must be numbers, not expressions in variables")
                return base ** exponent

            return power
        op = _BINOPS[kind]
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ExpressionError(f"operator {type(node.op).__name__} is not allowed")
        operand = _compile(node.operand, variables)
        if isinstance(node.op, ast.USub):
            return lambda env: -operand(env)
        return operand
    if isinstance(node, ast.Constant):
        value = node.value
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ExpressionError(f"literal {value!r} is not a number")
        if not abs(value) <= sys.float_info.max:  # 1e999 reads as inf
            raise ExpressionError(f"literal {value!r:.40} is out of float range")
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        if name == "pi":
            return lambda env: math.pi
        if name not in variables:
            raise ExpressionError(
                f"unknown name {name!r}; allowed: {', '.join(variables)} and pi"
            )
        return lambda env: env[name]
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(
                f"only {', '.join(_FUNCTIONS)} may be called"
            )
        name = node.func.id
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{name} takes exactly one argument")
        argument = _compile(node.args[0], variables)
        return lambda env: _apply_function(name, argument(env))
    raise ExpressionError(f"syntax {type(node).__name__} is not allowed")


def _depth(tree: ast.AST) -> int:
    deepest, stack = 0, [(tree, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in ast.iter_child_nodes(node))
    return deepest


def parse_expression(text: str, variables) -> Expression:
    """Parse `text` into an Expression over exactly `variables`.

    `^` is accepted as a synonym for exponentiation.  Raises ExpressionError
    for malformed input, names outside `variables` (plus `pi`), calls to
    anything but sqrt/sin/cos/exp/log, non-numeric literals, literals out of
    float range (``1e999`` would read as inf), and syntax trees deeper than
    MAX_DEPTH levels.
    """
    variables = tuple(variables)
    seen = set()
    for v in variables:
        if not v.isidentifier() or v in seen or v == "pi" or v in _FUNCTIONS:
            raise ExpressionError(f"bad variable name {v!r}")
        seen.add(v)
    source = text.replace("^", "**")
    try:
        with warnings.catch_warnings():  # a SyntaxWarning ("1if") marks malformed input
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(
            f"expression of {len(text)} characters is too large for the parser"
        ) from None
    depth = _depth(tree)
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nests {depth} levels deep; at most {MAX_DEPTH} allowed")
    return Expression(text, variables, _compile(tree.body, variables))
