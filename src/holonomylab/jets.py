"""Truncated Taylor-jet arithmetic and finite-difference derivative estimates.

Forward-mode derivatives are carried as dense coefficient tables over a finite
multi-index set.  A jet stores Taylor coefficients (derivative divided by the
factorial of the multi-index), which makes multiplication a plain truncated
convolution; callers read derivatives back through :meth:`Jet.derivative`.

A jet of a vector, a matrix or a batch of them is one table: `coeffs` has
shape ``(space.size, *shape)``, tensor axes first and batch axes last, and
every operation acts on each entry of the value shape as it would on a scalar
jet, bit for bit.  Binary operations broadcast value shapes the numpy way.

Two derivative routes are provided on purpose: exact jet propagation and
Richardson-extrapolated central differences.  They share no code beyond the
function being differentiated, so each one validates the other.
"""

from __future__ import annotations

import itertools
import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetSpace",
    "JetDomainError",
    "JetOrderError",
    "JetShapeError",
    "DomainBoxError",
    "SmoothMap",
    "DerivativeEstimate",
    "jet_space",
    "grouped_space",
    "jet_point",
    "compose_table",
    "curve_derivative",
    "mixed_partial",
    "finite_difference_weights",
    "richardson_extrapolate",
    "solve",
    "tally",
    "count",
]

_RICHARDSON_SCHEDULE = (0.1, 0.05, 0.025, 0.0125)
# largest last Richardson correction, relative to the value scale, that
# counts as converged
_RICHARDSON_THRESHOLD = 1e-5

# Largest pair-product array `JetSpace.multiply` folds with np.bincount, whose
# flat index it caches per column count, on a space of at most 7 layers; a
# space of more folds up to this many times a quarter of its layer count (see
# `JetSpace.bincount_limit`), since the layered fold costs about 4 us per layer
# whatever the width.  On one core of a 2-core x86 host, one BLAS thread: a
# one-column product on the 252-entry space of 72 layers takes 21 us by
# bincount and 141 us layered, a 20-column one 298 and 264 us.
_BINCOUNT_MAX_ELEMENTS = 4096
# Most elements of one block of pair codes in a pair table's build (2 MB of
# int64): a pair table is enumerated a block of rows at a time.
_PAIR_BUDGET = 2**18

# Run telemetry, the one counter set: each group's counter names.  Spray-memo
# tables come from curvature, lockstep transports and rounds from transport.
_COUNTERS = {
    "spray_tables": ("requests", "computed"),
    "lockstep": ("members", "rounds", "requests"),
}
# the counts of the innermost `tally` block; None outside any block
_TALLY: ContextVar = ContextVar("tally", default=None)


@contextmanager
def tally():
    """Yield {group: {name: 0}} for every counter, which `count` fills in
    within the block.  A nested block counts into its own set only, and the
    enclosing block resumes when it ends.  Lockstep members are transports
    only: `transport.integrate` solves and chain points do not count."""
    counts = {group: dict.fromkeys(names, 0) for group, names in _COUNTERS.items()}
    token = _TALLY.set(counts)
    try:
        yield counts
    finally:
        _TALLY.reset(token)


def count(group: str, **increments: int) -> None:
    """Add to the group's counters of the innermost `tally` block, if any.
    An unknown group or name raises KeyError, inside a block or not."""
    unknown = increments.keys() - _COUNTERS[group]
    if unknown:
        raise KeyError(f"{group} has no counter {sorted(unknown)[0]!r}")
    counts = _TALLY.get()
    if counts is not None:
        for name, n in increments.items():
            counts[group][name] += n


class JetDomainError(ValueError):
    """An elementary operation left its analytic domain (sqrt of a negative
    value part, log of a nonpositive one, division by a zero value part)."""


class JetShapeError(ValueError):
    """Operands live in different jet spaces, or a space's groups are malformed."""


class JetOrderError(ValueError):
    """A derivative was requested beyond what the coefficient table carries."""


class DomainBoxError(ValueError):
    """A SmoothMap was evaluated outside its declared domain box."""


def _group_indices(size: int, cap: int) -> list[tuple[int, ...]]:
    """All multi-indices over `size` variables with total degree <= cap."""
    if size == 0:
        return [()]
    out = []
    for head in range(cap + 1):
        for tail in _group_indices(size - 1, cap - head):
            out.append((head,) + tail)
    return out


class JetSpace:
    """Multi-index bookkeeping shared by every jet of one shape.

    A space is described by variable groups ``((size, cap), ...)``: the index
    set holds each multi-index whose total degree inside every group stays at
    or below that group's cap, and, given `total`, whose total degree over all
    variables stays at or below it.  A single group ``(n, m)`` is the ordinary
    complete table of mixed partials up to total degree ``m``.  Group caps let
    geometry code carry, say, one x-derivative alongside four y-derivatives
    without paying for a full degree-5 table; truncated products remain exact
    on every retained index because the index set is downward closed.  Reads
    (:meth:`reads`) go to spaces without a total cap.
    """

    _cache: dict[tuple, "JetSpace"] = {}

    def __init__(self, groups: tuple[tuple[int, int], ...], total: int | None = None):
        self.groups = groups
        self.num_vars = sum(size for size, _ in groups)
        self.caps = tuple(cap for _, cap in groups)
        self.max_total = sum(self.caps) if total is None else total

        per_group = [_group_indices(size, cap) for size, cap in groups]
        tuples: list[tuple[int, ...]] = [()]
        for block in per_group:
            tuples = [t + b for t in tuples for b in block if sum(t) + sum(b) <= self.max_total]
        tuples.sort(key=lambda t: (sum(t), t))
        self.tuples = tuples
        self.size = len(tuples)
        self.multi = np.array(tuples, dtype=np.int64).reshape(self.size, self.num_vars)
        self.position = {t: i for i, t in enumerate(tuples)}
        self.fact = np.array(
            [math.prod(math.factorial(d) for d in t) for t in tuples], dtype=float
        )

        self._group_of_var = [g for g, (size, _) in enumerate(groups) for _ in range(size)]
        # a quarter of the layered fold's layer count, the most pairs on one
        # target t: every index below t is in the space, so t has prod(t_v + 1)
        self._bincount_scale = max(1, max(math.prod(d + 1 for d in t) for t in tuples) // 4)
        # each variable's linear entry; None where its group's cap or `total` is 0
        self._units = [self.position.get(tuple(e)) for e in np.identity(self.num_vars, int).tolist()]

        self._mul = None
        self._layered = None
        self._flat: dict[int, np.ndarray] = {}
        self._reads: dict[tuple, tuple["JetSpace", np.ndarray, np.ndarray]] = {}
        self._mono_parent: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def create(cls, groups: tuple[tuple[int, int], ...], total: int | None = None) -> "JetSpace":
        """The cached space of `groups`; a `total` at or above the sum of the
        caps cuts nothing and gives the space without one."""
        if total is not None and total >= sum(cap for _, cap in groups):
            total = None
        space = cls._cache.get((groups, total))
        if space is None:
            if any(size < 0 or cap < 0 for size, cap in groups) or total is not None and total < 0:
                raise JetShapeError(f"groups {groups}, total {total}: a size or cap is negative")
            space = cls._cache[(groups, total)] = cls(groups, total)
        return space

    def __repr__(self):  # pragma: no cover
        return f"JetSpace{self.groups}"

    # -- multiplication -------------------------------------------------

    def _mul_table(self):
        """Pair positions and targets of the truncated convolution, built once.

        Multi-indices are encoded in a mixed radix wide enough that adding two
        admissible indices never carries, so pair sums can be looked up in a
        flat table, a block of rows of at most `_PAIR_BUDGET` sums at a time.
        Returns (ii, jj, kk): pair p multiplies entries ii[p] and jj[p] into
        entry kk[p], pairs in row-major (ii, jj) order.
        """
        if self._mul is not None:
            return self._mul
        radix = np.array(
            [2 * self.caps[self._group_of_var[v]] + 1 for v in range(self.num_vars)],
            dtype=np.int64,
        )
        stride = np.ones(self.num_vars, dtype=np.int64)
        for v in range(self.num_vars - 2, -1, -1):
            stride[v] = stride[v + 1] * radix[v + 1]
        codes = self.multi @ stride
        lookup = np.full(int(radix.prod()) if self.num_vars else 1, -1, dtype=np.int64)
        lookup[codes] = np.arange(self.size)
        rows = max(1, _PAIR_BUDGET // self.size)
        blocks = []
        for r in range(0, self.size, rows):
            kk = lookup[codes[r : r + rows, None] + codes]
            ii, jj = np.nonzero(kk >= 0)
            blocks.append((ii + r, jj, kk[ii, jj]))
        self._mul = tuple(map(np.concatenate, zip(*blocks)))
        return self._mul

    def _layers(self):
        """The layered fold's plan, built on this space's first large product.

        A pair's rank is its position among its target's pairs in pair order.
        Output rows hold the targets in descending order of pair count, so the
        targets of rank r fill the first rows; layer r lists the (ii, jj) of
        their rank-r pairs in row order.  Returns (layers, slot): the target k
        sits in row slot[k].
        """
        if self._layered is None:
            ii, jj, kk = self._mul_table()
            counts = np.bincount(kk, minlength=self.size)
            slot = np.empty(self.size, dtype=np.int64)
            slot[np.argsort(-counts, kind="stable")] = np.arange(self.size)
            by_target = np.argsort(kk, kind="stable")
            rank = np.empty_like(kk)
            rank[by_target] = np.arange(len(kk)) - (np.cumsum(counts) - counts)[kk[by_target]]
            order = np.lexsort((slot[kk], rank))
            ends = np.cumsum(np.bincount(rank))
            layers = list(zip(np.split(ii[order], ends[:-1]), np.split(jj[order], ends[:-1])))
            self._layered = (layers, slot)
        return self._layered

    def bincount_limit(self) -> int:
        """The most pair products, times columns, that `multiply` folds with np.bincount."""
        return _BINCOUNT_MAX_ELEMENTS * self._bincount_scale

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two coefficient tables of one shape, (size,) or (size, columns).

        Up to `bincount_limit` pair products, `np.bincount` over a flat
        index cached per column count folds them.  Larger products use
        the layered fold, which caches nothing per column count: per rank r,
        the rank-r pair products of every target that has one are gathered,
        multiplied and added into the first rows of the output, and one
        gather by slot restores the target order.  Its transient arrays are
        no larger than the output.  Every output entry starts at +0.0 and adds
        its pair products one at a time in pair order, column by column, so
        the folds agree bit for bit, and with a sparse matrix's fold, up to
        the sign of a NaN that sums two NaNs.
        """
        ii, jj, kk = self._mul_table()
        width = a.size // self.size
        if len(ii) * width > self.bincount_limit():
            layers, slot = self._layers()
            a2, b2 = a.reshape(self.size, width), b.reshape(self.size, width)
            out = np.zeros(a2.shape)
            for i, j in layers:
                pairs = a2.take(i, 0)
                pairs *= b2.take(j, 0)
                out[: len(i)] += pairs
            return out.take(slot, 0).reshape(a.shape)
        if a.ndim == 1:
            pairs = a[ii] * b[jj]
        else:  # take() gathers the rows of a 2-D table several times faster than a[ii]
            pairs = a.take(ii, 0) * b.take(jj, 0)
        flat = self._flat.get(width)
        if flat is None:
            flat = self._flat[width] = (kk[:, None] * width + np.arange(width)).ravel()
        return np.bincount(flat, pairs.ravel(), self.size * width).reshape(a.shape)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two coefficient tables of equal ndim whose
        value shapes broadcast: each is repeated along its unit axes, and a
        value shape of several axes flattens into the columns of one `multiply`."""
        if a.shape != b.shape:
            for axis, (p, q) in enumerate(zip(a.shape, b.shape)):
                if p != q:
                    a, b = (a.repeat(q, axis), b) if p == 1 else (a, b.repeat(p, axis))
        if a.ndim <= 2:
            return self.multiply(a, b)
        return self.multiply(a.reshape(self.size, -1), b.reshape(self.size, -1)).reshape(a.shape)

    # -- structural maps -------------------------------------------------

    def reads(
        self, steps: tuple, target: tuple, drop: int | None = None
    ) -> tuple["JetSpace", np.ndarray, np.ndarray]:
        """Where the tables of `steps` sit in a jet of this space, truncated to
        the space `dst` of groups `target`: (dst, pos, scale), built once per
        (steps, target, drop).

        Each read is a tuple of variables differentiated in order, () a plain
        truncation.  Entry i of read j's table is c[pos[i, j]] times scale[0,
        i, j], then scale[1, i, j] and so on: one factor (t_v + 1) per step,
        padded with 1.0, so it rounds as the steps taken one at a time do.
        When group `drop` is given, its variables are held at the expansion
        point: `target` lists the other groups, and each table keeps the
        entries of degree 0 in the dropped group.
        """
        hit = self._reads.get((steps, target, drop))
        if hit is None:
            dst = JetSpace.create(target)
            start = sum(size for size, _ in self.groups[:drop])
            held = (0,) * (0 if drop is None else self.groups[drop][0])
            if dst.num_vars + len(held) != self.num_vars:
                raise JetShapeError(f"{dst.groups} and {self.groups} differ in variables")
            pos = np.empty((dst.size, len(steps)), dtype=np.int64)
            scale = np.ones((max(map(len, steps), default=0), dst.size, len(steps)))
            for i, t in enumerate(dst.tuples):
                for j, read in enumerate(steps):
                    lifted = list(t[:start] + held + t[start:])
                    for k in range(len(read) - 1, -1, -1):  # the last step is taken at t
                        lifted[read[k]] += 1
                        scale[k, i, j] = lifted[read[k]]
                    if tuple(lifted) not in self.position:
                        raise JetOrderError(f"read {read} into {dst.groups} exceeds {self.groups}")
                    pos[i, j] = self.position[tuple(lifted)]
            hit = self._reads[(steps, target, drop)] = (dst, pos, scale)
        return hit

    def monomial_parents(self):
        """(parent position, variable) pairs for incremental monomial building,
        valid because indices are stored in graded order."""
        if self._mono_parent is None:
            parents = np.zeros(self.size, dtype=np.int64)
            last_var = np.zeros(self.size, dtype=np.int64)
            for i, t in enumerate(self.tuples):
                if i == 0:
                    continue
                v = max(k for k, d in enumerate(t) if d > 0)
                down = list(t)
                down[v] -= 1
                parents[i] = self.position[tuple(down)]
                last_var[i] = v
            self._mono_parent = (parents, last_var)
        return self._mono_parent


def jet_space(num_vars: int, order: int) -> JetSpace:
    """The complete table of mixed partials up to total degree `order`."""
    return JetSpace.create(((num_vars, order),))


def grouped_space(groups: Sequence[tuple[int, int]], total: int | None = None) -> JetSpace:
    """The space of `groups`, cut to total degree `total` when given."""
    groups = tuple((int(s), int(c)) for s, c in groups)
    return JetSpace.create(groups, None if total is None else int(total))


def _pad(coeffs: np.ndarray, ndim: int) -> np.ndarray:
    """`coeffs` with leading unit axes inserted into its value shape up to `ndim` axes."""
    return coeffs.reshape(coeffs.shape[:1] + (1,) * (ndim + 1 - coeffs.ndim) + coeffs.shape[1:])


class Jet:
    """A truncated Taylor expansion of a scalar, tensor or batch of them.

    `coeffs` has shape ``(space.size, *shape)``; the value shape puts tensor
    axes first and batch axes last, and every entry is carried through each
    operation independently.  Values are Taylor coefficients;
    :meth:`derivative` rescales by factorials.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- construction ----------------------------------------------------

    @staticmethod
    def constant(space: JetSpace, value) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((space.size,) + value.shape)
        coeffs[0] = value
        return Jet(space, coeffs)

    @staticmethod
    def variable(space: JetSpace, var: int, value) -> "Jet":
        """The coordinate jet of variable `var` expanded at `value`.

        A variable whose group has cap 0 has no linear slot; its jet is the
        constant `value`, which is the exact truncation of the coordinate.
        """
        if not 0 <= var < space.num_vars:
            raise JetShapeError(
                f"variable {var} outside the {space.num_vars} variables of {space.groups}"
            )
        jet = Jet.constant(space, value)
        if space._units[var] is not None:
            jet.coeffs[space._units[var]] = 1.0
        return jet

    @staticmethod
    def stack(jets, axis: int = 0) -> "Jet":
        """One jet whose value axis `axis` runs over `jets`, all of one value shape.

        Nested sequences (an n x n grid of scalar jets, say) stack recursively.
        """
        jets = [j if isinstance(j, Jet) else Jet.stack(j) for j in jets]
        for j in jets[1:]:
            jets[0]._coerce(j)
        # cheaper than np.stack; C order keeps later BLAS calls on one path
        stacked = np.array([j.coeffs for j in jets])
        order = list(range(1, stacked.ndim))
        order.insert(1 + axis, 0)
        return Jet(jets[0].space, np.ascontiguousarray(stacked.transpose(order)))

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        return self.coeffs[0]

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[1:]

    def derivative(self, multi):
        """Mixed partial derivative for a multi-index (int allowed in 1 var)."""
        if isinstance(multi, numbers.Integral):
            multi = (int(multi),)
        multi = tuple(int(m) for m in multi)
        pos = self.space.position.get(multi)
        if pos is None:
            raise JetOrderError(
                f"multi-index {multi} not carried by space {self.space.groups}"
            )
        return self.coeffs[pos] * self.space.fact[pos]

    # -- value-shape operations ----------------------------------------------

    def at(self, index) -> "Jet":
        """The jet of ``value[index]``, for a numpy index of the value axes."""
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.space, self.coeffs[(slice(None),) + index])

    def unstack(self) -> list:
        """The jets along the first value axis; the inverse of :meth:`stack`."""
        return [Jet(self.space, c) for c in self.coeffs.swapaxes(0, 1)]

    def sum(self, axis: int = 0) -> "Jet":
        """Sum over value axis `axis`, adding the terms in order from the first."""
        at = (slice(None),) * (1 + axis)
        acc = self.coeffs[at + (0,)]
        for k in range(1, self.coeffs.shape[1 + axis]):
            acc = acc + self.coeffs[at + (k,)]
        return Jet(self.space, acc)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise JetShapeError(
                    f"mixed spaces {self.space.groups} and {other.space.groups}"
                )
            return other
        return None

    def _operands(self, other):
        """Coefficient arrays of self and other (a jet or a number) that broadcast."""
        if type(other) is float:  # as a 0-d array would, with no conversion
            return self.coeffs, other, False
        if not isinstance(other, Jet):
            arr = np.asarray(other, dtype=float)
            if arr.ndim < self.coeffs.ndim:
                return self.coeffs, arr, False
            return _pad(self.coeffs, arr.ndim), arr, False
        a, b = self.coeffs, self._coerce(other).coeffs
        if a.ndim != b.ndim:
            ndim = max(a.ndim, b.ndim) - 1
            a, b = _pad(a, ndim), _pad(b, ndim)
        return a, b, True

    def __add__(self, other):
        a, b, is_jet = self._operands(other)
        if is_jet:
            return Jet(self.space, a + b)
        value = a[0] + b
        out = np.empty(a.shape[:1] + value.shape)
        out[...] = a
        out[0] = value
        return Jet(self.space, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.coeffs
        if isinstance(other, Jet) and other.coeffs.shape == a.shape and a.ndim <= 2:
            # what `product` does with one shape, without its broadcasting
            return Jet(self.space, self.space.multiply(a, self._coerce(other).coeffs))
        a, b, is_jet = self._operands(other)
        return Jet(self.space, self.space.product(a, b) if is_jet else a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        a, b, _ = self._operands(other)
        return Jet(self.space, a / b)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
            p = int(p)
            if p < 0:
                return self._reciprocal() ** (-p)
            out = Jet.constant(self.space, np.ones(self.shape))
            base = self
            while p:
                if p & 1:
                    out = out * base
                p >>= 1
                if p:
                    base = base * base
            return out
        return self._analytic(_pow_series(float(p)), f"power {p}", positive=True)

    # -- analytic functions -------------------------------------------------

    def _analytic(self, series_fn, label: str, positive=False, nonzero=False) -> "Jet":
        c = np.asarray(self.value, dtype=float)
        if positive and (c <= 0.0).any():
            raise JetDomainError(f"{label} needs a positive value part, got {c!r}")
        if nonzero and (c == 0.0).any():
            raise JetDomainError(f"{label} needs a nonzero value part")
        m = self.space.max_total
        series = series_fn(c, m)  # m + 1 terms of c's shape
        w = self.coeffs.copy()
        w[0] = 0.0
        out = np.zeros_like(w)
        out[0] = series[m]
        for j in range(m - 1, -1, -1):
            out = self.space.product(out, w)
            # w's value part is 0, so the product's is 0 too, or inf*0 = NaN
            # once the higher series terms overflow at a tiny value part
            out[0] = series[j]
        return Jet(self.space, out)

    def _reciprocal(self) -> "Jet":
        return self._analytic(_recip_series, "division", nonzero=True)

    def sqrt(self) -> "Jet":
        if self.space.max_total == 0:
            if np.any(np.asarray(self.value) < 0.0):
                raise JetDomainError("sqrt of a negative value part")
            return Jet(self.space, np.sqrt(self.coeffs))
        return self._analytic(_pow_series(0.5), "sqrt", positive=True)

    def exp(self) -> "Jet":
        return self._analytic(_exp_series, "exp")

    def log(self) -> "Jet":
        return self._analytic(_log_series, "log", positive=True)

    def sin(self) -> "Jet":
        return self._analytic(_sin_series, "sin")

    def cos(self) -> "Jet":
        return self._analytic(_cos_series, "cos")

    # -- structural operations ----------------------------------------------

    def read(self, steps, target, drop: int | None = None) -> "Jet":
        """The jet in `target` of value shape (len(steps), *shape) whose entry j
        is the table of read j of `steps`, with group `drop` held at the
        expansion point (see :meth:`JetSpace.reads`)."""
        steps = steps if type(steps) is tuple else tuple(map(tuple, steps))
        dst, pos, scale = self.space.reads(steps, tuple(target), drop)
        coeffs = self.coeffs[pos]
        for factor in scale:
            coeffs = coeffs * factor.reshape(factor.shape + (1,) * (coeffs.ndim - 2))
        return Jet(dst, coeffs)

    def gradient(self, variables, axis: int = 0) -> "Jet":
        """The derivative tables in `variables`, all of one group, stacked
        along value axis `axis`; that group's cap is one lower."""
        g = self.space._group_of_var[variables[0]]
        # a group at cap 0 stays there, where `reads` finds no entry to read
        lowered = tuple((s, max(c - (i == g), 0)) for i, (s, c) in enumerate(self.space.groups))
        table = self.read(tuple((v,) for v in variables), lowered)
        order = (0, *range(2, 2 + axis), 1, *range(2 + axis, table.coeffs.ndim))
        return Jet(table.space, np.ascontiguousarray(table.coeffs.transpose(order)))

    def truncated(self, groups, drop: int | None = None) -> "Jet":
        """The jet in `groups`; with `drop`, restricted to that group's
        variables at the expansion point, and over the other groups."""
        return self.read(((),), groups, drop).at(0)


def jet_point(space: JetSpace, values) -> list[Jet]:
    """Seed one jet per variable, carrying `values` as the expansion point."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != space.num_vars:
        raise JetShapeError(
            f"expected {space.num_vars} coordinates, got {values.shape[0]}"
        )
    return [Jet.variable(space, v, values[v]) for v in range(space.num_vars)]


def solve(M: Jet, R: Jet) -> Jet:
    """The jet X of M X = R, for M of value shape (n, n, *batch) and R of
    (n, *batch) in one space, batch shapes of one length that broadcast.

    numpy inverts the value part M0.  N = M - M0 has a zero value part, so
    X = sum_j (-A N)^j A R with A = M0^-1 ends at the space's total degree,
    and Horner's rule sums it: X <- A R - (A N) X, once per degree.  Each
    step is elementwise or a jet product, and `np.linalg.inv` inverts each
    matrix of a stack on its own, so a column's bits do not depend on the
    batch.  A singular M0 raises JetDomainError.
    """
    M._coerce(R)
    batch = tuple(range(2, M.value.ndim))
    try:  # the batch axes lead while numpy inverts, then trail again
        A = np.linalg.inv(M.value.transpose(*batch, 0, 1)).transpose(-2, -1, *range(len(batch)))
    except np.linalg.LinAlgError:
        raise JetDomainError("solve needs an invertible value part") from None
    AR = (R.at(None) * A).sum(axis=1)
    AN = (M.at(None) * A[:, :, None]).sum(axis=1)
    AN.coeffs[0] = 0.0
    X = AR
    for _ in range(M.space.max_total):
        X = -(AN * X.at(None)).sum(axis=1) + AR
    return X


# -- Taylor series of the elementary functions at a point --------------------


def _exp_series(c, m):
    e = np.exp(c)
    return [e / math.factorial(j) for j in range(m + 1)]


def _log_series(c, m):
    rows = [np.log(c)]
    for j in range(1, m + 1):
        rows.append(((-1.0) ** (j - 1)) / (j * c**j))
    return rows


def _sin_series(c, m):
    s, co = np.sin(c), np.cos(c)
    cycle = [s, co, -s, -co]
    return [cycle[j % 4] / math.factorial(j) for j in range(m + 1)]


def _cos_series(c, m):
    s, co = np.sin(c), np.cos(c)
    cycle = [co, -s, -co, s]
    return [cycle[j % 4] / math.factorial(j) for j in range(m + 1)]


def _recip_series(c, m):
    rows = [1.0 / c]
    for j in range(1, m + 1):
        rows.append(-rows[-1] / c)
    return rows


def _pow_series(p):
    def series(c, m):
        rows = [c**p]
        for j in range(1, m + 1):
            rows.append(rows[-1] * (p - (j - 1)) / (j * c))
        return rows

    return series


def compose_table(table: Jet, args: Sequence[Jet], center) -> Jet:
    """Evaluate a Taylor table on jets whose value parts sit at its center.

    The displacement jets (argument minus center) are nilpotent, so plugging
    them into the table polynomial is exact at the outer truncation order.
    Monomials are built incrementally in graded order (one multiplication per
    table index) and shared by every entry of the table's value shape, which
    broadcasts against the arguments' shape.
    """
    center = np.asarray(center, dtype=float)
    if len(args) != table.space.num_vars:
        raise JetShapeError(
            f"table over {table.space.num_vars} variables, got {len(args)} arguments"
        )
    outer = args[0].space
    disp = []
    for a, c in zip(args, center):
        w = a - c
        w.coeffs[0] = 0.0 * w.coeffs[0]  # kill rounding dust; exactness needs it
        disp.append(w)
    parents, last_var = table.space.monomial_parents()
    monos: list[Jet | None] = [None] * table.space.size
    monos[0] = Jet.constant(outer, np.ones(disp[0].shape))
    out = monos[0] * table.coeffs[0]
    for i in range(1, table.space.size):
        monos[i] = monos[parents[i]] * disp[last_var[i]]
        out = out + monos[i] * table.coeffs[i]
    return out


# -- smooth maps --------------------------------------------------------------


def _wall(bound, dim: int, missing: float):
    """A domain wall as (bound, -slack) arrays and as one float pair per
    coordinate, at `missing` (an infinity) where there is none; x is outside
    when x - lo < -slack or hi - x < -slack."""
    bound = np.full(dim, missing) if bound is None else bound
    floor = -1e-9 * np.maximum(1.0, np.abs(bound))
    return bound, floor, np.broadcast_to(np.stack([bound, floor], -1), (dim, 2)).tolist()


class SmoothMap:
    """A pure function of jets, or of floats, with an axis-aligned validity box.

    The one vector-field type given by a function of the coordinates: base
    fields and `liealg`'s polynomial and expression fields alike, so any two
    of them bracket.  The evaluator receives one argument per domain variable
    and returns a list of one per codomain component.  :meth:`jets` passes
    jets (all in one space) and stacks the returned jets into one jet of value
    shape (components, *batch); :meth:`taylor` seeds them at a center, up to an
    order no higher than `max_order` (None: no limit).  :meth:`value` passes
    the point's coordinates as floats (numpy scalars, or arrays for a batch of
    points) and does the IEEE operations an order-0 jet would do, except that
    a product of two jets is summed onto +0.0, so ``-0.0`` from a float
    product reads ``+0.0`` on jets.  Evaluation outside the box raises, never
    extrapolates; a relative slack of 1e-9 absorbs rounding at the walls.
    """

    def __init__(
        self,
        fun: Callable[[list], Sequence],
        dim: int,
        lo=None,
        hi=None,
        name: str = "",
        max_order: int | None = None,
    ):
        self.fun = fun
        self.dim = dim
        self.lo = None if lo is None else np.asarray(lo, dtype=float)
        self.hi = None if hi is None else np.asarray(hi, dtype=float)
        self.name = name
        self.max_order = max_order
        self._lo_wall = _wall(self.lo, dim, -np.inf)
        self._hi_wall = _wall(self.hi, dim, np.inf)

    def _check_domain(self, v: np.ndarray):
        (lo, lo_floor, lo_pairs), (hi, hi_floor, hi_pairs) = self._lo_wall, self._hi_wall
        if v.ndim == 1:  # one point: plain float comparisons
            below = above = False
            for c, (a, f), (b, g) in zip(v.tolist(), lo_pairs, hi_pairs):
                below = below or c - a < f
                above = above or b - c < g
        else:
            below = bool((v.T - lo < lo_floor).any())
            above = bool((hi - v.T < hi_floor).any())
        if below:
            raise DomainBoxError(f"{self.name or 'map'}: point below domain box {self.lo}")
        if above:
            raise DomainBoxError(f"{self.name or 'map'}: point above domain box {self.hi}")

    def jets(self, args: Sequence[Jet]) -> Jet:
        if len(args) != self.dim:
            raise JetShapeError(f"{self.name}: expected {self.dim} arguments")
        if self.lo is not None or self.hi is not None:
            self._check_domain(np.stack([np.asarray(a.value) for a in args]))
        return Jet.stack(self.fun(list(args)))

    def taylor(self, center, order: int) -> Jet:
        """The jet of the map at `center` (shape (dim,) or (dim, batch)) up to `order`."""
        if self.max_order is not None and order > self.max_order:
            raise JetOrderError(
                f"{self.name or 'map'}: order {order} requested, "
                f"but the map only supports {self.max_order}"
            )
        return self.jets(jet_point(jet_space(self.dim, order), center))

    def value(self, x) -> np.ndarray:
        """The map at the point x (shape (dim,), or (dim, batch)), on floats."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise JetShapeError(
                f"{self.name}: expected {self.dim} coordinates, got {x.shape[0]}"
            )
        self._check_domain(x)
        return np.array(self.fun(list(x)), dtype=float)


@dataclass(frozen=True)
class DerivativeEstimate:
    """A derivative value with its provenance.

    In richardson mode `error` is the last extrapolation correction (a live
    estimate of the remaining truncation error) and `converged` flags whether
    it cleared `_RICHARDSON_THRESHOLD`; jet mode is exact so error is 0.
    """

    value: np.ndarray
    error: float
    converged: bool
    mode: str


def finite_difference_weights(m: int, xs: Sequence[float]) -> np.ndarray:
    """Fornberg weights for the m-th derivative at 0 on arbitrary nodes."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    d = np.zeros((n, n, m + 1))
    d[0, 0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            for k in range(min(i, m), -1, -1):
                d[i, j, k] = (xs[i] * d[i - 1, j, k] - k * d[i - 1, j, k - 1]) / c3
        for k in range(min(i, m), -1, -1):
            d[i, i, k] = (c1 / c2) * (k * d[i - 1, i - 1, k - 1] - xs[i - 1] * d[i - 1, i - 1, k])
        c1 = c2
    return d[n - 1, :, m]


def richardson_extrapolate(values: Sequence[np.ndarray], steps: Sequence[float], power: float = 2.0):
    """Neville extrapolation of step-dependent estimates to step -> 0.

    Assumes an error expansion in steps**power (central stencils give 2).
    Returns (limit, last correction magnitude).
    """
    T = [np.asarray(v, dtype=float) for v in values]
    n = len(T)
    if n != len(steps):
        raise ValueError("one value per step required")
    if n == 1:
        return T[0], float("inf")
    err = None
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            r = (steps[i - j] / steps[i]) ** power
            correction = (T[i] - T[i - 1]) / (r - 1.0)
            if i == n - 1:
                err = float(np.max(np.abs(correction)))
            T[i] = T[i] + correction
    return T[n - 1], err


def _stencil(k: int) -> tuple[np.ndarray, np.ndarray]:
    m = (k + 1) // 2
    nodes = np.arange(-m, m + 1, dtype=float)
    return nodes, finite_difference_weights(k, nodes)


def _partial(f, orders: tuple, mode: str) -> DerivativeEstimate:
    """The derivative of multi-index `orders` at the origin, one parameter per entry.

    Jet mode seeds one group per parameter, with cap equal to its order.
    Richardson mode runs the tensor product of central stencils with every
    step halved together, extrapolates, and flags convergence.
    """
    if min(orders) < 0:
        raise ValueError("derivative order must be >= 0")
    if mode == "jet":
        space = grouped_space(tuple((1, k) for k in orders))
        args = [Jet.variable(space, v, 0.0) for v in range(len(orders))]
        out = f.jets(args) if isinstance(f, SmoothMap) else f(*args)
        value = (out if isinstance(out, Jet) else Jet.stack(out)).derivative(orders)
        return DerivativeEstimate(float(value) if value.ndim == 0 else value, 0.0, True, "jet")
    if mode != "richardson":
        raise ValueError(f"unknown mode {mode!r}")
    stencils = [list(zip(*_stencil(k))) for k in orders]
    estimates = []
    for h in _RICHARDSON_SCHEDULE:
        acc = None
        for taps in itertools.product(*stencils):
            weight = math.prod(w for _, w in taps)
            if weight == 0.0:
                continue
            point = [float(node * h) for node, _ in taps]
            if isinstance(f, SmoothMap):
                term = weight * f.value(np.array(point))
            else:
                term = weight * np.asarray(f(*point), dtype=float)
            acc = term if acc is None else acc + term
        estimates.append(acc / h ** sum(orders))
    value, err = richardson_extrapolate(estimates, _RICHARDSON_SCHEDULE)
    if value.ndim == 0:
        value = float(value)
    scale = max(1.0, float(np.max(np.abs(value))))
    return DerivativeEstimate(value, err, bool(err <= _RICHARDSON_THRESHOLD * scale), "richardson")


def curve_derivative(c, k: int, mode: str = "jet") -> DerivativeEstimate:
    """k-th derivative of a one-parameter map at t=0.

    `c` is a SmoothMap with one input or any callable accepting a float (and,
    in jet mode, a Jet).  Jet mode is exact truncated Taylor; richardson mode
    runs a central stencil over a halving step schedule and extrapolates,
    reporting the residual.  A residual above `_RICHARDSON_THRESHOLD`
    (relative to the value scale) flags the estimate as non-converged; the
    value is still returned.
    """
    return _partial(c, (k,), mode)


def mixed_partial(f, k: int, l: int, mode: str = "jet") -> DerivativeEstimate:
    """Mixed partial d^{k+l}/dt^k ds^l at the origin of a two-parameter map.

    `f` is a SmoothMap with two inputs or a callable f(t, s); jet mode seeds a
    two-group space carrying exactly (k, l) orders, richardson mode uses a
    tensor-product central stencil with both steps halved together.
    """
    return _partial(f, (k, l), mode)
