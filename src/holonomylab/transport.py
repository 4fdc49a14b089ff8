"""Nonlinear parallel transport, holonomy of loops, and parallelogram loops.

Transport of a tangent vector V along a base curve c solves

    dV^i/du + G^i_j(c(u), V) c'(u)^j = 0,

the horizontality condition for the curve u -> (c(u), V(u)).  The integrator
is classical RK4 with step doubling: a full step against two half steps gives
an embedded error estimate (the usual /15 factor), and steps shrink or grow
by the standard safety rule.  The one acceptance rule: a step is taken only
when its estimate is at most 1.  Any other attempt, as one whose estimate is
not finite or that leaves the chart or a vector field's domain box, is
rejected and retried smaller from the same state, reusing rhs(t, y), so a
solve that cannot meet the tolerance ends in TransportFailure.  The module
constants ATOL, RTOL, MAX_STEPS, FLOW_NODES, BISECTION_STEPS and H_SCHEDULE
fix the accuracy and are read at call time.  States may carry a trailing
batch axis, so a whole fan of vectors rides along one curve in a single
solve.  A curve is a list of pieces over u in [0, 1], each only a `dim` and a
`point_velocity(u)`; expression pieces differentiate their components on an
order-1 jet in u, and Chebyshev pieces run numpy's Clenshaw recurrence on
floats.

The step-doubling loop is a generator of stage requests.  Stages 2-4 of the
full step do not depend on stages 2-4 of the first half step, so they are
asked for in pairs, and an attempt takes 8 rounds for its 11 stages.
`_lockstep` is the one driver of these generators: `integrate` runs flow
legs and `horizontal_flow` as a lockstep of one member that calls rhs once
per request, `parallel_transports` steps independent transports together
with one batched `connection_values` call per round (a single
`parallel_transport` is its one-member case), and a parallelogram loop's
chain points step together with one batched `SmoothMap.value` per field
and round; a connection round of one request is evaluated at its own
base point.  Batched evaluations work column by column, so every member
keeps the bits it has alone.  If a round's call raises, each member's
requests are evaluated alone, so a member that leaves the chart or a
field's box, or meets a degenerate metric, stops no other; the first
failure in input order is raised at the end, as running them one after
another would raise it.

Parallelogram loops:  for vector fields X, Y with flows phi, psi the outward
path alpha_t is the four flow segments (X for time t, Y for t, X for -t,
Y for -t), which in general does not close up.  The gap is bridged by the
curve

    beta_t(s) = psi_{-s} phi_{-s} psi_s phi_s (p),   s in [0, t],

and the loop is alpha_t followed by beta_t reversed.  Flow segments and
beta are realized as Chebyshev interpolants through Gauss-Lobatto nodes,
each node computed with the same RK4; endpoints are nodes, and beta's final
node reuses alpha's endpoint state, so the realized loop closes bitwise.
The derivatives of t -> h_t(v) are taken by central differences over the
fixed schedule t in {0.08, 0.04, 0.02, 0.01} with extrapolation in t^2;
differentiating through an adaptive integrator with jets is not defined, so
this stays a finite-difference path by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .expressions import parse_expression
from .finsler import FinslerNorm, connection_values, horizontal_lift
from .jets import DomainBoxError, Jet, SmoothMap, count, jet_space, richardson_extrapolate

__all__ = [
    "CurveSpec",
    "FlowEscapeError",
    "LoopSpec",
    "ParallelogramTransporter",
    "TransportFailure",
    "TransportResult",
    "flow_curve",
    "flow_transport_discrepancy",
    "holonomy_map",
    "horizontal_flow",
    "integrate",
    "parallel_transport",
    "parallel_transports",
    "parallelogram_derivatives",
    "parallelogram_holonomy",
]

ATOL = 1e-10
RTOL = 1e-9
MAX_STEPS = 200000
FLOW_NODES = 16  # Gauss-Lobatto nodes per flow segment of a parallelogram loop
BISECTION_STEPS = 12  # halvings in the search for the largest admissible scale
H_SCHEDULE = (0.08, 0.04, 0.02, 0.01)
_JUNCTION_TOL = 1e-12


class TransportFailure(RuntimeError):
    """Integration could not continue; carries the last good state."""

    def __init__(self, reason: str, t: float, state: np.ndarray):
        super().__init__(f"{reason} (at parameter {t:.6g})")
        self.reason = reason
        self.t = t
        self.last_state = state


class FlowEscapeError(TransportFailure):
    """A parallelogram flow left the chart; reports the largest usable scale."""

    def __init__(self, reason, t, state, max_admissible_t):
        super().__init__(reason, t, state)
        self.max_admissible_t = max_admissible_t


# -- integrator ----------------------------------------------------------------


def _rk4_stages(t, y, hs, k1, key):
    """RK4 steps of sizes `hs` from (t, y) whose first stage is k1.

    Stages 2-4 of all the steps are requested side by side, one (*key, t, y)
    per step per round; returns the new states in the order of `hs`.
    """
    ks = [[k1] for _ in hs]
    for c in (0.5, 0.5, 1.0):
        stage = yield [(*key, t + c * h, y + (c * h) * k[-1]) for h, k in zip(hs, ks)]
        for k, value in zip(ks, stage):
            k.append(value)
    return [y + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]) for h, k in zip(hs, ks)]


def _steps(t0, t1, y0, key=()):
    """The step-doubling loop of `integrate` as a generator of stage requests.

    Yields lists of (*key, t, y) at which the right-hand side is wanted and
    is sent the list of its values.  A DomainBoxError thrown in at a yield
    rejects the attempt, and any other exception ends the solve; rhs(t, y)
    of the current state is kept across rejections.  Returns (y_end, stats)
    as `integrate` does.
    """
    y = np.asarray(y0, dtype=float).copy()
    span = t1 - t0
    h = span
    h_min = 1e-13 * max(abs(span), 1.0)
    t = t0
    accepted = rejected = 0
    max_err = 0.0
    k1 = None  # rhs(t, y), kept until the state moves
    while (t1 - t) * np.sign(span) > h_min:  # a remaining span below h_min is rounding noise
        if abs(h) > abs(t1 - t):
            h = t1 - t
        if abs(h) < h_min:
            raise TransportFailure("step size underflow", t, y)
        if accepted + rejected > MAX_STEPS:
            raise TransportFailure("step budget exhausted", t, y)
        try:
            if k1 is None:
                (k1,) = yield [(*key, t, y)]
            # the full step and the first half step share k1 and nothing else
            full, half = yield from _rk4_stages(t, y, (h, 0.5 * h), k1, key)
            (k1_mid,) = yield [(*key, t + 0.5 * h, half)]
            (two_half,) = yield from _rk4_stages(t + 0.5 * h, half, (0.5 * h,), k1_mid, key)
        except DomainBoxError:
            rejected += 1
            h *= 0.5
            continue
        delta = (two_half - full) / 15.0
        scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(two_half))
        err = float(np.max(np.abs(delta) / scale))
        if np.isnan(err):
            err = np.inf  # a NaN estimate must shrink the step, not grow it
        if err <= 1.0:
            t += h
            y = two_half + delta
            k1 = None
            accepted += 1
            max_err = max(max_err, float(np.max(np.abs(delta))))
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y, dict(accepted=accepted, rejected=rejected, max_local_error=max_err)


def integrate(rhs, t0, t1, y0):
    """Adaptive RK4 by step doubling from t0 to t1 (either direction).

    rhs(t, y) -> dy/dt, where y is (d,) or (d, B).  Returns (y_end, stats)
    with stats counting accepted and rejected steps and the largest local
    error estimate of a step taken.  A step is taken only when it meets ATOL
    and RTOL, so a solve that cannot meet them raises TransportFailure, on
    step underflow or past MAX_STEPS; so does a domain-box violation that
    cannot be stepped over.  Any other exception of rhs is raised as is.
    The solve is `_steps` run as the one member of `_lockstep`.
    """
    return _settled(_lockstep(
        [_steps(t0, t1, y0)],
        lambda batch: [_answer(rhs, requests) for requests in batch],
    ))[0]


def _answer(f, requests):
    """f(*request) for each request in order, or the first exception raised,
    which the lockstep throws into the member that asked."""
    try:
        return [f(*request) for request in requests]
    except Exception as exc:  # handed to the asking member, as a direct call would raise it
        return exc


def _lockstep(members, evaluate) -> list:
    """Run request generators side by side, one stage round at a time.

    Each member yields a list of requests and is sent the list of their
    values.  `evaluate(batch)` takes one round as the request lists of the
    pending members and returns, per member, the values or the exception
    their evaluation raised; an exception is thrown into its member, which
    may treat it as a rejection.  Returns, per member, its return value or
    the exception it ended with; one member's exception stops no other.
    """
    outcomes = [None] * len(members)
    replies = [(i, member.send, None) for i, member in enumerate(members)]
    while replies:
        pending, batch = [], []
        for i, reply, arg in replies:
            try:
                batch.append(reply(arg))
                pending.append(i)
            except StopIteration as done:
                outcomes[i] = done.value
            except Exception as exc:  # the member failed; its caller decides what to raise
                outcomes[i] = exc
        if not batch:
            break
        replies = [
            (i, members[i].throw if isinstance(values, Exception) else members[i].send, values)
            for i, values in zip(pending, evaluate(batch))
        ]
    return outcomes


def _settled(outcomes) -> list:
    """The outcomes of `_lockstep`, or the first exception among them raised."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _batched_round(batch, together, alone) -> list:
    """One lockstep round, answered by `together(requests)` on every request
    of the round in order.  If it raises, each member's requests are answered
    one by one with `alone(*request)` instead, which hands every member the
    exception its own evaluation would raise."""
    try:
        values = iter(together([request for requests in batch for request in requests]))
    except Exception:  # each member meets its own exception again below
        return [_answer(alone, requests) for requests in batch]
    return [[next(values) for _ in requests] for requests in batch]


def _field_round(batch) -> list:
    """The flow right-hand sides F.value(z) of one lockstep round of
    requests (F, t, z): one `SmoothMap.value` per field on the stacked points,
    each column of which has the bits of that point evaluated alone."""

    def together(requests):
        fields = [F for F, _, _ in requests]
        columns = {  # a value that is not (d, points) raises here, not later
            F: iter(np.swapaxes(F.value(np.stack([z for G, _, z in requests if G is F], 1)), 0, 1))
            for F in dict.fromkeys(fields)
        }
        return [next(columns[F]) for F in fields]

    return _batched_round(batch, together, lambda F, t, z: F.value(z))


# -- curve pieces ---------------------------------------------------------------


class _AffinePiece:
    """Straight segment a + u (b - a), u in [0, 1]."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.dim = self.a.shape[0]

    def point_velocity(self, u):
        return self.a + (self.b - self.a) * u, self.b - self.a


def _clenshaw(c, x):
    """numpy's `chebval(x, c)` recurrence on one list of floats, step for step."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    x2 = 2 * x
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


class _ChebPiece:
    """Chebyshev-series curve over u in [0, 1] (s = 2u - 1 internally),
    evaluated by `_clenshaw` on the coefficient rows of each component."""

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        self.dim = coeffs.shape[1]
        self._rows = (coeffs.T.tolist(), (2.0 * _cheb.chebder(coeffs, axis=0)).T.tolist())

    def point_velocity(self, u):
        s = 2.0 * u - 1.0
        return tuple(np.array([_clenshaw(c, s) for c in rows]) for rows in self._rows)


class _ReversedPiece:
    def __init__(self, inner):
        self.dim = inner.dim
        self._inner = inner

    def point_velocity(self, u):
        x, dx = self._inner.point_velocity(1.0 - u)
        return x, -dx


class _ExpressionPiece:
    """Component expressions in t, differentiated on one order-1 jet in t."""

    def __init__(self, texts):
        self._exprs = [parse_expression(s, ("t",)) for s in texts]
        self.dim = len(self._exprs)

    def point_velocity(self, u):
        t = Jet.variable(jet_space(1, 1), 0, u)
        out = [e(t) for e in self._exprs]
        return np.array([j.value for j in out]), np.array([j.derivative(1) for j in out])


def _lobatto_nodes(m: int) -> np.ndarray:
    # Gauss-Lobatto points of [0, 1], ascending; endpoints included
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(m + 1) / m))


def _fit_chebyshev(nodes01: np.ndarray, values: np.ndarray) -> _ChebPiece:
    s = 2.0 * nodes01 - 1.0
    return _ChebPiece(_cheb.chebfit(s, values, deg=len(nodes01) - 1))


class CurveSpec:
    """Piecewise-smooth base curve, globally parametrized over [0, 1].

    Pieces are maps [0, 1] -> chart with matching endpoints; junction
    mismatch beyond 1e-12 is a construction error.
    """

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a curve needs at least one piece")
        self.pieces = pieces
        self.dim = pieces[0].dim
        for i in range(len(pieces) - 1):
            a = pieces[i].point_velocity(1.0)[0]
            b = pieces[i + 1].point_velocity(0.0)[0]
            gap = float(np.max(np.abs(a - b)))
            if gap > _JUNCTION_TOL:
                raise ValueError(f"pieces {i} and {i+1} do not join (gap {gap:.3e})")

    @classmethod
    def line_segment(cls, a, b):
        return cls([_AffinePiece(a, b)])

    @classmethod
    def from_expressions(cls, texts):
        """One smooth piece from component expressions in t over [0, 1]."""
        return cls([_ExpressionPiece(texts)])

    @property
    def start(self):
        return self.pieces[0].point_velocity(0.0)[0]

    @property
    def end(self):
        return self.pieces[-1].point_velocity(1.0)[0]

    def reverse(self) -> "CurveSpec":
        return CurveSpec([_ReversedPiece(p) for p in reversed(self.pieces)])

    def closure_gap(self) -> float:
        return float(np.max(np.abs(self.end - self.start)))

    def as_loop(self) -> "LoopSpec":
        return LoopSpec(self.pieces)


class LoopSpec(CurveSpec):
    """A CurveSpec whose endpoints coincide."""

    def __init__(self, pieces):
        super().__init__(pieces)
        gap = self.closure_gap()
        if gap > _JUNCTION_TOL:
            raise ValueError(f"loop does not close (gap {gap:.3e})")

    @classmethod
    def rectangle(cls, corner_a, corner_b):
        """Axis-aligned rectangle corner_a -> corner_b -> back, in the plane."""
        a = np.asarray(corner_a, dtype=float)
        c = np.asarray(corner_b, dtype=float)
        if a.shape != (2,) or c.shape != (2,):
            raise ValueError("rectangle corners must be planar points")
        b = np.array([c[0], a[1]])
        d = np.array([a[0], c[1]])
        return cls(
            [_AffinePiece(a, b), _AffinePiece(b, c), _AffinePiece(c, d), _AffinePiece(d, a)]
        )

    @classmethod
    def constant(cls, p):
        p = np.asarray(p, dtype=float)
        return cls([_AffinePiece(p, p)])


# -- transport ------------------------------------------------------------------


@dataclass
class TransportResult:
    """Outcome of one transport: end vector plus integrator diagnostics."""

    y_end: np.ndarray
    x_end: np.ndarray
    norm_start: float
    norm_end: float
    norm_drift: float
    accepted_steps: int
    rejected_steps: int
    max_local_error: float


def _contract(Gj, W, dx):
    """The transport right-hand side -G^i_j(x, W) dx^j from Gj = G^i_j(x, W)."""
    if W.ndim == 2:
        return -np.einsum("ijb,j->ib", Gj, dx)
    return -(Gj @ dx)


def _piece_rhs(norm: FinslerNorm, piece, u, W):
    x, dx = piece.point_velocity(u)
    return _contract(connection_values(norm, x, W), W, dx)


def parallel_transport(norm: FinslerNorm, curve: CurveSpec, y0) -> TransportResult:
    """Transport y0 along the curve; y0 may be (n,) or a batch (n, B).

    Every step meets the integrator's one acceptance rule, and a transport
    that cannot meet it raises TransportFailure.  The norm drift
    |F(end) - F(start)| is measured on the worst batch member.
    """
    return parallel_transports(norm, [curve], [y0])[0]


def _transport_member(norm, curve, y0):
    """`parallel_transport` as a lockstep member.

    Runs the curve's pieces in order through `_steps`, whose stage requests
    are keyed by their piece as (piece, u, W).
    """
    if curve.dim != norm.dim:
        raise ValueError(f"curve dim {curve.dim} vs norm dim {norm.dim}")
    V = np.asarray(y0, dtype=float).copy()
    if np.any(np.sum(V * V, axis=0) == 0.0):
        raise ValueError("cannot transport the zero vector")
    f0 = norm.value(curve.start, V)
    stats = []
    for piece in curve.pieces:
        V, piece_stats = yield from _steps(0.0, 1.0, V, (piece,))
        stats.append(piece_stats)
    x_end = curve.end
    f1 = norm.value(x_end, V)
    return TransportResult(
        y_end=V,
        x_end=x_end,
        norm_start=float(np.max(f0)),
        norm_end=float(np.max(f1)),
        norm_drift=float(np.max(np.abs(f1 - f0))),
        accepted_steps=sum(s["accepted"] for s in stats),
        rejected_steps=sum(s["rejected"] for s in stats),
        max_local_error=max([0.0] + [s["max_local_error"] for s in stats]),
    )


def _connection_round(norm: FinslerNorm, batch) -> list:
    """The right-hand sides of one lockstep round, from one connection_values call.

    A lone request is `_piece_rhs` at its own base point.  Otherwise X
    repeats each request's base point over its columns and W stacks the
    columns of every request; each request's slice of G^i_j is made
    contiguous and contracted as `_piece_rhs` contracts it.  The spray
    pipeline works column by column, so each slice has the bits of that
    request evaluated alone, and `_piece_rhs` is the per-member fallback.
    """
    total = sum(map(len, batch))
    count("lockstep", rounds=1, requests=total)
    if total == 1:
        return [_answer(partial(_piece_rhs, norm), member) for member in batch]

    def together(requests):
        geometry = [piece.point_velocity(u) for piece, u, _ in requests]
        columns = [W.reshape(W.shape[0], -1) for _, _, W in requests]
        X = np.concatenate(
            [np.repeat(x[:, None], w.shape[1], axis=1) for (x, _), w in zip(geometry, columns)],
            axis=1,
        )
        G = connection_values(norm, X, np.concatenate(columns, axis=1))
        values, start = [], 0
        for (_, dx), (_, _, W), w in zip(geometry, requests, columns):
            stop = start + w.shape[1]
            Gj = G[:, :, start] if W.ndim == 1 else G[:, :, start:stop]
            values.append(_contract(np.ascontiguousarray(Gj), W, dx))
            start = stop
        return values

    return _batched_round(batch, together, partial(_piece_rhs, norm))


def parallel_transports(norm: FinslerNorm, curves, ys) -> list[TransportResult]:
    """`parallel_transport` of each curve with its y0, stepped in lockstep.

    Every transport takes exactly the steps it takes alone, and each round
    evaluates the pending stage requests of all of them with one
    `connection_values` call, so each result equals its `parallel_transport`
    bit for bit.  A transport that fails stops no other; the exception of
    the first failed transport in input order is raised at the end, which
    is what transporting them one after another raises.
    """
    members = [_transport_member(norm, curve, y0) for curve, y0 in zip(curves, ys, strict=True)]
    count("lockstep", members=len(members))
    return _settled(_lockstep(members, partial(_connection_round, norm)))


def holonomy_map(norm: FinslerNorm, loop: CurveSpec, samples) -> np.ndarray:
    """Transport indicatrix samples around a closed loop; returns (n, B).

    Samples must satisfy F(p, v) = 1 within 1e-10 at the loop's base point.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] != norm.dim:
        samples = samples.T
    if loop.closure_gap() > _JUNCTION_TOL:
        raise ValueError("holonomy needs a closed loop")
    f = norm.value(loop.start, samples)
    if np.max(np.abs(f - 1.0)) > 1e-10:
        raise ValueError("samples must lie on the indicatrix at the base point")
    return parallel_transport(norm, loop, samples).y_end


# -- flows and the transport = flow identity ------------------------------------


def flow_curve(X: SmoothMap, p, T: float) -> _ChebPiece:
    """The integral curve u -> flow_{uT}(p) of X, as one smooth piece.

    Solved node to node through FLOW_NODES Gauss-Lobatto points (so u = 0
    and u = 1 are data, not extrapolation), then fit by a Chebyshev
    interpolant.  T may be negative: the flow runs backward.
    """
    p = np.asarray(p, dtype=float)
    if T == 0.0:
        return _AffinePiece(p, p)
    us = _lobatto_nodes(FLOW_NODES)
    values = np.empty((FLOW_NODES + 1, p.shape[0]))
    values[0] = p
    state = p
    for i in range(1, FLOW_NODES + 1):
        state, _ = integrate(lambda t, x: X.value(x), us[i - 1] * T, us[i] * T, state)
        values[i] = state
    if np.all(values == values[0]):
        piece = _AffinePiece(p, p)  # stationary point of X: keep velocity exactly 0
    else:
        piece = _fit_chebyshev(us, values)
    piece.end_state = values[-1]
    return piece


def horizontal_flow(norm: FinslerNorm, X: SmoothMap, p, y0, t: float):
    """Flow (p, y0) along the horizontal lift X^h for time t.

    State is (x, V); dx/dt = X(x), dV^i/dt = -G^i_j(x, V) X(x)^j.  Returns
    (x_end, V_end).
    """
    n = norm.dim

    def rhs(s, z):
        return horizontal_lift(norm, z[:n], z[n:], X.value(z[:n]))

    z, _ = integrate(rhs, 0.0, t, np.concatenate([p, y0]))
    return z[:n], z[n:]


def flow_transport_discrepancy(norm: FinslerNorm, X: SmoothMap, p, y0, t: float) -> float:
    """Distance between transporting y0 along the integral curve of X and
    flowing (p, y0) by the horizontal lift.  The two routes share nothing
    but the integrator, so agreement is a real check of both."""
    if t == 0.0:
        return 0.0
    curve = CurveSpec([flow_curve(X, p, t)])
    via_transport = parallel_transport(norm, curve, y0).y_end
    _, via_flow = horizontal_flow(norm, X, p, y0, t)
    return float(np.linalg.norm(via_transport - via_flow))


# -- parallelogram holonomy ------------------------------------------------------


class ParallelogramTransporter:
    """Holonomy family h_t at a fixed (X, Y, p).

    h_t transports indicatrix vectors around the parallelogram loop of X and
    Y at scale t; h_0 is the identity, both legs are rebuilt per scale, and
    negative t runs all flows backward (the family is smooth through 0, which
    the central-difference schedule relies on).
    """

    def __init__(self, norm: FinslerNorm, X: SmoothMap, Y: SmoothMap, p):
        self.norm = norm
        self.X = X
        self.Y = Y
        self.p = np.asarray(p, dtype=float)

    def _chain_points(self, ss) -> list:
        """psi_{-s} phi_{-s} psi_s phi_s (p) for each s in ss, in one lockstep;
        each has the bits of four `integrate` legs, and the first failure in
        the order of ss is raised."""

        def chain(s):
            x = self.p
            for F, T in ((self.X, s), (self.Y, s), (self.X, -s), (self.Y, -s)):
                x, _ = yield from _steps(0.0, T, x, (F,))
            return x

        return _settled(_lockstep([chain(s) for s in ss], _field_round))

    def loop(self, t: float) -> LoopSpec:
        """Build the realized loop alpha_t * beta_t^{-1} at scale t."""
        if t == 0.0:
            return LoopSpec.constant(self.p)
        a1 = flow_curve(self.X, self.p, t)
        a2 = flow_curve(self.Y, a1.end_state, t)
        a3 = flow_curve(self.X, a2.end_state, -t)
        a4 = flow_curve(self.Y, a3.end_state, -t)
        # beta over s in [0, t]; its first/last nodes reuse p and alpha's
        # endpoint exactly, which is what closes the realized loop bitwise
        us = _lobatto_nodes(FLOW_NODES)
        values = np.array([self.p, *self._chain_points(us[1:-1] * t), a4.end_state])
        beta = _fit_chebyshev(us, values)
        return LoopSpec([a1, a2, a3, a4, _ReversedPiece(beta)])

    def transport(self, t: float, samples) -> np.ndarray:
        """h_t applied to samples (n,) or (n, B)."""
        samples = np.asarray(samples, dtype=float)
        if t == 0.0:
            return samples.copy()
        return parallel_transport(self.norm, self.loop(t), samples).y_end

    def difference_quotients(self, v):
        """Central first and second differences of t -> h_t(v), one per step.

        h_0(v) = v is exact and anchors the second-difference stencil.
        Returns (firsts, seconds), two lists in the order of H_SCHEDULE.
        The loops are built in schedule order (+t, -t) and transported in
        one lockstep.  If a loop cannot be built, the transports around the
        loops before it run first, so the error raised is the first one that
        transporting scale by scale would meet.
        """
        v = np.asarray(v, dtype=float)
        scales = [s for t in H_SCHEDULE for s in (t, -t) if s != 0.0]
        loops = []
        try:
            for s in scales:
                loops.append(self.loop(s))
        except Exception:
            parallel_transports(self.norm, loops, [v] * len(loops))
            raise
        results = parallel_transports(self.norm, loops, [v] * len(loops))
        images = {0.0: v, **{s: r.y_end for s, r in zip(scales, results)}}
        firsts, seconds = [], []
        for t in H_SCHEDULE:
            plus, minus = images[t], images[-t]
            firsts.append((plus - minus) / (2.0 * t))
            seconds.append((plus - 2.0 * v + minus) / (t * t))
        return firsts, seconds

    def max_admissible_t(self, t_target: float) -> float:
        """Largest |t| <= |t_target| (same sign) whose loop stays in chart."""
        lo, hi = 0.0, abs(t_target)
        sgn = 1.0 if t_target >= 0 else -1.0
        if self._loop_ok(sgn * hi):
            return t_target
        for _ in range(BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if self._loop_ok(sgn * mid):
                lo = mid
            else:
                hi = mid
        return sgn * lo

    def _loop_ok(self, t: float) -> bool:
        try:
            self.loop(t)
            return True
        except (TransportFailure, DomainBoxError):
            return False


def parallelogram_holonomy(
    norm: FinslerNorm, X: SmoothMap, Y: SmoothMap, p, t: float, samples
) -> np.ndarray:
    """Transport samples by h_{t,p}; see ParallelogramTransporter.

    If a flow leaves the chart at scale t, raises FlowEscapeError carrying
    the largest scale that works.
    """
    tr = ParallelogramTransporter(norm, X, Y, p)
    try:
        return tr.transport(t, samples)
    except (TransportFailure, DomainBoxError) as exc:
        t_ok = tr.max_admissible_t(t)
        state = getattr(exc, "last_state", np.asarray(p, dtype=float))
        raise FlowEscapeError(
            f"parallelogram flow escapes chart at scale {t:.6g}; "
            f"max admissible is {t_ok:.6g}",
            t,
            state,
            t_ok,
        ) from exc


def parallelogram_derivatives(
    norm: FinslerNorm,
    X: SmoothMap,
    Y: SmoothMap,
    p,
    v,
):
    """First and second t-derivatives of t -> h_t(v) at t = 0.

    The difference quotients over the fixed halving H_SCHEDULE, extrapolated
    in t^2.  Returns (first, second) as DerivativeEstimate-like pairs
    ((value, error), (value, error)).
    """
    tr = ParallelogramTransporter(norm, X, Y, p)
    firsts, seconds = tr.difference_quotients(v)
    return richardson_extrapolate(firsts, H_SCHEDULE), richardson_extrapolate(seconds, H_SCHEDULE)

