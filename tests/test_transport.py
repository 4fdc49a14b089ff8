from functools import partial

import numpy as np
import pytest

from holonomylab import finsler, transport
from holonomylab.finsler import FinslerNorm, MetricDegeneracyError, catalog_norm, indicatrix_samples
from holonomylab.jets import DomainBoxError, SmoothMap, tally
try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below skips itself
    st = None

from holonomylab.transport import (
    CurveSpec,
    FlowEscapeError,
    LoopSpec,
    ParallelogramTransporter,
    TransportFailure,
    flow_curve,
    holonomy_map,
    integrate,
    parallel_transport,
    parallel_transports,
    parallelogram_derivatives,
    parallelogram_holonomy,
)
from oracles import flow_transport_discrepancy, horizontal_flow, reverse


def constant_field(vec, manifold, name="const"):
    vec = np.asarray(vec, dtype=float)

    def fun(args):
        return [args[0] * 0.0 + vec[i] for i in range(len(vec))]

    return SmoothMap(fun, manifold.dim, lo=manifold.lo, hi=manifold.hi, name=name)


@pytest.fixture(scope="module")
def sphere():
    return catalog_norm("sphere")


@pytest.fixture(scope="module")
def funk():
    return catalog_norm("funk_disk")


# -- integrator ------------------------------------------------------------------


def test_integrator_quadrature():
    y, stats = integrate(lambda t, y: np.array([np.cos(t)]), 0.0, 2.0, np.array([0.0]))
    assert abs(y[0] - np.sin(2.0)) < 1e-10
    assert stats["accepted"] >= 1


def test_integrator_backward():
    y, _ = integrate(lambda t, y: y.copy(), 1.0, 0.0, np.array([np.e]))
    assert abs(y[0] - 1.0) < 1e-9


def test_integrator_batched_states():
    # dy/dt = a*y columnwise, a = 1, 2
    a = np.array([1.0, 2.0])
    y0 = np.ones((1, 2))
    y, _ = integrate(lambda t, y: y * a, 0.0, 1.0, y0)
    np.testing.assert_allclose(y[0], [np.e, np.e ** 2], rtol=1e-9)


def test_integrator_underflow_reports_state():
    man = finsler.ChartManifold(1, (0.0,), (1.0,), name="unit")

    def rhs(t, y):
        man.require(y)  # leaves the box at y = 1
        return np.array([1.0])

    with pytest.raises(TransportFailure) as info:
        integrate(rhs, 0.0, 2.0, np.array([0.5]))
    assert info.value.last_state[0] == pytest.approx(1.0, abs=1e-6)
    assert "underflow" in info.value.reason
    assert "unit: point outside chart box" in info.value.reason


def test_integrator_rejects_nan_estimates_until_underflow():
    # a NaN error estimate must shrink the step, not spin at full size
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.full_like(y, np.nan)

    with pytest.raises(TransportFailure) as info:
        integrate(rhs, 0.0, 1.0, np.array([0.3]))
    assert info.value.reason == "step size underflow" and info.value.t == 0.0
    assert len(calls) < 1000


def test_integrator_stops_where_the_rhs_turns_infinite():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.full_like(y, np.inf) if t > 0.3 else np.cos(y)

    with np.errstate(invalid="ignore"), pytest.raises(TransportFailure) as info:
        integrate(rhs, 0.0, 1.0, np.array([0.3]))
    assert info.value.reason == "step size underflow"
    assert info.value.t == pytest.approx(0.3, abs=1e-12)
    assert len(calls) < 2000


def test_rejected_attempt_keeps_its_first_stage():
    # one step over the whole span misses the tolerance; the retries from the
    # start state must reuse rhs(t0, y0) instead of evaluating it again
    y0 = np.array([0.0])
    at_start = []

    def rhs(t, y):
        if t == 0.0 and np.array_equal(y, y0):
            at_start.append(t)
        return np.array([10.0 * np.cos(10.0 * t)])

    y, stats = integrate(rhs, 0.0, 2.0, y0)
    assert stats["rejected"] >= 1
    assert len(at_start) == 1
    assert abs(y[0] - np.sin(20.0)) < 1e-9


def test_stage_rejection_keeps_the_first_stage():
    # the first attempt's k2 (at t = 0.5) leaves the domain box; the retry
    # from the same state must still reuse rhs(t0, y0)
    y0 = np.array([0.0])
    at_start = []
    raised = []

    def rhs(t, y):
        if t == 0.0 and np.array_equal(y, y0):
            at_start.append(t)
        if t == 0.5 and not raised:
            raised.append(t)
            raise DomainBoxError("outside the box")
        return np.array([np.cos(t)])

    y, stats = integrate(rhs, 0.0, 1.0, y0)
    assert raised and stats["rejected"] >= 1
    assert len(at_start) == 1
    assert abs(y[0] - np.sin(1.0)) < 1e-10


# -- curves ----------------------------------------------------------------------


def test_curve_point_velocity_and_reverse():
    c = CurveSpec.line_segment([0.0, 0.0], [2.0, 4.0])
    np.testing.assert_allclose(c.pieces[0].point_velocity(0.5)[0], [1.0, 2.0])
    np.testing.assert_allclose(c.pieces[0].point_velocity(0.25)[1], [2.0, 4.0])
    r = reverse(c)
    np.testing.assert_allclose(r.pieces[0].point_velocity(0.0)[0], [2.0, 4.0])
    np.testing.assert_allclose(r.pieces[0].point_velocity(0.5)[1], [-2.0, -4.0])


def test_expression_curve():
    c = CurveSpec.from_expressions(["cos(2*pi*t)", "sin(2*pi*t)"])
    np.testing.assert_allclose(c.pieces[0].point_velocity(0.25)[0], [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(c.pieces[0].point_velocity(0.0)[1], [0.0, 2 * np.pi], atol=1e-12)
    assert c.closure_gap() < 1e-12
    LoopSpec(c.pieces)  # closes, so this must not raise


def test_expression_curve_constant_component():
    # a component that does not depend on t is a constant, with velocity 0
    c = CurveSpec.from_expressions(["cos(2*pi*t)", "0.3"])
    np.testing.assert_allclose(c.pieces[0].point_velocity(0.5)[0], [-1.0, 0.3], atol=1e-12)
    assert c.pieces[0].point_velocity(0.3)[1][1] == 0.0


def test_mismatched_pieces_rejected():
    a = CurveSpec.line_segment([0.0, 0.0], [1.0, 0.0])
    b = CurveSpec.line_segment([5.0, 5.0], [6.0, 5.0])
    with pytest.raises(ValueError, match="join"):
        CurveSpec(a.pieces + b.pieces)


def test_open_curve_is_not_a_loop():
    c = CurveSpec.line_segment([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="close"):
        LoopSpec(c.pieces)


# -- transport contracts -----------------------------------------------------------


def test_euclidean_transport_is_identity():
    eu = catalog_norm("euclidean")
    c = CurveSpec.from_expressions(["t*2 - 1", "sin(3*t)"])
    r = parallel_transport(eu, c, np.array([1.0, 2.0]))
    np.testing.assert_allclose(r.y_end, [1.0, 2.0], atol=1e-12)
    assert r.norm_drift < 1e-12


def test_norm_preserved_on_sphere_loop(sphere):
    loop = LoopSpec.rectangle([0.7, 0.0], [1.4, 0.5])
    v = np.array([0.3, 0.8])
    r = parallel_transport(sphere, loop, v)
    assert r.norm_drift < 1e-8 * r.norm_start


def test_positive_homogeneity(sphere):
    loop = LoopSpec.rectangle([0.8, -0.2], [1.3, 0.4])
    v = np.array([0.5, -0.1])
    base = parallel_transport(sphere, loop, v).y_end
    lams = np.array([0.5, 2.0, 10.0])
    batch = v[:, None] * lams
    out = parallel_transport(sphere, loop, batch).y_end
    for i, lam in enumerate(lams):
        rel = np.max(np.abs(out[:, i] - lam * base)) / (lam * np.max(np.abs(base)))
        assert rel < 1e-8, lam


def test_gauss_bonnet_rectangle(sphere):
    # transport around [th1,th2] x [ph1,ph2] rotates the frame by the
    # enclosed spherical area (ph2 - ph1)(cos th1 - cos th2)
    th1, th2, ph1, ph2 = 0.7, 1.4, 0.0, 0.5
    loop = LoopSpec.rectangle([th1, ph1], [th2, ph2])
    p = loop.start
    v = np.array([1.0, 0.0])
    got = parallel_transport(sphere, loop, v).y_end

    def frame_angle(w):
        return np.arctan2(w[1] * np.sin(p[0]), w[0])

    alpha = frame_angle(got) - frame_angle(v)
    area = (ph2 - ph1) * (np.cos(th1) - np.cos(th2))
    assert alpha == pytest.approx(area, abs=1e-8)


def test_holonomy_rotates_all_samples_equally(sphere):
    loop = LoopSpec.rectangle([0.9, 0.1], [1.2, 0.6])
    p = loop.start
    samples = indicatrix_samples(sphere, p, 6)
    out = holonomy_map(sphere, loop, samples)
    sin_t = np.sin(p[0])

    def angles(w):
        return np.arctan2(w[1] * sin_t, w[0])

    shifts = np.unwrap(angles(out) - angles(samples))
    assert np.max(np.abs(shifts - shifts[0])) < 1e-8
    # outputs stay on the indicatrix
    assert np.max(np.abs(sphere.value(p, out) - 1.0)) < 1e-8


def test_constant_loop_is_identity(sphere):
    p = np.array([1.0, 0.3])
    loop = LoopSpec.line_segment(p, p)
    samples = indicatrix_samples(sphere, p, 5)
    out = holonomy_map(sphere, loop, samples)
    np.testing.assert_allclose(out, samples, atol=1e-12)


def test_reversal_inverts(funk):
    loop = LoopSpec.rectangle([-0.2, -0.15], [0.25, 0.2])
    p = loop.start
    samples = indicatrix_samples(funk, p, 4)
    there = holonomy_map(funk, loop, samples)
    # transported vectors are on the indicatrix again, so the reversed loop accepts them
    back = holonomy_map(funk, reverse(loop), there)
    assert np.max(np.abs(back - samples)) < 1e-7


def test_composition_law(funk):
    a = CurveSpec.line_segment([-0.3, 0.0], [0.2, 0.1])
    b = CurveSpec.line_segment([0.2, 0.1], [0.0, -0.25])
    v = np.array([0.8, -0.3])
    v1 = parallel_transport(funk, a, v).y_end
    v2 = parallel_transport(funk, b, v1).y_end
    vc = parallel_transport(funk, CurveSpec(a.pieces + b.pieces), v).y_end
    assert np.max(np.abs(v2 - vc)) < 1e-7


def test_transport_rejects_zero_vector(sphere):
    c = CurveSpec.line_segment([1.0, 0.0], [1.2, 0.0])
    with pytest.raises(ValueError):
        parallel_transport(sphere, c, np.zeros(2))


def test_transport_fails_outside_chart(funk):
    # segment marches straight out of the funk box
    c = CurveSpec.line_segment([0.0, 0.0], [2.0, 0.0])
    with pytest.raises(TransportFailure):
        parallel_transport(funk, c, np.array([1.0, 0.0]))


def test_holonomy_takes_samples_as_columns_only(sphere):
    # rows (B, n) would be misread when B = n, so no shape but (n,) and (n, B) passes
    loop = LoopSpec.rectangle([0.9, 0.0], [1.1, 0.2])
    rows = indicatrix_samples(sphere, loop.start, 3).T
    with pytest.raises(ValueError, match="shape"):
        holonomy_map(sphere, loop, rows)
    assert holonomy_map(sphere, loop, rows[0]).shape == (2, 1)


def test_columns_of_one_transport_share_one_step_sequence(sphere):
    # a batch takes the steps its columns need together, so a sample's bits
    # depend on the batch it rides in: alone and as column 0 of three, this
    # sample's two transports differ by 7.8e-12 and agree to the tolerance only
    loop = LoopSpec.rectangle([0.9, 0.0], [1.1, 0.2])
    samples = indicatrix_samples(sphere, loop.start, 3)
    alone = holonomy_map(sphere, loop, samples[:, 0])
    np.testing.assert_allclose(holonomy_map(sphere, loop, samples)[:, :1], alone, rtol=0.0, atol=1e-10)


def test_holonomy_requires_indicatrix_samples(sphere):
    loop = LoopSpec.rectangle([0.9, 0.0], [1.1, 0.2])
    with pytest.raises(ValueError, match="indicatrix"):
        holonomy_map(sphere, loop, np.array([[2.0], [0.0]]))


def test_indicatrix_samples_unit_norm(funk):
    p = np.array([0.2, -0.3])
    s = indicatrix_samples(funk, p, 9)
    assert s.shape == (2, 9)
    np.testing.assert_allclose(funk.value(p, s), np.ones(9), atol=1e-12)
    euclidean3 = FinslerNorm.from_expression("sqrt(y1^2 + y2^2 + y3^2)", [-10.0] * 3, [10.0] * 3)
    s3 = indicatrix_samples(euclidean3, np.zeros(3), 11)
    np.testing.assert_allclose(np.linalg.norm(s3, axis=0), np.ones(11), atol=1e-12)


# -- flows -------------------------------------------------------------------------


def test_flow_curve_matches_known_flow():
    man = finsler.ChartManifold(2, (-5, -5), (5, 5))
    # X = (-x2, x1): rotation flow
    X = SmoothMap(lambda a: [-a[1], a[0]], 2, lo=man.lo, hi=man.hi)
    piece = flow_curve(X, np.array([1.0, 0.0]), np.pi / 2)
    end = piece.point_velocity(1.0)[0]
    np.testing.assert_allclose(end, [0.0, 1.0], atol=1e-9)
    mid = piece.point_velocity(0.5)[0]
    np.testing.assert_allclose(mid, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-9)


def test_flow_transport_discrepancy_zero_field(sphere):
    Z = constant_field([0.0, 0.0], sphere.manifold)
    assert flow_transport_discrepancy(sphere, Z, np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.7) == 0.0


def test_flow_transport_discrepancy_euclidean():
    eu = catalog_norm("euclidean")
    X = constant_field([1.0, -0.5], eu.manifold)
    d = flow_transport_discrepancy(eu, X, np.array([0.0, 0.0]), np.array([2.0, 1.0]), 1.5)
    assert d < 1e-10


def test_flow_transport_discrepancy_sphere(sphere):
    X = constant_field([0.0, 1.0], sphere.manifold, name="dphi")
    d = flow_transport_discrepancy(
        sphere, X, np.array([1.1, 0.2]), np.array([0.3, -0.4]), 0.5
    )
    assert d < 1e-7


def test_horizontal_flow_moves_base_along_flow(sphere):
    X = constant_field([0.2, 1.0], sphere.manifold)
    p = np.array([1.2, 0.0])
    x_end, v_end = horizontal_flow(sphere, X, p, np.array([1.0, 0.5]), 0.4)
    np.testing.assert_allclose(x_end, p + 0.4 * np.array([0.2, 1.0]), atol=1e-9)
    f0 = sphere.value(p, np.array([1.0, 0.5]))
    f1 = sphere.value(x_end, v_end)
    assert abs(f1 - f0) < 1e-8  # horizontal flow preserves the norm too


# -- parallelogram loops -------------------------------------------------------------


def test_parallelogram_identity_at_zero(sphere):
    X = constant_field([1.0, 0.0], sphere.manifold)
    Y = constant_field([0.0, 1.0], sphere.manifold)
    p = np.array([np.pi / 2, 0.0])
    samples = indicatrix_samples(sphere, p, 4)
    out = parallelogram_holonomy(sphere, X, Y, p, 0.0, samples)
    np.testing.assert_array_equal(out, samples)


def test_parallelogram_loop_closes(sphere):
    X = constant_field([1.0, 0.0], sphere.manifold)
    Y = constant_field([0.0, 1.0], sphere.manifold)
    tr = ParallelogramTransporter(X, Y, np.array([1.0, 0.2]))
    for t in (0.08, -0.05):
        assert tr.loop(t).closure_gap() < 1e-12


def test_parallelogram_derivatives_on_sphere(sphere):
    # at the equator with X = d/dtheta, Y = d/dphi, v = d/dtheta the second
    # derivative is exactly (0, 2): first-order term vanishes, curvature term
    # has unit sectional curvature
    X = constant_field([1.0, 0.0], sphere.manifold)
    Y = constant_field([0.0, 1.0], sphere.manifold)
    p = np.array([np.pi / 2, 0.0])
    v = np.array([1.0, 0.0])
    h = parallelogram_derivatives(sphere, X, Y, p, v)
    assert np.max(np.abs(h.first)) < 1e-8
    np.testing.assert_allclose(h.second, [0.0, 2.0], atol=2e-4)
    assert h.second_error < 1e-4


def test_parallelogram_flow_escape_reports_max_scale(funk):
    X = constant_field([1.0, 0.0], funk.manifold)
    Y = constant_field([0.0, 1.0], funk.manifold)
    p = np.array([0.6, 0.6])  # near the box corner: big flows must escape
    samples = indicatrix_samples(funk, p, 3)
    with pytest.raises(FlowEscapeError) as info:
        parallelogram_holonomy(funk, X, Y, p, 0.5, samples)
    t_ok = info.value.max_admissible_t
    assert 0.0 <= t_ok < 0.5
    if t_ok > 1e-3:
        parallelogram_holonomy(funk, X, Y, p, 0.5 * t_ok, samples)


def test_parallelogram_derivatives_raise_what_scale_by_scale_meets(funk):
    # near the box corner the +0.08 loop transports and the -0.08 loop cannot
    # be built: the family raises that build's failure, after the transport
    X = constant_field([1.0, 0.0], funk.manifold)
    Y = constant_field([0.0, 1.0], funk.manifold)
    p = np.array([-0.6, -0.6])
    v = funk.normalize(p, np.array([0.3, 1.0]))
    loops = ParallelogramTransporter(X, Y, p)
    transported = []
    with pytest.raises(TransportFailure) as one_by_one:
        for t in transport.H_SCHEDULE:
            for s in (t, -t):
                parallel_transport(funk, loops.loop(s), v)
                transported.append(s)
    assert transported == [0.08]
    with pytest.raises(TransportFailure) as together:
        parallelogram_derivatives(funk, X, Y, p, v)
    assert str(together.value) == str(one_by_one.value)
    assert together.value.last_state.tobytes() == one_by_one.value.last_state.tobytes()


# -- lockstep --------------------------------------------------------------------


def assert_same_transport(got, want):
    assert got.y_end.tobytes() == want.y_end.tobytes()
    assert got.x_end.tobytes() == want.x_end.tobytes()
    fields = ("accepted_steps", "rejected_steps", "norm_drift",
              "norm_start", "norm_end", "max_local_error")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


WARPED = "sqrt((1 + 0.3*x1^2)*y1^2 + exp(x2)*y2^2) + 0.1*log(2 + x1)*y1"


@pytest.mark.parametrize("name", ["sphere", "funk_disk", "expression"])
def test_lockstep_is_the_sequential_route_bit_for_bit(name):
    if name == "expression":
        norm = FinslerNorm.from_expression(WARPED, [-1.0, -1.0], [1.0, 1.0])
    else:
        norm = catalog_norm(name)
    lo, hi = np.asarray(norm.manifold.lo), np.asarray(norm.manifold.hi)

    def at(*frac):
        return lo + np.asarray(frac) * (hi - lo)

    X = constant_field([1.0, 0.0], norm.manifold)
    Y = constant_field([0.0, 1.0], norm.manifold)
    flow_loop = ParallelogramTransporter(X, Y, at(0.45, 0.5)).loop(0.05)
    curves = [
        CurveSpec.line_segment(at(0.3, 0.4), at(0.4, 0.45)),
        CurveSpec(
            CurveSpec.line_segment(at(0.2, 0.3), at(0.7, 0.6)).pieces
            + CurveSpec.line_segment(at(0.7, 0.6), at(0.5, 0.7)).pieces
        ),
        LoopSpec.rectangle(at(0.4, 0.4), at(0.6, 0.55)),
        flow_loop,
    ]
    ys = [
        np.array([0.6, -0.8]),
        np.array([[1.0, 0.2, -0.5], [0.3, 1.0, 0.4]]),
        np.array([[0.0, 1.0], [1.0, 0.5]]),
        np.array([0.5, 0.5]),
    ]
    with tally() as counts:
        together = parallel_transports(norm, curves, ys)
    lockstep = counts["lockstep"]
    assert lockstep["members"] == len(curves) and 0 < lockstep["rounds"] <= lockstep["requests"]
    alone = [parallel_transport(norm, curve, y) for curve, y in zip(curves, ys)]
    for got, want in zip(together, alone):
        assert_same_transport(got, want)
    (single,) = parallel_transports(norm, curves[3:], ys[3:])
    assert_same_transport(single, alone[3])
    assert parallel_transports(norm, [], []) == []


@pytest.mark.parametrize("name", ["sphere", "funk_disk", "expression"])
def test_connection_round_is_the_request_by_request_rhs_bitwise(name):
    if name == "expression":
        norm = FinslerNorm.from_expression(WARPED, [-1.0, -1.0], [1.0, 1.0])
    else:
        norm = catalog_norm(name)
    lo, hi = np.asarray(norm.manifold.lo), np.asarray(norm.manifold.hi)
    rng = np.random.default_rng(3)

    def at():
        return lo + rng.uniform(0.2, 0.8, size=2) * (hi - lo)

    pieces = [
        CurveSpec.line_segment(at(), at()).pieces[0],
        reverse(CurveSpec.line_segment(at(), at())).pieces[0],
    ]
    batch = [
        [(pieces[0], 0.0, rng.normal(size=2)), (pieces[1], 0.25, rng.normal(size=(2, 3)))],
        [(pieces[1], 0.5, rng.normal(size=(2, 1)))],
        [(pieces[0], 0.75, rng.normal(size=(2, 2))), (pieces[0], 1.0, rng.normal(size=2)),
         (pieces[1], 0.125, rng.normal(size=2))],
    ]
    together = transport._connection_round(norm, batch)
    assert len(together) == len(batch)
    for got, requests in zip(together, batch):
        alone = transport._answer(partial(transport._piece_rhs, norm), requests)
        assert len(got) == len(alone) == len(requests)
        for value, want, (_, _, W) in zip(got, alone, requests):
            assert value.shape == want.shape == W.shape
            assert value.tobytes() == want.tobytes()


def test_lockstep_isolates_failing_members():
    # g = diag(1, x1^2) is singular on x1 = 0, and the chart ends at x2 = 1
    norm = FinslerNorm.from_expression("sqrt(y1^2 + x1^2*y2^2)", [-1.0, -1.0], [1.0, 1.0])
    healthy = [
        (CurveSpec.line_segment([0.4, 0.1], [0.7, 0.3]), np.array([1.0, 0.5])),
        (LoopSpec.rectangle([0.3, -0.2], [0.6, 0.1]), np.array([[1.0, 0.0], [0.2, 1.0]])),
    ]
    leaves = (CurveSpec.line_segment([0.5, 0.5], [0.5, 1.5]), np.array([1.0, 0.0]))
    degenerate = (CurveSpec.line_segment([0.0, 0.2], [0.5, 0.2]), np.array([1.0, 0.3]))
    with pytest.raises(TransportFailure) as leaving:
        parallel_transport(norm, *leaves)
    with pytest.raises(MetricDegeneracyError) as degenerating:
        parallel_transport(norm, *degenerate)
    alone = [parallel_transport(norm, curve, y) for curve, y in healthy]

    for members, first in (
        ([healthy[0], leaves, healthy[1], degenerate], leaving.value),
        ([healthy[0], degenerate, healthy[1], leaves], degenerating.value),
    ):
        with pytest.raises(type(first)) as info:
            parallel_transports(norm, *zip(*members))
        assert str(info.value) == str(first)
        outcomes = transport._lockstep(
            [transport._transport_member(norm, c, y) for c, y in members],
            partial(transport._connection_round, norm),
        )
        assert_same_transport(outcomes[0], alone[0])
        assert_same_transport(outcomes[2], alone[1])
        assert {type(outcomes[1]), type(outcomes[3])} == {TransportFailure, MetricDegeneracyError}


def test_lockstep_isolates_members_whose_rhs_is_nan():
    spans = [1.0, 1.0, 0.5, 0.5]
    members = [
        transport._steps(0.0, span, np.array([0.3]), key=(i,)) for i, span in enumerate(spans)
    ]

    def evaluate(batch):
        return [[np.cos(y) if i % 2 else np.full_like(y, np.nan) for i, _, y in requests]
                for requests in batch]

    outcomes = transport._lockstep(members, evaluate)
    assert isinstance(outcomes[0], TransportFailure) and isinstance(outcomes[2], TransportFailure)
    for i in (1, 3):
        y, stats = outcomes[i]
        y_alone, stats_alone = integrate(lambda t, y: np.cos(y), 0.0, spans[i], np.array([0.3]))
        assert y.tobytes() == y_alone.tobytes() and stats == stats_alone


def _chain_by_integrate(X, Y, p, s, rejected):
    # psi_{-s} phi_{-s} psi_s phi_s (p), one integrate per leg; every stage
    # that leaves a field's box is named in `rejected`
    def rhs(F):
        def value(t, z):
            try:
                return F.value(z)
            except DomainBoxError:
                rejected.append(F.name)
                raise
        return value

    x = p
    for F, T in ((X, s), (Y, s), (X, -s), (Y, -s)):
        x, _ = integrate(rhs(F), 0.0, T, x)
    return x


def test_chain_points_in_lockstep_are_the_integrate_route_bitwise():
    # X pulls x1 to 0.9 so fast that early stages of the longer legs
    # overshoot the wall x1 = 1: those members are rejected and retried
    lo, hi = [-1.0, -1.0], [1.0, 1.0]
    X = SmoothMap(lambda a: [-20.0 * (a[0] - 0.9), a[1] * 0.0], 2, lo=lo, hi=hi, name="sink")
    Y = SmoothMap(lambda a: [a[0] * 0.0, a[1] * 0.0 + 1.0], 2, lo=lo, hi=hi, name="e1")
    p = np.array([0.5, 0.0])
    ss = transport._lobatto_nodes(transport.FLOW_NODES)[1:-1] * 0.3
    rejected = [[] for _ in ss]
    alone = [_chain_by_integrate(X, Y, p, s, r) for s, r in zip(ss, rejected)]
    assert not rejected[0] and "sink" in rejected[-1]
    tr = ParallelogramTransporter(X, Y, p)
    with tally() as counts:
        together = tr._chain_points(ss)
    assert [x.tobytes() for x in together] == [x.tobytes() for x in alone]
    assert tr._chain_points(ss[:1])[0].tobytes() == alone[0].tobytes()
    # chain points are no transports: the lockstep counters stay at zero
    assert counts["lockstep"] == {"members": 0, "rounds": 0, "requests": 0}


def test_chain_points_raise_the_first_failure_in_order():
    lo, hi = [-1.0, -1.0], [1.0, 1.0]
    X = SmoothMap(lambda a: [a[0] * 0.0 + 1.0, a[1] * 0.0], 2, lo=lo, hi=hi, name="e0")
    Y = SmoothMap(lambda a: [a[0] * 0.0, a[1] * 0.0 + 1.0], 2, lo=lo, hi=hi, name="e1")
    p = np.array([0.5, 0.8])
    ss = [0.05, 0.3, 0.25, 0.1]  # legs past x2 = 1 cannot be stepped over
    with pytest.raises(TransportFailure) as first:
        for s in ss:
            _chain_by_integrate(X, Y, p, s, [])
    with pytest.raises(TransportFailure) as together:
        ParallelogramTransporter(X, Y, p)._chain_points(ss)
    assert str(together.value) == str(first.value)
    assert together.value.last_state.tobytes() == first.value.last_state.tobytes()


if st is None:

    def test_cheb_piece_is_chebval_bitwise():
        pytest.skip("hypothesis is not installed")

else:
    _COEFF = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)

    @st.composite
    def _cheb_cases(draw):
        rows, dim = draw(st.integers(1, 17)), draw(st.integers(1, 3))
        row = st.lists(_COEFF, min_size=dim, max_size=dim)
        coeffs = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
        return coeffs, draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))

    @settings(max_examples=300)
    @given(_cheb_cases())
    def test_cheb_piece_is_chebval_bitwise(case):
        # the float Clenshaw loop of a Chebyshev piece has numpy's bits, for
        # the point and for the velocity 2 * chebder
        coeffs, u = case
        cheb = np.polynomial.chebyshev
        x, dx = transport._ChebPiece(coeffs).point_velocity(u)
        s = 2.0 * u - 1.0
        want_x = cheb.chebval(s, coeffs)
        want_dx = cheb.chebval(s, 2.0 * cheb.chebder(coeffs, axis=0))
        assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
        assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()
