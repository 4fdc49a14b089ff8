"""Acceptance gate: one test per shipped contract, one printed verdict each.

Every test measures its extremes, prints a single PASS/FAIL line with the
numbers (visible under pytest -s), and then asserts.  Budgets are wall-clock
seconds for the measured body.  Randomness is seeded; nothing here depends
on run order.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from holonomylab.curvature import (
    constant_base_field,
    coordinate_fields,
    curvature_field,
    fiber_bracket,
)
from holonomylab.finsler import catalog_names, catalog_norm, indicatrix_samples
from holonomylab.grouplab import (
    CommutatorFamily,
    MatrixCurve,
    exp_iterate,
    order_of_contact,
    scale_curve,
    sum_curve,
)
from holonomylab.jets import SmoothMap
from holonomylab.liealg import (
    BracketField,
    PolynomialField,
    field_values,
    inclusion_chain_report,
    lie_closure,
    numerical_rank,
)
from holonomylab.transport import (
    CurveSpec,
    LoopSpec,
    flow_transport_discrepancy,
    holonomy_map,
    parallel_transport,
    parallelogram_derivatives,
)

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "grouplab_fixtures.json").read_text()
)


def emit(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def unit(n, i, j):
    E = np.zeros((n, n))
    E[i, j] = 1.0
    return E


def direction_curve(D, k):
    # contact order k with plain kth derivative exactly D
    return MatrixCurve.exponential(np.asarray(D, dtype=float) / math.factorial(k), power=k)


def constant_field(manifold, vec, name="const"):
    return constant_base_field(manifold, np.asarray(vec, dtype=float), name)


def unit_ball(rng, n):
    A = rng.standard_normal((n, n))
    return A / max(1.0, float(np.linalg.norm(A, 2)))


CATALOG = catalog_names()


# -- matrix-group constructions -------------------------------------------------


def test_commutator_mixed_derivative_and_diagonal():
    t0 = time.perf_counter()
    X, Y = unit(2, 0, 1), unit(2, 1, 0)
    fam = CommutatorFamily(direction_curve(X, 1), direction_curve(Y, 1))
    bracket = Y @ X - X @ Y  # = E22 - E11
    mixed_defect = float(np.max(np.abs(fam.mixed_derivative() - bracket)))
    rec = order_of_contact(fam.diagonal(), max_order=3)
    factor = FIXTURES["commutator_cases"][0]["diagonal_factor"]
    diag_defect = float(np.max(np.abs(rec.direction - factor * bracket)))
    elapsed = time.perf_counter() - t0
    ok = mixed_defect < 1e-9 and rec.order == 2 and diag_defect < 1e-9 and elapsed < 1.0
    emit(
        "commutator bracket",
        ok,
        f"mixed defect {mixed_defect:.1e}, diagonal order {rec.order} with factor {factor}, "
        f"diagonal defect {diag_defect:.1e}, {elapsed:.2f}s (budget 1s)",
    )


def test_sum_curve_contact_and_direction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    orders_ok = True
    alt_equal_ok = True  # alternate constants must still work when k == l
    alt_mixed_defect = math.inf  # and must NOT reproduce X + Y when k != l
    for k, l in ((1, 1), (1, 2), (2, 2), (2, 3)):
        X, Y = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        target = X + Y
        scale = float(np.max(np.abs(target)))
        r = math.lcm(k, l)
        rec = order_of_contact(
            sum_curve(direction_curve(X, k), direction_curve(Y, l)), max_order=r
        )
        orders_ok = orders_ok and rec.order == r
        worst = max(worst, float(np.max(np.abs(rec.direction - target))) / scale)
        alt = order_of_contact(
            sum_curve(direction_curve(X, k), direction_curve(Y, l), constants="alternate"),
            max_order=r,
        )
        defect = float(np.max(np.abs(alt.direction - target))) / scale
        if k == l:
            alt_equal_ok = alt_equal_ok and defect < 1e-8
        else:
            alt_mixed_defect = min(alt_mixed_defect, defect)
    elapsed = time.perf_counter() - t0
    ok = (
        orders_ok
        and worst < 1e-8
        and alt_equal_ok
        and alt_mixed_defect > 1e-3
        and elapsed < 5.0
    )
    emit(
        "sum curve",
        ok,
        f"orders lcm(k,l) {'all confirmed' if orders_ok else 'WRONG'}, derived-constant "
        f"direction defect {worst:.1e}, alternate constants off by {alt_mixed_defect:.1e} "
        f"for k != l (documented), {elapsed:.2f}s (budget 5s)",
    )


def test_scale_and_inverse_directions():
    rng = np.random.default_rng(303)
    worst_scale = 0.0
    orders_ok = True
    for lam in (-2.0, -1.0, 0.5, 3.0):
        for k in (1, 2):
            X = unit_ball(rng, 2)
            rec = order_of_contact(scale_curve(direction_curve(X, k), lam), max_order=k)
            orders_ok = orders_ok and rec.order == k
            worst_scale = max(worst_scale, float(np.max(np.abs(rec.direction - lam * X))))
    worst_inv = 0.0
    for k in (1, 2, 3):
        X = unit_ball(rng, 2)
        inv = direction_curve(X, k).inverse()
        worst_inv = max(worst_inv, float(np.max(np.abs(inv.derivative(k) + X))))
    ok = orders_ok and worst_scale < 1e-9 and worst_inv < 1e-9
    emit(
        "scale and inverse",
        ok,
        f"scale defect {worst_scale:.1e} over lambda in {{-2, -1, 0.5, 3}}, inverse "
        f"kth-derivative defect {worst_inv:.1e}",
    )


def test_iterated_exponential_first_order_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    X, M = unit_ball(rng, 2), unit_ball(rng, 2)
    psi = MatrixCurve.polynomial(2, {1: X, 2: M})
    errors = [exp_iterate(psi, 1.0, n).distance for n in (64, 128, 256)]
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(1.8 <= r <= 2.2 for r in ratios) and elapsed < 1.0
    emit(
        "iterated exponential",
        ok,
        f"errors {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e}, halving ratios "
        f"{ratios[0]:.3f}, {ratios[1]:.3f} (want 1.8..2.2), {elapsed:.2f}s (budget 1s)",
    )


def test_unitriangular_closure_randomized():
    # directions produced inside the unitriangular subgroup stay in its
    # nilpotent algebra: zero diagonal and below
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()

    def strict_upper():
        D = np.zeros((3, 3))
        D[0, 1], D[0, 2], D[1, 2] = rng.uniform(-1.0, 1.0, size=3)
        return D

    worst = 0.0
    counts = {"commutator": 0, "sum": 0, "scale": 0}
    for _ in range(500):
        op = ("commutator", "sum", "scale")[rng.integers(3)]
        counts[op] += 1
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        if op == "commutator":
            fam = CommutatorFamily(direction_curve(strict_upper(), k), direction_curve(strict_upper(), l))
            direction = fam.mixed_derivative()
        elif op == "sum":
            c = sum_curve(direction_curve(strict_upper(), k), direction_curve(strict_upper(), l))
            direction = c.derivative(math.lcm(k, l))
        else:
            lam = float(rng.uniform(0.25, 3.0) * rng.choice([-1.0, 1.0]))
            direction = scale_curve(direction_curve(strict_upper(), k), lam).derivative(k)
        worst = max(worst, float(np.max(np.abs(np.tril(direction)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9
    emit(
        "unitriangular closure",
        ok,
        f"500 draws ({counts['commutator']} commutator / {counts['sum']} sum / "
        f"{counts['scale']} scale), max lower-or-diagonal leak {worst:.1e}, {elapsed:.2f}s",
    )


# -- transport and holonomy ------------------------------------------------------


def test_transport_norm_and_homogeneity_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    lambdas = np.array([0.5, 2.0, 10.0])
    worst_drift = 0.0
    worst_hom = 0.0
    for name in CATALOG:
        norm = catalog_norm(name)
        draw = norm.manifold.interior_sampler(rng)
        for _ in range(20):
            a, b = draw(), draw()
            y0 = norm.normalize(a, rng.standard_normal(norm.dim))
            batch = np.concatenate([y0[:, None], y0[:, None] * lambdas[None, :]], axis=1)
            res = parallel_transport(norm, CurveSpec.line_segment(a, b), batch)
            f_end = norm.value(b, res.y_end)
            worst_drift = max(worst_drift, float(np.abs(f_end[0] - 1.0)))
            base = res.y_end[:, 0]
            hom = np.linalg.norm(res.y_end[:, 1:] - base[:, None] * lambdas[None, :], axis=0)
            worst_hom = max(worst_hom, float(np.max(hom / (lambdas * np.linalg.norm(base)))))
    elapsed = time.perf_counter() - t0
    ok = worst_drift < 1e-8 and worst_hom < 1e-8 and elapsed < 30.0
    emit(
        "transport contracts",
        ok,
        f"{len(CATALOG)} metrics x 20 curves: norm drift {worst_drift:.1e}, homogeneity "
        f"defect {worst_hom:.1e} over lambda {{0.5, 2, 10}}, {elapsed:.1f}s (budget 30s)",
    )


def test_sphere_loop_rotation_closed_form():
    t0 = time.perf_counter()
    sphere = catalog_norm("sphere")
    t1, t2 = np.pi / 3.0, np.pi / 2.0
    loop = LoopSpec.rectangle([t1, 0.0], [t2, 1.0])
    p = loop.start
    samples = indicatrix_samples(sphere, p, 8)
    out = holonomy_map(sphere, loop, samples)
    sin_t = np.sin(p[0])
    shifts = np.unwrap(
        np.arctan2(out[1] * sin_t, out[0]) - np.arctan2(samples[1] * sin_t, samples[0])
    )
    rotation = float(np.mean(shifts))
    oracle = 1.0 * (np.cos(t1) - np.cos(t2))  # = 0.5 exactly
    spread = float(np.max(np.abs(shifts - rotation)))
    elapsed = time.perf_counter() - t0
    ok = abs(rotation - oracle) < 1e-6 and elapsed < 10.0
    emit(
        "holonomy rotation",
        ok,
        f"measured {rotation:.9f} vs closed form {oracle}, sample spread {spread:.1e}, "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_parallelogram_matches_curvature_all_metrics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_first = 0.0
    worst_second = 0.0
    for name in CATALOG:
        norm = catalog_norm(name)
        draw = norm.manifold.interior_sampler(rng, margin_fraction=0.35)
        for _ in range(10):
            p = draw()
            X = constant_field(norm.manifold, unit_ball(rng, 1 + norm.dim)[0, : norm.dim], "X")
            Y = constant_field(norm.manifold, unit_ball(rng, 1 + norm.dim)[1, : norm.dim], "Y")
            v = norm.normalize(p, rng.standard_normal(norm.dim))
            target = 2.0 * curvature_field(norm, X, Y, p).values(v)
            (d1, _), (d2, _) = parallelogram_derivatives(norm, X, Y, p, v)
            # flat metrics have zero curvature: floor the denominators at 1
            worst_first = max(
                worst_first,
                float(np.linalg.norm(d1)) / max(float(np.linalg.norm(target)) / 2.0, 1.0),
            )
            worst_second = max(
                worst_second,
                float(np.linalg.norm(d2 - target)) / max(float(np.linalg.norm(target)), 1.0),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_first < 1e-6 and worst_second < 1e-4 and elapsed < 120.0
    emit(
        "curvature cross-check",
        ok,
        f"{len(CATALOG)} metrics x 10 draws: difference-quotient second derivative vs "
        f"2 xi(v) off by {worst_second:.1e} rel, first derivative {worst_first:.1e} rel, "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_flow_equals_transport():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    worst = 0.0
    for name in CATALOG:
        norm = catalog_norm(name)
        draw = norm.manifold.interior_sampler(rng, margin_fraction=0.35)
        for _ in range(20):
            p = draw()
            X = constant_field(norm.manifold, unit_ball(rng, norm.dim)[0], "X")
            y0 = norm.normalize(p, rng.standard_normal(norm.dim))
            t = float(rng.uniform(0.1, 0.3))
            worst = max(worst, flow_transport_discrepancy(norm, X, p, y0, t))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7
    emit(
        "flow vs transport",
        ok,
        f"{len(CATALOG)} metrics x 20 triples: max discrepancy {worst:.1e} "
        f"(tol 1e-7), {elapsed:.1f}s",
    )


# -- algebras ---------------------------------------------------------------------


def test_curvature_ihol_rank_chain():
    t0 = time.perf_counter()
    base_points = {
        "euclidean": [0.1, -0.3],
        "flat_torus": [0.5, 0.25],
        "sphere": [0.9, 0.4],
        "funk_disk": [0.3, 0.0],
    }
    ranks = {}
    monotone = True
    for name in CATALOG:
        rep = inclusion_chain_report(catalog_norm(name), base_points[name], depth=2)
        ranks[name] = rep.ranks
        monotone = monotone and rep.ranks[0] <= rep.ranks[1]

    # the sphere algebra is so(2): every pairwise bracket of curvature fields
    # vanishes on the indicatrix
    sphere = catalog_norm("sphere")
    p = np.array(base_points["sphere"])
    rng = np.random.default_rng(909)
    fields = [coordinate_fields(sphere.manifold)]
    fields += [
        (
            constant_field(sphere.manifold, rng.standard_normal(2), "X"),
            constant_field(sphere.manifold, rng.standard_normal(2), "Y"),
        )
        for _ in range(2)
    ]
    xis = [curvature_field(sphere, X, Y, p).radialized() for X, Y in fields]
    ys = indicatrix_samples(sphere, p, 7)
    worst_bracket = max(
        float(np.max(np.abs(fiber_bracket(a, b).values(ys))))
        for i, a in enumerate(xis)
        for b in xis[i + 1 :]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        monotone
        and ranks["euclidean"] == (0, 0)
        and ranks["flat_torus"] == (0, 0)
        and ranks["sphere"] == (1, 1)
        and worst_bracket < 1e-7
        and ranks["funk_disk"][1] >= ranks["funk_disk"][0]
    )
    emit(
        "rank chain",
        ok,
        f"rank(curvature) <= rank(ihol) everywhere; euclidean {ranks['euclidean']}, "
        f"flat torus {ranks['flat_torus']}, sphere {ranks['sphere']} with pairwise "
        f"curvature-field brackets {worst_bracket:.1e}, funk measured {ranks['funk_disk']} "
        f"(recorded, no absolute claim), {elapsed:.1f}s",
    )


def random_polynomial_field(rng, dim=2, degree=2):
    expos = [
        (i, j) for i in range(degree + 1) for j in range(degree + 1) if i + j <= degree
    ]
    return PolynomialField(
        dim, [{e: float(rng.uniform(-1.0, 1.0)) for e in expos} for _ in range(dim)]
    )


def test_bracket_algebra_randomized_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    worst_anti = 0.0
    for _ in range(350):
        X, Y = (random_polynomial_field(rng) for _ in range(2))
        pts = rng.uniform(-1.0, 1.0, size=(2, 4))
        defect = field_values(BracketField(X, Y), pts) + field_values(BracketField(Y, X), pts)
        worst_anti = max(worst_anti, float(np.max(np.abs(defect))))
    worst_jacobi = 0.0
    for _ in range(250):
        X, Y, Z = (random_polynomial_field(rng) for _ in range(3))
        pts = rng.uniform(-1.0, 1.0, size=(2, 3))
        cyc = (
            field_values(BracketField(X, BracketField(Y, Z)), pts)
            + field_values(BracketField(Y, BracketField(Z, X)), pts)
            + field_values(BracketField(Z, BracketField(X, Y)), pts)
        )
        worst_jacobi = max(worst_jacobi, float(np.max(np.abs(cyc))))
    idempotent = True
    for _ in range(60):
        # affine fields close inside a 6-dimensional algebra, so depth 4
        # always reaches the rank-stable state idempotence is about
        gens = [random_polynomial_field(rng, degree=1) for _ in range(2)]
        pts = rng.uniform(-1.0, 1.0, size=(2, 25))
        span1, trace1 = lie_closure(gens, depth=4, points=pts)
        r1 = numerical_rank(span1.fields, pts).rank
        span2, _ = lie_closure(span1.fields, depth=4, points=pts)
        idempotent = idempotent and (
            trace1.termination == "rank-stable"
            and numerical_rank(span2.fields, pts).rank == r1
            and len(span2.fields) == len(span1.fields)
        )
    monotone = True
    for _ in range(340):
        fields = [random_polynomial_field(rng) for _ in range(3)]
        pts = rng.uniform(-1.0, 1.0, size=(2, 30))
        r_small = numerical_rank(fields[:2], pts).rank
        r_big = numerical_rank(fields, pts).rank
        monotone = monotone and r_small <= r_big
    elapsed = time.perf_counter() - t0
    ok = (
        worst_anti < 1e-10
        and worst_jacobi < 1e-10
        and idempotent
        and monotone
        and elapsed < 30.0
    )
    emit(
        "bracket algebra",
        ok,
        f"1000 randomized cases: antisymmetry {worst_anti:.1e}, Jacobi {worst_jacobi:.1e}, "
        f"closure idempotent {idempotent}, rank monotone {monotone}, {elapsed:.1f}s "
        f"(budget 30s)",
    )
