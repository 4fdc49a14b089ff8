"""Contact orders, commutator directions, and weak tangents of matrix curves.

The frozen sign and scaling conventions live in data/grouplab_fixtures.json;
every construction is cross-checked against finite differences so the jet
route never certifies itself.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from holonomylab.grouplab import (
    CONTACT_TOL,
    EXP_NORM_BOUND,
    IterationResult,
    CommutatorFamily,
    MatrixCurve,
    diagonal_bracket_factor,
    exp_iterate,
    one_sided_derivative,
    order_of_contact,
    scale_curve,
    sum_curve,
    weak_tangency_reparam,
)
from holonomylab.jets import Jet, JetDomainError, jet_space
from oracles import curve_derivative, mixed_partial

try:
    from hypothesis import assume, example, given, settings, strategies as st
except ImportError:  # the property test below skips itself
    st = None

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "grouplab_fixtures.json").read_text()
)


def unit(n, i, j):
    E = np.zeros((n, n))
    E[i, j] = 1.0
    return E


def build_curve(spec):
    assert spec["kind"] == "exponential"
    return MatrixCurve.exponential(np.array(spec["matrix"]), power=spec["power"])


def as_map(curve):
    def f(t):
        if isinstance(t, Jet):
            return curve.jets(t)
        return curve.value(t)

    return f


def family_value(family, t, s):
    """c(t, s) on order-0 jets."""
    space = jet_space(2, 0)
    return family.jets(Jet.constant(space, float(t)), Jet.constant(space, float(s))).value


def family_map(family):
    def f(t, s):
        if isinstance(t, Jet):
            return family.jets(t, s)
        return family_value(family, t, s)

    return f


def product(phi, psi):
    """The reference pointwise product t -> phi(t) psi(t): entry (i, j) sums
    phi_ik psi_kj over k in order."""

    def evaluator(tj):
        A, B = phi.jets(tj), psi.jets(tj)
        return (A.at(np.s_[:, :, None]) * B.at(None)).sum(axis=1)

    return MatrixCurve(phi.n, evaluator)


# -- curve evaluation ---------------------------------------------------------


def test_exponential_matches_expm():
    X = np.array([[0.3, -1.1], [0.7, 0.2]])
    phi = MatrixCurve.exponential(X)
    for t in (-0.8, -0.1, 0.0, 0.4, 1.3):
        assert np.allclose(phi.value(t), expm(t * X), rtol=0.0, atol=1e-12)
    quad = MatrixCurve.exponential(X, power=2)
    assert np.allclose(quad.value(0.7), expm(0.49 * X), rtol=0.0, atol=1e-12)


def test_exponential_of_a_non_finite_matrix_names_its_norm():
    # at t = 0 the product 0 * inf is NaN
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="1-norm nan"):
        MatrixCurve.exponential(np.array([[0.0, np.inf], [0.0, 0.0]]))
    huge = MatrixCurve.exponential(np.array([[1e308, 0.0], [0.0, 0.0]]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="1-norm inf"):
        huge.value(10.0)
    # a finite matrix whose exponential overflows gives inf or NaN, as scipy's expm does
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(huge.value(1e-305)))


def test_exponential_of_a_zero_matrix_is_the_identity_bitwise():
    # every exponential curve's jet at t = 0 exponentiates t * X = 0, with a
    # -0.0 entry wherever t * X has a negative sign
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for _ in range(10):
            X = rng.standard_normal((n, n))
            for t in (0.0, -0.0):
                assert MatrixCurve.exponential(X).value(t).tobytes() == np.eye(n).tobytes()


def test_exponential_jets_match_finite_differences():
    X = np.array([[0.0, 1.0], [-0.5, 0.3]])
    phi = MatrixCurve.exponential(X)
    for k in (1, 2, 3):
        est = curve_derivative(as_map(phi), k, mode="richardson")
        assert est.converged
        assert np.allclose(phi.derivative(k), est.value, rtol=1e-8, atol=1e-8)


def test_curve_missing_identity_rejected():
    def evaluator(tj):
        one = Jet.constant(tj.space, 1.0)
        two = Jet.constant(tj.space, 2.0)
        zero = Jet.constant(tj.space, 0.0)
        return Jet.stack([[two, zero], [zero, one]])

    with pytest.raises(ValueError, match="identity"):
        MatrixCurve(2, evaluator)


def test_polynomial_and_exponential_contact_orders():
    C = np.array([[0.2, -1.0], [0.4, 0.1]])
    cubic = MatrixCurve.polynomial(2, {3: C})
    record = order_of_contact(cubic, 5)
    assert record.order == 3
    assert np.allclose(record.direction, 6.0 * C, rtol=0.0, atol=1e-12)
    assert all(r <= CONTACT_TOL for r in record.residuals)

    X = unit(2, 0, 1)
    assert order_of_contact(MatrixCurve.exponential(X), 4).order == 1
    quad = order_of_contact(MatrixCurve.exponential(X, power=2), 4)
    assert quad.order == 2
    assert np.allclose(quad.direction, 2.0 * X, rtol=0.0, atol=1e-12)


def test_no_contact_reported_up_to_max_order():
    constant = MatrixCurve.polynomial(2, {})
    record = order_of_contact(constant, 4)
    assert record.order is None and record.direction is None
    assert len(record.residuals) == 4

    late = MatrixCurve.polynomial(2, {4: np.eye(2)})
    assert order_of_contact(late, 3).order is None
    payload = json.dumps(dataclasses.asdict(order_of_contact(late, 3)))
    assert "max_order" in payload


def test_inverse_is_pointwise_inverse():
    X = np.array([[0.1, 0.9], [-0.4, 0.2]])
    phi = MatrixCurve.exponential(X)
    inv = phi.inverse()
    for t in (-0.6, 0.3, 1.1):
        assert np.allclose(inv.value(t), np.linalg.inv(phi.value(t)), rtol=0.0, atol=1e-12)
    prod = product(phi, inv).jets(0.45, 3)
    eye = np.eye(2)
    for i in range(2):
        for j in range(2):
            coeffs = prod.coeffs[:, i, j].copy()
            coeffs[0] -= eye[i, j]
            assert float(np.max(np.abs(coeffs))) < 1e-12


def test_inverse_negates_direction():
    C = np.array([[0.0, 2.0], [0.0, 0.0]])
    phi = MatrixCurve.polynomial(2, {2: C})
    assert phi.inverse().order == 2
    assert np.allclose(phi.inverse().derivative(2), -2.0 * C, rtol=0.0, atol=1e-12)


def test_multiply_adds_first_order_directions():
    X = np.array([[0.2, 0.5], [0.0, -0.1]])
    Y = np.array([[0.0, -0.3], [0.8, 0.4]])
    prod = product(MatrixCurve.exponential(X), MatrixCurve.exponential(Y))
    assert np.allclose(prod.derivative(1), X + Y, rtol=0.0, atol=1e-12)


def test_singular_expansion_point_rejected():
    phi = MatrixCurve.polynomial(2, {1: -np.eye(2)})
    with pytest.raises(ValueError, match="singular"):
        phi.inverse().jets(1.0, 2)


# -- commutators ----------------------------------------------------------------


@pytest.mark.parametrize("case", FIXTURES["commutator_cases"], ids=lambda c: c["name"])
def test_commutator_fixture_case(case):
    phi = build_curve(case["phi"])
    psi = build_curve(case["psi"])
    assert phi.order == case["k"] and psi.order == case["l"]
    X = np.array(case["direction_x"])
    Y = np.array(case["direction_y"])
    assert np.allclose(phi.derivative(case["k"]), X, rtol=0.0, atol=1e-12)
    assert np.allclose(psi.derivative(case["l"]), Y, rtol=0.0, atol=1e-12)

    family = CommutatorFamily(phi, psi)
    mixed = family.mixed_derivative()
    assert np.allclose(mixed, np.array(case["mixed"]), rtol=0.0, atol=1e-10)
    assert np.allclose(mixed, Y @ X - X @ Y, rtol=0.0, atol=1e-10)

    diag = family.diagonal()
    record = order_of_contact(diag, case["diagonal_order"] + 1)
    assert record.order == case["diagonal_order"]
    factor = diagonal_bracket_factor(case["k"], case["l"])
    assert factor == case["diagonal_factor"]
    assert np.allclose(record.direction, factor * mixed, rtol=1e-8, atol=1e-10)


def test_commutator_swap_flips_sign():
    case = FIXTURES["commutator_cases"][0]
    phi = build_curve(case["phi"])
    psi = build_curve(case["psi"])
    forward = CommutatorFamily(phi, psi).mixed_derivative()
    swapped = CommutatorFamily(psi, phi).mixed_derivative()
    assert np.allclose(swapped, -forward, rtol=0.0, atol=1e-10)


def test_commutator_richardson_cross_check():
    case = FIXTURES["commutator_cases"][0]
    family = CommutatorFamily(build_curve(case["phi"]), build_curve(case["psi"]))
    est = mixed_partial(family_map(family), 1, 1, mode="richardson")
    assert est.converged
    assert np.allclose(est.value, np.array(case["mixed"]), rtol=0.0, atol=1e-6)

    diag = family.diagonal()
    jet_dir = diag.derivative(2)
    fd = curve_derivative(as_map(diag), 2, mode="richardson")
    assert fd.converged
    assert np.allclose(jet_dir, fd.value, rtol=1e-8, atol=1e-8)


def test_commuting_pair_gives_identity_family():
    X = np.diag([0.4, -0.2])
    Y = np.diag([-1.0, 0.3])
    family = CommutatorFamily(MatrixCurve.exponential(X), MatrixCurve.exponential(Y))
    for t, s in [(0.3, 0.7), (-0.5, 0.2), (1.0, 1.0)]:
        assert np.allclose(family_value(family, t, s), np.eye(2), rtol=0.0, atol=1e-14)
    assert order_of_contact(family.diagonal(), 4).order is None


def test_commutator_mixed_derivative_for_polynomial_curves():
    # the mixed derivative depends on the directions only, not on the carrier
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    Y = np.array([[0.0, 0.0], [1.0, 0.0]])
    M = np.array([[0.3, 0.1], [-0.2, 0.5]])
    phi = MatrixCurve.polynomial(2, {1: X, 2: M})
    psi = MatrixCurve.polynomial(2, {1: Y, 2: M.T})
    mixed = CommutatorFamily(phi, psi).mixed_derivative()
    assert np.allclose(mixed, Y @ X - X @ Y, rtol=0.0, atol=1e-10)


# -- sums and scalings ------------------------------------------------------------


def sum_constant_formulas(k, l, constants):
    r = math.lcm(k, l)
    m1, m2 = r // k, r // l
    if constants == "exact":
        return (
            (math.factorial(k) / math.factorial(r)) ** (1.0 / k),
            (math.factorial(l) / math.factorial(r)) ** (1.0 / l),
        )
    return (
        (m1**k * math.factorial(r - k)) ** (-1.0 / r),
        (m2**l * math.factorial(r - l)) ** (-1.0 / r),
    )


@pytest.mark.parametrize("pair", ["1,1", "1,2", "2,3"])
@pytest.mark.parametrize("constants", ["exact", "alternate"])
def test_sum_constants_match_fixtures(pair, constants):
    k, l = (int(v) for v in pair.split(","))
    frozen = FIXTURES["sum_constants"][constants][pair]
    assert sum_constant_formulas(k, l, constants) == tuple(frozen)


def test_sum_curve_direction_is_exact_sum():
    X = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    Yh = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    phi = MatrixCurve.exponential(X)
    psi = MatrixCurve.exponential(Yh, power=2)
    combined = sum_curve(phi, psi)
    assert combined.order == 2
    assert np.allclose(combined.derivative(2), X + 2.0 * Yh, rtol=0.0, atol=1e-10)

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    deep = sum_curve(
        MatrixCurve.exponential(A, power=2), MatrixCurve.exponential(B, power=3)
    )
    assert deep.order == 6
    assert np.allclose(deep.derivative(6), 2.0 * A + 6.0 * B, rtol=1e-8, atol=1e-8)


def test_sum_curve_alternate_constants_rescale_direction():
    X = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    Yh = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    phi = MatrixCurve.exponential(X)
    psi = MatrixCurve.exponential(Yh, power=2)
    alt = sum_curve(phi, psi, constants="alternate")
    c1, c2 = sum_constant_formulas(1, 2, "alternate")
    expected = math.factorial(2) * c1**1 * X + math.factorial(2) * c2**2 / 2.0 * (2.0 * Yh)
    assert np.allclose(alt.derivative(2), expected, rtol=0.0, atol=1e-10)
    assert not np.allclose(alt.derivative(2), X + 2.0 * Yh, rtol=0.0, atol=1e-3)
    with pytest.raises(ValueError, match="constants"):
        sum_curve(phi, psi, constants="fast")


def test_scale_curve_scales_direction():
    A = np.array([[0.0, 1.0], [-0.3, 0.0]])
    phi = MatrixCurve.exponential(A, power=2)
    X = 2.0 * A
    for lam in (2.5, -1.5):
        scaled = scale_curve(phi, lam)
        assert scaled.order == 2
        assert np.allclose(scaled.derivative(2), lam * X, rtol=1e-10, atol=1e-12)
        fd = curve_derivative(as_map(scaled), 2, mode="richardson")
        assert fd.converged
        assert np.allclose(scaled.derivative(2), fd.value, rtol=1e-8, atol=1e-8)


def test_scale_curve_measures_an_undeclared_order():
    # the commutator diagonal declares no order, so scale_curve measures it:
    # order k + l, direction lam C(k + l, k) (YX - XY)
    k, l, lam = 1, 2, -1.5
    phi = MatrixCurve.exponential(np.array([[0.0, 1.0], [-0.3, 0.2]]), power=k)
    psi = MatrixCurve.exponential(np.array([[0.4, 0.0], [1.0, -0.1]]), power=l)
    diagonal = CommutatorFamily(phi, psi).diagonal()
    assert diagonal.order is None
    scaled = scale_curve(diagonal, lam)
    X, Y = phi.derivative(k), psi.derivative(l)
    assert scaled.order == order_of_contact(scaled).order == k + l
    expected = lam * math.comb(k + l, k) * (Y @ X - X @ Y)
    assert np.allclose(scaled.derivative(k + l), expected, rtol=0.0, atol=1e-12)


def test_scale_curve_zero_and_composition():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    phi = MatrixCurve.exponential(A)
    frozen = scale_curve(phi, 0.0)
    for t in (-1.0, 0.0, 2.0):
        assert np.allclose(frozen.value(t), np.eye(2), rtol=0.0, atol=1e-15)
    assert order_of_contact(frozen, 3).order is None

    twice = scale_curve(scale_curve(phi, -2.0), 3.0)
    assert np.allclose(twice.derivative(1), -6.0 * A, rtol=0.0, atol=1e-12)


# -- one-parameter approximation --------------------------------------------------


def test_exp_iterate_error_halves_with_doubled_steps():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    M = np.array([[0.3, -0.2], [0.1, 0.4]])
    psi = MatrixCurve.polynomial(2, {1: X, 2: M})
    for n in (64, 128, 256):
        coarse = exp_iterate(psi, 1.0, n)
        fine = exp_iterate(psi, 1.0, 2 * n)
        ratio = coarse.distance / fine.distance
        assert 1.8 <= ratio <= 2.2
    payload = dataclasses.asdict(coarse)
    assert payload["steps"] == 256 and payload["distance"] > 0.0


def test_exp_iterate_nilpotent_is_exact():
    X = unit(2, 0, 1)
    psi = MatrixCurve.polynomial(2, {1: X})
    result = exp_iterate(psi, 1.0, 64)
    assert np.array_equal(result.matrix, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert result.distance < 2e-15


def test_exp_iterate_keeps_unitriangular_exactly():
    X = unit(3, 0, 1) + unit(3, 1, 2)
    psi = MatrixCurve.polynomial(3, {1: X})
    M = exp_iterate(psi, 1.0, 128).matrix
    assert M[1, 0] == 0.0 and M[2, 0] == 0.0 and M[2, 1] == 0.0
    assert M[0, 0] == 1.0 and M[1, 1] == 1.0 and M[2, 2] == 1.0


def test_exp_iterate_rejects_overflow_and_higher_order():
    X = np.array([[2.0, 0.0], [0.0, -1.0]])
    psi = MatrixCurve.polynomial(2, {1: X})
    with pytest.raises(ValueError, match="bound"):
        exp_iterate(psi, 40.0, 64)
    quad = MatrixCurve.exponential(X, power=2)
    with pytest.raises(ValueError, match="order 1"):
        exp_iterate(quad, 1.0, 64)


# -- weak tangency -----------------------------------------------------------------


def test_weak_tangency_exact_reading_recovers_direction():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    phi = MatrixCurve.exponential(A, power=2)
    sigma = weak_tangency_reparam(phi)
    # (2t)^{1/2} squared is 2t, so sigma is exp(2 t A) on the nose
    for h in (0.01, 0.2, 0.9):
        assert np.allclose(sigma.value(h), expm(2.0 * h * A), rtol=0.0, atol=1e-12)
    derivative, residual = one_sided_derivative(sigma, 2)
    assert residual < 1e-10
    assert np.allclose(derivative, 2.0 * A, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("reading", ["exact", "alternate"])
def test_weak_tangency_direction_scales_match_fixtures(k, reading):
    C = np.array([[0.0, 0.5], [-0.25, 0.0]])
    phi = MatrixCurve.polynomial(2, {k: C})
    X = float(math.factorial(k)) * C
    sigma = weak_tangency_reparam(phi, reading=reading)
    derivative, residual = one_sided_derivative(sigma, k)
    scale = FIXTURES["weak_tangency_direction_scale"][reading][str(k)]
    assert np.allclose(derivative, scale * X, rtol=1e-6, atol=1e-8)
    assert residual < 1e-5


def test_weak_tangency_extrapolates_fractional_error_terms():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.2, 0.0], [0.4, -0.1]])
    phi = MatrixCurve.polynomial(2, {2: A, 3: B})
    sigma = weak_tangency_reparam(phi)
    derivative, residual = one_sided_derivative(sigma, 2)
    assert np.allclose(derivative, 2.0 * A, rtol=0.0, atol=1e-6)
    assert residual < 1e-5


@pytest.mark.parametrize("k", [2, 3, 4])
def test_weak_tangency_default_schedule_meets_the_cli_tolerance(k):
    # the CLI's weak-direction check: relative defect 1e-5 against k! C
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        phi = MatrixCurve.exponential(0.8 * M / np.linalg.norm(M, 2), power=k)
        X = phi.derivative(k)
        derivative, _ = one_sided_derivative(weak_tangency_reparam(phi), k)
        defect = np.max(np.abs(derivative - X)) / max(np.max(np.abs(X)), 1.0)
        assert defect < 1e-5


def test_weak_tangency_is_one_sided():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sigma = weak_tangency_reparam(MatrixCurve.exponential(A, power=2))
    assert np.allclose(sigma.value(0.0), np.eye(2), rtol=0.0, atol=1e-15)
    sigma.jets(0.5, 3)
    with pytest.raises(JetDomainError, match="one-sided"):
        sigma.jets(0.0, 1)
    with pytest.raises(JetDomainError, match="one-sided"):
        sigma.value(-0.1)
    with pytest.raises(ValueError, match="reading"):
        weak_tangency_reparam(MatrixCurve.exponential(A), reading="loose")


# -- staying inside the group ------------------------------------------------------


def test_unitriangular_constructions_stay_in_the_algebra():
    X = unit(3, 0, 1)
    Yh = unit(3, 1, 2)
    phi = MatrixCurve.exponential(X)
    psi = MatrixCurve.exponential(Yh, power=2)

    def strictly_upper_defect(D):
        return float(np.max(np.abs(np.tril(D))))

    family = CommutatorFamily(phi, psi)
    diag_record = order_of_contact(family.diagonal(), 4)
    assert strictly_upper_defect(family.mixed_derivative()) < 1e-9
    assert strictly_upper_defect(diag_record.direction) < 1e-9
    assert strictly_upper_defect(sum_curve(phi, psi).derivative(2)) < 1e-9
    assert strictly_upper_defect(scale_curve(psi, -0.7).derivative(2)) < 1e-9


def test_trace_free_directions_stay_trace_free():
    X = np.array([[0.5, 1.0], [0.3, -0.5]])
    Y = np.array([[0.0, -0.8], [1.2, 0.0]])
    phi = MatrixCurve.exponential(X)
    psi = MatrixCurve.exponential(Y)
    mixed = CommutatorFamily(phi, psi).mixed_derivative()
    assert abs(np.trace(mixed)) < 1e-9
    assert abs(np.trace(sum_curve(phi, psi).derivative(1))) < 1e-9
    record = order_of_contact(CommutatorFamily(phi, psi).diagonal(), 3)
    assert abs(np.trace(record.direction)) < 1e-9


def test_rotation_scaling_pair_spans_its_plane():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    S = np.eye(2)
    phi = MatrixCurve.exponential(J)
    psi = MatrixCurve.exponential(S)
    family = CommutatorFamily(phi, psi)
    assert np.allclose(family_value(family, 0.8, -0.4), np.eye(2), rtol=0.0, atol=1e-13)
    direction = sum_curve(phi, psi).derivative(1)
    basis = np.stack([J.ravel(), S.ravel()]).T
    _, residual, _, _ = np.linalg.lstsq(basis, direction.ravel(), rcond=None)
    assert float(residual[0]) < 1e-18 if residual.size else True
    assert np.allclose(direction, J + S, rtol=0.0, atol=1e-12)


def _defect(got, want, scale) -> float:
    return float(np.max(np.abs(got - want))) / scale


if st is None:

    def test_directions_obey_the_lie_algebra_laws():
        pytest.skip("hypothesis is not installed")

    def test_exponential_matches_scipy_and_the_group_law():
        pytest.skip("hypothesis is not installed")

else:

    @st.composite
    def _curve_pairs(draw):
        """(k, l, A, B, lam): orders k, l in 1..3, n x n matrices (n = 2 or 3)
        of 2-norm at most 1 with an entry above 1e-3, and lam in [-2, 2]."""
        n = draw(st.sampled_from((2, 3)))
        k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        entries = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
        A, B = (np.array(draw(entries)).reshape(n, n) for _ in range(2))
        A, B = (M / max(1.0, np.linalg.norm(M, 2)) for M in (A, B))
        assume(min(np.max(np.abs(A)), np.max(np.abs(B))) > 1e-3)
        return k, l, A, B, draw(st.floats(-2.0, 2.0, allow_subnormal=False))

    @settings(max_examples=100)
    @given(_curve_pairs())
    def test_directions_obey_the_lie_algebra_laws(draw):
        # the tangent directions of curves through the identity form the Lie
        # algebra: sums add, scalings scale, and the commutator family's
        # mixed derivative and diagonal give the bracket YX - XY
        k, l, A, B, lam = draw
        phi, psi = MatrixCurve.exponential(A, k), MatrixCurve.exponential(B, l)
        X, Y = phi.derivative(k), psi.derivative(l)
        x, y = np.max(np.abs(X)), np.max(np.abs(Y))
        assert _defect(sum_curve(phi, psi).derivative(math.lcm(k, l)), X + Y, max(x, y)) < 1e-12
        assert _defect(scale_curve(phi, lam).derivative(k), lam * X, abs(lam) * x or 1.0) < 1e-12
        family = CommutatorFamily(phi, psi)
        bracket = Y @ X - X @ Y
        assert _defect(family.mixed_derivative(), bracket, x * y) < 1e-12
        if np.max(np.abs(bracket)) > 1e-3:
            record = order_of_contact(family.diagonal())
            factor = math.comb(k + l, k)
            assert record.order == k + l
            assert _defect(record.direction, factor * bracket, factor * x * y) < 1e-12

    # 1-norms below theta_7 = 0.95, where the degree-7 Pade approximant runs
    # unscaled, and above it, where the exponential scales and squares
    _BAND_NORMS = (1e-8, 1e-2, 0.2, 0.9, 2.0, 5.0, 40.0)

    def _with_norm(M, norm):
        return M * (norm / np.abs(M).sum(axis=0).max())

    @st.composite
    def _exponents(draw):
        """An n x n matrix (n in 1..4) of 1-norm drawn log-uniformly from 1e-8
        to EXP_NORM_BOUND, with (s, t) in [-1, 1]^2."""
        n = draw(st.integers(1, 4))
        M = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
        assume(np.abs(M).sum(axis=0).max() > 1e-3)
        norm = 10.0 ** draw(st.floats(-8.0, math.log10(EXP_NORM_BOUND)))
        s, t = (draw(st.floats(-1.0, 1.0)) for _ in range(2))
        return _with_norm(M, norm), s, t

    def _band_examples(test):
        M = np.array([[0.3, -1.0, 0.2], [0.5, 0.1, -0.7], [0.0, 0.9, -0.4]])
        for norm in _BAND_NORMS:
            test = example((_with_norm(M, norm), 0.6, -0.35))(test)
        return test

    @settings(max_examples=300)
    @_band_examples
    @given(_exponents())
    def test_exponential_matches_scipy_and_the_group_law(draw):
        # the package's scaling and squaring against scipy's expm, its
        # independent route; each bound is at least 3.2 times the worst of
        # 60,000 seeded draws like these (6.3e-12 against scipy, 6.5e-14 for
        # the group law, 2.9e-14 for the determinant), all at 1-norms of 34
        # to 49
        X, s, t = draw
        curve = MatrixCurve.exponential(X)
        E = curve.value(1.0)
        reference = expm(X)
        assert np.max(np.abs(E - reference)) / max(1.0, np.max(np.abs(reference))) < 2e-11
        # exp(sX) exp(tX) = exp((s + t)X), against the rounding of the product
        Es, Et = curve.value(s), curve.value(t)
        scale = max(1.0, np.max(np.abs(Es)) * np.max(np.abs(Et)))
        assert np.max(np.abs(Es @ Et - curve.value(s + t))) / scale < 1e-12
        # det exp(X) = e^{tr X}, against Hadamard's bound on the determinant
        hadamard = np.prod(np.linalg.norm(E, axis=0))
        assert abs(np.linalg.det(E) - math.exp(np.trace(X))) / hadamard < 1e-12
