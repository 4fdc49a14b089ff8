"""Matrix-group laboratory for tangency orders of curves through the identity.

Subsets of a matrix group that are not subgroups in the smooth sense can
still be probed through the curves they contain.  A curve through the
identity has a contact order: the smallest k whose k-th derivative at t = 0
does not vanish.  That derivative is the curve's direction.  The
constructions here combine curves so that the directions combine linearly
(sums, scalings) or by matrix commutators, which is what makes the set of
directions a Lie algebra even when the underlying set of matrices is wild.

Conventions, pinned once and checked by the fixture oracle in the tests:

* a curve direction of order k is the plain k-th derivative at 0 (so
  exp(t^2 X) has order 2 and direction 2 X);
* the commutator family is c(t, s) = psi_s phi_t psi_s^{-1} phi_t^{-1},
  ordered so that its mixed (k, l) derivative at the origin equals the
  matrix commutator Y X - X Y of the two directions.  The reversed product
  phi^{-1} psi^{-1} phi psi flips the sign;
* the diagonal t -> c(t, t) has contact order k + l and its direction is
  binomial(k + l, k) times the mixed derivative.

Everything is evaluated on truncated Taylor jets, so derivatives of the
constructed curves are exact at the truncation order; finite differences
serve only as the independent cross-check.  A matrix of jets is one Jet of
value shape (n, n), so a product runs whole matrices through each jet
operation, and an inverse is one `jets.solve` against the identity.

The matrix exponential is the module's own `_expm`, Higham's scaling and
squaring with the one Pade approximant of degree 7, so the package needs no
scipy; the tests keep scipy's `expm` as the independent side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .jets import Jet, JetDomainError, grouped_space, jet_space, richardson_extrapolate, solve

IDENTITY_TOL = 1e-12
CONTACT_TOL = 1e-9
EXP_NORM_BOUND = 50.0
# one-sided difference steps in s = h^{1/k}, halving: h_i = s_i^k
WEAK_SCHEDULE = tuple(0.5 * 0.5**i for i in range(8))


# theta_7, the largest 1-norm at which the degree-7 Pade approximant to exp meets
# double precision (N. J. Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table
# 2.3), and the approximant's numerator coefficients b_0..b_7, scaled to integers
_THETA = 9.504178996162932e-1
_PADE = (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring (Higham 2005) with one Pade degree, 7.

    A 1-norm above theta_7 is scaled by 2^-s into range and the approximant
    squared s times (s = 6 at a 1-norm of 50).  With U and V the odd and even
    parts of the numerator, the approximant is (V - U)^-1 (V + U).
    """
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError(f"matrix exponential needs a finite matrix, got 1-norm {norm}")
    if norm == 0.0:  # every exponential curve's jet at t = 0
        return np.eye(A.shape[0])
    squarings = 0 if norm <= _THETA else math.ceil(math.log2(norm / _THETA))
    A = A / 2.0**squarings
    A2 = A @ A
    even = [np.eye(A.shape[0]), A2, A2 @ A2]
    even.append(even[2] @ A2)  # I, A^2, A^4, A^6
    U = A @ sum(c * P for c, P in zip(_PADE[1::2], even))
    V = sum(c * P for c, P in zip(_PADE[0::2], even))
    E = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        E = E @ E
    return E


def _square(X, n: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"square matrix required, got shape {X.shape}")
    if n is not None and X.shape[0] != n:
        raise ValueError(f"size {n} matrix required, got {X.shape[0]}")
    return X


def _mat_mul(A: Jet, B: Jet) -> Jet:
    """Matrix product: one jet multiply over every (i, k, j), then the sum over k.

    The sum runs k = 0, 1, ... in order so that each entry rounds exactly as
    the scalar expansion A_i0 B_0j + A_i1 B_1j + ... does.
    """
    return (A.at(np.s_[:, :, None]) * B.at(None)).sum(axis=1)


def _mat_inv(M: Jet) -> Jet:
    """The inverse of a matrix jet: `solve` against the identity's columns."""
    try:
        return solve(M.at(np.s_[:, :, None]), Jet.constant(M.space, np.eye(M.shape[0])))
    except JetDomainError:
        raise ValueError("matrix curve is singular at the expansion point") from None


class MatrixCurve:
    """A jet-evaluable curve of invertible matrices through the identity.

    The evaluator maps a scalar jet t to the matrix jet of the curve: one
    Jet in the same space of value shape (n, n).  The constructor checks
    that the value at t = 0 is the identity within IDENTITY_TOL.  `order`,
    when set, declares the contact order the construction guarantees; it is
    a trusted hint, and order_of_contact measures the truth.
    """

    def __init__(self, n: int, evaluator, name: str = "curve", order: int | None = None):
        self.n = int(n)
        self._evaluator = evaluator
        self.name = str(name)
        self.order = None if order is None else int(order)
        at_zero = self.value(0.0)
        gap = float(np.max(np.abs(at_zero - np.eye(self.n))))
        if gap > IDENTITY_TOL:
            raise ValueError(f"curve misses the identity at t = 0 by {gap:.3g}")

    def __repr__(self) -> str:
        return f"MatrixCurve({self.name!r}, n={self.n}, order={self.order})"

    # -- evaluation ----------------------------------------------------------

    def jets(self, t, order: int | None = None) -> Jet:
        """The matrix jet, of value shape (n, n), at center t (a float, or an
        already seeded jet)."""
        if not isinstance(t, Jet):
            if order is None:
                raise ValueError("order required when seeding from a float center")
            t = Jet.variable(jet_space(1, int(order)), 0, float(t))
        return self._evaluator(t)

    def value(self, t: float) -> np.ndarray:
        return self.jets(float(t), 0).value

    def derivative(self, k: int) -> np.ndarray:
        """k-th derivative of the curve at t = 0."""
        return self.derivatives(int(k))[-1]

    def derivatives(self, max_order: int) -> list[np.ndarray]:
        """Derivatives 0..max_order at t = 0 from one jet evaluation."""
        M = self.jets(0.0, int(max_order))
        return [M.derivative(m) for m in range(int(max_order) + 1)]

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def exponential(X, power: int = 1) -> "MatrixCurve":
        """The curve t -> exp(t**power X).

        Contact order is `power` with direction power! X.  The jet of the
        exponential splits as expm(s0 X) exp(h X) with h the nilpotent part
        of s = t**power, so the series in h terminates at the truncation
        order and the evaluation is exact.
        """
        X = _square(X)
        n = X.shape[0]
        if not isinstance(power, numbers.Integral) or power < 1:
            raise ValueError("power must be a positive integer")
        power = int(power)

        def evaluator(tj: Jet):
            s = tj**power
            s0 = float(np.asarray(s.value))
            h = s - s0
            E = _expm(s0 * X)
            M = Jet.constant(s.space, E)
            term = E
            hm = None
            for m in range(1, s.space.max_total + 1):
                term = term @ X / m
                hm = h if m == 1 else hm * h
                M = M + hm * term
            return M

        label = f"exp(t^{power}X)" if power != 1 else "exp(tX)"
        order = power if np.any(X) else None
        return MatrixCurve(n, evaluator, name=label, order=order)

    @staticmethod
    def polynomial(n: int, terms: dict, name: str | None = None) -> "MatrixCurve":
        """The curve t -> I + sum over m of t**m C_m, for terms {m: C_m}, m >= 1."""
        clean = {}
        for m, C in terms.items():
            m = int(m)
            if m < 1:
                raise ValueError("polynomial terms start at power 1")
            C = _square(C, n)
            if np.any(C):
                clean[m] = C

        def evaluator(tj: Jet):
            M = Jet.constant(tj.space, np.eye(n))
            for m in sorted(clean):
                M = M + tj**m * clean[m]
            return M

        order = min(clean) if clean else None
        return MatrixCurve(n, evaluator, name=name or "poly", order=order)

    # -- algebra on curves -----------------------------------------------------

    def inverse(self) -> "MatrixCurve":
        """Pointwise inverse; contact order is kept, the direction negates."""
        return MatrixCurve(
            self.n,
            lambda tj: _mat_inv(self._evaluator(tj)),
            name=f"inv({self.name})",
            order=self.order,
        )

    def reparametrize(self, g, name: str | None = None, order: int | None = None) -> "MatrixCurve":
        """The curve t -> phi(g(t)) for a jet-evaluable g with g(0) = 0."""
        return MatrixCurve(
            self.n,
            lambda tj: self._evaluator(g(tj)),
            name=name or f"reparam({self.name})",
            order=order,
        )


@dataclass(frozen=True)
class TangentRecord:
    """Outcome of a contact-order measurement at t = 0.

    `order` is None when no derivative up to max_order rises above tol
    (CONTACT_TOL); the residuals collect the magnitudes of the derivatives
    below the contact order (all under tol by construction).
    """

    order: int | None
    direction: np.ndarray | None
    residuals: tuple
    max_order: int
    tol: float


def order_of_contact(curve: MatrixCurve, max_order: int = 6) -> TangentRecord:
    """Smallest k <= max_order whose k-th derivative at 0 is above CONTACT_TOL."""
    ders = curve.derivatives(int(max_order))
    residuals = []
    for m in range(1, int(max_order) + 1):
        mag = float(np.max(np.abs(ders[m])))
        if mag > CONTACT_TOL:
            return TangentRecord(m, ders[m], tuple(residuals), int(max_order), CONTACT_TOL)
        residuals.append(mag)
    return TangentRecord(None, None, tuple(residuals), int(max_order), CONTACT_TOL)


def _tangent_order(curve: MatrixCurve) -> int:
    if curve.order is not None:
        return int(curve.order)
    record = order_of_contact(curve)
    if record.order is None:
        raise ValueError(f"curve {curve.name!r} shows no contact up to order {record.max_order}")
    return record.order


class CommutatorFamily:
    """Two-parameter commutator family c(t, s) = psi_s phi_t psi_s^{-1} phi_t^{-1}.

    The operand order is the one pinned by the fixtures: for phi of contact
    order k with direction X and psi of order l with direction Y, the mixed
    (k, l) derivative at the origin is Y X - X Y.  Swapping the arguments
    flips the sign.
    """

    def __init__(self, phi: MatrixCurve, psi: MatrixCurve):
        if phi.n != psi.n:
            raise ValueError("matrix sizes differ")
        self.phi = phi
        self.psi = psi
        self.n = phi.n
        self.name = f"comm({phi.name},{psi.name})"

    def jets(self, t: Jet, s: Jet) -> Jet:
        """The matrix jet c(t, s), of value shape (n, n), for t and s seeded
        in one space."""
        F = self.phi._evaluator(t)
        P = self.psi._evaluator(s)
        # P F P^-1 F^-1 = (P F)(F P)^-1, one inverse
        return _mat_mul(_mat_mul(P, F), _mat_inv(_mat_mul(F, P)))

    def mixed_derivative(self) -> np.ndarray:
        """The d^{k+l} c / dt^k ds^l derivative at the origin, for the contact
        orders k of phi and l of psi."""
        k, l = _tangent_order(self.phi), _tangent_order(self.psi)
        space = grouped_space(((1, k), (1, l)))
        M = self.jets(Jet.variable(space, 0, 0.0), Jet.variable(space, 1, 0.0))
        return M.derivative((k, l))

    def diagonal(self) -> MatrixCurve:
        """The curve t -> c(t, t); contact order k + l when the bracket is nonzero."""
        return MatrixCurve(
            self.n,
            lambda tj: self.jets(tj, tj),
            name=f"diag({self.name})",
        )


def diagonal_bracket_factor(k: int, l: int) -> int:
    """Ratio of the diagonal's (k+l)-th derivative to the mixed (k, l) one.

    Pinned by the jet oracle in the fixtures; it is the binomial coefficient
    coming from collecting t^k s^l onto the diagonal t = s.
    """
    return math.comb(int(k) + int(l), int(k))


def sum_curve(phi: MatrixCurve, psi: MatrixCurve, constants: str = "exact") -> MatrixCurve:
    """A curve of order r = lcm(k, l) whose direction adds the two directions.

    Runs t -> phi(c1 t^{r/k}) psi(c2 t^{r/l}).  With the "exact" constants
    c1 = (k!/r!)^{1/k} and c2 = (l!/r!)^{1/l} the r-th derivative is exactly
    X + Y.  The alternate constants c1 = (m1^k (r-k)!)^{-1/r} and
    c2 = (m2^l (r-l)!)^{-1/r} are kept selectable for comparison; they agree
    for k = l but rescale the direction otherwise.
    """
    if phi.n != psi.n:
        raise ValueError("matrix sizes differ")
    k = _tangent_order(phi)
    l = _tangent_order(psi)
    r = math.lcm(k, l)
    m1 = r // k
    m2 = r // l
    if constants == "exact":
        c1 = (math.factorial(k) / math.factorial(r)) ** (1.0 / k)
        c2 = (math.factorial(l) / math.factorial(r)) ** (1.0 / l)
    elif constants == "alternate":
        c1 = (m1**k * math.factorial(r - k)) ** (-1.0 / r)
        c2 = (m2**l * math.factorial(r - l)) ** (-1.0 / r)
    else:
        raise ValueError("constants must be 'exact' or 'alternate'")

    def evaluator(tj: Jet):
        return _mat_mul(phi._evaluator(tj**m1 * c1), psi._evaluator(tj**m2 * c2))

    return MatrixCurve(
        phi.n,
        evaluator,
        name=f"sum({phi.name},{psi.name})",
        order=r,
    )


def scale_curve(phi: MatrixCurve, lam: float) -> MatrixCurve:
    """A curve of the same order whose direction is lam times phi's.

    Positive lam reparametrizes by lam^{1/k} t; negative lam does the same to
    the inverse curve (whose direction is -X); lam = 0 is the constant
    identity.
    """
    lam = float(lam)
    k = _tangent_order(phi)
    if lam == 0.0:
        return MatrixCurve.polynomial(phi.n, {}, name=f"scale({phi.name},0)")
    base = phi if lam > 0.0 else phi.inverse()
    a = abs(lam) ** (1.0 / k)
    return base.reparametrize(
        lambda tj: tj * a,
        name=f"scale({phi.name},{lam:g})",
        order=k,
    )


@dataclass(frozen=True)
class IterationResult:
    """n-fold composition psi(t/n)^n next to its matrix-exponential target."""

    matrix: np.ndarray
    reference: np.ndarray
    distance: float
    steps: int


def exp_iterate(psi: MatrixCurve, t: float, n: int) -> IterationResult:
    """Approximate exp(t X) by psi(t/n)^n for a first-order curve psi.

    The distance to expm(t X) decays like 1/n.  Arguments with |t X| above
    EXP_NORM_BOUND are rejected: the target itself overflows well before the
    iteration becomes meaningful.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError("n must be a positive integer")
    if _tangent_order(psi) != 1:
        raise ValueError("exp_iterate needs a curve of contact order 1")
    X = psi.derivative(1)
    t = float(t)
    scale = float(np.linalg.norm(t * X, 2))
    if scale > EXP_NORM_BOUND:
        raise ValueError(f"|t X| = {scale:.3g} exceeds the overflow bound {EXP_NORM_BOUND:g}")
    A = psi.value(t / int(n))
    M = np.linalg.matrix_power(A, int(n))
    R = _expm(t * X)
    return IterationResult(M, R, float(np.max(np.abs(M - R))), int(n))


def weak_tangency_reparam(phi: MatrixCurve, reading: str = "exact") -> MatrixCurve:
    """Reparametrize an order-k curve to first-order contact, one-sidedly.

    The "exact" reading sigma_t = phi((k! t)^{1/k}) has one-sided derivative
    X at 0+; the alternate reading phi(k! t^{1/k}) is kept selectable and
    scales the derivative by (k!)^{k-1}.  Jets exist only at t > 0 (the
    fractional power is singular at 0), so sigma is weakly tangent: measure
    it with one_sided_derivative.
    """
    if reading not in ("exact", "alternate"):
        raise ValueError("reading must be 'exact' or 'alternate'")
    k = _tangent_order(phi)
    kf = float(math.factorial(k))
    p = 1.0 / k
    n = phi.n

    def evaluator(tj: Jet):
        val = np.asarray(tj.value, dtype=float)
        if tj.space.max_total == 0 and np.all(val == 0.0):
            return Jet.constant(tj.space, np.eye(n))
        if np.any(val <= 0.0):
            raise JetDomainError("weak tangent curves are one-sided; evaluate at t > 0")
        u = (tj * kf) ** p if reading == "exact" else (tj**p) * kf
        return phi._evaluator(u)

    return MatrixCurve(n, evaluator, name=f"weak({phi.name})")


def one_sided_derivative(curve: MatrixCurve, k: int):
    """First derivative at 0+ for a curve whose error expands in h^{1/k}.

    One-sided first differences of the matrix entries are extrapolated by
    the Neville table in the fractional power; k is the contact order of the
    curve the weak reparametrization started from.  The steps h = s^k run
    over WEAK_SCHEDULE, which halves s = h^{1/k}, the variable the error
    expands in.  Returns (derivative, residual of the last correction).
    """
    schedule = tuple(s ** int(k) for s in WEAK_SCHEDULE)
    eye = np.eye(curve.n)
    estimates = [(curve.value(h) - eye) / h for h in schedule]
    return richardson_extrapolate(estimates, schedule, power=1.0 / int(k))
