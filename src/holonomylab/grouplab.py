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
value shape (n, n), so products and inverses run whole rows or whole
matrices through each jet operation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .jets import Jet, JetDomainError, grouped_space, jet_space, richardson_extrapolate

IDENTITY_TOL = 1e-12
CONTACT_TOL = 1e-9
PIVOT_TOL = 1e-12
EXP_NORM_BOUND = 50.0
# one-sided difference steps in s = h^{1/k}, halving: h_i = s_i^k
WEAK_SCHEDULE = tuple(0.5 * 0.5**i for i in range(8))


def _square(X, n: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"square matrix required, got shape {X.shape}")
    if n is not None and X.shape[0] != n:
        raise ValueError(f"size {n} matrix required, got {X.shape[0]}")
    return X


def _plus_scaled(M: Jet, c: Jet, C: np.ndarray) -> Jet:
    """M + c C for a scalar jet c and a constant matrix C.

    Entries where C vanishes keep their bits: adding c * 0 would turn a
    -0.0 coefficient into +0.0.
    """
    rows, cols = np.nonzero(C)
    coeffs = M.coeffs.copy()
    coeffs[:, rows, cols] += c.coeffs[:, None] * C[rows, cols]
    return Jet(M.space, coeffs)


def _mat_mul(A: Jet, B: Jet) -> Jet:
    """Matrix product: one jet multiply over every (i, k, j), then the sum over k.

    The sum runs k = 0, 1, ... in order so that each entry rounds exactly as
    the scalar expansion A_i0 B_0j + A_i1 B_1j + ... does.
    """
    return (A.at(np.s_[:, :, None]) * B.at(None)).sum(axis=1)


def _mat_inv(M: Jet) -> Jet:
    """Invert a matrix jet by Gauss-Jordan elimination on its row jets.

    Pivots are chosen by the magnitude of the value part; a pivot below
    PIVOT_TOL means the curve left the invertible matrices at the expansion
    point.
    """
    n = M.shape[0]
    A = M.unstack()
    B = Jet.constant(M.space, np.eye(n)).unstack()
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(float(A[r].value[col])))
        if abs(float(A[piv].value[col])) < PIVOT_TOL:
            raise ValueError("matrix curve is singular at the expansion point")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            B[col], B[piv] = B[piv], B[col]
        inv = 1.0 / A[col].at(col)
        A[col] = A[col] * inv
        B[col] = B[col] * inv
        for r in range(n):
            if r == col:
                continue
            f = A[r].at(col)
            if not np.any(f.coeffs):
                continue
            A[r] = A[r] - f * A[col]
            B[r] = B[r] - f * B[col]
    return Jet.stack(B)


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
    def exponential(X, power: int = 1, name: str | None = None) -> "MatrixCurve":
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
            E = expm(s0 * X)
            M = Jet.constant(s.space, E)
            term = E
            hm = None
            for m in range(1, s.space.max_total + 1):
                term = term @ X / m
                hm = h if m == 1 else hm * h
                M = _plus_scaled(M, hm, term)
            return M

        label = name if name is not None else (f"exp(t^{power}X)" if power != 1 else "exp(tX)")
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
                M = _plus_scaled(M, tj**m, clean[m])
            return M

        order = min(clean) if clean else None
        return MatrixCurve(n, evaluator, name=name or "poly", order=order)

    # -- algebra on curves -----------------------------------------------------

    def multiply(self, other: "MatrixCurve", name: str | None = None) -> "MatrixCurve":
        """Pointwise product t -> phi(t) psi(t)."""
        if other.n != self.n:
            raise ValueError("matrix sizes differ")
        return MatrixCurve(
            self.n,
            lambda tj: _mat_mul(self._evaluator(tj), other._evaluator(tj)),
            name=name or f"{self.name}*{other.name}",
        )

    def inverse(self, name: str | None = None) -> "MatrixCurve":
        """Pointwise inverse; contact order is kept, the direction negates."""
        return MatrixCurve(
            self.n,
            lambda tj: _mat_inv(self._evaluator(tj)),
            name=name or f"inv({self.name})",
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


def _tangent_order(curve: MatrixCurve, max_order: int = 6) -> int:
    if curve.order is not None:
        return int(curve.order)
    record = order_of_contact(curve, max_order)
    if record.order is None:
        raise ValueError(f"curve {curve.name!r} shows no contact up to order {max_order}")
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

    def _matrix(self, t: Jet, s: Jet) -> Jet:
        F = self.phi._evaluator(t)
        P = self.psi._evaluator(s)
        return _mat_mul(_mat_mul(P, F), _mat_mul(_mat_inv(P), _mat_inv(F)))

    def jets(self, t: Jet, s: Jet) -> Jet:
        """The matrix jet c(t, s), of value shape (n, n)."""
        if t.space is not s.space:
            raise ValueError("t and s must be seeded in one two-parameter space")
        return self._matrix(t, s)

    def value(self, t: float, s: float) -> np.ndarray:
        space = jet_space(2, 0)
        M = self._matrix(Jet.constant(space, float(t)), Jet.constant(space, float(s)))
        return M.value

    def mixed_derivative(self) -> np.ndarray:
        """The d^{k+l} c / dt^k ds^l derivative at the origin, for the contact
        orders k of phi and l of psi."""
        k, l = _tangent_order(self.phi), _tangent_order(self.psi)
        space = grouped_space(((1, k), (1, l)))
        M = self._matrix(Jet.variable(space, 0, 0.0), Jet.variable(space, 1, 0.0))
        return M.derivative((k, l))

    def diagonal(self, name: str | None = None) -> MatrixCurve:
        """The curve t -> c(t, t); contact order k + l when the bracket is nonzero."""
        return MatrixCurve(
            self.n,
            lambda tj: self._matrix(tj, tj),
            name=name or f"diag({self.name})",
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
    R = expm(t * X)
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
