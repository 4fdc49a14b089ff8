"""Tangent directions of curve constructions in matrix groups.

Walks the four constructions on concrete 2x2 and 3x3 curves: the group
commutator with its mixed derivative and diagonal contact order, the sum
curve with its reparametrization constants, scalar reparametrization, and
the iterated-exponential approximation with its first-order rate.
"""

import numpy as np

from holonomylab.grouplab import (
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


def show(title, matrix):
    print(f"  {title}:")
    for row in np.asarray(matrix):
        print("    [" + "  ".join(f"{v:+.6f}" for v in row) + "]")


def main():
    E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    E21 = np.array([[0.0, 0.0], [1.0, 0.0]])
    phi = MatrixCurve.exponential(E12)
    psi = MatrixCurve.exponential(E21)

    print("commutator of exp(t E12) and exp(s E21)")
    fam = CommutatorFamily(phi, psi)
    show("mixed (1,1) derivative, equals YX - XY", fam.mixed_derivative())
    rec = order_of_contact(fam.diagonal())
    factor = diagonal_bracket_factor(1, 1)
    print(f"  diagonal curve has contact order {rec.order}; its direction is")
    print(f"  binomial(2,1) = {factor} times the mixed derivative:")
    show("direction", rec.direction)

    print()
    print("sum curve for contact orders k=1, l=2 (direction X + Y at order lcm = 2)")
    X = np.array([[0.2, -0.4], [0.1, 0.3]])
    Y2 = np.array([[0.0, 0.5], [-0.6, 0.0]])
    c = sum_curve(MatrixCurve.exponential(X), MatrixCurve.exponential(Y2 / 2.0, power=2))
    rec = order_of_contact(c)
    print(f"  measured contact order: {rec.order}")
    show("measured direction", rec.direction)
    show("X + Y", X + Y2)

    print()
    print("scalar reparametrization: lambda = -2 turns direction X into -2X")
    rec = order_of_contact(scale_curve(MatrixCurve.exponential(X), -2.0))
    show("direction", rec.direction)

    print()
    print("iterated exponential psi(t/n)^n for psi = I + tX + t^2 M")
    M = np.array([[0.3, 0.1], [0.0, -0.2]])
    quad = MatrixCurve.polynomial(2, {1: X, 2: M})
    for n in (64, 128, 256):
        res = exp_iterate(quad, 1.0, n)
        print(f"  n = {n:4d}: distance to exp(tX) = {res.distance:.3e}")
    print("  the distance halves as n doubles: a first-order method")

    print()
    print("weak tangency: sigma_t = phi((k! t)^(1/k)) restores a first-order tangent")
    sigma = weak_tangency_reparam(MatrixCurve.exponential(X / 2.0, power=2))
    value, error = one_sided_derivative(sigma, 1)
    show("one-sided derivative (matches the order-2 direction X)", value)
    print(f"  extrapolation residual {error:.1e}")


if __name__ == "__main__":
    main()
