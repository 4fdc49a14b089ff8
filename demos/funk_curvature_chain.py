"""Curvature vector fields and the rank chain on the Funk disk.

Builds the curvature field R(X, Y) at a base point, cross-checks it against
the second derivative of the parallelogram transport family, and then runs
the bracket/covariant-derivative closure to compare the curvature algebra
rank with the infinitesimal-holonomy rank.
"""

import numpy as np

from holonomylab.curvature import constant_base_field, curvature_field
from holonomylab.finsler import catalog_norm, indicatrix_samples
from holonomylab.liealg import inclusion_chain_report
from holonomylab.transport import parallelogram_derivatives


def main():
    funk = catalog_norm("funk_disk")
    p = np.array([0.3, 0.0])
    X = constant_base_field(funk.manifold, [1.0, 0.0], "X")
    Y = constant_base_field(funk.manifold, [0.0, 1.0], "Y")

    print(f"Funk disk, base point p = {p}")
    v = indicatrix_samples(funk, p, 1, offset=0.4)[:, 0]
    xi = curvature_field(funk, X, Y, p)
    print(f"unit vector v = ({v[0]:.6f}, {v[1]:.6f})")
    print(f"curvature field value xi(v) = {np.array2string(xi.values(v), precision=8)}")
    print(f"tangency to the indicatrix: residual {xi.tangency_residual(v):.1e}")

    (d1, _), (d2, e2) = parallelogram_derivatives(funk, X, Y, p, v)
    print()
    print("parallelogram transport family h_t(v), derivatives at t = 0:")
    print(f"  first derivative  {np.array2string(d1, precision=2)}  (vanishes)")
    print(f"  second derivative {np.array2string(d2, precision=8)}")
    print(f"  2 xi(v)           {np.array2string(2.0 * xi.values(v), precision=8)}")
    print(f"  extrapolation residual {e2:.1e}")

    print()
    print("inclusion chain: curvature algebra inside infinitesimal holonomy")
    rep = inclusion_chain_report(funk, p, depth=2)
    r_curv, r_ihol = rep.ranks
    print(f"  rank of curvature algebra span: {r_curv}")
    print(f"  rank after closure under bracket and Berwald derivative: {r_ihol}")
    print(f"  ambient bound at the sample count used: {rep.ambient_bound}")
    print("  the full holonomy group itself is " + rep.hol_note)


if __name__ == "__main__":
    main()
