"""Holonomy of a spherical rectangle measured against the area form.

Transports indicatrix samples around the rectangle theta in [pi/3, pi/2],
phi in [0, 1] on the round sphere.  Every sample comes back rotated by the
same angle, and that angle equals the enclosed area
(phi2 - phi1)(cos theta1 - cos theta2) = 0.5.
"""

import numpy as np

from holonomylab.finsler import catalog_norm, indicatrix_samples
from holonomylab.transport import LoopSpec, holonomy_map, parallel_transport


def main():
    sphere = catalog_norm("sphere")
    t1, t2 = np.pi / 3.0, np.pi / 2.0
    loop = LoopSpec.rectangle([t1, 0.0], [t2, 1.0])
    p = loop.start

    samples = indicatrix_samples(sphere, p, 6)
    out = holonomy_map(sphere, loop, samples)

    print("transport around the rectangle theta in [pi/3, pi/2], phi in [0, 1]")
    print(f"base point p = ({p[0]:.6f}, {p[1]:.6f})")
    drift = np.max(np.abs(sphere.value(p, out) - 1.0))
    print(f"max indicatrix drift after the loop: {drift:.2e}")

    # angles are read in the orthonormal frame (d_theta, sin(theta) d_phi)
    sin_t = np.sin(p[0])
    before = np.arctan2(samples[1] * sin_t, samples[0])
    after = np.arctan2(out[1] * sin_t, out[0])
    shifts = np.unwrap(after - before)
    print()
    print("per-sample rotation angles:")
    for i, s in enumerate(shifts):
        print(f"  sample {i}: {s:.12f}")
    oracle = (np.cos(t1) - np.cos(t2)) * 1.0
    print(f"mean rotation          {np.mean(shifts):.12f}")
    print(f"enclosed area (oracle) {oracle:.12f}")

    print()
    print("norm preservation and homogeneity, batched around the same loop:")
    y0 = samples[:, 0]
    batch = np.stack([y0, 2.0 * y0, 10.0 * y0], axis=1)
    res = parallel_transport(sphere, loop, batch)
    f_end = sphere.value(res.x_end, res.y_end)
    print(f"  F of transported batch: {np.array2string(f_end, precision=12)}")
    print("  the scaled copies stay scaled: transport is positively homogeneous")


if __name__ == "__main__":
    main()
