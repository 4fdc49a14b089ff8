"""Median cost per call of the request kernels, on one BLAS thread.

    PYTHONPATH=src python tools/round_costs.py

Prints the median microseconds per call, over `REPEATS` timed runs of about
`RUN_S` seconds each, of: `connection_values` on each catalog norm at 1, 6
and 12 y-columns at one x; `SmoothMap.value` of a constant base field at one
point; one `integrate` step (11 requests in 8 rounds) of that field;
`MatrixCurve.exponential(X).value(t)`, one matrix exponential, at each size in
`EXP_SIZES`, at t = 0.7 and at t = 0, where it exponentiates the zero matrix,
the most frequent call of a grouplab run; and `JetSpace.multiply` on product
shapes the workloads reach, by each fold.
"""

import os

if __name__ == "__main__":  # before numpy loads
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from holonomylab import curvature, finsler, grouplab, jets, transport  # noqa: E402

REPEATS = 15
RUN_S = 0.02
COLUMNS = (1, 6, 12)
# matrix sizes of the grouplab exponential rows
EXP_SIZES = (2, 3)
# (groups, total, columns) of jet products the workloads reach
FOLD_SHAPES = (
    (((2, 3), (2, 6)), 8, 1), (((2, 2), (2, 4)), 5, 12), (((2, 4), (2, 8)), 11, 1),
    (((2, 1), (2, 3)), 3, 44), (((2, 1), (2, 3)), 3, 80), (((2, 3), (2, 6)), 8, 20),
    (((2, 2), (2, 4)), None, 80),
)
# the value of `jets._BINCOUNT_MAX_ELEMENTS` that sends every product to a fold
FOLDS = (("bincount", 2**62), ("layered", 0))


def calls_per_run(seconds_per_call: float, run_s: float = RUN_S) -> int:
    """How many calls one timed run makes: about `run_s` seconds' worth, at least one."""
    return max(1, int(run_s / max(seconds_per_call, 1e-9)))


def median_us(fn, repeats: int = REPEATS, clock=time.perf_counter) -> float:
    """The median over `repeats` timed runs of fn's microseconds per call,
    after one call that builds whatever fn caches."""
    fn()
    start = clock()
    fn()
    number = calls_per_run(clock() - start)
    runs = []
    for _ in range(repeats):
        start = clock()
        for _ in range(number):
            fn()
        runs.append((clock() - start) / number)
    return 1e6 * statistics.median(runs)


def fold_label(space, columns: int, fold: str) -> str:
    """A multiply row's name: entries, pairs, columns, layers and the fold."""
    ii, _, kk = space._mul_table()
    layers = int(np.bincount(kk).max())
    return f"multiply {space.size} entries {len(ii)} pairs x{columns} {layers} layers {fold}"


def rows():
    """(name, zero-argument call) of every row, in print order."""
    for name in finsler.catalog_names():
        norm = finsler.catalog_norm(name)
        x = 0.5 * (np.asarray(norm.manifold.lo) + np.asarray(norm.manifold.hi)) + 0.1
        for c in COLUMNS:
            ang = 0.3 + 2.0 * np.pi * np.arange(c) / c
            y = np.stack([np.cos(ang), np.sin(ang)])
            yield f"connection_values {name} x{c}", lambda n=norm, x=x, y=y: finsler.connection_values(n, x, y)
    field = curvature.constant_base_field(finsler.catalog_norm("sphere").manifold, [0.3, -0.7])
    p = np.array([1.2, 0.4])
    yield "SmoothMap.value one point", lambda: field.value(p)
    yield "integrate one step", lambda: transport.integrate(lambda t, x: field.value(x), 0.0, 0.01, p)
    for n in EXP_SIZES:
        curve = grouplab.MatrixCurve.exponential(np.random.default_rng(n).standard_normal((n, n)))
        yield f"MatrixCurve.exponential value n={n}", lambda c=curve: c.value(0.7)
        yield f"MatrixCurve.exponential value n={n} at t=0", lambda c=curve: c.value(0.0)
    rng = np.random.default_rng(0)
    for groups, total, columns in FOLD_SHAPES:
        space = jets.grouped_space(groups, total)
        a, b = rng.standard_normal((2, space.size, columns))
        a, b = (a[:, 0], b[:, 0]) if columns == 1 else (a, b)
        for fold, limit in FOLDS:
            yield fold_label(space, columns, fold), lambda s=space, a=a, b=b, m=limit: _folded(s, a, b, m)


def _folded(space, a, b, limit):
    """space.multiply(a, b) with `jets._BINCOUNT_MAX_ELEMENTS` set to `limit`."""
    saved, jets._BINCOUNT_MAX_ELEMENTS = jets._BINCOUNT_MAX_ELEMENTS, limit
    try:
        return space.multiply(a, b)
    finally:
        jets._BINCOUNT_MAX_ELEMENTS = saved


if __name__ == "__main__":
    for name, fn in rows():
        print(f"{name:<62} {median_us(fn):9.1f} us")
