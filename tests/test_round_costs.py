"""The pure parts of `tools/round_costs.py`: how many calls a timed run
makes, the median per call, the multiply rows' names and the forced folds."""

import importlib.util
from pathlib import Path

import numpy as np

from holonomylab import jets

TOOL = Path(__file__).resolve().parents[1] / "tools" / "round_costs.py"
_spec = importlib.util.spec_from_file_location("round_costs", TOOL)
round_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(round_costs)


def test_a_run_lasts_about_its_budget_and_makes_at_least_one_call():
    assert round_costs.calls_per_run(1e-3, 0.02) == 20
    assert round_costs.calls_per_run(0.5, 0.02) == 1
    assert round_costs.calls_per_run(0.0, 0.02) > 10**6


def test_median_us_is_the_median_run_per_call():
    # calls of 1 ms on a clock that only fn moves: one warm-up call, one to
    # size the runs (20 calls each), and five runs, the third one 5 ms a call
    steps = iter([1e-3] * 42 + [5e-3] * 20 + [1e-3] * 40)
    now = [0.0]

    def fn():
        now[0] += next(steps)

    assert abs(round_costs.median_us(fn, repeats=5, clock=lambda: now[0]) - 1000.0) < 1e-6
    assert next(steps, None) is None


def test_rows_are_named_once_and_force_each_fold():
    names = [name for name, _ in round_costs.rows()]
    assert len(names) == len(set(names)) == 4 * 3 + 2 + 2 * len(round_costs.FOLD_SHAPES)
    space = jets.grouped_space(((2, 3), (2, 6)), 8)
    assert round_costs.fold_label(space, 1, "layered") == (
        "multiply 252 entries 5670 pairs x1 72 layers layered"
    )
    a, b = np.random.default_rng(0).standard_normal((2, space.size, 3))
    folds = [round_costs._folded(space, a, b, limit) for _, limit in round_costs.FOLDS]
    assert folds[0].tobytes() == folds[1].tobytes() == space.multiply(a, b).tobytes()
    assert jets._BINCOUNT_MAX_ELEMENTS == 4096
