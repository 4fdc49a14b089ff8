"""The mutation registry: each entry breaks one route of the package on
purpose, and the tier-1 tests it names must then fail, so no test that checks
a route against another can pass on a broken route unnoticed.

    python -m pytest mutations

An entry is a source file under `src/holonomylab`, a snippet that occurs in
it exactly once, the snippet's replacement, and the ids of the tier-1 tests
that must fail, as the suite prints them.  For each entry the harness copies
`src/` into a temporary directory, applies the replacement there and runs the
named tests with `PYTHONPATH` set to the copy, from a temporary working
directory, so the repository gains no cache.  `test_every_snippet_occurs_once`
fails when a change to the package moves a snippet or renames a test: update
the entry with the change.  The registry is kept out of tier-1, which runs
`tests` only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holonomylab"


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str  # relative to src/holonomylab
    snippet: str
    replacement: str
    fails: tuple  # tier-1 test ids


_SOLVE = "tests/test_jets.py::test_solve_leaves_a_rounding_residual_and_matches_elimination"
_CURVATURE = "tests/test_curvature.py::test_constant_flag_curvature_fields_match_the_closed_form"

MUTATIONS = (
    Mutation(
        "bracket-operands-swapped",
        "jets.py",
        "(a.truncated(target) * gb - b.truncated(target) * ga)",
        "(b.truncated(target) * ga - a.truncated(target) * gb)",
        ("tests/test_liealg.py::test_circle_flow_commutator_is_minus_the_bracket",),
    ),
    Mutation(
        "domain-wall-slack-sign",
        "jets.py",
        "self._floors = [-1e-9 * np.maximum(",
        "self._floors = [1e-9 * np.maximum(",
        ("tests/test_finsler.py::test_domain_checks_keep_their_verdicts_at_the_walls",),
    ),
    Mutation(
        "pade-coefficient-off",
        "grouplab.py",
        "1995840, 277200",
        "1995841, 277200",
        ("tests/test_grouplab.py::test_exponential_matches_scipy_and_the_group_law",),
    ),
    Mutation(
        "one-squaring-short",
        "grouplab.py",
        "for _ in range(squarings):",
        "for _ in range(squarings - 1):",
        ("tests/test_grouplab.py::test_exponential_matches_scipy_and_the_group_law",),
    ),
    Mutation(
        "transport-connection-transposed",
        "transport.py",
        '"ijb,j->ib"',
        '"jib,j->ib"',
        ("tests/test_acceptance.py::test_transport_norm_and_homogeneity_contracts",),
    ),
    Mutation(
        "curvature-without-quadratic-terms",
        "curvature.py",
        "for l in range(n):",
        "for l in range(0):",
        tuple(
            f"{_CURVATURE}[{name}]"
            for name in ("sphere", "funk_disk", "fish_tank", "zermelo_sphere", "round_s3")
        ),
    ),
    Mutation(
        "commutator-operands-swapped",
        "grouplab.py",
        "_mat_mul(_mat_mul(P, F), _mat_inv(_mat_mul(F, P)))",
        "_mat_mul(_mat_mul(F, P), _mat_inv(_mat_mul(P, F)))",
        ("tests/test_grouplab.py::test_directions_obey_the_lie_algebra_laws",),
    ),
    Mutation(
        "sine-series-sign-cycle",
        "jets.py",
        "cycle = [s, co, -s, -co]",
        "cycle = [s, co, s, -co]",
        ("tests/test_jets.py::test_analytic_functions_match_richardson",),
    ),
    Mutation(
        "rk4-third-stage-weight",
        "transport.py",
        "2.0 * k[2]",
        "2.0 * k[1]",
        (
            "tests/test_transport.py::test_gauss_bonnet_rectangle",
            "tests/test_cli.py::test_sphere_holonomy_matches_gauss_bonnet",
        ),
    ),
    Mutation(
        "measured-order-one-high",
        "grouplab.py",
        "    return record.order\n",
        "    return record.order + 1\n",
        ("tests/test_grouplab.py::test_scale_curve_measures_an_undeclared_order",),
    ),
    Mutation(
        "bracket-without-radialization",
        "curvature.py",
        "    if xi.homogeneity == 1:\n        xi = xi.radialized()\n"
        "    if eta.homogeneity == 1:\n        eta = eta.radialized()\n",
        "",
        ("tests/test_curvature.py::test_bracket_radializes_degree_one_input",),
    ),
    Mutation(
        "solve-horner-one-step-short",
        "jets.py",
        "for _ in range(M.space.max_total):",
        "for _ in range(M.space.max_total - 1):",
        tuple(
            f"{_SOLVE}[{n}-{batch}-{space}]"
            for n in (2, 3)
            for batch in ("single", "batch")
            for space in ("one variable", "grouped", "total cut")
        ),
    ),
    Mutation(
        "integer-accepts-bools",
        "cli.py",
        '_TYPES["number"](v) and (isinstance(v, int) or v.is_integer())',
        "isinstance(v, int) or (isinstance(v, float) and v.is_integer())",
        ("tests/test_cli.py::test_config_checks_agree_with_jsonschema",),
    ),
    Mutation(
        "additional-properties-ignored",
        "cli.py",
        'extra = [name for name in instance if name not in schema.get("properties", {})]',
        "extra = []",
        ("tests/test_cli.py::test_config_checks_agree_with_jsonschema",),
    ),
    Mutation(
        "enum-ignored",
        "cli.py",
        'elif key == "enum" and instance not in rule:',
        'elif key == "enum" and False:',
        ("tests/test_cli.py::test_config_checks_agree_with_jsonschema",),
    ),
)


def _run(src: Path, ids, cwd: Path, *options) -> tuple[dict, list]:
    """pytest on the tier-1 tests `ids` with the package from `src`, run
    from `cwd`: ({id: the id as this run prints it}, the output's lines)."""
    env = dict(
        os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1"
    )
    shown = {}
    for i in ids:  # pytest prints each test's path relative to the working directory
        path, _, test = i.partition("::")
        shown[i] = f"{os.path.relpath(ROOT / path, cwd)}::{test}"
    argv = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *options]
    argv += [str(ROOT / i) for i in ids]
    out = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=600).stdout
    return shown, out.splitlines()


def test_every_snippet_occurs_once_and_every_named_test_exists(tmp_path):
    counts = {m.name: (PACKAGE / m.path).read_text(encoding="utf-8").count(m.snippet) for m in MUTATIONS}
    assert counts == {m.name: 1 for m in MUTATIONS}
    shown, lines = _run(ROOT / "src", {i for m in MUTATIONS for i in m.fails}, tmp_path, "--collect-only", "-q")
    # the listing may print ids relative to the repository instead
    assert sorted(i for i, s in shown.items() if {i, s}.isdisjoint(lines)) == []


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.name for m in MUTATIONS])
def test_mutation_fails_its_tests(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "holonomylab" / mutation.path
        text = target.read_text(encoding="utf-8")
        assert text.count(mutation.snippet) == 1
        target.write_text(text.replace(mutation.snippet, mutation.replacement), encoding="utf-8")
        work = Path(tmp) / "work"
        work.mkdir()
        shown, lines = _run(src, mutation.fails, work, "-q", "--tb=no", "-rfE")
    failed = {
        i for i, s in shown.items()
        for line in lines
        for status in ("FAILED", "ERROR")
        if line == f"{status} {s}" or line.startswith(f"{status} {s} - ")
    }
    assert sorted(set(mutation.fails) - failed) == []
