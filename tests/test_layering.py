"""Layering: holonomylab modules import each other at module level only, so
the import graph is the one a reader sees at the top of each file; the
accuracy of transport, of grouplab's measurements and of the Richardson
oracle is set by module constants alone, and catalog norms take no
parameters; command handlers return measurements that `run_config` alone
grades against the tolerance profile; results are plain dataclasses without
a verdict, that only the CLI turns into JSON or CSV; every public name and
public method serves the package or the demos, or is a listed piece of
public API; the independent routes that tests check the package against
live in `tests/oracles.py` and reach the package through exported names
only; and every library call returning several components
returns one Jet, which the package never stacks again; only `jets`
reads the index layout of a JetSpace, and only `jets` calls the product
kernel `JetSpace.multiply`, which other modules reach through
`JetSpace.product`; only the CLI imports `gc`, since the collector's
policy is process-wide; no module imports scipy, not even inside a
function, so no run loads it; and the third-party modules the package
imports are exactly its declared runtime dependencies."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import re
import runpy
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import holonomylab
from holonomylab import cli, curvature, finsler, grouplab, jets, liealg, transport
import oracles

PACKAGE = Path(holonomylab.__file__).parent
DEMOS = PACKAGE.parents[1] / "demos"
TESTS = Path(__file__).resolve().parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "holonomylab"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "holonomylab" for alias in node.names)
    return False


def test_no_function_local_package_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    misplaced = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, _SCOPES):
                misplaced.extend(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(scope)
                    if _is_package_import(node)
                )
    assert sorted(set(misplaced)) == []


ACCURACY_KNOBS = {
    "atol", "rtol", "drift_tolerance", "max_steps", "nodes", "iterations", "schedule"
}


def _knobs(module, names, knobs) -> list:
    """`routine(parameter)` for every parameter in `knobs` of the named
    functions and classes (methods included) of `module`."""
    found = []
    for name in names:
        obj = getattr(module, name)
        routines = [(name, obj)]
        if inspect.isclass(obj):
            routines = inspect.getmembers(
                obj, lambda m: inspect.isfunction(m) or inspect.ismethod(m)
            )
            routines = [(f"{name}.{attr}", routine) for attr, routine in routines]
        for label, routine in routines:
            params = inspect.signature(routine).parameters
            found.extend(f"{label}({p})" for p in params if p in knobs)
    return found


def test_transport_callables_take_no_accuracy_parameters():
    assert _knobs(transport, transport.__all__, ACCURACY_KNOBS) == []


def test_grouplab_measurements_take_no_accuracy_parameters():
    names = ("one_sided_derivative", "exp_iterate", "order_of_contact")
    assert _knobs(grouplab, names, {"schedule", "norm_bound", "tol"}) == []


def test_richardson_oracle_takes_no_accuracy_parameters():
    names = ("curve_derivative", "mixed_partial", "finite_difference_weights")
    assert _knobs(oracles, names, {"schedule", "threshold", "x0"}) == []


def test_catalog_norms_take_no_parameters():
    assert _knobs(finsler, ("catalog_norm",), {"params"}) == []


def test_handlers_return_measurements_for_run_config_to_grade():
    signatures = {
        command: list(inspect.signature(handler).parameters)
        for command, handler in cli._HANDLERS.items()
    }
    assert signatures == {command: ["task", "norm", "rng"] for command in cli._HANDLERS}
    assert set(cli.TOLERANCES) == {"default", "strict"}
    assert set(cli.TOLERANCES["default"]) == set(cli.TOLERANCES["strict"])
    package = _parse(sorted(PACKAGE.glob("*.py")))
    grader = next(
        node
        for node in ast.walk(package[PACKAGE / "cli.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "run_config"
    )
    assert "TOLERANCES" in _loaded(grader)
    readers = [p.name for p, t in package.items() if "TOLERANCES" in _loaded(t, grader)]
    assert readers == []


def test_no_result_carries_its_own_verdict():
    verdicts = []
    for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                verdicts.extend(
                    f"{path.stem}.{node.name}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and ast.unparse(item.target) in {"passed", "flagged"}
                )
    assert verdicts == []


def test_only_the_cli_serializes():
    imports, methods = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            if path.name != "cli.py":
                imports.extend(f"{path.name}:{n}" for n in names if n in {"json", "csv", "io"})
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    f"{path.name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name in {"as_dict", "to_payload", "to_json"}
                )
    assert imports == [] and methods == []


def _imports(tree):
    """(node, dotted names) of every absolute import in `tree`; `from m import
    x` names both m and m.x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def _package_imports():
    """(file:line, dotted name) of every absolute import in the package,
    function bodies included."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node, names in _imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield from ((f"{path.name}:{node.lineno}", n) for n in names)


def test_only_the_cli_sets_collector_policy():
    # the garbage collector's policy is process-wide, so one module owns it
    importers = [where for where, n in _package_imports() if n == "gc" and not where.startswith("cli.py:")]
    assert importers == []


def test_scipy_submodules_stay_off_the_import_path():
    # nothing the package computes uses scipy, whose own import costs a cold
    # start about 10 ms and its submodules about 0.3 s more; the tests keep
    # scipy's expm as the independent side of the package's exponential
    found = [f"{where}: {n}" for where, n in _package_imports() if n.split(".")[0] == "scipy"]
    assert found == []


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; the package allows 3.10
    imported = {n.split(".")[0] for _, n in _package_imports()}
    third_party = imported - set(sys.stdlib_module_names) - {"holonomylab"}
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["project"]["dependencies"]}
    assert third_party == declared == {"numpy"}


# Public functions and methods that the package's and the demos' own inputs
# never run, and public classes and constants that nothing in the package or
# the demos reads, each with the use it serves: the test that uses it, or the
# listed name that calls it.
ORACLES_AND_API = {
    "jets.Jet.unstack": "the inverse of Jet.stack; test_stack_and_unstack_are_inverse",
    "finsler.geodesic_coefficients": (
        "spray_jets read at one point; the closed-form geodesic equations"
        " of test_sphere_spray_matches_geodesic_equations are the independent side"
    ),
    "transport.parallelogram_holonomy": "h_t; test_parallelogram_flow_escape_reports_max_scale",
    "liealg.PolynomialField": "polynomial fields; test_bracket_algebra_randomized_invariants",
}


def _top_level_public(tree) -> dict:
    """name -> defining statement, for every public top-level def, class and
    constant, and `Class.method` for every public method of a public class."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found.update(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {name: node for name, node in found.items() if not name.split(".")[-1].startswith("_")}


def _loaded(tree, skip=None) -> set:
    """Names read in `tree` as `name` or `obj.name`, outside the subtree `skip`."""
    hidden = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in hidden or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _loads(tree) -> Counter:
    """How often each name is read in `tree` as `name` or `obj.name`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _parse(paths) -> dict:
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


# the command branches `demos/batch_config.json` lacks: an expression metric
# through exp, log and cos, an expression-curve loop, a closure and four
# grouplab operations; an unknown metric runs alone, since it stops its config
EXTRA_CONFIGS = (
    {
        "tasks": [
            {
                "command": "holonomy",
                "metric": {
                    "norm": "sqrt(exp(0.2*x1)*y1^2 + (2 + cos(x2))*y2^2) * (1 + 0.1*log(2 + x1))",
                    "lo": [-0.5, -0.5],
                    "hi": [0.5, 0.5],
                },
                "loop": {"expressions": ["0.1*cos(2*pi*t)", "0.1*sin(2*pi*t)"]},
                "samples": 2,
            },
            {
                "command": "closure",
                "fields": [
                    {"variables": ["x", "y"], "components": ["1", "0"]},
                    {"variables": ["x", "y"], "components": ["0", "x"]},
                ],
                "depth": 1,
            },
            *({"command": "grouplab", "op": op, "k": 2} for op in ("contact", "sum", "scale", "weak-tangency")),
        ]
    },
    {"command": "metric-check", "metric": "hyperbolic"},
)


def _ran(tmp_path) -> set:
    """The code objects that run while the CLI runs the demo config and
    EXTRA_CONFIGS, and the demo scripts run in this process."""
    configs = [DEMOS / "batch_config.json"]
    for i, config in enumerate(EXTRA_CONFIGS):
        configs.append(tmp_path / f"extra{i}.json")
        configs[-1].write_text(json.dumps(config))
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for i, config in enumerate(configs):
                cli.main(["--config", str(config), "--out", str(tmp_path / f"out{i}"), "--format", "json,csv"])
            for script in sorted(DEMOS.glob("*.py")):
                runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.setprofile(None)
    return ran


def _code(owner, attr: str):
    """The code object that the function, method, static method or property
    `attr` of `owner` runs."""
    obj = inspect.getattr_static(owner, attr)
    obj = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
    return inspect.unwrap(obj).__code__


def test_public_names_have_callers(tmp_path):
    # a function or method is called when its code runs on the package's and
    # the demos' own inputs; a class or constant when it is read anywhere
    # outside its own definition
    package = _parse(sorted(PACKAGE.glob("*.py")))
    callers = {**package, **_parse(sorted(DEMOS.glob("*.py")))}
    tests = _parse(sorted(TESTS.glob("*.py"))).values()
    in_tests = set().union(*map(_loaded, tests))
    as_attribute = {
        node.attr
        for tree in tests
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert len(package) > 1 and len(callers) > len(package) and in_tests and as_attribute
    ran = _ran(tmp_path)
    loads = sum(map(_loads, callers.values()), Counter())
    uncalled = []
    for path, tree in package.items():
        module = importlib.import_module(f"holonomylab.{path.stem}")
        for name, node in _top_level_public(tree).items():
            owner, _, attr = name.rpartition(".")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = _code(getattr(module, owner) if owner else module, attr) in ran
            else:
                called = loads[attr] > _loads(node)[attr]
            if not called:
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(set(uncalled) - set(ORACLES_AND_API)) == []  # delete these, or list them
    assert sorted(set(ORACLES_AND_API) - set(uncalled)) == []  # called now: unlist them
    # each listed name is read by a test, or serves a listed name that is; a
    # method only as `obj.method`, so a bare name such as a module's is no read
    tested = {
        n for n in ORACLES_AND_API
        if n.split(".")[-1] in (as_attribute if n.count(".") == 2 else in_tests)
    }
    assert sorted(n for n, use in ORACLES_AND_API.items() if not tested & {n, *use.split()}) == []


def test_oracles_use_public_names_only():
    # an oracle that shared a private helper with the route it checks would
    # certify that route with itself
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    own = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) for n in ast.walk(c)}
    private = [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and not (id(node) in own and ast.unparse(node.value) == "self")
    ]
    for node, names in _imports(tree):
        if isinstance(node, ast.Import):  # a module object, or the package's
            private.extend(n for n in names if n.split(".")[0] == "holonomylab")
        elif names[0].split(".")[0] == "holonomylab":
            # from the package itself only modules can be imported
            exported = importlib.import_module(names[0]).__all__ if "." in names[0] else ()
            private.extend(n for n in names[1:] if n.rpartition(".")[2] not in exported)
    assert private == []


# a JetSpace's index layout; outside `jets` tables are read with `Jet.read`,
# and a table is not rewrapped as a jet of a space built for it on the spot
JET_LAYOUT = {"position", "tuples", "multi", "fact"}


def test_only_jets_reads_the_jet_layout():
    readers = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items()
        if path.name != "jets.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            node.attr in JET_LAYOUT
            or node.attr.startswith("_") and "space" in ast.unparse(node.value).lower()
        )
        or isinstance(node, ast.Call)
        and ast.unparse(node.func) == "Jet"
        and _wraps_a_call(node, {"jet_space", "grouped_space"})
    ]
    assert readers == []


def test_only_jets_calls_the_product_kernel():
    # a coefficient-table product outside `jets` is one `JetSpace.product`
    callers = [
        f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
        for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items()
        if path.name != "jets.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "multiply"
        and ast.unparse(node.func.value) != "np"
    ]
    assert callers == []


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"holonomylab.{path.stem}")
        exported = getattr(module, "__all__", ())
        missing.extend(f"{path.stem}.{n}" for n in exported if not hasattr(module, n))
    assert missing == []



def _one_jet_calls() -> list:
    """(label, result, component count) for each library call that returns a
    quantity with several components."""
    funk = finsler.catalog_norm("funk_disk")
    p, ys = np.array([0.3, 0.0]), np.array([[0.6, -0.2, 0.1], [0.8, 0.9, -1.0]])
    e0, e1 = curvature.coordinate_fields(funk.manifold)
    xi = curvature.curvature_field(funk, e0, e1, p)
    rot = liealg.PolynomialField(2, [{(0, 1): -1.0}, {(1, 0): 1.0}], name="rot")
    fields = {
        "PolynomialField": rot,
        "ExpressionField": liealg.ExpressionField(("x", "y"), ("-y", "x")),
        "SmoothMap": jets.SmoothMap(lambda s: [s[1], s[0] * s[1]], 2),
        "BracketField": liealg.BracketField(rot, liealg.ExpressionField(("x", "y"), ("x*y", "1"))),
    }
    z = np.concatenate([p, ys[:, 0]])
    phi = grouplab.MatrixCurve.exponential(np.array([[0.0, 1.0], [0.0, 0.0]]))
    psi = grouplab.MatrixCurve.exponential(np.array([[0.0, 0.0], [1.0, 0.0]]))
    seeds = jets.jet_point(jets.jet_space(2, 2), [0.1, 0.2])
    smooth = jets.SmoothMap(lambda a: [a[0] * a[1], a[0].sin(), a[1]], 2)
    return [
        ("spray_jets", finsler.spray_jets(funk, p, ys, 1, 2), 2),
        ("IndicatrixVectorField.bundle_jets", xi.bundle_jets(1, 1, ys), 2),
        ("IndicatrixVectorField.taylor", xi.taylor(ys, 2), 2),
        *((f"{name}.taylor", f.taylor(ys, 2), 2) for name, f in fields.items()),
        ("horizontal_field.taylor", oracles.horizontal_field(funk, e0).taylor(z, 1), 4),
        ("vertical_field.taylor", oracles.vertical_field(xi).taylor(z, 1), 4),
        ("MatrixCurve.jets", phi.jets(0.2, 3), 2),
        ("CommutatorFamily.jets", grouplab.CommutatorFamily(phi, psi).jets(*seeds), 2),
        ("SmoothMap.jets", smooth.jets(seeds), 3),
    ]


def _wraps_a_call(node, names) -> bool:
    """Whether an argument of the call `node` contains a call of one of `names`."""
    return any(
        isinstance(inner, ast.Call)
        and (getattr(inner.func, "attr", None) or getattr(inner.func, "id", None)) in names
        for arg in node.args
        for inner in ast.walk(arg)
    )


def test_library_values_are_one_jet():
    calls = _one_jet_calls()
    shapes = {
        label: (type(r).__name__, r.shape[:1] if isinstance(r, jets.Jet) else None)
        for label, r, _ in calls
    }
    assert shapes == {label: ("Jet", (k,)) for label, _, k in calls}
    names = {"spray_jets", "bundle_jets", "taylor", "jets"}
    restacked = [
        f"{path.name}:{node.lineno}"
        for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "Jet.stack"
        and _wraps_a_call(node, names)
    ]
    assert restacked == []
