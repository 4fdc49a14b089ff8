"""Layering: holonomylab modules import each other at module level only, so
the import graph is the one a reader sees at the top of each file; the
accuracy of transport, of grouplab's measurements and of the Richardson
oracle is set by module constants alone, and catalog norms take no
parameters; command handlers return measurements that `run_config` alone
grades against the tolerance profile; results are plain dataclasses without
a verdict, that only the CLI turns into JSON or CSV; every public name and
public method serves the package or the demos, or is a listed oracle or
piece of public API; and every library call returning several components
returns one Jet, which the package never stacks again; and only `jets`
reads the index layout of a JetSpace."""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

import holonomylab
from holonomylab import cli, curvature, finsler, grouplab, jets, liealg, transport

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
    assert _knobs(jets, names, {"schedule", "threshold", "x0"}) == []


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


# Public names, and public methods of public classes, that nothing in the
# package or the demos calls, each with the use it serves and the test that
# uses it.
ORACLES_AND_API = {
    # independent routes that tests check the package's own routes against
    "jets.compose_table": "Taylor composition; test_radialized_matches_composition",
    "jets.curve_derivative": "Richardson in t; test_analytic_functions_match_richardson",
    "jets.mixed_partial": "Richardson in (t, s); test_commutator_richardson_cross_check",
    "finsler.geodesic_coefficients": "G at a point; test_sphere_spray_matches_geodesic_equations",
    "transport.flow_transport_discrepancy": "flow against transport; test_flow_equals_transport",
    "transport.CurveSpec.reverse": "transport back along the reversal; test_reversal_inverts",
    "curvature.horizontal_field": "bundle commutator; test_berwald_equals_bundle_commutator",
    "curvature.vertical_field": "bundle commutator; test_berwald_equals_bundle_commutator",
    # public API
    "jets.Jet.derivative_table": "one partial's table; test_shift_acts_as_partial_derivative",
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


def test_public_names_have_callers():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    callers = {**package, **_parse(sorted(DEMOS.glob("*.py")))}
    in_tests = set().union(*map(_loaded, _parse(sorted(TESTS.glob("*.py"))).values()))
    assert len(package) > 1 and len(callers) > len(package) and in_tests
    # a name is called when it is read anywhere outside its own definition
    loads = sum(map(_loads, callers.values()), Counter())
    uncalled = []
    for path, tree in package.items():
        for name, node in _top_level_public(tree).items():
            attr = name.split(".")[-1]
            if loads[attr] <= _loads(node)[attr]:
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(set(uncalled) - set(ORACLES_AND_API)) == []  # delete these, or list them
    assert sorted(set(ORACLES_AND_API) - set(uncalled)) == []  # called now: unlist them
    assert sorted(n for n in ORACLES_AND_API if n.split(".")[-1] not in in_tests) == []


# a JetSpace's index layout; outside `jets` tables are read with `Jet.read`
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
    ]
    assert readers == []


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
        ("horizontal_field.taylor", curvature.horizontal_field(funk, e0).taylor(z, 1), 4),
        ("vertical_field.taylor", curvature.vertical_field(xi).taylor(z, 1), 4),
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
