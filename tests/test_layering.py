"""Layering: holonomylab modules import each other at module level only, so
the import graph is the one a reader sees at the top of each file; the
accuracy of transport, of grouplab's measurements and of the Richardson
oracle is set by module constants alone; command handlers return
measurements that `run_config` alone grades against the tolerance profile;
results are plain dataclasses without a verdict, that only the CLI turns
into JSON or CSV; and every public name serves the package or the demos, or
is a listed oracle or piece of public API."""

import ast
import importlib
import inspect
from pathlib import Path

import holonomylab
from holonomylab import cli, grouplab, jets, transport

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


ACCURACY_KNOBS = {"atol", "rtol", "drift_tolerance", "max_steps", "nodes", "iterations"}


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
                    if isinstance(item, ast.AnnAssign) and ast.unparse(item.target) == "passed"
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


# Public names that nothing in the package or the demos calls, each with the
# use it serves and the test that uses it.
ORACLES_AND_API = {
    # independent routes that tests check the package's own routes against
    "jets.compose_table": "Taylor composition; test_radialized_matches_composition",
    "jets.curve_derivative": "Richardson in t; test_analytic_functions_match_richardson",
    "jets.mixed_partial": "Richardson in (t, s); test_commutator_richardson_cross_check",
    "finsler.geodesic_coefficients": "G at a point; test_sphere_spray_matches_geodesic_equations",
    "transport.flow_transport_discrepancy": "flow against transport; test_flow_equals_transport",
    "curvature.horizontal_field": "bundle commutator; test_berwald_equals_bundle_commutator",
    "curvature.vertical_field": "bundle commutator; test_berwald_equals_bundle_commutator",
    # public API
    "transport.parallelogram_holonomy": "h_t; test_parallelogram_flow_escape_reports_max_scale",
    "liealg.PolynomialField": "polynomial fields; test_bracket_algebra_randomized_invariants",
    "liealg.CallableField": "fields from functions; test_bracket_order_exhaustion_diagnostic",
    "liealg.lie_bracket": "base-field brackets; test_rotation_bracket_symbolic_oracle",
}


def _top_level_public(tree) -> dict:
    """name -> defining statement, for every public top-level def, class and constant."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in found.items() if not name.startswith("_")}


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


def _parse(paths) -> dict:
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def test_public_names_have_callers():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    callers = {**package, **_parse(sorted(DEMOS.glob("*.py")))}
    in_tests = set().union(*map(_loaded, _parse(sorted(TESTS.glob("*.py"))).values()))
    assert len(package) > 1 and len(callers) > len(package) and in_tests
    uncalled = []
    for path, tree in package.items():
        for name, node in _top_level_public(tree).items():
            if not any(name in _loaded(t, node if p == path else None) for p, t in callers.items()):
                uncalled.append(f"{path.stem}.{name}")
    assert sorted(set(uncalled) - set(ORACLES_AND_API)) == []  # delete these, or list them
    assert sorted(set(ORACLES_AND_API) - set(uncalled)) == []  # called now: unlist them
    assert sorted(n for n in ORACLES_AND_API if n.split(".")[1] not in in_tests) == []


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"holonomylab.{path.stem}")
        exported = getattr(module, "__all__", ())
        missing.extend(f"{path.stem}.{n}" for n in exported if not hasattr(module, n))
    assert missing == []
