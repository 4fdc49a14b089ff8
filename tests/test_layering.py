"""Layering: holonomylab modules import each other at module level only, so
the import graph is the one a reader sees at the top of each file; the
accuracy of transport and of grouplab's measurements is set by module
constants alone; and results are plain dataclasses that only the CLI turns
into JSON or CSV."""

import ast
import inspect
from pathlib import Path

import holonomylab
from holonomylab import grouplab, transport

PACKAGE = Path(holonomylab.__file__).parent
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
