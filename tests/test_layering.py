"""Layering: holonomylab modules import each other at module level only, so
the import graph is the one a reader sees at the top of each file; and the
transport layer's accuracy is set by its module constants alone."""

import ast
import inspect
from pathlib import Path

import holonomylab
from holonomylab import transport

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


def test_transport_callables_take_no_accuracy_parameters():
    knobs = []
    for name in transport.__all__:
        obj = getattr(transport, name)
        routines = [(name, obj)]
        if inspect.isclass(obj):
            routines = inspect.getmembers(
                obj, lambda m: inspect.isfunction(m) or inspect.ismethod(m)
            )
            routines = [(f"{name}.{attr}", routine) for attr, routine in routines]
        for label, routine in routines:
            params = inspect.signature(routine).parameters
            knobs.extend(f"{label}({p})" for p in params if p in ACCURACY_KNOBS)
    assert knobs == []
