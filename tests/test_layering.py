"""Layering: holonomylab modules import each other at module level only, so
the import graph is the one a reader sees at the top of each file."""

import ast
from pathlib import Path

import holonomylab

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
