"""Every name a covspectrum module lists in ``__all__`` must exist.

``from covspectrum.x import *`` and tools that walk ``__all__`` (such as
perfbench's tracer, which skips a missing name silently) rely on it.
Imports sit at module level only, so an import cycle fails at import time
instead of hiding inside a function, and every imported name is used in
its module or re-exported through ``__all__``, so deleting the last use of
a name cannot leave a stale import behind.  Only ``reports`` calls
``json.dump``/``json.dumps``: every other module writes JSON through its
strict encoder.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import covspectrum

MODULES = ["covspectrum"] + [
    f"covspectrum.{info.name}" for info in pkgutil.iter_modules(covspectrum.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", sorted(pathlib.Path(covspectrum.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [
        f"{path.name}:{node.lineno}"
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(pathlib.Path(covspectrum.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - _exported(tree)) == []


def test_json_is_written_only_by_the_strict_encoder():
    # reports.json_text writes a non-finite number as null; a bare json.dump(s)
    # anywhere else would print NaN or Infinity again
    found = []
    for path in sorted(pathlib.Path(covspectrum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): func.name
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        found += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and getattr(node.value, "id", None) == "json"
        ]
    assert found == [("reports.py", "json_text")]
