"""Every name a covspectrum module lists in ``__all__`` must exist.

``from covspectrum.x import *`` and tools that walk ``__all__`` (such as
perfbench's tracer, which skips a missing name silently) rely on it.
Imports sit at module level only, so an import cycle fails at import time
instead of hiding inside a function, and every imported name is used in
its module or re-exported through ``__all__``, so deleting the last use of
a name cannot leave a stale import behind.  ``momentlab`` is exact
combinatorics in plain Python and imports no numpy.  Only ``reports`` calls
``json.dump``/``json.dumps``: every other module writes JSON through its
strict encoder.  ``np.errstate`` is set only where a command or a sweep
cell starts, and in ``reports._mean_std``.  ``reports.emit_report`` names no
block of ``reports._BLOCKS``, so a new block is one table row and one
function, with no per-block branch in the writer.  Only ``cli`` names the
files of a sweep directory, ``records.csv`` and ``config.json``.  The CI
workflow installs the package with its ``test`` extra and runs the tier-1
command of ROADMAP.md, so every package that ``tests/`` and ``perfbench/``
import must be declared in pyproject.toml.
"""

import ast
import importlib
import importlib.metadata
import pathlib
import pkgutil
import re
import sys
import tomllib

import pytest

import covspectrum
from covspectrum import reports

ROOT = pathlib.Path(__file__).resolve().parents[1]
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


def test_momentlab_imports_no_numpy():
    path = pathlib.Path(covspectrum.__file__).parent / "momentlab.py"
    modules = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [m for m in modules if m and m.split(".")[0] == "numpy"] == []


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


def _uses(matches):
    """(file, qualified name of the enclosing def or class) of each AST node in the package that matches."""
    found = []

    def visit(node, path, owner):
        if matches(node):
            found.append((path.name, owner))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{owner}.{child.name}" if owner else child.name)  # its decorators included
            else:
                visit(child, path, owner)

    for path in sorted(pathlib.Path(covspectrum.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return found


def _attribute_uses(module, attrs):
    """Where each ``module.attr`` in the package sits, as ``_uses`` gives it."""
    return _uses(
        lambda node: isinstance(node, ast.Attribute) and node.attr in attrs and getattr(node.value, "id", None) == module
    )


def test_json_is_written_only_by_the_strict_encoder():
    # reports.json_text writes a non-finite number as null; a bare json.dump(s)
    # anywhere else would print NaN or Infinity again
    assert _attribute_uses("json", ("dump", "dumps")) == [("reports.py", "json_text")]


def test_only_the_cli_names_the_sweep_directory_files():
    # sweep writes both files and report reads config.json; a second module
    # naming either would be a second writer or parser of the sweep directory
    names = ("records.csv", "config.json")
    assert _uses(lambda node: isinstance(node, ast.Constant) and node.value in names) == [
        ("cli.py", "_cmd_sweep"),
        ("cli.py", "_cmd_sweep"),
        ("cli.py", "_sweep_law"),
    ]


def test_no_module_reads_the_environment():
    # a run's settings come from its command line and config file alone
    assert _attribute_uses("os", ("environ", "getenv")) == []


def test_errstate_is_set_only_where_commands_and_cells_start():
    # an overflow becomes a non-finite value that a check rejects; the CLI and
    # each sweep cell keep numpy's warning from printing ahead of that error,
    # and _mean_std keeps its own for its finite-mean contract
    assert _attribute_uses("np", ("errstate",)) == [
        ("cli.py", "main"),
        ("harness.py", "_Cell.records"),
        ("reports.py", "_mean_std"),
    ]


def test_emit_report_names_no_block():
    tree = ast.parse(pathlib.Path(reports.__file__).read_text())
    (emit,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "emit_report"]
    named = [
        f"{node.value!r} at line {node.lineno}"
        for node in ast.walk(emit)
        if isinstance(node, ast.Constant) and node.value in reports._BLOCKS
    ]
    assert named == []


def _distribution(requirement):
    return re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("_", "-")


def _top_level_imports(path):
    """The top-level name of each absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_tests_and_benchmark_import_only_declared_packages():
    # CI installs ".[test]" alone, so an undeclared import fails there at collection
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {_distribution(r) for r in project["dependencies"] + project["optional-dependencies"]["test"]}
    paths = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    local = {"covspectrum", "perfbench", *(path.stem for path in paths)}
    owners = importlib.metadata.packages_distributions()
    undeclared = sorted(
        f"{path.parent.name}/{path.name}: {top}"
        for path in paths
        for top in set(_top_level_imports(path)) - local - sys.stdlib_module_names
        if not any(_distribution(owner) in declared for owner in owners.get(top, [top]))
    )
    assert undeclared == []


def test_ci_workflow_installs_the_test_extra_and_runs_tier1():
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = [line.strip().removeprefix("run: ") for line in workflow.splitlines() if line.strip().startswith("run: ")]
    assert 'pip install ".[test]"' in runs and command in runs
