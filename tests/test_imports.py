"""No module imports a name it never uses, no package module imports
``dataclasses``, and no package code is there only for its tests.

The package and its tests are parsed with ``ast``: every name an import
binds must appear as a name elsewhere in the module, or in its ``__all__``;
no package module imports a module of ``HEAVY_MODULES``, and a fresh
interpreter that imports ``metacirc.cli`` has loaded none of them; and
every function, class and method of the package must be named by code
outside the tests.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import metacirc

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "metacirc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Callable, Iterator\nprint(sys.argv, Iterator)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Callable"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# ------------------------------------------------------------ start-up cost

PACKAGE_MODULES = sorted((ROOT / "src" / "metacirc").glob("*.py"))

# ``dataclasses`` and what it loads on Python 3.10-3.13; every metacirc
# process would pay for them before its first operation
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def imported_modules(source: str) -> list[str]:
    """The top-level names of the modules the source imports, in order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append(node.module.split(".")[0])
    return out


def test_finds_an_imported_module():
    source = "import os.path\nfrom dataclasses import field\nfrom . import x\ndef f():\n    import ast\n"
    assert imported_modules(source) == ["os", "dataclasses", "ast"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_imports_no_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_cli_import_loads_no_heavy_module():
    """A fresh interpreter, without site-packages, imports the command-line
    entry point, which loads every package module, and none of
    ``HEAVY_MODULES``."""
    probe = f"import sys, metacirc.cli; print(*sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# ------------------------------------------------------ test-only definitions

CALLER_FILES = sorted((ROOT / "scripts").glob("**/*.py")) + sorted((ROOT / "perfbench").glob("**/*.py"))

# definitions no code outside the tests names, each with why it stays
UNCALLED_ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "graphs.graph_from_edges": "builds a Graph from an edge list, the form small graphs are written in",
}


def definitions(module: str, tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions and classes and the non-dunder methods of those
    classes, by ``module.name`` or ``module.Class.method``."""
    defs: dict[str, ast.AST] = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            defs[f"{module}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    defs[f"{module}.{node.name}.{item.name}"] = item
    return defs


def identifiers(tree: ast.AST) -> Counter[str]:
    """How often each name, attribute name and imported name occurs in the
    tree; strings do not count."""
    out: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out.update({node.name.rsplit(".", 1)[-1], (node.asname or node.name).split(".")[0]})
    return out


def imports_metacirc(tree: ast.AST) -> bool:
    """Whether the tree imports ``metacirc`` or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "metacirc" for module in modules):
            return True
    return False


def uncalled_definitions(package: dict[str, str], callers: list[str], exported: set[str]) -> list[str]:
    """The definitions of the package modules (module name -> source) that
    no package code outside their own definition, no caller source that
    imports ``metacirc`` and no exported name names."""
    trees = [(module, ast.parse(source)) for module, source in package.items()]
    in_package = sum((identifiers(tree) for _, tree in trees), Counter())
    caller_trees = [tree for tree in map(ast.parse, callers) if imports_metacirc(tree)]
    named = set(exported).union(*map(identifiers, caller_trees))
    return sorted(
        name
        for module, tree in trees
        for name, node in definitions(module, tree).items()
        if node.name not in named and in_package[node.name] == identifiers(node)[node.name]
    )


def test_finds_a_test_only_definition():
    package = {
        "m": "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
        "def recursive(k):\n    return recursive(k - 1)\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n    def method(self):\n        return 'unused'\n",
    }
    assert uncalled_definitions(package, ["from metacirc.m import used\nC()\n"], set()) == [
        "m.C.method",
        "m.recursive",
    ]
    # a caller that never imports metacirc names none of it, whatever its
    # attributes are called; one that does, in a function body, names them
    assert uncalled_definitions(package, ["ap.method()\nrecursive(1)\n"], {"used", "C"}) == [
        "m.C.method",
        "m.recursive",
    ]
    assert uncalled_definitions(package, ["def f():\n    import metacirc.m\n    C().method()\n"],
                                {"used", "recursive"}) == []
    assert uncalled_definitions(package, [], {"used", "recursive", "C", "unused"}) == ["m.C.method"]


def test_every_definition_has_a_caller_outside_the_tests():
    """Code that only its own unit tests call must justify itself or go:
    each package definition is named by the package, ``scripts/``,
    ``perfbench/`` or ``metacirc.__all__``, or is allowed with a reason."""
    package = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "metacirc").glob("*.py"))}
    callers = [path.read_text() for path in CALLER_FILES]
    uncalled = uncalled_definitions(package, callers, set(metacirc.__all__))
    test_only = [name for name in uncalled if name not in UNCALLED_ALLOWED]
    assert not test_only, f"named only by tests: {', '.join(test_only)}"
    # an allowance outlives its need once the name gains a caller
    assert sorted(UNCALLED_ALLOWED) == [name for name in uncalled if name in UNCALLED_ALLOWED]
