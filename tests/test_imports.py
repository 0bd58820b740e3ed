"""Every name a module imports is read somewhere in that module, every
import in the package sits at module level, and `semantics` needs
`theory` for type checking only."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# A package's __init__ imports to re-export, so its names are never read there.
MODULES = sorted(
    path
    for path in [*ROOT.glob("src/rbb/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)
PACKAGE = sorted(ROOT.glob("src/rbb/*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by imports anywhere in ``source`` that it never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c as d, e\n"
        "print(sys, e)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "d (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"


def nested_imports(source: str) -> list[int]:
    """The lines of the imports in ``source`` that are not at module level.

    The body of a module-level ``if TYPE_CHECKING:`` counts as module level.
    """
    tree = ast.parse(source)
    top = {*tree.body, *(s for node in tree.body if _type_checking(node) for s in node.body)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
    ]


def runtime_package_imports(source: str) -> set[str]:
    """The sibling modules that ``source`` imports outside ``if TYPE_CHECKING:``."""
    return {
        node.module
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_the_scans_see_a_nested_import_and_a_type_checking_block():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .syntax import Not\n"
        "if TYPE_CHECKING:\n"
        "    from .theory import TheoryConfig\n"
        "def f():\n"
        "    from .parser import parse\n"
    )
    assert nested_imports(source) == [6]
    assert runtime_package_imports(source) == {"syntax"}


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_every_package_import_is_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_semantics_imports_only_syntax_when_it_runs():
    # `theory` decides (CL) with the evaluator in `semantics`, so the
    # reverse direction is for type annotations only.
    source = (ROOT / "src/rbb/semantics.py").read_text()
    assert runtime_package_imports(source) == {"syntax"}
