"""Every name a module imports is read somewhere in that module."""

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
