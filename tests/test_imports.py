"""Every name a package module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "siglim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names bound by the import statements of source, `__future__`
    aside, that no name in source reads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unread_imports_are_found():
    assert unread_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["b", "os"]
    assert unread_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert unread_imports((SRC / module).read_text()) == []
