"""Offline unused-import check over the package source.

A name bound by an import must be read somewhere in its module; a name
listed in the module's `__all__` counts as read (a re-export).
`from __future__` imports bind nothing and are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fastpose"
SOURCES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1])
            if name not in used]


def test_sources_found():
    assert PACKAGE / "cli.py" in SOURCES and PACKAGE / "net" / "graph.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestChecker:
    def test_flags_an_unread_import(self):
        src = "from dataclasses import dataclass, field\nimport os.path\n\n@dataclass\nclass A:\n    x: int\n"
        assert unused_imports(src) == ["line 1: field", "line 2: os"]

    def test_attribute_reads_and_aliases_count(self):
        src = "import os.path\nimport numpy as np\nprint(os.path.sep, np.pi)\n"
        assert unused_imports(src) == []

    def test_all_counts_as_a_read_and_future_is_skipped(self):
        src = "from __future__ import annotations\nfrom .x import y\n__all__ = ['y']\n"
        assert unused_imports(src) == []
