"""The package's export list matches what ``__init__`` imports."""

import ast
from pathlib import Path

import ridgeprec


def _imported_names() -> set[str]:
    tree = ast.parse(Path(ridgeprec.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves():
    missing = [name for name in ridgeprec.__all__ if not hasattr(ridgeprec, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(ridgeprec.__all__) == len(set(ridgeprec.__all__))


def test_exports_are_the_imported_names():
    assert set(ridgeprec.__all__) - {"__version__"} == _imported_names()
