"""Every name a geoplan module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "geoplan"

# Re-imports that bench/spans.py looks up to time the enumeration-era
# search, which plan no longer calls.  They leave with that benchmark
# target list (ROADMAP items 1 and 2), and this list empties with them.
ALLOWED = {
    ("planner", "find_coloring"),
    ("planner", "iter_colorings"),
    ("planner", "enumerate_nngs"),
    ("oracle", "enumerate_nngs"),
}

MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read elsewhere."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("from itertools import chain, compress\nchain()\n") == ["compress"]
    assert unused_imports("import os.path as p\nimport json\np.join\n") == ["json"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert [n for n in unused if (path.stem, n) not in ALLOWED] == []


def test_every_allowed_import_is_still_unused():
    found = {(p.stem, n) for p in MODULES for n in unused_imports(p.read_text())}
    assert ALLOWED <= found
