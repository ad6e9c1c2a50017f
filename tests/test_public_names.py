"""Every public name has a reader outside the tests.

A name in ``geoplan.__all__`` earns its place when a package module
other than ``__init__.py`` reads it, when the README documents it or
when the benchmark under ``bench/`` names it.  Code that only the
tests call belongs in ``tests/crosscheck.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import geoplan as gp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "geoplan"

# load_spec's counterpart: a spec written by save_spec is what load_spec reads
ALLOWED = {"save_spec"}


def names_read(source: str) -> set[str]:
    """Names a module reads, as a bare name or an attribute; a ``def``
    or ``class`` line binds its name without reading it."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return read | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unread(names) -> list[str]:
    """The ``names`` that no package module but ``__init__.py`` reads
    and that neither README.md nor bench/*.py mentions."""
    read: set[str] = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            read |= names_read(path.read_text())
    texts = [(ROOT / "README.md").read_text()]
    texts += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    text = "\n".join(texts)
    return [n for n in names if n not in read and not re.search(rf"\b{n}\b", text)]


def test_the_reader_check_skips_definitions():
    assert names_read("def f():\n    pass\nclass C:\n    pass\n") == set()
    assert names_read("def f():\n    return g(x.y)\n") == {"g", "x", "y"}


def test_every_public_name_has_a_reader_outside_the_tests():
    public = [n for n in gp.__all__ if n != "__version__" and n not in ALLOWED]
    assert unread(public) == []


def test_every_allowed_name_is_still_unread():
    assert unread(sorted(ALLOWED)) == sorted(ALLOWED)
