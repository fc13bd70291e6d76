"""Every public name of the package has a caller besides its own tests.

A name exported through ``shieldlab.__all__`` must be read somewhere other
than its own definition: in a library module (the package's ``__init__.py``
only re-exports, so it does not count) or in a demo. References are read
from the syntax tree, as loaded names and attribute names, so a mention in a
docstring or comment does not count, and neither does an import alone.
"""

import ast
import inspect
from pathlib import Path

import pytest

import shieldlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "shieldlab").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def references(path: Path) -> set[tuple[str, str | None]]:
    """(name, enclosing top-level definition) for every name read in ``path``."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add((sub.id, owner))
            elif isinstance(sub, ast.Attribute):
                found.add((sub.attr, owner))
    return found


REFERENCES = set().union(*(references(p) for p in SOURCES if p.name != "__init__.py"))
PUBLIC = sorted(name for name in shieldlab.__all__
                if not inspect.ismodule(getattr(shieldlab, name)))


def test_sources_found():
    assert len(SOURCES) > 5 and PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_caller(name):
    assert any(ref == name and owner != name for ref, owner in REFERENCES), (
        f"shieldlab.{name} is read nowhere in the library or the demos")
