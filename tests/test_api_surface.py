"""Every public name of the package has a caller besides its own tests.

A name exported through ``shieldlab.__all__`` must be read somewhere other
than its own definition: in a library module (the package's ``__init__.py``
only re-exports, so it does not count) or in a demo. So must every public
method and property of an exported class that is not an exception, read
outside its own definition. References are read from the syntax tree, as
loaded names and attribute names, so a mention in a docstring or comment
does not count, and neither does an import alone.

References are matched by name alone, whatever object they are read from:
a member is credited by any read of its name, so one that shares its name
with another (``np.trace``, a local variable ``letter``) passes unread and
has to be found by hand.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import shieldlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "shieldlab").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def references(path: Path) -> set[tuple[str, tuple[str, ...]]]:
    """(name, enclosing definitions, outermost first) for every name read in
    ``path``."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner += (node.name,)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, owner))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


REFERENCES = set().union(*(references(p) for p in SOURCES if p.name != "__init__.py"))
PUBLIC = sorted(name for name in shieldlab.__all__
                if not inspect.ismodule(getattr(shieldlab, name)))
MEMBERS = sorted(
    (name, member)
    for name in PUBLIC
    if inspect.isclass(cls := getattr(shieldlab, name)) and not issubclass(cls, BaseException)
    for member, value in vars(cls).items()
    if not member.startswith("_")
    and isinstance(value, (FunctionType, classmethod, staticmethod, property, cached_property)))


def read_outside(name, definition) -> bool:
    """Whether ``name`` is read somewhere outside the definition whose
    enclosing path is ``definition``."""
    return any(ref == name and owner[:len(definition)] != definition
               for ref, owner in REFERENCES)


def test_sources_found():
    assert len(SOURCES) > 5 and PUBLIC and MEMBERS


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_caller(name):
    assert read_outside(name, (name,)), (
        f"shieldlab.{name} is read nowhere in the library or the demos")


@pytest.mark.parametrize("name, member", MEMBERS, ids=[f"{c}.{m}" for c, m in MEMBERS])
def test_public_member_has_a_caller(name, member):
    assert read_outside(member, (name, member)), (
        f"shieldlab.{name}.{member} is read nowhere in the library or the demos")
