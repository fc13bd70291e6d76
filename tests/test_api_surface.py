"""Every public name of the package has a caller besides its own tests.

A name exported through ``shieldlab.__all__`` must be read somewhere other
than its own definition: in a library module (the package's ``__init__.py``
only re-exports, so it does not count) or in a demo. So must every public
method and property of an exported class that is not an exception, read
outside its own definition. References are read from the syntax tree, as
loaded names and attribute names, so a mention in a docstring or comment
does not count, and neither does an import alone.

Every parameter with a default, of an exported function or of a public
method or classmethod of an exported class, must likewise be passed, by
position or by keyword, in some call of that name outside its definition:
an option that no caller sets is a second way to do one thing. A call
through a function that forwards its arguments (``_keyed(path, f, ...)``)
or with ``*args`` or ``**kwargs`` passes nothing the test can see, and the
``__init__`` that a dataclass generates is out of scope.

Every private function and class defined at the top of a library module
must be read somewhere in the library outside its own definition: a helper
that only tests call keeps a second code path alive for them alone.

References and calls are matched by name alone, whatever object they are
read from: a member is credited by any read of its name, so one that
shares its name with another (``np.trace``, a local variable ``letter``)
passes unread and has to be found by hand.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import shieldlab

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "shieldlab").glob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "demos").glob("*.py"))


def nodes(path: Path):
    """(node, enclosing definitions, outermost first) for every node of the
    syntax tree of ``path``."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner += (node.name,)
        yield node, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), ())


def name_of(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


NODES_BY_PATH = {p: list(nodes(p)) for p in SOURCES if p.name != "__init__.py"}
NODES = [found for per_path in NODES_BY_PATH.values() for found in per_path]


def references(paths) -> set:
    """(name, enclosing definitions) of every name read in the files ``paths``."""
    return {(name_of(node), owner) for p in paths for node, owner in NODES_BY_PATH[p]
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


REFERENCES = references(NODES_BY_PATH)
LIBRARY_REFERENCES = references(p for p in NODES_BY_PATH if p in LIBRARY)
# (callee name, positions passed, keywords passed, enclosing definitions);
# a starred argument ends the positions the test can count
CALLS = [(name_of(node.func),
          next((k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)),
               len(node.args)),
          {kw.arg for kw in node.keywords if kw.arg is not None}, owner)
         for node, owner in NODES if isinstance(node, ast.Call)]
PUBLIC = sorted(name for name in shieldlab.__all__
                if not inspect.ismodule(getattr(shieldlab, name)))
MEMBERS = sorted(
    (name, member)
    for name in PUBLIC
    if inspect.isclass(cls := getattr(shieldlab, name)) and not issubclass(cls, BaseException)
    for member, value in vars(cls).items()
    if not member.startswith("_")
    and isinstance(value, (FunctionType, classmethod, staticmethod, property, cached_property)))


def defaulted(func, bound: bool):
    """(name, position or None when keyword-only) of each parameter of
    ``func`` that has a default; a bound method's first parameter is not
    counted."""
    params = list(inspect.signature(func).parameters.values())[int(bound):]
    return [(p.name, k if p.kind is p.POSITIONAL_OR_KEYWORD else None)
            for k, p in enumerate(params) if p.default is not p.empty]


PRIVATE = sorted(
    (p.stem, node.name) for p in LIBRARY
    for node in ast.parse(p.read_text(encoding="utf-8")).body
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    and node.name.startswith("_") and not node.name.startswith("__"))
OPTIONS = sorted(
    [((name,), param, pos) for name in PUBLIC
     if inspect.isfunction(func := getattr(shieldlab, name))
     for param, pos in defaulted(func, bound=False)]
    + [((name, member), param, pos) for name, member in MEMBERS
       if not isinstance(value := vars(getattr(shieldlab, name))[member],
                         (property, cached_property))
       for param, pos in defaulted(getattr(value, "__func__", value),
                                   bound=not isinstance(value, staticmethod))])


def read_outside(name, definition, refs=REFERENCES) -> bool:
    """Whether ``name`` is read somewhere in ``refs`` outside the definition
    whose enclosing path is ``definition``."""
    return any(ref == name and owner[:len(definition)] != definition
               for ref, owner in refs)


def test_sources_found():
    assert len(SOURCES) > 5 and PUBLIC and MEMBERS and OPTIONS and PRIVATE


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_caller(name):
    assert read_outside(name, (name,)), (
        f"shieldlab.{name} is read nowhere in the library or the demos")


@pytest.mark.parametrize("name, member", MEMBERS, ids=[f"{c}.{m}" for c, m in MEMBERS])
def test_public_member_has_a_caller(name, member):
    assert read_outside(member, (name, member)), (
        f"shieldlab.{name}.{member} is read nowhere in the library or the demos")


@pytest.mark.parametrize("module, name", PRIVATE, ids=[f"{m}.{n}" for m, n in PRIVATE])
def test_private_helper_has_a_library_caller(module, name):
    assert read_outside(name, (name,), LIBRARY_REFERENCES), (
        f"shieldlab.{module}.{name} is read nowhere in the library")


@pytest.mark.parametrize("definition, param, pos", OPTIONS,
                         ids=[f"{'.'.join(d)}({p})" for d, p, _ in OPTIONS])
def test_option_is_set_by_a_caller(definition, param, pos):
    passed = any(
        callee == definition[-1] and owner[:len(definition)] != definition
        and ((pos is not None and pos < positions) or param in keywords)
        for callee, positions, keywords, owner in CALLS)
    assert passed, (
        f"no library or demo call of shieldlab.{'.'.join(definition)} sets {param}")
