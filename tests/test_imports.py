"""Every name a package module imports is used in that module, and every
function and class a package module defines is referenced somewhere.

Stdlib ast passes, so they need no lint tool: an import left behind when
the code that read it moves elsewhere fails here, and so does a function
or class that nothing in src/, tests/ or perfbench/ refers to.
__init__.py is skipped by the import check, as its imports are the
package's exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hardyrellich"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("import math\n"
              "from .errors import DomainError, ArgumentError\n"
              "def f(x):\n"
              "    raise ArgumentError(math.pi)\n")
    assert unused_imports(source) == ["DomainError (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[str]:
    """The functions and classes defined at the top level of a module."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def references(source: str, module: str | None = None) -> set[tuple[str, str]]:
    """(module, name) pairs that a source file refers to through a package
    module: ``from hardyrellich.m import name`` (or ``from .m import name``
    inside the package), ``m.name`` with m bound by ``from hardyrellich
    import m``, ``from . import m`` or ``import hardyrellich.m as m``, and
    ``hardyrellich.m.name``.  Inside the package module ``module`` itself
    every bare name read counts as well."""
    tree = ast.parse(source)
    found, alias = set(), {}
    inside = module is not None
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = inside and node.level > 0
            if node.module == "hardyrellich" or (relative and node.module is None):
                alias.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module and (node.module.startswith("hardyrellich.") or relative):
                found.update((node.module.split(".")[-1], a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            alias.update((a.asname, a.name.split(".")[-1]) for a in node.names
                         if a.asname and a.name.startswith("hardyrellich."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in alias:
                found.add((alias[base.id], node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "hardyrellich"):
                found.add((base.attr, node.attr))
        elif inside and isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add((module, node.id))
    return found


def unreferenced(root: Path) -> list[str]:
    """module.name for each top-level function or class of the package
    that no file under src/, tests/ or perfbench/ refers to."""
    package = root / "src" / "hardyrellich"
    defined = [(p.stem, name) for p in sorted(package.glob("*.py"))
               for name in definitions(p.read_text(encoding="utf-8"))]
    seen = set()
    for path in (p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")):
        module = path.stem if path.parent == package else None
        seen |= references(path.read_text(encoding="utf-8"), module)
    return [f"{m}.{name}" for m, name in defined if (m, name) not in seen]


def test_the_check_sees_an_unreferenced_definition():
    module = ("def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def orphan():\n    return 2\n"
              "class Orphan:\n    pass\n")
    assert definitions(module) == ["used", "helper", "orphan", "Orphan"]
    seen = references(module, "mod") | references(
        "from hardyrellich import mod as m\nm.used()\n")
    assert {("mod", n) for n in ("used", "helper")} <= seen
    assert ("mod", "orphan") not in seen and ("mod", "Orphan") not in seen
    assert references("from hardyrellich.mod import orphan\n") == {("mod", "orphan")}
    assert references("import hardyrellich\nhardyrellich.mod.Orphan\n") == {("mod", "Orphan")}


def test_every_definition_is_referenced():
    assert unreferenced(ROOT) == []
