"""Every name a package module imports is used in that module, and every
function, class and method a package module defines is reachable from
the package's entry points.

Stdlib ast passes, so they need no lint tool: an import left behind when
the code that read it moves elsewhere fails here, and so does a
definition that no verb reaches.  The reachability walk starts from
``cli.main``, from the code each module runs on import and from the
names perfbench's own files write; a call from a test does not count, so
code that only tests keep alive is reported.  __init__.py is skipped by
the import check, as its imports are the package's exports."""

import ast
import re
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The module's top-level functions and classes and each class's
    methods, by qualified name (``f``, ``C``, ``C.m``)."""
    found = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found[node.name] = node
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, FUNCTIONS))
    return found


def bindings(tree: ast.Module, package: str) -> tuple[dict, dict]:
    """Names the module binds by importing from the package, wherever the
    import stands: local name -> package module, and local name ->
    (module, name)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and not source.startswith(package):
                continue
            source = source.removeprefix(package).lstrip(".")
            for a in node.names:
                if source:
                    names[a.asname or a.name] = (source.split(".")[-1], a.name)
                else:
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            modules.update((a.asname, a.name.split(".")[-1]) for a in node.names
                           if a.asname and a.name.startswith(package + "."))
    return modules, names


def import_time_code(tree: ast.Module) -> list[ast.AST]:
    """What runs when the module is imported: every top-level statement
    but the imports, and of each function the decorators and defaults
    only, of each class its bases, decorators and body (methods again by
    their decorators and defaults)."""
    def header(f):
        return [*f.decorator_list, *f.args.defaults, *filter(None, f.args.kw_defaults)]

    code = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, FUNCTIONS):
            code += header(node)
        elif isinstance(node, ast.ClassDef):
            code += [*node.decorator_list, *node.bases, *node.keywords]
            for stmt in node.body:
                code += header(stmt) if isinstance(stmt, FUNCTIONS) else [stmt]
        else:
            code.append(node)
    return code


def unreachable(package: Path, perfbench: Path) -> list[str]:
    """module.qualname of each function, class or method of the package
    that nothing reaches from the entry points: ``cli.main``, the code
    each module runs on import, and each definition whose name perfbench
    writes as a name, an attribute or a part of a dotted span string.

    A name is followed to the module's own definition or to the one it
    imported; ``m.name`` with m a package module to that module's
    definition; any other attribute to every method of that name; a class
    reached reaches its dunder methods, which Python calls for it.  Tests
    are no entry point: a definition only a test calls is reported."""
    name = package.name
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(package.glob("*.py"))}
    defs = {(m, q): node for m, tree in trees.items() for q, node in definitions(tree).items()}
    imports = {m: bindings(tree, name) for m, tree in trees.items()}
    methods = {}
    for m, q in defs:
        if "." in q:
            methods.setdefault(q.rsplit(".", 1)[1], []).append((m, q))

    def targets(m, code):
        modules, names = imports[m]
        for node in (n for c in code for n in ast.walk(c)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield names.get(node.id, (m, node.id))
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name) and base.id in modules:
                    yield modules[base.id], node.attr
                elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                      and base.value.id == name):
                    yield base.attr, node.attr
                else:
                    yield from methods.get(node.attr, ())

    perf = set()
    for path in sorted(perfbench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                perf.add(node.id)
            elif isinstance(node, ast.Attribute):
                perf.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and DOTTED.fullmatch(node.value)):
                perf.update(node.value.split("."))
    todo = [("cli", "main"), *(key for key in defs if key[1].rsplit(".", 1)[-1] in perf)]
    todo += [key for m, tree in trees.items() for key in targets(m, import_time_code(tree))]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        node = defs[key]
        if isinstance(node, ast.ClassDef):
            todo += [(key[0], f"{node.name}.{f.name}") for f in node.body
                     if isinstance(f, FUNCTIONS) and f.name.startswith("__")
                     and f.name.endswith("__")]
        else:
            todo += targets(key[0], [node])
    return [f"{m}.{q}" for m, q in defs if (m, q) not in reached]


def test_the_check_sees_an_unreferenced_definition(tmp_path):
    # a toy package beside a toy perfbench and a toy test file
    package, perfbench, tests = (tmp_path / d for d in ("toy", "perfbench", "tests"))
    for d in (package, perfbench, tests):
        d.mkdir()
    (package / "cli.py").write_text(
        "from . import lib\n"
        "from .lib import Table\n"
        "def main():\n    return lib.used(), Table().row()\n")
    (package / "lib.py").write_text(
        "def used():\n    return 1\n"
        "def at_import():\n    return 2\n"
        "LOADED = at_import()\n"
        "def spanned():\n    return 3\n"
        "def test_only():\n    return 4\n"
        "class Table:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    def row(self):\n        return self.n\n"
        "    def unused_method(self):\n        return 5\n"
        "class Orphan:\n    pass\n")
    (perfbench / "layers.py").write_text('GROUPS = {"lib": {"lib.spanned"}}\n')
    (tests / "test_lib.py").write_text(
        "from toy import lib\n"
        "def test_it():\n    assert lib.test_only() == 4\n"
        "    assert lib.Orphan() and lib.Table().unused_method()\n")
    assert unreachable(package, perfbench) == [
        "lib.test_only", "lib.Table.unused_method", "lib.Orphan"]


def test_every_definition_is_reachable():
    assert unreachable(PACKAGE, ROOT / "perfbench") == []
