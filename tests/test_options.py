"""Every parameter with a default in the package is set by some call.

A stdlib ast pass, in the style of test_imports.py: a keyword that no call
in src/, tests/ or perfbench/ ever passes is a setting nothing exercises,
and belongs in the body as the constant it always is.  Calls are matched
to definitions by name only (f(...), obj.f(...), functools.partial(f, ...),
and ClassName(...) as __init__), so a dead parameter of a name that is
defined twice may go unseen, but a parameter that some call sets is never
reported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hardyrellich"
CALLERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def _defaulted(fn: ast.FunctionDef, in_class: bool) -> tuple[list[str], list[str]]:
    """fn's positional parameter names as a call sees them (self or cls
    dropped from a method), and the names of the ones with a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if in_class and not static:
        positional = positional[1:]
    return positional, defaulted


def definitions(source: str, module: str) -> list[tuple[str, str, list[str], list[str]]]:
    """(name, where, positional, defaulted) for each function and method in
    source with at least one defaulted parameter; __init__ is filed under its
    class's name, as a call spells it."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, defaulted = _defaulted(child, cls is not None)
                name = cls if child.name == "__init__" and cls else child.name
                qualified = f"{cls}.{child.name}" if cls else child.name
                if defaulted:
                    found.append((name, f"{module}:{child.lineno} {qualified}",
                                  positional, defaulted))
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls(source: str) -> list[tuple[str, int, set[str], bool]]:
    """(callee, positional count, keyword names, opaque) for each call in
    source; opaque marks a call with *args or **kwargs, which may set any
    parameter.  functools.partial(f, ...) counts as a call of f."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _name(node.func), node.args
        if callee == "partial" and args:
            callee, args = _name(args[0]), args[1:]
        if callee is None:
            continue
        opaque = (any(isinstance(a, ast.Starred) for a in args)
                  or any(k.arg is None for k in node.keywords))
        out.append((callee, len(args), {k.arg for k in node.keywords}, opaque))
    return out


def unset_parameters(package: dict[str, str], callers: list[str]) -> list[str]:
    """'module:line function(param)' for each defaulted parameter in the
    package sources that no call in callers sets."""
    seen = [c for source in callers for c in calls(source)]
    unset = []
    for module, source in package.items():
        for name, where, positional, defaulted in definitions(source, module):
            set_here = set()
            for callee, n_pos, keywords, opaque in seen:
                if callee != name:
                    continue
                set_here |= set(positional) if opaque else set(positional[:n_pos]) | keywords
            unset += [f"{where}({p})" for p in defaulted if p not in set_here]
    return unset


def test_the_check_sees_an_unset_option():
    package = {"m.py": ("import functools\n"
                        "def f(x, y=1, *, tol=1e-8, near=None):\n"
                        "    return x\n"
                        "def g(a, b=2, c=3):\n"
                        "    return a\n"
                        "class C:\n"
                        "    def __init__(self, s=0, t=1):\n"
                        "        self.s = s\n"
                        "    def h(self, u=0, v=1):\n"
                        "        return u\n"
                        "def k(w=0):\n"
                        "    return w\n")}
    caller = ("f(1, 2)\n"
              "functools.partial(g, 1, 5)\n"
              "C(t=2).h(4)\n"
              "k(**{'w': 1})\n")
    assert unset_parameters(package, [caller]) == [
        "m.py:2 f(tol)", "m.py:2 f(near)", "m.py:4 g(c)",
        "m.py:7 C.__init__(s)", "m.py:9 C.h(v)"]


def test_every_defaulted_parameter_has_a_caller():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unset_parameters(package, callers) == []
