"""Every defaulted parameter is passed somewhere.

A parameter that no call sets always takes its default, so it is a setting
that nothing uses.  Each function and method of the package is parsed from
its module, and a defaulted parameter that no call in ``src/``, ``tests/``
or ``perfbench/`` passes, by keyword or by position, fails the test.

Calls are matched to definitions by name: ``f(...)`` and ``obj.f(...)``
both count for every function or method called ``f``, and a call of a
class counts for its ``__init__``.  The first parameter of a method
(``self`` or ``cls``) is bound, so positions count from the second.  A call
with ``*args`` or ``**kwargs`` counts as passing every parameter.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "relmetric").glob("*.py"))
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _defs(tree: ast.Module):
    """(name calls use, function node, whether its first parameter is bound)
    for every function and method; an ``__init__`` is called by its class's
    name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in stmt.decorator_list)
                    yield (node.name if stmt.name == "__init__" else stmt.name), stmt, not static
    methods = {id(s) for n in ast.walk(tree) if isinstance(n, ast.ClassDef) for s in n.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(node) not in methods:
            yield node.name, node, False


def defaulted_params(source: str) -> list[tuple[str, str, int | None, int]]:
    """(called name, parameter, position or None for keyword-only, line)
    for each parameter with a default, in line order."""
    out = []
    for name, fn, bound in _defs(ast.parse(source)):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for k, arg in enumerate(positional):
            if k >= first:
                out.append((name, arg.arg, k - bound, fn.lineno))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None, fn.lineno))
    return sorted(out, key=lambda d: d[3])


def calls(source: str) -> list[tuple[str, int, set[str], bool]]:
    """(called name, positional count, keywords, whether it unpacks) for
    each call by a plain or dotted name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is None:
            continue
        kws = {k.arg for k in node.keywords}
        star = None in kws or any(isinstance(x, ast.Starred) for x in node.args)
        out.append((name, len(node.args), kws, star))
    return out


def unset_params(modules: dict[str, str], callers: list[str]) -> list[str]:
    seen = [c for source in callers for c in calls(source)]
    return [
        f"{module} line {line}: {name}({param})"
        for module, source in modules.items()
        for name, param, pos, line in defaulted_params(source)
        if not any(
            n == name and (star or param in kws or (pos is not None and pos < count))
            for n, count, kws, star in seen
        )
    ]


def test_every_defaulted_parameter_is_passed():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unset_params(modules, [p.read_text() for p in CALLERS]) == []


def test_detects_an_unset_parameter():
    module = (
        "def area(w, h=1.0, *, unit='m'):\n"
        "    return w * h\n"
        "class Box:\n"
        "    def __init__(self, size=1.0, tag=None):\n"
        "        self.size = size\n"
        "    def scaled(self, k=2.0, *, exact=False):\n"
        "        return Box(self.size * k)\n"
        "def spread(*xs, base=0):\n"
        "    return sum(xs, base)\n"
    )
    caller = (
        "area(2.0, 3.0)\n"
        "b = Box(2.0)\n"
        "b.scaled(**{'k': 3.0})\n"
        "spread(1, 2)\n"
    )
    assert unset_params({"shapes.py": module}, [module, caller]) == [
        "shapes.py line 1: area(unit)",
        "shapes.py line 4: Box(tag)",
        "shapes.py line 8: spread(base)",
    ]
