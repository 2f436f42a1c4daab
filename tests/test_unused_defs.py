"""Every function and method is used by the program.

A definition that only tests call is code kept alive for its tests.  Each
function and method of the package is parsed from its module, and one whose
name is never read in ``src/`` or ``perfbench/`` (as ``name``, ``obj.name``
or an imported name, so ``relmetric/__init__.py`` exports count) fails the
test.  Calls from ``tests/`` do not count.  Special methods (``__init__``
and the like) are called by Python itself and are skipped.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "relmetric").glob("*.py"))
USERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))


def defs(source: str) -> list[tuple[str, int]]:
    """(name, line) of each function and method, special methods excluded."""
    return sorted(
        ((node.name, node.lineno) for node in ast.walk(ast.parse(source))
         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
         and not (node.name.startswith("__") and node.name.endswith("__"))),
        key=lambda d: d[1],
    )


def names_read(source: str) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_defs(modules: dict[str, str], users: list[str]) -> list[str]:
    read = set().union(*map(names_read, users))
    return [
        f"{module} line {line}: {name}"
        for module, source in modules.items()
        for name, line in defs(source)
        if name not in read
    ]


def test_every_def_is_used_by_the_program():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unused_defs(modules, [p.read_text() for p in USERS]) == []


def test_detects_an_unused_def():
    module = (
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "    def area(self):\n"
        "        return self.size ** 2\n"
        "    def spare(self):\n"
        "        return 0\n"
        "def helper(b):\n"
        "    return b.area()\n"
        "def exported():\n"
        "    return helper(Box(1))\n"
        "def orphan():\n"
        "    return 1\n"
    )
    package = "from .shapes import exported\n"
    assert unused_defs({"shapes.py": module}, [module, package]) == [
        "shapes.py line 6: spare",
        "shapes.py line 12: orphan",
    ]
