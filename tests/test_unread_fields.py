"""Every dataclass field is read.

A field that nothing reads still has to be filled in by every constructor
call.  Each dataclass of the package is parsed from its module, and a field
whose name is never read as an attribute (``obj.name``) in ``src/``,
``tests/`` or ``perfbench/`` fails the test.  This file is not counted as a
reader: it reads ``ast`` attributes that could hide a field of that name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "relmetric").glob("*.py"))
READERS = sorted(
    p
    for d in ("src", "tests", "perfbench")
    for p in (ROOT / d).rglob("*.py")
    if p != Path(__file__).resolve()
)


def _decorator_name(dec: ast.expr) -> str | None:
    target = dec.func if isinstance(dec, ast.Call) else dec
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def dataclass_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) for each annotated field of each dataclass."""
    return [
        (node.name, stmt.target.id, stmt.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def attributes_read(source: str) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    read = set().union(*map(attributes_read, readers))
    return [
        f"{module} line {line}: {cls}.{name}"
        for module, source in modules.items()
        for cls, name, line in dataclass_fields(source)
        if name not in read
    ]


def test_every_dataclass_field_is_read():
    modules = {p.name: p.read_text() for p in MODULES}
    assert unread_fields(modules, [p.read_text() for p in READERS]) == []


def test_detects_an_unread_field():
    module = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int = 0\n"
        "@dataclasses.dataclass\n"
        "class Box:\n"
        "    size: float\n"
        "class Plain:\n"
        "    width: float\n"
    )
    reader = "p.left = 1\nprint(p.right.real)\n"
    assert unread_fields({"pair.py": module}, [module, reader]) == [
        "pair.py line 5: Pair.left",
        "pair.py line 9: Box.size",
    ]
