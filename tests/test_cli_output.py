"""The command line has one output emitter.

Every stdout line of ``relmetric.cli`` goes through ``_say``, which owns the
token format, or ``_write``, which owns file and CSV/SVG/JSON output; the
handlers only pass values.
"""
import ast
import math
from pathlib import Path

import numpy as np

import relmetric.cli as cli
from relmetric.geom import Point2


def _calls_by_function() -> list[tuple[str | None, ast.Call]]:
    """(enclosing top-level function name, call) for every call in cli.py."""
    tree = ast.parse(Path(cli.__file__).read_text())
    out = []
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        out += [(name, node) for node in ast.walk(top) if isinstance(node, ast.Call)]
    return out


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_stdout_write(func: ast.AST) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "write"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "stdout"
        and _is_name(func.value.value, "sys")
    )


def _to_stderr(call: ast.Call) -> bool:
    return any(
        kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in call.keywords
    )


def test_only_the_emitter_formats_stdout():
    misplaced = []
    for where, call in _calls_by_function():
        if _is_name(call.func, "print"):
            ok = where == "_say" or (where == "main" and _to_stderr(call))
        elif _is_name(call.func, "fmt12"):
            ok = where == "_say"
        elif _is_stdout_write(call.func):
            ok = where == "_write"
        else:
            continue
        if not ok:
            misplaced.append(f"line {call.lineno} in {where}: {ast.unparse(call.func)}")
    assert not misplaced, misplaced


def test_say_token_rules(capsys):
    cli._say(np.bool_(True), np.float64(0.1 + 0.2), math.inf, Point2(0.25, 0))
    assert capsys.readouterr().out == "true 0.3 inf (0.25, 0)\n"
