"""Golden stdout and exit codes of fast CLI commands.

The expectations in ``cli_golden.json`` were recorded from the same commands
and guard the command line against unintended output changes.  Numbers below
1e-9 in magnitude (round-off residuals such as ``2.22044604925e-16``) match
any other number below 1e-9; everything else must match byte for byte, with
the scene directory written as ``<tmp>``.

Run this file as a script to re-record the expectations after an intended
output change: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from relmetric.cli import main
from relmetric.geom import PlanarDomain, Point2, polygon_edges
from relmetric.sceneio import Scene, save_scene
from test_cli import slit_scene, square_scene

P = Point2
GOLDEN = Path(__file__).with_name("cli_golden.json")
TINY = 1e-9
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

COMMANDS = [
    "gen comb --depth 4 --out <tmp>/comb.json",
    "gen family --levels 2 --out <tmp>/fam.json",
    "dist <tmp>/slit.json on e",
    "dist <tmp>/comb.json probe target",
    "dist <tmp>/fam.json A D",
    "matrix <tmp>/slit.json",
    "matrix <tmp>/comb.json",
    "matrix <tmp>/fam.json",
    "check metric <tmp>/sq.json --points a,b,c",
    "check metric <tmp>/slit.json",
    "check geodesic <tmp>/slit.json --p w --q e",
    "check geodesic <tmp>/sq.json --p sw --q ne",
    "check geodesic <tmp>/comb.json --p probe --q target",
    "check convexity <tmp>/sq.json --samples 8",
    "check convexity <tmp>/comb.json --samples 8",
    "check circ <tmp>/slit.json --samples 8",
    "check ambient <tmp>/sq.json --points sw,ne",
    "check ambient <tmp>/slit.json --points w,e",
    "repro comb --depths 4,8",
    "repro detour --levels 2",
    "repro strips --levels 2",
    "repro defect --levels 2",
    "compare <tmp>/sq.json <tmp>/rot.json --samples 8",
    "compare <tmp>/sq.json <tmp>/rot.json --samples 8 --eta 0.05",
    "compare <tmp>/sq.json <tmp>/rect.json --samples 8 --eta 0.05",
    "gen comb --depth 2 --svg <tmp>/comb2.svg",
    "gen spiral --coils 1 --samples-per-coil 8 --out <tmp>/spiral.json",
    "gen strips --levels 1 --coils 1 --samples-per-coil 8 --out <tmp>/strips.json",
    "matrix <tmp>/slit.json --csv <tmp>/m.csv",
    "dist <tmp>/box.json in out",
    "matrix <tmp>/box.json",
    "repro bound --levels 2",
    "repro labyrinth --threshold 1 --m-max 2",
    "repro labyrinth --threshold 100 --m-max 1 --samples-per-coil 16",
    "compare <tmp>/sq.json <tmp>/rot.json --samples 8 --csv <tmp>/p.csv --svg <tmp>/p.svg",
]


def _write_scenes(tmp: Path) -> None:
    extra = {"a": P(0.3, 0.3), "b": P(0.7, 0.4), "c": P(0.5, 0.8)}
    save_scene(slit_scene(), tmp / "slit.json")
    save_scene(square_scene(extra_points=extra), tmp / "sq.json")
    # the unit square turned by the 3-4-5 angle and shifted, and a 2x1 box
    rot = PlanarDomain([P(2.0, 0.0), P(2.6, 0.8), P(1.8, 1.4), P(1.2, 0.6)])
    save_scene(Scene(domain=rot), tmp / "rot.json")
    rect = PlanarDomain([P(0, 0), P(2, 0), P(2, 1), P(0, 1)])
    save_scene(Scene(domain=rect), tmp / "rect.json")
    # a closed box of four obstacle segments: "out" cannot reach "in"
    box = tuple(polygon_edges([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]))
    save_scene(Scene(points={"in": P(0.5, 0.5), "out": P(2, 0.5)}, segments=box),
               tmp / "box.json")


def _run_all(tmp: Path) -> dict:
    """Run every command in order (the gen commands write later inputs)."""
    _write_scenes(tmp)
    out = {}
    for cmd in COMMANDS:
        argv = cmd.replace("<tmp>", str(tmp)).split()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[cmd] = {"exit": code, "stdout": buf.getvalue().replace(str(tmp), "<tmp>")}
    return out


def _same_text(got: str, want: str) -> bool:
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return False
    for k, (a, b) in enumerate(zip(g, w)):
        if a == b:
            continue
        if k % 2 == 0 or not (abs(float(a)) < TINY and abs(float(b)) < TINY):
            return False
    return True


def test_same_text_rule():
    assert _same_text("max_deviation 2.22e-16\n", "max_deviation 0\n")
    assert not _same_text("value 1.0000000001\n", "value 1\n")
    assert not _same_text("gap 2e-9\n", "gap 0\n")
    assert not _same_text("pairs 1\n", "pairs 1 2\n")


def test_cli_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = _run_all(tmp_path)
    assert list(got) == list(want)
    for cmd, res in got.items():
        assert res["exit"] == want[cmd]["exit"], cmd
        assert _same_text(res["stdout"], want[cmd]["stdout"]), (
            f"{cmd}\n--- got\n{res['stdout']}--- want\n{want[cmd]['stdout']}"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(json.dumps(_run_all(Path(d)), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
