"""Scene files and the command line driver, run in process."""
import argparse
import json
import math

import pytest

from relmetric.cli import EXIT_SPEC, build_parser, main
from relmetric.errors import SceneInvalid
from relmetric.geom import PlanarDomain, Point2, Segment2
from relmetric.sceneio import (
    Scene,
    canonical_float,
    matrix_csv,
    parse_scene,
    render_svg,
    save_scene,
    scene_to_json,
)

P = Point2


def write_scene(tmp_path, name, scene):
    path = tmp_path / name
    save_scene(scene, path)
    return str(path)


def square_scene(size=1.0, extra_points=None):
    pts = {
        "sw": P(0, 0),
        "se": P(size, 0),
        "ne": P(size, size),
        "nw": P(0, size),
    }
    pts.update(extra_points or {})
    return Scene(
        domain=PlanarDomain([P(0, 0), P(size, 0), P(size, size), P(0, size)]),
        points=pts,
    )


def slit_scene():
    return Scene(
        domain=PlanarDomain(
            [P(0, 0), P(2, 0), P(2, 2), P(0, 2)],
            slits=(Segment2(P(1, 0.5), P(1, 1.5)),),
        ),
        points={"w": P(0.5, 1.0), "e": P(1.5, 1.0), "on": P(1.0, 1.0)},
        hints={"on": "left"},
    )


# -- scene files ---------------------------------------------------------------


def test_serialization_is_a_fixed_point():
    text = scene_to_json(slit_scene())
    again = scene_to_json(parse_scene(text))
    assert text == again
    assert text.endswith("\n")


def test_canonical_float_collapses_noise():
    assert canonical_float(0.1 + 0.2) == 0.3
    assert canonical_float(1.0) == 1.0


def test_unknown_fields_rejected():
    text = scene_to_json(square_scene())
    data = json.loads(text)
    data["surprise"] = 1
    with pytest.raises(SceneInvalid):
        parse_scene(json.dumps(data))

    data = json.loads(text)
    data["domain"]["inner"] = []
    with pytest.raises(SceneInvalid):
        parse_scene(json.dumps(data))

    data = json.loads(text)
    data["config"]["fast"] = True
    with pytest.raises(SceneInvalid):
        parse_scene(json.dumps(data))


def test_bad_hints_rejected():
    with pytest.raises(SceneInvalid):
        scene = Scene(
            domain=square_scene().domain,
            points={"a": P(0.5, 0.5)},
            hints={"a": "up"},
        )
        parse_scene(scene_to_json(scene))
    with pytest.raises(SceneInvalid):
        parse_scene(
            scene_to_json(
                Scene(domain=square_scene().domain, hints={"ghost": "left"})
            )
        )


def test_generator_block_round_trips():
    scene = Scene(
        domain=square_scene().domain,
        generator={"kind": "bespoke", "note": "kept verbatim", "n": 3},
    )
    back = parse_scene(scene_to_json(scene))
    assert back.generator == scene.generator


def test_matrix_csv_layout():
    csv = matrix_csv(["a", "b"], [[0.0, math.inf], [math.inf, 0.0]])
    lines = csv.strip().split("\n")
    assert lines[0] == ",a,b"
    assert lines[1] == "a,0,inf"


def test_render_svg_smoke():
    svg = render_svg(slit_scene())
    assert svg.startswith("<svg")
    assert 'stroke="#b91c1c"' in svg  # the slit is drawn
    assert "</svg>" in svg


# -- gen -----------------------------------------------------------------------


def test_gen_comb_counts(tmp_path, capsys):
    out = str(tmp_path / "comb.json")
    assert main(["gen", "comb", "--depth", "8", "--out", out]) == 0
    scene = parse_scene(open(out).read())
    assert len(scene.domain.outer) == 4 * 8 + 3
    assert set(scene.points) == {"probe", "target"}


def test_gen_family_counts_and_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "family.json")
    assert main(["gen", "family", "--levels", "2", "--out", out]) == 0
    text = open(out).read()
    scene = parse_scene(text)
    assert len(scene.segments) == 45
    assert set(scene.points) >= {"A", "D"}
    assert scene_to_json(scene) == text


def test_gen_svg_written(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    fig = str(tmp_path / "s.svg")
    assert main(["gen", "comb", "--out", out, "--svg", fig]) == 0
    assert open(fig).read().startswith("<svg")


# -- dist / matrix ----------------------------------------------------------------


def test_dist_square_diagonal(tmp_path, capsys):
    scene = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["dist", scene, "sw", "ne"]) == 0
    out = capsys.readouterr().out
    assert "value 1.41421356237" in out
    assert "converged true" in out


def test_dist_slit_hint_usage(tmp_path, capsys):
    # hinted slit point computes; the same point without a hint is a usage error
    scene = write_scene(tmp_path, "slit.json", slit_scene())
    assert main(["dist", scene, "on", "e"]) == 0
    # offset-limit estimate of the around-the-tip value 0.5 + sqrt(0.5)
    assert "value 1.20710668119" in capsys.readouterr().out
    bare = Scene(
        domain=slit_scene().domain, points={"on": P(1.0, 1.0), "e": P(1.5, 1.0)}
    )
    path = write_scene(tmp_path, "bare.json", bare)
    assert main(["dist", path, "on", "e"]) == 1
    # the same holds on a bare-segment scene, evaluated in place
    wall = Segment2(P(1.0, 0.5), P(1.0, 1.5))
    points = {"on": P(1.0, 1.0), "e": P(1.5, 1.0)}
    hinted = Scene(segments=(wall,), points=points, hints={"on": "right"})
    capsys.readouterr()
    assert main(["dist", write_scene(tmp_path, "seg.json", hinted), "on", "e"]) == 0
    assert "value 0.5" in capsys.readouterr().out
    unhinted = Scene(segments=(wall,), points=points)
    assert main(["dist", write_scene(tmp_path, "seg_bare.json", unhinted), "on", "e"]) == 1


def test_dist_unreachable_exits_2(tmp_path, capsys):
    boxed = Scene(
        segments=(
            Segment2(P(0, 0), P(1, 0)),
            Segment2(P(1, 0), P(1, 1)),
            Segment2(P(1, 1), P(0, 1)),
            Segment2(P(0, 1), P(0, 0)),
        ),
        points={"in": P(0.5, 0.5), "out": P(2, 2)},
    )
    path = write_scene(tmp_path, "box.json", boxed)
    assert main(["dist", path, "in", "out"]) == 2
    assert "inf" in capsys.readouterr().out


def test_dist_unknown_point(tmp_path, capsys):
    scene = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["dist", scene, "sw", "nowhere"]) == 1


def test_matrix_deterministic(tmp_path, capsys):
    scene = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["matrix", scene]) == 0
    first = capsys.readouterr().out
    assert main(["matrix", scene]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == ",ne,nw,se,sw"


def test_matrix_subset_and_file(tmp_path, capsys):
    scene = write_scene(tmp_path, "sq.json", square_scene())
    out = str(tmp_path / "m.csv")
    assert main(["matrix", scene, "--points", "sw,ne", "--csv", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == ",sw,ne"
    assert lines[1].startswith("sw,0,1.41421356237")


# -- check -----------------------------------------------------------------------


def test_check_metric_passes_on_square(tmp_path, capsys):
    scene = write_scene(
        tmp_path,
        "sq.json",
        square_scene(extra_points={"a": P(0.3, 0.3), "b": P(0.7, 0.4), "c": P(0.5, 0.8)}),
    )
    assert main(["check", "metric", scene, "--points", "a,b,c"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_metric_samples_interior_points(tmp_path, capsys):
    # with fewer than three named points the check draws its own, seeded
    two = Scene(domain=square_scene().domain, points={"a": P(0.2, 0.2), "b": P(0.8, 0.8)})
    scene = write_scene(tmp_path, "two.json", two)
    assert main(["check", "metric", scene, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "points 12" in first.splitlines()
    assert main(["check", "metric", scene, "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    # fewer than three samples make no triple to check
    for n in (0, 1, 2):
        assert main(["check", "metric", scene, "--samples", str(n)]) == EXIT_SPEC
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
    assert main(["check", "metric", scene, "--samples", "3"]) == 0
    assert "points 3" in capsys.readouterr().out.splitlines()


def test_check_metric_named_points_must_resolve(tmp_path, capsys):
    # named points are never replaced by random ones: an unknown name or
    # fewer than three names is an error
    scene = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["check", "metric", scene, "--points", "sw,zz"]) == 1
    assert main(["check", "metric", scene, "--points", "sw,ne"]) == 1
    assert "points" not in capsys.readouterr().out
    assert main(["check", "metric", scene, "--points", "sw,ne,nw"]) == 0
    assert "points 3" in capsys.readouterr().out.splitlines()


def test_check_geodesic_needs_both_endpoints(tmp_path, capsys):
    scene = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["check", "geodesic", scene, "--p", "sw"]) == 1
    assert main(["check", "geodesic", scene, "--p", "sw", "--q", "ne"]) == 0


def test_check_circ_flags_slit(tmp_path, capsys):
    scene = write_scene(tmp_path, "slit.json", slit_scene())
    assert main(["check", "circ", scene, "--samples", "8"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_check_ambient(tmp_path, capsys):
    sq = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["check", "ambient", sq, "--points", "sw,ne"]) == 0
    slit = write_scene(tmp_path, "slit.json", slit_scene())
    assert main(["check", "ambient", slit, "--points", "w,e"]) == 3
    # the hinted slit point "on" sits on the west face: w is in plain view,
    # e lies behind the slit
    capsys.readouterr()
    assert main(["check", "ambient", slit, "--points", "on,w"]) == 0
    assert "max_gap 0\n" in capsys.readouterr().out
    assert main(["check", "ambient", slit, "--points", "on,e"]) == 3
    assert "max_gap 0.707106781187" in capsys.readouterr().out


def family_scene(tmp_path):
    path = str(tmp_path / "fam.json")
    assert main(["gen", "family", "--levels", "2", "--out", path]) == 0
    return path


def test_matrix_on_segments_scene_uses_the_oracle(tmp_path, capsys):
    # the family's segments make A-D longer than the chord 0.517638090205
    fam = family_scene(tmp_path)
    capsys.readouterr()
    assert main(["dist", fam, "A", "D"]) == 0
    assert "value 1.62470440778" in capsys.readouterr().out
    assert main(["matrix", fam, "--points", "A,D"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "A,0,1.62470440778"
    # hints reach the oracle, as in dist
    wall = Segment2(P(1.0, 0.5), P(1.0, 1.5))
    points = {"on": P(1.0, 1.0), "e": P(1.5, 1.0)}
    hinted = write_scene(
        tmp_path, "seg.json", Scene(segments=(wall,), points=points, hints={"on": "right"})
    )
    assert main(["matrix", hinted]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "e,0,0.5"


def test_domain_metric_commands_reject_segments_scenes(tmp_path, capsys):
    fam = family_scene(tmp_path)
    sq = write_scene(tmp_path, "sq.json", square_scene())
    assert main(["check", "ambient", fam, "--points", "A,D"]) == 1
    assert main(["check", "metric", fam]) == 1
    assert main(["compare", fam, sq]) == 1
    assert main(["compare", sq, fam]) == 1
    assert "verdict" not in capsys.readouterr().out


# -- repro ------------------------------------------------------------------------


def test_repro_comb(capsys):
    assert main(["repro", "comb", "--depths", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "4 2.7074800292" in out


def test_repro_bound_and_defect(capsys):
    assert main(["repro", "bound", "--levels", "2"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["repro", "defect", "--levels", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "4.92820323028" in out


# -- compare ------------------------------------------------------------------------


def test_compare_congruent_and_not(tmp_path, capsys):
    sq1 = write_scene(tmp_path, "a.json", square_scene())
    # unit square turned by the 3-4-5 angle and shifted
    rot = PlanarDomain(
        [P(2.0, 0.0), P(2.6, 0.8), P(1.8, 1.4), P(1.2, 0.6)]
    )
    sq2 = write_scene(tmp_path, "b.json", Scene(domain=rot))
    assert main(["compare", sq1, sq2, "--samples", "8"]) == 0
    out = capsys.readouterr().out
    assert "congruent true" in out

    rect = write_scene(
        tmp_path,
        "c.json",
        Scene(domain=PlanarDomain([P(0, 0), P(2, 0), P(2, 1), P(0, 1)])),
    )
    assert main(["compare", sq1, rect, "--samples", "8"]) == 3


def test_compare_has_no_offset_flags(tmp_path, capsys):
    # profiles use the closure evaluation, so offset settings have no say
    sq = write_scene(tmp_path, "a.json", square_scene())
    for flag, value in (("--offsets", "0.1"), ("--extrapolation", "richardson")):
        with pytest.raises(SystemExit) as exc:
            main(["compare", sq, sq, flag, value])
        assert exc.value.code == 1


def test_check_closure_commands_have_no_offset_settings(tmp_path, capsys):
    # convexity, circ and ambient use the closure evaluation
    sq = write_scene(tmp_path, "a.json", square_scene())
    for what in ("convexity", "circ", "ambient"):
        for flag, value in (("--offsets", "0.1"), ("--extrapolation", "richardson")):
            capsys.readouterr()
            assert main(["check", what, sq, flag, value]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


# -- usage errors ---------------------------------------------------------------------


def test_malformed_offsets_are_usage_errors(tmp_path, capsys):
    sq = write_scene(tmp_path, "a.json", square_scene())
    commands = (["dist", sq, "sw", "ne"], ["matrix", sq], ["check", "metric", sq])
    for argv in commands:
        for value in ("abc", "0.1,abc", "nan", "inf,0.01", "0.01,nan"):
            capsys.readouterr()
            assert main(argv + ["--offsets", value]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error: ") and out.err.count("\n") == 1
            assert "Traceback" not in out.err


def test_non_finite_tolerances_and_scene_offsets_are_usage_errors(tmp_path, capsys):
    # a NaN tolerance would pass any matrix and a NaN offset print a NaN row;
    # Python's json reads NaN and Infinity in a scene file
    sq = write_scene(tmp_path, "a.json", square_scene())
    raw = json.loads(open(sq).read())
    runs = [["check", "metric", sq, "--tol", tol] for tol in ("nan", "inf", "-1")]
    for key, value in (("tol_metric", math.nan), ("tol_metric", math.inf), ("offsets", [0.01, math.nan])):
        path = tmp_path / f"{key}-{value}.json"
        path.write_text(json.dumps({**raw, "config": {**raw["config"], key: value}}))
        runs += [["check", "metric", str(path)], ["dist", str(path), "sw", "ne"]]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == EXIT_SPEC, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


def _float_flags(parser, path=()):
    """(subcommand path, flag) of every option that reads '0.5' as a float."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _float_flags(sub, path + (name,))
        elif action.option_strings and action.type is not None:
            try:
                if isinstance(action.type("0.5"), float):
                    yield path, action.option_strings[0]
            except (TypeError, ValueError):
                pass


def test_every_float_flag_rejects_nan_inf_and_negatives(tmp_path, capsys):
    # a NaN tolerance failed every verdict and an infinite one passed it
    sq = write_scene(tmp_path, "a.json", square_scene())
    commands = {
        ("gen", "comb"): [["gen", "comb"]],
        ("gen", "spiral"): [["gen", "spiral"]],
        ("check",): [["check", what, sq] for what in ("metric", "geodesic", "convexity", "circ", "ambient")],
        ("repro", "labyrinth"): [["repro", "labyrinth"]],
        ("repro", "bound"): [["repro", "bound"]],
        ("compare",): [["compare", sq, sq]],
    }
    flags = list(_float_flags(build_parser()))
    assert {path for path, _ in flags} == set(commands)
    for path, flag in flags:
        for argv in commands[path]:
            for value in ("nan", "inf", "-1"):
                capsys.readouterr()
                assert main(argv + [flag, value]) == EXIT_SPEC, (argv, flag, value)
                out = capsys.readouterr()
                assert out.out == ""
                assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_tol_floor_is_below_one(capsys):
    for value in ("1", "2.5"):
        assert main(["repro", "bound", "--tol-floor", value]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: --tol-floor must be a number in [0, 1), got {value}\n"


def test_malformed_depths_are_usage_errors(capsys):
    for value in ("x", "4,x", "4,0.5"):
        capsys.readouterr()
        assert main(["repro", "comb", "--depths", value]) == EXIT_SPEC
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --depths must be comma-separated integers, got {value!r}\n"


def test_verdicts_that_would_compare_nothing_are_usage_errors(tmp_path, capsys):
    # one depth gives no increment, one sample no pair: a PASS would be vacuous
    sq = write_scene(tmp_path, "a.json", square_scene())
    commands = [["repro", "comb", "--depths", value] for value in ("4", ",")]
    commands += [["check", what, sq, "--samples", "1"] for what in ("convexity", "circ")]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == EXIT_SPEC
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: need at least two ") and out.err.count("\n") == 1


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_scene_file_exits_1(capsys):
    assert main(["dist", "/no/such/file.json", "a", "b"]) == 1


def test_malformed_scene_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"domain": {"outer": [[0,0],[1,0],[1,1]]}, "oops": 1}\n')
    assert main(["dist", str(path), "a", "b"]) == 1
