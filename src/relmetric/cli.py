"""Command-line front end.

Subcommands: gen (construction scenes), dist / matrix (distances), check
(metric, geodesic, convexity, circ, ambient), repro (one-shot reproduction
of the package's headline bounds with pass/fail verdicts) and compare
(boundary profiles, alignment, congruence).

Exit codes: 0 pass, 1 usage or spec error, 2 unreachable distance,
3 property violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import random
import sys
from pathlib import Path

import numpy as np

from .constructions import (
    LEG_A,
    LEG_D,
    CombSpec,
    SegmentFamilySpec,
    SpiralSpec,
    StripsReport,
    build_strips,
    clipped_family_scene,
    comb_divergence,
    comb_domain,
    labyrinth_min_coils,
    max_corner_detour_ratio,
    spiral_labyrinth,
    triangle_defect_report,
    verify_length_bound,
)
from .errors import (
    GeometryError,
    NotReachedWithinBound,
    SceneInvalid,
    SpecInvalid,
    TerminalInsideFloor,
    UnreachableError,
)
from ._batch import closure_parts
from .geom import EPS_GEOM, PlanarDomain, Point2, domain_arrays
from .metric import (
    EXTRAPOLATIONS,
    MetricConfig,
    check_metric_axioms,
    check_property_circ,
    check_rho_equals_ambient,
    check_strict_convexity,
    distance_matrix,
    extract_geodesic,
    matrix_values,
    rho,
)
from .rigidity import (
    boundary_arc_points,
    boundary_profile,
    compare_profiles,
    euclidean_congruence,
    transfer_from_profiles,
)
from .sceneio import (
    Scene,
    fmt12,
    load_scene,
    matrix_csv,
    render_svg,
    scene_to_json,
)
from .visibility import ObstacleScene, PreparedScene

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_UNREACHABLE = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    unreachable distances, so usage errors exit 1."""

    def error(self, message):
        self.exit(EXIT_SPEC, f"{self.prog}: error: {message}\n")


def _say(*tokens) -> None:
    """Print one output line: the tokens joined by spaces, floats at 12
    significant digits, booleans as true/false and points as (x, y)."""
    words = []
    for t in tokens:
        if isinstance(t, (bool, np.bool_)):
            t = "true" if t else "false"
        elif isinstance(t, (float, np.floating)):
            t = fmt12(t)
        elif isinstance(t, Point2):
            t = f"({fmt12(t.x)}, {fmt12(t.y)})"
        words.append(str(t))
    print(" ".join(words))


def _write(text: str, path: str | None) -> None:
    """Write text to the file at path and say so, or to stdout without one."""
    if path:
        Path(path).write_text(text)
        _say("wrote", path)
    else:
        sys.stdout.write(text)


def _verdict(ok: bool) -> int:
    _say("verdict", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VIOLATION


def _strips(args) -> StripsReport:
    return build_strips(
        SegmentFamilySpec(args.levels),
        coils=args.coils,
        samples_per_coil=args.samples_per_coil,
    )


def _values(text: str, kind: type, flag: str, noun: str) -> tuple:
    try:
        return tuple(kind(d) for d in text.split(",") if d)
    except ValueError:
        raise SpecInvalid(f"{flag} must be comma-separated {noun}, got {text!r}") from None


def _cfg_from(scene: Scene, args) -> MetricConfig:
    updates = {}
    if args.offsets:
        updates["offsets"] = _values(args.offsets, float, "--offsets", "numbers")
    if args.extrapolation:
        updates["extrapolation"] = args.extrapolation
    return dataclasses.replace(scene.config, **updates) if updates else scene.config


def _limit(flag: str, top: float = math.inf):
    """argparse type of a tolerance or threshold flag: a number in [0, top),
    so that NaN or infinity is a usage error, not a verdict."""
    def number(text: str) -> float:
        if not 0.0 <= (value := float(text)) < top:
            raise SpecInvalid(f"{flag} must be a number in [0, {top:g}), got {text}")
        return value
    return number


def _name_list(text: str) -> list[str]:
    return [n for n in text.split(",") if n]


def _named_points(scene: Scene, names: list[str]) -> tuple[list[Point2], list[str | None]]:
    """Positions and side hints of the named points."""
    for name in names:
        if name not in scene.points:
            raise SceneInvalid(f"no point named {name!r} in the scene")
    return [scene.points[n] for n in names], [scene.hints.get(n) for n in names]


def _domain_of(scene: Scene, command: str) -> PlanarDomain:
    """The domain of a scene without obstacle segments, for the commands
    defined on the domain metric."""
    if scene.domain is None:
        raise SceneInvalid(f"{command} needs a scene with a domain")
    if scene.segments:
        raise SceneInvalid(
            f"{command} is defined on the domain metric; the scene has obstacle segments"
        )
    return scene.domain


def _oracle_lengths(scene: Scene, pts: list[Point2], hints: list[str | None]) -> np.ndarray:
    """Pairwise shortest-path lengths in a scene with obstacle segments,
    inf where a pair is unreachable."""
    paths = PreparedScene(ObstacleScene(scene.segments, scene.domain)).shortest_paths(pts, hints)
    out = np.zeros((len(pts), len(pts)))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out[i, j] = out[j, i] = paths[i][j].length
    return out


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _gen_comb(args) -> Scene:
    spec = CombSpec(args.depth, args.cap_width)
    return Scene(
        domain=comb_domain(spec),
        points={"probe": Point2(1.0, 1.5), "target": Point2(spec.cap, spec.cap)},
        generator={"kind": "comb", "depth": spec.depth, "cap_width": spec.cap},
    )


def _gen_family(args) -> Scene:
    if args.levels < 1:
        raise SpecInvalid("family needs at least one level")
    obs = clipped_family_scene(range(1, args.levels + 1))
    return Scene(
        domain=obs.boundary,
        points={"A": LEG_A, "D": LEG_D},
        segments=obs.segments,
        generator={
            "kind": "family",
            "levels": args.levels,
            "r_min": 4.0 * 2.0**-args.levels,
        },
    )


def _gen_spiral(args) -> Scene:
    spec = SpiralSpec(args.radius, args.coils, args.pitch, args.samples_per_coil)
    lab = spiral_labyrinth(spec)
    return Scene(
        points={"entrance": lab.entrance, "exit": lab.exit},
        segments=lab.scene.segments,
        generator={
            "kind": "spiral",
            "start_radius": spec.start_radius,
            "coils": spec.coils,
            "pitch": spec.pitch,
            "samples_per_coil": spec.samples_per_coil,
        },
    )


def _gen_strips(args) -> Scene:
    report = _strips(args)
    segs = tuple(s for t in report.trapezia for s in t.sides())
    return Scene(
        segments=segs,
        generator={
            "kind": "strips",
            "levels": args.levels,
            "coils": args.coils,
            "samples_per_coil": args.samples_per_coil,
            "strip_count": len(report.strips),
            "note": "segments are the meridian-plane strip footprints",
        },
    )


def cmd_gen(args) -> int:
    scene = args.build(args)
    _write(scene_to_json(scene), args.out)
    if args.svg:
        _write(render_svg(scene), args.svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dist / matrix
# ---------------------------------------------------------------------------


def cmd_dist(args) -> int:
    scene = load_scene(args.scene)
    (p, q), (hint_p, hint_q) = _named_points(scene, [args.p, args.q])
    if scene.segments:
        length = _oracle_lengths(scene, [p, q], [hint_p, hint_q])[0, 1]
        _say("value", length)
        if math.isinf(length):
            return EXIT_UNREACHABLE
        _say("evaluation oracle-exact")
        return EXIT_OK
    domain = _domain_of(scene, "dist")
    est = rho(domain, p, q, _cfg_from(scene, args), hint_x=hint_p, hint_y=hint_q)
    _say("value", est.value)
    _say("converged", est.converged)
    _say("offset length")
    for delta, length in est.per_offset:
        _say(delta, length)
    return EXIT_UNREACHABLE if math.isinf(est.value) else EXIT_OK


def cmd_matrix(args) -> int:
    scene = load_scene(args.scene)
    names = args.points or sorted(scene.points)
    if len(names) < 2:
        raise SceneInvalid("need at least two points")
    pts, hints = _named_points(scene, names)
    if scene.segments:
        values = _oracle_lengths(scene, pts, hints)
    else:
        domain = _domain_of(scene, "matrix")
        values = matrix_values(distance_matrix(domain, pts, _cfg_from(scene, args), hints))
    _write(matrix_csv(names, values), args.csv)
    return EXIT_UNREACHABLE if bool(np.isinf(values).any()) else EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _random_interior_points(
    domain, n: int, seed: int, clearance: float
) -> list[Point2]:
    rng = random.Random(seed)
    xs = [p.x for p in domain.outer]
    ys = [p.y for p in domain.outer]
    FA, FB, _, outer, holes = domain_arrays(domain)
    out: list[Point2] = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 20000:
            raise SceneInvalid(
                "could not place interior sample points; domain too thin "
                "for the requested clearance"
            )
        p = Point2(
            rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys))
        )
        # inside, and further than the clearance from every boundary feature
        near, inside = closure_parts(np.array([p.as_tuple()]), outer, holes, FA, FB, max(clearance, EPS_GEOM))
        if inside[0] and not near[0]:
            out.append(p)
    return out


def _check_metric(args, scene: Scene, domain: PlanarDomain) -> int:
    cfg = _cfg_from(scene, args)
    tol = args.tol if args.tol is not None else cfg.tol_metric
    if args.points or len(scene.points) >= 3:
        pts, hints = _named_points(scene, args.points or sorted(scene.points))
    else:
        pts, hints = _random_interior_points(domain, args.samples, args.seed, max(cfg.offsets)), None
    if len(pts) < 3:
        raise SpecInvalid("metric check needs at least three points, named or sampled")
    matrix = distance_matrix(domain, pts, cfg, hints)
    rep = check_metric_axioms(matrix, tol)
    _say("points", len(pts))
    _say("symmetry_violations", len(rep.symmetry_violations))
    _say("triangle_violations", len(rep.triangle_violations))
    _say("identity_violations", len(rep.identity_violations))
    return _verdict(rep.ok)


def _check_geodesic(args, scene: Scene, domain: PlanarDomain) -> int:
    cfg = _cfg_from(scene, args)
    if bool(args.p) != bool(args.q):
        raise SceneInvalid("--p and --q go together")
    pair = [args.p, args.q] if args.p else sorted(scene.points)[:2]
    if len(pair) < 2:
        raise SceneInvalid("geodesic check needs two named points")
    (p, q), (hint_p, hint_q) = _named_points(scene, pair)
    tol = args.tol if args.tol is not None else 1e-6
    gc = extract_geodesic(
        domain, p, q, cfg, hint_x=hint_p, hint_y=hint_q, grid=args.grid
    )
    _say("length", gc.length)
    _say("max_deviation", gc.max_deviation)
    _say("one_sided_max", gc.one_sided_max)
    ok = gc.max_deviation <= tol and gc.one_sided_max <= args.one_sided_tol
    return _verdict(ok)


def _check_witnesses(check, args, scene: Scene, domain: PlanarDomain) -> int:
    """convexity and circ: `check` gives a ConvexityReport on boundary samples."""
    samples = boundary_arc_points(domain, args.samples)
    rep = check(domain, samples, args.eta)
    _say("samples", len(samples), "eta", args.eta)
    _say("witnesses", len(rep.witnesses))
    for i, j, where, clear in rep.witnesses[:5]:
        _say("witness pair", f"({i},{j})", "touches near", where, "clearance", clear)
    return _verdict(rep.strictly_convex)


def _check_ambient(args, scene: Scene, domain: PlanarDomain) -> int:
    selected = args.points or sorted(scene.points)
    if len(selected) < 2:
        raise SceneInvalid("ambient check needs at least two named points")
    pts, hints = _named_points(scene, selected)
    tol = args.tol if args.tol is not None else 1e-9
    gap = check_rho_equals_ambient(domain, pts, hints)
    _say("pairs", len(pts) * (len(pts) - 1) // 2)
    _say("max_gap", gap)
    return _verdict(gap <= tol)


_CHECKS = {
    "metric": _check_metric,
    "geodesic": _check_geodesic,
    "convexity": functools.partial(_check_witnesses, check_strict_convexity),
    "circ": functools.partial(_check_witnesses, check_property_circ),
    "ambient": _check_ambient,
}


def cmd_check(args) -> int:
    if args.what in ("convexity", "circ", "ambient") and (args.offsets or args.extrapolation):
        # these checks use the closure evaluation, which has no offsets
        raise SpecInvalid(f"check {args.what} takes no --offsets or --extrapolation")
    scene = load_scene(args.scene)
    return _CHECKS[args.what](args, scene, _domain_of(scene, "check"))


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------


def _repro_labyrinth(args) -> int:
    try:
        coils, trace = labyrinth_min_coils(
            args.radius,
            args.pitch,
            m_max=args.m_max,
            samples_per_coil=args.samples_per_coil,
            threshold=args.threshold,
        )
    except NotReachedWithinBound as exc:
        _say("search failed:", exc)
        return _verdict(False)
    _say("coils length")
    for m, length in trace:
        _say(m, length)
    _say("min_coils", coils)
    _say("threshold", args.threshold)
    return _verdict(True)


def _repro_bound(args) -> int:
    spec = SegmentFamilySpec(args.levels)
    floor = 6.0 * (1.0 - args.tol_floor)
    try:
        _, length = verify_length_bound(spec, tol_floor=args.tol_floor)
    except (SpecInvalid, TerminalInsideFloor):
        raise
    except GeometryError as exc:
        _say("bound violated:", exc)
        return _verdict(False)
    _, control = verify_length_bound(spec, include_obstacles=False)
    _say("levels", args.levels)
    _say("length", length)
    _say("floor", floor)
    _say("control", control)
    return _verdict(length >= floor and control < 2.1)


def _repro_defect(args) -> int:
    rep = triangle_defect_report(args.levels)
    _say("levels", rep.levels)
    _say("confined_length", rep.confined_length)
    _say("detour_ratio_bound", rep.detour_ratio_bound)
    _say("projected_lower_bound", rep.projected_lower_bound)
    _say("legs_total", rep.legs_total)
    _say("escape_length", rep.escape_length)
    return _verdict(rep.defect_confirmed)


def _repro_comb(args) -> int:
    div = comb_divergence(_values(args.depths, int, "--depths", "integers"))
    _say("depth distance")
    for n, v in div.values:
        _say(n, v)
    return _verdict(div.strictly_increasing)


def _repro_detour(args) -> int:
    report = _strips(args)
    worst = max(max_corner_detour_ratio(t, args.samples) for t in report.trapezia)
    const_ok = math.sqrt(3.0) / 4.0 > 2.0 / 5.0
    _say("trapezia", len(report.trapezia))
    _say("max_ratio", worst)
    _say("ratio_bound", 2.5)
    _say("constant_check", "PASS" if const_ok else "FAIL")
    return _verdict(worst <= 2.5 and const_ok)


def _repro_strips(args) -> int:
    report = _strips(args)
    _say("strips", len(report.strips))
    _say("min_distance", report.min_distance)
    if report.closest_pair:
        (j1, k1), (j2, k2) = report.closest_pair
        _say("closest_pair", f"({j1},{k1})-({j2},{k2})")
    _say("ray_residual", report.ray_residual)
    _say("fallback_pairs", report.fallback_pairs)
    return _verdict(report.disjoint and report.ray_residual <= 1e-9)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    domain_a = _domain_of(load_scene(args.scene_a), "compare")
    domain_b = _domain_of(load_scene(args.scene_b), "compare")
    prof_a = boundary_profile(domain_a, args.samples)
    prof_b = boundary_profile(domain_b, args.samples)
    align = compare_profiles(prof_a, prof_b)
    _say("samples", args.samples)
    _say("alignment shift", align.shift, "reflected", align.reflected)
    _say("profile_residual", align.residual)
    isometric = align.residual <= args.tol
    _say("isometric", isometric)
    congruent = False
    if isometric:
        cong = euclidean_congruence(prof_a, prof_b, align, args.tol)
        congruent = cong.congruent
        _say("congruence_gap", cong.max_gap)
        _say("congruent", congruent)
    if args.eta is not None:
        rep = transfer_from_profiles(domain_a, domain_b, prof_a, prof_b, args.eta, args.tol)
        _say("transfer applicable", rep.applicable)
        _say("transfer agrees", rep.agrees)
        _say("transfer falsification_candidate", rep.falsification_candidate)
        _say("transfer note:", rep.note)
    if args.csv:
        names = [f"s{i}" for i in range(prof_a.size)]
        _write(matrix_csv(names, prof_a.matrix), args.csv)
    if args.svg:
        sigma = align.permutation(prof_b.size)
        fig = Scene(
            domain=domain_a,
            points={f"a{i}": p for i, p in enumerate(prof_a.samples)},
            segments=tuple(domain_b.boundary_features()),
        )
        extra = {
            f"b{i}": prof_b.samples[int(k)] for i, k in enumerate(sigma)
        }
        _write(render_svg(fig, extra_points=extra), args.svg)
    return _verdict(isometric and congruent)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_cfg(p):
        p.add_argument("--offsets", help="comma-separated inward offsets")
        p.add_argument("--extrapolation", choices=sorted(EXTRAPOLATIONS))

    def add_samples_per_coil(p, default):
        p.add_argument(
            "--samples-per-coil", type=int, default=default, dest="samples_per_coil"
        )

    g = sub.add_parser("gen", help="generate a construction scene")
    gs = g.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    g_comb = gs.add_parser("comb", help="comb domain")
    g_comb.add_argument("--depth", type=int, default=4)
    g_comb.add_argument("--cap-width", type=float, default=None, dest="cap_width")
    g_family = gs.add_parser("family", help="radial segment family in its wedge triangle")
    g_family.add_argument("--levels", type=int, default=2)
    g_spiral = gs.add_parser("spiral", help="spiral labyrinth obstacle scene")
    g_spiral.add_argument("--radius", type=float, default=1.0)
    g_spiral.add_argument("--coils", type=int, default=2)
    g_spiral.add_argument("--pitch", type=float, default=1e-3)
    add_samples_per_coil(g_spiral, 64)
    g_strips = gs.add_parser("strips", help="ruled strips, meridian footprints")
    g_strips.add_argument("--levels", type=int, default=2)
    g_strips.add_argument("--coils", type=int, default=2)
    add_samples_per_coil(g_strips, 24)
    for p, build in ((g_comb, _gen_comb), (g_family, _gen_family),
                     (g_spiral, _gen_spiral), (g_strips, _gen_strips)):
        p.add_argument("--out", help="write the scene file here (default stdout)")
        p.add_argument("--svg", help="also render an SVG figure")
        p.set_defaults(func=cmd_gen, build=build)

    d = sub.add_parser("dist", help="distance between two named points")
    d.add_argument("scene")
    d.add_argument("p")
    d.add_argument("q")
    add_cfg(d)
    d.set_defaults(func=cmd_dist)

    mx = sub.add_parser("matrix", help="pairwise distance matrix as CSV")
    mx.add_argument("scene")
    mx.add_argument("--points", type=_name_list, help="comma-separated point names (default: all)")
    mx.add_argument("--csv", help="write CSV here (default stdout)")
    add_cfg(mx)
    mx.set_defaults(func=cmd_matrix)

    c = sub.add_parser("check", help="metric and convexity property checks")
    c.add_argument("what", choices=list(_CHECKS))
    c.add_argument("scene")
    c.add_argument("--tol", type=_limit("--tol"), default=None)
    c.add_argument("--points", type=_name_list, help="comma-separated point names (default: all)")
    c.add_argument("--samples", type=int, default=12)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--eta", type=_limit("--eta"), default=0.05)
    c.add_argument("--grid", type=int, default=12)
    c.add_argument("--one-sided-tol", type=_limit("--one-sided-tol"), default=1e-9, dest="one_sided_tol")
    c.add_argument("--p", default=None)
    c.add_argument("--q", default=None)
    add_cfg(c)
    c.set_defaults(func=cmd_check)

    r = sub.add_parser("repro", help="reproduce a headline bound with a verdict")
    rs = r.add_subparsers(dest="target", required=True, parser_class=_Parser)
    r_lab = rs.add_parser("labyrinth", help="spiral labyrinth length threshold")
    r_lab.set_defaults(func=_repro_labyrinth)
    r_lab.add_argument("--radius", type=float, default=1.0)
    r_lab.add_argument("--pitch", type=float, default=1e-3)
    r_lab.add_argument("--threshold", type=_limit("--threshold"), default=10.0)
    r_lab.add_argument("--m-max", type=int, default=16, dest="m_max")
    add_samples_per_coil(r_lab, 64)
    r_bound = rs.add_parser("bound", help="confined length bound for the family")
    r_bound.set_defaults(func=_repro_bound)
    r_bound.add_argument("--levels", type=int, default=2)
    r_bound.add_argument("--tol-floor", type=_limit("--tol-floor", 1.0), default=0.01, dest="tol_floor")
    r_defect = rs.add_parser("defect", help="triangle inequality defect chain")
    r_defect.set_defaults(func=_repro_defect)
    r_defect.add_argument("--levels", type=int, default=2)
    r_comb = rs.add_parser("comb", help="comb distance growth table")
    r_comb.set_defaults(func=_repro_comb)
    r_comb.add_argument("--depths", default="4,8,16,32")
    r_detour = rs.add_parser("detour", help="trapezium corner detour ratio")
    r_detour.set_defaults(func=_repro_detour)
    r_detour.add_argument("--levels", type=int, default=2)
    r_detour.add_argument("--samples", type=int, default=1024)
    r_detour.add_argument("--coils", type=int, default=2)
    add_samples_per_coil(r_detour, 24)
    r_strips = rs.add_parser("strips", help="strip disjointness certificate")
    r_strips.set_defaults(func=_repro_strips)
    r_strips.add_argument("--levels", type=int, default=3)
    r_strips.add_argument("--coils", type=int, default=2)
    add_samples_per_coil(r_strips, 24)

    cp = sub.add_parser("compare", help="boundary profile comparison")
    cp.add_argument("scene_a")
    cp.add_argument("scene_b")
    cp.add_argument("--samples", type=int, default=12)
    cp.add_argument("--tol", type=_limit("--tol"), default=1e-9)
    cp.add_argument("--eta", type=_limit("--eta"), default=None,
                    help="also run the convexity transfer test at this eta")
    cp.add_argument("--csv", help="write the first profile matrix here")
    cp.add_argument("--svg", help="overlay figure of aligned samples")
    cp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UnreachableError as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
