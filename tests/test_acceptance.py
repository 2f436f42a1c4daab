"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints `criterion N: PASS/FAIL - detail` outside pytest's capture
(so the verdicts always reach the console), then asserts.  Tolerances are
pinned here and nowhere looser.
"""
import math
import random
import time

import numpy as np

from relmetric.constructions import (
    LEG_A,
    LEG_D,
    WEDGE_ANGLE,
    CombSpec,
    SegmentFamilySpec,
    build_strips,
    comb_divergence,
    comb_domain,
    confined_route,
    labyrinth_min_coils,
    max_corner_detour_ratio,
    meridian_projection,
    random_slit_domain,
    triangle_defect_report,
    verify_length_bound,
    verify_pigeonhole,
    wedge_triangle,
)
from relmetric.geom import (
    PlanarDomain,
    Point2,
    Polyline,
    Region,
    Segment2,
    contains,
)
from relmetric.metric import (
    check_metric_axioms,
    distance_matrix,
    extract_geodesic,
    matrix_values,
    rho,
)
from relmetric.rigidity import (
    boundary_profile,
    compare_profiles,
    euclidean_congruence,
)
from relmetric.visibility import ObstacleScene, PreparedScene
from relmetric.errors import SceneInvalid
from _reference import point_segment_distance

P = Point2
TIME_BUDGET = 60.0


def verdict(capsys, n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_labyrinth_threshold(capsys):
    """Unit start radius, pitch 1e-3: the coil search certifies the first
    count whose inside distance reaches 10, with the previous one short."""
    t0 = time.perf_counter()
    m_star, trace = labyrinth_min_coils(1.0, 1e-3, threshold=10.0)
    dt = time.perf_counter() - t0
    last = trace[-1][1]
    prev = trace[-2][1] if len(trace) > 1 else 0.0
    ok = last >= 10.0 and prev < 10.0 and dt <= TIME_BUDGET
    verdict(
        capsys,
        1,
        ok,
        f"M*={m_star}, len(M*)={last:.6f} >= 10 > len(M*-1)={prev:.6f}, "
        f"{dt:.1f}s",
    )


def test_criterion_2_confined_length_bound(capsys):
    """Leg-to-leg length among the full ray family, confined to the level
    floor, reaches 6*(1-0.01) at J=2 and does not drop at J=3; the
    obstacle-free control stays cheap."""
    t0 = time.perf_counter()
    _, L2 = verify_length_bound(SegmentFamilySpec(2))
    t2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, L3 = verify_length_bound(SegmentFamilySpec(3))
    t3 = time.perf_counter() - t0
    _, control = verify_length_bound(SegmentFamilySpec(2), include_obstacles=False)
    ok = (
        L2 >= 6.0 * 0.99
        and L3 >= L2
        and control < 2.1
        and t2 <= TIME_BUDGET
        and t3 <= TIME_BUDGET
    )
    verdict(
        capsys,
        2,
        ok,
        f"L(2)={L2}, L(3)={L3}, control={control:.6f} < 2.1, "
        f"times {t2:.1f}s/{t3:.1f}s",
    )


def test_criterion_3_triangle_defect(capsys):
    """Projected lower bound (2/5)L(2) and the cone-escape cost both exceed
    the two-leg total, which itself is an honest distance sum through the
    apex."""
    rep = triangle_defect_report(2)
    tri = wedge_triangle()
    apex = P(0.0, 0.0)
    leg_a = rho(tri, LEG_A, apex).value
    leg_d = rho(tri, apex, LEG_D).value
    legs = leg_a + leg_d
    escape_expect = 2.0 * (2.0 * math.sqrt(3) - 1.0)
    ok = (
        rep.projected_lower_bound >= 12.0 / 5.0
        and abs(rep.escape_length - escape_expect) <= 1e-4
        and rep.escape_length > 4.0
        and abs(legs - 2.0) <= 1e-5
        and rep.projected_lower_bound > legs
        and rep.escape_length > legs
        and rep.defect_confirmed
    )
    verdict(
        capsys,
        3,
        ok,
        f"(2/5)L(2)={rep.projected_lower_bound} >= 2.4, "
        f"escape={rep.escape_length:.6f} > 4, legs={legs:.8f}",
    )


def test_criterion_4_comb_divergence(capsys):
    """Truncated-comb distances grow strictly with depth and by a real
    margin over the ladder 4..32."""
    t0 = time.perf_counter()
    div = comb_divergence([4, 8, 16, 32])
    dt = time.perf_counter() - t0
    vals = dict(div.values)
    growth = vals[32] - vals[4]
    ok = div.strictly_increasing and growth >= 0.05 and dt <= TIME_BUDGET
    verdict(
        capsys,
        4,
        ok,
        f"d(4)={vals[4]:.6f} < d(8)={vals[8]:.6f} < d(16)={vals[16]:.6f} "
        f"< d(32)={vals[32]:.6f}, growth={growth:.4f} >= 0.05, {dt:.1f}s",
    )


def _interior_points(domain: PlanarDomain, n: int, seed: int, clearance: float):
    rng = random.Random(seed)
    xs = [v.x for v in domain.outer]
    ys = [v.y for v in domain.outer]
    feats = domain.boundary_features()
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 20000:
            raise SceneInvalid("interior sampling starved")
        p = P(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if contains(domain, p) is not Region.INTERIOR:
            continue
        if min(point_segment_distance(p, f.a, f.b) for f in feats) < clearance:
            continue
        out.append(p)
    return out


def test_criterion_5_axioms_on_random_domains(capsys):
    """Distance matrices on twenty seeded slit domains satisfy symmetry,
    triangle, and identity within 1e-6, with no violations at all."""
    bad = 0
    for seed in range(20):
        dom = random_slit_domain(seed)
        pts = _interior_points(dom, 12, seed, 0.02)
        rep = check_metric_axioms(matrix_values(distance_matrix(dom, pts)), 1e-6)
        if not rep.ok:
            bad += 1
    verdict(capsys, 5, bad == 0, f"20 domains x 12 points, tol 1e-6, {bad} failures")


def test_criterion_6_geodesic_restriction(capsys):
    """Extracted geodesics satisfy the restriction identity: parameter
    spans equal distances within 1e-6 and never understate a subpath by
    more than 1e-9."""
    cases = []
    square = PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    cases.append(("convex", extract_geodesic(square, P(0.1, 0.2), P(0.9, 0.7))))
    slit_dom = PlanarDomain(
        [P(0, 0), P(2, 0), P(2, 2), P(0, 2)],
        slits=(Segment2(P(1, 0.5), P(1, 1.5)),),
    )
    cases.append(("slit", extract_geodesic(slit_dom, P(0.5, 1.0), P(1.5, 1.0))))
    spec = CombSpec(4)
    comb = comb_domain(spec)
    cases.append(
        ("comb", extract_geodesic(comb, P(1.0, 1.5), P(spec.cap, spec.cap)))
    )
    worst_dev = max(chk.max_deviation for _, chk in cases)
    worst_one = max(chk.one_sided_max for _, chk in cases)
    ok = worst_dev <= 1e-6 and worst_one <= 1e-9
    verdict(
        capsys,
        6,
        ok,
        f"max deviation {worst_dev:.2e} <= 1e-6, one-sided {worst_one:.2e} "
        f"<= 1e-9 on convex/slit/comb",
    )


def test_criterion_7_profile_rigidity(capsys):
    """Convex profiles equal Euclidean sample distances; congruent copies
    align to 1e-9 and pass congruence; a 1e-3 bend is visible above 1e-4."""
    penta = [P(0, 0), P(2, 0), P(2.6, 1.2), P(1.1, 2.3), P(-0.4, 1.0)]
    m = 8
    prof = boundary_profile(PlanarDomain(penta), m)
    eu = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            eu[i, j] = prof.samples[i].distance_to(prof.samples[j])
    euclid_gap = float(np.max(np.abs(prof.matrix - eu)))

    def rot(v):
        return P(0.6 * v.x - 0.8 * v.y + 3.0, 0.8 * v.x + 0.6 * v.y - 1.0)

    moved = boundary_profile(PlanarDomain([rot(v) for v in penta]), m)
    align_rot = compare_profiles(prof, moved)
    cong_rot = euclidean_congruence(prof, moved, align_rot)

    mirrored = [P(-v.x, v.y) for v in penta]
    mirrored = [mirrored[0]] + list(reversed(mirrored[1:]))
    refl = boundary_profile(PlanarDomain(mirrored), m)
    align_ref = compare_profiles(prof, refl)
    cong_ref = euclidean_congruence(prof, refl, align_ref)

    base = PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    bent = PlanarDomain([P(0, 0), P(1, 0), P(1 + 1e-3, 1), P(0, 1)])
    align_bent = compare_profiles(
        boundary_profile(base, 12), boundary_profile(bent, 12)
    )

    ok = (
        euclid_gap <= 1e-9
        and align_rot.residual <= 1e-9
        and not align_rot.reflected
        and cong_rot.congruent
        and cong_rot.max_gap <= 1e-9
        and align_ref.residual <= 1e-9
        and align_ref.reflected
        and cong_ref.congruent
        and align_bent.residual > 1e-4
    )
    verdict(
        capsys,
        7,
        ok,
        f"euclid gap {euclid_gap:.2e}, rotated residual "
        f"{align_rot.residual:.2e}, reflected residual {align_ref.residual:.2e} "
        f"(flag {align_ref.reflected}), bend residual {align_bent.residual:.2e}",
    )


def _synthetic_confined_path(rng: random.Random) -> Polyline:
    """Leg to leg: exactly radial first and last steps, then an angular walk
    whose chords stay clearly above every level floor in use."""
    lo, hi = 1.05, 3.9
    steps = rng.randint(10, 60)
    pts = [LEG_A, P(rng.uniform(lo, hi), 0.0)]
    for i in range(1, steps + 1):
        th = WEDGE_ANGLE * i / steps
        r = rng.uniform(lo, hi)
        pts.append(P(r * math.cos(th), r * math.sin(th)))
    pts.append(LEG_D)
    return Polyline(tuple(pts))


def test_criterion_8_pigeonhole_coverage(capsys):
    """Every confined route, computed or synthetic, owns a layer whose
    attained angle measure meets the 2^-j0 * pi/6 target."""
    failures = 0
    checked = 0
    for levels_set, r_min in (((2,), 0.5), ((3,), 0.5), ((2, 3), 0.5)):
        route = confined_route(levels_set, r_min)
        j0, cov = verify_pigeonhole(route.path, 3)
        checked += 1
        if cov < 2.0**-j0 * WEDGE_ANGLE:
            failures += 1
    rng = random.Random(20260815)
    for k in range(100):
        levels = 2 if k % 2 == 0 else 3
        path = _synthetic_confined_path(rng)
        j0, cov = verify_pigeonhole(path, levels)
        checked += 1
        if cov < 2.0**-j0 * WEDGE_ANGLE:
            failures += 1
    verdict(
        capsys,
        8,
        failures == 0,
        f"{checked} confined paths (3 computed, 100 synthetic), "
        f"{failures} below target",
    )


def test_criterion_9_strip_disjointness(capsys):
    """Ruled strips through level <= 3 stay pairwise disjoint with tight ray
    residuals; the meridian projection preserves norms and the trapezium
    detour ratio stays under 5/2, which the strip width constant clears."""
    worst_norm = 0.0
    worst_resid = 0.0
    worst_ratio = 0.0
    all_disjoint = True
    for J in (1, 2, 3):
        rep = build_strips(SegmentFamilySpec(J))
        all_disjoint = all_disjoint and rep.disjoint
        worst_resid = max(worst_resid, rep.ray_residual)
        for strip in rep.strips:
            for ruling in (strip.rulings[0], strip.rulings[-1]):
                for p3 in ruling:
                    q = meridian_projection(p3)
                    worst_norm = max(worst_norm, abs(q.norm() - p3.norm()))
        worst_ratio = max(
            worst_ratio,
            max(max_corner_detour_ratio(t, samples=256) for t in rep.trapezia),
        )
    width_ok = math.sqrt(3) / 4.0 > 2.0 / 5.0
    ok = (
        all_disjoint
        and worst_resid <= 1e-9
        and worst_norm <= 1e-12
        and worst_ratio <= 2.5
        and width_ok
    )
    verdict(
        capsys,
        9,
        ok,
        f"disjoint J<=3, residual {worst_resid:.2e}, projection norm gap "
        f"{worst_norm:.2e}, detour ratio {worst_ratio:.4f} <= 2.5, "
        f"sqrt(3)/4 > 2/5 {width_ok}",
    )


def _random_obstacles(rng: random.Random) -> ObstacleScene:
    while True:
        segs = []
        for _ in range(rng.randint(3, 6)):
            a = P(rng.uniform(0, 1), rng.uniform(0, 1))
            b = P(a.x + rng.uniform(-0.4, 0.4), a.y + rng.uniform(-0.4, 0.4))
            if a.distance_to(b) < 1e-3:
                continue
            segs.append(Segment2(a, b))
        if len(segs) < 2:
            continue
        try:
            return ObstacleScene(segments=tuple(segs))
        except SceneInvalid:
            continue


def _free_point(rng: random.Random, scene: ObstacleScene) -> Point2:
    while True:
        p = P(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
        if all(
            point_segment_distance(p, s.a, s.b) > 1e-3 for s in scene.segments
        ):
            return p


def test_criterion_10_randomized_properties(capsys):
    """A thousand random obstacle scenes: symmetry to 1e-12, concatenation
    triangle to 1e-9, and dropping an obstacle never lengthens a distance."""
    rng = random.Random(2026)
    worst_sym = worst_tri = worst_mono = 0.0
    for _ in range(1000):
        scene = _random_obstacles(rng)
        eng = PreparedScene(scene)
        a, b, c = (_free_point(rng, scene) for _ in range(3))
        dab = eng.shortest_path(a, b).length
        dba = eng.shortest_path(b, a).length
        dac = eng.shortest_path(a, c).length
        dcb = eng.shortest_path(c, b).length
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dab - (dac + dcb))
        sub = PreparedScene(ObstacleScene(segments=scene.segments[:-1]))
        worst_mono = max(worst_mono, sub.shortest_path(a, b).length - dab)
    ok = worst_sym <= 1e-12 and worst_tri <= 1e-9 and worst_mono <= 1e-9
    verdict(
        capsys,
        10,
        ok,
        f"1000 scenes: symmetry {worst_sym:.2e} <= 1e-12, triangle "
        f"{worst_tri:.2e} <= 1e-9, monotonicity {worst_mono:.2e} <= 1e-9",
    )
