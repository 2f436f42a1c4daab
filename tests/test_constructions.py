"""Named constructions: comb divergence, radial families with the confined
length bound, annulus pigeonhole, spiral labyrinth, 3-D strips, and the
triangle-defect assembly."""
import math

import pytest

from relmetric import constructions
from relmetric.cli import EXIT_VIOLATION, main
from relmetric.errors import (
    OutsideCone,
    PathNotConfined,
    SpecInvalid,
)
from relmetric.geom import (
    Point2,
    Point3,
    Polyline,
    Region,
    Segment2,
    contains,
)
from relmetric.constructions import (
    LEG_A,
    LEG_D,
    WEDGE_ANGLE,
    CombSpec,
    SegmentFamilySpec,
    SpiralSpec,
    build_strips,
    clipped_family_scene,
    comb_divergence,
    comb_domain,
    confined_route,
    labyrinth_min_coils,
    layer_bounds,
    level_count,
    max_corner_detour_ratio,
    meridian_projection,
    random_slit_domain,
    spiral_labyrinth,
    triangle_defect_report,
    verify_length_bound,
    verify_pigeonhole,
    wedge_triangle,
)
from relmetric.visibility import PathResult
from _reference import max_corner_detour_ratio as scalar_detour_ratio
from _reference import point_segment_distance, segment_segment_distance

P = Point2


# -- comb ----------------------------------------------------------------------


def test_comb_spec_validation():
    with pytest.raises(SpecInvalid):
        CombSpec(depth=1)
    with pytest.raises(SpecInvalid):
        CombSpec(depth=4, cap_width=0.2)  # >= 1/(2*16)
    assert CombSpec(depth=4).cap == pytest.approx(1 / 64)


def test_comb_domain_shape():
    spec = CombSpec(depth=4)
    dom = comb_domain(spec)
    assert len(dom.outer) == 4 * spec.depth + 3
    assert contains(dom, P(1.0, 1.5)) is Region.BOUNDARY
    assert contains(dom, P(spec.cap, spec.cap)) is Region.BOUNDARY


def test_comb_divergence_frozen():
    div = comb_divergence([4, 8])
    assert div.strictly_increasing
    vals = dict(div.values)
    # teeth double, the zigzag lengthens; values pinned from this metric
    assert vals[4] == pytest.approx(2.707480029199088, abs=1e-9)
    assert vals[8] == pytest.approx(3.2791538522740873, abs=1e-9)
    assert div.increments[0] == pytest.approx(vals[8] - vals[4], abs=1e-12)


def test_comb_divergence_rejects_unsorted():
    with pytest.raises(SpecInvalid):
        comb_divergence([8, 4])


# -- radial family and length bound ---------------------------------------------


def test_level_counts():
    assert level_count(1) == 6
    assert level_count(2) == 39
    assert level_count(3) == 248


def test_clipped_scene_counts_and_wall_contact():
    scene = clipped_family_scene([1, 2])
    assert len(scene.segments) == 45
    tri = wedge_triangle()
    wall_a, wall_d = tri.outer[1], tri.outer[2]
    clipped = [
        s
        for s in scene.segments
        if point_segment_distance(s.b, wall_a, wall_d) <= 1e-9
    ]
    # every level-1 ray is long enough to hit the far wall and gets cut there
    assert len(clipped) >= 6
    for s in clipped:
        assert s.b.norm() < 11.0 * 0.5 + 1e-9


def test_family_spec_validation():
    with pytest.raises(SpecInvalid):
        SegmentFamilySpec(0)
    with pytest.raises(SpecInvalid):
        SegmentFamilySpec(6)
    with pytest.raises(SpecInvalid):
        verify_length_bound(SegmentFamilySpec(5))
    with pytest.raises(SpecInvalid):
        clipped_family_scene([0])


def test_length_bound_severs_at_two_levels():
    J, length = verify_length_bound(SegmentFamilySpec(2))
    assert J == 2
    assert math.isinf(length)


def test_length_bound_control_is_cheap():
    _, control = verify_length_bound(
        SegmentFamilySpec(2), include_obstacles=False
    )
    # bare rim wrap between the legs, slightly above the exact arc pi/6
    assert control == pytest.approx(0.5236248333455773, abs=1e-12)
    assert control < 2.1


def test_length_bound_rejects_a_route_through_the_floor(monkeypatch, capsys):
    # long enough for the bound at J = 2, but its chord between two rim
    # points cuts through the floor of radius 1
    def polar(r, th):
        return P(r * math.cos(th), r * math.sin(th))

    path = Polyline((LEG_A, polar(3.9, 0.05), polar(1.0, 0.02), polar(1.0, WEDGE_ANGLE - 0.02), LEG_D))
    assert path.length() > 5.94
    monkeypatch.setattr(constructions, "confined_route", lambda levels, r_min: PathResult(True, path.length(), path))
    with pytest.raises(PathNotConfined, match="dips below the inner radius"):
        verify_length_bound(SegmentFamilySpec(2))
    assert main(["repro", "bound", "--levels", "2"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "bound violated: a path segment dips below the inner radius" in out
    assert out.endswith("verdict FAIL\n")


def test_confined_route_partial_levels_reaches():
    route = confined_route([2], 0.5, m_circle=128)
    assert route.reached
    assert route.length == pytest.approx(4.886133975053752, abs=1e-9)
    verts = route.path.vertices
    assert verts[0].distance_to(LEG_A) <= 1e-3
    assert verts[-1].distance_to(LEG_D) <= 1e-3


def test_confined_route_full_prefix_severed():
    route = confined_route([1, 2], 1.0)
    assert not route.reached
    assert math.isinf(route.length)


# -- pigeonhole ------------------------------------------------------------------


def synthetic_confined_path(radius=1.5, step_deg=3.0):
    """Leg to leg: radial out, sweep an arc, radial in."""
    pts = [LEG_A, P(radius, 0.0)]
    n = int(math.ceil(math.degrees(WEDGE_ANGLE) / step_deg))
    for i in range(1, n + 1):
        th = WEDGE_ANGLE * i / n
        pts.append(P(radius * math.cos(th), radius * math.sin(th)))
    pts.append(LEG_D)
    return Polyline(tuple(pts))


def test_layer_bounds_tile():
    for j in range(1, 5):
        lo, hi = layer_bounds(j)
        assert hi == pytest.approx(2 * lo)
        if j > 1:
            # consecutive layers share an endpoint
            assert layer_bounds(j - 1)[0] == pytest.approx(hi)


def test_pigeonhole_on_computed_route():
    route = confined_route([2], 0.5, m_circle=128)
    j0, coverage = verify_pigeonhole(route.path, 3)
    assert j0 == 1
    assert coverage == pytest.approx(0.5081921809420594, abs=1e-9)
    assert coverage >= 2.0**-j0 * WEDGE_ANGLE


def test_pigeonhole_on_synthetic_arc():
    path = synthetic_confined_path(radius=1.5)
    j0, coverage = verify_pigeonhole(path, 2)
    # the sweep happens entirely inside layer 2 = [1, 2]
    assert j0 == 2
    assert coverage == pytest.approx(WEDGE_ANGLE, abs=1e-9)


def test_pigeonhole_rejects_dipping_chord():
    # the direct chord passes the origin at cos(pi/12) < 1
    with pytest.raises(PathNotConfined):
        verify_pigeonhole(Polyline((LEG_A, LEG_D)), 2)


def test_pigeonhole_rejects_wrong_endpoints():
    path = Polyline((P(1.5, 0.0), P(1.5, 0.5)))
    with pytest.raises(PathNotConfined):
        verify_pigeonhole(path, 2)


def test_pigeonhole_rejects_floor_violation():
    path = Polyline((LEG_A, P(0.2, 0.0), LEG_D))
    with pytest.raises(PathNotConfined):
        verify_pigeonhole(path, 2)


def test_pigeonhole_validates_levels():
    with pytest.raises(SpecInvalid):
        verify_pigeonhole(synthetic_confined_path(), 0)


# -- spiral labyrinth -------------------------------------------------------------


def test_spiral_spec_validation():
    with pytest.raises(SpecInvalid):
        SpiralSpec(1.0, 1, 0.2)  # one full turn would cross the origin
    with pytest.raises(SpecInvalid):
        SpiralSpec(0.0, 1, 0.01)
    with pytest.raises(SpecInvalid):
        SpiralSpec(1.0, 0, 0.01)
    with pytest.raises(SpecInvalid):
        SpiralSpec(1.0, 1, 0.01, samples_per_coil=4)


def test_single_coil_is_degenerate():
    lab = spiral_labyrinth(SpiralSpec(1.0, 1, 0.05))
    assert lab.entrance.distance_to(lab.exit) == pytest.approx(0.0, abs=1e-12)
    assert len(lab.scene.segments) == 64


def test_min_coils_search():
    m, trace = labyrinth_min_coils(1.0, 0.05, m_max=3, threshold=3.0)
    assert m == 2
    assert trace[0] == (1, 0.0)
    assert trace[1][1] == pytest.approx(3.4763806911806525, abs=1e-6)
    # lengths in the trace are monotone in the coil count
    lens = [v for _, v in trace]
    assert lens == sorted(lens)


# -- strips and the meridian projection --------------------------------------------


@pytest.fixture(scope="module")
def strips2():
    return build_strips(SegmentFamilySpec(2))


def test_strips_counts_and_disjointness(strips2):
    assert len(strips2.strips) == 45
    assert len(strips2.trapezia) == 45
    assert strips2.disjoint
    assert strips2.min_distance == pytest.approx(6.600999837112171e-4, abs=1e-9)
    assert strips2.closest_pair == ((2, 25), (1, 4))
    assert strips2.ray_residual <= 1e-9
    assert strips2.fallback_pairs == 0


def test_overlapping_trapezia_fall_back_to_3d():
    # steep spirals on rays 2 and 4 of level 1 widen their trapezia onto
    # their neighbours; those pairs are measured between the rulings
    step = (2.0 * math.pi) ** -1 * WEDGE_ANGLE
    steep = {}
    for k in (2, 4):
        r0 = 0.5 * math.sin(k * step)
        steep[(1, k)] = SpiralSpec(r0, 1, 0.9 * r0 / (2.0 * math.pi), 8)
    rep = build_strips(SegmentFamilySpec(1), coils=1, samples_per_coil=8, spirals=steep)
    assert rep.fallback_pairs == 4
    assert rep.disjoint
    assert rep.min_distance == pytest.approx(0.0015719724357802492, abs=1e-12)
    assert rep.closest_pair == ((1, 1), (1, 2))


def test_strip_matches_its_trapezium(strips2):
    for strip, trap in zip(strips2.strips, strips2.trapezia):
        assert (strip.level, strip.index) == (trap.level, trap.index)
        first = strip.rulings[0]
        assert meridian_projection(first[0]).distance_to(trap.vertices[0]) <= 1e-12


def test_trapezium_sides_close(strips2):
    trap = strips2.trapezia[0]
    sides = trap.sides()
    assert len(sides) == 4
    for s, t in zip(sides, sides[1:] + sides[:1]):
        assert s.b.distance_to(t.a) <= 1e-12


def test_meridian_projection_properties():
    p = Point3(1.0, 0.1, 0.05)
    q = meridian_projection(p)
    assert q.norm() == pytest.approx(p.norm(), abs=1e-12)
    assert q.x == pytest.approx(1.0, abs=1e-15)
    assert q.y == pytest.approx(math.hypot(0.1, 0.05), abs=1e-15)
    with pytest.raises(OutsideCone):
        meridian_projection(Point3(0.3, -1.2, 0.7))


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_detour_ratio_matches_scalar_reference(levels):
    # the array version keeps the scalar arithmetic, so the values are equal
    for trap in build_strips(SegmentFamilySpec(levels)).trapezia:
        for samples in (256, 1024):
            assert max_corner_detour_ratio(trap, samples) == scalar_detour_ratio(trap, samples)


def test_detour_ratio_bound(strips2):
    worst = max(
        max_corner_detour_ratio(t, samples=256) for t in strips2.trapezia
    )
    assert worst == pytest.approx(1.9890798094242306, abs=1e-6)
    assert worst <= 2.5


# -- triangle defect ---------------------------------------------------------------


def test_defect_report_fields():
    rep = triangle_defect_report(2)
    assert rep.levels == 2
    assert math.isinf(rep.confined_length)
    assert math.isinf(rep.projected_lower_bound)
    assert rep.detour_ratio_bound == 2.5
    assert rep.legs_total == 2.0
    assert rep.escape_length == pytest.approx(2 * (2 * math.sqrt(3) - 1), abs=1e-12)
    assert rep.escape_length > 4.0
    assert rep.defect_confirmed


def test_defect_report_validates_levels():
    with pytest.raises(SpecInvalid):
        triangle_defect_report(4)


# -- randomized domains --------------------------------------------------------------


def test_random_slit_domain_deterministic():
    assert random_slit_domain(0) == random_slit_domain(0)
    assert random_slit_domain(0) != random_slit_domain(1)


def test_random_slit_domain_matches_the_scalar_clearance(monkeypatch):
    from relmetric import constructions

    def scalar_clear_of(cand, others, clearance):
        return all(segment_segment_distance(cand, o) >= clearance for o in others)

    seeds = [(seed, slits) for slits in (2, 4) for seed in range(200)]
    batched = [random_slit_domain(seed, slits) for seed, slits in seeds]
    monkeypatch.setattr(constructions, "_clear_of", scalar_clear_of)
    assert batched == [random_slit_domain(seed, slits) for seed, slits in seeds]


def test_random_slit_domain_clearance():
    for seed in range(6):
        dom = random_slit_domain(seed, clearance=0.05)
        assert len(dom.slits) <= 2
        edges = [
            Segment2(dom.outer[i], dom.outer[(i + 1) % len(dom.outer)])
            for i in range(len(dom.outer))
        ]
        for slit in dom.slits:
            for e in edges:
                assert segment_segment_distance(slit, e) >= 0.05 - 1e-12
        for i in range(len(dom.slits)):
            for j in range(i + 1, len(dom.slits)):
                assert (
                    segment_segment_distance(dom.slits[i], dom.slits[j])
                    >= 0.05 - 1e-12
                )
