"""Shortest-path oracle: exactness on hand-checked scenes, two-sided wall
semantics, confinement, and randomized self-consistency properties."""
import math
import random

import pytest

from relmetric.errors import (
    MissingHint,
    SceneInvalid,
    SpecInvalid,
    TerminalInsideFloor,
)
from relmetric.geom import PlanarDomain, Point2, Segment2
from relmetric.rigidity import boundary_arc_points
from relmetric.visibility import (
    ObstacleScene,
    PreparedScene,
    _floor_radius_at,
    shortest_path_confined,
)

P = Point2
SQ = [P(0, 0), P(2, 0), P(2, 2), P(0, 2)]


def seg(ax, ay, bx, by):
    return Segment2(P(ax, ay), P(bx, by))


@pytest.fixture(scope="module")
def slit_square():
    dom = PlanarDomain(SQ, slits=(seg(1.0, 0.5, 1.0, 1.5),))
    return PreparedScene(ObstacleScene.from_domain(dom))


def test_free_plane_straight_line():
    scene = ObstacleScene(segments=(seg(5, 5, 6, 6),))
    res = PreparedScene(scene).shortest_path(P(0, 0), P(3, 4))
    assert res.reached
    assert res.length == pytest.approx(5.0, abs=1e-12)
    assert len(res.path.vertices) == 2


def test_single_wall_detour_exact():
    # wall of height 2 centered on the straight line; detour via a tip
    scene = ObstacleScene(segments=(seg(1, -1, 1, 1),))
    res = PreparedScene(scene).shortest_path(P(0, 0), P(2, 0))
    expect = 2 * math.hypot(1, 1)
    assert res.length == pytest.approx(expect, abs=1e-12)


def test_crossing_obstacles_rejected():
    with pytest.raises(SceneInvalid):
        ObstacleScene(segments=(seg(0, 0, 2, 2), seg(0, 2, 2, 0)))


def test_visibility_graph_direct_edge():
    # the two ends of a lone segment are joined by the segment itself
    scene = ObstacleScene(segments=(seg(0, 1, 1, 1),))
    res = PreparedScene(scene).shortest_path(P(0, 1), P(1, 1))
    assert res.reached
    assert res.length == pytest.approx(1.0, abs=1e-12)
    assert [v.as_tuple() for v in res.path.vertices] == [(0.0, 1.0), (1.0, 1.0)]


def _left_normal(p, q):
    L = p.distance_to(q)
    return P(-(q.y - p.y) / L, (q.x - p.x) / L)


def test_a_seen_target_is_reached_along_its_chord():
    # the one segment starts at v, 1.1-3e-9 left of the chord p->q and so
    # just beyond the through-node filter's EPS_GEOM, and runs 0.3 along the
    # normal: the chord is an arc, and the detour round v, longer in exact
    # arithmetic, can round below the chord and must not win
    p, q = P(0.8028549152229671, -0.9388200339328929), P(-0.9491082780130784, 0.08282494558699316)
    cases = [(p, q, P(-0.5347505840310631, -0.15880482330104587))]
    rng = random.Random(24)
    for _ in range(20):
        p, q = P(rng.uniform(-1, 1), rng.uniform(-1, 1)), P(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t, h = rng.uniform(0.2, 0.8), rng.uniform(1.1e-9, 3e-9)
        cases.append((p, q, p + (q - p).scaled(t) + _left_normal(p, q).scaled(h)))
    for p, q, v in cases:
        scene = ObstacleScene((Segment2(v, v + _left_normal(p, q).scaled(0.3)),))
        res = PreparedScene(scene).shortest_path(p, q)
        assert (res.length, res.path.vertices) == (p.distance_to(q), (p, q))


def test_a_path_is_never_shorter_than_its_chord():
    # the one segment starts at v, 0.1-0.9e-9 left of the chord p->q and so
    # within the through-node filter's EPS_GEOM: the chord is no arc and the
    # path goes round v, whose two edges can each round down and sum to an
    # ulp below the chord
    p, q = P(-0.44103526797777937, 0.8326907436171038), P(0.5314509032582835, -0.6807915752839235)
    v = P(0.2185906218125257, -0.1938864463067992)
    assert math.fsum((p.distance_to(v), v.distance_to(q))) < p.distance_to(q) == 1.798988071909152
    cases = [(p, q, v)]
    rng = random.Random(5)
    for _ in range(300):
        p, q = P(rng.uniform(-1, 1), rng.uniform(-1, 1)), P(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t, h = rng.uniform(0.2, 0.8), rng.uniform(0.1e-9, 0.9e-9)
        cases.append((p, q, p + (q - p).scaled(t) + _left_normal(p, q).scaled(h)))
    for p, q, v in cases:
        scene = ObstacleScene((Segment2(v, v + _left_normal(p, q).scaled(0.3)),))
        res = PreparedScene(scene).shortest_path(p, q)
        assert res.path.vertices == (p, v, q)
        assert res.length == res.path.length() >= p.distance_to(q)


def test_hints_must_parallel_points():
    # too few or too many hints are a typed error, checked before any
    # other, so an exterior terminal does not mask it
    engine = PreparedScene(ObstacleScene.from_domain(PlanarDomain(SQ)))
    points = [P(0, 1), P(1, 1), P(2, 1)]
    for pts, hints in ((points, [None]), (points, [None] * 4), ([P(5, 5)], [])):
        with pytest.raises(SpecInvalid, match=r"^hints must parallel points$"):
            engine.shortest_paths(pts, hints)
    assert engine.shortest_paths(points, [None] * 3)[0][2].length == 2.0


def test_a_search_whose_targets_are_all_seen_computes_no_base_row():
    # every pair of boundary samples of a convex polygon sees each other,
    # so each search stops after the source's own arcs
    domain = PlanarDomain([P(math.cos(k * math.pi / 6), math.sin(k * math.pi / 6)) for k in range(12)])
    engine = PreparedScene(ObstacleScene.from_domain(domain))
    table = engine.shortest_paths(boundary_arc_points(domain, 9))
    assert all(len(r.path.vertices) == 2 for row in table for r in row if r is not None)
    assert engine._nbrs == {}
    # a pair hidden behind a segment still expands base nodes
    engine = PreparedScene(ObstacleScene((seg(0, -1, 0, 1),)))
    assert len(engine.shortest_path(P(-1, 0), P(1, 0)).path.vertices) == 3
    assert engine._nbrs


def test_terminal_near_node_snaps(slit_square):
    # a terminal 1e-10 from the slit tip is that node, not a new point
    tip = slit_square.shortest_path(P(1.0, 1.5), P(1.5, 1.0))
    near = slit_square.shortest_path(P(1.0 + 1e-10, 1.5), P(1.5, 1.0))
    assert near.length == tip.length == pytest.approx(math.hypot(0.5, 0.5), abs=1e-15)
    assert near.path.vertices[0].as_tuple() == (1.0, 1.5)


def test_slit_blocks_straight_crossing(slit_square):
    res = slit_square.shortest_path(P(0.5, 1.0), P(1.5, 1.0))
    # around the upper tip (1, 1.5): two hypotenuses of 0.5 x 0.5
    assert res.length == pytest.approx(2 * math.hypot(0.5, 0.5), abs=1e-12)


def test_slit_terminal_needs_hint(slit_square):
    with pytest.raises(MissingHint):
        slit_square.shortest_path(P(1.0, 1.0), P(1.5, 1.0))


def test_slit_terminal_hint_sides(slit_square):
    # from the slit point to a target on its right: right side is direct,
    # left side must round the tip
    right = slit_square.shortest_path(P(1.0, 1.0), P(1.5, 1.0), hint_a="right")
    left = slit_square.shortest_path(P(1.0, 1.0), P(1.5, 1.0), hint_a="left")
    assert right.length == pytest.approx(0.5, abs=1e-12)
    # left side rounds the nearer tip first: 0.5 up, then the hypotenuse
    assert left.length == pytest.approx(0.5 + math.hypot(0.5, 0.5), abs=1e-9)


def test_same_point_opposite_sides(slit_square):
    res = slit_square.shortest_path(
        P(1.0, 1.0), P(1.0, 1.0), hint_a="left", hint_b="right"
    )
    # must round a tip: twice the distance to the nearer end
    assert res.length == pytest.approx(1.0, abs=1e-12)


def test_wall_touching_slit_corner_detour():
    # slit from the bottom wall up to (1, 1.5): no gap underneath
    dom = PlanarDomain(SQ, slits=(seg(1.0, 0.0, 1.0, 1.5),))
    eng = PreparedScene(ObstacleScene.from_domain(dom))
    res = eng.shortest_path(P(0.5, 0.25), P(1.5, 0.25))
    # bottom passage is sealed; both legs reach over the top tip (1, 1.5)
    assert res.length == pytest.approx(2 * math.hypot(0.5, 1.25), abs=1e-12)
    assert res.length > 1.0


def test_boundary_walls_block_outside_shortcuts():
    # L-shaped domain: the reflex corner forces a bend
    dom = PlanarDomain(
        [P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]
    )
    eng = PreparedScene(ObstacleScene.from_domain(dom))
    a, b = P(1.75, 0.75), P(0.75, 1.75)
    res = eng.shortest_path(a, b)
    via_corner = a.distance_to(P(1, 1)) + P(1, 1).distance_to(b)
    assert res.length == pytest.approx(via_corner, abs=1e-12)
    assert res.length > a.distance_to(b)


def test_path_rounds_closed_hole():
    dom = PlanarDomain(
        SQ,
        holes=(
            tuple(
                reversed(
                    [P(0.5, 0.5), P(1.5, 0.5), P(1.5, 1.5), P(0.5, 1.5)]
                )
            ),
        ),
    )
    eng = PreparedScene(ObstacleScene.from_domain(dom))
    outside = eng.shortest_path(P(0.25, 0.25), P(1.75, 1.75))
    assert outside.reached  # around the hole
    assert outside.length > P(0.25, 0.25).distance_to(P(1.75, 1.75))


# -- confinement -------------------------------------------------------------


def test_confined_straight_chord_when_floor_below():
    scene = ObstacleScene(segments=())
    a, b = P(2, 0), P(0, 2)
    res = shortest_path_confined(scene, a, b, r_min=1.0, m_circle=256)
    # chord from (2,0) to (0,2) dips to distance sqrt(2) > 1: stays legal
    assert res.length == pytest.approx(a.distance_to(b), abs=1e-12)


def test_confined_wraps_the_rim():
    scene = ObstacleScene(segments=())
    a, b = P(1.0, 0.0), P(-1.0, 0.0)
    res = shortest_path_confined(scene, a, b, r_min=1.0, m_circle=256)
    # straight line passes the origin; path must wrap the circumscribed rim
    assert res.length >= math.pi - 1e-3
    assert res.length == pytest.approx(math.pi, rel=1e-3)


def test_confined_terminal_in_sliver_starts_on_the_rim():
    """A terminal between the disk and the floor polygon moves radially
    outward onto the polygon, and its path starts there."""
    m, theta = 16, 0.15
    rim = _floor_radius_at(theta, 1.0, m)
    r = 0.5 * (1.0 + rim)
    a = P(r * math.cos(theta), r * math.sin(theta))
    res = shortest_path_confined(ObstacleScene(segments=()), a, P(3.0, 0.5), r_min=1.0, m_circle=m)
    start = res.path.vertices[0]
    assert rim - r > 1e-3
    assert math.atan2(start.y, start.x) == pytest.approx(theta, abs=1e-12)
    assert start.norm() == pytest.approx(rim, abs=1e-12)


def test_confined_terminal_inside_floor_raises():
    scene = ObstacleScene(segments=())
    with pytest.raises(TerminalInsideFloor):
        shortest_path_confined(scene, P(0.1, 0.0), P(2.0, 0.0), r_min=1.0)


# -- randomized self-consistency ---------------------------------------------


def _random_scene(rng):
    for _ in range(50):
        segs = []
        for _ in range(rng.randint(3, 6)):
            a = P(rng.uniform(0, 1), rng.uniform(0, 1))
            b = P(a.x + rng.uniform(-0.4, 0.4), a.y + rng.uniform(-0.4, 0.4))
            if a.distance_to(b) < 1e-3:
                continue
            segs.append(Segment2(a, b))
        try:
            return ObstacleScene(segments=tuple(segs))
        except SceneInvalid:
            continue
    raise AssertionError("could not build a random scene")


def _free_point(rng, scene):
    from _reference import point_segment_distance

    while True:
        p = P(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
        if all(
            point_segment_distance(p, s.a, s.b) > 1e-3 for s in scene.segments
        ):
            return p


def test_oracle_symmetry_and_triangle_small_batch():
    # the acceptance suite runs 1000 instances; keep a quick smoke here
    rng = random.Random(7)
    for _ in range(40):
        scene = _random_scene(rng)
        eng = PreparedScene(scene)
        a, b, c = (_free_point(rng, scene) for _ in range(3))
        dab = eng.shortest_path(a, b).length
        dba = eng.shortest_path(b, a).length
        assert abs(dab - dba) <= 1e-12
        dac = eng.shortest_path(a, c).length
        dcb = eng.shortest_path(c, b).length
        assert dab <= dac + dcb + 1e-9


def test_obstacle_monotonicity_small_batch():
    rng = random.Random(11)
    for _ in range(25):
        scene = _random_scene(rng)
        if len(scene.segments) < 2:
            continue
        sub = ObstacleScene(segments=scene.segments[:-1])
        a, b = (_free_point(rng, scene) for _ in range(2))
        d_full = PreparedScene(scene).shortest_path(a, b).length
        d_sub = PreparedScene(sub).shortest_path(a, b).length
        assert d_full >= d_sub - 1e-9
