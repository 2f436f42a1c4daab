"""The search over cached arcs gives exactly what the search that rebuilds
every edge at each relaxation gives (`_reference.shortest_paths`): the same
reached flags, lengths and path vertices, compared with ``==``.

The two may differ in one case, which these scenes avoid: the engine settles
a target the source sees at its chord, while the reference, a textbook
pop-order Dijkstra, keeps a detour around a node just over EPS_GEOM off the
chord when that detour's length rounds below the chord's.
``test_visibility.py`` checks those scenes against the chord instead."""
import random

import _reference as reference
import numpy as np

from relmetric.constructions import (
    LEG_A,
    LEG_D,
    CombSpec,
    clipped_family_scene,
    comb_domain,
    random_slit_domain,
)
from relmetric.errors import GeometryError
from relmetric.geom import (
    EPS_GEOM,
    PlanarDomain,
    Point2,
    Region,
    Segment2,
    blocked_rays,
    contains,
    point_array,
)
from relmetric.rigidity import boundary_arc_points
from relmetric.visibility import ObstacleScene, PreparedScene, circumscribed_polygon

P = Point2


def _keys(table):
    return [
        [None if r is None else (r.reached, r.length, None if r.path is None else r.path.vertices) for r in row]
        for row in table
    ]


def _assert_same(engine, points, hints=None):
    table = engine.shortest_paths(points, hints)
    got = _keys(table)
    assert got == _keys(reference.shortest_paths(engine, points, hints))
    # every step of a path is an arc of a visibility row, and rows hold no
    # candidate within EPS_GEOM of the source, so no vertex repeats
    for r in (r for row in table for r in row if r is not None and r.path is not None):
        verts = r.path.vertices
        assert all(p.distance_to(q) > EPS_GEOM for p, q in zip(verts, verts[1:]))
        # and no path is shorter than the chord between its ends
        assert r.length >= verts[0].distance_to(verts[-1])
    return got


def _mid(s: Segment2) -> Point2:
    return P(0.5 * (s.a.x + s.b.x), 0.5 * (s.a.y + s.b.y))


def _random_obstacle_scene(rng):
    while True:
        segs = []
        for _ in range(rng.randint(3, 6)):
            a = P(rng.uniform(0, 1), rng.uniform(0, 1))
            segs.append(Segment2(a, P(a.x + rng.uniform(-0.4, 0.4), a.y + rng.uniform(-0.4, 0.4))))
        try:
            return ObstacleScene(tuple(segs))
        except GeometryError:
            continue


def _obstacle_points(rng, scene):
    segs = scene.segments
    free = [P(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)) for _ in range(4)]
    tip = segs[0].a
    return free + [tip, P(tip.x + 1e-10, tip.y), free[1], free[1], segs[1].b, _mid(segs[2])]


def test_obstacle_scenes_with_coincident_and_at_node_points():
    rng = random.Random(14)
    for _ in range(40):
        scene = _random_obstacle_scene(rng)
        points = _obstacle_points(rng, scene)
        # the last point lies on a segment's interior, so it needs a side
        _assert_same(PreparedScene(scene), points, [None] * 9 + [rng.choice(["left", "right"])])


def test_equal_routes_break_ties_by_state_order():
    # round the square with corners (+-1, +-1), (-2, 0) reaches (2, 0) as
    # fast over the bottom corners as over the top ones; the heap settles
    # the lower state first and keeps that route
    corners = [P(-1, -1), P(1, -1), P(1, 1), P(-1, 1)]
    square = ObstacleScene(tuple(Segment2(a, b) for a, b in zip(corners, corners[1:] + corners[:1])))
    got = _assert_same(PreparedScene(square), [P(-2, 0), P(2, 0), P(0, -2), P(0, 2)])
    assert got[0][1][2] == (P(-2, 0), P(-1, -1), P(1, -1), P(2, 0))


def test_owners_are_the_scalar_snap():
    # two segments whose ends lie 1e-10 apart: a point exactly at the later
    # end is owned by it, a point between the two by the earlier one; a
    # scene with no features owns nothing
    gap = 1e-10
    scene = ObstacleScene((Segment2(P(0, 0), P(1, 0)), Segment2(P(1 + gap, 0), P(2, 1))))
    points = [P(1 + gap, 0), P(1 + gap / 2, 0), P(0.5, 0.5), P(1, 0), P(2, 1), P(0, 0)]
    for engine in (PreparedScene(scene), PreparedScene(ObstacleScene())):
        want = [reference._snap(engine, t) for t in points]
        assert engine._owners(point_array(points)).tolist() == [-1 if v is None else v for v in want]
        _assert_same(engine, points)
    assert want == [None] * len(points)


def test_slit_domains_with_hints():
    rng = random.Random(5)
    for seed in range(6):
        domain = random_slit_domain(seed)
        points = boundary_arc_points(domain, 6)
        hints = [None] * len(points)
        for s in domain.slits:
            points += [_mid(s), _mid(s), s.a, s.b]
            hints += ["left", "right", rng.choice([None, "left", "right"]), "right"]
        while len(points) < len(hints) + 4:
            q = P(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if contains(domain, q) is Region.INTERIOR:
                points.append(q)
        hints += [None] * 4
        _assert_same(PreparedScene(ObstacleScene.from_domain(domain)), points, hints)


def test_floor_confined_scenes_and_exposed_terminals():
    engine = PreparedScene(clipped_family_scene([1, 2]), floor=circumscribed_polygon(1.0, 12))
    got = _assert_same(engine, [LEG_A, LEG_D, P(2.0, 0.3), P(1.5, 0.6), P(3.0, 0.2), P(1.2, 0.05)])
    assert not got[0][1][0]
    # the unit square lies inside the floor and its right and top walls on
    # floor edges: no side of a point there is in the region
    square = PreparedScene(
        ObstacleScene.from_domain(PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])),
        floor=circumscribed_polygon(1.0, 4),
    )
    points = [P(1, 0.5), P(1, 0.2), P(0.5, 1), P(0.2, 1), P(1, 1)]
    _assert_same(square, points)
    T = np.array([p.as_tuple() for p in points[:4]])
    for p, (rays, host) in zip(points, blocked_rays(T, square._FA, square._FB, square._angles)):
        assert reference.terminal_wedges(square, p, rays, host, None, "a")[1] is False


def test_comb():
    domain = comb_domain(CombSpec(depth=8))
    points = boundary_arc_points(domain, 12) + [P(0.9, 1.2), P(0.3, 0.35)]
    _assert_same(PreparedScene(ObstacleScene.from_domain(domain)), points)


def test_a_second_query_equals_a_fresh_engine():
    """Arcs hold the query's points, so none may outlive its call."""
    rng = random.Random(7)
    for _ in range(10):
        scene = _random_obstacle_scene(rng)
        first, second = _obstacle_points(rng, scene)[:6], _obstacle_points(rng, scene)[:6]
        engine = PreparedScene(scene)
        engine.shortest_paths(first)
        assert _keys(engine.shortest_paths(second)) == _keys(PreparedScene(scene).shortest_paths(second))
        assert _keys(engine.shortest_paths(second)) == _keys(reference.shortest_paths(engine, second))
    domain = random_slit_domain(2)
    engine = PreparedScene(ObstacleScene.from_domain(domain))
    engine.shortest_paths(boundary_arc_points(domain, 9))
    points = boundary_arc_points(domain, 5) + [_mid(domain.slits[0])]
    hints = [None] * 5 + ["left"]
    fresh = PreparedScene(ObstacleScene.from_domain(domain))
    assert _keys(engine.shortest_paths(points, hints)) == _keys(fresh.shortest_paths(points, hints))
