"""The one-to-many search gives, for every pair, exactly what a search for
that pair alone gives: the same length and the same path vertices, and on
bad input the same error as the first failing pair of the per-pair loop."""
import random

import pytest

from relmetric.constructions import (
    LEG_A,
    LEG_D,
    CombSpec,
    SpiralSpec,
    clipped_family_scene,
    comb_domain,
    random_slit_domain,
    spiral_labyrinth,
)
from relmetric.errors import GeometryError, MissingHint, SceneInvalid
from relmetric.geom import PlanarDomain, Point2, Region, Segment2, contains, point_array
from relmetric.rigidity import boundary_arc_points
from relmetric.visibility import ObstacleScene, PreparedScene, circumscribed_polygon

P = Point2


def _key(res):
    verts = None if res.path is None else tuple(v.as_tuple() for v in res.path.vertices)
    return res.reached, res.length, verts


def _per_pair(engine, points, hints):
    return {
        (i, j): _key(engine.shortest_path(points[i], points[j], hints[i], hints[j]))
        for i in range(len(points))
        for j in range(i + 1, len(points))
    }


def _assert_same(engine, points, hints=None):
    """Every pair equal to the per-pair search; returns the per-pair keys."""
    hints = hints or [None] * len(points)
    want = _per_pair(engine, points, hints)
    got = engine.shortest_paths(points, hints)
    k = len(points)
    assert len(got) == k and all(len(row) == k for row in got)
    for i in range(k):
        for j in range(k):
            if j <= i:
                assert got[i][j] is None
            else:
                assert _key(got[i][j]) == want[(i, j)], (i, j)
                if got[i][j].reached:
                    # no path is shorter than the chord between its ends
                    verts = got[i][j].path.vertices
                    assert got[i][j].length >= verts[0].distance_to(verts[-1]), (i, j)
    return want


def _interior_points(domain, rng, count):
    pts = []
    while len(pts) < count:
        q = P(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if contains(domain, q) is Region.INTERIOR:
            pts.append(q)
    return pts


def _mid(s: Segment2) -> Point2:
    return P(0.5 * (s.a.x + s.b.x), 0.5 * (s.a.y + s.b.y))


def test_slit_domains_with_hints():
    rng = random.Random(3)
    for seed in range(6):
        domain = random_slit_domain(seed)
        points = boundary_arc_points(domain, 6)
        hints = [None] * len(points)
        for s in domain.slits:
            points += [_mid(s), _mid(s), s.a]
            hints += ["left", "right", None]
        points += _interior_points(domain, rng, 4)
        hints += [None] * 4
        _assert_same(PreparedScene(ObstacleScene.from_domain(domain)), points, hints)


def test_comb_boundary_samples_snap_to_vertices():
    domain = comb_domain(CombSpec(depth=8))
    points = boundary_arc_points(domain, 12) + [P(0.9, 1.2), P(0.3, 0.35)]
    engine = PreparedScene(ObstacleScene.from_domain(domain))
    # sample 0 is the first outer vertex: a base node of the graph
    assert engine._owners(point_array(points[:1])).tolist() == [0]
    _assert_same(engine, points)


def test_labyrinth():
    lab = spiral_labyrinth(SpiralSpec(1.0, 3, 0.03))
    wall_vertex = lab.scene.segments[10].a
    points = [lab.entrance, lab.exit, P(0.0, 0.0), P(1.2, 0.3), wall_vertex, P(-0.5, 0.1)]
    want = _assert_same(PreparedScene(lab.scene), points)
    assert want[(0, 1)][1] > 2.0


def test_family_with_floor_and_a_severed_pair():
    engine = PreparedScene(clipped_family_scene([1, 2]), floor=circumscribed_polygon(1.0, 12))
    points = [LEG_A, LEG_D, P(2.0, 0.3), P(1.5, 0.6), P(3.0, 0.2), P(1.2, 0.05)]
    want = _assert_same(engine, points)
    reached = [r for r, _, _ in want.values()]
    assert not want[(0, 1)][0]
    assert any(reached) and not all(reached)


def test_obstacle_scenes_coincident_and_near_node_points():
    rng = random.Random(2026)
    checked = 0
    while checked < 25:
        segs = []
        for _ in range(rng.randint(3, 6)):
            a = P(rng.uniform(0, 1), rng.uniform(0, 1))
            segs.append(Segment2(a, P(a.x + rng.uniform(-0.4, 0.4), a.y + rng.uniform(-0.4, 0.4))))
        try:
            scene = ObstacleScene(tuple(segs))
        except GeometryError:
            continue
        free = [P(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)) for _ in range(4)]
        tip = segs[0].a
        points = free + [tip, P(tip.x + 1e-10, tip.y), free[1], free[1], segs[1].b, segs[1].b]
        _assert_same(PreparedScene(scene), points)
        checked += 1


def test_fewer_than_two_points_is_empty():
    engine = PreparedScene(ObstacleScene.from_domain(random_slit_domain(0)))
    assert engine.shortest_paths([]) == []
    # one point, even outside the domain: no pair, so no error
    assert engine.shortest_paths([P(9.0, 9.0)]) == [[None]]


def _first_error(engine, points, hints):
    try:
        _per_pair(engine, points, hints)
    except GeometryError as exc:
        return exc
    raise AssertionError("the per-pair loop did not fail")


SLIT = Segment2(P(0.3, 0.5), P(0.7, 0.5))
SLIT_DOMAIN = PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)], (), (SLIT,))
ON, OUT, IN = P(0.5, 0.5), P(2.0, 2.0), P(0.2, 0.2)


@pytest.mark.parametrize(
    "points, hints, kind, label",
    [
        ([OUT, IN, IN], None, SceneInvalid, "a"),  # a outside
        ([IN, OUT], None, SceneInvalid, "b"),  # b outside
        ([IN, P(0.8, 0.8), OUT], None, SceneInvalid, "b"),  # a later b outside
        ([ON, IN], None, MissingHint, "a"),  # a on the slit, unhinted
        ([IN, P(0.8, 0.8), ON], None, MissingHint, "b"),  # a later b on the slit
        ([ON, OUT], None, SceneInvalid, "b"),  # b outside is checked before a's hint
        ([IN, ON, OUT], None, MissingHint, "b"),  # b's hint before a later b outside
        ([ON, IN], ["up", None], MissingHint, None),  # unknown hint
        ([IN, P(0.8, 0.8)], [None, "up"], MissingHint, None),  # unknown hint off every feature
        ([OUT, IN], [None, "up"], SceneInvalid, "a"),  # a outside before b's unknown hint
        ([IN, OUT], ["up", None], SceneInvalid, "b"),  # b outside before a's unknown hint
        ([IN, IN, ON], [None, "up", None], MissingHint, None),  # a middle point's unknown hint first
    ],
)
def test_errors_match_the_first_failing_pair(points, hints, kind, label):
    engine = PreparedScene(ObstacleScene.from_domain(SLIT_DOMAIN))
    hints = hints or [None] * len(points)
    want = _first_error(engine, points, hints)
    assert type(want) is kind
    if label is not None:
        assert str(want).startswith(f"terminal {label} ")
    with pytest.raises(kind) as got:
        engine.shortest_paths(points, hints)
    assert str(got.value) == str(want)
