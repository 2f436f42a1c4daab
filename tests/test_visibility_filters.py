"""The two-filter visibility row finds the paths of the three-filter row.

``MaskedScene`` keeps the older row as a reference: proper crossing, passing
through a node and the midpoint region mask, each over every candidate.  The
engine's row drops the mask (wedge gating keeps paths in the region) and
tests passing through a node only on the candidates that cross nothing.
Every pair must come out equal: reached, length and path vertices.

The engine also tests the wedges of all its nodes with one region mask;
a reference that masks node by node must find the same wedges, and the
engine's region mask without a floor must classify points as
``geom.contains`` does.

Rows are computed for a block of sources at once; each must equal the row
of its source computed alone, whatever the block budget.  The crossing
filter tests features in chunks, each on the pairs still unblocked; rows
and paths must not depend on the chunk width.
"""
import math
import random

import numpy as np
import pytest

from relmetric import _batch, visibility
from relmetric.constructions import (
    LEG_A,
    LEG_D,
    WEDGE_ANGLE,
    CombSpec,
    SpiralSpec,
    clipped_family_scene,
    comb_domain,
    random_slit_domain,
    spiral_labyrinth,
)
from relmetric.errors import SceneInvalid, TerminalInsideFloor
from relmetric.geom import (
    EPS_GEOM,
    PlanarDomain,
    Point2,
    Region,
    Segment2,
    blocked_rays,
    contains,
    point_array,
    wedges_from_rays,
)
from relmetric.rigidity import boundary_arc_points
from relmetric.visibility import (
    PROBE_DELTA,
    ObstacleScene,
    PreparedScene,
    _floor_radius_at,
    circumscribed_polygon,
)
from test_acceptance import _free_point, _random_obstacles

P = Point2


class MaskedScene(PreparedScene):
    """Reference engine: the visibility row with the midpoint region mask,
    computed source by source."""

    def _visibility(self, src, Q, own):
        return [self._masked_row(Q, s, own) for s in src]

    def _masked_row(self, Q, s, own):
        p, at = Q[s], own[s]
        ok = np.linalg.norm(Q - p[None, :], axis=1) > EPS_GEOM
        if at >= 0:
            ok[at] = False
        if ok.any():
            ok &= ~_batch.cross_matrix(p, Q, self._FA, self._FB, EPS_GEOM).any(axis=1)
        if ok.any():
            near = _batch.seg_point_dists(p, Q, self._P) <= EPS_GEOM
            # a segment ends at the owners of its two ends
            owned = np.flatnonzero(own >= 0)
            near[owned, own[owned]] = False
            if at >= 0:
                near[:, at] = False
            ok &= ~near.any(axis=1)
        if ok.any():
            ok &= self._region_mask(0.5 * (p[None, :] + Q))
        return np.nonzero(ok)[0]


def _keys(paths):
    return {
        (i, j): (r.reached, r.length, None if r.path is None else r.path.vertices)
        for i, row in enumerate(paths)
        for j, r in enumerate(row)
        if r is not None
    }


def _assert_same(scene, points, hints=None, floor=None):
    """Every pair equal under both rows; returns the engine's pairs."""
    got = _keys(PreparedScene(scene, floor=floor).shortest_paths(points, hints))
    want = _keys(MaskedScene(scene, floor=floor).shortest_paths(points, hints))
    assert got == want
    return got


def _mid(s: Segment2) -> Point2:
    return P(0.5 * (s.a.x + s.b.x), 0.5 * (s.a.y + s.b.y))


# the reference row costs ~5 s per engine at three levels, so their floor
# takes the fewest edges
@pytest.mark.parametrize("levels, m", [((1, 2), 12), ((1, 2), 64), ((1, 2), 256), ((1, 2, 3), 12)])
def test_floor_confined_family(levels, m):
    r_min = 4.0 * 2.0 ** -len(levels)
    rng = random.Random(m + len(levels))

    def polar(r, th):
        return P(r * math.cos(th), r * math.sin(th))

    # points on the legs, off-node points clear of the floor, and points on
    # its rim: the legs' feet and three more
    points = [LEG_A.scaled(2.0), LEG_D.scaled(2.0)]
    clear = r_min / math.cos(math.pi / m)
    points += [polar(rng.uniform(1.05 * clear, 3.5), rng.uniform(0.02, WEDGE_ANGLE - 0.02)) for _ in range(4)]
    for th in [0.0, WEDGE_ANGLE] + [rng.uniform(0.02, WEDGE_ANGLE - 0.02) for _ in range(3)]:
        points.append(polar(_floor_radius_at(th, r_min, m), th))
    got = _assert_same(clipped_family_scene(levels), points, floor=circumscribed_polygon(r_min, m))
    assert any(reached for reached, _, _ in got.values())


def test_slit_domains_with_hints():
    rng = random.Random(7)
    for seed in range(10):
        domain = random_slit_domain(seed)
        points = boundary_arc_points(domain, 8)
        hints = [None] * len(points)
        for s in domain.slits:
            points += [_mid(s), _mid(s), s.a]
            hints += ["left", "right", None]
        while len(points) < len(hints) + 4:
            q = P(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if contains(domain, q) is Region.INTERIOR:
                points.append(q)
        hints += [None] * 4
        _assert_same(ObstacleScene.from_domain(domain), points, hints)


@pytest.mark.parametrize("depth", [4, 8, 16])
def test_combs(depth):
    domain = comb_domain(CombSpec(depth=depth))
    points = boundary_arc_points(domain, 12) + [P(0.9, 1.2), P(0.3, 0.35)]
    _assert_same(ObstacleScene.from_domain(domain), points)


def test_labyrinth():
    lab = spiral_labyrinth(SpiralSpec(1.0, 3, 0.03))
    points = [lab.entrance, lab.exit, P(0.0, 0.0), P(1.2, 0.3), lab.scene.segments[10].a]
    got = _assert_same(lab.scene, points)
    assert got[(0, 1)][1] > 2.0


def test_terminals_with_a_side_outside_the_region():
    # the unit square lies inside the floor; points on its right and top
    # walls lie on floor edges too, so no side of them is in the region
    square = ObstacleScene.from_domain(PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]))
    points = [P(1, 0.5), P(1, 0.2), P(0.5, 1), P(0.2, 1)]
    got = _assert_same(square, points, floor=circumscribed_polygon(1.0, 4))
    # along a shared wall only, never across the floor
    assert got[(0, 1)][:2] == (True, pytest.approx(0.3))
    assert not got[(0, 2)][0]
    # rim points of a 12-gon floor: a hint has no two-sided feature to
    # choose a side of, so every hint gives the unhinted route around the
    # rim, longer than the chord across the floor
    bar = ObstacleScene((Segment2(P(3, -1), P(3, 1)),))
    corners = circumscribed_polygon(1.0, 12)
    rim = [_mid(Segment2(corners[0], corners[1])), _mid(Segment2(corners[5], corners[6]))]
    assert rim[0].distance_to(rim[1]) == pytest.approx(1.93185165258)
    for hint in (None, "left", "right"):
        got = _assert_same(bar, rim, [hint, hint], floor=corners)
        assert got[(0, 1)][:2] == (True, pytest.approx(2.67949192431))
    # wall points next to an L-shaped domain's inner corner: hinted to the
    # solid side, they still meet along the walls, not through the notch
    ell = ObstacleScene.from_domain(PlanarDomain([P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]))
    for hint in (None, "right"):
        got = _assert_same(ell, [P(1.5, 1), P(1, 1.5)], [hint, hint])
        assert got[(0, 1)] == (True, pytest.approx(1.0), (P(1.5, 1), P(1, 1), P(1, 1.5)))


def test_terminal_inside_the_floor_raises():
    bar = ObstacleScene((Segment2(P(3, -1), P(3, 1)),))
    engine = PreparedScene(bar, floor=circumscribed_polygon(1.0, 12))
    with pytest.raises(TerminalInsideFloor) as exc:
        engine.shortest_path(P(0.1, 0.2), P(-0.3, 0.1))
    assert str(exc.value) == "terminal a lies strictly inside the floor polygon"
    with pytest.raises(TerminalInsideFloor) as exc:
        engine.shortest_paths([P(2, 0), P(4, 0), P(0.5, 0.5)])
    assert str(exc.value) == "terminal b lies strictly inside the floor polygon"


def _per_node_wedges(engine):
    """The engine's node wedges with one region mask per node, the number
    of wedges the masks dropped, and the number of unsplit nodes that lost
    their one wedge."""
    out, dropped, lone = [], 0, 0
    for p, (rays, _) in zip(engine.base_points, blocked_rays(engine._P, engine._FA, engine._FB, engine._angles)):
        wedges = wedges_from_rays(rays)
        mids = np.array([w[0] + 0.5 * w[1] for w in wedges])
        probes = np.stack([p.x + PROBE_DELTA * np.cos(mids), p.y + PROBE_DELTA * np.sin(mids)], axis=1)
        kept = [w for w, ok in zip(wedges, engine._region_mask(probes).tolist()) if ok]
        dropped += len(wedges) - len(kept)
        lone += len(wedges) == 1 and not kept
        out.append(kept)
    return out, dropped, lone


def test_node_wedges_match_the_per_node_mask():
    engines = [
        PreparedScene(clipped_family_scene(range(1, J + 1)), floor=circumscribed_polygon(4.0 * 2.0**-J, m))
        for J in (1, 2, 3)
        for m in (12, 64, 256)
    ]
    engines += [PreparedScene(ObstacleScene.from_domain(comb_domain(CombSpec(depth=d)))) for d in (4, 8, 16)]
    engines += [PreparedScene(ObstacleScene.from_domain(random_slit_domain(seed, 4))) for seed in range(10)]
    dropped = lone = 0
    for k, engine in enumerate(engines):
        want, n, unsplit = _per_node_wedges(engine)
        assert engine._node_wedges == want
        dropped += n
        # the family engines come first; their floors hold ray tips
        lone += unsplit if k < 9 else 0
    assert dropped > 0
    assert lone > 0


def _polar(r, th):
    return P(r * math.cos(th), r * math.sin(th))


def test_ray_tip_just_inside_the_floor_keeps_no_wedge():
    # two rays whose inner tips lie 5e-8 inside edges of a 256-gon floor:
    # a tip strictly inside keeps no wedge, so the route between the two
    # points rides the rim exactly as without the rays, never through the
    # floor from tip to tip; tips on the rim are split by the floor edge
    # and keep the two wedges beside their ray
    floor = circumscribed_polygon(0.25, 256)
    a, b = _polar(0.26, 0.005), _polar(0.26, math.pi - 0.004)
    want = PreparedScene(ObstacleScene(), floor=floor).shortest_path(a, b)
    assert want.length == pytest.approx(0.786886, abs=1e-6)
    for inset, kept in ((5e-8, 0), (0.0, 2)):
        tips = [_polar((0.25 - inset) / math.cos(0.001), phi + 0.001) for phi in (0.0, math.pi)]
        rays = tuple(Segment2(t, _polar(1.0, phi + 0.001)) for t, phi in zip(tips, (0.0, math.pi)))
        engine = PreparedScene(ObstacleScene(rays), floor=floor)
        assert [len(engine._node_wedges[engine.base_points.index(t)]) for t in tips] == [kept, kept]
        got = engine.shortest_path(a, b)
        assert (got.length, got.path.vertices) == (want.length, want.path.vertices)


def _row_cases():
    """(scene, floor, points) on the scenes above and on 50 seeded random
    obstacle scenes."""
    yield clipped_family_scene((1, 2)), circumscribed_polygon(1.0, 12), [LEG_A.scaled(2.0), P(2.5, 0.3)]
    for seed in range(5):
        domain = random_slit_domain(seed)
        yield ObstacleScene.from_domain(domain), None, boundary_arc_points(domain, 8)
    for depth in (4, 8, 16):
        domain = comb_domain(CombSpec(depth=depth))
        yield ObstacleScene.from_domain(domain), None, boundary_arc_points(domain, 12) + [P(0.9, 1.2)]
    lab = spiral_labyrinth(SpiralSpec(1.0, 1, 0.03))
    yield lab.scene, None, [lab.entrance, lab.exit, P(1.2, 0.3)]
    square = PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    yield ObstacleScene.from_domain(square), circumscribed_polygon(1.0, 4), [P(1, 0.5), P(0.5, 1)]
    rng = random.Random(12)
    for _ in range(50):
        scene = _random_obstacles(rng)
        yield scene, None, [_free_point(rng, scene) for _ in range(4)]


def test_block_rows_equal_single_source_rows(monkeypatch):
    cases = [(scene, floor, points, {}) for scene, floor, points in _row_cases()]
    # the default budget, then chunks of a few sources, then one source each
    for block in (visibility._ROW_BLOCK, 200, 1):
        monkeypatch.setattr(visibility, "_ROW_BLOCK", block)
        for scene, floor, points, paths in cases:
            engine = PreparedScene(scene, floor=floor)
            n = engine._n
            nodes = np.arange(n)
            base = [r.tolist() for r in engine._visibility(nodes, engine._P, nodes)]
            assert base == [engine._visibility(nodes[[i]], engine._P, nodes)[0].tolist() for i in range(n)]
            # the points, the first two at base nodes 0 and 1, against the
            # base nodes and the points
            T = np.vstack([engine._P[:2], point_array(points)])
            Q, own = np.vstack([engine._P, T]), np.concatenate([nodes, engine._owners(T)])
            assert own[n : n + 2].tolist() == [0, 1]
            src = np.arange(n, len(Q))
            rows = [r.tolist() for r in engine._visibility(src, Q, own)]
            assert rows == [engine._visibility(src[[r]], Q, own)[0].tolist() for r in range(len(T))]
            # the cache: every base row on the first miss when they fit one
            # block, else one row at a time
            engine._vis_row(0)
            assert len(engine._nbrs) == (n if n * n * len(engine._FA) <= block else 1)
            assert [engine._vis_row(i) for i in range(n)] == base
            if floor is None and n < 20:
                got = _keys(engine.shortest_paths(points))
                assert got == paths.setdefault("want", got)


def _chunk_case(name):
    """Scenes with more features than the crossing filter's first chunk:
    the floor-confined family, whose floor edges are its last features,
    and a depth-16 comb."""
    if name == "family":
        points = [LEG_A.scaled(2.0), LEG_D.scaled(2.0), P(2.5, 0.3), P(1.6, 0.4)]
        for th in (0.2 * WEDGE_ANGLE, 0.5 * WEDGE_ANGLE, 0.9 * WEDGE_ANGLE):
            r = _floor_radius_at(th, 1.0, 64)
            points.append(P(r * math.cos(th), r * math.sin(th)))
        return clipped_family_scene((1, 2)), circumscribed_polygon(1.0, 64), points
    domain = comb_domain(CombSpec(depth=16))
    return ObstacleScene.from_domain(domain), None, boundary_arc_points(domain, 12) + [P(0.9, 1.2), P(0.3, 0.35)]


def _chunk_rows(engine, points):
    """The rows of every base node, then of the points, the first two at
    base nodes 0 and 1, against the base nodes and the points."""
    n = engine._n
    nodes = np.arange(n)
    rows = [r.tolist() for r in engine._visibility(nodes, engine._P, nodes)]
    T = np.vstack([engine._P[:2], point_array(points)])
    Q, own = np.vstack([engine._P, T]), np.concatenate([nodes, engine._owners(T)])
    return rows + [r.tolist() for r in engine._visibility(np.arange(n, len(Q)), Q, own)]


@pytest.mark.parametrize("name", ["family", "comb"])
def test_crossing_chunk_width_changes_nothing(monkeypatch, name):
    scene, floor, points = _chunk_case(name)
    paths = _keys(MaskedScene(scene, floor=floor).shortest_paths(points))
    near, block = visibility._NEAR_CHUNK, visibility._ROW_BLOCK
    want = None
    # (_CROSS_CHUNK, _NEAR_CHUNK, _ROW_BLOCK): one chunk holding every
    # feature first, the single-pass row in scene order; then scene-order
    # chunks of 1 and 7 features with all sources in one block, which leave
    # a partial last chunk; then single-source rows sorted nearest first,
    # from a first chunk of 1, 3 and the default width
    for setting in [(1 << 20, near, block), (1, near, 1 << 30), (7, near, 1 << 30)] + [
        (visibility._CROSS_CHUNK, first, block) for first in (1, 3, near)
    ]:
        for attr, value in zip(("_CROSS_CHUNK", "_NEAR_CHUNK", "_ROW_BLOCK"), setting):
            monkeypatch.setattr(visibility, attr, value)
        engine = PreparedScene(scene, floor=floor)
        assert len(engine._FA) > 64
        rows = _chunk_rows(engine, points)
        want = rows if want is None else want
        assert rows == want
        got = _keys(engine.shortest_paths(points))
        assert got == paths
        assert any(reached for reached, _, _ in got.values())
        # the features in another order give the same rows
        perm = np.random.default_rng(0).permutation(len(engine._FA))
        engine._FA, engine._FB = engine._FA[perm], engine._FB[perm]
        assert _chunk_rows(engine, points) == want


def test_nearest_features_first_tests_fewer_crossings(monkeypatch):
    """Over all base rows of both chunk cases, the sorted single-source rows
    test at most 40% of the (candidate, feature) pairs of the single pass."""
    cross = _batch.cross_matrix
    tested = []

    def counting(*args):
        out = cross(*args)
        tested[-1] += out.size
        return out

    monkeypatch.setattr(_batch, "cross_matrix", counting)
    for name in ("family", "comb"):
        scene, floor, _ = _chunk_case(name)
        for chunk in (1 << 20, visibility._CROSS_CHUNK):
            monkeypatch.setattr(visibility, "_CROSS_CHUNK", chunk)
            engine = PreparedScene(scene, floor=floor)
            nodes = np.arange(engine._n)
            tested.append(0)
            engine._visibility(nodes, engine._P, nodes)
        single, nearest = tested[-2:]
        assert nearest <= 0.4 * single, (name, nearest, single)


def _obstacles_in(domain, rng):
    """Seeded segments inside the domain, and segments from its interior to
    0.5 EPS_GEOM beyond the middle of an outer wall, which validation lets
    pass as wall contact."""
    segs = []

    def add(s):
        try:
            ObstacleScene(tuple(segs) + (s,), boundary=domain)
        except SceneInvalid:
            return
        segs.append(s)

    while len(segs) < 6:
        a = P(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        th, r = rng.uniform(0, math.pi), rng.uniform(0.05, 0.3)
        b = P(a.x + r * math.cos(th), a.y + r * math.sin(th))
        if all(contains(domain, q) is Region.INTERIOR for q in (a, b)):
            add(Segment2(a, b))
    for w in domain.boundary_features()[:3]:
        m, d = _mid(w), w.b - w.a
        n = P(d.y, -d.x).scaled(1.0 / math.hypot(d.x, d.y))
        n = n if contains(domain, m + n.scaled(1e-3)) is Region.EXTERIOR else n.scaled(-1.0)
        add(Segment2(m - n.scaled(0.2), m + n.scaled(0.5 * EPS_GEOM)))
    return tuple(segs)


def _near(s, rng, offsets):
    """Points on segment s and at the given distances off it: across it at
    random places and at its ends, and beyond each end along it."""
    d = s.b - s.a
    u = d.scaled(1.0 / math.hypot(d.x, d.y))
    n = P(-u.y, u.x)
    pts = []
    for t in (0.0, rng.random(), rng.random(), 1.0):
        q = s.a + d.scaled(t)
        pts += [q + n.scaled(k * EPS_GEOM) for k in offsets]
    pts += [s.a - u.scaled(k * EPS_GEOM) for k in offsets] + [s.b + u.scaled(k * EPS_GEOM) for k in offsets]
    return pts


def test_closure_mask_is_contains():
    rng = random.Random(16)
    scenes = [clipped_family_scene((1, 2, 3))]
    for seed in range(5):
        domain = random_slit_domain(seed)
        scenes.append(ObstacleScene(_obstacles_in(domain, rng), boundary=domain))
    beside_obstacle_outside = 0
    for scene in scenes:
        domain = scene.boundary
        pts = [P(rng.uniform(-2.2, 4.5), rng.uniform(-2.2, 4.5)) for _ in range(300)]
        for s in scene.segments:
            pts += _near(s, rng, (0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0))
        for w in domain.boundary_features():
            pts += _near(w, rng, (0.0, 0.5, 1.0, 1.2, 1.5, 2.0, 3.0, -0.5, -1.0, -1.2, -1.5, -2.0, -3.0))
        want = [contains(domain, p) is not Region.EXTERIOR for p in pts]
        # the engine has no floor, so its region is the closure
        assert PreparedScene(scene)._region_mask(point_array(pts)).tolist() == want
        FA, FB = point_array([s.a for s in scene.segments]), point_array([s.b for s in scene.segments])
        near = (_batch.point_seg_dists(point_array(pts), FA, FB) <= EPS_GEOM).any(axis=1)
        beside_obstacle_outside += int((near & ~np.array(want)).sum())
    # points within EPS_GEOM of an obstacle segment that pokes out of a wall
    # are outside the closure all the same
    assert beside_obstacle_outside > 0
