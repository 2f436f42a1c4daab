"""Primitives, polygon validation, slit rules and inward offsets."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmetric import _batch
from relmetric.constructions import (
    CombSpec,
    SpiralSpec,
    clipped_family_scene,
    comb_domain,
    random_slit_domain,
    spiral_labyrinth,
)
from relmetric.errors import DomainInvalid, MissingHint, OffsetFailed
from relmetric.geom import (
    EPS_GEOM,
    PlanarDomain,
    Point2,
    Polyline,
    Region,
    Segment2,
    blocked_rays,
    contains,
    feature_arrays,
    inward_offset,
    point_array,
)
from relmetric.visibility import ObstacleScene, PreparedScene, circumscribed_polygon
from _reference import (
    free_wedges,
    orientation,
    point_segment_distance,
    polygon_signed_area,
    properly_cross,
    segment_segment_distance,
)

UNIT_SQUARE = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def pt(x, y):
    return Point2(x, y)


def contact(s, t):
    """Contact kind of one segment pair, from the batched kernel."""
    ends = [np.array([p.as_tuple()]) for p in (s.a, s.b, t.a, t.b)]
    return _batch.CONTACT_KINDS[_batch.contacts(*ends, EPS_GEOM)[0, 0]]


# -- primitives -------------------------------------------------------------


def test_point_ops():
    a = pt(3, 4)
    assert a.norm() == 5
    assert (a - a).as_tuple() == (0.0, 0.0)
    assert pt(1, 0).cross(pt(0, 1)) == 1


def test_degenerate_segment_rejected():
    with pytest.raises(DomainInvalid):
        Segment2(pt(0, 0), pt(0, 0))


def test_polyline_point_at_clamps():
    pl = Polyline((pt(0, 0), pt(1, 0), pt(1, 1)))
    assert pl.length() == pytest.approx(2.0)
    assert pl.point_at(-1).as_tuple() == (0, 0)
    assert pl.point_at(99).as_tuple() == (1, 1)
    assert pl.point_at(1.5).as_tuple() == (1.0, 0.5)


@given(coords, coords, coords, coords, coords, coords)
def test_point_segment_distance_is_a_lower_bound(px, py, ax, ay, bx, by):
    a, b, p = pt(ax, ay), pt(bx, by), pt(px, py)
    d = point_segment_distance(p, a, b)
    assert d <= p.distance_to(a) + 1e-9
    assert d <= p.distance_to(b) + 1e-9
    assert d >= -1e-12


@given(coords, coords, coords, coords)
def test_segment_distance_symmetric(ax, ay, bx, by):
    sa = pt(ax, ay)
    sb = pt(ax + 1.25, ay - 0.5)
    ta = pt(bx, by)
    tb = pt(bx - 0.75, by + 2.0)
    s, t = Segment2(sa, sb), Segment2(ta, tb)
    assert segment_segment_distance(s, t) == pytest.approx(
        segment_segment_distance(t, s), abs=1e-12
    )


# coordinates on a coarse grid make touching and collinear pairs common
segment_coords = st.one_of(st.integers(-3, 3).map(float), coords)
segments = (
    st.tuples(*[segment_coords] * 4)
    .filter(lambda c: math.hypot(c[2] - c[0], c[3] - c[1]) > EPS_GEOM)
    .map(lambda c: Segment2(pt(c[0], c[1]), pt(c[2], c[3])))
)


def _ends(segs):
    return point_array([s.a for s in segs]), point_array([s.b for s in segs])


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=5), st.lists(segments, min_size=1, max_size=5))
def test_distance_kernels_match_the_scalar_references(points, segs):
    P, (A, B) = np.array(points), _ends(segs)
    pts = [pt(*p) for p in points]
    want = [[point_segment_distance(p, s.a, s.b) for s in segs] for p in pts]
    assert np.allclose(_batch.point_seg_dists(P, A, B), want, rtol=0.0, atol=1e-12)
    # segments from the first point to the others, against all points as nodes
    want = [[point_segment_distance(n, pts[0], q) for n in pts] for q in pts]
    assert np.allclose(_batch.seg_point_dists(P[0], P, P), want, rtol=0.0, atol=1e-12)
    # the same with a start per segment: every ordered pair of points
    r, c = np.indices((len(pts), len(pts))).reshape(2, -1)
    want = [[point_segment_distance(n, pts[a], pts[b]) for n in pts] for a, b in zip(r, c)]
    assert np.allclose(_batch.seg_point_dists(P[r], P[c], P), want, rtol=0.0, atol=1e-12)
    # crossing mask for a block of sources, every point to every point
    block = _batch.cross_matrix(P[:, None], P, A, B, EPS_GEOM)
    assert block.shape == (len(pts), len(pts), len(segs))
    for a, p in enumerate(pts):
        assert (block[a] == _batch.cross_matrix(P[a], P, A, B, EPS_GEOM)).all()
        for b, q in enumerate(pts):
            if p.distance_to(q) > EPS_GEOM:
                assert block[a, b].tolist() == [properly_cross(Segment2(p, q), s) for s in segs]
    # the paired form: one row per (source, candidate) pair
    pairs = _batch.cross_matrix(P[r], P[c], A, B, EPS_GEOM)
    assert pairs.shape == (len(r), len(segs))
    assert (pairs == block[r, c]).all()
    for k, (a, b) in enumerate(zip(r, c)):
        if pts[a].distance_to(pts[b]) > EPS_GEOM:
            assert pairs[k].tolist() == [properly_cross(Segment2(pts[a], pts[b]), s) for s in segs]
    # every ordered pair of segments; the kernel's orientation test is exact
    i, j = np.indices((len(segs), len(segs))).reshape(2, -1)
    got = _batch.seg_pair_dists(A[i], B[i], A[j], B[j])
    for g, k, m in zip(got, i, j):
        assert g == pytest.approx(segment_segment_distance(segs[k], segs[m], 0.0), rel=0.0, abs=1e-12)
        if properly_cross(segs[k], segs[m], 0.0):
            assert g == 0.0


def test_distance_kernels_on_fixed_cases():
    # more segments than one block of the through-node kernel
    rng = random.Random(5)
    nodes = [pt(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(7)]
    ends = [pt(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2 * _batch._NODE_BLOCK + 3)]
    src = pt(0.1, -0.2)
    got = _batch.seg_point_dists(np.array(src.as_tuple()), point_array(ends), point_array(nodes))
    want = [[point_segment_distance(n, src, q) for n in nodes] for q in ends]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    # (a1, b1, a2, b2, distance): crossing and touching pairs meet; collinear
    # pairs are measured at their endpoints, apart or overlapping
    cases = [
        ((0, 0), (2, 0), (1, -1), (1, 1), 0.0),
        ((0, 0), (2, 0), (2, 0), (3, 1), 0.0),
        ((0, 0), (2, 0), (1, 0), (1, 1), 0.0),
        ((0, 0), (1, 0), (2, 0), (3, 0), 1.0),
        ((0, 0), (1, 1), (2, 2), (3, 3), math.sqrt(2.0)),
        ((0, 0), (2, 0), (1, 0), (3, 0), 0.0),
        ((0, 0), (2, 0), (0, 1), (2, 1), 1.0),
    ]
    A1, B1, A2, B2 = (np.array([c[k] for c in cases], dtype=float) for k in range(4))
    assert _batch.seg_pair_dists(A1, B1, A2, B2).tolist() == [c[4] for c in cases]


def test_proper_crossing_vs_touching():
    s = Segment2(pt(0, 0), pt(2, 0))
    assert properly_cross(s, Segment2(pt(1, -1), pt(1, 1)))
    # endpoint touch is contact, not a proper crossing
    assert not properly_cross(s, Segment2(pt(2, 0), pt(3, 1)))
    assert contact(s, Segment2(pt(2, 0), pt(3, 1))) != "disjoint"
    assert contact(s, Segment2(pt(0, 1), pt(2, 1))) == "disjoint"


def reference_contact(s, t, eps=EPS_GEOM):
    """The contact rules pair by pair, from the scalar predicates."""
    if properly_cross(s, t, eps):
        return "cross"
    collinear = (
        orientation(s.a, s.b, t.a, eps)
        == orientation(s.a, s.b, t.b, eps)
        == orientation(t.a, t.b, s.a, eps)
        == orientation(t.a, t.b, s.b, eps)
        == 0
    )
    if collinear:
        d = s.b - s.a
        p1, p2 = (t.a - s.a).dot(d), (t.b - s.a).dot(d)
        if min(d.dot(d), max(p1, p2)) - max(0.0, min(p1, p2)) > eps * d.norm():
            return "overlap"
    if segment_segment_distance(s, t, eps) > eps:
        return "disjoint"
    if any(p.distance_to(q) <= eps for p in (s.a, s.b) for q in (t.a, t.b)):
        return "shared-endpoint"
    return "touch"


def test_contact_kernel_matches_the_scalar_rules():
    # endpoints on a coarse grid make touching, collinear and shared-endpoint
    # pairs common
    rng = random.Random(11)
    grid = [i / 4 for i in range(5)]
    segs = []
    while len(segs) < 60:
        a, b = pt(rng.choice(grid), rng.choice(grid)), pt(rng.choice(grid), rng.choice(grid))
        if a != b:
            segs.append(Segment2(a, b))
    A = np.array([s.a.as_tuple() for s in segs])
    B = np.array([s.b.as_tuple() for s in segs])
    kinds = _batch.contacts(A, B, A.copy(), B.copy(), EPS_GEOM)
    seen = set()
    for i, s in enumerate(segs):
        for j, t in enumerate(segs):
            seen.add(reference_contact(s, t))
            assert _batch.CONTACT_KINDS[kinds[i, j]] == reference_contact(s, t)
    assert seen == set(_batch.CONTACT_KINDS)
    # the set against itself: each unordered pair once, in the upper half
    upper = np.triu(np.ones(kinds.shape, dtype=bool), k=1)
    own = _batch.contacts(A, B, A, B, EPS_GEOM)
    assert (own[upper] == kinds[upper]).all()
    assert (own[~upper] == _batch.DISJOINT).all()


# -- polygons and domains ---------------------------------------------------


def test_signed_area_orientation():
    assert polygon_signed_area(UNIT_SQUARE) == pytest.approx(1.0)
    assert polygon_signed_area(list(reversed(UNIT_SQUARE))) == pytest.approx(-1.0)


def test_domain_rejects_clockwise_outer():
    with pytest.raises(DomainInvalid):
        PlanarDomain(list(reversed(UNIT_SQUARE)))


def test_domain_rejects_self_intersection():
    bow = [pt(0, 0), pt(1, 1), pt(1, 0), pt(0, 1)]
    with pytest.raises(DomainInvalid):
        PlanarDomain(bow)


def test_domain_accepts_lists_and_is_hashable():
    d = PlanarDomain(UNIT_SQUARE)
    assert isinstance(d.outer, tuple)
    hash(d)


def test_hole_must_be_clockwise_and_inside():
    hole_ccw = [pt(0.25, 0.25), pt(0.75, 0.25), pt(0.75, 0.75), pt(0.25, 0.75)]
    with pytest.raises(DomainInvalid):
        PlanarDomain(UNIT_SQUARE, holes=(tuple(hole_ccw),))
    d = PlanarDomain(UNIT_SQUARE, holes=(tuple(reversed(hole_ccw)),))
    assert contains(d, pt(0.5, 0.5)) is Region.EXTERIOR
    assert contains(d, pt(0.1, 0.1)) is Region.INTERIOR


def test_slit_that_disconnects_is_rejected():
    # a full-width cut would split the square in two
    with pytest.raises(DomainInvalid):
        PlanarDomain(
            UNIT_SQUARE, slits=(Segment2(pt(0.0, 0.5), pt(1.0, 0.5)),)
        )


def test_slit_touching_wall_at_one_end_is_fine():
    d = PlanarDomain(UNIT_SQUARE, slits=(Segment2(pt(0.0, 0.5), pt(0.6, 0.5)),))
    assert contains(d, pt(0.3, 0.5)) is Region.BOUNDARY
    assert contains(d, pt(0.8, 0.5)) is Region.INTERIOR


def test_contains_classification():
    d = PlanarDomain(UNIT_SQUARE)
    assert contains(d, pt(0.5, 0.5)) is Region.INTERIOR
    assert contains(d, pt(0.5, 0.0)) is Region.BOUNDARY
    assert contains(d, pt(0.0, 0.0)) is Region.BOUNDARY
    assert contains(d, pt(1.5, 0.5)) is Region.EXTERIOR


# -- free wedges and offsets ------------------------------------------------


def _starts_in_turn(wedges):
    return all(0.0 <= start < 2 * math.pi for start, _ in wedges)


def test_free_wedges_interior_full_turn():
    d = PlanarDomain(UNIT_SQUARE)
    w = free_wedges(d, pt(0.5, 0.5))
    assert len(w) == 1
    assert _starts_in_turn(w)
    assert w[0][1] == pytest.approx(2 * math.pi)


def test_free_wedges_wall_and_corner():
    # the angular complement of the blocked rays covers both sides of the
    # wall; callers probe and keep the interior side
    d = PlanarDomain(UNIT_SQUARE)
    wall = free_wedges(d, pt(0.5, 0.0))
    assert sum(extent for _, extent in wall) == pytest.approx(2 * math.pi)
    assert any(
        start == pytest.approx(0.0) and extent == pytest.approx(math.pi)
        for start, extent in wall
    )
    corner = free_wedges(d, pt(0.0, 0.0))
    assert any(
        start == pytest.approx(0.0) and extent == pytest.approx(math.pi / 2)
        for start, extent in corner
    )
    # the top-left corner blocks the ray at -pi/2, which starts a wedge at 3pi/2
    top_left = free_wedges(d, pt(0.0, 1.0))
    assert any(
        start == pytest.approx(1.5 * math.pi) and extent == pytest.approx(math.pi / 2)
        for start, extent in top_left
    )
    for w in (wall, corner, top_left, free_wedges(d, pt(0.0, 0.5))):
        assert _starts_in_turn(w)


def test_free_wedges_slit_point_two_sides():
    d = PlanarDomain(UNIT_SQUARE, slits=(Segment2(pt(0.3, 0.5), pt(0.7, 0.5)),))
    w = free_wedges(d, pt(0.5, 0.5))
    assert len(w) == 2
    assert sum(extent for _, extent in w) == pytest.approx(2 * math.pi)
    assert _starts_in_turn(w)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_inward_offset_distance_and_region(delta):
    d = PlanarDomain(UNIT_SQUARE)
    # the left wall and the top-left corner block rays at negative angles
    for p in (pt(0.5, 0.0), pt(0.0, 0.0), pt(1.0, 0.37), pt(0.0, 0.5), pt(0.0, 1.0)):
        q = inward_offset(d, p, delta)
        assert contains(d, q) is Region.INTERIOR
        assert p.distance_to(q) <= delta * (1 + 1e-9)


def test_inward_offset_slit_needs_hint():
    d = PlanarDomain(UNIT_SQUARE, slits=(Segment2(pt(0.3, 0.5), pt(0.7, 0.5)),))
    p = pt(0.5, 0.5)
    with pytest.raises(MissingHint):
        inward_offset(d, p, 1e-3)
    up = inward_offset(d, p, 1e-3, hint="left")
    down = inward_offset(d, p, 1e-3, hint="right")
    # slit runs +x, so its left side is +y
    assert up.y > 0.5 > down.y


def test_inward_offset_too_large_fails():
    d = PlanarDomain(UNIT_SQUARE)
    with pytest.raises(OffsetFailed):
        inward_offset(d, pt(0.5, 0.0), 5.0)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=30)
def test_offset_interior_from_any_wall_point(t):
    d = PlanarDomain(UNIT_SQUARE)
    q = inward_offset(d, pt(t, 0.0), 1e-3)
    assert contains(d, q) is Region.INTERIOR
    assert abs(q.x - t) <= 1e-3 + EPS_GEOM


# -- blocked rays: the array routine against the per-feature loop -------------


def reference_blocked_rays(features, p, eps=EPS_GEOM):
    """Per-feature loop: the ray angles leaving p and the index of the first
    feature whose interior passes through p."""
    rays, host = [], None
    for k, f in enumerate(features):
        d = f.direction()
        if p.distance_to(f.a) <= eps:
            rays.append(math.atan2(d.y, d.x))
        elif p.distance_to(f.b) <= eps:
            rays.append(math.atan2(-d.y, -d.x))
        elif point_segment_distance(p, f.a, f.b) <= eps:
            th = math.atan2(d.y, d.x)
            rays += [th, th + math.pi]
            if host is None:
                host = k
    return rays, host


def _ray_scenes():
    r_min = 4.0 * 2.0**-3
    yield PreparedScene(clipped_family_scene(range(1, 4)), floor=circumscribed_polygon(r_min, 256))
    yield PreparedScene(ObstacleScene.from_domain(comb_domain(CombSpec(8))))
    yield PreparedScene(spiral_labyrinth(SpiralSpec(1.0, 3, 1e-3, 64)).scene)
    for seed in range(3):
        yield PreparedScene(ObstacleScene.from_domain(random_slit_domain(seed)))


def test_blocked_rays_match_the_per_feature_loop():
    rng = random.Random(3)
    for engine in _ray_scenes():
        feats = engine.features
        points = list(engine.base_points)
        # wall and slit interiors at seeded positions; junctions are base nodes
        for f in rng.sample(feats, min(40, len(feats))):
            t = rng.uniform(0.05, 0.95)
            points.append(pt(f.a.x + t * (f.b.x - f.a.x), f.a.y + t * (f.b.y - f.a.y)))
        FA, FB, angles = feature_arrays(feats)
        got = blocked_rays(np.array([p.as_tuple() for p in points]), FA, FB, angles)
        for p, (rays, host) in zip(points, got):
            ref_rays, ref_host = reference_blocked_rays(feats, p)
            assert sorted(rays) == sorted(ref_rays)
            assert host == ref_host
    # features crossing at a point (valid scenes keep them apart): the host
    # is the first whose interior holds it
    feats = [Segment2(pt(0, 0), pt(2, 2)), Segment2(pt(-1, 0), pt(1, 0)), Segment2(pt(0, -1), pt(0, 1))]
    (rays, host), = blocked_rays(np.array([[0.0, 0.0]]), *feature_arrays(feats))
    assert (sorted(rays), host) == (sorted(reference_blocked_rays(feats, pt(0, 0))[0]), 1)
