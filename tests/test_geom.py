"""Primitives, polygon validation, slit rules and inward offsets."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmetric.errors import DomainInvalid, MissingHint, OffsetFailed
from relmetric.geom import (
    EPS_GEOM,
    PlanarDomain,
    Point2,
    Polyline,
    Region,
    Segment2,
    classify_contact,
    contains,
    free_wedges,
    inward_offset,
    point_segment_distance,
    polygon_signed_area,
    properly_cross,
    segment_segment_distance,
)

UNIT_SQUARE = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def pt(x, y):
    return Point2(x, y)


# -- primitives -------------------------------------------------------------


def test_point_ops():
    a = pt(3, 4)
    assert a.norm() == 5
    assert (a - a).as_tuple() == (0.0, 0.0)
    assert a.perp().dot(a) == 0
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


def test_proper_crossing_vs_touching():
    s = Segment2(pt(0, 0), pt(2, 0))
    assert properly_cross(s, Segment2(pt(1, -1), pt(1, 1)))
    # endpoint touch is contact, not a proper crossing
    assert not properly_cross(s, Segment2(pt(2, 0), pt(3, 1)))
    assert classify_contact(s, Segment2(pt(2, 0), pt(3, 1))) != "disjoint"
    assert classify_contact(s, Segment2(pt(0, 1), pt(2, 1))) == "disjoint"


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
