"""Exact messages of the scene validators.

One invalid input per raise site of ``validate_simple_polygon``,
``PlanarDomain`` and ``ObstacleScene._validate``.  Most inputs break a rule
more than once, so the message also pins which offending index (pair) is
reported first.
"""
import math

import pytest

from relmetric.errors import DomainInvalid, SceneInvalid
from relmetric.geom import PlanarDomain, Point2, Segment2
from relmetric.visibility import ObstacleScene


def pts(*xy):
    return [Point2(x, y) for x, y in xy]


def seg(ax, ay, bx, by):
    return Segment2(Point2(ax, ay), Point2(bx, by))


SQUARE = pts((0, 0), (1, 0), (1, 1), (0, 1))
BIG = pts((0, 0), (4, 0), (4, 4), (0, 4))


def cw_box(x0, y0, x1, y1):
    return tuple(pts((x0, y0), (x0, y1), (x1, y1), (x1, y0)))


PENTAGRAM = [
    Point2(math.cos(math.pi / 2 + 4 * math.pi * k / 5), math.sin(math.pi / 2 + 4 * math.pi * k / 5))
    for k in range(5)
]
# a notch from the top edge down to (2, 1)
NOTCHED = pts((0, 0), (4, 0), (4, 4), (2.5, 4), (2, 1), (1.5, 4), (0, 4))

POLYGON_CASES = [
    (pts((0, 0), (1, 0)), "outer: needs at least 3 vertices, got 2"),
    (pts((0, 0), (1, 0), (1, 0), (1, 1), (1, 1), (0, 1)), "outer: repeated consecutive vertex at index 1"),
    (pts((0, 0), (1, 0), (2, 0)), "outer: vanishing area"),
    (PENTAGRAM, "outer: edges 0 and 2 cross"),
    (pts((0, 0), (2, 0), (1, 0), (1, 1)), "outer: edges 0 and 1 overlap"),
    # the vertex (2, 0) sits on edge 0, so edges 3 and 4 both touch it
    (pts((0, 0), (4, 0), (4, 3), (3, 3), (2, 0), (1, 3), (0, 3)), "outer: edges 0 and 3 touch (touch)"),
    # the vertex (1, 1) is visited twice
    (pts((0, 0), (2, 0), (1, 1), (2, 3), (0, 3), (1, 1)), "outer: edges 1 and 4 touch (shared-endpoint)"),
]


@pytest.mark.parametrize("outer,message", POLYGON_CASES)
def test_simple_polygon_messages(outer, message):
    with pytest.raises(DomainInvalid) as exc:
        PlanarDomain(outer)
    assert str(exc.value) == message


def test_hole_polygon_message_names_the_hole():
    holes = (cw_box(1, 1, 2, 2), tuple(pts((3, 3), (3.5, 3))))
    with pytest.raises(DomainInvalid) as exc:
        PlanarDomain(BIG, holes=holes)
    assert str(exc.value) == "hole[1]: needs at least 3 vertices, got 2"


DOMAIN_CASES = [
    (dict(outer=list(reversed(SQUARE))), "outer boundary must be counter-clockwise"),
    (
        dict(outer=BIG, holes=(cw_box(1, 1, 2, 2), tuple(reversed(cw_box(2.5, 2.5, 3, 3))))),
        "hole[1] must be clockwise",
    ),
    (
        dict(outer=BIG, holes=(cw_box(1, 1, 2, 2), cw_box(3, 3, 5, 3.5))),
        "hole[1] not strictly inside the outer boundary",
    ),
    (
        dict(outer=BIG, holes=(cw_box(1, 1, 2, 2), cw_box(3, 0, 3.5, 1))),
        "hole[1] not strictly inside the outer boundary",
    ),
    # every vertex is inside, but the top edge runs through the notch
    (dict(outer=NOTCHED, holes=(cw_box(1, 0.5, 3, 2),)), "hole[0] touches the outer boundary"),
    (
        dict(
            outer=BIG,
            holes=(cw_box(0.5, 0.5, 1.5, 1.5), cw_box(2, 2, 3, 3), cw_box(1, 1, 2, 2)),
        ),
        "holes 0 and 2 touch",
    ),
    (
        dict(outer=SQUARE, slits=(seg(0.2, 0.2, 0.4, 0.2), seg(0.5, 0.5, 1.5, 0.5))),
        "slit[1] endpoint outside the domain",
    ),
    (
        dict(outer=BIG, holes=(cw_box(1, 1, 2, 2),), slits=(seg(0.5, 0.5, 1.5, 1.5),)),
        "slit[0] endpoint inside a hole",
    ),
    (
        dict(outer=BIG, holes=(cw_box(1, 1, 2, 2),), slits=(seg(0.5, 1.5, 2.5, 1.5),)),
        "slit[0] crosses the boundary",
    ),
    (
        dict(outer=SQUARE, slits=(seg(0.2, 0.5, 0.4, 0.5), seg(0.2, 0.0, 0.5, 0.0))),
        "slit[1] overlaps the boundary",
    ),
    # the hole's bottom vertex presses on the slit's interior
    (
        dict(
            outer=BIG,
            holes=(tuple(pts((2, 1), (1.5, 1.5), (2, 2), (2.5, 1.5))),),
            slits=(seg(1.5, 1, 2.5, 1),),
        ),
        "slit[0] interior touches the boundary",
    ),
    (
        dict(
            outer=BIG,
            slits=(seg(1, 1, 2, 1), seg(1, 3, 2, 3), seg(1.5, 0.5, 1.5, 3.5)),
        ),
        "slits 0 and 2 cross",
    ),
    (
        dict(outer=BIG, slits=(seg(0.5, 0.5, 1, 0.5), seg(1, 1, 2, 1), seg(1.5, 1, 3, 1))),
        "slits 1 and 2 overlap",
    ),
    (
        dict(outer=BIG, slits=(seg(1, 1, 3, 1), seg(2, 1, 2, 2), seg(2.5, 1, 2.5, 2))),
        "slits 0 and 1 touch",
    ),
    (
        dict(outer=SQUARE, slits=(seg(0, 0.5, 0.3, 0.5), seg(0.3, 0.5, 1, 0.5), seg(0.5, 0, 0.5, 0.2))),
        "slit[1] closes a cut: the open interior would be disconnected",
    ),
    # a raw pair of points, not a Segment2
    (
        dict(outer=SQUARE, slits=(seg(0.2, 0.2, 0.4, 0.2), tuple(pts((0.5, 0.5), (0.7, 0.5))))),
        "slit[1] must be a Segment2",
    ),
]


@pytest.mark.parametrize("kwargs,message", DOMAIN_CASES)
def test_domain_messages(kwargs, message):
    with pytest.raises(DomainInvalid) as exc:
        PlanarDomain(**kwargs)
    assert str(exc.value) == message


SLIT_SQUARE = PlanarDomain(SQUARE, slits=(seg(0.3, 0.5, 0.7, 0.5),))

SCENE_CASES = [
    (
        dict(segments=(seg(0, 0, 1, 0), seg(2, 1, 2, 3), seg(0, 2, 3, 2), seg(0.5, -1, 0.5, 1))),
        "obstacle segments 0 and 3 cross",
    ),
    # crossings are reported before overlaps, whatever their order
    (
        dict(segments=(seg(0, 0, 1, 0), seg(0.5, 0, 2, 0), seg(1.5, -1, 1.5, 1))),
        "obstacle segments 1 and 2 cross",
    ),
    (
        dict(segments=(seg(5, 5, 6, 5), seg(0, 0, 1, 0), seg(0.5, 0, 2, 0), seg(0.8, 0, 3, 0))),
        "obstacle segments 1 and 2 overlap",
    ),
    (
        dict(
            segments=(seg(0.1, 0.1, 0.2, 0.2), seg(0.5, 0.8, 1.5, 0.8), seg(0.2, 0.0, 0.5, 0.0)),
            boundary=SLIT_SQUARE,
        ),
        "obstacle segment 1 leaves the domain",
    ),
    (
        dict(
            segments=(seg(0.1, 0.1, 0.2, 0.2), seg(0.5, 0.4, 0.5, 0.6), seg(0.2, 0.0, 0.5, 0.0)),
            boundary=SLIT_SQUARE,
        ),
        "obstacle segment 1 crosses the domain boundary",
    ),
    (
        dict(
            segments=(seg(0.1, 0.1, 0.2, 0.2), seg(0.2, 0.0, 0.5, 0.0), seg(0.5, 0.4, 0.5, 0.6)),
            boundary=SLIT_SQUARE,
        ),
        "obstacle segment 1 overlaps the domain boundary",
    ),
]


@pytest.mark.parametrize("kwargs,message", SCENE_CASES)
def test_obstacle_scene_messages(kwargs, message):
    with pytest.raises(SceneInvalid) as exc:
        ObstacleScene(**kwargs)
    assert str(exc.value) == message
