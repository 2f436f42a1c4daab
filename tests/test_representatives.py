"""The metric's offset representatives, built for all points at once by
``geom.inward_offsets``, equal the per-point formulation of
``tests/_reference.py`` bit for bit, and on bad input fail with the error of
the first failing point, as that loop does."""
import math
import random
import sys

import pytest

from _reference import representatives
from relmetric import geom
from relmetric.constructions import random_slit_domain
from relmetric.errors import DomainInvalid, GeometryError, MissingHint, OffsetFailed, SceneInvalid, SpecInvalid
from relmetric.geom import PlanarDomain, Point2, Region, Segment2, contains, inward_offset, inward_offsets
from relmetric.metric import distance_matrix

P = Point2
SCHEDULES = [(1e-2, 1e-3, 1e-4), (1e-3,)]
# a slit 0.005 above the bottom wall: below it, the offset 1e-2 finds no room
NARROW = PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)], slits=(Segment2(P(0.2, 0.005), P(0.8, 0.005)),))
OK, BOUNDARY, UNDER_SLIT, OUTSIDE, ON_SLIT = P(0.5, 0.5), P(0, 0.5), P(0.5, 0), P(2, 2), P(0.5, 0.005)


def _outcome(points, hints, offsets, domain):
    """repr of the representatives (which tells floats apart bit for bit),
    or the error type and message, of the batched and the per-point code."""
    out = []
    for build in (inward_offsets, representatives):
        try:
            out.append(repr(build(domain, points, offsets, hints)))
        except GeometryError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _with_junction(domain):
    """The domain and a slit leaving the middle of its first outer edge that
    can take one, inward along the edge normal: its wall end borders two
    faces."""
    outer = domain.outer
    for a, b in zip(outer, outer[1:] + outer[:1]):
        m = P(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
        d = (b - a).unit()
        try:
            return PlanarDomain(outer, (), domain.slits + (Segment2(m, m + P(-d.y, d.x).scaled(0.2)),))
        except DomainInvalid:
            continue
    raise AssertionError("no outer edge takes a junction slit")


def _scene_points(domain, rng):
    """Interior points, outer vertices and outer-edge points, slit points
    with either hint, slit tips with and without a hint, and the wall end
    of the last slit (a slit-wall junction) with each hint."""
    points, hints = [], []

    def add(p, hint=None):
        points.append(p)
        hints.append(hint)

    xs, ys = [p.x for p in domain.outer], [p.y for p in domain.outer]
    while len(points) < 3:
        p = P(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if contains(domain, p) is Region.INTERIOR:
            add(p)
    outer = domain.outer
    for k, (a, b) in enumerate(zip(outer, outer[1:] + outer[:1])):
        add(a)
        if k < 3:
            t = rng.uniform(0.2, 0.8)
            add(P(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    for s in domain.slits[:-1]:
        t = rng.uniform(0.2, 0.8)
        for hint in ("left", "right"):
            add(P(s.a.x + t * (s.b.x - s.a.x), s.a.y + t * (s.b.y - s.a.y)), hint)
        for tip, hint in ((s.a, None), (s.b, None), (s.a, "left"), (s.b, "right")):
            add(tip, hint)
    for hint in (None, "left", "right"):
        add(domain.slits[-1].a, hint)
    return points, hints


@pytest.mark.parametrize("seed", range(6))
def test_batched_representatives_equal_the_per_point_loop(seed):
    domain = _with_junction(random_slit_domain(seed, slits=3))
    points, hints = _scene_points(domain, random.Random(seed))
    for offsets in SCHEDULES:
        got, want = _outcome(points, hints, offsets, domain)
        assert not want.startswith(("OffsetFailed", "MissingHint", "SceneInvalid"))
        assert got == want
    # the unhinted junction borders the faces on both sides of its slit
    assert len(inward_offsets(domain, points, SCHEDULES[0], hints)[-3]) == 2


@pytest.mark.parametrize("seed", range(6))
def test_batched_representatives_fail_as_the_per_point_loop(seed):
    domain = _with_junction(random_slit_domain(seed, slits=3))
    rng = random.Random(seed)
    points, hints = _scene_points(domain, rng)
    slit = next(i for i, h in enumerate(hints) if h == "left")
    cases = {
        "OffsetFailed": (points, hints, (5.0,)),
        "SceneInvalid": (points + [P(10, 10)], hints + [None], SCHEDULES[0]),
        "MissingHint": (points, hints[:slit] + [None] + hints[slit + 1:], SCHEDULES[0]),
    }
    for kind, (pts, hs, offsets) in cases.items():
        got, want = _outcome(pts, hs, offsets, domain)
        assert want.startswith(kind)
        assert got == want
        order = rng.sample(range(len(pts)), len(pts))
        got, want = _outcome([pts[i] for i in order], [hs[i] for i in order], offsets, domain)
        assert got == want


def test_the_first_failing_point_raises_in_every_order():
    # every failure kind at once, in many orders: the batched code fails at
    # a different step for each kind, the loop fails at the first point
    points = [OK, BOUNDARY, UNDER_SLIT, OUTSIDE, ON_SLIT, P(0.3, 0.005), P(0.6, 0.6)]
    hints = [None, None, None, None, None, "up", "up"]
    rng = random.Random(22)
    seen = set()
    for _ in range(60):
        order = rng.sample(range(len(points)), len(points))
        got, want = _outcome([points[i] for i in order], [hints[i] for i in order], SCHEDULES[0], NARROW)
        assert got == want
        seen.add(want.split(":")[0])
    assert seen == {"OffsetFailed", "SceneInvalid", "MissingHint"}


@pytest.mark.parametrize(
    "points, error",
    [
        ([OK, UNDER_SLIT, OUTSIDE], OffsetFailed),
        ([OK, OUTSIDE, UNDER_SLIT], SceneInvalid),
        ([BOUNDARY, UNDER_SLIT, ON_SLIT], OffsetFailed),
        ([BOUNDARY, ON_SLIT, UNDER_SLIT], MissingHint),
    ],
    ids=["offset-then-exterior", "exterior-then-offset", "offset-then-unhinted", "unhinted-then-offset"],
)
def test_distance_matrix_raises_the_first_failing_points_error(points, error):
    # checking every point's class or hint before any offset would raise the
    # later point's error in the first and third cases
    with pytest.raises(error):
        distance_matrix(NARROW, points)


@pytest.mark.parametrize("point", [BOUNDARY, OK], ids=["wall", "interior"])
def test_an_unknown_hint_off_every_slit_raises(point):
    # no slit passes through the point, so no side is chosen; the hint is an
    # error all the same, as in the per-point loop
    got, want = _outcome([OK, point], [None, "up"], SCHEDULES[0], NARROW)
    assert got == want == "MissingHint: unknown hint 'up'; expected 'left' or 'right'"
    with pytest.raises(MissingHint, match=r"^unknown hint 'up'"):
        distance_matrix(NARROW, [OK, point], hints=[None, "up"])
    # at its place in the order: a boundary point before it fails first,
    # and it fails before a later exterior point
    got, want = _outcome([UNDER_SLIT, point, OUTSIDE], [None, "up", None], SCHEDULES[0], NARROW)
    assert got == want and want.startswith("OffsetFailed")
    got, want = _outcome([point, OUTSIDE], ["up", None], SCHEDULES[0], NARROW)
    assert got == want and want.startswith("MissingHint")


def test_an_interior_point_is_its_own_representative():
    # at every offset and with any side hint: it needs no limit
    for offsets in SCHEDULES:
        got, want = _outcome([BOUNDARY, OK, P(0.3, 0.3)], [None, None, "left"], offsets, NARROW)
        assert got == want
        assert inward_offsets(NARROW, [OK], offsets, ["right"]) == [[(OK,) * len(offsets)]]
    for hint in (None, "left", "right"):
        assert inward_offset(NARROW, OK, 1e-3, hint) is OK


def test_an_exterior_point_raises_at_its_place_in_the_order():
    with pytest.raises(SceneInvalid, match=r"^point \(2, 2\) lies outside the domain closure$"):
        inward_offset(NARROW, OUTSIDE, 1e-3)
    cases = [([OK, BOUNDARY, OUTSIDE, UNDER_SLIT], "SceneInvalid"), ([UNDER_SLIT, OUTSIDE], "OffsetFailed")]
    cases += [([OUTSIDE, ON_SLIT], "SceneInvalid"), ([ON_SLIT, OUTSIDE], "MissingHint")]
    for points, kind in cases:
        got, want = _outcome(points, [None] * len(points), SCHEDULES[0], NARROW)
        assert got == want and want.startswith(kind)


def test_hints_must_parallel_points():
    # checked before any point, so a short list cannot drop the later ones
    points = [BOUNDARY, P(0.5, 1), P(1, 0.5)]
    for pts, hints in ((points, [None]), (points, [None] * 4), ([OUTSIDE], [])):
        with pytest.raises(SpecInvalid, match=r"^hints must parallel points$"):
            inward_offsets(NARROW, pts, SCHEDULES[0], hints)
    assert len(inward_offsets(NARROW, points, SCHEDULES[0], [None] * 3)) == 3


def test_distance_matrix_calls_no_contains(monkeypatch):
    def refuse(*args):
        raise AssertionError("contains called")

    original = geom.contains
    for name, module in list(sys.modules.items()):
        if name.startswith("relmetric") and getattr(module, "contains", None) is original:
            monkeypatch.setattr(module, "contains", refuse)
    points = [OK, BOUNDARY, P(0.5, 1), ON_SLIT, P(0.8, 0.005)]
    M = distance_matrix(NARROW, points, hints=[None, None, None, "left", None])
    assert math.isfinite(M[0][1].value)
