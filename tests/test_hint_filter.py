"""The side hint filter serves all points of a call at once and equals the
per-point filter of ``tests/_reference.py`` bit for bit; a query spends a
fixed number of distance kernel calls and region masks on its points'
sides, however many points it has."""
import math
import random

import _reference as reference
import pytest
from test_representatives import _with_junction
from test_search_reference import _random_obstacle_scene

from relmetric import _batch
from relmetric.constructions import random_slit_domain
from relmetric.geom import (
    PlanarDomain,
    Point2,
    blocked_rays,
    feature_arrays,
    hinted_wedges,
    point_array,
    wedges_from_rays,
)
from relmetric.rigidity import boundary_arc_points
from relmetric.visibility import ObstacleScene, PreparedScene

P = Point2
HINTS = (None, "left", "right")


def _along(s, t):
    return P(s.a.x + t * (s.b.x - s.a.x), s.a.y + t * (s.b.y - s.a.y))


def _cases():
    """(features, two-sided features, points) of 20 seeded obstacle scenes
    and 6 seeded slit domains with a slit-wall junction: points inside each
    two-sided feature and at both its ends, points on the walls, and points
    off every feature."""
    rng = random.Random(23)
    scenes = [(s.segments, s.segments) for s in (_random_obstacle_scene(rng) for _ in range(20))]
    for seed in range(6):
        domain = _with_junction(random_slit_domain(seed, slits=3))
        scenes.append((domain.boundary_features(), domain.slits))
    for features, sides in scenes:
        points = [P(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
        for s in features:
            points += [s.a, s.b, _along(s, 0.5), _along(s, rng.random())]
        yield features, sides, points


def _wedge_lists(features, points):
    T = point_array(points)
    return T, [wedges_from_rays(rays) for rays, _ in blocked_rays(T, *feature_arrays(features))]


def test_batched_filter_equals_the_per_point_filter():
    kept_at_end = kept_inside = 0
    for features, sides, points in _cases():
        T, wedge_lists = _wedge_lists(features, points)
        ends = {q for s in sides for q in (s.a, s.b)}
        for hint in HINTS:
            hints = [hint] * len(points)
            got = hinted_wedges(wedge_lists, T, hints, sides)
            want = [reference.hinted_wedges(w, p, hint, sides) for w, p in zip(wedge_lists, points)]
            assert repr(got) == repr(want)
            for p, before, after in zip(points, wedge_lists, got):
                kept_at_end += p in ends and len(after) < len(before)
                kept_inside += p not in ends and len(after) < len(before)
        # mixed hints in one call, and a hint of neither side, which
        # raises nothing here and picks the right side
        mixed = [HINTS[i % 3] for i in range(len(points))]
        want = [reference.hinted_wedges(w, p, h, sides) for w, p, h in zip(wedge_lists, points, mixed)]
        assert repr(hinted_wedges(wedge_lists, T, mixed, sides)) == repr(want)
        right = hinted_wedges(wedge_lists, T, ["right"] * len(points), sides)
        assert hinted_wedges(wedge_lists, T, ["up"] * len(points), sides) == right
    # the cases choose a side both inside features and at their ends
    assert kept_at_end > 0 and kept_inside > 0


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("count", [1, 7, 40])
def test_one_kernel_call_serves_every_hinted_point(monkeypatch, count):
    domain = random_slit_domain(1, slits=3)
    rng = random.Random(count)
    points = [_along(rng.choice(domain.slits), rng.random()) for _ in range(count)]
    T, wedge_lists = _wedge_lists(domain.boundary_features(), points)
    calls = _count(monkeypatch, _batch, "point_seg_dists")
    hinted_wedges(wedge_lists, T, [rng.choice(HINTS[1:]) for _ in points], domain.slits)
    assert len(calls) == 1
    hinted_wedges(wedge_lists, T, [None] * count, domain.slits)
    assert len(calls) == 1


def test_a_query_masks_its_points_sides_at_once(monkeypatch):
    # boundary samples of a convex 12-gon: those inside an edge lie off
    # every node, and each would take a region mask of its own
    gon = PlanarDomain(tuple(P(math.cos(k * math.tau / 12), math.sin(k * math.tau / 12)) for k in range(12)))
    engine = PreparedScene(ObstacleScene.from_domain(gon))
    queries = [boundary_arc_points(gon, m) for m in (8, 32)]
    masks = _count(monkeypatch, PreparedScene, "_region_mask")
    kernel = _count(monkeypatch, _batch, "point_seg_dists")
    work = []
    for points in queries:
        del masks[:], kernel[:]
        assert all(r.reached for row in engine.shortest_paths(points) for r in row if r)
        work.append((len(masks), len(kernel)))
    assert work[0] == work[1]
    assert work[0][0] == 1
