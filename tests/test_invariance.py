"""Distances do not depend on where the scene sits: rotating and
translating a scene keeps every length, and scaling it scales them.

Obstacle scenes are also scaled, within [0.5, 3]: the absolute tolerances
make much smaller scenes a separate problem.  Slit domains only move
rigidly, because the inward offsets of boundary points are absolute
distances, so a scaled domain is evaluated on a different schedule.
"""
import math
import random

from relmetric.constructions import random_slit_domain
from relmetric.geom import PlanarDomain, Point2, Region, Segment2, contains
from relmetric.metric import distance_matrix, matrix_values
from relmetric.visibility import ObstacleScene, PreparedScene
from _reference import point_segment_distance
from test_acceptance import _free_point, _random_obstacles

REL_TOL = 1e-9
SCALES = (1.0, 0.5, 3.0)


def _motion(rng: random.Random, scale: float):
    th = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(th), math.sin(th)
    tx, ty = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)

    def move(p: Point2) -> Point2:
        return Point2(scale * (c * p.x - s * p.y) + tx, scale * (s * p.x + c * p.y) + ty)

    return move


def _rel_gap(moved: float, original: float, scale: float) -> float:
    if math.isinf(original) or math.isinf(moved):
        return 0.0 if moved == original else math.inf
    return abs(moved / scale - original) / max(original, 1.0)


def test_obstacle_lengths_follow_similarity_motions():
    rng = random.Random(7)
    worst = 0.0
    for k in range(50):
        scene = _random_obstacles(rng)
        a, b, c = (_free_point(rng, scene) for _ in range(3))
        scale = SCALES[k % len(SCALES)]
        move = _motion(rng, scale)
        moved = ObstacleScene(segments=tuple(Segment2(move(s.a), move(s.b)) for s in scene.segments))
        eng, eng_m = PreparedScene(scene), PreparedScene(moved)
        for p, q in ((a, b), (a, c), (c, b)):
            worst = max(
                worst,
                _rel_gap(eng_m.shortest_path(move(p), move(q)).length, eng.shortest_path(p, q).length, scale),
            )
    assert worst <= REL_TOL


def test_rho_follows_similarity_motions_on_slit_domains():
    worst = 0.0
    for seed in range(6):
        dom = random_slit_domain(seed)
        rng = random.Random(100 + seed)
        outer = dom.outer
        pts = [outer[0], outer[1], Point2(0.5 * (outer[2].x + outer[3].x), 0.5 * (outer[2].y + outer[3].y))]
        while len(pts) < 7:
            p = Point2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if contains(dom, p) is Region.INTERIOR and all(
                point_segment_distance(p, s.a, s.b) > 0.02 for s in dom.slits
            ):
                pts.append(p)
        move = _motion(rng, 1.0)
        moved = PlanarDomain(
            tuple(move(v) for v in outer),
            (),
            tuple(Segment2(move(s.a), move(s.b)) for s in dom.slits),
        )
        M = matrix_values(distance_matrix(dom, pts))
        M_m = matrix_values(distance_matrix(moved, [move(p) for p in pts]))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                worst = max(worst, _rel_gap(M_m[i, j], M[i, j], 1.0))
    assert worst <= REL_TOL
