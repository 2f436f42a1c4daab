"""One sha256 over search results, to compare two versions of the engine bit
for bit.  Run from the repository root:

    PYTHONPATH=src python tests/bit_identity.py

It hashes the reached flags, lengths and path vertices of
``PreparedScene.shortest_paths`` on 41 seeded obstacle scenes, a scene with
two exactly equal routes, 8 seeded slit domains and 2 combs; the estimates
of ``distance_matrix`` on 6 boundary points, 2 seeded interior points and
each slit's midpoint with either hint, in each slit domain; 5
floor-confined routes; and 3 ``boundary_profile`` matrices.  Floats enter
as their ``repr``, which round-trips, so equal digests mean equal answers.
The script checks no answer against a reference, and its name keeps it out
of pytest's collection."""
import hashlib
import math
import random

from test_search_reference import _keys, _mid, _obstacle_points, _random_obstacle_scene

from relmetric.constructions import CombSpec, comb_domain, confined_route, random_slit_domain
from relmetric.geom import PlanarDomain, Point2, Region, Segment2, contains
from relmetric.metric import distance_matrix
from relmetric.rigidity import boundary_arc_points, boundary_profile
from relmetric.visibility import ObstacleScene, PreparedScene

P = Point2


def _obstacle_tables():
    rng = random.Random(20)
    for _ in range(41):
        scene = _random_obstacle_scene(rng)
        points = _obstacle_points(rng, scene)
        yield _keys(PreparedScene(scene).shortest_paths(points, [None] * 9 + [rng.choice(["left", "right"])]))


def _tie_table():
    corners = [P(-1, -1), P(1, -1), P(1, 1), P(-1, 1)]
    square = ObstacleScene(tuple(Segment2(a, b) for a, b in zip(corners, corners[1:] + corners[:1])))
    return _keys(PreparedScene(square).shortest_paths([P(-2, 0), P(2, 0), P(0, -2), P(0, 2)]))


def _slit_tables():
    for seed in range(8):
        domain = random_slit_domain(seed)
        points, hints = boundary_arc_points(domain, 6), [None] * 6
        for s in domain.slits:
            points += [_mid(s), _mid(s), s.a, s.b]
            hints += ["left", "right", None, "right"]
        yield _keys(PreparedScene(ObstacleScene.from_domain(domain)).shortest_paths(points, hints))
        points = boundary_arc_points(domain, 6) + _interior_points(domain, random.Random(seed), 2)
        points += [_mid(s) for s in domain.slits for _ in "lr"]
        hints = [None] * (len(points) - 2 * len(domain.slits)) + ["left", "right"] * len(domain.slits)
        yield distance_matrix(domain, points, hints=hints)


def _interior_points(domain, rng, k):
    xs, ys = [p.x for p in domain.outer], [p.y for p in domain.outer]
    out = []
    while len(out) < k:
        p = P(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys)))
        if contains(domain, p) is Region.INTERIOR:
            out.append(p)
    return out


def _comb_tables():
    for depth in (4, 8):
        domain = comb_domain(CombSpec(depth=depth))
        points = boundary_arc_points(domain, 10) + [P(0.9, 1.2), P(0.3, 0.35)]
        yield _keys(PreparedScene(ObstacleScene.from_domain(domain)).shortest_paths(points))


def _confined_routes():
    for levels, r_min in (((2,), 0.5), ((3,), 0.25), ((2, 3), 0.25), ((3,), 0.5), ((1, 2), 1.0)):
        yield _keys([[confined_route(levels, r_min, m_circle=64)]])


def _profiles():
    square = PlanarDomain((P(0, 0), P(1, 0), P(1, 1), P(0, 1)))
    gon = PlanarDomain(tuple(P(math.cos(0.3 + k * math.tau / 7), math.sin(0.3 + k * math.tau / 7)) for k in range(7)))
    for domain, m in ((square, 8), (gon, 10), (random_slit_domain(3, slits=0), 9)):
        yield boundary_profile(domain, m).matrix.tolist()


def digest() -> str:
    h = hashlib.sha256()
    for part in (*_obstacle_tables(), _tie_table(), *_slit_tables(), *_comb_tables(), *_confined_routes(), *_profiles()):
        h.update(repr(part).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
