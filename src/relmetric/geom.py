"""Planar primitives, the slit-domain model, and its scene-wide questions.

Validation, :func:`contains`, blocked rays, wedges and inward offsets run on
the array kernels of :mod:`relmetric._batch`.  The scalar predicates that
tests compare those kernels against live in the test suite
(``tests/_reference.py``), not here.

Convention: all "zero" tests on cross products use an absolute tolerance
``EPS_GEOM`` on twice the signed area.  Scene coordinates are expected to be
of order 10 or less, so the tolerance is meaningful across the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _batch
from .errors import DomainInvalid, MissingHint, OffsetFailed, SceneInvalid, SpecInvalid

EPS_GEOM = 1e-9
ANG_TOL = 1e-9
TWO_PI = 2.0 * math.pi

Hint = str  # "left" | "right"


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainInvalid(f"non-finite coordinate in point ({self.x}, {self.y})")

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Point2":
        return Point2(self.x * k, self.y * k)

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def unit(self) -> "Point2":
        n = self.norm()
        if n <= 0.0:
            raise DomainInvalid("cannot normalize a zero vector")
        return Point2(self.x / n, self.y / n)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def scaled(self, k: float) -> "Point3":
        return Point3(self.x * k, self.y * k, self.z * k)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Segment2:
    a: Point2
    b: Point2

    def __post_init__(self) -> None:
        if self.a.distance_to(self.b) <= EPS_GEOM:
            raise DomainInvalid(f"degenerate segment at ({self.a.x}, {self.a.y})")

    def direction(self) -> Point2:
        return (self.b - self.a).unit()


@dataclass(frozen=True)
class Polyline:
    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise DomainInvalid("polyline needs at least one vertex")

    def length(self) -> float:
        """The sum of the edges, never below the chord between the ends:
        edges that each round down can sum below it on a near-straight path."""
        v = self.vertices
        return max(math.fsum(map(Point2.distance_to, v, v[1:])), v[0].distance_to(v[-1]))

    def cumulative_lengths(self) -> list[float]:
        out = [0.0]
        for i in range(len(self.vertices) - 1):
            out.append(out[-1] + self.vertices[i].distance_to(self.vertices[i + 1]))
        return out

    def point_at(self, s: float) -> Point2:
        """Point at arc length s from the first vertex (clamped to the ends)."""
        cum = self.cumulative_lengths()
        total = cum[-1]
        if s <= 0.0 or total == 0.0:
            return self.vertices[0]
        if s >= total:
            return self.vertices[-1]
        for i in range(len(cum) - 1):
            if s <= cum[i + 1]:
                seg_len = cum[i + 1] - cum[i]
                t = 0.0 if seg_len == 0.0 else (s - cum[i]) / seg_len
                a, b = self.vertices[i], self.vertices[i + 1]
                return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        return self.vertices[-1]


# ---------------------------------------------------------------------------
# polygon helpers
# ---------------------------------------------------------------------------


def polygon_edges(vertices: Sequence[Point2]) -> list[Segment2]:
    n = len(vertices)
    return [Segment2(vertices[i], vertices[(i + 1) % n]) for i in range(n)]


def point_array(points: Sequence[Point2]) -> np.ndarray:
    """The points as an (n, 2) float array."""
    return np.array([p.as_tuple() for p in points], dtype=float).reshape(-1, 2)


def _ring_area(V: np.ndarray) -> float:
    W = np.roll(V, -1, axis=0)
    return 0.5 * float(np.sum(V[:, 0] * W[:, 1] - V[:, 1] * W[:, 0]))


def validate_simple_polygon(vertices: Sequence[Point2], name: str) -> np.ndarray:
    """Raise DomainInvalid unless the closed polygon is simple; return its
    vertices as an (n, 2) array.

    Every edge pair is classified at once; the first offending pair in
    row-major order is reported.  Adjacent edges may share their vertex but
    must not cross or overlap."""
    n = len(vertices)
    if n < 3:
        raise DomainInvalid(f"{name}: needs at least 3 vertices, got {n}")
    V = point_array(vertices)
    W = np.roll(V, -1, axis=0)
    short = np.nonzero(np.hypot(W[:, 0] - V[:, 0], W[:, 1] - V[:, 1]) <= EPS_GEOM)[0]
    if short.size:
        raise DomainInvalid(f"{name}: repeated consecutive vertex at index {short[0]}")
    if abs(_ring_area(V)) <= EPS_GEOM:
        raise DomainInvalid(f"{name}: vanishing area")
    kind = _batch.contacts(V, W, V, W, EPS_GEOM)
    i, j = np.indices((n, n))
    adjacent = (j == i + 1) | ((i == 0) & (j == n - 1))
    allowed = (kind == _batch.DISJOINT) | (adjacent & np.isin(kind, (_batch.SHARED_ENDPOINT, _batch.TOUCH)))
    i, j = np.nonzero((j > i) & ~allowed)
    if i.size:
        what = _batch.CONTACT_KINDS[kind[i[0], j[0]]]
        if what not in ("cross", "overlap"):
            what = f"touch ({what})"
        raise DomainInvalid(f"{name}: edges {i[0]} and {j[0]} {what}")
    return V


# ---------------------------------------------------------------------------
# the slit-domain model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarDomain:
    """Closed Jordan-style region: CCW outer polygon, CW holes, interior slits.

    Slits are two-sided boundary segments; they may share endpoints with each
    other and may touch the outer/hole boundary at an endpoint, but must not
    disconnect the open interior.  Validation runs eagerly at construction.
    """

    outer: tuple[Point2, ...]
    holes: tuple[tuple[Point2, ...], ...] = ()
    slits: tuple[Segment2, ...] = ()

    def __post_init__(self) -> None:
        # accept any sequence; hashing (used for engine caching) needs tuples
        object.__setattr__(self, "outer", tuple(self.outer))
        object.__setattr__(self, "holes", tuple(tuple(h) for h in self.holes))
        object.__setattr__(self, "slits", tuple(self.slits))
        O = validate_simple_polygon(self.outer, "outer")
        if _ring_area(O) < 0:
            raise DomainInvalid("outer boundary must be counter-clockwise")
        # wall rings: the outer one, then the holes
        rings = [O] + [point_array(h) for h in self.holes]
        owner = np.repeat(np.arange(len(rings)), [len(R) for R in rings])
        if self.holes:
            # which rings have touching edges, found in one pass
            WA = np.vstack(rings)
            WB = np.vstack([np.roll(R, -1, axis=0) for R in rings])
            e, f = np.nonzero(_batch.contacts(WA, WB, WA, WB, EPS_GEOM) != _batch.DISJOINT)
            touching = np.zeros((len(rings), len(rings)), dtype=bool)
            touching[owner[e], owner[f]] = True
            for h_idx, hole in enumerate(self.holes):
                H = validate_simple_polygon(hole, f"hole[{h_idx}]")
                if _ring_area(H) > 0:
                    raise DomainInvalid(f"hole[{h_idx}] must be clockwise")
                on_b, inside = _batch.closure_parts(H, O, (), WA[: len(O)], WB[: len(O)], EPS_GEOM)
                if not (inside & ~on_b).all():
                    raise DomainInvalid(f"hole[{h_idx}] not strictly inside the outer boundary")
                if touching[0, h_idx + 1]:
                    raise DomainInvalid(f"hole[{h_idx}] touches the outer boundary")
            i, j = np.nonzero(np.triu(touching[1:, 1:], k=1))
            if i.size:
                raise DomainInvalid(f"holes {i[0]} and {j[0]} touch")
        if self.slits:
            self._validate_slits(rings, owner)

    # -- slit rules -------------------------------------------------------

    def _validate_slits(self, rings: list[np.ndarray], owner: np.ndarray) -> None:
        """Each slit in order: its endpoints lie in the closure (on a wall or
        in the open interior), and it meets the walls at most at its own
        endpoints.  Then slit pairs may share endpoints only, and the slits
        must not disconnect the open interior.  All pairs are classified at
        once; the first offense in that order is reported.  ``owner`` gives
        the ring (outer first, then the holes) of each wall edge."""
        for s_idx, slit in enumerate(self.slits):
            if not isinstance(slit, Segment2):
                raise DomainInvalid(f"slit[{s_idx}] must be a Segment2")
        FA, FB = domain_arrays(self)[:2]
        n_walls = len(owner)
        WA, WB, SA, SB = FA[:n_walls], FB[:n_walls], FA[n_walls:], FB[n_walls:]
        ends = np.stack([SA, SB], axis=1).reshape(-1, 2)  # a0, b0, a1, b1, ...
        on_wall = _batch.point_seg_dists(ends, WA, WB) <= EPS_GEOM
        free = ~on_wall.any(axis=1)
        outside = free & ~_batch.points_in_polygon(ends, rings[0])
        in_hole = np.any([_batch.points_in_polygon(ends, H) for H in rings[1:]], axis=0)
        end_fault = np.where(outside, 1, np.where(free & in_hole, 2, 0)).reshape(-1, 2)
        kind = _batch.contacts(SA, SB, WA, WB, EPS_GEOM)
        # a touch is a T-contact only at a slit endpoint, not at a slit-interior
        # point pressed against the wall
        at_end = on_wall[0::2] | on_wall[1::2]
        wall_fault = (
            (kind == _batch.CROSS) | (kind == _batch.OVERLAP) | ((kind == _batch.TOUCH) & ~at_end)
        )
        bad = end_fault.any(axis=1) | wall_fault.any(axis=1)
        if bad.any():
            s_idx = int(np.argmax(bad))
            for fault in end_fault[s_idx]:
                if fault == 1:
                    raise DomainInvalid(f"slit[{s_idx}] endpoint outside the domain")
                if fault == 2:
                    raise DomainInvalid(f"slit[{s_idx}] endpoint inside a hole")
            what = _batch.CONTACT_KINDS[kind[s_idx, np.argmax(wall_fault[s_idx])]]
            if what == "touch":
                raise DomainInvalid(f"slit[{s_idx}] interior touches the boundary")
            verb = "crosses" if what == "cross" else "overlaps"
            raise DomainInvalid(f"slit[{s_idx}] {verb} the boundary")
        pair = _batch.contacts(SA, SB, SA, SB, EPS_GEOM)
        i, j = np.nonzero((pair != _batch.DISJOINT) & (pair != _batch.SHARED_ENDPOINT))
        if i.size:
            raise DomainInvalid(f"slits {i[0]} and {j[0]} {_batch.CONTACT_KINDS[pair[i[0], j[0]]]}")

        # Connectivity as a graph: slit endpoints are vertices (merged when
        # within tolerance), each wall ring is a single vertex, each slit is
        # an edge.  A cycle means some slit chain either closes on itself or
        # spans wall-to-wall; both cut the interior.
        parent: dict[object, object] = {}

        def find(x: object) -> object:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        keys = [(round(x / (4 * EPS_GEOM)), round(y / (4 * EPS_GEOM))) for x, y in ends.tolist()]
        for key, hit in zip(keys, on_wall):
            for ring in set(owner[hit].tolist()):
                parent[find(key)] = find(("ring", ring))
        for s_idx in range(len(self.slits)):
            root_a, root_b = find(keys[2 * s_idx]), find(keys[2 * s_idx + 1])
            if root_a == root_b:
                raise DomainInvalid(
                    f"slit[{s_idx}] closes a cut: the open interior would be disconnected"
                )
            parent[root_a] = root_b

    # -- derived data -------------------------------------------------------

    def boundary_features(self) -> tuple[Segment2, ...]:
        return _domain_features(self)


@lru_cache(maxsize=64)
def _domain_features(domain: PlanarDomain) -> tuple[Segment2, ...]:
    feats = list(polygon_edges(domain.outer))
    for hole in domain.holes:
        feats.extend(polygon_edges(hole))
    feats.extend(domain.slits)
    return tuple(feats)


def feature_arrays(
    features: Sequence[Segment2],
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]]]:
    """Start and end points of the features as (n, 2) arrays, and the
    angles of each feature's two directions, a->b and b->a."""
    directions = [f.direction() for f in features]
    angles = [(math.atan2(d.y, d.x), math.atan2(-d.y, -d.x)) for d in directions]
    return point_array([f.a for f in features]), point_array([f.b for f in features]), angles


@lru_cache(maxsize=64)
def domain_arrays(
    domain: PlanarDomain,
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]], np.ndarray, tuple[np.ndarray, ...]]:
    """:func:`feature_arrays` of the domain's boundary features (outer edges,
    hole edges, slits), then its outer ring and its hole rings as (n, 2)
    arrays."""
    rings = (point_array(domain.outer), tuple(point_array(h) for h in domain.holes))
    return (*feature_arrays(_domain_features(domain)), *rings)


def closure_masks(domain: PlanarDomain, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For points P (k, 2): within EPS_GEOM of a boundary feature of the
    domain, and inside its outer ring but in none of its holes."""
    FA, FB, _, outer, holes = domain_arrays(domain)
    return _batch.closure_parts(P, outer, holes, FA, FB, EPS_GEOM)


def contains(domain: PlanarDomain, p: Point2) -> Region:
    """Classify p against the closed domain: Interior / Boundary / Exterior.

    Points within EPS_GEOM of any boundary feature (outer edge, hole edge or
    slit) classify as Boundary.
    """
    (on_b,), (inside,) = closure_masks(domain, np.array([p.as_tuple()]))
    return Region.BOUNDARY if on_b else Region.INTERIOR if inside else Region.EXTERIOR


def wedges_from_rays(angles: Iterable[float]) -> list[tuple[float, float]]:
    """Angular wedges (start, span) between consecutive blocked directions,
    with starts in [0, 2*pi) in increasing order.

    Zero or one blocked ray leaves the full turn as a single wedge, so the
    point needs no splitting.
    """
    uniq: list[float] = []
    for a in sorted(a % TWO_PI for a in angles):
        if not uniq or a - uniq[-1] > ANG_TOL:
            uniq.append(a)
    if len(uniq) >= 2 and (uniq[0] + TWO_PI) - uniq[-1] <= ANG_TOL:
        uniq.pop()
    if not uniq:
        return [(0.0, TWO_PI)]
    if len(uniq) == 1:
        return [(uniq[0], TWO_PI)]
    out = []
    for i, a in enumerate(uniq):
        nxt = uniq[(i + 1) % len(uniq)]
        span = (nxt - a) % TWO_PI
        if span > ANG_TOL:
            out.append((a, span))
    return out


def _in_wedge(theta: float, wedge: tuple[float, float]) -> bool:
    d = (theta - wedge[0]) % TWO_PI
    return d <= wedge[1] + ANG_TOL or d >= TWO_PI - ANG_TOL


def blocked_rays(
    P: np.ndarray,
    FA: np.ndarray,
    FB: np.ndarray,
    angles: Sequence[tuple[float, float]],
) -> list[tuple[list[float], int | None]]:
    """For each point P[i]: the angles of the feature directions leaving it
    (both ways for a feature whose interior passes through it), and the
    index of the first such feature, or None.

    Features are given as by :func:`feature_arrays`.  One distance kernel
    finds the features within EPS_GEOM of each point; only those few pairs are
    visited in Python."""
    rays: list[list[float]] = [[] for _ in range(len(P))]
    host: list[int | None] = [None] * len(P)
    ii, kk = np.nonzero(_batch.point_seg_dists(P, FA, FB) <= EPS_GEOM) if len(P) and len(FA) else ([], [])
    if len(ii):
        at_a = (np.hypot(P[ii, 0] - FA[kk, 0], P[ii, 1] - FA[kk, 1]) <= EPS_GEOM).tolist()
        at_b = (np.hypot(P[ii, 0] - FB[kk, 0], P[ii, 1] - FB[kk, 1]) <= EPS_GEOM).tolist()
        for i, k, end_a, end_b in zip(ii.tolist(), kk.tolist(), at_a, at_b):
            fwd, back = angles[k]
            if end_a:
                rays[i].append(fwd)
            elif end_b:
                rays[i].append(back)
            else:
                rays[i] += (fwd, fwd + math.pi)
                if host[i] is None:
                    host[i] = k
    return list(zip(rays, host))


def hinted_wedges(
    wedge_lists: list[list[tuple[float, float]]],
    P: np.ndarray,
    hints: Sequence[Hint | None],
    sides: Sequence[Segment2],
) -> list[list[tuple[float, float]]]:
    """For each point P[i], the wedges of wedge_lists[i] on the hinted side
    ("left" or "right" of the stored a->b direction) of the first two-sided
    feature in `sides` (obstacle segments, then slits) within EPS_GEOM of
    it: inside the feature, those holding its hinted normal; at an end, the
    one beside its ray from the point, since where it meets a wall obliquely
    the normal may point outside.

    A hint chooses between the two faces of such a feature and is ignored
    everywhere else: with no hint, no two-sided feature at the point, or no
    such wedge (a node whose wedges keep only those opening into the
    region), all the wedges are kept.  One distance kernel call serves the
    hinted points.  Nothing is raised: a hint other than "left" picks the
    right side, and callers reject one other than "right" in their own
    error order."""
    out = list(wedge_lists)
    hinted = [i for i, hint in enumerate(hints) if hint is not None]
    if not hinted or not sides:
        return out
    A, B = point_array([s.a for s in sides]), point_array([s.b for s in sides])
    on = _batch.point_seg_dists(P[hinted], A, B) <= EPS_GEOM
    for i, hit, first in zip(hinted, on.any(axis=1).tolist(), on.argmax(axis=1).tolist()):
        if not hit:
            continue
        (x, y), wall, wedges = P[i].tolist(), sides[first], out[i]
        side, d = 1.0 if hints[i] == "left" else -1.0, wall.direction()
        ends = ((wall.a, 1.0), (wall.b, -1.0))
        r = next((r for end, r in ends if math.hypot(x - end.x, y - end.y) <= EPS_GEOM), 0.0)
        if r:
            # the ray leaves the point along r*d; the hinted side is
            # counterclockwise of it when side*r > 0, and its wedge then
            # starts at the ray
            ray, edge = math.atan2(r * d.y, r * d.x), 0.0 if side * r > 0 else 1.0
            out[i] = [w for w in wedges if _in_wedge(ray, (w[0] + edge * w[1], 0.0))] or wedges
        else:
            normal = math.atan2(side * d.x, -side * d.y)
            out[i] = [w for w in wedges if _in_wedge(normal, w)] or wedges
    return out


def inward_offsets(
    domain: PlanarDomain,
    points: Sequence[Point2],
    deltas: Sequence[float],
    hints: Sequence[Hint | None],
) -> list[list[tuple[Point2, ...]]]:
    """For each point p of points: its interior representatives at each
    distance in deltas, one tuple per interior face that p borders.  The
    metric's query points take their representatives here and nowhere else.

    An interior point is its own representative at every delta.  For a
    boundary point, a representative lies on the bisector of a free wedge at
    p, in the open interior, and its step from p crosses no boundary
    feature.  Without a hint, each wedge that gives one at every delta is a
    face (a slit-wall junction borders two).  A point on a slit interior
    needs a hint, and a hint keeps the wedges :func:`hinted_wedges` gives
    for the slits.  With a hint, or when no wedge serves every delta, there
    is one tuple: at each delta, the first wedge that serves it.

    One closure test classifies the points; for the boundary ones, one
    :func:`blocked_rays` call finds the rays, one :func:`hinted_wedges` call
    the faces, and one closure test and one crossing test serve every
    (point, wedge, delta) candidate.  The first point that fails raises its
    error, even when a later point fails at an earlier step: SceneInvalid
    outside the closure, MissingHint for a hint other than "left" or
    "right" or none on a slit, OffsetFailed when a delta finds no room.
    """
    if len(hints) != len(points):
        raise SpecInvalid("hints must parallel points")
    if min(deltas) <= 0.0:
        raise OffsetFailed("offset distance must be positive")
    FA, FB, angles = domain_arrays(domain)[:3]
    P = point_array(points)
    n_walls = len(FA) - len(domain.slits)
    on_b, inside = (m.tolist() for m in closure_masks(domain, P))
    found = blocked_rays(P, FA, FB, angles)
    free = [wedges_from_rays(rays) if b else [] for (rays, _), b in zip(found, on_b)]
    wedge_lists = hinted_wedges(free, P, hints, domain.slits)
    cands = [(i, d, w[0] + 0.5 * w[1]) for i, ws in enumerate(wedge_lists) for w in ws for d in deltas]
    Q = [Point2(points[i].x + d * math.cos(t), points[i].y + d * math.sin(t)) for i, d, t in cands]
    QA = point_array(Q)
    q_on_b, q_inside = closure_masks(domain, QA)
    ok = q_inside & ~q_on_b
    ok[ok] = ~_batch.cross_matrix(P[[i for i, _, _ in cands]][ok], QA[ok], FA, FB, EPS_GEOM).any(axis=1)
    served = iter([q if good else None for q, good in zip(Q, ok.tolist())])
    out = []
    for p, hint, wedges, (_, host), b, n in zip(points, hints, wedge_lists, found, on_b, inside):
        if not (b or n):
            raise SceneInvalid(f"point ({p.x}, {p.y}) lies outside the domain closure")
        if hint is None and host is not None and host >= n_walls:
            raise MissingHint(f"point ({p.x}, {p.y}) lies on a slit; side hint required")
        if hint not in (None, "left", "right"):
            raise MissingHint(f"unknown hint {hint!r}; expected 'left' or 'right'")
        # an interior point is its one face, itself at every delta
        faces = [tuple(next(served) for _ in deltas) for _ in wedges] if b else [(p,) * len(deltas)]
        kept = [f for f in faces if None not in f]
        if hint is not None or not kept:
            # one tuple: at each delta, the first wedge that serves it
            kept = [tuple(next((q for q in column if q is not None), None) for column in zip(*faces))]
            if None in kept[0]:
                raise OffsetFailed(
                    f"no interior point within {deltas[kept[0].index(None)]} of ({p.x}, {p.y}); "
                    "offset larger than the local feature size?"
                )
        out.append(kept)
    return out


def inward_offset(
    domain: PlanarDomain,
    p: Point2,
    delta: float,
    hint: Hint | None = None,
) -> Point2:
    """The first representative of one point p at one distance delta, as
    :func:`inward_offsets` gives it."""
    return inward_offsets(domain, [p], (delta,), [hint])[0][0][0]


@dataclass(frozen=True)
class Strip3:
    """Discretized ruled surface: rulings are radial segments in 3-space.

    Each ruling is a pair (inner endpoint, outer endpoint); by construction
    the outer endpoint is a fixed multiple of the inner one, so rulings are
    collinear with rays from the origin.
    """

    level: int
    index: int
    rulings: tuple[tuple[Point3, Point3], ...]
