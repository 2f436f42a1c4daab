"""Planar primitives, tolerance-based predicates, and the slit-domain model.

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

from .errors import DomainInvalid, MissingHint, OffsetFailed

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

    def perp(self) -> "Point2":
        """Left normal: the vector rotated +90 degrees."""
        return Point2(-self.y, self.x)

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

    def distance_to(self, other: "Point3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Segment2:
    a: Point2
    b: Point2

    def __post_init__(self) -> None:
        if self.a.distance_to(self.b) <= EPS_GEOM:
            raise DomainInvalid(f"degenerate segment at ({self.a.x}, {self.a.y})")

    def length(self) -> float:
        return self.a.distance_to(self.b)

    def direction(self) -> Point2:
        return (self.b - self.a).unit()


@dataclass(frozen=True)
class Polyline:
    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise DomainInvalid("polyline needs at least one vertex")

    def length(self) -> float:
        return math.fsum(
            self.vertices[i].distance_to(self.vertices[i + 1])
            for i in range(len(self.vertices) - 1)
        )

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
# predicates
# ---------------------------------------------------------------------------


def orientation(p: Point2, q: Point2, r: Point2, eps: float = EPS_GEOM) -> int:
    """Sign of the turn p->q->r: +1 counter-clockwise, -1 clockwise, 0 within eps.

    The tolerance applies to twice the signed triangle area, i.e. it is
    absolute in area units, not relative.
    """
    area2 = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if abs(area2) <= eps:
        return 0
    return 1 if area2 > 0.0 else -1


def properly_cross(s: Segment2, t: Segment2, eps: float = EPS_GEOM) -> bool:
    """True iff the open interiors of s and t cross transversally.

    Endpoint touching and collinear overlap both return False; overlap is
    reported by :func:`collinear_overlap` and treated as a validation error
    for obstacle sets.
    """
    o1 = orientation(s.a, s.b, t.a, eps)
    o2 = orientation(s.a, s.b, t.b, eps)
    o3 = orientation(t.a, t.b, s.a, eps)
    o4 = orientation(t.a, t.b, s.b, eps)
    return o1 * o2 < 0 and o3 * o4 < 0


def collinear_overlap(s: Segment2, t: Segment2, eps: float = EPS_GEOM) -> bool:
    """True iff s and t are collinear and share more than a single point."""
    if (
        orientation(s.a, s.b, t.a, eps) != 0
        or orientation(s.a, s.b, t.b, eps) != 0
        or orientation(t.a, t.b, s.a, eps) != 0
        or orientation(t.a, t.b, s.b, eps) != 0
    ):
        return False
    d = s.b - s.a
    lo_s, hi_s = 0.0, d.dot(d)
    p1 = (t.a - s.a).dot(d)
    p2 = (t.b - s.a).dot(d)
    lo_t, hi_t = min(p1, p2), max(p1, p2)
    overlap = min(hi_s, hi_t) - max(lo_s, lo_t)
    return overlap > eps * d.norm()


def project_param(p: Point2, a: Point2, b: Point2) -> float:
    """Parameter of the closest point to p on segment ab, clamped to [0, 1]."""
    d = b - a
    denom = d.dot(d)
    if denom <= 0.0:
        return 0.0
    t = (p - a).dot(d) / denom
    return min(1.0, max(0.0, t))


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    t = project_param(p, a, b)
    q = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return p.distance_to(q)


def segment_segment_distance(s: Segment2, t: Segment2, eps: float = EPS_GEOM) -> float:
    if properly_cross(s, t, eps):
        return 0.0
    return min(
        point_segment_distance(s.a, t.a, t.b),
        point_segment_distance(s.b, t.a, t.b),
        point_segment_distance(t.a, s.a, s.b),
        point_segment_distance(t.b, s.a, s.b),
    )


def classify_contact(s: Segment2, t: Segment2, eps: float = EPS_GEOM) -> str:
    """One of: disjoint, cross, overlap, shared-endpoint, touch."""
    if properly_cross(s, t, eps):
        return "cross"
    if collinear_overlap(s, t, eps):
        return "overlap"
    if segment_segment_distance(s, t, eps) > eps:
        return "disjoint"
    for p in (s.a, s.b):
        for q in (t.a, t.b):
            if p.distance_to(q) <= eps:
                return "shared-endpoint"
    return "touch"


# ---------------------------------------------------------------------------
# polygon helpers
# ---------------------------------------------------------------------------


def polygon_signed_area(vertices: Sequence[Point2]) -> float:
    n = len(vertices)
    acc = 0.0
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        acc += a.x * b.y - a.y * b.x
    return 0.5 * acc


def polygon_edges(vertices: Sequence[Point2]) -> list[Segment2]:
    n = len(vertices)
    return [Segment2(vertices[i], vertices[(i + 1) % n]) for i in range(n)]


def point_in_polygon(p: Point2, vertices: Sequence[Point2]) -> bool:
    """Crossing-number parity; assumes p is not on the boundary."""
    inside = False
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            xc = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < xc:
                inside = not inside
    return inside


def polygon_boundary_distance(p: Point2, vertices: Sequence[Point2]) -> float:
    return min(point_segment_distance(p, e.a, e.b) for e in polygon_edges(vertices))


def validate_simple_polygon(vertices: Sequence[Point2], name: str) -> None:
    n = len(vertices)
    if n < 3:
        raise DomainInvalid(f"{name}: needs at least 3 vertices, got {n}")
    for i in range(n):
        if vertices[i].distance_to(vertices[(i + 1) % n]) <= EPS_GEOM:
            raise DomainInvalid(f"{name}: repeated consecutive vertex at index {i}")
    if abs(polygon_signed_area(vertices)) <= EPS_GEOM:
        raise DomainInvalid(f"{name}: vanishing area")
    edges = polygon_edges(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            kind = classify_contact(edges[i], edges[j])
            if kind == "cross":
                raise DomainInvalid(f"{name}: edges {i} and {j} cross")
            if kind == "overlap":
                raise DomainInvalid(f"{name}: edges {i} and {j} overlap")
            if adjacent:
                continue
            if kind != "disjoint":
                raise DomainInvalid(f"{name}: edges {i} and {j} touch ({kind})")


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
        validate_simple_polygon(self.outer, "outer")
        if polygon_signed_area(self.outer) < 0:
            raise DomainInvalid("outer boundary must be counter-clockwise")
        for h_idx, hole in enumerate(self.holes):
            validate_simple_polygon(hole, f"hole[{h_idx}]")
            if polygon_signed_area(hole) > 0:
                raise DomainInvalid(f"hole[{h_idx}] must be clockwise")
            for v in hole:
                if not point_in_polygon(v, self.outer) or (
                    polygon_boundary_distance(v, self.outer) <= EPS_GEOM
                ):
                    raise DomainInvalid(f"hole[{h_idx}] not strictly inside the outer boundary")
            for e in polygon_edges(hole):
                for oe in polygon_edges(self.outer):
                    if classify_contact(e, oe) != "disjoint":
                        raise DomainInvalid(f"hole[{h_idx}] touches the outer boundary")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                for e in polygon_edges(self.holes[i]):
                    for f in polygon_edges(self.holes[j]):
                        if classify_contact(e, f) != "disjoint":
                            raise DomainInvalid(f"holes {i} and {j} touch")
        self._validate_slits()

    # -- slit rules -------------------------------------------------------

    def _validate_slits(self) -> None:
        walls = polygon_edges(self.outer)
        for hole in self.holes:
            walls.extend(polygon_edges(hole))
        for s_idx, slit in enumerate(self.slits):
            for p in (slit.a, slit.b):
                on_wall = any(point_segment_distance(p, w.a, w.b) <= EPS_GEOM for w in walls)
                if not on_wall:
                    if not point_in_polygon(p, self.outer):
                        raise DomainInvalid(f"slit[{s_idx}] endpoint outside the domain")
                    if any(point_in_polygon(p, h) for h in self.holes):
                        raise DomainInvalid(f"slit[{s_idx}] endpoint inside a hole")
            for w in walls:
                kind = classify_contact(slit, w)
                if kind in ("cross", "overlap"):
                    raise DomainInvalid(f"slit[{s_idx}] {kind}es the boundary")
                if kind == "touch":
                    # T-contact: the touch point must be a slit endpoint, not
                    # a slit-interior point pressed against the wall.
                    a_on = point_segment_distance(slit.a, w.a, w.b) <= EPS_GEOM
                    b_on = point_segment_distance(slit.b, w.a, w.b) <= EPS_GEOM
                    if not (a_on or b_on):
                        raise DomainInvalid(
                            f"slit[{s_idx}] interior touches the boundary"
                        )
        for i in range(len(self.slits)):
            for j in range(i + 1, len(self.slits)):
                kind = classify_contact(self.slits[i], self.slits[j])
                if kind in ("cross", "overlap", "touch"):
                    raise DomainInvalid(f"slits {i} and {j} {kind}")
        self._validate_connectivity(walls)

    def _validate_connectivity(self, walls: list[Segment2]) -> None:
        """Slits must not disconnect the open interior.

        Model the contact topology as a graph: slit endpoints are vertices
        (merged when within tolerance), each boundary component is a single
        vertex, each slit is an edge.  A cycle means some slit chain either
        closes on itself or spans wall-to-wall; both cut the interior.
        """
        parent: dict[object, object] = {}

        def find(x: object) -> object:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: object, y: object) -> bool:
            rx, ry = find(x), find(y)
            if rx == ry:
                return False
            parent[rx] = ry
            return True

        outer_edges = polygon_edges(self.outer)
        hole_edge_lists = [polygon_edges(h) for h in self.holes]

        def endpoint_key(p: Point2) -> object:
            return (round(p.x / (4 * EPS_GEOM)), round(p.y / (4 * EPS_GEOM)))

        for slit in self.slits:
            for p in (slit.a, slit.b):
                key = endpoint_key(p)
                if any(point_segment_distance(p, e.a, e.b) <= EPS_GEOM for e in outer_edges):
                    union(key, "outer")
                for h_idx, edges in enumerate(hole_edge_lists):
                    if any(point_segment_distance(p, e.a, e.b) <= EPS_GEOM for e in edges):
                        union(key, ("hole", h_idx))
        for s_idx, slit in enumerate(self.slits):
            if not union(endpoint_key(slit.a), endpoint_key(slit.b)):
                raise DomainInvalid(
                    f"slit[{s_idx}] closes a cut: the open interior would be disconnected"
                )

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


def contains(domain: PlanarDomain, p: Point2, eps: float = EPS_GEOM) -> Region:
    """Classify p against the closed domain: Interior / Boundary / Exterior.

    Points within eps of any boundary feature (outer edge, hole edge or slit)
    classify as Boundary.
    """
    for f in domain.boundary_features():
        if point_segment_distance(p, f.a, f.b) <= eps:
            return Region.BOUNDARY
    if not point_in_polygon(p, domain.outer):
        return Region.EXTERIOR
    for hole in domain.holes:
        if point_in_polygon(p, hole):
            return Region.EXTERIOR
    return Region.INTERIOR


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
    features: Iterable[Segment2], p: Point2, eps: float = EPS_GEOM
) -> tuple[list[float], Segment2 | None]:
    """Angles of the feature directions leaving p (both ways for a feature
    whose interior passes through p), plus the first such feature."""
    rays: list[float] = []
    host: Segment2 | None = None
    for f in features:
        d = f.direction()
        if p.distance_to(f.a) <= eps:
            rays.append(math.atan2(d.y, d.x))
        elif p.distance_to(f.b) <= eps:
            rays.append(math.atan2(-d.y, -d.x))
        elif point_segment_distance(p, f.a, f.b) <= eps:
            th = math.atan2(d.y, d.x)
            rays.append(th)
            rays.append(th + math.pi)
            if host is None:
                host = f
    return rays, host


def _hint_angle(wall: Segment2, hint: Hint) -> float:
    """Direction of the wall's normal on the hinted side ("left" or "right"
    of its stored a->b direction)."""
    n = wall.direction().perp()
    if hint == "right":
        n = Point2(-n.x, -n.y)
    elif hint != "left":
        raise MissingHint(f"unknown hint {hint!r}; expected 'left' or 'right'")
    return math.atan2(n.y, n.x)


def _slit_at(domain: PlanarDomain, p: Point2, eps: float) -> tuple[Segment2 | None, bool]:
    """Slit containing p, plus whether p sits on the slit interior."""
    for slit in domain.slits:
        if point_segment_distance(p, slit.a, slit.b) <= eps:
            at_end = p.distance_to(slit.a) <= eps or p.distance_to(slit.b) <= eps
            return slit, not at_end
    return None, False


def free_wedges(domain: PlanarDomain, p: Point2, eps: float = EPS_GEOM) -> list[tuple[float, float]]:
    """Angular intervals (start, span) of directions not blocked at boundary
    point p, starts in [0, 2*pi) in increasing order.  An unconstrained
    point yields one full turn."""
    return wedges_from_rays(blocked_rays(domain.boundary_features(), p, eps)[0])


def inward_offset(
    domain: PlanarDomain,
    p: Point2,
    delta: float,
    hint: Hint | None = None,
    eps: float = EPS_GEOM,
) -> Point2:
    """Interior point at distance delta from boundary point p.

    For points on a slit interior the side is ambiguous and ``hint`` must be
    "left" or "right" (relative to the slit's stored a->b direction).
    """
    if delta <= 0.0:
        raise OffsetFailed("offset distance must be positive")
    slit, on_interior = _slit_at(domain, p, eps)
    if on_interior and hint is None:
        raise MissingHint(f"point ({p.x}, {p.y}) lies on a slit; side hint required")
    wedges = free_wedges(domain, p, eps)
    if not wedges:
        raise OffsetFailed(f"no free direction at ({p.x}, {p.y})")

    if hint is not None and slit is not None:
        preferred = _hint_angle(slit, hint)
        candidates = [w[0] + 0.5 * w[1] for w in wedges if _in_wedge(preferred, w)]
        if not candidates:
            candidates.append(preferred)
    else:
        candidates = [w[0] + 0.5 * w[1] for w in wedges]

    feats = domain.boundary_features()
    for theta in candidates:
        q = Point2(p.x + delta * math.cos(theta), p.y + delta * math.sin(theta))
        if contains(domain, q, eps) is not Region.INTERIOR:
            continue
        probe = Segment2(p, q)
        if any(properly_cross(probe, f) for f in feats):
            continue
        return q
    raise OffsetFailed(
        f"no interior point within {delta} of ({p.x}, {p.y}); "
        "offset larger than the local feature size?"
    )


@dataclass(frozen=True)
class Strip3:
    """Discretized ruled surface: rulings are radial segments in 3-space.

    Each ruling is a pair (inner endpoint, outer endpoint); by construction
    the outer endpoint is a fixed multiple of the inner one, so rulings are
    collinear with rays from the origin.
    """

    level: int
    index: int
    base_angle: float
    axis_coord: float
    base_radius: float
    pitch: float
    rulings: tuple[tuple[Point3, Point3], ...]
