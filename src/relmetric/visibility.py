"""Shortest paths amid segment obstacles.

:class:`PreparedScene` runs Dijkstra lazily from the source, splits nodes
that sit on obstacle junctions into angular wedge copies, and rejects
candidate edges that pass through another node, so that walls made of
chained segments are genuinely impassable at their joints while still
allowing paths to ride along walls.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _batch
from .errors import MissingHint, SceneInvalid, TerminalInsideFloor
from .geom import (
    ANG_TOL,
    EPS_GEOM,
    TWO_PI,
    PlanarDomain,
    Point2,
    Polyline,
    Segment2,
    _hint_angle,
    _in_wedge,
    blocked_rays,
    domain_arrays,
    feature_arrays,
    point_array,
    wedges_from_rays,
)

PROBE_DELTA = 1e-7


@dataclass(frozen=True)
class ObstacleScene:
    """Segment obstacles, optionally confined to a planar domain.

    With ``boundary=None`` the ambient space is the whole plane and only the
    listed segments block.  With a boundary domain, its outer walls, holes and
    slits block as well and paths must stay in the closure.
    """

    segments: tuple[Segment2, ...] = ()
    boundary: PlanarDomain | None = None

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        """Segments must not cross or overlap each other (all crossings are
        reported before any overlap), and each must stay in the domain
        closure without crossing or overlapping its boundary.  All pairs are
        classified at once; the first offense in that order is reported."""
        segs = self.segments
        A, B = point_array([s.a for s in segs]), point_array([s.b for s in segs])
        kind = np.triu(_batch.contacts(A, B, A, B, EPS_GEOM), k=1)
        for code in (_batch.CROSS, _batch.OVERLAP):
            i, j = np.nonzero(kind == code)
            if i.size:
                raise SceneInvalid(f"obstacle segments {i[0]} and {j[0]} {_batch.CONTACT_KINDS[code]}")
        if self.boundary is None:
            return
        FA, FB, _, outer, holes = domain_arrays(self.boundary)
        ends = np.stack([A, B], axis=1).reshape(-1, 2)
        on_b, inside = _batch.closure_parts(ends, outer, holes, FA, FB, EPS_GEOM)
        leaves = (~(on_b | inside)).reshape(-1, 2).any(axis=1)
        kind = _batch.contacts(A, B, FA, FB, EPS_GEOM)
        hits = (kind == _batch.CROSS) | (kind == _batch.OVERLAP)
        bad = leaves | hits.any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            if leaves[i]:
                raise SceneInvalid(f"obstacle segment {i} leaves the domain")
            what = "crosses" if kind[i, np.argmax(hits[i])] == _batch.CROSS else "overlaps"
            raise SceneInvalid(f"obstacle segment {i} {what} the domain boundary")

    @classmethod
    def from_domain(cls, domain: PlanarDomain) -> "ObstacleScene":
        return cls(segments=(), boundary=domain)

    def all_features(self) -> tuple[Segment2, ...]:
        if self.boundary is None:
            return self.segments
        return self.segments + self.boundary.boundary_features()


@dataclass(frozen=True)
class PathResult:
    reached: bool
    length: float
    path: Polyline | None


@dataclass(frozen=True)
class ConfinedPathResult:
    reached: bool
    length: float
    path: Polyline | None
    floor: tuple[Point2, ...]
    start_snap: float
    end_snap: float


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _ang_on(a: float, b: float) -> bool:
    d = (a - b) % TWO_PI
    return d <= ANG_TOL or TWO_PI - d <= ANG_TOL


def _ray_adjacency(ray: float, wedge: tuple[float, float]) -> tuple[bool, bool]:
    """Sides of the line through `ray` that the wedge touches at the ray
    itself: (counterclockwise of the ray, clockwise of the ray).

    A wedge whose boundary is the ray is adjacent from exactly one side,
    the one its interior starts on; a full-turn wedge, or one holding the
    ray strictly inside, is open on both sides.  An edge that rides a wall
    lies on a boundary ray at both of its endpoints, so tracking the
    adjacent side keeps such an edge on one face of the wall; without this
    a path could slip to the far face at the next wall vertex."""
    start, extent = wedge
    if extent >= TWO_PI - ANG_TOL:
        return True, True
    on_start = _ang_on(ray, start)
    on_end = _ang_on(ray, start + extent)
    if on_start and on_end:
        return True, True
    if on_start:
        return True, False
    if on_end:
        return False, True
    return True, True


def _wedges_share_interior(
    ws1: list[tuple[float, float]], ws2: list[tuple[float, float]]
) -> bool:
    """True when some wedge of ws1 overlaps some wedge of ws2 on more than
    a single ray.  Grazing contact along a shared boundary direction does
    not count: from a point on a wall, the two faces meet only at the wall's
    ends, even though both wedges contain the along-wall directions."""
    for a1, s1 in ws1:
        for a2, s2 in ws2:
            if s1 >= TWO_PI - ANG_TOL or s2 >= TWO_PI - ANG_TOL:
                return True
            d = (a2 - a1) % TWO_PI
            for off in (d - TWO_PI, d):
                lo = max(0.0, off)
                hi = min(s1, off + s2)
                if hi - lo > ANG_TOL:
                    return True
    return False


def circumscribed_polygon(r_min: float, m: int) -> tuple[Point2, ...]:
    """Regular m-gon circumscribed about the circle of radius r_min, with an
    edge tangent at angle zero.  The polygon contains the disk, so keeping
    paths outside the polygon keeps them outside the disk."""
    if m < 3:
        raise SceneInvalid(f"floor polygon needs at least 3 vertices, got {m}")
    R = r_min / math.cos(math.pi / m)
    verts = []
    for k in range(m):
        th = (2 * k + 1) * math.pi / m
        verts.append(Point2(R * math.cos(th), R * math.sin(th)))
    return tuple(verts)


def _floor_radius_at(theta: float, r_min: float, m: int) -> float:
    """Radial extent of the circumscribed m-gon in direction theta.

    Edge normals sit at angles 2*pi*k/m (tangency at angle zero), so the local
    angle is measured from the nearest edge normal."""
    sector = TWO_PI / m
    local = ((theta + sector / 2.0) % sector) - sector / 2.0
    return r_min / math.cos(local)


# ---------------------------------------------------------------------------
# lazy wedge engine
# ---------------------------------------------------------------------------


class PreparedScene:
    """Query engine for repeated shortest-path calls on one scene.

    Node copies: every obstacle endpoint (deduplicated) becomes a base node.
    A node where two or more blocked directions meet (segment joints, slit
    tips against walls, T-contacts) is split into one copy per free angular
    wedge; edges attach to the copy whose wedge contains their direction, and
    copies of the same base are never linked.  Paths therefore cannot slip
    through a joint between two walls, but may still ride along a wall,
    because directions on a wedge border belong to both neighboring wedges.

    Terminals: a query point within EPS_GEOM of a base node is that node.
    Any other terminal becomes a node of the query graph, with id ``_n`` for
    a and ``_n + 1`` for b, and has a position, a wedge list (the side of a
    two-sided wall its hint selects) and a visibility row like a base node.
    Terminal a's row also decides the direct a-b edge; the rows of the base
    nodes that a terminal sees gain that terminal for the query.

    Candidate edges are rejected when they properly cross a feature, when
    their open segment passes through another base node (the path must
    decompose there instead), or when their midpoint leaves the allowed
    region.
    """

    def __init__(
        self,
        scene: ObstacleScene,
        floor: tuple[Point2, ...] | None = None,
    ) -> None:
        self.scene = scene
        self.floor = floor
        feats = list(scene.all_features())
        n_walls = len(feats)
        if floor is not None:
            fv = list(floor)
            feats.extend(Segment2(fv[i], fv[(i + 1) % len(fv)]) for i in range(len(fv)))
        self.features: tuple[Segment2, ...] = tuple(feats)
        self.base_points = list(dict.fromkeys(p for f in self.features for p in (f.a, f.b)))
        self._pos_index = {p: i for i, p in enumerate(self.base_points)}
        self._n = len(self.base_points)
        self._FA, self._FB, self._angles = feature_arrays(self.features)
        self._P = point_array(self.base_points)
        # region-mask inputs; the floor edges follow the scene's own features,
        # and their starts are the floor polygon
        self._rings = None if scene.boundary is None else domain_arrays(scene.boundary)[3:]
        self._walls = slice(0, n_walls)
        self._floor_edges = slice(n_walls, len(feats))
        self._node_wedges: list[list[tuple[float, float]]] = []
        for p, (rays, _) in zip(self.base_points, blocked_rays(self._P, self._FA, self._FB, self._angles)):
            wedges = wedges_from_rays(rays)
            self._node_wedges.append(self._viable_wedges(p, wedges) if len(wedges) > 1 else wedges)
        self._nbrs: dict[int, list[int]] = {}

    # -- static structure --------------------------------------------------

    def _closure_mask(self, pts: np.ndarray) -> np.ndarray:
        """Which of the points lie in the domain closure (wall contact
        allowed)."""
        w = self._walls
        on_b, inside = _batch.closure_parts(pts, *self._rings, self._FA[w], self._FB[w], EPS_GEOM)
        return on_b | inside

    def _region_mask(self, pts: np.ndarray) -> np.ndarray:
        """Which of the points may lie on a path: inside the domain closure
        and not strictly inside the floor polygon."""
        ok = np.ones(len(pts), dtype=bool) if self._rings is None else self._closure_mask(pts)
        if self.floor is not None:
            fa, fb = self._FA[self._floor_edges], self._FB[self._floor_edges]
            on_floor, in_floor = _batch.closure_parts(pts, fa, (), fa, fb, EPS_GEOM)
            ok &= on_floor | ~in_floor
        return ok

    def _viable_wedges(
        self, p: Point2, wedges: list[tuple[float, float]]
    ) -> list[tuple[float, float]]:
        """Drop wedge copies whose interior lies outside the allowed region
        (the solid side of a wall, the inside of the floor polygon).  Without
        this, a path could ride a wall straight through a slit junction."""
        mids = np.array([w[0] + 0.5 * w[1] for w in wedges])
        probes = np.stack([p.x + PROBE_DELTA * np.cos(mids), p.y + PROBE_DELTA * np.sin(mids)], axis=1)
        return [w for w, ok in zip(wedges, self._region_mask(probes).tolist()) if ok]

    # -- lazy visibility ----------------------------------------------------

    def _vis_row(self, i: int) -> list[int]:
        """Base nodes visible from base node i (cached)."""
        row = self._nbrs.get(i)
        if row is None:
            vis = self._visibility(self._P[i], self._P, skip_base=i)
            row = self._nbrs[i] = np.nonzero(vis)[0].tolist()
        return row

    def _visibility(self, p: np.ndarray, Q: np.ndarray, skip_base: int | None = None) -> np.ndarray:
        """Which candidates Q[j] are visible from p.  The first ``_n`` rows
        of Q are the base nodes in order; p is base node `skip_base` or an
        off-node terminal, which has no base node within EPS_GEOM."""
        ok = np.linalg.norm(Q - p[None, :], axis=1) > EPS_GEOM
        if skip_base is not None:
            ok[skip_base] = False
        if ok.any():
            ok &= ~_batch.cross_matrix(p, Q, self._FA, self._FB, EPS_GEOM).any(axis=1)
        if ok.any():
            near = _batch.seg_point_dists(p, Q, self._P) <= EPS_GEOM
            # a base-node candidate and the source node end the segment
            near[np.arange(self._n), np.arange(self._n)] = False
            if skip_base is not None:
                near[:, skip_base] = False
            ok &= ~near.any(axis=1)
        if ok.any():
            ok &= self._region_mask(0.5 * (p[None, :] + Q))
        return ok

    # -- terminals -----------------------------------------------------------

    def _snap(self, t: Point2) -> int | None:
        """The base node at t: an exact position match, else the first base
        node within EPS_GEOM."""
        idx = self._pos_index.get(t)
        if idx is None:
            near = np.nonzero(np.hypot(self._P[:, 0] - t.x, self._P[:, 1] - t.y) <= EPS_GEOM)[0]
            idx = int(near[0]) if near.size else None
        return idx

    def _terminal_wedges(
        self, p: Point2, rays: list[float], host: int | None, hint: str | None, label: str
    ) -> list[tuple[float, float]]:
        wedges = wedges_from_rays(rays)
        if host is None or len(wedges) < 2:
            return wedges
        if hint is not None:
            th = _hint_angle(self.features[host], hint)
            chosen = [w for w in wedges if _in_wedge(th, w)]
            return chosen or wedges
        viable = self._viable_wedges(p, wedges)
        if len(viable) == 1:
            return viable
        if len(viable) == 0:
            return wedges
        raise MissingHint(
            f"terminal {label} at ({p.x}, {p.y}) lies on a two-sided wall; "
            "pass hint='left' or hint='right'"
        )

    # -- queries --------------------------------------------------------------

    def shortest_path(
        self,
        a: Point2,
        b: Point2,
        hint_a: str | None = None,
        hint_b: str | None = None,
    ) -> PathResult:
        if self._rings is not None:
            inside = self._closure_mask(np.array([a.as_tuple(), b.as_tuple()]))
            for label, ok in zip("ab", inside.tolist()):
                if not ok:
                    raise SceneInvalid(f"terminal {label} lies outside the domain")
        n = self._n
        start, goal = self._snap(a), self._snap(b)
        # off-node terminals are nodes n (a) and n + 1 (b) of this query
        points = self.base_points + [a, b]
        node_wedges = self._node_wedges + [[], []]
        off = [(n, a, hint_a, "a")] if start is None else []
        if goal is None:
            off.append((n + 1, b, hint_b, "b"))
        if off:
            P = np.array([t.as_tuple() for _, t, _, _ in off])
            for (idx, t, hint, label), (rays, host) in zip(
                off, blocked_rays(P, self._FA, self._FB, self._angles)
            ):
                node_wedges[idx] = self._terminal_wedges(t, rays, host, hint, label)
        start = n if start is None else start
        goal = n + 1 if goal is None else goal

        if a.distance_to(b) <= EPS_GEOM:
            # a graph node (wall vertex or segment end) is one point; two
            # mid-wall terminals coincide only when their sides overlap
            if start < n or _wedges_share_interior(node_wedges[start], node_wedges[goal]):
                return PathResult(True, 0.0, Polyline((a,)))

        rows: dict[int, list[int]] = {}
        direct = False
        if start == n:
            # b's position, when b is off-node, is the last candidate
            Q = self._P if goal < n else np.vstack([self._P, [b.as_tuple()]])
            vis = self._visibility(np.array(a.as_tuple()), Q)
            rows[n] = np.nonzero(vis[:n])[0].tolist()
            direct = goal == n + 1 and bool(vis[n])
            if direct:
                rows[n].append(n + 1)
        if goal == n + 1:
            rows[n + 1] = np.nonzero(self._visibility(np.array(b.as_tuple()), self._P))[0].tolist()
            if direct:
                rows[n + 1].append(n)
        seen_by: dict[int, list[int]] = {}
        for t, row in rows.items():
            for j in row:
                if j < n:
                    seen_by.setdefault(j, []).append(t)

        def neighbours(i: int) -> list[int]:
            row = rows.get(i)
            if row is None:
                row = rows[i] = self._vis_row(i) + seen_by.get(i, [])
            return row

        dist: dict[tuple[int, int], float] = {}
        parent: dict[tuple[int, int], tuple[int, int] | None] = {}
        heap: list[tuple[float, int, int]] = []
        for w_idx in range(len(node_wedges[start])):
            dist[(start, w_idx)] = 0.0
            parent[(start, w_idx)] = None
            heapq.heappush(heap, (0.0, start, w_idx))

        found: tuple[int, int] | None = None
        while heap:
            d, idx, w_idx = heapq.heappop(heap)
            if d > dist.get((idx, w_idx), math.inf):
                continue
            if idx == goal:
                found = (idx, w_idx)
                break
            p = points[idx]
            wedge = node_wedges[idx][w_idx]
            for j in neighbours(idx):
                if j == idx:
                    continue
                q = points[j]
                theta = math.atan2(q.y - p.y, q.x - p.x)
                if not _in_wedge(theta, wedge):
                    continue
                left_src, right_src = _ray_adjacency(theta, wedge)
                back = (theta + math.pi) % TWO_PI
                step = p.distance_to(q)
                for w2, wd in enumerate(node_wedges[j]):
                    if not _in_wedge(back, wd):
                        continue
                    # at the target the edge arrives along `back`; a wedge
                    # counterclockwise of `back` lies clockwise of `theta`
                    ccw_t, cw_t = _ray_adjacency(back, wd)
                    if not ((left_src and cw_t) or (right_src and ccw_t)):
                        continue
                    nd = d + step
                    key2 = (j, w2)
                    if nd < dist.get(key2, math.inf):
                        dist[key2] = nd
                        parent[key2] = (idx, w_idx)
                        heapq.heappush(heap, (nd, j, w2))
        if found is None:
            return PathResult(False, math.inf, None)

        chain: list[Point2] = []
        cur: tuple[int, int] | None = found
        while cur is not None:
            chain.append(points[cur[0]])
            cur = parent[cur]
        chain.reverse()
        verts: list[Point2] = [chain[0]]
        for p in chain[1:]:
            if p.distance_to(verts[-1]) > EPS_GEOM:
                verts.append(p)
        poly = Polyline(tuple(verts))
        return PathResult(True, poly.length(), poly)


def shortest_path(
    scene: ObstacleScene,
    a: Point2,
    b: Point2,
    hint_a: str | None = None,
    hint_b: str | None = None,
) -> PathResult:
    """Shortest obstacle-avoiding path between a and b in the scene."""
    return PreparedScene(scene).shortest_path(a, b, hint_a=hint_a, hint_b=hint_b)


def shortest_path_confined(
    scene: ObstacleScene,
    a: Point2,
    b: Point2,
    r_min: float,
    m_circle: int = 256,
    hint_a: str | None = None,
    hint_b: str | None = None,
) -> ConfinedPathResult:
    """Shortest path that additionally keeps distance >= r_min from the origin.

    The exclusion disk is realized as a circumscribed regular polygon with
    ``m_circle`` edges (tangent to the disk at angle zero), so reported
    lengths are exact for the polygonal relaxation.  The polygon contains the
    disk, so they can only overestimate the true confined length; the excess
    shrinks like m^-2.
    Terminals strictly inside the disk raise; terminals inside the sliver
    between disk and polygon are snapped radially outward onto the polygon
    and the snap distances are reported.
    """
    if r_min <= 0.0:
        res = shortest_path(scene, a, b, hint_a=hint_a, hint_b=hint_b)
        return ConfinedPathResult(res.reached, res.length, res.path, (), 0.0, 0.0)
    floor = circumscribed_polygon(r_min, m_circle)
    used = []
    snaps = []
    for label, t in (("a", a), ("b", b)):
        r = t.norm()
        if r < r_min * (1.0 - 1e-12):
            raise TerminalInsideFloor(
                f"terminal {label} at radius {r} violates the floor radius {r_min}"
            )
        theta = math.atan2(t.y, t.x)
        rim = _floor_radius_at(theta, r_min, m_circle)
        if r < rim:
            scale = rim / r if r > 0 else 0.0
            used.append(Point2(t.x * scale, t.y * scale))
            snaps.append(rim - r)
        else:
            used.append(t)
            snaps.append(0.0)
    engine = PreparedScene(scene, floor=floor)
    res = engine.shortest_path(used[0], used[1], hint_a=hint_a, hint_b=hint_b)
    return ConfinedPathResult(res.reached, res.length, res.path, floor, snaps[0], snaps[1])
