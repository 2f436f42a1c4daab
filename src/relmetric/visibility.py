"""Shortest paths amid segment obstacles.

:class:`PreparedScene` runs one Dijkstra per source over lazily computed
visibility rows, settling all of that source's targets; a target the source
sees settles at its chord, which no other route can beat.  It splits nodes
that sit on obstacle junctions into angular wedge copies, and rejects
candidate edges that pass through another node, so that walls made of
chained segments are genuinely impassable at their joints while still
allowing paths to ride along walls.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _batch
from .errors import MissingHint, SceneInvalid, SpecInvalid, TerminalInsideFloor
from .geom import (
    ANG_TOL,
    EPS_GEOM,
    TWO_PI,
    PlanarDomain,
    Point2,
    Polyline,
    Segment2,
    _in_wedge,
    blocked_rays,
    closure_masks,
    domain_arrays,
    feature_arrays,
    hinted_wedges,
    point_array,
    polygon_edges,
    wedges_from_rays,
)

PROBE_DELTA = 1e-7
# (source, candidate, feature) triples per crossing-filter block, 32 KiB per
# float temporary; when all base rows fit in one block they are computed at once
_ROW_BLOCK = 1 << 12
# features in the crossing filter's first chunk; each later chunk is twice as
# wide and tests only the pairs that no earlier chunk blocked
_CROSS_CHUNK = 64
# first chunk of a lone source's features sorted nearest first: a few block most candidates
_NEAR_CHUNK = 4


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


@dataclass(frozen=True)
class PathResult:
    reached: bool
    length: float
    path: Polyline | None


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
    return on_start or not on_end, on_end or not on_start


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


def _arcs(
    i: int,
    wedge: tuple[float, float],
    row: list[int],
    positions: list[Point2],
    node_wedges: list[list[tuple[float, float]]],
    first: list[int],
) -> list[tuple[int, float]]:
    """The edges out of a state of node i with the given wedge, in row
    order: (state, step) for each node j of the row in the wedge and each
    state of j it may enter; node j's states are numbered from first[j]."""
    p = positions[i]
    out = []
    for j in row:
        q = positions[j]
        theta = math.atan2(q.y - p.y, q.x - p.x)
        if not _in_wedge(theta, wedge):
            continue
        left_src, right_src = _ray_adjacency(theta, wedge)
        back = (theta + math.pi) % TWO_PI
        step = p.distance_to(q)
        for state, wd in enumerate(node_wedges[j], first[j]):
            if not _in_wedge(back, wd):
                continue
            # at the target the edge arrives along `back`; a wedge
            # counterclockwise of `back` lies clockwise of `theta`
            ccw_t, cw_t = _ray_adjacency(back, wd)
            if (left_src and cw_t) or (right_src and ccw_t):
                out.append((state, step))
    return out


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

    Terminals: every query point c becomes node ``_n + c`` of the query
    graph, with a position, a wedge list and a visibility row like a base
    node, computed once per query against the base nodes and all the query
    points.  Every node of the query has an owner, the base node it sits
    on: a base node owns itself, and a point is owned by the base node at
    its exact position, else by the first one within EPS_GEOM, else by none.
    An owned point takes its owner's position and wedges, so its row is its
    owner's row and it is seen wherever its owner is; another point takes
    the wedges between its blocked rays.  One :func:`geom.hinted_wedges`
    call keeps the face each side hint chooses (a hint other than "left" or
    "right" is an error, and one is ignored where no obstacle segment or
    slit passes through the point), and one region mask keeps the sides of
    the off-node points on a feature.  The rows of the base nodes that a
    point sees gain that point.

    States: a query numbers its (node, wedge) states once, node by node, so
    state order is (node, wedge) order and of two states at equal distance
    the lower settles first.  A state's edges are built on its first
    expansion and kept for the query, and every search of the query runs
    Dijkstra on lists indexed by state.  A search from point i runs to the points j > i and skips the
    others; targets are sinks, settled but never expanded, so a path never
    passes through another query point.  A target that an arc of the
    source reaches goes on the heap at key 0, so it settles next, at its
    chord: the through-node filter admits that arc only when no base node
    lies within EPS_GEOM of the chord, so every other route is longer in
    exact arithmetic, and a detour whose float length rounds below the
    chord cannot win.  The other targets settle in distance order, and a
    search whose targets the source all sees stops after the source's own
    arcs and computes no base row.

    Region: the domain closure (the whole plane without a boundary) minus
    the open floor polygon.  Terminals must lie in it: a point outside the
    closure raises SceneInvalid, one strictly inside the floor raises
    TerminalInsideFloor.  Every base node, split or not, keeps only the
    wedges whose bisector probe, PROBE_DELTA out, lies in the region: a ray
    tip just inside a floor edge, whose one wedge opens into the floor,
    keeps none.  An edge leaves a node only inside its wedge.

    A visibility row is two filters, the more selective first: candidate
    edges that properly cross a feature are rejected, feature chunk by
    feature chunk (nearest first for a row computed alone) on the edges
    still unblocked, and only the survivors are tested for passing through
    a base node other than the owners of its ends (the path must decompose
    there instead).  An edge that survives both stays in one face of the
    features, the face its wedge opens into, so rows need no region test.
    A terminal with a wedge outside the region (its hint chose that side,
    or it has no side in the region) keeps its edges only where their
    midpoints lie in the region.
    """

    def __init__(
        self,
        scene: ObstacleScene,
        floor: tuple[Point2, ...] | None = None,
    ) -> None:
        self.scene = scene
        self.floor = floor
        walls = () if scene.boundary is None else scene.boundary.boundary_features()
        rim = () if floor is None else tuple(polygon_edges(floor))
        self.features: tuple[Segment2, ...] = scene.segments + walls + rim
        self.base_points = list(dict.fromkeys(p for f in self.features for p in (f.a, f.b)))
        self._n = len(self.base_points)
        self._FA, self._FB, self._angles = feature_arrays(self.features)
        # the two-sided features, whose side a hint chooses
        self._sides = scene.segments + (() if scene.boundary is None else scene.boundary.slits)
        self._P = point_array(self.base_points)
        # the floor edges, the last features, whose starts are the floor polygon
        self._floor_edges = slice(len(self.features) - len(rim), None)
        wedges = [wedges_from_rays(rays) for rays, _ in blocked_rays(self._P, self._FA, self._FB, self._angles)]
        self._node_wedges = self._viable_wedges(self._P, wedges)
        self._nbrs: dict[int, list[int]] = {}

    # -- static structure --------------------------------------------------

    def _region_mask(self, pts: np.ndarray) -> np.ndarray:
        """Which of the points may lie on a path: in the domain closure, as
        :func:`geom.contains` decides (obstacle segments lie in the closure,
        so they decide nothing), and not strictly inside the floor polygon."""
        domain = self.scene.boundary
        ok = np.ones(len(pts), dtype=bool) if domain is None else np.logical_or(*closure_masks(domain, pts))
        if self.floor is not None:
            fa, fb = self._FA[self._floor_edges], self._FB[self._floor_edges]
            on_floor, in_floor = _batch.closure_parts(pts, fa, (), fa, fb, EPS_GEOM)
            ok &= on_floor | ~in_floor
        return ok

    def _viable_wedges(
        self, P: np.ndarray, wedge_lists: list[list[tuple[float, float]]]
    ) -> list[list[tuple[float, float]]]:
        """For each point P[i], the wedges of wedge_lists[i] whose interior
        lies in the allowed region (not the solid side of a wall, not the
        inside of the floor polygon), tested with one region mask over a
        probe on every wedge's bisector.  Without this, a path could ride a
        wall through a slit junction, or leave a node inside the floor."""
        mids = np.array([w[0] + 0.5 * w[1] for wedges in wedge_lists for w in wedges])
        owner = np.repeat(np.arange(len(wedge_lists)), [len(wedges) for wedges in wedge_lists])
        probes = np.stack(
            [P[owner, 0] + PROBE_DELTA * np.cos(mids), P[owner, 1] + PROBE_DELTA * np.sin(mids)], axis=1
        )
        ok = iter(self._region_mask(probes).tolist())
        return [[w for w in wedges if next(ok)] for wedges in wedge_lists]

    # -- lazy visibility ----------------------------------------------------

    def _vis_row(self, i: int) -> list[int]:
        """Base nodes visible from base node i, cached; a miss computes all n rows if they fit one block."""
        if i not in self._nbrs:
            nodes = np.arange(self._n)
            src = nodes if self._n**2 * len(self._FA) <= _ROW_BLOCK else np.array([i])
            for j, row in zip(src.tolist(), self._visibility(src, self._P, nodes)):
                self._nbrs[j] = row.tolist()
        return self._nbrs[i]

    def _visibility(self, src: np.ndarray, Q: np.ndarray, own: np.ndarray) -> list[np.ndarray]:
        """For each source Q[s], s in src, the indices, ascending, of the
        candidates Q[j] visible from it.  Row j of the table sits exactly at
        base node own[j], or at none (-1); a segment ends at the owners of
        its two ends, so the through-node test drops them.

        The sources go in chunks of at most ``_ROW_BLOCK`` (source, candidate,
        feature) triples.  Two filters, the more selective first: the segment
        Q[s]->Q[j] must properly cross no feature, and only the surviving
        pairs are tested for passing through a base node.  The crossing filter
        tests the first ``_CROSS_CHUNK`` features on the whole block, then each
        later chunk, twice as wide as the one before, only on the pairs that no
        earlier chunk blocked.  A block of one source with more features than
        that takes them nearest first, from a first chunk of ``_NEAR_CHUNK``:
        near features block most candidates, and any() ignores the order."""
        step = max(1, _ROW_BLOCK // max(1, len(Q) * len(self._FA)))
        rows = []
        for lo in range(0, len(src), step):
            B = Q[src[lo : lo + step]]
            FA, FB, c = self._FA, self._FB, _CROSS_CHUNK
            if step == 1 and len(FA) > c:
                order = np.argsort(_batch.point_seg_dists(B, FA, FB)[0], kind="stable")
                FA, FB, c = FA[order], FB[order], _NEAR_CHUNK
            ok = np.linalg.norm(Q[None] - B[:, None], axis=2) > EPS_GEOM
            ok &= ~_batch.cross_matrix(B[:, None], Q, FA[:c], FB[:c], EPS_GEOM).any(axis=2)
            si, cj = np.nonzero(ok)
            f, width = c, 2 * c
            while si.size and f < len(FA):
                g = slice(f, f + width)
                free = ~_batch.cross_matrix(B[si], Q[cj], FA[g], FB[g], EPS_GEOM).any(axis=1)
                si, cj = si[free], cj[free]
                f, width = f + width, 2 * width
            near = _batch.seg_point_dists(B[si], Q[cj], self._P) <= EPS_GEOM
            pair = np.arange(len(si))
            for end in (own[src[lo + si]], own[cj]):
                near[pair[end >= 0], end[end >= 0]] = False
            ok[:] = False
            ok[si, cj] = ~near.any(axis=1)
            rows += [np.flatnonzero(r) for r in ok]
        return rows

    # -- terminals -----------------------------------------------------------

    def _owners(self, T: np.ndarray) -> np.ndarray:
        """The base node each point of T sits on, -1 for none: an exact
        position match, else the first base node within EPS_GEOM."""
        D = np.hypot(T[:, None, 0] - self._P[:, 0], T[:, None, 1] - self._P[:, 1])
        near = D <= EPS_GEOM
        # also the case of a scene with no base nodes, where argmax fails
        if not near.any():
            return np.full(len(T), -1)
        # the first node of the best score owns a point: 2 exact, 1 near
        own = (2 * (D == 0.0) + near).argmax(axis=1)
        return np.where(near.any(axis=1), own, -1)

    # -- queries --------------------------------------------------------------

    def shortest_path(
        self,
        a: Point2,
        b: Point2,
        hint_a: str | None = None,
        hint_b: str | None = None,
    ) -> PathResult:
        return self.shortest_paths([a, b], [hint_a, hint_b])[0][1]

    def shortest_paths(
        self, points: Sequence[Point2], hints: Sequence[str | None] | None = None
    ) -> list[list[PathResult | None]]:
        """Shortest paths between all the points: ``out[i][j]`` for i < j
        (None elsewhere) is the path from points[i] to points[j], exactly as
        a search for that pair alone finds it.

        Each point gets its wedges and one visibility row, against the base
        nodes and all the points.  One search per source i then settles the
        points j > i.  Hints, if given, must parallel the points (else
        SpecInvalid, before any other check).  Other errors are those of the
        pairs taken in order: point 0 is terminal a, any later point b."""
        k = len(points)
        hints = [None] * k if hints is None else hints
        if len(hints) != k:
            raise SpecInvalid("hints must parallel points")
        out: list[list[PathResult | None]] = [[None] * k for _ in range(k)]
        if k < 2:
            return out
        n = self._n
        T = point_array(points)
        domain = self.scene.boundary
        inside = [True] * k if domain is None else np.logical_or(*closure_masks(domain, T)).tolist()
        clear = [True] * k if self.floor is None else self._region_mask(T).tolist()
        # row n + c of the table is point c
        own = np.concatenate([np.arange(n), self._owners(T)])
        owners = own[n:].tolist()
        off = [c for c in range(k) if owners[c] < 0]
        rays = dict(zip(off, blocked_rays(T[off], self._FA, self._FB, self._angles)))
        wedges = [self._node_wedges[v] if v >= 0 else wedges_from_rays(rays[c][0]) for c, v in enumerate(owners)]
        wedges = hinted_wedges(wedges, T, hints, self._sides)
        # an off-node point on a feature keeps its sides in the region; one
        # with no side there, or whose hint chose one outside it, keeps all
        on = [c for c in off if rays[c][1] is not None]
        viable = dict(zip(on, self._viable_wedges(T[on], [wedges[c] for c in on]) if on else ()))
        exposed = {c for c in on if not viable[c]}
        node_wedges = self._node_wedges + [viable.get(c) or w for c, w in enumerate(wedges)]
        positions = self.base_points + list(points)
        labels = "a" + "b" * (k - 1)
        # checks in the order of the pairs: the pair (0, 1) checks both
        # positions before either point's side; a later point c comes with
        # the pair (0, c)
        for c, v in enumerate(owners):
            for d in (0, 1) if c == 0 else () if c == 1 else (c,):
                if not inside[d]:
                    raise SceneInvalid(f"terminal {labels[d]} lies outside the domain")
                if not clear[d]:
                    raise TerminalInsideFloor(
                        f"terminal {labels[d]} lies strictly inside the floor polygon"
                    )
            if hints[c] not in (None, "left", "right"):
                raise MissingHint(f"unknown hint {hints[c]!r}; expected 'left' or 'right'")
            if len(viable.get(c, ())) > 1:
                raise MissingHint(
                    f"terminal {labels[c]} at ({points[c].x}, {points[c].y}) lies on a two-sided wall; "
                    "pass hint='left' or hint='right'"
                )
            if v >= 0:
                T[c], positions[n + c] = self._P[v], self.base_points[v]

        Q = np.vstack([self._P, T])
        rows: list[list[int]] = []
        seen_by: dict[int, list[int]] = {}
        for c, row in enumerate(self._visibility(np.arange(n, n + k), Q, own)):
            if c in exposed:
                # a wedge outside the region: keep the edges whose
                # midpoints lie in it
                row = row[self._region_mask(0.5 * (T[c] + Q[row]))]
            for v in row[: row.searchsorted(n)].tolist():
                seen_by.setdefault(v, []).append(n + c)
            rows.append(row.tolist())
        # states are numbered node by node: state s is wedge s - first[v] of
        # node v = node[s], so state order is (node, wedge) order
        first = [0]
        for wedges in node_wedges:
            first.append(first[-1] + len(wedges))
        node = [v for v, wedges in enumerate(node_wedges) for _ in wedges]
        arcs: list[list[tuple[int, float]] | None] = [None] * len(node)
        for i in range(k - 1):
            src = n + i
            targets: set[int] = set()
            for j in range(i + 1, k):
                # two points coincide when their sides overlap
                if points[i].distance_to(points[j]) <= EPS_GEOM and _wedges_share_interior(
                    node_wedges[src], node_wedges[n + j]
                ):
                    out[i][j] = PathResult(True, 0.0, Polyline((points[i],)))
                else:
                    out[i][j] = PathResult(False, math.inf, None)
                    targets.add(n + j)
            # Dijkstra until every target is settled: a target is a sink,
            # and the points not targeted are skipped
            dist, parent = [math.inf] * len(node), [-1] * len(node)
            heap = [(0.0, s) for s in range(first[src], first[src + 1])]
            for _, s in heap:
                dist[s] = 0.0
            while heap and targets:
                d, s = heapq.heappop(heap)
                v = node[s]
                if d > dist[s]:
                    continue
                if v in targets:
                    targets.remove(v)
                    chain, t = [], s
                    while t >= 0:
                        chain.append(positions[node[t]])
                        t = parent[t]
                    poly = Polyline(tuple(reversed(chain)))
                    out[i][v - n] = PathResult(True, poly.length(), poly)
                if v >= n and v != src:
                    continue
                if arcs[s] is None:
                    row = self._vis_row(v) + seen_by.get(v, []) if v < n else rows[v - n]
                    arcs[s] = _arcs(v, node_wedges[v][s - first[v]], row, positions, node_wedges, first)
                for t, step in arcs[s]:
                    if t >= first[n] and node[t] not in targets:
                        continue
                    nd = d + step
                    if nd < dist[t]:
                        dist[t], parent[t] = nd, s
                        # a target the source sees is final at its chord: it
                        # pops next, before any base node
                        heapq.heappush(heap, (0.0 if v == src and t >= first[n] else nd, t))
        return out


def shortest_path_confined(
    scene: ObstacleScene,
    a: Point2,
    b: Point2,
    r_min: float,
    m_circle: int = 256,
) -> PathResult:
    """Shortest path that additionally keeps distance >= r_min from the origin.

    The exclusion disk is realized as a circumscribed regular polygon with
    ``m_circle`` edges (tangent to the disk at angle zero), so reported
    lengths are exact for the polygonal relaxation.  The polygon contains the
    disk, so they can only overestimate the true confined length; the excess
    shrinks like m^-2.
    Terminals strictly inside the disk raise; terminals inside the sliver
    between disk and polygon are snapped radially outward onto the polygon.
    """
    if r_min <= 0.0:
        return PreparedScene(scene).shortest_path(a, b)
    used = []
    for label, t in (("a", a), ("b", b)):
        r = t.norm()
        if r < r_min * (1.0 - 1e-12):
            raise TerminalInsideFloor(
                f"terminal {label} at radius {r} violates the floor radius {r_min}"
            )
        rim = _floor_radius_at(math.atan2(t.y, t.x), r_min, m_circle)
        used.append(t.scaled(rim / r) if r < rim else t)
    engine = PreparedScene(scene, floor=circumscribed_polygon(r_min, m_circle))
    return engine.shortest_path(used[0], used[1])
