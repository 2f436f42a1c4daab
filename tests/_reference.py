"""Scalar references for the array code of the package: the kernels of
:mod:`relmetric._batch`, the strips' corner detour ratio, the boundary
profile's sampling and gap rounds, the side hint filter and a terminal's
wedges found one point at a time, the shortest-path table with its edges
rebuilt on every relaxation, and the metric's offset representatives built
one point and one candidate at a time.

The package evaluates every predicate with array kernels; these one-at-a-time
versions are kept for the tests to compare against.  The orientation
tolerance is absolute on twice the signed area, as in the kernels.
"""
from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from relmetric import _batch
from relmetric.geom import (
    EPS_GEOM,
    TWO_PI,
    PlanarDomain,
    Point2,
    Polyline,
    Region,
    Segment2,
    _in_wedge,
    blocked_rays,
    contains,
    domain_arrays,
    point_array,
    wedges_from_rays,
)
from relmetric.constructions import Trapezium
from relmetric.errors import MissingHint, OffsetFailed, ProfileUnconverged, SceneInvalid
from relmetric.metric import _engine
from relmetric.rigidity import BoundaryProfile
from relmetric.visibility import (
    PathResult,
    PreparedScene,
    _ray_adjacency,
    _wedges_share_interior,
)


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

    Endpoint touching and collinear overlap both return False.  This is the
    scalar reference for the ``cross`` contact of :func:`_batch.contacts`.
    """
    o1 = orientation(s.a, s.b, t.a, eps)
    o2 = orientation(s.a, s.b, t.b, eps)
    o3 = orientation(t.a, t.b, s.a, eps)
    o4 = orientation(t.a, t.b, s.b, eps)
    return o1 * o2 < 0 and o3 * o4 < 0


def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    d = b - a
    denom = d.dot(d)
    t = 0.0 if denom <= 0.0 else min(1.0, max(0.0, (p - a).dot(d) / denom))
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


def polygon_signed_area(vertices: Sequence[Point2]) -> float:
    n = len(vertices)
    acc = 0.0
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        acc += a.x * b.y - a.y * b.x
    return 0.5 * acc


def free_wedges(domain: PlanarDomain, p: Point2) -> list[tuple[float, float]]:
    """Angular intervals (start, span) of directions not blocked at boundary
    point p, starts in [0, 2*pi) in increasing order.  An unconstrained
    point yields one full turn."""
    return wedges_from_rays(blocked_rays(np.array([p.as_tuple()]), *domain_arrays(domain)[:3])[0][0])


def hinted_wedges(
    wedges: list[tuple[float, float]],
    p: Point2,
    hint: str | None,
    sides: Sequence[Segment2],
) -> list[tuple[float, float]]:
    """``geom.hinted_wedges`` for one point, with one distance kernel call
    of its own: the wedges at p on the hinted side of the first two-sided
    feature in `sides` within EPS_GEOM of p, or all of them.  A hint other
    than "left" or "right" raises MissingHint only on such a feature."""
    if hint is None or not sides:
        return wedges
    A, B = point_array([s.a for s in sides]), point_array([s.b for s in sides])
    on = np.flatnonzero(_batch.point_seg_dists(np.array([p.as_tuple()]), A, B)[0] <= EPS_GEOM)
    if not on.size:
        return wedges
    if hint not in ("left", "right"):
        raise MissingHint(f"unknown hint {hint!r}; expected 'left' or 'right'")
    wall, side = sides[on[0]], 1.0 if hint == "left" else -1.0
    d = wall.direction()
    for end, r in ((wall.a, 1.0), (wall.b, -1.0)):
        if p.distance_to(end) <= EPS_GEOM:
            # the ray leaves p along r*d; the hinted side is counterclockwise
            # of it when side*r > 0, and its wedge then starts at the ray
            ray, edge = math.atan2(r * d.y, r * d.x), 0.0 if side * r > 0 else 1.0
            return [w for w in wedges if _in_wedge(ray, (w[0] + edge * w[1], 0.0))] or wedges
    normal = math.atan2(side * d.x, -side * d.y)
    return [w for w in wedges if _in_wedge(normal, w)] or wedges


def terminal_wedges(
    engine: PreparedScene, p: Point2, rays: list[float], host: int | None, hint: str | None, label: str
) -> tuple[list[tuple[float, float]], bool]:
    """The wedges of an off-node terminal of the engine, found with one
    hint filter and one region mask of its own, and whether all of them
    open into the region: a hint may choose a side outside it, and a point
    with no side in the region keeps all its wedges."""
    wedges = wedges_from_rays(rays)
    if host is None:
        return wedges, True
    wedges = hinted_wedges(wedges, p, hint, engine._sides)
    viable = engine._viable_wedges(np.array([p.as_tuple()]), [wedges])[0]
    if len(viable) == 1:
        return viable, True
    if len(viable) == 0:
        return wedges, False
    raise MissingHint(
        f"terminal {label} at ({p.x}, {p.y}) lies on a two-sided wall; "
        "pass hint='left' or hint='right'"
    )


def representatives(
    domain: PlanarDomain,
    points: Sequence[Point2],
    offsets: Sequence[float],
    hints: Sequence[str | None],
) -> list[list[tuple[Point2, ...]]]:
    """``geom.inward_offsets`` one point at a time: ``contains`` per point
    (an exterior point raises SceneInvalid; an interior point with a hint
    other than "left" or "right" raises MissingHint, else is its own
    representative), then for a boundary point its rays and wedges, and one
    closure test and one crossing test per (wedge, offset) candidate."""
    return [_point_representatives(domain, t, h, offsets) for t, h in zip(points, hints)]


def _point_representatives(domain, t, hint, offsets):
    region = contains(domain, t)
    if region is Region.EXTERIOR:
        raise SceneInvalid(f"point ({t.x}, {t.y}) lies outside the domain closure")
    if region is Region.INTERIOR:
        if hint not in (None, "left", "right"):
            raise MissingHint(f"unknown hint {hint!r}; expected 'left' or 'right'")
        return [tuple(t for _ in offsets)]
    if min(offsets) <= 0.0:
        raise OffsetFailed("offset distance must be positive")
    FA, FB, angles = domain_arrays(domain)[:3]
    P = np.array([t.as_tuple()])
    (rays, host), = blocked_rays(P, FA, FB, angles)
    n_walls = len(FA) - len(domain.slits)
    if hint is None and host is not None and host >= n_walls:
        raise MissingHint(f"point ({t.x}, {t.y}) lies on a slit; side hint required")
    if hint not in (None, "left", "right"):
        raise MissingHint(f"unknown hint {hint!r}; expected 'left' or 'right'")
    wedges = hinted_wedges(wedges_from_rays(rays), t, hint, domain.slits)

    def along(theta: float, delta: float) -> Point2 | None:
        q = Point2(t.x + delta * math.cos(theta), t.y + delta * math.sin(theta))
        if contains(domain, q) is not Region.INTERIOR:
            return None
        if _batch.cross_matrix(P[0], np.array([q.as_tuple()]), FA, FB, EPS_GEOM).any():
            return None
        return q

    faces = [tuple(along(w[0] + 0.5 * w[1], d) for d in offsets) for w in wedges]
    whole = [f for f in faces if None not in f]
    if hint is None and whole:
        return whole
    # at each offset, the first wedge that serves it
    firsts = [next((q for q in column if q is not None), None) for column in zip(*faces)]
    if None in firsts:
        raise OffsetFailed(
            f"no interior point within {offsets[firsts.index(None)]} of ({t.x}, {t.y}); "
            "offset larger than the local feature size?"
        )
    return [tuple(firsts)]


def max_corner_detour_ratio(trap: Trapezium, samples: int = 1024) -> float:
    """Worst ratio (|av| + |vb|) / |ab| over triangles with one vertex at a
    trapezium corner and the others on its two incident sides, one (s, t)
    sample at a time."""
    grid = max(2, math.ceil(math.sqrt(samples / 4.0)))
    verts = trap.vertices
    worst = 0.0
    for ci in range(4):
        v = verts[ci]
        prev_v = verts[(ci - 1) % 4]
        next_v = verts[(ci + 1) % 4]
        len_p = v.distance_to(prev_v)
        len_n = v.distance_to(next_v)
        pairs = [
            (i / grid * len_p, k / grid * len_n)
            for i in range(1, grid + 1)
            for k in range(1, grid + 1)
        ]
        # the ratio peaks on the equal-length diagonal s == t, which the
        # fraction grid misses when the two sides differ a lot in length
        short = min(len_p, len_n)
        pairs.extend((i / grid * short, i / grid * short) for i in range(1, grid + 1))
        for s, t in pairs:
            a = Point2(
                v.x + s / len_p * (prev_v.x - v.x), v.y + s / len_p * (prev_v.y - v.y)
            )
            b = Point2(
                v.x + t / len_n * (next_v.x - v.x), v.y + t / len_n * (next_v.y - v.y)
            )
            base = a.distance_to(b)
            if base <= EPS_GEOM:
                continue
            worst = max(worst, (a.distance_to(v) + v.distance_to(b)) / base)
    return worst


def _perimeter_table(domain: PlanarDomain) -> tuple[list[Point2], list[float], float]:
    verts = list(domain.outer)
    cum = [0.0]
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        cum.append(cum[-1] + v.distance_to(w))
    return verts, cum, cum[-1]


def _point_on_boundary(
    verts: list[Point2], cum: list[float], total: float, s: float
) -> Point2:
    s = s % total
    # find the edge containing arc position s
    lo, hi = 0, len(verts)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cum[mid] <= s:
            lo = mid
        else:
            hi = mid
    a = verts[lo]
    b = verts[(lo + 1) % len(verts)]
    span = cum[lo + 1] - cum[lo]
    t = 0.0 if span <= 0 else (s - cum[lo]) / span
    return Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def boundary_arc_points(domain: PlanarDomain, m: int) -> list[Point2]:
    """m outer-boundary points equally spaced in Euclidean arc length,
    anchored at the first vertex, each found by bisection on the edges."""
    verts, cum, total = _perimeter_table(domain)
    return [_point_on_boundary(verts, cum, total, total * i / m) for i in range(m)]


def boundary_profile(domain: PlanarDomain, m: int) -> BoundaryProfile:
    """The profile with one two-point search per consecutive gap in each
    round, a scalar redistribution step and a separate final table."""
    verts, cum, total = _perimeter_table(domain)
    engine = _engine(domain)
    pos = [total * i / m for i in range(m)]

    def consecutive_gaps(samples: list[Point2]) -> list[float]:
        return [
            engine.shortest_path(samples[i], samples[(i + 1) % m]).length
            for i in range(m)
        ]

    samples = [_point_on_boundary(verts, cum, total, s) for s in pos]
    for _ in range(60):
        gaps = consecutive_gaps(samples)
        mean = sum(gaps) / m
        spread = max(abs(g - mean) for g in gaps) / mean
        if spread <= 0.01:
            break
        cum_gap = [0.0]
        for g in gaps:
            cum_gap.append(cum_gap[-1] + g)
        targets = [cum_gap[-1] * i / m for i in range(m)]
        anchors = pos + [total]
        new_pos = [0.0]
        for i in range(1, m):
            t = targets[i]
            k = max(0, min(m - 1, next(j for j in range(m) if cum_gap[j + 1] >= t)))
            span = cum_gap[k + 1] - cum_gap[k]
            frac = 0.0 if span <= 0 else (t - cum_gap[k]) / span
            new_pos.append(anchors[k] + frac * (anchors[k + 1] - anchors[k]))
        pos = new_pos
        samples = [_point_on_boundary(verts, cum, total, s) for s in pos]
    else:
        raise ProfileUnconverged(
            f"consecutive gaps still spread {spread:.3%} after 60 rounds"
        )

    paths = engine.shortest_paths(samples)
    M = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            M[i, j] = M[j, i] = paths[i][j].length
    return BoundaryProfile(tuple(samples), M)


def _snap(engine: PreparedScene, t: Point2) -> int | None:
    """The base node at t: an exact position match, else the first base
    node within EPS_GEOM."""
    if t in engine.base_points:
        return engine.base_points.index(t)
    return next((v for v, p in enumerate(engine.base_points) if t.distance_to(p) <= EPS_GEOM), None)


def shortest_paths(
    engine: PreparedScene, points: Sequence[Point2], hints: Sequence[str | None] | None = None
) -> list[list[PathResult | None]]:
    """``engine.shortest_paths`` for valid points, with the per-search rows
    and the edge geometry (angles, wedge tests, step lengths) recomputed at
    every relaxation of every search.

    A point at base node v takes v's row, computed from v as the source
    against unowned point candidates; the through-node test then drops every
    point at a base node, and each is put back into the rows that see its
    node."""
    k, n = len(points), engine._n
    out: list[list[PathResult | None]] = [[None] * k for _ in range(k)]
    hints = [None] * k if hints is None else hints
    T = np.array([t.as_tuple() for t in points])
    snapped = [_snap(engine, t) for t in points]
    off = [c for c in range(k) if snapped[c] is None]
    rays = dict(zip(off, blocked_rays(T[off], engine._FA, engine._FB, engine._angles)))
    node_wedges = engine._node_wedges + [[] for _ in range(k)]
    exposed = set()
    for c, v in enumerate(snapped):
        if v is None:
            wedges, in_region = terminal_wedges(engine, points[c], *rays[c], hints[c], "ab"[c > 0])
            node_wedges[n + c] = wedges
            if not in_region:
                exposed.add(c)
        else:
            T[c] = engine._P[v]
            node_wedges[n + c] = hinted_wedges(engine._node_wedges[v], points[c], hints[c], engine._sides)
    positions = engine.base_points + [
        p if v is None else engine.base_points[v] for p, v in zip(points, snapped)
    ]
    Q = np.vstack([engine._P, T])
    own = np.concatenate([np.arange(n), np.full(k, -1)])
    src = np.array([n + c if v is None else v for c, v in enumerate(snapped)], dtype=np.intp)
    at_node = [(n + d, v) for d, v in enumerate(snapped) if v is not None]
    base_row, point_row = [], []
    for c, row in enumerate(engine._visibility(src, Q, own)):
        if c in exposed:
            row = row[engine._region_mask(0.5 * (T[c] + Q[row]))]
        cut = row.searchsorted(n)
        base_row.append(row[:cut].tolist())
        seen = set(base_row[c])
        point_row.append(sorted(row[cut:].tolist() + [t for t, v in at_node if v in seen]))

    for i in range(k - 1):
        src = n + i
        targets = []
        for j in range(i + 1, k):
            if points[i].distance_to(points[j]) <= EPS_GEOM and _wedges_share_interior(
                node_wedges[src], node_wedges[n + j]
            ):
                out[i][j] = PathResult(True, 0.0, Polyline((points[i],)))
            else:
                targets.append(n + j)
        seen_by: dict[int, list[int]] = {}
        for t in targets:
            for v in base_row[t - n]:
                seen_by.setdefault(v, []).append(t)
        goal = set(targets)
        rows = {src: base_row[i] + [t for t in point_row[i] if t in goal]}
        for t, found in _search(engine, src, goal, positions, node_wedges, rows, seen_by).items():
            out[i][t - n] = found
    return out


def _search(engine, src, targets, positions, node_wedges, rows, seen_by):
    """Dijkstra over (node, wedge) states, relaxing each edge from the
    positions and wedges on every expansion."""
    n = engine._n
    dist = {(src, w): 0.0 for w in range(len(node_wedges[src]))}
    parent = {key: None for key in dist}
    heap = [(0.0, src, w) for w in range(len(node_wedges[src]))]
    found = {}
    while heap and targets:
        d, idx, w_idx = heapq.heappop(heap)
        if d > dist.get((idx, w_idx), math.inf):
            continue
        if idx in targets and idx not in found:
            found[idx] = (idx, w_idx)
            if len(found) == len(targets):
                break
        if idx >= n and idx != src:
            continue
        if idx not in rows:
            rows[idx] = engine._vis_row(idx) + seen_by.get(idx, [])
        p = positions[idx]
        wedge = node_wedges[idx][w_idx]
        for j in rows[idx]:
            if j == idx:
                continue
            q = positions[j]
            theta = math.atan2(q.y - p.y, q.x - p.x)
            if not _in_wedge(theta, wedge):
                continue
            left_src, right_src = _ray_adjacency(theta, wedge)
            back = (theta + math.pi) % TWO_PI
            step = p.distance_to(q)
            for w2, wd in enumerate(node_wedges[j]):
                if not _in_wedge(back, wd):
                    continue
                ccw_t, cw_t = _ray_adjacency(back, wd)
                if not ((left_src and cw_t) or (right_src and ccw_t)):
                    continue
                nd = d + step
                if nd < dist.get((j, w2), math.inf):
                    dist[(j, w2)] = nd
                    parent[(j, w2)] = (idx, w_idx)
                    heapq.heappush(heap, (nd, j, w2))

    results = {t: PathResult(False, math.inf, None) for t in targets}
    for t, key in found.items():
        chain = []
        while key is not None:
            chain.append(positions[key[0]])
            key = parent[key]
        verts = [chain[-1]]
        for p in reversed(chain[:-1]):
            if p.distance_to(verts[-1]) > EPS_GEOM:
                verts.append(p)
        poly = Polyline(tuple(verts))
        results[t] = PathResult(True, poly.length(), poly)
    return results
