"""Boundary-relative intrinsic metric on slit domains.

The distance between two points of the closed domain is the limiting length
of shortest interior paths whose endpoints approach the given points from the
open interior.  Interior points need no limit; boundary points are offset
inward by a decreasing schedule of distances and the lengths extrapolated.
One pass, :func:`relmetric.geom.inward_offsets`, classifies every query
point, gives its representatives and raises the first failing point's error.
For polygonal domains the limit equals the closure shortest-path length with
junction-aware semantics, which is what :func:`closure_distance` evaluates
directly; exactness-sensitive checks (geodesic identity, ambient comparison)
use that form.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import SpecInvalid, UnreachableError
from . import _batch
from .geom import (
    EPS_GEOM,
    PlanarDomain,
    Point2,
    Polyline,
    closure_masks,
    domain_arrays,
    inward_offsets,
    point_array,
)
from .visibility import ObstacleScene, PathResult, PreparedScene

EXTRAPOLATIONS = ("last-value", "richardson")


@dataclass(frozen=True)
class MetricConfig:
    offsets: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    tol_metric: float = 1e-6
    extrapolation: str = "richardson"

    def __post_init__(self) -> None:
        if not self.offsets:
            raise SpecInvalid("offset schedule must be non-empty")
        if not all(0 < d < math.inf for d in self.offsets):
            raise SpecInvalid("offsets must be positive and finite")
        if any(b >= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise SpecInvalid("offsets must be strictly decreasing")
        if self.extrapolation.lower() not in EXTRAPOLATIONS:
            raise SpecInvalid(f"unknown extrapolation {self.extrapolation!r}")
        if not 0 < self.tol_metric < math.inf:
            raise SpecInvalid("tol_metric must be positive and finite")


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    per_offset: tuple[tuple[float, float], ...]
    converged: bool

    def __post_init__(self) -> None:
        if not math.isinf(self.value) and self.value < -EPS_GEOM:
            raise SpecInvalid("distance estimate cannot be negative")


@dataclass(frozen=True)
class GeodesicCheck:
    path: Polyline
    max_deviation: float
    one_sided_max: float
    length: float


@lru_cache(maxsize=32)
def _engine(domain: PlanarDomain) -> PreparedScene:
    return PreparedScene(ObstacleScene.from_domain(domain))


def closure_distance(
    domain: PlanarDomain,
    x: Point2,
    y: Point2,
    hint_x: str | None = None,
    hint_y: str | None = None,
) -> PathResult:
    """Shortest-path length between closure points, terminals evaluated in
    place (no inward offsets).  For polygonal domains this equals the inward
    offset limit, so it serves as the exact small-offset reference."""
    return _engine(domain).shortest_path(x, y, hint_a=hint_x, hint_b=hint_y)


def _extrapolate(lengths: Sequence[float], cfg: MetricConfig) -> float:
    if any(math.isinf(v) for v in lengths) or cfg.extrapolation.lower() != "richardson" or len(lengths) < 2:
        # last-value, one offset, or some offset unreached: the smallest
        # offset's value (inf when none is reached)
        return lengths[-1]
    d_prev, d_last = cfg.offsets[-2], cfg.offsets[-1]
    v_prev, v_last = lengths[-2], lengths[-1]
    # linear-in-delta model; clamp because a distance cannot go negative
    return max(0.0, v_last + (v_last - v_prev) * d_last / (d_prev - d_last))


def _converged(lengths: Sequence[float], cfg: MetricConfig) -> bool:
    if len(lengths) == 1:
        return True
    infs = [math.isinf(v) for v in lengths]
    if any(infs):
        return all(infs)
    diffs = [abs(b - a) for a, b in zip(lengths, lengths[1:])]
    if len(diffs) == 1:
        return diffs[0] <= cfg.tol_metric
    return all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))


def rho(
    domain: PlanarDomain,
    x: Point2,
    y: Point2,
    cfg: MetricConfig | None = None,
    hint_x: str | None = None,
    hint_y: str | None = None,
) -> DistanceEstimate:
    """Boundary-relative distance via the inward-offset schedule.

    Interior terminals are used as-is; boundary terminals are replaced by
    interior representatives at each offset delta.  A point on a slit needs a
    side hint because the two faces genuinely differ.  Unreachable pairs give
    value ``inf`` (a result, not an error); a schedule that does not
    converge warns."""
    est = distance_matrix(domain, [x, y], cfg, [hint_x, hint_y])[0][1]
    if not est.converged:
        warnings.warn(
            f"offset schedule did not converge for ({x.x}, {x.y})-({y.x}, {y.y}): "
            f"lengths {[length for _, length in est.per_offset]}",
            RuntimeWarning,
            stacklevel=2,
        )
    return est


def distance_matrix(
    domain: PlanarDomain,
    points: Sequence[Point2],
    cfg: MetricConfig | None = None,
    hints: Sequence[str | None] | None = None,
) -> list[list[DistanceEstimate]]:
    """Pairwise rho over the points; symmetric by construction (each
    unordered pair is evaluated once, with shared offset representatives).

    One one-to-many search covers the distinct representatives of all
    offsets, keyed by (point, representative) and listed point by point, so
    every pair is searched from its earlier point, as one search per offset
    would; an interior point is searched once.  A point where several
    interior faces meet is as near as its nearest face: each pair keeps its
    face pair of smallest value, the first on ties."""
    cfg = cfg or MetricConfig()
    reps = inward_offsets(domain, points, cfg.offsets, [None] * len(points) if hints is None else hints)
    keys = dict.fromkeys((i, r) for i, faces in enumerate(reps) for face in faces for r in face)
    index = {key: a for a, key in enumerate(keys)}
    paths = _engine(domain).shortest_paths([r for _, r in keys])
    n = len(points)
    zero = DistanceEstimate(0.0, tuple((d, 0.0) for d in cfg.offsets), True)
    out: list[list[DistanceEstimate]] = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            estimates = []
            for fi, fj in itertools.product(reps[i], reps[j]):
                values = [paths[index[i, a]][index[j, b]].length for a, b in zip(fi, fj)]
                estimates.append(DistanceEstimate(
                    _extrapolate(values, cfg), tuple(zip(cfg.offsets, values)), _converged(values, cfg)
                ))
            out[i][j] = out[j][i] = min(estimates, key=lambda est: est.value)
    return out


def matrix_values(matrix) -> np.ndarray:
    """Float matrix from distance_matrix output, rows of numbers or an array; else SpecInvalid."""
    try:
        if isinstance(matrix, np.ndarray):
            return matrix.astype(float)
        rows = [[c.value if isinstance(c, DistanceEstimate) else float(c) for c in row] for row in matrix]
        return np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecInvalid(f"matrix must be a list of equal-length rows of numbers: {exc}") from None


@dataclass(frozen=True)
class MetricAxiomReport:
    symmetry_violations: tuple[tuple[int, int, float], ...]
    triangle_violations: tuple[tuple[int, int, int, float], ...]
    identity_violations: tuple[tuple[int, int, float], ...]

    @property
    def ok(self) -> bool:
        return not (
            self.symmetry_violations
            or self.triangle_violations
            or self.identity_violations
        )


def check_metric_axioms(matrix, tol: float = 1e-6) -> MetricAxiomReport:
    """Symmetry, identity/nonnegativity and triangle checks on a distance
    matrix; lists every pair or triple that exceeds tol, which must be a
    finite number >= 0 (a NaN would hide every violation)."""
    if not 0 <= tol < math.inf:
        raise SpecInvalid(f"tol must be a finite number >= 0, got {tol!r}")
    M = matrix_values(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SpecInvalid(f"matrix must be square, got shape {M.shape}")
    n = len(M)
    sym = []
    with np.errstate(invalid="ignore"):
        gap = np.abs(M - M.T)
    gap = np.nan_to_num(gap, nan=0.0)
    for i, j in zip(*np.nonzero(np.triu(gap > tol, k=1))):
        sym.append((int(i), int(j), float(gap[i, j])))
    ident = []
    for i in range(n):
        if abs(M[i, i]) > tol:
            ident.append((i, i, float(M[i, i])))
    for i, j in zip(*np.nonzero(M < -tol)):
        ident.append((int(i), int(j), float(M[i, j])))
    tri = []
    with np.errstate(invalid="ignore"):
        excess = M[:, None, :] - M[:, :, None] - M[None, :, :]
    excess = np.nan_to_num(excess, nan=0.0)
    for i, j, k in zip(*np.nonzero(excess > tol)):
        tri.append((int(i), int(j), int(k), float(excess[i, j, k])))
    return MetricAxiomReport(tuple(sym), tuple(tri), tuple(ident))


def _subpath_length(path: Polyline, s: float, t: float) -> float:
    cum = path.cumulative_lengths()
    lo, hi = min(s, t), max(s, t)
    acc = 0.0
    for i in range(len(cum) - 1):
        a, b = cum[i], cum[i + 1]
        left = max(a, lo)
        right = min(b, hi)
        if right > left:
            acc += right - left
    return acc


def extract_geodesic(
    domain: PlanarDomain,
    x: Point2,
    y: Point2,
    cfg: MetricConfig | None = None,
    hint_x: str | None = None,
    hint_y: str | None = None,
    grid: int = 12,
) -> GeodesicCheck:
    """Smallest-offset shortest path between the nearest faces of x and y,
    arc-length parametrized, with the restriction identity checked on a
    parameter grid: the distance between two path points equals their
    parameter difference, and no subpath is longer than its parameter span."""
    cfg = cfg or MetricConfig()
    grid = max(grid, 10)
    d_min = cfg.offsets[-1]
    reps = inward_offsets(domain, [x, y], (d_min,), [hint_x, hint_y])
    fx, fy = ([face[0] for face in faces] for faces in reps)
    engine = _engine(domain)
    paths = engine.shortest_paths(fx + fy)
    # the nearest face pair, the first on ties, as in distance_matrix
    res = min((paths[a][len(fx) + b] for a in range(len(fx)) for b in range(len(fy))), key=lambda r: r.length)
    if not res.reached or res.path is None:
        raise UnreachableError(
            f"no finite distance between ({x.x}, {x.y}) and ({y.x}, {y.y})"
        )
    path = res.path
    total = path.length()
    if total <= EPS_GEOM:
        return GeodesicCheck(path, 0.0, 0.0, total)
    params = [total * i / (grid - 1) for i in range(grid)]
    pts = [path.point_at(s) for s in params]
    grid_paths = engine.shortest_paths(pts)
    max_dev = 0.0
    one_sided = 0.0
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            s, t = params[i], params[j]
            span = t - s
            d = grid_paths[i][j].length
            max_dev = max(max_dev, abs(d - span))
            one_sided = max(one_sided, _subpath_length(path, s, t) - span)
    return GeodesicCheck(path, max_dev, one_sided, total)


@dataclass(frozen=True)
class ConvexityReport:
    strictly_convex: bool
    witnesses: tuple[tuple[int, int, Point2, float], ...]
    resolution: tuple[int, float]


def _min_clearance_section(
    domain: PlanarDomain, path: Polyline, eta: float
) -> tuple[float, Point2]:
    """Minimum distance from the eta-trimmed path section to the boundary,
    with the closest path point."""
    total = path.length()
    lo, hi = eta, total - eta
    cum = path.cumulative_lengths()
    spans = [(max(a, lo), min(b, hi)) for a, b in zip(cum, cum[1:])]
    spans = [(left, right) for left, right in spans if right > left]
    if not spans:
        return math.inf, path.vertices[0]
    ends = np.array([[path.point_at(left).as_tuple(), path.point_at(right).as_tuple()] for left, right in spans])
    FA, FB = domain_arrays(domain)[:2]
    pairs = np.broadcast_arrays(ends[:, None, 0], ends[:, None, 1], FA[None], FB[None])
    dist = _batch.seg_pair_dists(*pairs).min(axis=1)
    k = int(np.argmin(dist))
    return float(dist[k]), path.point_at(0.5 * sum(spans[k]))


def check_strict_convexity(
    domain: PlanarDomain,
    boundary_samples: Sequence[Point2],
    eta: float,
) -> ConvexityReport:
    """Every sample pair's geodesic must stay clear of the boundary except
    within eta of its endpoints.  The verdict is relative to the sampling
    resolution; polygonal domains legitimately fail on same-edge pairs."""
    if len(boundary_samples) < 2:
        raise SpecInvalid(f"need at least two boundary samples to pair, got {len(boundary_samples)}")
    paths = _engine(domain).shortest_paths(boundary_samples)
    witnesses = []
    for i in range(len(boundary_samples)):
        for j in range(i + 1, len(boundary_samples)):
            res = paths[i][j]
            if not res.reached or res.path is None:
                witnesses.append((i, j, boundary_samples[i], math.inf))
                continue
            if res.length <= 2 * eta + EPS_GEOM:
                continue
            clearance, where = _min_clearance_section(domain, res.path, eta)
            if clearance <= EPS_GEOM:
                witnesses.append((i, j, where, clearance))
    return ConvexityReport(not witnesses, tuple(witnesses), (len(boundary_samples), eta))


def check_property_circ(
    domain: PlanarDomain,
    boundary_samples: Sequence[Point2],
    eta: float,
) -> ConvexityReport:
    """Strict-convexity test restricted to boundary point pairs."""
    off = np.flatnonzero(~closure_masks(domain, point_array(boundary_samples))[0])
    if off.size:
        p = boundary_samples[off[0]]
        raise SpecInvalid(f"sample ({p.x}, {p.y}) is not a boundary point")
    return check_strict_convexity(domain, boundary_samples, eta)


def check_rho_equals_ambient(
    domain: PlanarDomain,
    points: Sequence[Point2],
    hints: Sequence[str | None] | None = None,
) -> float:
    """Max over pairs of the points of |relative distance - Euclidean
    distance|.

    `hints`, if given, parallels `points`.  Uses the closure evaluation, one
    one-to-many search over the points, so convex domains report zero up to
    float rounding rather than offset-schedule error."""
    paths = _engine(domain).shortest_paths(points, hints)
    worst = 0.0
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            y, res = points[j], paths[i][j]
            if not res.reached:
                raise UnreachableError(f"pair ({x.x},{x.y})-({y.x},{y.y}) unreachable")
            worst = max(worst, abs(res.length - x.distance_to(y)))
    return worst
