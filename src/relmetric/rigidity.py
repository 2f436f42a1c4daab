"""Boundary distance profiles and congruence tests.

A profile samples the boundary at points equally spaced in the boundary
metric and records all pairwise distances.  Two domains with matching
profiles (up to relabeling of the samples around the loop) have isometric
boundaries at that resolution; matching Euclidean distance matrices of the
aligned samples then certify an ambient rigid motion, since planar point
sets with equal distance matrices are congruent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MultipleBoundaryComponents,
    NotAligned,
    ProfileUnconverged,
    SizeMismatch,
    SpecInvalid,
)
from .geom import PlanarDomain, Point2
from .metric import (
    ConvexityReport,
    _engine,
    check_strict_convexity,
)

_GAP_SPREAD = 0.01
_MAX_ROUNDS = 60


@dataclass(frozen=True)
class BoundaryProfile:
    samples: tuple[Point2, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.samples)
        if self.matrix.shape != (m, m):
            raise SpecInvalid("profile matrix must be square over the samples")

    @property
    def size(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class AlignmentResult:
    shift: int
    reflected: bool
    residual: float

    def permutation(self, m: int) -> np.ndarray:
        idx = np.arange(m)
        if self.reflected:
            return (self.shift - idx) % m
        return (self.shift + idx) % m


@dataclass(frozen=True)
class CongruenceResult:
    congruent: bool
    max_gap: float


@dataclass(frozen=True)
class TransferReport:
    applicable: bool
    first_strictly_convex: bool
    profile_residual: float
    second_strictly_convex: bool
    agrees: bool
    falsification_candidate: bool
    resolution: tuple[int, float]
    note: str


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
    anchored at the first vertex.  Cheap cousin of boundary_profile sampling
    for checks that only need a spread of boundary points."""
    if m < 1:
        raise SpecInvalid(f"need at least 1 sample, got {m}")
    verts, cum, total = _perimeter_table(domain)
    return [
        _point_on_boundary(verts, cum, total, total * i / m) for i in range(m)
    ]


def boundary_profile(domain: PlanarDomain, m: int) -> BoundaryProfile:
    """Sample the outer boundary at m points whose consecutive boundary
    distances agree within 1%, anchored at the first polygon vertex, and
    record the full pairwise distance matrix.

    Profiling is defined for a single closed boundary curve; holes or slits
    mean several boundary components and are refused.
    """
    if domain.holes or domain.slits:
        raise MultipleBoundaryComponents(
            "profiles need a single closed boundary curve"
        )
    if m < 3:
        raise SpecInvalid(f"need at least 3 samples, got {m}")
    verts, cum, total = _perimeter_table(domain)
    engine = _engine(domain)
    pos = [total * i / m for i in range(m)]

    def consecutive_gaps(samples: list[Point2]) -> list[float]:
        return [
            engine.shortest_path(samples[i], samples[(i + 1) % m]).length
            for i in range(m)
        ]

    samples = [_point_on_boundary(verts, cum, total, s) for s in pos]
    for _ in range(_MAX_ROUNDS):
        gaps = consecutive_gaps(samples)
        mean = sum(gaps) / m
        spread = max(abs(g - mean) for g in gaps) / mean
        if spread <= _GAP_SPREAD:
            break
        # redistribute: move each sample to where the cumulative gap count
        # would be exactly i * mean, interpolating in arc length
        cum_gap = [0.0]
        for g in gaps:
            cum_gap.append(cum_gap[-1] + g)
        targets = [cum_gap[-1] * i / m for i in range(m)]
        anchors = pos + [total]
        new_pos = [0.0]
        for i in range(1, m):
            t = targets[i]
            k = max(
                0, min(m - 1, next(j for j in range(m) if cum_gap[j + 1] >= t) )
            )
            span = cum_gap[k + 1] - cum_gap[k]
            frac = 0.0 if span <= 0 else (t - cum_gap[k]) / span
            new_pos.append(anchors[k] + frac * (anchors[k + 1] - anchors[k]))
        pos = new_pos
        samples = [_point_on_boundary(verts, cum, total, s) for s in pos]
    else:
        raise ProfileUnconverged(
            f"consecutive gaps still spread {spread:.3%} after "
            f"{_MAX_ROUNDS} rounds"
        )

    paths = engine.shortest_paths(samples)
    M = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            M[i, j] = M[j, i] = paths[i][j].length
    return BoundaryProfile(tuple(samples), M)


def compare_profiles(p1: BoundaryProfile, p2: BoundaryProfile) -> AlignmentResult:
    """Best alignment of the two sample loops over all rotations and
    reflections of the index circle; residual is the largest entrywise
    distance mismatch at that alignment."""
    m = p1.size
    if p2.size != m:
        raise SizeMismatch(f"profiles have {m} and {p2.size} samples")
    best: AlignmentResult | None = None
    idx = np.arange(m)
    for reflected in (False, True):
        for shift in range(m):
            sigma = (shift - idx) % m if reflected else (shift + idx) % m
            res = float(np.max(np.abs(p1.matrix - p2.matrix[np.ix_(sigma, sigma)])))
            if best is None or res < best.residual - 1e-18:
                best = AlignmentResult(shift, reflected, res)
    assert best is not None
    return best


def euclidean_congruence(
    p1: BoundaryProfile,
    p2: BoundaryProfile,
    alignment: AlignmentResult,
    tol: float = 1e-9,
) -> CongruenceResult:
    """Compare Euclidean distance matrices of the aligned samples.

    Equality within tol certifies an ambient rigid motion between the two
    sample sets; a profile match with a Euclidean mismatch would exhibit
    boundary isometry without congruence."""
    if alignment.residual > tol:
        raise NotAligned(
            f"profiles disagree by {alignment.residual}, above tol {tol}"
        )
    m = p1.size
    if p2.size != m:
        raise SizeMismatch(f"profiles have {m} and {p2.size} samples")

    def euclid(samples: tuple[Point2, ...]) -> np.ndarray:
        pts = np.array([p.as_tuple() for p in samples])
        diff = pts[:, None, :] - pts[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])

    sigma = alignment.permutation(m)
    e1 = euclid(p1.samples)
    e2 = euclid(tuple(p2.samples[int(k)] for k in sigma))
    gap = float(np.max(np.abs(e1 - e2)))
    return CongruenceResult(gap <= tol, gap)


def transfer_from_profiles(
    first: PlanarDomain,
    second: PlanarDomain,
    prof1: BoundaryProfile,
    prof2: BoundaryProfile,
    eta: float,
    tol: float = 1e-9,
) -> TransferReport:
    """If the first domain is strictly convex at resolution (m, eta) and the
    second has a matching boundary profile, the second must test strictly
    convex at the same resolution; report agreement.  ``prof1`` and
    ``prof2`` are the two domains' profiles at m samples.

    A failure with matched profiles is flagged for review rather than
    declared a counterexample: at polygonal resolution the convexity verdict
    depends on the sampling, so the flag means "re-run finer", not "found".
    """
    conv1: ConvexityReport = check_strict_convexity(first, list(prof1.samples), eta)
    align = compare_profiles(prof1, prof2)
    applicable = conv1.strictly_convex and align.residual <= tol
    conv2 = check_strict_convexity(second, list(prof2.samples), eta)
    falsification = applicable and not conv2.strictly_convex
    if falsification:
        note = (
            "profiles match and the first domain passed, but the second "
            "failed; re-examine at finer resolution before reading this as "
            "a counterexample"
        )
    elif not applicable:
        note = "preconditions not met; transfer prediction not applicable"
    else:
        note = "transfer prediction holds at this resolution"
    return TransferReport(
        applicable=applicable,
        first_strictly_convex=conv1.strictly_convex,
        profile_residual=align.residual,
        second_strictly_convex=conv2.strictly_convex,
        agrees=(not applicable) or conv2.strictly_convex,
        falsification_candidate=falsification,
        resolution=(prof1.size, eta),
        note=note,
    )
