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
from .geom import PlanarDomain, Point2, point_array
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


def _perimeter(domain: PlanarDomain) -> tuple[np.ndarray, np.ndarray]:
    """The outer ring closed by its first vertex, and the Euclidean arc
    length from the first vertex to each ring point."""
    ring = domain.outer + domain.outer[:1]
    cum = np.cumsum([0.0] + [v.distance_to(w) for v, w in zip(ring, ring[1:])])
    return point_array(ring), cum


def _points_at(ring: np.ndarray, cum: np.ndarray, pos: np.ndarray) -> list[Point2]:
    """Outer-boundary points at arc positions pos, taken modulo the
    perimeter, each on the edge that holds it."""
    s = np.remainder(pos, cum[-1])
    k = np.searchsorted(cum, s, side="right") - 1
    t = (s - cum[k]) / (cum[k + 1] - cum[k])
    xy = ring[k] + t[:, None] * (ring[k + 1] - ring[k])
    return [Point2(x, y) for x, y in xy.tolist()]


def boundary_arc_points(domain: PlanarDomain, m: int) -> list[Point2]:
    """m outer-boundary points equally spaced in Euclidean arc length,
    anchored at the first vertex.  These are the starting samples of
    boundary_profile, without its rounds that equalize boundary distances;
    checks that only need a spread of boundary points use them."""
    if m < 1:
        raise SpecInvalid(f"need at least 1 sample, got {m}")
    ring, cum = _perimeter(domain)
    return _points_at(ring, cum, cum[-1] * np.arange(m) / m)


def boundary_profile(domain: PlanarDomain, m: int) -> BoundaryProfile:
    """Sample the outer boundary at m points whose consecutive boundary
    distances agree within 1%, anchored at the first polygon vertex, and
    record the full pairwise distance matrix.

    Each round searches one table over its samples and reads the
    consecutive gaps from it; the table of the round that agrees is the
    profile.  Profiling is defined for a single closed boundary curve; holes
    or slits mean several boundary components and are refused.
    """
    if domain.holes or domain.slits:
        raise MultipleBoundaryComponents(
            "profiles need a single closed boundary curve"
        )
    if m < 3:
        raise SpecInvalid(f"need at least 3 samples, got {m}")
    ring, cum = _perimeter(domain)
    engine = _engine(domain)
    pos = cum[-1] * np.arange(m) / m
    for _ in range(_MAX_ROUNDS):
        samples = _points_at(ring, cum, pos)
        paths = engine.shortest_paths(samples)
        gaps = [paths[i][i + 1].length for i in range(m - 1)] + [paths[0][m - 1].length]
        mean = sum(gaps) / m
        spread = max(abs(g - mean) for g in gaps) / mean
        if spread <= _GAP_SPREAD:
            break
        # redistribute: move each sample to where the cumulative gap count
        # would be exactly i * mean, interpolating in arc length within the
        # first gap k whose end reaches it
        cum_gap = np.cumsum([0.0] + gaps)
        targets = cum_gap[-1] * np.arange(1, m) / m
        k = np.searchsorted(cum_gap[1:], targets)
        frac = (targets - cum_gap[k]) / (cum_gap[k + 1] - cum_gap[k])
        anchors = np.append(pos, cum[-1])
        pos = np.append(0.0, anchors[k] + frac * (anchors[k + 1] - anchors[k]))
    else:
        raise ProfileUnconverged(
            f"consecutive gaps still spread {spread:.3%} after "
            f"{_MAX_ROUNDS} rounds"
        )

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
