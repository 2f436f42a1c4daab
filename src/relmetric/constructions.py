"""Explicit scenes with provable length behaviour.

Four families live here, each with its generator and its verifier:

* a comb-shaped Jordan domain whose teeth force interior connections to
  zigzag, so the distance from a fixed point to the narrow end grows without
  bound as more teeth are added;
* radial segment obstacles grouped in geometric levels inside a wedge
  triangle, together with an annulus-layer covering argument
  (:func:`verify_pigeonhole`) and a confined length bound
  (:func:`verify_length_bound`);
* planar spiral labyrinths whose entrance-to-exit distance grows with the
  number of coils (:func:`labyrinth_min_coils`);
* ruled 3-D strips over those spirals, their meridian-plane trapezia, a
  disjointness certificate, and the corner detour ratio that controls how
  much the meridian projection can shorten a path
  (:func:`max_corner_detour_ratio`).

:func:`triangle_defect_report` chains the pieces: the confined 2-D bound,
divided by the worst detour ratio, exceeds the length of the two straight
legs through the apex, so the limiting surface metric cannot satisfy the
triangle inequality with equality semantics of an interior point.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _batch
from .errors import (
    GeometryError,
    NotReachedWithinBound,
    OutsideCone,
    PathNotConfined,
    SpecInvalid,
)
from .geom import (
    EPS_GEOM,
    PlanarDomain,
    Point2,
    Point3,
    Polyline,
    Region,
    Segment2,
    Strip3,
    contains,
    point_array,
    polygon_edges,
)
from .metric import rho
from .visibility import (
    ObstacleScene,
    PathResult,
    PreparedScene,
    shortest_path_confined,
)

# Wedge geometry shared by the segment family, the strips and the defect
# report: two unit legs from the origin, half-opening angle pi/6.
WEDGE_ANGLE = math.pi / 6.0
LEG_A = Point2(1.0, 0.0)
LEG_D = Point2(math.cos(WEDGE_ANGLE), math.sin(WEDGE_ANGLE))
TRIANGLE_SCALE = 4.0
ESCAPE_LENGTH = 2.0 * (2.0 * math.sqrt(3.0) - 1.0)


# ---------------------------------------------------------------------------
# comb domain


@dataclass(frozen=True)
class CombSpec:
    """Comb with `depth` teeth; `cap_width` truncates the narrow end."""

    depth: int = 4
    cap_width: float | None = None

    def __post_init__(self) -> None:
        if self.depth < 2:
            raise SpecInvalid(f"comb depth must be >= 2, got {self.depth}")
        cap = self.cap
        if not 0.0 < cap < 1.0 / (2.0 * self.depth**2):
            raise SpecInvalid(
                f"cap width {cap} outside (0, {1.0 / (2.0 * self.depth ** 2)})"
            )

    @property
    def cap(self) -> float:
        if self.cap_width is not None:
            return self.cap_width
        return 1.0 / (4.0 * self.depth**2)


def comb_domain(spec: CombSpec) -> PlanarDomain:
    """Jordan domain bounded by two interleaved families of teeth.

    The lower wall zigzags between the peaks (1/n, 1/n) and the valleys
    (1/(n+1), 0); the upper wall between the peaks (1/n, 2/n) and the tips
    (4/(4n+3), 2/(4n+3)).  Each upper tip hangs a vertical distance
    1/(4n+3) above the lower slant below it, so the channel pinches harder
    with every tooth.  A vertical cap at x = cap_width closes the narrow end.
    """
    n_max = spec.depth
    c = spec.cap
    verts: list[Point2] = [Point2(1.0, 1.0), Point2(1.0, 2.0)]
    for n in range(1, n_max + 1):
        verts.append(Point2(4.0 / (4 * n + 3), 2.0 / (4 * n + 3)))
        verts.append(Point2(1.0 / (n + 1), 2.0 / (n + 1)))
    verts.append(Point2(c, 2.0 * c))
    verts.append(Point2(c, 0.0))
    verts.append(Point2(1.0 / (n_max + 1), 0.0))
    for n in range(n_max, 1, -1):
        verts.append(Point2(1.0 / n, 1.0 / n))
        verts.append(Point2(1.0 / n, 0.0))
    return PlanarDomain(tuple(verts), (), ())


@dataclass(frozen=True)
class CombDivergence:
    values: tuple[tuple[int, float], ...]
    increments: tuple[float, ...]
    strictly_increasing: bool


def comb_divergence(depths: Sequence[int]) -> CombDivergence:
    """Distance from the probe (1, 1.5) to the cap midpoint for each
    truncation depth.

    The probe sits on the wide-end wall, the target on the cap, so both ends
    are plain wall points (no side hints needed).  Deeper combs mean longer
    zigzags, so the sequence must increase.
    """
    if len(depths) < 2:
        raise SpecInvalid(f"need at least two depths to compare, got {len(depths)}")
    if list(depths) != sorted(set(depths)):
        raise SpecInvalid("depths must be strictly increasing")
    values = []
    for n in depths:
        spec = CombSpec(depth=n)
        dom = comb_domain(spec)
        target = Point2(spec.cap, spec.cap)
        est = rho(dom, Point2(1.0, 1.5), target)
        values.append((n, est.value))
    incs = tuple(b[1] - a[1] for a, b in zip(values, values[1:]))
    return CombDivergence(tuple(values), incs, all(d > 0 for d in incs))


# ---------------------------------------------------------------------------
# radial segment family and the confined length bound


@dataclass(frozen=True)
class SegmentFamilySpec:
    """Radial obstacle segments in geometric levels inside the wedge."""

    levels: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.levels <= 5:
            raise SpecInvalid(f"levels must be in 1..5, got {self.levels}")


def level_count(j: int) -> int:
    """Number of rays in level j."""
    return math.floor((2.0 * math.pi) ** j)


def _level_segments(j: int) -> list[Segment2]:
    kj = level_count(j)
    r_in = 2.0**-j
    r_out = 11.0 * 2.0**-j
    step = (2.0 * math.pi) ** (-j) * WEDGE_ANGLE
    out = []
    for k in range(1, kj + 1):
        phi = k * step
        u = Point2(math.cos(phi), math.sin(phi))
        out.append(Segment2(u.scaled(r_in), u.scaled(r_out)))
    return out


def wedge_triangle() -> PlanarDomain:
    return PlanarDomain(
        (Point2(0.0, 0.0), LEG_A.scaled(TRIANGLE_SCALE), LEG_D.scaled(TRIANGLE_SCALE)), (), ()
    )


def _clip_to_wall(seg: Segment2) -> Segment2:
    """Shorten a radial segment so its outer end lies on (not beyond) the
    far wall of the wedge triangle."""
    w1 = LEG_A.scaled(TRIANGLE_SCALE)
    w2 = LEG_D.scaled(TRIANGLE_SCALE)
    w = w2 - w1
    u = seg.direction()
    denom = u.cross(w)
    if abs(denom) < 1e-15:
        return seg
    # distance along the ray at which it meets the wall line
    r_hit = w1.cross(w) / denom
    r_out = seg.b.norm()
    if r_out <= r_hit:
        return seg
    return Segment2(seg.a, u.scaled(r_hit))


def clipped_family_scene(levels: Iterable[int]) -> ObstacleScene:
    """Obstacle scene for the chosen levels, bounded by the wedge triangle.

    Rays longer than the triangle are cut exactly at the far wall; the
    resulting endpoint-on-wall junctions are sealed (paths cannot slip
    between a ray and the wall it touches).
    """
    segs: list[Segment2] = []
    for j in sorted(set(levels)):
        if j < 1:
            raise SpecInvalid(f"level must be >= 1, got {j}")
        segs.extend(_clip_to_wall(s) for s in _level_segments(j))
    return ObstacleScene(tuple(segs), boundary=wedge_triangle())


def verify_length_bound(
    spec: SegmentFamilySpec,
    include_obstacles: bool = True,
    tol_floor: float = 0.01,
) -> tuple[int, float]:
    """Shortest leg-to-leg connection confined to radii >= 4*2^-J among the
    clipped family obstacles; returns (J, length).

    With obstacles present the length must be at least 6*(1 - tol_floor)
    (the tolerance absorbs the polygonal floor); an unreachable pair counts
    as infinite length and passes trivially.  Without obstacles the same
    confinement is cheap to cross, which the caller can use as a control.
    A route that leaves the confinement fails :func:`verify_pigeonhole`.
    """
    J = spec.levels
    if not 1 <= J <= 4:
        raise SpecInvalid(f"length bound defined for levels 1..4, got {J}")
    levels = range(1, J + 1) if include_obstacles else ()
    route = confined_route(levels, 4.0 * 2.0**-J)
    if route.reached:
        verify_pigeonhole(route.path, J)
    if include_obstacles and route.length < 6.0 * (1.0 - tol_floor):
        raise GeometryError(
            f"confined length {route.length} at J={J} fell below the bound "
            f"{6.0 * (1.0 - tol_floor)}"
        )
    return J, route.length


def confined_route(
    levels: Iterable[int],
    r_min: float,
    m_circle: int = 256,
) -> PathResult:
    """Confined leg-to-leg route among the clipped rays of the given levels.

    Partial level sets leave finite detours (useful as oracle paths); the
    full prefix 1..J severs the wedge entirely.
    """
    scene = clipped_family_scene(levels)
    return shortest_path_confined(scene, LEG_A, LEG_D, r_min, m_circle=m_circle)


# -- pigeonhole over annulus layers -----------------------------------------

# how far a checked path's ends may lie from the leg points LEG_A and LEG_D
_END_TOL = 1e-3


def layer_bounds(j: int) -> tuple[float, float]:
    """Radial span [4*2^-j, 8*2^-j] of layer j; consecutive layers share an
    endpoint, so levels 1..J tile [4*2^-J, 4]."""
    return 4.0 * 2.0**-j, 8.0 * 2.0**-j


def _radial_clip(a: Point2, d: Point2, r_lo: float, r_hi: float) -> list[tuple[float, float]]:
    """Parameter sub-intervals of t in [0,1] where |a + t*d| is in
    [r_lo, r_hi].  The squared radius is a convex quadratic in t, so the
    answer is at most two intervals."""
    qa = d.dot(d)
    qb = 2.0 * a.dot(d)
    qc = a.dot(a)
    if qa <= 0.0:
        r = math.sqrt(qc)
        return [(0.0, 1.0)] if r_lo <= r <= r_hi else []

    def below(r: float) -> tuple[float, float] | None:
        disc = qb * qb - 4.0 * qa * (qc - r * r)
        if disc <= 0.0:
            return None
        s = math.sqrt(disc)
        return ((-qb - s) / (2.0 * qa), (-qb + s) / (2.0 * qa))

    hi = below(r_hi)
    if hi is None:
        return []
    lo = below(r_lo)
    if lo is None:
        pieces = [hi]
    else:
        pieces = [(hi[0], min(hi[1], lo[0])), (max(hi[0], lo[1]), hi[1])]
    out = []
    for t0, t1 in pieces:
        t0 = max(t0, 0.0)
        t1 = min(t1, 1.0)
        if t1 > t0:
            out.append((t0, t1))
    return out


def _angle_interval(a: Point2, d: Point2, t0: float, t1: float) -> tuple[float, float]:
    """Angular interval swept while t runs [t0, t1].  Along a straight
    segment the angle seen from the origin is monotone, and its total
    variation is below pi, so the endpoint angles bound the sweep."""
    p0 = Point2(a.x + t0 * d.x, a.y + t0 * d.y)
    p1 = Point2(a.x + t1 * d.x, a.y + t1 * d.y)
    th0 = math.atan2(p0.y, p0.x)
    th1 = math.atan2(p1.y, p1.x)
    dth = th1 - th0
    while dth > math.pi:
        dth -= 2.0 * math.pi
    while dth < -math.pi:
        dth += 2.0 * math.pi
    return (th0, th0 + dth) if dth >= 0 else (th0 + dth, th0)


def _union_measure(intervals: list[tuple[float, float]]) -> float:
    """Measure of a union of angular intervals, on the circle (mod 2*pi)."""
    pieces = []
    for lo, hi in intervals:
        if hi - lo >= 2.0 * math.pi:
            return 2.0 * math.pi
        start = lo % (2.0 * math.pi)
        end = start + (hi - lo)
        if end <= 2.0 * math.pi:
            pieces.append((start, end))
        else:
            pieces.append((start, 2.0 * math.pi))
            pieces.append((0.0, end - 2.0 * math.pi))
    pieces.sort()
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in pieces:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return min(total, 2.0 * math.pi)


def verify_pigeonhole(path: Polyline, levels: int) -> tuple[int, float]:
    """Find a layer j0 whose attained angular set has measure at least
    2^-j0 * pi/6.

    Any leg-to-leg path confined to radii [4*2^-J, 4] sweeps every angle in
    [0, pi/6] somewhere, and the layers tile the radial range, so the
    angular measures attained per layer sum to at least pi/6; since the
    targets sum to less than pi/6, some layer must meet its target.  A miss
    therefore indicates a bug, not a property of the input.  The path must
    join LEG_A and LEG_D, in either direction, within 1e-3.
    """
    if levels < 1:
        raise SpecInvalid(f"levels must be >= 1, got {levels}")
    r_floor = 4.0 * 2.0**-levels
    verts = path.vertices
    if len(verts) < 2:
        raise PathNotConfined("path must have at least two vertices")
    ok_fwd = verts[0].distance_to(LEG_A) <= _END_TOL and verts[-1].distance_to(LEG_D) <= _END_TOL
    ok_rev = verts[0].distance_to(LEG_D) <= _END_TOL and verts[-1].distance_to(LEG_A) <= _END_TOL
    if not (ok_fwd or ok_rev):
        raise PathNotConfined("path does not join the two wedge legs")
    for v in verts:
        if not r_floor - 1e-9 <= v.norm() <= 4.0 + 1e-9:
            raise PathNotConfined(
                f"vertex at radius {v.norm()} leaves [{r_floor}, 4]"
            )
    V = point_array(verts)
    if (_batch.point_seg_dists(np.zeros((1, 2)), V[:-1], V[1:]) < r_floor - 1e-9).any():
        raise PathNotConfined("a path segment dips below the inner radius")

    per_layer: list[list[tuple[float, float]]] = [[] for _ in range(levels)]
    for s, t in zip(verts, verts[1:]):
        d = t - s
        for j in range(1, levels + 1):
            r_lo, r_hi = layer_bounds(j)
            for t0, t1 in _radial_clip(s, d, r_lo, r_hi):
                per_layer[j - 1].append(_angle_interval(s, d, t0, t1))
    for j in range(1, levels + 1):
        coverage = _union_measure(per_layer[j - 1])
        if coverage >= 2.0**-j * WEDGE_ANGLE:
            return j, coverage
    raise GeometryError(
        "no layer met its angular target on a confined path; "
        "this contradicts the covering argument and means the measure "
        "computation or the confinement check is broken"
    )


# ---------------------------------------------------------------------------
# spiral labyrinth


@dataclass(frozen=True)
class SpiralSpec:
    """Inward spiral r(psi) = start_radius - pitch*psi over `coils` turns."""

    start_radius: float
    coils: int
    pitch: float
    samples_per_coil: int = 64

    def __post_init__(self) -> None:
        if self.start_radius <= 0:
            raise SpecInvalid("start_radius must be positive")
        if self.coils < 1:
            raise SpecInvalid("coils must be >= 1")
        if self.pitch <= 0:
            raise SpecInvalid("pitch must be positive")
        if self.samples_per_coil < 8:
            raise SpecInvalid("need at least 8 samples per coil")
        if 2.0 * math.pi * self.coils * self.pitch >= self.start_radius:
            raise SpecInvalid(
                "pitch too large: the spiral would reach the origin"
            )


@dataclass(frozen=True)
class SpiralLabyrinth:
    scene: ObstacleScene
    entrance: Point2
    exit: Point2


def spiral_labyrinth(spec: SpiralSpec) -> SpiralLabyrinth:
    """Discretized spiral wall with gate midpoints.

    The wall winds inward from (start_radius, 0); full turns return to the
    positive x-axis, so the entrance gate (between the outer end and the
    first full turn) and the exit gate (between the last two wall passes)
    are radial slots on that axis.  Terminals sit at the gate midpoints.
    """
    n = spec.coils * spec.samples_per_coil
    pts = []
    for i in range(n + 1):
        psi = 2.0 * math.pi * spec.coils * i / n
        r = spec.start_radius - spec.pitch * psi
        pts.append(Point2(r * math.cos(psi), r * math.sin(psi)))
    segs = tuple(Segment2(p, q) for p, q in zip(pts, pts[1:]))
    scene = ObstacleScene(segs)
    entrance = Point2(spec.start_radius - math.pi * spec.pitch, 0.0)
    exit_pt = Point2(
        spec.start_radius - (2.0 * spec.coils - 1.0) * math.pi * spec.pitch, 0.0
    )
    return SpiralLabyrinth(scene, entrance, exit_pt)


def _labyrinth_length(spec: SpiralSpec) -> float:
    lab = spiral_labyrinth(spec)
    return PreparedScene(lab.scene).shortest_path(lab.entrance, lab.exit).length


def labyrinth_min_coils(
    start_radius: float,
    pitch: float,
    m_max: int = 16,
    samples_per_coil: int = 64,
    threshold: float = 10.0,
) -> tuple[int, tuple[tuple[int, float], ...]]:
    """Smallest coil count whose entrance-to-exit distance reaches the
    threshold; returns it with the (coils, length) search trace.

    Each length is computed at two discretization densities and the smaller
    value is kept, so the certified lengths are conservative; the two must
    agree within 0.1% or the discretization is deemed unstable.
    """
    trace: list[tuple[int, float]] = []
    for m in range(1, m_max + 1):
        coarse = _labyrinth_length(
            SpiralSpec(start_radius, m, pitch, samples_per_coil)
        )
        fine = _labyrinth_length(
            SpiralSpec(start_radius, m, pitch, 2 * samples_per_coil)
        )
        if max(coarse, fine) > 0 and abs(coarse - fine) > 1e-3 * max(coarse, fine):
            raise GeometryError(
                f"labyrinth length unstable under refinement at coils={m}: "
                f"{coarse} vs {fine}"
            )
        length = min(coarse, fine)
        trace.append((m, length))
        if length >= threshold:
            return m, tuple(trace)
    raise NotReachedWithinBound(
        f"no coil count up to {m_max} reaches length {threshold}"
    )


# ---------------------------------------------------------------------------
# 3-D strips, meridian trapezia, detour ratio


@dataclass(frozen=True)
class Trapezium:
    """Meridian-plane footprint of one strip: the quadrilateral between the
    rays through the strip's first and last rulings and the two dilation
    extremes (factors 1 and 11)."""

    level: int
    index: int
    vertices: tuple[Point2, Point2, Point2, Point2]

    def sides(self) -> tuple[Segment2, Segment2, Segment2, Segment2]:
        v = self.vertices
        return (
            Segment2(v[0], v[1]),
            Segment2(v[1], v[2]),
            Segment2(v[2], v[3]),
            Segment2(v[3], v[0]),
        )


@dataclass(frozen=True)
class StripsReport:
    strips: tuple[Strip3, ...]
    trapezia: tuple[Trapezium, ...]
    min_distance: float
    closest_pair: tuple[tuple[int, int], tuple[int, int]] | None
    ray_residual: float
    fallback_pairs: int

    @property
    def disjoint(self) -> bool:
        return self.min_distance > 0.0


def meridian_projection(p: Point3) -> Point2:
    """Rotate `p` about the x axis into the meridian half-plane: the image
    is (axial coordinate, distance from the axis).  Exactly norm-preserving
    and 1-Lipschitz, which is what makes trapezium distances certify strip
    distances."""
    s = p.x
    norm = p.norm()
    r = math.sqrt(max(norm * norm - s * s, 0.0))
    if math.atan2(r, s) > WEDGE_ANGLE + 1e-9:
        raise OutsideCone(
            f"point ({p.x}, {p.y}, {p.z}) lies outside the wedge cone"
        )
    return Point2(s, r)


def _strip_for(j: int, k: int, spec: SpiralSpec) -> tuple[Strip3, Trapezium]:
    phi = k * (2.0 * math.pi) ** (-j) * WEDGE_ANGLE
    c = 2.0**-j * math.cos(phi)
    rho0 = 2.0**-j * math.sin(phi)
    if abs(rho0 - spec.start_radius) > 1e-12 * max(rho0, 1.0):
        raise SpecInvalid(
            f"spiral start radius {spec.start_radius} does not match the "
            f"cone point of level {j}, index {k} (expected {rho0})"
        )
    n = spec.coils * spec.samples_per_coil
    rulings = []
    for i in range(n + 1):
        psi = 2.0 * math.pi * spec.coils * i / n
        r = rho0 - spec.pitch * psi
        base = Point3(c, r * math.cos(psi), r * math.sin(psi))
        rulings.append((base, base.scaled(11.0)))
    rho_end = rho0 - 2.0 * math.pi * spec.coils * spec.pitch
    trap = Trapezium(
        j,
        k,
        (
            Point2(c, rho0),
            Point2(11.0 * c, 11.0 * rho0),
            Point2(11.0 * c, 11.0 * rho_end),
            Point2(c, rho_end),
        ),
    )
    return Strip3(level=j, index=k, rulings=tuple(rulings)), trap


def _auto_pitch(j: int, k: int, gap_below: float, coils: int) -> float:
    """Pitch that keeps the strip's angular footprint inside a quarter of
    the gap to the next ray below, so neighbouring strips stay clear of each
    other by at least three quarters of the gap."""
    phi = k * (2.0 * math.pi) ** (-j) * WEDGE_ANGLE
    c = 2.0**-j * math.cos(phi)
    rho0 = 2.0**-j * math.sin(phi)
    rho_floor = c * math.tan(phi - gap_below / 4.0)
    return (rho0 - rho_floor) / (2.0 * math.pi * coils)


def _seg_dist_3d(a0: Point3, a1: Point3, b0: Point3, b1: Point3) -> float:
    """Minimum distance between two 3-D segments (clamped closest-point)."""
    u = np.array(a1.as_tuple()) - np.array(a0.as_tuple())
    v = np.array(b1.as_tuple()) - np.array(b0.as_tuple())
    w0 = np.array(a0.as_tuple()) - np.array(b0.as_tuple())
    a = u @ u
    b = u @ v
    c = v @ v
    d = u @ w0
    e = v @ w0
    den = a * c - b * b
    if den > 1e-15:
        s = np.clip((b * e - c * d) / den, 0.0, 1.0)
    else:
        s = 0.0
    t = (b * s + e) / c if c > 1e-15 else 0.0
    t = np.clip(t, 0.0, 1.0)
    s = np.clip((b * t - d) / a, 0.0, 1.0) if a > 1e-15 else 0.0
    diff = w0 + s * u - t * v
    return float(np.sqrt(diff @ diff))


def build_strips(
    spec: SegmentFamilySpec,
    coils: int = 2,
    samples_per_coil: int = 24,
    spirals: Mapping[tuple[int, int], SpiralSpec] | None = None,
) -> StripsReport:
    """Ruled strips over every family ray, with a disjointness certificate.

    Each ray (level j, index k) becomes a strip of segments from the spiral
    point to its elevenfold dilation.  Pitches are chosen automatically so
    each strip's angular footprint stays within a quarter of the angular gap
    to the ray below it; overrides can be supplied per (level, index).

    Disjointness is certified in the meridian plane: the projection is
    1-Lipschitz and maps each strip into its trapezium, so a positive
    distance between two trapezia is a lower bound for the distance between
    the strips.  Only trapezium pairs at distance zero fall back to exact
    3-D segment-pair distances.
    """
    if spec.levels > 3:
        raise SpecInvalid("strip reports are sized for levels <= 3")
    keys: list[tuple[int, int]] = []
    angles: dict[tuple[int, int], float] = {}
    for j in range(1, spec.levels + 1):
        step = (2.0 * math.pi) ** (-j) * WEDGE_ANGLE
        for k in range(1, level_count(j) + 1):
            keys.append((j, k))
            angles[(j, k)] = k * step
    order = sorted(keys, key=lambda jk: angles[jk])
    strips: list[Strip3] = []
    traps: list[Trapezium] = []
    ray_residual = 0.0
    for idx, (j, k) in enumerate(order):
        below = angles[order[idx - 1]] if idx > 0 else 0.0
        gap = angles[(j, k)] - below
        if gap <= 0:
            raise SpecInvalid(f"coincident ray angles at {(j, k)}")
        if spirals is not None and (j, k) in spirals:
            sp = spirals[(j, k)]
        else:
            sp = SpiralSpec(
                2.0**-j * math.sin(angles[(j, k)]),
                coils,
                _auto_pitch(j, k, gap, coils),
                samples_per_coil,
            )
        strip, trap = _strip_for(j, k, sp)
        strips.append(strip)
        traps.append(trap)
        # residual of the outer ruling endpoint against the ray through the
        # inner one: |base x top| / |top|
        R = np.array([(base.as_tuple(), top.as_tuple()) for base, top in strip.rulings])
        c = np.cross(R[:, 0], R[:, 1])
        res = np.sqrt((c * c).sum(axis=1)) / np.maximum(np.sqrt((R[:, 1] ** 2).sum(axis=1)), 1e-300)
        ray_residual = max(ray_residual, float(res.max()))

    # all 16 side pairings for every trapezium pair, in one shot; level 1
    # alone has six rays, so there are always pairs
    ii, jj = np.triu_indices(len(strips), k=1)
    A = np.array([[v.as_tuple() for v in t.vertices] for t in traps])
    B = np.roll(A, -1, axis=1)
    pairs = np.broadcast_arrays(A[ii, :, None], B[ii, :, None], A[jj, None, :], B[jj, None, :])
    pair_d = _batch.seg_pair_dists(*pairs).reshape(len(ii), 16).min(axis=1)
    # trapezia that touch or overlap are certified in 3-D
    touching = np.nonzero(pair_d <= 0.0)[0]
    for p in touching:
        pair_d[p] = min(
            _seg_dist_3d(r1[0], r1[1], r2[0], r2[1])
            for r1 in strips[ii[p]].rulings
            for r2 in strips[jj[p]].rulings
        )
    p = int(np.argmin(pair_d))
    closest = (strips[ii[p]].level, strips[ii[p]].index), (strips[jj[p]].level, strips[jj[p]].index)
    return StripsReport(
        tuple(strips), tuple(traps), float(pair_d[p]), closest, ray_residual, len(touching)
    )


def max_corner_detour_ratio(trap: Trapezium, samples: int = 1024) -> float:
    """Worst ratio (|av| + |vb|) / |ab| over triangles with one vertex at a
    trapezium corner and the others on its two incident sides.

    The ratio is scale-invariant along a == b distances and peaks at
    1/sin(theta/2) for corner angle theta; the trapezia keep every corner
    angle at least pi/3, so the ratio stays at or below 2."""
    grid = max(2, math.ceil(math.sqrt(samples / 4.0)))
    frac = np.arange(1, grid + 1) / grid
    verts = trap.vertices
    worst = 0.0
    for ci in range(4):
        v = verts[ci]
        prev_v = verts[(ci - 1) % 4]
        next_v = verts[(ci + 1) % 4]
        len_p = v.distance_to(prev_v)
        len_n = v.distance_to(next_v)
        # the (s, t) arc lengths along the two sides: a fraction grid, then
        # the equal-length diagonal s == t, where the ratio peaks and which
        # the grid misses when the two sides differ a lot in length
        short = frac * min(len_p, len_n)
        s = np.concatenate([np.repeat(frac, grid) * len_p, short])
        t = np.concatenate([np.tile(frac, grid) * len_n, short])
        ax, ay = v.x + s / len_p * (prev_v.x - v.x), v.y + s / len_p * (prev_v.y - v.y)
        bx, by = v.x + t / len_n * (next_v.x - v.x), v.y + t / len_n * (next_v.y - v.y)
        keep = np.hypot(ax - bx, ay - by) > EPS_GEOM
        ax, ay, bx, by = ax[keep], ay[keep], bx[keep], by[keep]
        legs = np.hypot(ax - v.x, ay - v.y) + np.hypot(v.x - bx, v.y - by)
        ratio = legs / np.hypot(ax - bx, ay - by)
        # np.hypot and math.hypot may round differently in the last bit, so
        # the pairs within rounding of the largest ratio are evaluated again
        # as scalars
        for k in np.nonzero(ratio >= ratio.max() * (1.0 - 1e-12))[0]:
            a, b = Point2(ax[k], ay[k]), Point2(bx[k], by[k])
            worst = max(worst, (a.distance_to(v) + v.distance_to(b)) / a.distance_to(b))
    return worst


@dataclass(frozen=True)
class TriangleDefectReport:
    levels: int
    confined_length: float
    detour_ratio_bound: float
    projected_lower_bound: float
    legs_total: float
    escape_length: float
    defect_confirmed: bool


def triangle_defect_report(levels: int = 2) -> TriangleDefectReport:
    """Assemble the length chain that breaks the triangle inequality in the
    limit construction.

    Any leg-to-leg connection that stays near the wedge plane projects into
    the meridian plane with length shrunk by at most the detour ratio 5/2,
    so its true length is at least (2/5) of the confined 2-D bound; paths
    that escape the protecting cone pay at least `escape_length` (> 4).
    Both exceed the total length 2 of the two straight legs, which the
    construction keeps available through the apex.
    """
    if levels not in (2, 3):
        raise SpecInvalid("defect report is defined for levels 2 or 3")
    _, confined = verify_length_bound(SegmentFamilySpec(levels))
    projected = 0.4 * confined
    legs_total = 2.0  # two unit legs
    return TriangleDefectReport(
        levels=levels,
        confined_length=confined,
        detour_ratio_bound=2.5,
        projected_lower_bound=projected,
        legs_total=legs_total,
        escape_length=ESCAPE_LENGTH,
        defect_confirmed=projected > legs_total and ESCAPE_LENGTH > 4.0,
    )


# ---------------------------------------------------------------------------
# randomized slit domains (shared by the property suites and the cli)


def random_slit_domain(
    seed: int,
    slits: int = 2,
    clearance: float = 0.05,
) -> PlanarDomain:
    """Star-shaped polygon with interior slit obstacles.

    Everything stays `clearance` away from everything else, so small inward
    offsets (the metric's largest default is 1e-2) always land in the open
    interior."""
    rng = random.Random(seed)
    n = rng.randint(6, 11)
    base = rng.uniform(0.0, 2.0 * math.pi)
    outer = []
    for i in range(n):
        th = base + 2.0 * math.pi * (i + rng.uniform(-0.2, 0.2)) / n
        r = rng.uniform(1.2, 2.0)
        outer.append(Point2(r * math.cos(th), r * math.sin(th)))
    domain = PlanarDomain(tuple(outer), (), ())
    feats = polygon_edges(outer)
    placed: list[Segment2] = []
    attempts = 0
    while len(placed) < slits and attempts < 200:
        attempts += 1
        cx = rng.uniform(-1.0, 1.0)
        cy = rng.uniform(-1.0, 1.0)
        ang = rng.uniform(0.0, math.pi)
        half = rng.uniform(0.1, 0.35)
        a = Point2(cx - half * math.cos(ang), cy - half * math.sin(ang))
        b = Point2(cx + half * math.cos(ang), cy + half * math.sin(ang))
        cand = Segment2(a, b)
        if contains(domain, a) is not Region.INTERIOR:
            continue
        if _clear_of(cand, feats, clearance) and _clear_of(cand, placed, clearance):
            try:
                PlanarDomain(tuple(outer), (), tuple(placed) + (cand,))
            except GeometryError:
                continue
            placed.append(cand)
    return PlanarDomain(tuple(outer), (), tuple(placed))


def _clear_of(cand: Segment2, others: Sequence[Segment2], clearance: float) -> bool:
    A, B = point_array([o.a for o in others]), point_array([o.b for o in others])
    a, b = (np.broadcast_to(v.as_tuple(), A.shape) for v in (cand.a, cand.b))
    return bool((_batch.seg_pair_dists(a, b, A, B) >= clearance).all())
