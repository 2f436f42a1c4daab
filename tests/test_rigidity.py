"""Boundary distance profiles: alignment, congruence, and the convexity
transfer protocol."""
import math
import random

import numpy as np
import pytest

import _reference as reference
from relmetric.constructions import CombSpec, comb_domain
from relmetric.errors import (
    MultipleBoundaryComponents,
    NotAligned,
    ProfileUnconverged,
    SizeMismatch,
    SpecInvalid,
)
from relmetric.geom import PlanarDomain, Point2, Region, Segment2, contains
from relmetric.rigidity import (
    boundary_arc_points,
    boundary_profile,
    compare_profiles,
    euclidean_congruence,
    transfer_from_profiles,
)
from relmetric.visibility import PreparedScene

P = Point2


def rotated(verts, angle, offset=P(0.0, 0.0)):
    c, s = math.cos(angle), math.sin(angle)
    return [P(c * v.x - s * v.y + offset.x, s * v.x + c * v.y + offset.y) for v in verts]


def reflected_copy(verts):
    """Mirror about the y-axis, keeping vertex 0 first and the walk CCW."""
    ref = [P(-v.x, v.y) for v in verts]
    return [ref[0]] + list(reversed(ref[1:]))


PENTA = [P(0, 0), P(2, 0), P(2.6, 1.2), P(1.1, 2.3), P(-0.4, 1.0)]


def regular_ngon(n, r=1.0, phase=0.0):
    return [
        P(r * math.cos(phase + 2 * math.pi * k / n), r * math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    ]


SQUARE = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
L_SHAPE = [P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2)]


def star(points, r_in=0.45):
    """Star with `points` tips on the unit circle and notches at radius r_in."""
    n = 2 * points
    return [
        P((1.0 if k % 2 == 0 else r_in) * math.cos(2 * math.pi * k / n),
          (1.0 if k % 2 == 0 else r_in) * math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]


def seeded_convex_polygon(n=40, seed=1):
    """Strictly convex CCW n-gon: jittered angles on a rotated ellipse."""
    rng = random.Random(seed)
    base = rng.uniform(0.0, 2.0 * math.pi)
    th = [base + 2.0 * math.pi * (i + rng.uniform(-0.35, 0.35)) / n for i in range(n)]
    a = rng.uniform(1.0, 2.0)
    b = a * rng.uniform(0.6, 1.0)
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return [
        P(c * a * math.cos(t) - s * b * math.sin(t), s * a * math.cos(t) + c * b * math.sin(t))
        for t in th
    ]


# -- sampling helpers -----------------------------------------------------------


def test_arc_points_on_boundary():
    dom = PlanarDomain(regular_ngon(6))
    pts = boundary_arc_points(dom, 9)
    assert len(pts) == 9
    for p in pts:
        assert contains(dom, p) is Region.BOUNDARY


# -- profiles ---------------------------------------------------------------------


def test_square_vertex_profile():
    prof = boundary_profile(PlanarDomain(SQUARE), 4)
    assert prof.size == 4
    assert prof.samples[0] == P(0, 0)
    d = math.sqrt(2)
    expect = np.array(
        [[0, 1, d, 1], [1, 0, 1, d], [d, 1, 0, 1], [1, d, 1, 0]]
    )
    assert np.allclose(prof.matrix, expect, atol=1e-9)


def test_profile_gaps_equalize():
    dom = PlanarDomain(PENTA)
    prof = boundary_profile(dom, 10)
    gaps = [
        prof.matrix[i, (i + 1) % 10] for i in range(10)
    ]
    mean = sum(gaps) / len(gaps)
    spread = max(abs(g - mean) for g in gaps) / mean
    assert spread <= 0.01 + 1e-12


def test_profile_needs_three_samples():
    dom = PlanarDomain(PENTA)
    with pytest.raises(SpecInvalid):
        boundary_profile(dom, 2)


def test_profile_rejects_extra_components():
    square = [P(0, 0), P(3, 0), P(3, 3), P(0, 3)]
    hole = tuple(reversed([P(1, 1), P(2, 1), P(2, 2), P(1, 2)]))
    with pytest.raises(MultipleBoundaryComponents):
        boundary_profile(PlanarDomain(square, holes=(hole,)), 6)
    slit = Segment2(P(1, 1), P(2, 2))
    with pytest.raises(MultipleBoundaryComponents):
        boundary_profile(PlanarDomain(square, slits=(slit,)), 6)


PROFILE_CASES = [
    ("40-gon", seeded_convex_polygon(), 32),
    ("penta", PENTA, 8),
    ("penta", PENTA, 12),
    ("penta", PENTA, 32),
    ("star", star(5), 12),
    ("star", star(5), 32),
    ("L", L_SHAPE, 12),
    ("square", SQUARE, 4),
    ("square", SQUARE, 8),
]


@pytest.mark.parametrize(
    "verts, m", [c[1:] for c in PROFILE_CASES], ids=[f"{c[0]}-{c[2]}" for c in PROFILE_CASES]
)
def test_profile_equals_per_pair_reference(verts, m):
    """One table per round gives the samples and matrix of the per-pair
    gap rounds and bisection sampling, bit for bit."""
    dom = PlanarDomain(verts)
    got, want = boundary_profile(dom, m), reference.boundary_profile(dom, m)
    assert got.samples == want.samples
    assert np.array_equal(got.matrix, want.matrix)
    assert boundary_arc_points(dom, m) == reference.boundary_arc_points(dom, m)


def test_unconverged_message_equals_reference():
    comb = comb_domain(CombSpec(depth=4))
    with pytest.raises(ProfileUnconverged) as got:
        boundary_profile(comb, 16)
    with pytest.raises(ProfileUnconverged) as want:
        reference.boundary_profile(comb, 16)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("verts, m, rounds", [(SQUARE, 8, 1), (PENTA, 12, 5)])
def test_profile_searches_one_table_per_round(monkeypatch, verts, m, rounds):
    calls = {"shortest_path": 0, "shortest_paths": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(PreparedScene, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(PreparedScene, name, counted)
    boundary_profile(PlanarDomain(verts), m)
    assert calls == {"shortest_path": 0, "shortest_paths": rounds}


# -- alignment and congruence --------------------------------------------------------


def test_rotated_copy_aligns_and_is_congruent():
    m = 8
    first = boundary_profile(PlanarDomain(PENTA), m)
    moved = PlanarDomain(rotated(PENTA, 0.7, offset=P(3.0, -1.0)))
    second = boundary_profile(moved, m)
    align = compare_profiles(first, second)
    assert align.residual <= 1e-9
    assert not align.reflected
    cong = euclidean_congruence(first, second, align)
    assert cong.congruent
    assert cong.max_gap <= 1e-9
    perm = align.permutation(m)
    assert sorted(perm) == list(range(m))


def test_reflected_copy_detected():
    m = 8
    first = boundary_profile(PlanarDomain(PENTA), m)
    second = boundary_profile(PlanarDomain(reflected_copy(PENTA)), m)
    align = compare_profiles(first, second)
    assert align.reflected
    assert align.residual <= 1e-9
    cong = euclidean_congruence(first, second, align)
    assert cong.congruent and cong.max_gap <= 1e-9


def test_distinct_shapes_do_not_align():
    sq = boundary_profile(PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]), 8)
    rect = boundary_profile(PlanarDomain([P(0, 0), P(2, 0), P(2, 1), P(0, 1)]), 8)
    align = compare_profiles(sq, rect)
    assert align.residual > 0.1
    with pytest.raises(NotAligned):
        euclidean_congruence(sq, rect, align)


def test_small_perturbation_is_visible():
    base = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
    bent = [P(0, 0), P(1, 0), P(1 + 1e-3, 1), P(0, 1)]
    m = 12
    align = compare_profiles(
        boundary_profile(PlanarDomain(base), m),
        boundary_profile(PlanarDomain(bent), m),
    )
    assert align.residual > 1e-4


def test_size_mismatch_rejected():
    dom = PlanarDomain(PENTA)
    with pytest.raises(SizeMismatch):
        compare_profiles(boundary_profile(dom, 6), boundary_profile(dom, 8))


# -- convexity transfer ------------------------------------------------------------


def test_transfer_on_matching_round_bodies():
    first = PlanarDomain(regular_ngon(24))
    second = PlanarDomain(rotated(regular_ngon(24), 0.3, offset=P(1.5, 0.5)))
    rep = transfer_from_profiles(first, second, boundary_profile(first, 8), boundary_profile(second, 8), 0.05)
    assert rep.applicable
    assert rep.first_strictly_convex
    assert rep.profile_residual <= 1e-9
    assert rep.second_strictly_convex
    assert rep.agrees
    assert not rep.falsification_candidate
    assert rep.resolution == (8, 0.05)


def test_transfer_not_applicable_without_profile_match():
    first = PlanarDomain(regular_ngon(24))
    second = PlanarDomain(regular_ngon(24, r=1.4))
    rep = transfer_from_profiles(first, second, boundary_profile(first, 8), boundary_profile(second, 8), 0.05)
    assert not rep.applicable
    assert rep.note
