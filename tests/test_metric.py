"""Offset-limit distance: extrapolation exactness, matrix checks, geodesic
restriction identity, and the convexity probes."""
import math

import numpy as np
import pytest

from relmetric.errors import MissingHint, SceneInvalid, SpecInvalid
from relmetric.geom import PlanarDomain, Point2, Segment2
from relmetric.metric import (
    EXTRAPOLATIONS,
    MetricConfig,
    check_metric_axioms,
    check_property_circ,
    check_rho_equals_ambient,
    check_strict_convexity,
    closure_distance,
    distance_matrix,
    extract_geodesic,
    matrix_values,
    rho,
)
from relmetric.rigidity import boundary_arc_points
from relmetric.visibility import PreparedScene

P = Point2
UNIT = PlanarDomain([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])


@pytest.fixture(scope="module")
def slit_dom():
    return PlanarDomain(
        [P(0, 0), P(2, 0), P(2, 2), P(0, 2)],
        slits=(Segment2(P(1, 0.5), P(1, 1.5)),),
    )


def regular_ngon(n, r=1.0):
    return PlanarDomain(
        [
            P(r * math.cos(2 * math.pi * k / n), r * math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
    )


# -- config -------------------------------------------------------------------


def test_config_defaults():
    cfg = MetricConfig()
    assert cfg.offsets == (1e-2, 1e-3, 1e-4)
    assert cfg.extrapolation == "richardson"
    assert cfg.extrapolation in EXTRAPOLATIONS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"offsets": ()},
        {"offsets": (1e-2, -1e-3)},
        {"offsets": (1e-3, 1e-2)},
        {"offsets": (1e-2, 1e-2)},
        {"extrapolation": "quadratic"},
        {"tol_metric": 0.0},
        # NaN fails every ordered comparison, so "<= 0" never caught it
        {"offsets": (math.nan,)},
        {"offsets": (1e-2, math.nan)},
        {"offsets": (math.inf, 1e-2)},
        {"tol_metric": math.nan},
        {"tol_metric": math.inf},
    ],
)
def test_config_rejects(kwargs):
    with pytest.raises(SpecInvalid):
        MetricConfig(**kwargs)


# -- rho ----------------------------------------------------------------------


def test_corner_pair_extrapolates_exactly():
    est = rho(UNIT, P(0, 0), P(1, 1))
    assert est.value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert est.converged
    assert len(est.per_offset) == 3
    # offset paths are strictly short of the limit and improve monotonically
    vals = [v for _, v in est.per_offset]
    assert vals[0] < vals[1] < vals[2] < est.value + 1e-12


def test_last_value_keeps_offset_error():
    cfg = MetricConfig(extrapolation="last-value")
    est = rho(UNIT, P(0, 0), P(1, 1), cfg=cfg)
    gap = math.sqrt(2) - est.value
    assert 1e-5 < gap < 3e-4


def test_same_point_is_zero():
    assert rho(UNIT, P(0.3, 0.4), P(0.3, 0.4)).value == 0.0
    assert rho(UNIT, P(0, 0), P(0, 0)).value == 0.0


def test_interior_pair_is_ambient_exact():
    a, b = P(0.2, 0.3), P(0.9, 0.8)
    assert rho(UNIT, a, b).value == pytest.approx(a.distance_to(b), abs=1e-15)


def test_slit_sides_are_distinct_points(slit_dom):
    mid = P(1.0, 1.0)
    tgt = P(1.5, 1.0)
    right = rho(slit_dom, mid, tgt, hint_x="right")
    left = rho(slit_dom, mid, tgt, hint_x="left")
    assert right.value == pytest.approx(0.5, abs=1e-9)
    # left face must round the tip: 0.5 up then the hypotenuse down
    assert left.value == pytest.approx(0.5 + math.hypot(0.5, 0.5), abs=1e-6)
    exact = closure_distance(slit_dom, mid, tgt, hint_x="left").length
    assert abs(left.value - exact) <= 1e-6


def test_slit_point_requires_hint(slit_dom):
    with pytest.raises(MissingHint):
        rho(slit_dom, P(1.0, 1.0), P(1.5, 1.0))


def test_an_unknown_hint_on_an_interior_point_raises_in_both_evaluators():
    # both evaluators read the hint the same way wherever the point lies
    x, y = P(0.5, 0.5), P(0.2, 0.2)
    with pytest.raises(MissingHint, match=r"^unknown hint 'up'"):
        closure_distance(UNIT, x, y, hint_x="up")
    with pytest.raises(MissingHint, match=r"^unknown hint 'up'"):
        distance_matrix(UNIT, [x, y], hints=["up", None])
    with pytest.raises(MissingHint, match=r"^unknown hint 'up'"):
        rho(UNIT, y, x, hint_y="up")
    # an exterior point before it raises first
    with pytest.raises(SceneInvalid):
        distance_matrix(UNIT, [P(2, 2), x], hints=[None, "up"])


def test_unhinted_junction_takes_the_nearer_face():
    # x is where the slit meets the left wall: it borders the faces above
    # and below the slit, and the distance is the nearer of the two
    dom = PlanarDomain(UNIT.outer, slits=(Segment2(P(0, 0.5), P(0.6, 0.5)),))
    x = P(0, 0.5)
    cfg = MetricConfig()
    for y in (P(0.3, 0.6), P(0.3, 0.4)):
        exact = closure_distance(dom, x, y).length
        assert exact == pytest.approx(math.hypot(0.3, 0.1), abs=1e-12)
        assert abs(rho(dom, x, y).value - exact) <= cfg.tol_metric
        assert abs(rho(dom, y, x).value - exact) <= cfg.tol_metric
        M = matrix_values(distance_matrix(dom, [x, y]))
        assert abs(M[0, 1] - exact) <= cfg.tol_metric


ELL = (P(0, 0), P(2, 0), P(2, 1), P(1, 1), P(1, 2), P(0, 2))


@pytest.mark.parametrize(
    "outer, slits, x, ys",
    [
        (UNIT.outer, [(P(0, 0.5), P(0.6, 0.5))], P(0, 0.5), [P(0.3, 0.6), P(0.3, 0.4)]),
        (
            UNIT.outer,
            [(P(0.2, 0.5), P(0.5, 0.5)), (P(0.5, 0.5), P(0.8, 0.5))],
            P(0.5, 0.5),
            [P(0.3, 0.6), P(0.3, 0.4)],
        ),
        (UNIT.outer, [], P(0, 0.5), [P(0.5, 0.5)]),
        (ELL, [], P(1.5, 1), [P(0.5, 0.5), P(1, 1.5)]),
        (UNIT.outer, [(P(0, 0.5), P(0.5, 0.8))], P(0, 0.5), [P(0.2, 0.8), P(0.2, 0.3), P(0.7, 0.9)]),
    ],
    ids=[
        "slit-wall junction",
        "slit-slit joint",
        "one-sided wall",
        "wall at an inner corner",
        "oblique slit-wall junction",
    ],
)
def test_hint_at_a_junction_selects_its_face(outer, slits, x, ys):
    # the closure evaluation, from either end, takes the hinted face as the
    # offsets do; on a wall with one side there is no face to choose and
    # both ignore the hint
    dom = PlanarDomain(outer, slits=tuple(Segment2(a, b) for a, b in slits))
    for hint in (None, "left", "right"):
        for y in ys:
            value = rho(dom, x, y, hint_x=hint).value
            assert abs(closure_distance(dom, x, y, hint_x=hint).length - value) <= 1e-6
            assert abs(closure_distance(dom, y, x, hint_y=hint).length - value) <= 1e-6


def test_hint_at_an_oblique_junction_takes_the_face_beside_the_slit():
    # the slit leaves the wall at 31 degrees, so its left normal points out
    # of the square; `left` is the face between the slit and the wall above
    dom = PlanarDomain(UNIT.outer, slits=(Segment2(P(0, 0.5), P(0.5, 0.8)),))
    x, y = P(0, 0.5), P(0.2, 0.8)
    for hint, want in ((None, math.sqrt(0.13)), ("left", math.sqrt(0.13)), ("right", 0.88309519)):
        assert rho(dom, x, y, hint_x=hint).value == pytest.approx(want, abs=1e-6)
        assert closure_distance(dom, x, y, hint_x=hint).length == pytest.approx(want, abs=1e-8)


def test_outside_point_rejected():
    with pytest.raises(SceneInvalid):
        rho(UNIT, P(2.0, 2.0), P(0.5, 0.5))


# -- offset schedule ----------------------------------------------------------

JUNCTION = PlanarDomain(UNIT.outer, slits=(Segment2(P(0, 0.5), P(0.6, 0.5)),))


def test_one_offset_is_converged_at_its_length():
    est = rho(JUNCTION, P(1, 0.2), P(0, 0.8), MetricConfig(offsets=(1e-2,)))
    assert est.converged
    assert len(est.per_offset) == 1
    assert est.value == est.per_offset[0][1]


def test_two_offsets_converge_within_tol_metric():
    cfg = MetricConfig(offsets=(1e-2, 1e-3))
    with pytest.warns(RuntimeWarning, match="did not converge"):
        assert not rho(JUNCTION, P(1, 0.2), P(0, 0.8), cfg).converged
    # a straight chord between interior points is the same at every offset
    assert rho(JUNCTION, P(0.3, 0.2), P(0.2, 0.8), cfg).converged


def test_distance_matrix_runs_one_search_table(monkeypatch):
    calls = []
    table = PreparedScene.shortest_paths

    def counted(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(PreparedScene, "shortest_paths", counted)
    points = [P(0, 0.5), P(1, 0.2), P(0, 0.8), P(0.3, 0.4)]
    for cfg in (MetricConfig(), MetricConfig(offsets=(1e-2,))):
        calls.clear()
        distance_matrix(JUNCTION, points, cfg)
        assert len(calls) == 1


# -- matrices -----------------------------------------------------------------


def test_corner_matrix_values():
    pts = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
    vals = matrix_values(distance_matrix(UNIT, pts))
    assert vals.shape == (4, 4)
    assert np.allclose(np.diag(vals), 0.0, atol=1e-15)
    assert np.allclose(vals, vals.T, atol=1e-12)
    d = math.sqrt(2)
    expect = np.array(
        [
            [0, 1, d, 1],
            [1, 0, 1, d],
            [d, 1, 0, 1],
            [1, d, 1, 0],
        ]
    )
    assert np.allclose(vals, expect, atol=1e-9)


def test_axioms_clean_matrix(slit_dom):
    pts = [P(0.3, 0.3), P(1.7, 0.4), P(1.6, 1.8), P(0.2, 1.5)]
    vals = matrix_values(distance_matrix(slit_dom, pts))
    report = check_metric_axioms(vals)
    assert report.ok
    assert not report.symmetry_violations
    assert not report.triangle_violations
    assert not report.identity_violations


def test_axioms_flag_planted_defects():
    vals = matrix_values(distance_matrix(UNIT, [P(0, 0), P(1, 0), P(1, 1)]))
    bad = vals.copy()
    bad[0, 1] = bad[1, 0] = 10.0  # breaks d(0,1) <= d(0,2) + d(2,1)
    rep = check_metric_axioms(bad)
    assert not rep.ok and rep.triangle_violations

    bad = vals.copy()
    bad[0, 1] += 1e-3
    rep = check_metric_axioms(bad)
    assert not rep.ok and rep.symmetry_violations

    bad = vals.copy()
    bad[2, 2] = 0.01
    rep = check_metric_axioms(bad)
    assert not rep.ok and rep.identity_violations


def test_axioms_tolerate_infinities():
    inf = math.inf
    vals = np.array([[0.0, inf], [inf, 0.0]])
    assert check_metric_axioms(vals).ok


def test_axioms_need_a_finite_nonnegative_tol():
    # a violation is an excess over tol: NaN would hide every one
    bad = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
    assert not check_metric_axioms(bad, 1e-6).ok
    assert check_metric_axioms(bad, 3.0).ok and check_metric_axioms([[0.0]], 0).ok
    for tol in (math.nan, math.inf, -1e-6):
        with pytest.raises(SpecInvalid, match=r"^tol must be a finite number >= 0"):
            check_metric_axioms(bad, tol)


def test_axioms_need_a_square_matrix():
    for bad in ([], np.zeros(3), np.zeros((2, 3)), [0.0, 1.0], [[0.0], [1.0, 0.0]]):
        with pytest.raises(SpecInvalid):
            check_metric_axioms(bad)


def test_axioms_reject_a_non_numeric_array_as_a_list():
    # the array and the list of the same strings fail with one typed error
    for bad in (np.array([["a", "b"], ["c", "d"]]), [["a", "b"], ["c", "d"]]):
        with pytest.raises(SpecInvalid, match=r"^matrix must be a list of equal-length rows of numbers: "):
            check_metric_axioms(bad)


# -- geodesics ----------------------------------------------------------------


def test_geodesic_convex_chord():
    chk = extract_geodesic(UNIT, P(0.1, 0.1), P(0.9, 0.8))
    assert chk.max_deviation <= 1e-9
    assert chk.one_sided_max <= 1e-9
    assert chk.length == pytest.approx(P(0.1, 0.1).distance_to(P(0.9, 0.8)), abs=1e-12)


def test_geodesic_around_slit(slit_dom):
    chk = extract_geodesic(slit_dom, P(0.5, 1.0), P(1.5, 1.0))
    # the bent path is still a geodesic of the relative metric
    assert chk.max_deviation <= 1e-6
    assert chk.one_sided_max <= 1e-9
    assert len(chk.path.vertices) >= 3


def test_geodesic_starts_on_the_nearest_face():
    # x is the slit's foot on the west wall, with a face above and below the
    # slit; the path from the face above goes round the slit tip
    dom = PlanarDomain(UNIT.outer, slits=(Segment2(P(0, 0.5), P(0.5, 0.5)),))
    x, y = P(0, 0.5), P(0.5, 0.1)
    chk = extract_geodesic(dom, x, y)
    assert chk.length == rho(dom, x, y, MetricConfig(offsets=(1e-4,))).value
    assert chk.length < 0.65


def test_geodesic_raises_the_error_of_x_before_that_of_y(slit_dom):
    outside, on_slit = P(3.0, 3.0), P(1.0, 1.0)
    with pytest.raises(SceneInvalid):
        extract_geodesic(slit_dom, outside, on_slit)
    with pytest.raises(MissingHint):
        extract_geodesic(slit_dom, on_slit, outside)


# -- convexity probes ----------------------------------------------------------


def test_fine_polygon_strictly_convex():
    dom = regular_ngon(24)
    samples = boundary_arc_points(dom, 8)
    rep = check_strict_convexity(dom, samples, eta=0.05)
    assert rep.strictly_convex
    assert rep.witnesses == ()
    assert rep.resolution == (8, 0.05)


def test_slit_domain_fails_circ(slit_dom):
    samples = boundary_arc_points(slit_dom, 8)
    rep = check_property_circ(slit_dom, samples, eta=0.05)
    assert not rep.strictly_convex
    assert rep.witnesses
    # every witness reports a touch point and its clearance
    i, j, where, clearance = rep.witnesses[0]
    assert clearance <= 1e-9


def test_circ_rejects_non_boundary_samples():
    with pytest.raises(SpecInvalid):
        check_property_circ(UNIT, [P(0.5, 0.5)], eta=0.05)
    # the first sample off the boundary is named, interior or exterior
    with pytest.raises(SpecInvalid, match=r"^sample \(2\.0, 0\.5\) is not a boundary point$"):
        check_property_circ(UNIT, [P(0, 0), P(1, 0.5), P(2.0, 0.5), P(0.5, 0.5)], eta=0.05)


def test_ambient_agreement_and_gap(slit_dom):
    assert check_rho_equals_ambient(UNIT, [P(0, 0), P(1, 1), P(0.2, 0.1), P(0.4, 0.9)]) <= 1e-12
    # the largest gap is the pair (0, 2), around the slit
    gap = check_rho_equals_ambient(slit_dom, [P(0.5, 1.0), P(0.2, 0.2), P(1.5, 1.0)])
    assert gap == pytest.approx(2 * math.hypot(0.5, 0.5) - 1.0, abs=1e-9)
    with pytest.raises(SpecInvalid):
        check_rho_equals_ambient(UNIT, [P(0, 0), P(1, 1)], [None])
