"""The int8-side and in-place kernels of relmetric._batch against the float
kernels they replaced (kept verbatim in tests/_reference.py): the same bits
on seeded, integer, tolerance-edge, non-finite and degenerate inputs, in
every shape the package calls them with."""
import numpy as np
import pytest

from _reference import float_cross_matrix, float_osign, float_pseg
from relmetric import _batch
from relmetric.geom import EPS_GEOM

def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _same_sides(got, want):
    """int8 sides against float sides: equal values, a NaN side read as 0."""
    assert got.dtype == np.int8 and got.shape == want.shape
    assert (got == np.where(np.isnan(want), 0.0, want)).all()


def _points(rng, n, kind):
    if kind == "int":
        return rng.integers(-3, 4, size=(n, 2))
    if kind == "grid":
        return rng.integers(-3, 4, size=(n, 2)).astype(float) / 4
    return rng.uniform(-2.0, 2.0, size=(n, 2))


def _check_all(B, Q, FA, FB, eps):
    """Every caller shape: a block of sources B[:, None] against Q, paired
    B[si]/Q[cj], one source, and the (4, k) stacks of the pair kernels; the
    distances as point_seg_dists, seg_point_dists and the stacks call them."""
    si, cj = np.indices((len(B), len(Q))).reshape(2, -1)
    for p, q in ((B[:, None], Q), (B[si], Q[cj]), (B[0], Q)):
        _same_bits(_batch.cross_matrix(p, q, FA, FB, eps), float_cross_matrix(p, q, FA, FB, eps))
    k = min(len(FA), len(B))
    U, V, W = _batch._stack4(B[:k], Q[:k], FA[:k], FB[:k])
    args = (U[..., 0], U[..., 1], V[..., 0], V[..., 1], W[..., 0], W[..., 1], eps)
    _same_sides(_batch._osign(*args), float_osign(*args))
    for P, A, Z in ((B[:, None], FA[None], FB[None]), (Q[None], B[:, None], FA[: len(B), None]), (W, U, V)):
        if len(Z):
            _same_bits(_batch._pseg(P, A, Z), float_pseg(P, A, Z))


@pytest.mark.parametrize("kind", ["float", "grid", "int"])
def test_seeded_inputs_give_the_float_kernels_bits(kind):
    rng = np.random.default_rng(27)
    for n in (1, 2, 5, 17):
        B, Q, FA, FB = (_points(rng, n, kind) for _ in range(4))
        for eps in (0.0, EPS_GEOM, 0.5):
            _check_all(B, Q, FA, FB, eps)


def test_orientations_of_exactly_eps_give_the_float_sides():
    # twice the signed area of (0,0), (1,0), (0,y) is y exactly
    for eps in (EPS_GEOM, 0.25, 0.0):
        ys = np.array([eps, -eps, np.nextafter(eps, 1), -np.nextafter(eps, 1), 0.0, -0.0])
        z, o = np.zeros_like(ys), np.ones_like(ys)
        _same_sides(_batch._osign(z, z, o, z, z, ys, eps), float_osign(z, z, o, z, z, ys, eps))
        B = np.array([[0.0, 0.0], [0.5, -eps], [0.5, eps]])
        Q = np.array([[1.0, 0.0], [0.5, 1.0], [0.5, -1.0]])
        FA, FB = np.stack([np.full_like(ys, 0.5), ys], axis=1), np.stack([np.full_like(ys, 0.5), -ys], axis=1)
        _check_all(B, Q, FA, FB, eps)


def test_non_finite_coordinates_give_the_float_kernels_bits():
    rng = np.random.default_rng(28)
    bad = np.array([[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf], [1.0, 1.0], [1e200, -1e200]])
    for _ in range(20):
        B, Q, FA, FB = (np.where(rng.random((5, 1)) < 0.4, bad[rng.permutation(5)], _points(rng, 5, "float")) for _ in range(4))
        with np.errstate(invalid="ignore", over="ignore"):
            _check_all(B, Q, FA, FB, EPS_GEOM)


def test_nan_orientations_read_as_side_zero():
    z, n = np.zeros(2), np.array([np.nan, 1e200])
    with np.errstate(invalid="ignore", over="ignore"):
        assert _batch._osign(z, z, n, n, n, n, EPS_GEOM).tolist() == [0, 0]


def test_zero_length_segments_give_the_float_kernels_bits():
    rng = np.random.default_rng(29)
    for kind in ("float", "int"):
        B, Q, FA = (_points(rng, 6, kind) for _ in range(3))
        _check_all(B, Q, FA, FA.copy(), EPS_GEOM)
        _check_all(B, B.copy(), FA, FA.copy(), EPS_GEOM)


def test_pair_kernels_read_the_int8_sides_as_the_float_ones(monkeypatch):
    rng = np.random.default_rng(30)
    pairs = [[_points(rng, 40, kind) for _ in range(4)] for kind in ("float", "grid", "int")]
    got = [(_batch.seg_pair_dists(*p), _batch.contacts(*p, EPS_GEOM)) for p in pairs]
    monkeypatch.setattr(_batch, "_osign", float_osign)
    for (dists, kinds), p in zip(got, pairs):
        _same_bits(dists, _batch.seg_pair_dists(*p))
        _same_bits(kinds, _batch.contacts(*p, EPS_GEOM))
