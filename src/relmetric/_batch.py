"""Vectorized geometry kernels shared by scene validation, visibility and
the strips disjointness certificate.

All predicates mirror the scalar versions in :mod:`relmetric.geom`; the
orientation tolerance is absolute on twice the signed area.
"""
from __future__ import annotations

import numpy as np


def _osign(ux, uy, vx, vy, wx, wy, eps: float):
    val = (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)
    s = np.sign(val)
    return np.where(np.abs(val) <= eps, 0.0, s)


def cross_matrix(p: np.ndarray, Q: np.ndarray, FA: np.ndarray, FB: np.ndarray, eps: float) -> np.ndarray:
    """Proper-crossing mask of segments p->Q[j] against features (FA[i], FB[i]).

    Returns bool array of shape (len(Q), len(FA)).
    """
    px, py = float(p[0]), float(p[1])
    qx = Q[:, 0][:, None]
    qy = Q[:, 1][:, None]
    ax = FA[:, 0][None, :]
    ay = FA[:, 1][None, :]
    bx = FB[:, 0][None, :]
    by = FB[:, 1][None, :]
    o1 = _osign(px, py, qx, qy, ax, ay, eps)
    o2 = _osign(px, py, qx, qy, bx, by, eps)
    o3 = _osign(ax, ay, bx, by, px, py, eps)
    o4 = _osign(ax, ay, bx, by, qx, qy, eps)
    return (o1 * o2 < 0) & (o3 * o4 < 0)


def point_seg_dists(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from points P (k,2) to segments A[i]->B[i] (m,2): (k,m)."""
    d = B - A
    denom = np.einsum("md,md->m", d, d)
    denom = np.where(denom <= 0.0, 1.0, denom)
    pa = P[:, None, :] - A[None, :, :]
    t = np.einsum("kmd,md->km", pa, d) / denom[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = A[None, :, :] + t[..., None] * d[None, :, :]
    return np.linalg.norm(P[:, None, :] - proj, axis=2)


def seg_point_dists(p: np.ndarray, Q: np.ndarray, N: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Distances from nodes N (n,2) to segments p->Q[j] (k,2): (k,n)."""
    d = Q - p[None, :]
    denom = np.einsum("kd,kd->k", d, d)
    denom = np.where(denom <= 0.0, 1.0, denom)
    np_ = N - p[None, :]
    out = np.empty((len(Q), len(N)))
    for lo in range(0, len(Q), chunk):
        hi = min(lo + chunk, len(Q))
        dj = d[lo:hi]
        t = (np_ @ dj.T).T / denom[lo:hi, None]
        t = np.clip(t, 0.0, 1.0)
        proj = p[None, None, :] + t[..., None] * dj[:, None, :]
        out[lo:hi] = np.linalg.norm(N[None, :, :] - proj, axis=2)
    return out


def _point_seg_pairs(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from P[i] to segment A[i]->B[i], elementwise: (k,)."""
    d = B - A
    den = np.einsum("ij,ij->i", d, d)
    den = np.where(den <= 0, 1.0, den)
    t = np.clip(np.einsum("ij,ij->i", P - A, d) / den, 0.0, 1.0)
    proj = A + t[:, None] * d
    return np.hypot(P[:, 0] - proj[:, 0], P[:, 1] - proj[:, 1])


def seg_pair_dists(A1: np.ndarray, B1: np.ndarray, A2: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Distances between segments A1[i]->B1[i] and A2[i]->B2[i], elementwise: (k,).

    Zero when a pair meets; with an exact orientation test, touching and
    collinear pairs count as meeting.  For pairs that do not meet the minimum
    is attained at an endpoint."""

    def orient(U, V, W):
        return _osign(U[:, 0], U[:, 1], V[:, 0], V[:, 1], W[:, 0], W[:, 1], 0.0)

    meet = (orient(A1, B1, A2) * orient(A1, B1, B2) <= 0) & (
        orient(A2, B2, A1) * orient(A2, B2, B1) <= 0
    )
    d = np.minimum.reduce(
        [
            _point_seg_pairs(A2, A1, B1),
            _point_seg_pairs(B2, A1, B1),
            _point_seg_pairs(A1, A2, B2),
            _point_seg_pairs(B1, A2, B2),
        ]
    )
    return np.where(meet, 0.0, d)


def points_in_polygon(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Crossing-number parity for points P (k,2) against polygon V (m,2)."""
    x = P[:, 0][:, None]
    y = P[:, 1][:, None]
    ax = V[:, 0][None, :]
    ay = V[:, 1][None, :]
    bx = np.roll(V[:, 0], -1)[None, :]
    by = np.roll(V[:, 1], -1)[None, :]
    cond = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = ax + (y - ay) * (bx - ax) / (by - ay)
        crossed = cond & (x < xc)
    return (np.count_nonzero(crossed, axis=1) % 2).astype(bool)
