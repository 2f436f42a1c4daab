"""Vectorized geometry kernels: the package's one implementation of the
scene-wide predicates (segment contacts for validation, closure membership,
the visibility filters, the feature hits behind blocked rays) and of the
strips disjointness distances.

The orientation tolerance is absolute on twice the signed area.  Every
point-segment distance goes through one elementwise kernel, ``_pseg``.  The
crossing kernel broadcasts its segments, so the visibility filter runs it
on a block of sources against all candidates, then on survivor pairs, in
doubling feature chunks (nearest first for a lone source).  The scalar
predicates that tests compare these kernels against live in the test suite
(``tests/_reference.py``).
"""
from __future__ import annotations

import numpy as np

CONTACT_KINDS = ("disjoint", "cross", "overlap", "shared-endpoint", "touch")
DISJOINT, CROSS, OVERLAP, SHARED_ENDPOINT, TOUCH = range(len(CONTACT_KINDS))
# pairs per block of the contact kernel: its stacked temporaries stay at
# 128 KiB, so validating a large scene does not grow the process heap
_CONTACT_BLOCK = 2048
# segments per block of the through-node kernel, which holds several
# (block, nodes) temporaries at once
_NODE_BLOCK = 512


def _osign(ux, uy, vx, vy, wx, wy, eps: float):
    val = (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)
    s = np.sign(val)
    return np.where(np.abs(val) <= eps, 0.0, s)


def _stack4(A, B, C, D):
    """The four (point, segment) pairs of segments A->B and C->D (arrays of
    one shape), stacked on a new first axis as (segment starts, segment
    ends, points): C and D against A->B, then A and B against C->D."""
    return np.array([A, A, C, C]), np.array([B, B, D, D]), np.array([C, D, A, B])


def cross_matrix(p: np.ndarray, Q: np.ndarray, FA: np.ndarray, FB: np.ndarray, eps: float) -> np.ndarray:
    """Proper-crossing mask of segments p->Q against features (FA[f], FB[f]):
    bool (..., len(FA)), with p and Q (..., 2) broadcast over their leading
    axes.  A block of sources B[:, None] against candidates Q gives (s,
    len(Q), len(FA)); paired arrays B[si], Q[cj] give one row per pair.
    """
    px, py = p[..., 0, None], p[..., 1, None]
    qx, qy = Q[..., 0, None], Q[..., 1, None]
    ax, ay, bx, by = FA[:, 0], FA[:, 1], FB[:, 0], FB[:, 1]
    o1 = _osign(px, py, qx, qy, ax, ay, eps)
    o2 = _osign(px, py, qx, qy, bx, by, eps)
    o3 = _osign(ax, ay, bx, by, px, py, eps)
    o4 = _osign(ax, ay, bx, by, qx, qy, eps)
    return (o1 * o2 < 0) & (o3 * o4 < 0)


def point_seg_dists(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from points P (k,2) to segments A[i]->B[i] (m,2): (k,m)."""
    return _pseg(P[:, None], A[None], B[None])


def seg_point_dists(p: np.ndarray, Q: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Distances from nodes N (n,2) to segments p->Q[j] (k,2): (k,n).  p is
    one start (2,) or a start per segment (k,2)."""
    A = np.broadcast_to(p, Q.shape)
    out = np.empty((len(Q), len(N)))
    for lo in range(0, len(Q), _NODE_BLOCK):
        hi = lo + _NODE_BLOCK
        out[lo:hi] = _pseg(N[None], A[lo:hi, None], Q[lo:hi, None])
    return out


def _pseg(P: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances from P to segments A->B, elementwise over the broadcast
    leading axes of the (..., 2) arrays."""
    dx, dy = B[..., 0] - A[..., 0], B[..., 1] - A[..., 1]
    den = dx * dx + dy * dy
    den = np.where(den <= 0, 1.0, den)
    t = np.clip(((P[..., 0] - A[..., 0]) * dx + (P[..., 1] - A[..., 1]) * dy) / den, 0.0, 1.0)
    return np.hypot(P[..., 0] - (A[..., 0] + t * dx), P[..., 1] - (A[..., 1] + t * dy))


def seg_pair_dists(A1: np.ndarray, B1: np.ndarray, A2: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Distances between segments A1->B1 and A2->B2, elementwise over
    (..., 2) arrays of one shape.

    Zero when a pair meets; with an exact orientation test, touching pairs
    count as meeting.  For other pairs, collinear ones included, the minimum
    is attained at an endpoint."""
    U, V, W = _stack4(A1, B1, A2, B2)
    o = _osign(U[..., 0], U[..., 1], V[..., 0], V[..., 1], W[..., 0], W[..., 1], 0.0)
    meet = (o[0] * o[1] <= 0) & (o[2] * o[3] <= 0) & o.any(axis=0)
    return np.where(meet, 0.0, _pseg(W, U, V).min(axis=0))


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


def closure_parts(
    P: np.ndarray, outer: np.ndarray, holes, A: np.ndarray, B: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """For points P (k,2): within eps of some segment A[i]->B[i], and inside
    the outer polygon but in none of the hole polygons."""
    on_b = point_seg_dists(P, A, B).min(axis=1) <= eps
    inside = points_in_polygon(P, outer)
    for hole in holes:
        inside &= ~points_in_polygon(P, hole)
    return on_b, inside


def contacts(A1: np.ndarray, B1: np.ndarray, A2: np.ndarray, B2: np.ndarray, eps: float) -> np.ndarray:
    """Contact of every segment A1[i]->B1[i] with every segment A2[j]->B2[j],
    as an index into ``CONTACT_KINDS``: int8 (len(A1), len(A2)).

    In order of precedence: a proper crossing; collinear segments sharing
    more than eps of length (overlap); more than eps apart (disjoint); two
    endpoints within eps (shared-endpoint); anything else is a touch.

    A set checked against itself (the same two arrays passed again) has
    each unordered pair evaluated once: only entries i < j are filled, the
    diagonal and the lower half read disjoint."""
    # Segments in contact are closer than eps / (shortest length), the reach
    # of the collinearity tolerance on twice the area, or eps when longer
    # than 1; pairs whose bounding boxes are further apart are disjoint.
    shortest = min(1.0, float(np.hypot(*np.concatenate([B1 - A1, B2 - A2]).T).min(initial=1.0)))
    reach = eps / shortest if shortest > 0 else np.inf
    lo1, hi1 = np.minimum(A1, B1) - reach, np.maximum(A1, B1) + reach
    lo2, hi2 = np.minimum(A2, B2), np.maximum(A2, B2)
    near = ((lo1[:, None] <= hi2[None]) & (lo2[None] <= hi1[:, None])).all(axis=-1)
    if A1 is A2 and B1 is B2:
        near = np.triu(near, k=1)
    i, j = np.nonzero(near)
    out = np.full((len(A1), len(A2)), DISJOINT, dtype=np.int8)
    for lo in range(0, len(i), _CONTACT_BLOCK):
        ii, jj = i[lo : lo + _CONTACT_BLOCK], j[lo : lo + _CONTACT_BLOCK]
        out[ii, jj] = _contact_kinds(A1[ii], B1[ii], A2[jj], B2[jj], eps)
    return out


def _contact_kinds(A, B, C, D, eps: float) -> np.ndarray:
    """Contact kinds of segments A[k]->B[k] and C[k]->D[k], elementwise."""
    U, V, W = _stack4(A, B, C, D)
    o = _osign(U[..., 0], U[..., 1], V[..., 0], V[..., 1], W[..., 0], W[..., 1], eps)
    gap = _pseg(W, U, V).min(axis=0)
    # the four endpoint pairs: A and B against C and D
    E = np.concatenate([U[:2] - W[:2], V[:2] - W[:2]])
    ends = np.hypot(E[..., 0], E[..., 1]).min(axis=0)
    # overlap: the extent of C->D along A->B
    u = B - A
    t = ((W[:2] - A) * u).sum(axis=-1)
    shared_len = np.minimum((u * u).sum(axis=-1), t.max(axis=0)) - np.maximum(0.0, t.min(axis=0))
    kind = np.where(ends <= eps, SHARED_ENDPOINT, TOUCH).astype(np.int8)
    kind[gap > eps] = DISJOINT
    kind[~o.any(axis=0) & (shared_len > eps * np.hypot(u[..., 0], u[..., 1]))] = OVERLAP
    kind[(o[0] * o[1] < 0) & (o[2] * o[3] < 0)] = CROSS
    return kind
