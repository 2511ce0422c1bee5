"""Low-level geometric primitives shared by the mesh and smoothing modules.

Everything here is plain numpy: frames, closed-form 3x3 kernels (``det3``,
``inv3``, ``spectral_norm``) batched over stacks of matrices and worked on
their entries as flat arrays; simplex measures, the interior-overlap test
of two tetrahedra (the one LP, used by validation and the one use of scipy,
which it imports when it runs; an intersection too thin for qhull counts as
empty), the tetrahedra that fill a frustum of one, and
Gauss-Legendre quadrature.  The distances that parameter selection needs
are exact and batched over stacks of points, segments and triangles:
``dist_point_simplex`` (points to triangles), ``dist_segment_triangle`` and
``dist_triangle_triangle``.  The difference quadrature takes its slab
sections from two batched kernels: ``clip_polygons`` clips convex polygons
by a half-plane each, and ``polygon_disk_areas`` gives each polygon's exact
area within a disk; it cuts its cylinder columns by cells with
``line_cell_intervals``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


# matrices per chunk of the 3x3 kernels: bounds their temporaries
NORM_CHUNK = 4096


def normalize(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / n


def rows_times(x, M):
    """x @ M for rows x (N,3), summed entry by entry, which rounds alike in
    any batch, unlike a matrix product."""
    return x[:, :1] * M[0] + x[:, 1:2] * M[1] + x[:, 2:] * M[2]


def group_slices(key, n):
    """One stable sort of rows by their group ``key`` (N,) in [0, n): the
    permutation, and the n + 1 bounds of each group's slice of the sorted
    rows.  The keys go in the smallest integer type that holds them, which
    makes the sort a radix sort up to 32,768 groups."""
    order = np.argsort(key.astype(np.min_scalar_type(-n)), kind="stable")
    return order, np.r_[0, np.cumsum(np.bincount(key, minlength=n))]


def unsort(a, order):
    """The rows of ``a``, sorted by ``order``, back in their first order."""
    out = np.empty_like(a)
    out[order] = a
    return out


def orthonormal_tangents(n):
    """Two unit vectors completing ``n`` to a right-handed orthonormal basis.

    ``n`` is one unit vector (3,) or a stack of them (N,3); the tangents have
    the shape of ``n``.  ``det[n, t2, t3] = |n|^2 > 0``, so the frame is
    right-handed without a check.
    """
    n = np.asarray(n, dtype=float)
    a = np.where(np.abs(n[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t2 = normalize(np.cross(n, a))
    t3 = np.cross(n, t2)
    return t2, t3


def rotation_to_e3(v):
    """Rotation matrix Q with Q @ (v/|v|) = e3."""
    v = np.asarray(v, dtype=float)
    u = v / np.linalg.norm(v)
    e3 = np.array([0.0, 0.0, 1.0])
    c = float(u @ e3)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # 180 degree turn about the x-axis
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross(u, e3)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + s * K + (1 - c) * (K @ K)


def _chunked(kernel):
    """``kernel`` of a stack of 3x3 matrices, (..., 3, 3), applied to at most
    NORM_CHUNK of them at a time."""
    @functools.wraps(kernel)
    def chunked(M):
        M = np.asarray(M, dtype=float)
        flat = M.reshape(-1, 3, 3)
        if len(flat) <= NORM_CHUNK:
            return kernel(M)
        out = np.concatenate([kernel(flat[i:i + NORM_CHUNK])
                              for i in range(0, len(flat), NORM_CHUNK)])
        return out.reshape(M.shape[:-2] + out.shape[1:])
    return chunked


def _scaled_entries(M):
    """The entries of each matrix of ``M`` (..., 3, 3), row by row, as one
    contiguous array (9, ...) per entry, each matrix scaled by an exact power
    of two to a largest |entry| in [1/2, 1); and the exponents e, with M the
    scaled matrix times 2^e.  Products of scaled entries neither underflow
    nor overflow."""
    a = np.ascontiguousarray(np.moveaxis(M.reshape(M.shape[:-2] + (9,)), -1, 0))
    _, e = np.frexp(np.max(np.abs(a), axis=0))
    return np.ldexp(a, -e), e


def _det(a):
    """Determinants of the matrices with entries ``a`` (9, ...), row by row:
    the cofactor expansion along the first row."""
    return (a[0] * (a[4] * a[8] - a[5] * a[7])
            + a[1] * (a[5] * a[6] - a[3] * a[8])
            + a[2] * (a[3] * a[7] - a[4] * a[6]))


def _matrices(a, shape):
    """The matrices of entries ``a`` (9, ...), as a contiguous ``shape``."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1)).reshape(shape)


@_chunked
def det3(M):
    """Determinant of each matrix in ``M`` (..., 3, 3) by cofactor expansion,
    after an exact power-of-two scaling."""
    a, e = _scaled_entries(M)
    return np.ldexp(_det(a), 3 * e)


@_chunked
def inv3(M):
    """Inverse of each matrix in ``M`` (..., 3, 3): its adjugate over its
    determinant, after an exact power-of-two scaling.  A singular matrix
    gets non-finite entries, as a division by zero does."""
    a, e = _scaled_entries(M)
    adj = np.stack([a[4] * a[8] - a[5] * a[7], a[7] * a[2] - a[8] * a[1],
                    a[1] * a[5] - a[2] * a[4], a[5] * a[6] - a[3] * a[8],
                    a[8] * a[0] - a[6] * a[2], a[2] * a[3] - a[0] * a[5],
                    a[3] * a[7] - a[4] * a[6], a[6] * a[1] - a[7] * a[0],
                    a[0] * a[4] - a[1] * a[3]])
    return _matrices(np.ldexp(adj / _det(a), -e), M.shape)


def _cross(u, v):
    """Cross products of the vectors with components ``u`` and ``v``, each a
    tuple of three arrays."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _gram(m):
    """The distinct entries (A00, A11, A22, A01, A02, A12) of A = M^T M for
    the matrices of entries ``m`` (9, ...), row by row: entry (j, k) is
    column j dot column k."""
    return [(m[j] * m[k] + m[3 + j] * m[3 + k]) + m[6 + j] * m[6 + k]
            for j, k in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]


def _double_top(A, low):
    """Largest eigenvalue of the symmetric matrices of distinct entries
    ``A`` (as ``_gram`` gives them) whose two largest nearly coincide, from
    their smallest ``low``: the largest eigenvalue of the 2x2 block of A
    orthogonal to the null vector v of A - low I, the longest cross product
    of two of its rows (e1 when all vanish)."""
    a00, a11, a22, a01, a02, a12 = A
    rows = ((a00 - low, a01, a02), (a01, a11 - low, a12),
            (a02, a12, a22 - low))
    zero = np.zeros_like(low)
    v, vv = (zero + 1.0, zero, zero), zero
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = _cross(rows[i], rows[j])
        ww = _dot3(w, w)
        longer = ww > vv
        v = tuple(np.where(longer, wk, vk) for vk, wk in zip(v, w))
        vv = np.where(longer, ww, vv)
    n = np.sqrt(np.where(vv > 0, vv, 1.0))
    v = tuple(vk / n for vk in v)
    # t2 = v x e1, or v x e2 where v is near e1 (orthonormal_tangents' rule)
    near = np.abs(v[0]) >= 0.9
    t2 = (np.where(near, -v[2], 0.0), np.where(near, 0.0, v[2]),
          np.where(near, v[0], -v[1]))
    n = np.sqrt(_dot3(t2, t2))
    t2 = tuple(tk / n for tk in t2)
    t3 = _cross(v, t2)

    def times_A(u):
        return (a00 * u[0] + a01 * u[1] + a02 * u[2],
                a01 * u[0] + a11 * u[1] + a12 * u[2],
                a02 * u[0] + a12 * u[1] + a22 * u[2])

    At3 = times_A(t3)
    a, b, c = _dot3(t2, times_A(t2)), _dot3(t2, At3), _dot3(t3, At3)
    return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)


@_chunked
def spectral_norm(M):
    """Largest singular value of each matrix in the stack ``M`` (N,3,3): the
    root of the largest eigenvalue of M^T M, by the trigonometric solution of
    its characteristic cubic (Smith, CACM 4, 1961), on the six distinct
    entries of M^T M as flat arrays.  Where the two largest eigenvalues
    nearly coincide that root is ill-conditioned; there the largest
    eigenvalue of the 2x2 block orthogonal to the eigenvector of the
    smallest gives it."""
    # exact power-of-two scaling keeps M^T M clear of underflow and overflow
    m, e = _scaled_entries(M)
    A = _gram(m)
    a00, a11, a22, a01, a02, a12 = A
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    o01, o02, o12 = a01 * a01, a02 * a02, a12 * a12
    # the squares of B = A - q I's nine entries, summed row by row
    p = np.sqrt((b00 * b00 + o01 + o02 + o01 + b11 * b11 + o12 + o02 + o12
                 + b22 * b22) / 6.0)
    s = np.where(p > 0, p, 1.0)
    b00, b11, b22, b01, b02, b12 = b00 / s, b11 / s, b22 / s, \
        a01 / s, a02 / s, a12 / s
    # det(B / p) / 2 by cofactors along the first row
    r = (b00 * (b11 * b22 - b12 * b12) + b01 * (b12 * b02 - b01 * b22)
         + b02 * (b01 * b12 - b11 * b02)) / 2.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    # cos(arccos(r) / 3) amplifies an error in r by at most 1/4 for r >= -1/2
    close = r < -0.5
    if np.any(close):
        low = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        top[close] = _double_top([a[close] for a in A], low[close])
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


@dataclass(frozen=True)
class Frame:
    """Rigid motion y = R (x - origin); rows of R are the frame axes."""

    origin: np.ndarray
    R: np.ndarray


# ---------------------------------------------------------------------------
# simplex measures and barycentric queries


def tet_volume(p):
    p = np.asarray(p, dtype=float)
    return float(np.linalg.det(p[1:] - p[0])) / 6.0


def barycentric(p, x):
    """Barycentric coordinates (N,4) of points ``x`` (N,3) in tetrahedron
    ``p`` (4,3)."""
    p = np.asarray(p, dtype=float)
    lam = (np.atleast_2d(x) - p[0]) @ inv3(p[1:] - p[0])
    return np.hstack([1.0 - lam.sum(axis=1, keepdims=True), lam])


def triangle_area(p):
    p = np.asarray(p, dtype=float)
    return 0.5 * float(np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0])))


# ---------------------------------------------------------------------------
# distances: exact and batched, broadcast over the leading axes (the closed
# forms of Ericson, Real-Time Collision Detection, ch. 5)


# the vertex-index pairs of a triangle's edges
_TRI_EDGES = ((0, 1), (1, 2), (0, 2))


def _dot(u, v):
    """Dot products over the last axis; rounded as np.dot rounds one pair."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _least(ds):
    """Elementwise minimum of the arrays ``ds``, broadcast."""
    return functools.reduce(np.minimum, ds)


def _dist_point_segment(x, a, b):
    """Distance from points x to segments [a, b], all (..., 3).  A segment of
    length 0 is its point."""
    ab = b - a
    ll = _dot(ab, ab)
    t = np.clip(_dot(x - a, ab) / np.where(ll > 0, ll, 1.0), 0.0, 1.0)
    # t = 1 takes b itself: a + (b - a) can miss it by an ulp
    d = x - np.where(t[..., None] == 1.0, b, a + t[..., None] * ab)
    return np.sqrt(_dot(d, d))


def _dist_segment_segment(p1, q1, p2, q2):
    """Distance between segments [p1, q1] and [p2, q2], all (..., 3).  The
    squared distance is convex on the parameter square, so its minimum is
    the lines' closest pair, where that pair lies in both segments, or on
    the square's boundary: one segment's endpoint against the other."""
    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a, b, e = _dot(d1, d1), _dot(d1, d2), _dot(d2, d2)
    c, f = _dot(d1, r), _dot(d2, r)
    den = a * e - b * b
    st = np.stack([b * f - c * e, a * f - b * c]) / np.where(den > 0, den, 1.0)
    gap = p1 + st[0, ..., None] * d1 - (p2 + st[1, ..., None] * d2)
    inner = (den > 0) & np.all((st >= 0) & (st <= 1), axis=0)
    return _least([np.where(inner, np.sqrt(_dot(gap, gap)), np.inf)]
                  + [_dist_point_segment(x, u, v) for x, u, v in
                     ((p1, p2, q2), (q1, p2, q2), (p2, p1, q1), (q2, p1, q1))])


def _in_triangle(x, T, n):
    """Whether x projects along the normal n into the closed triangle T."""
    return np.all([_dot(np.cross(T[..., j, :] - T[..., i, :],
                                 x - T[..., i, :]), n) >= 0
                   for i, j in ((0, 1), (1, 2), (2, 0))], axis=0)


def dist_point_simplex(x, T):
    """Distance from points x (..., 3) to triangles T (..., 3, 3): the
    distance to the plane where x projects into the triangle, else the least
    distance to its three edges.  A degenerate triangle is its edges."""
    x, T = np.asarray(x, dtype=float), np.asarray(T, dtype=float)
    a = T[..., 0, :]
    n = np.cross(T[..., 1, :] - a, T[..., 2, :] - a)
    nn = _dot(n, n)
    proper = nn >= 1e-300
    t = _dot(x - a, n) / np.where(proper, nn, 1.0)
    edges = _least([_dist_point_segment(x, T[..., i, :], T[..., j, :])
                    for i, j in _TRI_EDGES])
    return np.where(proper & _in_triangle(x, T, n), np.abs(t) * np.sqrt(nn),
                    edges)


def dist_segment_triangle(p, q, T):
    """Distance from segments [p, q] (..., 3) to triangles T (..., 3, 3): 0
    where the segment crosses the triangle, else the least distance of its
    endpoints to the triangle and of the segment to the triangle's edges,
    where the closest pair of a segment and a triangle that miss lies."""
    p, q, T = (np.asarray(v, dtype=float) for v in (p, q, T))
    a = T[..., 0, :]
    n = np.cross(T[..., 1, :] - a, T[..., 2, :] - a)
    dp, dq = _dot(p - a, n), _dot(q - a, n)
    cross = np.sign(dp) * np.sign(dq) < 0
    s = dp / np.where(cross, dp - dq, 1.0)
    cross &= _in_triangle(p + s[..., None] * (q - p), T, n)
    return np.where(cross, 0.0, _least(
        [dist_point_simplex(p, T), dist_point_simplex(q, T)]
        + [_dist_segment_segment(p, q, T[..., i, :], T[..., j, :])
           for i, j in _TRI_EDGES]))


def dist_triangle_triangle(A, B):
    """Distance between triangles A and B (..., 3, 3): the least distance of
    either's edges to the other, 0 where they meet."""
    AB = np.stack(np.broadcast_arrays(A, B), axis=-3).astype(float)
    return dist_segment_triangle(AB[..., [0, 1, 0], :], AB[..., [1, 2, 2], :],
                                 AB[..., ::-1, None, :, :]).min(axis=(-2, -1))


# ---------------------------------------------------------------------------
# convex intersection (tet/tet overlap detection and volume)


def halfspaces_of_tet(p):
    """Rows (a, b), a.x + b <= 0 inside, of tetrahedron ``p`` (4,3) or of
    each of a stack (..., 4, 3).  a is the unit outward normal, so a.x + b is
    the signed distance; row r carries the facet opposite vertex 3 - r."""
    p = np.asarray(p, dtype=float)
    i, j, k, opp = (p[..., idx, :] for idx in np.array(
        [[0, 0, 0, 1], [1, 1, 2, 2], [2, 3, 3, 3], [3, 2, 1, 0]]))
    n = normalize(np.cross(j - i, k - i))
    n = np.where(np.sum(n * (opp - i), axis=-1, keepdims=True) > 0, -n, n)
    return np.concatenate([n, -np.sum(n * i, axis=-1, keepdims=True)], axis=-1)


def _chebyshev_center(H):
    """Centre and radius of the largest ball in {x: a.x + b <= 0 per row
    (a, b)} of unit normals a; radius 0 when the LP fails."""
    from scipy.optimize import linprog  # scipy loads only when an LP runs
    c = np.array([0.0, 0.0, 0.0, -1.0])
    A_ub = np.hstack([H[:, :3], np.ones((len(H), 1))])
    res = linprog(c, A_ub=A_ub, b_ub=-H[:, 3],
                  bounds=[(None, None)] * 3 + [(0, None)], method="highs")
    return (res.x[:3], res.x[3]) if res.success else (None, 0.0)


def convex_interior_overlap(pa, pb, tol=1e-10):
    """Interior-overlap test of two tetrahedra.

    Returns (volume, witness) where volume is the Lebesgue measure of the
    intersection of the open interiors and witness is a point well inside it,
    or (0.0, None).  Uses the Chebyshev centre LP followed by a hull volume;
    an intersection too thin for qhull to build also gives (0.0, None).
    """
    from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
    H = np.vstack([halfspaces_of_tet(pa), halfspaces_of_tet(pb)])
    center, radius = _chebyshev_center(H)
    if radius <= tol:
        return 0.0, None
    try:
        hull = ConvexHull(HalfspaceIntersection(H, center).intersections)
    except QhullError:
        return 0.0, None
    return float(hull.volume), center


# A frustum of a tetrahedron: vertices 0-2 are a base triangle, positively
# oriented toward the apex, and vertex 3 + i is vertex i moved toward the
# apex.  These 3 positive tetrahedra fill it.
FRUSTUM_TETS = np.array([[1, 2, 0, 3], [2, 3, 1, 4], [3, 4, 2, 5]])


def clip_polygons(P, counts, a, b):
    """The part of each convex polygon P[k, :counts[k]] (B,K,2) in the
    half-plane {y: a[k].y <= b[k]}; ``a`` (B,2) and ``b`` (B,) may also be
    one value for all.  Vertex i, where it lies in the closed half-plane,
    then the crossing point of edge (i, i + 1), where its ends lie strictly
    on opposite sides, are the clipped polygon's vertices, in the input's
    order.  Returns them padded to (B,K',2), and each polygon's vertex
    count, 0 for fewer than 3 points."""
    P = np.asarray(P, dtype=float)
    counts = np.asarray(counts)[:, None]
    k = np.arange(P.shape[1])
    valid = k < counts
    d = (np.sum(P * np.asarray(a, dtype=float)[..., None, :], axis=-1)
         - np.asarray(b, dtype=float)[..., None])
    row, nxt = np.arange(len(P))[:, None], np.where(k + 1 < counts, k + 1, 0)
    dn = d[row, nxt]
    cross = valid & (d * dn < 0)
    t = np.where(cross, d / np.where(cross, d - dn, 1.0), 0.0)[..., None]
    shape = (len(P), 2 * len(k))
    pts = np.stack([P, P + t * (P[row, nxt] - P)], 2).reshape(shape + (2,))
    keep = np.stack([valid & (d <= 0), cross], axis=2).reshape(shape)
    counts = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    return (pts[row, order[:, :counts.max(initial=0)]],
            np.where(counts >= 3, counts, 0))


def line_cell_intervals(p, d, p0, edge_inv, tol=1e-13):
    """The interval [lo, hi] of z on which p + z d lies in the tetrahedron
    of first vertex ``p0`` and inverse edge matrix ``edge_inv`` (as locate
    keeps them), lo > hi where it misses, batched over leading axes.  Each
    barycentric coordinate a + z b bounds z on one side where b != 0; it may
    reach -``tol``, so a line along a face keeps the cell.  One coordinate
    at a time, by entrywise products and pairwise max and min."""
    q, lo, hi = p - p0, -np.inf, np.inf
    for k, E in enumerate([-edge_inv.sum(axis=-1)]
                          + [edge_inv[..., j] for j in range(3)]):
        a, b = (u[..., 0] * E[..., 0] + u[..., 1] * E[..., 1]
                + u[..., 2] * E[..., 2] for u in (q, d))
        a = a + (k == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = -(a + tol) / b
        far = (a >= -tol) | (b != 0)
        lo = np.maximum(lo, np.where(b > 0, z, np.where(far, -np.inf, np.inf)))
        hi = np.minimum(hi, np.where(b < 0, z, np.where(far, np.inf, -np.inf)))
    return lo, hi


# ---------------------------------------------------------------------------
# 2D primitives: polygon/disk intersection area


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def polygon_disk_areas(P, counts, centers, r):
    """Exact area of each convex polygon P[k, :counts[k]] (B,K,2), ordered in
    either orientation, intersected with the disk of radius r[k] about
    centers[k]; ``r`` and ``centers`` may also be one value for all.

    A count below 3 or a radius <= 0 gives 0.  Edge p->q adds the signed
    area of triangle (centre, p, q) within the disk: it splits at the circle
    crossings t1 <= t2, clipped to [0, 1], into a chord inside and circular
    sectors outside.
    """
    centers = np.asarray(centers, dtype=float)
    p = np.asarray(P, dtype=float) - centers[..., None, :]
    counts = np.asarray(counts)[:, None]
    k = np.arange(p.shape[1])
    q = np.take_along_axis(p, np.where(k + 1 < counts, k + 1, 0)[..., None],
                           axis=1)
    r = np.asarray(r, dtype=float)[..., None]
    d = q - p
    dd = np.sum(d * d, axis=-1)
    ok = (k < counts) & (counts >= 3) & (dd >= 1e-300) & (r > 0)
    dd = np.where(ok, dd, 1.0)
    pb = np.sum(p * d, axis=-1)
    disc = pb * pb - dd * (np.sum(p * p, axis=-1) - r * r)
    sq = np.sqrt(np.maximum(disc, 0.0))
    # no crossing: the whole edge is outside, one sector from p to q
    t1 = np.where(disc > 0, np.clip((-pb - sq) / dd, 0.0, 1.0), 1.0)
    t2 = np.where(disc > 0, np.clip((-pb + sq) / dd, 0.0, 1.0), 1.0)
    # t = 1 takes q itself: p + (q - p) can miss a q at the centre by an ulp
    a = np.where(t1[..., None] == 1.0, q, p + t1[..., None] * d)
    b = np.where(t2[..., None] == 1.0, q, p + t2[..., None] * d)
    sector = 0.5 * r * r
    area = 0.5 * _cross2(a, b)
    # a sector only for a piece of positive length: for a piece at the
    # centre, atan2 of rounding noise can be anything in [-pi, pi]
    area += np.where(t1 > 0, sector * np.arctan2(_cross2(p, a),
                                                  np.sum(p * a, axis=-1)), 0.0)
    area += np.where(t2 < 1, sector * np.arctan2(_cross2(b, q),
                                                  np.sum(b * q, axis=-1)), 0.0)
    return np.abs(np.sum(np.where(ok, area, 0.0), axis=-1))


# ---------------------------------------------------------------------------
# quadrature rules


_GAUSS_LEGENDRE = {}


def gauss_legendre(n, a=0.0, b=1.0):
    """n-point Gauss-Legendre nodes and weights on [a, b]; the reference rule
    is computed once per n."""
    if n not in _GAUSS_LEGENDRE:
        _GAUSS_LEGENDRE[n] = np.polynomial.legendre.leggauss(n)
    x, w = _GAUSS_LEGENDRE[n]
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
