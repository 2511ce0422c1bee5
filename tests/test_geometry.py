"""Geometry helper tests against closed-form oracles."""

from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from plsmooth import geometry as geo
from plsmooth.mesh import SimplicialComplex

from oracles import polygon_area, tet_section

REF_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_tet_volume_reference():
    # vol of the corner tet is 1/6
    assert geo.tet_volume(REF_TET) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_tet_volume_orientation_sign():
    flipped = REF_TET[[1, 0, 2, 3]]
    assert geo.tet_volume(flipped) == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_barycentric_reproduces_point():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = rng.dirichlet(np.ones(4))
        x = lam @ REF_TET
        out = geo.barycentric(REF_TET, x)
        assert np.allclose(out, lam, atol=1e-12)


def test_triangle_area():
    tri = np.array([[0.0, 0, 0], [2, 0, 0], [0, 3, 0]])
    assert geo.triangle_area(tri) == pytest.approx(3.0)


def test_dist_point_simplex():
    tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert geo.dist_point_simplex(np.array([0.2, 0.2, 0.5]), tri) == \
        pytest.approx(0.5)
    # closest point is the vertex at the origin
    assert geo.dist_point_simplex(np.array([-3.0, -4.0, 0.0]), tri) == \
        pytest.approx(5.0)


# the scalar distances the batched kernels replaced: one lstsq per point
# against a triangle, and a segment sampled at 64 points


def _ref_dist_point_segment(x, a, b):
    ab = b - a
    t = min(1.0, max(0.0, float(np.dot(x - a, ab) / np.dot(ab, ab))))
    return float(np.linalg.norm(x - (a + t * ab)))


def _ref_dist_point_triangle(x, tri):
    a, b, c = tri
    n = np.cross(b - a, c - a)
    nn = np.dot(n, n)
    t = np.dot(x - a, n) / nn
    uv, *_ = np.linalg.lstsq(np.column_stack([b - a, c - a]),
                             x - t * n - a, rcond=None)
    if uv[0] >= 0 and uv[1] >= 0 and uv.sum() <= 1:
        return float(abs(t) * np.sqrt(nn))
    return min(_ref_dist_point_segment(x, a, b),
               _ref_dist_point_segment(x, b, c),
               _ref_dist_point_segment(x, a, c))


def _ref_dist_segment_simplex(a, b, tri):
    pts = a + np.linspace(0.0, 1.0, 64)[:, None] * (b - a)
    return min(_ref_dist_point_triangle(p, tri) for p in pts)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3),
       kind=st.sampled_from(["free", "parallel", "coplanar", "point"]))
def test_dist_segment_triangle_brackets_samples(seed, scale, kind):
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=3) * scale
    tri = centre + rng.normal(size=(3, 3)) * scale
    p, q = centre + rng.normal(size=(2, 3)) * scale
    n = geo.normalize(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    if kind == "parallel":
        q = q - ((q - p) @ n) * n
    elif kind == "coplanar":
        p, q = (v - ((v - tri[0]) @ n) * n for v in (p, q))
    elif kind == "point":
        q = p
    exact = float(geo.dist_segment_triangle(p, q, tri))
    sampled = _ref_dist_segment_simplex(p, q, tri)
    # rounding of coordinates of magnitude up to about 5 scale
    tol = 1e-13 * scale
    # the sampled distance never reads below the exact one, and the closest
    # point of the segment is within half a spacing of one of its 64 samples
    assert sampled >= exact - tol
    assert exact >= sampled - 0.5 * np.linalg.norm(q - p) / 63 - tol
    # the batched point distances are the scalar ones
    pts = p + np.linspace(0.0, 1.0, 9)[:, None] * (q - p)
    assert np.allclose(geo.dist_point_simplex(pts, tri),
                       [_ref_dist_point_triangle(x, tri) for x in pts],
                       rtol=1e-12, atol=tol)


def _ref_line_cell_intervals(p, d, p0, edge_inv, tol=1e-13):
    # the einsum formula that line_cell_intervals replaced, kept as its
    # bitwise reference
    E = np.concatenate([-edge_inv.sum(axis=-1, keepdims=True), edge_inv], -1)
    a = np.einsum("...j,...jk->...k", p - p0, E) + [1.0, 0.0, 0.0, 0.0]
    b = np.einsum("...j,...jk->...k", d, E)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = -(a + tol) / b
    lo = np.where(b > 0, z, np.where((b < 0) | (a >= -tol), -np.inf, np.inf))
    hi = np.where(b < 0, z, np.where((b > 0) | (a >= -tol), np.inf, -np.inf))
    return lo.max(axis=-1), hi.min(axis=-1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cells=st.integers(1, 6))
def test_line_cell_intervals_match_the_einsum_formula(seed, cells):
    # batched over lines (N, 1) and cells (C,): free lines, lines through a
    # vertex, along a face of each cell (d in the face's plane) and along a
    # coordinate axis, where the edge matrix has exact zeros
    rng = np.random.default_rng(seed)
    tets = rng.normal(size=(cells, 4, 3))
    flat = np.abs(geo.det3(tets[:, 1:] - tets[:, :1])) < 6e-3
    tets[flat, 1:] = tets[flat, :1] + np.eye(3)
    p0 = tets[:, 0]
    edge_inv = geo.inv3(tets[:, 1:] - p0[:, None])
    k = rng.integers(cells)
    n = geo.normalize(np.cross(tets[k, 1] - tets[k, 0],
                               tets[k, 2] - tets[k, 0]))
    d_face = geo.normalize(rng.normal(size=3))
    d_face = geo.normalize(d_face - (d_face @ n) * n)
    p = np.concatenate([rng.normal(size=(20, 3)), tets.reshape(-1, 3),
                        rng.dirichlet(np.ones(3), size=10) @ tets[k, :3]])
    for d in (geo.normalize(rng.normal(size=3)), d_face, np.eye(3)[k % 3]):
        lo, hi = geo.line_cell_intervals(p[:, None], d, p0, edge_inv)
        ref = _ref_line_cell_intervals(p[:, None], d, p0, edge_inv)
        assert lo.shape == ref[0].shape == (len(p), cells)
        assert np.array_equal(lo, ref[0]) and np.array_equal(hi, ref[1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["free", "vertex", "face"]))
def test_line_cell_interval_brackets_the_cell(seed, kind):
    # points strictly inside the interval lie in the cell to 1e-12 in their
    # smallest barycentric coordinate, and points a margin beyond its ends
    # are not in it, not even by locate's exact containment (tol 0); lines
    # through a vertex or along a face are the rounding-prone cases
    rng = np.random.default_rng(seed)
    tet = rng.normal(size=(4, 3))
    assume(abs(geo.tet_volume(tet)) > 1e-3)
    cx = SimplicialComplex(tet, [[0, 1, 2, 3]])
    d = geo.normalize(rng.normal(size=3))
    if kind == "free":
        p = rng.dirichlet(np.ones(4)) @ tet + 0.5 * rng.normal(size=3)
    elif kind == "vertex":
        p = tet[rng.integers(4)]
    else:
        p = rng.dirichlet(np.ones(3)) @ tet[:3]
        n = geo.normalize(np.cross(tet[1] - tet[0], tet[2] - tet[0]))
        d = geo.normalize(d - (d @ n) * n)
    lo, hi = geo.line_cell_intervals(p, d, cx._p0[0], cx._edge_inv[0])
    assert np.isfinite(lo) and np.isfinite(hi)
    if lo < hi:
        z = lo + (hi - lo) * np.linspace(0.0, 1.0, 33)[1:-1]
        assert geo.barycentric(tet, p + z[:, None] * d).min() >= -1e-12
    margin = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    z = np.concatenate([[lo - margin, hi + margin],
                        np.linspace(-4.0, 4.0, 81)])
    z = z[(z < lo - margin) | (z > hi + margin)]
    assert np.all(cx.locate(p + z[:, None] * d, tol=0.0) == -1)


TRI = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("p,q,expected", [
    # crosses the triangle's interior
    ((0.2, 0.2, -1.0), (0.3, 0.1, 1.0), 0.0),
    # crosses it within its plane
    ((-1.0, 0.2, 0.0), (2.0, 0.2, 0.0), 0.0),
    # parallel to the plane, above the interior
    ((0.1, 0.1, 0.5), (0.3, 0.2, 0.5), 0.5),
    # closest at the endpoint p, above the interior
    ((0.2, 0.2, 0.3), (0.5, 0.7, 2.0), 0.3),
    # skew to the edge on the x-axis, closest at (0.4, 0, 0)
    ((0.5, -0.5, -1.0), (0.3, -0.5, 1.0), 0.5),
    # along an edge, and beyond its end
    ((0.2, 0.0, 0.0), (0.7, 0.0, 0.0), 0.0),
    ((1.5, 0.0, 0.0), (3.0, 0.0, 0.0), 0.5),
    # a point: p == q
    ((0.2, 0.2, 0.5), (0.2, 0.2, 0.5), 0.5),
    ((-3.0, -4.0, 0.0), (-3.0, -4.0, 0.0), 5.0),
])
def test_dist_segment_triangle_cases(p, q, expected):
    d = geo.dist_segment_triangle(np.array(p), np.array(q), TRI)
    assert d == pytest.approx(expected, abs=1e-15)
    # reversing the segment changes nothing
    assert geo.dist_segment_triangle(np.array(q), np.array(p), TRI) == d


def test_dist_segment_triangle_broadcasts():
    rng = np.random.default_rng(5)
    P, Q = rng.normal(size=(2, 4, 1, 3))
    T = rng.normal(size=(6, 3, 3))
    d = geo.dist_segment_triangle(P, Q, T)
    assert d.shape == (4, 6)
    assert d[2, 3] == geo.dist_segment_triangle(P[2, 0], Q[2, 0], T[3])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
def test_dist_triangle_triangle_brackets_samples(seed, scale):
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=(2, 3, 3)) * scale
    exact = float(geo.dist_triangle_triangle(A, B))
    assert geo.dist_triangle_triangle(B, A) == exact
    k = 16
    bary = np.array([(i, j, k - i - j) for i in range(k + 1)
                     for j in range(k + 1 - i)]) / k
    dists = [_ref_dist_point_triangle(x, B) for x in bary @ A]
    tol = 1e-13 * scale
    assert exact <= min(dists) + tol
    # each point of A is within its diameter / k of a grid point
    diam = np.linalg.norm(A - np.roll(A, 1, axis=0), axis=1).max()
    assert exact >= min(dists) - diam / k - tol


def test_dist_triangle_triangle_cases():
    # a triangle piercing TRI, one above it, one beside it in its plane
    pierce = np.array([[0.2, 0.2, -1.0], [0.3, 0.1, 1.0], [2.0, 2.0, 1.0]])
    above = TRI + [0.0, 0.0, 0.25]
    beside = TRI + [1.5, 0.0, 0.0]
    d = geo.dist_triangle_triangle(TRI, np.stack([pierce, above, beside]))
    assert d == pytest.approx([0.0, 0.25, 0.5], abs=1e-15)


def test_polygon_area_shoelace():
    sq = [np.array([0.0, 0]), np.array([2.0, 0]),
          np.array([2.0, 2]), np.array([0.0, 2])]
    assert polygon_area(sq) == pytest.approx(4.0)


def _disk_area(poly, center, r):
    """polygon_disk_areas of one polygon given as a list of points."""
    P = np.asarray(poly, dtype=float)[None]
    return float(geo.polygon_disk_areas(P, [len(poly)], center, r)[0])


def test_polygon_disk_area_disk_inside():
    sq = [np.array([-1.0, -1]), np.array([1.0, -1]),
          np.array([1.0, 1]), np.array([-1.0, 1])]
    assert _disk_area(sq, (0, 0), 0.5) == pytest.approx(
        np.pi * 0.25, rel=1e-12)


def test_polygon_disk_area_polygon_inside():
    sq = [np.array([-1.0, -1]), np.array([1.0, -1]),
          np.array([1.0, 1]), np.array([-1.0, 1])]
    assert _disk_area(sq, (0, 0), 10.0) == pytest.approx(4.0)


def test_polygon_disk_area_half_disk():
    # half plane x <= 0 as a big square clipped at x = 0
    sq = [np.array([-9.0, -9]), np.array([0.0, -9]),
          np.array([0.0, 9]), np.array([-9.0, 9])]
    assert _disk_area(sq, (0, 0), 1.0) == pytest.approx(
        np.pi / 2, rel=1e-10)


def test_polygon_disk_area_disjoint():
    sq = [np.array([5.0, 5]), np.array([6.0, 5]),
          np.array([6.0, 6]), np.array([5.0, 6])]
    assert _disk_area(sq, (0, 0), 1.0) == pytest.approx(0.0)


def test_tet_plane_section_triangle():
    poly = tet_section(REF_TET, np.array([0.0, 0, 1]), 0.5, np.zeros(3),
                       np.eye(3)[:2])
    # cross section of the corner tet at z = 1/2 is a right triangle
    assert polygon_area(poly) == pytest.approx(0.125)


def test_gauss_legendre_degree():
    x, w = geo.gauss_legendre(3, 0.0, 1.0)
    assert np.sum(w * x ** 5) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert np.sum(w) == pytest.approx(1.0)


def test_rotation_to_e3():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        Q = geo.rotation_to_e3(v)
        assert np.allclose(Q @ v, [0, 0, 1], atol=1e-12)
        assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0)


def test_halfspaces_of_tet_membership():
    H = geo.halfspaces_of_tet(REF_TET)
    inside = np.array([0.1, 0.1, 0.1])
    outside = np.array([1.0, 1.0, 1.0])
    assert np.all(H[:, :3] @ inside + H[:, 3] <= 1e-12)
    assert np.any(H[:, :3] @ outside + H[:, 3] > 0)


def _with_singular_values(s, seed):
    """Matrices R1 diag(s) R2 with random rotations R1, R2."""
    rng = np.random.default_rng(seed)
    R1, _ = np.linalg.qr(rng.normal(size=(len(s), 3, 3)))
    R2, _ = np.linalg.qr(rng.normal(size=(len(s), 3, 3)))
    return R1 @ (s[:, :, None] * R2)


def _norm_cases():
    """Stacks of 3x3 matrices for the spectral-norm kernels, by name."""
    rng = np.random.default_rng(5)
    s = rng.uniform(0.1, 3.0, size=(500, 3))
    top_pair, low_pair, rank2 = s.copy(), s.copy(), s.copy()
    top_pair[:, 1] = top_pair[:, 0] = np.max(s, axis=1)
    low_pair[:, 1] = low_pair[:, 2] = np.min(s, axis=1)
    rank2[:, 2] = 0.0
    u, w = rng.normal(size=(2, 500, 3))
    # over 2 NORM_CHUNKs, Gaussian and top-two-equal matrices interleaved,
    # so both branches of the kernel run in every chunk
    mix = rng.uniform(0.1, 3.0, size=(6000, 3))
    mix[:, 1] = mix[:, 0] = np.max(mix, axis=1)
    mixed = np.concatenate([rng.normal(size=(6000, 3, 3)),
                            _with_singular_values(mix, 4)])
    return {
        "gaussian": rng.normal(size=(2000, 3, 3)),
        "identity": np.eye(3)[None],
        "zero": np.zeros((3, 3, 3)),
        "rank-1": u[:, :, None] * w[:, None, :],
        "rank-2": _with_singular_values(rank2, 1),
        # the trigonometric root is ill-conditioned for a double top value
        "top two equal": _with_singular_values(top_pair, 2),
        "bottom two equal": _with_singular_values(low_pair, 3),
        "near identity": np.eye(3) + 1e-9 * rng.normal(size=(500, 3, 3)),
        # M^T M a few ulps from the identity: one of these has a null vector
        # of exact zeros in the nearly-equal branch
        "ulps from identity": np.array([
            np.diag(np.sqrt(1.0 + np.array(d) * 2.0 ** -52))
            for d in product(range(-4, 5), repeat=3)]),
        "tiny": 1e-200 * rng.normal(size=(50, 3, 3)),
        "huge": 1e200 * rng.normal(size=(50, 3, 3)),
        "shuffled mix": mixed[rng.permutation(len(mixed))],
    }


def test_spectral_norm_matches_svd():
    cases = _norm_cases()
    assert len(cases["shuffled mix"]) > 2 * geo.NORM_CHUNK
    for name, M in cases.items():
        ref = np.linalg.norm(M, ord=2, axis=(1, 2))
        np.testing.assert_allclose(geo.spectral_norm(M), ref, rtol=1e-12,
                                   atol=0, err_msg=name)
    assert geo.spectral_norm([np.diag([2.0, -5.0, 1.0])]) == pytest.approx([5.0])


def _kernel_cases():
    """Stacks of 3x3 matrices for det3 and inv3: Gaussian, rank-deficient,
    near-identity, tiny and huge."""
    rng = np.random.default_rng(6)
    rank2 = rng.uniform(0.1, 3.0, size=(500, 3))
    rank2[:, 2] = 0.0
    u, w = rng.normal(size=(2, 500, 3))
    return {
        "gaussian": rng.normal(size=(2000, 3, 3)),
        "zero": np.zeros((3, 3, 3)),
        "rank-1": u[:, :, None] * w[:, None, :],
        "rank-2": _with_singular_values(rank2, 1),
        "near identity": np.eye(3) + 1e-9 * rng.normal(size=(500, 3, 3)),
        "tiny": 1e-200 * rng.normal(size=(50, 3, 3)),
        "huge": 1e200 * rng.normal(size=(50, 3, 3)),
    }


def test_det3_matches_lapack():
    eps = np.finfo(float).eps
    for name, M in _kernel_cases().items():
        with np.errstate(over="ignore", invalid="ignore"):
            ref, got = np.linalg.det(M), geo.det3(M)
            # both rounding errors are a few eps times the permanent of |M|,
            # at most the product of its row 1-norms
            bound = 16 * eps * np.prod(np.abs(M).sum(axis=2), axis=1)
            # equal where both under- or overflow, to 0 or the same infinity
            assert np.all((got == ref) | (np.abs(got - ref) <= bound)), name
            assert geo.det3(M[0]) == got[0]
    assert geo.det3(np.diag([2.0, -5.0, 1.0])) == -10.0


def test_inv3_matches_lapack():
    eps = np.finfo(float).eps
    cases = _kernel_cases()
    for name in ("gaussian", "near identity", "tiny", "huge"):
        M = cases[name]
        ref = np.linalg.inv(M)
        got = geo.inv3(M)
        # both within a few eps cond(M) |M^-1| of the true inverse
        tol = 64 * eps * np.linalg.cond(M) * np.abs(ref).max(axis=(1, 2))
        assert np.all(np.abs(got - ref) <= tol[:, None, None]), name
        assert np.array_equal(geo.inv3(M[0]), got[0])
        np.testing.assert_allclose(got @ M, np.broadcast_to(np.eye(3), M.shape),
                                   rtol=0, atol=1e-8, err_msg=name)
    # a singular matrix, rank-deficient in exact arithmetic, has no finite
    # inverse
    singular = np.array([cases["zero"][0], np.arange(9.0).reshape(3, 3)])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(geo.inv3(singular)).all(axis=(1, 2)).any()


# ---------------------------------------------------------------------------
# the polygon/disk kernel against the scalar code it replaced, and the tests'
# plane sections against convex hulls, kept here as the references


def _ref_polytope_plane_section(vertices, n, c):
    """Ordered polygon of {x: n.x = c} ∩ conv(vertices), as 3D points."""
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) < 4:
        return []
    hull = ConvexHull(vertices)
    d = vertices @ n - c
    pts = []
    seen, on = set(), set()
    for s, simplex in enumerate(hull.simplices):
        idx = list(simplex)
        for a in range(3):
            i, j = idx[a], idx[(a + 1) % 3]
            key = (min(i, j), max(i, j))
            # the diagonal the triangulation draws across a planar face is
            # no edge: its crossing would be a point inside a polygon edge
            other = hull.neighbors[s, (a + 2) % 3]
            if key in seen or np.allclose(hull.equations[s, :3],
                                          hull.equations[other, :3],
                                          rtol=0, atol=1e-6):
                continue
            seen.add(key)
            if abs(d[i]) < 1e-14 and i not in on:
                on.add(i)
                pts.append(vertices[i])
            if d[i] * d[j] < 0:
                t = d[i] / (d[i] - d[j])
                pts.append(vertices[i] + t * (vertices[j] - vertices[i]))
    if len(pts) < 3:
        return []
    pts = np.array(pts)
    t2, t3 = geo.orthonormal_tangents(n / np.linalg.norm(n))
    ctr = pts.mean(axis=0)
    ang = np.arctan2((pts - ctr) @ t3, (pts - ctr) @ t2)
    return [pts[i] for i in np.argsort(ang)]


def _ref_segment_disk_area(p, q, r):
    # area contribution of directed edge p->q for the intersection of the
    # polygon with the disk of radius r centred at the origin
    rp, rq = np.hypot(*p), np.hypot(*q)
    cross = p[0] * q[1] - p[1] * q[0]
    if rp <= r and rq <= r:
        return 0.5 * cross
    d = (q[0] - p[0], q[1] - p[1])
    dd = d[0] * d[0] + d[1] * d[1]
    if dd < 1e-300:
        return 0.0
    pb = p[0] * d[0] + p[1] * d[1]
    disc = pb * pb - dd * (rp * rp - r * r)
    ts = []
    if disc > 0:
        sq = np.sqrt(disc)
        for t in ((-pb - sq) / dd, (-pb + sq) / dd):
            if 0.0 < t < 1.0:
                ts.append(t)
    pts = [np.asarray(p, dtype=float)] + \
          [np.asarray(p, dtype=float) + t * np.asarray(d) for t in sorted(ts)] + \
          [np.asarray(q, dtype=float)]
    area = 0.0
    for u, v in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (u + v)
        if np.hypot(*mid) <= r:
            area += 0.5 * (u[0] * v[1] - u[1] * v[0])
        else:
            da = np.arctan2(v[1], v[0]) - np.arctan2(u[1], u[0])
            while da <= -np.pi:
                da += 2 * np.pi
            while da > np.pi:
                da -= 2 * np.pi
            area += 0.5 * r * r * da
    return area


def _ref_polygon_disk_area(poly, center, r):
    """Exact area of (simple CCW polygon) ∩ (disk of radius r at center)."""
    if len(poly) < 3 or r <= 0:
        return 0.0
    P = [np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
         for p in poly]
    return abs(sum(_ref_segment_disk_area(P[i], P[(i + 1) % len(P)], r)
                   for i in range(len(P))))


def _pad(polys):
    """Stack ragged polygons into (B,K,2) plus counts."""
    K = max([len(p) for p in polys] + [1])
    out = np.zeros((len(polys), K, 2))
    for i, p in enumerate(polys):
        out[i, :len(p)] = p
    return out, np.array([len(p) for p in polys])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(3, 9), seed=st.integers(0, 2 ** 32 - 1),
       aspect=st.floats(1e-3, 1.0), shift=st.floats(-2.0, 2.0),
       r=st.floats(0.01, 3.0))
def test_polygon_disk_areas_match_reference(m, seed, aspect, shift, r):
    # convex polygons: points of an ellipse in angle order, rotated; CW
    # ones too, and disks from inside to well outside the polygon
    rng = np.random.default_rng(seed)
    polys, centers = [], []
    for _ in range(8):
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        if rng.uniform() < 0.5:
            ang = ang[::-1]
        rot = rng.uniform(0.0, 2 * np.pi)
        e = np.stack([np.cos(ang), aspect * np.sin(ang)], axis=1)
        R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
        polys.append(e @ R.T + rng.normal(size=2))
        centers.append(polys[-1].mean(axis=0) + shift * rng.normal(size=2))
    P, k = _pad(polys)
    radii = r * rng.uniform(0.5, 1.0, len(polys))
    got = geo.polygon_disk_areas(P, k, np.array(centers), radii)
    ref = [_ref_polygon_disk_area(p, c, rr)
           for p, c, rr in zip(polys, centers, radii)]
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(-0.1, 1.1))
def test_tet_sections_match_reference(seed, frac):
    # the tests' tet_section against the section of the tetrahedron's hull:
    # same points, same area, same area within a disk
    rng = np.random.default_rng(seed)
    tets = rng.normal(size=(6, 4, 3))
    tets = tets[np.abs([geo.tet_volume(t) for t in tets]) > 1e-3]
    n = rng.normal(size=3)
    h = tets @ n
    c = h.min(axis=1) + frac * np.ptp(h, axis=1)
    axes = np.array(geo.orthonormal_tangents(n / np.linalg.norm(n)))
    origin = rng.normal(size=3)
    for tet, ci in zip(tets, c):
        ref = _ref_polytope_plane_section(tet, n, ci)
        got = tet_section(tet, n, ci, origin, axes)
        assert (len(got) >= 3) == (len(ref) >= 3)
        if len(ref) < 3:
            continue
        ref2 = (np.array(ref) - origin) @ axes.T
        gap = np.linalg.norm(got[:, None] - ref2[None], axis=-1)
        scale = np.max(np.ptp(tet, axis=0))
        tol = 1e-12 * (scale + np.linalg.norm(origin))
        assert np.all(gap.min(axis=1) <= tol)
        assert np.all(gap.min(axis=0) <= tol)
        assert abs(polygon_area(got)) == pytest.approx(
            abs(polygon_area(ref2)), rel=1e-9, abs=1e-14 * scale ** 2)
        center = ref2.mean(axis=0) + rng.normal(size=2) * scale
        r = rng.uniform(0.05, 1.0) * scale
        assert _disk_area(got, center, r) == pytest.approx(
            _ref_polygon_disk_area(ref2, center, r), rel=1e-9,
            abs=1e-14 * scale ** 2)


def test_polygon_disk_areas_vertex_at_centre():
    # sections through a cylinder's axis have a vertex at the disk centre,
    # exactly or up to rounding, with either sign of zero
    wedge = 0.5 * 0.25 * (np.arctan(5.0) - np.arctan(0.2))
    for z in (0.0, -0.0, 1e-17, -3e-17):
        P = np.array([[[z, z], [1.0, 0.2], [1.0, 1.0], [0.2, 1.0]]])
        assert geo.polygon_disk_areas(P, [4], (0.0, 0.0), 0.5)[0] == \
            pytest.approx(wedge, rel=1e-12, abs=0)
        assert geo.polygon_disk_areas(P[:, ::-1], [4], (0.0, 0.0), 0.5)[0] \
            == pytest.approx(wedge, rel=1e-12, abs=0)
        sq = np.array([[[z, z], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
        for r, want in ((0.5, np.pi / 16), (1.0, np.pi / 4), (2.0, 1.0)):
            assert geo.polygon_disk_areas(sq, [4], (0.0, 0.0), r)[0] == \
                pytest.approx(want, rel=1e-12, abs=0)


def test_polygon_disk_areas_special_edges():
    def area(poly, r, k=None):
        P = np.array([poly], dtype=float)
        return geo.polygon_disk_areas(P, [len(poly) if k is None else k],
                                      (0.0, 0.0), r)[0]

    # an edge through the centre: half the disk
    assert area([[-1, 0], [1, 0], [1, 1], [-1, 1]], 0.5) == \
        pytest.approx(np.pi / 8, rel=1e-12, abs=0)
    # a tangent edge, from outside and from inside
    assert area([[-1, 0.5], [1, 0.5], [1, 2], [-1, 2]], 0.5) == 0.0
    assert area([[-1, -2], [1, -2], [1, 0.5], [-1, 0.5]], 0.5) == \
        pytest.approx(np.pi / 4, rel=1e-12, abs=0)
    # a repeated vertex changes nothing
    sq = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    assert area(sq[:2] + sq[1:], 0.7) == pytest.approx(area(sq, 0.7),
                                                       rel=1e-14, abs=0)
    assert area(sq[:2] + sq[1:], 0.7) == pytest.approx(
        _ref_polygon_disk_area(np.array(sq[:2] + sq[1:], float), (0, 0),
                               0.7), rel=1e-12, abs=0)
    # fewer than 3 points, and r <= 0
    assert area(sq, 0.7, k=2) == 0.0
    assert area(sq, 0.0) == 0.0
    assert area(sq, -1.0) == 0.0


def test_plane_sections_through_tet_vertices():
    up, axes = np.array([0.0, 0, 1]), np.eye(3)[:2]
    # the base plane holds three vertices; the top one only the apex
    k = [len(tet_section(REF_TET, up, c, np.zeros(3), axes))
         for c in (0.0, 1.0, 1.5, -0.5)]
    assert k == [3, 0, 0, 0]
    poly = tet_section(REF_TET, up, 0.0, np.zeros(3), axes)
    assert abs(polygon_area(poly)) == pytest.approx(0.5)
    # the plane x = y holds vertices 0 and 3 and cuts edge 1-2
    n = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    t2, t3 = geo.orthonormal_tangents(n)
    poly = tet_section(REF_TET, n, 0.0, np.zeros(3), np.stack([t2, t3]))
    ref = _ref_polytope_plane_section(REF_TET, n, 0.0)
    assert len(poly) == len(ref) == 3
    ref2 = np.array(ref) @ np.stack([t2, t3]).T
    assert abs(polygon_area(poly)) == pytest.approx(
        abs(polygon_area(ref2)), rel=1e-12, abs=0)
    assert abs(polygon_area(ref2)) == pytest.approx(
        0.5 * np.sqrt(0.5), rel=1e-12, abs=0)
