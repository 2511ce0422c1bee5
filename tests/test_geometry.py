"""Geometry helper tests against closed-form oracles."""

from itertools import product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from plsmooth import geometry as geo

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


def test_polygon_area_shoelace():
    sq = [np.array([0.0, 0]), np.array([2.0, 0]),
          np.array([2.0, 2]), np.array([0.0, 2])]
    assert geo.polygon_area(sq) == pytest.approx(4.0)


def test_polygon_disk_area_disk_inside():
    sq = [np.array([-1.0, -1]), np.array([1.0, -1]),
          np.array([1.0, 1]), np.array([-1.0, 1])]
    assert geo.polygon_disk_area(sq, (0, 0), 0.5) == pytest.approx(
        np.pi * 0.25, rel=1e-12)


def test_polygon_disk_area_polygon_inside():
    sq = [np.array([-1.0, -1]), np.array([1.0, -1]),
          np.array([1.0, 1]), np.array([-1.0, 1])]
    assert geo.polygon_disk_area(sq, (0, 0), 10.0) == pytest.approx(4.0)


def test_polygon_disk_area_half_disk():
    # half plane x <= 0 as a big square clipped at x = 0
    sq = [np.array([-9.0, -9]), np.array([0.0, -9]),
          np.array([0.0, 9]), np.array([-9.0, 9])]
    assert geo.polygon_disk_area(sq, (0, 0), 1.0) == pytest.approx(
        np.pi / 2, rel=1e-10)


def test_polygon_disk_area_disjoint():
    sq = [np.array([5.0, 5]), np.array([6.0, 5]),
          np.array([6.0, 6]), np.array([5.0, 6])]
    assert geo.polygon_disk_area(sq, (0, 0), 1.0) == pytest.approx(0.0)


def test_halfspace_polytope_cube():
    H = []
    for j in range(3):
        a = np.zeros(3)
        a[j] = 1.0
        H.append(np.append(a, -1.0))      # x_j <= 1
        H.append(np.append(-a, 0.0))      # x_j >= 0
    verts = geo.halfspace_polytope(np.array(H))
    assert len(verts) == 8
    assert ConvexHull(verts).volume == pytest.approx(1.0)


def test_halfspace_polytope_infeasible():
    H = np.array([[1.0, 0, 0, 0.5], [-1.0, 0, 0, 0.5],
                  [0, 1.0, 0, -1], [0, -1.0, 0, 0],
                  [0, 0, 1.0, -1], [0, 0, -1.0, 0]])
    assert len(geo.halfspace_polytope(H)) == 0


def test_polytope_tets_volume():
    verts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                      for z in (0, 1)], dtype=float)
    tets = geo.polytope_tets(verts)
    total = sum(abs(geo.tet_volume(t)) for t in tets)
    assert total == pytest.approx(1.0)


def test_polytope_plane_section_cube():
    verts = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                      for z in (0, 1)], dtype=float)
    poly = geo.polytope_plane_section(verts, np.array([0.0, 0, 1]), 0.5)
    assert len(poly) >= 4
    assert np.allclose([p[2] for p in poly], 0.5)
    poly2 = [p[:2] for p in poly]
    assert geo.polygon_area(poly2) == pytest.approx(1.0)


def test_tet_plane_section_triangle():
    poly = geo.tet_plane_section(REF_TET, np.array([0.0, 0, 1]), 0.5)
    poly2 = [p[:2] for p in poly]
    # cross section of the corner tet at z = 1/2 is a right triangle
    assert geo.polygon_area(poly2) == pytest.approx(0.125)


def test_gauss_legendre_degree():
    x, w = geo.gauss_legendre(3, 0.0, 1.0)
    assert np.sum(w * x ** 5) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert np.sum(w) == pytest.approx(1.0)


def test_tet_rule_monomials():
    # exact moments over the corner tet: a! b! c! / (a+b+c+3)!
    from math import factorial
    pts, wts = geo.map_tet_rule(REF_TET, 4)
    for (a, b, c) in [(1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 0, 0)]:
        val = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
        exact = (factorial(a) * factorial(b) * factorial(c)
                 / factorial(a + b + c + 3))
        assert val == pytest.approx(exact, rel=1e-12)


def test_subdivide_tet_partition():
    children = geo.subdivide_tet(REF_TET)
    assert len(children) == 8
    vols = [abs(geo.tet_volume(c)) for c in children]
    assert np.allclose(vols, 1.0 / 48.0)


def test_icosphere():
    pts = geo.icosphere(3)
    assert len(pts) == 642
    assert np.allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-12)


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


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(5)
    s = rng.uniform(0.1, 3.0, size=(500, 3))
    top_pair, low_pair, rank2 = s.copy(), s.copy(), s.copy()
    top_pair[:, 1] = top_pair[:, 0] = np.max(s, axis=1)
    low_pair[:, 1] = low_pair[:, 2] = np.min(s, axis=1)
    rank2[:, 2] = 0.0
    u, w = rng.normal(size=(2, 500, 3))
    cases = {
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
    }
    for name, M in cases.items():
        ref = np.linalg.norm(M, ord=2, axis=(1, 2))
        np.testing.assert_allclose(geo.spectral_norm(M), ref, rtol=1e-12,
                                   atol=0, err_msg=name)
    assert geo.spectral_norm([np.diag([2.0, -5.0, 1.0])]) == pytest.approx([5.0])
