"""Canonical complexes and piecewise affine maps used throughout the tests
and demos: a single tetrahedron, a two-tetrahedron bipyramid sharing a face,
the six-piece Kuhn triangulation of the unit cube (whose main diagonal is an
interior edge) and of a block of cubes, and a subdivided tetrahedron with one
interior vertex."""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .mesh import PLMap, SimplicialComplex, pl_map_from_vertex_images

REFERENCE_TET = np.array([[0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0]])


def single_tet(points=None):
    pts = REFERENCE_TET if points is None else np.asarray(points, dtype=float)
    return SimplicialComplex(pts, [[0, 1, 2, 3]])


def two_tet(apex_low=(1 / 3, 1 / 3, -1.0), apex_high=(1 / 3, 1 / 3, 1.0)):
    """Two tetrahedra over the triangle {z=0, x+y<=1} sharing that face."""
    pts = np.array([[0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    list(apex_high),
                    list(apex_low)], dtype=float)
    return SimplicialComplex(pts, [[0, 1, 2, 3], [0, 1, 2, 4]])


def two_tet_map(M_low, M_high, offset_low=None, offset_high=None, **kw):
    """A PL map on :func:`two_tet` with prescribed pieces.

    The pieces must agree on the plane z = 0; pass offsets only when the maps
    are genuinely affine.
    """
    cx = two_tet(**kw)
    o_hi = np.zeros(3) if offset_high is None else np.asarray(offset_high, float)
    o_lo = o_hi if offset_low is None else np.asarray(offset_low, float)
    return PLMap(cx, [M_high, M_low], [o_hi, o_lo])


def kuhn_grid(nx, ny, nz):
    """An nx x ny x nz block of unit cubes, each split into the six Kuhn
    tetrahedra x_{s(1)} <= x_{s(2)} <= x_{s(3)} around its main diagonal;
    the same split in every cube keeps the grid conforming.  Point (i, j, k)
    has index (i * (ny + 1) + j) * (nz + 1) + k."""
    shape = (nx + 1, ny + 1, nz + 1)
    points = np.argwhere(np.ones(shape, dtype=bool)).astype(float)
    cells = []
    for cube in np.ndindex(nx, ny, nz):
        for s in permutations(range(3)):
            # from the cube's low corner to its high one, axis by axis
            path = np.cumsum([cube] + [np.eye(3, dtype=int)[a] for a in s[::-1]],
                             axis=0)
            cells.append(np.ravel_multi_index(path.T, shape))
    return SimplicialComplex(points, cells)


def kuhn_cube():
    """The six Kuhn tetrahedra of the unit cube, around its diagonal (0, 7)."""
    return kuhn_grid(1, 1, 1)


def kuhn_identity():
    cx = kuhn_cube()
    eye = np.broadcast_to(np.eye(3), (cx.n_cells, 3, 3)).copy()
    return PLMap(cx, eye, np.zeros((cx.n_cells, 3)))


def perturbed_kuhn_map(magnitude=0.03, seed=11):
    """A genuinely non-affine PL homeomorphism of the cube: the eight corner
    images are displaced by deterministic pseudo-random offsets small enough
    to keep every piece orientation preserving."""
    cx = kuhn_cube()
    rng = np.random.default_rng(seed)
    disp = rng.uniform(-1.0, 1.0, size=(cx.n_points, 3))
    disp /= np.maximum(np.linalg.norm(disp, axis=1, keepdims=True), 1e-12)
    disp *= magnitude * rng.uniform(0.6, 1.0, size=(cx.n_points, 1))
    images = cx.points + disp
    return pl_map_from_vertex_images(cx, images)


def subdivided_tet(interior=(0.25, 0.25, 0.25)):
    """The reference tetrahedron split into four around an interior vertex."""
    pts = np.vstack([REFERENCE_TET, np.asarray(interior, dtype=float)])
    cells = [[0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]
    return SimplicialComplex(pts, cells)


def subdivided_tet_map(interior_image=(0.35, 0.2, 0.22), interior=(0.25, 0.25, 0.25)):
    """Identity on the boundary of the reference tetrahedron, with the
    interior vertex moved; gives a map with one nontrivial interior vertex."""
    cx = subdivided_tet(interior)
    images = cx.points.copy()
    images[4] = np.asarray(interior_image, dtype=float)
    return pl_map_from_vertex_images(cx, images)
