"""Seeded inputs for the plsmooth benchmark.

Every input is built here from a seed with numpy alone: the meshes, the
piecewise affine maps and the query points.  Nothing is taken from
``plsmooth.builders`` or ``SmoothedMap.sample_patches``, so two commits of
the library receive identical inputs for the same seed.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

WORKLOADS = ("kuhn_sweep", "vertex_ball", "grid_affine")

QUERY_POINTS = 12000
# Share of the query points drawn near interior vertices, edges and faces;
# the rest, and the share of a kind the mesh lacks, is drawn from the bulk.
NEAR_SHARES = {"vertex": 0.25, "edge": 0.25, "face": 0.25}
# How near, as a fraction of the simplex's size (see ``query_points``).  The
# patches are thin: on vertex_ball at seed 0 the ball radius is 0.2 of the
# vertex clearance, the cylinder radius 0.0067 of the shortest interior edge
# and the slab width 1.8e-5 of the shortest face edge; on kuhn_sweep the slab
# width is 4.8e-4 of the shortest face edge.  Points drawn wider than that
# land in the bulk.
VERTEX_NEAR = 0.15
EDGE_NEAR = 0.003
FACE_NEAR = 1e-6

REFERENCE_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

# vertex_ball: the interior vertex image moves by VERTEX_SHIFT along a
# direction drawn within a narrow cone around VERTEX_AXIS.  The cost of the
# sphere-degree certification depends on that direction (about +-12% in
# Newton calls over the whole sphere); the cone keeps one seed's cost close
# to another's, so that run-to-run spread measures the program, not the draw.
VERTEX_SHIFT = 0.08
VERTEX_AXIS = np.array([1.0, -0.5, -0.3])
VERTEX_CONE = 0.05

# grid_affine: 2 x 1 x 1 unit cubes, six Kuhn cells each.
GRID_DIMS = (2, 1, 1)


class Workload:
    """One generated input: the map document plus the query points."""

    def __init__(self, name, seed, points, cells, matrices, offsets):
        self.name = name
        self.seed = seed
        self.points = np.asarray(points, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        self.matrices = np.asarray(matrices, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        self.queries, self.query_kinds = query_points(
            self.points, self.cells, np.random.default_rng([seed, 1]))

    def document(self):
        """The JSON document ``plsmooth.mesh.load_complex`` reads."""
        return {"points": self.points.tolist(),
                "cells": self.cells.tolist(),
                "pieces": [{"matrix": M.tolist(), "offset": c.tolist()}
                           for M, c in zip(self.matrices, self.offsets)]}

    def coordinate_scale(self):
        return float(np.max(np.ptp(self.points, axis=0)))

    def shape(self):
        """Cells, nontrivial interior faces/edges/vertices, query counts."""
        inner = interior_simplices(self.points, self.cells)
        nontrivial = {}
        for kind, simplices in inner.items():
            inc = incident_cells(self.cells, simplices)
            nontrivial[kind] = sum(
                1 for cs in inc
                if not all(np.allclose(self.matrices[c], self.matrices[cs[0]],
                                       atol=1e-14)
                           and np.allclose(self.offsets[c],
                                           self.offsets[cs[0]], atol=1e-14)
                           for c in cs))
        kinds, counts = np.unique(self.query_kinds, return_counts=True)
        return {"cells": int(len(self.cells)),
                "nontrivial_faces": nontrivial["face"],
                "nontrivial_edges": nontrivial["edge"],
                "nontrivial_vertices": nontrivial["vertex"],
                "query_points": int(len(self.queries)),
                "query_kinds": {str(k): int(n) for k, n in zip(kinds, counts)}}


def make(name, seed):
    if name == "kuhn_sweep":
        return kuhn_sweep(seed)
    if name == "vertex_ball":
        return vertex_ball(seed)
    if name == "grid_affine":
        return grid_affine(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# meshes and maps


def kuhn_grid(nx, ny, nz):
    """Unit cubes, each split into the six Kuhn tetrahedra around its main
    diagonal; the same split in every cube keeps the grid conforming."""
    index = {}
    points = []
    for i in range(nx + 1):
        for j in range(ny + 1):
            for k in range(nz + 1):
                index[(i, j, k)] = len(points)
                points.append((i, j, k))
    cells = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                for order in permutations(range(3)):
                    v = [i, j, k]
                    cell = [index[tuple(v)]]
                    for axis in order:
                        v[axis] += 1
                        cell.append(index[tuple(v)])
                    cells.append(cell)
    return np.array(points, dtype=float), np.array(cells)


def pieces_from_images(points, cells, images):
    """The affine piece per cell that sends its four vertices to ``images``."""
    mats, offs = [], []
    for cell in cells:
        P, Q = points[cell], images[cell]
        M = (Q[1:] - Q[0]).T @ np.linalg.inv((P[1:] - P[0]).T)
        mats.append(M)
        offs.append(Q[0] - M @ P[0])
    return np.array(mats), np.array(offs)


def kuhn_sweep(seed):
    """Kuhn cube with each corner image displaced by 0.018-0.03: six
    nontrivial faces, one nontrivial edge (the diagonal), no vertex ball."""
    rng = np.random.default_rng([seed, 0])
    points, cells = kuhn_grid(1, 1, 1)
    disp = rng.uniform(-1.0, 1.0, size=points.shape)
    disp /= np.linalg.norm(disp, axis=1, keepdims=True)
    disp *= 0.03 * rng.uniform(0.6, 1.0, size=(len(points), 1))
    mats, offs = pieces_from_images(points, cells, points + disp)
    return Workload("kuhn_sweep", seed, points, cells, mats, offs)


def vertex_ball(seed):
    """Reference tetrahedron split at (1/4, 1/4, 1/4), identity on the
    boundary, interior vertex image moved by VERTEX_SHIFT."""
    rng = np.random.default_rng([seed, 0])
    points = np.vstack([REFERENCE_TET, [0.25, 0.25, 0.25]])
    cells = np.array([[0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]])
    u = VERTEX_AXIS / np.linalg.norm(VERTEX_AXIS)
    u = u + VERTEX_CONE * rng.normal(size=3)
    images = points.copy()
    images[4] += VERTEX_SHIFT * u / np.linalg.norm(u)
    mats, offs = pieces_from_images(points, cells, images)
    return Workload("vertex_ball", seed, points, cells, mats, offs)


def grid_affine(seed):
    """Kuhn grid of GRID_DIMS cubes under one near-identity affine map with
    positive determinant, so that every face, edge and vertex is trivial."""
    rng = np.random.default_rng([seed, 0])
    points, cells = kuhn_grid(*GRID_DIMS)
    A = np.eye(3) + rng.uniform(-0.05, 0.05, size=(3, 3))
    b = rng.uniform(-0.1, 0.1, size=3)
    mats = np.broadcast_to(A, (len(cells), 3, 3))
    offs = np.broadcast_to(b, (len(cells), 3))
    return Workload("grid_affine", seed, points, cells, mats, offs)


# ---------------------------------------------------------------------------
# mesh combinatorics


def interior_simplices(points, cells):
    """Interior faces, edges and vertices of a 3-manifold complex: a face is
    interior when two cells share it, an edge or vertex when no boundary
    face contains it."""
    face_count = {}
    for cell in cells:
        for tri in combinations(sorted(int(v) for v in cell), 3):
            face_count[tri] = face_count.get(tri, 0) + 1
    boundary = [f for f, n in face_count.items() if n == 1]
    bnd_edges = {e for f in boundary for e in combinations(f, 2)}
    bnd_verts = {v for f in boundary for v in f}
    edges = {e for cell in cells
             for e in combinations(sorted(int(v) for v in cell), 2)}
    return {"face": sorted(f for f, n in face_count.items() if n == 2),
            "edge": sorted(edges - bnd_edges),
            "vertex": [(v,) for v in sorted({int(v) for v in np.unique(cells)}
                                             - bnd_verts)]}


def incident_cells(cells, simplices):
    return [[ci for ci, cell in enumerate(cells) if set(s) <= set(cell)]
            for s in simplices]


def _barycentric(tets, x):
    """Barycentric coordinates of every point in every cell, (N, C, 4)."""
    T = np.transpose(tets[:, 1:] - tets[:, :1], (0, 2, 1))
    lam = np.einsum("cij,ncj->nci", np.linalg.inv(T), x[:, None] - tets[None, :, 0])
    return np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)


def inside(points, cells, x, tol=1e-9):
    """Points of ``x`` lying in some cell of the complex."""
    lam = _barycentric(points[cells], x)
    return np.any(np.all(lam >= -tol, axis=-1), axis=-1)


# ---------------------------------------------------------------------------
# query points


def query_points(points, cells, rng, n=QUERY_POINTS):
    """``n`` points of the complex, a stated share near interior simplices.

    Near a vertex: uniform in a ball of VERTEX_NEAR times its clearance to
    the faces of its star opposite it.  Near an edge: a uniform point of the
    edge pushed in a random direction by at most EDGE_NEAR times its length.
    Near a face: a uniform point of the face pushed along its normal, to
    either side, by at most FACE_NEAR times the length of its first edge.
    Candidates outside the complex are redrawn, so the draw depends only on
    the seed and the mesh.
    """
    inner = interior_simplices(points, cells)
    tets = points[cells]
    vols = np.abs(np.linalg.det(tets[:, 1:] - tets[:, :1])) / 6.0
    out, kinds = [], []
    counts = {kind: int(round(share * n)) if inner[kind] else 0
              for kind, share in NEAR_SHARES.items()}
    counts["bulk"] = n - sum(counts.values())
    for kind, m in counts.items():
        got = np.zeros((0, 3))
        while len(got) < m:
            cand = _near(kind, inner.get(kind), points, cells, tets, vols,
                         rng, 2 * m)
            got = np.vstack([got, cand[inside(points, cells, cand)]])
        out.append(got[:m])
        kinds += [kind] * m
    return np.vstack(out), np.array(kinds)


def _near(kind, simplices, points, cells, tets, vols, rng, m):
    if kind == "bulk":
        pick = rng.choice(len(cells), size=m, p=vols / vols.sum())
        bar = rng.dirichlet(np.ones(4), size=m)
        return np.einsum("nk,nkj->nj", bar, tets[pick])
    pick = rng.integers(len(simplices), size=m)
    verts = points[np.array(simplices)[pick]]
    u = rng.normal(size=(m, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if kind == "vertex":
        clear = np.array([_clearance(points, cells, v) for (v,) in simplices])
        r = VERTEX_NEAR * clear[pick] * rng.uniform(0.0, 1.0, m) ** (1.0 / 3.0)
        return verts[:, 0] + r[:, None] * u
    bar = rng.dirichlet(np.ones(verts.shape[1]), size=m)
    base = np.einsum("nk,nkj->nj", bar, verts)
    size = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    if kind == "face":
        u = np.cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0])
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        size = FACE_NEAR * size * rng.choice([-1.0, 1.0], size=m)
    else:
        size = EDGE_NEAR * size
    return base + (size * rng.uniform(0.0, 1.0, m))[:, None] * u


def _clearance(points, cells, v):
    """Distance from vertex ``v`` to the faces of its star opposite it."""
    V = points[v]
    best = np.inf
    for cell in cells:
        if v not in cell:
            continue
        a, b, c = points[[w for w in cell if w != v]]
        n = np.cross(b - a, c - a)
        best = min(best, abs(float((V - a) @ n)) / float(np.linalg.norm(n)))
    return best
