"""Simplicial complexes carrying piecewise affine homeomorphisms.

A complex stores points and 3-cells; all subsimplices and incidence are
derived.  A PLMap attaches one affine piece (matrix + offset) per cell.
The module validates both structures and extracts the local face/edge/vertex
pictures (canonical frames) that the smoothing construction assumes.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import geometry as geo
from .errors import (ContinuityError, DegenerateSimplexError, DomainError,
                     IntersectionError, NonInjectiveError, OrientationError,
                     ParseError)


# ---------------------------------------------------------------------------
# complex


class SimplicialComplex:
    """Finite 3D simplicial complex with derived incidence structure."""

    def __init__(self, points, cells, validate=True):
        self.points, c = _reals(points), _reals(cells)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ParseError("points must be an (n,3) array")
        if c.ndim != 2 or c.shape[1] != 4:
            raise ParseError("cells must be an (m,4) array of point indices")
        _first_bad(points, ~np.isfinite(self.points), "points",
                   "a finite number")
        n = len(self.points)
        _first_bad(cells, ~((c >= 0) & (c < n) & (np.floor(c) == c)),
                   "cells", f"a point index in [0, {n})")
        self.cells = c.astype(int)
        # orient every cell positively by the sign bit of its determinant,
        # which survives under- and overflow; keep each cell's first vertex
        # and inverse edge matrix for locate (a degenerate cell, which
        # validate rejects, gets a non-finite one)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            flip = np.signbit(geo.det3(self._edge_vectors()))
            self.cells[flip] = self.cells[flip][:, [0, 1, 3, 2]]
            self._edge_inv = geo.inv3(self._edge_vectors())
        self._p0 = self.points[self.cells[:, 0]]
        self._build_incidence()
        if validate:
            self.validate()

    # -- construction helpers

    def _edge_vectors(self):
        """Rows p_i - p_0, i = 1, 2, 3, of every cell (m,3,3)."""
        P = self.points[self.cells]
        return P[:, 1:] - P[:, :1]

    def _build_incidence(self):
        self.face_cells = {}
        self.edge_cells = {}
        self.vertex_cells = {}
        # plain ints, so simplices print as (0, 7) in messages and keys
        for ci, cell in enumerate(self.cells.tolist()):
            for tri in combinations(sorted(cell), 3):
                self.face_cells.setdefault(tri, []).append(ci)
            for seg in combinations(sorted(cell), 2):
                self.edge_cells.setdefault(seg, []).append(ci)
            for v in cell:
                self.vertex_cells.setdefault(v, []).append(ci)
        self.faces = sorted(self.face_cells)
        self.edges = sorted(self.edge_cells)
        self.vertices = sorted(self.vertex_cells)
        self.boundary_faces = {f for f, cs in self.face_cells.items() if len(cs) == 1}
        self.boundary_edges = {e for f in self.boundary_faces
                               for e in combinations(f, 2)}
        self.boundary_vertices = {v for f in self.boundary_faces for v in f}

    # -- queries

    @property
    def n_points(self):
        return len(self.points)

    @property
    def n_cells(self):
        return len(self.cells)

    def cell_points(self, ci):
        return self.points[self.cells[ci]]

    def cell_volumes(self):
        """The volume of every cell (m,), from one batched determinant."""
        return np.abs(np.linalg.det(self._edge_vectors())) / 6.0

    def coordinate_scale(self):
        return float(max(np.ptp(self.points, axis=0).max(), 1e-300))

    def _unit_scale(self):
        """The power of two that brings the coordinate scale into [1/2, 1).
        Multiplying by it is exact, and keeps cubed edge lengths and cross
        products of edge vectors clear of over- and underflow."""
        return np.ldexp(1.0, -np.frexp(self.coordinate_scale())[1])

    def _scaled_cells(self):
        """Cell vertex coordinates (m,4,3), centred, so that the plane
        offsets carry no rounding from a far origin, and unit-scaled."""
        return (self.points[self.cells] - self.points.mean(axis=0)) \
            * self._unit_scale()

    def locate(self, x, tol=1e-10, extend=False):
        """Cell indices containing points ``x`` (N,3); -1 where outside.

        Each point is tested by its smallest barycentric coordinate in a
        cell (the arithmetic of :func:`geometry.barycentric`).  A point
        takes the first cell that contains it exactly (smallest coordinate
        >= 0); otherwise the first cell within ``tol``; otherwise, with
        ``extend``, the least-violated cell, whose smallest coordinate is
        largest (the first on a tie); otherwise -1.  A point with a
        non-finite coordinate gets -1, and so, with ``extend``, does one so
        far out that its coordinates overflow.

        Two passes give that rule.  The first visits the cells in index
        order with the exact test alone, and each point drops out at the
        first cell that holds it.  The second applies the whole rule
        (:meth:`_near_cells`) to the points that no cell holds.  A point
        that some cell holds takes the first such cell under the rule,
        whatever lies within ``tol`` before it, so the first pass's answer
        is the rule's; the others get the rule itself.  Bulk points thus
        cost one exact test per cell up to their own."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(len(x), -1, dtype=int)
        todo = np.arange(len(x))
        if not np.isfinite(x).all():
            todo = todo[np.isfinite(x).all(axis=1)]
        for ci in range(self.n_cells):
            if len(todo) == 0:
                return out
            inside = self._low(x.take(todo, axis=0), ci) >= 0
            out[todo[inside]] = ci
            todo = todo[~inside]
        if len(todo):
            out[todo] = self._near_cells(x.take(todo, axis=0), tol, extend)
        return out

    def _low(self, x, ci):
        """The smallest barycentric coordinate of each point of ``x`` in
        cell ``ci``."""
        l1, l2, l3 = ((x - self._p0[ci]) @ self._edge_inv[ci]).T
        return np.minimum(np.minimum(1.0 - (l1 + l2 + l3), l1),
                          np.minimum(l2, l3))

    def _near_cells(self, x, tol, extend):
        """:meth:`locate`'s rule for points ``x`` that no cell holds: one
        pass over the cells that keeps each point's best smallest
        coordinate, clipped at -``tol`` so that every cell within ``tol``
        ties and the first of them stays the best."""
        out = np.full(len(x), -1, dtype=int)
        best = np.full(len(x), -np.inf)
        for ci in range(self.n_cells):
            score = np.minimum(self._low(x, ci), -tol)
            better = score > best
            best[better] = score[better]
            out[better] = ci
        if not extend:
            out[best < -tol] = -1
        return out

    def contains(self, x):
        return self.locate(x) >= 0

    # -- validation

    def validate(self):
        """No cell is degenerate, and every two cells meet exactly in the
        subsimplex spanned by their shared vertices.  Only a pair that fails
        the second test runs the LP overlap test, which picks the message.
        Both tests work on unit-scaled coordinates, so they are scale-free."""
        s = self._unit_scale()
        D = self._edge_vectors() * s
        edge_len = np.linalg.norm(D, axis=2).max(axis=1)
        degenerate = np.abs(np.linalg.det(D)) < 1e-10 * edge_len ** 3
        if degenerate.any():
            ci = int(np.argmax(degenerate))
            raise DegenerateSimplexError(
                f"cell {ci} is degenerate "
                f"(condition number {np.linalg.cond(D[ci]):.3e})")
        tol = 1e-10 * self.coordinate_scale()
        pairs = self._candidate_pairs(tol)
        bad = pairs[~self._conforming_pairs(pairs, tol)]
        if len(bad):
            a, b = bad[0].tolist()
            P = self._scaled_cells()
            vol, _ = geo.convex_interior_overlap(P[a], P[b], tol=tol * s)
            if vol > (tol * s) ** 3:
                cell = float(np.abs(np.linalg.det(D[[a, b]])).min()) / 6.0
                raise IntersectionError(
                    f"cells {a} and {b} overlap with interior volume "
                    f"{vol / cell:.3e} times the smaller cell's")
            shared = np.intersect1d(self.cells[a], self.cells[b]).tolist()
            raise IntersectionError(
                f"cells {a} and {b} intersect in a set that is not a "
                f"common subsimplex (shared vertices {shared})")

    def _conforming_pairs(self, pairs, tol):
        """:func:`_conforming` on ``pairs``, ``PAIR_CHUNK`` at a time: the
        mask of the pairs whose cells meet exactly in a common subsimplex."""
        planes = geo.halfspaces_of_tet(self._scaled_cells())
        tol = tol * self._unit_scale()
        ok = np.empty(len(pairs), dtype=bool)
        for k in range(0, len(pairs), PAIR_CHUNK):
            ok[k:k + PAIR_CHUNK] = _conforming(self.cells, planes,
                                               pairs[k:k + PAIR_CHUNK], tol)
        return ok

    def _candidate_pairs(self, tol):
        """Cell pairs (a, b), a < b, in lexicographic order, whose bounding
        boxes meet within ``tol``.  Cells that meet have centroids at most
        twice the largest centroid-to-vertex distance apart."""
        P = self.points[self.cells]
        ctr = P.mean(axis=1)
        reach = float(np.linalg.norm(P - ctr[:, None], axis=2).max())
        pairs = close_pairs(ctr, 2.0 * reach + tol)
        lo, hi = P.min(axis=1), P.max(axis=1)
        a, b = pairs[:, 0], pairs[:, 1]
        meet = np.all((lo[a] <= hi[b] + tol) & (lo[b] <= hi[a] + tol), axis=1)
        return pairs[meet]

    # -- serialization

    def to_dict(self):
        return {"points": self.points.tolist(),
                "cells": self.cells.tolist()}


# the offsets of a grid cell itself and of its 13 forward neighbours: each
# pair of neighbouring grid cells is met from exactly one of its two ends
_FORWARD = np.array([o for o in product((-1, 0, 1), repeat=3)
                     if o >= (0, 0, 0)])


def close_pairs(x, r):
    """Index pairs (i, j), i < j, in lexicographic order, of the rows of
    ``x`` (n,3) at most ``r`` apart.  A uniform grid of cell side r buckets
    the points, and each grid cell meets itself and its 13 forward
    neighbours, so the work is linear in points of bounded density."""
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    lo = x.min(axis=0, initial=np.inf)
    span = float((x.max(axis=0, initial=-np.inf) - lo).max(initial=0.0))
    # a coarser grid stays exact; 2^20 cells a side keep the keys in int64,
    # and a side of 1e-150 or more keeps in neighbouring cells the points
    # whose squared distance underflows, which d2 <= r^2 below counts near
    side = max(r, span / 2.0 ** 20, 1e-150)
    # a margin of one grid cell a side keeps every neighbour's key distinct
    ijk = np.floor((x - lo) / side).astype(np.int64) + 1
    dims = ijk.max(axis=0, initial=0) + 2
    key = (ijk[:, 0] * dims[1] + ijk[:, 1]) * dims[2] + ijk[:, 2]
    order = np.argsort(key, kind="stable")
    cell, start, count = np.unique(key[order], return_index=True,
                                   return_counts=True)
    # every occupied grid cell a against each occupied forward neighbour b
    steps = _FORWARD @ [dims[1] * dims[2], dims[2], 1]
    want = (cell + steps[:, None]).ravel()
    at = np.minimum(np.searchsorted(cell, want), len(cell) - 1)
    hit = np.flatnonzero(cell[at] == want)
    a, b = hit % len(cell), at[hit]
    # every member of a against every member of b
    m = count[a] * count[b]
    pos = np.repeat(np.arange(len(a)), m)
    k = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    i = start[a][pos] + k // count[b][pos]
    j = start[b][pos] + k % count[b][pos]
    keep = (a[pos] != b[pos]) | (i < j)
    i, j = order[i[keep]], order[j[keep]]
    d2 = (x[i] - x[j]) ** 2
    near = d2[:, 0] + d2[:, 1] + d2[:, 2] <= r * r
    pairs = np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)[near]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# Cell pairs are checked this many at a time; the (pairs, 56, 3, 3) plane
# systems of one chunk take about 17 MB.
PAIR_CHUNK = 4096
# every choice of 3 of the 8 facet planes of a cell pair
_PLANE_TRIPLES = np.array(list(combinations(range(8), 3)))


def _conforming(cells, planes, pairs, tol):
    """Per cell pair (a, b): do the cells meet exactly in the face of a
    spanned by their shared vertices?  That is, does every vertex of the
    intersection polytope (the feasible solutions of the 56 triples of the 8
    facet planes) lie on the facets of a opposite its unshared vertices?  A
    duplicate cell (4 shared vertices) never conforms."""
    a, b = pairs[:, 0], pairs[:, 1]
    shared = (cells[a][:, :, None] == cells[b][:, None, :]).any(axis=2)
    H = np.concatenate([planes[a], planes[b]], axis=1)
    N = H[:, _PLANE_TRIPLES, :3]
    independent = np.abs(np.linalg.det(N)) > 1e-12
    N[~independent] = np.eye(3)
    X = np.linalg.solve(N, -H[:, _PLANE_TRIPLES, 3:])[..., 0]
    dist = np.einsum("kpc,ktc->ktp", H[..., :3], X) + H[:, None, :, 3]
    vertex = independent & np.all(dist <= tol, axis=2)
    # plane r of a is the facet opposite vertex 3 - r
    off_face = np.any(~shared[:, None, ::-1] & (dist[..., :4] < -tol), axis=2)
    return ~np.any(vertex & off_face, axis=1) & ~shared.all(axis=1)


def _reals(values):
    """``values`` as a float array, NaN at each entry that is not a real
    number (a string, a bool, None or a list where a number belongs)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    return _REAL(np.array(values, dtype=object))


def _real(v):
    """``v`` as a float if it is a real number that a float holds (not a
    bool, nor an int past the float range), else NaN."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            pass
    return np.nan


_REAL = np.vectorize(_real, otypes=[float])


def _first_bad(values, bad, field, what):
    """ParseError naming ``field`` and the index, as plain ints, and value
    of the first entry of ``values`` where ``bad`` holds, if one does."""
    if np.any(bad):
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        raise ParseError(f"{field}[{', '.join(map(str, i))}] must be {what}, "
                         f"got {np.array(values, dtype=object)[i]!r}")


# ---------------------------------------------------------------------------
# piecewise affine maps


class PLMap:
    """Per-cell affine pieces on a validated complex."""

    def __init__(self, complex, matrices, offsets):
        self.complex = complex
        self.matrices = _reals(matrices)
        self.offsets = _reals(offsets)
        if self.matrices.shape != (complex.n_cells, 3, 3):
            raise ParseError("need one 3x3 matrix per cell")
        if self.offsets.shape != (complex.n_cells, 3):
            raise ParseError("need one offset per cell")
        _first_bad(matrices, ~np.isfinite(self.matrices), "matrices",
                   "a finite number")
        _first_bad(offsets, ~np.isfinite(self.offsets), "offsets",
                   "a finite number")

    def piece(self, ci):
        return self.matrices[ci], self.offsets[ci]

    def locate_inside(self, x):
        """Cell of each point; DomainError for a point outside the complex."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ci = self.complex.locate(x)
        if np.any(ci < 0):
            raise DomainError(f"point {x[ci < 0][0]} lies outside the complex")
        return ci

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.apply(x, self.locate_inside(x))

    def apply(self, x, ci):
        """The piece of cell ``ci[k]`` at each point ``x[k]``."""
        return np.einsum("nij,nj->ni", self.matrices[ci], x) + self.offsets[ci]

    def derivative(self, x):
        return self.matrices[self.locate_inside(x)]

    def _cell_images(self):
        """The image of each cell's vertices under its own piece (m,4,3)."""
        P = self.complex.points[self.complex.cells]
        return P @ np.swapaxes(self.matrices, 1, 2) + self.offsets[:, None]

    def image_complex(self):
        """The image mesh: same cells over the mapped vertex positions."""
        cells = self.complex.cells
        imgpts = np.zeros_like(self.complex.points)
        np.add.at(imgpts, cells, self._cell_images())
        imgpts /= np.bincount(cells.ravel(), minlength=len(imgpts))[:, None]
        return SimplicialComplex(imgpts, cells, validate=False)

    def inverse_pl(self, y, tol=1e-9, extend=False):
        """Piecewise affine inverse: locate ``y`` among the image cells, by
        the rule of :meth:`SimplicialComplex.locate`, and apply the stored
        inverse of that cell's piece.  Returns the preimages and the cells.

        With ``extend`` image points that fall (slightly) outside the image
        mesh use the least-violated cell; DomainError for a point without
        one."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        img, invs = self.inverse_pieces()
        ci = img.locate(y, tol=tol, extend=extend)
        if np.any(ci < 0):
            raise DomainError(
                f"point {y[ci < 0][0]} lies outside the image mesh")
        return np.einsum("nij,nj->ni", invs[ci], y - self.offsets[ci]), ci

    def inverse_pieces(self):
        """The image complex and the inverse matrix of every piece (m,3,3),
        built on the first call and kept."""
        if not hasattr(self, "_inverse"):
            self._inverse = self.image_complex(), geo.inv3(self.matrices)
        return self._inverse

    def local_pictures(self):
        """The face pairs, edge fans and vertex stars of the map, built on
        the first call and kept."""
        if not hasattr(self, "_pictures"):
            self._pictures = (face_pairs(self), edge_fans(self),
                              vertex_stars(self))
        return self._pictures

    def to_dict(self):
        d = self.complex.to_dict()
        d["pieces"] = [{"matrix": self.matrices[i].tolist(),
                        "offset": self.offsets[i].tolist()}
                       for i in range(self.complex.n_cells)]
        return d


def pl_map_from_vertex_images(complex, vertex_images):
    """Build the PL map sending each mesh vertex to its image; the pieces are
    the unique affine maps interpolating the four vertex images per cell."""
    P = complex.points[complex.cells]
    Q = np.asarray(vertex_images, dtype=float)[complex.cells]
    M = np.swapaxes(Q[:, 1:] - Q[:, :1], 1, 2) @ \
        np.linalg.inv(np.swapaxes(P[:, 1:] - P[:, :1], 1, 2))
    return PLMap(complex, M, Q[:, 0] - (M @ P[:, 0, :, None])[..., 0])


# ---------------------------------------------------------------------------
# validation report


@dataclass
class ValidationReport:
    orientation: int
    continuity_residual: float
    min_abs_det: float
    injective: bool


def validate_pl_homeo(plmap):
    """Continuity, orientation, and global injectivity of a PL map.

    Continuity is the spread of each vertex's images over all the cells
    that hold it, so cells that share only a vertex are compared too.
    Injectivity is audited on the image cells.  The exact conformity check
    of complex validation runs on every candidate pair, then, in
    lexicographic order, an LP interior-overlap test on each pair that
    fails it or shares at most one vertex (ROADMAP item 2 replaces both).
    A pair that conforms meets the other cell only in their common face, so
    it has no interior overlap; a pair that overlaps fails conformity, so
    the LP still reaches it and finds the first overlap.  Without one, the
    first pair that does not conform touches outside a common face.  Both
    tests run on unit-scaled image coordinates, so the audit is scale-free.

    Orientation comes first: a piece of determinant 0 is a
    DegenerateSimplexError, and mixed signs an OrientationError that names
    the first cell whose sign is not the majority's (cell 0's on a tie).
    """
    cx = plmap.complex
    scale = cx.coordinate_scale()
    tol = 1e-12 * scale

    # cofactor determinants: LU rounds a singular piece's 0 to +-1e-16
    dets = geo.det3(plmap.matrices)
    if np.any(dets == 0):
        raise DegenerateSimplexError(
            f"the piece of cell {int(np.argmax(dets == 0))} is singular "
            f"(determinant 0): it flattens its cell")
    sign = np.sign(dets)
    if np.all(sign == sign[0]):
        orient = int(sign[0])
    else:
        # the majority sign, cell 0's on a tie
        major = np.sign(np.sum(sign)) or sign[0]
        raise OrientationError(f"determinant signs are mixed (first "
                               f"offending cell {int(np.argmax(sign != major))})")

    # continuity: the spread of each vertex's images over its cells
    imgs = plmap._cell_images()
    lo = np.full((cx.n_points, 3), np.inf)
    hi = np.full((cx.n_points, 3), -np.inf)
    np.minimum.at(lo, cx.cells, imgs)
    np.maximum.at(hi, cx.cells, imgs)
    spread = np.max(hi - lo, axis=1)
    resid = float(np.max(spread))
    if resid > tol:
        raise ContinuityError(
            f"pieces disagree at vertex {int(np.argmax(spread))} "
            f"(residual {resid:.3e})")

    # injectivity of the image cells, on unit-scaled coordinates
    img = plmap.inverse_pieces()[0]
    gtol = 1e-10 * scale
    pairs = img._candidate_pairs(gtol)
    conform = img._conforming_pairs(pairs, gtol)
    ca, cb = img.cells[pairs[:, 0]], img.cells[pairs[:, 1]]
    shared = (ca[:, :, None] == cb[:, None, :]).sum(axis=(1, 2))
    s = img._unit_scale()
    P = img._scaled_cells()
    for a, b in pairs[(shared <= 1) | ~conform].tolist():
        vol, witness = geo.convex_interior_overlap(P[a], P[b], tol=gtol * s)
        if vol > (gtol * s) ** 3:
            witness = witness / s + img.points.mean(axis=0)
            raise NonInjectiveError(
                f"image cells overlap near {witness}; map is not injective")
    if not conform.all():
        a, b = pairs[np.argmin(conform)].tolist()
        raise NonInjectiveError(
            f"image cells {a} and {b} touch outside a common face; map is "
            f"not injective")
    return ValidationReport(orientation=orient,
                            continuity_residual=resid,
                            min_abs_det=float(np.min(np.abs(dets))),
                            injective=True)


# ---------------------------------------------------------------------------
# local pictures: face pairs, edge fans, vertex stars


@dataclass
class FacePair:
    face: tuple
    cell_neg: int
    cell_pos: int
    frame: geo.Frame            # row 0 = oriented normal toward the pos side
    M_neg: np.ndarray
    c_neg: np.ndarray
    M_pos: np.ndarray
    c_pos: np.ndarray
    trivial: bool


@dataclass
class EdgeFan:
    edge: tuple
    V0: np.ndarray
    direction: np.ndarray       # unit edge direction
    length: float
    Q: np.ndarray               # domain rotation, row 2 = direction
    S: np.ndarray               # image rotation with S (M e) = (0,0,lam)
    b_img: np.ndarray           # image of V0
    lam: float
    angles: np.ndarray          # sorted ray angles in [-pi, pi)
    ray_faces: list             # face tuple per ray
    sector_cells: list          # cell index per sector [theta_i, theta_{i+1})
    pieces: np.ndarray          # framed linear pieces, (m,3,3), per sector
    min_gap: float              # min over |theta_i - theta_j + k*pi|, capped pi/8
    trivial: bool
    complete_start: bool        # all cells at the start vertex are in the fan
    complete_end: bool

    @property
    def m(self):
        return len(self.angles)

    # both entry by entry, which rounds alike in any batch: the untwist
    # ring amplifies a position's rounding by about 60 / r in Dg
    def to_frame(self, x):
        return geo.rows_times(np.atleast_2d(x) - self.V0, self.Q.T)

    def image_to_world(self, z):
        return geo.rows_times(np.atleast_2d(z), self.S) + self.b_img

    def sector_of(self, theta):
        """Sector index i with angles[i] <= theta < angles[i+1] (cyclic)."""
        th = np.atleast_1d(theta)
        idx = np.searchsorted(self.angles, th, side="right") - 1
        idx[idx < 0] = self.m - 1
        return idx


@dataclass
class VertexStar:
    vertex: int
    V: np.ndarray
    cells: list
    R: float


def pieces_agree(A, B):
    """Whether the linear parts A and B, or stacks of them, are one piece:
    max |A - B| <= 1e-12 max |A|.  Offsets are not compared: where two
    pieces meet, the continuity that validation checks makes equal linear
    parts equal maps."""
    A, B = np.asarray(A), np.asarray(B)
    return bool(np.max(np.abs(A - B)) <= 1e-12 * np.max(np.abs(A)))


def face_pairs(plmap):
    """One FacePair per interior face, with the oriented frame convention:
    the normal points toward the piece with the larger |det| (face_floor)."""
    cx = plmap.complex
    dets = np.abs(geo.det3(plmap.matrices))
    out = []
    for f in cx.faces:
        cs = cx.face_cells[f]
        if len(cs) != 2:
            continue
        p = cx.points[list(f)]
        n = np.cross(p[1] - p[0], p[2] - p[0])
        n = n / np.linalg.norm(n)
        ca, cb = cs
        centa = cx.cell_points(ca).mean(axis=0)
        if np.dot(centa - p[0], n) > 0:
            ca, cb = cb, ca
        # now ca sits on the negative side of n
        Ma, ca_off = plmap.piece(ca)
        Mb, cb_off = plmap.piece(cb)
        trivial = pieces_agree(Ma, Mb)
        # orient n toward the larger |det|
        if not trivial and dets[cb] < dets[ca]:
            n = -n
            ca, cb = cb, ca
            Ma, Mb = Mb, Ma
            ca_off, cb_off = cb_off, ca_off
        R = np.vstack([n, *geo.orthonormal_tangents(n)])
        frame = geo.Frame(origin=p.mean(axis=0), R=R)
        out.append(FacePair(face=f, cell_neg=ca, cell_pos=cb, frame=frame,
                            M_neg=Ma, c_neg=ca_off, M_pos=Mb, c_pos=cb_off,
                            trivial=trivial))
    return out


def edge_fans(plmap):
    """One EdgeFan per interior edge, in the canonical cylindrical frame."""
    cx = plmap.complex
    out = []
    for e in cx.edges:
        if e in cx.boundary_edges:
            continue
        cells = cx.edge_cells[e]
        va, vb = cx.points[e[0]], cx.points[e[1]]
        direction = vb - va
        L = float(np.linalg.norm(direction))
        direction = direction / L
        Qz = geo.rotation_to_e3(direction)  # world -> frame rotation
        # faces through the edge, one per vertex off it in its cells
        rays = []
        for other in set(cx.cells[cells].ravel().tolist()) - set(e):
            y = Qz @ (cx.points[other] - va)
            rays.append((float(np.arctan2(y[1], y[0])),
                         tuple(sorted((*e, other)))))
        rays.sort()
        angles = np.array([r[0] for r in rays])
        ray_faces = [r[1] for r in rays]
        m = len(angles)
        # assign sectors to cells by the angle of the off-edge centroid
        sector_cells = [None] * m
        for ci in cells:
            others = [v for v in cx.cells[ci] if v not in e]
            y = Qz @ (cx.points[others].mean(axis=0) - va)
            th = float(np.arctan2(y[1], y[0]))
            i = int(np.searchsorted(angles, th, side="right") - 1)
            if i < 0:
                i = m - 1
            sector_cells[i] = ci
        if any(s is None for s in sector_cells):
            continue  # non-manifold fan, unsupported
        # image normalization: common edge-image vector
        M0, c0 = plmap.piece(sector_cells[0])
        u = M0 @ (vb - va)
        lam = float(np.linalg.norm(u)) / L
        S = geo.rotation_to_e3(u)
        b_img = M0 @ va + c0
        pieces = np.array([S @ plmap.matrices[ci] @ Qz.T for ci in sector_cells])
        min_gap, trivial = min_gap_and_trivial(angles, pieces)
        completes = []
        for vid in e:
            star = set(cx.vertex_cells[vid])
            completes.append(star <= set(cells))
        out.append(EdgeFan(edge=e, V0=va, direction=direction, length=L,
                           Q=Qz, S=S, b_img=b_img, lam=lam, angles=angles,
                           ray_faces=ray_faces, sector_cells=sector_cells,
                           pieces=pieces, min_gap=min_gap, trivial=trivial,
                           complete_start=completes[0],
                           complete_end=completes[1]))
    return out


def min_gap_and_trivial(angles, pieces):
    """The ``min_gap`` and ``trivial`` fields of an EdgeFan: the smallest
    angle between two distinct ray lines, capped at pi/8, and whether all
    sector pieces agree."""
    i, j = np.triu_indices(len(angles), 1)
    d = np.abs(angles[i] - angles[j]) % np.pi
    d = np.minimum(d, np.pi - d)
    min_gap = min(np.min(np.where(d > 1e-12, d, np.pi), initial=np.pi),
                  np.pi / 8.0)
    return float(min_gap), pieces_agree(pieces[0], pieces)


def vertex_stars(plmap):
    """One VertexStar per interior vertex, with the outer radius R such that
    B(V, 2R) lies inside the star: 0.4 of the distance from the vertex to
    its link, the faces of its cells opposite it.  An interior vertex's star
    is a neighbourhood of it bounded by the link, so no simplex away from
    the vertex comes closer."""
    cx = plmap.complex
    out = []
    for v in cx.vertices:
        if v in cx.boundary_vertices:
            continue
        V = cx.points[v]
        cells = cx.vertex_cells[v]
        link = cx.points[opposite_faces(cx, cells, v)]
        R = 0.4 * float(geo.dist_point_simplex(V, link).min())
        out.append(VertexStar(vertex=v, V=V, cells=cells, R=R))
    return out


def opposite_faces(cx, cells, v):
    """The face opposite vertex v of each of ``cells``, which contain v:
    sorted vertex triples (k, 3)."""
    F = np.sort(cx.cells[cells], axis=1)
    return F[F != v].reshape(-1, 3)


# ---------------------------------------------------------------------------
# document I/O


def load_complex(source):
    """Load a complex (and pieces, if present) from the mesh document.

    ``source`` may be a path, a JSON string, or a dict.  Returns a
    SimplicialComplex, or a PLMap when the document contains pieces.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        try:
            with open(source) as fh:
                text = fh.read()
        except (OSError, TypeError):
            text = source
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"mesh document is not valid JSON: {exc}") from exc
    if "points" not in doc or "cells" not in doc:
        raise ParseError("mesh document must contain 'points' and 'cells'")
    cx = SimplicialComplex(doc["points"], doc["cells"])
    if "pieces" in doc:
        try:
            mats = [p["matrix"] for p in doc["pieces"]]
            offs = [p["offset"] for p in doc["pieces"]]
        except (KeyError, TypeError) as exc:
            raise ParseError("each piece needs 'matrix' and 'offset'") from exc
        if len(mats) != cx.n_cells:
            # the first index past the shorter of the two lists
            raise ParseError(
                f"pieces[{min(len(mats), cx.n_cells)}]: {len(mats)} pieces "
                f"for {cx.n_cells} cells; need one per cell")
        return PLMap(cx, mats, offs)
    return cx


def save_document(obj, path=None):
    """Serialize a complex or map; round-trips coordinates exactly."""
    doc = obj.to_dict()
    text = json.dumps(doc, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
