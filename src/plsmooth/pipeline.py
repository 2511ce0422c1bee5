"""Global smoothing pipeline.

choose_params picks per-vertex ball radii R_k, per-edge cylinder radii r_i,
and per-face slab widths w_j so that every local construction is certified
with margin; assemble builds the global smoothed map from vertex, edge, and
face patches over the untouched affine bulk; lambda_sweep scales all
parameters by lambda and tabulates the convergence quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import root as sp_root

from . import edge, vertex
from . import geometry as geo
from .blend import FaceBlend, blend_pass, face_floor
from .edge import EdgeSmoother
from .errors import ConstructionError, ParameterError
from .mesh import (edge_fans, face_pairs, opposite_faces, pieces_agree,
                   validate_pl_homeo, vertex_stars)
from .vertex import VertexSmoother


# ---------------------------------------------------------------------------
# parameters


@dataclass
class SmoothingParams:
    """Baseline (lambda=1) smoothing radii/widths; ``scaled`` applies the
    global shrinking factor."""

    R: dict
    r: dict
    w: dict
    lam: float = 1.0

    def scaled(self, lam):
        if not 0 < lam <= 1:
            raise ParameterError("lambda must be in (0, 1]")
        s = lam / self.lam
        return SmoothingParams(R={k: v * s for k, v in self.R.items()},
                               r={k: v * s for k, v in self.r.items()},
                               w={k: v * s for k, v in self.w.items()},
                               lam=lam)


# every certified bound is halved once more, so the construction holds with
# 2x headroom
MARGIN = 0.5


def choose_params(plmap):
    """Validate the map, then pick certified baseline parameters, each
    scaled by MARGIN.  Only sense-preserving maps are smoothed."""
    if validate_pl_homeo(plmap).orientation < 0:
        raise ConstructionError(
            "the map reverses orientation; the construction needs a "
            "sense-preserving map")
    cx = plmap.complex
    pairs = face_pairs(plmap)
    fans = edge_fans(plmap)
    stars = vertex_stars(plmap)

    R = {}
    for st in stars:
        M = plmap.matrices[st.cells]
        if pieces_agree(M[0], M):
            continue
        R[st.vertex] = MARGIN * st.R

    r = {}
    fan_by_edge = {}
    faces = np.array(cx.faces)
    for fan in fans:
        if fan.trivial:
            continue
        fan_by_edge[fan.edge] = fan
        e = fan.edge
        a, b = cx.points[e[0]], cx.points[e[1]]
        cand = [0.2 * fan.length]
        # each end, the other end, and whether the edge's cells fill the
        # end's star
        ends = ((e[0], e[1], fan.complete_start),
                (e[1], e[0], fan.complete_end))
        for vid, other, complete in ends:
            if vid in R:
                cand.append(0.2 * R[vid])
            elif complete:
                # every cell at vid holds the edge, so a face at vid off the
                # edge spans a cell only with the other end: it is a
                # boundary face, and there is nothing to clear
                pass
            elif vid in cx.boundary_vertices:
                raise ConstructionError(
                    f"edge {e}: endpoint {vid} is a boundary vertex whose "
                    f"star the edge's cells do not fill; edges that reach "
                    f"the boundary are not smoothed")
            else:
                raise ConstructionError(
                    f"edge {e}: endpoint {vid} is neither an interior vertex "
                    f"nor axially complete; unsmoothable")
        # clearance to the faces sharing no vertex with the edge
        far = faces[~np.isin(faces, e).any(axis=1)]
        if len(far):
            cand.append(0.25 * geo.dist_segment_triangle(
                a, b, cx.points[far]).min())
        # the fan cells' faces that meet the edge only at a ball endpoint,
        # those opposite the other end, cleared by the edge from 0.9 R to
        # 0.6 L
        u = (b - a) / fan.length
        for vid, other, complete in ends:
            if complete:
                continue
            base, sgn = (a, 1.0) if vid == e[0] else (b, -1.0)
            tris = opposite_faces(cx, fan.sector_cells, other)
            cand.append(0.45 * geo.dist_segment_triangle(
                base + sgn * (0.9 * R[vid]) * u,
                base + sgn * (0.6 * fan.length) * u, cx.points[tris]).min())
        r[e] = MARGIN * float(min(cand))

    w = {}
    vols = cx.cell_volumes()
    live = np.array([pr.face for pr in pairs if not pr.trivial]).reshape(-1, 3)
    for pr in pairs:
        if pr.trivial:
            continue
        f = pr.face
        # the slab's side face through a boundary edge, which no cylinder
        # covers, must be a boundary face: g would jump across it
        apex, = set(cx.cells[pr.cell_pos].tolist()) - set(f)
        for e2 in combinations(f, 2):
            side = tuple(sorted((*e2, apex)))
            if e2 in cx.boundary_edges and side not in cx.boundary_faces:
                raise ConstructionError(
                    f"face {f}: its slab meets boundary edge {e2} on the "
                    f"interior face {side}; slabs that reach the boundary "
                    f"beside an interior face are not smoothed")
        cand = []
        for e2 in combinations(sorted(f), 2):
            if e2 in r:
                fan = fan_by_edge[e2]
                cand.append(0.45 * (r[e2] / 4.0) * np.tan(fan.min_gap / 8.0))
                cand.append(0.2 * r[e2])
        tri = cx.points[list(f)]
        area = geo.triangle_area(tri)
        for ci in (pr.cell_neg, pr.cell_pos):
            cand.append(0.2 * 3.0 * vols[ci] / area)
        # separation from the nontrivial faces sharing no vertex with f
        far = live[~np.isin(live, f).any(axis=1)]
        if len(far):
            cand.append(0.4 * geo.dist_triangle_triangle(
                tri, cx.points[far]).min())
        w[f] = MARGIN * float(min(cand))
    return SmoothingParams(R=R, r=r, w=w, lam=1.0)


# ---------------------------------------------------------------------------
# patches


class FacePatch:
    """The slab over a face toward ``cell_pos``: the points of that cell at
    distance 0 < s < width from the face.  It is a frustum: its base is the
    face, its top the face moved the fraction t = width / h toward the
    cell's apex, h the apex height, and its volume |cell| t (3 - 3t + t^2),
    the cell less the tetrahedron (1 - t)^3 |cell| at the apex, without the
    cancellation of that difference."""

    def __init__(self, pair, width, tri, apex):
        self.pair = pair
        self.width = float(width)
        self.blend = FaceBlend(frame_origin=pair.frame.origin,
                               frame_R=pair.frame.R,
                               M_neg=pair.M_neg, c_neg=pair.c_neg,
                               M_pos=pair.M_pos, c_pos=pair.c_pos,
                               width=width)
        self.floor = face_floor(self.blend)
        self.tri = np.asarray(tri, dtype=float)
        self.n = pair.frame.R[0]
        self._o = pair.frame.origin
        h = float(self.n @ (apex - self._o))
        t = self.width / h
        if t >= 1.0:
            raise ParameterError(
                f"face {pair.face}: slab width {self.width:.3e} is at or "
                f"above the apex height {h:.3e} of cell {pair.cell_pos}")
        base = self.tri
        cell = geo.tet_volume(np.vstack([base, apex]))
        if cell < 0:
            base, cell = base[[0, 2, 1]], -cell
        self.frustum = np.vstack([base, base + t * (apex - base)])
        # the volumes of the FRUSTUM_TETS
        self.tet_volumes = cell * t * (1.0 - t) ** np.arange(3)
        self.volume = cell * t * (3.0 - 3.0 * t + t * t)
        # the cell's first vertex and inverse edge matrix, as locate keeps
        self._edge_inv = geo.inv3(np.vstack([self.tri[1:], apex])
                                  - self.tri[0])

    def mask(self, x):
        """0 < s < width, and within 1e-12 of ``cell_pos`` by the smallest
        barycentric coordinate (the arithmetic of locate)."""
        s = (x - self._o) @ self.n
        m = (s > 0.0) & (s < self.width)
        if not np.any(m):
            return m
        l1, l2, l3 = ((x[m] - self.tri[0]) @ self._edge_inv).T
        low = np.minimum(np.minimum(1.0 - (l1 + l2 + l3), l1),
                         np.minimum(l2, l3))
        m[np.flatnonzero(m)[low < -1e-12]] = False
        return m

    def evaluate(self, x):
        return blend_pass(self.blend, x, False)[0]

    def jacobian(self, x):
        return blend_pass(self.blend, x, True)


class EdgePatch:
    def __init__(self, fan, widths, radius):
        self.fan = fan
        self.r = float(radius)
        self.L = fan.length
        self.smoother = EdgeSmoother(fan, widths, radius)

    def mask(self, x):
        y = self.fan.to_frame(x)
        t = np.hypot(y[:, 0], y[:, 1])
        return (t < self.r) & (y[:, 2] >= 0.0) & (y[:, 2] <= self.L)

    def evaluate(self, x):
        y = self.fan.to_frame(x)
        return self.fan.image_to_world(self.smoother.apply(y, False)[0])

    def jacobian(self, x):
        y = self.fan.to_frame(x)
        z, J = self.smoother.apply(y, True)
        return self.fan.image_to_world(z), self.fan.S.T @ J @ self.fan.Q


class VertexPatch:
    """The ball of ``radius`` about a star's vertex.  Its smoother's hat_g
    is ``base``, the assembled map without vertex balls (faces blended,
    edges extended), relative to the vertex and its image."""

    def __init__(self, star, radius, base, plmap):
        self.V = star.V
        self.R = float(radius)
        self.star = star
        ci = star.cells[0]
        self.fV = (plmap.matrices[ci] @ self.V) + plmap.offsets[ci]
        self.base = base
        self.smoother = VertexSmoother(self._hat, self.R)

    def _hat(self, xrel, jac):
        y, J = self.base._dispatch(xrel + self.V, jac=jac)
        return y - self.fV, J

    def mask(self, x):
        return np.linalg.norm(x - self.V, axis=-1) < self.R

    def evaluate(self, x):
        return self.fV + self.smoother.apply(x - self.V, False)[0]

    def jacobian(self, x):
        z, J = self.smoother.apply(x - self.V, True)
        return self.fV + z, J


# ---------------------------------------------------------------------------
# the assembled map


class SmoothedMap:
    """g: f with a patch about each nontrivial vertex, edge and face; where
    patches overlap, the lower-dimensional one holds the point."""

    def __init__(self, plmap, params, face_patches, edge_patches,
                 vertex_patches):
        self.plmap = plmap
        self.params = params
        self.face_patches = face_patches
        self.edge_patches = edge_patches
        self.vertex_patches = vertex_patches
        self.scale = plmap.complex.coordinate_scale()
        self._dq = None

    @property
    def patches(self):
        """Every patch in precedence order: vertex, edge, then face."""
        return self.vertex_patches + self.edge_patches + self.face_patches

    # -- dispatch

    def _bulk_cells(self, x, extend):
        if extend:
            return self.plmap.complex.locate(x, extend=True)
        return self.plmap.locate_inside(x)

    def _owners(self, x):
        """The index in ``patches`` of the first patch whose mask holds each
        point of ``x`` (N,3), or -1 for the bulk: the one place that applies
        patch masks, each to the points that no earlier patch holds."""
        owner = np.full(len(x), -1)
        todo = np.arange(len(x))
        for k, p in enumerate(self.patches):
            m = p.mask(x[todo])
            owner[todo[m]] = k
            todo = todo[~m]
        return owner

    def _dispatch(self, x, value=True, jac=False, extend=False):
        """g at points ``x`` (N,3) when ``value`` and Dg when ``jac``, each
        else None: ``_owners``, one call per patch on its points and one bulk
        ``locate``.  A patch's ``jacobian`` gives its value and Jacobian from
        one pass, bit-equal in value to its ``evaluate``."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x) if value else None
        J = np.empty((len(x), 3, 3)) if jac else None
        owner = self._owners(x)
        patches = self.patches
        for k in np.unique(owner[owner >= 0]):
            m = owner == k
            if jac:
                ym, J[m] = patches[k].jacobian(x[m])
                if value:
                    out[m] = ym
            else:
                out[m] = patches[k].evaluate(x[m])
        todo = owner < 0
        if np.any(todo):
            ci = self._bulk_cells(x[todo], extend)
            if value:
                out[todo] = self.plmap.apply(x[todo], ci)
            if jac:
                J[todo] = self.plmap.matrices[ci]
        return out, J

    def evaluate(self, x, extend=False):
        return self._dispatch(x, extend=extend)[0]

    def derivative(self, x, extend=False):
        return self._dispatch(x, value=False, jac=True, extend=extend)[1]

    def contains(self, x):
        return self.plmap.complex.contains(x)

    # -- inverse

    def inverse(self, y):
        """Damped Newton from the PL inverse, to a residual of 1e-13 times
        the coordinate scale in at most 60 steps, then Powell's hybrid
        method for the points still above it.  Each accepted iterate's
        residual and Jacobian come from one dispatch."""
        y = np.asarray(y, dtype=float)
        x, _ = self.plmap.inverse_pl(y, tol=1e-7, extend=True)
        tol = 1e-13 * self.scale
        gx, J = self._dispatch(x, jac=True, extend=True)
        res = gx - y
        rn = np.linalg.norm(res, axis=-1)
        for _ in range(60):
            act = rn > tol
            if not np.any(act):
                break
            step = np.linalg.solve(J[act], res[act][..., None])[..., 0]
            alpha = np.ones(int(act.sum()))
            xa = x[act]
            ra = rn[act]
            for _h in range(6):
                trial = xa - alpha[:, None] * step
                tres = self.evaluate(trial, extend=True) - y[act]
                tn = np.linalg.norm(tres, axis=-1)
                worse = tn > ra * (1.0 - 1e-4 * alpha)
                if not np.any(worse):
                    break
                alpha[worse] *= 0.5
            x[act] = xa - alpha[:, None] * step
            gx, J[act] = self._dispatch(x[act], jac=True, extend=True)
            res[act] = gx - y[act]
            rn[act] = np.linalg.norm(res[act], axis=-1)
        # Powell hybrid fallback for points where the damped Newton cycles
        # (the untwist stage has badly conditioned Jacobians)
        for k in np.where(rn > tol)[0]:
            sol = sp_root(
                lambda xs: self.evaluate(xs[None], extend=True)[0] - y[k],
                x[k],
                jac=lambda xs: self.derivative(xs[None], extend=True)[0],
                method="hybr", tol=1e-14)
            if np.linalg.norm(sol.fun) < rn[k]:
                x[k] = sol.x
                rn[k] = np.linalg.norm(sol.fun)
        if np.any(rn > 100 * tol):
            k = int(np.argmax(rn))
            raise ConstructionError(
                f"inverse Newton stagnated at residual {rn[k]:.3e} for {y[k]}")
        return x

    # -- difference-set geometry

    def difference_quadrature(self):
        """Fixed quadrature nodes and weights covering {g != f}, per patch;
        a node keeps its weight only where ``_owners`` gives it to the patch
        that made it, and a cylinder node only within the domain.

        Built once and kept, with two per-node records for lambda_sweep:
        the node's column and the cell that the domain test located (-1
        where none).  A column is one cylinder's nodes at one (t, theta).
        Every piece of an edge fan maps the edge direction e to one image
        vector f'e, so on its cylinder g(x + z e) = g(x) + z f'e and
        Dg(x + z e) = Dg(x), as f within a fan cell: g - f, Dg and Df are
        shared along a column.  Slab and ball nodes, and cylinder nodes
        that another patch holds (their g is that patch's), have column
        -1."""
        if self._dq is None:
            self._dq = self._quadrature()
        return self._dq[:2]

    def _quadrature(self):
        """(pts, wts, column, cell) of difference_quadrature: the slabs'
        nodes (by face, frustum tetrahedron, child and node), then the
        cylinders', then the balls'."""
        nv, ne = len(self.vertex_patches), len(self.edge_patches)
        cyls = [self._cylinder_nodes(ep) for ep in self.edge_patches]
        groups = ([geo.map_tet_rule(geo.subdivide_tet(
                       fp.frustum[geo.FRUSTUM_TETS]).reshape(-1, 4, 3), 3)
                   for fp in self.face_patches]
                  + [c[:2] for c in cyls]
                  + [self._ball_nodes(vp) for vp in self.vertex_patches])
        if not groups:
            return np.zeros((0, 3)), np.zeros(0), *np.full((2, 0), -1)
        pts = np.vstack([p.reshape(-1, 3) for p, _ in groups])
        wts = np.concatenate([w.ravel() for _, w in groups])
        # the index in ``patches`` of the patch that made each node
        made = np.repeat(np.r_[nv + ne:len(groups), nv:nv + ne, :nv],
                         [w.size for _, w in groups])
        own = self._owners(pts) == made
        col, cell = np.full((2, len(pts)), -1)
        for k, (p, _, c) in enumerate(cyls):
            part = made == nv + k
            col[part] = c + col.max() + 1
            cell[part] = self.plmap.complex.locate(p)
        # a cylinder node (col >= 0) also needs its domain test
        wts[~own | ((cell < 0) & (col >= 0))] = 0.0
        col[~own] = -1
        return pts, wts, col, cell

    def _cylinder_nodes(self, ep):
        """Gauss nodes per radial band (5), angular sector (14) and along
        the edge (16), with the column of each node: the nodes of one
        (t, theta) take one column number, counted from 0."""
        r, L, fan = ep.r, ep.L, ep.fan
        # the cylinder's regions, the untwist ring split where its time
        # profile turns
        k, n = edge._UNTWIST, edge._FIFTHS
        tb = np.array([1e-9, k / n, (k + 1 / 3) / n, (k + 2 / 3) / n,
                       edge._SQUEEZE / n, edge._FLATTEN / n,
                       edge._OUTER / n]) * r
        tn, tw = _panel_gauss(tb, 5)
        ang = np.append(fan.angles, fan.angles[0] + 2 * np.pi)
        thn, thw = _panel_gauss(ang, 14)
        zn, zw = geo.gauss_legendre(16, 0.0, L)
        T, TH, Z = np.meshgrid(tn, thn, zn, indexing="ij")
        W = tw[:, None, None] * thw[None, :, None] * zw[None, None, :] * T
        y = np.stack([T * np.cos(TH), T * np.sin(TH), Z], axis=-1).reshape(-1, 3)
        world = y @ fan.Q + fan.V0
        return world, W.ravel(), np.repeat(np.arange(len(tn) * len(thn)),
                                           len(zn))

    def _ball_nodes(self, vp):
        """Gauss nodes per radial shell (5) and in the polar angle (8), 16
        equispaced azimuths at half steps.  No node then lies on the planes
        x = 0, y = 0, z = 0 or x = +-y through the vertex, which the faces
        of grid-aligned meshes follow: on a face Df jumps, and the cell a
        node takes would depend on the cell order."""
        R = vp.R
        n = vertex._QUARTERS
        rb = np.array([1e-9, vertex._UNTWIST / n, vertex._FLATTEN / n,
                       vertex._OUTER / n]) * R
        rn, rw = _panel_gauss(rb, 5)
        mu, mw = np.polynomial.legendre.leggauss(8)
        phi = np.arccos(mu)
        psi = (np.arange(16) + 0.5) * (2 * np.pi / 16)
        RR, PH, PS = np.meshgrid(rn, phi, psi, indexing="ij")
        W = rw[:, None, None] * mw[None, :, None] * (2 * np.pi / 16) * RR ** 2
        pts = np.stack([RR * np.sin(PH) * np.cos(PS),
                        RR * np.sin(PH) * np.sin(PS),
                        RR * np.cos(PH)], axis=-1).reshape(-1, 3)
        return pts + vp.V, W.ravel()

    def volume_difference_set(self):
        """Measure of E_lambda = {g != f}, by the precedence of ``_owners``:
        each slab less its overlaps with the cylinders and balls, each
        cylinder within the domain less its end balls, and the balls.  Slab
        volumes are exact (the frustum's closed form); overlaps are plane
        sections, each an exact polygon/disk area: across the edge for
        slab/cylinder (less its part in an end ball, which slab/ball holds)
        and cylinder/domain (N_GAUSS nodes on each of N_PANELS panels),
        across the face for slab/ball; cylinder/ball is concentric."""
        total = 0.0
        for fp in self.face_patches:
            v_slab = fp.volume
            for ep in self.edge_patches:
                if set(ep.fan.edge) <= set(fp.pair.face):
                    v_slab -= self._slab_cyl_overlap(fp, ep)
            for vp in self.vertex_patches:
                if vp.star.vertex in fp.pair.face:
                    v_slab -= self._slab_ball_overlap(fp, vp)
            total += max(v_slab, 0.0)
        for ep in self.edge_patches:
            v_cyl = self._cyl_domain_volume(ep)
            for vid in ep.fan.edge:
                for vp in self.vertex_patches:
                    if vp.star.vertex == vid:
                        v_cyl -= _concentric_cyl_ball(ep.r, vp.R)
            total += max(v_cyl, 0.0)
        for vp in self.vertex_patches:
            total += 4.0 / 3.0 * np.pi * vp.R ** 3
        return float(total)

    def _slab_cyl_overlap(self, fp, ep):
        """|slab ∩ cylinder| less its part in the balls at the edge's ends.

        In a section across the edge at distance u from an end, the ball at
        that end is a disk of radius sqrt(R^2 - u^2) about the cylinder's
        axis; its part of the cylinder's disk is integrated with negative
        weights on panels of its own, split where that radius reaches r."""
        fan = ep.fan
        z, wz = _panel_gauss(np.linspace(0.0, ep.L, N_PANELS + 1), N_GAUSS)
        z, wz, radii = [z], [wz], [np.full(len(z), ep.r)]
        for vp in self.vertex_patches:
            if vp.star.vertex not in fan.edge:
                continue
            top = min(vp.R, ep.L)
            kink = min(np.sqrt(max(vp.R ** 2 - ep.r ** 2, 0.0)), top)
            u, wu = _panel_gauss(np.array([0.0, kink, top]), N_GAUSS)
            radii.append(np.minimum(ep.r, np.sqrt(np.maximum(
                vp.R ** 2 - u ** 2, 0.0))))
            z.append(u if vp.star.vertex == fan.edge[0] else ep.L - u)
            wz.append(-wu)
        z, wz = np.concatenate(z), np.concatenate(wz)
        poly, k = geo.plane_sections(fp.frustum, geo.FRUSTUM_EDGES,
                                     fan.direction,
                                     fan.direction @ fan.V0 + z, fan.V0,
                                     fan.Q[:2])
        return float(wz @ geo.polygon_disk_areas(poly, k, (0.0, 0.0),
                                                 np.concatenate(radii)))

    def _slab_ball_overlap(self, fp, vp):
        n, o, axes = fp.n, fp.pair.frame.origin, fp.pair.frame.R[1:]
        s, ws = geo.gauss_legendre(N_GAUSS, 0.0, fp.width)
        poly, k = geo.plane_sections(fp.frustum, geo.FRUSTUM_EDGES, n,
                                     n @ o + s, o, axes)
        return float(ws @ geo.polygon_disk_areas(poly, k, axes @ (vp.V - o),
            np.sqrt(np.maximum(vp.R ** 2 - s ** 2, 0.0))))

    def _cyl_domain_volume(self, ep):
        """|cylinder ∩ domain|, sectioning the cells that span each plane."""
        cx = self.plmap.complex
        fan = ep.fan
        z, wz = _panel_gauss(np.linspace(0.0, ep.L, N_PANELS + 1), N_GAUSS)
        c = fan.direction @ fan.V0 + z
        tets = cx.points[cx.cells]
        h = tets @ fan.direction
        plane, cell = np.nonzero((h.min(axis=1) < c[:, None] + 1e-14)
                                 & (h.max(axis=1) > c[:, None] - 1e-14))
        poly, k = geo.plane_sections(tets[cell], geo.TET_EDGES,
                                     fan.direction, c[plane], fan.V0,
                                     fan.Q[:2])
        area = np.bincount(plane, geo.polygon_disk_areas(
            poly, k, (0.0, 0.0), ep.r), minlength=len(z))
        return float(wz @ area)

    # -- stratified sampling for audits

    def sample_patches(self, n_per_patch=500, rng=None):
        rng = np.random.default_rng(rng if rng is not None else 0)
        cx = self.plmap.complex
        groups = []
        for fp in self.face_patches:
            pick = rng.choice(3, size=n_per_patch,
                              p=fp.tet_volumes / fp.volume)
            bar = rng.dirichlet(np.ones(4), size=n_per_patch)
            tets = fp.frustum[geo.FRUSTUM_TETS[pick]]
            groups.append(np.einsum("nk,nkj->nj", bar, tets))
        for ep in self.edge_patches:
            t = ep.r * np.sqrt(rng.uniform(1e-6, 1.0, 4 * n_per_patch))
            th = rng.uniform(-np.pi, np.pi, 4 * n_per_patch)
            z = rng.uniform(0.0, ep.L, 4 * n_per_patch)
            y = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
            pts = y @ ep.fan.Q + ep.fan.V0
            pts = pts[self.contains(pts)][:n_per_patch]
            groups.append(pts)
        for vp in self.vertex_patches:
            u = rng.normal(size=(n_per_patch, 3))
            u /= np.linalg.norm(u, axis=-1, keepdims=True)
            rad = vp.R * rng.uniform(0, 1, n_per_patch) ** (1 / 3)
            groups.append(vp.V + rad[:, None] * u)
        # bulk
        vols = cx.cell_volumes()
        pick = rng.choice(cx.n_cells, size=4 * n_per_patch,
                          p=vols / vols.sum())
        bar = rng.dirichlet(np.ones(4), size=4 * n_per_patch)
        groups.append(np.einsum("nk,nkj->nj", bar, cx.points[cx.cells[pick]]))
        return np.vstack(groups)


# sectioned overlap integrals of volume_difference_set
N_GAUSS = 12
N_PANELS = 8


def _panel_gauss(breaks, n):
    nodes, wts = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        x, w = geo.gauss_legendre(n, float(a), float(b))
        nodes.append(x)
        wts.append(w)
    return np.concatenate(nodes), np.concatenate(wts)


def _concentric_cyl_ball(r, R):
    """Volume of {t < r} ∩ {|x| < R} on one side of the vertex plane."""
    if r >= R:
        return 2.0 / 3.0 * np.pi * R ** 3
    zs = np.sqrt(R ** 2 - r ** 2)
    return float(np.pi * r ** 2 * zs
                 + np.pi * (R ** 2 * (R - zs) - (R ** 3 - zs ** 3) / 3.0))


# ---------------------------------------------------------------------------
# assembly


def assemble(plmap, params):
    cx = plmap.complex
    pairs = {pr.face: pr for pr in face_pairs(plmap)}
    fans = {fan.edge: fan for fan in edge_fans(plmap)}
    stars = {st.vertex: st for st in vertex_stars(plmap)}

    face_patches = []
    for f, width in params.w.items():
        pr = pairs[f]
        apex, = set(cx.cells[pr.cell_pos].tolist()) - set(f)
        face_patches.append(FacePatch(pr, width, cx.points[list(f)],
                                      cx.points[apex]))
    edge_patches = []
    for e, radius in params.r.items():
        fan = fans[e]
        widths = []
        fallback = min(params.w.values()) if params.w else radius / 50.0
        for rf in fan.ray_faces:
            widths.append(params.w.get(rf, min(fallback, radius / 50.0)))
        edge_patches.append(EdgePatch(fan, widths, radius))
    # the balls' hat_g is g without balls
    base = SmoothedMap(plmap, params, face_patches, edge_patches, [])
    return SmoothedMap(plmap, params, face_patches, edge_patches,
                       [VertexPatch(stars[v], R, base, plmap)
                        for v, R in params.R.items()])


# ---------------------------------------------------------------------------
# the lambda sweep


SWEEP_COLUMNS = ("lambda", "vol_E", "linf_f", "w1p_f", "linf_inv",
                 "w1q_inv", "sup_Dg", "sup_Dginv")


# the sweep's default lambda grid and exponents p and q, which the CLI's
# options share
SWEEP_DEFAULTS = {"lambdas": (1.0, 0.5, 0.25, 0.125, 0.0625), "p": 2.0,
                  "q": 2.0}


def lambda_sweep(plmap, params, lambdas=SWEEP_DEFAULTS["lambdas"],
                 p=SWEEP_DEFAULTS["p"], q=SWEEP_DEFAULTS["q"], rng=0):
    """One row of SWEEP_COLUMNS per lambda, from the active nodes of the
    difference quadrature.

    One dispatch per lambda gives g and Dg at the nodes off any column and
    at one representative x_r per column.  At the column's other nodes Dg
    is x_r's and g(x) = g(x_r) + Df (x - x_r) (difference_quadrature), so
    det Dg, Dg^-1 and the norms are taken once per column.  The cells of f
    and of the inverse stay per node, and a norm against Df or Df^-1 is
    taken again where a node's cell differs from x_r's, as where g moves a
    node near the boundary out of the image mesh."""
    from .norms import linf_difference
    rows = []
    piece_norm = float(np.max(geo.spectral_norm(plmap.matrices)))
    piece_invs = plmap.inverse_pieces()[1]
    piece_inv_norm = float(np.max(geo.spectral_norm(piece_invs)))
    for lam in lambdas:
        g = assemble(plmap, params.scaled(lam))
        vol = g.volume_difference_set()
        pts, wts = g.difference_quadrature()
        col, cell = g._dq[2:]
        act = wts > 0
        pa, wa, col, cf = pts[act], wts[act], col[act], cell[act]
        # f and Df by one locate per node
        off = cf < 0
        cf[off] = plmap.locate_inside(pa[off])
        Df = plmap.matrices[cf]
        # g and Dg by one dispatch: ``rep`` the representative of each
        # node, itself off the columns, the first node of its column on one
        key = np.where(col < 0, -1 - np.arange(len(col)), col)
        _, rep, src = np.unique(key, return_index=True, return_inverse=True)
        yr, Dg = g._dispatch(pa[rep], jac=True)
        y = yr[src] + np.einsum("nij,nj->ni", Df, pa - pa[rep][src])
        w1p = float(np.sum(wa * _column_norms(Dg, Df, cf, rep, src) ** p)
                    ** (1.0 / p))
        linf = linf_difference(
            plmap, g, pa, np.linalg.norm(y - plmap.apply(pa, cf), axis=-1),
            rng=rng)
        # inverse quantities via the change of variables y = g(x)
        Jg = geo.det3(Dg)[src]
        Dgi = geo.inv3(Dg)
        xb, ci = plmap.inverse_pl(y, tol=1e-7, extend=True)
        diff_inv = _column_norms(Dgi, piece_invs[ci], ci, rep, src)
        w1q_inv = float(np.sum(wa * diff_inv ** q * Jg) ** (1.0 / q))
        linf_inv = float(np.max(np.linalg.norm(pa - xb, axis=-1)))
        sup_dg = geo.max_spectral_norm(Dg, piece_norm)
        sup_dgi = geo.max_spectral_norm(Dgi, piece_inv_norm)
        rows.append(dict(zip(SWEEP_COLUMNS,
                             (float(lam), vol, linf, w1p, linf_inv,
                              w1q_inv, sup_dg, sup_dgi))))
    return rows


def _column_norms(G, F, cell, rep, src):
    """The spectral norm of G[src[k]] - F[k] at each node k, G given at the
    representative nodes ``rep`` and F a function of the node's ``cell``:
    one norm per representative, and one more at each node whose cell
    differs from its representative's."""
    out = geo.spectral_norm(G - F[rep])[src]
    moved = cell != cell[rep][src]
    if np.any(moved):
        out[moved] = geo.spectral_norm(G[src[moved]] - F[moved])
    return out


def format_table(rows):
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(f"{row[c]:.12g}" for c in SWEEP_COLUMNS))
    return "\n".join(lines)
