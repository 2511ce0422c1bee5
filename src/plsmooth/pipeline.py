"""Global smoothing pipeline.

choose_params picks per-vertex ball radii R_k, per-edge cylinder radii r_i,
and per-face slab widths w_j so that every local construction is certified
with margin; assemble builds the global smoothed map from vertex, edge, and
face patches over the untouched affine bulk; lambda_sweep integrates that
certified map once, at lambda = 1, and weighs its difference quadrature's
nodes by their weights' cubics in lambda to tabulate the convergence
quantities at every lambda.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import edge, vertex
from . import geometry as geo
from .blend import FaceBlend, blend_pass, face_floor
from .edge import EdgeSmoother
from .errors import ConstructionError, DomainError, ParameterError
from .mesh import opposite_faces, pieces_agree, validate_pl_homeo
from .norms import linf_difference
from .vertex import VertexSmoother


def sp_root(*args, **kwargs):
    """``scipy.optimize.root``, imported at the first call: only the Powell
    fallback of :meth:`SmoothedMap.inverse` uses scipy here."""
    from scipy.optimize import root
    return root(*args, **kwargs)


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
    pairs, fans, stars = plmap.local_pictures()

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
    cancellation of that difference.  Its blend is a cone in s: it depends
    on s / width, and its ``floor`` on the pieces alone."""

    def __init__(self, pair, width, tri, apex, floor=None):
        self.pair = pair
        self.width = float(width)
        self.blend = FaceBlend(frame_origin=pair.frame.origin,
                               frame_R=pair.frame.R,
                               M_neg=pair.M_neg, c_neg=pair.c_neg,
                               M_pos=pair.M_pos, c_pos=pair.c_pos,
                               width=width)
        self.floor = face_floor(self.blend) if floor is None else floor
        self.tri, self.apex = np.asarray(tri, dtype=float), apex
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

    def scaled(self, s):
        return FacePatch(self.pair, self.width * s, self.tri, self.apex,
                         self.floor)

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
    """The cylinder of radius ``r`` about a fan's edge.  Scaled, it keeps
    its smoother G and reads it dilated by the product d of the scales:
    g = d G(y / d), Dg = DG(y / d), y in the edge frame (``EdgeSmoother``)."""

    def __init__(self, fan, widths, radius):
        self.fan = fan
        self.r, self.dilation = float(radius), 1.0
        self.L = fan.length
        self.smoother = EdgeSmoother(fan, widths, radius)
        # sup |g - f| / r, shared with the scaled copies (_cylinder_sup)
        self.sup_over_r = []

    def scaled(self, s):
        out = copy.copy(self)
        out.r, out.dilation = self.r * s, self.dilation * s
        return out

    def mask(self, x):
        y = self.fan.to_frame(x)
        t = np.hypot(y[:, 0], y[:, 1])
        return (t < self.r) & (y[:, 2] >= 0.0) & (y[:, 2] <= self.L)

    def evaluate(self, x):
        d = self.dilation
        return self.fan.image_to_world(
            d * self.smoother.apply(self.fan.to_frame(x) / d, False)[0])

    def jacobian(self, x):
        d = self.dilation
        z, J = self.smoother.apply(self.fan.to_frame(x) / d, True)
        return self.fan.image_to_world(d * z), self.fan.S.T @ J @ self.fan.Q


class VertexPatch:
    """The ball of ``radius`` about a star's vertex.  Its smoother's hat_g
    is ``base``, the assembled map without vertex balls (faces blended,
    edges extended), relative to the vertex and its image.  Scaled, like a
    cylinder, it keeps its smoother G: g = fV + d G(y / d), y = x - V."""

    def __init__(self, star, radius, base, plmap):
        self.V = star.V
        self.R, self.dilation = float(radius), 1.0
        self.star = star
        ci = star.cells[0]
        self.fV = (plmap.matrices[ci] @ self.V) + plmap.offsets[ci]
        self.base = base
        self.smoother = VertexSmoother(self._hat, self.R)

    def scaled(self, s):
        out = copy.copy(self)
        out.R, out.dilation = self.R * s, self.dilation * s
        return out

    def _hat(self, xrel, jac):
        y, J = self.base._dispatch(xrel + self.V, jac=jac)
        return y - self.fV, J

    def mask(self, x):
        return np.linalg.norm(x - self.V, axis=-1) < self.R

    def evaluate(self, x):
        d = self.dilation
        return self.fV + d * self.smoother.apply((x - self.V) / d, False)[0]

    def jacobian(self, x):
        d = self.dilation
        z, J = self.smoother.apply((x - self.V) / d, True)
        return self.fV + d * z, J


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

    def scaled(self, lam):
        """g at ``lam``, each radius and width times s = lam / (this map's
        lambda); at its own lambda, this map.  A slab is rebuilt at width
        s w.  A cylinder or ball keeps its smoother G_1 and reads it
        dilated, G_s(y) = s G_1(y / s), DG_s(y) = DG_1(y / s), so nothing
        is certified again.  A ball's G_1 reads g without balls, which is a
        cone about the ball's vertex V in B(V, R) if only the slabs and
        cylinders of simplices at V meet the ball.  They do, since
        R = d(V, link V) / 5 <= d(V, sigma) / 5 for every simplex sigma not
        at V.  A cylinder about an edge e not at V has R + r < d(V, e)
        (``_cylinder_nodes``).  A slab over a face f not at V lies in a cell
        within w <= h / 10 of f, h the cell's height over f.  If V is not in
        that cell, the slab lies 5R from V; if V is its apex, a slab point
        is V + (1 - a) (y - V) with y on f and a < 1/10, 4.5R from V."""
        if lam == self.params.lam:
            return self
        s = lam / self.params.lam
        return SmoothedMap(self.plmap, self.params.scaled(lam),
                           [fp.scaled(s) for fp in self.face_patches],
                           [ep.scaled(s) for ep in self.edge_patches],
                           [vp.scaled(s) for vp in self.vertex_patches])

    @property
    def patches(self):
        """Every patch in precedence order: vertex, edge, then face."""
        return self.vertex_patches + self.edge_patches + self.face_patches

    # -- dispatch

    def _bulk_cells(self, x, extend):
        """The cell of f at each point of ``x`` that no patch holds; with
        ``extend``, the nearest cell for a point outside the complex.
        DomainError for a point without one."""
        if not extend:
            return self.plmap.locate_inside(x)
        ci = self.plmap.complex.locate(x, extend=True)
        if np.any(ci < 0):
            raise DomainError(f"point {x[ci < 0][0]} has no nearest cell")
        return ci

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
        one pass, bit-equal in value to its ``evaluate``.  A batch that no
        patch holds is all bulk: f and Df, with no copy of ``x``."""
        x = np.asarray(x, dtype=float)
        owner = self._owners(x)
        if np.all(owner < 0):
            ci = self._bulk_cells(x, extend)
            return (self.plmap.apply(x, ci) if value else None,
                    self.plmap.matrices[ci] if jac else None)
        out = np.empty_like(x) if value else None
        J = np.empty((len(x), 3, 3)) if jac else None
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
        """Fixed quadrature nodes and weights covering {g != f}, per patch.
        Built once and kept (``_quadrature``), with the cell of f at each
        slab and cylinder node and the patch that made each node."""
        if self._dq is None:
            self._dq = self._quadrature()
        return self._dq[:2]

    def _quadrature(self):
        """(pts, wts, cell, made): the slabs' nodes (``_slab_nodes``), the
        cylinders', the balls'; ``cell`` is -1 at the ball nodes; ``made``
        the index in ``patches`` of the patch that made each node, which
        ``_owners`` gives it.  No mask is applied: each patch's nodes stand
        for the part of it that it owns.  A cylinder drops the pieces that
        a ball or an earlier cylinder holds by its own cuts.  Balls are
        disjoint: R is 0.2 of the distance d from the vertex to its link,
        and each interior vertex lies on or beyond another's link.  A slab
        node, T(s)'s centroid, has barycentric coordinate <= 1/3 on a face
        vertex v, so it lies 2/3 d_v > R from v; that no cylinder or other
        slab holds it is tested, not proved.

        The nodes follow lambda.  Scaled by s, a ball is its dilation by s
        about its vertex and a cylinder its dilation by s across its edge's
        line; a slab keeps its face and cell at width s w, where g - f over
        the width, Dg and Df depend on the height over the width alone.
        Where two patches meet, one dilation maps both.  Ball and slab, and
        ball and cylinder, meet in a cone about the vertex, which lies on
        the face or the edge.  Cylinder and slab meet in a wedge about the
        edge, which lies on the face.  Two cylinders meet in a cone about
        the vertex their edges share, within reach of it.  So at every
        lambda the nodes have the same count, cells and makers, Dg and Df
        the same values there, and each weight is a lam + b lam^2 +
        c lam^3: c lam^3 on a ball; lam^2 times a length affine in lam on a
        cylinder, whose cuts near an end scale about that end; lam times an
        owned section area quadratic in lam on a slab (``lambda_sweep``)."""
        nv, ne = len(self.vertex_patches), len(self.edge_patches)
        groups = ([(p, w, np.full(len(w), fp.pair.cell_pos)) for fp, p, w
                   in zip(self.face_patches, *self._slab_nodes())]
                  + [self._cylinder_nodes(ep) for ep in self.edge_patches]
                  + [self._ball_nodes(vp) for vp in self.vertex_patches])
        if not groups:
            return np.zeros((0, 3)), np.zeros(0), *np.zeros((2, 0), dtype=int)
        pts = np.vstack([g[0].reshape(-1, 3) for g in groups])
        wts = np.concatenate([g[1].ravel() for g in groups])
        cell = np.concatenate([g[2] if len(g) > 2 else np.full(g[1].size, -1)
                               for g in groups])
        made = np.repeat(np.r_[nv + ne:len(groups), nv:nv + ne, :nv],
                         [g[1].size for g in groups])
        return pts, wts, cell, made

    def _slab_nodes(self):
        """(pts (F, m, 3), wts (F, m)): one node per height s of each slab,
        on 4 Gauss panels of 8 on [0, w] (one 8-node panel leaves 4e-3
        relative error on the integral of |c - 1|^2 over the ramp, four
        2e-7).  In ``cell_pos`` a slab's g - f, Dg and Df depend on s alone
        and ``inverse_pl`` puts its image in image cell ``cell_pos``, so a
        node, T(s)'s centroid, stands for the section that the slab owns by
        the precedence of ``_owners``: the cell's triangle T(s), less the
        disks of radius sqrt(R^2 - s^2) of the balls at the face's vertices
        and the strips |sigma| < sqrt(r^2 - s^2), 0 <= z <= L of the
        cylinders on its edges, plus each strip's part in those disks; one
        clip pass and one disk pass take every term."""
        u, wu = _panel_gauss(np.linspace(0.0, 1.0, 5), 8)
        faces, m, pos = self.face_patches, len(u), self.plmap.complex.points
        if not faces:
            return np.zeros((0, m, 3)), np.zeros((0, m))
        # T(s), the frustum's base moved the fraction s / w toward its top
        fr = np.array([fp.frustum for fp in faces])[:, None]
        T = fr[:, :, :3] + u[:, None, None] * (fr[:, :, 3:] - fr[:, :, :3])
        # the terms of the owned area: T(s) within a strip or not, and within
        # a disk or not, each of sign -1 per patch
        terms = [(k, ep, vp) for k, fp in enumerate(faces)
                 for ep in [None] + [ep for ep in self.edge_patches
                                     if set(ep.fan.edge) <= set(fp.pair.face)]
                 for vp in [None] + [vp for vp in self.vertex_patches
                                     if vp.star.vertex in fp.pair.face]]
        k = np.array([t[0] for t in terms], dtype=int)
        o = np.array([fp.pair.frame.origin for fp in faces])
        ax = np.array([fp.pair.frame.R[1:] for fp in faces])
        w = np.array([fp.width for fp in faces])[:, None]
        s = w[k] * u
        plane = lambda i, x: np.einsum("nij,nj->ni", ax[k[i]],
                                       np.reshape(x, (-1, 3)) - o[k[i]])
        y = np.einsum("fij,fmvj->fmvi", ax, T - o[:, None, None])[k]
        # a disk that holds T(s), or the ball's
        ctr = y.mean(axis=2)
        r = 2.0 * np.max(np.linalg.norm(y - ctr[:, :, None], axis=-1), -1)
        ib = [i for i, t in enumerate(terms) if t[2]]
        ctr[ib] = plane(ib, [terms[i][2].V for i in ib])[:, None]
        r[ib] = np.sqrt(np.maximum(np.reshape(
            [terms[i][2].R for i in ib], (-1, 1)) ** 2 - s[ib] ** 2, 0.0))
        # a strip's sides sigma = +-hw and ends z = 0, L about its edge
        # from a0 to a1; the other terms' sides hold the plane, 0.y <= 1
        ic = [i for i, t in enumerate(terms) if t[1]]
        a0, a1 = (plane(ic, [pos[terms[i][1].fan.edge[j]] for i in ic])
                  for j in (0, 1))
        L = np.linalg.norm(a1 - a0, axis=-1)[:, None]
        e = (a1 - a0) / L
        v = np.stack([-e[:, 1], e[:, 0]], axis=-1)
        va, ea = np.sum(v * a0, -1)[:, None], np.sum(e * a0, -1)[:, None]
        hw = np.sqrt(np.maximum(np.reshape(
            [terms[i][1].r for i in ic], (-1, 1)) ** 2 - s[ic] ** 2, 0.0))
        A, B = np.zeros((len(k), 4, 2)), np.ones((len(k), 4, m))
        A[ic] = np.stack([v, -v, -e, e], axis=1)
        B[ic] = np.stack(np.broadcast_arrays(va + hw, hw - va, -ea, ea + L), 1)
        poly, n = y.reshape(-1, 3, 2), np.full(len(k) * m, 3)
        for j in range(4):
            poly, n = geo.clip_polygons(poly, n, np.repeat(A[:, j], m, axis=0),
                                        B[:, j].ravel())
        sign = [(-1.0) ** ((ep is not None) + (vp is not None))
                for _, ep, vp in terms]
        area = np.zeros((len(faces), m))
        np.add.at(area, k, np.reshape(sign, (-1, 1)) * geo.polygon_disk_areas(
            poly, n, ctr.reshape(-1, 2), r.ravel()).reshape(-1, m))
        return T.mean(axis=2), w * wu * np.maximum(area, 0.0)

    def _cylinder_nodes(self, ep):
        """(pts, wts, cell): one node per piece of each (t, theta) column,
        the columns at Gauss nodes per radial band (5) and angular sector
        (14), and the cell of f that holds each node.

        A column p + z e, 0 <= z <= L, is cut where it enters or leaves a
        cell (``geo.line_cell_intervals``), crosses a ball's sphere or
        another cylinder's side (a quadratic in z) or that cylinder's end
        planes.  So every boundary of a ball or cylinder mask and every cell
        boundary is a cut, and on a piece between two cuts one patch and
        one cell hold every point.  Every piece of an edge fan maps e to one
        image vector f'e, so on the cylinder g(x + z e) = g(x) + z f'e and
        Dg(x + z e) = Dg(x): Dg and Df are constant on a piece, and its
        midpoint, weighted by its (t, theta) weight times its length,
        integrates them exactly along the edge.  Dropped before the cells
        are found are the pieces under 1e-10 L (which the cells' tolerance
        makes at shared faces), those between a ball's two sphere roots,
        which the ball holds, and those between an earlier cylinder's two
        side roots and within its two end-plane cuts, which that cylinder
        holds by the precedence of ``_owners``; then the pieces in no cell.
        The weights left sum to the volume the cylinder owns.  A node takes
        the first cell by index whose interval holds it, the exact-first
        rule of ``locate``.

        Only the cells, balls and cylinders at the edge e's ends are cut, as
        no other meets the cylinder: r <= d(e, F) / 8 for every face F with
        no vertex of e (``choose_params``).  A cell at neither end has only
        such faces.  An edge e' at neither end is interior, as e is, so each
        has three faces or more, one without a vertex of the other:
        r + r' <= d(e, e') / 4.  A ball's vertex V has a sphere for link, so
        a face at V has no vertex of e: R + r <= (1/5 + 1/8) d(V, e)."""
        L, e = ep.L, ep.fan.direction
        p, area = self._columns(ep)
        cx, tips = self.plmap.complex, set(ep.fan.edge)
        cells = np.unique(np.concatenate([cx.vertex_cells[v] for v in tips]))
        lo, hi = geo.line_cell_intervals(p[:, None], e, cx._p0[cells],
                                         cx._edge_inv[cells])
        hit = lo <= hi
        cuts = [np.where(hit, lo, L), np.where(hit, hi, L), np.full(len(p), L)]
        # the spans of z that a ball or an earlier cylinder holds: between
        # two side roots and two end-plane cuts (a ball's are infinite)
        held, inf = [], np.full(len(p), np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for vp in self.vertex_patches:
                if vp.star.vertex in tips:
                    held.append((*_roots(1.0, (p - vp.V) @ e, np.sum(
                        (p - vp.V) ** 2, axis=-1) - vp.R ** 2), -inf, inf))
            cuts += [z for span in held for z in span[:2]]
            own = self.edge_patches.index(ep)
            for k, other in enumerate(self.edge_patches):
                if k == own or not tips & set(other.fan.edge):
                    continue
                y, f = other.fan.to_frame(p), other.fan.Q @ e
                side = _roots(f[:2] @ f[:2], y[:, :2] @ f[:2],
                              np.sum(y[:, :2] ** 2, axis=-1) - other.r ** 2)
                ends = (-y[:, 2] / f[2], (other.L - y[:, 2]) / f[2])
                cuts += [*side, *ends]
                if k < own:
                    held.append((*side, np.minimum(*ends), np.maximum(*ends)))
        z = np.column_stack(cuts)
        z = np.sort(np.where(z > 0.0, np.minimum(z, L), L), axis=1)
        z = np.column_stack([np.zeros(len(p)),
                             z[:, :1 + np.max(np.sum(z < L, axis=1))]])
        mid = 0.5 * (z[:, :-1] + z[:, 1:])
        keep = np.diff(z) > 1e-10 * L
        for z1, z2, a, b in held:
            keep &= ~((z1[:, None] < mid) & (mid < z2[:, None])
                      & (a[:, None] <= mid) & (mid <= b[:, None]))
        col, piece = np.nonzero(keep)
        mid = mid[col, piece]
        cell = np.full(len(col), -1)
        for j in range(len(cells) - 1, -1, -1):
            cell[(lo[col, j] <= mid) & (mid <= hi[col, j])] = cells[j]
        col, piece, mid, cell = (a[cell >= 0] for a in (col, piece, mid, cell))
        return (p[col] + mid[:, None] * e, area[col] * np.diff(z)[col, piece],
                cell)

    def _columns(self, ep):
        """The cylinder's (t, theta) columns: their points at z = 0 in the
        world and their area weights t dt dtheta."""
        fan = ep.fan
        # the cylinder's regions, the untwist ring split where its time
        # profile turns
        k, n = edge._UNTWIST, edge._FIFTHS
        tb = np.array([1e-9, k / n, (k + 1 / 3) / n, (k + 2 / 3) / n,
                       edge._SQUEEZE / n, edge._FLATTEN / n,
                       edge._OUTER / n]) * ep.r
        tn, tw = _panel_gauss(tb, 5)
        ang = np.append(fan.angles, fan.angles[0] + 2 * np.pi)
        thn, thw = _panel_gauss(ang, 14)
        T, TH = (a.ravel() for a in np.meshgrid(tn, thn, indexing="ij"))
        p = np.stack([T * np.cos(TH), T * np.sin(TH), 0.0 * T], axis=-1)
        return p @ fan.Q + fan.V0, np.outer(tw, thw).ravel() * T

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
        """Measure of E_lambda = {g != f}: the sum of the difference
        quadrature's weights.  A slab's weights sum to its owned sections
        (``_slab_nodes``), a cylinder's to its owned pieces of each column
        (``_cylinder_nodes``) and a ball's to 4/3 pi R^3 (``_ball_nodes``)."""
        return float(np.sum(self.difference_quadrature()[1]))

    # -- sup |g - f|

    def linf_f(self, pts, diff, made):
        """sup |g - f| per patch, from the active quadrature nodes ``pts``,
        |g - f| there and the patch that ``made`` each.  A slab's g - f is
        -(1 - eta(u)) u w a, u = s / w, a its jump: its sup is w |a| KAPPA.
        A cylinder's is found by ``_cylinder_sup``; the balls keep
        ``linf_difference``'s estimate from their nodes."""
        nv, ne = len(self.vertex_patches), len(self.edge_patches)
        held = np.bincount(made, minlength=len(self.patches))[nv + ne:] > 0
        sups = [KAPPA * fp.width * float(np.linalg.norm(fp.blend.jump))
                for fp, h in zip(self.face_patches, held) if h]
        for k, ep in enumerate(self.edge_patches):
            m = np.flatnonzero(made == nv + k)
            if len(m):
                sups.append(self._cylinder_sup(ep, pts[m[np.argmax(diff[m])]]))
        ball = made < nv
        return max(sups + [float(np.max(diff, initial=0.0)), linf_difference(
            self.plmap, self, pts[ball], diff[ball])])

    def _cylinder_sup(self, ep, x0):
        """sup |g - f| on a cylinder, where it does not change along the
        edge: the best of 17 x 17 (t, theta) grids, t <= r, at the height of
        ``x0``, about the best point so far (from ``x0``) and a quarter as
        wide each round; g by ``ep.evaluate``, f by the sector's piece.  A
        cone: its scaled copies share ``ep.sup_over_r``."""
        if not ep.sup_over_r:
            fan, (y1, y2, z) = ep.fan, ep.fan.to_frame(x0)[0]
            c = np.array([np.hypot(y1, y2), np.arctan2(y2, y1)])
            h, best = np.array([ep.r / 5.0, np.pi / 7.0]), 0.0
            for _ in range(8):
                t, th = np.reshape(np.meshgrid(*(c[:, None] + h[:, None]
                                                 * np.linspace(-1, 1, 17)),
                                               indexing="ij"), (2, -1))
                t = np.clip(t, 0.0, ep.r)
                x = (edge._foot(t, th) + [0.0, 0.0, z]) @ fan.Q + fan.V0
                d = np.linalg.norm(ep.evaluate(x) - self.plmap.apply(
                    x, np.array(fan.sector_cells)[fan.sector_of(
                        edge._principal(th))]), axis=-1)
                k = int(np.argmax(d))
                if d[k] > best:
                    best, c = float(d[k]), np.array([t[k], th[k]])
                h = h / 4.0
            ep.sup_over_r.append(best / ep.r)
        return ep.sup_over_r[0] * ep.r

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


# the largest u (1 - eta(u)) on [0, 1], found by a 1-D search
KAPPA = 0.2792802402223965


def _panel_gauss(breaks, n):
    nodes, wts = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        x, w = geo.gauss_legendre(n, float(a), float(b))
        nodes.append(x)
        wts.append(w)
    return np.concatenate(nodes), np.concatenate(wts)


def _roots(a, b, c):
    """Both roots of a z^2 + 2 b z + c, NaN where they are not real."""
    s = np.sqrt(b * b - a * c)
    return (-b - s) / a, (-b + s) / a


# ---------------------------------------------------------------------------
# assembly


def assemble(plmap, params):
    cx = plmap.complex
    pairs, fans, stars = plmap.local_pictures()
    pairs = {pr.face: pr for pr in pairs}
    fans = {fan.edge: fan for fan in fans}
    stars = {st.vertex: st for st in stars}

    face_patches = []
    for f, width in params.w.items():
        pr = pairs[f]
        apex, = set(cx.cells[pr.cell_pos].tolist()) - set(f)
        face_patches.append(FacePatch(pr, width, cx.points[list(f)],
                                      cx.points[apex]))
    edge_patches = []
    for e, radius in params.r.items():
        fan = fans[e]
        fallback = min(params.w.values()) if params.w else radius / 50.0
        widths = []
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


# the lambdas whose difference quadratures fit each node's weight cubic
_FIT_LAMBDAS = (1.0, 0.5, 0.25)


def lambda_sweep(plmap, params, lambdas=SWEEP_DEFAULTS["lambdas"],
                 p=SWEEP_DEFAULTS["p"], q=SWEEP_DEFAULTS["q"]):
    """One row of SWEEP_COLUMNS per lambda, from one integration of g,
    assembled and certified once.  The difference quadrature of
    ``g.scaled(lam)`` is the same at every lambda node for node, in count,
    cell and maker, and each weight is a cubic w(lam) = a lam + b lam^2 +
    c lam^3, while Dg, Df and Dg^-1 keep their values at the node
    (``_quadrature``).  The quadratures at _FIT_LAMBDAS give every node's
    coefficients; a ConstructionError says they do not match.  At the
    lambda = 1 nodes one dispatch gives g and Dg, the cell of f is the
    node's record or, at the ball nodes, one locate's, one ``inverse_pl``
    gives the cell of the inverse, and ``linf_f`` is taken once.  ``nodes``
    keeps this work: the coefficients of lam^3, lam^2 and lam (rows) and
    |Dg - Df|, |Dg^-1 - Df^-1| and det Dg at each active node, and the
    lambda = 1 sups.  A row is then a weighted sum: vol_E = sum w(lam),
    w1p_f^p = sum w(lam) |Dg - Df|^p, w1q_inv^q = sum w(lam)
    |Dg^-1 - Df^-1|^q det Dg.  linf_f and linf_inv are lam times their
    lambda = 1 values (the balls' sampled term of linf_f too), sup_Dg and
    sup_Dginv their lambda = 1 values, each at least the pieces' own."""
    g = assemble(plmap, params).scaled(1.0)
    dq = [g.scaled(lam)._quadrature() for lam in _FIT_LAMBDAS]
    pts, wts, cell, made = dq[0]
    if not all(np.array_equal(d[2], cell) and np.array_equal(d[3], made)
               for d in dq):
        raise ConstructionError("the quadratures at lambda 1, 1/2 and 1/4 "
                                "differ in node count, cell or maker")
    act = wts > 0
    pa, cf = pts[act], cell[act]
    cf[cf < 0] = plmap.locate_inside(pa[cf < 0])
    y, Dg = g._dispatch(pa, jac=True)
    Dgi = geo.inv3(Dg)
    xb, ci = plmap.inverse_pl(y, tol=1e-7, extend=True)
    piece_invs = plmap.inverse_pieces()[1]
    nodes = dict(
        coef=np.linalg.solve(np.vander(_FIT_LAMBDAS, 4)[:, :3],
                             [d[1][act] for d in dq]),
        diff=geo.spectral_norm(Dg - plmap.matrices[cf]),
        diff_inv=geo.spectral_norm(Dgi - piece_invs[ci]), det=geo.det3(Dg),
        linf_f=g.linf_f(pa, np.linalg.norm(y - plmap.apply(pa, cf), axis=-1),
                        made[act]),
        linf_inv=np.max(np.linalg.norm(pa - xb, axis=-1)),
        sup_Dg=np.max(geo.spectral_norm(np.vstack([Dg, plmap.matrices]))),
        sup_Dginv=np.max(geo.spectral_norm(np.vstack([Dgi, piece_invs]))))
    lam = np.asarray(lambdas, dtype=float)
    w = np.vander(lam, 4)[:, :3] @ nodes["coef"]
    cols = (lam, w.sum(axis=1), lam * nodes["linf_f"],
            (w @ nodes["diff"] ** p) ** (1.0 / p), lam * nodes["linf_inv"],
            (w @ (nodes["diff_inv"] ** q * nodes["det"])) ** (1.0 / q))
    return [dict(zip(SWEEP_COLUMNS, map(float, (*row, nodes["sup_Dg"],
                                                nodes["sup_Dginv"]))))
            for row in zip(*cols)]


def format_table(rows):
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(f"{row[c]:.12g}" for c in SWEEP_COLUMNS))
    return "\n".join(lines)
