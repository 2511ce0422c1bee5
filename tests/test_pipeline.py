"""End-to-end smoothing pipeline: parameter certification, patch
assembly and dispatch, the difference set, inversion, and the sweep."""

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from plsmooth import geometry as geo
from plsmooth import pipeline
from plsmooth.builders import (kuhn_identity, perturbed_kuhn_map,
                               subdivided_tet_map, two_tet_map)
from plsmooth.errors import ConstructionError, ParameterError
from plsmooth.mesh import (FacePair, PLMap, SimplicialComplex, face_pairs,
                           pl_map_from_vertex_images)
from plsmooth.pipeline import (SWEEP_COLUMNS, FacePatch, SmoothingParams,
                               assemble, choose_params, format_table,
                               lambda_sweep)


@pytest.fixture(scope="module")
def kuhn_setup():
    pl = perturbed_kuhn_map()
    params = choose_params(pl)
    return pl, params, assemble(pl, params)


@pytest.fixture(scope="module")
def subdiv_setup():
    pl = subdivided_tet_map()
    params = choose_params(pl)
    return pl, params, assemble(pl, params)


def _interior_samples(pl, n, rng):
    cx = pl.complex
    vols = np.array([abs(np.linalg.det(
        cx.cell_points(c)[1:] - cx.cell_points(c)[0])) for c in
        range(cx.n_cells)])
    pick = rng.choice(cx.n_cells, size=n, p=vols / vols.sum())
    bar = rng.dirichlet(np.ones(4), size=n)
    return np.einsum("nk,nkj->nj", bar,
                     np.array([cx.cell_points(c) for c in pick]))


# ---------------------------------------------------------------------------
# parameter certification


def test_choose_params_kuhn_counts(kuhn_setup):
    # the Kuhn cube has six interior faces, one interior edge
    # (the long diagonal), and no interior vertices.
    _, params, _ = kuhn_setup
    assert len(params.w) == 6
    assert len(params.r) == 1
    assert len(params.R) == 0
    assert all(v > 0 for v in params.w.values())
    assert all(v > 0 for v in params.r.values())


def test_choose_params_subdivided_counts(subdiv_setup):
    # barycentric subdivision: one interior vertex, four interior
    # edges and six interior faces.
    _, params, _ = subdiv_setup
    assert len(params.R) == 1
    assert len(params.r) == 4
    assert len(params.w) == 6


def test_radius_orderings(subdiv_setup):
    # ball radius exceeds cylinder radius exceeds slab width for
    # every incident simplex, so the precedence nesting is geometric too.
    _, params, _ = subdiv_setup
    Rmin = min(params.R.values())
    for e, r in params.r.items():
        assert r < Rmin
        for f, w in params.w.items():
            if set(e) <= set(f):
                assert w < r


def test_identity_needs_no_smoothing():
    params = choose_params(kuhn_identity())
    assert not params.R and not params.r and not params.w


def test_kink_of_relative_size_5e6_gets_a_slab():
    # pieces agree only within 1e-12 relative: numpy's default rtol of
    # 1e-5 had called this kink trivial and left it in g
    M = np.eye(3) + 5e-6 * np.outer([0.0, 0, 1], [0.0, 0, 1])
    params = choose_params(two_tet_map(np.eye(3), M))
    assert list(params.w) == [(0, 1, 2)]
    assert not params.R and not params.r
    # pieces equal up to rounding still need no patch
    params = choose_params(kuhn_identity())
    assert not params.R and not params.r and not params.w


def test_choose_params_pinned():
    # the values the sampled clearances gave; the exact ones give the same
    p = choose_params(perturbed_kuhn_map())
    assert p.R == {}
    assert p.r == {(0, 7): 0.17320508075688773}
    assert p.w == {f: 0.0004786323739679288 for f in
                   [(0, 1, 7), (0, 2, 7), (0, 3, 7), (0, 4, 7), (0, 5, 7),
                    (0, 6, 7)]}
    p = choose_params(subdivided_tet_map())
    assert p.R == {4: 0.028867513459481287}
    assert p.r == {(v, 4): 0.002886751345948129 for v in range(4)}
    assert p.w == {f: 7.977206232798813e-06 for f in
                   [(0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4),
                    (2, 3, 4)]}


def test_choose_params_batches_distances(monkeypatch):
    # one batched call per clearance, where the sampled loops made 572
    calls = []
    dist = geo.dist_point_simplex
    monkeypatch.setattr(geo, "dist_point_simplex",
                        lambda *a: calls.append(1) or dist(*a))
    choose_params(subdivided_tet_map())
    assert 0 < len(calls) <= 50


def test_edge_clearances_measure_the_scanned_faces(monkeypatch):
    # the faces each edge clearance measures come from the incidence maps;
    # they are the ones a scan of every face of the complex finds
    pl = subdivided_tet_map()
    cx = pl.complex
    index = {tuple(x): i for i, x in enumerate(cx.points.tolist())}
    seen = []
    dist = geo.dist_segment_triangle

    def recording(p, q, T):
        seen.append(sorted(tuple(sorted(index[tuple(x)] for x in tri))
                           for tri in np.asarray(T).tolist()))
        return dist(p, q, T)

    monkeypatch.setattr(geo, "dist_segment_triangle", recording)
    params = choose_params(pl)
    want = []
    for e in params.r:
        cells = [set(cx.cells[c].tolist()) for c in cx.edge_cells[e]]
        want.append([f for f in cx.faces if not set(f) & set(e)])
        want += [[f for f in cx.faces if vid in f and not set(e) <= set(f)
                  and any(set(f) <= c for c in cells)]
                 for vid in e if vid in params.R]
    assert seen == want


def test_params_scaling():
    p = SmoothingParams(R={0: 1.0}, r={(0, 1): 0.5}, w={(0, 1, 2): 0.1})
    half = p.scaled(0.5)
    assert half.lam == 0.5
    assert half.R[0] == 0.5
    assert half.r[(0, 1)] == 0.25
    assert half.w[(0, 1, 2)] == pytest.approx(0.05)
    with pytest.raises(ParameterError):
        p.scaled(0.0)
    with pytest.raises(ParameterError):
        p.scaled(1.5)


# ---------------------------------------------------------------------------
# assembly and dispatch


def test_assemble_patch_counts(subdiv_setup):
    _, params, g = subdiv_setup
    assert len(g.face_patches) == len(params.w)
    assert len(g.edge_patches) == len(params.r)
    assert len(g.vertex_patches) == len(params.R)


def test_smoothed_equals_pl_away_from_skeleton(kuhn_setup):
    # outside every patch the dispatcher must reproduce the PL
    # map exactly (bit-for-bit affine evaluation).
    pl, _, g = kuhn_setup
    rng = np.random.default_rng(3)
    x = _interior_samples(pl, 4000, rng)
    masked = np.zeros(len(x), dtype=bool)
    for p in g.face_patches + g.edge_patches + g.vertex_patches:
        masked |= p.mask(x)
    far = x[~masked]
    assert len(far) > 1000
    assert np.array_equal(g.evaluate(far), pl(far))


def test_dispatch_precedence(subdiv_setup):
    # points inside the vertex ball get the vertex patch even where a slab
    # or cylinder mask also fires
    _, _, g = subdiv_setup
    vp = g.vertex_patches[0]
    rng = np.random.default_rng(5)
    u = rng.normal(size=(200, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    pts = vp.V + 0.999 * vp.R * rng.uniform(0.0, 1.0, 200)[:, None] * u
    assert np.array_equal(g.evaluate(pts), vp.evaluate(pts))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_patch_jacobian_value_equals_evaluate(setup, request):
    # the dispatch takes g and Dg from one jacobian call per patch, so its
    # value must be evaluate's, bit for bit, for every patch kind
    _, _, g = request.getfixturevalue(setup)
    pts = g.sample_patches(n_per_patch=300, rng=11)
    kinds = set()
    for p in g.face_patches + g.edge_patches + g.vertex_patches:
        x = pts[p.mask(pts)]
        assert len(x) > 0
        y, J = p.jacobian(x)
        assert J.shape == (len(x), 3, 3)
        assert np.array_equal(y, p.evaluate(x))
        kinds.add(type(p).__name__)
    assert kinds >= {"FacePatch", "EdgePatch"}
    if setup == "subdiv_setup":
        assert "VertexPatch" in kinds


def _record_dispatches(monkeypatch):
    """Record (map, value, jac) of every SmoothedMap._dispatch."""
    calls = []
    real = pipeline.SmoothedMap._dispatch

    def recorded(self, x, value=True, jac=False, **kw):
        calls.append((self, value, jac))
        return real(self, x, value=value, jac=jac, **kw)
    monkeypatch.setattr(pipeline.SmoothedMap, "_dispatch", recorded)
    return calls


def test_ball_jacobian_dispatches_once(subdiv_setup, monkeypatch):
    # hat(x, True) on the flattening shell gives hat_g and its Jacobian
    # from one dispatch, on the map without vertex balls: the same edge
    # and face patches
    _, _, g = subdiv_setup
    vp = g.vertex_patches[0]
    rng = np.random.default_rng(12)
    u = rng.normal(size=(300, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = vp.R * rng.uniform(0.8, 0.95, 300)[:, None] * u
    calls = _record_dispatches(monkeypatch)
    _, J = vp.smoother.apply(x, True)
    assert [c[1:] for c in calls] == [(True, True)]
    base = calls[0][0]
    assert base is not g and base.vertex_patches == []
    assert base.edge_patches == g.edge_patches
    assert base.face_patches == g.face_patches
    assert J.shape == (300, 3, 3)


def test_sweep_dispatches_once_per_lambda_for_g_and_dg(kuhn_setup,
                                                        monkeypatch):
    pl, params, _ = kuhn_setup
    calls = _record_dispatches(monkeypatch)
    lambda_sweep(pl, params, lambdas=(1.0, 0.5, 0.25))
    jac = [c for c in calls if c[2]]
    assert [c[1:] for c in jac] == [(True, True)] * 3
    # one assembled map per lambda, each with its own patches
    assert len({id(c[0]) for c in jac}) == 3
    assert all(c[1] for c in calls)


def test_thin_slab_derivative_does_not_depend_on_the_batch(kuhn_setup):
    # in a slab of width 8e-6 the ramp coordinate u = y1 / w amplifies the
    # rounding of y1 and of the pieces' values; a batched and a one-point
    # call must still give the same Jacobian
    pl, params, _ = kuhn_setup
    thin = SmoothingParams(R=params.R, r=params.r,
                           w={f: 8e-6 for f in params.w})
    g = assemble(pl, thin)
    x = g.sample_patches(n_per_patch=100, rng=3)[:100 * len(g.face_patches)]
    # the points that a slab holds, not a cylinder
    x = x[g._owners(x) >= len(g.vertex_patches) + len(g.edge_patches)]
    J = g.derivative(x)
    J1 = np.array([g.derivative(p[None])[0] for p in x])
    assert len(x) > 300
    assert np.all(np.abs(J - J1).max(axis=(1, 2))
                  <= 1e-13 * np.abs(J1).max(axis=(1, 2)))


def test_edge_cylinder_derivative_does_not_depend_on_the_batch(
        subdiv_setup):
    # the untwist ring amplifies the rounding of a point's frame
    # coordinates by about 60 / r in Dg; a batched and a one-point call
    # must still give the same Jacobian
    _, _, g = subdiv_setup
    nv, ne = len(g.vertex_patches), len(g.edge_patches)
    x = g.sample_patches(n_per_patch=100, rng=3)
    own = g._owners(x)
    x = x[(own >= nv) & (own < nv + ne)]
    J = g.derivative(x)
    J1 = np.array([g.derivative(p[None])[0] for p in x])
    assert len(x) > 300
    assert np.all(np.abs(J - J1).max(axis=(1, 2))
                  <= 1e-13 * np.abs(J1).max(axis=(1, 2)))


def test_positive_jacobians_on_patch_samples(subdiv_setup):
    _, _, g = subdiv_setup
    pts = g.sample_patches(n_per_patch=400, rng=7)
    dets = np.linalg.det(g.derivative(pts, extend=True))
    assert np.all(dets > 0)


def test_continuity_across_patch_interfaces(kuhn_setup):
    # pairs of points straddling every patch boundary must have
    # images within Lip * gap of each other
    _, _, g = kuhn_setup
    rng = np.random.default_rng(11)
    pts = g.sample_patches(n_per_patch=300, rng=13)
    eps = 1e-8 * g.scale
    a = pts + rng.normal(size=pts.shape) * eps
    keep = g.contains(a) & g.contains(pts)
    lip = 10.0 * np.max(np.linalg.norm(
        g.derivative(pts[keep], extend=True), ord=2, axis=(1, 2)))
    jump = np.linalg.norm(g.evaluate(a[keep]) - g.evaluate(pts[keep]),
                          axis=-1)
    dist = np.linalg.norm(a[keep] - pts[keep], axis=-1)
    assert np.all(jump <= lip * dist + 1e-13 * g.scale)


def test_derivative_matches_finite_differences(kuhn_setup):
    _, _, g = kuhn_setup
    rng = np.random.default_rng(17)
    pts = g.sample_patches(n_per_patch=40, rng=19)
    pts = pts[rng.choice(len(pts), size=60, replace=False)]
    h = 2e-7 * g.scale
    J = g.derivative(pts, extend=True)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (g.evaluate(pts + e, extend=True)
              - g.evaluate(pts - e, extend=True)) / (2 * h)
        # central differences straddle patch interfaces for a few points;
        # require agreement for the vast majority and closeness overall
        err = np.linalg.norm(fd - J[:, :, k], axis=-1)
        assert np.median(err) < 1e-5
        assert np.mean(err < 1e-3) > 0.9


# ---------------------------------------------------------------------------
# the difference set


def test_volume_quadrature_consistency(kuhn_setup):
    # the fixed quadrature over E and the exact/sectioned volume
    # formulas are independent computations of |E|
    _, _, g = kuhn_setup
    vol = g.volume_difference_set()
    pts, wts = g.difference_quadrature()
    assert vol > 0
    assert abs(wts.sum() - vol) < 0.01 * vol


def test_volume_quadrature_consistency_with_ball(subdiv_setup):
    _, _, g = subdiv_setup
    vol = g.volume_difference_set()
    pts, wts = g.difference_quadrature()
    assert abs(wts.sum() - vol) < 0.01 * vol


def test_quadrature_points_lie_in_difference_set(kuhn_setup):
    # every positive-weight node is handled by some patch, never by the
    # bulk affine branch
    _, _, g = kuhn_setup
    pts, wts = g.difference_quadrature()
    act = pts[wts > 0]
    masked = np.zeros(len(act), dtype=bool)
    for p in g.face_patches + g.edge_patches + g.vertex_patches:
        masked |= p.mask(act)
    assert np.all(masked)


def test_volume_shrinks_linearly(kuhn_setup):
    # |E_lambda| = lambda * |E_1| scaling up to the quadrature and
    # clipping tolerances (exact for the slab parts, near-exact overall)
    pl, params, g = kuhn_setup
    v1 = g.volume_difference_set()
    v2 = assemble(pl, params.scaled(0.5)).volume_difference_set()
    assert v2 < 0.55 * v1


@pytest.mark.parametrize("lam, expected", [
    (1.0, 1.390478071662295e-01),
    (0.25, 1.025670236346706e-02),
    (0.0625, 7.549161450812140e-04),
])
def test_volume_difference_set_pinned(kuhn_setup, lam, expected):
    # values of the per-plane scalar sectioning the batched kernels replaced
    pl, params, _ = kuhn_setup
    vol = assemble(pl, params.scaled(lam)).volume_difference_set()
    assert vol == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("build", [perturbed_kuhn_map, subdivided_tet_map])
def test_patch_geometry_needs_no_lp_or_hull(build, monkeypatch):
    # every slab is a closed-form frustum of its cell
    pl = build()
    params = choose_params(pl)
    calls = []

    def counting(name, fn):
        return lambda *args, **kw: calls.append(name) or fn(*args, **kw)

    for module in (geo, scipy.spatial, scipy.optimize):
        for name in ("linprog", "ConvexHull", "HalfspaceIntersection"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    g = assemble(pl, params)
    assert g.volume_difference_set() > 0
    assert g.difference_quadrature()[1].sum() > 0
    assert len(g.sample_patches(n_per_patch=20, rng=1)) > 0
    assert calls == []


def _face_patch(tet, frac):
    """The FacePatch of face tet[:3] toward the apex tet[3], of width frac
    times the apex height, with the normal, face centroid and width."""
    tri, apex = tet[:3], tet[3]
    o = tri.mean(axis=0)
    n = geo.normalize(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    if n @ (apex - o) < 0:
        n = -n
    pair = FacePair(face=(0, 1, 2), cell_neg=0, cell_pos=1,
                    frame=geo.Frame(origin=o, R=np.vstack(
                        [n, *geo.orthonormal_tangents(n)])),
                    M_neg=np.eye(3), c_neg=np.zeros(3),
                    M_pos=np.eye(3) + np.outer(n, n), c_pos=-(n @ o) * n,
                    trivial=False)
    w = frac * (n @ (apex - o))
    return FacePatch(pair, w, tri, apex), n, o, w


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(1e-6, 0.1))
def test_face_patch_frustum_matches_halfspace_intersection(seed, frac):
    rng = np.random.default_rng(seed)
    tet = rng.normal(size=(4, 3))
    if abs(geo.tet_volume(tet)) < 1e-2:
        return
    fp, n, o, w = _face_patch(tet, frac)
    # the cell's halfspaces and the slab's two planes, about a point on the
    # segment from the face centroid to the apex at half the slab height
    H = np.vstack([geo.halfspaces_of_tet(tet), np.append(-n, n @ o),
                   np.append(n, -(n @ o) - w)])
    inner = o + 0.5 * (w / (n @ (tet[3] - o))) * (tet[3] - o)
    # each vertex solved on the three planes qhull names for it: qhull's
    # own points can sit 1e-12 of the scale off them
    planes = scipy.spatial.HalfspaceIntersection(H, inner).dual_facets
    ref = np.array([np.linalg.solve(H[p[:3], :3], -H[p[:3], 3])
                    for p in planes])
    scale = np.max(np.ptp(tet, axis=0))
    gap = np.linalg.norm(ref[:, None] - fp.frustum[None], axis=-1)
    assert np.all(gap.min(axis=0) <= 1e-12 * scale)
    assert np.all(gap.min(axis=1) <= 1e-12 * scale)
    # a pyramid frustum of height w: a hull's volume of a slab this thin
    # resolves only 1e-8 of it
    s = (ref - o) @ n
    base, top = (scipy.spatial.ConvexHull(
        (ref[side] - o) @ fp.pair.frame.R[1:].T).volume
        for side in (s < 0.5 * w, s > 0.5 * w))
    assert fp.volume == pytest.approx(
        w / 3.0 * (base + top + np.sqrt(base * top)), rel=1e-9, abs=0)
    # the top vertices' rounding moves a determinant by some ulps of the
    # cell's volume
    vols = [geo.tet_volume(t) for t in fp.frustum[geo.FRUSTUM_TETS]]
    atol = 1e-13 * abs(geo.tet_volume(tet))
    assert min(vols) > 0
    assert sum(vols) == pytest.approx(fp.volume, rel=1e-9, abs=atol)
    np.testing.assert_allclose(vols, fp.tet_volumes, rtol=1e-9, atol=atol)


@pytest.mark.parametrize("factor", [1.0, 1.5])
def test_width_at_or_above_apex_height_rejected(factor):
    pl = perturbed_kuhn_map()
    params = choose_params(pl)
    cx = pl.complex
    f = next(iter(params.w))
    pr = next(p for p in face_pairs(pl) if p.face == f)
    apex, = set(cx.cells[pr.cell_pos].tolist()) - set(f)
    h = pr.frame.R[0] @ (cx.points[apex] - pr.frame.origin)
    params.w[f] = factor * h
    with pytest.raises(ParameterError, match="apex height"):
        assemble(pl, params)


def _three_cell_slab(plmap):
    """The three-cell map's slab, which choose_params rejects, by hand."""
    return assemble(plmap, SmoothingParams(R={}, r={}, w={(0, 1, 2): 0.1}))


def _around_slab(fp, n, rng):
    """2n points at heights -w/2 < s < 3w/2 over the slab's face: n over
    the face grown by half about its centroid, n within 3w of its edges."""
    tri, w = fp.tri, fp.width
    c = tri.mean(axis=0)
    wide = c + 1.5 * (rng.dirichlet(np.ones(3), size=n) @ tri - c)
    k = rng.integers(3, size=n)
    near = tri[k] + rng.uniform(0, 1, (n, 1)) * (tri[(k + 1) % 3] - tri[k]) \
        + rng.uniform(-3 * w, 3 * w, (n, 3))
    x = np.vstack([wide, near])
    s = rng.uniform(-0.5 * w, 1.5 * w, 2 * n)
    return x + (s - (x - fp.pair.frame.origin) @ fp.n)[:, None] * fp.n


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup",
                                   "three_cell_map"])
def test_face_patch_mask_is_its_frustum(setup, request):
    # the slab that the volume, the quadrature and the samples use: the
    # points of cell_pos, by barycentric coordinates, at 0 < s < w
    if setup == "three_cell_map":
        g = _three_cell_slab(request.getfixturevalue(setup))
    else:
        g = request.getfixturevalue(setup)[2]
    cx = g.plmap.complex
    rng = np.random.default_rng(7)
    for fp in g.face_patches:
        x = _around_slab(fp, 2000, rng)
        s = (x - fp.pair.frame.origin) @ fp.n
        bary = geo.barycentric(cx.cell_points(fp.pair.cell_pos), x)
        ref = (s > 0.0) & (s < fp.width) & np.all(bary >= -1e-12, axis=1)
        assert 0 < np.count_nonzero(ref) < len(x)
        assert np.array_equal(fp.mask(x), ref)


def test_three_cell_slab_volume_is_the_measure_it_owns(three_cell_map):
    # a seeded Monte Carlo measure of the points of the domain that the
    # slab holds, in a box about the slab
    g = _three_cell_slab(three_cell_map)
    rng = np.random.default_rng(11)
    lo, hi = np.array([0.0, -0.05, 0.0]), np.array([1.0, 1.0, 0.1])
    x = rng.uniform(lo, hi, size=(10 ** 6, 3))
    held = g.contains(x) & (g._owners(x) >= 0)
    assert np.mean(held) * np.prod(hi - lo) == pytest.approx(
        g.volume_difference_set(), rel=5e-3)


def test_gauss_legendre_reuses_reference_rule(monkeypatch):
    x0, w0 = geo.gauss_legendre(12)
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    x1, w1 = geo.gauss_legendre(12)
    assert calls == []
    assert np.array_equal(x0, x1) and np.array_equal(w0, w1)


def _clip(poly, a, b):
    """Part of the convex polygon ``poly`` (list of 2-vectors) in a.y <= b."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        fp, fq = a @ p - b, a @ q - b
        if fp <= 0:
            out.append(p)
        if fp * fq < 0:
            out.append(p + fp / (fp - fq) * (q - p))
    return out


def _slab_cyl_ball(g, fp, ep, vp):
    """|slab ∩ cylinder ∩ ball| by sections parallel to the face: in each,
    the slab is the cell's section, the cylinder (about an edge of the face)
    a strip and the ball a disk."""
    o, n, axes = fp.pair.frame.origin, fp.n, fp.pair.frame.R[1:]
    H = geo.halfspaces_of_tet(g.plmap.complex.cell_points(fp.pair.cell_pos))
    u, a0 = axes @ ep.fan.direction, axes @ (ep.fan.V0 - o)
    v = np.array([-u[1], u[0]])
    big = 10.0 * g.scale
    total = 0.0
    for s, ws in zip(*geo.gauss_legendre(12, 0.0, fp.width)):
        x0 = o + s * n
        poly = [big * np.array(c)
                for c in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
        for h in H:
            poly = _clip(poly, axes @ h[:3], -(h[:3] @ x0 + h[3]))
        half = np.sqrt(ep.r ** 2 - s ** 2)
        for a, b in ((v, v @ a0 + half), (-v, half - v @ a0), (-u, -(u @ a0)),
                     (u, u @ a0 + ep.L)):
            poly = _clip(poly, a, b)
        if len(poly) >= 3:
            total += ws * geo.polygon_disk_areas(
                np.array(poly)[None], [len(poly)], axes @ (vp.V - o),
                np.sqrt(vp.R ** 2 - s ** 2))[0]
    return total


@pytest.mark.parametrize("lam, before", [
    (1.0, 1.8494537228696184e-04),
    (0.0625, 1.0441033136149429e-06),
])
def test_volume_adds_back_slab_cylinder_ball_overlap(subdiv_setup, lam,
                                                      before):
    # |E| took both |slab ∩ cyl| and |slab ∩ ball| from each slab; the
    # triple overlap, counted twice, is now added back.  ``before`` is |E|
    # without it.
    pl, params, _ = subdiv_setup
    g = assemble(pl, params.scaled(lam))
    triple = sum(_slab_cyl_ball(g, fp, ep, vp)
                 for fp in g.face_patches for ep in g.edge_patches
                 if set(ep.fan.edge) <= set(fp.pair.face)
                 for vp in g.vertex_patches if vp.star.vertex in ep.fan.edge)
    assert triple > 1e-6 * before
    assert g.volume_difference_set() - before == pytest.approx(
        triple, rel=1e-6, abs=0)


# ---------------------------------------------------------------------------
# inversion


def test_inverse_roundtrip(kuhn_setup):
    pl, _, g = kuhn_setup
    rng = np.random.default_rng(23)
    x = _interior_samples(pl, 400, rng)
    y = g.evaluate(x)
    xb = g.inverse(y)
    assert np.max(np.linalg.norm(xb - x, axis=-1)) < 1e-11 * g.scale


def test_inverse_roundtrip_with_vertex_ball(subdiv_setup):
    pl, _, g = subdiv_setup
    pts = g.sample_patches(n_per_patch=80, rng=29)
    y = g.evaluate(pts, extend=True)
    xb = g.inverse(y)
    assert np.max(np.linalg.norm(xb - pts, axis=-1)) < 1e-11 * g.scale


@pytest.mark.parametrize("build", [perturbed_kuhn_map, subdivided_tet_map])
def test_inverse_falls_back_to_powell(build, monkeypatch):
    # with -Dg in the batched Newton steps every step climbs the residual,
    # so the points in the patches reach Powell's hybrid method, whose
    # one-point Jacobian calls get the true Dg
    pl = build()
    g = assemble(pl, choose_params(pl))
    true = g._dispatch

    def flipped(x, value=True, jac=False, **kwargs):
        y, J = true(x, value=value, jac=jac, **kwargs)
        return y, (J if J is None or len(x) == 1 else -J)

    calls = []
    real = pipeline.sp_root

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(g, "_dispatch", flipped)
    monkeypatch.setattr(pipeline, "sp_root", counted)
    x = g.sample_patches(n_per_patch=1, rng=31)
    xb = g.inverse(g.evaluate(x, extend=True))
    assert len(calls) >= 1
    assert np.max(np.linalg.norm(xb - x, axis=-1)) < 1e-11 * g.scale


@pytest.mark.parametrize("depth", [5e-11, 2e-10, 1e-9])
def test_inverse_roundtrip_just_across_a_kinked_face(depth):
    # the pieces agree on z = 0 and the lower cell (index 1) is squeezed
    # fourfold, so its slab lies in the upper cell (index 0).  At depth 2e-10
    # x lies beyond the locate tol of cell 0, but its image y lies only 5e-11
    # outside image cell 0.  Taking the first image cell within tol would
    # start Newton at f_0^-1(y), within tol of cell 0, where g equals y
    # exactly, and stop 1.5e-10 from x; exact containment comes first.
    pl = two_tet_map(np.diag([1.0, 1.0, 0.25]), np.eye(3))
    g = assemble(pl, choose_params(pl))
    assert [fp.pair.cell_pos for fp in g.face_patches] == [0]
    x = np.array([[0.3, 0.3, -depth]])
    assert not g.face_patches[0].mask(x)[0]
    xb = g.inverse(g.evaluate(x))
    assert np.max(np.linalg.norm(xb - x, axis=-1)) <= 1e-12 * g.scale


# ---------------------------------------------------------------------------
# the sweep


def test_lambda_sweep_smoke(kuhn_setup):
    pl, params, _ = kuhn_setup
    rows = lambda_sweep(pl, params, lambdas=(1.0, 0.5), p=2.0, q=2.0)
    assert [r["lambda"] for r in rows] == [1.0, 0.5]
    for row in rows:
        assert set(row) == set(SWEEP_COLUMNS)
        # Hoelder: ||Dg - Df||_p <= (sup|Dg| + sup|Df|) |E|^{1/p}
        bound = row["sup_Dg"] + np.max(
            np.linalg.norm(pl.matrices, ord=2, axis=(1, 2)))
        assert row["w1p_f"] <= bound * row["vol_E"] ** 0.5 + 1e-12
    assert rows[1]["vol_E"] < rows[0]["vol_E"]
    assert rows[1]["w1p_f"] <= rows[0]["w1p_f"] * 1.05


def test_sweep_does_not_depend_on_the_cell_order():
    # no ball quadrature node may lie on a face plane through the vertex,
    # where the cell it takes, and so Df there, follows the cell order
    pl = subdivided_tet_map()
    cx = pl.complex
    rev = PLMap(SimplicialComplex(cx.points, cx.cells[::-1]),
                pl.matrices[::-1], pl.offsets[::-1])
    row, = lambda_sweep(pl, choose_params(pl), lambdas=(1.0,))
    row_rev, = lambda_sweep(rev, choose_params(rev), lambdas=(1.0,))
    for col in SWEEP_COLUMNS:
        assert row_rev[col] == pytest.approx(row[col], rel=1e-12), col


def test_format_table(kuhn_setup):
    pl, params, _ = kuhn_setup
    rows = lambda_sweep(pl, params, lambdas=(1.0,))
    txt = format_table(rows)
    lines = txt.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 1.0


def _per_node_sweep(plmap, params, lambdas, p=2.0, q=2.0, rng=0):
    """lambda_sweep with g, Dg and every norm taken at each node: the
    reference for the sweep that shares them along cylinder columns."""
    from plsmooth.norms import linf_difference
    rows = []
    piece_norm = float(np.max(geo.spectral_norm(plmap.matrices)))
    piece_invs = plmap.inverse_pieces()[1]
    piece_inv_norm = float(np.max(geo.spectral_norm(piece_invs)))
    for lam in lambdas:
        g = assemble(plmap, params.scaled(lam))
        vol = g.volume_difference_set()
        pts, wts = g.difference_quadrature()
        act = wts > 0
        pa, wa = pts[act], wts[act]
        cf = plmap.locate_inside(pa)
        Df = plmap.matrices[cf]
        y, Dg = g._dispatch(pa, jac=True)
        diff = geo.spectral_norm(Dg - Df)
        w1p = float(np.sum(wa * diff ** p) ** (1.0 / p))
        linf = linf_difference(
            plmap, g, pa, np.linalg.norm(y - plmap.apply(pa, cf), axis=-1),
            rng=rng)
        Jg = geo.det3(Dg)
        Dgi = geo.inv3(Dg)
        xb, ci = plmap.inverse_pl(y, tol=1e-7, extend=True)
        diff_inv = geo.spectral_norm(Dgi - piece_invs[ci])
        w1q_inv = float(np.sum(wa * diff_inv ** q * Jg) ** (1.0 / q))
        linf_inv = float(np.max(np.linalg.norm(pa - xb, axis=-1)))
        sup_dg = geo.max_spectral_norm(Dg, piece_norm)
        sup_dgi = geo.max_spectral_norm(Dgi, piece_inv_norm)
        rows.append(dict(zip(SWEEP_COLUMNS,
                             (float(lam), vol, linf, w1p, linf_inv,
                              w1q_inv, sup_dg, sup_dgi))))
    return rows


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_column_sweep_matches_the_per_node_sweep(setup, request):
    # linf_f refines around the node of largest |g - f|, and along a column
    # rounding alone picks that node among equals
    pl, params, _ = request.getfixturevalue(setup)
    lambdas = (1.0, 0.25)
    rows = lambda_sweep(pl, params, lambdas=lambdas)
    ref = _per_node_sweep(pl, params, lambdas)
    for row, row_ref in zip(rows, ref):
        for col in SWEEP_COLUMNS:
            if col != "linf_f":
                assert row[col] == pytest.approx(row_ref[col], rel=1e-12), col


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_cylinder_column_is_a_translation(setup, lam, request):
    # at every active node of a column, g is its representative's value
    # moved by Df along the edge, and Dg is its representative's; Dg is
    # checked to what rounding of the node's position allows, as its
    # variation grows like 1/r in the untwist ring
    pl, params, _ = request.getfixturevalue(setup)
    g = assemble(pl, params.scaled(lam))
    pts, wts = g.difference_quadrature()
    col, cell = g._dq[2:]
    act = (wts > 0) & (col >= 0)
    x, col, cell = pts[act], col[act], cell[act]
    y, J = g._dispatch(x, jac=True)
    _, rep, src = np.unique(col, return_index=True, return_inverse=True)
    assert len(rep) < len(x)
    assert np.array_equal(cell, cell[rep][src])
    moved = y[rep][src] + np.einsum("nij,nj->ni", pl.matrices[cell],
                                    x - x[rep][src])
    assert np.max(np.linalg.norm(moved - y, axis=-1)) <= 1e-12 * g.scale
    r = min(ep.r for ep in g.edge_patches)
    tol = max(1e-12, 200 * np.finfo(float).eps * g.scale / r)
    Jr = J[rep][src]
    assert np.all(geo.spectral_norm(J - Jr) <= tol * geo.spectral_norm(Jr))


def _made(g):
    """The index in ``g.patches`` of the patch that made each node of the
    difference quadrature: slab, then cylinder, then ball nodes."""
    nv, ne = len(g.vertex_patches), len(g.edge_patches)
    sizes = ([24 * 27] * len(g.face_patches)
             + [len(g._cylinder_nodes(ep)[1]) for ep in g.edge_patches]
             + [len(g._ball_nodes(vp)[1]) for vp in g.vertex_patches])
    return np.repeat(np.r_[nv + ne:len(g.patches), nv:nv + ne, :nv], sizes)


@pytest.mark.parametrize("reverse", [False, True])
def test_cylinder_columns_belong_to_their_own_cylinder(subdiv_setup,
                                                       reverse):
    # a column's nodes are those that _owners gives to its own cylinder.
    # The ball at vertex 4 holds the near ends of all four cylinders, so
    # 10,080 cylinder nodes take no column in either order; the reversed
    # list must reach the owner pass too, or every cylinder node would
    # lose its column and its weight
    pl, params, _ = subdiv_setup
    g = assemble(pl, params)
    if reverse:
        g.edge_patches = g.edge_patches[::-1]
    pts, wts = g.difference_quadrature()
    col, _ = g._dq[2:]
    n_cols = [int(g._cylinder_nodes(ep)[2].max()) + 1
              for ep in g.edge_patches]
    has = col >= 0
    own = np.searchsorted(np.cumsum(n_cols), col[has], side="right")
    assert np.array_equal(g._owners(pts[has]),
                          len(g.vertex_patches) + own)
    made = _made(g)
    is_cyl = (made >= len(g.vertex_patches)) & (made < len(g.vertex_patches)
                                                + len(g.edge_patches))
    assert np.count_nonzero(is_cyl & ~has) == 10080
    assert np.count_nonzero(wts[has] > 0) == 68604


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_weighted_nodes_belong_to_the_patch_that_made_them(setup, lam,
                                                           request):
    # the quadrature and the dispatch share one precedence rule: every node
    # of positive weight is held by its own patch, and every patch keeps
    # some of its nodes
    pl, params, _ = request.getfixturevalue(setup)
    g = assemble(pl, params.scaled(lam))
    pts, wts = g.difference_quadrature()
    made = _made(g)
    assert len(made) == len(pts)
    act = wts > 0
    assert np.array_equal(g._owners(pts[act]), made[act])
    assert set(made[act]) == set(range(len(g.patches)))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_active_column_nodes_share_one_owner(setup, request):
    _, _, g = request.getfixturevalue(setup)
    pts, wts = g.difference_quadrature()
    col, _ = g._dq[2:]
    act = (wts > 0) & (col >= 0)
    owner = g._owners(pts[act])
    _, rep, src = np.unique(col[act], return_index=True, return_inverse=True)
    assert len(rep) < np.count_nonzero(act)
    assert np.array_equal(owner, owner[rep][src])


def test_two_tet_slab_only_volume_exact():
    # with a single interior face and no nontrivial fans the
    # difference set is a clipped slab whose volume both paths compute
    # exactly
    M = np.eye(3)
    d = np.array([0.3, -0.1, 0.2])
    pl = two_tet_map(M, M + np.outer(d, [0.0, 0.0, 1.0]))
    params = choose_params(pl)
    g = assemble(pl, params)
    vol = g.volume_difference_set()
    pts, wts = g.difference_quadrature()
    assert abs(wts.sum() - vol) < 1e-10 * max(vol, 1e-30)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the linear sphere "
                   "isotopy assumes mu is near the identity")
@pytest.mark.parametrize("axis", [(1, 1, 1), (1, 0, 0), (0, 1, 0), (1, 2, 3)])
def test_rotated_vertex_ball_is_diffeomorphic_or_rejected(axis):
    # subdivided_tet_map followed by a rotation by pi is a valid,
    # sense-preserving map whose sphere map reaches mu(x) = -x; the ball
    # must be rejected or have det Dg > 0 on its untwist shell
    base = subdivided_tet_map()
    cx = base.complex
    Q = Rotation.from_rotvec(
        np.pi * np.asarray(axis) / np.linalg.norm(axis)).as_matrix()
    pl = pl_map_from_vertex_images(cx, base(cx.points) @ Q.T)
    try:
        g = assemble(pl, choose_params(pl))
    except ConstructionError:
        return
    (vp,) = g.vertex_patches
    rng = np.random.default_rng(0)
    u = rng.normal(size=(20000, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = vp.V + u * (vp.R * rng.uniform(0.5, 0.75, 20000))[:, None]
    assert np.all(np.linalg.det(g.derivative(x)) > 0)
