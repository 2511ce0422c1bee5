"""End-to-end smoothing pipeline: parameter certification, patch
assembly and dispatch, the difference set, inversion, and the sweep."""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from plsmooth import geometry as geo
from plsmooth import pipeline
from plsmooth.builders import (kuhn_grid, kuhn_identity, perturbed_kuhn_map,
                               subdivided_tet_map, two_tet_map)
from plsmooth.errors import ConstructionError, DomainError, ParameterError
from plsmooth.mesh import (FacePair, PLMap, SimplicialComplex, face_pairs,
                           pl_map_from_vertex_images)
from plsmooth.pipeline import (SWEEP_COLUMNS, SWEEP_DEFAULTS, FacePatch,
                               SmoothingParams, assemble, choose_params,
                               format_table, lambda_sweep)

from oracles import cylinder_volume, polygon_area, seeded_linf_difference

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def _affine_grid_map():
    cx = kuhn_grid(2, 1, 1)
    A = np.array([[1.2, 0.1, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]])
    return pl_map_from_vertex_images(cx, cx.points @ A.T + [0.3, -0.1, 0.2])


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("build", [_affine_grid_map, perturbed_kuhn_map])
def test_batch_that_no_patch_holds_is_f_from_one_bulk_call(build, extend,
                                                          monkeypatch):
    # a batch without a patch point reaches the bulk whole, uncopied, in one
    # call, and gets f and Df bit for bit; with extend, points outside the
    # complex too
    pl = build()
    g = assemble(pl, choose_params(pl))
    rng = np.random.default_rng(7)
    x = _interior_samples(pl, 3000, rng)
    if extend:
        lo, hi = pl.complex.points.min(axis=0), pl.complex.points.max(axis=0)
        x = np.vstack([x, rng.uniform(lo - 0.2, hi + 0.2, (1000, 3))])
    held = np.zeros(len(x), dtype=bool)
    for p in g.patches:
        held |= p.mask(x)
    x = x[~held]
    assert len(x) > 2000 and (build is perturbed_kuhn_map) == bool(g.patches)
    ci = pl.complex.locate(x, extend=extend)
    assert np.all(ci >= 0) and (not extend or not pl.complex.contains(x).all())
    seen = []
    real = pipeline.SmoothedMap._bulk_cells

    def recorded(self, pts, ext):
        seen.append(pts)
        return real(self, pts, ext)
    monkeypatch.setattr(pipeline.SmoothedMap, "_bulk_cells", recorded)
    y, J = g._dispatch(x, jac=True, extend=extend)
    assert len(seen) == 1 and seen[0] is x
    assert np.array_equal(y, pl.apply(x, ci))
    assert np.array_equal(J, pl.matrices[ci])
    assert np.array_equal(g.evaluate(x, extend=extend), y)
    assert np.array_equal(g.derivative(x, extend=extend), J)


@pytest.mark.parametrize("method", ["evaluate", "derivative"])
@pytest.mark.parametrize("x", [[[np.nan, 0.5, 0.5]],
                               [[0.5, 0.5, 0.5], [np.nan, 0.5, 0.5]]],
                         ids=["alone", "after_a_patch_point"])
def test_extend_refuses_a_point_with_a_non_finite_coordinate(kuhn_setup,
                                                            method, x):
    # no cell is nearest to a NaN point: a DomainError names it, where the
    # last piece used to stand in
    _, _, g = kuhn_setup
    assert g._owners(np.array(x)[:-1]).tolist() == [0] * (len(x) - 1)
    with pytest.raises(DomainError, match=r"point \[nan 0\.5 0\.5\]"):
        getattr(g, method)(x, extend=True)


# the entry points that take a point batch, each with and without extend
# where it has the option
_ENTRY_POINTS = {
    "g.evaluate": lambda pl, g, x: g.evaluate(x),
    "g.evaluate-extend": lambda pl, g, x: g.evaluate(x, extend=True),
    "g.derivative": lambda pl, g, x: g.derivative(x),
    "g.derivative-extend": lambda pl, g, x: g.derivative(x, extend=True),
    "g.inverse": lambda pl, g, x: g.inverse(x),
    "f": lambda pl, g, x: pl(x),
    "f.derivative": lambda pl, g, x: pl.derivative(x),
    "inverse_pl": lambda pl, g, x: pl.inverse_pl(x),
    "inverse_pl-extend": lambda pl, g, x: pl.inverse_pl(x, extend=True),
    "locate": lambda pl, g, x: pl.complex.locate(x),
    "locate-extend": lambda pl, g, x: pl.complex.locate(x, extend=True),
    "contains": lambda pl, g, x: g.contains(x),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("v", [np.inf, -np.inf, np.nan])
def test_a_non_finite_point_gets_a_domain_error_or_no_cell(kuhn_setup, v,
                                                           entry):
    # after a valid point, one with a non-finite coordinate: no warning (the
    # suite turns warnings into errors), and a DomainError that names it,
    # or no cell from the queries that report one
    pl, _, g = kuhn_setup
    bad = np.array([v, 0.5, 0.5])
    x = np.array([[0.5, 0.5, 0.5], bad])
    if entry.startswith(("locate", "contains")):
        got = _ENTRY_POINTS[entry](pl, g, x)
        assert got[1] == (False if entry == "contains" else -1)
        return
    with pytest.raises(DomainError, match=re.escape(f"point {bad}")):
        _ENTRY_POINTS[entry](pl, g, x)


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


def _count_calls(monkeypatch, owner, name, counts):
    """Count the calls of ``owner.name`` in ``counts[name]``."""
    real = getattr(owner, name)

    def counted(*args, **kw):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kw)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_sweep_integrates_once_for_every_lambda(setup, request, monkeypatch):
    # the default five-lambda sweep fits its weights from three quadratures
    # and takes every node's values from one Jacobian dispatch, on the
    # lambda = 1 map, one inverse_pl and one linf_difference; a ball's
    # smoother dispatches the map without balls, which is not counted
    pl, params, _ = request.getfixturevalue(setup)
    calls, counts = _record_dispatches(monkeypatch), {}
    _count_calls(monkeypatch, pipeline.SmoothedMap, "_quadrature", counts)
    _count_calls(monkeypatch, PLMap, "inverse_pl", counts)
    _count_calls(monkeypatch, pipeline, "linf_difference", counts)
    rows = lambda_sweep(pl, params)
    assert len(rows) == len(SWEEP_DEFAULTS["lambdas"]) == 5
    jac = [c for c in calls
           if c[2] and len(c[0].vertex_patches) == len(params.R)]
    assert len(jac) == 1 and jac[0][0].params.lam == 1.0
    assert counts["_quadrature"] <= 3
    assert counts["inverse_pl"] == counts["linf_difference"] == 1


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
    # |E| is the difference quadrature's weight sum, the one measure of E
    _, _, g = kuhn_setup
    vol = g.volume_difference_set()
    pts, wts = g.difference_quadrature()
    assert vol > 0
    assert vol == float(np.sum(wts))


def test_volume_quadrature_consistency_with_ball(subdiv_setup):
    _, _, g = subdiv_setup
    vol = g.volume_difference_set()
    pts, wts = g.difference_quadrature()
    assert vol == float(np.sum(wts))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_volume_meets_the_sweep_gate(setup, request):
    # the benchmark's check of the sweep: over the default lambdas |E|
    # strictly decreases and |E| / lambda does not increase
    _, _, g = request.getfixturevalue(setup)
    lams = SWEEP_DEFAULTS["lambdas"]
    vol = [g.scaled(lam).volume_difference_set() for lam in lams]
    for k in range(1, len(lams)):
        assert vol[k] < vol[k - 1]
        assert vol[k] / lams[k] <= vol[k - 1] / lams[k - 1]


@pytest.mark.parametrize("lam", [1.0, 0.25, 0.0625])
def test_ball_weights_sum_to_the_ball_volume(subdiv_setup, lam):
    # a ball's term of |E| is its nodes' weights: Gauss in the radius and
    # the polar angle and equal azimuth steps integrate r^2 sin(phi) exactly
    _, _, g = subdiv_setup
    g = g.scaled(lam)
    assert g.vertex_patches
    for vp in g.vertex_patches:
        assert g._ball_nodes(vp)[1].sum() == pytest.approx(
            4.0 / 3.0 * np.pi * vp.R ** 3, rel=1e-14, abs=0)


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


def _three_cell_slab(plmap, lam=1.0):
    """The three-cell map's slab, which choose_params rejects, by hand."""
    return assemble(plmap, SmoothingParams(
        R={}, r={}, w={(0, 1, 2): 0.1}).scaled(lam))


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


def _convex_polygon(rng, m):
    """The hull of m points of a random ellipse on the integer grid, at a
    scale of 2^20, either way round: a half-plane with a small integer
    normal through one of its vertices holds it exactly."""
    ang = rng.uniform(0.0, 2 * np.pi, m)
    rot = rng.uniform(0.0, 2 * np.pi)
    e = np.stack([np.cos(ang), rng.uniform(1e-2, 1.0) * np.sin(ang)], axis=1)
    R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
    P = np.round((e @ R.T + rng.normal(size=2)) * 2 ** 20)
    P = P[scipy.spatial.ConvexHull(P).vertices]
    return P if rng.uniform() < 0.5 else P[::-1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 8))
def test_clip_polygons_match_clip(seed, m):
    # half-planes through the polygon, through one of its vertices, below
    # it (empty) and above it (all kept)
    rng = np.random.default_rng(seed)
    polys, a, b = [], [], []
    for kind in ("cut", "vertex", "empty", "all") * 3:
        P = _convex_polygon(rng, m)
        n = rng.integers(-8, 9, 2).astype(float)
        if not n.any():
            n[0] = 1.0
        h = P @ n
        b.append({"cut": rng.uniform(h.min(), h.max()),
                  "vertex": h[rng.integers(len(P))],
                  "empty": h.min() - 1.0, "all": h.max() + 1.0}[kind])
        polys.append(P)
        a.append(n)
    K = max(len(P) for P in polys)
    pad = np.zeros((len(polys), K, 2))
    for i, P in enumerate(polys):
        pad[i, :len(P)] = P
    got, k = geo.clip_polygons(pad, [len(P) for P in polys], np.array(a),
                               np.array(b))
    for i, (P, n, c) in enumerate(zip(polys, a, b)):
        ref = _clip(list(P), n, c)
        if len(ref) < 3:
            assert k[i] == 0
            continue
        assert k[i] == len(ref)
        ref = np.array(ref)
        gap = np.linalg.norm(got[i, :k[i], None] - ref[None], axis=-1)
        scale = np.max(np.abs(P))
        assert np.all(gap.min(axis=0) <= 1e-12 * scale)
        assert np.all(gap.min(axis=1) <= 1e-12 * scale)
        # in angle order: the same area as the reference's, to the
        # rounding of the shoelace products
        assert abs(polygon_area(got[i, :k[i]])) == pytest.approx(
            abs(polygon_area(ref)), rel=1e-12, abs=1e-14 * scale ** 2)
    assert list(k[3::4]) == [len(P) for P in polys[3::4]]
    assert not np.any(k[2::4])
    got, k = geo.clip_polygons(np.zeros((0, 3, 2)), [], np.zeros((0, 2)), [])
    assert got.shape == (0, 0, 2) and k.shape == (0,)


def _owned_section_area(g, fp, s):
    """The area that the slab ``fp`` owns at height ``s``, section by
    section: the cell's section, clipped by its four half-spaces, less the
    disks of the balls at the face's vertices and the strips of the
    cylinders on its edges, plus each strip's part in those disks."""
    o, n, axes = fp.pair.frame.origin, fp.n, fp.pair.frame.R[1:]
    x0 = o + s * n
    big = 10.0 * g.scale
    tri = [big * np.array(c) for c in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    for h in geo.halfspaces_of_tet(
            g.plmap.complex.cell_points(fp.pair.cell_pos)):
        tri = _clip(tri, axes @ h[:3], -(h[:3] @ x0 + h[3]))
    disks = [(axes @ (vp.V - o), np.sqrt(vp.R ** 2 - s ** 2))
             for vp in g.vertex_patches if vp.star.vertex in fp.pair.face]
    parts = [(1.0, tri, None)] + [(-1.0, tri, d) for d in disks]
    for ep in g.edge_patches:
        if not set(ep.fan.edge) <= set(fp.pair.face):
            continue
        u = geo.normalize(axes @ ep.fan.direction)
        a0, v = axes @ (ep.fan.V0 - o), np.array([-u[1], u[0]])
        half = np.sqrt(ep.r ** 2 - s ** 2)
        strip = tri
        for a, b in ((v, v @ a0 + half), (-v, half - v @ a0),
                     (-u, -(u @ a0)), (u, u @ a0 + ep.L)):
            strip = _clip(strip, a, b)
        parts += [(-1.0, strip, None)] + [(1.0, strip, d) for d in disks]
    total = 0.0
    for sign, poly, disk in parts:
        if len(poly) < 3:
            continue
        if disk is None:
            total += sign * abs(polygon_area(poly))
        else:
            total += sign * geo.polygon_disk_areas(
                np.array(poly)[None], [len(poly)], *disk)[0]
    return total


@pytest.mark.parametrize("build", [perturbed_kuhn_map, subdivided_tet_map,
                                   "three_cell_map"])
@pytest.mark.parametrize("lam", [1.0, 0.25, 0.0625])
def test_slab_weights_match_the_sectioned_oracle(build, lam, request):
    # each slab's node weights, 4 Gauss panels of 8, sum to its owned
    # volume: 64 sections on 16 panels of 4, each cut from the cell by its
    # half-spaces and clipped in the plane one half-plane at a time
    if build == "three_cell_map":
        g = _three_cell_slab(request.getfixturevalue(build), lam)
    else:
        pl = build()
        g = assemble(pl, choose_params(pl).scaled(lam))
    got = g._slab_nodes()[1].sum(axis=1)
    for fp, vol in zip(g.face_patches, got):
        s, ws = pipeline._panel_gauss(np.linspace(0.0, fp.width, 17), 4)
        ref = sum(w * _owned_section_area(g, fp, h) for h, w in zip(s, ws))
        assert vol == pytest.approx(ref, rel=1e-7, abs=0)


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup",
                                   "three_cell_map"])
@pytest.mark.parametrize("lam", [1.0, 0.0625])
def test_slab_nodes_rest_on_their_slab_and_cell(setup, lam, request):
    # the facts the one-node-per-height rule rests on: every slab node is
    # held by its slab and carries cell_pos, and inverse_pl puts its image
    # in image cell cell_pos; so each slab's term of |E| is the sum of its
    # nodes' weights, bit for bit
    if setup == "three_cell_map":
        g = _three_cell_slab(request.getfixturevalue(setup), lam)
    else:
        pl, params, _ = request.getfixturevalue(setup)
        g = assemble(pl, params.scaled(lam))
    pts, wts = g.difference_quadrature()
    cell, made = g._dq[2], _made(g)
    first = len(g.vertex_patches) + len(g.edge_patches)
    terms = g._slab_nodes()[1].sum(axis=1)
    for k, fp in enumerate(g.face_patches):
        m = made == first + k
        assert np.all(g._owners(pts[m]) == first + k)
        assert np.all(cell[m] == fp.pair.cell_pos)
        ci = g.plmap.inverse_pl(g.evaluate(pts[m]), tol=1e-7, extend=True)[1]
        assert np.all(ci == fp.pair.cell_pos)
        assert np.all(wts[m] > 0) and wts[m].sum() == terms[k]


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_slab_rule_matches_monte_carlo(setup, request):
    # each slab's owned measure and its integral of |Dg - Df|^2 against
    # uniform points of its frustum, held by _owners and evaluated by
    # _dispatch: within 4 standard errors
    pl, _, g = request.getfixturevalue(setup)
    pts, wts = g.difference_quadrature()
    made = _made(g)
    first = len(g.vertex_patches) + len(g.edge_patches)
    rng = np.random.default_rng(19)
    n = 40_000
    for k, fp in enumerate(g.face_patches):
        Df = pl.matrices[fp.pair.cell_pos]
        m = made == first + k
        Dg = g._dispatch(pts[m], value=False, jac=True)[1]
        rule = (wts[m].sum(),
                wts[m] @ geo.spectral_norm(Dg - Df) ** 2)
        pick = rng.choice(3, size=n, p=fp.tet_volumes / fp.volume)
        x = np.einsum("nk,nkj->nj", rng.dirichlet(np.ones(4), size=n),
                      fp.frustum[geo.FRUSTUM_TETS[pick]])
        held = g._owners(x) == first + k
        f = np.zeros((2, n))
        f[0, held] = 1.0
        Dg = g._dispatch(x[held], value=False, jac=True)[1]
        f[1, held] = geo.spectral_norm(Dg - Df) ** 2
        mean, err = f.mean(axis=1), f.std(axis=1) / np.sqrt(n)
        assert 0.5 < mean[0] < 1.0
        assert np.all(np.abs(rule - fp.volume * mean)
                      <= 4.0 * fp.volume * err)


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


def _per_node_sweep(plmap, params, lambdas, p=2.0, q=2.0):
    """lambda_sweep with the cell of f located at every node: the reference
    for the sweep that takes it from the cylinder nodes' records, with
    linf_f by the per-patch rule of ``SmoothedMap.linf_f``."""
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
        linf = g.linf_f(pa, np.linalg.norm(y - plmap.apply(pa, cf), axis=-1),
                        _made(g)[act])
        Jg = geo.det3(Dg)
        Dgi = geo.inv3(Dg)
        xb, ci = plmap.inverse_pl(y, tol=1e-7, extend=True)
        diff_inv = geo.spectral_norm(Dgi - piece_invs[ci])
        w1q_inv = float(np.sum(wa * diff_inv ** q * Jg) ** (1.0 / q))
        linf_inv = float(np.max(np.linalg.norm(pa - xb, axis=-1)))
        sup_dg = float(np.max(geo.spectral_norm(Dg), initial=piece_norm))
        sup_dgi = float(np.max(geo.spectral_norm(Dgi),
                               initial=piece_inv_norm))
        rows.append(dict(zip(SWEEP_COLUMNS,
                             (float(lam), vol, linf, w1p, linf_inv,
                              w1q_inv, sup_dg, sup_dgi))))
    return rows


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_column_sweep_matches_the_per_node_sweep(setup, request):
    # a cylinder node's recorded cell is the one locate gives it, so every
    # column agrees, linf_f too
    pl, params, _ = request.getfixturevalue(setup)
    lambdas = (1.0, 0.25)
    rows = lambda_sweep(pl, params, lambdas=lambdas)
    ref = _per_node_sweep(pl, params, lambdas)
    for row, row_ref in zip(rows, ref):
        for col in SWEEP_COLUMNS:
            assert row[col] == pytest.approx(row_ref[col], rel=1e-12), col


def _made(g):
    """The index in ``g.patches`` of the patch that made each node of the
    difference quadrature: slab, then cylinder, then ball nodes."""
    nv, ne = len(g.vertex_patches), len(g.edge_patches)
    sizes = ([g._slab_nodes()[1].shape[1]] * len(g.face_patches)
             + [len(g._cylinder_nodes(ep)[1]) for ep in g.edge_patches]
             + [len(g._ball_nodes(vp)[1]) for vp in g.vertex_patches])
    return np.repeat(np.r_[nv + ne:len(g.patches), nv:nv + ne, :nv], sizes)


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup",
                                   "subdiv_without_ball"])
@pytest.mark.parametrize("lam", [1.0, 0.25, 0.0625])
def test_weighted_nodes_belong_to_the_patch_that_made_them(setup, lam,
                                                           request):
    # the quadrature and the dispatch share one precedence rule, which the
    # quadrature no longer applies: _owners, the dispatch's rule, gives
    # every node, of positive weight or not, to the patch that made it, and
    # every patch keeps some of its nodes.  Without its ball the subdivided
    # map's four cylinders overlap about the vertex, where each keeps only
    # what the cylinders before it leave
    pl, params, _ = request.getfixturevalue(setup.replace("_without_ball",
                                                          "_setup"))
    g = assemble(pl, params.scaled(lam))
    if setup == "subdiv_without_ball":
        g = pipeline.SmoothedMap(pl, g.params, g.face_patches,
                                 g.edge_patches, [])
    pts, wts = g.difference_quadrature()
    made = _made(g)
    assert len(made) == len(pts)
    assert np.array_equal(g._dq[3], made)
    assert np.array_equal(g._owners(pts), made)
    assert set(made[wts > 0]) == set(range(len(g.patches)))


# ---------------------------------------------------------------------------
# one certification per sweep, and sup |g - f| per patch


def _certificates(g):
    """The patches' certificates: the face floors, each cylinder's rho and
    psi reference (angles and values), the balls' rho."""
    out = [fp.floor for fp in g.face_patches]
    for ep in g.edge_patches:
        out += [ep.smoother.rho, *ep.smoother._psi_ref]
    return out + [vp.smoother.rho for vp in g.vertex_patches]


@pytest.mark.parametrize("setup,rel", [("kuhn_setup", 0.0),
                                       ("subdiv_setup", 1e-12)])
@pytest.mark.parametrize("lam", [0.5, 0.0625])
def test_scaled_map_has_the_certificates_of_a_fresh_assembly(setup, rel, lam,
                                                             request):
    # each local picture is a cone, so the certificates that g.scaled keeps
    # are those assemble makes again at lam: bit for bit on the Kuhn map;
    # the ball's rho, sampled through the whole map, to 1e-12
    pl, params, g = request.getfixturevalue(setup)
    g.difference_quadrature()
    gs, fresh = g.scaled(lam), assemble(pl, params.scaled(lam))
    assert gs._dq is None
    assert gs.params == fresh.params
    for a, b in zip(_certificates(gs), _certificates(fresh), strict=True):
        assert np.allclose(a, b, rtol=rel, atol=0), (a, b)
    for ps, pf in zip(gs.patches, fresh.patches):
        for attr in ("width", "frustum", "r", "R"):
            if hasattr(pf, attr):
                assert np.array_equal(getattr(ps, attr), getattr(pf, attr))
        if hasattr(pf, "smoother") and hasattr(pf.smoother, "blends"):
            assert [ps.dilation * b.width for b in ps.smoother.blends] == \
                [b.width for b in pf.smoother.blends]
    x = gs.sample_patches(n_per_patch=200, rng=4)
    ys, Js = gs._dispatch(x, jac=True)
    yf, Jf = fresh._dispatch(x, jac=True)
    assert np.allclose(ys, yf, rtol=rel, atol=0)
    assert np.allclose(Js, Jf, rtol=100 * rel, atol=100 * rel)


def test_scaled_map_builds_no_map_and_no_smoother(subdiv_setup, monkeypatch):
    # g.scaled keeps each cylinder's and ball's smoother: the map it returns
    # is the one SmoothedMap it builds, and no smoother, sphere map or
    # isotopy is made again
    from plsmooth import edge, vertex
    g = subdiv_setup[2]
    built = []
    for cls in (pipeline.SmoothedMap, edge.EdgeSmoother, vertex.VertexSmoother,
                vertex.SphereMap, vertex.SphereIsotopy):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _i=cls.__init__,
                            **k: built.append(type(self)) or _i(self, *a, **k))
    gs = g.scaled(0.3)
    assert built == [pipeline.SmoothedMap]
    assert [vp.smoother for vp in gs.vertex_patches] == \
        [vp.smoother for vp in g.vertex_patches]
    # the dilation is relative to the certified map, as lambda is
    ball, = gs.scaled(0.15).vertex_patches
    assert ball.dilation == pytest.approx(0.15, rel=1e-15)


@pytest.fixture(scope="module")
def deep_grid_setup():
    """kuhn_grid(4, 4, 4) with the image of its centre vertex 62 moved, the
    PL validation stubbed out (it takes about 34 s on a 2-core host): 48
    slabs, 50 cylinders and 15 balls."""
    cx = kuhn_grid(4, 4, 4)
    images = cx.points.copy()
    images[62] += [0.08, -0.05, 0.06]
    pl = pl_map_from_vertex_images(cx, images)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "validate_pl_homeo",
                   lambda plmap: SimpleNamespace(orientation=1))
        params = choose_params(pl)
    return pl, params, assemble(pl, params)


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup",
                                   "deep_grid_setup"])
def test_each_patch_meets_only_its_star(setup, request):
    # the locality that _cylinder_nodes and SmoothedMap.scaled rely on, by
    # exact distances: a cylinder clears every cell outside its ends' stars,
    # every ball at another vertex and every cylinder of an edge that shares
    # no end; no slab or cylinder of a simplex without V meets B(V, R); and
    # so the map without balls is a cone about V in B(V, R)
    pl, params, g = request.getfixturevalue(setup)
    cx, tri = pl.complex, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    seg = lambda p: cx.points[[p.fan.edge[0], p.fan.edge[1], p.fan.edge[1]]]
    assert g.edge_patches
    for ep in g.edge_patches:
        a, b, _ = seg(ep)
        far = np.array([c for c in cx.cells if not set(ep.fan.edge) & set(c)],
                       dtype=int).reshape(-1, 4)
        faces = cx.points[far[:, tri]]
        assert np.all(geo.dist_segment_triangle(a, b, faces) > ep.r)
        for other in g.edge_patches:
            if not set(ep.fan.edge) & set(other.fan.edge):
                assert geo.dist_segment_triangle(a, b, seg(other)) > \
                    ep.r + other.r
    for vp in g.vertex_patches:
        v = vp.star.vertex
        for ep in g.edge_patches:
            if v not in ep.fan.edge:
                assert geo.dist_point_simplex(vp.V, seg(ep)) > vp.R + ep.r
        for fp in g.face_patches:
            if v not in fp.pair.face:
                # V is outside the convex frustum, so its distance to the
                # frustum is the least to the faces of the frustum's tets
                tets = fp.frustum[geo.FRUSTUM_TETS]
                assert geo.dist_point_simplex(vp.V, tets[:, tri]).min() > vp.R
    # the map without balls at lam = 1/2, assembled afresh, is the one at
    # lam = 1 dilated about each ball's vertex
    if not g.vertex_patches:
        return
    half = assemble(pl, replace(params.scaled(0.5), R={}))
    rng = np.random.default_rng(12)
    n = 400
    V, fV, R = (np.repeat([getattr(vp, a) for vp in g.vertex_patches], n, 0)
                for a in ("V", "fV", "R"))
    y = R[:, None] * rng.uniform(0.0, 1.0, (len(V), 1)) ** (1 / 3) \
        * geo.normalize(rng.normal(size=(len(V), 3)))
    y1, J1 = g.vertex_patches[0].base._dispatch(V + y, jac=True)
    yh, Jh = half._dispatch(V + 0.5 * y, jac=True)
    np.testing.assert_allclose(yh - fV, 0.5 * (y1 - fV), rtol=1e-12,
                               atol=1e-15)
    np.testing.assert_allclose(Jh, J1, rtol=1e-10, atol=1e-10)


def test_sweep_certifies_each_patch_once(subdiv_setup, monkeypatch):
    # the face floors, the ray blends' floors, the squeeze circle's checks
    # and the ball's certification run once per patch in a sweep of five
    # lambdas, and the local pictures are built once per map
    from plsmooth import edge, mesh, vertex
    pl, params, _ = subdiv_setup
    pl = PLMap(pl.complex, pl.matrices, pl.offsets)
    counts = {}
    for owner, name in [(pipeline, "face_floor"), (edge, "face_floor"),
                        (edge.EdgeSmoother, "_setup_planar"),
                        (vertex, "degree"), (mesh, "face_pairs"),
                        (mesh, "edge_fans"), (mesh, "vertex_stars")]:
        _count_calls(monkeypatch, owner, name, counts)
    lambda_sweep(pl, choose_params(pl))
    swept = dict(counts)
    g = assemble(pl, params)
    rays = sum(ep.fan.m for ep in g.edge_patches)
    assert swept == {"face_floor": len(g.face_patches) + rays,
                     "_setup_planar": len(g.edge_patches),
                     "degree": len(g.vertex_patches), "face_pairs": 1,
                     "edge_fans": 1, "vertex_stars": 1}


def test_kappa_is_the_largest_ramp_difference():
    # KAPPA = max over [0, 1] of u (1 - eta(u)), the largest |g - f| in a
    # slab over w |a|: a bounded 1-D search and a dense grid agree
    from plsmooth.blend import eta
    res = scipy.optimize.minimize_scalar(
        lambda u: -u * (1.0 - eta(u)), bounds=(0.0, 1.0), method="bounded",
        options={"xatol": 1e-12})
    assert pipeline.KAPPA == pytest.approx(-res.fun, rel=1e-15)
    u = np.linspace(0.0, 1.0, 1_000_001)
    assert pipeline.KAPPA >= np.max(u * (1.0 - eta(u)))
    assert pipeline.KAPPA == pytest.approx(0.279280, abs=5e-7)


def _slab_only_map():
    M = np.eye(3)
    M[:, 2] = [0.1, -0.2, 1.3]
    return two_tet_map(np.eye(3), M)


@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_slab_linf_is_its_closed_form(lam):
    # on a map with one slab, linf_f is w |a| KAPPA, and no point of a
    # dense sample of the slab exceeds it
    pl = _slab_only_map()
    params = choose_params(pl)
    assert len(params.w) == 1 and not params.r and not params.R
    row, = lambda_sweep(pl, params, lambdas=(lam,))
    fp = assemble(pl, params.scaled(lam)).face_patches[0]
    closed = fp.width * np.linalg.norm(fp.blend.jump) * pipeline.KAPPA
    assert row["linf_f"] == pytest.approx(closed, rel=1e-14)
    # points of the face moved to 20,001 heights across the slab
    bar = np.random.default_rng(7).dirichlet(np.ones(3), size=20001)
    x = bar @ fp.tri + np.outer(np.linspace(0.0, fp.width, 20001), fp.n)
    x = x[fp.mask(x)]
    assert len(x) > 10000
    diff = np.linalg.norm(fp.evaluate(x) - pl(x), axis=-1)
    assert np.max(diff) <= row["linf_f"] * (1 + 1e-12)
    assert np.max(diff) >= row["linf_f"] * (1 - 1e-6)


def _dense_cylinder_max(g, ep, n=401):
    """max |g - f| on a dense (t, theta) grid of the cylinder's disk at the
    middle of its edge, g by the patch and f by the piece of each sector."""
    fan = ep.fan
    t, th = (a.ravel() for a in np.meshgrid(
        np.linspace(0.0, ep.r, n), np.linspace(-np.pi, np.pi, 2 * n),
        indexing="ij"))
    y = np.stack([t * np.cos(th), t * np.sin(th), np.full_like(t, ep.L / 2)],
                 axis=-1)
    x = y @ fan.Q + fan.V0
    ci = np.asarray(fan.sector_cells)[fan.sector_of(th)]
    return float(np.max(np.linalg.norm(ep.evaluate(x) - g.plmap.apply(x, ci),
                                       axis=-1)))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
@pytest.mark.parametrize("lam", [1.0, 0.125])
def test_cylinder_linf_bounds_a_dense_grid(setup, lam, request):
    # each cylinder's sup is at least the largest |g - f| on a dense (t,
    # theta) grid of its disk, and the sweep's linf_f at least every one
    pl, params, g = request.getfixturevalue(setup)
    g = g.scaled(lam)
    pts, wts = g.difference_quadrature()
    act = wts > 0
    diff = np.linalg.norm(g.evaluate(pts[act]) - pl(pts[act]), axis=-1)
    made = g._dq[3][act]
    row, = lambda_sweep(pl, params, lambdas=(lam,))
    for k, ep in enumerate(g.edge_patches):
        m = np.flatnonzero(made == len(g.vertex_patches) + k)
        sup = g._cylinder_sup(ep, pts[act][m[np.argmax(diff[m])]])
        dense = _dense_cylinder_max(g, ep)
        assert sup >= dense * (1 - 1e-12)
        assert sup <= dense * (1 + 1e-3)
        assert row["linf_f"] >= sup * (1 - 1e-12)


def test_linf_over_lambda_is_constant(request):
    # the slabs, cylinders and balls are cones, so sup |g - f| scales with
    # lambda; the subdivided map's ball, whose term is sampled, is taken
    # once, at lambda = 1
    for setup in ("kuhn_setup", "subdiv_setup"):
        pl, params, _ = request.getfixturevalue(setup)
        rows = lambda_sweep(pl, params)
        ratio = [r["linf_f"] / r["lambda"] for r in rows]
        assert ratio == pytest.approx([ratio[0]] * len(rows), rel=1e-12)


def _workload_map(name, seed):
    """The map of a benchmark workload, its generator loaded from its file,
    read-only."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    wl = mod.make(name, seed)
    return PLMap(SimplicialComplex(wl.points, wl.cells), wl.matrices,
                 wl.offsets)


@pytest.mark.parametrize("build", [
    perturbed_kuhn_map, subdivided_tet_map,
    lambda: _workload_map("kuhn_sweep", 0),
    lambda: _workload_map("vertex_ball", 0)],
    ids=["perturbed_kuhn", "subdivided_tet", "kuhn_sweep_0", "vertex_ball_0"])
def test_quadrature_weights_are_cubics_in_lambda(build):
    # every patch is a cone about its simplex and every overlap of two a
    # cone about the simplex they share, so node for node the quadratures
    # at every lambda have the same cell and maker, and each weight is
    # a lam + b lam^2 + c lam^3: the cubic fitted at 1, 1/2 and 1/4 gives
    # the weights at 1/3, 1/8 and 1/32 to 1e-12 of the largest there
    pl, fit_lambdas = build(), (1.0, 0.5, 0.25)
    g = assemble(pl, choose_params(pl))
    fit = [g.scaled(lam)._quadrature() for lam in fit_lambdas]
    coef = np.linalg.solve(np.vander(fit_lambdas, 4)[:, :3],
                           [d[1] for d in fit])
    for lam in (1 / 3, 1 / 8, 1 / 32):
        _, wts, cell, made = g.scaled(lam)._quadrature()
        assert np.array_equal(cell, fit[0][2])
        assert np.array_equal(made, fit[0][3])
        cubic = np.vander([lam], 4)[0, :3] @ coef
        assert np.max(np.abs(wts - cubic)) <= 1e-12 * np.max(wts)


def _bump(a):
    a = a.copy()
    a[0] += 1
    return a


@pytest.mark.parametrize("edit", [
    lambda q: tuple(a[1:] for a in q),
    lambda q: (*q[:2], _bump(q[2]), q[3]),
    lambda q: (*q[:3], _bump(q[3]))], ids=["count", "cell", "maker"])
def test_sweep_refuses_quadratures_that_differ(kuhn_setup, monkeypatch,
                                               edit):
    # the weights are fitted node by node, so a quadrature at lambda 1/2
    # with a node less, or with another cell or maker at one node, is
    # refused
    pl, params, _ = kuhn_setup
    real = pipeline.SmoothedMap._quadrature
    monkeypatch.setattr(pipeline.SmoothedMap, "_quadrature", lambda self: (
        edit(real(self)) if self.params.lam == 0.5 else real(self)))
    with pytest.raises(ConstructionError, match="differ"):
        lambda_sweep(pl, params, lambdas=(1.0,))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_linf_is_at_least_the_random_estimate(setup, request):
    # the per-patch rule reads no lower than the seeded random refinement of
    # the largest node, which it replaces on slabs and cylinders, at any seed
    pl, params, _ = request.getfixturevalue(setup)
    lambdas = (1.0, 0.25, 0.0625)
    rows = lambda_sweep(pl, params, lambdas=lambdas)
    for row, lam in zip(rows, lambdas):
        g = assemble(pl, params.scaled(lam))
        pts, wts = g.difference_quadrature()
        pa = pts[wts > 0]
        diff = np.linalg.norm(g.evaluate(pa) - pl(pa), axis=-1)
        for seed in range(3):
            assert row["linf_f"] >= seeded_linf_difference(pl, g, pa, diff,
                                                           seed)


def _cylinder_pieces(g):
    """The positive-weight cylinder nodes of the difference quadrature, with
    their edge patch, the cell each carries and the half-length of its
    piece: its weight over its (t, theta) column's area weight, the column
    found by the node's position across the edge."""
    pts, wts = g.difference_quadrature()
    cell = g._dq[2]
    made = _made(g)
    out = []
    for k, ep in enumerate(g.edge_patches):
        m = (made == len(g.vertex_patches) + k) & (wts > 0)
        base, area = g._columns(ep)
        dist, col = scipy.spatial.cKDTree(
            ep.fan.to_frame(base)[:, :2]).query(ep.fan.to_frame(pts[m])[:, :2])
        assert np.max(dist) < 1e-12 * g.scale
        out.append((ep, pts[m], cell[m], 0.5 * wts[m] / area[col]))
    return out


@pytest.mark.parametrize("build", [perturbed_kuhn_map, subdivided_tet_map])
@pytest.mark.parametrize("lam", [1.0, 0.25, 0.0625])
def test_cylinder_weights_match_the_sectioned_volume(build, lam):
    # each cylinder's weight is its volume within the domain, less its
    # concentric parts in the end balls: plain sectioning across the edge
    # on 512 panels agrees to 1e-6, where the 16-node masked rule missed by
    # up to 2e-3
    pl = build()
    g = assemble(pl, choose_params(pl).scaled(lam))
    for ep in g.edge_patches:
        assert g._cylinder_nodes(ep)[1].sum() == pytest.approx(
            cylinder_volume(g, ep), rel=1e-6)


def test_cylinder_nodes_follow_a_reordered_edge_list(subdiv_setup):
    # a cylinder drops the pieces of the balls and of the cylinders before
    # it in the edge list as it is now: reversing the list, which the
    # ball's overlap of all four cylinders makes visible, keeps every
    # cylinder's weight
    pl, params, _ = subdiv_setup
    g = assemble(pl, params)
    before = [g._cylinder_nodes(ep)[1].sum() for ep in g.edge_patches]
    g.edge_patches = g.edge_patches[::-1]
    after = [g._cylinder_nodes(ep)[1].sum() for ep in g.edge_patches[::-1]]
    assert min(after) > 0
    assert after == pytest.approx(before, rel=1e-12)


@pytest.mark.parametrize("lam", [1.0, 0.0625])
def test_cylinders_without_a_ball_cede_their_overlap_forward(subdiv_setup,
                                                            lam):
    # without its ball the subdivided map's four cylinders overlap about
    # the vertex: the first in the list keeps all of itself that lies in
    # the domain, and each later one less than it keeps when listed first
    pl, params, _ = subdiv_setup
    g = assemble(pl, params.scaled(lam))
    g = pipeline.SmoothedMap(pl, g.params, g.face_patches, g.edge_patches,
                             [])
    edges = list(g.edge_patches)
    held = [g._cylinder_nodes(ep)[1].sum() for ep in edges]
    assert held[0] == pytest.approx(cylinder_volume(g, edges[0]), rel=1e-6)
    for k in range(1, len(edges)):
        g.edge_patches = [edges[k]] + edges[:k] + edges[k + 1:]
        assert held[k] < g._cylinder_nodes(edges[k])[1].sum() * (1 - 1e-6)


@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_quadrature_applies_no_mask(kuhn_setup, subdiv_setup, lam,
                                    monkeypatch):
    # a cylinder's own cuts drop the pieces that a ball or an earlier
    # cylinder holds, so neither the quadrature nor |E| calls _owners;
    # that every node is its maker's is the _owners check above
    for pl, params, _ in (kuhn_setup, subdiv_setup):
        g = assemble(pl, params.scaled(lam))
        seen = []
        monkeypatch.setattr(g, "_owners", seen.append)
        assert g.volume_difference_set() > 0
        assert all(g._cylinder_nodes(ep)[1].sum() > 0
                   for ep in g.edge_patches)
        assert seen == []


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_cylinder_nodes_carry_the_located_cell(setup, lam, request):
    # the cell a cylinder or slab node carries is the one locate gives it,
    # and ball nodes carry none
    pl, params, _ = request.getfixturevalue(setup)
    g = assemble(pl, params.scaled(lam))
    pts, wts = g.difference_quadrature()
    cell = g._dq[2]
    is_ball = _made(g) < len(g.vertex_patches)
    assert np.all(cell[~is_ball] >= 0) and np.all(cell[is_ball] == -1)
    act = ~is_ball & (wts > 0)
    assert np.array_equal(cell[act], pl.complex.locate(pts[act]))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_cylinder_piece_is_a_translation(setup, lam, request):
    # along a piece g is its node's value moved by Df along the edge, and
    # Dg is its node's; Dg is checked to what rounding of the position
    # allows, as its variation grows like 1/r in the untwist ring
    pl, params, _ = request.getfixturevalue(setup)
    g = assemble(pl, params.scaled(lam))
    for ep, x, cell, half in _cylinder_pieces(g):
        y, J = g._dispatch(x, jac=True)
        tol = max(1e-12, 200 * np.finfo(float).eps * g.scale / ep.r)
        for s in (-0.99, -0.5, 0.5, 0.99):
            dz = s * half
            ys, Js = g._dispatch(x + dz[:, None] * ep.fan.direction, jac=True)
            moved = y + dz[:, None] * (pl.matrices[cell] @ ep.fan.direction)
            assert np.max(np.linalg.norm(ys - moved, axis=-1)) \
                <= 1e-12 * g.scale
            assert np.all(geo.spectral_norm(Js - J)
                          <= tol * geo.spectral_norm(J))


@pytest.mark.parametrize("setup", ["kuhn_setup", "subdiv_setup"])
def test_cylinder_piece_images_stay_in_one_image_cell(setup, request):
    # the sweep takes Df^-1 of its node's image cell for the whole piece:
    # the images of 63 interior points of each piece take that cell too
    pl, _, g = request.getfixturevalue(setup)
    s = np.arange(1, 64) / 32.0 - 1.0
    for ep, x, _, half in _cylinder_pieces(g):
        ci = pl.inverse_pl(g.evaluate(x), tol=1e-7, extend=True)[1]
        xs = x[:, None] + (s * half[:, None])[..., None] * ep.fan.direction
        cs = pl.inverse_pl(g.evaluate(xs.reshape(-1, 3)), tol=1e-7,
                           extend=True)[1]
        assert np.count_nonzero(cs.reshape(len(x), -1) != ci[:, None]) == 0


def _masked_axial_quadrature(g, nz):
    """The rule that one node per piece replaced, at ``nz`` Gauss nodes
    along the edge: each node of a (t, theta) column weighs its share of
    the column where ``_owners`` gives it to its cylinder and ``locate``
    finds it in the domain.  The slab and ball nodes are g's own."""
    pts, wts = g.difference_quadrature()
    made = _made(g)
    off = ((made < len(g.vertex_patches))
           | (made >= len(g.vertex_patches) + len(g.edge_patches)))
    groups = [(pts[off], wts[off])]
    for k, ep in enumerate(g.edge_patches):
        base, area = g._columns(ep)
        zn, zw = geo.gauss_legendre(nz, 0.0, ep.L)
        x = (base[:, None] + zn[:, None] * ep.fan.direction).reshape(-1, 3)
        w = np.outer(area, zw).ravel()
        w[(g._owners(x) != len(g.vertex_patches) + k)
          | (g.plmap.complex.locate(x) < 0)] = 0.0
        groups.append((x, w))
    return (np.vstack([x for x, _ in groups]),
            np.concatenate([w for _, w in groups]))


def test_cylinder_pieces_match_a_fine_axial_rule(kuhn_setup):
    # w1p_f and w1q_inv against the masked rule at 512 nodes along the
    # edge, node by node and in chunks: that rule misses by about one node
    # weight where a column leaves the domain, the piece rule not at all
    pl, params, _ = kuhn_setup
    row, = lambda_sweep(pl, params, lambdas=(0.25,))
    g = assemble(pl, params.scaled(0.25))
    pts, wts = _masked_axial_quadrature(g, 512)
    act = wts > 0
    pts, wts = pts[act], wts[act]
    invs = pl.inverse_pieces()[1]
    w1p = w1q = 0.0
    for i in range(0, len(pts), 100_000):
        x, w = pts[i:i + 100_000], wts[i:i + 100_000]
        y, Dg = g._dispatch(x, jac=True)
        Df = pl.matrices[pl.locate_inside(x)]
        w1p += np.sum(w * geo.spectral_norm(Dg - Df) ** 2)
        ci = pl.inverse_pl(y, tol=1e-7, extend=True)[1]
        w1q += np.sum(w * geo.spectral_norm(geo.inv3(Dg) - invs[ci]) ** 2
                      * geo.det3(Dg))
    assert row["w1p_f"] == pytest.approx(np.sqrt(w1p), rel=5e-4)
    assert row["w1q_inv"] == pytest.approx(np.sqrt(w1q), rel=5e-4)


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
