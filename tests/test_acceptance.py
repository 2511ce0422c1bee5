"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single [PASS]/[FAIL] line (run with ``pytest -s``
or read the captured output).
"""

import time

import numpy as np
import pytest

from plsmooth.blend import FaceBlend, blend_pass, face_floor
from plsmooth.builders import (perturbed_kuhn_map, subdivided_tet,
                               two_tet)
from plsmooth.edge import EdgeSmoother, ray_blends, synthetic_fan, wedge
from plsmooth.errors import NonInjectiveError, OrientationError
from plsmooth.mesh import PLMap, pl_map_from_vertex_images, validate_pl_homeo
from plsmooth.norms import RINorm, rozumny_check
from plsmooth.pipeline import assemble, choose_params, lambda_sweep
from plsmooth.vertex import degree, integral_degree

from oracles import linear_sphere_map


def _report(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _angle_rate(F, J, x):
    """d/dtheta at fixed t of the angle of the horizontal image F, from the
    Jacobians J at the frame points x."""
    dF = np.einsum("nij,nj->ni", J, np.stack(
        [-x[:, 1], x[:, 0], np.zeros(len(x))], axis=-1))
    return (F[:, 0] * dF[:, 1] - F[:, 1] * dF[:, 0]) / np.sum(F ** 2, axis=-1)


def _make_fan(jump=0.4, angles=(-2.5, 0.3, 1.8), lam=1.1, seed=0):
    angles = np.asarray(angles, dtype=float)
    N = np.array([[-np.sin(a), np.cos(a), 0.0] for a in angles])
    c = np.linalg.svd(N[:, :2].T)[2][-1]
    rng = np.random.default_rng(seed)
    u = rng.normal(size=3)
    u *= jump / np.linalg.norm(u)
    M0 = np.eye(3)
    M0[:, 2] = [0, 0, lam]
    mats = [M0]
    for i in range(1, len(angles)):
        mats.append(mats[-1] + np.outer(c[i] * u, N[i]))
    return synthetic_fan(angles, mats, length=2.0)


def test_criterion_1_face_blend():
    """Face blend exact off strip (1e5 points), det floor, FD Jacobian."""
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(0)
    A1 = np.eye(3)
    d = np.array([0.6, 0.3, -0.2])
    fb = FaceBlend(frame_origin=np.zeros(3), frame_R=np.eye(3),
                   M_neg=A1, c_neg=np.zeros(3),
                   M_pos=A1 + np.outer(d, [1.0, 0, 0]), c_pos=np.zeros(3),
                   width=0.02)
    x = rng.uniform(-1.0, 1.0, size=(100_000, 3))
    off = (x[:, 0] <= 0.0) | (x[:, 0] >= fb.width)
    lo, hi = x[off & (x[:, 0] <= 0)], x[off & (x[:, 0] >= fb.width)]
    ok &= np.array_equal(blend_pass(fb, lo, False)[0], lo @ fb.M_neg.T)
    ok &= np.array_equal(blend_pass(fb, hi, False)[0], hi @ fb.M_pos.T)
    # determinant floor inside the strip
    xin = x.copy()
    xin[:, 0] = rng.uniform(0.0, fb.width, len(x))
    floor = face_floor(fb)
    dets = np.linalg.det(blend_pass(fb, xin[:20000], True)[1])
    ok &= np.min(dets) >= floor - 1e-12
    # finite-difference Jacobian check
    pts = xin[:200]
    J = blend_pass(fb, pts, True)[1]
    h = 1e-7
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (blend_pass(fb, pts + e, False)[0]
              - blend_pass(fb, pts - e, False)[0]) / (2 * h)
        ok &= np.max(np.abs(fd - J[:, :, j])) < 1e-5
    ok &= (time.time() - t0) < 10.0
    _report(ok, "criterion 1: face blend suite (exactness, floor, FD)")


def test_criterion_2_edge_smoother():
    """Cylinder smoother: boundary match, plane behaviour, positivity,
    scale invariance of the operator norm."""
    t0 = time.time()
    ok = True
    fan = _make_fan()
    r, scale = 0.2, 2.0
    sm = EdgeSmoother(fan, [0.002] * 3, r)
    rng = np.random.default_rng(1)
    th = rng.uniform(-np.pi, np.pi, 4000)
    z = rng.uniform(0.2, 1.8, 4000)
    bd = np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)
    wedge_bd = wedge(fan, ray_blends(fan, sm.widths), bd, False)[0]
    ok &= np.max(np.abs(sm.apply(bd, False)[0] - wedge_bd)) < 1e-10 * scale
    # axis translation equivariance and post-flattening horizontal planes
    t = rng.uniform(1e-4, r - 1e-6, 4000)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    c = 0.37
    shift = sm.apply(pts + [0, 0, c], False)[0] - sm.apply(pts, False)[0]
    ok &= np.max(np.abs(shift - np.array([0, 0, fan.lam * c]))) < 1e-10
    inner = t <= 0.8 * r
    ok &= np.max(np.abs(sm.apply(pts[inner], False)[0][:, 2]
                        - fan.lam * z[inner])) < 1e-10
    # positive Jacobian on a 64^3 cylindrical grid
    tg = np.linspace(1e-3, r * 0.9999, 64)
    thg = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    zg = np.linspace(0.05, 1.95, 64)
    T, TH, Z = np.meshgrid(tg, thg, zg, indexing="ij")
    grid = np.stack([T * np.cos(TH), T * np.sin(TH), Z],
                    axis=-1).reshape(-1, 3)
    ok &= np.min(np.linalg.det(sm.apply(grid, True)[1])) > 0
    # sup |Dg| within 5 percent across lambda in {1, 1/2, 1/4}
    sup = []
    probe = pts[::8]
    for lam in (1.0, 0.5, 0.25):
        sm_l = EdgeSmoother(fan, [0.002 * lam] * 3, r * lam)
        sc = probe.copy()
        sc[:, :2] *= lam
        sup.append(np.max(np.linalg.norm(sm_l.apply(sc, True)[1], ord=2,
                                         axis=(1, 2))))
    ok &= (max(sup) - min(sup)) / max(sup) < 0.05
    ok &= (time.time() - t0) < 60.0
    _report(ok, "criterion 2: edge smoother suite (match, planes, "
                "positivity, scale)")


def test_criterion_3_untwist_ring(kuhn_sweep):
    """The untwist ring is a monotone circle isotopy from the identity to
    the lift H of the squeeze circle map, on a synthetic fan and on the
    perturbed Kuhn map's edge."""
    pl, params, _ = kuhn_sweep
    ok = True
    rng = np.random.default_rng(5)
    for sm in (EdgeSmoother(_make_fan(), [0.002] * 3, 0.2),
               assemble(pl, params).edge_patches[0].smoother):
        r, fan = sm.radius, sm.fan
        blends = ray_blends(fan, sm.widths)
        t = rng.uniform(0.4, 0.6, 4000) * r
        th = rng.uniform(-np.pi, np.pi, 4000)
        x = np.stack([t * np.cos(th), t * np.sin(th),
                      rng.uniform(0.0, fan.length, 4000)], axis=-1)
        F, J = sm.apply(x, True)
        F = F[:, :2]
        # the lift is theta for t <= 7r/15 (the image is rho x) ...
        core = t <= 7.0 / 15.0 * r
        ok &= np.max(np.abs(F[core] - sm.rho * x[core, :2])) <= 1e-14 * r
        # ... and H for t >= 8r/15 (the image points along G(3r/5, theta))
        p0 = 0.6 * r * np.stack([np.cos(th), np.sin(th), 0 * th], axis=-1)
        G0, J0 = wedge(fan, blends, p0, True)
        G0 = G0[:, :2]
        u = G0 / np.linalg.norm(G0, axis=-1, keepdims=True)
        outer = t >= 8.0 / 15.0 * r
        Fu = F / np.linalg.norm(F, axis=-1, keepdims=True)
        ok &= np.max(np.abs(Fu[outer] - u[outer])) <= 1e-12
        # between them dL/dtheta stays between 1 and H'
        dL = _angle_rate(F, J, x)
        Hp = _angle_rate(G0, J0, p0)
        slack = 1e-9 * np.maximum(1.0, Hp)
        ok &= np.min(Hp) > 0
        ok &= np.all((dL >= np.minimum(1.0, Hp) - slack)
                     & (dL <= np.maximum(1.0, Hp) + slack))
    _report(ok, "criterion 3: untwist ring (lift theta to H, derivative "
                "between 1 and H')")


def test_criterion_4_vertex_smoother():
    """Sphere degrees by both methods; vertex smoother shell/core
    exactness."""
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(2)
    for A, want in ((np.eye(3), 1),
                    (np.diag([1.0, 1.0, -1.0]), -1),
                    (np.eye(3) + 0.3 * rng.normal(size=(3, 3)), 1)):
        sm = linear_sphere_map(A)
        ok &= degree(sm) == want
        ok &= round(integral_degree(sm, 32, 64)) == want
    from plsmooth.vertex import VertexSmoother
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs = VertexSmoother(
        lambda x, jac: (x @ A.T, np.broadcast_to(A, (len(x), 3, 3)).copy()
                        if jac else None),
        1.0)
    u = rng.normal(size=(2000, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    outer = u * rng.uniform(1.0, 2.0, 2000)[:, None]
    ok &= np.array_equal(vs.apply(outer, False)[0], outer @ A.T)
    core = u * rng.uniform(0.0, 0.499, 2000)[:, None]
    ok &= np.allclose(vs.apply(core, False)[0], vs.rho * core, atol=1e-14)
    ok &= (time.time() - t0) < 60.0
    _report(ok, "criterion 4: vertex smoother suite (degrees, shell, core)")


@pytest.fixture(scope="module")
def kuhn_sweep():
    pl = perturbed_kuhn_map()
    params = choose_params(pl)
    rows = lambda_sweep(pl, params, p=2.0, q=2.0)
    return pl, params, rows


def test_criterion_5_end_to_end_sweep(kuhn_sweep):
    """Full lambda sweep on the perturbed Kuhn map: volume scaling, row
    inequalities, stable sup norms, convergence below epsilon = 1e-2."""
    t0 = time.time()
    pl, params, rows = kuhn_sweep
    ok = True
    v1 = rows[0]["vol_E"]
    sup_f = np.max(np.linalg.norm(pl.matrices, ord=2, axis=(1, 2)))
    for row in rows:
        lam = row["lambda"]
        ok &= row["vol_E"] <= (lam + 0.05) * v1
        # |Dg - Df| <= sup|Dg| + sup|Df| on E, zero elsewhere
        bound = (row["sup_Dg"] + sup_f) * row["vol_E"] ** 0.5
        ok &= row["w1p_f"] <= bound + 1e-12
    sups = np.array([[r["sup_Dg"], r["sup_Dginv"]] for r in rows])
    ok &= np.all((sups.max(axis=0) - sups.min(axis=0))
                 / sups.max(axis=0) < 0.05)
    for col in ("w1p_f", "w1q_inv"):
        vals = [r[col] for r in rows]
        ok &= all(a >= b for a, b in zip(vals, vals[1:]))
    ok &= rows[-1]["w1p_f"] < 1e-2 and rows[-1]["w1q_inv"] < 1e-2
    _report(ok, "criterion 5: end-to-end sweep (scaling, monotone "
                "convergence below 1e-2)")


def test_criterion_6_inverse_roundtrip(kuhn_sweep):
    """Numerical inverse accurate to 1e-11 * scale at 1e4 samples."""
    pl, params, _ = kuhn_sweep
    g = assemble(pl, params)
    rng = np.random.default_rng(3)
    cx = pl.complex
    vols = np.array([abs(np.linalg.det(cx.cell_points(c)[1:]
                                       - cx.cell_points(c)[0]))
                     for c in range(cx.n_cells)])
    pick = rng.choice(cx.n_cells, size=10_000, p=vols / vols.sum())
    bar = rng.dirichlet(np.ones(4), size=10_000)
    x = np.einsum("nk,nkj->nj", bar,
                  np.array([cx.cell_points(c) for c in pick]))
    err = np.max(np.linalg.norm(g.inverse(g.evaluate(x)) - x, axis=-1))
    ok = err < 1e-11 * g.scale
    _report(ok, f"criterion 6: inverse roundtrip (max error {err:.2e})")


def test_criterion_7_norm_engine():
    """Rearrangement-invariant norms against direct quadrature and the
    closed-form decay of the smallness functional."""
    ok = True
    rng = np.random.default_rng(4)
    for p in (1.0, 2.0, 4.0):
        norm = RINorm("lp", p=p)
        for _ in range(50):
            vals = rng.uniform(0, 5, 200)
            wts = rng.uniform(0.001, 1, 200)
            direct = np.sum(wts * vals ** p) ** (1.0 / p)
            ok &= abs(norm(vals, wts) - direct) < 1e-6 * direct
    deltas = 0.5 ** np.arange(21)
    for norm in (RINorm("lp", p=2.0), RINorm("lp", p=4.0),
                 RINorm("lorentz", p=2.0, q=1.0)):
        rows = rozumny_check(norm, 3.0, deltas, total_measure=2.0)
        vals = [v for _, v in rows]
        ok &= all(a > b for a, b in zip(vals, vals[1:]))
        ok &= vals[-1] < 0.05 * vals[0]
        if norm.kind == "lp":
            for d, v in rows:
                ok &= abs(v - 3.0 * (d * 2.0) ** (1 / norm.p) / 2.0) \
                    < 1e-12 * v
    _report(ok, "criterion 7: norm engine (quadrature oracle, decay)")


def test_criterion_8_negative_controls():
    """Bad inputs are rejected with the documented error types."""
    ok = True
    cx2 = two_tet()
    try:
        validate_pl_homeo(PLMap(cx2,
                                np.array([np.eye(3),
                                          np.diag([-1.0, 1.0, 1.0])]),
                                np.zeros((2, 3))))
        ok = False
    except OrientationError:
        pass
    cx = subdivided_tet()
    images = cx.points.copy()
    images[4] = [0.8, 0.4, 0.4]
    try:
        validate_pl_homeo(pl_map_from_vertex_images(cx, images))
        ok = False
    except (NonInjectiveError, OrientationError) as exc:
        ok &= bool(exc.args)
    _report(ok, "criterion 8: negative controls (orientation, fold)")
