"""Edge wedge, cylinder smoother, and untwist ring tests."""

import numpy as np
import pytest

from plsmooth.blend import blend_pass
import plsmooth.edge
from plsmooth.edge import EdgeSmoother, ray_blends, synthetic_fan, wedge
from plsmooth.errors import (InvalidInputError, ParameterError)


def make_fan(jump=0.4, angles=(-2.5, 0.3, 1.8), lam=1.1, seed=0):
    """Valid fan: rank-one jumps across the ray planes close up cyclically."""
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


def test_synthetic_fan_rejects_incompatible():
    M0 = np.eye(3)
    M1 = np.eye(3) * 1.5
    M1[:, 2] = [0, 0, 1]
    with pytest.raises(InvalidInputError):
        synthetic_fan([-1.0, 1.0], [M0, M1], length=1.0)


def test_wedge_exact_off_strips():
    fan = make_fan()
    w = [0.01] * 3
    rng = np.random.default_rng(1)
    th = rng.uniform(-np.pi, np.pi, 2000)
    t = rng.uniform(0.2, 1.0, 2000)
    z = rng.uniform(0.0, 2.0, 2000)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    # keep points far from every ray plane
    dist = np.min(np.abs((th[:, None] - fan.angles[None, :] + np.pi) % (2 * np.pi)
                         - np.pi), axis=1) * t
    keep = dist > 0.05
    out = wedge(fan, ray_blends(fan, w), pts[keep], False)[0]
    oracle = wedge(fan, [], pts[keep], False)[0]
    assert np.array_equal(out, oracle)


def test_two_ray_wedge_equals_face_blend():
    # a flat two-ray fan (rays at theta and theta+pi) is exactly a face blend
    a = 0.7
    nvec = np.array([-np.sin(a), np.cos(a), 0.0])
    M1 = np.eye(3)
    d = np.array([0.3, -0.2, 0.1])
    M2 = M1 + np.outer(d, nvec)
    # orient so the strip side matches: synthetic fan blends across each ray
    fan = synthetic_fan([a - np.pi, a], [M2, M1], length=1.0)
    w = 0.02
    pts = np.random.default_rng(2).uniform(-0.5, 0.5, size=(3000, 3))
    pts[:, 2] = np.random.default_rng(3).uniform(0, 1, 3000)
    out = wedge(fan, ray_blends(fan, [w, w]), pts, False)[0]
    blends = ray_blends(fan, [w, w])
    ref = blend_pass(blends[0], pts, False)[0]
    ref2 = blend_pass(blends[1], pts, False)[0]
    # every point is handled by one of the two (identical) half blends
    ok = np.isclose(out, ref, atol=1e-12).all(axis=-1) | \
        np.isclose(out, ref2, atol=1e-12).all(axis=-1)
    assert np.all(ok)


def test_ray_blends_face_the_larger_normal_stretch():
    # face_floor's bound needs each slab on the side of the piece that
    # stretches the ray plane's normal more; these fans have slabs on both
    # sides of their rays
    for seed in range(4):
        fan = make_fan(seed=seed)
        for blend in ray_blends(fan, 0.01):
            n, d, t3 = blend.frame_R
            nu = np.cross(blend.M_neg @ d, blend.M_neg @ t3)
            assert 0 < nu @ blend.M_neg @ n <= nu @ blend.M_pos @ n


def test_smoother_matches_wedge_at_radius():
    fan = make_fan()
    r = 0.2
    sm = EdgeSmoother(fan, [0.002] * 3, r)
    rng = np.random.default_rng(4)
    th = rng.uniform(-np.pi, np.pi, 3000)
    z = rng.uniform(0.2, 1.8, 3000)
    pts = np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)
    out = sm.apply(pts, False)[0]
    ref = wedge(fan, ray_blends(fan, sm.widths), pts, False)[0]
    assert np.max(np.abs(out - ref)) < 1e-10 * 2.0


def test_smoother_plane_preservation():
    fan = make_fan()
    sm = EdgeSmoother(fan, [0.002] * 3, 0.2)
    rng = np.random.default_rng(5)
    t = rng.uniform(1e-4, 0.1999, 4000)
    th = rng.uniform(-np.pi, np.pi, 4000)
    z = rng.uniform(0.3, 1.7, 4000)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    # axis translation equivariance: g(x + c e3) = g(x) + lam c e3
    c = 0.37
    blends = ray_blends(fan, sm.widths)
    wout = wedge(fan, blends, pts, False)[0]
    shifted = wedge(fan, blends, pts + np.array([0, 0, c]), False)[0]
    assert np.max(np.abs(shifted - wout - np.array([0, 0, fan.lam * c]))) \
        < 1e-10
    # after the flattening band (t <= 4r/5) so does the smoothed cylinder
    inner = t <= 0.8 * 0.2
    out = sm.apply(pts[inner], False)[0]
    assert np.max(np.abs(out[:, 2] - fan.lam * z[inner])) < 1e-10


def test_smoother_core_linear():
    fan = make_fan()
    sm = EdgeSmoother(fan, [0.002] * 3, 0.2)
    rng = np.random.default_rng(6)
    t = rng.uniform(1e-4, 0.2 * 7.0 / 15.0 - 1e-6, 500)
    th = rng.uniform(-np.pi, np.pi, 500)
    z = rng.uniform(0.3, 1.7, 500)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    out = sm.apply(pts, False)[0]
    expect = pts * np.array([sm.rho, sm.rho, fan.lam])
    assert np.allclose(out, expect, atol=1e-12)


def test_smoother_region_continuity():
    fan = make_fan()
    r = 0.2
    sm = EdgeSmoother(fan, [0.002] * 3, r)
    rng = np.random.default_rng(7)
    th = rng.uniform(-np.pi, np.pi, 1000)
    z = rng.uniform(0.3, 1.7, 1000)
    eps = 1e-9
    for tb in (r, 0.8 * r, 0.6 * r, 8 * r / 15, 7 * r / 15, 0.4 * r):
        lo = np.stack([(tb - eps) * np.cos(th), (tb - eps) * np.sin(th), z],
                      axis=-1)
        hi = np.stack([(tb + eps) * np.cos(th), (tb + eps) * np.sin(th), z],
                      axis=-1)
        jump = np.linalg.norm(sm.apply(hi, False)[0] - sm.apply(lo, False)[0],
                              axis=-1)
        assert np.max(jump) < 1e-7


def test_smoother_jacobian_fd():
    fan = make_fan()
    sm = EdgeSmoother(fan, [0.002] * 3, 0.2)
    rng = np.random.default_rng(8)
    t = rng.uniform(0.01, 0.199, 60)
    th = rng.uniform(-np.pi, np.pi, 60)
    z = rng.uniform(0.3, 1.7, 60)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    J = sm.apply(pts, True)[1]
    h = 1e-8
    # central differences along each axis, the 6 points in one batch
    steps = np.vstack([h * np.eye(3), -h * np.eye(3)])
    for k, x in enumerate(pts):
        out = sm.apply(x + steps, False)[0]
        Jfd = (out[:3] - out[3:]).T / (2 * h)
        assert np.abs(J[k] - Jfd).max() < 1e-5 * max(1.0, np.abs(J[k]).max())


def test_smoother_positive_jacobian():
    fan = make_fan()
    sm = EdgeSmoother(fan, [0.002] * 3, 0.2)
    t = np.linspace(1e-3, 0.1999, 24)
    th = np.linspace(-np.pi, np.pi, 48, endpoint=False)
    z = np.linspace(0.25, 1.75, 8)
    T, TH, Z = np.meshgrid(t, th, z, indexing="ij")
    pts = np.stack([T * np.cos(TH), T * np.sin(TH), Z], axis=-1).reshape(-1, 3)
    dets = np.linalg.det(sm.apply(pts, True)[1])
    assert np.min(dets) > 0


def test_smoother_scale_invariance():
    # shrinking (r, w) by s and the input by s shrinks the output by s
    fan = make_fan()
    s = 0.25
    sm1 = EdgeSmoother(fan, [0.002] * 3, 0.2)
    sm2 = EdgeSmoother(fan, [0.002 * s] * 3, 0.2 * s)
    rng = np.random.default_rng(9)
    t = rng.uniform(1e-3, 0.199, 500)
    th = rng.uniform(-np.pi, np.pi, 500)
    z = rng.uniform(0.3, 1.7, 500)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    scaled = pts.copy()
    scaled[:, :2] *= s
    assert np.allclose(sm2.apply(scaled, False)[0][:, :2],
                       s * sm1.apply(pts, False)[0][:, :2], atol=1e-12)
    assert sm2.rho == pytest.approx(sm1.rho, rel=1e-9)


def test_small_for_use_of_edges_guard():
    fan = make_fan()
    with pytest.raises(ParameterError):
        EdgeSmoother(fan, [0.05] * 3, 0.2)  # widths far too large for r/4


def _kuhn_smoother():
    # the cylinder the pipeline builds around the Kuhn cube's diagonal
    from plsmooth.builders import perturbed_kuhn_map
    from plsmooth.pipeline import assemble, choose_params
    pl = perturbed_kuhn_map()
    return assemble(pl, choose_params(pl)).edge_patches[0].smoother


SMOOTHERS = pytest.mark.parametrize("build", [
    lambda: EdgeSmoother(make_fan(), [0.002] * 3, 0.2), _kuhn_smoother],
    ids=["fan", "kuhn_edge"])


@SMOOTHERS
def test_smoother_horizontal_image_ignores_x3(build):
    # every piece maps e3 to (0, 0, lam), so the horizontal image of every
    # stage is the one over the plane x3 = 0
    sm = build()
    r, L = sm.radius, sm.fan.length
    rng = np.random.default_rng(11)
    t = rng.uniform(1e-4, 1.2, 6000) * r
    th = rng.uniform(-np.pi, np.pi, 6000)
    z = rng.uniform(0.0, L, 6000)
    pts = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    flat = pts.copy()
    flat[:, 2] = 0.0
    scale = max(r, L)
    err = np.abs(sm.apply(pts, False)[0][:, :2]
                 - sm.apply(flat, False)[0][:, :2])
    assert np.max(err) <= 1e-14 * scale


def _ring(sm, lo, hi, n=3000, seed=12):
    """Frame points with lo r <= t < hi r, and their angles."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(lo, hi, n) * sm.radius
    th = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(0.0, sm.fan.length, n)
    return np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1), th


def _angle_rate(F, J, x):
    """d/dtheta at fixed t of the angle of the horizontal image F, from the
    Jacobians J at the frame points x."""
    dF = np.einsum("nij,nj->ni", J, np.stack(
        [-x[:, 1], x[:, 0], np.zeros(len(x))], axis=-1))
    return (F[:, 0] * dF[:, 1] - F[:, 1] * dF[:, 0]) / np.sum(F ** 2, axis=-1)


def _squeeze_circle(sm, th):
    """The wedge's horizontal image G0 on the circle t = 3r/5 and the
    derivative H' of its angle, from one wedge pass."""
    t0 = 0.6 * sm.radius
    blends = ray_blends(sm.fan, sm.widths)
    p0 = np.stack([t0 * np.cos(th), t0 * np.sin(th), np.zeros_like(th)],
                  axis=-1)
    G0, J0 = wedge(sm.fan, blends, p0, True)
    return G0[:, :2], _angle_rate(G0[:, :2], J0, p0)


@SMOOTHERS
def test_untwist_ring_lift(build):
    # the untwist angle runs from theta at the core's end of the ring to
    # the lift H of the squeeze circle map at the squeeze's end
    sm = build()
    r = sm.radius
    x, _ = _ring(sm, 0.4, 7.0 / 15.0)
    out = sm.apply(x, False)[0]
    assert np.max(np.abs(out[:, :2] - sm.rho * x[:, :2])) <= 1e-14 * r
    x, th = _ring(sm, 8.0 / 15.0, 0.6)
    out = sm.apply(x, False)[0][:, :2]
    rad = np.linalg.norm(out, axis=-1)
    G0, _ = _squeeze_circle(sm, th)
    u = G0 / np.linalg.norm(G0, axis=-1, keepdims=True)
    assert np.max(np.abs(rad - sm.rho * np.hypot(x[:, 0], x[:, 1]))) \
        <= 1e-14 * r
    assert np.max(np.abs(out / rad[:, None] - u)) <= 1e-12


@SMOOTHERS
def test_untwist_ring_angular_derivative(build):
    # at fixed t the image angle L = (1 - s) theta + s H is monotone:
    # dL/dtheta lies between 1 and H' > 0
    sm = build()
    x, th = _ring(sm, 0.4, 0.6)
    F, J = sm.apply(x, True)
    dL = _angle_rate(F[:, :2], J, x)
    _, Hp = _squeeze_circle(sm, th)
    assert np.min(Hp) > 0
    slack = 1e-9 * np.maximum(1.0, Hp)
    assert np.all(dL >= np.minimum(1.0, Hp) - slack)
    assert np.all(dL <= np.maximum(1.0, Hp) + slack)
    assert np.ptp(dL) > 1e-3          # the ring does untwist


def _count_wedge_passes(monkeypatch):
    """A counter of wedge passes: each pass looks up the sector pieces of
    its points once."""
    calls = []
    real = plsmooth.edge._sector_pieces

    def counted(fan, x):
        calls.append(len(x))
        return real(fan, x)
    monkeypatch.setattr(plsmooth.edge, "_sector_pieces", counted)
    return calls


def test_untwist_jacobian_evaluates_the_circle_once(monkeypatch):
    # H, H' and the squeeze directions all come from one wedge pass, value
    # and Jacobian together, on the squeeze circle
    sm = EdgeSmoother(make_fan(), [0.002] * 3, 0.2)
    calls = _count_wedge_passes(monkeypatch)
    x, _ = _ring(sm, 0.4, 0.6)
    sm.apply(x, True)
    assert len(calls) == 1


def test_outer_bands_jacobian_makes_three_wedge_passes(monkeypatch):
    # the flattening band takes one wedge pass at its points, the squeeze
    # band one at its points and one on the squeeze circle
    sm = EdgeSmoother(make_fan(), [0.002] * 3, 0.2)
    calls = _count_wedge_passes(monkeypatch)
    x, _ = _ring(sm, 0.6, 1.0)
    sm.apply(x, True)
    assert len(calls) <= 3
