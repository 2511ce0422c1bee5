"""Sphere degree, sphere isotopy, and vertex smoother tests."""

import numpy as np
import pytest

from plsmooth import geometry as geo
from plsmooth.builders import subdivided_tet_map
from plsmooth.errors import NoIsotopyFound
from plsmooth.pipeline import assemble, choose_params
from plsmooth.vertex import (SphereIsotopy, SphereMap, VertexSmoother,
                             degree, integral_degree)

from oracles import linear_sphere_map


def test_degree_identity():
    sm = linear_sphere_map(np.eye(3))
    assert degree(sm) == 1
    assert round(integral_degree(sm, 32, 64)) == 1


def test_degree_antipodal():
    sm = linear_sphere_map(-np.eye(3))
    assert degree(sm) == -1
    assert round(integral_degree(sm, 32, 64)) == -1


def test_degree_rotation_and_stretch():
    rng = np.random.default_rng(0)
    A = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
    assert np.linalg.det(A) > 0
    sm = linear_sphere_map(A)
    assert degree(sm) == 1
    assert round(integral_degree(sm, 32, 64)) == 1


def test_degree_reflection():
    sm = linear_sphere_map(np.diag([1.0, 1.0, -1.0]))
    assert degree(sm) == -1


def test_integral_degree_near_integer():
    sm = linear_sphere_map(np.diag([2.0, 0.5, 1.0]))
    val = integral_degree(sm, 32, 64)
    assert abs(val - round(val)) < 0.1
    assert round(val) == 1


def test_sphere_isotopy_near_identity():
    rng = np.random.default_rng(1)
    A = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    mu = linear_sphere_map(A)
    iso = SphereIsotopy(mu)
    u = rng.normal(size=(500, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    # endpoints: identity at s=0 and mu at s=1
    assert np.allclose(iso(u, 0.0, False)[0], u, atol=1e-12)
    assert np.allclose(iso(u, 1.0, False)[0], mu(u), atol=1e-12)
    for s in np.linspace(0, 1, 7):
        vals, _, _ = iso(u, s, False)
        assert np.allclose(np.linalg.norm(vals, axis=-1), 1.0, atol=1e-12)


def test_sphere_isotopy_rejects_antipodal():
    with pytest.raises(NoIsotopyFound):
        SphereIsotopy(linear_sphere_map(-np.eye(3)))


def _linear_hat(A):
    def hat(x, jac):
        return x @ A.T, (np.broadcast_to(A, (len(x), 3, 3)).copy()
                         if jac else None)
    return hat


def _linear_vertex_smoother(A, R=1.0):
    return VertexSmoother(_linear_hat(A), R)


def test_vertex_smoother_outer_shell_exact():
    rng = np.random.default_rng(2)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs = _linear_vertex_smoother(A)
    u = rng.normal(size=(300, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = u * rng.uniform(1.0, 2.0, 300)[:, None]
    assert np.array_equal(vs.apply(x, False)[0], x @ A.T)


def test_vertex_smoother_inner_ball_linear():
    rng = np.random.default_rng(3)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs = _linear_vertex_smoother(A)
    u = rng.normal(size=(300, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = u * rng.uniform(0.0, 0.499, 300)[:, None]
    assert np.allclose(vs.apply(x, False)[0], vs.rho * x, atol=1e-14)


def test_vertex_smoother_continuity():
    rng = np.random.default_rng(4)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs = _linear_vertex_smoother(A)
    u = rng.normal(size=(500, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    eps = 1e-9
    for rad in (1.0, 0.75, 0.5):
        lo = vs.apply((rad - eps) * u, False)[0]
        hi = vs.apply((rad + eps) * u, False)[0]
        assert np.max(np.linalg.norm(hi - lo, axis=-1)) < 1e-6


def test_vertex_smoother_jacobian_fd():
    rng = np.random.default_rng(5)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs = _linear_vertex_smoother(A)
    u = rng.normal(size=(40, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = u * rng.uniform(0.45, 1.1, 40)[:, None]
    J = vs.apply(x, True)[1]
    h = 1e-7
    # central differences along each axis, the 6 points in one batch
    steps = np.vstack([h * np.eye(3), -h * np.eye(3)])
    for k, xk in enumerate(x):
        out = vs.apply(xk + steps, False)[0]
        Jfd = (out[:3] - out[3:]).T / (2 * h)
        assert np.abs(J[k] - Jfd).max() < 1e-5 * max(1.0, np.abs(J[k]).max())


def test_vertex_smoother_positive_jacobian():
    rng = np.random.default_rng(6)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs = _linear_vertex_smoother(A)
    u = rng.normal(size=(4000, 3))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    x = u * rng.uniform(0.01, 1.2, 4000)[:, None]
    dets = np.linalg.det(vs.apply(x, True)[1])
    assert np.min(dets) > 0


def test_vertex_smoother_rho_dimensionless():
    # the stretch rho must be invariant under rescaling the ball radius
    rng = np.random.default_rng(7)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    vs1 = _linear_vertex_smoother(A, R=1.0)
    vs2 = _linear_vertex_smoother(A, R=0.25)
    assert vs1.rho == pytest.approx(vs2.rho, rel=1e-9)


def test_smoother_at_a_quarter_radius_is_the_dilated_one():
    # a linear hat is a cone, so the smoother built at R/4 is the one at R
    # dilated by s = 1/4: G_s(x) = s G_1(x / s), DG_s(x) = DG_1(x / s), the
    # identity a scaled VertexPatch reads its smoother by
    rng = np.random.default_rng(8)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    s, vs = 0.25, _linear_vertex_smoother(A)
    fresh = _linear_vertex_smoother(A, R=s)
    x = _random_unit(rng, 500) * rng.uniform(0.0, 0.3, 500)[:, None]
    (y1, J1), (ys, Js) = vs.apply(x / s, True), fresh.apply(x, True)
    np.testing.assert_allclose(ys, s * y1, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(Js, J1, rtol=1e-12, atol=1e-12)


def test_sphere_map_tangent_det_sign():
    sm = linear_sphere_map(np.eye(3))
    u = np.array([[0.0, 0, 1], [1.0, 0, 0], [0.57735, 0.57735, 0.57735]])
    dets = sm.tangent_det(u)
    assert np.all(dets > 0)


# ---------------------------------------------------------------------------
# batched sphere-map kernels against the per-point reference


def _ref_tangents(n):
    """Per-point tangent frame, as computed before the helper was batched."""
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    t2 = np.cross(n, a)
    t2 /= np.linalg.norm(t2)
    return t2, np.cross(n, t2)


def _ref_tangent_det(mu, x):
    """Per-point loop over oriented tangent frames."""
    m, D = mu.ambient_derivative(x)
    out = np.empty(len(x))
    for k in range(len(x)):
        u2, u3 = _ref_tangents(x[k])
        if np.linalg.det(np.vstack([x[k], u2, u3])) < 0:
            u2, u3 = u3, u2
        v2, v3 = _ref_tangents(m[k])
        if np.linalg.det(np.vstack([m[k], v2, v3])) < 0:
            v2, v3 = v3, v2
        T = np.array([[v2 @ D[k] @ u2, v2 @ D[k] @ u3],
                      [v3 @ D[k] @ u2, v3 @ D[k] @ u3]])
        out[k] = np.linalg.det(T)
    return out


def _squaring_sphere_map():
    """Normalised (x^2 - y^2, 2xy, z): degree 2, critical at the poles."""
    def ambient(x, jac):
        G = np.stack([x[:, 0] ** 2 - x[:, 1] ** 2, 2 * x[:, 0] * x[:, 1],
                      x[:, 2]], axis=-1)
        if not jac:
            return G, None
        J = np.zeros((len(x), 3, 3))
        J[:, 0, 0] = J[:, 1, 1] = 2 * x[:, 0]
        J[:, 0, 1] = -2 * x[:, 1]
        J[:, 1, 0] = 2 * x[:, 1]
        J[:, 2, 2] = 1.0
        return G, J

    return SphereMap(ambient)


def _random_unit(rng, n):
    u = rng.normal(size=(n, 3))
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def test_vectorised_frames_match_per_point():
    rng = np.random.default_rng(10)
    n = np.vstack([_random_unit(rng, 500), np.eye(3), -np.eye(3)])
    t2, t3 = geo.orthonormal_tangents(n)
    for k in range(len(n)):
        r2, r3 = _ref_tangents(n[k])
        assert np.allclose(t2[k], r2, rtol=0, atol=1e-15)
        assert np.allclose(t3[k], r3, rtol=0, atol=1e-15)
    F = np.stack([n, t2, t3], axis=1)
    assert np.allclose(F @ F.transpose(0, 2, 1), np.eye(3), atol=1e-14)
    assert np.allclose(np.linalg.det(F), 1.0, atol=1e-14)
    one = geo.orthonormal_tangents(n[0])
    assert np.array_equal(one[0], t2[0]) and np.array_equal(one[1], t3[0])


def test_vectorised_tangent_det_matches_loop():
    rng = np.random.default_rng(11)
    A = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
    for sm in (_squaring_sphere_map(), linear_sphere_map(A)):
        x = _random_unit(rng, 500)
        np.testing.assert_allclose(sm.tangent_det(x), _ref_tangent_det(sm, x),
                                   rtol=1e-12, atol=0)


class _CountingSphereMap(SphereMap):
    calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)

    def ambient_derivative(self, x):
        self.calls += 1
        return super().ambient_derivative(x)


def test_degree_sphere_call_count():
    # each integral degree makes one sphere-map call; the preimage count
    # that cross-checked it made about 65 more
    rng = np.random.default_rng(0)
    A = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
    for sm, want in ((linear_sphere_map(A), 1), (_squaring_sphere_map(), 2)):
        counting = _CountingSphereMap(sm.ambient)
        assert degree(counting) == want
        assert counting.calls <= 3


def test_vertex_ball_build_sphere_call_count(monkeypatch):
    # building the subdivided_tet_map ball made 68 sphere-map calls with the
    # preimage count; the antipodality sample and the two integral degrees
    # need 3
    calls = []

    def counted(method):
        def wrapper(self, x):
            calls.append(method.__name__)
            return method(self, x)
        return wrapper

    for method in (SphereMap.__call__, SphereMap.ambient_derivative):
        monkeypatch.setattr(SphereMap, method.__name__, counted(method))
    pl = subdivided_tet_map()
    assert len(assemble(pl, choose_params(pl)).vertex_patches) == 1
    assert len(calls) < 68
    assert len(calls) == 3


def test_untwist_jacobian_evaluates_hat_g_once():
    # one hat(x, True) call gives Psi, mu and its derivative on the untwist
    # shell; evaluating them apart took 3 hat_g calls
    rng = np.random.default_rng(12)
    A = np.eye(3) + 0.15 * rng.normal(size=(3, 3))
    calls = []
    linear = _linear_hat(A)

    def hat(x, jac):
        calls.append(jac)
        return linear(x, jac)

    vs = VertexSmoother(hat, 1.0)
    x = _random_unit(rng, 50) * rng.uniform(0.5, 0.74, 50)[:, None]
    calls.clear()
    vs.apply(x, True)
    assert calls == [True]
