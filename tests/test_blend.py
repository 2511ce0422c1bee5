"""Blend profile and face blend tests."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import expit
from scipy.spatial.transform import Rotation

from plsmooth import geometry as geo
from plsmooth.blend import (FaceBlend, blend_pass, eta, eta_prime,
                            face_floor, time_profile, time_profile_prime)
from plsmooth.errors import DomainError, InvalidInputError


def test_eta_endpoints_and_midpoint():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 1.0
    assert eta(0.5) == pytest.approx(0.5, abs=1e-15)
    assert eta(-3.0) == 0.0
    assert eta(4.0) == 1.0


def test_eta_logistic_matches_expit():
    # eta takes the logistic of phi = 1/(1-t) - 1/t as 1 / (1 + exp(-phi))
    # with numpy's exp, where scipy's expit uses the C library's; the two
    # exps may differ by 1 ulp, which leaves the steps within 1 ulp of 1,
    # the top of eta's range (3 ulps of the value, measured, in the tails)
    t = np.concatenate([np.linspace(0.0, 1.0, 400001)[1:-1],
                        np.geomspace(1e-300, 0.5, 20001),
                        1.0 - np.geomspace(2.0 ** -53, 0.5, 20001)])
    with np.errstate(over="ignore"):
        ref = expit(1.0 / (1.0 - t) - 1.0 / t)
    gap = np.abs(eta(t) - ref)
    assert gap.max() <= np.spacing(1.0)
    assert np.max(gap / np.spacing(ref)) <= 4.0


def test_eta_is_exactly_flat_at_its_ends_without_warnings():
    # exp overflows to inf near t = 0, where the step is exactly 0; eta' is
    # 0 there too, not 0 * inf (filterwarnings = error turns any warning
    # into a failure)
    low = np.array([5e-324, 1e-310, 1e-200, 1e-4])
    high = 1.0 - np.array([2.0 ** -53, 1e-12, 1e-3])
    assert np.all(eta(low) == 0.0) and np.all(eta(high) == 1.0)
    assert eta(0.98) == 1.0
    assert np.all(eta_prime(np.concatenate([low, high])) == 0.0)
    assert eta(5e-324) == 0.0 and eta_prime(5e-324) == 0.0
    # where eta rounds to 1 but exp does not overflow, eta' is the tiny
    # value it has at 1 - t, not the 0 of a cancelled 1 - eta
    assert eta_prime(0.98) == pytest.approx(eta_prime(0.02), rel=1e-12)
    assert eta_prime(0.98) > 0.0


def _eta_prime_reference(t):
    """eta'(t) = e (1 - e) psi(t), e = 1 / (1 + E), E = exp(phi(t)), to 60
    digits from the float t; 0 where E or 1 / E exceeds e^2000."""
    t = Decimal(float(t))
    u = 1 - t
    phi = 1 / t - 1 / u
    if abs(phi) > 2000:
        return 0.0
    E = phi.exp()
    return float(E / (1 + E) ** 2 * (1 / t ** 2 + 1 / u ** 2))


def test_eta_prime_matches_a_60_digit_reference():
    # eta' = e (1 - e) psi must not form 1 - e by subtraction, which loses
    # up to 1.5e-13 as e nears 1
    t = np.concatenate([np.linspace(0.0, 1.0, 4001)[1:-1],
                        np.geomspace(1e-3, 0.5, 400),
                        1.0 - np.geomspace(1e-3, 0.5, 400)])
    with localcontext() as ctx:
        ctx.prec = 60
        ref = np.array([_eta_prime_reference(x) for x in t])
    assert np.max(np.abs(eta_prime(t) - ref)) <= 4e-15


def test_eta_monotone():
    t = np.linspace(0, 1, 4001)
    assert np.all(np.diff(eta(t)) >= 0)


def test_eta_prime_supremum():
    # the slope of expit(1/(1-t) - 1/t) is maximal at t = 1/2 with value 2
    res = minimize_scalar(lambda t: -eta_prime(t), bounds=(0.01, 0.99),
                          method="bounded",
                          options={"xatol": 1e-12})
    assert -res.fun == pytest.approx(2.0, abs=1e-10)
    assert res.x == pytest.approx(0.5, abs=1e-6)
    t = np.linspace(0, 1, 20001)
    assert np.max(eta_prime(t)) <= 2.0 + 1e-12


def test_eta_prime_fd():
    t = np.linspace(0.05, 0.95, 101)
    h = 1e-7
    fd = (eta(t + h) - eta(t - h)) / (2 * h)
    assert np.allclose(fd, eta_prime(t), atol=1e-6)


def test_eta_symmetry():
    t = np.linspace(0, 1, 101)
    assert np.allclose(eta(t) + eta(1 - t), 1.0, atol=1e-14)


def test_time_profile_flat_ends():
    # constant 0 on [0, 1/3] and constant 1 on [2/3, 1]
    t = np.linspace(0, 1.0 / 3.0, 50)
    assert np.all(time_profile(t) == 0.0)
    assert np.all(time_profile_prime(t) == 0.0)
    t = np.linspace(2.0 / 3.0, 1.0, 50)
    assert np.all(time_profile(t) == 1.0)


def _pair(d=np.array([1.0, 0.0, 0.0]), w=0.01):
    """Compatible affine pair across the plane x1 = 0: A2 = A1 + d (x . e1)."""
    A1 = np.eye(3)
    A2 = A1 + np.outer(d, [1.0, 0, 0])
    return FaceBlend(frame_origin=np.zeros(3), frame_R=np.eye(3),
                     M_neg=A1, c_neg=np.zeros(3), M_pos=A2, c_pos=np.zeros(3),
                     width=w)


def test_face_blend_exact_off_strip():
    fb = _pair()
    x = np.array([[-0.5, 0.2, 0.1], [0.0, 1.0, -1.0]])
    assert np.array_equal(blend_pass(fb, x, False)[0], x @ fb.M_neg.T)
    x = np.array([[0.011, 0.2, 0.1], [2.0, -1.0, 0.5]])
    assert np.array_equal(blend_pass(fb, x, False)[0], x @ fb.M_pos.T)


def test_face_blend_midpoint_value():
    fb = _pair(w=0.01)
    x = np.array([0.005, 0.3, -0.2])
    # at the strip midpoint the blend weight is exactly 1/2
    expect = 0.5 * fb.M_neg @ x + 0.5 * fb.M_pos @ x
    assert np.allclose(blend_pass(fb, x[None], False)[0][0], expect,
                       atol=1e-14)


def test_face_blend_quarter_point():
    fb = _pair(w=1.0)
    x = np.array([0.75, 0.0, 0.0])
    e = eta(0.75)
    expect = (1 - e) * fb.M_neg @ x + e * fb.M_pos @ x
    assert np.allclose(blend_pass(fb, x[None], False)[0][0], expect,
                       atol=1e-14)


def test_sigma_floor_axis_stretch():
    # A1 = I, A2 = diag(2,1,1): normal stretches 1 and 2, tangential det 1,
    # so the certified determinant floor is a1 * J2 / 2 = 1/2
    fb = _pair(d=np.array([1.0, 0.0, 0.0]))
    floor = face_floor(fb)
    assert floor == pytest.approx(0.5)


def _normal_stretches(M_neg, M_pos, n, t2, t3):
    """The image-face unit normal nu, along M_neg t2 x M_neg t3, and the
    normal stretches nu.(M_neg n) and nu.(M_pos n), signed so that M_neg's
    is >= 0: the slab-side rule and floor that face_floor's determinants
    replace."""
    nu = np.cross(M_neg @ t2, M_neg @ t3)
    nu = nu / np.linalg.norm(nu)
    s_neg = float(nu @ (M_neg @ n))
    s_pos = float(nu @ (M_pos @ n))
    if s_neg < 0:
        nu, s_neg, s_pos = -nu, -s_neg, -s_pos
    return nu, s_neg, s_pos


def _kinked_pair(rng, k):
    """Pieces M_neg and M_pos = M_neg (I + v n^T), which agree on the plane
    n.x = 0 of a random frame (n, t2, t3), with det M_pos = k det M_neg."""
    n = geo.normalize(rng.normal(size=3))
    t2, t3 = geo.orthonormal_tangents(n)
    # condition number at most e^2, either orientation
    M_neg = Rotation.random(random_state=rng).as_matrix() \
        @ np.diag(np.exp(rng.uniform(-1, 1, 3)) * rng.choice([-1, 1])) \
        @ Rotation.random(random_state=rng).as_matrix()
    v = (k - 1.0) * n + rng.uniform(-1, 1) * t2 + rng.uniform(-1, 1) * t3
    M_pos = M_neg @ (np.eye(3) + np.outer(v, n))
    blend = FaceBlend(frame_origin=np.zeros(3), frame_R=np.vstack([n, t2, t3]),
                      M_neg=M_neg, c_neg=np.zeros(3), M_pos=M_pos,
                      c_pos=np.zeros(3), width=0.01)
    return blend, n, t2, t3


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_floor_is_half_the_smaller_det_and_stretch(seed):
    # the pieces share the image face's area factor J2, so |det M| = s J2:
    # the larger |det| is the larger normal stretch, and the floor is
    # a1 J2 / 2
    rng = np.random.default_rng(seed)
    k = np.exp(rng.choice([-1, 1]) * rng.uniform(0.01, 2.0))
    blend, n, t2, t3 = _kinked_pair(rng, k)
    _, s_neg, s_pos = _normal_stretches(blend.M_neg, blend.M_pos, n, t2, t3)
    d = np.abs(geo.det3(np.stack([blend.M_neg, blend.M_pos])))
    assert (d[1] > d[0]) == (s_pos > s_neg)
    J2 = np.linalg.norm(np.cross(blend.M_neg @ t2, blend.M_neg @ t3))
    assert face_floor(blend) == pytest.approx(0.5 * min(s_neg, s_pos) * J2,
                                              rel=1e-14, abs=0)


def test_floor_rejects_pieces_of_opposite_orientation():
    blend = _kinked_pair(np.random.default_rng(3), -0.5)[0]
    with pytest.raises(InvalidInputError, match="consistently"):
        face_floor(blend)


def test_jacobian_det_above_floor():
    rng = np.random.default_rng(5)
    fb = _pair(d=np.array([0.6, 0.3, -0.2]), w=0.02)
    floor = face_floor(fb)
    x = rng.uniform(-1, 1, size=(4000, 3))
    x[:, 0] = rng.uniform(0, fb.width, 4000)
    dets = np.linalg.det(blend_pass(fb, x, True)[1])
    assert np.min(dets) >= floor - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_jacobian_matches_fd(seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-0.5, 0.5, 3)
    fb = _pair(d=d, w=0.05)
    x = rng.uniform(-0.2, 0.2, 3)
    x[0] = rng.uniform(0.001, 0.049)
    J = blend_pass(fb, x[None], True)[1][0]
    h = 1e-7
    # central differences along each axis, the 6 points in one batch
    steps = np.vstack([h * np.eye(3), -h * np.eye(3)])
    out = blend_pass(fb, x + steps, False)[0]
    Jfd = (out[:3] - out[3:]).T / (2 * h)
    assert np.abs(J - Jfd).max() < 1e-5 * max(1.0, np.abs(J).max())


def test_first_coordinate_derivative_positive():
    # [D1 g]^1 >= [D1 A1]^1 for the constant-width blend
    fb = _pair(d=np.array([0.8, 0.1, 0.1]), w=0.01)
    x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(2000, 3))
    x[:, 0] = np.random.default_rng(3).uniform(0, fb.width, 2000)
    J = blend_pass(fb, x, True)[1]
    assert np.min(J[:, 0, 0]) >= fb.M_neg[0, 0] - 1e-12


@pytest.mark.parametrize("w", [0.0, -1e-3, np.nan])
def test_face_blend_rejects_nonpositive_width(w):
    with pytest.raises(DomainError):
        _pair(w=w)


def test_frame_equivariance():
    # conjugating the frame by a rotation does not change the map
    rng = np.random.default_rng(7)
    d = np.array([0.4, -0.2, 0.1])
    fb = _pair(d=d, w=0.05)
    from plsmooth.geometry import rotation_to_e3
    v = rng.normal(size=3)
    R = rotation_to_e3(v / np.linalg.norm(v))
    fb2 = FaceBlend(frame_origin=np.zeros(3), frame_R=fb.frame_R @ R,
                    M_neg=fb.M_neg @ R, c_neg=np.zeros(3),
                    M_pos=fb.M_pos @ R, c_pos=np.zeros(3),
                    width=0.05)
    x = rng.uniform(-0.2, 0.2, size=(200, 3))
    assert np.allclose(blend_pass(fb, x, False)[0],
                       blend_pass(fb2, x @ R, False)[0], atol=1e-12)
