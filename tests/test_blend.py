"""Blend profile and face blend tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from plsmooth.blend import (FaceBlend, eta, eta_prime, face_blend,
                            face_blend_jacobian, face_floor, time_profile,
                            time_profile_prime)
from plsmooth.errors import DomainError


def test_eta_endpoints_and_midpoint():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 1.0
    assert eta(0.5) == pytest.approx(0.5, abs=1e-15)
    assert eta(-3.0) == 0.0
    assert eta(4.0) == 1.0


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
    assert np.array_equal(face_blend(fb, x), x @ fb.M_neg.T)
    x = np.array([[0.011, 0.2, 0.1], [2.0, -1.0, 0.5]])
    assert np.array_equal(face_blend(fb, x), x @ fb.M_pos.T)


def test_face_blend_midpoint_value():
    fb = _pair(w=0.01)
    x = np.array([0.005, 0.3, -0.2])
    # at the strip midpoint the blend weight is exactly 1/2
    expect = 0.5 * fb.M_neg @ x + 0.5 * fb.M_pos @ x
    assert np.allclose(face_blend(fb, x), expect, atol=1e-14)


def test_face_blend_quarter_point():
    fb = _pair(w=1.0)
    x = np.array([0.75, 0.0, 0.0])
    e = eta(0.75)
    expect = (1 - e) * fb.M_neg @ x + e * fb.M_pos @ x
    assert np.allclose(face_blend(fb, x), expect, atol=1e-14)


def test_sigma_floor_axis_stretch():
    # A1 = I, A2 = diag(2,1,1): normal stretches 1 and 2, tangential det 1,
    # so the certified determinant floor is a1 * J2 / 2 = 1/2
    fb = _pair(d=np.array([1.0, 0.0, 0.0]))
    floor = face_floor(fb)
    assert floor == pytest.approx(0.5)


def test_jacobian_det_above_floor():
    rng = np.random.default_rng(5)
    fb = _pair(d=np.array([0.6, 0.3, -0.2]), w=0.02)
    floor = face_floor(fb)
    x = rng.uniform(-1, 1, size=(4000, 3))
    x[:, 0] = rng.uniform(0, fb.width, 4000)
    dets = np.linalg.det(face_blend_jacobian(fb, x))
    assert np.min(dets) >= floor - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_jacobian_matches_fd(seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-0.5, 0.5, 3)
    fb = _pair(d=d, w=0.05)
    x = rng.uniform(-0.2, 0.2, 3)
    x[0] = rng.uniform(0.001, 0.049)
    J = face_blend_jacobian(fb, x[None])[0]
    h = 1e-7
    Jfd = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        Jfd[:, j] = (face_blend(fb, x + e) - face_blend(fb, x - e)) / (2 * h)
    assert np.abs(J - Jfd).max() < 1e-5 * max(1.0, np.abs(J).max())


def test_first_coordinate_derivative_positive():
    # [D1 g]^1 >= [D1 A1]^1 for the constant-width blend
    fb = _pair(d=np.array([0.8, 0.1, 0.1]), w=0.01)
    x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(2000, 3))
    x[:, 0] = np.random.default_rng(3).uniform(0, fb.width, 2000)
    J = face_blend_jacobian(fb, x)
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
    assert np.allclose(face_blend(fb, x), face_blend(fb2, x @ R),
                       atol=1e-12)
