"""Smooth step profile, the radial stage split and the elementary
face-blending map.

The blend replaces a piecewise affine map, given by two affine pieces that
agree on the plane {y1 = 0} of a face frame, with a convex combination
inside the strip 0 < y1 < w.  All derivatives are analytic.  The edge
cylinder and the vertex ball are each a sequence of radial stages, split
by ``radial_stages``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DomainError, InvalidInputError


# ---------------------------------------------------------------------------
# the step profile


def eta(t):
    """Smooth step: 0 for t<=0, 1 for t>=1, with 0 <= eta' <= 2."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    tm = t[mid]
    out[mid] = expit(1.0 / (1.0 - tm) - 1.0 / tm)
    return out if out.ndim else float(out)


def _psi(t):
    # -phi'(t) for phi = 1/t - 1/(1-t)
    return 1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2


def eta_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    e = expit(1.0 / (1.0 - tm) - 1.0 / tm)
    out[mid] = e * (1.0 - e) * _psi(tm)
    return out if out.ndim else float(out)


def time_profile(t):
    """Reparameterized step, identically 0 on [0,1/3] and 1 on [2/3,1]."""
    return eta(3.0 * np.asarray(t, dtype=float) - 1.0)


def time_profile_prime(t):
    return 3.0 * eta_prime(3.0 * np.asarray(t, dtype=float) - 1.0)


def radial_stages(stages, parts, size, rad, cols, jac):
    """One pass of a map made of radial stages: its value (N,3) and, when
    ``jac``, its Jacobian (N,3,3), else None, at points of radius ``rad``.

    ``stages`` lists (k, stage) from the centre out.  Stage k holds the
    points with k/parts size <= rad < k'/parts size, k' the next stage's k,
    the last stage the rest.  It is called once, as stage(*rows, s, jac),
    on its points' rows of the per-point arrays ``cols`` (the points
    first) and its band coordinate s = (parts rad - k size) / size, which
    runs from 0 to 1 across a band one part wide, and returns its value and
    Jacobian (None without ``jac``)."""
    x = cols[0]
    out = np.empty_like(x)
    J = np.empty((len(x), 3, 3)) if jac else None
    region = np.searchsorted([k / parts * size for k, _ in stages[1:]], rad,
                             side="right")
    for i, (k, stage) in enumerate(stages):
        m = region == i
        if np.any(m):
            out[m], Jm = stage(*(c[m] for c in cols),
                               (parts * rad[m] - k * size) / size, jac)
            if jac:
                J[m] = Jm
    return out, J


# ---------------------------------------------------------------------------
# face blending


@dataclass
class FaceBlend:
    """Blend of two affine pieces across the plane {y1 = 0} of a frame.

    frame_origin/frame_R define local coordinates y = R (x - origin); the
    piece (M_neg, c_neg) applies on y1 <= 0 and (M_pos, c_pos) on
    y1 >= width.
    """

    frame_origin: np.ndarray
    frame_R: np.ndarray
    M_neg: np.ndarray
    c_neg: np.ndarray
    M_pos: np.ndarray
    c_pos: np.ndarray
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError("width must be positive")
        self.width = float(self.width)

    def local(self, x):
        return (np.atleast_2d(x) - self.frame_origin) @ self.frame_R.T


def face_blend(blend, x):
    """Evaluate the blended map at points ``x`` (N,3) or a single point."""
    single = np.asarray(x, dtype=float).ndim == 1
    out = blend_pass(blend, np.atleast_2d(np.asarray(x, dtype=float)),
                     False)[0]
    return out[0] if single else out


def face_blend_jacobian(blend, x):
    """Analytic Jacobian of the blended map, shape (N,3,3)."""
    single = np.asarray(x, dtype=float).ndim == 1
    J = blend_pass(blend, np.atleast_2d(np.asarray(x, dtype=float)), True)[1]
    return J[0] if single else J


def blend_pass(blend, x, jac):
    """The blended map at points ``x`` (N,3) and, when ``jac``, its analytic
    Jacobian (N,3,3), else None: one pass over the strip coordinate."""
    y = blend.local(x)
    w = blend.width
    u = y[:, 0] / w
    e = eta(u)
    neg = x @ blend.M_neg.T + blend.c_neg
    pos = x @ blend.M_pos.T + blend.c_pos
    out = (1.0 - e)[:, None] * neg + e[:, None] * pos
    # exact equality with f off the strip
    off_neg = y[:, 0] <= 0.0
    off_pos = y[:, 0] >= w
    out[off_neg] = neg[off_neg]
    out[off_pos] = pos[off_pos]
    if not jac:
        return out, None
    # grad of u = y1/w in world coordinates
    gradu = (1.0 / w) * blend.frame_R[0]
    J = (1.0 - e)[:, None, None] * blend.M_neg[None] + e[:, None, None] * blend.M_pos[None]
    J = J + eta_prime(u)[:, None, None] * (pos - neg)[:, :, None] \
        * gradu[None, None, :]
    J[off_neg] = blend.M_neg
    J[off_pos] = blend.M_pos
    return out, J


def normal_stretches(M_neg, M_pos, n, t2, t3):
    """The image-face unit normal nu, along M_neg t2 x M_neg t3, and the
    normal stretches nu.(M_neg n) and nu.(M_pos n), signed so that M_neg's
    is >= 0.

    A blend's slab lies on the side of the larger stretch: face_floor's
    bound needs det Dg to grow across the strip.
    """
    nu = np.cross(M_neg @ t2, M_neg @ t3)
    nun = np.linalg.norm(nu)
    if nun < 1e-300:
        raise InvalidInputError("degenerate image face (J2 = 0)")
    nu = nu / nun
    s_neg = float(nu @ (M_neg @ n))
    s_pos = float(nu @ (M_pos @ n))
    if s_neg < 0:
        nu, s_neg, s_pos = -nu, -s_neg, -s_pos
    return nu, s_neg, s_pos


def face_floor(blend):
    """Certified Jacobian floor a1*J2/2 of the blend, a1 the smaller normal
    stretch and J2 the tangential 2x2 determinant, both taken in the fully
    normalized frame.

    Inside the strip Dg = M_neg + c (M_pos - M_neg) with c = eta(u) +
    u eta'(u) >= 0, and the difference is rank one, so det Dg is affine in
    c.  With the normal toward the larger normal stretch, which face_pairs
    and ray_blends choose from normal_stretches, det Dg >= det M_neg =
    a1*J2; the floor keeps 2x headroom.
    """
    n, t2, t3 = blend.frame_R
    nu, s_neg, s_pos = normal_stretches(blend.M_neg, blend.M_pos, n, t2, t3)
    if s_neg <= 0 or s_pos <= 0:
        raise InvalidInputError("pieces do not cross the face plane consistently")
    # tangential 2x2 determinant in orthonormal tangent bases
    v2 = blend.M_neg @ t2
    v3 = blend.M_neg @ t3
    t2i = v2 - (nu @ v2) * nu
    t3i = v3 - (nu @ v3) * nu
    b2 = t2i / np.linalg.norm(t2i)
    b3 = np.cross(nu, b2)
    J2 = abs(float((b2 @ t2i) * (b3 @ t3i) - (b3 @ t2i) * (b2 @ t3i)))
    if J2 <= 0:
        raise InvalidInputError("degenerate image face (J2 = 0)")
    return 0.5 * min(s_neg, s_pos) * J2
