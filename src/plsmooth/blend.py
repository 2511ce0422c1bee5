"""Smooth step profile, the radial stage split and the elementary
face-blending map.

The blend replaces a piecewise affine map, given by two affine pieces that
agree on the plane {y1 = 0} of a face frame, with a convex combination
inside the strip 0 < y1 < w.  All derivatives are analytic.  The edge
cylinder and the vertex ball are each a sequence of radial stages, split
by ``radial_stages``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
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
    out[mid] = _logistic(t[mid])
    return out if out.ndim else float(out)


def _logistic(t):
    """expit(1/(1-t) - 1/t) for 0 < t < 1.  Near t = 0 the exponential
    overflows to inf and the step is exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / t - 1.0 / (1.0 - t)))


def _psi(t):
    # -phi'(t) for phi = 1/t - 1/(1-t)
    return 1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2


def eta_prime(t):
    """eta' = e (1 - e) psi(t) for e = eta(t) = 1 / (1 + exp(phi(t))), as
    E / (1 + E)^2 psi(t) with E = exp(-|phi(t)|) <= 1: no 1 - e to cancel
    as e nears 1, no overflow, and 0 where E underflows."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    # 1/t^2 overflows below t = 1e-154, where E, and so eta', is 0 already
    tm = np.maximum(t[mid], 1e-150)
    E = np.exp(-np.abs(1.0 / tm - 1.0 / (1.0 - tm)))
    out[mid] = E / (1.0 + E) ** 2 * _psi(tm)
    return out if out.ndim else float(out)


def time_profile(t):
    """Reparameterized step, identically 0 on [0,1/3] and 1 on [2/3,1]."""
    return eta(3.0 * np.asarray(t, dtype=float) - 1.0)


def time_profile_prime(t):
    return 3.0 * eta_prime(3.0 * np.asarray(t, dtype=float) - 1.0)


def radial_bands(ks, parts, size, rad):
    """The stage of each point of radius ``rad`` and its band coordinate,
    for stages that start at radii k/parts size, k in ``ks`` from the
    centre out.  Stage i holds the points with ks[i]/parts size <= rad <
    ks[i+1]/parts size, the last stage the rest; a point's band coordinate
    s = (parts rad - k size) / size runs from 0 to 1 across a band one part
    wide."""
    region = np.searchsorted([k / parts * size for k in ks[1:]], rad,
                             side="right")
    return region, (parts * rad - np.take(ks, region) * size) / size


def radial_stages(stages, bands, cols, jac):
    """One pass of a map made of radial stages: its value (N,3) and, when
    ``jac``, its Jacobian (N,3,3), else None, at the points ``cols[0]``.

    ``stages`` lists (k, stage) from the centre out, and ``bands`` is
    ``radial_bands`` of their k.  Each stage is called once, as
    stage(*rows, s, jac), on its points' rows of the per-point arrays
    ``cols`` (the points first; a None column stays None) and their band
    coordinates s, in their order in ``cols``, and returns its value and
    Jacobian (None without ``jac``).  One stable sort by stage makes each
    stage's rows one slice of each column."""
    region, s = bands
    order, ends = geo.group_slices(region, len(stages))
    cols = [None if c is None else c[order] for c in cols] + [s[order]]
    out = np.empty_like(cols[0])
    J = np.empty((len(out), 3, 3)) if jac else None
    for (_, stage), lo, hi in zip(stages, ends[:-1], ends[1:]):
        if lo < hi:
            out[lo:hi], Jm = stage(*(None if c is None else c[lo:hi]
                                     for c in cols), jac)
            if jac:
                J[lo:hi] = Jm
    return geo.unsort(out, order), (geo.unsort(J, order) if jac else None)


# ---------------------------------------------------------------------------
# face blending


@dataclass
class FaceBlend:
    """Blend of two affine pieces across the plane {y1 = 0} of a frame.

    frame_origin/frame_R define local coordinates y = R (x - origin); the
    piece (M_neg, c_neg) applies on y1 <= 0 and (M_pos, c_pos) on
    y1 >= width.  The pieces agree on the plane, so they differ by the rank
    one jump a y1, a = (M_pos - M_neg) n for the frame normal n =
    frame_R[0], kept as ``jump``.
    """

    frame_origin: np.ndarray
    frame_R: np.ndarray
    M_neg: np.ndarray
    c_neg: np.ndarray
    M_pos: np.ndarray
    c_pos: np.ndarray
    width: float
    jump: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError("width must be positive")
        self.width = float(self.width)
        self.jump = (self.M_pos - self.M_neg) @ self.frame_R[0]


def blend_pass(blend, x, jac):
    """The blended map at points ``x`` (N,3) and, when ``jac``, its analytic
    Jacobian (N,3,3), else None: one pass over the strip coordinate."""
    # the normal coordinate y1 entry by entry, which rounds alike in any
    # batch, unlike a matrix product: 1/w amplifies its rounding in u
    d = x - blend.frame_origin
    n = blend.frame_R[0]
    y1 = d[:, 0] * n[0] + d[:, 1] * n[1] + d[:, 2] * n[2]
    w = blend.width
    u = y1 / w
    e = eta(u)
    neg = x @ blend.M_neg.T + blend.c_neg
    pos = x @ blend.M_pos.T + blend.c_pos
    out = (1.0 - e)[:, None] * neg + e[:, None] * pos
    # exact equality with f off the strip
    off_neg = y1 <= 0.0
    off_pos = y1 >= w
    out[off_neg] = neg[off_neg]
    out[off_pos] = pos[off_pos]
    if not jac:
        return out, None
    # the ramp term eta'(u) (pos - neg) grad(u)^T, with pos - neg = a u w
    # and grad(u) = n / w, is eta'(u) u a n^T: it carries none of the
    # rounding of pos and neg, which 1/w would amplify in a thin slab
    J = (1.0 - e)[:, None, None] * blend.M_neg[None] + e[:, None, None] * blend.M_pos[None]
    J = J + (eta_prime(u) * u)[:, None, None] \
        * np.outer(blend.jump, n)[None]
    J[off_neg] = blend.M_neg
    J[off_pos] = blend.M_pos
    return out, J


def face_floor(blend):
    """Certified Jacobian floor of the blend: half the smaller |det| of its
    two pieces.

    Inside the strip Dg = M_neg + c (M_pos - M_neg) with c = eta(u) +
    u eta'(u) >= 0, and the difference is rank one, so det Dg is affine in
    c.  With the slab on the side of the larger |det|, where face_pairs and
    ray_blends put it, |det Dg| >= min |det|; the floor keeps 2x headroom.
    The pieces share the image face's area factor J2 = |M t2 x M t3|, (n,
    t2, t3) an orthonormal frame of the face, so |det M| = |s| J2 for the
    normal stretch s = nu.(M n), nu the image face's unit normal: the larger
    |det| is the larger stretch, and the floor is the smaller one times
    J2 / 2.
    """
    d = geo.det3(np.stack([blend.M_neg, blend.M_pos]))
    if d[0] == 0 or np.sign(d[0]) != np.sign(d[1]):
        raise InvalidInputError(
            "pieces do not cross the face plane consistently")
    return 0.5 * float(np.min(np.abs(d)))
