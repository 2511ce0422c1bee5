"""Smoothing around 1-subsimplices.

Everything here works in the canonical edge frame: the edge lies on the
x3-axis, the incident faces become half-planes through the axis at angles
theta_1 < ... < theta_m, the affine pieces become linear maps A_i per
angular sector, and the common image edge direction is (0,0,lam).

The wedge map blends consecutive pieces across each ray plane; the
cylindrical extension replaces the wedge inside radius r by three annular
stages and a linear core diag(rho, rho, lam).  The stages are a flattening
band, a radial squeeze onto the squeeze circle's image directions, and an
untwist ring whose angle is the monotone circle isotopy (1 - s) theta + s H
from the identity to the lift H of the squeeze circle map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .blend import (FaceBlend, blend_pass, eta, eta_prime, face_floor,
                    radial_stages, time_profile, time_profile_prime)
from .errors import (ConstructionError, InvalidInputError, ParameterError)
from .mesh import EdgeFan, min_gap_and_trivial, pieces_agree

_E3 = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# synthetic fans (frame-level, for tests and local studies)


def synthetic_fan(angles, matrices, length=1.0):
    """An EdgeFan already in canonical coordinates.

    ``matrices[i]`` applies on the sector [angles[i], angles[i+1]); all
    matrices must share their action on the rays and on e3 = (0,0,lam).
    """
    angles = np.asarray(angles, dtype=float)
    matrices = np.asarray(matrices, dtype=float)
    m = len(angles)
    if matrices.shape != (m, 3, 3):
        raise InvalidInputError("need one 3x3 matrix per sector")
    if np.any(np.diff(angles) <= 0) or angles[0] < -np.pi or angles[-1] >= np.pi:
        raise InvalidInputError("angles must be sorted in [-pi, pi)")
    v3 = matrices[0] @ _E3
    lam = float(np.linalg.norm(v3))
    if lam <= 0 or np.linalg.norm(v3 - np.array([0, 0, lam])) > 1e-10 * (1 + lam):
        raise InvalidInputError("pieces must map e3 to (0,0,lam)")
    for i in range(m):
        a = angles[i]
        d = np.array([np.cos(a), np.sin(a), 0.0])
        lo, hi = matrices[(i - 1) % m], matrices[i]
        if np.linalg.norm((lo - hi) @ d) > 1e-10 or \
           np.linalg.norm((lo - hi) @ _E3) > 1e-10:
            raise InvalidInputError(f"pieces disagree on ray {i}")
    min_gap, trivial = min_gap_and_trivial(angles, matrices)
    return EdgeFan(edge=(0, 1), V0=np.zeros(3), direction=_E3.copy(),
                   length=float(length), Q=np.eye(3), S=np.eye(3),
                   b_img=np.zeros(3), lam=lam, angles=angles,
                   ray_faces=[None] * m, sector_cells=list(range(m)),
                   pieces=matrices, min_gap=min_gap, trivial=trivial,
                   complete_start=True, complete_end=True)


# ---------------------------------------------------------------------------
# ray blends and the wedge map


def ray_blends(fan, widths):
    """One FaceBlend per ray, oriented toward the piece with the larger
    |det|.  Each blend passes face_floor, which rejects a degenerate or
    inconsistent ray."""
    m = fan.m
    widths = np.broadcast_to(np.asarray(widths, dtype=float), (m,))
    dets = np.abs(geo.det3(fan.pieces))
    out = []
    zero = np.zeros(3)
    for i in range(m):
        a = float(fan.angles[i])
        d = np.array([np.cos(a), np.sin(a), 0.0])
        n = np.array([-np.sin(a), np.cos(a), 0.0])
        A_lo = fan.pieces[(i - 1) % m]
        A_hi = fan.pieces[i]
        if not pieces_agree(A_lo, A_hi) and dets[i] < dets[i - 1]:
            n = -n
            M_neg, M_pos = A_hi, A_lo
        else:
            M_neg, M_pos = A_lo, A_hi
        t3 = np.cross(n, d)
        R = np.vstack([n, d, t3])
        blend = FaceBlend(frame_origin=zero, frame_R=R,
                          M_neg=M_neg, c_neg=zero, M_pos=M_pos, c_pos=zero,
                          width=widths[i])
        face_floor(blend)
        out.append(blend)
    return out


def _sector_pieces(fan, x):
    return fan.pieces[fan.sector_of(np.arctan2(x[:, 1], x[:, 0]))]


def _ray_slabs(blends, x):
    """(blend, mask) for each ray whose slab 0 < u < w, on the ray's side
    of the axis, holds some of the points ``x`` (N,3)."""
    for blend in blends:
        u = x @ blend.frame_R[0]
        mask = (u > 0.0) & (u < blend.width) & (x @ blend.frame_R[1] > 0.0)
        if np.any(mask):
            yield blend, mask


def wedge(fan, blends, x, jac):
    """The wedge map at frame points ``x`` (N,3) and, when ``jac``, its
    Jacobian (N,3,3), else None, from one ray-slab pass: the exact piecewise
    linear map with each ray's slab replaced by its blend from ``blends``
    (ray_blends; valid for x1^2+x2^2 >= (r/4)^2 if the width condition
    holds there).  With no blends it is the exact map."""
    A = _sector_pieces(fan, x)
    out = np.einsum("nij,nj->ni", A, x)
    for blend, mask in _ray_slabs(blends, x):
        out[mask], Jb = blend_pass(blend, x[mask], jac)
        if jac:
            A[mask] = Jb
    return out, (A if jac else None)


# ---------------------------------------------------------------------------
# the cylindrical extension


# The cylinder's regions from the axis out, each from its inner radius in
# fifths of the cylinder radius r: the linear core, the untwist ring, the
# squeeze band, whose inner circle is the squeeze circle, the flattening
# band and the wedge.
_FIFTHS = 5
_UNTWIST, _SQUEEZE, _FLATTEN, _OUTER = 2, 3, 4, 5


@dataclass
class EdgeSmoother:
    """Wedge map plus its extension inside the cylinder of radius r.

    The regions are bounded at (2/5, 3/5, 4/5, 1) of r: flatten on
    [4r/5, r], squeeze on [3r/5, 4r/5], untwist on [2r/5, 3r/5], and the
    linear map diag(rho, rho, lam) inside (the untwist time profile is flat
    near its ends, so the map is already linear for t <= 7r/15).  One pass
    over the regions, ``apply``, gives the value and the Jacobian; each
    stage gives both together.  It is a cone about V0: each blend and stage
    reads its coordinate over r or its width, so the smoother of radius s r
    and widths s w is G_s(y) = s G_1(y / s), DG_s(y) = DG_1(y / s), with the
    checks, floors, rho and psi reference of G_1 (``pipeline.EdgePatch``).
    """

    fan: EdgeFan
    widths: object
    radius: float

    def __post_init__(self):
        m = self.fan.m
        self.widths = np.broadcast_to(
            np.asarray(self.widths, dtype=float), (m,)).copy()
        r = float(self.radius)
        if r <= 0 or np.any(self.widths <= 0):
            raise ParameterError("radius and widths must be positive")
        # width condition at the innermost radius where the wedge is used
        lim = self.fan.min_gap / 8.0
        worst = float(np.max(np.arctan(self.widths / (r / 4.0))))
        if worst >= lim:
            raise ParameterError(
                f"widths too large for the fan: arctan(w/(r/4)) = {worst:.3e} "
                f">= {lim:.3e} (ray slabs would overlap)")
        self.lam = self.fan.lam
        self.blends = ray_blends(self.fan, self.widths)
        self._setup_planar()

    # -- planar reduction helpers
    #
    # Every piece maps e3 to (0, 0, lam), so the horizontal image of the
    # wedge does not depend on x3: it is evaluated over the plane x3 = 0.

    def _setup_planar(self):
        r = self.radius
        thg = np.linspace(-np.pi, np.pi, 2049)
        G0, dG0 = self._circle(thg, True)
        raw = np.unwrap(np.arctan2(G0[:, 1], G0[:, 0]))
        if abs((raw[-1] - raw[0]) - 2 * np.pi) > 1e-6:
            raise ConstructionError(
                "circle image of the squeeze radius does not have degree 1")
        psi = raw - thg
        # choose the lift branch with the smallest mean twist so the
        # untwist stage never performs a spurious full turn
        psi -= 2 * np.pi * np.round(np.mean(psi) / (2 * np.pi))
        psi[-1] = psi[0]
        self._psi_ref = thg, psi
        # squeeze stretch rho: images of all relevant circles stay outside
        T, TH = np.meshgrid(np.linspace(r / 4.0, r, 13),
                            np.linspace(-np.pi, np.pi, 1024), indexing="ij")
        T = T.ravel()
        G = wedge(self.fan, self.blends, _foot(T, TH.ravel()), False)[0]
        vals = np.linalg.norm(G[:, :2], axis=-1)
        # stretch ratio: t*rho <= 0.9 |G(t,theta)| pointwise on the annulus
        self.rho = 0.9 * float(np.min(vals / T))
        if self.rho <= 0:
            raise ConstructionError(
                "image of the wedge annulus touches the axis (rho search failed)")
        # H' = (G0 x dG0) / |G0|^2
        if np.min(G0[:, 0] * dG0[:, 1] - G0[:, 1] * dG0[:, 0]) <= 0:
            raise ConstructionError(
                "squeeze circle map is not orientation preserving")

    def _circle(self, theta, jac):
        """The squeeze circle t0 = 3r/5: the wedge's horizontal image G0
        there and, when ``jac``, its derivative dG0/dtheta, each (N, 2)."""
        p0 = _foot(_SQUEEZE / _FIFTHS * self.radius, theta)
        G0, Jw = wedge(self.fan, self.blends, p0, jac)
        if not jac:
            return G0[:, :2], None
        tangent = np.stack([-p0[:, 1], p0[:, 0], np.zeros(len(p0))], axis=-1)
        return G0[:, :2], np.einsum("nij,nj->ni", Jw, tangent)[:, :2]

    def _H(self, theta, G0):
        """Exact lift of the squeeze circle map at ``theta``, G0 its image
        there (the interpolated reference only picks the 2pi branch)."""
        raw = np.arctan2(G0[:, 1], G0[:, 0])
        ref = theta + np.interp(_principal(theta), *self._psi_ref)
        k = np.round((ref - raw) / (2 * np.pi))
        return raw + 2 * np.pi * k

    # -- evaluation

    def apply(self, x, jac):
        """The extended map at frame points ``x`` (N,3) and, when ``jac``,
        its Jacobian (N,3,3), else None, each region by its stage; for
        t >= r this is the wedge map."""
        t = np.hypot(x[:, 0], x[:, 1])
        theta = np.arctan2(x[:, 1], x[:, 0])
        stages = ((0, self._core), (_UNTWIST, self._untwist),
                  (_SQUEEZE, self._squeeze), (_FLATTEN, self._flatten),
                  (_OUTER, self._outer))
        return radial_stages(stages, _FIFTHS, self.radius, t, (x, t, theta),
                             jac)

    # -- the stages, from the wedge inward; s is the band coordinate

    def _outer(self, x, t, theta, s, jac):
        return wedge(self.fan, self.blends, x, jac)

    def _flatten(self, x, t, theta, s, jac):
        """The wedge with its axial image component h3 = w3 - lam x3 faded
        out: lam x3 + eta(s) h3."""
        lam = self.lam
        out, J = wedge(self.fan, self.blends, x, jac)
        h3 = out[:, 2] - lam * x[:, 2]
        e = eta(s)
        out[:, 2] = lam * x[:, 2] + e * h3
        if not jac:
            return out, None
        de = (_FIFTHS / self.radius) * eta_prime(s)
        J[:, 2, 0] = e * J[:, 2, 0] + de * np.cos(theta) * h3
        J[:, 2, 1] = e * J[:, 2, 1] + de * np.sin(theta) * h3
        J[:, 2, 2] = lam
        return out, J

    def _squeeze(self, x, t, theta, s, jac):
        """The horizontal image G squeezed radially onto the squeeze
        circle's image directions u: eta(s) G + (1 - eta(s)) t rho u."""
        rho = self.rho
        G, Jw = wedge(self.fan, self.blends, _foot(t, theta), jac)
        G = G[:, :2]
        G0, dG0 = self._circle(theta, jac)
        nrm = np.linalg.norm(G0, axis=-1, keepdims=True)
        u = G0 / nrm
        e = eta(s)
        out = np.empty_like(x)
        out[:, :2] = e[:, None] * G + ((1.0 - e) * t * rho)[:, None] * u
        out[:, 2] = self.lam * x[:, 2]
        if not jac:
            return out, None
        du = (dG0 - u * np.sum(u * dG0, axis=-1, keepdims=True)) / nrm
        de = (_FIFTHS / self.radius) * eta_prime(s)
        c, sn = np.cos(theta), np.sin(theta)
        dt = np.stack([c, sn], axis=-1)          # grad t
        dth = np.stack([-sn / t, c / t], axis=-1)
        J = np.zeros((len(x), 3, 3))
        # e G term: e DG + de (G - t rho u) dt^T handled jointly
        J[:, :2, :2] = e[:, None, None] * Jw[:, :2, :2] \
            + de[:, None, None] * (G - t[:, None] * rho * u)[:, :, None] * dt[:, None, :] \
            + ((1.0 - e) * rho)[:, None, None] * (
                u[:, :, None] * dt[:, None, :]
                + t[:, None, None] * du[:, :, None] * dth[:, None, :])
        J[:, 2, 2] = self.lam
        return out, J

    def _untwist(self, x, t, theta, s, jac):
        """Radius t rho at the angle L = theta + time_profile(s) (H - theta),
        H the lift of the squeeze circle map."""
        rho = self.rho
        G0, dG0 = self._circle(theta, jac)
        psi = self._H(theta, G0) - theta
        sv = time_profile(s)
        L = theta + sv * psi
        cl, sl = np.cos(L), np.sin(L)
        out = np.stack([t * rho * cl, t * rho * sl, self.lam * x[:, 2]],
                       axis=-1)
        if not jac:
            return out, None
        dsv = time_profile_prime(s) * (_FIFTHS / self.radius)
        Hp = (G0[:, 0] * dG0[:, 1] - G0[:, 1] * dG0[:, 0]) \
            / np.sum(G0 ** 2, axis=-1)
        Lth = 1.0 + sv * (Hp - 1.0)
        c, sn = np.cos(theta), np.sin(theta)
        dt = np.stack([c, sn], axis=-1)
        dth = np.stack([-sn / t, c / t], axis=-1)
        dL = Lth[:, None] * dth + (dsv * psi)[:, None] * dt
        e_r = np.stack([cl, sl], axis=-1)
        e_t = np.stack([-sl, cl], axis=-1)
        J = np.zeros((len(x), 3, 3))
        J[:, :2, :2] = rho * e_r[:, :, None] * dt[:, None, :] \
            + (t * rho)[:, None, None] * e_t[:, :, None] * dL[:, None, :]
        J[:, 2, 2] = self.lam
        return out, J

    def _core(self, x, t, theta, s, jac):
        diag = np.array([self.rho, self.rho, self.lam])
        return x * diag, (np.broadcast_to(np.diag(diag), (len(x), 3, 3))
                          if jac else None)


def _foot(t, theta):
    """The points of polar coordinates (t, theta) in the plane x3 = 0."""
    c, s = t * np.cos(theta), t * np.sin(theta)
    return np.stack([c, s, np.zeros_like(c)], axis=-1)


def _principal(theta):
    return np.mod(np.asarray(theta, dtype=float) + np.pi, 2 * np.pi) - np.pi
