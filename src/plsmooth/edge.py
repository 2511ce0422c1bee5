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
from scipy.interpolate import CubicSpline

from .blend import (FaceBlend, eta, eta_prime, face_blend,
                    face_blend_jacobian, face_floor, normal_stretches,
                    time_profile, time_profile_prime)
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
    """One FaceBlend per ray, oriented toward the larger normal stretch.
    Each blend passes face_floor, which rejects a degenerate or
    inconsistent ray."""
    m = fan.m
    widths = np.broadcast_to(np.asarray(widths, dtype=float), (m,))
    out = []
    zero = np.zeros(3)
    for i in range(m):
        a = float(fan.angles[i])
        d = np.array([np.cos(a), np.sin(a), 0.0])
        n = np.array([-np.sin(a), np.cos(a), 0.0])
        A_lo = fan.pieces[(i - 1) % m]
        A_hi = fan.pieces[i]
        _, s_lo, s_hi = normal_stretches(A_lo, A_hi, n, d, _E3)
        if not pieces_agree(A_lo, A_hi) and s_hi < s_lo:
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


def fan_map(fan, x):
    """The exact piecewise linear map in frame coordinates."""
    single = np.asarray(x, dtype=float).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.einsum("nij,nj->ni", _sector_pieces(fan, x), x)
    return out[0] if single else out


def wedge_map(fan, blends, x):
    """fan_map with each ray's slab replaced by its face blend, ``blends``
    from ray_blends (valid for x1^2+x2^2 >= (r/4)^2 if the width condition
    holds there)."""
    single = np.asarray(x, dtype=float).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = fan_map(fan, x)
    for blend, mask in _ray_slabs(blends, x):
        out[mask] = face_blend(blend, x[mask])
    return out[0] if single else out


def wedge_jacobian(fan, blends, x):
    single = np.asarray(x, dtype=float).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = _sector_pieces(fan, x)
    for blend, mask in _ray_slabs(blends, x):
        out[mask] = face_blend_jacobian(blend, x[mask])
    return out[0] if single else out


# ---------------------------------------------------------------------------
# the cylindrical extension


@dataclass
class EdgeSmoother:
    """Wedge map plus its extension inside the cylinder of radius r.

    The annuli fractions are fixed at (2/5, 3/5, 4/5, 1) of r: flatten on
    [4r/5, r], squeeze on [3r/5, 4r/5], untwist on [2r/5, 3r/5], and the
    linear map diag(rho, rho, lam) inside (the untwist time profile is flat
    near its ends, so the map is already linear for t <= 7r/15).
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

    def _G(self, t, theta):
        """Horizontal image components of the wedge."""
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        t, theta = np.broadcast_arrays(t, theta)
        pts = np.stack([t * np.cos(theta), t * np.sin(theta),
                        np.zeros_like(t)], axis=-1)
        vals = wedge_map(self.fan, self.blends, pts.reshape(-1, 3))
        return vals.reshape(t.shape + (3,))[..., :2]

    def _setup_planar(self):
        r = self.radius
        thg = np.linspace(-np.pi, np.pi, 2049)
        G0, dG0 = self._circle(thg)
        raw = np.unwrap(np.arctan2(G0[:, 1], G0[:, 0]))
        if abs((raw[-1] - raw[0]) - 2 * np.pi) > 1e-6:
            raise ConstructionError(
                "circle image of the squeeze radius does not have degree 1")
        psi = raw - thg
        # choose the lift branch with the smallest mean twist so the
        # untwist stage never performs a spurious full turn
        psi -= 2 * np.pi * np.round(np.mean(psi) / (2 * np.pi))
        psi[-1] = psi[0]
        self._psi_ref = CubicSpline(thg, psi, bc_type="periodic")
        # squeeze stretch rho: images of all relevant circles stay outside
        tg = np.linspace(r / 4.0, r, 13)
        T, TH = np.meshgrid(tg, np.linspace(-np.pi, np.pi, 1024),
                            indexing="ij")
        vals = np.linalg.norm(self._G(T, TH), axis=-1)
        # stretch ratio: t*rho <= 0.9 |G(t,theta)| pointwise on the annulus
        self.rho = 0.9 * float(np.min(vals / T))
        if self.rho <= 0:
            raise ConstructionError(
                "image of the wedge annulus touches the axis (rho search failed)")
        # H' = (G0 x dG0) / |G0|^2
        if np.min(G0[:, 0] * dG0[:, 1] - G0[:, 1] * dG0[:, 0]) <= 0:
            raise ConstructionError(
                "squeeze circle map is not orientation preserving")

    def _circle(self, theta):
        """The squeeze circle t0 = 3r/5: the wedge's horizontal image G0
        there and its derivative dG0/dtheta, each (N, 2)."""
        t0 = 0.6 * self.radius
        c, s, z = t0 * np.cos(theta), t0 * np.sin(theta), np.zeros_like(theta)
        p0 = np.stack([c, s, z], axis=-1)
        G0 = wedge_map(self.fan, self.blends, p0)[:, :2]
        Jw = wedge_jacobian(self.fan, self.blends, p0)
        dG0 = np.einsum("nij,nj->ni", Jw, np.stack([-s, c, z], axis=-1))
        return G0, dG0[:, :2]

    def _H(self, theta, G0):
        """Exact lift of the squeeze circle map at ``theta``, G0 its image
        there (the spline only picks the 2pi branch)."""
        raw = np.arctan2(G0[:, 1], G0[:, 0])
        ref = theta + self._psi_ref(_principal(theta))
        k = np.round((ref - raw) / (2 * np.pi))
        return raw + 2 * np.pi * k

    # -- evaluation

    def evaluate(self, x):
        """The extended map at frame points ``x`` (N,3); for t >= r this is
        the wedge map."""
        single = np.asarray(x, dtype=float).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = self.radius
        t = np.hypot(x[:, 0], x[:, 1])
        theta = np.arctan2(x[:, 1], x[:, 0])
        lam = self.lam
        out = np.empty_like(x)

        outer = t >= r
        if np.any(outer):
            out[outer] = wedge_map(self.fan, self.blends, x[outer])

        p1 = (~outer) & (t >= 0.8 * r)
        if np.any(p1):
            w3 = wedge_map(self.fan, self.blends, x[p1])
            h3 = w3[:, 2] - lam * x[p1, 2]
            e1 = eta((5.0 * t[p1] - 4.0 * r) / r)
            out[p1, :2] = w3[:, :2]
            out[p1, 2] = lam * x[p1, 2] + e1 * h3

        p2 = (t < 0.8 * r) & (t >= 0.6 * r)
        if np.any(p2):
            G = self._G(t[p2], theta[p2])
            G0 = self._G(0.6 * r, theta[p2])
            u = G0 / np.linalg.norm(G0, axis=-1, keepdims=True)
            e2 = eta((5.0 * t[p2] - 3.0 * r) / r)
            out[p2, :2] = e2[:, None] * G \
                + ((1.0 - e2) * t[p2] * self.rho)[:, None] * u
            out[p2, 2] = lam * x[p2, 2]

        p3 = (t < 0.6 * r) & (t >= 0.4 * r)
        if np.any(p3):
            tau = (5.0 * t[p3] - 2.0 * r) / r
            H = self._H(theta[p3], self._G(0.6 * r, theta[p3]))
            L = theta[p3] + time_profile(tau) * (H - theta[p3])
            out[p3, 0] = t[p3] * self.rho * np.cos(L)
            out[p3, 1] = t[p3] * self.rho * np.sin(L)
            out[p3, 2] = lam * x[p3, 2]

        core = t < 0.4 * r
        if np.any(core):
            out[core, 0] = self.rho * x[core, 0]
            out[core, 1] = self.rho * x[core, 1]
            out[core, 2] = lam * x[core, 2]
        return out[0] if single else out

    def __call__(self, x):
        return self.evaluate(x)

    # -- analytic derivative

    def jacobian(self, x):
        single = np.asarray(x, dtype=float).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = self.radius
        lam = self.lam
        rho = self.rho
        t = np.hypot(x[:, 0], x[:, 1])
        theta = np.arctan2(x[:, 1], x[:, 0])
        c, s = np.cos(theta), np.sin(theta)
        out = np.empty((len(x), 3, 3))

        outer = t >= r
        if np.any(outer):
            out[outer] = wedge_jacobian(self.fan, self.blends, x[outer])

        p1 = (~outer) & (t >= 0.8 * r)
        if np.any(p1):
            Jw = wedge_jacobian(self.fan, self.blends, x[p1])
            w3 = wedge_map(self.fan, self.blends, x[p1])
            h3 = w3[:, 2] - lam * x[p1, 2]
            e1 = eta((5.0 * t[p1] - 4.0 * r) / r)
            de1 = (5.0 / r) * eta_prime((5.0 * t[p1] - 4.0 * r) / r)
            J = Jw.copy()
            J[:, 2, 0] = e1 * Jw[:, 2, 0] + de1 * c[p1] * h3
            J[:, 2, 1] = e1 * Jw[:, 2, 1] + de1 * s[p1] * h3
            J[:, 2, 2] = lam
            out[p1] = J

        p2 = (t < 0.8 * r) & (t >= 0.6 * r)
        if np.any(p2):
            pts = x[p2].copy()
            pts[:, 2] = 0.0
            Jw = wedge_jacobian(self.fan, self.blends, pts)
            G = self._G(t[p2], theta[p2])
            G0, dG0 = self._circle(theta[p2])
            nrm = np.linalg.norm(G0, axis=-1, keepdims=True)
            u = G0 / nrm
            du = (dG0 - u * np.sum(u * dG0, axis=-1, keepdims=True)) / nrm
            e2 = eta((5.0 * t[p2] - 3.0 * r) / r)
            de2 = (5.0 / r) * eta_prime((5.0 * t[p2] - 3.0 * r) / r)
            dt = np.stack([c[p2], s[p2]], axis=-1)          # grad t
            dth = np.stack([-s[p2] / t[p2], c[p2] / t[p2]], axis=-1)
            J = np.zeros((int(p2.sum()), 3, 3))
            # e2 * G term: e2 * DG + de2 (G - t rho u) dt^T handled jointly
            J[:, :2, :2] = e2[:, None, None] * Jw[:, :2, :2] \
                + de2[:, None, None] * (G - t[p2, None] * rho * u)[:, :, None] * dt[:, None, :] \
                + ((1.0 - e2) * rho)[:, None, None] * (
                    u[:, :, None] * dt[:, None, :]
                    + t[p2, None, None] * du[:, :, None] * dth[:, None, :])
            J[:, 2, 2] = lam
            out[p2] = J

        p3 = (t < 0.6 * r) & (t >= 0.4 * r)
        if np.any(p3):
            tau = (5.0 * t[p3] - 2.0 * r) / r
            sv = time_profile(tau)
            dsv = time_profile_prime(tau) * (5.0 / r)
            G0, dG0 = self._circle(theta[p3])
            H = self._H(theta[p3], G0)
            Hp = (G0[:, 0] * dG0[:, 1] - G0[:, 1] * dG0[:, 0]) \
                / np.sum(G0 ** 2, axis=-1)
            psi = H - theta[p3]
            L = theta[p3] + sv * psi
            Lth = 1.0 + sv * (Hp - 1.0)
            cl, sl = np.cos(L), np.sin(L)
            dt = np.stack([c[p3], s[p3]], axis=-1)
            dth = np.stack([-s[p3] / t[p3], c[p3] / t[p3]], axis=-1)
            dL = Lth[:, None] * dth + (dsv * psi)[:, None] * dt
            e_r = np.stack([cl, sl], axis=-1)
            e_t = np.stack([-sl, cl], axis=-1)
            J = np.zeros((int(p3.sum()), 3, 3))
            J[:, :2, :2] = rho * e_r[:, :, None] * dt[:, None, :] \
                + (t[p3] * rho)[:, None, None] * e_t[:, :, None] * dL[:, None, :]
            J[:, 2, 2] = lam
            out[p3] = J

        core = t < 0.4 * r
        if np.any(core):
            out[core] = np.diag([rho, rho, lam])
        return out[0] if single else out


def _principal(theta):
    return np.mod(np.asarray(theta, dtype=float) + np.pi, 2 * np.pi) - np.pi
