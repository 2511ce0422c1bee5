"""Smoothing around 0-subsimplices.

Frame convention: the vertex sits at the origin; an already-smoothed map
``hat_g`` (faces blended, edges cylindrically extended) is available on the
shell B(0,2R) \\ B(0,R/2).  The vertex smoother flattens the image of the
shell onto spheres, untwists the induced sphere map through an isotopy, and
fills the inner ball with the linear map rho*x.  The sphere map's degree is
the Gauss integral of its surface Jacobian (``degree``).
"""

from __future__ import annotations

import copy

import numpy as np

from . import geometry as geo
from .blend import (eta, eta_prime, radial_stages, time_profile,
                    time_profile_prime)
from .errors import CertificationError, ConstructionError, NoIsotopyFound


# ---------------------------------------------------------------------------
# sphere maps and degree


class SphereMap:
    """A map of the unit sphere obtained by normalizing an ambient map.

    ``ambient(x, jac)`` maps points ``x`` (N,3) to (N,3) nonzero vectors
    and, when ``jac``, gives their (N,3,3) derivative with respect to x,
    else None.
    """

    def __init__(self, ambient):
        self.ambient = ambient

    def __call__(self, x):
        return geo.normalize(self.ambient(x, False)[0])

    def ambient_derivative(self, x):
        """The sphere map at x and its derivative, in ambient coordinates,
        from one ``ambient`` call."""
        G, J = self.ambient(x, True)
        n = np.linalg.norm(G, axis=-1, keepdims=True)
        mu = G / n
        P = np.eye(3) - mu[:, :, None] * mu[:, None, :]
        return mu, np.einsum("nij,njk->nik", P, J) / n[:, :, None]

    def tangent_det(self, x):
        """Jacobian determinant of the surface map in oriented tangent frames."""
        mu, D = self.ambient_derivative(x)
        u2, u3 = geo.orthonormal_tangents(x)
        v2, v3 = geo.orthonormal_tangents(mu)
        T = np.stack([v2, v3], axis=-2) @ D @ np.stack([u2, u3], axis=-1)
        return T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]


def integral_degree(mu, n_polar=32, n_azimuth=64):
    """Degree as the normalized integral of the surface Jacobian."""
    nodes, wts = geo.gauss_legendre(n_polar, -1.0, 1.0)
    phi = np.arccos(nodes)
    psi = np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False)
    PH, PS = np.meshgrid(phi, psi, indexing="ij")
    W = np.broadcast_to(wts[:, None], PH.shape) * (2 * np.pi / n_azimuth)
    pts = np.stack([np.sin(PH) * np.cos(PS), np.sin(PH) * np.sin(PS),
                    np.cos(PH)], axis=-1).reshape(-1, 3)
    dets = mu.tangent_det(pts)
    return float(np.sum(dets * W.ravel()) / (4 * np.pi))


def degree(mu):
    """Topological degree of the sphere map ``mu``: the integral degree at
    two quadrature orders, and at a third when they do not round to one
    integer; a value that does not round robustly is a CertificationError.

    The integral is the only method.  The vertex ball's isotopy
    normalize((1 - s) x + s mu(x)) exists exactly when mu(x) != -x for every
    x, and that alone makes mu homotopic to the identity, hence of degree 1;
    a preimage count could only add a rejection."""
    coarse = integral_degree(mu, 16, 32)
    fine = integral_degree(mu, 32, 64)
    if abs(fine - round(fine)) > 0.1 or round(fine) != round(coarse):
        fine = integral_degree(mu, 48, 96)
        if abs(fine - round(fine)) > 0.1:
            raise CertificationError(
                f"integral degree does not round robustly ({fine})")
    return int(round(fine))


# ---------------------------------------------------------------------------
# sphere isotopy


class SphereIsotopy:
    """Normalized linear homotopy between the identity and mu on S^2, with
    time profile s = time_profile.  The build certifies it: the linear
    interpolant stays away from 0 at 2000 sampled points, and mu has degree
    1.  For unit x and mu(x) the interpolant is shortest at s = 1/2, where
    its length is |x + mu(x)|/2, so that one value is tested."""

    def __init__(self, mu):
        self.mu = mu
        rng = np.random.default_rng(3)
        pts = geo.normalize(rng.normal(size=(2000, 3)))
        if float(np.min(np.linalg.norm(pts + mu(pts), axis=-1))) / 2 < 1e-3:
            raise NoIsotopyFound(
                "linear interpolant to the sphere map vanishes; "
                "the linear isotopy cannot smooth this vertex")
        if degree(mu) != 1:
            raise NoIsotopyFound("sphere map does not have degree 1")

    def __call__(self, x, t, jac):
        """Psi at unit vectors ``x`` (N,3) and time ``t`` and, when ``jac``,
        its d/dx and d/dt, ambient representation, else None and None: one
        ``mu`` or, with ``jac``, one ``mu.ambient_derivative`` call."""
        sv = np.broadcast_to(np.asarray(time_profile(t), dtype=float), (len(x),))
        if not jac:
            return geo.normalize((1.0 - sv)[:, None] * x
                                 + sv[:, None] * self.mu(x)), None, None
        spv = np.broadcast_to(np.asarray(time_profile_prime(t), dtype=float),
                              (len(x),))
        mv, Dmu = self.mu.ambient_derivative(x)
        V = (1.0 - sv)[:, None] * x + sv[:, None] * mv
        n = np.linalg.norm(V, axis=-1, keepdims=True)
        Psi = V / n
        P = np.eye(3) - Psi[:, :, None] * Psi[:, None, :]
        DV = (1.0 - sv)[:, None, None] * np.eye(3) + sv[:, None, None] * Dmu
        dPsi_dx = np.einsum("nij,njk->nik", P, DV) / n[:, :, None]
        dV_dt = spv[:, None] * (mv - x)
        dPsi_dt = np.einsum("nij,nj->ni", P, dV_dt) / n
        return Psi, dPsi_dx, dPsi_dt


# ---------------------------------------------------------------------------
# the vertex smoother


# The ball's shells from the centre out, each from its inner radius in
# quarters of the ball radius R: the linear core, the untwist shell, the
# flattening shell, whose inner sphere carries the sphere map mu, and hat_g.
_QUARTERS = 4
_UNTWIST, _FLATTEN, _OUTER = 2, 3, 4


class VertexSmoother:
    """Assembled vertex-ball map: hat_g outside B(0,R), star flattening on
    B(0,R) \\ B(0,3R/4), isotopy untwist on B(0,3R/4) \\ B(0,R/2), and the
    linear map rho*x on B(0,R/2).  ``hat(x, jac)`` gives hat_g at points
    ``x`` (N,3) relative to the vertex and, when ``jac``, its Jacobian,
    else None.  One pass over the shells, ``apply``, gives the value and the
    Jacobian; each stage gives both together.  The ball is a cone about its
    vertex: hat_g(s x) = s hat_g(x) where each slab and cylinder scales by
    s, so ``scaled`` keeps rho and the isotopy check."""

    def __init__(self, hat, R):
        self.hat = hat
        self.R = float(R)
        rr = _FLATTEN / _QUARTERS * self.R
        self.mu = SphereMap(self._ambient)
        rng = np.random.default_rng(5)
        sph = geo.normalize(rng.normal(size=(4096, 3)))
        norms = np.linalg.norm(self.hat(sph * rr, False)[0], axis=-1)
        if float(np.min(norms)) <= 0:
            raise ConstructionError("hat_g vanishes on the flattening sphere")
        self.rho = 0.45 * float(np.min(norms)) / rr
        # radial monotonicity of hat_g on the flattening shell
        shell = sph * rng.uniform(rr, self.R, 4096)[:, None]
        gv, Jv = self.hat(shell, True)
        rad = np.einsum("nij,nj->ni", Jv, geo.normalize(shell))
        dots = np.sum(rad * geo.normalize(gv), axis=-1)
        if float(np.min(dots)) <= 0:
            raise ConstructionError(
                "radial monotonicity of hat_g fails on the flattening shell")
        self.isotopy = SphereIsotopy(self.mu)

    def scaled(self, s, hat):
        """The smoother of radius s R about ``hat``, hat_g scaled by s."""
        out = copy.copy(self)
        out.hat, out.R = hat, self.R * s
        out.mu = SphereMap(out._ambient)
        out.isotopy = copy.copy(self.isotopy)
        out.isotopy.mu = out.mu
        return out

    def _ambient(self, x, jac):
        """hat_g on the flattening sphere of radius 3R/4, the ambient map
        of the sphere map mu."""
        rr = _FLATTEN / _QUARTERS * self.R
        G, J = self.hat(x * rr, jac)
        return G, (J * rr if jac else None)

    # -- evaluation

    def apply(self, x, jac):
        """The ball map at points ``x`` (N,3) relative to the vertex and,
        when ``jac``, its Jacobian (N,3,3), else None, each shell by its
        stage."""
        nx = np.linalg.norm(x, axis=-1)
        stages = ((0, self._core), (_UNTWIST, self._untwist),
                  (_FLATTEN, self._flatten), (_OUTER, self._outer))
        return radial_stages(stages, _QUARTERS, self.R, nx, (x, nx), jac)

    # -- the stages, from hat_g inward; s is the band coordinate

    def _outer(self, x, nx, s, jac):
        return self.hat(x, jac)

    def _flatten(self, x, nx, s, jac):
        """Convex combination eta(s) g + (1 - eta(s)) rho |x| mu of g =
        hat_g and its radial projection to spheres, mu = g / |g|."""
        rho = self.rho
        e = eta(s)
        g, J = self.hat(x, jac)
        ng = np.linalg.norm(g, axis=-1, keepdims=True)
        mu = g / ng
        out = e[:, None] * g + ((1.0 - e) * rho * nx)[:, None] * mu
        if not jac:
            return out, None
        xhat = x / nx[:, None]
        de = eta_prime(s) * (_QUARTERS / self.R)
        P = np.eye(3) - mu[:, :, None] * mu[:, None, :]
        Dmu = np.einsum("nij,njk->nik", P, J) / ng[:, :, None]
        grad_e = de[:, None] * xhat
        D = e[:, None, None] * J + g[:, :, None] * grad_e[:, None, :]
        D += ((1.0 - e) * rho * nx)[:, None, None] * Dmu
        D += ((1.0 - e) * rho)[:, None, None] * mu[:, :, None] * xhat[:, None, :]
        D -= (rho * nx)[:, None, None] * mu[:, :, None] * grad_e[:, None, :]
        return out, D

    def _untwist(self, x, nx, s, jac):
        """The isotopy fill rho |x| Psi(x/|x|, eta(s))."""
        rho = self.rho
        xhat = x / nx[:, None]
        tau = eta(s)
        Psi, dPsi_dx, dPsi_dt = self.isotopy(xhat, tau, jac)
        if not jac:
            return (rho * nx)[:, None] * Psi, None
        dtau = eta_prime(s) * (_QUARTERS / self.R)
        Dxhat = (np.eye(3) - xhat[:, :, None] * xhat[:, None, :]) \
            / nx[:, None, None]
        total = np.einsum("nij,njk->nik", dPsi_dx, Dxhat) \
            + dPsi_dt[:, :, None] * (dtau[:, None] * xhat)[:, None, :]
        return (rho * nx)[:, None] * Psi, \
            rho * Psi[:, :, None] * xhat[:, None, :] \
            + (rho * nx)[:, None, None] * total

    def _core(self, x, nx, s, jac):
        return self.rho * x, (np.broadcast_to(self.rho * np.eye(3),
                                              (len(x), 3, 3))
                              if jac else None)
