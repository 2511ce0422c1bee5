"""Smoothing around 0-subsimplices.

Frame convention: the vertex sits at the origin; an already-smoothed map
``hat_g`` (faces blended, edges cylindrically extended) is available on the
shell B(0,2R) \\ B(0,R/2).  The vertex smoother flattens the image of the
shell onto spheres, untwists the induced sphere map through an isotopy, and
fills the inner ball with the linear map rho*x.  The sphere map's degree is
the Gauss integral of its surface Jacobian (``degree``).
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from .blend import (eta, eta_prime, radial_stages, time_profile,
                    time_profile_prime)
from .errors import CertificationError, ConstructionError, NoIsotopyFound


def _unit(x):
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# sphere maps and degree


class SphereMap:
    """A map of the unit sphere obtained by normalizing an ambient map.

    ``ambient`` maps (N,3) to (N,3) nonzero vectors; ``ambient_jac`` returns
    the (N,3,3) derivative of the ambient map with respect to its argument.
    """

    def __init__(self, ambient, ambient_jac):
        self.ambient = ambient
        self.ambient_jac = ambient_jac

    def __call__(self, x):
        return _unit(self.ambient(np.asarray(x, dtype=float)))

    def ambient_derivative(self, x):
        """The sphere map at x and its derivative, in ambient coordinates,
        from one ``ambient`` and one ``ambient_jac`` call."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        G = self.ambient(x)
        J = self.ambient_jac(x)
        n = np.linalg.norm(G, axis=-1, keepdims=True)
        mu = G / n
        P = np.eye(3) - mu[:, :, None] * mu[:, None, :]
        return mu, np.einsum("nij,njk->nik", P, J) / n[:, :, None]

    def tangent_det(self, x):
        """Jacobian determinant of the surface map in oriented tangent frames."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mu, D = self.ambient_derivative(x)
        u2, u3 = geo.orthonormal_tangents(x)
        v2, v3 = geo.orthonormal_tangents(mu)
        T = np.stack([v2, v3], axis=-2) @ D @ np.stack([u2, u3], axis=-1)
        return T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]


def linear_sphere_map(M):
    M = np.asarray(M, dtype=float)
    return SphereMap(lambda x: np.atleast_2d(x) @ M.T,
                     lambda x: np.broadcast_to(M, (len(np.atleast_2d(x)), 3, 3)))


def integral_degree(mu, n_polar=32, n_azimuth=64):
    """Degree as the normalized integral of the surface Jacobian."""
    nodes, wts = np.polynomial.legendre.leggauss(n_polar)
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
        pts = _unit(rng.normal(size=(2000, 3)))
        if float(np.min(np.linalg.norm(pts + mu(pts), axis=-1))) / 2 < 1e-3:
            raise NoIsotopyFound(
                "linear interpolant to the sphere map vanishes; "
                "the linear isotopy cannot smooth this vertex")
        if degree(mu) != 1:
            raise NoIsotopyFound("sphere map does not have degree 1")

    def __call__(self, x, t):
        single = np.asarray(x, dtype=float).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sv = np.asarray(time_profile(t), dtype=float)
        sv = np.broadcast_to(sv, (len(x),))[:, None]
        out = _unit((1.0 - sv) * x + sv * self.mu(x))
        return out[0] if single else out

    def derivative(self, x, t):
        """Psi and its d/dx and d/dt at unit vectors x, ambient
        representation, from one ``mu.ambient_derivative`` call."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sv = np.broadcast_to(np.asarray(time_profile(t), dtype=float), (len(x),))
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
    linear map rho*x on B(0,R/2).  One pass over the shells serves
    ``evaluate`` and ``jacobian``; each stage gives its value and Jacobian
    together."""

    def __init__(self, hat_g, hat_g_jac, R):
        self.hat_g = hat_g
        self.hat_g_jac = hat_g_jac
        self.R = float(R)
        rr = _FLATTEN / _QUARTERS * self.R
        self.mu = SphereMap(lambda x: self.hat_g(np.atleast_2d(x) * rr),
                            lambda x: self.hat_g_jac(np.atleast_2d(x) * rr) * rr)
        rng = np.random.default_rng(5)
        sph = _unit(rng.normal(size=(4096, 3)))
        norms = np.linalg.norm(self.hat_g(sph * rr), axis=-1)
        if float(np.min(norms)) <= 0:
            raise ConstructionError("hat_g vanishes on the flattening sphere")
        self.rho = 0.45 * float(np.min(norms)) / rr
        # radial monotonicity of hat_g on the flattening shell
        shell = sph * rng.uniform(rr, self.R, 4096)[:, None]
        gv = self.hat_g(shell)
        Jv = self.hat_g_jac(shell)
        rad = np.einsum("nij,nj->ni", Jv, _unit(shell))
        dots = np.sum(rad * _unit(gv), axis=-1)
        if float(np.min(dots)) <= 0:
            raise ConstructionError(
                "radial monotonicity of hat_g fails on the flattening shell")
        self.isotopy = SphereIsotopy(self.mu)

    # -- evaluation

    def evaluate(self, x):
        single = np.asarray(x, dtype=float).ndim == 1
        out = self._pass(x, False)[0]
        return out[0] if single else out

    def __call__(self, x):
        return self.evaluate(x)

    def jacobian(self, x):
        single = np.asarray(x, dtype=float).ndim == 1
        J = self._pass(x, True)[1]
        return J[0] if single else J

    def _pass(self, x, jac):
        """Value and, when ``jac``, Jacobian at points ``x`` relative to the
        vertex, each shell by its stage."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        nx = np.linalg.norm(x, axis=-1)
        stages = ((0, self._core), (_UNTWIST, self._untwist),
                  (_FLATTEN, self._flatten), (_OUTER, self._outer))
        return radial_stages(stages, _QUARTERS, self.R, nx, (x, nx), jac)

    # -- the stages, from hat_g inward; s is the band coordinate

    def _outer(self, x, nx, s, jac):
        return self.hat_g(x), (self.hat_g_jac(x) if jac else None)

    def _flatten(self, x, nx, s, jac):
        """Convex combination eta(s) g + (1 - eta(s)) rho |x| mu of g =
        hat_g and its radial projection to spheres, mu = g / |g|."""
        rho = self.rho
        e = eta(s)
        g = self.hat_g(x)
        ng = np.linalg.norm(g, axis=-1, keepdims=True)
        mu = g / ng
        out = e[:, None] * g + ((1.0 - e) * rho * nx)[:, None] * mu
        if not jac:
            return out, None
        xhat = x / nx[:, None]
        de = eta_prime(s) * (_QUARTERS / self.R)
        J = self.hat_g_jac(x)
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
        if not jac:
            return (rho * nx)[:, None] * self.isotopy(xhat, tau), None
        dtau = eta_prime(s) * (_QUARTERS / self.R)
        Psi, dPsi_dx, dPsi_dt = self.isotopy.derivative(xhat, tau)
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
