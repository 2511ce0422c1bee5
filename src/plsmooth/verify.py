"""Cross-cutting numerical certification helpers.

Every check is deterministic given its seed and returns a CertificationReport
whose pass/fail status is exactly "worst violation within tolerance"; failing
reports carry a concrete witness point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


@dataclass
class CertificationReport:
    name: str
    samples: int
    worst: float
    tolerance: float
    passed: bool
    witness: np.ndarray | None = None
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        s = (f"[{state}] {self.name}: worst {self.worst:.3e} "
             f"(tol {self.tolerance:.3e}, n={self.samples})")
        if not self.passed and self.witness is not None:
            s += f" witness {np.asarray(self.witness)}"
        return s


def _as_points(region, n, rng):
    """Sample points from an array, a callable sampler, or a (lo,hi) box."""
    if callable(region):
        return np.atleast_2d(region(n, rng))
    region = np.asarray(region, dtype=float)
    if region.ndim == 2 and region.shape == (2, 3):
        return rng.uniform(region[0], region[1], size=(n, 3))
    return np.atleast_2d(region)


def fd_check(evaluate, derivative, region, n=2000, step=None, tol=1e-5,
             scale=1.0, seed=0, name="fd_check"):
    """Central-difference validation of an analytic derivative."""
    rng = np.random.default_rng(seed)
    pts = _as_points(region, n, rng)
    n = len(pts)
    h = (1e-6 * scale) if step is None else step
    J = np.asarray(derivative(pts))
    Jfd = np.empty_like(J)
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        Jfd[:, :, j] = (np.asarray(evaluate(pts + dx))
                        - np.asarray(evaluate(pts - dx))) / (2 * h)
    denom = np.maximum(np.abs(J).max(axis=(1, 2)), 1.0)
    err = np.abs(J - Jfd).max(axis=(1, 2)) / denom
    k = int(np.argmax(err))
    return CertificationReport(name=name, samples=n, worst=float(err[k]),
                               tolerance=tol, passed=bool(err[k] <= tol),
                               witness=None if err[k] <= tol else pts[k],
                               seed=seed)


def jacobian_grid(derivative, points, floor=0.0, name="jacobian_grid"):
    """Determinant-above-floor check on explicit nodes."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dets = np.linalg.det(np.asarray(derivative(points)))
    k = int(np.argmin(dets))
    worst = float(dets[k])
    return CertificationReport(name=name, samples=len(points), worst=worst,
                               tolerance=floor, passed=bool(worst >= floor),
                               witness=None if worst >= floor else points[k],
                               extra={"min_det": worst})


def injectivity_audit(evaluate, points, scale=1.0, tol_factor=1e-9,
                      name="injectivity_audit", seed=0):
    """Image-collision scan over stratified samples.

    Two samples collide when their images are within tol but the preimages
    are far apart; near-collisions between nearby preimages are ordinary
    continuity and ignored.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    imgs = np.asarray(evaluate(points))
    tol = tol_factor * scale
    tree = cKDTree(imgs)
    pairs = tree.query_pairs(tol, output_type="ndarray")
    worst = np.inf
    witness = None
    bad = 0
    for a, b in pairs:
        dpre = float(np.linalg.norm(points[a] - points[b]))
        if dpre > 1e3 * tol:
            # re-evaluate the witness pair before declaring failure
            ya, yb = np.asarray(evaluate(points[[a, b]]))
            if np.linalg.norm(ya - yb) < tol:
                bad += 1
                if float(np.linalg.norm(ya - yb)) < worst:
                    worst = float(np.linalg.norm(ya - yb))
                    witness = np.vstack([points[a], points[b]])
    passed = bad == 0
    return CertificationReport(name=name, samples=len(points),
                               worst=0.0 if passed else worst,
                               tolerance=tol, passed=passed,
                               witness=witness, seed=seed,
                               extra={"collisions": bad})
