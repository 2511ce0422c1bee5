"""Plain, unbatched reference computations that several test modules share:
shoelace areas, plane sections of a tetrahedron, the volume a cylinder owns
section by section, and the sphere map of a linear map."""

import math
from itertools import combinations

import numpy as np

from plsmooth import geometry as geo
from plsmooth.vertex import SphereMap


def polygon_area(poly):
    """Signed shoelace area of a polygon given as a sequence of 2-vectors."""
    if len(poly) < 3:
        return 0.0
    P = np.asarray(poly, dtype=float)
    x, y = P[:, 0], P[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def tet_section(p, n, c, origin, axes):
    """The polygon {x: n.x = c} ∩ tetrahedron ``p`` (4,3) in the frame
    y = axes @ (x - origin), ``axes`` (2,3): each vertex within 1e-14 of the
    plane and each edge's crossing point where its ends lie strictly on
    opposite sides, in angle order about their mean; (0, 2) for fewer than
    3 points."""
    d = (p @ n - c).tolist()
    if min(d) > 1e-14 or max(d) < -1e-14:
        return np.zeros((0, 2))
    y = ((p - origin) @ np.transpose(axes)).tolist()
    pts = [y[i] for i in range(4) if abs(d[i]) < 1e-14]
    for i, j in combinations(range(4), 2):
        if d[i] * d[j] < 0:
            t = d[i] / (d[i] - d[j])
            pts.append([y[i][k] + t * (y[j][k] - y[i][k]) for k in (0, 1)])
    if len(pts) < 3:
        return np.zeros((0, 2))
    m = [sum(q[k] for q in pts) / len(pts) for k in (0, 1)]
    return np.array(sorted(pts, key=lambda q: math.atan2(q[1] - m[1],
                                                          q[0] - m[0])))


def _circle_events(tet, e, V0, r):
    """The heights z along the axis V0 + z e at which the circle of radius
    r about it, across the axis, touches the line of a face of ``tet`` or
    passes the point where an edge of ``tet`` crosses the plane: where the
    area of the tetrahedron's section within the disk has a kink."""
    P = np.eye(3) - np.outer(e, e)
    out = []
    for i, j, k in combinations(range(4), 3):
        m = np.cross(tet[j] - tet[i], tet[k] - tet[i])
        if abs(m @ e) > 1e-12 * np.linalg.norm(m):
            out += [(m @ (tet[i] - V0) + s * r * np.linalg.norm(P @ m))
                    / (m @ e) for s in (-1.0, 1.0)]
    for i, j in combinations(range(4), 2):
        d = tet[j] - tet[i]
        if abs(d @ e) > 1e-12 * np.linalg.norm(d):
            # |A + t B| = r across the axis at tet[i] + t d
            A, B = P @ (tet[i] - V0), P @ d
            disc = (A @ B) ** 2 - (B @ B) * (A @ A - r * r)
            if B @ B > 0 and disc > 0:
                out += [(tet[i] - V0 + t * d) @ e for t in
                        ((-(A @ B) + s * np.sqrt(disc)) / (B @ B)
                         for s in (-1.0, 1.0))]
    return out


def cylinder_volume(g, ep, panels=512, nodes=3):
    """The volume that the cylinder ``ep`` of the smoothed map ``g`` owns:
    at ``nodes`` Gauss heights z on each of ``panels`` equal panels of its
    edge, each cell's section across the edge within the disk of radius r
    about the axis, less its part in the ball at either end, whose section
    is the concentric disk of radius sqrt(R^2 - d^2), d the height's
    distance to the ball's vertex.  The panels are also split where the
    area has a kink: at each cell vertex's height, at each circle event of a
    cell (``_circle_events``), and where a ball's section reaches r and
    where it ends.  Overlaps with other cylinders are not taken off: on the
    fixtures they lie within the balls."""
    cx, fan, L = g.plmap.complex, ep.fan, ep.L
    balls = [vp for vp in g.vertex_patches if vp.star.vertex in fan.edge]
    kinks = [np.linspace(0.0, L, panels + 1),
             (cx.points - fan.V0) @ fan.direction]
    for cell in range(cx.n_cells):
        kinks.append(_circle_events(cx.cell_points(cell), fan.direction,
                                    fan.V0, ep.r))
    for vp in balls:
        d = np.array([vp.R, np.sqrt(vp.R ** 2 - min(ep.r, vp.R) ** 2)])
        kinks.append((vp.V - fan.V0) @ fan.direction + np.r_[d, -d])
    breaks = np.unique(np.clip(np.concatenate(kinks), 0.0, L))
    # each section within r with weight w, less its part in each ball
    polys, radii, wts = [], [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        for z, w in zip(*geo.gauss_legendre(nodes, a, b)):
            x0 = fan.V0 + z * fan.direction
            disks = [(ep.r, w)] + [(min(ep.r, np.sqrt(max(
                vp.R ** 2 - np.sum((x0 - vp.V) ** 2), 0.0))), -w)
                for vp in balls]
            for cell in range(cx.n_cells):
                poly = tet_section(cx.cell_points(cell), fan.direction,
                                   fan.direction @ x0, x0, fan.Q[:2])
                for r, wr in disks if len(poly) else ():
                    polys.append(poly)
                    radii.append(r)
                    wts.append(wr)
    P = np.zeros((len(polys), max(map(len, polys), default=0), 2))
    for i, poly in enumerate(polys):
        P[i, :len(poly)] = poly
    return float(np.dot(wts, geo.polygon_disk_areas(
        P, [len(poly) for poly in polys], (0.0, 0.0), np.array(radii))))


def linear_sphere_map(M):
    """The sphere map x -> Mx / |Mx| of a matrix ``M``."""
    M = np.asarray(M, dtype=float)
    return SphereMap(lambda x, jac: (
        x @ M.T, np.broadcast_to(M, (len(x), 3, 3)) if jac else None))


def seeded_linf_difference(f, g, pts, diff, seed):
    """sup |g - f| as ``norms.linf_difference`` took it with a seed: the
    largest node refined by three rounds of 400 trials from
    ``default_rng(seed)`` around the running maximum."""
    if len(pts) == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    best = float(np.max(diff))
    center = pts[int(np.argmax(diff >= best * (1.0 - 1e-12)))]
    radius = 0.1 * float(np.max(np.ptp(pts, axis=0)) or 1.0)
    for _ in range(3):
        trial = center + rng.normal(scale=radius, size=(400, 3))
        trial = trial[g.contains(trial)]
        if len(trial) == 0:
            radius *= 0.5
            continue
        d = np.linalg.norm(g.evaluate(trial) - f(trial), axis=-1)
        k = int(np.argmax(d))
        if d[k] > best:
            best, center = float(d[k]), trial[k]
        radius *= 0.5
    return best
