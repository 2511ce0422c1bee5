"""Norm machinery: empirical decreasing rearrangements, the supported
rearrangement-invariant norms (L^p, Lorentz L^{p,q}, L^inf) with their
fundamental functions, and the sup distance between two maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError


# ---------------------------------------------------------------------------
# rearrangement


@dataclass
class StepFunction:
    """Nonincreasing right-continuous step function on [0, total)."""

    values: np.ndarray     # descending
    breaks: np.ndarray     # cumulative widths, same length

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.breaks, s, side="right")
        vals = np.append(self.values, 0.0)
        return vals[np.minimum(idx, len(self.values))]


def rearrangement(values, weights):
    """Empirical decreasing rearrangement of weighted samples."""
    values = np.abs(np.asarray(values, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise InvalidInputError("weights must be nonnegative")
    keep = weights > 0
    values, weights = values[keep], weights[keep]
    order = np.argsort(values)[::-1]
    v = values[order]
    w = weights[order]
    return StepFunction(values=v, breaks=np.cumsum(w))


# ---------------------------------------------------------------------------
# rearrangement-invariant norms


class RINorm:
    """One of L^p, Lorentz L^{p,q}, or L^inf on weighted samples."""

    def __init__(self, kind, p=None, q=None):
        kind = kind.lower()
        if kind not in ("lp", "lorentz", "linf"):
            raise InvalidInputError(f"unsupported norm kind {kind!r}")
        self.kind = kind
        if kind == "lp":
            if p is None or p < 1:
                raise InvalidInputError("Lp needs p >= 1")
            self.p, self.q = float(p), float(p)
        elif kind == "lorentz":
            if p is None or q is None or p < 1 or q < 1:
                raise InvalidInputError("Lorentz needs p, q >= 1")
            self.p, self.q = float(p), float(q)
        else:
            self.p = self.q = np.inf

    def __repr__(self):
        if self.kind == "linf":
            return "Linf"
        if self.kind == "lp":
            return f"L{self.p:g}"
        return f"Lorentz({self.p:g},{self.q:g})"

    def of_step(self, f):
        if len(f.values) == 0:
            return 0.0
        if self.kind == "linf":
            return float(f.values[0])
        p, q = self.p, self.q
        t = np.concatenate([[0.0], f.breaks])
        # integral of (t^{1/p} f(t))^q dt/t on each flat piece, exactly
        seg = (p / q) * (t[1:] ** (q / p) - t[:-1] ** (q / p))
        return float(np.sum(f.values ** q * seg) ** (1.0 / q))

    def __call__(self, values, weights):
        return self.of_step(rearrangement(values, weights))

    def fundamental(self, s):
        """phi_X(s): the norm of an indicator of a measure-s set."""
        s = np.asarray(s, dtype=float)
        if self.kind == "linf":
            return np.where(s > 0, 1.0, 0.0)
        if self.kind == "lp":
            return s ** (1.0 / self.p)
        return (self.p / self.q) ** (1.0 / self.q) * s ** (1.0 / self.p)


def parse_norm(spec):
    """Parse 'lp:2', 'lorentz:2:1', or 'linf'."""
    parts = str(spec).split(":")
    kind = parts[0].lower()
    try:
        if kind == "linf":
            return RINorm("linf")
        if kind == "lp":
            return RINorm("lp", p=float(parts[1]))
        if kind == "lorentz":
            return RINorm("lorentz", p=float(parts[1]), q=float(parts[2]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"cannot parse norm spec {spec!r}: {exc}") from None
    raise ParseError(f"unknown norm kind in spec {spec!r}")


def rozumny_check(norm, M, deltas, total_measure=1.0):
    """Smallness table for the worst-case indicator family u = M chi_G with
    measure(G) = delta * total_measure; returns rows (delta, norm/measure)."""
    rows = []
    for d in np.asarray(deltas, dtype=float):
        val = float(M * norm.fundamental(d * total_measure)) / total_measure
        rows.append((float(d), val))
    return rows


# ---------------------------------------------------------------------------
# map difference (driven by the pipeline's difference quadrature)


def linf_difference(f, g, pts, diff, rng=None):
    """sup |g - f|: the largest of the differences ``diff`` = |g - f| at the
    nodes ``pts`` that cover the difference region, refined by sampling
    around the running maximum."""
    if len(pts) == 0:
        return 0.0
    rng = np.random.default_rng(rng if rng is not None else 0)
    best = float(np.max(diff))
    # the first node within 1e-12 of the largest: rounding alone cannot
    # pick it among equal nodes, as along a cylinder column
    center = pts[int(np.argmax(diff >= best * (1.0 - 1e-12)))]
    radius = 0.1 * float(np.max(np.ptp(pts, axis=0)) or 1.0)
    for _ in range(3):
        trial = center + rng.normal(scale=radius, size=(400, 3))
        inside = g.contains(trial)
        trial = trial[inside]
        if len(trial) == 0:
            radius *= 0.5
            continue
        d = np.linalg.norm(np.asarray(g.evaluate(trial))
                           - np.asarray(f(trial)), axis=-1)
        k = int(np.argmax(d))
        if d[k] > best:
            best = float(d[k])
            center = trial[k]
        radius *= 0.5
    return best
