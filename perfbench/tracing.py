"""Spans and counters recorded from outside the plsmooth modules.

``Tracer.install`` replaces public callables of the library with wrappers
that open a span (name, start, end, parent, run id, points) or bump a
counter, at every place the callable is reachable: a function that another
module imported by name is replaced there too.  ``uninstall`` puts the
originals back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (module, owner class or None for a module function, attribute, span name,
# position of the points argument in the call, ``self`` included, or None).
SPANS = [
    ("cli", None, "main", "cli.main", None),
    ("mesh", None, "load_complex", "mesh.load_complex", None),
    ("mesh", "SimplicialComplex", "validate", "mesh.complex_validate", None),
    ("mesh", None, "validate_pl_homeo", "mesh.validate_pl_homeo", None),
    ("mesh", None, "face_pairs", "mesh.face_pairs", None),
    ("mesh", None, "edge_fans", "mesh.edge_fans", None),
    ("mesh", None, "vertex_stars", "mesh.vertex_stars", None),
    ("mesh", "SimplicialComplex", "locate", "mesh.locate", 1),
    ("mesh", "PLMap", "inverse_pl", "mesh.inverse_pl", 1),
    ("pipeline", None, "choose_params", "pipeline.choose_params", None),
    ("pipeline", None, "assemble", "pipeline.assemble", None),
    ("pipeline", None, "lambda_sweep", "pipeline.lambda_sweep", None),
    ("pipeline", "SmoothedMap", "evaluate", "pipeline.evaluate", 1),
    ("pipeline", "SmoothedMap", "derivative", "pipeline.derivative", 1),
    ("pipeline", "SmoothedMap", "inverse", "pipeline.inverse", 1),
    ("pipeline", "SmoothedMap", "volume_difference_set",
     "pipeline.volume_difference_set", None),
    ("pipeline", "SmoothedMap", "difference_quadrature",
     "pipeline.difference_quadrature", None),
    ("pipeline", "SmoothedMap", "sample_patches", "pipeline.sample_patches",
     None),
    # the only private hook: the points no patch claims reach the bulk here
    ("pipeline", "SmoothedMap", "_bulk_cells", "pipeline.bulk", 1),
    ("pipeline", "FacePatch", "__init__", "blend.face_build", None),
    ("pipeline", "FacePatch", "evaluate", "blend.face_eval", 1),
    ("pipeline", "FacePatch", "jacobian", "blend.face_eval", 1),
    ("pipeline", "EdgePatch", "__init__", "edge.edge_build", None),
    ("pipeline", "EdgePatch", "evaluate", "edge.edge_eval", 1),
    ("pipeline", "EdgePatch", "jacobian", "edge.edge_eval", 1),
    ("pipeline", "VertexPatch", "__init__", "vertex.ball_build", None),
    ("pipeline", "VertexPatch", "evaluate", "vertex.ball_eval", 1),
    ("pipeline", "VertexPatch", "jacobian", "vertex.ball_eval", 1),
    ("vertex", None, "degree", "vertex.degree", None),
    ("norms", None, "linf_difference", "norms.linf_difference", None),
    ("norms", None, "rozumny_check", "norms.rozumny_check", None),
]

# Leaf calls made too often for a span each: counted only.
COUNTERS = [
    ("geometry", None, "dist_point_simplex", "geometry.point_simplex_dists",
     None),
    ("geometry", None, "convex_interior_overlap", "mesh.overlap_tests", None),
    ("vertex", "SphereMap", "__call__", "vertex.sphere_calls", 1),
    ("vertex", "SphereMap", "ambient_derivative", "vertex.sphere_calls", 1),
    ("pipeline", None, "sp_root", "pipeline.powell_fallbacks", None),
]


def _quadrature_nodes(tracer, result):
    """Count the nodes of each distinct difference quadrature once: the map
    caches it, so later calls return the same arrays."""
    pts, wts = result
    if any(w is wts for w in tracer._quadratures):
        return
    tracer._quadratures.append(wts)
    tracer.count("pipeline.dq_nodes", n=len(wts))
    tracer.count("pipeline.dq_active", n=int((wts > 0).sum()))


RESULT_HOOKS = {"pipeline.difference_quadrature": _quadrature_nodes}


def _points(args, index):
    if index is None or len(args) <= index:
        return 0
    return int(len(np.atleast_2d(args[index])))


class Tracer:
    """In-memory span and counter store for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        # one row per span: name, start, end, parent index, points, whether
        # a span of the same name encloses it, run id
        self.spans = []
        self.counts = {}
        self.points = {}
        self._stack = []
        self._open_names = {}
        self._saved = []
        self._quadratures = []

    # -- recording

    def open(self, name, points=0):
        parent = self._stack[-1] if self._stack else -1
        nested = self._open_names.get(name, 0) > 0
        self._open_names[name] = self._open_names.get(name, 0) + 1
        self.spans.append([name, time.perf_counter(), None, parent, points,
                           nested, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open_names[self.spans[index][0]] -= 1
        if self._stack.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextlib.contextmanager
    def span(self, name, points=0):
        index = self.open(name, points)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name, points=0, n=1):
        self.counts[name] = self.counts.get(name, 0) + n
        self.points[name] = self.points.get(name, 0) + points

    # -- installation

    def install(self, package):
        """Wrap every target of SPANS and COUNTERS in ``package``'s modules."""
        for specs, make in ((SPANS, self._span_wrapper),
                            (COUNTERS, self._count_wrapper)):
            for module, owner, attr, name, arg in specs:
                mod = sys.modules[f"{package}.{module}"]
                if owner is None:
                    original = getattr(mod, attr)
                    wrapper = make(original, name, arg)
                    for sub in _package_modules(package):
                        for key, val in list(vars(sub).items()):
                            if val is original:
                                self._replace(sub, key, wrapper)
                else:
                    cls = getattr(mod, owner)
                    self._replace(cls, attr, make(cls.__dict__[attr], name, arg))

    def uninstall(self):
        while self._saved:
            target, key, original = self._saved.pop()
            setattr(target, key, original)

    def _replace(self, target, key, wrapper):
        self._saved.append((target, key, vars(target)[key]))
        setattr(target, key, wrapper)

    def _span_wrapper(self, fn, name, arg):
        tracer = self

        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            i = tracer.open(name, _points(args, arg))
            try:
                result = fn(*args, **kw)
            finally:
                tracer.close(i)
            if hook:
                hook(tracer, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name, arg):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            tracer.count(name, _points(args, arg))
            return fn(*args, **kw)
        return wrapper

    # -- analysis

    def durations(self):
        return np.array([s[2] - s[1] for s in self.spans])

    def self_times(self):
        """Span duration minus the time its children cover (children of one
        span never overlap: the run is single-threaded)."""
        dur = self.durations()
        child = np.zeros(len(dur))
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return dur - child

    def summary(self):
        """Per span name: inclusive seconds and points of the outermost
        spans of that name, self seconds of all of them, span count."""
        dur, own = self.durations(), self.self_times()
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[0], {"s": 0.0, "self_s": 0.0,
                                        "points": 0, "spans": 0})
            row["self_s"] += float(own[i])
            row["spans"] += 1
            if not s[5]:
                row["s"] += float(dur[i])
                row["points"] += s[4]
        return out

    def children(self, index):
        return [i for i, s in enumerate(self.spans) if s[3] == index]

    def count_within(self, name, ancestor):
        """Spans ``name`` that have a span ``ancestor`` above them."""
        n = 0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def to_json(self):
        return {"run_id": self.run_id,
                "columns": ["name", "start", "end", "parent", "points",
                            "nested", "run_id"],
                "spans": self.spans,
                "counts": self.counts,
                "points": self.points}


def _package_modules(package):
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))]
