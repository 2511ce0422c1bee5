"""The dispatch of g: owners against the per-patch loop, and one pass per
layer.

``_owners`` prefilters the points of each patch kind in one batched product
and runs each patch's mask on its candidates only; ``oracle_owners`` is the
loop it replaced, every mask in precedence order on the points that no
earlier patch holds.  The two must agree bit for bit, on random points, on
points placed on every mask boundary, and on the benchmark's query points.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import plsmooth.edge
from plsmooth import blend, vertex
from plsmooth.builders import perturbed_kuhn_map, subdivided_tet_map
from plsmooth.mesh import PLMap, SimplicialComplex
from plsmooth.pipeline import (EdgePatch, FacePatch, SmoothedMap, VertexPatch,
                               assemble, choose_params)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def oracle_owners(g, x):
    """The first patch in precedence order whose mask holds each point, by
    every mask in turn on the points that no earlier patch holds."""
    owner = np.full(len(x), -1)
    todo = np.arange(len(x))
    for k, p in enumerate(g.patches):
        m = p.mask(x[todo])
        owner[todo[m]] = k
        todo = todo[~m]
    return owner


@functools.lru_cache(maxsize=None)
def _fixture(name):
    pl = {"kuhn": perturbed_kuhn_map, "subdiv": subdivided_tet_map}[name]()
    return pl, choose_params(pl)


def _moved(name, shift=1e6):
    """The fixture's map moved by ``shift`` along (1, -1, 1), domain and
    image, with the fixture's parameters (the map's offsets round there
    beyond the validation tolerance, so it is not validated again)."""
    pl, params = _fixture(name)
    t = shift * np.array([1.0, -1.0, 1.0])
    moved = PLMap(SimplicialComplex(pl.complex.points + t, pl.complex.cells),
                  pl.matrices, pl.offsets + t - pl.matrices @ t)
    return assemble(moved, params)


MAPS = {
    "kuhn": lambda: assemble(*_fixture("kuhn")),
    "subdiv": lambda: assemble(*_fixture("subdiv")),
    "kuhn_scaled": lambda: assemble(*_fixture("kuhn")).scaled(0.25),
    "subdiv_scaled": lambda: assemble(*_fixture("subdiv")).scaled(0.25),
    "ball_base": lambda: assemble(*_fixture("subdiv")).vertex_patches[0].base,
    "kuhn_moved": lambda: _moved("kuhn"),
    "subdiv_moved": lambda: _moved("subdiv"),
}


def _boundary_points(g, rng, n=64):
    """Points on every mask boundary of every patch, and a few units in the
    last place to either side: s = 0 and s = w over each slab's face, t = r,
    z = 0 and z = L on each cylinder, |x - V| = R on each ball."""
    out = []
    for fp in g.face_patches:
        bar = rng.dirichlet(np.ones(3), n)
        foot = bar @ fp.tri
        for s in (0.0, fp.width):
            out.append(foot + s * fp.n)
    for ep in g.edge_patches:
        th = rng.uniform(-np.pi, np.pi, n)
        z = rng.uniform(0.0, ep.L, n)
        t = ep.r * np.sqrt(rng.uniform(0.0, 1.0, n))
        for y in (np.stack([ep.r * np.cos(th), ep.r * np.sin(th), z], -1),
                  np.stack([t * np.cos(th), t * np.sin(th), 0.0 * z], -1),
                  np.stack([t * np.cos(th), t * np.sin(th), 0.0 * z + ep.L],
                           -1)):
            out.append(y @ ep.fan.Q + ep.fan.V0)
    for vp in g.vertex_patches:
        u = rng.normal(size=(n, 3))
        out.append(vp.V + vp.R * u / np.linalg.norm(u, axis=1, keepdims=True))
    x = np.vstack(out)
    nudge = np.ldexp(1.0, np.frexp(np.abs(x) + 1e-300)[1] - 52)
    return np.vstack([x, x + 3 * nudge, x - 3 * nudge])


def _random_points(g, rng, n=4000):
    pts = g.plmap.complex.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.1 * (hi - lo)
    return np.vstack([rng.uniform(lo - pad, hi + pad, size=(n, 3)),
                      g.sample_patches(200, rng=rng)])


@pytest.mark.parametrize("name", list(MAPS))
def test_owners_match_the_per_patch_loop(name):
    g = MAPS[name]()
    rng = np.random.default_rng(5)
    x = _random_points(g, rng)
    own = g._owners(x)
    assert np.array_equal(own, oracle_owners(g, x))
    # every patch holds some of the points
    assert set(own[own >= 0]) == set(range(len(g.patches)))
    x = _boundary_points(g, rng)
    assert np.array_equal(g._owners(x), oracle_owners(g, x))


def test_boundary_points_reach_both_sides_of_the_masks():
    # the boundary points are not all held or all bulk: the nudges cross
    # each kind's bounds
    g = MAPS["subdiv"]()
    x = _boundary_points(g, np.random.default_rng(6))
    held = np.stack([p.mask(x) for p in g.patches])
    assert held.any(axis=1).all() and not held.all(axis=1).any()


@functools.lru_cache(maxsize=None)
def _workload(name, seed):
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    wl = mod.make(name, seed)
    pl = PLMap(SimplicialComplex(wl.points, wl.cells), wl.matrices,
               wl.offsets)
    return assemble(pl, choose_params(pl)), wl.queries


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["kuhn_sweep", "vertex_ball",
                                  "grid_affine"])
def test_owners_match_the_per_patch_loop_at_the_workload_queries(name, seed):
    g, x = _workload(name, seed)
    assert np.array_equal(g._owners(x), oracle_owners(g, x))


# ---------------------------------------------------------------------------
# one pass per layer


def _layer_calls(monkeypatch):
    """Per ``_dispatch`` call: its map and points, its ``_bulk_cells`` calls
    and the patches whose ``evaluate`` or ``jacobian`` it called.  A ball's
    smoother dispatches the map without balls, which records its own."""
    stack, records = [], []

    def wrap(owner, attr, note):
        real = vars(owner)[attr]

        def counted(self, x, *args, **kw):
            note(self, x)
            return real(self, x, *args, **kw)
        monkeypatch.setattr(owner, attr, counted)

    def enter(g, x):
        records.append({"map": g, "x": np.array(x), "bulk": 0,
                        "patches": []})
        stack.append(records[-1])

    real = vars(SmoothedMap)["_dispatch"]

    def dispatch(self, x, *args, **kw):
        enter(self, x)
        try:
            return real(self, x, *args, **kw)
        finally:
            stack.pop()
    monkeypatch.setattr(SmoothedMap, "_dispatch", dispatch)
    wrap(SmoothedMap, "_bulk_cells",
         lambda g, x: stack[-1].__setitem__("bulk", stack[-1]["bulk"] + 1))
    for cls in (FacePatch, EdgePatch, VertexPatch):
        for attr in ("evaluate", "jacobian"):
            wrap(cls, attr, lambda p, x: stack[-1]["patches"].append(p))
    return records


@pytest.mark.parametrize("name", ["kuhn", "subdiv"])
@pytest.mark.parametrize("jac", [False, True])
def test_dispatch_calls_each_owner_once(name, jac, monkeypatch):
    g = MAPS[name]()
    x = _random_points(g, np.random.default_rng(7))
    x = x[g.contains(x)]
    records = _layer_calls(monkeypatch)
    if jac:
        g.derivative(x)
    else:
        g.evaluate(x)
    assert records and records[0]["map"] is g
    for rec in records:
        own = rec["map"]._owners(rec["x"])
        patches = rec["map"].patches
        called = [patches.index(p) for p in rec["patches"]]
        assert sorted(called) == sorted(set(own[own >= 0]))
        assert rec["bulk"] == int(np.any(own < 0))
    if name == "subdiv":
        # the ball's smoother dispatched the map without balls
        assert len(records) > 1


def _edge_smoother_points(sm, n=3000, seed=8):
    """Frame points at every radius of the cylinder and past it."""
    rng = np.random.default_rng(seed)
    t = sm.radius * rng.uniform(0.0, 1.2, n)
    th = rng.uniform(-np.pi, np.pi, n)
    z = rng.uniform(0.0, sm.fan.length, n)
    return np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)


@pytest.mark.parametrize("jac", [False, True])
def test_edge_smoother_reads_the_wedge_once(jac, monkeypatch):
    sm = MAPS["kuhn"]().edge_patches[0].smoother
    x = _edge_smoother_points(sm)
    calls = []
    real = plsmooth.edge.wedge

    def counted(fan, blends, q, jac):
        calls.append(len(q))
        return real(fan, blends, q, jac)
    monkeypatch.setattr(plsmooth.edge, "wedge", counted)
    sm.apply(x, jac)
    # the points of the squeeze band and beyond, the squeeze band's circle
    # points, and the untwist ring's only where its time profile turns
    E = plsmooth.edge
    region, s = blend.radial_bands(
        [0, E._UNTWIST, E._SQUEEZE, E._FLATTEN, E._OUTER], E._FIFTHS,
        sm.radius, np.hypot(x[:, 0], x[:, 1]))
    live = (region == 1) & ((blend.time_profile(s) != 0)
                            | (blend.time_profile_prime(s) != 0))
    assert 0 < np.count_nonzero(live) < np.count_nonzero(region == 1)
    assert calls == [np.count_nonzero(region >= 2)
                     + np.count_nonzero(region == 2) + np.count_nonzero(live)]


def _ball_shell(vs, lo, hi, n=500, seed=9):
    """Points of the ball's untwist shell whose band coordinate s lies in
    [lo, hi): |x| = (2 + s) R / 4."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * ((2.0 + rng.uniform(lo, hi, n)) * vs.R / 4.0)[:, None]


@pytest.mark.parametrize("jac", [False, True])
def test_sphere_isotopy_skips_mu_where_the_profile_is_flat(jac, monkeypatch):
    vs = MAPS["subdiv"]().vertex_patches[0].smoother
    calls = []
    for attr in ("__call__", "ambient_derivative"):
        real = vars(vertex.SphereMap)[attr]

        def counted(self, x, _real=real):
            calls.append(len(x))
            return _real(self, x)
        monkeypatch.setattr(vertex.SphereMap, attr, counted)
    # tau = eta(s) <= eta(0.3) < 1/3 on the inner part of the shell, where
    # the time profile and its derivative are 0: Psi = x / |x|
    x = _ball_shell(vs, 0.0, 0.3)
    tau = blend.eta(4.0 * np.linalg.norm(x, axis=1) / vs.R - 2.0)
    assert np.all(blend.time_profile(tau) == 0)
    assert np.all(blend.time_profile_prime(tau) == 0)
    out, _ = vs.apply(x, jac)
    assert calls == []
    nx = np.linalg.norm(x, axis=1, keepdims=True)
    assert np.allclose(out, vs.rho * nx * (x / nx), rtol=1e-15, atol=0)
    # the outer part of the shell reads mu once, at its points alone
    x = _ball_shell(vs, 0.7, 1.0)
    vs.apply(x, jac)
    assert calls == [len(x)]
