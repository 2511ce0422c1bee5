"""The benchmark's tracer finds every library callable it hooks.

``perfbench/tracing.py`` wraps library callables by module and attribute
name; a rename or deletion here would make a traced benchmark run fail
instead of a test.  The tracer module is loaded from its file, read-only.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import plsmooth.cli
import plsmooth.pipeline
from plsmooth.builders import perturbed_kuhn_map, subdivided_tet_map

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets():
    if not TRACING.exists():
        return []
    tr = _tracing()
    return [pytest.param(*spec, id=".".join(p for p in spec[:3] if p))
            for spec in tr.SPANS + tr.COUNTERS]


@pytest.mark.parametrize("module,owner,attr,name,arg", _targets())
def test_trace_target_resolves(module, owner, attr, name, arg):
    mod = importlib.import_module(f"plsmooth.{module}")
    if owner is None:
        fn = getattr(mod, attr)
    else:
        # the tracer replaces the attribute in the class's own namespace
        fn = vars(getattr(mod, owner))[attr]
    assert callable(fn)
    if arg is not None:
        # the argument the tracer counts as points is the points argument
        params = list(inspect.signature(fn).parameters)
        assert params[arg] in ("x", "y"), params


def test_cli_calls_assemble_as_module_global():
    # the benchmark swaps plsmooth.cli.assemble to keep the assembled map
    assert plsmooth.cli.assemble is plsmooth.pipeline.assemble
    assert "assemble" in plsmooth.cli.cmd_smooth.__code__.co_names


@pytest.mark.parametrize("build,owners", [
    (perturbed_kuhn_map, ("FacePatch", "EdgePatch")),
    (subdivided_tet_map, ("VertexPatch",))], ids=["kuhn", "ball"])
def test_patch_evaluation_reaches_the_hooked_methods(build, owners,
                                                      monkeypatch):
    # the tracer's per-layer spans and query hits see patch work only
    # through these methods; one evaluate and one derivative call of the
    # assembled map must reach each of them
    pl = build()
    g = plsmooth.pipeline.assemble(pl, plsmooth.pipeline.choose_params(pl))
    calls = []
    for owner in owners:
        cls = getattr(plsmooth.pipeline, owner)
        for attr in ("evaluate", "jacobian"):
            def counted(self, x, _real=vars(cls)[attr],
                        _name=f"{owner}.{attr}"):
                calls.append(_name)
                return _real(self, x)
            monkeypatch.setattr(cls, attr, counted)
    pts = g.sample_patches(n_per_patch=50, rng=0)
    g.evaluate(pts)
    g.derivative(pts)
    assert set(calls) == {f"{o}.{a}" for o in owners
                          for a in ("evaluate", "jacobian")}
