"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import plsmooth.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_come_from_the_seed(name):
    a, b, c = (workloads.make(name, s) for s in (3, 3, 4))
    assert json.dumps(a.document()) == json.dumps(b.document())
    assert np.array_equal(a.queries, b.queries)
    assert not np.array_equal(a.queries, c.queries)
    assert workloads.inside(a.points, a.cells, a.queries).all()


def test_workload_shapes():
    shapes = {n: workloads.make(n, 0).shape() for n in workloads.WORKLOADS}
    assert shapes["kuhn_sweep"]["nontrivial_faces"] == 6
    assert shapes["kuhn_sweep"]["nontrivial_edges"] == 1
    assert shapes["kuhn_sweep"]["nontrivial_vertices"] == 0
    assert shapes["vertex_ball"]["nontrivial_vertices"] == 1
    grid = shapes["grid_affine"]
    assert grid["cells"] == 12
    assert grid["nontrivial_faces"] == grid["nontrivial_edges"] == 0


def _sweep_csv(tmp_path, vol):
    lams = [1.0, 0.5, 0.25]
    lines = [",".join(("lambda", "vol_E", "w1p_f", "w1q_inv"))]
    lines += [f"{lam},{v},0.001,0.001" for lam, v in zip(lams, vol)]
    lines += ["# rozumny lp:2", "1,1", "# rozumny lorentz:2:1", "1,1"]
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_sweep_gate(tmp_path):
    assert run.check_sweep(_sweep_csv(tmp_path, [0.1, 0.04, 0.01])) is None
    assert "decrease" in run.check_sweep(_sweep_csv(tmp_path, [0.1, 0.1, 0.01]))
    # |E| / lambda rising from 0.04 to 0.048
    assert "increases" in run.check_sweep(
        _sweep_csv(tmp_path, [0.1, 0.02, 0.012]))


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="known defect: plsmooth sweep on a map with no "
                          "nontrivial patch takes np.max of an empty array "
                          "in lambda_sweep; a fix makes this test pass")
def test_sweep_without_patches(tmp_path):
    wl = workloads.make("grid_affine", 0)
    doc = tmp_path / "grid.json"
    doc.write_text(json.dumps(wl.document()))
    out = tmp_path / "sweep.csv"
    assert plsmooth.cli.main(["sweep", str(doc), "--out", str(out)]) == 0


def _trace(name, tmp_path):
    bench = run.Bench(name, 0, tmp_path)
    tracer, _ = bench.trace_once()
    assert bench.failed == 0
    return tracer, len(bench.wl.queries)


# vertex_ball is left out for time: one traced pass takes about 25 s there.
@pytest.mark.parametrize("name", ["kuhn_sweep", "grid_affine"])
def test_trace(name, tmp_path):
    original = plsmooth.cli.main
    (first, n), (second, _) = _trace(name, tmp_path), _trace(name, tmp_path)
    assert plsmooth.cli.main is original

    spans = first.spans
    assert spans and all(s[2] is not None for s in spans)
    for s in spans:
        if s[3] >= 0:
            parent = spans[s[3]]
            assert parent[1] <= s[1] <= s[2] <= parent[2]
    assert (first.self_times() >= 0).all()
    assert min(run.cli_coverage(first)) >= run.MIN_CLI_COVERAGE

    m1, units = run.layer_metrics(first)
    m2, _ = run.layer_metrics(second)
    counts = [k for k, u in units.items() if u != "s"]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["mesh.overlap_tests"] > 0

    hits = run.query_hits(first, n)
    assert hits == run.query_hits(second, n)
    assert sum(hits.values()) == n
    if name == "kuhn_sweep":
        assert m1["pipeline.dq_nodes"] > 0
        assert hits["face"] > 0 and hits["edge"] > 0
    else:
        assert hits["bulk"] == n


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kuhn_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
