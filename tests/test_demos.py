"""The demos that the README points to run clean."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["smooth_kuhn_sweep.py",
                                  "vertex_star_smoothing.py"])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out
