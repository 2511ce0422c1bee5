"""Command line interface: subcommands, exit codes, config merging,
and reproducibility."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plsmooth.builders import (kuhn_grid, kuhn_identity, perturbed_kuhn_map,
                               subdivided_tet, subdivided_tet_map, two_tet_map)
import plsmooth.cli
from plsmooth.cli import main
from plsmooth.errors import (CertificationError, ConstructionError,
                             ContinuityError, DomainError, InvalidInputError,
                             NonInjectiveError, ParameterError, ParseError,
                             PLSmoothError)
from plsmooth.mesh import (PLMap, SimplicialComplex, pl_map_from_vertex_images,
                           save_document, validate_pl_homeo)
from plsmooth.pipeline import SmoothedMap, assemble, choose_params


@pytest.fixture(scope="module")
def kuhn_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "kuhn.json"
    save_document(perturbed_kuhn_map(), path)
    return str(path)


@pytest.fixture(scope="module")
def subdiv_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "subdiv.json"
    save_document(subdivided_tet_map(), path)
    return str(path)


@pytest.fixture(scope="module")
def fold_doc(tmp_path_factory):
    cx = subdivided_tet()
    images = cx.points.copy()
    images[4] = [0.8, 0.4, 0.4]
    path = tmp_path_factory.mktemp("docs") / "fold.json"
    save_document(pl_map_from_vertex_images(cx, images), path)
    return str(path)


def test_validate_ok(kuhn_doc, tmp_path, capsys):
    assert main(["validate", kuhn_doc]) == 0
    assert "PASS" in capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main(["validate", kuhn_doc, "--out", str(out)]) == 0
    assert "PASS" in out.read_text()


def test_validate_near_degenerate_overlap_exits_cleanly(tmp_path, capsys):
    # the identity on kuhn_grid(2, 2, 2) with every vertex moved by up to
    # 1e-9: qhull cannot build the intersection that the LP overlap test
    # meets here, which used to end in a bare QhullError; whether the grid
    # is accepted is ROADMAP item 2, not asserted
    grid = kuhn_grid(2, 2, 2)
    rng = np.random.default_rng(1)
    pts = grid.points + rng.uniform(-1e-9, 1e-9, grid.points.shape)
    cx = SimplicialComplex(pts, grid.cells, validate=False)
    path = tmp_path / "perturbed.json"
    save_document(pl_map_from_vertex_images(cx, pts), path)
    assert main(["validate", str(path)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_touching_image_cells_exit_2(tmp_path, capsys):
    # two disjoint tetrahedra; the second's piece moves its vertex 0 onto
    # the centroid of the first's face x + y + z = 1, so the images touch
    # without overlapping
    ref = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    shift = np.array([3.0, 0.0, 0.0])
    cx = SimplicialComplex(np.vstack([ref, ref + shift]),
                           [[0, 1, 2, 3], [4, 5, 6, 7]])
    pl = PLMap(cx, [np.eye(3)] * 2, [np.zeros(3), 1.0 / 3.0 - shift])
    with pytest.raises(NonInjectiveError, match="cells 0 and 1 touch"):
        validate_pl_homeo(pl)
    path = tmp_path / "touch.json"
    save_document(pl, path)
    assert main(["validate", str(path)]) == 2
    assert "cells 0 and 1 touch" in capsys.readouterr().err


def test_cells_meeting_at_a_vertex_must_agree_there_exit_2(tmp_path,
                                                            capsys):
    # two tetrahedra share only vertex 0, and their pieces send it to two
    # points: no face or edge is shared, yet the map is discontinuous
    pts = np.vstack([np.zeros(3), np.eye(3), -np.eye(3)])
    cx = SimplicialComplex(pts, [[0, 1, 2, 3], [0, 4, 5, 6]])
    pl = PLMap(cx, [np.eye(3)] * 2, [np.zeros(3), [0.05, 0.02, 0.01]])
    with pytest.raises(ContinuityError, match="at vertex 0 "):
        validate_pl_homeo(pl)
    path = tmp_path / "vertex.json"
    save_document(pl, path)
    for command in ("validate", "smooth"):
        assert main([command, str(path)]) == 2, command
    assert "residual 5.000e-02" in capsys.readouterr().err


def test_validate_fold_exits_2(fold_doc, capsys):
    # smooth and sweep validate through choose_params, with the same exit code
    for command in ("validate", "smooth", "sweep"):
        assert main([command, fold_doc]) == 2, command
        assert "validation failure" in capsys.readouterr().err


@pytest.mark.parametrize("build", [perturbed_kuhn_map, kuhn_identity],
                         ids=["perturbed_kuhn", "identity"])
def test_orientation_reversing_map_exits_3(build, tmp_path, capsys):
    # post-composed with the reflection (x1, x2, x3) -> (-x1, x2, x3): a
    # valid PL homeomorphism, but not a sense-preserving one
    pl = build()
    rho = np.diag([-1.0, 1.0, 1.0])
    doc = tmp_path / "reflected.json"
    save_document(PLMap(pl.complex, rho @ pl.matrices, pl.offsets @ rho), doc)
    assert main(["validate", str(doc)]) == 0
    assert "orientation: -1" in capsys.readouterr().out
    for command in ("smooth", "sweep"):
        assert main([command, str(doc)]) == 3, command
        assert "orientation" in capsys.readouterr().err, command


def test_edge_reaching_the_boundary_exits_3(tmp_path, capsys):
    # in kuhn_grid(2, 2, 2) every neighbour of the centre vertex 13 lies on
    # the boundary, so each nontrivial edge at 13 reaches the boundary
    cx = kuhn_grid(2, 2, 2)
    images = cx.points.copy()
    images[13] += [0.05, -0.03, 0.02]
    doc = tmp_path / "grid.json"
    save_document(pl_map_from_vertex_images(cx, images), doc)
    assert main(["validate", str(doc)]) == 0
    capsys.readouterr()
    assert main(["smooth", str(doc)]) == 3
    err = capsys.readouterr().err
    assert re.search(r"edge \(\d+, 13\): endpoint \d+ is a boundary vertex",
                     err), err


def test_slab_beside_an_interior_face_at_a_boundary_edge_exits_3(
        three_cell_map, tmp_path, capsys):
    # no cylinder covers the boundary edge (0, 1), so g would jump across
    # the slab's side face (0, 1, 3)
    doc = tmp_path / "three_cell.json"
    save_document(three_cell_map, doc)
    assert main(["validate", str(doc)]) == 0
    capsys.readouterr()
    for command in ("smooth", "sweep"):
        assert main([command, str(doc)]) == 3, command
        err = capsys.readouterr().err
        for name in ("face (0, 1, 2)", "boundary edge (0, 1)",
                     "interior face (0, 1, 3)"):
            assert name in err, (command, err)


_NO_SCIPY = """
import json, sys
from plsmooth.cli import main
codes = [main([command, doc, "--out", sys.argv[3]]) for doc in sys.argv[1:3]
         for command in ("validate", "smooth", "sweep")]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def test_commands_load_no_scipy(kuhn_doc, subdiv_doc, tmp_path):
    # scipy serves only the validation LP and the inverse's Powell fallback;
    # neither runs on these maps, so a fresh process never imports it
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, kuhn_doc, subdiv_doc,
         str(tmp_path / "out.txt")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, check=True)
    codes, scipy_modules = json.loads(run.stdout)
    assert codes == [0] * 6
    assert scipy_modules == []


def test_missing_file_exits_1(capsys):
    assert main(["validate", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1


def test_complex_without_pieces_exits_2(tmp_path):
    doc = tmp_path / "mesh_only.json"
    save_document(subdivided_tet(), doc)
    assert main(["validate", str(doc)]) == 2


# the exit code of each error family, as the module docstring of
# plsmooth.cli documents it
EXIT_CODES = {ParseError: 1, InvalidInputError: 2, DomainError: 2,
              CertificationError: 3, ConstructionError: 3, ParameterError: 3}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", sorted(set(_subclasses(PLSmoothError)),
                                         key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_library_error_has_its_exit_code(error, kuhn_doc, monkeypatch,
                                               capsys):
    # a subclass of no family above would escape main as a traceback
    family, = (c for c in error.__mro__ if c in EXIT_CODES)

    def fail(plmap):
        raise error("raised by the test")
    monkeypatch.setattr(plsmooth.cli, "choose_params", fail)
    assert main(["smooth", kuhn_doc]) == EXIT_CODES[family]
    assert "raised by the test" in capsys.readouterr().err


def test_smooth_summary(kuhn_doc, tmp_path):
    out = tmp_path / "summary.json"
    assert main(["smooth", kuhn_doc, "--lam", "0.5",
                 "--out", str(out)]) == 0
    text = out.read_text()
    summary = json.loads(text)
    assert summary["lambda"] == 0.5
    assert summary["min_jacobian_det"] > 0
    assert summary["volume_difference_set"] > 0
    assert len(summary["face_widths"]) == 6
    assert len(summary["edge_rho"]) == 1
    # simplices are named by plain ints
    assert "np." not in text
    for key in ("edge_radii", "face_widths", "face_floor", "edge_rho"):
        for simplex in summary[key]:
            assert re.fullmatch(r"\(\d+, \d+(, \d+)?\)", simplex), simplex


def test_smooth_keeps_the_certificates_of_lambda_one(subdiv_doc, tmp_path):
    # smooth scales the map certified at lambda = 1, so every certificate
    # it prints is bit-equal at any lambda, the ball's rho too
    summaries = []
    for lam in ("1", "0.0625"):
        out = tmp_path / f"{lam}.json"
        assert main(["smooth", subdiv_doc, "--lam", lam,
                     "--out", str(out)]) == 0
        summaries.append(json.loads(out.read_text()))
    for key in ("vertex_rho", "edge_rho", "face_floor"):
        assert summaries[0][key] and summaries[0][key] == summaries[1][key]


def test_smooth_builds_the_scaled_map(subdiv_doc, tmp_path, monkeypatch):
    # the map smooth --lam 0.5 builds is the certified map's scaled copy:
    # g and Dg are equal to those of assemble(...).scaled(0.5)
    built, scaled = [], SmoothedMap.scaled
    monkeypatch.setattr(SmoothedMap, "scaled", lambda g, lam: built.append(
        scaled(g, lam)) or built[-1])
    assert main(["smooth", subdiv_doc, "--lam", "0.5",
                 "--out", str(tmp_path / "s.json")]) == 0
    pl = subdivided_tet_map()
    ref = scaled(assemble(pl, choose_params(pl)), 0.5)
    x = ref.sample_patches(n_per_patch=200)
    g, = built
    for a, b in zip(g._dispatch(x, jac=True), ref._dispatch(x, jac=True)):
        assert np.array_equal(a, b)


def test_sweep_table_and_rozumny(kuhn_doc, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", kuhn_doc, "--lambdas", "1.0", "0.5",
                 "--epsilon", "10.0", "--norm", "lp:2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("lambda,vol_E,")
    assert len(lines[1].split(",")) == 8
    assert "# rozumny lp:2" in lines
    idx = lines.index("# rozumny lp:2")
    vals = [float(tok) for tok in lines[idx + 1].split(",")]
    assert len(vals) >= 2 and all(np.isfinite(vals))


def test_sweep_unmet_epsilon_exits_4(kuhn_doc, capsys):
    assert main(["sweep", kuhn_doc, "--lambdas", "1.0",
                 "--epsilon", "1e-12"]) == 4
    assert "not met" in capsys.readouterr().err


def test_bad_norm_spec_exits_1(kuhn_doc, capsys):
    assert main(["sweep", kuhn_doc, "--lambdas", "1.0",
                 "--norm", "frobnicate:2"]) == 1


@pytest.mark.parametrize("spec", ["lp:nan", "lp:0.5", "lp:inf", "lorentz:2",
                                  "lorentz:2:nan", "bogus"])
def test_bad_norm_spec_exits_1_before_the_sweep(spec, kuhn_doc, monkeypatch,
                                                capsys):
    # every --norm spec is parsed with the numeric options, so a bad one,
    # even after a good one, stops the command before any work
    def fail(plmap):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(plsmooth.cli, "choose_params", fail)
    assert main(["sweep", kuhn_doc, "--norm", "lp:2", "--norm", spec]) == 1
    assert repr(spec) in capsys.readouterr().err


def test_config_defaults_and_explicit_override(kuhn_doc, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0.25, "seed": 42}))
    out = tmp_path / "a.json"
    assert main(["--config", str(cfg), "smooth", kuhn_doc,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] == 0.25
    # an explicit flag beats the config value
    out2 = tmp_path / "b.json"
    assert main(["--config", str(cfg), "smooth", kuhn_doc,
                 "--lam", "0.5", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["lambda"] == 0.5


def test_abbreviated_flag_is_refused_with_a_config(kuhn_doc, tmp_path,
                                                  monkeypatch):
    # argparse would read --la as --lam, but the config merge would not see
    # it as given, so the config value would win: no parser takes it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0.25}))
    seen = []
    monkeypatch.setattr(plsmooth.cli, "cmd_smooth",
                        lambda args: seen.append(args.lam) or 0)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "smooth", kuhn_doc, "--la", "0.5"])
    assert exc.value.code == 2 and seen == []
    # the whole flag with its value after "=" still beats the config value
    assert main(["--config", str(cfg), "smooth", kuhn_doc, "--lam=0.5"]) == 0
    assert seen == [0.5]


@pytest.mark.parametrize("field,edit", [
    ("cells", lambda d: d["cells"][0].__setitem__(1, 99)),
    ("points", lambda d: d["points"][2].__setitem__(0, "x")),
    ("points", lambda d: d["points"][2].__setitem__(0, float("nan"))),
    ("cells", lambda d: d["cells"][0].__setitem__(1, -1)),
    ("cells", lambda d: d["cells"][0].__setitem__(1, 1.5)),
    ("matrices", lambda d: d["pieces"][3]["matrix"][1].__setitem__(
        2, float("nan"))),
    ("offsets", lambda d: d["pieces"][3]["offset"].__setitem__(0, 10 ** 400)),
    ("cells", lambda d: d["cells"][0].__setitem__(1, float("inf"))),
    ("pieces", lambda d: d["pieces"].append(d["pieces"][0]))],
    ids=["index_99", "coordinate_x", "coordinate_nan", "index_-1",
         "index_1.5", "matrix_nan", "offset_past_float", "index_inf",
         "one_piece_too_many"])
@pytest.mark.parametrize("command", ["validate", "smooth"])
def test_malformed_document_exits_1_naming_the_field(kuhn_doc, tmp_path,
                                                     capsys, command, field,
                                                     edit):
    # each row of a malformed document: exit 1, a message that names the
    # field and its first bad index, and no traceback
    doc = json.loads(Path(kuhn_doc).read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field}[" in err, err
    assert "np." not in err


# the lists of numbers in a map document: the field a ParseError names,
# and the k-th such list of a document d
_LEAVES = [("points", lambda d, k: d["points"][k % len(d["points"])]),
           ("cells", lambda d, k: d["cells"][k % len(d["cells"])]),
           ("matrices", lambda d, k: d["pieces"][k % len(d["pieces"])][
               "matrix"][k % 3]),
           ("offsets", lambda d, k: d["pieces"][k % len(d["pieces"])][
               "offset"])]


@st.composite
def _single_field_change(draw, doc):
    """A copy of ``doc`` with one field changed, the exit code the change
    must give and the names of which its message must hold one."""
    doc = json.loads(json.dumps(doc))
    n, k = len(doc["points"]), draw(st.integers(0, 100))
    kind = draw(st.sampled_from(["type", "non-finite", "index", "shape",
                                 "missing", "piece count"]))
    if kind in ("type", "non-finite", "index"):
        field, row = _LEAVES[1] if kind == "index" else draw(
            st.sampled_from(_LEAVES))
        row = row(doc, k)
        row[k % len(row)] = draw({
            "type": st.sampled_from(["x", "1.0", True, None, [1.0], {}]),
            "non-finite": st.sampled_from([np.nan, np.inf, -np.inf]),
            "index": st.integers(n, 2 ** 70) | st.integers(-2 ** 70, -1)
            | st.floats(0.0, n - 1).filter(lambda v: v % 1 != 0)}[kind])
        return doc, 1, (f"{field}[",)
    if kind == "shape":
        field, row = draw(st.sampled_from(_LEAVES))
        row = row(doc, k)
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0)
        return doc, 1, (field[:5],)
    if kind == "missing":
        key = draw(st.sampled_from(["points", "cells", "pieces", "matrix",
                                    "offset"]))
        del (doc if key in ("points", "cells", "pieces") else
             doc["pieces"][k % len(doc["pieces"])])[key]
        return doc, 2 if key == "pieces" else 1, (key,)
    pieces = doc["pieces"]
    if draw(st.booleans()):
        pieces.pop(k % len(pieces))
    else:
        pieces.append(pieces[k % len(pieces)])
    return doc, 1, ("pieces",)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_field_change_gets_a_typed_verdict(kuhn_doc, tmp_path_factory,
                                                  data):
    # one field of a valid document changed: wrong type, non-finite value,
    # out-of-range, negative or fractional index, wrong shape, missing key
    # or a piece count that differs from the cell count.  validate and
    # smooth end in one of the CLI's codes with no traceback, and a
    # ParseError names the field
    doc, code, names = data.draw(_single_field_change(
        json.loads(Path(kuhn_doc).read_text())))
    path = tmp_path_factory.mktemp("changed") / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "smooth"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main([command, str(path)]) == code
        err = err.getvalue()
        assert "Traceback" not in err and "np." not in err
        assert code != 1 or err.startswith("error: ")
        assert any(name in err for name in names), err


@pytest.mark.parametrize("opt,val", [("--p", "0"), ("--q", "-1"),
                                     ("--p", "inf")])
def test_sweep_rejects_exponents_outside_one_to_inf(kuhn_doc, capsys, opt,
                                                    val):
    assert main(["sweep", kuhn_doc, "--lambdas", "1.0", opt, val]) == 1
    assert f"{opt} must lie in [1, inf)" in capsys.readouterr().err


@pytest.mark.parametrize("command,opt,vals", [
    ("smooth", "--lam", ["0"]), ("smooth", "--lam", ["1.5"]),
    ("smooth", "--lam", ["nan"]), ("sweep", "--lambdas", ["1", "2"]),
    ("sweep", "--lambdas", ["0.5", "nan"]), ("sweep", "--epsilon", ["nan"]),
    ("sweep", "--epsilon", ["-1"]), ("sweep", "--epsilon", ["0"]),
    ("smooth", "--seed", ["-1"])])
def test_option_out_of_range_exits_1_before_any_work(kuhn_doc, capsys,
                                                     monkeypatch, command,
                                                     opt, vals):
    def fail(*args):
        raise AssertionError("reached")
    monkeypatch.setattr(plsmooth.cli, "_load_map", fail)
    monkeypatch.setattr(plsmooth.cli, "choose_params", fail)
    assert main([command, kuhn_doc, opt, *vals]) == 1
    assert f"{opt} must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("command,args", [
    ("validate", []), ("sweep", ["--lambdas", "1.0", "--epsilon", "10"])])
def test_sweep_and_validate_accept_the_seed_they_do_not_read(
        kuhn_doc, tmp_path, command, args):
    # only smooth reads --seed, so only smooth checks its range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    outs = [tmp_path / f"{k}.txt" for k in range(3)]
    assert main([command, kuhn_doc, *args, "--out", str(outs[0])]) == 0
    assert main([command, kuhn_doc, *args, "--seed", "-1",
                 "--out", str(outs[1])]) == 0
    assert main(["--config", str(cfg), command, kuhn_doc, *args,
                 "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_option_range_applies_to_config_values(kuhn_doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0, "lambdas": [1.0, 0.0]}))
    assert main(["--config", str(cfg), "smooth", kuhn_doc]) == 1
    assert "--lam must lie in (0, 1], got 0.0" in capsys.readouterr().err
    assert main(["--config", str(cfg), "sweep", kuhn_doc]) == 1
    assert "--lambdas must lie in (0, 1], got 0.0" in capsys.readouterr().err


def test_config_values_convert_like_flags(kuhn_doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "a.json"
    cfg.write_text(json.dumps({"lam": "0.5"}))
    assert main(["--config", str(cfg), "smooth", kuhn_doc,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] == 0.5
    cfg.write_text(json.dumps({"lambdas": 0.5}))
    assert main(["--config", str(cfg), "sweep", kuhn_doc]) == 1
    assert "config key 'lambdas'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"lam": True}))
    assert main(["--config", str(cfg), "smooth", kuhn_doc]) == 1
    assert "config key 'lam'" in capsys.readouterr().err


def test_parser_is_built_once_and_parses_afresh(kuhn_doc, monkeypatch):
    # main reuses one parser; a repeated option's list must not carry over
    # from one call to the next
    seen = []
    monkeypatch.setattr(plsmooth.cli, "cmd_sweep",
                        lambda args: seen.append(args.norm) or 0)
    for spec in ("lp:2", "lorentz:2:1"):
        assert main(["sweep", kuhn_doc, "--norm", spec]) == 0
    assert seen == [["lp:2"], ["lorentz:2:1"]]
    assert plsmooth.cli.build_parser() is plsmooth.cli.build_parser()


def test_repeatable_outputs(kuhn_doc, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", kuhn_doc, "--lambdas", "1.0", "0.5",
                     "--epsilon", "10", "--seed", "5",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_two_tet_document_roundtrip_via_cli(tmp_path):
    M = np.eye(3)
    pl = two_tet_map(M, M + np.outer([0.2, 0.0, 0.1], [0.0, 0.0, 1.0]))
    doc = tmp_path / "two_tet.json"
    save_document(pl, doc)
    assert main(["validate", str(doc)]) == 0
