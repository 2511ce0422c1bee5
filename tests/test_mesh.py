"""Complex combinatorics, PL map validation, and document round trips."""

import json

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

import plsmooth as ps
from plsmooth import geometry as geo
from plsmooth.builders import (kuhn_cube, kuhn_grid, kuhn_identity,
                               perturbed_kuhn_map, single_tet, subdivided_tet,
                               subdivided_tet_map, two_tet, two_tet_map)
from plsmooth.errors import (ContinuityError, DegenerateSimplexError,
                             DomainError, IntersectionError,
                             InvalidInputError, NonInjectiveError,
                             OrientationError, ParseError)
from plsmooth.geometry import barycentric, tet_volume
from plsmooth.mesh import (PLMap, SimplicialComplex, close_pairs, edge_fans,
                           face_pairs, load_complex, pl_map_from_vertex_images,
                           save_document, validate_pl_homeo, vertex_stars)
from oracles import candidate_pairs
from pin_messages import CONTROLS, PINNED, double_cover, verdict


def test_kuhn_cube_combinatorics():
    cx = kuhn_cube()
    assert cx.n_cells == 6
    # the cube diagonal is the single interior edge shared by all six cells
    interior_edges = [e for e in cx.edge_cells
                      if e not in cx.boundary_edges]
    assert interior_edges == [(0, 7)]
    assert len(cx.edge_cells[(0, 7)]) == 6
    interior_faces = [f for f in cx.faces if f not in cx.boundary_faces]
    assert len(interior_faces) == 6


def test_kuhn_cube_volume():
    cx = kuhn_cube()
    from plsmooth.geometry import tet_volume
    total = sum(abs(tet_volume(cx.cell_points(c))) for c in range(6))
    assert total == pytest.approx(1.0)


def test_locate_and_contains():
    cx = two_tet()
    assert cx.contains(np.array([0.3, 0.3, 0.01]))
    assert not cx.contains(np.array([5.0, 5.0, 5.0]))
    ci = cx.locate(np.array([[0.3, 0.3, -0.01]]))
    assert ci[0] >= 0


def _least_violated_cells(cx, x):
    """Brute-force reference: per point, the cell whose smallest barycentric
    coordinate is largest, the first such cell on a tie."""
    out = []
    for p in x:
        best, bestval = 0, np.inf
        for c in range(cx.n_cells):
            v = float(-np.min(barycentric(cx.cell_points(c), p)))
            if v < bestval:
                best, bestval = c, v
        out.append(best)
    return np.array(out)


def _points_just_outside(cx, rng, n=300):
    """Points pushed a little past a boundary face of ``cx``."""
    faces = sorted(cx.boundary_faces)
    ctr = cx.points.mean(axis=0)
    pts = []
    for k in rng.integers(len(faces), size=n):
        tri = cx.points[list(faces[k])]
        q = rng.dirichlet(np.ones(3)) @ tri
        nrm = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        nrm /= np.linalg.norm(nrm)
        if nrm @ (q - ctr) < 0:
            nrm = -nrm
        pts.append(q + rng.uniform(1e-6, 0.05) * nrm)
    return np.array(pts)


@pytest.mark.parametrize("mesh", ["kuhn_cube", "kuhn_image"])
def test_locate_extend_matches_least_violated_cell(mesh):
    cx = kuhn_cube() if mesh == "kuhn_cube" \
        else perturbed_kuhn_map().image_complex()
    rng = np.random.default_rng(8)
    outside = _points_just_outside(cx, rng)
    assert np.all(cx.locate(outside) == -1)
    ci = cx.locate(outside, extend=True)
    assert np.array_equal(ci, _least_violated_cells(cx, outside))
    # points inside keep the cell the plain locator gives them
    inside = rng.uniform(0.05, 0.95, size=(200, 3))
    inside = inside[cx.contains(inside)]
    assert np.array_equal(cx.locate(inside, extend=True), cx.locate(inside))


@pytest.mark.parametrize("scale", [1e-120, 1e-60, 1e60, 1e120])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_locate_is_scale_free(scale):
    # points well inside each cell of kuhn_cube, and the same points with the
    # cube scaled far from unit size
    cx = kuhn_cube()
    rng = np.random.default_rng(4)
    bar = 0.01 + 0.96 * rng.dirichlet(np.ones(4), size=(cx.n_cells, 40))
    x = np.einsum("cnk,ckj->cnj", bar, cx.points[cx.cells]).reshape(-1, 3)
    cells = np.repeat(np.arange(cx.n_cells), 40)
    assert np.array_equal(cx.locate(x), cells)
    # validate=False: this tests the constructor's orientation flip and the
    # locator alone; half the cells come in negatively oriented
    cells_in = cx.cells.copy()
    cells_in[::2] = cells_in[::2, [1, 0, 2, 3]]
    far = SimplicialComplex(cx.points * scale, cells_in, validate=False)
    assert np.array_equal(far.cells[1::2], cx.cells[1::2])
    assert np.array_equal(np.sort(far.cells, axis=1), np.sort(cx.cells, axis=1))
    assert np.all(np.linalg.det(np.diff(cx.points[far.cells], axis=1)) > 0)
    assert np.array_equal(far.locate(x * scale), cells)
    assert np.array_equal(far.locate(x * scale, extend=True), cells)


def test_locate_prefers_exact_containment():
    # kuhn_cube cells 4 (y >= x >= z) and 5 (x >= y >= z) share the face
    # x = y and hold the bottom face z = 0; their barycentric coordinates
    # here are differences of coordinates
    cx = kuhn_cube()
    assert sorted(cx.cells[4]) == [0, 2, 6, 7]
    assert sorted(cx.cells[5]) == [0, 4, 6, 7]
    x = np.array([
        [0.5, 0.5 - 3e-11, 0.25],   # in cell 5, 3e-11 outside cell 4
        [0.5, 0.5, 0.25],           # on the shared face: the first cell
        [0.5, 0.5 - 8e-11, -5e-11],  # outside, within tol of both cells
        [0.5, 0.5 - 8e-10, -5e-10],  # outside, beyond tol of every cell
        [0.5, 0.5, -5e-10],         # ... and equally far from cells 4 and 5
    ])
    assert cx.locate(x).tolist() == [5, 4, 4, -1, -1]
    assert cx.locate(x, extend=True).tolist() == [5, 4, 4, 5, 4]
    assert cx.contains(x).tolist() == [True, True, True, False, False]


def _brute_force_locate(cx, x, tol=1e-10):
    """Reference for locate, from geometry.barycentric one cell at a time:
    the first cell whose barycentric coordinates are all >= 0, else the
    first whose coordinates are all >= -tol, else -1; and the same with the
    least-violated cell, the first on a tie, in place of -1."""
    low = np.array([barycentric(cx.cell_points(c), x).min(axis=1)
                    for c in range(cx.n_cells)])
    exact, near = low >= 0, low >= -tol
    first = np.where(exact.any(axis=0), np.argmax(exact, axis=0),
                     np.where(near.any(axis=0), np.argmax(near, axis=0), -1))
    return first, np.where(first >= 0, first, np.argmax(low, axis=0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.08))
def test_locate_matches_brute_force_first_cell(seed, amplitude):
    rng = np.random.default_rng(seed)
    grid = kuhn_grid(2, 2, 2)
    # the first-cell rule is defined for any cells: the complex is not
    # validated, so the test covers the locator alone
    cx = SimplicialComplex(
        grid.points + rng.uniform(-amplitude, amplitude, grid.points.shape),
        grid.cells, validate=False)
    P = cx.points

    def on(simplices, n=100):
        # points of random simplices of the list: on a shared face or edge,
        # the coordinates of the other vertices of a cell are zeros
        simplices = np.array(simplices)
        pick = simplices[rng.integers(len(simplices), size=n)]
        bar = rng.dirichlet(np.ones(pick.shape[1]), size=n)
        return np.einsum("nk,nkj->nj", bar, P[pick])

    x = np.vstack([
        P,
        P[np.array(cx.edges)].mean(axis=1),
        P[np.array(cx.faces)].mean(axis=1),
        on([f for f, cs in cx.face_cells.items() if len(cs) > 1]),
        on([e for e, cs in cx.edge_cells.items() if len(cs) > 1]),
        on(cx.cells),
        _points_just_outside(cx, rng, n=50),
    ])
    # 1e-7 is the tolerance of inverse_pl in SmoothedMap.inverse
    for tol in (1e-10, 1e-7):
        first, least = _brute_force_locate(cx, x, tol)
        assert np.array_equal(cx.locate(x, tol=tol), first)
        assert np.array_equal(cx.locate(x, tol=tol, extend=True), least)


def test_pl_map_rejects_points_outside():
    pl = perturbed_kuhn_map()
    x = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 1.5]])
    with pytest.raises(DomainError):
        pl(x)
    with pytest.raises(DomainError):
        pl.derivative(x)
    inner = pl.derivative(x[:1])
    assert np.array_equal(inner, pl.matrices[pl.complex.locate(x[:1])])


def test_pl_map_from_vertex_images_affine():
    # a globally affine assignment reproduces the affine map piecewise
    cx = kuhn_cube()
    A = np.array([[1.2, 0.1, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]])
    b = np.array([0.3, -0.1, 0.2])
    plmap = pl_map_from_vertex_images(cx, cx.points @ A.T + b)
    assert np.allclose(plmap.matrices, A[None], atol=1e-12)
    assert np.allclose(plmap.offsets, b[None], atol=1e-12)


def test_identity_map_validates():
    rep = validate_pl_homeo(kuhn_identity())
    assert rep.injective
    assert rep.continuity_residual <= 1e-12


def test_validate_rejects_discontinuity():
    pl = two_tet_map(np.eye(3), np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(ContinuityError):
        validate_pl_homeo(pl)


def test_validate_rejects_fold_with_witness():
    # folding the subdivided tet: move the interior vertex outside
    cx = subdivided_tet()
    images = cx.points.copy()
    images[4] = [0.8, 0.4, 0.4]  # outside the tet: cells overlap
    pl = pl_map_from_vertex_images(cx, images)
    with pytest.raises((NonInjectiveError, OrientationError)) as exc:
        validate_pl_homeo(pl)
    assert exc.value.args  # carries a witness message


@pytest.mark.parametrize("scale", [1e-120, 1e-60, 1.0, 1e60, 1e120])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_pl_homeo_is_scale_free(scale):
    cx = kuhn_cube()
    eye = np.broadcast_to(np.eye(3), (7, 3, 3))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rep = validate_pl_homeo(PLMap(
            SimplicialComplex(cx.points * scale, cx.cells), eye[:6],
            np.zeros((6, 3))))
    assert rep.injective
    # a seventh cell, apart from the cube, translated into it by its piece
    pts = np.vstack([cx.points, [[3.2, 0.2, 0.2], [3.6, 0.2, 0.2],
                                 [3.2, 0.6, 0.2], [3.2, 0.2, 0.6]]])
    offsets = np.zeros((7, 3))
    offsets[6, 0] = -3.0
    cells = np.vstack([cx.cells, [8, 9, 10, 11]])
    pl = PLMap(SimplicialComplex(pts * scale, cells), eye, offsets * scale)
    with pytest.raises(NonInjectiveError, match="overlap near"):
        validate_pl_homeo(pl)


def test_orientation_mixed_rejected():
    cx = two_tet()
    pl = ps.PLMap(cx, np.array([np.eye(3), np.diag([-1.0, 1, 1])]),
                  np.zeros((2, 3)))
    with pytest.raises(OrientationError):
        validate_pl_homeo(pl)


def test_face_pairs_orientation_convention():
    # normal stretch 1 below, 1.4 above: the frame normal points upward
    pl = two_tet_map(np.eye(3), np.array([[1, 0, 0.3], [0, 1, 0.1],
                                          [0, 0, 1.4]], dtype=float))
    prs = [pr for pr in face_pairs(pl) if not pr.trivial]
    assert len(prs) == 1
    pr = prs[0]
    n = pr.frame.R[0]
    assert n @ np.array([0.0, 0, 1]) > 0.99
    # M_pos is the piece on the positive (larger-stretch) side
    assert pr.M_pos[2, 2] == pytest.approx(1.4)


def test_edge_fans_kuhn():
    pl = perturbed_kuhn_map()
    fans = [f for f in edge_fans(pl) if not f.trivial]
    assert len(fans) == 1
    fan = fans[0]
    assert fan.edge == (0, 7)
    assert len(fan.angles) == 6
    assert fan.complete_start and fan.complete_end
    assert fan.length == pytest.approx(np.sqrt(3.0))
    assert 0 < fan.min_gap <= np.pi / 8
    # sector pieces agree with the PL map on sector interiors
    rng = np.random.default_rng(0)
    th = rng.uniform(-np.pi, np.pi, 100)
    t = rng.uniform(0.01, 0.05, 100)
    z = rng.uniform(0.4, 1.2, 100)
    y = np.stack([t * np.cos(th), t * np.sin(th), z], axis=-1)
    world = y @ fan.Q + fan.V0
    keep = np.min(np.abs((th[:, None] - fan.angles[None, :] + np.pi)
                         % np.pi - np.pi / 2), axis=1) > -np.inf
    fx = pl(world[keep])
    idx = fan.sector_of(th[keep])
    gx = np.einsum("nij,nj->ni", fan.pieces[idx], y[keep])
    gx = fan.image_to_world(gx)
    assert np.allclose(fx, gx, atol=1e-9)


def test_edge_fan_plane_normal_form():
    pl = perturbed_kuhn_map()
    fan = [f for f in edge_fans(pl) if not f.trivial][0]
    # all framed pieces map e3 to (0, 0, lam)
    e3 = fan.pieces @ np.array([0.0, 0, 1])
    assert np.allclose(e3[:, :2], 0.0, atol=1e-12)
    assert np.allclose(e3[:, 2], fan.lam, atol=1e-12)


def test_vertex_stars_subdivided():
    pl = subdivided_tet_map()
    stars = vertex_stars(pl)
    assert [st.vertex for st in stars] == [4]
    st = stars[0]
    assert len(st.cells) == 4
    assert st.R > 0


def _all_subsimplex_clearance(cx, v):
    """The distance from vertex v to every point, edge and triangle of every
    cell that does not contain it, each as a triangle with repeated
    vertices: the scan vertex_stars made before it read the link only."""
    subs = {sub for cell in cx.cells.tolist() for k in (1, 2, 3)
            for sub in combinations(sorted(cell), k) if v not in sub}
    T = np.array([sub + (sub[-1],) * (3 - len(sub)) for sub in subs])
    return float(geo.dist_point_simplex(cx.points[v], cx.points[T]).min())


@pytest.mark.parametrize("pl,v", [
    (subdivided_tet_map(), 4),
    (PLMap(kuhn_grid(2, 2, 2), np.broadcast_to(np.eye(3), (48, 3, 3)),
           np.zeros((48, 3))), 13)], ids=["subdivided_tet", "kuhn_grid_2"])
def test_vertex_star_radius_is_the_all_subsimplex_clearance(pl, v):
    # an interior vertex's link bounds its star, so no simplex away from
    # the vertex is nearer than the link
    stars = vertex_stars(pl)
    assert [st.vertex for st in stars] == [v]
    assert stars[0].R == 0.4 * _all_subsimplex_clearance(pl.complex, v)


def test_document_roundtrip(tmp_path):
    pl = subdivided_tet_map()
    path = tmp_path / "doc.json"
    save_document(pl, path)
    pl2 = load_complex(path)
    assert np.array_equal(pl2.complex.points, pl.complex.points)
    assert np.array_equal(pl2.matrices, pl.matrices)
    assert np.array_equal(pl2.offsets, pl.offsets)
    # byte-identical re-serialization
    save_document(pl2, tmp_path / "doc2.json")
    assert (tmp_path / "doc.json").read_bytes() == \
        (tmp_path / "doc2.json").read_bytes()


def test_load_complex_malformed():
    with pytest.raises(ParseError):
        load_complex('{"points": "nope"}')
    with pytest.raises(ParseError):
        load_complex("not json at all {")


@pytest.mark.parametrize("count,message", [
    (7, "pieces[6]: 7 pieces for 6 cells"),
    (5, "pieces[5]: 5 pieces for 6 cells")], ids=["one_more", "one_fewer"])
def test_piece_count_other_than_cell_count_names_both(count, message):
    doc = perturbed_kuhn_map().to_dict()
    doc["pieces"] = (doc["pieces"] * 2)[:count]
    with pytest.raises(ParseError) as exc:
        load_complex(doc)
    assert str(exc.value).startswith(message)


def test_degenerate_cell_rejected():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(Exception):
        SimplicialComplex(pts, [[0, 1, 2, 3]])


def test_inverse_pl_roundtrip():
    pl = perturbed_kuhn_map()
    rng = np.random.default_rng(4)
    x = rng.uniform(0.05, 0.95, size=(500, 3))
    x = x[pl.complex.contains(x)]
    y = pl(x)
    xb, _ = pl.inverse_pl(y)
    assert np.max(np.linalg.norm(x - xb, axis=-1)) < 1e-9


@pytest.mark.parametrize("scale", [1e-120, 1.0, 1e120])
def test_inverse_pl_matches_linear_solve(scale):
    # the stored inverse pieces against LAPACK on the cells inverse_pl picks;
    # scaling the images scales every matrix, and so its inverse, by 1/scale
    grid = kuhn_grid(2, 2, 2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        images = grid.points + rng.uniform(-0.05, 0.05, grid.points.shape)
        pl = pl_map_from_vertex_images(grid, images * scale)
        x = rng.uniform(0.0, 2.0, size=(400, 3))
        y = pl(x)
        xb, ci = pl.inverse_pl(y, extend=True)
        ref = np.linalg.solve(pl.matrices[ci],
                              (y - pl.offsets[ci])[..., None])[..., 0]
        assert np.max(np.abs(xb - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_degenerate_cell_message_names_first_cell():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                    [1, 1, 0], [2, 2, 0]])
    cells = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 4, 5]]
    with pytest.raises(DegenerateSimplexError) as exc:
        SimplicialComplex(pts, cells)
    cond = np.linalg.cond(pts[[1, 2, 4]] - pts[0])
    assert str(exc.value) == f"cell 1 is degenerate (condition number {cond:.3e})"


def test_cells_are_oriented_positively():
    cx = kuhn_grid(2, 1, 1)
    given = cx.cells.copy()
    given[::2, [0, 1]] = given[::2, [1, 0]]  # every other cell reversed
    cy = SimplicialComplex(cx.points, given)
    # a reversed cell gets its last two vertices exchanged; the others stay
    expect = given.copy()
    expect[::2, [2, 3]] = expect[::2, [3, 2]]
    assert np.array_equal(cy.cells, expect)
    assert all(tet_volume(cy.cell_points(c)) > 0 for c in range(cy.n_cells))


def test_kuhn_grid_layout():
    cx = kuhn_grid(3, 2, 1)
    assert cx.n_cells == 6 * 3 * 2 * 1
    assert np.array_equal(cx.points[(2 * 3 + 1) * 2 + 1], [2.0, 1.0, 1.0])
    total = sum(tet_volume(cx.cell_points(c)) for c in range(cx.n_cells))
    assert total == pytest.approx(6.0)
    assert np.array_equal(kuhn_cube().cells, kuhn_grid(1, 1, 1).cells)


def test_boundary_simplices_match_brute_force():
    cx = kuhn_grid(2, 2, 1)
    faces = {f for f, cs in cx.face_cells.items() if len(cs) == 1}
    edges = {e for e in cx.edges if any(set(e) <= set(f) for f in faces)}
    verts = {v for v in cx.vertices if any(v in f for f in faces)}
    assert cx.boundary_faces == faces
    assert cx.boundary_edges == edges
    assert cx.boundary_vertices == verts
    # one cube thick: every vertex is on the boundary, but not every edge
    assert verts == set(cx.vertices)
    assert len(edges) < len(cx.edges)


# -- conformity: two cells meet exactly in their common subsimplex

_REF = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
_CORNER = np.vstack([np.zeros(3), np.eye(3)])  # a cell reaching away from _REF


def _pair(points_b, cells_b=(4, 5, 6, 7)):
    """The reference cell as cell 0 and a second cell as cell 1."""
    return np.vstack([_REF, points_b]), [[0, 1, 2, 3], list(cells_b)]


def _hanging_vertex():
    # below the triangle z = 0 one cell; above it three cells around a
    # vertex at the triangle's centroid, which hangs in the lower cell's face
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1 / 3, 1 / 3, -1],
                    [1 / 3, 1 / 3, 0], [1 / 3, 1 / 3, 1]])
    return pts, [[0, 1, 2, 3], [0, 1, 4, 5], [1, 2, 4, 5], [2, 0, 4, 5]]


OVERLAP = "overlap with interior volume"
NONCONFORMING = "not a common subsimplex"
CONFORMITY_CASES = {
    "shared face": (two_tet().points, two_tet().cells.tolist(), None),
    "shared edge": (*_pair([[0, -1, 0], [0, 0, -1]], (0, 1, 4, 5)), None),
    "shared vertex": (*_pair(-_REF[1:], (0, 4, 5, 6)), None),
    "disjoint": (*_pair(_REF + [2.0, 0, 0]), None),
    # bounding boxes overlap, the cells do not
    "disjoint, boxes overlap": (*_pair(_REF + 0.6), None),
    "overlapping": (*_pair(_REF + 0.1), OVERLAP),
    "duplicate": (_REF, [[0, 1, 2, 3], [0, 1, 2, 3]], OVERLAP),
    "hanging vertex": (*_hanging_vertex(), NONCONFORMING),
    # a vertex of cell 1 at the centroid of a face of cell 0
    "vertex on face centroid": (*_pair(_CORNER + 1 / 3), NONCONFORMING),
    # ... and at the midpoint of an edge of cell 0
    "vertex on edge midpoint": (*_pair(_CORNER + [0.5, 0.5, 0]),
                                NONCONFORMING),
}


@pytest.mark.parametrize("order", ["given", "reversed"])
@pytest.mark.parametrize("case", list(CONFORMITY_CASES))
def test_conformity_check(case, order):
    pts, cells, error = CONFORMITY_CASES[case]
    if order == "reversed":
        cells = cells[::-1]
    if error is None:
        SimplicialComplex(pts, cells)
    else:
        with pytest.raises(IntersectionError, match=error):
            SimplicialComplex(pts, cells)


_floats = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(q=st.tuples(_floats, _floats, _floats, _floats).filter(
           lambda q: np.linalg.norm(q) > 0.1),
       scale=st.floats(1e-3, 1e3), shift=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
       mirror=st.booleans())
def test_similar_kuhn_grids_validate(q, scale, shift, mirror):
    cx = kuhn_grid(2, 1, 1)
    A = scale * Rotation.from_quat(q).as_matrix()
    if mirror:
        A[:, 0] *= -1.0
    cy = SimplicialComplex(cx.points @ A.T + np.asarray(shift), cx.cells)
    assert cy.n_cells == 12


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-1.0, 2.0), y=st.floats(-1.0, 2.0), z=st.floats(0.05, 2.0))
def test_apex_pushed_through_shared_face_rejected(x, y, z):
    with pytest.raises(IntersectionError, match=OVERLAP):
        two_tet(apex_low=(x, y, z))


def test_candidate_pairs_linear_in_cells():
    cx = kuhn_grid(4, 4, 4)
    tol = 1e-10 * cx.coordinate_scale()
    pairs = {tuple(p) for p in cx._candidate_pairs(tol).tolist()}
    # every pair of cells that meet (here: that share a vertex) is a candidate
    meeting = {(a, b) for cs in cx.vertex_cells.values()
               for a, b in combinations(sorted(cs), 2)}
    assert meeting <= pairs
    # a Kuhn cell's bounding box is its cube, which meets 27 cubes of 6 cells
    # each: at most 27 * 6 / 2 pairs per cell, against m (m - 1) / 2 = 73,536
    # pairs of all 384 cells
    assert len(pairs) <= 27 * 6 // 2 * cx.n_cells


_PAIR_CASES = {
    "perturbed_kuhn": lambda: perturbed_kuhn_map().complex,
    "perturbed_kuhn_image": lambda: perturbed_kuhn_map().inverse_pieces()[0],
    "subdivided_tet": lambda: subdivided_tet_map().complex,
    "subdivided_tet_image":
        lambda: subdivided_tet_map().inverse_pieces()[0],
    "kuhn_grid_3": lambda: kuhn_grid(3, 3, 3),
}


@pytest.mark.parametrize("case", list(_PAIR_CASES))
def test_candidate_pairs_match_a_kd_tree(case):
    cx = _PAIR_CASES[case]()
    tol = 1e-10 * cx.coordinate_scale()
    np.testing.assert_array_equal(cx._candidate_pairs(tol),
                                  candidate_pairs(cx, tol))


@settings(max_examples=40, deadline=None)
@given(moves=st.lists(st.tuples(*[st.floats(-0.45, 0.45)] * 3),
                      min_size=27, max_size=27))
def test_candidate_pairs_match_a_kd_tree_on_perturbed_grids(moves):
    cx = kuhn_grid(2, 2, 2)
    cy = SimplicialComplex(cx.points + np.array(moves), cx.cells,
                           validate=False)
    tol = 1e-10 * cy.coordinate_scale()
    np.testing.assert_array_equal(cy._candidate_pairs(tol),
                                  candidate_pairs(cy, tol))


# lattice coordinates and radii put many pairs exactly at the radius
_coord = st.one_of(st.floats(-10.0, 10.0), st.integers(-4, 4).map(float))


@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(_coord, _coord, _coord), max_size=60),
       r=st.one_of(st.floats(0.0, 20.0), st.integers(0, 4).map(float)))
# two points whose squared distance underflows to 0 <= r^2, alone: the
# grid must not put them 2^20 cells apart
@example(pts=[(0.0, 0.0, 0.0), (0.0, 0.0, 6.05220662796089e-255)], r=0.0)
def test_close_pairs_match_a_kd_tree(pts, r):
    x = np.array(pts, dtype=float).reshape(-1, 3)
    ref = cKDTree(x).query_pairs(r, output_type="ndarray").reshape(-1, 2)
    np.testing.assert_array_equal(
        close_pairs(x, r), ref[np.lexsort((ref[:, 1], ref[:, 0]))])


@pytest.mark.parametrize("shift", [(1e4, 0, 0), (-3e5, 2e5, 7e4)])
def test_small_grid_far_from_origin_validates(shift):
    # cells of size 1e-3 at coordinates up to 3e5: the facet planes must not
    # carry the rounding of the far origin
    cx = kuhn_grid(2, 1, 1)
    SimplicialComplex(1e-3 * cx.points + np.array(shift), cx.cells)


@pytest.mark.parametrize("scale", [1e-120, 1e-60, 1e60, 1e120])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_is_scale_free(scale):
    # cubed edge lengths and unit facet normals of the raw coordinates over-
    # or underflow at these scales; validation works on unit-scaled ones
    cx = kuhn_cube()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        SimplicialComplex(cx.points * scale, cx.cells)


@pytest.mark.parametrize("scale", [1e-120, 1.0, 1e120])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overlap_rejected_at_any_scale(scale):
    cx = kuhn_cube()
    pts = np.vstack([cx.points, [0.3, 0.3, 0.3]])
    cells = np.vstack([cx.cells, [0, 1, 2, 8]])
    # the overlap is reported relative to the cells, a finite number
    with pytest.raises(IntersectionError,
                       match=r"interior volume \d\.\d{3}e[-+]\d+ times"):
        SimplicialComplex(pts * scale, cells)


@pytest.mark.parametrize("a", [1e-9, 1e-6, 1e-4, 1e-2])
def test_perturbed_grids_validate_or_raise_typed_error(a):
    # qhull cannot build some of the near-degenerate intersections the LP
    # overlap test meets here (seeds 1, 2 and 5 at 1e-9); whether each grid
    # is accepted is ROADMAP item 2, not asserted
    grid = kuhn_grid(2, 2, 2)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        try:
            SimplicialComplex(
                grid.points + rng.uniform(-a, a, grid.points.shape), grid.cells)
        except InvalidInputError:
            pass


def test_double_cover_around_a_shared_edge_is_rejected():
    # the overlapping pairs share the diagonal; they fail the conformity
    # check, so the LP still reaches them and names the overlap
    pl = double_cover()
    assert np.allclose(np.linalg.det(pl.matrices), 1.0)
    with pytest.raises(NonInjectiveError, match="overlap near"):
        validate_pl_homeo(pl)


def _grid_affine():
    """The map of the benchmark's grid_affine input at seed 0: one
    near-identity affine map on a 2 x 1 x 1 Kuhn grid."""
    cx = kuhn_grid(2, 1, 1)
    rng = np.random.default_rng([0, 0])
    A = np.eye(3) + rng.uniform(-0.05, 0.05, size=(3, 3))
    b = rng.uniform(-0.1, 0.1, size=3)
    return PLMap(cx, np.broadcast_to(A, (cx.n_cells, 3, 3)),
                 np.broadcast_to(b, (cx.n_cells, 3)))


@pytest.mark.parametrize("build,calls", [(perturbed_kuhn_map, 0),
                                         (subdivided_tet_map, 0),
                                         (_grid_affine, 15)],
                         ids=["perturbed_kuhn", "subdivided_tet",
                              "grid_affine"])
def test_overlap_lp_runs_only_on_pairs_sharing_at_most_a_vertex(
        build, calls, monkeypatch):
    # every image pair that shares an edge conforms, so only pairs that
    # share at most one vertex reach the LP: grid_affine's 14 pairs that
    # share one vertex and its one disjoint pair
    seen = []
    lp = geo.convex_interior_overlap
    monkeypatch.setattr(geo, "convex_interior_overlap",
                        lambda *a, **k: seen.append(1) or lp(*a, **k))
    assert validate_pl_homeo(build()).injective
    assert len(seen) == calls


_small = st.integers(-3, 3)
_lattice = st.tuples(_small, _small, _small)


def _lp_on_conforming_pair(cx):
    """The LP's result on the two cells of ``cx`` if they conform, as
    ``validate_pl_homeo`` runs both, else None.  Rejects examples with a
    degenerate cell."""
    D = cx._edge_vectors() * cx._unit_scale()
    assume(np.all(np.abs(np.linalg.det(D)) > 1e-6))
    tol = 1e-10 * cx.coordinate_scale()
    if not cx._conforming_pairs(np.array([[0, 1]]), tol)[0]:
        return None
    X = cx._scaled_cells()
    return geo.convex_interior_overlap(X[0], X[1], tol=tol * cx._unit_scale())


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(_lattice, min_size=6, max_size=6), face=st.booleans(),
       plane=st.none() | st.tuples(_small, _small),
       nudge=st.sampled_from([0.0, 1e-13, -1e-13, 4e-14, 1e-9]),
       exp=st.sampled_from([-300, 0, 300]))
@example(pts=[(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0),
              (1, 1, 0)], face=True, plane=None, nudge=0.0, exp=0)
@example(pts=[(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (-1, 0, 0),
              (0, -1, 0)], face=False, plane=(0, -1), nudge=-1e-13, exp=300)
def test_conforming_pairs_sharing_an_edge_have_no_lp_overlap(pts, face, plane,
                                                            nudge, exp):
    # two cells through the edge (p, q): a = (p, q, a1, a2) and b = (p, q,
    # a1, b2) across a shared face or (p, q, b1, b2) across the edge alone.
    # b2 may fold past the shared face, lie exactly on the plane (p, q, a2)
    # (``plane``: b2 = p + i (q - p) + j (a2 - p)) or within ``nudge`` of
    # it; a pair that conforms has no overlap for the LP, so validation
    # may skip the LP on it
    P = np.array(pts, dtype=float)
    p, q, a2 = P[0], P[1], P[3]
    if plane is not None:
        P[5] = p + plane[0] * (q - p) + plane[1] * (a2 - p)
    n = np.cross(q - p, a2 - p)
    if np.any(n):
        P[5] += nudge * n / np.linalg.norm(n)
    cells = [[0, 1, 2, 3], [0, 1, 2, 5] if face else [0, 1, 4, 5]]
    cx = SimplicialComplex(P * 2.0 ** exp, cells, validate=False)
    result = _lp_on_conforming_pair(cx)
    assert result is None or result == (0.0, None)


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(_lattice, min_size=8, max_size=8), vertex=st.booleans(),
       facet=st.sampled_from(list(combinations(range(4), 3))),
       plane=st.none() | st.tuples(_small, _small),
       nudge=st.sampled_from([0.0, 1e-13, -1e-13, 1e-9]),
       exp=st.sampled_from([-300, 0, 300]))
def test_conforming_pairs_sharing_at_most_a_vertex_have_no_lp_overlap(
        pts, vertex, facet, plane, nudge, exp):
    # a = (p, a1, a2, a3) and b = (p, b1, b2, b3) through the vertex p, or
    # b = (b0, b1, b2, b3) apart from a.  b1 may lie exactly on the plane
    # of a's ``facet`` (``plane``: b1 = f0 + i (f1 - f0) + j (f2 - f0)) or
    # within ``nudge`` of it.  Validation still runs the LP on these pairs;
    # that a pair that conforms has no overlap for the LP is what lets
    # ROADMAP item 2 drop it
    P = np.array(pts, dtype=float)
    f0, f1, f2 = P[list(facet)]
    if plane is not None:
        P[5] = f0 + plane[0] * (f1 - f0) + plane[1] * (f2 - f0)
    n = np.cross(f1 - f0, f2 - f0)
    if np.any(n):
        P[5] += nudge * n / np.linalg.norm(n)
    cells = [[0, 1, 2, 3], [0 if vertex else 4, 5, 6, 7]]
    cx = SimplicialComplex(P * 2.0 ** exp, cells, validate=False)
    result = _lp_on_conforming_pair(cx)
    assert result is None or result == (0.0, None)


# two-cell domains whose cells share 3, 2, 1 or 0 vertices: the unit tet
# and a second one across a face, an edge, a vertex or a gap
_UNIT_TET = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
_TWO_CELLS = {
    3: (_UNIT_TET + [[1, 1, 1]], [[0, 1, 2, 3], [1, 2, 3, 4]]),
    2: (_UNIT_TET + [[0, -1, 0], [0, 0, -1]], [[0, 1, 2, 3], [0, 1, 4, 5]]),
    1: (_UNIT_TET + [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [[0, 1, 2, 3], [0, 4, 5, 6]]),
    0: (_UNIT_TET + [[3, 0, 0], [4, 0, 0], [3, 1, 0], [3, 0, 1]],
        [[0, 1, 2, 3], [4, 5, 6, 7]]),
}


def _lp_then_conformity(pl):
    """The injectivity verdict of a reference rule, as validate_pl_homeo
    words it, or None: the LP on every candidate image pair in
    lexicographic order, then the first pair that does not conform.  It is
    also the verdict of the audit before the conformity check decided pairs
    that share an edge, which ran the LP on every pair that no plane
    through a shared edge separated: a pair such a plane separates has no
    overlap for the LP."""
    img = pl.inverse_pieces()[0]
    tol = 1e-10 * pl.complex.coordinate_scale()
    pairs = img._candidate_pairs(tol)
    s, P = img._unit_scale(), img._scaled_cells()
    for a, b in pairs.tolist():
        vol, witness = geo.convex_interior_overlap(P[a], P[b], tol=tol * s)
        if vol > (tol * s) ** 3:
            witness = witness / s + img.points.mean(axis=0)
            return ("NonInjectiveError", f"image cells overlap near "
                    f"{witness}; map is not injective")
    bad = pairs[~img._conforming_pairs(pairs, tol)]
    if len(bad):
        a, b = bad[0].tolist()
        return ("NonInjectiveError", f"image cells {a} and {b} touch "
                f"outside a common face; map is not injective")
    return None


@settings(max_examples=300, deadline=None)
@given(shared=st.sampled_from(sorted(_TWO_CELLS)),
       moves=st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=8,
                      max_size=8),
       exp=st.sampled_from([-300, 0, 300]))
def test_two_cell_verdicts_match_the_lp_then_conformity_reference(
        shared, moves, exp):
    # lattice images: twice the domain, each vertex moved by up to one unit
    # per axis, so maps come out valid, overlapping and touching
    pts, cells = _TWO_CELLS[shared]
    pts = np.array(pts, dtype=float)
    cx = SimplicialComplex(pts * 2.0 ** exp, cells)
    images = 2.0 * pts + np.array(moves[:len(pts)])
    # the image cells' exact determinants, from their integer vertices: a
    # map with a singular piece is test_a_singular_piece_is_rejected's
    Q = images[cx.cells]
    dets = np.rint(np.linalg.det(Q[:, 1:] - Q[:, :1]))
    assume(np.all(dets > 0) or np.all(dets < 0))
    pl = pl_map_from_vertex_images(cx, images * 2.0 ** exp)
    try:
        validate_pl_homeo(pl)
        got = None
    except NonInjectiveError as exc:
        got = ("NonInjectiveError", str(exc))
    assert got == _lp_then_conformity(pl)


@pytest.mark.xfail(strict=True, reason="a singular piece whose LU "
                   "determinant rounds to 3.3e-16 passes the orientation "
                   "check; CHANGES.md FOUND line")
def test_a_singular_piece_is_rejected():
    # the second piece, [[3, 1, -1], [0, 2, 1], [-1, -1, 0]], has det 0: it
    # flattens its cell, so the map is not injective
    pts, cells = _TWO_CELLS[0]
    moves = [(0, 0, 0)] * 4 + [(0, 0, 1), (1, 0, 0), (1, 0, 0), (-1, 1, -1)]
    images = 2.0 * np.array(pts, dtype=float) + np.array(moves)
    pl = pl_map_from_vertex_images(SimplicialComplex(pts, cells), images)
    assert geo.det3(pl.matrices[1]) == 0.0
    with pytest.raises(InvalidInputError):
        validate_pl_homeo(pl)


_PINNED = json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", list(CONTROLS))
def test_negative_control_keeps_its_pinned_message(name):
    # the exception type and full message, witness included, as
    # pin_messages.py wrote them
    assert verdict(CONTROLS[name]) == _PINNED[name]
