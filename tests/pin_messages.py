"""Pin the error messages of the validation negative controls.

Run from the repository root:

    PYTHONPATH=src python tests/pin_messages.py

It rewrites ``pinned_messages.json`` next to this file with the exception
type and full message, witness included, that each control in ``CONTROLS``
raises.  ``test_mesh.py`` checks the library against that file.  Regenerate
it only with this script, and only for a change that means to move a
message.
"""

import json
from pathlib import Path

import numpy as np

from plsmooth.builders import kuhn_cube, subdivided_tet, two_tet
from plsmooth.errors import PLSmoothError
from plsmooth.mesh import (PLMap, SimplicialComplex,
                           pl_map_from_vertex_images, validate_pl_homeo)

PINNED = Path(__file__).with_name("pinned_messages.json")


def fold():
    """The subdivided tet with its interior vertex's image moved outside
    the tet, so the image cells overlap."""
    cx = subdivided_tet()
    images = cx.points.copy()
    images[4] = [0.8, 0.4, 0.4]
    return pl_map_from_vertex_images(cx, images)


def touching_cells():
    """Two disjoint tetrahedra; the second's piece moves its vertex 0 onto
    the centroid of the first's face x + y + z = 1, so the images touch
    without overlapping."""
    ref = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    shift = np.array([3.0, 0.0, 0.0])
    cx = SimplicialComplex(np.vstack([ref, ref + shift]),
                           [[0, 1, 2, 3], [4, 5, 6, 7]])
    return PLMap(cx, [np.eye(3)] * 2, [np.zeros(3), 1.0 / 3.0 - shift])


def double_cover():
    """The Kuhn cube wrapped twice around its diagonal: every point keeps
    its height along (1, 1, 1) and its distance from it, and its angle
    about it doubles.  Each cell's dihedral angle at the diagonal goes from
    pi/3 to 2pi/3, whose sine is the same, so every det is +1, and cells k
    and k + 3 fill one wedge."""
    cx = kuhn_cube()
    d = np.ones(3) / np.sqrt(3.0)
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    w = np.cross(d, u)
    h, x, y = cx.points @ d, cx.points @ u, cx.points @ w
    z = (x + 1j * y) ** 2 / np.maximum(np.abs(x + 1j * y), 1e-300)
    images = np.outer(h, d) + np.outer(z.real, u) + np.outer(z.imag, w)
    return pl_map_from_vertex_images(cx, images)


def mixed_orientation():
    """Two cells, the second's piece a reflection."""
    return PLMap(two_tet(), np.array([np.eye(3), np.diag([-1.0, 1.0, 1.0])]),
                 np.zeros((2, 3)))


def overlapping_cells(scale):
    """A seventh cell inside the Kuhn cube, all scaled by ``scale``: the
    complex's cells overlap."""
    cx = kuhn_cube()
    pts = np.vstack([cx.points, [0.3, 0.3, 0.3]])
    return lambda: SimplicialComplex(pts * scale,
                                     np.vstack([cx.cells, [0, 1, 2, 8]]))


CONTROLS = {
    "fold": lambda: validate_pl_homeo(fold()),
    "touching_cells": lambda: validate_pl_homeo(touching_cells()),
    "double_cover": lambda: validate_pl_homeo(double_cover()),
    "mixed_orientation": lambda: validate_pl_homeo(mixed_orientation()),
    **{f"overlapping_cells_{scale:g}": overlapping_cells(scale)
       for scale in (1e-120, 1.0, 1e120)},
}


def verdict(control):
    """The name and message of the library error that ``control`` raises."""
    try:
        control()
    except PLSmoothError as exc:
        return [type(exc).__name__, str(exc)]
    raise AssertionError("the control raised nothing")


if __name__ == "__main__":
    PINNED.write_text(json.dumps(
        {name: verdict(control) for name, control in CONTROLS.items()},
        indent=1) + "\n")
