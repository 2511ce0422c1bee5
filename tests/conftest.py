"""Maps shared by several test modules."""

import numpy as np
import pytest

from plsmooth.mesh import PLMap, SimplicialComplex


@pytest.fixture(scope="session")
def three_cell_map():
    """A valid three-cell map with one nontrivial face, (0, 1, 2), whose
    slab lies in cell 0.  Edge (0, 1) is a boundary edge, and the slab's
    other face through it, (0, 1, 3), is interior (shared with cell 2):
    choose_params rejects the map, since g would jump across (0, 1, 3)."""
    cx = SimplicialComplex(
        [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, 0.3, 1], [0.5, 0.3, -1],
         [0.5, -0.5, 1]], [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 5]])
    kink = np.eye(3) + np.outer([0.2, 0.1, -0.3], [0.0, 0.0, 1.0])
    return PLMap(cx, [np.eye(3), kink, np.eye(3)], np.zeros((3, 3)))
