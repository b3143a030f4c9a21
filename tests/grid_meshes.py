"""Full coordinate meshes of a grid, for the tests' reference formulas.

The package itself forms coordinate terms on the axis centres and broadcasts
them; the meshes spell the same sums out cell by cell.
"""

import numpy as np


def meshes(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z at every cell centre of `grid`, each of shape (n, n, n)."""
    c = grid.axis_centers()
    return np.meshgrid(c, c, c, indexing="ij")
