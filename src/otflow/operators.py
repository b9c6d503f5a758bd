"""The conservative particle deposit of the advection half-step.

The particle sitting at each cell center is pushed by its own cell velocity
and its unit mass is deposited onto the 2^d surrounding cell centers with
multilinear weights. Columns of the deposit matrix S therefore sum to exactly
one and no mass can leave the grid (displaced positions are clamped to the
domain walls).

S and its weight gradients G_k share one ``scipy.sparse.csc_matrix`` pattern:
column j lists the 2^d corner cells of particle j in ascending row order (an
axis with one cell lists its cell twice, the second time with weight zero),
and weights that vanish at the walls or on a cell center stay as explicit
zeros. The transposes S^T and G_k^T are CSR views of the same arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .grid import CellGrid, VectorField, _corner_cells, _fold_corners, _stencil

if TYPE_CHECKING:
    import scipy.sparse as sparse

__all__ = [
    "advection_interp_matrix",
    "advection_weight_gradients",
]


def _deposit_stencil(v: VectorField, dt: float):
    """Stencil of the particles pushed from the cell centers, clamped to the walls.

    Working with cell_index + dt*v/h (instead of dividing physical positions
    by the spacing) keeps a zero displacement exactly on the cell center, so
    S(0) is exactly the identity.
    """
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    grid = v.grid
    index = np.array(np.unravel_index(np.arange(grid.cell_count), grid.dims, order="F"))
    coords = index + (dt / np.asarray(grid.spacing))[:, None] * v.components
    walls = np.asarray(grid.dims)[:, None] - 0.5
    return _stencil(grid, np.clip(coords, -0.5, walls))


def _deposit_family(grid: CellGrid, base: np.ndarray, data: list[np.ndarray]) -> list[sparse.csc_matrix]:
    """CSC matrices on the one deposit pattern, one per (2^d, cell_count) `data`,
    sharing one `indices` and one `indptr` array (see the module docstring)."""
    # imported here: it is half of a cold start, and only the solves need it
    import scipy.sparse as sparse

    s = grid.cell_count
    rows = _corner_cells(grid, base)
    # scipy's own choice; any other dtype makes each matrix cast a private copy
    index_dtype = np.int32 if rows.size < 2**31 else np.int64
    indices = rows.astype(index_dtype).ravel(order="F")
    indptr = np.arange(0, rows.size + 1, len(rows), dtype=index_dtype)
    return [sparse.csc_matrix((d.ravel(order="F"), indices, indptr), shape=(s, s)) for d in data]


def advection_interp_matrix(v: VectorField, dt: float) -> sparse.csc_matrix:
    """Push-and-deposit matrix S of one conservative advection step.

    Column j holds the deposit weights of the particle launched from cell j;
    every column sums to one and entries lie in [0, 1].
    """
    base, frac, _ = _deposit_stencil(v, dt)
    weights = _fold_corners(zip(1.0 - frac, frac), np.multiply, np.ones(v.grid.cell_count))
    return _deposit_family(v.grid, base, [weights])[0]


def advection_weight_gradients(v: VectorField, dt: float) -> list[sparse.csc_matrix]:
    """Derivative of the deposit weights with respect to each velocity component.

    Returns one matrix G_k per axis with G_k[i, j] = d S[i, j] / d v_k[j],
    holding the deposit-cell assignment of each particle fixed (weights are
    piecewise linear in the displacement; at a wall the weight saturates and
    the derivative is zero). The directional derivative of S(v) @ rho in
    direction dv is then sum_k G_k @ (rho * dv_k).
    """
    grid = v.grid
    base, frac, live = _deposit_stencil(v, dt)
    factors = list(zip(1.0 - frac, frac))
    data = []
    for k in range(grid.ndim):
        # axis k contributes the sign of d frac_k, every other axis its weight
        signed = factors[:k] + [(-1.0, 1.0)] + factors[k + 1 :]
        scale = (dt / grid.spacing[k]) * live[k]
        data.append(_fold_corners(signed, np.multiply, np.ones(grid.cell_count)) * scale)
    return _deposit_family(grid, base, data)
