"""The conservative particle deposit of the advection half-step.

The particle sitting at each cell center is pushed by its own cell velocity
and its unit mass is deposited onto the 2^d surrounding cell centers with
multilinear weights. Columns of the deposit matrix S therefore sum to exactly
one and no mass can leave the grid (displaced positions are clamped to the
domain walls).

S and its weight gradients G_k are ``scipy.sparse.csc_matrix`` on one
pattern: column j lists the 2^d corner cells of particle j in ascending row
order (an axis with one cell lists its cell twice, the second time with weight
zero), and weights that vanish at the walls or on a cell center stay as
explicit zeros. S is built per interval; each G_k spans a whole sweep, block n
of its diagonal holding interval n on that pattern offset by n * cell_count.
The transposes S^T and G_k^T are CSR views of the same arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import VectorField, _corner_cells, _fold_corners, _stencil

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
    grid = v.grid
    index = np.array(np.unravel_index(np.arange(grid.cell_count), grid.dims, order="F"))
    coords = index + (dt / np.asarray(grid.spacing))[:, None] * v.components
    walls = np.asarray(grid.dims)[:, None] - 0.5
    return _stencil(grid, np.clip(coords, -0.5, walls))


def _deposit_matrices(data: list[np.ndarray], indices: np.ndarray) -> list[sparse.csc_matrix]:
    """Block-diagonal CSC matrices on one deposit pattern, one per array of
    `data`, each of the shape (m, s, 2^d) of the `indices` they share with one
    `indptr`: block n holds the corner rows of the s particles of interval n,
    offset by n * s (see the module docstring)."""
    # imported here: it is half of a cold start, and only the solves need it
    import scipy.sparse as sparse

    size = indices.shape[0] * indices.shape[1]
    indptr = np.arange(0, indices.size + 1, indices.shape[2], dtype=indices.dtype)
    flat = indices.ravel()
    return [sparse.csc_matrix((d.ravel(), flat, indptr), shape=(size, size)) for d in data]


def _index_dtype(nnz: int) -> type:
    # scipy's own choice; any other dtype makes each matrix cast a private copy
    return np.int32 if nnz < 2**31 else np.int64


def advection_interp_matrix(v: VectorField, dt: float) -> sparse.csc_matrix:
    """Push-and-deposit matrix S of one conservative advection step.

    Column j holds the deposit weights of the particle launched from cell j;
    every column sums to one and entries lie in [0, 1].
    """
    base, frac, _ = _deposit_stencil(v, dt)
    weights = _fold_corners(zip(1.0 - frac, frac), np.multiply, np.ones(v.grid.cell_count))
    rows = _corner_cells(v.grid, base)
    return _deposit_matrices([weights.T[None]], rows.T.astype(_index_dtype(rows.size))[None])[0]


def advection_weight_gradients(fields: Sequence[VectorField], dt: float) -> list[sparse.csc_matrix]:
    """Derivative of the deposit weights of a sweep with respect to each velocity component.

    `fields` holds the velocity v_n of each of the m intervals of a sweep.
    Returns one block-diagonal matrix G_k per axis, of order m * s, whose
    block n is G_k(v_n)[i, j] = d S(v_n)[i, j] / d v_n,k[j], holding the
    deposit-cell assignment of each particle fixed (weights are piecewise
    linear in the displacement; at a wall the weight saturates and the
    derivative is zero). The directional derivative of S(v_n) @ rho_n in
    direction dv_n is then block n of sum_k G_k @ (rho * dv_k), with rho and
    dv_k stacked over the intervals. The weights are written straight into
    the blocks, so no per-interval copy is ever made.
    """
    grid = fields[0].grid
    s, corners = grid.cell_count, 2**grid.ndim
    indices = np.empty((len(fields), s, corners), dtype=_index_dtype(len(fields) * s * corners))
    # one array per axis: scipy copies a data array that is a view of a larger one
    data = [np.empty((len(fields), s, corners)) for _ in range(grid.ndim)]
    for n, v in enumerate(fields):
        base, frac, live = _deposit_stencil(v, dt)
        np.add(_corner_cells(grid, base).T, n * s, out=indices[n], casting="unsafe")
        factors = list(zip(1.0 - frac, frac))
        for k in range(grid.ndim):
            # axis k contributes the sign of d frac_k, every other axis its weight
            signed = factors[:k] + [(-1.0, 1.0)] + factors[k + 1 :]
            scale = (dt / grid.spacing[k]) * live[k]
            np.multiply(_fold_corners(signed, np.multiply, np.ones(s)), scale, out=data[k][n].T)
    return _deposit_matrices(data, indices)
