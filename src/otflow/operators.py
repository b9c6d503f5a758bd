"""The conservative particle deposit of the advection half-step.

The particle sitting at each cell center is pushed by its own cell velocity
and its unit mass is deposited onto the 2^d surrounding cell centers with
multilinear weights. Columns of the deposit matrix S therefore sum to exactly
one and no mass can leave the grid (displaced positions are clamped to the
domain walls).

Both builders take the stencil of an interval (`_deposit_stencil`), which a
sweep computes once and shares between them. S is a ``scipy.sparse.csc_matrix``
whose column j lists the 2^d corner cells of particle j in ascending row order
(an axis with one cell lists its cell twice, the second time with weight
zero); weights that vanish at the walls or on a cell center stay as explicit
zeros.

The velocity derivative is kept in face form. In column j of the weight
gradient G_k = dS/dv_k, the two corners that differ only along axis k carry
-P and +P, with P = (dt/h_k) live_k prod_{a != k} w_a the weight of the other
axes. So G_k = Delta_k T_k: T_k deposits P onto the lower of the two corners,
2^(d-1) entries per column, and Delta_k is the difference (Delta_k f)[i] =
f[i - e_k] - f[i] along axis k, whose transpose is (Delta_k^T y)[i] =
y[i + e_k] - y[i]. Each T_k spans a whole sweep: block n of its diagonal
holds interval n, its rows offset by n * cell_count. The transposes S^T and
T_k^T are CSR views of the same arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import CellGrid, _corner_steps, _stencil

if TYPE_CHECKING:
    import scipy.sparse as sparse

__all__ = [
    "advection_interp_matrix",
    "advection_weight_gradients",
]


def _deposit_stencil(grid: CellGrid, v_n: np.ndarray, dt: float):
    """Stencil (lower, frac, live) of the particles pushed from the cell
    centers by one interval's velocity v_n, shape (d, s): lower is the flat
    index of each particle's lowest corner cell, frac as `otflow.grid._stencil`
    gives it, and live[k] is True where frac[k] responds linearly to motion,
    False where the particle is clamped against a wall or axis k has one cell.

    Working with cell_index + dt*v/h (instead of dividing physical positions
    by the spacing) keeps a zero displacement exactly on the cell center, so
    S(0) is exactly the identity.
    """
    coords = grid.cell_index + (dt / np.asarray(grid.spacing))[:, None] * v_n
    base, frac = _stencil(grid, coords)
    top = np.asarray(grid.dims)[:, None] - 1
    live = (coords >= 0) & (coords <= top) & (top > 0)
    return np.ravel_multi_index(base, grid.dims, order="F"), frac, live


def _deposit_matrix(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sparse.csc_matrix:
    """Block-diagonal CSC matrix of `data` and `indices`, both of shape
    (m, s, c): block n holds the c rows of each of the s particles of
    interval n, offset by n * s (see the module docstring)."""
    # imported here: it is half of a cold start, and only the solves need it
    import scipy.sparse as sparse

    size = indices.shape[0] * indices.shape[1]
    return sparse.csc_matrix((data.ravel(), indices.ravel(), indptr), shape=(size, size))


def _index_dtype(nnz: int) -> type:
    # scipy's own choice; any other dtype makes each matrix cast a private copy
    return np.int32 if nnz < 2**31 else np.int64


def _indptr(m: int, s: int, c: int, dtype) -> np.ndarray:
    return np.arange(0, m * s * c + 1, c, dtype=dtype)


def _write_corners(indices: np.ndarray, data: np.ndarray, lower: np.ndarray, offset: int,
                   steps: Sequence, fracs: Sequence, scale: np.ndarray | None = None) -> None:
    """Write each particle's stencil corners into its row of `indices` and
    `data`, (s, c) views of a matrix's final arrays: corner c takes bit
    (c >> a) & 1 of axis a's pair in `steps` and in (1 - frac, frac), in
    `otflow.grid._fold_corners`' order. The weight is formed in place as
    1 * f_0 * f_1 * ... (times `scale`), so its bits are the fold's, with no
    (c, s) temporary and one axis's 1 - frac alive at a time."""
    corners = range(indices.shape[1])
    for c in corners:
        step = offset + sum(pair[(c >> a) & 1] for a, pair in enumerate(steps))
        np.add(lower, step, out=indices[:, c], casting="unsafe")
    data.fill(1.0)
    for a, frac in enumerate(fracs):
        pair = (1.0 - frac, frac)
        for c in corners:
            data[:, c] *= pair[(c >> a) & 1]
    if scale is not None:
        # column by column: an in-place product broadcast over the corners copies data
        for c in corners:
            data[:, c] *= scale


def advection_interp_matrix(grid: CellGrid, stencil) -> sparse.csc_matrix:
    """Push-and-deposit matrix S of one conservative advection step, from the
    interval's `_deposit_stencil`.

    Column j holds the deposit weights of the particle launched from cell j;
    every column sums to one and entries lie in [0, 1]. Rows and weights are
    written straight into the matrix's arrays.
    """
    lower, frac, _ = stencil
    s, corners = grid.cell_count, 2**grid.ndim
    indices = np.empty((1, s, corners), _index_dtype(s * corners))
    data = np.empty((1, s, corners))
    _write_corners(indices[0], data[0], lower, 0, _corner_steps(grid), frac)
    return _deposit_matrix(data, indices, _indptr(1, s, corners, indices.dtype))


def advection_weight_gradients(
    grid: CellGrid, stencils: Sequence, dt: float
) -> list[sparse.csc_matrix]:
    """The face parts T_k of the weight gradients of a sweep, one per axis.

    `stencils` holds the `_deposit_stencil` of each of the m intervals.
    T_k is block-diagonal of order m * s; block n deposits, for each particle
    j, P = (dt/h_k) live_k prod_{a != k} w_a onto the 2^(d-1) corners at the
    lower end along axis k, so that Delta_k T_k (see the module docstring)
    is G_k(v_n)[i, j] = d S(v_n)[i, j] / d v_n,k[j], holding the deposit-cell
    assignment of each particle fixed (weights are piecewise linear in the
    displacement; at a wall the weight saturates and the derivative is
    zero). The directional derivative of S(v_n) @ rho_n in direction dv_n is
    then block n of sum_k Delta_k T_k @ (rho * dv_k), with rho and dv_k
    stacked over the intervals. Rows and weights are written straight into
    the block arrays, so no per-interval copy is ever made.
    """
    m, s, corners = len(stencils), grid.cell_count, 2 ** (grid.ndim - 1)
    dtype = _index_dtype(m * s * corners)
    steps = _corner_steps(grid)
    # one array per axis: scipy copies a data array that is a view of a larger one
    indices = [np.empty((m, s, corners), dtype) for _ in range(grid.ndim)]
    data = [np.empty((m, s, corners)) for _ in range(grid.ndim)]
    for n, (lower, frac, live) in enumerate(stencils):
        for k in range(grid.ndim):
            # every axis but k spans its two corners; axis k keeps the lower
            scale = np.where(live[k], dt / grid.spacing[k], 0.0)  # (dt/h_k) live_k
            _write_corners(indices[k][n], data[k][n], lower, n * s, steps[:k] + steps[k + 1 :],
                           [*frac[:k], *frac[k + 1 :]], scale)
    indptr = _indptr(m, s, corners, dtype)
    return [_deposit_matrix(d, i, indptr) for d, i in zip(data, indices)]
