"""Sparse mimetic operators on cell-centered grids.

Two operator families live here:

* the diffusion stencil div(sigma^2 grad) with zero-flux closure, used by the
  implicit diffusion half-step, and
* the conservative particle deposit matrix of the advection half-step: the
  particle sitting at each cell center is pushed by its own cell velocity and
  its unit mass is deposited onto the 2^d surrounding cell centers with
  multilinear weights. Columns therefore sum to exactly one and no mass can
  leave the grid (displaced positions are clamped to the domain walls).

Operators are returned as ``scipy.sparse.csr_matrix`` in canonical CSR form
(duplicates summed, indices sorted), which fixes a deterministic entry order.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import scipy.sparse as sparse

from .grid import CellGrid, VectorField, _corner_flat, _corner_weight, _stencil

__all__ = [
    "assemble_diffusion_operator",
    "advection_interp_matrix",
    "advection_weight_gradients",
]


def assemble_diffusion_operator(grid: CellGrid, sigma: float) -> sparse.csr_matrix:
    """Assemble div(sigma^2 grad) on the cell-centered grid with zero-flux walls.

    The result is symmetric, negative semidefinite, and has exactly zero row
    sums, so the implicit step (I - dt*A) conserves total mass.
    """
    if sigma < 0:
        raise ValueError(f"diffusivity must be nonnegative, got {sigma}")
    s = grid.cell_count
    if sigma == 0.0:
        return sparse.csr_matrix((s, s))
    acc = None
    for k in range(grid.ndim):
        n = grid.dims[k]
        if n == 1:
            continue  # no neighbors along this axis, no flux
        h = grid.spacing[k]
        main = np.full(n, -2.0)
        main[0] = -1.0
        main[-1] = -1.0
        off = np.ones(n - 1)
        lap = sparse.diags([off, main, off], [-1, 0, 1]) * (sigma**2 / h**2)
        before = int(np.prod(grid.dims[:k], dtype=np.int64))
        after = int(np.prod(grid.dims[k + 1 :], dtype=np.int64))
        term = sparse.kron(sparse.identity(after), sparse.kron(lap, sparse.identity(before)))
        acc = term if acc is None else acc + term
    if acc is None:
        return sparse.csr_matrix((s, s))
    out = acc.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _deposit_stencil(grid: CellGrid, v: VectorField, dt: float):
    """Stencil of the particles pushed from the cell centers, clamped to the walls.

    Working with cell_index + dt*v/h (instead of dividing physical positions
    by the spacing) keeps a zero displacement exactly on the cell center, so
    S(0) is exactly the identity.
    """
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if v.grid != grid:
        raise ValueError("velocity field lives on a different grid")
    index = np.array(np.unravel_index(np.arange(grid.cell_count), grid.dims, order="F"))
    coords = index + (dt / np.asarray(grid.spacing))[:, None] * v.components
    walls = np.asarray(grid.dims)[:, None] - 0.5
    return _stencil(grid, np.clip(coords, -0.5, walls))


def _assemble(rows, cols, vals, s: int) -> sparse.csr_matrix:
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(s, s),
    ).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def advection_interp_matrix(grid: CellGrid, v: VectorField, dt: float) -> sparse.csr_matrix:
    """Push-and-deposit matrix S of one conservative advection step.

    Column j holds the deposit weights of the particle launched from cell j;
    every column sums to one and entries lie in [0, 1].
    """
    base, frac, _ = _deposit_stencil(grid, v, dt)
    s = grid.cell_count
    cols = np.arange(s, dtype=np.int64)
    all_rows, all_cols, all_vals = [], [], []
    for offsets in product((0, 1), repeat=grid.ndim):
        all_rows.append(_corner_flat(grid, base, offsets))
        all_cols.append(cols)
        all_vals.append(_corner_weight(frac, offsets))
    return _assemble(all_rows, all_cols, all_vals, s)


def advection_weight_gradients(grid: CellGrid, v: VectorField, dt: float) -> list[sparse.csr_matrix]:
    """Derivative of the deposit weights with respect to each velocity component.

    Returns one matrix G_k per axis with G_k[i, j] = d S[i, j] / d v_k[j],
    holding the deposit-cell assignment of each particle fixed (weights are
    piecewise linear in the displacement; at a wall the weight saturates and
    the derivative is zero). The directional derivative of S(v) @ rho in
    direction dv is then sum_k G_k @ (rho * dv_k).
    """
    base, frac, live = _deposit_stencil(grid, v, dt)
    s = grid.cell_count
    cols = np.arange(s, dtype=np.int64)
    grads = []
    for k in range(grid.ndim):
        scale = (dt / grid.spacing[k]) * live[k]
        all_rows, all_cols, all_vals = [], [], []
        for offsets in product((0, 1), repeat=grid.ndim):
            partial = np.ones(s)
            for axis, bit in enumerate(offsets):
                if axis == k:
                    continue
                partial *= frac[axis] if bit else (1.0 - frac[axis])
            sign = 1.0 if offsets[k] else -1.0
            all_rows.append(_corner_flat(grid, base, offsets))
            all_cols.append(cols)
            all_vals.append(sign * scale * partial)
        grads.append(_assemble(all_rows, all_cols, all_vals, s))
    return grads
