"""Sparse mimetic operators on cell-centered grids.

Two operator families live here:

* the diffusion stencil div(sigma^2 grad) with zero-flux closure, used by the
  implicit diffusion half-step, and
* the conservative particle deposit matrix of the advection half-step: the
  particle sitting at each cell center is pushed by its own cell velocity and
  its unit mass is deposited onto the 2^d surrounding cell centers with
  multilinear weights. Columns therefore sum to exactly one and no mass can
  leave the grid (displaced positions are clamped to the domain walls).

The diffusion stencil is a canonical ``scipy.sparse.csr_matrix``. S and its
weight gradients G_k share one ``scipy.sparse.csc_matrix`` pattern: column j
lists the 2^d corner cells of particle j in ascending row order (an axis with
one cell lists its cell twice, the second time with weight zero), and weights
that vanish at the walls or on a cell center stay as explicit zeros. The
transposes S^T and G_k^T are CSR views of the same arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .grid import CellGrid, VectorField, _stencil

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


def _fold_corners(pairs, combine, start: np.ndarray) -> np.ndarray:
    """Fold one (bit 0, bit 1) pair of values per axis over the 2^d stencil corners.

    Returns shape (2^d, npoints). Corner c takes bit (c >> k) & 1 on axis k,
    so axis 0 varies fastest and the corner cells of each particle ascend.
    """
    out = start[None, :]
    for lo, hi in pairs:
        out = np.vstack([combine(out, lo), combine(out, hi)])
    return out


def _deposit_family(grid: CellGrid, base: np.ndarray, data: list[np.ndarray]) -> list[sparse.csc_matrix]:
    """CSC matrices on the one deposit pattern, one per (2^d, cell_count) `data`,
    sharing one `indices` and one `indptr` array (see the module docstring)."""
    s = grid.cell_count
    strides = np.cumprod((1,) + grid.dims[:-1])
    steps = [(0, stride * (n > 1)) for n, stride in zip(grid.dims, strides)]
    rows = _fold_corners(steps, np.add, np.ravel_multi_index(base, grid.dims, order="F"))
    # scipy's own choice; any other dtype makes each matrix cast a private copy
    index_dtype = np.int32 if rows.size < 2**31 else np.int64
    indices = rows.astype(index_dtype).ravel(order="F")
    indptr = np.arange(0, rows.size + 1, len(rows), dtype=index_dtype)
    return [sparse.csc_matrix((d.ravel(order="F"), indices, indptr), shape=(s, s)) for d in data]


def advection_interp_matrix(grid: CellGrid, v: VectorField, dt: float) -> sparse.csc_matrix:
    """Push-and-deposit matrix S of one conservative advection step.

    Column j holds the deposit weights of the particle launched from cell j;
    every column sums to one and entries lie in [0, 1].
    """
    base, frac, _ = _deposit_stencil(grid, v, dt)
    weights = _fold_corners(zip(1.0 - frac, frac), np.multiply, np.ones(grid.cell_count))
    return _deposit_family(grid, base, [weights])[0]


def advection_weight_gradients(grid: CellGrid, v: VectorField, dt: float) -> list[sparse.csc_matrix]:
    """Derivative of the deposit weights with respect to each velocity component.

    Returns one matrix G_k per axis with G_k[i, j] = d S[i, j] / d v_k[j],
    holding the deposit-cell assignment of each particle fixed (weights are
    piecewise linear in the displacement; at a wall the weight saturates and
    the derivative is zero). The directional derivative of S(v) @ rho in
    direction dv is then sum_k G_k @ (rho * dv_k).
    """
    base, frac, live = _deposit_stencil(grid, v, dt)
    factors = list(zip(1.0 - frac, frac))
    data = []
    for k in range(grid.ndim):
        # axis k contributes the sign of d frac_k, every other axis its weight
        signed = factors[:k] + [(-1.0, 1.0)] + factors[k + 1 :]
        scale = (dt / grid.spacing[k]) * live[k]
        data.append(_fold_corners(signed, np.multiply, np.ones(grid.cell_count)) * scale)
    return _deposit_family(grid, base, data)
