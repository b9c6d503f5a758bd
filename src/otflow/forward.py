"""Discrete forward model: operator-split advection-diffusion time stepping.

Each interval advances the density by a conservative particle deposit
(advection) followed by one backward-Euler diffusion solve:

    rho_star = S(v_n) @ rho_n
    (I - dt * A) rho_{n+1} = rho_star

Both half-steps conserve total mass, and the step clamps round-off negatives
to zero so densities stay nonnegative. A is a Kronecker sum of 1D zero-flux
stencils with a scalar diffusivity, so the orthonormal type-II DCT basis of
each axis diagonalizes it and the solve is exact.

`Sweep` defines the split step of every interval of a sweep once, with the
velocity derivative of all of them. On it sit the one forward sweep
(`forward_frames`), its linearisation (`linearized_sweep`) and the one adjoint
sweep (`adjoint_sweep`) that the solver's objective, gradient and Gauss-Newton
product share.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .grid import CellGrid, ScalarField
from .operators import _deposit_stencil, advection_interp_matrix, advection_weight_gradients

__all__ = [
    "DensitySeries",
    "VelocitySeries",
    "ImplicitDiffusion",
]

@dataclass(eq=False)
class DensitySeries:
    """Density trajectory on T = 1: frames 0..m of m >= 1 intervals as the
    rows of `values` ((m+1, s))."""

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[1:] != (self.grid.cell_count,) or len(vals) < 2:
            raise ValueError(f"expected values of shape (m+1, {self.grid.cell_count}) "
                             f"with m >= 1, got {vals.shape}")
        self.values = vals

    def frame(self, n: int) -> ScalarField:
        return ScalarField(self.grid, self.values[n])


@dataclass(eq=False)
class VelocitySeries:
    """Velocity trajectory on T = 1: one vector field per interval of m >= 1,
    `values` (m, d, s)."""

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expect = (self.grid.ndim, self.grid.cell_count)
        if vals.shape[1:] != expect or len(vals) < 1:
            raise ValueError(f"expected values of shape (m, {expect[0]}, {expect[1]}) "
                             f"with m >= 1, got {vals.shape}")
        self.values = vals


def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: C[j, i] = sqrt(2/n) cos(pi j (2i+1) / 2n), row 0 / sqrt(2)."""
    j = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    C = np.sqrt(2.0 / n) * np.cos(np.pi * j * (2 * i + 1) / (2 * n))
    C[0] /= np.sqrt(2.0)
    return C


class ImplicitDiffusion:
    """Reusable backward-Euler diffusion solve (I - dt*A) x = b, A the zero-flux
    div(sigma^2 grad) on the cell-centered grid.

    The per-axis DCT-II bases diagonalize A exactly: mode j of an axis with n
    cells and spacing h has eigenvalue -sigma^2 * 4 sin^2(pi j / 2n) / h^2.
    With sigma = 0 the solve degenerates to the identity and is skipped: the
    input itself is returned, so no caller may write into the result.

    Each per-axis transform is one BLAS product: the basis (or its transposed
    view) times x with axis k moved to the front, reshaped to an (n_k, s / n_k)
    matrix. These are the operands np.tensordot(C, x, axes=(1, k)) passes, so
    the solve keeps its bits, without tensordot's per-call bookkeeping. The
    views that would change nothing (the transposes of axis 0, the reshapes of
    a 2-D grid) are left out: they leave the operands as they are, and at 32^2
    their calls took a fifth of an apply.
    """

    def __init__(self, grid: CellGrid, sigma: float, dt: float):
        self.grid = grid
        self.dt = dt
        self.is_identity = sigma == 0.0
        if self.is_identity:
            return
        self.bases = [_dct_basis(n) for n in grid.dims]
        self.bases_T = [C.T for C in self.bases]
        # per axis k: axis k to the front, the (n_k, rest) matrix, the product
        # as a stacked array, and the transpose that puts axis k back; None
        # where the view would be the array itself
        self.axis_plans = []
        flat = grid.ndim != 2
        for k, n in enumerate(grid.dims):
            front = (k, *(a for a in range(grid.ndim) if a != k))
            back = tuple(map(front.index, range(grid.ndim)))
            stacked = tuple(grid.dims[a] for a in front)
            shapes = ((n, -1), stacked) if flat else (None, None)
            self.axis_plans.append((front if k else None, *shapes, back if k else None))
        modes = np.ix_(*(np.arange(n) for n in grid.dims))
        eig = 1.0
        for j, n, h in zip(modes, grid.dims, grid.spacing):
            eig = eig + dt * sigma**2 * 4.0 * np.sin(np.pi * j / (2 * n)) ** 2 / h**2
        self.eigenvalues = eig

    def astype(self, dtype) -> "ImplicitDiffusion":
        """This solve with its DCT bases and eigenvalues cast to dtype, as a
        copy: the sweeps still to come share the original."""
        cast = copy.copy(self)
        if not self.is_identity:
            cast.bases = [C.astype(dtype) for C in self.bases]
            cast.bases_T = [C.T for C in cast.bases]
            cast.eigenvalues = self.eigenvalues.astype(dtype)
        return cast

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """The solve, in the dtype of rhs and of the bases."""
        if self.is_identity:
            return rhs
        # Both loops are written out, not a helper, so that each intermediate is
        # freed once the next exists: a helper's argument kept the quotient
        # alive, and at 48^3 the fresh pages that cost made apply 12 % slower.
        x = rhs.reshape(self.grid.dims, order="F")
        for C, (front, matrix, stacked, back) in zip(self.bases, self.axis_plans):
            x = x if front is None else x.transpose(front)
            x = np.dot(C, x if matrix is None else x.reshape(matrix))
            x = x if stacked is None else x.reshape(stacked)
            x = x if back is None else x.transpose(back)
        # out of place: the quotient is C-ordered, which decides the operand
        # layouts of the inverse products, and so keeps them tensordot's
        x = x / self.eigenvalues
        for C, (front, matrix, stacked, back) in zip(self.bases_T, self.axis_plans):
            x = x if front is None else x.transpose(front)
            x = np.dot(C, x if matrix is None else x.reshape(matrix))
            x = x if stacked is None else x.reshape(stacked)
            x = x if back is None else x.transpose(back)
        return x.ravel(order="F")


class Sweep:
    """One forward sweep of the split model: for each of its m intervals the
    deposit S(v_n) and the one shared solve D, and the velocity derivative of
    all intervals at once.

    The deposits S, one per interval, are built from the velocities, shape
    (m, d, s), on first use and kept. Each interval's deposit stencil is
    computed once, and both its S and its block of the T_k below are built
    from it; the stencils are dropped once both are built. `push(n, x, inj)` is the linear step
    x -> D(S_n x + inj), where inj is a velocity perturbation (`jvp`) entering
    before the solve. D is symmetric, so y -> S_T[n] @ (D y) is the transpose
    of push in x. S is CSC, so S^T is a CSR view of the same arrays, not a
    copy; the views are cached because each `.T` builds a new scipy matrix
    object, and at 32^2 that costs twice the product it feeds.

    The velocity derivative is in face form (see `otflow.operators`): per
    axis k, T[k] is one block-diagonal CSC over the intervals, with half the
    entries of the weight gradient G_k = Delta_k T_k, and Delta_k and its
    transpose are slice differences along axis k of the cells of each
    interval. So `jvp` and its transpose `vjp` make d sparse products per
    sweep, not d per interval; each block row keeps its order of summation,
    so the results are those of the interval alone. T is built on first use, so a
    sweep that only advances (`objective`, a rejected line-search trial)
    never builds it, and T_T holds the cached CSR views of T_k^T.

    The products allocate in the dtype of their inputs, so after `cast` the
    same code runs on float32 frames and directions.
    """

    def __init__(self, velocities: np.ndarray, diffusion: ImplicitDiffusion):
        self.velocities = velocities
        self.diffusion = diffusion
        # an (m, s) array viewed as the cells of each interval, (m, n_{d-1},
        # .., n_0): axis 0 of the grid varies fastest, so grid axis k is axis
        # d - k of the view
        self._cells_shape = (len(velocities), *diffusion.grid.dims[::-1])

    @cached_property
    def _stencils(self):
        grid, dt = self.diffusion.grid, self.diffusion.dt
        return [_deposit_stencil(grid, v_n, dt) for v_n in self.velocities]

    @cached_property
    def S(self):
        return [advection_interp_matrix(self.diffusion.grid, st) for st in self._stencils]

    @cached_property
    def S_T(self):
        return [S.T for S in self.S]

    @cached_property
    def T(self):
        T = advection_weight_gradients(self.diffusion.grid, self._stencils, self.diffusion.dt)
        self.S  # built before the stencils go: nothing else reads them
        del self._stencils
        return T

    @cached_property
    def T_T(self):
        return [T.T for T in self.T]

    def cast(self, dtype) -> None:
        """Cast this sweep's linearisation, the diffusion solve and each S and
        T_k, to dtype in place. Each matrix keeps its index arrays and drops
        its old weights before the next is cast, so the two precisions of the
        family are never alive together. The cached transposes go first: they
        are views of the old weights."""
        self.__dict__.pop("S_T", None)
        self.__dict__.pop("T_T", None)
        self.diffusion = self.diffusion.astype(dtype)
        for M in (*self.S, *self.T):
            M.data = M.data.astype(dtype)

    def push(self, n: int, x: np.ndarray, inj: np.ndarray | None = None) -> np.ndarray:
        rho_star = self.S[n] @ x
        return self.diffusion.apply(rho_star if inj is None else rho_star + inj)

    def _along(self, k: int, part: slice) -> tuple:
        """Index of `part` along grid axis k of the cells view."""
        return (slice(None),) * (len(self._cells_shape) - 1 - k) + (part,)

    def jvp(self, rho: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Directional derivative of S(v_n) @ rho_n in v_n for every interval n:
        sum_k Delta_k T_k (rho * dv_k), rho of shape (m, s), dv (m, d, s)."""
        out = np.zeros_like(rho)
        cells = out.reshape(self._cells_shape)
        for k, T in enumerate(self.T):
            upper, lower = self._along(k, slice(1, None)), self._along(k, slice(None, -1))
            faces = (T @ (rho * dv[:, k]).ravel()).reshape(self._cells_shape)
            cells -= faces
            cells[upper] += faces[lower]
        return out

    def vjp(self, rho: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transpose of `jvp` in dv, rho * T_k^T Delta_k^T y per row, added
        into `out` (m, d, s) if given."""
        out = np.zeros((len(rho), len(self.T_T), rho.shape[1]), rho.dtype) if out is None else out
        cells = y.reshape(self._cells_shape)
        faces = np.empty_like(cells)
        for k, T_T in enumerate(self.T_T):
            upper, lower = self._along(k, slice(1, None)), self._along(k, slice(None, -1))
            np.subtract(cells[upper], cells[lower], out=faces[lower])
            top = self._along(k, slice(-1, None))
            np.negative(cells[top], out=faces[top])
            pulled = T_T @ faces.ravel()
            pulled *= rho.ravel()
            out[:, k] += pulled.reshape(rho.shape)
        return out


def forward_frames(
    v_values: np.ndarray, rho0_values: np.ndarray, diffusion: ImplicitDiffusion
) -> tuple[np.ndarray, Sweep]:
    """The one forward sweep: frames 0..m, shape (m+1, s), and its sweep.

    Each step is the push followed by the clamp of round-off negatives to
    zero, the model's one negative-density policy. v_values, (m, d, s), must
    be finite."""
    if not np.isfinite(v_values).all():
        raise ValueError("velocity components must be finite")
    sweep = Sweep(v_values, diffusion)
    frames = np.empty((len(v_values) + 1, diffusion.grid.cell_count))
    frames[0] = rho0_values
    for n in range(len(v_values)):
        frames[n + 1] = sweep.push(n, frames[n])
        if not diffusion.is_identity:
            np.maximum(frames[n + 1], 0.0, out=frames[n + 1])
    return frames, sweep


def linearized_sweep(sweep: Sweep, frames: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Derivative of the forward sweep's frames in direction dv (rho_0 fixed).

    The velocity perturbations of all intervals depend only on the frames, so
    they are injected from one `jvp` before the recurrence. The first interval
    deposits drho_0 = 0, so it is the solve of its injection alone; that keeps
    the push's bits, since S_0 @ 0 is +0.0 and `jvp` never yields -0.0."""
    inj = sweep.jvp(frames[:-1], dv)
    drho = np.zeros_like(frames)
    drho[1] = sweep.diffusion.apply(inj[0])
    for n in range(1, len(sweep.S)):
        drho[n + 1] = sweep.push(n, drho[n], inj[n])
    return drho


def adjoint_sweep(
    sweep: Sweep, frames: np.ndarray, sources: Sequence[dict], out: np.ndarray
) -> np.ndarray:
    """The one adjoint sweep: the transpose of `linearized_sweep`.

    The adjoint at frame n is the one pulled back from frame n+1 plus the
    source term `source[n]` of each frame -> array mapping that has one,
    added in order. The recurrence keeps each interval's solved adjoint mu_n,
    and one `vjp` of all of them then adds the velocity sensitivities to
    `out`, shape (m, d, s), which is returned.
    """
    mu = np.empty_like(frames[:-1])
    lam = None  # adjoint at frame n+1, as pulled back from frame n+2
    for n in range(len(sweep.S) - 1, -1, -1):
        for source in sources:
            if n + 1 in source:
                lam = source[n + 1] if lam is None else lam + source[n + 1]
        mu[n] = sweep.diffusion.apply(np.zeros_like(frames[0]) if lam is None else lam)
        if n > 0:
            lam = sweep.S_T[n] @ mu[n]
    return sweep.vjp(frames[:-1], mu, out=out)

