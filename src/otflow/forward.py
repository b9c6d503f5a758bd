"""Discrete forward model: operator-split advection-diffusion time stepping.

Each interval advances the density by a conservative particle deposit
(advection) followed by one backward-Euler diffusion solve:

    rho_star = S(v_n) @ rho_n
    (I - dt * A) rho_{n+1} = rho_star

Both half-steps conserve total mass; the diffusion solve additionally clamps
round-off negatives to zero so densities stay nonnegative. A is a Kronecker
sum of 1D zero-flux stencils with a scalar diffusivity, so the orthonormal
type-II DCT basis of each axis diagonalizes it and the solve is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .grid import CellGrid, ScalarField, VectorField
from .operators import advection_interp_matrix, advection_weight_gradients

__all__ = [
    "TimeGrid",
    "DensitySeries",
    "VelocitySeries",
    "ImplicitDiffusion",
    "advect_step",
    "diffuse_step",
    "forward",
    "advect_velocity_jacobian_apply",
]

# Negative values below this magnitude after a diffusion solve are treated as
# round-off and clamped to zero.
NEGATIVE_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization: `steps` intervals of length `dt`."""

    steps: int
    dt: float

    def __post_init__(self):
        if int(self.steps) < 1:
            raise ValueError(f"need at least one time step, got {self.steps}")
        if not self.dt > 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    @classmethod
    def unit_horizon(cls, steps: int) -> "TimeGrid":
        """Time grid normalized so the horizon is exactly one."""
        return cls(steps, 1.0 / steps)


@dataclass(eq=False)
class DensitySeries:
    """Density trajectory: frames 0..steps as rows of `values` ((steps+1, s))."""

    grid: CellGrid
    time_grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expect = (self.time_grid.steps + 1, self.grid.cell_count)
        if vals.shape != expect:
            raise ValueError(f"expected values of shape {expect}, got {vals.shape}")
        self.values = vals

    def frame(self, n: int) -> ScalarField:
        return ScalarField(self.grid, self.values[n])

    def masses(self) -> np.ndarray:
        return self.values.sum(axis=1)


@dataclass(eq=False)
class VelocitySeries:
    """Velocity trajectory: one vector field per interval, `values` (steps, d, s)."""

    grid: CellGrid
    time_grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expect = (self.time_grid.steps, self.grid.ndim, self.grid.cell_count)
        if vals.shape != expect:
            raise ValueError(f"expected values of shape {expect}, got {vals.shape}")
        self.values = vals

    @classmethod
    def zeros(cls, grid: CellGrid, time_grid: TimeGrid) -> "VelocitySeries":
        return cls(grid, time_grid, np.zeros((time_grid.steps, grid.ndim, grid.cell_count)))

    def frame(self, n: int) -> VectorField:
        return VectorField(self.grid, self.values[n])

    def with_values(self, values: np.ndarray) -> "VelocitySeries":
        return VelocitySeries(self.grid, self.time_grid, values)


def _dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: C[j, i] = sqrt(2/n) cos(pi j (2i+1) / 2n), row 0 / sqrt(2)."""
    j = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    C = np.sqrt(2.0 / n) * np.cos(np.pi * j * (2 * i + 1) / (2 * n))
    C[0] /= np.sqrt(2.0)
    return C


class ImplicitDiffusion:
    """Reusable backward-Euler diffusion solve (I - dt*A) x = b, A the zero-flux
    div(sigma^2 grad) of `operators.assemble_diffusion_operator`.

    The per-axis DCT-II bases diagonalize A exactly: mode j of an axis with n
    cells and spacing h has eigenvalue -sigma^2 * 4 sin^2(pi j / 2n) / h^2.
    With sigma = 0 the solve degenerates to the identity and is skipped.
    """

    def __init__(self, grid: CellGrid, sigma: float, dt: float):
        if sigma < 0:
            raise ValueError(f"diffusivity must be nonnegative, got {sigma}")
        if dt <= 0:
            raise ValueError(f"time step must be positive, got {dt}")
        self.dims = grid.dims
        self.is_identity = sigma == 0.0
        if self.is_identity:
            return
        self.bases = [_dct_basis(n) for n in grid.dims]
        modes = np.ix_(*(np.arange(n) for n in grid.dims))
        eig = 1.0
        for j, n, h in zip(modes, grid.dims, grid.spacing):
            eig = eig + dt * sigma**2 * 4.0 * np.sin(np.pi * j / (2 * n)) ** 2 / h**2
        self.eigenvalues = eig

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        if self.is_identity:
            return np.array(rhs, dtype=float, copy=True)
        x = np.asarray(rhs, dtype=float).reshape(self.dims, order="F")
        for k, C in enumerate(self.bases):
            x = np.moveaxis(np.tensordot(C, x, axes=(1, k)), 0, k)
        x = x / self.eigenvalues
        for k, C in enumerate(self.bases):
            x = np.moveaxis(np.tensordot(C.T, x, axes=(1, k)), 0, k)
        return x.ravel(order="F")


def _require_density(values: np.ndarray, what: str):
    if np.any(values < 0):
        raise ValueError(f"{what} must be nonnegative")


def advect_step(rho: ScalarField, v: VectorField, dt: float) -> ScalarField:
    """One conservative particle-deposit advection step."""
    if rho.grid != v.grid:
        raise GridMismatchError("density and velocity grids differ")
    _require_density(rho.values, "density")
    S = advection_interp_matrix(rho.grid, v, dt)
    return ScalarField(rho.grid, S @ rho.values)


def diffuse_step(rho_star: ScalarField, sigma: float, dt: float) -> ScalarField:
    """One backward-Euler diffusion step, clamping round-off negatives to zero."""
    _require_density(rho_star.values, "density")
    solver = ImplicitDiffusion(rho_star.grid, sigma, dt)
    out = solver.apply(rho_star.values)
    if not solver.is_identity:
        if out.min() < -NEGATIVE_CLAMP_TOL:
            raise ValueError(
                f"diffusion produced a negative density ({out.min():.3e}); "
                "this indicates a broken operator, not round-off"
            )
        np.maximum(out, 0.0, out=out)
    return ScalarField(rho_star.grid, out)


def forward(v: VelocitySeries, rho0: ScalarField, sigma: float) -> DensitySeries:
    """Advance rho0 through all intervals of the velocity series."""
    if rho0.grid != v.grid:
        raise GridMismatchError("initial density and velocity grids differ")
    _require_density(rho0.values, "initial density")
    diffusion = ImplicitDiffusion(v.grid, sigma, v.time_grid.dt)
    frames = forward_frames(v.grid, v.time_grid, v.values, rho0.values, diffusion)
    return DensitySeries(v.grid, v.time_grid, frames)


def forward_frames(
    grid: CellGrid,
    time_grid: TimeGrid,
    v_values: np.ndarray,
    rho0_values: np.ndarray,
    diffusion: ImplicitDiffusion,
) -> np.ndarray:
    """Raw-array forward sweep shared by the public model and the optimizer."""
    frames = np.empty((time_grid.steps + 1, grid.cell_count))
    frames[0] = rho0_values
    for n in range(time_grid.steps):
        S = advection_interp_matrix(grid, VectorField(grid, v_values[n]), time_grid.dt)
        nxt = diffusion.apply(S @ frames[n])
        if not diffusion.is_identity:
            np.maximum(nxt, 0.0, out=nxt)
        frames[n + 1] = nxt
    return frames


def advect_velocity_jacobian_apply(
    rho: ScalarField, v: VectorField, dv: VectorField, dt: float
) -> ScalarField:
    """Directional derivative of S(v) @ rho with respect to v, direction dv.

    The deposit-cell assignment of each particle is held fixed, matching the
    piecewise-linear dependence of the deposit weights on the displacement.
    """
    if rho.grid != v.grid or dv.grid != v.grid:
        raise GridMismatchError("fields live on different grids")
    grads = advection_weight_gradients(rho.grid, v, dt)
    out = np.zeros(rho.grid.cell_count)
    for k, G in enumerate(grads):
        out += G @ (rho.values * dv.components[k])
    return ScalarField(rho.grid, out)
