"""Discrete forward model: operator-split advection-diffusion time stepping.

Each interval advances the density by a conservative particle deposit
(advection) followed by one backward-Euler diffusion solve:

    rho_star = S(v_n) @ rho_n
    (I - dt * A) rho_{n+1} = rho_star

Both half-steps conserve total mass, and the step clamps round-off negatives
to zero so densities stay nonnegative. A is a Kronecker sum of 1D zero-flux
stencils with a scalar diffusivity, so the orthonormal type-II DCT basis of
each axis diagonalizes it and the solve is exact.

`SplitStep` defines one interval and its derivatives once. On it sit the one
forward sweep (`forward_frames`), its linearisation (`linearized_sweep`) and
the one adjoint sweep (`adjoint_sweep`) that the solver's objective, gradient
and Gauss-Newton product share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
    "simulate",
    "advect_velocity_jacobian_apply",
]

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
        self.grid = grid
        self.dt = dt
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
        x = np.asarray(rhs, dtype=float).reshape(self.grid.dims, order="F")
        for k, C in enumerate(self.bases):
            x = np.moveaxis(np.tensordot(C, x, axes=(1, k)), 0, k)
        x = x / self.eigenvalues
        for k, C in enumerate(self.bases):
            x = np.moveaxis(np.tensordot(C.T, x, axes=(1, k)), 0, k)
        return x.ravel(order="F")


def _require_density(values: np.ndarray, what: str):
    if np.any(values < 0):
        raise ValueError(f"{what} must be nonnegative")


class SplitStep:
    """One interval of the split model: the deposit S(v_n), then the solve D.

    `push` is the linear step x -> D(S x + inj), where inj is a velocity
    perturbation `jvp(rho, dv)` entering before the solve. `advance` is push
    followed by the clamp of round-off negatives to zero, the model's one
    negative-density policy. D is symmetric, so y -> pull(D y) is the
    transpose of push in x and y -> vjp(rho, D y) its transpose in dv.
    S and the G_k are built on first use, so a step that only advances (a
    rejected line-search trial) never builds the derivatives. They are CSC, so
    S^T and G_k^T are CSR views of the same arrays, not copies. The views are
    cached because each `.T` builds a new scipy matrix object, and at 32^2
    that costs twice the product it feeds.
    """

    def __init__(self, v: VectorField, diffusion: ImplicitDiffusion):
        self.v = v
        self.diffusion = diffusion

    @cached_property
    def S(self):
        return advection_interp_matrix(self.v.grid, self.v, self.diffusion.dt)

    @cached_property
    def S_T(self):
        return self.S.T

    @cached_property
    def G(self):
        return advection_weight_gradients(self.v.grid, self.v, self.diffusion.dt)

    @cached_property
    def G_T(self):
        return [G.T for G in self.G]

    def advance(self, rho: np.ndarray) -> np.ndarray:
        out = self.push(rho)
        if not self.diffusion.is_identity:
            np.maximum(out, 0.0, out=out)
        return out

    def push(self, x: np.ndarray, inj: np.ndarray | None = None) -> np.ndarray:
        rho_star = self.S @ x
        return self.diffusion.apply(rho_star if inj is None else rho_star + inj)

    def pull(self, mu: np.ndarray) -> np.ndarray:
        return self.S_T @ mu

    def jvp(self, rho: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Directional derivative of S(v) @ rho in v: sum_k G_k (rho * dv_k)."""
        out = np.zeros(rho.shape)
        for G, dv_k in zip(self.G, dv):
            out += G @ (rho * dv_k)
        return out

    def vjp(self, rho: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transpose of `jvp` in dv, rho * G_k^T y per row, added into `out` if given."""
        out = np.zeros((len(self.G_T), rho.size)) if out is None else out
        for k, G_T in enumerate(self.G_T):
            out[k] += rho * (G_T @ y)
        return out


def advect_step(rho: ScalarField, v: VectorField, dt: float) -> ScalarField:
    """One conservative particle-deposit advection step."""
    if rho.grid != v.grid:
        raise GridMismatchError("density and velocity grids differ")
    _require_density(rho.values, "density")
    step = SplitStep(v, ImplicitDiffusion(v.grid, 0.0, dt))
    return ScalarField(rho.grid, step.push(rho.values))


def diffuse_step(rho_star: ScalarField, sigma: float, dt: float) -> ScalarField:
    """One backward-Euler diffusion step: a split step at zero velocity, whose
    deposit is exactly the identity, so it clamps round-off negatives to zero."""
    _require_density(rho_star.values, "density")
    step = SplitStep(VectorField.zeros(rho_star.grid), ImplicitDiffusion(rho_star.grid, sigma, dt))
    return ScalarField(rho_star.grid, step.advance(rho_star.values))


def simulate(v: VelocitySeries, rho0: ScalarField, sigma: float) -> DensitySeries:
    """Advance rho0 through all intervals of the velocity series."""
    if rho0.grid != v.grid:
        raise GridMismatchError("initial density and velocity grids differ")
    _require_density(rho0.values, "initial density")
    diffusion = ImplicitDiffusion(v.grid, sigma, v.time_grid.dt)
    frames, _ = forward_frames(v.values, rho0.values, diffusion)
    return DensitySeries(v.grid, v.time_grid, frames)


def forward_frames(
    v_values: np.ndarray, rho0_values: np.ndarray, diffusion: ImplicitDiffusion
) -> tuple[np.ndarray, list[SplitStep]]:
    """The one forward sweep: frames 0..m, shape (m+1, s), and the m steps."""
    steps = [SplitStep(VectorField(diffusion.grid, v_n), diffusion) for v_n in v_values]
    frames = np.empty((len(steps) + 1, diffusion.grid.cell_count))
    frames[0] = rho0_values
    for n, step in enumerate(steps):
        frames[n + 1] = step.advance(frames[n])
    return frames, steps


def linearized_sweep(steps: list[SplitStep], frames: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Derivative of the forward sweep's frames in direction dv (rho_0 fixed)."""
    drho = np.zeros(frames.shape)
    for n, step in enumerate(steps):
        drho[n + 1] = step.push(drho[n], step.jvp(frames[n], dv[n]))
    return drho


def adjoint_sweep(
    steps: list[SplitStep], frames: np.ndarray, sources: Sequence[dict], out: np.ndarray
) -> np.ndarray:
    """The one adjoint sweep: the transpose of `linearized_sweep`.

    The adjoint at frame n is the one pulled back from frame n+1 plus the
    source term `source[n]` of each frame -> array mapping that has one,
    added in order. Adds the velocity sensitivities to `out`, shape
    (m, d, s), and returns it.
    """
    lam = None  # adjoint at frame n+1, as pulled back from frame n+2
    for n in range(len(steps) - 1, -1, -1):
        for source in sources:
            if n + 1 in source:
                lam = source[n + 1] if lam is None else lam + source[n + 1]
        mu = steps[n].diffusion.apply(np.zeros(frames.shape[1]) if lam is None else lam)
        steps[n].vjp(frames[n], mu, out=out[n])
        if n > 0:
            lam = steps[n].pull(mu)
    return out


def advect_velocity_jacobian_apply(
    rho: ScalarField, v: VectorField, dv: VectorField, dt: float
) -> ScalarField:
    """Directional derivative of S(v) @ rho with respect to v, direction dv.

    The deposit-cell assignment of each particle is held fixed, matching the
    piecewise-linear dependence of the deposit weights on the displacement.
    """
    if rho.grid != v.grid or dv.grid != v.grid:
        raise GridMismatchError("fields live on different grids")
    step = SplitStep(v, ImplicitDiffusion(v.grid, 0.0, dt))
    return ScalarField(rho.grid, step.jvp(rho.values, dv.components))
