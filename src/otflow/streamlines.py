"""Streamline tracing through a recovered velocity trajectory.

The velocity is piecewise constant in time over each solver interval and
multilinearly interpolated in space. All trajectories are advanced together
with classical fourth-order Runge-Kutta at a fixed time step, each halting on
its own at the domain boundary, at a stagnation point, or at the step cap.
Per-voxel streamline counts give the global pathway picture. The seeding
quantile, step size and step cap are taken as given: `RunConfig` checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeedsError, OutsideDomainError
from .forward import VelocitySeries
from .grid import CellGrid, ScalarField, interpolate_components

__all__ = [
    "Streamline",
    "seed_points",
    "trace_streamlines",
    "pathway_density",
    "STAGNATION_SPEED",
]

STAGNATION_SPEED = 1e-12


@dataclass(eq=False)
class Streamline:
    seed: np.ndarray
    points: np.ndarray  # (npoints, ndim), all inside the closed domain
    step_size: float

    def __post_init__(self):
        self.seed = np.asarray(self.seed, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.step_size = float(self.step_size)


def seed_points(density: ScalarField, threshold_quantile: float) -> np.ndarray:
    """Cell centers of the cells above a quantile of the positive density values.

    Ties at the quantile are included; cells with zero density never seed.
    Returns points in canonical cell order, shape (nseeds, ndim).
    """
    vals = density.values
    if np.any(vals < 0):
        raise ValueError("density must be nonnegative")
    positive = vals[vals > 0]
    if positive.size == 0:
        raise EmptySeedsError("density has no positive cells to seed from")
    # "lower" keeps the threshold on an actual data point, so a quantile below
    # 1/count recovers the full positive support
    threshold = float(np.quantile(positive, threshold_quantile, method="lower"))
    mask = vals >= threshold
    if not mask.any():
        raise EmptySeedsError("no cell reaches the seeding threshold")
    return density.grid.cell_centers()[mask]


def trace_streamlines(
    v: VelocitySeries, seeds, step_size: float, max_steps: int
) -> list[Streamline]:
    """Integrate dx/dt = v(t, x) from t=0 to the horizon for every seed at once.

    All seeds advance in lockstep as one (nseeds, ndim) array: every active
    seed takes the same step h, so each Runge-Kutta stage is one interpolation
    over the active rows. Steps never straddle an interval boundary, so each
    sees a single frozen velocity frame. Intermediate stage positions are
    clamped to the domain for sampling. Each seed keeps its own halting rules:
    it stops without a new point at a stagnation point or when a step's
    endpoint leaves the closed domain, and all seeds share the max_steps cap.
    Returns the streamlines in seed order.
    """
    grid = v.grid
    seeds = np.asarray(seeds, dtype=float)
    outside = np.flatnonzero(~grid.contains_points(seeds))
    if outside.size:
        i = int(outside[0])
        raise OutsideDomainError(f"seed {i} at {seeds[i].tolist()} is outside the domain")

    # one (seed ids, points) record per step, seeds included as step 0
    active = np.arange(len(seeds))
    x = seeds
    ids, pts = [active], [x]
    dt = v.time_grid.dt
    tiny = dt * 1e-12
    steps_taken = 0
    for comp in v.values:
        def sample(p):
            return interpolate_components(grid, comp, grid.clamp_points(p))

        remaining = dt
        while remaining > tiny and steps_taken < max_steps and active.size:
            h = min(step_size, remaining)
            k1 = sample(x)
            # the row-wise norm sums squares where the 1-D norm calls dot, so
            # a speed within an ulp of STAGNATION_SPEED could halt differently
            moving = np.linalg.norm(k1, axis=1) >= STAGNATION_SPEED
            active, x, k1 = active[moving], x[moving], k1[moving]
            k2 = sample(x + 0.5 * h * k1)
            k3 = sample(x + 0.5 * h * k2)
            k4 = sample(x + h * k3)
            y = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            inside = grid.contains_points(y)
            active, x = active[inside], y[inside]
            ids.append(active)
            pts.append(x)
            remaining -= h
            steps_taken += 1

    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(np.bincount(ids, minlength=len(seeds)))[:-1]
    per_seed = np.split(np.concatenate(pts)[order], ends)
    return [Streamline(s, p, step_size) for s, p in zip(seeds, per_seed)]


def pathway_density(streamlines: list[Streamline], grid: CellGrid) -> np.ndarray:
    """Count, per cell, how many streamlines visit it (each at most once):
    int64, in canonical cell order."""
    if not streamlines:
        return np.zeros(grid.cell_count, dtype=np.int64)
    ids = np.repeat(np.arange(len(streamlines)), [len(sl.points) for sl in streamlines])
    cells = grid.cells_of_points(np.concatenate([sl.points for sl in streamlines]))
    # one key per (streamline, cell) visit, so a revisited cell counts once
    visits = np.unique(ids * grid.cell_count + cells)
    return np.bincount(visits % grid.cell_count, minlength=grid.cell_count)
