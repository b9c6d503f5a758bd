"""Velocity recovery between density snapshots.

Minimizes, over the velocity trajectory, the transport energy

    0.5 * cell_volume * dt * sum_n <rho_n, |v_n|^2>

plus the data misfit alpha * sum_{observed n>0} w_n |rho_n - obs_n|^2, with
alpha a `SolverConfig` field and w_n the observation's weight. The trajectory
rho is the forward sweep of the split steps of `otflow.forward` from rho_0, the
observation at time index 0. The gradient and the Gauss-Newton product
(misfit curvature plus the diagonal energy curvature in v) run the one adjoint
sweep with their own per-frame sources. The solve starts from the
linearised-OT velocity between consecutive observations. GN directions come
from matrix-free inner CG, preconditioned by the energy diagonal and
safeguarded by Armijo backtracking, so the objective is non-increasing across
iterations; the accepted trial's frames and sweep are the next linearization
point.

A restricted mode reproduces the classical fixed-endpoint transport baseline:
densities normalized to unit total mass, no diffusion, and the endpoint
enforced through a large penalty weight.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, GridMismatchError, require
from .forward import (
    DensitySeries,
    ImplicitDiffusion,
    Sweep,
    VelocitySeries,
    adjoint_sweep,
    forward_frames,
    linearized_sweep,
)
from .grid import CellGrid, ScalarField

__all__ = [
    "ObservationEntry",
    "ObservationSet",
    "check_schedule",
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "objective",
    "gradient",
    "solve",
    "solve_baseline",
    "registration_errors",
    "BASELINE_ALPHA_FACTOR",
]

# Penalty multiplier standing in for the baseline's hard endpoint constraint.
BASELINE_ALPHA_FACTOR = 1.0e6


@dataclass(eq=False)
class ObservationEntry:
    """One observed density at a time index, with its fidelity weight."""

    time_index: int
    observed: ScalarField
    weight: float = 1.0

    def __post_init__(self):
        self.time_index = int(self.time_index)
        self.weight = float(self.weight)
        _check_entry(self, "observation")


def _check_entry(entry, where: str) -> None:
    if entry.time_index < 0:
        raise ConfigError(f"{where}.time_index must be nonnegative, got {entry.time_index}",
                          f"{where}.time_index")
    if not 0 < entry.weight < np.inf:
        raise ConfigError(f"{where}.weight must be positive and finite, got {entry.weight!r}",
                          f"{where}.weight")


def check_schedule(entries: Sequence, time_steps: int | None = None,
                   baseline: bool = False) -> None:
    """The one rule for an observation schedule: `entries` carry a
    `time_index` and a `weight` (`ObservationEntry`, or a run configuration's
    references), in the order given. Refuses, with a `ConfigError` keyed as
    in the run configuration, a negative index, a weight that is not positive
    and finite, a repeated index, no index 0, no later index, and an index
    past `time_steps` when that is given. The fixed-endpoint baseline
    (`baseline`) fits the last observation at T and has no weights, so it
    needs exactly the indices 0 and `time_steps`, each of weight 1.
    """
    for i, entry in enumerate(entries):
        _check_entry(entry, f"observations[{i}]")
    indices = sorted(e.time_index for e in entries)
    if len(set(indices)) != len(indices):
        raise ConfigError(f"duplicate observation time indices {indices}", "observations")
    if 0 not in indices:
        raise ConfigError("an observation at time_index 0 is required", "observations")
    if indices[-1] < 1:
        raise ConfigError("need at least one observation after time_index 0", "observations")
    if time_steps is not None and indices[-1] > time_steps:
        raise ConfigError(f"observation time_index {indices[-1]} exceeds "
                          f"time_steps={time_steps}", "observations")
    if baseline and (set(indices) != {0, time_steps} or {e.weight for e in entries} != {1}):
        raise ConfigError("the baseline (baseline_mode, compare --baseline) needs exactly the "
                          f"observations at time_index 0 and time_steps={time_steps}, "
                          "each of weight 1", "observations")


@dataclass(eq=False)
class ObservationSet:
    """Observed densities anchoring the solve, sorted by time index.

    The entry at time index 0 is the pinned initial condition; at least one
    later entry must be present to give the solver something to fit
    (`check_schedule`).
    """

    entries: list[ObservationEntry]

    def __post_init__(self):
        check_schedule(self.entries)
        self.entries = sorted(self.entries, key=lambda e: e.time_index)
        grid = self.entries[0].observed.grid
        if any(e.observed.grid != grid for e in self.entries):
            raise GridMismatchError("observations live on different grids")

    @property
    def grid(self) -> CellGrid:
        return self.entries[0].observed.grid

    @property
    def initial(self) -> ScalarField:
        return self.entries[0].observed

    def interior(self) -> dict[int, ObservationEntry]:
        """Entries that contribute to the misfit (everything after index 0)."""
        return {e.time_index: e for e in self.entries if e.time_index > 0}


# Inner CG of the Gauss-Newton step: relative-residual target and iteration cap.
GN_CG_TOLERANCE = 1e-2
GN_CG_MAX_ITERS = 30
# Armijo backtracking: sufficient-decrease constant, shrink factor and cap.
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 25


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the Gauss-Newton solve."""

    sigma: float = 0.0
    alpha: float = 1.0
    time_steps: int = 4
    max_gn_iters: int = 50
    stop_tolerance: float = 1e-6

    def _ranges(self) -> tuple[tuple[str, bool, str], ...]:
        """(key, holds, requirement) for every field with a bounded range."""
        return (
            ("time_steps",
             isinstance(self.time_steps, (int, np.integer)) and self.time_steps >= 1,
             "an integer, at least 1"),
            ("sigma", self.sigma >= 0, "nonnegative"),
            ("alpha", self.alpha > 0, "positive"),
            ("max_gn_iters", self.max_gn_iters >= 1, "at least 1"),
            ("stop_tolerance", self.stop_tolerance > 0, "positive"),
        )

    def __post_init__(self):
        for key, holds, requirement in self._ranges():
            require(holds, key, requirement, getattr(self, key))


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    phi: float
    energy: float
    misfit: float
    grad_norm: float
    step_length: float


@dataclass(eq=False)
class SolveResult:
    """Recovered velocity, the matching clean density trajectory, and diagnostics."""

    velocity: VelocitySeries
    densities: DensitySeries
    diagnostics: list[IterationRecord]
    termination: str  # 'gradient' | 'max_iters' | 'line_search'

    @property
    def converged(self) -> bool:
        return self.termination == "gradient"

    def diagnostics_csv(self) -> str:
        lines = ["iter,phi,energy,misfit,grad_norm,step_length"]
        for r in self.diagnostics:
            lines.append(
                f"{r.iteration},{r.phi!r},{r.energy!r},{r.misfit!r},"
                f"{r.grad_norm!r},{r.step_length!r}"
            )
        return "\n".join(lines) + "\n"


class ObjectiveValue(NamedTuple):
    total: float
    energy: float
    misfit: float
    densities: DensitySeries


def _energy_weight(sweep: Sweep) -> float:
    """cell_volume * dt, the quadrature weight of the transport energy."""
    return sweep.diffusion.grid.cell_volume * sweep.diffusion.dt


def _objective_terms(
    v_values: np.ndarray, frames: np.ndarray, sweep: Sweep, obs: ObservationSet,
    alpha: float,
) -> tuple[float, float, float]:
    speed_sq = (v_values**2).sum(axis=1)  # (m, s)
    energy = 0.5 * _energy_weight(sweep) * float((frames[:-1] * speed_sq).sum())
    residual = 0.0
    for idx, entry in obs.interior().items():
        r = frames[idx] - entry.observed.values
        residual += float((entry.weight * r * r).sum())
    misfit = alpha * residual
    return energy + misfit, energy, misfit


def _gradient_values(
    v_values: np.ndarray, frames: np.ndarray, sweep: Sweep, obs: ObservationSet,
    alpha: float,
) -> np.ndarray:
    """Adjoint gradient. The sweep's sources are the energy's density
    sensitivity at frames 1..m-1 and the weighted misfit residuals."""
    coef = _energy_weight(sweep)
    energy = {n: 0.5 * coef * (v_values[n] ** 2).sum(axis=0) for n in range(1, len(v_values))}
    misfit = {
        n: 2.0 * alpha * e.weight * (frames[n] - e.observed.values)
        for n, e in obs.interior().items()
    }
    g = _energy_curvature(frames, sweep) * v_values
    return adjoint_sweep(sweep, frames, (energy, misfit), out=g)


def _energy_curvature(frames: np.ndarray, sweep: Sweep) -> np.ndarray:
    """coef * rho_n, shape (m, 1, s): the energy's diagonal curvature in each
    velocity component, in the dtype of the frames."""
    return _energy_weight(sweep) * frames[:-1][:, None, :]


def _gn_hessian_apply(
    dv: np.ndarray, frames: np.ndarray, sweep: Sweep, obs: ObservationSet,
    alpha: float, energy: np.ndarray,
) -> np.ndarray:
    """Gauss-Newton curvature product: misfit J^T W J plus the diagonal energy
    block, `energy` being `_energy_curvature(frames, sweep)`.

    Cross terms through the density's dependence on v inside the energy are
    dropped, which keeps the operator symmetric positive semidefinite. The
    product runs in the dtype of its operands: the misfit weights are Python
    floats, which keep a float32 drho float32.
    """
    drho = linearized_sweep(sweep, frames, dv)
    misfit = {n: float(2.0 * alpha * e.weight) * drho[n] for n, e in obs.interior().items()}
    return adjoint_sweep(sweep, frames, (misfit,), out=energy * dv)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The inner product of two arrays of one shape, summed by numpy's own
    loop: BLAS's dot splits a long sum across its threads, so its bits would
    depend on the thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _gn_step(
    hess_apply: Callable[[np.ndarray], np.ndarray], grad: np.ndarray, diag: np.ndarray
) -> np.ndarray:
    """Truncated CG on an SPD system H p = -g, preconditioned by the positive
    diagonal `diag` (broadcast against g): the Gauss-Newton normal equations,
    and the weighted Laplacian of the start.

    Stops early on the relative target for the unpreconditioned residual or
    on a flat/singular direction; whatever iterate is reached is still a
    descent direction. Each of the four inner products is one `_dot`, with
    no temporary. x, r, z and p are updated in place, and one scratch array
    takes the steps that are added.
    """
    r = -grad
    bnorm = np.sqrt(_dot(r, r))
    x = np.zeros_like(r)
    z = r / diag
    p = z.copy()
    scratch = np.empty_like(r)
    rz = _dot(r, z)
    for _ in range(GN_CG_MAX_ITERS):
        hp = hess_apply(p)
        curv = _dot(p, hp)
        if curv <= 1e-16 * _dot(p, p):
            break
        a = rz / curv
        x += np.multiply(p, a, out=scratch)
        r -= np.multiply(hp, a, out=scratch)
        if np.sqrt(_dot(r, r)) <= GN_CG_TOLERANCE * bnorm:
            break
        np.divide(r, diag, out=z)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x


def _gn_direction(
    g: np.ndarray, frames: np.ndarray, sweep: Sweep, obs: ObservationSet, alpha: float
) -> np.ndarray:
    """The Gauss-Newton direction at the accepted iterate, for the float64
    gradient g, its frames and its sweep cast to float32. The inner CG runs
    in float32, preconditioned by the energy diagonal coef * rho_n, to a
    relative residual of 1e-2 or at most `GN_CG_MAX_ITERS` iterations; the
    direction comes back in float64 for the line search. Where rho_n = 0,
    g and every product are exactly 0, so the unit diagonal there only
    keeps 0/0 out."""
    frames = frames.astype(np.float32)
    energy = _energy_curvature(frames, sweep)
    direction = _gn_step(
        lambda dv: _gn_hessian_apply(dv, frames, sweep, obs, alpha, energy),
        g.astype(np.float32),
        np.where(energy > 0, energy, 1),
    )
    return direction.astype(float)


def _validate_problem(obs: ObservationSet, config: SolverConfig):
    if np.any(obs.initial.values < 0):
        raise ValueError("initial density must be nonnegative")
    check_schedule(obs.entries, config.time_steps)


def _sweep(v: VelocitySeries, obs: ObservationSet, config: SolverConfig):
    _validate_problem(obs, config)
    diffusion = ImplicitDiffusion(v.grid, config.sigma, 1.0 / len(v.values))
    return forward_frames(v.values, obs.initial.values, diffusion)


def objective(v: VelocitySeries, obs: ObservationSet, config: SolverConfig) -> ObjectiveValue:
    """Evaluate the transport energy, the data misfit, and their sum at v."""
    frames, sweep = _sweep(v, obs, config)
    total, energy, misfit = _objective_terms(v.values, frames, sweep, obs, config.alpha)
    return ObjectiveValue(total, energy, misfit, DensitySeries(v.grid, frames))


def gradient(v: VelocitySeries, obs: ObservationSet, config: SolverConfig) -> VelocitySeries:
    """Adjoint gradient of the objective with respect to the velocity trajectory."""
    frames, sweep = _sweep(v, obs, config)
    values = _gradient_values(v.values, frames, sweep, obs, config.alpha)
    return VelocitySeries(v.grid, values)


def _to_cells(faces: np.ndarray, axis: int) -> np.ndarray:
    """Sum of the two face values beside each cell along `axis`, from the
    values on the interior faces; a wall face counts 0."""
    shape = list(faces.shape)
    shape[axis] += 1
    cells = np.zeros(shape, order="F")
    lower, upper = np.moveaxis(cells, axis, 0), np.moveaxis(faces, axis, 0)
    lower[:-1] += upper
    lower[1:] += upper
    return cells


def _weighted_laplacian(rho_bar: np.ndarray, grid: CellGrid) -> tuple[Callable, np.ndarray]:
    """L = -div(rho_bar grad) with zero flux through the walls, on cell
    vectors in canonical order, and its diagonal. A face's weight is the mean
    of its two cells; L is symmetric positive semidefinite with the constants
    as its null space when rho_bar > 0."""
    def cells(x: np.ndarray) -> np.ndarray:
        return x.reshape(grid.dims, order="F")

    weights = []
    for k, h in enumerate(grid.spacing):
        pairs = np.moveaxis(cells(rho_bar), k, 0)
        weights.append(np.moveaxis(pairs[:-1] + pairs[1:], 0, k) / (2 * h * h))

    def apply(phi: np.ndarray) -> np.ndarray:
        phi = cells(phi)
        return -sum(np.diff(w * np.diff(phi, axis=k), axis=k, prepend=0, append=0)
                    for k, w in enumerate(weights)).ravel(order="F")

    return apply, sum(_to_cells(w, k) for k, w in enumerate(weights)).ravel(order="F")


def _linearised_start(obs: ObservationSet, steps: int) -> np.ndarray:
    """The starting velocity over `steps` intervals of dt = 1/steps, shape
    (steps, d, s): the linearised-OT flow between each pair of consecutive
    observations (i, j), on every interval from i to j.

    Linearising the continuity equation at rho_bar = (rho_i + rho_j) / 2 and
    taking the least-energy potential flow gives v = grad phi with
    -div(rho_bar grad phi) = (rho_j - rho_i) / tau, tau = (j - i) dt: the
    weighted H^-1 linearisation of W2 (Peyre, ESAIM COCV 2018) in the
    variables of Benamou & Brenier (Numer. Math. 2000). rho_bar is floored at
    1e-6 of its maximum and the right-hand side's mean is removed, so the
    system is consistent; `_gn_step` solves it, preconditioned by L's diagonal
    (1 where that is 0: an all-length-1 grid or no mass). A cell's velocity is
    the mean of the gradients on its two faces, a wall face's being 0. Equal
    observations give exactly 0.
    """
    grid = obs.grid
    dt = 1.0 / steps
    v = np.zeros((steps, grid.ndim, grid.cell_count))
    for a, b in zip(obs.entries, obs.entries[1:]):
        rho_bar = 0.5 * (a.observed.values + b.observed.values)
        laplacian, diag = _weighted_laplacian(np.maximum(rho_bar, 1e-6 * rho_bar.max()), grid)
        tau = (b.time_index - a.time_index) * dt
        rhs = (b.observed.values - a.observed.values) / tau
        phi = _gn_step(laplacian, rhs.mean() - rhs, np.where(diag > 0, diag, 1))
        phi = phi.reshape(grid.dims, order="F")
        for k, h in enumerate(grid.spacing):
            cell_gradient = 0.5 * _to_cells(np.diff(phi, axis=k) / h, k)
            v[a.time_index:b.time_index, k] = cell_gradient.ravel(order="F")
    return v


def solve(obs: ObservationSet, config: SolverConfig) -> SolveResult:
    """Gauss-Newton minimization of the objective from the density observed
    at time index 0, starting from the linearised-OT velocity of
    `_linearised_start`."""
    _validate_problem(obs, config)
    grid = obs.grid
    rho0 = obs.initial.values
    alpha = config.alpha
    diffusion = ImplicitDiffusion(grid, config.sigma, 1.0 / config.time_steps)

    v = _linearised_start(obs, config.time_steps)
    frames, sweep = forward_frames(v, rho0, diffusion)
    phi, energy, misfit = _objective_terms(v, frames, sweep, obs, alpha)
    g = _gradient_values(v, frames, sweep, obs, alpha)
    gnorm = float(np.sqrt(_dot(g, g)))
    gnorm0 = gnorm
    records = [IterationRecord(0, phi, energy, misfit, gnorm, 0.0)]

    termination = "gradient" if gnorm0 == 0.0 else "max_iters"
    if termination == "max_iters":
        for it in range(1, config.max_gn_iters + 1):
            # Nothing reads the float64 S and G after the gradient: the sweep
            # is cast to float32 in place for the CG, and dropped before the
            # line search.
            sweep.cast(np.float32)
            direction = _gn_direction(g, frames, sweep, obs, alpha)
            sweep = trial = None
            slope = float((g * direction).sum())
            if slope >= 0.0:
                direction = -g
                slope = -gnorm * gnorm
            # Armijo backtracking on the true objective; the accepted trial's
            # frames and sweep become the next linearization point
            t = 1.0
            accepted = False
            for _ in range(MAX_BACKTRACKS + 1):
                trial_v = v + t * direction
                trial = forward_frames(trial_v, rho0, diffusion)
                trial_phi, trial_e, trial_m = _objective_terms(trial_v, *trial, obs, alpha)
                if np.isfinite(trial_phi) and trial_phi <= phi + ARMIJO_C * t * slope:
                    accepted = True
                    break
                t *= BACKTRACK_FACTOR
            if not accepted:
                termination = "line_search"
                break
            v = trial_v
            frames, sweep = trial
            phi, energy, misfit = trial_phi, trial_e, trial_m
            # the gradient is the solve's memory peak: nothing reads the step,
            # the old gradient or the trial tuple again, so they go first
            direction = g = trial = None
            g = _gradient_values(v, frames, sweep, obs, alpha)
            gnorm = float(np.sqrt(_dot(g, g)))
            records.append(IterationRecord(it, phi, energy, misfit, gnorm, t))
            if gnorm <= config.stop_tolerance * gnorm0:
                termination = "gradient"
                break

    return SolveResult(
        velocity=VelocitySeries(grid, v),
        densities=DensitySeries(grid, frames),
        diagnostics=records,
        termination=termination,
    )


def solve_baseline(obs: ObservationSet, config: SolverConfig) -> SolveResult:
    """Classical fixed-endpoint transport baseline between the observations
    at time index 0 and `time_steps`, the only ones it accepts
    (`check_schedule` with `baseline`).

    Both densities are normalized to unit total mass, diffusion is switched
    off, and the endpoint is pinned through a large penalty weight; the same
    optimizer then runs unchanged.
    """
    check_schedule(obs.entries, config.time_steps, baseline=True)
    masses = [e.observed.total_mass() for e in obs.entries]
    if min(masses) <= 0:
        raise ValueError("baseline endpoints must carry positive total mass")
    normalized = ObservationSet([
        ObservationEntry(e.time_index, ScalarField(obs.grid, e.observed.values / mass))
        for e, mass in zip(obs.entries, masses)
    ])
    baseline_config = dataclasses.replace(
        config, sigma=0.0, alpha=config.alpha * BASELINE_ALPHA_FACTOR
    )
    return solve(normalized, baseline_config)


def registration_errors(
    a: DensitySeries | ScalarField, b: DensitySeries | ScalarField
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error and infinity norm of every frame, one entry per frame.

    `a` and `b` are two stacks of frames on one grid: two density series, or
    two fields, each of which counts as a stack of one frame.
    """
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    frames_a, frames_b = np.atleast_2d(a.values), np.atleast_2d(b.values)
    if len(frames_a) != len(frames_b):
        raise ValueError(f"cannot compare {len(frames_a)} frames with {len(frames_b)}")
    diff = frames_a - frames_b
    return (diff * diff).mean(axis=1), np.abs(diff).max(axis=1)
