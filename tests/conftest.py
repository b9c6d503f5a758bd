import numpy as np
import pytest

from otflow.forward import ImplicitDiffusion, VelocitySeries, forward_frames
from otflow.grid import CellGrid, ScalarField
from otflow.solver import ObservationEntry, ObservationSet, SolverConfig
from otflow.synth import Blob, SynthSpec, VelocityModel, true_density


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def gaussian_blob(grid: CellGrid, center, width: float, mass: float) -> ScalarField:
    """Isotropic Gaussian sampled at cell centers, rescaled so the sum is `mass`:
    the density at t = 0 of a one-blob spec at rest."""
    spec = SynthSpec(dims=grid.dims, spacing=grid.spacing, blobs=(Blob(center, width, mass),),
                     velocity=VelocityModel("constant", value=(0.0,) * grid.ndim))
    return true_density(spec, 0.0)


def one_step(v: np.ndarray, rho: np.ndarray, diffusion: ImplicitDiffusion) -> np.ndarray:
    """rho advanced through one interval of velocity v, shape (d, s): the
    deposit, the solve and the clamp, from a one-interval forward sweep."""
    frames, _ = forward_frames(v[None], rho, diffusion)
    return frames[1]


def smooth_velocity(grid: CellGrid, seed: int, scale: float = 0.05) -> np.ndarray:
    """Low-frequency random velocity components, shape (d, cell_count)."""
    rng = philox(seed)
    centers = grid.cell_centers()
    comp = np.zeros((grid.ndim, grid.cell_count))
    for k in range(grid.ndim):
        for _ in range(3):
            kvec = rng.integers(1, 4, size=grid.ndim)
            phase = rng.uniform(0, 2 * np.pi)
            comp[k] += rng.uniform(-scale, scale) * np.sin(
                2 * np.pi * (centers @ kvec) + phase
            )
    return comp


def far_from_deposit_kinks(grid: CellGrid, v_values: np.ndarray, dt: float,
                           margin: float = 1e-3) -> bool:
    """True when every displaced particle stays clear of deposit-weight kinks.

    The deposit weights are piecewise linear in the displacement with kinks
    where a particle lands exactly on a cell-center plane, and they saturate
    at the walls; finite-difference checks are only clean away from both.
    """
    lengths = np.asarray(grid.lengths)
    h_min = min(grid.spacing)
    for n in range(v_values.shape[0]):
        pos = grid.cell_centers() + dt * v_values[n].T
        if (pos < margin * h_min).any() or (pos > lengths - margin * h_min).any():
            return False
        for k in range(grid.ndim):
            g = pos[:, k] / grid.spacing[k] - 0.5
            if (np.abs(g - np.round(g)) < margin).any():
                return False
    return True


def gradient_check_instance(seed: int, sigma: float):
    """Random small solve instance plus a kink-free velocity and direction."""
    grid = CellGrid([8, 8], [1 / 8, 1 / 8])
    floor = 0.05 / grid.cell_count
    rho0 = ScalarField(grid, gaussian_blob(grid, (0.45, 0.5), 0.15, 1.0).values + floor)
    target = ScalarField(grid, gaussian_blob(grid, (0.55, 0.6), 0.15, 1.0).values + floor)
    obs = ObservationSet([ObservationEntry(0, rho0), ObservationEntry(3, target)])
    attempt = seed
    while True:
        rng = philox(attempt)
        v_values = 0.04 * rng.standard_normal((3, 2, grid.cell_count))
        if far_from_deposit_kinks(grid, v_values, 1 / 3):
            break
        attempt += 7919
    dv_values = rng.standard_normal((3, 2, grid.cell_count))
    dv_values /= np.linalg.norm(dv_values)
    config = SolverConfig(sigma=sigma, alpha=1.0, time_steps=3)
    return (
        rho0,
        obs,
        config,
        VelocitySeries(grid, v_values),
        VelocitySeries(grid, dv_values),
    )


def translating_pair(n: int = 32, shift_cells: int = 3, width: float = 0.125):
    """Clean translating-Gaussian endpoints on an n x n unit-square grid."""
    spec = SynthSpec(
        dims=(n, n),
        spacing=(1 / n, 1 / n),
        blobs=(Blob((0.42, 0.5), width, 1.0),),
        velocity=VelocityModel("constant", value=(shift_cells / n, 0.0)),
    )
    return spec, true_density(spec, 0.0), true_density(spec, 1.0)


@pytest.fixture
def grid_2d() -> CellGrid:
    return CellGrid([8, 6], [0.5, 0.25])
