"""Synthetic ground-truth generators.

All randomness flows through the counter-based Philox generator keyed by an
explicit seed, so generated fields are bit-identical across runs and
platforms. Closed-form density evolutions are available for the velocity
models below and serve as independent references for the forward model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .forward import TimeGrid, VelocitySeries
from .grid import CellGrid, ScalarField

__all__ = [
    "Blob",
    "VelocityModel",
    "SynthSpec",
    "true_density",
    "true_velocity_series",
    "add_noise",
]

# the most cells per axis a volume file holds: NIfTI-1 stores each dim as int16
_NIFTI_MAX_DIM = 32767


@dataclass(frozen=True)
class Blob:
    center: tuple[float, ...]
    width: float
    mass: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"blob width must be positive, got {self.width}")
        if not self.mass > 0:
            raise ValueError(f"blob mass must be positive, got {self.mass}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class VelocityModel:
    """Constant drift, rigid rotation about a center, or simple shear.

    kind == "constant": `value` is the drift vector.
    kind == "rotation": `center` and angular `rate` (2D; axis-0/1 plane).
    kind == "shear":    flow along axis 0 proportional to the axis-1 offset
                        from `center`, with slope `rate`.
    """

    kind: str
    value: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "rotation", "shear"):
            raise ValueError(f"unknown velocity model kind {self.kind!r}")
        if self.kind == "constant" and self.value is None:
            raise ValueError("constant velocity model needs a value vector")
        if self.kind in ("rotation", "shear") and self.center is None:
            raise ValueError(f"{self.kind} velocity model needs a center")
        if self.value is not None:
            object.__setattr__(self, "value", tuple(float(x) for x in self.value))
        if self.center is not None:
            object.__setattr__(self, "center", tuple(float(x) for x in self.center))

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Velocity vectors at the given points, shape (npoints, ndim)."""
        pts = np.atleast_2d(points)
        if self.kind == "constant":
            return np.broadcast_to(np.asarray(self.value), pts.shape).copy()
        if self.kind == "rotation":
            if pts.shape[1] < 2:
                raise ValueError("rotation model needs at least two axes")
            out = np.zeros_like(pts)
            out[:, 0] = -self.rate * (pts[:, 1] - self.center[1])
            out[:, 1] = self.rate * (pts[:, 0] - self.center[0])
            return out
        # shear
        if pts.shape[1] < 2:
            raise ValueError("shear model needs at least two axes")
        out = np.zeros_like(pts)
        out[:, 0] = self.rate * (pts[:, 1] - self.center[1])
        return out


@dataclass(frozen=True)
class SynthSpec:
    """Full description of a synthetic instance, including its noise seed.

    Each check raises a `ConfigError` that names the spec-file key at fault.
    """

    dims: tuple[int, ...]
    spacing: tuple[float, ...]
    blobs: tuple[Blob, ...]
    velocity: VelocityModel
    sigma_true: float = 0.0
    noise_std: float = 0.0
    rng_seed: int = 0
    observe_times: tuple[float, ...] = (0.0, 1.0)
    grid: CellGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_true < 0:
            raise ConfigError("'sigma_true' must be nonnegative", "sigma_true")
        if self.noise_std < 0:
            raise ConfigError("'noise_std' must be nonnegative", "noise_std")
        if self.rng_seed < 0:
            raise ConfigError("'rng_seed' must be nonnegative", "rng_seed")
        # volume i is noised under key rng_seed + i, and Philox keys are uint64
        if self.rng_seed + len(self.observe_times) - 1 >= 2**64:
            raise ConfigError("'rng_seed' plus the number of 'observe_times' less one "
                              "must stay below 2**64", "rng_seed")
        if not self.blobs:
            raise ConfigError("need at least one blob", "blobs")
        grid = CellGrid(self.dims, self.spacing)
        if max(grid.dims) > _NIFTI_MAX_DIM:
            raise ConfigError(f"'dims' entries must be at most {_NIFTI_MAX_DIM}, "
                              "the largest a NIfTI-1 header stores", "dims")
        vectors = [("velocity.value", self.velocity.value),
                   ("velocity.center", self.velocity.center)]
        vectors += [(f"blobs[{i}].center", b.center) for i, b in enumerate(self.blobs)]
        for key, vector in vectors:
            if vector is not None and len(vector) != len(self.dims):
                raise ConfigError(f"{key!r} needs one entry per axis of 'dims'", key)
        times = self.observe_times
        if min(times, default=0.0) < 0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("'observe_times' must be nonnegative and increasing",
                              "observe_times")
        if self.velocity.kind != "constant" and len(self.dims) < 2:
            raise ConfigError(f"'velocity.kind' {self.velocity.kind!r} needs two axes",
                              "velocity.kind")
        if self.velocity.kind != "constant" and self.sigma_true != 0.0:
            raise ConfigError(f"'sigma_true' must be 0 for 'velocity.kind' "
                              f"{self.velocity.kind!r}: it has no closed form with "
                              "diffusion", "sigma_true")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "dims", grid.dims)
        object.__setattr__(self, "spacing", grid.spacing)
        object.__setattr__(self, "blobs", tuple(self.blobs))
        object.__setattr__(
            self, "observe_times", tuple(float(t) for t in self.observe_times)
        )

    def total_mass(self) -> float:
        return sum(b.mass for b in self.blobs)


def _mixture_values(grid: CellGrid, points: np.ndarray, blobs, widths=None) -> np.ndarray:
    """Unnormalized Gaussian-mixture values at arbitrary evaluation points."""
    vals = np.zeros(points.shape[0])
    for i, blob in enumerate(blobs):
        w = widths[i] if widths is not None else blob.width
        r2 = ((points - np.asarray(blob.center)) ** 2).sum(axis=1)
        norm = (2.0 * math.pi * w * w) ** (grid.ndim / 2.0)
        vals += blob.mass * np.exp(-0.5 * r2 / (w * w)) / norm
    return vals


def _rescaled(grid: CellGrid, raw: np.ndarray, mass: float) -> ScalarField:
    total = raw.sum()
    if total <= 0:
        raise ValueError("density has no support on the grid")
    return ScalarField(grid, raw * (mass / total))


def true_density(spec: SynthSpec, t: float) -> ScalarField:
    """Exact density at time t for any supported velocity model.

    Under a constant velocity each blob's mean drifts with the velocity and
    its variance grows by 2 * sigma_true^2 * t. Rotation and shear are
    divergence free, so the density is the initial mixture pulled back along
    the inverse flow map (`SynthSpec` admits them only without diffusion). The
    discrete sum is renormalized to the total mass.
    """
    grid = spec.grid
    if spec.velocity.kind == "constant":
        drift = np.asarray(spec.velocity.value) * t
        moved = tuple(
            Blob(tuple(np.asarray(b.center) + drift), b.width, b.mass) for b in spec.blobs
        )
        widths = [math.sqrt(b.width**2 + 2.0 * spec.sigma_true**2 * t) for b in spec.blobs]
        raw = _mixture_values(grid, grid.cell_centers(), moved, widths)
    else:
        pts = grid.cell_centers().copy()
        c = np.asarray(spec.velocity.center)
        if spec.velocity.kind == "rotation":
            angle = -spec.velocity.rate * t
            cos, sin = math.cos(angle), math.sin(angle)
            dx = pts[:, 0] - c[0]
            dy = pts[:, 1] - c[1]
            pts[:, 0] = c[0] + cos * dx - sin * dy
            pts[:, 1] = c[1] + sin * dx + cos * dy
        else:  # shear
            pts[:, 0] = pts[:, 0] - spec.velocity.rate * t * (pts[:, 1] - c[1])
        raw = _mixture_values(grid, pts, spec.blobs)
    return _rescaled(grid, raw, spec.total_mass())


def true_velocity_series(spec: SynthSpec, time_grid: TimeGrid) -> VelocitySeries:
    """The model velocity sampled at cell centers, one frame per interval.

    All supported models are steady, so every frame holds the same field.
    """
    grid = spec.grid
    frame = spec.velocity.sample(grid.cell_centers()).T  # (d, s)
    values = np.repeat(frame[None, :, :], time_grid.steps, axis=0)
    return VelocitySeries(grid, time_grid, values)


def add_noise(field: ScalarField, std: float, seed: int) -> ScalarField:
    """Add iid Gaussian noise (Philox stream, fixed by seed), clamped at zero.

    The clamp keeps the result a valid density; it slightly biases cells whose
    clean value is within a few std of zero.
    """
    if std < 0:
        raise ValueError(f"noise std must be nonnegative, got {std}")
    if std == 0:
        return ScalarField(field.grid, field.values.copy())
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    noisy = field.values + std * rng.standard_normal(field.values.shape)
    return ScalarField(field.grid, np.maximum(noisy, 0.0))

