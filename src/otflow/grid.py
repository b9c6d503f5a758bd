"""Cell-centered grid geometry and field containers.

Scalar and vector quantities live at cell centers. Cells are linearized in
canonical order with axis 0 fastest, so cell (i_0, .., i_{d-1}) has flat index
i_0 + n_0 * (i_1 + n_1 * i_2). Along axis k the domain is [0, n_k * h_k] and
cell centers sit at (i + 0.5) * h_k. All spatial interpolation is multilinear
between cell centers, with clamped (constant) extrapolation in the half-cell
strip between the outermost centers and the domain walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import OutsideDomainError

__all__ = [
    "CellGrid",
    "ScalarField",
    "VectorField",
    "build_grid",
    "sample_vector_field",
]

# Relative slack when testing whether a point lies inside the closed domain.
_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class CellGrid:
    """Uniform cell-centered grid in 1, 2 or 3 dimensions.

    Attributes:
        dims: number of cells per axis.
        spacing: physical cell width per axis (strictly positive).
    """

    dims: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(h) for h in self.spacing)
        if not 1 <= len(dims) <= 3:
            raise ValueError(f"grid must have 1, 2 or 3 axes, got {len(dims)}")
        if len(spacing) != len(dims):
            raise ValueError("dims and spacing must have equal length")
        if any(n < 1 for n in dims):
            raise ValueError(f"cell counts must be positive, got {dims}")
        if any(not np.isfinite(h) or h <= 0.0 for h in spacing):
            raise ValueError(f"cell spacings must be positive, got {spacing}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.dims))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def lengths(self) -> tuple[float, ...]:
        """Physical domain extent per axis."""
        return tuple(n * h for n, h in zip(self.dims, self.spacing))

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.dims[axis]
        h = self.spacing[axis]
        return (np.arange(n) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """All cell-center coordinates, shape (cell_count, ndim), canonical order."""
        axes = [self.axis_centers(k) for k in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel(order="F") for m in mesh], axis=1)

    def contains(self, point) -> bool:
        """True when the point lies inside the closed domain (tiny slack for round-off)."""
        p = np.asarray(point, dtype=float)
        if p.shape != (self.ndim,):
            raise ValueError(f"point must have {self.ndim} coordinates")
        return bool(self.contains_points(p[None, :])[0])

    def contains_points(self, points) -> np.ndarray:
        """Row-wise `contains` over points of shape (npoints, ndim)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.ndim:
            raise ValueError(f"points must have shape (npoints, {self.ndim})")
        lengths = np.asarray(self.lengths)
        tol = _DOMAIN_TOL * lengths
        return ((pts >= -tol) & (pts <= lengths + tol)).all(axis=1)

    def clamp_points(self, points: np.ndarray) -> np.ndarray:
        """Project points onto the closed domain, axis by axis."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.clip(pts, 0.0, np.asarray(self.lengths))

    def cells_of_points(self, points) -> np.ndarray:
        """Flat indices of the cells containing each point (walls map inward)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = []
        for k in range(self.ndim):
            i = np.floor(pts[:, k] / self.spacing[k]).astype(np.int64)
            idx.append(np.clip(i, 0, self.dims[k] - 1))
        return np.ravel_multi_index(idx, self.dims, order="F")


def build_grid(dims, spacing) -> CellGrid:
    """Construct a grid from per-axis cell counts and spacings."""
    return CellGrid(tuple(dims), tuple(spacing))


@dataclass(eq=False)
class ScalarField:
    """One real value per grid cell, in canonical cell order.

    Density fields are additionally nonnegative; that is enforced by the
    operations that require it, not by the container.
    """

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.shape != (self.grid.cell_count,):
            raise ValueError(
                f"expected {self.grid.cell_count} values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        self.values = vals

    def total_mass(self) -> float:
        return float(self.values.sum())

    def as_grid_array(self) -> np.ndarray:
        """Values reshaped to the grid dims (axis 0 fastest)."""
        return self.values.reshape(self.grid.dims, order="F")


@dataclass(eq=False)
class VectorField:
    """One d-component vector per grid cell; components[k] has canonical cell order."""

    grid: CellGrid
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        expect = (self.grid.ndim, self.grid.cell_count)
        if comp.shape != expect:
            raise ValueError(f"expected components of shape {expect}, got {comp.shape}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("vector components must be finite")
        self.components = comp

    @classmethod
    def zeros(cls, grid: CellGrid) -> "VectorField":
        return cls(grid, np.zeros((grid.ndim, grid.cell_count)))

    @classmethod
    def constant(cls, grid: CellGrid, vector) -> "VectorField":
        vec = np.asarray(vector, dtype=float)
        return cls(grid, np.repeat(vec[:, None], grid.cell_count, axis=1))

    def speed(self) -> np.ndarray:
        """Euclidean magnitude per cell."""
        return np.sqrt((self.components**2).sum(axis=0))


def _stencil(grid: CellGrid, coords: np.ndarray):
    """Multilinear cell-center stencil at index coordinates inside the closed domain.

    coords has shape (ndim, npoints); along axis k, cell centers sit at the
    integers and the walls at -0.5 and n_k - 0.5. Returns (base, frac, live),
    each of the same shape. base[k] is the lower neighbor index along axis k,
    frac[k] the weight toward base+1 (clipped to [0, 1]), and live[k] is 1.0
    where frac responds linearly to motion and 0.0 where it is saturated
    against a wall. An axis with one cell has both corners on cell 0, so its
    frac and live are pinned to 0.0: the weights stay exact and motion along
    it changes nothing.
    """
    dims = np.asarray(grid.dims)[:, None]
    base = np.clip(np.floor(coords), 0, np.maximum(dims - 2, 0)).astype(np.int64)
    raw = coords - base
    single = dims == 1
    frac = np.where(single, 0.0, np.clip(raw, 0.0, 1.0))
    live = ((raw >= 0.0) & (raw <= 1.0) & ~single).astype(float)
    return base, frac, live


def _corner_flat(grid: CellGrid, base: np.ndarray, offsets) -> np.ndarray:
    """Flat cell index of one stencil corner (indices clipped for 1-cell axes)."""
    idx = [
        np.minimum(base[k] + offsets[k], grid.dims[k] - 1)
        for k in range(grid.ndim)
    ]
    return np.ravel_multi_index(idx, grid.dims, order="F")


def _corner_weight(frac: np.ndarray, offsets) -> np.ndarray:
    w = np.ones(frac.shape[1])
    for k, bit in enumerate(offsets):
        w *= frac[k] if bit else (1.0 - frac[k])
    return w


def interpolate_components(grid: CellGrid, components: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of per-cell component arrays at arbitrary points.

    components has shape (ncomp, cell_count); positions (npoints, ndim) and must
    lie inside the closed domain (clamp first if unsure). Returns (npoints, ncomp).
    """
    base, frac, _ = _stencil(grid, positions.T / np.asarray(grid.spacing)[:, None] - 0.5)
    out = np.zeros((positions.shape[0], components.shape[0]))
    for offsets in product((0, 1), repeat=grid.ndim):
        flat = _corner_flat(grid, base, offsets)
        w = _corner_weight(frac, offsets)
        out += w[:, None] * components[:, flat].T
    return out


def sample_vector_field(v: VectorField, point) -> np.ndarray:
    """Velocity vector at one physical point by multilinear interpolation.

    Points in the half-cell strip next to a wall use the clamped boundary-cell
    value. Points outside the closed domain are rejected.
    """
    p = np.asarray(point, dtype=float)
    if not v.grid.contains(p):
        raise OutsideDomainError(f"point {p.tolist()} is outside the domain")
    return interpolate_components(v.grid, v.components, p[None, :])[0]
