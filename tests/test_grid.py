import re

import numpy as np
import pytest

from otflow.errors import ConfigError, OutsideDomainError
from otflow.forward import TimeGrid, VelocitySeries
from otflow.grid import CellGrid, ScalarField, VectorField, interpolate_components
from otflow.streamlines import trace_streamlines

from conftest import philox
from oracles import per_corner_interpolate


class TestBuildGrid:
    def test_cell_counts(self):
        assert CellGrid([4], [1.0]).cell_count == 4
        assert CellGrid([3, 5], [1.0, 0.5]).cell_count == 15
        assert CellGrid([8, 8, 8], [0.234, 0.234, 0.234]).cell_count == 512

    @pytest.mark.parametrize(
        "dims,spacing",
        [([0], [1.0]), ([-2], [1.0]), ([4], [0.0]), ([4], [-1.0]),
         ([2, 2, 2, 2], [1.0] * 4), ([4, 4], [1.0])],
    )
    def test_rejects_bad_geometry(self, dims, spacing):
        with pytest.raises(ValueError):
            CellGrid(dims, spacing)

    @pytest.mark.parametrize("dims, spacing, key, message", [
        ([0, 4], [1.0, 1.0], "dims", "must be 1 to 3 positive cell counts, got [0, 4]"),
        ([4], [1.0, 1.0], "spacing", "must be positive and finite, one per axis, got [1.0, 1.0]"),
        ([4], [np.inf], "spacing", "must be positive and finite, one per axis, got [inf]"),
    ], ids=["dims", "spacing-length", "spacing-infinite"])
    def test_bad_geometry_is_keyed(self, dims, spacing, key, message):
        with pytest.raises(ConfigError, match=re.escape(f"key '{key}' {message}")) as info:
            CellGrid(dims, spacing)
        assert info.value.key == key

    def test_centers_and_lengths(self):
        g = CellGrid([4], [0.5])
        np.testing.assert_allclose(g.axis_centers(0), [0.25, 0.75, 1.25, 1.75])
        assert g.lengths == (2.0,)
        assert g.cell_volume == 0.5

    def test_canonical_order_axis0_fastest(self):
        g = CellGrid([2, 3], [1.0, 1.0])
        centers = g.cell_centers()
        # flat index of cell (i, j) is i + 2*j
        np.testing.assert_allclose(centers[1], [1.5, 0.5])
        np.testing.assert_allclose(centers[2], [0.5, 1.5])
        assert g.cells_of_points(np.array([[1.5, 0.5]]))[0] == 1

    def test_cells_of_points_clips_walls(self):
        g = CellGrid([4, 4], [1.0, 1.0])
        idx = g.cells_of_points(np.array([[0.0, 0.0], [4.0, 4.0]]))
        assert idx[0] == 0
        assert idx[1] == g.cell_count - 1

    def test_contains_points_closed_domain_with_slack(self):
        g = CellGrid([4, 2], [0.5, 1.0])  # domain [0, 2] x [0, 2]
        pts = np.array([
            [0.0, 2.0],            # on the walls
            [-1e-13, 2 + 1e-13],   # inside the round-off slack
            [-1e-11, 1.0],         # beyond it
            [1.0, 2 + 1e-11],
            [np.nan, 1.0],
        ])
        mask = g.contains_points(pts)
        assert mask.tolist() == [True, True, False, False, False]
        for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError):
                g.contains_points(bad)


class TestFields:
    def test_scalar_field_validates_length(self, grid_2d):
        with pytest.raises(ValueError):
            ScalarField(grid_2d, np.zeros(grid_2d.cell_count + 1))

    def test_scalar_field_rejects_nan(self, grid_2d):
        vals = np.zeros(grid_2d.cell_count)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid_2d, vals)

    def test_vector_field_shape(self, grid_2d):
        with pytest.raises(ValueError):
            VectorField(grid_2d, np.zeros((3, grid_2d.cell_count)))

    def test_total_mass(self, grid_2d):
        f = ScalarField(grid_2d, np.full(grid_2d.cell_count, 2.0))
        assert f.total_mass() == pytest.approx(2.0 * grid_2d.cell_count)


class TestSampling:
    def test_cell_center_reproduces_stored_vector(self):
        g = CellGrid([4, 3], [0.5, 1.0])
        rng = philox(3)
        v = VectorField(g, rng.standard_normal((2, g.cell_count)))
        got = interpolate_components(g, v.components, g.cell_centers()[[0, 5, 11]])
        np.testing.assert_allclose(got, v.components[:, [0, 5, 11]].T)

    def test_1d_midpoint(self):
        g = CellGrid([2], [1.0])
        v = VectorField(g, np.array([[1.0, 3.0]]))
        got = interpolate_components(g, v.components, np.array([[1.0]]))
        assert got[0, 0] == pytest.approx(2.0)

    def test_constant_field_everywhere(self):
        g = CellGrid([5, 5], [0.2, 0.2])
        v = VectorField(g, np.repeat([[0.7], [-0.3]], g.cell_count, axis=1))
        rng = philox(11)
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, size=2)
            np.testing.assert_allclose(
                interpolate_components(g, v.components, p[None, :])[0], [0.7, -0.3]
            )

    @pytest.mark.parametrize("dims,spacing", [([9], [0.7]), ([6, 8], [0.5, 0.3]),
                                              ([5, 4, 6], [0.3, 0.4, 0.2])])
    def test_affine_fields_exact_in_interior(self, dims, spacing):
        g = CellGrid(dims, spacing)
        rng = philox(sum(dims))
        coef = rng.standard_normal((g.ndim, g.ndim))
        offset = rng.standard_normal(g.ndim)
        comp = (coef @ g.cell_centers().T) + offset[:, None]
        v = VectorField(g, comp)
        lo = np.asarray(spacing)  # one full cell away from each wall
        hi = np.asarray(g.lengths) - lo
        for _ in range(10):
            p = rng.uniform(lo, hi)
            np.testing.assert_allclose(
                interpolate_components(g, v.components, p[None, :])[0], coef @ p + offset,
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("dims", [(7,), (6, 5), (4, 5, 3), (6, 1), (3, 1, 4)])
    def test_bit_identical_to_per_corner_sums(self, dims):
        g = CellGrid(dims, [0.5] * len(dims))
        rng = philox(len(dims) + sum(dims))
        comp = rng.standard_normal((g.ndim, g.cell_count))
        # interior points, cell centers and both walls of every axis
        pts = np.vstack([rng.uniform(0, g.lengths, (50, g.ndim)), g.cell_centers(),
                         np.zeros((1, g.ndim)), np.asarray(g.lengths)[None, :]])
        assert np.array_equal(interpolate_components(g, comp, pts),
                              per_corner_interpolate(g, comp, pts))

    def test_clamped_in_wall_strip(self):
        # between the wall and the first cell center the value is held constant
        g = CellGrid([4], [1.0])
        v = VectorField(g, np.array([[2.0, 0.0, 0.0, -1.0]]))
        got = interpolate_components(g, v.components, np.array([[0.1], [3.9]]))
        assert got[:, 0] == pytest.approx([2.0, -1.0])

    def test_rejects_outside_domain(self):
        # tracing is the one caller that takes points from outside the grid
        g = CellGrid([4], [1.0])
        v = VelocitySeries(g, TimeGrid.unit_horizon(1), np.zeros((1, 1, 4)))
        with pytest.raises(OutsideDomainError):
            trace_streamlines(v, [[-0.5]], 0.5, 10)
        with pytest.raises(OutsideDomainError):
            trace_streamlines(v, [[4.5]], 0.5, 10)
