from itertools import product

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

from otflow import ScalarField, VectorField, advect_velocity_jacobian_apply, build_grid
from otflow.grid import _corner_flat, _corner_weight
from otflow.operators import (
    _deposit_stencil,
    advection_interp_matrix,
    advection_weight_gradients,
    assemble_diffusion_operator,
)

from conftest import philox

grids = st.sampled_from(
    [([7], [0.5]), ([4, 5], [0.5, 0.25]), ([3, 4, 3], [0.3, 0.25, 0.5]), ([1, 6], [1.0, 0.2])]
)


class TestDiffusionOperator:
    def test_sigma_zero_is_zero_operator(self):
        A = assemble_diffusion_operator(build_grid([4, 4], [1.0, 1.0]), 0.0)
        assert A.nnz == 0

    def test_1d_neumann_stencil(self):
        A = assemble_diffusion_operator(build_grid([3], [1.0]), 1.0)
        np.testing.assert_allclose(
            A.toarray(), [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]
        )

    def test_scaling_with_sigma_and_spacing(self):
        A = assemble_diffusion_operator(build_grid([3], [0.5]), 2.0)
        # entries scale with sigma^2 / h^2 = 16
        np.testing.assert_allclose(A.toarray()[1], [16, -32, 16])

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            assemble_diffusion_operator(build_grid([3], [1.0]), -0.1)

    @settings(max_examples=20, deadline=None)
    @given(grids, st.sampled_from([0.002, 0.2, 1.0]), st.integers(0, 10**6))
    def test_symmetric_conservative_negative_semidefinite(self, geom, sigma, seed):
        grid = build_grid(*geom)
        A = assemble_diffusion_operator(grid, sigma)
        dense = A.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-14)
        np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-14)
        ones = np.ones(grid.cell_count)
        np.testing.assert_allclose(ones @ dense, 0.0, atol=1e-13)
        x = philox(seed).standard_normal(grid.cell_count)
        assert x @ (A @ x) <= 1e-12 * (x @ x)


class TestDepositMatrix:
    def test_zero_velocity_is_identity(self):
        g = build_grid([4, 3], [1.0, 0.5])
        S = advection_interp_matrix(g, VectorField.zeros(g), 0.7)
        np.testing.assert_allclose(S.toarray(), np.eye(g.cell_count))

    def test_1d_half_cell_split(self):
        g = build_grid([4], [1.0])
        S = advection_interp_matrix(g, VectorField.constant(g, [0.5]), 1.0)
        np.testing.assert_allclose(S @ np.array([0.0, 1.0, 0.0, 0.0]), [0, 0.5, 0.5, 0])

    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(0, 10**6), st.sampled_from([0.1, 0.25, 1.0]))
    def test_columns_sum_to_one(self, geom, seed, dt):
        grid = build_grid(*geom)
        rng = philox(seed)
        v = VectorField(grid, rng.uniform(-1.5, 1.5, (grid.ndim, grid.cell_count)))
        S = advection_interp_matrix(grid, v, dt)
        colsums = np.asarray(S.sum(axis=0)).ravel()
        np.testing.assert_allclose(colsums, 1.0, atol=1e-14)
        assert S.data.min() >= 0.0
        assert S.data.max() <= 1.0 + 1e-15

    def test_outflow_clamps_to_boundary_cell(self):
        # a particle pushed past the wall deposits everything in the last cell
        g = build_grid([4], [1.0])
        S = advection_interp_matrix(g, VectorField.constant(g, [10.0]), 1.0)
        out = S @ np.array([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(out, [0, 0, 0, 1.0])

    def test_one_cell_axis_deposits_like_the_flat_grid(self):
        # motion along a 1-cell axis moves nothing, so (4, 1, 6) is exactly (4, 6)
        flat = build_grid([4, 6], [0.25, 0.2])
        thick = build_grid([4, 1, 6], [0.25, 0.5, 0.2])
        rng = philox(0)
        vel = rng.uniform(-1.0, 1.0, (3, thick.cell_count))
        vel[1] = rng.uniform(0.2, 1.0, thick.cell_count)  # every particle leaves its center
        x = rng.uniform(0.0, 1.0, thick.cell_count)
        S_thick = advection_interp_matrix(thick, VectorField(thick, vel), 0.3)
        S_flat = advection_interp_matrix(flat, VectorField(flat, vel[[0, 2]]), 0.3)
        assert np.array_equal(S_thick @ x, S_flat @ x)


def _reference_deposit(grid, v, dt):
    """The COO -> canonical CSR assembly of S and the G_k that the shared CSC
    pattern replaced, with the transposes copied to CSR as the step kept them."""
    base, frac, live = _deposit_stencil(grid, v, dt)
    s = grid.cell_count
    corners = list(product((0, 1), repeat=grid.ndim))

    def assemble(vals):
        rows = np.concatenate([_corner_flat(grid, base, c) for c in corners])
        cols = np.tile(np.arange(s), len(corners))
        mat = sparse.coo_matrix((np.concatenate(vals), (rows, cols)), shape=(s, s)).tocsr()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat

    S = assemble([_corner_weight(frac, c) for c in corners])
    grads = []
    for k in range(grid.ndim):
        scale = (dt / grid.spacing[k]) * live[k]
        vals = []
        for c in corners:
            partial = np.ones(s)
            for axis, bit in enumerate(c):
                if axis != k:
                    partial *= frac[axis] if bit else (1.0 - frac[axis])
            vals.append((1.0 if c[k] else -1.0) * scale * partial)
        grads.append(assemble(vals))
    return S, grads


class TestDepositPattern:
    @pytest.mark.parametrize(
        "dims, spacing", [([9, 7], [0.1, 0.2]), ([6, 5, 4], [0.2, 0.25, 0.3])]
    )
    def test_products_match_csr_assembly_bitwise(self, dims, spacing):
        grid = build_grid(dims, spacing)
        rng = philox(17)
        # displacements of several cells push many particles past the walls
        v = VectorField(grid, rng.uniform(-2.0, 2.0, (grid.ndim, grid.cell_count)))
        dt = 0.5
        x = rng.standard_normal(grid.cell_count)
        y = rng.standard_normal(grid.cell_count)
        S = advection_interp_matrix(grid, v, dt)
        grads = advection_weight_gradients(grid, v, dt)
        S_ref, grads_ref = _reference_deposit(grid, v, dt)
        assert np.array_equal(S @ x, S_ref @ x)
        assert np.array_equal(S.T @ y, S_ref.T.tocsr() @ y)
        assert np.shares_memory(S.T.data, S.data)
        assert np.shares_memory(S.T.indices, S.indices)
        for G, G_ref in zip(grads, grads_ref, strict=True):
            assert np.array_equal(G @ x, G_ref @ x)
            assert np.array_equal(G.T @ y, G_ref.T.tocsr() @ y)
            assert np.array_equal(G.indices, S.indices)
            assert np.shares_memory(G.indices, grads[0].indices)


class TestWeightGradients:
    def test_zero_direction_gives_zero(self):
        g = build_grid([5], [1.0])
        rho = ScalarField(g, np.ones(5))
        v = VectorField.constant(g, [0.3])
        out = advect_velocity_jacobian_apply(rho, v, VectorField.zeros(g), 0.5)
        np.testing.assert_allclose(out.values, 0.0)

    def test_mid_cell_weights_are_inverse_spacing(self):
        # particle sits mid-way between two centers: dw/d(displacement) = -1/h, +1/h
        g = build_grid([4], [2.0])
        v = VectorField(g, np.array([[0.0, 1.0, 0.0, 0.0]]))  # cell 1 lands mid-cell
        G = advection_weight_gradients(g, v, 1.0)[0]
        col = G.toarray()[:, 1]
        np.testing.assert_allclose(col, [0, -0.5, 0.5, 0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_forward_difference(self, seed):
        g = build_grid([6, 5], [0.5, 0.4])
        rng = philox(seed)
        # keep particles clear of deposit kinks so the derivative is two-sided
        v = VectorField(g, 0.11 + 0.05 * rng.random((2, g.cell_count)))
        dv = VectorField(g, rng.standard_normal((2, g.cell_count)))
        rho = ScalarField(g, rng.uniform(0.5, 1.5, g.cell_count))
        dt = 0.25
        eps = 1e-6
        S0 = advection_interp_matrix(g, v, dt)
        S1 = advection_interp_matrix(
            g, VectorField(g, v.components + eps * dv.components), dt
        )
        fd = (S1 @ rho.values - S0 @ rho.values) / eps
        got = advect_velocity_jacobian_apply(rho, v, dv, dt)
        np.testing.assert_allclose(got.values, fd, atol=1e-6 * np.abs(fd).max())

    def test_adjoint_identity(self):
        g = build_grid([5, 4], [0.5, 0.5])
        rng = philox(9)
        v = VectorField(g, 0.08 * rng.standard_normal((2, g.cell_count)))
        grads = advection_weight_gradients(g, v, 0.3)
        x = rng.standard_normal(g.cell_count)
        y = rng.standard_normal(g.cell_count)
        for G in grads:
            assert y @ (G @ x) == pytest.approx((G.T @ y) @ x, rel=1e-12)
