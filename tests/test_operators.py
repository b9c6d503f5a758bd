import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

import otflow.forward
from otflow.forward import ImplicitDiffusion, Sweep, adjoint_sweep, forward_frames, linearized_sweep
from otflow.grid import CellGrid, ScalarField
from otflow.operators import _deposit_stencil, advection_interp_matrix, advection_weight_gradients

from oracles import assemble_diffusion_operator
from conftest import philox


def deposit(grid, v, dt):
    """S of one interval of velocity v, shape (d, s), from its own stencil."""
    return advection_interp_matrix(grid, _deposit_stencil(grid, v, dt))


def face_gradients(grid, v, dt):
    """The T_k of one interval, from its own stencil."""
    return advection_weight_gradients(grid, [_deposit_stencil(grid, v, dt)], dt)


def written_out(grid, T, k):
    """Delta_k T_k as a dense matrix: row i - e_k of T_k minus row i, where the
    row before the first along axis k counts 0."""
    rows = T.toarray().reshape(*grid.dims[::-1], -1)
    lead = (slice(None),) * (grid.ndim - 1 - k)
    G = -rows
    G[lead + (slice(1, None),)] += rows[lead + (slice(None, -1),)]
    return G.reshape(grid.cell_count, -1)


grids = st.sampled_from(
    [([7], [0.5]), ([4, 5], [0.5, 0.25]), ([3, 4, 3], [0.3, 0.25, 0.5]), ([1, 6], [1.0, 0.2])]
)


class TestDiffusionOperator:
    def test_sigma_zero_is_zero_operator(self):
        A = assemble_diffusion_operator(CellGrid([4, 4], [1.0, 1.0]), 0.0)
        assert A.nnz == 0

    def test_1d_neumann_stencil(self):
        A = assemble_diffusion_operator(CellGrid([3], [1.0]), 1.0)
        np.testing.assert_allclose(
            A.toarray(), [[-1, 1, 0], [1, -2, 1], [0, 1, -1]]
        )

    def test_scaling_with_sigma_and_spacing(self):
        A = assemble_diffusion_operator(CellGrid([3], [0.5]), 2.0)
        # entries scale with sigma^2 / h^2 = 16
        np.testing.assert_allclose(A.toarray()[1], [16, -32, 16])

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            assemble_diffusion_operator(CellGrid([3], [1.0]), -0.1)

    @settings(max_examples=20, deadline=None)
    @given(grids, st.sampled_from([0.002, 0.2, 1.0]), st.integers(0, 10**6))
    def test_symmetric_conservative_negative_semidefinite(self, geom, sigma, seed):
        grid = CellGrid(*geom)
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
        g = CellGrid([4, 3], [1.0, 0.5])
        S = deposit(g, np.zeros((2, g.cell_count)), 0.7)
        np.testing.assert_allclose(S.toarray(), np.eye(g.cell_count))

    def test_1d_half_cell_split(self):
        g = CellGrid([4], [1.0])
        S = deposit(g, np.full((1, 4), 0.5), 1.0)
        np.testing.assert_allclose(S @ np.array([0.0, 1.0, 0.0, 0.0]), [0, 0.5, 0.5, 0])

    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(0, 10**6), st.sampled_from([0.1, 0.25, 1.0]))
    def test_columns_sum_to_one(self, geom, seed, dt):
        grid = CellGrid(*geom)
        rng = philox(seed)
        S = deposit(grid, rng.uniform(-1.5, 1.5, (grid.ndim, grid.cell_count)), dt)
        colsums = np.asarray(S.sum(axis=0)).ravel()
        np.testing.assert_allclose(colsums, 1.0, atol=1e-14)
        assert S.data.min() >= 0.0
        assert S.data.max() <= 1.0 + 1e-15

    def test_outflow_clamps_to_boundary_cell(self):
        # a particle pushed past the wall deposits everything in the last cell
        g = CellGrid([4], [1.0])
        S = deposit(g, np.full((1, 4), 10.0), 1.0)
        out = S @ np.array([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(out, [0, 0, 0, 1.0])

    def test_one_cell_axis_deposits_like_the_flat_grid(self):
        # motion along a 1-cell axis moves nothing, so (4, 1, 6) is exactly (4, 6)
        flat = CellGrid([4, 6], [0.25, 0.2])
        thick = CellGrid([4, 1, 6], [0.25, 0.5, 0.2])
        rng = philox(0)
        vel = rng.uniform(-1.0, 1.0, (3, thick.cell_count))
        vel[1] = rng.uniform(0.2, 1.0, thick.cell_count)  # every particle leaves its center
        x = rng.uniform(0.0, 1.0, thick.cell_count)
        S_thick = deposit(thick, vel, 0.3)
        S_flat = deposit(flat, vel[[0, 2]], 0.3)
        assert np.array_equal(S_thick @ x, S_flat @ x)


def _corner_flat(grid, base, offsets):
    """Flat cell index of one stencil corner (indices clipped for 1-cell axes)."""
    idx = [np.minimum(base[k] + offsets[k], grid.dims[k] - 1) for k in range(grid.ndim)]
    return np.ravel_multi_index(idx, grid.dims, order="F")


def _corner_weight(frac, offsets):
    w = np.ones(frac.shape[1])
    for k, bit in enumerate(offsets):
        w *= frac[k] if bit else (1.0 - frac[k])
    return w


def _reference_deposit(grid, v, dt):
    """The COO -> canonical CSR assembly of S and the G_k that the shared CSC
    pattern replaced, with the transposes copied to CSR as the step kept them."""
    lower, frac, live = _deposit_stencil(grid, v, dt)
    base = np.unravel_index(lower, grid.dims, order="F")
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
        "dims, spacing",
        [([9, 7], [0.1, 0.2]), ([6, 5, 4], [0.2, 0.25, 0.3]), ([4, 1, 6], [0.25, 0.5, 0.2])],
    )
    def test_products_match_csr_assembly_bitwise(self, dims, spacing):
        grid = CellGrid(dims, spacing)
        rng = philox(17)
        # displacements of several cells push many particles past the walls
        v = rng.uniform(-2.0, 2.0, (grid.ndim, grid.cell_count))
        dt = 0.5
        x = rng.standard_normal(grid.cell_count)
        y = rng.standard_normal(grid.cell_count)
        S = deposit(grid, v, dt)
        faces = face_gradients(grid, v, dt)
        S_ref, grads_ref = _reference_deposit(grid, v, dt)
        assert np.array_equal(S @ x, S_ref @ x)
        assert np.array_equal(S.T @ y, S_ref.T.tocsr() @ y)
        assert np.shares_memory(S.T.data, S.data)
        assert np.shares_memory(S.T.indices, S.indices)
        for k, (T, G_ref) in enumerate(zip(faces, grads_ref, strict=True)):
            # half of G_k's entries: the lower corner along k of each pair
            assert T.nnz == grid.cell_count * 2 ** (grid.ndim - 1)
            assert np.array_equal(written_out(grid, T, k), G_ref.toarray())


class TestBuildersWriteInPlace:
    @pytest.mark.parametrize("builder", ["S", "T"])
    def test_peak_beyond_the_returned_matrices_is_two_cell_arrays(self, builder):
        # 3D, m = 3: a (2^d, s) temporary or a transposed copy of the corner
        # rows or weights would hold at least 4 s-length arrays
        grid = CellGrid([16, 16, 16], [1 / 16] * 3)
        s, dt = grid.cell_count, 1 / 3
        rng = philox(11)
        stencils = [_deposit_stencil(grid, rng.uniform(-0.2, 0.2, (3, s)), dt)
                    for _ in range(3)]
        build = {"S": lambda: [advection_interp_matrix(grid, st) for st in stencils],
                 "T": lambda: advection_weight_gradients(grid, stencils, dt)}[builder]
        build()  # warm-up: first-call allocations are not the builder's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrices = build()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the arrays the matrices keep, each counted once (the T_k share indptr)
        kept = {id(a): a.nbytes for M in matrices for a in (M.data, M.indices, M.indptr)}
        # one 1 - frac or one scale, and the buffer casting one corner's rows;
        # 4 KiB for the Python objects of the calls
        assert peak - sum(kept.values()) <= 2 * s * 8 + 4096


def _one_step_jvp(grid, v, dt, rho, dv):
    """The velocity derivative of S(v) @ rho in direction dv, from a one-interval sweep."""
    sweep = Sweep(v[None], ImplicitDiffusion(grid, 0.0, dt))
    return sweep.jvp(rho[None], dv[None])[0]


class TestWeightGradients:
    def test_zero_direction_gives_zero(self):
        g = CellGrid([5], [1.0])
        rho = ScalarField(g, np.ones(5))
        out = _one_step_jvp(g, np.full((1, 5), 0.3), 0.5, rho.values, np.zeros((1, 5)))
        np.testing.assert_allclose(out, 0.0)

    def test_mid_cell_weights_are_inverse_spacing(self):
        # particle sits mid-way between two centers: dw/d(displacement) = -1/h, +1/h
        g = CellGrid([4], [2.0])
        v = np.array([[0.0, 1.0, 0.0, 0.0]])  # cell 1 lands mid-cell
        T = face_gradients(g, v, 1.0)[0]
        np.testing.assert_allclose(T.toarray()[:, 1], [0, 0.5, 0, 0])
        np.testing.assert_allclose(written_out(g, T, 0)[:, 1], [0, -0.5, 0.5, 0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_forward_difference(self, seed):
        g = CellGrid([6, 5], [0.5, 0.4])
        rng = philox(seed)
        # keep particles clear of deposit kinks so the derivative is two-sided
        v = 0.11 + 0.05 * rng.random((2, g.cell_count))
        dv = rng.standard_normal((2, g.cell_count))
        rho = ScalarField(g, rng.uniform(0.5, 1.5, g.cell_count))
        dt = 0.25
        eps = 1e-6
        S0 = deposit(g, v, dt)
        S1 = deposit(g, v + eps * dv, dt)
        fd = (S1 @ rho.values - S0 @ rho.values) / eps
        got = _one_step_jvp(g, v, dt, rho.values, dv)
        np.testing.assert_allclose(got, fd, atol=1e-6 * np.abs(fd).max())

    def test_adjoint_identity(self):
        # float32 as the inner CG runs it, float64 as the gradient does
        for dims, (dtype, rel) in product(
            [(5, 4), (4, 1, 6), (6, 5, 4)], [(np.float64, 1e-12), (np.float32, 1e-5)]
        ):
            g = CellGrid(list(dims), [1.0 / n for n in dims])
            rng = philox(9)
            steps = 3
            # displacements of up to 1.5 cells push many particles past the walls
            cells = rng.uniform(-1.5, 1.5, (steps, g.ndim, g.cell_count))
            v = cells * steps / np.asarray(dims)[:, None]
            frames, sweep = forward_frames(v, rng.uniform(0.0, 1.0, g.cell_count),
                                           ImplicitDiffusion(g, 0.0, 1.0 / steps))
            sweep.cast(dtype)
            rho = frames[:-1].astype(dtype)
            dv = rng.standard_normal(v.shape).astype(dtype)
            y = rng.standard_normal(rho.shape).astype(dtype)
            jvp, vjp = sweep.jvp(rho, dv), sweep.vjp(rho, y)
            assert jvp.dtype == vjp.dtype == dtype
            got = float((vjp.astype(float) * dv).sum())
            assert got == pytest.approx(float((jvp.astype(float) * y).sum()), rel=rel)


class TestSharedStencil:
    @pytest.mark.parametrize("dims", [(12, 10), (6, 5, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("faces_first", [False, True], ids=["S-first", "T-first"])
    def test_one_stencil_per_interval(self, monkeypatch, dims, faces_first):
        g = CellGrid(list(dims), [1.0 / n for n in dims])
        steps = 4
        calls = []
        stencil = otflow.forward._deposit_stencil
        monkeypatch.setattr(otflow.forward, "_deposit_stencil",
                            lambda *args: calls.append(args) or stencil(*args))
        rng = philox(3)
        v = 0.3 * rng.standard_normal((steps, g.ndim, g.cell_count))
        diffusion = ImplicitDiffusion(g, 0.05, 1.0 / steps)
        if faces_first:
            # a sweep whose derivative is built before any deposit
            sweep = Sweep(v, diffusion)
            frames = np.tile(rng.uniform(0.0, 1.0, g.cell_count), (steps + 1, 1))
            sweep.jvp(frames[:-1], v)
            sweep.push(0, frames[0])
        else:
            frames, sweep = forward_frames(v, rng.uniform(0.0, 1.0, g.cell_count), diffusion)
        linearized_sweep(sweep, frames, v)
        adjoint_sweep(sweep, frames, ({steps: frames[-1]},), np.zeros_like(v))
        sweep.cast(np.float32)
        assert len(calls) == steps
        assert "_stencils" not in sweep.__dict__
