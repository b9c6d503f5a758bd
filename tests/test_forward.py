import types

import numpy as np
import pytest

from otflow.forward import (
    DensitySeries,
    ImplicitDiffusion,
    VelocitySeries,
    adjoint_sweep,
    forward_frames,
    linearized_sweep,
)
from otflow.grid import CellGrid, ScalarField
from otflow.solver import ObservationEntry, ObservationSet, SolverConfig, objective
from otflow.synth import (
    Blob,
    SynthSpec,
    VelocityModel,
    true_density,
    true_velocity_series,
)


from oracles import (
    assemble_diffusion_operator,
    interval_adjoint_sweep,
    interval_linearized_sweep,
    tensordot_diffusion,
)
from conftest import gradient_check_instance, one_step, philox, smooth_velocity


def test_forward_submodule_imports_as_module():
    import otflow.forward as m

    assert isinstance(m, types.ModuleType)


class TestSeries:
    def test_shape_checks(self):
        g = CellGrid([4], [1.0])
        with pytest.raises(ValueError):
            DensitySeries(g, np.zeros((1, 4)))  # needs frames 0..m of m >= 1 intervals
        with pytest.raises(ValueError):
            DensitySeries(g, np.zeros((3, 5)))  # one value per cell
        with pytest.raises(ValueError):
            VelocitySeries(g, np.zeros((0, 1, 4)))  # at least one interval
        with pytest.raises(ValueError):
            VelocitySeries(g, np.zeros((2, 2, 4)))  # 1-d grid, 1 component


class TestAdvectStep:
    def test_zero_velocity_identity(self, grid_2d):
        rho = philox(0).uniform(0, 1, grid_2d.cell_count)
        at_rest = np.zeros((2, grid_2d.cell_count))
        out = one_step(at_rest, rho, ImplicitDiffusion(grid_2d, 0.0, 0.25))
        np.testing.assert_allclose(out, rho)

    def test_1d_hand_deposit(self):
        g = CellGrid([4], [1.0])
        out = one_step(np.full((1, 4), 0.5), np.array([0.0, 1.0, 0.0, 0.0]),
                       ImplicitDiffusion(g, 0.0, 1.0))
        np.testing.assert_allclose(out, [0, 0.5, 0.5, 0])

    def test_mass_conserved_random_velocity(self):
        g = CellGrid([12, 10], [0.1, 0.1])
        rho = philox(4).uniform(0, 1, g.cell_count)
        for seed in range(5):
            v = smooth_velocity(g, seed, scale=0.2)
            out = one_step(v, rho, ImplicitDiffusion(g, 0.0, 0.25))
            assert out.sum() == pytest.approx(rho.sum(), rel=1e-13)
            assert out.min() >= 0.0

    def test_rejects_non_finite_velocity(self, grid_2d):
        v = np.zeros((2, 2, grid_2d.cell_count))
        v[1, 0, 3] = np.nan
        with pytest.raises(ValueError, match="velocity components must be finite"):
            forward_frames(v, np.ones(grid_2d.cell_count), ImplicitDiffusion(grid_2d, 0.0, 0.5))

    def test_rejects_negative_density(self, grid_2d):
        # the model's input rule, checked where the pipeline enters it
        rho = ScalarField(grid_2d, np.full(grid_2d.cell_count, -1.0))
        v = VelocitySeries(grid_2d, np.zeros((1, 2, grid_2d.cell_count)))
        obs = ObservationSet([ObservationEntry(0, rho), ObservationEntry(1, rho)])
        with pytest.raises(ValueError, match="initial density must be nonnegative"):
            objective(v, obs, SolverConfig(time_steps=1))


class TestDiffuseStep:
    def test_sigma_zero_identity(self, grid_2d):
        rho = philox(1).uniform(0, 1, grid_2d.cell_count)
        at_rest = np.zeros((2, grid_2d.cell_count))
        out = one_step(at_rest, rho, ImplicitDiffusion(grid_2d, 0.0, 0.25))
        np.testing.assert_allclose(out, rho)

    @pytest.mark.parametrize(
        "dims, spacing",
        [
            ((3,), (1.0,)),
            ((7,), (0.2,)),
            ((5, 9), (0.3, 0.1)),
            ((4, 1, 6), (0.25, 1.0, 0.15)),
        ],
        ids=["3", "7", "5x9", "4x1x6"],
    )
    def test_3cell_direct_elimination_oracle(self, dims, spacing):
        # oracle: dense solve of (I - dt A) x = b with the assembled operator
        g = CellGrid(list(dims), list(spacing))
        sigma, dt = 1.0, 0.5
        A = assemble_diffusion_operator(g, sigma).toarray()
        solver = ImplicitDiffusion(g, sigma, dt)
        b = philox(6).uniform(0, 1, g.cell_count)
        expected = np.linalg.solve(np.eye(g.cell_count) - dt * A, b)
        got = solver.apply(b)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(solver.apply(np.zeros(g.cell_count)), np.zeros(g.cell_count))

    @pytest.mark.parametrize(
        "dims",
        [(17,), (32, 32), (64, 64), (12, 20), (4, 1, 6), (8, 12, 20), (24, 24, 24)],
        ids=["17", "32x32", "64x64", "12x20", "4x1x6", "8x12x20", "24x24x24"],
    )
    def test_bitwise_equal_to_tensordot_reference(self, dims):
        g = CellGrid(list(dims), [1.0 / n for n in dims])
        solver = ImplicitDiffusion(g, 0.05, 0.25)
        for b in philox(7).standard_normal((4, g.cell_count)):
            kept = b.copy()
            got = solver.apply(b)
            assert np.array_equal(got, tensordot_diffusion(solver, b))
            assert np.array_equal(b, kept)  # the input is left unchanged
            assert not np.shares_memory(got, b)

    def test_3cell_hand_elimination(self):
        # (I - A) rho = [0, 1, 0] with sigma = h = dt = 1, eliminated by hand
        g = CellGrid([3], [1.0])
        out = one_step(np.zeros((1, g.cell_count)), np.array([0.0, 1.0, 0.0]),
                       ImplicitDiffusion(g, 1.0, 1.0))
        np.testing.assert_allclose(out, [0.25, 0.5, 0.25], rtol=1e-10)

    def test_mass_conserved(self):
        g = CellGrid([10, 10], [0.1, 0.1])
        for seed in range(5):
            rho = philox(seed).uniform(0, 1, g.cell_count)
            out = one_step(np.zeros((2, g.cell_count)), rho,
                           ImplicitDiffusion(g, 0.3, 0.25))
            assert out.sum() == pytest.approx(rho.sum(), rel=1e-10)
            assert out.min() >= 0.0


class TestForward:
    def test_identity_dynamics(self):
        g = CellGrid([6, 6], [1 / 6, 1 / 6])
        dt = 1 / 3
        rho0 = ScalarField(g, philox(3).uniform(0, 1, g.cell_count))
        v = np.zeros((3, 2, g.cell_count))
        out, _ = forward_frames(v, rho0.values, ImplicitDiffusion(g, 0.0, dt))
        for n in range(4):
            np.testing.assert_allclose(out[n], rho0.values)

    def test_gaussian_oracle_small(self):
        spec = SynthSpec(
            dims=(48, 48), spacing=(1 / 48, 1 / 48),
            blobs=(Blob((0.38, 0.40), 0.12, 1.0),),
            velocity=VelocityModel("constant", value=(0.23, 0.17)),
            sigma_true=0.01,
        )
        dt = 1 / 6
        got, _ = forward_frames(true_velocity_series(spec, 6).values,
                                true_density(spec, 0.0).values,
                                ImplicitDiffusion(spec.grid, 0.01, dt))
        want = true_density(spec, 1.0)
        rel = np.linalg.norm(got[-1] - want.values) / np.linalg.norm(want.values)
        assert rel < 0.05

    def test_mass_conserved_with_diffusion(self):
        g = CellGrid([12, 12], [1 / 12, 1 / 12])
        dt = 1 / 4
        rho0 = ScalarField(g, philox(8).uniform(0, 1, g.cell_count))
        for seed in range(3):
            v = np.stack([smooth_velocity(g, seed + 10 * n, 0.1) for n in range(4)])
            out, _ = forward_frames(v, rho0.values, ImplicitDiffusion(g, 0.05, dt))
            drift = np.abs(out.sum(axis=1) - rho0.total_mass()).max()
            assert drift <= 1e-9 * rho0.total_mass()
            assert out.min() >= 0.0

    def test_bitwise_deterministic(self):
        g = CellGrid([10, 10], [0.1, 0.1])
        dt = 1 / 3
        rho0 = ScalarField(g, philox(5).uniform(0, 1, g.cell_count))
        v = np.stack([smooth_velocity(g, n, 0.1) for n in range(3)])
        a, _ = forward_frames(v, rho0.values, ImplicitDiffusion(g, 0.02, dt))
        b, _ = forward_frames(v, rho0.values, ImplicitDiffusion(g, 0.02, dt))
        assert np.array_equal(a, b)


class TestSplitStep:
    @pytest.mark.parametrize(
        "dims, spacing",
        [((9, 7), (0.1, 0.15)), ((5, 4, 6), (0.2, 0.25, 0.15))],
        ids=["2d", "3d"],
    )
    def test_dot_product_identities(self, dims, spacing):
        g = CellGrid(list(dims), list(spacing))
        rng = philox(21)
        dt = 0.25
        v = smooth_velocity(g, 3, scale=0.3)
        rho = rng.uniform(0.5, 1.5, (1, g.cell_count))
        _, sweep = forward_frames(v[None], rho[0], ImplicitDiffusion(g, 0.2, dt))
        D = sweep.diffusion.apply
        x, y = rng.standard_normal((2, g.cell_count))
        dv = rng.standard_normal((1, g.ndim, g.cell_count))
        # the solve D is symmetric: y -> S^T (D y) is the transpose of push
        assert x @ (sweep.S_T[0] @ D(y)) == pytest.approx(sweep.push(0, x) @ y, rel=1e-12)
        assert (dv * sweep.vjp(rho, y)).sum() == pytest.approx(sweep.jvp(rho, dv)[0] @ y, rel=1e-12)
        # the transposes are views of the matrices, not copies
        for M, M_T in zip([*sweep.S, *sweep.T], [*sweep.S_T, *sweep.T_T], strict=True):
            assert np.shares_memory(M_T.data, M.data)

    @pytest.mark.parametrize("seed,sigma", [(0, 0.0), (1, 0.01)])
    def test_linearized_sweep_matches_central_difference(self, seed, sigma):
        # velocities and directions from the gradient check: clear of deposit kinks
        rho0, _, _, v, dv = gradient_check_instance(seed, sigma)
        diffusion = ImplicitDiffusion(v.grid, sigma, 1 / len(v.values))
        frames, steps = forward_frames(v.values, rho0.values, diffusion)
        got = linearized_sweep(steps, frames, dv.values)
        eps = 1e-6
        plus, _ = forward_frames(v.values + eps * dv.values, rho0.values, diffusion)
        minus, _ = forward_frames(v.values - eps * dv.values, rho0.values, diffusion)
        fd = (plus - minus) / (2 * eps)
        assert np.array_equal(got[0], np.zeros(v.grid.cell_count))
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-7 * np.abs(fd).max())


class TestBatchedSweeps:
    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize(
        "dims", [(17,), (12, 20), (4, 1, 6), (8, 12, 20)], ids=["17", "12x20", "4x1x6", "8x12x20"]
    )
    def test_bitwise_equal_to_interval_reference(self, dims, sigma, steps):
        g = CellGrid(list(dims), [1.0 / n for n in dims])
        dt = 1 / steps
        rng = philox(31)
        # displacements of up to 1.5 cells push many particles past the walls
        cells = rng.uniform(-1.5, 1.5, (steps, g.ndim, g.cell_count))
        v = cells * (np.asarray(g.spacing)[:, None] / dt)
        rho0 = rng.uniform(0.0, 1.0, g.cell_count)
        dv = rng.standard_normal(v.shape)
        frames, sweep = forward_frames(v, rho0, ImplicitDiffusion(g, sigma, dt))
        got = linearized_sweep(sweep, frames, dv)
        assert np.array_equal(got, interval_linearized_sweep(sweep, frames, dv))
        # two source mappings, one of them on every frame, added in order
        sources = (
            {n: rng.standard_normal(g.cell_count) for n in range(1, steps + 1)},
            {steps: got[steps]},
        )
        start = rng.standard_normal(v.shape)
        want = interval_adjoint_sweep(sweep, frames, sources, start.copy())
        assert np.array_equal(adjoint_sweep(sweep, frames, sources, start.copy()), want)
