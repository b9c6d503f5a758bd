import types

import numpy as np
import pytest

from otflow import (
    Blob,
    DensitySeries,
    ImplicitDiffusion,
    ScalarField,
    SynthSpec,
    TimeGrid,
    VectorField,
    VelocityModel,
    VelocitySeries,
    advect_step,
    analytic_evolution,
    assemble_diffusion_operator,
    build_grid,
    diffuse_step,
    initial_density,
    simulate,
    true_velocity_series,
)

from otflow.forward import SplitStep, forward_frames, linearized_sweep

from conftest import gradient_check_instance, philox, smooth_velocity


def test_forward_submodule_imports_as_module():
    import otflow.forward as m

    assert isinstance(m, types.ModuleType)


class TestTimeGrid:
    def test_horizon_product(self):
        tg = TimeGrid.unit_horizon(4)
        assert tg.steps * tg.dt == pytest.approx(1.0, abs=1e-12)
        assert TimeGrid(3, 0.5).horizon == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 0.1)
        with pytest.raises(ValueError):
            TimeGrid(2, -0.1)

    def test_series_shape_checks(self):
        g = build_grid([4], [1.0])
        tg = TimeGrid.unit_horizon(2)
        with pytest.raises(ValueError):
            DensitySeries(g, tg, np.zeros((2, 4)))  # needs steps+1 frames
        with pytest.raises(ValueError):
            VelocitySeries(g, tg, np.zeros((2, 2, 4)))  # 1-d grid, 1 component


class TestAdvectStep:
    def test_zero_velocity_identity(self, grid_2d):
        rho = ScalarField(grid_2d, philox(0).uniform(0, 1, grid_2d.cell_count))
        out = advect_step(rho, VectorField.zeros(grid_2d), 0.25)
        np.testing.assert_allclose(out.values, rho.values)

    def test_1d_hand_deposit(self):
        g = build_grid([4], [1.0])
        rho = ScalarField(g, [0.0, 1.0, 0.0, 0.0])
        out = advect_step(rho, VectorField.constant(g, [0.5]), 1.0)
        np.testing.assert_allclose(out.values, [0, 0.5, 0.5, 0])

    def test_mass_conserved_random_velocity(self):
        g = build_grid([12, 10], [0.1, 0.1])
        rho = ScalarField(g, philox(4).uniform(0, 1, g.cell_count))
        for seed in range(5):
            v = VectorField(g, smooth_velocity(g, seed, scale=0.2))
            out = advect_step(rho, v, 0.25)
            assert out.total_mass() == pytest.approx(rho.total_mass(), rel=1e-13)
            assert out.values.min() >= 0.0

    def test_rejects_negative_density(self, grid_2d):
        rho = ScalarField(grid_2d, np.full(grid_2d.cell_count, -1.0))
        with pytest.raises(ValueError):
            advect_step(rho, VectorField.zeros(grid_2d), 0.1)


class TestDiffuseStep:
    def test_sigma_zero_identity(self, grid_2d):
        rho = ScalarField(grid_2d, philox(1).uniform(0, 1, grid_2d.cell_count))
        out = diffuse_step(rho, 0.0, 0.25)
        np.testing.assert_allclose(out.values, rho.values)

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
        g = build_grid(list(dims), list(spacing))
        sigma, dt = 1.0, 0.5
        A = assemble_diffusion_operator(g, sigma).toarray()
        solver = ImplicitDiffusion(g, sigma, dt)
        b = philox(6).uniform(0, 1, g.cell_count)
        expected = np.linalg.solve(np.eye(g.cell_count) - dt * A, b)
        got = solver.apply(b)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.array_equal(solver.apply(np.zeros(g.cell_count)), np.zeros(g.cell_count))

    def test_3cell_hand_elimination(self):
        # (I - A) rho = [0, 1, 0] with sigma = h = dt = 1, eliminated by hand
        g = build_grid([3], [1.0])
        out = diffuse_step(ScalarField(g, [0.0, 1.0, 0.0]), 1.0, 1.0)
        np.testing.assert_allclose(out.values, [0.25, 0.5, 0.25], rtol=1e-10)

    def test_mass_conserved(self):
        g = build_grid([10, 10], [0.1, 0.1])
        for seed in range(5):
            rho = ScalarField(g, philox(seed).uniform(0, 1, g.cell_count))
            out = diffuse_step(rho, 0.3, 0.25)
            assert out.total_mass() == pytest.approx(rho.total_mass(), rel=1e-10)
            assert out.values.min() >= 0.0


class TestForward:
    def test_identity_dynamics(self):
        g = build_grid([6, 6], [1 / 6, 1 / 6])
        tg = TimeGrid.unit_horizon(3)
        rho0 = ScalarField(g, philox(3).uniform(0, 1, g.cell_count))
        out = simulate(VelocitySeries.zeros(g, tg), rho0, 0.0)
        for n in range(4):
            np.testing.assert_allclose(out.values[n], rho0.values)

    def test_gaussian_oracle_small(self):
        spec = SynthSpec(
            dims=(48, 48), spacing=(1 / 48, 1 / 48),
            blobs=(Blob((0.38, 0.40), 0.12, 1.0),),
            velocity=VelocityModel("constant", value=(0.23, 0.17)),
            sigma_true=0.01,
        )
        tg = TimeGrid.unit_horizon(6)
        got = simulate(true_velocity_series(spec, tg), initial_density(spec), 0.01)
        want = analytic_evolution(spec, 1.0)
        rel = np.linalg.norm(got.values[-1] - want.values) / np.linalg.norm(want.values)
        assert rel < 0.05

    def test_mass_conserved_with_diffusion(self):
        g = build_grid([12, 12], [1 / 12, 1 / 12])
        tg = TimeGrid.unit_horizon(4)
        rho0 = ScalarField(g, philox(8).uniform(0, 1, g.cell_count))
        for seed in range(3):
            v = VelocitySeries(
                g, tg, np.stack([smooth_velocity(g, seed + 10 * n, 0.1) for n in range(4)])
            )
            out = simulate(v, rho0, 0.05)
            drift = np.abs(out.masses() - rho0.total_mass()).max()
            assert drift <= 1e-9 * rho0.total_mass()
            assert out.values.min() >= 0.0

    def test_bitwise_deterministic(self):
        g = build_grid([10, 10], [0.1, 0.1])
        tg = TimeGrid.unit_horizon(3)
        rho0 = ScalarField(g, philox(5).uniform(0, 1, g.cell_count))
        v = VelocitySeries(g, tg, np.stack([smooth_velocity(g, n, 0.1) for n in range(3)]))
        a = simulate(v, rho0, 0.02)
        b = simulate(v, rho0, 0.02)
        assert np.array_equal(a.values, b.values)


class TestSplitStep:
    @pytest.mark.parametrize(
        "dims, spacing",
        [((9, 7), (0.1, 0.15)), ((5, 4, 6), (0.2, 0.25, 0.15))],
        ids=["2d", "3d"],
    )
    def test_dot_product_identities(self, dims, spacing):
        g = build_grid(list(dims), list(spacing))
        rng = philox(21)
        dt = 0.25
        v = VectorField(g, smooth_velocity(g, 3, scale=0.3))
        step = SplitStep(v, ImplicitDiffusion(g, 0.2, dt))
        D = step.diffusion.apply
        rho = rng.uniform(0.5, 1.5, g.cell_count)
        x, y = rng.standard_normal((2, g.cell_count))
        dv = rng.standard_normal((g.ndim, g.cell_count))
        # the solve D is symmetric: y -> pull(D y) is the transpose of push
        assert x @ step.pull(D(y)) == pytest.approx(step.push(x) @ y, rel=1e-12)
        assert (dv * step.vjp(rho, y)).sum() == pytest.approx(step.jvp(rho, dv) @ y, rel=1e-12)
        # the transposes are views of the matrices, not copies
        for M, M_T in zip([step.S, *step.G], [step.S_T, *step.G_T], strict=True):
            assert np.shares_memory(M_T.data, M.data)

    @pytest.mark.parametrize("seed,sigma", [(0, 0.0), (1, 0.01)])
    def test_linearized_sweep_matches_central_difference(self, seed, sigma):
        # velocities and directions from the gradient check: clear of deposit kinks
        rho0, _, _, v, dv = gradient_check_instance(seed, sigma)
        diffusion = ImplicitDiffusion(v.grid, sigma, v.time_grid.dt)
        frames, steps = forward_frames(v.values, rho0.values, diffusion)
        got = linearized_sweep(steps, frames, dv.values)
        eps = 1e-6
        plus, _ = forward_frames(v.values + eps * dv.values, rho0.values, diffusion)
        minus, _ = forward_frames(v.values - eps * dv.values, rho0.values, diffusion)
        fd = (plus - minus) / (2 * eps)
        assert np.array_equal(got[0], np.zeros(v.grid.cell_count))
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-7 * np.abs(fd).max())
