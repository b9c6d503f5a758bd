import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse

import otflow.forward
import otflow.solver
from otflow.errors import ConfigError, GridMismatchError
from otflow.forward import (
    DensitySeries,
    ImplicitDiffusion,
    TimeGrid,
    VelocitySeries,
    forward_frames,
    linearized_sweep,
)
from otflow.grid import CellGrid, ScalarField
from otflow.solver import (
    GN_CG_MAX_ITERS,
    ObservationEntry,
    ObservationSet,
    SolverConfig,
    _energy_curvature,
    _gn_direction,
    _gn_hessian_apply,
    _gn_step,
    _gradient_values,
    _linearised_start,
    _weighted_laplacian,
    gradient,
    objective,
    registration_errors,
    solve,
    solve_baseline,
)
from otflow.synth import (
    Blob,
    SynthSpec,
    VelocityModel,
    add_noise,
    true_density,
    true_velocity_series,
)

from oracles import (
    finite_difference_gradient,
    interval_adjoint_sweep,
    interval_linearized_sweep,
    unpreconditioned_gn_step,
)
from conftest import gaussian_blob, gradient_check_instance, philox, translating_pair


def _pair_obs(rho0, target, steps):
    return ObservationSet([ObservationEntry(0, rho0), ObservationEntry(steps, target)])


class TestObservationSet:
    def test_requires_initial_and_later_entry(self, grid_2d):
        f = ScalarField(grid_2d, np.ones(grid_2d.cell_count))
        with pytest.raises(ValueError):
            ObservationSet([ObservationEntry(1, f)])
        with pytest.raises(ValueError):
            ObservationSet([ObservationEntry(0, f)])

    def test_rejects_bad_weights(self, grid_2d):
        f = ScalarField(grid_2d, np.ones(grid_2d.cell_count))
        for weight in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ObservationEntry(0, f, weight=weight)

    def test_rejects_duplicate_indices(self, grid_2d):
        f = ScalarField(grid_2d, np.ones(grid_2d.cell_count))
        with pytest.raises(ValueError):
            ObservationSet(
                [ObservationEntry(0, f), ObservationEntry(2, f), ObservationEntry(2, f)]
            )


class TestSolverConfig:
    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(stop_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma=-1.0)


class TestObjective:
    def test_perfect_fit_is_zero(self):
        g = CellGrid([6, 6], [1 / 6, 1 / 6])
        rho0 = gaussian_blob(g, (0.5, 0.5), 0.15, 1.0)
        cfg = SolverConfig(sigma=0.0, alpha=1.0, time_steps=2)
        v = VelocitySeries(g, TimeGrid.unit_horizon(2), np.zeros((2, g.ndim, g.cell_count)))
        val = objective(v, _pair_obs(rho0, rho0, 2), cfg)
        assert val.total == 0.0

    def test_constant_offset_misfit(self):
        g = CellGrid([5, 4], [0.3, 0.3])
        rho0 = ScalarField(g, np.full(g.cell_count, 0.5))
        c, alpha = 0.2, 3.0
        shifted = ScalarField(g, rho0.values + c)
        cfg = SolverConfig(sigma=0.0, alpha=alpha, time_steps=2)
        v = VelocitySeries(g, TimeGrid.unit_horizon(2), np.zeros((2, g.ndim, g.cell_count)))
        val = objective(v, _pair_obs(rho0, shifted, 2), cfg)
        assert val.energy == 0.0
        assert val.misfit == pytest.approx(alpha * g.cell_count * c**2, rel=1e-12)
        assert val.total == val.energy + val.misfit

    def test_tiny_energy_hand_value(self):
        # unit spacing, one unit step, uniform speed 0.5 over unit total mass
        g = CellGrid([4], [1.0])
        rho0 = ScalarField(g, [0.0, 1.0, 0.0, 0.0])
        tg = TimeGrid(1, 1.0)
        v = VelocitySeries(g, tg, np.full((1, 1, 4), 0.5))
        advected = ScalarField(g, [0.0, 0.5, 0.5, 0.0])
        cfg = SolverConfig(sigma=0.0, alpha=1.0, time_steps=1)
        val = objective(v, _pair_obs(rho0, advected, 1), cfg)
        assert val.energy == pytest.approx(0.125, rel=1e-12)
        assert val.misfit == pytest.approx(0.0, abs=1e-25)


class TestGradient:
    def test_zero_at_global_minimum(self):
        g = CellGrid([6, 6], [1 / 6, 1 / 6])
        rho0 = gaussian_blob(g, (0.5, 0.5), 0.15, 1.0)
        cfg = SolverConfig(sigma=0.0, alpha=1.0, time_steps=2)
        v = VelocitySeries(g, TimeGrid.unit_horizon(2), np.zeros((2, g.ndim, g.cell_count)))
        grad = gradient(v, _pair_obs(rho0, rho0, 2), cfg)
        np.testing.assert_allclose(grad.values, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed,sigma", [(0, 0.0), (1, 0.002), (2, 0.01)])
    def test_matches_central_differences(self, seed, sigma):
        _, obs, cfg, v, dv = gradient_check_instance(seed, sigma)
        grad = gradient(v, obs, cfg)
        adjoint = float((grad.values * dv.values).sum())
        fd = finite_difference_gradient(
            lambda w: objective(w, obs, cfg).total, v, dv, 1e-5
        )
        assert adjoint == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_matches_central_differences_with_weighted_interior_frames(self, sigma):
        rho0, obs, cfg, v, dv = gradient_check_instance(3, sigma)
        grid = rho0.grid
        interior = [
            ObservationEntry(n, ScalarField(grid, gaussian_blob(grid, c, 0.15, 1.0).values
                                            + 0.05 / grid.cell_count), weight)
            for n, c, weight in ((1, (0.48, 0.53), 2.5), (2, (0.52, 0.57), 0.7))
        ]
        obs = ObservationSet(obs.entries + interior)
        adjoint = float((gradient(v, obs, cfg).values * dv.values).sum())
        fd = finite_difference_gradient(lambda w: objective(w, obs, cfg).total, v, dv, 1e-5)
        assert adjoint == pytest.approx(fd, rel=1e-5)

    def test_misfit_part_linear_in_alpha(self):
        rho0, _, _, v, _ = gradient_check_instance(5, 0.0)
        grid, tg = v.grid, v.time_grid
        target = gaussian_blob(grid, (0.6, 0.5), 0.15, 1.0)

        def grad_at(alpha):
            obs = _pair_obs(rho0, target, 3)
            cfg = SolverConfig(sigma=0.0, alpha=alpha, time_steps=3)
            return gradient(v, obs, cfg).values

        g1, g2, g3 = grad_at(1.0), grad_at(2.0), grad_at(3.0)
        np.testing.assert_allclose(g3 - g2, g2 - g1, rtol=1e-10, atol=1e-18)
        misfit_part = g2 - g1  # per unit alpha
        np.testing.assert_allclose(
            grad_at(10.0), g1 + 9.0 * misfit_part, rtol=1e-9, atol=1e-18
        )


class TestGaussNewtonProduct:
    @pytest.mark.parametrize("seed,sigma", [(3, 0.0), (4, 0.01)])
    def test_symmetric_positive_semidefinite(self, seed, sigma):
        rho0, obs, cfg, v, _ = gradient_check_instance(seed, sigma)
        diffusion = ImplicitDiffusion(v.grid, sigma, v.time_grid.dt)
        frames, steps = forward_frames(v.values, rho0.values, diffusion)
        rng = philox(40 + seed)
        x, y = rng.standard_normal((2,) + v.values.shape)
        energy = _energy_curvature(frames, steps)
        hx = _gn_hessian_apply(x, frames, steps, obs, cfg.alpha, energy)
        hy = _gn_hessian_apply(y, frames, steps, obs, cfg.alpha, energy)
        assert (x * hy).sum() == pytest.approx((hx * y).sum(), rel=1e-12)
        assert (hx * x).sum() >= 0.0


def _blob_problem(dims, steps):
    """Two blobs apart, observed at the first and the last frame."""
    grid = CellGrid(list(dims), [1.0 / n for n in dims])
    rho0 = gaussian_blob(grid, (0.4,) * grid.ndim, 0.2, 1.0)
    target = gaussian_blob(grid, (0.55,) * grid.ndim, 0.2, 1.0)
    config = SolverConfig(sigma=0.05, alpha=10.0, time_steps=steps, max_gn_iters=3)
    return rho0, target, config


class TestBatchedSweeps:
    @pytest.mark.parametrize("dims, steps", [((12, 10), 4), ((6, 5, 4), 3)], ids=["2d", "3d"])
    def test_gn_product_makes_two_sparse_products_per_interval_and_axis(
        self, monkeypatch, dims, steps
    ):
        rho0, target, config = _blob_problem(dims, steps)
        grid = rho0.grid
        rng = philox(12)
        v = 0.2 * rng.standard_normal((steps, grid.ndim, grid.cell_count))
        dv = rng.standard_normal(v.shape)
        frames, sweep = forward_frames(v, rho0.values, ImplicitDiffusion(grid, config.sigma, 1.0 / steps))
        calls = []
        for cls in (sparse.csc_matrix, sparse.csr_matrix):
            product = cls._matmul_vector
            monkeypatch.setattr(
                cls, "_matmul_vector", lambda M, x, product=product: calls.append(M) or product(M, x)
            )
        energy = _energy_curvature(frames, sweep)
        _gn_hessian_apply(dv, frames, sweep, _pair_obs(rho0, target, steps), config.alpha, energy)
        # m - 1 pushes (the first interval deposits drho_0 = 0, which is
        # skipped), m - 1 pulls, one jvp and one vjp product per axis
        assert len(calls) == 2 * steps + 2 * grid.ndim - 2

    def test_sweeps_that_only_advance_build_no_derivatives(self, monkeypatch):
        rho0, _, config = _blob_problem((12, 10), 4)
        grid, tg = rho0.grid, TimeGrid.unit_horizon(4)
        builds = []
        build = otflow.forward.advection_weight_gradients
        monkeypatch.setattr(
            otflow.forward, "advection_weight_gradients",
            lambda *args: builds.append(args) or build(*args),
        )
        v = 0.2 * philox(13).standard_normal((4, grid.ndim, grid.cell_count))
        frames, sweep = forward_frames(v, rho0.values, ImplicitDiffusion(grid, config.sigma, tg.dt))
        assert builds == []
        linearized_sweep(sweep, frames, v)
        linearized_sweep(sweep, frames, v)
        assert len(builds) == 1

    @pytest.mark.parametrize("dims, steps", [((12, 10), 4), ((6, 5, 4), 3)], ids=["2d", "3d"])
    def test_solves_byte_equal_with_interval_sweeps(self, monkeypatch, dims, steps):
        rho0, target, config = _blob_problem(dims, steps)
        obs = _pair_obs(rho0, target, steps)
        batched = [solve(obs, config), solve_baseline(obs, config)]
        monkeypatch.setattr(otflow.solver, "linearized_sweep", interval_linearized_sweep)
        monkeypatch.setattr(otflow.solver, "adjoint_sweep", interval_adjoint_sweep)
        reference = [solve(obs, config), solve_baseline(obs, config)]
        for got, want in zip(batched, reference):
            assert len(got.diagnostics) == 4  # three GN iterations
            assert got.velocity.values.tobytes() == want.velocity.values.tobytes()
            assert got.densities.values.tobytes() == want.densities.values.tobytes()


def _linearisation(dims, sigma, steps=3):
    """A float64 linearisation of `_blob_problem` at a random velocity, with
    its derivatives built, as the solve holds it after the gradient."""
    rho0, target, config = _blob_problem(dims, steps)
    grid = rho0.grid
    v = 0.2 * philox(14).standard_normal((steps, grid.ndim, grid.cell_count))
    frames, sweep = forward_frames(v, rho0.values, ImplicitDiffusion(grid, sigma, 1.0 / steps))
    sweep.T
    return frames, sweep, _pair_obs(rho0, target, steps), config.alpha


class TestSinglePrecisionProduct:
    cases = pytest.mark.parametrize(
        "dims, sigma",
        [((12, 10), 0.0), ((12, 10), 0.05), ((6, 5, 4), 0.0), ((6, 5, 4), 0.05)],
        ids=["2d-sigma0", "2d", "3d-sigma0", "3d"],
    )

    @staticmethod
    def _cast(frames, sweep):
        frames = frames.astype(np.float32)
        sweep.cast(np.float32)
        return frames, sweep, _energy_curvature(frames, sweep)

    @cases
    def test_float32_operands_stay_float32(self, monkeypatch, dims, sigma):
        frames, sweep, obs, alpha = _linearisation(dims, sigma)
        matrices = [*sweep.S, *sweep.T]
        index_arrays = [(M.indices, M.indptr) for M in matrices]
        frames32, sweep32, energy = self._cast(frames, sweep)
        # each matrix is cast in place and keeps its own index arrays
        for M, M32, (indices, indptr) in zip(
            matrices, [*sweep32.S, *sweep32.T], index_arrays, strict=True
        ):
            assert M32 is M
            assert M32.dtype == np.float32
            assert M32.indices is indices
            assert M32.indptr is indptr
        # the cached transposes are views of the cast weights, not the old ones
        assert {M.dtype for M in (*sweep32.S_T, *sweep32.T_T)} == {np.dtype(np.float32)}
        diffusion = sweep32.diffusion
        if sigma > 0:
            assert {C.dtype for C in diffusion.bases + diffusion.bases_T} == {np.dtype(np.float32)}
            assert diffusion.eigenvalues.dtype == np.float32
        assert frames32.dtype == energy.dtype == np.float32
        # every sparse product, diffusion solve and injection sees float32 only
        operands = []

        def recorded(fn):
            def wrapper(*args):
                out = fn(*args)
                operands.extend(a.dtype for a in (*args, out) if hasattr(a, "dtype"))
                return out
            return wrapper

        for cls in (sparse.csc_matrix, sparse.csr_matrix):
            monkeypatch.setattr(cls, "_matmul_vector", recorded(cls._matmul_vector))
        monkeypatch.setattr(otflow.forward.ImplicitDiffusion, "apply",
                            recorded(otflow.forward.ImplicitDiffusion.apply))
        monkeypatch.setattr(otflow.forward.Sweep, "jvp", recorded(otflow.forward.Sweep.jvp))
        dv = philox(15).standard_normal((len(sweep.S), len(dims), frames.shape[1]))
        hv = _gn_hessian_apply(dv.astype(np.float32), frames32, sweep32, obs, alpha, energy)
        assert hv.dtype == np.float32
        assert operands and set(operands) == {np.dtype(np.float32)}

    @cases
    def test_agrees_with_float64_product_and_stays_symmetric(self, dims, sigma):
        frames, sweep, obs, alpha = _linearisation(dims, sigma)
        energy = _energy_curvature(frames, sweep)
        rng = philox(16)
        u, w = rng.standard_normal((2, len(sweep.S), len(dims), frames.shape[1]))
        hu64 = _gn_hessian_apply(u, frames, sweep, obs, alpha, energy)
        frames32, sweep32, energy32 = self._cast(frames, sweep)
        hu, hw = (
            _gn_hessian_apply(x.astype(np.float32), frames32, sweep32, obs, alpha, energy32)
            .astype(float)
            for x in (u, w)
        )
        assert np.linalg.norm(hu - hu64) <= 1e-4 * np.linalg.norm(hu64)
        assert (u * hw).sum() == pytest.approx((hu * w).sum(), rel=1e-5)


def _compact_problem(dims, steps):
    """`_blob_problem` without diffusion and with blobs cut to exact zeros
    below a fifth of their peak, so some rho_n vanish exactly."""
    rho0, target, config = _blob_problem(dims, steps)
    for field in (rho0, target):
        field.values[field.values < 0.2 * field.values.max()] = 0.0
    return rho0, target, dataclasses.replace(config, sigma=0.0)


def _cast_linearisation(rho0, target, config, steps=3):
    """The operands of the solve's CG at a random velocity: the float64
    gradient and frames, the float32 frames, the sweep cast to float32, the
    observations and the float32 energy curvature."""
    grid = rho0.grid
    obs = _pair_obs(rho0, target, steps)
    v = 0.2 * philox(17).standard_normal((steps, grid.ndim, grid.cell_count))
    diffusion = ImplicitDiffusion(grid, config.sigma, 1.0 / steps)
    frames, sweep = forward_frames(v, rho0.values, diffusion)
    g = _gradient_values(v, frames, sweep, obs, config.alpha)
    sweep.cast(np.float32)
    frames32 = frames.astype(np.float32)
    energy = _energy_curvature(frames32, sweep)
    return g, frames, frames32, sweep, obs, energy


class TestPreconditionedStep:
    @pytest.mark.parametrize("dims", [(12, 10), (6, 5, 4)], ids=["2d", "3d"])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_constant_diagonal_is_the_plain_cg(self, dims, scale):
        # a power-of-two constant diagonal scales z, p and the products
        # exactly, so it cancels in every step length, bit for bit
        rho0, target, config = _blob_problem(dims, 3)
        g, _, frames32, sweep, obs, energy = _cast_linearisation(rho0, target, config)
        products = []

        def hess_apply(dv):
            products.append(1)
            return _gn_hessian_apply(dv, frames32, sweep, obs, config.alpha, energy)

        g32 = g.astype(np.float32)
        got = _gn_step(hess_apply, g32, np.full_like(energy, scale))
        ran = len(products)
        want = unpreconditioned_gn_step(hess_apply, g32)
        assert ran > 1 and len(products) == 2 * ran
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_zero_density_gives_zero_direction(self):
        rho0, target, config = _compact_problem((12, 10), 3)
        g, frames, _, sweep, obs, energy = _cast_linearisation(rho0, target, config)
        empty = frames[:-1] == 0.0  # (m, s)
        assert empty.any() and (energy[:, 0] == 0).any()
        direction = _gn_direction(g, frames, sweep, obs, config.alpha)
        assert direction.dtype == np.float64
        assert np.isfinite(direction).all()
        assert (direction.transpose(0, 2, 1)[empty] == 0.0).all()
        assert (direction.transpose(0, 2, 1)[~empty] != 0.0).any()

    @pytest.mark.parametrize("problem", [_blob_problem, _compact_problem], ids=["blob", "compact"])
    def test_at_most_the_cap_of_products_and_the_energy_diagonal(self, monkeypatch, problem):
        rho0, target, config = problem((12, 10), 3)
        gn_shape = (3, 2, rho0.grid.cell_count)  # (m, d, s)
        products, steps = [], []
        hessian_apply = otflow.solver._gn_hessian_apply
        cg = otflow.solver._gn_step

        def counted(*args):
            products.append(args[-1])  # the energy diagonal of this linearisation
            return hessian_apply(*args)

        def gn_step(hess_apply, grad, diag):
            start = len(products)
            x = cg(hess_apply, grad, diag)
            if grad.shape == gn_shape:  # a Gauss-Newton step, not the start's solve
                steps.append((products[start:], diag))
            return x

        monkeypatch.setattr(otflow.solver, "_gn_hessian_apply", counted)
        monkeypatch.setattr(otflow.solver, "_gn_step", gn_step)
        res = solve(_pair_obs(rho0, target, 3), config)
        assert GN_CG_MAX_ITERS == 30
        assert len(steps) == len(res.diagnostics) - 1 == 3
        for energies, diag in steps:
            assert 1 <= len(energies) <= GN_CG_MAX_ITERS
            energy = energies[0]
            assert all(e is energy for e in energies)
            assert diag.dtype == np.float32
            assert diag.tobytes() == np.where(energy > 0, energy, 1).tobytes()


class TestWeightedLaplacian:
    @staticmethod
    def _operator(dims, seed):
        grid = CellGrid(list(dims), [1.0 / (n + 1) for n in dims])
        rho_bar = philox(seed).uniform(0.1, 2.0, grid.cell_count)
        return (*_weighted_laplacian(rho_bar, grid), philox(seed + 1))

    @pytest.mark.parametrize("dims", [(7,), (6, 5), (4, 5, 3)], ids=["1d", "2d", "3d"])
    def test_symmetric(self, dims):
        laplacian, _, rng = self._operator(dims, 3)
        x, y = rng.standard_normal((2, int(np.prod(dims))))
        assert laplacian(x) @ y == pytest.approx(x @ laplacian(y), rel=1e-12)

    @pytest.mark.parametrize("dims", [(7,), (6, 5), (4, 5, 3)], ids=["1d", "2d", "3d"])
    def test_constants_in_null_space_and_conservative(self, dims):
        laplacian, _, rng = self._operator(dims, 5)
        size = int(np.prod(dims))
        assert (laplacian(np.full(size, 2.5)) == 0.0).all()
        out = laplacian(rng.standard_normal(size))
        assert abs(out.sum()) <= 1e-12 * np.abs(out).sum()

    @pytest.mark.parametrize("dims", [(7,), (6, 5), (4, 5, 3)], ids=["1d", "2d", "3d"])
    def test_diagonal_is_the_operators(self, dims):
        laplacian, diag, _ = self._operator(dims, 7)
        unit = np.eye(int(np.prod(dims)))
        np.testing.assert_allclose([laplacian(e) @ e for e in unit], diag, rtol=1e-14)

    def test_length_one_axis_is_a_dropped_axis(self):
        # canonical order is the same with and without a length-1 axis
        rho_bar, x = philox(9).uniform(0.1, 2.0, (2, 24))
        full, full_diag = _weighted_laplacian(rho_bar, CellGrid([6, 1, 4], [0.2, 0.5, 0.25]))
        flat, flat_diag = _weighted_laplacian(rho_bar, CellGrid([6, 4], [0.2, 0.25]))
        assert full(x).tobytes() == flat(x).tobytes()
        assert full_diag.tobytes() == flat_diag.tobytes()


def _rotating_pair(n=48):
    """Two blobs rotating about the centre of an n x n unit square, rate 0.6."""
    spec = SynthSpec(
        dims=(n, n),
        spacing=(1 / n, 1 / n),
        blobs=(Blob((0.3, 0.5), 0.08, 1.0), Blob((0.7, 0.5), 0.08, 1.0)),
        velocity=VelocityModel("rotation", center=(0.5, 0.5), rate=0.6),
    )
    return spec, true_density(spec, 0.0), true_density(spec, 1.0)


class TestLinearisedStart:
    def test_translation_drifts_by_the_shift(self):
        spec, truth0, truth_T = translating_pair()
        shift = np.asarray(spec.velocity.value)
        tg = TimeGrid.unit_horizon(4)
        v = _linearised_start(_pair_obs(truth0, truth_T, 4), tg)
        frames, _ = forward_frames(v, truth0.values, ImplicitDiffusion(truth0.grid, 0.0, tg.dt))
        # the mass-weighted displacement over the swept frames
        drift = sum(tg.dt * (rho * v_n).sum(axis=1) / rho.sum() for rho, v_n in zip(frames, v))
        assert drift[0] / shift[0] == pytest.approx(1.0, abs=0.03)
        assert abs(drift[1]) <= 1e-3 * shift[0]

    @pytest.mark.parametrize("case", [
        ("translation", 32, 3, 0.3), ("translation", 32, 3, 300.0),
        ("translation", 64, 6, 0.3), ("translation", 64, 6, 300.0),
        ("rotation", 48, None, 0.3), ("rotation", 48, None, 300.0),
    ], ids=lambda c: f"{c[0]}{c[1]}-alpha{c[3]:g}")
    def test_reaches_the_optimum_of_the_true_velocity(self, monkeypatch, case):
        # 40 noise-free Gauss-Newton iterations from the start end at or below
        # phi(v*) and within 2x of the phi that the same iterations reach from v*
        kind, n, shift_cells, alpha = case
        if kind == "translation":
            spec, truth0, truth_T = translating_pair(n=n, shift_cells=shift_cells)
        else:
            spec, truth0, truth_T = _rotating_pair(n)
        obs = _pair_obs(truth0, truth_T, 4)
        config = SolverConfig(sigma=0.0, alpha=alpha, time_steps=4, max_gn_iters=40)
        v_star = true_velocity_series(spec, TimeGrid.unit_horizon(4))
        phi_star = objective(v_star, obs, config).total
        from_start = solve(obs, config).diagnostics[-1].phi
        monkeypatch.setattr(otflow.solver, "_linearised_start", lambda *_: v_star.values.copy())
        from_truth = solve(obs, config).diagnostics[-1].phi
        assert from_start <= phi_star
        assert from_start <= 2.0 * from_truth

    @pytest.mark.parametrize("kind", ["identical", "empty"])
    def test_exactly_zero_without_transport(self, kind):
        grid = CellGrid([9, 7], [1 / 9, 1 / 7])
        rho = gaussian_blob(grid, (0.4, 0.5), 0.2, 1.0)
        if kind == "empty":
            rho = ScalarField(grid, np.zeros(grid.cell_count))
        obs = _pair_obs(rho, ScalarField(grid, rho.values.copy()), 3)
        v = _linearised_start(obs, TimeGrid.unit_horizon(3))
        assert v.shape == (3, 2, grid.cell_count)
        assert (v == 0.0).all()
        res = solve(obs, SolverConfig(sigma=0.0, time_steps=3))
        assert res.termination == "gradient" and len(res.diagnostics) == 1

    def test_a_consistent_positive_definite_system_where_mass_is_missing(self, monkeypatch):
        # zero flux through the walls needs a right-hand side of zero sum, and
        # the floor on rho_bar keeps every face weight positive where the
        # observations vanish, so the preconditioner is L's own diagonal
        rho0, target, _ = _compact_problem((12, 10), 3)
        target.values *= 1.5
        systems = []
        cg = otflow.solver._gn_step

        def gn_step(hess_apply, grad, diag):
            systems.append((hess_apply, grad, diag))
            return cg(hess_apply, grad, diag)

        monkeypatch.setattr(otflow.solver, "_gn_step", gn_step)
        v = _linearised_start(_pair_obs(rho0, target, 3), TimeGrid.unit_horizon(3))
        ((laplacian, rhs, diag),) = systems
        assert (rho0.values == 0.0).any() and abs(rhs.sum()) <= 1e-12 * np.abs(rhs).sum()
        assert (diag > 0).all()
        unit = np.eye(rho0.grid.cell_count)
        np.testing.assert_allclose([laplacian(e) @ e for e in unit], diag, rtol=1e-12)
        assert np.isfinite(v).all() and (v != 0.0).any()

    def test_single_cell_grid_stays_finite(self):
        grid = CellGrid([1, 1], [0.5, 0.5])
        obs = _pair_obs(ScalarField(grid, [1.0]), ScalarField(grid, [2.0]), 2)
        v = _linearised_start(obs, TimeGrid.unit_horizon(2))
        assert (v == 0.0).all()

    def test_one_flow_per_observation_interval(self, monkeypatch):
        # iteration 0 of a three-observation solve: constant on each interval
        # between observations and different between them
        grid = CellGrid([24, 16], [1 / 24, 1 / 16])
        entries = [ObservationEntry(n, gaussian_blob(grid, (x, 0.5), 0.12, 1.0))
                   for n, x in ((0, 0.35), (2, 0.45), (4, 0.5))]
        starts = []
        sweep_of = otflow.solver.forward_frames

        def forward_frames_spy(v, *args):
            starts.append(v.copy())
            return sweep_of(v, *args)

        monkeypatch.setattr(otflow.solver, "forward_frames", forward_frames_spy)
        solve(ObservationSet(entries), SolverConfig(sigma=0.0, time_steps=4, max_gn_iters=1))
        v = starts[0]
        assert v[0].tobytes() == v[1].tobytes() and v[2].tobytes() == v[3].tobytes()
        assert v[0].tobytes() != v[2].tobytes()
        # the mean-density-weighted velocity is the blob's shift over its time:
        # 0.1 in 0.5 on the first interval, 0.05 in 0.5 on the second
        for (a, b), n, speed in zip(zip(entries, entries[1:]), (0, 2), (0.2, 0.1)):
            rho_bar = a.observed.values + b.observed.values
            assert (rho_bar * v[n, 0]).sum() / rho_bar.sum() == pytest.approx(speed, rel=0.02)


class TestSolve:
    def test_identical_endpoints_trivial(self):
        g = CellGrid([8, 8], [1 / 8, 1 / 8])
        rho0 = gaussian_blob(g, (0.5, 0.5), 0.15, 1.0)
        cfg = SolverConfig(sigma=0.0, alpha=1.0, time_steps=3)
        res = solve(_pair_obs(rho0, rho0, 3), cfg)
        assert res.converged
        assert len(res.diagnostics) <= 2
        assert res.diagnostics[-1].phi == 0.0
        np.testing.assert_allclose(res.velocity.values, 0.0)

    def test_translating_pair_recovers_displacement(self):
        spec, truth0, truth_T = translating_pair()
        shift = np.asarray(spec.velocity.value)
        cfg = SolverConfig(sigma=0.0, alpha=1000.0, time_steps=4, max_gn_iters=50)
        res = solve(_pair_obs(truth0, truth_T, 4), cfg)
        disp = np.zeros(2)
        for n in range(4):
            rho_n = res.densities.values[n]
            disp += res.velocity.time_grid.dt * (
                rho_n * res.velocity.values[n]
            ).sum(axis=1) / rho_n.sum()
        assert np.linalg.norm(disp - shift) <= 0.15 * np.linalg.norm(shift)

    def test_denoises_noisy_endpoint(self):
        # clean endpoint must sit closer to the truth than the raw observation
        spec, truth0, truth_T = translating_pair(n=16, shift_cells=2, width=0.14)
        noise_std = 0.05 * truth0.values.max()
        observed_T = add_noise(truth_T, noise_std, 31)
        cfg = SolverConfig(sigma=0.05, alpha=0.3, time_steps=4, max_gn_iters=30)
        res = solve(_pair_obs(truth0, observed_T, 4), cfg)
        (mse_clean,), _ = registration_errors(res.densities.frame(4), truth_T)
        (mse_obs,), _ = registration_errors(observed_T, truth_T)
        assert mse_clean < mse_obs

    def test_descent_and_diagnostics(self):
        spec, truth0, truth_T = translating_pair(n=16, shift_cells=2, width=0.14)
        cfg = SolverConfig(sigma=0.0, alpha=10.0, time_steps=3, max_gn_iters=8)
        res = solve(_pair_obs(truth0, truth_T, 3), cfg)
        phis = [r.phi for r in res.diagnostics]
        assert all(b <= a for a, b in zip(phis, phis[1:]))
        assert res.diagnostics[0].iteration == 0
        assert res.diagnostics[0].step_length == 0.0
        header = res.diagnostics_csv().splitlines()[0]
        assert header == "iter,phi,energy,misfit,grad_norm,step_length"
        assert len(res.diagnostics_csv().splitlines()) == len(phis) + 1

    def test_iteration_cap_reports_not_converged(self):
        spec, truth0, truth_T = translating_pair(n=16, shift_cells=2, width=0.14)
        cfg = SolverConfig(sigma=0.0, alpha=10.0, time_steps=3, max_gn_iters=1,
                           stop_tolerance=1e-12)
        res = solve(_pair_obs(truth0, truth_T, 3), cfg)
        assert not res.converged
        assert res.termination == "max_iters"

    def test_returns_float64(self):
        rho0, target, config = _blob_problem((12, 10), 3)
        res = solve(_pair_obs(rho0, target, 3), config)
        assert res.velocity.values.dtype == res.densities.values.dtype == np.float64

    def test_cg_runs_with_the_float64_linearisation_released(self, monkeypatch):
        rho0, target, config = _blob_problem((12, 10), 3)
        gn_shape = (3, 2, rho0.grid.cell_count)  # (m, d, s)
        swept, cast, weights, seen = [], [], [], []
        sweep_of = otflow.solver.forward_frames
        cast_of = otflow.forward.Sweep.cast
        cg = otflow.solver._gn_step

        def forward_frames(*args):
            # the cast sweep is dropped before the line search
            assert all(ref() is None for ref in cast)
            frames, sweep = sweep_of(*args)
            swept.append(weakref.ref(sweep))
            return frames, sweep

        def sweep_cast(sweep, dtype):
            for M in (*sweep.S, *sweep.T):
                weights.extend(weakref.ref(a) for a in (M.data, M.data.base)
                               if isinstance(a, np.ndarray))
            cast.append(weakref.ref(sweep))
            return cast_of(sweep, dtype)

        def gn_step(hess_apply, grad, diag):
            if grad.shape != gn_shape:  # the start's solve, before any sweep
                return cg(hess_apply, grad, diag)
            # in the CG every float64 weight array is dead, and the accepted
            # sweep, cast to float32, is the only sweep alive
            alive = [ref() for ref in swept if ref() is not None]
            seen.append((
                all(ref() is None for ref in weights),
                len(alive) == 1 and alive[0] is swept[-1]() is cast[-1](),
                {M.dtype for M in (*alive[0].S, *alive[0].T)} == {np.dtype(np.float32)},
            ))
            del alive
            return cg(hess_apply, grad, diag)

        monkeypatch.setattr(otflow.solver, "forward_frames", forward_frames)
        monkeypatch.setattr(otflow.forward.Sweep, "cast", sweep_cast)
        monkeypatch.setattr(otflow.solver, "_gn_step", gn_step)
        res = solve(_pair_obs(rho0, target, 3), config)
        assert len(seen) == len(res.diagnostics) - 1 == 3
        assert all(all(checks) for checks in seen)

    def test_gradient_runs_with_the_last_step_released(self, monkeypatch):
        # at each gradient of an accepted iterate, the solve's memory peak,
        # the previous gradient and the last direction are already dead
        rho0, target, config = _blob_problem((12, 10), 3)
        grads, directions, seen = [], [], []
        gradient_of = otflow.solver._gradient_values
        direction_of = otflow.solver._gn_direction

        def gradient_values(*args):
            seen.append([ref() is None for ref in (*grads, *directions)])
            g = gradient_of(*args)
            grads.append(weakref.ref(g))
            return g

        def gn_direction(*args):
            direction = direction_of(*args)
            directions.append(weakref.ref(direction))
            return direction

        monkeypatch.setattr(otflow.solver, "_gradient_values", gradient_values)
        monkeypatch.setattr(otflow.solver, "_gn_direction", gn_direction)
        res = solve(_pair_obs(rho0, target, 3), config)
        assert len(seen) == len(res.diagnostics) == 4
        assert all(len(dead) == 2 * n and all(dead) for n, dead in enumerate(seen))

    def test_cast_peak_stays_within_the_gradients(self, monkeypatch):
        # the traced peak from the end of the gradient to the start of the CG,
        # where the sweep is cast, must not exceed the gradient's own
        rho0, target, config = _blob_problem((16, 16, 16), 3)
        config = dataclasses.replace(config, max_gn_iters=1)
        obs = _pair_obs(rho0, target, 3)
        solve(obs, config)  # warm-up: first-call allocations are not the solve's
        gn_shape = (3, 3, rho0.grid.cell_count)  # (m, d, s)
        peaks = {}
        gradient_of = otflow.solver._gradient_values
        cg = otflow.solver._gn_step

        def gradient_values(*args):
            tracemalloc.reset_peak()
            g = gradient_of(*args)
            peaks.setdefault("gradient", tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return g

        def gn_step(hess_apply, grad, diag):
            if grad.shape == gn_shape:  # a Gauss-Newton step, not the start's solve
                peaks.setdefault("cast", tracemalloc.get_traced_memory()[1])
            return cg(hess_apply, grad, diag)

        monkeypatch.setattr(otflow.solver, "_gradient_values", gradient_values)
        monkeypatch.setattr(otflow.solver, "_gn_step", gn_step)
        tracemalloc.start()
        try:
            solve(obs, config)
        finally:
            tracemalloc.stop()
        assert peaks["cast"] <= peaks["gradient"]

    def test_rejects_observation_past_horizon(self):
        g = CellGrid([4, 4], [0.25, 0.25])
        rho0 = gaussian_blob(g, (0.5, 0.5), 0.2, 1.0)
        cfg = SolverConfig(time_steps=2)
        with pytest.raises(ValueError):
            solve(_pair_obs(rho0, rho0, 3), cfg)


class TestBaseline:
    def test_identical_normalized_endpoints(self):
        g = CellGrid([8, 8], [1 / 8, 1 / 8])
        rho0 = gaussian_blob(g, (0.5, 0.5), 0.15, 1.0)
        doubled = ScalarField(g, 2.0 * rho0.values)  # same shape, double mass
        cfg = SolverConfig(sigma=0.1, alpha=1.0, time_steps=3)
        res = solve_baseline(_pair_obs(rho0, doubled, cfg.time_steps), cfg)
        np.testing.assert_allclose(res.velocity.values, 0.0)
        assert res.diagnostics[-1].phi == 0.0

    def test_normalization_contract(self):
        g = CellGrid([8, 8], [1 / 8, 1 / 8])
        rho0 = gaussian_blob(g, (0.4, 0.5), 0.15, 2.5)
        target = gaussian_blob(g, (0.6, 0.5), 0.15, 0.7)
        cfg = SolverConfig(alpha=1.0, time_steps=2, max_gn_iters=2)
        res = solve_baseline(_pair_obs(rho0, target, cfg.time_steps), cfg)
        assert res.densities.values[0].sum() == pytest.approx(1.0, abs=1e-12)
        # endpoint of the recovered trajectory keeps unit mass too
        assert res.densities.values[-1].sum() == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("schedule", [[(0, 1.0), (2, 1.0), (4, 1.0)], [(0, 1.0), (4, 2.0)]],
                             ids=["three-observations", "weighted-endpoint"])
    def test_refuses_observations_it_would_misread(self, grid_2d, schedule):
        f = ScalarField(grid_2d, np.ones(grid_2d.cell_count))
        obs = ObservationSet([ObservationEntry(n, f, w) for n, w in schedule])
        with pytest.raises(ConfigError, match="needs exactly the observations") as info:
            solve_baseline(obs, SolverConfig(time_steps=4))
        assert info.value.key == "observations"

    def test_rejects_empty_mass(self, grid_2d):
        zero = ScalarField(grid_2d, np.zeros(grid_2d.cell_count))
        one = ScalarField(grid_2d, np.ones(grid_2d.cell_count))
        with pytest.raises(ValueError):
            solve_baseline(_pair_obs(zero, one, 4), SolverConfig())


class TestMetrics:
    def test_registration_identical(self, grid_2d):
        f = ScalarField(grid_2d, philox(0).uniform(0, 1, grid_2d.cell_count))
        mse, inf = registration_errors(f, f)
        assert mse.tolist() == [0.0] and inf.tolist() == [0.0]

    def test_registration_constant_offset(self):
        g = CellGrid([10], [1.0])
        mse, inf = registration_errors(ScalarField(g, np.zeros(10)),
                                       ScalarField(g, np.full(10, 0.1)))
        np.testing.assert_allclose(mse, [0.01], rtol=1e-12)
        np.testing.assert_allclose(inf, [0.1], rtol=1e-12)
        base = philox(2).uniform(0, 1, (4, 6))
        offsets = np.array([0.0, 0.37, -0.5, 0.125])
        a = DensitySeries(CellGrid([6], [1.0]), TimeGrid.unit_horizon(3), base)
        b = DensitySeries(a.grid, a.time_grid, base + offsets[:, None])
        mse, inf = registration_errors(a, b)
        np.testing.assert_allclose(mse, offsets**2, rtol=1e-12)
        np.testing.assert_allclose(inf, np.abs(offsets), rtol=1e-12)

    def test_registration_two_pass_oracle(self, grid_2d):
        rng = philox(12)
        tg = TimeGrid.unit_horizon(2)
        shape = (tg.steps + 1, grid_2d.cell_count)
        a = DensitySeries(grid_2d, tg, rng.uniform(0, 1, shape))
        b = DensitySeries(grid_2d, tg, rng.uniform(0, 1, shape))
        mse, inf = registration_errors(a, b)
        assert mse.shape == inf.shape == (tg.steps + 1,)
        for n in range(tg.steps + 1):
            acc, biggest = 0.0, 0.0
            for x, y in zip(a.values[n], b.values[n]):
                acc += (x - y) ** 2
                biggest = max(biggest, abs(x - y))
            assert mse[n] == pytest.approx(acc / grid_2d.cell_count, rel=1e-12)
            assert inf[n] == pytest.approx(biggest, rel=1e-12)
            # a frame measured alone gives the same bits as within its stack
            alone = registration_errors(a.frame(n), b.frame(n))
            assert (alone[0][0], alone[1][0]) == (mse[n], inf[n])

    def test_registration_grid_mismatch(self):
        a = ScalarField(CellGrid([4], [1.0]), np.zeros(4))
        b = ScalarField(CellGrid([4], [0.5]), np.zeros(4))
        with pytest.raises(GridMismatchError):
            registration_errors(a, b)

    def test_registration_frame_count_mismatch(self):
        g = CellGrid([6], [1.0])
        a = DensitySeries(g, TimeGrid.unit_horizon(3), np.zeros((4, 6)))
        b = DensitySeries(g, TimeGrid.unit_horizon(2), np.zeros((3, 6)))
        with pytest.raises(ValueError, match="4 frames with 3"):
            registration_errors(a, b)
        with pytest.raises(ValueError, match="4 frames with 1"):
            registration_errors(a, ScalarField(g, np.zeros(6)))
