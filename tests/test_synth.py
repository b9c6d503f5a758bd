import numpy as np
import pytest

from otflow.errors import ConfigError
from otflow.forward import TimeGrid, VelocitySeries
from otflow.grid import CellGrid, ScalarField
from otflow.synth import (
    Blob,
    SynthSpec,
    VelocityModel,
    add_noise,
    true_density,
    true_velocity_series,
)

from oracles import finite_difference_gradient
from conftest import gaussian_blob, philox


def _constant_spec(sigma=0.0, v=(0.2, 0.1), n=64, width=0.1):
    return SynthSpec(
        dims=(n, n), spacing=(1 / n, 1 / n),
        blobs=(Blob((0.45, 0.5), width, 2.0),),
        velocity=VelocityModel("constant", value=v),
        sigma_true=sigma,
    )


class TestGaussianBlob:
    def test_mass_exact(self):
        g = CellGrid([32, 32], [1 / 32, 1 / 32])
        f = gaussian_blob(g, (0.4, 0.6), 0.1, 3.7)
        assert f.total_mass() == pytest.approx(3.7, rel=1e-12)

    def test_argmax_at_center_cell(self):
        g = CellGrid([32, 32], [1 / 32, 1 / 32])
        center = (0.40, 0.59)
        f = gaussian_blob(g, center, 0.08, 1.0)
        assert f.values.argmax() == g.cells_of_points(np.array([center]))[0]

    def test_axis_reflection_symmetry(self):
        g = CellGrid([16, 16], [1 / 16, 1 / 16])
        f = gaussian_blob(g, (0.5, 0.5), 0.12, 1.0).values.reshape(g.dims, order="F")
        np.testing.assert_allclose(f, f[::-1, :], rtol=1e-12)
        np.testing.assert_allclose(f, f[:, ::-1], rtol=1e-12)

    def test_validates_width_and_mass(self):
        g = CellGrid([8], [1.0])
        with pytest.raises(ValueError):
            gaussian_blob(g, (4.0,), 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_blob(g, (4.0,), 1.0, -1.0)


class TestAnalyticEvolution:
    def test_t0_equals_initial(self):
        spec = _constant_spec(sigma=0.02)
        # the initial blob, sampled at cell centers and rescaled to its mass
        r2 = ((spec.grid.cell_centers() - (0.45, 0.5)) ** 2).sum(axis=1)
        initial = np.exp(-0.5 * r2 / 0.1**2)
        np.testing.assert_allclose(
            true_density(spec, 0.0).values, initial * (2.0 / initial.sum())
        )

    def test_static_when_no_motion_no_diffusion(self):
        spec = _constant_spec(sigma=0.0, v=(0.0, 0.0))
        np.testing.assert_allclose(
            true_density(spec, 0.7).values, true_density(spec, 0.0).values
        )

    def test_second_moment_grows_by_2_sigma2_t(self):
        sigma, t = 0.05, 0.8
        spec = _constant_spec(sigma=sigma, v=(0.0, 0.0))
        grid = spec.grid
        centers = grid.cell_centers()

        def second_moment(field):
            w = field.values / field.values.sum()
            mean = (w[:, None] * centers).sum(axis=0)
            return (w[:, None] * (centers - mean) ** 2).sum(axis=0)

        m0 = second_moment(true_density(spec, 0.0))
        mt = second_moment(true_density(spec, t))
        growth = mt - m0
        np.testing.assert_allclose(growth, 2 * sigma**2 * t, rtol=0.02)


class TestTrueDensity:
    def test_rotation_moves_center(self):
        spec = SynthSpec(
            dims=(64, 64), spacing=(1 / 64, 1 / 64),
            blobs=(Blob((0.75, 0.5), 0.05, 1.0),),
            velocity=VelocityModel("rotation", center=(0.5, 0.5), rate=np.pi / 2),
        )
        out = true_density(spec, 1.0)  # quarter turn
        assert out.total_mass() == pytest.approx(1.0, rel=1e-12)
        top = out.values.argmax()
        np.testing.assert_allclose(
            spec.grid.cell_centers()[top], [0.5, 0.75], atol=1 / 64
        )

    def test_shear_conserves_mass(self):
        spec = SynthSpec(
            dims=(32, 32), spacing=(1 / 32, 1 / 32),
            blobs=(Blob((0.5, 0.6), 0.08, 1.5),),
            velocity=VelocityModel("shear", center=(0.5, 0.5), rate=0.4),
        )
        out = true_density(spec, 1.0)
        assert out.total_mass() == pytest.approx(1.5, rel=1e-12)

    def test_rotation_with_diffusion_rejected(self):
        # no closed form with diffusion, so the spec itself is refused
        with pytest.raises(ConfigError, match="no closed form with diffusion") as exc:
            SynthSpec(
                dims=(8, 8), spacing=(0.125, 0.125),
                blobs=(Blob((0.5, 0.5), 0.1, 1.0),),
                velocity=VelocityModel("rotation", center=(0.5, 0.5), rate=1.0),
                sigma_true=0.1,
            )
        assert exc.value.key == "sigma_true"

    def test_velocity_series_is_steady_sampling(self):
        spec = _constant_spec(v=(0.3, -0.2))
        series = true_velocity_series(spec, TimeGrid.unit_horizon(3))
        assert series.values.shape == (3, 2, spec.grid.cell_count)
        np.testing.assert_allclose(series.values[0, 0], 0.3)
        np.testing.assert_allclose(series.values[2, 1], -0.2)


class TestAddNoise:
    def test_zero_std_identity(self, grid_2d):
        f = ScalarField(grid_2d, philox(0).uniform(0, 1, grid_2d.cell_count))
        out = add_noise(f, 0.0, 99)
        np.testing.assert_array_equal(out.values, f.values)

    def test_same_seed_reproducible(self, grid_2d):
        f = ScalarField(grid_2d, np.full(grid_2d.cell_count, 5.0))
        a = add_noise(f, 0.3, 42)
        b = add_noise(f, 0.3, 42)
        assert np.array_equal(a.values, b.values)
        c = add_noise(f, 0.3, 43)
        assert not np.array_equal(a.values, c.values)

    def test_philox_stream_frozen_values(self):
        # counter-based generator keyed by the seed: the stream is part of the
        # file-format contract, so pin its first draws
        rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
        np.testing.assert_allclose(
            rng.standard_normal(3),
            [-1.7496944402112695, 0.5745441092559128, 0.6142833637530732],
            rtol=1e-15,
        )

    def test_variance_within_one_percent(self):
        g = CellGrid([100, 100, 100], [1.0, 1.0, 1.0])
        base = ScalarField(g, np.full(g.cell_count, 100.0))  # no clamping
        std = 0.7
        out = add_noise(base, std, 11)
        delta = out.values - base.values
        assert delta.var() == pytest.approx(std**2, rel=0.01)

    def test_clamped_at_zero(self):
        g = CellGrid([50, 50], [1.0, 1.0])
        out = add_noise(ScalarField(g, np.zeros(g.cell_count)), 1.0, 3)
        assert out.values.min() >= 0.0
        assert out.values.max() > 0.0


class TestFiniteDifferenceGradient:
    def test_quadratic_exact(self):
        g = CellGrid([4, 4], [0.25, 0.25])
        tg = TimeGrid.unit_horizon(2)
        rng = philox(17)
        v = VelocitySeries(g, tg, rng.standard_normal((2, 2, 16)))
        dv = VelocitySeries(g, tg, rng.standard_normal((2, 2, 16)))
        f = lambda w: float((w.values**2).sum())
        got = finite_difference_gradient(f, v, dv, 1e-4)
        assert got == pytest.approx(2.0 * float((v.values * dv.values).sum()), rel=1e-9)

    def test_constant_functional_zero(self):
        g = CellGrid([4], [0.25])
        tg = TimeGrid.unit_horizon(1)
        v = VelocitySeries(g, tg, np.zeros((1, 1, 4)))
        dv = VelocitySeries(g, tg, np.ones((1, 1, 4)))
        assert finite_difference_gradient(lambda w: 3.5, v, dv, 1e-5) == 0.0

    def test_eps_validated(self):
        g = CellGrid([4], [0.25])
        v = VelocitySeries(g, TimeGrid.unit_horizon(1), np.zeros((1, 1, 4)))
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda w: 0.0, v, v, 0.0)
