import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otflow.errors import EmptySeedsError, OutsideDomainError
from otflow.forward import TimeGrid, VelocitySeries
from otflow.grid import CellGrid, ScalarField, interpolate_components
from otflow.streamlines import (
    STAGNATION_SPEED,
    Streamline,
    pathway_density,
    seed_points,
    trace_streamlines,
)
from otflow.synth import Blob, SynthSpec, VelocityModel, true_velocity_series

from conftest import philox, smooth_velocity
from oracles import per_corner_interpolate, per_streamline_pathway_density


def _rotation_series(rate, steps=1, n=64):
    spec = SynthSpec(
        dims=(n, n), spacing=(1 / n, 1 / n),
        blobs=(Blob((0.5, 0.5), 0.1, 1.0),),
        velocity=VelocityModel("rotation", center=(0.5, 0.5), rate=rate),
    )
    return true_velocity_series(spec, TimeGrid.unit_horizon(steps))


def _constant_series(value, steps=1, n=32):
    spec = SynthSpec(
        dims=(n, n), spacing=(1 / n, 1 / n),
        blobs=(Blob((0.5, 0.5), 0.1, 1.0),),
        velocity=VelocityModel("constant", value=value),
    )
    return true_velocity_series(spec, TimeGrid.unit_horizon(steps))


class TestSeedPoints:
    def test_uniform_density_seeds_everything(self):
        g = CellGrid([5, 4], [0.2, 0.2])
        density = ScalarField(g, np.full(g.cell_count, 0.3))
        seeds = seed_points(density, 0.5)
        assert len(seeds) == g.cell_count

    def test_sparse_support_recovered(self):
        g = CellGrid([10], [1.0])
        vals = np.zeros(10)
        vals[[2, 5, 7]] = [1.0, 2.0, 3.0]
        seeds = seed_points(ScalarField(g, vals), 0.01)
        np.testing.assert_allclose(seeds.ravel(), [2.5, 5.5, 7.5])

    def test_matches_sorting_oracle(self):
        g = CellGrid([20, 20], [0.05, 0.05])
        vals = philox(6).uniform(0, 1, g.cell_count)
        vals[vals < 0.3] = 0.0
        q = 0.8
        seeds = seed_points(ScalarField(g, vals), q)
        positive = np.sort(vals[vals > 0])
        # oracle: the largest data point at or below the quantile position
        threshold = positive[int(np.floor(q * (len(positive) - 1)))]
        expect = (vals >= threshold).sum()
        assert len(seeds) == expect

    def test_empty_density_raises(self):
        g = CellGrid([4], [1.0])
        with pytest.raises(EmptySeedsError):
            seed_points(ScalarField(g, np.zeros(4)), 0.5)


class TestTraceStreamline:
    def test_zero_velocity_stagnates_at_seed(self):
        v = _constant_series((0.0, 0.0))
        sl = trace_streamlines(v, [[0.4, 0.6]], 0.01, 1000)[0]
        assert sl.points.shape == (1, 2)
        np.testing.assert_allclose(sl.points[0], [0.4, 0.6])

    def test_constant_field_straight_ray(self):
        vec = np.array([0.31, 0.17])
        v = _constant_series(tuple(vec))
        sl = trace_streamlines(v, [[0.2, 0.3]], 1 / 200, 10**6)[0]
        rel = sl.points - sl.points[0]
        direction = vec / np.linalg.norm(vec)
        off_axis = rel - np.outer(rel @ direction, direction)
        assert np.abs(off_axis).max() < 1e-9  # domain size is 1
        gaps = np.linalg.norm(np.diff(sl.points, axis=0), axis=1)
        assert gaps.max() <= sl.step_size * (1 + 1e-6) * np.linalg.norm(vec)

    def test_rotation_stays_on_circle(self):
        v = _rotation_series(2 * np.pi)
        radius = 0.25
        sl = trace_streamlines(v, [[0.5 + radius, 0.5]], 1 / 1000, 10**6)[0]
        radii = np.linalg.norm(sl.points - [0.5, 0.5], axis=1)
        assert np.abs(radii - radius).max() < 1e-4 * radius

    def test_step_halving_is_high_order(self):
        v = _rotation_series(2 * np.pi)
        seed = [0.75, 0.5]

        def endpoint(step):
            return trace_streamlines(v, [seed], step, 10**7)[0].points[-1]

        e1 = np.linalg.norm(endpoint(1 / 100) - endpoint(1 / 800))
        e2 = np.linalg.norm(endpoint(1 / 200) - endpoint(1 / 800))
        assert e1 / e2 > 8.0  # fourth-order: ratio about 16

    def test_boundary_halt_keeps_points_inside(self):
        v = _constant_series((2.0, 0.0))
        sl = trace_streamlines(v, [[0.9, 0.5]], 0.01, 10**6)[0]
        lengths = np.asarray(v.grid.lengths)
        assert (sl.points >= 0).all() and (sl.points <= lengths).all()
        assert len(sl.points) < 20  # halted long before the step budget

    def test_max_steps_cap(self):
        v = _rotation_series(2 * np.pi)
        sl = trace_streamlines(v, [[0.75, 0.5]], 1 / 1000, 25)[0]
        assert sl.points.shape[0] == 26

    def test_seed_outside_domain(self):
        v = _constant_series((0.1, 0.0))
        with pytest.raises(OutsideDomainError):
            trace_streamlines(v, [[1.5, 0.5]], 0.01, 100)[0]


def _sample_clamped(grid, components, point):
    pos = grid.clamp_points(point[None, :])
    return interpolate_components(grid, components, pos)[0]


def _reference_trace(v, seed, step_size, max_steps):
    """The one-seed-at-a-time RK4 loop that the batched tracer replaced."""
    grid = v.grid
    seed = np.asarray(seed, dtype=float)
    if not grid.contains_points(seed[None, :])[0]:
        raise OutsideDomainError(f"seed {seed.tolist()} is outside the domain")

    points = [seed.copy()]
    x = seed.copy()
    dt = v.time_grid.dt
    tiny = dt * 1e-12
    steps_taken = 0
    for n in range(v.time_grid.steps):
        comp = v.values[n]
        remaining = dt
        while remaining > tiny and steps_taken < max_steps:
            h = min(step_size, remaining)
            k1 = _sample_clamped(grid, comp, x)
            if np.linalg.norm(k1) < STAGNATION_SPEED:
                return Streamline(seed, np.array(points), step_size)
            k2 = _sample_clamped(grid, comp, x + 0.5 * h * k1)
            k3 = _sample_clamped(grid, comp, x + 0.5 * h * k2)
            k4 = _sample_clamped(grid, comp, x + h * k3)
            y = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not grid.contains_points(y[None, :])[0]:
                return Streamline(seed, np.array(points), step_size)
            x = y
            points.append(x.copy())
            remaining -= h
            steps_taken += 1
        if steps_taken >= max_steps:
            break
    return Streamline(seed, np.array(points), step_size)


# 3 intervals of 1/3 at step 0.04: eight full steps and one of 1/75 each
FULL_STEPS = 27
CAP = 12  # inside the second interval


def _halting_series(ndim):
    """Random smooth flow over 3 intervals, still for x_0 < 0.3, swept out
    through the x_0 = 1 wall for x_0 > 0.75."""
    n = 16 if ndim == 2 else 10
    grid = CellGrid([n] * ndim, [1 / n] * ndim)
    x0 = grid.cell_centers()[:, 0]
    frames = []
    for i in range(3):
        comp = smooth_velocity(grid, seed=40 + i, scale=0.1)
        comp[:, x0 < 0.3] = 0.0
        comp[0, x0 > 0.75] += 1.5
        frames.append(comp)
    return VelocitySeries(grid, TimeGrid.unit_horizon(3), np.array(frames))


class TestTraceStreamlines:
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("max_steps", [CAP, 10**6])
    def test_matches_per_seed_loop(self, ndim, max_steps):
        v = _halting_series(ndim)
        rest = [0.5] * (ndim - 1)
        named = np.array([
            [0.1, *rest],   # still region: stagnates at the seed
            [0.78, *rest],  # swept out through the wall
            [0.5, *rest],   # runs to the cap, or to the horizon
            [0.5, *([0.0] * (ndim - 1))],  # seeded on a wall
        ])
        seeds = np.vstack([named, philox(ndim).uniform(0, 1, size=(24, ndim))])
        lines = trace_streamlines(v, seeds, 0.04, max_steps)
        assert len(lines) == len(seeds)
        for seed, sl in zip(seeds, lines):
            ref = _reference_trace(v, seed, 0.04, max_steps)
            assert np.array_equal(sl.seed, ref.seed)
            assert np.array_equal(sl.points, ref.points)
            assert sl.step_size == ref.step_size
        counts = [len(sl.points) for sl in lines]
        assert counts[0] == 1
        assert 1 < counts[1] < min(CAP, FULL_STEPS) + 1
        assert counts[2] == min(max_steps, FULL_STEPS) + 1

    def test_outside_seed_named_before_tracing(self, monkeypatch):
        v = _constant_series((0.1, 0.0))
        calls = []
        monkeypatch.setattr(
            "otflow.streamlines.interpolate_components",
            lambda *args: calls.append(args),
        )
        seeds = [[0.2, 0.2], [0.5, 0.5], [0.5, 1.01], [0.7, 0.7]]
        with pytest.raises(OutsideDomainError, match=r"seed 2 at \[0\.5, 1\.01\]"):
            trace_streamlines(v, seeds, 0.01, 100)
        assert calls == []

    def test_wrong_column_count(self):
        v = _constant_series((0.1, 0.0))
        with pytest.raises(ValueError):
            trace_streamlines(v, np.full((3, 3), 0.5), 0.01, 100)

    def test_empty_batch(self):
        v = _constant_series((0.1, 0.0))
        assert trace_streamlines(v, np.empty((0, 2)), 0.01, 100) == []

    @pytest.mark.parametrize("dims", [(16, 16), (8, 8, 8), (12, 1), (6, 1, 7)],
                             ids=["2d", "3d", "2d-one-row", "3d-one-slab"])
    def test_matches_per_corner_sampler(self, dims, monkeypatch):
        grid = CellGrid(dims, [1 / n for n in dims])
        frames = [smooth_velocity(grid, seed=60 + i, scale=0.3) for i in range(2)]
        v = VelocitySeries(grid, TimeGrid.unit_horizon(2), np.array(frames))
        rng = philox(len(dims))
        seeds = np.vstack([grid.cell_centers()[::5], rng.uniform(0, 1, (16, len(dims)))])
        lines = trace_streamlines(v, seeds, 0.05, 10**6)
        monkeypatch.setattr("otflow.streamlines.interpolate_components", per_corner_interpolate)
        want = trace_streamlines(v, seeds, 0.05, 10**6)
        assert sum(len(sl.points) for sl in lines) > 2 * len(seeds)
        for a, b in zip(lines, want):
            assert np.array_equal(a.points, b.points)


class TestPathwayDensity:
    def test_single_cell_streamline(self):
        g = CellGrid([4, 4], [1.0, 1.0])
        sl = Streamline([0.5, 0.5], [[0.5, 0.5], [0.6, 0.6]], 0.1)
        counts = pathway_density([sl], g)
        assert counts.dtype == np.int64 and counts.shape == (g.cell_count,)
        assert counts[0] == 1
        assert counts.sum() == 1

    def test_duplicate_streamlines_count_twice(self):
        g = CellGrid([6, 1], [1.0, 1.0])
        pts = [[0.5, 0.5], [2.5, 0.5], [4.5, 0.5]]
        counts = pathway_density([Streamline(pts[0], pts, 0.1)] * 2, g)
        assert counts[g.cells_of_points(np.array(pts))].tolist() == [2, 2, 2]

    def test_streamline_touches_cell_once(self):
        g = CellGrid([4], [1.0])
        pts = [[0.2], [0.4], [0.6], [1.5]]  # three points share cell 0
        counts = pathway_density([Streamline(pts[0], pts, 0.1)], g)
        assert counts.tolist() == [1, 1, 0, 0]

    def test_permutation_invariant_and_matches_bruteforce(self):
        g = CellGrid([8, 8], [0.5, 0.5])
        rng = philox(13)
        lines = []
        for _ in range(12):
            npts = int(rng.integers(1, 30))
            pts = rng.uniform(0, 4.0, size=(npts, 2))
            lines.append(Streamline(pts[0], pts, 0.1))
        counts = pathway_density(lines, g)
        # brute force with per-streamline set semantics
        expect = np.zeros(g.cell_count, dtype=int)
        for sl in lines:
            seen = set()
            for p in sl.points:
                ix = min(int(p[0] / 0.5), 7)
                iy = min(int(p[1] / 0.5), 7)
                seen.add(ix + 8 * iy)
            for c in seen:
                expect[c] += 1
        np.testing.assert_array_equal(counts, expect)
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        np.testing.assert_array_equal(pathway_density(shuffled, g), counts)

    def test_track_that_reenters_a_cell_counts_once(self):
        g = CellGrid([3, 2], [1.0, 1.0])
        pts = [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 0.5], [0.6, 0.4], [2.5, 1.5]]
        counts = pathway_density([Streamline(pts[0], pts, 0.1)], g)
        assert counts.tolist() == [1, 1, 0, 0, 1, 1]

    def test_no_streamlines(self):
        g = CellGrid([3, 2], [1.0, 1.0])
        counts = pathway_density([], g)
        assert counts.dtype == np.int64 and counts.tolist() == [0] * 6

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_streamline_count(self, data):
        dims = data.draw(st.sampled_from([(5,), (4, 3), (3, 1, 4)]))
        g = CellGrid(dims, [0.5] * len(dims))
        lines = []
        for _ in range(data.draw(st.integers(0, 6))):
            npts = data.draw(st.integers(1, 12))
            # a quarter-cell lattice puts points on cell walls and domain walls too
            pts = np.array(data.draw(st.lists(
                st.tuples(*[st.integers(0, 2 * n).map(lambda i: i / 4) for n in dims]),
                min_size=npts, max_size=npts)))
            lines.append(Streamline(pts[0], pts, 0.1))
        got = pathway_density(lines, g)
        want = per_streamline_pathway_density(lines, g)
        assert got.dtype == want.dtype and np.array_equal(got, want)
