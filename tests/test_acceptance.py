"""Acceptance suite: one test per release criterion.

Each test prints a single [C##] PASS/FAIL line (visible with `pytest -s`)
carrying the measured numbers, then asserts the criterion at its tolerance.
Solves are shared through module-scoped fixtures so the descent criterion can
inspect every optimizer run the suite performs.
"""

import json
import time

import numpy as np
import pytest

from otflow.bundles import quickbundles
from otflow.forward import ImplicitDiffusion, forward_frames
from otflow.grid import CellGrid
from otflow.solver import (
    ObservationEntry,
    ObservationSet,
    SolverConfig,
    gradient,
    objective,
    registration_errors,
    solve,
    solve_baseline,
)
from otflow.streamlines import trace_streamlines
from otflow.synth import (
    Blob,
    SynthSpec,
    VelocityModel,
    add_noise,
    true_density,
    true_velocity_series,
)
from otflow.cli import main as cli_main
from otflow.dataio import read_volume, write_volume
from otflow.errors import VolumeFormatError

from oracles import finite_difference_gradient
from conftest import gradient_check_instance, one_step, philox, smooth_velocity, translating_pair
from test_bundles import planted_bundles
from test_dataio import craft_nifti_bytes


def report(cid: str, ok: bool, detail: str):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# shared solve runs (criteria 4, 5, 6)

@pytest.fixture(scope="module")
def denoise_runs(noisy_endpoint_pair):
    truth0, truth_T, observed_T, _ = noisy_endpoint_pair
    config = SolverConfig(sigma=0.05, alpha=0.3, time_steps=4, max_gn_iters=50)
    obs = ObservationSet([ObservationEntry(0, truth0), ObservationEntry(4, observed_T)])
    start = time.perf_counter()
    regularized = solve(obs, config)
    baseline = solve_baseline(obs, config)
    elapsed = time.perf_counter() - start
    return regularized, baseline, truth_T, elapsed


@pytest.fixture(scope="module")
def sigma_sweep_runs():
    spec, truth0, truth_T = translating_pair(n=16, shift_cells=2, width=0.14)
    observed_T = add_noise(truth_T, 0.02 * truth0.values.max(), 55)
    runs = {}
    start = time.perf_counter()
    for sigma in (0.002, 0.02, 0.2):
        config = SolverConfig(sigma=sigma, alpha=0.3, time_steps=4, max_gn_iters=30)
        obs = ObservationSet([ObservationEntry(0, truth0), ObservationEntry(4, observed_T)])
        runs[sigma] = solve(obs, config)
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def noisy_endpoint_pair():
    spec, truth0, truth_T = translating_pair()
    noise_std = 0.05 * truth0.values.max()
    return truth0, truth_T, add_noise(truth_T, noise_std, 202), noise_std


# ---------------------------------------------------------------------------

def test_c01_conservation():
    start = time.perf_counter()
    grid = CellGrid([16, 16, 16], [1 / 16, 1 / 16, 1 / 16])
    dt = 0.25
    worst_advect, worst_diffuse = 0.0, 0.0
    for trial in range(100):
        sigma = (0.0, 0.002, 0.2)[trial % 3]
        rng = philox(trial)
        v = smooth_velocity(grid, trial, scale=0.08)
        rho = rng.uniform(0.0, 1.0, grid.cell_count)
        advected = one_step(v, rho, ImplicitDiffusion(grid, 0.0, dt))
        worst_advect = max(worst_advect, abs(advected.sum() - rho.sum()) / rho.sum())
        at_rest = np.zeros((grid.ndim, grid.cell_count))
        diffused = one_step(at_rest, advected, ImplicitDiffusion(grid, sigma, dt))
        worst_diffuse = max(worst_diffuse, abs(diffused.sum() - rho.sum()) / rho.sum())
    elapsed = time.perf_counter() - start
    ok = worst_advect < 1e-12 and worst_diffuse < 1e-9 and elapsed < 30
    report(
        "C01",
        ok,
        f"advect drift {worst_advect:.2e} (<1e-12), diffuse drift "
        f"{worst_diffuse:.2e} (<1e-9), {elapsed:.1f}s (<30s)",
    )


def test_c02_forward_gaussian_oracle():
    start = time.perf_counter()

    def relative_error(n, steps):
        spec = SynthSpec(
            dims=(n, n), spacing=(1 / n, 1 / n),
            blobs=(Blob((0.38, 0.40), 0.12, 1.0),),
            velocity=VelocityModel("constant", value=(0.23, 0.17)),
            sigma_true=0.01,
        )
        got, _ = forward_frames(true_velocity_series(spec, steps).values,
                                true_density(spec, 0.0).values,
                                ImplicitDiffusion(spec.grid, 0.01, 1 / steps))
        want = true_density(spec, 1.0)
        return float(np.linalg.norm(got[-1] - want.values) / np.linalg.norm(want.values))

    errors = [relative_error(64, 8), relative_error(128, 16), relative_error(256, 32)]
    elapsed = time.perf_counter() - start
    ok = errors[0] < 0.05 and errors[0] > errors[1] > errors[2] and elapsed < 60
    report(
        "C02",
        ok,
        f"errors {errors[0]:.4f} > {errors[1]:.4f} > {errors[2]:.4f} "
        f"(first <5%), {elapsed:.1f}s (<60s)",
    )


def test_c03_adjoint_gradient():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        sigma = (0.0, 0.002, 0.01)[seed % 3]
        _, obs, config, v, dv = gradient_check_instance(seed, sigma)
        adjoint = float((gradient(v, obs, config).values * dv.values).sum())
        fd = finite_difference_gradient(
            lambda w: objective(w, obs, config).total, v, dv, 1e-5
        )
        worst = max(worst, abs(adjoint - fd) / abs(fd))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 60
    report("C03", ok, f"worst relative error {worst:.2e} (<1e-5), {elapsed:.1f}s (<60s)")


def test_c05_denoising_beats_baseline(denoise_runs):
    regularized, baseline, truth_T, elapsed = denoise_runs
    (mse_reg,), (linf_reg,) = registration_errors(regularized.densities.frame(4), truth_T)
    (mse_base,), (linf_base,) = registration_errors(baseline.densities.frame(4), truth_T)
    factor = mse_base / mse_reg
    ok = mse_reg <= 0.5 * mse_base and elapsed < 300
    report(
        "C05",
        ok,
        f"clean-endpoint MSE {mse_reg:.3e} vs baseline {mse_base:.3e} "
        f"(factor {factor:.2f}, need >=2), L-inf factor {linf_base / linf_reg:.2f} "
        f"(reported only), {elapsed:.0f}s (<300s)",
    )


def test_c06_diffusivity_robustness_ordering(sigma_sweep_runs):
    runs, elapsed = sigma_sweep_runs
    # steps 1..m: every run starts from the same pinned initial frame
    near = registration_errors(runs[0.002].densities, runs[0.02].densities)[0][1:]
    far = registration_errors(runs[0.002].densities, runs[0.2].densities)[0][1:]
    ok = bool((near < far).all()) and elapsed < 300
    fmt = lambda a: "[" + " ".join(f"{x:.1e}" for x in a) + "]"
    report(
        "C06",
        ok,
        f"per-step MSE near {fmt(near)} < far {fmt(far)} at every step, "
        f"{elapsed:.0f}s (<300s)",
    )


def test_c04_descent_on_full_suite(denoise_runs, sigma_sweep_runs):
    runs = [denoise_runs[0], denoise_runs[1], *sigma_sweep_runs[0].values()]
    violations = 0
    total_steps = 0
    for run in runs:
        phis = [r.phi for r in run.diagnostics]
        total_steps += len(phis) - 1
        violations += sum(1 for a, b in zip(phis, phis[1:]) if b > a)
    ok = violations == 0
    report(
        "C04",
        ok,
        f"{violations} increases across {total_steps} accepted steps in "
        f"{len(runs)} solves (need 0)",
    )


def test_c07_streamline_accuracy():
    start = time.perf_counter()
    spec = SynthSpec(
        dims=(64, 64), spacing=(1 / 64, 1 / 64),
        blobs=(Blob((0.5, 0.5), 0.1, 1.0),),
        velocity=VelocityModel("rotation", center=(0.5, 0.5), rate=2 * np.pi),
    )
    rotation = true_velocity_series(spec, 1)
    radius = 0.25
    orbit = trace_streamlines(rotation, [[0.5 + radius, 0.5]], 1 / 1000, 10**6)[0]
    radii = np.linalg.norm(orbit.points - [0.5, 0.5], axis=1)
    radius_err = float(np.abs(radii - radius).max() / radius)

    uniform_spec = SynthSpec(
        dims=(64, 64), spacing=(1 / 64, 1 / 64),
        blobs=(Blob((0.5, 0.5), 0.1, 1.0),),
        velocity=VelocityModel("constant", value=(0.31, 0.17)),
    )
    uniform = true_velocity_series(uniform_spec, 1)
    ray = trace_streamlines(uniform, [[0.2, 0.3]], 1 / 500, 10**6)[0]
    rel = ray.points - ray.points[0]
    direction = np.array([0.31, 0.17]) / np.hypot(0.31, 0.17)
    straightness = float(np.abs(rel - np.outer(rel @ direction, direction)).max())
    elapsed = time.perf_counter() - start
    ok = radius_err < 1e-4 and straightness < 1e-9 and elapsed < 10
    report(
        "C07",
        ok,
        f"radius error {radius_err:.2e} (<1e-4), straightness {straightness:.2e} "
        f"(<1e-9 of domain), {elapsed:.1f}s (<10s)",
    )


def test_c08_clustering():
    start = time.perf_counter()
    tracks, labels = planted_bundles()
    clusters = quickbundles(tracks, 2.0)
    pure = all(
        len({labels[i] for i in c.member_ids}) == 1 for c in clusters.clusters
    )
    recovered = len(clusters.clusters) == 2 and pure and sorted(
        len(c.member_ids) for c in clusters.clusters
    ) == [20, 20]
    counts = [
        len(quickbundles(tracks, t).clusters) for t in np.linspace(0.05, 12.0, 10)
    ]
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    elapsed = time.perf_counter() - start
    ok = recovered and monotone and elapsed < 10
    report(
        "C08",
        ok,
        f"2 clusters with exact memberships: {recovered}; sweep {counts} "
        f"non-increasing: {monotone}; {elapsed:.1f}s (<10s)",
    )


def test_c09_volume_io(tmp_path):
    start = time.perf_counter()
    rng = philox(77)
    exact = 0
    for trial in range(50):
        ndim = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(ndim)]
        spacing = [
            float(np.float32(rng.uniform(0.1, 2.0))) for _ in range(ndim)
        ]
        grid = CellGrid(dims, spacing)
        values = rng.standard_normal(grid.cell_count).astype(np.float32).astype(float)
        path = tmp_path / (f"v{trial}.nii.gz" if trial % 2 else f"v{trial}.nii")
        write_volume(path, grid, values)
        got_grid, got = read_volume(path)
        if got_grid == grid and np.array_equal(got.values, values):
            exact += 1

    malformed = [
        craft_nifti_bytes([4], [0.5], b"\x00" * 16, magic=b"abc\x00"),
        craft_nifti_bytes([4], [0.5], b"\x00" * 16, magic=b"ni1\x00"),
        b"\x00" * 80,
        craft_nifti_bytes([4], [0.5], b"\x00" * 32, datatype=64, bitpix=64),
        craft_nifti_bytes([4], [0.5], b"\x00" * 4),
        craft_nifti_bytes([4], [0.5], b"\x00" * 16,
                          sizeof_hdr=int.from_bytes((348).to_bytes(4, "big"), "little")),
    ]
    rejected = 0
    for i, blob in enumerate(malformed):
        bad = tmp_path / f"bad{i}.nii"
        bad.write_bytes(blob)
        try:
            read_volume(bad)
        except VolumeFormatError:
            rejected += 1
    elapsed = time.perf_counter() - start
    ok = exact == 50 and rejected == len(malformed) and elapsed < 10
    report(
        "C09",
        ok,
        f"{exact}/50 round trips bit-exact, {rejected}/{len(malformed)} malformed "
        f"fixtures rejected with named errors, {elapsed:.1f}s (<10s)",
    )


def test_c10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    spec_doc = {
        "dims": [16, 16], "spacing": [1 / 16, 1 / 16],
        "blobs": [{"center": [0.4, 0.5], "width": 0.14, "mass": 1.0}],
        "velocity": {"kind": "constant", "value": [2 / 16, 0.0]},
        "noise_std": 0.0003, "rng_seed": 99,
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_doc))
    data = tmp_path / "data"
    out = tmp_path / "out"
    cfg_doc = {
        "output_dir": str(out),
        "observations": [
            {"time_index": 0, "path": str(data / "obs_t0.nii")},
            {"time_index": 3, "path": str(data / "obs_t1.nii")},
        ],
        "time_steps": 3, "max_gn_iters": 8, "alpha": 0.3, "sigma": 0.002,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_doc))

    def tree():
        files = {}
        for root in (data, out):
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    files[str(p.relative_to(tmp_path))] = p.read_bytes()
        return files

    def pipeline():
        assert cli_main(["synth", str(spec), "--out", str(data)]) == 0
        assert cli_main(["solve", "--config", str(cfg)]) in (0, 2)
        assert cli_main(["fpa", "--config", str(cfg)]) == 0
        assert cli_main([
            "compare", str(out / "clean_t3.nii"), str(data / "obs_t1.nii"),
            "--csv", str(out / "report.csv"),
        ]) == 0
        return tree()

    first = pipeline()
    second = pipeline()
    elapsed = time.perf_counter() - start
    identical = first == second
    ok = identical and len(first) > 10 and elapsed < 300
    report(
        "C10",
        ok,
        f"two pipeline runs, {len(first)} files byte-identical: {identical}, "
        f"{elapsed:.0f}s (<300s)",
    )
