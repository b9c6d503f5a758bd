import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import otflow
import otflow.cli
from otflow.forward import DensitySeries, TimeGrid, VelocitySeries
from otflow.grid import CellGrid, ScalarField
from otflow.solver import registration_errors, solve_baseline
from otflow.synth import add_noise
from otflow.cli import _build_parser, _load_observations, main
from otflow.dataio import read_config, read_volume, write_velocity_series, write_volume
from otflow.errors import ConfigError

from conftest import gaussian_blob


def run(*argv):
    return main(list(argv))


def snapshot(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_pair(tmp_path, n=12, shift_cells=1, noise=0.0):
    grid = CellGrid([n, n], [1 / n, 1 / n])
    rho0 = gaussian_blob(grid, (0.45, 0.5), 0.16, 1.0)
    rhoT = gaussian_blob(grid, (0.45 + shift_cells / n, 0.5), 0.16, 1.0)
    if noise:
        rhoT = add_noise(rhoT, noise * rho0.values.max(), 17)
    write_volume(tmp_path / "rho0.nii", grid, rho0)
    write_volume(tmp_path / "rhoT.nii", grid, rhoT)
    return grid, rho0, rhoT


def write_config(tmp_path, **overrides):
    doc = {
        "output_dir": str(tmp_path / "out"),
        "observations": [
            {"time_index": 0, "path": str(tmp_path / "rho0.nii")},
            {"time_index": overrides.pop("final_index", 3),
             "path": str(tmp_path / "rhoT.nii")},
        ],
        "time_steps": 3,
        "max_gn_iters": 10,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSolveCommand:
    def test_identical_endpoints_zero_velocity(self, tmp_path):
        grid, rho0, _ = write_pair(tmp_path, shift_cells=0)
        cfg = write_config(tmp_path)
        assert run("solve", "--config", str(cfg)) == 0
        out = tmp_path / "out"
        for n in range(4):
            assert (out / f"clean_t{n}.nii").exists()
        for n in range(3):
            for k in range(2):
                _, comp = read_volume(out / f"velocity_t{n}_c{k}.nii")
                np.testing.assert_allclose(comp.values, 0.0)
        assert (out / "diagnostics.csv").exists()
        assert (out / "resolved_config.json").exists()

    def test_missing_input_names_path(self, tmp_path, capsys):
        write_pair(tmp_path)
        cfg = write_config(tmp_path)
        (tmp_path / "rhoT.nii").unlink()
        assert run("solve", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "rhoT.nii" in err

    def test_noisy_fixture_phi_non_increasing(self, tmp_path):
        write_pair(tmp_path, noise=0.05)
        cfg = write_config(tmp_path, alpha=0.3, sigma=0.02)
        code = run("solve", "--config", str(cfg))
        assert code in (0, 2)
        rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert rows[0] == "iter,phi,energy,misfit,grad_norm,step_length"
        phis = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(phis) >= 2
        assert all(b <= a for a, b in zip(phis, phis[1:]))

    def test_unconverged_exit_code_still_writes(self, tmp_path):
        write_pair(tmp_path, shift_cells=2)
        cfg = write_config(tmp_path, max_gn_iters=1, alpha=100.0,
                           stop_tolerance=1e-12)
        assert run("solve", "--config", str(cfg)) == 2
        assert (tmp_path / "out" / "clean_t3.nii").exists()

    def test_config_error_names_the_file_under_dry_run(self, tmp_path, capsys):
        write_pair(tmp_path)
        cfg = write_config(tmp_path, final_index=5)
        assert run("solve", "--config", str(cfg), "--dry-run") == 1
        assert (f"error: {cfg}: observation time_index 5 exceeds time_steps=3"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        write_pair(tmp_path)
        cfg = write_config(tmp_path)
        assert run("solve", "--config", str(cfg), "--dry-run") == 0
        assert not (tmp_path / "out").exists()
        assert "plan:" in capsys.readouterr().out

    @pytest.mark.parametrize("baseline_mode", [False, True])
    def test_negative_time_index_fails_dry_run(self, tmp_path, capsys, baseline_mode):
        write_pair(tmp_path)
        cfg = write_config(tmp_path, baseline_mode=baseline_mode)
        doc = json.loads(cfg.read_text())
        doc["observations"].append({"time_index": -1, "path": str(tmp_path / "rhoT.nii")})
        cfg.write_text(json.dumps(doc))
        assert run("solve", "--config", str(cfg), "--dry-run") == 1
        assert "observations[2].time_index" in capsys.readouterr().err
        assert run("solve", "--config", str(cfg)) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    @pytest.mark.parametrize("key", ["stop_tolerance", "alpha", "observations[1].weight"])
    def test_non_finite_number_names_key(self, tmp_path, capsys, key, dry_run):
        write_pair(tmp_path)
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        if key.startswith("observations"):
            doc["observations"][1]["weight"] = float("nan")
        else:
            doc[key] = float("inf")
        cfg.write_text(json.dumps(doc))  # written as the JSON literals NaN and Infinity
        assert run("solve", "--config", str(cfg), *dry_run) == 1
        assert f"key '{key}' must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dims, spacing", [([10, 12], [1 / 12, 1 / 12]),
                                               ([12, 12], [0.1, 1 / 12])],
                             ids=["dims", "spacing"])
    def test_observation_grid_mismatch_names_both_grids(self, tmp_path, capsys, dims, spacing):
        write_pair(tmp_path)
        other = CellGrid(dims, spacing)
        write_volume(tmp_path / "rhoT.nii", other, np.ones(other.cell_count))
        cfg = write_config(tmp_path)
        assert run("solve", "--config", str(cfg)) == 1
        grid0, _ = read_volume(tmp_path / "rho0.nii")
        gridT, _ = read_volume(tmp_path / "rhoT.nii")
        assert f"rhoT.nii has grid {gridT}, expected {grid0}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_voxel_names_file_and_voxel(self, tmp_path, capsys):
        grid, _, rhoT = write_pair(tmp_path)
        values = rhoT.values.copy()
        values[13] = np.nan
        write_volume(tmp_path / "rhoT.nii", grid, values)
        cfg = write_config(tmp_path)
        assert run("solve", "--config", str(cfg)) == 1
        assert f"error: {tmp_path / 'rhoT.nii'}: voxel (1, 1) holds nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_baseline_mode(self, tmp_path):
        write_pair(tmp_path, shift_cells=1)
        cfg = write_config(tmp_path, baseline_mode=True, alpha=1.0)
        code = run("solve", "--config", str(cfg))
        assert code in (0, 2)
        _, clean0 = read_volume(tmp_path / "out" / "clean_t0.nii")
        assert clean0.values.sum() == pytest.approx(1.0, abs=1e-6)


def _channel_outputs(tmp_path, n=24):
    """Fabricated solve outputs: two seeded channels moving uniformly right."""
    grid = CellGrid([n, n], [1 / n, 1 / n])
    density = ScalarField(
        grid,
        gaussian_blob(grid, (0.15, 0.3), 0.06, 1.0).values
        + gaussian_blob(grid, (0.15, 0.7), 0.06, 1.0).values,
    )
    tg = TimeGrid.unit_horizon(2)
    values = np.zeros((2, 2, grid.cell_count))
    values[:, 0, :] = 0.4  # uniform rightward drift
    out = tmp_path / "out"
    out.mkdir(parents=True, exist_ok=True)
    write_volume(out / "clean_t0.nii", grid, density)
    write_velocity_series(out / "velocity", VelocitySeries(grid, tg, values))
    return grid


class TestFpaCommand:
    def test_zero_velocity_streamlines_are_seeds(self, tmp_path):
        grid, rho0, _ = write_pair(tmp_path, shift_cells=0)
        cfg = write_config(tmp_path)
        assert run("solve", "--config", str(cfg)) == 0
        assert run("fpa", "--config", str(cfg)) == 0
        out = tmp_path / "out"
        lines = [json.loads(line) for line in (out / "streamlines.jsonl").read_text().splitlines()]
        assert lines and all(len(sl["points"]) == 1 for sl in lines)
        _, pathways = read_volume(out / "pathways.nii")
        seeds = np.array([sl["seed"] for sl in lines])
        occupancy = np.zeros(grid.cell_count)
        occupancy[grid.cells_of_points(seeds)] = 1.0
        counts = pathways.values
        assert counts.sum() == len(lines)
        np.testing.assert_array_equal(counts > 0, occupancy > 0)

    def test_planted_channels_give_two_clusters(self, tmp_path):
        _channel_outputs(tmp_path)
        cfg = write_config(tmp_path, qb_threshold=0.3, min_cluster_size=5,
                           seed_quantile=0.9)
        assert run("fpa", "--config", str(cfg)) == 0
        doc = json.loads((tmp_path / "out" / "clusters.json").read_text())
        assert len(doc["clusters"]) == 2
        sizes = sorted(len(c["member_ids"]) for c in doc["clusters"])
        assert min(sizes) >= 5
        _, labels = read_volume(tmp_path / "out" / "cluster_labels.nii")
        assert set(np.unique(labels.values)) == {0.0, 1.0, 2.0}

    def test_missing_solve_outputs_fail_with_stage(self, tmp_path, capsys):
        write_pair(tmp_path)
        cfg = write_config(tmp_path)
        assert run("fpa", "--config", str(cfg)) == 1
        assert "stage 'load'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("dims", None), ("dims", "24x24"), ("dt", "0.5"),
                                            ("bogus", 1)],
                             ids=["missing", "not-a-list", "mistyped", "unknown"])
    def test_bad_velocity_manifest_fails_in_load(self, tmp_path, capsys, key, value):
        _channel_outputs(tmp_path)
        path = tmp_path / "out" / "velocity_manifest.json"
        manifest = json.loads(path.read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path)
        assert run("fpa", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err
        assert f"'{key}'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("dt", 0.0), ("dims", [8, -8]), ("time_steps", 0), ("spacing", [0.1, 0.0]),
         ("components", 3)],
        ids=["dt-zero", "dims-negative", "no-steps", "spacing-zero", "components-mismatch"],
    )
    def test_out_of_range_velocity_manifest_names_path_and_key(
        self, tmp_path, capsys, key, value
    ):
        _channel_outputs(tmp_path)
        path = tmp_path / "out" / "velocity_manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path)
        assert run("fpa", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "error in stage 'load'" in err
        assert f"{path}: key '{key}' must be" in err

    def test_non_finite_velocity_fails_in_load(self, tmp_path, capsys):
        grid = _channel_outputs(tmp_path)
        path = tmp_path / "out" / "velocity_t1_c0.nii"
        values = np.full(grid.cell_count, 0.4)
        values[30] = np.nan
        write_volume(path, grid, values)
        cfg = write_config(tmp_path)
        assert run("fpa", "--config", str(cfg)) == 1
        assert f"error in stage 'load': {path}: voxel (6, 1) holds nan" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        _channel_outputs(tmp_path)
        cfg = write_config(tmp_path, qb_threshold=0.3)
        assert run("fpa", "--config", str(cfg)) == 0
        first = snapshot(tmp_path / "out")
        assert run("fpa", "--config", str(cfg)) == 0
        assert snapshot(tmp_path / "out") == first


class TestSynthCommand:
    def _spec(self, tmp_path, noise_std=0.02):
        doc = {
            "dims": [12, 12], "spacing": [1 / 12, 1 / 12],
            "blobs": [{"center": [0.4, 0.5], "width": 0.15, "mass": 2.5}],
            "velocity": {"kind": "constant", "value": [0.1, 0.0]},
            "noise_std": noise_std, "rng_seed": 21,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_fixed_seed_byte_identical(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "synth"
        assert run("synth", str(spec), "--out", str(out)) == 0
        first = snapshot(out)
        assert run("synth", str(spec), "--out", str(out)) == 0
        assert snapshot(out) == first
        assert set(first) == {
            "obs_t0.nii", "obs_t1.nii", "truth_t0.nii", "truth_t1.nii",
            "truth_manifest.json",
        }

    def test_zero_noise_observed_equals_truth(self, tmp_path):
        spec = self._spec(tmp_path, noise_std=0.0)
        out = tmp_path / "synth"
        assert run("synth", str(spec), "--out", str(out)) == 0
        _, truth = read_volume(out / "truth_t1.nii")
        _, obs = read_volume(out / "obs_t1.nii")
        assert np.array_equal(truth.values, obs.values)

    def test_manifest_mass(self, tmp_path):
        spec = self._spec(tmp_path)
        out = tmp_path / "synth"
        assert run("synth", str(spec), "--out", str(out)) == 0
        manifest = json.loads((out / "truth_manifest.json").read_text())
        assert manifest["total_mass"] == 2.5

    def test_spec_error_names_the_file_under_dry_run(self, tmp_path, capsys):
        path = self._spec(tmp_path, noise_std=-0.01)
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out), "--dry-run") == 1
        assert f"error: {path}: 'noise_std' must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_spec_exit_1(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [4]}))
        assert run("synth", str(path), "--out", str(tmp_path / "o")) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    def test_spacing_length_mismatch_fails_before_writing(self, tmp_path, capsys, dry_run):
        doc = json.loads(self._spec(tmp_path).read_text())
        doc["spacing"] = doc["spacing"][:1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out), *dry_run) == 1
        assert "'spacing'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    @pytest.mark.parametrize("times", [[0.0, -2.0], [-1.0, 1.0], [0.0, 0.5, 0.5]])
    def test_bad_observe_times_fail_before_writing(self, tmp_path, capsys, times, dry_run):
        doc = dict(json.loads(self._spec(tmp_path).read_text()), observe_times=times)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out), *dry_run) == 1
        assert "'observe_times' must be nonnegative and increasing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    def test_non_finite_blob_width_names_key(self, tmp_path, capsys, dry_run):
        doc = json.loads(self._spec(tmp_path).read_text())
        doc["blobs"][0]["width"] = float("inf")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out), *dry_run) == 1
        assert "key 'blobs[0].width' must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    def test_velocity_key_typo_fails_before_writing(self, tmp_path, capsys, dry_run):
        doc = json.loads(self._spec(tmp_path).read_text())
        doc["velocity"] = {"kind": "rotation", "center": [0.5, 0.5], "rat": 0.6}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out), *dry_run) == 1
        assert f"error: {path}: unknown key 'velocity.rat'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    @pytest.mark.parametrize("change, message", [
        ({"velocity": {"kind": "rotation", "center": [0.5, 0.5], "rate": 0.6},
          "sigma_true": 0.01}, "'sigma_true' must be 0 for 'velocity.kind' 'rotation'"),
        ({"velocity": {"kind": "shear", "center": [0.5, 0.5], "rate": 0.6},
          "sigma_true": 0.01}, "'sigma_true' must be 0 for 'velocity.kind' 'shear'"),
        ({"dims": [40000], "spacing": [1.0],
          "blobs": [{"center": [2.0], "width": 1.0, "mass": 1.0}],
          "velocity": {"kind": "constant", "value": [0.0]}},
         "'dims' entries must be at most 32767"),
        ({"rng_seed": 2**64 - 1}, "'rng_seed' plus the number of 'observe_times'"),
    ], ids=["rotation-with-diffusion", "shear-with-diffusion", "dims-past-nifti",
            "rng-seed-past-philox"])
    def test_spec_it_cannot_write_fails_before_writing(self, tmp_path, capsys, change,
                                                       message, dry_run):
        doc = dict(json.loads(self._spec(tmp_path).read_text()), **change)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out), *dry_run) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_last_philox_key_is_written(self, tmp_path):
        doc = dict(json.loads(self._spec(tmp_path).read_text()), rng_seed=2**64 - 2)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert run("synth", str(path), "--out", str(out)) == 0
        manifest = json.loads((out / "truth_manifest.json").read_text())
        assert [v["noise_seed"] for v in manifest["volumes"]] == [2**64 - 2, 2**64 - 1]

    def test_dims_not_a_list_names_key_under_dry_run(self, tmp_path, capsys):
        doc = dict(json.loads(self._spec(tmp_path).read_text()), dims=5)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run("synth", str(path), "--out", str(tmp_path / "synth"), "--dry-run") == 1
        assert f"error: {path}: key 'dims' must be a list" in capsys.readouterr().err


class TestCompareCommand:
    def test_identical_volumes(self, tmp_path, capsys):
        grid = CellGrid([6, 6], [1 / 6, 1 / 6])
        f = gaussian_blob(grid, (0.5, 0.5), 0.2, 1.0)
        write_volume(tmp_path / "a.nii", grid, f)
        write_volume(tmp_path / "b.nii", grid, f)
        csv_path = tmp_path / "report.csv"
        assert run("compare", str(tmp_path / "a.nii"), str(tmp_path / "b.nii"),
                   "--csv", str(csv_path)) == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "label,metric,step,value"
        values = {r.split(",")[1]: float(r.split(",")[3]) for r in rows[1:]}
        assert values["mse"] == 0.0
        assert values["inf_norm"] == 0.0

    def test_constant_offset_closed_form(self, tmp_path):
        grid = CellGrid([10], [1.0])
        write_volume(tmp_path / "a.nii", grid, np.zeros(10))
        write_volume(tmp_path / "b.nii", grid, np.full(10, 0.1))
        csv_path = tmp_path / "report.csv"
        assert run("compare", str(tmp_path / "a.nii"), str(tmp_path / "b.nii"),
                   "--csv", str(csv_path)) == 0
        rows = csv_path.read_text().splitlines()[1:]
        values = {r.split(",")[1]: float(r.split(",")[3]) for r in rows}
        assert values["mse"] == pytest.approx(0.01, rel=1e-6)
        assert values["inf_norm"] == pytest.approx(0.1, rel=1e-6)

    def test_grid_mismatch_exit_1(self, tmp_path, capsys):
        write_volume(tmp_path / "a.nii", CellGrid([4], [1.0]), np.zeros(4))
        write_volume(tmp_path / "b.nii", CellGrid([4], [0.5]), np.zeros(4))
        assert run("compare", str(tmp_path / "a.nii"), str(tmp_path / "b.nii")) == 1
        assert "error" in capsys.readouterr().err

    def test_series_directories_report_per_step_errors(self, tmp_path):
        grid = CellGrid([5, 5], [0.2, 0.2])
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        base = gaussian_blob(grid, (0.5, 0.5), 0.2, 1.0)
        for n in range(3):
            write_volume(a_dir / f"clean_t{n}.nii", grid, base)
            write_volume(b_dir / f"clean_t{n}.nii", grid,
                         ScalarField(grid, base.values + 0.25))
        csv_path = tmp_path / "r.csv"
        assert run("compare", str(a_dir), str(b_dir), "--csv", str(csv_path)) == 0
        rows = [r.split(",") for r in csv_path.read_text().splitlines()[1:]]
        assert [r[:3] for r in rows] == [
            ["result", metric, step] for metric in ("mse", "inf_norm") for step in ("1", "2")
        ]
        for r, want in zip(rows, [0.0625, 0.0625, 0.25, 0.25]):
            assert float(r[3]) == pytest.approx(want, rel=1e-6)

    def test_series_baseline_reports_its_frames_1_to_m(self, tmp_path):
        grid, _, rhoT = write_pair(tmp_path, shift_cells=1)
        cfg_path = write_config(tmp_path, alpha=0.3)  # observations at 0 and T = 3
        series = tmp_path / "series"
        series.mkdir()
        for n in range(4):
            write_volume(series / f"clean_t{n}.nii", grid, rhoT)
        csv_path = tmp_path / "r.csv"
        assert run("compare", str(series), str(series), "--baseline",
                   "--config", str(cfg_path), "--csv", str(csv_path)) == 0
        rows = [r.split(",") for r in csv_path.read_text().splitlines()[1:]]
        assert [r[:3] for r in rows] == [
            [label, metric, str(n)]
            for label in ("result", "baseline") for metric in ("mse", "inf_norm") for n in (1, 2, 3)
        ]
        assert all(float(r[3]) == 0.0 for r in rows[:6])
        cfg = read_config(cfg_path)
        baseline = solve_baseline(_load_observations(cfg), cfg).densities
        frame = read_volume(series / "clean_t3.nii")[1].values
        target = DensitySeries(baseline.grid, baseline.time_grid, np.stack([frame] * 4))
        mse, inf_norm = registration_errors(baseline, target)
        assert [float(r[3]) for r in rows[6:]] == [*mse[1:], *inf_norm[1:]]

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    def test_series_baseline_refuses_another_frame_count_before_solving(
        self, tmp_path, capsys, monkeypatch, dry_run
    ):
        grid, _, rhoT = write_pair(tmp_path)
        cfg = write_config(tmp_path, time_steps=4, final_index=4)  # a baseline of 5 frames
        series = tmp_path / "series"
        series.mkdir()
        for n in range(3):
            write_volume(series / f"clean_t{n}.nii", grid, rhoT)

        def solve_baseline(*args):
            raise AssertionError("the baseline was solved")

        monkeypatch.setattr(otflow.cli, "solve_baseline", solve_baseline)
        assert run("compare", str(series), str(series), "--baseline",
                   "--config", str(cfg), *dry_run) == 1
        assert capsys.readouterr().err == (
            f"error: {series} holds 3 frames, but the baseline of time_steps=4 "
            f"in {cfg} has 5\n")

    def test_config_without_baseline_refused(self, tmp_path, capsys):
        write_pair(tmp_path)
        cfg = write_config(tmp_path)
        assert run("compare", str(tmp_path / "rho0.nii"), str(tmp_path / "rhoT.nii"),
                   "--config", str(cfg)) == 1
        assert "--config is only read with --baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    @pytest.mark.parametrize("dir_first", [True, False], ids=["dir-volume", "volume-dir"])
    def test_directory_and_volume_refused(self, tmp_path, capsys, dry_run, dir_first):
        grid, _, _ = write_pair(tmp_path)
        series = tmp_path / "series"
        series.mkdir()
        for n in range(2):
            write_volume(series / f"clean_t{n}.nii", grid, np.zeros(grid.cell_count))
        pair = [str(series), str(tmp_path / "rhoT.nii")]
        assert run("compare", *(pair if dir_first else pair[::-1]), *dry_run) == 1
        err = capsys.readouterr().err
        assert "needs two volumes or two directories of clean_t*.nii" in err

    def test_baseline_flag_reports_both(self, tmp_path):
        write_pair(tmp_path, shift_cells=1, noise=0.05)
        cfg = write_config(tmp_path, alpha=0.3)
        csv_path = tmp_path / "r.csv"
        assert run("compare", str(tmp_path / "rhoT.nii"), str(tmp_path / "rhoT.nii"),
                   "--baseline", "--config", str(cfg), "--csv", str(csv_path)) == 0
        labels = {r.split(",")[0] for r in csv_path.read_text().splitlines()[1:]}
        assert labels == {"result", "baseline"}


    @pytest.mark.parametrize("dry_run", [(), ("--dry-run",)], ids=["run", "dry-run"])
    def test_baseline_flag_refuses_what_baseline_mode_refuses(self, tmp_path, capsys, dry_run):
        # the last observation at index 2 of 4, with weight 3: the baseline
        # would fit it at T and drop its weight
        write_pair(tmp_path)
        cfg = write_config(tmp_path, time_steps=4, final_index=2, baseline_mode=False)
        doc = json.loads(cfg.read_text())
        doc["observations"][1]["weight"] = 3.0
        cfg.write_text(json.dumps(doc))
        argv = ["compare", str(tmp_path / "rhoT.nii"), str(tmp_path / "rhoT.nii"),
                "--baseline", "--config", str(cfg), *dry_run]
        assert run(*argv) == 1
        assert "compare --baseline) needs exactly the observations" in capsys.readouterr().err
        args = _build_parser().parse_args(argv)
        with pytest.raises(ConfigError) as info:
            args.func(args)
        assert info.value.key == "observations"


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        spec_doc = {
            "dims": [12, 12], "spacing": [1 / 12, 1 / 12],
            "blobs": [{"center": [0.42, 0.5], "width": 0.16, "mass": 1.0}],
            "velocity": {"kind": "constant", "value": [1 / 12, 0.0]},
            "noise_std": 0.0004, "rng_seed": 33,
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        data = tmp_path / "data"
        cfg_doc = {
            "output_dir": str(tmp_path / "out"),
            "observations": [
                {"time_index": 0, "path": str(data / "obs_t0.nii")},
                {"time_index": 3, "path": str(data / "obs_t1.nii")},
            ],
            "time_steps": 3, "max_gn_iters": 6, "alpha": 0.3, "sigma": 0.002,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_doc))

        def pipeline():
            assert run("synth", str(spec), "--out", str(data)) == 0
            assert run("solve", "--config", str(cfg)) in (0, 2)
            assert run("fpa", "--config", str(cfg)) == 0
            return {**snapshot(data), **snapshot(tmp_path / "out")}

        assert pipeline() == pipeline()

    def test_solve_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS splits a float64 dot of more than about 10^4 values across
        # its threads, and reads its thread count when numpy loads, hence one
        # subprocess per count; 24^3 puts the start's CG and the gradient
        # norm well past that size
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) < 2:
            warnings.warn(f"{cpus} CPU: OpenBLAS runs one thread at either count, "
                          "so this test cannot catch a sum split across threads")
        spec_doc = {
            "dims": [24, 24, 24], "spacing": [1 / 24] * 3,
            "blobs": [{"center": [0.32, 0.5, 0.5], "width": 0.08, "mass": 0.5},
                      {"center": [0.68, 0.5, 0.5], "width": 0.08, "mass": 0.5}],
            "velocity": {"kind": "rotation", "center": [0.5, 0.5, 0.5], "rate": 0.6},
            "noise_std": 2.25e-5, "rng_seed": 202,
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        data, out = tmp_path / "data", tmp_path / "out"
        assert run("synth", str(spec), "--out", str(data)) == 0
        cfg = write_config(tmp_path, observations=[
            {"time_index": 0, "path": str(data / "obs_t0.nii")},
            {"time_index": 3, "path": str(data / "obs_t1.nii")},
        ], max_gn_iters=1, alpha=0.3, sigma=0.002)
        src = str(Path(otflow.__file__).parents[1])

        def solve_with(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "otflow", "solve", "--config", str(cfg)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode in (0, 2), done.stderr
            return snapshot(out)

        one, two = solve_with(1), solve_with(2)
        assert len(one) > 10
        assert [name for name in one if one[name] != two.get(name)] == []
