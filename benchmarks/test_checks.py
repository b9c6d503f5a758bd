"""Each correctness check passes on real pipeline output and fails once that
output is corrupted.

    python3 -m pytest benchmarks/test_checks.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run as bench  # noqa: E402

TINY = bench.Workload(
    spec={
        "dims": [12, 10], "spacing": [1 / 12, 1 / 10],
        "blobs": [{"center": [0.4, 0.5], "width": 0.15, "mass": 1.0}],
        "velocity": {"kind": "constant", "value": [1 / 12, 0.0]},
        "noise_std": 2e-4,
    },
    config={"sigma": 0.01, "alpha": 0.3, "time_steps": 2, "max_gn_iters": 2,
            "seed_quantile": 0.8, "min_cluster_size": 1},
    compare_baseline=True,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cli = bench.import_program()
    run = bench.Run(TINY, seed=5, base=tmp_path_factory.mktemp("tiny"))
    run.write_inputs()
    _, failed = bench.run_stages(cli, run, tracer=None)
    assert failed == 0
    return run


@pytest.fixture
def out(tiny_run, tmp_path):
    """A private copy of the run's output directory, free to corrupt."""
    return Path(shutil.copytree(tiny_run.out, tmp_path / "out"))


def rewrite_values(path: Path, change) -> None:
    """Apply change(values) to a float32 volume in place, keeping its header."""
    blob = bytearray(path.read_bytes())
    values = np.frombuffer(bytes(blob[352:]), dtype="<f4").copy()
    change(values)
    blob[352:] = values.astype("<f4").tobytes()
    path.write_bytes(bytes(blob))


def test_reader_matches_program(tiny_run):
    dataio = importlib.import_module("otflow.dataio")
    grid, field = dataio.read_volume(tiny_run.final)
    dims, spacing, values = checks.read_nifti(tiny_run.final)
    assert dims == grid.dims
    assert spacing == pytest.approx(grid.spacing)
    assert np.array_equal(values, field.values)


def test_clean_series(out):
    assert checks.check_clean_series(out, unit_mass=False) == []


def test_clean_series_negative_value_fails(out):
    def negate_first(v):
        # move the first cell's mass to the second, so only the sign is wrong
        v[1] += v[0] + 1e-6
        v[0] = -1e-6

    rewrite_values(out / "clean_t1.nii", negate_first)
    errors = checks.check_clean_series(out, unit_mass=False)
    assert any("negative" in e for e in errors)
    assert not any("mass" in e for e in errors)


def test_clean_series_mass_drift_fails(out):
    rewrite_values(out / "clean_t2.nii", lambda v: v.__imul__(1.0 + 1e-5))
    errors = checks.check_clean_series(out, unit_mass=False)
    assert any("clean_t2 mass drifts" in e for e in errors)


def test_clean_series_unit_mass_fails_on_other_mass(out):
    # noisy observations carry more than the unit mass of the spec
    errors = checks.check_clean_series(out, unit_mass=True)
    assert any("is not 1" in e for e in errors)


def test_phi(out):
    assert checks.check_phi_nonincreasing(out / "diagnostics.csv") == []


def test_phi_increase_fails(out):
    path = out / "diagnostics.csv"
    header, *rows = path.read_text().splitlines()
    fields = rows[-1].split(",")
    fields[1] = repr(2.0 * float(rows[0].split(",")[1]))
    path.write_text("\n".join([header, *rows[:-1], ",".join(fields)]) + "\n")
    assert checks.check_phi_nonincreasing(path)


def test_denoising():
    assert checks.check_denoising(1.0, obs_mse=2.0, baseline_mse=3.0) == []
    assert checks.check_denoising(2.0, obs_mse=1.0, baseline_mse=5.0)
    assert checks.check_denoising(1.0, obs_mse=2.0, baseline_mse=1.5)


def test_compare_report_has_baseline(out):
    report = checks.compare_report(out / "report.csv")
    assert {("result", "mse"), ("baseline", "mse")} <= set(report)


def test_streamlines_in_domain(out):
    lines = checks.read_streamlines(out / "streamlines.jsonl")
    assert lines
    dims, spacing, _ = checks.read_nifti(out / "pathways.nii")
    assert checks.check_streamlines_in_domain(lines, dims, spacing) == []
    lines[0][-1, 0] = dims[0] * spacing[0] * 1.01
    assert checks.check_streamlines_in_domain(lines, dims, spacing)


def test_pathways(out):
    lines = checks.read_streamlines(out / "streamlines.jsonl")
    assert checks.check_pathways(lines, out / "pathways.nii") == []


def test_pathways_miscount_fails(out):
    lines = checks.read_streamlines(out / "streamlines.jsonl")
    rewrite_values(out / "pathways.nii", lambda v: v.__setitem__(int(np.argmax(v)), v.max() + 1))
    assert checks.check_pathways(lines, out / "pathways.nii")


def test_pathways_dropped_streamline_fails(out):
    lines = checks.read_streamlines(out / "streamlines.jsonl")
    assert checks.check_pathways(lines[1:], out / "pathways.nii")


def test_clusters(out):
    n = len(checks.read_streamlines(out / "streamlines.jsonl"))
    assert checks.check_clusters(out / "clusters.json", n) == []


@pytest.mark.parametrize("member", ["duplicate", "out_of_range"])
def test_cluster_members_fail(out, member):
    path = out / "clusters.json"
    n = len(checks.read_streamlines(out / "streamlines.jsonl"))
    doc = json.loads(path.read_text())
    ids = doc["clusters"][0]["member_ids"]
    ids.append(ids[0] if member == "duplicate" else n)
    path.write_text(json.dumps(doc))
    assert checks.check_clusters(path, n)


def test_same_tree(out):
    first = checks.tree_digest(out)
    assert checks.check_same_tree(first, checks.tree_digest(out)) == []
    rewrite_values(out / "clean_t0.nii", lambda v: v.__setitem__(3, v[3] * 2))
    assert checks.check_same_tree(first, checks.tree_digest(out))
