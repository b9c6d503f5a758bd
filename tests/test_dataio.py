import dataclasses
import gzip
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from otflow.errors import (
    BadMagicError,
    ConfigError,
    HeaderError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    VolumeFormatError,
)
from otflow.forward import TimeGrid, VelocitySeries
from otflow.grid import CellGrid, ScalarField
from otflow.dataio import (
    RunConfig,
    read_config,
    read_synth_spec,
    read_velocity_series,
    read_volume,
    write_clusters_json,
    write_streamlines_jsonl,
    write_velocity_series,
    write_volume,
)
from otflow.bundles import quickbundles
from otflow.solver import ObservationEntry, ObservationSet, SolverConfig, check_schedule, solve
from otflow.streamlines import Streamline

from conftest import philox


def f4(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def make_volume(seed, dims, spacing):
    grid = CellGrid(dims, spacing)
    vals = f4(philox(seed).standard_normal(grid.cell_count))
    return grid, ScalarField(grid, vals)


def craft_nifti_bytes(dims, spacing, payload, datatype=16, bitpix=32, magic=b"n+1\x00",
                      sizeof_hdr=348, vox_offset=352.0, scl_slope=0.0, scl_inter=0.0):
    """Byte-level fixture built directly from the header field offsets."""
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, sizeof_hdr)
    dim = [len(dims)] + list(dims) + [1] * (7 - len(dims))
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, bitpix)
    pixdim = [1.0] + list(spacing) + [0.0] * (7 - len(spacing))
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<3f", hdr, 108, vox_offset, scl_slope, scl_inter)
    struct.pack_into("<4s", hdr, 344, magic)
    return bytes(hdr) + b"\x00" * 4 + payload


class TestVolumeRoundTrip:
    @pytest.mark.parametrize("dims,spacing", [
        ([7], [0.5]), ([5, 3], [0.5, 0.25]), ([4, 3, 2], [0.5, 0.25, 1.0]),
    ])
    def test_round_trip_bit_exact(self, tmp_path, dims, spacing):
        grid, field = make_volume(sum(dims), dims, spacing)
        field.values[0] = -0.0
        path = tmp_path / "vol.nii"
        write_volume(path, grid, field)
        got_grid, got = read_volume(path)
        assert got_grid == grid
        assert np.array_equal(got.values, field.values)
        assert np.signbit(got.values[0])

    def test_round_trip_gzip(self, tmp_path):
        grid, field = make_volume(9, [6, 6], [0.125, 0.125])
        path = tmp_path / "vol.nii.gz"
        write_volume(path, grid, field)
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        got_grid, got = read_volume(path)
        assert got_grid == grid
        assert np.array_equal(got.values, field.values)

    def test_dims_past_int16_refused(self, tmp_path):
        # the header stores each dim as int16, so 32767 cells is the most an axis holds
        path = tmp_path / "vol.nii"
        write_volume(path, CellGrid([32767], [1.0]), np.zeros(32767))
        assert read_volume(path)[0].dims == (32767,)
        with pytest.raises(ValueError, match="at most 32767 cells per axis"):
            write_volume(tmp_path / "big.nii", CellGrid([4, 40000], [1.0, 1.0]), np.zeros(160000))
        assert not (tmp_path / "big.nii").exists()

    def test_gzip_bytes_deterministic(self, tmp_path):
        grid, field = make_volume(10, [4, 4], [0.25, 0.25])
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_volume(a, grid, field)
        write_volume(b, grid, field)
        assert a.read_bytes() == b.read_bytes()

    def test_header_constants(self, tmp_path):
        grid, field = make_volume(11, [4, 3, 2], [0.5, 0.25, 1.0])
        path = tmp_path / "vol.nii"
        write_volume(path, grid, field)
        raw = path.read_bytes()
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        dim = struct.unpack_from("<8h", raw, 40)
        assert dim[0] == 3 and dim[1:4] == (4, 3, 2)
        assert struct.unpack_from("<h", raw, 70)[0] == 16  # float32
        assert struct.unpack_from("<f", raw, 108)[0] == 352.0
        assert raw[344:347] == b"n+1"

    def test_pathway_counts_exact(self, tmp_path):
        grid = CellGrid([8, 8], [1.0, 1.0])
        counts = philox(12).integers(0, 2**20, grid.cell_count).astype(float)
        path = tmp_path / "counts.nii"
        write_volume(path, grid, counts)
        _, got = read_volume(path)
        assert np.array_equal(got.values, counts)


class TestHandCraftedAndMalformed:
    def test_hand_crafted_2x2x2(self, tmp_path):
        values = [1.5, -2.0, 3.25, 0.0, 42.0, -0.125, 7.0, 9.5]
        payload = struct.pack("<8f", *values)
        blob = craft_nifti_bytes([2, 2, 2], [1.0, 2.0, 4.0], payload)
        path = tmp_path / "crafted.nii"
        path.write_bytes(blob)
        grid, field = read_volume(path)
        assert grid.dims == (2, 2, 2)
        assert grid.spacing == (1.0, 2.0, 4.0)
        np.testing.assert_array_equal(field.values, values)

    def test_int16_converted(self, tmp_path):
        payload = struct.pack("<4h", -3, 0, 7, 32000)
        blob = craft_nifti_bytes([4], [0.5], payload, datatype=4, bitpix=16)
        path = tmp_path / "short.nii"
        path.write_bytes(blob)
        _, field = read_volume(path)
        np.testing.assert_array_equal(field.values, [-3.0, 0.0, 7.0, 32000.0])

    def test_int16_scaled(self, tmp_path):
        payload = struct.pack("<4h", 100, 200, 300, 400)
        blob = craft_nifti_bytes([4], [0.5], payload, datatype=4, bitpix=16,
                                 scl_slope=0.01, scl_inter=-1.0)
        path = tmp_path / "scaled.nii"
        path.write_bytes(blob)
        _, field = read_volume(path)
        slope = float(np.float32(0.01))  # the header holds float32
        np.testing.assert_array_equal(field.values, slope * np.array([100, 200, 300, 400]) - 1.0)
        np.testing.assert_allclose(field.values, [0.0, 1.0, 2.0, 3.0], atol=1e-6)

    @pytest.mark.parametrize("slope, inter", [(np.nan, 0.0), (np.inf, 2.0), (np.nan, np.nan)],
                             ids=["nan", "inf", "nan_inter"])
    def test_non_finite_slope_reads_unscaled(self, tmp_path, slope, inter):
        # nibabel stores NaN here for unscaled float volumes
        blob = craft_nifti_bytes([4], [0.5], struct.pack("<4f", 1, 2, 3, 4),
                                 scl_slope=slope, scl_inter=inter)
        path = tmp_path / "nan_slope.nii"
        path.write_bytes(blob)
        _, field = read_volume(path)
        np.testing.assert_array_equal(field.values, [1.0, 2.0, 3.0, 4.0])

    def test_non_finite_intercept_rejected(self, tmp_path):
        blob = craft_nifti_bytes([4], [0.5], struct.pack("<4f", 1, 2, 3, 4),
                                 scl_slope=1.0, scl_inter=np.inf)
        path = tmp_path / "inf_inter.nii"
        path.write_bytes(blob)
        with pytest.raises(HeaderError, match=re.escape(str(path)) + ".*must be finite"):
            read_volume(path)

    @pytest.mark.parametrize("offset", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_vox_offset_names_file(self, tmp_path, offset):
        blob = craft_nifti_bytes([4], [0.5], struct.pack("<4f", 1, 2, 3, 4), vox_offset=offset)
        path = tmp_path / "bad_offset.nii"
        path.write_bytes(blob)
        with pytest.raises(HeaderError, match=re.escape(f"{path}: data offset {offset}")):
            read_volume(path)

    def test_non_finite_voxel_names_file_and_index(self, tmp_path):
        payload = struct.pack("<6f", 0.0, 1.0, 2.0, 3.0, np.nan, np.inf)
        path = tmp_path / "nan_voxel.nii"
        path.write_bytes(craft_nifti_bytes([2, 3], [0.5, 0.5], payload))
        with pytest.raises(VolumeFormatError, match=re.escape(f"{path}: voxel (0, 2)")):
            read_volume(path)

    def test_wrong_magic(self, tmp_path):
        blob = craft_nifti_bytes([4], [0.5], b"\x00" * 16, magic=b"abc\x00")
        path = tmp_path / "bad_magic.nii"
        path.write_bytes(blob)
        with pytest.raises(BadMagicError, match="not a single-file NIfTI-1"):
            read_volume(path)

    def test_pair_style_magic_rejected(self, tmp_path):
        blob = craft_nifti_bytes([4], [0.5], b"\x00" * 16, magic=b"ni1\x00")
        path = tmp_path / "pair.nii"
        path.write_bytes(blob)
        with pytest.raises(BadMagicError):
            read_volume(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(HeaderError, match="shorter"):
            read_volume(path)

    def test_byteswapped_header_size(self, tmp_path):
        swapped = struct.unpack("<i", struct.pack(">i", 348))[0]
        blob = craft_nifti_bytes([4], [0.5], b"\x00" * 16, sizeof_hdr=swapped)
        path = tmp_path / "swapped.nii"
        path.write_bytes(blob)
        with pytest.raises(HeaderError, match="byte order"):
            read_volume(path)

    def test_unsupported_datatype(self, tmp_path):
        blob = craft_nifti_bytes([4], [0.5], b"\x00" * 32, datatype=64, bitpix=64)
        path = tmp_path / "f64.nii"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedDatatypeError, match="datatype code 64"):
            read_volume(path)

    def test_truncated_data(self, tmp_path):
        payload = struct.pack("<2f", 1.0, 2.0)  # header promises 4 values
        blob = craft_nifti_bytes([4], [0.5], payload)
        path = tmp_path / "trunc.nii"
        path.write_bytes(blob)
        with pytest.raises(TruncatedDataError, match="expected 16"):
            read_volume(path)

    def test_bad_dimensionality(self, tmp_path):
        blob = craft_nifti_bytes([2, 2, 2], [1.0, 1.0, 1.0], b"\x00" * 32)
        mutated = bytearray(blob)
        struct.pack_into("<h", mutated, 40, 5)  # dim[0] = 5
        path = tmp_path / "dim5.nii"
        path.write_bytes(bytes(mutated))
        with pytest.raises(HeaderError, match="dimensionality"):
            read_volume(path)

    @pytest.mark.parametrize("dims, spacing, message", [
        ([4, 0], [0.5, 0.5], "key 'dims' must be 1 to 3 positive cell counts, got [4, 0]"),
        ([4, 2], [0.5, 0.0], "key 'spacing' must be positive and finite, one per axis"),
    ], ids=["dims", "spacing"])
    def test_bad_geometry_names_file_and_grid_rule(self, tmp_path, dims, spacing, message):
        path = tmp_path / "bad_grid.nii"
        path.write_bytes(craft_nifti_bytes(dims, spacing, b"\x00" * 32))
        with pytest.raises(HeaderError, match=re.escape(f"{path}: {message}")):
            read_volume(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_volume(tmp_path / "nope.nii")


class TestVelocitySeries:
    def test_file_count_and_manifest(self, tmp_path):
        grid = CellGrid([4, 3], [0.25, 0.5])
        tg = TimeGrid.unit_horizon(1)
        v = VelocitySeries(grid, tg, f4(philox(13).standard_normal((1, 2, 12))))
        prefix = tmp_path / "velocity"
        write_velocity_series(prefix, v)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "velocity_manifest.json", "velocity_t0_c0.nii", "velocity_t0_c1.nii",
        ]
        manifest = json.loads((tmp_path / "velocity_manifest.json").read_text())
        assert manifest["time_steps"] * manifest["dt"] == pytest.approx(1.0, abs=1e-12)
        assert manifest["components"] == 2

    def test_round_trip(self, tmp_path):
        grid = CellGrid([5, 4], [0.5, 0.25])
        tg = TimeGrid.unit_horizon(3)
        v = VelocitySeries(grid, tg, f4(philox(14).standard_normal((3, 2, 20))))
        prefix = tmp_path / "velocity"
        write_velocity_series(prefix, v)
        got = read_velocity_series(prefix)
        assert got.grid == grid
        assert got.time_grid == tg
        assert np.array_equal(got.values, v.values)

    def test_empty_grid_in_manifest_names_key(self, tmp_path):
        path = tmp_path / "velocity_manifest.json"
        path.write_text(json.dumps({"time_steps": 1, "dt": 1.0, "components": 0,
                                    "dims": [], "spacing": []}))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: key 'dims' must be")) as info:
            read_velocity_series(tmp_path / "velocity")
        assert info.value.key == "dims"


class TestStreamlineAndClusterFiles:
    def test_streamlines_jsonl_round_trip(self, tmp_path):
        rng = philox(15)
        lines = [
            Streamline(pts[0], pts, 0.01)
            for pts in (rng.uniform(0, 1, (int(rng.integers(1, 9)), 2)) for _ in range(5))
        ]
        path = tmp_path / "streamlines.jsonl"
        write_streamlines_jsonl(path, lines)
        got = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(got) == len(lines)
        for a, b in zip(got, lines):
            assert np.array_equal(a["points"], b.points)
            assert a["step_size"] == b.step_size

    def test_clusters_json_shape(self, tmp_path):
        xs = np.linspace(0, 1, 12)
        tracks = [np.stack([xs, np.full(12, y)], axis=1) for y in (0.0, 0.01, 5.0)]
        cs = quickbundles(tracks, 0.5)
        path = tmp_path / "clusters.json"
        write_clusters_json(path, cs)
        doc = json.loads(path.read_text())
        assert doc["threshold"] == 0.5
        assert [c["member_ids"] for c in doc["clusters"]] == [[0, 1], [2]]
        assert len(doc["clusters"][0]["centroid"]) == 12


MINIMAL_CONFIG = {
    "output_dir": "out",
    "observations": [
        {"time_index": 0, "path": "rho0.nii"},
        {"time_index": 4, "path": "rhoT.nii"},
    ],
}


class TestRunConfig:
    def test_errors_name_the_file_and_keep_the_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(MINIMAL_CONFIG, time_steps=3)))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: observation time_index 4 "
                                                        "exceeds time_steps=3")) as info:
            read_config(path)
        assert info.value.key == "observations"

    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL_CONFIG))
        cfg = read_config(path)
        assert cfg.time_steps == 4
        assert cfg.seed_quantile == 0.9
        assert cfg.qb_points == 12
        assert cfg.alpha == 1.0
        assert cfg.streamline_step is None

    def test_type_error_names_key(self, tmp_path):
        doc = dict(MINIMAL_CONFIG, alpha="high")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="'alpha'"):
            read_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        # armijo_c is a fixed solver constant, not a settable key
        for key in ("alhpa", "armijo_c"):
            doc = dict(MINIMAL_CONFIG, **{key: 2.0})
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=f"'{key}'"):
                read_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sigma", -1),
            ("max_gn_iters", 0),
            ("seed_quantile", 0.0),
            ("seed_quantile", 1),
            ("streamline_step", 0),
            ("max_streamline_steps", 0),
            ("qb_points", 1),
            ("qb_threshold", -0.5),
            ("min_cluster_size", 0),
        ],
    )
    def test_out_of_range_value_names_key(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(MINIMAL_CONFIG, **{key: value})))
        with pytest.raises(ConfigError, match=f"'{key}'") as info:
            read_config(path)
        assert info.value.key == key

    def test_readme_table_matches_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Run configuration", 1)[1].split("\n### ", 1)[0]
        rows = dict(re.findall(r"^\| `(\w+)` \| (.+?) \|", section, flags=re.M))
        documented = {
            key: cell if cell == "required" else json.loads(cell.strip("`"))
            for key, cell in rows.items()
        }
        expected = {
            f.name: "required" if f.default is dataclasses.MISSING else f.default
            for f in dataclasses.fields(RunConfig)
        }
        assert documented == expected

    def test_unknown_observation_key_names_path(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL_CONFIG))
        doc["observations"][1]["wieght"] = 2.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"observations\[1\]"):
            read_config(path)

    def test_requires_initial_observation(self, tmp_path):
        doc = {"output_dir": "out",
               "observations": [{"time_index": 4, "path": "rhoT.nii"}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="time_index 0"):
            read_config(path)

    def test_observation_index_within_horizon(self, tmp_path):
        doc = dict(MINIMAL_CONFIG, time_steps=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="exceeds time_steps"):
            read_config(path)

    def test_resolved_dump_idempotent(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(MINIMAL_CONFIG, sigma=0.02, qb_threshold=0.3)))
        cfg = read_config(path)
        resolved = tmp_path / "resolved.json"
        resolved.write_text(cfg.to_json())
        again = read_config(resolved)
        assert again == cfg
        assert again.to_json() == cfg.to_json()

    def test_bool_not_accepted_as_number(self, tmp_path):
        doc = dict(MINIMAL_CONFIG, alpha=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="'alpha'"):
            read_config(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            read_config(path)

    @pytest.mark.parametrize(
        "observations",
        [[(0, 1.0), (2, 1.0), (4, 1.0)], [(0, 1.0), (3, 1.0)], [(0, 1.0), (4, 2.0)]],
        ids=["intermediate", "endpoint-before-T", "weighted"],
    )
    def test_baseline_mode_rejects_observations_it_would_ignore(self, tmp_path, observations):
        doc = dict(MINIMAL_CONFIG, baseline_mode=True, observations=[
            {"time_index": n, "path": f"rho{n}.nii", "weight": w} for n, w in observations
        ])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="baseline_mode") as info:
            read_config(path)
        assert info.value.key == "observations"
        path.write_text(json.dumps(dict(doc, baseline_mode=False)))
        assert len(read_config(path).observations) == len(observations)

    def test_baseline_rule_passes_the_denoise_config(self, tmp_path):
        # the shape of the denoise2d benchmark config: indices 0 and time_steps = 4, weight 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(MINIMAL_CONFIG, sigma=0.05, alpha=0.3, time_steps=4)))
        cfg = read_config(path)
        check_schedule(cfg.observations, cfg.time_steps, baseline=True)

    @pytest.mark.parametrize("time_index", [-1, -4])
    def test_negative_time_index_names_path(self, tmp_path, time_index):
        doc = json.loads(json.dumps(MINIMAL_CONFIG))
        doc["observations"].append({"time_index": time_index, "path": "rhoM.nii"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape("observations[2].time_index")) as info:
            read_config(path)
        assert info.value.key == "observations[2].time_index"


class TestObservationSchedule:
    @pytest.mark.parametrize("schedule, key", [
        ([(0, 1.0), (2, 1.0), (2, 1.0)], "observations"),
        ([(1, 1.0), (4, 1.0)], "observations"),
        ([(0, 1.0), (5, 1.0)], "observations"),
        ([(0, 1.0), (4, 0.0)], "observations[1].weight"),
    ], ids=["duplicate-index", "no-index-0", "index-past-time-steps", "weight-0"])
    def test_config_and_solver_refuse_with_one_key(self, tmp_path, schedule, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(MINIMAL_CONFIG, time_steps=4, observations=[
            {"time_index": n, "path": f"rho{n}.nii", "weight": w} for n, w in schedule
        ])))
        with pytest.raises(ConfigError) as from_config:
            read_config(path)
        grid = CellGrid([4, 4], [0.25, 0.25])
        entries = [ObservationEntry(n, ScalarField(grid, np.ones(16))) for n, _ in schedule]
        # an entry refuses a bad weight itself, so the weight is set after construction
        for entry, (_, weight) in zip(entries, schedule):
            entry.weight = weight
        with pytest.raises(ConfigError) as from_solver:
            solve(ObservationSet(entries), SolverConfig(time_steps=4, max_gn_iters=1))
        assert from_config.value.key == from_solver.value.key == key


SPEC = {
    "dims": [16, 16], "spacing": [0.0625, 0.0625],
    "blobs": [{"center": [0.4, 0.5], "width": 0.1, "mass": 2.0}],
    "velocity": {"kind": "constant", "value": [0.1, 0.0]},
    "noise_std": 0.01, "rng_seed": 5,
}


class TestSynthSpecFile:
    def test_errors_name_the_file_and_keep_the_key(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SPEC, noise_std=-1.0)))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: 'noise_std' must be "
                                                        "nonnegative")) as info:
            read_synth_spec(path)
        assert info.value.key == "noise_std"

    def test_read_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC))
        spec = read_synth_spec(path)
        assert spec.total_mass() == 2.0
        assert spec.velocity.kind == "constant"
        assert spec.observe_times == (0.0, 1.0)

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"blobs": 5}, "blobs"),
            ({"spacing": [0.0625]}, "spacing"),
            ({"blobs": [{"center": [0.4, 0.5, 0.5], "width": 0.1, "mass": 2.0}]},
             "blobs[0].center"),
            ({"velocity": {"kind": "constant", "value": [0.1]}}, "velocity.value"),
            ({"velocity": {"kind": "rotation", "center": [0.5], "rate": 1.0}},
             "velocity.center"),
            ({"dims": [16], "spacing": [0.0625],
              "blobs": [{"center": [0.4], "width": 0.1, "mass": 2.0}],
              "velocity": {"kind": "rotation", "center": [0.5], "rate": 1.0}},
             "velocity.kind"),
            ({"dims": 5}, "dims"),
            ({"dims": [16, 0]}, "dims"),
            ({"spacing": [0.0625, "x"]}, "spacing"),
            ({"spacing": [0.0625, -0.0625]}, "spacing"),
            ({"sigma_true": "abc"}, "sigma_true"),
            ({"noise_std": [0.01]}, "noise_std"),
            ({"rng_seed": 1.5}, "rng_seed"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"observe_times": 1.0}, "observe_times"),
            ({"velocity": {"kind": "rotation", "center": [0.5, 0.5], "rate": "x"}},
             "velocity.rate"),
            ({"velocity": {"kind": "swirl", "value": [0.1, 0.0]}}, "velocity"),
            ({"blobs": [{"center": [0.4, 0.5], "width": True, "mass": 2.0}]},
             "blobs[0].width"),
            ({"blobs": [{"center": [0.4, 0.5], "width": 0.1, "mass": "2"}]},
             "blobs[0].mass"),
            ({"velocity": {"kind": "rotation", "center": [0.5, 0.5], "rat": 0.6}},
             "velocity.rat"),
            ({"blobs": [{"center": [0.4, 0.5], "widht": 0.1, "mass": 2.0}]},
             "blobs[0].widht"),
            ({"dims": [16, 40000]}, "dims"),
            ({"rng_seed": 2**64 - 1}, "rng_seed"),
            ({"rng_seed": 2**64 - 3, "observe_times": [0.0, 0.5, 1.0, 1.5]}, "rng_seed"),
            ({"velocity": {"kind": "rotation", "center": [0.5, 0.5], "rate": 1.0},
              "sigma_true": 0.01}, "sigma_true"),
            ({"velocity": {"kind": "shear", "center": [0.5, 0.5], "rate": 1.0},
              "sigma_true": 0.01}, "sigma_true"),
        ],
        ids=["blobs-not-a-list", "spacing-length", "blob-center-length",
             "velocity-value-length", "velocity-center-length", "rotation-in-1d",
             "dims-not-a-list", "dims-zero", "spacing-not-numeric", "spacing-negative",
             "sigma-true-not-numeric", "noise-std-not-numeric", "rng-seed-not-int",
             "rng-seed-negative", "observe-times-not-a-list", "velocity-rate-not-numeric",
             "velocity-kind-unknown", "blob-width-bool", "blob-mass-string",
             "velocity-key-typo", "blob-key-typo", "dims-past-nifti-int16",
             "rng-seed-past-philox-keys", "rng-seed-plus-times-past-philox-keys",
             "rotation-with-diffusion", "shear-with-diffusion"],
    )
    def test_malformed_spec_names_key(self, tmp_path, change, key):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SPEC, **change)))
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")) as info:
            read_synth_spec(path)
        assert info.value.key == key

    def test_readme_example_reads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Synthetic spec", 1)[1].split("\n### ", 1)[0]
        path = tmp_path / "spec.json"
        path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        spec = read_synth_spec(path)
        assert spec.dims == (32, 32)
        assert spec.velocity.kind == "constant"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [4], "spacing": [1.0], "blobs": [],
                                    "velocity": {"kind": "constant", "value": [0.0]},
                                    "bogus": 1}))
        with pytest.raises(ConfigError, match="'bogus'"):
            read_synth_spec(path)

    def test_missing_velocity(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [4], "spacing": [1.0],
                                    "blobs": [{"center": [2.0], "width": 1.0, "mass": 1.0}]}))
        with pytest.raises(ConfigError, match="'velocity'"):
            read_synth_spec(path)
