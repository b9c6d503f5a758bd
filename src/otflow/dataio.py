"""File formats: NIfTI-1 volumes, JSON configs and manifests, JSON-lines
streamlines, cluster JSON, and CSV diagnostics.

The volume format is a minimal single-file NIfTI-1 subset: 348-byte
little-endian header, magic "n+1", data at offset 352, float32 payload in
canonical cell order (axis 0 fastest, matching the format's own layout).
Readers also accept int16 payloads (converted to float) and gzip-compressed
files, apply a header's nonzero scl_slope and its scl_inter, and reject
non-finite voxels. All writers are deterministic: identical inputs produce
identical bytes, and gzip streams carry no timestamp.
"""

from __future__ import annotations

import gzip
import io
import json
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    GridMismatchError,
    HeaderError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    VolumeFormatError,
    require,
)
from .forward import VelocitySeries
from .grid import CellGrid, ScalarField
from .solver import SolverConfig, check_schedule
from .streamlines import Streamline
from .synth import _NIFTI_MAX_DIM, Blob, SynthSpec, VelocityModel

__all__ = [
    "read_volume",
    "write_volume",
    "write_velocity_series",
    "read_velocity_series",
    "write_streamlines_jsonl",
    "write_clusters_json",
    "ObservationRef",
    "RunConfig",
    "read_config",
    "read_synth_spec",
]

# NIfTI-1 header layout (348 bytes, little-endian), offsets per the standard.
_HEADER_DTYPE = np.dtype(
    [
        ("sizeof_hdr", "<i4"),      # 0; must be 348
        ("data_type", "S10"),       # 4; unused
        ("db_name", "S18"),         # 14; unused
        ("extents", "<i4"),         # 32; unused
        ("session_error", "<i2"),   # 36; unused
        ("regular", "S1"),          # 38; unused
        ("dim_info", "u1"),         # 39
        ("dim", "<i2", (8,)),       # 40; dim[0] = ndim, dim[1..] = sizes
        ("intent_p1", "<f4"),       # 56
        ("intent_p2", "<f4"),       # 60
        ("intent_p3", "<f4"),       # 64
        ("intent_code", "<i2"),     # 68
        ("datatype", "<i2"),        # 70; 16 = float32, 4 = int16
        ("bitpix", "<i2"),          # 72
        ("slice_start", "<i2"),     # 74
        ("pixdim", "<f4", (8,)),    # 76; pixdim[1..] = spacings
        ("vox_offset", "<f4"),      # 108; byte offset of the data section
        ("scl_slope", "<f4"),       # 112
        ("scl_inter", "<f4"),       # 116
        ("slice_end", "<i2"),       # 120
        ("slice_code", "u1"),       # 122
        ("xyzt_units", "u1"),       # 123
        ("cal_max", "<f4"),         # 124
        ("cal_min", "<f4"),         # 128
        ("slice_duration", "<f4"),  # 132
        ("toffset", "<f4"),         # 136
        ("glmax", "<i4"),           # 140
        ("glmin", "<i4"),           # 144
        ("descrip", "S80"),         # 148
        ("aux_file", "S24"),        # 228
        ("qform_code", "<i2"),      # 252
        ("sform_code", "<i2"),      # 254
        ("quatern_b", "<f4"),       # 256
        ("quatern_c", "<f4"),       # 260
        ("quatern_d", "<f4"),       # 264
        ("qoffset_x", "<f4"),       # 268
        ("qoffset_y", "<f4"),       # 272
        ("qoffset_z", "<f4"),       # 276
        ("srow_x", "<f4", (4,)),    # 280
        ("srow_y", "<f4", (4,)),    # 296
        ("srow_z", "<f4", (4,)),    # 312
        ("intent_name", "S16"),     # 328
        ("magic", "S4"),            # 344; "n+1\0" for single-file volumes
    ]
)
assert _HEADER_DTYPE.itemsize == 348

_HEADER_SIZE = 348
_DATA_OFFSET = 352
_DT_FLOAT32 = 16
_DT_INT16 = 4


def _read_bytes(path) -> bytes:
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        return gzip.decompress(data)
    return data


def _write_bytes(path, blob: bytes) -> None:
    path = Path(path)
    if path.suffix == ".gz":
        buf = io.BytesIO()
        # mtime=0 and an empty name keep the stream byte-deterministic
        with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as zf:
            zf.write(blob)
        blob = buf.getvalue()
    path.write_bytes(blob)


def write_volume(path, grid: CellGrid, field) -> None:
    """Write a scalar field as a single-file NIfTI-1 float32 volume."""
    values = field.values if isinstance(field, ScalarField) else np.asarray(field)
    values = np.asarray(values, dtype=float).ravel()
    if values.shape != (grid.cell_count,):
        raise ValueError("field length does not match the grid")
    if max(grid.dims) > _NIFTI_MAX_DIM:
        raise ValueError(f"{path}: NIfTI-1 stores at most {_NIFTI_MAX_DIM} cells per axis, "
                         f"got dims {grid.dims}")
    hdr = np.zeros((), dtype=_HEADER_DTYPE)
    hdr["sizeof_hdr"] = _HEADER_SIZE
    dim = np.ones(8, dtype=np.int16)
    dim[0] = grid.ndim
    dim[1 : 1 + grid.ndim] = grid.dims
    hdr["dim"] = dim
    hdr["datatype"] = _DT_FLOAT32
    hdr["bitpix"] = 32
    pixdim = np.zeros(8, dtype=np.float32)
    pixdim[0] = 1.0
    pixdim[1 : 1 + grid.ndim] = grid.spacing
    hdr["pixdim"] = pixdim
    hdr["vox_offset"] = float(_DATA_OFFSET)
    hdr["scl_slope"] = 1.0
    # identity orientation: scaled diagonal affine, origin at zero
    hdr["sform_code"] = 1
    srow = np.zeros((3, 4), dtype=np.float32)
    for k in range(3):
        srow[k, k] = grid.spacing[k] if k < grid.ndim else 1.0
    hdr["srow_x"], hdr["srow_y"], hdr["srow_z"] = srow
    hdr["magic"] = b"n+1"
    payload = values.astype("<f4").tobytes()
    _write_bytes(path, hdr.tobytes() + b"\x00\x00\x00\x00" + payload)


def read_volume(path) -> tuple[CellGrid, ScalarField]:
    """Read a single-file NIfTI-1 volume (optionally gzipped)."""
    raw = _read_bytes(path)
    if len(raw) < _HEADER_SIZE:
        raise HeaderError(
            f"{path}: file holds {len(raw)} bytes, shorter than a NIfTI-1 header"
        )
    hdr = np.frombuffer(raw[:_HEADER_SIZE], dtype=_HEADER_DTYPE)[0]
    magic = bytes(hdr["magic"])
    if magic != b"n+1":
        raise BadMagicError(f"{path}: not a single-file NIfTI-1 volume (magic {magic!r})")
    if int(hdr["sizeof_hdr"]) != _HEADER_SIZE:
        raise HeaderError(
            f"{path}: header size field is {int(hdr['sizeof_hdr'])}; "
            "corrupt file or unsupported byte order"
        )
    ndim = int(hdr["dim"][0])
    if not 1 <= ndim <= 3:
        raise HeaderError(f"{path}: unsupported dimensionality {ndim}")
    try:
        grid = CellGrid(hdr["dim"][1 : 1 + ndim], hdr["pixdim"][1 : 1 + ndim])
    except ConfigError as exc:
        raise HeaderError(f"{path}: {exc}") from exc
    code = int(hdr["datatype"])
    if code == _DT_FLOAT32:
        dtype = np.dtype("<f4")
    elif code == _DT_INT16:
        dtype = np.dtype("<i2")
    else:
        raise UnsupportedDatatypeError(
            f"{path}: datatype code {code}; only float32 (16) and int16 (4) are supported"
        )
    slope, inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])
    # a zero or non-finite slope means unscaled, as nifti1_io and nibabel read it
    if not np.isfinite(slope):
        slope = 0.0
    if slope != 0.0 and not np.isfinite(inter):
        raise HeaderError(f"{path}: scl_inter {inter} must be finite when scl_slope is {slope}")
    offset = float(hdr["vox_offset"])
    if not np.isfinite(offset) or round(offset) < _HEADER_SIZE:
        raise HeaderError(f"{path}: data offset {offset} does not lie past the header")
    offset = round(offset)
    need = grid.cell_count * dtype.itemsize
    data = raw[offset : offset + need]
    if len(data) < need:
        raise TruncatedDataError(
            f"{path}: data section holds {len(data)} bytes, expected {need}"
        )
    values = np.frombuffer(data, dtype=dtype).astype(np.float64)
    # slope 0 means unscaled; the identity is skipped so that -0.0 survives
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        values = values * slope + inter
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite))
        voxel = tuple(int(i) for i in np.unravel_index(first, grid.dims, order="F"))
        raise VolumeFormatError(f"{path}: voxel {voxel} holds {values[first]}, not a finite value")
    return grid, ScalarField(grid, values)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_velocity_series(path_prefix, v: VelocitySeries) -> None:
    """One volume per component per interval plus a JSON manifest.

    Files are named <prefix>_t<n>_c<k>.nii; the manifest records the grid and
    the number of intervals on T = 1 needed to reassemble the series.
    """
    prefix = Path(path_prefix)
    grid = v.grid
    for n in range(len(v.values)):
        for k in range(grid.ndim):
            write_volume(f"{prefix}_t{n}_c{k}.nii", grid, v.values[n, k])
    manifest = {
        "time_steps": len(v.values),
        "dims": list(grid.dims),
        # volumes carry float32 pixdim, so the manifest records the same precision
        "spacing": [float(np.float32(h)) for h in grid.spacing],
    }
    Path(f"{prefix}_manifest.json").write_text(_json_dump(manifest))


def read_velocity_series(path_prefix) -> VelocitySeries:
    prefix = Path(path_prefix)
    path = f"{prefix}_manifest.json"
    manifest = _load_json_object(path, "velocity manifest")
    with _naming(path):
        m = _read_object(manifest, "", {"time_steps": int, "dims": [int],
                                        "spacing": [_NUMBER]}, {})
        grid = CellGrid(m["dims"], m["spacing"])
        require(m["time_steps"] >= 1, "time_steps", "at least 1", m["time_steps"])
    values = np.empty((m["time_steps"], grid.ndim, grid.cell_count))
    for n in range(m["time_steps"]):
        for k in range(grid.ndim):
            file_grid, comp = read_volume(f"{prefix}_t{n}_c{k}.nii")
            if file_grid != grid:
                raise GridMismatchError(
                    f"{prefix}_t{n}_c{k}.nii does not match the manifest grid"
                )
            values[n, k] = comp.values
    return VelocitySeries(grid, values)


def write_streamlines_jsonl(path, streamlines: list[Streamline]) -> None:
    """One streamline per line: seed, step size, and the point array."""
    lines = []
    for sl in streamlines:
        lines.append(
            json.dumps(
                {
                    "seed": sl.seed.tolist(),
                    "step_size": sl.step_size,
                    "points": sl.points.tolist(),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def write_clusters_json(path, cluster_set) -> None:
    payload = {
        "threshold": cluster_set.threshold,
        "clusters": [
            {
                "centroid": c.centroid.tolist(),
                "member_ids": list(c.member_ids),
            }
            for c in cluster_set.clusters
        ],
    }
    Path(path).write_text(_json_dump(payload))


# ---------------------------------------------------------------------------
# Run configuration

@dataclass(frozen=True)
class ObservationRef:
    time_index: int
    path: str
    weight: float = 1.0


@dataclass(frozen=True, kw_only=True)
class RunConfig(SolverConfig):
    """Validated pipeline configuration: the solver knobs plus the run and FPA keys."""

    output_dir: str
    observations: tuple[ObservationRef, ...]
    baseline_mode: bool = False
    seed_quantile: float = 0.9
    streamline_step: float | None = None  # default: min spacing / 2, set at run time
    max_streamline_steps: int = 10000
    qb_points: int = 12
    qb_threshold: float | None = None  # default: 4 * min spacing, set at run time
    min_cluster_size: int = 5

    def _ranges(self) -> tuple[tuple[str, bool, str], ...]:
        return super()._ranges() + (
            ("seed_quantile", 0 < self.seed_quantile < 1, "in (0, 1)"),
            ("streamline_step", self.streamline_step is None or self.streamline_step > 0,
             "positive or null"),
            ("max_streamline_steps", self.max_streamline_steps >= 1, "at least 1"),
            ("qb_points", self.qb_points >= 2, "at least 2"),
            ("qb_threshold", self.qb_threshold is None or self.qb_threshold > 0,
             "positive or null"),
            ("min_cluster_size", self.min_cluster_size >= 1, "at least 1"),
        )

    def to_json(self) -> str:
        return _json_dump(asdict(self))


_NUMBER = (int, float)


def _accepted_types(default) -> tuple[type, ...]:
    """JSON types a key accepts, read off its default."""
    if isinstance(default, (bool, int)):
        return (type(default),)
    if isinstance(default, float):
        return _NUMBER
    return _NUMBER + (type(None),)


# key -> (accepted types, default) for every optional scalar key
_SCALAR_KEYS = {
    f.name: (_accepted_types(f.default), f.default)
    for f in fields(RunConfig)
    if f.default is not MISSING
}


def _typecheck(value, types, key: str):
    if not isinstance(types, tuple):
        types = (types,)
    # bool is an int subclass; only accept it where bool is explicitly listed
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(f"key {key!r} has wrong type (expected {_typenames(types)})", key)
    # json parses NaN, Infinity and overflowing literals such as 1e400
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}", key)
    return value


def _typed_list(value, types, key: str) -> tuple:
    """A JSON list whose entries each pass `_typecheck`, as a tuple."""
    if not isinstance(value, list):
        raise ConfigError(f"key {key!r} must be a list", key)
    return tuple(_typecheck(x, types, key) for x in value)


def _typenames(types) -> str:
    return "/".join({type(None): "null", dict: "object"}.get(t, t.__name__) for t in types)


def _read_object(doc, where: str, required: dict, optional: dict) -> dict:
    """The keys of one JSON object, type-checked, with absent optional keys defaulted.

    `required` maps key -> types and `optional` maps key -> (types, default);
    types `[t]` read a list of t entries as a tuple. Unknown and missing keys
    are rejected, and every error names the key's full path below `where`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object", where)
    prefix = f"{where}." if where else ""
    specs = {**{key: (types, MISSING) for key, types in required.items()}, **optional}
    for key in doc:
        if key not in specs:
            raise ConfigError(f"unknown key '{prefix}{key}'", prefix + key)
    out = {}
    for key, (types, default) in specs.items():
        path = prefix + key
        if key not in doc:
            if default is MISSING:
                raise ConfigError(f"missing required key {path!r}", path)
            out[key] = default
        elif isinstance(types, list):
            out[key] = _typed_list(doc[key], types[0], path)
        else:
            out[key] = _typecheck(doc[key], types, path)
    return out


@contextmanager
def _naming(path):
    """Put the file's path in front of a `ConfigError` raised inside, keeping its key."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", exc.key) from exc


def _load_json_object(path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return doc


def read_config(path) -> RunConfig:
    """Read and fully validate a run configuration.

    Missing optional keys get their documented defaults; unknown keys and type
    mismatches are rejected with the offending key path.
    """
    doc = _load_json_object(path, "run configuration")
    with _naming(path):
        doc = _read_object(doc, "", {"output_dir": str, "observations": list}, _SCALAR_KEYS)
        refs = []
        for i, entry in enumerate(doc.pop("observations")):
            e = _read_object(entry, f"observations[{i}]", {"time_index": int, "path": str},
                             {"weight": (_NUMBER, 1.0)})
            refs.append(ObservationRef(e["time_index"], e["path"], float(e["weight"])))
        cfg = RunConfig(observations=tuple(sorted(refs, key=lambda r: r.time_index)), **doc)
        check_schedule(refs, cfg.time_steps, cfg.baseline_mode)
    return cfg


def read_synth_spec(path) -> SynthSpec:
    """Read a synthetic-instance description from JSON."""
    doc = _load_json_object(path, "synthetic spec")
    with _naming(path):
        doc = _read_object(
            doc, "",
            {"dims": [int], "spacing": [_NUMBER], "blobs": list, "velocity": dict},
            {"sigma_true": (_NUMBER, 0.0), "noise_std": (_NUMBER, 0.0), "rng_seed": (int, 0),
             "observe_times": ([_NUMBER], (0.0, 1.0))},
        )
        blobs = []
        for i, b in enumerate(doc["blobs"]):
            where = f"blobs[{i}]"
            b = _read_object(b, where, {"center": [_NUMBER], "width": _NUMBER,
                                        "mass": _NUMBER}, {})
            try:
                blobs.append(Blob(b["center"], float(b["width"]), float(b["mass"])))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}", where) from exc
        vel = _read_object(doc["velocity"], "velocity", {"kind": str},
                           {"value": ([_NUMBER], None), "center": ([_NUMBER], None),
                            "rate": (_NUMBER, 0.0)})
        try:
            model = VelocityModel(vel["kind"], vel["value"], vel["center"], float(vel["rate"]))
        except ValueError as exc:
            raise ConfigError(f"'velocity': {exc}", "velocity") from exc
        return SynthSpec(**dict(doc, blobs=tuple(blobs), velocity=model,
                                sigma_true=float(doc["sigma_true"]),
                                noise_std=float(doc["noise_std"])))
