"""Correctness checks on the files a pipeline run writes.

Each check reads the run's outputs on its own (its own NIfTI reader, its own
streamline recount) and tests them against a property of the method, so a
check does not trust the code it checks. Every check returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np

# Relative slack on a frame's mass: float32 storage rounds each value by at
# most 2**-24 relative, so two frames' sums differ by at most 2**-23 of the
# mass from rounding; the rest is the solver's own drift, which is far smaller.
MASS_RTOL = 2.0**-20

_CLEAN_RE = re.compile(r"clean_t(\d+)\.nii$")


def read_nifti(path) -> tuple[tuple[int, ...], tuple[float, ...], np.ndarray]:
    """Dims, spacing and float64 values of a single-file float32 NIfTI-1 volume."""
    blob = Path(path).read_bytes()
    if len(blob) < 352 or blob[344:347] != b"n+1":
        raise ValueError(f"{path}: not a single-file NIfTI-1 volume")
    dim = np.frombuffer(blob, dtype="<i2", count=8, offset=40)
    datatype = int(np.frombuffer(blob, dtype="<i2", count=1, offset=70)[0])
    pixdim = np.frombuffer(blob, dtype="<f4", count=8, offset=76)
    offset = int(np.frombuffer(blob, dtype="<f4", count=1, offset=108)[0])
    if datatype != 16:
        raise ValueError(f"{path}: datatype {datatype} is not float32")
    ndim = int(dim[0])
    dims = tuple(int(n) for n in dim[1 : 1 + ndim])
    count = int(np.prod(dims))
    values = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    return dims, tuple(float(h) for h in pixdim[1 : 1 + ndim]), values.astype(np.float64)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float((diff * diff).mean())


def clean_frames(out_dir) -> list[np.ndarray]:
    """The clean_t*.nii series of a solve, in time order."""
    found = {}
    for p in Path(out_dir).iterdir():
        m = _CLEAN_RE.match(p.name)
        if m:
            found[int(m.group(1))] = read_nifti(p)[2]
    return [found[n] for n in sorted(found)]


def check_clean_series(out_dir, unit_mass: bool) -> list[str]:
    """Every clean frame is nonnegative and keeps the mass of clean_t0."""
    frames = clean_frames(out_dir)
    if len(frames) < 2:
        return [f"{out_dir}: fewer than two clean_t*.nii frames"]
    errors = []
    m0 = float(frames[0].sum())
    if unit_mass and abs(m0 - 1.0) > MASS_RTOL:
        errors.append(f"clean_t0 mass {m0!r} is not 1 (baseline mode normalises mass)")
    for n, frame in enumerate(frames):
        if frame.min() < 0.0:
            errors.append(f"clean_t{n} has a negative value {frame.min()!r}")
        drift = abs(float(frame.sum()) - m0)
        if drift > MASS_RTOL * m0:
            errors.append(f"clean_t{n} mass drifts by {drift / m0:.3e} of clean_t0's")
    return errors


def check_phi_nonincreasing(diagnostics_csv) -> list[str]:
    """The objective recorded per accepted iterate never increases."""
    with open(diagnostics_csv, newline="") as f:
        phis = [float(row["phi"]) for row in csv.DictReader(f)]
    if not phis:
        return [f"{diagnostics_csv}: no iterations recorded"]
    return [
        f"phi rises at iteration {i + 1}: {a!r} -> {b!r}"
        for i, (a, b) in enumerate(zip(phis, phis[1:]))
        if b > a
    ]


def compare_report(report_csv) -> dict[tuple[str, str], float]:
    """(label, metric) -> value of the final-frame rows of a compare report."""
    with open(report_csv, newline="") as f:
        return {
            (row["label"], row["metric"]): float(row["value"])
            for row in csv.DictReader(f)
            if not row["step"]
        }


def check_denoising(clean_mse: float, obs_mse: float, baseline_mse: float) -> list[str]:
    """The regularised endpoint beats the observation and halves the baseline's error."""
    errors = []
    if not clean_mse < obs_mse:
        errors.append(f"clean MSE {clean_mse:.3e} is not below the observation's {obs_mse:.3e}")
    if not clean_mse <= 0.5 * baseline_mse:
        errors.append(
            f"clean MSE {clean_mse:.3e} is above half the baseline's {baseline_mse:.3e}"
        )
    return errors


def read_streamlines(path) -> list[np.ndarray]:
    lines = Path(path).read_text().splitlines()
    return [np.asarray(json.loads(line)["points"], dtype=np.float64) for line in lines if line]


def check_streamlines_in_domain(streamlines, dims, spacing) -> list[str]:
    """Every streamline point lies inside the closed domain [0, n*h] per axis."""
    lengths = np.asarray(dims, dtype=np.float64) * np.asarray(spacing, dtype=np.float64)
    slack = 1e-12 * lengths
    errors = []
    for i, pts in enumerate(streamlines):
        if pts.ndim != 2 or pts.shape[1] != len(dims):
            errors.append(f"streamline {i} has points of shape {pts.shape}")
        elif (pts < -slack).any() or (pts > lengths + slack).any():
            errors.append(f"streamline {i} leaves the domain")
    return errors


def recount_pathways(streamlines, dims, spacing) -> np.ndarray:
    """Per-cell count of streamlines visiting each cell, in axis-0-fastest order."""
    counts = np.zeros(int(np.prod(dims)), dtype=np.int64)
    for pts in streamlines:
        idx = [
            np.clip(np.floor(pts[:, k] / spacing[k]).astype(np.int64), 0, dims[k] - 1)
            for k in range(len(dims))
        ]
        counts[np.unique(np.ravel_multi_index(idx, dims, order="F"))] += 1
    return counts


def check_pathways(streamlines, pathways_nii) -> list[str]:
    """pathways.nii equals a recount of the streamlines."""
    dims, spacing, values = read_nifti(pathways_nii)
    # spacing is stored as float32; recount on the same float32-rounded grid
    expect = recount_pathways(streamlines, dims, spacing)
    bad = np.flatnonzero(values != expect)
    if bad.size:
        return [f"pathways.nii differs from the recount in {bad.size} cells"]
    return []


def check_clusters(clusters_json, n_streamlines: int) -> list[str]:
    """Cluster members are disjoint streamline ids in range."""
    doc = json.loads(Path(clusters_json).read_text())
    seen: set[int] = set()
    errors = []
    for ci, cluster in enumerate(doc["clusters"]):
        for m in cluster["member_ids"]:
            if not (isinstance(m, int) and 0 <= m < n_streamlines):
                errors.append(f"cluster {ci} member {m!r} is out of range")
            elif m in seen:
                errors.append(f"streamline {m} is in more than one cluster")
            seen.add(m)
    return errors


def tree_digest(root) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by relative path."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_same_tree(first: dict[str, str], again: dict[str, str]) -> list[str]:
    """Two repetitions of a run wrote byte-identical files."""
    if first == again:
        return []
    differ = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
    return [f"run directory differs between repetitions in {', '.join(differ[:5])}"]
