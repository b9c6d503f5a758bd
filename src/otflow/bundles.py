"""Streamline clustering with the QuickBundles algorithm.

Tracks are first resampled to a fixed number of equidistant arc-length points,
then clustered in one pass under the minimum average direct-flip (MDF)
distance: a track joins the nearest centroid within the threshold (lowest
cluster index on ties) or founds a new cluster. Centroids are running means of
their members, each member flip-aligned to the centroid when it joins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CellGrid
from .streamlines import Streamline

__all__ = [
    "ResampledTrack",
    "Cluster",
    "ClusterSet",
    "resample_track",
    "quickbundles",
    "significant_clusters",
    "cluster_label_volume",
]


@dataclass(eq=False)
class ResampledTrack:
    points: np.ndarray  # (K, ndim), equidistant in arc length

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 2:
            raise ValueError("resampled track needs at least 2 points")
        self.points = pts

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(eq=False)
class Cluster:
    centroid: ResampledTrack
    member_ids: list[int]


@dataclass(eq=False)
class ClusterSet:
    clusters: list[Cluster]
    threshold: float


def resample_track(s: Streamline, K: int) -> ResampledTrack:
    """Resample a polyline to K points at equal arc-length spacing.

    Endpoints are preserved exactly; a single-point (or zero-length) track is
    replicated K times.
    """
    if K < 2:
        raise ValueError(f"need at least 2 resample points, got {K}")
    pts = np.atleast_2d(s.points)
    if pts.shape[0] == 1:
        return ResampledTrack(np.repeat(pts, K, axis=0))
    seg = np.diff(pts, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    keep = seglen > 0
    if not keep.any():
        return ResampledTrack(np.repeat(pts[:1], K, axis=0))
    # drop zero-length segments so interpolation parameters stay finite
    pts = np.concatenate([pts[:1], pts[1:][keep]], axis=0)
    seglen = seglen[keep]
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    targets = np.linspace(0.0, cum[-1], K)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seglen) - 1)
    t = (targets - cum[idx]) / seglen[idx]
    out = pts[idx] + t[:, None] * (pts[idx + 1] - pts[idx])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return ResampledTrack(out)


def _mean_pointwise(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    direct = float(np.linalg.norm(a - b, axis=1).mean())
    flipped = float(np.linalg.norm(a - b[::-1], axis=1).mean())
    return direct, flipped


def quickbundles(tracks: list[ResampledTrack], threshold: float) -> ClusterSet:
    """One-pass clustering in input order under the MDF distance.

    The output depends on the input order (this is inherent to the algorithm);
    for a fixed order it is fully deterministic.
    """
    if not tracks:
        raise ValueError("no tracks to cluster")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    K = tracks[0].n_points
    sums: list[np.ndarray] = []
    counts: list[int] = []
    members: list[list[int]] = []
    for i, track in enumerate(tracks):
        if track.n_points != K:
            raise ValueError("all tracks must share the same point count")
        best_dist = np.inf
        best_ci = -1
        best_flip = False
        for ci in range(len(sums)):
            centroid = sums[ci] / counts[ci]
            direct, flipped = _mean_pointwise(centroid, track.points)
            dist = min(direct, flipped)
            if dist < best_dist:
                best_dist = dist
                best_ci = ci
                best_flip = flipped < direct
        if best_ci >= 0 and best_dist <= threshold:
            aligned = track.points[::-1] if best_flip else track.points
            sums[best_ci] = sums[best_ci] + aligned
            counts[best_ci] += 1
            members[best_ci].append(i)
        else:
            sums.append(track.points.copy())
            counts.append(1)
            members.append([i])
    clusters = [
        Cluster(ResampledTrack(sums[ci] / counts[ci]), members[ci])
        for ci in range(len(sums))
    ]
    return ClusterSet(clusters, float(threshold))


def significant_clusters(cs: ClusterSet, min_size: int) -> ClusterSet:
    """Keep clusters with at least min_size members, preserving order."""
    if min_size < 1:
        raise ValueError(f"min_size must be at least 1, got {min_size}")
    kept = [c for c in cs.clusters if len(c.member_ids) >= min_size]
    return ClusterSet(kept, cs.threshold)


def cluster_label_volume(cs: ClusterSet, grid: CellGrid) -> np.ndarray:
    """Label cells by the largest cluster whose centroid passes through them.

    Returns one label per cell (0 = no centroid); ties in cluster size go to
    the lower cluster index. Labels are 1-based cluster indices.
    """
    labels = np.zeros(grid.cell_count, dtype=np.int64)
    # paint in ascending priority so the final writer is the largest cluster
    # (ties resolved toward the lower cluster index)
    order = sorted(
        range(len(cs.clusters)),
        key=lambda ci: (len(cs.clusters[ci].member_ids), -ci),
    )
    for ci in order:
        pts = grid.clamp_points(cs.clusters[ci].centroid.points)
        cells = np.unique(grid.cells_of_points(pts))
        labels[cells] = ci + 1
    return labels
