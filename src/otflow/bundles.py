"""Streamline clustering with the QuickBundles algorithm.

Tracks are first resampled to a fixed number of equidistant arc-length points,
then clustered in one pass under the minimum average direct-flip (MDF)
distance: a track joins the nearest centroid within the threshold (lowest
cluster index on ties) or founds a new cluster. Centroids are running means of
their members, each member flip-aligned to the centroid when it joins. The
point count, threshold and minimum cluster size are taken as given:
`RunConfig` checks them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import CellGrid
from .streamlines import Streamline

__all__ = [
    "Cluster",
    "ClusterSet",
    "resample_tracks",
    "quickbundles",
    "significant_clusters",
    "cluster_label_volume",
]


@dataclass(eq=False)
class Cluster:
    centroid: np.ndarray  # (K, ndim), the mean of the flip-aligned members
    member_ids: list[int]


@dataclass(eq=False)
class ClusterSet:
    clusters: list[Cluster]
    threshold: float


def resample_tracks(streamlines: Sequence[Streamline], K: int) -> np.ndarray:
    """Resample every polyline to K points at equal arc-length spacing.

    Returns shape (ntracks, K, ndim). Endpoints are preserved exactly; a
    single-point (or zero-length) track is replicated K times. The tracks are
    padded to the longest and resampled together, each row through the same
    floating-point operations as a track resampled on its own.
    """
    if not streamlines:
        raise ValueError("no tracks to resample")
    npoints = np.array([len(sl.points) for sl in streamlines])
    flat = np.concatenate([sl.points for sl in streamlines])
    pts = np.zeros((len(npoints), npoints.max(), flat.shape[1]))
    pts[np.arange(npoints.max()) < npoints[:, None]] = flat
    seglen = np.linalg.norm(np.diff(pts, axis=1), axis=2)
    # drop zero-length segments so interpolation parameters stay finite: the
    # kept ones move to the front of their row, in order, and the rest read 0
    keep = (seglen > 0) & (np.arange(seglen.shape[1]) < npoints[:, None] - 1)
    nkeep = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    seglen = np.where(np.arange(seglen.shape[1]) < nkeep[:, None],
                      np.take_along_axis(seglen, order, axis=1), 0.0)
    pts = np.concatenate([pts[:, :1], np.take_along_axis(pts[:, 1:], order[..., None], axis=1)],
                         axis=1)

    out = np.repeat(pts[:, :1], K, axis=1)
    live = np.flatnonzero(nkeep)
    if live.size == 0:
        return out
    pts, seglen, last = pts[live], seglen[live], nkeep[live]
    row = np.arange(live.size)
    cum = np.concatenate([np.zeros((live.size, 1)), np.cumsum(seglen, axis=1)], axis=1)
    # a kept segment is longer than sqrt(the least subnormal), so no row's step
    # underflows and linspace computes every row as it would that row alone
    targets = np.linspace(0.0, cum[row, last], K, axis=1)
    # searchsorted(cum, targets, side="right") - 1 per row; the padded tail of
    # cum equals the total, so it only adds to counts that the clip bounds
    idx = (cum[:, None, :] <= targets[..., None]).sum(axis=2) - 1
    idx = np.clip(idx, 0, last[:, None] - 1)
    rows = row[:, None]
    t = (targets - cum[rows, idx]) / seglen[rows, idx]
    res = pts[rows, idx] + t[..., None] * (pts[rows, idx + 1] - pts[rows, idx])
    res[:, 0] = pts[:, 0]
    res[:, -1] = pts[row, last]
    out[live] = res
    return out


def quickbundles(tracks, threshold: float) -> ClusterSet:
    """One-pass clustering in input order under the MDF distance.

    tracks has shape (ntracks, K, ndim), as `resample_tracks` returns, or is a
    sequence of (K, ndim) arrays. Each track is measured against all centroids
    at once. The output depends on the input order (this is inherent to the
    algorithm); for a fixed order it is fully deterministic.
    """
    if len({np.shape(t) for t in tracks}) > 1:
        raise ValueError("all tracks must share the same point count and ndim")
    tracks = np.asarray(tracks, dtype=float)
    if len(tracks) == 0:
        raise ValueError("no tracks to cluster")
    if tracks.ndim != 3 or tracks.shape[1] < 2:
        raise ValueError(f"tracks must have shape (ntracks, K >= 2, ndim), got {tracks.shape}")
    # each track as it is and reversed, for the direct and flipped distances
    both = np.stack([tracks, tracks[:, ::-1]], axis=1)
    sums = np.empty_like(tracks)
    centroids = np.empty_like(tracks)
    counts = np.zeros(len(tracks), dtype=np.int64)
    members: list[list[int]] = []
    for i, pair in enumerate(both):
        n = len(members)
        if n:
            # (2, n): mean pointwise distance to each centroid, direct then flipped
            mean = np.linalg.norm(centroids[:n] - pair[:, None], axis=3).mean(axis=2)
            dist = mean.min(axis=0)
            ci = int(np.argmin(dist))  # the lowest cluster index wins ties
            if dist[ci] <= threshold:
                sums[ci] += pair[int(mean[1, ci] < mean[0, ci])]
                counts[ci] += 1
                centroids[ci] = sums[ci] / counts[ci]
                members[ci].append(i)
                continue
        sums[n] = centroids[n] = pair[0]
        counts[n] = 1
        members.append([i])
    return ClusterSet(
        [Cluster(c, m) for c, m in zip(centroids[: len(members)].copy(), members)],
        float(threshold),
    )


def significant_clusters(cs: ClusterSet, min_size: int) -> ClusterSet:
    """Keep clusters with at least min_size members, preserving order."""
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
        pts = grid.clamp_points(cs.clusters[ci].centroid)
        cells = np.unique(grid.cells_of_points(pts))
        labels[cells] = ci + 1
    return labels
