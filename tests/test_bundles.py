import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otflow.bundles import (
    ResampledTrack,
    _mean_pointwise,
    cluster_label_volume,
    quickbundles,
    resample_track,
    significant_clusters,
)
from otflow.grid import CellGrid
from otflow.streamlines import Streamline

from conftest import philox


def mdf_distance(a: ResampledTrack, b: ResampledTrack) -> float:
    """The MDF distance as `quickbundles` takes it: the lesser pointwise mean."""
    return min(_mean_pointwise(a.points, b.points))


def planted_bundles(n_per_bundle=20, with_outliers=False, seed=5):
    """Two bundles of noisy parallel tracks: intra-MDF ~0.5, inter-MDF ~10."""
    rng = philox(seed)
    tracks, labels = [], []
    for b, y0 in [(0, 1.0), (1, 11.0)]:
        for i in range(n_per_bundle):
            xs = np.linspace(0.0, 10.0, 12)
            ys = y0 + 0.25 * rng.standard_normal() + 0.05 * rng.standard_normal(12)
            pts = np.stack([xs, ys], axis=1)
            if (b + i) % 3 == 0:
                pts = pts[::-1]  # orientation must not matter
            tracks.append(ResampledTrack(pts))
            labels.append(b)
    if with_outliers:
        for j in range(3):
            ys = 30.0 + 8.0 * j + 0.05 * rng.standard_normal(12)
            tracks.append(ResampledTrack(np.stack([np.linspace(0, 10, 12), ys], axis=1)))
            labels.append(2 + j)
    return tracks, labels


class TestResample:
    def test_straight_segment(self):
        sl = Streamline([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]], 0.1)
        out = resample_track(sl, 3)
        np.testing.assert_allclose(out.points, [[0, 0], [0.5, 0], [1, 0]])

    def test_two_points_are_endpoints(self):
        rng = philox(1)
        pts = rng.uniform(0, 1, size=(17, 3))
        out = resample_track(Streamline(pts[0], pts, 0.1), 2)
        np.testing.assert_allclose(out.points, [pts[0], pts[-1]])

    def test_single_point_replicated(self):
        out = resample_track(Streamline([0.3, 0.4], [[0.3, 0.4]], 0.1), 5)
        assert out.points.shape == (5, 2)
        np.testing.assert_allclose(out.points, [[0.3, 0.4]] * 5)

    def test_equal_arclength_gaps(self):
        rng = philox(2)
        pts = np.cumsum(rng.uniform(0.1, 1.0, size=(30, 2)), axis=0)
        out = resample_track(Streamline(pts[0], pts, 0.1), 12)
        gaps = np.linalg.norm(np.diff(out.points, axis=0), axis=1)
        assert gaps.std() / gaps.mean() < 0.05  # equal up to polyline corners

    def test_arclength_preserved_within_two_percent(self):
        rng = philox(3)
        # smooth random curve
        t = np.linspace(0, 2 * np.pi, 200)
        pts = np.stack([np.cos(t) + 0.1 * np.sin(3 * t), np.sin(t)], axis=1)
        original = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        out = resample_track(Streamline(pts[0], pts, 0.1), 12)
        resampled = np.linalg.norm(np.diff(out.points, axis=0), axis=1).sum()
        assert abs(resampled - original) / original < 0.02

    def test_duplicate_points_dropped(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        out = resample_track(Streamline(pts[0], pts, 0.1), 3)
        np.testing.assert_allclose(out.points, [[0, 0], [1, 0], [2, 0]])


class TestMDF:
    def test_identical_tracks_zero(self):
        t = ResampledTrack(philox(4).uniform(0, 1, (12, 3)))
        assert mdf_distance(t, t) == 0.0

    def test_reversal_zero(self):
        pts = philox(5).uniform(0, 1, (12, 2))
        assert mdf_distance(ResampledTrack(pts), ResampledTrack(pts[::-1])) == 0.0

    def test_parallel_offset(self):
        xs = np.linspace(0, 1, 12)
        a = ResampledTrack(np.stack([xs, np.zeros(12)], axis=1))
        b = ResampledTrack(np.stack([xs, np.full(12, 0.7)], axis=1))
        assert mdf_distance(a, b) == pytest.approx(0.7)

    def test_point_count_mismatch(self):
        a = ResampledTrack(np.zeros((12, 2)))
        b = ResampledTrack(np.zeros((10, 2)))
        # tracks of unequal length are refused where they are clustered
        with pytest.raises(ValueError, match="same point count"):
            quickbundles([a, b], 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_and_flip_invariant(self, seed):
        rng = philox(seed)
        a = ResampledTrack(rng.uniform(-1, 1, (8, 2)))
        b = ResampledTrack(rng.uniform(-1, 1, (8, 2)))
        d = mdf_distance(a, b)
        assert d >= 0.0
        assert d == pytest.approx(mdf_distance(b, a))
        assert d == pytest.approx(mdf_distance(ResampledTrack(a.points[::-1]), b))


class TestQuickBundles:
    def test_single_track(self):
        t = ResampledTrack(philox(6).uniform(0, 1, (12, 2)))
        cs = quickbundles([t], 1.0)
        assert len(cs.clusters) == 1
        assert cs.clusters[0].member_ids == [0]
        np.testing.assert_allclose(cs.clusters[0].centroid.points, t.points)

    def test_tiny_threshold_all_singletons(self):
        tracks, _ = planted_bundles()
        pairwise_min = min(
            mdf_distance(a, b)
            for i, a in enumerate(tracks)
            for b in tracks[i + 1 :]
        )
        cs = quickbundles(tracks, pairwise_min * 0.9)
        assert len(cs.clusters) == len(tracks)

    def test_planted_bundles_recovered(self):
        tracks, labels = planted_bundles()
        cs = quickbundles(tracks, 2.0)
        assert len(cs.clusters) == 2
        for cluster in cs.clusters:
            got = {labels[i] for i in cluster.member_ids}
            assert len(got) == 1
        assert sorted(len(c.member_ids) for c in cs.clusters) == [20, 20]

    def test_deterministic_given_order(self):
        tracks, _ = planted_bundles()
        a = quickbundles(tracks, 2.0)
        b = quickbundles(tracks, 2.0)
        assert [c.member_ids for c in a.clusters] == [c.member_ids for c in b.clusters]

    def test_cluster_count_non_increasing_in_threshold(self):
        tracks, _ = planted_bundles()
        counts = [
            len(quickbundles(tracks, t).clusters) for t in np.linspace(0.05, 12.0, 10)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_member_centroid_distance_within_threshold_at_join(self):
        # every member joined a centroid within the threshold; spot-check that
        # final distances stay in a sane band for the planted geometry
        tracks, _ = planted_bundles()
        threshold = 2.0
        cs = quickbundles(tracks, threshold)
        for cluster in cs.clusters:
            for i in cluster.member_ids:
                assert mdf_distance(cluster.centroid, tracks[i]) <= threshold


class TestSignificantClusters:
    def test_min_size_one_is_identity(self):
        tracks, _ = planted_bundles()
        cs = quickbundles(tracks, 2.0)
        kept = significant_clusters(cs, 1)
        assert [c.member_ids for c in kept.clusters] == [c.member_ids for c in cs.clusters]

    def test_all_filtered(self):
        tracks, _ = planted_bundles()
        cs = quickbundles(tracks, 2.0)
        assert significant_clusters(cs, 1000).clusters == []

    def test_outliers_removed(self):
        tracks, labels = planted_bundles(with_outliers=True)
        cs = significant_clusters(quickbundles(tracks, 2.0), 5)
        assert len(cs.clusters) == 2
        assert sorted(len(c.member_ids) for c in cs.clusters) == [20, 20]

    def test_min_size_validated(self):
        tracks, _ = planted_bundles()
        with pytest.raises(ValueError):
            significant_clusters(quickbundles(tracks, 2.0), 0)


class TestLabelVolume:
    def test_largest_cluster_wins(self):
        g = CellGrid([10, 10], [1.0, 1.0])
        xs = np.linspace(0.5, 9.5, 12)
        big = [ResampledTrack(np.stack([xs, np.full(12, 2.5)], axis=1))] * 3
        small = [ResampledTrack(np.stack([xs, np.full(12, 2.5)], axis=1))]
        cs = quickbundles(small + big, 0.5)
        # one cluster of 4 along the row; labels mark its cells
        labels = cluster_label_volume(cs, g)
        row = g.cells_of_points(np.stack([xs, np.full(12, 2.5)], axis=1))
        assert set(labels[row]) == {1}
        assert (labels > 0).sum() == len(np.unique(row))
