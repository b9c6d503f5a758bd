import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otflow.bundles import (
    cluster_label_volume,
    quickbundles,
    resample_tracks,
    significant_clusters,
)
from otflow.grid import CellGrid
from otflow.streamlines import Streamline

from conftest import philox
from oracles import mean_pointwise, per_centroid_quickbundles, per_track_resample


def mdf_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The MDF distance as `quickbundles` takes it: the lesser pointwise mean."""
    return min(mean_pointwise(a, b))


def resample_track(sl: Streamline, K: int) -> np.ndarray:
    return resample_tracks([sl], K)[0]


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
            tracks.append(pts)
            labels.append(b)
    if with_outliers:
        for j in range(3):
            ys = 30.0 + 8.0 * j + 0.05 * rng.standard_normal(12)
            tracks.append(np.stack([np.linspace(0, 10, 12), ys], axis=1))
            labels.append(2 + j)
    return np.array(tracks), labels


class TestResample:
    def test_straight_segment(self):
        sl = Streamline([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]], 0.1)
        out = resample_track(sl, 3)
        np.testing.assert_allclose(out, [[0, 0], [0.5, 0], [1, 0]])

    def test_two_points_are_endpoints(self):
        rng = philox(1)
        pts = rng.uniform(0, 1, size=(17, 3))
        out = resample_track(Streamline(pts[0], pts, 0.1), 2)
        np.testing.assert_allclose(out, [pts[0], pts[-1]])

    def test_single_point_replicated(self):
        out = resample_track(Streamline([0.3, 0.4], [[0.3, 0.4]], 0.1), 5)
        assert out.shape == (5, 2)
        np.testing.assert_allclose(out, [[0.3, 0.4]] * 5)

    def test_equal_arclength_gaps(self):
        rng = philox(2)
        pts = np.cumsum(rng.uniform(0.1, 1.0, size=(30, 2)), axis=0)
        out = resample_track(Streamline(pts[0], pts, 0.1), 12)
        gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert gaps.std() / gaps.mean() < 0.05  # equal up to polyline corners

    def test_arclength_preserved_within_two_percent(self):
        rng = philox(3)
        # smooth random curve
        t = np.linspace(0, 2 * np.pi, 200)
        pts = np.stack([np.cos(t) + 0.1 * np.sin(3 * t), np.sin(t)], axis=1)
        original = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        out = resample_track(Streamline(pts[0], pts, 0.1), 12)
        resampled = np.linalg.norm(np.diff(out, axis=0), axis=1).sum()
        assert abs(resampled - original) / original < 0.02

    def test_duplicate_points_dropped(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        out = resample_track(Streamline(pts[0], pts, 0.1), 3)
        np.testing.assert_allclose(out, [[0, 0], [1, 0], [2, 0]])


# lattice coordinates make repeated points, equal distances and exact ties likely
COORDS = st.one_of(st.integers(-4, 4).map(lambda i: i / 4), st.floats(-2.0, 2.0))


@st.composite
def polyline(draw, ndim):
    """A polyline whose points may each repeat, so zero-length segments fall anywhere."""
    npoints = draw(st.integers(1, 8))
    pts = np.array(draw(st.lists(st.lists(COORDS, min_size=ndim, max_size=ndim),
                                 min_size=npoints, max_size=npoints)))
    repeats = draw(st.lists(st.integers(1, 3), min_size=npoints, max_size=npoints))
    return np.repeat(pts, repeats, axis=0)


@st.composite
def streamline_batch(draw):
    ndim = draw(st.sampled_from([2, 3]))
    lines = draw(st.lists(polyline(ndim), min_size=1, max_size=8))
    return [Streamline(pts[0], pts, 0.1) for pts in lines]


class TestBatchedResampleMatchesPerTrack:
    @settings(max_examples=200, deadline=None)
    @given(streamline_batch(), st.integers(2, 16))
    def test_bit_identical(self, lines, K):
        got = resample_tracks(lines, K)
        assert got.shape == (len(lines), K, lines[0].points.shape[1])
        for row, sl in zip(got, lines):
            assert np.array_equal(row, per_track_resample(sl.points, K))

    def test_degenerate_tracks_beside_live_ones(self):
        rng = philox(21)
        live = rng.uniform(0, 1, (9, 3))
        batch = [
            live[:1],                                   # one point
            np.repeat(live[:1], 4, axis=0),             # zero length throughout
            np.concatenate([live[:1], live[:1], live[1:4], live[3:4], live[4:], live[-1:]]),
            live,
        ]
        got = resample_tracks([Streamline(p[0], p, 0.1) for p in batch], 7)
        for row, pts in zip(got, batch):
            assert np.array_equal(row, per_track_resample(pts, 7))
        assert np.array_equal(got[0], np.repeat(live[:1], 7, axis=0))
        assert np.array_equal(got[2, -1], live[-1]) and np.array_equal(got[2, 0], live[0])

    def test_refuses_no_tracks(self):
        with pytest.raises(ValueError, match="no tracks"):
            resample_tracks([], 12)


def assert_same_clusters(got, want):
    assert got.threshold == want.threshold
    assert [c.member_ids for c in got.clusters] == [c.member_ids for c in want.clusters]
    for a, b in zip(got.clusters, want.clusters):
        assert np.array_equal(a.centroid, b.centroid)


class TestQuickBundlesMatchesPerCentroid:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lattice_tracks(self, data):
        ntracks = data.draw(st.integers(1, 12))
        K = data.draw(st.integers(2, 5))
        ndim = data.draw(st.sampled_from([2, 3]))
        cells = data.draw(st.lists(st.integers(0, 3), min_size=ntracks * K * ndim,
                                   max_size=ntracks * K * ndim))
        tracks = np.array(cells, dtype=float).reshape(ntracks, K, ndim)
        threshold = data.draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 4.0]))
        assert_same_clusters(quickbundles(tracks, threshold),
                             per_centroid_quickbundles(tracks, threshold))

    @settings(max_examples=100, deadline=None)
    @given(streamline_batch(), st.floats(0.05, 3.0))
    def test_resampled_polylines(self, lines, threshold):
        tracks = resample_tracks(lines, 6)
        assert_same_clusters(quickbundles(tracks, threshold),
                             per_centroid_quickbundles(tracks, threshold))

    def test_equal_distance_centroids_go_to_the_first(self):
        xs = np.linspace(0.0, 10.0, 12)
        above, below, middle = (np.stack([xs, np.full(12, y)], axis=1) for y in (1.0, -1.0, 0.0))
        tracks = np.array([above, below, middle])
        cs = quickbundles(tracks, 1.5)
        assert [c.member_ids for c in cs.clusters] == [[0, 2], [1]]
        assert_same_clusters(cs, per_centroid_quickbundles(tracks, 1.5))

    def test_reversed_track_joins_flipped(self):
        xs = np.linspace(0.0, 10.0, 12)
        forward = np.stack([xs, np.zeros(12)], axis=1)
        tracks = np.array([forward, forward[::-1] + [0.0, 0.2]])
        cs = quickbundles(tracks, 1.0)
        assert [c.member_ids for c in cs.clusters] == [[0, 1]]
        np.testing.assert_allclose(cs.clusters[0].centroid, forward + [0.0, 0.1])
        assert_same_clusters(cs, per_centroid_quickbundles(tracks, 1.0))


class TestMDF:
    def test_identical_tracks_zero(self):
        t = philox(4).uniform(0, 1, (12, 3))
        assert mdf_distance(t, t) == 0.0

    def test_reversal_zero(self):
        pts = philox(5).uniform(0, 1, (12, 2))
        assert mdf_distance(pts, pts[::-1]) == 0.0

    def test_parallel_offset(self):
        xs = np.linspace(0, 1, 12)
        a = np.stack([xs, np.zeros(12)], axis=1)
        b = np.stack([xs, np.full(12, 0.7)], axis=1)
        assert mdf_distance(a, b) == pytest.approx(0.7)

    def test_point_count_mismatch(self):
        # tracks of unequal length are refused where they are clustered
        with pytest.raises(ValueError, match="same point count"):
            quickbundles([np.zeros((12, 2)), np.zeros((10, 2))], 1.0)

    @pytest.mark.parametrize("shape", [(2, 12), (2, 1, 2), (2, 12, 2, 1)])
    def test_refuses_what_is_not_a_track_array(self, shape):
        # one array of tracks must be (ntracks, K >= 2, ndim)
        with pytest.raises(ValueError, match="tracks must have shape"):
            quickbundles(np.zeros(shape), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_and_flip_invariant(self, seed):
        rng = philox(seed)
        a = rng.uniform(-1, 1, (8, 2))
        b = rng.uniform(-1, 1, (8, 2))
        d = mdf_distance(a, b)
        assert d >= 0.0
        assert d == pytest.approx(mdf_distance(b, a))
        assert d == pytest.approx(mdf_distance(a[::-1], b))


class TestQuickBundles:
    def test_single_track(self):
        t = philox(6).uniform(0, 1, (12, 2))
        cs = quickbundles([t], 1.0)
        assert len(cs.clusters) == 1
        assert cs.clusters[0].member_ids == [0]
        np.testing.assert_allclose(cs.clusters[0].centroid, t)

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


class TestLabelVolume:
    def test_largest_cluster_wins(self):
        g = CellGrid([10, 10], [1.0, 1.0])
        xs = np.linspace(0.5, 9.5, 12)
        big = [np.stack([xs, np.full(12, 2.5)], axis=1)] * 3
        small = [np.stack([xs, np.full(12, 2.5)], axis=1)]
        cs = quickbundles(small + big, 0.5)
        # one cluster of 4 along the row; labels mark its cells
        labels = cluster_label_volume(cs, g)
        row = g.cells_of_points(np.stack([xs, np.full(12, 2.5)], axis=1))
        assert set(labels[row]) == {1}
        assert (labels > 0).sum() == len(np.unique(row))
