"""Tests for the cover tree and the database partitioners."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_face_like, make_fasttext_like
from repro.distances import get_distance
from repro.index import (
    BallRegion,
    CoverTree,
    build_partitioning,
    cover_tree_partitioning,
    kmeans_partitioning,
    merge_regions_balanced,
    random_partitioning,
)


@pytest.fixture(scope="module")
def small_data():
    return make_face_like(num_vectors=400, dim=8, seed=9).vectors


class TestCoverTree:
    def test_all_points_stored(self, small_data):
        tree = CoverTree(small_data, "euclidean", min_region_size=30)
        assert tree.num_points() == len(small_data)

    def test_leaf_regions_partition_the_data(self, small_data):
        tree = CoverTree(small_data, "euclidean", min_region_size=30)
        regions = tree.leaf_regions()
        counts = np.zeros(len(small_data), dtype=int)
        for region in regions:
            counts[region.point_indices] += 1
        assert np.all(counts == 1)

    def test_region_radius_covers_members(self, small_data):
        tree = CoverTree(small_data, "euclidean", min_region_size=30)
        distance = get_distance("euclidean")
        for region in tree.leaf_regions():
            if region.size == 0:
                continue
            distances = distance(region.center, small_data[region.point_indices])
            assert np.all(distances <= region.radius + 1e-9)

    def test_min_region_size_respected_roughly(self, small_data):
        """Expansion stops at small nodes, so most regions are modest in size."""
        tree = CoverTree(small_data, "euclidean", min_region_size=50)
        sizes = [region.size for region in tree.leaf_regions()]
        assert max(sizes) <= len(small_data)
        assert len(sizes) >= 2

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            CoverTree(np.zeros((0, 3)), "euclidean")

    def test_rejects_non_metric(self, small_data):
        from dataclasses import replace

        fake = replace(get_distance("euclidean"), is_metric=False)
        with pytest.raises(ValueError):
            CoverTree(small_data, fake)

    def test_depth_positive(self, small_data):
        tree = CoverTree(small_data, "euclidean", min_region_size=20)
        assert tree.depth() >= 1

    def test_deterministic_given_seed(self, small_data):
        a = CoverTree(small_data, "euclidean", min_region_size=30, seed=4)
        b = CoverTree(small_data, "euclidean", min_region_size=30, seed=4)
        assert [r.size for r in a.leaf_regions()] == [r.size for r in b.leaf_regions()]


class TestRegionMerging:
    def _regions(self, sizes):
        return [
            BallRegion(center=np.zeros(2), radius=1.0, point_indices=np.arange(size))
            for size in sizes
        ]

    def test_merges_into_requested_count(self):
        clusters = merge_regions_balanced(self._regions([10, 8, 6, 4, 2]), 2)
        assert len(clusters) == 2

    def test_balanced_sizes(self):
        clusters = merge_regions_balanced(self._regions([10, 10, 10, 10, 10, 10]), 3)
        totals = [sum(region.size for region in cluster) for cluster in clusters]
        assert max(totals) - min(totals) <= 10

    def test_greedy_largest_first(self):
        clusters = merge_regions_balanced(self._regions([100, 1, 1, 1]), 2)
        totals = sorted(sum(region.size for region in cluster) for cluster in clusters)
        assert totals == [3, 100]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            merge_regions_balanced(self._regions([5]), 0)


class TestPartitionings:
    @pytest.mark.parametrize("method", ["ct", "rp", "km"])
    def test_partitions_cover_database(self, small_data, method):
        partitioning = build_partitioning(method, small_data, num_partitions=4, distance="euclidean")
        assert partitioning.num_partitions == 4
        assert partitioning.sizes().sum() == len(small_data)

    def test_unknown_method(self, small_data):
        with pytest.raises(KeyError):
            build_partitioning("metis", small_data)

    def test_cover_tree_partition_sizes_balanced(self, small_data):
        partitioning = cover_tree_partitioning(small_data, num_partitions=4, distance="euclidean")
        sizes = partitioning.sizes()
        assert sizes.max() <= 2.5 * max(sizes.min(), 1)

    def test_random_partitioning_always_active(self, small_data):
        partitioning = random_partitioning(small_data, num_partitions=3, seed=1)
        indicator = partitioning.indicator(small_data[0], 0.1)
        np.testing.assert_allclose(indicator, np.ones(3))

    def test_kmeans_partitioning_ball_covers_members(self, small_data):
        partitioning = kmeans_partitioning(small_data, num_partitions=3, distance="euclidean")
        distance = get_distance("euclidean")
        for partition in partitioning.partitions:
            if partition.size == 0:
                continue
            region = partition.regions[0]
            distances = distance(region.center, small_data[partition.point_indices])
            assert np.all(distances <= region.radius + 1e-9)

    def test_indicator_soundness(self, small_data):
        """If a partition holds any object inside the query ball, its
        indicator entry must be 1 (no false negatives)."""
        partitioning = cover_tree_partitioning(small_data, num_partitions=4, distance="euclidean")
        distance = get_distance("euclidean")
        rng = np.random.default_rng(0)
        for _ in range(10):
            query = small_data[rng.integers(len(small_data))]
            threshold = rng.uniform(0.05, 0.5)
            indicator = partitioning.indicator(query, threshold)
            for k, partition in enumerate(partitioning.partitions):
                if partition.size == 0:
                    continue
                members = small_data[partition.point_indices]
                has_member_in_ball = np.any(distance(query, members) <= threshold)
                if has_member_in_ball:
                    assert indicator[k] == 1.0

    def test_indicator_batch_shape(self, small_data):
        partitioning = cover_tree_partitioning(small_data, num_partitions=3, distance="euclidean")
        queries = small_data[:5]
        thresholds = np.full(5, 0.2)
        batch = partitioning.indicator_batch(queries, thresholds)
        assert batch.shape == (5, 3)
        assert set(np.unique(batch)).issubset({0.0, 1.0})

    def test_local_labels_sum_to_global(self, small_data):
        """Observation 1: per-partition selectivities sum to the global one."""
        partitioning = cover_tree_partitioning(small_data, num_partitions=3, distance="euclidean")
        distance = get_distance("euclidean")
        rng = np.random.default_rng(1)
        queries = small_data[rng.choice(len(small_data), size=6, replace=False)]
        thresholds = rng.uniform(0.05, 0.6, size=6)
        local = partitioning.local_selectivity_labels(queries, thresholds)
        for i, (query, threshold) in enumerate(zip(queries, thresholds)):
            total = np.count_nonzero(distance(query, small_data) <= threshold)
            assert local[i].sum() == pytest.approx(total)

    @pytest.mark.parametrize("distance_name", ["cosine", "euclidean"])
    def test_local_labels_match_one_scan_per_row(self, small_data, distance_name):
        """Scanning once per distinct query gives exactly the counts of one
        database scan per training row, whose queries repeat (at every
        threshold, in any order)."""
        partitioning = cover_tree_partitioning(
            small_data, num_partitions=3, distance=distance_name
        )
        rng = np.random.default_rng(2)
        picks = rng.choice(len(small_data), size=7, replace=False)
        queries = np.repeat(small_data[picks], 5, axis=0)
        thresholds = rng.uniform(0.0, 0.8, size=len(queries))
        order = rng.permutation(len(queries))
        queries, thresholds = queries[order], thresholds[order]

        distance = get_distance(distance_name)
        partition_ids = np.empty(len(small_data), dtype=np.int64)
        for partition in partitioning.partitions:
            partition_ids[partition.point_indices] = partition.index
        reference = np.zeros((len(queries), 3))
        for i in range(len(queries)):
            mask = (distance(queries[i], small_data) <= thresholds[i]).astype(np.float64)
            reference[i] = np.bincount(partition_ids, weights=mask, minlength=3)
        local = partitioning.local_selectivity_labels(queries, thresholds)
        np.testing.assert_array_equal(local, reference)

    def test_cover_tree_on_cosine_distance(self):
        data = make_fasttext_like(num_vectors=300, dim=10, seed=4).vectors
        partitioning = cover_tree_partitioning(data, num_partitions=3, distance="cosine")
        assert partitioning.sizes().sum() == len(data)

    @settings(max_examples=10, deadline=None)
    @given(num_partitions=st.integers(2, 6), seed=st.integers(0, 100))
    def test_property_random_partitioning_disjoint_cover(self, num_partitions, seed):
        """Property: random partitioning is always a disjoint cover."""
        rng = np.random.default_rng(0)
        data = rng.normal(size=(120, 5))
        partitioning = random_partitioning(data, num_partitions=num_partitions, seed=seed)
        counts = np.zeros(len(data), dtype=int)
        for partition in partitioning.partitions:
            counts[partition.point_indices] += 1
        assert np.all(counts == 1)
