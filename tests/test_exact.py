"""Tests for the blocked exact-selectivity engine (repro.exact)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    SelectivityOracle,
    apply_stream,
    generate_update_stream,
    generate_workload,
    make_face_like,
    make_fasttext_like,
    replay_stream_labels,
)
from repro.data.updates import UpdateOperation
from repro.distances import get_distance
from repro.exact import (
    BlockedOracle,
    DeltaOracle,
    LegacyOracle,
    ReferenceOracle,
    get_default_num_workers,
    set_default_num_workers,
)
from repro.index.cover_tree import CoverTree

#: one dataset per registered distance (euclidean data is unnormalised so the
#: norm-dependent code paths are exercised)
DISTANCE_DATASETS = {
    "euclidean": lambda: make_fasttext_like(num_vectors=600, dim=14, seed=3).vectors,
    "cosine": lambda: make_face_like(num_vectors=600, dim=14, seed=3).vectors,
}


def _queries_and_thresholds(data, distance, num=25, seed=0):
    rng = np.random.default_rng(seed)
    queries = data[rng.choice(len(data), size=num, replace=False)]
    reference = ReferenceOracle(data, distance)
    # half arbitrary thresholds, half knife-edge rank thresholds (exact
    # distance values) so tie handling is exercised
    arbitrary = rng.uniform(0.01, 1.2, size=num)
    ranks = rng.integers(0, len(data), size=num)
    ties = np.array(
        [reference.sorted_distances_to(q)[k] for q, k in zip(queries, ranks)]
    )
    thresholds = np.where(np.arange(num) % 2 == 0, arbitrary, ties)
    return queries, thresholds


class TestBlockedOracleParity:
    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_batch_matches_per_query_reference_exactly(self, distance):
        data = DISTANCE_DATASETS[distance]()
        queries, thresholds = _queries_and_thresholds(data, distance)
        engine = BlockedOracle(data, distance)
        reference = ReferenceOracle(data, distance)
        np.testing.assert_array_equal(
            engine.selectivities_batch(queries, thresholds),
            reference.selectivities_batch(queries, thresholds),
        )

    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_grid_thresholds_match_reference(self, distance):
        data = DISTANCE_DATASETS[distance]()
        rng = np.random.default_rng(1)
        queries = data[rng.choice(len(data), size=10, replace=False)]
        grid = rng.uniform(0.01, 1.0, size=(10, 7))
        engine = BlockedOracle(data, distance)
        reference = ReferenceOracle(data, distance)
        np.testing.assert_array_equal(
            engine.selectivities_batch(queries, grid),
            reference.selectivities_batch(queries, grid),
        )

    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_threshold_profile_bitwise_vs_reference(self, distance):
        data = DISTANCE_DATASETS[distance]()
        rng = np.random.default_rng(2)
        queries = data[rng.choice(len(data), size=12, replace=False)]
        ranks = np.array([1, 2, 5, 17, 60, 300, len(data)])
        engine = BlockedOracle(data, distance)
        thresholds, counts = engine.threshold_profile(queries, ranks)
        ref_thresholds, ref_counts = ReferenceOracle(data, distance).threshold_profile(
            queries, ranks
        )
        np.testing.assert_array_equal(thresholds, ref_thresholds)
        np.testing.assert_array_equal(counts, ref_counts)
        assert np.all(counts >= ranks[None, :])

    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_kth_distances_match_sorted_profile(self, distance):
        data = DISTANCE_DATASETS[distance]()
        rng = np.random.default_rng(3)
        queries = data[rng.choice(len(data), size=8, replace=False)]
        ks = np.array([0, 3, 11, 599])
        engine = BlockedOracle(data, distance)
        got = engine.kth_distances(queries, ks)
        expected = ReferenceOracle(data, distance).kth_distances(queries, ks)
        np.testing.assert_array_equal(got, expected)


class TestBlockingInvariance:
    """Counts must not depend on block size, worker count or batch shape."""

    @pytest.fixture(scope="class")
    def setting(self):
        data = DISTANCE_DATASETS["euclidean"]()
        queries, thresholds = _queries_and_thresholds(data, "euclidean", seed=4)
        baseline = BlockedOracle(data, "euclidean").selectivities_batch(queries, thresholds)
        return data, queries, thresholds, baseline

    @pytest.mark.parametrize("block_bytes", [1, 4096, 1 << 18, 1 << 30])
    def test_block_size_invariance(self, setting, block_bytes):
        data, queries, thresholds, baseline = setting
        engine = BlockedOracle(data, "euclidean", block_bytes=block_bytes)
        np.testing.assert_array_equal(
            engine.selectivities_batch(queries, thresholds), baseline
        )

    @pytest.mark.parametrize("num_workers", [1, 2, 7])
    def test_worker_count_invariance(self, setting, num_workers):
        data, queries, thresholds, baseline = setting
        engine = BlockedOracle(data, "euclidean", num_workers=num_workers, block_bytes=4096)
        np.testing.assert_array_equal(
            engine.selectivities_batch(queries, thresholds), baseline
        )

    def test_single_row_batch_matches(self, setting):
        data, queries, thresholds, baseline = setting
        engine = BlockedOracle(data, "euclidean")
        for i in (0, 7, len(queries) - 1):
            got = engine.selectivities_batch(queries[i : i + 1], thresholds[i : i + 1])
            assert got[0] == baseline[i]

    def test_empty_query_batch(self, setting):
        data = setting[0]
        engine = BlockedOracle(data, "euclidean")
        out = engine.selectivities_batch(
            np.empty((0, data.shape[1])), np.empty(0)
        )
        assert out.shape == (0,) and out.dtype == np.int64
        with pytest.raises(ValueError):
            engine.threshold_profile(np.empty((0, data.shape[1])), [])

    def test_progress_callback_reports_all_rows(self, setting):
        data, queries, thresholds, _ = setting
        engine = BlockedOracle(data, "euclidean", block_bytes=4096, num_workers=2)
        seen = []
        engine.selectivities_batch(
            queries, thresholds, progress=lambda done, total: seen.append((done, total))
        )
        assert seen[-1][0] == len(queries)
        assert all(total == len(queries) for _, total in seen)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_default_worker_override(self):
        original = get_default_num_workers()
        try:
            set_default_num_workers(3)
            assert get_default_num_workers() == 3
        finally:
            set_default_num_workers(None)
        assert get_default_num_workers() >= 1


class TestTileMemory:
    """A one-block call holds at most two tile-sized arrays beyond its output.

    The tile is finished in place on the GEMM output (one more tile beside
    it while it is built), handed to the caller without a copy, and
    partitioned and sorted in place, so labeling memory is a small multiple
    of one tile, not of the number of temporaries in the distance formula.
    """

    NUM_QUERIES, NUM_OBJECTS, DIM = 64, 3000, 16

    @staticmethod
    def _peak_beyond_output(call):
        """``(output, peak traced bytes during the call minus the output's)``."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            output = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = output if isinstance(output, tuple) else (output,)
        return output, peak - before - sum(array.nbytes for array in arrays)

    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    @pytest.mark.parametrize("method", ["distances_matrix", "threshold_profile"])
    def test_one_block_call_holds_at_most_two_tiles(self, distance, method):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(self.NUM_OBJECTS, self.DIM))
        queries = rng.normal(size=(self.NUM_QUERIES, self.DIM))
        engine = BlockedOracle(data, distance, num_workers=1)
        reference = ReferenceOracle(data, distance)
        assert engine._row_block(self.NUM_OBJECTS) >= self.NUM_QUERIES
        assert engine._column_block(self.NUM_QUERIES) >= self.NUM_OBJECTS
        tile_bytes = self.NUM_QUERIES * self.NUM_OBJECTS * 8
        ranks = [1, 5, 50, 300, self.NUM_OBJECTS // 2]
        if method == "distances_matrix":
            call = lambda: engine.distances_matrix(queries)
        else:
            call = lambda: engine.threshold_profile(queries, ranks)
        call()  # first-use allocations inside NumPy are not the tile's
        output, beyond = self._peak_beyond_output(call)
        assert beyond <= 2.25 * tile_bytes, f"{beyond / tile_bytes:.2f} tiles beyond the output"
        if method == "distances_matrix":
            for row, query in zip(output, queries):
                np.testing.assert_array_equal(np.sort(row), reference.sorted_distances_to(query))
        else:
            expected = reference.threshold_profile(queries, ranks)
            np.testing.assert_array_equal(output[0], expected[0])
            np.testing.assert_array_equal(output[1], expected[1])


class TestPruning:
    def test_pruned_counts_exactly_match_unpruned(self):
        data = DISTANCE_DATASETS["euclidean"]()
        regions = CoverTree(data, "euclidean", min_region_size=40, seed=0).leaf_regions()
        queries, thresholds = _queries_and_thresholds(data, "euclidean", seed=5)
        plain = BlockedOracle(data, "euclidean")
        pruned = BlockedOracle(data, "euclidean", regions=regions)
        # include very low thresholds, where pruning skips most regions
        low = np.full(len(queries), 1e-3)
        for cutoff in (thresholds, low):
            np.testing.assert_array_equal(
                pruned.selectivities_batch(queries, cutoff),
                plain.selectivities_batch(queries, cutoff),
            )

    def test_pruning_ignored_for_cosine(self):
        data = DISTANCE_DATASETS["cosine"]()
        regions = CoverTree(data, "cosine", min_region_size=40, seed=0).leaf_regions()
        engine = BlockedOracle(data, "cosine", regions=regions)
        assert engine._regions is None

    def test_invalid_regions_rejected(self):
        data = DISTANCE_DATASETS["euclidean"]()
        regions = CoverTree(data, "euclidean", min_region_size=40, seed=0).leaf_regions()
        with pytest.raises(ValueError):
            BlockedOracle(data, "euclidean", regions=regions[:-1])


class TestDeltaOracle:
    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_parity_against_rebuild_after_mixed_stream(self, distance):
        data = DISTANCE_DATASETS[distance]()
        operations = generate_update_stream(
            data, num_operations=20, records_per_operation=4, seed=7
        )
        rng = np.random.default_rng(8)
        queries = data[rng.choice(len(data), size=15, replace=False)]
        thresholds = rng.uniform(0.05, 1.0, size=15)
        delta = DeltaOracle(data, distance)
        _, states = apply_stream(data, operations)
        for operation, state in zip(operations, states):
            delta.apply(operation)
            np.testing.assert_array_equal(delta.current_data(), state)
            assert delta.num_objects == len(state)
            rebuilt = BlockedOracle(state, distance)
            np.testing.assert_array_equal(
                delta.selectivities_batch(queries, thresholds),
                rebuilt.selectivities_batch(queries, thresholds),
            )

    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_grid_parity_when_reads_catch_up_over_several_operations(self, distance):
        """Relabeling reads ``(Q, w)`` grids; a read after every third
        operation replays several log entries at once, including deletes of
        inserted rows, and must still match a rebuild integer for integer."""
        from repro.data import apply_update

        data = DISTANCE_DATASETS[distance]()
        queries, _ = _queries_and_thresholds(data, distance, num=12, seed=16)
        reference = ReferenceOracle(data, distance)
        rng = np.random.default_rng(17)
        # Per query: three knife-edge rank thresholds and three arbitrary ones.
        grid = np.sort(
            np.concatenate(
                [
                    np.array(
                        [
                            reference.sorted_distances_to(q)[rng.integers(0, len(data), 3)]
                            for q in queries
                        ]
                    ),
                    rng.uniform(0.05, 1.0, size=(len(queries), 3)),
                ],
                axis=1,
            ),
            axis=1,
        )
        operations = []
        size = len(data)
        for operation in generate_update_stream(
            data, num_operations=24, records_per_operation=5, seed=18
        ):
            operations.append(operation)
            size += 5 if operation.kind == "insert" else -5
            if len(operations) % 4 == 0 and size > len(data) - 40:
                # The view's last rows are inserted ones once inserts outnumber
                # the base rows deleted so far.
                operations.append(
                    UpdateOperation(kind="delete", indices=np.array([size - 3, size - 1]))
                )
                size -= 2
        delta = DeltaOracle(data, distance)
        delta.selectivities_batch(queries, grid)
        current = data
        for index, operation in enumerate(operations):
            delta.apply(operation)
            current = apply_update(current, operation)
            if index % 3 == 2 or index == len(operations) - 1:
                np.testing.assert_array_equal(
                    delta.selectivities_batch(queries, grid),
                    BlockedOracle(current, distance).selectivities_batch(queries, grid),
                )
        inserted = sum(len(op.vectors) for op in operations if op.kind == "insert")
        assert delta.cache_info()["live_inserted_rows"] < inserted

    def test_reads_scan_only_rows_changed_since_the_previous_read(self, monkeypatch):
        """Work per write, counted: after the base pass a read sends to the
        distance kernel exactly the rows inserted and the base rows deleted
        since the previous read (a deleted inserted row needs no scan: its
        distances were kept when it was counted)."""
        data = DISTANCE_DATASETS["cosine"]()
        queries, thresholds = _queries_and_thresholds(data, "cosine", num=10, seed=19)
        operations = generate_update_stream(
            data, num_operations=30, records_per_operation=4, seed=20
        )
        delta = DeltaOracle(data, "cosine")
        delta.selectivities_batch(queries, thresholds)  # the base pass

        scanned = []
        distances_matrix = BlockedOracle.distances_matrix

        def counting(self, rows):
            scanned.append(self.num_objects)
            return distances_matrix(self, rows)

        monkeypatch.setattr(BlockedOracle, "distances_matrix", counting)
        changed = 0
        for index, operation in enumerate(operations):
            dead_before = delta.cache_info()["dead_base_rows"]
            delta.apply(operation)
            if operation.kind == "insert":
                changed += len(operation.vectors)
            else:
                changed += delta.cache_info()["dead_base_rows"] - dead_before
            if index % 2 == 0:
                delta.selectivities_batch(queries, thresholds)
                assert sum(scanned) == changed
                scanned.clear()
                changed = 0
        assert delta.cache_info()["base_batches_cached"] == 1

    def test_tie_thresholds_replay_matches_legacy_pipeline(self):
        """Rank thresholds *are* deleted rows' distances; the legacy GEMV
        pipeline is bit-stable under deletion, so both pipelines must agree
        integer for integer at every update step."""
        data = DISTANCE_DATASETS["euclidean"]()
        rng = np.random.default_rng(9)
        queries = data[rng.choice(len(data), size=12, replace=False)]
        ranks = np.array([1, 3, 10, 40, 120])
        engine_thresholds, _ = BlockedOracle(data, "euclidean").threshold_profile(
            queries, ranks
        )
        legacy_thresholds, _ = LegacyOracle(data, "euclidean").threshold_profile(
            queries, ranks
        )
        operations = generate_update_stream(
            data, num_operations=15, records_per_operation=5, seed=10
        )
        delta = DeltaOracle(data, "euclidean")
        current = data
        from repro.data import apply_update

        for operation in operations:
            delta.apply(operation)
            current = apply_update(current, operation)
            np.testing.assert_array_equal(
                delta.selectivities_batch(queries, engine_thresholds),
                LegacyOracle(current, "euclidean").selectivities_batch(
                    queries, legacy_thresholds
                ),
            )

    def test_delete_of_inserted_rows(self):
        data = DISTANCE_DATASETS["euclidean"]()[:200]
        delta = DeltaOracle(data, "euclidean")
        inserted = data[:6] + 0.01
        delta.insert(inserted)
        assert delta.num_objects == 206
        # delete three of the inserted rows (view indices past the base)
        delta.delete(np.array([200, 202, 204]))
        assert delta.num_objects == 203
        expected = np.concatenate([data, inserted[np.array([1, 3, 5])]], axis=0)
        np.testing.assert_array_equal(delta.current_data(), expected)

    def test_out_of_range_deletes_ignored(self):
        data = DISTANCE_DATASETS["euclidean"]()[:100]
        delta = DeltaOracle(data, "euclidean")
        delta.delete(np.array([5, 500, 1000]))
        assert delta.num_objects == 99

    def test_negative_deletes_wrap_like_apply_update(self):
        from repro.data import apply_update

        data = DISTANCE_DATASETS["euclidean"]()[:100]
        operation = UpdateOperation(kind="delete", indices=np.array([-1, 2]))
        expected = apply_update(data, operation)
        delta = DeltaOracle(data, "euclidean")
        delta.apply(operation)
        np.testing.assert_array_equal(delta.current_data(), expected)
        with pytest.raises(IndexError):
            delta.delete(np.array([-200]))

    def test_base_cache_hit_across_operations(self):
        data = DISTANCE_DATASETS["euclidean"]()[:300]
        delta = DeltaOracle(data, "euclidean")
        rng = np.random.default_rng(11)
        queries = data[:8]
        thresholds = rng.uniform(0.1, 0.9, size=8)
        delta.selectivities_batch(queries, thresholds)
        delta.delete(np.arange(5))
        delta.selectivities_batch(queries, thresholds)
        info = delta.cache_info()
        assert info["base_batches_cached"] == 1
        assert info["dead_base_rows"] == 5

    def test_read_only_batches_are_found_without_hashing(self, monkeypatch):
        from repro.exact import delta as delta_module

        data = DISTANCE_DATASETS["cosine"]()[:300]
        queries, thresholds = _queries_and_thresholds(data, "cosine", num=6, seed=21)
        frozen_queries, frozen_thresholds = queries.copy(), thresholds.copy()
        frozen_queries.flags.writeable = frozen_thresholds.flags.writeable = False
        digests = []
        batch_digest = delta_module._batch_digest
        monkeypatch.setattr(
            delta_module, "_batch_digest", lambda q, t: (digests.append(1), batch_digest(q, t))[1]
        )
        oracle = DeltaOracle(data, "cosine")
        first = oracle.selectivities_batch(frozen_queries, frozen_thresholds)
        oracle.delete(np.arange(4))
        second = oracle.selectivities_batch(frozen_queries, frozen_thresholds)
        assert len(digests) == 1
        # Writable arrays may change between reads: they are always hashed,
        # and equal values still find the same batch.
        np.testing.assert_array_equal(oracle.selectivities_batch(queries, thresholds), second)
        assert len(digests) == 2 and oracle.cache_info()["base_batches_cached"] == 1
        thresholds[0] += 0.5
        changed = oracle.selectivities_batch(queries, thresholds)
        assert len(digests) == 3 and oracle.cache_info()["base_batches_cached"] == 2
        assert changed[0] >= second[0] and np.all(second <= first)

    def test_insert_validation(self):
        data = DISTANCE_DATASETS["euclidean"]()[:50]
        delta = DeltaOracle(data, "euclidean")
        with pytest.raises(ValueError):
            delta.insert(np.ones((2, data.shape[1] + 1)))

    def test_replay_stream_labels_matches_rebuild(self):
        data = DISTANCE_DATASETS["cosine"]()[:250]
        operations = generate_update_stream(
            data, num_operations=8, records_per_operation=3, seed=12
        )
        rng = np.random.default_rng(13)
        queries = data[rng.choice(len(data), size=6, replace=False)]
        thresholds = rng.uniform(0.05, 0.6, size=6)
        _, states = apply_stream(data, operations)
        stream = replay_stream_labels(data, operations, queries, thresholds, "cosine")
        for (operation, delta, labels), state in zip(stream, states):
            np.testing.assert_array_equal(
                labels, BlockedOracle(state, "cosine").selectivities_batch(queries, thresholds)
            )


class TestWorkloadIntegration:
    def test_generate_workload_worker_invariance(self):
        dataset_vectors = make_face_like(num_vectors=300, dim=10, seed=6)
        a, _ = generate_workload(
            dataset_vectors, "cosine", num_queries=20, thresholds_per_query=6,
            seed=2, num_workers=1, block_bytes=4096,
        )
        b, _ = generate_workload(
            dataset_vectors, "cosine", num_queries=20, thresholds_per_query=6,
            seed=2, num_workers=4,
        )
        np.testing.assert_array_equal(a.thresholds, b.thresholds)
        np.testing.assert_array_equal(a.selectivities, b.selectivities)

    def test_generate_workload_progress_callback(self):
        dataset = make_face_like(num_vectors=200, dim=8, seed=6)
        seen = []
        generate_workload(
            dataset, "cosine", num_queries=12, thresholds_per_query=4,
            seed=0, progress=lambda done, total: seen.append((done, total)),
        )
        assert seen and seen[-1][0] == 12

    def test_oracle_batch_matches_singles(self):
        data = DISTANCE_DATASETS["cosine"]()
        oracle = SelectivityOracle(data, "cosine")
        rng = np.random.default_rng(14)
        queries = data[rng.choice(len(data), size=10, replace=False)]
        thresholds = rng.uniform(0.05, 0.8, size=10)
        batch = oracle.batch_selectivity(queries, thresholds)
        singles = [oracle.selectivity(q, t) for q, t in zip(queries, thresholds)]
        np.testing.assert_array_equal(batch, singles)

    def test_legacy_oracle_matches_engine_on_arbitrary_thresholds(self):
        data = DISTANCE_DATASETS["euclidean"]()
        rng = np.random.default_rng(15)
        queries = data[rng.choice(len(data), size=10, replace=False)]
        thresholds = rng.uniform(0.05, 1.0, size=10)
        np.testing.assert_array_equal(
            LegacyOracle(data, "euclidean").selectivities_batch(queries, thresholds),
            BlockedOracle(data, "euclidean").selectivities_batch(queries, thresholds),
        )


class TestPartitionerLabels:
    """Satellite: the vectorised local labels must be bit-identical to the
    former per-(row, partition) loop."""

    @staticmethod
    def _loop_labels(partitioning, queries, thresholds):
        out = np.zeros((len(queries), partitioning.num_partitions))
        for k, partition in enumerate(partitioning.partitions):
            local_data = partitioning.data[partition.point_indices]
            if len(local_data) == 0:
                continue
            for i, (query, threshold) in enumerate(zip(queries, thresholds)):
                distances = partitioning.distance(query, local_data)
                out[i, k] = float(np.count_nonzero(distances <= threshold))
        return out

    @pytest.mark.parametrize("distance", sorted(DISTANCE_DATASETS))
    def test_bit_identical_to_per_row_loop(self, distance):
        from repro.index.partitioner import cover_tree_partitioning

        data = DISTANCE_DATASETS[distance]()[:400]
        partitioning = cover_tree_partitioning(data, num_partitions=4, distance=distance)
        queries, thresholds = _queries_and_thresholds(data, distance, num=20, seed=16)
        got = partitioning.local_selectivity_labels(queries, thresholds)
        expected = self._loop_labels(partitioning, queries, thresholds)
        np.testing.assert_array_equal(got, expected)

    def test_local_labels_sum_matches_engine_counts(self):
        from repro.index.partitioner import cover_tree_partitioning

        data = DISTANCE_DATASETS["euclidean"]()[:400]
        partitioning = cover_tree_partitioning(data, num_partitions=3, distance="euclidean")
        rng = np.random.default_rng(17)
        queries = data[rng.choice(len(data), size=8, replace=False)]
        thresholds = rng.uniform(0.1, 0.9, size=8)
        local = partitioning.local_selectivity_labels(queries, thresholds)
        totals = LegacyOracle(data, "euclidean").selectivities_batch(queries, thresholds)
        np.testing.assert_array_equal(local.sum(axis=1).astype(np.int64), totals)
