"""Tests for the sharded estimation cluster (router, backends, facade)."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro import create_estimator
from repro.cluster import (
    ClusterConfig,
    ClusterOverloadedError,
    EstimationCluster,
    ShardRouter,
)
from repro.estimator import UpdateNotSupportedError
from repro.serving import query_cache_key


@pytest.fixture(scope="module")
def kde_model_dir(tiny_cosine_split, tmp_path_factory):
    """One fitted KDE saved under a model directory, for disk-backed shards."""
    directory = tmp_path_factory.mktemp("cluster-models")
    kde = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
    kde.save(directory / "kde", metadata={"setting": "face-cos", "scale": "tiny", "seed": 0})
    return directory


@pytest.fixture(scope="module")
def fitted_kde(tiny_cosine_split):
    return create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)


@pytest.fixture(scope="module")
def fitted_selnet_ct(tiny_cosine_split, fast_selnet_config):
    """A tiny SelNet-ct: the cache holds its control points."""
    params = dict(asdict(fast_selnet_config), epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1)
    return create_estimator("selnet-ct", **params).fit(tiny_cosine_split)


@pytest.fixture(scope="module")
def selnet_model_dir(fitted_selnet_ct, tmp_path_factory):
    """The tiny SelNet-ct saved under a model directory, for disk-backed shards."""
    directory = tmp_path_factory.mktemp("cluster-selnet-models")
    fitted_selnet_ct.save(
        directory / "selnet-ct", metadata={"setting": "face-cos", "scale": "tiny", "seed": 0}
    )
    return directory


class TestShardRouter:
    def test_same_key_same_shard_deterministically(self, rng):
        """Acceptance: routing is a pure function of (model, query) per seed."""
        queries = rng.standard_normal((64, 6))
        first = ShardRouter(num_shards=4)
        second = ShardRouter(num_shards=4)  # a fresh ring, e.g. another process
        for i in range(len(queries)):
            assert first.route("m", queries[i]) == second.route("m", queries[i])
        np.testing.assert_array_equal(
            first.route_batch("m", queries), second.route_batch("m", queries)
        )

    def test_distinct_models_route_independently(self, rng):
        queries = rng.standard_normal((200, 5))
        router = ShardRouter(num_shards=4)
        a = router.route_batch("model-a", queries)
        b = router.route_batch("model-b", queries)
        assert not np.array_equal(a, b)

    def test_all_shards_receive_keys(self, rng):
        router = ShardRouter(num_shards=5)
        shard_ids = router.route_batch("m", rng.standard_normal((500, 4)))
        assert set(shard_ids.tolist()) == set(range(5))

    def test_adding_a_shard_remaps_few_keys(self, rng):
        queries = rng.standard_normal((600, 4))
        before = ShardRouter(num_shards=4).route_batch("m", queries)
        after = ShardRouter(num_shards=5).route_batch("m", queries)
        moved = np.mean(before != after)
        # Consistent hashing moves ~1/5 of the keys; mod-N would move ~4/5.
        assert moved < 0.5

    def test_placement_is_pinned(self):
        """Placement is part of the cache contract: a ring change remaps keys."""
        queries = np.random.default_rng(2024).standard_normal((40, 6))
        expected = {
            2: [1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0,
                0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1],
            5: [1, 3, 4, 3, 2, 3, 2, 2, 2, 4, 3, 2, 0, 0, 2, 0, 2, 0, 3, 0,
                0, 4, 4, 0, 3, 4, 1, 2, 3, 2, 2, 2, 4, 0, 2, 3, 1, 0, 4, 2],
        }
        for num_shards, shards in expected.items():
            router = ShardRouter(num_shards)
            assert router.route_batch("m", queries).tolist() == shards
            assert [router.route("m", query) for query in queries] == shards

    def test_one_shard_ring_hashes_nothing(self, rng, monkeypatch):
        from repro.cluster import router as router_module

        def refuse(data):
            raise AssertionError("a one-shard ring hashed a key")

        router = ShardRouter(num_shards=1)
        monkeypatch.setattr(router_module, "_hash64", refuse)
        shards = router.route_batch("m", rng.standard_normal((32, 6)))
        assert shards.dtype == np.int64 and shards.tolist() == [0] * 32
        assert router.route("m", rng.standard_normal(6)) == 0

    def test_router_matches_cache_key_rounding(self, rng):
        router = ShardRouter(num_shards=4)
        query = np.round(rng.standard_normal(5), 10)
        below = query + 1e-12  # under the fixed 1e-10 key quantum
        assert router.key_for("m", below) == query_cache_key("m", query)
        assert router.route("m", query) == router.route("m", below)
        assert router.key_for("m", query + 1e-6) != router.key_for("m", query)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(num_shards=0)
        with pytest.raises(TypeError):
            ShardRouter(4, replication_factor=2)


def _zipf_index_batches(pool_size, num_rows, batch_size, exponent=1.2, seed=1):
    """Seeded Zipf row indices over a permuted pool, in fixed-size batches."""
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(pool_size)
    weights = np.arange(1, pool_size + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights / weights.sum())
    draws = np.minimum(np.searchsorted(cdf, rng.random(num_rows)), pool_size - 1)
    indices = permutation[draws]
    return [indices[start : start + batch_size] for start in range(0, num_rows, batch_size)]


class TestEstimationCluster:
    def test_scatter_gather_matches_direct_estimates(self, tiny_cosine_split, fitted_kde):
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        with EstimationCluster(ClusterConfig(num_shards=3)) as cluster:
            cluster.add_model("kde", fitted_kde)
            served = cluster.estimate("kde", queries, thresholds, use_cache=False)
            np.testing.assert_array_equal(served, fitted_kde.estimate(queries, thresholds))

    def test_empty_batch(self, fitted_kde):
        with EstimationCluster(ClusterConfig(num_shards=2)) as cluster:
            cluster.add_model("kde", fitted_kde)
            result = cluster.estimate("kde", np.empty((0, 10)), np.empty(0))
            assert result.shape == (0,)

    def test_cached_traffic_spreads_and_hits(self, tiny_cosine_split, fitted_selnet_ct):
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        with EstimationCluster(ClusterConfig(num_shards=3)) as cluster:
            cluster.add_model("selnet-ct", fitted_selnet_ct)
            cluster.estimate("selnet-ct", queries, thresholds)
            cluster.estimate("selnet-ct", queries, thresholds)
            stats = cluster.stats()
            assert stats["total_requests"] == 2 * len(thresholds)
            active = [entry for entry in stats["per_shard"] if entry["requests"]]
            assert len(active) > 1, "consistent hashing should use several shards"
            for entry in active:
                assert entry["cache"]["hit_rate"] > 0.0
                assert {"p50_ms", "p95_ms", "p99_ms"} <= set(entry["latency"])

    def test_partitioned_caches_beat_one_process(self, selnet_model_dir, tiny_cosine_split):
        """Sharding multiplies the aggregate cache on a zipfian stream.

        Each cache holds fewer entries than the stream's working set, so 4
        shards with one service's capacity each hit more often than that one
        service does and build fewer entries (deterministic for the seeded
        stream).  Wall time is not compared: a SelNet-ct miss costs one
        forward for a call's missed queries, less than an inline cluster's
        routing.
        """
        from repro.serving import EstimationService

        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        batches = _zipf_index_batches(len(thresholds), num_rows=800, batch_size=32)
        capacity = 2

        service = EstimationService(selnet_model_dir, cache_capacity=capacity)
        for index in batches:
            service.estimate("selnet-ct", queries[index], thresholds[index])
        counters = service.stats()["per_model"]["selnet-ct"]
        service_hit_rate = counters["cache_hits"] / (
            counters["cache_hits"] + counters["cache_misses"]
        )

        with EstimationCluster(
            ClusterConfig(num_shards=4, model_dir=selnet_model_dir, cache_capacity=capacity)
        ) as cluster:
            for index in batches:
                cluster.estimate("selnet-ct", queries[index], thresholds[index])
            per_shard = cluster.stats()["per_shard"]
        hits = sum(entry["cache"]["hits"] for entry in per_shard)
        misses = sum(entry["cache"]["misses"] for entry in per_shard)
        assert hits / (hits + misses) > service_hit_rate
        builds = sum(
            model["curve_builds"]
            for entry in per_shard
            for model in entry["worker"]["per_model"].values()
        )
        assert builds < counters["curve_builds"]

    def test_disk_backed_shards_load_models_lazily(self, kde_model_dir, tiny_cosine_split):
        queries = tiny_cosine_split.test.queries[:8]
        thresholds = tiny_cosine_split.test.thresholds[:8]
        with EstimationCluster(
            ClusterConfig(num_shards=2, model_dir=kde_model_dir)
        ) as cluster:
            served = cluster.estimate("kde", queries, thresholds, use_cache=False)
            assert served.shape == (8,)

    def test_shed_policy_bounds_the_queue(self, tiny_cosine_split, fitted_kde):
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        config = ClusterConfig(num_shards=1, queue_capacity=2, overload_policy="shed")
        with EstimationCluster(config) as cluster:
            cluster.add_model("kde", fitted_kde)
            pending = [cluster.submit_estimate("kde", queries, thresholds) for _ in range(2)]
            with pytest.raises(ClusterOverloadedError):
                cluster.submit_estimate("kde", queries, thresholds)
            stats = cluster.stats()
            assert stats["total_shed_requests"] == len(thresholds)
            assert stats["per_shard"][0]["queue_depth"] == 2
            for future in pending:  # shed full queue drains normally
                assert future.result().shape == thresholds.shape
            assert cluster.queue_depths() == [0]

    def test_shed_on_partial_scatter_leaks_no_queue_slots(
        self, tiny_cosine_split, fitted_kde
    ):
        """A shed spanning several shards must not strand in-flight slots."""
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        config = ClusterConfig(num_shards=2, queue_capacity=1, overload_policy="shed")
        with EstimationCluster(config) as cluster:
            cluster.add_model("kde", fitted_kde)
            # The full pool routes rows to both shards (checked below), so the
            # first submission occupies both queues...
            first = cluster.submit_estimate("kde", queries, thresholds)
            assert cluster.queue_depths() == [1, 1]
            # ...and the second is refused atomically: nothing submitted, no
            # slot consumed beyond the ones the first request legitimately holds.
            with pytest.raises(ClusterOverloadedError):
                cluster.submit_estimate("kde", queries, thresholds)
            assert cluster.queue_depths() == [1, 1]
            first.result()
            assert cluster.queue_depths() == [0, 0]
            # An idle cluster accepts work again — the regression was a
            # permanently stranded slot after a partial scatter was shed.
            assert cluster.estimate("kde", queries, thresholds).shape == thresholds.shape
            assert cluster.queue_depths() == [0, 0]

    def test_block_policy_drains_the_oldest_work(self, tiny_cosine_split, fitted_kde):
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        config = ClusterConfig(num_shards=1, queue_capacity=2, overload_policy="block")
        with EstimationCluster(config) as cluster:
            cluster.add_model("kde", fitted_kde)
            futures = [cluster.submit_estimate("kde", queries, thresholds) for _ in range(5)]
            stats = cluster.stats()
            assert stats["total_shed_requests"] == 0
            assert stats["per_shard"][0]["max_queue_depth"] == 2
            for future in futures:
                assert future.result().shape == thresholds.shape

    def test_update_fans_out_and_invalidates_every_shard(
        self, tiny_cosine_split, fast_selnet_config
    ):
        """Acceptance: one update reaches every shard's replica; a shard drops
        its cached curves and kernel only when the write fine-tuned."""
        from dataclasses import asdict

        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        for drift_threshold, fine_tunes in ((1e9, False), (-1.0, True)):
            params = asdict(fast_selnet_config)
            params.update(
                epochs=2, update_max_epochs=1, update_mae_drift_threshold=drift_threshold
            )
            incremental = create_estimator("selnet-inc", **params).fit(tiny_cosine_split)
            with EstimationCluster(ClusterConfig(num_shards=2)) as cluster:
                cluster.add_model("inc", incremental)
                cached = cluster.estimate("inc", queries, thresholds)
                sizes_before = [
                    entry["worker"]["cache"]["size"] for entry in cluster.stats()["per_shard"]
                ]
                assert all(size > 0 for size in sizes_before), "both shards should cache curves"
                replicas = [shard.backend.service.get("inc") for shard in cluster._shards]
                kernels = [replica.compiled() for replica in replicas]

                summaries = cluster.update("inc", inserts=np.zeros((2, 10)))
                assert [summary["shard"] for summary in summaries] == [0, 1]
                stats = cluster.stats()
                assert stats["total_updates"] == 2
                for entry, size, replica, kernel in zip(
                    stats["per_shard"], sizes_before, replicas, kernels
                ):
                    assert entry["updates"] == 1
                    assert [report.retrained for report in replica.reports] == [fine_tunes]
                    if fine_tunes:
                        assert entry["worker"]["cache"]["size"] == 0, "a fine-tune drops curves"
                        assert replica.compiled() is not kernel
                    else:
                        assert entry["worker"]["cache"]["size"] == size, "no fine-tune: kept"
                        assert replica.compiled() is kernel
                if fine_tunes:
                    # Every replica fine-tuned alike; answers come from the new weights.
                    np.testing.assert_array_equal(
                        cluster.estimate("inc", queries, thresholds, use_cache=False),
                        replicas[0].estimate(queries, thresholds),
                    )
                else:
                    np.testing.assert_array_equal(
                        cluster.estimate("inc", queries, thresholds), cached
                    )
            # The original in-memory estimator was never aliased into the
            # shards: fanning out the update must not have touched it.
            assert incremental.reports == []

    def test_update_unsupported_raises(self, fitted_kde):
        with EstimationCluster(ClusterConfig(num_shards=2)) as cluster:
            cluster.add_model("kde", fitted_kde)
            with pytest.raises(UpdateNotSupportedError):
                cluster.update("kde", inserts=np.zeros((1, 10)))

    def test_closed_cluster_rejects_work(self, fitted_kde):
        cluster = EstimationCluster(ClusterConfig(num_shards=1))
        cluster.add_model("kde", fitted_kde)
        cluster.close()
        with pytest.raises(RuntimeError, match="closed"):
            cluster.estimate("kde", np.zeros((1, 10)), np.zeros(1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(backend="thread")
        with pytest.raises(ValueError):
            ClusterConfig(backend="process")
        for removed in (
            {"replication_factor": 2},
            {"virtual_nodes": 8},
            {"cache_key_decimals": 2},
            {"warm_models": False},
            {"curve_resolution": 64},
            {"cache_quantize_bits": 8},
        ):
            with pytest.raises(TypeError):
                ClusterConfig(**removed)
        with pytest.raises(ValueError):
            ClusterConfig(overload_policy="drop")
        with pytest.raises(ValueError):
            ClusterConfig(queue_capacity=0)
        with pytest.raises(TypeError):
            EstimationCluster(ClusterConfig(), num_shards=3)


class TestProcessBackend:
    def test_process_shards_match_direct_estimates(self, kde_model_dir, tiny_cosine_split):
        queries = tiny_cosine_split.test.queries[:12]
        thresholds = tiny_cosine_split.test.thresholds[:12]
        direct = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
        with EstimationCluster(
            ClusterConfig(num_shards=2, model_dir=kde_model_dir, backend="network")
        ) as cluster:
            served = cluster.estimate("kde", queries, thresholds, use_cache=False)
            np.testing.assert_array_equal(served, direct.estimate(queries, thresholds))
            stats = cluster.stats()
            assert stats["backend"] == "network"
            assert stats["total_requests"] == 12
