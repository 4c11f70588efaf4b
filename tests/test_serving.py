"""Tests for the serving subsystem and the lifecycle CLI subcommands."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro import UpdateNotSupportedError, create_estimator
from repro.cli import main
from repro.cluster import ClusterConfig, EstimationCluster
from repro.inference import ControlPoints
from repro.serving import (
    CurveCache,
    EstimationService,
    iter_microbatches,
)


@pytest.fixture(scope="module")
def model_dir(tiny_cosine_split, tmp_path_factory):
    """Two fitted estimators saved under one model directory."""
    directory = tmp_path_factory.mktemp("served-models")
    kde = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
    kde.save(directory / "kde", metadata={"setting": "face-cos", "scale": "tiny", "seed": 0})
    gbdt = create_estimator("lightgbm-m", num_trees=6, seed=0).fit(tiny_cosine_split)
    gbdt.save(directory / "gbdt", metadata={"setting": "face-cos", "scale": "tiny", "seed": 0})
    return directory


@pytest.fixture(scope="module")
def selnet_ct(tiny_cosine_split, fast_selnet_config):
    """A tiny fitted SelNet-ct: the kind of model whose answers are cached."""
    params = dict(asdict(fast_selnet_config), epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1)
    return create_estimator("selnet-ct", **params).fit(tiny_cosine_split)


def _points(top: float) -> ControlPoints:
    """One single-head entry whose curve rises from 0 to ``top`` on [0, 1]."""
    return ControlPoints(np.array([0.0, 1.0]), np.array([0.0, top]))


class TestCurveCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = CurveCache(capacity=2)
        queries = [np.full(3, float(i)) for i in range(3)]
        assert cache.get("m", queries[0]) is None
        for query in queries[:2]:
            cache.put("m", query, _points(2.0))
        assert cache.get("m", queries[0]) is not None
        cache.put("m", queries[2], _points(1.0))  # evicts queries[1]
        assert cache.get("m", queries[1]) is None
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["size"] == 2
        assert 0.0 < stats["hit_rate"] < 1.0

    @pytest.mark.parametrize("capacity", [0, -1, -8])
    def test_nonpositive_capacity_disables_cache(self, capacity):
        cache = CurveCache(capacity=capacity)
        for i in range(3):
            cache.put("m", np.full(2, float(i)), _points(1.0))
        assert len(cache) == 0
        assert cache.get("m", np.zeros(2)) is None
        stats = cache.stats()
        assert stats["size"] == 0 and stats["evictions"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 1

    def test_lru_order_under_mixed_get_put_traffic(self):
        cache = CurveCache(capacity=3)
        queries = [np.full(2, float(i)) for i in range(4)]
        for query in queries[:3]:
            cache.put("m", query, _points(1.0))
        # Touch 0 (get) and re-put 1: recency is now [2, 0, 1] oldest-first.
        assert cache.get("m", queries[0]) is not None
        replacement = _points(3.0)
        cache.put("m", queries[1], replacement)
        cache.put("m", queries[3], _points(1.0))  # evicts 2, not 0 or 1
        assert cache.get("m", queries[2]) is None
        assert cache.get("m", queries[0]) is not None
        assert cache.get("m", queries[1]) is replacement  # the re-put entry won
        cache.put("m", np.full(2, 9.0), _points(1.0))  # now 3 is the oldest
        assert cache.get("m", queries[3]) is None
        assert cache.stats()["evictions"] == 2

    def test_configurable_key_decimals(self):
        """Keys round at a fixed 10 decimals; the rounding is not a knob."""
        with pytest.raises(TypeError):
            CurveCache(capacity=8, decimals=2)
        cache = CurveCache(capacity=8)
        cache.put("m", np.array([0.12345, 1.0]), _points(1.0))
        assert cache.get("m", np.array([0.12345 + 1e-12, 1.0])) is not None
        assert cache.get("m", np.array([0.12346, 1.0])) is None
        assert "decimals" not in cache.stats()

    def test_invalidate_per_model(self):
        cache = CurveCache(capacity=8)
        cache.put("a", np.zeros(2), _points(1.0))
        cache.put("b", np.zeros(2), _points(1.0))
        assert cache.invalidate("a") == 1
        assert cache.get("b", np.zeros(2)) is not None

    def test_max_bytes_budget_evicts_lru(self):
        # Measure what entries actually cost.
        probe = CurveCache(capacity=1000)
        probe.put("m", np.zeros(2), _points(2.0))
        first = probe.bytes
        probe.put("m", np.ones(2), _points(2.0))
        marginal = probe.bytes - first
        cache = CurveCache(capacity=1000, max_bytes=first + 2 * marginal)  # room for 3
        queries = [np.full(2, float(i)) for i in range(4)]
        for query in queries:
            cache.put("m", query, _points(2.0))
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 1
        assert cache.get("m", queries[0]) is None  # the LRU entry paid for it
        assert cache.get("m", queries[3]) is not None
        assert cache.bytes <= cache.max_bytes

    def test_holds_control_points_only(self):
        """No sampled curves, quantization or range misses: an entry is a
        query's control points, which answer every threshold."""
        with pytest.raises(TypeError):
            CurveCache(capacity=8, quantize_bits=8)
        cache = CurveCache(capacity=8)
        with pytest.raises(TypeError, match="ControlPoints"):
            cache.put("m", np.zeros(2), (np.array([0.0, 1.0]), np.array([0.0, 1.0])))
        assert len(cache) == 0 and cache.bytes == 0
        cache.put("m", np.zeros(2), _points(1.0))
        with pytest.raises(TypeError):
            cache.get("m", np.zeros(2), threshold=2.0)
        assert set(cache.stats()).isdisjoint({"grids", "quantize_bits"})


class TestMicroBatching:
    def test_iter_microbatches_covers_everything(self):
        queries = np.arange(20, dtype=np.float64).reshape(10, 2)
        thresholds = np.linspace(0.0, 1.0, 10)
        batches = list(iter_microbatches(queries, thresholds, max_batch_size=4))
        assert [len(batch) for batch in batches] == [4, 4, 2]
        reassembled = np.concatenate([batch.positions for batch in batches])
        np.testing.assert_array_equal(reassembled, np.arange(10))

    def test_iter_microbatches_validates_shapes(self):
        with pytest.raises(ValueError):
            list(iter_microbatches(np.zeros(3), np.zeros(3), 2))
        with pytest.raises(ValueError):
            list(iter_microbatches(np.zeros((3, 2)), np.zeros(4), 2))
        with pytest.raises(ValueError):
            list(iter_microbatches(np.zeros((3, 2)), np.zeros(3), 0))

    @pytest.mark.parametrize("queries", [np.empty((0, 5)), np.empty(0), []])
    def test_iter_microbatches_accepts_empty_batches(self, queries):
        assert list(iter_microbatches(queries, np.empty(0), 4)) == []


class TestEstimationService:
    def test_lists_and_lazily_loads_models(self, model_dir):
        service = EstimationService(model_dir)
        assert service.available_models() == ["gbdt", "kde"]
        described = service.describe_models()
        assert described["kde"]["registry_name"] == "kde"
        assert service.stats()["models_loaded"] == []
        service.get("kde")
        assert service.stats()["models_loaded"] == ["kde"]

    def test_unknown_model_rejected(self, model_dir):
        with pytest.raises(KeyError, match="unknown model"):
            EstimationService(model_dir).get("nope")
        with pytest.raises(KeyError, match="no model_dir"):
            EstimationService().get("anything")

    def test_uncached_estimates_match_direct_calls(self, model_dir, tiny_cosine_split):
        service = EstimationService(model_dir, max_batch_size=7)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        served = service.estimate("kde", queries, thresholds, use_cache=False)
        direct = service.get("kde").estimate(queries, thresholds)
        np.testing.assert_array_equal(served, direct)
        stats = service.stats()["per_model"]["kde"]
        assert stats["requests"] == len(thresholds)
        assert stats["batches"] == -(-len(thresholds) // 7)

    def test_curve_cache_hits_on_repeated_queries(self, selnet_ct, tiny_cosine_split):
        service = EstimationService(cache_capacity=64)
        service.add_model("selnet-ct", selnet_ct)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        first = service.estimate("selnet-ct", queries, thresholds)
        second = service.estimate("selnet-ct", queries, thresholds)
        np.testing.assert_array_equal(first, second)
        stats = service.stats()["per_model"]["selnet-ct"]
        assert stats["cache_hits"] >= len(thresholds)
        assert stats["curve_builds"] == len(np.unique(queries, axis=0))
        assert service.cache.hit_rate > 0.0

    @pytest.mark.parametrize("name", ["kde", "gbdt"])
    def test_non_selnet_models_serve_uncached_and_exact(
        self, name, model_dir, tiny_cosine_split
    ):
        """KDE and LightGBM-m have no control points: with the cache on, a
        service and an inline cluster answer ``estimate``'s own bits, in
        ``max_batch_size`` kernel calls, and the cache stays untouched."""
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        service = EstimationService(model_dir, max_batch_size=16)
        direct = service.get(name).estimate(queries, thresholds)
        for _ in range(2):  # a repeat would hit a cache, if there were one
            np.testing.assert_array_equal(service.estimate(name, queries, thresholds), direct)
        assert len(service.cache) == 0 and service.cache.bytes == 0
        assert service.cache.hits == 0 and service.cache.misses == 0
        stats = service.stats()["per_model"][name]
        assert stats["cache_hits"] == stats["cache_misses"] == stats["curve_builds"] == 0
        assert stats["batches"] == 2 * -(-len(thresholds) // 16)

        with EstimationCluster(ClusterConfig(num_shards=2, model_dir=model_dir)) as cluster:
            for _ in range(2):
                np.testing.assert_array_equal(
                    cluster.estimate(name, queries, thresholds), direct
                )
            per_shard = cluster.stats()["per_shard"]
        assert sum(entry["requests"] for entry in per_shard) == 2 * len(thresholds)
        for entry in per_shard:
            assert entry["cache"]["size"] == 0
            assert entry["cache"]["hits"] == entry["cache"]["misses"] == 0

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_empty_request_batch_returns_empty(self, model_dir, use_cache):
        service = EstimationService(model_dir)
        for queries in (np.empty((0, 10)), np.empty(0), []):
            result = service.estimate("kde", queries, np.empty(0), use_cache=use_cache)
            assert result.shape == (0,) and result.dtype == np.float64
        # stats stay untouched by idle ticks
        assert service.stats()["per_model"]["kde"]["requests"] == 0

    def test_service_cache_key_decimals_config(self, selnet_ct, tiny_cosine_split):
        with pytest.raises(TypeError):
            EstimationService(cache_key_decimals=2)
        service = EstimationService()
        service.add_model("selnet-ct", selnet_ct)
        query = np.round(tiny_cosine_split.test.queries[:1], 10)
        threshold = tiny_cosine_split.test.thresholds[:1]
        service.estimate("selnet-ct", query, threshold)
        # A perturbation below the fixed 1e-10 key quantum reuses the cached
        # entry; one above it builds a new entry.
        service.estimate("selnet-ct", query + 1e-12, threshold)
        stats = service.stats()["per_model"]["selnet-ct"]
        assert stats["curve_builds"] == 1 and stats["cache_hits"] == 1
        service.estimate("selnet-ct", query + 1e-6, threshold)
        assert service.stats()["per_model"]["selnet-ct"]["curve_builds"] == 2

    def test_non_finite_inputs_are_rejected_before_the_cache(
        self, selnet_ct, tiny_cosine_split
    ):
        """A NaN query or an inf threshold must not plant an entry in the cache."""
        service = EstimationService()
        service.add_model("selnet-ct", selnet_ct)
        queries = tiny_cosine_split.test.queries[:2]
        threshold = tiny_cosine_split.test.thresholds[:1]
        uncached = service.estimate("selnet-ct", queries[:1], threshold, use_cache=False)
        with pytest.raises(ValueError, match="finite"):
            service.estimate("selnet-ct", queries, np.array([threshold[0], np.inf]))
        bad = queries[:1].copy()
        bad[0, 0] = np.nan
        for use_cache in (True, False):
            with pytest.raises(ValueError, match="finite"):
                service.estimate("selnet-ct", bad, threshold, use_cache=use_cache)
        assert len(service.cache) == 0
        served = service.estimate("selnet-ct", queries[:1], threshold)
        # Exactly what a service that never saw the bad calls answers, and
        # the uncached value within the float64 budget.
        fresh = EstimationService()
        fresh.add_model("selnet-ct", selnet_ct)
        np.testing.assert_array_equal(served, fresh.estimate("selnet-ct", queries[:1], threshold))
        np.testing.assert_allclose(served, uncached, rtol=0, atol=1e-12)

    def test_wrong_dimensionality_is_a_clear_error(
        self, model_dir, tiny_cosine_split, fast_selnet_config
    ):
        from dataclasses import asdict

        params = dict(asdict(fast_selnet_config), epochs=1)
        service = EstimationService(model_dir)
        selnet = create_estimator("selnet-ct", **params).fit(tiny_cosine_split)
        service.add_model("selnet-ct", selnet)
        for name in ("kde", "selnet-ct"):
            for use_cache in (True, False):
                with pytest.raises(ValueError, match="queries have 3 dimensions"):
                    service.estimate(name, np.zeros((2, 3)), np.array([0.1, 0.2]), use_cache)
        assert len(service.cache) == 0

    def test_precision_and_cache_budget_knobs(self, model_dir, selnet_ct, tiny_cosine_split):
        for removed in ("curve_resolution", "cache_quantize_bits"):
            with pytest.raises(TypeError):
                EstimationService(model_dir, **{removed: 8})
        service = EstimationService(
            model_dir, kernel_dtype="float32", cache_max_bytes=64 * 1024
        )
        service.add_model("selnet-ct", selnet_ct)
        assert service.kernel_dtype == "float32"
        assert service.cache.max_bytes == 64 * 1024
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        for name in ("kde", "selnet-ct"):
            served = service.estimate(name, queries, thresholds)
            direct = service.get(name).estimate(queries, thresholds)
            scale = np.maximum(np.abs(direct), 1.0)
            assert np.max(np.abs(served - direct) / scale) <= 1e-3
        stats = service.stats()
        assert stats["kernel_dtype"] == "float32"
        assert 0 < stats["cache"]["bytes"] <= 64 * 1024
        # the compiled-kernel tier rides the metrics registry for /metrics
        text = service.metrics.snapshot().to_prometheus()
        assert "repro_cache_bytes" in text
        assert 'repro_kernel_dtype{model="kde",dtype="float32"}' in text

    def test_in_memory_models_and_curves(self, tiny_cosine_split):
        service = EstimationService()
        estimator = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
        service.add_model("mem", estimator)
        assert "mem" in service.available_models()
        query = tiny_cosine_split.test.queries[0]
        # One query's curve, served as rows of the same query.
        grid = np.linspace(0.0, float(tiny_cosine_split.t_max), 16)
        served = service.estimate("mem", np.repeat(query[None, :], len(grid), axis=0), grid)
        np.testing.assert_array_equal(served, estimator.selectivity_curve(query, grid))
        assert service.stats()["per_model"]["mem"]["requests"] == len(grid)

    def test_wide_threshold_keeps_other_queries_curves_fine(
        self, tiny_cosine_split, fast_selnet_config
    ):
        """One row's wide threshold must not coarsen the curve cached for
        another query of the same call."""
        from dataclasses import asdict

        params = asdict(fast_selnet_config)
        params.update(epochs=2)
        estimator = create_estimator("selnet-ct", **params).fit(tiny_cosine_split)
        first, second = tiny_cosine_split.test.queries[[0, -1]]
        low = np.asarray([0.3])
        service = EstimationService()
        service.add_model("m", estimator)
        service.estimate("m", np.stack([first, second]), np.asarray([0.3, 100.0]))
        assert service.stats()["per_model"]["m"]["curve_builds"] == 2
        cached = service.estimate("m", first[None, :], low)
        assert service.stats()["per_model"]["m"]["cache_hits"] == 1

        fresh = EstimationService()
        fresh.add_model("m", estimator)
        np.testing.assert_array_equal(cached, fresh.estimate("m", first[None, :], low))

    def test_update_routing(self, model_dir, tiny_cosine_split, fast_selnet_config):
        """A write keeps the curves and the kernel unless it fine-tunes."""
        from dataclasses import asdict

        service = EstimationService(model_dir)
        with pytest.raises(UpdateNotSupportedError):
            service.update("kde", inserts=np.zeros((1, 10)))

        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        for drift_threshold, fine_tunes in ((1e9, False), (-1.0, True)):
            params = asdict(fast_selnet_config)
            params.update(
                epochs=2, update_max_epochs=1, update_mae_drift_threshold=drift_threshold
            )
            incremental = create_estimator("selnet-inc", **params).fit(tiny_cosine_split)
            service.add_model("inc", incremental)
            cached = service.estimate("inc", queries, thresholds)
            size = len(service.cache)
            assert size > 0
            kernel = incremental.compiled()
            generation = incremental.generation

            reports = service.update("inc", inserts=np.zeros((2, 10)))
            assert [report.retrained for report in reports] == [fine_tunes]
            if fine_tunes:
                assert incremental.generation > generation
                assert len(service.cache) == 0, "a fine-tune must drop the cached curves"
                assert incremental.compiled() is not kernel
                # The next answer is built from the new weights.
                fresh = EstimationService()
                fresh.add_model("inc", incremental)
                np.testing.assert_array_equal(
                    service.estimate("inc", queries, thresholds),
                    fresh.estimate("inc", queries, thresholds),
                )
                np.testing.assert_array_equal(
                    service.estimate("inc", queries, thresholds, use_cache=False),
                    incremental.estimate(queries, thresholds),
                )
            else:
                assert incremental.generation == generation
                assert len(service.cache) == size, "a write without a fine-tune keeps curves"
                assert incremental.compiled() is kernel
                np.testing.assert_array_equal(
                    service.estimate("inc", queries, thresholds), cached
                )
        assert service.stats()["per_model"]["inc"]["updates"] == 2


class TestLifecycleCLI:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "selnet-inc" in out and "updates" in out and "kde" in out

    def test_models_command_json(self, capsys):
        import json

        assert main(["models", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload["registry"]}
        assert "selnet" in names and "lsh" in names

    def test_train_estimate_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "kde-tiny"
        assert (
            main(
                [
                    "train",
                    "kde",
                    "--setting",
                    "face-cos",
                    "--scale",
                    "tiny",
                    "--out",
                    str(out),
                    "--param",
                    "num_samples=64",
                ]
            )
            == 0
        )
        train_output = capsys.readouterr().out
        assert "training KDE" in train_output and "saved to" in train_output
        assert (out / "estimator.json").is_file()

        assert main(["estimate", str(out)]) == 0
        estimate_output = capsys.readouterr().out
        assert "KDE on face-cos" in estimate_output and "test:" in estimate_output

        assert main(["models", "--dir", str(tmp_path)]) == 0
        assert "kde-tiny" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "models/", "--cache-quantize-bits", "8"],
            ["saturate", "models/kde", "--no-cache-density"],
            ["saturate", "models/kde", "--cache-density-bytes", "1024"],
        ],
    )
    def test_removed_cache_options_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2

    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "Tables:" in result.stdout
