"""Cached SelNet answers across calls: exact, bounded and monotone in t.

The SelNet family's curve cache holds each query's control points (and, for
a partitioned model, one activation gate per partition), so a cached answer
is the kernel's own answer.  The property suite drives tiny models through
interleaved calls over cache sizes, byte budgets and precision tiers, with
thresholds on both sides of every ball's gate, and checks three invariants
across the whole call sequence:

* a query's answers never decrease as t grows: exactly while one cache
  entry serves them, within the tier budget across an eviction;
* every answer lies in ``[0, |D|]``;
* a cached answer equals the ``use_cache=False`` answer within the tier
  budget (float64: 1e-12 absolute, float32: 1e-3 relative).
"""

from __future__ import annotations

import copy
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import create_estimator
from repro.cluster import ClusterConfig, EstimationCluster
from repro.index.partitioner import least_hit_thresholds
from repro.inference.kernels import ControlPoints
from repro.inference.precision import DEFAULT_ERROR_BUDGETS
from repro.serving import CurveCache, EstimationService
from repro.serving.cache import _ENTRY_OVERHEAD_BYTES, compact_cache_key

MODELS = ("selnet-ct", "selnet", "selnet-inc")
#: distinct queries the property suite draws its rows from
POOL = 6


@pytest.fixture(scope="module")
def models(tiny_cosine_split, fast_selnet_config):
    params = asdict(fast_selnet_config)
    params.update(epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1)
    return {
        "selnet-ct": create_estimator("selnet-ct", **params).fit(tiny_cosine_split),
        "selnet-ad-ct": create_estimator("selnet-ad-ct", **params).fit(tiny_cosine_split),
        "selnet": create_estimator("selnet", **dict(params, num_partitions=3)).fit(
            tiny_cosine_split
        ),
        # Writes never fine-tune, so the cache outlives them.
        "selnet-inc": create_estimator(
            "selnet-inc", update_mae_drift_threshold=1e9, **params
        ).fit(tiny_cosine_split),
    }


@pytest.fixture(scope="module")
def pool(tiny_cosine_split, models):
    """Pool queries and, per query, each ball's ``d - r`` of the partitioned
    model and the least threshold that hits the ball (where the rounded
    ``d <= r + t`` flips)."""
    workload = tiny_cosine_split
    queries = np.concatenate([workload.test.queries, workload.validation.queries])
    _, first = np.unique(queries, axis=0, return_index=True)
    queries = queries[np.sort(first)[:POOL]]
    partitioning = models["selnet"].model.partitioning
    radii = np.asarray(
        [region.radius for partition in partitioning.partitions for region in partition.regions]
    )
    distances = partitioning.centre_distances(queries)
    gates = np.concatenate([distances - radii, least_hit_thresholds(distances, radii)], axis=1)
    return queries, gates


def _budget(dtype: str, reference: np.ndarray) -> np.ndarray:
    """Allowed deviation from ``reference`` at a precision tier."""
    budget = DEFAULT_ERROR_BUDGETS[dtype]
    if dtype == "float64":
        return np.full(np.shape(reference), budget)
    return budget * np.maximum(np.abs(reference), 1.0)


def _entry(service: EstimationService, query: np.ndarray):
    return service.cache._entries.get(compact_cache_key("m", query))


ROW = st.tuples(st.integers(0, POOL - 1), st.booleans(), st.floats(0.0, 1.0))
STEP = st.tuples(st.lists(ROW, min_size=1, max_size=8), st.booleans())


class TestCachedAnswersAcrossCalls:
    @pytest.mark.parametrize("name", MODELS)
    @settings(max_examples=20, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 256]),
        max_bytes=st.sampled_from([None, 2048]),
        dtype=st.sampled_from(["float64", "float32"]),
        steps=st.lists(STEP, min_size=1, max_size=6),
    )
    def test_invariants(
        self, name, models, pool, tiny_cosine_split, capacity, max_bytes, dtype, steps
    ):
        queries, gates = pool
        t_max = float(tiny_cosine_split.t_max)
        estimator = copy.deepcopy(models[name]) if name == "selnet-inc" else models[name]
        database_size = len(tiny_cosine_split.dataset.vectors)
        service = EstimationService(
            cache_capacity=capacity,
            cache_max_bytes=max_bytes,
            kernel_dtype=dtype,
        )
        service.add_model("m", estimator)
        answers = {index: [] for index in range(POOL)}
        for rows, write in steps:
            picked = np.asarray([index for index, _, _ in rows])
            thresholds = np.asarray([
                # A ball's exact gate d - r, or any threshold in [0, 2 t_max].
                float(np.clip(gates[index][int(u * (gates.shape[1] - 1))], 0.0, 2 * t_max))
                if on_gate
                else u * 2 * t_max
                for index, on_gate, u in rows
            ])
            before = {index: _entry(service, queries[index]) for index in set(picked.tolist())}
            served = service.estimate("m", queries[picked], thresholds)
            uncached = service.estimate("m", queries[picked], thresholds, use_cache=False)

            assert np.all(served >= 0.0) and np.all(served <= database_size)
            assert np.all(np.abs(served - uncached) <= _budget(dtype, uncached))
            for index in set(picked.tolist()):
                # The entry that answered this call's rows of the query.
                entry = before[index] or _entry(service, queries[index]) or object()
                for row in np.flatnonzero(picked == index):
                    answers[index].append((thresholds[row], served[row], entry))
            if write and name == "selnet-inc":
                service.update("m", inserts=queries[:2] + 1e-3)
                database_size += 2

        for observed in answers.values():
            observed.sort(key=lambda answer: answer[0])
            for (_, low, low_entry), (_, high, high_entry) in zip(observed, observed[1:]):
                slack = 0.0 if low_entry is high_entry else _budget(dtype, np.maximum(low, high))
                assert high >= low - slack


class TestConsistencyProbe:
    @pytest.mark.parametrize("name", ["selnet-ct", "selnet"])
    def test_answer_survives_a_wider_threshold(self, name, models, pool, tiny_cosine_split):
        """Ask t1, then 1.6 t_max, then 1.001 t1, one call each: the third
        answer is not lower than the first, and both are the kernel's."""
        queries, _ = pool
        estimator = models[name]
        t_max = float(tiny_cosine_split.t_max)
        for t1 in (0.1 * t_max, 0.45 * t_max):
            for query in queries:
                service = EstimationService()
                service.add_model("m", estimator)
                first = service.estimate_one("m", query, t1)
                service.estimate_one("m", query, 1.6 * t_max)
                third = service.estimate_one("m", query, 1.001 * t1)
                assert third >= first
                for threshold, answer in ((t1, first), (1.001 * t1, third)):
                    direct = service.estimate_one("m", query, threshold, use_cache=False)
                    assert abs(answer - direct) <= 1e-12

    @pytest.mark.parametrize("name", ["selnet", "selnet-ct", "selnet-ad-ct", "selnet-inc"])
    def test_estimator_paths_answer_like_one_service(self, name, models, pool, tiny_cosine_split):
        """One answer per (query, t), whichever path asks: the probe's
        thresholds through ``estimate_one`` and a threshold grid through
        ``selectivity_curve`` give a lone service's cached float64 bits."""
        queries, _ = pool
        estimator = models[name]
        t_max = float(tiny_cosine_split.t_max)
        grid = np.linspace(0.0, 1.2 * t_max, 5)
        service = EstimationService()
        service.add_model("m", estimator)
        for query in queries:
            for t1 in (0.1 * t_max, 0.45 * t_max):
                for threshold in (t1, 1.6 * t_max, 1.001 * t1):
                    expected = service.estimate_one("m", query, threshold)
                    assert estimator.estimate_one(query, threshold) == expected
            rows = np.repeat(query[None, :], len(grid), axis=0)
            np.testing.assert_array_equal(
                estimator.selectivity_curve(query, grid), service.estimate("m", rows, grid)
            )
        assert service.cache.hits > 0

    @pytest.mark.parametrize("name", ["selnet-ct", "selnet"])
    def test_inline_and_network_shards_answer_like_one_service(
        self, name, models, pool, tiny_cosine_split
    ):
        """The probe's calls through a two-shard inline cluster and a
        one-shard network cluster give a lone service's float64 bits."""
        queries, _ = pool
        t_max = float(tiny_cosine_split.t_max)
        service = EstimationService()
        inline = EstimationCluster(ClusterConfig(num_shards=2))
        network = EstimationCluster(ClusterConfig(num_shards=1, backend="network"))
        with inline, network:
            for target in (service, inline, network):
                target.add_model("m", models[name])
            for t1 in (0.1 * t_max, 0.45 * t_max):
                for query in queries:
                    for threshold in (t1, 1.6 * t_max, 1.001 * t1):
                        expected = service.estimate_one("m", query, threshold)
                        assert inline.estimate_one("m", query, threshold) == expected
                        assert network.estimate_one("m", query, threshold) == expected


class TestControlPointEntries:
    def test_charged_to_max_bytes_and_evicted_under_it(self):
        def points(value: float) -> ControlPoints:
            return ControlPoints(np.linspace(0.0, 1.0, 8), np.full(8, value), np.ones(3))

        key = compact_cache_key("m", np.zeros(2))
        per_entry = points(0.0).payload_nbytes + len(key) + _ENTRY_OVERHEAD_BYTES
        assert per_entry == 8 * 8 * 2 + 3 * 8 + len(key) + _ENTRY_OVERHEAD_BYTES
        cache = CurveCache(capacity=100, max_bytes=3 * per_entry)
        stored = [points(float(i)) for i in range(5)]
        for i, entry in enumerate(stored):
            cache.put("m", np.full(2, float(i)), entry)
            assert cache.bytes <= 3 * per_entry
        assert len(cache) == 3 and cache.evictions == 2
        assert cache.bytes == 3 * per_entry
        assert cache.get("m", np.full(2, 1.0)) is None
        assert cache.get("m", np.full(2, 4.0)) is stored[4]  # stored as handed in
        cache.invalidate("m")
        assert cache.bytes == 0

    def test_service_budget_holds_partitioned_entries(self, models, pool):
        queries, _ = pool
        estimator = models["selnet"]
        kernel = estimator.compiled()
        entry = kernel.query_points(queries[:1])
        per_entry = (
            entry.payload_nbytes + len(compact_cache_key("m", queries[0])) + _ENTRY_OVERHEAD_BYTES
        )
        service = EstimationService(cache_max_bytes=2 * per_entry)
        service.add_model("m", estimator)
        thresholds = np.linspace(0.0, kernel.t_max, len(queries))
        served = service.estimate("m", queries, thresholds)
        assert len(service.cache) == 2 and service.cache.bytes == 2 * per_entry
        assert service.cache.evictions == len(queries) - 2
        np.testing.assert_allclose(
            served, service.estimate("m", queries, thresholds, use_cache=False), rtol=0, atol=1e-12
        )


class TestDistinctQueryLookups:
    def test_one_lookup_per_distinct_query_and_rows_counted(self, models, pool, monkeypatch):
        queries, _ = pool
        service = EstimationService()
        service.add_model("m", models["selnet"])
        lookups = []
        get = service.cache.get
        monkeypatch.setattr(
            service.cache, "get", lambda *args, **kwargs: (lookups.append(1), get(*args, **kwargs))[1]
        )
        # Repeats that are not adjacent, and one below the key quantum.
        rows = np.round(queries[[0, 1, 0, 2, 1, 0]], 10)
        rows[5] += 1e-12
        thresholds = np.linspace(0.0, 0.05, len(rows))
        service.estimate("m", rows, thresholds)
        assert len(lookups) == 3
        # Both hit rates count rows: the cache's and the per-model one.
        assert service.cache.misses == len(rows) and service.cache.hits == 0
        stats = service.stats()["per_model"]["m"]
        assert stats["cache_misses"] == len(rows) and stats["curve_builds"] == 3
        assert stats["batches"] == 1
        service.estimate("m", rows, thresholds)
        assert len(lookups) == 6 and service.cache.hits == len(rows)
        assert service.stats()["per_model"]["m"]["cache_hits"] == len(rows)
        assert service.stats()["cache"]["hit_rate"] == 0.5

    def test_every_kernel_call_is_bounded_by_max_batch_size(self, models, pool, monkeypatch):
        queries, _ = pool
        service = EstimationService(max_batch_size=4)
        service.add_model("m", models["selnet-ct"])
        kernel = models["selnet-ct"].compiled()
        forwards, evaluations = [], []
        query_points, evaluate = kernel.query_points, kernel.evaluate

        def counting_query_points(batch):
            forwards.append(len(batch))
            return query_points(batch)

        def counting_evaluate(points, thresholds):
            evaluations.append(len(thresholds))
            return evaluate(points, thresholds)

        monkeypatch.setattr(kernel, "query_points", counting_query_points)
        monkeypatch.setattr(kernel, "evaluate", counting_evaluate)
        rows = np.tile(queries, (3, 1))
        thresholds = np.full(len(rows), 0.01)
        served = service.estimate("m", rows, thresholds)
        assert service.stats()["per_model"]["m"]["batches"] == -(-len(queries) // 4)
        assert forwards == [4, len(queries) - 4]
        assert max(evaluations) == 4 and sum(evaluations) == len(rows)
        np.testing.assert_allclose(served, kernel.predict(rows, thresholds), rtol=0, atol=1e-12)
