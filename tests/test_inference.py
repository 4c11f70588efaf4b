"""Compiled inference path: kernel parity, no_grad, serving integration.

The contract under test: ``estimator.compiled().predict`` answers within
1e-12 of graph mode for every registered estimator (for the fused SelNet
kernels the answers are bit-equal), stays correct across persistence
round-trips and incremental updates, and the serving layer uses the
compiled kernels by default without changing its answers.  Graph mode is
``model.predict`` for the SelNet family, whose ``estimate`` is the float64
kernel itself, and ``estimate`` for every other estimator.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from test_persistence import FAST_PARAMS

from repro import SelectivityEstimator, create_estimator, load_estimator
from repro.autodiff import (
    Tensor,
    enable_grad,
    is_grad_enabled,
    no_grad,
    piecewise_linear,
    segment_upper_indices,
)
from repro.distances import get_distance
from repro.index import build_partitioning, distinct_rows, take_rows
from repro.index.partitioner import least_hit_thresholds
from repro.inference import (
    CompiledPartitionedSelNet,
    ControlPoints,
    CompiledSelNet,
    GraphFallbackKernel,
    compile_estimator,
    run_inference_benchmark,
    write_benchmark_json,
)
from repro.inference.compiler import inner_selnet_model
from repro.inference.precision import TIER_NAMES, parse_tier, relative_deviation
from repro.core.incremental import IncrementalSelNet
from repro.nn import Adam, Dropout
from repro.serving import EstimationService

PARITY = 1e-12
SELNET_FAMILY = ("selnet", "selnet-ct", "selnet-ad-ct", "selnet-inc")


def _fit(name, tiny_cosine_split, **overrides):
    params = dict(FAST_PARAMS[name], seed=0)
    params.update(overrides)
    return create_estimator(name, **params).fit(tiny_cosine_split)


def _graph(estimator, queries, thresholds):
    """The graph-mode answers a float64 kernel must reproduce.

    A SelNet's ``estimate`` is its float64 kernel, so comparing the kernel
    with it would compare the kernel with itself: its reference is the
    graph-mode ``model.predict``.  Every other estimator's fallback kernel
    wraps ``estimate``, which stays its reference.
    """
    model = inner_selnet_model(estimator)
    predict = estimator.estimate if model is None else model.predict
    return np.asarray(predict(queries, thresholds))


def _kernel_slot(estimator, dtype=np.float64):
    """The kernel ``estimator`` holds for a tier, without compiling one."""
    return (estimator._compiled_kernels or {}).get(np.dtype(dtype))


# ---------------------------------------------------------------------- #
# Kernel parity for every registered estimator
# ---------------------------------------------------------------------- #
class TestCompiledParity:
    @pytest.mark.parametrize("name", sorted(FAST_PARAMS))
    def test_compiled_matches_graph(self, name, tiny_cosine_split):
        estimator = _fit(name, tiny_cosine_split)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        reference = _graph(estimator, queries, thresholds)
        kernel = estimator.compiled()
        compiled = kernel.predict(queries, thresholds)
        assert np.max(np.abs(compiled - reference)) <= PARITY

    def test_selnet_kernels_are_fused_and_bit_exact(self, tiny_cosine_split):
        for name, expected in [
            ("selnet-ct", CompiledSelNet),
            ("selnet-ad-ct", CompiledSelNet),
            ("selnet", CompiledPartitionedSelNet),
        ]:
            estimator = _fit(name, tiny_cosine_split)
            kernel = estimator.compiled()
            assert isinstance(kernel, expected)
            queries = tiny_cosine_split.test.queries
            thresholds = tiny_cosine_split.test.thresholds
            np.testing.assert_array_equal(
                kernel.predict(queries, thresholds), _graph(estimator, queries, thresholds)
            )

    def test_parity_across_batch_sizes(self, tiny_cosine_split):
        """Every SelNet variant's float64 kernel, and its ``estimate``,
        which answers through that kernel, give graph mode's bits."""
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        for name in SELNET_FAMILY:
            estimator = _fit(name, tiny_cosine_split)
            kernel = estimator.compiled()
            for size in (1, 2, 7, 32, len(thresholds)):
                q, t = queries[:size], thresholds[:size]
                graph = _graph(estimator, q, t)
                np.testing.assert_array_equal(kernel.predict(q, t), graph)
                np.testing.assert_array_equal(estimator.estimate(q, t), graph)
            inner = estimator.state.estimator if name == "selnet-inc" else estimator
            fused = CompiledPartitionedSelNet if name == "selnet" else CompiledSelNet
            assert isinstance(_kernel_slot(inner), fused)

    def test_unfitted_estimator_compiles_to_fallback(self):
        estimator = create_estimator("selnet-ct")
        kernel = estimator.compiled()
        assert isinstance(kernel, GraphFallbackKernel)
        with pytest.raises(RuntimeError, match="fitted"):
            kernel.predict(np.zeros((1, 4)), np.zeros(1))

    def test_baselines_fall_back(self, tiny_cosine_split):
        estimator = _fit("kde", tiny_cosine_split)
        kernel = estimator.compiled()
        assert isinstance(kernel, GraphFallbackKernel)
        assert kernel.describe()["wraps"] == "KDEEstimator"

    def test_compiled_is_cached_until_invalidated(self, tiny_cosine_split):
        estimator = _fit("selnet-ct", tiny_cosine_split)
        kernel = estimator.compiled()
        assert estimator.compiled() is kernel
        assert estimator.compiled(refresh=True) is not kernel
        estimator._invalidate_compiled()
        assert estimator.compiled() is not kernel

    def test_float32_kernel_close_but_smaller(self, tiny_cosine_split):
        estimator = _fit("selnet-ct", tiny_cosine_split)
        kernel32 = estimator.compiled(dtype=np.float32)
        assert kernel32.dtype == np.dtype(np.float32)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        reference = _graph(estimator, queries, thresholds)
        out = kernel32.predict(queries, thresholds)
        scale = np.maximum(np.abs(reference), 1.0)
        assert np.max(np.abs(out - reference) / scale) < 1e-3

    def test_float64_and_float32_are_the_only_tiers(self):
        assert [parse_tier(name).dtype for name in TIER_NAMES] == [
            np.dtype(np.float64),
            np.dtype(np.float32),
        ]
        for narrower in (np.half, np.byte):
            token = np.dtype(narrower).name
            with pytest.raises(ValueError, match=f"unknown precision tier '{token}'"):
                parse_tier(token)

    def test_curve_values_match_selectivity_curve(self, tiny_cosine_split):
        grid = np.linspace(0.0, float(tiny_cosine_split.t_max), 17)
        for name in ("selnet-ct", "selnet", "kde"):
            estimator = _fit(name, tiny_cosine_split)
            kernel = estimator.compiled()
            queries = tiny_cosine_split.test.queries[:3]
            values = kernel.curve_values(queries, grid)
            assert values.shape == (3, len(grid))
            for row, query in enumerate(queries):
                rows = np.repeat(query[None, :], len(grid), axis=0)
                for expected in (
                    np.asarray(estimator.selectivity_curve(query, grid)),
                    _graph(estimator, rows, grid),
                ):
                    scale = np.maximum(np.abs(expected), 1.0)
                    assert np.max(np.abs(values[row] - expected) / scale) < 1e-9


# ---------------------------------------------------------------------- #
# The SelNet family's estimate is the float64 kernel
# ---------------------------------------------------------------------- #
class TestEstimateIsTheKernel:
    @pytest.mark.parametrize("name", ["selnet", "selnet-ct", "selnet-inc"])
    def test_unfusable_network_answers_through_graph_mode(self, name, tiny_cosine_split):
        """A network the extractor refuses compiles to the fallback, which
        must run the graph-mode model: the SelNet ``estimate`` it would
        otherwise call is the kernel itself."""
        estimator = _fit(name, tiny_cosine_split)
        model = inner_selnet_model(estimator)
        local = model.local_models[0] if name == "selnet" else model
        local.head.tau_generator.network.append(Dropout(0.1))
        model.eval()
        estimator._invalidate_compiled()
        if name == "selnet-inc":
            estimator.state.estimator._invalidate_compiled()
        kernel = estimator.compiled()
        assert isinstance(kernel, GraphFallbackKernel)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        expected = model.predict(queries, thresholds)
        np.testing.assert_array_equal(estimator.estimate(queries, thresholds), expected)
        np.testing.assert_array_equal(kernel.predict(queries, thresholds), expected)
        grid = np.linspace(0.0, float(tiny_cosine_split.t_max), 5)
        np.testing.assert_array_equal(
            kernel.curve_values(queries[:2], grid),
            model.predict(np.repeat(queries[:2], len(grid), axis=0), np.tile(grid, 2)).reshape(
                2, len(grid)
            ),
        )

    def test_each_tier_compiles_once(self, tiny_cosine_split, monkeypatch):
        """A float64 ``estimate`` caller and a float32 service over one
        estimator keep a kernel each instead of evicting each other's."""
        import repro.inference

        estimator = _fit("selnet-ct", tiny_cosine_split)
        compiled_tiers = []
        compile_estimator_ = repro.inference.compile_estimator

        def counting(target, dtype=np.float64):
            compiled_tiers.append(np.dtype(dtype).name)
            return compile_estimator_(target, dtype=dtype)

        monkeypatch.setattr(repro.inference, "compile_estimator", counting)
        service = EstimationService(kernel_dtype="float32")
        service.add_model("m", estimator)
        queries = tiny_cosine_split.test.queries[:8]
        thresholds = tiny_cosine_split.test.thresholds[:8]
        for _ in range(3):
            estimator.estimate(queries, thresholds)
            service.estimate("m", queries, thresholds)
            service.estimate("m", queries, thresholds, use_cache=False)
        assert compiled_tiers == ["float64", "float32"]
        assert service.stats()["kernels"]["m"]["precision"] == "float32"
        estimator._invalidate_compiled()
        assert estimator._compiled_kernels is None
        assert "m" not in service.stats()["kernels"]


# ---------------------------------------------------------------------- #
# Lifecycle: persistence round-trips and incremental updates
# ---------------------------------------------------------------------- #
class TestCompiledLifecycle:
    def test_persistence_roundtrip_recompiles(self, tiny_cosine_split, tmp_path):
        estimator = _fit("selnet-ct", tiny_cosine_split)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        reference = estimator.compiled().predict(queries, thresholds)

        path = tmp_path / "model"
        estimator.save(path)
        loaded = load_estimator(path)
        # load recompiles eagerly: the kernel is attached, fresh, and exact.
        kernel = _kernel_slot(loaded)
        assert isinstance(kernel, CompiledSelNet)
        np.testing.assert_array_equal(kernel.predict(queries, thresholds), reference)

    def test_kernel_is_not_pickled(self, tiny_cosine_split, tmp_path):
        """No kernel at any depth: ``selnet-inc``'s inner SelNet estimator
        compiles one while it fits (its baseline validation MAE)."""
        import pickle

        found = []

        class Finder(pickle.Unpickler):
            def find_class(self, module, qualname):
                if module == "repro.inference.kernels":
                    found.append(qualname)
                return super().find_class(module, qualname)

        for name in ("kde", "selnet", "selnet-inc"):
            estimator = _fit(name, tiny_cosine_split)
            estimator.compiled()
            estimator.compiled(dtype=np.float32)
            holders = [estimator]
            if name == "selnet-inc":
                holders.append(estimator.state.estimator)
                assert _kernel_slot(holders[-1]) is not None
            path = tmp_path / name
            estimator.save(path)
            with open(path / "state.pkl", "rb") as handle:
                state = pickle.load(handle)
            assert "_compiled_kernels" not in state
            if name == "selnet-inc":
                assert state["state"].estimator._compiled_kernels is None
            # Nothing in the pickle is a kernel; the estimators keep theirs.
            with open(path / "state.pkl", "rb") as handle:
                Finder(handle).load()
            assert found == []
            for holder in holders:
                assert _kernel_slot(holder) is not None
            assert _kernel_slot(estimator, np.float32) is not None

    def test_update_recompiles_selnet_inc(self, tiny_cosine_split, rng):
        estimator = _fit(
            "selnet-inc",
            tiny_cosine_split,
            update_max_epochs=1,
            update_mae_drift_threshold=-1.0,  # any drift (even zero) forces a fine-tune
        )
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        stale_kernel = estimator.compiled()
        before = stale_kernel.predict(queries, thresholds)

        inserts = rng.standard_normal((3, queries.shape[1]))
        reports = estimator.update(inserts=inserts)
        assert reports and reports[0].retrained

        fresh_kernel = estimator.compiled()
        assert fresh_kernel is not stale_kernel
        after = _graph(estimator, queries, thresholds)
        np.testing.assert_array_equal(fresh_kernel.predict(queries, thresholds), after)
        # the fine-tune changed the weights, so the stale kernel is provably stale
        assert not np.array_equal(before, after)

    def test_fine_tune_measures_each_epoch_with_its_own_weights(
        self, tiny_cosine_split, rng, monkeypatch
    ):
        """Every validation MAE of a forced fine-tune is the graph-mode MAE
        of the weights at that moment, not of the weights a kernel froze
        before the epoch, and the reported MAE is that of the kept weights."""
        estimator = _fit(
            "selnet-inc",
            tiny_cosine_split,
            update_max_epochs=4,
            update_mae_drift_threshold=-1.0,
        )
        state = estimator.state

        def graph_mae():
            validation = state.validation
            predictions = state.estimator.model.predict(
                validation.queries, validation.thresholds
            )
            return float(np.mean(np.abs(predictions - validation.selectivities)))

        measured = []
        validation_mae = IncrementalSelNet._validation_mae

        def checked(self):
            mae = validation_mae(self)
            measured.append((mae, graph_mae()))
            return mae

        monkeypatch.setattr(IncrementalSelNet, "_validation_mae", checked)
        queries = tiny_cosine_split.test.queries
        (report,) = estimator.update(inserts=rng.standard_normal((3, queries.shape[1])))
        assert report.retrained and report.fine_tune_epochs >= 1
        # The drift check, then one measurement per epoch.
        assert len(measured) == 1 + report.fine_tune_epochs
        for mae, graph in measured:
            assert mae == graph
        assert report.validation_mae_after == min(mae for mae, _ in measured)
        assert report.validation_mae_after == graph_mae()

    @pytest.mark.parametrize("name", ["selnet-ct", "selnet"])
    def test_kernel_keeps_the_weights_it_was_compiled_from(self, name, tiny_cosine_split, rng):
        """Adam steps rebind parameters to new buffers and never write into
        the arrays a float64 kernel froze without copying."""
        estimator = _fit(name, tiny_cosine_split)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        optimizer = Adam(estimator.model.parameters(), learning_rate=0.05)

        def step():
            for param in estimator.model.parameters():
                param.grad = rng.normal(size=param.shape)
            optimizer.step()

        step()
        kernel = estimator.compiled(refresh=True)
        before = kernel.predict(queries, thresholds)
        step()
        step()
        np.testing.assert_array_equal(kernel.predict(queries, thresholds), before)
        fresh = estimator.compiled(refresh=True).predict(queries, thresholds)
        assert not np.array_equal(fresh, before)

    def test_every_tier_stays_within_budget_after_update(self, tiny_cosine_split, rng):
        """Mixed-dtype parity survives an incremental update: after the
        fine-tune retrains the weights, every precision tier recompiles
        from the *new* weights and still answers within its error budget."""
        estimator = _fit(
            "selnet-inc",
            tiny_cosine_split,
            update_max_epochs=1,
            update_mae_drift_threshold=-1.0,
        )
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        reports = estimator.update(inserts=rng.standard_normal((3, queries.shape[1])))
        assert reports and reports[0].retrained

        reference = _graph(estimator, queries, thresholds)
        for name in TIER_NAMES:
            tier = parse_tier(name)
            kernel = estimator.compiled(dtype=tier.dtype)
            assert kernel.precision == name
            out = kernel.predict(queries, thresholds)
            if tier.relative:
                assert relative_deviation(out, reference) <= tier.budget
            else:
                assert np.max(np.abs(out - reference)) <= tier.budget

    def test_refit_invalidates_kernel(self, tiny_cosine_split):
        estimator = _fit("selnet-ct", tiny_cosine_split)
        kernel = estimator.compiled()
        estimator.fit(tiny_cosine_split)
        assert estimator._compiled_kernels is None
        fresh = estimator.compiled()
        assert fresh is not kernel
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        np.testing.assert_array_equal(
            fresh.predict(queries, thresholds), _graph(estimator, queries, thresholds)
        )


# ---------------------------------------------------------------------- #
# no_grad / grad-mode propagation
# ---------------------------------------------------------------------- #
class TestGradMode:
    def test_no_grad_produces_leaf_tensors(self):
        weight = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (Tensor(np.ones((1, 2))) @ weight).relu()
            assert not out.requires_grad
            assert out._parents == ()
            assert out._backward_fn is None
        assert is_grad_enabled()

    def test_no_grad_nests_and_restores_on_error(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_enable_grad_reenables_inside_no_grad(self):
        weight = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            with enable_grad():
                out = (weight * 2.0).sum()
                assert out.requires_grad
        out.backward()
        np.testing.assert_allclose(weight.grad, np.full(3, 2.0))

    def test_training_still_works_after_no_grad(self):
        weight = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with no_grad():
            (weight * 3.0).sum()
        loss = (weight * weight).sum()
        loss.backward()
        np.testing.assert_allclose(weight.grad, [2.0, 4.0])

    def test_graph_mode_predict_builds_no_tape(self, tiny_cosine_split):
        estimator = _fit("selnet-ct", tiny_cosine_split)
        model = estimator.model
        queries = Tensor(tiny_cosine_split.test.queries[:4])
        with no_grad():
            out = model.forward(queries, tiny_cosine_split.test.thresholds[:4])
        assert not out.requires_grad and out._parents == ()


# ---------------------------------------------------------------------- #
# Vectorised segment lookup
# ---------------------------------------------------------------------- #
class TestSegmentLookup:
    def test_matches_per_row_searchsorted(self, rng):
        batch, points = 64, 9
        tau = np.sort(rng.random((batch, points)), axis=1)
        t = rng.random(batch)
        expected = np.empty(batch, dtype=np.int64)
        for row in range(batch):
            expected[row] = np.searchsorted(tau[row], t[row], side="left")
        expected = np.clip(expected, 1, points - 1)
        np.testing.assert_array_equal(segment_upper_indices(tau, t), expected)

    def test_piecewise_linear_gradcheck_still_clean(self, rng):
        from repro.autodiff import check_gradients

        tau_base = np.sort(rng.random((5, 6)), axis=1)
        p_base = np.cumsum(rng.random((5, 6)), axis=1)
        t = rng.uniform(0.15, 0.85, size=5)

        tau = Tensor(tau_base, requires_grad=True)
        p = Tensor(p_base, requires_grad=True)
        assert check_gradients(lambda a, b: piecewise_linear(a, b, t), [tau, p])


# ---------------------------------------------------------------------- #
# Vectorised partition indicator
# ---------------------------------------------------------------------- #
class TestIndicatorBatch:
    def test_matches_per_row_indicator(self, tiny_face_dataset, tiny_fasttext_dataset, rng):
        """The centre-table indicator equals the per-region reference on
        cover trees of over 40 regions, for both distance kernels, on
        distinct rows and on runs of one query, at continuous thresholds."""
        for dataset, distance in (
            (tiny_face_dataset, "cosine"),
            (tiny_fasttext_dataset, "euclidean"),
        ):
            partitioning = build_partitioning(
                "ct", dataset.vectors, num_partitions=3,
                distance=get_distance(distance), seed=0,
            )
            assert sum(len(p.regions) for p in partitioning.partitions) >= 40
            picks = dataset.vectors[rng.integers(0, len(dataset.vectors), size=32)]
            queries = np.concatenate([picks, np.repeat(picks[:8], 6, axis=0)])
            reach = np.median(partitioning.distance(picks[0], dataset.vectors))
            thresholds = rng.uniform(0.0, 0.6 * reach, size=len(queries))
            batch = partitioning.indicator_batch(queries, thresholds)
            assert 0.0 < batch.mean() < 1.0
            for i in range(len(queries)):
                np.testing.assert_array_equal(
                    batch[i], partitioning.indicator(queries[i], thresholds[i])
                )

    def test_one_query_is_monotone_and_permutes_exactly(self, tiny_face_dataset, rng):
        partitioning = build_partitioning(
            "ct", tiny_face_dataset.vectors, num_partitions=3,
            distance=get_distance("cosine"), seed=0,
        )
        query = tiny_face_dataset.vectors[7]
        thresholds = np.sort(rng.uniform(0.0, 0.6, size=64))
        queries = np.repeat(query[None, :], len(thresholds), axis=0)
        batch = partitioning.indicator_batch(queries, thresholds)
        assert 0.0 < batch.mean() < 1.0
        assert np.all(np.diff(batch, axis=0) >= 0.0)
        order = rng.permutation(len(thresholds))
        np.testing.assert_array_equal(
            partitioning.indicator_batch(queries[order], thresholds[order]), batch[order]
        )
        # The per-partition gates cached control points carry.
        gates = np.repeat(partitioning.partition_gates(query[None, :]), len(thresholds), 0)
        np.testing.assert_array_equal(partitioning.indicator_at(gates, thresholds), batch)

    def test_gates_activate_exactly_where_the_balls_do(
        self, tiny_face_dataset, tiny_fasttext_dataset, rng
    ):
        """At every ball's boundary thresholds (its least hitting t, the
        doubles on either side, and d - r) the per-partition gates give
        the bits of the distance comparison, for both distance kernels."""
        for dataset, distance in (
            (tiny_face_dataset, "cosine"),
            (tiny_fasttext_dataset, "euclidean"),
        ):
            partitioning = build_partitioning(
                "ct", dataset.vectors, num_partitions=3,
                distance=get_distance(distance), seed=0,
            )
            radii = partitioning._centre_table().radii
            queries = dataset.vectors[rng.integers(0, len(dataset.vectors), size=6)]
            gates = partitioning.partition_gates(queries)
            for query, gate in zip(queries, gates):
                distances = partitioning.centre_distances(query[None, :])[0]
                least = least_hit_thresholds(distances, radii)
                thresholds = np.concatenate([
                    least,
                    np.nextafter(least, -np.inf),
                    np.nextafter(least, np.inf),
                    distances - radii,
                ])
                rows = np.repeat(query[None, :], len(thresholds), axis=0)
                expected = partitioning.indicator_batch(rows, thresholds)
                assert 0.0 < expected.mean() < 1.0
                np.testing.assert_array_equal(
                    partitioning.indicator_at(np.repeat(gate[None, :], len(rows), 0), thresholds),
                    expected,
                )

    def test_least_hit_threshold_is_the_boundary(self, rng):
        """``d <= r + t`` holds at the returned t and fails one double
        below it, also where the rounded sum, not ``d - r``, decides."""
        scale = 10.0 ** rng.uniform(-300, 300, size=400)
        radii = scale * rng.uniform(0.0, 2.0, size=400)
        distances = np.concatenate([
            scale[:200] * rng.uniform(0.0, 2.0, size=200),
            # A hair outside the ball: d - r is far below one ulp of d.
            np.nextafter(radii[200:300], np.inf),
            radii[300:] * (1.0 + 1e-15),
        ])
        distances[:4] = [0.0, 5e-324, radii[2], 1.0]
        radii[3] = 0.0
        # Rounding leaves cosine distances and radii slightly negative.
        distances[4:8] = radii[4:8] = [-4.440892098500626e-16, -1e-300, -0.0, -5e-324]
        radii[8], distances[8] = -1e-16, 1e-16
        least = least_hit_thresholds(distances, radii)
        assert np.all(distances <= radii + least)
        assert not np.any(distances <= radii + np.nextafter(least, -np.inf))
        assert least[3] == 1.0 and least[2] <= 0.0
        # Not finite: NaN never hits; inf hits once the sum overflows.
        distances, radii = np.array([np.nan, np.inf, np.inf]), np.array([1.0, 1.0, 1e300])
        special = least_hit_thresholds(distances, radii)
        assert special[0] == np.inf and special[1] == np.inf and np.isfinite(special[2])
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(
                distances <= radii + special, [False, True, True]
            )
            assert not np.any(distances <= radii + np.nextafter(special, -np.inf))


# ---------------------------------------------------------------------- #
# Per-distinct-query evaluation
# ---------------------------------------------------------------------- #
class TestDistinctQueryEvaluation:
    def test_distinct_rows_groups_adjacent_runs_by_bytes(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0], [-0.0, 1.0], [1.0, 2.0]])
        first, inverse = distinct_rows(rows)
        assert first.tolist() == [0, 2, 3, 4]
        assert inverse.tolist() == [0, 0, 1, 2, 3]
        np.testing.assert_array_equal(rows[first][inverse], rows)
        unique = rows[1:4]
        first, inverse = distinct_rows(unique)
        assert first.tolist() == inverse.tolist() == [0, 1, 2]
        assert take_rows(unique, first) is unique and take_rows(unique, inverse) is unique

    @pytest.mark.parametrize("name", ["selnet", "selnet-ct", "selnet-inc"])
    def test_one_query_is_monotone_within_a_call(self, name, tiny_cosine_split, rng):
        """Lemma 1 bit for bit: all of a query's thresholds in one call read
        one (tau, p) row and one distance per ball, in graph mode and in the
        compiled kernel, and for selnet-inc after a fine-tuning update.  The
        float32 kernel's answers are monotone too, with zero tolerance, and
        lie within the float32 budget of graph mode."""
        queries = tiny_cosine_split.test.queries
        if name == "selnet-inc":
            estimator = _fit(
                name, tiny_cosine_split, update_max_epochs=1, update_mae_drift_threshold=-1.0
            )
            reports = estimator.update(inserts=rng.standard_normal((3, queries.shape[1])))
            assert reports[0].retrained
        else:
            estimator = _fit(name, tiny_cosine_split)
        thresholds = np.sort(rng.uniform(0.0, 1.1 * tiny_cosine_split.t_max, size=200))
        kernel = estimator.compiled()
        kernel32 = compile_estimator(estimator, dtype=np.float32)
        budget = parse_tier("float32").budget
        for query in queries[::10]:
            rows = np.repeat(query[None, :], len(thresholds), axis=0)
            graph = _graph(estimator, rows, thresholds)
            assert np.all(np.diff(graph) >= 0.0)
            np.testing.assert_array_equal(kernel.predict(rows, thresholds), graph)
            single = kernel32.predict(rows, thresholds)
            assert np.all(np.diff(single) >= 0.0)
            assert relative_deviation(single, graph) <= budget

    @pytest.mark.parametrize("name", ["selnet", "selnet-ct"])
    def test_distinct_rows_match_the_per_row_forward(self, name, tiny_cosine_split):
        """With no repeated rows, predict is the per-row forward bit for bit."""
        estimator = _fit(name, tiny_cosine_split)
        model = estimator.model
        width = 10  # thresholds per query in the fixture's workload
        queries = tiny_cosine_split.test.queries[::width]
        thresholds = tiny_cosine_split.test.thresholds[width // 2 :: width]
        assert len(distinct_rows(queries)[0]) == len(queries)
        with no_grad():
            if name == "selnet":
                indicators = model.partitioning.indicator_batch(queries, thresholds)
                output = model.forward(Tensor(queries), thresholds, indicators)
            else:
                output = model.forward(Tensor(queries), thresholds)
        expected = np.clip(output.data, 0.0, None)
        np.testing.assert_array_equal(model.predict(queries, thresholds), expected)
        np.testing.assert_array_equal(estimator.estimate(queries, thresholds), expected)

    @pytest.mark.parametrize("name", ["selnet", "selnet-ct"])
    @pytest.mark.parametrize("dtype", TIER_NAMES)
    def test_evaluate_on_query_points_is_predict(self, name, dtype, tiny_cosine_split):
        """Control points from one forward per distinct query, split into
        rows of their own and gathered back, answer bit-equal to predict."""
        kernel = _fit(name, tiny_cosine_split).compiled(dtype=parse_tier(dtype).dtype)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        first, inverse = distinct_rows(queries)
        points = kernel.query_points(queries[first])
        rows = [points.row(i) for i in range(len(first))]
        np.testing.assert_array_equal(
            kernel.evaluate(ControlPoints.stack(rows).take(inverse), thresholds),
            kernel.predict(queries, thresholds),
        )

    @pytest.mark.parametrize("name", ["selnet", "selnet-ct"])
    def test_curve_values_of_repeated_queries_are_gathered(self, name, tiny_cosine_split):
        kernel = _fit(name, tiny_cosine_split).compiled()
        queries = tiny_cosine_split.test.queries[::10]
        grid = np.linspace(0.0, float(tiny_cosine_split.t_max), 9)
        np.testing.assert_array_equal(
            kernel.curve_values(np.repeat(queries, 3, axis=0), grid),
            np.repeat(kernel.curve_values(queries, grid), 3, axis=0),
        )


# ---------------------------------------------------------------------- #
# Serving integration
# ---------------------------------------------------------------------- #
class TestServingUsesCompiledKernels:
    @pytest.fixture(scope="class")
    def service_with_selnet(self, tiny_cosine_split):
        service = EstimationService(cache_capacity=64)
        estimator = _fit("selnet-ct", tiny_cosine_split)
        service.add_model("selnet", estimator)
        return service, estimator

    def test_direct_path_is_compiled_and_exact(self, service_with_selnet, tiny_cosine_split):
        service, estimator = service_with_selnet
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        served = service.estimate("selnet", queries, thresholds, use_cache=False)
        np.testing.assert_array_equal(served, _graph(estimator, queries, thresholds))
        assert service.stats()["kernels"]["selnet"]["kind"] == "selnet"

    def test_cached_path_fills_misses_through_fused_curves(
        self, service_with_selnet, tiny_cosine_split
    ):
        service, _ = service_with_selnet
        queries = tiny_cosine_split.test.queries[:8]
        thresholds = tiny_cosine_split.test.thresholds[:8]
        before = service.stats()["per_model"]["selnet"]["batches"]
        service.estimate("selnet", queries, thresholds)
        after = service.stats()["per_model"]["selnet"]["batches"]
        # all distinct miss queries were filled by one fused kernel call
        assert after - before == 1


# ---------------------------------------------------------------------- #
# Benchmark plumbing
# ---------------------------------------------------------------------- #
class TestInferenceBenchmark:
    def test_report_rows_and_json(self, tiny_cosine_split, tmp_path):
        estimator = _fit("kde", tiny_cosine_split)
        report = run_inference_benchmark(
            {"kde": estimator},
            tiny_cosine_split.test.queries,
            tiny_cosine_split.test.thresholds,
            batch_sizes=(1, 8),
            repeats=2,
            warmup=0,
        )
        assert [row.batch_size for row in report.rows] == [1, 8]
        assert report.max_deviation() <= PARITY
        assert report.speedup_for("kde") > 0.0
        with pytest.raises(KeyError):
            report.speedup_for("nope")
        path = write_benchmark_json(report, tmp_path / "bench.json")
        payload = json.loads(path.read_text())
        assert payload["benchmark"] == "repro-inference"
        assert len(payload["rows"]) == 2
        assert "compiled (pure-NumPy kernel)" in report.text

    def test_float64_parity_is_exact_on_adjacent_repeated_rows(self, tiny_cosine_split):
        """The float64 deviation compares the kernel with graph-mode
        ``model.predict``, which both evaluate a run of adjacent repeated
        rows once: it reads 0."""
        estimator = _fit("selnet-ct", tiny_cosine_split)
        # Batches drawn from a three-row pool hold long runs of one query.
        report = run_inference_benchmark(
            {"selnet-ct": estimator},
            tiny_cosine_split.test.queries[:3],
            tiny_cosine_split.test.thresholds[:3],
            batch_sizes=(64, 512),
            repeats=1,
            warmup=0,
        )
        for row in report.rows:
            assert row.dtype == "float64"
            assert row.max_abs_deviation == 0.0

    def test_cli_infer_bench_smoke(self, tmp_path, capsys):
        from repro.cli import main

        model_path = tmp_path / "kde-model"
        assert (
            main(
                [
                    "train", "kde", "--setting", "face-cos", "--scale", "tiny",
                    "--seed", "0", "--out", str(model_path), "--param", "num_samples=32",
                ]
            )
            == 0
        )
        output = tmp_path / "bench.json"
        code = main(
            ["infer-bench", str(model_path), "--smoke", "--output", str(output)]
        )
        assert code == 0
        assert output.is_file()
        payload = json.loads(output.read_text())
        assert payload["metadata"]["smoke"] is True
        assert {row["estimator"] for row in payload["rows"]} == {"kde-model"}
        captured = capsys.readouterr()
        assert "parity: max |compiled - graph|" in captured.out
        with pytest.raises(SystemExit, match="unknown precision tier 'bogus'"):
            main(["infer-bench", str(model_path), "--smoke", "--dtype", "float64,bogus"])
