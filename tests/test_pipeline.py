"""Tests for the declarative pipeline: specs, artifact store, runner, CLI.

Cache-correctness contract under test:

* the same spec twice -> the second materialization is a pure cache hit with
  bit-identical artifacts;
* any changed spec field -> a new hash and a fresh build;
* an interrupted run resumes without recomputing finished stages.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import TABLE_ALIASES, build_parser, main
from repro.eval import build_setting_split, run_setting, train_specs_for_models
from repro.eval.registry import selnet_train_spec
from repro.experiments import TINY
from repro.pipeline import (
    ArtifactStore,
    DatasetSpec,
    EvalSpec,
    ExperimentSpec,
    MANIFEST_FILE,
    PipelineRunner,
    TrainSpec,
    WorkloadSpec,
    canonical_json,
    use_store,
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _workload_spec(seed: int = 0) -> WorkloadSpec:
    return WorkloadSpec.for_setting("face-cos", TINY, seed=seed)


def _kde_train_spec(workload: WorkloadSpec) -> TrainSpec:
    return train_specs_for_models(TINY, workload, include=["KDE"])["KDE"]


# ---------------------------------------------------------------------- #
# Spec hashing
# ---------------------------------------------------------------------- #
class TestSpecHashing:
    def test_hash_is_stable_across_instances(self):
        first, second = _workload_spec(), _workload_spec()
        assert first.spec_hash == second.spec_hash
        assert len(first.spec_hash) == 16
        int(first.spec_hash, 16)  # hex

    def test_every_dataset_field_changes_the_hash(self):
        base = DatasetSpec(name="face_like", num_vectors=900, dim=12, seed=11)
        variants = [
            dataclasses.replace(base, name="youtube_like"),
            dataclasses.replace(base, num_vectors=901),
            dataclasses.replace(base, dim=13),
            dataclasses.replace(base, seed=12),
        ]
        hashes = {base.spec_hash} | {variant.spec_hash for variant in variants}
        assert len(hashes) == 1 + len(variants)

    def test_every_workload_field_changes_the_hash(self):
        base = _workload_spec()
        variants = [
            dataclasses.replace(base, distance="euclidean"),
            dataclasses.replace(base, num_queries=base.num_queries + 1),
            dataclasses.replace(base, thresholds_per_query=base.thresholds_per_query + 1),
            dataclasses.replace(base, threshold_distribution="beta"),
            dataclasses.replace(base, max_selectivity_fraction=0.123),
            dataclasses.replace(base, seed=base.seed + 1),
            dataclasses.replace(base, dataset=dataclasses.replace(base.dataset, seed=99)),
        ]
        hashes = {base.spec_hash} | {variant.spec_hash for variant in variants}
        assert len(hashes) == 1 + len(variants)

    def test_train_params_order_does_not_matter(self):
        workload = _workload_spec()
        first = TrainSpec.create(workload, "kde", {"a": 1, "b": (2, 3)})
        second = TrainSpec.create(workload, "kde", {"b": [2, 3], "a": 1})
        assert first.spec_hash == second.spec_hash

    def test_train_params_value_changes_hash(self):
        workload = _workload_spec()
        first = TrainSpec.create(workload, "kde", {"num_samples": 64})
        second = TrainSpec.create(workload, "kde", {"num_samples": 65})
        assert first.spec_hash != second.spec_hash

    def test_canonical_json_is_valid_json(self):
        spec = EvalSpec(train=_kde_train_spec(_workload_spec()))
        payload = json.loads(canonical_json(spec))
        assert payload["__spec__"] == "EvalSpec"
        assert payload["train"]["workload"]["dataset"]["name"] == "face_like"

    def test_eval_without_monotonicity_hashes_identically_across_scales(self):
        train = _kde_train_spec(_workload_spec())
        # Different scale profiles carry different monotonicity knobs, but
        # they are unused when measure_monotonicity=False — the evaluations
        # are identical and must share one artifact.
        first = EvalSpec(train=train, monotonicity_queries=10, monotonicity_thresholds=25)
        second = EvalSpec(train=train, monotonicity_queries=100, monotonicity_thresholds=100)
        assert first.spec_hash == second.spec_hash
        measured = EvalSpec(
            train=train,
            measure_monotonicity=True,
            monotonicity_queries=10,
            monotonicity_thresholds=25,
        )
        assert measured.spec_hash != first.spec_hash

    def test_unhashable_param_type_is_rejected(self):
        spec = TrainSpec.create(_workload_spec(), "kde", {"fn": object()})
        with pytest.raises(TypeError):
            spec.spec_hash

    def test_mapping_param_is_rejected_loudly(self):
        with pytest.raises(TypeError, match="mapping"):
            TrainSpec.create(_workload_spec(), "kde", {"opts": {"a": 1}})


# ---------------------------------------------------------------------- #
# Artifact store
# ---------------------------------------------------------------------- #
class TestArtifactStore:
    def test_dataset_round_trip_is_bit_exact(self, store):
        spec = DatasetSpec(name="face_like", num_vectors=300, dim=8, seed=11)
        built = store.get_or_build(spec)

        fresh = ArtifactStore(store.root)
        loaded = fresh.get_or_build(spec)
        assert np.array_equal(loaded.vectors, built.vectors)
        assert loaded.vectors.dtype == built.vectors.dtype
        assert loaded.name == built.name and loaded.distances == built.distances
        assert fresh.stats.hits_disk >= 1 and fresh.stats.misses == 0

    def test_workload_round_trip_is_bit_exact(self, store):
        spec = _workload_spec()
        built = store.get_or_build(spec)

        fresh = ArtifactStore(store.root)
        loaded = fresh.get_or_build(spec)
        for fold in ("train", "validation", "test"):
            for attr in ("queries", "thresholds", "selectivities", "query_ids"):
                assert np.array_equal(
                    getattr(getattr(loaded, fold), attr),
                    getattr(getattr(built, fold), attr),
                ), (fold, attr)
        assert loaded.t_max == built.t_max
        assert loaded.distance.name == built.distance.name
        # The reconstructed oracle reproduces the stored labels exactly.
        relabeled = loaded.oracle.batch_selectivity(
            loaded.test.queries, loaded.test.thresholds
        )
        assert np.array_equal(relabeled.astype(float), loaded.test.selectivities)

    def test_second_build_is_a_pure_cache_hit(self, store, monkeypatch):
        calls = {"builds": 0}
        original = DatasetSpec.build

        def counting_build(self, inner_store, **options):
            calls["builds"] += 1
            return original(self, inner_store, **options)

        monkeypatch.setattr(DatasetSpec, "build", counting_build)
        spec = DatasetSpec(name="face_like", num_vectors=200, dim=6, seed=3)
        store.get_or_build(spec)
        store.get_or_build(spec)
        assert calls["builds"] == 1

        fresh = ArtifactStore(store.root)
        fresh.get_or_build(spec)
        assert calls["builds"] == 1  # served from disk, not rebuilt
        assert store.stats.misses == 1 and store.stats.hits_memory == 1

    def test_changed_spec_field_builds_a_new_artifact(self, store):
        first = DatasetSpec(name="face_like", num_vectors=200, dim=6, seed=3)
        second = dataclasses.replace(first, seed=4)
        store.get_or_build(first)
        store.get_or_build(second)
        assert store.path_for(first).is_dir() and store.path_for(second).is_dir()
        assert store.path_for(first) != store.path_for(second)
        assert store.stats.misses == 2

    def test_memory_store_persists_nothing(self):
        memory = ArtifactStore.memory()
        value = memory.get_or_build(DatasetSpec(name="face_like", num_vectors=150, dim=5, seed=1))
        assert value.num_vectors == 150
        assert not memory.persistent and memory.path_for(_workload_spec()) is None
        assert memory.list_artifacts() == []

    def test_trained_model_round_trip_estimates_identically(self, store):
        workload = _workload_spec()
        train = _kde_train_spec(workload)
        built = store.get_or_build(train)
        split = store.get_or_build(workload)

        fresh = ArtifactStore(store.root)
        loaded = fresh.get_or_build(train)
        reference = built.estimator.estimate(split.test.queries, split.test.thresholds)
        restored = loaded.estimator.estimate(split.test.queries, split.test.thresholds)
        assert np.array_equal(reference, restored)
        assert loaded.fit_seconds == pytest.approx(built.fit_seconds)

    def test_eval_round_trip_preserves_every_number(self, store):
        spec = EvalSpec(train=_kde_train_spec(_workload_spec()), measure_monotonicity=True)
        built = store.get_or_build(spec)
        loaded = ArtifactStore(store.root).get_or_build(spec)
        assert loaded.model_name == built.model_name
        assert loaded.test_metrics.mse == built.test_metrics.mse
        assert loaded.validation_metrics.mape == built.validation_metrics.mape
        assert loaded.monotonicity_percent == built.monotonicity_percent
        assert loaded.fit_seconds == built.fit_seconds
        assert loaded.estimation_milliseconds == built.estimation_milliseconds

    def test_interrupted_build_leaves_no_half_artifact(self, store, monkeypatch):
        spec = DatasetSpec(name="face_like", num_vectors=200, dim=6, seed=3)

        def exploding_save(self, directory, value):
            (directory / "dataset.npz").write_bytes(b"partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(DatasetSpec, "save_artifact", exploding_save)
        with pytest.raises(KeyboardInterrupt):
            store.get_or_build(spec)
        assert not store.path_for(spec).exists()
        assert store.list_artifacts() == []

    def test_interrupted_run_resumes_without_recomputing(self, store, monkeypatch):
        workload = _workload_spec()
        eval_spec = EvalSpec(train=_kde_train_spec(workload))

        boom = RuntimeError("interrupted mid-training")
        original_train_build = TrainSpec.build
        monkeypatch.setattr(
            TrainSpec, "build", lambda self, inner, **options: (_ for _ in ()).throw(boom)
        )
        with pytest.raises(RuntimeError):
            PipelineRunner(store=store).run(ExperimentSpec(name="t", evals=(eval_spec,)))
        # The finished upstream stages were persisted before the crash.
        assert store.path_for(workload.dataset).is_dir()
        assert store.path_for(workload).is_dir()

        monkeypatch.setattr(TrainSpec, "build", original_train_build)
        labeling_calls = {"count": 0}
        import repro.data.workload as workload_module

        original_generate = workload_module.generate_workload

        def counting_generate(*args, **kwargs):
            labeling_calls["count"] += 1
            return original_generate(*args, **kwargs)

        monkeypatch.setattr(workload_module, "generate_workload", counting_generate)
        resumed = ArtifactStore(store.root)
        outcome = PipelineRunner(store=resumed).run(ExperimentSpec(name="t", evals=(eval_spec,)))
        assert labeling_calls["count"] == 0  # dataset + workload replayed from disk
        assert outcome.value(eval_spec).model_name == "KDE"
        report = outcome.report
        cached = {stage.kind: stage.cached for stage in report.stages}
        # The completed workload artifact replays from disk; its dataset
        # dependency is pruned from the DAG entirely (loaded on demand by
        # the workload artifact itself, not scheduled as a stage).
        assert cached["workload"] and "dataset" not in cached
        assert not cached["train"] and not cached["eval"]

    def test_manifest_records_provenance(self, store):
        workload = _workload_spec()
        store.get_or_build(workload)
        entries = store.list_artifacts()
        by_kind = {entry["kind"]: entry for entry in entries}
        manifest = by_kind["workload"]
        assert manifest["hash"] == workload.spec_hash
        assert manifest["spec"]["__spec__"] == "WorkloadSpec"
        assert manifest["dependencies"] == {workload.dataset.spec_hash: "dataset"}
        assert manifest["build_seconds"] >= 0
        assert (store.path_for(workload) / MANIFEST_FILE).is_file()

    def test_evict_and_gc(self, store):
        workload = _workload_spec()
        eval_spec = EvalSpec(train=_kde_train_spec(workload))
        store.get_or_build(eval_spec)
        assert len(store.list_artifacts()) == 4  # dataset, workload, train, eval

        removed = store.evict(kinds=["eval"])
        assert [entry["kind"] for entry in removed] == ["eval"]
        assert len(store.list_artifacts()) == 3

        summary = store.gc(dry_run=True)
        assert len(summary["removed"]) == 3 and len(store.list_artifacts()) == 3
        summary = store.gc()
        assert len(summary["removed"]) == 3 and store.list_artifacts() == []

    def test_age_based_eviction_spares_recent_artifacts(self, store):
        spec = DatasetSpec(name="face_like", num_vectors=150, dim=5, seed=1)
        store.get_or_build(spec)
        assert store.evict(older_than_seconds=3600.0) == []
        assert len(store.evict(older_than_seconds=0.0)) == 1


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #
class TestPipelineRunner:
    def test_shared_stages_are_deduplicated(self):
        workload = _workload_spec()
        specs = train_specs_for_models(TINY, workload, include=["KDE", "LightGBM-m"])
        evals = tuple(EvalSpec(train=spec) for spec in specs.values())
        outcome = PipelineRunner().run(ExperimentSpec(name="dedup", evals=evals))
        kinds = [stage.kind for stage in outcome.report.stages]
        assert kinds.count("dataset") == 1 and kinds.count("workload") == 1
        assert kinds.count("train") == 2 and kinds.count("eval") == 2

    def test_parallel_branches_match_serial_execution(self):
        # SelNet-ct exercises the autodiff tape (the thread-local grad-mode
        # change exists for exactly this model family); DNN covers the plain
        # neural baseline; KDE the non-autodiff path.
        fast_scale = dataclasses.replace(
            TINY,
            selnet_epochs=2,
            selnet_pretrain_epochs=1,
            baseline_epochs=2,
            num_control_points=4,
        )
        workload = WorkloadSpec.for_setting("face-cos", fast_scale, seed=0)
        specs = train_specs_for_models(
            fast_scale, workload, include=["KDE", "DNN", "SelNet-ct"]
        )
        evals = tuple(EvalSpec(train=spec) for spec in specs.values())
        experiment = ExperimentSpec(name="parity", evals=evals)
        serial = PipelineRunner(num_workers=1).run(experiment)
        parallel = PipelineRunner(num_workers=4).run(experiment)
        for spec in evals:
            left, right = serial.value(spec), parallel.value(spec)
            assert left.test_metrics.mse == right.test_metrics.mse
            assert left.validation_metrics.mae == right.validation_metrics.mae

    def test_warm_rerun_is_fully_cached(self, store):
        with use_store(store):
            first = run_setting("face-cos", TINY, models=["KDE"])
            store.reset_stats()
            store.clear_memory()
            second = run_setting("face-cos", TINY, models=["KDE"])
        assert second.pipeline_report.all_cached
        assert store.stats.misses == 0
        assert (
            first.results[0].test_metrics.mse == second.results[0].test_metrics.mse
        )
        # Cached evaluations carry the original fit wall-clock.
        assert second.results[0].fit_seconds == first.results[0].fit_seconds

    def test_warm_run_prunes_upstream_stages(self, store):
        with use_store(store):
            run_setting("face-cos", TINY, models=["KDE"])
        store.clear_memory()
        store.reset_stats()
        with use_store(store):
            warm = run_setting("face-cos", TINY, models=["KDE"])
        # The cached evaluation replays from its own JSON; dataset, workload
        # and model stages are pruned from the warm DAG entirely.
        assert [stage.kind for stage in warm.pipeline_report.stages] == ["eval"]
        assert warm.pipeline_report.all_cached

    def test_eval_stages_run_exclusively(self, monkeypatch):
        import threading
        import time as time_module

        state = {"active": 0, "overlap_during_eval": 0}
        guard = threading.Lock()

        def wrap(original, is_eval):
            def build(self, inner_store, **options):
                with guard:
                    state["active"] += 1
                    if is_eval and state["active"] > 1:
                        state["overlap_during_eval"] += 1
                try:
                    time_module.sleep(0.02)
                    return original(self, inner_store, **options)
                finally:
                    with guard:
                        state["active"] -= 1

            return build

        monkeypatch.setattr(TrainSpec, "build", wrap(TrainSpec.build, is_eval=False))
        monkeypatch.setattr(EvalSpec, "build", wrap(EvalSpec.build, is_eval=True))
        workload = _workload_spec()
        specs = train_specs_for_models(TINY, workload, include=["KDE", "LightGBM-m"])
        evals = tuple(EvalSpec(train=spec) for spec in specs.values())
        outcome = PipelineRunner(num_workers=4).run(ExperimentSpec(name="excl", evals=evals))
        assert len(outcome.report.stages) == 6
        # Timing-sensitive eval stages never share the pool with other stages.
        assert state["overlap_during_eval"] == 0

    def test_stage_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(
            TrainSpec,
            "build",
            lambda self, store, **options: (_ for _ in ()).throw(ValueError("nope")),
        )
        eval_spec = EvalSpec(train=_kde_train_spec(_workload_spec()))
        with pytest.raises(ValueError, match="nope"):
            PipelineRunner().run(ExperimentSpec(name="fail", evals=(eval_spec,)))

    def test_build_setting_split_reuses_store(self, store):
        with use_store(store):
            first = build_setting_split("face-cos", TINY, seed=0)
            second = build_setting_split("face-cos", TINY, seed=0)
        assert second is first  # same in-memory artifact
        assert store.stats.by_kind["workload"]["misses"] == 1


# ---------------------------------------------------------------------- #
# Serving straight from the store
# ---------------------------------------------------------------------- #
class TestServingFromStore:
    def test_estimation_service_serves_store_models(self, store):
        from repro.serving import EstimationService

        workload = _workload_spec()
        train = _kde_train_spec(workload)
        trained = store.get_or_build(train)
        split = store.get_or_build(workload)

        service = EstimationService.from_store(store)
        assert train.spec_hash in service.available_models()
        queries = split.test.queries[:8]
        thresholds = split.test.thresholds[:8]
        served = service.estimate(train.spec_hash, queries, thresholds, use_cache=False)
        expected = trained.estimator.estimate(queries, thresholds)
        assert np.allclose(served, expected)

    def test_models_dir_requires_persistence(self):
        with pytest.raises(ValueError):
            ArtifactStore.memory().models_dir()

    def test_service_skips_in_flight_temp_dirs(self, store):
        from repro.serving import EstimationService

        train = _kde_train_spec(_workload_spec())
        store.get_or_build(train)
        # Simulate a build interrupted after the sidecar was written but
        # before the atomic rename: a hidden temp dir with a sidecar inside.
        temp_dir = store.models_dir() / ".tmp-deadbeef-cafe"
        temp_dir.mkdir()
        (temp_dir / "estimator.json").write_text("{\"format\": \"repro-estimator\"}")

        service = EstimationService.from_store(store)
        assert service.available_models() == [train.spec_hash]
        with pytest.raises(KeyError):
            service.get(".tmp-deadbeef-cafe")


# ---------------------------------------------------------------------- #
# Figure 5 labels once per operation, however many models track the stream
# ---------------------------------------------------------------------- #
class TestFigureLabelSharing:
    def test_figure5_relabels_once_per_operation(self, monkeypatch):
        import repro.experiments.figures as figures

        fast_scale = dataclasses.replace(
            TINY,
            selnet_epochs=2,
            selnet_pretrain_epochs=1,
            baseline_epochs=2,
            num_control_points=4,
        )
        calls = {"count": 0}
        original = figures.relabel_workload

        def counting_relabel(workload, oracle):
            calls["count"] += 1
            return original(workload, oracle)

        monkeypatch.setattr(figures, "relabel_workload", counting_relabel)
        num_operations = 2
        result = figures.figure5_updates(
            settings=("face-cos",),
            scale=fast_scale,
            num_operations=num_operations,
            models=("SelNet-ct", "SelNet-ad-ct"),
            mae_drift_threshold=1e9,  # never fine-tune: isolates label sharing
            seed=0,
        )
        # validation + test, once per operation — NOT once per model.
        assert calls["count"] == 2 * num_operations
        assert "face-cos SelNet-ct" in result.text
        assert f"face-cos_SelNet-ct_mse" in result.series


# ---------------------------------------------------------------------- #
# Incremental fine-tuning invalidates cached compiled kernels
# ---------------------------------------------------------------------- #
class TestIncrementalCompiledInvalidation:
    def test_fine_tune_invalidates_compiled_kernel(self):
        from repro.data import generate_update_stream
        from repro.core import IncrementalConfig, IncrementalSelNet

        fast_scale = dataclasses.replace(
            TINY, selnet_epochs=2, selnet_pretrain_epochs=1, num_control_points=4
        )
        workload = WorkloadSpec.for_setting("face-cos", fast_scale, seed=0)
        store = ArtifactStore.memory()
        split = store.get_or_build(workload)
        train = selnet_train_spec(workload, fast_scale, "SelNet-ct", seed=0)
        estimator = store.get_or_build(train).estimator
        estimator.compiled()  # store-loaded estimators arrive eagerly compiled

        incremental = IncrementalSelNet(
            estimator=estimator,
            data=split.dataset.vectors,
            distance=split.distance,
            train=split.train,
            validation=split.validation,
            # always fine-tune: the kernel-staleness path under test
            config=IncrementalConfig(mae_drift_threshold=-1.0, max_epochs=1),
        )
        operation = generate_update_stream(
            split.dataset.vectors, num_operations=1, records_per_operation=3, seed=0
        )[0]
        report = incremental.apply_operation(operation)
        assert report.retrained

        queries = split.test.queries[:6]
        thresholds = split.test.thresholds[:6]
        compiled = estimator.compiled().predict(queries, thresholds)
        # Graph mode is model.predict: estimate is the compiled kernel.
        graph = estimator.model.predict(queries, thresholds)
        assert np.allclose(compiled, graph, atol=1e-9)


# ---------------------------------------------------------------------- #
# CLI: repro run / artifacts, shared parent flags
# ---------------------------------------------------------------------- #
class TestPipelineCLI:
    def test_run_smoke_cold_then_warm(self, tmp_path, capsys):
        store_dir = str(tmp_path / "artifacts")
        cold_stats = tmp_path / "cold.json"
        warm_stats = tmp_path / "warm.json"

        assert main(["run", "--smoke", "--store", store_dir, "--stats-json", str(cold_stats)]) == 0
        cold = json.loads(cold_stats.read_text())
        assert set(cold) == {
            "experiment",
            "description",
            "scale",
            "seed",
            "elapsed_seconds",
            "store",
            "store_stats",
            "pipeline",
            "all_cached",
        }
        assert cold["all_cached"] is False
        assert cold["store_stats"]["misses"] > 0

        assert (
            main(
                [
                    "run",
                    "smoke",
                    "--store",
                    store_dir,
                    "--expect-all-cached",
                    "--stats-json",
                    str(warm_stats),
                ]
            )
            == 0
        )
        warm = json.loads(warm_stats.read_text())
        assert warm["all_cached"] is True
        assert warm["store_stats"]["misses"] == 0
        assert warm["pipeline"]["all_cached"] is True
        capsys.readouterr()

    def test_run_expect_all_cached_fails_cold(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--smoke",
                    "--store",
                    str(tmp_path / "fresh"),
                    "--expect-all-cached",
                ]
            )
        capsys.readouterr()

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "no-such-experiment", "--no-store"])

    def test_artifacts_list_and_gc(self, tmp_path, capsys):
        store_dir = str(tmp_path / "artifacts")
        assert main(["run", "--smoke", "--store", store_dir]) == 0
        capsys.readouterr()

        assert main(["artifacts", "list", "--store", store_dir, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        kinds = {entry["kind"] for entry in listing["artifacts"]}
        assert {"dataset", "workload", "train", "eval"} <= kinds

        # A bare gc (no filter) must refuse to wipe the store.
        with pytest.raises(SystemExit):
            main(["artifacts", "gc", "--store", store_dir])
        capsys.readouterr()
        assert main(["artifacts", "gc", "--store", store_dir, "--all"]) == 0
        capsys.readouterr()
        assert main(["artifacts", "list", "--store", store_dir, "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["artifacts"] == []

    def test_artifacts_path(self, tmp_path, capsys):
        store_dir = str(tmp_path / "artifacts")
        assert main(["artifacts", "path", "--store", store_dir]) == 0
        assert capsys.readouterr().out.strip() == store_dir

    def test_table_aliases_parse(self):
        parser = build_parser()
        args = parser.parse_args(["table", "accuracy"])
        assert TABLE_ALIASES[args.number] == 1
        args = parser.parse_args(["table", "7", "--num-workers", "2", "--seed", "5"])
        assert args.number == "7" and args.num_workers == 2 and args.seed == 5
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "99"])

    def test_shared_parent_flags_on_every_experiment_command(self):
        parser = build_parser()
        for argv in (
            ["table", "1"],
            ["figure", "4"],
            ["run", "smoke"],
            ["train", "kde", "--out", "x"],
            ["oracle-bench"],
            ["infer-bench", "m"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "num_workers")
            assert hasattr(args, "seed")
            assert hasattr(args, "block_kib")
            assert hasattr(args, "progress")
        # oracle-bench keeps its historical 4-thread default.
        assert parser.parse_args(["oracle-bench"]).num_workers == 4
        assert parser.parse_args(["table", "1"]).num_workers is None
        # --block-kib 0 is rejected cleanly (a zero block budget is invalid).
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "1", "--block-kib", "0"])
