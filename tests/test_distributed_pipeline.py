"""Tests for the distributed pipeline tier: process executors, cross-process
store locking, size-bounded GC, pinned-value release, and the scale /
cross-seed sweep generators.

Contract under test:

* two ``ArtifactStore`` instances in separate processes racing
  ``get_or_build`` on one spec -> exactly one builds, the other blocks on
  the per-hash file lock and then disk-hits, and the manifest is never torn;
* the ``process`` executor's results are byte-identical (modulo wall-clock
  measurement fields) to the ``thread`` executor's;
* ``gc`` never sweeps the temp dir of a live builder, and ``max_bytes``
  trims least-recently-used artifacts first;
* the per-labeler engine-worker split is recomputed when the ready set
  changes, so a labeler running alone in a later wave gets full width.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Tuple

import pytest

from repro.cli import _eval_digests, main
from repro.experiments import TINY
from repro.experiments.sweeps import (
    run_scale_sweep,
    run_seed_variance,
    scaled_replica,
)
from repro.pipeline import (
    ArtifactStore,
    DatasetSpec,
    EvalSpec,
    ExperimentSpec,
    LOCKS_DIR,
    MANIFEST_FILE,
    PipelineRunner,
    Spec,
    TrainSpec,
    WorkloadSpec,
    use_store,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only test module
    fcntl = None


# ---------------------------------------------------------------------- #
# Cross-process get_or_build race (module level: child processes must be
# able to import these)
# ---------------------------------------------------------------------- #
class SlowDatasetSpec(DatasetSpec):
    """A dataset whose build is slow enough for a second process to race it."""

    def build(self, store, **options):
        time.sleep(0.6)
        return super().build(store, **options)


def _race_get_or_build(root: str, barrier, results) -> None:
    store = ArtifactStore(root)
    spec = SlowDatasetSpec(name="face_like", num_vectors=300, dim=8, seed=3)
    barrier.wait()
    value, info = store.get_or_build_info(spec)
    results.put(
        {
            "pid": os.getpid(),
            "cached": info.cached,
            "num_vectors": int(value.vectors.shape[0]),
        }
    )


@pytest.mark.skipif(fcntl is None, reason="needs POSIX file locks")
def test_cross_process_race_builds_exactly_once(tmp_path):
    root = tmp_path / "race-store"
    barrier = multiprocessing.Barrier(2)
    results = multiprocessing.Queue()
    workers = [
        multiprocessing.Process(
            target=_race_get_or_build, args=(str(root), barrier, results)
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    outcomes = [results.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0

    # Exactly one process built; the loser blocked on the lock, re-checked
    # the manifest and replayed from disk.
    cached = sorted((outcome["cached"] for outcome in outcomes), key=str)
    assert cached == [False, "disk"]
    assert all(outcome["num_vectors"] == 300 for outcome in outcomes)

    # No torn manifest: the directory holds a complete, parseable manifest
    # and no leftover temp dirs.
    spec = SlowDatasetSpec(name="face_like", num_vectors=300, dim=8, seed=3)
    artifact_dir = root / spec.kind / spec.spec_hash
    manifest = json.loads((artifact_dir / MANIFEST_FILE).read_text())
    assert manifest["hash"] == spec.spec_hash
    leftovers = [p for p in (root / spec.kind).iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


# ---------------------------------------------------------------------- #
# Executor parity
# ---------------------------------------------------------------------- #
def _smoke_experiment_spec(seed: int = 0) -> Tuple[ExperimentSpec, list]:
    workload = WorkloadSpec.for_setting("face-cos", TINY, seed=seed)
    evals = [
        EvalSpec(train=TrainSpec.create(workload, model, params), seed=seed)
        for model, params in (("KDE", {"num_samples": 32}), ("LightGBM-m", {}))
    ]
    return ExperimentSpec(name="executor-parity", evals=tuple(evals)), evals


class TestProcessExecutor:
    def test_process_matches_thread_bitwise(self, tmp_path):
        experiment, evals = _smoke_experiment_spec()
        thread = PipelineRunner(
            store=ArtifactStore(tmp_path / "thread"), executor="thread", num_workers=2
        ).run(experiment)
        process = PipelineRunner(
            store=ArtifactStore(tmp_path / "process"), executor="process", num_workers=2
        ).run(experiment)
        assert len(thread.report.stages) == len(process.report.stages)
        assert process.report.executor == "process"
        for spec in evals:
            left, right = thread.value(spec), process.value(spec)
            # Everything the estimator computed is bit-identical; only the
            # wall-clock measurement fields may differ between runs.
            assert left.test_metrics.mse == right.test_metrics.mse
            assert left.test_metrics.mae == right.test_metrics.mae
            assert left.validation_metrics.mse == right.validation_metrics.mse
            assert left.model_name == right.model_name

    def test_process_matches_thread_for_autodiff_models(self, tmp_path):
        # The process-backend analogue of the thread pool's parallel==serial
        # test: SelNet-ct exercises the autodiff tape, DNN the plain neural
        # path — worker processes must reproduce the thread backend exactly.
        import dataclasses

        from repro.eval import train_specs_for_models

        fast_scale = dataclasses.replace(
            TINY,
            selnet_epochs=2,
            selnet_pretrain_epochs=1,
            baseline_epochs=2,
            num_control_points=4,
        )
        workload = WorkloadSpec.for_setting("face-cos", fast_scale, seed=0)
        specs = train_specs_for_models(
            fast_scale, workload, include=["DNN", "SelNet-ct"]
        )
        evals = tuple(EvalSpec(train=spec) for spec in specs.values())
        experiment = ExperimentSpec(name="autodiff-parity", evals=evals)
        thread = PipelineRunner(
            store=ArtifactStore(tmp_path / "thread"), executor="thread", num_workers=1
        ).run(experiment)
        process = PipelineRunner(
            store=ArtifactStore(tmp_path / "process"), executor="process", num_workers=4
        ).run(experiment)
        for spec in evals:
            left, right = thread.value(spec), process.value(spec)
            assert left.test_metrics.mse == right.test_metrics.mse
            assert left.validation_metrics.mae == right.validation_metrics.mae

    def test_process_warm_replay_all_cached(self, tmp_path):
        experiment, _ = _smoke_experiment_spec()
        store_root = tmp_path / "store"
        cold = PipelineRunner(
            store=ArtifactStore(store_root), executor="process", num_workers=2
        ).run(experiment)
        assert cold.report.cache_misses == len(cold.report.stages)
        warm = PipelineRunner(
            store=ArtifactStore(store_root), executor="process", num_workers=2
        ).run(experiment)
        assert warm.report.all_cached

    def test_process_runs_leave_no_worker_processes(self, tmp_path):
        """Each run shuts its stage pool down before returning, so no worker
        process outlives a run, cold or warm."""
        experiment, _ = _smoke_experiment_spec()
        runner = PipelineRunner(
            store=ArtifactStore(tmp_path / "store"), executor="process", num_workers=2
        )
        cold = runner.run(experiment)
        assert multiprocessing.active_children() == []
        warm = runner.run(experiment)
        assert multiprocessing.active_children() == []
        assert cold.report.cache_misses > 0
        assert warm.report.all_cached

    def test_process_executor_requires_persistent_store(self):
        with pytest.raises(ValueError, match="persistent"):
            PipelineRunner(executor="process")
        with pytest.raises(ValueError, match="unknown executor"):
            PipelineRunner(executor="fiber")
        with pytest.raises(ValueError, match="unknown executor"):
            PipelineRunner(executor="cluster")

    def test_cli_smoke_process_digests_match_thread(self, tmp_path, capsys):
        thread_store = tmp_path / "store-thread"
        process_store = tmp_path / "store-process"
        assert main(["run", "--smoke", "--store", str(thread_store)]) == 0
        assert (
            main(
                ["run", "--smoke", "--store", str(process_store), "--executor", "process"]
            )
            == 0
        )
        capsys.readouterr()
        left = _eval_digests(ArtifactStore(thread_store))
        right = _eval_digests(ArtifactStore(process_store))
        assert left and left == right

    def test_cli_refuses_process_executor_without_store(self):
        with pytest.raises(SystemExit, match="artifact store"):
            main(["run", "--smoke", "--no-store", "--executor", "process"])


# ---------------------------------------------------------------------- #
# Store hardening: gc lock probe, max-bytes LRU, pinned-value release
# ---------------------------------------------------------------------- #
@pytest.mark.skipif(fcntl is None, reason="needs POSIX file locks")
def test_gc_skips_temp_dir_of_live_builder(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    spec = DatasetSpec(name="face_like", num_vectors=200, dim=6, seed=1)
    store.get_or_build(spec)

    # Fake an in-progress build: a temp dir for some other spec hash whose
    # builder currently holds the per-hash lock (flock conflicts between
    # two descriptors even within one process).
    building_hash = "feedfacefeedface"
    temp_dir = store.root / "dataset" / f".tmp-{building_hash}-deadbeef"
    temp_dir.mkdir(parents=True)
    (temp_dir / "payload.bin").write_bytes(b"partial")
    lock_path = store.root / LOCKS_DIR / "dataset" / f"{building_hash}.lock"
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    holder = os.open(str(lock_path), os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        fcntl.flock(holder, fcntl.LOCK_EX)
        summary = store.gc(kinds=["dataset"], older_than_seconds=10_000.0)
        assert summary["temp_dirs_swept"] == 0
        assert temp_dir.is_dir()
    finally:
        fcntl.flock(holder, fcntl.LOCK_UN)
        os.close(holder)

    # Builder gone -> the next gc reclaims the orphan.
    summary = store.gc(kinds=["dataset"], older_than_seconds=10_000.0)
    assert summary["temp_dirs_swept"] == 1
    assert not temp_dir.exists()


def test_gc_max_bytes_evicts_least_recently_used(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    specs = [DatasetSpec(name="face_like", num_vectors=200 + 50 * i, dim=6, seed=i) for i in range(3)]
    for spec in specs:
        store.get_or_build(spec)
    # Establish recency oldest -> newest by touching manifests with explicit
    # mtimes (the store refreshes mtime on every load).
    now = time.time()
    for age, spec in zip((3000, 2000, 1000), specs):
        manifest = store.root / spec.kind / spec.spec_hash / MANIFEST_FILE
        os.utime(manifest, (now - age, now - age))

    sizes = {
        entry["hash"]: entry["size_bytes"] for entry in store.list_artifacts()
    }
    total = sum(sizes.values())
    budget = total - 1  # force evicting exactly the single oldest artifact
    summary = store.gc(max_bytes=budget)
    removed_hashes = {entry["hash"] for entry in summary["removed"]}
    assert removed_hashes == {specs[0].spec_hash}
    remaining = sum(entry["size_bytes"] for entry in store.list_artifacts())
    assert remaining <= budget

    # A dry run reports without deleting.
    summary = store.gc(max_bytes=0, dry_run=True)
    assert len(summary["removed"]) == 2
    assert len(store.list_artifacts()) == 2

    # max_bytes=0 clears everything that is unlocked.
    summary = store.gc(max_bytes=0)
    assert store.list_artifacts() == []


def test_unpinned_store_serves_disk_hits_and_release(tmp_path):
    spec = DatasetSpec(name="face_like", num_vectors=150, dim=5, seed=2)

    unpinned = ArtifactStore(tmp_path / "store", pin_values=False)
    first_value, first = unpinned.get_or_build_info(spec)
    assert first.cached is False
    _, second = unpinned.get_or_build_info(spec)
    assert second.cached == "disk"  # nothing pinned in memory after persist

    pinned = ArtifactStore(tmp_path / "store")
    _, info = pinned.get_or_build_info(spec)
    assert info.cached == "disk"
    _, info = pinned.get_or_build_info(spec)
    assert info.cached == "memory"
    assert pinned.release(spec) is True
    assert pinned.release(spec) is False  # already released
    _, info = pinned.get_or_build_info(spec)
    assert info.cached == "disk"

    memory_only = ArtifactStore.memory()
    memory_only.get_or_build(spec)
    with pytest.raises(ValueError, match="memory-only"):
        memory_only.release(spec)


# ---------------------------------------------------------------------- #
# Engine-split recomputation (satellite: later-wave labelers get full width)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ProbeDataset(Spec):
    tag: str
    build_seconds: float = 0.0

    kind: ClassVar[str] = "dataset"

    def describe(self) -> str:
        return f"dataset:probe-{self.tag}"

    def build(self, store, **options):
        if self.build_seconds:
            time.sleep(self.build_seconds)
        return {"tag": self.tag}

    def save_artifact(self, directory, value) -> None:
        (directory / "value.json").write_text(json.dumps(value))

    def load_artifact(self, directory, store):
        return json.loads((directory / "value.json").read_text())


@dataclass(frozen=True)
class _ProbeWorkload(Spec):
    tag: str
    dataset: Any = None

    kind: ClassVar[str] = "workload"

    def describe(self) -> str:
        return f"workload:probe-{self.tag}"

    def dependencies(self) -> Tuple[Spec, ...]:
        return () if self.dataset is None else (self.dataset,)

    def build(self, store, num_workers=None, **options):
        if self.dataset is not None:
            store.get_or_build(self.dataset)
        return {"engine_workers": num_workers}

    def save_artifact(self, directory, value) -> None:
        (directory / "value.json").write_text(json.dumps(value))

    def load_artifact(self, directory, store):
        return json.loads((directory / "value.json").read_text())


class TestEngineSplitRecompute:
    def test_concurrent_labelers_split_engine_budget(self, tmp_path):
        # Two dependency-free labelers are both in the first ready wave, so
        # each submission sees the other (ready or in flight) and takes half
        # the engine budget.
        store = ArtifactStore(tmp_path / "store")
        labelers = tuple(_ProbeWorkload(tag=f"w{i}") for i in range(2))
        outcome = PipelineRunner(store=store, num_workers=4).run(
            ExperimentSpec(name="split-now", extra_stages=labelers)
        )
        widths = sorted(
            outcome.values[labeler.spec_hash]["engine_workers"] for labeler in labelers
        )
        assert widths == [2, 2]

    def test_lone_later_labeler_gets_full_engine_width(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        early = _ProbeWorkload(tag="early")
        later = _ProbeWorkload(
            tag="late", dataset=_ProbeDataset(tag="late", build_seconds=0.4)
        )
        outcome = PipelineRunner(store=store, num_workers=4).run(
            ExperimentSpec(name="split-later", extra_stages=(early, later))
        )
        # Wave 1: the early labeler runs alongside only the late *dataset*
        # build -> no other labeler can overlap -> full engine width.  Wave 2
        # (after the early labeler and the dataset finished): the late
        # labeler is the only stage left -> full width too.  The old static
        # whole-DAG split pinned both to total // 2 forever.
        assert outcome.values[early.spec_hash]["engine_workers"] is None
        assert outcome.values[later.spec_hash]["engine_workers"] is None


# ---------------------------------------------------------------------- #
# Sweep generators
# ---------------------------------------------------------------------- #
class TestSweeps:
    def test_scaled_replica_changes_only_the_database_size(self):
        replica = scaled_replica(TINY, 5000)
        assert replica.num_vectors == 5000
        assert replica.name == "tiny-n5000"
        assert replica.num_queries == TINY.num_queries
        assert replica.selnet_epochs == TINY.selnet_epochs
        with pytest.raises(ValueError):
            scaled_replica(TINY, 0)

    def test_scale_sweep_shares_stages_and_reports_curve(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with use_store(store):
            result = run_scale_sweep(
                "face-cos",
                num_vectors=(300, 600),
                scale=TINY,
                models=("KDE",),
                seed=0,
            )
        assert [row["num_vectors"] for row in result.rows] == [300, 600]
        assert all(row["model"] == "KDE" for row in result.rows)
        assert all("train_cpu_seconds" in row for row in result.rows)
        # one dataset + workload + train + eval per point
        assert len(result.pipeline_report.stages) == 8
        # Growing the curve reuses every stage of the lower points.
        with use_store(store):
            grown = run_scale_sweep(
                "face-cos",
                num_vectors=(300, 600, 900),
                scale=TINY,
                models=("KDE",),
                seed=0,
            )
        replayed = [s for s in grown.pipeline_report.stages if s.cached]
        assert len(replayed) >= 2  # the shared lower-scale terminal stages

    def test_seed_variance_reports_mean_and_std(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with use_store(store):
            result = run_seed_variance(
                "face-cos", scale=TINY, models=("KDE",), seeds=(0, 1)
            )
        (row,) = result.rows
        assert row["seeds"] == [0, 1]
        assert row["mse_std"] >= 0.0
        assert "±" in result.text
        # The dataset stage is shared across seeds: 2 seeds produce
        # 1 dataset + 2 x (workload, train, eval) = 7 stages, not 8.
        assert len(result.pipeline_report.stages) == 7

    def test_cli_sweep_seeds_smoke(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "seeds",
                "--setting",
                "face-cos",
                "--scale",
                "tiny",
                "--models",
                "KDE",
                "--seeds",
                "0,1",
                "--store",
                str(tmp_path / "store"),
                "--stats-json",
                str(tmp_path / "stats.json"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["axis"] == "seeds"
        assert payload["pipeline"]["cache_misses"] > 0
        out = capsys.readouterr().out
        assert "Cross-seed variance" in out
