"""Topological pipeline execution over the artifact store.

:class:`PipelineRunner` takes an :class:`~repro.pipeline.specs.ExperimentSpec`,
deduplicates its spec closure into a DAG (two evals sharing one workload
share one workload *stage*), and materializes every stage through the store
in dependency order.  Independent branches — the per-model training stages
of an accuracy table, the per-setting branches of the ablation study — run
concurrently on a worker pool sized by the same ``num_workers`` conventions
as the exact-selectivity engine (:func:`repro.exact.get_default_num_workers`).

Where that pool lives is the **executor backend** (``executor=``):

``"thread"`` (default)
    Stages run on a thread pool inside this process.  Dependency-free and
    exactly the historical behavior; training branches share the GIL.

``"process"``
    Stages run in dedicated worker processes (one fresh pool per ``run``,
    shut down before ``run`` returns, so no worker outlives it).  A
    lazily built module-global slot in each worker survives both fork and
    spawn start methods without initializer plumbing.  A stage ships as its
    canonical **spec plus dependency hashes** only: the worker rebuilds the
    value through its own :class:`~repro.pipeline.store.ArtifactStore` over
    the shared on-disk root, so no dataset, workload or model is ever
    pickled across the process boundary, and training branches use all
    cores without sharing a GIL.  Requires a persistent store (the store *is*
    the data plane); results are bit-identical to the thread backend.

Stages never wait inside workers: the scheduler submits a stage only once
all of its dependencies completed, so a pool of any width cannot deadlock.
Because every completed stage is persisted by the store before its
dependents start, an interrupted run resumes cleanly — the next run replays
finished stages as cache hits and recomputes only what was in flight.

Two scheduling refinements keep the measurements and the warm path honest:

* **exclusive stages** (``Spec.exclusive``, set on ``EvalSpec``) run alone —
  the scheduler drains the pool first and submits nothing alongside them —
  so the per-query estimation latencies they record (Table 7) are
  contention-free, exactly as in the old sequential harness, while training
  branches still overlap freely with each other;
* **dependency pruning**: a stage whose artifact is already complete in the
  store replays from its own payload, so its upstream closure is not
  scheduled at all — a warm table run reads a handful of evaluation JSONs
  instead of re-materializing datasets, labeled workloads and models.
  (Loading an artifact that itself needs a dependency — e.g. a workload
  split reconstructing its oracle — pulls that dependency on demand through
  ``store.get_or_build``.)

Labeling stages additionally split the exact-engine thread budget between
however many of them can actually overlap — recomputed at every submission
from the live ready/in-flight sets, so a labeler that runs alone in a later
wave gets the full engine width back.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..obs import trace as obstrace
from .specs import ExperimentSpec, Spec, spec_from_canonical
from .store import ArtifactStore, BuildInfo, MANIFEST_FILE

#: labeling-engine build options forwarded to workload stages
ENGINE_OPTION_KEYS = ("num_workers", "block_bytes", "progress")

#: recognised executor backends
EXECUTORS = ("thread", "process")


@dataclass
class StageReport:
    """Outcome of one pipeline stage."""

    name: str
    kind: str
    spec_hash: str
    #: ``False`` when built, ``"memory"`` / ``"disk"`` when served from cache
    cached: Union[bool, str]
    seconds: float
    #: CPU seconds spent by the stage's worker thread (``time.thread_time``
    #: — a cache replay shows ~0, a compute-bound build tracks ``seconds``)
    cpu_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "hash": self.spec_hash,
            "cached": self.cached,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
        }


@dataclass
class PipelineReport:
    """Per-stage wall-clock and cache statistics of one pipeline run."""

    experiment: str
    stages: List[StageReport] = field(default_factory=list)
    total_seconds: float = 0.0
    executor: str = "thread"

    @property
    def cache_hits(self) -> int:
        return sum(1 for stage in self.stages if stage.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for stage in self.stages if not stage.cached)

    @property
    def all_cached(self) -> bool:
        return bool(self.stages) and all(stage.cached for stage in self.stages)

    @property
    def cpu_seconds(self) -> float:
        return sum(stage.cpu_seconds for stage in self.stages)

    def stages_by_kind(self, kind: str) -> List[StageReport]:
        return [stage for stage in self.stages if stage.kind == kind]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "executor": self.executor,
            "total_seconds": self.total_seconds,
            "cpu_seconds": self.cpu_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "all_cached": self.all_cached,
            "stages": [stage.as_dict() for stage in self.stages],
        }

    @staticmethod
    def merged(name: str, reports) -> Optional["PipelineReport"]:
        """One report covering several pipeline runs (multi-setting tables /
        figures); ``None`` entries are skipped, all-``None`` gives ``None``."""
        present = [report for report in reports if report is not None]
        if not present:
            return None
        combined = PipelineReport(experiment=name, executor=present[0].executor)
        for report in present:
            combined.stages.extend(report.stages)
            combined.total_seconds += report.total_seconds
        return combined

    @property
    def text(self) -> str:
        lines = [
            f"pipeline {self.experiment}: {len(self.stages)} stages "
            f"[{self.executor}], {self.cache_hits} cached / "
            f"{self.cache_misses} built, {self.total_seconds:.2f} s"
        ]
        for stage in self.stages:
            source = stage.cached if stage.cached else "built"
            lines.append(
                f"  {stage.name:<44} {source:>7} {stage.seconds:>9.3f} s  [{stage.spec_hash}]"
            )
        return "\n".join(lines)


@dataclass
class PipelineOutcome:
    """Values plus the report of one :meth:`PipelineRunner.run`."""

    experiment: ExperimentSpec
    values: Dict[str, Any]
    report: PipelineReport

    def value(self, spec: Spec) -> Any:
        return self.values[spec.spec_hash]


def _default_stage_workers() -> int:
    from ..exact import get_default_num_workers

    return get_default_num_workers()


# ---------------------------------------------------------------------- #
# Process-executor worker side.
#
# A module-global slot built lazily from the arguments shipped with the
# first task, so the same code survives fork and spawn start methods.  One ArtifactStore per
# root keeps a worker's disk-replayed artifacts warm across the stages it
# executes — the workload split loaded for one training stage is reused by
# the next model trained in the same worker, without any cross-process
# value traffic.
# ---------------------------------------------------------------------- #
_WORKER_STORES: Dict[str, ArtifactStore] = {}


def _worker_store(root: str) -> ArtifactStore:
    store = _WORKER_STORES.get(root)
    if store is None:
        store = ArtifactStore(root)
        _WORKER_STORES[root] = store
    return store


def _process_stage(
    store_root: str,
    payload: Dict[str, Any],
    dep_hashes: Dict[str, str],
    options: Dict[str, Any],
    trace_config: Optional[Dict[str, Any]],
    trace_id: Optional[str],
) -> Tuple[BuildInfo, float]:
    """One stage build inside a worker process.

    The stage arrives as its canonical spec payload plus the hashes of its
    dependencies; the value is built through (and persisted by) the shared
    on-disk store and **never** shipped back — the parent reads terminal
    values from the store, interior values stay where they were built.
    """
    if trace_config and obstrace.get_sink() is None:
        obstrace.configure_tracing(
            trace_config["path"],
            trace_config.get("sample", 1.0),
            role="pipeline-worker",
        )
    spec = spec_from_canonical(payload)
    store = _worker_store(store_root)
    if not store.contains(spec):
        # The scheduler only submits a stage once its dependencies are
        # complete; verify before building so a coordination bug surfaces
        # as a loud invariant violation instead of a silent (and possibly
        # enormous) in-worker rebuild of an upstream artifact.
        missing = {
            dep_hash: kind
            for dep_hash, kind in dep_hashes.items()
            if not (store.root / kind / dep_hash / MANIFEST_FILE).is_file()
        }
        if missing:
            raise RuntimeError(
                f"pipeline worker asked to build {spec.describe()} but its "
                f"dependencies are not in the store: {missing}"
            )
    cpu_start = time.thread_time()
    with obstrace.span(
        "pipeline.stage", trace_id=trace_id, kind=spec.kind, spec=spec.spec_hash
    ) as fields:
        _, info = store.get_or_build_info(spec, **options)
        fields["cached"] = info.cached
    return info, time.thread_time() - cpu_start


class PipelineRunner:
    """Schedules an experiment DAG over an :class:`ArtifactStore`.

    Parameters
    ----------
    store:
        Artifact store; a fresh memory-only store when omitted (pure
        compute, nothing persisted — the library default).
    num_workers:
        Stage-level worker-pool width (``None`` = the exact-engine default).
        Only *independent* stages overlap; dependency order is always
        respected, and results are independent of the pool width.
    engine_options:
        Labeling-engine tuning forwarded to workload stages
        (``num_workers`` / ``block_bytes`` / ``progress``); never part of
        any spec hash.
    executor:
        ``"thread"`` (default) or ``"process"`` — see the module
        docstring.  The process executor requires a persistent store.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        num_workers: Optional[int] = None,
        engine_options: Optional[Dict[str, Any]] = None,
        executor: Optional[str] = None,
    ) -> None:
        self.store = store if store is not None else ArtifactStore.memory()
        self.num_workers = num_workers
        self.executor = executor if executor is not None else "thread"
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}"
            )
        if self.executor != "thread" and not self.store.persistent:
            raise ValueError(
                f"executor={self.executor!r} coordinates stages through the "
                "on-disk store; use a persistent ArtifactStore(root=...) "
                "(a memory-only store cannot be shared across processes)"
            )
        self.engine_options = {
            key: value
            for key, value in (engine_options or {}).items()
            if key in ENGINE_OPTION_KEYS and value is not None
        }

    def _make_pool(self, max_workers: int):
        """A fresh stage pool for one run (shut down when the run ends)."""
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=max_workers)
        return ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix="repro-pipeline")

    # ------------------------------------------------------------------ #
    def run(self, experiment: ExperimentSpec) -> PipelineOutcome:
        """Materialize every stage of ``experiment``; returns values + report."""
        nodes, dependents, indegree, order_index = self._build_dag(experiment)
        report = PipelineReport(experiment=experiment.name, executor=self.executor)
        values: Dict[str, Any] = {}
        # One trace per run, so stage spans in the sink share a trace ID
        # (pool threads don't inherit the context var — passed explicitly).
        trace_id = obstrace.new_trace_id() if obstrace.tracing_enabled() else None
        start = time.perf_counter()

        if not nodes:
            report.total_seconds = time.perf_counter() - start
            return PipelineOutcome(experiment, values, report)

        max_workers = self.num_workers or _default_stage_workers()
        max_workers = max(1, min(int(max_workers), len(nodes)))
        engine_total = (
            int(self.num_workers) if self.num_workers else _default_stage_workers()
        )

        ready = sorted(
            (key for key, degree in indegree.items() if degree == 0),
            key=order_index.__getitem__,
        )
        in_flight: Dict[Future, str] = {}
        exclusive_in_flight = False
        failure: Optional[BaseException] = None
        remote = self.executor != "thread"

        def stage_options(spec: Spec) -> Dict[str, Any]:
            # Workload-labeling stages spawn their own exact-engine thread
            # pools; when several can overlap on the stage pool, split the
            # engine budget between them instead of oversubscribing the
            # cores with pool-width x engine-width GEMM threads.  The split
            # is recomputed at every submission from the *live* ready and
            # in-flight sets, so a labeler running alone in a later wave
            # (after the first wave completed) gets the full engine width —
            # the static whole-DAG count would starve it forever.
            options = dict(self.engine_options)
            if (
                spec.kind == "workload"
                and "num_workers" not in options
                and max_workers > 1
            ):
                overlapping = (
                    1
                    + sum(1 for k in in_flight.values() if nodes[k].kind == "workload")
                    + sum(1 for k in ready if nodes[k].kind == "workload")
                )
                concurrent_labelers = min(max_workers, overlapping)
                if concurrent_labelers > 1:
                    options["num_workers"] = max(1, engine_total // concurrent_labelers)
            return options

        def submit(pool, spec: Spec) -> Future:
            options = stage_options(spec)
            if remote:
                return pool.submit(
                    _process_stage,
                    str(self.store.root),
                    spec.canonical(),
                    {dep.spec_hash: dep.kind for dep in spec.dependencies()},
                    options,
                    obstrace.trace_config(),
                    trace_id,
                )
            return pool.submit(self._run_stage, spec, options, trace_id)

        def submit_ready(pool) -> None:
            # Prefer non-exclusive stages to keep the pool busy; an exclusive
            # stage (timing-sensitive evaluation) is submitted only into a
            # drained pool and blocks further submissions until it finishes.
            nonlocal exclusive_in_flight
            while ready and failure is None and not exclusive_in_flight:
                index = next(
                    (i for i, key in enumerate(ready) if not nodes[key].exclusive),
                    None,
                )
                if index is None:
                    if in_flight:
                        return  # exclusive-only ready set: wait for quiet
                    index = 0
                    exclusive_in_flight = True
                key = ready.pop(index)
                in_flight[submit(pool, nodes[key])] = key

        pool = self._make_pool(max_workers)
        try:
            while ready or in_flight:
                submit_ready(pool)
                if not in_flight:
                    break
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    key = in_flight.pop(future)
                    if nodes[key].exclusive:
                        exclusive_in_flight = False
                    try:
                        if remote:
                            info, cpu_seconds = future.result()
                        else:
                            value, info, cpu_seconds = future.result()
                            values[key] = value
                    except BaseException as error:  # noqa: BLE001 - re-raised below
                        failure = failure or error
                        continue
                    report.stages.append(
                        StageReport(
                            name=info.description,
                            kind=info.kind,
                            spec_hash=info.spec_hash,
                            cached=info.cached,
                            seconds=info.seconds,
                            cpu_seconds=cpu_seconds,
                        )
                    )
                    for dependent in dependents[key]:
                        indegree[dependent] -= 1
                        if indegree[dependent] == 0:
                            ready.append(dependent)
                    ready.sort(key=order_index.__getitem__)
        finally:
            pool.shutdown(wait=True)

        if failure is None and remote:
            # Workers persisted every artifact but shipped no values; load
            # only what the caller consumes — the experiment's terminal
            # stages — from the store (pure disk/memory hits).  Interior
            # values (datasets, workloads, models) never reach the driver.
            for spec in experiment.dependencies():
                values[spec.spec_hash] = self.store.get_or_build(spec)

        report.total_seconds = time.perf_counter() - start
        if failure is not None:
            raise failure
        return PipelineOutcome(experiment, values, report)

    # ------------------------------------------------------------------ #
    def _run_stage(
        self,
        spec: Spec,
        options: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Tuple[Any, BuildInfo, float]:
        """One stage build, with a CPU timer and an optional trace span.

        ``time.thread_time`` is per-thread, and a stage runs wholly on its
        pool thread, so the delta is *this stage's* CPU even while other
        stages overlap on the pool.
        """
        cpu_start = time.thread_time()
        with obstrace.span(
            "pipeline.stage", trace_id=trace_id, kind=spec.kind, spec=spec.spec_hash
        ) as fields:
            value, info = self.store.get_or_build_info(
                spec, **(self.engine_options if options is None else options)
            )
            fields["cached"] = info.cached
        return value, info, time.thread_time() - cpu_start

    def _build_dag(self, experiment: ExperimentSpec):
        """Deduplicated spec closure as (nodes, dependents, indegree, order).

        A stage whose artifact is already complete in the store contributes
        no dependency edges: replaying it reads its own payload, so its
        upstream closure is pruned from the DAG entirely (warm runs touch
        only the artifacts actually consumed).
        """
        nodes: Dict[str, Spec] = {}
        dependents: Dict[str, List[str]] = {}
        indegree: Dict[str, int] = {}
        order_index: Dict[str, int] = {}

        def visit(spec: Spec) -> str:
            key = spec.spec_hash
            if key in nodes:
                return key
            nodes[key] = spec
            dependents.setdefault(key, [])
            deps = () if self.store.contains(spec) else spec.dependencies()
            indegree[key] = len(deps)
            for dep in deps:
                dep_key = visit(dep)
                dependents[dep_key].append(key)
            # Post-order numbering: dependencies are numbered before their
            # dependents, giving the serial scheduler a deterministic,
            # dependency-respecting order.
            order_index[key] = len(order_index)
            return key

        for stage in experiment.dependencies():
            visit(stage)
        return nodes, dependents, indegree, order_index


__all__ = [
    "PipelineRunner",
    "PipelineOutcome",
    "PipelineReport",
    "StageReport",
    "ENGINE_OPTION_KEYS",
    "EXECUTORS",
]
