"""Command-line interface: paper reproductions plus the estimator lifecycle.

Usage::

    repro list                                  # available experiments
    repro table 3                               # Table 3 (face-cos accuracy)
    repro table accuracy                        # alias for table 1
    repro table 6 --scale tiny                  # ablation at the tiny scale
    repro figure 4 --output fig4.txt

    repro run accuracy                          # pipeline run (store-cached)
    repro run smoke --expect-all-cached         # CI warm-cache assertion
    repro artifacts list                        # what the store holds
    repro artifacts gc --older-than-days 30     # evict stale artifacts

    repro models                                # the estimator registry
    repro train selnet --setting face-cos --scale tiny --out models/selnet-faces
    repro estimate models/selnet-faces          # evaluate a saved estimator
    repro infer-bench models/selnet-faces --output BENCH_inference.json
    repro oracle-bench --n 50000 --dim 128 --num-workers 4 --output BENCH_oracle.json

    repro serve --from-store .repro-artifacts --port 8585 --shards 2
    repro saturate models/selnet-faces --output BENCH_net.json

(``repro`` is the console script installed by ``setup.py``; ``python -m
repro`` and ``python -m repro.cli`` are equivalent.)  The experiment
commands (``run`` / ``table`` / ``figure``) execute spec-driven pipelines
against a content-addressed artifact store (:mod:`repro.pipeline`) —
default root ``$REPRO_ARTIFACTS`` or ``.repro-artifacts``, disable with
``--no-store`` — so repeated runs replay cached datasets, labeled workloads
and trained models instead of recomputing them.  The lifecycle commands are
thin consumers of :mod:`repro.registry`, :mod:`repro.persistence` and
:mod:`repro.serving`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from . import experiments
from .experiments import get_scale


def _accuracy_table(setting: str, **fixed):
    return lambda **kw: experiments.run_accuracy_table(setting, **fixed, **kw)


#: table number -> (description, runner taking scale/seed/worker kwargs); the
#: drivers resolve on first call (``repro.experiments`` loads them lazily), so
#: ``repro serve`` and the lifecycle commands never import them
TABLE_RUNNERS: Dict[int, tuple] = {
    1: ("Accuracy on fasttext-cos", _accuracy_table("fasttext-cos")),
    2: ("Accuracy on fasttext-l2", _accuracy_table("fasttext-l2")),
    3: ("Accuracy on face-cos", _accuracy_table("face-cos")),
    4: ("Accuracy on YouTube-cos", _accuracy_table("youtube-cos")),
    5: ("Empirical monotonicity", lambda **kw: experiments.run_monotonicity_table(**kw)),
    6: ("Ablation study", lambda **kw: experiments.run_ablation_table(**kw)),
    7: ("Estimation time", lambda **kw: experiments.run_timing_table(**kw)),
    8: ("Control-point sweep", lambda **kw: experiments.run_control_point_sweep(**kw)),
    9: ("Partition-size sweep", lambda **kw: experiments.run_partition_size_sweep(**kw)),
    10: ("Partitioning methods", lambda **kw: experiments.run_partition_method_table(**kw)),
    11: (
        "Beta-distributed thresholds",
        _accuracy_table("fasttext-cos", threshold_distribution="beta"),
    ),
}

#: human-friendly table aliases (``repro table accuracy``)
TABLE_ALIASES: Dict[str, int] = {
    "accuracy": 1,
    "fasttext-cos": 1,
    "fasttext-l2": 2,
    "face-cos": 3,
    "youtube-cos": 4,
    "monotonicity": 5,
    "ablation": 6,
    "timing": 7,
    "control-points": 8,
    "partition-size": 9,
    "partition-methods": 10,
    "beta-thresholds": 11,
    "beta": 11,
}

FIGURE_RUNNERS: Dict[int, tuple] = {
    3: (
        "DLN vs SelNet on exp(t)/10",
        lambda scale=None, seed=0, **kw: experiments.figure3_dln_vs_selnet(seed=seed),
    ),
    4: ("Learned control points", lambda **kw: experiments.figure4_control_points(**kw)),
    5: ("Accuracy under updates", lambda **kw: experiments.figure5_updates(**kw)),
}


#: the smoke experiment always runs at this scale, whatever --scale says
SMOKE_SCALE = "tiny"


def _smoke_experiment(scale=None, **kw):
    """Tiny end-to-end pipeline experiment for CI (seconds, two models)."""
    return experiments.run_accuracy_table(
        "face-cos", scale=get_scale(SMOKE_SCALE), models=("KDE", "LightGBM-m"), **kw
    )


#: ``repro run`` experiment catalog: name -> (description, runner)
EXPERIMENTS: Dict[str, tuple] = {}
for _number, (_description, _runner) in TABLE_RUNNERS.items():
    EXPERIMENTS[f"table{_number}"] = (_description, _runner)
for _number, (_description, _runner) in FIGURE_RUNNERS.items():
    EXPERIMENTS[f"figure{_number}"] = (_description, _runner)
for _alias, _number in TABLE_ALIASES.items():
    EXPERIMENTS.setdefault(_alias, TABLE_RUNNERS[_number])
EXPERIMENTS["smoke"] = ("Tiny end-to-end pipeline smoke experiment", _smoke_experiment)


# ---------------------------------------------------------------------- #
# Shared parent parsers (one definition for every subcommand)
# ---------------------------------------------------------------------- #
def _positive_int(raw: str) -> int:
    """argparse type: a strictly positive integer (clean error, no traceback)."""
    value = int(raw)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _parse_size(raw: str) -> int:
    """argparse type: a byte count with an optional binary K/M/G/T suffix."""
    text = raw.strip().upper().removesuffix("IB").removesuffix("B")
    multipliers = {"K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}
    factor = 1
    if text and text[-1] in multipliers:
        factor = multipliers[text[-1]]
        text = text[:-1]
    try:
        value = int(float(text) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {raw!r}")
    return value


def _parse_int_list(raw: str) -> list:
    """Comma-separated integers (``1000,10000``) as a list."""
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {raw!r}") from None



def _engine_parent(num_workers_default: Optional[int] = None) -> argparse.ArgumentParser:
    """``--num-workers`` / ``--block-kib`` / ``--progress`` for every command
    that labels workloads or schedules pipeline stages.

    Each subparser gets its own parent instance — argparse shares action
    objects across ``parents=`` users, so a per-command default override
    (oracle-bench's historical 4 threads) must not leak into the others.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("labeling engine / pipeline")
    group.add_argument(
        "--num-workers",
        type=int,
        default=num_workers_default,
        help="oracle labeling threads and pipeline stage workers (default: auto)",
    )
    group.add_argument(
        "--block-kib",
        type=_positive_int,
        default=None,
        help="labeling-engine block budget in KiB (default: auto)",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="log ground-truth labeling progress to stderr",
    )
    group.add_argument(
        "--executor",
        choices=("thread", "process"),
        default=None,
        help="pipeline execution backend (default: thread; process runs "
        "stages in worker processes and needs an artifact store)",
    )
    return parent


def _seed_parent(default: int = 0) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=default)
    return parent


def _store_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("artifact store")
    group.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store root (default: $REPRO_ARTIFACTS or .repro-artifacts)",
    )
    group.add_argument(
        "--no-store",
        action="store_true",
        help="disable artifact caching for this run",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SelNet reproduction: paper experiments, pipeline, training, serving.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def engine(num_workers_default=None):
        return _engine_parent(num_workers_default)

    def seed0():
        return _seed_parent(0)

    def store():
        return _store_parent()

    subparsers.add_parser("list", help="list the available experiments")

    table_parser = subparsers.add_parser(
        "table",
        help="reproduce one table (1-11, or an alias like 'accuracy')",
        parents=[engine(), seed0(), store()],
    )
    table_parser.add_argument(
        "number",
        choices=[str(number) for number in sorted(TABLE_RUNNERS)] + sorted(TABLE_ALIASES),
        help="table number (1-11) or alias",
    )
    table_parser.add_argument("--scale", default="small", help="tiny, small or medium")
    table_parser.add_argument("--output", default=None, help="also write the table to this file")

    figure_parser = subparsers.add_parser(
        "figure", help="reproduce one figure (3-5)", parents=[engine(), seed0(), store()]
    )
    figure_parser.add_argument("number", type=int, choices=sorted(FIGURE_RUNNERS))
    figure_parser.add_argument("--scale", default="small", help="tiny, small or medium")
    figure_parser.add_argument("--output", default=None, help="also write the figure text to this file")

    run_parser = subparsers.add_parser(
        "run",
        help="run a named experiment through the cached pipeline",
        parents=[engine(), seed0(), store()],
    )
    run_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help=f"experiment name ({', '.join(sorted(EXPERIMENTS))}); defaults to "
        "'smoke' with --smoke",
    )
    run_parser.add_argument("--scale", default="small", help="tiny, small or medium")
    run_parser.add_argument("--output", default=None, help="also write the result text to this file")
    run_parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the tiny CI smoke experiment (overrides the experiment name)",
    )
    run_parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write per-stage wall-clock and cache statistics as JSON",
    )
    run_parser.add_argument(
        "--expect-all-cached",
        action="store_true",
        help="exit non-zero unless every pipeline stage was a cache hit",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a scale sweep (accuracy vs n) or a cross-seed variance run",
        parents=[engine(), seed0(), store()],
    )
    sweep_parser.add_argument(
        "axis",
        choices=("scale", "seeds"),
        help="sweep axis: database size (accuracy-vs-scale curve) or seeds "
        "(mean ± std per table cell)",
    )
    sweep_parser.add_argument(
        "--setting",
        default="face-cos",
        help="fasttext-cos, fasttext-l2, face-cos or youtube-cos",
    )
    sweep_parser.add_argument("--scale", default="small", help="tiny, small or medium (base profile)")
    sweep_parser.add_argument(
        "--models",
        default=None,
        metavar="A,B",
        help="comma-separated model subset (default: KDE,LightGBM-m)",
    )
    sweep_parser.add_argument(
        "--num-vectors",
        type=_parse_int_list,
        default=None,
        metavar="N1,N2,...",
        help="scale axis: database sizes (default: 1000,10000,100000,1000000)",
    )
    sweep_parser.add_argument(
        "--seeds",
        type=_parse_int_list,
        default=None,
        metavar="S1,S2,...",
        help="seed axis: seeds to aggregate over (default: 0,1,2)",
    )
    sweep_parser.add_argument("--output", default=None, help="also write the sweep text to this file")
    sweep_parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write per-stage wall-clock and cache statistics as JSON",
    )
    sweep_parser.add_argument(
        "--expect-all-cached",
        action="store_true",
        help="exit non-zero unless every pipeline stage was a cache hit",
    )

    artifacts_parser = subparsers.add_parser(
        "artifacts", help="inspect or garbage-collect the artifact store"
    )
    # Only --store here: "--no-store" would be a silently ignored contradiction
    # for a command whose entire job is store interaction.
    artifacts_parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact store root (default: $REPRO_ARTIFACTS or .repro-artifacts)",
    )
    artifacts_parser.add_argument("action", choices=("list", "gc", "path", "digest"))
    artifacts_parser.add_argument(
        "--kind",
        action="append",
        default=None,
        choices=("dataset", "workload", "train", "eval"),
        help="restrict to artifact kinds; repeatable",
    )
    artifacts_parser.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        help="gc: only evict artifacts not used for this many days",
    )
    artifacts_parser.add_argument(
        "--max-bytes",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="gc: trim the store to this byte budget, evicting least-recently "
        "used artifacts first (accepts K/M/G/T suffixes, e.g. 2G)",
    )
    artifacts_parser.add_argument(
        "--dry-run", action="store_true", help="gc: report what would be removed"
    )
    artifacts_parser.add_argument(
        "--all",
        action="store_true",
        help="gc: confirm wiping the whole store (required when no filter is given)",
    )
    artifacts_parser.add_argument("--json", action="store_true", help="emit JSON")

    models_parser = subparsers.add_parser(
        "models", help="list registered estimators and their capabilities"
    )
    models_parser.add_argument(
        "--dir", default=None, help="also list the saved models in this directory"
    )
    models_parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    train_parser = subparsers.add_parser(
        "train",
        help="fit a registered estimator on a paper setting and save it",
        parents=[engine(), seed0()],
    )
    train_parser.add_argument("estimator", help="registry name (see `repro models`)")
    train_parser.add_argument("--setting", default="face-cos", help="fasttext-cos, fasttext-l2, face-cos or youtube-cos")
    train_parser.add_argument("--scale", default="tiny", help="tiny, small or medium")
    train_parser.add_argument("--out", required=True, help="directory to save the fitted estimator to")
    train_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="hyper-parameter override (repeatable), e.g. --param epochs=30",
    )

    estimate_parser = subparsers.add_parser(
        "estimate", help="load a saved estimator and evaluate it on its test workload"
    )
    estimate_parser.add_argument("model", help="path to a saved estimator directory")
    estimate_parser.add_argument("--setting", default=None, help="override the recorded setting")
    estimate_parser.add_argument("--scale", default=None, help="override the recorded scale")
    estimate_parser.add_argument("--seed", type=int, default=None, help="override the recorded seed")

    infer_parser = subparsers.add_parser(
        "infer-bench",
        help="benchmark compiled (pure-NumPy) vs graph (autodiff) inference",
        parents=[engine(), seed0()],
    )
    infer_parser.add_argument(
        "models", nargs="+", help="paths to saved estimator directories"
    )
    infer_parser.add_argument(
        "--batch-sizes",
        default="1,16,256,2048",
        help="comma-separated request batch sizes to measure",
    )
    infer_parser.add_argument("--repeats", type=int, default=20, help="timed iterations per arm")
    infer_parser.add_argument("--warmup", type=int, default=3, help="untimed warmup iterations")
    infer_parser.add_argument(
        "--pool",
        choices=("test", "all"),
        default="all",
        help="request pool: the test fold or every workload fold",
    )
    infer_parser.add_argument(
        "--output",
        default=None,
        help="also write the results as JSON (e.g. BENCH_inference.json)",
    )
    infer_parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: small batches and few repeats (parity is always asserted)",
    )
    infer_parser.add_argument(
        "--dtype",
        default="float64",
        help="comma-separated precision tiers to benchmark (float64, float32); "
        "each is gated on its committed budget from repro.inference.precision",
    )

    oracle_parser = subparsers.add_parser(
        "oracle-bench",
        help="benchmark the blocked exact-selectivity engine vs the per-query oracle",
        # historical default: 4 engine threads (the committed BENCH_oracle.json)
        parents=[engine(num_workers_default=4), seed0()],
    )
    oracle_parser.add_argument("--n", type=int, default=50_000, help="database size")
    oracle_parser.add_argument("--dim", type=int, default=128, help="vector dimensionality")
    oracle_parser.add_argument("--queries", type=int, default=100, help="distinct query vectors")
    oracle_parser.add_argument(
        "--thresholds-per-query", type=int, default=40, help="w thresholds per query"
    )
    oracle_parser.add_argument(
        "--distance", default="euclidean", help="euclidean or cosine"
    )
    oracle_parser.add_argument(
        "--delta-ops", type=int, default=20, help="update operations in the delta-replay phase"
    )
    oracle_parser.add_argument(
        "--no-delta", action="store_true", help="skip the delta-replay phase"
    )
    oracle_parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero when the workload-generation speedup falls below this",
    )
    oracle_parser.add_argument(
        "--output",
        default=None,
        help="also write the results as JSON (e.g. BENCH_oracle.json)",
    )
    oracle_parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: small database (the exact-parity gate is always asserted)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve estimators over HTTP (JSON) and a binary TCP protocol",
    )
    serve_parser.add_argument(
        "model_dir",
        nargs="?",
        default=None,
        help="directory of saved estimators to serve (or use --from-store)",
    )
    serve_parser.add_argument(
        "--from-store",
        default=None,
        metavar="DIR",
        help="serve the trained models of this artifact store (its train/ namespace)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8585, help="HTTP port")
    serve_parser.add_argument(
        "--binary-port",
        type=int,
        default=None,
        help="binary-protocol port (default: HTTP port + 1; negative disables)",
    )
    serve_parser.add_argument("--shards", type=int, default=1, help="worker shards")
    serve_parser.add_argument(
        "--backend",
        choices=("inline", "network"),
        default="network",
        help="shard backend (default: network, one worker process per shard)",
    )
    serve_parser.add_argument(
        "--queue-capacity", type=int, default=8, help="bounded per-shard queue size"
    )
    serve_parser.add_argument(
        "--policy",
        choices=("block", "shed"),
        default="block",
        help="admission control when a shard queue is full",
    )
    serve_parser.add_argument(
        "--kernel-dtype",
        choices=("float64", "float32"),
        default=None,
        help="compiled-kernel precision tier inside every shard (default: float64)",
    )
    serve_parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="byte budget for each shard's curve cache (default: unbounded)",
    )
    serve_parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit after this many seconds (default: run until interrupted)",
    )
    serve_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record request spans (frontend + shard workers) to this JSONL file",
    )
    serve_parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="fraction of traces to record, deterministic per trace ID (default: 1.0)",
    )

    top_parser = subparsers.add_parser(
        "top",
        help="live terminal dashboard for a running `repro serve` instance",
    )
    top_parser.add_argument(
        "url",
        nargs="?",
        default="http://127.0.0.1:8585",
        help="base URL of the serve HTTP endpoint (default: http://127.0.0.1:8585)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0, help="seconds between refreshes"
    )
    top_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many polls, failed ones included (default: run until "
        "interrupted); exits 1 when none drew a frame",
    )

    saturate_parser = subparsers.add_parser(
        "saturate",
        help="open-loop saturation benchmark of the network serving tier",
        parents=[seed0()],
    )
    saturate_parser.add_argument("model", help="path to a saved estimator directory")
    saturate_parser.add_argument(
        "--from-store",
        default=None,
        metavar="DIR",
        help="treat MODEL as a model name inside this artifact store's train/ namespace",
    )
    saturate_parser.add_argument(
        "--loads",
        default="250,1000,4000,16000",
        help="comma-separated offered loads (requests/s) to sweep",
    )
    saturate_parser.add_argument(
        "--duration", type=float, default=2.0, help="seconds of traffic per load point"
    )
    saturate_parser.add_argument("--batch", type=int, default=32, help="rows per request batch")
    saturate_parser.add_argument(
        "--connections", type=int, default=4, help="concurrent sender connections"
    )
    saturate_parser.add_argument(
        "--output",
        default=None,
        help="also write the results as JSON (e.g. BENCH_net.json)",
    )
    saturate_parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: short sweeps, small batches",
    )
    saturate_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record request spans (senders, frontend, shard workers) to this JSONL file",
    )
    saturate_parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.01,
        help="fraction of traces to record (default: 0.01 — saturation is high-volume)",
    )

    bench_report_parser = subparsers.add_parser(
        "bench-report",
        help="aggregate every committed BENCH_*.json into one trajectory table",
    )
    bench_report_parser.add_argument(
        "--root",
        default=".",
        help="directory holding the BENCH_*.json artifacts (default: cwd)",
    )
    bench_report_parser.add_argument(
        "--output",
        default=None,
        help="also write the merged reports as one JSON document",
    )
    return parser


# ---------------------------------------------------------------------- #
# Pipeline-backed experiment execution
# ---------------------------------------------------------------------- #
def _block_bytes(args) -> Optional[int]:
    """The --block-kib flag as an engine byte budget (None = auto)."""
    block_kib = getattr(args, "block_kib", None)
    return None if block_kib is None else block_kib * 1024


def _engine_options_from(args) -> Dict:
    """Labeling-engine tuning from the shared parent-parser flags.

    ``--num-workers`` is deliberately NOT copied here for the pipeline
    commands: it feeds the runner's stage pool (and the process-wide engine
    default via ``main``), and the runner derives each labeling stage's
    engine share from that total — pinning it here would bypass the
    anti-oversubscription split and run pool-width x engine-width threads.
    """
    options: Dict = {}
    if _block_bytes(args) is not None:
        options["block_bytes"] = _block_bytes(args)
    if getattr(args, "progress", False):
        options["progress"] = True
    return options


def _store_from(args):
    """The artifact store selected by the shared --store / --no-store flags."""
    from .pipeline import ArtifactStore

    if getattr(args, "no_store", False):
        return None
    return ArtifactStore.from_env(getattr(args, "store", None))


def _execute_experiment(runner: Callable, args):
    """Shared table / figure / run core: resolve the store, activate it,
    execute the runner with the shared-flag kwargs, write ``--output``.

    Returns ``(result, store, elapsed_seconds)``.
    """
    from .pipeline import use_store

    scale = get_scale(args.scale)
    store = _store_from(args)
    executor = getattr(args, "executor", None)
    if executor == "process" and store is None:
        raise SystemExit(
            f"error: --executor {executor} coordinates stages through the "
            "artifact store; drop --no-store"
        )
    started = time.perf_counter()
    with use_store(store):
        result = runner(
            scale=scale,
            seed=args.seed,
            num_workers=getattr(args, "num_workers", None),
            engine_options=_engine_options_from(args),
            executor=executor,
        )
    elapsed = time.perf_counter() - started
    print(result.text)
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(result.text + "\n")
    return result, store, elapsed


def _run_experiment(runner: Callable, args) -> object:
    """``repro table`` / ``repro figure``: execute + one summary line."""
    result, store, _ = _execute_experiment(runner, args)
    report = getattr(result, "pipeline_report", None)
    if report is not None and store is not None:
        print(
            f"[pipeline] {report.cache_hits} cached / {report.cache_misses} built "
            f"stages in {report.total_seconds:.2f} s (store: {store.root})",
            file=sys.stderr,
        )
    return result


def _run_pipeline_command(args, runner: Callable, subject: str, payload: Callable) -> int:
    """The shared body of ``repro run`` and ``repro sweep``.

    Executes ``runner``, prints its pipeline report and store statistics,
    writes ``--stats-json`` (``payload(result)``, the command's own keys,
    plus the timing and cache fields every such run records) and applies
    the ``--expect-all-cached`` warm-store gate, whose messages name
    ``subject``.
    """
    if getattr(args, "no_store", False) and args.expect_all_cached:
        raise SystemExit("error: --expect-all-cached needs an artifact store (drop --no-store)")

    result, store, elapsed = _execute_experiment(runner, args)

    report = getattr(result, "pipeline_report", None)
    stats = None if store is None else store.stats
    if report is not None:
        print(report.text, file=sys.stderr)
    if stats is not None:
        print(
            f"[store] {stats.hits} hits ({stats.hits_disk} disk) / {stats.misses} misses "
            f"at {store.root}",
            file=sys.stderr,
        )

    if args.stats_json:
        document = {
            **payload(result),
            "elapsed_seconds": elapsed,
            "store": None if store is None else str(store.root),
            "store_stats": None if stats is None else stats.as_dict(),
            "pipeline": None if report is None else report.as_dict(),
            "all_cached": stats is not None and stats.misses == 0,
        }
        with open(args.stats_json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.stats_json}")

    if args.expect_all_cached and stats is not None:
        if stats.misses > 0:
            raise SystemExit(
                f"cache-miss failure: expected a fully warm store but {stats.misses} "
                f"stage(s) had to be built (stats: {stats.as_dict()})"
            )
        if stats.hits == 0:
            # 0 hits / 0 misses means the run never touched the store; a
            # warm-cache assertion over it would pass vacuously forever.
            raise SystemExit(
                f"cache-assertion failure: {subject} ran no store-backed stages, "
                "so --expect-all-cached cannot attest anything"
            )
    return 0


def _cmd_run(args) -> int:
    name = "smoke" if args.smoke else args.experiment
    if name is None:
        raise SystemExit("error: name an experiment (or pass --smoke); see `repro list`")
    key = name.lower()
    if key not in EXPERIMENTS:
        raise SystemExit(
            f"error: unknown experiment {name!r}; choose from {', '.join(sorted(EXPERIMENTS))}"
        )
    description, runner = EXPERIMENTS[key]

    def payload(result) -> Dict:
        return {
            "experiment": key,
            "description": description,
            # The smoke experiment pins its scale regardless of --scale;
            # record what actually ran.
            "scale": SMOKE_SCALE if key == "smoke" else get_scale(args.scale).name,
            "seed": args.seed,
        }

    return _run_pipeline_command(args, runner, f"experiment {key!r}", payload)


def _cmd_sweep(args) -> int:
    from .experiments import run_scale_sweep, run_seed_variance
    from .experiments.sweeps import (
        DEFAULT_SCALE_POINTS,
        DEFAULT_SWEEP_MODELS,
        DEFAULT_VARIANCE_SEEDS,
    )

    models = (
        DEFAULT_SWEEP_MODELS
        if args.models is None
        else tuple(part.strip() for part in args.models.split(",") if part.strip())
    )
    if args.axis == "scale":
        points = args.num_vectors or list(DEFAULT_SCALE_POINTS)

        def runner(**kw):
            return run_scale_sweep(args.setting, num_vectors=points, models=models, **kw)

    else:
        seeds = args.seeds or list(DEFAULT_VARIANCE_SEEDS)

        def runner(**kw):
            return run_seed_variance(args.setting, models=models, seeds=seeds, **kw)

    def payload(result) -> Dict:
        return {
            "sweep": result.sweep_id,
            "axis": args.axis,
            "description": result.description,
            "scale": get_scale(args.scale).name,
            "rows": result.rows,
        }

    return _run_pipeline_command(args, runner, "the sweep", payload)


def _eval_digests(store) -> Dict[str, str]:
    """SHA-256 per eval artifact over its deterministic content.

    Wall-clock measurement fields (``EvalSpec.TIMING_FIELDS``) are excluded:
    they differ across *any* two runs, while everything the estimator
    computed must be byte-identical across executors / machines — this is
    the digest CI compares between the thread- and process-backend stores.
    """
    import hashlib

    from .pipeline.specs import EvalSpec

    digests: Dict[str, str] = {}
    for entry in store.list_artifacts(["eval"]):
        path = store.root / "eval" / entry["hash"] / "evaluation.json"
        payload = json.loads(path.read_text())
        canonical = json.dumps(
            EvalSpec.deterministic_payload(payload), sort_keys=True
        )
        digests[entry["hash"]] = hashlib.sha256(canonical.encode()).hexdigest()
    return digests


def _cmd_artifacts(args) -> int:
    from .pipeline import ArtifactStore

    store = ArtifactStore.from_env(args.store)
    if args.action == "path":
        print(store.root)
        return 0
    if args.action == "gc":
        filtered = (
            args.kind is not None
            or args.older_than_days is not None
            or args.max_bytes is not None
        )
        if not filtered and not (args.all or args.dry_run):
            raise SystemExit(
                "error: a bare gc would delete every artifact; pass --kind / "
                "--older-than-days / --max-bytes to filter, --all to confirm "
                "a full wipe, or --dry-run"
            )
        older_than = (
            None if args.older_than_days is None else args.older_than_days * 86400.0
        )
        summary = store.gc(
            kinds=args.kind,
            older_than_seconds=older_than,
            max_bytes=args.max_bytes,
            dry_run=args.dry_run,
        )
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            verb = "would remove" if args.dry_run else "removed"
            print(
                f"{verb} {len(summary['removed'])} artifact(s), "
                f"{summary['removed_bytes']} bytes; swept {summary['temp_dirs_swept']} temp dir(s)"
            )
        return 0
    if args.action == "digest":
        digests = _eval_digests(store)
        if args.json:
            print(json.dumps({"store": str(store.root), "evals": digests}, indent=2, sort_keys=True))
        else:
            for spec_hash in sorted(digests):
                print(f"{spec_hash}  {digests[spec_hash]}")
        return 0

    entries = store.list_artifacts(args.kind)
    if args.json:
        print(json.dumps({"store": str(store.root), "artifacts": entries}, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"(no artifacts under {store.root})")
        return 0
    header = f"{'kind':<10} {'hash':<18} {'size':>10} {'built in':>10}  description"
    print(header)
    print("-" * len(header))
    for entry in entries:
        print(
            f"{entry['kind']:<10} {entry['hash']:<18} {entry['size_bytes']:>10} "
            f"{entry['build_seconds']:>9.2f}s  {entry['description']}"
        )
    total_bytes = sum(entry["size_bytes"] for entry in entries)
    print(f"total: {len(entries)} artifact(s), {total_bytes} bytes at {store.root}")
    return 0


# ---------------------------------------------------------------------- #
# Lifecycle commands
# ---------------------------------------------------------------------- #
def _parse_param(raw: str):
    key, sep, value = raw.partition("=")
    if not sep:
        raise SystemExit(f"--param expects KEY=VALUE, got {raw!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _cmd_models(args) -> int:
    from .registry import iter_estimator_specs

    specs = iter_estimator_specs()
    if args.json:
        payload = {"registry": [spec.describe() for spec in specs]}
        if args.dir:
            from .serving import EstimationService

            payload["saved_models"] = EstimationService(args.dir).describe_models()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    header = f"{'name':<14} {'display':<14} {'consistent':<11} {'updates':<8} {'distances':<18} description"
    print(header)
    print("-" * len(header))
    for spec in specs:
        print(
            f"{spec.name:<14} {spec.display_name:<14} "
            f"{'yes' if spec.guarantees_consistency else 'no':<11} "
            f"{'yes' if spec.supports_updates else 'no':<8} "
            f"{','.join(spec.supported_distances):<18} {spec.description}"
        )
    if args.dir:
        from .serving import EstimationService

        described = EstimationService(args.dir).describe_models()
        print(f"\nsaved models in {args.dir}:")
        if not described:
            print("  (none)")
        for name, metadata in described.items():
            trained_on = metadata.get("metadata", {})
            extra = ""
            if trained_on:
                extra = (
                    f"  [setting={trained_on.get('setting', '?')}"
                    f" scale={trained_on.get('scale', '?')}"
                    f" seed={trained_on.get('seed', '?')}]"
                )
            print(f"  {name:<20} {metadata.get('name', '?'):<14} {metadata.get('class', '')}{extra}")
    return 0


def _build_split_for(
    setting: str,
    scale_name: str,
    seed: int,
    num_workers: Optional[int] = None,
    block_bytes: Optional[int] = None,
    progress: bool = False,
):
    from .eval.harness import build_setting_split

    scale = get_scale(scale_name)
    return scale, build_setting_split(
        setting,
        scale,
        seed=seed,
        num_workers=num_workers,
        block_bytes=block_bytes,
        progress=progress or None,
    )


def _metrics_line(estimator, workload, label: str) -> str:
    from .eval.metrics import compute_error_metrics

    estimates = estimator.estimate(workload.queries, workload.thresholds)
    metrics = compute_error_metrics(estimates, workload.selectivities)
    return (
        f"  {label:<11} mse {metrics.mse:>12.2f}   mae {metrics.mae:>10.2f}   "
        f"mape {metrics.mape:>8.3f}   ({len(workload)} rows)"
    )


def _cmd_train(args) -> int:
    from .registry import create_estimator, get_estimator_spec

    try:
        spec = get_estimator_spec(args.estimator)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}")
    scale, split = _build_split_for(
        args.setting,
        args.scale,
        args.seed,
        num_workers=args.num_workers,
        block_bytes=_block_bytes(args),
        progress=bool(args.progress),
    )
    if not spec.supports_distance(split.distance.name):
        raise SystemExit(
            f"{spec.name} does not support the {split.distance.name} distance of {args.setting}"
        )
    params = spec.params_for_scale(scale, split.dataset.num_vectors)
    params["seed"] = args.seed
    for raw in args.param:
        key, value = _parse_param(raw)
        params[key] = value

    estimator = create_estimator(spec.name, **params)
    print(f"training {spec.display_name} on {args.setting} [{scale.name} scale]...")
    start = time.perf_counter()
    estimator.fit(split)
    fit_seconds = time.perf_counter() - start
    print(f"fitted in {fit_seconds:.1f} s")
    print(_metrics_line(estimator, split.validation, "validation:"))
    print(_metrics_line(estimator, split.test, "test:"))

    estimator.save(
        args.out,
        metadata={
            "estimator": spec.name,
            "setting": args.setting,
            "scale": scale.name,
            "seed": args.seed,
            "fit_seconds": fit_seconds,
        },
    )
    print(f"saved to {args.out}")
    return 0


def _recorded_training(model_path: str) -> Dict:
    from .persistence import read_metadata

    try:
        return read_metadata(model_path).get("metadata", {})
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(f"error: {error}")


def _cmd_estimate(args) -> int:
    from .estimator import SelectivityEstimator

    recorded = _recorded_training(args.model)
    setting = args.setting or recorded.get("setting")
    scale_name = args.scale or recorded.get("scale")
    seed = args.seed if args.seed is not None else recorded.get("seed", 0)
    if setting is None or scale_name is None:
        raise SystemExit(
            f"{args.model} does not record its training setting/scale; "
            "pass --setting and --scale explicitly"
        )

    estimator = SelectivityEstimator.load(args.model)
    _, split = _build_split_for(setting, scale_name, seed)
    print(
        f"{estimator.name} on {setting} [{scale_name} scale, seed {seed}] "
        f"(consistent: {'yes' if estimator.guarantees_consistency else 'no'}, "
        f"updates: {'yes' if estimator.supports_updates else 'no'})"
    )
    print(_metrics_line(estimator, split.validation, "validation:"))
    print(_metrics_line(estimator, split.test, "test:"))
    return 0


def _bench_split(model_path: Path, args=None):
    recorded = _recorded_training(model_path)
    setting = recorded.get("setting")
    scale_name = recorded.get("scale")
    seed = recorded.get("seed", 0)
    if setting is None or scale_name is None:
        raise SystemExit(
            f"{model_path} does not record its training setting/scale, cannot "
            "regenerate a request workload"
        )
    _, split = _build_split_for(
        setting,
        scale_name,
        seed,
        num_workers=getattr(args, "num_workers", None),
        block_bytes=_block_bytes(args),
        progress=bool(getattr(args, "progress", False)),
    )
    return split


def _bench_pool(split, pool: str):
    """The benchmark's (queries, thresholds) request pool."""
    import numpy as np

    if pool == "test":
        return split.test.queries, split.test.thresholds
    folds = (split.train, split.validation, split.test)
    return (
        np.concatenate([fold.queries for fold in folds]),
        np.concatenate([fold.thresholds for fold in folds]),
    )


def _store_model_path(store_root: str, model_name: str):
    """The saved-model directory for ``model_name`` inside an artifact store."""
    from .persistence import SIDECAR_FILE
    from .pipeline import ArtifactStore

    store = ArtifactStore(store_root)
    models_dir = store.models_dir()
    model_path = models_dir / model_name
    if not (model_path / SIDECAR_FILE).is_file():
        available = sorted(
            child.name
            for child in (models_dir.iterdir() if models_dir.is_dir() else [])
            if not child.name.startswith(".") and (child / SIDECAR_FILE).is_file()
        )
        raise SystemExit(
            f"no model {model_name!r} in store {store_root} "
            f"(train/ holds: {available or 'nothing'})"
        )
    return store, model_path


def _resolve_bench_model(args):
    """The benchmark's ``(model_path, split)``, honoring ``--from-store``.

    With ``--from-store`` the positional MODEL is a model name inside the
    store's ``train/`` namespace; the workload it was fitted on is rebuilt
    from the ``pipeline_spec`` its sidecar records (a store cache hit when
    the workload artifact still exists — no recomputation).
    """
    if getattr(args, "from_store", None):
        from .pipeline import spec_from_canonical, use_store

        store, model_path = _store_model_path(args.from_store, args.model)
        recorded = _recorded_training(model_path)
        canonical = recorded.get("pipeline_spec")
        if canonical is None:
            raise SystemExit(
                f"{model_path} does not record a pipeline spec; cannot rebuild "
                "its workload (was it trained via `repro train` instead of the "
                "pipeline?)"
            )
        train_spec = spec_from_canonical(canonical)
        with use_store(store):
            split = store.get_or_build(
                train_spec.workload,
                num_workers=getattr(args, "num_workers", None),
                block_bytes=_block_bytes(args),
                progress=bool(getattr(args, "progress", False)) or None,
            )
        return model_path, split
    model_path = Path(args.model)
    return model_path, _bench_split(model_path, args)


def _write_stats_json(path: str, payload) -> None:
    from .persistence import _jsonify

    target = Path(path)
    target.write_text(json.dumps(_jsonify(payload), indent=2) + "\n")
    print(f"wrote {target}")


def _cmd_infer_bench(args) -> int:
    from .estimator import SelectivityEstimator
    from .inference import (
        InferenceBenchmarkReport,
        parse_tier,
        run_inference_benchmark,
        write_benchmark_json,
    )

    if args.smoke:
        batch_sizes = (1, 64)
        repeats, warmup = 5, 1
    else:
        try:
            batch_sizes = tuple(int(part) for part in args.batch_sizes.split(",") if part)
        except ValueError:
            raise SystemExit(f"--batch-sizes expects comma-separated integers, got {args.batch_sizes!r}")
        repeats, warmup = args.repeats, args.warmup

    tier_tokens = [token.strip() for token in args.dtype.split(",") if token.strip()]
    try:
        precisions = [parse_tier(token) for token in tier_tokens]
    except ValueError as error:
        raise SystemExit(str(error))
    if not precisions:
        raise SystemExit("--dtype names no precision tier")
    tiers = [precision.name for precision in precisions]

    report = InferenceBenchmarkReport(
        metadata={
            "batch_sizes": list(batch_sizes),
            "pool": args.pool,
            "seed": args.seed,
            "smoke": bool(args.smoke),
            "dtypes": tiers,
            "models": {},
        }
    )
    for raw_path in args.models:
        model_path = Path(raw_path)
        split = _bench_split(model_path, args)
        queries, thresholds = _bench_pool(split, args.pool)
        estimator = SelectivityEstimator.load(model_path)
        partial = run_inference_benchmark(
            {model_path.name: estimator},
            queries,
            thresholds,
            batch_sizes=batch_sizes,
            repeats=repeats,
            warmup=warmup,
            seed=args.seed,
            dtypes=tiers,
        )
        report.rows.extend(partial.rows)
        report.metadata["models"][model_path.name] = _recorded_training(model_path)
        report.metadata.setdefault("repeats", repeats)
        report.metadata.setdefault("warmup", warmup)

    print(report.text)
    if args.output:
        path = write_benchmark_json(report, args.output)
        print(f"wrote {path}")
    # The per-tier budget gate: float64 answers must match the graph to the
    # absolute bit-parity bound, float32 to its relative budget.
    failures = []
    for precision in precisions:
        tier, budget = precision.name, precision.budget
        if precision.relative:
            deviation = report.max_relative_deviation(tier)
            line = f"parity[{tier}]: max relative deviation = {deviation:.3e} (<= {budget:.1e})"
        else:
            deviation = report.max_deviation(tier)
            line = f"parity: max |compiled - graph| = {deviation:.3e} (<= {budget:.1e})"
        if deviation > budget:
            failures.append(
                f"{tier}: deviation {deviation:.3e} exceeds budget {budget:.1e}"
            )
        else:
            print(line)
    if failures:
        raise SystemExit("parity failure: " + "; ".join(failures))
    return 0


def _cmd_oracle_bench(args) -> int:
    from .exact import run_oracle_benchmark, write_oracle_benchmark_json

    if args.smoke:
        num_objects, dim, num_queries, thresholds_per_query = 4000, 24, 40, 12
        delta_operations = 10
    else:
        num_objects, dim = args.n, args.dim
        num_queries, thresholds_per_query = args.queries, args.thresholds_per_query
        delta_operations = args.delta_ops

    report = run_oracle_benchmark(
        num_objects=num_objects,
        dim=dim,
        num_queries=num_queries,
        thresholds_per_query=thresholds_per_query,
        distance=args.distance,
        num_workers=args.num_workers,
        block_bytes=_block_bytes(args),
        delta_operations=delta_operations,
        include_delta=not args.no_delta,
        seed=args.seed,
    )
    report.metadata["smoke"] = bool(args.smoke)
    print(report.text)
    if args.output:
        path = write_oracle_benchmark_json(report, args.output)
        print(f"wrote {path}")
    if not report.parity_ok():
        raise SystemExit(
            "parity failure: batched engine counts diverge from the per-query reference"
        )
    print("parity: every phase matched the per-query reference exactly")
    if args.min_speedup is not None:
        speedup = report.speedup_for("workload-generation")
        if speedup < args.min_speedup:
            raise SystemExit(
                f"speedup regression: workload-generation {speedup:.2f}x "
                f"< required {args.min_speedup:.2f}x"
            )
    return 0


def _cmd_serve(args) -> int:
    import threading

    from .net import build_server

    if (args.model_dir is None) == (args.from_store is None):
        raise SystemExit("serve needs exactly one of MODEL_DIR or --from-store DIR")
    if args.from_store:
        from .pipeline import ArtifactStore

        model_dir = ArtifactStore(args.from_store).models_dir()
    else:
        model_dir = Path(args.model_dir)
    if not model_dir.is_dir():
        raise SystemExit(f"model directory {model_dir} does not exist")

    if args.binary_port is None:
        binary_port = -1  # HTTP port + 1
    elif args.binary_port < 0:
        binary_port = None  # disabled
    else:
        binary_port = args.binary_port
    if args.trace_out:
        # Before build_server: shard workers inherit the sink config through
        # their spawn arguments, so this must be installed first.
        from .obs import configure_tracing

        configure_tracing(args.trace_out, args.trace_sample, role="main")
    server = build_server(
        model_dir,
        host=args.host,
        port=args.port,
        binary_port=binary_port,
        num_shards=args.shards,
        backend=args.backend,
        queue_capacity=args.queue_capacity,
        overload_policy=args.policy,
        kernel_dtype=args.kernel_dtype,
        cache_max_bytes=args.cache_max_bytes,
    )
    with server:
        # The banner is inside the try: a supervisor that interrupts the
        # server the moment it reads the endpoints line gets a clean exit.
        try:
            host, port = server.http_address
            models = server.app.catalog.available_models()
            print(f"serving {model_dir} on http://{host}:{port}", flush=True)
            if server.binary_address is not None:
                bhost, bport = server.binary_address
                print(f"  binary protocol   : {bhost}:{bport}", flush=True)
            print(f"  backend / shards  : {args.backend} x {args.shards}")
            if args.kernel_dtype or args.cache_max_bytes:
                print(
                    f"  precision         : kernel={args.kernel_dtype or 'float64'} "
                    f"cache_max_bytes={args.cache_max_bytes or 'unbounded'}"
                )
            print(f"  models            : {', '.join(models) if models else '(none found)'}")
            if args.trace_out:
                print(f"  tracing           : {args.trace_out} (sample {args.trace_sample:g})")
            print(
                "  endpoints         : GET /healthz /stats /models /metrics | "
                "POST /estimate /update /models/reload",
                flush=True,
            )
            if args.max_seconds is not None:
                time.sleep(args.max_seconds)
            else:
                threading.Event().wait()
        except KeyboardInterrupt:
            print("interrupted; shutting down")
    return 0


def _cmd_saturate(args) -> int:
    import dataclasses

    from .net.saturate import SaturationScenario, run_saturation_benchmark

    model_path, split = _resolve_bench_model(args)
    queries, thresholds = _bench_pool(split, "all")
    model_dir, model_name = model_path.parent, model_path.name

    if args.trace_out:
        from .obs import configure_tracing

        configure_tracing(args.trace_out, args.trace_sample, role="main")

    if args.smoke:
        loads = (200.0, 800.0)
        duration, batch, connections = 0.5, 16, 2
    else:
        try:
            loads = tuple(float(part) for part in args.loads.split(",") if part)
        except ValueError:
            raise SystemExit(f"--loads expects comma-separated numbers, got {args.loads!r}")
        duration, batch, connections = args.duration, args.batch, args.connections

    scenarios = [
        SaturationScenario(name="fixed-1shard", backend="network", num_shards=1),
        SaturationScenario(name="fixed-2shard", backend="network", num_shards=2),
    ]
    reports = []
    for scenario in scenarios:
        report = run_saturation_benchmark(
            scenario,
            model_name,
            queries,
            thresholds,
            model_dir=model_dir,
            offered_loads=loads,
            duration_seconds=duration,
            batch_size=batch,
            connections=connections,
            seed=args.seed,
        )
        print(report.text, flush=True)
        reports.append(report)

    payload = {
        "metadata": {
            "model": model_name,
            "offered_loads": list(loads),
            "duration_seconds": duration,
            "batch_size": batch,
            "connections": connections,
            "seed": args.seed,
            "smoke": bool(args.smoke),
        },
        "scenarios": [dataclasses.asdict(report) for report in reports],
    }
    if args.output:
        _write_stats_json(args.output, payload)
    if args.trace_out:
        from .obs import read_trace_file

        spans = read_trace_file(args.trace_out)
        traces = {span.get("trace_id") for span in spans}
        print(f"traces: {len(spans)} spans across {len(traces)} traces -> {args.trace_out}")
    return 0


def _cmd_bench_report(args) -> int:
    from .bench_report import bench_report

    print(bench_report(args.root, output=args.output))
    return 0


def _cmd_top(args) -> int:
    from .obs import run_top

    try:
        frames = run_top(args.url, interval=args.interval, iterations=args.iterations)
    except KeyboardInterrupt:
        return 0
    except OSError as error:
        raise SystemExit(f"error: cannot reach {args.url}: {error}")
    return 0 if frames else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("Tables:")
        for number, (description, _) in sorted(TABLE_RUNNERS.items()):
            print(f"  table {number:>2}  {description}")
        print("Figures:")
        for number, (description, _) in sorted(FIGURE_RUNNERS.items()):
            print(f"  figure {number}  {description}")
        print("Experiments (repro run):")
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"  run {name:<18} {description}")
        return 0

    # The shared --num-workers flag also sets the process-wide engine default
    # so code paths that build oracles internally inherit it.  oracle-bench
    # is excluded: its parent carries a historical per-command default of 4
    # that is passed explicitly to the benchmark and must not silently
    # become the global engine default.
    if getattr(args, "num_workers", None) is not None and args.command != "oracle-bench":
        from .exact import set_default_num_workers

        set_default_num_workers(args.num_workers)

    if args.command == "table":
        number = TABLE_ALIASES.get(args.number, None)
        if number is None:
            number = int(args.number)
        _, runner = TABLE_RUNNERS[number]
        _run_experiment(runner, args)
        return 0

    if args.command == "figure":
        _, runner = FIGURE_RUNNERS[args.number]
        _run_experiment(runner, args)
        return 0

    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "artifacts":
        return _cmd_artifacts(args)
    if args.command == "models":
        return _cmd_models(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "infer-bench":
        return _cmd_infer_bench(args)
    if args.command == "oracle-bench":
        return _cmd_oracle_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "saturate":
        return _cmd_saturate(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "bench-report":
        return _cmd_bench_report(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
