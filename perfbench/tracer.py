"""In-memory span recording for the traced benchmark run.

The traced run wraps public functions of ``repro`` from here, without
touching the package: each wrapped call records one span
``[name, start, end, parent]`` in a list kept in memory. Times are
``time.perf_counter()`` seconds and ``parent`` is the index of the
enclosing span (-1 for a root). Spans are only ever opened on the
benchmark's main thread, so one stack gives every span its parent.

A training step has no function of its own, so ``Adam.zero_grad`` opens a
``train.step`` span and the matching ``Adam.step`` closes it after the
``nn.optimizer`` span inside it.
"""

from __future__ import annotations

import functools
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

NAME, START, END, PARENT = range(4)


class Recorder:
    """Spans of one benchmark cycle, plus the attributes some spans carry."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.attrs: Dict[int, dict] = {}
        self._stack: List[int] = []

    def open(self, name: str, **attrs) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        if attrs:
            self.attrs[index] = attrs
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        # Pop through any span left open by an exception inside it.
        while self._stack and self._stack.pop() != index:
            pass

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        index = self.open(name, **attrs)
        try:
            yield index
        finally:
            self.close(index)

    def innermost(self, name: str) -> Optional[int]:
        for index in reversed(self._stack):
            if self.spans[index][NAME] == name:
                return index
        return None

    # ------------------------------------------------------------------ #
    # Queries used by the per-layer metrics
    # ------------------------------------------------------------------ #
    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def within(self, name: str, ancestor: str) -> List[int]:
        """Spans called ``name`` inside a span called ``ancestor``."""
        return [
            index
            for index, span in enumerate(self.spans)
            if span[NAME] == name and self.has_ancestor(index, ancestor)
        ]

    def duration(self, index: int) -> float:
        return self.spans[index][END] - self.spans[index][START]

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            kids.setdefault(span[PARENT], []).append(index)
        return kids


def covered(intervals: Sequence[tuple], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _wrap(owner, attr: str, name: str, recorder: Recorder) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)


def install(recorder: Recorder) -> None:
    """Wrap the public functions named after the layers they belong to."""
    import repro.core.trainer
    import repro.inference
    from repro.autodiff.tensor import Tensor
    from repro.core.partitioned import PartitionedSelNet
    from repro.core.selnet import SelNetModel
    from repro.exact.blocked import BlockedOracle
    from repro.exact.delta import DeltaOracle
    from repro.inference.kernels import CompiledPartitionedSelNet, CompiledSelNet
    from repro.net.client import BinaryClient
    from repro.nn.autoencoder import Autoencoder
    from repro.nn.optim import Adam
    from repro.serving.cache import CurveCache

    _wrap(BlockedOracle, "threshold_profile", "exact.label", recorder)
    # ``SelNetEstimator.fit`` calls the name it imported into the trainer.
    _wrap(repro.core.trainer, "build_partitioning", "index.partition", recorder)
    _wrap(Autoencoder, "pretrain", "nn.ae_pretrain", recorder)
    _wrap(PartitionedSelNet, "forward", "core.forward", recorder)
    _wrap(PartitionedSelNet, "local_outputs", "core.forward", recorder)
    _wrap(SelNetModel, "forward", "core.forward", recorder)
    _wrap(Tensor, "backward", "autodiff.backward", recorder)
    _wrap(repro.core.trainer.SelNetEstimator, "estimate", "core.drift_check", recorder)
    _wrap(DeltaOracle, "apply", "exact.delta_apply", recorder)
    _wrap(DeltaOracle, "selectivities_batch", "exact.relabel", recorder)
    # ``SelectivityEstimator.compiled`` imports this name at call time.
    _wrap(repro.inference, "compile_estimator", "inference.compile", recorder)
    _wrap(CompiledSelNet, "curve_values", "inference.kernel", recorder)
    _wrap(CompiledPartitionedSelNet, "curve_values", "inference.kernel", recorder)

    zero_grad, step = Adam.zero_grad, Adam.step

    @functools.wraps(zero_grad)
    def traced_zero_grad(self):
        recorder.open("train.step")
        return zero_grad(self)

    @functools.wraps(step)
    def traced_step(self):
        try:
            with recorder.span("nn.optimizer"):
                return step(self)
        finally:
            index = recorder.innermost("train.step")
            if index is not None:
                recorder.close(index)

    Adam.zero_grad, Adam.step = traced_zero_grad, traced_step

    cache_get = CurveCache.get

    @functools.wraps(cache_get)
    def traced_cache_get(self, *args, **kwargs):
        index = recorder.open("serving.cache_lookup")
        try:
            curve = cache_get(self, *args, **kwargs)
        finally:
            recorder.close(index)
        recorder.attrs[index] = {"hit": curve is not None}
        return curve

    CurveCache.get = traced_cache_get

    client_estimate = BinaryClient.estimate

    @functools.wraps(client_estimate)
    def traced_client_estimate(self, *args, **kwargs):
        # The ID joins this span to the server and shard spans that
        # ``repro serve --trace-out`` writes for the same request.
        trace_id = uuid.uuid4().hex[:16]
        with recorder.span("net.roundtrip", trace_id=trace_id):
            return client_estimate(self, *args, trace_id=trace_id, **kwargs)

    BinaryClient.estimate = traced_client_estimate
