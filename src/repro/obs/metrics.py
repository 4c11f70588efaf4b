"""The metrics plane: labeled counters, gauges and histograms in a registry.

Every layer of the serving stack (service → cluster → transport → worker
processes → artifact store) records into a :class:`MetricsRegistry` instead
of a bespoke stat dict.  The registry speaks one schema:

* :class:`Counter` — monotone float totals (``repro_service_requests_total``);
* :class:`Gauge` — point-in-time values with explicit merge semantics
  (``sum`` / ``max`` / ``last``), e.g. queue depths and shard counts;
* :class:`Histogram` — **fixed log-spaced buckets** (Prometheus-style
  cumulative ``le`` counts, so merged cross-process snapshots stay exact)
  plus a **ring of the last** :data:`SNAPSHOT_RING_LIMIT` **raw samples**,
  all of which a snapshot exports.  Every percentile is
  :func:`histogram_percentile` over a snapshot: exact while the ring holds
  every observation, interpolated within the doubling buckets beyond it.

Families are labeled (``labels=("model",)``); ``family.labels(model="kde")``
returns the per-series child whose ``inc`` / ``set`` / ``observe`` are the
hot-path operations (cache the child reference at the call site — label
resolution is a dict lookup, not free).

:meth:`MetricsRegistry.snapshot` freezes the registry into a
:class:`MetricsSnapshot` — a plain-data, picklable, JSON-able value that
crosses process boundaries (shard workers ship theirs back over the
existing control pipe inside ``stats`` replies).  Snapshots support

* :meth:`~MetricsSnapshot.merge` — counters and histogram buckets add,
  gauges combine per their aggregation, rings concatenate (bounded);
* :meth:`~MetricsSnapshot.delta` — what happened *since* an earlier
  snapshot (counters and histograms subtract; gauges keep current values);
* :meth:`~MetricsSnapshot.with_labels` — stamp a label (``shard="3"``)
  onto every series, so per-shard registries merge without colliding;
* :meth:`~MetricsSnapshot.to_prometheus` — the text exposition format the
  ``/metrics`` endpoint serves.
"""

from __future__ import annotations

import math
import resource
import sys
import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: log-spaced latency bucket upper bounds in **seconds**: 0.1 ms .. ~52 s,
#: doubling per bucket (20 buckets; +Inf is implicit)
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = tuple(0.0001 * 2.0 ** i for i in range(20))

#: raw samples a histogram series keeps, and a snapshot exports, for
#: percentiles (keeps cross-process snapshots and /stats payloads small)
SNAPSHOT_RING_LIMIT = 256

#: separator joining label values into a snapshot series key (JSON-safe)
_KEY_SEP = ""


def _label_key(values: Sequence[str]) -> str:
    return _KEY_SEP.join(values)


def _split_key(key: str) -> List[str]:
    return key.split(_KEY_SEP) if key else []


# ---------------------------------------------------------------------- #
# Series (the per-label-set children)
# ---------------------------------------------------------------------- #
class Counter:
    """A monotone total.  ``inc`` is the only mutation."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value; merge semantics live on the family."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution plus a ring of the last
    :data:`SNAPSHOT_RING_LIMIT` raw samples.

    The buckets give mergeable, loss-bounded counts (Prometheus semantics);
    the ring, exported whole, makes :func:`histogram_percentile` exact
    until the series outgrows it.  ``observe`` takes one lock:
    snapshotting reads bucket arrays concurrently with hot-path writers.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_ring", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bucket bounds must be sorted ascending")
        self._counts = [0] * (len(self.bounds) + 1)  # last bucket = +Inf
        self._sum = 0.0
        self._count = 0
        self._ring: Deque[float] = deque(maxlen=SNAPSHOT_RING_LIMIT)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = np.searchsorted(self.bounds, value, side="left")
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._ring.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def _export(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "ring": list(self._ring),
            }


# ---------------------------------------------------------------------- #
# Families
# ---------------------------------------------------------------------- #
_TYPES = ("counter", "gauge", "histogram")
_GAUGE_AGGREGATIONS = ("sum", "max", "last")


class MetricFamily:
    """One named metric with a fixed label schema and many series."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,  # noqa: A002 - prometheus vocabulary
        label_names: Tuple[str, ...],
        **options: Any,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.options = options
        self._series: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(bounds=self.options.get("buckets", DEFAULT_TIME_BUCKETS))

    def labels(self, **labels: str) -> Any:
        """The series child for one label-value assignment (created lazily)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got {tuple(labels)}"
            )
        values = tuple(str(labels[name]) for name in self.label_names)
        child = self._series.get(values)
        if child is None:
            with self._lock:
                child = self._series.setdefault(values, self._make_child())
        return child

    # Label-less conveniences: a family with no labels is its own series.
    def _default(self) -> Any:
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def series(self) -> List[Tuple[Dict[str, str], Any]]:
        """Every (label-dict, child) pair currently in the family."""
        with self._lock:
            items = list(self._series.items())
        return [(dict(zip(self.label_names, values)), child) for values, child in items]

    def _export(self) -> Dict[str, Any]:
        with self._lock:
            items = list(self._series.items())
        exported: Dict[str, Any] = {}
        for values, child in items:
            key = _label_key(values)
            if self.kind == "histogram":
                exported[key] = child._export()
            else:
                exported[key] = child.value
        payload: Dict[str, Any] = {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": exported,
        }
        if self.kind == "gauge":
            payload["aggregation"] = self.options.get("aggregation", "last")
        return payload


class MetricsRegistry:
    """A set of metric families; the unit that snapshots and merges.

    Each component (service, cluster, transport backend, store, app)
    owns its own registry, so two instances in one process never alias
    counters; cross-component and cross-process views are built by merging
    snapshots, stamping distinguishing labels on as needed.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help: str, labels, **options) -> MetricFamily:  # noqa: A002
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, label_names, **options)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != label_names:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {family.label_names}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:  # noqa: A002
        return self._family(name, "counter", help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labels: Sequence[str] = (),
        aggregation: str = "last",
    ) -> MetricFamily:
        if aggregation not in _GAUGE_AGGREGATIONS:
            raise ValueError(f"unknown gauge aggregation {aggregation!r}")
        return self._family(name, "gauge", help, labels, aggregation=aggregation)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> MetricFamily:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds):  # fail at registration, not first observe
            raise ValueError("histogram bucket bounds must be sorted ascending")
        return self._family(name, "histogram", help, labels, buckets=bounds)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot({family.name: family._export() for family in self.families()})


# ---------------------------------------------------------------------- #
# Snapshots
# ---------------------------------------------------------------------- #
def _merge_histogram(left: Dict[str, Any], right: Dict[str, Any]) -> Dict[str, Any]:
    if left["bounds"] != right["bounds"]:
        raise ValueError("cannot merge histograms with different bucket bounds")
    ring = (left["ring"] + right["ring"])[-SNAPSHOT_RING_LIMIT:]
    return {
        "bounds": list(left["bounds"]),
        "counts": [a + b for a, b in zip(left["counts"], right["counts"])],
        "sum": left["sum"] + right["sum"],
        "count": left["count"] + right["count"],
        "ring": ring,
    }


def histogram_percentile(data: Dict[str, Any], q: float) -> float:
    """Percentile from exported histogram data.

    Exact over the ring when the ring holds the full distribution
    (``count <= ring length``); otherwise linear interpolation within the
    log-spaced buckets — bounded error of one bucket width.
    """
    count = data.get("count", 0)
    ring = data.get("ring", [])
    if count == 0:
        return 0.0
    if ring and count <= len(ring):
        return float(np.percentile(np.asarray(ring, dtype=np.float64), q))
    bounds = list(data["bounds"]) + [math.inf]
    target = (q / 100.0) * count
    cumulative = 0
    lower = 0.0
    for bound, bucket_count in zip(bounds, data["counts"]):
        if cumulative + bucket_count >= target and bucket_count > 0:
            if math.isinf(bound):
                return lower
            fraction = (target - cumulative) / bucket_count
            return lower + fraction * (bound - lower)
        cumulative += bucket_count
        lower = bound if not math.isinf(bound) else lower
    return lower


def latency_summary(data: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Count, mean and p50/p95/p99 in milliseconds of exported latency
    histogram data (observed in seconds); all zero for ``None`` or an empty
    series."""
    count = int(data["count"]) if data else 0
    summary: Dict[str, float] = {
        "count": count,
        "mean_ms": 1000.0 * data["sum"] / count if count else 0.0,
    }
    for q in (50, 95, 99):
        summary[f"p{q}_ms"] = 1000.0 * histogram_percentile(data, q) if count else 0.0
    return summary


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(float(value))


def _render_labels(names: Sequence[str], values: Sequence[str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsSnapshot:
    """A frozen, plain-data view of one or more registries (picklable)."""

    def __init__(self, data: Optional[Dict[str, Any]] = None) -> None:
        self.data: Dict[str, Any] = data or {}

    # -- construction / transport ------------------------------------- #
    def as_dict(self) -> Dict[str, Any]:
        return self.data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        return cls(dict(data))

    # -- queries ------------------------------------------------------- #
    def families(self) -> List[str]:
        return sorted(self.data)

    def series(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """Every (labels, value) pair of one family ([] when absent)."""
        family = self.data.get(name)
        if family is None:
            return []
        label_names = family["labels"]
        return [
            (dict(zip(label_names, _split_key(key))), value)
            for key, value in family["series"].items()
        ]

    def value(self, name: str, default: float = 0.0, **labels: str) -> Any:
        """One series' value (counter/gauge float, histogram data dict)."""
        family = self.data.get(name)
        if family is None:
            return default
        key = _label_key(tuple(str(labels[n]) for n in family["labels"]))
        return family["series"].get(key, default)

    def total(self, name: str, **labels: str) -> float:
        """Sum of a counter/gauge family over series matching ``labels``."""
        total = 0.0
        for series_labels, value in self.series(name):
            if all(series_labels.get(k) == str(v) for k, v in labels.items()):
                total += value["count"] if isinstance(value, dict) else value
        return total

    # -- algebra -------------------------------------------------------- #
    def with_labels(self, **extra: str) -> "MetricsSnapshot":
        """A copy with ``extra`` labels stamped onto every series."""
        names = sorted(extra)
        suffix = tuple(str(extra[name]) for name in names)
        stamped: Dict[str, Any] = {}
        for name, family in self.data.items():
            new_series = {}
            for key, value in family["series"].items():
                values = tuple(_split_key(key)) + suffix
                new_series[_label_key(values)] = value
            stamped[name] = {
                **family,
                "labels": list(family["labels"]) + names,
                "series": new_series,
            }
        return MetricsSnapshot(stamped)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot plus ``other`` (see module docstring for semantics)."""
        merged: Dict[str, Any] = {
            name: {**family, "series": dict(family["series"])}
            for name, family in self.data.items()
        }
        for name, family in other.data.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {**family, "series": dict(family["series"])}
                continue
            if target["type"] != family["type"] or target["labels"] != family["labels"]:
                raise ValueError(f"conflicting schemas for metric {name!r} in merge")
            for key, value in family["series"].items():
                existing = target["series"].get(key)
                if existing is None:
                    target["series"][key] = value
                elif family["type"] == "counter":
                    target["series"][key] = existing + value
                elif family["type"] == "histogram":
                    target["series"][key] = _merge_histogram(existing, value)
                else:  # gauge
                    aggregation = family.get("aggregation", "last")
                    if aggregation == "sum":
                        target["series"][key] = existing + value
                    elif aggregation == "max":
                        target["series"][key] = max(existing, value)
                    else:
                        target["series"][key] = value
        return MetricsSnapshot(merged)

    def delta(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened since ``before``: counters and histogram counts
        subtract (clamped at zero for restarted processes); gauges keep the
        current value (a gauge has no meaningful difference)."""
        result: Dict[str, Any] = {}
        for name, family in self.data.items():
            prior = before.data.get(name, {"series": {}})
            new_series: Dict[str, Any] = {}
            for key, value in family["series"].items():
                old = prior["series"].get(key)
                if family["type"] == "counter":
                    new_series[key] = max(value - (old or 0.0), 0.0)
                elif family["type"] == "histogram":
                    if old is None or old["bounds"] != value["bounds"]:
                        new_series[key] = value
                    else:
                        count = max(value["count"] - old["count"], 0)
                        new_series[key] = {
                            "bounds": list(value["bounds"]),
                            "counts": [
                                max(a - b, 0)
                                for a, b in zip(value["counts"], old["counts"])
                            ],
                            "sum": max(value["sum"] - old["sum"], 0.0),
                            "count": count,
                            # The ring's newest ``count`` samples are the
                            # ones observed since ``before``.
                            "ring": value["ring"][-count:] if count else [],
                        }
                else:
                    new_series[key] = value
            result[name] = {**family, "series": new_series}
        return MetricsSnapshot(result)

    # -- exposition ----------------------------------------------------- #
    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in self.families():
            family = self.data[name]
            label_names = family["labels"]
            help_text = (family.get("help") or name).replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family['type']}")
            for key in sorted(family["series"]):
                values = _split_key(key)
                value = family["series"][key]
                if family["type"] != "histogram":
                    labels = _render_labels(label_names, values)
                    lines.append(f"{name}{labels} {_format_value(value)}")
                    continue
                cumulative = 0
                bounds = list(value["bounds"]) + [math.inf]
                for bound, count in zip(bounds, value["counts"]):
                    cumulative += count
                    le = _render_labels(
                        label_names, values, extra=f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{name}_bucket{le} {cumulative}")
                labels = _render_labels(label_names, values)
                lines.append(f"{name}_sum{labels} {_format_value(value['sum'])}")
                lines.append(f"{name}_count{labels} {value['count']}")
        return "\n".join(lines) + "\n" if lines else ""


def aggregate_histogram(snapshot: MetricsSnapshot, name: str) -> Optional[Dict[str, Any]]:
    """One histogram family's series folded into a single data dict
    (``None`` when the family is absent or empty)."""
    merged: Optional[Dict[str, Any]] = None
    for _, value in snapshot.series(name):
        merged = value if merged is None else _merge_histogram(merged, value)
    return merged


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold many snapshots into one (an empty iterable gives an empty one)."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged


def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (``ru_maxrss``, which
    Linux reports in KiB and macOS in bytes).  A forked child starts its
    own peak; it does not inherit its parent's."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_snapshots",
    "aggregate_histogram",
    "histogram_percentile",
    "latency_summary",
    "peak_rss_bytes",
    "DEFAULT_TIME_BUCKETS",
    "SNAPSHOT_RING_LIMIT",
]
