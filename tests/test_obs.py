"""Tests for the observability layer: metrics registry, snapshots and the
Prometheus exposition, cross-process request tracing, and the live surfaces
(`/metrics`, `repro top`)."""

from __future__ import annotations

import json
import math
import socket
import threading
from dataclasses import asdict

import numpy as np
import pytest

from repro import create_estimator
from repro.cli import main
from repro.cluster import ClusterConfig, EstimationCluster
from repro.net import BinaryClient, HttpClient, ServeApp, build_server, protocol
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    SNAPSHOT_RING_LIMIT,
    TraceSink,
    aggregate_histogram,
    configure_tracing,
    histogram_percentile,
    merge_snapshots,
    new_trace_id,
    read_trace_file,
    render_dashboard,
    span,
    trace_context,
    tracing_enabled,
)


# ---------------------------------------------------------------------- #
# Registry primitives
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests", ("model",))
        child = requests.labels(model="kde")
        child.inc()
        child.inc(4.0)
        assert child.value == 5.0
        with pytest.raises(ValueError):
            child.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth", "depth")
        depth.set(3)
        depth.inc()
        depth.dec(2)
        assert depth.labels().value == 2.0

    def test_label_schema_is_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "hits", ("model", "shard"))
        with pytest.raises(ValueError):
            family.labels(model="kde")  # missing "shard"
        # Re-registering with a different schema is a conflict.
        with pytest.raises(ValueError):
            registry.gauge("hits_total", "hits")
        with pytest.raises(ValueError):
            registry.counter("hits_total", "hits", ("model",))

    def test_histogram_counts_sums_and_means(self, rng):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "latency")
        samples = rng.uniform(0.001, 0.5, size=300)
        for value in samples:
            latency.labels().observe(value)
        child = latency.labels()
        assert child.count == 300
        assert child.sum == pytest.approx(samples.sum())
        assert child.mean() == pytest.approx(samples.mean())

    def test_histogram_ring_keeps_the_samples_a_snapshot_exports(self):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "latency")
        for i in range(2 * SNAPSHOT_RING_LIMIT):
            latency.observe(float(i))
        data = registry.snapshot().value("latency_seconds")
        assert data["count"] == 2 * SNAPSHOT_RING_LIMIT  # buckets keep the full count…
        # …the ring holds the newest samples, exactly those a snapshot exports.
        assert data["ring"] == [float(i) for i in range(SNAPSHOT_RING_LIMIT, 2 * SNAPSHOT_RING_LIMIT)]
        with pytest.raises(TypeError):
            registry.histogram("short_seconds", "short", ring_size=16)

    def test_histogram_bounds_must_be_sorted(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", "bad", buckets=(0.5, 0.1))


# ---------------------------------------------------------------------- #
# Snapshots: transport, merge, delta
# ---------------------------------------------------------------------- #
def _observe_all(registry: MetricsRegistry, values, model="kde") -> None:
    requests = registry.counter("requests_total", "requests", ("model",))
    depth = registry.gauge("depth", "depth", aggregation="sum")
    peak = registry.gauge("peak", "peak", aggregation="max")
    latency = registry.histogram("latency_seconds", "latency")
    requests.labels(model=model).inc(len(values))
    depth.set(len(values))
    peak.set(max(values))
    for value in values:
        latency.observe(value)


class TestSnapshot:
    def test_snapshot_survives_json_roundtrip(self, rng):
        registry = MetricsRegistry()
        _observe_all(registry, rng.uniform(0.001, 0.1, size=50).tolist())
        snapshot = registry.snapshot()
        revived = MetricsSnapshot.from_dict(json.loads(json.dumps(snapshot.as_dict())))
        assert revived.total("requests_total") == 50
        assert revived.value("latency_seconds")["count"] == 50
        assert revived.to_prometheus() == snapshot.to_prometheus()

    def test_cross_process_merge_equals_in_process_totals(self, rng):
        """Two per-shard registries merged == one registry fed everything."""
        shard_a, shard_b, combined = (MetricsRegistry() for _ in range(3))
        values_a = rng.uniform(0.0005, 0.2, size=120).tolist()
        values_b = rng.uniform(0.0005, 0.2, size=80).tolist()
        _observe_all(shard_a, values_a)
        _observe_all(shard_b, values_b)
        _observe_all(combined, values_a + values_b)

        merged = merge_snapshots([shard_a.snapshot(), shard_b.snapshot()])
        expected = combined.snapshot()
        assert merged.total("requests_total") == expected.total("requests_total")
        assert merged.value("depth") == 200  # sum aggregation
        assert merged.value("peak") == pytest.approx(max(values_a + values_b))
        got = merged.value("latency_seconds")
        want = expected.value("latency_seconds")
        assert got["counts"] == want["counts"]
        assert got["count"] == want["count"]
        assert got["sum"] == pytest.approx(want["sum"])

    def test_with_labels_keeps_shards_apart(self):
        shards = []
        for shard in range(3):
            registry = MetricsRegistry()
            registry.counter("requests_total", "requests").inc(10 * (shard + 1))
            shards.append(registry.snapshot().with_labels(shard=str(shard)))
        merged = merge_snapshots(shards)
        assert merged.value("requests_total", shard="1") == 20
        assert merged.total("requests_total") == 60

    def test_delta_subtracts_counters_and_histograms(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", "requests")
        latency = registry.histogram("latency_seconds", "latency")
        requests.inc(5)
        latency.observe(0.01)
        before = registry.snapshot()
        requests.inc(3)
        latency.observe(0.02)
        delta = registry.snapshot().delta(before)
        assert delta.value("requests_total") == 3
        assert delta.value("latency_seconds")["count"] == 1
        # The delta's ring holds only what was observed since ``before``.
        assert delta.value("latency_seconds")["ring"] == [0.02]
        assert histogram_percentile(delta.value("latency_seconds"), 50) == 0.02

    def test_merge_rejects_conflicting_schemas(self):
        left = MetricsRegistry()
        left.counter("metric", "m")
        right = MetricsRegistry()
        right.gauge("metric", "m")
        with pytest.raises(ValueError):
            left.snapshot().merge(right.snapshot())

    def test_snapshot_ring_is_capped(self):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "latency")
        for i in range(2 * SNAPSHOT_RING_LIMIT):
            latency.observe(0.001 * (i + 1))
        data = registry.snapshot().value("latency_seconds")
        assert len(data["ring"]) == SNAPSHOT_RING_LIMIT
        merged = merge_snapshots([registry.snapshot(), registry.snapshot()])
        assert len(merged.value("latency_seconds")["ring"]) == SNAPSHOT_RING_LIMIT


class TestHistogramPercentile:
    def test_exact_when_ring_holds_everything(self, rng):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "latency")
        samples = rng.uniform(0.001, 1.0, size=200)
        for value in samples:
            latency.observe(value)
        data = registry.snapshot().value("latency_seconds")
        for q in (50, 95, 99):
            assert histogram_percentile(data, q) == pytest.approx(
                np.percentile(samples, q)
            )

    def test_bucket_interpolation_error_is_bounded(self, rng):
        """Past the ring, percentiles interpolate within one (doubling) bucket."""
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "latency")
        samples = rng.uniform(0.001, 1.0, size=5000)
        for value in samples:
            latency.observe(value)
        data = registry.snapshot().value("latency_seconds")
        assert data["count"] > len(data["ring"])  # forces the bucket path
        for q in (50, 95, 99):
            exact = float(np.percentile(samples, q))
            approx = histogram_percentile(data, q)
            # log-spaced doubling buckets: estimate within [0.5x, 2x] of exact
            assert 0.5 * exact <= approx <= 2.0 * exact

    def test_aggregate_histogram_folds_series(self):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "latency", ("shard",))
        latency.labels(shard="0").observe(0.01)
        latency.labels(shard="1").observe(0.02)
        data = aggregate_histogram(registry.snapshot(), "latency_seconds")
        assert data["count"] == 2
        assert aggregate_histogram(registry.snapshot(), "nope") is None


# ---------------------------------------------------------------------- #
# Prometheus text exposition
# ---------------------------------------------------------------------- #
def _validate_prometheus(text: str) -> dict:
    """A small format checker: returns {family: {"type", "samples": {...}}}.

    Asserts the invariants a real scraper relies on: HELP/TYPE precede
    samples, histogram buckets are cumulative and end at +Inf == _count.
    """
    families: dict = {}
    current = None
    for line in text.splitlines():
        assert line == line.strip() and line, f"blank/padded line: {line!r}"
        if line.startswith("# HELP "):
            current = line.split(" ", 3)[2]
            families.setdefault(current, {"samples": {}})
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name == current, "TYPE must follow its HELP"
            assert kind in ("counter", "gauge", "histogram")
            families[name]["type"] = kind
        else:
            name = line.split("{")[0].split(" ")[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    base = name[: -len(suffix)]
            assert base in families, f"sample {name} before HELP/TYPE"
            sample, value = line.rsplit(" ", 1)
            float(value.replace("+Inf", "inf"))  # parses as a number
            families[base]["samples"][sample] = value
    for name, family in families.items():
        if family.get("type") != "histogram":
            continue
        buckets: dict = {}
        for sample, value in family["samples"].items():
            if f"{name}_bucket" in sample:
                key = sample.split('le="')[0]
                buckets.setdefault(key, []).append(float(value.replace("+Inf", "inf")))
        for series in buckets.values():
            assert series == sorted(series), "bucket counts must be cumulative"
    return families


class TestPrometheusText:
    def test_exposition_is_valid(self, rng):
        registry = MetricsRegistry()
        _observe_all(registry, rng.uniform(0.001, 0.1, size=40).tolist())
        families = _validate_prometheus(registry.snapshot().to_prometheus())
        assert families["requests_total"]["type"] == "counter"
        assert families["latency_seconds"]["type"] == "histogram"
        inf_line = 'latency_seconds_bucket{le="+Inf"}'
        assert families["latency_seconds"]["samples"][inf_line] == "40"
        assert families["latency_seconds"]["samples"]["latency_seconds_count"] == "40"

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "odd", ("name",)).labels(
            name='we"ird\nmodel\\x'
        ).inc()
        text = registry.snapshot().to_prometheus()
        assert 'name="we\\"ird\\nmodel\\\\x"' in text
        assert "\n\n" not in text


# ---------------------------------------------------------------------- #
# Tracing primitives
# ---------------------------------------------------------------------- #
class TestTracing:
    def test_sampling_is_deterministic_and_proportional(self):
        sink = TraceSink("/dev/null", sample=0.5)
        ids = [new_trace_id() for _ in range(400)]
        first = [sink.sampled(tid) for tid in ids]
        assert first == [sink.sampled(tid) for tid in ids]  # stable per ID
        rate = sum(first) / len(first)
        assert 0.3 < rate < 0.7
        assert all(TraceSink("/dev/null", sample=1.0).sampled(tid) for tid in ids)
        assert not any(TraceSink("/dev/null", sample=0.0).sampled(tid) for tid in ids)

    def test_span_records_to_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        configure_tracing(str(path), sample=1.0, role="main")
        try:
            assert tracing_enabled()
            tid = new_trace_id()
            with trace_context(tid), span("unit.test", rows=7) as extra:
                extra["late"] = "field"
            # Untraced block: no trace ID bound, nothing recorded.
            with span("unit.ignored"):
                pass
        finally:
            configure_tracing(None)
        spans = read_trace_file(str(path))
        assert len(spans) == 1
        record = spans[0]
        assert record["trace_id"] == tid
        assert record["span"] == "unit.test"
        assert record["role"] == "main"
        assert record["rows"] == 7
        assert record["late"] == "field"
        assert record["wall_s"] >= 0.0

    def test_read_trace_file_skips_torn_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"trace_id": "aa", "span": "x"}\n{"torn\n\n')
        assert read_trace_file(str(path)) == [{"trace_id": "aa", "span": "x"}]

    def test_protocol_carries_optional_trace_field(self, rng):
        queries = rng.standard_normal((3, 4))
        thresholds = rng.standard_normal(3)
        tid = new_trace_id()
        payload = protocol.pack_estimate_request(
            "kde", queries, thresholds, True, trace_id=tid
        )
        op, fields = protocol.parse_request(payload)
        assert op == protocol.OP_ESTIMATE
        assert fields["trace"] == tid
        np.testing.assert_array_equal(fields["queries"], queries)
        # Untraced frames parse exactly as before the field existed.
        plain = protocol.pack_estimate_request("kde", queries, thresholds, True)
        _, fields = protocol.parse_request(plain)
        assert fields["trace"] is None
        with pytest.raises(ValueError):
            protocol.pack_estimate_request(
                "kde", queries, thresholds, True, trace_id="x" * 100
            )


# ---------------------------------------------------------------------- #
# End to end: traces cross the wire and processes; /metrics serves them
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def traced_server(tiny_cosine_split, tmp_path_factory):
    """A running 2-shard network server with tracing on, plus its trace file."""
    tmp = tmp_path_factory.mktemp("obs-serve")
    kde = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
    kde.save(tmp / "kde", metadata={"setting": "face-cos", "scale": "tiny", "seed": 0})
    trace_path = str(tmp / "trace.jsonl")
    configure_tracing(trace_path, sample=1.0, role="main")
    server = build_server(tmp, port=0, binary_port=0, num_shards=2, backend="network")
    server.start()
    yield server, trace_path
    server.stop()
    configure_tracing(None)


class TestObservableServer:
    def test_binary_trace_id_reaches_worker_spans(self, traced_server, tiny_cosine_split):
        server, trace_path = traced_server
        host, port = server.binary_address
        queries = tiny_cosine_split.test.queries[:8]
        thresholds = tiny_cosine_split.test.thresholds[:8]
        tid = new_trace_id()
        with BinaryClient(host, port) as client:
            client.estimate("kde", queries, thresholds, trace_id=tid)
        spans = [s for s in read_trace_file(trace_path) if s["trace_id"] == tid]
        by_name = {s["span"]: s for s in spans}
        assert by_name["client.request"]["role"] == "main"
        assert by_name["server.estimate"]["transport"] == "binary"
        worker = by_name["worker.estimate"]
        assert worker["role"] == "shard"
        assert worker["pid"] != by_name["server.estimate"]["pid"]
        assert "cluster.admission" in by_name and "transport.pipe" in by_name

    def test_http_trace_header_round_trips(self, traced_server, tiny_cosine_split):
        server, trace_path = traced_server
        host, port = server.http_address
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        client = HttpClient(host, port, trace=True)
        client.estimate("kde", queries, thresholds)
        spans = read_trace_file(trace_path)
        http_spans = [
            s for s in spans
            if s["span"] == "server.estimate" and s.get("transport") == "http"
        ]
        assert http_spans, "HTTP server span missing"
        tid = http_spans[-1]["trace_id"]
        names = {s["span"] for s in spans if s["trace_id"] == tid}
        assert {"client.request", "server.estimate", "worker.estimate"} <= names

    def test_metrics_endpoint_serves_valid_prometheus(self, traced_server):
        server, _ = traced_server
        host, port = server.http_address
        text = HttpClient(host, port).metrics_text()
        families = _validate_prometheus(text)
        # Per-shard latency histograms and cache hit-rate gauges are there.
        assert families["repro_cluster_sub_batch_latency_seconds"]["type"] == "histogram"
        samples = families["repro_cache_hit_rate"]["samples"]
        assert any('shard="0"' in key for key in samples)
        assert families["repro_app_requests_total"]["type"] == "counter"
        # Worker-side service metrics arrive stamped with the shard label.
        service = families["repro_service_requests_total"]["samples"]
        assert any("shard=" in key and "model=" in key for key in service)

    def test_stats_layers_summarize_each_level(self, traced_server):
        server, _ = traced_server
        host, port = server.http_address
        stats = HttpClient(host, port).stats()
        layers = stats["layers"]
        for layer in ("server.request", "cluster.sub_batch", "service.estimate"):
            assert layers[layer]["count"] > 0
            assert layers[layer]["p99_ms"] >= layers[layer]["p50_ms"] >= 0.0

    def test_each_process_reports_its_peak_resident_set(self):
        """The frontend's and the shard's peak RSS are readable live: in
        /stats, and as one gauge series per process on /metrics."""
        server = build_server(None, port=0, binary_port=None, num_shards=1, backend="network")
        with server:
            http = HttpClient(*server.http_address)
            peaks = http.stats()["peak_rss_bytes"]
            families = _validate_prometheus(http.metrics_text())
        assert set(peaks) == {"frontend", "shard-0"}
        assert all(isinstance(peak, int) and peak > 0 for peak in peaks.values())
        family = families["repro_process_peak_rss_bytes"]
        assert family["type"] == "gauge"
        scraped = {
            sample.split('process="')[1].split('"')[0]: float(value)
            for sample, value in family["samples"].items()
        }
        assert set(scraped) == {"frontend", "shard-0"}
        assert all(value > 0 for value in scraped.values())

    def test_cluster_snapshot_totals_match_stats(self, traced_server):
        """The cluster's stats carry one snapshot, merged from its registry
        and every worker's; no worker entry keeps a copy of its own."""
        server, _ = traced_server
        cluster = server.app.cluster
        stats = cluster.stats()
        snapshot = MetricsSnapshot.from_dict(stats["metrics"])
        assert snapshot.total("repro_cluster_requests_total") == stats["total_requests"]
        worker_total = sum(
            entry["worker"]["total_requests"] for entry in stats["per_shard"]
        )
        assert snapshot.total("repro_service_requests_total") == worker_total
        for entry in stats["per_shard"]:
            assert "metrics" not in entry["worker"]
            assert snapshot.total(
                "repro_service_requests_total", shard=entry["shard"]
            ) == entry["worker"]["total_requests"]


# ---------------------------------------------------------------------- #
# One record: every serving number is read from the metrics registry
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fitted_selnet_ct(tiny_cosine_split, fast_selnet_config):
    params = dict(asdict(fast_selnet_config), epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1)
    return create_estimator("selnet-ct", **params).fit(tiny_cosine_split)


def _samples(text: str) -> dict:
    """Every sample line of a Prometheus exposition, as {series: value}."""
    return dict(line.rsplit(" ", 1) for line in text.splitlines() if not line.startswith("#"))


class TestOneRecord:
    def test_shard_and_layer_latency_summaries_agree(self, fitted_selnet_ct, tiny_cosine_split):
        """On one shard, ``/stats`` summarizes the sub-batch histogram once:
        the shard's entry and the layer summary read the same snapshot, past
        the samples its ring keeps too.  The payload carries that snapshot,
        and no copy of it per cluster or worker."""
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        calls = 341
        assert calls > SNAPSHOT_RING_LIMIT
        with EstimationCluster(ClusterConfig(num_shards=1)) as cluster:
            app = ServeApp(cluster)
            cluster.add_model("m", fitted_selnet_ct)
            for call in range(calls):
                row = slice(call % len(thresholds), call % len(thresholds) + 1)
                app.estimate("m", queries[row], thresholds[row])
            stats = app.stats()
        shard = stats["cluster"]["per_shard"][0]
        layer = stats["layers"]["cluster.sub_batch"]
        assert shard["latency"]["count"] == layer["count"] == calls
        assert shard["latency"]["p50_ms"] == layer["p50_ms"]
        assert shard["latency"]["p99_ms"] == layer["p99_ms"]
        assert "metrics" not in stats["cluster"] and "metrics" not in shard["worker"]
        snapshot = MetricsSnapshot.from_dict(stats["metrics"])
        assert snapshot.total("repro_cluster_requests_total") == calls
        assert snapshot.total("repro_service_requests_total") == calls
        assert stats["cache_bytes"] == shard["worker"]["cache"]["bytes"] > 0

    def test_metrics_text_counts_what_stats_counts(
        self, fitted_selnet_ct, tiny_cosine_split, rng
    ):
        """``/metrics`` carries the cache's evictions and invalidations and
        the latency sum that ``stats()`` reports, and no second sum."""
        queries = rng.standard_normal((6, tiny_cosine_split.test.queries.shape[1]))
        thresholds = tiny_cosine_split.test.thresholds[:6]
        config = ClusterConfig(num_shards=1, cache_capacity=2)
        with EstimationCluster(config) as cluster:
            app = ServeApp(cluster)
            cluster.add_model("m", fitted_selnet_ct)
            app.estimate("m", queries, thresholds)  # 6 fills, 4 evictions
            cluster.add_model("m", fitted_selnet_ct)  # a replaced model drops its 2 entries
            app.estimate("m", queries[:1], thresholds[:1])
            samples = _samples(app.metrics_text())
            worker = app.stats()["cluster"]["per_shard"][0]["worker"]
        cache = worker["cache"]
        assert (cache["evictions"], cache["invalidations"]) == (4, 2)
        assert float(samples['repro_cache_evictions_total{shard="0"}']) == cache["evictions"]
        assert float(samples['repro_cache_invalidations_total{shard="0"}']) == cache["invalidations"]
        assert float(samples['repro_cache_hit_rate{shard="0"}']) == cache["hit_rate"]
        assert (
            float(samples['repro_service_estimate_latency_seconds_sum{model="m",shard="0"}'])
            == worker["per_model"]["m"]["total_estimate_seconds"]
            > 0.0
        )
        assert not any(series.startswith("repro_service_estimate_seconds") for series in samples)


# ---------------------------------------------------------------------- #
# The `repro top` renderer
# ---------------------------------------------------------------------- #
class TestTopDashboard:
    def _stats(self, requests=100, shed=0):
        """A ``/stats`` payload whose counters say ``requests`` rows were
        routed (half to shard 0) and ``shed`` were refused."""
        registry = MetricsRegistry()
        routed = registry.counter("repro_cluster_requests_total", "rows", ("shard",))
        routed.labels(shard="0").inc(requests // 2)
        routed.labels(shard="1").inc(requests - requests // 2)
        registry.counter("repro_cluster_shed_requests_total", "shed", ("shard",)).labels(
            shard="1"
        ).inc(shed)
        return {
            "uptime_seconds": 12.5,
            "endpoints": {"estimate": requests, "stats": 2},
            "layers": {
                "server.request": {"count": requests, "p50_ms": 1.0, "p99_ms": 2.0}
            },
            "cluster": {
                "num_shards": 2,
                "backend": "network",
                "overload_policy": "block",
                "queue_capacity": 8,
                "total_requests": requests,
                "total_shed_requests": shed,
                "total_updates": 0,
                "per_shard": [
                    {
                        "shard": 0,
                        "queue_depth": 4,
                        "max_queue_depth": 6,
                        "requests": requests // 2,
                        "latency": {"p50_ms": 1.2, "p95_ms": 3.4, "p99_ms": 5.6},
                        "worker": {"cache": {"hit_rate": 0.75}},
                    }
                ],
            },
            "metrics": registry.snapshot().as_dict(),
        }

    def test_render_contains_each_section(self):
        frame = render_dashboard(self._stats(), previous=None, interval=1.0)
        assert "repro top" in frame and "backend network" in frame
        assert "75.0%" in frame  # the worker's cache hit rate
        assert "server.request" in frame
        assert "estimate=100" in frame
        assert "0.0 req/s" in frame  # no previous poll, no rate

    def test_rates_are_the_delta_of_two_snapshots(self):
        previous = self._stats(requests=100, shed=4)
        frame = render_dashboard(self._stats(requests=150, shed=10), previous, interval=2.0)
        assert "25.0 req/s" in frame and "shed     3.0/s" in frame
        shard_row = next(line for line in frame.splitlines() if line.startswith("     0"))
        assert "    12.5  " in shard_row  # shard 0's 25 new rows over 2 s

    def test_failed_polls_count_toward_iterations(self, capsys):
        """``repro top URL --iterations N`` exits 1 after N polls of a port
        nobody listens on, instead of polling forever."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        argv = ["top", f"http://127.0.0.1:{port}", "--iterations", "2", "--interval", "0.01"]
        exit_codes: list = []
        thread = threading.Thread(target=lambda: exit_codes.append(main(argv)), daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "repro top kept polling past --iterations"
        assert exit_codes == [1]
        assert capsys.readouterr().out.count("unreachable") == 2

    def test_run_top_polls_and_renders(self, traced_server):
        from repro.obs import run_top

        server, _ = traced_server
        host, port = server.http_address
        frames: list = []
        count = run_top(
            f"http://{host}:{port}", interval=0.01, iterations=2, write=frames.append
        )
        assert count == 2
        assert "repro top" in frames[-1]
