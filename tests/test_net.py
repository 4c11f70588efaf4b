"""Tests for the network serving tier (protocol, shard pipe, servers,
saturation sweep) and the cluster lifecycle satellites that ride along with
it."""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import create_estimator
from repro.cli import main
from repro.cluster import (
    ClusterClosedError,
    ClusterConfig,
    ClusterOverloadedError,
    EstimationCluster,
)
from repro.estimator import UpdateNotSupportedError
from repro.net import (
    BinaryClient,
    HttpClient,
    ShardCrashedError,
    build_server,
    protocol,
    run_saturation_benchmark,
    report_as_dict,
    SaturationScenario,
)
from repro.serving import EstimationService


@pytest.fixture(scope="module")
def kde_model_dir(tiny_cosine_split, tmp_path_factory):
    """One fitted KDE saved under a model directory, for disk-backed shards."""
    directory = tmp_path_factory.mktemp("net-models")
    kde = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
    kde.save(directory / "kde", metadata={"setting": "face-cos", "scale": "tiny", "seed": 0})
    return directory


@pytest.fixture(scope="module")
def fitted_kde(tiny_cosine_split):
    return create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)


@pytest.fixture(scope="module")
def fitted_selnet_ct(tiny_cosine_split, fast_selnet_config):
    params = asdict(fast_selnet_config)
    params.update(epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1)
    return create_estimator("selnet-ct", **params).fit(tiny_cosine_split)


@pytest.fixture(scope="module")
def fitted_selnet_inc(tiny_cosine_split, fast_selnet_config):
    """A tiny ``selnet-inc`` whose writes never fine-tune, so a write is cheap."""
    params = asdict(fast_selnet_config)
    params.update(
        epochs=2, pretrain_epochs=1, ae_pretrain_epochs=1, update_mae_drift_threshold=1e9
    )
    return create_estimator("selnet-inc", **params).fit(tiny_cosine_split)


def _test_rows(split, num_rows):
    """``num_rows`` rows of the split's test fold, tiled as often as it takes."""
    queries = split.test.queries
    return np.resize(queries, (num_rows, queries.shape[1])), np.resize(split.test.thresholds, num_rows)


@pytest.fixture(scope="module")
def inline_kde_server(fitted_kde):
    """An HTTP server over one inline shard serving ``kde``."""
    server = build_server(None, port=0, binary_port=None, num_shards=1, backend="inline")
    server.app.cluster.add_model("kde", fitted_kde)
    with server:
        yield server


def _http_status(server, path, body) -> int:
    """The status of one POST whose body is ``body`` as JSON."""
    host, port = server.http_address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


@pytest.fixture(scope="module")
def inline_inc_server(fitted_selnet_inc):
    """An HTTP server over one inline shard serving ``selnet-inc`` as ``inc``."""
    server = build_server(None, port=0, binary_port=None, num_shards=1, backend="inline")
    server.app.cluster.add_model("inc", fitted_selnet_inc)
    with server:
        yield server


#: any JSON value; Python's json reads and writes NaN and the infinities too
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
#: a request model name: the served one, an unknown one or any JSON value
_json_models = st.sampled_from(["kde", "nope"]) | _json_values
#: rows as wide as the KDE fixture's vectors, or anything else
_json_rows = st.lists(st.lists(st.floats(), min_size=10, max_size=10) | _json_values, max_size=3)


@pytest.fixture(scope="module")
def net_server(kde_model_dir):
    """One running HTTP + binary server over two network-backend shards."""
    server = build_server(
        kde_model_dir, port=0, binary_port=0, num_shards=2, backend="network"
    )
    server.start()
    yield server
    server.stop()


@st.composite
def _estimate_requests(draw):
    """Keyword arguments of one :func:`protocol.pack_estimate_request` call."""
    num_rows, dim = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    text = st.characters(codec="utf-8")
    return {
        "model": draw(st.text(text, max_size=12)),
        "queries": draw(hnp.arrays(np.float64, (num_rows, dim), elements=st.floats())),
        "thresholds": draw(hnp.arrays(np.float64, num_rows, elements=st.floats())),
        "use_cache": draw(st.booleans()),
        "trace_id": draw(st.none() | st.text(text, min_size=1, max_size=16)),
    }


@st.composite
def _damaged_frames(draw):
    """A packed estimate request with bytes overwritten, cut short or appended."""
    frame = bytearray(protocol.pack_estimate_request(**draw(_estimate_requests())))
    for _ in range(draw(st.integers(0, 3))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(frame)))
    return bytes(frame[:cut]) + draw(st.binary(max_size=8))


def _estimate_header(flags: int, model: bytes, num_rows: int, dim: int) -> bytes:
    return (
        struct.pack(">BBH", protocol.OP_ESTIMATE, flags, len(model))
        + model
        + struct.pack(">II", num_rows, dim)
    )


# ---------------------------------------------------------------------- #
# Wire protocol
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_estimate_request_roundtrip_is_bit_identical(self, rng):
        queries = rng.standard_normal((7, 5))
        thresholds = rng.standard_normal(7)
        payload = protocol.pack_estimate_request("kde", queries, thresholds, use_cache=False)
        op, fields = protocol.parse_request(payload)
        assert op == protocol.OP_ESTIMATE
        assert fields["model"] == "kde"
        assert fields["use_cache"] is False
        np.testing.assert_array_equal(fields["queries"], queries)
        np.testing.assert_array_equal(fields["thresholds"], thresholds)

    def test_estimate_request_rejects_misaligned_batch(self, rng):
        with pytest.raises(ValueError):
            protocol.pack_estimate_request(
                "kde", rng.standard_normal((4, 3)), rng.standard_normal(5)
            )

    @settings(max_examples=200, deadline=None)
    @given(request=_estimate_requests())
    def test_packed_request_round_trips_bit_for_bit(self, request):
        op, fields = protocol.parse_request(protocol.pack_estimate_request(**request))
        assert op == protocol.OP_ESTIMATE
        assert fields["model"] == request["model"]
        assert fields["use_cache"] is request["use_cache"]
        assert fields["trace"] == request["trace_id"]
        for name in ("queries", "thresholds"):
            assert fields[name].shape == request[name].shape
            assert fields[name].tobytes() == request[name].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=64) | _damaged_frames())
    def test_any_bytes_parse_or_raise_protocol_error(self, payload):
        try:
            protocol.parse_request(payload)
        except protocol.ProtocolError:
            pass

    @pytest.mark.parametrize(
        "payload",
        [
            # the model name runs past the frame's end
            struct.pack(">BBH", protocol.OP_ESTIMATE, protocol.FLAG_USE_CACHE, 50) + b"kde",
            # the shape runs past the frame's end
            _estimate_header(protocol.FLAG_USE_CACHE, b"kde", 0, 1)[:-3],
            # a model name that is not UTF-8
            _estimate_header(protocol.FLAG_USE_CACHE, b"\xff\xfe", 0, 1),
            # a trace ID that is not UTF-8
            _estimate_header(protocol.FLAG_TRACE, b"kde", 0, 1) + b"\xc3",
            # bit 2, which once marked a float32 batch
            _estimate_header(protocol.FLAG_USE_CACHE | 4, b"kde", 1, 1) + bytes(8),
            # a flag bit above every known one
            _estimate_header(protocol.FLAG_TRACE << 2, b"kde", 0, 1),
        ],
        ids=[
            "model-past-end",
            "shape-past-end",
            "model-utf8",
            "trace-utf8",
            "float32-flag",
            "unknown-flag",
        ],
    )
    def test_malformed_estimate_frames_raise_protocol_error(self, payload):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(payload)

    def test_control_requests(self):
        for op in (protocol.OP_STATS, protocol.OP_MODELS, protocol.OP_RELOAD, protocol.OP_PING):
            parsed_op, fields = protocol.parse_request(protocol.pack_control_request(op))
            assert parsed_op == op and fields is None
        with pytest.raises(ValueError):
            protocol.pack_control_request(protocol.OP_ESTIMATE)

    def test_results_response_roundtrip(self, rng):
        results = rng.standard_normal(9)
        decoded = protocol.parse_response(protocol.pack_results_response(results))
        np.testing.assert_array_equal(decoded, results)

    def test_json_response_roundtrip(self):
        value = {"ok": True, "models": ["kde"], "count": 3}
        assert protocol.parse_response(protocol.pack_json_response(value)) == value

    def test_error_response_carries_the_exception_kind(self):
        payload = protocol.pack_error_response(ClusterOverloadedError("queue full"))
        with pytest.raises(protocol.RemoteError) as info:
            protocol.parse_response(payload)
        assert info.value.kind == "ClusterOverloadedError"
        assert "queue full" in str(info.value)

    def test_framing_over_a_real_socket(self):
        left, right = socket.socketpair()
        try:
            protocol.write_frame(left, b"hello")
            protocol.write_frame(left, b"")
            assert protocol.read_frame(right) == b"hello"
            assert protocol.read_frame(right) == b""
            left.close()
            assert protocol.read_frame(right) is None  # clean EOF
        finally:
            right.close()

    def test_bad_magic_is_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"XX" + struct.pack(">I", 0))
            with pytest.raises(protocol.ProtocolError, match="magic"):
                protocol.read_frame(right)
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------- #
# The network shard backend inside a cluster
# ---------------------------------------------------------------------- #
class TestNetworkBackend:
    def test_pipe_transport_parity(self, tiny_cosine_split, fitted_kde, fitted_selnet_ct):
        """A 1-row, a 32-row and an over-1-MiB batch come back from a network
        shard with a lone in-process service's bits, cached and uncached, and
        uncached with ``estimate``'s bits."""
        dim = tiny_cosine_split.test.queries.shape[1]
        over_one_mib = (1 << 20) // ((dim + 1) * 8) + 1
        models = {"kde": fitted_kde, "selnet-ct": fitted_selnet_ct}
        service = EstimationService()
        with EstimationCluster(ClusterConfig(num_shards=1, backend="network")) as cluster:
            for name, estimator in models.items():
                cluster.add_model(name, estimator)
                service.add_model(name, estimator)
            for num_rows in (1, 32, over_one_mib):
                queries, thresholds = _test_rows(tiny_cosine_split, num_rows)
                for name, estimator in models.items():
                    for use_cache in (True, False):
                        served = cluster.estimate(name, queries, thresholds, use_cache=use_cache)
                        np.testing.assert_array_equal(
                            served, service.estimate(name, queries, thresholds, use_cache=use_cache)
                        )
                    np.testing.assert_array_equal(served, estimator.estimate(queries, thresholds))

    def test_large_batches_sent_before_any_reply_is_read(
        self, tiny_cosine_split, fitted_selnet_ct
    ):
        """One thread sends two batches whose replies overflow the pipe's
        buffer before it claims either: the shard must not block on a reply
        nobody reads while the caller blocks sending the next batch."""
        queries, thresholds = _test_rows(tiny_cosine_split, 100_000)
        results = []
        cluster = EstimationCluster(ClusterConfig(num_shards=1, backend="network"))
        try:
            cluster.add_model("m", fitted_selnet_ct)

            def _send_both_then_claim() -> None:
                futures = [
                    cluster.submit_estimate("m", queries, thresholds, use_cache=False)
                    for _ in range(2)
                ]
                results.extend(future.result() for future in futures)

            sender = threading.Thread(target=_send_both_then_claim, daemon=True)
            sender.start()
            sender.join(timeout=30.0)
            if sender.is_alive():
                cluster._shards[0].backend._process.kill()  # unblocks the sender
                sender.join(timeout=10.0)
                pytest.fail("two large batches sent from one thread deadlocked the shard")
        finally:
            cluster.close(drain=False)
        expected = fitted_selnet_ct.estimate(queries, thresholds)
        assert len(results) == 2
        for served in results:
            np.testing.assert_array_equal(served, expected)

    def test_concurrent_callers_get_their_own_answers(
        self, tiny_cosine_split, fitted_selnet_ct
    ):
        """Threads that send and claim at once each get their own rows'
        answers: the reader settles replies in the order the sends went out."""
        queries, thresholds = _test_rows(tiny_cosine_split, 64)
        calls = {
            (client, step): (client * 8 + step + np.arange(8)) % len(thresholds)
            for client in range(6)
            for step in range(20)
        }
        expected = {
            key: fitted_selnet_ct.estimate(queries[rows], thresholds[rows])
            for key, rows in calls.items()
        }
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            config = ClusterConfig(num_shards=1, backend="network", queue_capacity=4)
            with EstimationCluster(config) as cluster:
                cluster.add_model("m", fitted_selnet_ct)

                def _client(client: int) -> None:
                    try:
                        for step in range(20):
                            rows = calls[client, step]
                            served = cluster.estimate(
                                "m", queries[rows], thresholds[rows], use_cache=False
                            )
                            np.testing.assert_array_equal(served, expected[client, step])
                    except Exception as error:  # noqa: BLE001 - reported below
                        failures.append(error)

                threads = [
                    threading.Thread(target=_client, args=(client,), daemon=True)
                    for client in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_typed_errors_cross_the_process_boundary(self, fitted_kde):
        with EstimationCluster(ClusterConfig(num_shards=1, backend="network")) as cluster:
            cluster.add_model("kde", fitted_kde)
            with pytest.raises(KeyError):
                cluster.estimate("nope", np.zeros((1, 10)), np.zeros(1))
            with pytest.raises(UpdateNotSupportedError):
                cluster.update("kde", inserts=np.zeros((1, 10)))
            # The shard survives its own error replies.
            assert cluster.estimate("kde", np.zeros((2, 10)), np.zeros(2)).shape == (2,)

    @pytest.mark.parametrize("drift_threshold", [1e9, -1.0])
    def test_selnet_inc_update_keeps_curves_unless_it_fine_tunes(
        self, tiny_cosine_split, fast_selnet_config, drift_threshold
    ):
        """Each process shard keeps its cached curves across a write that
        does not fine-tune, drops them on one that does, and answers with
        the weights an in-process replica reaches on the same write."""
        params = asdict(fast_selnet_config)
        params.update(epochs=2, update_max_epochs=1, update_mae_drift_threshold=drift_threshold)
        incremental = create_estimator("selnet-inc", **params).fit(tiny_cosine_split)
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        inserts = np.zeros((2, queries.shape[1]))
        with EstimationCluster(ClusterConfig(num_shards=2, backend="network")) as cluster:
            cluster.add_model("inc", incremental)
            cached = cluster.estimate("inc", queries, thresholds)
            sizes = [entry["worker"]["cache"]["size"] for entry in cluster.stats()["per_shard"]]
            assert all(size > 0 for size in sizes)

            cluster.update("inc", inserts=inserts)
            [report] = incremental.update(inserts=inserts)
            after = [entry["worker"]["cache"]["size"] for entry in cluster.stats()["per_shard"]]
            if report.retrained:
                assert after == [0, 0], "a fine-tune must drop every shard's curves"
            else:
                assert after == sizes, "a write without a fine-tune keeps every shard's curves"
                np.testing.assert_array_equal(cluster.estimate("inc", queries, thresholds), cached)
            np.testing.assert_array_equal(
                cluster.estimate("inc", queries, thresholds, use_cache=False),
                incremental.estimate(queries, thresholds),
            )
        assert report.retrained == (drift_threshold < 0)

    def test_dead_worker_fails_calls_instead_of_hanging(self, fitted_kde):
        cluster = EstimationCluster(ClusterConfig(num_shards=1, backend="network"))
        try:
            cluster.add_model("kde", fitted_kde)
            cluster._shards[0].backend._process.kill()
            with pytest.raises(ShardCrashedError):
                cluster.estimate("kde", np.zeros((2, 10)), np.zeros(2))
            assert cluster.queue_depths() == [0], "failed call must free its slot"
        finally:
            cluster.close(drain=False)


# ---------------------------------------------------------------------- #
# Socket servers: the parity gate and the endpoint surface
# ---------------------------------------------------------------------- #
class TestSocketServers:
    def test_estimates_over_real_sockets_are_bit_identical(
        self, net_server, tiny_cosine_split, fitted_kde
    ):
        """Acceptance: POST /estimate (and a binary frame) over a real TCP
        socket returns exactly the bytes an in-process call produces."""
        queries = tiny_cosine_split.test.queries
        thresholds = tiny_cosine_split.test.thresholds
        in_process = net_server.app.cluster.estimate(
            "kde", queries, thresholds, use_cache=False
        )
        host, port = net_server.binary_address
        with BinaryClient(host, port) as client:
            over_socket = client.estimate("kde", queries, thresholds, use_cache=False)
        http = HttpClient(*net_server.http_address)
        over_http = http.estimate("kde", queries, thresholds, use_cache=False)
        direct = fitted_kde.estimate(queries, thresholds)
        np.testing.assert_array_equal(over_socket, in_process)
        np.testing.assert_array_equal(over_socket, direct)
        np.testing.assert_array_equal(over_http, direct)

    def test_binary_control_operations(self, net_server):
        host, port = net_server.binary_address
        with BinaryClient(host, port) as client:
            assert client.ping()["ok"] is True
            stats = client.stats()
            assert stats["cluster"]["backend"] == "network"
            assert stats["cluster"]["num_shards"] == 2
            assert "kde" in client.models()["models"]
            assert len(client.reload_models()["shards"]) == 2

    def test_http_endpoints(self, net_server):
        http = HttpClient(*net_server.http_address)
        assert http.healthz() == {"ok": True, "num_shards": 2}
        stats = http.stats()
        assert stats["uptime_seconds"] >= 0
        assert "estimate" in stats["endpoints"] or stats["endpoints"] == stats["endpoints"]
        assert stats["cluster"]["overload_policy"] == "block"
        assert "kde" in http.models()["models"]
        assert "KDEEstimator" in http.models()["described"]["kde"]["class"]
        assert len(http.reload_models()["shards"]) == 2

    def test_unknown_model_maps_to_key_error_on_both_transports(self, net_server):
        host, port = net_server.binary_address
        with BinaryClient(host, port) as client:
            with pytest.raises(KeyError):
                client.estimate("nope", np.zeros((1, 10)), np.zeros(1))
        http = HttpClient(*net_server.http_address)
        with pytest.raises(KeyError):
            http.estimate("nope", np.zeros((1, 10)), np.zeros(1))

    def test_malformed_requests_map_to_4xx(self, net_server):
        host, port = net_server.http_address
        request = urllib.request.Request(
            f"http://{host}:{port}/estimate",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(f"http://{host}:{port}/no-such-path", timeout=10)
        assert info.value.code == 404

    def test_bodies_that_break_the_schema_answer_400(self, inline_kde_server, tiny_cosine_split):
        """A body that is not a JSON object, lacks a required key, names its
        model with a non-string or holds a value NumPy cannot read as
        numbers is a bad request (400), as is a write to a model that takes
        none; only a well-formed request naming an unknown model answers
        404."""

        def status(path, body):
            return _http_status(inline_kde_server, path, body)

        estimate = {
            "model": "kde",
            "queries": tiny_cosine_split.test.queries[:2].tolist(),
            "thresholds": tiny_cosine_split.test.thresholds[:2].tolist(),
        }
        assert status("/estimate", estimate) == 200
        assert status("/estimate", [estimate]) == 400
        assert status("/estimate", "kde") == 400
        for key in estimate:
            partial = {name: value for name, value in estimate.items() if name != key}
            assert status("/estimate", partial) == 400, key
        for broken in (
            {"queries": {"a": 1}},
            {"thresholds": {"a": 1}},
            {"thresholds": ["x", "y"]},
            {"thresholds": [10**400, 0.5]},
            {"model": ["x"]},
        ):
            assert status("/estimate", dict(estimate, **broken)) == 400, broken
        assert status("/estimate", dict(estimate, model="nope")) == 404
        assert status("/update", [estimate]) == 400
        assert status("/update", {"deletes": [0]}) == 400
        for broken in (
            {"model": "kde", "inserts": {"a": 1}},
            {"model": "kde", "deletes": {"a": 1}},
            {"model": ["x"], "deletes": [0]},
            {"model": "kde", "deletes": [0]},  # KDE takes no writes
        ):
            assert status("/update", broken) == 400, broken
        assert status("/update", {"model": "nope", "deletes": [0]}) == 404

    @settings(max_examples=150, deadline=None)
    @given(
        body=st.fixed_dictionaries(
            {"model": _json_models, "queries": _json_rows | _json_values},
            optional={
                "thresholds": st.lists(st.floats() | _json_values, max_size=3) | _json_values,
                "use_cache": _json_values,
            },
        )
    )
    def test_any_estimate_body_answers_200_400_or_404(self, inline_kde_server, body):
        assert _http_status(inline_kde_server, "/estimate", body) in (200, 400, 404), body

    @settings(max_examples=100, deadline=None)
    @given(
        body=st.fixed_dictionaries(
            {"model": _json_models},
            optional={
                "inserts": _json_rows | _json_values,
                "deletes": st.lists(st.integers(), max_size=3) | _json_values,
            },
        )
    )
    def test_any_update_body_answers_400_or_404(self, inline_kde_server, body):
        assert _http_status(inline_kde_server, "/update", body) in (400, 404), body

    @pytest.mark.parametrize("backend", ["inline", "network"])
    def test_selnet_inc_refuses_bad_deletes_with_400(
        self, fitted_selnet_inc, tiny_cosine_split, backend
    ):
        """A delete index below ``-size`` and a non-integral one are bad
        requests on either shard backend; in-range integers (an integral
        float among them) are applied."""
        server = build_server(None, port=0, binary_port=None, num_shards=1, backend=backend)
        server.app.cluster.add_model("inc", fitted_selnet_inc)
        with server:
            status = lambda body: _http_status(server, "/update", dict(body, model="inc"))
            size = tiny_cosine_split.dataset.num_vectors
            assert status({"deletes": [0, -size - 1]}) == 400
            assert status({"deletes": [1.7]}) == 400
            assert status({"deletes": [True]}) == 400
            assert status({"deletes": [0, 2.0, -1]}) == 200

    @pytest.mark.parametrize("backend", ["inline", "network"])
    def test_selnet_inc_refuses_non_finite_inserts_with_400(
        self, fitted_selnet_inc, tiny_cosine_split, backend
    ):
        """A NaN or infinite insert, or one whose squared norm overflows
        float64, is a bad request on either shard backend and leaves the
        shard's database as it was; finite inserts apply."""
        server = build_server(None, port=0, binary_port=None, num_shards=1, backend=backend)
        server.app.cluster.add_model("inc", fitted_selnet_inc)
        dim = tiny_cosine_split.dataset.dim
        size = tiny_cosine_split.dataset.num_vectors
        with server:
            status = lambda body: _http_status(server, "/update", dict(body, model="inc"))
            # JSON's NaN / Infinity tokens, and a plain number whose square is inf
            for value in (np.nan, np.inf, -np.inf, 1e200):
                row = [0.0] * dim
                row[1] = value
                assert status({"inserts": [row, [0.0] * dim]}) == 400, value
                assert status({"inserts": [row], "deletes": [0]}) == 400, value
            if backend == "inline":
                [shard] = server.app.cluster._shards
                replica = shard.backend.service.get("inc")
                assert replica.state._delta.num_objects == size
                assert replica.reports == []
            assert status({"inserts": [[0.0] * dim]}) == 200
            if backend == "inline":
                assert replica.state._delta.num_objects == size + 1

    @pytest.mark.parametrize("backend", ["inline", "network"])
    def test_selnet_refuses_queries_whose_norm_overflows_with_400(
        self, fitted_selnet_ct, tiny_cosine_split, backend
    ):
        """A query of 1e200s has finite coordinates but an infinite squared
        norm: a bad request on either shard backend (its answer would be a
        NaN, which is not a JSON number)."""
        server = build_server(None, port=0, binary_port=None, num_shards=1, backend=backend)
        server.app.cluster.add_model("ct", fitted_selnet_ct)
        dim = tiny_cosine_split.dataset.dim
        with server:
            status = lambda queries: _http_status(
                server, "/estimate", {"model": "ct", "queries": queries, "thresholds": [0.5]}
            )
            assert status([[1e200] * dim]) == 400
            assert status([[0.0] * (dim - 1) + [-1e200]]) == 400
            assert status([tiny_cosine_split.test.queries[0].tolist()]) == 200

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(
        body=st.fixed_dictionaries(
            {"model": st.sampled_from(["inc", "nope"]) | _json_values},
            optional={
                "inserts": _json_rows | _json_values,
                "deletes": st.lists(st.integers() | st.floats(), max_size=3) | _json_values,
            },
        )
    )
    def test_any_selnet_inc_update_answers_200_400_or_404(self, inline_inc_server, body):
        assert _http_status(inline_inc_server, "/update", body) in (200, 400, 404), body

    def test_shed_decision_survives_the_wire(self, fitted_kde, tiny_cosine_split):
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        server = build_server(
            None, port=0, binary_port=0, num_shards=1, backend="inline",
            queue_capacity=1, overload_policy="shed",
        )
        with server:
            cluster = server.app.cluster
            cluster.add_model("kde", fitted_kde)
            pending = cluster.submit_estimate("kde", queries, thresholds)
            http = HttpClient(*server.http_address)
            with pytest.raises(ClusterOverloadedError):
                http.estimate("kde", queries, thresholds)
            host, port = server.binary_address
            with BinaryClient(host, port) as client:
                with pytest.raises(ClusterOverloadedError):
                    client.estimate("kde", queries, thresholds)
            assert pending.result().shape == thresholds.shape

    def test_hot_reload_swaps_the_artifact_without_restart(
        self, tiny_cosine_split, tmp_path
    ):
        queries = tiny_cosine_split.test.queries[:8]
        thresholds = tiny_cosine_split.test.thresholds[:8]
        v1 = create_estimator("kde", num_samples=64, seed=0).fit(tiny_cosine_split)
        v2 = create_estimator("kde", num_samples=32, seed=7).fit(tiny_cosine_split)
        expected_v1 = v1.estimate(queries, thresholds)
        expected_v2 = v2.estimate(queries, thresholds)
        assert not np.array_equal(expected_v1, expected_v2), "fixtures must differ"

        v1.save(tmp_path / "kde")
        server = build_server(tmp_path, port=0, binary_port=None, num_shards=2, backend="inline")
        with server:
            http = HttpClient(*server.http_address)
            np.testing.assert_array_equal(
                http.estimate("kde", queries, thresholds, use_cache=False), expected_v1
            )
            v2.save(tmp_path / "kde")  # new artifact lands on disk...
            np.testing.assert_array_equal(  # ...but shards still serve v1
                http.estimate("kde", queries, thresholds, use_cache=False), expected_v1
            )
            reloaded = http.reload_models()
            assert len(reloaded["shards"]) == 2
            np.testing.assert_array_equal(
                http.estimate("kde", queries, thresholds, use_cache=False), expected_v2
            )


# ---------------------------------------------------------------------- #
# Cluster lifecycle satellites: graceful shutdown + admission concurrency
# ---------------------------------------------------------------------- #
class TestClusterLifecycle:
    def test_close_drains_pending_calls(self, tiny_cosine_split, fitted_kde):
        """Regression: close() must settle in-flight futures, not strand them."""
        queries = tiny_cosine_split.test.queries[:6]
        thresholds = tiny_cosine_split.test.thresholds[:6]
        cluster = EstimationCluster(ClusterConfig(num_shards=2))
        cluster.add_model("kde", fitted_kde)
        futures = [
            cluster.submit_estimate("kde", queries, thresholds, use_cache=False)
            for _ in range(3)
        ]
        cluster.close()
        direct = fitted_kde.estimate(queries, thresholds)
        for future in futures:
            np.testing.assert_array_equal(future.result(), direct)
        cluster.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            cluster.estimate("kde", queries, thresholds)

    def test_close_without_drain_cancels_pending_calls(
        self, tiny_cosine_split, fitted_kde
    ):
        queries = tiny_cosine_split.test.queries[:6]
        thresholds = tiny_cosine_split.test.thresholds[:6]
        cluster = EstimationCluster(ClusterConfig(num_shards=2))
        cluster.add_model("kde", fitted_kde)
        futures = [cluster.submit_estimate("kde", queries, thresholds) for _ in range(2)]
        cluster.close(drain=False)
        for future in futures:
            with pytest.raises(ClusterClosedError):
                future.result()

    def test_concurrent_shed_rejections_are_typed_and_accounted(
        self, tiny_cosine_split, fitted_kde
    ):
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        config = ClusterConfig(num_shards=1, queue_capacity=1, overload_policy="shed")
        with EstimationCluster(config) as cluster:
            cluster.add_model("kde", fitted_kde)
            holder = cluster.submit_estimate("kde", queries, thresholds)
            errors = []
            barrier = threading.Barrier(4)

            def _push() -> None:
                barrier.wait()
                try:
                    cluster.submit_estimate("kde", queries, thresholds)
                    errors.append(None)
                except Exception as error:  # noqa: BLE001 - recording the type
                    errors.append(error)

            threads = [threading.Thread(target=_push) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(isinstance(e, ClusterOverloadedError) for e in errors)
            assert cluster.stats()["total_shed_requests"] == 4 * len(thresholds)
            assert holder.result().shape == thresholds.shape
            # The cluster recovers once the queue drains.
            assert cluster.estimate("kde", queries, thresholds).shape == thresholds.shape

    def test_block_policy_backpressure_under_concurrent_clients(
        self, tiny_cosine_split, fitted_kde
    ):
        queries = tiny_cosine_split.test.queries[:4]
        thresholds = tiny_cosine_split.test.thresholds[:4]
        direct = fitted_kde.estimate(queries, thresholds)
        config = ClusterConfig(num_shards=1, queue_capacity=2, overload_policy="block")
        with EstimationCluster(config) as cluster:
            cluster.add_model("kde", fitted_kde)
            failures = []

            def _client() -> None:
                try:
                    for _ in range(3):
                        result = cluster.estimate(
                            "kde", queries, thresholds, use_cache=False
                        )
                        np.testing.assert_array_equal(result, direct)
                except Exception as error:  # noqa: BLE001
                    failures.append(error)

            threads = [threading.Thread(target=_client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            stats = cluster.stats()
            assert stats["total_shed_requests"] == 0
            assert stats["total_requests"] == 6 * 3 * len(thresholds)
            assert stats["per_shard"][0]["max_queue_depth"] <= 2

    def test_percentile_stats_with_zero_settled_calls(self, fitted_kde):
        with EstimationCluster(ClusterConfig(num_shards=2)) as cluster:
            cluster.add_model("kde", fitted_kde)
            for entry in cluster.stats()["per_shard"]:
                assert entry["latency"] == {
                    "count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0
                }


# ---------------------------------------------------------------------- #
# Saturation benchmark + serve CLI
# ---------------------------------------------------------------------- #
class TestSaturation:
    def test_micro_sweep_produces_a_jsonable_report(
        self, tiny_cosine_split, fitted_kde
    ):
        scenario = SaturationScenario(name="micro", backend="inline", num_shards=1)
        report = run_saturation_benchmark(
            scenario,
            "kde",
            tiny_cosine_split.test.queries,
            tiny_cosine_split.test.thresholds,
            estimator=fitted_kde,
            offered_loads=(200.0,),
            duration_seconds=0.3,
            batch_size=8,
            connections=2,
            seed=0,
        )
        assert report.points[0].batches_completed > 0
        assert report.knee_rps > 0
        assert report.num_shards == 1
        payload = json.dumps(report_as_dict(report))
        assert "achieved_rps" in payload
        assert "knee" in report.text

    def test_a_tier_that_keeps_up_achieves_at_most_the_offered_rate(
        self, tiny_cosine_split, fitted_kde
    ):
        """Six batches go out over five intervals; counting only that span
        read 1.2x the offered rate from a tier that answered every batch."""
        scenario = SaturationScenario(name="low", backend="inline", num_shards=1)
        report = run_saturation_benchmark(
            scenario,
            "kde",
            tiny_cosine_split.test.queries,
            tiny_cosine_split.test.thresholds,
            estimator=fitted_kde,
            offered_loads=(100.0,),
            duration_seconds=0.5,
            batch_size=8,
            connections=1,
            seed=0,
        )
        [point] = report.points
        assert point.batches_completed == point.batches_sent == 6
        assert point.achieved_rps <= point.offered_rps * (1 + 1e-9)


class TestServeCLI:
    def test_serve_command_boots_and_exits(self, kde_model_dir, capsys):
        exit_code = main(
            [
                "serve",
                str(kde_model_dir),
                "--port", "0",
                "--binary-port", "-2",
                "--backend", "inline",
                "--max-seconds", "0.2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "http://" in out and "kde" in out
