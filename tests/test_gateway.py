"""Behaviour of the Serving API v2 gateway: backends, middleware, transports.

The headline invariants:

* predictions through the loopback transport, the HTTP transport and the
  direct facades are **bit-exact** on a seeded workload;
* a rate-limited tenant receives ``RESOURCE_EXHAUSTED`` — never a hang and
  never a bare exception — under a bursty replay;
* every facade (service, cluster, gateway) emits the unified
  latency/cache/queue/errors stats schema.
"""

import http.client
import io
import json
import socket
import statistics
import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService
from repro.cluster.telemetry import assert_stats_schema
from repro.errors import (
    ApiError,
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
    UnavailableError,
)
from repro.gateway import (
    ApiRequest,
    ApiResponse,
    ClusterBackend,
    Gateway,
    GatewayClient,
    GatewayConfig,
    LocalBackend,
    LoopbackTransport,
    RetryMiddleware,
    ServingAPI,
    as_serving_api,
    serve_http,
)
from repro.loadgen import (
    DriverConfig,
    LoadDriver,
    build_scenario,
    synthetic_fleet,
    FLEET_INPUT_SHAPE,
)
from repro.gateway.transport import _GatewayRequestHandler
from repro.metrics import MetricsRegistry
from repro.serve import PersonalizationService, ServiceConfig
from repro.serve.types import PredictRequest, PredictResponse

TENANTS = 3


@pytest.fixture(scope="module")
def fleet():
    registry, model_ids = synthetic_fleet(tenants=TENANTS, seed=0)
    return registry, model_ids


@pytest.fixture()
def batch():
    rng = np.random.default_rng(7)
    return rng.standard_normal((2, *FLEET_INPUT_SHAPE))


@pytest.fixture()
def cluster(fleet):
    registry, _ = fleet
    with ClusterService(ClusterConfig(shards=2), registry=registry) as service:
        yield service


class TestBackendAdapters:
    def test_as_serving_api_adapts_both_facades(self, fleet, cluster):
        registry, _ = fleet
        single = PersonalizationService(ServiceConfig(), registry=registry)
        assert isinstance(as_serving_api(single), LocalBackend)
        assert isinstance(as_serving_api(cluster), ClusterBackend)
        backend = LocalBackend(single)
        assert as_serving_api(backend) is backend
        with pytest.raises(TypeError):
            as_serving_api(object())

    def test_local_backend_predicts_and_reports(self, fleet, batch):
        registry, model_ids = fleet
        backend = LocalBackend(PersonalizationService(ServiceConfig(), registry=registry))
        response = backend.predict(PredictRequest(model_ids[0], batch))
        assert response.ok and response.model_id == model_ids[0]
        assert backend.health()["status"] == "ok"
        assert backend.model_ids() == model_ids
        assert_stats_schema(backend.stats())

    def test_local_backend_maps_unknown_model(self, fleet, batch):
        registry, _ = fleet
        backend = LocalBackend(PersonalizationService(ServiceConfig(), registry=registry))
        with pytest.raises(NotFoundError) as excinfo:
            backend.predict(PredictRequest("ghost", batch))
        assert excinfo.value.code == "NOT_FOUND"

    def test_cluster_backend_partial_batch(self, fleet, cluster, batch):
        _, model_ids = fleet
        backend = ClusterBackend(cluster)
        results = backend.predict_batch(
            [PredictRequest(model_ids[0], batch), PredictRequest("ghost", batch)]
        )
        assert results[0].ok and np.array_equal(
            results[0].classes, results[0].logits.argmax(axis=1)
        )
        assert isinstance(results[1], NotFoundError)

    def test_cluster_backend_shutdown_is_unavailable(self, fleet, batch):
        registry, model_ids = fleet
        service = ClusterService(ClusterConfig(shards=2), registry=registry)
        backend = ClusterBackend(service)
        backend.close()
        with pytest.raises(UnavailableError) as excinfo:
            backend.predict(PredictRequest(model_ids[0], batch))
        assert excinfo.value.code == "UNAVAILABLE"


class TestTransportParity:
    def test_loopback_http_and_direct_are_bit_exact(self, fleet, cluster):
        """The acceptance invariant: one workload, three paths, same bits."""
        _, model_ids = fleet
        rng = np.random.default_rng(11)
        batches = [
            (model_ids[i % TENANTS], rng.standard_normal((1, *FLEET_INPUT_SHAPE)))
            for i in range(6)
        ]
        direct = [cluster.predict(m, b) for m, b in batches]

        gateway = Gateway(ClusterBackend(cluster))
        loopback = GatewayClient(LoopbackTransport(gateway))
        via_loopback = [loopback.predict(m, b) for m, b in batches]

        with serve_http(gateway) as server:
            with GatewayClient(server.transport()) as http_client:
                via_http = [http_client.predict(m, b) for m, b in batches]

        single = PersonalizationService(ServiceConfig(), registry=fleet[0])
        via_local = [
            LocalBackend(single).predict(PredictRequest(m, b)) for m, b in batches
        ]

        for d, lb, ht, lc in zip(direct, via_loopback, via_http, via_local):
            assert np.array_equal(d.logits, lb.logits)
            assert np.array_equal(d.logits, ht.logits)
            assert np.array_equal(d.logits, lc.logits)
            assert d.logits.dtype == ht.logits.dtype == np.float64

    def test_http_server_surface(self, fleet, cluster):
        gateway = Gateway(ClusterBackend(cluster))
        with serve_http(gateway) as server:
            assert server.port > 0
            client = GatewayClient(server.transport())
            health = client.health()
            assert health["status"] == "ok" and health["shards"] == 2
            # Unknown paths answer a structured envelope, not a stack trace.
            import http.client as hc

            conn = hc.HTTPConnection(server.host, server.port, timeout=10)
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            # A bad-path POST with a body must not poison the keep-alive
            # connection: the handler drains the body before replying.
            body = b'{"method":"health"}'
            conn.request("POST", "/v1", body=body,
                         headers={"Content-Type": "application/json"})
            bad_path = conn.getresponse()
            assert bad_path.status == 400
            bad_path.read()
            conn.request("POST", "/v2", body=body,
                         headers={"Content-Type": "application/json"})
            follow_up = conn.getresponse()
            assert follow_up.status == 200
            conn.close()

    def test_http_transport_unreachable_is_unavailable(self, fleet, cluster):
        gateway = Gateway(ClusterBackend(cluster))
        server = serve_http(gateway)
        port = server.port
        server.stop()
        client = GatewayClient(server.transport(timeout_s=1.0))
        with pytest.raises(UnavailableError):
            client.health()


class _StubGateway:
    """The least a transport needs behind it: every envelope answers at once,
    so a round trip through it times the socket and nothing else."""

    def handle(self, request):
        return ApiResponse.success(request, {"status": "ok"})

    handle_envelope = Gateway.handle_envelope  # the real decode, refusals included


@pytest.fixture(scope="module")
def stub_server():
    """One started server over the stub for the socket tests (stopping a
    server waits out its half-second poll, so they share it)."""
    with serve_http(_StubGateway(), metrics=MetricsRegistry()) as server:
        yield server


def _nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def _median_ms(call, repeats=20):
    call()  # connect + first reply, off the clock
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


class _RecordingSocket:
    """A socket-shaped recorder: what the handler reads, every ``sendall`` it
    makes (the unbuffered ``wfile`` turns each ``write`` into one) and every
    option it sets."""

    def __init__(self, request: bytes) -> None:
        self._request = io.BytesIO(request)
        self.sent = []
        self.options = []

    def makefile(self, mode, bufsize):
        return self._request

    def sendall(self, data):
        self.sent.append(bytes(data))

    def setsockopt(self, *option):
        self.options.append(option)


class TestNoStallOnReplies:
    """A small reply must not wait out the client's delayed ACK (~40 ms): the
    parent wrote headers and body as two small segments with Nagle on, and
    every HTTP round trip — predicts, ``stats``, scrapes — paid 44 ms."""

    #: 44 ms at the parent, 0.25 ms measured with the fix: far from both.
    STALL_MS = 15.0

    def test_both_ends_of_the_connection_disable_nagle(self, stub_server, monkeypatch):
        accepted = []
        accept = stub_server.get_request

        def recording_accept():
            conn, address = accept()
            accepted.append(conn)
            return conn, address

        monkeypatch.setattr(stub_server, "get_request", recording_accept)
        with stub_server.transport() as transport:
            assert transport.send(ApiRequest("health")).ok
            assert _nodelay(transport._connection.sock)  # http.client's side
            assert len(accepted) == 1 and _nodelay(accepted[0])

    def test_small_round_trips_do_not_stall(self, stub_server):
        server = stub_server
        with server.transport() as transport:
            post = _median_ms(lambda: transport.send(ApiRequest("health")))
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                def get(path):
                    conn.request("GET", path)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200

                gets = {path: _median_ms(lambda: get(path)) for path in ("/metrics", "/healthz")}
            finally:
                conn.close()
        assert post < self.STALL_MS, f"POST /v2 median {post:.1f} ms"
        for path, median in gets.items():
            assert median < self.STALL_MS, f"GET {path} median {median:.1f} ms"

    @pytest.mark.parametrize(
        "request_bytes,status",
        [
            (b'POST /v2 HTTP/1.1\r\nContent-Length: 19\r\n\r\n{"method":"health"}', 200),
            (b"POST /v1 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 400),
            (b"GET /healthz HTTP/1.1\r\n\r\n", 200),
            (b"GET /metrics HTTP/1.1\r\n\r\n", 200),
            (b"GET /nope HTTP/1.1\r\n\r\n", 400),
        ],
        ids=["post", "post-bad-path", "get-healthz", "get-metrics", "get-bad-path"],
    )
    def test_every_reply_is_one_write(self, stub_server, request_bytes, status):
        """Headers and body in one ``sendall``, on every route — so no reply
        depends on ``TCP_NODELAY`` alone."""
        sock = _RecordingSocket(request_bytes)
        _GatewayRequestHandler(sock, ("127.0.0.1", 0), stub_server)  # handles, then returns
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options
        assert len(sock.sent) == 1
        head, _, body = sock.sent[0].partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert f"Content-Length: {len(body)}".encode() in head.split(b"\r\n")

    def test_loopback_and_http_answer_the_same_bytes(self, fleet, batch):
        """One envelope, both transports, byte for byte — and the old
        nested-list array form decodes to the logits the packed form does."""
        registry, model_ids = fleet
        gateway = Gateway(LocalBackend(PersonalizationService(ServiceConfig(), registry=registry)))
        requests = [PredictRequest(m, batch, request_id=f"r{i}") for i, m in enumerate(model_ids)]
        packed = [r.to_dict() for r in requests]
        nested = [dict(p, inputs=batch.tolist()) for p in packed]
        logits = {}
        with serve_http(gateway) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            for form, payloads in (("packed", packed), ("nested", nested)):
                envelopes = [
                    ApiRequest("predict", payloads[0], request_id="one"),
                    ApiRequest("predict_batch", {"requests": payloads}, request_id="many"),
                ]
                for envelope in envelopes:
                    raw = envelope.to_json().encode("utf-8")
                    conn.request("POST", "/v2", body=raw)
                    over_http = conn.getresponse().read()
                    assert over_http == gateway.handle_json(raw).encode("utf-8")
                    payload = ApiResponse.from_json(over_http.decode("utf-8")).payload
                    items = payload.get("results") or [payload]
                    logits[form, envelope.method] = [
                        PredictResponse.from_dict(item["response"]).logits.tobytes()
                        for item in items
                    ]
            conn.close()
        assert "b64" not in json.dumps(nested) and "b64" in json.dumps(packed)
        for method in ("predict", "predict_batch"):
            assert logits["packed", method] == logits["nested", method]
        assert len(logits["packed", "predict_batch"]) == TENANTS


class TestMalformedContentLength:
    """A bad ``Content-Length`` is outside input: one 400 envelope, then the
    connection closes (the body's end is unknown).  At the parent ``-1`` hung
    the handler in ``read(-1)`` and ``abc`` killed it without a reply."""

    @staticmethod
    def _exchange(server, content_length: str) -> bytes:
        """Everything the server says until it closes; 2 s per socket call."""
        with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
            sock.sendall(
                b"POST /v2 HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + content_length.encode("ascii")
                + b'\r\n\r\n{"method":"health"}'
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_answers_invalid_argument_and_closes(self, stub_server, content_length):
        reply = self._exchange(stub_server, content_length)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head.split(b"\r\n")
        envelope = ApiResponse.from_json(body.decode("utf-8"))
        assert not envelope.ok and envelope.error["code"] == "INVALID_ARGUMENT"
        assert repr(content_length) in envelope.error["message"]
        # A well-formed request on a fresh connection is served afterwards.
        with stub_server.transport(timeout_s=2.0) as transport:
            assert transport.send(ApiRequest("health")).ok

    def test_missing_header_is_an_empty_body(self, stub_server):
        conn = http.client.HTTPConnection(stub_server.host, stub_server.port, timeout=2.0)
        conn.putrequest("POST", "/v2")
        conn.endheaders()
        response = conn.getresponse()
        envelope = ApiResponse.from_json(response.read().decode("utf-8"))
        conn.close()
        assert response.status == 400 and envelope.error["code"] == "INVALID_ARGUMENT"
        assert "not valid JSON" in envelope.error["message"]


class TestMiddleware:
    def test_rate_limited_tenant_gets_resource_exhausted(self, fleet, cluster, batch):
        _, model_ids = fleet
        gateway = Gateway(
            ClusterBackend(cluster), GatewayConfig(rate_per_s=1.0, burst=2)
        )
        hot = GatewayClient(LoopbackTransport(gateway), tenant="hot")
        cold = GatewayClient(LoopbackTransport(gateway), tenant="cold")
        outcomes = []
        for _ in range(6):
            try:
                hot.predict(model_ids[0], batch)
                outcomes.append("ok")
            except ResourceExhaustedError as exc:
                assert exc.details["tenant"] == "hot"
                assert exc.details["retry_after_ms"] >= 0
                outcomes.append("limited")
        assert outcomes.count("ok") == 2  # the burst
        assert outcomes.count("limited") == 4
        # Per-tenant isolation: the cold tenant's bucket is untouched.
        assert cold.predict(model_ids[1], batch).ok
        assert gateway.rate_limiter.snapshot()["limited"] == 4

    def test_oversize_batch_is_unsatisfiable_not_throttled(self):
        from repro.gateway import RateLimitMiddleware

        middleware = RateLimitMiddleware(rate_per_s=10)  # burst defaults to 10
        request = ApiRequest(
            "predict_batch", {"requests": [{"i": i} for i in range(16)]}
        )
        # cost > burst can never succeed by waiting: a non-retryable
        # INVALID_ARGUMENT, never a finite retry_after_ms loop.
        with pytest.raises(InvalidArgumentError):
            middleware.handle(request, lambda r: None)

    def test_quota_exhaustion(self, fleet, cluster, batch):
        _, model_ids = fleet
        gateway = Gateway(ClusterBackend(cluster), GatewayConfig(quota=3))
        client = GatewayClient(LoopbackTransport(gateway))
        for _ in range(3):
            client.predict(model_ids[0], batch)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            client.predict(model_ids[0], batch)
        assert excinfo.value.details["quota"] == 3

    def test_deadline_spent_never_dispatches(self, fleet, cluster, batch):
        _, model_ids = fleet
        gateway = Gateway(ClusterBackend(cluster))
        client = GatewayClient(LoopbackTransport(gateway))
        with pytest.raises(DeadlineExceededError):
            client.predict(model_ids[0], batch, deadline_ms=0)
        # A generous deadline passes through.
        assert client.predict(model_ids[0], batch, deadline_ms=60_000).ok

    def test_retry_recovers_from_transient_unavailability(self, fleet, batch):
        registry, model_ids = fleet

        class Flaky(LocalBackend):
            def __init__(self, service, failures):
                super().__init__(service)
                self.remaining = failures
                self.calls = 0

            def predict(self, request, timeout=None):
                self.calls += 1
                if self.remaining > 0:
                    self.remaining -= 1
                    raise UnavailableError("transient blip")
                return super().predict(request, timeout)

        flaky = Flaky(PersonalizationService(ServiceConfig(), registry=registry), 2)
        gateway = Gateway(flaky, GatewayConfig(max_attempts=3, retry_base_delay_s=0.0))
        client = GatewayClient(LoopbackTransport(gateway))
        assert client.predict(model_ids[0], batch).ok
        assert flaky.calls == 3
        assert gateway.retry.snapshot()["retries"] == 2

        # One more failure than the budget: the UNAVAILABLE surfaces.
        flaky.remaining = 3
        with pytest.raises(UnavailableError):
            client.predict(model_ids[0], batch)

    def test_retry_backoff_is_charged_against_the_deadline(self, fleet, batch):
        """Backoff sleeps spend the budget: a deadlined call ends as
        DEADLINE_EXCEEDED promptly instead of retrying past its budget."""
        registry, model_ids = fleet

        class AlwaysDown(LocalBackend):
            def predict(self, request, timeout=None):
                raise UnavailableError("down")

        backend = AlwaysDown(PersonalizationService(ServiceConfig(), registry=registry))
        gateway = Gateway(
            backend, GatewayConfig(max_attempts=5, retry_base_delay_s=0.2)
        )
        client = GatewayClient(LoopbackTransport(gateway))
        import time as _time

        start = _time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            client.predict(model_ids[0], batch, deadline_ms=5)
        assert (_time.perf_counter() - start) < 1.0  # not 5 x 200ms backoffs

    def test_metrics_record_the_code_the_caller_sees(self, fleet, cluster):
        """Raw exceptions escaping the router count under their mapped code."""
        gateway = Gateway(ClusterBackend(cluster))
        bad = gateway.handle(
            ApiRequest("predict", {"model_id": "x", "inputs": [[1.0]]})
        )
        assert bad.error["code"] == "INVALID_ARGUMENT"  # 1D inputs
        snapshot = gateway.metrics.snapshot()
        assert snapshot["errors"]["by_code"] == {"INVALID_ARGUMENT": 1}

    def test_retry_never_touches_non_retryable(self):
        calls = []

        def terminal(request):
            calls.append(request.method)
            raise ResourceExhaustedError("limited")

        middleware = RetryMiddleware(max_attempts=5, base_delay_s=0.0)
        with pytest.raises(ResourceExhaustedError):
            middleware.handle(ApiRequest("predict"), terminal)
        assert len(calls) == 1

    def test_validation_rejects_bad_envelopes(self, fleet, cluster):
        gateway = Gateway(ClusterBackend(cluster))
        wrong_version = gateway.handle(
            ApiRequest("health", version="v1")
        )
        assert not wrong_version.ok
        assert wrong_version.error["code"] == "INVALID_ARGUMENT"
        unknown = gateway.handle(ApiRequest("teleport"))
        assert unknown.error["code"] == "NOT_FOUND"
        missing = gateway.handle(ApiRequest("predict", {"model_id": "x"}))
        assert missing.error["code"] == "INVALID_ARGUMENT"
        garbage = gateway.handle_envelope(b"\xff\xfe not json")
        assert not garbage.ok

    def test_metrics_see_every_outcome(self, fleet, cluster, batch):
        _, model_ids = fleet
        gateway = Gateway(ClusterBackend(cluster))
        client = GatewayClient(LoopbackTransport(gateway))
        client.predict(model_ids[0], batch)
        with pytest.raises(NotFoundError):
            client.predict("ghost", batch)
        snapshot = gateway.metrics.snapshot()
        route = snapshot["per_route"]["predict"]
        assert route["requests"] == 2
        assert route["errors"] == {"NOT_FOUND": 1}
        assert snapshot["errors"]["failed"] == 1
        assert snapshot["latency"]["count"] == 2


class TestGatewayRoutes:
    def test_stats_schema_everywhere(self, fleet, cluster, batch):
        registry, model_ids = fleet
        single = PersonalizationService(ServiceConfig(), registry=registry)
        single.predict(model_ids[0], batch)
        assert_stats_schema(single.stats())
        assert_stats_schema(cluster.stats())
        gateway = Gateway(ClusterBackend(cluster))
        stats = gateway.stats()
        assert_stats_schema(stats)
        assert "per_route" in stats["gateway"]

    def test_stats_schema_helper_rejects_drift(self):
        with pytest.raises(AssertionError, match="latency"):
            assert_stats_schema({"cache": {}, "queue": {}, "errors": {}})
        with pytest.raises(AssertionError, match="hit_rate"):
            assert_stats_schema(
                {
                    "latency": {"count": 0, "mean_ms": 0, "max_ms": 0},
                    "cache": {"hits": 0, "misses": 0, "evictions": 0},
                    "queue": {"pending": 0, "max_depth": 0},
                    "errors": {"failed": 0, "rejected": 0},
                }
            )

    def test_stats_and_drain_routes(self, fleet, cluster):
        gateway = Gateway(ClusterBackend(cluster))
        client = GatewayClient(LoopbackTransport(gateway))
        client.health()
        stats = client.stats()
        assert stats["models"] == TENANTS
        # The snapshot is taken inside the stats call, so it sees every
        # *prior* route invocation (its own recording lands afterwards).
        assert set(stats["gateway"]["per_route"]) >= {"health"}
        client.drain()  # must not raise

    def test_duplicate_ids_surface_invalid_argument(self, fleet, cluster, batch):
        _, model_ids = fleet
        backend = ClusterBackend(cluster)
        results = backend.predict_batch(
            [
                PredictRequest(model_ids[0], batch, request_id="dup"),
                PredictRequest(model_ids[0], batch, request_id="dup"),
            ]
        )
        errors = [r for r in results if isinstance(r, ApiError)]
        assert len(errors) == 1
        assert errors[0].code == "INVALID_ARGUMENT"
        # The scheduler's own raise keeps the legacy ValueError contract.
        assert isinstance(errors[0], ValueError)


class TestLoadgenThroughGateway:
    def _workload(self, model_ids, requests=10):
        return build_scenario("steady-uniform", requests=requests).synthesize(
            model_ids, seed=0
        )

    def test_driver_digest_is_transport_invariant(self, fleet, cluster):
        _, model_ids = fleet
        workload = self._workload(model_ids)
        config = DriverConfig(time_scale=0.0)

        local_report = LoadDriver(ClusterBackend(cluster), config).run(workload)
        gateway = Gateway(ClusterBackend(cluster))
        loopback_report = LoadDriver(
            GatewayClient(LoopbackTransport(gateway)), config
        ).run(self._workload(model_ids))
        with serve_http(gateway) as server:
            http_report = LoadDriver(
                GatewayClient(server.transport()), config
            ).run(self._workload(model_ids))

        assert local_report.completed == loopback_report.completed == 10
        assert http_report.completed == 10
        assert (
            local_report.predictions_digest()
            == loopback_report.predictions_digest()
            == http_report.predictions_digest()
        )
        assert local_report.hung == loopback_report.hung == http_report.hung == 0
        # Wire replays keep the cluster's own telemetry in the report: the
        # remote shard count and the merged-reservoir latency block survive
        # the transport instead of degrading to a shardless view.
        assert http_report.shards == 2
        assert http_report.cluster_stats is not None
        assert "totals" in http_report.cluster_stats
        assert http_report.observed_per_shard()  # per-shard completions

    def test_bursty_rate_limited_tenant_sheds_cleanly(self, fleet, cluster):
        """Acceptance: RESOURCE_EXHAUSTED under burst — no hang, no raw error."""
        _, model_ids = fleet
        workload = build_scenario("zipf-burst", requests=24).synthesize(
            model_ids, seed=0
        )
        gateway = Gateway(
            ClusterBackend(cluster), GatewayConfig(rate_per_s=5.0, burst=4)
        )
        client = GatewayClient(LoopbackTransport(gateway))
        report = LoadDriver(client, DriverConfig(time_scale=0.0)).run(workload)
        assert report.requests == 24
        assert report.hung == 0 and report.failed == 0
        assert report.rejected >= 1  # the burst tripped the bucket
        assert report.completed + report.rejected == 24
        limited = gateway.rate_limiter.snapshot()["limited"]
        assert limited == report.rejected
