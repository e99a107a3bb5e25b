"""Behaviour of the Serving API v2 gateway: backends, middleware, transports.

The headline invariants:

* predictions through every serving surface — each service, the cluster
  pass-through and the gateway's wire — are **bit-exact** on a seeded
  workload;
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
    LoopbackTransport,
    RetryMiddleware,
    ServingAPI,
    serve_http,
)
from repro.loadgen import (
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


def _cluster(registry, workers="threaded"):
    return ClusterService(ClusterConfig(shards=2, workers=workers), registry=registry)


#: surface -> (build it over a registry, the ``health()["backend"]`` it reports)
PARITY_SURFACES = {
    "service": (lambda registry: PersonalizationService(registry=registry), "local"),
    "cluster-threaded": (_cluster, "cluster"),
    "cluster-process": (lambda registry: _cluster(registry, "process"), "cluster"),
    "cluster-backend": (lambda registry: ClusterBackend(_cluster(registry)), "cluster"),
    "gateway-loopback": (lambda registry: Gateway(_cluster(registry)), "cluster"),
    "gateway-http": (lambda registry: Gateway(_cluster(registry)), "cluster"),
}


def _ask(client, requests):
    """Every request through a gateway client, then its health reply."""
    return [client.predict(r.model_id, r.inputs) for r in requests], client.health()


class TestServices:
    def test_local_service_predicts_and_reports(self, fleet, batch):
        registry, model_ids = fleet
        service = PersonalizationService(ServiceConfig(), registry=registry)
        assert isinstance(service, ServingAPI)
        response = service.predict(PredictRequest(model_ids[0], batch))
        assert response.ok and response.model_id == model_ids[0]
        assert service.health()["status"] == "ok"
        assert service.model_ids() == model_ids
        assert_stats_schema(service.stats())
        assert service.stats()["latency"]["count"] == 1

    def test_cluster_partial_batch(self, fleet, cluster, batch):
        _, model_ids = fleet
        assert isinstance(cluster, ServingAPI)
        results = cluster.predict_batch(
            [PredictRequest(model_ids[0], batch), PredictRequest("ghost", batch)]
        )
        assert results[0].ok and np.array_equal(
            results[0].classes, results[0].logits.argmax(axis=1)
        )
        assert isinstance(results[1], NotFoundError)

    def test_cluster_close_is_unavailable(self, fleet, batch):
        registry, model_ids = fleet
        cluster = ClusterService(ClusterConfig(shards=2), registry=registry)
        cluster.close()
        with pytest.raises(UnavailableError) as excinfo:
            cluster.predict(PredictRequest(model_ids[0], batch))
        assert excinfo.value.code == "UNAVAILABLE"


class TestTransportParity:
    @pytest.mark.parametrize("surface", sorted(PARITY_SURFACES))
    def test_every_surface_is_bit_exact(self, fleet, surface):
        """The acceptance invariant: one workload, every surface, same bits
        (and each surface keeps its ``health()["backend"]`` name)."""
        registry, model_ids = fleet
        rng = np.random.default_rng(11)
        requests = [
            PredictRequest(model_ids[i % TENANTS], rng.standard_normal((1, *FLEET_INPUT_SHAPE)))
            for i in range(6)
        ]
        oracle = PersonalizationService(ServiceConfig(), registry=registry)
        expected = [oracle.predict(request) for request in requests]

        build, name = PARITY_SURFACES[surface]
        with build(registry) as api:  # closing a gateway closes its backend
            if surface == "gateway-http":
                with serve_http(api) as server, GatewayClient(server.transport()) as client:
                    answers, health = _ask(client, requests)
            elif isinstance(api, Gateway):
                answers, health = _ask(GatewayClient(LoopbackTransport(api)), requests)
            else:
                answers = [api.predict(request) for request in requests]
                health = api.health()

        assert health["backend"] == name
        for want, got in zip(expected, answers):
            assert np.array_equal(want.logits, got.logits)
            assert got.logits.dtype == np.float64

    def test_http_server_surface(self, fleet, cluster):
        gateway = Gateway(cluster)
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
        gateway = Gateway(cluster)
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
        gateway = Gateway(PersonalizationService(ServiceConfig(), registry=registry))
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
            cluster, GatewayConfig(rate_per_s=1.0, burst=2)
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
        gateway = Gateway(cluster, GatewayConfig(quota=3))
        client = GatewayClient(LoopbackTransport(gateway))
        for _ in range(3):
            client.predict(model_ids[0], batch)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            client.predict(model_ids[0], batch)
        assert excinfo.value.details["quota"] == 3

    def test_deadline_spent_never_dispatches(self, fleet, cluster, batch):
        _, model_ids = fleet
        gateway = Gateway(cluster)
        client = GatewayClient(LoopbackTransport(gateway))
        with pytest.raises(DeadlineExceededError):
            client.predict(model_ids[0], batch, deadline_ms=0)
        # A generous deadline passes through.
        assert client.predict(model_ids[0], batch, deadline_ms=60_000).ok

    def test_retry_recovers_from_transient_unavailability(self, fleet, batch):
        registry, model_ids = fleet

        class Flaky(PersonalizationService):
            def __init__(self, registry, failures):
                super().__init__(registry=registry)
                self.remaining = failures
                self.calls = 0

            def predict(self, request, timeout=None):
                self.calls += 1
                if self.remaining > 0:
                    self.remaining -= 1
                    raise UnavailableError("transient blip")
                return super().predict(request, timeout)

        flaky = Flaky(registry, 2)
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

        class AlwaysDown(PersonalizationService):
            def predict(self, request, timeout=None):
                raise UnavailableError("down")

        backend = AlwaysDown(registry=registry)
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
        gateway = Gateway(cluster)
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
        gateway = Gateway(cluster)
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
        gateway = Gateway(cluster)
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
        single.predict(PredictRequest(model_ids[0], batch))
        assert_stats_schema(single.stats())
        assert_stats_schema(cluster.stats())
        gateway = Gateway(cluster)
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
        gateway = Gateway(cluster)
        client = GatewayClient(LoopbackTransport(gateway))
        client.health()
        stats = client.stats()
        assert stats["models"] == TENANTS
        # The snapshot is taken inside the stats call, so it sees every
        # *prior* route invocation (its own recording lands afterwards).
        assert set(stats["gateway"]["per_route"]) >= {"health"}
        client.drain()  # must not raise

    def test_drain_route_over_a_local_service(self, fleet, batch):
        registry, model_ids = fleet
        service = PersonalizationService(registry=registry)
        client = GatewayClient(LoopbackTransport(Gateway(service)))
        client.predict(model_ids[0], batch)
        client.drain()  # the synchronous service has nothing left to answer
        drain = client.stats()["gateway"]["per_route"]["drain"]
        assert drain["requests"] == 1 and drain["errors"] == {}

    def test_duplicate_ids_surface_invalid_argument(self, fleet, cluster, batch):
        _, model_ids = fleet
        results = cluster.predict_batch(
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
    @pytest.mark.parametrize("scenario", ["steady-uniform", "closed-loop"])
    def test_driver_digest_is_transport_invariant(self, fleet, cluster, scenario):
        """Paced and windowed replays alike: a closed-loop replay over a
        wire client goes through the same window as over the cluster."""
        _, model_ids = fleet

        def workload():
            return build_scenario(scenario, requests=10).synthesize(model_ids, seed=0)

        local_report = LoadDriver(cluster, time_scale=0.0).run(workload())
        gateway = Gateway(cluster)
        loopback_report = LoadDriver(
            GatewayClient(LoopbackTransport(gateway)), time_scale=0.0
        ).run(workload())
        with serve_http(gateway) as server:
            http_report = LoadDriver(
                GatewayClient(server.transport()), time_scale=0.0
            ).run(workload())

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
            cluster, GatewayConfig(rate_per_s=5.0, burst=4)
        )
        client = GatewayClient(LoopbackTransport(gateway))
        report = LoadDriver(client, time_scale=0.0).run(workload)
        assert report.requests == 24
        assert report.hung == 0 and report.failed == 0
        assert report.rejected >= 1  # the burst tripped the bucket
        assert report.completed + report.rejected == 24
        limited = gateway.rate_limiter.snapshot()["limited"]
        assert limited == report.rejected
