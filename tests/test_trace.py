"""Tests for repro.trace: request hop spans across every serving seam."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import trace as rtrace
from repro.cluster import ClusterConfig, ClusterService
from repro.cluster.telemetry import assert_stats_schema
from repro.gateway import Gateway, GatewayClient, LoopbackTransport
from repro.gateway.wire import ApiRequest, ApiResponse
from repro.loadgen import synthetic_fleet
from repro.serve import PersonalizationService, PredictRequest
from repro.trace import HOPS, Span, Trace, trace_step


@pytest.fixture(autouse=True)
def clean_tracing():
    """Every test starts and ends with tracing off and an empty aggregator."""
    rtrace.disable()
    rtrace.reset_aggregator()
    yield
    rtrace.disable()
    rtrace.reset_aggregator()


def fleet_inputs(rng, n=2):
    return rng.normal(size=(n, 3, 12, 12)).astype(np.float64)


class TestTraceUnit:
    def test_off_by_default(self):
        assert not rtrace.enabled()
        assert rtrace.trace_block() is None

    def test_trace_accumulates_and_sums_per_hop(self):
        trace = Trace()
        trace.add("shard", 0.001)
        trace.add("shard", 0.002)
        trace.add("engine", 0.004)
        assert trace.hops() == ("shard", "engine")
        assert trace.hop_ms()["shard"] == pytest.approx(3.0)
        assert trace.hop_ms()["engine"] == pytest.approx(4.0)

    def test_wire_roundtrip(self):
        trace = Trace()
        trace.add("gateway", 0.5)
        trace.add("engine", 0.25)
        rebuilt = Trace.from_wire(json.loads(json.dumps(trace.to_wire())))
        assert rebuilt.spans == trace.spans

    def test_span_and_decorator_record_into_attached_trace(self):
        class Msg:
            trace = None

        msg = Msg()
        msg.trace = Trace()

        @trace_step("engine")
        def work(message):
            return 42

        with rtrace.tracing():
            assert work(msg) == 42
            with Span(msg.trace, "shard"):
                pass
        assert set(msg.trace.hops()) == {"engine", "shard"}

    def test_decorator_is_passthrough_when_disabled(self):
        calls = []

        @trace_step("engine")
        def work(message):
            calls.append(message)
            return "ok"

        assert work(object()) == "ok" and len(calls) == 1
        assert rtrace.trace_block() is None  # nothing aggregated

    def test_tracing_context_restores_previous_state(self):
        with rtrace.tracing():
            assert rtrace.enabled()
            with rtrace.tracing(False):
                assert not rtrace.enabled()
            assert rtrace.enabled()
        assert not rtrace.enabled()

    def test_trace_block_reports_hop_summaries(self):
        with rtrace.tracing():
            Trace().add("gateway", 0.01)
        block = rtrace.trace_block()
        assert block is not None and "gateway" in block["hops"]
        assert block["hops"]["gateway"]["count"] == 1

    def test_hops_are_canonical_names(self):
        assert HOPS == ("gateway", "middleware", "frontend", "shard", "engine", "service")


class TestWireStability:
    def test_untraced_envelopes_carry_no_trace_keys(self):
        request = ApiRequest(method="predict", payload={"x": 1}, request_id="r1")
        assert "trace" not in request.to_dict()
        response = ApiResponse.success(request, {"ok": True})
        assert "trace" not in response.to_dict()

    def test_traced_request_roundtrips_flag(self):
        request = ApiRequest(method="predict", payload={}, request_id="r1", trace=True)
        data = request.to_dict()
        assert data["trace"] is True
        assert ApiRequest.from_dict(data).trace is True

    def test_traced_response_roundtrips_spans(self):
        request = ApiRequest(method="predict", payload={}, request_id="r1")
        response = ApiResponse.success(request, {})
        response.trace = [["gateway", 0.5]]
        data = json.loads(response.to_json())
        assert data["trace"] == [["gateway", 0.5]]
        assert ApiResponse.from_dict(data).trace == [["gateway", 0.5]]

    def test_predict_messages_keep_trace_out_of_wire_dict(self, rng):
        request = PredictRequest("tenant-0", fleet_inputs(rng))
        request.trace = Trace()
        assert "trace" not in request.to_dict()


@pytest.mark.parametrize("workers", ["threaded", "process"])
class TestEndToEnd:
    def test_traced_predict_decomposes_into_hops(self, workers, rng):
        registry, model_ids = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(
            ClusterConfig(shards=2, workers=workers), registry=registry
        ) as cluster:
            gateway = Gateway(cluster)
            client = GatewayClient(LoopbackTransport(gateway))
            untraced = client.predict(model_ids[0], fleet_inputs(rng))
            assert untraced.trace is None
            with rtrace.tracing():
                response = client.predict(model_ids[0], fleet_inputs(rng))
                assert response.trace is not None
                hops = set(response.trace.hops())
                # The acceptance decomposition: gateway envelope, middleware
                # chain, cluster frontend wait, shard queue/batch, engine.
                assert {"gateway", "middleware", "frontend", "shard", "engine"} <= hops
                batch = client.predict_batch(
                    [PredictRequest(model_ids[1], fleet_inputs(rng))]
                )
                assert len(set(batch[0].trace.hops())) >= 4

    def test_cluster_stats_gain_trace_block(self, workers, rng):
        registry, model_ids = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(
            ClusterConfig(shards=2, workers=workers), registry=registry
        ) as cluster:
            assert "trace" not in cluster.stats()  # pre-trace payload unchanged
            with rtrace.tracing():
                request = PredictRequest(model_ids[0], fleet_inputs(rng))
                request.trace = Trace()
                cluster.submit(request).result(30.0)
                stats = cluster.stats()
            assert stats["trace"]["enabled"] is True
            assert stats["trace"]["hops"]


def _service_facade(registry, model_ids):
    return PersonalizationService(registry=registry), None


def _threaded_facade(registry, model_ids):
    cluster = ClusterService(ClusterConfig(shards=2, workers="threaded"), registry=registry)
    return cluster, cluster


def _process_facade(registry, model_ids):
    cluster = ClusterService(ClusterConfig(shards=2, workers="process"), registry=registry)
    return cluster, cluster


def _gateway_facade(registry, model_ids):
    cluster = ClusterService(ClusterConfig(shards=2, workers="threaded"), registry=registry)
    return Gateway(cluster), cluster


@pytest.mark.parametrize(
    "build",
    [_service_facade, _threaded_facade, _process_facade, _gateway_facade],
    ids=["service", "cluster-threaded", "cluster-process", "gateway"],
)
class TestUnifiedStatsSchema:
    """Satellite: one schema across every facade, trace block included."""

    def test_stats_schema_with_trace_block(self, build, rng):
        registry, model_ids = synthetic_fleet(tenants=2, seed=0)
        facade, cluster = build(registry, model_ids)
        try:
            with rtrace.tracing():
                request = PredictRequest(model_ids[0], fleet_inputs(rng))
                if isinstance(facade, Gateway):
                    envelope = ApiRequest(
                        method="predict", payload=request.to_dict(), trace=True
                    )
                    assert facade.handle(envelope).ok
                    stats = facade.stats()
                else:
                    request.trace = Trace()
                    facade.predict(request)
                    stats = facade.stats()
            assert_stats_schema(stats)
            assert stats["trace"]["enabled"] is True
            assert stats["trace"]["hops"], "per-hop block missing"
        finally:
            if cluster is not None:
                cluster.shutdown()


class TestLoadgenTrace:
    def test_traced_run_decomposes_every_request(self):
        from repro.experiments.loadgen_cli import LoadgenConfig, run_loadgen

        base = dict(
            scenario="steady-uniform", shards=2, tenants=4, requests=6,
            seed=0, time_scale=0.0,
        )
        config = LoadgenConfig(**base, trace=True)
        assert config.transport == "loopback"  # auto-upgraded off 'local'
        report, deterministic = run_loadgen(config)
        assert report.completed == 6 and report.requests_traced == 6
        trace = report.to_dict(timing=True)["slo"]["trace"]
        assert len(trace["hops"]) >= 4
        for outcome in report.outcomes:
            assert outcome.hops and len(outcome.hops) >= 4

        # Same transport untraced: deterministic face byte-identical, no
        # trace block anywhere.
        plain, plain_deterministic = run_loadgen(
            LoadgenConfig(**base, transport="loopback")
        )
        assert "trace" not in plain.to_dict(timing=True)["slo"]
        assert json.dumps(deterministic, sort_keys=True) == json.dumps(
            plain_deterministic, sort_keys=True
        )

    def test_trace_rejects_chaos_scenarios(self):
        from repro.experiments.loadgen_cli import LoadgenConfig

        with pytest.raises(ValueError, match="chaos"):
            LoadgenConfig(scenario="shard-failure", shards=2, trace=True)
