"""Tests for repro.metrics: registry, exposition, events, poller, SLO alerts.

The continuous-observability plane's contract tests: ring-buffer series and
the counter delta clamp, byte-stable Prometheus exposition with a strict
parser round-trip, the structured event log threaded through the serving
seams, the SLO alert state machine, and the two delivery surfaces — the
``GET /metrics`` / ``GET /statsz`` gateway routes and ``loadgen --monitor``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService, ShardOverloadError
from repro.cluster.telemetry import assert_stats_schema
from repro.gateway import Gateway, serve_http
from repro.gateway.wire import ApiRequest
from repro.loadgen import synthetic_fleet
from repro.metrics import (
    CONTENT_TYPE,
    Counter,
    EventLog,
    Gauge,
    MetricsRegistry,
    SLOMonitor,
    TelemetryPoller,
    TimeSeries,
    default_rules,
    event_log,
    get_event_log,
    p99_over,
    parse_text,
    queue_depth_sustained,
    record_sample,
    rejection_burn_rate,
    render_families,
    set_event_log,
)
from repro.metrics import events as events_module
from repro.serve import PersonalizationService, PredictRequest


@pytest.fixture(autouse=True)
def no_global_event_log():
    """Every test starts and ends with the module-level event log off."""
    set_event_log(None)
    yield
    set_event_log(None)


def fleet_inputs(rng, n=2):
    return rng.normal(size=(n, 3, 12, 12)).astype(np.float64)


def fake_stats(count=10, failed=0, rejected=0, pending=0, p99=5.0, shards=None):
    """A minimal unified-schema stats payload for deterministic sampling."""
    stats = {
        "latency": {
            "count": count, "mean_ms": 2.0, "max_ms": p99,
            "p50_ms": 1.0, "p95_ms": 4.0, "p99_ms": p99,
        },
        "cache": {"hits": 3, "misses": 2, "evictions": 1, "hit_rate": 0.6},
        "queue": {"pending": pending, "max_depth": max(pending, 4)},
        "errors": {"failed": failed, "rejected": rejected},
    }
    if shards is not None:
        stats["shards"] = shards
    return stats


class TestTimeSeries:
    def test_ring_drops_oldest(self):
        ts = TimeSeries(window=3)
        for i in range(5):
            ts.record(float(i), float(i * 10))
        assert len(ts) == 3
        assert ts.values() == [20.0, 30.0, 40.0]
        assert ts.last() == (4.0, 40.0)

    def test_tail_handles_short_series(self):
        ts = TimeSeries(window=8)
        ts.record(0.0, 1.0)
        assert ts.tail(4) == [1.0]
        ts.record(1.0, 2.0)
        ts.record(2.0, 3.0)
        assert ts.tail(2) == [2.0, 3.0]

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            TimeSeries(window=0)


class TestRegistry:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry(namespace="t")
        counter = registry.counter("reqs_total", "help")
        counter.inc(t=1.0, kind="a")
        counter.inc(2.0, t=2.0, kind="a")
        counter.inc(t=1.5, kind="b")
        assert counter.samples() == [
            ((("kind", "a"),), 3.0),
            ((("kind", "b"),), 1.0),
        ]
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1.0)

    def test_observe_total_clamp(self):
        counter = Counter("c_total", "")
        # First reading establishes the baseline: value = raw, delta = 0.
        assert counter.observe_total(10.0, t=0.0) == 0.0
        assert counter.samples() == [((), 10.0)]
        assert counter.observe_total(14.0, t=1.0) == 4.0
        # A raw drop (dead shard leaving the totals) flattens, never bends back.
        assert counter.observe_total(6.0, t=2.0) == 0.0
        assert counter.samples() == [((), 14.0)]
        assert counter.observe_total(8.0, t=3.0) == 2.0
        assert counter.series().values() == [10.0, 14.0, 14.0, 16.0]

    def test_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        assert registry.gauge("depth") is gauge
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("depth")

    def test_name_validation_and_namespace(self):
        registry = MetricsRegistry(namespace="repro")
        assert registry.qualify("x_total") == "repro_x_total"
        assert registry.qualify("repro_x_total") == "repro_x_total"
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")
        # Namespacing makes a leading digit legal; bare names reject it.
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("9leading", "")

    def test_summary_min_max_last(self):
        registry = MetricsRegistry(namespace="t")
        gauge = registry.gauge("g")
        for t, v in enumerate([3.0, 1.0, 2.0]):
            gauge.set(v, t=float(t))
        assert registry.summary()["t_g"] == {
            "last": 2.0, "min": 1.0, "max": 3.0, "samples": 3,
        }


class TestExposition:
    def build(self):
        registry = MetricsRegistry(namespace="t")
        registry.counter("requests_total", "Requests (total)").inc(5, t=0.0)
        gauge = registry.gauge("latency_ms", 'Latency "quoted" help\nline two')
        gauge.set(1.25, t=0.0, quantile="p99", shard="0")
        gauge.set(0.5, t=0.0, quantile="p50", shard="0")
        registry.gauge("odd_values").set(float("nan"), t=0.0)
        return registry

    def test_round_trip_is_byte_identical(self):
        text = self.build().render()
        assert text.endswith("\n")
        assert render_families(parse_text(text)) == text

    def test_render_is_deterministic_across_registries(self):
        assert self.build().render() == self.build().render()
        first = json.dumps(self.build().to_dict(), sort_keys=True)
        assert first == json.dumps(self.build().to_dict(), sort_keys=True)

    def test_families_sorted_with_type_lines(self):
        text = self.build().render()
        names = [line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        assert names == sorted(names)
        assert "# TYPE t_requests_total counter" in text
        assert "# TYPE t_latency_ms gauge" in text
        assert 't_latency_ms{quantile="p50",shard="0"} 0.5' in text

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_text("not a metric line at all\n")
        with pytest.raises(ValueError):
            parse_text('m{unclosed="x\n')

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")


class TestEventLog:
    def test_emit_validates_kind(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("nonsense")

    def test_ring_bounds_and_counts(self):
        log = EventLog(capacity=2)
        for shard in range(3):
            log.emit("shard_add", ts=float(shard), shard=shard)
        assert len(log) == 2 and log.emitted == 3
        assert [e.fields["shard"] for e in log.events()] == [1, 2]
        assert log.counts() == {"shard_add": 2}

    def test_jsonl_sink_and_dump(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        log = EventLog(path=str(sink))
        log.emit("cache_evict", ts=1.0, model_id="m0", reason="capacity")
        log.close()
        (line,) = sink.read_text().splitlines()
        assert json.loads(line) == {
            "kind": "cache_evict", "model_id": "m0",
            "reason": "capacity", "ts": 1.0,
        }
        dump = tmp_path / "dump.jsonl"
        assert log.dump_jsonl(str(dump)) == 1
        assert dump.read_text() == line + "\n"

    def test_module_emit_is_noop_until_installed(self):
        assert events_module.emit("retry", method="predict") is None
        with event_log() as log:
            assert get_event_log() is log
            events_module.emit("retry", method="predict", attempt=1)
            assert [e.kind for e in log.events()] == ["retry"]
        assert get_event_log() is None

    def test_subscribers_see_every_event(self):
        log = EventLog()
        seen = []
        log.subscribe(lambda event: seen.append(event.kind))
        log.emit("shard_kill", shard=1)
        log.emit("fault", action="kill_shard")
        assert seen == ["shard_kill", "fault"]


class TestSLOMonitor:
    def prime(self, values, metric="queue_pending"):
        registry = MetricsRegistry()
        gauge = registry.gauge(metric)
        for t, v in enumerate(values):
            gauge.set(float(v), t=float(t))
        return registry

    def test_for_samples_debounce_and_resolve(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_pending")
        monitor = SLOMonitor(
            registry, (queue_depth_sustained(depth=10.0, for_samples=2),)
        )
        gauge.set(50.0, t=0.0)
        assert monitor.evaluate(now=0.0) == []  # one hot sample: debounced
        gauge.set(60.0, t=1.0)
        (fired,) = monitor.evaluate(now=1.0)
        assert fired.state == "firing" and fired.value == 60.0
        assert monitor.evaluate(now=1.5) == []  # still firing: no re-fire
        assert [a.rule for a in monitor.active()] == ["queue-depth-sustained"]
        gauge.set(0.0, t=2.0)
        (resolved,) = monitor.evaluate(now=2.0)
        assert resolved.state == "resolved"
        assert monitor.active() == [] and monitor.fired == 1

    def test_label_filter_selects_the_p99_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("latency_ms")
        monitor = SLOMonitor(registry, (p99_over(100.0, for_samples=1),))
        gauge.set(500.0, t=0.0, quantile="p50")  # hot, but not the p99 series
        assert monitor.evaluate(now=0.0) == []
        gauge.set(150.0, t=1.0, quantile="p99")
        (alert,) = monitor.evaluate(now=1.0)
        assert dict(alert.labels) == {"quantile": "p99"}

    def test_alerts_land_in_the_event_log(self):
        registry = MetricsRegistry()
        log = EventLog()
        monitor = SLOMonitor(
            registry, (rejection_burn_rate(0.05),), event_log=log
        )
        registry.gauge("error_burn_rate").set(0.5, t=0.0)
        monitor.evaluate(now=0.0)
        (event,) = log.events("alert")
        assert event.fields["rule"] == "rejection-burn-rate"
        assert event.fields["state"] == "firing"

    def test_alerts_reach_the_process_wide_seam_without_an_injected_log(self):
        registry = MetricsRegistry()
        registry.gauge("error_burn_rate").set(0.5, t=0.0)
        with event_log() as installed:
            SLOMonitor(registry, (rejection_burn_rate(0.05),)).evaluate(now=0.0)
            injected = EventLog()
            SLOMonitor(
                registry, (rejection_burn_rate(0.05),), event_log=injected
            ).evaluate(now=1.0)
        # The bare monitor emitted through the seam; the injected log was
        # used alone, so nothing is double-counted.
        assert [e.ts for e in installed.events("alert")] == [0.0]
        assert [e.ts for e in injected.events("alert")] == [1.0]

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="unknown op"):
            p99_over(1.0).__class__(name="x", metric="m", op="!", threshold=1.0)
        with pytest.raises(ValueError, match="for_samples"):
            queue_depth_sustained(for_samples=0)

    def test_default_rules_cover_the_three_shapes(self):
        names = {rule.name for rule in default_rules()}
        assert names == {
            "p99-over-threshold", "rejection-burn-rate", "queue-depth-sustained",
        }


class TestStatsSchemaValueGuard:
    """Satellite: assert_stats_schema rejects NaN/negative telemetry values."""

    def test_valid_stats_pass(self):
        assert_stats_schema(fake_stats())

    def test_nan_latency_rejected(self):
        stats = fake_stats()
        stats["latency"]["p99_ms"] = float("nan")
        with pytest.raises(AssertionError, match="not finite"):
            assert_stats_schema(stats)

    def test_infinite_queue_rejected(self):
        stats = fake_stats()
        stats["queue"]["max_depth"] = float("inf")
        with pytest.raises(AssertionError, match="not finite"):
            assert_stats_schema(stats)

    def test_negative_queue_depth_rejected(self):
        stats = fake_stats()
        stats["queue"]["pending"] = -1
        with pytest.raises(AssertionError, match="negative"):
            assert_stats_schema(stats)

    def test_facade_stats_satisfy_the_value_guard(self, rng):
        registry, model_ids = synthetic_fleet(tenants=2, seed=0)
        facade = PersonalizationService(registry=registry)
        facade.predict(PredictRequest(model_ids[0], fleet_inputs(rng)))
        assert_stats_schema(facade.stats())


class _FakeTarget:
    def __init__(self, snapshots):
        self.snapshots = list(snapshots)
        self.calls = 0

    def stats(self):
        self.calls += 1
        if not self.snapshots:
            raise RuntimeError("exhausted")
        return self.snapshots.pop(0)


class TestRecordSampleAndPoller:
    def test_record_sample_maps_the_unified_schema(self):
        registry = MetricsRegistry()
        record_sample(registry, fake_stats(count=10, shards=2), now=0.0)
        record_sample(
            registry, fake_stats(count=16, failed=2, shards=2), now=1.0
        )
        assert registry.series("requests_total").values() == [10.0, 16.0]
        assert registry.series("errors_total", kind="failed").values() == [0.0, 2.0]
        assert registry.series("latency_ms", quantile="p99").last()[1] == 5.0
        assert registry.series("shards").last()[1] == 2.0
        # Burn rate is per-interval: 2 bad of 8 outcomes this sample.
        assert registry.series("error_burn_rate").values() == [0.0, 0.25]

    def test_burn_rate_ignores_preattach_history(self):
        registry = MetricsRegistry()
        # First-ever sample already carries failures: baseline, not a spike.
        record_sample(registry, fake_stats(count=100, failed=50), now=0.0)
        assert registry.series("error_burn_rate").values() == [0.0]

    def test_sample_survives_stats_failures(self):
        target = _FakeTarget([fake_stats()])
        poller = TelemetryPoller(target, interval_s=10.0)
        assert poller.sample(now=0.0) is not None
        assert poller.sample(now=1.0) is None  # target raised: recorded, not fatal
        assert poller.samples == 1 and poller.poll_errors == 1

    def test_start_takes_a_priming_baseline_sample(self):
        target = _FakeTarget([fake_stats(count=4), fake_stats(count=9, failed=1)])
        poller = TelemetryPoller(target, interval_s=60.0)
        poller.start()
        try:
            assert poller.samples == 1  # synchronous priming sample
        finally:
            poller.stop(final_sample=True)
        assert poller.samples == 2
        # Thanks to the baseline, the final sample's deltas are honest.
        burn = poller.registry.series("error_burn_rate").values()
        assert burn == [0.0, pytest.approx(1.0 / 6.0)]

    def test_exposition_scrape_mode_samples(self):
        poller = TelemetryPoller(_FakeTarget([fake_stats()]), interval_s=10.0)
        text = poller.exposition(sample=True)
        assert poller.samples == 1
        assert render_families(parse_text(text)) == text

    def test_target_must_expose_stats(self):
        with pytest.raises(TypeError, match="stats"):
            TelemetryPoller(object())

    def test_deterministic_exposition_is_byte_stable(self):
        """Acceptance: same (stats, t) sequence -> identical /metrics bytes."""
        def run():
            poller = TelemetryPoller(
                _FakeTarget(
                    [fake_stats(count=5), fake_stats(count=9, failed=1, pending=3)]
                ),
                interval_s=10.0,
            )
            poller.sample(now=100.0)
            poller.sample(now=101.0)
            return poller.exposition()

        assert run() == run()


def _service_facade(registry):
    return PersonalizationService(registry=registry), None


def _threaded_facade(registry):
    cluster = ClusterService(
        ClusterConfig(shards=2, workers="threaded"), registry=registry
    )
    return cluster, cluster


def _process_facade(registry):
    cluster = ClusterService(
        ClusterConfig(shards=2, workers="process"), registry=registry
    )
    return cluster, cluster


def _gateway_facade(registry):
    cluster = ClusterService(
        ClusterConfig(shards=2, workers="threaded"), registry=registry
    )
    return Gateway(cluster), cluster


@pytest.mark.parametrize(
    "build",
    [_service_facade, _threaded_facade, _process_facade, _gateway_facade],
    ids=["service", "cluster-threaded", "cluster-process", "gateway"],
)
class TestFacadeSampling:
    """Satellite: counter monotonicity + gauge consistency on every facade."""

    def drive(self, facade, model_id, rng):
        if isinstance(facade, Gateway):
            request = PredictRequest(model_id, fleet_inputs(rng))
            envelope = ApiRequest(method="predict", payload=request.to_dict())
            assert facade.handle(envelope).ok
        else:
            facade.predict(PredictRequest(model_id, fleet_inputs(rng)))

    def test_counters_monotonic_and_gauges_consistent(self, build, rng):
        fleet, model_ids = synthetic_fleet(tenants=2, seed=0)
        facade, cluster = build(fleet)
        try:
            poller = TelemetryPoller(facade, interval_s=60.0)
            tick = 0.0
            for round_ in range(3):
                self.drive(facade, model_ids[round_ % len(model_ids)], rng)
                assert poller.sample(now=tick) is not None
                tick += 1.0
            registry = poller.registry
            for metric in registry.metrics():
                if metric.kind != "counter":
                    continue
                for _, ts in metric.all_series():
                    values = ts.values()
                    assert values == sorted(values), metric.name
            stats = facade.stats()
            assert_stats_schema(stats)
            # Gauge consistency: the latest sampled point mirrors the live
            # stats the facade reports right now (nothing ran in between).
            assert registry.series("requests_total").last()[1] == pytest.approx(
                stats["latency"]["count"]
            )
            assert registry.series("cache_hit_rate").last()[1] == pytest.approx(
                stats["cache"]["hit_rate"]
            )
            assert registry.series("queue_pending").last()[1] == pytest.approx(
                stats["queue"]["pending"]
            )
        finally:
            if cluster is not None:
                cluster.shutdown()


class TestClusterEventSeams:
    def test_shard_lifecycle_and_eviction_events(self, rng):
        fleet, model_ids = synthetic_fleet(tenants=4, seed=0)
        with event_log() as log:
            with ClusterService(
                ClusterConfig(shards=2, cache_capacity=1), registry=fleet
            ) as cluster:
                assert len(log.events("shard_add")) == 2
                for model_id in model_ids[:3]:
                    cluster.submit(
                        PredictRequest(model_id, fleet_inputs(rng))
                    ).result(30.0)
                assert log.events("cache_evict"), "capacity evictions missing"
                victim = cluster.shard_ids()[1]
                cluster.kill_shard(victim)
                assert log.events("shard_kill")[0].fields["shard"] == victim
                cluster.remove_shard(victim)
                assert log.events("shard_drain")[0].fields["shard"] == victim

    def test_admission_reject_event_on_high_water(self, rng):
        fleet, model_ids = synthetic_fleet(tenants=2, seed=0)
        with event_log() as log:
            with ClusterService(
                ClusterConfig(shards=1, high_water=1, max_pending=8),
                registry=fleet,
            ) as cluster:
                shard_id = cluster.shard_ids()[0]
                # Stall dispatch so later submits observe a standing queue.
                cluster.worker(shard_id).chaos_delay_s = 0.2
                futures = [
                    cluster.submit(PredictRequest(model_ids[0], fleet_inputs(rng)))
                    for _ in range(4)
                ]
                errors = [future.exception(30.0) for future in futures]
                assert all(
                    exc is None or isinstance(exc, ShardOverloadError)
                    for exc in errors
                ), errors
                assert None in errors, "no admitted predict succeeded"
                cluster.worker(shard_id).chaos_delay_s = 0.0
        events = log.events("admission_reject")
        assert events, "no admission_reject event under backlog"
        assert events[0].fields["reason"] == "high_water"
        assert events[0].fields["source"] == "cluster"


class TestGatewayRoutes:
    def test_metrics_and_statsz_over_http(self, rng):
        fleet, model_ids = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(ClusterConfig(shards=2), registry=fleet) as cluster:
            gateway = Gateway(cluster)
            request = PredictRequest(model_ids[0], fleet_inputs(rng))
            assert gateway.handle(
                ApiRequest(method="predict", payload=request.to_dict())
            ).ok
            with serve_http(gateway) as server:
                host, port = server.server_address[:2]
                base = f"http://{host}:{port}"
                with urllib.request.urlopen(base + "/metrics") as response:
                    assert response.headers["Content-Type"] == CONTENT_TYPE
                    text = response.read().decode("utf-8")
                assert render_families(parse_text(text)) == text
                assert "repro_requests_total" in text
                with urllib.request.urlopen(base + "/statsz") as response:
                    assert response.headers["Content-Type"] == "application/json"
                    stats = json.loads(response.read().decode("utf-8"))
                assert_stats_schema(stats)
                assert stats["latency"]["count"] >= 1
                # /healthz rides the same route table, unchanged.
                with urllib.request.urlopen(base + "/healthz") as response:
                    health = json.loads(response.read().decode("utf-8"))
                assert health["ok"] and health["payload"]["status"] == "ok"

    def test_unknown_get_lists_routes(self, rng):
        fleet, _ = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(ClusterConfig(shards=1), registry=fleet) as cluster:
            gateway = Gateway(cluster)
            with serve_http(gateway) as server:
                host, port = server.server_address[:2]
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"http://{host}:{port}/nope")
                body = json.loads(excinfo.value.read().decode("utf-8"))
                assert body["error"]["code"] == "INVALID_ARGUMENT"
                assert "/metrics" in body["error"]["message"]
                assert "/statsz" in body["error"]["message"]

    def test_loopback_exposition_matches_http_bytes(self, rng):
        """The poller's exposition() is the socket-free /metrics equivalent."""
        fleet, model_ids = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(ClusterConfig(shards=1), registry=fleet) as cluster:
            gateway = Gateway(cluster)
            poller = TelemetryPoller(gateway)
            with serve_http(gateway, metrics=poller) as server:
                host, port = server.server_address[:2]
                with urllib.request.urlopen(
                    f"http://{host}:{port}/metrics"
                ) as response:
                    scraped = response.read().decode("utf-8")
                assert scraped == poller.exposition()  # no re-sample: same bytes


class TestLoadgenMonitorIntegration:
    def run(self, scenario):
        from repro.experiments.loadgen_cli import LoadgenConfig, run_loadgen

        config = LoadgenConfig(
            scenario=scenario, shards=2, smoke=True, monitor=True,
            time_scale=0.25, seed=0,
        )
        report, _ = run_loadgen(config)
        return report

    def test_shard_failure_fires_the_burn_rate_alert(self):
        report = self.run("shard-failure")
        summary = report.metrics_summary
        assert summary is not None and summary["alerts_fired"] >= 1
        rules = {a["rule"] for a in summary["alerts"] if a["state"] == "firing"}
        assert "rejection-burn-rate" in rules
        kinds = set(summary["event_counts"])
        assert {"shard_kill", "fault"} <= kinds
        assert "metrics:" in report.render()
        assert report.to_dict(timing=True)["slo"]["metrics"] is summary
        # The exposition artifact round-trips like any scrape.
        exposition = report.monitor_artifacts["exposition"]
        assert render_families(parse_text(exposition)) == exposition
        assert get_event_log() is None  # the run restored the global seam

    def test_steady_scenario_stays_silent(self):
        report = self.run("steady-uniform")
        assert report.metrics_summary["alerts_fired"] == 0
        assert report.failed == 0 and report.rejected == 0
        # A sampling poller degrades nothing: every request still answered.
        assert report.hung == 0 and report.completed == report.requests

    def test_unmonitored_run_keeps_the_pre_metrics_shape(self):
        from repro.experiments.loadgen_cli import LoadgenConfig, run_loadgen

        report, _ = run_loadgen(
            LoadgenConfig(
                scenario="steady-uniform", shards=1, requests=4,
                time_scale=0.0, seed=0,
            )
        )
        assert report.metrics_summary is None
        assert "metrics" not in report.to_dict(timing=True)["slo"]


class TestMonitorCli:
    def test_in_process_payload_and_dashboard(self):
        from repro.experiments.monitor_cli import (
            MonitorConfig,
            render_dashboard,
            run_monitor,
        )

        payload = run_monitor(
            MonitorConfig(
                scenario="shard-failure", shards=2, smoke=True,
                time_scale=0.25, seed=0,
            )
        )
        assert payload["monitor"]["fired"] >= 1
        assert payload["samples"] >= 2
        assert any(e["kind"] == "shard_kill" for e in payload["events"])
        dashboard = render_dashboard(payload)
        assert "repro_error_burn_rate" in dashboard
        assert "rejection-burn-rate" in dashboard

    def test_scrape_mode_against_a_live_gateway(self, rng):
        from repro.experiments.monitor_cli import MonitorConfig, run_monitor

        fleet, model_ids = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(ClusterConfig(shards=2), registry=fleet) as cluster:
            gateway = Gateway(cluster)
            request = PredictRequest(model_ids[0], fleet_inputs(rng))
            assert gateway.handle(
                ApiRequest(method="predict", payload=request.to_dict())
            ).ok
            with serve_http(gateway) as server:
                host, port = server.server_address[:2]
                payload = run_monitor(
                    MonitorConfig(
                        url=f"http://{host}:{port}",
                        ticks=2,
                        poll_interval_s=0.01,
                    )
                )
        assert payload["scrapes"] == 2
        assert payload["monitor"]["fired"] == 0
        series = payload["metrics"]["repro_requests_total"]["series"]
        assert series[0]["value"] >= 1.0

    def test_config_validation(self):
        from repro.experiments.monitor_cli import MonitorConfig

        with pytest.raises(ValueError, match="poll_interval_s"):
            MonitorConfig(poll_interval_s=0.0)
        with pytest.raises(ValueError, match="ticks"):
            MonitorConfig(ticks=0)

    def test_cli_lists_and_runs_monitor(self, capsys, tmp_path):
        from repro.experiments.cli import ALL_COMMANDS, main

        assert "monitor" in ALL_COMMANDS
        out = tmp_path / "plane.json"
        code = main(
            [
                "monitor", "--scenario", "steady-uniform", "--shards", "2",
                "--smoke", "--time-scale", "0.25", "--metrics-json", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "metrics plane" in printed and "alerts:" in printed
        payload = json.loads(out.read_text())
        assert payload["monitor"]["fired"] == 0
        assert "repro_requests_total" in payload["metrics"]
