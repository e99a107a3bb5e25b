"""Tests for the scenario workload generator (:mod:`repro.loadgen`)."""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService, ShardOverloadError
from repro.errors import UnavailableError
from repro.gateway import Gateway, GatewayClient, GatewayConfig, LoopbackTransport
from repro.loadgen import (
    ARRIVALS,
    POPULARITIES,
    SCENARIOS,
    BurstyOnOff,
    ClosedLoop,
    ConstantRate,
    DiurnalRamp,
    FLEET_INPUT_SHAPE,
    FaultEvent,
    HotSetChurn,
    LoadDriver,
    PoissonArrivals,
    RequestOutcome,
    SLOReport,
    UniformPopularity,
    ZipfPopularity,
    build_scenario,
    synthetic_fleet,
)
from repro.loadgen.report import STATUS_FAILED, STATUS_HUNG, STATUS_OK, STATUS_REJECTED
from repro.serve import PersonalizationService, PredictRequest, ServiceConfig


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestArrivals:
    @pytest.mark.parametrize("kind", sorted(ARRIVALS))
    def test_monotone_and_deterministic(self, kind):
        process = ARRIVALS[kind]()
        a = process.times(40, _rng())
        b = ARRIVALS[kind]().times(40, _rng())
        assert len(a) == 40
        assert a == b  # same params + same seeded rng -> same offsets
        assert all(y >= x for x, y in zip(a, a[1:]))
        assert a[0] >= 0.0

    def test_constant_rate_spacing(self):
        times = ConstantRate(rate=100.0).times(5, _rng())
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])

    def test_poisson_mean_gap_tracks_rate(self):
        times = PoissonArrivals(rate=1000.0).times(4000, _rng())
        mean_gap = times[-1] / (len(times) - 1)
        assert mean_gap == pytest.approx(1e-3, rel=0.1)

    def test_bursty_groups_and_idles(self):
        times = BurstyOnOff(burst_size=4, burst_rate=1000.0, idle_s=0.1).times(8, _rng())
        in_burst = times[3] - times[0]
        between = times[4] - times[3]
        assert in_burst == pytest.approx(0.003)
        assert between == pytest.approx(0.1 + 0.001)

    def test_diurnal_rate_peaks_mid_period(self):
        ramp = DiurnalRamp(base_rate=100.0, peak_rate=1000.0, period_s=1.0)
        assert ramp.rate_at(0.0) == pytest.approx(100.0)
        assert ramp.rate_at(0.5) == pytest.approx(1000.0)
        times = ramp.times(400, _rng())  # enough arrivals to cross the peak
        gaps = np.diff(times)
        assert gaps.min() < 1.5 / 1000.0 < 1.0 / 100.0 < gaps.max() * 1.01

    def test_closed_loop_has_no_timestamps(self):
        process = ClosedLoop(concurrency=4)
        assert process.closed_loop
        assert process.times(3, _rng()) == [0.0, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantRate(rate=0.0)
        with pytest.raises(ValueError):
            BurstyOnOff(burst_size=0)
        with pytest.raises(ValueError):
            DiurnalRamp(base_rate=200.0, peak_rate=100.0)
        with pytest.raises(ValueError):
            ClosedLoop(concurrency=0)


class TestPopularity:
    @pytest.mark.parametrize("kind", sorted(POPULARITIES))
    def test_range_and_determinism(self, kind):
        model = POPULARITIES[kind]()
        a = model.sequence(200, 7, _rng())
        b = POPULARITIES[kind]().sequence(200, 7, _rng())
        assert a == b
        assert all(0 <= t < 7 for t in a)

    def test_uniform_spreads_traffic(self):
        counts = np.bincount(UniformPopularity().sequence(4000, 4, _rng()), minlength=4)
        assert counts.min() > 0.15 * 4000

    def test_zipf_concentrates_on_the_head(self):
        picks = ZipfPopularity(alpha=1.2).sequence(4000, 8, _rng())
        counts = np.bincount(picks, minlength=8)
        # The hottest tenant takes far more than the uniform share...
        assert counts.max() > 2.0 * 4000 / 8
        # ...but nobody is starved into nonexistence by construction.
        assert counts.sum() == 4000

    def test_hot_set_rotates(self):
        model = HotSetChurn(hot_fraction=0.25, hot_mass=1.0, churn_every=50)
        picks = model.sequence(100, 8, _rng())
        first, second = set(picks[:50]), set(picks[50:])
        assert len(first) <= 2 and len(second) <= 2  # hot set of 2 with mass 1.0
        assert first != second  # the churn actually rotated

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(alpha=0.0)
        with pytest.raises(ValueError):
            HotSetChurn(hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotSetChurn(churn_every=0)


class TestScenario:
    def test_all_presets_build_and_describe(self):
        for name in SCENARIOS:
            scenario = build_scenario(name)
            assert scenario.name == name
            payload = scenario.to_dict()
            assert payload["arrivals"]["kind"] in ARRIVALS
            assert payload["popularity"]["kind"] in POPULARITIES

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            build_scenario("tsunami")

    def test_synthesis_is_deterministic(self):
        ids = [f"tenant-{i}" for i in range(5)]
        a = build_scenario("poisson-zipf").synthesize(ids, seed=3)
        b = build_scenario("poisson-zipf").synthesize(ids, seed=3)
        c = build_scenario("poisson-zipf").synthesize(ids, seed=4)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        for x, y in zip(a.scheduled, b.scheduled):
            assert x.at == y.at and x.tenant == y.tenant
            np.testing.assert_array_equal(x.request.inputs, y.request.inputs)

    def test_plan_accounts_for_every_tenant_and_request(self):
        ids = [f"tenant-{i}" for i in range(4)]
        workload = build_scenario("zipf-burst").synthesize(ids, seed=0)
        plan = workload.plan_dict()
        assert plan["requests"] == len(workload) == 64
        assert set(plan["per_tenant"]) == set(ids)
        assert sum(plan["per_tenant"].values()) == 64
        assert plan["virtual_duration_s"] > 0

    def test_resizing_rescales_fault_schedule(self):
        scenario = build_scenario("shard-failure", requests=12)  # preset is 48
        assert scenario.requests == 12
        assert [f.at_request for f in scenario.faults] == [4, 8]  # 16,32 scaled by 1/4

    def test_resizing_validates_counts(self):
        with pytest.raises(ValueError):
            build_scenario("shard-failure", requests=0)
        with pytest.raises(ValueError):
            build_scenario("steady-uniform", request_batch=0)

    def test_fault_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at_request=0, action="meteor-strike")
        with pytest.raises(ValueError):
            FaultEvent(at_request=-1, action="kill_shard")
        with pytest.raises(ValueError):
            FaultEvent(at_request=0, action="slow_shard", delay_s=-0.1)


class TestSyntheticFleet:
    def test_fleet_is_reproducible_and_distinct(self):
        registry_a, ids_a = synthetic_fleet(tenants=3, seed=0)
        registry_b, ids_b = synthetic_fleet(tenants=3, seed=0)
        assert ids_a == ids_b == ["tenant-0", "tenant-1", "tenant-2"]
        batch = _rng().normal(size=(1, 3, 12, 12))
        logits_a = [registry_a.build_engine(i).predict(batch) for i in ids_a]
        logits_b = [registry_b.build_engine(i).predict(batch) for i in ids_b]
        for a, b in zip(logits_a, logits_b):
            np.testing.assert_array_equal(a, b)
        # Different tenants are genuinely different models.
        assert not np.array_equal(logits_a[0], logits_a[1])


class TestSLOReport:
    def _report(self):
        report = SLOReport(
            scenario={"name": "synthetic", "faults": []},
            plan={"digest": "d", "tenants": 2, "requests": 8},
            shards=2,
            per_shard_planned={"0": 6, "1": 2},
        )
        for i, latency in enumerate((0.010, 0.020, 0.030, 0.040, 0.050)):
            report.record(RequestOutcome(f"r{i}", "tenant-0", STATUS_OK, latency))
        report.record(RequestOutcome("r5", "tenant-1", STATUS_REJECTED, 0.001))
        report.record(RequestOutcome("r6", "tenant-1", STATUS_FAILED, 0.002, error="Boom"))
        report.record(RequestOutcome("r7", "tenant-1", STATUS_HUNG))
        report.elapsed_s = 0.5
        return report

    def test_counters_and_rates(self):
        report = self._report()
        assert (report.completed, report.rejected, report.failed, report.hung) == (5, 1, 1, 1)
        assert report.goodput_rps() == pytest.approx(10.0)
        assert report.offered_rps() == pytest.approx(16.0)

    def test_latency_percentiles_over_completed_only(self):
        latency = self._report().latency_summary()
        assert latency["count"] == 5
        assert latency["p50_ms"] == pytest.approx(30.0)
        assert latency["max_ms"] == pytest.approx(50.0)

    def test_imbalance_is_max_over_mean(self):
        report = self._report()
        assert report.imbalance({"0": 6, "1": 2}) == pytest.approx(6 / 4)
        assert report.imbalance({}) == 0.0

    def test_payload_shape_and_timing_split(self):
        report = self._report()
        deterministic = report.to_dict(timing=False)
        assert "slo" not in deterministic
        assert deterministic["outcomes"]["completed"] == 5
        full = report.to_dict(timing=True)
        assert full["slo"]["rejection_rate"] == pytest.approx(1 / 8)
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(full["slo"]["latency"])

    def test_fault_scenarios_keep_outcomes_out_of_the_deterministic_face(self):
        report = SLOReport(
            scenario={"name": "chaos", "faults": [{"action": "kill_shard"}]},
            plan={"digest": "d", "tenants": 1, "requests": 1},
        )
        assert not report.deterministic_outcomes
        assert "outcomes" not in report.to_dict(timing=False)
        assert "outcomes" not in report.to_dict(timing=True)


class TestLoadDriver:
    def _cluster(self, registry, shards=2):
        return ClusterService(
            ClusterConfig(shards=shards, cache_capacity=2, max_pending=256),
            registry=registry,
        )

    @pytest.mark.parametrize("scenario", ["zipf-burst", "hot-churn"])
    def test_cluster_run_is_deterministic(self, scenario):
        """Acceptance criterion: same scenario + seed -> same bytes."""
        payloads = []
        for _ in range(2):
            registry, ids = synthetic_fleet(tenants=4, seed=0)
            workload = build_scenario(scenario, requests=24).synthesize(ids, seed=0)
            with self._cluster(registry) as cluster:
                report = LoadDriver(cluster).run(workload)
            assert report.hung == 0 and report.completed == 24
            payloads.append(
                json.dumps(report.to_dict(timing=False), indent=2, sort_keys=True)
            )
        assert payloads[0] == payloads[1]

    def test_closed_loop_completes_everything(self):
        registry, ids = synthetic_fleet(tenants=3, seed=0)
        workload = build_scenario("closed-loop", requests=18).synthesize(ids, seed=0)
        assert workload.closed_loop and workload.concurrency == 8
        with self._cluster(registry) as cluster:
            report = LoadDriver(cluster).run(workload)
        assert report.completed == 18 and report.hung == 0

    def test_sync_driver_matches_cluster_predictions(self):
        """The same workload through both facades answers with the same bits."""
        registry, ids = synthetic_fleet(tenants=3, seed=0)
        workload = build_scenario("steady-uniform", requests=12).synthesize(ids, seed=0)
        single = PersonalizationService(ServiceConfig(cache_capacity=3), registry=registry)
        sync_report = LoadDriver(single, time_scale=0.0).run(workload)
        registry2, ids2 = synthetic_fleet(tenants=3, seed=0)
        workload2 = build_scenario("steady-uniform", requests=12).synthesize(ids2, seed=0)
        with self._cluster(registry2) as cluster:
            async_report = LoadDriver(cluster, time_scale=0.0).run(workload2)
        assert sync_report.completed == async_report.completed == 12
        assert sync_report.predictions_digest() == async_report.predictions_digest()

    def test_time_scale_zero_skips_pacing(self):
        registry, ids = synthetic_fleet(tenants=2, seed=0)
        workload = build_scenario("diurnal-ramp", requests=10).synthesize(ids, seed=0)
        with self._cluster(registry) as cluster:
            report = LoadDriver(cluster, time_scale=0.0).run(workload)
        # Unpaced replay finishes far inside the ~0.1s virtual duration.
        assert report.completed == 10
        assert report.elapsed_s < workload.virtual_duration_s + 1.0

    def test_faults_require_a_cluster(self):
        registry, ids = synthetic_fleet(tenants=2, seed=0)
        workload = build_scenario("shard-failure", requests=8).synthesize(ids, seed=0)
        single = PersonalizationService(ServiceConfig(), registry=registry)
        with pytest.raises(ValueError, match="ClusterService"):
            LoadDriver(single).run(workload)

    def test_per_shard_plan_covers_all_requests(self):
        registry, ids = synthetic_fleet(tenants=4, seed=0)
        workload = build_scenario("poisson-zipf", requests=20).synthesize(ids, seed=0)
        with self._cluster(registry, shards=3) as cluster:
            report = LoadDriver(cluster).run(workload)
        assert sum(report.per_shard_planned.values()) == 20
        assert set(report.per_shard_planned) == {"0", "1", "2"}
        payload = report.to_dict()
        assert payload["plan"]["planned_imbalance"] >= 1.0
        # Observed completions agree with the plan when nothing fails.
        assert report.observed_per_shard() == report.per_shard_planned

    def test_time_scale_validation(self):
        registry, _ = synthetic_fleet(tenants=1, seed=0)
        single = PersonalizationService(registry=registry)
        with pytest.raises(ValueError, match="time_scale"):
            LoadDriver(single, time_scale=-1.0)
        assert LoadDriver(single, time_scale=0.0).time_scale == 0.0


class _Refusing(PersonalizationService):
    """A local service that refuses every request, as a full shard does."""

    def predict(self, request, timeout=None):
        raise ShardOverloadError.refusing(request, "queue full")


class _Down(PersonalizationService):
    """A local service in an outage: every request is ``UNAVAILABLE``."""

    def predict(self, request, timeout=None):
        raise UnavailableError("down")


@contextmanager
def _local_target(registry, source):
    kind = {"refusal": _Refusing, "outage": _Down}.get(source, PersonalizationService)
    yield kind(registry=registry)


@contextmanager
def _one_shard_cluster(registry, source):
    """A one-shard cluster; a refusal holds one predict in a full shard, an
    outage kills the shard."""
    config = ClusterConfig(shards=1, max_pending=1)
    with ClusterService(config, registry=registry) as cluster:
        shard_id = cluster.shard_ids()[0]
        if source == "outage":
            cluster.kill_shard(shard_id)
        if source != "refusal":
            yield cluster
            return
        worker = cluster.worker(shard_id)
        worker.begin_window()
        model_id = registry.ids()[0]
        held = cluster.submit(PredictRequest(model_id, np.zeros((1, *FLEET_INPUT_SHAPE))))
        try:
            yield cluster
        finally:
            worker.end_window()
            assert held.result(timeout=30).ok


@contextmanager
def _loopback_client(registry, source):
    """A loopback gateway client over a one-shard cluster; a refusal is the
    rate limiter's spent quota."""
    with _one_shard_cluster(registry, "outage" if source == "outage" else None) as cluster:
        config = GatewayConfig(quota=1) if source == "refusal" else GatewayConfig()
        client = GatewayClient(LoopbackTransport(Gateway(cluster, config)))
        if source == "refusal":
            client.predict(registry.ids()[0], np.zeros((1, *FLEET_INPUT_SHAPE)))
        yield client


#: target -> context manager building it over (registry, error source)
OUTCOME_TARGETS = {
    "local-service": _local_target,
    "threaded-cluster": _one_shard_cluster,
    "loopback-client": _loopback_client,
}

#: error source -> the status every request that hits it counts as
OUTCOME_SOURCES = {"refusal": STATUS_REJECTED, "outage": STATUS_FAILED, "unknown-id": STATUS_FAILED}


@pytest.mark.parametrize("source", sorted(OUTCOME_SOURCES))
@pytest.mark.parametrize("target", sorted(OUTCOME_TARGETS))
def test_one_outcome_rule_on_every_target(target, source):
    """*Rejected* iff the error is a refusal or a quota, *failed* otherwise —
    the same on every target the driver takes."""
    registry, ids = synthetic_fleet(tenants=2, seed=0)
    if source == "unknown-id":
        ids = ["ghost"]  # a tenant the registry does not hold
    workload = build_scenario("steady-uniform", requests=4).synthesize(ids, seed=0)
    with OUTCOME_TARGETS[target](registry, source) as serving:
        report = LoadDriver(serving, time_scale=0.0).run(workload)
    statuses = {outcome.status for outcome in report.outcomes}
    assert statuses == {OUTCOME_SOURCES[source]}
    assert report.requests == 4 and report.hung == 0


class TestLoadgenCLI:
    def test_json_stdout_is_byte_stable(self, capsys):
        from repro.experiments.cli import main

        args = [
            "loadgen", "--scenario", "zipf-burst", "--shards", "2", "--seed", "0",
            "--loadgen-tenants", "3", "--loadgen-requests", "16", "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["scenario"]["name"] == "zipf-burst"
        assert payload["outcomes"]["completed"] == 16
        assert payload["outcomes"]["hung"] == 0

    def test_measure_adds_slo_block_to_file(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "slo.json"
        args = [
            "loadgen", "--scenario", "steady-uniform", "--shards", "2", "--smoke",
            "--measure", "--json", str(out),
        ]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert "scenario steady-uniform" in stdout
        payload = json.loads(out.read_text())
        assert "slo" in payload
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(payload["slo"]["latency"])
        assert "cluster" in payload["slo"]  # merged cluster percentiles attached

    def test_unknown_scenario_is_a_cli_error(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["loadgen", "--scenario", "meteor"])

    def test_shard_kill_scenario_needs_two_shards(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["loadgen", "--scenario", "shard-failure", "--shards", "1"])
        with pytest.raises(SystemExit):
            main(["loadgen", "--loadgen-requests", "0"])
