"""Deterministic tests for the closed-loop autoscaler.

The control loop is driven three ways, in increasing realism:

* **scripted** — an injectable clock and hand-built signal dicts against the
  thread-free :class:`FleetModel`, asserting the *exact* decision sequence
  (fire-after-hold, cooldown suppression, min/max clamps, deterministic
  victims) and that two identical scripts render byte-identical JSONL logs;
* **simulated** — the fluid-queue replay of named loadgen scenarios, where
  the whole payload must be a byte-stable pure function of its inputs and
  the autoscaled arm must beat the static fleet on shard-seconds;
* **live** — a real :class:`ClusterService` actuated by the same loop
  (ticks really add/drain shards, the ring stays consistent), plus the
  scaling-mutation race regression and the SLOMonitor alert hand-off.

No test here sleeps on telemetry: every sequence is exact and repeatable.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.autoscale import (
    ACTIONS,
    Autoscaler,
    FleetModel,
    ScalingPolicy,
    ScalingRule,
    default_policy,
    simulate_autoscaler,
    static_policy,
)
from repro.cluster import ClusterConfig, ClusterService
from repro.metrics import (
    MetricsRegistry,
    SLOMonitor,
    TelemetryPoller,
    queue_depth_sustained,
)
from repro.serve.types import PredictRequest


class FakeClock:
    """A settable clock: ``clock()`` returns whatever the test last set."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _pressure_policy(**overrides):
    """One scale-out rule with a 2-tick hold — the smallest debounced loop."""
    kwargs = dict(
        rules=(
            ScalingRule(
                name="pressure",
                signal="queue_per_shard",
                op=">=",
                threshold=4.0,
                action="scale_out",
                for_samples=2,
            ),
        ),
        min_shards=1,
        max_shards=4,
        cooldown_ticks=2,
    )
    kwargs.update(overrides)
    return ScalingPolicy(**kwargs)


HOT = {"queue_per_shard": 8.0}
COLD = {"queue_per_shard": 0.0}


class TestPolicyValidation:
    def test_rule_rejects_unknown_op_action_and_bad_holds(self):
        with pytest.raises(ValueError):
            ScalingRule("r", "s", "!=", 1.0, "scale_out")
        with pytest.raises(ValueError):
            ScalingRule("r", "s", ">", 1.0, "explode")
        with pytest.raises(ValueError):
            ScalingRule("r", "s", ">", 1.0, "scale_out", for_samples=0)
        with pytest.raises(ValueError):
            ScalingRule("r", "s", ">", 1.0, "scale_out", step=0)

    def test_policy_rejects_bad_bounds_and_duplicate_rules(self):
        with pytest.raises(ValueError):
            ScalingPolicy(min_shards=0)
        with pytest.raises(ValueError):
            ScalingPolicy(min_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            ScalingPolicy(cooldown_ticks=-1)
        rule = ScalingRule("dup", "s", ">", 1.0, "scale_out")
        with pytest.raises(ValueError):
            ScalingPolicy(rules=(rule, rule))
        with pytest.raises(ValueError):
            ScalingPolicy(alert_actions={"some-alert": "panic"})

    def test_clamp_and_stock_policies(self):
        policy = ScalingPolicy(min_shards=2, max_shards=5)
        assert [policy.clamp(n) for n in (1, 2, 4, 5, 9)] == [2, 2, 4, 5, 5]
        stock = default_policy()
        assert stock.alert_actions == {"queue-depth-sustained": "scale_out"}
        assert {r.action for r in stock.rules} == set(ACTIONS)
        pinned = static_policy(3)
        assert (pinned.min_shards, pinned.max_shards, pinned.rules) == (3, 3, ())

    def test_autoscaler_rejects_targets_without_scaling_surface(self):
        with pytest.raises(TypeError):
            Autoscaler(object())


class TestDecisionSequence:
    """Exact scripted decision sequences on the thread-free FleetModel."""

    def test_fires_only_after_hold_then_cools_down_then_refires(self):
        fleet = FleetModel(1)
        scaler = Autoscaler(fleet, _pressure_policy(), clock=FakeClock())
        verdicts = []
        for tick in range(1, 7):
            verdicts.extend(d.action for d in scaler.tick(HOT, now=float(tick)))
        # tick1 holds (streak 1), tick2 fires 1->2 and opens a 2-tick
        # cooldown, tick4's re-fire is suppressed by it, tick6 applies again.
        assert verdicts == ["scale_out", "suppress", "scale_out"]
        assert [d.tick for d in scaler.decisions] == [2, 4, 6]
        assert fleet.shards == 3
        assert fleet.log == ["add:1", "add:2"]
        suppressed = scaler.decisions[1]
        assert suppressed.shards_before == suppressed.shards_after == 2
        assert "cooldown" in suppressed.reason

    def test_clamps_at_max_and_min(self):
        fleet = FleetModel(1)
        policy = _pressure_policy(max_shards=2, cooldown_ticks=0)
        scaler = Autoscaler(fleet, policy, clock=FakeClock())
        actions = []
        for tick in range(1, 8):
            actions.extend(d.action for d in scaler.tick(HOT, now=float(tick)))
        # 1->2 on tick 2; every later 2-tick streak completion hits the
        # ceiling (the 2-tick hold re-accumulates after each verdict).
        assert actions == ["scale_out", "clamp", "clamp"]
        assert [d.tick for d in scaler.decisions] == [2, 4, 6]
        assert fleet.shards == 2
        assert all(
            "max_shards" in d.reason for d in scaler.decisions if d.action == "clamp"
        )
        # And the floor, symmetrically.
        idle_policy = ScalingPolicy(
            rules=(
                ScalingRule("idle", "queue_per_shard", "<=", 0.5, "scale_in",
                            for_samples=1),
            ),
            min_shards=2, max_shards=4, cooldown_ticks=0,
        )
        scaler2 = Autoscaler(fleet, idle_policy, clock=FakeClock())
        [decision] = scaler2.tick(COLD, now=1.0)
        assert decision.action == "clamp" and "min_shards" in decision.reason
        assert fleet.shards == 2

    def test_scale_in_removes_highest_shard_id(self):
        fleet = FleetModel(3)  # ids 0, 1, 2
        policy = ScalingPolicy(
            rules=(
                ScalingRule("idle", "queue_per_shard", "<=", 0.5, "scale_in",
                            for_samples=1),
            ),
            min_shards=1, max_shards=4, cooldown_ticks=0,
        )
        scaler = Autoscaler(fleet, policy, clock=FakeClock())
        scaler.tick(COLD, now=1.0)
        scaler.tick(COLD, now=2.0)
        assert fleet.log == ["remove:2", "remove:1"]
        assert fleet.shard_ids() == [0]

    def test_missing_signal_resets_the_streak(self):
        fleet = FleetModel(1)
        scaler = Autoscaler(fleet, _pressure_policy(), clock=FakeClock())
        assert scaler.tick(HOT, now=1.0) == []
        assert scaler.tick({}, now=2.0) == []  # signal gone: streak resets
        assert scaler.tick(HOT, now=3.0) == []  # streak restarts at 1
        [decision] = scaler.tick(HOT, now=4.0)
        assert decision.action == "scale_out" and decision.tick == 4

    def test_rule_priority_order_breaks_ties(self):
        policy = ScalingPolicy(
            rules=(
                ScalingRule("out-first", "load", ">", 1.0, "scale_out",
                            for_samples=1),
                ScalingRule("in-second", "load", ">", 0.0, "scale_in",
                            for_samples=1),
            ),
            min_shards=1, max_shards=4, cooldown_ticks=0,
        )
        fleet = FleetModel(2)
        scaler = Autoscaler(fleet, policy, clock=FakeClock())
        [decision] = scaler.tick({"load": 2.0}, now=1.0)
        assert (decision.rule, decision.action) == ("out-first", "scale_out")

    def test_decision_log_is_byte_stable_across_identical_runs(self):
        script = [HOT, HOT, COLD, HOT, HOT, HOT, COLD, HOT, HOT]

        def run():
            scaler = Autoscaler(FleetModel(1), _pressure_policy(),
                                clock=FakeClock())
            for tick, signals in enumerate(script, start=1):
                scaler.tick(signals, now=float(tick))
            return scaler.decision_log_jsonl()

        first, second = run(), run()
        assert first and first == second
        for line in first.strip().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)


class TestSignalDerivation:
    def test_observe_derives_interval_burn_rate_from_deltas(self):
        fleet = FleetModel(1)
        policy = ScalingPolicy(
            rules=(
                ScalingRule("burn", "error_burn_rate", ">", 0.1, "scale_out",
                            for_samples=1),
            ),
            min_shards=1, max_shards=4, cooldown_ticks=0,
        )
        scaler = Autoscaler(fleet, policy, clock=FakeClock())

        def stats(count, failed, rejected, pending=0.0):
            return {
                "latency": {"count": count, "p99_ms": 10.0},
                "errors": {"failed": failed, "rejected": rejected},
                "queue": {"pending": pending},
                "shards": fleet.shards,
            }

        # First observation only sets the counter baseline: a long history
        # of failures must not read as a fresh outage.
        assert scaler.observe(stats(100, 50, 0), now=1.0) == []
        # No new bad outcomes since the baseline -> burn 0.
        assert scaler.observe(stats(110, 50, 0), now=2.0) == []
        # 5 of this interval's 10 outcomes were bad -> burn 0.5 -> fire.
        [decision] = scaler.observe(stats(115, 52, 3), now=3.0)
        assert decision.action == "scale_out"
        assert decision.value == pytest.approx(0.5)

    def test_signals_include_per_shard_queue(self):
        fleet = FleetModel(4)
        scaler = Autoscaler(fleet, _pressure_policy(), clock=FakeClock())
        signals = scaler.signals(
            {"queue": {"pending": 12.0}, "latency": {}, "errors": {},
             "shards": 4}
        )
        assert signals["queue_pending"] == 12.0
        assert signals["queue_per_shard"] == pytest.approx(3.0)
        assert signals["shards"] == 4.0


class TestSimulator:
    def test_same_seed_runs_are_byte_identical(self):
        kwargs = dict(scenario="diurnal-ramp", requests=160, seed=0,
                      policy=default_policy(min_shards=2, max_shards=4))
        first = json.dumps(simulate_autoscaler(**kwargs), sort_keys=True)
        second = json.dumps(simulate_autoscaler(**kwargs), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize("scenario", ["diurnal-ramp", "shard-failure"])
    def test_scales_out_and_beats_static_fleet(self, scenario):
        """The rate sweep the autoscaler exists to ride and the chaos run it
        must not fall over in: SLO proxy held on strictly fewer shard-seconds
        than a static fleet provisioned at the autoscaler's ceiling."""
        auto = simulate_autoscaler(
            scenario, requests=160, seed=0,
            policy=default_policy(min_shards=2, max_shards=4),
        )
        static = simulate_autoscaler(
            scenario, requests=160, seed=0, policy=static_policy(4)
        )
        assert auto["actions"].get("scale_out", 0) >= 1
        assert auto["drained"] and static["drained"]
        assert auto["peak_p99_ms"] <= 250.0  # the stock p99-pressure threshold
        assert auto["shard_seconds"] < static["shard_seconds"]
        assert auto["peak_shards"] <= 4

    def test_shard_failure_scenario_survives_kill_and_heal(self):
        result = simulate_autoscaler(
            "shard-failure", requests=96, seed=1,
            policy=default_policy(min_shards=2, max_shards=4),
        )
        assert result["drained"]
        assert result["final_shards"] >= 2

    def test_rejects_closed_loop_scenarios_and_bad_knobs(self):
        with pytest.raises(ValueError):
            simulate_autoscaler("closed-loop")
        with pytest.raises(ValueError):
            simulate_autoscaler(tick_s=0.0)
        with pytest.raises(ValueError):
            simulate_autoscaler(service_rate=0.0)

    def test_fleet_model_mirrors_cluster_semantics(self):
        fleet = FleetModel(2)
        assert fleet.add_shard() == 2
        with pytest.raises(KeyError):
            fleet.remove_shard(99)
        fleet.remove_shard(2)
        fleet.remove_shard(1)
        with pytest.raises(ValueError):
            fleet.remove_shard(0)  # never below one shard


class TestPollerSubscription:
    class _Target:
        def __init__(self):
            self.calls = 0

        def stats(self):
            self.calls += 1
            return {
                "latency": {"count": self.calls, "mean_ms": 1.0, "max_ms": 2.0},
                "cache": {"hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0},
                "queue": {"pending": 0, "max_depth": 0},
                "errors": {"failed": 0, "rejected": 0},
            }

    def test_subscribers_see_every_sample_after_recording(self):
        poller = TelemetryPoller(self._Target(), MetricsRegistry())
        seen = []
        poller.subscribe(lambda stats, t: seen.append((stats["latency"]["count"], t)))
        poller.sample(now=1.0)
        poller.sample(now=2.0)
        assert seen == [(1, 1.0), (2, 2.0)]

    def test_subscriber_failure_is_counted_not_propagated(self):
        poller = TelemetryPoller(self._Target(), MetricsRegistry())
        seen = []

        def boom(stats, t):
            raise RuntimeError("subscriber bug")

        poller.subscribe(boom)
        poller.subscribe(lambda stats, t: seen.append(t))
        assert poller.sample(now=1.0) is not None
        assert poller.poll_errors == 1
        assert seen == [1.0]  # later subscribers still ran


class TestAlertHandoff:
    """Satellite: SLOMonitor ``queue_depth_sustained`` -> exactly one
    scale-out per alert episode; the resolved transition re-arms it."""

    def _harness(self):
        registry = MetricsRegistry()
        monitor = SLOMonitor(registry, (queue_depth_sustained(depth=64.0,
                                                              for_samples=3),))
        fleet = FleetModel(1)
        policy = ScalingPolicy(
            rules=(), min_shards=1, max_shards=4, cooldown_ticks=4,
            alert_actions={"queue-depth-sustained": "scale_out"},
        )
        scaler = Autoscaler(fleet, policy, clock=FakeClock()).wire(monitor)
        gauge = registry.gauge("queue_pending", "scripted fleet queue depth")
        return monitor, fleet, scaler, gauge

    def test_one_scale_out_per_sustained_window(self):
        monitor, fleet, scaler, gauge = self._harness()
        # Three consecutive samples at/above depth: fires on the third
        # evaluation and ONLY the third — the hand-off must not act per tick.
        for t in (1.0, 2.0, 3.0):
            gauge.set(100.0, t=t)
            monitor.evaluate(now=t)
        assert fleet.shards == 2
        assert [d.action for d in scaler.decisions] == ["scale_out"]
        # The violation persists: the monitor stays firing (no transition),
        # so the autoscaler must not fire again for the same episode.
        for t in (4.0, 5.0, 6.0):
            gauge.set(100.0, t=t)
            monitor.evaluate(now=t)
        assert fleet.shards == 2
        assert monitor.fired == 1

    def test_resolved_transition_rearms_the_handoff(self):
        monitor, fleet, scaler, gauge = self._harness()
        for t in (1.0, 2.0, 3.0):
            gauge.set(100.0, t=t)
            monitor.evaluate(now=t)
        assert fleet.shards == 2
        # The queue drains: the resolved transition produces no action but
        # re-arms the monitor's fire-once state machine.
        gauge.set(0.0, t=4.0)
        monitor.evaluate(now=4.0)
        assert fleet.shards == 2
        # A second sustained window is a new episode: exactly one more.
        for t in (5.0, 6.0, 7.0):
            gauge.set(100.0, t=t)
            monitor.evaluate(now=t)
        assert fleet.shards == 3
        assert [d.action for d in scaler.decisions] == ["scale_out", "scale_out"]
        assert fleet.log == ["add:1", "add:2"]
        assert monitor.fired == 2

    def test_unmapped_alerts_are_ignored(self):
        monitor, fleet, scaler, gauge = self._harness()
        scaler.policy = ScalingPolicy(rules=(), min_shards=1, max_shards=4)
        for t in (1.0, 2.0, 3.0):
            gauge.set(100.0, t=t)
            monitor.evaluate(now=t)
        assert fleet.shards == 1 and scaler.decisions == []


class TestLiveCluster:
    """The same loop actuating a real ClusterService."""

    def test_ticks_add_and_drain_real_shards(self):
        policy = ScalingPolicy(
            rules=(
                ScalingRule("hot", "queue_per_shard", ">=", 4.0, "scale_out",
                            for_samples=1),
                ScalingRule("idle", "queue_per_shard", "<=", 0.5, "scale_in",
                            for_samples=2),
            ),
            min_shards=1, max_shards=3, cooldown_ticks=0,
        )
        with ClusterService(ClusterConfig(shards=1, cache_capacity=2)) as cluster:
            scaler = Autoscaler(cluster, policy, clock=FakeClock())
            scaler.tick(HOT, now=1.0)
            scaler.tick(HOT, now=2.0)
            assert cluster.shards == 3
            assert cluster.shard_ids() == [0, 1, 2]
            assert sorted(cluster.router.shard_ids()) == [0, 1, 2]
            scaler.tick(COLD, now=3.0)
            scaler.tick(COLD, now=4.0)  # for_samples=2 -> drains shard 2
            assert cluster.shards == 2
            assert cluster.shard_ids() == [0, 1]
            assert sorted(cluster.router.shard_ids()) == [0, 1]
            # Fleet history: seeded (t=1, 1 shard) at the first tick, which
            # immediately scales -> the 1-shard epoch has zero width; then
            # 2 shards over [1,2), 3 over [2,4), 2 over [4,5).
            assert scaler.shard_seconds(until=5.0) == pytest.approx(
                2 * 1.0 + 3 * 2.0 + 2 * 1.0
            )

    def test_scaling_mutations_serialize_against_each_other(self):
        """Regression: concurrent add_shard + remove_shard (graceful drain)
        used to race the router ring; the scale lock serializes them."""
        from repro.loadgen import synthetic_fleet

        registry, model_ids = synthetic_fleet(tenants=4, seed=0)
        config = ClusterConfig(shards=3, cache_capacity=2, max_pending=256)
        errors = []
        with ClusterService(config, registry=registry) as cluster:
            stop = threading.Event()

            def churn():
                try:
                    for _ in range(6):
                        if stop.is_set():
                            return
                        shard_id = cluster.add_shard()
                        cluster.remove_shard(shard_id)
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)

            threads = [threading.Thread(target=churn) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                rng = np.random.default_rng(0)
                futures = []
                for i in range(24):
                    inputs = rng.normal(size=(1, 3, 12, 12))
                    futures.append(
                        cluster.submit(
                            PredictRequest(model_ids[i % len(model_ids)],
                                           inputs, request_id=f"race-{i}")
                        )
                    )
                results = [f.result(timeout=30.0) for f in futures]
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not errors, f"scaling mutations raced: {errors!r}"
            assert all(not t.is_alive() for t in threads)
            # Every request resolved (ok or clean rejection), no hangs.
            assert all(r is not None for r in results)
            # The fleet is back at its base size and the ring agrees with
            # the shard map exactly.
            assert cluster.shards == 3
            assert cluster.shard_ids() == sorted(cluster.router.shard_ids())
