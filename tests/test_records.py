"""The record / line / log contract, stated once.

* every :class:`~repro.records.Record` type round-trips through its JSON
  line, and that line equals a **golden literal typed in here** (copied from
  the output of the commit before ``repro.records`` existed) — which is
  what protects the CI ``cmp`` artifacts *across* commits, where same-commit
  determinism diffs cannot;
* :class:`~repro.records.RecordLog`: ring bound, sink durability,
  subscriber ordering, gap-free sequence numbers under threads, the two
  text shapes;
* :class:`~repro.metrics.slo.Debounce`: the autoscaler's inclusive and the
  detector's exclusive cooldown.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.autoscale import ScalingDecision, ScalingPolicy, ScalingRule
from repro.lifecycle import (
    LifecyclePolicy,
    LifecycleTransition,
    RolloutDecision,
    RolloutEntry,
)
from repro.metrics import AlertRule, Event
from repro.metrics.slo import Debounce
from repro.records import RecordLog, canonical_json, json_line

_RULE = ScalingRule(
    "queue-pressure", "queue_per_shard", ">=", 4.0, "scale_out",
    for_samples=2, description="backlog >= 4/shard for 2 ticks",
)

#: One instance of every Record type and the line the parent commit wrote for it.
GOLDEN = [
    (
        Event(ts=1.5, kind="cache_evict",
              fields={"model_id": "m0", "reason": "capacity"}),
        '{"kind": "cache_evict", "model_id": "m0", "reason": "capacity", "ts": 1.5}',
    ),
    (
        AlertRule(name="p99-over-threshold", metric="latency_ms", op=">",
                  threshold=250.0, for_samples=2, labels={"quantile": "p99"},
                  description="p99 latency > 250ms for 2 samples"),
        '{"description": "p99 latency > 250ms for 2 samples", "for_samples": 2, '
        '"labels": {"quantile": "p99"}, "metric": "latency_ms", '
        '"name": "p99-over-threshold", "op": ">", "threshold": 250.0}',
    ),
    (
        _RULE,
        '{"action": "scale_out", "description": "backlog >= 4/shard for 2 ticks", '
        '"for_samples": 2, "name": "queue-pressure", "op": ">=", '
        '"signal": "queue_per_shard", "step": 1, "threshold": 4.0}',
    ),
    (
        ScalingPolicy(
            rules=(_RULE,), min_shards=2, max_shards=4, cooldown_ticks=3,
            alert_actions={"queue-depth-sustained": "scale_out", "a-rule": "scale_in"},
        ),
        '{"alert_actions": {"a-rule": "scale_in", "queue-depth-sustained": "scale_out"}, '
        '"cooldown_ticks": 3, "max_shards": 4, "min_shards": 2, "rules": [{"action": '
        '"scale_out", "description": "backlog >= 4/shard for 2 ticks", "for_samples": 2, '
        '"name": "queue-pressure", "op": ">=", "signal": "queue_per_shard", "step": 1, '
        '"threshold": 4.0}]}',
    ),
    (
        ScalingDecision(tick=7, at=3.5, action="suppress", rule="queue-pressure",
                        signal="queue_per_shard", value=6.25, threshold=4.0,
                        shards_before=3, shards_after=3,
                        reason="cooldown until tick 9"),
        '{"action": "suppress", "at": 3.5, "reason": "cooldown until tick 9", '
        '"rule": "queue-pressure", "shards_after": 3, "shards_before": 3, '
        '"signal": "queue_per_shard", "threshold": 4.0, "tick": 7, "value": 6.25}',
    ),
    (
        LifecycleTransition(seq=1, at=0.5, tenant="tenant-0", from_state="DRIFTING",
                            to_state="REPRUNING", reason="repersonalize",
                            details={"target_classes": [3, 4, 5]}),
        '{"at": 0.5, "details": {"target_classes": [3, 4, 5]}, "from_state": "DRIFTING", '
        '"reason": "repersonalize", "seq": 1, "tenant": "tenant-0", '
        '"to_state": "REPRUNING"}',
    ),
    (
        LifecyclePolicy(min_accuracy=0.8, canary_fraction=0.25,
                        rollout_mode="shadow", rollout_seed=7),
        '{"canary_fraction": 0.25, "canary_min_requests": 4, "cooldown_ticks": 2, '
        '"for_samples": 2, "max_versions": 8, "min_accuracy": 0.8, "min_requests": 4, '
        '"promote_margin": 0.0, "rollout_mode": "shadow", "rollout_seed": 7}',
    ),
    (
        RolloutEntry(tenant="t", stable="t", canary="t@v2", fraction=0.5,
                     mode="shadow", seed=3),
        '{"canary": "t@v2", "fraction": 0.5, "mode": "shadow", "seed": 3, '
        '"stable": "t", "tenant": "t"}',
    ),
    (
        RolloutDecision(seq=4, tenant="t", request_id=None, arm="stable", serve="t",
                        shadow="t@v2", mode="shadow", fraction=0.5),
        '{"arm": "stable", "fraction": 0.5, "mode": "shadow", "request_id": null, '
        '"seq": 4, "serve": "t", "shadow": "t@v2", "tenant": "t"}',
    ),
]


class TestRecord:
    @pytest.mark.parametrize(
        "record, golden", GOLDEN, ids=[type(r).__name__ for r, _ in GOLDEN]
    )
    def test_golden_line_and_round_trip(self, record, golden):
        assert record.to_json() == golden
        assert json_line(record.to_dict()) == golden
        assert type(record).from_dict(json.loads(golden)) == record

    def test_from_dict_rejects_a_wrong_field_set(self):
        payload = _RULE.to_dict()
        with pytest.raises(ValueError, match=r"missing fields \['step'\]"):
            ScalingRule.from_dict({k: v for k, v in payload.items() if k != "step"})
        with pytest.raises(ValueError, match=r"unexpected fields \['extra'\]"):
            ScalingRule.from_dict({**payload, "extra": 1})
        with pytest.raises(ValueError, match="unknown op"):  # own validation runs
            ScalingRule.from_dict({**payload, "op": "!"})

    def test_the_two_encodings(self):
        payload = {"b": [1, 2.5], "a": {"d": None, "c": "x"}}
        assert json_line(payload) == '{"a": {"c": "x", "d": null}, "b": [1, 2.5]}'
        assert canonical_json(payload) == '{"a":{"c":"x","d":null},"b":[1,2.5]}'
        with pytest.raises(ValueError):
            canonical_json({"nan": float("nan")})


def _decision(seq: int) -> RolloutDecision:
    return RolloutDecision(seq=seq, tenant="t", request_id=f"r{seq}", arm="stable",
                           serve="t", shadow=None, mode="split", fraction=0.5)


class TestRecordLog:
    def test_ring_bound_keeps_the_tail_and_the_count(self):
        log = RecordLog(capacity=2)
        for _ in range(5):
            log.append(_decision)
        assert [d.seq for d in log.records()] == [3, 4]
        assert len(log) == 2 and log.appended == 5
        unlogged = RecordLog(capacity=0)
        assert unlogged.append(_decision).seq == 0
        assert unlogged.append(_decision).seq == 1 and len(unlogged) == 0

    def test_sink_line_is_on_disk_before_append_returns(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        log = RecordLog(path=str(sink))
        first = log.append(_decision)
        assert sink.read_text() == first.to_json() + "\n"  # before close()
        log.append(_decision)
        log.close()
        assert sink.read_text().splitlines() == log.lines()

    def test_subscribers_run_in_append_order_outside_the_lock(self):
        log = RecordLog()
        seen = []
        # records() takes the (non-reentrant) lock: this would deadlock if
        # subscribers were called while append still held it.
        log.subscribe(lambda record: seen.append((record.seq, len(log.records()))))
        for _ in range(3):
            log.append(_decision)
        assert seen == [(0, 1), (1, 2), (2, 3)]

    def test_concurrent_appends_number_without_gap(self):
        log = RecordLog()
        threads = [
            threading.Thread(target=lambda: [log.append(_decision) for _ in range(200)])
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [d.seq for d in log.records()] == list(range(1600))

    def test_jsonl_is_separated_and_dump_is_terminated(self, tmp_path):
        log = RecordLog()
        assert log.jsonl() == ""
        assert log.dump(tmp_path / "empty.jsonl") == 0
        assert (tmp_path / "empty.jsonl").read_text() == ""
        for _ in range(2):
            log.append(_decision)
        a, b = log.lines()
        assert log.jsonl() == f"{a}\n{b}"
        assert log.dump(tmp_path / "two.jsonl") == 2
        assert (tmp_path / "two.jsonl").read_text() == f"{a}\n{b}\n"
        assert log.counts("arm") == {"stable": 2}

    def test_replay_round_trips_and_skips_blank_lines(self):
        log = RecordLog()
        for _ in range(3):
            log.append(_decision)
        replayed = RecordLog.replay(["", *log.lines(), "  "], RolloutDecision)
        assert replayed.records() == log.records() and replayed.appended == 3


class TestDebounce:
    def test_streak_grows_while_holding_and_resets_per_key(self):
        debounce = Debounce()
        assert [debounce.observe("a", h) for h in (True, True, False, True)] == [1, 2, 0, 1]
        debounce.observe("b", True)
        assert debounce.streaks() == {"a": 1, "b": 1}
        debounce.clear("a")
        assert debounce.streaks() == {"b": 1}
        debounce.clear()
        assert debounce.streaks() == {}

    def test_detector_cooldown_is_exclusive_of_its_end_tick(self):
        debounce = Debounce()
        debounce.rest("tenant", 5 + 2)  # detected at tick 5, cooldown_ticks=2
        assert [debounce.resting("tenant", t) for t in (5, 6, 7)] == [True, True, False]

    def test_autoscaler_cooldown_is_inclusive_via_plus_one(self):
        debounce = Debounce()
        debounce.rest("fleet", 5 + 2 + 1)  # acted at tick 5, cooldown_ticks=2
        assert [debounce.resting("fleet", t) for t in (6, 7, 8)] == [True, True, False]
        assert debounce.rest_until("fleet") - 1 == 7 and not debounce.resting("other", 0)
