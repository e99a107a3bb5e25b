"""Self-tests of the benchmark's own ruler (tier-1, well under two seconds),
plus one end-to-end ``--smoke`` run under the ``stress`` marker."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from . import compare, measure, plan, registry, spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- percentiles and rounds ------------------------------------------------------------


def test_percentile_interpolates():
    samples = [float(v) for v in range(1, 102)]  # 1..101
    assert measure.percentile(samples, 50) == 51.0
    assert measure.percentile(samples, 95) == 96.0
    assert measure.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.samples_beyond(200, 95) == measure.MIN_BEYOND
    assert measure.samples_beyond(199, 95) == measure.MIN_BEYOND - 1
    assert measure.samples_beyond(40, 75) == 10 and measure.samples_beyond(39, 75) == 9
    assert measure.samples_beyond(100, 90) == 10 and measure.samples_beyond(100, 99) == 1


def test_round_summary_is_median_round_and_relative_spread():
    summary = measure.round_summary([10.0, 12.0, 11.0])
    assert summary["value"] == 11.0
    assert summary["spread"] == pytest.approx(2.0 / 11.0)
    assert summary["rounds"] == [10.0, 12.0, 11.0]


def test_stopwatch_excludes_paused_time():
    watch = measure.Stopwatch()
    watch.pause()
    frozen = watch.elapsed()
    assert watch.elapsed() == frozen and not watch.running
    watch.resume()
    watch.stop()
    assert watch.wall_s >= frozen and watch.cpu_s >= 0.0


# -- spans ---------------------------------------------------------------------------------


def _span(sid, name, start, end, parent=-1, rids=(), thread=1):
    return spans.Span(sid, name, start, end, parent, tuple(rids), thread)


def test_self_time_subtracts_union_of_overlapping_children():
    root = _span(0, "root", 0.0, 10.0)
    kids = [_span(1, "a", 1.0, 4.0, 0), _span(2, "b", 3.0, 6.0, 0), _span(3, "c", 8.0, 12.0, 0)]
    # union = [1,6] + [8,10] (clipped to the parent) = 7
    assert spans.self_time(root, kids) == pytest.approx(3.0)
    assert spans.self_time(root, []) == pytest.approx(10.0)


def test_cross_thread_child_joins_innermost_open_span_with_its_request_id():
    recorded = [
        _span(0, "client.predict", 0.0, 10.0, -1, ["r1"], thread=1),
        _span(1, "cluster.predict", 1.0, 9.0, 0, ["r1"], thread=1),
        _span(2, "scheduler.flush", 3.0, 8.0, -1, ["r1"], thread=2),
        _span(3, "engine.predict_many", 4.0, 7.0, 2, (), thread=2),
        _span(4, "scheduler.flush", 20.0, 21.0, -1, ["r9"], thread=2),  # nobody's child
    ]
    forest = spans.Forest(recorded)
    assert forest.parent[2] == 1 and forest.parent[3] == 2 and forest.parent[4] == -1
    assert forest.self_time(recorded[1]) == pytest.approx(3.0)  # 8 s minus the 5 s flush
    assert forest.self_time(recorded[2]) == pytest.approx(2.0)
    assert {s.sid for s in forest.descendants(recorded[0])} == {1, 2, 3}
    assert spans.coverage(forest, [recorded[0]]) == [pytest.approx(0.8)]


def test_tracer_wraps_and_restores_every_kind_of_attribute():
    class Target:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    module = types.ModuleType("fake")
    module.func = lambda x: x * 2
    instance = Target()
    before = (Target.__dict__["method"], Target.__dict__["build"], module.func)

    tracer = spans.Tracer()
    tracer.wrap(Target, "method", "t.method", lambda result, self, x: (f"r{x}",))
    tracer.wrap(Target, "build", "t.build")
    tracer.wrap(module, "func", "m.func")
    tracer.wrap(instance, "method", "i.method")
    assert instance.method(1) == 2  # instance wrapper calls the class wrapper
    assert Target.build(3) == (Target, 3)
    assert module.func(4) == 8
    names = [s.name for s in tracer.spans]
    assert names == ["t.method", "i.method", "t.build", "m.func"]
    inner, outer = tracer.spans[0], tracer.spans[1]
    assert inner.parent == outer.sid and inner.rids == ("r1",)

    tracer.restore()
    assert (Target.__dict__["method"], Target.__dict__["build"], module.func) == before
    assert "method" not in vars(instance)
    count = len(tracer.spans)
    instance.method(1)
    assert len(tracer.spans) == count


# -- plans -----------------------------------------------------------------------------------


def test_plan_is_a_function_of_workload_and_seed():
    hot = registry.workload("edge-hot")
    assert plan.make_plan(hot, 3).digest == plan.make_plan(hot, 3).digest
    assert plan.make_plan(hot, 3).digest != plan.make_plan(hot, 4).digest
    assert plan.make_plan(hot, 3).digest != plan.make_plan(registry.workload("cold-churn"), 3).digest
    assert [p.user_id for p in plan.make_plan(hot, 3).fleet] == list(range(3000, 3008))


def test_plan_shapes_follow_the_workload():
    batch = plan.make_plan(registry.workload("batch-proc"), 0)
    assert batch.envelope == registry.ENVELOPE and batch.requests_of(2) == list(range(32, 48))
    counts = [int((batch.sequence == t).sum()) for t in range(8)]
    assert counts[0] > counts[3] > counts[7]  # Zipf: tenant 0 is the most popular
    onboard = plan.make_plan(registry.workload("onboard"), 0)
    assert not onboard.fleet and len(onboard.new_users) == plan.NEW_USERS
    assert all(len(set(p.classes)) == registry.PROFILE_CLASSES for p in onboard.new_users)


# -- BENCHMARK.json agrees with the registry -------------------------------------------------


def test_benchmark_json_matches_the_registry():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/crispbench"]
    assert any(arg.startswith("benchmarks/crispbench/") for arg in BENCHMARK["command"])
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in registry.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in registry.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in registry.PER_LAYER
    ]


def test_every_name_unit_and_bound_is_within_the_contract():
    names = (
        [w.name for w in registry.WORKLOADS]
        + [m.name for m in registry.END_TO_END]
        + [m.name for m in registry.PER_LAYER]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in registry.END_TO_END + registry.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in registry.END_TO_END)
    assert all("\n" not in w.why and len(w.why) <= 200 for w in registry.WORKLOADS)
    assert "setup_s" in {m.name for m in registry.END_TO_END}
    assert len(registry.PER_LAYER) == 40 and len(registry.END_TO_END) == 9


# -- compare -----------------------------------------------------------------------------------


def _record(value, rounds, digest="d", **extra):
    metrics = {
        m.name: {"value": 1.0, "unit": m.unit} for m in registry.END_TO_END
    }
    spread = (max(rounds) - min(rounds)) / value
    metrics["latency_p50_ms"] = {"value": value, "unit": "ms", "rounds": rounds, "spread": spread}
    return {
        "workload": "edge-hot", "seed": 0, "traced": False, "smoke": False, "seconds": 10,
        "plan_digest": digest, "host": {"cpu_count": 2}, "metrics": metrics, **extra,
    }


def test_compare_verdicts():
    p50 = registry.EndToEnd("latency_p50_ms", "ms", "lower", 0.10, "a bound of ten percent")

    def outcome(base, new):
        return compare.verdict(
            p50, base["metrics"]["latency_p50_ms"], new["metrics"]["latency_p50_ms"]
        )[0]

    steady = _record(10.0, [9.9, 10.0, 10.1])
    assert outcome(steady, _record(10.5, [10.4, 10.5, 10.6])) == "ok"
    assert outcome(steady, _record(12.0, [11.9, 12.0, 12.1])) == "regressed"
    noisy = _record(10.0, [8.0, 10.0, 13.0])
    assert outcome(noisy, _record(12.0, [9.0, 12.0, 14.0])) == "unresolved"
    assert outcome(noisy, _record(7.0, [6.0, 7.0, 7.9])) == "ok"
    assert outcome(noisy, _record(20.0, [15.0, 20.0, 24.0])) == "regressed"


def test_compare_refuses_different_plans_hosts_and_smoke(tmp_path):
    base = _record(10.0, [9.9, 10.0, 10.1])
    assert compare.refusal(base, base) == ""
    assert "digest" in compare.refusal(base, _record(10.0, [10.0], digest="other"))
    assert "host" in compare.refusal(base, {**base, "host": {"cpu_count": 64}})
    assert "smoke" in compare.refusal(base, {**base, "smoke": True})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_record(10.0, [10.0], digest="other")))
    assert compare.compare_paths(str(a), str(b), stream=open(tmp_path / "log", "w")) == 2
    b.write_text(json.dumps(_record(10.2, [10.1, 10.2, 10.3])))
    assert compare.compare_paths(str(a), str(b), stream=open(tmp_path / "log", "w")) == 0


# -- end to end ----------------------------------------------------------------------------------


@pytest.mark.stress
def test_smoke_run_of_edge_hot(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "edge-hot", "--seed", "0",
         "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in registry.END_TO_END}
    record = json.loads(out.read_text())
    assert record["smoke"] is True and record["metrics"]["top1_agreement"]["value"] == 1.0
