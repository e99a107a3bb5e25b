"""The shard loop, driven synchronously (:mod:`repro.cluster.loop`).

No thread and no process: ops come from a list-backed inbox and answers land
in recording sinks, so every branch of the loop both worker kinds run is
visible to one plain test (and to coverage — the child's copy never was).
The last case runs the same op sequence through the process child's real
pipe codec over a fake connection and requires identical telemetry.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.cluster import loop as loop_module
from repro.cluster.loop import Op, ShardLoop
from repro.cluster.procworker import _PipeInbox, _payload
from repro.errors import InvalidArgumentError, UnavailableError
from repro.gateway.wire import ApiRequest, ApiResponse
from repro.cluster.telemetry import LatencyHistogram
from repro.serve import PredictRequest, PredictResponse

from test_cluster import _fleet, _stream


class ListInbox:
    """FIFO of prepared ops; 'nothing arrived in time' once it runs dry."""

    def __init__(self, ops):
        self.ops = deque(ops)

    def get(self, timeout):
        return self.ops.popleft() if self.ops else None

    def depth(self):
        return len(self.ops)


class FakeClock:
    """Stands in for the loop's ``time``: a ticking clock, recorded sleeps."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def monotonic(self):
        self.now += 0.001
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(loop_module, "time", fake)
    return fake


@pytest.fixture()
def fleet():
    return _fleet(tenants=2)


class Recorder:
    """Builds ops whose answer/fail sinks append to one ordered event log."""

    def __init__(self):
        self.events = []

    def _sinks(self, label):
        return (
            lambda result: self.events.append((label, "ok", result)),
            lambda exc: self.events.append((label, "err", exc)),
        )

    def predict(self, request, enqueued_at=99.0):
        return Op("predict", None, *self._sinks(request.request_id), request, enqueued_at)

    def control(self, kind, **args):
        return Op(kind, args, *self._sinks(kind))

    def labels(self, outcome=None):
        return [label for label, what, _ in self.events if outcome in (None, what)]

    def result(self, label):
        return next(result for name, _, result in self.events if name == label)


def _run(loop, ops):
    """Serve ``ops`` then a stop; the loop must come back by itself."""
    loop.run(ListInbox([*ops, Op("stop")]))


def _batch_sizes(loop):
    return loop.telemetry.snapshot()["batch_size"]["histogram"]


def test_window_holds_then_flushes_once(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    requests = _stream(model_ids, requests=6)
    probe = rec.control("stats")  # answered while the window is still open
    _run(loop, [
        rec.control("window", action="begin"),
        *[rec.predict(r) for r in requests],
        probe,
        rec.control("window", action="end"),
    ])
    # Nothing was answered before the window closed...
    assert rec.labels()[:2] == ["window", "stats"]
    assert rec.result("stats")["pending"] == 6
    assert rec.result("stats")["telemetry"]["completed"] == 0
    # ...and the whole burst went out as one dispatch, co-tenants fused.
    assert rec.labels("ok")[2:-1] == [r.request_id for r in requests]
    assert _batch_sizes(loop) == {"6": 1}
    assert all(rec.result(r.request_id).batched_with == 3 for r in requests)
    snapshot = loop.telemetry.snapshot()
    assert snapshot["submitted"] == 6 and snapshot["completed"] == 6


def test_nested_windows_flush_at_the_outermost_end(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    first, second = _stream(model_ids, requests=2)
    _run(loop, [
        rec.control("window", action="begin"),
        rec.control("window", action="begin"),
        rec.predict(first),
        rec.control("window", action="end"),
        rec.predict(second),
        rec.control("window", action="end"),
    ])
    assert [r["depth"] for _, _, r in rec.events if isinstance(r, dict)] == [1, 2, 1, 0]
    # Both predicts are answered only after the outer end, in one dispatch.
    assert rec.labels() == ["window", "window", "window", first.request_id,
                            second.request_id, "window"]
    assert _batch_sizes(loop) == {"2": 1}


@pytest.mark.parametrize("closer", ["drain", "stop"])
def test_unbalanced_window_is_flushed_by_drain_and_by_stop(fleet, clock, closer):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    requests = _stream(model_ids, requests=3)
    ops = [rec.control("window", action="begin"), *[rec.predict(r) for r in requests]]
    loop.run(ListInbox([*ops, rec.control(closer), Op("stop")]))
    # FIFO proof: every held predict is answered before the closer is.
    assert rec.labels("ok") == ["window", *[r.request_id for r in requests], closer]
    assert _batch_sizes(loop) == {"3": 1}
    if closer == "stop":  # the acknowledgement doubles as the final stats
        assert rec.result("stop")["telemetry"]["completed"] == 3


def test_held_work_chunks_at_max_batch_requests(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry, max_batch_requests=4), Recorder()
    requests = _stream(model_ids, requests=10)
    _run(loop, [
        rec.control("window", action="begin"),
        *[rec.predict(r) for r in requests],
        rec.control("window", action="end"),
    ])
    assert _batch_sizes(loop) == {"2": 1, "4": 2}
    assert rec.labels("ok")[1:-1] == [r.request_id for r in requests]
    # Queue depth seen by each dispatch: what was still held behind it.
    assert loop.telemetry.snapshot()["queue_depth"]["max"] == 6 + 1  # + the stop op


def test_duplicate_request_id_fails_only_its_own_item(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    a, b, c = _stream(model_ids, requests=3)
    b.request_id = a.request_id
    _run(loop, [
        rec.control("window", action="begin"),
        rec.predict(a), rec.predict(b), rec.predict(c),
        rec.control("window", action="end"),
    ])
    failures = [(label, exc) for label, what, exc in rec.events if what == "err"]
    assert [label for label, _ in failures] == [a.request_id]
    assert isinstance(failures[0][1], InvalidArgumentError)
    assert rec.labels("ok") == ["window", a.request_id, c.request_id, "window"]
    snapshot = loop.telemetry.snapshot()
    assert snapshot["failed"] == 1 and snapshot["completed"] == 2


def test_flush_error_fails_every_accepted_item_and_the_loop_keeps_serving(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    good, later = _stream(model_ids, requests=2)
    ghost = PredictRequest("ghost", np.zeros((1, 3, 12, 12)), request_id="r-ghost")
    _run(loop, [
        rec.control("window", action="begin"),
        rec.predict(good), rec.predict(ghost),
        rec.control("window", action="end"),
        rec.predict(later),
    ])
    assert rec.labels("err") == [good.request_id, "r-ghost"]
    assert all(isinstance(exc, KeyError) for _, what, exc in rec.events if what == "err")
    assert rec.result(later.request_id).status == 200
    snapshot = loop.telemetry.snapshot()
    assert snapshot["failed"] == 2 and snapshot["completed"] == 1
    assert snapshot["batch_size"]["dispatches"] == 1  # the failed flush is not one


class _ManifestSource:
    """A model source that accepts ``install`` (the registry has none)."""

    def __init__(self, registry):
        self.registry = registry
        self.installed = []

    def install(self, entry):
        self.installed.append(entry["model_id"])
        return False

    def build_engine(self, model_id):
        return self.registry.build_engine(model_id)


def test_install_does_not_cut_a_batch_but_other_control_ops_do(fleet, clock):
    registry, model_ids = fleet
    first, second = _stream(model_ids, requests=2)
    entry = {"model_id": model_ids[1], "version": 1}

    source = _ManifestSource(registry)
    loop, rec = ShardLoop(0, source), Recorder()
    _run(loop, [rec.predict(first), rec.control("install", entry=entry), rec.predict(second)])
    assert source.installed == [model_ids[1]]
    assert rec.result("install") == {"version": 1, "replaced": False}
    assert _batch_sizes(loop) == {"2": 1}  # one batch, collected across the install

    loop, rec = ShardLoop(0, _ManifestSource(registry)), Recorder()
    _run(loop, [rec.predict(first), rec.control("evict", model_id="nobody"), rec.predict(second)])
    # The evict is a barrier: first is dispatched, then the op, then second.
    assert rec.labels() == [first.request_id, "evict", second.request_id]
    assert rec.result("evict") == {"evicted": False}
    assert _batch_sizes(loop) == {"1": 2}


def test_chaos_delay_sleeps_once_per_dispatch(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry, max_batch_requests=2), Recorder()
    _run(loop, [
        rec.control("chaos", delay_s=0.25),
        rec.control("window", action="begin"),
        *[rec.predict(r) for r in _stream(model_ids, requests=5)],
        rec.control("window", action="end"),
    ])
    assert loop.telemetry.snapshot()["batch_size"]["dispatches"] == 3
    assert clock.sleeps == [0.25, 0.25, 0.25]


def test_kill_fails_what_the_loop_holds_and_ends_the_run(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    requests = _stream(model_ids, requests=2)
    error = UnavailableError("shard 0 was killed")

    class KilledWhenDry(ListInbox):
        def get(self, timeout):
            if not self.ops:
                loop.kill(error)
            return super().get(timeout)

    loop.run(KilledWhenDry([
        rec.control("window", action="begin"), *[rec.predict(r) for r in requests]
    ]))
    assert [(label, exc) for label, what, exc in rec.events if what == "err"] == [
        (r.request_id, error) for r in requests
    ]
    assert loop.telemetry.snapshot()["failed"] == 2


def test_unknown_op_is_failed_not_fatal(fleet, clock):
    registry, model_ids = fleet
    loop, rec = ShardLoop(0, registry), Recorder()
    request = _stream(model_ids, requests=1)[0]
    _run(loop, [rec.control("reticulate"), rec.predict(request)])
    assert rec.labels("err") == ["reticulate"]
    assert rec.result(request.request_id).status == 200


class FakeConn:
    """The child's end of the pipe: prepared frames in, sent frames recorded."""

    def __init__(self, frames):
        self.frames = deque(frames)
        self.sent = []

    def poll(self, timeout=0.0):
        return bool(self.frames)

    def recv_bytes(self):
        return self.frames.popleft()

    def send_bytes(self, data):
        self.sent.append(data)


def test_same_ops_same_telemetry_whichever_sink_is_attached(fleet, monkeypatch):
    """Futures-style sinks and wire-frame sinks are the whole difference
    between the worker kinds: the loop's books must not notice."""
    registry, model_ids = fleet

    def ops(rec):
        first, *rest = _stream(model_ids, requests=7)
        return [
            rec.predict(first),  # unbracketed: collected on the deadline
            rec.control("window", action="begin"),
            *[rec.predict(r) for r in rest],
            rec.control("window", action="end"),
            rec.control("stats"),
            rec.control("stop"),
        ]

    monkeypatch.setattr(loop_module, "time", FakeClock())
    direct, rec = ShardLoop(0, registry), Recorder()
    direct.run(ListInbox(ops(rec)))

    monkeypatch.setattr(loop_module, "time", FakeClock())
    wired = ShardLoop(0, registry)
    frames = [
        ApiRequest(method=op.kind, payload=_payload(op), request_id=f"f-{i}")
        .to_json().encode("utf-8")
        for i, op in enumerate(ops(Recorder()))
    ]
    conn = FakeConn(frames)
    wired.run(_PipeInbox(conn, wired))

    assert wired.telemetry.snapshot() == direct.telemetry.snapshot()
    assert wired.stats() == direct.stats()
    replies = [ApiResponse.from_json(raw.decode("utf-8")) for raw in conn.sent]
    assert [r.request_id for r in replies] == [f"f-{i}" for i in range(len(frames))]
    assert all(r.ok for r in replies)
    # Same answers, bit for bit, through the codec...
    answers = [
        (PredictResponse.from_dict(reply.payload).logits, result.logits)
        for reply, (_, _, result) in zip(replies, rec.events)
        if "logits" in reply.payload
    ]
    assert len(answers) == 7
    for wire_logits, logits in answers:
        assert wire_logits.tobytes() == logits.tobytes()
    # ...and the stats/stop replies carry the reservoir the parent merges.
    assert replies[-1].payload["telemetry"] == direct.telemetry.snapshot()
    reservoir = LatencyHistogram.from_wire(replies[-1].payload["latency_reservoir"])
    assert len(reservoir.samples()) == 7
