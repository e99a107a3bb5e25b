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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import loop as loop_module
from repro.cluster.loop import Op, ShardLoop
from repro.cluster.procworker import _PipeInbox, _payload
from repro.errors import InvalidArgumentError, UnavailableError
from repro.gateway.wire import ApiRequest, ApiResponse
from repro.cluster.telemetry import LatencyHistogram
from repro.serve import PredictRequest, PredictResponse

from test_cluster import _fleet, _stream


class ListInbox:
    """FIFO of prepared ops; 'nothing arrived in time' at a ``None`` in the
    script and once it runs dry.  Keeps the ``timeout`` each ``get`` was given."""

    def __init__(self, ops):
        self.ops = deque(ops)
        self.timeouts = []

    def get(self, timeout):
        self.timeouts.append(timeout)
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

    def predict(self, request, enqueued_at=99.0, admitted=0):
        sinks = self._sinks(request.request_id)
        return Op("predict", None, *sinks, request, enqueued_at, admitted)

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


# -- the third arm of the trigger: a complete batch goes at once -------------------
#
# ``timeouts`` reads: None = the loop was idle, 0.0 = it only looked for what
# had already arrived, positive = it waited for company.

INTERVAL = 0.25  # far above FakeClock's 1 ms tick, so "remaining" is readable


def _collect_run(registry, script, **loop_args):
    loop = ShardLoop(0, _ManifestSource(registry), flush_interval_s=INTERVAL, **loop_args)
    inbox = ListInbox([*script, None, Op("stop")])
    loop.run(inbox)
    return loop, inbox.timeouts


def test_a_lone_stamped_predict_is_dispatched_at_once(fleet, clock):
    registry, model_ids = fleet
    rec = Recorder()
    request = _stream(model_ids, requests=1)[0]
    loop, timeouts = _collect_run(registry, [rec.predict(request, admitted=1)])
    assert timeouts == [None, 0.0, None]  # one look at the inbox, never a wait
    assert _batch_sizes(loop) == {"1": 1}
    assert rec.result(request.request_id).status == 200


def test_company_the_front_admitted_is_waited_for_until_it_is_in_hand(fleet, clock):
    registry, model_ids = fleet
    rec = Recorder()
    a, b, c = _stream(model_ids, requests=3)
    script = [rec.predict(a, admitted=3), rec.predict(b, admitted=1), rec.predict(c, admitted=2)]
    loop, timeouts = _collect_run(registry, script)
    # Two waits, each for what is left of the one deadline, then — all three in
    # hand — a look for stragglers and off it goes.
    idle, first_wait, second_wait, look, _ = timeouts
    assert (idle, look) == (None, 0.0)
    assert 0.0 < second_wait < first_wait <= INTERVAL
    assert first_wait == pytest.approx(INTERVAL - 0.001)
    assert _batch_sizes(loop) == {"3": 1}

    # Company that never shows up costs the deadline, as it always did: the
    # loop goes with what it has when a wait comes back empty.
    loop, timeouts = _collect_run(registry, script[:2])
    assert timeouts[0] is None and all(0.0 < t <= INTERVAL for t in timeouts[1:3])
    assert _batch_sizes(loop) == {"2": 1}


def test_stamps_posted_out_of_order_still_end_in_one_batch(fleet, clock):
    """Admission is counted under the front's lock, posting is not: the
    second-admitted predict can reach the inbox first."""
    registry, model_ids = fleet
    rec = Recorder()
    first, second = _stream(model_ids, requests=2)
    script = [rec.predict(second, admitted=2), rec.predict(first, admitted=1)]
    loop, timeouts = _collect_run(registry, script)
    assert timeouts[0] is None and 0.0 < timeouts[1] <= INTERVAL
    assert timeouts[2:] == [0.0, None]
    assert _batch_sizes(loop) == {"2": 1}
    assert rec.labels("ok") == [second.request_id, first.request_id]  # inbox order


def test_a_latecomer_with_a_larger_stamp_reopens_a_complete_batch(fleet, clock):
    registry, model_ids = fleet
    rec = Recorder()
    a, b, c = _stream(model_ids, requests=3)
    # a alone is complete; the look finds b, whose stamp says a third is about.
    script = [rec.predict(a, admitted=1), rec.predict(b, admitted=3), rec.predict(c, admitted=3)]
    loop, timeouts = _collect_run(registry, script)
    assert timeouts[:2] == [None, 0.0] and 0.0 < timeouts[2] <= INTERVAL
    assert timeouts[3:] == [0.0, None]
    assert _batch_sizes(loop) == {"3": 1}


@pytest.mark.parametrize("stamps", [(2, 1), (1, 2)], ids=["waiting", "complete"])
def test_stamped_or_not_install_does_not_cut_and_other_ops_are_barriers(fleet, clock, stamps):
    registry, model_ids = fleet
    first, second = _stream(model_ids, requests=2)

    def run_with_between(kind, **args):
        rec = Recorder()
        script = [rec.predict(first, admitted=stamps[0]), rec.control(kind, **args),
                  rec.predict(second, admitted=stamps[1])]
        loop, timeouts = _collect_run(registry, script)
        return rec.labels(), _batch_sizes(loop), timeouts

    labels, sizes, timeouts = run_with_between(
        "install", entry={"model_id": model_ids[1], "version": 1}
    )
    assert labels == ["install", first.request_id, second.request_id]
    assert sizes == {"2": 1}
    assert timeouts[-2:] == [0.0, None]  # complete with the second in hand

    labels, sizes, _ = run_with_between("evict", model_id="nobody")
    assert labels == [first.request_id, "evict", second.request_id]
    assert sizes == {"1": 2}


def test_an_unstamped_predict_waits_out_the_deadline_as_before(fleet, clock):
    registry, model_ids = fleet
    rec = Recorder()
    a, b = _stream(model_ids, requests=2)
    loop, timeouts = _collect_run(registry, [rec.predict(a)])
    assert timeouts == [None, pytest.approx(INTERVAL - 0.001), None]
    # One unknown in the batch keeps the whole batch waiting: it cannot be
    # called complete by the stamps of the others.
    loop, timeouts = _collect_run(registry, [rec.predict(b), rec.predict(a, admitted=1)])
    assert timeouts[0] is None and all(0.0 < t <= INTERVAL for t in timeouts[1:3])
    assert _batch_sizes(loop) == {"2": 1}


def test_max_batch_still_cuts_a_batch_that_waits_for_more(fleet, clock):
    registry, model_ids = fleet
    rec = Recorder()
    script = [rec.predict(r, admitted=5) for r in _stream(model_ids, requests=4)]
    loop, timeouts = _collect_run(registry, script, max_batch_requests=2)
    assert _batch_sizes(loop) == {"2": 2}
    assert 0.0 not in timeouts  # never complete: cut by size both times


def test_the_stamp_crosses_the_pipe_and_a_frame_without_one_is_unknown(fleet):
    registry, model_ids = fleet
    op = Recorder().predict(_stream(model_ids, requests=1)[0], admitted=3)
    inbox = _PipeInbox(FakeConn([]), ShardLoop(0, registry))
    payload = _payload(op)
    assert inbox._op(ApiRequest("predict", payload, request_id="f-0")).admitted == 3
    del payload["admitted"]
    assert inbox._op(ApiRequest("predict", payload, request_id="f-1")).admitted == 0


def test_a_dispatch_is_on_the_books_before_its_first_answer(fleet, clock):
    """Answering wakes the caller, who may ask for stats() at once (a thread
    worker's report reads these counters directly): its own completion and its
    own dispatch must already be counted."""
    registry, model_ids = fleet
    loop, seen = ShardLoop(0, registry), []

    def answer(_response):
        snapshot = loop.telemetry.snapshot()
        seen.append((snapshot["completed"], snapshot["batch_size"]["dispatches"]))

    _run(loop, [Op("predict", None, answer, request=r) for r in _stream(model_ids, requests=3)])
    assert seen == [(3, 1)] * 3


class ArrivalInbox:
    """An inbox on the fake clock: ops arrive at scripted times and ``get``
    blocks like a real one (the clock jumps to the arrival, or by the timeout).

    It also audits the loop from outside.  It hands out every predict, so it
    knows the batch being collected (a ``get(None)`` means the loop is idle:
    whatever was in hand has been dispatched or is held in a window) and the
    deadline that batch runs to, and checks every timeout against both.
    """

    def __init__(self, clock, arrivals, interval):
        self.clock, self.arrivals, self.interval = clock, deque(arrivals), interval
        self.batch, self.deadline = [], None

    def get(self, timeout):
        now = self.clock.now
        if timeout is None:
            self.batch = []
        else:
            assert self.batch, "a timed get with no batch in hand"
            stamps = [op.admitted for op in self.batch]
            complete = all(stamps) and len(stamps) >= max(stamps)
            remaining = max(0.0, self.deadline - now)
            assert timeout == (0.0 if complete else pytest.approx(remaining, abs=1e-9))
        if not self.arrivals or (timeout is not None and self.arrivals[0][0] > now + timeout):
            self.clock.now = now + timeout
            return None
        at, op = self.arrivals.popleft()
        self.clock.now = max(now, at)
        if op.kind == "predict":
            if not self.batch:  # the loop reads the clock once, then adds the interval
                self.deadline = self.clock.now + 0.001 + self.interval
            self.batch.append(op)
        return op

    def depth(self):
        return sum(at <= self.clock.now for at, _ in self.arrivals)


_ARRIVAL = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0004, 0.003, 0.02, 0.3]),  # gap since the arrival before
    st.sampled_from(["predict"] * 6 + ["install", "evict", "stats", "drain", "begin", "end"]),
    st.integers(0, 4),  # a predict's stamp; 0 = none
)


def test_any_arrival_script_answers_every_predict_once_in_order(fleet, clock):
    """Random stamps, gaps and control ops: FIFO answers, exactly once; a
    batch short of its largest stamp waits for exactly what is left of the
    deadline, a complete one not at all."""
    registry, model_ids = fleet
    engines = {model_id: registry.build_engine(model_id) for model_id in model_ids}

    @given(st.lists(_ARRIVAL, max_size=12), st.sampled_from([0.0, 0.002, 0.05]),
           st.sampled_from([1, 2, 3, 256]))
    @settings(max_examples=60, deadline=None)
    def check(script, interval, max_batch_requests):
        clock.now = 100.0
        loop = ShardLoop(0, _ManifestSource(registry), flush_interval_s=interval,
                         max_batch_requests=max_batch_requests)
        for model_id, engine in engines.items():
            loop.put_engine(model_id, engine)
        rec = Recorder()
        requests = iter(_stream(model_ids, requests=len(script)))
        at, arrivals, expected = clock.now, [], []
        for gap, kind, stamp in script:
            at += gap
            if kind == "predict":
                request = next(requests)
                expected.append(request.request_id)
                arrivals.append((at, rec.predict(request, admitted=stamp)))
            elif kind in ("begin", "end"):
                arrivals.append((at, rec.control("window", action=kind)))
            else:
                args = {"install": {"entry": {"model_id": model_ids[0], "version": 1}},
                        "evict": {"model_id": "nobody"}}.get(kind, {})
                arrivals.append((at, rec.control(kind, **args)))
        arrivals.append((at + 1.0, Op("stop")))  # flushes a window left open
        loop.run(ArrivalInbox(clock, arrivals, interval))
        assert not rec.labels("err")
        assert [label for label in rec.labels("ok") if label in expected] == expected
        assert loop.telemetry.snapshot()["completed"] == len(expected)

    check()
