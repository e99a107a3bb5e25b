"""The shard loop: what one serving shard does, whichever way it is driven.

A :class:`ShardLoop` owns a shard's *private*
:class:`~repro.serve.cache.EngineCache` and
:class:`~repro.serve.scheduler.BatchScheduler` (neither is thread-safe;
single ownership is what makes the sharded design sound), its
:class:`~repro.cluster.telemetry.ShardTelemetry`, the chaos delay and the
window state.  It serves :class:`Op`\\ s from an *inbox* and knows nothing
about where they come from or where answers go: the thread worker
(:mod:`repro.cluster.shard`) feeds it from a ``queue.Queue`` and resolves
futures, the process worker's child (:mod:`repro.cluster.procworker`) feeds
it from a pipe and answers with wire frames.  Batching, window bracketing,
drain/stop flushing, the chaos delay, every telemetry record and the stats
payload exist here and nowhere else, so the two kinds cannot drift apart.

Batching trigger — *complete, deadline or max batch*: the loop takes one
predict, then keeps collecting until the batch is complete,
``flush_interval_s`` has passed since that first request or
``max_batch_requests`` are in hand, and dispatches the slice through its
scheduler so co-tenant requests fuse into one
:meth:`~repro.backend.engine.Engine.predict_many` call.  The deadline exists
to wait for company, and a *stamp* says how much is coming: the front stamps
every predict with the number of predicts it had admitted and not yet seen
answered at that moment, the new one included (:attr:`Op.admitted`).  A
batch that holds as many predicts as the largest stamp among them holds
everyone the front knew of, so it takes only what has already arrived and
goes — a lone caller never waits; while some of them are still on their way
(or computing their next request: closed-loop callers come back) it collects
to the deadline as before.  A stamp can only err high — a process parent
un-counts after the child answered, a caller may die between admission and
post — and then costs one ``flush_interval_s``, never a wrong answer; a
predict without a stamp is of unknown company and waits out the deadline.
An ``install`` arriving mid-collection is applied without cutting the batch
(it only adds a tenant image the following predicts need); any other control op
is a barrier: the batch in hand is dispatched first, then the op is served —
ops never overtake the predicts sent before them.

Window bracketing — between a ``window begin`` and its matching ``end`` the
loop holds predicts instead of dispatching them, and the ``end`` flushes the
whole burst at once.  The inbox is FIFO, so every predict sent inside the
bracket is inside the window: whole-burst fusion is structural, independent
of host scheduling, which is what makes predictions bit-identical across
deployments (fusion changes BLAS summation order, grouping does not).
Unbracketed predicts fuse by the trigger above, i.e. by timing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

from ..serve.cache import EngineCache
from ..serve.scheduler import BatchScheduler
from ..serve.types import PredictRequest
from .telemetry import ShardTelemetry

__all__ = ["Op", "ShardLoop"]


def _ignore(_outcome) -> None:
    """Sink of an op nobody waits on."""


class Op(NamedTuple):
    """One unit of work for the loop.

    ``kind`` is ``predict`` or a control kind (``window``, ``install``,
    ``evict``, ``put_engine``, ``chaos``, ``stats``, ``drain``, ``stop``)
    with its arguments in ``args``.  ``answer(result)`` and ``fail(exc)`` are
    the whole difference between transports on the way out: a predict's
    result is its :class:`~repro.serve.types.PredictResponse`, a control
    op's a JSON-compatible dict.  ``admitted`` is a predict's stamp (module
    docstring): what the loop needs in hand before it stops waiting.
    """

    kind: str
    args: Optional[Dict] = None
    answer: Callable[[object], None] = _ignore
    fail: Callable[[BaseException], None] = _ignore
    request: Optional[PredictRequest] = None
    #: ``time.monotonic()`` at submission (system-wide, so a parent
    #: process's stamp is comparable in its child).
    enqueued_at: float = 0.0
    #: Predicts the front had admitted and not yet seen answered when it
    #: admitted this one, itself included; 0 = unknown (wait the deadline).
    admitted: int = 0


class ShardLoop:
    """Cache + scheduler + telemetry of one shard, serving ops from an inbox."""

    def __init__(
        self,
        shard_id,
        source,
        cache_capacity: int = 4,
        max_batch_size: Optional[int] = None,
        max_batch_requests: int = 256,
        flush_interval_s: float = 0.002,
        telemetry: Optional[ShardTelemetry] = None,
    ) -> None:
        if flush_interval_s < 0:
            raise ValueError(f"flush_interval_s must be >= 0, got {flush_interval_s}")
        self.cache = EngineCache(source, capacity=cache_capacity)
        self.scheduler = BatchScheduler(self.cache, max_batch_size=max_batch_size)
        self.telemetry = telemetry or ShardTelemetry(shard_id)
        self.max_batch_requests = max_batch_requests
        self.flush_interval_s = flush_interval_s
        #: Fault-injection knob: seconds slept before every dispatch.  A
        #: chaos layer sets this to simulate a degraded worker — requests
        #: back up and admission control starts shedding load upstream.
        self.chaos_delay_s = 0.0
        #: Serializes scheduler/cache access between the loop and other
        #: threads calling the cache handlers.
        self.lock = threading.RLock()
        self._window_depth = 0
        self._held: Deque[Op] = deque()
        self._barrier: Optional[Op] = None  # control op read while collecting
        self._down: Optional[BaseException] = None

    # -- cache handlers: control ops, also safe to call from other threads -----
    def engine(self, model_id: str):
        """The shard's cached engine for ``model_id`` (built on first use)."""
        with self.lock:
            return self.cache.get(model_id)

    def evict(self, model_id: str) -> bool:
        """Drop one tenant's cached engine (after re-personalization)."""
        with self.lock:
            return self.cache.evict(model_id)

    def put_engine(self, model_id: str, engine) -> None:
        """Plant an engine in the shard's cache (chaos/testing seam)."""
        with self.lock:
            self.cache.put(model_id, engine)

    def install(self, entry: Dict) -> Dict:
        """Add a published tenant image to a shared-memory model source."""
        with self.lock:
            replaced = self.cache.registry.install(entry)
            if replaced:
                # A fresh weight version supersedes the cached engine.
                self.cache.evict(entry["model_id"])
        return {"version": entry["version"], "replaced": replaced}

    # -- the loop ---------------------------------------------------------------
    def run(self, inbox) -> None:
        """Serve ops until a ``stop`` op has been answered or :meth:`kill`.

        ``inbox`` is the transport's FIFO: ``get(timeout) -> Op | None`` (the
        next op, or ``None`` if none arrived in time; ``timeout=None`` means
        the loop is idle, and may still return ``None`` now and then so a
        :meth:`kill` is noticed) and ``depth()`` (ops arrived, not yet taken).
        """
        while self._down is None:
            op, self._barrier = self._barrier, None
            if op is None:
                op = self._next(inbox, None)
            if op is None:
                continue
            if op.kind != "predict":
                self._serve(op, inbox)
                if op.kind == "stop":
                    return
            elif self._window_depth:
                self._held.append(op)
            else:
                self._dispatch(self._collect(op, inbox), inbox)
        # Killed: whatever is in hand gets a clean failure, never an answer
        # and never a hang.
        stranded = list(self._held) + ([] if self._barrier is None else [self._barrier])
        self._held.clear()
        self._barrier = None
        self.fail(stranded, self._down)

    def kill(self, error: BaseException) -> None:
        """Make the loop stop serving and fail what it holds with ``error``.

        Takes effect at the loop's next step and before its next dispatch; a
        dispatch already computing still answers.  The flag a killed thread
        worker and a child whose parent vanished have in common.
        """
        self._down = error

    def fail(self, ops: List[Op], exc: BaseException) -> None:
        """Answer ``ops`` with ``exc``; the failed predicts are counted."""
        for op in ops:
            op.fail(exc)
        predicts = sum(op.kind == "predict" for op in ops)
        if predicts:
            self.telemetry.record_failure(predicts)

    def _next(self, inbox, timeout: Optional[float]) -> Optional[Op]:
        op = inbox.get(timeout)
        if op is not None and op.kind == "predict":
            self.telemetry.record_submit()
        return op

    def _serve(self, op: Op, inbox) -> None:
        """Run one control op and answer it (or fail it with what it raised)."""
        try:
            result = self._control(op, inbox)
        except Exception as exc:  # e.g. an install naming a missing segment
            op.fail(exc)
        else:
            op.answer(result)

    def _control(self, op: Op, inbox) -> Dict:
        kind, args = op.kind, op.args
        if kind == "window":
            if args["action"] == "begin":
                self._window_depth += 1
            else:
                self._window_depth = max(0, self._window_depth - 1)
                if not self._window_depth:
                    self._flush_held(inbox)
            return {"depth": self._window_depth}
        if kind == "install":
            return self.install(args["entry"])
        if kind == "evict":
            return {"evicted": self.evict(args["model_id"])}
        if kind == "put_engine":
            self.put_engine(args["model_id"], args["engine"])
            return {}
        if kind == "chaos":
            self.chaos_delay_s = float(args["delay_s"])
            return {"delay_s": self.chaos_delay_s}
        if kind == "stats":
            return self.stats()
        if kind in ("drain", "stop"):
            # FIFO: every predict sent before this op has been answered once
            # held work is flushed (an unbalanced window must not strand it).
            # The stop acknowledgement doubles as the final stats.
            self._flush_held(inbox)
            return self.stats() if kind == "stop" else {"drained": True}
        raise ValueError(f"unknown worker op {kind!r}")

    def _collect(self, first: Op, inbox) -> List[Op]:
        """Complete, deadline or max batch: grow ``first`` into a dispatch batch."""
        batch, company = [first], 0  # company: the largest stamp in the batch
        deadline = time.monotonic() + self.flush_interval_s
        while len(batch) < self.max_batch_requests:
            # Unknown company counts as a full batch's worth: never complete.
            company = max(company, batch[-1].admitted or self.max_batch_requests)
            complete = len(batch) >= company
            op = self._next(inbox, 0.0 if complete else max(0.0, deadline - time.monotonic()))
            if op is None:
                break
            if op.kind == "predict":
                batch.append(op)
            elif op.kind == "install":
                self._serve(op, inbox)
            else:
                self._barrier = op
                break
        return batch

    def _flush_held(self, inbox) -> None:
        """Dispatch every held predict (window end, drain or stop)."""
        while self._held:
            count = min(len(self._held), self.max_batch_requests)
            self._dispatch([self._held.popleft() for _ in range(count)], inbox)

    def _dispatch(self, batch: List[Op], inbox) -> None:
        if self.chaos_delay_s > 0:
            time.sleep(self.chaos_delay_s)
        if self._down is not None:
            self.fail(batch, self._down)
            return
        depth_after = len(self._held) + inbox.depth()
        accepted: List[Op] = []
        with self.lock:
            for op in batch:
                try:
                    self.scheduler.submit(op.request)
                except Exception as exc:  # e.g. duplicate request id
                    self.fail([op], exc)
                else:
                    accepted.append(op)
            try:
                responses = self.scheduler.flush()
            except Exception as exc:  # e.g. unknown model id in the batch
                self.fail(accepted, exc)
                return
        now = time.monotonic()
        # Every span and count is recorded BEFORE the first answer: resolving
        # a future wakes the waiting caller, which reads its trace and may
        # read stats() at once — its own dispatch must already be in both.
        self.telemetry.record_dispatch(len(batch), depth_after)
        for op in accepted:
            latency = now - op.enqueued_at  # transit + queue wait + batch + dispatch
            if op.request.trace is not None:
                op.request.trace.add("shard", latency)
            self.telemetry.record_completion(latency)
        for op, response in zip(accepted, responses):
            op.answer(response)

    # -- reporting --------------------------------------------------------------
    def stats(self) -> Dict:
        """The shard's report body; workers add their id and admission state."""
        return {
            "pending": len(self._held),
            "cache": self.cache.stats(),
            "scheduler": self.scheduler.stats(),
            "telemetry": self.telemetry.snapshot(),
        }
