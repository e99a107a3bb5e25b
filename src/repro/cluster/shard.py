"""Shard workers: the frontend-facing half, and the thread transport.

A shard worker is a :class:`~repro.cluster.loop.ShardLoop` (which documents
what a shard *does*: batching, window bracketing, telemetry) plus a transport
that carries :class:`~repro.cluster.loop.Op`\\ s to it and answers back.  Here:
what both kinds share — :class:`ShardFront` and the shard error types — and
the in-process transport, :class:`ShardWorker`: ops ride a ``queue.Queue``, a
thread runs the loop over it, and a predict is answered by resolving its
:class:`~concurrent.futures.Future`.  The out-of-process transport is
:mod:`repro.cluster.procworker`.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Dict, Optional, Tuple

from ..errors import UnavailableError
from ..serve.types import PredictRequest
from .loop import Op, ShardLoop
from .telemetry import LatencyHistogram, ShardTelemetry

__all__ = ["ShardWorker", "ShardFront", "ShardOverloadError", "ShardKilledError"]

#: Default wait (seconds) for a synchronous control op.  Generous — a loaded
#: shard answers control ops only between dispatches.
RPC_TIMEOUT_S = 30.0


class ShardOverloadError(UnavailableError):
    """A shard's bound on pending requests is reached — the 503 of the runtime.

    An :class:`~repro.errors.UnavailableError` (code ``UNAVAILABLE``, still a
    ``RuntimeError`` for pre-gateway callers): overload is transient, so the
    gateway's retry middleware may re-attempt it.
    """

    status = 503


class ShardKilledError(UnavailableError):
    """The shard was killed abruptly (fault injection / crash simulation).

    Raised into every future the dead shard can no longer answer, and by
    ``submit`` for traffic that keeps arriving afterwards — a clean,
    immediate error instead of a hang.  Surfaces as code ``UNAVAILABLE``
    through the gateway (and stays a ``RuntimeError``).
    """

    status = 500


class ShardFront:
    """What a shard worker is to the frontend, whichever kind it is.

    Admission, the control ops, lifecycle and reporting are written once,
    over five things a transport supplies: ``_post(op)`` (hand one op to the
    loop, or raise the down-error), ``is_alive()``, ``_sever()`` (cut the
    loop off abruptly), ``_reap(timeout)`` (join it and fail what it left
    unanswered) and ``_look()`` (the loop's stats body + latency histogram).
    """

    def __init__(self, shard_id, max_pending: int, poll_interval_s: float, telemetry) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be > 0, got {poll_interval_s}")
        self.shard_id = shard_id
        self.max_pending = max_pending
        self.poll_interval_s = poll_interval_s
        #: Where refusals are counted.  The thread worker shares its loop's
        #: telemetry; a process worker's loop lives in the child, which a
        #: refused submit never reaches, so the parent keeps its own.
        self.telemetry: ShardTelemetry = telemetry
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._chaos_delay_s = 0.0
        self._stopping = threading.Event()
        self._killed = threading.Event()

    def _serving(self) -> bool:
        return not self._stopping.is_set()

    def _down_error(self) -> UnavailableError:
        """The error a dead shard answers with (kill vs orderly shutdown)."""
        if self._killed.is_set():
            return ShardKilledError(f"shard {self.shard_id!r} was killed")
        return UnavailableError(f"shard {self.shard_id!r} is shut down")

    # -- submission (frontend threads) ----------------------------------------
    def submit(self, request: PredictRequest) -> Future:
        """Hand one request to the shard; returns the future of its response.

        Admission bounds the shard's *pending predicts* — admitted and not yet
        answered, wherever they are: queued, held in a window or being
        computed.  At the bound this raises :class:`ShardOverloadError` (the
        frontend turns it into a 503 rejection) and counts the refusal, here
        and nowhere else.  A killed / shut-down shard raises
        :class:`ShardKilledError` / ``UnavailableError``.

        The same count, read as this request joins it, is the request's
        stamp (:attr:`Op.admitted <repro.cluster.loop.Op.admitted>`): how
        many predicts the loop may expect before it stops waiting for more.
        Posting happens outside the lock, so stamps can reach the loop out
        of order; the loop goes by the largest it holds.
        """
        if not self._serving():
            raise self._down_error()
        with self._pending_lock:
            full = self._pending >= self.max_pending
            if not full:
                self._pending += 1
            admitted = self._pending
        if full:
            self.telemetry.record_reject()
            raise ShardOverloadError(
                f"shard {self.shard_id!r} queue full ({self.max_pending} pending)"
            )
        future: Future = Future()
        answer = partial(self._settle, future.set_result)
        fail = partial(self._settle, future.set_exception)
        try:
            self._post(Op("predict", None, answer, fail, request, time.monotonic(), admitted))
        except RuntimeError as exc:
            fail(exc)  # un-counts it
            raise
        return future

    def _settle(self, resolve, outcome) -> None:
        # Un-count BEFORE resolving: the caller a resolved future wakes may
        # submit again at once and must find its slot free.
        with self._pending_lock:
            self._pending -= 1
        resolve(outcome)

    def pending(self) -> int:
        """Predicts admitted and not yet answered."""
        return self._pending

    # -- control ops -------------------------------------------------------------
    def _call(self, kind: str, args: Optional[Dict] = None, timeout=RPC_TIMEOUT_S):
        """Post one control op and wait for its answer."""
        done: Future = Future()
        self._post(Op(kind, args, done.set_result, done.set_exception))
        return done.result(timeout)

    def _notify(self, kind: str, args: Dict) -> None:
        """Post one control op nobody waits on."""
        if self._serving():
            try:
                self._post(Op(kind, args))
            except RuntimeError:
                pass  # racing a kill/stop; what is in flight gets failed

    def begin_window(self) -> None:
        """Start holding predicts until the matching :meth:`end_window`."""
        self._notify("window", {"action": "begin"})

    def end_window(self) -> None:
        """Close the bracket: the held burst is dispatched as one flush."""
        self._notify("window", {"action": "end"})

    @property
    def chaos_delay_s(self) -> float:
        """Fault-injection knob: seconds the loop sleeps before every dispatch
        (assignment posts a ``chaos`` op, so it applies in queue order)."""
        return self._chaos_delay_s

    @chaos_delay_s.setter
    def chaos_delay_s(self, delay_s: float) -> None:
        self._chaos_delay_s = float(delay_s)
        self._notify("chaos", {"delay_s": self._chaos_delay_s})

    # -- lifecycle -------------------------------------------------------------
    def drain(self) -> None:
        """Block until every request submitted so far has been answered.

        A ``drain`` op queues behind them (FIFO); its answer is the proof.
        """
        if self.is_alive():
            try:
                self._call("drain", timeout=None)
            except RuntimeError:
                pass  # raced a kill/stop; the stranded futures were failed

    def kill(self, timeout: Optional[float] = None) -> None:
        """Abrupt chaos stop: no drain, no final flush — the crash simulation.

        Every request the shard can no longer answer (in hand, queued, or
        arriving afterwards) fails with :class:`ShardKilledError` instead of
        hanging.  The dead shard keeps its ring ownership until the frontend
        heals the fleet (``ClusterService.remove_shard``), so mid-outage
        traffic for its tenants fails fast rather than silently rerouting —
        exactly what a crashed replica looks like to a router that has not
        yet noticed.  Idempotent; safe on a never-started worker.
        """
        self._killed.set()
        self._stopping.set()
        self._sever()
        self._reap(timeout)

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful stop: answer everything already submitted, then join.

        The ``stop`` op queues behind every earlier op (FIFO), so queued work
        is answered regardless of ``drain``.  Idempotent; safe on a
        never-started worker.  Requests that slip in concurrently with
        shutdown have their futures failed rather than leaked.
        """
        serving = self._serving() and self.is_alive()
        self._stopping.set()
        if serving:
            try:
                self._call("stop", timeout=timeout if timeout is not None else RPC_TIMEOUT_S)
            except (RuntimeError, TimeoutError):
                pass  # the loop died mid-shutdown; _reap fails the rest
        self._reap(timeout)

    # -- reporting -------------------------------------------------------------
    def report(self) -> Tuple[Dict, LatencyHistogram]:
        """``(stats, latency histogram)`` from one look at the shard."""
        body, latency = self._look()
        stats = {
            "shard": self.shard_id,
            "max_pending": self.max_pending,
            **body,
            "pending": self.pending(),
            # Refusals happen at the front; a loop never sees them.
            "telemetry": dict(body["telemetry"], rejected=self.telemetry.rejected),
        }
        return stats, latency

    def stats(self) -> Dict:
        """This shard's full report: queue, cache, scheduler, telemetry."""
        return self.report()[0]


class ShardWorker(ShardFront, threading.Thread):
    """One serving shard on a thread: queue of ops → shard loop → futures.

    The worker is created *unstarted* (call :meth:`start`, as
    :class:`~repro.cluster.frontend.ClusterService` does) so tests and
    benchmarks can stage a queue deterministically before serving begins;
    staged work that is never started is failed by :meth:`stop`.
    """

    def __init__(
        self,
        shard_id,
        registry,
        cache_capacity: int = 4,
        max_batch_size: Optional[int] = None,
        max_pending: int = 256,
        flush_interval_s: float = 0.002,
        poll_interval_s: float = 0.05,
        telemetry: Optional[ShardTelemetry] = None,
    ) -> None:
        threading.Thread.__init__(self, name=f"repro-shard-{shard_id}", daemon=True)
        self.loop = ShardLoop(
            shard_id, registry, cache_capacity, max_batch_size,
            max_batch_requests=max_batch_size or max_pending,
            flush_interval_s=flush_interval_s, telemetry=telemetry,
        )
        ShardFront.__init__(self, shard_id, max_pending, poll_interval_s, self.loop.telemetry)
        self.cache = self.loop.cache
        self._queue: "queue.Queue[Op]" = queue.Queue()
        # An engine object cannot usefully ride a queue, so the cache
        # accessors are the loop's own handlers, which take its lock: safe to
        # call while the worker is live.
        self.engine = self.loop.engine
        self.evict = self.loop.evict
        self.put_engine = self.loop.put_engine

    # -- the transport: the worker is its loop's inbox ---------------------------
    def run(self) -> None:
        self.loop.run(self)

    def get(self, timeout: Optional[float]) -> Optional[Op]:
        # An idle loop wakes every poll interval so a kill() is noticed.
        try:
            return self._queue.get(timeout=self.poll_interval_s if timeout is None else timeout)
        except queue.Empty:
            return None

    def depth(self) -> int:
        return self._queue.qsize()

    def _post(self, op: Op) -> None:
        self._queue.put(op)
        if self._stopping.is_set() and self.ident is not None and not self.is_alive():
            # Lost the race with stop()/kill(): the loop may already have
            # exited, so nothing would ever answer this op.
            self._fail_stranded()

    def _fail_stranded(self) -> None:
        """Fail whatever is left in a dead worker's queue.

        Only called once the loop is known to have exited (or for a
        never-started worker at stop time), so nothing else consumes.
        """
        stranded = []
        while True:
            try:
                stranded.append(self._queue.get_nowait())
            except queue.Empty:
                break
        self.loop.fail(stranded, self._down_error())

    def _sever(self) -> None:
        self.loop.kill(self._down_error())

    def _reap(self, timeout: Optional[float]) -> None:
        if self.is_alive():
            self.join(timeout=timeout if timeout is not None else 2 * self.poll_interval_s + 5.0)
        if not self.is_alive():
            self._fail_stranded()

    def _look(self) -> Tuple[Dict, LatencyHistogram]:
        return self.loop.stats(), self.telemetry.merged_latency()
