"""Process shard worker: a :class:`~repro.cluster.loop.ShardLoop` in a child.

A :class:`ProcessShardWorker` is the out-of-process transport of the shard
loop: the loop (documented in :mod:`repro.cluster.loop`) runs in a
``multiprocessing`` child, so shards on a multi-core host truly compute in
parallel instead of interleaving under one interpreter lock.  This module is
only what crosses the process boundary, and how:

* **Weights never do.**  The parent's
  :class:`~repro.shm.SharedWeightStore` copies each model's tenant image
  (the bytes ``ModelRegistry.save`` writes) into a named shared-memory
  segment; the child maps it zero-copy through a
  :class:`~repro.shm.SharedModelSource` plugged in where the thread worker's
  loop holds the registry.  The control channel carries only install
  entries (``model_id``, segment name, version).
* **Ops ride the gateway's wire envelopes.**  Every parent→child frame is an
  :class:`~repro.gateway.wire.ApiRequest` the child turns into an
  :class:`~repro.cluster.loop.Op`, and every answer an
  :class:`~repro.gateway.wire.ApiResponse` over a duplex pipe — the same
  byte-stable JSON the cluster already speaks externally, reused as its
  internal RPC, with typed :class:`~repro.errors.ApiError`\\ s surviving the
  hop.  Inputs down, logits up and the ``stats`` frame's latency reservoir
  all cross as packed arrays (:func:`repro.records.pack`: base64 of the raw
  little-endian buffer, bit-exact), re-encoded at this hop by the same
  ``to_dict`` / ``to_wire`` seams the gateway uses — nothing is passed
  through pre-encoded.  A per-worker reply-pump thread matches replies to
  frame ids and resolves the caller's futures.

The pipe is FIFO and the loop serves ops in order, so an ``install`` sent
before a ``predict`` is visible to it, a ``drain`` reply proves every earlier
predict was answered, and the ``stop`` acknowledgement doubles as the final
stats.  A SIGKILLed child drops the pipe; the pump thread sees EOF and fails
every in-flight future with :class:`~repro.cluster.shard.ShardKilledError` —
no hangs, same failure surface as a killed thread worker.
"""

from __future__ import annotations

import base64
import multiprocessing
import os
import pickle
import threading
from collections import deque
from concurrent.futures import Future
from multiprocessing import resource_tracker
from typing import Deque, Dict, Optional, Tuple

from ..errors import UnavailableError, error_from_exception
from ..gateway.wire import ApiRequest, ApiResponse
from ..serve.types import PredictRequest, PredictResponse
from ..trace import Trace
from ..shm import SharedModelSource, SharedWeightStore
from .loop import Op, ShardLoop
from .shard import RPC_TIMEOUT_S, ShardFront
from .telemetry import LatencyHistogram, ShardTelemetry

__all__ = ["ProcessShardWorker", "start_method", "mp_context"]

#: Environment override for the multiprocessing start method.
_START_ENV = "REPRO_MP_START"


def start_method() -> str:
    """The start method process workers use (env-overridable).

    ``fork`` when the platform offers it — child setup is milliseconds and
    the attached segments' tracker accounting stays with the parent —
    otherwise the platform default (``spawn`` on macOS/Windows).  Override
    with ``REPRO_MP_START=spawn|forkserver|fork``.
    """
    override = os.environ.get(_START_ENV)
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def mp_context():
    """The multiprocessing context matching :func:`start_method`."""
    return multiprocessing.get_context(start_method())


# ---------------------------------------------------------------------------
# Child process
# ---------------------------------------------------------------------------

def _wire_stats(loop: ShardLoop, stats: Dict) -> Dict:
    """``loop.stats()`` plus the raw latency reservoir, as the child ships it.

    Percentiles cannot be merged from summaries; the parent's lossless
    cluster merge needs the samples themselves.
    """
    return dict(stats, latency_reservoir=loop.telemetry.latency.to_wire())


class _PipeInbox:
    """The child's inbox: wire frames off the pipe, decoded into ops whose
    answers go back as frames."""

    def __init__(self, conn, loop: ShardLoop) -> None:
        self.conn = conn
        self.loop = loop
        self._ready: Deque[Op] = deque()

    def get(self, timeout: Optional[float]) -> Optional[Op]:
        if not self._ready and self.conn.poll(timeout):
            self._read()
        return self._ready.popleft() if self._ready else None

    def depth(self) -> int:
        while self.conn.poll(0) and self._read():
            pass
        return len(self._ready)

    def _read(self) -> bool:
        try:
            frame = ApiRequest.from_json(self.conn.recv_bytes().decode("utf-8"))
        except (EOFError, OSError):
            self.loop.kill(UnavailableError("parent process is gone"))
            return False
        try:
            self._ready.append(self._op(frame))
        except Exception as exc:  # undecodable payload: answer, keep serving
            self._send(ApiResponse.failure(frame, error_from_exception(exc)))
        return True

    def _send(self, response: ApiResponse) -> None:
        try:
            self.conn.send_bytes(response.to_json().encode("utf-8"))
        except (BrokenPipeError, OSError):  # parent gone; nothing to answer
            pass

    def _op(self, frame: ApiRequest) -> Op:
        def fail(exc: BaseException) -> None:
            self._send(ApiResponse.failure(frame, error_from_exception(exc)))

        method, payload = frame.method, frame.payload
        if method == "predict":
            request = PredictRequest.from_dict(payload["request"])
            if payload.get("trace"):
                # The parent flagged this frame as traced: a child-local
                # Trace collects the shard and engine spans, which ride back
                # inside the reply payload.
                request.trace = Trace()

            def answer(response: PredictResponse) -> None:
                reply = response.to_dict()
                if request.trace is not None:
                    reply["trace"] = request.trace.to_wire()
                self._send(ApiResponse.success(frame, reply))

            return Op(method, None, answer, fail, request, payload["enqueued_monotonic"],
                      payload.get("admitted", 0))  # a frame without it: unknown

        if method == "put_engine":
            payload = dict(payload, engine=pickle.loads(base64.b64decode(payload["engine"])))

        def reply(result: Dict) -> None:
            if method in ("stats", "stop"):
                result = _wire_stats(self.loop, result)
            self._send(ApiResponse.success(frame, result))

        return Op(method, payload, reply, fail)


def _worker_main(conn, shard_id, cfg: Dict) -> None:
    """Child entry point: run a shard loop over the pipe, from shared weights.

    Module-level (not a closure) so every start method can import it.
    """
    source = SharedModelSource(untrack=cfg.pop("untrack"))
    loop = ShardLoop(shard_id, source, **cfg)
    loop.run(_PipeInbox(conn, loop))
    source.close()
    conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _payload(op: Op) -> Dict:
    """The wire payload of one op (what :meth:`_PipeInbox._op` decodes).

    A predict is its request plus what the child's loop needs of the
    parent's :class:`~repro.cluster.loop.Op`: ``enqueued_monotonic`` (when it
    was submitted) and ``admitted`` (its stamp, so the child batches by the
    same number a thread worker's loop would see).
    """
    if op.kind != "predict":
        return op.args or {}
    payload = {"request": op.request.to_dict(), "enqueued_monotonic": op.enqueued_at,
               "admitted": op.admitted}
    if op.request.trace is not None:
        payload["trace"] = True
    return payload


class ProcessShardWorker(ShardFront):
    """One serving shard in its own process, driven over wire envelopes.

    Drop-in for :class:`~repro.cluster.shard.ShardWorker` from the
    frontend's point of view; constructed against a
    :class:`~repro.shm.SharedWeightStore` instead of the registry (the
    registry stays authoritative in the parent — the child only ever sees
    published tenant images).  Unlike the thread worker it cannot stage work
    before :meth:`start`: there is no child to send it to.
    """

    def __init__(
        self,
        shard_id,
        store: SharedWeightStore,
        cache_capacity: int = 4,
        max_batch_size: Optional[int] = None,
        max_pending: int = 256,
        flush_interval_s: float = 0.002,
        poll_interval_s: float = 0.05,
        telemetry: Optional[ShardTelemetry] = None,
    ) -> None:
        super().__init__(
            shard_id, max_pending, poll_interval_s, telemetry or ShardTelemetry(shard_id)
        )
        self.store = store
        #: What the child builds its loop from.  A loop built from the same
        #: arguments here stands in for a child that never ran, so the
        #: fallback stats cannot drift from the live shape.
        self._loop_args = {
            "cache_capacity": cache_capacity,
            "max_batch_size": max_batch_size,
            "max_batch_requests": max_batch_size or max_pending,
            "flush_interval_s": flush_interval_s,
        }
        unborn = ShardLoop(shard_id, None, **self._loop_args)
        #: The last stats the child reported (the stop acknowledgement
        #: carries the final ones), kept for a child that is gone.
        self._last_child_stats: Dict = _wire_stats(unborn, unborn.stats())

        self._process = None
        self._pump: Optional[threading.Thread] = None
        self._conn = None  # parent end of the duplex pipe
        self._lock = threading.Lock()  # inflight table + frame ids + send
        self._inflight: Dict[str, Op] = {}
        self._next_frame = 0
        self._installed: Dict[str, int] = {}
        self._engines: Dict[str, object] = {}  # parent-side engine() cache
        self._released = True  # no store ref held until start()

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Fork/spawn the child and start the reply pump (idempotent)."""
        if self._process is not None:
            return
        self.store.acquire()
        self._released = False
        # Spawn the parent's resource tracker *before* forking: fork children
        # then inherit it, so their segment attachments register into the
        # parent's (deduplicating) tracker instead of spawning per-child
        # trackers that would unlink live segments when the child exits.
        resource_tracker.ensure_running()
        ctx = mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        cfg = dict(self._loop_args, untrack=start_method() == "spawn")
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.shard_id, cfg),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._process.start()
        # The parent must drop its copy of the child end, or a dead child
        # never produces EOF on this side of the pipe.
        child_conn.close()
        self._conn = parent_conn
        self._pump = threading.Thread(
            target=self._pump_replies, name=f"repro-shard-{self.shard_id}-pump", daemon=True
        )
        self._pump.start()

    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def _serving(self) -> bool:
        return self.is_alive() and not self._stopping.is_set()

    # -- the transport: frames out, a reply pump in -------------------------------
    def _post(self, op: Op) -> None:
        """Register ``op`` in the inflight table and put its frame on the pipe.

        Raises the shard's down-error if the worker is not accepting frames;
        otherwise the pump answers or fails the op when the reply arrives.
        """
        with self._lock:
            if self._conn is None or self._killed.is_set():
                raise self._down_error()
            frame_id = f"f-{self._next_frame:08d}"
            self._next_frame += 1
            self._inflight[frame_id] = op
            envelope = ApiRequest(method=op.kind, payload=_payload(op), request_id=frame_id)
            try:
                self._conn.send_bytes(envelope.to_json().encode("utf-8"))
            except (BrokenPipeError, OSError):
                del self._inflight[frame_id]
                raise self._down_error() from None

    def _resolve(self, op: Op, response: Optional[ApiResponse]) -> None:
        """Settle one inflight op; ``None`` means the shard went down."""
        if response is None:
            op.fail(self._down_error())
        elif not response.ok:
            op.fail(response.to_error())
        elif op.kind != "predict":
            if op.kind in ("stats", "stop"):
                self._last_child_stats = response.payload
            op.answer(response.payload)
        else:
            spans = response.payload.pop("trace", None)
            result = PredictResponse.from_dict(response.payload)
            trace = op.request.trace
            if trace is not None:
                # Merge child spans BEFORE resolving: set_result wakes the
                # waiting caller first, and it reads the trace immediately
                # after future.result() returns.
                trace.extend_wire(spans or ())
                result.trace = trace
            op.answer(result)

    def _pump_replies(self) -> None:
        """Reply pump: decode envelopes off the pipe and settle their ops.

        Exits on EOF (child stopped or SIGKILLed) and fails everything still
        in flight — the no-hangs guarantee of the process path.
        """
        conn = self._conn
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                response = ApiResponse.from_json(raw.decode("utf-8"))
            except Exception:  # pragma: no cover - malformed child frame
                continue
            with self._lock:
                op = self._inflight.pop(response.request_id, None)
            if op is not None:
                self._resolve(op, response)
        self._fail_inflight()

    def _fail_inflight(self) -> None:
        """Fail every outstanding op with the shard's down-error."""
        with self._lock:
            stranded, self._inflight = list(self._inflight.values()), {}
        for op in stranded:
            self._resolve(op, None)

    # -- submission (frontend threads) -----------------------------------------
    def submit(self, request: PredictRequest) -> Future:
        """:meth:`ShardFront.submit`, after making sure the child has the model.

        The weights are published/installed on first use (and re-installed
        when re-personalization bumped the published version) *before* the
        predict frame — FIFO makes the order a guarantee.
        """
        if self._serving():
            self._ensure_installed(request.model_id)
        return super().submit(request)

    def _ensure_installed(self, model_id: str) -> None:
        """Publish + install the model's current weights if the child lacks them."""
        entry, version = self.store.ensure(model_id)
        with self._lock:
            if self._installed.get(model_id) == version:
                return
            self._installed[model_id] = version
            self._engines.pop(model_id, None)  # parent view refreshes too
        self._post(Op("install", {"entry": entry}))

    # -- frontend-side accessors ----------------------------------------------
    def engine(self, model_id: str):
        """A parent-side engine over the same shared bytes the child serves.

        The thread worker hands out its cache's engine; a child process's
        object cannot cross the pipe, so this maps the published segments in
        the parent — byte-identical weights, same formats, usable for
        hardware-model workload extraction.
        """
        self._ensure_installed(model_id)
        with self._lock:
            engine = self._engines.get(model_id)
        if engine is None:
            engine = self.store.build_engine(model_id)
            with self._lock:
                self._engines[model_id] = engine
        return engine

    def evict(self, model_id: str) -> bool:
        """Drop the tenant's engine child-side (and the parent mirror)."""
        with self._lock:
            self._engines.pop(model_id, None)
            self._installed.pop(model_id, None)
        if not self.is_alive():
            return False
        try:
            return bool(self._call("evict", {"model_id": model_id})["evicted"])
        except (RuntimeError, TimeoutError):
            return False

    def put_engine(self, model_id: str, engine) -> None:
        """Plant an engine in the child's cache (chaos/testing seam).

        The engine must be picklable — true for the fault injector's
        :class:`~repro.loadgen.faults.PoisonedEngine`; real attached engines
        are deliberately not, which keeps the zero-copy weight path the only
        way live weights reach a child.
        """
        encoded = base64.b64encode(pickle.dumps(engine)).decode("ascii")
        self._call("put_engine", {"model_id": model_id, "engine": encoded})

    # -- lifecycle -------------------------------------------------------------
    def _sever(self) -> None:
        # SIGKILL: the dropped pipe EOFs the reply pump, which fails every
        # outstanding future with ShardKilledError.
        if self._process is not None:
            self._process.kill()

    def _reap(self, timeout: Optional[float]) -> None:
        """Join child and pump, fail what is left in flight, drop the store ref."""
        process = self._process
        if process is not None:
            process.join(timeout if timeout is not None else RPC_TIMEOUT_S)
            if process.is_alive():  # pragma: no cover - unresponsive child
                process.kill()
                process.join(5.0)
        if self._pump is not None:
            self._pump.join(timeout=5.0)
        self._fail_inflight()
        if not self._released:
            self._released = True
            self.store.release()

    def _look(self) -> Tuple[Dict, LatencyHistogram]:
        """The child's stats from ONE ``stats`` frame; a child that is gone
        reports the last ones it sent (the stop acknowledgement, normally)."""
        if self._serving():
            try:
                self._call("stats")  # the pump keeps the reply
            except (RuntimeError, TimeoutError):
                pass
        body = dict(self._last_child_stats)
        return body, LatencyHistogram.from_wire(body.pop("latency_reservoir"))
