"""Outside-in span tracing, used only by traced runs.

A :class:`Tracer` wraps public callables of the program at run time — class
attributes, module attributes, a backend singleton's methods — records one
span per call, and restores every attribute on :meth:`Tracer.restore`.  A span
is ``(sid, name, start, end, parent, rids, thread)``: the parent comes from a
per-thread stack, and a span that starts a thread's stack (a shard thread, an
HTTP server thread) is joined to the caller's tree through the request ids
both sides saw.  Spans stay in memory until the run ends.

The analysis half is pure: :class:`Forest` resolves parents and
:func:`self_time` subtracts the union of child intervals; ``layers.py`` turns
the trees into the per-layer numbers.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .measure import clock

_MISSING = object()


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  #: sid of the enclosing span on the same thread, or -1
    rids: Tuple[str, ...]  #: request ids seen at this call (may be empty)
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wrap callables, collect spans, restore on exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        #: request ids a scheduler has accepted since its last flush.
        self._pending: Dict[int, List[str]] = defaultdict(list)

    # -- recording -------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        rids: Optional[Callable[..., Sequence[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class (plain methods and classmethods), a module or an
        instance.  ``rids(result, *args, **kwargs)`` names the request ids the
        call carries; it runs after the call, off the span's clock.
        """
        raw = vars(owner).get(attr, _MISSING)
        target = raw if callable(raw) and isinstance(owner, type) else getattr(owner, attr)
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                seen = tuple(rids(result, *args, **kwargs)) if rids else ()
                spans.append(Span(sid, name, start, end, parent, seen, threading.get_ident()))

        replacement = staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put back every wrapped attribute (safe to call twice)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- what gets wrapped -----------------------------------------------------
    def install_write_path(self) -> None:
        """Personalization: service, loaders, pruning steps, training, registry."""
        import repro.pruning.crisp as crisp
        import repro.serve.service as service
        from repro.nn.trainer import Trainer
        from repro.serve import ModelRegistry, PersonalizationService

        self.wrap(PersonalizationService, "personalize", "serve.personalize")
        self.wrap(service, "build_user_loaders", "data.build_user_loaders")
        self.wrap(service, "crisp_prune", "pruning.crisp_prune")
        self.wrap(crisp, "class_aware_saliency", "pruning.saliency")
        self.wrap(crisp, "nm_mask", "pruning.nm_mask")
        self.wrap(crisp, "block_scores", "pruning.block_scores")
        self.wrap(crisp, "ste_finetune", "pruning.ste_finetune")
        self.wrap(Trainer, "fit", "nn.trainer_fit")
        self.wrap(ModelRegistry, "register", "serve.register")

    def install_read_path(self, client) -> None:
        """Serving: client, transport, gateway, backend, scheduler, cache, engine, kernels."""
        from repro.backend import Engine, get_backend
        from repro.gateway import ClusterBackend, Gateway, GatewayClient
        from repro.serve import BatchScheduler, EngineCache, ModelRegistry
        from repro.sparsity.formats import CRISPFormat

        def of_kwarg(result, *args, **kwargs):
            rid = kwargs.get("request_id")
            return (rid,) if rid else ()

        def of_predicts(requests) -> Tuple[str, ...]:
            return tuple(
                rid for rid in (
                    r.get("request_id") if isinstance(r, dict) else r.request_id
                    for r in requests
                ) if rid
            )

        def of_envelope(result, _self, request, *args, **kwargs):
            if request.request_id:
                return (request.request_id,)
            return of_predicts(request.payload.get("requests", ()))

        self.wrap(GatewayClient, "predict", "client.predict", of_kwarg)
        self.wrap(GatewayClient, "predict_batch", "client.predict_batch",
                  lambda result, _self, requests, *a, **k: of_predicts(requests))
        self.wrap(GatewayClient, "personalize", "client.personalize")
        self.wrap(type(client.transport), "send", "transport.send", of_envelope)
        self.wrap(Gateway, "handle", "gateway.handle", of_envelope)
        self.wrap(ClusterBackend, "personalize", "cluster.personalize")
        self.wrap(ClusterBackend, "predict", "cluster.predict",
                  lambda result, _self, request, *a, **k: of_predicts([request]))
        self.wrap(ClusterBackend, "predict_batch", "cluster.predict_batch",
                  lambda result, _self, requests, *a, **k: of_predicts(requests))

        pending = self._pending

        def of_submit(result, scheduler, request, *args, **kwargs):
            # The scheduler has assigned the id by the time submit returns.
            pending[id(scheduler)].append(request.request_id)
            return (request.request_id,)

        self.wrap(BatchScheduler, "submit", "scheduler.submit", of_submit)
        self.wrap(BatchScheduler, "flush", "scheduler.flush",
                  lambda result, scheduler, *a, **k: pending.pop(id(scheduler), ()))
        self.wrap(EngineCache, "get", "cache.get")
        self.wrap(ModelRegistry, "build_engine", "registry.build_engine")
        self.wrap(Engine, "predict_many", "engine.predict_many")
        self.wrap(CRISPFormat, "from_dense", "format.from_dense")
        fast = get_backend("fast")
        self.wrap(fast, "im2col", "kernel.im2col")
        self.wrap(fast, "sparse_matmul", "kernel.sparse_matmul")

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "sid": span.sid, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "rids": list(span.rids),
                    "thread": span.thread,
                }) + "\n")


# ---------------------------------------------------------------------------
# Analysis (pure functions over a list of spans)
# ---------------------------------------------------------------------------


class Forest:
    """Spans with resolved parents: same-thread nesting plus cross-thread joins."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: Dict[int, Span] = {s.sid: s for s in spans}
        self.parent: Dict[int, int] = {}
        self.children: Dict[int, List[Span]] = defaultdict(list)
        by_rid: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans.values():
            for rid in span.rids:
                by_rid[rid].append(span)
        for span in self.spans.values():
            parent = span.parent if span.parent in self.spans else -1
            if parent == -1 and span.rids:
                parent = self._adopt(span, by_rid)
            self.parent[span.sid] = parent
            if parent != -1:
                self.children[parent].append(span)
        self.roots = [s for s in self.spans.values() if self.parent[s.sid] == -1]

    @staticmethod
    def _adopt(span: Span, by_rid: Dict[str, List[Span]]) -> int:
        """The innermost span of another thread that saw one of ``span``'s ids
        and was open when ``span`` started."""
        best: Optional[Span] = None
        for candidate in by_rid[span.rids[0]]:
            if candidate.thread == span.thread:
                continue
            if candidate.start <= span.start <= candidate.end:
                if best is None or candidate.start > best.start:
                    best = candidate
        return best.sid if best is not None else -1

    def descendants(self, span: Span) -> List[Span]:
        out: List[Span] = []
        frontier = [span]
        while frontier:
            kids = self.children.get(frontier.pop().sid, ())
            out.extend(kids)
            frontier.extend(kids)
        return out

    def self_time(self, span: Span) -> float:
        return self_time(span, self.children.get(span.sid, ()))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans.values() if s.name == name]

    def inside(self, span: Span, name: str) -> List[Span]:
        return [s for s in self.descendants(span) if s.name == name]


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals.

    Children are clipped to the span, and overlapping children (parallel shard
    threads answering one envelope) are counted once.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def coverage(forest: Forest, roots: Iterable[Span]) -> List[float]:
    """Per root: descendant self time over root duration."""
    out = []
    for root in roots:
        if root.duration <= 0:
            continue
        below = sum(forest.self_time(s) for s in forest.descendants(root))
        out.append(below / root.duration)
    return out
