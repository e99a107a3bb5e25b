"""Versioned traffic rollout: deterministic split/shadow between engine versions.

The rollout plane answers one question per predict request: *which version
of the tenant's model serves it?*  With no rollout in flight the answer is
the registry's active version.  During a canary, a :class:`RolloutTable`
entry splits the tenant's traffic by a seeded hash of the request id —

    sha256(f"{seed}|{tenant}|{request_id}") -> uniform in [0, 1) < fraction

— so the assignment is a pure function of (seed, tenant, request id):
byte-stable across runs, machines, and replay order, with no per-request
rng state to corrupt.  ``shadow`` mode serves every request from the stable
version and *duplicates* it to the canary, discarding the shadow response —
the canary warms and gets scored without a single user-visible byte changing.

:class:`RolloutMiddleware` is a stock gateway :class:`~repro.gateway.Middleware`
(pass it via ``Gateway(middlewares=[...])``); it rewrites
``payload["model_id"]`` before the router dispatches, so every backend —
local or cluster — gets versioned rollout for free.  All table
mutations and decisions share one lock: once :meth:`RolloutTable.clear`
(rollback) returns, no later decision can route to the abandoned canary.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..gateway.middleware import Middleware
from ..metrics.events import emit
from ..records import Record, RecordLog

__all__ = [
    "ROLLOUT_MODES",
    "split_arm",
    "RolloutEntry",
    "RolloutDecision",
    "RolloutTable",
    "RolloutMiddleware",
]

ROLLOUT_MODES = ("split", "shadow")

#: Denominator of the hash -> [0, 1) map (first 8 digest bytes).
_HASH_SPAN = float(2 ** 64)


def split_arm(seed: int, tenant: str, request_id: Optional[str], fraction: float) -> str:
    """``"canary"`` or ``"stable"`` — a pure function of its arguments."""
    payload = f"{seed}|{tenant}|{request_id or ''}".encode()
    bucket = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") / _HASH_SPAN
    return "canary" if bucket < fraction else "stable"


@dataclass(frozen=True)
class RolloutEntry(Record):
    """One in-flight rollout: which versions, how much traffic, which mode."""

    tenant: str
    stable: str  #: version id serving the non-canary share
    canary: str  #: version id under evaluation
    fraction: float  #: share of traffic routed (split) / duplicated (shadow)
    mode: str = "split"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ROLLOUT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {ROLLOUT_MODES}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class RolloutDecision(Record):
    """One routed request: the audit record of a single split decision."""

    seq: int
    tenant: str
    request_id: Optional[str]
    arm: str  #: "stable" | "canary" (the serving arm; shadow serves stable)
    serve: str  #: version id that served the request
    shadow: Optional[str]  #: version id duplicated to, shadow mode only
    mode: str
    fraction: float


class RolloutTable:
    """Thread-safe per-tenant rollout state + a
    :class:`~repro.records.RecordLog` of decisions.

    One lock covers entry mutation *and* decision making, which is what
    makes :meth:`clear` (rollback) atomic under concurrent requests: a
    decision is either fully made against the old table or fully made
    against the new one — after ``clear`` returns, every subsequent
    decision for the tenant routes to the stable version.
    """

    def __init__(self, log_decisions: bool = True) -> None:
        self._entries: Dict[str, RolloutEntry] = {}
        self._lock = threading.Lock()
        self.log_decisions = log_decisions
        # Unlogged tables still number their decisions: a zero-capacity log.
        self._log: RecordLog[RolloutDecision] = RecordLog(
            capacity=None if log_decisions else 0
        )

    # -- table mutation -------------------------------------------------------
    def start(
        self,
        tenant: str,
        stable: str,
        canary: str,
        fraction: float,
        mode: str = "split",
        seed: int = 0,
    ) -> RolloutEntry:
        """Begin a rollout for ``tenant`` (replacing any existing entry)."""
        entry = RolloutEntry(
            tenant=tenant, stable=stable, canary=canary,
            fraction=float(fraction), mode=mode, seed=int(seed),
        )
        with self._lock:
            self._entries[tenant] = entry
        emit("rollout", action="start", **entry.to_dict())
        return entry

    def finish(self, tenant: str) -> Optional[RolloutEntry]:
        """End the rollout after promotion (all traffic to the new active)."""
        with self._lock:
            entry = self._entries.pop(tenant, None)
        if entry is not None:
            emit("rollout", action="finish", **entry.to_dict())
        return entry

    def clear(self, tenant: str) -> Optional[RolloutEntry]:
        """Rollback: drop the entry; all subsequent traffic serves stable."""
        with self._lock:
            entry = self._entries.pop(tenant, None)
        if entry is not None:
            emit("rollout", action="rollback", **entry.to_dict())
        return entry

    def entry(self, tenant: str) -> Optional[RolloutEntry]:
        with self._lock:
            return self._entries.get(tenant)

    @property
    def seq(self) -> int:
        """Decisions made so far (the next decision's sequence number)."""
        return self._log.appended

    @property
    def decisions(self) -> List[RolloutDecision]:
        return self._log.records()

    # -- decisions ------------------------------------------------------------
    def decide(self, tenant: str, request_id: Optional[str]) -> Optional[RolloutDecision]:
        """Route one request; ``None`` when no rollout is in flight."""
        with self._lock:
            entry = self._entries.get(tenant)
            if entry is None:
                return None
            arm = split_arm(entry.seed, tenant, request_id, entry.fraction)
            if entry.mode == "shadow":
                serve, shadow = entry.stable, (
                    entry.canary if arm == "canary" else None
                )
                arm = "stable"
            else:
                serve = entry.canary if arm == "canary" else entry.stable
                shadow = None
            return self._log.append(
                lambda seq: RolloutDecision(
                    seq=seq,
                    tenant=tenant,
                    request_id=request_id,
                    arm=arm,
                    serve=serve,
                    shadow=shadow,
                    mode=entry.mode,
                    fraction=entry.fraction,
                )
            )

    def decision_log_jsonl(self) -> str:
        """Every decision as newline-separated JSONL (byte-stable per seed)."""
        return self._log.jsonl()

    def counts(self) -> Dict[str, int]:
        """Decision totals by serving arm plus shadow duplicates."""
        by_arm = {"stable": 0, "canary": 0, "shadow": 0}
        for decision in self.decisions:
            by_arm[decision.arm] += 1
            if decision.shadow is not None:
                by_arm["shadow"] += 1
        return by_arm


class RolloutMiddleware(Middleware):
    """Gateway stage routing predict traffic across tenant model versions.

    ``resolve`` maps a tenant address to its active version when no rollout
    entry exists (pass ``ModelRegistry.resolve``); requests that are mid-
    rollout follow the table's seeded split instead.  Shadow duplicates are
    dispatched through the same ``call_next`` chain *after* the primary
    response is taken, and their responses are discarded — the primary
    bytes cannot depend on them.
    """

    def __init__(
        self,
        table: RolloutTable,
        resolve: Optional[Callable[[str], str]] = None,
    ) -> None:
        self.table = table
        self.resolve = resolve

    def _serve_id(self, tenant: str, request_id) -> tuple:
        decision = self.table.decide(tenant, request_id)
        if decision is not None:
            return decision.serve, decision.shadow
        if self.resolve is not None:
            return self.resolve(tenant), None
        return tenant, None

    def handle(self, request, call_next):
        if request.method != "predict" or not isinstance(request.payload, dict):
            return call_next(request)
        tenant = request.payload.get("model_id")
        if not isinstance(tenant, str):
            return call_next(request)
        serve_id, shadow_id = self._serve_id(tenant, request.request_id)
        routed_request = request if serve_id == tenant else self._rewrite(request, serve_id)
        response = call_next(routed_request)
        if shadow_id is not None:
            try:
                call_next(self._rewrite(request, shadow_id))
            except Exception:
                pass  # A failing canary must never take down stable traffic.
        return response

    @staticmethod
    def _rewrite(request, model_id: str):
        """A copy of the envelope addressing ``model_id`` (payload copied)."""
        payload = dict(request.payload)
        payload["model_id"] = model_id
        return type(request)(
            method=request.method,
            payload=payload,
            request_id=request.request_id,
            tenant=request.tenant,
            deadline_ms=request.deadline_ms,
            version=request.version,
            trace=request.trace,
        )
