"""The lifecycle audit trail: every state transition, structured, replayable.

The tenant lifecycle is an explicit state machine::

    SERVING -> DRIFTING -> REPRUNING -> CANARYING -> PROMOTED ----+
                                              |                   |
                                              +--> ROLLED_BACK ---+--> SERVING

and this module is its flight recorder.  Each edge the
:class:`~repro.lifecycle.manager.LifecycleManager` takes becomes one frozen
:class:`LifecycleTransition` appended to an :class:`AuditLog` — a
:class:`~repro.records.RecordLog` of transitions, like the autoscaler's
decision log: monotonically sequenced, one line per record, so two
same-seed runs can be diffed byte for byte and a log can be replayed back
into typed records with :meth:`AuditLog.replay`.

Every transition is also emitted on the structured event log (kind
``lifecycle``), so "tail the event log" shows drift detections interleaved
with the alerts and cache evictions they caused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..metrics.events import emit
from ..records import Record, RecordLog

__all__ = ["STATES", "TRANSITIONS", "LifecycleTransition", "AuditLog"]

#: The lifecycle vocabulary, in canonical order.
STATES = (
    "SERVING",
    "DRIFTING",
    "REPRUNING",
    "CANARYING",
    "PROMOTED",
    "ROLLED_BACK",
)

#: Legal edges.  PROMOTED / ROLLED_BACK are terminal *outcomes* of one
#: lifecycle cycle; both return to SERVING so the next drift can start a
#: fresh cycle.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "SERVING": ("DRIFTING",),
    "DRIFTING": ("REPRUNING",),
    "REPRUNING": ("CANARYING",),
    "CANARYING": ("PROMOTED", "ROLLED_BACK"),
    "PROMOTED": ("SERVING",),
    "ROLLED_BACK": ("SERVING",),
}


@dataclass(frozen=True)
class LifecycleTransition(Record):
    """One audited edge of a tenant's lifecycle state machine."""

    seq: int  #: monotonic per-log sequence number
    at: float  #: virtual (or wall) time of the transition
    tenant: str  #: tenant base id
    from_state: str
    to_state: str
    reason: str  #: what triggered the edge (rule name, verdict, "manual")
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.from_state not in STATES:
            raise ValueError(f"unknown state {self.from_state!r}; known: {STATES}")
        if self.to_state not in TRANSITIONS.get(self.from_state, ()):
            raise ValueError(
                f"illegal transition {self.from_state} -> {self.to_state}; "
                f"legal: {TRANSITIONS[self.from_state]}"
            )


class AuditLog:
    """Append-only, replayable record of every lifecycle transition."""

    def __init__(self) -> None:
        self._log: RecordLog[LifecycleTransition] = RecordLog()

    def append(
        self,
        at: float,
        tenant: str,
        from_state: str,
        to_state: str,
        reason: str,
        details: Optional[Dict[str, object]] = None,
    ) -> LifecycleTransition:
        """Record one edge (validating it) and mirror it to the event log."""
        transition = self._log.append(
            lambda seq: LifecycleTransition(
                seq=seq,
                at=float(at),
                tenant=tenant,
                from_state=from_state,
                to_state=to_state,
                reason=reason,
                details=dict(details or {}),
            )
        )
        emit("lifecycle", ts=transition.at, **{
            k: v for k, v in transition.to_dict().items() if k != "at"
        })
        return transition

    @property
    def transitions(self) -> List[LifecycleTransition]:
        return self._log.records()

    def __len__(self) -> int:
        return len(self._log)

    def entries(self, tenant: Optional[str] = None) -> List[LifecycleTransition]:
        """All transitions, optionally filtered to one tenant."""
        if tenant is None:
            return self.transitions
        return [t for t in self.transitions if t.tenant == tenant]

    def states_seen(self, tenant: Optional[str] = None) -> List[str]:
        """The ``to_state`` sequence — the quick "did it promote?" probe."""
        return [t.to_state for t in self.entries(tenant)]

    def to_jsonl(self) -> str:
        """The whole log as newline-separated JSONL (byte-stable per seed)."""
        return self._log.jsonl()

    @classmethod
    def replay(cls, lines: Iterable[str]) -> "AuditLog":
        """Rebuild a typed log from JSONL lines; ``ValueError`` naming the
        line on bad JSON, a wrong field set, an illegal edge or a ``seq`` gap."""
        audit = cls()
        audit._log = RecordLog.replay(lines, LifecycleTransition)
        return audit
