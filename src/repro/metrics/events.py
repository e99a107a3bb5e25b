"""Structured lifecycle event log: one JSON line per thing that happened.

Where metrics answer "how much" and traces answer "where did the time go",
the event log answers "what happened, in order": shard added / killed /
drained, cache entry evicted / poisoned, admission rejections, gateway
retries, alerts firing and resolving.  Producers call the module-level
:func:`emit` at their seams; like :mod:`repro.trace`, the default state is
*off* — ``emit`` is a near-free no-op until a log is installed with
:func:`set_event_log` — so the serving hot paths pay nothing when nobody is
watching.

An :class:`EventLog` is a :class:`~repro.records.RecordLog` of
:class:`Event` records — bounded ring, optional JSONL sink, synchronous
subscribers all come from there — plus a clock and the kind vocabulary.
The :class:`~repro.metrics.slo.SLOMonitor` publishes its alerts through the
same channel, so "tail the event log" is the one debugging story.

Events are per-process: process-mode shard children run with no log
installed and their seam emissions no-op; the parent still observes the
cluster-level lifecycle (add/kill/drain, admission, frontend failures).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..records import Record, RecordLog

__all__ = [
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "emit",
    "set_event_log",
    "get_event_log",
    "event_log",
]

#: The lifecycle vocabulary.  ``emit`` accepts only these, so a typo in a
#: producer fails its own test instead of silently creating a new kind.
EVENT_KINDS = (
    "shard_add",
    "shard_kill",
    "shard_drain",
    "shard_down",
    "cache_evict",
    "cache_poison",
    "admission_reject",
    "retry",
    "fault",
    "alert",
    "autoscale",   # one Autoscaler decision (scale_out/scale_in/suppress/clamp)
    "lifecycle",   # one LifecycleManager state transition (SERVING/DRIFTING/...)
    "rollout",     # rollout table change: split started / promoted / rolled back
)


@dataclass(frozen=True)
class Event(Record):
    """One immutable lifecycle event: timestamp, kind, free-form fields."""

    ts: float
    kind: str
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"ts": self.ts, "kind": self.kind, **self.fields}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Event":
        if not {"ts", "kind"} <= set(payload):
            raise ValueError(f"Event: needs ts and kind, got {sorted(payload)}")
        rest = dict(payload)
        return cls(ts=rest.pop("ts"), kind=rest.pop("kind"), fields=rest)


class EventLog(RecordLog[Event]):
    """A bounded :class:`~repro.records.RecordLog` of :class:`Event` records."""

    def __init__(
        self,
        capacity: int = 4096,
        path: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(capacity, path)
        self.clock = clock

    def emit(self, kind: str, ts: Optional[float] = None, **fields: object) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; known: {EVENT_KINDS}")
        event = Event(ts=self.clock() if ts is None else float(ts), kind=kind,
                      fields=fields)
        return self.append(lambda seq: event)

    @property
    def emitted(self) -> int:
        """Events ever emitted (the ring may hold fewer)."""
        return self.appended

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """The resident events (oldest first), optionally filtered by kind."""
        resident = self.records()
        if kind is None:
            return resident
        return [e for e in resident if e.kind == kind]

    def counts(self, key: str = "kind") -> Dict[str, int]:
        """Resident events per kind (sorted), for dashboards and summaries."""
        return super().counts(key)

    dump_jsonl = RecordLog.dump


# -- the module-level producer seam (mirrors repro.trace's off switch) --------
_LOG: Optional[EventLog] = None


def set_event_log(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install (or with ``None`` remove) the process-wide log; returns the old."""
    global _LOG
    previous = _LOG
    _LOG = log
    return previous


def get_event_log() -> Optional[EventLog]:
    return _LOG


def emit(kind: str, **fields: object) -> Optional[Event]:
    """Emit into the installed log, or no-op (cheaply) when none is installed.

    This is the call sprinkled through the serving seams, so the disabled
    path is one global read and a return.
    """
    log = _LOG
    if log is None:
        return None
    return log.emit(kind, **fields)


class event_log:
    """Context manager installing ``log`` for a scope, restoring the previous.

    >>> with event_log(EventLog()) as log:
    ...     cluster.add_shard()
    ...     assert log.events("shard_add")
    """

    def __init__(self, log: Optional[EventLog] = None) -> None:
        self.log = log if log is not None else EventLog()
        self._previous: Optional[EventLog] = None

    def __enter__(self) -> EventLog:
        self._previous = set_event_log(self.log)
        return self.log

    def __exit__(self, exc_type, exc, tb) -> None:
        set_event_log(self._previous)
