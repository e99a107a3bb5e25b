"""Records and logs: the one module that knows how a record becomes bytes.

A *record* is a frozen dataclass mixing in :class:`Record`: its dict face is
its fields, its JSON face one line.  Two encodings, each owned here:
:func:`canonical_json` (compact, NaN-free — the gateway wire and every
content hash) and :func:`json_line` (sorted keys, default separators — the
JSONL line CI ``cmp`` compares across same-seed runs).  Arrays cross every
seam — client, gateway, worker pipe, stats frame — through the one
:func:`pack` / :func:`unpack` pair: dtype + shape + base64 of the
little-endian buffer, bit-exact and a tenth of the cost of decimal text.
:class:`RecordLog` is the one log: thread-safe append under an atomically
assigned sequence number, optional ring bound, optional per-record-flushed
JSONL sink, synchronous subscribers; ``jsonl()`` is newline-*separated* text,
``dump()`` a newline-*terminated* file, ``replay()`` the typed way back in.

Imports NumPy and the error-taxonomy leaf (:mod:`repro.errors`), nothing else
from the package, so any layer may use it.
"""

from __future__ import annotations

import base64
import json
import threading
from collections import Counter, deque
from dataclasses import fields
from typing import Callable, Deque, Dict, Generic, Iterable, List, Mapping
from typing import Optional, Tuple, Type, TypeVar

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "canonical_json", "json_line", "round6", "write_jsonl", "pack", "unpack", "Record", "RecordLog",
]


def canonical_json(payload) -> str:
    """The one encoder of every wire envelope, pipeline artifact and content
    key: sorted keys, fixed separators, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def round6(value) -> float:
    """The grain every reported ratio is quantized to before it is hashed."""
    return round(float(value), 6)


def json_line(payload) -> str:
    """One JSONL line: sorted keys, so identical payloads render identically."""
    return json.dumps(payload, sort_keys=True)


def write_jsonl(path, lines: Iterable[str]) -> int:
    """Write ``lines`` to ``path`` newline-terminated; returns the line count."""
    lines = list(lines)
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
    return len(lines)


def pack(array, dtype: str) -> Dict[str, object]:
    """``array`` as its wire object ``{"dtype", "shape", "b64"}``; ``dtype`` is
    ``"<f8"`` or ``"<i8"``.  A non-finite value is refused here with the
    ``ValueError`` :func:`canonical_json` would have raised for its decimal
    form: the wire stays NaN-free."""
    array = np.asarray(array, dtype=dtype, order="C")
    if not np.isfinite(array).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return {
        "dtype": dtype,
        "shape": list(array.shape),
        "b64": base64.b64encode(array).decode("ascii"),
    }


def unpack(field, dtype: str) -> np.ndarray:
    """The array a wire field carries.  A JSON object is the :func:`pack`
    form; anything else is the nested list every encoder emitted before it,
    which recorded streams and hand-written bodies still send.  The field is
    outside input: a packed object that is not exactly a ``dtype`` array of
    its declared shape raises :class:`~repro.errors.InvalidArgumentError`.
    Returns a writable C-contiguous native-order copy (``frombuffer`` alone is
    a read-only view that pins the decoded bytes)."""
    native = np.dtype(dtype).newbyteorder("=")
    if not isinstance(field, dict):
        return np.asarray(field, dtype=native)
    shape = field.get("shape")
    if field.get("dtype") != dtype:
        raise InvalidArgumentError(
            f"packed array dtype must be {dtype!r}, got {field.get('dtype')!r}"
        )
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise InvalidArgumentError(
            f"packed array shape must be a list of non-negative ints, got {shape!r}"
        )
    try:
        raw = base64.b64decode(field.get("b64"), validate=True)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(native)
    except (TypeError, ValueError) as exc:  # bad base64, or bytes != prod(shape) * 8
        raise InvalidArgumentError(f"packed array does not decode: {exc}") from None


def _plain(value):
    """``value`` as JSON-shaped data: records and mappings to dicts, sequences to lists."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class Record:
    """Mixin for frozen dataclasses: the fields are the record.  A type whose
    dict face reshapes its fields (``Event`` splats its free-form ones)
    overrides :meth:`to_dict` and :meth:`from_dict` as a pair."""

    def to_dict(self) -> Dict[str, object]:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json_line(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]):
        """Rebuild from :meth:`to_dict` output; ``ValueError`` unless the keys
        are exactly the fields (the type's own validation still runs)."""
        names = {f.name for f in fields(cls)}
        if set(payload) != names:
            raise ValueError(
                f"{cls.__name__}: missing fields {sorted(names - set(payload))}, "
                f"unexpected fields {sorted(set(payload) - names)}"
            )
        return cls(**payload)


R = TypeVar("R")


class RecordLog(Generic[R]):
    """Thread-safe append-only log of records: ring, sink, subscribers.

    ``capacity`` bounds the resident ring (``None`` keeps everything, ``0``
    nothing, though every append is still numbered); ``path`` opens an
    append-mode JSONL sink flushed per record, so a crashed run keeps its
    history.
    """

    def __init__(self, capacity: Optional[int] = None, path: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._records: Deque[R] = deque(maxlen=capacity)
        self._subscribers: Tuple[Callable[[R], None], ...] = ()
        self._sink = open(path, "a") if path is not None else None
        self.appended = 0  #: records ever appended — the next sequence number

    def append(self, make: Callable[[int], R]) -> R:
        """Append ``make(seq)``: the record is built under the lock, so its
        sequence number and its position in the log cannot disagree."""
        with self._lock:
            record = make(self.appended)
            self._records.append(record)
            self.appended += 1
            subscribers = self._subscribers
            if self._sink is not None:
                self._sink.write(record.to_json() + "\n")
                self._sink.flush()
        for subscriber in subscribers:
            subscriber(record)
        return record

    def subscribe(self, callback: Callable[[R], None]) -> None:
        """Register a synchronous observer of every future record (called
        after the append, outside the lock)."""
        with self._lock:
            self._subscribers += (callback,)

    def records(self) -> List[R]:
        """The resident records, oldest first."""
        with self._lock:
            return list(self._records)

    def counts(self, key: str) -> Dict[object, int]:
        """Resident records per value of attribute ``key`` (sorted)."""
        tally = Counter(getattr(record, key) for record in self.records())
        return dict(sorted(tally.items()))

    def lines(self) -> List[str]:
        return [record.to_json() for record in self.records()]

    def jsonl(self) -> str:
        """The resident log as newline-separated JSONL text."""
        return "\n".join(self.lines())

    def dump(self, path) -> int:
        """Write the resident log to ``path`` as JSONL; returns the line count."""
        return write_jsonl(path, self.lines())

    @classmethod
    def replay(cls, lines: Iterable[str], record_type: Type[R]) -> "RecordLog[R]":
        """Rebuild a typed log from JSONL lines (blank ones skipped);
        ``ValueError`` naming the 1-based line that is undecodable, mis-shaped,
        rejected by ``record_type`` or whose ``seq`` is not the next one."""
        log: RecordLog[R] = cls()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = record_type.from_dict(json.loads(line))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"line {number}: {exc}") from exc
            if getattr(record, "seq", log.appended) != log.appended:
                raise ValueError(
                    f"line {number}: seq {record.seq} is not the next one "
                    f"({log.appended})"
                )
            log.append(lambda seq: record)
        return log

    def close(self) -> None:
        """Close the sink (the resident ring stays readable)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
