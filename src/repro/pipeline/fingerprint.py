"""Content addressing for pipeline steps: canonical JSON + code fingerprints.

A step's cache key is the hash of its *closure*: the step name, a
fingerprint of the code that implements it, its canonicalized parameters and
the keys of every upstream output it consumes.  Any change to any of those —
an edited parameter, a re-implemented function, a re-run upstream step —
changes the key, so stale cache entries are structurally unreachable rather
than "invalidated".
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Callable

from ..records import canonical_json as canonical_dumps  #: same bytes as the wire

__all__ = ["canonical_dumps", "canonical_bytes", "content_key", "code_fingerprint"]


def canonical_bytes(payload) -> bytes:
    return canonical_dumps(payload).encode("utf-8")


def content_key(payload) -> str:
    """sha256 hex digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def code_fingerprint(fn: Callable) -> str:
    """A stable digest of a step function's implementation.

    Hashes the function's source text when it is available (the normal
    case), so editing a step's body re-keys it just like editing its
    params.  Callables without retrievable source (builtins, C extensions)
    fall back to their qualified name — coarser, but still stable.
    """
    target = inspect.unwrap(fn)
    try:
        source = inspect.getsource(target)
    except (OSError, TypeError):
        source = f"{getattr(target, '__module__', '?')}.{getattr(target, '__qualname__', repr(target))}"
    return hashlib.sha256(source.encode("utf-8")).hexdigest()
