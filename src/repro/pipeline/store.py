"""The on-disk content-addressed step store.

Layout — one directory per (step, key)::

    <root>/
      <step_name>/
        <key>/
          output.json     # the step's JSON output, canonical bytes
          meta.json       # key closure + sha256 of output.json + artifact digests
          artifacts/      # optional step-written files (npz weights, registries)

``output.json`` is written with the canonical encoder, and its sha256 (plus
one per artifact file) is recorded in ``meta.json`` at commit time.  A cache
*hit* re-reads the stored bytes and verifies every digest — "unchanged
upstream steps are cache hits with byte-identical outputs, verified" is a
checked property, not an assumption.  A corrupted entry simply fails
verification and is treated as a miss (and removed), so a killed run never
poisons the store: commits happen by staging into a temp directory and
renaming it into place atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .fingerprint import canonical_bytes, canonical_dumps

__all__ = ["StoreEntry", "PipelineStore"]

_OUTPUT = "output.json"
_META = "meta.json"
_ARTIFACTS = "artifacts"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class StoreEntry:
    """One resident step output."""

    step: str
    key: str
    output: Dict[str, object]
    output_sha256: str
    path: Path  #: the entry directory

    @property
    def artifact_dir(self) -> Path:
        return self.path / _ARTIFACTS


class PipelineStore:
    """Content-addressed, verified on-disk store of step outputs."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing -------------------------------------------------------------
    def entry_dir(self, step: str, key: str) -> Path:
        return self.root / step / key

    def has(self, step: str, key: str) -> bool:
        return (self.entry_dir(step, key) / _META).exists()

    def keys(self, step: str) -> List[str]:
        """Every resident key of one step (committed entries only)."""
        step_dir = self.root / step
        if not step_dir.is_dir():
            return []
        return sorted(
            entry.name for entry in step_dir.iterdir() if (entry / _META).exists()
        )

    # -- reads ------------------------------------------------------------------
    def get(self, step: str, key: str, verify: bool = True) -> Optional[StoreEntry]:
        """Load one entry; ``None`` on a miss *or* a failed verification.

        With ``verify`` (the default for cache hits) the stored
        ``output.json`` bytes are re-hashed against the digest recorded at
        commit time, and so is every artifact file — an entry that does not
        verify byte-for-byte is removed and reported as a miss, forcing a
        clean re-run instead of serving silent corruption.
        """
        entry_dir = self.entry_dir(step, key)
        meta_path = entry_dir / _META
        output_path = entry_dir / _OUTPUT
        if not meta_path.exists() or not output_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
            output_bytes = output_path.read_bytes()
            output = json.loads(output_bytes)
        except (OSError, ValueError):
            self.evict(step, key)
            return None
        if verify and not self._verify(entry_dir, meta, output_bytes):
            self.evict(step, key)
            return None
        return StoreEntry(
            step=step,
            key=key,
            output=output,
            output_sha256=meta["output_sha256"],
            path=entry_dir,
        )

    def _verify(self, entry_dir: Path, meta: Dict, output_bytes: bytes) -> bool:
        if hashlib.sha256(output_bytes).hexdigest() != meta.get("output_sha256"):
            return False
        recorded: Dict[str, str] = meta.get("artifacts", {})
        artifact_dir = entry_dir / _ARTIFACTS
        resident = {
            str(path.relative_to(artifact_dir)): path
            for path in sorted(artifact_dir.rglob("*"))
            if path.is_file()
        } if artifact_dir.is_dir() else {}
        if set(resident) != set(recorded):
            return False
        return all(_sha256_file(resident[rel]) == digest for rel, digest in recorded.items())

    # -- writes -----------------------------------------------------------------
    def staging_dir(self, step: str, key: str) -> Path:
        """A fresh private staging directory for one step execution."""
        staging = self.root / step / f".staging-{key[:16]}-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        (staging / _ARTIFACTS).mkdir(parents=True)
        return staging

    def commit(
        self,
        step: str,
        key: str,
        output: Dict[str, object],
        staging: Optional[Path] = None,
        closure: Optional[Dict[str, object]] = None,
    ) -> StoreEntry:
        """Finalize one step execution into the store, atomically.

        Writes the canonical ``output.json``, digests it and every staged
        artifact into ``meta.json``, then renames the staging directory into
        its addressed slot — a crashed run leaves either the old entry or
        none, never a half-written one.
        """
        staging = staging if staging is not None else self.staging_dir(step, key)
        artifact_dir = staging / _ARTIFACTS
        artifact_dir.mkdir(exist_ok=True)
        output_bytes = canonical_bytes(output)
        (staging / _OUTPUT).write_bytes(output_bytes)
        artifacts = {
            str(path.relative_to(artifact_dir)): _sha256_file(path)
            for path in sorted(artifact_dir.rglob("*"))
            if path.is_file()
        }
        meta = {
            "step": step,
            "key": key,
            "output_sha256": hashlib.sha256(output_bytes).hexdigest(),
            "artifacts": artifacts,
            "closure": closure or {},
        }
        (staging / _META).write_text(canonical_dumps(meta))
        entry_dir = self.entry_dir(step, key)
        entry_dir.parent.mkdir(parents=True, exist_ok=True)
        if entry_dir.exists():
            shutil.rmtree(entry_dir)
        os.replace(staging, entry_dir)
        return StoreEntry(
            step=step,
            key=key,
            output=json.loads(output_bytes),  # what a later hit reads back
            output_sha256=meta["output_sha256"],
            path=entry_dir,
        )

    def discard_staging(self, staging: Path) -> None:
        """Drop a staging directory after a failed step execution."""
        if staging.exists():
            shutil.rmtree(staging, ignore_errors=True)

    def evict(self, step: str, key: str) -> bool:
        """Remove one entry (corruption recovery / forced invalidation)."""
        entry_dir = self.entry_dir(step, key)
        if not entry_dir.exists():
            return False
        shutil.rmtree(entry_dir)
        return True
