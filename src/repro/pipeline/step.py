"""Steps and the DAG runner: content-addressed, resumable execution.

A :class:`Step` is a named function over (params, upstream outputs).  The
:class:`Pipeline` topologically orders its steps, computes each one's
content key — ``hash(name, code fingerprint, params, upstream keys)`` — and
runs only the steps whose key has no verified entry in the
:class:`~repro.pipeline.store.PipelineStore`.  Re-running an unchanged
pipeline is therefore 100% cache hits; editing one step's params (or its
code) changes its key *and every downstream key*, so exactly that step and
its dependents re-run.

Step functions receive a :class:`StepContext`:

* ``ctx.params`` — the step's declared parameters;
* ``ctx.inputs[dep]`` — a dependency's JSON output dict;
* ``ctx.input_dir(dep)`` / ``ctx.load_arrays(dep, name)`` — a dependency's
  committed artifact files;
* ``ctx.artifact_dir`` / ``ctx.save_arrays(name, **arrays)`` — the step's
  own staging artifacts, committed with its output.

and return a JSON-compatible dict (the step's output).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fingerprint import canonical_dumps, code_fingerprint, content_key
from .store import PipelineStore, StoreEntry

__all__ = ["Step", "StepContext", "StepResult", "RunSummary", "Pipeline"]


@dataclass
class Step:
    """One named, parameterized node of the experiment DAG."""

    name: str
    fn: Callable[["StepContext"], Dict[str, object]]
    params: Dict[str, object] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError(f"step name must be a non-empty path-safe token, got {self.name!r}")
        self.deps = tuple(self.deps)
        # Params must canonicalize now, not at key time — a step with
        # unhashable params should fail at construction, where the bug is.
        canonical_dumps(self.params)


class StepContext:
    """What a step function sees while it executes."""

    def __init__(
        self,
        step: Step,
        key: str,
        inputs: Mapping[str, Dict[str, object]],
        input_dirs: Mapping[str, Path],
        artifact_dir: Path,
    ) -> None:
        self.step = step
        self.key = key
        self.params = dict(step.params)
        self.inputs = dict(inputs)
        self._input_dirs = dict(input_dirs)
        self.artifact_dir = artifact_dir

    def input_dir(self, dep: str) -> Path:
        """The committed artifact directory of one dependency."""
        return self._input_dirs[dep]

    def save_arrays(self, name: str, **arrays: np.ndarray) -> Path:
        """Persist named arrays as ``<name>.npz`` among this step's artifacts."""
        path = self.artifact_dir / f"{name}.npz"
        np.savez(path, **arrays)
        return path

    def load_arrays(self, dep: str, name: str) -> Dict[str, np.ndarray]:
        """Load a dependency's ``save_arrays`` file back as a dict."""
        with np.load(self.input_dir(dep) / f"{name}.npz") as data:
            return {key: data[key] for key in data.files}


@dataclass
class StepResult:
    """How one step resolved during a run."""

    name: str
    key: str
    status: str  #: ``"hit"`` (verified cache entry) or ``"ran"``
    output: Dict[str, object]
    output_sha256: str
    elapsed_s: float
    artifact_dir: Path

    @property
    def hit(self) -> bool:
        return self.status == "hit"


class RunSummary:
    """The per-step resolution record of one pipeline run."""

    def __init__(self, results: List[StepResult]) -> None:
        self.results = results

    @property
    def hits(self) -> int:
        return sum(1 for r in self.results if r.hit)

    @property
    def ran(self) -> int:
        return sum(1 for r in self.results if not r.hit)

    @property
    def all_hits(self) -> bool:
        return bool(self.results) and self.hits == len(self.results)

    def __getitem__(self, name: str) -> StepResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


class Pipeline:
    """A DAG of steps over one content-addressed store.

    A pipeline built with ``store=None`` can be inspected (order, keys) but
    not run.
    """

    def __init__(self, steps: Sequence[Step], store: Optional[PipelineStore]) -> None:
        self.store = store
        names = [step.name for step in steps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate step names in {names}")
        self.steps: Dict[str, Step] = {step.name: step for step in steps}
        for step in steps:
            missing = [dep for dep in step.deps if dep not in self.steps]
            if missing:
                raise ValueError(f"step {step.name!r} depends on unknown step(s) {missing}")
        self.order = self._topo_order(steps)
        self._keys: Dict[str, str] = {}

    def _topo_order(self, steps: Sequence[Step]) -> List[str]:
        """Kahn's algorithm, stable in the given step order."""
        remaining = {step.name: set(step.deps) for step in steps}
        order: List[str] = []
        while remaining:
            ready = [name for name, deps in remaining.items() if not deps]
            if not ready:
                raise ValueError(f"dependency cycle among steps {sorted(remaining)}")
            for name in ready:
                order.append(name)
                del remaining[name]
            for deps in remaining.values():
                deps.difference_update(ready)
        return order

    # -- content keys -----------------------------------------------------------
    def key_of(self, name: str) -> str:
        """The content key of one step (upstream keys folded in, memoized)."""
        if name not in self._keys:
            step = self.steps[name]
            self._keys[name] = content_key(
                {
                    "step": step.name,
                    "code": code_fingerprint(step.fn),
                    "params": step.params,
                    "inputs": {dep: self.key_of(dep) for dep in sorted(step.deps)},
                }
            )
        return self._keys[name]

    # -- inspection -------------------------------------------------------------
    def status(self) -> List[Dict[str, object]]:
        """Per-step cache residency against the store (no execution)."""
        return [
            {
                "name": name,
                "key": self.key_of(name),
                "cached": self.store.has(name, self.key_of(name)),
                "deps": list(self.steps[name].deps),
            }
            for name in self.order
        ]

    # -- execution --------------------------------------------------------------
    def run(
        self,
        force: Sequence[str] = (),
        progress: Optional[Callable[[StepResult], None]] = None,
    ) -> RunSummary:
        """Execute the DAG; cached steps are verified hits, the rest run.

        ``force`` names steps to re-run even when cached (their downstream
        steps keep their keys, so they only re-run if a forced step's output
        actually reaches them through a changed key — forcing is for
        re-measuring, not for invalidation; change params to invalidate).
        """
        force = set(force)
        unknown = force - set(self.steps)
        if unknown:
            raise KeyError(f"cannot force unknown step(s) {sorted(unknown)}")
        results: List[StepResult] = []
        resolved: Dict[str, StoreEntry] = {}
        for name in self.order:
            step = self.steps[name]
            key = self.key_of(name)
            started = time.perf_counter()
            entry = None if name in force else self.store.get(name, key, verify=True)
            if entry is not None:
                status = "hit"
            else:
                entry = self._execute(step, key, resolved)
                status = "ran"
            resolved[name] = entry
            result = StepResult(
                name=name,
                key=key,
                status=status,
                output=entry.output,
                output_sha256=entry.output_sha256,
                elapsed_s=time.perf_counter() - started,
                artifact_dir=entry.artifact_dir,
            )
            results.append(result)
            if progress is not None:
                progress(result)
        return RunSummary(results)

    def _execute(self, step: Step, key: str, resolved: Mapping[str, StoreEntry]) -> StoreEntry:
        staging = self.store.staging_dir(step.name, key)
        context = StepContext(
            step=step,
            key=key,
            inputs={dep: resolved[dep].output for dep in step.deps},
            input_dirs={dep: resolved[dep].artifact_dir for dep in step.deps},
            artifact_dir=staging / "artifacts",
        )
        try:
            output = step.fn(context)
        except BaseException:
            self.store.discard_staging(staging)
            raise
        if not isinstance(output, dict):
            self.store.discard_staging(staging)
            raise TypeError(
                f"step {step.name!r} must return a JSON-compatible dict, "
                f"got {type(output).__name__}"
            )
        closure = {
            "code": code_fingerprint(step.fn),
            "params": step.params,
            "inputs": {dep: self.key_of(dep) for dep in sorted(step.deps)},
        }
        return self.store.commit(step.name, key, output, staging=staging, closure=closure)
