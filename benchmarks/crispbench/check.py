"""Output correctness: replies, reference agreement, sparsity band, leaks.

Every violation found here is a failed operation: it lowers ``success_rate``,
sets ``correct`` to false and makes the command exit non-zero.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .plan import DESIGN
from .registry import SPARSITY_BAND, TARGET_SPARSITY

#: Served logits further than this from the reference logits are a wrong output.
#: The backends agree bit for bit today; the margin leaves room for a float32
#: kernel (error ~1e-6 on logits of order 1) and none for a wrong weight.
LOGIT_TOLERANCE = 1e-3

SHM_DIR = "/dev/shm"


def shm_entries() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def leaked_segments(before: Set[str]) -> List[str]:
    """``/dev/shm`` entries that appeared since ``before`` and are still there."""
    return sorted(shm_entries() - before)


def live_children() -> int:
    return len(multiprocessing.active_children())


def _child_pids() -> List[int]:
    """Direct children of this process, whoever started them (from ``/proc``)."""
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # gone between the listing and the read
            if fields[1] == me and fields[0] != "Z":
                found.append(int(entry))
    return found


def stop_children() -> int:
    """Stop every process this one started and wait until each has ended.

    Called on every path out of a run.  Workers still alive (a run that
    raised before its shutdown) are killed and joined.  The shared-memory
    workloads also start multiprocessing's resource tracker, which would
    otherwise outlive this process by the moment it takes to notice that
    its pipe closed: it is told to stop and waited for.  Anything else found
    under this process is killed and reaped.  Returns how many workers had
    to be killed.
    """
    from multiprocessing import resource_tracker

    workers = multiprocessing.active_children()
    for worker in workers:
        worker.kill()
    for worker in workers:
        worker.join()
    # Closes the tracker's pipe and waits for it; before it ends the tracker
    # unlinks whatever segment a failed run left registered.
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return len(workers)


def malformed(response, request_id: str, model_id: str) -> bool:
    """Whether a decoded predict reply is not the answer to that request."""
    logits = np.asarray(response.logits)
    return bool(
        response.request_id != request_id
        or response.model_id != model_id
        or response.status != 200
        or logits.ndim != 2
        or logits.shape[0] != 1
        or not np.isfinite(logits).all()
        or int(response.classes[0]) != int(logits[0].argmax())
    )


def agreement(
    registry, sample: Sequence[Tuple[str, np.ndarray, np.ndarray]]
) -> Dict[str, float]:
    """Compare served ``(model_id, input, logits)`` triples with the reference engine.

    The reference is ``Engine(model, backend="reference", weight_format="dense")``
    on the same pruned model, built here, after the window, off the clock.
    """
    from repro.backend import Engine

    engines: Dict[str, object] = {}
    agree = wrong = 0
    worst = 0.0
    for model_id, image, served in sample:
        if model_id not in engines:
            engines[model_id] = Engine(
                registry.materialize(model_id), backend="reference", weight_format="dense"
            )
        expected = engines[model_id].predict(image[None])
        served = np.asarray(served).reshape(expected.shape)
        error = float(np.abs(served - expected).max())
        worst = max(worst, error)
        wrong += error > LOGIT_TOLERANCE
        agree += int(served.argmax()) == int(expected.argmax())
    for engine in engines.values():
        engine.detach()
    return {
        "sampled": len(sample),
        "top1_agreement": agree / len(sample),
        "max_abs_logit_err": worst,
        "wrong_outputs": int(wrong),
    }


def fleet_quality(registry, model_ids: Sequence[str]) -> Dict[str, float]:
    """Accuracy and sparsity the registry recorded for the tenants personalized.

    Accuracy is averaged over the first ``DESIGN`` tenants only — one full
    cycle of the profile design — so it does not depend on how many users a
    run had time to onboard.
    """
    accuracy = [float(registry.get(m).metadata["accuracy"]) for m in model_ids[:DESIGN]]
    sparsity = [float(registry.get(m).metadata["achieved_sparsity"]) for m in model_ids]
    out_of_band = sum(abs(s - TARGET_SPARSITY) > SPARSITY_BAND for s in sparsity)
    return {
        "tenants": len(accuracy),
        "pruned_accuracy": float(np.mean(accuracy)),
        "achieved_sparsity": float(np.mean(sparsity)),
        "out_of_band": int(out_of_band),
    }
