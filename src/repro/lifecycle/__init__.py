"""Tenant lifecycle: drift detection, re-personalization, versioned rollout.

The paper's premise is *class-personalized* pruning — so a tenant's model
is only as good as its class head is current.  This package closes the
control-plane triad (metrics → autoscaler → **lifecycle**) by making the
tenant lifecycle an explicit, audited state machine::

    SERVING -> DRIFTING -> REPRUNING -> CANARYING -> PROMOTED ----+
                                              |                   |
                                              +--> ROLLED_BACK ---+--> SERVING

* :mod:`~repro.lifecycle.telemetry` — :class:`AccuracyTracker` scores every
  served prediction against the workload's true-class labels, and
  :class:`LifecycleStatsSource` feeds per-tenant accuracy/staleness into
  the metrics plane (``tenant_accuracy{tenant}`` gauges, the stock
  ``accuracy_drop`` alert rule);
* :mod:`~repro.lifecycle.detector` — :class:`DriftDetector` subscribes to
  the :class:`~repro.metrics.TelemetryPoller` exactly as the autoscaler
  does, debouncing per-tenant accuracy breaches into drift signals;
* :mod:`~repro.lifecycle.manager` — :class:`LifecycleManager` owns the
  state machine: re-prunes the drifted tenant toward its observed class
  head, stacks the result as a new registry version, and drives rollout;
* :mod:`~repro.lifecycle.rollout` — :class:`RolloutTable` +
  :class:`RolloutMiddleware`: seeded hash-split (or shadow) routing between
  engine versions at the gateway, one-call ``rollback(tenant)``;
* :mod:`~repro.lifecycle.audit` — every transition as a replayable JSONL
  :class:`AuditLog` record plus a ``lifecycle`` event on the event log;
* :mod:`~repro.lifecycle.harness` — the deterministic virtually-clocked
  replay behind the ``lifecycle-compare`` pipeline, the CLI ``lifecycle``
  command and the CI byte-identical-runs gate.
"""

from .audit import STATES, TRANSITIONS, AuditLog, LifecycleTransition
from .detector import DriftDetector
from .fleet import drift_fleet, synthetic_repersonalizer
from .harness import run_lifecycle_compare, run_lifecycle_replay, score_lifecycle
from .manager import LifecycleManager, LifecyclePolicy
from .rollout import (
    ROLLOUT_MODES,
    RolloutDecision,
    RolloutEntry,
    RolloutMiddleware,
    RolloutTable,
    split_arm,
)
from .telemetry import AccuracyTracker, LifecycleStatsSource

__all__ = [
    "STATES",
    "TRANSITIONS",
    "LifecycleTransition",
    "AuditLog",
    "AccuracyTracker",
    "LifecycleStatsSource",
    "DriftDetector",
    "LifecycleManager",
    "LifecyclePolicy",
    "ROLLOUT_MODES",
    "split_arm",
    "RolloutEntry",
    "RolloutDecision",
    "RolloutTable",
    "RolloutMiddleware",
    "drift_fleet",
    "synthetic_repersonalizer",
    "run_lifecycle_replay",
    "run_lifecycle_compare",
    "score_lifecycle",
]
