"""Closed-loop autoscaling: the fleet manages itself.

:class:`Autoscaler` is a deterministic control loop over the cluster's
scaling seams, driven by the telemetry plane's samples and governed by a
declarative :class:`ScalingPolicy` (rules with SLOMonitor-style debounce,
cooldown hysteresis, min/max clamps), with every verdict — applied,
suppressed, clamped — recorded as an immutable :class:`ScalingDecision`.

:func:`simulate_autoscaler` replays any open-loop loadgen scenario through a
fluid queue model so control-loop behaviour is a byte-stable pure function
of its inputs (``tests/test_autoscale.py::TestSimulator`` compares two runs
byte for byte) and the autoscaled-vs-static pipeline compares on it, while
:meth:`Autoscaler.attach` closes the same loop against a live
:class:`~repro.cluster.ClusterService` under real traffic.
"""

from .autoscaler import SIGNALS, Autoscaler
from .policy import (
    ACTIONS,
    VERDICTS,
    ScalingDecision,
    ScalingPolicy,
    ScalingRule,
    default_policy,
    static_policy,
)
from .sim import FleetModel, simulate_autoscaler

__all__ = [
    "ACTIONS",
    "VERDICTS",
    "SIGNALS",
    "Autoscaler",
    "ScalingRule",
    "ScalingPolicy",
    "ScalingDecision",
    "default_policy",
    "static_policy",
    "FleetModel",
    "simulate_autoscaler",
]
