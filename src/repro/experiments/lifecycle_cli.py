"""CLI ``lifecycle``: drift-detect → re-prune → canary a drifting fleet.

The experiments CLI's window into :mod:`repro.lifecycle`: replay a named
class-drift scenario through the virtually-clocked lifecycle harness, as
the static-vs-managed compare (the default) or the managed arm alone
(``--managed-only``), and print what the state machine did.

Everything the command emits is deterministic: the replay is a pure
function of (scenario, tenants, requests, seed, policy), so ``--json``
payloads, ``--audit-jsonl`` transition logs and ``--decisions-jsonl``
rollout decision logs are byte-identical across same-seed runs
(``tests/test_lifecycle.py::TestLifecycleHarness::test_same_seed_replays_are_byte_identical``
compares two replays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..lifecycle import run_lifecycle_compare, run_lifecycle_replay
from ..loadgen import SCENARIOS, build_scenario
from ..loadgen.popularity import ClassDriftPopularity
from .common import emit_json, flag

__all__ = ["LifecycleCliConfig", "run_lifecycle_cli", "print_lifecycle"]

#: --smoke shrinks the replay to this many requests.
SMOKE_REQUESTS = 128


def _drifts(scenario: str) -> bool:
    return isinstance(SCENARIOS[scenario]().popularity, ClassDriftPopularity)


@dataclass
class LifecycleCliConfig:
    """Knobs of one CLI lifecycle run; each flagged field is its CLI option."""

    scenario: str = flag("--scenario", default="drift-step")
    tenants: int = flag("--loadgen-tenants", default=4)
    requests: Optional[int] = flag("--loadgen-requests")  #: None -> the harness default (192)
    seed: int = flag("--seed", default=0)
    compare: bool = flag(
        "--managed-only", default=True,
        help="lifecycle: replay only the managed arm instead of the "
        "static-vs-managed compare",
    )  #: run both arms; False replays the managed arm only
    smoke: bool = flag("--smoke", default=False)
    json: Optional[str] = flag("--json")
    audit_jsonl: Optional[str] = flag(
        "--audit-jsonl", metavar="PATH",
        help="lifecycle: write the managed arm's state-machine audit log to "
        "PATH, one JSON transition per line (byte-stable per seed)",
    )
    decisions_jsonl: Optional[str] = flag("--decisions-jsonl")

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; available: {sorted(SCENARIOS)}"
            )
        if not _drifts(self.scenario):
            raise ValueError(
                f"scenario {self.scenario!r} has no class-drift schedule; "
                f"drift scenarios: {[n for n in sorted(SCENARIOS) if _drifts(n)]}"
            )
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.requests is not None and self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.smoke and self.requests is None:
            self.requests = SMOKE_REQUESTS


def run_lifecycle_cli(config: LifecycleCliConfig) -> Dict[str, object]:
    """Run the configured replay; returns the JSON-stable payload."""
    kwargs = dict(
        scenario=config.scenario,
        tenants=config.tenants,
        seed=config.seed,
    )
    if config.requests is not None:
        kwargs["requests"] = config.requests
    if config.compare:
        return run_lifecycle_compare(**kwargs)
    return run_lifecycle_replay(lifecycle=True, **kwargs)


def _managed_arm(payload: Dict[str, object]) -> Dict[str, object]:
    return payload["managed"] if "managed" in payload else payload


def print_lifecycle(config: LifecycleCliConfig) -> Dict[str, object]:
    """Run + report one lifecycle replay and emit the artifacts it names.

    ``config.json`` of ``"-"`` replaces the report with the full payload on
    stdout (a clean, diffable JSON document).
    """
    payload = run_lifecycle_cli(config)
    managed = _managed_arm(payload)
    emit_json(managed["audit_jsonl"].splitlines(), config.audit_jsonl)
    emit_json(managed["decisions_jsonl"].splitlines(), config.decisions_jsonl)
    emit_json(payload, config.json)
    if config.json == "-":
        return payload

    scenario = build_scenario(config.scenario)
    print(f"scenario: {config.scenario} ({scenario.description})")
    print(
        f"tenants={managed['tenants']} requests={managed['requests']} "
        f"seed={managed['seed']}"
    )
    mgr = managed["manager"]
    print(
        f"lifecycle: cycles={mgr['cycles']} promoted={mgr['promoted']} "
        f"rolled_back={mgr['rolled_back']} transitions={mgr['transitions']}"
    )
    acc = managed["accuracy"]
    print(
        f"accuracy: first_window={acc['first_window']} "
        f"final_window={acc['final_window']} overall={acc['overall']}"
    )
    if "compare" in payload:
        cmp_block = payload["compare"]
        print(
            f"compare: static={cmp_block['static_final_accuracy']} "
            f"managed={cmp_block['managed_final_accuracy']} "
            f"delta={cmp_block['accuracy_delta']} "
            f"slo_held={cmp_block['slo_held']} "
            f"lifecycle_wins={cmp_block['lifecycle_wins']}"
        )
    print("audit:")
    for record in managed["audit"]:
        print(
            f"  t={record['at']:.4f} {record['tenant']:>10} "
            f"{record['from_state']:>11} -> {record['to_state']:<11} "
            f"({record['reason']})"
        )
    return payload
