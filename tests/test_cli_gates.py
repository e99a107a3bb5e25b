"""End-to-end CLI gates: one table, one row per claim a CI smoke job used to
re-implement in shell ``cmp``s and inline Python.

Each row drives ``repro.experiments.cli.main`` exactly as a user would, with
its artifacts written into a scratch directory, then checks what the run left
behind.  Only claims no tier-1 test holds are here (the byte-identity ``cmp``s,
the deployment parities, the two-scenario transport parity and the hop
decomposition all are tier-1; the transport parity of every fault-free
scenario and a run of each ``examples/*.py`` are the last tests here);
everything is stress tier, runnable with::

    PYTHONPATH=src python -m pytest -q -m stress tests/test_cli_gates.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.loadgen_cli import TRANSPORTS
from repro.lifecycle import TRANSITIONS
from repro.loadgen import SCENARIOS
from repro.records import json_line


def _json(name):
    return json.loads(Path(name).read_text())


def _jsonl(name):
    """The parsed lines of ``name``, each checked to be its own canonical form."""
    lines = Path(name).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert lines == [json_line(record) for record in records], f"{name}: not sort_keys"
    return records


def _resolved(slo):
    assert slo["hung"] == 0
    assert slo["completed"] + slo["rejected"] + slo["failed"] == slo["requests"]


def chaos_fires_the_burn_rate_alert(out):
    metrics = _json("slo.json")["slo"]["metrics"]
    assert metrics["alerts_fired"] >= 1, metrics["alerts"]
    firing = {a["rule"] for a in metrics["alerts"] if a["state"] == "firing"}
    assert "rejection-burn-rate" in firing
    assert {"shard_kill", "fault", "alert"} <= set(metrics["event_counts"])
    dump = _json("metrics.json")
    assert dump["monitor"]["fired"] == metrics["alerts_fired"]
    assert "repro_error_burn_rate" in dump["metrics"]
    assert any(e["kind"] == "shard_kill" for e in _jsonl("events.jsonl"))


def steady_run_stays_silent(out):
    slo = _json("slo.json")["slo"]
    assert slo["metrics"]["alerts_fired"] == 0, slo["metrics"]["alerts"]
    assert slo["completed"] == slo["requests"]


def watch_streams_the_outage(out):
    for needle in ("shard_kill", "shard_down", "rejection-burn-rate", "firing"):
        assert needle in out


def ramp_scales_out_and_logs_it(out):
    slo = _json("slo.json")["slo"]
    auto = slo["autoscale"]
    assert auto["actions"].get("scale_out", 0) >= 1, auto["actions"]
    assert auto["peak_shards"] <= 4
    _resolved(slo)
    assert slo["failed"] == 0
    assert len(_jsonl("decisions.jsonl")) == len(auto["decisions"])
    kinds = {e["kind"] for e in _jsonl("events.jsonl")}
    assert {"autoscale", "shard_add"} <= kinds, kinds


def chaos_under_the_autoscaler_strands_nothing(out):
    """A killed shard's in-flight requests fail cleanly by design: resolved,
    never hung, with the control loop resizing the fleet around the outage."""
    slo = _json("slo.json")["slo"]
    _resolved(slo)
    assert slo["autoscale"]["peak_shards"] <= 4


def lifecycle_artifacts_are_legal_and_canaried(out):
    """The walk itself (DRIFTING before PROMOTED, per tenant) is tier-1, on the
    same bytes: ``TestLifecycleHarness`` replays the payload's ``audit_jsonl``."""
    compare = _json("lifecycle.json")["compare"]
    assert compare["lifecycle_wins"] and compare["slo_held"], compare
    assert compare["promoted"] >= 1
    audit = _jsonl("audit.jsonl")
    assert audit and all(r["to_state"] in TRANSITIONS[r["from_state"]] for r in audit)
    # The rollout split routed real traffic to a canary.
    assert "canary" in {d["arm"] for d in _jsonl("decisions.jsonl")}


def process_shards_answer_everything(out):
    outcomes = _json("run.json")["outcomes"]
    assert outcomes["hung"] == 0 and outcomes["completed"] == 16


_CHAOS = ["--scenario", "shard-failure", "--shards", "2", "--seed", "0",
          "--smoke", "--time-scale", "0.25"]

#: (id, argv, check(stdout)); artifact names are relative to the scratch cwd.
GATES = [
    ("monitored-chaos",
     ["loadgen", *_CHAOS, "--measure", "--json", "slo.json",
      "--metrics-json", "metrics.json", "--events-jsonl", "events.jsonl"],
     chaos_fires_the_burn_rate_alert),
    ("monitored-steady",
     ["loadgen", "--scenario", "steady-uniform", "--shards", "2", "--seed", "0", "--smoke",
      "--time-scale", "0.25", "--monitor", "--measure", "--json", "slo.json"],
     steady_run_stays_silent),
    ("monitor-watch", ["monitor", *_CHAOS, "--watch"], watch_streams_the_outage),
    ("autoscaled-ramp",
     ["loadgen", "--scenario", "diurnal-ramp", "--loadgen-requests", "192", "--shards", "2",
      "--max-shards", "4", "--autoscale", "--seed", "0", "--measure", "--json", "slo.json",
      "--decisions-jsonl", "decisions.jsonl", "--events-jsonl", "events.jsonl"],
     ramp_scales_out_and_logs_it),
    ("autoscaled-chaos",
     ["loadgen", "--scenario", "shard-failure", "--shards", "2", "--max-shards", "4",
      "--autoscale", "--seed", "0", "--time-scale", "2", "--measure", "--json", "slo.json"],
     chaos_under_the_autoscaler_strands_nothing),
    ("lifecycle-compare",
     ["lifecycle", "--smoke", "--seed", "0", "--json", "lifecycle.json",
      "--audit-jsonl", "audit.jsonl", "--decisions-jsonl", "decisions.jsonl"],
     lifecycle_artifacts_are_legal_and_canaried),
    ("process-workers",
     ["loadgen", "--scenario", "zipf-burst", "--shards", "2", "--workers", "process",
      "--seed", "0", "--smoke", "--json", "run.json"],
     process_shards_answer_everything),
]


def _shm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("repro-shm-")}


@pytest.mark.stress
@pytest.mark.parametrize(
    "argv,check", [pytest.param(argv, check, id=name) for name, argv, check in GATES]
)
def test_cli_gate(argv, check, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = _shm_segments()
    assert main(argv) == 0
    check(capsys.readouterr().out)
    assert _shm_segments() <= before, "a run left a shared-memory segment behind"


#: Every scenario without a fault schedule (chaos runs only over ``local``).
FAULT_FREE = sorted(name for name, build in SCENARIOS.items() if not build().faults)


@pytest.mark.stress
@pytest.mark.parametrize("scenario", FAULT_FREE)
def test_outcomes_are_transport_invariant(scenario, capsys):
    """The same replay answers the same way in process, over the loopback
    wire and over HTTP: the ``outcomes`` block is equal on all three."""
    outcomes = {}
    for transport in TRANSPORTS:
        argv = ["loadgen", "--scenario", scenario, "--shards", "2", "--time-scale", "0",
                "--smoke", "--transport", transport, "--json", "-"]
        assert main(argv) == 0
        outcomes[transport] = json.loads(capsys.readouterr().out)["outcomes"]
    assert outcomes["local"]["completed"] == outcomes["local"]["requests"]
    assert outcomes["loopback"] == outcomes["local"] == outcomes["http"]


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.stress
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_standalone(example, tmp_path):
    """Each ``examples/*.py`` runs as a user runs it: its own process, ``src`` on the path."""
    path = [str(example.parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(example)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
