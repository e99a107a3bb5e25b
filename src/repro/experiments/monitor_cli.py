"""CLI ``monitor``: the metrics plane's live snapshot and dashboard.

Two modes, one dashboard:

* **in-process** (default) — run a loadgen scenario with the full
  observability plane attached (``TelemetryPoller`` + ``EventLog`` +
  ``SLOMonitor``, exactly what ``loadgen --monitor`` wires) and render the
  collected time series, lifecycle events, and alert history.  With
  ``--watch`` the lifecycle events and alert transitions stream to stdout
  *while the scenario runs*, which is the "watch a chaos run until the
  alert fires" recipe in EXPERIMENTS.md.
* **remote scrape** (``--url http://host:port``) — poll a live
  :class:`~repro.gateway.transport.GatewayHTTPServer`'s ``GET /statsz``
  route on an interval, folding each snapshot into a local registry with
  the same :func:`~repro.metrics.poller.record_sample` mapping the server's
  own ``/metrics`` route uses, and evaluate the same alert rules against
  it.  ``--watch`` redraws the dashboard each tick.

``--json`` dumps the whole plane — ring-buffer series, alert state machine,
event log — as one machine-readable document.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..metrics import (
    MetricsRegistry,
    SLOMonitor,
    record_sample,
)
from .common import emit_json, flag
from .loadgen_cli import LoadgenConfig, run_loadgen

__all__ = ["MonitorConfig", "run_monitor", "print_monitor", "render_dashboard"]

#: Eight-level unicode sparkline ramp (empty series render as "-").
_SPARKS = " ▁▂▃▄▅▆▇█"


@dataclass
class MonitorConfig(LoadgenConfig):
    """Knobs of one ``monitor`` invocation: the (always monitored) loadgen
    run to observe in process, plus the remote-scrape mode's own three."""

    shards: int = flag("--shards", default=2)
    url: Optional[str] = flag(
        "--url", metavar="BASE_URL",
        help="monitor: scrape a live gateway's GET /statsz instead of "
        "running a scenario in process (e.g. http://127.0.0.1:8080)",
    )  #: switches to scrape mode
    ticks: int = flag(
        "--ticks", default=5, metavar="N",
        help="monitor --url: number of /statsz scrapes (default: 5)",
    )
    watch: bool = flag(
        "--watch", default=False,
        help="monitor: stream lifecycle events live (in-process mode) or "
        "redraw the dashboard per scrape (--url mode)",
    )
    # Loadgen options a monitor run does not read: plain fields, no flag.
    trace: bool = False
    autoscale: bool = False
    max_shards: Optional[int] = None
    measure: bool = False
    events_jsonl: Optional[str] = None
    decisions_jsonl: Optional[str] = None

    def __post_init__(self) -> None:
        self.monitor = True
        super().__post_init__()
        if self.ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {self.ticks}")


def _sparkline(values: List[float], width: int = 24) -> str:
    if not values:
        return "-"
    tail = values[-width:]
    low, high = min(tail), max(tail)
    if high <= low:
        return _SPARKS[1] * len(tail)
    span = high - low
    return "".join(
        _SPARKS[1 + int((v - low) / span * (len(_SPARKS) - 2))] for v in tail
    )


def render_dashboard(payload: Dict[str, object]) -> str:
    """The human face of one metrics dump (series + alerts + events)."""
    lines = [f"metrics plane — source: {payload.get('source', '?')}"]
    metrics = payload.get("metrics") or {}
    for name in sorted(metrics):
        family = metrics[name]
        for series in family.get("series", []):
            labels = series.get("labels") or {}
            rendered = name
            if labels:
                inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
                rendered = f"{name}{{{inner}}}"
            values = [point[1] for point in series.get("points", [])]
            last = values[-1] if values else 0.0
            lines.append(
                f"  {rendered:<56} {last:>12.4g}  {_sparkline(values)}"
            )
    monitor = payload.get("monitor") or {}
    active = monitor.get("active", [])
    history = monitor.get("history", [])
    lines.append(
        f"  alerts: {monitor.get('fired', 0)} fired, {len(active)} active"
    )
    for alert in history:
        lines.append(
            f"    [{alert['state']:>8}] {alert['rule']}: "
            f"{alert['metric']} = {alert['value']:.4g} "
            f"(threshold {alert['threshold']:g})"
        )
    event_counts = payload.get("event_counts")
    if event_counts:
        rendered = ", ".join(f"{kind}={n}" for kind, n in event_counts.items())
        lines.append(f"  events: {rendered}")
    return "\n".join(lines)


def _format_event(event: Dict[str, object]) -> str:
    kind = event.get("kind", "?")
    fields = ", ".join(
        f"{key}={event[key]}"
        for key in sorted(event)
        if key not in ("kind", "ts")
    )
    return f"  event: {kind:<16} {fields}"


def _run_scrape(config: MonitorConfig, stream) -> Dict[str, object]:
    """Remote mode: sample a live gateway's /statsz into a local registry."""
    base = config.url.rstrip("/")
    registry = MetricsRegistry()
    monitor = SLOMonitor(registry, config.alert_rules())
    scrapes = 0
    for tick in range(config.ticks):
        with urllib.request.urlopen(base + "/statsz", timeout=30.0) as response:
            stats = json.loads(response.read().decode("utf-8"))
        now = time.time()
        record_sample(registry, stats, now)
        monitor.evaluate(now=now)
        scrapes += 1
        if config.watch and stream is not None:
            payload = {
                "source": f"scrape {base}/statsz ({scrapes}/{config.ticks})",
                "metrics": registry.to_dict(),
                "monitor": monitor.to_dict(),
            }
            print(render_dashboard(payload), file=stream)
            print("", file=stream)
        if tick + 1 < config.ticks:
            time.sleep(config.poll_interval_s)
    return {
        "source": f"scrape {base}/statsz",
        "scrapes": scrapes,
        "metrics": registry.to_dict(),
        "monitor": monitor.to_dict(),
    }


def _run_scenario(config: MonitorConfig, stream) -> Dict[str, object]:
    """In-process mode: a monitored loadgen run; with ``watch``, each event
    of the run's log is printed as it is appended (alerts included)."""

    def on_event(event) -> None:
        print(_format_event(event.to_dict()), file=stream)

    watching = config.watch and stream is not None
    report, _ = run_loadgen(config, on_event=on_event if watching else None)
    summary = report.metrics_summary or {}
    return {
        "source": (
            f"scenario {config.scenario} ({config.shards} shard(s), "
            f"{config.workers} workers, seed {config.seed})"
        ),
        "metrics": report.monitor_artifacts["metrics"],
        "monitor": report.monitor_artifacts["monitor"],
        "events": report.monitor_artifacts["events"],
        "event_counts": summary.get("event_counts", {}),
        "samples": summary.get("samples", 0),
        "slo": report.to_dict(timing=True).get("slo", {}),
    }


def run_monitor(config: MonitorConfig, stream=None) -> Dict[str, object]:
    """Run one monitor pass; returns the machine-readable payload."""
    if config.url is not None:
        return _run_scrape(config, stream)
    return _run_scenario(config, stream)


def print_monitor(config: MonitorConfig) -> Dict[str, object]:
    """Run, print the dashboard, and emit the plane as JSON.

    The target is ``--metrics-json`` or else ``--json``; ``"-"`` replaces
    the live stream and the dashboard with the JSON on stdout, like
    ``print_loadgen``.
    """
    target = config.metrics_json or config.json
    payload = run_monitor(config, stream=None if target == "-" else sys.stdout)
    if target != "-":
        print(render_dashboard(payload))
    emit_json(payload, target)
    return payload
