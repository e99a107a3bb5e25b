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
import threading
import time
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..metrics import (
    MetricsRegistry,
    SLOMonitor,
    default_rules,
    get_event_log,
    record_sample,
)
from .loadgen_cli import LoadgenConfig, run_loadgen

__all__ = ["MonitorConfig", "run_monitor", "print_monitor", "render_dashboard"]

#: Eight-level unicode sparkline ramp (empty series render as "-").
_SPARKS = " ▁▂▃▄▅▆▇█"


@dataclass
class MonitorConfig(LoadgenConfig):
    """Knobs of one ``monitor`` invocation: the (always monitored) loadgen
    run to observe in process, plus the remote-scrape mode's own three."""

    shards: int = 2
    url: Optional[str] = None  #: gateway base URL; switches to scrape mode
    ticks: int = 5  #: statsz scrapes per remote-scrape run
    watch: bool = False  #: stream events / redraw per tick

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
    monitor = SLOMonitor(
        registry,
        default_rules(
            p99_ms=config.alert_p99_ms,
            burn_ratio=config.alert_burn_rate,
            queue_depth=config.alert_queue_depth,
        ),
    )
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
    """In-process mode: a monitored loadgen run (optionally streamed live)."""
    if not config.watch or stream is None:
        report, _ = run_loadgen(config)
    else:
        # Live tail: run the scenario on a worker thread and stream the
        # process-wide event log (installed by run_loadgen) as it grows.
        results: List = []
        errors: List[BaseException] = []

        def _target() -> None:
            try:
                results.append(run_loadgen(config))
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        thread = threading.Thread(target=_target, name="repro-monitor-run")
        thread.start()
        seen = 0
        while thread.is_alive():
            log = get_event_log()
            if log is not None:
                events = [event.to_dict() for event in log.events()]
                for event in events[seen:]:
                    print(_format_event(event), file=stream)
                seen = len(events)
            time.sleep(config.poll_interval_s)
        thread.join()
        if errors:
            raise errors[0]
        report = results[0][0]
        for event in report.monitor_artifacts["events"][seen:]:
            print(_format_event(event), file=stream)
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


def print_monitor(
    config: MonitorConfig, json_target: Optional[str] = None
) -> Dict[str, object]:
    """Run, print the dashboard, optionally dump the plane as JSON.

    ``json_target``: ``None`` (no JSON), ``"-"`` (JSON-only stdout), or a
    path.  Mirrors ``print_loadgen``'s contract so the two subcommands
    compose identically in scripts.
    """
    stream = None if json_target == "-" else sys.stdout
    payload = run_monitor(config, stream=stream)
    serialized = json.dumps(payload, indent=2, sort_keys=True)
    if json_target == "-":
        sys.stdout.write(serialized + "\n")
        return payload
    print(render_dashboard(payload))
    if json_target is not None:
        with open(json_target, "w") as fh:
            fh.write(serialized + "\n")
        print(f"wrote {json_target}")
    return payload
