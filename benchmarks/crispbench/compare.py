"""Diff two sets of untraced result files, one row per workload x end-to-end metric.

A row's verdict is ``ok``, ``regressed`` or ``unresolved``.  ``unresolved``
means the spread inside the runs is wider than the metric's bound and the two
runs' rounds overlap, so the files cannot tell a change from noise.  Files are
compared only when they ran the same plan (digest), on the same host stamp,
and neither is a smoke record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from .registry import END_TO_END, EndToEnd


def load(path: str) -> Dict[Tuple[str, int], Dict]:
    """Result records under ``path`` (a file or a directory), keyed by (workload, seed)."""
    source = Path(path)
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        if record.get("traced"):
            continue  # per-layer records carry no end-to-end metrics
        records[(record["workload"], record["seed"])] = record
    return records


def refusal(base: Dict, new: Dict) -> str:
    """Why the two records must not be compared, or an empty string."""
    if base.get("smoke") or new.get("smoke"):
        return "a smoke record is not a measurement"
    if base["plan_digest"] != new["plan_digest"]:
        return f"plan digests differ ({base['plan_digest'][:12]} vs {new['plan_digest'][:12]})"
    if base["host"] != new["host"]:
        return f"host stamps differ ({base['host']} vs {new['host']})"
    if base["seconds"] != new["seconds"]:
        return f"window lengths differ ({base['seconds']} vs {new['seconds']} s)"
    return ""


def _rounds(entry: Dict) -> List[float]:
    return entry.get("rounds") or entry.get("repeats") or [entry["value"]]


def _spread(entry: Dict) -> float:
    values = _rounds(entry)
    return entry.get("spread", (max(values) - min(values)) / entry["value"] if entry["value"] else 0.0)


def verdict(metric: EndToEnd, base: Dict, new: Dict) -> Tuple[str, float, str]:
    """``(verdict, worse_by, reason)``; ``worse_by`` is a share of the baseline value."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"]) / base["value"] if base["value"] else 0.0
    spread = max(_spread(base), _spread(new))
    if spread <= metric.bound:
        return ("regressed" if worse_by > metric.bound else "ok"), worse_by, ""
    base_rounds = [sign * v for v in _rounds(base)]
    new_rounds = [sign * v for v in _rounds(new)]
    if max(new_rounds) < min(base_rounds):
        return "ok", worse_by, "every round better than every baseline round"
    if min(new_rounds) > max(base_rounds) and worse_by > metric.bound:
        return "regressed", worse_by, "every round worse than every baseline round"
    return "unresolved", worse_by, f"spread {spread:.3f} > bound {metric.bound} and the rounds overlap"


def compare_paths(baseline: str, candidate: str, stream=sys.stdout) -> int:
    """Print the table; exit code 0 = no regression, 1 = regressed, 2 = refused."""
    base_records, new_records = load(baseline), load(candidate)
    shared = sorted(set(base_records) & set(new_records))
    if not shared:
        print("nothing to compare: no (workload, seed) is in both sets", file=stream)
        return 2
    for key in shared:
        why = refusal(base_records[key], new_records[key])
        if why:
            print(f"refusing to compare {key[0]} seed {key[1]}: {why}", file=stream)
            return 2
    print(
        f"{'workload':<11}{'seed':>5} {'metric':<17}{'unit':<6}{'baseline':>12}{'spread':>8}"
        f"{'candidate':>12}{'spread':>8}{'cand/base':>10}{'bound':>7}  verdict",
        file=stream,
    )
    regressed = 0
    for workload, seed in shared:
        base, new = base_records[(workload, seed)], new_records[(workload, seed)]
        for metric in END_TO_END:
            a, b = base["metrics"][metric.name], new["metrics"][metric.name]
            outcome, worse_by, reason = verdict(metric, a, b)
            regressed += outcome == "regressed"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(
                f"{workload:<11}{seed:>5} {metric.name:<17}{metric.unit:<6}{a['value']:>12.5g}"
                f"{_spread(a):>8.3f}{b['value']:>12.5g}{_spread(b):>8.3f}"
                f"{ratio:>10.4f}{metric.bound:>7.3f}  {outcome}"
                + (f" ({reason})" if reason else ""),
                file=stream,
            )
    for key in sorted(set(base_records) ^ set(new_records)):
        print(f"only in one set: {key[0]} seed {key[1]}", file=stream)
    print(
        "cand/base is the candidate's value over the baseline's; worse-than-bound is a "
        "regression unless the rounds overlap (unresolved).",
        file=stream,
    )
    return 1 if regressed else 0
