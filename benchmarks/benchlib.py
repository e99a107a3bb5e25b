"""Shared helpers for the benchmark scripts' script-mode (CI smoke) runs.

The benchmark scripts import this module, which works from either entry
point: running a script directly puts ``benchmarks/`` on ``sys.path``, and
pytest's rootdir insertion does the same when the files are collected.
"""

import json
import os
import platform
import subprocess
import sys
import time


def host_context():
    """Host provenance stamped into every benchmark payload.

    A latency number is only comparable to another taken on a comparable
    host, so each BENCH_*.json records where it came from: CPU count,
    platform, Python version, and the git commit (``GITHUB_SHA`` in CI,
    ``git rev-parse`` locally, ``None`` outside a checkout).
    """
    sha = os.environ.get("GITHUB_SHA")
    if not sha:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip() or None
        except Exception:
            sha = None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "git_sha": sha,
    }


def best_of(fn, *args, repeat=3):
    """Best-of-``repeat`` wall-clock seconds for ``fn(*args)``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _record_metadata(config):
    """Deployment metadata stamped into every record: backend, shards, workers.

    The backend the script's engines were built for, the shard count and the
    worker execution model (threaded shards vs process shards on
    shared-memory weights) are the knobs that change what a number means
    across PRs, so each record carries them.  All three are read from the
    script's ``config``; a script that builds no engine stamps ``backend``
    ``None``.  Single-process benchmarks are shard count 1 with threaded
    (in-process) execution.
    """
    config = config if isinstance(config, dict) else {}
    return {
        "backend": config.get("backend"),
        "shards": config.get("shards", 1),
        "workers": config.get("workers", "threaded"),
    }


def write_records(path, benchmark, config, records):
    """Write one machine-readable BENCH_*.json payload and announce it.

    The schema is shared by every benchmark script so the perf trajectory
    can be tracked across PRs: ``{"benchmark", "config", "records"}`` with
    each record carrying at least ``name``, ``unit`` and ``value`` plus the
    stamped ``backend``/``shards`` deployment metadata (records that already
    set either key keep their own value).
    """
    metadata = _record_metadata(config)
    for record in records:
        for key, value in metadata.items():
            record.setdefault(key, value)
    payload = {
        "benchmark": benchmark,
        "config": config,
        "host": host_context(),
        "records": records,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")
