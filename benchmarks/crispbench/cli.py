"""Command line: ``run`` one workload, or ``compare`` two sets of result files."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _program_importable() -> bool:
    """Put ``src/`` on the path when the caller did not (the driver does not)."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import repro  # noqa: F401
        except ImportError:
            return False
    return True


def _run(args: argparse.Namespace) -> int:
    from .registry import WORKLOADS

    names = [w.name for w in WORKLOADS]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not _program_importable():
        print(f"the program (src/repro) is not under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    from .check import stop_children
    from .runner import report, run

    seconds = args.seconds
    if seconds is None:
        seconds = 1.5 if args.smoke else float(_benchmark_json()["run_seconds"])
    spans_path = f"{args.out}.spans.jsonl" if args.out and args.trace else None
    # A terminated run leaves through the same door as a finished or failed one.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args.workload, args.seed, seconds, bool(args.trace), args.smoke, spans_path)
    finally:
        stop_children()
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    report(result)
    return 0 if result["correct"] else 1


def _compare(args: argparse.Namespace) -> int:
    from .compare import compare_paths

    return compare_paths(args.baseline, args.candidate)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="crispbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload and print every metric")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the timed window (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="0: end-to-end metrics, tracing off; 1: per-layer metrics from spans")
    run.add_argument("--out", help="write the full result record here "
                     "(and <out>.spans.jsonl on a traced run)")
    run.add_argument("--smoke", action="store_true",
                     help="two tenants, one set-up, tiny rounds; the record is marked smoke")
    run.set_defaults(handler=_run)

    compare = commands.add_parser(
        "compare", help="diff two result files, or two directories of them"
    )
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.set_defaults(handler=_compare)

    args = parser.parse_args(argv)
    return args.handler(args)
