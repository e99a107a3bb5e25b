"""Paired crispbench runs of two commits: ``python tools/bench.py pair --parent <ref> --workload W``.

Each side is a fresh checkout at the same path length (the parent commit,
and the candidate: a commit, or by default the working tree's tracked and
untracked files), so neither gains from where it lives.  Pair ``i`` runs
both sides on seed ``seeds[i % len(seeds)]``, parent first in even pairs and
candidate first in odd ones; the default 10 pairs over seeds 1-5 run each
seed twice, once in each order.  Per metric it prints each side's median
[quartiles], the candidate's median over the parent's, in how many pairs the
candidate was better, and the parent's own IQR; ``*`` marks a median
difference larger than that IQR.  A pair in which both sides' ``setup_s`` or
``cpu_ms_per_op`` moved the same way by more than :data:`STEP` since the
last pair of the same seed is a host phase, listed apart rather than read as
a change (comparing one seed with itself keeps the seed's own cost out of it).
The checkouts live in a temporary directory removed at the end.  Stdlib
only; it edits nothing under ``benchmarks/crispbench/``.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKTREE = "WORKTREE"
STEP = 0.15  # a relative move of both sides' reading that counts as a host phase


def git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(("git", *args), cwd=cwd, check=True, capture_output=True).stdout


def checkout(repo: Path, ref: str, dest: Path) -> Path:
    """``ref``'s tree (or the working tree's files) extracted into ``dest``."""
    dest.mkdir(parents=True)
    if ref != WORKTREE:
        with tarfile.open(fileobj=io.BytesIO(git("archive", ref, cwd=repo))) as tar:
            tar.extractall(dest)
        return dest
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo)
    for name in filter(None, names.decode().split("\0")):
        if (repo / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, dest / name)
    return dest


def run(tree: Path, workload: str, seed: int, out: Path, trace: bool) -> dict:
    """One crispbench run in ``tree``; its ``metrics`` block, ``{}`` if it failed."""
    command = [sys.executable, "benchmarks/crispbench/run.py", "--workload", workload,
               "--seed", str(seed), "--out", str(out), "--trace", str(int(trace))]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True)
    if done.returncode or not out.exists():
        print(f"  {tree.name} seed {seed}: exit {done.returncode}\n{done.stderr.decode()[-800:]}")
        return {}
    return {name: block["value"] for name, block in json.loads(out.read_text())["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair(args, work: Path) -> int:
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    trees = {"parent": checkout(repo, args.parent, work / "side-p"),
             "change": checkout(repo, args.candidate, work / "side-c")}
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
              for m in json.loads((trees["parent"] / "BENCHMARK.json").read_text()).get(key, [])}
    rows = []
    for i in range(args.pairs):
        seed, order = seeds[i % len(seeds)], ["parent", "change"][:: 1 if i % 2 == 0 else -1]
        got = {side: run(trees[side], args.workload, seed, work / f"{side}-{i}.json",
                         args.trace) for side in order}
        if all(got.values()):
            rows.append((seed, got))
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): " + "  ".join(
            f"{metric} {got['parent'].get(metric, float('nan')):.4g}/{got['change'].get(metric, float('nan')):.4g}"
            for metric in ("cpu_ms_per_op", "latency_p50_ms") if got["parent"] and got["change"]),
            flush=True)
    if not rows:
        print("no pair completed on both sides")
        return 1
    print(f"\n{args.workload}: {len(rows)} pairs, parent {args.parent} vs {args.candidate} "
          f"(median [q1, q3]; ratio = change / parent; * = |diff| > parent IQR)")
    print(f"{'metric':<28} {'parent':>30} {'change':>30} {'ratio':>7} {'better':>7} {'parent IQR':>11}")
    ran, rows = [seed for seed, _ in rows], [got for _, got in rows]
    for metric in rows[0]["parent"]:
        side = {s: [r[s][metric] for r in rows if metric in r[s] and metric in r["change"]]
                for s in ("parent", "change")}
        if not side["parent"]:
            continue
        (p1, p2, p3), (c1, c2, c3) = quartiles(side["parent"]), quartiles(side["change"])
        sign = -1 if better.get(metric, "lower") == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        ratio = c2 / p2 if p2 else float("nan")
        flag = "*" if abs(c2 - p2) > p3 - p1 else " "
        print(f"{metric:<28} {p2:>12.4g} [{p1:.4g}, {p3:.4g}] {c2:>12.4g} [{c1:.4g}, {c3:.4g}] "
              f"{ratio:>6.3f}{flag} {wins:>3}/{len(side['parent']):<3} {p3 - p1:>11.4g}")
    steps, last = [], {}
    watched = [metric for metric in ("setup_s", "cpu_ms_per_op") if metric in rows[0]["parent"]]
    for seed, got in zip(ran, rows):
        for metric in watched if seed in last else ():
            moves = [got[s][metric] / last[seed][s][metric] - 1 for s in ("parent", "change")]
            if all(abs(m) > STEP for m in moves) and moves[0] * moves[1] > 0:
                steps.append(f"seed {seed}: {metric} {moves[0]:+.0%} / {moves[1]:+.0%}")
        last[seed] = got
    checked = watched and len(last) < len(rows)
    print("host phase: " + (("; ".join(steps) or "none flagged") if checked
                            else "not checked: needs untraced runs and a seed run twice"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    paired = commands.add_parser("pair", help="alternated crispbench pairs of two commits")
    paired.add_argument("--parent", required=True, help="the commit to compare against")
    paired.add_argument("--candidate", default=WORKTREE, help="a commit (default: the working tree)")
    paired.add_argument("--workload", required=True)
    paired.add_argument("--pairs", type=int, default=10)
    paired.add_argument("--seeds", default="1-5", help="inclusive range a-b, cycled over the pairs")
    paired.add_argument("--trace", action="store_true", help="traced runs: the per-layer rows")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as work:
        return pair(args, Path(work))


if __name__ == "__main__":
    sys.exit(main())
