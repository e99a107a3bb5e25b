"""Function-entry audit of ``src/repro``: which named functions does a run never enter?

Standard library only (``coverage.py`` is not installed).  Record one or more
runs into the same hits file, then report what none of them reached::

    PYTHONPATH=src python tools/fn_hits.py run HITS -m pytest -x -q
    python tools/fn_hits.py run HITS benchmarks/crispbench/run.py --workload edge-hot --smoke
    python tools/fn_hits.py report HITS

``run`` installs a trace function that returns ``None`` from every ``call``
event, so the interpreter reports function entries only and no line events
(tier-1 slows by about half).  The first entry of each code object under
``src/repro`` is appended to ``HITS`` as one ``O_APPEND`` write, which makes
the file safe to share: threads (``threading.settrace``), forked shard
children (they inherit the descriptor and leave through ``os._exit`` without
running any exit hook) and later runs all add to it.  A Python started through
``subprocess`` is a new interpreter and is not traced.  ``report`` compiles
every source file and walks the code objects for the denominator.
"""
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PREFIX = str(ROOT / "src" / "repro") + os.sep


def key(code) -> str:
    return f"{code.co_filename[len(PREFIX):]}:{code.co_firstlineno}:{code.co_name}"


def run(hits: str, argv: list) -> None:
    fd = os.open(hits, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    seen = {}  # id(code) -> code: holding the object keeps its id from being reused

    def tracer(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            if code.co_filename.startswith(PREFIX):
                os.write(fd, (key(code) + "\n").encode())

    threading.settrace(tracer)
    sys.settrace(tracer)
    if argv[0] == "-m":
        sys.argv = argv[1:]
        sys.path[0] = ""  # what ``python -m`` puts there
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = argv
        sys.path[0] = str(Path(argv[0]).resolve().parent)
        runpy.run_path(argv[0], run_name="__main__")


def audit(code, entered: set, missed: list) -> int:
    """Count the named functions and class bodies compiled into ``code`` and
    append the never-entered ones to ``missed`` — the outermost only: what a
    function that never ran contains did not run either.  Lambdas and
    comprehensions are part of whatever contains them."""
    total = 0
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            named = not const.co_name.startswith("<")
            total += named
            if named and key(const) not in entered:
                missed.append(const)
                total += audit(const, entered, [])
            else:
                total += audit(const, entered, missed)
    return total


def report(hits: str) -> None:
    entered = set(Path(hits).read_text().split())
    total, missed = 0, []
    for path in sorted(Path(PREFIX).rglob("*.py")):
        total += audit(compile(path.read_text(), str(path), "exec"), entered, missed)
    lines = 0
    for code in missed:
        span = max(line for _, _, line in code.co_lines() if line) - code.co_firstlineno + 1
        lines += span
        print(f"{key(code)}  ({span} lines)")
    print(f"{len(missed)} of {total} named functions and class bodies "
          f"({lines} lines) never entered")


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 3 and sys.argv[1] == "report":
        report(sys.argv[2])
    else:
        sys.exit(__doc__)
