"""Function-entry audit of ``src/repro``: which named functions does a run never enter?

Standard library only (``coverage.py`` is not installed).  Record one or more
runs into the same hits file, then report what none of them reached::

    PYTHONPATH=src python tools/fn_hits.py run HITS -m pytest -x -q
    python tools/fn_hits.py run HITS benchmarks/crispbench/run.py --workload edge-hot --smoke
    python tools/fn_hits.py report HITS

``test-only TIER1_HITS PRODUCT_HITS`` lists what the first file's runs entered
and the second's did not: record the test suite into one file and the runs a
user makes (CLI commands, benchmarks, pipelines) into the other, and the
listing is the code only tests reach.

``run`` installs a trace function that returns ``None`` from every ``call``
event, so the interpreter reports function entries only and no line events
(tier-1 slows by about half).  The first entry of each code object under
``src/repro`` is appended to ``HITS`` as one ``O_APPEND`` write, which makes
the file safe to share: threads (``threading.settrace``), forked shard
children (they inherit the descriptor and leave through ``os._exit`` without
running any exit hook) and later runs all add to it.  A Python started through
``subprocess`` is a new interpreter and is not traced.  ``report`` compiles
every source file and walks the code objects for the denominator.  It lists
the never-entered ``@abc.abstractmethod`` stubs (found with ``ast``) under
their own heading: an interface declares them and nothing calls them, so the
first list holds only code that can be deleted.
"""
import ast
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


def abstract_stubs(path: Path, source: str) -> set:
    """Keys of the ``@abstractmethod`` functions in one file.  A decorated
    function's code starts at its first decorator, so that line is its key."""
    stubs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            getattr(d, "attr", getattr(d, "id", None)) == "abstractmethod"
            for d in node.decorator_list
        ):
            first = min(d.lineno for d in node.decorator_list)
            stubs.add(f"{str(path)[len(PREFIX):]}:{first}:{node.name}")
    return stubs


def listing(codes: list) -> int:
    """Print one line per code object; return the lines they span."""
    lines = 0
    for code in codes:
        span = max(line for _, _, line in code.co_lines() if line) - code.co_firstlineno + 1
        lines += span
        print(f"{key(code)}  ({span} lines)")
    return lines


def sources():
    """``(path, source)`` of every file under ``src/repro``, in path order."""
    for path in sorted(Path(PREFIX).rglob("*.py")):
        yield path, path.read_text()


def report(hits: str) -> None:
    entered = set(Path(hits).read_text().split())
    total, missed, stubs = 0, [], set()
    for path, source in sources():
        total += audit(compile(source, str(path), "exec"), entered, missed)
        stubs |= abstract_stubs(path, source)
    dead = [code for code in missed if key(code) not in stubs]
    lines = listing(dead)
    print(f"{len(dead)} of {total} named functions and class bodies "
          f"({lines} lines) never entered")
    print("\nabstract stubs, declared by an interface and never called:")
    abstract = [code for code in missed if key(code) in stubs]
    lines = listing(abstract)
    print(f"{len(abstract)} abstract stubs ({lines} lines)")


def test_only(tests: str, product: str) -> None:
    """The outermost functions ``tests`` entered and ``product`` did not."""
    tested = set(Path(tests).read_text().split())
    used = set(Path(product).read_text().split())
    missed = []
    for path, source in sources():
        audit(compile(source, str(path), "exec"), used, missed)
    only = [code for code in missed if key(code) in tested]
    lines = listing(only)
    print(f"{len(only)} named functions and class bodies ({lines} lines) "
          f"entered by {tests} and not by {product}")


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 3 and sys.argv[1] == "report":
        report(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "test-only":
        test_only(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
