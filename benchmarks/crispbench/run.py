"""The driver's entry point: ``python3 benchmarks/crispbench/run.py --workload ...``.

Run as a script, so the package is imported through the repository root,
which this file puts on the path; the arguments are those of ``run``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.crispbench.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
