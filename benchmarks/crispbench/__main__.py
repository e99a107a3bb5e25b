"""``python -m benchmarks.crispbench run|compare ...`` from the repository root."""

import sys

from .cli import main

sys.exit(main())
