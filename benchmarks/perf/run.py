"""Benchmark entry point named by ``BENCHMARK.json``.

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload once and prints one JSON result
line last on stdout.  Runs from any directory: the repository root is
found from this file's location.
"""

import os
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

if __name__ == "__main__":
    from benchmarks.perf.driver import main

    sys.exit(main())
