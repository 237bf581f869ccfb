"""One workload, one process: the command ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace
0|1`` prints one JSON object as its last stdout line. Run as a script, so
it puts ``src/`` and the package's parent on ``sys.path`` itself; without
``src/`` (a checkout stripped to the benchmark's own files) the import
fails and the process exits non-zero without printing a result.
"""

import sys
import time

PROCESS_START = time.perf_counter()

if __name__ == "__main__":
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parents[1] / "src"), str(here.parent)]
    from e2e.driver import main

    sys.exit(main(process_start=PROCESS_START))
