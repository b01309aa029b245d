"""Child process behind the setup_s metric.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken to import addenergy and generate the workload's
deck in this fresh interpreter (interpreter start-up itself excluded).
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import addenergy  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.make(sys.argv[1], Path(__file__).resolve().parent.parent / "src").deck(int(sys.argv[2]))
print(time.perf_counter() - t0)
