"""Time one set-up in a fresh process: import the package, then generate the
workload's instances and round-trip them through MPS.

    python3 perfbench/setup_time.py <workload> <seed>

Prints the seconds taken; run.py starts it several times and reports the
median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports numpy and diversitree)

workloads.build_ops(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
