"""Time the set-up of one workload in a fresh interpreter.

usage: python3 bench/setup_probe.py SRC_DIR PROBLEM_FILE...

Set-up is `import hardyshift` plus `load_problem` of every problem file
(parsing orthonormalizes the span subspaces).  Prints the seconds taken
and then the median seconds of seven calibration kernel runs made right
after it.  The caller pins the BLAS/OpenMP thread counts through the
environment.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hardyshift.problem import load_problem  # noqa: E402

for path in sys.argv[2:]:
    load_problem(path)
elapsed = time.perf_counter() - start

from calibration import kernel_seconds  # noqa: E402

print(elapsed, sorted(kernel_seconds() for _ in range(7))[3])
