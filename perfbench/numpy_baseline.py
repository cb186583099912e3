"""Time ``numpy.linalg.inv`` on the benchmark's matrix, in a process that
never imports ``repro``: a change to how the program configures BLAS cannot
move this denominator of ``slowdown_vs_numpy``.

Reads ``n`` from argv and the ``n x n`` float64 matrix, C order, from stdin;
prints one JSON object with the seconds of each timed inversion.

    python3 perfbench/numpy_baseline.py N MIN_SECONDS < matrix.bin
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def main() -> int:
    n, min_seconds = int(sys.argv[1]), float(sys.argv[2])
    a = np.frombuffer(sys.stdin.buffer.read(), dtype=np.float64).reshape(n, n)
    for _ in range(3):  # BLAS thread pool start-up and page faults
        np.linalg.inv(a)
    samples: list[float] = []
    end = time.perf_counter() + min_seconds
    while len(samples) < 15 or time.perf_counter() < end:
        start = time.perf_counter()
        np.linalg.inv(a)
        samples.append(time.perf_counter() - start)
    print(json.dumps({"samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
