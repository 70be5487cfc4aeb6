"""Host-speed probe: times a fixed numpy and Python mix on request.

run.py starts this as a separate process and asks for a sample between
operations, so the probe shares nothing with pspectral but the host: a
thread, tracing hook or heap that the measured code leaves behind cannot slow
it.  Each line read from standard input runs the mix once and writes its
time in seconds.  The mix resembles the measured code: gathers and
bincounts over a few thousand rows, small-array calls, and math.fsum.
"""

import math
import sys
import time

import numpy as np


def main():
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 40, size=(3000, 3))
    x = rng.random(40)
    small = rng.random((10, 2))
    for _ in sys.stdin:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(100):
            prods = np.cumprod(x[idx], axis=1)
            sums = np.bincount(idx.ravel(), weights=prods.ravel(), minlength=40)
            acc += math.fsum(sums.tolist())
            for _ in range(20):
                acc += float(np.prod(small, axis=1).sum())
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()
