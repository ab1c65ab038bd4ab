"""A fixed kernel that measures how fast the machine is running right now.

On a shared host the same work can take up to 1.7x longer for stretches
of seconds to minutes while the process is on the CPU (no steal time
shows), so raw times of one run say as much about the neighbours as about
the code.  The runner times this kernel between operations and rescales
each operation to the speed at which the kernel takes REFERENCE_S seconds.
The kernel mixes small NumPy expressions with a Python-level Gram-Schmidt
loop, like the code under test, and does not touch gradbench, so a change
to gradbench cannot move it.
"""

import time

import numpy as np

REFERENCE_S = 0.010


def kernel():
    x = np.linspace(-1.0, 1.0, 24)
    total = 0.0
    for i in range(900):
        y = x * (1.0 + 1e-9 * i)
        total += float(np.sum(100.0 * (y[1:] - y[:-1] ** 2) ** 2 + (1.0 - y[:-1]) ** 2))
    Q = np.eye(28)
    for j in range(28):
        v = Q[:, j].copy()
        for i in range(j):
            v -= (Q[:, i] @ v) * Q[:, i]
    return total


def probe():
    """Seconds the kernel takes now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best
