"""The reference kernel: the host's speed, measured beside the program.

The host this benchmark was built on runs the same Python code at two
speeds, switching every second or so and sometimes staying slow for half
a minute: one kernel run takes 0.12 ms to 0.25 ms, and a pass over the
``cli_corpus`` operations 320 ms or 700 ms.  Wall times alone measure
that as much as the program.  So ``run.py`` times this kernel, which
shares no code with ``tempora``, right before and after every operation
and every fresh start, and scales each time by ``REFERENCE_S`` over the
kernel's time around it: times are reported at the reference speed.  In
100 s of back-to-back ``cli_corpus`` passes the raw time of a pass ranged
over a factor of 2.2 (324 ms to 700 ms) and its ratio to the kernel's
time over a factor of 1.3.

The kernel does what ``tempora`` spends its time on: a Python loop over
floats, a dict through ``json`` and small numpy expressions.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Kernel seconds at the reference speed: the fast state of the host the
#: benchmark was built on (Intel Xeon, 2 vCPUs, Python 3, numpy 2).
REFERENCE_S = 1.3e-4

_XS = [((i * 7919) % 1000) / 1000.0 for i in range(300)]
_A = np.linspace(0.0, 1.0, 257)
_D = {str(i): i * 0.5 for i in range(60)}


def _kernel() -> float:
    v = 0.0
    for x in reversed(_XS):
        v = x + 0.9 * v
    v += len(json.loads(json.dumps(_D)))
    for i in range(15):
        v += float(np.min(_A * 0.3 + np.sqrt(_A) - (i % 7)))
    return v


def sample() -> float:
    """Seconds of one kernel run: the faster of two back to back, so that
    one interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def settled(n: int = 9) -> float:
    """Median of ``n`` samples after one unmeasured run (for a fresh
    process, whose first run pays for cold caches)."""
    _kernel()
    return statistics.median(sample() for _ in range(n))
