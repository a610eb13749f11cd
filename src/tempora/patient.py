"""Patient (non-discounting) evaluation criteria.

Four constant-equivalent functionals that weigh the far future as much as
the present: the infimum criterion, the liminf criterion, the long-run
window criterion (liminf over T of the worst length-(T+1) window average),
and the Cesaro average.  On eventually periodic streams each one has an
exact closed form; :func:`window_oracle` provides the brute-force window
scan used to cross-check the closed forms at finite horizons.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

from .streams import Stream


def _mean(cyc: Sequence[float]) -> float:
    """Mean of a cycle; ``math.fsum`` keeps it exact under rotations.  A
    sum past the float range is taken on the cycle scaled down by an exact
    power of two, which leaves every other mean's bits."""
    try:
        return math.fsum(cyc) / len(cyc)
    except OverflowError:
        k = len(cyc).bit_length() + 1
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in cyc) / len(cyc), k)


# Each closed form below takes a prefix and a cycle, so that a stream
# (see the public functions) and a row of values (``rows`` of the patient
# criteria) share it.

def _least(pre: Sequence[float], cyc: Sequence[float]) -> float:
    """The least value, the first of equals as ``min`` takes it: 0.0 before
    -0.0 keeps 0.0."""
    return min(chain(pre, cyc))


def _least_recurring(pre: Sequence[float], cyc: Sequence[float]) -> float:
    return min(cyc)


def _long_run_mean(pre: Sequence[float], cyc: Sequence[float]) -> float:
    return _mean(cyc)


def inf_value(x: Stream) -> float:
    """Worst utility over all periods: inf_t x_t (exact min)."""
    return _least(x.prefix, x.tail_cycle)


def liminf_value(x: Stream) -> float:
    """Worst recurring utility: liminf_t x_t.  The prefix is irrelevant."""
    return _least_recurring(x.prefix, x.tail_cycle)


def banach_window_value(x: Stream) -> float:
    """Long-run value liminf_T inf_j of the average of x over [j, j+T].

    On an eventually periodic stream every shift-invariant normalized
    weighting agrees and equals the mean of the tail cycle.
    """
    return _long_run_mean(x.prefix, x.tail_cycle)


def cesaro_value(x: Stream) -> float:
    """lim_T (1/T) sum_{t<T} x_t, which is again the tail-cycle mean."""
    return _long_run_mean(x.prefix, x.tail_cycle)


def window_oracle(x: Stream, horizon: int) -> float:
    """inf over j >= 0 of the average of x over the window [j, j+horizon].

    Only the window starts j < len(prefix) + period yield distinct windows,
    so an exhaustive scan over those is exact.
    """
    import numpy as np
    if horizon < 0:
        raise ValueError(f"window horizon must be >= 0, got {horizon}")
    width = horizon + 1
    starts = len(x.prefix) + x.period
    vals = np.asarray(x.values(starts + width - 1), dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(vals)))
    window_sums = csum[width:width + starts] - csum[:starts]
    return float(window_sums.min() / width)
