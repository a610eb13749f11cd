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

import numpy as np

from .streams import Stream


def _tail_mean(x: Stream) -> float:
    """Mean of the tail cycle; ``math.fsum`` keeps it exact under cycle
    rotations.  A sum past the float range is taken on the cycle scaled
    down by an exact power of two, which leaves every other mean's bits."""
    cyc = x.tail_cycle
    try:
        return math.fsum(cyc) / len(cyc)
    except OverflowError:
        k = len(cyc).bit_length() + 1
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in cyc) / len(cyc), k)


def inf_value(x: Stream) -> float:
    """Worst utility over all periods: inf_t x_t (exact min)."""
    vals = list(x.prefix) + list(x.tail_cycle)
    return min(vals)


def liminf_value(x: Stream) -> float:
    """Worst recurring utility: liminf_t x_t.  The prefix is irrelevant."""
    return min(x.tail_cycle)


def banach_window_value(x: Stream) -> float:
    """Long-run value liminf_T inf_j of the average of x over [j, j+T].

    On an eventually periodic stream every shift-invariant normalized
    weighting agrees and equals the mean of the tail cycle.
    """
    return _tail_mean(x)


def cesaro_value(x: Stream) -> float:
    """lim_T (1/T) sum_{t<T} x_t, which is again the tail-cycle mean."""
    return _tail_mean(x)


def window_oracle(x: Stream, horizon: int) -> float:
    """inf over j >= 0 of the average of x over the window [j, j+horizon].

    Only the window starts j < len(prefix) + period yield distinct windows,
    so an exhaustive scan over those is exact.
    """
    if horizon < 0:
        raise ValueError(f"window horizon must be >= 0, got {horizon}")
    width = horizon + 1
    starts = len(x.prefix) + x.period
    vals = np.asarray(x.values(starts + width - 1), dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(vals)))
    window_sums = csum[width:width + starts] - csum[:starts]
    return float(window_sums.min() / width)
