"""D on arrays of factors, and the minimum over the discount factor of
D_delta(x) + cost(delta): the layer of the package that works on arrays.

The closed forms live in :mod:`tempora.discounting`, which loads no numpy:
its maxmin and variational criteria, the criteria's ``rows``, each cost's
``pieces`` and ``evaluate_many`` import this module, or numpy, inside, so
a closed-form command loads neither.

The objective delta -> D_delta(x) + cost(delta) need not be convex, so
the minimizer runs a fixed grid of ``_NODES`` nodes per continuous piece
of the cost followed by golden-section refinement: one bracket at each
end of the grid and one per run of adjacent grid minima, so a flat run is
searched once, not once per node.
Only brackets whose certified lower bounds, one from the objective's
slope and one from its curvature, both undercut the grid's best value are
searched, and of those only the ones that the curvature bound does not
prove monotone, whose search would end at a grid node no lower than the
grid's best; a search skipped could not have won, so the bits are those
of searching them all.
Finite point sets
and the knots of a tabulated cost (kinks of the objective) are enumerated
exactly.  ``evaluate_many`` gives the same bits for many streams at once:
it groups them by shape (prefix length and period) and hands each group
to the criterion's ``rows`` as one array, one row of values per stream.
Edu and each isolated point of a cost take the closed form at one
factor on every row.  From ``_COARSE_MIN`` rows on, the grid is scanned
coarse to fine, ``_BLOCK`` rows at a time (every ``_STRIDE``-th node
first, then only the segments between them that the same certificate
cannot rule out).  From ``_GROUPED_MIN`` rows of a block on, that
certificate first drops segments for each group of ``_GROUP`` rows at
once, from the group's envelope, its elementwise least and greatest rows,
since D is monotone in the values; each row then takes its own value only
at the coarse nodes that end its group's kept segments.  From
``_LOCKSTEP_MIN`` kept brackets on, one piece's brackets of every row are
refined in one lockstep golden-section search on lanes of those rows, all
of one shape.  Below ``minimize_over_delta`` and ``_minimize_rows`` the
minimizer reads canonical rows of values alone, a prefix then a cycle (a
constant tail is a cycle of one), and builds no stream: a single stream is
a batch of one row.

Everything here is a pure function of immutable inputs; independent
(criterion, stream) evaluations can run concurrently without coordination.
The only shared state is ``functools.lru_cache`` caches of read-only
arrays: the grids, and each grid's stream-independent factors d^n and
1 - d^p, each factor cache within ``_FACTOR_CACHE`` entries of ``_NODES``
floats (128 x 2001 x 8 bytes, about 2 MB).  ``lru_cache`` is thread-safe,
and a racing miss computes the same read-only bits twice.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import patient
from .discounting import _MAX, _UP, CostFunction, _Cost, _dv_scalar, discounted_value
from .errors import InvalidCost, InvalidDelta
from .streams import Stream


# ---------------------------------------------------------------------------
# discounted value on arrays
# ---------------------------------------------------------------------------

#: Grid nodes per continuous cost piece.
_NODES = 2001

#: Entries of the grid cache, and of each cache of the grids' factors.
_GRID_CACHE = 16
_FACTOR_CACHE = 128


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _powers(d: list[float], ns: Iterable[int]) -> np.ndarray:
    """``d[i] ** ns[i]`` with the scalar form's ``pow``: numpy's ``power``,
    like its ``log`` and ``expm1``, may differ from Python's in the last bit."""
    return np.array(list(map(pow, d, ns)))


def _denoms(d: np.ndarray, p: int) -> np.ndarray:
    """``1 - d ** p`` for a period ``p > 1`` as the scalar form takes it,
    ``-expm1(p * log(d))`` with Python's ``math``; 1.0 where ``d == 0``,
    where the scalar form does not divide."""
    live = d != 0.0
    out = np.ones(d.shape)
    out[live] = np.negative(list(map(math.expm1, map(
        mul, repeat(p), map(math.log, d[live].tolist())))))
    return out


class _Grid(NamedTuple):
    """A piece's grid: its ends and its read-only nodes
    ``d = np.linspace(a, b, _NODES)``."""

    a: float
    b: float
    d: np.ndarray


@functools.lru_cache(maxsize=_GRID_CACHE)
def _grid(a: float, b: float) -> _Grid:
    """The cached grid of the piece [a, b]."""
    return _Grid(a, b, _frozen(np.linspace(a, b, _NODES)))


@functools.lru_cache(maxsize=_FACTOR_CACHE)
def _grid_power(a: float, b: float, n: int) -> np.ndarray:
    """d^n on the grid of [a, b], read-only."""
    return _frozen(_powers(_grid(a, b).d.tolist(), repeat(n)))


@functools.lru_cache(maxsize=_FACTOR_CACHE)
def _grid_denom(a: float, b: float, p: int) -> np.ndarray:
    """1 - d^p on the grid of [a, b], read-only."""
    return _frozen(_denoms(_grid(a, b).d, p))


def _horner(coeffs, d: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * d^j by Horner's rule, on a fresh array shaped
    like ``d``; each coefficient is a number or an array of that shape.
    Zero coefficients at the far end leave the bits as they are: the sum
    stays +0.0 until the first real coefficient, as in the scalar form."""
    s = np.zeros(d.shape)
    for v in reversed(coeffs):
        s *= d
        s += v
    return s


def _dv_array(prefix, cycle, d: np.ndarray, power: np.ndarray,
              denom: np.ndarray | None) -> np.ndarray:
    """D_d at each factor of ``d`` in [0, 1) with :func:`_dv_scalar`'s bits:
    ``(1 - d) * s + power * tail``, ``s`` the prefix's Horner sum.

    The coefficients are numbers (one stream) or arrays that broadcast to
    ``d``'s shape (one stream per element, or per row).  The tail is ``(1
    - d) * t / denom``, ``t`` the cycle's Horner sum, and where ``denom``
    is None, for a constant tail, ``cycle[0]``.  The products are taken in
    place, which keeps their bits (a float product commutes) and leaves
    three arrays shaped like ``d`` alive at most.  An overflow is retaken
    as in :func:`discounted_value`, under the caller's ``np.errstate``.
    """
    one_minus = 1.0 - d
    out = _horner(prefix, d)
    out *= one_minus
    if denom is None:
        tail = power * cycle[0]
    else:
        tail = _horner(cycle, d)
        tail *= one_minus
        tail /= denom
        tail *= power
    out += tail
    # A finite sum has no term that is not finite.
    if not math.isfinite(out.sum()):
        retaken = _UP * _dv_array(np.divide(prefix, _UP), np.divide(cycle, _UP), d, power, denom)
        np.copyto(out, np.clip(retaken, -_MAX, _MAX), where=~np.isfinite(out))
    return out


def discounted_value_grid(prefix, cycle, g: _Grid) -> np.ndarray:
    """:func:`discounted_value` of the stream ``prefix`` then ``cycle``
    repeated, in canonical form, at each node of a cached grid ``g`` of the
    minimizer, bit for bit, with the grid's factors d^n and 1 - d^p from
    their bounded caches."""
    n, p = len(prefix), len(cycle)
    a, b, d = g
    return _dv_array(prefix, cycle, d, _grid_power(a, b, n),
                     _grid_denom(a, b, p) if p > 1 else None)


def discounted_values(x: Stream, deltas) -> np.ndarray:
    """:func:`discounted_value` of ``x`` at each factor of ``deltas``, bit
    for bit, as one array: one pass of the array form over the factors
    below 1, with the scalar form's d^n and 1 - d^p, and the tail mean at 1.

    Raises:
        InvalidDelta: if a factor is outside [0, 1] (or NaN).
    """
    d = np.array(deltas, dtype=float)
    inside = (0.0 <= d) & (d <= 1.0)
    if not inside.all():
        raise InvalidDelta(f"discount factor must lie in [0, 1], got {d[~inside][0]}")
    prefix, cycle = x.prefix, x.tail_cycle
    n, p = len(prefix), len(cycle)
    out = np.full(d.shape, patient._mean(cycle))
    below = d < 1.0
    live = d[below]
    with np.errstate(over="ignore", invalid="ignore"):
        out[below] = _dv_array(prefix, cycle, live, _powers(live.tolist(), repeat(n)),
                               _denoms(live, p) if p > 1 else None)
    return out


def _dv_at(n: int, vals: np.ndarray, delta: float) -> np.ndarray:
    """D_delta of each row of ``vals``, a prefix of ``n`` values then a
    cycle, at one factor ``delta`` in [0, 1), with :func:`_dv_scalar`'s
    bits."""
    cols, d = vals.T, np.full(len(vals), delta)
    p = len(cols) - n
    with np.errstate(over="ignore", invalid="ignore"):
        return _dv_array(cols[:n], cols[n:], d, _powers([delta], [n]),
                         _denoms(d[:1], p) if p > 1 else None)


# ---------------------------------------------------------------------------
# cost pieces
# ---------------------------------------------------------------------------

class _Piece:
    """A continuous finite-cost piece [a, b] of a cost.

    ``scalar(delta)`` is the cost at one factor and ``lanes(d)`` the cost
    at each factor of an array, with ``scalar``'s bits.  ``on_grid`` is
    ``lanes`` on the piece's grid ``_grid(a, b)``, read-only and built with
    the piece.  ``bound(lo, hi)`` is (a bound on the cost's slope, a bound
    on its second derivative) on [lo, hi], for numbers, or for arrays
    element by element; the second is inf where the cost has a kink
    inside (lo, hi).
    """

    __slots__ = ("a", "b", "scalar", "lanes", "bound", "on_grid")

    def __init__(self, a: float, b: float, scalar: Callable[[float], float],
                 lanes: Callable[[np.ndarray], np.ndarray], bound: Callable):
        self.a, self.b, self.scalar, self.lanes, self.bound = a, b, scalar, lanes, bound
        self.on_grid = _frozen(lanes(_grid(a, b).d))


# ---------------------------------------------------------------------------
# minimization over the discount factor
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Golden-section search stops at a bracket ``_XTOL`` wide.  Every bracket
#: lies in [0, 1), and a bracket 1 wide shrinks below 1e-9 in 44 steps
#: (0.618^44 < 1e-9 < 0.618^43), so no search takes more.
_XTOL = 1e-9


def _golden(fun: Callable[[float], float], a: float, b: float, fa: float,
            fb: float) -> tuple[float, float]:
    """Golden-section minimum of ``fun`` on [a, b], whose ends' values
    ``fa = fun(a)`` and ``fb = fun(b)`` are given; returns (argmin, value).
    It steps until the bracket is at most ``_XTOL`` wide: at most 44 steps
    on a bracket inside [0, 1)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > _XTOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fun(x2)
    xm = 0.5 * (a + b)
    candidates = [(fun(xm), xm), (f1, x1), (f2, x2), (fa, a), (fb, b)]
    best_v, best_x = min(candidates)
    return best_x, best_v


def _golden_lockstep(fun: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray,
                     fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_golden` on every bracket [a[i], b[i]] at once, its ends'
    values ``fa[i]`` and ``fb[i]`` given: (argmins, values), as arrays.

    ``fun`` is the objective of bracket i on lane i (see :func:`_lanes`).
    Each lane takes ``_golden``'s steps with the same IEEE operations and
    keeps its state from where ``_golden`` would stop, while the others
    step on, so its (argmin, value) has ``_golden``'s bits.  Until the
    first lane stops, every lane steps and no state is restored; the loop
    ends when no lane is live, so it takes the steps of the widest lane.
    """
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while (live := b - a > _XTOL).any():
        was = a, b, x1, x2, f1, f2
        # f1 <= f2: b, x2, f2 = x2, x1, f1 and a new x1; else the mirror.
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        new = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        x1, x2 = np.where(left, new, x2), np.where(left, x1, new)
        f = fun(new)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
        if not live.all():
            a, b, x1, x2, f1, f2 = (np.where(live, v, w)
                                    for v, w in zip((a, b, x1, x2, f1, f2), was))
    xm = 0.5 * (a + b)
    best_v, best_x = fun(xm), xm
    for v, x in ((f1, x1), (f2, x2), (fa, a), (fb, b)):
        best_v, best_x = _lesser(v, x, best_v, best_x)
    return best_x, best_v


def _less(v, x, best_v, best_x):
    """Whether the candidate (value, factor) ``(v, x)`` is less than
    ``(best_v, best_x)`` as tuples compare, for numbers or arrays (then
    element by element): the rule by which ``min()`` over such tuples
    takes a later candidate, so that candidates folded with it in their
    order keep ``min()``'s bits, NaN values and signed zeros included."""
    return (v < best_v) | ((v == best_v) & (x < best_x))


def _lesser(v, x, best_v, best_x):
    """The arrays ``(v, x)`` where :func:`_less` holds, and ``(best_v,
    best_x)`` elsewhere."""
    less = _less(v, x, best_v, best_x)
    return np.where(less, v, best_v), np.where(less, x, best_x)


def _lanes(n: int, vals: np.ndarray, cost: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """The objective d -> D_d(x) + cost(d) on lanes of rows of one shape,
    row i of ``vals`` (a prefix of ``n`` values, then a cycle) on lane i,
    one factor per lane in [0, 1), with the bits of ``_dv_scalar(x)(d) +
    scalar cost`` lane by lane; ``cost`` is a piece's ``lanes``.

    The terms that do not depend on the row, d^n, 1 - d^p and the cost,
    are taken once per run of adjacent lanes with the same factor (the
    same bits: ``pow(-0.0, 3)`` is -0.0) and gathered back to the run's
    lanes.  Neighbouring brackets tend to step alike, so runs are long.
    """
    cols = np.ascontiguousarray(vals.T)
    p = len(cols) - n

    def objective(d: np.ndarray) -> np.ndarray:
        bits = d.view(np.int64)
        starts = np.r_[True, bits[1:] != bits[:-1]]
        run = np.cumsum(starts) - 1
        u = d[starts]
        power = _powers(u.tolist(), repeat(n))[run]
        denom = _denoms(u, p)[run] if p > 1 else None
        out = _dv_array(cols[:n], cols[n:], d, power, denom)
        out += cost(u)[run]
        return out

    return objective


def _margin(n, p, norm, slope, f_lo, f_hi):
    """The float margin ``E = 2^-44 (n + p + 15) (1 + |f(lo)| + |f(hi)| +
    ||x||_inf + L_cost)`` of :func:`_dropped` and :func:`_monotone` on a
    bracket [lo, hi], for numbers or arrays, with n, p and ||x||_inf those
    of the stream x and ``L_cost`` from ``piece.bound``.

    The float f = D_d(x) + cost at a factor t takes at most 2 (n + p) + 30
    roundings of relative size 2^-53, on terms bounded by ||x||_inf (the
    weights sum to at most 1), |f(t)| + ||x||_inf or L_cost, so it errs by
    at most 2^-52 (n + p + 15) (|f(t)| + ||x||_inf + L_cost), to first
    order in 2^-52 (n + p): by E / 256 where |f(t)| <= 1 + |f(lo)| +
    |f(hi)|, at the ends say, and by E / 128 where |f(t)| <= 1 + |f(lo)| +
    |f(hi)| + ||x||_inf + L_cost.  A D taken over 2^64 (see
    :func:`discounted_value`) errs alike, and by 2^-1000 (n + p) more at
    most where a quotient or a step is subnormal: the 1 in E covers that.
    The rest of E is each certificate's slack for the rounding of its test.
    Its sum is taken in quarters, so that it cannot overflow on finite terms.
    """
    return 2.0 ** -42 * (n + p + 15) * (0.25 + abs(f_lo) * 0.25 + abs(f_hi) * 0.25
                                        + norm * 0.25 + slope * 0.25)


def _dropped(piece: _Piece, n, p, norm, r, lo, hi, f_lo, f_hi, best):
    """Whether f = D_d(x) + cost is certified to lie strictly above ``best``
    on [lo, hi], its ends' values ``f_lo`` and ``f_hi`` given, with n, p,
    ||x||_inf and r those of the stream x: its prefix length and period,
    the greatest |x_t| and ``r = max x / 2 - min x / 2``, which cannot overflow.

    The closed form takes numbers, or numpy arrays that broadcast together
    (then element by element): it is written with operators alone.  It holds
    where either of two lower bounds of f on [lo, hi], less the margin E of
    :func:`_margin`, lies above ``best``: the Piyavskii–Shubert bound
    ``(f(lo) + f(hi) - L (hi - lo)) / 2``, with ``L = 2 r (T + 1) hi^T +
    L_cost``, ``T = floor(hi / (1 - hi))`` and ``L_cost`` from
    ``piece.bound``; or the interpolation bound ``min(f(lo), f(hi)) - M2
    (hi - lo)^2 / 8``, with M2 the curvature bound of :func:`_curvature`.
    The first is the tighter far from the minimum, the second on short
    segments near it, where ``L (hi - lo) / 2`` far exceeds f's variation.

    Proof.  The weights w_t = (1 - d) d^t sum to 1, so D' = sum_t w_t' (x_t
    - c) for the midpoint c of the values; w_t' < 0 up to T and > 0 after,
    so sum_t |w_t'| = 2 d/dd d^(T+1) = 2 (T + 1) d^T = max_m 2 (m + 1) d^m,
    continuous and nondecreasing: |f'| <= L on [lo, hi], and f lies above
    the first bound there.  And |f''| <= M2 on [lo, hi] (see
    :func:`_curvature`), so f lies within M2 (t - lo) (hi - t) / 2 <= M2
    (hi - lo)^2 / 8 of its chord, which lies above min(f(lo), f(hi)): f
    lies above the second bound.  Golden-section steps evaluate f only in
    the bracket (b - fl(k fl(b - a)) and a + fl(k fl(b - a)), k < 0.62,
    stay in [a, b]), and a coarse segment's grid nodes lie in it.  By
    :func:`_margin`, the float ends err by at most E / 256, and a float
    f(t) that could reach ``best`` by at most E / 128, since there
    -||x||_inf <= f(t) <= max(f(lo), f(hi)) + E (D >= -||x||_inf and the
    cost is >= 0).  Each bound's own rounding fits in the rest: where it
    exceeds ``best`` (>= -||x||_inf - E), L (hi - lo) < f(lo) + f(hi) - 2
    best and M2 (hi - lo)^2 / 8 < min(f(lo), f(hi)) - best, so each of its
    terms is at most 2 (|f(lo)| + |f(hi)| + ||x||_inf + E), and its few
    roundings, in any order, those of M2, r and ``hi - lo`` included, and a
    float T off by one (2^-52 of L) err by a few 2^-53 of that, while E is
    at least 2^-40 of it; the least end is taken exactly.  So where this
    holds, f lies strictly above ``best`` at every grid node and every
    golden-section step in [lo, hi].  Taken in halves, E in quarters and M2
    over 2^64 (the same bits away from overflow and subnormals, and within
    2^-1000 of them, which the 1 in E covers), a bound less E overflows only
    where L (hi - lo) or M2 (hi - lo)^2 does, to -inf or NaN, and fails.
    """
    slope, curvature = piece.bound(lo, hi)
    w = hi - lo
    t = hi / (1.0 - hi) // 1.0
    e = _margin(n, p, norm, slope, f_lo, f_hi)
    lipschitz = f_lo * 0.5 + f_hi * 0.5 - (r * ((t + 1.0) * hi ** t) + slope * 0.5) * w
    # min(f(lo), f(hi)) with operators alone, exactly: one product is by 0.
    least = f_lo * (f_lo <= f_hi) + f_hi * (f_lo > f_hi)
    chord = least - _curvature(n, p, r, hi, curvature) * w * w * 2.0 ** 61
    return (lipschitz - e > best) | (chord - e > best)


def _curvature(n, p, r, hi, curvature):
    """The bound ``M2 = r min(G, U) + C`` on |f''| for f = D_d(x) + cost on
    any bracket [lo, hi], over 2^64 (``_UP``) so that M2 (hi - lo)^2 may
    be finite where M2 is not, for numbers or arrays, with n, p and r those
    of the stream x: ``G = 4 / (1 - hi)^3``, ``U = sum_{t<n} 2 t^2 + p ((n
    + p)^2 + (n + p) p^2 + p^4)`` and ``C`` the bound on the cost's second
    derivative from ``piece.bound``.

    Proof.  As in :func:`_dropped`, D'' = sum_t w_t'' (x_t - c), so |D''|
    <= r sum_t |w_t''|.  For w_t = (1 - d) d^t, w_t'' = t (t - 1) d^(t-2) -
    (t + 1) t d^(t-1), so sum_t |w_t''| <= 2 / (1 - d)^3 + 2 / (1 - d)^3,
    nondecreasing in d: at most G on [lo, hi].  Gathering the tail, the
    weights are w_t for t < n, with |w_t''| <= t (t + 1) <= 2 t^2 on [0,
    1], and W_k = d^(n+k) / S for the cycle's k < p, with S = 1 + d + ...
    + d^(p-1) >= 1, 0 <= S' <= p^2 / 2 and 0 <= S'' <= p^3 / 3; so
    |(1/S)'| <= p^2 / 2, |(1/S)''| <= S'' + 2 S'^2 <= p^4 and |W_k''| <=
    (n + p)^2 + (n + p) p^2 + p^4: at most U on [0, 1].  The cost is twice
    differentiable on [lo, hi] with |cost''| <= C: 2 k for a quadratic, 0
    on an interval, and for a tabulated cost 0 (it is linear) unless a knot
    lies strictly inside (lo, hi), where C is inf.  So |f''| <= M2 on the
    bracket.  Its few roundings err by a few 2^-53 of M2.
    """
    g = 1.0 - hi
    g = 2.0 ** -62 / (g * g * g)       # G over 2^64
    u = ((n - 1) * n * (2 * n - 1) / 3 + p * ((n + p) ** 2 + (n + p) * p * p + p ** 4)) / _UP
    # min(g, u) with operators alone, exactly: one of the products is by 0.
    return r * (g * (g < u) + u * (g >= u)) + curvature / _UP


#: The least distance from a bracket's ends of any point that
#: :func:`_golden` evaluates on a bracket wider than ``_XTOL``, (1 - k) k
#: ``_XTOL`` with k = ``_INVPHI``, less 1% for its float steps.
_ETA = 0.99 * (1.0 - _INVPHI) * _INVPHI * _XTOL


def _monotone(piece: _Piece, n, p, norm, r, lo, hi, f_lo, f_hi):
    """Whether f = D_d(x) + cost is certified strictly monotone on [lo, hi]
    by a margin, its ends' values ``f_lo`` and ``f_hi`` given, with n, p,
    ||x||_inf and r those of the stream x: then :func:`_golden` and
    :func:`_golden_lockstep` return the lower end, (hi, f(hi)) where f
    falls and (lo, f(lo)) where it rises.

    Like :func:`_dropped`, it takes numbers or arrays.  With ``w = hi -
    lo``, E the margin of :func:`_margin` and M2 the curvature bound of
    :func:`_curvature`, it holds where ``w > _XTOL`` and ``(|f(hi) -
    f(lo)| - M2 w^2 - 2 E) _ETA > 2 E w``.

    Proof.  |f''| <= M2 on the bracket (see :func:`_curvature`), so f' lies
    within M2 w of the secant (f(hi) - f(lo)) / w everywhere on it (the
    secant is f' somewhere).  The float f at each point is within E / 256
    of f, by :func:`_margin`, since |f(t)| <= max(|f(lo)|, |f(hi)|) + E /
    256 on a monotone bracket.  So where f(hi) < f(lo), f' <= -m on the
    bracket, with m = (|f(hi) - f(lo)| - M2 w^2 - 2 E) / w, and at each t
    <= hi - _ETA the float f(t) exceeds f(hi) by at least m _ETA - 2 E >
    0; where f(hi) > f(lo), the mirror image.  On a
    bracket wider than _XTOL, every point _golden evaluates lies at least
    _ETA inside both ends: its first two lie (1 - k) w in, each later one (1
    - k) w' inside a bracket w' = k v wide cut from one v > _XTOL wide, and
    its midpoint half the last width in; a float step errs by a few 2^-53.
    So every other candidate of the search lies strictly above the lower
    end, and the minimum is that end; a lockstep lane takes the same steps
    and discards the rest.  E's slack of 256 covers the rounding of this
    test, in any order: where it holds, each of its terms is at most |f(hi)
    - f(lo)| _ETA and errs by a few 2^-53 of that.  It does not hold where
    an end, E or M2 is not finite; where it holds, no value of f is NaN (D
    is finite), and one that overflows is +inf, above both ends.
    """
    slope, curvature = piece.bound(lo, hi)
    w = hi - lo
    m2 = _curvature(n, p, r, hi, curvature)
    e = _margin(n, p, norm, slope, f_lo, f_hi)
    return (w > _XTOL) & ((abs(f_hi - f_lo) - m2 * w * w * _UP - 2.0 * e) * _ETA > 2.0 * e * w)


def _scan(prefix, cycle, piece: _Piece, terms: tuple) -> tuple[tuple, list]:
    """The full grid pass over one piece for the stream ``prefix`` then
    ``cycle`` repeated, in canonical form: (candidate, brackets).

    The grid is ``_grid(a, b)``, with its stream-independent factors from
    bounded caches and the cost on it from the piece.  The candidate
    (value, factor) is the grid's first minimum, the least as tuples
    compare (no value is NaN).  The golden-section brackets are [grid[0],
    grid[1]], [grid[-2], grid[-1]] and one [grid[s-1], grid[e+1]] per run
    s..e of adjacent interior minima: such a run is flat on the grid, so a
    constant stream opens three searches, not one per node.  Each bracket
    is (lo, hi, f(lo), f(hi)), with the grid values at its ends.

    Of those, only the brackets that need a search are returned, with
    ``terms`` the stream's (n, p, ||x||_inf, r): those that
    :func:`_dropped` does not certify above the candidate's value and
    :func:`_monotone` does not certify monotone, one at a time with Python
    floats: on a scan's few brackets, numpy's fixed cost per call would
    outweigh the searches it saves.  A monotone bracket's search would
    return its lower end, a grid node; the candidate is the grid's first
    minimum, no larger as (value, factor) tuples compare (and the same node
    has the same bits), so the search is skipped with nothing to add.
    """
    g = _grid(piece.a, piece.b)
    grid = g.d
    f = discounted_value_grid(prefix, cycle, g)
    f += piece.on_grid
    interior = (np.nonzero((f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:]))[0] + 1).tolist()
    first = int(f.argmin())
    candidate = f.item(first), grid.item(first)
    runs: list[list[int]] = []
    for i in interior:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i - 1, i + 1])
    brackets = [(grid.item(lo), grid.item(hi), f.item(lo), f.item(hi))
                for lo, hi in {(0, 1), (_NODES - 2, _NODES - 1), *map(tuple, runs)}]
    return candidate, [br for br in brackets if not (_dropped(piece, *terms, *br, candidate[0])
                                                     or _monotone(piece, *terms, *br))]


#: The coarse pass evaluates every ``_STRIDE``-th grid node, which cut the
#: grid into ``_SEGMENTS`` segments of ``_STRIDE`` cells (``_NODES - 1 =
#: 16 * 125``).
_STRIDE = 16
_SEGMENTS = (_NODES - 1) // _STRIDE

#: Most streams in one block of the coarse-to-fine scan.  Measured on the
#: seed-0 continuity scan under a quadratic cost (256 mixes per batch):
#: 87 ms at 64 streams, 63 at 128 and 49 at 256, against 83 ms with
#: 64-stream blocks and no group pass.
_BLOCK = 256

#: Streams per group of a block's group pass (see :func:`_group_segments`),
#: and the fewest streams of a block that take the pass: below that it
#: costs more than it saves.  Measured on the continuity scans under
#: quadratic, tabulated and maxmin costs at harness seeds 0-3: 1.11 s in
#: all with groups of 8 streams, 1.08 with 16, 1.08 with 32 and 1.07 with
#: 64, against 1.52 s with no group pass; smaller groups keep tighter
#: envelopes where neighbours lie further apart.  The scans alone (one
#: quadratic piece): 16, 48, 64 and 128 mixes 1e-4 apart took 340, 435,
#: 469 and 659 us with the pass and 283, 437, 507 and 878 us without it,
#: and 64 unrelated streams 1028 us with it and 928 without.
_GROUP = 16
_GROUPED_MIN = 64

#: The coarse pass takes its evaluations and bound tests a slice of rows
#: at a time, each array at most ``_SLICE`` floats (64 kB) besides the
#: rows' own values; the refine loop takes half as many per slice, since
#: it holds the block's refined values besides.  Measured on the seed-0
#: continuity scan under a quadratic cost: the scan's traced peak was
#: 1.03, 0.79, 0.76 and 0.76 MB with refine slices of 8192, 4096, 3072 and
#: 2048 floats, and its time 48.9, 49.7, 50.1 and 51.6 ms (0.46 MB and
#: 0.57 MB with blocks of 64 and 128 streams).
_SLICE = 8192


def _f_at(vals: np.ndarray, n: int, piece: _Piece, nodes: np.ndarray) -> np.ndarray:
    """f = D_d + cost of each row of ``vals`` (a prefix of ``n`` values,
    then a cycle) at nodes of the piece's grid, the same ones for every row
    or a row of them per row, with the bits of ``discounted_value_grid``
    plus ``piece.on_grid``."""
    a, b, d = _grid(piece.a, piece.b)
    p = vals.shape[1] - n
    c = vals.T[:, :, None]              # coefficient j of every row, as a column
    at = np.broadcast_to(d[nodes], (len(vals), nodes.shape[-1]))
    # A constant tail divides by nothing: no 1 - d^p is taken or cached.
    out = _dv_array(c[:n], c[n:], at, _grid_power(a, b, n)[nodes],
                    _grid_denom(a, b, p)[nodes] if p > 1 else None)
    out += piece.on_grid[nodes]
    return out


def _group_segments(vals: np.ndarray, n: int, piece: _Piece) -> np.ndarray:
    """The segments between coarse nodes that each group of ``_GROUP``
    consecutive rows of ``vals`` keeps, rows of one shape as in
    :func:`_coarse_to_fine`: (groups, ``_SEGMENTS``) bools, the last group
    ragged.  A segment not kept holds no grid node, and no point, where f =
    D + cost of any row of its group is as low as that row's value at some
    coarse node.

    Proof.  The closed form is ``D_d(x) = sum_t w_t x_t`` with weights
    ``w_t >= 0``, so at every factor f of each row of a group lies between
    f of its envelope, the group's elementwise least and greatest rows.
    Let N be the envelope's ||.||_inf, c the coarse node where f of the
    greatest row is least, and B that value raised by :func:`_margin`
    taken with N.  At c, f of every row of the group lies between -N and f
    of the greatest row, so by :func:`_margin` the floats of the two err
    by at most 3/256 of that margin together: each row's float f at c lies
    strictly below B.  A segment is dropped where :func:`_dropped` holds on
    f of the least row, with N and the least row's own range, against B.
    By its proof, f of the least row, and so of each row, lies above B by
    more than 3/4 of its margin E on the whole segment; and a row's float
    f errs by at most E / 128 at a point where it could reach B, since
    there it lies between -N and B < (f(lo) + f(hi)) / 2.  So each row's
    float f lies strictly above B at every grid node and every
    golden-section step of the segment.
    """
    a, b, d = _grid(piece.a, piece.b)
    p, coarse = vals.shape[1] - n, np.arange(0, _NODES, _STRIDE)
    starts = np.arange(0, len(vals), _GROUP)
    low, up = np.minimum.reduceat(vals, starts), np.maximum.reduceat(vals, starts)
    f_low, f_up = np.split(_f_at(np.concatenate([low, up]), n, piece, coarse), 2)
    norm = np.maximum(up.max(1), -low.min(1))[:, None]
    best = f_up.min(1, keepdims=True)
    best += _margin(n, p, norm, piece.bound(a, b)[0], best, 0.0)
    return ~_dropped(piece, n, p, norm, (low.max(1) / 2 - low.min(1) / 2)[:, None],
                     d[coarse[:-1]], d[coarse[1:]], f_low[:, :-1], f_low[:, 1:], best)


def _coarse_to_fine(vals: np.ndarray, n: int, piece: _Piece, terms: np.ndarray) -> tuple:
    """:func:`_scan`'s candidate and the brackets that need a search, for a
    block of streams of one shape: row i of ``vals`` holds stream i's
    prefix (``n`` values) then its cycle, and ``terms[:, i]`` its
    ||x||_inf and r (see :func:`_dropped`), as columns.

    From ``_GROUPED_MIN`` rows on, the block's groups of ``_GROUP`` rows
    first drop segments between coarse nodes (every ``_STRIDE``-th) from
    their envelopes (see :func:`_group_segments`).  Each row then takes f
    at the coarse nodes that end its group's kept segments, and drops those
    segments that :func:`_dropped` certifies above the least of those
    values; where some group of the block needs every coarse node,
    as unrelated rows do, or the block is smaller, every row takes them
    all.  A segment dropped either way holds no node, and no point, where
    f is as low as a node value of the row.  The others are evaluated node
    by node, and so is each segment next to one of them that a run of
    interior minima may reach into: the next segment past an end node no
    larger than its inner neighbour, as long as the segments reached are
    flat.  The grid's first minimum lies in an evaluated segment, and so do
    the ends of every bracket that reaches one, with their exact values; a
    bracket read elsewhere lies inside a dropped segment and searches above
    that minimum.  The evaluations and bound tests take a slice of rows at
    a time (see ``_SLICE``).

    Returns the candidates' values and factors, one per row, and the
    brackets that need a search, as arrays (row, lo, hi, f(lo), f(hi)):
    those that :func:`_dropped` does not certify above their row's
    candidate and :func:`_monotone` does not certify monotone, as in
    :func:`_scan`.
    """
    d = _grid(piece.a, piece.b).d
    m, p = vals.shape[0], vals.shape[1] - n

    def f_rows(r, first, span, out=None):
        # f of row r[i] at the nodes first[i] + span, a slice at a time.
        out = np.empty((r.size, span.size)) if out is None else out
        step = max(1, _SLICE // 2 // span.size)
        for s in range(0, r.size, step):
            out[s:s + step] = _f_at(vals[r[s:s + step]], n, piece, first[s:s + step, None] + span)
        return out

    def coarse_pass():
        # A function of its own, so that its arrays are freed before the
        # refine loop runs.  seg[g, c]: group g keeps the segment from
        # coarse node c, with a last column of False for the last node.
        group = np.arange(m) // _GROUP
        seg = np.zeros((group[-1] + 1, _SEGMENTS + 1), bool)
        seg[:, :-1] = _group_segments(vals, n, piece) if m >= _GROUPED_MIN else True
        # Each row takes its group's list of coarse nodes: those that end
        # a kept segment, in order, padded to one width with other coarse
        # nodes; or every coarse node.  Its nodes j and j + 1 end a kept
        # segment where pair[g, j] holds, and node c is its rank[g, c]-th.
        ends = seg.copy()
        ends[:, 1:] |= seg[:, :-1]
        width = ends.sum(1).max()
        if width > _SEGMENTS:
            nodes, pair = np.arange(width), seg[:, :-1]
            rank = np.broadcast_to(nodes, seg.shape)
        else:
            nodes = np.argsort(~ends, 1, kind="stable")[:, :width]
            pair = (nodes[:, 1:] == nodes[:, :-1] + 1) & np.take_along_axis(seg, nodes[:, :-1], 1)
            rank = np.zeros(seg.shape, int)
            np.put_along_axis(rank, nodes, np.arange(width), 1)
        f_c, keep = np.empty((m, width)), np.zeros((m, _SEGMENTS), bool)
        step = max(1, _SLICE // width)
        for s in range(0, m, step):
            # ... and drops those segments against its least value there.
            i = slice(s, s + step)
            c = nodes if nodes.ndim == 1 else nodes[group[i]]
            at = c * _STRIDE
            f = f_c[i] = _f_at(vals[i], n, piece, at)
            on = pair[group[i]] & ~_dropped(piece, n, p, *terms[:, i], d[at[..., :-1]],
                                              d[at[..., 1:]], f[:, :-1], f[:, 1:],
                                              f.min(1, keepdims=True))
            r, j = np.nonzero(on)
            keep[s + r, np.broadcast_to(c, f.shape)[r, j]] = True
        # Each kept segment, in order, with its end values.
        r, k = np.nonzero(keep)
        v = np.empty((r.size, _STRIDE + 1))
        at = rank[group[r], k]
        v[:, 0], v[:, -1] = f_c[r, at], f_c[r, at + 1]
        return keep, r, k, v

    def refined():
        # The kept segments, and the segments next to them that a run of
        # interior minima may reach into, in order, with f at their nodes.
        keep, r, k, v = coarse_pass()
        f_rows(r, k * _STRIDE, np.arange(1, _STRIDE), v[:, 1:-1])
        done, found = keep.copy(), [(r, k, v)]
        while True:
            # A run that reaches an end of the evaluated nodes may go on
            # past it: into a neighbour of a kept segment, and through a
            # flat one.
            go_on = keep[r, k] | (v == v[:, :1]).all(1)
            todo = np.zeros_like(keep)
            left, right = go_on & (v[:, 0] <= v[:, 1]) & (k > 0), go_on & (v[:, -1] <= v[:, -2])
            right &= k < _SEGMENTS - 1
            todo[r[left], k[left] - 1] = True
            todo[r[right], k[right] + 1] = True
            todo &= ~done
            if not todo.any():
                break
            done |= todo
            r, k = np.nonzero(todo)
            v = f_rows(r, k * _STRIDE, np.arange(_STRIDE + 1))
            found.append((r, k, v))
        if len(found) == 1:
            return found[0]
        r, k, v = (np.concatenate(c) for c in zip(*found))
        order = np.lexsort((k, r))
        return r[order], k[order], v[order]

    r, k, v = refined()
    # The interior minima of the evaluated nodes.  Where a row's next
    # segment is evaluated too, a segment's last node is that segment's
    # first node, and takes its flag; so each run of interior minima is a
    # run of True in the flags read in order, and the nodes just before and
    # after it lie in the segments of its ends.
    joined = (r[1:] == r[:-1]) & (k[1:] == k[:-1] + 1)
    interior = np.zeros(v.shape, bool)
    np.less_equal(v[:, 1:-1], v[:, :-2], out=interior[:, 1:-1])
    interior[:, 1:-1] &= v[:, 1:-1] <= v[:, 2:]
    interior[1:, 0] = joined & (v[1:, 0] <= v[:-1, -2]) & (v[1:, 0] <= v[1:, 1])
    interior[:-1, -1] = interior[1:, 0]
    flags = interior.ravel()
    before = np.flatnonzero(flags[1:] > flags[:-1])
    after = np.flatnonzero(flags[:-1] > flags[1:]) + 1
    (q, i), (q_end, i_end) = divmod(before, _STRIDE + 1), divmod(after, _STRIDE + 1)
    brackets = [(r[q], k[q] * _STRIDE + i, k[q_end] * _STRIDE + i_end,
                 v.ravel()[before], v.ravel()[after])]
    for j, (lo, hi) in ((0, (0, 1)), (_SEGMENTS - 1, (_STRIDE - 1, _STRIDE))):
        at_end = k == j
        brackets.append((r[at_end], k[at_end] * _STRIDE + lo, k[at_end] * _STRIDE + hi,
                         v[at_end, lo], v[at_end, hi]))
    # The grid's first minimum per row: the first node of the row's first
    # segment that holds the row's least value.
    least = v.min(1)
    row_at = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    hit = np.flatnonzero(least == np.repeat(np.minimum.reduceat(least, row_at),
                                            np.diff(np.r_[row_at, r.size])))
    first = hit[np.r_[True, r[hit[1:]] != r[hit[:-1]]]]
    i = v[first].argmin(1)
    best, node = v[first, i], k[first] * _STRIDE + i
    r, lo, hi, f_lo, f_hi = map(np.concatenate, zip(*brackets))
    lo, hi = d[lo], d[hi]
    norm, half = terms[:, r, 0]
    keep = ~(_dropped(piece, n, p, norm, half, lo, hi, f_lo, f_hi, best[r])
             | _monotone(piece, n, p, norm, half, lo, hi, f_lo, f_hi))
    return best, d[node], (r[keep], lo[keep], hi[keep], f_lo[keep], f_hi[keep])


def _objective(prefix, cycle, piece: _Piece) -> Callable[[float], float]:
    """d -> D_d(x) + cost(d) at one factor, for the stream x ``prefix``
    then ``cycle`` repeated, in canonical form."""
    dv, cost = _dv_scalar(prefix, cycle), piece.scalar
    return lambda d: dv(d) + cost(d)


#: Fewest kept brackets refined by one lockstep search instead of one
#: scalar search each; below it numpy's fixed cost per call loses to
#: scalar golden steps.  Measured: the two break even between 64 and 112
#: brackets for quadratic, tabulated and interval pieces, at about 170
#: for an interval piece on random streams.
_LOCKSTEP_MIN = 96

#: Fewest streams of one shape (prefix length and period) that are
#: scanned coarse to fine together instead of on the full grid each; below
#: it numpy's fixed cost per block loses to the full grid.  Measured (the
#: scans alone, streams with a prefix of 8 and a period of 2): per stream,
#: coarse to fine took 67-93 us at 8 streams against 46-71 us on the full
#: grid, and 39-59 us at 16 against 45-74 us, for quadratic, tabulated
#: and interval pieces; 20-26 us at 64.
_COARSE_MIN = 16


def _minimize_on_interval(n: int, vals: np.ndarray,
                          piece: _Piece) -> tuple[np.ndarray, np.ndarray]:
    """Grid scan plus golden refinement of D_delta(x) + cost on one piece,
    for the stream x of each row of ``vals``: rows of one shape, a prefix
    of ``n`` values then a cycle, each its stream's canonical form.

    From ``_COARSE_MIN`` rows on, the rows are scanned coarse to fine in
    blocks of ``_BLOCK`` (see :func:`_coarse_to_fine`); fewer rows on the
    full grid (see :func:`_scan`), with the row's (n, p, ||x||_inf, r)
    taken from its values.  The brackets that :func:`_dropped` does not
    certify above the row's candidate, and :func:`_monotone` does not
    certify monotone, get one scalar golden-section search each, on the
    row's values, or, from ``_LOCKSTEP_MIN`` of them on, one lockstep
    search together on lanes of the rows, with the same bits.  Returns
    (argmins, values), one per row, as arrays: each row's candidates, its
    grid's first minimum and then its searches' results in order, folded by
    :func:`_lesser` as ``min()`` takes them, so ties resolve to the
    smallest argmin.  It ignores overflow, which leaves inf in f or a
    bound near the float limit, and the NaN that may follow.
    """
    m, p = vals.shape[0], vals.shape[1] - n
    best_v, best_x = np.empty(m), np.empty(m)
    kept = []       # (row, lo, hi, f(lo), f(hi)) of each bracket to search
    with np.errstate(over="ignore", invalid="ignore"):
        if piece.b <= piece.a:
            return np.full(m, piece.a), _dv_at(n, vals, piece.a) + piece.scalar(piece.a)
        if m >= _COARSE_MIN:
            top, bottom = vals.max(1), vals.min(1)
            norm, half = np.maximum(top, -bottom), top / 2 - bottom / 2
            for s in range(0, m, _BLOCK):
                block = slice(s, s + _BLOCK)
                terms = np.stack([norm[block], half[block]])[:, :, None]
                best_v[block], best_x[block], (r, *ends) = _coarse_to_fine(vals[block], n,
                                                                           piece, terms)
                kept += zip((r + s).tolist(), *(e.tolist() for e in ends))
        else:
            # Each row's terms from its list: on a few rows, numpy's fixed
            # cost per call would show.
            for i, row in enumerate(vals.tolist()):
                top, bottom = max(row), min(row)
                terms = n, p, max(top, -bottom), top / 2 - bottom / 2
                (best_v[i], best_x[i]), brackets = _scan(row[:n], row[n:], piece, terms)
                kept += [(i, *br) for br in brackets]
        if len(kept) < _LOCKSTEP_MIN:
            for i, *ends in kept:
                row = vals[i].tolist()
                d_star, v_star = _golden(_objective(row[:n], row[n:], piece), *ends)
                if _less(v_star, d_star, best_v[i], best_x[i]):
                    best_v[i], best_x[i] = v_star, d_star
            return best_x, best_v
        owner, *ends = map(np.array, zip(*kept))
        found_x, found_v = _golden_lockstep(_lanes(n, vals[owner], piece.lanes), *ends)
    # The k-th search of every row at once, so each row takes its own in order.
    order = np.argsort(owner, kind="stable")
    rank = np.arange(order.size) - np.searchsorted(owner[order], owner[order])
    for k in range(rank.max() + 1):
        j = order[rank == k]
        i = owner[j]
        best_v[i], best_x[i] = _lesser(found_v[j], found_x[j], best_v[i], best_x[i])
    return best_x, best_v


def _minimize_rows(n: int, vals: np.ndarray, c: CostFunction) -> tuple[np.ndarray, np.ndarray]:
    """:func:`minimize_over_delta` of each row's stream, bit for bit, for
    canonical rows of one shape (see :func:`_minimize_on_interval`), as
    (argmins, values) arrays: each isolated point is taken at once on
    every row, and the candidates, the points and then the pieces in
    order, are folded by :func:`_lesser`.  A point's D + cost may overflow,
    to +inf, as in :func:`minimize_over_delta`."""
    with np.errstate(over="ignore"):
        found = [(np.full(len(vals), d), _dv_at(n, vals, d) + k)
                 for d, k in c.isolated()]
    found += [_minimize_on_interval(n, vals, piece) for piece in c.pieces]
    best_x, best_v = found[0]
    for x, v in found[1:]:
        best_v, best_x = _lesser(v, x, best_v, best_x)
    return best_x, best_v


def minimize_over_delta(x: Stream, c: CostFunction) -> tuple[float, float]:
    """Global minimum of delta -> D_delta(x) + cost(delta) over [0, 1].

    Finite point sets and tabulated knots are enumerated exactly; each
    continuous piece of the cost gets a fixed grid of ``_NODES`` = 2001
    nodes, followed by golden-section refinement (to 1e-9 in ``delta``)
    of its two end brackets and of one bracket per run of adjacent grid
    minima (see :func:`_scan`).  With ``r`` the half-range of the
    stream's values, ``|f'| <= L = r * 2 (T + 1) hi^T + L_cost``, ``T =
    floor(hi / (1 - hi))``, and ``|f''| <= M2 = r min(4 / (1 - hi)^3, U) +
    C_cost``, ``U`` a bound uniform on [0, 1] from ``n`` and ``p`` (see
    :func:`_curvature`).  Only the brackets where both the Lipschitz lower
    bound ``(f(lo) + f(hi) - L (hi - lo)) / 2`` and the interpolation
    lower bound ``min(f(lo), f(hi)) - M2 (hi - lo)^2 / 8``, less a float
    margin, undercut the grid's best value are searched (see
    :func:`_dropped`).  Nor is a bracket searched where M2 proves f
    strictly monotone on it by more than the margin (see
    :func:`_monotone`): its search would return its lower end, a grid node
    no lower than the grid's best.  Both certificates take the one margin
    ``2^-44 * (n + p + 15) * (1 + |f(lo)| + |f(hi)| + ||x||_inf +
    L_cost)`` (see :func:`_margin`), with ``n`` and ``p`` as below.  In a batch
    (:func:`evaluate_many`), the same bounds drop whole 16-cell segments
    of the grid against its every 16th node first, so only the nodes that
    could hold the minimum, or a bracket's end, are evaluated (see
    :func:`_coarse_to_fine`); from 64 rows of one shape on, it first drops
    them for 16 neighbouring rows at once, from their elementwise least
    and greatest rows (see :func:`_group_segments`).  Returns (argmin,
    value); ties resolve to the smallest argmin, with the bits of searching
    every bracket of the full grid.  Each piece takes the stream as a batch
    of one row, its canonical prefix then its cycle (see
    :func:`_minimize_on_interval`).  Every cost has an isolated point or a
    piece, as its constructor checks, so there is always a candidate.

    A piece [a, 1) (an indicator interval ending at 1.0, or the quadratic
    cost's [0, 1)) is searched on [a, 1 - 1e-9], so the reported minimum
    may exceed the piece's infimum.  With ``n`` the prefix length and
    ``p`` the period of ``x``, the closed form gives
    ``|D_delta(x) - tail mean| <= 2 * ||x||_inf * (1 - delta) * (n + (p - 1)
    * delta^(1 - p))``.  So the gap is at most twice that bound at
    ``delta = 1 - 1e-9``, plus the search tolerance; a quadratic cost whose
    center lies past 1 - 1e-9 adds at most ``stiffness * 1e-18``.
    """
    if not isinstance(c, _Cost):
        raise InvalidCost(f"not a cost function: {c!r}")
    found = [(discounted_value(x, d) + k, d) for d, k in c.isolated()]
    n, row = len(x.prefix), np.array([x.prefix + x.tail_cycle])
    for piece in c.pieces:
        d_star, v_star = _minimize_on_interval(n, row, piece)
        found.append((v_star.item(), d_star.item()))
    return min(found)[::-1]
