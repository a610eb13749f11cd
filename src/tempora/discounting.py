"""Discounted evaluation of streams, the cost shapes and every criterion.

The building block is the normalized discounted value

    D_delta(x) = (1 - delta) * sum_t delta^t x_t,

computed in closed form for eventually periodic streams: a Horner pass over
the prefix plus a geometric-tail term, written once per factor and once
over arrays, with the same bits.  The delta-domain is the closed
interval [0, 1]; at delta = 1 the continuous (Abel) extension equals the
tail-cycle mean, and every cost function is infinite there, so minimization
over [0, 1] is effectively over [0, 1).  The convention 0^0 = 1 makes
delta = 0 the weighting that puts all mass on the present, D_0(x) = x_0.

Three criteria are built on top of D:

* ``Edu(delta)``          -- a single discount factor in (0, 1);
* ``Maxmin(points, intervals)`` -- worst case over a closed set of factors;
* ``Variational(cost)``   -- min over delta of D_delta(x) + cost(delta),
  where the cost is grounded (its infimum is 0) and infinite at 1.

Maxmin is the variational criterion of its set's zero-cost indicator; the
four patient criteria (``Inf``, ``Liminf``, ``BanachWindow``, ``Cesaro``)
take their closed forms from :mod:`tempora.patient`.  Each criterion and
each cost shape is one class that owns its JSON tag (the table ``TAGS``),
its JSON body and its value, so there is one dispatch point per concept.

Costs are expressed in the same utility units as streams; infinity is an
explicit absorbing value, never a large float.  The objective
delta -> D_delta(x) + cost(delta) need not be convex, so the minimizer runs
a fixed grid of ``_NODES`` nodes per continuous piece of the cost followed
by golden-section refinement: one bracket at each end of the grid and one
per run of adjacent grid minima, so a flat run is searched once, not once
per node.
Only brackets whose certified lower bound (Lipschitz, or the tail mean's)
undercuts the grid's best value are searched; a search skipped could not
have won, so the bits are those of searching them all.  Finite point sets
and the knots of a tabulated cost (kinks of the objective) are enumerated
exactly.  ``evaluate_many`` gives the same bits for many streams at once:
from ``_LOCKSTEP_MIN`` kept brackets on, one piece's brackets of every
stream are refined in one lockstep golden-section search.

Everything here is a pure function of immutable inputs; independent
(criterion, stream) evaluations can run concurrently without coordination.
The only shared state is bounded caches of read-only arrays (the grid and
its stream-independent factors), filled idempotently: a racing fill
computes the same bits, and a lock keeps each memo within its cap.
"""

from __future__ import annotations

import functools
import math
import threading
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from itertools import repeat
from operator import mul
from typing import Callable, ClassVar, Iterable, Union

import numpy as np

from . import patient
from .errors import (InfeasibleCost, InvalidCost, InvalidCriterion, InvalidDelta,
                     ParseError, decoding, tagged)
from .patient import _tail_mean
from .streams import Constant, Stream

#: Right edge used for numerically searching half-open pieces [a, 1).
_ONE_EDGE = 1.0 - 1e-9

_INF = math.inf


# ---------------------------------------------------------------------------
# discounted value
# ---------------------------------------------------------------------------

def _dv_scalar(x: Stream) -> Callable[[float], float]:
    """delta -> D_delta(x) on [0, 1], unchecked.

    The one scalar closed form, behind :func:`discounted_value` and the
    minimizer's golden-section steps: the prefix and the cycle are reversed
    and the tail kind is checked once per stream, not once per factor.
    """
    prefix = x.prefix[::-1]
    n = len(prefix)
    const = x.tail.value if isinstance(x.tail, Constant) else None
    cyc = () if const is not None else x.tail.cycle[::-1]
    p = len(cyc)

    def dv(delta: float) -> float:
        if delta == 1.0:
            return _tail_mean(x)
        s = 0.0
        for v in prefix:
            s = v + delta * s
        if const is not None:
            tail_abel = const
        else:
            t = 0.0
            for v in cyc:
                t = v + delta * t
            if delta == 0.0:
                tail_abel = t
            else:
                # (1 - delta^p) via expm1 to avoid cancellation near delta = 1.
                denom = -math.expm1(p * math.log(delta))
                tail_abel = (1.0 - delta) * t / denom
        return (1.0 - delta) * s + delta ** n * tail_abel

    return dv


def discounted_value(x: Stream, delta: float) -> float:
    """Closed-form D_delta(x) for delta in [0, 1].

    Exact form: (1-delta) * sum_{t<N} delta^t x_t + delta^N * A(delta) where
    A is the tail value (the constant c, or for a cycle q of period p,
    (1-delta) * sum_{k<p} delta^k q_k / (1 - delta^p)).  At delta = 1 the
    continuous extension equals the tail mean; at delta = 0 the value is
    x_0 by the 0^0 = 1 convention.

    Raises:
        InvalidDelta: if delta is outside [0, 1] (or NaN).
    """
    if not 0.0 <= delta <= 1.0:
        raise InvalidDelta(f"discount factor must lie in [0, 1], got {delta}")
    return _dv_scalar(x)(delta)


#: Grid nodes per continuous cost piece.
_NODES = 2001

#: Caps of the grid cache and of each grid's per-length memos.
_GRID_CACHE = 16
_MEMO_CAP = 32
_MEMO_LOCK = threading.Lock()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _memoised(memo: dict, key: int, make: Callable[[], np.ndarray]) -> np.ndarray:
    """``memo[key]``, made read-only by ``make()`` on a miss."""
    out = memo.get(key)
    if out is None:
        out = _frozen(make())
        with _MEMO_LOCK:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = out
    return out


def _powers(d: list[float], ns: Iterable[int]) -> np.ndarray:
    """``d[i] ** ns[i]`` with the scalar form's ``pow``: numpy's ``power``,
    like its ``log`` and ``expm1``, may differ from Python's in the last bit."""
    return np.array(list(map(pow, d, ns)))


def _denoms(d: np.ndarray, p: np.ndarray | int) -> np.ndarray:
    """``1 - d ** p`` (``p`` one period, or one per element) as the scalar
    form takes it, ``-expm1(p * log(d))`` with Python's ``math``; 1.0 where
    ``p == 1`` or ``d == 0``, where the scalar form does not divide."""
    p = np.broadcast_to(p, d.shape)
    live = (p > 1) & (d != 0.0)
    out = np.ones(d.shape)
    out[live] = np.negative(list(map(math.expm1, map(
        mul, p[live].tolist(), map(math.log, d[live].tolist())))))
    return out


class _Grid:
    """The stream-independent factors of D_delta on an array ``d`` of
    factors in [0, 1): ``power(n)`` (d^n) and ``denom(p)`` (1 - d^p) are
    memoised read-only per prefix length and per period, at most
    ``_MEMO_CAP`` of each.
    """

    __slots__ = ("d", "_pow", "_denom")

    def __init__(self, d: np.ndarray):
        self.d = _frozen(d)
        self._pow: dict[int, np.ndarray] = {}
        self._denom: dict[int, np.ndarray] = {}

    def power(self, n: int) -> np.ndarray:
        return _memoised(self._pow, n, lambda: _powers(self.d.tolist(), repeat(n)))

    def denom(self, p: int) -> np.ndarray:
        return _memoised(self._denom, p, lambda: _denoms(self.d, p))


@functools.lru_cache(maxsize=_GRID_CACHE)
def _grid(a: float, b: float) -> _Grid:
    """The cached geometry of ``np.linspace(a, b, _NODES)``."""
    return _Grid(np.linspace(a, b, _NODES))


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


def _dv_array(prefix, cycle, periodic, const, d: np.ndarray, power: np.ndarray,
              denom: np.ndarray | None) -> np.ndarray:
    """D_d at each factor of ``d`` in [0, 1) with :func:`_dv_scalar`'s bits:
    ``(1 - d) * s + power * tail``, ``s`` the prefix's Horner sum.

    The coefficients are numbers (one stream) or arrays shaped like ``d``
    (one stream per element).  The tail is ``(1 - d) * t / denom``, ``t``
    the cycle's Horner sum, where ``periodic`` holds and ``const``
    elsewhere (a bool and a number, or one of each per element).
    """
    one_minus = 1.0 - d
    out = one_minus * _horner(prefix, d)
    tail = const
    if periodic is not False:
        tail = _horner(cycle, d)
        tail *= one_minus
        tail /= denom
        if periodic is not True:
            tail = np.where(periodic, tail, const)
    out += power * tail
    return out


def discounted_value_grid(x: Stream, deltas: np.ndarray | _Grid) -> np.ndarray:
    """:func:`discounted_value` at each factor of an array, bit for bit.

    ``deltas`` is an array-like of factors in [0, 1], or a cached grid
    geometry from the minimizer, whose factors are already known valid.
    """
    at_one = None
    if isinstance(deltas, _Grid):
        g = deltas
    else:
        d = np.array(deltas, dtype=float, ndmin=1)
        if d.size and (d.min() < 0.0 or d.max() > 1.0 or np.isnan(d).any()):
            raise InvalidDelta("discount factors must lie in [0, 1]")
        # D_1 is the tail mean: the closed form runs at 0.5 there instead.
        at_one = d == 1.0
        g = _Grid(np.where(at_one, 0.5, d))
    periodic = x.period > 1
    out = _dv_array(x.prefix, x.tail_cycle, periodic, x.tail_cycle[0], g.d,
                    g.power(len(x.prefix)), g.denom(x.period) if periodic else None)
    if at_one is not None:
        out[at_one] = _tail_mean(x)
    return out


# ---------------------------------------------------------------------------
# tagged values: the one dispatch point of every criterion and cost shape
# ---------------------------------------------------------------------------

#: JSON tag -> class, for every criterion and every cost shape.  Decoding,
#: encoding and the CLI's per-family expectations all read this table.
TAGS: dict[str, type] = {}


class _Tagged:
    """A value written in JSON as ``{tag: body}``.

    A subclass registers under its tag (``class Edu(_Criterion,
    tag="edu")``).  Its body is its dataclass fields by name, tuples as
    lists and a nested cost as its own ``{tag: body}``; decoding ignores
    extra keys and lets fields with defaults be left out.
    """

    tag: ClassVar[str]
    family: ClassVar[str]

    def __init_subclass__(cls, tag: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if tag is not None:
            cls.tag = tag
            TAGS[tag] = cls

    def to_dict(self) -> dict:
        return {self.tag: {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}}

    @classmethod
    def from_body(cls, body: dict) -> "_Tagged":
        return cls(**{f.name: _from_json(body[f.name]) for f in fields(cls)
                      if f.name in body or f.default is MISSING})

    @classmethod
    def from_dict(cls, data) -> "_Tagged":
        """Decode ``{tag: body}`` into the subclass of ``cls`` under ``tag``;
        anything malformed raises :class:`ParseError`."""
        tag, body = tagged(data, cls.family,
                           [t for t, k in TAGS.items() if issubclass(k, cls)])
        if not isinstance(body, dict):
            raise ParseError(f"{tag} body must be an object", field=tag)
        with decoding(tag):
            return TAGS[tag].from_body(body)


def _to_json(v):
    if isinstance(v, _Tagged):
        return v.to_dict()
    return [_to_json(e) for e in v] if isinstance(v, tuple) else v


def _from_json(v):
    """JSON arrays as tuples, two levels deep: a body holds at most a list
    of pairs, and anything deeper fails validation as it stands."""
    if not isinstance(v, list):
        return v
    return tuple(tuple(e) if isinstance(e, list) else e for e in v)


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

class _Cost(_Tagged):
    """A grounded cost: finite on a closed subset of [0, 1), infinite
    elsewhere and always at 1.

    ``value(delta)`` is the cost at a factor in [0, 1); ``isolated()``
    lists points (delta, cost) solved by enumeration: the finite-cost
    points of an indicator set, the knots of a tabulated cost;
    ``pieces`` lists the continuous finite-cost pieces (:class:`_Piece`),
    each searched on its fixed grid.  It is built once per cost, so each
    piece's cost on the grid is computed once.
    """

    family = "cost"

    def isolated(self) -> list[tuple[float, float]]:
        return []


class _Piece:
    """A continuous finite-cost piece [a, b] of a cost.

    ``scalar(delta)`` is the cost at one factor and ``lanes(d)`` the cost
    at each factor of an array, with ``scalar``'s bits.  ``on_grid`` is
    ``lanes`` on the piece's grid ``_grid(a, b)``, read-only and built with
    the piece.  ``bound(lo, hi)`` is (a bound on the cost's slope, the
    cost's minimum) on [lo, hi].
    """

    __slots__ = ("a", "b", "scalar", "lanes", "bound", "on_grid")

    def __init__(self, a: float, b: float, scalar: Callable[[float], float],
                 lanes: Callable[[np.ndarray], np.ndarray], bound: Callable):
        self.a, self.b, self.scalar, self.lanes, self.bound = a, b, scalar, lanes, bound
        self.on_grid = _frozen(lanes(_grid(a, b).d))


def _check_unit_point(value: float, what: str) -> float:
    v = float(value)
    if not 0.0 <= v < 1.0:
        raise InvalidCost(f"{what} must lie in [0, 1), got {value}")
    return v


@dataclass(frozen=True)
class IndicatorSet(_Cost, tag="indicator"):
    """Zero (or finite per-point) cost on a closed set E, infinite elsewhere.

    E is a finite union of points and closed sub-intervals of [0, 1).  Each
    point may carry a finite nonnegative cost (``point_costs``, default 0);
    intervals always carry cost 0.  An interval end b = 1.0 is accepted and
    read as the half-open piece [a, 1), since the cost at 1 is always
    infinite.  Groundedness (inf cost = 0) is checked at construction.
    """

    points: tuple[float, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ()
    point_costs: tuple[float, ...] = ()

    def __post_init__(self):
        pts = tuple(_check_unit_point(p, "indicator point") for p in self.points)
        ivs = []
        for pair in self.intervals:
            a, b = (float(pair[0]), float(pair[1]))
            if not (0.0 <= a <= b <= 1.0) or a >= 1.0:
                raise InvalidCost(f"interval [{a}, {b}] must sit inside [0, 1) "
                                  "(right end 1.0 is read as the open end)")
            ivs.append((a, b))
        costs = tuple(float(c) for c in self.point_costs)
        if not costs:
            costs = (0.0,) * len(pts)
        if len(costs) != len(pts):
            raise InvalidCost("point_costs length must match points")
        if any(c < 0 or not math.isfinite(c) for c in costs):
            raise InvalidCost("point costs must be finite and >= 0")
        if not pts and not ivs:
            raise InvalidCost("indicator set must be nonempty")
        if not ivs and min(costs) != 0.0:
            raise InvalidCost("not grounded: no zero-cost point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "intervals", tuple(ivs))
        object.__setattr__(self, "point_costs", costs)

    def value(self, delta: float) -> float:
        best = _INF
        for p, k in zip(self.points, self.point_costs):
            if delta == p:
                best = min(best, k)
        for a, b in self.intervals:
            if a <= delta <= b:
                return 0.0
        return best

    def isolated(self) -> list[tuple[float, float]]:
        return list(zip(self.points, self.point_costs))

    @functools.cached_property
    def pieces(self) -> list[_Piece]:
        return [_Piece(a, min(b, _ONE_EDGE), _zero, np.zeros_like, lambda lo, hi: (0.0, 0.0))
                for a, b in self.intervals]


@dataclass(frozen=True)
class Quadratic(_Cost, tag="quadratic"):
    """cost(delta) = stiffness * (delta - center)^2, infinite at delta = 1."""

    center: float
    stiffness: float

    def __post_init__(self):
        object.__setattr__(self, "center", _check_unit_point(self.center, "quadratic center"))
        k = float(self.stiffness)
        if k < 0 or not math.isfinite(k):
            raise InvalidCost(f"stiffness must be finite and >= 0, got {self.stiffness}")
        object.__setattr__(self, "stiffness", k)

    def value(self, delta: float) -> float:
        return self.stiffness * (delta - self.center) ** 2

    def _value_each(self, d: np.ndarray) -> np.ndarray:
        """``value`` of each float in ``d``, bit for bit: numpy's square may
        differ from the float power in the last bit, so the square is
        taken by ``pow`` per element."""
        return self.stiffness * np.array(list(map(pow, (d - self.center).tolist(), repeat(2))))

    def _bound(self, lo: float, hi: float) -> tuple[float, float]:
        k, c = self.stiffness, self.center
        gap = max(lo - c, c - hi, 0.0)
        return 2.0 * k * max(abs(lo - c), abs(hi - c)), k * gap * gap

    @functools.cached_property
    def pieces(self) -> list[_Piece]:
        return [_Piece(0.0, _ONE_EDGE, self.value, self._value_each, self._bound)]


@dataclass(frozen=True)
class Tabulated(_Cost, tag="tabulated"):
    """Piecewise-linear cost through sorted (delta, cost) knots.

    Finite on [0, delta_max] with delta_max < 1 (below the first knot the
    cost extends flat), infinite beyond delta_max.  Must contain a
    zero-cost knot (groundedness).
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ks = tuple((_check_unit_point(d, "tabulated knot"), float(c)) for d, c in self.knots)
        if not ks:
            raise InvalidCost("tabulated cost needs at least one knot")
        ds = [d for d, _ in ks]
        if sorted(ds) != ds or len(set(ds)) != len(ds):
            raise InvalidCost("tabulated knots must have strictly increasing deltas")
        if any(c < 0 or not math.isfinite(c) for _, c in ks):
            raise InvalidCost("knot costs must be finite and >= 0")
        if min(c for _, c in ks) != 0.0:
            raise InvalidCost("not grounded: no zero-cost knot")
        object.__setattr__(self, "knots", ks)

    def value(self, delta: float) -> float:
        return _INF if delta > self.knots[-1][0] else self.pieces[0].scalar(delta)

    def isolated(self) -> list[tuple[float, float]]:
        """The knots and their costs: a minimum at a kink is found exactly."""
        return list(self.knots)

    @functools.cached_property
    def pieces(self) -> list[_Piece]:
        # _interp has np.interp's bits, so np.interp serves the lanes.
        ds, ks = zip(*self.knots)
        interp, steepest = _interp(self), max(map(abs, _slopes(self)), default=0.0)
        return [_Piece(0.0, ds[-1], interp, lambda g: np.interp(g, ds, ks), lambda lo, hi: (
            steepest, min(interp(lo), interp(hi), *(k for d, k in self.knots if lo < d < hi))))]


CostFunction = Union[IndicatorSet, Quadratic, Tabulated]


def _interp(c: Tabulated) -> Callable[[float], float]:
    """Scalar ``np.interp`` through the knots, bit for bit.

    Below the first knot the cost is the first knot's, at a knot (or past
    the last) it is that knot's, and in between it is numpy's own formula,
    ``slope * (d - xp[j]) + fp[j]`` with ``slope = (fp[j+1] - fp[j]) /
    (xp[j+1] - xp[j])``, found by bisection instead of a numpy call.
    """
    xp = [d for d, _ in c.knots]
    fp = [k for _, k in c.knots]
    slopes = _slopes(c)
    last = len(xp) - 1

    def interp(d: float) -> float:
        j = bisect_right(xp, d) - 1
        if j < 0:
            return fp[0]
        if j == last or xp[j] == d:
            return fp[j]
        return slopes[j] * (d - xp[j]) + fp[j]

    return interp


def _slopes(c: Tabulated) -> list[float]:
    return [(k1 - k0) / (d1 - d0) for (d0, k0), (d1, k1) in zip(c.knots, c.knots[1:])]


def _zero(d: float) -> float:
    return 0.0


def cost_eval(c: CostFunction, delta: float) -> float:
    """Cost value in [0, +inf]; always +inf at delta = 1."""
    if not 0.0 <= delta <= 1.0:
        raise InvalidDelta(f"discount factor must lie in [0, 1], got {delta}")
    if not isinstance(c, _Cost):
        raise InvalidCost(f"not a cost function: {c!r}")
    return _INF if delta == 1.0 else c.value(delta)


# ---------------------------------------------------------------------------
# minimization over the discount factor
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Golden-section search stops at a bracket ``_XTOL`` wide, or after ``_MAXITER`` steps.
_XTOL = 1e-9
_MAXITER = 80


def _golden(fun: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section minimum of ``fun`` on [a, b]; returns (argmin, value)."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fun(x1), fun(x2)
    fa, fb = fun(a), fun(b)
    for _ in range(_MAXITER):
        if b - a <= _XTOL:
            break
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


def _golden_lockstep(fun: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                     b: np.ndarray) -> list[tuple[float, float]]:
    """:func:`_golden` on every bracket [a[i], b[i]] at once.

    ``fun`` is the objective of bracket i on lane i (see :func:`_lanes`).
    Each lane takes ``_golden``'s steps with the same IEEE operations and
    keeps its state from where ``_golden`` would stop, while the others
    step on, so its (argmin, value) has ``_golden``'s bits.
    """
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2, fa, fb = (fun(v) for v in (x1, x2, a, b))
    for _ in range(_MAXITER):
        live = ~(b - a <= _XTOL)
        if not live.any():
            break
        was = a, b, x1, x2, f1, f2
        # f1 <= f2: b, x2, f2 = x2, x1, f1 and a new x1; else the mirror.
        left = f1 <= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        new = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        x1, x2 = np.where(left, new, x2), np.where(left, x1, new)
        f = fun(new)
        f1, f2 = np.where(left, f, f2), np.where(left, f1, f)
        a, b, x1, x2, f1, f2 = (np.where(live, v, w) for v, w in zip((a, b, x1, x2, f1, f2), was))
    xm = 0.5 * (a + b)
    # min() over the (value, factor) candidates, as tuples compare: the
    # first candidate that no later one undercuts.
    best_v, best_x = fun(xm), xm
    for v, x in ((f1, x1), (f2, x2), (fa, a), (fb, b)):
        less = (v < best_v) | ((v == best_v) & (x < best_x))
        best_v, best_x = np.where(less, v, best_v), np.where(less, x, best_x)
    return list(zip(best_x.tolist(), best_v.tolist()))


def _stacked(rows: list[tuple[float, ...]]) -> np.ndarray:
    """Row j holds the j-th entry of every lane, zero-padded at the far end."""
    m = max(map(len, rows))
    padded = np.array([r + (0.0,) * (m - len(r)) for r in rows]).reshape(len(rows), m)
    return np.ascontiguousarray(padded.T)


def _lanes(xs: list[Stream], cost: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """The objective d -> D_d(x) + cost(d) on lanes of streams, one factor
    per lane in [0, 1), with the bits of ``_dv_scalar(x)(d) + scalar cost``
    lane by lane; ``cost`` is a piece's ``lanes``."""
    prefixes, cycles = _stacked([x.prefix for x in xs]), _stacked([x.tail_cycle for x in xs])
    lengths, periods = [len(x.prefix) for x in xs], np.array([x.period for x in xs])

    def objective(d: np.ndarray) -> np.ndarray:
        out = _dv_array(prefixes, cycles, periods > 1, cycles[0], d,
                        _powers(d.tolist(), lengths), _denoms(d, periods))
        out += cost(d)
        return out

    return objective


def _scan(x: Stream, piece: _Piece) -> tuple[list, list, list]:
    """The grid pass over one piece: (candidates, brackets, ends).

    The grid is ``_grid(a, b)``, with its stream-independent factors from
    bounded caches and the cost on it from the piece.  The candidate
    (value, factor) is the grid's first minimum, the least as tuples
    compare; where a value is NaN, every node no larger than both
    neighbours is one.  The golden-section brackets (lo, hi) are [grid[0],
    grid[1]], [grid[-2], grid[-1]] and one [grid[s-1], grid[e+1]] per run
    s..e of adjacent interior minima: such a run is flat on the grid, so a
    constant stream opens three searches, not one per node.  ``ends``
    holds the grid values at each bracket's ends.
    """
    g = _grid(piece.a, piece.b)
    grid = g.d
    f = discounted_value_grid(x, g) + piece.on_grid
    interior = (np.nonzero((f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:]))[0] + 1).tolist()
    first = int(f.argmin())
    nodes_at = {0, _NODES - 1, *interior} if math.isnan(f.item(first)) else [first]
    candidates = [(f.item(i), grid.item(i)) for i in nodes_at]
    runs: list[list[int]] = []
    for i in interior:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i - 1, i + 1])
    brackets = {(0, 1), (_NODES - 2, _NODES - 1), *map(tuple, runs)}
    return (candidates, [(grid.item(lo), grid.item(hi)) for lo, hi in brackets],
            [(f.item(lo), f.item(hi)) for lo, hi in brackets])


def _undercutting(x: Stream, piece: _Piece, candidates: list, brackets: list, ends: list) -> list:
    """The brackets of a scan whose lower bound on f = D_d(x) + cost (the
    larger of the two in :func:`minimize_over_delta`), less the margin E,
    is not above the first candidate's value.

    Proof.  The weights w_t = (1 - d) d^t sum to 1, so D' = sum_t w_t' (x_t
    - c) for the midpoint c of the values; w_t' < 0 up to T and > 0 after,
    so sum_t |w_t'| = 2 d/dd d^(T+1) = 2 (T + 1) d^T = max_m 2 (m + 1) d^m,
    continuous and nondecreasing.  Golden-section steps evaluate f only in
    the bracket (b - fl(k fl(b - a)) and a + fl(k fl(b - a)), k < 0.62,
    stay in [a, b]); there f(t) takes at most 2 (n + p) + 30 roundings of
    relative size 2^-53 on terms bounded by ||x||_inf (the weights sum to
    at most 1), |f(t)| + ||x||_inf or L_cost (a knot's cost is at most the
    cost on its segment plus L_cost), and a float T off by one moves S by
    2^-52.  A dropped bracket's bound exceeds the candidate's value, so
    each of its terms is at most 3 (|f(lo)| + |f(hi)| + ||x||_inf).  The
    bound's rounding, and that of f(t) wherever f(t) is near the bound,
    is thus far below E: a dropped search would end strictly above the
    candidate, which ``min`` meets first.  Nothing is dropped where (n +
    p) ||x||_inf >= 1e300 (sums may overflow) or an end is not finite.
    """
    values = x.prefix + x.tail_cycle
    top, bottom, n = max(values), min(values), len(x.prefix)
    p, norm = len(values) - n, max(top, -bottom)
    if not norm * (n + p) < 1e300:
        return brackets
    two_r, mu, best, scale = top - bottom, _tail_mean(x), candidates[0][0], 1e-9 * (n + p)
    kept = []
    for (lo, hi), (f_lo, f_hi) in zip(brackets, ends):
        slope, least = piece.bound(lo, hi)
        t = math.floor(hi / (1.0 - hi))
        bound = 0.5 * (f_lo + f_hi - (two_r * (t + 1) * hi ** t + slope) * (hi - lo))
        if lo >= 0.5 and p <= 1024:     # lo ** (1 - p) <= 2 ** 1023
            tail = 2.0 * norm * (1.0 - lo) * (n + (p - 1) * lo ** (1 - p))
            bound = max(bound, mu - tail + least)
        if not bound - scale * (1.0 + abs(f_lo) + abs(f_hi) + norm + slope) > best:
            kept.append((lo, hi))
    return kept


def _objective(x: Stream, piece: _Piece) -> Callable[[float], float]:
    """d -> D_d(x) + cost(d) at one factor."""
    dv, cost = _dv_scalar(x), piece.scalar
    return lambda d: dv(d) + cost(d)


#: Fewest kept brackets refined by one lockstep search instead of one
#: scalar search each; below it numpy's fixed cost per call loses to
#: scalar golden steps.  Measured: the two break even between 64 and 112
#: brackets for quadratic, tabulated and interval pieces, at about 170
#: for an interval piece on random streams.
_LOCKSTEP_MIN = 96


def _minimize_on_interval(xs: list[Stream], piece: _Piece) -> list[tuple[float, float]]:
    """Grid scan plus golden refinement of D_delta(x) + cost on one piece,
    for each stream x of ``xs``.

    See :func:`_scan` for the candidates and brackets.  The brackets that
    :func:`_undercutting` keeps get one scalar golden-section search each,
    or, from ``_LOCKSTEP_MIN`` of them on, one lockstep search together,
    with the same bits.  Returns (argmin, value) per stream; ties resolve
    to the smallest argmin.
    """
    if piece.b <= piece.a:
        return [(piece.a, _objective(x, piece)(piece.a)) for x in xs]
    scans = [_scan(x, piece) for x in xs]
    kept = [(i, lo, hi) for i, (x, scan) in enumerate(zip(xs, scans))
            for lo, hi in _undercutting(x, piece, *scan)]
    if len(kept) >= _LOCKSTEP_MIN:
        _, lo, hi = np.array(kept).T
        found = _golden_lockstep(_lanes([xs[i] for i, _, _ in kept], piece.lanes), lo, hi)
    else:
        found = [_golden(_objective(xs[i], piece), lo, hi) for i, lo, hi in kept]
    for (i, _, _), (d_star, v_star) in zip(kept, found):
        scans[i][0].append((v_star, d_star))
    return [min(candidates)[::-1] for candidates, _, _ in scans]


def _minimize_many(xs: list[Stream], c: CostFunction) -> list[tuple[float, float]]:
    """:func:`minimize_over_delta` for each stream, bit for bit."""
    if not isinstance(c, _Cost):
        raise InvalidCost(f"not a cost function: {c!r}")
    if not (c.pieces or c.isolated()):
        raise InfeasibleCost("cost is identically infinite on [0, 1)")
    found = [[(discounted_value(x, d) + k, d) for d, k in c.isolated()] for x in xs]
    for piece in c.pieces:
        for candidates, (d_star, v_star) in zip(found, _minimize_on_interval(xs, piece)):
            candidates.append((v_star, d_star))
    return [min(candidates)[::-1] for candidates in found]


def minimize_over_delta(x: Stream, c: CostFunction) -> tuple[float, float]:
    """Global minimum of delta -> D_delta(x) + cost(delta) over [0, 1].

    Finite point sets and tabulated knots are enumerated exactly; each
    continuous piece of the cost gets a fixed grid of ``_NODES`` = 2001
    nodes, followed by golden-section refinement (to 1e-9 in ``delta``)
    of its two end brackets and of one bracket per run of adjacent grid
    minima (see :func:`_scan`).  Only the brackets whose lower bound, less
    a float margin, undercuts the grid's best value are searched (see
    :func:`_undercutting`): the
    Lipschitz bound ``(f(lo) + f(hi) - L (hi - lo)) / 2`` with ``L = r *
    2 (T + 1) hi^T + L_cost``, ``T = floor(hi / (1 - hi))`` and ``r`` the
    half-range of the stream's values, and for ``lo >= 0.5`` the tail mean
    less the bound below at ``lo``, plus the cost's minimum on the
    bracket; the margin is ``1e-9 * (n + p) * (1 + |f(lo)| + |f(hi)| +
    ||x||_inf + L_cost)``, with ``n`` and ``p`` as below.  Returns
    (argmin, value); ties resolve to the smallest argmin, with the bits of
    searching every bracket.

    A piece [a, 1) (an indicator interval ending at 1.0, or the quadratic
    cost's [0, 1)) is searched on [a, 1 - 1e-9], so the reported minimum
    may exceed the piece's infimum.  With ``n`` the prefix length and
    ``p`` the period of ``x``, the closed form gives
    ``|D_delta(x) - tail mean| <= 2 * ||x||_inf * (1 - delta) * (n + (p - 1)
    * delta^(1 - p))``.  So the gap is at most twice that bound at
    ``delta = 1 - 1e-9``, plus the search tolerance; a quadratic cost whose
    center lies past 1 - 1e-9 adds at most ``stiffness * 1e-18``.

    Raises:
        InfeasibleCost: if the cost is infinite everywhere on [0, 1).
    """
    return _minimize_many([x], c)[0]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class _Criterion(_Tagged):
    """An evaluation criterion: ``value(x)`` is the constant equivalent of
    the stream ``x``, and ``values(xs)`` is ``value`` of each stream, bit
    for bit."""

    family = "criterion"

    def values(self, xs: list[Stream]) -> list[float]:
        return [self.value(x) for x in xs]


@dataclass(frozen=True)
class Edu(_Criterion, tag="edu"):
    """Exponential discounting with a single factor strictly inside (0, 1)."""

    delta: float

    def __post_init__(self):
        d = float(self.delta)
        if not 0.0 < d < 1.0:
            raise InvalidCriterion(f"EDU factor must lie in (0, 1), got {self.delta}")
        object.__setattr__(self, "delta", d)

    def value(self, x: Stream) -> float:
        return discounted_value(x, self.delta)


@dataclass(frozen=True)
class Maxmin(_Criterion, tag="maxmin"):
    """Worst-case discounting over a closed set of factors in [0, 1).

    This is the variational criterion of the set's zero-cost indicator.
    delta = 0 is admissible here (mass on the present, via 0^0 = 1), unlike
    in :class:`Edu`.
    """

    points: tuple[float, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        ind = IndicatorSet(points=self.points, intervals=self.intervals)
        object.__setattr__(self, "points", ind.points)
        object.__setattr__(self, "intervals", ind.intervals)
        object.__setattr__(self, "_indicator", ind)

    def value(self, x: Stream) -> float:
        return minimize_over_delta(x, self._indicator)[1]

    def values(self, xs: list[Stream]) -> list[float]:
        return [v for _, v in _minimize_many(xs, self._indicator)]


@dataclass(frozen=True)
class Variational(_Criterion, tag="variational"):
    """min over delta of discounted value plus a grounded cost."""

    cost: CostFunction

    def __post_init__(self):
        if not isinstance(self.cost, _Cost):
            raise InvalidCriterion(f"not a cost function: {self.cost!r}")

    def value(self, x: Stream) -> float:
        return minimize_over_delta(x, self.cost)[1]

    def values(self, xs: list[Stream]) -> list[float]:
        return [v for _, v in _minimize_many(xs, self.cost)]

    @classmethod
    def from_body(cls, body: dict) -> "Variational":
        return cls(cost=_Cost.from_dict(body["cost"]))


# The patient criteria look their closed forms up in ``patient`` at call
# time, so a function replaced there (say, by a tracer) is the one called.

@dataclass(frozen=True)
class Inf(_Criterion, tag="inf"):
    """Worst utility over all periods."""

    def value(self, x: Stream) -> float:
        return patient.inf_value(x)


@dataclass(frozen=True)
class Liminf(_Criterion, tag="liminf"):
    """Worst recurring utility."""

    def value(self, x: Stream) -> float:
        return patient.liminf_value(x)


@dataclass(frozen=True)
class BanachWindow(_Criterion, tag="banach_window"):
    """Long-run worst window average (shift-invariant patient criterion)."""

    def value(self, x: Stream) -> float:
        return patient.banach_window_value(x)


@dataclass(frozen=True)
class Cesaro(_Criterion, tag="cesaro"):
    """Long-run plain average."""

    def value(self, x: Stream) -> float:
        return patient.cesaro_value(x)


Criterion = Union[Edu, Maxmin, Variational, Inf, Liminf, BanachWindow, Cesaro]


def evaluate(k: Criterion, x: Stream) -> float:
    """Constant equivalent I(x) of the stream under criterion ``k``; maxmin
    and variational criteria take it from :func:`minimize_over_delta`."""
    if not isinstance(k, _Criterion):
        raise InvalidCriterion(f"not a criterion: {k!r}")
    return k.value(x)


def evaluate_many(k: Criterion, xs: Iterable[Stream]) -> list[float]:
    """``[evaluate(k, x) for x in xs]``, bit for bit.

    Maxmin and variational criteria scan each stream on the piece's fixed
    grid as ``evaluate`` does, then refine the golden-section brackets
    kept on a piece, of all the streams together, in one lockstep search
    once there are ``_LOCKSTEP_MIN`` (96) of them (one search each below
    that); the other criteria evaluate one stream at a time.
    """
    if not isinstance(k, _Criterion):
        raise InvalidCriterion(f"not a criterion: {k!r}")
    return k.values(list(xs))


class _Evaluator:
    """A criterion as a stream -> value function; ``many`` is its batched
    form, :func:`evaluate_many`."""

    __slots__ = ("criterion",)

    def __init__(self, criterion: Criterion):
        self.criterion = criterion

    def __call__(self, x: Stream) -> float:
        return evaluate(self.criterion, x)

    def many(self, xs: Iterable[Stream]) -> list[float]:
        return evaluate_many(self.criterion, xs)


def as_evaluator(k) -> Callable[[Stream], float]:
    """Criterion (or plain callable) as a stream -> value function."""
    if callable(k) and not isinstance(k, type):
        return k
    return _Evaluator(k)
