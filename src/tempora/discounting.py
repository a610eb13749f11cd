"""Discounted evaluation of streams, the cost shapes and every criterion.

The building block is the normalized discounted value

    D_delta(x) = (1 - delta) * sum_t delta^t x_t,

computed in closed form for eventually periodic streams: a Horner pass over
the prefix plus a geometric-tail term, written once per factor here and
once over arrays in :mod:`tempora.minimizer`, with the same bits.  The
delta-domain is the closed interval [0, 1]; at delta = 1 the continuous
(Abel) extension equals the tail-cycle mean, and every cost function is
infinite there, so minimization over [0, 1] is effectively over [0, 1).
The convention 0^0 = 1 makes delta = 0 the weighting that puts all mass
on the present, D_0(x) = x_0.

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
explicit absorbing value, never a large float.  The search over delta of
maxmin and variational criteria, and D over arrays of factors, are the
one layer that works on arrays, :mod:`tempora.minimizer`: it and numpy
are imported inside the functions that need them, so a closed-form
criterion loads neither.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from itertools import repeat
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Union

from . import patient
from .errors import (InvalidCost, InvalidCriterion, InvalidDelta, ParseError, decoding, numeric,
                     tagged)
from .streams import Stream

if TYPE_CHECKING:   # imported where used, so that a closed-form criterion loads neither
    import numpy as np

    from .minimizer import _Piece

#: Right edge used for numerically searching half-open pieces [a, 1).
_ONE_EDGE = 1.0 - 1e-9

_INF = math.inf

#: An overflowing D is taken again on the values over ``_UP`` (see
#: :func:`discounted_value`), and scaled back saturates at ``_MAX``.
_UP = 2.0 ** 64
_MAX = sys.float_info.max


# ---------------------------------------------------------------------------
# discounted value
# ---------------------------------------------------------------------------

def _dv_scalar(prefix, cycle) -> Callable[[float], float]:
    """delta -> D_delta on [0, 1], unchecked, of the stream ``prefix`` then
    ``cycle`` repeated, in canonical form: a cycle of one is a constant
    tail.

    The one scalar closed form, behind :func:`discounted_value` and the
    minimizer's golden-section steps: the prefix and the cycle are reversed
    and the tail kind is checked once per stream, not once per factor.
    """
    pre, cyc, n, p = prefix[::-1], cycle[::-1], len(prefix), len(cycle)

    def dv(delta: float) -> float:
        if delta == 1.0:
            return patient._mean(cycle)
        s = 0.0
        for v in pre:
            s = v + delta * s
        if p == 1:
            tail_abel = cycle[0]
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
        out = (1.0 - delta) * s + delta ** n * tail_abel
        if math.isfinite(out):
            return out
        out = _UP * _dv_scalar([v / _UP for v in prefix], [v / _UP for v in cycle])(delta)
        return min(max(out, -_MAX), _MAX)

    return dv


def discounted_value(x: Stream, delta: float) -> float:
    """Closed-form D_delta(x) for delta in [0, 1].

    Exact form: (1-delta) * sum_{t<N} delta^t x_t + delta^N * A(delta) where
    A is the tail value (the constant c, or for a cycle q of period p,
    (1-delta) * sum_{k<p} delta^k q_k / (1 - delta^p)).  At delta = 1 the
    continuous extension equals the tail mean; at delta = 0 the value is
    x_0 by the 0^0 = 1 convention.

    Though |D_delta(x)| <= ||x||_inf, a sum may overflow, which leaves inf
    or NaN.  Such a value alone, element by element in the array forms, is
    taken again on the values divided by 2^64, exactly, and multiplied
    back, saturating at the largest float: (n + p) ||x||_inf / 2^64 cannot
    overflow, so D is always finite, and every other value keeps its bits,
    whatever is evaluated beside it.

    Raises:
        InvalidDelta: if delta is outside [0, 1] (or NaN).
    """
    if not 0.0 <= delta <= 1.0:
        raise InvalidDelta(f"discount factor must lie in [0, 1], got {delta}")
    return _dv_scalar(x.prefix, x.tail_cycle)(delta)


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
        return cls(**{f.name: _from_json(body[f.name], f.name) for f in fields(cls)
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


def _from_json(v, field: str):
    """JSON arrays as tuples, two levels deep: a body holds at most a list
    of pairs, and anything deeper fails validation as it stands.  Every
    body field holds numbers, so a string or a boolean is rejected."""
    if not isinstance(numeric(v, field), list):
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
    ``pieces`` lists the continuous finite-cost pieces
    (:class:`tempora.minimizer._Piece`),
    each searched on its fixed grid.  It is built once per cost, so each
    piece's cost on the grid is computed once.
    """

    family = "cost"

    def isolated(self) -> list[tuple[float, float]]:
        return []




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
        import numpy as np

        from .minimizer import _Piece
        return [_Piece(a, min(b, _ONE_EDGE), _zero, np.zeros_like,
                       lambda lo, hi: (0.0, 0.0))
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
        return _square_cost(self.stiffness, self.center, delta)

    @functools.cached_property
    def pieces(self) -> list[_Piece]:
        # Functions of the two numbers, not bound methods: a piece that held
        # the cost would make the cost and its grid array a reference cycle,
        # freed only by a full collection.
        import numpy as np

        from .minimizer import _Piece
        k, c = self.stiffness, self.center

        def lanes(d: np.ndarray) -> np.ndarray:
            # ``value`` of each float, bit for bit: numpy's square may
            # differ from the float power in the last bit, so the square is
            # taken by ``pow`` per element.
            return k * np.array(list(map(pow, (d - c).tolist(), repeat(2))))

        def bound(lo, hi):
            # 2 max(|lo - c|, |hi - c|) for lo <= hi, with operators alone,
            # so numbers and arrays take the same code.
            u, v = c - lo, hi - c
            return k * (u + v + abs(u - v)), 2.0 * k

        return [_Piece(0.0, _ONE_EDGE, functools.partial(_square_cost, k, c), lanes, bound)]


def _square_cost(k: float, c: float, delta: float) -> float:
    return k * (delta - c) ** 2


@dataclass(frozen=True)
class Tabulated(_Cost, tag="tabulated"):
    """Piecewise-linear cost through sorted (delta, cost) knots.

    Finite on [0, delta_max] with delta_max < 1 (below the first knot the
    cost extends flat), infinite beyond delta_max.  Must contain a
    zero-cost knot (groundedness), and each segment's slope must be a
    finite float.
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
        if not all(map(math.isfinite, _slopes(self))):
            raise InvalidCost("knot slopes must be finite: a segment is too steep for a float")

    def value(self, delta: float) -> float:
        return _INF if delta > self.knots[-1][0] else self._scalar(delta)

    @functools.cached_property
    def _scalar(self) -> Callable[[float], float]:
        # Apart from ``pieces``, so one value builds no grid and loads no numpy.
        return _interp(self)

    def isolated(self) -> list[tuple[float, float]]:
        """The knots and their costs: a minimum at a kink is found exactly."""
        return list(self.knots)

    @functools.cached_property
    def pieces(self) -> list[_Piece]:
        # _interp has np.interp's bits, so np.interp serves the lanes.
        import numpy as np

        from .minimizer import _Piece
        ds, ks = zip(*self.knots)
        steepest = max(map(abs, _slopes(self)), default=0.0)

        def bound(lo, hi):
            # Linear between knots; a knot strictly inside (lo, hi) is a
            # kink: inf ** 0 is 1, so the curvature bound is 0 or inf.
            kinks = sum((lo < k) & (k < hi) for k in ds)
            return steepest, _INF ** kinks - 1.0

        return [_Piece(0.0, ds[-1], self._scalar, lambda g: np.interp(g, ds, ks), bound)]


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
# criteria
# ---------------------------------------------------------------------------

class _Criterion(_Tagged):
    """An evaluation criterion: ``value(x)`` is the constant equivalent of
    the stream ``x``, and ``rows(n, vals)`` is ``value`` of each row's
    stream, bit for bit, as an array, for canonical rows of one shape: row
    i of the array ``vals`` holds a canonical stream's prefix (``n``
    values) then its cycle.  A criterion is its own stream -> value
    function: a call is :func:`evaluate` and ``many`` is
    :func:`evaluate_many`."""

    family = "criterion"

    def __call__(self, x: Stream) -> float:
        return evaluate(self, x)

    def many(self, xs: Iterable[Stream]) -> list[float]:
        return evaluate_many(self, xs)


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

    def rows(self, n: int, vals: np.ndarray) -> np.ndarray:
        from .minimizer import _dv_at
        return _dv_at(n, vals, self.delta)


class _Minimizing(_Criterion):
    """A criterion that is the minimum over delta of the discounted value
    plus its cost function ``cost``."""

    def value(self, x: Stream) -> float:
        from .minimizer import minimize_over_delta
        return minimize_over_delta(x, self.cost)[1]

    def rows(self, n: int, vals: np.ndarray) -> np.ndarray:
        from .minimizer import _minimize_rows
        return _minimize_rows(n, vals, self.cost)[1]


@dataclass(frozen=True)
class Maxmin(_Minimizing, tag="maxmin"):
    """Worst-case discounting over a closed set of factors in [0, 1).

    ``cost`` is the set's zero-cost :class:`IndicatorSet`, so the criterion
    evaluates as :class:`Variational` over it.  It is not a field: equality,
    the repr and the JSON body hold ``points`` and ``intervals`` alone.
    delta = 0 is admissible here (mass on the present, via 0^0 = 1), unlike
    in :class:`Edu`.
    """

    points: tuple[float, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        ind = IndicatorSet(points=self.points, intervals=self.intervals)
        object.__setattr__(self, "points", ind.points)
        object.__setattr__(self, "intervals", ind.intervals)
        object.__setattr__(self, "cost", ind)


@dataclass(frozen=True)
class Variational(_Minimizing, tag="variational"):
    """min over delta of discounted value plus a grounded cost."""

    cost: CostFunction

    def __post_init__(self):
        if not isinstance(self.cost, _Cost):
            raise InvalidCriterion(f"not a cost function: {self.cost!r}")

    @classmethod
    def from_body(cls, body: dict) -> "Variational":
        return cls(cost=_Cost.from_dict(body["cost"]))


class _Patient(_Criterion):
    """A patient criterion: ``value`` is the function named ``_value`` in
    :mod:`tempora.patient` on the stream, and ``rows`` the closed form it
    wraps, named ``_form``, on each row's prefix and cycle.  Both are
    looked up at call time, so a function replaced there (say, by a
    tracer) is the one called."""

    _value: ClassVar[str]
    _form: ClassVar[str]

    def value(self, x: Stream) -> float:
        return getattr(patient, self._value)(x)

    def rows(self, n: int, vals: np.ndarray) -> np.ndarray:
        import numpy as np
        form = getattr(patient, self._form)
        return np.fromiter(map(form, vals[:, :n].tolist(), vals[:, n:].tolist()), float, len(vals))


@dataclass(frozen=True)
class Inf(_Patient, tag="inf"):
    """Worst utility over all periods."""

    _value, _form = "inf_value", "_least"


@dataclass(frozen=True)
class Liminf(_Patient, tag="liminf"):
    """Worst recurring utility."""

    _value, _form = "liminf_value", "_least_recurring"


@dataclass(frozen=True)
class BanachWindow(_Patient, tag="banach_window"):
    """Long-run worst window average (shift-invariant patient criterion)."""

    _value, _form = "banach_window_value", "_long_run_mean"


@dataclass(frozen=True)
class Cesaro(_Patient, tag="cesaro"):
    """Long-run plain average."""

    _value, _form = "cesaro_value", "_long_run_mean"


Criterion = Union[Edu, Maxmin, Variational, Inf, Liminf, BanachWindow, Cesaro]


def evaluate(k: Criterion, x: Stream) -> float:
    """Constant equivalent I(x) of the stream under criterion ``k``; maxmin
    and variational criteria take it from
    :func:`tempora.minimizer.minimize_over_delta`."""
    if not isinstance(k, _Criterion):
        raise InvalidCriterion(f"not a criterion: {k!r}")
    return k.value(x)


def evaluate_many(k: Criterion, xs: Iterable[Stream]) -> list[float]:
    """``[evaluate(k, x) for x in xs]``, bit for bit.

    The streams are grouped by shape (prefix length and period), and each
    group is handed to the criterion's ``rows`` as one array of values.
    Edu, and each isolated point of a cost, takes the closed form at one
    factor on every row at once; the patient criteria take theirs row by
    row.  Maxmin and variational criteria scan the rows on each piece's
    fixed grid, coarse to fine from ``_COARSE_MIN`` (16) rows on, with a
    first pass per 16 neighbouring rows from ``_GROUPED_MIN`` (64) on, and
    on the full grid as ``evaluate`` does below 16 rows; then they refine
    the golden-section brackets kept on a piece, of all the rows of the
    group, in one lockstep search on lanes of those rows once there are
    ``_LOCKSTEP_MIN`` (96) of them (one search each below that).  Lanes
    share their group's shape, so no lane is padded.
    """
    if not isinstance(k, _Criterion):
        raise InvalidCriterion(f"not a criterion: {k!r}")
    import numpy as np
    xs = list(xs)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, x in enumerate(xs):
        shapes.setdefault((len(x.prefix), x.period), []).append(i)
    out = np.empty(len(xs))
    for (n, _), at in shapes.items():
        out[at] = k.rows(n, np.array([xs[i].prefix + xs[i].tail_cycle for i in at]))
    return out.tolist()


def evaluate_each(ev: Callable[[Stream], float], xs: Iterable[Stream]) -> Iterable[float]:
    """``ev`` over ``xs``: one batch (:func:`evaluate_many`) for a
    criterion, one by one (lazily) for a plain callable."""
    return ev.many(xs) if isinstance(ev, _Criterion) else map(ev, xs)


def as_evaluator(k) -> Callable[[Stream], float]:
    """A criterion, or any plain callable, as a stream -> value function.

    Raises:
        InvalidCriterion: for a class or anything else not callable.
    """
    if callable(k) and not isinstance(k, type):
        return k
    raise InvalidCriterion(f"not a criterion: {k!r}")
