import functools
import itertools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempora import (BanachWindow, Cesaro, Constant, Edu, IndicatorSet, Inf,
                     Liminf, Maxmin, Periodic, Quadratic, Stream, Tabulated,
                     Variational, add, constant_stream, cost_eval, delay,
                     discounted_value, evaluate, evaluate_many, make_stream,
                     minimize_over_delta, random_stream, scale_translate,
                     stream_from_dict, sup_distance, unanimity_probe)
from tempora import cli
from tempora.axioms import check_axiom
from tempora.discounting import (_FACTOR_CACHE, _GRID_CACHE, _NODES, _grid, _grid_denom,
                                 _grid_power, _interp, discounted_value_grid)
from tempora.errors import (InvalidCost, InvalidCriterion, InvalidDelta)
from tempora.jsonio import criterion_from_dict
from tempora.streams import _mixture_rows, _stream
import tempora.axioms as A
import tempora.discounting as D

from conftest import SATURATING, SATURATING_AT, exact_dv

ALL_DELTAS = [i / 10 for i in range(10)] + [0.99, 1.0]

CRITERIA = [
    Edu(0.9),
    Maxmin(points=(0.25, 0.5, 0.9)),
    Maxmin(intervals=((0.4, 0.6),)),
    Variational(Quadratic(0.9, 5.0)),
    Variational(IndicatorSet(points=(0.3, 0.6), point_costs=(0.0, 1.0))),
    Variational(Tabulated(knots=((0.2, 0.5), (0.5, 0.0), (0.8, 2.0)))),
    Inf(),
    Liminf(),
    BanachWindow(),
    Cesaro(),
]


def series_oracle(x, delta, horizon=10 ** 5):
    """Truncated partial sum of (1-delta) sum delta^t x_t, independent of
    the closed form."""
    if delta == 1.0:
        return float(np.mean(x.tail_cycle))
    reps = (horizon + 1 - len(x.prefix)) // x.period + 2
    vals = np.concatenate([np.asarray(x.prefix),
                           np.tile(x.tail_cycle, max(reps, 0))])[:horizon + 1]
    powers = np.power(delta, np.arange(horizon + 1))
    return (1.0 - delta) * float(powers @ vals)


def dense_discounted_value(x, d):
    """D_d(x) at each factor of an array in [0, 1), vectorized with numpy's
    own arithmetic: a tolerance oracle for grids too dense for a loop."""
    polyval = np.polynomial.polynomial.polyval
    with np.errstate(divide="ignore"):
        denom = -np.expm1(x.period * np.log(d))     # 1.0 at d = 0
    tail = (1.0 - d) * polyval(d, x.tail_cycle) / denom
    return (1.0 - d) * polyval(d, x.prefix or [0.0]) + d ** len(x.prefix) * tail


def row_of(x):
    """A stream's canonical prefix and cycle as lists of floats, as the
    minimizer reads them from its row (a constant tail is a cycle of one)."""
    return list(x.prefix), list(x.tail_cycle)


def terms_of(x):
    """(n, p, ||x||_inf, r) of a stream, as the minimizer takes them
    from a row on the full grid."""
    values = x.prefix + x.tail_cycle
    top, bottom = max(values), min(values)
    return len(x.prefix), x.period, max(top, -bottom), top / 2 - bottom / 2


def uncertified(terms):
    """``terms`` with ||x||_inf and r taken as inf, under which no
    certificate holds: the scan then returns every bracket its grid opens."""
    n, p, _, _ = terms
    return n, p, math.inf, math.inf


# ---------------------------------------------------------------------------
# discounted_value
# ---------------------------------------------------------------------------

def test_constant_stream_is_normalized():
    for d in ALL_DELTAS:
        assert discounted_value(constant_stream(2.5), d) == pytest.approx(2.5, abs=1e-14)


def test_probe_stream_formula():
    probe = unanimity_probe(0.6, 10.0)
    for dp in [i / 100 for i in range(100)]:
        assert discounted_value(probe, dp) == pytest.approx(10.0 * (dp - 0.6) ** 2, abs=1e-12)


def test_closed_form_matches_series_oracle(rng):
    for _ in range(30):
        x = random_stream(rng, max_prefix=16, max_period=5)
        for d in (0.0, 0.3, 0.7, 0.97):
            assert abs(discounted_value(x, d) - series_oracle(x, d)) <= 1e-9


def test_boundary_deltas():
    x = make_stream([9.0, -3.0], Periodic((1.0, 2.0, 6.0)))
    assert discounted_value(x, 0.0) == 9.0
    assert discounted_value(x, 1.0) == 3.0
    with pytest.raises(InvalidDelta):
        discounted_value(x, -0.1)
    with pytest.raises(InvalidDelta):
        discounted_value(x, 1.1)
    with pytest.raises(InvalidDelta):
        discounted_value(x, float("nan"))


def test_grid_agrees_with_scalar(rng):
    for _ in range(20):
        x = random_stream(rng)
        grid = np.linspace(0.0, 1.0, 101)
        vec = ref_discounted_value_grid(x, grid)
        for d, v in zip(grid, vec):
            assert v == pytest.approx(discounted_value(x, float(d)), abs=1e-13)


def test_delay_identity_closed_form(rng):
    for _ in range(100):
        x = random_stream(rng)
        d = float(rng.uniform(0.0, 1.0))
        lhs = discounted_value(delay(x), d)
        assert abs(lhs - d * discounted_value(x, d)) <= 1e-12


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def test_indicator_cost_eval():
    c = IndicatorSet(points=(0.5,))
    assert cost_eval(c, 0.5) == 0.0
    assert cost_eval(c, 0.49) == math.inf
    both = IndicatorSet(points=(0.2,), intervals=((0.4, 0.6),), point_costs=(0.0,))
    assert cost_eval(both, 0.5) == 0.0
    assert cost_eval(both, 0.39) == math.inf


def test_quadratic_cost_eval():
    c = Quadratic(0.9, 2.0)
    assert cost_eval(c, 0.8) == pytest.approx(0.02, abs=1e-12)
    assert cost_eval(c, 0.9) == 0.0


def test_tabulated_cost_eval():
    c = Tabulated(knots=((0.2, 1.0), (0.4, 0.0), (0.8, 4.0)))
    assert cost_eval(c, 0.3) == pytest.approx(0.5, abs=1e-12)
    assert cost_eval(c, 0.6) == pytest.approx(2.0, abs=1e-12)
    assert cost_eval(c, 0.1) == 1.0      # flat extension below the first knot
    assert cost_eval(c, 0.9) == math.inf


def test_tabulated_single_knot_is_flat_to_its_delta():
    c = Tabulated(knots=((0.5, 0.0),))
    assert cost_eval(c, 0.0) == 0.0
    assert cost_eval(c, 0.5) == 0.0
    assert cost_eval(c, 0.51) == math.inf
    probe = unanimity_probe(0.2, 10.0)
    d_star, value = minimize_over_delta(probe, c)
    assert abs(d_star - 0.2) <= 1e-4
    assert abs(value) <= 1e-10


def test_every_cost_is_infinite_at_one():
    costs = [IndicatorSet(points=(0.5,)),
             IndicatorSet(intervals=((0.0, 1.0),)),
             Quadratic(0.9, 2.0),
             Tabulated(knots=((0.5, 0.0),))]
    for c in costs:
        assert cost_eval(c, 1.0) == math.inf


def test_cost_validation():
    with pytest.raises(InvalidCost):
        IndicatorSet()                                    # empty set
    with pytest.raises(InvalidCost):
        IndicatorSet(points=(1.0,))                       # point at 1
    with pytest.raises(InvalidCost):
        IndicatorSet(points=(0.5,), point_costs=(1.0,))   # not grounded
    with pytest.raises(InvalidCost, match="length"):
        IndicatorSet(points=(0.1, 0.2), point_costs=(0.0,))
    with pytest.raises(InvalidCost):
        IndicatorSet(intervals=((1.0, 1.0),))             # collapses onto 1
    with pytest.raises(InvalidCost):
        Quadratic(1.0, 2.0)
    with pytest.raises(InvalidCost):
        Quadratic(0.5, -1.0)
    with pytest.raises(InvalidCost):
        Tabulated(knots=((0.4, 1.0), (0.2, 0.0)))         # unsorted
    with pytest.raises(InvalidCost):
        Tabulated(knots=((0.2, 0.5),))                    # not grounded
    with pytest.raises(InvalidCost):
        Tabulated(knots=((0.2, 1e308), (0.5, 0.0)))       # slope -inf
    with pytest.raises(InvalidCost):
        Tabulated(knots=((0.2, 1e308), (0.5, 1.7e308), (0.8, 0.0)))   # slopes inf, -inf


@pytest.mark.parametrize("call, error, match", [
    (lambda: minimize_over_delta(constant_stream(1.0), Edu(0.5)), InvalidCost, "not a cost"),
    (lambda: cost_eval(Edu(0.5), 0.5), InvalidCost, "not a cost"),
    (lambda: cost_eval(Quadratic(0.5, 1.0), 1.5), InvalidDelta, "must lie in"),
    (lambda: cost_eval(Quadratic(0.5, 1.0), float("nan")), InvalidDelta, "must lie in"),
    (lambda: evaluate(Quadratic(0.5, 1.0), constant_stream(1.0)), InvalidCriterion,
     "not a criterion"),
    (lambda: Variational(Edu(0.5)), InvalidCriterion, "not a cost"),
], ids=["minimize-criterion", "cost_eval-criterion", "cost_eval-above-1", "cost_eval-nan",
        "evaluate-cost", "variational-criterion"])
def test_a_public_entry_rejects_an_argument_of_the_wrong_kind(call, error, match):
    with pytest.raises(error, match=match):
        call()


# ---------------------------------------------------------------------------
# minimize_over_delta
# ---------------------------------------------------------------------------

def test_minimize_single_point_is_exact(rng):
    for _ in range(20):
        x = random_stream(rng)
        d_star, value = minimize_over_delta(x, IndicatorSet(points=(0.37,)))
        assert d_star == 0.37
        assert value == discounted_value(x, 0.37)


def test_minimize_probe_over_free_interval():
    probe = unanimity_probe(0.6, 10.0)
    d_star, value = minimize_over_delta(probe, IndicatorSet(intervals=((0.0, 1.0),)))
    assert abs(d_star - 0.6) <= 1e-4
    assert abs(value) <= 1e-10


def test_minimize_matches_dense_grid_oracle():
    # decreasing discounted value plus a quadratic pull toward 0.3
    x = make_stream([5.0], Constant(0.0))
    cost = Quadratic(0.3, 10.0)
    d_star, value = minimize_over_delta(x, cost)
    grid = np.linspace(0.0, 1.0, 10 ** 6, endpoint=False)
    brute = dense_discounted_value(x, grid) + 10.0 * (grid - 0.3) ** 2
    assert value <= float(brute.min()) + 1e-12
    assert abs(value - float(brute.min())) <= 1e-8
    assert abs(d_star - grid[int(brute.argmin())]) <= 1e-4


def test_minimize_tabulated_matches_dense_grid_oracle(rng):
    cost = Tabulated(knots=((0.1, 2.0), (0.5, 0.0), (0.8, 3.0)))
    grid = np.linspace(0.0, 0.8, 100_001)
    cost_on_grid = np.interp(grid, [0.1, 0.5, 0.8], [2.0, 0.0, 3.0])
    for _ in range(10):
        x = random_stream(rng)
        _, value = minimize_over_delta(x, cost)
        brute = float((dense_discounted_value(x, grid) + cost_on_grid).min())
        assert value <= brute + 1e-12
        assert abs(value - brute) <= 1e-7


def test_minimize_with_point_costs():
    probe = unanimity_probe(0.6, 100.0)
    cost = IndicatorSet(points=(0.3, 0.6), point_costs=(0.0, 1.0))
    d_star, value = minimize_over_delta(probe, cost)
    assert d_star == 0.6
    assert value == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# evaluate: examples and shared functional laws
# ---------------------------------------------------------------------------

def test_maxmin_at_zero_ties():
    k = Maxmin(points=(0.0,))
    assert evaluate(k, make_stream([0.0, 1.0], Constant(0.0))) == 0.0
    assert evaluate(k, make_stream([0.0, 2.0], Constant(0.0))) == 0.0


def test_edu_constant():
    assert evaluate(Edu(0.42), constant_stream(7.0)) == pytest.approx(7.0, abs=1e-14)


def test_edu_validation():
    with pytest.raises(InvalidCriterion):
        Edu(0.0)
    with pytest.raises(InvalidCriterion):
        Edu(1.0)
    Maxmin(points=(0.0,))  # zero is fine through the maxmin route
    with pytest.raises(InvalidCost):
        Maxmin()


def test_variational_indicator_equals_maxmin_points(rng):
    e = (0.25, 0.5, 0.9)
    var = Variational(IndicatorSet(points=e))
    mm = Maxmin(points=e)
    for _ in range(50):
        x = random_stream(rng)
        brute = min(discounted_value(x, d) for d in e)
        assert evaluate(var, x) == pytest.approx(brute, abs=1e-12)
        assert evaluate(mm, x) == pytest.approx(brute, abs=1e-12)


def test_variational_indicator_equals_maxmin_interval(rng):
    var = Variational(IndicatorSet(intervals=((0.4, 0.6),)))
    mm = Maxmin(intervals=((0.4, 0.6),))
    grid = np.linspace(0.4, 0.6, 200_001)
    for _ in range(20):
        x = random_stream(rng)
        va, vm = evaluate(var, x), evaluate(mm, x)
        brute = float(dense_discounted_value(x, grid).min())
        assert abs(va - vm) <= 1e-10
        assert va <= brute + 1e-12
        assert abs(va - brute) <= 1e-8


def test_normalization_all_criteria():
    for k in CRITERIA:
        assert evaluate(k, constant_stream(1.0)) == pytest.approx(1.0, abs=1e-10)


def test_translation_invariance_all_criteria(rng):
    for k in CRITERIA:
        for _ in range(10):
            x = random_stream(rng)
            theta = float(rng.uniform(-5.0, 5.0))
            lhs = evaluate(k, scale_translate(x, 1.0, theta))
            assert lhs == pytest.approx(evaluate(k, x) + theta, abs=1e-10)


def test_lipschitz_all_criteria(rng):
    for k in CRITERIA:
        for _ in range(10):
            x, y = random_stream(rng), random_stream(rng)
            gap = abs(evaluate(k, x) - evaluate(k, y))
            assert gap <= sup_distance(x, y) + 1e-10


def test_monotonicity_all_criteria(rng):
    from tempora import inf_value
    for k in CRITERIA:
        for _ in range(10):
            y = random_stream(rng)
            u = random_stream(rng)
            bump = scale_translate(u, 1.0, -inf_value(u))
            assert evaluate(k, add(y, bump)) >= evaluate(k, y) - 1e-12


def test_concavity_all_criteria(rng):
    for k in CRITERIA:
        for _ in range(10):
            x, y = random_stream(rng), random_stream(rng)
            lam = float(rng.uniform(0.0, 1.0))
            mix = add(scale_translate(x, lam), scale_translate(y, 1.0 - lam))
            floor = min(evaluate(k, x), evaluate(k, y))
            assert evaluate(k, mix) >= floor - 1e-10


def test_improving_sequences_stay_improving_when_delayed(rng):
    from tempora import improving_pair
    for k in (Edu(0.9), Maxmin(points=(0.25, 0.5, 0.9)),
              Variational(Quadratic(0.9, 5.0))):
        for s in range(20):
            x, d = improving_pair(k, 1000 + s)
            assert evaluate(k, add(x, delay(d))) >= evaluate(k, x) - 1e-10


def test_maxmin_positive_homogeneity(rng):
    k = Maxmin(points=(0.2, 0.7), intervals=((0.4, 0.5),))
    for _ in range(25):
        x = random_stream(rng)
        a = float(rng.uniform(0.0, 4.0))
        lhs = evaluate(k, scale_translate(x, a))
        assert lhs == pytest.approx(a * evaluate(k, x), abs=1e-9 * (1 + a))


def test_edu_additivity(rng):
    k = Edu(0.95)
    for _ in range(50):
        x, y = random_stream(rng), random_stream(rng)
        lhs = evaluate(k, add(x, y))
        assert abs(lhs - evaluate(k, x) - evaluate(k, y)) <= 1e-12


# ---------------------------------------------------------------------------
# the minimizer against its per-node reference, bit for bit
# ---------------------------------------------------------------------------
#
# The reference below is the minimizer as it was before brackets were
# merged per flat run and the grid factors were cached: one golden-section
# search per grid minimum, a fresh np.linspace per call, and the scalar
# discounted value plus the scalar cost (np.interp for tabulated costs) as
# the objective, on the grid too, node by node; a tabulated cost's knots
# are enumerated like indicator points.  The functions are copied from the
# library, renamed with ref_.

def ref_tail_mean(x):
    cyc = x.tail_cycle
    return math.fsum(cyc) / len(cyc)


def ref_discounted_value(x, delta):
    if not 0.0 <= delta <= 1.0:
        raise InvalidDelta(f"discount factor must lie in [0, 1], got {delta}")
    if delta == 1.0:
        return ref_tail_mean(x)
    s = 0.0
    for v in reversed(x.prefix):
        s = v + delta * s
    if isinstance(x.tail, Constant):
        tail_abel = x.tail.value
    else:
        cyc = x.tail.cycle
        t = 0.0
        for v in reversed(cyc):
            t = v + delta * t
        if delta == 0.0:
            tail_abel = t
        else:
            # (1 - delta^p) via expm1 to avoid cancellation near delta = 1.
            denom = -math.expm1(len(cyc) * math.log(delta))
            tail_abel = (1.0 - delta) * t / denom
    return (1.0 - delta) * s + delta ** len(x.prefix) * tail_abel


def ref_discounted_value_grid(x, deltas):
    d = np.asarray(deltas, dtype=float)
    if d.size and (d.min() < 0.0 or d.max() > 1.0 or np.isnan(d).any()):
        raise InvalidDelta("discount factors must lie in [0, 1]")
    return np.array([ref_discounted_value(x, v) for v in d.tolist()])


REF_ONE_EDGE = 1.0 - 1e-9
REF_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def ref_cost_points(c):
    if isinstance(c, IndicatorSet):
        return list(zip(c.points, c.point_costs))
    if isinstance(c, Tabulated):
        return list(c.knots)
    return []


def ref_cost_pieces(c):
    if isinstance(c, IndicatorSet):
        return [(a, min(b, REF_ONE_EDGE), lambda d: 0.0) for a, b in c.intervals]
    if isinstance(c, Quadratic):
        return [(0.0, REF_ONE_EDGE, lambda d: c.stiffness * (d - c.center) ** 2)]
    if isinstance(c, Tabulated):
        ds = [d for d, _ in c.knots]
        ks = [k for _, k in c.knots]
        return [(0.0, ds[-1], lambda d: float(np.interp(d, ds, ks)))]
    raise InvalidCost(f"not a cost function: {c!r}")


def ref_golden(fun, a, b, xtol=1e-9, maxiter=80):
    x1 = b - REF_INVPHI * (b - a)
    x2 = a + REF_INVPHI * (b - a)
    f1, f2 = fun(x1), fun(x2)
    fa, fb = fun(a), fun(b)
    for _ in range(maxiter):
        if b - a <= xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - REF_INVPHI * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + REF_INVPHI * (b - a)
            f2 = fun(x2)
    xm = 0.5 * (a + b)
    candidates = [(fun(xm), xm), (f1, x1), (f2, x2), (fa, a), (fb, b)]
    best_v, best_x = min(candidates)
    return best_x, best_v


def ref_minimize_on_interval(x, a, b, scalar_cost, nodes):

    def objective(d):
        return ref_discounted_value(x, d) + scalar_cost(d)

    if b <= a:
        return a, objective(a)
    grid = np.linspace(a, b, nodes)
    f = ref_discounted_value_grid(x, grid) + np.array([scalar_cost(d) for d in grid.tolist()])
    interior = np.nonzero((f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:]))[0] + 1
    brackets = {0, nodes - 1, *interior.tolist()}
    candidates = [(float(f[i]), float(grid[i])) for i in brackets]
    for i in brackets:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, nodes - 1)]
        d_star, v_star = ref_golden(objective, float(lo), float(hi))
        candidates.append((v_star, d_star))
    v_best, d_best = min(candidates)
    return d_best, v_best


def ref_minimize_over_delta(x, c, nodes=2001):
    candidates = []
    for d, k in ref_cost_points(c):
        candidates.append((ref_discounted_value(x, d) + k, d))
    for a, b, scost in ref_cost_pieces(c):
        d_star, v_star = ref_minimize_on_interval(x, a, b, scost, nodes)
        candidates.append((v_star, d_star))
    v_best, d_best = min(candidates)
    return d_best, v_best


def ref_maxmin_value(x, k, nodes=2001):
    candidates = [(ref_discounted_value(x, d), d) for d in k.points]
    for a, b in k.intervals:
        d_star, v_star = ref_minimize_on_interval(x, a, min(b, REF_ONE_EDGE),
                                                  lambda d: 0.0, nodes)
        candidates.append((v_star, d_star))
    v_best, _ = min(candidates)
    return v_best


REF_COSTS = [
    Quadratic(0.8, 3.0),
    Quadratic(0.3, 10.0),
    Tabulated(knots=((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))),
    Tabulated(knots=((0.3, 0.0), (0.8, 2.0))),          # flat extension below 0.3
    Tabulated(knots=((0.1, 0.0), (0.4, 0.0), (0.6, 1.0))),  # flat between knots too
    Tabulated(knots=((0.5, 0.0),)),
    IndicatorSet(points=(0.3,), intervals=((0.5, 0.7),), point_costs=(0.0,)),
    IndicatorSet(points=(0.9, 0.95), point_costs=(0.2, 0.0),
                 intervals=((0.2, 0.25), (0.6, 1.0))),
]
REF_MAXMIN = [Maxmin(intervals=((0.4, 0.6),)),
              Maxmin(points=(0.3, 0.7), intervals=((0.0, 1.0),))]


def ref_streams(rng, n):
    """Random draws and constant streams.  A constant stream's objective is
    flat on the grid under maxmin and interval costs, and on the flat
    extension of a tabulated cost below its first knot."""
    return [random_stream(rng) for _ in range(n)] + [constant_stream(v) for v in (1.0, 0.0, -2.5)]


def test_minimizer_matches_per_node_reference_bit_for_bit(rng):
    for x in ref_streams(rng, 15):
        for c in REF_COSTS:
            want = ref_minimize_over_delta(x, c)
            assert minimize_over_delta(x, c) == want
            assert evaluate(Variational(c), x) == want[1]
        for k in REF_MAXMIN:
            assert evaluate(k, x) == ref_maxmin_value(x, k)


def test_grid_matches_reference_bit_for_bit(rng):
    grid = np.linspace(0.0, 1.0, 101)
    # The minimizer's cached grids end below 1.
    below_one = np.linspace(0.0, 1.0 - 1e-9, _NODES)
    for x in ref_streams(rng, 30):
        want = ref_discounted_value_grid(x, grid).tobytes()
        assert np.array([discounted_value(x, d) for d in grid.tolist()]).tobytes() == want
        assert discounted_value_grid(*row_of(x), _grid(0.0, 1.0 - 1e-9)).tobytes() == \
            ref_discounted_value_grid(x, below_one).tobytes()
        for d in (0.0, 0.37, 1.0):
            assert discounted_value(x, d) == ref_discounted_value(x, d)


# ---------------------------------------------------------------------------
# flat objectives and the grid cache
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [
    Maxmin(intervals=((0.4, 0.6),)),
    Variational(Tabulated(knots=((0.3, 0.0), (0.8, 2.0)))),
    Variational(IndicatorSet(intervals=((0.4, 0.6),))),
    Variational(IndicatorSet(intervals=((0.1, 0.2), (0.5, 1.0)))),
])
def test_flat_objective_opens_three_searches_per_piece(monkeypatch, k):
    calls = {"golden": 0, "piece": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(D, "_golden", counted("golden", D._golden))
    monkeypatch.setattr(D, "_minimize_on_interval",
                        counted("piece", D._minimize_on_interval))
    assert evaluate(k, constant_stream(1.0)) == 1.0
    assert calls["piece"] >= 1
    assert calls["golden"] <= 3 * calls["piece"]


def test_cached_grid_is_read_only():
    g = _grid(0.4, 0.6)
    assert _grid(0.4, 0.6) is g
    for arr in (g.d, _grid_power(0.4, 0.6, 3), _grid_denom(0.4, 0.6, 2)):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert g.d.tobytes() == np.linspace(0.4, 0.6, 2001).tobytes()


def test_grid_cache_and_memos_are_bounded():
    g = _grid(0.25, 0.75)
    for i, n in enumerate([*range(_FACTOR_CACHE + 8), 1000, 2000, 3000]):
        x = make_stream([0.5] * n, Periodic(tuple(float(j) for j in range(2 + i))))
        discounted_value_grid(*row_of(x), g)
        for cache in (_grid_power, _grid_denom):
            info = cache.cache_info()
            assert info.maxsize == _FACTOR_CACHE and 0 < info.currsize <= _FACTOR_CACHE
    assert _grid_power.cache_info().currsize == _FACTOR_CACHE
    for i in range(2 * _GRID_CACHE):
        _grid(0.0, 0.5 + i / 100)
    assert _grid.cache_info().currsize <= _GRID_CACHE


def test_proxy_check_fills_each_power_once(monkeypatch):
    # The monotone continuity proxy evaluates prefixes of up to 412 terms;
    # while the cache has room, no grid's d^n is computed twice.
    fills = Counter()
    powers = D._powers

    def counted(d, ns):
        out = powers(d, ns)
        if len(d) == _NODES:
            fills[d[0], d[-1], out.tobytes()] += 1
        return out

    monkeypatch.setattr(D, "_powers", counted)
    _grid_power.cache_clear()
    check_axiom(Variational(Quadratic(0.8, 3.0)), "monotone_continuity_proxy", trials=20, seed=0)
    assert 0 < len(fills) == _grid_power.cache_info().currsize < _FACTOR_CACHE
    assert max(fills.values()) == 1


def test_concurrent_grid_evaluations_share_the_cache_safely(monkeypatch):
    # Factor caches of two entries refill on nearly every call, so the
    # threads evict each other's arrays; a 41-node grid keeps each refill
    # cheap, and fresh caches keep it out of the shared ones.
    monkeypatch.setattr(D, "_NODES", 41)
    for name, size in (("_grid", 1), ("_grid_power", 2), ("_grid_denom", 2)):
        monkeypatch.setattr(D, name, functools.lru_cache(maxsize=size)(
            getattr(D, name).__wrapped__))
    g = D._grid(0.35, 0.65)
    xs = [make_stream([0.25 * (n + 1)] * n, Periodic(tuple(float(i) for i in range(2 + n % 5))))
          for n in range(12)]
    want = [ref_discounted_value_grid(x, g.d).tobytes() for x in xs]
    rows = [row_of(x) for x in xs]
    bad, sizes = [], []

    def work(t):
        for _ in range(300):
            for i in range(t % 12, 12):
                if discounted_value_grid(*rows[i], g).tobytes() != want[i]:
                    bad.append(i)
                sizes.append(max(D._grid_power.cache_info().currsize,
                                 D._grid_denom.cache_info().currsize))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert bad == []
    assert max(sizes) <= 2
    assert D._grid_power.cache_info().misses > 12


# ---------------------------------------------------------------------------
# the tabulated cost's scalar closed form
# ---------------------------------------------------------------------------

def test_tabulated_cost_eval_is_np_interp_bit_for_bit():
    knots = ((0.2, 1.0), (0.45, 0.0), (0.7, 3.3), (0.9, 0.1))
    c = Tabulated(knots=knots)
    xp, fp = [d for d, _ in knots], [k for _, k in knots]
    points = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.45, 0.5, 0.7, 0.8, 0.9 - 1e-12, 0.9]
    for d in points:
        assert cost_eval(c, d) == float(np.interp(d, xp, fp))
    assert cost_eval(c, 0.9 + 1e-12) == math.inf
    single = Tabulated(knots=((0.4, 0.0),))
    for d in (0.0, 0.39, 0.4):
        assert cost_eval(single, d) == float(np.interp(d, [0.4], [0.0]))
    assert cost_eval(single, 0.41) == math.inf


def test_tabulated_cost_eval_reads_one_interpolant_per_cost(monkeypatch):
    built = []
    monkeypatch.setattr(D, "_interp", lambda c: built.append(c) or _interp(c))
    knots = ((0.2, 1.0), (0.45, 0.0), (0.7, 3.3))
    c = Tabulated(knots=knots)
    xp, fp = [d for d, _ in knots], [k for _, k in knots]
    # below the first knot, at knots, between knots, and past the last one
    for d in [0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.7]:
        assert cost_eval(c, d).hex() == float(np.interp(d, xp, fp)).hex()
    assert cost_eval(c, 0.7 + 1e-12) == cost_eval(c, 0.99) == math.inf
    assert built == [c]


def test_tabulated_closed_form_matches_np_interp_on_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, 8))
        xp = np.sort(rng.choice(np.linspace(0.0, 0.99, 200), m, replace=False))
        fp = rng.uniform(0.0, 10.0, m)
        fp[rng.integers(m)] = 0.0
        c = Tabulated(knots=tuple(zip(xp.tolist(), fp.tolist())))
        pts = np.concatenate([rng.uniform(0.0, xp[-1], 40), xp, [0.0, xp[-1]]])
        got = np.array([_interp(c)(float(d)) for d in pts])
        assert got.tobytes() == np.interp(pts, xp, fp).tobytes()
        assert all(_interp(c)(float(d)) == float(np.interp(float(d), xp, fp)) for d in pts)


# ---------------------------------------------------------------------------
# evaluate_many: the batched evaluation is evaluate, bit for bit
# ---------------------------------------------------------------------------

MANY_CRITERIA = CRITERIA + [
    Maxmin(intervals=((0.4, 0.6),)),
    Maxmin(points=(0.3, 0.7), intervals=((0.0, 1.0),)),       # interval ending at 1.0
    Maxmin(points=(0.0, 0.5), intervals=((0.2, 0.3), (0.5, 0.5))),  # degenerate interval
    Variational(Quadratic(0.8, 3.0)),
    Variational(Quadratic(0.0, 0.0)),                         # flat cost
    Variational(Tabulated(knots=((0.3, 0.0), (0.8, 2.0)))),   # flat below 0.3
    Variational(Tabulated(knots=((0.5, 0.0),))),
    Variational(IndicatorSet(points=(0.9, 0.95), point_costs=(0.2, 0.0),
                             intervals=((0.2, 0.25), (0.6, 1.0)))),
]


def hex_bits(values):
    return [float(v).hex() for v in values]


def many_streams(rng, n):
    """Random draws of several shapes, constant streams (flat objectives,
    signed zeros), periodic tails with an empty prefix, and short cycles
    that sit right at the front."""
    out = [random_stream(rng, max_prefix=int(rng.integers(0, 13)),
                         max_period=int(rng.integers(1, 5))) for _ in range(n)]
    out += [constant_stream(v) for v in (1.0, 0.0, -0.0, -2.5)]
    out += [make_stream([], Periodic((1.0, -2.0, 3.0))), make_stream([], Periodic((0.0, 5.0))),
            make_stream([-0.0, -1.0], Constant(-0.0)), make_stream([4.0], Periodic((-0.0, 0.5)))]
    return out


def as_rows(xs):
    """(n, vals) of streams of one shape, as ``evaluate_many`` hands them
    to ``rows``: row i holds stream i's prefix then its cycle."""
    n = len(xs[0].prefix)
    return n, np.array([x.prefix + x.tail_cycle for x in xs]).reshape(len(xs), -1)


def by_shape(xs):
    """Indices of the streams, grouped by (prefix length, period)."""
    shapes = {}
    for i, x in enumerate(xs):
        shapes.setdefault((len(x.prefix), x.period), []).append(i)
    return list(shapes.values())


def minimize_rows(xs, c):
    """:func:`minimize_over_delta` of each stream through the batch
    minimizer, one call per shape, in the streams' order."""
    out = [None] * len(xs)
    for at in by_shape(xs):
        factors, values = D._minimize_rows(*as_rows([xs[i] for i in at]), c)
        for i, found in zip(at, zip(factors.tolist(), values.tolist())):
            out[i] = found
    return out


def test_evaluate_many_is_evaluate_bit_for_bit(rng):
    xs = many_streams(rng, 520)
    for k in MANY_CRITERIA:
        want = hex_bits(evaluate(k, x) for x in xs)
        assert hex_bits(evaluate_many(k, xs)) == want, k
        # a shorter batch, and a batch of one
        assert hex_bits(evaluate_many(k, xs[:D._LOCKSTEP_MIN - 1])) == want[:D._LOCKSTEP_MIN - 1]
        assert hex_bits(evaluate_many(k, xs[-1:])) == want[-1:]


def test_evaluate_many_takes_any_iterable_and_only_criteria(rng):
    xs = many_streams(rng, 30)
    for k in (Maxmin(intervals=((0.1, 0.9),)), Variational(Quadratic(0.5, 8.0))):
        want = hex_bits(evaluate(k, x) for x in xs)
        assert hex_bits(evaluate_many(k, iter(xs))) == want
    assert evaluate_many(Variational(Quadratic(0.5, 8.0)), []) == []
    with pytest.raises(InvalidCriterion):
        evaluate_many(lambda x: 0.0, xs)


def test_a_criterion_is_its_own_evaluator(rng):
    xs = many_streams(rng, 20)
    for k in CRITERIA:
        assert D.as_evaluator(k) is k
        assert hex_bits(map(k, xs)) == hex_bits(evaluate(k, x) for x in xs)
        assert hex_bits(k.many(iter(xs))) == hex_bits(evaluate_many(k, xs))
    plain = lambda x: 0.0
    assert D.as_evaluator(plain) is plain
    for bad in (Edu, 0.9, None):
        with pytest.raises(InvalidCriterion):
            D.as_evaluator(bad)


def test_minimize_many_matches_minimize_over_delta(rng):
    xs = many_streams(rng, 60)
    for c in REF_COSTS:
        want = [minimize_over_delta(x, c) for x in xs]
        got = minimize_rows(xs, c)
        assert [(d.hex(), v.hex()) for d, v in got] == [(d.hex(), v.hex()) for d, v in want]


#: One criterion per tag at least, with the isolated points that take the
#: closed form at one factor on every row: 0.0 among the maxmin points, a
#: tabulated knot at 0.0, an indicator cost with points.
ROWS_CRITERIA = [
    Edu(0.9),
    Maxmin(points=(0.0, 0.25, 0.9)),
    Maxmin(intervals=((0.4, 0.6),)),
    Maxmin(points=(0.0, 0.5), intervals=((0.2, 0.3), (0.5, 0.5))),
    Variational(Quadratic(0.8, 3.0)),
    Variational(Tabulated(knots=((0.0, 1.0), (0.5, 0.0), (0.8, 2.0)))),
    Variational(IndicatorSet(points=(0.0, 0.3, 0.6), point_costs=(0.5, 0.0, 1.0))),
    Inf(), Liminf(), BanachWindow(), Cesaro(),
]


def test_rows_criteria_cover_every_tag():
    from tempora.discounting import TAGS, _Criterion
    assert {type(k).tag for k in ROWS_CRITERIA} == \
        {tag for tag, cls in TAGS.items() if issubclass(cls, _Criterion)}


#: Signed zeros and ties among few values, so prefixes are absorbed,
#: cycles reduce and ``min`` meets 0.0 and -0.0 side by side.
row_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-5.0, 5.0))


@st.composite
def one_shape_batches(draw):
    """Streams drawn with one prefix length and one period: most keep that
    shape, and those whose canonical form is shorter make other groups."""
    n, p = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    m = draw(st.integers(1, 2 * D._COARSE_MIN))
    out = []
    for _ in range(m):
        prefix = draw(st.lists(row_values, min_size=n, max_size=n))
        cycle = draw(st.lists(row_values, min_size=p, max_size=p))
        out.append(make_stream(prefix, Periodic(tuple(cycle))))
    return out


@settings(max_examples=20, deadline=None)
@given(one_shape_batches())
@example([make_stream([0.0], Periodic((-0.0, 1.0))), make_stream([-0.0], Periodic((0.0, 1.0))),
          make_stream([1.0], Periodic((-0.0, 0.0, 2.0)))])
@example([make_stream([], Periodic((-0.0,)))] * 3)
def test_rows_have_the_bits_of_value_on_each_row_stream(xs):
    for k in ROWS_CRITERIA:
        for at in by_shape(xs):
            group = [xs[i] for i in at]
            n, vals = as_rows(group)
            assert hex_bits(k.rows(n, vals)) == hex_bits(k.value(x) for x in group), k
            # A chunk of a continuity scan may leave no row unmasked.
            assert len(k.rows(n, vals[:0])) == 0
        # The batch path groups a batch of mixed shapes itself.
        assert hex_bits(evaluate_many(k, xs[::-1] + xs)) == \
            hex_bits(evaluate(k, x) for x in xs[::-1] + xs), k


@pytest.mark.parametrize("seed, masked", [(0, 0), (5, 1), (8, 1)])
def test_a_scan_judges_a_criterion_as_it_judges_its_plain_callable(monkeypatch, seed, masked):
    # Seeds 5 and 8 draw periodic pairs (lcm 6 and 12); the last mix of
    # each, at lam 1, is x on a window whose cycle is not minimal, so its
    # row is masked and goes through evaluate_many as a stream.
    flagged, seen = [], []
    mixture_rows, mixes = A._mixture_rows, A._mixes

    def counted_rows(*args):
        n, vals, mask = mixture_rows(*args)
        flagged.append(int(mask.sum()))
        return n, vals, mask

    def recorded(*args):
        out = list(mixes(*args))
        seen.extend(np.concatenate(out).tolist())
        return out

    monkeypatch.setattr(A, "_mixture_rows", counted_rows)
    monkeypatch.setattr(A, "_mixes", recorded)
    for k in (Edu(0.9), Cesaro(), Inf(), Variational(Quadratic(0.8, 3.0))):
        flagged.clear(), seen.clear()
        got = check_axiom(k, "continuity_segment", 1, seed).to_dict()
        assert sum(flagged) == masked
        values = hex_bits(seen)
        seen.clear()
        plain = check_axiom(lambda x: k(x), "continuity_segment", 1, seed).to_dict()
        assert hex_bits(seen) == values and len(values) == 10000
        assert json.dumps(got) == json.dumps(plain)


def test_a_batch_takes_horner_work_in_proportion_to_its_own_streams(monkeypatch, rng):
    # Lanes are rows of one shape, so no lane is padded to a long prefix
    # elsewhere in the batch: Horner steps times the factors they run on
    # (the grid nodes of a scan, the lanes of a search) stay within a
    # fixed multiple of each stream's own n + p.
    xs = [random_stream(rng) for _ in range(300)]
    xs.append(make_stream(rng.uniform(-5.0, 5.0, 8000).tolist(), Constant(1.0)))
    k = Variational(Quadratic(0.8, 3.0))
    want = hex_bits(evaluate(k, x) for x in xs)
    steps = {"all": 0}
    horner = D._horner

    def counted(coeffs, d):
        steps["all"] += len(coeffs) * d.size
        return horner(coeffs, d)

    monkeypatch.setattr(D, "_horner", counted)
    assert hex_bits(evaluate_many(k, xs)) == want
    assert 0 < steps["all"] <= 2 * _NODES * sum(len(x.prefix) + x.period for x in xs)


def test_lockstep_golden_matches_golden_on_the_same_brackets(rng):
    xs = many_streams(rng, 120)
    pieces = [Quadratic(0.8, 3.0).pieces[0], Quadratic(0.3, 10.0).pieces[0],
              Tabulated(knots=((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))).pieces[0],
              IndicatorSet(intervals=((0.0, 1.0),)).pieces[0]]
    periodic = 0
    for piece in pieces:
        owners, brackets = [], []
        for i, x in enumerate(xs):
            found = D._scan(*row_of(x), piece, uncertified(terms_of(x)))[1]
            f = D._objective(*row_of(x), piece)
            # plus the whole piece, a wide bracket, and a degenerate one,
            # in the same batch: lanes stop at different steps
            for a, b in [br[:2] for br in found] + [(piece.a, piece.b), (piece.b, piece.b)]:
                owners.append(i)
                brackets.append((a, b, f(a), f(b)))
        # Lanes share a shape: one lockstep search per shape.
        for lanes in by_shape([xs[i] for i in owners]):
            at = [owners[j] for j in lanes]
            got = D._golden_lockstep(D._lanes(*as_rows([xs[i] for i in at]), piece.lanes),
                                     *np.array([brackets[j] for j in lanes]).T)
            for i, j, d, v in zip(at, lanes, *got):
                want_d, want_v = D._golden(D._objective(*row_of(xs[i]), piece), *brackets[j])
                assert (d.hex(), v.hex()) == (want_d.hex(), want_v.hex())
                periodic += xs[i].period > 1
    assert periodic > 500


#: The widest bracket a search is handed: the minimizer's whole domain.
WIDEST = (0.0, 1.0 - 1e-9)

#: Objectives on WIDEST with their minimum at the low end, at the high end
#: and inside the bracket, and a flat one; each takes floats and arrays.
GOLDEN_SHAPES = {"low end": lambda d: d, "high end": lambda d: -d,
                 "inside": lambda d: (d - 0.3) ** 2, "flat": lambda d: 0.0 * d}


def with_calls(f):
    """``f``, and the list of the points it was called at."""
    calls = []

    def fun(d):
        calls.append(d)
        return f(d)
    return fun, calls


@pytest.mark.parametrize("shape", GOLDEN_SHAPES)
def test_golden_stops_on_its_tolerance_within_44_steps(shape):
    # A search evaluates its two first points, one per step and the
    # midpoint of its last bracket: steps = calls - 3.  0.618^44 < 1e-9.
    f = GOLDEN_SHAPES[shape]
    a, b = WIDEST
    fun, calls = with_calls(f)
    d, v = D._golden(fun, a, b, f(a), f(b))
    assert len(calls) - 3 == 44
    want = {"low end": a, "high end": b, "inside": 0.3, "flat": a}[shape]
    assert abs(d - want) <= 1e-8 and v == f(d)
    fun, calls = with_calls(f)
    lanes = np.array([WIDEST, (0.2, 0.7), (0.5, 0.5), (0.0, 1e-9)]).T
    got = D._golden_lockstep(fun, *lanes, f(lanes[0]), f(lanes[1]))
    assert len(calls) - 3 == 44
    want = [D._golden(f, lo, hi, f(lo), f(hi)) for lo, hi in lanes.T]
    assert [(u.hex(), w.hex()) for u, w in zip(*got)] == [(u.hex(), w.hex()) for u, w in want]


def test_golden_on_random_quadratics_takes_at_most_44_steps(rng):
    centres = rng.uniform(-0.5, 1.5, 500)
    a, b = WIDEST
    for c in centres.tolist():
        fun, calls = with_calls(lambda d: (d - c) ** 2)
        D._golden(fun, a, b, (a - c) ** 2, (b - c) ** 2)
        assert len(calls) - 3 <= 44
    fun, calls = with_calls(lambda d: (d - centres) ** 2)
    lo, hi = np.full(centres.size, a), np.full(centres.size, b)
    D._golden_lockstep(fun, lo, hi, (lo - centres) ** 2, (hi - centres) ** 2)
    assert len(calls) - 3 <= 44


def one_shape_streams(rng, count, n=4, p=3):
    """Random streams with an ``n``-term prefix and a period ``p`` cycle."""
    return [make_stream(rng.uniform(-5.0, 5.0, n).tolist(),
                        Periodic(tuple(rng.uniform(-5.0, 5.0, p).tolist())))
            for _ in range(count)]


def test_lockstep_search_starts_at_the_kept_bracket_threshold(monkeypatch, rng):
    # Lanes are rows of one shape, so the batch is of one shape: from
    # _COARSE_MIN rows on, each row's kept brackets are its own.
    piece = Quadratic(0.8, 3.0).pieces[0]
    n, vals = as_rows(one_shape_streams(rng, 4 * D._LOCKSTEP_MIN))
    calls = {"golden": 0, "lockstep": 0}
    golden, lockstep = D._golden, D._golden_lockstep

    def counted_golden(*args, **kwargs):
        calls["golden"] += 1
        return golden(*args, **kwargs)

    def counted_lockstep(*args, **kwargs):
        calls["lockstep"] += 1
        return lockstep(*args, **kwargs)

    monkeypatch.setattr(D, "_golden", counted_golden)
    monkeypatch.setattr(D, "_golden_lockstep", counted_lockstep)

    def run(j):
        calls.update(golden=0, lockstep=0)
        return D._minimize_on_interval(n, vals[:j], piece)

    def kept(j):
        # The first j rows' kept brackets, each searched alone.
        with monkeypatch.context() as m:
            m.setattr(D, "_LOCKSTEP_MIN", math.inf)
            run(j)
        return calls["golden"]

    # The fewest rows whose brackets reach the threshold; one less falls short.
    lo, hi = D._COARSE_MIN, len(vals)
    assert kept(lo) < D._LOCKSTEP_MIN <= kept(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if kept(mid) >= D._LOCKSTEP_MIN else (mid, hi)
    j, short = hi, kept(hi - 1)
    for size, want in ((j - 1, {"golden": short, "lockstep": 0}),
                       (j, {"golden": 0, "lockstep": 1})):
        got = run(size)
        assert calls == want
        assert [(d.hex(), v.hex()) for d, v in zip(*got)] == \
            [(d.hex(), v.hex()) for i in range(size)
             for d, v in zip(*D._minimize_on_interval(n, vals[i:i + 1], piece))]


LANE_PIECES = [Quadratic(0.8, 3.0).pieces[0],
               Tabulated(knots=((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))).pieces[0],
               IndicatorSet(intervals=((0.0, 1.0),)).pieces[0],
               # -0.0 below the first knot: a sum of signed zeros keeps its sign
               Tabulated(knots=((0.5, -0.0), (0.8, 2.0))).pieces[0]]


def test_lanes_that_share_a_factor_keep_the_scalar_bits():
    # Lanes are rows of one shape.  Each bracket is searched by every
    # stream of a batch of one shape in turn, so neighbouring lanes step
    # alike on different rows, and then by a run of one row; brackets
    # start at -0.0 and 0.0.  Last come the points 0.0 and -0.0 side by
    # side on a stream of signed zeros, whose objective is -0.0 at -0.0
    # (pow(-0.0, 3) is -0.0) and 0.0 at 0.0.
    shapes = [make_stream([1.0, -2.0], Constant(0.5)),
              make_stream([1.0, -2.0, 3.0], Constant(0.5)),
              make_stream([1.0, -2.0], Periodic((0.5, -1.5))),
              make_stream([-0.0, 1.0, -1.0], Periodic((2.0, 0.0, 1.0))),
              make_stream([1.0, -2.0], Periodic((0.5, -1.5, 4.0)))]
    batches = [[x] for x in shapes] + [
        [shapes[0], make_stream([3.0, 0.25], Constant(-1.0))],
        [shapes[2], make_stream([-1.0, 0.0], Periodic((2.5, 1.0))), shapes[2]]]
    zeros = [make_stream([-0.0] * 3, Constant(1.0)), make_stream([-0.0] * 3, Periodic((1.0, 2.0)))]
    brackets = [(0.0, 0.3), (0.3, 0.9), (-0.0, 0.2), (-0.0, -0.0), (0.0, 0.0), (0.95, 1 - 1e-9)]
    for piece in LANE_PIECES:
        for batch in batches + [[x] for x in zeros]:
            lanes = []
            for a, b in brackets:
                lanes += [(x, a, b) for x in batch] + [(batch[-1], a, b)] * 3
            if batch[0] in zeros:
                lanes += [(batch[0], a, a) for a in (0.0, -0.0, -0.0, 0.0)]
            ends = [(a, b, D._objective(*row_of(x), piece)(a), D._objective(*row_of(x), piece)(b))
                    for x, a, b in lanes]
            got = D._golden_lockstep(D._lanes(*as_rows([x for x, *_ in lanes]), piece.lanes),
                                     *map(np.array, zip(*ends)))
            want = [D._golden(D._objective(*row_of(x), piece), *br)
                    for (x, *_), br in zip(lanes, ends)]
            assert [(d.hex(), v.hex()) for d, v in zip(*got)] == \
                [(d.hex(), v.hex()) for d, v in want], (piece.a, piece.b, batch)
            if piece is LANE_PIECES[-1] and batch[0] in zeros:
                assert [v.hex() for _, v in want[-4:]] == \
                    ["0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]


class _Enough(Exception):
    pass


def scan_chunk(monkeypatch, k, index):
    """Batch ``index`` (from 0) of the mixes of the seed-0 continuity scan
    of ``k``, as ``_mixture_rows`` returns it: (n, vals, mask)."""
    chunks, mixture_rows = [], A._mixture_rows

    def upto(*args):
        chunks.append(mixture_rows(*args))
        if len(chunks) > index:
            raise _Enough
        return chunks[-1]

    with monkeypatch.context() as m:
        m.setattr(A, "_mixture_rows", upto)
        with pytest.raises(_Enough):
            check_axiom(k, "continuity_segment", 1, 0)
    return chunks[index]


def test_lockstep_takes_the_factor_terms_once_per_distinct_factor_and_shape(monkeypatch):
    # A chunk whose brackets reach the lockstep search: those of the first
    # chunks, and every one of the quadratic scan, are certified monotone.
    # Its rows share one shape, and so do the lanes.
    k = Variational(Tabulated(((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))))
    n, vals, mask = scan_chunk(monkeypatch, k, 20)
    assert vals.shape[0] == 256 and not mask.any()
    want = hex_bits(evaluate(k, _stream(row[:n], row[n:])) for row in vals.tolist())
    counts = {"lanes": 0, "distinct": 0, "powered": 0}
    inside = []
    lanes, powers = D._lanes, D._powers

    def counted_powers(d, ns):
        if inside:
            counts["powered"] += len(d)
        return powers(d, ns)

    def counted_lanes(n, rows, cost):
        objective = lanes(n, rows, cost)

        def counted(d):
            counts["lanes"] += d.size
            counts["distinct"] += len(set(d.view(np.int64).tolist()))
            inside.append(d)
            try:
                return objective(d)
            finally:
                inside.pop()

        return counted

    monkeypatch.setattr(D, "_powers", counted_powers)
    monkeypatch.setattr(D, "_lanes", counted_lanes)
    assert hex_bits(k.rows(n, vals)) == want
    # Neighbouring mixtures walk one golden path: d^n is taken once per
    # factor in a step, not once per lane.
    assert counts["lanes"] >= 256 * 20
    assert 0 < counts["powered"] <= counts["distinct"] < counts["lanes"] / 100


def test_piece_lanes_cost_has_the_scalar_bits(rng):
    d = np.concatenate([rng.uniform(0.0, 1.0, 2000), [0.0, 0.3, 0.5, 0.8, 1 - 1e-9]])
    for c in (Quadratic(0.8, 3.0), Quadratic(0.123, 7.7), Tabulated(knots=((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))),
              IndicatorSet(intervals=((0.0, 1.0),))):
        for piece in c.pieces:
            assert hex_bits(piece.lanes(d)) == hex_bits(piece.scalar(v) for v in d.tolist())


def test_grid_cost_is_cached_read_only_per_piece():
    c = Quadratic(0.8, 3.0)
    assert c.pieces is c.pieces
    piece = c.pieces[0]
    g = piece.on_grid
    assert hex_bits(g) == hex_bits(map(c.value, np.linspace(piece.a, piece.b, _NODES).tolist()))
    with pytest.raises(ValueError):
        g[0] = 1.0


# ---------------------------------------------------------------------------
# the exact critical-point oracle
# ---------------------------------------------------------------------------
#
# On an eventually periodic stream with prefix A (length n) and cycle B
# (period p), D_delta = R / S with S = 1 + delta + ... + delta^(p-1) > 0 and
# R = (1 - delta) A S + delta^n B.  Every cost shape is a polynomial on
# each of its continuous pieces, so the objective's critical points there
# are the real roots of R'S - RS' + c'S^2.

P = np.polynomial.Polynomial
ORACLE_EDGE = 1.0 - 1e-9


def oracle_ratio(x):
    a = P(list(x.prefix) or [0.0])
    b = P(list(x.tail_cycle))
    s = P([1.0] * x.period)
    r = P([1.0, -1.0]) * a * s + P([0.0] * len(x.prefix) + [1.0]) * b
    return r, s


def oracle_pieces(cost):
    """(lo, hi, cost polynomial) of each continuous piece, on the domain the
    minimizer searches, and the isolated (delta, cost) points."""
    if isinstance(cost, Maxmin):
        cost = IndicatorSet(points=cost.points, intervals=cost.intervals)
    if isinstance(cost, Quadratic):
        k, c0 = cost.stiffness, cost.center
        return [(0.0, ORACLE_EDGE, P([k * c0 * c0, -2.0 * k * c0, k]))], []
    if isinstance(cost, Tabulated):
        ds = [d for d, _ in cost.knots]
        ks = [k for _, k in cost.knots]
        out = [(0.0, ds[0], P([ks[0]]))] if ds[0] > 0.0 else []
        for (d0, k0), (d1, k1) in zip(cost.knots, cost.knots[1:]):
            slope = (k1 - k0) / (d1 - d0)
            out.append((d0, d1, P([k0 - slope * d0, slope])))
        return out or [(ds[0], ds[0], P([ks[0]]))], []
    pieces = [(a, min(b, ORACLE_EDGE), P([0.0])) for a, b in cost.intervals]
    return pieces, list(zip(cost.points, cost.point_costs))


def oracle_minimum(x, cost, edge=None):
    """Exact minimum of D_delta(x) + cost(delta) over the searched domain
    (or, with ``edge``, with every piece's right end moved to ``edge``)."""
    r, s = oracle_ratio(x)
    pieces, isolated = oracle_pieces(cost)
    value = lambda d, c: float(r(d) / s(d) + c(d))
    best = [float(r(d) / s(d)) + k for d, k in isolated]
    for lo, hi, c in pieces:
        hi = hi if edge is None else edge
        best += [value(d, c) for d in [lo, hi, *critical_points(
            r.deriv() * s - r * s.deriv() + c.deriv() * s * s, lo, hi)]]
    return min(best)


def critical_points(crit, lo, hi):
    """The real roots of ``crit`` in (lo, hi).

    The companion-matrix roots lose a small root next to a huge one, so
    negligible top coefficients are dropped first and each root is then
    polished by Newton steps on the full polynomial; every sign change on
    a fine grid is added, found by bisection.  A spurious point costs
    nothing, since the minimum is taken over real points of the piece.
    """
    if not np.any(crit.coef):
        return []
    top = np.abs(crit.coef).max()
    roots = [z.real for z in crit.trim(1e-14 * top).roots()
             if abs(z.imag) <= 1e-6 and lo - 1.0 < z.real < hi + 1.0]
    d1 = crit.deriv()
    polished = roots
    # A step may throw a root far out, where the next one overflows; the
    # unpolished roots stay candidates, so no root is lost that way.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            polished = [z - crit(z) / d1(z) if d1(z) else z for z in polished]
    roots += polished
    grid = np.linspace(lo, hi, 20001)
    f = crit(grid)
    for i in np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]:
        a, b = grid[i], grid[i + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            a, b = (m, b) if np.sign(crit(m)) == np.sign(crit(a)) else (a, m)
        roots.append(0.5 * (a + b))
    return [z for z in roots if lo < z < hi]


costs = st.one_of(
    st.builds(Quadratic, st.floats(0.0, 0.99), st.floats(0.0, 50.0)),
    # knots on a 1e-3 lattice, so that the oracle's slopes stay finite
    st.lists(st.tuples(st.integers(0, 990).map(lambda i: i / 1000), st.floats(0.0, 10.0)),
             min_size=1, max_size=4, unique_by=lambda kc: kc[0]).map(
        lambda ks: Tabulated(knots=tuple(sorted(ks[:-1] + [(ks[-1][0], 0.0)])))),
    st.builds(lambda pts, ivs: IndicatorSet(points=tuple(p for p, _ in pts),
                                            point_costs=tuple(k for _, k in pts),
                                            intervals=ivs),
              st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 3.0)), max_size=2,
                       unique_by=lambda pk: pk[0]),
              st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 1.0)).map(sorted)
                       .map(tuple), min_size=1, max_size=2).map(tuple)),
    st.builds(lambda pts, ivs: Maxmin(points=tuple(pts), intervals=ivs),
              st.lists(st.floats(0.0, 0.99), max_size=2),
              st.lists(st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 1.0)).map(sorted)
                       .map(tuple), min_size=1, max_size=2).map(tuple)),
)
@st.composite
def oracle_streams(draw):
    """Streams like ``random_stream``'s: prefix <= 12, period <= 4,
    values in [-5, 5]."""
    values = st.floats(-5.0, 5.0)
    prefix = draw(st.lists(values, max_size=12))
    if draw(st.booleans()):
        return Stream(tuple(prefix), Constant(draw(values)))
    return Stream(tuple(prefix), Periodic(tuple(draw(st.lists(values, min_size=1, max_size=4)))))


@settings(max_examples=150, deadline=None)
@given(oracle_streams(), costs)
def test_minimizer_agrees_with_the_exact_oracle(x, cost):
    if isinstance(cost, Maxmin):
        k, got = cost, cost.value(x)
    else:
        k, got = Variational(cost), minimize_over_delta(x, cost)[1]
    want = oracle_minimum(x, cost)
    assert want - 1e-12 <= got <= want + 1e-9
    batched = evaluate_many(k, [x] * D._LOCKSTEP_MIN)
    assert all(want - 1e-12 <= v <= want + 1e-9 for v in batched)


def test_a_tabulated_knot_is_found_exactly():
    # The zero stream's minimum is 0 at the knot 0.375, which is no grid
    # node of [0, 0.8125]; golden-section search alone ends 1.04e-9 above
    # it, so the knot is a candidate of its own.
    cost = Tabulated(knots=((0.25, 1.0), (0.375, 0.0), (0.8125, 5.0)))
    x = constant_stream(0.0)
    assert oracle_minimum(x, cost) == 0.0
    assert minimize_over_delta(x, cost) == (0.375, 0.0)
    assert evaluate_many(Variational(cost), [x] * D._LOCKSTEP_MIN) == [0.0] * D._LOCKSTEP_MIN


def open_end_bound(x, delta):
    """The documented bound on |D_delta(x) - tail mean|."""
    n, p = len(x.prefix), x.period
    return 2.0 * x.sup_norm() * (1.0 - delta) * (n + (p - 1) * delta ** (1 - p))


def test_open_end_at_one_stays_within_the_documented_bound(rng):
    k = criterion_from_dict({"maxmin": {"intervals": [[0.5, 1.0]]}})
    edge = 1.0 - 1e-9
    xs = [random_stream(rng) for _ in range(200)]
    xs += [make_stream([5.0] * 12, Constant(0.0)), make_stream([-5.0] * 12, Periodic((5.0, -5.0)))]
    for x in xs:
        beta = open_end_bound(x, edge)
        mean = float(np.mean(x.tail_cycle))
        assert abs(discounted_value(x, edge) - mean) <= beta
        infimum = oracle_minimum(x, k, edge=1.0)    # the closed piece [0.5, 1]
        got = evaluate(k, x)
        assert infimum - 1e-12 <= got <= infimum + 2.0 * beta + 1e-9


# ---------------------------------------------------------------------------
# one set of bits: the array forms are the scalar forms at every element
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(oracle_streams(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
def test_grid_is_the_scalar_form_at_every_element(x, ds):
    # Off the grid, the lanes' objective under a cost of -0.0 (adding -0.0
    # leaves every float as it is, -0.0 included) is D at each factor;
    # signed zeros side by side, and repeats, make runs of one factor.
    ds = np.array([0.0, -0.0, -0.0, *ds, 0.0, *ds[:3]])
    lanes = D._lanes(*as_rows([x] * len(ds)), lambda u: np.full(u.shape, -0.0))
    assert hex_bits(lanes(ds)) == hex_bits(map(D._dv_scalar(*row_of(x)), ds.tolist()))


@settings(max_examples=100, deadline=None)
@given(oracle_streams(), costs)
def test_grid_objective_is_the_scalar_objective_at_every_node(x, cost):
    cost = cost.cost if isinstance(cost, Maxmin) else cost
    dv = D._dv_scalar(*row_of(x))
    for piece in cost.pieces:
        g = _grid(piece.a, piece.b)
        got = discounted_value_grid(*row_of(x), g) + piece.on_grid
        assert hex_bits(got) == hex_bits(dv(d) + piece.scalar(d) for d in g.d.tolist())


# ---------------------------------------------------------------------------
# certified bracket pruning: a dropped search could never have won
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cost", REF_COSTS + [Quadratic(0.999, 50.0)])
def test_a_piece_bounds_its_cost_slope_and_curvature(cost):
    # On a dense sample of each bracket, every difference quotient of the
    # cost is at most the slope bound, and every second difference at most
    # the curvature bound times h^2, up to rounding.  The brackets run
    # between the piece's ends, its knots and the points between them, so
    # some hold a knot strictly inside and some do not; the curvature bound
    # is inf exactly on the former.
    knots = [d for d, _ in cost.knots] if isinstance(cost, Tabulated) else []
    eps = np.finfo(float).eps
    for piece in cost.pieces:
        a, b = piece.a, piece.b
        cuts = sorted({a, b, *(k for k in knots if a <= k <= b)})
        spots = sorted({*cuts, *(0.5 * (u + v) for u, v in zip(cuts, cuts[1:])),
                        a + 0.999 * (b - a)})
        brackets = [(lo, hi) for i, lo in enumerate(spots) for hi in spots[i + 1:]]
        kinked = [any(lo < k < hi for k in knots) for lo, hi in brackets]
        if any(a < k < b for k in knots):
            assert any(kinked) and not all(kinked)
        for (lo, hi), kink in zip(brackets, kinked):
            slope, curvature = piece.bound(lo, hi)
            assert math.isinf(curvature) == kink, (lo, hi)
            t = np.linspace(lo, hi, 1001)
            v = np.array(list(map(piece.scalar, t.tolist())))
            h = (hi - lo) / 1000
            tol = 8.0 * eps * (np.abs(v).max() + slope + 1.0)
            assert (np.abs(np.diff(v)) <= slope * np.diff(t) + tol).all(), (lo, hi)
            assert (np.abs(np.diff(v, 2)) <= curvature * h * h + tol).all(), (lo, hi)
        # Arrays take the numbers' bounds, element by element.
        lo, hi = map(np.array, zip(*brackets))
        for got, want in zip(piece.bound(lo, hi), zip(*(piece.bound(*br) for br in brackets))):
            assert hex_bits(np.broadcast_to(got, lo.shape)) == hex_bits(want)


#: Wide brackets for the certificate: node pairs k cells apart, at the
#: start, middle and end of the grid.
WIDE = [(i, i + k) for k in (1, 20, 500, _NODES - 1)
        for i in sorted({0, (_NODES - 1 - k) // 2, _NODES - 1 - k})]


@settings(max_examples=150, deadline=None)
@given(oracle_streams(), costs, st.sampled_from([1e-3, 1.0, 1e3]))
# The minimum sits in the last bracket, next to 1, where the Lipschitz
# bound is loosest; a cost's minimum on a bracket is at a knot inside it.
# Both streams are also pinned through the batch path below.
@example(make_stream([5.0] * 12, Constant(-5.0)), Quadratic(0.99, 50.0), 1.0)
@example(constant_stream(-5.0), Tabulated(((0.2, 2.0), (0.5, 10.0), (0.9, 0.0), (0.95, 10.0))),
         1.0)
def test_every_dropped_bracket_searches_above_the_kept_candidate(x, cost, scale):
    x = make_stream([v * scale for v in x.prefix],
                    Periodic(tuple(v * scale for v in x.tail_cycle)))
    cost = cost.cost if isinstance(cost, Maxmin) else cost
    pre, cyc = row_of(x)
    dv = D._dv_scalar(pre, cyc)
    terms = n, p, norm, r = terms_of(x)
    for piece in cost.pieces:
        if piece.b <= piece.a:
            continue
        cost_at = piece.scalar
        objective = lambda d: dv(d) + cost_at(d)
        candidate, brackets = D._scan(pre, cyc, piece, uncertified(terms))
        best = candidate[0]
        # The scan's brackets span two cells at most; the wide ones test
        # the bound where it spans many cells of the grid.
        g = _grid(piece.a, piece.b)
        f = (discounted_value_grid(pre, cyc, g) + piece.on_grid).tolist()
        scanned = len(brackets)
        brackets = brackets + [(g.d.item(i), g.d.item(j), f[i], f[j]) for i, j in WIDE]
        # The float loop's verdicts, as the scan takes them on its own
        # brackets.
        kept = [br for br in brackets if not (D._dropped(piece, *terms, *br, best)
                                              or D._monotone(piece, *terms, *br))]
        assert D._scan(pre, cyc, piece, terms) == \
            (candidate, [br for br in brackets[:scanned] if br in kept])
        for lo, hi, f_lo, f_hi in set(brackets) - set(kept):
            if D._dropped(piece, n, p, norm, r, lo, hi, f_lo, f_hi, best):
                assert D._golden(objective, lo, hi, f_lo, f_hi)[1] > best
                assert all(objective(d) > best for d in np.linspace(lo, hi, 101).tolist())
            else:
                # Certified monotone: the search returns its lower end, a
                # grid node no lower than the first candidate.
                assert D._monotone(piece, n, p, norm, r, lo, hi, f_lo, f_hi)
                end = (hi, f_hi) if f_hi < f_lo else (lo, f_lo)
                assert hex_bits(D._golden(objective, lo, hi, f_lo, f_hi)) == hex_bits(end)
                assert end[::-1] >= candidate
        # The coarse segments, as arrays: every grid node of a dropped
        # segment lies strictly above the least coarse value.
        coarse = f[::D._STRIDE]
        ends = g.d[::D._STRIDE]
        with np.errstate(over="ignore", invalid="ignore"):
            dropped = D._dropped(piece, n, p, norm, r, ends[:-1], ends[1:],
                                 np.array(coarse[:-1]), np.array(coarse[1:]), min(coarse))
        for s in np.flatnonzero(dropped).tolist():
            nodes = f[s * D._STRIDE:(s + 1) * D._STRIDE + 1]
            assert min(nodes) > min(coarse), (s, nodes)


@settings(max_examples=60, deadline=None)
@given(oracle_streams(), st.sampled_from([1e-3, 1.0, 1e3]),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4))
# f is the cost alone, whose curvature the bound takes exactly: on a
# bracket around the quadratic's centre the interpolation bound is tight.
@example(constant_stream(0.0), 1.0, [(0.7, 0.9), (0.29, 0.32)])
@example(make_stream([1.0, -2.0], Periodic((0.5, 1.5))), 1e-3, [(0.75, 0.85)])
def test_the_curvature_bound_holds_on_every_sub_interval(x, scale, pairs):
    # On a dense sample of a bracket [lo, hi] inside a piece: every second
    # difference of f = D + cost is at most M2 h^2, up to rounding; the
    # interpolation bound min(f(lo), f(hi)) - M2 (hi - lo)^2 / 8 lies at or
    # below the sample's least value; and so the certificate never puts f
    # above that value there.
    x = make_stream([v * scale for v in x.prefix],
                    Periodic(tuple(v * scale for v in x.tail_cycle)))
    n, p, norm, r = terms_of(x)
    dv = D._dv_scalar(*row_of(x))
    eps = np.finfo(float).eps
    for cost in REF_COSTS:
        for piece in cost.pieces:
            a, b = piece.a, piece.b
            for u, v in pairs:
                lo, hi = sorted((a + (b - a) * u, a + (b - a) * v))
                if not lo < hi:
                    continue
                t = np.linspace(lo, hi, 201).tolist()
                f = np.array([dv(d) + piece.scalar(d) for d in t])
                slope, curvature = piece.bound(lo, hi)
                m2 = D._curvature(n, p, r, hi, curvature) * D._UP
                h = (hi - lo) / 200
                tol = 16.0 * eps * (n + p + 15) * (np.abs(f).max() + norm + slope + 1.0)
                assert (np.abs(np.diff(f, 2)) <= m2 * h * h + tol).all(), (cost, lo, hi)
                chord = min(f[0], f[-1]) - m2 * (hi - lo) ** 2 / 8.0
                assert chord <= f.min() + tol, (cost, lo, hi)
                assert not D._dropped(piece, n, p, norm, r, lo, hi, f[0], f[-1], f.min())


# ---------------------------------------------------------------------------
# the float limits, against an exact oracle in rationals
# ---------------------------------------------------------------------------
#
# On rationals no sum rounds or overflows.  As in the polynomial oracle
# above, D = R / S with R = (1 - d) A S + d^n B, where A and B are the
# prefix's and the cycle's polynomials and S = 1 + d + ... + d^(p-1), and
# the objective's critical points on a piece are the real roots of
# R'S - RS' + c'S^2; here every coefficient is a Fraction.

def exact_poly(coeffs):
    return [Fraction(c) for c in coeffs]


def exact_times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def exact_plus(a, b):
    return [u + v for u, v in itertools.zip_longest(a, b, fillvalue=Fraction(0))]


def exact_at(a, d):
    s = Fraction(0)
    for c in reversed(a):
        s = s * d + c
    return s


def exact_deriv(a):
    return [k * c for k, c in enumerate(a)][1:]


def exact_roots(a, lo, hi):
    """Points within 2^-100 of every real root of the polynomial ``a`` in
    (lo, hi), and of every root of its derivatives there.  Between two
    consecutive roots of a', ``a`` is monotone, so it changes sign at most
    once, and bisection finds that root; a root within 2^-100 of a root of
    a' lies within 2^-100 of that root's point, which is returned too."""
    while a and a[-1] == 0:
        a = a[:-1]
    if len(a) < 2:
        return []
    cuts = [lo, *sorted(exact_roots(exact_deriv(a), lo, hi)), hi]
    out = cuts[1:-1]
    for u, v in zip(cuts, cuts[1:]):
        if exact_at(a, u) * exact_at(a, v) < 0:
            while v - u > Fraction(1, 2 ** 100):
                m = (u + v) / 2
                u, v = (m, v) if exact_at(a, u) * exact_at(a, m) > 0 else (u, m)
            out.append((u + v) / 2)
    return out


def exact_ratio(x):
    a, b = exact_poly(x.prefix), exact_poly(x.tail_cycle)
    s = exact_poly([1] * x.period)
    r = exact_plus(exact_times(exact_times([1, -1], a or [0]), s),
                   exact_times([0] * len(x.prefix) + [1], b))
    return r, s


def exact_pieces(cost):
    """(lo, hi, cost polynomial) of each continuous piece on the domain the
    minimizer searches, and the isolated (delta, cost) points, in
    rationals."""
    cost = cost.cost if isinstance(cost, Maxmin) else cost
    edge = Fraction(ORACLE_EDGE)
    if isinstance(cost, Quadratic):
        k, c = Fraction(cost.stiffness), Fraction(cost.center)
        return [(Fraction(0), edge, [k * c * c, -2 * k * c, k])], []
    if isinstance(cost, Tabulated):
        knots = [tuple(exact_poly(kc)) for kc in cost.knots]
        (d0, k0) = knots[0]
        out = [(Fraction(0), d0, [k0])] if d0 > 0 else []
        for (a, ka), (b, kb) in zip(knots, knots[1:]):
            slope = (kb - ka) / (b - a)
            out.append((a, b, [ka - slope * a, slope]))
        return out or [(d0, d0, [k0])], []
    pieces = [(Fraction(a), min(Fraction(b), edge), [Fraction(0)]) for a, b in cost.intervals]
    return pieces, [tuple(exact_poly(pk)) for pk in zip(cost.points, cost.point_costs)]


def exact_minimum(x, cost):
    """The exact minimum of D_d(x) + cost(d) over the searched domain, and
    a factor where it is taken (to within 2^-100), as Fractions."""
    r, s = exact_ratio(x)
    pieces, isolated = exact_pieces(cost)
    value = lambda d, c: exact_at(r, d) / exact_at(s, d) + exact_at(c, d)
    best = [(value(d, [k]), d) for d, k in isolated]
    for lo, hi, c in pieces:
        crit = exact_plus(exact_plus(exact_times(exact_deriv(r), s),
                                     exact_times([-v for v in r], exact_deriv(s))),
                          exact_times(exact_deriv(c) or [0], exact_times(s, s)))
        best += [(value(d, c), d) for d in [lo, hi, *exact_roots(crit, lo, hi)]]
    return min(best)


def exact_argmin(x, cost):
    return exact_minimum(x, cost)[1]


def assert_near_exact_minimum(v, x, cost):
    """``v`` lies within the minimizer's tolerance of the exact minimum, as
    in the polynomial oracle's test: 1e-12 below it and 1e-9 above,
    relative to max(1, ||x||_inf)."""
    want = exact_minimum(x, cost)[0]
    scale = Fraction(max(1.0, *map(abs, x.prefix + x.tail_cycle)))
    assert want - Fraction(1e-12) * scale <= v <= want + Fraction(1e-9) * scale, (v, float(want))


#: The float limits: streams of +-1e308 and +-1.7e308, whose sums
#: overflow, so D is taken on their values divided by 2^64, and each
#: scaled by an exact power of two until (n + p) ||x||_inf lies just under
#: 1e300, where the sums come near overflow without reaching it.
LIMIT_STREAMS = [make_stream([-1e154, -1.7e308, -1e308], Constant(-1.7e308)),
                 make_stream([], Periodic((-1e308, -1e308, -0.6147))),
                 make_stream([1e308, 1e308], Constant(-1e308)),
                 make_stream([1e308, 1e308], Periodic((-1e308, -1.5e308)))]


def scaled_under(x, bound):
    """``x`` scaled by a power of two until (n + p) ||x||_inf lies just
    under ``bound``."""
    n, p, norm, _ = terms_of(x)
    k = math.ceil(math.log2(norm) + math.log2(n + p) - math.log2(bound))
    return make_stream([math.ldexp(v, -k) for v in x.prefix],
                       Periodic(tuple(math.ldexp(v, -k) for v in x.tail_cycle)))


@pytest.mark.parametrize("x", LIMIT_STREAMS + [scaled_under(x, 1e300) for x in LIMIT_STREAMS])
@pytest.mark.parametrize("cost", [Quadratic(0.9, 5.0), Quadratic(0.1, 50.0),
                                  Tabulated(((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))),
                                  IndicatorSet(intervals=((0.1, 0.9),))])
def test_the_float_certificate_at_the_float_limits(x, cost, monkeypatch):
    # Python floats: neither bound may raise OverflowError or warn, and
    # neither may drop a bracket that holds the exact minimum's factor.
    terms = n, p, norm, r = terms_of(x)
    pre, cyc = row_of(x)
    handed, scan = [], D._scan

    def spy(*args):
        handed.append(args[-1])
        return scan(*args)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            m.setattr(D, "_scan", spy)
            got_v = minimize_over_delta(x, cost)[1]
    # The minimizer hands the float loop the stream's terms, at the float
    # limits as anywhere else.
    assert handed == [terms] * len(cost.pieces)
    want_d = exact_argmin(x, cost)
    assert_near_exact_minimum(got_v, x, cost)
    for piece in cost.pieces:
        g = _grid(piece.a, piece.b)
        with np.errstate(over="ignore", invalid="ignore"):
            candidate, brackets = D._scan(pre, cyc, piece, uncertified(terms))
            found = D._scan(pre, cyc, piece, terms)[1]
            f = (discounted_value_grid(pre, cyc, g) + piece.on_grid).tolist()
        scanned = len(brackets)
        brackets = brackets + [(g.d.item(i), g.d.item(j), f[i], f[j]) for i, j in WIDE]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = [br for br in brackets if not (D._dropped(piece, *terms, *br, candidate[0])
                                                  or D._monotone(piece, *terms, *br))]
            assert found == [br for br in brackets[:scanned] if br in kept]
            best = candidate[0]
            dropped = [D._dropped(piece, n, p, norm, r, *br, best) for br in brackets]
        held = [lo <= want_d <= hi for lo, hi, *_ in brackets]
        assert not any(d and h for d, h in zip(dropped, held)), (piece.a, want_d)
        if piece.a <= want_d <= piece.b:
            assert any(held)


_MAX_FLOAT = sys.float_info.max

#: The float-limit repros through the CLI: each stream, criterion and the
#: value ``eval`` prints, where one is pinned.  Before D was rescaled, the
#: first two printed -inf, the third 9.800000000000001e+307 (D_0.9
#: overflowed to +inf, so the minimum took D_0.1) and the fourth
#: -2.726e307, and the quadratic costs left numpy's overflow warning on
#: stderr.  Before the rescaled value saturated, the last two printed -inf.
LIMIT_EVALS = [
    ({"prefix": [-1e154, -1.7e308, -1e308], "tail": {"constant": -1.7e308}},
     {"edu": {"delta": 0.999}}, -1.6976013993e308),
    ({"prefix": [], "tail": {"periodic": [-1e308, -1e308, -0.6147]}},
     {"variational": {"cost": {"quadratic": {"center": 0.1, "stiffness": 0.1}}}}, None),
    ({"prefix": [1e308, 1e308], "tail": {"constant": -1e308}},
     {"maxmin": {"points": [0.1, 0.9]}}, -6.2e307),
    ({"prefix": [1e308, 1e308], "tail": {"constant": -1e308}},
     {"variational": {"cost": {"quadratic": {"center": 0.9, "stiffness": 5}}}}, None),
    (SATURATING, {"edu": {"delta": SATURATING_AT}}, -_MAX_FLOAT),
    (SATURATING, {"variational": {"cost": {"tabulated": {
        "knots": [[0.2, 1.0], [0.5, 0.0], [0.8, 2.0]]}}}}, -_MAX_FLOAT),
]


@pytest.mark.parametrize("stream, criterion, printed", LIMIT_EVALS)
def test_eval_at_the_float_limits_prints_the_exact_value(stream, criterion, printed, tmp_path,
                                                         capsys):
    argv = ["eval"]
    for flag, payload in (("--stream", stream), ("--criterion", criterion)):
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(payload))
        argv += [flag, str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err, caught) == (0, "", [])
    v = float(out)
    x, k = stream_from_dict(stream), criterion_from_dict(criterion)
    if isinstance(k, Edu):
        assert abs(v - exact_dv(x, k.delta)) <= 2 * math.ulp(v)
    else:
        assert_near_exact_minimum(v, x, k if isinstance(k, Maxmin) else k.cost)
    if printed is not None:
        assert v == pytest.approx(printed, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_a_value_scaled_back_past_the_float_range_saturates():
    x, d = stream_from_dict(SATURATING), SATURATING_AT
    want = exact_dv(x, d)
    assert float(want) == -_MAX_FLOAT
    got = [discounted_value(x, d), *evaluate_many(Edu(d), [x] * 3),
           *evaluate_many(Maxmin(points=(d,)), [x] * 3)]
    assert all(abs(v - want) <= math.ulp(_MAX_FLOAT) for v in got), got


#: Each cost shape, maxmin and edu at the float limits, with a knot and a
#: point whose cost, added to D, overflows to +inf.
LIMIT_CRITERIA = [Edu(0.999), Maxmin(points=(0.1, 0.9), intervals=((0.4, 0.6),)),
                  Variational(Quadratic(0.9, 5.0)), Variational(Quadratic(0.1, 0.1)),
                  Variational(Tabulated(((0.0, 8e307), (0.5, 0.0), (0.8, 2.0)))),
                  Variational(IndicatorSet(points=(0.0, 0.95), point_costs=(1.7e308, 0.0),
                                           intervals=((0.1, 0.9),)))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", LIMIT_CRITERIA, ids=lambda k: k.tag)
def test_batches_at_the_float_limits_have_the_single_stream_bits(k):
    # Rows that overflow alternate with their copies scaled near overflow
    # and near 1e-300, so a block holds all three: each row keeps its own
    # bits, and the tiny one would lose some if it were taken over 2^64.
    for x in LIMIT_STREAMS:
        rows = [x, scaled_under(x, 1e300), scaled_under(x, 1e-300)]
        want = [k(y).hex() for y in rows]
        for size in (1, D._COARSE_MIN, D._LOCKSTEP_MIN, D._BLOCK + 1):
            got = hex_bits(evaluate_many(k, [rows[i % 3] for i in range(size)]))
            assert got == [want[i % 3] for i in range(size)], (x, size)


#: A cost that falls by a few ulps of 1 on [0.3, 0.6]: on a constant
#: stream, f rounds to its lower end's value short of that end.
NEARLY_FLAT = Tabulated(((0.3, 1e-15), (0.6, 0.0)))

#: Costs for the monotone certificate beyond ``REF_COSTS``: a stiff
#: quadratic centred near 1, a last knot just below 1, and a nearly flat one.
MONOTONE_COSTS = REF_COSTS + [Quadratic(0.999, 50.0),
                              Tabulated(((0.3, 0.0), (0.6, 1.0), (1.0 - 1e-9, 2.0))),
                              NEARLY_FLAT]


def monotone_brackets(piece, knots):
    """Brackets on a piece: cells of its grid and wider ones, and ones no
    wider than ``_XTOL`` or just wider, on each side of its ends, of the
    knots in it and of 1 - 1e-9; and from -0.0 where the piece starts at 0."""
    a, b = piece.a, piece.b
    cell = (b - a) / (_NODES - 1)
    spots = {a, b, *(k for k in knots if a <= k <= b), *((1.0 - 1e-9,) if b >= 1.0 - 1e-9 else ())}
    out = set()
    for s in spots:
        for w in (0.5 * D._XTOL, D._XTOL, 2.5 * D._XTOL, cell, 2 * cell, 20 * cell, 0.1):
            out |= {(max(s - w, a), s), (s, min(s + w, b))}
    if a == 0.0:
        out |= {(-0.0, cell), (-0.0, 2 * cell), (-0.0, 0.0)}
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(oracle_streams(), st.sampled_from(MONOTONE_COSTS), st.sampled_from([1e-3, 1.0, 1e3]),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=6))
@example(make_stream([-0.0, 0.0], Periodic((-0.0, 1.0))), Quadratic(0.8, 3.0), 1.0, [])
@example(constant_stream(2.0), IndicatorSet(intervals=((0.2, 0.4),)), 1.0, [])
@example(constant_stream(1.0), NEARLY_FLAT, 1.0, [])
def test_a_certified_monotone_bracket_searches_to_its_lower_end(x, cost, scale, pairs):
    x = make_stream([v * scale for v in x.prefix],
                    Periodic(tuple(v * scale for v in x.tail_cycle)))
    n, p, norm, r = terms_of(x)
    dv = D._dv_scalar(*row_of(x))
    knots = [d for d, _ in cost.knots] if isinstance(cost, Tabulated) else []
    for piece in cost.pieces:
        cost_at = piece.scalar
        objective = lambda d: dv(d) + cost_at(d)
        a, b = piece.a, piece.b
        brackets = monotone_brackets(piece, knots) + [
            tuple(sorted((a + (b - a) * u, a + (b - a) * v))) for u, v in pairs]
        ends = [(lo, hi, objective(lo), objective(hi)) for lo, hi in brackets]
        sure = [D._monotone(piece, n, p, norm, r, *br) for br in ends]
        # One closed form: the arrays take the numbers' verdicts.
        with np.errstate(over="ignore", invalid="ignore"):
            assert D._monotone(piece, n, p, norm, r,
                               *map(np.array, zip(*ends))).tolist() == sure
        lockstep = D._golden_lockstep(D._lanes(*as_rows([x] * len(ends)), piece.lanes),
                                      *map(np.array, zip(*ends)))
        for (lo, hi, f_lo, f_hi), ok, found in zip(ends, sure, zip(*lockstep)):
            if ok:
                end = (hi, f_hi) if f_hi < f_lo else (lo, f_lo)
                assert hex_bits(D._golden(objective, lo, hi, f_lo, f_hi)) == hex_bits(end)
                assert hex_bits(found) == hex_bits(end)
            # Never a flat objective, a bracket no wider than _XTOL, or a
            # kink inside; never a non-finite end.
            assert not ok or (f_lo != f_hi and hi - lo > D._XTOL
                              and not any(lo < k < hi for k in knots))
            for bad in (math.inf, -math.inf, math.nan):
                assert not D._monotone(piece, n, p, norm, r, lo, hi, f_lo, bad)
                assert not D._monotone(piece, n, p, norm, r, lo, hi, bad, f_hi)
            assert not D._monotone(piece, n, p, norm, r, lo, hi, f_lo, f_lo)


def test_the_quadratic_continuity_scan_runs_no_golden_section_search(monkeypatch):
    # Each of its mixtures keeps only brackets where the objective is
    # certified monotone, so no golden-section point is evaluated.
    calls = {"golden": 0, "lockstep": 0}
    golden, lockstep = D._golden, D._golden_lockstep

    def counted_golden(*args, **kwargs):
        calls["golden"] += 1
        return golden(*args, **kwargs)

    def counted_lockstep(*args, **kwargs):
        calls["lockstep"] += 1
        return lockstep(*args, **kwargs)

    monkeypatch.setattr(D, "_golden", counted_golden)
    monkeypatch.setattr(D, "_golden_lockstep", counted_lockstep)
    report = check_axiom(Variational(Quadratic(0.8, 3.0)), "continuity_segment", 1, 0)
    assert report.passes == 1
    assert calls == {"golden": 0, "lockstep": 0}


def test_most_brackets_are_certified_away_on_a_fixed_battery(monkeypatch):
    from tempora.axioms import check_axiom, parse_axiom_id
    from tempora.cli import BATTERY

    counts = {"scanned": 0, "searched": 0}
    scan, golden, lockstep = D._scan, D._golden, D._golden_lockstep

    def counted_scan(prefix, cycle, piece, terms):
        # Every bracket the grid opens, before the certificates act.
        counts["scanned"] += len(scan(prefix, cycle, piece, uncertified(terms))[1])
        return scan(prefix, cycle, piece, terms)

    def counted_golden(*args, **kwargs):
        counts["searched"] += 1
        return golden(*args, **kwargs)

    def counted_lockstep(fun, a, b, *args, **kwargs):
        counts["searched"] += a.size
        return lockstep(fun, a, b, *args, **kwargs)

    monkeypatch.setattr(D, "_scan", counted_scan)
    monkeypatch.setattr(D, "_golden", counted_golden)
    monkeypatch.setattr(D, "_golden_lockstep", counted_lockstep)
    k = Variational(Quadratic(0.8, 3.0))
    rng = np.random.default_rng(7)
    lanes = [random_stream(rng) for _ in range(D._LOCKSTEP_MIN)]
    runs = []
    for _ in range(2):
        counts.update(scanned=0, searched=0)
        for seed in range(4):
            for axiom_id in BATTERY:
                axiom, t = parse_axiom_id(axiom_id)
                check_axiom(k, axiom, 2, seed, transform=t)
        evaluate_many(k, lanes)
        runs.append(dict(counts))
    assert runs[0] == runs[1]
    assert runs[0]["searched"] <= 0.6 * runs[0]["scanned"]


OVERFLOW_STREAMS = [make_stream([1e308, 1e308], Constant(-1e308)),
                    make_stream([1e308, 1e308], Periodic((-1e308, -1.5e308)))]


@pytest.mark.parametrize("x", OVERFLOW_STREAMS + [constant_stream(v) for v in (1.0, 0.0, -0.0, -2.5)])
@pytest.mark.parametrize("cost", [Quadratic(0.9, 5.0), IndicatorSet(intervals=((0.1, 0.9),))])
def test_overflowing_and_constant_streams_keep_the_reference_bits(x, cost):
    # The overflowing streams' sums overflow above delta ~ 0.8, where D is
    # taken on their values divided by 2^64; the float reference overflows
    # there, so they are held to the exact oracle.  A constant stream has
    # r = 0, and a flat objective on an interval: it keeps the reference's
    # bits.  A batch keeps the single stream's bits either way.
    got_d, got_v = minimize_over_delta(x, cost)
    k = Variational(cost) if isinstance(cost, Quadratic) else Maxmin(intervals=cost.intervals)
    batched = evaluate_many(k, [x] * D._LOCKSTEP_MIN)
    if x in OVERFLOW_STREAMS:
        assert_near_exact_minimum(got_v, x, cost)
    else:
        want_d, want_v = ref_minimize_over_delta(x, cost)
        assert (got_d.hex(), got_v.hex()) == (want_d.hex(), want_v.hex())
    assert hex_bits(batched) == [got_v.hex()] * D._LOCKSTEP_MIN


def test_a_batch_at_the_float_limit_runs_no_search(monkeypatch):
    # Values of both signs near the limit: max x - min x overflows, and so
    # would the margin's sum, f(lo) + f(hi) and M2, were they not taken in
    # halves, quarters and over 2^64.  Every bracket is then dropped or
    # certified monotone, as on the same stream scaled down, where before
    # each of the 256 rows ran two lockstep lanes.
    x, cost = OVERFLOW_STREAMS[1], Quadratic(0.9, 5.0)
    calls = {"golden": 0, "lanes": 0}
    golden, lockstep = D._golden, D._golden_lockstep

    def counted_golden(*args, **kwargs):
        calls["golden"] += 1
        return golden(*args, **kwargs)

    def counted_lockstep(fun, a, b, *args, **kwargs):
        calls["lanes"] += a.size
        return lockstep(fun, a, b, *args, **kwargs)

    monkeypatch.setattr(D, "_golden", counted_golden)
    monkeypatch.setattr(D, "_golden_lockstep", counted_lockstep)
    for size in (1, D._BLOCK):
        values = evaluate_many(Variational(cost), [x] * size)
        assert hex_bits(values) == ["-0x1.640306605227bp+1023"] * size
    assert calls == {"golden": 0, "lanes": 0}
    assert_near_exact_minimum(values[0], x, cost)


# ---------------------------------------------------------------------------
# the coarse-to-fine scan: the full grid's bits, on a fraction of its nodes
# ---------------------------------------------------------------------------

#: A batch above one block of the coarse-to-fine scan, so that it runs and
#: splits the batch.
ABOVE_BLOCK = D._BLOCK + 1


@settings(max_examples=25, deadline=None)
@given(oracle_streams())
# A flat run above the best: the constant stream is flat below the first
# knot, where the cost is 1.
@example(constant_stream(1.0))
# The overflowing streams, whose float reference overflows: they are held
# to the exact oracle, and each batch to the single stream's bits.
@example(OVERFLOW_STREAMS[0])
@example(OVERFLOW_STREAMS[1])
# Streams whose last bracket, next to 1, the Lipschitz bound cannot drop:
# it is searched or certified monotone, and its result must lose.
@example(make_stream([5.0] * 12, Constant(-5.0)))
@example(constant_stream(-5.0))
def test_batches_have_the_reference_bits_for_every_cost_shape(x):
    for c in REF_COSTS + REF_MAXMIN:
        k = c if isinstance(c, Maxmin) else Variational(c)
        if x in OVERFLOW_STREAMS:
            want = k(x)
            assert_near_exact_minimum(want, x, c)
        else:
            want = (ref_maxmin_value(x, k) if isinstance(c, Maxmin)
                    else ref_minimize_over_delta(x, c)[1])
        for size in (1, D._LOCKSTEP_MIN, ABOVE_BLOCK):
            assert hex_bits(evaluate_many(k, [x] * size)) == [want.hex()] * size, (c, size)


def test_a_batch_of_constant_streams_under_a_flat_knot_extension_keeps_the_reference_bits():
    cost = Tabulated(((0.2, 1.0), (0.5, 0.0), (0.8, 2.0)))
    for v in (1.0, 0.0, -0.0, -2.5):
        x = constant_stream(v)
        want_d, want_v = ref_minimize_over_delta(x, cost)
        for d_star, v_star in minimize_rows([x] * ABOVE_BLOCK, cost):
            assert (d_star.hex(), v_star.hex()) == (want_d.hex(), want_v.hex())


def counted_grid_nodes(monkeypatch):
    """Grid nodes evaluated: 2001 per full scan, plus every node of the
    coarse-to-fine scan's 2-D arrays (the golden-section lanes are 1-D)."""
    counts = {"nodes": 0, "coarse_steps": 0, "coarse_rows": 0}
    scan, dv_array, horner = D._scan, D._dv_array, D._horner

    def counted_scan(*args):
        counts["nodes"] += _NODES
        return scan(*args)

    def counted_dv_array(prefix, cycle, d, *rest):
        if d.ndim == 2:
            counts["nodes"] += d.size
            if d.shape[1] == D._SEGMENTS + 1:
                counts["coarse_rows"] += d.shape[0]
        return dv_array(prefix, cycle, d, *rest)

    def counted_horner(coeffs, d):
        if d.ndim == 2 and d.shape[1] == D._SEGMENTS + 1:
            counts["coarse_steps"] += len(coeffs) * d.size
        return horner(coeffs, d)

    monkeypatch.setattr(D, "_scan", counted_scan)
    monkeypatch.setattr(D, "_dv_array", counted_dv_array)
    monkeypatch.setattr(D, "_horner", counted_horner)
    return counts


def test_a_continuity_scan_evaluates_a_fiftieth_of_the_grid_at_most(monkeypatch):
    counts = counted_grid_nodes(monkeypatch)
    report = check_axiom(Variational(Quadratic(0.8, 3.0)), "continuity_segment", 1, 0)
    assert report.passes == 1
    # The group pass: every 16 mixes of a block are taken at every coarse
    # node as their two envelope rows, not one by one; only the last 16
    # mixes, a block below _GROUPED_MIN, take every coarse node themselves
    # (39 blocks of 256 give 39 * 32 rows, so 1264 in all).
    assert counts["coarse_rows"] <= 2 * 10000 // D._GROUP + D._GROUPED_MIN
    # 331233 nodes, the envelopes' included: the interpolation bound drops
    # the short segments near each minimum that the slope bound keeps.
    assert counts["nodes"] <= 10001 * _NODES / 50


def test_the_coarse_stride_divides_the_grid():
    # Otherwise the last nodes of the grid lie in no segment, unscanned.
    assert (_NODES - 1) % D._STRIDE == 0


def test_a_continuity_scan_traces_under_a_megabyte_at_its_peak():
    # The scan takes its arrays a slice of rows at a time, so that its
    # 256-row blocks do not raise the working set: the peak reads 0.39 MB.
    k = Variational(Quadratic(0.8, 3.0))
    check_axiom(k, "continuity_segment", 1, 0)          # the grid's caches
    tracemalloc.start()
    try:
        check_axiom(k, "continuity_segment", 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@st.composite
def grouped_batches(draw):
    """(n, rows) of one shape, 64 to 150 of them, so that the last group of
    16 is mostly ragged: mixes of two streams at a fixed spacing (rows
    that canonicalization could change left out), or unrelated rows; with
    a constant tail or a cycle of up to 4."""
    size = draw(st.integers(D._GROUPED_MIN, 150))
    if draw(st.booleans()):
        x, z = draw(oracle_streams()), draw(oracle_streams())
        spacing = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]))
        start = draw(st.floats(0.0, 1.0))
        n, vals, mask = _mixture_rows(x, z, [(start + i * spacing) % 1.0 for i in range(size)])
        return n, vals[~mask]
    n, p = draw(st.integers(0, 8)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return n, rng.uniform(-5.0, 5.0, (size, n + p))


def spaced_batch(size, spacing):
    x = make_stream([1.0, -2.0, 0.5], Periodic((3.0, -1.0)))
    z = make_stream([4.0], Constant(-3.0))
    n, vals, mask = _mixture_rows(x, z, [0.2 + i * spacing for i in range(size)])
    return n, vals[~mask]


@settings(max_examples=20, deadline=None)
@given(grouped_batches(), st.sampled_from([64, 96, D._BLOCK]))
@example(spaced_batch(70, 1e-4), 64)
@example(spaced_batch(150, 1e-3), 96)
@example((2, np.tile([1.0, -1.0, 0.5], (80, 1))), 64)
def test_a_group_drops_only_segments_above_each_rows_grid_minimum(batch, block):
    n, vals = batch
    xs = [_stream(row[:n], row[n:]) for row in vals.tolist()]
    group = np.arange(len(vals)) // D._GROUP
    with np.errstate(over="ignore", invalid="ignore"):
        for c in REF_COSTS:
            for piece in c.pieces:
                if piece.b <= piece.a:
                    continue
                g = _grid(piece.a, piece.b)
                seg = D._group_segments(vals, n, piece)
                assert seg.shape == (group[-1] + 1, D._SEGMENTS)
                # Every grid node of a dropped segment, on every row of the
                # group, lies strictly above that row's grid minimum.
                dropped = np.zeros((len(seg), _NODES), bool)
                for s in range(D._STRIDE + 1):
                    dropped[:, s:_NODES - D._STRIDE + s:D._STRIDE] |= ~seg
                f = np.array([discounted_value_grid(*row_of(x), g) for x in xs]) + piece.on_grid
                above = np.where(dropped[group], f, np.inf).min(1)
                assert (above > f.min(1)).all(), (c, piece.a, piece.b)
            # And the batch keeps the bits of each stream on its own, with
            # blocks and groups that end inside the batch.
            with mock.patch.object(D, "_BLOCK", block):
                got = minimize_rows(xs, c)
            assert [(d.hex(), v.hex()) for d, v in got] == \
                [tuple(map(float.hex, minimize_over_delta(x, c))) for x in xs], c


def test_the_coarse_pass_does_not_pad_a_batch_to_its_longest_prefix(monkeypatch, rng):
    xs = [random_stream(rng) for _ in range(300)]
    xs.append(make_stream(rng.uniform(-5.0, 5.0, 2000).tolist(), Constant(1.0)))
    want = [minimize_over_delta(x, Quadratic(0.8, 3.0)) for x in xs]
    counts = counted_grid_nodes(monkeypatch)
    got = minimize_rows(xs, Quadratic(0.8, 3.0))
    assert got == want
    # Many streams share their shape with 15 others or more; every coarse
    # row takes its own n + p Horner steps on the 126 coarse nodes.
    assert counts["coarse_rows"] >= 60
    assert counts["coarse_steps"] <= sum(len(x.prefix) + x.period for x in xs) * (D._SEGMENTS + 1)


def test_a_batch_of_constant_tails_takes_no_denominator(rng):
    # An interval no other test scans, so its grid's entries are new.
    cost = IndicatorSet(intervals=((0.123, 0.877),))
    xs = [make_stream(rng.uniform(-1.0, 1.0, 3).tolist(), Constant(0.5))
          for _ in range(2 * D._COARSE_MIN)]
    want = [minimize_over_delta(x, cost) for x in xs]
    before = _grid_denom.cache_info()
    got = minimize_rows(xs, cost)
    assert [(d.hex(), v.hex()) for d, v in got] == [(d.hex(), v.hex()) for d, v in want]
    assert _grid_denom.cache_info() == before


def sparse_spike(m):
    """Zeros, then -e (m + 1) at time m, then zeros: D_delta dips to about
    -1 at delta = m / (m + 1), a dip narrower than a grid cell for m = 3000,
    and D_delta underflows to exactly 0 well below it."""
    prefix = [0.0] * (m + 1)
    prefix[m] = -math.e * (m + 1)
    return make_stream(prefix, Constant(0.0))


def test_the_refine_loop_follows_a_flat_run_into_dropped_segments():
    # f = D + cost is exactly 45 up to delta = 0.97, where D is below half
    # an ulp of the cost's plateau.  Low down the plateau's 16-cell segments
    # are certified above the dip near 1 and dropped; higher up the bound
    # is too loose and they are kept.  The run of grid minima along the
    # plateau starts at node 1, so its bracket is [grid[0], about 0.97] only if
    # the loop evaluates every dropped segment the run crosses: the kept
    # segment's first node ties its neighbour (the rule is <=, not <) and
    # the segments reached are flat, so the run goes on.  From
    # _GROUPED_MIN rows on, the group pass drops those segments, and the
    # run goes on into segments whose coarse ends no row took.
    x = sparse_spike(3000)
    cost = Tabulated(((0.97, 45.0), (0.99, 0.0), (1.0 - 1e-8, 0.0)))
    piece = cost.pieces[0]
    n = len(x.prefix)
    full = D._scan(*row_of(x), piece, terms_of(x))[1]
    assert any(lo == 0.0 and 0.96 < hi < 0.97 for lo, hi, *_ in full)
    want_d, want_v = minimize_over_delta(x, cost)
    assert 0.9995 < want_d < 1.0 and want_v < -1.0
    for size in (D._COARSE_MIN, D._GROUPED_MIN):
        vals = np.array([x.prefix + x.tail_cycle] * size)
        terms = np.array(terms_of(x)[2:])[:, None, None] * np.ones((1, size, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            best, factors, (row, *ends) = D._coarse_to_fine(vals, n, piece, terms)
        for r in range(size):
            assert sorted(zip(*(e[row == r].tolist() for e in ends))) == sorted(full)
        for d_star, v_star in minimize_rows([x] * size, cost):
            assert (d_star.hex(), v_star.hex()) == (want_d.hex(), want_v.hex())
