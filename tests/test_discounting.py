import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempora import (BanachWindow, Cesaro, Constant, Edu, IndicatorSet, Inf,
                     Liminf, Maxmin, Periodic, Quadratic, Stream, Tabulated,
                     Variational, add, constant_stream, cost_eval, delay,
                     discounted_value, evaluate, evaluate_many, make_stream,
                     minimize_over_delta, random_stream, scale_translate,
                     sup_distance, unanimity_probe)
from tempora.discounting import (_GRID_CACHE, _MEMO_CAP, _NODES, _grid, _interp,
                                 discounted_value_grid)
from tempora.errors import (InvalidCost, InvalidCriterion, InvalidDelta)
from tempora.jsonio import criterion_from_dict
import tempora.discounting as D

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
        vec = discounted_value_grid(x, grid)
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
    brute = discounted_value_grid(x, grid) + 10.0 * (grid - 0.3) ** 2
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
        brute = float((discounted_value_grid(x, grid) + cost_on_grid).min())
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
        brute = float(discounted_value_grid(x, grid).min())
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
        assert discounted_value_grid(x, grid).tobytes() == want
        assert discounted_value_grid(x, _grid(0.0, 1.0 - 1e-9)).tobytes() == \
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
    for arr in (g.d, g.power(3), g.denom(2)):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert g.d.tobytes() == np.linspace(0.4, 0.6, 2001).tobytes()


def test_grid_cache_and_memos_are_bounded():
    k = Maxmin(intervals=((0.25, 0.75),))
    g = _grid(0.25, 0.75)
    for i, n in enumerate([*range(40), 1000, 2000, 3000]):
        x = make_stream([0.5] * n, Periodic(tuple(float(j) for j in range(2 + i))))
        evaluate(k, x)
        assert _grid(0.25, 0.75) is g
        assert 0 < len(g._pow) <= _MEMO_CAP
        assert 0 < len(g._denom) <= _MEMO_CAP
    for i in range(2 * _GRID_CACHE):
        _grid(0.0, 0.5 + i / 100)
    assert _grid.cache_info().currsize <= _GRID_CACHE


def test_concurrent_grid_evaluations_share_the_cache_safely(monkeypatch):
    # A cap of 2 makes the memos refill on nearly every call, so that two
    # fills racing each other would show as a memo past its cap.
    monkeypatch.setattr(D, "_MEMO_CAP", 2)
    # A small grid of the minimizer's kind keeps each refill cheap.
    g = D._Grid(np.linspace(0.35, 0.65, 41))
    xs = [make_stream([0.25 * (n + 1)] * n, Periodic(tuple(float(i) for i in range(2 + n % 5))))
          for n in range(12)]
    want = [discounted_value_grid(x, g).tobytes() for x in xs]
    bad, sizes = [], []

    def work(t):
        for _ in range(300):
            for i in range(t % 12, 12):
                if discounted_value_grid(xs[i], g).tobytes() != want[i]:
                    bad.append(i)
                sizes.append(max(len(g._pow), len(g._denom)))

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


def test_minimize_many_matches_minimize_over_delta(rng):
    xs = many_streams(rng, 60)
    for c in REF_COSTS:
        want = [minimize_over_delta(x, c) for x in xs]
        got = D._minimize_many(xs, c)
        assert [(d.hex(), v.hex()) for d, v in got] == [(d.hex(), v.hex()) for d, v in want]


def test_lockstep_golden_matches_golden_on_the_same_brackets(rng):
    xs = many_streams(rng, 120)
    pieces = [Quadratic(0.8, 3.0).pieces[0], Quadratic(0.3, 10.0).pieces[0],
              Tabulated(knots=((0.2, 1.0), (0.5, 0.0), (0.8, 2.0))).pieces[0],
              IndicatorSet(intervals=((0.0, 1.0),)).pieces[0]]
    periodic = 0
    for piece in pieces:
        owners, brackets = [], []
        for i, x in enumerate(xs):
            found = D._scan(x, piece)[1]
            # plus the whole piece, a wide bracket, and a degenerate one,
            # in the same batch: lanes stop at different steps
            for br in found + [(piece.a, piece.b), (piece.b, piece.b)]:
                owners.append(i)
                brackets.append(br)
        lo, hi = np.array(brackets).T
        got = D._golden_lockstep(D._lanes([xs[i] for i in owners], piece.lanes), lo, hi)
        for i, (a, b), (d, v) in zip(owners, brackets, got):
            dv = D._dv_scalar(xs[i])
            want_d, want_v = D._golden(lambda t: dv(t) + piece.scalar(t), a, b)
            assert (d.hex(), v.hex()) == (want_d.hex(), want_v.hex())
            periodic += xs[i].period > 1
    assert periodic > 500


def test_lockstep_search_starts_at_the_kept_bracket_threshold(monkeypatch, rng):
    piece = Quadratic(0.8, 3.0).pieces[0]
    xs = many_streams(rng, 2 * D._LOCKSTEP_MIN)
    kept = np.cumsum([len(D._undercutting(x, piece, *D._scan(x, piece))) for x in xs])
    # The fewest streams whose brackets reach the threshold; one less falls short.
    j = int(np.searchsorted(kept, D._LOCKSTEP_MIN)) + 1
    assert kept[j - 2] < D._LOCKSTEP_MIN <= kept[j - 1]
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
    for batch, want in ((xs[:j - 1], {"golden": kept[j - 2], "lockstep": 0}),
                        (xs[:j], {"golden": 0, "lockstep": 1})):
        calls.update(golden=0, lockstep=0)
        got = D._minimize_on_interval(batch, piece)
        assert calls == want
        assert [(d.hex(), v.hex()) for d, v in got] == \
            [(d.hex(), v.hex()) for d, v in (D._minimize_on_interval([x], piece)[0]
                                             for x in batch)]


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
    for _ in range(3):
        roots = [z - crit(z) / d1(z) if d1(z) else z for z in roots]
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
@given(oracle_streams(), st.lists(st.floats(0.0, 1.0), max_size=40))
def test_grid_is_the_scalar_form_at_every_element(x, ds):
    ds = [0.0, *ds, 1.0]
    assert hex_bits(discounted_value_grid(x, ds)) == hex_bits(discounted_value(x, d) for d in ds)


@settings(max_examples=100, deadline=None)
@given(oracle_streams(), costs)
def test_grid_objective_is_the_scalar_objective_at_every_node(x, cost):
    cost = cost._indicator if isinstance(cost, Maxmin) else cost
    dv = D._dv_scalar(x)
    for piece in cost.pieces:
        g = _grid(piece.a, piece.b)
        got = discounted_value_grid(x, g) + piece.on_grid
        assert hex_bits(got) == hex_bits(dv(d) + piece.scalar(d) for d in g.d.tolist())


# ---------------------------------------------------------------------------
# certified bracket pruning: a dropped search could never have won
# ---------------------------------------------------------------------------

#: Wide brackets for the certificate: node pairs k cells apart, at the
#: start, middle and end of the grid.
WIDE = [(i, i + k) for k in (1, 20, 500, _NODES - 1)
        for i in sorted({0, (_NODES - 1 - k) // 2, _NODES - 1 - k})]


@settings(max_examples=150, deadline=None)
@given(oracle_streams(), costs, st.sampled_from([1e-3, 1.0, 1e3]))
# The minimum sits in the last bracket, where only the tail bound can
# drop it; a cost's minimum on a bracket is at a knot inside it.
@example(make_stream([5.0] * 12, Constant(-5.0)), Quadratic(0.99, 50.0), 1.0)
@example(constant_stream(-5.0), Tabulated(((0.2, 2.0), (0.5, 10.0), (0.9, 0.0), (0.95, 10.0))),
         1.0)
def test_every_dropped_bracket_searches_above_the_kept_candidate(x, cost, scale):
    x = make_stream([v * scale for v in x.prefix],
                    Periodic(tuple(v * scale for v in x.tail_cycle)))
    cost = cost._indicator if isinstance(cost, Maxmin) else cost
    dv = D._dv_scalar(x)
    for piece in cost.pieces:
        if piece.b <= piece.a:
            continue
        candidates, brackets, ends = D._scan(x, piece)
        # The scan's brackets span two cells at most; the wide ones test
        # the bound where it spans many cells of the grid.
        g = _grid(piece.a, piece.b)
        f = (discounted_value_grid(x, g) + piece.on_grid).tolist()
        brackets = brackets + [(g.d.item(i), g.d.item(j)) for i, j in WIDE]
        ends = ends + [(f[i], f[j]) for i, j in WIDE]
        kept = D._undercutting(x, piece, candidates, brackets, ends)
        assert set(kept) <= set(brackets)
        best, cost_at = candidates[0][0], piece.scalar
        for lo, hi in set(brackets) - set(kept):
            objective = lambda d: dv(d) + cost_at(d)
            assert D._golden(objective, lo, hi)[1] > best
            assert all(objective(d) > best for d in np.linspace(lo, hi, 101).tolist())


def test_most_brackets_are_certified_away_on_a_fixed_battery(monkeypatch):
    from tempora.axioms import check_axiom, parse_axiom_id
    from tempora.cli import BATTERY

    counts = {"scanned": 0, "searched": 0}
    scan, golden, lockstep = D._scan, D._golden, D._golden_lockstep

    def counted_scan(*args):
        out = scan(*args)
        counts["scanned"] += len(out[1])
        return out

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
    # The overflowing streams' grid values turn inf, or NaN, above delta ~
    # 0.8; a constant stream has r = 0, and a flat objective on an interval.
    # Where the minimum is -inf, the reference's per-node searches end at
    # another factor that overflows, so only the value is compared there.
    with np.errstate(over="ignore", invalid="ignore"):
        want_d, want_v = ref_minimize_over_delta(x, cost)
        got_d, got_v = minimize_over_delta(x, cost)
        k = Variational(cost) if isinstance(cost, Quadratic) else Maxmin(intervals=cost.intervals)
        batched = evaluate_many(k, [x] * D._LOCKSTEP_MIN)
    assert got_v.hex() == want_v.hex()
    assert got_d.hex() == want_d.hex() or want_v == -math.inf
    assert hex_bits(batched) == [want_v.hex()] * D._LOCKSTEP_MIN
