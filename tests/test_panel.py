import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempora import (BanachWindow, Cesaro, Edu, ExpertPanel, IndicatorSet, Inf,
                     Liminf, Maxmin, Quadratic, Tabulated, Variational,
                     check_unanimity, cost_eval, discounted_value, evaluate,
                     panel_criterion, panel_from_rates, random_stream,
                     rate_to_factor, recover_cost, unanimity_probe,
                     weitzman_panel)
from tempora.panel import _RATE_CAP, _SURVEY_MU, _SURVEY_SIGMA
from tempora.errors import InvalidAxiom, InvalidDelta, InvalidPanel

from conftest import counted, work


# ---------------------------------------------------------------------------
# panel construction
# ---------------------------------------------------------------------------

def test_panel_validation():
    with pytest.raises(InvalidPanel):
        ExpertPanel(factors=())
    with pytest.raises(InvalidPanel):
        ExpertPanel(factors=(0.0,))
    with pytest.raises(InvalidPanel):
        ExpertPanel(factors=(1.0,))
    with pytest.raises(InvalidPanel):
        ExpertPanel(factors=(0.5,), confidences=(1.0,))   # not grounded
    with pytest.raises(InvalidPanel):
        ExpertPanel(factors=(0.5, 0.6), confidences=(0.0,))
    for confidence in (math.nan, math.inf):
        with pytest.raises(InvalidPanel, match="finite"):
            ExpertPanel(factors=(0.5, 0.6), confidences=(0.0, confidence))
    panel = ExpertPanel(factors=(0.5, 0.6))
    assert panel.confidences == (0.0, 0.0)


@pytest.mark.parametrize("factors, confidences, match", [
    ((), (), "at least one expert"),
    ((0.0,), (), "strictly inside"),
    ((-0.0, 0.5), (), "strictly inside"),
    ((1.0,), (), r"panel as a cost: indicator point must lie in \[0, 1\)"),
    ((math.nan,), (), "panel as a cost: indicator point"),
    ((0.5,), (1.0,), "panel as a cost: not grounded"),
    ((0.5, 0.6), (0.0,), "panel as a cost: point_costs length must match points"),
    ((0.5,), (0.0, 0.0), "panel as a cost: point_costs length must match points"),
    ((0.5, 0.6), (0.0, -1.0), "panel as a cost: point costs must be finite and >= 0"),
], ids=str)
def test_each_bad_panel_raises_invalid_panel(factors, confidences, match):
    with pytest.raises(InvalidPanel, match=match):
        ExpertPanel(factors=factors, confidences=confidences)


def test_a_panel_is_its_indicator_cost():
    panel = ExpertPanel(factors=[0.3, np.float64(0.6)], confidences=[0, 1.5])
    assert panel.factors == (0.3, 0.6) and panel.confidences == (0.0, 1.5)
    assert panel.cost == IndicatorSet(points=(0.3, 0.6), point_costs=(0.0, 1.5))
    assert panel_criterion(panel).cost is panel.cost
    assert ExpertPanel(factors=(0.5, 0.6)).cost == IndicatorSet(points=(0.5, 0.6))
    # cost is no field: equality, hashing and the repr are the factors' and
    # confidences' alone.
    same = ExpertPanel(factors=(0.3, 0.6), confidences=(0.0, 1.5))
    assert panel == same and hash(panel) == hash(same)
    assert repr(panel) == "ExpertPanel(factors=(0.3, 0.6), confidences=(0.0, 1.5))"


# ---------------------------------------------------------------------------
# panel criterion
# ---------------------------------------------------------------------------

def test_single_fully_trusted_expert_is_edu(rng):
    k_panel = panel_criterion(ExpertPanel(factors=(0.72,)))
    k_edu = Edu(0.72)
    for _ in range(50):
        x = random_stream(rng)
        assert abs(evaluate(k_panel, x) - evaluate(k_edu, x)) <= 1e-12


def test_zero_confidence_panel_is_maxmin(rng):
    factors = (0.25, 0.5, 0.9)
    k_panel = panel_criterion(ExpertPanel(factors=factors))
    k_mm = Maxmin(points=factors)
    for _ in range(200):
        x = random_stream(rng)
        assert abs(evaluate(k_panel, x) - evaluate(k_mm, x)) <= 1e-10


def test_confidence_and_distance_trade_off():
    panel = ExpertPanel(factors=(0.3, 0.6), confidences=(0.0, 1.0))
    probe = unanimity_probe(0.6, 100.0)
    # trusted-but-distant expert scores 100 * 0.09 = 9; distrusted-but-right
    # expert scores 0 + 1
    assert evaluate(panel_criterion(panel), probe) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# probe stream
# ---------------------------------------------------------------------------

def test_probe_point_values():
    assert discounted_value(unanimity_probe(0.6, 1.0), 0.6) == pytest.approx(0.0, abs=1e-14)
    assert discounted_value(unanimity_probe(0.6, 1.0), 0.8) == pytest.approx(0.04, abs=1e-12)


def test_probe_identity_on_grid(rng):
    grid = np.arange(101) / 101.0
    worst = 0.0
    for _ in range(20):
        center = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.1, 5.0))
        probe = unanimity_probe(center, alpha)
        for dp in grid:
            got = discounted_value(probe, float(dp))
            worst = max(worst, abs(got - alpha * (dp - center) ** 2))
    assert worst <= 1e-12


def test_probe_validation():
    with pytest.raises(InvalidDelta):
        unanimity_probe(1.0, 1.0)
    with pytest.raises(InvalidPanel):
        unanimity_probe(0.5, 0.0)


# ---------------------------------------------------------------------------
# unanimity
# ---------------------------------------------------------------------------

def test_panel_criterion_satisfies_unanimity():
    panel = ExpertPanel(factors=(0.3, 0.6), confidences=(0.0, 0.7))
    rep = check_unanimity(panel, panel_criterion(panel), trials=60, seed=2)
    assert rep.violation is None
    assert rep.passes == rep.trials


def test_unanimity_needs_a_trial():
    panel = ExpertPanel(factors=(0.3, 0.6))
    for trials in (0, -3):
        with pytest.raises(InvalidAxiom):
            check_unanimity(panel, panel_criterion(panel), trials=trials, seed=0)


def test_finite_off_panel_cost_is_hunted_down():
    panel = ExpertPanel(factors=(0.6,))
    # quadratic cost is finite everywhere, in particular off the panel
    rogue = Variational(Quadratic(0.4, 2.0))
    rep = check_unanimity(panel, rogue, trials=40, seed=2)
    assert rep.violation is not None
    cert = rep.violation
    assert "probe_center" in cert or "x" in cert
    assert cert["gap"] > rep.tol


def test_equal_streams_trivially_unanimous(rng):
    panel = ExpertPanel(factors=(0.5,))
    k = panel_criterion(panel)
    x = random_stream(rng)
    assert evaluate(k, x) >= evaluate(k, x) - 1e-9


# ---------------------------------------------------------------------------
# cost recovery
# ---------------------------------------------------------------------------

def test_recover_cost_maxmin_bounds():
    table = dict(recover_cost(Maxmin(points=(0.5,)), [0.5, 0.3],
                              probe_alphas=(1.0, 10.0, 1e5)))
    assert table[0.5] <= 1e-9
    assert table[0.3] >= 4000.0


def test_recover_cost_edu_zero_at_its_factor():
    table = dict(recover_cost(Edu(0.7), [0.7]))
    assert abs(table[0.7]) <= 1e-9


def test_recover_cost_patient_blowup():
    table = recover_cost(BanachWindow(), [0.1, 0.5, 0.9], spike_ns=(100,))
    for d, bound in table:
        assert bound >= (1.0 - d) * 100.0


def test_recover_cost_monotone_in_family():
    k = Maxmin(points=(0.4, 0.8))
    grid = [0.2, 0.55]
    small = dict(recover_cost(k, grid, probe_alphas=(1.0,), random_streams=0))
    large = dict(recover_cost(k, grid, probe_alphas=(1.0, 10.0, 100.0),
                              random_streams=25, seed=4))
    for d in grid:
        assert large[d] >= small[d] - 1e-12


def test_recover_cost_never_negative():
    table = recover_cost(Edu(0.5), [0.1, 0.5, 0.9], random_streams=10, seed=1)
    assert all(bound >= 0.0 for _, bound in table)


RECOVERED = [Variational(Quadratic(0.8, 3.0)),
             Variational(Tabulated(knots=((0.2, 0.5), (0.5, 0.0), (0.8, 2.0)))),
             Variational(IndicatorSet(intervals=((0.4, 0.6),))),
             Maxmin(points=(0.3,), intervals=((0.5, 0.7),)),
             Inf(), Liminf(), BanachWindow(), Cesaro()]


def hex_table(table):
    return [(d.hex(), bound.hex()) for d, bound in table]


@pytest.mark.parametrize("k", RECOVERED, ids=lambda k: type(k).__name__)
def test_recover_cost_batch_has_the_bits_of_one_call_per_stream(k):
    # 110 streams: maxmin and variational refine them in one lockstep search.
    grid, kw = [0.3, 0.5, 0.7], dict(random_streams=5, seed=2)
    one_by_one = recover_cost(lambda x: evaluate(k, x), grid, **kw)
    assert hex_table(recover_cost(k, grid, **kw)) == hex_table(one_by_one)


def test_recover_cost_of_a_plain_callable_calls_it_once_per_stream():
    ev, seen = counted(lambda x: discounted_value(x, 0.6), lambda out, x: x)
    table = recover_cost(ev, [0.2, 0.6], random_streams=3, seed=1)
    assert hex_table(table) == hex_table(recover_cost(Edu(0.6), [0.2, 0.6], random_streams=3, seed=1))
    assert len(seen) == len(set(map(id, seen))) > 5


def test_recover_cost_evaluates_a_criterion_in_one_batch(monkeypatch):
    for k in RECOVERED:
        with monkeypatch.context() as m:
            calls = work(m, "batches", "singles")
            recover_cost(k, [0.3, 0.7], random_streams=4)
        assert calls == {"batches": [1], "singles": []}, k


def test_recover_cost_grid_validation():
    with pytest.raises(InvalidDelta):
        recover_cost(Edu(0.5), [1.0])


factors = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def recoverable_costs(draw):
    """A quadratic, tabulated or indicator cost, grounded."""
    kind = draw(st.sampled_from(["quadratic", "tabulated", "indicator"]))
    if kind == "quadratic":
        return Quadratic(draw(factors), draw(st.floats(0.0, 50.0)))
    costs = st.floats(0.0, 10.0)
    if kind == "tabulated":
        # Knots a thousandth apart at least, so every slope is a finite float.
        ds = draw(st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True))
        ks = draw(st.lists(costs, min_size=len(ds), max_size=len(ds)))
        ks[draw(st.integers(0, len(ds) - 1))] = 0.0
        return Tabulated(tuple(zip(sorted(d / 1000 for d in ds), ks)))
    intervals = draw(st.lists(st.tuples(factors, factors).map(sorted), max_size=2))
    points = draw(st.lists(factors, min_size=not intervals, max_size=3))
    ks = draw(st.lists(costs, min_size=len(points), max_size=len(points)))
    if points and not intervals:
        ks[0] = 0.0
    return IndicatorSet(points=tuple(points), point_costs=tuple(ks), intervals=tuple(intervals))


#: The bounds' float error: 1.4e-12 above the cost and 3.9e-12 below the
#: closed form at most, over 175 checks on 60 random costs.
RECOVER_TOL = 1e-9


@settings(max_examples=60, deadline=None)
@given(recoverable_costs(), st.lists(factors, min_size=1, max_size=4))
def test_recovered_bounds_lie_under_the_cost_and_over_the_probe_closed_form(c, grid):
    # I(x) <= D_delta(x) + c(delta) for every x, so no bound exceeds c(delta).
    k = Variational(c)
    for d, bound in recover_cost(k, grid):
        assert bound <= cost_eval(c, d) + RECOVER_TOL, (d, bound)
    if isinstance(c, Quadratic):
        # The probe of scale a centred at delta has I = a s / (a + s)
        # (delta - c0)^2, attained between delta and c0, so inside [0, 1).
        a, s, c0 = 1e5, c.stiffness, c.center
        for d, bound in recover_cost(k, grid, probe_alphas=(a,)):
            assert bound >= a * s / (a + s) * (d - c0) ** 2 - RECOVER_TOL, (d, bound)


# ---------------------------------------------------------------------------
# survey sampling
# ---------------------------------------------------------------------------

def test_rate_conversion():
    assert rate_to_factor(0.0396) == pytest.approx(0.96191, abs=1e-5)
    assert rate_to_factor(0.0396, "exp") == pytest.approx(np.exp(-0.0396), abs=1e-12)
    with pytest.raises(InvalidPanel):
        rate_to_factor(0.05, "nope")


def test_panel_from_single_forced_rate():
    panel = panel_from_rates([0.0396])
    assert panel.factors[0] == pytest.approx(0.96191, abs=1e-5)
    with pytest.raises(InvalidPanel):
        panel_from_rates([])
    with pytest.raises(InvalidPanel):
        panel_from_rates([-0.01])


def _truncnorm_moments(mu, sigma, lo, hi):
    """Mean and sd of N(mu, sigma^2) truncated to [lo, hi], in closed form."""
    std = NormalDist()
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    z = std.cdf(b) - std.cdf(a)
    pa, pb = std.pdf(a), std.pdf(b)
    mean = mu + sigma * (pa - pb) / z
    var = sigma ** 2 * (1.0 + (a * pa - b * pb) / z - ((pa - pb) / z) ** 2)
    return mean, math.sqrt(var)


def test_survey_calibration_matches_target_moments():
    assert _RATE_CAP == 0.20
    m, sd = _truncnorm_moments(_SURVEY_MU, _SURVEY_SIGMA, 0.0, _RATE_CAP)
    assert m == pytest.approx(0.0396, abs=1e-9)
    assert sd == pytest.approx(0.0294, abs=1e-9)
    from scipy import stats
    a, b = (0.0 - _SURVEY_MU) / _SURVEY_SIGMA, (_RATE_CAP - _SURVEY_MU) / _SURVEY_SIGMA
    m, v = stats.truncnorm.stats(a, b, loc=_SURVEY_MU, scale=_SURVEY_SIGMA, moments="mv")
    assert float(m) == pytest.approx(0.0396, abs=1e-9)
    assert float(np.sqrt(v)) == pytest.approx(0.0294, abs=1e-9)


def test_weitzman_panel_draws_match_scipy_truncnorm():
    # The same uniform draws through scipy's truncated-normal sampler.
    from scipy import stats
    a, b = (0.0 - _SURVEY_MU) / _SURVEY_SIGMA, (_RATE_CAP - _SURVEY_MU) / _SURVEY_SIGMA
    for seed in (0, 99, 2 ** 40 + 3):
        want = stats.truncnorm.rvs(a, b, loc=_SURVEY_MU, scale=_SURVEY_SIGMA, size=5000,
                                   random_state=np.random.default_rng(seed))
        rates = 1.0 / np.array(weitzman_panel(5000, seed=seed).factors) - 1.0
        assert np.abs(rates - want).max() <= 1e-12


def test_weitzman_panel_statistics():
    panel = weitzman_panel(1000, seed=99)
    assert panel.size == 1000
    assert all(0.0 < f < 1.0 for f in panel.factors)
    rates = np.array([1.0 / f - 1.0 for f in panel.factors])
    assert (rates > 0).all() and (rates <= 0.20 + 1e-12).all()
    assert abs(rates.mean() - 0.0396) <= 0.005
    assert set(panel.confidences) == {0.0}


def test_weitzman_panel_rejects_empty():
    with pytest.raises(InvalidPanel):
        weitzman_panel(0, seed=1)
