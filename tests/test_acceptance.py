"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass line (prints execute only after every assertion
in the test has held).  Run with ``pytest -s tests/test_acceptance.py`` to
see the lines.
"""

import json

import numpy as np
import pytest

from tempora import (BanachWindow, Constant, Edu, IndicatorSet, Inf, Liminf,
                     Maxmin, Periodic, Quadratic, ScaleTransform, Variational,
                     add, banach_window_value, builtin_operator, check_axiom,
                     cli, delay, discounted_value, evaluate,
                     geometric_invariance_check, invariant_structure,
                     make_stream, pairwise_swap, permute, random_stream,
                     recover_cost, run_counterexamples, scale_translate,
                     shift_left, unanimity_probe, window_oracle)
from tempora.eigen import DiscountVector, adjoint


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_closed_form_vs_series():
    rng = np.random.default_rng(1001)
    deltas = [i / 10 for i in range(10)] + [0.99]
    horizon = 10 ** 5
    powers = {d: np.power(d, np.arange(horizon + 1)) for d in deltas}
    worst = 0.0
    for _ in range(500):
        x = random_stream(rng, max_prefix=16, max_period=5)
        reps = (horizon + 1 - len(x.prefix)) // x.period + 2
        vals = np.concatenate([np.asarray(x.prefix),
                               np.tile(x.tail_cycle, reps)])[:horizon + 1]
        for d in deltas:
            partial = (1.0 - d) * float(powers[d] @ vals)
            worst = max(worst, abs(discounted_value(x, d) - partial))
    assert worst <= 1e-9
    report(1, f"closed form vs 1e5-term series on 500 streams x 11 deltas, "
              f"max err {worst:.2e} <= 1e-9")


def test_criterion_02_delay_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        x = random_stream(rng)
        d = float(rng.uniform(0.0, 1.0))
        gap = abs(discounted_value(delay(x), d) - d * discounted_value(x, d))
        worst = max(worst, gap)
    assert worst <= 1e-12
    report(2, f"delay identity on 500 pairs, max err {worst:.2e} <= 1e-12")


def test_criterion_03_probe_identity():
    rng = np.random.default_rng(1003)
    grid = np.arange(101) / 101.0
    worst = 0.0
    for _ in range(20):
        center = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.1, 5.0))
        probe = unanimity_probe(center, alpha)
        got = np.array([discounted_value(probe, d) for d in grid.tolist()])
        want = alpha * (grid - center) ** 2
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12
    report(3, f"probe identity on 101 x 20 grid, max err {worst:.2e} <= 1e-12")


def test_criterion_04_doubled_improvement_regression():
    inf_k = Inf()
    x = make_stream([-1.0], Constant(0.0))
    d = make_stream([1.0, -1.0], Constant(0.0))
    assert evaluate(inf_k, add(x, d)) == -1.0
    assert evaluate(inf_k, x) == -1.0
    assert evaluate(inf_k, add(x, scale_translate(d, 2.0))) == -2.0
    rep = check_axiom(inf_k, "itis", trials=1, seed=0,
                      transform=ScaleTransform(2.0))
    assert rep.violation is not None
    assert rep.violation["gap"] == 1.0
    labels = [r.label for r in run_counterexamples()]
    assert "inf-doubled-improvement" in labels
    report(4, "worst-period criterion: (-1, -1, -2) exact and the scale-2 "
              "violation is flagged")


def test_criterion_05_pairwise_swap_regression():
    lim = Liminf()
    x = make_stream([], Periodic((0.0, 1.0)))
    d = make_stream([], Periodic((1.0, -1.0)))
    assert evaluate(lim, x) == 0.0
    assert evaluate(lim, add(x, d)) == 0.0
    assert evaluate(lim, add(x, pairwise_swap(d))) == -1.0
    rep = check_axiom(lim, "ipis", trials=1, seed=0)
    assert rep.violation is not None
    cert = rep.violation
    assert cert["sigma"] == "pairwise_swap"
    assert cert["lhs"] == -1.0 and cert["rhs"] == 0.0
    report(5, "worst-recurring criterion: (0, 0, -1) exact and the pair-swap "
              "violation is certified")


def test_criterion_06_zero_factor_tie_regression():
    k = Maxmin(points=(0.0,))
    assert evaluate(k, make_stream([0.0, 1.0], Constant(0.0))) == 0.0
    assert evaluate(k, make_stream([0.0, 2.0], Constant(0.0))) == 0.0
    report(6, "worst case over {0}: both probe streams evaluate to 0 exactly")


def test_criterion_07_axiom_suites():
    suite = ("monotonicity", "icrp", "convexity", "lipschitz",
             "normalization", "idis")
    for axiom in suite:
        rep = check_axiom(Variational(Quadratic(0.9, 5.0)), axiom,
                          trials=1000, seed=42, tol=1e-9)
        assert rep.violation is None, (axiom, rep.violation)
    for axiom in suite + ("isu",):
        rep = check_axiom(Maxmin(points=(0.3, 0.7)), axiom,
                          trials=1000, seed=42, tol=1e-9)
        assert rep.violation is None, (axiom, rep.violation)
    for axiom in suite + ("isu", "iou"):
        rep = check_axiom(Edu(0.95), axiom, trials=1000, seed=42, tol=1e-9)
        assert rep.violation is None, (axiom, rep.violation)
    rng = np.random.default_rng(1007)
    k = Edu(0.95)
    worst = 0.0
    for _ in range(1000):
        x, y = random_stream(rng), random_stream(rng)
        gap = abs(evaluate(k, add(x, y)) - evaluate(k, x) - evaluate(k, y))
        worst = max(worst, gap)
    assert worst <= 1e-12
    report(7, "axiom suites at 1000 trials: variational core six, maxmin "
              f"+scale, edu +common-stream, additivity max err {worst:.2e}")


def test_criterion_08_variational_indicator_equals_maxmin():
    rng = np.random.default_rng(1008)
    cases = [
        (Variational(IndicatorSet(points=(0.25, 0.5, 0.9))),
         Maxmin(points=(0.25, 0.5, 0.9))),
        (Variational(IndicatorSet(intervals=((0.4, 0.6),))),
         Maxmin(intervals=((0.4, 0.6),))),
    ]
    worst = 0.0
    for var, mm in cases:
        for _ in range(200):
            x = random_stream(rng)
            worst = max(worst, abs(evaluate(var, x) - evaluate(mm, x)))
    assert worst <= 1e-10
    report(8, f"zero-cost variational = maxmin on 2 x 200 streams, "
              f"max gap {worst:.2e} <= 1e-10")


def test_criterion_09_patient_criteria():
    alt = make_stream([], Periodic((0.0, 1.0)))
    assert banach_window_value(alt) == 0.5
    horizon = 10 ** 4
    assert abs(window_oracle(alt, horizon) - 0.5) <= 1.0 / (horizon + 1)
    rng = np.random.default_rng(1009)
    for _ in range(200):
        x = random_stream(rng)
        assert banach_window_value(shift_left(x)) == banach_window_value(x)
        m = int(rng.integers(2, 9))
        sigma = [int(i) for i in rng.permutation(m)]
        assert banach_window_value(permute(x, sigma)) == banach_window_value(x)
    for n in (1, 10, 100):
        assert banach_window_value(make_stream([-float(n)], Constant(0.0))) == 0.0
    report(9, "window criterion: alternating = 0.5, oracle within 1/(T+1), "
              "shift and permutation invariance exact, spikes vanish")


def test_criterion_10_cost_recovery():
    table = dict(recover_cost(Maxmin(points=(0.5,)), [0.5, 0.3],
                              probe_alphas=(1.0, 10.0, 100.0, 1e3, 1e5)))
    assert table[0.5] <= 1e-9
    assert table[0.3] >= 4000.0
    patient_table = recover_cost(BanachWindow(), [0.1, 0.5, 0.9],
                                 spike_ns=(100,))
    for d, bound in patient_table:
        assert bound >= (1.0 - d) * 100.0
    report(10, f"cost recovery: chat(0.5) = {table[0.5]:.1e} <= 1e-9, "
               f"chat(0.3) = {table[0.3]:.0f} >= 4000, patient bounds "
               ">= (1-d)*100")


def test_criterion_11_eigen_solver():
    res = invariant_structure(adjoint(builtin_operator("cyclic_delay", 8)))
    assert np.allclose(res.p.weights, 0.125, atol=1e-12)
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-10

    res = invariant_structure(adjoint(builtin_operator("absorbing_delay", 8)))
    assert res.p.weights[0] == 1.0 and res.p.weights[1:].sum() == 0.0
    assert res.eigenvalue == 0.0

    mstar = adjoint(builtin_operator("permutation", 5, sigma=[1, 2, 0, 4, 3]))
    start = DiscountVector(np.array([0.5, 0.3, 0.2, 0.0, 0.0]))
    res = invariant_structure(mstar, cesaro_averaging=True, start=start)
    assert res.residual <= 1e-10
    w = res.p.weights
    assert np.allclose(w[:3], w[0], atol=1e-10)
    assert np.allclose(w[3:], w[3], atol=1e-10)

    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(500):
        x = random_stream(rng)
        d = float(rng.uniform(0.0, 1.0 - 1e-12))
        worst = max(worst, geometric_invariance_check(x, d))
    assert worst <= 1e-12
    report(11, f"eigen solver: cyclic uniform, absorbing e_0, cycle-constant "
               f"averages, geometric residual max {worst:.2e} <= 1e-12")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    crit = tmp_path / "edu.json"
    crit.write_text(json.dumps({"edu": {"delta": 0.95}}))
    argv = ["axioms", "--criterion", str(crit), "--trials", "1000",
            "--seed", "42"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode("utf-8") == second.encode("utf-8")
    assert json.loads(first)["trials"] == 1000
    report(12, "two CLI axiom runs at 1000 trials produce byte-identical JSON")
