"""The benchmark's own tests: the oracles against each other, every
workload at tiny size, and the tracer.

    python3 -m pytest bench -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

COST_SHAPES = [W.COSTS["quadratic"], W.COSTS["tabulated"], W.COSTS["indicator"],
               W.PANEL_STYLE["variational"]["cost"],
               {"indicator": {"intervals": [[0.0, 1.0]]}}]


def random_streams(n, seed=7, **kw):
    rng = np.random.default_rng(seed)
    return [O.from_json(W.draw_stream(rng, **kw)) for _ in range(n)]


# -- oracles against each other ------------------------------------------

def test_discounted_value_forms_agree():
    for x in random_streams(60):
        for d in (0.0, 0.25, 0.9, 0.999, O.ONE_EDGE, 1.0):
            assert O.dv_fsum(x, d) == pytest.approx(O.dv_exact(x, d), abs=1e-13)
    assert O.dv_exact(O.stream([2.0], [5.0]), 0.0) == 2.0
    assert O.dv_exact(O.stream([], [0.0, 1.0]), 1.0) == 0.5


def test_exact_minimum_is_never_beaten_by_a_dense_grid():
    grid = np.linspace(0.0, O.ONE_EDGE, 4001)
    for x in random_streams(20, min_prefix=1):
        for cost_json in COST_SHAPES:
            cost = O.Cost(cost_json)
            best = min([O.dv_fsum(x, d) + cost(d) for d in grid]
                       + [O.dv_fsum(x, d) + k for d, k in cost.points])
            exact = O.exact_min(x, cost)
            assert exact <= best + 1e-12
            assert exact >= best - 1e-3


def test_exact_minimum_of_a_constant_and_a_linear_stream():
    quad = O.Cost(W.COSTS["quadratic"])
    assert O.exact_min(O.stream([], [1.0]), quad) == 1.0
    # D_delta((1, 0, 0, ...)) = 1 - delta, so on [0.4, 0.6] the minimum
    # is at the right end.
    maxmin = O.maxmin_cost({"intervals": [[0.4, 0.6]]})
    assert O.exact_min(O.stream([1.0], [0.0]), maxmin) == pytest.approx(0.4, abs=1e-15)


def test_stream_algebra_is_pointwise():
    x = O.stream([1.0, 2.0], [3.0, 4.0])
    y = O.stream([5.0], [0.0, 1.0, 2.0])
    s = O.add(x, y)
    assert [O.at(s, t) for t in range(12)] == [O.at(x, t) + O.at(y, t) for t in range(12)]
    assert len(s[1]) == 6
    sw = O.pairwise_swap(x)
    assert [O.at(sw, t) for t in range(6)] == [2.0, 1.0, 4.0, 3.0, 4.0, 3.0]
    p = O.permute(x, [2, 0, 1])
    assert [O.at(p, t) for t in range(5)] == [3.0, 1.0, 2.0, 4.0, 3.0]
    assert O.sup_distance(x, y) == 4.0
    assert [O.at(O.delay(x), t) for t in range(3)] == [0.0, 1.0, 2.0]
    assert [O.at(O.shift_left(O.stream([], [1.0, 2.0])), t) for t in range(3)] == [2.0, 1.0, 2.0]


def test_eigen_residual_from_index_maps():
    n = 6
    uniform = np.full(n, 1.0 / n)
    assert O.eigen_residual({"builtin": {"name": "cyclic_delay", "n": n}}, uniform, 1.0) == 0.0
    e0 = np.eye(n)[0]
    assert O.eigen_residual({"builtin": {"name": "absorbing_delay", "n": n}}, e0, 0.0) == 0.0
    sigma = [1, 2, 0, 4, 5, 3]
    dense = np.zeros((n, n))
    dense[np.arange(n), sigma] = 1.0
    p = np.random.default_rng(1).dirichlet(np.ones(n))
    got = O.adjoint_apply({"builtin": {"name": "permutation", "n": n, "sigma": sigma}}, p)
    assert np.array_equal(got, O.adjoint_apply({"matrix": dense.tolist()}, p))


# -- workloads at tiny size ----------------------------------------------

@pytest.mark.parametrize("name", W.WORKLOADS)
def test_workload_runs_and_checks_at_tiny_size(name, tmp_path):
    w = W.build(name, 5, str(tmp_path), tiny=True)
    outs, _ = run.run_pass(w.ops)
    failed, problems = W.check_all(w, outs)
    assert problems == []
    assert failed == (2 if name == "cli_corpus" else 0)
    again, _ = run.run_pass(w.ops)
    assert [W.fingerprint(o) for o in again] == [W.fingerprint(o) for o in outs]


def test_the_shape_of_a_workload_does_not_depend_on_the_seed(tmp_path):
    for name in W.WORKLOADS:
        a = W.build(name, 1, str(tmp_path / "a"), tiny=True)
        b = W.build(name, 2, str(tmp_path / "b"), tiny=True)
        assert [op.name for op in a.ops] == [op.name for op in b.ops]


def test_checks_catch_a_wrong_value():
    x = O.stream([1.0, -2.0], [0.5])
    crit = W.CRITERIA["quadratic"]
    good = O.criterion(crit)[1](x)
    assert W.value_problems("q", crit, x, good) == []
    assert W.value_problems("q", crit, x, good + 1e-6)
    assert W.value_problems("e", W.CRITERIA["edu"], x, O.dv_exact(x, 0.9) + 1e-9)


# -- tracer and metrics ----------------------------------------------------

def test_tracer_restores_the_program_and_counts_repeat(tmp_path):
    import tempora.discounting as D

    original = D.evaluate
    w = W.build("cli_corpus", 5, str(tmp_path), tiny=True)
    run.run_pass(w.ops)
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert D.evaluate is not original
            run.run_pass(w.ops)
        finally:
            tracer.uninstall()
        assert D.evaluate is original
        sp = tracer.arrays()
        assert (sp["parent"] < np.arange(sp["parent"].size)).all()
        assert (sp["end"] >= sp["start"]).all()
        m = spans.layer_metrics(sp)
        counts.append({k: v for k, (v, unit) in m.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main_calls"] == len(w.ops)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    empty = {k: np.zeros(0, dtype=t) for k, t in
             (("name", np.int32), ("parent", np.int32), ("start", float), ("end", float),
              ("count", float))}
    per_layer = set(spans.layer_metrics({"names": np.array([]), **empty}))
    per_layer |= {"trace.overhead_ratio", "setup.import_ms", "setup.import_ms.scipy",
                  "setup.import_ms.numpy", "setup.import_ms.tempora", "setup.inputs_ms"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert spec["paths"] == ["bench"]


def test_importtime_totals():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy",
        "import time:        30 |        150 |   tempora.eigen",
        "import time:        10 |        160 | tempora",
    ])
    got = spans.importtime_ms(text)
    assert got == {"total": pytest.approx(0.46), "numpy": pytest.approx(0.3),
                   "scipy": pytest.approx(0.12), "tempora": pytest.approx(0.04)}


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (40, 52, 107, 500):
        q = run.tail_percentile(n)
        assert n - math.ceil(q / 100 * n) >= 10
    assert run.tail_percentile(107) == 90.0
    assert run.nearest_rank(list(range(1, 101)), 90.0) == 90


def test_scaled_pass_and_fresh_start_carry_the_kernel(tmp_path):
    import calibrate

    w = W.build("cli_corpus", 5, str(tmp_path), tiny=True)
    outs, times, kernel = run.run_scaled_pass(w.ops)
    assert len(outs) == len(times) == len(kernel) == len(w.ops)
    assert all(k > 0 for k in kernel)
    assert [W.fingerprint(o) for o in outs] == [W.fingerprint(o) for o in run.run_pass(w.ops)[0]]
    assert calibrate.settled(3) > 0
    raw, scaled = run.timed_start("axiom_battery", 1)
    assert raw > 0 and scaled > 0
