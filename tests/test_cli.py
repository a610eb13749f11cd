import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tempora
from tempora import Criterion, Edu, cli
from tempora.axioms import AxiomReport, check_axiom, parse_axiom_id
from tempora.eigen import MAX_BUILTIN_DIM

from conftest import SATURATING


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "one": write(tmp_path / "one.json", {"prefix": [], "tail": {"constant": 1.0}}),
        "alt": write(tmp_path / "alt.json", {"prefix": [], "tail": {"periodic": [0.0, 1.0]}}),
        "probe": write(tmp_path / "probe.json",
                       {"prefix": [0.36, -0.84], "tail": {"constant": 0.16}}),
        "edu": write(tmp_path / "edu.json", {"edu": {"delta": 0.95}}),
        "inf": write(tmp_path / "inf.json", {"inf": {}}),
        "liminf": write(tmp_path / "liminf.json", {"liminf": {}}),
        "maxmin": write(tmp_path / "maxmin.json", {"maxmin": {"points": [0.3, 0.7]}}),
        "freecost": write(tmp_path / "freecost.json",
                          {"indicator": {"intervals": [[0.0, 0.99]]}}),
        "cyclic": write(tmp_path / "cyclic.json",
                        {"builtin": {"name": "cyclic_delay", "n": 8}}),
        "perm": write(tmp_path / "perm.json",
                      {"builtin": {"name": "permutation", "n": 5,
                                   "sigma": [1, 2, 0, 4, 3]}}),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with the imported ``tempora``'s tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(tempora.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# ---------------------------------------------------------------------------

def test_eval_constant_one_is_normalized(files, capsys):
    for crit in ("edu", "inf", "liminf", "maxmin"):
        code, out, _ = run(capsys, ["eval", "--stream", files["one"],
                                    "--criterion", files[crit]])
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_eval_json_mode(files, capsys):
    code, out, _ = run(capsys, ["eval", "--stream", files["alt"],
                                "--criterion", files["liminf"], "--json"])
    assert code == 0
    assert json.loads(out) == {"value": 0.0}


def test_compare_direction(files, capsys):
    code, out, _ = run(capsys, ["compare", "--a", files["one"],
                                "--b", files["alt"], "--criterion", files["inf"]])
    assert code == 0
    assert "a > b" in out
    code, out, _ = run(capsys, ["compare", "--a", files["alt"],
                                "--b", files["one"], "--criterion", files["inf"]])
    assert code == 0
    assert "b > a" in out and "a > b" not in out


def test_sweep_probe_argmin(files, capsys):
    code, out, _ = run(capsys, ["sweep", "--stream", files["probe"],
                                "--cost", files["freecost"], "--grid", "100"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,discounted,cost,total,is_argmin"
    assert len(lines) == 102  # header + 100 grid rows + argmin row
    final = lines[-1].split(",")
    assert final[-1] == "1"
    assert abs(float(final[0]) - 0.6) <= 1e-2
    assert float(final[3]) <= 1e-6


def test_axioms_json_deterministic_and_parseable(files, capsys):
    argv = ["axioms", "--criterion", files["edu"], "--trials", "40", "--seed", "42"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["unexpected_failures"] == []
    axiom_keys = [(r["axiom"], r["transform"]) for r in payload["reports"]]
    assert ("itis", "scale:2") in axiom_keys
    assert payload["seed"] == 42


def test_axioms_expected_failures_do_not_flip_exit_code(files, capsys):
    # the worst-period criterion is documented to break under doubling
    code, out, _ = run(capsys, ["axioms", "--criterion", files["inf"],
                                "--trials", "5", "--seed", "0",
                                "--axiom", "itis:scale:2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["violation"] is not None


def test_axioms_unexpected_failure_exits_one(files, capsys, monkeypatch):
    def broken(criterion, axiom, trials, seed, tol=1e-9, transform=None):
        return AxiomReport(axiom=axiom, trials=trials, passes=0,
                           violation={"gap": 1.0}, seed=seed, tol=tol,
                           transform=None)
    monkeypatch.setattr("tempora.axioms.check_axiom", broken)
    code, out, _ = run(capsys, ["axioms", "--criterion", files["edu"],
                                "--trials", "1", "--seed", "0",
                                "--axiom", "monotonicity"])
    assert code == 1
    assert json.loads(out)["unexpected_failures"] == ["monotonicity"]


def test_axioms_seed_env_fallback(files, capsys, monkeypatch):
    monkeypatch.setenv("TEMPORA_SEED", "7")
    code, out, _ = run(capsys, ["axioms", "--criterion", files["edu"],
                                "--trials", "2", "--axiom", "normalization"])
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_axioms_unknown_axiom_exits_two(files, capsys):
    code, _, err = run(capsys, ["axioms", "--criterion", files["edu"],
                                "--trials", "1", "--axiom", "nope"])
    assert code == 2
    assert "error" in err


def test_sweep_of_no_grid_nodes_exits_two(files, capsys):
    code, out, err = run(capsys, ["sweep", "--stream", files["probe"],
                                  "--cost", files["freecost"], "--grid", "0"])
    assert code == 2 and out == ""
    assert "--grid must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, grid, alphas", [("--grid", "0.5,x", "1"),
                                                ("--alphas", "0.5", "1,y")])
def test_recover_cost_with_a_word_in_a_list_exits_two(flag, grid, alphas, files, capsys):
    code, out, err = run(capsys, ["recover-cost", "--criterion", files["maxmin"],
                                  "--grid", grid, "--alphas", alphas])
    assert code == 2 and out == ""
    assert f"{flag} expects comma-separated numbers" in err and "Traceback" not in err


def test_recover_cost_csv(files, capsys):
    code, out, _ = run(capsys, ["recover-cost", "--criterion", files["maxmin"],
                                "--grid", "0.3,0.5", "--alphas", "1,10",
                                "--seed", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,cost_lower_bound"
    assert len(lines) == 3
    for line in lines[1:]:
        d, bound = line.split(",")
        assert 0.0 <= float(d) < 1.0
        assert float(bound) >= 0.0


def test_eigen_cyclic(files, capsys):
    code, out, _ = run(capsys, ["eigen", "--operator", files["cyclic"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == pytest.approx(1.0, abs=1e-12)
    assert payload["residual"] <= 1e-10
    assert all(abs(w - 0.125) <= 1e-12 for w in payload["p"])


def test_eigen_absorbing_delay_weights_the_present(files, tmp_path, capsys):
    # the file names the stream transformation; the solver reports the
    # invariant weighting of its adjoint
    op = write(tmp_path / "absorbing.json",
               {"builtin": {"name": "absorbing_delay", "n": 8}})
    code, out, _ = run(capsys, ["eigen", "--operator", op])
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == [1.0] + [0.0] * 7
    assert payload["lambda"] == 0.0


def test_eigen_permutation_with_cesaro(files, capsys):
    code, out, _ = run(capsys, ["eigen", "--operator", files["perm"], "--cesaro"])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-10


def test_counterexamples_ok(files, capsys):
    code, out, _ = run(capsys, ["counterexamples"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(": ok") for line in lines)


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, ["eval", "--stream", str(bad),
                                "--criterion", str(bad)])
    assert code == 2
    assert "line" in err


def test_unknown_field_exits_two(tmp_path, files, capsys):
    weird = write(tmp_path / "weird.json", {"no_such_criterion": {}})
    code, _, err = run(capsys, ["eval", "--stream", files["one"],
                                "--criterion", weird])
    assert code == 2
    assert "no_such_criterion" in err


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_missing_file_exits_two(files, capsys):
    code, _, err = run(capsys, ["eval", "--stream", "/nonexistent.json",
                                "--criterion", files["edu"]])
    assert code == 2


# ---------------------------------------------------------------------------
# malformed input: exit code 2 and an error line, never a traceback
# ---------------------------------------------------------------------------

MALFORMED_STREAMS = [
    {"prefix": ["a"], "tail": {"constant": 0}},
    {"tail": {"constant": None}},
    {"prefix": 5, "tail": {"constant": 0}},
    {"tail": {"periodic": "ab"}},
    {"prefix": [1.0], "tail": {"constant": 0.5, "periodic": [1, 2]}},   # two tags
]

MALFORMED_CRITERIA = [
    {"maxmin": {"points": "ab"}},
    {"maxmin": {"intervals": [[0.1]]}},
    {"maxmin": 5},
    {"variational": {"cost": {"tabulated": {"knots": [[0.1]]}}}},
    {"variational": {"cost": {"indicator": 3}}},
    {"edu": {"delta": 0.9}, "inf": {}},                                 # two tags
    # Finite, grounded knots whose slope (0 - 1e308) / 0.3 overflows to -inf.
    {"variational": {"cost": {"tabulated": {"knots": [[0.2, 1e308], [0.5, 0.0], [0.8, 2.0]]}}}},
]


def assert_parse_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("data", MALFORMED_STREAMS, ids=json.dumps)
def test_malformed_stream_exits_two(data, files, capsys):
    bad = write(files["tmp"] / "bad.json", data)
    assert_parse_error(*run(capsys, ["eval", "--stream", bad, "--criterion", files["edu"]]))


@pytest.mark.parametrize("data", MALFORMED_CRITERIA, ids=json.dumps)
def test_malformed_criterion_exits_two(data, files, capsys):
    bad = write(files["tmp"] / "bad.json", data)
    for argv in (["eval", "--stream", files["one"], "--criterion", bad],
                 ["axioms", "--criterion", bad, "--trials", "1"],
                 ["recover-cost", "--criterion", bad, "--grid", "0.5", "--alphas", "1"]):
        assert_parse_error(*run(capsys, argv))


def test_builtin_operator_over_the_bound_exits_two(files, capsys):
    op = write(files["tmp"] / "big.json",
               {"builtin": {"name": "cyclic_delay", "n": MAX_BUILTIN_DIM + 1}})
    assert_parse_error(*run(capsys, ["eigen", "--operator", op]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, reason", [
    ('{"builtin": {"name": "scaling", "n": 3, "factor": 1e400}}', "finite factor >= 0, got inf"),
    ('{"builtin": {"name": "scaling", "n": 2.5, "factor": 1.0}}', "integer, got 2.5"),
    ('{"builtin": {"name": "cyclic_delay", "n": true}}', "integer, got True"),
    ('{"matrix": [[1e308, 1e308], [1e308, 1e308]]}', "<1, M p> overflows"),
])
def test_operator_at_the_float_limit_exits_two(text, reason, files, capsys):
    op = files["tmp"] / "op.json"
    op.write_text(text)
    code, out, err = run(capsys, ["eigen", "--operator", str(op)])
    assert_parse_error(code, out, err)
    assert reason in err


def test_permutation_index_over_the_size_exits_two(files, capsys):
    op = write(files["tmp"] / "perm.json",
               {"builtin": {"name": "permutation", "n": 2, "sigma": [[0, 1000000000]]}})
    tracemalloc.start()
    try:
        result = run(capsys, ["eigen", "--operator", op])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_parse_error(*result)
    assert peak < 2 ** 20


def test_expected_pass_has_one_entry_per_criterion_tag():
    tags = [k.tag for k in typing.get_args(Criterion)]
    assert sorted(cli.EXPECTED_PASS) == sorted(tags) and len(set(tags)) == len(tags)


def test_expected_passes_are_battery_ids():
    # A mistyped id would turn an expected pass into an informative failure.
    for tag, ids in cli.EXPECTED_PASS.items():
        assert ids <= frozenset(cli.BATTERY), (tag, ids - frozenset(cli.BATTERY))


def test_battery_report_keys_parse_back():
    for axiom_id in cli.BATTERY:
        axiom, transform = parse_axiom_id(axiom_id)
        rep = check_axiom(Edu(0.9), axiom, trials=1, seed=0, transform=transform)
        assert rep.key == axiom_id
        axiom, transform = parse_axiom_id(rep.key)
        assert (axiom, transform and transform.label) == (rep.axiom, rep.transform)


@pytest.mark.parametrize("axiom_id", ["itis:scale:abc", "itis:permute:a,b", "itis:permute:",
                                      "itis:scale:inf", "itis:scale:nan", "itis:scale:1e400",
                                      "itis:scale:-1", "itis:permute:0,0"])
def test_malformed_transform_id_exits_two(axiom_id, files, capsys):
    code, out, err = run(capsys, ["axioms", "--criterion", files["edu"], "--trials", "1",
                                  "--axiom", axiom_id])
    assert_parse_error(code, out, err)
    assert repr(axiom_id.removeprefix("itis:")) in err.splitlines()[0]


def test_cli_import_loads_no_scipy():
    # Nor numpy, nor a module of the package but the CLI and its errors:
    # each command imports what it runs.
    code = "import sys, tempora.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert not [m for m in loaded if m.split(".")[0] in ("scipy", "numpy")]
    assert [m for m in loaded if m.split(".")[0] == "tempora"] == \
        ["tempora", "tempora.cli", "tempora.errors"]


def fresh_run(*argv):
    """(exit code, stdout, stderr, loaded modules) of ``tempora ARGV`` in a
    fresh interpreter, run as the console script runs it."""
    code = ("import sys\nfrom tempora.cli import main\ncode = main()\n"
            "print('\\n' + ' '.join(sorted(sys.modules)))\nsys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=src_env(),
                          capture_output=True, text=True)
    out, loaded = proc.stdout.rstrip("\n").rsplit("\n", 1)
    return proc.returncode, out, proc.stderr, set(loaded.split())


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2)])
def test_help_and_a_usage_error_load_no_numpy(argv, code):
    got, out, err, loaded = fresh_run(*argv)
    assert got == code
    assert "usage: tempora" in out + err and "Traceback" not in err
    assert "numpy" not in loaded


@pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
def test_stream_commands_load_no_harness_operators_or_panels(command, files):
    cost = write(files["tmp"] / "cost.json", {"quadratic": {"center": 0.9, "stiffness": 5}})
    argv = {"eval": ["--stream", files["probe"], "--criterion", files["maxmin"]],
            "compare": ["--a", files["probe"], "--b", files["alt"], "--criterion", files["edu"]],
            "sweep": ["--stream", files["probe"], "--cost", cost, "--grid", "3"]}[command]
    code, _, err, loaded = fresh_run(command, *argv)
    assert (code, err) == (0, "")
    assert "tempora.discounting" in loaded
    assert not loaded & {"tempora.axioms", "tempora.eigen", "tempora.panel", "statistics"}


def test_recover_cost_loads_the_panels_and_no_harness_or_operators(files):
    code, out, err, loaded = fresh_run("recover-cost", "--criterion", files["maxmin"],
                                       "--grid", "0.3,0.5", "--alphas", "1,10")
    assert (code, err) == (0, "") and out.startswith("delta,cost_lower_bound\n")
    assert "tempora.panel" in loaded
    assert not loaded & {"tempora.axioms", "tempora.eigen", "statistics"}


def test_a_printed_number_is_its_float_repr():
    inf = float("inf")
    assert [cli._fmt(v) for v in (-inf, inf, float("nan"), 0.1, -0.0, 1e308, 5e-324)] == \
        ["-inf", "inf", "nan", "0.1", "-0.0", "1e+308", "5e-324"]


def test_tail_mean_past_the_float_range_is_printed(tmp_path, capsys):
    # fsum of the cycle overflows; the mean itself is a float.
    big = write(tmp_path / "big.json", {"prefix": [], "tail": {"periodic": [1e308, 1.5e308]}})
    for criterion in ({"cesaro": {}}, {"banach_window": {}}):
        crit = write(tmp_path / "crit.json", criterion)
        code, out, err = run(capsys, ["eval", "--stream", big, "--criterion", crit])
        assert (code, out.strip(), err) == (0, "1.25e+308", "")
    x = tempora.make_stream([], tempora.Periodic((1e308, 1.5e308)))
    assert tempora.discounted_value(x, 1.0) == 1.25e308


def test_stdout_closed_early_exits_one_without_traceback(files):
    cost = write(files["tmp"] / "cost.json", {"quadratic": {"center": 0.9, "stiffness": 5}})
    with subprocess.Popen([sys.executable, "-m", "tempora", "sweep", "--stream", files["probe"],
                           "--cost", cost, "--grid", "100000"], env=src_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 1
    assert lines[0] == b"delta,discounted,cost,total,is_argmin\n"
    assert err == ""


# ---------------------------------------------------------------------------
# property: arbitrary JSON through every file-reading subcommand
# ---------------------------------------------------------------------------

_WIRE_KEYS = ["prefix", "tail", "constant", "periodic", "edu", "delta", "maxmin",
              "points", "intervals", "variational", "cost", "indicator", "point_costs",
              "quadratic", "center", "stiffness", "tabulated", "knots", "inf", "liminf",
              "banach_window", "cesaro", "builtin", "matrix", "name", "n", "sigma",
              "factor"]
_WORDS = ["cyclic_delay", "absorbing_delay", "permutation", "scaling", "a", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-2.0, 2.0)
    | st.sampled_from([0.0, 0.5, 0.95, 1.0, math.inf, -math.inf, math.nan])
    | st.sampled_from(_WORDS),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_WIRE_KEYS) | st.text(max_size=2),
                                     inner, max_size=3)),
    max_leaves=12)



def near(valid):
    """``valid`` with any of its parts (itself included) possibly swapped
    for arbitrary JSON; most parts are kept, so decoding gets deep."""
    if isinstance(valid, dict):
        kept = st.fixed_dictionaries({k: near(v) for k, v in valid.items()})
    elif isinstance(valid, list):
        kept = st.tuples(*map(near, valid)).map(list)
    else:
        kept = st.just(valid)
    return st.one_of(kept, kept, kept, json_values)


#: Valid files for every slot; the property perturbs one of them.
_VALID = {
    "stream": [{"prefix": [1.0, -0.5], "tail": {"constant": 0.25}},
               {"tail": {"periodic": [0.0, 1.0]}}],
    "criterion": [{"edu": {"delta": 0.9}},
                  {"maxmin": {"points": [0.3], "intervals": [[0.5, 0.7]]}},
                  {"variational": {"cost": {"indicator": {"points": [0.2],
                                                          "point_costs": [0.0]}}}},
                  {"variational": {"cost": {"quadratic": {"center": 0.5, "stiffness": 1.0}}}},
                  {"variational": {"cost": {"tabulated": {"knots": [[0.1, 1.0], [0.5, 0.0]]}}}},
                  {"inf": {}}, {"liminf": {}}, {"banach_window": {}}, {"cesaro": {}}],
    "cost": [{"indicator": {"points": [0.2], "intervals": [[0.4, 0.6]]}},
             {"quadratic": {"center": 0.5, "stiffness": 1.0}},
             {"tabulated": {"knots": [[0.1, 1.0], [0.5, 0.0]]}}],
    "operator": [{"builtin": {"name": "cyclic_delay", "n": 3}},
                 {"builtin": {"name": "permutation", "n": 3, "sigma": [1, 2, 0]}},
                 {"builtin": {"name": "scaling", "n": 2, "factor": 0.5}},
                 {"matrix": [[0.5, 0.5], [0.25, 0.75]]}],
}

_COMMANDS = {
    "eval": ["eval", "--stream", "stream", "--criterion", "criterion"],
    "compare": ["compare", "--a", "stream", "--b", "stream", "--criterion", "criterion"],
    "sweep": ["sweep", "--stream", "stream", "--cost", "cost", "--grid", "3"],
    "axioms": ["axioms", "--criterion", "criterion", "--trials", "1",
               "--axiom", "normalization"],
    "recover-cost": ["recover-cost", "--criterion", "criterion", "--grid", "0.5",
                     "--alphas", "1"],
    "eigen": ["eigen", "--operator", "operator"],
}


@pytest.fixture(scope="module")
def slot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("slots")


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=40, deadline=None)
@given(draw=st.data())
def test_arbitrary_json_never_escapes_main(command, slot_dir, draw):
    argv = list(_COMMANDS[command])
    slots = [i for i, a in enumerate(argv) if a in _VALID]
    bad = draw.draw(st.sampled_from(slots))
    for i in slots:
        kind = argv[i]
        payload = draw.draw(st.sampled_from(_VALID[kind]).flatmap(
            near if i == bad else st.just))
        path = slot_dir / f"{command}-{i}.json"
        path.write_text(json.dumps(payload))
        argv[i] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# property: eval at the float limits
# ---------------------------------------------------------------------------

#: Values at the float limits, the least subnormal, and ordinary ones.
LIMITS = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308, 5e-324, 1e-300, 1e154, -1e154]
limit_values = st.sampled_from(LIMITS) | st.floats(-1.0, 1.0)
#: Discount factors and cost knots: admissible ones and the values above.
factors = st.sampled_from([0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9] * 2 + LIMITS) | st.floats(0.0, 1.0)

limit_streams = st.fixed_dictionaries({
    "prefix": st.lists(limit_values, max_size=4),
    "tail": st.one_of(st.fixed_dictionaries({"constant": limit_values}),
                      st.fixed_dictionaries({"periodic": st.lists(limit_values, min_size=1,
                                                                  max_size=3)}))})
intervals = st.lists(st.lists(factors, min_size=2, max_size=2).map(sorted), max_size=2)
limit_costs = st.one_of(
    st.fixed_dictionaries({"quadratic": st.fixed_dictionaries(
        {"center": factors, "stiffness": limit_values})}),
    # knots sorted by factor, the last one at cost 0, as groundedness asks
    st.lists(st.tuples(factors, limit_values), min_size=1, max_size=3,
             unique_by=lambda kc: kc[0]).map(
        lambda ks: {"tabulated": {"knots": sorted([list(kc) for kc in ks[:-1]]
                                                  + [[ks[-1][0], 0.0]])}}),
    st.builds(lambda pts, ivs: {"indicator": {"points": [p for p, _ in pts],
                                              "point_costs": [k for _, k in pts],
                                              "intervals": ivs}},
              st.lists(st.tuples(factors, limit_values), max_size=2), intervals))
limit_criteria = st.one_of(
    st.fixed_dictionaries({"edu": st.fixed_dictionaries({"delta": factors})}),
    st.fixed_dictionaries({"maxmin": st.fixed_dictionaries(
        {"points": st.lists(factors, max_size=3), "intervals": intervals})}),
    limit_costs.map(lambda c: {"variational": {"cost": c}}),
    st.sampled_from([{"inf": {}}, {"liminf": {}}, {"banach_window": {}}, {"cesaro": {}}]))

#: The minimizer's grid on [0, 1 - 1e-9], whose nodes bound a quadratic
#: cost's share of the minimum from above.
LIMIT_GRID = np.linspace(0.0, 1.0 - 1e-9, 2001)


def run_at_the_limits(command, payloads, slot_dir, *extra):
    """(exit code, stdout) of ``command`` on files holding ``payloads``, one
    per flag, then the arguments ``extra``; it leaves no traceback and no
    numpy warning on stderr, and nothing at all there when it exits 0."""
    argv = [command]
    for flag, payload in payloads.items():
        path = slot_dir / f"limit{flag}.json"
        path.write_text(json.dumps(payload))
        argv += [flag, str(path)]
    argv += extra
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert code != 0 or err.getvalue() == ""
    assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue()


def assert_within_the_stream(value, stream, criterion):
    # Every criterion is normalized and monotone, so inf x <= I(x) <= sup x.
    # Up to rounding: 1e-12 of ||x||_inf, and a few subnormals.  A
    # quadratic cost's minimum lies in the stream's range, but the value
    # found may exceed it by the cost at the grid node next to the centre.
    x = tempora.stream_from_dict(stream)
    values = x.prefix + x.tail_cycle
    tol = 1e-12 * max(map(abs, values)) + 1e-320
    cost = criterion.get("variational", {}).get("cost", {}).get("quadratic")
    if cost is not None:
        tol += cost["stiffness"] * float(np.min(np.abs(LIMIT_GRID - cost["center"]))) ** 2
    assert min(values) - tol <= value <= max(values) + tol, (value, values)


@settings(max_examples=500, deadline=None)
@given(stream=limit_streams, criterion=limit_criteria)
def test_eval_at_the_float_limits_stays_within_the_stream(stream, criterion, slot_dir):
    code, out = run_at_the_limits("eval", {"--stream": stream, "--criterion": criterion},
                                  slot_dir)
    if code == 0:
        assert_within_the_stream(float(out), stream, criterion)


@settings(max_examples=150, deadline=None)
@given(a=limit_streams, b=limit_streams, criterion=limit_criteria)
def test_compare_at_the_float_limits_ranks_values_within_their_streams(a, b, criterion,
                                                                      slot_dir):
    code, out = run_at_the_limits("compare", {"--a": a, "--b": b, "--criterion": criterion},
                                  slot_dir)
    if code != 0:
        return
    lines = out.splitlines()
    assert [line[:4] for line in lines[:2]] == ["a = ", "b = "] and len(lines) == 3
    va, vb = float(lines[0][4:]), float(lines[1][4:])
    assert_within_the_stream(va, a, criterion)
    assert_within_the_stream(vb, b, criterion)
    assert lines[2] == ("a > b" if va > vb else "b > a" if vb > va else "a ~ b")


@settings(max_examples=200, deadline=None)
@given(stream=limit_streams, cost=limit_costs, grid=st.integers(1, 4))
@example(stream=SATURATING, cost={"tabulated": {"knots": [[0.2, 1.0], [0.5, 0.0], [0.8, 2.0]]}},
         grid=2)
def test_sweep_at_the_float_limits_prints_discounted_values_within_the_stream(stream, cost, grid,
                                                                             slot_dir):
    code, out = run_at_the_limits("sweep", {"--stream": stream, "--cost": cost}, slot_dir,
                                  "--grid", str(grid))
    assert code in (0, 2)
    if code != 0:
        return
    header, *rows = out.splitlines()
    assert header == "delta,discounted,cost,total,is_argmin" and len(rows) == grid + 1
    for row in rows:
        fields = row.split(",")
        assert "nan" not in fields, row
        assert_within_the_stream(float(fields[1]), stream, {})


def test_an_in_process_call_leaves_no_cycles_for_the_collector(files, capsys):
    # argparse links each call's parser, groups, actions and help formatters
    # in reference cycles (about 290 objects per call): main frees them
    # before the command runs.  A quadratic cost's pieces hold only numbers,
    # not the cost, so a cost is no cycle either.
    quad = write(files["tmp"] / "quad.json",
                 {"variational": {"cost": {"quadratic": {"center": 0.8, "stiffness": 3.0}}}})
    run(capsys, ["eval", "--stream", files["probe"], "--criterion", quad])
    gc.collect()
    gc.disable()
    try:
        for argv in (["eval", "--stream", files["probe"], "--criterion", quad],
                     ["eval", "--stream", files["alt"], "--criterion", files["maxmin"]],
                     ["counterexamples"]):
            assert run(capsys, argv)[0] == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = list(gc.garbage)
            gc.set_debug(0)
            gc.garbage.clear()
            assert left == [], (argv, sorted({type(o).__name__ for o in left}))
    finally:
        gc.enable()
