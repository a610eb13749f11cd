import argparse
import contextlib
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tempora
from tempora import Criterion, Edu, cli
from tempora.axioms import AxiomReport, check_axiom, parse_axiom_id
from tempora.eigen import MAX_BUILTIN_DIM

from conftest import SATURATING, exact_dv, run_cli, spy


def write(path, payload):
    """Write ``payload`` to ``path``: text as it is, anything else as JSON."""
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


#: The input files every test can name: streams, criteria, costs and
#: operators, among them the criteria of the continuity scans (k, q, t, m, i
#: and the four patient ones).
FILES = {
    "one": {"prefix": [], "tail": {"constant": 1.0}},
    "alt": {"prefix": [], "tail": {"periodic": [0.0, 1.0]}},
    "probe": {"prefix": [0.36, -0.84], "tail": {"constant": 0.16}},
    "edu": {"edu": {"delta": 0.95}},
    "maxmin": {"maxmin": {"points": [0.3, 0.7]}},
    "freecost": {"indicator": {"intervals": [[0.0, 0.99]]}},
    "cyclic": {"builtin": {"name": "cyclic_delay", "n": 8}},
    "perm": {"builtin": {"name": "permutation", "n": 5, "sigma": [1, 2, 0, 4, 3]}},
    "k": {"edu": {"delta": 0.9}},
    "q": {"variational": {"cost": {"quadratic": {"center": 0.8, "stiffness": 3.0}}}},
    "t": {"variational": {"cost": {"tabulated": {"knots": [[0.2, 1.0], [0.5, 0.0],
                                                           [0.8, 2.0]]}}}},
    "m": {"maxmin": {"points": [0.0, 0.3], "intervals": [[0.4, 0.6]]}},
    "i": {"variational": {"cost": {"indicator": {"points": [0.0, 0.3, 0.9],
                                                 "point_costs": [0.5, 0.0, 0.1],
                                                 "intervals": [[0.5, 0.7]]}}}},
    "inf": {"inf": {}},
    "liminf": {"liminf": {}},
    "banachwindow": {"banach_window": {}},
    "cesaro": {"cesaro": {}},
}


@pytest.fixture
def files(tmp_path):
    return {name: write(tmp_path / f"{name}.json", payload)
            for name, payload in FILES.items()} | {"tmp": tmp_path}


def src_env():
    """The environment with the imported ``tempora``'s tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(tempora.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# ---------------------------------------------------------------------------

def test_eval_constant_one_is_normalized(files):
    for crit in ("edu", "inf", "liminf", "maxmin"):
        code, out, _ = run_cli(["eval", "--stream", files["one"], "--criterion", files[crit]])
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_eval_json_mode(files):
    code, out, _ = run_cli(["eval", "--stream", files["alt"],
                            "--criterion", files["liminf"], "--json"])
    assert code == 0
    assert json.loads(out) == {"value": 0.0}


def test_compare_direction(files):
    code, out, _ = run_cli(["compare", "--a", files["one"],
                            "--b", files["alt"], "--criterion", files["inf"]])
    assert code == 0
    assert "a > b" in out
    code, out, _ = run_cli(["compare", "--a", files["alt"],
                            "--b", files["one"], "--criterion", files["inf"]])
    assert code == 0
    assert "b > a" in out and "a > b" not in out


def test_sweep_probe_argmin(files):
    code, out, _ = run_cli(["sweep", "--stream", files["probe"],
                            "--cost", files["freecost"], "--grid", "100"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,discounted,cost,total,is_argmin"
    assert len(lines) == 102  # header + 100 grid rows + argmin row
    final = lines[-1].split(",")
    assert final[-1] == "1"
    assert abs(float(final[0]) - 0.6) <= 1e-2
    assert float(final[3]) <= 1e-6


def test_axioms_json_deterministic_and_parseable(files):
    argv = ["axioms", "--criterion", files["edu"], "--trials", "40", "--seed", "42"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["unexpected_failures"] == []
    axiom_keys = [(r["axiom"], r["transform"]) for r in payload["reports"]]
    assert ("itis", "scale:2") in axiom_keys
    assert payload["seed"] == 42


def test_axioms_expected_failures_do_not_flip_exit_code(files):
    # the worst-period criterion is documented to break under doubling
    code, out, _ = run_cli(["axioms", "--criterion", files["inf"],
                            "--trials", "5", "--seed", "0",
                            "--axiom", "itis:scale:2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["violation"] is not None


def test_axioms_unexpected_failure_exits_one(files, monkeypatch):
    def broken(criterion, axiom, trials, seed, tol=1e-9, transform=None):
        return AxiomReport(axiom=axiom, trials=trials, passes=0,
                           violation={"gap": 1.0}, seed=seed, tol=tol,
                           transform=None)
    monkeypatch.setattr("tempora.axioms.check_axiom", broken)
    code, out, _ = run_cli(["axioms", "--criterion", files["edu"],
                            "--trials", "1", "--seed", "0",
                            "--axiom", "monotonicity"])
    assert code == 1
    assert json.loads(out)["unexpected_failures"] == ["monotonicity"]


_SEED_ERROR = ("tempora axioms: error: argument --seed: invalid int value: 'abc' "
               "(read from --seed, else from TEMPORA_SEED)\n")


def test_axioms_seed_env_fallback(files, monkeypatch):
    # Read on every call, though the parser is built once per process: a
    # malformed value after good ones is the usage error a fresh parser
    # gives, and --seed wins over it.
    argv = ["axioms", "--criterion", files["edu"], "--trials", "1", "--axiom", "normalization"]
    for seed in (3, 4):
        monkeypatch.setenv("TEMPORA_SEED", str(seed))
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out)["seed"] == seed
    monkeypatch.setenv("TEMPORA_SEED", "abc")
    got = run_cli(argv)
    assert got == full_parser(argv)
    assert got[0] == 2 and got[2].startswith("usage: tempora axioms ")
    assert got[2].endswith(_SEED_ERROR)
    code, out, _ = run_cli([*argv, "--seed", "5"])
    assert code == 0 and json.loads(out)["seed"] == 5


def test_recover_cost_reads_no_seed_variable(files, monkeypatch):
    argv = ["recover-cost", "--criterion", files["maxmin"], "--grid", "0.3,0.5",
            "--alphas", "1,10"]
    monkeypatch.delenv("TEMPORA_SEED", raising=False)
    want = run_cli(argv)
    assert want[0] == 0
    monkeypatch.setenv("TEMPORA_SEED", "abc")
    assert run_cli(argv) == want
    assert run_cli([*argv, "--seed", "5"]) == want


def test_recover_cost_csv(files):
    code, out, _ = run_cli(["recover-cost", "--criterion", files["maxmin"],
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


def test_eigen_cyclic(files):
    code, out, _ = run_cli(["eigen", "--operator", files["cyclic"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == pytest.approx(1.0, abs=1e-12)
    assert payload["residual"] <= 1e-10
    assert all(abs(w - 0.125) <= 1e-12 for w in payload["p"])


def test_eigen_absorbing_delay_weights_the_present(files, tmp_path):
    # the file names the stream transformation; the solver reports the
    # invariant weighting of its adjoint
    op = write(tmp_path / "absorbing.json",
               {"builtin": {"name": "absorbing_delay", "n": 8}})
    code, out, _ = run_cli(["eigen", "--operator", op])
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == [1.0] + [0.0] * 7
    assert payload["lambda"] == 0.0


def test_eigen_permutation_with_cesaro(files):
    code, out, _ = run_cli(["eigen", "--operator", files["perm"], "--cesaro"])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-10


def test_counterexamples_ok(files):
    code, out, _ = run_cli(["counterexamples"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(": ok") for line in lines)


def test_permutation_index_over_the_size_exits_two(files):
    op = write(files["tmp"] / "perm.json",
               {"builtin": {"name": "permutation", "n": 2, "sigma": [[0, 1000000000]]}})
    tracemalloc.start()
    try:
        code, _, err = run_cli(["eigen", "--operator", op])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and err.startswith("error: ")
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# the CLI contract: each case's exit code and stderr, never a traceback
# ---------------------------------------------------------------------------

class Row(typing.NamedTuple):
    argv: list[str]
    code: int
    err: tuple[str, ...]
    files: dict
    env: dict


def row(argv, code, *err, files=None, env=None):
    """``tempora ARGV``, split as a shell splits it, exits ``code``; its
    stderr starts with ``err[0]`` and holds the rest of ``err``.  A word
    ``NAME.json`` is the file ``NAME`` of ``files`` or of ``FILES``, and
    ``env`` is set, with ``TEMPORA_SEED`` unset unless it names it."""
    return Row(shlex.split(argv), code, err, files or {}, env or {})


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

#: Operator files at the float limits, as text: JSON cannot write 1e400.
LIMIT_OPERATORS = [
    ('{"builtin": {"name": "scaling", "n": 3, "factor": 1e400}}', "finite factor >= 0, got inf"),
    ('{"builtin": {"name": "scaling", "n": 2.5, "factor": 1.0}}', "integer, got 2.5"),
    ('{"builtin": {"name": "cyclic_delay", "n": true}}', "integer, got True"),
    ('{"matrix": [[1e308, 1e308], [1e308, 1e308]]}', "<1, M p> overflows"),
]

# Bodies that float() or int() once read as numbers, so each exited 0: a
# string, a boolean, a fractional permutation index.
_STRING_STREAM = {"prefix": ["1.5"], "tail": {"constant": "2"}}
_BOOLEAN_STREAM = {"prefix": [True], "tail": {"constant": False}}
_STRING_QUADRATIC = {"variational": {"cost": {"quadratic": {"center": "0.5",
                                                             "stiffness": "3"}}}}
NOT_NUMBERS = [
    (_STRING_STREAM, {"edu": {"delta": "0.9"}}, "got '2'"),
    (_STRING_STREAM, {"edu": {"delta": 0.9}}, "got '2'"),
    ({"prefix": ["1.5"], "tail": {"constant": 2}}, {"edu": {"delta": 0.9}}, "got '1.5'"),
    ({"prefix": [1.5], "tail": {"constant": 2}}, {"edu": {"delta": "0.9"}}, "got '0.9'"),
    (_BOOLEAN_STREAM, _STRING_QUADRATIC, "got False"),
    ({"prefix": [1.0], "tail": {"periodic": [0.5, True]}}, {"edu": {"delta": 0.9}}, "got True"),
    ({"prefix": [1.0], "tail": {"constant": 0.0}}, _STRING_QUADRATIC, "got '0.5'"),
    ({"prefix": [1.0], "tail": {"constant": 0.0}},
     {"maxmin": {"points": [0.3], "intervals": [[0.4, True]]}}, "got True"),
]
NOT_NUMBER_OPERATORS = [
    ({"builtin": {"name": "permutation", "n": 2, "sigma": [1.5, 0.2]}}, "1.5 is not an integer"),
    ({"builtin": {"name": "permutation", "n": 2, "sigma": [[0.5, 1]]}}, "0.5 is not an integer"),
    ({"builtin": {"name": "permutation", "n": 2, "sigma": ["1", "0"]}}, "got '1'"),
    ({"builtin": {"name": "scaling", "n": 2, "factor": True}}, "got True"),
    ({"matrix": [["1", 0], [0, 1]]}, "got '1'"),
]

#: The continuity scans, as criterion file and harness seed.  Each scan
#: evaluates its 10^4 mixes as rows of values, and together they reach the
#: batch paths: at seed 0 every criterion family; at seeds 5 and 8 (edu and
#: quadratic) one masked row per periodic pair; at seed 1 (quadratic and
#: tabulated) the group pass and the lockstep lanes; at seeds 3 (quadratic)
#: and 2 (indicator) the most segments the curvature bound drops; and at
#: seeds 2 (maxmin) and 1 (indicator) scalar golden-section searches on rows.
SCANS = ("k:0 q:0 t:0 m:0 i:0 inf:0 liminf:0 banachwindow:0 cesaro:0 "
         "k:5 k:8 q:5 q:8 q:1 t:1 q:3 i:2 m:2 i:1").split()

_AXIOMS = "axioms --criterion edu.json --trials 1 --axiom"

#: The CLI contract: per test, its rows by parameter id (``None`` for a test
#: with no parameters).  Every row runs in process through ``run_cli``.
CONTRACT = {
    "test_malformed_stream_exits_two": {
        json.dumps(s): [row("eval --stream bad.json --criterion edu.json", 2, "error: ",
                            files={"bad": s})]
        for s in MALFORMED_STREAMS},
    "test_malformed_criterion_exits_two": {
        json.dumps(k): [row(argv, 2, "error: ", files={"bad": k}) for argv in (
            "eval --stream one.json --criterion bad.json",
            "axioms --criterion bad.json --trials 1",
            "recover-cost --criterion bad.json --grid 0.5 --alphas 1")]
        for k in MALFORMED_CRITERIA},
    # The variable once reached int() in the handler: a ValueError traceback
    # and exit 1.
    "test_axioms_under_a_malformed_seed_variable_is_a_usage_error": {None: [
        row(f"{_AXIOMS} monotonicity", 2, "usage: ", "invalid int value: 'abc'",
            env={"TEMPORA_SEED": "abc"})]},
    # The usage error once named only --seed, though the bad value came from
    # the variable.
    "test_a_malformed_seed_names_the_flag_and_the_variable": {None: [
        row(f"{_AXIOMS} monotonicity", 2, "usage: ", "TEMPORA_SEED", "--seed",
            env={"TEMPORA_SEED": "abc"}),
        row(f"{_AXIOMS} monotonicity --seed abc", 2, "usage: ", "invalid int value: 'abc'")]},
    "test_axioms_unknown_axiom_exits_two": {None: [
        row(f"{_AXIOMS} nope", 2, "error: unknown axiom 'nope'")]},
    "test_malformed_transform_id_exits_two": {
        axiom_id: [row(f"{_AXIOMS} {axiom_id}", 2,
                       f"error: malformed transform id {axiom_id.removeprefix('itis:')!r}")]
        for axiom_id in ["itis:scale:abc", "itis:permute:a,b", "itis:permute:",
                         "itis:scale:inf", "itis:scale:nan", "itis:scale:1e400",
                         "itis:scale:-1", "itis:permute:0,0"]},
    "test_sweep_of_no_grid_nodes_exits_two": {None: [
        row("sweep --stream probe.json --cost freecost.json --grid 0", 2, "error: ",
            "--grid must be >= 1")]},
    "test_recover_cost_with_a_word_in_a_list_exits_two": {
        f"{flag}-{grid}-{alphas}": [
            row(f"recover-cost --criterion maxmin.json --grid {grid} --alphas {alphas}", 2,
                "error: ", f"{flag} expects comma-separated numbers")]
        for flag, grid, alphas in [("--grid", "0.5,x", "1"), ("--alphas", "0.5", "1,y")]},
    # Before it exited 2, an empty grid printed the header alone and exited 0.
    "test_recover_cost_of_no_grid_factors_exits_two": {
        repr(grid): [row(f"recover-cost --criterion maxmin.json --grid '{grid}' --alphas 1", 2,
                         "error: --grid expects at least one factor")]
        for grid in ["", ",", " "]},
    # Before it exited 2, an empty --alphas printed a bound of 0.0 at every factor.
    "test_recover_cost_of_no_probe_scales_exits_two": {
        repr(alphas): [row(f"recover-cost --criterion maxmin.json --grid 0.5 --alphas '{alphas}'",
                           2, "error: --alphas expects at least one probe scale")]
        for alphas in ["", ",", " "]},
    "test_malformed_json_exits_two": {None: [
        row("eval --stream bad.json --criterion bad.json", 2, "error: ", "(line 1, column 3)",
            files={"bad": "{ not json"})]},
    "test_unknown_field_exits_two": {None: [
        row("eval --stream one.json --criterion weird.json", 2, "error: ", "no_such_criterion",
            files={"weird": {"no_such_criterion": {}}})]},
    "test_unknown_subcommand_exits_two": {None: [
        row("frobnicate", 2, "usage: ", "invalid choice: 'frobnicate'")]},
    "test_missing_file_exits_two": {None: [
        row("eval --stream /nonexistent.json --criterion edu.json", 2,
            "error: cannot read /nonexistent.json")]},
    "test_builtin_operator_over_the_bound_exits_two": {None: [
        row("eigen --operator big.json", 2, "error: ",
            files={"big": {"builtin": {"name": "cyclic_delay", "n": MAX_BUILTIN_DIM + 1}}})]},
    "test_operator_at_the_float_limit_exits_two": {
        f"{text}-{reason}": [row("eigen --operator op.json", 2, "error: ", reason,
                                 files={"op": text})]
        for text, reason in LIMIT_OPERATORS},
    "test_a_string_or_boolean_where_a_number_belongs_exits_two": {
        f"{stream}-{criterion}-{reason}": [
            row("eval --stream s.json --criterion k.json", 2, "error: ",
                f"expected a number, {reason}", files={"s": stream, "k": criterion})]
        for stream, criterion, reason in NOT_NUMBERS},
    "test_an_operator_body_takes_numbers_and_integral_indices_only": {
        f"{operator}-{reason}": [row("eigen --operator op.json", 2, "error: ", reason,
                                     files={"op": operator})]
        for operator, reason in NOT_NUMBER_OPERATORS},
    "test_a_continuity_scan_keeps_stderr_quiet": {
        scan: [row(f"axioms --criterion {scan.split(':')[0]}.json --trials 1 "
                   f"--seed {scan.split(':')[1]} --axiom continuity_segment", 0)]
        for scan in SCANS},
}


def check_rows(rows, files, monkeypatch):
    for r in rows:
        paths = {f"{name}.json": path for name, path in files.items()} | {
            f"{name}.json": write(files["tmp"] / f"{name}.json", payload)
            for name, payload in r.files.items()}
        argv = [paths.get(a, a) for a in r.argv]
        with monkeypatch.context() as m:
            m.delenv("TEMPORA_SEED", raising=False)
            for name, value in r.env.items():
                m.setenv(name, value)
            code, _, err = run_cli(argv)
        assert code == r.code, (argv, err)
        if r.err:
            assert err.startswith(r.err[0]) and all(s in err for s in r.err[1:]), (argv, err)


def contract_test(cases):
    """A test of ``cases``: one parameter per id, whose rows it checks."""
    if list(cases) == [None]:
        def test(files, monkeypatch):
            check_rows(cases[None], files, monkeypatch)
        return test

    @pytest.mark.parametrize("key", list(cases))
    def test(key, files, monkeypatch):
        check_rows(cases[key], files, monkeypatch)
    return test


# Each entry is a test of its own name, so every case keeps its test id.
for _name, _cases in CONTRACT.items():
    globals()[_name] = contract_test(_cases)


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



def test_cli_import_loads_no_scipy():
    # Nor numpy, nor a module of the package but the CLI and its errors:
    # each command imports what it runs.  Nor a test-only module, which the
    # tests' own imports would hide.
    code = "import sys, tempora.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert not [m for m in loaded
                if m.split(".")[0] in ("scipy", "numpy", "hypothesis", "pytest")]
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


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2), (["axioms", "-h"], 0)])
def test_help_and_a_usage_error_load_no_numpy(argv, code):
    got, out, err, loaded = fresh_run(*argv)
    assert got == code
    assert "usage: tempora" in out + err and "Traceback" not in err
    assert "numpy" not in loaded


_ALL_SEVEN = "{eval,compare,sweep,axioms,recover-cost,eigen,counterexamples}"

#: Help and usage errors, by their words past ``tempora``, each with a text
#: its stderr holds or None: ``main`` builds the parser of the command that
#: the first word names, or all seven.  The rows with ``_ALL_SEVEN`` fail at
#: the top level after a command, and their usage line lists all seven.
PARSER_ROWS = {
    "": "error: the following arguments are required: command",
    "frobnicate": "error: argument command: invalid choice: 'frobnicate'",
    **{words: None for words in ("-h", "--help", "-h eval", "--bogus",
                                 "axioms --criterion K --trials x",
                                 "sweep --stream S --cost C --grid q")},
    **{f"{name} -h": None for name in cli._COMMANDS},
    "eval --stream S --criterion K --bogus": _ALL_SEVEN,
    "eval --stream S --criterion K extra": _ALL_SEVEN,
    "counterexamples x": _ALL_SEVEN,
}


def full_parser(argv):
    """(exit code, stdout, stderr) of a freshly built parser of all seven
    commands, not the cached one ``main`` uses, on ``argv``, which it
    answers with help or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("words", list(PARSER_ROWS))
def test_main_prints_what_the_full_parser_prints(words):
    # Compared with the full parser, not with pinned text, since argparse's
    # wording and wrapping change between Python versions.
    argv = shlex.split(words)
    want = full_parser(argv)
    assert run_cli(argv) == want
    if PARSER_ROWS[words] is not None:
        assert want[2].startswith("usage: tempora [-h]") and PARSER_ROWS[words] in want[2]


@pytest.mark.parametrize("words, built", [("eval -h", 1), ("axioms --trials x", 1),
                                          ("--help", 7), ("frobnicate", 7)])
def test_main_adds_the_subparser_of_the_named_command_alone(words, built, monkeypatch):
    cli._build_parser.cache_clear()
    added = spy(monkeypatch, argparse._SubParsersAction, "add_parser")
    run_cli(shlex.split(words))
    assert len(added) == built
    run_cli(shlex.split(words))     # the parser is built once per process
    assert len(added) == built


def test_a_usage_error_leaves_the_cached_parser_as_it_was(files):
    good = ["eval", "--stream", files["probe"], "--criterion", files["edu"]]
    want = run_cli(good)
    bad = [*good, "--bogus"]
    assert run_cli(bad) == full_parser(bad)
    assert run_cli(good) == want


#: Stream commands by id: the words past ``tempora`` (``NAME.json`` names
#: a file of ``FILES``, or the quadratic ``cost.json``) and whether the
#: command works on arrays.  numpy and ``tempora.minimizer`` load together,
#: where a command searches over delta or takes D over many factors; a
#: closed-form criterion needs neither.
STREAM_COMMANDS = {
    "eval": ("eval --stream probe.json --criterion maxmin.json", True),
    "compare": ("compare --a probe.json --b alt.json --criterion edu.json", False),
    "sweep": ("sweep --stream probe.json --cost cost.json --grid 3", True),
    **{f"{name}-{k}": (f"{words} --criterion {k}.json", False)
       for name, words in (("eval", "eval --stream probe.json"),
                           ("eval_json", "eval --json --stream probe.json"),
                           ("compare", "compare --a probe.json --b alt.json"))
       for k in ("edu", "inf", "liminf", "banachwindow", "cesaro")},
}


@pytest.mark.parametrize("command", list(STREAM_COMMANDS))
def test_stream_commands_load_no_harness_operators_or_panels(command, files):
    cost = write(files["tmp"] / "cost.json", {"quadratic": {"center": 0.9, "stiffness": 5}})
    words, arrays = STREAM_COMMANDS[command]
    paths = {f"{name}.json": path for name, path in files.items()} | {"cost.json": cost}
    code, _, err, loaded = fresh_run(*[paths.get(w, w) for w in shlex.split(words)])
    assert (code, err) == (0, "")
    assert "tempora.discounting" in loaded
    assert not loaded & {"tempora.axioms", "tempora.eigen", "tempora.panel", "statistics"}
    assert ("numpy" in loaded, "tempora.minimizer" in loaded) == (arrays, arrays)


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


def test_tail_mean_past_the_float_range_is_printed(tmp_path):
    # fsum of the cycle overflows; the mean itself is a float.
    big = write(tmp_path / "big.json", {"prefix": [], "tail": {"periodic": [1e308, 1.5e308]}})
    for criterion in ({"cesaro": {}}, {"banach_window": {}}):
        crit = write(tmp_path / "crit.json", criterion)
        code, out, err = run_cli(["eval", "--stream", big, "--criterion", crit])
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
# sweep, a block of rows at a time
# ---------------------------------------------------------------------------

#: The probe stream and the float-limit streams of the workflow's `eval`
#: repros: low, cycle and high.
SWEEP_STREAMS = {
    "probe": {"prefix": [0.36, -0.84], "tail": {"constant": 0.16}},
    "low": {"prefix": [-1e154, -1.7e308, -1e308], "tail": {"constant": -1.7e308}},
    "cycle": {"prefix": [], "tail": {"periodic": [-1e308, -1e308, -0.6147]}},
    "high": {"prefix": [1e308, 1e308], "tail": {"constant": -1e308}},
}
SWEEP_COSTS = {
    "quadratic": {"quadratic": {"center": 0.9, "stiffness": 5}},
    "tabulated": {"tabulated": {"knots": [[0.2, 1.0], [0.5, 0.0], [0.8, 2.0]]}},
    "indicator": {"indicator": {"points": [0.0, 0.3, 0.9], "point_costs": [0.5, 0.0, 0.1],
                                "intervals": [[0.5, 0.7]]}},
}
B = cli._SWEEP_BLOCK


def sweep_rows(stream, cost, n):
    """The header and the grid rows of ``sweep --grid n``, one row at a time
    from ``discounted_value`` and ``cost_eval``."""
    x, c = tempora.stream_from_dict(stream), tempora.jsonio.cost_from_dict(cost)
    rows = ["delta,discounted,cost,total,is_argmin"]
    for i in range(n):
        d = i / n
        dv, cv = tempora.discounted_value(x, d), tempora.cost_eval(c, d)
        rows.append(f"{d!r},{dv!r},{cv!r},{dv + cv!r},0")
    return rows


@pytest.mark.parametrize("stream", sorted(SWEEP_STREAMS))
def test_sweep_rows_are_the_per_row_values_across_block_edges(stream, tmp_path):
    # Every grid row, and no row twice: at one row, either side of one
    # block's end, and one row into a third block.
    path = write(tmp_path / "stream.json", SWEEP_STREAMS[stream])
    for name, cost in SWEEP_COSTS.items():
        cost_path = write(tmp_path / f"{name}.json", cost)
        for n in (1, B - 1, B, B + 1, 2 * B + 1):
            code, out, err = run_cli(["sweep", "--stream", path, "--cost", cost_path,
                                      "--grid", str(n)])
            assert (code, err) == (0, "")
            *rows, argmin = out.splitlines()
            assert rows == sweep_rows(SWEEP_STREAMS[stream], cost, n), (name, n)
            assert argmin.endswith(",1"), (name, n)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_sweep_memory_does_not_grow_with_the_grid(files):
    # One block of rows is alive at a time: 300 times the rows add at most
    # 8 MB to the peak resident set (the whole grid as one block adds 96).
    cost = write(files["tmp"] / "cost.json", {"quadratic": {"center": 0.9, "stiffness": 5}})
    code = ("import runpy, sys\ntry:\n"
            "    runpy.run_module('tempora', run_name='__main__', alter_sys=True)\nfinally:\n"
            "    sys.stderr.write(next(line for line in open('/proc/self/status')\n"
            "                          if line.startswith('VmHWM:')))\n")

    def peak_mb(n):
        proc = subprocess.run([sys.executable, "-c", code, "sweep", "--stream", files["probe"],
                               "--cost", cost, "--grid", str(n)], env=src_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        kb, unit = proc.stderr.split()[1:]
        assert unit == "kB"
        return int(kb) / 1024

    small, large = peak_mb(10 ** 3), peak_mb(3 * 10 ** 5)
    assert large - small <= 8.0, (small, large)


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
    run_cli(argv)


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
    per flag, then the arguments ``extra``, held to the CLI contract."""
    argv = [command]
    for flag, payload in payloads.items():
        path = slot_dir / f"limit{flag}.json"
        path.write_text(json.dumps(payload))
        argv += [flag, str(path)]
    argv += extra
    return run_cli(argv)[:2]


def rounding_tol(x):
    """The rounding a value of the stream ``x`` may carry: 1e-12 of
    ||x||_inf, and a few subnormals."""
    return 1e-12 * max(map(abs, x.prefix + x.tail_cycle)) + 1e-320


def assert_within_the_stream(value, stream, criterion):
    # Every criterion is normalized and monotone, so inf x <= I(x) <= sup x,
    # up to rounding.  A quadratic cost's minimum lies in the stream's range,
    # but the value found may exceed it by the cost at the grid node next to
    # the centre.
    x = tempora.stream_from_dict(stream)
    values = x.prefix + x.tail_cycle
    tol = rounding_tol(x)
    cost = criterion.get("variational", {}).get("cost", {}).get("quadratic")
    if cost is not None:
        tol += cost["stiffness"] * float(np.min(np.abs(LIMIT_GRID - cost["center"]))) ** 2
    assert min(values) - tol <= value <= max(values) + tol, (value, values)


@settings(max_examples=500, deadline=None)
@given(stream=limit_streams, criterion=limit_criteria)
def test_eval_at_the_float_limits_stays_within_the_stream(stream, criterion, slot_dir):
    code, out = run_at_the_limits("eval", {"--stream": stream, "--criterion": criterion},
                                  slot_dir)
    if code != 0:
        return
    value = float(out)
    assert_within_the_stream(value, stream, criterion)
    # Over factors given as points, the value is the least D at any of them,
    # which the oracle takes in rationals.
    if "edu" in criterion:
        factors = [criterion["edu"]["delta"]]
    elif "maxmin" in criterion and not criterion["maxmin"]["intervals"]:
        factors = criterion["maxmin"]["points"]
    else:
        return
    x = tempora.stream_from_dict(stream)
    want = min(exact_dv(x, d) for d in factors)
    assert abs(Fraction(value) - want) <= rounding_tol(x), (value, float(want))


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


def test_an_in_process_call_leaves_no_cycles_for_the_collector(files):
    # Each command's parser is built, with argparse's reference cycles, by
    # its first call; a parse on the cached parser forms none.  A quadratic
    # cost's pieces hold only numbers, not the cost, so a cost is no cycle
    # either.
    quad = write(files["tmp"] / "quad.json",
                 {"variational": {"cost": {"quadratic": {"center": 0.8, "stiffness": 3.0}}}})
    argvs = (["eval", "--stream", files["probe"], "--criterion", quad],
             ["eval", "--stream", files["alt"], "--criterion", files["maxmin"]],
             ["counterexamples"])
    for argv in argvs:
        run_cli(argv)
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            assert run_cli(argv)[0] == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = list(gc.garbage)
            gc.set_debug(0)
            gc.garbage.clear()
            assert left == [], (argv, sorted({type(o).__name__ for o in left}))
    finally:
        gc.enable()
