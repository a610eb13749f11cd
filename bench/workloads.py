"""Workload generators: seeded inputs, the operations that run on them,
and the checks their outputs must pass.

Each workload builds a fixed list of :class:`Op` in a fixed order.  Only
stream values, seeds and panel draws depend on ``--seed``; the shape of
the list (which commands, how many) never does, so every run attempts
whole rounds of the same operations.

* ``cli_corpus``    -- short CLI commands through ``tempora.cli.main``;
* ``axiom_battery`` -- the default ``axioms`` battery per criterion family.

Checks compare against :mod:`oracles` or against properties the method
must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as O

WORKLOADS = ("cli_corpus", "axiom_battery")

#: Criteria shared by the workloads: all seven tags, all three cost shapes.
CRITERIA = {
    "edu": {"edu": {"delta": 0.9}},
    "maxmin": {"maxmin": {"points": [0.3, 0.7], "intervals": [[0.4, 0.6]]}},
    "quadratic": {"variational": {"cost": {"quadratic": {"center": 0.8, "stiffness": 3.0}}}},
    "tabulated": {"variational": {"cost": {"tabulated": {
        "knots": [[0.2, 1.0], [0.5, 0.0], [0.8, 2.0]]}}}},
    "indicator": {"variational": {"cost": {"indicator": {
        "points": [0.3], "intervals": [[0.5, 0.7]], "point_costs": [0.0]}}}},
    "inf": {"inf": {}},
    "liminf": {"liminf": {}},
    "banach_window": {"banach_window": {}},
    "cesaro": {"cesaro": {}},
}
#: Panel-style cost: expert factors as indicator points with confidences.
PANEL_STYLE = {"variational": {"cost": {"indicator": {
    "points": [0.9, 0.95, 0.97], "point_costs": [0.2, 0.0, 0.1]}}}}
COSTS = {k: CRITERIA[k]["variational"]["cost"] for k in ("quadratic", "tabulated", "indicator")}
PATIENT = ("inf", "liminf", "banach_window", "cesaro")

#: The two malformed inputs the README promises exit code 2 for.
BAD_STREAM = {"prefix": ["a"], "tail": {"constant": 0}}
BAD_CRITERION = {"maxmin": {"points": "ab"}}

SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}
TOL_EXACT = 1e-12
TOL_MIN = 1e-9


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check`` sees its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]] = lambda out: []
    expect_code: int = 0


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    tb: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    #: Fresh-start times (s), each as measured and at the reference speed,
    #: and the first, untimed pass's wall time (s).
    setup: list[tuple[float, float]] = field(default_factory=list)
    warm_s: float = 0.0


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([SALT[workload], int(seed) % 2 ** 63])


def draw_stream(rng: np.random.Generator, min_prefix: int = 0, max_prefix: int = 12,
                max_period: int = 4, lo: float = -5.0, hi: float = 5.0) -> dict:
    """A stream JSON drawn like ``tempora.axioms.random_stream``."""
    n = int(rng.integers(min_prefix, max_prefix + 1))
    prefix = [float(v) for v in rng.uniform(lo, hi, n)]
    if rng.random() < 0.5:
        return {"prefix": prefix, "tail": {"constant": float(rng.uniform(lo, hi))}}
    p = int(rng.integers(1, max_period + 1))
    return {"prefix": prefix, "tail": {"periodic": [float(v) for v in rng.uniform(lo, hi, p)]}}


def succeeded(op: Op, out) -> bool:
    """Whether the operation met its contract (failed ones are counted)."""
    if isinstance(out, CliResult):
        return out.code == op.expect_code and out.tb is None
    return not isinstance(out, BaseException)


# ---------------------------------------------------------------------------
# the CLI, in process
# ---------------------------------------------------------------------------

def cli_call(argv: list[str]) -> CliResult:
    """``tempora.cli.main(argv)`` with stdout and stderr captured.

    An exception escaping ``main`` is what ``python -m tempora`` would
    print as a traceback before exiting 1, so it is recorded as that.
    ``main`` is looked up on every call so that a tracer can wrap it.
    """
    from tempora import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - the caller reports it as exit 1
            return CliResult(1, out.getvalue(), err.getvalue(), traceback.format_exc())
    return CliResult(code, out.getvalue(), err.getvalue())


class Files:
    """Input files of one workload, written once under ``workdir``."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.data: dict[str, Any] = {}
        os.makedirs(workdir, exist_ok=True)

    def put(self, name: str, payload) -> str:
        path = os.path.join(self.workdir, name + ".json")
        if name not in self.data:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            self.data[name] = payload
        return path


def _close(v: float, want: float, tol: float) -> bool:
    return abs(v - want) <= tol * max(1.0, abs(want))


def value_problems(label: str, crit: dict, x, v: float) -> list[str]:
    """Check one criterion value against the oracles: closed forms to
    1e-12, minima to 1e-9 of the exact critical-point oracle."""
    family, oracle = O.criterion(crit)
    if family == "edu":
        want, tol = O.dv_exact(x, crit["edu"]["delta"]), TOL_EXACT
    else:
        want, tol = oracle(x), TOL_EXACT if family == "patient" else TOL_MIN
    if not _close(v, want, tol):
        return [f"{label}: value {v!r} != oracle {want!r}"]
    return []


def _num(tok: str) -> float:
    return math.inf if tok == "inf" else float(tok)


# ---------------------------------------------------------------------------
# cli_corpus
# ---------------------------------------------------------------------------

def _check_eval(label, crit, x, as_json):
    def check(r: CliResult) -> list[str]:
        v = json.loads(r.out)["value"] if as_json else float(r.out)
        return value_problems(label, crit, x, v)
    return check


def _check_compare(label, crit, xa, xb):
    def check(r: CliResult) -> list[str]:
        lines = r.out.splitlines()
        va, vb = float(lines[0].split(" = ")[1]), float(lines[1].split(" = ")[1])
        probs = (value_problems(label + "/a", crit, xa, va)
                 + value_problems(label + "/b", crit, xb, vb))
        want = "a > b" if va > vb else "b > a" if vb > va else "a ~ b"
        if lines[2:] != [want]:
            probs.append(f"{label}: verdict {lines[2:]} for a={va!r}, b={vb!r}")
        return probs
    return check


def _check_sweep(label, cost_json, x, n):
    cost = O.Cost(cost_json)
    (tag, body), = cost_json.items()

    def check(r: CliResult) -> list[str]:
        lines = r.out.splitlines()
        if lines[0] != "delta,discounted,cost,total,is_argmin" or len(lines) != n + 2:
            return [f"{label}: expected a header and {n + 1} rows, got {len(lines)} lines"]
        rows = [[_num(t) for t in line.split(",")] for line in lines[1:]]
        probs = []
        for i, (d, dv, cv, tot, flag) in enumerate(rows[:-1]):
            if d != i / n or flag != 0:
                probs.append(f"{label}: row {i} has delta {d!r}, flag {flag!r}")
            elif not _close(dv, O.dv_fsum(x, d), TOL_EXACT):
                probs.append(f"{label}: row {i} discounted {dv!r} != oracle")
            elif cv != cost(d) and not _close(cv, cost(d), TOL_EXACT):
                probs.append(f"{label}: row {i} cost {cv!r} != oracle {cost(d)!r}")
        d, dv, cv, tot, flag = rows[-1]
        if flag != 1:
            probs.append(f"{label}: last row is not flagged as the argmin")
        if tot > min(row[3] for row in rows[:-1]) + TOL_EXACT:
            probs.append(f"{label}: argmin total {tot!r} is worse than a grid row")
        if not _close(dv, O.dv_fsum(x, d), TOL_EXACT):
            probs.append(f"{label}: argmin discounted {dv!r} != oracle")
        want = O.exact_min(x, cost)
        if not _close(tot, want, TOL_MIN):
            probs.append(f"{label}: argmin total {tot!r} != critical-point oracle {want!r}")
        return probs
    return check


def _check_single_axiom(label, trials):
    def check(r: CliResult) -> list[str]:
        (rep,) = json.loads(r.out)["reports"]
        if rep["passes"] != trials or rep["violation"] is not None:
            return [f"{label}: {rep['passes']}/{trials} passed, violation {rep['violation']}"]
        return []
    return check


def _check_recover(label, crit_key, grid):
    crit = CRITERIA[crit_key]

    def check(r: CliResult) -> list[str]:
        lines = r.out.splitlines()
        if lines[0] != "delta,cost_lower_bound" or len(lines) != len(grid) + 1:
            return [f"{label}: malformed table {lines[:2]}"]
        probs = []
        for line, d in zip(lines[1:], grid):
            dd, bound = (_num(t) for t in line.split(","))
            if dd != d:
                probs.append(f"{label}: grid {dd!r} != {d!r}")
            elif crit_key == "inf":
                # inf x <= D_delta(x) with equality on constants: the
                # conjugate cost is exactly 0.
                if bound != 0.0:
                    probs.append(f"{label}: bound {bound!r} at {d} != 0")
            elif crit_key in PATIENT:
                # The spike (-100, 0, 0, ...) alone certifies (1 - delta) * 100.
                if bound < (1.0 - d) * 100.0 - TOL_MIN:
                    probs.append(f"{label}: bound {bound!r} at {d} < (1-d)*100")
            else:
                known = O.Cost(crit["variational"]["cost"])(d)
                if bound > known + TOL_MIN:
                    probs.append(f"{label}: bound {bound!r} at {d} exceeds cost {known!r}")
        return probs
    return check


def check_eigen(label: str, op: dict, p: np.ndarray, lam: float) -> list[str]:
    probs = []
    if (p < 0).any() or abs(p.sum() - 1.0) > TOL_EXACT:
        probs.append(f"{label}: p is not on the simplex (sum {p.sum()!r})")
    res = O.eigen_residual(op, p, lam)
    if res > 1e-9:
        probs.append(f"{label}: recomputed residual {res!r} > 1e-9")
    (tag, body), = op.items()
    name = body.get("name") if tag == "builtin" else "matrix"
    if name == "cyclic_delay":
        if np.abs(p - 1.0 / p.size).max() > TOL_EXACT or abs(lam - 1.0) > TOL_EXACT:
            probs.append(f"{label}: cyclic delay must give the uniform vector, lambda 1")
    elif name == "absorbing_delay":
        if p[0] != 1.0 or lam != 0.0:
            probs.append(f"{label}: absorbing delay must give e_0 with lambda 0, "
                         f"got p_0={p[0]!r}, lambda={lam!r}")
    elif name == "scaling" and abs(lam - float(body["factor"])) > TOL_EXACT:
        probs.append(f"{label}: scaling eigenvalue {lam!r} != factor")
    return probs


def _check_eigen_cli(label, op):
    def check(r: CliResult) -> list[str]:
        out = json.loads(r.out)
        return check_eigen(label, op, np.asarray(out["p"], dtype=float), out["lambda"])
    return check


_REGISTRY = ("inf-doubled-improvement", "liminf-pairwise-swap",
             "maxmin-zero-factor-tie", "patient-cost-blowup")


def _check_counterexamples(r: CliResult) -> list[str]:
    if r.out.splitlines() != [f"{label}: ok" for label in _REGISTRY]:
        return [f"counterexamples: unexpected output {r.out!r}"]
    return []


def build_cli_corpus(seed: int, workdir: str, tiny: bool = False) -> Workload:
    rng = rng_for("cli_corpus", seed)
    f = Files(workdir)
    w = Workload("cli_corpus", seed)
    n_streams, sweep_n = (4, 40) if tiny else (8, 1000)
    # The random streams have a nonempty prefix and the last stream is the
    # constant 1: the flat objective of a constant stream costs the grid
    # minimiser over ten times a random one, so it is in every corpus
    # exactly once rather than in one corpus out of four, by the luck of
    # the seed.
    streams = [draw_stream(rng, min_prefix=1) for _ in range(n_streams - 1)]
    streams.append({"prefix": [], "tail": {"constant": 1.0}})
    sub_seed = int(rng.integers(0, 2 ** 31))
    xs = [O.from_json(s) for s in streams]
    paths = [f.put(f"stream{j}", s) for j, s in enumerate(streams)]
    crit_paths = {k: f.put(k, c) for k, c in CRITERIA.items()}

    def cli(name, argv, check=lambda r: [], expect_code=0):
        w.ops.append(Op(name, lambda: cli_call(argv), check, expect_code))

    for key, crit in CRITERIA.items():
        for j, (path, x) in enumerate(zip(paths, xs)):
            as_json = j % 2 == 1
            argv = ["eval", "--stream", path, "--criterion", crit_paths[key]]
            cli(f"eval/{key}/s{j}", argv + ["--json"] * as_json,
                _check_eval(f"eval/{key}/s{j}", crit, x, as_json))
        for j in range(0, n_streams, 4):
            cli(f"compare/{key}/s{j}", ["compare", "--a", paths[j], "--b", paths[j + 1],
                                        "--criterion", crit_paths[key]],
                _check_compare(f"compare/{key}/s{j}", crit, xs[j], xs[j + 1]))
    for key, cost in COSTS.items():
        cli(f"sweep/{key}", ["sweep", "--stream", paths[0], "--cost", f.put("cost_" + key, cost),
                             "--grid", str(sweep_n)],
            _check_sweep(f"sweep/{key}", cost, xs[0], sweep_n))
    for key, axiom in (("edu", "monotonicity"), ("cesaro", "itis:delay")):
        cli(f"axioms/{key}/{axiom}", ["axioms", "--criterion", crit_paths[key], "--trials", "20",
                                      "--seed", str(sub_seed), "--axiom", axiom],
            _check_single_axiom(f"axioms/{key}/{axiom}", 20))
    grid = [0.3, 0.5, 0.7]
    for key in ("quadratic", "tabulated") + PATIENT:
        cli(f"recover-cost/{key}", ["recover-cost", "--criterion", crit_paths[key],
                                    "--grid", ",".join(map(str, grid)),
                                    "--alphas", "1,10,100000", "--seed", str(sub_seed)],
            _check_recover(f"recover-cost/{key}", key, grid))
    dense = np.round(rng.uniform(0.1, 1.0, (5, 5)), 6).tolist()
    operators = {
        "cyclic_delay": {"builtin": {"name": "cyclic_delay", "n": 8}},
        "absorbing_delay": {"builtin": {"name": "absorbing_delay", "n": 8}},
        "permutation": {"builtin": {"name": "permutation", "n": 5, "sigma": [1, 2, 0, 4, 3]}},
        "scaling": {"builtin": {"name": "scaling", "n": 4, "factor": 0.5}},
        "dense": {"matrix": dense},
    }
    for key, op in operators.items():
        cli(f"eigen/{key}", ["eigen", "--operator", f.put("op_" + key, op)]
            + ["--cesaro"] * (key == "permutation"), _check_eigen_cli(f"eigen/{key}", op))
    cli("counterexamples", ["counterexamples"], _check_counterexamples)
    # Both must exit 2 without a traceback; today they raise ValueError.
    cli("malformed/stream", ["eval", "--stream", f.put("bad_stream", BAD_STREAM),
                             "--criterion", crit_paths["edu"]], expect_code=2)
    cli("malformed/criterion", ["eval", "--stream", paths[0],
                                "--criterion", f.put("bad_criterion", BAD_CRITERION)],
        expect_code=2)
    return w


# ---------------------------------------------------------------------------
# axiom_battery
# ---------------------------------------------------------------------------

BATTERY_CRITERIA = {k: CRITERIA[k] for k in (
    "edu", "maxmin", "quadratic", "tabulated", "indicator")}
BATTERY_CRITERIA["panel_style"] = PANEL_STYLE
BATTERY_CRITERIA.update({k: CRITERIA[k] for k in PATIENT})
BATTERY_SIZE = 13


def certificate_gap(crit: dict, rep: dict) -> float:
    """Recompute a violation's gap with the oracles alone."""
    _, ev = O.criterion(crit)
    cert = rep["violation"]
    get = lambda key: O.from_json(cert[key])
    ax = rep["axiom"]
    if ax == "monotonicity":
        return ev(get("y")) - ev(get("x"))
    if ax == "icrp":
        x = get("x")
        return abs(ev(O.scale(x, 1.0, cert["theta"])) - ev(x) - cert["theta"])
    if ax == "convexity":
        x, y, lam = get("x"), get("y"), cert["lam"]
        return min(ev(x), ev(y)) - ev(O.add(O.scale(x, lam), O.scale(y, 1.0 - lam)))
    if ax == "isu":
        x = get("x")
        return abs(ev(O.scale(x, cert["a"])) - cert["a"] * ev(x))
    if ax == "iou":
        return abs(ev(O.add(get("x"), get("z"))) - ev(O.add(get("y"), get("z"))))
    if ax == "lipschitz":
        x, y = get("x"), get("y")
        return abs(ev(x) - ev(y)) - O.sup_distance(x, y)
    if ax == "normalization":
        return abs(ev(O.stream([], [1.0])) - 1.0)
    if ax in ("idis", "itis", "ifpis", "ipis"):
        x, d = get("x"), get("d")
        if ax == "idis":
            moved = O.delay(d)
        elif ax == "itis":
            moved = O.scale(d, float(rep["transform"].split(":")[1]))
        elif ax == "ifpis":
            moved = O.permute(d, cert["sigma"])
        else:
            moved = O.pairwise_swap(d)
        return ev(x) - ev(O.add(x, moved))
    if ax == "patience":
        x = get("x")
        return abs(ev(O.permute(x, cert["sigma"])) - ev(x))
    if ax == "time_invariance":
        x = get("x")
        return abs(ev(O.shift_left(x)) - ev(x))
    raise ValueError(f"no independent replay for axiom {ax!r}")


def _tol_of(rep: dict) -> float:
    if rep["axiom"] == "isu":
        return rep["tol"] * (1.0 + rep["violation"]["a"])
    return rep["tol"]


def _check_battery(label, key, crit, trials, seed):
    def check(r: CliResult) -> list[str]:
        out = json.loads(r.out)
        probs = []
        if out["criterion"] != crit or out["trials"] != trials or out["seed"] != seed:
            probs.append(f"{label}: header does not echo the command")
        if len(out["reports"]) != BATTERY_SIZE or out["unexpected_failures"]:
            probs.append(f"{label}: {len(out['reports'])} reports, "
                         f"unexpected {out['unexpected_failures']}")
        violated = set()
        for rep in out["reports"]:
            name = rep["axiom"] if rep["transform"] is None else f"{rep['axiom']}:{rep['transform']}"
            if rep["violation"] is None:
                if rep["passes"] != trials:
                    probs.append(f"{label}/{name}: {rep['passes']}/{trials} without a violation")
                continue
            violated.add(name)
            gap = certificate_gap(crit, rep)
            if not gap > _tol_of(rep):
                probs.append(f"{label}/{name}: certificate re-evaluates to gap {gap!r}")
        must = {"inf": "itis:scale:2", "liminf": "ipis"}.get(key)
        if must and must not in violated:
            probs.append(f"{label}: expected the documented {must} violation")
        return probs
    return check


#: Harness seeds of the battery.  They are fixed, not drawn from --seed:
#: the harness draws its own streams, and one draw in 26 is a constant
#: stream whose flat objective costs the grid minimiser over ten times a
#: random one, so seeded harness seeds made the battery's cost a property
#: of the seed (ops_per_s spread 28% IQR over five seeds).  Normalization's
#: constant stream keeps the flat case in every battery.
BATTERY_SEEDS = (0, 1, 2, 3)


def build_axiom_battery(seed: int, workdir: str, tiny: bool = False) -> Workload:
    f = Files(workdir)
    w = Workload("axiom_battery", seed)
    seeds, trials = (BATTERY_SEEDS[:1], 1) if tiny else (BATTERY_SEEDS, 2)
    paths = {k: f.put(k, c) for k, c in BATTERY_CRITERIA.items()}
    for s in seeds:
        for key, crit in BATTERY_CRITERIA.items():
            argv = ["axioms", "--criterion", paths[key], "--trials", str(trials),
                    "--seed", str(s)]
            label = f"battery/{key}/{s}"
            w.ops.append(Op(label, lambda argv=argv: cli_call(argv),
                            _check_battery(label, key, crit, trials, s)))
    for key in ("cesaro",) if tiny else ("edu", "quadratic", "cesaro"):
        argv = ["axioms", "--criterion", paths[key], "--trials", "1", "--seed", str(seeds[0]),
                "--axiom", "continuity_segment"]
        label = f"continuity_segment/{key}"
        w.ops.append(Op(label, lambda argv=argv: cli_call(argv), _check_single_axiom(label, 1)))
    return w


BUILDERS = {
    "cli_corpus": build_cli_corpus,
    "axiom_battery": build_axiom_battery,
}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    return BUILDERS[workload](seed, workdir, tiny)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def fingerprint(obj) -> str:
    """Exact text of an output, for digests and pass-to-pass comparison."""
    if isinstance(obj, CliResult):
        return f"{obj.code}\n{obj.out}"
    return f"raised {type(obj).__name__}: {obj}"


def digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def check_all(w: Workload, outs: list) -> tuple[int, list[str]]:
    """(failed operations, problems in the outputs of those that succeeded)."""
    failed, probs = 0, []
    for op, out in zip(w.ops, outs):
        if not succeeded(op, out):
            failed += 1
            continue
        try:
            probs += op.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            probs.append(f"{op.name}: output does not parse ({exc!r})")
    return failed, probs

