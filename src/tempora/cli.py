"""Command-line front end.

Subcommands: eval, compare, sweep, axioms, recover-cost, eigen,
counterexamples.  JSON in, CSV or JSON out; all outputs are deterministic
given the inputs and the seed (flag ``--seed`` or fallback environment
variable ``TEMPORA_SEED``).  Exit codes: 0 success, 1 property or
regression failure (or stdout closed early), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# Each command imports the modules it runs, so ``--help`` loads no numpy.
from .errors import (NoInvariantFound, NonConvergence, ParseError,
                     RegressionFailure, TemporaError)

#: Default axiom battery; itis is exercised with the doubling transform,
#: the canonical way to break criteria whose adjoint inflates total mass.
BATTERY: tuple[str, ...] = (
    "monotonicity", "icrp", "convexity", "isu", "iou", "lipschitz",
    "normalization", "idis", "itis:scale:2", "ifpis", "ipis", "patience",
    "time_invariance",
)

_UNIVERSAL = frozenset({"monotonicity", "icrp", "convexity", "lipschitz",
                        "normalization"})
_ALL_BATTERY = frozenset(BATTERY)

#: Axioms each criterion family is expected to satisfy on this stream
#: class; a reported violation of anything listed here is an unexpected
#: failure (exit code 1).  Failures outside the listed set are informative
#: only: they are the behaviors the family is known not to have.
EXPECTED_PASS: dict[str, frozenset[str]] = {
    "edu": _UNIVERSAL | {"isu", "iou", "idis", "itis:scale:2"},
    "maxmin": _UNIVERSAL | {"isu", "idis"},
    "variational": _UNIVERSAL | {"idis"},
    "inf": _UNIVERSAL | {"isu", "patience"},
    "liminf": _UNIVERSAL | {"isu", "patience", "time_invariance", "ifpis"},
    # The window and Cesaro criteria act linearly on eventually periodic
    # streams, so every battery axiom holds on this class.
    "banach_window": _ALL_BATTERY,
    "cesaro": _ALL_BATTERY,
}


def _seed(text: str) -> int:
    """``axioms --seed``, or its fallback ``TEMPORA_SEED``, as an integer."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r} (read from --seed, else from TEMPORA_SEED)") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempora",
        description="Evaluate and cross-validate intertemporal criteria.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="constant equivalent of a stream")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--stream", required=True, metavar="FILE")
    p.add_argument("--criterion", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compare", help="rank two streams under a criterion")
    p.set_defaults(run=_cmd_compare)
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--criterion", required=True, metavar="FILE")

    p = sub.add_parser("sweep", help="CSV of discounted value and cost over a factor grid")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--stream", required=True, metavar="FILE")
    p.add_argument("--cost", required=True, metavar="FILE")
    p.add_argument("--grid", required=True, type=int, metavar="N")

    p = sub.add_parser("axioms", help="run the axiom battery, JSON report")
    p.set_defaults(run=_cmd_axioms)
    p.add_argument("--criterion", required=True, metavar="FILE")
    p.add_argument("--trials", required=True, type=int, metavar="N")
    # argparse converts a string default as it converts the flag, so a
    # malformed TEMPORA_SEED is a usage error too.
    p.add_argument("--seed", type=_seed, default=os.environ.get("TEMPORA_SEED", "0"),
                   metavar="S")
    p.add_argument("--axiom", default=None, metavar="ID",
                   help="single axiom id, e.g. monotonicity or itis:scale:2")

    p = sub.add_parser("recover-cost", help="conjugate cost lower bounds, CSV")
    p.set_defaults(run=_cmd_recover_cost)
    p.add_argument("--criterion", required=True, metavar="FILE")
    p.add_argument("--grid", required=True, metavar="LIST",
                   help="comma-separated factors in [0, 1)")
    p.add_argument("--alphas", required=True, metavar="LIST",
                   help="comma-separated probe scales")
    p.add_argument("--seed", type=int, metavar="S",
                   help="accepted and ignored: the probe family draws no random streams")

    p = sub.add_parser("eigen", help="invariant discount vector of an operator")
    p.set_defaults(run=_cmd_eigen)
    p.add_argument("--operator", required=True, metavar="FILE")
    p.add_argument("--cesaro", action="store_true",
                   help="average iterates (for periodic operators)")

    p = sub.add_parser("counterexamples", help="replay the regression registry")
    p.set_defaults(run=_cmd_counterexamples)
    return parser


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(v: float) -> str:
    return repr(float(v))


def _cmd_eval(args) -> int:
    from . import discounting, jsonio
    stream = jsonio.stream_from_dict(jsonio.load_json_file(args.stream))
    criterion = jsonio.criterion_from_dict(jsonio.load_json_file(args.criterion))
    value = discounting.evaluate(criterion, stream)
    if args.json:
        _print_json({"value": value})
    else:
        print(value)
    return 0


def _cmd_compare(args) -> int:
    from . import discounting, jsonio
    a = jsonio.stream_from_dict(jsonio.load_json_file(args.a))
    b = jsonio.stream_from_dict(jsonio.load_json_file(args.b))
    criterion = jsonio.criterion_from_dict(jsonio.load_json_file(args.criterion))
    va, vb = discounting.evaluate(criterion, a), discounting.evaluate(criterion, b)
    print(f"a = {va}")
    print(f"b = {vb}")
    if va > vb:
        print("a > b")
    elif vb > va:
        print("b > a")
    else:
        print("a ~ b")
    return 0


def _cmd_sweep(args) -> int:
    from . import discounting, jsonio
    stream = jsonio.stream_from_dict(jsonio.load_json_file(args.stream))
    cost = jsonio.cost_from_dict(jsonio.load_json_file(args.cost))
    n = args.grid
    if n < 1:
        raise ParseError(f"--grid must be >= 1, got {n}")
    print("delta,discounted,cost,total,is_argmin")
    for i in range(n):
        d = i / n
        dv = discounting.discounted_value(stream, d)
        cv = discounting.cost_eval(cost, d)
        print(f"{_fmt(d)},{_fmt(dv)},{_fmt(cv)},{_fmt(dv + cv)},0")
    d_star, v_star = discounting.minimize_over_delta(stream, cost)
    dv = discounting.discounted_value(stream, d_star)
    print(f"{_fmt(d_star)},{_fmt(dv)},{_fmt(v_star - dv)},{_fmt(v_star)},1")
    return 0


def _cmd_axioms(args) -> int:
    from . import axioms, jsonio
    data = jsonio.load_json_file(args.criterion)
    criterion = jsonio.criterion_from_dict(data)
    plan = [axioms.parse_axiom_id(i) for i in (BATTERY if args.axiom is None else [args.axiom])]
    reports = [axioms.check_axiom(criterion, name, trials=args.trials, seed=args.seed,
                                  transform=transform)
               for name, transform in plan]
    expected = EXPECTED_PASS[criterion.tag]
    unexpected = [rep.key for rep in reports
                  if rep.violation is not None and rep.key in expected]
    _print_json({
        "criterion": data,
        "trials": args.trials,
        "seed": args.seed,
        "reports": [rep.to_dict() for rep in reports],
        "unexpected_failures": unexpected,
    })
    return 1 if unexpected else 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"{flag} expects comma-separated numbers: {exc}") from exc


def _cmd_recover_cost(args) -> int:
    from . import jsonio, panel
    criterion = jsonio.criterion_from_dict(jsonio.load_json_file(args.criterion))
    grid = _parse_float_list(args.grid, "--grid")
    alphas = _parse_float_list(args.alphas, "--alphas")
    table = panel.recover_cost(criterion, grid, probe_alphas=tuple(alphas))
    print("delta,cost_lower_bound")
    for d, bound in table:
        print(f"{_fmt(d)},{_fmt(bound)}")
    return 0


def _cmd_eigen(args) -> int:
    from . import eigen, jsonio
    # The file describes the stream-side transformation; the invariant
    # discount structure lives on the adjoint, which acts on weightings.
    operator = jsonio.operator_from_dict(jsonio.load_json_file(args.operator))
    result = eigen.invariant_structure(eigen.adjoint(operator), cesaro_averaging=args.cesaro)
    _print_json({
        "p": result.p.weights.tolist(),
        "lambda": result.eigenvalue,
        "residual": result.residual,
        "iters": result.iterations,
    })
    return 0


def _cmd_counterexamples(args) -> int:
    from . import axioms
    reports = axioms.run_counterexamples()
    for rep in reports:
        print(f"{rep.label}: ok")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        # argparse links a parser, its groups and actions, and the help
        # formatters it builds, in reference cycles: some 300 objects per
        # call.  Collecting the young generations here frees them now, while
        # they are young, instead of at a later full collection; an
        # in-process caller's memory stays flat.
        gc.collect(1)
    try:
        try:
            return args.run(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so the
        # interpreter's last flush cannot raise again (the SIGPIPE note in
        # Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RegressionFailure, NonConvergence, NoInvariantFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TemporaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
