"""Command-line front end.

Subcommands: eval, compare, sweep, axioms, recover-cost, eigen,
counterexamples.  JSON in, CSV or JSON out; all outputs are deterministic
given the inputs and the seed (flag ``--seed`` or fallback environment
variable ``TEMPORA_SEED``).  Exit codes: 0 success, 1 property or
regression failure (or stdout closed early), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

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


#: Grid rows that ``sweep`` computes and writes at a time, so its memory
#: stays bounded by one block whatever ``--grid`` is.
_SWEEP_BLOCK = 4096


class _FromEnv(str):
    """``axioms --seed``'s default: :func:`_seed` reads TEMPORA_SEED for it."""


def _seed(text: str) -> int:
    """``axioms --seed``, or its fallback ``TEMPORA_SEED``, as an integer."""
    text = os.environ.get("TEMPORA_SEED", text) if isinstance(text, _FromEnv) else text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r} (read from --seed, else from TEMPORA_SEED)") from None


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command named ``command``, or of all seven when it
    is None (for ``--help``, or a usage error before a command), built once."""
    parser = argparse.ArgumentParser(
        prog="tempora",
        description="Evaluate and cross-validate intertemporal criteria.")
    # With one command, the metavar argparse gives all seven, so a top-level
    # usage line still lists them.  None, argparse's default, for the full
    # parser: a metavar also renames the command in its "invalid choice" and
    # "required" errors.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_, run, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        add_arguments(p)
    return parser


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stream", required=True, metavar="FILE")
    p.add_argument("--criterion", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--criterion", required=True, metavar="FILE")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stream", required=True, metavar="FILE")
    p.add_argument("--cost", required=True, metavar="FILE")
    p.add_argument("--grid", required=True, type=int, metavar="N")


def _axioms_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criterion", required=True, metavar="FILE")
    p.add_argument("--trials", required=True, type=int, metavar="N")
    # argparse converts a string default as it converts the flag, on every
    # parse, so TEMPORA_SEED is read per call by the cached parser, and a
    # malformed value is a usage error, raised where a malformed --seed is.
    p.add_argument("--seed", type=_seed, default=_FromEnv("0"), metavar="S")
    p.add_argument("--axiom", default=None, metavar="ID",
                   help="single axiom id, e.g. monotonicity or itis:scale:2")


def _recover_cost_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criterion", required=True, metavar="FILE")
    p.add_argument("--grid", required=True, metavar="LIST",
                   help="comma-separated factors in [0, 1)")
    p.add_argument("--alphas", required=True, metavar="LIST",
                   help="comma-separated probe scales")
    p.add_argument("--seed", type=int, metavar="S",
                   help="accepted and ignored: the probe family draws no random streams")


def _eigen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operator", required=True, metavar="FILE")
    p.add_argument("--cesaro", action="store_true",
                   help="average iterates (for periodic operators)")


def _no_arguments(p: argparse.ArgumentParser) -> None:
    pass


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
    from . import discounting, jsonio, minimizer
    stream = jsonio.stream_from_dict(jsonio.load_json_file(args.stream))
    cost = jsonio.cost_from_dict(jsonio.load_json_file(args.cost))
    n = args.grid
    if n < 1:
        raise ParseError(f"--grid must be >= 1, got {n}")
    print("delta,discounted,cost,total,is_argmin")
    for lo in range(0, n, _SWEEP_BLOCK):
        ds = [i / n for i in range(lo, min(lo + _SWEEP_BLOCK, n))]
        dvs = minimizer.discounted_values(stream, ds).tolist()
        cvs = [discounting.cost_eval(cost, d) for d in ds]
        sys.stdout.write("".join([f"{d!r},{dv!r},{cv!r},{dv + cv!r},0\n"
                                  for d, dv, cv in zip(ds, dvs, cvs)]))
    d_star, v_star = minimizer.minimize_over_delta(stream, cost)
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


def _parse_float_list(text: str, flag: str, item: str) -> list[float]:
    """At least one number, comma-separated: an empty list is a usage error."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"{flag} expects comma-separated numbers: {exc}") from exc
    if not values:
        raise ParseError(f"{flag} expects at least one {item}")
    return values


def _cmd_recover_cost(args) -> int:
    from . import jsonio, panel
    criterion = jsonio.criterion_from_dict(jsonio.load_json_file(args.criterion))
    table = panel.recover_cost(criterion, _parse_float_list(args.grid, "--grid", "factor"),
                               _parse_float_list(args.alphas, "--alphas", "probe scale"))
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


#: The commands, in the order ``--help`` lists them: name -> (help line,
#: handler, a function that adds the command's arguments to its parser).
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int],
                           Callable[[argparse.ArgumentParser], None]]] = {
    "eval": ("constant equivalent of a stream", _cmd_eval, _eval_arguments),
    "compare": ("rank two streams under a criterion", _cmd_compare, _compare_arguments),
    "sweep": ("CSV of discounted value and cost over a factor grid", _cmd_sweep,
              _sweep_arguments),
    "axioms": ("run the axiom battery, JSON report", _cmd_axioms, _axioms_arguments),
    "recover-cost": ("conjugate cost lower bounds, CSV", _cmd_recover_cost,
                     _recover_cost_arguments),
    "eigen": ("invariant discount vector of an operator", _cmd_eigen, _eigen_arguments),
    "counterexamples": ("replay the regression registry", _cmd_counterexamples,
                        _no_arguments),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The parser of the named command alone: all seven take most of a short
    # command's time to build.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
