import contextlib
import io
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tempora import Constant, Periodic, Stream, cli
import tempora.discounting as D
import tempora.minimizer as M
import tempora.streams as S

# Every property draws the same examples on every run, so a test result is
# a function of the commit alone: a failing draw replays from the source,
# not from a local example database.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

#: A stream whose D at ``SATURATING_AT``, retaken on the values over 2^64,
#: is finite but rounds past the float range when multiplied back: it
#: saturates at minus the largest float, the exact value.  Before it did,
#: ``eval`` printed -inf, and the argmin row of a ``sweep`` under a
#: tabulated cost read ``inf,nan,inf``.
SATURATING = {"prefix": [-sys.float_info.max, -sys.float_info.max, 1e308],
              "tail": {"constant": -1.0}}
SATURATING_AT = 2.0364732356610535e-09


def exact_dv(x, d):
    """D_d(x) of the stream ``x`` in rationals: the prefix's (1 - d) sum_t
    x_t d^t, plus d^n times the cycle's sum_j c_j d^j over 1 + d + ... +
    d^(p - 1), for a prefix of n terms and a cycle of p."""
    d = Fraction(d)
    head = sum(Fraction(v) * d ** t for t, v in enumerate(x.prefix))
    cycle = sum(Fraction(v) * d ** j for j, v in enumerate(x.tail_cycle))
    return (1 - d) * head + d ** len(x.prefix) * cycle / sum(d ** j for j in range(x.period))


def run_cli(argv):
    """(exit code, stdout, stderr) of ``tempora ARGV``, run in process through
    ``cli.main`` and held to the CLI's contract: it exits 0, 1 or 2, with no
    traceback and no warning; exit 0 leaves stderr empty, exit 2 stdout."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert code != 0 or err == "", (argv, err)
    assert code != 2 or out == "", (argv, out)
    assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
    assert caught == [], (argv, [str(w.message) for w in caught])
    return code, out, err


def counted(fn, weight=None, into=None):
    """``fn`` wrapped to append each call's weight, ``weight(result, *args,
    **kwargs)`` or else 1 (a call that raises has the result None), to the
    list ``into`` (a new one by default), and that list."""
    into = [] if into is None else into

    def wrapper(*args, **kwargs):
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            into.append(1 if weight is None else weight(out, *args, **kwargs))

    return wrapper, into


def spy(monkeypatch, owner, name, weight=None, into=None):
    """Replace ``owner.name`` by :func:`counted` of it; the list of weights."""
    wrapper, into = counted(getattr(owner, name), weight, into)
    monkeypatch.setattr(owner, name, wrapper)
    return into


#: The work the tests count: per count, the functions whose calls it counts
#: and a call's weight (1 if None); a function renamed or moved changes a row.
WORK = {
    "golden": [(M, "_golden", None)],               # golden-section searches
    "lockstep": [(M, "_golden_lockstep", lambda out, fun, a, *rest: a.size)],  # lockstep lanes
    "scans": [(M, "_scan", None)],                  # full-grid scans
    "pieces": [(M, "_minimize_on_interval", None)],  # piece searches
    "horner": [(M, "_horner", lambda out, coeffs, d: len(coeffs) * d.size)],  # Horner steps
    "powers": [(M, "_powers", None)],               # factor powers
    # grid nodes of the coarse-to-fine scan (a full scan counts under "scans")
    "nodes": [(M, "_dv_array", lambda out, prefix, cycle, d, *rest: d.size if d.ndim == 2 else 0)],
    "streams": [(S, "_unchecked", lambda out, cls, **fields: cls is S.Stream),  # streams built
                (S.Stream, "__init__", None)],
    "batches": [(D, "evaluate_many", None)],        # batch evaluations
    "singles": [(D, "evaluate", None)],             # single evaluations
}


def work(monkeypatch, *names, **weights):
    """Count the rows ``names`` of ``WORK`` from now on, and the rows named
    in ``weights`` with the weight given there in place of the row's: a
    list of weights per row, by name."""
    counts = {}
    for name in names + tuple(weights):
        counts[name] = []
        for owner, attr, weight in WORK[name]:
            spy(monkeypatch, owner, attr, weights.get(name, weight), counts[name])
    return counts


finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False, width=64)


@st.composite
def streams(draw, max_prefix=8, max_period=5):
    prefix = draw(st.lists(finite_floats, max_size=max_prefix))
    if draw(st.booleans()):
        tail = Constant(draw(finite_floats))
    else:
        cycle = draw(st.lists(finite_floats, min_size=1, max_size=max_period))
        tail = Periodic(tuple(cycle))
    return Stream(tuple(prefix), tail)


@pytest.fixture
def rng():
    return np.random.default_rng(20240617)
