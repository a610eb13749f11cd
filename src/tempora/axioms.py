"""Seeded property-test harness for the evaluation axioms.

Each axiom is one ``(draw, judge)`` entry of the table ``_AXIOMS``.
``draw(ev, rng, transform, trial)`` returns the instance: the streams and
numbers that lead the certificate, ``{x, theta}`` for icrp.
``judge(ev, tol, transform, **instance)`` states the axiom's inequality
once: it returns None when it holds, else the certificate's ``lhs``,
``rhs`` and ``gap`` (and ``alpha``, ``k``, ``theta`` for the two scans).
:func:`check_axiom` judges fresh draws, trial i from a generator seeded by
(axiom, seed, i), so serial and parallel runs agree.
:func:`replay_violation` judges a certificate's decoded instance again, so
it returns the reported gap bit for bit.  An axiom id is a bare axiom or
``itis:<transform>``: :func:`parse_axiom_id` reads it, and
:attr:`AxiomReport.key` writes it.

Conditional axioms about improving sequences (``idis``, ``itis``,
``ifpis``, ``ipis``) do not filter random pairs for the premise;
:func:`improving_pair` manufactures exactly indifferent pairs, so the
premise holds by construction.  Completeness and transitivity of the
induced ranking hold by construction for a real-valued functional, and
are not tested.  :func:`check_unanimity` tests an expert panel's Pareto
property with the same seeded trials and certificates; the harness alone
writes that format.  ``run_counterexamples`` replays a fixed regression
registry of four documented cases with hard-coded expected values.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .discounting import (BanachWindow, Inf, Liminf, Maxmin, _Criterion, as_evaluator,
                          discounted_value, evaluate)
from .errors import InvalidAxiom, InvalidPermutation, RegressionFailure
from .patient import inf_value
from .streams import (Constant, Periodic, Stream, _mixture_rows, _stream, add,
                      constant_stream, delay, inverse_permutation, make_stream, mixtures,
                      pairwise_swap, permute, scale_translate, shift_left,
                      stream_from_dict, stream_to_dict, sup_distance)

if TYPE_CHECKING:   # imported where used, so that the panels load only with a panel check
    from .panel import ExpertPanel


# ---------------------------------------------------------------------------
# stream transforms carried by the "itis" axiom
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayTransform:
    """d -> (0, d)."""

    label = "delay"

    def apply(self, d: Stream) -> Stream:
        return delay(d)


@dataclass(frozen=True)
class ScaleTransform:
    """d -> factor * d, factor >= 0."""

    factor: float

    def __post_init__(self):
        if not 0.0 <= self.factor < np.inf:
            raise InvalidAxiom(f"scale factor must be finite and >= 0, got {self.factor!r}")

    @property
    def label(self) -> str:
        # The short form where it reads back as the same factor.
        short = f"{self.factor:g}"
        return f"scale:{short if float(short) == self.factor else repr(self.factor)}"

    def apply(self, d: Stream) -> Stream:
        return scale_translate(d, self.factor, 0.0)


@dataclass(frozen=True)
class PermuteTransform:
    """d -> d permuted by a finite bijection."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        try:
            inverse_permutation(self.mapping)
        except InvalidPermutation as exc:
            raise InvalidAxiom(str(exc)) from exc

    @property
    def label(self) -> str:
        return "permute:" + ",".join(str(i) for i in self.mapping)

    def apply(self, d: Stream) -> Stream:
        return permute(d, self.mapping)


@dataclass(frozen=True)
class PairwiseSwapTransform:
    """d -> d with every adjacent pair (2i, 2i+1) swapped, on all of d."""

    label = "swap"

    def apply(self, d: Stream) -> Stream:
        return pairwise_swap(d)


@dataclass(frozen=True, eq=False)
class MatrixTransform:
    """Apply an operator matrix to the leading window, fix the rest."""

    matrix: "np.ndarray"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidAxiom("matrix transform needs a square matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def label(self) -> str:
        return f"matrix:{self.matrix.shape[0]}"

    def apply(self, d: Stream) -> Stream:
        # The window of d: up to where a cycle starts past the matrix, then one cycle.
        k = self.matrix.shape[0]
        n = max(k, len(d.prefix))
        vals = d.values(n + d.period)
        # A product that overflows is rejected by the stream's own check.
        with np.errstate(over="ignore", invalid="ignore"):
            vals[:k] = (self.matrix @ np.asarray(vals[:k])).tolist()
        return Stream.from_values(vals, n)


def parse_transform(text: str):
    """Transform from a CLI-style id: 'delay', 'swap', 'scale:<a>',
    'permute:<i0,i1,...>'.  Raises :class:`InvalidAxiom` for any other text."""
    if text == "delay":
        return DelayTransform()
    if text == "swap":
        return PairwiseSwapTransform()
    kind, _, arg = text.partition(":")
    try:
        if kind == "scale":
            return ScaleTransform(float(arg))
        if kind == "permute":
            return PermuteTransform(tuple(int(i) for i in arg.split(",")))
    except ValueError as exc:
        raise InvalidAxiom(f"malformed transform id {text!r}: {exc}") from exc
    raise InvalidAxiom(f"unknown transform id {text!r}")


# ---------------------------------------------------------------------------
# reports and generators
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    axiom: str
    trials: int
    passes: int
    violation: dict | None
    seed: int
    tol: float
    transform: str | None = None
    label: str | None = None

    @property
    def passed(self) -> bool:
        return self.violation is None

    @property
    def key(self) -> str:
        """The axiom id: ``itis:<transform>``, or the bare axiom."""
        return self.axiom if self.transform is None else f"{self.axiom}:{self.transform}"

    def to_dict(self) -> dict:
        """The fields by name; the violation dict is shared, not copied."""
        return dict(vars(self))


def _rng(*key) -> np.random.Generator:
    """The generator seeded by ``key``, each integer taken modulo 2^63:
    numpy seeds ``n`` and ``[n]`` alike, so any seed below 2^63 keeps its
    draws, and a negative one is accepted."""
    return np.random.default_rng([int(k) % 2 ** 63 for k in key])


def random_stream(rng: np.random.Generator, max_prefix: int = 12,
                  max_period: int = 4, lo: float = -5.0, hi: float = 5.0) -> Stream:
    """Generator wide enough to hit every registry case shape: prefixes of
    length <= 12, values uniform in [lo, hi], constant or short-cycle tails."""
    n = int(rng.integers(0, max_prefix + 1))
    prefix = tuple(float(v) for v in rng.uniform(lo, hi, n))
    if rng.random() < 0.5:
        tail: Constant | Periodic = Constant(float(rng.uniform(lo, hi)))
    else:
        p = int(rng.integers(1, max_period + 1))
        tail = Periodic(tuple(float(v) for v in rng.uniform(lo, hi, p)))
    return Stream(prefix, tail)


def improving_pair(evaluator, seed) -> tuple[Stream, Stream]:
    """Random (x, d) with I(x + d) = I(x) to within roundoff.

    d is a random draw shifted by the constant I(x) - I(x + d0), so the
    pair is exactly indifferent for any translation-invariant evaluator.
    ``seed`` may be an integer or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    ev = as_evaluator(evaluator)
    x = random_stream(rng)
    d0 = random_stream(rng)
    theta = ev(x) - ev(add(x, d0))
    return x, scale_translate(d0, 1.0, theta)


def _cert(**kw) -> dict:
    out = {}
    for key, val in kw.items():
        out[key] = stream_to_dict(val) if isinstance(val, Stream) else val
    return out


def _run_trials(axiom: str, salt: int, trials: int, seed: int, tol: float,
                trial: Callable, transform: str | None = None) -> AxiomReport:
    """Report on ``trial(rng, i)`` for i < trials, where trial i draws
    from its own generator seeded by (salt, seed, i) and returns None on
    a pass; the first violation is kept with its trial index."""
    if trials < 1:
        raise InvalidAxiom(f"trials must be >= 1, got {trials}")
    seed = int(seed) % (2 ** 63)
    passes, violation = 0, None
    for i in range(trials):
        v = trial(_rng(salt, seed, i), i)
        if v is None:
            passes += 1
        elif violation is None:
            violation = {**v, "trial": i}
    return AxiomReport(axiom=axiom, trials=trials, passes=passes,
                       violation=violation, seed=seed, tol=tol, transform=transform)


# ---------------------------------------------------------------------------
# the axioms: each draws its instance and states its inequality once
# ---------------------------------------------------------------------------

def _at_least(lhs: float, rhs: float, tol: float) -> dict | None:
    """lhs >= rhs - tol, else the verdict."""
    if lhs < rhs - tol:
        return {"lhs": lhs, "rhs": rhs, "gap": rhs - lhs}
    return None


def _equal(lhs: float, rhs: float, tol: float) -> dict | None:
    """|lhs - rhs| <= tol, else the verdict."""
    gap = abs(lhs - rhs)
    if gap > tol:
        return {"lhs": lhs, "rhs": rhs, "gap": gap}
    return None


def _draw(*streams, **numbers):
    """The draw of one independent random stream per name in ``streams``,
    then one value ``f(rng)`` per ``name=f`` in ``numbers``."""
    def draw(ev, rng, transform, trial):
        instance = {name: random_stream(rng) for name in streams}
        return {**instance, **{name: f(rng) for name, f in numbers.items()}}
    return draw


def _uniform(lo: float, hi: float) -> Callable:
    return lambda rng: float(rng.uniform(lo, hi))


def _permutation(rng: np.random.Generator) -> list[int]:
    """A random bijection of {0..m-1}, 2 <= m <= 8."""
    m = int(rng.integers(2, 9))
    return [int(i) for i in rng.permutation(m)]


def _draw_monotonicity(ev, rng, transform, trial):
    y, u = random_stream(rng), random_stream(rng)
    return {"x": add(y, scale_translate(u, 1.0, -inf_value(u))), "y": y}  # x >= y


def _judge_monotonicity(ev, tol, transform, x, y):
    return _at_least(ev(x), ev(y), tol)


def _judge_icrp(ev, tol, transform, x, theta):
    return _equal(ev(scale_translate(x, 1.0, theta)), ev(x) + theta, tol)


def _judge_convexity(ev, tol, transform, x, y, lam):
    mix = add(scale_translate(x, lam), scale_translate(y, 1.0 - lam))
    return _at_least(ev(mix), min(ev(x), ev(y)), tol)


def _judge_isu(ev, tol, transform, x, a):
    return _equal(ev(scale_translate(x, a)), a * ev(x), tol * (1.0 + a))


def _draw_iou(ev, rng, transform, trial):
    x = random_stream(rng)
    y0 = random_stream(rng)
    y = scale_translate(y0, 1.0, ev(x) - ev(y0))  # manufactured x ~ y
    return {"x": x, "y": y, "z": random_stream(rng)}


def _judge_iou(ev, tol, transform, x, y, z):
    return _equal(ev(add(x, z)), ev(add(y, z)), tol)


def _judge_lipschitz(ev, tol, transform, x, y):
    """|I(x) - I(y)| <= sup |x - y| + tol."""
    dist = sup_distance(x, y)
    lhs = abs(ev(x) - ev(y))
    if lhs - dist > tol:
        return {"lhs": lhs, "rhs": dist, "gap": lhs - dist}
    return None


def _judge_normalization(ev, tol, transform):
    return _equal(ev(constant_stream(1.0)), 1.0, tol)


def _judge_patience(ev, tol, transform, x, sigma):
    return _equal(ev(permute(x, sigma)), ev(x), tol)


def _judge_time_invariance(ev, tol, transform, x):
    return _equal(ev(shift_left(x)), ev(x), tol)


#: Known breaking instance for doubled improvements under the worst-period
#: criterion; used as the deterministic first trial of the itis check.
_CANON_ITIS: tuple[Stream, Stream] = (
    make_stream([-1.0], Constant(0.0)),
    make_stream([1.0, -1.0], Constant(0.0)),
)

#: Known breaking instance for whole-sequence pair swaps under the
#: worst-recurring-utility criterion; first trial of the ipis check.
_CANON_IPIS: tuple[Stream, Stream] = (
    make_stream([], Periodic((0.0, 1.0))),
    make_stream([], Periodic((1.0, -1.0))),
)


def _improving(canon=None, **numbers):
    """The draw of an improving pair (x, d), or of ``canon`` on trial 0,
    then one value ``f(rng)`` per ``name=f`` in ``numbers``."""
    def draw(ev, rng, transform, trial):
        x, d = canon if canon is not None and trial == 0 else improving_pair(ev, rng)
        return {"x": x, "d": d, **{name: f(rng) for name, f in numbers.items()}}
    return draw


def _judge_idis(ev, tol, transform, x, d):
    return _at_least(ev(add(x, delay(d))), ev(x), tol)


def _premised(ev, tol, x, d, moved):
    """I(x + moved) >= I(x) - tol where the premise I(x + d) >= I(x)
    holds; a failed premise passes vacuously.  I(x) is evaluated once."""
    rhs = ev(x)
    if ev(add(x, d)) < rhs - 1e-12:
        return None
    return _at_least(ev(add(x, moved)), rhs, tol)


def _judge_itis(ev, tol, transform, x, d):
    return _premised(ev, tol, x, d, transform.apply(d))


def _judge_permuted(ev, tol, transform, x, d, sigma):
    """The premised conclusion for d permuted by sigma: a finite bijection,
    or ``"pairwise_swap"`` for the whole-sequence pair swap."""
    moved = pairwise_swap(d) if sigma == "pairwise_swap" else permute(d, sigma)
    return _premised(ev, tol, x, d, moved)


#: Mixes per batch of the continuity scan: large enough that numpy's fixed
#: cost per call is spread thin, small enough that one batch's array of
#: values, one row per mix, and the minimizer's arrays over it stay a few
#: hundred kB.
_SCAN_CHUNK = 256


def _mixes(ev, x, z, lams):
    """ev of each mix lam x + (1 - lam) z, in order, as arrays: for a
    criterion, one array, its ``rows`` on the mixes' values, with a stream
    built only for a row that canonicalization could change (those go
    through ``evaluate_many``); for a plain callable, one array per mix,
    each evaluated only when the one before has been taken, so that a scan
    calls it no further than its first jump."""
    if not isinstance(ev, _Criterion):
        for y in mixtures(x, z, lams):
            yield np.array([ev(y)])
        return
    n, vals, mask = _mixture_rows(x, z, lams)
    out = np.empty(len(vals))
    out[~mask] = ev.rows(n, vals[~mask])
    out[mask] = ev.many([_stream(row[:n], row[n:]) for row in vals[mask].tolist()])
    yield out


def _judge_continuity_segment(ev, tol, transform, x, z):
    """Falsification proxy: scan alpha -> I(alpha x + (1-alpha) z) on a
    10^4-step grid for jumps beyond the 1-Lipschitz allowance plus a 1e-6
    slack.  The mixes are built ``_SCAN_CHUNK`` at a time, and one array
    comparison finds the first jump among the values of each array of
    :func:`_mixes`."""
    grid = 10001
    slack = sup_distance(x, z) / (grid - 1) + 1e-6
    prev = ev(z)
    for start in range(1, grid, _SCAN_CHUNK):
        lams = [i / (grid - 1) for i in range(start, min(start + _SCAN_CHUNK, grid))]
        at = 0
        for cur in _mixes(ev, x, z, lams):
            before = np.concatenate(([prev], cur[:-1]))
            jumps = np.flatnonzero(np.abs(cur - before) > slack)
            if jumps.size:
                j = jumps[0]
                lhs, rhs = float(cur[j]), float(before[j])
                return {"alpha": lams[at + j], "lhs": lhs, "rhs": rhs,
                        "gap": abs(lhs - rhs) - slack}
            at, prev = at + len(cur), cur[-1]
    return None


def _judge_monotone_continuity_proxy(ev, tol, transform, x):
    """Weak check: replacing the far tail with a low constant must
    eventually leave the value above I(x) - 0.5.  Only tail sets that
    truncate at the stream's own tail are representable here."""
    theta = ev(x) - 0.5
    k = inf_value(x) - 1.0
    n0 = len(x.prefix)
    for n in [n0 + s for s in (0, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 400)]:
        last = ev(Stream(tuple(x.values(n)), Constant(k)))
        if last > theta:
            return None
    return {"k": k, "theta": theta, "lhs": last, "rhs": theta, "gap": theta - last}


#: axiom -> (draw, judge), in the order of AXIOM_IDS.
_AXIOMS: dict[str, tuple[Callable, Callable]] = {
    "monotonicity": (_draw_monotonicity, _judge_monotonicity),
    "continuity_segment": (_draw("x", "z"), _judge_continuity_segment),
    "icrp": (_draw("x", theta=_uniform(-5.0, 5.0)), _judge_icrp),
    "convexity": (_draw("x", "y", lam=_uniform(0.0, 1.0)), _judge_convexity),
    "isu": (_draw("x", a=_uniform(0.0, 4.0)), _judge_isu),
    "iou": (_draw_iou, _judge_iou),
    "monotone_continuity_proxy": (_draw("x"), _judge_monotone_continuity_proxy),
    "idis": (_improving(), _judge_idis),
    "itis": (_improving(_CANON_ITIS), _judge_itis),
    "ifpis": (_improving(sigma=_permutation), _judge_permuted),
    "ipis": (_improving(_CANON_IPIS, sigma=lambda rng: "pairwise_swap"), _judge_permuted),
    "patience": (_draw("x", sigma=_permutation), _judge_patience),
    "time_invariance": (_draw("x"), _judge_time_invariance),
    "lipschitz": (_draw("x", "y"), _judge_lipschitz),
    "normalization": (_draw(), _judge_normalization),
}


#: The axiom names; an axiom's index here salts its trial generators.
AXIOM_IDS = tuple(_AXIOMS)


def _check_id(axiom: str, has_transform: bool) -> None:
    """A known axiom; itis needs a transform, and only itis takes one."""
    if axiom not in _AXIOMS:
        raise InvalidAxiom(f"unknown axiom {axiom!r}")
    if axiom == "itis" and not has_transform:
        raise InvalidAxiom("itis needs a transform, e.g. itis:scale:2 or itis:delay")
    if axiom != "itis" and has_transform:
        raise InvalidAxiom(f"only itis takes a transform, not {axiom!r}")


def parse_axiom_id(text: str):
    """(axiom, transform) from an axiom id: a bare axiom, or
    ``itis:<transform>`` with a transform id of :func:`parse_transform`.
    Raises :class:`InvalidAxiom` for any other text."""
    axiom, colon, rest = text.partition(":")
    _check_id(axiom, bool(colon))
    return axiom, parse_transform(rest) if colon else None


def check_axiom(criterion, axiom: str, trials: int, seed: int,
                tol: float = 1e-9, transform=None) -> AxiomReport:
    """Run the quantified check for one axiom on seeded instances.

    Raises:
        InvalidAxiom: unknown axiom id, a transform missing on itis or
        given to any other axiom, trials < 1.
    """
    _check_id(axiom, transform is not None)
    ev = as_evaluator(criterion)
    draw, judge = _AXIOMS[axiom]

    def trial(rng, i):
        instance = draw(ev, rng, transform, i)
        verdict = judge(ev, tol, transform, **instance)
        return None if verdict is None else {**_cert(**instance), **verdict}

    return _run_trials(axiom, AXIOM_IDS.index(axiom), trials, seed, tol, trial,
                       None if transform is None else transform.label)


def replay_violation(criterion, report: AxiomReport) -> float:
    """Recompute a certificate's gap: judge its decoded instance again at
    the report's tolerance, which returns the reported gap bit for bit.
    The judge's parameters after (ev, tol, transform) name the instance.

    Raises:
        InvalidAxiom: no violation; a key that is not an axiom id (a
        registry or unanimity report, or itis under a MatrixTransform,
        whose label ``matrix:N`` carries no entries); or an instance that
        no longer violates the axiom.
    """
    if report.violation is None:
        raise InvalidAxiom("report has no violation to replay")
    axiom, transform = parse_axiom_id(report.key)
    _, judge = _AXIOMS[axiom]
    cert = report.violation
    instance = {k: stream_from_dict(cert[k]) if isinstance(cert[k], dict) else cert[k]
                for k in list(inspect.signature(judge).parameters)[3:]}
    verdict = judge(as_evaluator(criterion), report.tol, transform, **instance)
    if verdict is None:
        raise InvalidAxiom(f"the {report.key} certificate no longer violates")
    return verdict["gap"]


# ---------------------------------------------------------------------------
# unanimity of an expert panel
# ---------------------------------------------------------------------------

_PROBE_HUNT_ALPHAS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)


def check_unanimity(panel: ExpertPanel, criterion, trials: int, seed: int,
                    tol: float = 1e-9) -> AxiomReport:
    """Test the Pareto property of ``criterion`` against the panel.

    Each trial builds a pair (x, y) that every expert weakly ranks x >= y
    (y plus a probe and an optional nonnegative stream, both with
    everywhere-nonnegative discounted value) and requires
    I(x) >= I(y) - tol.  Each trial additionally fires a probe at an
    off-panel center with escalating scales: unanimity forces the probe's
    value to reach the best constant all experts accept, which any finite
    off-panel cost eventually fails.  Raises :class:`InvalidAxiom` for
    trials < 1.
    """
    from .panel import unanimity_probe
    ev = as_evaluator(criterion)

    def trial(rng, i):
        y = random_stream(rng)
        bump = unanimity_probe(float(rng.uniform(0.0, 1.0)),
                               float(rng.uniform(0.1, 3.0)))
        if rng.random() < 0.5:
            u = random_stream(rng)
            bump = add(bump, scale_translate(u, 1.0, -inf_value(u)))
        x = add(y, bump)
        verdict = _at_least(ev(x), ev(y), tol)
        if verdict is not None:
            return {**_cert(x=x, y=y), **verdict}
        center = _off_panel_center(panel, rng)
        if center is None:
            return None
        theta = min((f - center) ** 2 for f in panel.factors)
        for alpha in _PROBE_HUNT_ALPHAS:
            verdict = _at_least(ev(unanimity_probe(center, alpha)), alpha * theta, tol)
            if verdict is not None:
                return {"probe_center": center, "alpha": alpha, **verdict}
        return None

    return _run_trials("unanimity", 977, trials, seed, tol, trial)


def _off_panel_center(panel: ExpertPanel, rng: np.random.Generator,
                      margin: float = 0.05) -> float | None:
    for _ in range(64):
        c = float(rng.uniform(0.0, 0.95))
        if min(abs(c - f) for f in panel.factors) > margin:
            return c
    return None


# ---------------------------------------------------------------------------
# counterexample registry
# ---------------------------------------------------------------------------

def _expect(label: str, got, want):
    if got != want:
        raise RegressionFailure(f"registry entry {label!r}: got {got!r}, expected {want!r}")


def run_counterexamples() -> list[AxiomReport]:
    """Replay the fixed registry of documented counterexamples.

    All four entries must reproduce their hard-coded values exactly;
    any mismatch raises :class:`RegressionFailure` naming the entry.
    """
    reports: list[AxiomReport] = []

    # 1. Worst-period criterion: an indifferent improvement stops being one
    #    when doubled.
    # 2. Worst-recurring-utility criterion: swapping every adjacent pair of
    #    an indifferent improvement produces a strict loss.
    # Each row: label, criterion, canonical pair (x, d), the move of d, the
    # values I(x), I(x + d), I(x + moved d), and the axiom that breaks.
    for label, k, (x, d), move, want, axiom in (
            ("inf-doubled-improvement", Inf(), _CANON_ITIS, ScaleTransform(2.0),
             (-1.0, -1.0, -2.0), "itis"),
            ("liminf-pairwise-swap", Liminf(), _CANON_IPIS, PairwiseSwapTransform(),
             (0.0, 0.0, -1.0), "ipis")):
        vals = (evaluate(k, x), evaluate(k, add(x, d)), evaluate(k, add(x, move.apply(d))))
        _expect(label, vals, want)
        rep = check_axiom(k, axiom, trials=1, seed=0,
                          transform=move if axiom == "itis" else None)
        if rep.violation is None:
            raise RegressionFailure(f"registry entry {label!r}: expected an {axiom} violation")
        reports.append(dataclasses.replace(rep, label=label))

    # 3. Worst case over {0}: two streams with a strict pointwise gap tie at
    #    zero, so strict monotonicity cannot hold with factor 0 admitted.
    label = "maxmin-zero-factor-tie"
    k0 = Maxmin(points=(0.0,))
    a = make_stream([0.0, 1.0], Constant(0.0))
    b = make_stream([0.0, 2.0], Constant(0.0))
    _expect(label, (evaluate(k0, a), evaluate(k0, b)), (0.0, 0.0))
    cert = _cert(x=b, y=a, lhs=evaluate(k0, b), rhs=evaluate(k0, a),
                 gap=sup_distance(a, b))
    reports.append(AxiomReport(axiom="strong_monotonicity", trials=1, passes=0,
                               violation=cert, seed=0, tol=0.0, label=label))

    # 4. Patient window criterion: recovering its cost at any factor
    #    delta < 1 blows up linearly along (-n, 0, 0, ...).
    label = "patient-cost-blowup"
    bw = BanachWindow()
    checked = 0
    for n in (1, 10, 100):
        spike = make_stream([-float(n)], Constant(0.0))
        _expect(label, evaluate(bw, spike), 0.0)
        for dlt in (0.1, 0.5, 0.9):
            bound = evaluate(bw, spike) - discounted_value(spike, dlt)
            _expect(label, bound, (1.0 - dlt) * n)
            checked += 1
    reports.append(AxiomReport(axiom="cost_lower_bound", trials=checked,
                               passes=checked, violation=None, seed=0,
                               tol=0.0, label=label))
    return reports
