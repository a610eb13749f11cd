"""Seeded property-test harness for the evaluation axioms.

Each axiom of the criteria library becomes an executable check against an
arbitrary evaluator: seeded instances are generated, the quantified
statement is tested at a tolerance, and the first failure is captured as a
replayable certificate.  Conditional axioms about improving sequences
(``idis``, ``itis``, ``ifpis``, ``ipis``) do not filter random pairs for
the premise; :func:`improving_pair` manufactures exactly indifferent pairs
through translation invariance, so the premise holds by construction.

Reports are deterministic: trial i derives its own generator from
(axiom, seed, i), so serial and parallel runs agree.

Completeness and transitivity of the induced ranking are not tested:
every evaluator here is a real-valued functional, so both hold by
construction.

``run_counterexamples`` executes a fixed regression registry of four
documented cases with hard-coded expected values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .discounting import (BanachWindow, Inf, Liminf, Maxmin, _Evaluator,
                          as_evaluator, discounted_value, evaluate)
from .errors import InvalidAxiom, RegressionFailure
from .patient import inf_value
from .streams import (Constant, Periodic, Stream, add, constant_stream, delay,
                      make_stream, mixtures, pairwise_swap, permute,
                      scale_translate, shift_left, stream_to_dict, sup_distance)

AXIOM_IDS = (
    "monotonicity", "continuity_segment", "icrp", "convexity", "isu", "iou",
    "monotone_continuity_proxy", "idis", "itis", "ifpis", "ipis",
    "patience", "time_invariance", "lipschitz", "normalization",
)


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

    @property
    def label(self) -> str:
        return f"scale:{self.factor:g}"

    def apply(self, d: Stream) -> Stream:
        return scale_translate(d, self.factor, 0.0)


@dataclass(frozen=True)
class PermuteTransform:
    """d -> d permuted by a finite bijection."""

    mapping: tuple[int, ...]

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
        n = self.matrix.shape[0]
        ln = max(n, len(d.prefix))
        vals = d.values(ln)
        head = self.matrix @ np.asarray(vals[:n])
        pre = tuple(float(v) for v in head) + tuple(vals[n:])
        from .streams import _rotated
        return Stream(pre, _rotated(d.tail, ln - len(d.prefix)))


def parse_transform(text: str):
    """Transform from a CLI-style id: 'delay', 'swap', 'scale:<a>',
    'permute:<i0,i1,...>'."""
    if text == "delay":
        return DelayTransform()
    if text == "swap":
        return PairwiseSwapTransform()
    if text.startswith("scale:"):
        return ScaleTransform(float(text.split(":", 1)[1]))
    if text.startswith("permute:"):
        idx = tuple(int(i) for i in text.split(":", 1)[1].split(","))
        return PermuteTransform(idx)
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

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "transform": self.transform,
            "label": self.label,
            "trials": self.trials,
            "passes": self.passes,
            "seed": self.seed,
            "tol": self.tol,
            "violation": self.violation,
        }


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


def _nonneg_stream(rng: np.random.Generator) -> Stream:
    u = random_stream(rng)
    return scale_translate(u, 1.0, -inf_value(u))


def improving_pair(evaluator, seed) -> tuple[Stream, Stream]:
    """Random (x, d) with I(x + d) = I(x) to within roundoff.

    d is a random draw shifted by the constant I(x) - I(x + d0), so the
    pair is exactly indifferent for any translation-invariant evaluator.
    ``seed`` may be an integer or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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


# ---------------------------------------------------------------------------
# per-axiom checks; each returns None (pass) or a violation certificate
# ---------------------------------------------------------------------------

def _chk_monotonicity(ev, rng, tol, transform, trial):
    y = random_stream(rng)
    x = add(y, _nonneg_stream(rng))
    lhs, rhs = ev(x), ev(y)
    if lhs < rhs - tol:
        return _cert(x=x, y=y, lhs=lhs, rhs=rhs, gap=rhs - lhs)
    return None


def _chk_icrp(ev, rng, tol, transform, trial):
    x = random_stream(rng)
    theta = float(rng.uniform(-5.0, 5.0))
    lhs = ev(scale_translate(x, 1.0, theta))
    rhs = ev(x) + theta
    gap = abs(lhs - rhs)
    if gap > tol:
        return _cert(x=x, theta=theta, lhs=lhs, rhs=rhs, gap=gap)
    return None


def _chk_convexity(ev, rng, tol, transform, trial):
    x, y = random_stream(rng), random_stream(rng)
    lam = float(rng.uniform(0.0, 1.0))
    mix = add(scale_translate(x, lam), scale_translate(y, 1.0 - lam))
    lhs = ev(mix)
    rhs = min(ev(x), ev(y))
    if lhs < rhs - tol:
        return _cert(x=x, y=y, lam=lam, lhs=lhs, rhs=rhs, gap=rhs - lhs)
    return None


def _chk_isu(ev, rng, tol, transform, trial):
    x = random_stream(rng)
    a = float(rng.uniform(0.0, 4.0))
    lhs = ev(scale_translate(x, a))
    rhs = a * ev(x)
    gap = abs(lhs - rhs)
    if gap > tol * (1.0 + a):
        return _cert(x=x, a=a, lhs=lhs, rhs=rhs, gap=gap)
    return None


def _chk_iou(ev, rng, tol, transform, trial):
    x = random_stream(rng)
    y0 = random_stream(rng)
    y = scale_translate(y0, 1.0, ev(x) - ev(y0))  # manufactured x ~ y
    z = random_stream(rng)
    lhs, rhs = ev(add(x, z)), ev(add(y, z))
    gap = abs(lhs - rhs)
    if gap > tol:
        return _cert(x=x, y=y, z=z, lhs=lhs, rhs=rhs, gap=gap)
    return None


def _chk_lipschitz(ev, rng, tol, transform, trial):
    x, y = random_stream(rng), random_stream(rng)
    dist = sup_distance(x, y)
    gap = abs(ev(x) - ev(y)) - dist
    if gap > tol:
        return _cert(x=x, y=y, lhs=abs(ev(x) - ev(y)), rhs=dist, gap=gap)
    return None


def _chk_normalization(ev, rng, tol, transform, trial):
    lhs = ev(constant_stream(1.0))
    gap = abs(lhs - 1.0)
    if gap > tol:
        return _cert(lhs=lhs, rhs=1.0, gap=gap)
    return None


def _chk_idis(ev, rng, tol, transform, trial):
    x, d = improving_pair(ev, rng)
    lhs, rhs = ev(add(x, delay(d))), ev(x)
    if lhs < rhs - tol:
        return _cert(x=x, d=d, lhs=lhs, rhs=rhs, gap=rhs - lhs)
    return None


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


def _conditional_check(ev, x, d, transformed, tol):
    """Check the conclusion I(x + T(d)) >= I(x) when the premise
    I(x + d) >= I(x) holds; a failed premise passes vacuously."""
    rhs = ev(x)
    if ev(add(x, d)) < rhs - 1e-12:
        return None
    lhs = ev(add(x, transformed))
    if lhs < rhs - tol:
        return _cert(x=x, d=d, lhs=lhs, rhs=rhs, gap=rhs - lhs)
    return None


def _chk_itis(ev, rng, tol, transform, trial):
    x, d = _CANON_ITIS if trial == 0 else improving_pair(ev, rng)
    return _conditional_check(ev, x, d, transform.apply(d), tol)


def _chk_ifpis(ev, rng, tol, transform, trial):
    x, d = improving_pair(ev, rng)
    m = int(rng.integers(2, 9))
    sigma = tuple(int(i) for i in rng.permutation(m))
    v = _conditional_check(ev, x, d, permute(d, sigma), tol)
    if v is not None:
        v["sigma"] = list(sigma)
    return v


def _chk_ipis(ev, rng, tol, transform, trial):
    x, d = _CANON_IPIS if trial == 0 else improving_pair(ev, rng)
    v = _conditional_check(ev, x, d, pairwise_swap(d), tol)
    if v is not None:
        v["sigma"] = "pairwise_swap"
    return v


def _chk_patience(ev, rng, tol, transform, trial):
    x = random_stream(rng)
    m = int(rng.integers(2, 9))
    sigma = tuple(int(i) for i in rng.permutation(m))
    lhs, rhs = ev(permute(x, sigma)), ev(x)
    gap = abs(lhs - rhs)
    if gap > tol:
        return _cert(x=x, sigma=list(sigma), lhs=lhs, rhs=rhs, gap=gap)
    return None


def _chk_time_invariance(ev, rng, tol, transform, trial):
    x = random_stream(rng)
    lhs, rhs = ev(shift_left(x)), ev(x)
    gap = abs(lhs - rhs)
    if gap > tol:
        return _cert(x=x, lhs=lhs, rhs=rhs, gap=gap)
    return None


#: Mixes per batch of the continuity scan: large enough that numpy's fixed
#: cost per call is spread thin, small enough that one batch of streams and
#: arrays stays a few hundred kB.
_SCAN_CHUNK = 256


def _each(ev, xs):
    """ev over xs: one batch for a criterion, one by one (lazily) for a
    plain callable."""
    return ev.many(xs) if isinstance(ev, _Evaluator) else map(ev, xs)


def _chk_continuity_segment(ev, rng, tol, transform, trial, grid: int = 10001):
    """Falsification proxy: scan alpha -> I(alpha x + (1-alpha) z) for jumps
    beyond the 1-Lipschitz allowance plus a 1e-6 slack.  The mixes are
    built and evaluated ``_SCAN_CHUNK`` at a time."""
    x, z = random_stream(rng), random_stream(rng)
    slack = sup_distance(x, z) / (grid - 1) + 1e-6
    prev = ev(z)
    for start in range(1, grid, _SCAN_CHUNK):
        lams = [i / (grid - 1) for i in range(start, min(start + _SCAN_CHUNK, grid))]
        for lam, cur in zip(lams, _each(ev, mixtures(x, z, lams))):
            if abs(cur - prev) > slack:
                return _cert(x=x, z=z, alpha=lam, lhs=cur, rhs=prev,
                             gap=abs(cur - prev) - slack)
            prev = cur
    return None


def _chk_monotone_continuity_proxy(ev, rng, tol, transform, trial):
    """Weak check: replacing the far tail with a low constant must
    eventually leave the value above I(x) - 0.5.  Only tail sets that
    truncate at the stream's own tail are representable here."""
    x = random_stream(rng)
    ix = ev(x)
    theta = ix - 0.5
    k = inf_value(x) - 1.0
    n0 = len(x.prefix)
    last = -np.inf
    for n in [n0 + s for s in (0, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 400)]:
        trunc = Stream(tuple(x.values(n)), Constant(k))
        last = ev(trunc)
        if last > theta:
            return None
    return _cert(x=x, k=k, theta=theta, lhs=last, rhs=theta, gap=theta - last)


_CHECKS: dict[str, Callable] = {
    "monotonicity": _chk_monotonicity,
    "continuity_segment": _chk_continuity_segment,
    "icrp": _chk_icrp,
    "convexity": _chk_convexity,
    "isu": _chk_isu,
    "iou": _chk_iou,
    "monotone_continuity_proxy": _chk_monotone_continuity_proxy,
    "idis": _chk_idis,
    "itis": _chk_itis,
    "ifpis": _chk_ifpis,
    "ipis": _chk_ipis,
    "patience": _chk_patience,
    "time_invariance": _chk_time_invariance,
    "lipschitz": _chk_lipschitz,
    "normalization": _chk_normalization,
}


def check_axiom(criterion, axiom: str, trials: int, seed: int,
                tol: float = 1e-9, transform=None) -> AxiomReport:
    """Run the quantified check for one axiom on seeded instances.

    Raises:
        InvalidAxiom: unknown axiom id, missing itis transform, trials < 1.
    """
    if axiom not in _CHECKS:
        raise InvalidAxiom(f"unknown axiom {axiom!r}")
    if axiom == "itis" and transform is None:
        raise InvalidAxiom("itis carries its transformation; pass transform=")
    if trials < 1:
        raise InvalidAxiom(f"trials must be >= 1, got {trials}")
    ev = as_evaluator(criterion)
    salt = AXIOM_IDS.index(axiom)
    seed = int(seed) % (2 ** 63)
    passes = 0
    violation: dict | None = None
    for i in range(trials):
        rng = np.random.default_rng([salt, seed, i])
        v = _CHECKS[axiom](ev, rng, tol, transform, i)
        if v is None:
            passes += 1
        elif violation is None:
            violation = {**v, "trial": i}
    return AxiomReport(axiom=axiom, trials=trials, passes=passes,
                       violation=violation, seed=seed, tol=tol,
                       transform=transform.label if transform is not None else None)


def replay_violation(criterion, report: AxiomReport) -> float:
    """Recompute a certificate's gap from its stored instance.

    Used to confirm that reported violations are sound: the replayed gap
    must exceed the report tolerance.
    """
    from .streams import stream_from_dict

    if report.violation is None:
        raise InvalidAxiom("report has no violation to replay")
    ev = as_evaluator(criterion)
    cert = report.violation
    get = lambda key: stream_from_dict(cert[key])
    ax = report.axiom
    if ax == "monotonicity":
        return ev(get("y")) - ev(get("x"))
    if ax == "icrp":
        return abs(ev(scale_translate(get("x"), 1.0, cert["theta"])) - ev(get("x")) - cert["theta"])
    if ax == "convexity":
        x, y, lam = get("x"), get("y"), cert["lam"]
        mix = add(scale_translate(x, lam), scale_translate(y, 1.0 - lam))
        return min(ev(x), ev(y)) - ev(mix)
    if ax == "isu":
        return abs(ev(scale_translate(get("x"), cert["a"])) - cert["a"] * ev(get("x")))
    if ax == "iou":
        return abs(ev(add(get("x"), get("z"))) - ev(add(get("y"), get("z"))))
    if ax == "lipschitz":
        x, y = get("x"), get("y")
        return abs(ev(x) - ev(y)) - sup_distance(x, y)
    if ax == "normalization":
        return abs(ev(constant_stream(1.0)) - 1.0)
    if ax == "idis":
        return ev(get("x")) - ev(add(get("x"), delay(get("d"))))
    if ax == "itis":
        t = parse_transform(report.transform)
        return ev(get("x")) - ev(add(get("x"), t.apply(get("d"))))
    if ax == "ifpis":
        return ev(get("x")) - ev(add(get("x"), permute(get("d"), cert["sigma"])))
    if ax == "ipis":
        return ev(get("x")) - ev(add(get("x"), pairwise_swap(get("d"))))
    if ax == "patience":
        return abs(ev(permute(get("x"), cert["sigma"])) - ev(get("x")))
    if ax == "time_invariance":
        return abs(ev(shift_left(get("x"))) - ev(get("x")))
    raise InvalidAxiom(f"replay not supported for axiom {ax!r}")


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
    label = "inf-doubled-improvement"
    inf_k = Inf()
    x, d = _CANON_ITIS
    vals = (evaluate(inf_k, x), evaluate(inf_k, add(x, d)),
            evaluate(inf_k, add(x, scale_translate(d, 2.0))))
    _expect(label, vals, (-1.0, -1.0, -2.0))
    rep = check_axiom(inf_k, "itis", trials=1, seed=0, transform=ScaleTransform(2.0))
    if rep.violation is None:
        raise RegressionFailure(f"registry entry {label!r}: expected an itis violation")
    reports.append(dataclasses.replace(rep, label=label))

    # 2. Worst-recurring-utility criterion: swapping every adjacent pair of
    #    an indifferent improvement produces a strict loss.
    label = "liminf-pairwise-swap"
    lim = Liminf()
    x, d = _CANON_IPIS
    vals = (evaluate(lim, x), evaluate(lim, add(x, d)),
            evaluate(lim, add(x, pairwise_swap(d))))
    _expect(label, vals, (0.0, 0.0, -1.0))
    rep = check_axiom(lim, "ipis", trials=1, seed=0)
    if rep.violation is None:
        raise RegressionFailure(f"registry entry {label!r}: expected an ipis violation")
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
