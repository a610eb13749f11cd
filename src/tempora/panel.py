"""Expert-panel aggregation and cost recovery.

A finite panel of exponential-discounting experts induces a variational
criterion whose cost is finite exactly on the recommended factors: the
confidence `kappa_i` is the penalty for trusting expert i, and every factor
off the panel is maximally penalized.  ``check_unanimity`` tests the Pareto
property that ties the two together: whenever every expert weakly prefers x
to y, the aggregate criterion must as well.  The probe stream of
:func:`unanimity_probe` is the sharp instrument for hunting violations: its
discounted value at factor delta' is exactly alpha * (delta' - center)^2,
so it is worthless to one expert and strictly valuable to all others.

``recover_cost`` inverts an evaluator into a cost table through the
conjugate bound c(delta) >= I(x) - D_delta(x): the reported values are
certified lower bounds on the maximal cost representing the evaluator,
monotone in the size of the test family, and are not claimed to be
attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .axioms import AxiomReport, _at_least, _cert, _each, _run_trials, random_stream
from .discounting import (IndicatorSet, Variational, as_evaluator,
                          discounted_value)
from .errors import InvalidDelta, InvalidPanel
from .patient import inf_value
from .streams import (Constant, Stream, add, constant_stream, make_stream,
                      scale_translate)

_RATE_CAP = 0.20
#: Parent (mu, sigma) of the normal whose truncation to (0, _RATE_CAP] has
#: the survey's mean 3.96% and sd 2.94%, solved once from the closed-form
#: truncated-normal moments (the tests re-derive both from these numbers).
_SURVEY_MU = 0.005033733949671083
_SURVEY_SIGMA = 0.04727146642801978


@dataclass(frozen=True)
class ExpertPanel:
    """Finite set of recommended discount factors with confidence costs.

    Factors lie strictly inside (0, 1); confidences are nonnegative with at
    least one zero (the induced cost must be grounded).
    """

    factors: tuple[float, ...]
    confidences: tuple[float, ...] = ()

    def __post_init__(self):
        fs = tuple(float(f) for f in self.factors)
        if not fs:
            raise InvalidPanel("panel needs at least one expert")
        if any(not 0.0 < f < 1.0 for f in fs):
            raise InvalidPanel(f"factors must lie strictly inside (0, 1): {fs}")
        ks = tuple(float(k) for k in self.confidences)
        if not ks:
            ks = (0.0,) * len(fs)
        if len(ks) != len(fs):
            raise InvalidPanel("confidences length must match factors")
        if any(k < 0 or not math.isfinite(k) for k in ks):
            raise InvalidPanel("confidences must be finite and >= 0")
        if min(ks) != 0.0:
            raise InvalidPanel("not grounded: some confidence must be 0")
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "confidences", ks)

    @property
    def size(self) -> int:
        return len(self.factors)


def panel_criterion(panel: ExpertPanel) -> Variational:
    """Aggregate criterion: min over experts of D_delta_i(x) + kappa_i."""
    cost = IndicatorSet(points=panel.factors, point_costs=panel.confidences)
    return Variational(cost)


def unanimity_probe(center: float, alpha: float) -> Stream:
    """Stream whose discounted value at delta' is alpha * (delta' - center)^2.

    The identity is exact algebra: the stream is
    (alpha c^2, alpha (c^2 - 2c), alpha (1-c)^2, alpha (1-c)^2, ...)
    for c = center.
    """
    if not 0.0 <= center < 1.0:
        raise InvalidDelta(f"probe center must lie in [0, 1), got {center}")
    if not alpha > 0:
        raise InvalidPanel(f"probe scale must be > 0, got {alpha}")
    c = float(center)
    a = float(alpha)
    return make_stream([a * c * c, a * (c * c - 2.0 * c)],
                       Constant(a * (1.0 - c) ** 2))


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


def recover_cost(evaluator, grid, probe_alphas=(1.0, 10.0, 100.0, 1e3, 1e5),
                 random_streams: int = 0, seed: int = 0,
                 spike_ns=(1, 10, 100)) -> list[tuple[float, float]]:
    """Certified lower bounds on the cost function representing an evaluator.

    For each delta on the grid, reports the maximum of I(x) - D_delta(x)
    over one fixed finite test family: the constants 0 and 1, delayed
    negative spikes (-n, 0, 0, ...) for n in ``spike_ns``,
    ``random_streams`` seeded draws, and probes at every alpha centered on
    a coarse span of [0, 1) plus the grid points themselves.  Off-center
    probes carry real slack (the candidate alpha * ((d* - c)^2 - (d - c)^2)
    grows as the center c moves past d away from the evaluator's preferred
    d*), so the reported bounds clear their analytic values robustly.
    Bounds are monotone nondecreasing in the family, and nothing is claimed
    about attainment.  A criterion evaluates the family in one batch
    (``evaluate_many``, the same bits as one call per stream).
    """
    ev = as_evaluator(evaluator)
    grid = [float(d) for d in grid]
    if any(not 0.0 <= d < 1.0 for d in grid):
        raise InvalidDelta("recovery grid must lie inside [0, 1)")
    family: list[Stream] = [constant_stream(0.0), constant_stream(1.0)]
    family += [make_stream([-float(n)], Constant(0.0)) for n in spike_ns]
    rng = np.random.default_rng(int(seed) % (2 ** 63))
    family += [random_stream(rng) for _ in range(random_streams)]
    centers = sorted(set([i / 20 for i in range(20)] + grid))
    family += [unanimity_probe(c, float(a)) for c in centers for a in probe_alphas]
    evaluated = list(zip(family, _each(ev, family)))
    table: list[tuple[float, float]] = []
    for d in grid:
        best = -math.inf
        for x, ix in evaluated:
            best = max(best, ix - discounted_value(x, d))
        table.append((d, best))
    return table


# ---------------------------------------------------------------------------
# survey-style panel sampling
# ---------------------------------------------------------------------------

def rate_to_factor(rate: float, conversion: str = "inverse") -> float:
    """Discount rate r to factor: 1/(1+r), or exp(-r) with ``conversion="exp"``."""
    if conversion == "inverse":
        return 1.0 / (1.0 + rate)
    if conversion == "exp":
        return math.exp(-rate)
    raise InvalidPanel(f"unknown rate conversion {conversion!r}")


def panel_from_rates(rates, conversion: str = "inverse") -> ExpertPanel:
    rates = [float(r) for r in rates]
    if not rates:
        raise InvalidPanel("panel needs at least one expert")
    if any(r <= 0 for r in rates):
        raise InvalidPanel("rates must be positive")
    return ExpertPanel(factors=tuple(rate_to_factor(r, conversion) for r in rates))


def weitzman_panel(n: int, seed: int, conversion: str = "inverse") -> ExpertPanel:
    """Panel of ``n`` experts with rates drawn from the survey distribution:
    a truncated normal on (0%, 20%] with mean 3.96% and sd 2.94%.

    Each rate is drawn by inverse CDF from one uniform draw of the seeded
    generator.  All confidences are zero.  Raises :class:`InvalidPanel`
    for n < 1.
    """
    from statistics import NormalDist   # here, so that recover-cost does not load it
    if n < 1:
        raise InvalidPanel(f"panel size must be >= 1, got {n}")
    parent = NormalDist(_SURVEY_MU, _SURVEY_SIGMA)
    lo, hi = parent.cdf(0.0), parent.cdf(_RATE_CAP)
    rng = np.random.default_rng(int(seed) % (2 ** 63))
    rates = [parent.inv_cdf(lo + u * (hi - lo)) for u in rng.uniform(size=n).tolist()]
    rates = np.clip(rates, np.nextafter(0.0, 1.0), _RATE_CAP)
    return panel_from_rates(rates.tolist(), conversion)
