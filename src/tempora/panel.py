"""Expert-panel aggregation and cost recovery.

A finite panel of exponential-discounting experts induces a variational
criterion whose cost is finite exactly on the recommended factors: the
confidence `kappa_i` is the penalty for trusting expert i, and every factor
off the panel is maximally penalized.  The probe stream of
:func:`unanimity_probe` is the sharp instrument for hunting violations of
the Pareto property that ties the two together, which the axiom harness
checks (:func:`tempora.axioms.check_unanimity`): its discounted value at
factor delta' is exactly alpha * (delta' - center)^2, so it is worthless to
one expert and strictly valuable to all others.

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

from .discounting import (IndicatorSet, Variational, as_evaluator, discounted_value,
                          evaluate_each)
from .errors import InvalidCost, InvalidDelta, InvalidPanel
from .streams import Constant, Stream, constant_stream, make_stream

_RATE_CAP = 0.20
#: Parent (mu, sigma) of the normal whose truncation to (0, _RATE_CAP] has
#: the survey's mean 3.96% and sd 2.94%, solved once from the closed-form
#: truncated-normal moments (the tests re-derive both from these numbers).
_SURVEY_MU = 0.005033733949671083
_SURVEY_SIGMA = 0.04727146642801978


@dataclass(frozen=True)
class ExpertPanel:
    """Finite set of recommended discount factors with confidence costs.

    A panel checks as its cost, the :class:`IndicatorSet` of its factors
    with the confidences as point costs (all zero when none are given),
    stored as ``cost``: confidences finite, nonnegative, one per factor and
    grounded (some confidence 0).  ``cost`` is not a field, so equality,
    hashing and the repr hold the factors and confidences alone.  The panel
    adds its own two rules: at least one expert, and no factor at 0, so
    every factor lies strictly inside (0, 1).
    """

    factors: tuple[float, ...]
    confidences: tuple[float, ...] = ()

    def __post_init__(self):
        fs = tuple(self.factors)
        if not fs:
            raise InvalidPanel("panel needs at least one expert")
        try:
            cost = IndicatorSet(points=fs, point_costs=self.confidences)
        except InvalidCost as exc:
            raise InvalidPanel(f"panel as a cost: {exc}") from exc
        if 0.0 in cost.points:
            raise InvalidPanel(f"factors must lie strictly inside (0, 1): {cost.points}")
        object.__setattr__(self, "factors", cost.points)
        object.__setattr__(self, "confidences", cost.point_costs)
        object.__setattr__(self, "cost", cost)

    @property
    def size(self) -> int:
        return len(self.factors)


def panel_criterion(panel: ExpertPanel) -> Variational:
    """Aggregate criterion: min over experts of D_delta_i(x) + kappa_i."""
    return Variational(panel.cost)


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
    if random_streams:
        from .axioms import _rng, random_stream   # here, so that recover-cost loads no harness
        rng = _rng(seed)
        family += [random_stream(rng) for _ in range(random_streams)]
    centers = sorted(set([i / 20 for i in range(20)] + grid))
    family += [unanimity_probe(c, float(a)) for c in centers for a in probe_alphas]
    evaluated = list(zip(family, evaluate_each(ev, family)))
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
    from statistics import NormalDist   # here, so that recover-cost loads neither
    from .axioms import _rng
    if n < 1:
        raise InvalidPanel(f"panel size must be >= 1, got {n}")
    parent = NormalDist(_SURVEY_MU, _SURVEY_SIGMA)
    lo, hi = parent.cdf(0.0), parent.cdf(_RATE_CAP)
    rng = _rng(seed)
    rates = [parent.inv_cdf(lo + u * (hi - lo)) for u in rng.uniform(size=n).tolist()]
    rates = np.clip(rates, np.nextafter(0.0, 1.0), _RATE_CAP)
    return panel_from_rates(rates.tolist(), conversion)
