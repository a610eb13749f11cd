"""Independent oracles the benchmark checks tempora's outputs against.

Nothing here imports tempora.  Streams are plain ``(prefix, cycle)`` pairs
of float tuples (a constant tail is a cycle of length one), built from the
JSON wire format, and every operation is defined pointwise:

* stream algebra by materialising ``x_t`` over the aligned prefix plus one
  lcm window of the tails;
* ``D_delta`` as a sum of its terms, exactly in fractions or with
  ``math.fsum``, never with the program's Horner/expm1 form;
* the patient criteria from their closed forms on the tail cycle;
* minima of ``D_delta + cost`` exactly, from the critical points
  ``R'S - RS' + c'S^2 = 0`` of ``D = R/S``;
* eigen residuals from the benchmark's own index maps of the operators.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

#: Right end the program searches for a half-open piece [a, 1).
ONE_EDGE = 1.0 - 1e-9


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def stream(prefix, cycle) -> tuple[tuple[float, ...], tuple[float, ...]]:
    return tuple(float(v) for v in prefix), tuple(float(v) for v in cycle)


def from_json(data: dict):
    tail = data["tail"]
    cycle = [tail["constant"]] if "constant" in tail else tail["periodic"]
    return stream(data.get("prefix", []), cycle)


def at(x, t: int) -> float:
    pre, cyc = x
    return pre[t] if t < len(pre) else cyc[(t - len(pre)) % len(cyc)]


def _rebuild(n: int, period: int, term):
    """Stream whose first n terms and next ``period`` terms are term(t)."""
    return stream([term(t) for t in range(n)], [term(n + k) for k in range(period)])


def _window(*xs) -> tuple[int, int]:
    return max(len(x[0]) for x in xs), math.lcm(*(len(x[1]) for x in xs))


def add(x, y):
    n, q = _window(x, y)
    return _rebuild(n, q, lambda t: at(x, t) + at(y, t))


def scale(x, a: float, theta: float = 0.0):
    n, q = _window(x)
    return _rebuild(n, q, lambda t: a * at(x, t) + theta)


def delay(x):
    n, q = _window(x)
    return _rebuild(n + 1, q, lambda t: 0.0 if t == 0 else at(x, t - 1))


def shift_left(x):
    n, q = _window(x)
    return _rebuild(max(n - 1, 0), q, lambda t: at(x, t + 1))


def permute(x, sigma):
    m = len(sigma)
    n, q = _window(x)
    return _rebuild(max(n, m), q, lambda t: at(x, sigma[t]) if t < m else at(x, t))


def pairwise_swap(x):
    n, q = _window(x)
    return _rebuild(n + n % 2, math.lcm(q, 2), lambda t: at(x, t ^ 1))


def sup_distance(x, y) -> float:
    n, q = _window(x, y)
    return max(abs(at(x, t) - at(y, t)) for t in range(n + q))


# ---------------------------------------------------------------------------
# discounted value and patient criteria
# ---------------------------------------------------------------------------

def dv_exact(x, delta: float) -> float:
    """D_delta(x) in exact rational arithmetic, rounded once."""
    pre, cyc = x
    if delta == 1.0:
        return float(sum(Fraction(v) for v in cyc) / len(cyc))
    d = Fraction(delta)
    head = sum((1 - d) * d ** t * Fraction(v) for t, v in enumerate(pre))
    s = sum(d ** k for k in range(len(cyc)))
    tail = d ** len(pre) * sum(d ** k * Fraction(v) for k, v in enumerate(cyc)) / s
    return float(head + tail)


def dv_fsum(x, delta: float) -> float:
    """D_delta(x) as an fsum of its terms; the tail uses
    (1 - d) / (1 - d^p) = 1 / (1 + d + ... + d^(p-1)), free of cancellation."""
    pre, cyc = x
    if delta == 1.0:
        return math.fsum(cyc) / len(cyc)
    terms = [(1.0 - delta) * delta ** t * v for t, v in enumerate(pre)]
    s = math.fsum(delta ** k for k in range(len(cyc)))
    q = math.fsum(delta ** k * v for k, v in enumerate(cyc))
    terms.append(delta ** len(pre) * q / s)
    return math.fsum(terms)


def inf_value(x) -> float:
    return min(x[0] + x[1])


def liminf_value(x) -> float:
    return min(x[1])


def tail_mean(x) -> float:
    return float(sum(Fraction(v) for v in x[1]) / len(x[1]))


# ---------------------------------------------------------------------------
# costs and criteria, from their JSON
# ---------------------------------------------------------------------------

class Cost:
    """A cost shape as isolated points plus continuous pieces.

    ``points``: [(delta, cost)]; ``pieces``: [(a, b, dc)], where dc holds
    the cost's derivative on [a, b] as a polynomial (low to high
    coefficients).
    """

    def __init__(self, data: dict):
        (tag, body), = data.items()
        self.points: list[tuple[float, float]] = []
        self.pieces: list[tuple[float, float, np.ndarray]] = []
        if tag == "indicator":
            pts = [float(p) for p in body.get("points", [])]
            costs = [float(k) for k in body.get("point_costs", [])] or [0.0] * len(pts)
            self.points = list(zip(pts, costs))
            for a, b in body.get("intervals", []):
                self.pieces.append((float(a), min(float(b), ONE_EDGE), np.array([0.0])))
            self._value = self._indicator
        elif tag == "quadratic":
            c0, k = float(body["center"]), float(body["stiffness"])
            self.pieces.append((0.0, ONE_EDGE, np.array([-2.0 * k * c0, 2.0 * k])))
            self._value = lambda d: k * (d - c0) ** 2
        elif tag == "tabulated":
            knots = [(float(d), float(c)) for d, c in body["knots"]]
            self.knots = knots
            if knots[0][0] > 0.0:
                self.pieces.append((0.0, knots[0][0], np.array([0.0])))
            for (d0, c0), (d1, c1) in zip(knots, knots[1:]):
                self.pieces.append((d0, d1, np.array([(c1 - c0) / (d1 - d0)])))
            if len(knots) == 1:
                self.pieces.append((knots[0][0], knots[0][0], np.array([0.0])))
            self._value = self._tabulated
        else:
            raise ValueError(f"unknown cost tag {tag!r}")

    def _indicator(self, d: float) -> float:
        for a, b, _ in self.pieces:
            if a <= d <= b:
                return 0.0
        return min((k for p, k in self.points if p == d), default=math.inf)

    def _tabulated(self, d: float) -> float:
        ks = self.knots
        if d > ks[-1][0]:
            return math.inf
        if d <= ks[0][0]:
            return ks[0][1]
        for (d0, c0), (d1, c1) in zip(ks, ks[1:]):
            if d <= d1:
                return c0 + (c1 - c0) * (d - d0) / (d1 - d0)
        return ks[-1][1]

    def __call__(self, d: float) -> float:
        if d >= 1.0:
            return math.inf
        return self._value(d)


def maxmin_cost(body: dict) -> Cost:
    return Cost({"indicator": {"points": body.get("points", []),
                               "intervals": body.get("intervals", [])}})


def criterion(data: dict):
    """(family, evaluator) for a criterion JSON; evaluators are exact
    closed forms or the exact critical-point minimum."""
    (tag, body), = data.items()
    if tag == "edu":
        return "edu", lambda x: dv_fsum(x, float(body["delta"]))
    if tag == "inf":
        return "patient", inf_value
    if tag == "liminf":
        return "patient", liminf_value
    if tag in ("banach_window", "cesaro"):
        return "patient", tail_mean
    cost = maxmin_cost(body) if tag == "maxmin" else Cost(body["cost"])
    return tag, lambda x: exact_min(x, cost)


# ---------------------------------------------------------------------------
# minima over the discount factor
# ---------------------------------------------------------------------------

def _rs(x):
    """Polynomials R, S (low-to-high coefficients) with D_delta(x) = R/S."""
    pre, cyc = x
    p_poly = np.array(pre) if pre else np.array([0.0])
    s_poly = np.ones(len(cyc))
    q_poly = np.array(cyc)
    r = P.polymul(P.polymul([1.0, -1.0], p_poly), s_poly)
    r = P.polyadd(r, np.concatenate([np.zeros(len(pre)), q_poly]))
    return r, s_poly


def exact_min(x, cost: Cost, grid: int = 33) -> float:
    """min over delta of D_delta(x) + cost(delta), from the critical points.

    Candidates on each continuous piece [a, b] are its ends, a coarse grid
    and the real roots in (a, b) of R'S - RS' + c'S^2; every candidate is
    feasible, so the result can only err upwards, by root error squared.
    Isolated points are enumerated.
    """
    r, s = _rs(x)
    num = P.polysub(P.polymul(P.polyder(r), s), P.polymul(r, P.polyder(s)))
    s2 = P.polymul(s, s)
    best = math.inf
    for d, k in cost.points:
        best = min(best, dv_fsum(x, d) + k)
    for a, b, dc in cost.pieces:
        cands = set(np.linspace(a, b, grid).tolist())
        g = P.polyadd(num, P.polymul(dc, s2))
        g = np.trim_zeros(g, "b")
        if g.size > 1 and np.abs(g).max() > 0.0:
            for root in P.polyroots(g):
                if abs(root.imag) <= 1e-7 and a < root.real < b:
                    cands.add(float(root.real))
        for d in cands:
            best = min(best, dv_fsum(x, d) + cost(d))
    return best


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def adjoint_apply(op: dict, p: np.ndarray) -> np.ndarray:
    """M* p for an operator JSON, from index maps (builtins) or the
    benchmark's own dense matrix; M* is the transpose of the stream-side M."""
    (tag, body), = op.items()
    if tag == "matrix":
        return np.asarray(body, dtype=float).T @ p
    name, n = body["name"], int(body["n"])
    out = np.zeros(n)
    if name == "cyclic_delay":
        # M[i, i-1 mod n] = 1, so (M* p)_j = p_{j+1 mod n}.
        out[:] = np.roll(p, -1)
    elif name == "absorbing_delay":
        out[:-1] = p[1:]
    elif name == "permutation":
        # M[i, sigma(i)] = 1, so (M* p)_{sigma(i)} += p_i.
        np.add.at(out, np.asarray(body["sigma"], dtype=int), p)
    elif name == "scaling":
        out[:] = float(body["factor"]) * p
    else:
        raise ValueError(f"unknown builtin {name!r}")
    return out


def eigen_residual(op: dict, p: np.ndarray, lam: float) -> float:
    return float(np.abs(adjoint_apply(op, p) - lam * p).sum())
