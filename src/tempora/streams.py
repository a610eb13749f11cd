"""Exact arithmetic on eventually periodic bounded utility streams.

A stream is a bounded real sequence stored as a finite prefix followed by a
tail that is either constant or periodic.  This class is closed under every
operation the package applies (pointwise sums, nonnegative affine maps,
delay, left shift, finite permutations), and it admits closed-form
discounted sums and long-run averages, so identities can be verified
exactly instead of through truncation.

Construction always canonicalizes: a length-1 periodic cycle becomes a
constant tail, cycles are reduced to their minimal period, and prefix
entries that merely replay the tail are absorbed into it.  Canonicalization
never changes pointwise values, so two streams are equal (``==``) exactly
when they agree at every index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (InvalidPermutation, InvalidScale, InvalidStream, ParseError,
                     decoding)


@dataclass(frozen=True)
class Constant:
    """Tail that repeats a single value forever."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise InvalidStream(f"non-finite tail value {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Periodic:
    """Tail that cycles through a fixed block of values."""

    cycle: tuple[float, ...]

    def __post_init__(self):
        cyc = tuple(map(float, self.cycle))
        if not cyc:
            raise InvalidStream("periodic tail requires a nonempty cycle")
        if not all(map(math.isfinite, cyc)):
            raise InvalidStream("non-finite value in periodic cycle")
        object.__setattr__(self, "cycle", cyc)


TailSpec = Union[Constant, Periodic]


def _minimal_cycle(cycle: Sequence[float]) -> tuple[float, ...]:
    """Shortest block whose repetition reproduces ``cycle``."""
    cycle = tuple(cycle)
    n = len(cycle)
    for d in range(1, n + 1):
        # Period d: every entry equals the one d places before it.
        if n % d == 0 and cycle[d:] == cycle[:n - d]:
            return cycle[:d]
    return cycle


def canonicalize_tail(tail: TailSpec) -> TailSpec:
    """Phase-free normal form of a tail.

    Reduces a periodic cycle to its minimal period, folds length-1 cycles
    into :class:`Constant`, and stores the cycle in its lexicographically
    least rotation (the tie-breaking rule for comparing tails regardless of
    where the prefix ends).
    """
    if isinstance(tail, Constant):
        return tail
    cyc = _minimal_cycle(tail.cycle)
    if len(cyc) == 1:
        return Constant(cyc[0])
    best = min(cyc[k:] + cyc[:k] for k in range(len(cyc)))
    return Periodic(best)


def _tail_at(tail: TailSpec, k: int) -> float:
    if isinstance(tail, Constant):
        return tail.value
    return tail.cycle[k % len(tail.cycle)]


def _rotated(tail: TailSpec, k: int) -> TailSpec:
    """Tail as seen after advancing its phase by ``k`` steps."""
    if isinstance(tail, Constant) or k % len(tail.cycle) == 0:
        return tail
    r = k % len(tail.cycle)
    return Periodic(tail.cycle[r:] + tail.cycle[:r])


@dataclass(frozen=True)
class Stream:
    """Eventually periodic bounded sequence.

    ``value_at(t)`` is ``prefix[t]`` for ``t < len(prefix)`` and the tail
    value at offset ``t - len(prefix)`` afterwards.  Instances are immutable
    and all operations are pure, so unrestricted concurrent use is safe.
    """

    prefix: tuple[float, ...] = ()
    tail: TailSpec = Constant(0.0)

    def __post_init__(self):
        pre = list(map(float, self.prefix))
        if not all(map(math.isfinite, pre)):
            raise InvalidStream("non-finite value in stream prefix")
        tail = self.tail
        if not isinstance(tail, (Constant, Periodic)):
            raise InvalidStream(f"not a tail spec: {tail!r}")
        if isinstance(tail, Periodic):
            cyc = list(_minimal_cycle(tail.cycle))
            if len(cyc) == 1:
                tail = Constant(cyc[0])
        if isinstance(tail, Constant):
            while pre and pre[-1] == tail.value:
                pre.pop()
        else:
            # Absorb prefix entries that already follow the cycle; each
            # absorbed entry rotates the cycle's phase back by one.
            while pre and pre[-1] == cyc[-1]:
                pre.pop()
                cyc.insert(0, cyc.pop())
            tail = Periodic(tuple(cyc))
        object.__setattr__(self, "prefix", tuple(pre))
        object.__setattr__(self, "tail", tail)

    # -- accessors ---------------------------------------------------------

    @property
    def period(self) -> int:
        """Length of the tail cycle (1 for a constant tail)."""
        return 1 if isinstance(self.tail, Constant) else len(self.tail.cycle)

    @property
    def tail_cycle(self) -> tuple[float, ...]:
        if isinstance(self.tail, Constant):
            return (self.tail.value,)
        return self.tail.cycle

    def value_at(self, t: int) -> float:
        return value_at(self, t)

    def values(self, n: int) -> list[float]:
        """First ``n`` terms, materialized."""
        return [value_at(self, t) for t in range(n)]

    def sup_norm(self) -> float:
        vals = list(self.prefix) + list(self.tail_cycle)
        return max(abs(v) for v in vals)

    # -- operator sugar (thin wrappers over the module functions) ----------

    def __add__(self, other: "Stream") -> "Stream":
        return add(self, other)

    def __rmul__(self, a: float) -> "Stream":
        return scale_translate(self, a, 0.0)


def make_stream(prefix: Iterable[float], tail: TailSpec) -> Stream:
    """Build a canonical stream from a prefix and a tail spec.

    Raises:
        InvalidStream: if any value is non-finite.
    """
    return Stream(tuple(prefix), tail)


def constant_stream(theta: float) -> Stream:
    return Stream((), Constant(theta))


def value_at(x: Stream, t: int) -> float:
    """The term x_t. Requires t >= 0."""
    if t < 0:
        raise InvalidStream(f"negative time index {t}")
    if t < len(x.prefix):
        return x.prefix[t]
    return _tail_at(x.tail, t - len(x.prefix))


def _aligned(x: Stream, y: Stream) -> tuple[int, TailSpec, TailSpec]:
    n = max(len(x.prefix), len(y.prefix))
    return (n,
            _rotated(x.tail, n - len(x.prefix)),
            _rotated(y.tail, n - len(y.prefix)))


def add(x: Stream, y: Stream) -> Stream:
    """Exact pointwise sum.

    Prefixes align to the longer one; two constant tails sum to a constant
    tail, otherwise the result cycles with period lcm of the tail periods.
    """
    n, tx, ty = _aligned(x, y)
    pre = tuple(value_at(x, t) + value_at(y, t) for t in range(n))
    if isinstance(tx, Constant) and isinstance(ty, Constant):
        tail: TailSpec = Constant(tx.value + ty.value)
    else:
        q = math.lcm(x.period, y.period)
        tail = Periodic(tuple(_tail_at(tx, k) + _tail_at(ty, k) for k in range(q)))
    return Stream(pre, tail)


def scale_translate(x: Stream, a: float, theta: float = 0.0) -> Stream:
    """Pointwise a * x_t + theta, exact in the representation.

    Raises:
        InvalidScale: if a < 0 (only nonnegative rescalings preserve order).
    """
    if a < 0:
        raise InvalidScale(f"scale factor must be >= 0, got {a}")
    pre = tuple(a * v + theta for v in x.prefix)
    if isinstance(x.tail, Constant):
        tail: TailSpec = Constant(a * x.tail.value + theta)
    else:
        tail = Periodic(tuple(a * v + theta for v in x.tail.cycle))
    return Stream(pre, tail)


def mixtures(x: Stream, z: Stream, lams) -> list[Stream]:
    """The streams lam * x + (1 - lam) * z, one per lam in ``lams``.

    Each is ``add(scale_translate(x, lam), scale_translate(z, 1 - lam))``:
    its values ``(lam * x_t + 0.0) + ((1 - lam) * z_t + 0.0)`` are computed
    for every lam at once with numpy, over the longer prefix and one
    common period, and canonicalized by :class:`Stream` as usual.

    Raises:
        InvalidScale: if a lam lies outside [0, 1].
    """
    lam = np.array(lams, dtype=float).reshape(-1, 1)
    if not ((lam >= 0.0) & (lam <= 1.0)).all():
        raise InvalidScale("mixing weights must lie in [0, 1]")
    n = max(len(x.prefix), len(z.prefix))
    m = n + math.lcm(x.period, z.period)
    vals = (lam * np.array(x.values(m)) + 0.0) + ((1.0 - lam) * np.array(z.values(m)) + 0.0)
    return [Stream(row[:n], Periodic(row[n:])) for row in vals.tolist()]


def delay(x: Stream) -> Stream:
    """Prepend a zero period: (0, x_0, x_1, ...)."""
    return Stream((0.0,) + x.prefix, x.tail)


def shift_left(x: Stream) -> Stream:
    """Drop the current period: (x_1, x_2, ...)."""
    if x.prefix:
        return Stream(x.prefix[1:], x.tail)
    return Stream((), _rotated(x.tail, 1))


def _as_mapping(sigma, bound: int | None = None) -> tuple[int, ...]:
    """Normalize permutation input to an explicit image list on {0..M-1}.

    Accepts either an explicit mapping [sigma(0), ..., sigma(M-1)] or a list
    of index pairs interpreted as transpositions composed left to right.
    With ``bound``, a transposition index outside [0, bound) is rejected
    before the image list (of length max index + 1) is built.
    """
    sigma = list(sigma)
    if not sigma:
        return ()
    if all(isinstance(e, (tuple, list)) and len(e) == 2 for e in sigma):
        pairs = [(int(i), int(j)) for i, j in sigma]
        if any(i < 0 or j < 0 for i, j in pairs):
            raise InvalidPermutation("negative index in transposition")
        m = max(max(pair) for pair in pairs) + 1
        if bound is not None and m > bound:
            raise InvalidPermutation(f"transposition index {m - 1} outside 0..{bound - 1}")
        mapping = list(range(m))
        for i, j in pairs:
            mapping[i], mapping[j] = mapping[j], mapping[i]
    else:
        try:
            mapping = [int(e) for e in sigma]
        except (TypeError, ValueError) as exc:
            raise InvalidPermutation(f"cannot interpret permutation: {sigma!r}") from exc
    if sorted(mapping) != list(range(len(mapping))):
        raise InvalidPermutation(f"not a bijection on 0..{len(mapping) - 1}: {mapping}")
    return tuple(mapping)


def permute(x: Stream, sigma) -> Stream:
    """Rearrange finitely many terms: result_t = x_{sigma(t)} for t < M.

    ``sigma`` must be a bijection on {0..M-1}; all indices >= M are fixed.
    Tail values needed under the permutation are materialized into the
    prefix first.

    Raises:
        InvalidPermutation: if sigma is not a bijection on its support.
    """
    mapping = _as_mapping(sigma)
    m = len(mapping)
    n = max(m, len(x.prefix))
    pre = tuple(value_at(x, mapping[t]) if t < m else value_at(x, t)
                for t in range(n))
    return Stream(pre, _rotated(x.tail, n - len(x.prefix)))


def inverse_permutation(sigma) -> tuple[int, ...]:
    mapping = _as_mapping(sigma)
    inv = [0] * len(mapping)
    for t, s in enumerate(mapping):
        inv[s] = t
    return tuple(inv)


def pairwise_swap(x: Stream) -> Stream:
    """Swap every adjacent pair of terms: indices 2i and 2i+1, for all i.

    Unlike :func:`permute` this acts on the whole sequence, not a finite
    window; the result is still eventually periodic.
    """
    n = len(x.prefix)
    ln = n + (n % 2)
    vals = x.values(ln)
    pre = tuple(vals[t + 1] if t % 2 == 0 else vals[t - 1] for t in range(ln))
    tail = _rotated(x.tail, ln - n)
    if isinstance(tail, Periodic):
        p = len(tail.cycle)
        q = math.lcm(p, 2)
        tail = Periodic(tuple(tail.cycle[(k + 1) % p] if k % 2 == 0
                              else tail.cycle[(k - 1) % p] for k in range(q)))
    return Stream(pre, tail)


def sup_distance(x: Stream, y: Stream) -> float:
    """Exact sup over t of |x_t - y_t|.

    The sup is attained on the aligned prefix or within one lcm window of
    the two tails, so a finite scan is exact.
    """
    n, tx, ty = _aligned(x, y)
    q = math.lcm(x.period, y.period)
    best = 0.0
    for t in range(n):
        best = max(best, abs(value_at(x, t) - value_at(y, t)))
    for k in range(q):
        best = max(best, abs(_tail_at(tx, k) - _tail_at(ty, k)))
    return best


# -- JSON encoding ----------------------------------------------------------
#
# {"prefix": [...], "tail": {"constant": c}} or
# {"prefix": [...], "tail": {"periodic": [...]}}; "prefix" may be omitted.

def stream_to_dict(x: Stream) -> dict:
    if isinstance(x.tail, Constant):
        tail = {"constant": x.tail.value}
    else:
        tail = {"periodic": list(x.tail.cycle)}
    return {"prefix": list(x.prefix), "tail": tail}


def stream_from_dict(data: dict) -> Stream:
    if not isinstance(data, dict) or "tail" not in data:
        raise ParseError("stream object needs a 'tail' entry", field="tail")
    tail_data = data["tail"]
    if not isinstance(tail_data, dict):
        raise ParseError("stream tail must be an object", field="tail")
    with decoding("stream"):
        if "constant" in tail_data:
            tail: TailSpec = Constant(tail_data["constant"])
        elif "periodic" in tail_data:
            tail = Periodic(tuple(tail_data["periodic"]))
        else:
            raise ParseError("tail must carry 'constant' or 'periodic'", field="tail")
        return make_stream(data.get("prefix", []), tail)
