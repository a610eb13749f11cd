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

Every pointwise operation reads its operands' values on one aligned
window, ``[0, n + lcm(periods))`` with ``n`` the longest prefix, maps
them to ``vals`` and returns ``Stream(vals[:n], Periodic(vals[n:]))``:
the constructor does the rest, so no operation has tail branches.
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

    The tail of ``Stream((), tail)`` (minimal period, length-1 cycles
    folded into :class:`Constant`), with the cycle in its lexicographically
    least rotation (the tie-breaking rule for comparing tails regardless of
    where the prefix ends).
    """
    tail = Stream((), tail).tail
    if isinstance(tail, Constant):
        return tail
    cyc = tail.cycle
    return Periodic(min(cyc[k:] + cyc[:k] for k in range(len(cyc))))


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
        if not isinstance(self.tail, (Constant, Periodic)):
            raise InvalidStream(f"not a tail spec: {self.tail!r}")
        cyc = list(_minimal_cycle(self.tail_cycle))
        # Absorb prefix entries that already follow the cycle; each
        # absorbed entry rotates the cycle's phase back by one.
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc.insert(0, cyc.pop())
        object.__setattr__(self, "prefix", tuple(pre))
        # A tail given in canonical form is kept as it is.
        if isinstance(self.tail, Periodic) and (len(cyc) == 1 or tuple(cyc) != self.tail.cycle):
            object.__setattr__(self, "tail", Constant(cyc[0]) if len(cyc) == 1 else Periodic(tuple(cyc)))

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
        """First ``n`` terms, materialized: the prefix, then the cycle
        repeated as often as needed (none for ``n <= 0``)."""
        rest, cyc = max(n - len(self.prefix), 0), self.tail_cycle
        return list(self.prefix[:max(n, 0)]) + list(cyc * (rest // len(cyc) + 1))[:rest]

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
    return x.tail_cycle[(t - len(x.prefix)) % x.period]


def _window(xs: Sequence[Stream], n: int = 0, q: int = 1) -> tuple[int, list[list[float]]]:
    """The aligned window of ``xs``: the index ``n`` where a common cycle
    starts (the longest prefix, and at least ``n``), and each stream's
    values on [0, n + lcm(q, periods))."""
    for x in xs:
        n, q = max(n, len(x.prefix)), math.lcm(q, x.period)
    return n, [x.values(n + q) for x in xs]


def add(x: Stream, y: Stream) -> Stream:
    """Exact pointwise sum.

    The result cycles from the longer prefix on, with period dividing the
    lcm of the tail periods.
    """
    n, (vx, vy) = _window((x, y))
    vals = [a + b for a, b in zip(vx, vy)]
    return Stream(vals[:n], Periodic(vals[n:]))


def scale_translate(x: Stream, a: float, theta: float = 0.0) -> Stream:
    """Pointwise a * x_t + theta, exact in the representation.

    Raises:
        InvalidScale: if a < 0 (only nonnegative rescalings preserve order).
    """
    if a < 0:
        raise InvalidScale(f"scale factor must be >= 0, got {a}")
    n, (v,) = _window((x,))
    vals = [a * t + theta for t in v]
    return Stream(vals[:n], Periodic(vals[n:]))


def mixtures(x: Stream, z: Stream, lams) -> list[Stream]:
    """The streams lam * x + (1 - lam) * z, one per lam in ``lams``.

    Each is ``add(scale_translate(x, lam), scale_translate(z, 1 - lam))``:
    its values ``(lam * x_t + 0.0) + ((1 - lam) * z_t + 0.0)`` are computed
    on the aligned window for every lam at once with numpy.

    Raises:
        InvalidScale: if a lam lies outside [0, 1].
    """
    lam = np.array(lams, dtype=float).reshape(-1, 1)
    if not ((lam >= 0.0) & (lam <= 1.0)).all():
        raise InvalidScale("mixing weights must lie in [0, 1]")
    n, (vx, vz) = _window((x, z))
    vals = (lam * np.array(vx) + 0.0) + ((1.0 - lam) * np.array(vz) + 0.0)
    return [Stream(row[:n], Periodic(row[n:])) for row in vals.tolist()]


def delay(x: Stream) -> Stream:
    """Prepend a zero period: (0, x_0, x_1, ...)."""
    return Stream((0.0,) + x.prefix, x.tail)


def shift_left(x: Stream) -> Stream:
    """Drop the current period: (x_1, x_2, ...)."""
    n, (v,) = _window((x,), n=1)
    return Stream(v[1:n], Periodic(v[n:]))


def permutation_mapping(sigma, bound: int | None = None) -> tuple[int, ...]:
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

    Raises:
        InvalidPermutation: if sigma is not a bijection on its support.
    """
    mapping = permutation_mapping(sigma)
    n, (v,) = _window((x,), n=len(mapping))
    vals = [v[s] for s in mapping] + v[len(mapping):]
    return Stream(vals[:n], Periodic(vals[n:]))


def inverse_permutation(sigma) -> tuple[int, ...]:
    mapping = permutation_mapping(sigma)
    inv = [0] * len(mapping)
    for t, s in enumerate(mapping):
        inv[s] = t
    return tuple(inv)


def pairwise_swap(x: Stream) -> Stream:
    """Swap every adjacent pair of terms: indices 2i and 2i+1, for all i.

    Unlike :func:`permute` this acts on the whole sequence, not a finite
    window; the result is still eventually periodic.  Its window starts at
    an even index and spans an even number of terms, so pairs stay inside.
    """
    n, (v,) = _window((x,), n=len(x.prefix) + len(x.prefix) % 2, q=2)
    vals = [v[t ^ 1] for t in range(len(v))]
    return Stream(vals[:n], Periodic(vals[n:]))


def sup_distance(x: Stream, y: Stream) -> float:
    """Exact sup over t of |x_t - y_t|.

    The sup is attained on the aligned window, so a finite scan is exact.
    """
    _, (vx, vy) = _window((x, y))
    return max(abs(a - b) for a, b in zip(vx, vy))


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
