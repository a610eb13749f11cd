"""Exact arithmetic on eventually periodic bounded utility streams.

A stream is a bounded real sequence stored as its canonical prefix and
cycle, the cycle repeated forever; :class:`Constant` (a cycle of one) and
:class:`Periodic` are how its tail is written.  This class is closed under
every operation the package applies (pointwise sums, nonnegative affine
maps, delay, left shift, finite permutations), and it admits closed-form
discounted sums and long-run averages, so identities can be verified
exactly instead of through truncation.

Construction always canonicalizes: cycles are reduced to their minimal
period, and prefix entries that merely replay the tail are absorbed into
it, so a repeated value is a constant tail.  Canonicalization
never changes pointwise values, so two streams are equal (``==``) exactly
when they agree at every index.

Every pointwise operation reads its operands' values on one aligned
window, ``[0, n + lcm(periods))`` with ``n`` the longest prefix, maps
them to ``vals`` and returns the stream ``vals[:n]`` then ``vals[n:]``
repeated, so no operation has tail branches.  Such a result is validated
once (new values are checked finite; values moved from a stream are
finite already) and canonicalized by the one helper the constructor
uses, without running the constructor's checks a second time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import (InvalidPermutation, InvalidScale, InvalidStream, ParseError,
                     decoding, numeric, tagged)

#: Most terms in an aligned window; a sum takes about 80 bytes a term.
MAX_WINDOW = 1 << 21


@dataclass(frozen=True)
class Constant:
    """Tail that repeats a single value forever."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise InvalidStream(f"non-finite tail value {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def cycle(self) -> tuple[float, ...]:
        return (self.value,)


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
    for d in range(1, n):
        # Period d: every entry equals the one d places before it (the
        # first entry decides most candidates without a slice).
        if n % d == 0 and cycle[d] == cycle[0] and cycle[d:] == cycle[:n - d]:
            return cycle[:d]
    return cycle


def _unchecked(cls, **fields):
    """An instance of ``cls`` with ``fields`` set and no constructor run:
    for fields that are already valid and canonical."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _canonical(pre: Sequence[float],
               cyc: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Canonical prefix and cycle of the finite floats ``pre`` followed by
    ``cyc`` repeated: the cycle reduced to its minimal period and prefix
    entries that replay it absorbed.  A tuple ``cyc`` that is canonical
    already comes back as the same object."""
    minimal = _minimal_cycle(cyc)
    n, p = len(pre), len(minimal)
    # Absorb pre[k - 1] while it equals the cycle continued backwards; the
    # cycle then starts s places on, where the kept prefix ends.
    k = n
    while k and pre[k - 1] == minimal[(k - 1 - n) % p]:
        k -= 1
    s = (k - n) % p
    return tuple(pre[:k]), minimal[s:] + minimal[:s]


def canonicalize_tail(tail: TailSpec) -> TailSpec:
    """Phase-free normal form of a tail.

    The tail of ``Stream((), tail)`` (minimal period, length-1 cycles
    folded into :class:`Constant`), with the cycle in its lexicographically
    least rotation (the tie-breaking rule for comparing tails regardless of
    where the prefix ends).
    """
    cyc = Stream((), tail).tail_cycle
    return Stream((), Periodic(min(cyc[k:] + cyc[:k] for k in range(len(cyc))))).tail


@dataclass(frozen=True, init=False)
class Stream:
    """Eventually periodic bounded sequence, stored as its canonical
    ``prefix`` and ``tail_cycle``.  ``value_at(t)`` is ``prefix[t]`` for
    ``t < len(prefix)`` and the cycle's value at offset ``t - len(prefix)``
    afterwards.  Instances are immutable and all operations are pure, so
    unrestricted concurrent use is safe.
    """

    prefix: tuple[float, ...]
    tail_cycle: tuple[float, ...]

    def __init__(self, prefix: Iterable[float] = (), tail: TailSpec = Constant(0.0)):
        pre = tuple(map(float, prefix))
        if not all(map(math.isfinite, pre)):
            raise InvalidStream("non-finite value in stream prefix")
        if not isinstance(tail, (Constant, Periodic)):
            raise InvalidStream(f"not a tail spec: {tail!r}")
        prefix, cycle = _canonical(pre, tail.cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_cycle", cycle)

    @staticmethod
    def from_values(vals: list[float], n: int) -> "Stream":
        """The stream ``vals[:n]`` then ``vals[n:]`` repeated, for floats,
        as ``Stream(vals[:n], Periodic(vals[n:]))`` builds it, with one
        finiteness check and the constructor's message: a bad cycle value
        is named before a bad prefix value, as the tail is built before
        the stream."""
        if not all(map(math.isfinite, vals)):
            where = "stream prefix" if all(map(math.isfinite, vals[n:])) else "periodic cycle"
            raise InvalidStream(f"non-finite value in {where}")
        return _stream(vals[:n], vals[n:])

    # -- accessors ---------------------------------------------------------

    @property
    def tail(self) -> TailSpec:
        """The tail spec of the cycle: :class:`Constant` for a cycle of one."""
        cyc = self.tail_cycle
        return (_unchecked(Constant, value=cyc[0]) if len(cyc) == 1
                else _unchecked(Periodic, cycle=cyc))

    @property
    def period(self) -> int:
        """Length of the tail cycle (1 for a constant tail)."""
        return len(self.tail_cycle)

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
    values on [0, n + lcm(q, periods)), checked against :data:`MAX_WINDOW`
    before any list is built."""
    for x in xs:
        n, q = max(n, len(x.prefix)), math.lcm(q, x.period)
    if n + q > MAX_WINDOW:
        raise InvalidStream(f"aligned window of {n} + {q} terms exceeds {MAX_WINDOW}")
    return n, [x.values(n + q) for x in xs]


def _stream(pre: Sequence[float], cyc: Sequence[float]) -> Stream:
    """The canonical stream ``pre`` then ``cyc`` repeated, for finite
    floats: no constructor runs."""
    prefix, cycle = _canonical(pre, cyc)
    return _unchecked(Stream, prefix=prefix, tail_cycle=cycle)


def add(x: Stream, y: Stream) -> Stream:
    """Exact pointwise sum.

    The result cycles from the longer prefix on, with period dividing the
    lcm of the tail periods.
    """
    n, (vx, vy) = _window((x, y))
    return Stream.from_values([a + b for a, b in zip(vx, vy)], n)


def scale_translate(x: Stream, a: float, theta: float = 0.0) -> Stream:
    """Pointwise a * x_t + theta, exact in the representation.

    Raises:
        InvalidScale: if a < 0 (only nonnegative rescalings preserve order).
    """
    if a < 0:
        raise InvalidScale(f"scale factor must be >= 0, got {a}")
    a, theta = float(a), float(theta)
    n, (v,) = _window((x,))
    return Stream.from_values([a * t + theta for t in v], n)


def delay(x: Stream) -> Stream:
    """Prepend a zero period: (0, x_0, x_1, ...)."""
    return _stream((0.0,) + x.prefix, x.tail_cycle)


def shift_left(x: Stream) -> Stream:
    """Drop the current period: (x_1, x_2, ...)."""
    n, (v,) = _window((x,), n=1)
    return _stream(v[1:n], v[n:])


def _index(e) -> int:
    """A permutation index: an integral number, as an int."""
    try:
        i = int(e)
        if i == e:
            return i
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidPermutation(f"permutation index {e!r} is not an integer")


def permutation_mapping(sigma, bound: int | None = None) -> tuple[int, ...]:
    """Normalize permutation input to an explicit image list on {0..M-1}.

    Accepts either an explicit mapping [sigma(0), ..., sigma(M-1)] or a list
    of index pairs interpreted as transpositions composed left to right.
    Every index is an integral number.  With ``bound``, a transposition
    index outside [0, bound) is rejected before the image list (of length
    max index + 1) is built.
    """
    sigma = list(sigma)
    if not sigma:
        return ()
    if all(isinstance(e, (tuple, list)) and len(e) == 2 for e in sigma):
        pairs = [(_index(i), _index(j)) for i, j in sigma]
        if any(i < 0 or j < 0 for i, j in pairs):
            raise InvalidPermutation("negative index in transposition")
        m = max(max(pair) for pair in pairs) + 1
        if bound is not None and m > bound:
            raise InvalidPermutation(f"transposition index {m - 1} outside 0..{bound - 1}")
        mapping = list(range(m))
        for i, j in pairs:
            mapping[i], mapping[j] = mapping[j], mapping[i]
    else:
        mapping = [_index(e) for e in sigma]
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
    return _stream(vals[:n], vals[n:])


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
    return _stream(vals[:n], vals[n:])


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
    cyc = x.tail_cycle
    tail = {"constant": cyc[0]} if len(cyc) == 1 else {"periodic": list(cyc)}
    return {"prefix": list(x.prefix), "tail": tail}


def stream_from_dict(data: dict) -> Stream:
    if not isinstance(data, dict) or "tail" not in data:
        raise ParseError("stream object needs a 'tail' entry", field="tail")
    tag, body = tagged(data["tail"], "tail", ("constant", "periodic"))
    with decoding("stream"):
        numeric(body, tag)
        tail: TailSpec = Constant(body) if tag == "constant" else Periodic(tuple(body))
        return make_stream(numeric(data.get("prefix", []), "prefix"), tail)
