import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempora import (Constant, Periodic, Stream, add, canonicalize_tail,
                     constant_stream, delay, make_stream, pairwise_swap,
                     permute, random_stream, scale_translate, shift_left,
                     stream_from_dict, stream_to_dict, sup_distance, value_at)
from tempora.errors import (InvalidPermutation, InvalidScale, InvalidStream,
                            ParseError)
from tempora.axioms import MatrixTransform, _mixture_rows, mixtures
from tempora.streams import (MAX_WINDOW, _canonical, _minimal_cycle, inverse_permutation,
                             permutation_mapping)

from conftest import spy, streams

ALT = make_stream([], Periodic((0.0, 1.0)))          # 0,1,0,1,...
ALT_NEG = make_stream([], Periodic((1.0, -1.0)))     # 1,-1,1,-1,...


def brute(x, n):
    return [value_at(x, t) for t in range(n)]


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_make_stream_zero():
    z = make_stream([], Constant(0.0))
    assert brute(z, 5) == [0.0] * 5


def test_make_stream_absorbs_periodic_prefix():
    x = make_stream([0.0, 1.0], Periodic((0.0, 1.0)))
    assert x == ALT
    assert x.prefix == ()
    assert x.tail == Periodic((0.0, 1.0))


def test_make_stream_folds_singleton_cycle():
    x = make_stream([1.0], Periodic((5.0,)))
    assert x.prefix == (1.0,)
    assert x.tail == Constant(5.0)


def test_make_stream_reduces_cycle_to_minimal_period():
    x = make_stream([], Periodic((0.0, 1.0, 0.0, 1.0)))
    assert x.tail == Periodic((0.0, 1.0))
    assert x == ALT


def test_a_canonical_stream_keeps_its_tail_object(rng):
    xs = [random_stream(rng) for _ in range(200)]
    xs += [make_stream([1.0, -0.0], Constant(-0.0)), make_stream([2.0], Periodic((0.0, -0.0, 1.0)))]
    # The tail is stored as its cycle, and a canonical cycle is not rebuilt.
    for x in xs:
        y = Stream(x.prefix, x.tail)
        assert bits(y) == bits(x)
        # A cycle of one comes back as a new tuple around the same float.
        assert y.tail_cycle is x.tail_cycle if x.period > 1 else y.tail_cycle[0] is x.tail_cycle[0]
    # A tail that is not canonical is still rebuilt.
    assert make_stream([1.0], Periodic((5.0, 5.0))).tail == Constant(5.0)
    assert make_stream([1.0], Periodic((0.0, 1.0))).tail == Periodic((1.0, 0.0))


def test_non_finite_values_rejected():
    with pytest.raises(InvalidStream):
        make_stream([float("nan")], Constant(0.0))
    with pytest.raises(InvalidStream):
        make_stream([0.0], Constant(float("inf")))
    with pytest.raises(InvalidStream):
        make_stream([], Periodic(()))


@pytest.mark.parametrize("build", [lambda tail: Stream((), tail), canonicalize_tail],
                         ids=["Stream", "canonicalize_tail"])
@pytest.mark.parametrize("tail", [0.5, None, (1.0, 2.0), {"constant": 0.5}])
def test_a_tail_that_is_no_tail_spec_is_rejected(build, tail):
    with pytest.raises(InvalidStream, match="not a tail spec"):
        build(tail)


def test_the_operators_are_add_and_scale():
    x, y = make_stream([3.0, -2.0], Periodic((1.0, 4.0, 2.0))), ALT_NEG
    assert x + y == add(x, y)
    assert bits(2.5 * x) == bits(scale_translate(x, 2.5))
    with pytest.raises(InvalidScale):
        -1.0 * x


def test_equality_is_pointwise_not_representational():
    assert make_stream([2.0, 0.0, 1.0], Periodic((0.0, 1.0))) == \
        make_stream([2.0], Periodic((0.0, 1.0, 0.0, 1.0)))


def test_sup_norm_over_prefix_and_tail():
    x = make_stream([-9.0, 2.0], Periodic((1.0, -3.0)))
    assert x.sup_norm() == 9.0
    assert constant_stream(-2.5).sup_norm() == 2.5


def test_canonicalize_tail_lex_least_rotation():
    assert canonicalize_tail(Periodic((3.0, 1.0, 2.0))) == Periodic((1.0, 2.0, 3.0))
    assert canonicalize_tail(Periodic((7.0,))) == Constant(7.0)
    assert canonicalize_tail(Periodic((4.0, 4.0))) == Constant(4.0)
    assert canonicalize_tail(Constant(1.0)) == Constant(1.0)


# ---------------------------------------------------------------------------
# value_at
# ---------------------------------------------------------------------------

def test_value_at_examples():
    assert value_at(make_stream([-1.0], Constant(0.0)), 0) == -1.0
    assert value_at(ALT, 5) == 1.0
    assert value_at(make_stream([7.0], Constant(3.0)), 99) == 3.0


def test_value_at_rejects_negative_index():
    with pytest.raises(InvalidStream):
        value_at(ALT, -1)


# ---------------------------------------------------------------------------
# add
# ---------------------------------------------------------------------------

def test_add_alternating_pair():
    out = add(ALT, ALT_NEG)
    assert out == make_stream([], Periodic((1.0, 0.0)))


def test_add_zero_is_identity():
    x = make_stream([3.0, -2.0], Periodic((1.0, 4.0, 2.0)))
    assert add(x, constant_stream(0.0)) == x


def test_add_lcm_cycle_brute_force():
    x = make_stream([], Periodic((0.0, 1.0)))
    y = make_stream([], Periodic((0.0, 0.0, 3.0)))
    out = add(x, y)
    assert out.period == 6
    for t in range(12):
        assert value_at(out, t) == value_at(x, t) + value_at(y, t)


def coprime_pair(p, q):
    """Two purely periodic streams of minimal periods ``p`` and ``q`` (primes)."""
    return (make_stream([], Periodic(tuple(float(i % 7) for i in range(p)))),
            make_stream([], Periodic(tuple(float(i % 5) for i in range(q)))))


def test_coprime_periods_under_the_window_cap_add_exactly():
    x, y = coprime_pair(1009, 1013)
    out = add(x, y)
    assert 1009 * 1013 <= MAX_WINDOW and out.period == 1009 * 1013
    for t in (0, 1008, 1013, 1022116, 1022117 + 77):
        assert value_at(out, t) == value_at(x, t) + value_at(y, t)


def test_add_past_the_window_cap_raises_before_building_a_list(monkeypatch):
    x, y = coprime_pair(10007, 10009)
    built = spy(monkeypatch, Stream, "values")
    with pytest.raises(InvalidStream, match=f"aligned window of 0 \\+ {10007 * 10009} terms"):
        add(x, y)
    assert built == []


@settings(max_examples=60)
@given(streams(), streams())
def test_add_commutes_with_value_at(x, y):
    out = add(x, y)
    for t in range(40):
        assert value_at(out, t) == value_at(x, t) + value_at(y, t)


# ---------------------------------------------------------------------------
# scale_translate
# ---------------------------------------------------------------------------

def test_scale_translate_examples():
    one = constant_stream(1.0)
    assert scale_translate(one, 1.0, 2.5) == constant_stream(3.5)
    x = make_stream([9.0], Periodic((1.0, 2.0)))
    assert scale_translate(x, 0.0, 4.0) == constant_stream(4.0)
    assert scale_translate(make_stream([1.0, 2.0], Constant(0.0)), 2.0, 1.0) == \
        make_stream([3.0, 5.0], Constant(1.0))


def test_scale_translate_rejects_negative_scale():
    with pytest.raises(InvalidScale):
        scale_translate(ALT, -1.0, 0.0)


@settings(max_examples=40)
@given(streams(), st.floats(0.0, 4.0), st.floats(-5.0, 5.0))
def test_scale_translate_pointwise(x, a, theta):
    out = scale_translate(x, a, theta)
    for t in range(30):
        assert out.value_at(t) == a * x.value_at(t) + theta


# ---------------------------------------------------------------------------
# mixtures: the segment lam * x + (1 - lam) * z, built with numpy
# ---------------------------------------------------------------------------

def bits(x):
    """A stream's representation as bit patterns, so signed zeros count."""
    return ([v.hex() for v in x.prefix], type(x.tail).__name__,
            [v.hex() for v in x.tail_cycle])


def reference_mix(x, z, lam):
    return add(scale_translate(x, lam), scale_translate(z, 1.0 - lam))


#: Pairs whose mixes canonicalize to a shorter prefix or period: mirrored
#: cycles meet in a constant at lam 1/2, equal tails leave the prefix
#: alone, and at lam 0 or 1 one side's prefix or cycle vanishes.
SHRINKING_PAIRS = [
    (make_stream([], Periodic((1.0, 0.0))), make_stream([], Periodic((0.0, 1.0)))),
    (make_stream([3.0, -0.0], Periodic((1.0, 2.0))), make_stream([-0.0], Periodic((2.0, 1.0)))),
    (make_stream([4.0, 1.0, 2.0], Constant(-0.0)), make_stream([], Periodic((-1.0, 0.0, 5.0)))),
    (make_stream([2.0, 2.0], Constant(2.0)), constant_stream(2.0)),
    (make_stream([1.0], Periodic((1.0, 3.0, 1.0, 3.0))), make_stream([-0.0, 0.0], Constant(0.0))),
]


def test_mixtures_match_add_of_scaled_streams_bit_for_bit(rng):
    pairs = SHRINKING_PAIRS + [(random_stream(rng), random_stream(rng)) for _ in range(60)]
    lams = [0.0, 1.0, 0.5, 1 / 3, 1e-4, 1 - 1e-4] + rng.uniform(0.0, 1.0, 10).tolist()
    shorter = 0
    for x, z in pairs:
        for lam, got in zip(lams, mixtures(x, z, lams)):
            want = reference_mix(x, z, lam)
            assert got == want and bits(got) == bits(want)
            longest = max(len(x.prefix), len(z.prefix))
            shorter += len(got.prefix) < longest or got.period < max(x.period, z.period)
    assert shorter >= 2 * len(SHRINKING_PAIRS)


def test_mixtures_of_the_segment_grid_match_the_per_point_mix(rng):
    x, z = random_stream(rng), random_stream(rng)
    lams = [i / 10000 for i in range(10001)]
    for lam, got in zip(lams, mixtures(x, z, lams)):
        assert bits(got) == bits(reference_mix(x, z, lam))


def test_mixtures_reject_weights_outside_the_unit_interval():
    assert mixtures(ALT, ALT_NEG, []) == []
    for lam in (-0.1, 1.5, float("nan")):
        with pytest.raises(InvalidScale):
            mixtures(ALT, ALT_NEG, [0.5, lam])


#: Few values, signed zeros among them, so that mixes tie often; tails of
#: periods whose pairwise lcm stays within 12.
mix_values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5])
mix_tails = st.one_of(
    st.builds(Constant, mix_values),
    st.sampled_from([1, 2, 3, 4, 6, 12]).flatmap(
        lambda p: st.lists(mix_values, min_size=p, max_size=p)).map(lambda c: Periodic(tuple(c))))
mix_streams = st.builds(make_stream, st.lists(mix_values, max_size=4), mix_tails)


@settings(max_examples=300, deadline=None)
@given(mix_streams, mix_streams, st.booleans(),
       st.lists(st.sampled_from([0.25, 1 / 3, 0.75]) | st.floats(0.0, 1.0), max_size=4))
# The mix of mirrored cycles is constant at 1/2; periods 2 against 3.
@example(make_stream([], Periodic((1.0, 2.0))), make_stream([], Periodic((2.0, 1.0))), False, [])
@example(make_stream([], Periodic((1.0, 2.0))), make_stream([0.5], Periodic((0.0, 1.0, 2.0))),
         False, [])
@example(make_stream([-0.0], Constant(0.0)), make_stream([0.0, -0.0], Constant(-0.0)), False, [])
def test_mixture_rows_mask_every_row_that_canonicalization_changes(x, z, same, lams):
    # The mask may flag more rows than canonicalization changes, never
    # fewer: an unflagged row is its stream's canonical prefix and cycle.
    z = x if same else z
    lams = [0.0, 1.0, 0.5] + lams
    n, vals, mask = _mixture_rows(x, z, lams)
    assert vals.shape == (len(lams), n + math.lcm(x.period, z.period))
    for row, masked, got in zip(vals.tolist(), mask.tolist(), mixtures(x, z, lams)):
        prefix, cycle = _canonical(row[:n], row[n:])
        unchanged = len(prefix) == n and [v.hex() for v in prefix + cycle] == [v.hex() for v in row]
        assert masked or unchanged
        kind = "Constant" if len(cycle) == 1 else "Periodic"
        assert bits(got) == ([v.hex() for v in prefix], kind, [v.hex() for v in cycle])


def reference_minimal_cycle(cycle):
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and all(cycle[i] == cycle[i % d] for i in range(n)):
            return tuple(cycle[:d])
    return tuple(cycle)


@settings(max_examples=80)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]), min_size=1, max_size=12))
def test_minimal_cycle_matches_the_elementwise_definition(cycle):
    got = _minimal_cycle(cycle)
    want = reference_minimal_cycle(cycle)
    assert [v.hex() for v in got] == [v.hex() for v in want]


# ---------------------------------------------------------------------------
# delay / shift_left
# ---------------------------------------------------------------------------

def test_delay_examples():
    assert delay(make_stream([4.0], Constant(0.0))) == \
        make_stream([0.0, 4.0], Constant(0.0))
    assert delay(constant_stream(2.0)) == make_stream([0.0], Constant(2.0))


@settings(max_examples=60)
@given(streams())
def test_delay_pointwise(x):
    d = delay(x)
    assert d.value_at(0) == 0.0
    for t in range(21):
        assert d.value_at(t + 1) == x.value_at(t)


def test_shift_left_examples():
    assert shift_left(make_stream([1.0, 2.0], Constant(3.0))) == \
        make_stream([2.0], Constant(3.0))
    assert shift_left(ALT) == make_stream([], Periodic((1.0, 0.0)))


@settings(max_examples=60)
@given(streams())
def test_shift_left_undoes_delay(x):
    assert shift_left(delay(x)) == x
    for t in range(25):
        assert shift_left(x).value_at(t) == x.value_at(t + 1)


# ---------------------------------------------------------------------------
# permute
# ---------------------------------------------------------------------------

def test_permute_adjacent_swap_window():
    # swap sigma(2i) = 2i+1 truncated at M = 8 applied to 1,-1,1,-1,...
    sigma = [1, 0, 3, 2, 5, 4, 7, 6]
    out = permute(ALT_NEG, sigma)
    expected = [-1.0, 1.0] * 4 + [1.0, -1.0] * 3
    assert brute(out, 14) == expected


def test_permute_identity():
    assert permute(ALT, [0, 1, 2, 3]) == ALT
    assert permute(ALT, []) == ALT


def test_permute_transposition_pairs_input():
    x = make_stream([1.0, 2.0, 3.0], Constant(0.0))
    assert permute(x, [(0, 2)]) == make_stream([3.0, 2.0, 1.0], Constant(0.0))


def test_permutation_mapping_rejects_what_it_cannot_read_as_indices():
    with pytest.raises(InvalidPermutation, match="negative index"):
        permutation_mapping([(0, -1)])
    # A fractional index was once truncated ([1.5, 0.2] read as [1, 0]), and
    # a transposition of a word or an infinite index raised a bare ValueError
    # or OverflowError.
    for sigma, bad in (([1.5, 0.2], "1.5"), ([[0.5, 1]], "0.5"), (["a", "b"], "'a'"),
                       ([None, 0], "None"), ([[0, "1"]], "'1'"), ([("a", 1)], "'a'"),
                       ([math.inf], "inf"), ([(math.nan, 1)], "nan")):
        with pytest.raises(InvalidPermutation, match=f"index {bad} is not an integer"):
            permutation_mapping(sigma)
    assert permutation_mapping([1.0, np.int64(0)]) == (1, 0)
    assert permutation_mapping([(0.0, 2)]) == (2, 1, 0)


def test_permute_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        permute(ALT, [0, 0, 1])
    with pytest.raises(InvalidPermutation):
        permute(ALT, [1, 2, 3])


@settings(max_examples=50)
@given(streams(), st.permutations(list(range(6))))
def test_permute_roundtrip(x, sigma):
    assert permute(permute(x, sigma), inverse_permutation(sigma)) == x
    out = permute(x, sigma)
    for t in range(20):
        expected = x.value_at(sigma[t]) if t < len(sigma) else x.value_at(t)
        assert out.value_at(t) == expected


def test_pairwise_swap_whole_sequence():
    assert pairwise_swap(ALT_NEG) == make_stream([], Periodic((-1.0, 1.0)))
    x = make_stream([5.0], Periodic((1.0, 2.0)))
    # 5,1,2,1,2,1,... swaps pairwise to 1,5,1,2,1,2,...
    assert brute(pairwise_swap(x), 7) == [1.0, 5.0, 1.0, 2.0, 1.0, 2.0, 1.0]


@settings(max_examples=50)
@given(streams())
def test_pairwise_swap_pointwise(x):
    out = pairwise_swap(x)
    for t in range(30):
        partner = t + 1 if t % 2 == 0 else t - 1
        assert out.value_at(t) == x.value_at(partner)


# ---------------------------------------------------------------------------
# sup_distance
# ---------------------------------------------------------------------------

def test_sup_distance_examples():
    assert sup_distance(ALT, ALT) == 0.0
    assert sup_distance(constant_stream(1.0), constant_stream(0.0)) == 1.0


def test_sup_distance_windowed_oracle(rng):
    from tempora import random_stream
    for _ in range(50):
        x = random_stream(rng)
        y = random_stream(rng)
        window = 10 * math.lcm(x.period, y.period) + len(x.prefix) + len(y.prefix)
        brute_sup = max(abs(value_at(x, t) - value_at(y, t)) for t in range(window))
        assert sup_distance(x, y) == brute_sup


@settings(max_examples=40)
@given(streams(), streams(), streams())
def test_sup_distance_metric(x, y, z):
    assert sup_distance(x, y) == sup_distance(y, x)
    assert sup_distance(x, z) <= sup_distance(x, y) + sup_distance(y, z) + 1e-12
    assert sup_distance(x, x) == 0.0


def test_all_operations_commute_with_value_at_deep(rng):
    # spot check the pointwise contracts out to t = 1000
    from tempora import random_stream
    horizon = 1000
    for _ in range(10):
        x = random_stream(rng)
        y = random_stream(rng)
        a = float(rng.uniform(0.0, 3.0))
        theta = float(rng.uniform(-4.0, 4.0))
        m = int(rng.integers(2, 9))
        sigma = [int(i) for i in rng.permutation(m)]
        s = add(x, y)
        sc = scale_translate(x, a, theta)
        de = delay(x)
        sh = shift_left(x)
        pe = permute(x, sigma)
        for t in range(horizon):
            assert s.value_at(t) == x.value_at(t) + y.value_at(t)
            assert sc.value_at(t) == a * x.value_at(t) + theta
            assert de.value_at(t) == (0.0 if t == 0 else x.value_at(t - 1))
            assert sh.value_at(t) == x.value_at(t + 1)
            expected = x.value_at(sigma[t]) if t < m else x.value_at(t)
            assert pe.value_at(t) == expected


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_examples():
    d = stream_to_dict(make_stream([1.0], Constant(5.0)))
    assert d == {"prefix": [1.0], "tail": {"constant": 5.0}}
    assert stream_from_dict({"tail": {"periodic": [0, 1]}}) == ALT


@pytest.mark.parametrize("data", [
    {"prefix": ["a"], "tail": {"constant": 0}},
    {"tail": {"constant": None}},
    {"prefix": 5, "tail": {"constant": 0}},
    {"tail": {"periodic": "ab"}},
    {"tail": {"constant": 0.5, "periodic": [1, 2]}},
], ids=json.dumps)
def test_malformed_stream_is_a_parse_error(data):
    with pytest.raises(ParseError):
        stream_from_dict(data)


@settings(max_examples=80)
@given(streams())
def test_json_round_trip_lossless(x):
    encoded = json.dumps(stream_to_dict(x))
    back = stream_from_dict(json.loads(encoded))
    assert back == x
    for t in range(30):
        assert back.value_at(t) == x.value_at(t)


def test_json_round_trip_extreme_doubles():
    x = make_stream([1e-300, -0.0, 1.0 + 2 ** -52], Periodic((1e15, -1e-15)))
    back = stream_from_dict(json.loads(json.dumps(stream_to_dict(x))))
    assert back == x


# ---------------------------------------------------------------------------
# the window form against the per-operation tail branches it replaced
# ---------------------------------------------------------------------------
#
# The ref_* functions are the earlier code of each operation, verbatim but
# for the names: every tail kind handled in its own branch, the tail's
# phase rotated by hand, and values read one value_at call at a time.
# One message differs: the tail branches built the constant tail of a sum
# or affine map as a Constant, whose overflow message names the value; the
# window form reports every overflowing tail value as a cycle value (the
# message the CLI prints).  So ref_add and ref_scale_translate build that
# tail as a one-value Periodic, which the constructor folds into the same
# Constant.

def _ref_tail_at(tail, k):
    if isinstance(tail, Constant):
        return tail.value
    return tail.cycle[k % len(tail.cycle)]


def _ref_rotated(tail, k):
    if isinstance(tail, Constant) or k % len(tail.cycle) == 0:
        return tail
    r = k % len(tail.cycle)
    return Periodic(tail.cycle[r:] + tail.cycle[:r])


def ref_value_at(x, t):
    if t < 0:
        raise InvalidStream(f"negative time index {t}")
    if t < len(x.prefix):
        return x.prefix[t]
    return _ref_tail_at(x.tail, t - len(x.prefix))


def ref_values(x, n):
    return [ref_value_at(x, t) for t in range(n)]


def _ref_aligned(x, y):
    n = max(len(x.prefix), len(y.prefix))
    return (n,
            _ref_rotated(x.tail, n - len(x.prefix)),
            _ref_rotated(y.tail, n - len(y.prefix)))


def ref_add(x, y):
    n, tx, ty = _ref_aligned(x, y)
    pre = tuple(ref_value_at(x, t) + ref_value_at(y, t) for t in range(n))
    if isinstance(tx, Constant) and isinstance(ty, Constant):
        tail = Periodic((tx.value + ty.value,))
    else:
        q = math.lcm(x.period, y.period)
        tail = Periodic(tuple(_ref_tail_at(tx, k) + _ref_tail_at(ty, k) for k in range(q)))
    return Stream(pre, tail)


def ref_scale_translate(x, a, theta=0.0):
    if a < 0:
        raise InvalidScale(f"scale factor must be >= 0, got {a}")
    pre = tuple(a * v + theta for v in x.prefix)
    if isinstance(x.tail, Constant):
        tail = Periodic((a * x.tail.value + theta,))
    else:
        tail = Periodic(tuple(a * v + theta for v in x.tail.cycle))
    return Stream(pre, tail)


def ref_mixtures(x, z, lams):
    lam = np.array(lams, dtype=float).reshape(-1, 1)
    if not ((lam >= 0.0) & (lam <= 1.0)).all():
        raise InvalidScale("mixing weights must lie in [0, 1]")
    n = max(len(x.prefix), len(z.prefix))
    m = n + math.lcm(x.period, z.period)
    vals = (lam * np.array(ref_values(x, m)) + 0.0) + ((1.0 - lam) * np.array(ref_values(z, m)) + 0.0)
    return [Stream(row[:n], Periodic(row[n:])) for row in vals.tolist()]


def ref_shift_left(x):
    if x.prefix:
        return Stream(x.prefix[1:], x.tail)
    return Stream((), _ref_rotated(x.tail, 1))


def ref_permute(x, sigma):
    mapping = permutation_mapping(sigma)
    m = len(mapping)
    n = max(m, len(x.prefix))
    pre = tuple(ref_value_at(x, mapping[t]) if t < m else ref_value_at(x, t)
                for t in range(n))
    return Stream(pre, _ref_rotated(x.tail, n - len(x.prefix)))


def ref_pairwise_swap(x):
    n = len(x.prefix)
    ln = n + (n % 2)
    vals = ref_values(x, ln)
    pre = tuple(vals[t + 1] if t % 2 == 0 else vals[t - 1] for t in range(ln))
    tail = _ref_rotated(x.tail, ln - n)
    if isinstance(tail, Periodic):
        p = len(tail.cycle)
        q = math.lcm(p, 2)
        tail = Periodic(tuple(tail.cycle[(k + 1) % p] if k % 2 == 0
                              else tail.cycle[(k - 1) % p] for k in range(q)))
    return Stream(pre, tail)


def ref_sup_distance(x, y):
    n, tx, ty = _ref_aligned(x, y)
    q = math.lcm(x.period, y.period)
    best = 0.0
    for t in range(n):
        best = max(best, abs(ref_value_at(x, t) - ref_value_at(y, t)))
    for k in range(q):
        best = max(best, abs(_ref_tail_at(tx, k) - _ref_tail_at(ty, k)))
    return best


def ref_matrix_apply(matrix, d):
    n = matrix.shape[0]
    ln = max(n, len(d.prefix))
    vals = ref_values(d, ln)
    head = matrix @ np.asarray(vals[:n])
    pre = tuple(float(v) for v in head) + tuple(vals[n:])
    return Stream(pre, _ref_rotated(d.tail, ln - len(d.prefix)))


def ref_canonical(prefix, tail):
    """The earlier constructor's canonical form of (prefix, tail), as bits."""
    pre = list(map(float, prefix))
    if isinstance(tail, Periodic):
        cyc = list(_minimal_cycle(tail.cycle))
        if len(cyc) == 1:
            tail = Constant(cyc[0])
    if isinstance(tail, Constant):
        while pre and pre[-1] == tail.value:
            pre.pop()
    else:
        while pre and pre[-1] == cyc[-1]:
            pre.pop()
            cyc.insert(0, cyc.pop())
        tail = Periodic(tuple(cyc))
    cycle = (tail.value,) if isinstance(tail, Constant) else tail.cycle
    return [v.hex() for v in pre], type(tail).__name__, [v.hex() for v in cycle]


def outcome(f, *args):
    """What a call gives, down to the bits: a stream by its representation,
    floats by ``float.hex``, lists element by element, an error by its type
    and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = f(*args)
    except (InvalidStream, InvalidScale, InvalidPermutation) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, list):
        return [bits(v) if isinstance(v, Stream) else v.hex() for v in out]
    return bits(out) if isinstance(out, Stream) else out.hex()


#: Signed zeros, and values whose sums and products overflow.
edge_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e308, -1e308]),
                        st.floats(-5.0, 5.0))


@st.composite
def edge_streams(draw):
    """Prefixes up to 6 and periods 1 to 5 (a cycle of one value, or of
    equal values, is a constant tail)."""
    prefix = draw(st.lists(edge_values, max_size=6))
    cycle = draw(st.lists(edge_values, min_size=1, max_size=5))
    return Stream(tuple(prefix), Periodic(tuple(cycle)))


@settings(max_examples=400, deadline=None)
@given(edge_streams(), edge_streams(), st.sampled_from([0.0, -0.0, 0.5, 2.0, 1e308]),
       edge_values, st.integers(0, 7).flatmap(lambda m: st.permutations(list(range(m)))),
       st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 1.0]), max_size=3),
       st.integers(0, 4).flatmap(lambda k: st.lists(st.floats(-2.0, 2.0), min_size=k * k,
                                                     max_size=k * k)))
def test_window_form_has_the_bits_of_the_tail_branches(x, y, a, theta, sigma, lams, entries):
    matrix = np.array(entries).reshape((math.isqrt(len(entries)),) * 2)
    for new, ref, args in [(add, ref_add, (x, y)), (sup_distance, ref_sup_distance, (x, y)),
                           (scale_translate, ref_scale_translate, (x, a, theta)),
                           (shift_left, ref_shift_left, (x,)),
                           (permute, ref_permute, (x, sigma)),
                           (pairwise_swap, ref_pairwise_swap, (x,)),
                           (mixtures, ref_mixtures, (x, y, lams)),
                           (MatrixTransform(matrix).apply, ref_matrix_apply, (matrix, x))]:
        new_args = args[1:] if ref is ref_matrix_apply else args
        assert outcome(new, *new_args) == outcome(ref, *args), new
    for n in range(-2, 16):
        assert outcome(x.values, n) == outcome(ref_values, x, n)


#: Few distinct values, signed zeros among them, so cycles reduce and
#: prefixes are absorbed often.
few_values = st.sampled_from([0.0, -0.0, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(few_values, max_size=6),
       st.one_of(st.builds(Constant, few_values),
                 st.lists(few_values, min_size=1, max_size=6).map(lambda c: Periodic(tuple(c)))))
def test_constructor_has_the_bits_of_the_tail_branches(prefix, tail):
    assert bits(Stream(tuple(prefix), tail)) == ref_canonical(prefix, tail)


M = 1.7976931348623157e308  # the largest double


def test_an_overflow_names_the_cycle_before_the_prefix():
    prefix_only = (make_stream([M], Constant(1.0)), make_stream([M], Constant(M)))
    cycle_only = (make_stream([1.0], Periodic((M, 1.0))), make_stream([1.0], Periodic((M, 2.0))))
    both = (make_stream([M], Periodic((M, 1.0))), make_stream([M], Periodic((M, 2.0))))
    for (x, y), where in [(prefix_only, "stream prefix"), (cycle_only, "periodic cycle"),
                          (both, "periodic cycle")]:
        assert outcome(add, x, y) == ("InvalidStream", f"non-finite value in {where}")
        assert outcome(add, x, y) == outcome(ref_add, x, y)
    assert outcome(scale_translate, prefix_only[0], 2.0, 0.0) == \
        ("InvalidStream", "non-finite value in stream prefix")
    assert outcome(scale_translate, constant_stream(M), 1.0, M) == \
        ("InvalidStream", "non-finite value in periodic cycle")
    with np.errstate(over="ignore"):
        assert outcome(MatrixTransform(2.0 * np.eye(2)).apply, prefix_only[0]) == \
            ("InvalidStream", "non-finite value in stream prefix")


def test_a_matrix_product_that_overflows_raises_without_a_numpy_warning():
    # 1e309 overflows the product, and 1e309 - 1e309 is NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for matrix, x in [(1e308 * np.eye(2), make_stream([10.0], Constant(1.0))),
                          (np.array([[1e308, -1e308], [0.0, 1.0]]), constant_stream(10.0))]:
            with pytest.raises(InvalidStream, match="non-finite value in stream prefix"):
                MatrixTransform(matrix).apply(x)


@pytest.fixture
def post_inits(monkeypatch):
    """The class of each validating run of Stream (its ``__init__``),
    Periodic and Constant (their ``__post_init__``), by name."""
    runs = []
    for cls, method in ((Stream, "__init__"), (Periodic, "__post_init__"),
                        (Constant, "__post_init__")):
        spy(monkeypatch, cls, method, lambda out, self, *args, **kwargs: type(self).__name__, runs)
    return runs


def test_window_results_are_not_validated_again(rng, post_inits):
    pairs = SHRINKING_PAIRS + [(random_stream(rng), random_stream(rng)) for _ in range(20)]
    post_inits.clear()
    for x, z in pairs:
        assert len(mixtures(x, z, [i / 255 for i in range(256)])) == 256
        assert post_inits == []
        for op, args in [(add, (x, z)), (scale_translate, (x, 0.5, 1.0)), (shift_left, (x,)),
                         (permute, (x, [2, 0, 1])), (pairwise_swap, (x,)), (delay, (x,)),
                         (MatrixTransform(np.array([[0.5, 0.5], [0.25, 0.75]])).apply, (x,))]:
            op(*args)
            assert post_inits == [], op


def test_public_constructors_still_validate(post_inits):
    nan = float("nan")
    for build in [lambda: make_stream([nan], Constant(0.0)),
                  lambda: make_stream([], Periodic((1.0, nan))),
                  lambda: stream_from_dict({"prefix": [nan], "tail": {"constant": 0}}),
                  lambda: stream_from_dict({"tail": {"constant": nan}}),
                  lambda: Stream((nan,), Constant(0.0)),
                  lambda: Stream((), Constant(nan))]:
        post_inits.clear()
        with pytest.raises((InvalidStream, ParseError)) as caught:
            build()
        # stream_from_dict reports the constructor's InvalidStream as a ParseError.
        assert isinstance(caught.value, InvalidStream) or \
            isinstance(caught.value.__cause__, InvalidStream)
        assert post_inits
    post_inits.clear()
    make_stream([1.0], Periodic((2.0, 3.0)))
    assert sorted(post_inits) == ["Periodic", "Stream"]


def test_values_of_a_nonpositive_count_is_empty():
    x = make_stream([1.0, 2.0], Periodic((3.0, 4.0)))
    assert x.values(0) == x.values(-1) == x.values(-5) == []
    assert x.values(1) == [1.0]
    assert x.values(7) == [1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 3.0]
