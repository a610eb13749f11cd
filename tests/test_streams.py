import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempora import (Constant, Periodic, Stream, add, canonicalize_tail,
                     constant_stream, delay, make_stream, pairwise_swap,
                     permute, random_stream, scale_translate, shift_left,
                     stream_from_dict, stream_to_dict, sup_distance, value_at)
from tempora.errors import (InvalidPermutation, InvalidScale, InvalidStream,
                            ParseError)
from tempora.streams import _minimal_cycle, inverse_permutation, mixtures

from conftest import streams

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


def test_non_finite_values_rejected():
    with pytest.raises(InvalidStream):
        make_stream([float("nan")], Constant(0.0))
    with pytest.raises(InvalidStream):
        make_stream([0.0], Constant(float("inf")))
    with pytest.raises(InvalidStream):
        make_stream([], Periodic(()))


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
