import dataclasses
import json
import math

import numpy as np
import pytest

import tempora.axioms as AX
from tempora import (AXIOM_IDS, BanachWindow, Cesaro, Edu, IndicatorSet, Inf, Liminf,
                     Maxmin, PairwiseSwapTransform, Quadratic, ScaleTransform,
                     Variational, add, check_axiom, constant_stream, delay,
                     discounted_value, evaluate, improving_pair, parse_axiom_id,
                     parse_transform, random_stream, replay_violation,
                     run_counterexamples, scale_translate, stream_from_dict,
                     sup_distance)
from tempora.axioms import AxiomReport, DelayTransform, MatrixTransform, PermuteTransform
from tempora.errors import InvalidAxiom

from conftest import counted, work


# ---------------------------------------------------------------------------
# improving pairs
# ---------------------------------------------------------------------------

def test_improving_pair_is_exactly_indifferent():
    for k in (Edu(0.9), Maxmin(points=(0.3, 0.7)), Variational(Quadratic(0.8, 2.0))):
        for seed in range(100):
            x, d = improving_pair(k, seed)
            assert abs(evaluate(k, add(x, d)) - evaluate(k, x)) <= 1e-12


def test_improving_pair_takes_any_integer_seed_modulo_two_to_the_63():
    # A negative seed once reached numpy as is: a bare ValueError.
    k = Edu(0.9)
    assert improving_pair(k, -1) == improving_pair(k, 2 ** 63 - 1)
    assert improving_pair(k, 2 ** 63) == improving_pair(k, 0)
    # The draws of seeds below 2^63 are the ones they always were.
    pinned = {
        0: ((11, 3, "-0x1.26ac4a2571befp+1", "-0x1.25c6e5d8bafd4p+2"),
            (1, 1, "0x1.11a7c155de8f2p+0", "-0x1.e67f9098a81a0p-4")),
        2 ** 40: ((11, 2, "0x1.484b875fcbc90p+0", "0x1.3cf260c37bdacp+2"),
                  (7, 2, "-0x1.4ba05fdaacccep-2", "-0x1.d5596ea5eae4ap+0")),
    }
    for seed, want in pinned.items():
        got = tuple((len(s.prefix), s.period, *(v.hex() for v in s.values(2)))
                    for s in improving_pair(k, seed))
        assert got == want, seed


def test_zero_candidate_yields_zero_improvement():
    # the translation construction maps d0 = 0 to d = 0
    from tempora import constant_stream, random_stream, scale_translate
    import numpy as np
    k = Edu(0.9)
    x = random_stream(np.random.default_rng(5))
    d0 = constant_stream(0.0)
    theta = evaluate(k, x) - evaluate(k, add(x, d0))
    d = scale_translate(d0, 1.0, theta)
    assert d == constant_stream(0.0)
    assert evaluate(k, add(x, d)) == evaluate(k, x)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_parse_transform_roundtrip():
    assert parse_transform("delay") == DelayTransform()
    assert parse_transform("swap") == PairwiseSwapTransform()
    assert parse_transform("scale:2") == ScaleTransform(2.0)
    assert parse_transform("permute:1,0") == PermuteTransform((1, 0))
    with pytest.raises(InvalidAxiom):
        parse_transform("wat")


def test_matrix_transform_fixes_everything_past_its_window():
    import numpy as np
    from tempora import make_stream, Periodic
    t = MatrixTransform(2.0 * np.eye(2))
    x = make_stream([1.0, 2.0], Periodic((3.0, 4.0)))
    out = t.apply(x)
    assert out.values(6) == [2.0, 4.0, 3.0, 4.0, 3.0, 4.0]


@pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(2)], ids=["2x3", "1-D"])
def test_matrix_transform_needs_a_square_matrix(matrix):
    with pytest.raises(InvalidAxiom, match="square matrix"):
        MatrixTransform(matrix)


# ---------------------------------------------------------------------------
# check_axiom mechanics
# ---------------------------------------------------------------------------

def test_a_report_prints_its_fields():
    rep = check_axiom(Inf(), "itis", trials=1, seed=0, transform=ScaleTransform(2.0))
    out = rep.to_dict()
    assert list(out) == [f.name for f in dataclasses.fields(AxiomReport)]
    assert out == {f.name: getattr(rep, f.name) for f in dataclasses.fields(AxiomReport)}
    assert out["violation"] is rep.violation



def test_unknown_axiom_and_bad_arguments():
    with pytest.raises(InvalidAxiom):
        check_axiom(Edu(0.9), "no_such_axiom", trials=1, seed=0)
    with pytest.raises(InvalidAxiom):
        check_axiom(Edu(0.9), "itis", trials=1, seed=0)   # transform missing
    with pytest.raises(InvalidAxiom):
        check_axiom(Edu(0.9), "monotonicity", trials=0, seed=0)


def test_reports_are_deterministic():
    a = check_axiom(Edu(0.95), "idis", trials=50, seed=42)
    b = check_axiom(Edu(0.95), "idis", trials=50, seed=42)
    assert a.to_dict() == b.to_dict()


def test_violation_present_iff_not_all_passed():
    good = check_axiom(Edu(0.95), "icrp", trials=50, seed=7)
    assert good.passes == good.trials and good.violation is None
    bad = check_axiom(Edu(0.95), "patience", trials=50, seed=7)
    assert bad.passes < bad.trials and bad.violation is not None
    assert bad.violation["gap"] > bad.tol


def test_certificates_replay_soundly():
    cases = [
        (Edu(0.95), "patience", None),
        (Edu(0.95), "time_invariance", None),
        (Inf(), "itis", ScaleTransform(2.0)),
        (Liminf(), "ipis", None),
        (Liminf(), "idis", None),
        (Maxmin(points=(0.2, 0.8)), "iou", None),
    ]
    for criterion, axiom, transform in cases:
        rep = check_axiom(criterion, axiom, trials=200, seed=11, transform=transform)
        assert rep.violation is not None, (criterion, axiom)
        assert replay_violation(criterion, rep) > rep.tol


# ---------------------------------------------------------------------------
# expected passes per criterion family (reduced-trial versions)
# ---------------------------------------------------------------------------

CORE_SUITE = ("monotonicity", "icrp", "convexity", "lipschitz",
                 "normalization", "idis")


def _assert_passes(criterion, axioms, trials=150, seed=3):
    for axiom in axioms:
        rep = check_axiom(criterion, axiom, trials=trials, seed=seed)
        assert rep.violation is None, (axiom, rep.violation)


def test_variational_quadratic_suite():
    _assert_passes(Variational(Quadratic(0.9, 5.0)), CORE_SUITE, trials=60)


def test_maxmin_suite_adds_scale_invariance():
    _assert_passes(Maxmin(points=(0.3, 0.7)), CORE_SUITE + ("isu",))


def test_edu_suite_adds_common_stream_invariance():
    _assert_passes(Edu(0.95), CORE_SUITE + ("isu", "iou"))


def test_patient_criteria_suites():
    for k in (BanachWindow(), Cesaro()):
        _assert_passes(k, CORE_SUITE + ("isu", "iou", "patience",
                                           "time_invariance", "ifpis", "ipis"))
    _assert_passes(Liminf(), CORE_SUITE[:5] + ("isu", "patience",
                                                  "time_invariance", "ifpis"))
    _assert_passes(Inf(), CORE_SUITE[:5] + ("isu", "patience"))


def test_monotone_continuity_proxy_separates_discounting_from_patience():
    ok = check_axiom(Edu(0.9), "monotone_continuity_proxy", trials=40, seed=5)
    assert ok.violation is None
    bad = check_axiom(Inf(), "monotone_continuity_proxy", trials=40, seed=5)
    assert bad.violation is not None


def test_continuity_segment_smoke():
    rep = check_axiom(Edu(0.9), "continuity_segment", trials=2, seed=1)
    assert rep.violation is None


# The per-point scan and conditional check as they were before the scan
# was batched, kept as references.  Each is a judge: check_axiom draws the
# instance and puts it ahead of the verdict returned here.

def ref_continuity_segment(ev, tol, transform, x, z, grid=10001):
    slack = sup_distance(x, z) / (grid - 1) + 1e-6
    prev = ev(z)
    for i in range(1, grid):
        lam = i / (grid - 1)
        cur = ev(add(scale_translate(x, lam), scale_translate(z, 1.0 - lam)))
        if abs(cur - prev) > slack:
            return {"alpha": lam, "lhs": cur, "rhs": prev, "gap": abs(cur - prev) - slack}
        prev = cur
    return None


def ref_premised(ev, tol, x, d, transformed):
    if ev(add(x, d)) < ev(x) - 1e-12:
        return None
    lhs, rhs = ev(add(x, transformed)), ev(x)
    if lhs < rhs - tol:
        return {"lhs": lhs, "rhs": rhs, "gap": rhs - lhs}
    return None


def use_ref_scan(monkeypatch):
    draw, _ = AX._AXIOMS["continuity_segment"]
    monkeypatch.setitem(AX._AXIOMS, "continuity_segment", (draw, ref_continuity_segment))


#: One criterion per tag; maxmin and variational take the batched minimizer.
ONE_PER_TAG = [Edu(0.9), Maxmin(points=(0.3,), intervals=((0.4, 0.6),)),
               Variational(Quadratic(0.9, 5.0)), Inf(), Liminf(), BanachWindow(), Cesaro()]


@pytest.mark.parametrize("k", ONE_PER_TAG, ids=lambda k: k.tag)
def test_continuity_reports_match_the_per_point_scan(k, monkeypatch):
    got = [check_axiom(k, "continuity_segment", trials=2, seed=s).to_dict() for s in (0, 1)]
    use_ref_scan(monkeypatch)
    want = [check_axiom(k, "continuity_segment", trials=2, seed=s).to_dict() for s in (0, 1)]
    assert json.dumps(got) == json.dumps(want)


def test_a_closed_form_continuity_scan_builds_no_stream_per_mix(monkeypatch):
    # Edu and Cesaro read the mixes' rows of values: the scan builds no
    # stream at all, where one per mix would be 10^4.
    built = work(monkeypatch, "streams")["streams"]
    draw, judge = AX._AXIOMS["continuity_segment"]
    inside = []

    def judged(*args, **kwargs):
        built.clear()
        verdict = judge(*args, **kwargs)
        inside.append(sum(built))
        return verdict

    monkeypatch.setitem(AX._AXIOMS, "continuity_segment", (draw, judged))
    for k in (Edu(0.9), Cesaro()):
        inside.clear()
        assert check_axiom(k, "continuity_segment", trials=1, seed=0).passes == 1
        assert inside == [0], k


@pytest.mark.parametrize("k, seed, searches", [
    (Maxmin(points=(0.0, 0.3), intervals=((0.4, 0.6),)), 2, 54),
    (Variational(IndicatorSet(points=(0.0, 0.3, 0.9), point_costs=(0.5, 0.0, 0.1),
                              intervals=((0.5, 0.7),))), 1, 87),
], ids=["maxmin", "indicator"])
def test_the_minimizer_builds_no_stream_for_a_batch_row(monkeypatch, k, seed, searches):
    # These scans run scalar golden-section searches on rows of their
    # batches; the minimizer reads each row's values, and builds no stream
    # to search it, or to scan it on the full grid.
    import tempora.minimizer as M
    calls, streams = work(monkeypatch, "streams", "golden"), []
    minimize = M._minimize_on_interval

    def within(*args):
        # The streams built inside one piece search; the minimizer alone
        # runs golden-section searches.
        built = sum(calls["streams"])
        out = minimize(*args)
        streams.append(sum(calls["streams"]) - built)
        return out

    monkeypatch.setattr(M, "_minimize_on_interval", within)
    assert check_axiom(k, "continuity_segment", trials=1, seed=seed).passes == 1
    assert {"streams": sum(streams), "searches": len(calls["golden"])} == \
        {"streams": 0, "searches": searches}


def planted_jump(seed, calls):
    """I(x) = D_0.5(x), plus 1 past the midpoint of the two ends of the
    segment that the continuity scan draws first under ``seed``."""
    rng = np.random.default_rng([AXIOM_IDS.index("continuity_segment"), seed, 0])
    x, z = random_stream(rng), random_stream(rng)
    mid = 0.5 * (discounted_value(x, 0.5) + discounted_value(z, 0.5))
    up = discounted_value(x, 0.5) > mid

    def ev(y):
        v = discounted_value(y, 0.5)
        return v + (1.0 if (v > mid) == up else 0.0)

    return counted(ev, into=calls)[0]


def test_continuity_scan_of_a_plain_callable_finds_the_same_jump(monkeypatch):
    # The planted jump: the scan must report it at the same alpha, after
    # the same calls.
    seed = 3
    calls = []
    ev = planted_jump(seed, calls)
    got = check_axiom(ev, "continuity_segment", trials=1, seed=seed)
    n_got, calls[:] = len(calls), []
    use_ref_scan(monkeypatch)
    want = check_axiom(ev, "continuity_segment", trials=1, seed=seed)
    assert got.violation is not None and 0.0 < got.violation["alpha"] < 1.0
    for key in ("alpha", "lhs", "rhs", "gap"):
        assert got.violation[key].hex() == want.violation[key].hex()
    assert got.to_dict() == want.to_dict()
    assert n_got == len(calls) < 10001


def test_conditional_check_evaluates_x_once():
    ev, calls = counted(lambda y: evaluate(Cesaro(), y))
    x = random_stream(np.random.default_rng(2))
    for d, expected in ((constant_stream(1.0), 3), (constant_stream(-1.0), 2)):
        calls.clear()
        assert AX._premised(ev, 1e-9, x, d, delay(d)) is None
        assert len(calls) == expected       # 4 and 2 when I(x) ran twice


@pytest.mark.parametrize("k", ONE_PER_TAG, ids=lambda k: k.tag)
def test_conditional_reports_are_unchanged(k, monkeypatch):
    runs = [("itis", ScaleTransform(2.0)), ("itis", DelayTransform()), ("ifpis", None),
            ("ipis", None)]
    got = [check_axiom(k, a, trials=20, seed=4, transform=t).to_dict() for a, t in runs]
    monkeypatch.setattr(AX, "_premised", ref_premised)
    want = [check_axiom(k, a, trials=20, seed=4, transform=t).to_dict() for a, t in runs]
    assert json.dumps(got) == json.dumps(want)


def test_itis_with_delay_matches_idis():
    for k in (Edu(0.9), Variational(Quadratic(0.7, 1.0))):
        rep = check_axiom(k, "itis", trials=100, seed=9, transform=DelayTransform())
        assert rep.violation is None


# ---------------------------------------------------------------------------
# axiom ids and replay
# ---------------------------------------------------------------------------

ITIS_TRANSFORMS = [ScaleTransform(2.0), DelayTransform(), PairwiseSwapTransform(),
                   PermuteTransform((1, 0, 2))]


@pytest.mark.parametrize("k", ONE_PER_TAG, ids=lambda k: k.tag)
def test_every_violation_replays_to_its_gap_bit_for_bit(k):
    runs = [(a, None) for a in AXIOM_IDS if a not in ("itis", "continuity_segment")]
    runs += [("itis", t) for t in ITIS_TRANSFORMS]
    replayed = set()
    for axiom, t in runs:
        rep = check_axiom(k, axiom, trials=10, seed=0, transform=t)
        if rep.violation is not None:
            assert replay_violation(k, rep).hex() == rep.violation["gap"].hex(), rep.key
            replayed.add(rep.key)
    if k.tag == "inf":
        assert {"monotone_continuity_proxy", "itis:scale:2"} <= replayed
    if k.tag == "liminf":
        assert "ipis" in replayed


def test_a_continuity_jump_replays_to_its_gap_bit_for_bit():
    ev = planted_jump(3, [])
    rep = check_axiom(ev, "continuity_segment", trials=1, seed=3)
    assert rep.violation is not None
    assert replay_violation(ev, rep).hex() == rep.violation["gap"].hex()


def test_reports_without_an_axiom_id_do_not_replay():
    rep = check_axiom(Inf(), "itis", trials=1, seed=0,
                      transform=MatrixTransform(2.0 * np.eye(2)))
    assert rep.violation is not None and rep.key == "itis:matrix:2"
    registry = next(r for r in run_counterexamples() if r.axiom == "strong_monotonicity")
    for report in (rep, registry):
        with pytest.raises(InvalidAxiom):
            replay_violation(Inf(), report)


def test_an_edited_certificate_that_no_longer_violates_does_not_replay():
    rep = check_axiom(Inf(), "itis", trials=1, seed=0, transform=ScaleTransform(2.0))
    assert replay_violation(Inf(), rep) == rep.violation["gap"]
    zero = {"prefix": [], "tail": {"constant": 0.0}}
    edited = dataclasses.replace(rep, violation={**rep.violation, "d": zero})
    with pytest.raises(InvalidAxiom, match="no longer violates"):
        replay_violation(Inf(), edited)


def test_a_passing_report_has_nothing_to_replay():
    rep = check_axiom(Edu(0.9), "monotonicity", trials=2, seed=0)
    assert rep.passed
    with pytest.raises(InvalidAxiom, match="no violation"):
        replay_violation(Edu(0.9), rep)


@pytest.mark.parametrize("text", ["itis:scale:abc", "itis:permute:a,b", "itis:permute:",
                                  "itis", "itis:", "itis:wat", "idis:delay", "nope",
                                  "nope:delay"])
def test_malformed_axiom_ids_raise_invalid_axiom(text):
    with pytest.raises(InvalidAxiom):
        parse_axiom_id(text)


def test_axiom_ids_parse_to_axiom_and_transform():
    assert parse_axiom_id("idis") == ("idis", None)
    assert parse_axiom_id("itis:scale:2") == ("itis", ScaleTransform(2.0))
    assert parse_axiom_id("itis:permute:1,0") == ("itis", PermuteTransform((1, 0)))


def test_check_axiom_rejects_a_transform_it_would_ignore():
    with pytest.raises(InvalidAxiom):
        check_axiom(Edu(0.9), "idis", 3, 0, transform=ScaleTransform(2.0))


@pytest.mark.parametrize("build", [lambda: ScaleTransform(math.inf), lambda: ScaleTransform(math.nan),
                                   lambda: ScaleTransform(-1.0), lambda: PermuteTransform((0, 0))])
def test_transform_payload_is_checked_when_built(build):
    with pytest.raises(InvalidAxiom):
        build()


def test_scale_labels_read_back_as_the_same_factor():
    assert ScaleTransform(2.0).label == "scale:2"
    assert ScaleTransform(1e6).label == "scale:1e+06"
    for factor in (2.0, 0.5, 1e6, 2.1234567, 1.0 / 3.0):
        assert parse_transform(ScaleTransform(factor).label) == ScaleTransform(factor)


# ---------------------------------------------------------------------------
# counterexample registry
# ---------------------------------------------------------------------------

def test_registry_reproduces_all_entries():
    reports = run_counterexamples()
    labels = [r.label for r in reports]
    assert labels == ["inf-doubled-improvement", "liminf-pairwise-swap",
                      "maxmin-zero-factor-tie", "patient-cost-blowup"]


def test_registry_negative_entries_carry_documented_certificates():
    reports = {r.label: r for r in run_counterexamples()}

    doubled = reports["inf-doubled-improvement"]
    assert doubled.axiom == "itis" and doubled.transform == "scale:2"
    x = stream_from_dict(doubled.violation["x"])
    d = stream_from_dict(doubled.violation["d"])
    assert x.values(3) == [-1.0, 0.0, 0.0]
    assert d.values(3) == [1.0, -1.0, 0.0]
    assert doubled.violation["gap"] == 1.0

    swapped = reports["liminf-pairwise-swap"]
    assert swapped.axiom == "ipis"
    x = stream_from_dict(swapped.violation["x"])
    d = stream_from_dict(swapped.violation["d"])
    assert x.values(4) == [0.0, 1.0, 0.0, 1.0]
    assert d.values(4) == [1.0, -1.0, 1.0, -1.0]
    assert swapped.violation["gap"] == 1.0


def test_the_registry_moves_are_the_transforms_bit_for_bit():
    # Entries 1 and 2 move the improvement by ScaleTransform(2.0) and
    # PairwiseSwapTransform(), in place of the stream functions they wrap.
    from tempora import pairwise_swap
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = random_stream(rng)
        assert ScaleTransform(2.0).apply(d) == scale_translate(d, 2.0)
        assert PairwiseSwapTransform().apply(d) == pairwise_swap(d)


def test_registry_negatives_still_satisfy_basic_axioms():
    # detection power: the failing criteria break only their documented axiom
    for k in (Inf(), Liminf()):
        for axiom in ("monotonicity", "icrp"):
            rep = check_axiom(k, axiom, trials=200, seed=17)
            assert rep.violation is None


def test_axiom_id_list_is_complete():
    assert set(AXIOM_IDS) == {
        "monotonicity", "continuity_segment", "icrp", "convexity", "isu",
        "iou", "monotone_continuity_proxy", "idis", "itis", "ifpis", "ipis",
        "patience", "time_invariance", "lipschitz", "normalization"}
