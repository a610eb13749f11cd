import json
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempora import (BanachWindow, Cesaro, CostFunction, Criterion, Edu,
                     ExpertPanel, IndicatorSet, Inf, Liminf, Maxmin, Quadratic,
                     Tabulated, Variational)
from tempora import constant_stream, jsonio, minimize_over_delta
from tempora.discounting import TAGS
from tempora.errors import ParseError, TemporaError

CRITERIA = [
    Edu(0.95),
    Maxmin(points=(0.25, 0.5), intervals=((0.6, 0.8),)),
    Variational(IndicatorSet(points=(0.3,), intervals=((0.4, 0.6),))),
    Variational(Quadratic(0.9, 5.0)),
    Variational(Tabulated(knots=((0.1, 1.0), (0.5, 0.0)))),
    Inf(),
    Liminf(),
    BanachWindow(),
    Cesaro(),
]


def test_criterion_round_trip():
    for k in CRITERIA:
        encoded = json.dumps(jsonio.criterion_to_dict(k))
        assert jsonio.criterion_from_dict(json.loads(encoded)) == k


def test_criterion_tags_match_wire_format():
    assert jsonio.criterion_to_dict(Edu(0.95)) == {"edu": {"delta": 0.95}}
    assert jsonio.criterion_to_dict(Inf()) == {"inf": {}}
    assert jsonio.criterion_to_dict(BanachWindow()) == {"banach_window": {}}
    k = jsonio.criterion_from_dict(
        {"maxmin": {"points": [0.5], "intervals": [[0.6, 0.7]]}})
    assert k == Maxmin(points=(0.5,), intervals=((0.6, 0.7),))


def test_criterion_parse_errors():
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict({"edu": {"delta": 0.95}, "inf": {}})
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict({"nope": {}})
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict({"edu": {}})
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict({"edu": {"delta": 2.0}})
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict({"variational": {"cost": {"quadratic": {"center": 0.5}}}})


#: Bodies that used to escape the decoders as raw ValueError, IndexError,
#: AttributeError or TypeError.
MALFORMED_CRITERIA = [
    {"maxmin": {"points": "ab"}},
    {"maxmin": {"intervals": [[0.1]]}},
    {"maxmin": 5},
    {"variational": {"cost": {"tabulated": {"knots": [[0.1]]}}}},
    {"variational": {"cost": {"indicator": 3}}},
]


@pytest.mark.parametrize("data", MALFORMED_CRITERIA, ids=json.dumps)
def test_malformed_criterion_is_a_parse_error(data):
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict(data)


def test_tag_table_holds_every_criterion_and_cost_once():
    classes = typing.get_args(Criterion) + typing.get_args(CostFunction)
    assert sorted(TAGS.values(), key=lambda c: c.tag) == sorted(classes, key=lambda c: c.tag)
    assert {c.tag: c for c in classes} == TAGS
    assert [k.tag for k in typing.get_args(Criterion)] == [
        "edu", "maxmin", "variational", "inf", "liminf", "banach_window", "cesaro"]
    assert [c.tag for c in typing.get_args(CostFunction)] == [
        "indicator", "quadratic", "tabulated"]


def test_cost_wire_format_and_round_trip():
    costs = [IndicatorSet(points=(0.3,), intervals=((0.4, 0.6),), point_costs=(0.0,)),
             Quadratic(0.9, 5.0), Tabulated(knots=((0.1, 1.0), (0.5, 0.0)))]
    assert [jsonio.cost_to_dict(c) for c in costs] == [
        {"indicator": {"points": [0.3], "intervals": [[0.4, 0.6]], "point_costs": [0.0]}},
        {"quadratic": {"center": 0.9, "stiffness": 5.0}},
        {"tabulated": {"knots": [[0.1, 1.0], [0.5, 0.0]]}},
    ]
    for c in costs:
        assert jsonio.cost_from_dict(json.loads(json.dumps(jsonio.cost_to_dict(c)))) == c
    with pytest.raises(ParseError):
        jsonio.cost_from_dict({"edu": {"delta": 0.5}})     # a criterion, not a cost
    with pytest.raises(ParseError):
        jsonio.criterion_from_dict({"quadratic": {"center": 0.5, "stiffness": 1.0}})
    with pytest.raises(ParseError):
        jsonio.cost_to_dict(Edu(0.5))
    with pytest.raises(ParseError):
        jsonio.criterion_to_dict(Quadratic(0.5, 1.0))


def test_deeply_nested_body_is_a_parse_error():
    deep = json.loads("[" * 900 + "]" * 900)
    for data in ({"maxmin": {"points": deep}}, {"maxmin": {"intervals": deep}},
                 {"variational": {"cost": {"tabulated": {"knots": deep}}}}):
        with pytest.raises(ParseError):
            jsonio.criterion_from_dict(data)


def test_decoders_ignore_extra_keys():
    assert jsonio.criterion_from_dict({"edu": {"delta": 0.9, "note": "x"}}) == Edu(0.9)
    assert jsonio.criterion_from_dict({"inf": {"note": 1}}) == Inf()
    assert jsonio.cost_from_dict({"quadratic": {"center": 0.5, "stiffness": 1.0,
                                                "unit": "utils"}}) == Quadratic(0.5, 1.0)


def test_operator_decoding():
    op = jsonio.operator_from_dict({"matrix": [[0.0, 1.0], [1.0, 0.0]]})
    assert np.array_equal(op.entries, [[0.0, 1.0], [1.0, 0.0]])
    op = jsonio.operator_from_dict({"builtin": {"name": "scaling", "n": 2,
                                                "factor": 2.0}})
    assert np.array_equal(op.entries, 2.0 * np.eye(2))
    with pytest.raises(ParseError):
        jsonio.operator_from_dict({"builtin": {"name": "cyclic_delay"}})
    with pytest.raises(ParseError):
        jsonio.operator_from_dict({"matrix": [[-1.0]]})
    for bad in ({"matrix": "ab"}, {"matrix": [[1.0], [1.0, 2.0]]}, {"builtin": 5},
                {"builtin": {"name": "cyclic_delay", "n": "x"}},
                {"builtin": {"name": "permutation", "n": 2, "sigma": 3}}):
        with pytest.raises(ParseError):
            jsonio.operator_from_dict(bad)


def test_panel_round_trip():
    panel = ExpertPanel(factors=(0.3, 0.6), confidences=(0.0, 1.5))
    back = jsonio.panel_from_dict(json.loads(json.dumps(jsonio.panel_to_dict(panel))))
    assert back == panel
    with pytest.raises(ParseError):
        jsonio.panel_from_dict({"confidences": [0.0]})
    with pytest.raises(ParseError):
        jsonio.panel_from_dict({"factors": []})


@pytest.mark.parametrize("data", [{"factors": ["0.5"]},
                                  {"factors": [0.5], "confidences": [False]}], ids=str)
def test_a_panel_body_takes_numbers_only(data):
    with pytest.raises(ParseError, match="expected a number"):
        jsonio.panel_from_dict(data)


def test_load_json_file_rejects_undecodable_files(tmp_path):
    for name, content in (("bytes.json", b"\xff\xfe{}"),
                          ("deep.json", b"[" * 100000 + b"]" * 100000)):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(ParseError):
            jsonio.load_json_file(str(path))


def test_load_json_file_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": 1,\n  broken')
    with pytest.raises(ParseError) as err:
        jsonio.load_json_file(str(bad))
    assert err.value.line == 2


#: Factors at and beside the ends of [0, 1), and beyond them; costs at 0,
#: at the float limit and below 0.
unit = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0 - 1e-9, 1.0 - 1e-10, 1.0, -0.1, 1.5]),
                 st.floats(0.0, 1.0))
cost_values = st.one_of(st.sampled_from([0.0, 1.0, 1.7e308, -1.0]), st.floats(0.0, 10.0))
pairs = st.tuples(unit, unit).map(sorted)


@st.composite
def cost_json(draw):
    """The JSON of a cost of each shape, valid more often than not."""
    kind = draw(st.sampled_from(["indicator", "quadratic", "tabulated"]))
    if kind == "quadratic":
        return {"quadratic": {"center": draw(unit), "stiffness": draw(cost_values)}}
    if kind == "tabulated":
        knots = draw(st.lists(st.tuples(unit, cost_values).map(list), max_size=4,
                              unique_by=lambda k: k[0]))
        if knots and draw(st.booleans()):
            knots[draw(st.integers(0, len(knots) - 1))][1] = 0.0
        return {"tabulated": {"knots": sorted(knots)}}
    points = draw(st.lists(unit, max_size=3))
    body = {"points": points, "intervals": draw(st.lists(pairs, max_size=3))}
    if draw(st.booleans()):
        body["point_costs"] = draw(st.lists(cost_values, min_size=len(points),
                                            max_size=len(points)))
    return {"indicator": body}


@settings(max_examples=300, deadline=None)
@given(cost_json())
@example({"indicator": {"intervals": [[1.0 - 1e-10, 1.0]]}})
@example({"indicator": {"points": [0.0]}})
@example({"tabulated": {"knots": [[0.0, 0.0]]}})
@example({"quadratic": {"center": 1.0 - 1e-10, "stiffness": 0.0}})
def test_every_decoded_cost_has_a_point_or_a_piece(data):
    # So the minimizer always has a candidate: a cost that is infinite on
    # all of [0, 1) cannot be decoded.  An interval inside [1 - 1e-9, 1)
    # makes a piece of one point.
    try:
        c = jsonio.cost_from_dict(json.loads(json.dumps(data)))
    except TemporaError:
        return
    assert c.pieces or c.isolated()
    assert minimize_over_delta(constant_stream(1.0), c)[1] >= 1.0
