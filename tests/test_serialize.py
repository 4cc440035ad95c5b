import json
import re

import pytest

from helpers import bir_array, grid22, pl_array
from togglekit import BIRATIONAL, PL, pl_algebra, serialize
from togglekit.posets import OrderIdeal, Poset, PosetError, rectangle_poset, triangle_poset
from togglekit.serialize import (
    MAX_ENTRY,
    array_from_json,
    array_to_json,
    dumps_canonical,
    ideal_from_json,
    ideal_to_json,
    pattern_from_json,
    pattern_to_json,
    poset_from_json,
    poset_to_json,
    tableau_from_json,
    tableau_to_json,
)
from togglekit.tableaux import Tableau, TableauError, tableau_to_pattern

POSETS = [
    rectangle_poset(2, 2),
    rectangle_poset(3, 4),
    triangle_poset(3),
    Poset(3, [(0, 2), (1, 2)]),
]


@pytest.mark.parametrize("poset", POSETS)
def test_poset_round_trip(poset):
    again = poset_from_json(json.loads(json.dumps(poset_to_json(poset))))
    assert again == poset
    assert again.labels == poset.labels
    assert again.rc == poset.rc
    assert again.rectangle_shape == poset.rectangle_shape


def test_ideal_round_trip():
    poset = grid22()
    ideal = OrderIdeal(poset, [0, 1])
    assert ideal_to_json(ideal) == [0, 1]
    assert ideal_from_json(poset, [1, 0]) == ideal


@pytest.mark.parametrize("members", [[0, 7], [4], [-1], [0, -1]])
def test_ideal_json_outside_the_poset_is_refused(members):
    bad = next(x for x in members if not 0 <= x < 4)
    with pytest.raises(PosetError, match=f"^element index {bad} out of range$"):
        ideal_from_json(grid22(), members)


def test_ideal_json_that_is_not_a_list_of_ints_is_refused():
    not_a_list = "ideal JSON must be a list of integer element indices"
    for doc, message in (
        ([1.5], "element index 1.5 out of range"),
        ([True], "element index True out of range"),
        ([0, "1"], "element index '1' out of range"),
        ([0, None], "element index None out of range"),
        ("01", not_a_list),
        ({"0": 1}, not_a_list),
        ({}, not_a_list),
        (None, not_a_list),
    ):
        with pytest.raises(PosetError, match=f"^{re.escape(message)}$"):
            ideal_from_json(grid22(), doc)


def test_order_ideal_refuses_a_bool_element():
    with pytest.raises(PosetError, match="^element index True out of range$"):
        OrderIdeal(grid22(), [0, True])


@pytest.mark.parametrize(
    "doc",
    [
        {"boundary": ["0", "1"], "values": "1234"},  # not read as four characters
        {"values": ["1"] * 4},
        {"boundary": ["0", "1"]},
        [],
        None,
    ],
)
def test_array_json_without_its_lists_is_refused(doc):
    message = "^array JSON must be an object with boundary and values lists$"
    with pytest.raises(ValueError, match=message):
        array_from_json(PL, grid22(), doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "pattern JSON must be an object with rows of integers"),
        ([[1]], "pattern JSON must be an object with rows of integers"),
        ({"rows": "21"}, "pattern JSON must be an object with rows of integers"),
        ({"rows": [[2, "1"], [1]]}, "pattern entries must be integers"),
        ({"rows": [[1, None]]}, "pattern entries must be integers"),
        ({"rows": [[True]]}, "pattern entries must be integers"),
        ({"rows": [1, 2]}, "pattern rows must be sequences"),
    ],
    ids=["empty-object", "bare-list", "string-rows", "string-entry", "null-entry",
         "bool-entry", "int-rows"],
)
def test_malformed_pattern_json_raises_tableau_error(doc, message):
    with pytest.raises(TableauError, match=f"^{message}$"):
        pattern_from_json(doc)


def test_array_round_trip():
    poset = grid22()
    f = bir_array(poset, 1, 2, "5/12", "5/4")
    obj = array_to_json(BIRATIONAL, f)
    assert obj == {"values": ["1", "2", "5/12", "5/4"], "boundary": ["1", "1"]}
    assert array_from_json(BIRATIONAL, poset, json.loads(json.dumps(obj))) == f
    g = pl_array(poset, "1/10", "1/5", "3/10", "2/5")
    assert array_to_json(PL, g)["boundary"] == ["0", "1"]
    assert array_from_json(PL, poset, array_to_json(PL, g)) == g


def test_array_json_carries_the_algebras_boundary():
    poset = grid22()
    wide = pl_algebra(0, 2)
    f = wide.array(poset, [0, 0, 0, 0])
    obj = array_to_json(wide, f)
    assert obj["boundary"] == ["0", "2"]
    assert array_from_json(wide, poset, obj) == f
    # A file written under another boundary is refused, not walked under PL's.
    message = "array boundary (0, 2) is not the pl boundary (0, 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        array_from_json(PL, poset, obj)


def test_tableau_round_trip():
    t = Tableau([[1, 2, 2], [3, 5, 5]], 5)
    obj = tableau_to_json(t)
    assert tableau_from_json(json.loads(json.dumps(obj))) == t


def test_pattern_round_trip():
    p = tableau_to_pattern(Tableau([[1, 2, 2], [3, 5, 5]], 5))
    assert pattern_from_json(json.loads(json.dumps(pattern_to_json(p)))) == p


def test_dumps_canonical_is_deterministic():
    a = dumps_canonical({"b": 1, "a": [2, 3]})
    b = dumps_canonical({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def test_bad_payloads_raise():
    poset = grid22()
    with pytest.raises((ValueError, KeyError, TypeError)):
        array_from_json(PL, poset, {"values": ["1", "2"]})
    with pytest.raises(Exception):
        tableau_from_json({"rows": [[2, 1]], "max_entry": 3})


@pytest.mark.parametrize(
    "doc",
    [
        [[0, 1]],
        {"size": 2, "labels": ["a", "b"]},
        {"size": "2", "covers": [], "labels": ["a", "b"]},
        {"size": 2, "covers": [[0]], "labels": ["a", "b"]},
        {"size": 2, "covers": [], "labels": [{"a": 1}, "b"]},
        {"size": 2, "covers": [], "labels": [[["a"]], "b"]},
        {"size": 2, "covers": [], "labels": ["a", "b"], "rc": [[0, 0], None]},
        {"size": 2, "covers": [], "labels": ["a", "b"], "rectangle": [2]},
    ],
)
def test_malformed_poset_json_raises_poset_error(doc):
    with pytest.raises(PosetError):
        poset_from_json(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("covers", [[0]], "cover [0] must be a pair of integer indices"),
        ("covers", "01", "cover '0' must be a pair of integer indices"),
        ("covers", 5, "covers must be a sequence, got 5"),
        ("covers", [[0, True]], "cover [0, True] must be a pair of integer indices"),
        ("rc", [[0, 0], None], "rc positions must be pairs of integers"),
        ("rc", "ab", "rc positions must be pairs of integers"),
    ],
)
def test_poset_json_covers_and_rc_are_refused_by_the_constructor(field, value, message):
    doc = {"size": 2, "covers": [], "labels": ["a", "b"], field: value}
    with pytest.raises(PosetError, match=f"^{re.escape(message)}$"):
        poset_from_json(doc)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, None]], "tableau entries must be integers"),
        ([1, 2], "tableau rows must be sequences"),
        ("12", "tableau entries must be integers"),
        ({"1": 1}, "tableau entries must be integers"),
    ],
)
def test_tableau_json_rows_are_refused_by_the_constructor(rows, message):
    with pytest.raises(TableauError, match=f"^{re.escape(message)}$"):
        tableau_from_json({"rows": rows, "max_entry": 3})


@pytest.mark.parametrize(
    "poset, shape",
    [
        (triangle_poset(3), [2, 3]),  # same size, other covers and labels
        (rectangle_poset(2, 3), [3, 2]),  # the transposed rectangle
        (rectangle_poset(2, 3), [2, 2]),  # wrong size
        (rectangle_poset(2, 3), [10**9, 10**9]),  # never built
        (Poset(0, []), [0, 5]),
    ],
)
def test_rectangle_field_must_match_the_poset(poset, shape):
    doc = poset_to_json(poset)
    doc["rectangle"] = shape
    with pytest.raises(PosetError):
        poset_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [[1, 2]],
        {"rows": [[1, 2]]},
        {"max_entry": 3},
        {"rows": [[1, None]], "max_entry": 3},
        {"rows": [1, 2], "max_entry": 3},
        {"rows": [[1, 2]], "max_entry": "3"},
    ],
)
def test_malformed_tableau_json_raises_tableau_error(doc):
    with pytest.raises(TableauError):
        tableau_from_json(doc)


def test_tableau_max_entry_is_bounded_before_anything_is_built(monkeypatch):
    assert tableau_from_json({"rows": [[1]], "max_entry": MAX_ENTRY}).max_entry == MAX_ENTRY

    def refuse(*args):
        raise AssertionError("Tableau built for a refused max_entry")

    monkeypatch.setattr(serialize, "Tableau", refuse)
    for max_entry in (MAX_ENTRY + 1, 10**7, 10**100):
        with pytest.raises(TableauError, match="above the limit"):
            tableau_from_json({"rows": [[1]], "max_entry": max_entry})
