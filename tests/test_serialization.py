from __future__ import annotations

import json

import pytest

from npls.corpus import FIXTURES
from npls.errors import FormatError
from npls.serialization import (
    MAX_TERM_DEPTH,
    Document,
    digraph_from_json,
    document_from_json,
    document_to_json,
    dumps,
    formula_from_json,
    formula_to_json,
    literal_from_json,
    loads_document,
    rule_from_json,
    rule_to_json,
    term_from_json,
    term_to_json,
)
from npls.terms import ExistsForall, ExistsLit, Literal, add, num, smash, var


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_round_trips(name):
    doc = FIXTURES[name]()
    again = loads_document(dumps(document_to_json(doc)))
    assert again == doc


def test_dumps_is_deterministic_and_compact():
    text = dumps(document_to_json(FIXTURES["D3"]()))
    assert text == dumps(document_to_json(FIXTURES["D3"]()))
    assert ": " not in text and ", " not in text
    assert json.loads(text)


def test_term_round_trip():
    t = smash(add(var("x"), num(3)), num(2))
    assert term_from_json(term_to_json(t)) == t


def test_formula_round_trip():
    lit = Literal(True, var("y"), num(0))
    for f in (
        ExistsLit("y", num(3), lit),
        ExistsForall("z", num(3), "y", num(2), Literal(False, var("z"), var("y"))),
    ):
        assert formula_from_json(formula_to_json(f)) == f


def test_rule_round_trip():
    from npls.derivation import CutRule, ExistsForallRule, ExistsRule, InitialRule

    rules = [
        InitialRule(2),
        ExistsRule(0, num(2)),
        ExistsForallRule(1, add(var("x"), num(1))),
        CutRule(ExistsLit("y", num(3), Literal(False, var("y"), num(1)))),
    ]
    for rule in rules:
        assert rule_from_json(rule_to_json(rule)) == rule


def _error_location(callable_, *args):
    with pytest.raises(FormatError) as info:
        callable_(*args)
    return str(info.value)


def test_parse_errors_carry_locations():
    assert "term" in _error_location(term_from_json, [])
    assert "num" in _error_location(term_from_json, {"num": -1})
    assert "unknown operation" in _error_location(term_from_json, {"op": "frob", "args": []})
    assert "arguments" in _error_location(term_from_json, {"op": "add", "args": [{"num": 1}]})
    assert ".neg" in _error_location(literal_from_json, {"neg": 1, "lhs": {"num": 0}, "rhs": {"num": 0}})
    assert "rule" in _error_location(rule_from_json, {"tag": "wat"})


def _nested_div2(depth):
    obj = {"var": "x"}
    for _ in range(depth):
        obj = {"op": "div2", "args": [obj]}
    return obj


def test_term_depth_is_capped_at_the_root_path():
    assert MAX_TERM_DEPTH == 256
    term_from_json(_nested_div2(MAX_TERM_DEPTH))
    message = _error_location(term_from_json, _nested_div2(MAX_TERM_DEPTH + 1), "rule.witness")
    assert message == "rule.witness: term nests more than 256 operations"


def test_booleans_are_not_integers():
    with pytest.raises(FormatError):
        term_from_json({"num": True})


def test_derivation_parse_errors():
    assert "duplicate node path" in _error_location(
        document_from_json,
        {
            "end_x": 0,
            "nodes": [
                {"path": [], "rule": {"tag": "initial", "index": 0}, "sequent": []},
                {"path": [], "rule": {"tag": "initial", "index": 0}, "sequent": []},
            ],
        },
    )
    assert "non-negative" in _error_location(
        document_from_json,
        {"end_x": 0, "nodes": [{"path": [-1], "rule": {"tag": "initial", "index": 0}, "sequent": []}]},
    )
    assert "at least one node" in _error_location(
        document_from_json, {"end_x": 0, "nodes": []}
    )


def test_digraph_parse_errors():
    assert "pair" in _error_location(
        digraph_from_json, {"n": 2, "edges": [[0]], "costs": [1, 0]}
    )
    assert "one cost per node" in _error_location(
        digraph_from_json, {"n": 2, "edges": [], "costs": [1]}
    )
    assert "at least one node" in _error_location(
        digraph_from_json, {"n": 0, "edges": [], "costs": []}
    )


_LOOP = {"n": 1, "edges": [[0, 0]], "costs": [0]}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"n": 2, "edges": [[0, 1], [1, 1, 0]], "costs": [1, 0]},
            "digraph.edges[1]: an edge is a pair",
        ),
        (
            {"n": 2, "edges": [[0, 1], 1], "costs": [1, 0]},
            "digraph.edges[1]: expected an array, got int",
        ),
        (
            {"n": 2, "edges": [[0, "1"]], "costs": [1, 0]},
            "digraph.edges[0][1]: expected an integer, got str",
        ),
        (
            {"n": 2, "edges": [[True, 1]], "costs": [1, 0]},
            "digraph.edges[0][0]: expected an integer, got bool",
        ),
        (
            {"n": 2, "edges": [[0, 1]], "costs": [1, "0"]},
            "digraph.costs[1]: expected an integer, got str",
        ),
        (
            {"rank": 0, "graph": {"n": 3, "edges": [[0, 0], [1, 0], [2, 0]], "costs": [0, 1, "2"]}},
            "family.graph.costs[2]: expected an integer, got str",
        ),
        (
            {"rank": 0, "graph": {"n": 2, "edges": [[0, 0], [1, 0], [1, 1], [1, "0"]], "costs": [0, 1]}},
            "family.graph.edges[3][1]: expected an integer, got str",
        ),
        (
            {
                "rank": 1,
                "graph": _LOOP,
                "children": [{"node": 0, "problem": {"rank": 0, "graph": {**_LOOP, "edges": [[0]]}}}],
            },
            "family.children[0].problem.graph.edges[0]: an edge is a pair",
        ),
    ],
)
def test_graph_item_errors_name_the_item(doc, message):
    assert _error_location(loads_document, dumps(doc)) == message


def test_family_parse_errors():
    graph = {"n": 1, "edges": [[0, 0]], "costs": [0]}
    assert "duplicate child node" in _error_location(
        document_from_json,
        {
            "rank": 1,
            "graph": graph,
            "children": [
                {"node": 0, "problem": {"rank": 0, "graph": graph}},
                {"node": 0, "problem": {"rank": 0, "graph": graph}},
            ],
        },
    )
    assert "duplicate solution entry" in _error_location(
        document_from_json,
        {
            "rank": 1,
            "graph": graph,
            "solutions": [
                {"node": 0, "solution": 0, "edge_to": 0},
                {"node": 0, "solution": 0, "edge_to": 0},
            ],
        },
    )


def test_document_dispatch_errors():
    with pytest.raises(FormatError, match="not valid JSON"):
        loads_document("{")
    with pytest.raises(FormatError, match="document"):
        loads_document("[]")
    with pytest.raises(FormatError, match="unrecognized"):
        loads_document("{}")


def test_document_to_json_rejects_foreign_values():
    with pytest.raises(TypeError):
        document_to_json(42)


def test_document_union_covers_all_fixtures():
    for name in FIXTURES:
        assert isinstance(FIXTURES[name](), Document)
