from __future__ import annotations

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npls import serialization
from npls.corpus import FIXTURES, ng2, random_sigma1_derivation, random_sigma2_derivation
from npls.derivation import CutRule
from npls.errors import FormatError
from npls.nested_graph import MAX_RANK, generate_family
from npls.serialization import (
    MAX_TERM_DEPTH,
    Document,
    derivation_to_json,
    digraph_from_json,
    document_from_json,
    document_to_json,
    dumps,
    family_from_json,
    family_to_json,
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
_SOLUTION = {"node": 0, "solution": 0, "edge_to": 0}


def _family(rank, graph=_LOOP, children=(), solutions=()):
    return {"rank": rank, "graph": graph, "children": list(children), "solutions": list(solutions)}


def _child(node, problem):
    return {"node": node, "problem": problem}


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
        (
            _family(1, children=[_child(0, _family(1, children=[_child(0, _family(True))]))]),
            "family.children[0].problem.children[0].problem.rank: expected an integer, got bool",
        ),
        (
            _family(1, children=[_child(1.0, _family(0))]),
            "family.children[0].node: expected an integer, got float",
        ),
        (
            _family(1, children=[_child(0, _family(1, solutions=[_SOLUTION, _SOLUTION]))]),
            "family.children[0].problem.solutions[1]: duplicate solution entry",
        ),
        (
            _family(1, children=[_child(0, _family(0, graph={**_LOOP, "edges": [[0, 0], [0, 5]]}))]),
            "family.children[0].problem.graph: edge (0,5) leaves the node range",
        ),
        (
            _family(1, children=[_child(0, _family(0, graph={"n": 0, "edges": [], "costs": []}))]),
            "family.children[0].problem.graph.n: a graph needs at least one node",
        ),
        (
            {**_family(1), "children": None},
            "family.children: expected an array, got NoneType",
        ),
        (
            _family(1, children=[_child(0, _family(0)), _child(1, [0])]),
            "family.children[1].problem: expected an object, got list",
        ),
    ],
)
def test_graph_item_errors_name_the_item(doc, message):
    assert _error_location(loads_document, dumps(doc)) == message


def _node(path, sequent, rule=None):
    return {"path": path, "rule": rule or {"tag": "initial", "index": 0}, "sequent": sequent}


def _eq(lhs, rhs):
    return {"neg": False, "lhs": lhs, "rhs": rhs}


_ONE = _eq({"num": 1}, {"num": 1})


def _derivation(*nodes):
    return {"end_x": 0, "nodes": list(nodes)}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            _derivation(_node([], [_ONE]), _node([True], [_ONE])),
            "derivation.nodes[1].path[0]: expected an integer, got bool",
        ),
        (
            _derivation(_node([], [_ONE]), _node([0, -1], [_ONE])),
            "derivation.nodes[1].path[1]: path entries are non-negative",
        ),
        (
            _derivation(_node([], [_ONE]), _node([0], [_ONE]), _node([0], [_ONE])),
            "derivation.nodes[2].path: duplicate node path",
        ),
        (
            _derivation(_node([], [_ONE]), _node([0], [_ONE], {"tag": "wat"})),
            "derivation.nodes[1].rule: unknown rule tag 'wat'",
        ),
        (
            _derivation(_node([], [_ONE]), _node([0], [_ONE, _eq({"num": True}, {"num": 1})])),
            "derivation.nodes[1].sequent[1].lhs.num: expected an integer, got bool",
        ),
        (
            _derivation(
                _node([], [_ONE]),
                _node([0], [_ONE, _ONE, _eq(_nested_div2(MAX_TERM_DEPTH + 1), {"num": 0})]),
            ),
            "derivation.nodes[1].sequent[2].lhs: term nests more than 256 operations",
        ),
        (
            _derivation(
                _node([], [{"ex": {"v": "z", "bound": {"num": 2}, "all": {"v": 3}}}])
            ),
            "derivation.nodes[0].sequent[0].ex.all.v: expected a string, got int",
        ),
        (
            _derivation(
                _node([], [_eq({"num": 0}, {"op": "add", "args": [{"num": 0}, {"var": ""}]})])
            ),
            "derivation.nodes[0].sequent[0].rhs.args[1]: variables carry a name",
        ),
    ],
)
def test_derivation_item_errors_name_the_item(doc, message):
    assert _error_location(loads_document, dumps(doc)) == message


def test_equal_formulas_in_one_derivation_decode_to_one_object(monkeypatch):
    doc = derivation_to_json(random_sigma2_derivation(20))
    decode = serialization.formula_from_json
    decoded = []

    def counted(obj, where):
        decoded.append(obj)
        return decode(obj, where)

    monkeypatch.setattr(serialization, "formula_from_json", counted)
    d = loads_document(dumps(doc))
    raw = [dumps(f) for node in doc["nodes"] for f in node["sequent"]]
    raw += [dumps(node["rule"]["formula"]) for node in doc["nodes"] if node["rule"]["tag"] == "cut"]
    assert len(decoded) == len(set(raw)) < len(raw)
    shared: dict = {}
    for node in d.nodes.values():
        cut = (node.rule.formula,) if isinstance(node.rule, CutRule) else ()
        for f in node.sequent + cut:
            assert shared.setdefault(f, f) is f


@lru_cache(maxsize=None)
def _generated(sigma, seed):
    make = random_sigma1_derivation if sigma == 1 else random_sigma2_derivation
    return make(seed)


def _leaf_paths(obj, at=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, at + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, at + (i,))
    else:
        yield at


def _replaced(obj, at, leaf):
    if not at:
        return leaf
    head, rest = at[0], at[1:]
    if isinstance(obj, dict):
        return {**obj, head: _replaced(obj[head], rest, leaf)}
    return [*obj[:head], _replaced(obj[head], rest, leaf), *obj[head + 1 :]]


_LEAVES = st.one_of(
    st.integers(min_value=-2, max_value=4),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from(["", "x", "z", "add", "div2", "initial", "exists", "exists-forall", "cut"]),
    st.text(max_size=3),
    st.none(),
)


@settings(deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=299),
    st.integers(min_value=0),
    _LEAVES,
)
def test_a_mutated_leaf_decodes_exactly_or_fails(sigma, seed, pick, leaf):
    d = _generated(sigma, seed)
    doc = derivation_to_json(d)
    assert loads_document(dumps(doc)) == d
    paths = list(_leaf_paths(doc))
    mutated = _replaced(doc, paths[pick % len(paths)], leaf)
    try:
        value = loads_document(dumps(mutated))
    except FormatError:
        return
    canonical = {**mutated, "nodes": sorted(mutated["nodes"], key=lambda n: n["path"])}
    assert dumps(derivation_to_json(value)) == dumps(canonical)


def _value_paths(obj, at=()):
    """The path of every value in a JSON document, the document included."""
    yield at
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _value_paths(value, at + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _value_paths(value, at + (i,))


def _key_paths(obj):
    return [at for at in _value_paths(obj) if at and isinstance(at[-1], str)]


def _deleted(obj, at):
    head, rest = at[0], at[1:]
    if not rest:
        return {k: v for k, v in obj.items() if k != head}
    if isinstance(obj, dict):
        return {**obj, head: _deleted(obj[head], rest)}
    return [*obj[:head], _deleted(obj[head], rest), *obj[head + 1 :]]


def _outcome(decode, obj):
    try:
        return decode(obj)
    except FormatError as exc:
        return str(exc)


def _walk_family(obj):
    return serialization._family_walk(obj, "family")


_DELETE = object()
_FAMILY_LEAVES = st.one_of(
    st.integers(min_value=-2, max_value=8),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, "", "0", "node", None, [], {}, [0], [0, 0], {"node": 0}]),
    st.just(_DELETE),
)


@lru_cache(maxsize=None)
def _generated_family(seed, rank, width):
    return generate_family(seed, rank, width)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0),
    _FAMILY_LEAVES,
)
def test_a_mutated_family_decodes_as_the_item_walk_does(seed, rank, width, pick, leaf):
    """Whole-document checks agree with the item-by-item walk on each mutation.

    One value of a generated family (any leaf or subtree) is replaced,
    or one key is deleted.  Both decoders return equal families, or
    both raise FormatError with the same message.
    """
    doc = family_to_json(_generated_family(seed, rank, width))
    if leaf is _DELETE:
        keys = _key_paths(doc)
        mutated = _deleted(doc, keys[pick % len(keys)])
    else:
        paths = list(_value_paths(doc))
        mutated = _replaced(doc, paths[pick % len(paths)], leaf)
    assert _outcome(family_from_json, mutated) == _outcome(_walk_family, mutated)


_PROBE_LEAVES = (-1, 0, 5, True, 1.0, None, "0", [], {}, [0, 0])


@pytest.mark.parametrize("seed, rank, width", [(1, 2, 2), (2, 1, 3), (3, 3, 1), (4, 0, 4)])
def test_every_single_mutation_of_a_small_family_decodes_as_the_item_walk_does(seed, rank, width):
    doc = family_to_json(generate_family(seed, rank, width))
    mutated = [_replaced(doc, at, leaf) for at in _value_paths(doc) for leaf in _PROBE_LEAVES]
    mutated += [_deleted(doc, at) for at in _key_paths(doc)]
    for obj in mutated:
        assert _outcome(family_from_json, obj) == _outcome(_walk_family, obj), obj


def test_well_formed_families_never_take_the_item_walk(monkeypatch):
    def walk(obj, where):
        raise AssertionError(f"the item walk ran on a well-formed family at {where}")

    docs = [family_to_json(ng2())]
    docs += [
        family_to_json(generate_family(seed, rank, width))
        for seed in range(1, 6)
        for rank in range(MAX_RANK + 1)
        for width in (1, 3, 5)
    ]
    expected = [_walk_family(doc) for doc in docs]
    monkeypatch.setattr(serialization, "_family_walk", walk)
    assert [loads_document(dumps(doc)) for doc in docs] == expected


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
