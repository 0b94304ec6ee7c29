from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npls import serialization
from npls.corpus import FIXTURES, ng2, random_sigma1_derivation, random_sigma2_derivation
from npls.cli import main
from npls.derivation import CutRule, ExistsForallRule, ExistsRule, expand_template, validate
from npls.errors import FormatError
from npls.extraction import ExtractionContext, extract_witness_pls
from npls.nested_graph import (
    MAX_RANK,
    NestedGraphFamily,
    family_table,
    generate_family,
    npls_from_family,
    npls_from_table,
)
from npls.search_core import solve_npls, verify_npls_conditions
from npls.serialization import (
    MAX_TERM_DEPTH,
    Document,
    derivation_from_json,
    derivation_to_json,
    document_from_json,
    document_to_json,
    dumps,
    family_to_json,
    formula_from_json,
    formula_to_json,
    literal_from_json,
    loads_document,
    rule_from_json,
    rule_to_json,
    template_from_json,
    template_to_json,
    term_from_json,
    term_to_json,
)
from npls.terms import ExistsForall, ExistsLit, Literal, add, num, smash, var
from test_cli_golden import REPEATS, _broken_upper_d2, _false_leaf_d3, full_form


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_round_trips(name):
    doc = FIXTURES[name]()
    again = loads_document(dumps(document_to_json(doc)))
    # A family document decodes to its table.
    if isinstance(doc, NestedGraphFamily):
        doc = family_table(doc)
    assert again == doc
    assert type(again) is type(doc)


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


def _nested_div2(depth, obj={"var": "x"}):
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
    # JSON has no tuple; a stated sequent is an array even in a document built in memory.
    assert _error_location(document_from_json, _derivation(_node([], ()))) == (
        "derivation.nodes[0].sequent: expected an array, got tuple"
    )


def test_digraph_parse_errors():
    assert "pair" in _error_location(
        document_from_json, {"n": 2, "edges": [[0]], "costs": [1, 0]}
    )
    assert "one cost per node" in _error_location(
        document_from_json, {"n": 2, "edges": [], "costs": [1]}
    )
    assert "at least one node" in _error_location(
        document_from_json, {"n": 0, "edges": [], "costs": []}
    )


def test_a_tuple_edge_pair_is_refused_by_both_digraph_passes():
    # JSON has no tuple; an edge pair is an array even in a document built in memory.
    doc = {"n": 2, "edges": [(0, 1)], "costs": [1, 0]}
    message = "digraph.edges[0]: expected an array, got tuple"
    assert serialization._digraph_at_once(doc) is None
    assert _error_location(serialization._digraph_walk, doc, "digraph") == message
    assert _error_location(document_from_json, doc) == message


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


# Over 2000 levels of dicts and lists, more than ``marshal`` can key.
_TOO_DEEP_TO_KEY = _nested_div2(1100)


def _too_deep_d2(place):
    doc = full_form(derivation_to_json(FIXTURES["D2"]()))
    deep = _eq(_TOO_DEEP_TO_KEY, {"num": 0})
    if place == "witness":
        doc["nodes"][2]["rule"]["witness"] = _TOO_DEEP_TO_KEY
    elif place == "sequent":
        doc["nodes"][3]["sequent"][2] = deep
    else:
        doc["nodes"][0]["rule"]["formula"] = deep
    return doc


def _too_deep_t_d3():
    doc = template_to_json(FIXTURES["T-D3"]())
    doc["root"]["sequent"][0] = _eq(_TOO_DEEP_TO_KEY, {"num": 0})
    return doc


@pytest.mark.parametrize(
    "decode, doc, message",
    [
        (
            derivation_from_json,
            _too_deep_d2("witness"),
            "derivation.nodes[2].rule.witness: term nests more than 256 operations",
        ),
        (
            derivation_from_json,
            _too_deep_d2("sequent"),
            "derivation.nodes[3].sequent[2].lhs: term nests more than 256 operations",
        ),
        (
            derivation_from_json,
            _too_deep_d2("cut"),
            "derivation.nodes[0].rule.formula.lhs: term nests more than 256 operations",
        ),
        (
            template_from_json,
            _too_deep_t_d3(),
            "template.root.sequent[0].lhs: term nests more than 256 operations",
        ),
    ],
)
def test_a_value_too_deep_to_key_fails_at_the_depth_cap(decode, doc, message):
    """A value ``marshal`` cannot key is decoded unshared, so the depth cap names it.

    The documents are decoded as objects: the JSON parser may reject
    text nested this deeply before the decoder sees it.
    """
    assert _error_location(decode, doc) == message


def _instance_documents(body_depth, witness_depth):
    """A root existential rule and its leaf, compact and with the leaf's sequent stated.

    The body nests its variable ``body_depth`` operations deep on the
    left and holds it bare on the right; the witness nests
    ``witness_depth`` deep, so the instance nests their sum.
    """
    v = {"var": "v"}
    body = _eq(_nested_div2(body_depth, v), v)
    ex = {"ex": {"v": "v", "bound": {"num": 1}, "body": body}}
    witness = _nested_div2(witness_depth, {"num": 0})
    root = _node([], [ex], {"tag": "exists", "principal": 0, "witness": witness})
    leaf = {"path": [0], "rule": {"tag": "initial", "index": 1}}
    instance = _eq(_nested_div2(body_depth, witness), witness)
    return _derivation(root, leaf), _derivation(root, {**leaf, "sequent": [ex, instance]})


@pytest.mark.parametrize(
    "body_depth, witness_depth",
    [(0, MAX_TERM_DEPTH), (128, 128), (129, 128), (MAX_TERM_DEPTH, MAX_TERM_DEPTH)],
)
def test_an_omitted_instance_is_held_to_the_term_depth_cap(body_depth, witness_depth):
    """Both forms accept the same instances, and refuse the same ones at the cap.

    The documents are decoded as objects: the JSON parser may reject
    text nested this deeply before the decoder sees it.
    """
    compact, full = _instance_documents(body_depth, witness_depth)
    if body_depth + witness_depth <= MAX_TERM_DEPTH:
        # Compared as JSON: == on two distinct terms this deep passes the recursion limit.
        for doc in (compact, full):
            leaf = derivation_from_json(doc).sequent((0,))
            assert [formula_to_json(f) for f in leaf] == full["nodes"][1]["sequent"]
    else:
        message = "term nests more than 256 operations"
        assert _error_location(derivation_from_json, compact) == f"derivation.nodes[1]: {message}"
        assert _error_location(derivation_from_json, full) == (
            f"derivation.nodes[1].sequent[1].lhs: {message}"
        )


def test_a_node_under_a_too_deep_instance_states_its_sequent():
    """The encoder states a sequent whose parent's rule adds an instance too deep to decode."""
    compact, _ = _instance_documents(129, 128)
    doc = {**compact, "nodes": [compact["nodes"][0], _node([0], [_ONE])]}
    d = derivation_from_json(doc)
    assert derivation_to_json(d) == doc
    assert derivation_from_json(derivation_to_json(d)) == d


def _chain_document(depth):
    """An existential chain: each of ``depth`` rules adds an instance of ∃y<4 (y = 2).

    Only the root states its sequent.  Every instance is false but the
    last, on which the leaf closes.
    """
    end = {"ex": {"v": "y", "bound": {"num": 4}, "body": _eq({"var": "y"}, {"num": 2})}}
    witnesses = [(0, 1, 3)[k % 3] for k in range(depth - 1)] + [2]
    nodes = [
        {"path": [0] * k, "rule": {"tag": "exists", "principal": 0, "witness": {"num": w}}}
        for k, w in enumerate(witnesses)
    ]
    nodes[0]["sequent"] = [end]
    nodes.append({"path": [0] * depth, "rule": {"tag": "initial", "index": depth}})
    return {"end_x": 0, "nodes": nodes}


def test_a_deep_chain_keeps_one_formula_per_derived_node():
    depth = 2000
    d = derivation_from_json(_chain_document(depth))
    assert len(d.nodes) == depth + 1
    # The root states its one formula, and every other node the one it adds.
    assert sum(len(node.sequent) for node in d.nodes.values()) <= depth + 1
    assert all(node.derived for path, node in d.nodes.items() if path)
    assert len(d.sequent((0,) * depth)) == depth + 1
    report = validate(d, "pls")
    assert report.ok
    # No fact by node id is a set or a sequent; ``paths`` lists the node paths.
    for name, facts in vars(report.table).items():
        if name != "paths" and isinstance(facts, list) and len(facts) == len(d.nodes):
            assert not any(isinstance(f, (set, frozenset, tuple)) for f in facts)
    got = extract_witness_pls(ExtractionContext(d, "pls"))
    assert (got.witness, got.verified, got.solution_node) == (2, True, (0,) * (depth - 1))


def _counted_decoders(monkeypatch):
    """The raw formulas, rules and witnesses decoded from now on."""
    formulas, rules, witnesses = [], [], []
    decode, decode_rule = serialization.formula_from_json, serialization.rule_from_json
    decode_term = serialization.term_from_json

    def counted(obj, where):
        formulas.append(obj)
        return decode(obj, where)

    def counted_rule(obj, where, **memos):
        rules.append(obj)
        return decode_rule(obj, where, **memos)

    def counted_term(obj, where="term"):
        if isinstance(where, tuple) and where[1] == ".witness":
            witnesses.append(obj)
        return decode_term(obj, where)

    monkeypatch.setattr(serialization, "formula_from_json", counted)
    monkeypatch.setattr(serialization, "rule_from_json", counted_rule)
    monkeypatch.setattr(serialization, "term_from_json", counted_term)
    return formulas, rules, witnesses


def _distinct_raw(doc):
    """The numbers of distinct raw formulas, raw rules and raw witnesses of a derivation document.

    Only stated sequents count.  The ``repr`` of a raw value tells
    ``true`` from ``1``; every object of a document built by
    ``derivation_to_json`` or ``full_form`` lists its keys in one order.
    """
    nodes = doc["nodes"]
    formulas = {repr(f) for node in nodes for f in node.get("sequent", ())}
    formulas |= {repr(node["rule"]["formula"]) for node in nodes if node["rule"]["tag"] == "cut"}
    witnesses = {repr(node["rule"]["witness"]) for node in nodes if "witness" in node["rule"]}
    return len(formulas), len({repr(node["rule"]) for node in nodes}), len(witnesses)


def test_equal_formulas_in_one_derivation_decode_to_one_object(monkeypatch):
    doc = full_form(derivation_to_json(random_sigma2_derivation(20)))
    decoded, rules, witnesses = _counted_decoders(monkeypatch)
    d = loads_document(dumps(doc))
    assert (len(decoded), len(rules), len(witnesses)) == _distinct_raw(doc)
    assert len(decoded) < sum(len(node["sequent"]) for node in doc["nodes"])
    assert len(witnesses) < len(rules) < len(doc["nodes"])
    shared: dict = {}
    cuts = 0
    for path, node in d.nodes.items():
        cut = (node.rule.formula,) if isinstance(node.rule, CutRule) else ()
        for f in d.sequent(path) + cut:
            assert shared.setdefault(f, f) is f
        if cut:
            final = max(p for p in d.nodes if p[:-1] == path and len(p) == len(path) + 1)
            assert node.rule.formula is d.sequent(final)[-1]
            cuts += 1
    assert cuts


def _repeat_text(name):
    """The D2 copy ``name`` of ``REPEATS``, as JSON text with its keys as they stand."""
    return json.dumps(REPEATS[name]())


def test_a_repeat_with_true_for_one_fails_at_its_own_location():
    assert _error_location(loads_document, _repeat_text("true-for-one")) == (
        "derivation.nodes[3].sequent[0].ex.body.rhs.args[0].num: expected an integer, got bool"
    )


def test_a_repeat_with_its_keys_in_another_order_decodes_to_an_equal_formula():
    text = _repeat_text("reordered-keys")
    nodes = json.loads(text)["nodes"]
    assert json.dumps(nodes[3]["sequent"][0]) != json.dumps(nodes[0]["sequent"][0])
    assert dumps(json.loads(text)) == dumps(full_form(derivation_to_json(FIXTURES["D2"]())))
    d = loads_document(text)
    assert d == FIXTURES["D2"]()
    assert d.sequent((1, 0))[0] == d.sequent(())[0]


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
    st.booleans(),
    st.integers(min_value=0),
    _LEAVES,
)
def test_a_mutated_leaf_decodes_exactly_or_fails(sigma, seed, full, pick, leaf):
    """A document with one leaf replaced fails, or encodes back to itself.

    Half of the documents state every sequent; those are compared with
    every sequent of the decoded value stated.
    """
    d = _generated(sigma, seed)
    encode = (lambda v: full_form(derivation_to_json(v))) if full else derivation_to_json
    doc = encode(d)
    assert loads_document(dumps(doc)) == d
    paths = list(_leaf_paths(doc))
    mutated = _replaced(doc, paths[pick % len(paths)], leaf)
    try:
        value = loads_document(dumps(mutated))
    except FormatError:
        return
    canonical = {**mutated, "nodes": sorted(mutated["nodes"], key=lambda n: n["path"])}
    assert dumps(encode(value)) == dumps(canonical)


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


def _assert_decodes_as_the_walk_does(obj):
    """The whole-document checks give the table of the walk's objects, or refuse what it refuses.

    A table keeps each problem's pairs in file order, and the walk's
    objects sort them.  Every mutated document here is a JSON value, so
    where the checks refuse it the walk must name a bad value.
    """
    table = serialization._family_at_once(obj)
    walked = _outcome(lambda o: family_table(_walk_family(o)), obj)
    if table is None:
        assert isinstance(walked, str), obj
    else:
        assert table._replace(edges=list(map(sorted, table.edges))) == walked, obj


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
    or one key is deleted.  The checks return the table of the walk's
    objects, or they refuse the document and the walk raises FormatError.
    """
    doc = family_to_json(_generated_family(seed, rank, width))
    if leaf is _DELETE:
        keys = _key_paths(doc)
        mutated = _deleted(doc, keys[pick % len(keys)])
    else:
        paths = list(_value_paths(doc))
        mutated = _replaced(doc, paths[pick % len(paths)], leaf)
    _assert_decodes_as_the_walk_does(mutated)


_PROBE_LEAVES = (-1, 0, 5, True, 1.0, None, "0", [], {}, [0, 0])


@pytest.mark.parametrize("seed, rank, width", [(1, 2, 2), (2, 1, 3), (3, 3, 1), (4, 0, 4)])
def test_every_single_mutation_of_a_small_family_decodes_as_the_item_walk_does(seed, rank, width):
    doc = family_to_json(generate_family(seed, rank, width))
    mutated = [_replaced(doc, at, leaf) for at in _value_paths(doc) for leaf in _PROBE_LEAVES]
    mutated += [_deleted(doc, at) for at in _key_paths(doc)]
    for obj in mutated:
        _assert_decodes_as_the_walk_does(obj)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # any failure is part of the outcome compared
        return repr(exc)


def _compiled(compile_family, family):
    """The bit width, solve trace and condition report of a compiled family, or its error."""
    inst = _attempt(compile_family, family)
    if isinstance(inst, str):
        return inst
    return inst.d, _attempt(solve_npls, inst), _attempt(verify_npls_conditions, inst)


@pytest.mark.parametrize("seed", range(1, 4))
def test_decoded_and_flattened_tables_compile_alike(seed):
    for rank in range(MAX_RANK + 1):
        for width in (1, 3, 5):
            fam = generate_family(seed, rank, width)
            decoded = loads_document(dumps(family_to_json(fam)))
            assert _compiled(npls_from_table, decoded) == _compiled(npls_from_table, family_table(fam))


@pytest.mark.parametrize("seed, rank, width", [(1, 2, 2), (2, 1, 3), (3, 3, 1), (4, 0, 4)])
def test_every_single_mutation_of_a_small_family_compiles_as_the_item_walk_does(seed, rank, width):
    """A mutated family file fails or compiles as the objects of the item walk do.

    Where the walk names a bad value, ``loads_document`` raises the same
    message; where it succeeds, the decoded table compiles to the same
    instance outcome, a ``TotalityViolated`` included.  Mutations that
    make the document no longer look like a family are left out.
    """
    doc = family_to_json(generate_family(seed, rank, width))
    mutated = [_replaced(doc, at, leaf) for at in _value_paths(doc) for leaf in _PROBE_LEAVES]
    mutated += [_deleted(doc, at) for at in _key_paths(doc)]
    for obj in mutated:
        if not (isinstance(obj, dict) and "rank" in obj and "graph" in obj):
            continue
        walked = _outcome(_walk_family, obj)
        decoded = _outcome(loads_document, dumps(obj))
        if isinstance(walked, str):
            assert decoded == walked, obj
        else:
            assert _compiled(npls_from_table, decoded) == _compiled(npls_from_family, walked), obj


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
    walked = [_walk_family(doc) for doc in docs]
    monkeypatch.setattr(serialization, "_family_walk", walk)
    assert [loads_document(dumps(doc)) for doc in docs] == list(map(family_table, walked))
    assert list(map(document_from_json, docs)) == list(map(family_table, walked))


def _assert_shared(doc, d):
    """Check the objects that ``d``, decoded from ``doc``, shares.

    Equal stated formulas, cut formulas and witnesses are one object, a
    cut's final upper ends with the cut formula object itself, and an
    omitted sequent is its parent's objects followed by one added
    formula, which the node holds alone.
    """
    stated = {tuple(node["path"]) for node in doc["nodes"] if "sequent" in node}
    shared: dict = {}
    for path in sorted(d.nodes):
        node = d.nodes[path]
        if path in stated:
            assert all(shared.setdefault(f, f) is f for f in node.sequent)
        else:
            lower = d.sequent(path[:-1])
            assert node.derived and len(node.sequent) == 1
            assert all(map(is_, d.sequent(path), lower + node.sequent))
        if isinstance(node.rule, CutRule):
            cut = node.rule.formula
            assert shared.setdefault(cut, cut) is cut
            final = max(p for p in d.nodes if p[:-1] == path and len(p) == len(path) + 1)
            assert d.sequent(final)[-1] is cut
        if isinstance(node.rule, (ExistsRule, ExistsForallRule)):
            witness = node.rule.witness
            assert shared.setdefault(("witness", witness), witness) is witness


def _renamed_key(obj, at, new):
    head, rest = at[0], at[1:]
    if not rest:
        return {(new if k == head else k): v for k, v in obj.items()}
    if isinstance(obj, dict):
        return {**obj, head: _renamed_key(obj[head], rest, new)}
    return [*obj[:head], _renamed_key(obj[head], rest, new), *obj[head + 1 :]]


@lru_cache(maxsize=None)
def _generated_doc(sigma, seed, full):
    doc = derivation_to_json(_generated(sigma, seed))
    if full:
        doc = full_form(doc)
    return doc, list(_value_paths(doc)), _key_paths(doc)


_RENAME = object()
_SUBTREE = object()
_DERIVATION_LEAVES = st.one_of(
    st.integers(min_value=-2, max_value=4),
    st.booleans(),
    st.sampled_from([0.0, 1.0, "", "x", "cut", "add", None, [], {}, [0], {"num": 1}]),
    st.sampled_from([_DELETE, _RENAME, _SUBTREE]),
)
_KEYS = st.sampled_from(["num", "var", "op", "args", "neg", "lhs", "ex", "v", "all", "tag", "path"])


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from([1, 2]),
    st.integers(min_value=0, max_value=59),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0),
    st.integers(min_value=0),
    _DERIVATION_LEAVES,
    _KEYS,
)
def test_a_mutated_derivation_fails_at_a_location_or_round_trips(
    sigma, seed, full, shallow, pick, other, leaf, key
):
    """Each mutation decodes to a derivation that round-trips, or fails as malformed.

    One value of a generated derivation (a leaf, a subtree, or a copy of
    another of its values) is replaced, or one key is renamed or
    deleted.  Half of the mutations hit the node level (a node, its
    path or path entries, its rule or its sequent list), where most
    values are formula leaves.  Half of the documents state every
    sequent.  A refused document raises FormatError with a location in
    the derivation; no other exception escapes.  A decoded one encodes
    to a document that decodes back to an equal derivation and encodes
    to the same value again.
    """
    doc, paths, keys = _generated_doc(sigma, seed, full)
    if shallow:
        paths = [at for at in paths if len(at) <= 4]
        keys = [at for at in keys if len(at) <= 4]
    if leaf is _DELETE:
        mutated = _deleted(doc, keys[pick % len(keys)])
    elif leaf is _RENAME:
        mutated = _renamed_key(doc, keys[pick % len(keys)], key)
    else:
        if leaf is _SUBTREE:
            leaf = doc
            for step in paths[other % len(paths)]:
                leaf = leaf[step]
        mutated = _replaced(doc, paths[pick % len(paths)], leaf)
    try:
        d = derivation_from_json(mutated)
    except FormatError as exc:
        assert str(exc).startswith("derivation"), exc
        return
    encoded = derivation_to_json(d)
    again = derivation_from_json(encoded)
    assert again == d
    assert derivation_to_json(again) == encoded


def test_well_formed_derivations_decode_each_distinct_value_once(monkeypatch):
    """Each distinct raw formula, raw rule and raw witness of a document is decoded once.

    Over D1–D3 and the Σ1 and Σ2 derivations of seeds 0–59, in compact
    and in full form, every document decodes to the derivation it
    encodes and shares its objects as ``_assert_shared`` checks.
    """
    derivations = [FIXTURES[name]() for name in ("D1", "D2", "D3")]
    derivations += [_generated(sigma, seed) for sigma in (1, 2) for seed in range(60)]
    docs = list(map(derivation_to_json, derivations))
    docs += list(map(full_form, docs))
    derivations += derivations
    formulas, rules, witnesses = _counted_decoders(monkeypatch)
    decoded = list(map(serialization.derivation_from_json, docs))
    assert decoded == derivations
    distinct = list(map(_distinct_raw, docs))
    assert (len(formulas), len(rules), len(witnesses)) == tuple(map(sum, zip(*distinct)))
    for doc, d in zip(docs, decoded):
        _assert_shared(doc, d)


# The corpora of the round trip: D1–D3, T-D2 and T-D3 expanded at each x,
# and the Σ1 and Σ2 derivations of seeds 0–299.
_TEMPLATE_XS = (0, 1, 3, 7, 50, 101, 400)
# A fixed subset, by (name, derivation builder), that the CLI runs in both forms.
_RUN_BOTH_FORMS = (
    ("D1", FIXTURES["D1"]),
    ("D3", FIXTURES["D3"]),
    ("T-D2-7", lambda: expand_template(FIXTURES["T-D2"](), 7)),
    ("T-D3-50", lambda: expand_template(FIXTURES["T-D3"](), 50)),
    ("sigma1-3", lambda: _generated(1, 3)),
    ("sigma1-41", lambda: _generated(1, 41)),
    ("sigma2-12", lambda: _generated(2, 12)),
    ("sigma2-20", lambda: _generated(2, 20)),
    ("d3-false-leaf", lambda: derivation_from_json(_false_leaf_d3())),
    ("d2-broken-upper", lambda: derivation_from_json(_broken_upper_d2())),
)


def _cli_outputs(path):
    """Exit code, stdout and stderr of each command on ``path``, in machine format."""
    outputs = []
    for command in ("validate", "extract", "solve", "verify"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path), "--format", "machine"])
        outputs.append((command, code, out.getvalue(), err.getvalue()))
    return outputs


def test_compact_documents_round_trip_and_run_as_full_form_does(tmp_path):
    """Every corpus derivation states only its root sequent and decodes back to itself.

    On a fixed subset, two broken copies of D2 and D3 included, the four
    commands print the same bytes and exit alike on the compact text and
    on the text that states every sequent.  The broken D2's upper (1,0)
    does not follow from its rule, so its compact text still states it.
    """
    derivations = [FIXTURES[name]() for name in ("D1", "D2", "D3")]
    derivations += [
        expand_template(FIXTURES[name](), x) for name in ("T-D2", "T-D3") for x in _TEMPLATE_XS
    ]
    derivations += [_generated(sigma, seed) for sigma in (1, 2) for seed in range(300)]
    for d in derivations:
        doc = derivation_to_json(d)
        assert derivation_from_json(doc) == d
        assert "sequent" in doc["nodes"][0] and doc["nodes"][0]["path"] == []
        assert not any("sequent" in node for node in doc["nodes"][1:])
    for name, build in _RUN_BOTH_FORMS:
        doc = derivation_to_json(build())
        compact, full = tmp_path / f"{name}.json", tmp_path / f"{name}-full.json"
        compact.write_text(dumps(doc), encoding="utf-8")
        full.write_text(dumps(full_form(doc)), encoding="utf-8")
        assert derivation_from_json(full_form(doc)) == derivation_from_json(doc)
        assert len(compact.read_bytes()) < len(full.read_bytes())
        assert _cli_outputs(compact) == [
            (command, code, out, err.replace(str(full), str(compact)))
            for command, code, out, err in _cli_outputs(full)
        ], name


# The length and SHA-256 of the text that ``derivation_to_json`` wrote,
# every sequent stated, before a node could leave its sequent out.
_FULL_TEXT = {
    "D2": (1911, "026e0214aec4d5ca841fff692419469e32d18c4d4d1d178a1dbba23077698b36"),
    "D3": (4445, "ef16569ca2d1511994e8e83c5189383c08c364ea0349747ff389b5044a9ee7a4"),
    "sigma2-20": (174622, "8dc64021eec0062872629a4f338ef540f6bf3c1f209ab6fbcdffd9ed57b21db4"),
}


def test_full_form_writes_the_text_that_stated_every_sequent():
    derivations = {
        "D2": FIXTURES["D2"](),
        "D3": FIXTURES["D3"](),
        "sigma2-20": random_sigma2_derivation(20),
    }
    for name, d in derivations.items():
        text = dumps(full_form(derivation_to_json(d))).encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == _FULL_TEXT[name], name


# SHA-256 of the compact documents of each set, one ``dumps`` line per
# derivation.  ``bench/inputs.py`` writes its derivation files through the
# same encoder, so equal digests mean the same benchmark inputs.
_COMPACT_SHA256 = {
    "sigma1-0-299": "de3c09194b3182943f867cd938760ac9a615004c38505b22ecda8fb06e238508",
    "sigma2-0-299": "b12af2cfbee58a19e39825d388ae1cecb33a4532ec93d58f40aebd4db02e5c7e",
    "D1-D3": "992b309241df07b6e2813993d794bd96abbd54ba777cfc85776e277c2a12de30",
    "T-D2,T-D3": "bded7d35f45bd3060c33b579fe31c47099813f5211e5ad39bf10b3ea26bfbdc5",
}


def test_compact_documents_keep_their_pinned_bytes():
    sets = {
        "sigma1-0-299": (random_sigma1_derivation(s) for s in range(300)),
        "sigma2-0-299": (random_sigma2_derivation(s) for s in range(300)),
        "D1-D3": (FIXTURES[name]() for name in ("D1", "D2", "D3")),
        "T-D2,T-D3": (
            expand_template(FIXTURES[name](), x)
            for name in ("T-D2", "T-D3")
            for x in (0, 1, 3, 7, 50, 101, 400)
        ),
    }
    for name, derivations in sets.items():
        digest = hashlib.sha256()
        for d in derivations:
            digest.update(dumps(derivation_to_json(d)).encode() + b"\n")
        assert digest.hexdigest() == _COMPACT_SHA256[name], name


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


def test_values_nested_past_the_recursion_limit_fail_as_malformed():
    """Python-built documents deeper than the decoders recurse raise FormatError.

    ``json.loads`` refuses such depth first, so only a caller that
    decodes a Python value reaches the family walk or the template decoder.
    """
    family = _family(0)
    node: dict = {"rule": {"tag": "initial", "index": 0}, "sequent": []}
    for _ in range(3000):
        family = _family(1, children=[{"node": 0, "problem": family}])
        node = {"rule": {"tag": "initial", "index": 0}, "sequent": [], "children": [node]}
    for decode, obj in (
        (document_from_json, family),
        (document_from_json, {"root": node}),
        (template_from_json, {"root": node}),
    ):
        with pytest.raises(FormatError, match="^document is nested too deeply to decode$"):
            decode(obj)


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
        assert isinstance(document_from_json(document_to_json(FIXTURES[name]())), Document)
