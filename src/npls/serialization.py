"""JSON encodings for terms, derivations, templates, graphs and families.

Every ``*_to_json`` function returns plain dictionaries and lists; the
``dumps`` helper renders them with sorted keys and no whitespace, so
equal values always serialize to identical bytes.  Every ``*_from_json``
function validates shape as it decodes and raises FormatError with the
offending location on any mismatch.

Documents are distinguished by their top-level keys: a derivation has
``end_x`` and ``nodes``, a template has ``root``, a family has ``rank``
and ``graph``, and a bare digraph has ``n`` and ``edges``.
"""

from __future__ import annotations

import json
from typing import Any

from .derivation import (
    CutRule,
    Derivation,
    DerivationTemplate,
    ExistsForallRule,
    ExistsRule,
    FamilySpec,
    InitialRule,
    ProofNode,
    Rule,
    TemplateNode,
)
from .errors import FormatError
from .nested_graph import CostedDigraph, NestedGraphFamily
from .terms import (
    OPS,
    ExistsForall,
    ExistsLit,
    Formula,
    LitFormula,
    Literal,
    Term,
    num,
    var,
)


def dumps(obj: Any) -> str:
    """Render a JSON value deterministically: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fail(where: str, message: str) -> FormatError:
    return FormatError(f"{where}: {message}")


def _need_dict(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object, got {type(obj).__name__}")
    return obj


def _need_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise _fail(where, f"expected an array, got {type(obj).__name__}")
    return obj


def _is_int(obj: Any) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _need_int(obj: Any, where: str) -> int:
    if not _is_int(obj):
        raise _fail(where, f"expected an integer, got {type(obj).__name__}")
    return obj


def _need_str(obj: Any, where: str) -> str:
    if not isinstance(obj, str):
        raise _fail(where, f"expected a string, got {type(obj).__name__}")
    return obj


def _get(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise _fail(where, f"missing key {key!r}")
    return obj[key]


# Terms and formulas


def term_to_json(t: Term) -> Any:
    if t.op == "num":
        return {"num": t.value}
    if t.op == "var":
        return {"var": t.name}
    return {"op": t.op, "args": [term_to_json(a) for a in t.args]}


# Validation, evaluation and hashing all recurse on a term's nesting, so
# a term whose operations nest deeper than this is malformed input.
MAX_TERM_DEPTH = 256


def term_from_json(obj: Any, where: str = "term") -> Term:
    return _term_from_json(obj, where, where, 0)


def _term_from_json(obj: Any, where: str, root: str, depth: int) -> Term:
    d = _need_dict(obj, where)
    if "num" in d:
        value = _need_int(d["num"], where + ".num")
        if value < 0:
            raise _fail(where, "numerals are non-negative")
        return num(value)
    if "var" in d:
        return var(_need_str(d["var"], where + ".var"))
    if depth == MAX_TERM_DEPTH:
        raise _fail(root, f"term nests more than {MAX_TERM_DEPTH} operations")
    op = _need_str(_get(d, "op", where), where + ".op")
    if op not in OPS:
        raise _fail(where, f"unknown operation {op!r}")
    args = _need_list(_get(d, "args", where), where + ".args")
    decoded = tuple(
        _term_from_json(a, f"{where}.args[{i}]", root, depth + 1) for i, a in enumerate(args)
    )
    try:
        return Term(op, decoded)
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


def literal_to_json(lit: Literal) -> Any:
    return {
        "neg": lit.negated,
        "lhs": term_to_json(lit.lhs),
        "rhs": term_to_json(lit.rhs),
    }


def literal_from_json(obj: Any, where: str = "literal") -> Literal:
    d = _need_dict(obj, where)
    negated = _get(d, "neg", where)
    if not isinstance(negated, bool):
        raise _fail(where + ".neg", "expected a boolean")
    return Literal(
        negated,
        term_from_json(_get(d, "lhs", where), where + ".lhs"),
        term_from_json(_get(d, "rhs", where), where + ".rhs"),
    )


def formula_to_json(f: Formula) -> Any:
    if isinstance(f, LitFormula):
        return literal_to_json(f.lit)
    if isinstance(f, ExistsLit):
        return {
            "ex": {
                "v": f.var,
                "bound": term_to_json(f.bound),
                "body": literal_to_json(f.body),
            }
        }
    if isinstance(f, ExistsForall):
        return {
            "ex": {
                "v": f.var1,
                "bound": term_to_json(f.bound1),
                "all": {
                    "v": f.var2,
                    "bound": term_to_json(f.bound2),
                    "body": literal_to_json(f.body),
                },
            }
        }
    raise TypeError(f"not a formula: {f!r}")


def formula_from_json(obj: Any, where: str = "formula") -> Formula:
    d = _need_dict(obj, where)
    if "ex" not in d:
        return LitFormula(literal_from_json(d, where))
    ex = _need_dict(d["ex"], where + ".ex")
    v = _need_str(_get(ex, "v", where + ".ex"), where + ".ex.v")
    bound = term_from_json(_get(ex, "bound", where + ".ex"), where + ".ex.bound")
    if "all" in ex:
        al = _need_dict(ex["all"], where + ".ex.all")
        return ExistsForall(
            v,
            bound,
            _need_str(_get(al, "v", where + ".ex.all"), where + ".ex.all.v"),
            term_from_json(_get(al, "bound", where + ".ex.all"), where + ".ex.all.bound"),
            literal_from_json(_get(al, "body", where + ".ex.all"), where + ".ex.all.body"),
        )
    return ExistsLit(
        v, bound, literal_from_json(_get(ex, "body", where + ".ex"), where + ".ex.body")
    )


# Rules


def rule_to_json(rule: Rule) -> Any:
    if isinstance(rule, InitialRule):
        return {"tag": "initial", "index": rule.index}
    if isinstance(rule, ExistsRule):
        return {
            "tag": "exists",
            "principal": rule.principal,
            "witness": term_to_json(rule.witness),
        }
    if isinstance(rule, ExistsForallRule):
        return {
            "tag": "exists-forall",
            "principal": rule.principal,
            "witness": term_to_json(rule.witness),
        }
    if isinstance(rule, CutRule):
        return {"tag": "cut", "formula": formula_to_json(rule.formula)}
    raise TypeError(f"not a rule: {rule!r}")


def rule_from_json(obj: Any, where: str = "rule") -> Rule:
    d = _need_dict(obj, where)
    tag = _need_str(_get(d, "tag", where), where + ".tag")
    if tag == "initial":
        return InitialRule(_need_int(_get(d, "index", where), where + ".index"))
    if tag in ("exists", "exists-forall"):
        principal = _need_int(_get(d, "principal", where), where + ".principal")
        witness = term_from_json(_get(d, "witness", where), where + ".witness")
        cls = ExistsRule if tag == "exists" else ExistsForallRule
        return cls(principal, witness)
    if tag == "cut":
        return CutRule(formula_from_json(_get(d, "formula", where), where + ".formula"))
    raise _fail(where, f"unknown rule tag {tag!r}")


# Derivations


def derivation_to_json(d: Derivation) -> Any:
    nodes = []
    for path in sorted(d.nodes):
        node = d.nodes[path]
        nodes.append(
            {
                "path": list(path),
                "rule": rule_to_json(node.rule),
                "sequent": [formula_to_json(f) for f in node.sequent],
            }
        )
    return {"end_x": d.end_x, "nodes": nodes}


def _path_from_json(obj: Any, where: str) -> tuple[int, ...]:
    entries = _need_list(obj, where)
    path = []
    for i, e in enumerate(entries):
        n = _need_int(e, f"{where}[{i}]")
        if n < 0:
            raise _fail(f"{where}[{i}]", "path entries are non-negative")
        path.append(n)
    return tuple(path)


def derivation_from_json(obj: Any) -> Derivation:
    d = _need_dict(obj, "derivation")
    end_x = _need_int(_get(d, "end_x", "derivation"), "derivation.end_x")
    if end_x < 0:
        raise _fail("derivation.end_x", "the parameter is non-negative")
    nodes: dict[tuple[int, ...], ProofNode] = {}
    for i, raw in enumerate(_need_list(_get(d, "nodes", "derivation"), "derivation.nodes")):
        where = f"derivation.nodes[{i}]"
        node = _need_dict(raw, where)
        path = _path_from_json(_get(node, "path", where), where + ".path")
        if path in nodes:
            raise _fail(where + ".path", "duplicate node path")
        rule = rule_from_json(_get(node, "rule", where), where + ".rule")
        sequent = tuple(
            formula_from_json(f, f"{where}.sequent[{j}]")
            for j, f in enumerate(_need_list(_get(node, "sequent", where), where + ".sequent"))
        )
        nodes[path] = ProofNode(sequent, rule)
    if not nodes:
        raise _fail("derivation.nodes", "a derivation needs at least one node")
    return Derivation(end_x, nodes)


# Templates


def _template_node_to_json(node: TemplateNode) -> Any:
    out: dict[str, Any] = {
        "rule": rule_to_json(node.rule),
        "sequent": [formula_to_json(f) for f in node.sequent],
    }
    if node.children:
        out["children"] = [_template_node_to_json(c) for c in node.children]
    if node.family is not None:
        out["family"] = {
            "index": node.family.index,
            "bound": term_to_json(node.family.bound),
            "body": _template_node_to_json(node.family.body),
        }
    return out


def template_to_json(t: DerivationTemplate) -> Any:
    return {"root": _template_node_to_json(t.root)}


def _template_node_from_json(obj: Any, where: str) -> TemplateNode:
    d = _need_dict(obj, where)
    rule = rule_from_json(_get(d, "rule", where), where + ".rule")
    sequent = tuple(
        formula_from_json(f, f"{where}.sequent[{j}]")
        for j, f in enumerate(_need_list(_get(d, "sequent", where), where + ".sequent"))
    )
    children = tuple(
        _template_node_from_json(c, f"{where}.children[{j}]")
        for j, c in enumerate(_need_list(d.get("children", []), where + ".children"))
    )
    family = None
    if "family" in d:
        fam = _need_dict(d["family"], where + ".family")
        family = FamilySpec(
            _need_str(_get(fam, "index", where + ".family"), where + ".family.index"),
            term_from_json(_get(fam, "bound", where + ".family"), where + ".family.bound"),
            _template_node_from_json(_get(fam, "body", where + ".family"), where + ".family.body"),
        )
    return TemplateNode(sequent, rule, children, family)


def template_from_json(obj: Any) -> DerivationTemplate:
    d = _need_dict(obj, "template")
    return DerivationTemplate(_template_node_from_json(_get(d, "root", "template"), "template.root"))


# Graphs and families


def digraph_to_json(g: CostedDigraph) -> Any:
    return {
        "n": g.n_nodes,
        "edges": [list(e) for e in sorted(g.edges)],
        "costs": list(g.costs),
    }


# Graphs carry thousands of edges and costs, so each is checked first
# and a location string is formatted only for one that fails.


def _need_edge(obj: Any, where: str) -> tuple[int, int]:
    pair = _need_list(obj, where)
    if len(pair) != 2:
        raise _fail(where, "an edge is a pair")
    return _need_int(pair[0], where + "[0]"), _need_int(pair[1], where + "[1]")


def digraph_from_json(obj: Any, where: str = "digraph") -> CostedDigraph:
    d = _need_dict(obj, where)
    n = _need_int(_get(d, "n", where), where + ".n")
    if n <= 0:
        raise _fail(where + ".n", "a graph needs at least one node")
    edges = []
    for i, raw in enumerate(_need_list(_get(d, "edges", where), where + ".edges")):
        if isinstance(raw, list) and len(raw) == 2 and _is_int(raw[0]) and _is_int(raw[1]):
            edges.append((raw[0], raw[1]))
        else:
            edges.append(_need_edge(raw, f"{where}.edges[{i}]"))
    costs = tuple(_need_list(_get(d, "costs", where), where + ".costs"))
    for i, c in enumerate(costs):
        if not _is_int(c):
            _need_int(c, f"{where}.costs[{i}]")
    try:
        return CostedDigraph(n, tuple(sorted(edges)), costs)
    except ValueError as exc:
        raise _fail(where, str(exc)) from exc


def family_to_json(fam: NestedGraphFamily) -> Any:
    children = [
        {"node": node, "problem": family_to_json(fam.children[node])}
        for node in sorted(fam.children)
    ]
    solutions = [
        {"node": node, "solution": sol, "edge_to": fam.solution_to_edge[(node, sol)]}
        for node, sol in sorted(fam.solution_to_edge)
    ]
    out: dict[str, Any] = {"rank": fam.rank, "graph": digraph_to_json(fam.graph)}
    if children:
        out["children"] = children
    if solutions:
        out["solutions"] = solutions
    return out


def family_from_json(obj: Any, where: str = "family") -> NestedGraphFamily:
    d = _need_dict(obj, where)
    rank = _need_int(_get(d, "rank", where), where + ".rank")
    if rank < 0:
        raise _fail(where + ".rank", "ranks are non-negative")
    graph = digraph_from_json(_get(d, "graph", where), where + ".graph")
    children: dict[int, NestedGraphFamily] = {}
    for i, raw in enumerate(_need_list(d.get("children", []), where + ".children")):
        cw = f"{where}.children[{i}]"
        c = _need_dict(raw, cw)
        node = _need_int(_get(c, "node", cw), cw + ".node")
        if node in children:
            raise _fail(cw + ".node", "duplicate child node")
        children[node] = family_from_json(_get(c, "problem", cw), cw + ".problem")
    table: dict[tuple[int, int], int] = {}
    for i, raw in enumerate(_need_list(d.get("solutions", []), where + ".solutions")):
        sw = f"{where}.solutions[{i}]"
        s = _need_dict(raw, sw)
        key = (
            _need_int(_get(s, "node", sw), sw + ".node"),
            _need_int(_get(s, "solution", sw), sw + ".solution"),
        )
        if key in table:
            raise _fail(sw, "duplicate solution entry")
        table[key] = _need_int(_get(s, "edge_to", sw), sw + ".edge_to")
    return NestedGraphFamily(graph, rank, children, table)


# Document dispatch


Document = Derivation | DerivationTemplate | NestedGraphFamily | CostedDigraph


def document_from_json(obj: Any) -> Document:
    """Decode any supported document, dispatching on its top-level keys."""
    d = _need_dict(obj, "document")
    if "end_x" in d:
        return derivation_from_json(d)
    if "root" in d:
        return template_from_json(d)
    if "rank" in d and "graph" in d:
        return family_from_json(d)
    if "n" in d and "edges" in d:
        return digraph_from_json(d)
    raise _fail("document", "unrecognized document shape")


def document_to_json(value: Document) -> Any:
    if isinstance(value, Derivation):
        return derivation_to_json(value)
    if isinstance(value, DerivationTemplate):
        return template_to_json(value)
    if isinstance(value, NestedGraphFamily):
        return family_to_json(value)
    if isinstance(value, CostedDigraph):
        return digraph_to_json(value)
    raise TypeError(f"not a serializable document: {type(value).__name__}")


def loads_document(text: str) -> Document:
    """Parse JSON text and decode it as a document.

    Parsing and decoding both recurse on the nesting depth, so a
    document nested deeper than the interpreter's recursion limit is
    rejected as malformed rather than left to escape as RecursionError.
    """
    try:
        return document_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("document is nested too deeply to decode") from exc
