"""JSON encodings for terms, derivations, templates, graphs and families.

Every ``*_to_json`` function returns plain dictionaries and lists; the
``dumps`` helper renders them with sorted keys and no whitespace, so
equal values always serialize to identical bytes.  Every ``*_from_json``
function validates shape as it decodes and raises FormatError with the
offending location on any mismatch.

Each node of a derivation repeats its parent's side formulas, and its
upper sequents follow from its rule.  So a derivation document states
the root's sequent and may leave out any other node's ``sequent``: an
omitted sequent is the parent's sequent followed by the formula that
the parent's rule adds at the node's index, a cut's last present child
adding the cut formula itself.  ``derivation.follow`` is the one
definition of which sequents follow: a ``Derivation`` keeps a derived
node's added formula only, and ``derivation_to_json`` writes what each
node holds, so it leaves out exactly the sequents that follow.  An
omitted sequent that does not follow, or whose added formula nests
past the term depth cap, fails with a FormatError naming its node.

The derivation and template decoders keep a per-document memo keyed by
the ``marshal`` bytes (version 2) of each raw formula, which tell
``true`` from ``1`` and ``1.0`` from ``1``: each distinct stated formula
is decoded once, and equal stated formulas in one document decode to
one shared object.  The derivation decoder keys raw rules and their raw
witnesses the same way, so equal witnesses are one object too, and
``follow`` builds each distinct added formula once.  Locations are
passed down as a parent location plus a key or index, and one is
formatted only for a value that fails its check.

A derivation states few sequents, so it is decoded node by node: one
C-level check passes each path, and each distinct stated formula, raw
witness and raw rule is decoded once.  Templates are decoded node by node
too, through the same formula key.  Graphs and families carry thousands
of small values, so they are checked in C-level passes over their types:
a family as a whole document, into a preorder ``FamilyTable`` with no
object per problem, and a digraph into a ``DigraphTable`` of its own
pair lists, with no copy or sort, so graph documents decode only to the
tables they compile from.  For both, the item-by-item walk runs only when
a check fails, to name the first bad value with its location.  The
encoders take what the fixtures and the generator build: a family as
``NestedGraphFamily`` objects, a digraph as its ``DigraphTable``.

Documents are distinguished by their top-level keys: a derivation has
``end_x`` and ``nodes``, a template has ``root``, a family has ``rank``
and ``graph``, and a bare digraph has ``n`` and ``edges``.
"""

from __future__ import annotations

import json
import marshal
import sys
from functools import partial
from itertools import chain, islice, repeat
from operator import add, itemgetter, lt, mul
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
from .errors import FormatError, OmittedSequent
from .nested_graph import DigraphTable, FamilyTable, NestedGraphFamily, family_table
from .terms import (
    MAX_TERM_DEPTH,
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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj: Any) -> str:
    """Render a JSON value deterministically: sorted keys, no spaces.

    One module-level encoder renders every value, so no call builds its own.
    """
    return _ENCODER.encode(obj)


# A location is a string, or a pair of a parent location and a key: a
# string appended as it is, or an int index rendered as ``[i]``.
Where = str | tuple


def _render(where: Where) -> str:
    parts = []
    while isinstance(where, tuple):
        where, key = where
        parts.append(f"[{key}]" if isinstance(key, int) else key)
    parts.append(where)
    return "".join(reversed(parts))


def _fail(where: Where, message: str) -> FormatError:
    return FormatError(f"{_render(where)}: {message}")


def _need_dict(obj: Any, where: Where) -> dict:
    if not isinstance(obj, dict):
        raise _fail(where, f"expected an object, got {type(obj).__name__}")
    return obj


def _need_list(obj: Any, where: Where) -> list:
    if not isinstance(obj, list):
        raise _fail(where, f"expected an array, got {type(obj).__name__}")
    return obj


def _is_int(obj: Any) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _need_int(obj: Any, where: Where) -> int:
    if not _is_int(obj):
        raise _fail(where, f"expected an integer, got {type(obj).__name__}")
    return obj


def _need_str(obj: Any, where: Where) -> str:
    if not isinstance(obj, str):
        raise _fail(where, f"expected a string, got {type(obj).__name__}")
    return obj


def _get(obj: dict, key: str, where: Where) -> Any:
    if key not in obj:
        raise _fail(where, f"missing key {key!r}")
    return obj[key]


# The type sets of values that pass the C-level checks below; anything
# else, bools and int subclasses included, takes the per-item path.
_INT = {int}
_LIST = {list}
_PAIR = {2}
# What an absent children or solutions array reads as; never mutated.
_NO_ITEMS: list = []
# The message for a document nested deeper than parsing or decoding recurses.
_TOO_DEEP = "document is nested too deeply to decode"


# Terms and formulas


def term_to_json(t: Term) -> Any:
    if t.op == "num":
        return {"num": t.value}
    if t.op == "var":
        return {"var": t.name}
    return {"op": t.op, "args": [term_to_json(a) for a in t.args]}


def term_from_json(obj: Any, where: Where = "term") -> Term:
    return _term_from_json(obj, where, where, 0)


def _term_from_json(obj: Any, where: Where, root: Where, depth: int) -> Term:
    d = _need_dict(obj, where)
    if "num" in d:
        value = _need_int(d["num"], (where, ".num"))
        if value < 0:
            raise _fail(where, "numerals are non-negative")
        return num(value)
    if "var" in d:
        name = _need_str(d["var"], (where, ".var"))
        if not name:
            raise _fail(where, "variables carry a name")
        return var(name)
    if depth == MAX_TERM_DEPTH:
        raise _fail(root, f"term nests more than {MAX_TERM_DEPTH} operations")
    op = _need_str(_get(d, "op", where), (where, ".op"))
    if op not in OPS:
        raise _fail(where, f"unknown operation {op!r}")
    at = (where, ".args")
    args = _need_list(_get(d, "args", where), at)
    decoded = tuple(_term_from_json(a, (at, i), root, depth + 1) for i, a in enumerate(args))
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


def literal_from_json(obj: Any, where: Where = "literal") -> Literal:
    d = _need_dict(obj, where)
    negated = _get(d, "neg", where)
    if not isinstance(negated, bool):
        raise _fail((where, ".neg"), "expected a boolean")
    return Literal(
        negated,
        term_from_json(_get(d, "lhs", where), (where, ".lhs")),
        term_from_json(_get(d, "rhs", where), (where, ".rhs")),
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


def formula_from_json(obj: Any, where: Where = "formula") -> Formula:
    d = _need_dict(obj, where)
    if "ex" not in d:
        return LitFormula(literal_from_json(d, where))
    at = (where, ".ex")
    ex = _need_dict(d["ex"], at)
    v = _need_str(_get(ex, "v", at), (at, ".v"))
    bound = term_from_json(_get(ex, "bound", at), (at, ".bound"))
    if "all" in ex:
        at = (at, ".all")
        al = _need_dict(ex["all"], at)
        return ExistsForall(
            v,
            bound,
            _need_str(_get(al, "v", at), (at, ".v")),
            term_from_json(_get(al, "bound", at), (at, ".bound")),
            literal_from_json(_get(al, "body", at), (at, ".body")),
        )
    return ExistsLit(v, bound, literal_from_json(_get(ex, "body", at), (at, ".body")))


_KEY_VERSION = 2


def _key(raw: Any) -> bytes:
    """The memo key of a raw JSON value: its ``marshal`` bytes, version 2.

    The bytes tell ``true`` from ``1`` and ``1.0`` from ``1``, and equal
    bytes load back to one typed value, so a key hit returns exactly
    what decoding would.  Version 2 writes neither back-references nor
    interning flags, so equal values always get equal bytes.  A dict's
    bytes follow its key order.  ``marshal`` raises ValueError for a
    value nested deeper than its own limit of 2000 levels.
    """
    return marshal.dumps(raw, _KEY_VERSION)


def _shared(decode, raw: Any, where: Where, memo: dict[bytes, Any]) -> Any:
    """Decode a raw formula, term or rule once per document.

    ``memo`` maps the ``_key`` of each raw value that decoded to its
    value, so equal values in one document decode to one object.  The
    template and derivation decoders call this once per stated formula
    occurrence, a cut formula included; the derivation decoder also
    calls it once per raw rule, and once per raw witness of a distinct
    raw rule.  A value nested too deeply for ``marshal`` has no
    key; it is decoded without the memo, so the decoder's depth cap
    names its location.
    """
    try:
        key = _key(raw)
    except ValueError:
        return decode(raw, where)
    got = memo.get(key)
    if got is None:
        got = memo[key] = decode(raw, where)
    return got


def _sequent_from_json(
    node: dict, where: Where, memo: dict[bytes, Formula]
) -> tuple[Formula, ...]:
    at = (where, ".sequent")
    sequent = []
    for j, raw in enumerate(_need_list(_get(node, "sequent", where), at)):
        sequent.append(_shared(formula_from_json, raw, (at, j), memo))
    return tuple(sequent)


# Rules


def rule_to_json(rule: Rule) -> Any:
    if isinstance(rule, InitialRule):
        return {"tag": "initial", "index": rule.index}
    if isinstance(rule, (ExistsRule, ExistsForallRule)):
        return {
            "tag": "exists" if isinstance(rule, ExistsRule) else "exists-forall",
            "principal": rule.principal,
            "witness": term_to_json(rule.witness),
        }
    if isinstance(rule, CutRule):
        return {"tag": "cut", "formula": formula_to_json(rule.formula)}
    raise TypeError(f"not a rule: {rule!r}")


def rule_from_json(
    obj: Any, where: Where = "rule", memo: dict | None = None, terms: dict | None = None
) -> Rule:
    """Decode a rule; a cut formula is shared through ``memo``, and a witness through ``terms``."""
    d = _need_dict(obj, where)
    tag = _need_str(_get(d, "tag", where), (where, ".tag"))
    if tag == "initial":
        return InitialRule(_need_int(_get(d, "index", where), (where, ".index")))
    if tag in ("exists", "exists-forall"):
        principal = _need_int(_get(d, "principal", where), (where, ".principal"))
        raw = _get(d, "witness", where)
        witness = _shared(term_from_json, raw, (where, ".witness"), {} if terms is None else terms)
        cls = ExistsRule if tag == "exists" else ExistsForallRule
        return cls(principal, witness)
    if tag == "cut":
        memo = {} if memo is None else memo
        raw = _get(d, "formula", where)
        return CutRule(_shared(formula_from_json, raw, (where, ".formula"), memo))
    raise _fail(where, f"unknown rule tag {tag!r}")


# Derivations


def derivation_to_json(d: Derivation) -> Any:
    """Encode a derivation, stating only the sequents that do not follow from the rules.

    Each node writes what it holds (see ``follow``): a derived node
    leaves its ``sequent`` out, and the root and every node whose
    sequent does not follow state theirs, so ``derivation_from_json``
    gives back an equal derivation, a broken one included.
    """
    nodes = []
    for path, node in d.nodes.items():
        out = {"path": list(path), "rule": rule_to_json(node.rule)}
        if not node.derived:
            out["sequent"] = [formula_to_json(f) for f in node.sequent]
        nodes.append(out)
    return {"end_x": d.end_x, "nodes": nodes}


def _path_from_json(obj: Any, where: Where) -> tuple[int, ...]:
    """Node ``where``'s path; a list of non-negative ints passes one C-level check."""
    if type(obj) is list and set(map(type, obj)) <= _INT and min(obj, default=0) >= 0:
        return tuple(obj)
    at = (where, ".path")
    for i, e in enumerate(_need_list(obj, at)):
        if _need_int(e, (at, i)) < 0:
            raise _fail((at, i), "path entries are non-negative")
    return tuple(obj)


def derivation_from_json(obj: Any) -> Derivation:
    """Decode a derivation node by node, naming the first value that fails.

    A node other than the root may leave out its ``sequent`` when it
    follows from the parent's rule (see ``derivation_to_json``).  Each
    distinct formula, raw witness and raw rule is decoded once, keyed
    by its ``_key`` bytes, and a cut formula goes through the formula
    memo, so it is the very object its final upper holds.  Stated values
    are checked in document order first.  ``Derivation`` then derives
    the omitted sequents through ``follow``, and the first in path
    order that does not follow is named by its node: the root, a node
    whose parent is absent, a parent's rule that adds no formula at its
    index, or an added formula whose terms nest past the depth cap.
    """
    d = _need_dict(obj, "derivation")
    end_x = _need_int(_get(d, "end_x", "derivation"), "derivation.end_x")
    if end_x < 0:
        raise _fail("derivation.end_x", "the parameter is non-negative")
    raw_nodes = _need_list(_get(d, "nodes", "derivation"), "derivation.nodes")
    memo: dict[bytes, Formula] = {}
    terms: dict[bytes, Term] = {}
    shared_rules: dict[bytes, Rule] = {}
    decode_rule = partial(rule_from_json, memo=memo, terms=terms)
    nodes: dict[tuple[int, ...], ProofNode] = {}
    for i, raw in enumerate(raw_nodes):
        where = ("derivation.nodes", i)
        node = _need_dict(raw, where)
        path = _path_from_json(_get(node, "path", where), where)
        if path in nodes:
            raise _fail((where, ".path"), "duplicate node path")
        rule = _shared(decode_rule, _get(node, "rule", where), (where, ".rule"), shared_rules)
        sequent = _sequent_from_json(node, where, memo) if "sequent" in node else None
        nodes[path] = ProofNode(sequent, rule)
    if not nodes:
        raise _fail("derivation.nodes", "a derivation needs at least one node")
    try:
        return Derivation(end_x, nodes)
    except OmittedSequent as exc:
        raise _fail(("derivation.nodes", list(nodes).index(exc.path)), str(exc)) from exc


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


def _template_node_from_json(obj: Any, where: Where, memo: dict[bytes, Formula]) -> TemplateNode:
    d = _need_dict(obj, where)
    rule = rule_from_json(_get(d, "rule", where), (where, ".rule"), memo)
    sequent = _sequent_from_json(d, where, memo)
    at = (where, ".children")
    children = tuple(
        _template_node_from_json(c, (at, j), memo)
        for j, c in enumerate(_need_list(d.get("children", []), at))
    )
    family = None
    if "family" in d:
        at = (where, ".family")
        fam = _need_dict(d["family"], at)
        family = FamilySpec(
            _need_str(_get(fam, "index", at), (at, ".index")),
            term_from_json(_get(fam, "bound", at), (at, ".bound")),
            _template_node_from_json(_get(fam, "body", at), (at, ".body"), memo),
        )
    return TemplateNode(sequent, rule, children, family)


def template_from_json(obj: Any) -> DerivationTemplate:
    d = _need_dict(obj, "template")
    try:
        root = _template_node_from_json(_get(d, "root", "template"), "template.root", {})
    except RecursionError as exc:
        raise FormatError(_TOO_DEEP) from exc
    return DerivationTemplate(root)


# Graphs and families


def digraph_to_json(g: DigraphTable) -> Any:
    return {
        "n": g.n_nodes,
        "edges": [list(e) for e in sorted(g.edges)],
        "costs": list(g.costs),
    }


def _need_edge(obj: Any, where: Where) -> list[int]:
    pair = _need_list(obj, where)
    if len(pair) != 2:
        raise _fail(where, "an edge is a pair")
    _need_int(pair[0], (where, 0))
    _need_int(pair[1], (where, 1))
    return pair


def _digraph_walk(obj: Any, where: Where) -> DigraphTable:
    """Decode a digraph item by item, naming the first value that fails.

    After the types it checks the cost count, then names the least
    edge, in sorted order, with an end outside the node range.
    """
    d = _need_dict(obj, where)
    n = _need_int(_get(d, "n", where), (where, ".n"))
    if n <= 0:
        raise _fail((where, ".n"), "a graph needs at least one node")
    at = (where, ".edges")
    edges = [_need_edge(e, (at, i)) for i, e in enumerate(_need_list(_get(d, "edges", where), at))]
    at = (where, ".costs")
    costs = _need_list(_get(d, "costs", where), at)
    for i, c in enumerate(costs):
        _need_int(c, (at, i))
    if len(costs) != n:
        raise _fail(where, "one cost per node required")
    outside = [(s, t) for s, t in edges if not (0 <= s < n and 0 <= t < n)]
    if outside:
        s, t = min(outside)
        raise _fail(where, f"edge ({s},{t}) leaves the node range")
    return DigraphTable(n, edges, costs)


def _digraph_at_once(obj: Any) -> DigraphTable | None:
    """A digraph as the table of its own lists, or None when a check fails.

    C-level passes check that every pair is an array and every end an
    int, then the costs' count before their types.  One walk unpacks
    each pair, which checks its length, and checks both ends against
    ``n``.  A failed lookup is a failed check too.
    """
    try:
        n, edges, costs = obj["n"], obj["edges"], obj["costs"]
        if not (type(n) is int and n > 0 and type(edges) is list and type(costs) is list):
            return None
        if not set(map(type, edges)) <= _LIST:
            return None
        if not set(map(type, chain.from_iterable(edges))) <= _INT:
            return None
        if not (len(costs) == n and set(map(type, costs)) <= _INT):
            return None
        # C-level min and max over the ends took about three times as long.
        for s, t in edges:
            if not (0 <= s < n and 0 <= t < n):
                return None
    except (KeyError, TypeError, ValueError):
        return None
    return DigraphTable(n, edges, costs)


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


def _family_at_once(obj: Any) -> FamilyTable | None:
    """Decode a family to its table with whole-document checks, or None when one fails.

    One walk collects the problems level by level; the children of each
    problem are consecutive in the level after its own.  Passes over all
    problems then check the types of the ranks, node counts, edges,
    costs, child nodes and solution triples, one cost per node, and
    every edge end against its problem's node count.  The maps built per
    problem show duplicate entries by their size.  A lookup on a value
    that is no object, or of a missing key, is a failed check too.  A
    document nested deeper than the walk could recurse is left to it.
    """
    problems: list = []
    kid_lists: list = []
    nodes: list = []
    paths: list = [()]  # the child nodes from the top down to each problem
    level = [obj]
    try:
        for _ in range(sys.getrecursionlimit()):
            if not level:
                break
            problems += level
            kids = [p.get("children", _NO_ITEMS) for p in level]
            kid_lists += kids
            entries = list(chain.from_iterable(kids))
            level = [c["problem"] for c in entries]
            at = [c["node"] for c in entries]
            nodes += at
            up = paths[-len(kids) :]
            paths += map(add, chain.from_iterable(map(repeat, up, map(len, kids))), zip(at))
        else:
            return None
        sol_lists = [p.get("solutions", _NO_ITEMS) for p in problems]
        sols = list(chain.from_iterable(sol_lists))
        graphs = [p["graph"] for p in problems]
        ranks = [p["rank"] for p in problems]
        keys = list(zip(map(itemgetter("node"), sols), map(itemgetter("solution"), sols)))
        targets = list(map(itemgetter("edge_to"), sols))
        ns = [g["n"] for g in graphs]
        raw_edges = [g["edges"] for g in graphs]
        raw_costs = [g["costs"] for g in graphs]
        if not set(map(type, chain(kid_lists, sol_lists, raw_edges, raw_costs))) <= _LIST:
            return None
        pairs = list(chain.from_iterable(raw_edges))
        ends = list(chain.from_iterable(pairs))
        ints = chain(
            ranks,
            nodes,
            chain.from_iterable(keys),
            targets,
            ns,
            ends,
            chain.from_iterable(raw_costs),
        )
        bounds = chain.from_iterable(map(repeat, ns, map(mul, map(len, raw_edges), repeat(2))))
        if not (
            set(map(type, pairs)) <= _LIST
            and set(map(len, pairs)) <= _PAIR
            and set(map(type, ints)) <= _INT
            and min(ranks) >= 0
            and min(ns) > 0
            and list(map(len, raw_costs)) == ns
            and min(ends, default=0) >= 0
            and all(map(lt, ends, bounds))
        ):
            return None
        # A path sorts after its prefixes and before its later siblings',
        # so ``order`` lists the problems in preorder; ``pid`` inverts it.
        order = sorted(range(len(paths)), key=paths.__getitem__)
        pid = sorted(range(len(order)), key=order.__getitem__)
        solutions = iter(zip(keys, targets))
        tables = [dict(islice(solutions, len(s))) for s in sol_lists]
        # Every problem but the top one has one child entry: nodes[j] backs problem j + 1.
        node_pids = iter(zip(nodes, pid[1:]))
        child_maps = [dict(islice(node_pids, len(k))) for k in kid_lists]
        if list(map(len, chain(tables, child_maps))) != list(map(len, chain(sol_lists, kid_lists))):
            return None
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    per_problem = (ns, raw_edges, raw_costs, ranks, child_maps, tables)
    return FamilyTable(*[list(map(xs.__getitem__, order)) for xs in per_problem])


def _family_walk(obj: Any, where: Where) -> NestedGraphFamily:
    """Decode a family item by item, naming the first value that fails."""
    d = _need_dict(obj, where)
    rank = _need_int(_get(d, "rank", where), (where, ".rank"))
    if rank < 0:
        raise _fail((where, ".rank"), "ranks are non-negative")
    graph = _digraph_walk(_get(d, "graph", where), (where, ".graph"))
    children: dict[int, NestedGraphFamily] = {}
    at = (where, ".children")
    for i, raw in enumerate(_need_list(d.get("children", []), at)):
        cw = (at, i)
        c = _need_dict(raw, cw)
        node = _need_int(_get(c, "node", cw), (cw, ".node"))
        if node in children:
            raise _fail((cw, ".node"), "duplicate child node")
        children[node] = _family_walk(_get(c, "problem", cw), (cw, ".problem"))
    table: dict[tuple[int, int], int] = {}
    at = (where, ".solutions")
    for i, raw in enumerate(_need_list(d.get("solutions", []), at)):
        sw = (at, i)
        s = _need_dict(raw, sw)
        key = (
            _need_int(_get(s, "node", sw), (sw, ".node")),
            _need_int(_get(s, "solution", sw), (sw, ".solution")),
        )
        if key in table:
            raise _fail(sw, "duplicate solution entry")
        table[key] = _need_int(_get(s, "edge_to", sw), (sw, ".edge_to"))
    return NestedGraphFamily(graph, rank, children, table)


# Document dispatch


Document = Derivation | DerivationTemplate | FamilyTable | DigraphTable


def document_from_json(obj: Any) -> Document:
    """Decode a document by its top-level keys; a family or a digraph decodes to its table.

    When a graph's whole-document checks fail, its item walk names the
    first bad value, or else gives the table: a digraph's directly, a
    family's through the objects it built.
    """
    d = _need_dict(obj, "document")
    if "end_x" in d:
        return derivation_from_json(d)
    if "root" in d:
        return template_from_json(d)
    if "rank" in d and "graph" in d:
        try:
            return _family_at_once(d) or family_table(_family_walk(d, "family"))
        except RecursionError as exc:
            raise FormatError(_TOO_DEEP) from exc
    if "n" in d and "edges" in d:
        return _digraph_at_once(d) or _digraph_walk(d, "digraph")
    raise _fail("document", "unrecognized document shape")


def document_to_json(
    value: Derivation | DerivationTemplate | NestedGraphFamily | DigraphTable,
) -> Any:
    """Encode a document as the fixtures and the generator build it: a family as objects."""
    if isinstance(value, Derivation):
        return derivation_to_json(value)
    if isinstance(value, DerivationTemplate):
        return template_to_json(value)
    if isinstance(value, NestedGraphFamily):
        return family_to_json(value)
    if isinstance(value, DigraphTable):
        return digraph_to_json(value)
    raise TypeError(f"not a serializable document: {type(value).__name__}")


def loads_document(text: str) -> Document:
    """Parse JSON text and decode it as a document.

    Text nested deeper than parsing can recurse, or holding an integer
    literal longer than the interpreter's int-string limit, is malformed.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or the int-string limit on a long integer.
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(_TOO_DEEP) from exc
    return document_from_json(obj)
