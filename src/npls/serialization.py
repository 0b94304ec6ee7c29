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
the parent's rule adds at the node's index (``added_formula``), a cut's
last present child adding the cut formula itself.
``derivation_to_json`` leaves out exactly the sequents that follow; a
sequent that does not follow can only be stated.  An omitted
sequent that does not follow, or whose added formula nests past the
term depth cap, fails with a FormatError naming its node.

The derivation and template decoders keep a per-document memo keyed by
the ``marshal`` bytes (version 2) of each raw formula, which tell
``true`` from ``1`` and ``1.0`` from ``1``: each distinct stated formula
is decoded once, and equal stated formulas in one document decode to
one shared object.  Each distinct (rule kind, principal object, witness
object, index) added formula of a derivation is built once.  Locations
are passed down as a parent location plus a key or index, and one is
formatted only for a value that fails its check.

A derivation states few sequents, so it is decoded node by node: one
C-level check passes each path, each distinct stated formula and raw
rule is decoded once, and the omitted sequents are derived in path
order.  Templates are decoded node by node too, through the same
formula key.  Graphs and families carry thousands of small values, so
they are checked in C-level passes over their types: a family as a
whole document, into a preorder ``FamilyTable`` with no object per
problem, and a digraph into a ``DigraphTable`` of its own pair lists,
with no copy or sort, so graph documents decode only to the tables they
compile from.  For both, the item-by-item walk runs only when a check
fails, to name the first bad value with its location.  The encoders
take what the fixtures and the generator build: a family as
``NestedGraphFamily`` objects, a digraph as its ``DigraphTable``.

Documents are distinguished by their top-level keys: a derivation has
``end_x`` and ``nodes``, a template has ``root``, a family has ``rank``
and ``graph``, and a bare digraph has ``n`` and ``edges``.
"""

from __future__ import annotations

import json
import marshal
import sys
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
    added_formula,
    formula_is,
)
from .errors import FormatError
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
    nests_too_deep,
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


def _shared_formula(raw: Any, where: Where, memo: dict[bytes, Formula]) -> Formula:
    """Decode a raw formula once per document.

    ``memo`` maps the ``_key`` of each raw formula that decoded to its
    value, so equal formulas in one document decode to one object.
    The template and derivation decoders call this once per stated
    occurrence, a cut formula included.  A value nested too deeply for
    ``marshal`` has no key; it is decoded without the memo, so the
    decoder's depth cap names its location.
    """
    try:
        key = _key(raw)
    except ValueError:
        return formula_from_json(raw, where)
    f = memo.get(key)
    if f is None:
        f = memo[key] = formula_from_json(raw, where)
    return f


def _sequent_from_json(
    node: dict, where: Where, memo: dict[bytes, Formula]
) -> tuple[Formula, ...]:
    at = (where, ".sequent")
    sequent = []
    for j, raw in enumerate(_need_list(_get(node, "sequent", where), at)):
        sequent.append(_shared_formula(raw, (at, j), memo))
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


def rule_from_json(obj: Any, where: Where = "rule", memo: dict | None = None) -> Rule:
    """Decode a rule; a cut formula is shared through ``memo`` when given."""
    d = _need_dict(obj, where)
    tag = _need_str(_get(d, "tag", where), (where, ".tag"))
    if tag == "initial":
        return InitialRule(_need_int(_get(d, "index", where), (where, ".index")))
    if tag in ("exists", "exists-forall"):
        principal = _need_int(_get(d, "principal", where), (where, ".principal"))
        witness = term_from_json(_get(d, "witness", where), (where, ".witness"))
        cls = ExistsRule if tag == "exists" else ExistsForallRule
        return cls(principal, witness)
    if tag == "cut":
        memo = {} if memo is None else memo
        return CutRule(_shared_formula(_get(d, "formula", where), (where, ".formula"), memo))
    raise _fail(where, f"unknown rule tag {tag!r}")


# Derivations


# A non-root path's parent path, and its index there.
_UP = itemgetter(slice(None, -1))
_INDEX = itemgetter(-1)


def _following(paths: list[tuple[int, ...]]):
    """The upper sequent that a child follows to, for a derivation with these ``paths``.

    The returned function takes the parent's rule and sequent and the
    child's path.  It finds the principal formula and hands it to
    ``added_formula``, the parent's last child being a cut's final
    upper, and gives the parent's sequent followed by the added formula,
    or None where the rule adds nothing, a principal index out of range
    included.  It builds each distinct (rule kind, principal object,
    witness object, index) added formula once, so equal keys share one
    object; the caller holds the keyed objects while it is in use.

    An instance puts a witness into a body, each within the depth cap,
    so its terms may nest up to twice as deep: such an instance raises
    ValueError, as a stated sequent holding it fails to decode.
    """
    kids = sorted(filter(None, paths))
    # A later sibling sorts after an earlier one, so each parent keeps its largest index.
    last = dict(zip(map(_UP, kids), map(_INDEX, kids)))
    built: dict[tuple, Formula | None] = {}

    def upper(rule: Rule, lower: tuple[Formula, ...], path: tuple[int, ...]) -> tuple | None:
        n = path[-1]
        kind = rule.__class__
        if kind is CutRule:
            principal, witness = rule.formula, None
            if n == last[path[:-1]]:
                n = None
        elif kind is ExistsRule or kind is ExistsForallRule:
            if not 0 <= rule.principal < len(lower):
                return None
            principal, witness = lower[rule.principal], rule.witness
        else:
            return None
        key = (kind, id(principal), id(witness), n)
        if key not in built:
            f = added_formula(rule, principal, n)
            if witness is not None and f is not None and nests_too_deep((f.lit.lhs, f.lit.rhs)):
                raise ValueError(f"term nests more than {MAX_TERM_DEPTH} operations")
            built[key] = f
        f = built[key]
        return None if f is None else (*lower, f)

    return upper


def derivation_to_json(d: Derivation) -> Any:
    """Encode a derivation, stating only the sequents that do not follow from the rules.

    A non-root node's ``sequent`` is left out when it equals its
    parent's sequent followed by the formula that the parent's rule
    adds at the node's index (``added_formula``); a cut's last present
    child adds the cut formula.  The root, and every node whose sequent
    does not follow, state theirs, so ``derivation_from_json`` gives
    back an equal derivation, a broken one included.  So does a node
    whose parent's rule adds a formula too deep to decode.

    Formulas are compared by ``formula_is``, one frame per term level:
    dataclass ``==`` on two equal deep terms passes the recursion limit
    within the depth cap.
    """
    paths = sorted(d.nodes)
    upper = _following(paths)
    nodes = []
    for path in paths:
        node = d.nodes[path]
        out = {"path": list(path), "rule": rule_to_json(node.rule)}
        up = d.nodes.get(path[:-1]) if path else None
        try:
            want = None if up is None else upper(up.rule, up.sequent, path)
        except ValueError:
            want = None
        seq = node.sequent
        if not (want and len(want) == len(seq) and all(map(formula_is, seq, want))):
            out["sequent"] = [formula_to_json(f) for f in seq]
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


def _shared_rule(raw: Any, where: Where, rules: dict[bytes, Rule], memo: dict) -> Rule:
    """Node ``where``'s rule, decoded once per document and keyed as a formula is."""
    try:
        key = _key(raw)
    except ValueError:
        return rule_from_json(raw, (where, ".rule"), memo)
    rule = rules.get(key)
    if rule is None:
        rule = rules[key] = rule_from_json(raw, (where, ".rule"), memo)
    return rule


def derivation_from_json(obj: Any) -> Derivation:
    """Decode a derivation node by node, naming the first value that fails.

    A node other than the root may leave out its ``sequent`` when it
    follows from the parent's rule (see ``derivation_to_json``); a
    stated sequent is taken as it stands.  Each distinct formula and
    each distinct raw rule is decoded once, keyed by its ``_key`` bytes,
    and a cut formula goes through the formula memo, so it is the very
    object its final upper holds.  Stated values are checked in document
    order first.  The omitted sequents are then derived in path order,
    so a parent's sequent is known before its children's, each from its
    parent's sequent and rule (see ``_following``), and the first that
    does not follow is named by its node.  A node follows from nothing
    when it is the root, its parent is absent, or its parent's rule adds
    no formula at its index; an added formula whose terms nest past the
    depth cap fails as a stated one does.
    """
    d = _need_dict(obj, "derivation")
    end_x = _need_int(_get(d, "end_x", "derivation"), "derivation.end_x")
    if end_x < 0:
        raise _fail("derivation.end_x", "the parameter is non-negative")
    raw_nodes = _need_list(_get(d, "nodes", "derivation"), "derivation.nodes")
    memo: dict[bytes, Formula] = {}
    shared_rules: dict[bytes, Rule] = {}
    index: dict[tuple[int, ...], int] = {}
    rules: list[Rule] = []
    sequents: list = []
    omitted: list[int] = []
    for i, raw in enumerate(raw_nodes):
        where = ("derivation.nodes", i)
        node = _need_dict(raw, where)
        path = _path_from_json(_get(node, "path", where), where)
        if path in index:
            raise _fail((where, ".path"), "duplicate node path")
        index[path] = i
        rules.append(_shared_rule(_get(node, "rule", where), where, shared_rules, memo))
        if "sequent" in node:
            sequents.append(_sequent_from_json(node, where, memo))
        else:
            sequents.append(None)
            omitted.append(i)
    if not index:
        raise _fail("derivation.nodes", "a derivation needs at least one node")
    paths = list(index)
    upper = _following(paths)
    for i in sorted(omitted, key=paths.__getitem__):
        path = paths[i]
        where = ("derivation.nodes", i)
        if not path:
            raise _fail(where, "the root states its sequent")
        up = index.get(path[:-1])
        if up is None:
            raise _fail(where, "the sequent is omitted and the node has no parent")
        try:
            got = upper(rules[up], sequents[up], path)
        except ValueError as exc:
            raise _fail(where, str(exc)) from exc
        if got is None:
            raise _fail(where, "the sequent is omitted and does not follow from the parent's rule")
        sequents[i] = got
    return Derivation(end_x, dict(zip(paths, map(ProofNode, sequents, rules))))


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

    One C-level pass checks the types of the edge ends: a JSON pair that
    is no array has no int among them, or is empty.  The costs' count is
    checked before their types.  One walk unpacks each pair, which checks
    its length, and checks both ends against ``n``.  A failed lookup is
    a failed check too.
    """
    try:
        n, edges, costs = obj["n"], obj["edges"], obj["costs"]
        if not (type(n) is int and n > 0 and type(edges) is list and type(costs) is list):
            return None
        if not (set(map(type, chain.from_iterable(edges))) <= _INT and len(costs) == n):
            return None
        if not set(map(type, costs)) <= _INT:
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
