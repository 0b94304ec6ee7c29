"""Derivation trees, their validation, and the traversal order.

A derivation is a finite tree of sequents.  Each node carries an
ordered list of bounded formulas (read as a multiset) and the rule
applied at that node.  Four rules occur:

* an initial node closes a branch on a true closed literal;
* a bounded existential rule adds a witnessing instance of one of its
  existential formulas in its single upper sequent;
* an exists-forall rule adds one instance of the body per value of the
  inner bound, one upper sequent each;
* a wide cut on a bounded formula has one upper sequent per value
  below the outer bound, each adding the negated instance at that
  value, followed by a final upper sequent adding the formula itself.

Upper sequents always contain their lower sequent, so walking up the
tree only ever grows the multiset.  Validation accepts an upper that
repeats its lower sequent's objects and ends in the added formula
without comparing it, compares any other upper with the lower sequent
as sorted lists of formula ids, and keeps each sequent's set of ids for
membership probes.  Node paths are tuples of child indices; children of
a wide rule are numbered by instance value, with the extra cut upper
last.

The traversal order used as both cost and rank downstream is the
post-order index: children before their parent, in increasing index
order.  A node's index is smaller than another's exactly when its path
properly extends the other or is smaller at the first differing entry.
Validation numbers the nodes once, and keeps its node facts by index.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from operator import is_
from typing import Iterable, Mapping, Union

from .errors import (
    NoSuchNode,
    NplsError,
    ValidationFailed,
)
from .terms import (
    MAX_TERM_DEPTH,
    ExistsForall,
    ExistsLit,
    Formula,
    Literal,
    LitFormula,
    Term,
    classify,
    eval_literal,
    eval_term,
    exists_forall_instance,
    exists_instance,
    formula_vars,
    free_vars,
    negated_instance,
    nests_too_deep,
    normalize,
    substitute_formula,
    substitute_term,
)

NodePath = tuple[int, ...]

MODE_PLS = "pls"
MODE_NPLS = "npls"
_MODE_CLASS = {MODE_PLS: 1, MODE_NPLS: 2}


def format_path(path: NodePath) -> str:
    return "(" + ",".join(str(k) for k in path) + ")"


# Rules


@dataclass(frozen=True)
class InitialRule:
    """Leaf rule; ``index`` points at the true literal in the sequent."""

    index: int


@dataclass(frozen=True)
class ExistsRule:
    """Bounded existential introduction on the formula at ``principal``."""

    principal: int
    witness: Term


@dataclass(frozen=True)
class ExistsForallRule:
    """Exists-forall introduction on the formula at ``principal``."""

    principal: int
    witness: Term


@dataclass(frozen=True)
class CutRule:
    """Wide cut on ``formula``, one upper per value plus a final upper."""

    formula: Formula


Rule = Union[InitialRule, ExistsRule, ExistsForallRule, CutRule]


def added_formula(rule: Rule, principal: Formula, n: int | None) -> Formula | None:
    """The formula that upper ``n`` of ``rule`` adds over its lower sequent.

    ``principal`` is the lower sequent's formula at an existential or
    exists-forall rule's principal index, or a cut's formula.  Upper 0
    of an existential rule adds the instance at its witness, and upper
    ``n`` of an exists-forall rule the body's instance at the witness
    and ``n``.  A cut's value-indexed upper ``n`` adds the negated
    instance at ``n``, and its final upper, ``n`` None, the cut formula
    itself.  None when the rule adds no formula there: an initial rule,
    an existential rule's upper other than 0, a principal of the wrong
    shape, or a cut on a literal.  No bound is evaluated.

    The rule is the one definition of what a child adds: validation
    builds an added formula with it, and the derivation encoder and
    decoders derive an omitted sequent with it.
    """
    if isinstance(rule, CutRule):
        if n is None:
            return principal
        if isinstance(principal, (ExistsLit, ExistsForall)):
            return negated_instance(principal, n)
    elif isinstance(rule, ExistsRule):
        if n == 0 and isinstance(principal, ExistsLit):
            return LitFormula(exists_instance(principal, rule.witness))
    elif isinstance(rule, ExistsForallRule):
        if n is not None and isinstance(principal, ExistsForall):
            return LitFormula(exists_forall_instance(principal, rule.witness, n))
    return None


@dataclass(frozen=True)
class ProofNode:
    sequent: tuple[Formula, ...]
    rule: Rule


@dataclass(frozen=True)
class Derivation:
    """A closed derivation, obtained by substituting a value for x."""

    end_x: int
    nodes: Mapping[NodePath, ProofNode]

    def node(self, path: NodePath) -> ProofNode:
        try:
            return self.nodes[path]
        except KeyError:
            raise NoSuchNode(f"no node at {format_path(path)}") from None

    def sequent(self, path: NodePath) -> tuple[Formula, ...]:
        return self.node(path).sequent

    def rule(self, path: NodePath) -> Rule:
        return self.node(path).rule

    def paths(self) -> list[NodePath]:
        return sorted(self.nodes)

    def depth(self) -> int:
        return max(len(p) for p in self.nodes)


# Post-order traversal index


def postorder_index(paths: Iterable[NodePath]) -> dict[NodePath, int]:
    """Number the nodes of a tree in post-order.

    Children are visited in increasing index order and a node is
    numbered after all of its descendants, so the root receives the
    largest index.  The numbering realizes the path order in which a
    node is below another when its path properly extends the other's,
    or is smaller at the first entry where the paths differ.  The dict
    lists the paths in post-order.
    """
    node_set = set(paths)
    if () not in node_set:
        raise NoSuchNode("tree has no root")
    for p in node_set:
        if p and p[:-1] not in node_set:
            raise NoSuchNode(f"node {format_path(p)} has no parent")
    order: dict[NodePath, int] = {}
    counter = 0
    stack: list[tuple[NodePath, int]] = [((), 0)]
    while stack:
        path, next_child = stack[-1]
        child = path + (next_child,)
        if child in node_set:
            stack[-1] = (path, next_child + 1)
            stack.append((child, 0))
        else:
            order[path] = counter
            counter += 1
            stack.pop()
    if len(order) != len(node_set):
        unreached = min(node_set - set(order))
        raise NoSuchNode(f"node {format_path(unreached)} is not connected to the root")
    return order


# Validation


@dataclass(frozen=True)
class ValidationIssue:
    path: NodePath
    message: str

    def render(self) -> str:
        return f"{format_path(self.path)}: {self.message}"


class FormulaTable:
    """One small int per distinct normalized formula, and validation's node facts.

    Ids are handed out in order of first sight, so two formulas get the
    same id exactly when ``formulas_equal`` holds.  Nodes are numbered
    by ``postorder_index``: ``kb`` maps a path to its node id, ``paths``
    lists the paths by id, and ``parent`` holds each parent's id, the
    root being its own.  By node id, ``rule`` holds each node's rule,
    ``children`` each child count, ``members`` each sequent's set of
    formula ids, for membership probes, ``added`` the id of the formula
    each child adds over its parent, and ``witness`` and ``principal``
    each existential or exists-forall rule's witness value and
    principal id; an entry validation did not reach is None.  ``truth``
    maps the id of each initial literal that evaluates to its truth.
    The ids belong to this table alone and die with it.

    Decoded and expanded derivations share one object per distinct
    formula, so ``intern`` looks a formula up by identity first: each
    distinct object is normalized and hashed once, however often it
    occurs.
    """

    def __init__(self, kb: dict[NodePath, int]) -> None:
        self._ids: dict[Formula, int] = {}
        # id(f) -> (f, formula id); holding f keeps its id(f) from being
        # reused by another object while the table lives.
        self._by_object: dict[int, tuple[Formula, int]] = {}
        self.kb = kb
        self.paths = paths = list(kb)
        n = len(paths)
        self.parent = [kb[p[:-1]] for p in paths[:-1]] + [n - 1]
        self.rule: list[Rule | None] = [None] * n
        self.children: list[int | None] = [None] * n
        self.members: list[frozenset[int] | None] = [None] * n
        self.added: list[int | None] = [None] * n
        self.witness: list[int | None] = [None] * n
        self.principal: list[int | None] = [None] * n
        self.truth: dict[int, bool] = {}

    def intern(self, f: Formula) -> int:
        known = self._by_object.get(id(f))
        if known is not None:
            return known[1]
        got = self._ids.setdefault(normalize(f), len(self._ids))
        self._by_object[id(f)] = (f, got)
        return got

    def formulas(self) -> list[Formula]:
        """The normal form of every formula, indexed by id."""
        return list(self._ids)

    def record(self, i: int, sequent: tuple[Formula, ...]) -> list[int]:
        """Intern node ``i``'s sequent, keep its id set, and return its ids."""
        ids = [self.intern(f) for f in sequent]
        self.members[i] = frozenset(ids)
        return ids


@dataclass(frozen=True)
class ValidationReport:
    """Issues found by ``validate``, with the formula table it built.

    The table is None when the tree's shape is refused.  On a report
    that is ``ok`` it holds every field for every node, by post-order
    id, and every initial literal's truth; it takes no part in
    comparison or repr.
    """

    mode: str
    issues: tuple[ValidationIssue, ...]
    table: FormulaTable | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.issues

    def lines(self) -> list[str]:
        return [issue.render() for issue in self.issues]


def validate(d: Derivation, mode: str = MODE_NPLS) -> ValidationReport:
    """Check a derivation against the rule shapes of the given mode.

    ``pls`` mode admits literals and bounded existentials, with cuts on
    bounded existentials only.  ``npls`` mode additionally admits
    exists-forall formulas and restricts cuts to those.  The report
    lists one issue per offending node; an empty report means the
    derivation is sound at its substituted value.

    Once the tree's shape passes, ``postorder_index`` numbers the nodes,
    the one numbering every later stage reads, and one pass in path
    order fills the report's ``FormulaTable`` by those ids, each
    distinct formula object normalized once.  The formula a child adds
    is matched in place against the last formula of its upper sequent,
    which is then interned as it stands; the added formula is built by
    ``added_formula`` only when that match fails (see ``_intern_added``),
    and a built one whose terms nest more than ``MAX_TERM_DEPTH``
    operations is flagged at the child, not interned.

    A child is derived when its upper sequent is its lower sequent,
    object for object, followed by one formula that interns to the id
    the rule adds.  Its id set is then its parent's plus that id, and at
    its own turn only its new formula takes the class and
    free-variable checks, the parent's class flags being repeated in
    index order.  Every other child takes the full check,
    ``_check_child``: its sequent is interned and its sorted ids are
    compared with the lower sequent's plus the added id.

    Work that depends only on shared objects runs once per object, keyed
    by identity, and its issues are still flagged at every node:

    * the class and free-variable checks, once per distinct formula;
    * an initial literal's truth, once per formula id, kept in the
      table's ``truth``;
    * a quantifier rule's shape and closedness checks, its witness,
      bound and inner bound values, and the formulas its children add,
      once per distinct (rule kind, principal, witness) triple, a cut
      being keyed by its cut formula.  The added formulas are looked at
      only once a node's child count matches, so a huge bound is
      refused by the count alone.

    Per node remain the principal or literal index range, the child
    count, the check of each upper sequent, and every message that names
    the rule's index.
    """
    if mode not in _MODE_CLASS:
        raise ValueError(f"unknown mode {mode!r}")
    max_class = _MODE_CLASS[mode]
    issues: list[ValidationIssue] = []

    def flag(path: NodePath, message: str) -> None:
        issues.append(ValidationIssue(path, message))

    if () not in d.nodes:
        return ValidationReport(mode, (ValidationIssue((), "missing root node"),))

    order: dict[NodePath, list[int]] = {p: [] for p in d.nodes}
    for p in d.nodes:
        if p:
            if p[:-1] not in d.nodes:
                flag(p, "parent node is missing")
            else:
                order[p[:-1]].append(p[-1])
    for p, indices in sorted(order.items()):
        if sorted(indices) != list(range(len(indices))):
            flag(p, f"child indices {sorted(indices)} are not contiguous from 0")
    if issues:
        return ValidationReport(mode, tuple(issues))
    table = FormulaTable(postorder_index(d.nodes))
    kb, members = table.kb, table.members

    def value(t: Term) -> int | None:
        try:
            return eval_term(t, d.end_x)
        except NplsError:
            return None

    # id(f) -> (too high a class, sorted extra free variables); ``d``
    # holds every f for the whole pass, so no id is reused meanwhile.
    checked: dict[int, tuple[bool, list[str]]] = {}
    # Formula id -> the message of an initial literal that does not evaluate.
    failed: dict[int, str] = {}
    # (rule kind, id(principal), id(witness)) -> _RuleFacts; ``d`` holds
    # both objects too, and a cut's witness is None.
    rule_facts: dict[tuple[type, int, int], _RuleFacts] = {}
    # Derived child's id -> the indices of its parent's formulas that
    # exceed the class; the parent's other formulas are closed.
    derived: dict[int, tuple[int, ...]] = {}

    for path in d.paths():
        i = kb[path]
        node = d.nodes[path]
        sequent = node.sequent
        high = derived.pop(i, None)
        if high is None:
            high, start = (), 0
        else:
            for k in high:
                flag(path, f"formula {k} exceeds the {mode} quantifier class")
            start = len(sequent) - 1
        is_open = False
        for k in range(start, len(sequent)):
            f = sequent[k]
            check = checked.get(id(f))
            if check is None:
                check = checked[id(f)] = (
                    classify(f) > max_class,
                    sorted(formula_vars(f) - {"x"}),
                )
            too_high, extra = check
            if too_high:
                flag(path, f"formula {k} exceeds the {mode} quantifier class")
                high = (*high, k)
            if extra:
                flag(path, f"formula {k} has free variables {extra}")
                is_open = True
        if is_open:
            continue
        count = table.children[i] = len(order[path])
        rule = table.rule[i] = node.rule
        if members[i] is None:
            table.record(i, sequent)

        if isinstance(rule, InitialRule):
            if count != 0:
                flag(path, "initial node is not a leaf")
            if not 0 <= rule.index < len(sequent):
                flag(path, f"initial literal index {rule.index} out of range")
                continue
            f = sequent[rule.index]
            if not isinstance(f, LitFormula):
                flag(path, f"initial index {rule.index} does not point at a literal")
                continue
            fid = table.intern(f)
            holds = table.truth.get(fid)
            if holds is None and fid not in failed:
                try:
                    holds = table.truth[fid] = eval_literal(f.lit, d.end_x)
                except NplsError as exc:
                    failed[fid] = f"initial literal does not evaluate: {exc}"
            if holds is False:
                flag(path, f"initial literal at index {rule.index} is false")
            elif holds is None:
                flag(path, failed[fid])
            continue

        if isinstance(rule, CutRule):
            index, principal, witness = None, rule.formula, None
        elif isinstance(rule, (ExistsRule, ExistsForallRule)):
            index, witness = rule.principal, rule.witness
            if not 0 <= index < len(sequent):
                flag(path, f"principal index {index} out of range")
                continue
            principal = sequent[index]
        else:
            flag(path, f"unknown rule {type(rule).__name__}")
            continue
        key = (type(rule), id(principal), id(witness))
        facts = rule_facts.get(key)
        if facts is None:
            facts = rule_facts[key] = _RuleFacts(rule, principal, value, mode)
        if facts.stop is not None:
            flag(path, facts.stop.format(index=index))
            continue
        if witness is not None:
            table.witness[i] = facts.witness
            table.principal[i] = table.intern(principal)
        if facts.above is not None:
            flag(path, facts.above)
        if facts.inner is None:
            flag(path, "inner bound does not evaluate")
            continue
        if count != facts.inner:
            flag(path, f"{facts.name} has {count} children, expected {facts.inner}")
            continue
        # The added formulas' ids are interned at the first node that
        # gets this far, in child order.
        added_ids = facts.added_ids
        base = None
        for n in range(count):
            child = path + (n,)
            c = kb[child]
            upper = d.nodes[child].sequent
            if n == len(added_ids):
                at = None if n == facts.final else n
                added_ids.append(_intern_added(table, upper, rule, principal, at))
            added = added_ids[n]
            if added is None:
                flag(child, f"added formula nests more than {MAX_TERM_DEPTH} operations")
                continue
            table.added[c] = added
            if (
                len(upper) == len(sequent) + 1
                and all(map(is_, upper, sequent))
                and table.intern(upper[-1]) == added
            ):
                members[c] = members[i] | {added}
                derived[c] = high
            else:
                if base is None:
                    base = sorted(map(table.intern, sequent))
                _check_child(table, child, upper, base, added, flag)

    return ValidationReport(mode, tuple(issues), table)


class _RuleFacts:
    """What validation learns of one (rule kind, principal, witness) triple.

    A quantifier rule's checks, short of its index range and child
    count, depend only on the kind of rule, on its principal and witness
    objects, and on the mode.  A cut's principal is its cut formula and
    its witness None.  ``stop`` is the message that ends the check, a
    format string with the rule's principal ``index``; ``witness`` is
    the witness's value, and ``above`` flags it not below the bound;
    ``inner`` is the number of children the rule must have, None when it
    does not evaluate; ``final`` is the index of the cut upper that adds
    the cut formula itself, None for the other rules.  ``added_ids``
    holds the table id of each child's added formula, filled in when a
    node of the triple first reaches its children, so no instance is
    looked at before the child count matches.
    """

    __slots__ = ("stop", "witness", "above", "inner", "final", "name", "added_ids")

    def __init__(self, rule: Rule, principal: Formula, value, mode: str) -> None:
        self.stop: str | None = None
        self.witness: int | None = None
        self.above: str | None = None
        self.inner: int | None = None
        self.final: int | None = None
        self.added_ids: list[int] = []
        if isinstance(rule, CutRule):
            self.name = "cut"
            if mode == MODE_PLS and not isinstance(principal, ExistsLit):
                self.stop = "pls cuts must be on bounded existentials"
            elif mode == MODE_NPLS and not isinstance(principal, ExistsForall):
                self.stop = "npls cuts must be on exists-forall formulas"
            elif formula_vars(principal) - {"x"}:
                self.stop = "cut formula is not closed"
            elif (b := value(principal.bound if mode == MODE_PLS else principal.bound1)) is None:
                self.stop = "cut bound does not evaluate"
            else:
                self.inner, self.final = b + 1, b
            return
        exists = isinstance(rule, ExistsRule)
        self.name = "existential rule" if exists else "exists-forall rule"
        if not isinstance(principal, ExistsLit if exists else ExistsForall):
            self.stop = "principal at index {index} has the wrong shape"
            return
        witness = rule.witness
        if free_vars(witness) - {"x"}:
            self.stop = "witnessing term is not closed"
            return
        w = value(witness)
        b = value(principal.bound if exists else principal.bound1)
        if w is None or b is None:
            self.stop = "witness or bound does not evaluate"
            return
        self.witness = w
        if w >= b:
            self.above = f"witness value {w} is not below the bound {b}"
        self.inner = 1 if exists else value(principal.bound2)


def _intern_added(
    table: FormulaTable,
    upper: tuple[Formula, ...],
    rule: Rule,
    f: Formula,
    n: int | None,
) -> int | None:
    """The table id of the formula that upper ``n`` of ``rule`` on ``f`` adds.

    ``n`` is None for a cut's final upper, as ``added_formula`` takes
    it; validation has checked the rule's shape and child count.

    An upper sequent usually lists the added formula last.  ``_is_added``
    matches that occurrence against ``f``'s body under the environment
    that building the instance substitutes, without building anything,
    and on a match it is interned as it stands: one normalization and
    one hash, found again by identity when its sequent is recorded.  The
    added formula is built only when the match fails: a renamed bound
    variable, an added formula that is not last, or a wrong upper.
    Equal formulas have the same id, so both ways give the same id.

    An instance puts a witness into a body, each within the depth cap,
    so its terms may nest up to twice as deep.  Hashing such a term
    recurses past the interpreter's limit, so a built instance that
    nests more than ``MAX_TERM_DEPTH`` operations is not interned, and
    the result is None.  A decoded upper never holds one, so it never
    matches.
    """
    witness = None if isinstance(rule, CutRule) else rule.witness
    if upper and _is_added(upper[-1], f, witness, n):
        return table.intern(upper[-1])
    added = added_formula(rule, f, n)
    if witness is not None and nests_too_deep((added.lit.lhs, added.lit.rhs)):
        return None
    return table.intern(added)


def _is_added(u: Formula, f: Formula, witness: Term | None, n: int | None) -> bool:
    """Whether ``u`` equals what ``added_formula`` builds at ``n`` for a rule on ``f``.

    ``witness`` is the rule's witness, None for a cut.  Each case
    matches ``f``'s body under the environment its builder substitutes,
    so the dict settles a name that both quantifiers bind.  Terms are
    compared by ``_term_is``, never by ``==``.
    """
    if n is None:
        return formula_is(u, f)
    if isinstance(f, ExistsLit):
        env = {f.var: n if witness is None else witness}
        return u.__class__ is LitFormula and _literal_is(u.lit, f.body, witness is None, env)
    if witness is not None:
        env = {f.var1: witness, f.var2: n}
        return u.__class__ is LitFormula and _literal_is(u.lit, f.body, False, env)
    # The inner quantifier shadows the outer one when both bind one name.
    env = {} if f.var1 == f.var2 else {f.var1: n}
    return (
        u.__class__ is ExistsLit
        and u.var == f.var2
        and _term_is(u.bound, f.bound2, _NO_ENV)
        and _literal_is(u.body, f.body, True, env)
    )


def formula_is(u: Formula, f: Formula) -> bool:
    """Whether ``u == f``, comparing terms by ``_term_is``, one frame per level."""
    if u is f:
        return True
    if isinstance(f, LitFormula):
        return u.__class__ is LitFormula and _literal_is(u.lit, f.lit, False, _NO_ENV)
    if isinstance(f, ExistsLit):
        return (
            u.__class__ is ExistsLit
            and u.var == f.var
            and _term_is(u.bound, f.bound, _NO_ENV)
            and _literal_is(u.body, f.body, False, _NO_ENV)
        )
    return (
        u.__class__ is ExistsForall
        and u.var1 == f.var1
        and u.var2 == f.var2
        and _term_is(u.bound1, f.bound1, _NO_ENV)
        and _term_is(u.bound2, f.bound2, _NO_ENV)
        and _literal_is(u.body, f.body, False, _NO_ENV)
    )


def _literal_is(u: Literal, body: Literal, negate: bool, env: dict[str, Term | int]) -> bool:
    """Whether ``u`` equals ``body``, negated if ``negate``, after substituting ``env``."""
    return (
        u.__class__ is Literal
        and u.negated == (body.negated != negate)
        and _term_is(u.lhs, body.lhs, env)
        and _term_is(u.rhs, body.rhs, env)
    )


_NO_ENV: dict[str, Term | int] = {}


def _term_is(u: Term, t: Term, env: dict[str, Term | int]) -> bool:
    """Whether ``u == substitute_term(t, env)``, building nothing.

    ``env`` is ``substitute_term``'s environment, name to term, except
    that an int stands for its numeral; with ``_NO_ENV`` this is
    ``u == t``.  It takes one frame per level of ``t`` and of a
    substituted term, where ``==`` on two equal dataclass terms takes
    about three and passes the recursion limit within the depth cap.
    A variable or numeral ``t`` is compared with ``==``, which stops at
    the operation or the empty arguments.
    """
    if t.op == "var":
        at = env.get(t.name)
        if at is None:
            return u is t or u == t
        if at.__class__ is int:
            return u.op == "num" and u.value == at and u.name is None
        return u is at or _term_is(u, at, _NO_ENV)
    if t.op == "num":
        return u is t or u == t
    if u.op != t.op or u.value is not None or u.name is not None:
        return False
    for a, b in zip(u.args, t.args):
        if not _term_is(a, b, env):
            return False
    return True


def _check_child(
    table: FormulaTable,
    child: NodePath,
    upper: tuple[Formula, ...],
    base: list[int],
    added_id: int,
    flag,
) -> None:
    """The upper sequent must be the lower sequent (``base``) plus the added formula.

    ``base`` is the lower sequent's sorted ids and ``added_id`` the id
    of the added formula.
    """
    want = base.copy()
    insort(want, added_id)
    got = sorted(table.record(table.kb[child], upper))
    if got != want:
        missing = Counter(want) - Counter(got)
        surplus = Counter(got) - Counter(want)
        parts = []
        if missing:
            parts.append(f"missing {sum(missing.values())} formula(s)")
        if surplus:
            parts.append(f"{sum(surplus.values())} unexpected formula(s)")
        flag(child, "upper sequent mismatch: " + ", ".join(parts))


# Templates


@dataclass(frozen=True)
class FamilySpec:
    """A child schema replicated once per value below the bound."""

    index: str
    bound: Term
    body: "TemplateNode"


@dataclass(frozen=True)
class TemplateNode:
    sequent: tuple[Formula, ...]
    rule: Rule
    children: tuple["TemplateNode", ...] = ()
    family: FamilySpec | None = None


@dataclass(frozen=True)
class DerivationTemplate:
    """A derivation shape parameterized by the variable x.

    Terms anywhere in the template may mention x and the index
    variables of enclosing family schemas.  At expansion each family is
    replicated once per value below its bound, in value order, before
    any explicitly listed children; a cut template therefore lists the
    final upper explicitly and leaves the value-indexed uppers to its
    family.
    """

    root: TemplateNode


def _subst_rule(rule: Rule, env: Mapping[str, Term], subst) -> Rule:
    if isinstance(rule, ExistsRule):
        return ExistsRule(rule.principal, subst(rule.witness, env))
    if isinstance(rule, ExistsForallRule):
        return ExistsForallRule(rule.principal, subst(rule.witness, env))
    if isinstance(rule, CutRule):
        return CutRule(subst(rule.formula, env))
    return rule


def expand_template(template: DerivationTemplate, x: int) -> Derivation:
    """Expand a template at a value of x, without validating the result.

    Raises ValidationFailed, with no report, when a family bound is
    still open after substitution.  Callers that go on to validate in a
    mode of their own use this to validate once; ``substitute_numeral``
    is expansion plus validation.

    Each template formula, witness and family bound is substituted once
    per assignment of its own free variables, which bound variables
    shadow: a formula that does not mention a family's index is built
    once for the whole family.  The expansion shares one object per
    distinct substituted formula and witness, so validation interns each
    formula just once, evaluates each initial literal once, and checks
    the rules of all replicates that share a principal and a witness
    once.  Rule objects themselves are built per node.
    """
    env0: dict[str, Term] = {"x": Term("num", value=x)}
    nodes: dict[NodePath, ProofNode] = {}
    # The template holds every object keyed by its id() here for the
    # whole expansion, so no id is reused meanwhile.
    free: dict[int, tuple[str, ...]] = {}
    memo: dict[tuple, Formula | Term] = {}

    def subst(obj: Formula | Term, env: dict[str, Term]) -> Formula | Term:
        is_term = isinstance(obj, Term)
        names = free.get(id(obj))
        if names is None:
            names = free[id(obj)] = tuple(free_vars(obj) if is_term else formula_vars(obj))
        key = (id(obj), *[env.get(name) for name in names])
        got = memo.get(key)
        if got is None:
            got = memo[key] = (substitute_term if is_term else substitute_formula)(obj, env)
        return got

    def expand(tnode: TemplateNode, path: NodePath, env: dict[str, Term]) -> None:
        sequent = tuple([subst(f, env) for f in tnode.sequent])
        nodes[path] = ProofNode(sequent, _subst_rule(tnode.rule, env, subst))
        index = 0
        if tnode.family is not None:
            bound = subst(tnode.family.bound, env)
            if free_vars(bound):
                raise ValidationFailed(
                    f"family bound at {format_path(path)} is open after substitution"
                )
            width = eval_term(bound, x)
            for n in range(width):
                child_env = dict(env)
                child_env[tnode.family.index] = Term("num", value=n)
                expand(tnode.family.body, path + (index,), child_env)
                index += 1
        for child in tnode.children:
            expand(child, path + (index,), env)
            index += 1

    try:
        expand(template.root, (), env0)
    finally:
        # expand reaches itself through its closure; unbinding it frees
        # that cycle, and ``nodes`` with it, without the cycle collector.
        del expand
    return Derivation(x, nodes)


def substitute_numeral(template: DerivationTemplate, x: int) -> Derivation:
    """Expand a template at a value of x into a validated derivation.

    The expansion is validated in the smallest mode that could accept
    it.  Raises ValidationFailed when it is not sound at x; the attached
    report names the offending nodes.
    """
    derivation = expand_template(template, x)
    report = validate(derivation, detect_mode(derivation))
    if not report.ok:
        raise ValidationFailed(
            f"template expansion at x={x} is invalid: " + "; ".join(report.lines()[:3]),
            report,
        )
    return derivation


def detect_mode(d: Derivation) -> str:
    """The smallest mode that could accept this derivation."""
    for node in d.nodes.values():
        if isinstance(node.rule, ExistsForallRule):
            return MODE_NPLS
        if isinstance(node.rule, CutRule) and isinstance(node.rule.formula, ExistsForall):
            return MODE_NPLS
        if any(isinstance(f, ExistsForall) for f in node.sequent):
            return MODE_NPLS
    return MODE_PLS
