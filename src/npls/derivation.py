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
tree only ever grows the multiset.  Node paths are tuples of child
indices; children of a wide rule are numbered by instance value, with
the extra cut upper last.

The traversal order used as both cost and rank downstream is the
post-order index: children before their parent, in increasing index
order.  A node's index is smaller than another's exactly when its path
properly extends the other or is smaller at the first differing entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import (
    NoSuchNode,
    NplsError,
    ValidationFailed,
)
from .terms import (
    ExistsForall,
    ExistsLit,
    Formula,
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
    or is smaller at the first entry where the paths differ.
    """
    node_set = set(paths)
    if () not in node_set:
        raise NoSuchNode("tree has no root")
    children: dict[NodePath, int] = {}
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
    """One small int per distinct normalized formula of one derivation.

    Ids are handed out in order of first sight, so two formulas get the
    same id exactly when ``formulas_equal`` holds.  ``sequent`` maps a
    node to its sequent as ids in sequent order and ``counter`` to the
    multiset of those ids; ``added`` maps each child that validation
    checked to the id of the formula it adds over its parent.  The ids
    belong to this table alone and die with it.

    Decoded and expanded derivations share one object per distinct
    formula, so ``intern`` looks a formula up by identity first: each
    distinct object is hashed and normalized once, however often it
    occurs.
    """

    def __init__(self) -> None:
        self._ids: dict[Formula, int] = {}
        self._seen: dict[Formula, int] = {}
        # id(f) -> (f, formula id); holding f keeps its id(f) from being
        # reused by another object while the table lives.
        self._by_object: dict[int, tuple[Formula, int]] = {}
        self.sequent: dict[NodePath, tuple[int, ...]] = {}
        self.counter: dict[NodePath, Counter] = {}
        self.added: dict[NodePath, int] = {}

    def intern(self, f: Formula) -> int:
        known = self._by_object.get(id(f))
        if known is not None:
            return known[1]
        # Equal formulas have equal normal forms, so a formula seen
        # before skips normalization.
        got = self._seen.get(f)
        if got is None:
            got = self._seen[f] = self._ids.setdefault(normalize(f), len(self._ids))
        self._by_object[id(f)] = (f, got)
        return got

    def formulas(self) -> list[Formula]:
        """The normal form of every formula, indexed by id."""
        return list(self._ids)

    def record(self, path: NodePath, sequent: tuple[Formula, ...]) -> Counter:
        """Intern a node's sequent, once per node, and return its id multiset."""
        got = self.counter.get(path)
        if got is None:
            ids = tuple([self.intern(f) for f in sequent])
            self.sequent[path] = ids
            got = self.counter[path] = Counter(ids)
        return got


@dataclass(frozen=True)
class ValidationReport:
    """Issues found by ``validate``, with the formula table it built.

    On a report that is ``ok`` the table holds every node's sequent and
    every child's added formula; it takes no part in comparison or repr.
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

    One pass fills the report's ``FormulaTable``: each node's sequent is
    interned once, each distinct formula normalized once, and upper
    sequents are checked by comparing multisets of formula ids.  The
    class and free-variable checks also run once per distinct formula
    object; their issues are still flagged at every occurrence.
    """
    if mode not in _MODE_CLASS:
        raise ValueError(f"unknown mode {mode!r}")
    max_class = _MODE_CLASS[mode]
    issues: list[ValidationIssue] = []
    table = FormulaTable()

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

    def value(t: Term) -> int | None:
        try:
            return eval_term(t, d.end_x)
        except NplsError:
            return None

    # id(f) -> (too high a class, sorted extra free variables); ``d``
    # holds every f for the whole pass, so no id is reused meanwhile.
    checked: dict[int, tuple[bool, list[str]]] = {}

    for path in d.paths():
        node = d.nodes[path]
        sequent = node.sequent
        is_open = False
        for i, f in enumerate(sequent):
            check = checked.get(id(f))
            if check is None:
                check = checked[id(f)] = (
                    classify(f) > max_class,
                    sorted(formula_vars(f) - {"x"}),
                )
            too_high, extra = check
            if too_high:
                flag(path, f"formula {i} exceeds the {mode} quantifier class")
            if extra:
                flag(path, f"formula {i} has free variables {extra}")
                is_open = True
        if is_open:
            continue
        count = len(order[path])
        rule = node.rule
        base = table.record(path, sequent)

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
            try:
                if not eval_literal(f.lit, d.end_x):
                    flag(path, f"initial literal at index {rule.index} is false")
            except NplsError as exc:
                flag(path, f"initial literal does not evaluate: {exc}")
            continue

        if isinstance(rule, (ExistsRule, ExistsForallRule)):
            if not 0 <= rule.principal < len(sequent):
                flag(path, f"principal index {rule.principal} out of range")
                continue
            principal = sequent[rule.principal]
            wanted = ExistsLit if isinstance(rule, ExistsRule) else ExistsForall
            if not isinstance(principal, wanted):
                flag(path, f"principal at index {rule.principal} has the wrong shape")
                continue
            if free_vars(rule.witness) - {"x"}:
                flag(path, "witnessing term is not closed")
                continue
            w = value(rule.witness)
            outer = principal.bound if isinstance(principal, ExistsLit) else principal.bound1
            b = value(outer)
            if w is None or b is None:
                flag(path, "witness or bound does not evaluate")
                continue
            if w >= b:
                flag(path, f"witness value {w} is not below the bound {b}")
            if isinstance(rule, ExistsRule):
                if count != 1:
                    flag(path, f"existential rule has {count} children, expected 1")
                    continue
                added = LitFormula(exists_instance(principal, rule.witness))
                _check_child(d, table, path, base, 0, added, flag)
            else:
                inner = value(principal.bound2)
                if inner is None:
                    flag(path, "inner bound does not evaluate")
                    continue
                if count != inner:
                    flag(path, f"exists-forall rule has {count} children, expected {inner}")
                    continue
                for n in range(inner):
                    added = LitFormula(exists_forall_instance(principal, rule.witness, n))
                    _check_child(d, table, path, base, n, added, flag)
            continue

        if isinstance(rule, CutRule):
            formula = rule.formula
            if mode == MODE_PLS and not isinstance(formula, ExistsLit):
                flag(path, "pls cuts must be on bounded existentials")
                continue
            if mode == MODE_NPLS and not isinstance(formula, ExistsForall):
                flag(path, "npls cuts must be on exists-forall formulas")
                continue
            if formula_vars(formula) - {"x"}:
                flag(path, "cut formula is not closed")
                continue
            outer = formula.bound if isinstance(formula, ExistsLit) else formula.bound1
            b = value(outer)
            if b is None:
                flag(path, "cut bound does not evaluate")
                continue
            if count != b + 1:
                flag(path, f"cut has {count} children, expected {b + 1}")
                continue
            for n in range(b):
                _check_child(d, table, path, base, n, negated_instance(formula, n), flag)
            _check_child(d, table, path, base, b, formula, flag)
            continue

        flag(path, f"unknown rule {type(rule).__name__}")

    return ValidationReport(mode, tuple(issues), table)


def _check_child(
    d: Derivation,
    table: FormulaTable,
    path: NodePath,
    base: Counter,
    index: int,
    added: Formula,
    flag,
) -> None:
    """The upper sequent must be the lower sequent (``base``) plus the added formula."""
    child = path + (index,)
    added_id = table.added[child] = table.intern(added)
    want = base.copy()
    want[added_id] += 1
    got = table.record(child, d.sequent(child))
    if got != want:
        missing = want - got
        surplus = got - want
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
    distinct substituted formula, so validation interns each just once.
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
