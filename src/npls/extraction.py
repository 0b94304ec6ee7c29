"""Witness extraction: compiling derivations into local search problems.

A derivation of a bounded existential sentence hides a witness for it
in plain sight: some leaf rule instantiates the end-formula with a
true instance.  Finding that rule is organized as local search over
nodes of the derivation tree.

In ``pls`` mode the feasible points are the root and the value-indexed
cut uppers whose sequents contain no true literal.  From a point one
walks the rightmost branch up to the lowest existential rule with a
true witnessing instance; the entry point of that rule's principal
formula is either the root, in which case the point is a solution, or
a cut upper, whose witness value selects a strictly earlier feasible
point in post-order.  Iterating reaches a solution, and the goal above
it witnesses the end-formula.

In ``npls`` mode cuts are on exists-forall formulas, and a single
descent no longer suffices: refuting one instantiation of a cut
formula is itself a search problem.  Source rows are the root and the
value-indexed cut uppers; the targets of a row are the exists-forall
rules at or above it with no value-indexed cut upper in between, plus
any existential rule with a true instance whose principal already
occurs in the row's sequent.  A value-indexed cut upper opens a row of
its own, so when it is an exists-forall rule it is a target of that
row only, never of the row below it: its subtree, and with it every
point its subproblems lift to, lies beyond the cut.  A stuck
exists-forall target spawns the cut upper selected
by its witness value as a subproblem; the subproblem's solution either
is a target of the original row outright or points, through its own
witness value, at the universal branch that pushes the search deeper.
Ranks and costs both come from tree shape: the rank of a row is its
post-order index, the cost of an exists-forall target grows toward
the root so the search sinks into the tree, and existential targets
cost nothing because they end the row.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

from .derivation import (
    MODE_NPLS,
    MODE_PLS,
    CutRule,
    Derivation,
    ExistsForallRule,
    ExistsRule,
    InitialRule,
    NodePath,
    ProofNode,
    format_path,
    postorder_index,
    validate,
)
from .errors import (
    EndFormulaPrincipal,
    GoalNotFound,
    KBViolation,
    ModeError,
    NotASolution,
    UnreachableCase,
    ValidationFailed,
)
from .search_core import (
    NplsInstance,
    SearchTrace,
    plain_instance,
    solve_npls,
    solve_pls,
)
from .terms import (
    ExistsForall,
    ExistsLit,
    LitFormula,
    classify,
    eval_literal,
    eval_term,
    exists_instance,
)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of an extraction run.

    ``solution_node`` is the existential rule whose witnessing term
    yields the witness; ``verified`` records whether the end-formula
    instance at the witness is actually true.
    """

    witness: int
    solution_node: NodePath
    verified: bool
    trace: SearchTrace


class ExtractionContext:
    """A validated derivation with everything the compilers need cached.

    Construction validates the derivation in the requested mode.  A
    derivation whose formulas or rules do not fit the mode at all
    raises ModeError; any other defect raises ValidationFailed.  The
    cached tables cover sequent id sets, rule classification, the
    truth of witnessing instances, post-order indices and child counts.
    ``d_max`` exceeds the deepest node by one, so exists-forall targets
    always cost at least one.

    Formulas are the int ids of the ``FormulaTable`` that validation
    built, read off the report of the one ``validate`` call:
    ``_seq_ids`` holds each node's sequent as ids in sequent order,
    ``_seq_members`` the set of those ids, which membership probes and
    per-distinct-formula scans read, ``_added`` the id of the formula
    each child adds, ``_principal`` the id of each rule's principal and
    ``end_id`` that of the end-formula.  Nothing is normalized past
    validation.

    ``low[i]`` is the smallest post-order id in the subtree of node
    ``i``, so that subtree is exactly the ids ``low[i]..i``.  Each table
    is filled in one pass over the nodes; child counts in particular are
    counted once rather than rescanned per child.  Past validation a
    context therefore costs time linear in the total size of the
    sequents, plus sorting the post-order index.
    """

    def __init__(self, derivation: Derivation, mode: str):
        if mode not in (MODE_PLS, MODE_NPLS):
            raise ValueError(f"unknown mode {mode!r}")
        self._check_mode(derivation, mode)
        report = validate(derivation, mode)
        if not report.ok:
            raise ValidationFailed(
                "derivation is invalid: " + "; ".join(report.lines()[:3]), report
            )
        self.derivation = derivation
        self.mode = mode
        self.x = derivation.end_x

        root = derivation.sequent(())
        if len(root) != 1 or not isinstance(root[0], ExistsLit):
            raise ValidationFailed(
                "the end-sequent must consist of one bounded existential formula"
            )
        self.end_formula: ExistsLit = root[0]
        table = report.table
        self._seq_ids = table.sequent
        self._seq_members = table.members
        self._added = table.added
        self.end_id = table.sequent[()][0]

        self.kb = postorder_index(derivation.nodes.keys())
        self.path_of = [p for p, _ in sorted(self.kb.items(), key=lambda kv: kv[1])]
        self.n_nodes = len(self.path_of)
        self.d_max = max(len(p) for p in self.kb) + 1
        # Validation guarantees contiguous child indices, so counting
        # children gives each node's child count.  Children come before
        # their parent in post-order, so a child's ``low`` is final when
        # it reaches the parent.
        self._child_count: dict[NodePath, int] = {}
        self.low = list(range(self.n_nodes))
        for i, path in enumerate(self.path_of):
            if path:
                up = path[:-1]
                self._child_count[up] = self._child_count.get(up, 0) + 1
                parent = self.kb[up]
                self.low[parent] = min(self.low[parent], self.low[i])

        # Truth of each distinct formula id, evaluated on first need; a
        # quantified formula is never a true literal.  The goal of an
        # existential rule is the literal its child adds.
        normal = table.formulas()
        true_lit: dict[int, bool] = {}

        def holds(fid: int) -> bool:
            got = true_lit.get(fid)
            if got is None:
                f = normal[fid]
                got = true_lit[fid] = isinstance(f, LitFormula) and eval_literal(f.lit, self.x)
            return got

        self._has_true_literal: dict[NodePath, bool] = {}
        self._principal: dict[NodePath, int] = {}
        self._witness_value: dict[NodePath, int] = {}
        self._true_goal: dict[NodePath, bool] = {}
        self._left_upper: dict[NodePath, bool] = {}
        for path, node in derivation.nodes.items():
            self._has_true_literal[path] = any(map(holds, self._seq_ids[path]))
            rule = node.rule
            if isinstance(rule, (ExistsRule, ExistsForallRule)):
                self._principal[path] = self._seq_ids[path][rule.principal]
                self._witness_value[path] = eval_term(rule.witness, self.x)
                if isinstance(rule, ExistsRule):
                    self._true_goal[path] = holds(self._added[path + (0,)])
            self._left_upper[path] = bool(path) and (
                isinstance(derivation.rule(path[:-1]), CutRule)
                and path[-1] < self._child_count[path[:-1]] - 1
            )

    @staticmethod
    def _check_mode(d: Derivation, mode: str) -> None:
        for path, node in d.nodes.items():
            where = f" at {format_path(path)}"
            if mode == MODE_PLS:
                if isinstance(node.rule, ExistsForallRule) or any(
                    classify(f) > 1 for f in node.sequent
                ):
                    raise ModeError("exists-forall material needs npls mode" + where)
                if isinstance(node.rule, CutRule) and not isinstance(
                    node.rule.formula, ExistsLit
                ):
                    raise ModeError("pls mode admits cuts on bounded existentials only" + where)
            else:
                if isinstance(node.rule, CutRule) and not isinstance(
                    node.rule.formula, ExistsForall
                ):
                    raise ModeError("npls mode admits cuts on exists-forall formulas only" + where)

    # Node predicates

    def is_exists(self, path: NodePath) -> bool:
        return isinstance(self.derivation.rule(path), ExistsRule)

    def is_exists_forall(self, path: NodePath) -> bool:
        return isinstance(self.derivation.rule(path), ExistsForallRule)

    def has_true_goal(self, path: NodePath) -> bool:
        """True on existential rules whose witnessing instance holds."""
        return self._true_goal.get(path, False)

    def principal(self, path: NodePath) -> int:
        """The formula id of an existential or exists-forall rule's principal."""
        return self._principal[path]

    def witness_value(self, path: NodePath) -> int:
        return self._witness_value[path]

    def is_left_upper(self, path: NodePath) -> bool:
        """True on the value-indexed uppers of a cut (all but the last)."""
        return self._left_upper[path]

    def child_count(self, path: NodePath) -> int:
        return self._child_count.get(path, 0)


def target_condition(ctx: ExtractionContext, path: NodePath) -> bool:
    """No literal in the sequent at ``path`` evaluates to true."""
    return not ctx._has_true_literal[path]


def rightmost_goal(ctx: ExtractionContext, path: NodePath) -> NodePath:
    """The lowest goal on the rightmost branch at or above ``path``.

    Goals are existential rules with a true witnessing instance and, in
    npls mode, exists-forall rules.  On input satisfying the target
    condition a goal always exists: the branch ends in an initial leaf
    whose true literal must have been introduced on the way, and the
    rule introducing it qualifies.
    """
    current = path
    while True:
        if ctx.has_true_goal(current):
            return current
        if ctx.mode == MODE_NPLS and ctx.is_exists_forall(current):
            return current
        count = ctx.child_count(current)
        if count == 0:
            raise GoalNotFound(
                f"no witnessing rule on the rightmost branch above {format_path(path)}"
            )
        current = current + (count - 1,)


def _entry_point(ctx: ExtractionContext, path: NodePath, formula: int) -> NodePath:
    """Shortest prefix of ``path`` whose sequent contains the formula.

    ``formula`` is an id of the context's formula table, and each prefix
    is probed in its id set ``ctx._seq_members``.
    """
    for k in range(len(path) + 1):
        if formula in ctx._seq_members[path[:k]]:
            return path[:k]
    raise UnreachableCase("formula missing below its own node")


# Plain extraction (pls mode)


def pls_neighbor(ctx: ExtractionContext, sigma: NodePath) -> NodePath:
    """One step of the plain search; fixed points are solutions.

    The goal above sigma witnesses its principal formula.  If that
    formula is the end-formula, sigma solves the instance.  Otherwise
    it entered at the final upper of a cut, and the goal's witness
    value picks the corresponding value-indexed upper of that cut,
    which lies strictly earlier in post-order.
    """
    tau = rightmost_goal(ctx, sigma)
    principal = ctx.principal(tau)
    entry = _entry_point(ctx, tau, principal)
    if entry == ():
        return sigma
    cut = entry[:-1]
    kappa = cut + (ctx.witness_value(tau),)
    if ctx.kb[kappa] >= ctx.kb[sigma]:
        raise KBViolation(
            f"step {format_path(sigma)} -> {format_path(kappa)} does not move down"
        )
    return kappa


def build_pls(ctx: ExtractionContext) -> NplsInstance:
    """The plain search instance of a pls-mode derivation.

    Point ids are post-order indices, so the cost function is the
    identity.  The instance has one rank-zero source row, the root,
    whose targets are the feasible points: the root and the
    value-indexed cut uppers whose sequents contain no true literal.
    Each target lists its ``pls_neighbor``, which is itself exactly on
    the solutions.
    """
    if ctx.mode != MODE_PLS:
        raise ModeError("build_pls needs a pls-mode context")
    paths = ctx.path_of
    root = ctx.n_nodes - 1
    # The root comes last in post-order and is no cut upper.
    feasible = [i for i, p in enumerate(paths) if ctx.is_left_upper(p) and target_condition(ctx, p)]
    table = {s: [ctx.kb[pls_neighbor(ctx, paths[s])]] for s in feasible + [root]}

    d = max((ctx.n_nodes - 1).bit_length(), 1)
    return plain_instance(d, root, table, root, lambda t: t)


def _report(ctx: ExtractionContext, tau: NodePath, trace: SearchTrace) -> WitnessReport:
    if not ctx.is_exists(tau):
        raise NotASolution(f"node {format_path(tau)} carries no witnessing term")
    witness = ctx.witness_value(tau)
    instance = exists_instance(ctx.end_formula, ctx.derivation.rule(tau).witness)
    verified = (
        ctx.principal(tau) == ctx.end_id
        and witness < eval_term(ctx.end_formula.bound, ctx.x)
        and eval_literal(instance, ctx.x)
    )
    return WitnessReport(witness, tau, verified, trace)


def extract_witness_pls(ctx: ExtractionContext, max_steps: int | None = None) -> WitnessReport:
    """Run the plain search and read the witness off the solution's goal."""
    inst = build_pls(ctx)
    solution, trace = solve_pls(inst, max_steps)
    tau = rightmost_goal(ctx, ctx.path_of[solution])
    return _report(ctx, tau, trace)


# Nested extraction (npls mode)


def source_condition(ctx: ExtractionContext, sigma: NodePath) -> bool:
    """No proper prefix of sigma is an existential rule with a true instance."""
    return not any(ctx.has_true_goal(sigma[:k]) for k in range(len(sigma)))


def npls_sources(ctx: ExtractionContext, sigma: NodePath) -> bool:
    """Source rows: the root, and value-indexed cut uppers that are clean.

    Clean means the source condition holds and the sequent contains no
    true literal.  The latter is needed for the row to have a target at
    all and holds automatically for every row the search can reach.
    """
    if sigma == ():
        return True
    return (
        ctx.is_left_upper(sigma)
        and source_condition(ctx, sigma)
        and target_condition(ctx, sigma)
    )


def _no_left_upper_between(ctx: ExtractionContext, sigma: NodePath, tau: NodePath) -> bool:
    for k in range(len(sigma) + 1, len(tau)):
        if ctx.is_left_upper(tau[:k]):
            return False
    return True


def npls_targets(ctx: ExtractionContext, sigma: NodePath, tau: NodePath) -> bool:
    """Targets of a source row.

    Either an exists-forall rule at or above sigma with no value-indexed
    cut upper strictly between, or an existential rule with a true
    instance whose principal formula already occurs in sigma's sequent.
    Both kinds must carry no true literal.

    An exists-forall rule that is itself a value-indexed cut upper is a
    target only of its own row.  That node is a row of its own: its
    sequent holds the negated cut instance, which the row below lacks,
    and its subtree is searched from it.  Were it also a target of the
    row below, ``npls_extract`` would lift from it to its exists-forall
    descendants, which that row cannot reach past the cut upper, and the
    lifted point would leave the row's target set.

    This is the path-level definition; ``build_npls`` tabulates the same
    relation for every row at once.
    """
    if not target_condition(ctx, tau):
        return False
    if ctx.is_exists_forall(tau):
        if tau != sigma and ctx.is_left_upper(tau):
            return False
        return (
            len(sigma) <= len(tau)
            and tau[: len(sigma)] == sigma
            and _no_left_upper_between(ctx, sigma, tau)
        )
    if ctx.has_true_goal(tau):
        return ctx.principal(tau) in ctx._seq_members[sigma]
    return False


def npls_cost(ctx: ExtractionContext, tau: NodePath) -> int:
    """Depth complement for exists-forall targets, zero for the rest.

    The neighbor relation moves from an exists-forall rule to a deeper
    one or to a witnessing existential rule, so this assignment makes
    every move strictly cheaper.
    """
    if ctx.is_exists_forall(tau):
        return ctx.d_max - len(tau)
    return 0


def npls_neighbor_rel(
    ctx: ExtractionContext, sigma: NodePath, tau: NodePath, rho: NodePath
) -> bool:
    """The neighbor relation of a row, on its targets.

    An exists-forall target relates to every target that is not an
    exists-forall rule at or below it; a witnessing existential target
    relates only to itself and is thereby a solution of the row.
    """
    if ctx.is_exists_forall(tau):
        if ctx.is_exists_forall(rho):
            return len(tau) < len(rho) and rho[: len(tau)] == tau
        return True
    return tau == rho


def npls_gen_source(ctx: ExtractionContext, sigma: NodePath, tau: NodePath) -> NodePath:
    """The subproblem row spawned by a stuck exists-forall target.

    The principal of tau entered the branch at the final upper of some
    cut; tau's witness value picks that cut's value-indexed upper.  A
    witnessing existential target needs no subproblem and maps back to
    its own row.
    """
    if not ctx.is_exists_forall(tau):
        return sigma
    principal = ctx.principal(tau)
    entry = _entry_point(ctx, tau, principal)
    if entry == ():
        raise EndFormulaPrincipal(
            f"the principal at {format_path(tau)} persists to the end-sequent"
        )
    cut = entry[:-1]
    return cut + (ctx.witness_value(tau),)


def npls_extract(
    ctx: ExtractionContext, sigma: NodePath, tau: NodePath, rho: NodePath
) -> NodePath:
    """Translate a subproblem solution back into a target of the row.

    The subproblem row kappa adds one formula over the cut's lower
    sequent: the negated instance of the cut formula at kappa's index.
    When the solution rho witnesses exactly that formula, its witness
    value names a universal branch of tau on which the instance fails,
    and the goal above that branch is the next target.  Otherwise rho's
    principal already occurs in the original row and rho itself is the
    next target.  A target that is not an exists-forall rule is already
    a solution of its own row and stays put.
    """
    if not ctx.is_exists_forall(tau):
        return tau
    if not (ctx.is_exists(rho) and ctx.has_true_goal(rho)):
        raise NotASolution(f"node {format_path(rho)} does not solve its row")
    principal = ctx.principal(tau)
    entry = _entry_point(ctx, tau, principal)
    if entry == ():
        raise EndFormulaPrincipal(
            f"the principal at {format_path(tau)} persists to the end-sequent"
        )
    cut = entry[:-1]
    rho_principal = ctx.principal(rho)
    if rho_principal in ctx._seq_members[cut]:
        return rho
    # kappa, the row's cut upper, adds the negated cut instance.
    kappa = cut + (ctx.witness_value(tau),)
    if rho_principal != ctx._added[kappa]:
        raise NotASolution(
            f"solution at {format_path(rho)} witnesses neither the row's cut "
            "instance nor an inherited formula"
        )
    branch = tau + (ctx.witness_value(rho),)
    return rightmost_goal(ctx, branch)


def build_npls(ctx: ExtractionContext) -> NplsInstance:
    """The nested search instance of an npls-mode derivation.

    Point ids are post-order indices for rows and targets alike; the
    rank of a row is its own id.  Plain lists by id hold the
    exists-forall flag, the cost and the subtree bound ``ctx.low``, and
    ``row`` builds one row's table from them when it is asked for, so
    a search pays only for the rows it opens.  ``gen_source`` and
    ``extract`` answer a target that is not an exists-forall rule from
    its flag alone.

    The rows realize ``npls_sources``, ``npls_targets`` and
    ``npls_neighbor_rel`` without calling them per pair.  One pass from
    the root down gives each node its owner, the deepest value-indexed
    cut upper at or below it (the root when there is none), and whether
    a witnessing existential rule lies strictly below it.  An
    exists-forall target belongs to exactly one row, its owner; an
    existential target belongs to every row whose sequent holds its
    principal, found through one map from principal to rules.  Building
    takes time linear in the nodes and the sizes of the sequents; a row
    then costs time linear in its targets and edges.
    """
    if ctx.mode != MODE_NPLS:
        raise ModeError("build_npls needs an npls-mode context")
    kb = ctx.kb
    paths = ctx.path_of
    n = ctx.n_nodes
    root = n - 1
    is_ef = [ctx.is_exists_forall(p) for p in paths]
    no_true_lit = [target_condition(ctx, p) for p in paths]
    cost_of = [npls_cost(ctx, p) for p in paths]
    low = ctx.low

    # Parents come after their children in post-order, so a descending
    # scan sees every parent first.
    owner = [root] * n
    below_goal = [False] * n
    source_ids = {root}
    for i in range(n - 2, -1, -1):
        path = paths[i]
        parent = kb[path[:-1]]
        below_goal[i] = below_goal[parent] or ctx.has_true_goal(paths[parent])
        if ctx.is_left_upper(path):
            owner[i] = i
            if no_true_lit[i] and not below_goal[i]:
                source_ids.add(i)
        else:
            owner[i] = owner[parent]
    sources = sorted(source_ids)

    owned: dict[int, list[int]] = {}
    goals_of: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        if not no_true_lit[i]:
            continue
        if is_ef[i]:
            owned.setdefault(owner[i], []).append(i)
        elif ctx.has_true_goal(path):
            goals_of.setdefault(ctx.principal(path), []).append(i)

    def row(s: int) -> dict[int, list[int]] | None:
        if s not in source_ids:
            return None
        # Each rule is listed once: under its owner, or under its principal.
        ts = sorted(
            chain(owned.get(s, ()), *(goals_of.get(f, ()) for f in ctx._seq_members[paths[s]]))
        )
        # The exists-forall targets in low[y]..y-1 are y's descendants;
        # sorting two ascending runs merges them in linear time.
        plain = [t for t in ts if not is_ef[t]]
        ef = [t for t in ts if is_ef[t]]
        return {
            y: sorted(plain + ef[bisect_left(ef, low[y]) : bisect_left(ef, y)])
            if is_ef[y]
            else [y]
            for y in ts
        }

    # A target that is not an exists-forall rule is a solution of its
    # row: it spawns no subproblem and lifts to itself.
    def gen_source(s: int, y: int) -> int:
        if not is_ef[y]:
            return s
        return kb[npls_gen_source(ctx, paths[s], paths[y])]

    def extract(s: int, y: int, z: int) -> int:
        if not is_ef[y]:
            return y
        return kb[npls_extract(ctx, paths[s], paths[y], paths[z])]

    return NplsInstance(
        d=max((n - 1).bit_length(), 1),
        sources=lambda: list(sources),
        row=row,
        initial_source=lambda: root,
        initial_target=lambda s: kb[rightmost_goal(ctx, paths[s])],
        cost=lambda t: cost_of[t],
        gen_source=gen_source,
        extract=extract,
        rank=lambda s: s,
    )


def extract_witness_npls(ctx: ExtractionContext, max_steps: int | None = None) -> WitnessReport:
    """Run the nested search and read the witness off the solution."""
    inst = build_npls(ctx)
    solution, trace = solve_npls(inst, max_steps)
    return _report(ctx, ctx.path_of[solution], trace)
