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
    NodePath,
    format_path,
    validate,
)
from .errors import GoalNotFound, ModeError, NotASolution, ValidationFailed
from .search_core import NplsInstance, SearchTrace, plain_instance, solve_npls
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
    """A validated derivation with the node facts the compilers read.

    Construction validates the derivation in the requested mode.  A
    refused derivation raises ModeError when its formulas or rules do
    not fit the mode at all, and ValidationFailed otherwise.  Every mode
    violation is also a validation issue (a class check, a principal of
    the wrong shape, a cut the mode does not admit), so the mode walk
    runs only on refusal.

    The context reads validation's ``FormulaTable`` as it stands, by
    post-order id: ``kb`` maps a path to its id and ``path_of`` back,
    and ``parent``, ``children``, ``rule``, ``members`` (each sequent's
    id set), ``added_id`` (the id each child adds), ``witness`` and
    ``principal_id`` are the table's lists under these names.  No
    formula is normalized, and no witness or initial literal evaluated,
    again.  The path-level definitions below convert a path with ``kb``
    where they need a fact.

    Derived here, by id: ``is_ef`` for exists-forall rules,
    ``left_upper`` for the value-indexed cut uppers (all but a cut's
    last), ``low``, the smallest id in the node's subtree, which is
    exactly ``low[i]..i``, ``true_lit`` for sequents holding a true
    literal, ``true_goal`` for existential rules whose witnessing
    instance holds, and ``goal``, each node's ``rightmost_goal`` (None
    where there is none).  A child's sequent is its parent's plus the
    formula it adds, so it holds a true literal exactly when its parent
    does or that formula is one; each distinct literal that validation
    did not evaluate is evaluated once.  ``d_max`` exceeds the deepest
    node by one, so exists-forall targets always cost at least one.
    """

    def __init__(self, derivation: Derivation, mode: str):
        if mode not in (MODE_PLS, MODE_NPLS):
            raise ValueError(f"unknown mode {mode!r}")
        report = validate(derivation, mode)
        if not report.ok:
            self._check_mode(derivation, mode)
            raise ValidationFailed(
                "derivation is invalid: " + "; ".join(report.lines()[:3]), report
            )
        self.mode = mode
        self.x = derivation.end_x

        root = derivation.sequent(())
        if len(root) != 1 or not isinstance(root[0], ExistsLit):
            raise ValidationFailed(
                "the end-sequent must consist of one bounded existential formula"
            )
        self.end_formula: ExistsLit = root[0]
        table = report.table
        self.end_id = table.intern(root[0])
        self.kb = table.kb
        self.path_of = paths = table.paths
        self.parent = parent = table.parent
        self.rule = rules = table.rule
        self.children = table.children
        self.members = table.members
        self.added_id = added_id = table.added
        self.witness = table.witness
        self.principal_id = table.principal
        self.n_nodes = n = len(paths)
        self.d_max = derivation.depth() + 1
        self.is_ef = is_ef = [isinstance(r, ExistsForallRule) for r in rules]
        # Node id -> its children's ids, and -> the result of
        # ``selected_upper``, each filled in on first need.
        self._kids: dict[int, list[int]] = {}
        self._selected: dict[int, int | None] = {}
        self.left_upper = left_upper = [False] * n
        self.low = low = list(range(n))
        # Children come before their parent in post-order, and the root
        # comes last, so a child's ``low`` is final when it reaches the
        # parent.  A node's last child is the id just below it.
        for i in range(n - 1):
            up = parent[i]
            low[up] = min(low[up], low[i])
            if isinstance(rules[up], CutRule):
                left_upper[i] = i != up - 1

        # Truth of each distinct formula id: validation's for the initial
        # literals, the rest evaluated on first need.  A quantified
        # formula is never a true literal.
        normal = table.formulas()
        truth = dict(table.truth)

        def holds(fid: int) -> bool:
            got = truth.get(fid)
            if got is None:
                f = normal[fid]
                got = truth[fid] = isinstance(f, LitFormula) and eval_literal(f.lit, self.x)
            return got

        # The root's one formula is existential.  Parents come after
        # their children, so a descending scan sees every parent first;
        # an existential rule's goal is the literal its one child adds.
        self.true_lit = true_lit = [False] * n
        self.true_goal = true_goal = [False] * n
        for i in range(n - 2, -1, -1):
            up = parent[i]
            if isinstance(rules[up], ExistsRule):
                true_goal[up] = holds(added_id[i])
                true_lit[i] = true_lit[up] or true_goal[up]
            else:
                true_lit[i] = true_lit[up] or holds(added_id[i])

        # An ascending scan sees a node's last child first; a leaf is its
        # own ``low``.
        self.goal = goal = [None] * n
        for i in range(n):
            if true_goal[i] or is_ef[i]:
                goal[i] = i
            elif low[i] != i:
                goal[i] = goal[i - 1]

    @staticmethod
    def _check_mode(d: Derivation, mode: str) -> None:
        # The node's path is formatted only for the node that fails.
        for path, node in d.nodes.items():
            if mode == MODE_PLS:
                if isinstance(node.rule, ExistsForallRule) or any(
                    classify(f) > 1 for f in node.sequent
                ):
                    raise ModeError(
                        f"exists-forall material needs npls mode at {format_path(path)}"
                    )
                if isinstance(node.rule, CutRule) and not isinstance(
                    node.rule.formula, ExistsLit
                ):
                    raise ModeError(
                        f"pls mode admits cuts on bounded existentials only at {format_path(path)}"
                    )
            else:
                if isinstance(node.rule, CutRule) and not isinstance(
                    node.rule.formula, ExistsForall
                ):
                    raise ModeError(
                        "npls mode admits cuts on exists-forall formulas only"
                        f" at {format_path(path)}"
                    )

    # Node predicates

    def is_exists_forall(self, path: NodePath) -> bool:
        return self.is_ef[self.kb[path]]

    def has_true_goal(self, path: NodePath) -> bool:
        """True on existential rules whose witnessing instance holds."""
        return self.true_goal[self.kb[path]]

    def principal(self, path: NodePath) -> int:
        """The formula id of an existential or exists-forall rule's principal."""
        return self.principal_id[self.kb[path]]

    def witness_value(self, path: NodePath) -> int:
        return self.witness[self.kb[path]]

    def is_left_upper(self, path: NodePath) -> bool:
        """True on the value-indexed uppers of a cut (all but the last)."""
        return self.left_upper[self.kb[path]]

    # Node facts by id

    def child(self, i: int, k: int) -> int:
        """The id of node ``i``'s child ``k``.

        The last child is ``i - 1``, and each earlier sibling ends just
        below the ``low`` of the next.
        """
        kids = self._kids.get(i)
        if kids is None:
            low = self.low
            kids, c = [], i - 1
            while c >= low[i]:
                kids.append(c)
                c = low[c] - 1
            kids.reverse()
            self._kids[i] = kids
        return kids[k]

    def selected_upper(self, tau: int) -> int | None:
        """``_selected_upper`` by id, for a goal ``tau``.

        The entry point is found by walking ``parent`` while the parent's
        sequent holds tau's principal; sequents grow upward, so that is
        the shortest prefix holding it.  Below the root it is a cut's
        final upper, and validation keeps tau's witness value below the
        cut's bound, so the selected child exists.
        """
        got = self._selected.get(tau, -1)
        if got == -1:
            f, entry = self.principal_id[tau], tau
            parent, members, root = self.parent, self.members, self.n_nodes - 1
            while entry != root and f in members[parent[entry]]:
                entry = parent[entry]
            got = None if entry == root else self.child(parent[entry], self.witness[tau])
            self._selected[tau] = got
        return got


def target_condition(ctx: ExtractionContext, path: NodePath) -> bool:
    """No literal in the sequent at ``path`` evaluates to true."""
    return not ctx.true_lit[ctx.kb[path]]


def rightmost_goal(ctx: ExtractionContext, path: NodePath) -> NodePath:
    """The lowest goal on the rightmost branch at or above ``path``.

    Goals are existential rules with a true witnessing instance and
    exists-forall rules, which only npls mode admits.  On input
    satisfying the target condition a goal always exists: the branch
    ends in an initial leaf whose true literal must have been introduced
    on the way, and the rule introducing it qualifies.
    """
    current = path
    while True:
        if ctx.has_true_goal(current):
            return current
        if ctx.is_exists_forall(current):
            return current
        count = ctx.children[ctx.kb[current]]
        if count == 0:
            raise GoalNotFound(
                f"no witnessing rule on the rightmost branch above {format_path(path)}"
            )
        current = current + (count - 1,)


def _entry_point(ctx: ExtractionContext, path: NodePath, formula: int) -> NodePath:
    """Shortest prefix of ``path`` whose sequent contains the formula.

    ``formula`` is an id of the context's formula table, and each prefix
    is probed in its id set ``ctx.members``.  The one caller passes a
    goal's own principal, which lies in the goal's own sequent, so some
    prefix always contains it.
    """
    members, kb = ctx.members, ctx.kb
    return next(path[:k] for k in range(len(path) + 1) if formula in members[kb[path[:k]]])


def _selected_upper(ctx: ExtractionContext, tau: NodePath) -> NodePath | None:
    """The value-indexed cut upper that the goal ``tau`` selects, if any.

    The principal of tau entered the branch at the final upper of some
    cut, and tau's witness value picks that cut's value-indexed upper.
    None when the principal persists to the end-sequent instead, which
    only an existential goal's can, the end-formula being one.
    """
    entry = _entry_point(ctx, tau, ctx.principal(tau))
    if entry == ():
        return None
    return entry[:-1] + (ctx.witness_value(tau),)


# Plain extraction (pls mode)


def pls_neighbor(ctx: ExtractionContext, sigma: NodePath) -> NodePath:
    """One step of the plain search; fixed points are solutions.

    The goal above sigma witnesses its principal formula.  If that
    formula is the end-formula, sigma solves the instance.  Otherwise
    it entered at the final upper of a cut, and the goal's witness
    value, which validation keeps below the cut's bound, picks a
    value-indexed upper of that cut strictly earlier in post-order.
    That index is the cost, so the solver and the verifier check the
    descent on every instance.
    """
    kappa = _selected_upper(ctx, rightmost_goal(ctx, sigma))
    return sigma if kappa is None else kappa


def build_pls(ctx: ExtractionContext) -> NplsInstance:
    """The plain search instance of a pls-mode derivation.

    Point ids are post-order indices, so the cost function is the
    identity.  The instance has one rank-zero source row, the root,
    whose targets are the feasible points: the root and the
    value-indexed cut uppers whose sequents contain no true literal.
    Each target lists its ``pls_neighbor``, which is itself exactly on
    the solutions.  The step is read off the context's ``goal`` and
    ``selected_upper`` by id: a feasible point holds no true literal, so
    its rightmost branch, which ends in a true initial literal, reaches
    the goal that introduced it.
    """
    if ctx.mode != MODE_PLS:
        raise ModeError("build_pls needs a pls-mode context")
    goal = ctx.goal
    root = ctx.n_nodes - 1

    def step(s: int) -> int:
        kappa = ctx.selected_upper(goal[s])
        return s if kappa is None else kappa

    # The root comes last in post-order and is no cut upper.
    feasible = [i for i in range(root) if ctx.left_upper[i] and not ctx.true_lit[i]]
    table = {s: [step(s)] for s in feasible + [root]}

    d = max((ctx.n_nodes - 1).bit_length(), 1)
    return plain_instance(d, root, table, root, lambda t: t)


def _report(ctx: ExtractionContext, tau: int, trace: SearchTrace) -> WitnessReport:
    # tau is the id of a pls goal or of an npls target that lists itself,
    # so in both modes an existential rule.
    witness = ctx.witness[tau]
    instance = exists_instance(ctx.end_formula, ctx.rule[tau].witness)
    verified = (
        ctx.principal_id[tau] == ctx.end_id
        and witness < eval_term(ctx.end_formula.bound, ctx.x)
        and eval_literal(instance, ctx.x)
    )
    return WitnessReport(witness, ctx.path_of[tau], verified, trace)


def extract_witness_pls(ctx: ExtractionContext, max_steps: int | None = None) -> WitnessReport:
    """Run the plain search and read the witness off the solution's goal.

    The plain instance has one rank-zero row, so ``solve_npls`` runs
    plain descent on it.  Every target's step was read off its goal, so
    the solution has one.
    """
    solution, trace = solve_npls(build_pls(ctx), max_steps)
    return _report(ctx, ctx.goal[solution], trace)


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
        return ctx.principal(tau) in ctx.members[ctx.kb[sigma]]
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

    It is the cut upper that ``_selected_upper`` picks for tau, which is
    never None for an exists-forall rule.  A witnessing existential
    target needs no subproblem and maps back to its own row.
    """
    if not ctx.is_exists_forall(tau):
        return sigma
    return _selected_upper(ctx, tau)


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
    if not ctx.has_true_goal(rho):
        raise NotASolution(f"node {format_path(rho)} does not solve its row")
    kappa = npls_gen_source(ctx, sigma, tau)
    rho_principal = ctx.principal(rho)
    if rho_principal in ctx.members[ctx.kb[kappa[:-1]]]:
        return rho
    # kappa, the row's cut upper, adds the negated cut instance.
    if rho_principal != ctx.added_id[ctx.kb[kappa]]:
        raise NotASolution(
            f"solution at {format_path(rho)} witnesses neither the row's cut "
            "instance nor an inherited formula"
        )
    branch = tau + (ctx.witness_value(rho),)
    return rightmost_goal(ctx, branch)


def build_npls(ctx: ExtractionContext) -> NplsInstance:
    """The nested search instance of an npls-mode derivation.

    Point ids are post-order indices for rows and targets alike; the
    rank of a row is its own id.  The context's lists by id hold the
    node facts, a list here holds the cost, and ``row`` builds one row's
    table from them when it is asked for, so a search pays only for the
    rows it opens.  ``gen_source``, ``extract`` and ``initial_target``
    answer from the same lists and the context's ``selected_upper``, and
    realize ``npls_gen_source``, ``npls_extract`` and ``rightmost_goal``.
    Where one of those raises (a point that solves nothing, a branch with
    no goal), the instance calls it, so it raises the same exception.
    An exists-forall target always has a selected upper: validation
    admits it only with a principal that entered its branch at a cut's
    final upper.

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
    is_ef, true_lit, true_goal, low = ctx.is_ef, ctx.true_lit, ctx.true_goal, ctx.low
    members, principal, goal = ctx.members, ctx.principal_id, ctx.goal
    cost_of = [ctx.d_max - len(p) if ef else 0 for p, ef in zip(paths, is_ef)]

    # Parents come after their children in post-order, so a descending
    # scan sees every parent first.
    owner = [root] * n
    below_goal = [False] * n
    source_ids = {root}
    for i in range(n - 2, -1, -1):
        up = ctx.parent[i]
        below_goal[i] = below_goal[up] or true_goal[up]
        if ctx.left_upper[i]:
            owner[i] = i
            if not true_lit[i] and not below_goal[i]:
                source_ids.add(i)
        else:
            owner[i] = owner[up]
    sources = sorted(source_ids)

    owned: dict[int, list[int]] = {}
    goals_of: dict[int, list[int]] = {}
    for i in range(n):
        if true_lit[i]:
            continue
        if is_ef[i]:
            owned.setdefault(owner[i], []).append(i)
        elif true_goal[i]:
            goals_of.setdefault(principal[i], []).append(i)

    def row(s: int) -> dict[int, list[int]] | None:
        if s not in source_ids:
            return None
        # Each rule is listed once: under its owner, or under its principal.
        ts = sorted(chain(owned.get(s, ()), *(goals_of.get(f, ()) for f in members[s])))
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

    def gen_source(s: int, y: int) -> int:
        return ctx.selected_upper(y) if is_ef[y] else s

    def extract(s: int, y: int, z: int) -> int:
        if not is_ef[y]:
            return y
        kappa = ctx.selected_upper(y) if true_goal[z] else None
        if kappa is not None:
            f = principal[z]
            if f in members[ctx.parent[kappa]]:
                return z
            if f == ctx.added_id[kappa]:
                got = goal[ctx.child(y, ctx.witness[z])]
                if got is not None:
                    return got
        return kb[npls_extract(ctx, paths[s], paths[y], paths[z])]

    def initial_target(s: int) -> int:
        got = goal[s]
        return kb[rightmost_goal(ctx, paths[s])] if got is None else got

    return NplsInstance(
        d=max((n - 1).bit_length(), 1),
        sources=lambda: list(sources),
        row=row,
        initial_source=lambda: root,
        initial_target=initial_target,
        cost=lambda t: cost_of[t],
        gen_source=gen_source,
        extract=extract,
        rank=lambda s: s,
    )


def extract_witness_npls(ctx: ExtractionContext, max_steps: int | None = None) -> WitnessReport:
    """Run the nested search and read the witness off the solution."""
    inst = build_npls(ctx)
    solution, trace = solve_npls(inst, max_steps)
    return _report(ctx, solution, trace)
