"""Local search instances, the nested solver and the condition checker.

The paper's nested local search problem is a family, uniform in a
natural number parameter x.  Here that uniformity lives in
``DerivationTemplate``: ``expand_template`` fixes x before any instance
exists, so an instance is one member of the family, at one x.  It has
source rows, each with its own target set, a neighbor relation on those
targets, an initial row and target, and a cost function.  All points
are naturals below ``2**d`` for the instance's bit bound ``d``, so the
whole point space is enumerable at desk scale.  A target that is its
own neighbor is a solution of its row.

Rows carry a rank.  On a rank zero row the neighbor relation is the
graph of a step function and the search is plain descent.  On a
positive rank row a stuck target is handed to a freshly generated
source of strictly smaller rank; the solution of that subproblem is
translated back into a strictly cheaper target of the original row.
Nine checkable conditions make this recursion total.  A plain local
search problem is the rank zero case with one row: its targets are the
feasible points and each lists its step, so ``solve_npls`` solves it
with the descent it runs on every rank zero row.  An instance states
its relation once, as one table per source row that maps each target
to its neighbors; the solver reads the rows it opens.
``verify_npls_conditions`` fetches every row once and splits it into
its solutions and its stuck targets, asking ``gen_source`` once per
stuck target; each of the nine conditions is a scan over that split,
which walks every row edge by edge, and a scan that raises reports
``checker crashed``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    CostViolation,
    DomainTooLarge,
    EmptyTargetSpace,
    InvariantViolation,
    RankViolation,
    StepBudgetExceeded,
)

PointId = int

# The largest point space that the oracle and the verifier will enumerate.
DOMAIN_LIMIT = 1 << 20


def _lists(ids: list[PointId], t: PointId) -> bool:
    """Membership in an ascending id list."""
    i = bisect_left(ids, t)
    return i < len(ids) and ids[i] == t


@dataclass(frozen=True)
class NplsInstance:
    """One member, at one x, of a nested local search family.

    The paper's family is uniform in x; that uniformity lives in
    ``DerivationTemplate``, which is expanded at x before an instance is
    built, so no callable here takes x.  Every point id is below
    ``2**d``.  ``sources()`` lists the source rows in ascending order of
    id, and ``row(s)`` tabulates one of them: a dict whose keys are the
    row's target ids in ascending order, each mapped to the ascending
    list of its neighbors.  It returns None when ``s`` is not a source.
    A target that lists itself is a solution of its row; on a rank-zero
    row every target lists exactly one neighbor, its step.
    ``gen_source`` and ``extract`` realize the descent into and the
    return from a subproblem.  ``plain_instance`` builds the one-row,
    rank-zero case.
    """

    d: int
    sources: Callable[[], list[PointId]]
    row: Callable[[PointId], dict[PointId, list[PointId]] | None]
    initial_source: Callable[[], PointId]
    initial_target: Callable[[PointId], PointId]
    cost: Callable[[PointId], int]
    gen_source: Callable[[PointId, PointId], PointId]
    extract: Callable[[PointId, PointId, PointId], PointId]
    rank: Callable[[PointId], int]


def plain_instance(
    d: int,
    source: PointId,
    table: dict[PointId, list[PointId]],
    initial: PointId,
    cost: Callable[[PointId], int],
) -> NplsInstance:
    """A plain local search problem as a one-row, rank-zero instance.

    ``table`` is the row ``source``: it maps each feasible point to the
    one-element list of its step, and a point that steps to itself is a
    solution.  The search starts at ``initial``; ``gen_source`` and
    ``extract`` are the identity.
    """
    return NplsInstance(
        d=d,
        sources=lambda: [source],
        row=lambda s: table if s == source else None,
        initial_source=lambda: source,
        initial_target=lambda s: initial,
        cost=cost,
        gen_source=lambda s, y: s,
        extract=lambda s, y, z: y,
        rank=lambda s: 0,
    )


# Traces

INIT_TARGET = "init-target"
RANK0_STEP = "rank0-step"
DESCEND = "descend"
EXTRACT = "extract"
SOLVED = "solved"


class TraceStep(NamedTuple):
    """One step of a search trace: ``(source, target, rank, cost, action)``.

    An immutable named tuple, so it compares equal to a plain tuple of
    the same values; ``action`` is one of the five constants above.
    """

    source: PointId
    target: PointId
    rank: int
    cost: int
    action: str


@dataclass(frozen=True)
class SearchTrace:
    steps: tuple[TraceStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def targets(self) -> list[PointId]:
        return [s.target for s in self.steps]

    def check(self) -> None:
        """Replay the trace and enforce its two shape invariants.

        Within one visit of a source row the recorded costs strictly
        decrease until the closing solved step, and every descend step
        enters a row of strictly smaller rank than the row it leaves.
        A descend step records the child row in its rank field and the
        stalled target of the parent row in its target field.
        """
        stack: list[list] = []  # [source, rank, last_cost]
        expect_init: PointId | None = None
        for i, step in enumerate(self.steps):
            if expect_init is not None or not stack:
                # A row opens with its initial target; a walk that is
                # born solved opens and closes in one solved step.
                if step.action not in (INIT_TARGET, SOLVED):
                    raise InvariantViolation(f"step {i}: missing row start")
                if expect_init is not None and step.source != expect_init:
                    raise InvariantViolation(f"step {i}: wrong row after descend")
                if step.action == INIT_TARGET:
                    stack.append([step.source, step.rank, step.cost])
                expect_init = None
                continue
            if step.action == INIT_TARGET:
                raise InvariantViolation(f"step {i}: unexpected row start")
            row = stack[-1]
            if step.action == DESCEND:
                if step.rank >= row[1]:
                    raise InvariantViolation(
                        f"step {i}: descend into rank {step.rank} from rank {row[1]}"
                    )
                expect_init = step.source
                continue
            if step.source != row[0]:
                raise InvariantViolation(f"step {i}: step charged to the wrong row")
            if step.action in (RANK0_STEP, EXTRACT):
                if step.cost >= row[2]:
                    raise InvariantViolation(f"step {i}: cost did not decrease")
                row[2] = step.cost
                continue
            if step.action == SOLVED:
                if step.cost > row[2]:
                    raise InvariantViolation(f"step {i}: solved above the row cost")
                stack.pop()
                continue
            raise InvariantViolation(f"step {i}: unknown action {step.action!r}")
        if stack or expect_init is not None:
            raise InvariantViolation("trace ends inside an open row")


def _default_budget(inst: NplsInstance) -> int:
    # Generous but finite: the point space is 2^d, costs live below it.
    return 1 << (inst.d + 2)


def _spend(steps: list[TraceStep], budget: int) -> None:
    if len(steps) >= budget:
        raise StepBudgetExceeded(f"search exceeded {budget} steps")


def _initial_target(
    inst: NplsInstance, s: PointId, row: dict[PointId, list[PointId]]
) -> PointId:
    y = inst.initial_target(s)
    if y not in row:
        raise InvariantViolation(f"initial target {y} is not a target of row {s}")
    return y


def _descend(
    inst: NplsInstance,
    s: PointId,
    row: dict[PointId, list[PointId]],
    steps: list[TraceStep],
    budget: int,
) -> PointId:
    """Plain descent on a rank-zero row, from its initial target to a fixed point.

    Every target lists exactly one neighbor, its step.  Each visited
    target is one trace step and the fixed point is marked solved.  A
    step that leaves the row or does not cost less raises at once, so
    strict cost decrease alone bounds the walk.
    """
    y = _initial_target(inst, s, row)
    cost_y = inst.cost(y)
    action = INIT_TARGET
    while True:
        _spend(steps, budget)
        zs = row[y]
        if len(zs) != 1:
            raise InvariantViolation(
                f"rank-0 target {y} of row {s} lists {len(zs)} neighbors, not one"
            )
        z = zs[0]
        if z == y:
            steps.append(TraceStep(s, y, 0, cost_y, SOLVED))
            return y
        if z not in row:
            raise InvariantViolation(f"rank-0 step left the targets of row {s}")
        cost_z = inst.cost(z)
        if cost_z >= cost_y:
            raise CostViolation(f"rank-0 step {y} -> {z} did not decrease cost")
        steps.append(TraceStep(s, y, 0, cost_y, action))
        action = RANK0_STEP
        y, cost_y = z, cost_z


def solve_pls(inst: NplsInstance, max_steps: int | None = None) -> tuple[PointId, SearchTrace]:
    """``solve_npls`` on an instance whose initial row must have rank zero.

    A plain problem is the one-row, rank-zero case of a nested one, so
    plain search is the nested search that opens no subproblem.
    """
    rank = inst.rank(inst.initial_source())
    if rank != 0:
        raise RankViolation(f"plain search needs a rank-0 initial row, not rank {rank}")
    return solve_npls(inst, max_steps)


def solve_npls(inst: NplsInstance, max_steps: int | None = None) -> tuple[PointId, SearchTrace]:
    """Run the nested search from the initial source row.

    Each row is fetched once, when the search opens it.  Rank-zero rows
    run plain descent.  On a positive-rank row a target that does not
    list itself spawns a subproblem via ``gen_source``; its solution is
    pushed back through ``extract``.  The open positive-rank rows form
    an explicit stack, so nesting depth is bounded by the step budget,
    not by Python's recursion limit.  Returns the solving target of the
    initial row together with the full trace: the loop ends only once
    that row closes, on a target that lists itself, or, at rank zero,
    on ``_descend``'s fixed point, so the result needs no closing check.
    """
    budget = _default_budget(inst) if max_steps is None else max_steps
    steps: list[TraceStep] = []
    # One [source, row, rank, current target] per open positive-rank row.
    stack: list[list] = []
    s = inst.initial_source()
    row = inst.row(s)
    if row is None:
        raise InvariantViolation("initial source is not a source")
    while True:
        # Open row s: a rank-zero row is solved at once, into z; any
        # other row is pushed with its initial target.
        rank = inst.rank(s)
        if rank == 0:
            z = _descend(inst, s, row, steps, budget)
        else:
            y = _initial_target(inst, s, row)
            _spend(steps, budget)
            steps.append(TraceStep(s, y, rank, inst.cost(y), INIT_TARGET))
            stack.append([s, row, rank, y])
            z = None
        # Lift z into the innermost open row, and close rows while their
        # target is a solution; stop at the first one that needs a subproblem.
        while stack:
            frame = stack[-1]
            s, row, rank, y = frame
            if z is not None:
                y2 = inst.extract(s, y, z)
                if y2 not in row:
                    raise InvariantViolation(f"extracted point {y2} left the targets of row {s}")
                if y2 != y:
                    if inst.cost(y2) >= inst.cost(y):
                        raise CostViolation(f"extract {y} -> {y2} did not decrease cost")
                    if not _lists(row[y], y2):
                        raise InvariantViolation(
                            f"extracted point {y2} is not a neighbor of {y} in row {s}"
                        )
                    _spend(steps, budget)
                    steps.append(TraceStep(s, y2, rank, inst.cost(y2), EXTRACT))
                y = frame[3] = y2
            if not _lists(row[y], y):
                break
            _spend(steps, budget)
            steps.append(TraceStep(s, y, rank, inst.cost(y), SOLVED))
            stack.pop()
            z = y
        else:
            # Every open row has closed, so z solves the initial row.
            break
        child = inst.gen_source(s, y)
        child_row = inst.row(child)
        if child_row is None:
            raise InvariantViolation(f"generated source {child} is not a source")
        child_rank = inst.rank(child)
        if child_rank >= rank:
            raise RankViolation(f"subproblem rank {child_rank} does not drop below {rank}")
        _spend(steps, budget)
        steps.append(TraceStep(child, y, child_rank, inst.cost(y), DESCEND))
        s, row = child, child_row
    return z, SearchTrace(tuple(steps))


def brute_force_npls(inst: NplsInstance, s: PointId) -> PointId:
    """The minimum-cost target of a source row, by full enumeration.

    This is the totality oracle: a minimum-cost target is always a
    solution of its row when the nine conditions hold.  It tests every
    point of the space against the row, so ``DOMAIN_LIMIT`` bounds its
    work.  Ties break toward the smallest id.
    """
    space = 1 << inst.d
    if space > DOMAIN_LIMIT:
        raise DomainTooLarge(f"point space 2^{inst.d} exceeds the limit")
    row = inst.row(s) or {}
    best: PointId | None = None
    best_cost = -1
    for t in range(space):
        if t in row:
            c = inst.cost(t)
            if best is None or c < best_cost:
                best, best_cost = t, c
    if best is None:
        raise EmptyTargetSpace(f"source row {s} has no targets")
    return best


# Condition checking


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    counterexample: tuple | None = None
    detail: str = ""

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = ""
        if not self.passed:
            extra = f"  at {self.counterexample}" if self.counterexample else ""
            if self.detail:
                extra += f"  ({self.detail})"
        return f"{self.name:<18} {status}{extra}"


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        return [c.render() for c in self.checks]


CONDITION_NAMES = (
    "bit_bound",
    "gen_source_closure",
    "neighbor_domain",
    "rank0_function",
    "rank_descent",
    "extract_lift",
    "initial_source",
    "initial_target",
    "cost_decrease",
)


def verify_npls_conditions(inst: NplsInstance) -> ConditionReport:
    """Test the nine nested-search conditions by enumeration.

    One pass fetches every listed source row and splits it into its
    solutions, the targets that list themselves, and its stuck targets,
    the rest, each paired with the answer of one ``gen_source`` call.
    The solver hands only stuck targets to ``gen_source`` and
    ``extract``, so the three conditions on those two maps quantify over
    stuck targets alone, and ``gen_source`` is asked once per stuck
    target.  Each condition is then a scan over that split, reading
    targets and neighbors in ascending order of id, and reports its
    first failure in scan order; a scan that raises reports ``checker
    crashed`` and no counterexample.  The work is linear in the targets
    plus the edges rather than in the point space, plus one ``extract``
    call per pair of a stuck target and a solution of its generated row.
    The relation lives only in the rows, so the bit bound checks the ids
    the table holds.  Every tuple a condition quantifies over is
    checked, not a sample:

    - ``bit_bound``: every source, and every target of every row;
    - ``gen_source_closure``: every stuck target of every row;
    - ``neighbor_domain``: every (row, target, neighbor) edge;
    - ``rank0_function``: every target of a rank-zero row;
    - ``rank_descent``: every stuck target of a positive-rank row;
    - ``extract_lift``: every stuck target of a positive-rank row, times
      every solution of the row ``gen_source`` gives it;
    - ``initial_source``: the initial source;
    - ``initial_target``: every row's initial target;
    - ``cost_decrease``: every edge from a target to another target of
      its row.
    """
    space = 1 << inst.d
    if space > DOMAIN_LIMIT:
        raise DomainTooLarge(f"point space 2^{inst.d} exceeds the limit")

    def guarded(fn, *args):
        try:
            return fn(*args), None
        except Exception as exc:  # noqa: BLE001 - verifier reports, never raises
            return None, f"{type(exc).__name__}: {exc}"

    sources = inst.sources()
    source_set = set(sources)
    # Source -> (row, solutions, [(stuck target, gen_source answer, its error)]).
    split: dict[PointId, tuple] = {}
    for s in sources:
        row = inst.row(s)
        solutions = [y for y, zs in row.items() if _lists(zs, y)]
        loops = set(solutions)
        split[s] = row, solutions, [
            (y, *guarded(inst.gen_source, s, y)) for y in row if y not in loops
        ]

    def bit_bound():
        for s, (row, _, _) in split.items():
            if s >= space:
                yield (s,), "a source lies beyond the bit bound"
            for t in row:
                if t >= space:
                    yield (s, t), "a target lies beyond the bit bound"

    def gen_source_closure():
        for s, (_, _, stuck) in split.items():
            for y, child, err in stuck:
                if err is not None:
                    yield (s, y), f"gen_source failed: {err}"
                elif child not in source_set:
                    yield (s, y), f"gen_source returned non-source {child}"

    def neighbor_domain():
        for s, (row, _, _) in split.items():
            for y, zs in row.items():
                for z in zs:
                    if z not in row:
                        yield (s, y, z), "neighbor relation leaves the target set"

    def rank0_function():
        for s, (row, _, _) in split.items():
            if inst.rank(s) == 0:
                for y, zs in row.items():
                    if len(zs) != 1:
                        yield (s, y), f"target lists {len(zs)} neighbors, not exactly one"

    def rank_descent():
        for s, (_, _, stuck) in split.items():
            r = inst.rank(s)
            if r == 0:
                continue
            for y, child, err in stuck:
                if err is not None:
                    yield (s, y), f"gen_source failed: {err}"
                elif inst.rank(child) >= r:
                    yield (s, y), f"subproblem rank {inst.rank(child)} >= {r}"

    def extract_lift():
        for s, (row, _, stuck) in split.items():
            if inst.rank(s) == 0:
                continue
            for y, child, err in stuck:
                if err is not None or child not in source_set:
                    continue  # a failing gen_source is reported by gen_source_closure
                neighbors = set(row[y])
                for z in split[child][1]:
                    got, err = guarded(inst.extract, s, y, z)
                    if err is not None:
                        yield (s, y, z), f"extract failed: {err}"
                    elif got not in neighbors:
                        yield (s, y, z), f"extracted point {got} is not a neighbor of {y}"

    def initial_source():
        got, err = guarded(inst.initial_source)
        if err is not None:
            yield (), f"initial_source failed: {err}"
        elif got not in source_set:
            yield (got,), "initial source is not a source"

    def initial_target():
        for s, (row, _, _) in split.items():
            got, err = guarded(inst.initial_target, s)
            if err is not None:
                yield (s,), f"initial_target failed: {err}"
            elif got not in row:
                yield (s, got), "initial target is not a target of its row"

    def cost_decrease():
        for s, (row, _, _) in split.items():
            for y, zs in row.items():
                moves = [z for z in zs if z != y and z in row]
                if moves:
                    cost_y = inst.cost(y)
                    for z in moves:
                        if cost_y <= inst.cost(z):
                            yield (s, y, z), "neighbor step does not decrease cost"

    scans = (
        bit_bound, gen_source_closure, neighbor_domain, rank0_function, rank_descent,
        extract_lift, initial_source, initial_target, cost_decrease,
    )
    checks = []
    for name, scan in zip(CONDITION_NAMES, scans):
        try:
            bad = next(scan(), None)
        except Exception as exc:  # noqa: BLE001
            checks.append(ConditionCheck(name, False, None, f"checker crashed: {exc}"))
        else:
            checks.append(ConditionCheck(name, bad is None, *(bad or ())))
    return ConditionReport(tuple(checks))
