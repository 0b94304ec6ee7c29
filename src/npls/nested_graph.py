"""Cost-decreasing digraphs and nested graph families.

A costed digraph assigns each node a natural cost; every edge between
distinct nodes must strictly decrease the cost, so the only cycles a
conforming graph can contain are trivial ones (self-loops).  Sinks,
nodes with no edge to a distinct node, are exactly the local minima
and are reached from every start by following edges.

A nested family stacks such graphs: each node of a positive-rank
problem may be backed by a child problem of strictly smaller rank, and
a stored table translates any solution of the child (one of its
trivial cycles) into an outgoing edge of the backing node.  Families
are the combinatorial model of the nested search.  A digraph has one
form, the ``DigraphTable`` that files decode to and the generator and
the fixtures build; a family file decodes to its flat ``FamilyTable``,
while the generator builds ``NestedGraphFamily`` objects, which compile
through that table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, NamedTuple

from .errors import (
    CostConditionViolated,
    InvariantViolation,
    TotalityViolated,
)
from .search_core import NplsInstance, plain_instance


class DigraphTable(NamedTuple):
    """A finite digraph with one natural cost per node.

    ``edges`` holds ``[s, t]`` pairs in any order.  The decoder checks
    that each edge end is a node and that there is one cost per node; a
    decoded table holds the document's own lists.
    """

    n_nodes: int
    edges: list[list[int]]
    costs: list[int]


def check_cost_condition(g: DigraphTable) -> None:
    """Raise unless every edge between distinct nodes lowers the cost; name the least that fails."""
    raising = [(s, t) for s, t in g.edges if s != t and g.costs[s] <= g.costs[t]]
    if raising:
        s, t = min(raising)
        raise CostConditionViolated(f"edge ({s},{t}) has costs {g.costs[s]} -> {g.costs[t]}")


def descent_steps(g: DigraphTable) -> list[int]:
    """The descent step function of a costed digraph, as a table by node id.

    Each node steps to its smallest-id strictly cheaper successor, or
    to itself when it has none; its fixed points are therefore the
    local minima.  One pass over the edges fills the table.
    """
    return _descent(g.n_nodes, g.edges, g.costs)[0]


def _descent(n_nodes: int, edges, costs) -> tuple[list[int], bool]:
    """The step table, and whether every edge between distinct nodes lowers the cost."""
    step = list(range(n_nodes))
    conforms = True
    for s, t in edges:
        if costs[t] < costs[s]:
            if step[s] == s or t < step[s]:
                step[s] = t
        elif s != t:
            conforms = False
    return step, conforms


def pls_from_digraph(g: DigraphTable) -> NplsInstance:
    """View a costed digraph as a plain local search instance.

    The instance has one rank-zero source row, 0, whose targets are the
    node ids, each listing its entry of the descent step function; its
    costs are the node costs.  Solving follows the smallest-id
    cost-decreasing edge from node 0 until it reaches a node with no
    cheaper successor.  One walk over the edges fills the step function
    and checks the cost condition, which makes every walk terminate;
    only when it fails does ``check_cost_condition`` run, to name the
    first edge that fails it in sorted order.
    """
    n, edges, costs = g.n_nodes, g.edges, g.costs
    step, conforms = _descent(n, edges, costs)
    if not conforms:
        check_cost_condition(g)
    table = {v: [t] for v, t in enumerate(step)}
    d = max((n - 1).bit_length(), 1)
    return plain_instance(d, 0, table, 0, lambda t: costs[t])


@dataclass(frozen=True)
class NestedGraphFamily:
    """One problem of a nested family, with its children attached.

    ``children`` maps a node id to the backing subproblem and
    ``solution_to_edge`` maps (node, solution node of its child) to the
    successor the solution points at.  The search never reads the
    children of a rank-zero problem.  The generator and the fixtures build
    these, as does the decoder's item walk to name a bad value; files decode to tables.
    """

    graph: DigraphTable
    rank: int
    children: Mapping[int, "NestedGraphFamily"] = field(default_factory=dict)
    solution_to_edge: Mapping[tuple[int, int], int] = field(default_factory=dict)


class FamilyTable(NamedTuple):
    """A family as lists with one entry per problem, in preorder, children by node."""

    n_nodes: list[int]
    edges: list[list]
    costs: list[list[int]]
    ranks: list[int]
    children: list[dict[int, int]]  # node -> the id of its child problem
    solutions: list[Mapping[tuple[int, int], int]]  # as in ``solution_to_edge``


def family_table(fam: NestedGraphFamily) -> FamilyTable:
    """The table of an object family; a child shared by two nodes maps to its later id."""
    problems, stack = [], [fam]
    while stack:
        f = stack.pop()
        problems.append(f)
        stack.extend(f.children[node] for node in sorted(f.children, reverse=True))
    pid_of = {id(p): i for i, p in enumerate(problems)}
    return FamilyTable(
        [p.graph.n_nodes for p in problems],
        [list(map(list, sorted(p.graph.edges))) for p in problems],
        [list(p.graph.costs) for p in problems],
        [p.rank for p in problems],
        [{node: pid_of[id(c)] for node, c in p.children.items()} for p in problems],
        [p.solution_to_edge for p in problems],
    )


def npls_from_family(fam: NestedGraphFamily) -> NplsInstance:
    """Compile an object family: ``npls_from_table`` of its ``family_table``."""
    return npls_from_table(family_table(fam))


def npls_from_table(table: FamilyTable) -> NplsInstance:
    """Compile a family table into a nested search instance.

    Point ids pack a problem id and a node id into fixed bit fields; a
    source is a bare problem id and a target is a packed pair.  The row
    of a problem is built from its edges when it is asked for: on rank
    zero each node lists the one node its descent step function picks,
    the cheapest-by-id decreasing successor or itself, and on positive
    ranks each node lists its edges.  Compiling checks only that every
    node has some outgoing edge, which keeps the step functions total.

    ``extract`` reads the solution table alone and raises
    InvariantViolation on a pair it lacks.  The solver and the verifier
    ask it only about stuck targets, and a self-looped node of a
    positive-rank row lists itself, so it is a solution, never stuck,
    and needs no translation.

    Cost conformance and rank relationships are not enforced, so a
    deliberately broken family still compiles and its defects surface
    as failed conditions in ``verify_npls_conditions``, the one family
    checker.  A rank-zero edge that does not decrease the cost is no
    descent step, so no row holds it; ``check_cost_condition`` on the
    graph is what sees it.
    """
    ns, edges, costs, ranks, children, solutions = table
    n_problems = len(ns)
    node_bits = max((max(ns) - 1).bit_length(), 1)
    pid_bits = max((n_problems - 1).bit_length(), 1)
    node_mask = (1 << node_bits) - 1

    for i, (n, es) in enumerate(zip(ns, edges)):
        has_out = set(map(itemgetter(0), es))
        if not has_out.issuperset(range(n)):
            s = next(s for s in range(n) if s not in has_out)
            raise TotalityViolated(f"problem {i}: node {s} has no outgoing edge")

    # Problem s owns the ids (s << node_bits) .. (s << node_bits) + n_nodes - 1.
    def row(s: int) -> dict[int, list[int]] | None:
        if not 0 <= s < n_problems:
            return None
        base = s << node_bits
        if ranks[s] == 0:
            step = _descent(ns[s], edges[s], costs[s])[0]
            return {base + v: [base + t] for v, t in enumerate(step)}
        out: list[list[int]] = [[] for _ in range(ns[s])]
        for a, b in sorted(set(map(tuple, edges[s]))):
            out[a].append(base + b)
        return {base + v: zs for v, zs in enumerate(out)}

    def gen_source(s: int, y: int) -> int:
        return children[s].get(y & node_mask, s)

    def extract(s: int, y: int, z: int) -> int:
        node, sol = y & node_mask, z & node_mask
        to_edge = solutions[s]
        if (node, sol) in to_edge:
            return (s << node_bits) | to_edge[(node, sol)]
        raise InvariantViolation(f"no translation for solution {sol} at node {node} of {s}")

    return NplsInstance(
        d=pid_bits + node_bits,
        sources=lambda: list(range(n_problems)),
        row=row,
        initial_source=lambda: 0,
        initial_target=lambda s: s << node_bits,
        cost=lambda t: costs[t >> node_bits][t & node_mask],
        gen_source=gen_source,
        extract=extract,
        rank=lambda s: ranks[s] if 0 <= s < n_problems else 0,
    )


# The generator's supported range of nesting depth and problem size.
MAX_RANK = 4
MAX_WIDTH = 16


def generate_family(seed: int, max_rank: int, max_width: int) -> NestedGraphFamily:
    """Draw a random conforming family, deterministically from the seed.

    The top problem has exactly ``max_width`` nodes and rank
    ``max_rank``; every node of a positive-rank problem is backed by a
    child one rank lower.  Costs within a problem are a shuffled range,
    hence distinct.  Edges only ever point at cheaper nodes, each local
    minimum gets its trivial cycle, and rank-zero problems keep at most
    one outgoing edge per node so their descent is a chain.
    """
    if not 0 <= max_rank <= MAX_RANK:
        raise ValueError(f"max_rank must lie in 0..{MAX_RANK}")
    if not 1 <= max_width <= MAX_WIDTH:
        raise ValueError(f"max_width must lie in 1..{MAX_WIDTH}")
    rng = random.Random(seed)

    def build(rank: int, width: int) -> NestedGraphFamily:
        n = width
        costs = list(range(n))
        rng.shuffle(costs)
        edges: set[tuple[int, int]] = set()
        for s in range(n):
            cheaper = [t for t in range(n) if costs[t] < costs[s]]
            if rank == 0:
                if cheaper and rng.random() < 0.8:
                    edges.add((s, rng.choice(cheaper)))
                else:
                    edges.add((s, s))
            else:
                picked = [t for t in cheaper if rng.random() < 0.6]
                if picked:
                    edges.update((s, t) for t in picked)
                else:
                    edges.add((s, s))
        graph = DigraphTable(n, [list(e) for e in sorted(edges)], costs)
        if rank == 0:
            return NestedGraphFamily(graph, 0)
        children: dict[int, NestedGraphFamily] = {}
        table: dict[tuple[int, int], int] = {}
        for s in range(n):
            child_width = max_width if max_width == 1 else rng.randint(2, max_width)
            child = build(rank - 1, child_width)
            children[s] = child
            solutions = sorted({a for (a, b) in child.graph.edges if a == b})
            out = sorted(t for (a, t) in edges if a == s and t != s)
            for sol in solutions:
                table[(s, sol)] = rng.choice(out) if out else s
        return NestedGraphFamily(graph, rank, children, table)

    return build(max_rank, max_width)
