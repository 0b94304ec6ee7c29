"""The nine conditions make the nested search total.

This is the package's half of the paper's claim: an instance that meets
the nine conditions has a solution, ``solve_npls`` reaches one, and the
minimum-cost target of the initial row is one.  Instances come from two
sources: generated families with one or two random field mutations, and
small tabulated instances whose rows, ``gen_source`` and ``extract``
tables are drawn directly, which reach shapes families cannot.  Most
draws fail some condition; the property speaks only of those that pass.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from npls.errors import TotalityViolated
from npls.nested_graph import generate_family, npls_from_family
from npls.search_core import (
    NplsInstance,
    brute_force_npls,
    solve_npls,
    verify_npls_conditions,
)


def _assert_total_when_conditions_hold(inst: NplsInstance) -> None:
    if not verify_npls_conditions(inst).all_passed:
        event("a condition fails")
        return
    top = inst.initial_source()
    row = inst.row(top)
    event(f"conditions hold, initial rank {inst.rank(top)}")
    solution, trace = solve_npls(inst, max_steps=10**6)
    assert solution in row[solution]
    trace.check()
    best = brute_force_npls(inst, top)
    assert best in row[best]


# Mutated families

_FIELDS = ("cost", "add_edge", "drop_edge", "rank", "solution_edge", "drop_child")


def _with_problem(fam, k, change):
    """``fam`` with its ``k``-th problem in preorder replaced by ``change(problem)``."""
    seen = 0

    def walk(p):
        nonlocal seen
        i = seen
        seen += 1
        children = {node: walk(child) for node, child in sorted(p.children.items())}
        p = replace(p, children=children)
        return change(p) if i == k else p

    return walk(fam)


def _count_problems(fam) -> int:
    return 1 + sum(_count_problems(c) for c in fam.children.values())


def _mutate(draw, p):
    g = p.graph
    n = g.n_nodes
    node = st.integers(0, n - 1)
    field = draw(st.sampled_from(_FIELDS))
    if field == "cost":
        costs = list(g.costs)
        costs[draw(node)] = draw(st.integers(0, n))
        return replace(p, graph=g._replace(costs=costs))
    if field == "add_edge":
        edge = [draw(node), draw(node)]
        edges = g.edges if edge in g.edges else sorted(g.edges + [edge])
        return replace(p, graph=g._replace(edges=edges))
    if field == "drop_edge" and g.edges:
        gone = draw(st.sampled_from(g.edges))
        return replace(p, graph=g._replace(edges=[e for e in g.edges if e != gone]))
    if field == "rank":
        return replace(p, rank=draw(st.integers(0, 3)))
    if field == "solution_edge" and p.solution_to_edge:
        table = dict(p.solution_to_edge)
        table[draw(st.sampled_from(sorted(table)))] = draw(node)
        return replace(p, solution_to_edge=table)
    if field == "drop_child" and p.children:
        gone = draw(st.sampled_from(sorted(p.children)))
        return replace(p, children={k: c for k, c in p.children.items() if k != gone})
    return p


@st.composite
def mutated_families(draw):
    fam = generate_family(
        draw(st.integers(0, 10**6)), draw(st.integers(0, 2)), draw(st.integers(1, 5))
    )
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, _count_problems(fam) - 1))
        fam = _with_problem(fam, k, lambda p: _mutate(draw, p))
    return fam


@settings(max_examples=120, deadline=None)
@given(mutated_families())
def test_mutated_families_that_meet_the_conditions_are_solved(fam):
    try:
        inst = npls_from_family(fam)
    except TotalityViolated:
        event("rejected at compile time")
        return
    _assert_total_when_conditions_hold(inst)


# Small tabulated instances

_D = 4
_POINT = st.integers(0, (1 << _D) - 1)


def _pick(draw, choices, wild):
    """One of ``choices``; in a ``wild`` table, sometimes any point at all."""
    if choices and not (wild and draw(st.booleans())):
        return draw(st.sampled_from(choices))
    return draw(_POINT)


@st.composite
def tabulated_instances(draw):
    sources = sorted(draw(st.sets(_POINT, min_size=1, max_size=3)))
    rank = {s: draw(st.integers(0, 2)) for s in sources}
    cost = draw(st.lists(st.integers(0, 7), min_size=1 << _D, max_size=1 << _D))
    rows: dict[int, dict[int, list[int]]] = {}
    for s in sources:
        targets = sorted(draw(st.sets(_POINT, min_size=1, max_size=6)))
        row = {}
        for y in targets:
            # Mostly cheaper targets or y itself, so that some draws
            # pass cost_decrease; any target of the row otherwise.
            pool = [t for t in targets if cost[t] < cost[y]] + [y]
            if not draw(st.integers(0, 3)):
                pool = targets
            size = 1 if rank[s] == 0 and draw(st.integers(0, 7)) else draw(st.integers(0, 3))
            picked = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
            row[y] = sorted(set(picked))
        rows[s] = row
    # Each of the last four tables is wild, with points drawn from
    # anywhere, in one draw out of eight.
    wild = draw(st.lists(st.integers(0, 7), min_size=4, max_size=4))
    # The solver and the verifier call ``gen_source`` and ``extract``
    # only on targets that do not list themselves, and ``extract`` only
    # on solutions of the generated row, so the tables list those alone
    # and any other lookup raises ``KeyError``.
    gen = {}
    for s in sources:
        lower = [t for t in sources if rank[t] < rank[s]]
        for y, zs in rows[s].items():
            if y not in zs:
                gen[(s, y)] = _pick(draw, lower or sources, not wild[0])
    ext = {}
    for (s, y), child in gen.items():
        for z, zs in rows.get(child, {}).items():
            if z in zs:
                ext[(s, y, z)] = _pick(draw, rows[s][y], not wild[1])
    initial = {s: _pick(draw, list(rows[s]), not wild[2]) for s in sources}
    top = _pick(draw, sources, not wild[3])
    return NplsInstance(
        d=_D,
        sources=lambda: list(sources),
        row=lambda s: rows.get(s),
        initial_source=lambda: top,
        initial_target=lambda s: initial[s],
        cost=lambda t: cost[t],
        gen_source=lambda s, y: gen[(s, y)],
        extract=lambda s, y, z: ext[(s, y, z)],
        rank=lambda s: rank.get(s, 0),
    )


@settings(max_examples=120, deadline=None)
@given(tabulated_instances())
def test_tabulated_instances_that_meet_the_conditions_are_solved(inst):
    _assert_total_when_conditions_hold(inst)
