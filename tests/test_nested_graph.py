from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from npls import serialization
from npls.cli import main
from npls.corpus import g1, ng2
from npls.errors import CostConditionViolated, FormatError, TotalityViolated
from npls.nested_graph import (
    DigraphTable,
    NestedGraphFamily,
    check_cost_condition,
    descent_steps,
    generate_family,
    npls_from_family,
    pls_from_digraph,
)
from npls.search_core import (
    solve_npls,
    verify_npls_conditions,
)
from npls.serialization import dumps, family_to_json


def _digraph_errors(doc) -> list[str]:
    """The messages of decoding ``doc`` as a document and of its item walk alone."""
    messages = []
    walk = serialization._digraph_walk
    for decode in (serialization.document_from_json, lambda d: walk(d, "digraph")):
        with pytest.raises(FormatError) as info:
            decode(doc)
        messages.append(str(info.value))
    return messages


def test_digraph_walk_checks_the_cost_count_and_edge_ends():
    message = "digraph: one cost per node required"
    assert _digraph_errors({"n": 2, "edges": [], "costs": [1]}) == [message] * 2
    message = "digraph: edge (0,5) leaves the node range"
    assert _digraph_errors({"n": 2, "edges": [[0, 5]], "costs": [1, 0]}) == [message] * 2


@pytest.mark.parametrize(
    "edges, bad",
    [
        # In sorted order, not in the document's: (0,-1) before (2,0).
        ([[0, 1], [2, 0], [0, -1]], "(0,-1)"),
        ([[0, -1], [5, 0]], "(0,-1)"),
        ([[1, 0], [1, 1], [0, 2]], "(0,2)"),
    ],
)
def test_digraph_names_the_first_edge_out_of_range(edges, bad):
    message = f"digraph: edge {bad} leaves the node range"
    assert _digraph_errors({"n": 2, "edges": edges, "costs": [1, 0]}) == [message] * 2


def test_cost_condition():
    check_cost_condition(g1())
    with pytest.raises(CostConditionViolated):
        check_cost_condition(DigraphTable(2, [[0, 1]], [0, 1]))
    # A self-loop never violates the condition.
    check_cost_condition(DigraphTable(1, [[0, 0]], [5]))


def _sink_from(g, start):
    """The end of cost descent from ``start``: a node with no cheaper successor."""
    step = descent_steps(g)
    while step[start] != start:
        start = step[start]
    return start


def test_find_sink_on_the_fixture():
    g = g1()
    assert _sink_from(g, 0) == 5
    assert _sink_from(g, 3) == 5
    assert _sink_from(g, 5) == 5
    assert solve_npls(pls_from_digraph(g))[0] == 5


def test_find_sink_rejects_nonconforming_costs():
    with pytest.raises(CostConditionViolated):
        pls_from_digraph(DigraphTable(2, [[0, 1]], [0, 1]))


def test_find_sink_lands_in_a_sink_everywhere():
    # The rank-0 generator produces conforming graphs by construction.
    graphs = [g1()] + [generate_family(seed, 0, 8).graph for seed in range(1, 21)]
    for g in graphs:
        for start in range(g.n_nodes):
            end = _sink_from(g, start)
            assert all(g.costs[t] >= g.costs[end] for s, t in g.edges if s == end)
        # The plain solver walks the same descent from node 0.
        assert solve_npls(pls_from_digraph(g))[0] == _sink_from(g, 0)


def test_generated_rank0_graphs_are_deterministic_chains():
    for seed in range(1, 11):
        g = generate_family(seed, 0, 8).graph
        out_degree = Counter(s for s, _ in g.edges)
        assert all(out_degree[s] == 1 for s in range(g.n_nodes))


def test_pls_from_digraph_keeps_only_decreasing_edges():
    # Node 0 steps to 1, not to the cheaper 2; a self-loop is never a step.
    g = DigraphTable(3, [[0, 2], [0, 1], [1, 2], [2, 2]], [3, 1, 0])
    inst = pls_from_digraph(g)
    assert inst.row(0) == {0: [1], 1: [2], 2: [2]}


def _failed(fam):
    """The failing conditions of a compiled family, with their counterexamples."""
    report = verify_npls_conditions(npls_from_family(fam))
    return {c.name: c.counterexample for c in report.checks if not c.passed}


def test_verify_accepts_the_fixture_families():
    assert _failed(ng2()) == {}
    assert _failed(NestedGraphFamily(g1(), 0)) == {}


def _loop_graph():
    return DigraphTable(2, [[0, 1], [1, 1]], [1, 0])


def test_verify_flags_a_cost_violation_on_a_positive_rank():
    # Node 0 steps to the dearer node 1; its child's solution lifts along that edge.
    g = DigraphTable(2, [[0, 1], [1, 1]], [0, 1])
    fam = NestedGraphFamily(g, 1, {0: NestedGraphFamily(_loop_graph(), 0)}, {(0, 1): 1})
    assert _failed(fam) == {"cost_decrease": (0, 0, 1)}


def test_verify_flags_rank_inversions():
    grandchildren = {0: NestedGraphFamily(_loop_graph(), 0), 1: NestedGraphFamily(_loop_graph(), 0)}
    child = NestedGraphFamily(_loop_graph(), 1, grandchildren)
    fam = NestedGraphFamily(_loop_graph(), 1, {0: child, 1: NestedGraphFamily(_loop_graph(), 0)})
    assert _failed(fam)["rank_descent"] == (0, 0)


def test_verify_flags_unbacked_nodes():
    # Node 0 has neither a child problem nor a self-loop.
    fam = NestedGraphFamily(_loop_graph(), 1, {1: NestedGraphFamily(_loop_graph(), 0)})
    assert _failed(fam)["rank_descent"] == (0, 0)


def test_verify_flags_broken_solution_tables():
    # The child is shared, so it is problem 2 and its solution 1 is point 5.
    child = NestedGraphFamily(_loop_graph(), 0)
    fam = NestedGraphFamily(_loop_graph(), 1, {0: child, 1: child}, {(0, 1): 0, (1, 1): 1})
    report = verify_npls_conditions(npls_from_family(fam))
    assert _failed(fam) == {"extract_lift": (0, 0, 5)}
    assert report.check("extract_lift").detail == "extracted point 0 is not a neighbor of 0"

    # Without a table entry, extract has no translation to give.
    fam = NestedGraphFamily(_loop_graph(), 1, {0: child, 1: child}, {})
    report = verify_npls_conditions(npls_from_family(fam))
    assert _failed(fam) == {"extract_lift": (0, 0, 5)}
    assert "no translation for solution 1 at node 0" in report.check("extract_lift").detail


def test_npls_from_family_requires_outgoing_edges():
    fam = NestedGraphFamily(DigraphTable(2, [[0, 1]], [1, 0]), 0)
    with pytest.raises(TotalityViolated):
        npls_from_family(fam)


def test_dead_ends_are_rejected_and_missing_loops_are_implicit():
    # A node without an outgoing edge stops compilation, naming the node.
    dead_end = NestedGraphFamily(DigraphTable(2, [[0, 1]], [1, 0]), 0)
    with pytest.raises(TotalityViolated, match="problem 0: node 1 has no outgoing edge"):
        npls_from_family(dead_end)
    # A graph without self-loops is no fault: the cheapest node has no
    # strictly cheaper successor and rests on itself.
    loopless = NestedGraphFamily(DigraphTable(2, [[0, 1], [1, 0]], [1, 0]), 0)
    inst = npls_from_family(loopless)
    assert inst.row(0) == {0: [1], 1: [1]}
    assert verify_npls_conditions(inst).all_passed


def _unopened_dead_end(dead_end: bool) -> NestedGraphFamily:
    """A rank-1 family whose node 1 is backed by a problem the search never opens.

    Node 0's child solves at once and lifts node 0 to node 1, which
    rests on its self-loop, so ``solve`` never asks for problem 2, the
    child of node 1.  With ``dead_end``, node 1 of that child has no
    outgoing edge.
    """
    loop = NestedGraphFamily(DigraphTable(1, [[0, 0]], [0]), 0)
    edges = [[0, 0]] if dead_end else [[0, 0], [1, 1]]
    unopened = NestedGraphFamily(DigraphTable(2, edges, [0, 1]), 0)
    top = DigraphTable(2, [[0, 1], [1, 1]], [1, 0])
    return NestedGraphFamily(top, 1, {0: loop, 1: unopened}, {(0, 0): 1})


def test_totality_is_checked_on_problems_the_search_never_opens(tmp_path, capsys):
    inst = npls_from_family(_unopened_dead_end(False))
    opened = []

    def row(s):
        opened.append(s)
        return inst.row(s)

    assert solve_npls(dataclasses.replace(inst, row=row))[0] == 1
    assert opened == [0, 1]

    message = "problem 2: node 1 has no outgoing edge"
    with pytest.raises(TotalityViolated, match=message):
        npls_from_family(_unopened_dead_end(True))
    path = tmp_path / "dead-end.json"
    path.write_text(dumps(family_to_json(_unopened_dead_end(True))), encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: TotalityViolated: {message}\n"


def test_rank0_step_needs_a_strictly_cheaper_successor():
    # Families are compiled without a cost check; an edge between equal
    # costs is not a descent step, so node 0 rests on itself.
    fam = NestedGraphFamily(DigraphTable(2, [[0, 1], [1, 1]], [1, 1]), 0)
    inst = npls_from_family(fam)
    assert inst.row(0) == {0: [0], 1: [1]}


def test_broken_costs_compile_and_fail_the_condition_check():
    fam = ng2()
    g = fam.graph
    costs = list(g.costs)
    costs[costs.index(0)] = 99
    bad = NestedGraphFamily(
        DigraphTable(g.n_nodes, g.edges, costs),
        fam.rank,
        fam.children,
        fam.solution_to_edge,
    )
    report = verify_npls_conditions(npls_from_family(bad))
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"cost_decrease"}
    assert report.check("cost_decrease").counterexample == (0, 0, 2)


def test_top_problem_points_are_node_ids():
    fam = ng2()
    inst = npls_from_family(fam)
    solution, _ = solve_npls(inst)
    assert inst.initial_source() == 0
    assert solution in inst.row(0)
    assert 0 <= solution < fam.graph.n_nodes


def test_generate_family_shape_pins():
    fam = generate_family(3, 2, 5)
    assert fam.rank == 2
    assert fam.graph.n_nodes == 5
    assert set(fam.children) == set(range(5))
    for child in fam.children.values():
        assert child.rank == 1
        assert set(child.children) == set(range(child.graph.n_nodes))


def test_generate_family_is_deterministic_and_seed_sensitive():
    a = dumps(family_to_json(generate_family(7, 2, 4)))
    b = dumps(family_to_json(generate_family(7, 2, 4)))
    c = dumps(family_to_json(generate_family(8, 2, 4)))
    assert a == b
    assert a != c
    assert a == dumps(family_to_json(ng2()))


def test_generate_family_bounds():
    for bad in ((5, 4), (-1, 4), (2, 0), (2, 17)):
        with pytest.raises(ValueError):
            generate_family(1, *bad)


def test_generated_families_conform():
    for seed in range(1, 11):
        fam = generate_family(seed, 2, 4)
        # Rank-zero edges are invisible to the verifier, which reads
        # only descent steps there, so every graph is checked directly.
        stack = [fam]
        while stack:
            f = stack.pop()
            check_cost_condition(f.graph)
            stack.extend(f.children.values())
        report = verify_npls_conditions(npls_from_family(fam))
        assert report.all_passed, [c.name for c in report.checks if not c.passed]
