from __future__ import annotations

import dataclasses
import sys
from collections import Counter

import pytest

from npls.corpus import (
    d1,
    d2,
    d3,
    g1,
    ng2,
    random_sigma1_derivation,
    random_sigma2_derivation,
    t_d2,
    t_d3,
)
from npls.derivation import MODE_NPLS, MODE_PLS, expand_template
from npls.errors import (
    CostViolation,
    DomainTooLarge,
    EmptyTargetSpace,
    InvariantViolation,
    RankViolation,
    StepBudgetExceeded,
)
from npls.extraction import ExtractionContext, build_npls, build_pls
from npls.nested_graph import (
    NestedGraphFamily,
    descent_steps,
    generate_family,
    npls_from_family,
    pls_from_digraph,
)
from npls.search_core import (
    CONDITION_NAMES,
    DESCEND,
    EXTRACT,
    INIT_TARGET,
    RANK0_STEP,
    SOLVED,
    ConditionCheck,
    NplsInstance,
    SearchTrace,
    TraceStep,
    brute_force_npls,
    plain_instance,
    solve_npls,
    solve_pls,
    verify_npls_conditions,
)
from test_acceptance import plain_walk


def _chain(n, initial=None, step=lambda s: max(s - 1, 0)):
    # Node ids are their own costs; everything walks down to 0.
    table = {s: [step(s)] for s in range(n)}
    d = max((n - 1).bit_length(), 1)
    return plain_instance(d, 0, table, n - 1 if initial is None else initial, lambda t: t)


def test_solve_pls_walks_a_chain():
    solution, trace = solve_pls(_chain(8))
    assert solution == 0
    assert trace.targets() == [7, 6, 5, 4, 3, 2, 1, 0]
    assert [s.action for s in trace.steps] == [INIT_TARGET] + [RANK0_STEP] * 6 + [SOLVED]
    trace.check()


def test_solve_pls_identity_case_is_one_step():
    solution, trace = solve_pls(_chain(8, initial=0))
    assert solution == 0
    assert trace.step_count == 1
    assert trace.steps[0].action == SOLVED
    trace.check()


def test_solve_pls_budget():
    with pytest.raises(StepBudgetExceeded):
        solve_pls(_chain(8), max_steps=3)


def test_solve_pls_rejects_infeasible_initial():
    with pytest.raises(InvariantViolation):
        solve_pls(_chain(8, initial=99))


def test_solve_pls_rejects_cost_increase():
    with pytest.raises(CostViolation):
        solve_pls(_chain(8, initial=0, step=lambda s: min(s + 1, 7)))


def test_solve_pls_rejects_infeasible_neighbor():
    with pytest.raises(InvariantViolation):
        solve_pls(_chain(8, step=lambda s: -1))


def test_solve_pls_rejects_a_positive_rank_initial_row():
    inst = dataclasses.replace(_chain(8), rank=lambda s: 1)
    with pytest.raises(RankViolation):
        solve_pls(inst)


def test_digraph_instance_solves_to_the_sink():
    inst = pls_from_digraph(g1())
    solution, trace = solve_pls(inst)
    assert solution == 5
    assert trace.step_count == 3
    assert trace.targets() == [0, 1, 5]


def _fixed_points(inst):
    return {y for y, zs in inst.row(0).items() if zs == [y]}


def test_self_loop_predicate_marks_exactly_the_local_minima():
    assert _fixed_points(pls_from_digraph(g1())) == {5}
    graphs = [g1()] + [generate_family(seed, 0, 8).graph for seed in range(1, 21)]
    for g in graphs:
        nested = npls_from_family(NestedGraphFamily(g, 0))
        # The top problem has problem id 0, so its packed points are node ids.
        loops = {y for y, zs in nested.row(0).items() if y in zs}
        assert _fixed_points(pls_from_digraph(g)) == loops


def test_digraph_neighbor_prefers_the_smallest_id():
    row = pls_from_digraph(g1()).row(0)
    assert row[0] == [1]
    assert row[1] == [5]
    assert row[5] == [5]


def test_trace_check_accepts_the_empty_trace():
    SearchTrace(()).check()


def _step(action, source=0, target=0, rank=0, cost=0):
    step = TraceStep(source, target, rank, cost, action)
    # A step is immutable and equals the plain tuple of its fields.
    with pytest.raises(AttributeError):
        step.cost = cost - 1
    assert step == (source, target, rank, cost, action)
    return step


def test_trace_check_rejects_shape_violations():
    with pytest.raises(InvariantViolation, match="missing row start"):
        SearchTrace((_step(RANK0_STEP),)).check()
    with pytest.raises(InvariantViolation, match="unexpected row start"):
        SearchTrace((_step(INIT_TARGET, cost=5), _step(INIT_TARGET, cost=4))).check()
    with pytest.raises(InvariantViolation, match="did not decrease"):
        SearchTrace((_step(INIT_TARGET, cost=3), _step(RANK0_STEP, cost=3))).check()
    with pytest.raises(InvariantViolation, match="descend into rank"):
        SearchTrace(
            (_step(INIT_TARGET, rank=1, cost=5), _step(DESCEND, source=1, rank=1))
        ).check()
    with pytest.raises(InvariantViolation, match="wrong row after descend"):
        SearchTrace(
            (
                _step(INIT_TARGET, rank=2, cost=5),
                _step(DESCEND, source=1, rank=1),
                _step(INIT_TARGET, source=2, rank=1, cost=3),
            )
        ).check()
    with pytest.raises(InvariantViolation, match="above the row cost"):
        SearchTrace((_step(INIT_TARGET, cost=3), _step(SOLVED, cost=4))).check()
    with pytest.raises(InvariantViolation, match="ends inside an open row"):
        SearchTrace((_step(INIT_TARGET, cost=3),)).check()
    with pytest.raises(InvariantViolation, match="unknown action"):
        SearchTrace((_step(INIT_TARGET, cost=3), _step("warp", cost=1))).check()
    with pytest.raises(InvariantViolation, match="wrong row"):
        SearchTrace(
            (_step(INIT_TARGET, cost=3), _step(RANK0_STEP, source=7, cost=1))
        ).check()


def test_solve_npls_on_the_family_fixture():
    fam = ng2()
    inst = npls_from_family(fam)
    solution, trace = solve_npls(inst)
    trace.check()
    top = inst.initial_source()
    assert solution in inst.row(top)[solution]
    # The top problem has problem id 0, so its packed points are node ids.
    assert top == 0 and 0 <= solution < fam.graph.n_nodes
    assert [solution, solution] in fam.graph.edges
    for step in trace.steps:
        if step.action == DESCEND:
            assert step.rank < fam.rank


def test_solve_npls_rejects_constant_cost():
    inst = dataclasses.replace(npls_from_family(ng2()), cost=lambda t: 7)
    with pytest.raises(CostViolation):
        solve_npls(inst)


def test_solve_npls_rejects_rank_plateau():
    inst = dataclasses.replace(npls_from_family(ng2()), rank=lambda s: 5)
    with pytest.raises(RankViolation):
        solve_npls(inst)


def test_solve_npls_rejects_bad_initial_source():
    inst = dataclasses.replace(npls_from_family(ng2()), initial_source=lambda: 999)
    with pytest.raises(InvariantViolation):
        solve_npls(inst)


def test_brute_force_finds_the_cheapest_target():
    fam = ng2()
    inst = npls_from_family(fam)
    best = brute_force_npls(inst, 0)
    assert fam.graph.costs[best] == min(fam.graph.costs)


def test_brute_force_error_cases():
    inst = npls_from_family(ng2())
    with pytest.raises(EmptyTargetSpace):
        brute_force_npls(dataclasses.replace(inst, row=lambda s: {}), 0)
    with pytest.raises(DomainTooLarge):
        brute_force_npls(dataclasses.replace(inst, d=40), 0)


def test_verify_reports_all_nine_conditions_in_order():
    report = verify_npls_conditions(npls_from_family(ng2()))
    assert [c.name for c in report.checks] == list(CONDITION_NAMES)
    assert report.all_passed
    assert all("pass" in line for line in report.lines())


def test_verify_pinpoints_a_constant_cost():
    inst = dataclasses.replace(npls_from_family(ng2()), cost=lambda t: 7)
    report = verify_npls_conditions(inst)
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"cost_decrease"}
    assert report.check("cost_decrease").counterexample is not None


def test_verify_pinpoints_a_rank_plateau():
    inst = dataclasses.replace(npls_from_family(ng2()), rank=lambda s: 5)
    report = verify_npls_conditions(inst)
    assert not report.check("rank_descent").passed


def test_verify_pinpoints_a_bad_initial_source():
    inst = dataclasses.replace(npls_from_family(ng2()), initial_source=lambda: 1 << 30)
    report = verify_npls_conditions(inst)
    assert not report.check("initial_source").passed


def _tabled_instance(table):
    """A rank-zero instance on 16 points that answers everything from ``table``."""
    return NplsInstance(
        d=4,
        sources=lambda: sorted(table),
        row=lambda s: table.get(s),
        initial_source=lambda: 0,
        initial_target=lambda s: min(table[s]),
        cost=lambda t: t,
        gen_source=lambda s, y: s,
        extract=lambda s, y, z: y,
        rank=lambda s: 0,
    )


def test_verify_walks_every_edge_of_the_rows_table():
    # Target 3 lists 9, which is no target.  Nothing next to 9 is a
    # target, 0 or 15, so only a walk of the neighbor lists finds it.
    report = verify_npls_conditions(_tabled_instance({0: {2: [2], 3: [2, 9]}}))
    domain = report.check("neighbor_domain")
    assert not domain.passed
    assert domain.counterexample == (0, 3, 9)
    assert domain.detail == "neighbor relation leaves the target set"
    assert report.check("rank0_function").counterexample == (0, 3)
    assert {c.name for c in report.checks if not c.passed} == {"neighbor_domain", "rank0_function"}
    assert verify_npls_conditions(_tabled_instance({0: {2: [2], 3: [2]}})).all_passed


@pytest.mark.parametrize("neighbors", [[], [2, 3]])
def test_solve_npls_needs_one_step_per_rank0_target(neighbors):
    # Target 3 opens the row; a step function gives it exactly one neighbor.
    inst = _tabled_instance({0: {2: [2], 3: neighbors}})
    inst = dataclasses.replace(inst, initial_target=lambda s: 3)
    with pytest.raises(InvariantViolation, match=f"lists {len(neighbors)} neighbors"):
        solve_npls(inst)
    assert not verify_npls_conditions(inst).check("rank0_function").passed


def test_rank0_adapter_matches_the_nested_solver():
    # A rank-zero family and the plain digraph both walk G1's descent from node 0.
    g = g1()
    walk = plain_walk(0, 0, descent_steps(g).__getitem__, g.costs.__getitem__)
    assert walk[0] == 5
    for inst in (npls_from_family(NestedGraphFamily(g, 0)), pls_from_digraph(g)):
        y, trace = solve_npls(inst)
        assert (y, trace.steps) == walk


def _rank_chain(k):
    """Rows 0..k-1, each of rank equal to its id.

    Row s holds a stalled target 2s, which spawns row s - 1 and lifts
    to the row's one solution 2s + 1.
    """

    def row(s):
        return {2 * s: [2 * s + 1], 2 * s + 1: [2 * s + 1]} if 0 <= s < k else None

    return NplsInstance(
        d=(2 * k).bit_length(),
        sources=lambda: list(range(k)),
        row=row,
        initial_source=lambda: k - 1,
        initial_target=lambda s: 2 * s,
        cost=lambda t: 1 - t % 2,
        gen_source=lambda s, y: s - 1 if y == 2 * s and s > 0 else s,
        extract=lambda s, y, z: 2 * s + 1,
        rank=lambda s: s,
    )


def test_solve_npls_nests_deeper_than_the_recursion_limit():
    k = 1200
    assert k > sys.getrecursionlimit()
    inst = _rank_chain(k)
    assert verify_npls_conditions(inst).all_passed
    solution, trace = solve_npls(inst)
    trace.check()
    assert solution == 2 * k - 1
    # Each positive-rank row opens, descends, lifts and closes; row 0 opens and closes.
    assert trace.step_count == 4 * (k - 1) + 2


def _lifting_instance(gen, ext):
    """Row 1, of rank 1, holds the solution 2 and the stuck target 3.

    Target 3 spawns row 0, of rank 0, whose one target 6 is a solution,
    and lifts from it to 2.  ``gen`` and ``ext`` tabulate ``gen_source``
    and ``extract``; a lookup they miss raises ``KeyError``.
    """
    inst = _tabled_instance({0: {6: [6]}, 1: {2: [2], 3: [2]}})
    return dataclasses.replace(
        inst,
        initial_source=lambda: 1,
        initial_target=lambda s: max(inst.row(s)),
        gen_source=lambda s, y: gen[(s, y)],
        extract=lambda s, y, z: ext[(s, y, z)],
        rank=lambda s: s,
    )


_GEN = {(1, 3): 0}
_EXT = {(1, 3, 6): 2}


@pytest.mark.parametrize(
    "ext, detail",
    [
        ({(1, 3, 6): 3}, "extracted point 3 is not a neighbor of 3"),
        ({}, "extract failed: KeyError: (1, 3, 6)"),
    ],
)
def test_a_bad_extract_on_a_stuck_target_fails_the_lift(ext, detail):
    report = verify_npls_conditions(_lifting_instance(_GEN, ext))
    lift = report.check("extract_lift")
    assert not lift.passed
    assert lift.counterexample == (1, 3, 6)
    assert lift.detail == detail
    assert {c.name for c in report.checks if not c.passed} == {"extract_lift"}


def test_a_crashing_cost_fails_only_its_own_condition():
    # The lift fails at (1, 3, 6) with or without the crash.
    inst = _lifting_instance(_GEN, {(1, 3, 6): 3})
    costs = {2: 2, 6: 6}
    crashed = verify_npls_conditions(dataclasses.replace(inst, cost=lambda t: costs[t]))
    # Only target 3 steps to another target, so only its cost is asked.
    assert crashed.check("cost_decrease") == ConditionCheck(
        "cost_decrease", False, None, "checker crashed: 3"
    )
    expected = verify_npls_conditions(inst).checks
    assert [c for c in crashed.checks if c.name != "cost_decrease"] == [
        c for c in expected if c.name != "cost_decrease"
    ]
    assert {c.name for c in expected if not c.passed} == {"extract_lift"}


def test_a_crashing_rank_on_a_non_source_fails_the_descent_but_not_the_closure():
    ranks = {0: 0, 1: 1}
    inst = dataclasses.replace(_lifting_instance({(1, 3): 9}, _EXT), rank=lambda s: ranks[s])
    report = verify_npls_conditions(inst)
    assert report.check("rank_descent") == ConditionCheck(
        "rank_descent", False, None, "checker crashed: 9"
    )
    closure = report.check("gen_source_closure")
    assert closure.counterexample == (1, 3)
    assert closure.detail == "gen_source returned non-source 9"
    assert {c.name for c in report.checks if not c.passed} == {
        "gen_source_closure",
        "rank_descent",
    }


@pytest.mark.parametrize(
    "gen, ext",
    [
        # gen_source raises on the solutions 2 and 6.
        (_GEN, _EXT),
        # gen_source leaves the sources on solution 2.
        ({**_GEN, (1, 2): 9}, _EXT),
        # Solution 2 spawns row 0, and extract raises on its solution 6.
        ({**_GEN, (1, 2): 0}, _EXT),
        # ... or lifts it to a point that 2 does not list.
        ({**_GEN, (1, 2): 0}, {**_EXT, (1, 2, 6): 3}),
    ],
)
def test_gen_source_and_extract_are_not_asked_about_solutions(gen, ext):
    # The solver never lifts from a target that lists itself, so the
    # closure and lift conditions do not quantify over one.
    inst = _lifting_instance(gen, ext)
    assert verify_npls_conditions(inst).all_passed
    solution, trace = solve_npls(inst)
    trace.check()
    assert solution == 2
    assert [s.action for s in trace.steps] == [INIT_TARGET, DESCEND, SOLVED, EXTRACT, SOLVED]


def _lift_pairs(inst):
    """Pairs of a stuck target of a positive-rank row and a solution of its generated row."""
    pairs = 0
    for s in inst.sources():
        if inst.rank(s) == 0:
            continue
        for y, zs in inst.row(s).items():
            if y not in zs:
                child = inst.row(inst.gen_source(s, y))
                pairs += sum(z in child[z] for z in child)
    return pairs


def test_the_lift_calls_extract_once_per_stuck_target_and_solution():
    inst = build_npls(ExtractionContext(expand_template(t_d3(), 100), MODE_NPLS))
    calls = 0
    extract = inst.extract

    def counted(s, y, z):
        nonlocal calls
        calls += 1
        return extract(s, y, z)

    assert verify_npls_conditions(dataclasses.replace(inst, extract=counted)).all_passed
    # Pairing every target, solutions included, would make 1,071,816 calls.
    assert calls == _lift_pairs(inst) == 204


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_npls(ExtractionContext(expand_template(t_d3(), 100), MODE_NPLS)),
        lambda: npls_from_family(ng2()),
        lambda: npls_from_family(generate_family(3, 3, 4)),
    ],
    ids=["T-D3 at x=100", "NG2", "rank-3 family"],
)
def test_verify_asks_gen_source_once_per_stuck_target(build):
    inst = build()
    calls = Counter()
    gen_source = inst.gen_source

    def counted(s, y):
        calls[(s, y)] += 1
        return gen_source(s, y)

    assert verify_npls_conditions(dataclasses.replace(inst, gen_source=counted)).all_passed
    stuck = [(s, y) for s in inst.sources() for y, zs in inst.row(s).items() if y not in zs]
    assert calls == Counter(stuck)


def _broad_closure_and_lift(inst):
    """Closure and lift over every target, solutions included, as pass/fail."""
    sources = set(inst.sources())
    closure = lift = True
    for s in sources:
        for y, zs in inst.row(s).items():
            try:
                child = inst.gen_source(s, y)
            except Exception:  # noqa: BLE001
                child = None
            if child not in sources:
                closure = False
            elif inst.rank(s) > 0:
                sub = inst.row(child)
                for z in (z for z in sub if z in sub[z]):
                    try:
                        lift = lift and inst.extract(s, y, z) in zs
                    except Exception:  # noqa: BLE001
                        lift = False
    return closure, lift


def _produced_instances():
    for seed in range(60):
        yield build_pls(ExtractionContext(random_sigma1_derivation(seed), MODE_PLS))
        yield build_npls(ExtractionContext(random_sigma2_derivation(seed), MODE_NPLS))
    for x in (0, 1, 3, 7):
        yield build_pls(ExtractionContext(expand_template(t_d2(), x), MODE_PLS))
        yield build_npls(ExtractionContext(expand_template(t_d3(), x), MODE_NPLS))
    for seed in range(1, 21):
        for rank in range(4):
            yield npls_from_family(generate_family(seed, rank, 3))
    yield build_pls(ExtractionContext(d1(), MODE_PLS))
    yield build_pls(ExtractionContext(d2(), MODE_PLS))
    yield build_npls(ExtractionContext(d3(), MODE_NPLS))
    yield npls_from_family(ng2())
    yield pls_from_digraph(g1())


def test_narrowed_closure_and_lift_agree_with_every_target_on_produced_instances():
    # Narrowing the two conditions to stuck targets changes no verdict on
    # an instance the package builds.
    for inst in _produced_instances():
        report = verify_npls_conditions(inst)
        narrowed = (report.check("gen_source_closure").passed, report.check("extract_lift").passed)
        assert narrowed == _broad_closure_and_lift(inst)


def _ng2_instance():
    # Row 0 (rank 2) is {0: [2, 3], 1: [2], 2: [2], 3: [1, 2]} with costs
    # 3, 1, 0, 2; its stuck target 0 spawns row 1, {4: [5], 5: [5]}.
    return npls_from_family(ng2())


def _g1_instance():
    # One rank-0 row 0 over targets 0..5, in a point space of 2**3.
    return pls_from_digraph(g1())


def _fails(name, counterexample, detail):
    return ConditionCheck(name, False, counterexample, detail)


@pytest.mark.parametrize(
    "build, edit, want",
    [
        (
            _ng2_instance,
            lambda inst: {"d": 21},
            (verify_npls_conditions, DomainTooLarge, "point space 2^21 exceeds the limit"),
        ),
        (
            _g1_instance,
            lambda inst: {"sources": lambda: [8], "row": lambda s: inst.row(0)},
            _fails("bit_bound", (8,), "a source lies beyond the bit bound"),
        ),
        (
            _g1_instance,
            lambda inst: {"d": 2},
            _fails("bit_bound", (0, 4), "a target lies beyond the bit bound"),
        ),
        (
            _ng2_instance,
            lambda inst: {"gen_source": lambda s, y: {}[(s, y)]},
            _fails("gen_source_closure", (0, 0), "gen_source failed: KeyError: (0, 0)"),
        ),
        (
            _ng2_instance,
            lambda inst: {"gen_source": lambda s, y: {}[(s, y)]},
            _fails("rank_descent", (0, 0), "gen_source failed: KeyError: (0, 0)"),
        ),
        (
            _ng2_instance,
            lambda inst: {"initial_source": lambda: {}["top"]},
            _fails("initial_source", (), "initial_source failed: KeyError: 'top'"),
        ),
        (
            _ng2_instance,
            lambda inst: {"initial_target": lambda s: {}[s]},
            _fails("initial_target", (0,), "initial_target failed: KeyError: 0"),
        ),
        (
            # Row 1 lifts to its solution 5; row 0 then lifts target 0 to
            # the cheaper target 1, which 0 does not list.
            _ng2_instance,
            lambda inst: {"extract": lambda s, y, z: {0: 1, 1: 5}[s]},
            (solve_npls, InvariantViolation, "extracted point 1 is not a neighbor of 0 in row 0"),
        ),
        (
            _ng2_instance,
            lambda inst: {"gen_source": lambda s, y: 99},
            (solve_npls, InvariantViolation, "generated source 99 is not a source"),
        ),
    ],
    ids=[
        "domain too large",
        "source beyond the bit bound",
        "target beyond the bit bound",
        "gen_source raises, closure",
        "gen_source raises, descent",
        "initial_source raises",
        "initial_target raises",
        "extract leaves the neighbors",
        "gen_source leaves the sources",
    ],
)
def test_each_failure_names_its_condition_counterexample_and_detail(build, edit, want):
    inst = build()
    inst = dataclasses.replace(inst, **edit(inst))
    if isinstance(want, ConditionCheck):
        assert verify_npls_conditions(inst).check(want.name) == want
        return
    run, error, message = want
    with pytest.raises(error) as raised:
        run(inst)
    assert str(raised.value) == message
