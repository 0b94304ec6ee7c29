from __future__ import annotations

import pytest

from npls.corpus import (
    d1,
    d2,
    d3,
    random_sigma1_derivation,
    random_sigma2_derivation,
    t_d2,
    t_d3,
)
from npls.derivation import Derivation, InitialRule, ProofNode, substitute_numeral, validate
from npls.errors import GoalNotFound, ModeError, NotASolution, ValidationFailed
from npls.extraction import (
    ExtractionContext,
    _entry_point,
    _selected_upper,
    build_npls,
    build_pls,
    extract_witness_npls,
    extract_witness_pls,
    npls_cost,
    npls_extract,
    npls_gen_source,
    npls_neighbor_rel,
    npls_sources,
    npls_targets,
    pls_neighbor,
    rightmost_goal,
    source_condition,
    target_condition,
)
from npls.search_core import solve_npls, solve_pls
from npls.terms import LitFormula, Literal, normalize, num


def _pls_ctx(build=d2):
    return ExtractionContext(build(), "pls")


def _npls_ctx():
    return ExtractionContext(d3(), "npls")


def test_mode_mismatch_raises_with_the_offending_path():
    with pytest.raises(ModeError) as info:
        ExtractionContext(d3(), "pls")
    assert " at (" in str(info.value)
    with pytest.raises(ModeError):
        ExtractionContext(d2(), "npls")
    with pytest.raises(ValueError):
        ExtractionContext(d2(), "fancy")


def test_invalid_derivations_are_rejected():
    d = d2()
    nodes = dict(d.nodes)
    node = nodes[(1, 0)]
    nodes[(1, 0)] = ProofNode(node.sequent[:-1], node.rule)
    with pytest.raises(ValidationFailed) as info:
        ExtractionContext(Derivation(d.end_x, nodes), "pls")
    assert info.value.report is not None


def test_the_end_sequent_must_be_a_single_existential():
    # The derivation is sound but proves a bare literal, which the
    # compilers have no witness to extract from.
    lit = Literal(False, num(1), num(1))
    d = Derivation(0, {(): ProofNode((LitFormula(lit),), InitialRule(0))})
    assert validate(d, "pls").ok
    with pytest.raises(ValidationFailed, match="end-sequent"):
        ExtractionContext(d, "pls")


def test_context_caches():
    ctx = _npls_ctx()
    assert ctx.kb[()] == 9
    assert ctx.path_of[9] == ()
    assert ctx.n_nodes == 10
    assert ctx.d_max == 4
    assert ctx.witness_value((1,)) == 2
    assert ctx.is_left_upper((0,))
    assert ctx.is_left_upper((1,))
    assert not ctx.is_left_upper((2,))
    assert not ctx.is_left_upper((2, 1))
    assert not ctx.is_left_upper(())
    assert ctx.has_true_goal((1,))
    assert not ctx.has_true_goal((2,))


def test_context_evaluates_each_distinct_literal_once(monkeypatch):
    from npls import extraction

    evaluated = []
    real = extraction.eval_literal

    def counted(lit, x):
        evaluated.append(lit)
        return real(lit, x)

    monkeypatch.setattr(extraction, "eval_literal", counted)
    d = random_sigma2_derivation(20)
    ctx = ExtractionContext(d, "npls")
    assert len(evaluated) == len(set(evaluated))
    for path, node in d.nodes.items():
        lits = [f.lit for f in node.sequent if isinstance(f, LitFormula)]
        assert target_condition(ctx, path) == (not any(real(lit, d.end_x) for lit in lits))


def test_context_evaluates_no_literal_that_validation_evaluated(monkeypatch):
    from npls import derivation, extraction

    evaluated = {"validate": [], "context": []}
    real = derivation.eval_literal

    def counting(caller):
        def counted(lit, x):
            evaluated[caller].append(normalize(LitFormula(lit)))
            return real(lit, x)

        return counted

    monkeypatch.setattr(derivation, "eval_literal", counting("validate"))
    monkeypatch.setattr(extraction, "eval_literal", counting("context"))
    ExtractionContext(random_sigma2_derivation(20), "npls")
    by_validation, by_context = evaluated["validate"], evaluated["context"]
    assert by_validation and by_context
    assert len(by_context) == len(set(by_context))
    assert not set(by_validation) & set(by_context)


def _count_calls(monkeypatch, name):
    """Count the calls that ``npls.extraction`` makes to its binding ``name``."""
    from npls import extraction

    calls = []
    real = getattr(extraction, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(extraction, name, counted)
    return calls


def test_building_a_context_evaluates_no_term(monkeypatch):
    # Validation evaluated every witness, and the context reads its values.
    cases = [substitute_numeral(t_d3(), 50), random_sigma2_derivation(20)]
    calls = _count_calls(monkeypatch, "eval_term")
    for d in cases:
        ExtractionContext(d, "npls")
    assert calls == []


def test_building_a_valid_context_classifies_no_formula(monkeypatch):
    # The mode walk runs only on a derivation that validation refuses.
    cases = [d2(), random_sigma1_derivation(3)]
    calls = _count_calls(monkeypatch, "classify")
    for d in cases:
        ExtractionContext(d, "pls")
    assert calls == []


def test_a_mode_violation_is_named_before_other_issues():
    with pytest.raises(ModeError) as info:
        ExtractionContext(d3(), "pls")
    assert str(info.value) == "pls mode admits cuts on bounded existentials only at ()"
    # D3 with a leaf that points at a false literal still breaks pls mode first.
    nodes = dict(d3().nodes)
    nodes[(2, 1, 0)] = ProofNode(nodes[(2, 1, 0)].sequent, InitialRule(2))
    broken = Derivation(0, nodes)
    assert "(2,1,0): initial literal at index 2 is false" in validate(broken, "pls").lines()
    with pytest.raises(ModeError) as again:
        ExtractionContext(broken, "pls")
    assert str(again.value) == str(info.value)


def test_target_condition():
    ctx = _pls_ctx()
    assert target_condition(ctx, ())
    assert not target_condition(ctx, (0,))
    assert target_condition(ctx, (1,))
    nctx = _npls_ctx()
    assert target_condition(nctx, (0,))
    assert not target_condition(nctx, (0, 0))


def test_rightmost_goal():
    ctx = _pls_ctx()
    assert rightmost_goal(ctx, ()) == (2,)
    assert rightmost_goal(ctx, (1,)) == (1,)
    with pytest.raises(GoalNotFound):
        rightmost_goal(ctx, (0,))
    nctx = _npls_ctx()
    assert rightmost_goal(nctx, ()) == (2,)
    assert rightmost_goal(nctx, (2, 1)) == (2, 1)
    assert rightmost_goal(nctx, (0,)) == (0,)


def test_entry_point_is_where_a_formula_enters_the_branch():
    ctx = _npls_ctx()
    # Formulas are ids of the context's table: (2,0) adds b00 over (2,),
    # the root cut's final upper, which adds the cut formula.
    kb = ctx.kb
    end, cut, b00 = ctx.end_id, ctx.added_id[kb[(2,)]], ctx.added_id[kb[(2, 0)]]
    assert ctx.members[kb[(2, 0)]] == {end, cut, b00}
    assert _entry_point(ctx, (2, 0), b00) == (2, 0)
    assert _entry_point(ctx, (2, 0), cut) == (2,)
    assert _entry_point(ctx, (2, 0), end) == ()


def test_pls_neighbor_steps():
    ctx = _pls_ctx()
    assert pls_neighbor(ctx, ()) == (1,)
    assert pls_neighbor(ctx, (1,)) == (1,)


def test_build_pls_frozen_shape():
    ctx = _pls_ctx()
    inst = build_pls(ctx)
    assert inst.sources() == [5]
    assert inst.row(5) == {2: [2], 5: [2]}
    assert inst.initial_source() == 5
    assert inst.initial_target(5) == 5
    assert inst.cost(5) == 5
    assert inst.rank(5) == 0


def test_build_pls_needs_pls_mode():
    with pytest.raises(ModeError):
        build_pls(_npls_ctx())
    with pytest.raises(ModeError):
        build_npls(_pls_ctx())


def test_d2_solve_and_report():
    ctx = _pls_ctx()
    solution, trace = solve_pls(build_pls(ctx))
    assert solution == 2
    assert [(s.action, s.target, s.cost) for s in trace.steps] == [
        ("init-target", 5, 5),
        ("solved", 2, 2),
    ]
    report = extract_witness_pls(ctx)
    assert report.witness == 2
    assert report.solution_node == (1,)
    assert report.verified
    assert report.trace.step_count == 2


def test_d1_solves_in_one_step():
    report = extract_witness_pls(_pls_ctx(d1))
    assert report.witness == 2
    assert report.solution_node == ()
    assert report.verified
    assert report.trace.step_count == 1
    assert report.trace.steps[0].action == "solved"


def test_npls_sources_frozen():
    ctx = _npls_ctx()
    assert {p for p in ctx.kb if npls_sources(ctx, p)} == {(), (0,), (1,)}


def test_source_condition():
    ctx = _npls_ctx()
    assert source_condition(ctx, (0,))
    assert source_condition(ctx, (2, 1))
    # Any node above a witnessing existential rule is no longer a source.
    assert not source_condition(ctx, (1, 0))


def test_npls_targets_frozen():
    ctx = _npls_ctx()
    by_row = {
        (): {(1,), (2,), (2, 1)},
        (0,): {(0,), (1,)},
        (1,): {(1,)},
    }
    for row, want in by_row.items():
        assert {p for p in ctx.kb if npls_targets(ctx, row, p)} == want


def test_npls_cost_is_the_depth_complement_on_block_rules():
    ctx = _npls_ctx()
    assert npls_cost(ctx, (2,)) == 3
    assert npls_cost(ctx, (2, 1)) == 2
    assert npls_cost(ctx, (1,)) == 0
    assert npls_cost(ctx, (0,)) == 0


def test_npls_neighbor_rel():
    ctx = _npls_ctx()
    assert npls_neighbor_rel(ctx, (), (2,), (2, 1))
    assert not npls_neighbor_rel(ctx, (), (2, 1), (2,))
    assert npls_neighbor_rel(ctx, (), (2,), (1,))
    assert npls_neighbor_rel(ctx, (), (1,), (1,))
    assert not npls_neighbor_rel(ctx, (), (1,), (2,))


def test_npls_gen_source_selects_the_witness_upper():
    ctx = _npls_ctx()
    assert npls_gen_source(ctx, (), (2,)) == (0,)
    assert npls_gen_source(ctx, (), (2, 1)) == (1,)
    assert npls_gen_source(ctx, (), (1,)) == ()


def test_npls_extract_cases():
    ctx = _npls_ctx()
    # The subproblem solution refutes the cut instance; its witness
    # value names the universal branch to push into.
    assert npls_extract(ctx, (), (2,), (0,)) == (2, 1)
    # The subproblem solution witnesses an inherited formula and is a
    # target of the original row outright.
    assert npls_extract(ctx, (), (2, 1), (1,)) == (1,)
    # A witnessing existential target is already solved and stays put.
    assert npls_extract(ctx, (), (1,), (0,)) == (1,)
    with pytest.raises(NotASolution):
        npls_extract(ctx, (), (2,), (2,))
    with pytest.raises(NotASolution):
        npls_extract(ctx, (), (2,), (0, 0))


def test_d3_solve_trace_is_frozen():
    inst = build_npls(_npls_ctx())
    solution, trace = solve_npls(inst)
    trace.check()
    assert solution == 3
    assert [(s.action, s.source, s.target, s.rank, s.cost) for s in trace.steps] == [
        ("init-target", 9, 8, 9, 3),
        ("descend", 1, 8, 1, 3),
        ("init-target", 1, 1, 1, 0),
        ("solved", 1, 1, 1, 0),
        ("extract", 9, 7, 9, 2),
        ("descend", 3, 7, 3, 2),
        ("init-target", 3, 3, 3, 0),
        ("solved", 3, 3, 3, 0),
        ("extract", 9, 3, 9, 0),
        ("solved", 9, 3, 9, 0),
    ]


def test_d3_report():
    report = extract_witness_npls(_npls_ctx())
    assert report.witness == 2
    assert report.solution_node == (1,)
    assert report.verified
    assert report.trace.step_count == 10


def test_template_instances_extract_at_every_value():
    for x in (0, 5):
        ctx = ExtractionContext(substitute_numeral(t_d3(), x), "npls")
        report = extract_witness_npls(ctx)
        assert report.verified
        assert report.witness == 2


def test_a_value_indexed_exists_forall_upper_is_a_target_of_its_own_row_only():
    ctx = ExtractionContext(random_sigma2_derivation(99), "npls")
    tau = (3, 0)
    assert ctx.is_exists_forall(tau) and ctx.is_left_upper(tau)
    assert target_condition(ctx, tau)
    assert npls_sources(ctx, tau) and npls_targets(ctx, tau, tau)
    # Nothing but the cut lies between the root row and tau, yet tau's
    # subtree belongs to tau's own row.
    assert not npls_targets(ctx, (), tau)
    rows = [p for p in ctx.kb if npls_sources(ctx, p)]
    assert [p for p in rows if npls_targets(ctx, p, tau)] == [tau]


def _tabulation_cases():
    yield "D3", d3()
    for x in range(21):
        yield f"T-D3 x={x}", substitute_numeral(t_d3(), x)
    for seed in range(60):
        yield f"sigma2 seed={seed}", random_sigma2_derivation(seed)


def _pls_cases():
    yield "D1", d1()
    yield "D2", d2()
    for x in range(8):
        yield f"T-D2 x={x}", substitute_numeral(t_d2(), x)
    for seed in range(30):
        yield f"sigma1 seed={seed}", random_sigma1_derivation(seed)


def test_validation_leaves_extraction_no_unreachable_case():
    # What extraction relies on in place of re-checking it: every
    # exists-forall rule selects a value-indexed cut upper before it in
    # post-order, and every run ends on an existential rule whose
    # witnessing instance holds.
    for name, d in _tabulation_cases():
        ctx = ExtractionContext(d, "npls")
        for tau in ctx.path_of:
            if ctx.is_exists_forall(tau):
                kappa = _selected_upper(ctx, tau)
                assert kappa is not None and ctx.is_left_upper(kappa), (name, tau)
                assert ctx.kb[kappa] < ctx.kb[tau], (name, tau)
                assert ctx.selected_upper(ctx.kb[tau]) == ctx.kb[kappa], (name, tau)
        assert ctx.has_true_goal(extract_witness_npls(ctx).solution_node), name
    # In pls mode, the root and every feasible point have a goal on
    # their rightmost branch, so each plain step is defined.
    for name, d in _pls_cases():
        ctx = ExtractionContext(d, "pls")
        root = ctx.n_nodes - 1
        feasible = [i for i in range(root) if ctx.left_upper[i] and not ctx.true_lit[i]]
        for s in feasible + [root]:
            assert ctx.goal[s] is not None, (name, ctx.path_of[s])
            assert ctx.path_of[ctx.goal[s]] == rightmost_goal(ctx, ctx.path_of[s]), name
        assert ctx.has_true_goal(extract_witness_pls(ctx).solution_node), name


def test_context_id_sets_hold_each_sequent_formula():
    cases = [("T-D3 x=7", substitute_numeral(t_d3(), 7))]
    cases += [(f"sigma2 seed={seed}", random_sigma2_derivation(seed)) for seed in range(60)]
    for name, d in cases:
        # The context reads validation's table as it stands.
        table = validate(d, "npls").table
        assert table.kb.keys() == d.nodes.keys(), name
        for path, i in table.kb.items():
            assert table.members[i] == set(map(table.intern, d.sequent(path))), (name, path)


def test_build_npls_tables_match_the_path_level_definitions():
    for name, d in _tabulation_cases():
        ctx = ExtractionContext(d, "npls")
        inst = build_npls(ctx)
        paths = ctx.path_of
        ids = range(ctx.n_nodes)
        assert inst.sources() == [s for s in ids if npls_sources(ctx, paths[s])], name
        for s in ids:
            row = paths[s]
            tabulated = inst.row(s)
            assert (tabulated is not None) == npls_sources(ctx, row), (name, row)
            if tabulated is None:
                continue
            targets = [t for t in ids if npls_targets(ctx, row, paths[t])]
            want = [
                (y, [z for z in targets if npls_neighbor_rel(ctx, row, paths[y], paths[z])])
                for y in targets
            ]
            assert list(tabulated.items()) == want, (name, row)


def _same_answer(name, got, want):
    """Call both; they return the same id, or raise the same type and message."""
    try:
        expected = want()
    except Exception as exc:  # noqa: BLE001 - the path-level error is the expectation
        with pytest.raises(type(exc)) as raised:
            got()
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc), name
    else:
        assert got() == expected, name


def test_id_level_answers_match_the_path_level_definitions():
    # The tabulation cases include Sigma2 seeds 0-59.
    for name, d in _tabulation_cases():
        ctx = ExtractionContext(d, "npls")
        inst = build_npls(ctx)
        kb, paths = ctx.kb, ctx.path_of
        ids = range(ctx.n_nodes)
        # Every node, so that branches without a goal are asked too.
        for s in ids:
            _same_answer(
                (name, s), lambda: inst.initial_target(s), lambda: kb[rightmost_goal(ctx, paths[s])]
            )
        for s in inst.sources():
            for y, zs in inst.row(s).items():
                if y in zs:
                    continue
                case = (name, paths[s], paths[y])
                assert inst.gen_source(s, y) == kb[npls_gen_source(ctx, paths[s], paths[y])], case
                for z in ids:
                    _same_answer(
                        (*case, paths[z]),
                        lambda: inst.extract(s, y, z),
                        lambda: kb[npls_extract(ctx, paths[s], paths[y], paths[z])],
                    )
    for name, d in _pls_cases():
        ctx = ExtractionContext(d, "pls")
        row = build_pls(ctx).row(ctx.n_nodes - 1)
        for s, step in row.items():
            assert step == [ctx.kb[pls_neighbor(ctx, ctx.path_of[s])]], (name, s)
