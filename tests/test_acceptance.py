"""Release gate for the package, one test per criterion.

Each test covers one end-to-end promise: condition conformance and
totality on a generated corpus, witness extraction on fixed and random
derivations in both modes, traversal-order correctness, the rank-zero
collapse onto plain search, validator robustness under mutation, and
condition conformance on instances extracted from random derivations
of both modes.
Timing assertions pin the desk-scale budgets.  The verifier walks
each instance's rows, so ``test_rows_tabulate_the_predicates`` backs
criteria 1 and 8 by checking every family row against the family's own
edges and the shape of every row against a scan of the point space;
``test_extraction`` checks the rows of derivations against the
path-level definitions.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

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
from npls.derivation import (
    MODE_NPLS,
    MODE_PLS,
    CutRule,
    Derivation,
    ExistsForallRule,
    ExistsRule,
    InitialRule,
    ProofNode,
    postorder_index,
    substitute_numeral,
    validate,
)
from npls.extraction import (
    ExtractionContext,
    build_npls,
    build_pls,
    extract_witness_npls,
    extract_witness_pls,
    pls_neighbor,
)
from npls.nested_graph import (
    NestedGraphFamily,
    descent_steps,
    generate_family,
    npls_from_family,
    pls_from_digraph,
)
from npls.search_core import (
    brute_force_npls,
    solve_npls,
    verify_npls_conditions,
)
from npls.terms import (
    ExistsForall,
    ExistsLit,
    LitFormula,
    Literal,
    eval_term,
    formulas_equal,
    mul,
    num,
    var,
)

# Twenty seeds spread over ranks 1..3 and widths 2..4; every instance
# stays inside the generator's supported range.
_CONFIGS = ((1, 4), (2, 3), (2, 4), (3, 2), (3, 3))


def _families():
    for seed in range(1, 21):
        rank, width = _CONFIGS[(seed - 1) % len(_CONFIGS)]
        yield seed, generate_family(seed, rank, width)


def _corpus():
    for seed, fam in _families():
        yield seed, npls_from_family(fam)


def test_criterion_1_nine_conditions_hold_on_the_corpus():
    start = time.perf_counter()
    for seed, inst in _corpus():
        report = verify_npls_conditions(inst)
        assert report.all_passed, (seed, report.lines())
    d = d3()
    report = verify_npls_conditions(build_npls(ExtractionContext(d, MODE_NPLS)))
    assert report.all_passed, report.lines()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print("criterion 1: pass")


def _family_rows(fam):
    # The family's problems in preorder, children by node id, with
    # problem and node packed into fixed bit fields: the reference the
    # compiled rows must match.
    problems, stack = [], [fam]
    while stack:
        f = stack.pop()
        problems.append(f)
        stack.extend(f.children[node] for node in sorted(f.children, reverse=True))
    node_bits = max((max(p.graph.n_nodes for p in problems) - 1).bit_length(), 1)
    rows = {}
    for s, p in enumerate(problems):
        g, base = p.graph, s << node_bits
        if p.rank == 0:
            out = [[t] for t in descent_steps(g)]
        else:
            out = [sorted({b for a, b in g.edges if a == v}) for v in range(g.n_nodes)]
        rows[s] = {base + v: [base + z for z in zs] for v, zs in enumerate(out)}
    return rows


def test_rows_tabulate_the_predicates():
    families = [fam for _, fam in _families()]
    families += [ng2(), NestedGraphFamily(g1(), 0)]
    cases = []
    for fam in families:
        inst = npls_from_family(fam)
        assert {s: inst.row(s) for s in inst.sources()} == _family_rows(fam)
        cases.append(inst)
    derivations = [d3()]
    derivations += [substitute_numeral(t_d3(), x) for x in range(11)]
    derivations += [random_sigma2_derivation(seed) for seed in range(30)]
    for d in derivations:
        cases.append(build_npls(ExtractionContext(d, MODE_NPLS)))
    for i, inst in enumerate(cases):
        sources = inst.sources()
        assert sources == sorted(set(sources)), i
        # Every point of the space that is not a listed source has no row.
        assert [p for p in range(1 << inst.d) if inst.row(p) is not None] == sources, i
        for s in sources:
            row = inst.row(s)
            assert list(row) == sorted(row), (i, s)
            for zs in row.values():
                assert zs == sorted(set(zs)), (i, s)


def test_criterion_2_nested_search_is_total_on_the_corpus():
    start = time.perf_counter()
    for seed, inst in _corpus():
        y, trace = solve_npls(inst)
        assert y in inst.row(inst.initial_source())[y], seed
        for s in {step.source for step in trace.steps}:
            brute_force_npls(inst, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print("criterion 2: pass")


def _end_formula_witnesses(d):
    # Every value committed by an existential rule whose principal is
    # the end-formula; extraction must land on one of these.
    end = d.sequent(())[0]
    found = set()
    for path in d.paths():
        rule = d.rule(path)
        if isinstance(rule, ExistsRule) and formulas_equal(
            d.sequent(path)[rule.principal], end
        ):
            found.add(eval_term(rule.witness, d.end_x))
    return found


def test_criterion_3_nested_extraction_agrees_with_the_scan():
    for x in range(8):
        d = substitute_numeral(t_d3(), x)
        report = extract_witness_npls(ExtractionContext(d, MODE_NPLS))
        assert report.verified, x
        assert report.witness in _end_formula_witnesses(d), x
    for seed in range(1, 13):
        d = random_sigma2_derivation(seed)
        assert d.depth() <= 10 and len(d.nodes) <= 500, seed
        report = extract_witness_npls(ExtractionContext(d, MODE_NPLS))
        assert report.verified, seed
        assert report.witness in _end_formula_witnesses(d), seed
    print("criterion 3: pass")


def test_criterion_4_plain_extraction_descends_the_traversal_order():
    cases = [d1(), d2()] + [random_sigma1_derivation(s) for s in range(1, 13)]
    for d in cases:
        report = extract_witness_pls(ExtractionContext(d, MODE_PLS))
        assert report.verified
        targets = [step.target for step in report.trace.steps]
        assert all(a > b for a, b in zip(targets, targets[1:])), targets
        assert len(targets) <= len(d.nodes)
    print("criterion 4: pass")


def _kb_less(a, b):
    # Proper extensions come first, otherwise the first differing
    # entry decides.
    if a == b:
        return False
    k = min(len(a), len(b))
    if a[:k] == b[:k]:
        return len(a) > len(b)
    j = next(i for i in range(k) if a[i] != b[i])
    return a[j] < b[j]


def _random_paths(rng, max_nodes):
    paths = [()]
    frontier = [()]
    while frontier and len(paths) < max_nodes:
        p = frontier.pop(rng.randrange(len(frontier)))
        for i in range(rng.randrange(4)):
            if len(paths) >= max_nodes:
                break
            child = p + (i,)
            paths.append(child)
            frontier.append(child)
    return paths


def test_criterion_5_traversal_index_matches_the_pairwise_oracle():
    start = time.perf_counter()
    trees = [list(fixture().nodes) for fixture in (d1, d2, d3)]
    trees.append(list(substitute_numeral(t_d2(), 0).nodes))
    trees.append(list(substitute_numeral(t_d3(), 0).nodes))
    trees.append(list(substitute_numeral(t_d3(), 4).nodes))
    rng = random.Random(5)
    for _ in range(50):
        trees.append(_random_paths(rng, 20 + rng.randrange(181)))
    for paths in trees:
        order = postorder_index(paths)
        for a, b in combinations(paths, 2):
            assert (order[a] < order[b]) == _kb_less(a, b), (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    print("criterion 5: pass")


def plain_walk(source, start, step, cost):
    """Plain descent written out: the solution and the trace it leaves.

    The start opens the row, each later point that is no fixed point of
    ``step`` is one rank-zero step, and the fixed point closes the row;
    a start that is a fixed point closes it at once.
    """
    steps, y, action = [], start, "init-target"
    while step(y) != y:
        steps.append((source, y, 0, cost(y), action))
        y, action = step(y), "rank0-step"
    steps.append((source, y, 0, cost(y), "solved"))
    return y, tuple(steps)


def test_criterion_6_rank_zero_rows_collapse_onto_plain_search():
    # Every plain instance the package builds: rank-zero families, the
    # digraphs ``solve`` reads, and pls-mode derivations.  Each is solved
    # by the nested search, which must walk plain descent: over the
    # descent step function from node 0 for graphs, and over
    # ``pls_neighbor`` from the root for derivations, whose costs are ids.
    cases = []
    for seed in range(1, 21):
        family = generate_family(seed, 0, 1 + (seed - 1) % 8)
        g = family.graph
        walk = plain_walk(0, 0, descent_steps(g).__getitem__, g.costs.__getitem__)
        cases.append((("family", seed), npls_from_family(family), walk))
        cases.append((("digraph", seed), pls_from_digraph(g), walk))
    g = g1()
    walk = plain_walk(0, 0, descent_steps(g).__getitem__, g.costs.__getitem__)
    cases.append((("digraph", "G1"), pls_from_digraph(g), walk))
    derivations = [("D1", d1()), ("D2", d2())]
    derivations += [(("sigma1", seed), random_sigma1_derivation(seed)) for seed in range(60)]
    for name, d in derivations:
        ctx = ExtractionContext(d, MODE_PLS)
        root = ctx.n_nodes - 1

        def step(y, ctx=ctx):
            return ctx.kb[pls_neighbor(ctx, ctx.path_of[y])]

        cases.append((name, build_pls(ctx), plain_walk(root, root, step, lambda y: y)))
    for name, inst, walk in cases:
        y, trace = solve_npls(inst)
        assert (y, trace.steps) == walk, name
    print("criterion 6: pass")


def _mutate(d, path, *, rule=None, sequent=None):
    nodes = dict(d.nodes)
    node = nodes[path]
    nodes[path] = ProofNode(
        sequent=node.sequent if sequent is None else sequent,
        rule=node.rule if rule is None else rule,
    )
    return Derivation(d.end_x, nodes)


def _drop(d, paths):
    return Derivation(d.end_x, {p: n for p, n in d.nodes.items() if p not in paths})


def _negate_at(d, path, index):
    seq = list(d.sequent(path))
    seq[index] = LitFormula(seq[index].lit.negate())
    return _mutate(d, path, sequent=tuple(seq))


def test_criterion_7_single_field_mutations_are_rejected_with_their_path():
    open_cut = ExistsLit("z", var("q"), Literal(False, var("z"), num(0)))
    ef_cut = ExistsForall(
        "z", num(2), "y", num(2), Literal(False, mul(var("z"), var("y")), var("y"))
    )
    cases = [
        (_negate_at(d2(), (0,), 1), MODE_PLS, (0,), "false"),
        (_mutate(d2(), (1,), rule=ExistsRule(0, num(7))), MODE_PLS, (1,), "not below the bound"),
        (_mutate(d2(), (1,), rule=ExistsRule(0, var("q"))), MODE_PLS, (1,), "not closed"),
        (_mutate(d2(), (1, 0), sequent=d2().sequent((1, 0))[:-1]), MODE_PLS, (1, 0), "upper sequent mismatch"),
        (_mutate(d2(), (0,), rule=InitialRule(5)), MODE_PLS, (0,), "out of range"),
        (_mutate(d2(), (0,), rule=InitialRule(0)), MODE_PLS, (0,), "literal"),
        (_mutate(d2(), (), rule=CutRule(open_cut)), MODE_PLS, (), "not closed"),
        (_mutate(d2(), (), rule=InitialRule(0)), MODE_PLS, (), "initial"),
        (_mutate(d2(), (), rule=CutRule(ef_cut)), MODE_PLS, (), "bounded existentials"),
        (_drop(d2(), {(2,), (2, 0)}), MODE_PLS, (), "children"),
        (_mutate(d3(), (2, 1), rule=ExistsForallRule(1, num(9))), MODE_NPLS, (2, 1), "not below the bound"),
        (_negate_at(d3(), (0, 0), 2), MODE_NPLS, (0, 0), "false"),
        (_drop(d3(), {(1, 0)}), MODE_NPLS, (1,), "expected 1"),
        (_mutate(d3(), (2, 0), sequent=d3().sequent((2, 0))[:-1]), MODE_NPLS, (2, 0), "upper sequent mismatch"),
    ]
    assert len(cases) >= 12
    for bad, mode, path, needle in cases:
        report = validate(bad, mode)
        assert not report.ok, (path, needle)
        hits = [issue for issue in report.issues if issue.path == path]
        assert hits, (path, [(i.path, i.message) for i in report.issues])
        assert any(needle in issue.message for issue in hits), (needle, hits)
    print("criterion 7: pass")


def test_criterion_8_nine_conditions_hold_on_extracted_random_derivations():
    # In each of these derivations some value-indexed cut upper is an
    # exists-forall rule with no other cut upper between it and a row
    # below; the nested target sets must keep it out of that row.
    for seed in (19, 22, 99, 119, 122, 164, 176, 196):
        d = random_sigma2_derivation(seed)
        start = time.perf_counter()
        report = verify_npls_conditions(build_npls(ExtractionContext(d, MODE_NPLS)))
        elapsed = time.perf_counter() - start
        assert report.all_passed, (seed, report.lines())
        assert elapsed < 1.0, (seed, elapsed)
    print("criterion 8: pass")


def test_criterion_9_nine_conditions_hold_on_plain_extracted_derivations():
    # A plain instance is one rank-zero row whose targets are the
    # feasible points; each of the 622 must step to a cheaper feasible
    # point or be a fixed point.
    start = time.perf_counter()
    points = 0
    for seed in range(300):
        d = random_sigma1_derivation(seed)
        inst = build_pls(ExtractionContext(d, MODE_PLS))
        report = verify_npls_conditions(inst)
        assert report.all_passed, (seed, report.lines())
        (source,) = inst.sources()
        points += len(inst.row(source))
    elapsed = time.perf_counter() - start
    assert points == 622
    assert elapsed < 10.0, elapsed
    print("criterion 9: pass")
