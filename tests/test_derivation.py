from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from npls.corpus import d1, d2, d3, t_d2, t_d3
from npls.derivation import (
    MODE_NPLS,
    MODE_PLS,
    CutRule,
    Derivation,
    DerivationTemplate,
    ExistsForallRule,
    ExistsRule,
    FamilySpec,
    FormulaTable,
    InitialRule,
    ProofNode,
    TemplateNode,
    detect_mode,
    expand_template,
    format_path,
    postorder_index,
    substitute_numeral,
    validate,
)
from npls.errors import NoSuchNode, ValidationFailed
from npls.serialization import derivation_to_json
from npls.terms import (
    ExistsForall,
    ExistsLit,
    LitFormula,
    Literal,
    add,
    eval_term,
    formulas_equal,
    mul,
    num,
    substitute_formula,
    substitute_term,
    var,
)


def kb_less(a, b):
    # Oracle for the traversal order: proper extensions come first,
    # otherwise the first differing entry decides.
    if a == b:
        return False
    k = min(len(a), len(b))
    if a[:k] == b[:k]:
        return len(a) > len(b)
    j = next(i for i in range(k) if a[i] != b[i])
    return a[j] < b[j]


def _assert_order_matches_oracle(paths):
    order = postorder_index(paths)
    assert sorted(order.values()) == list(range(len(paths)))
    for a, b in combinations(paths, 2):
        assert (order[a] < order[b]) == kb_less(a, b), (a, b)


def test_postorder_frozen_tables():
    assert postorder_index(d2().nodes.keys()) == {
        (0,): 0,
        (1, 0): 1,
        (1,): 2,
        (2, 0): 3,
        (2,): 4,
        (): 5,
    }
    assert postorder_index(d3().nodes.keys()) == {
        (0, 0): 0,
        (0,): 1,
        (1, 0): 2,
        (1,): 3,
        (2, 0): 4,
        (2, 1, 0): 5,
        (2, 1, 1): 6,
        (2, 1): 7,
        (2,): 8,
        (): 9,
    }


def test_postorder_matches_oracle_on_fixtures():
    for build in (d1, d2, d3):
        _assert_order_matches_oracle(set(build().nodes.keys()))


@st.composite
def path_sets(draw, max_nodes=30):
    paths = {()}
    frontier = [()]
    while frontier and len(paths) < max_nodes:
        node = frontier.pop(0)
        for i in range(draw(st.integers(min_value=0, max_value=3))):
            child = node + (i,)
            paths.add(child)
            frontier.append(child)
    return paths


@given(path_sets())
def test_postorder_matches_oracle_on_random_trees(paths):
    _assert_order_matches_oracle(paths)


@given(path_sets())
def test_postorder_agrees_with_comparator_sort(paths):
    order = postorder_index(paths)
    by_cmp = sorted(paths, key=cmp_to_key(lambda a, b: -1 if kb_less(a, b) else 1))
    assert [order[p] for p in by_cmp] == list(range(len(paths)))


def test_postorder_structural_errors():
    with pytest.raises(NoSuchNode):
        postorder_index([(0,)])
    with pytest.raises(NoSuchNode):
        postorder_index([(), (0, 0)])
    with pytest.raises(NoSuchNode):
        postorder_index([(), (0,), (2,)])


def _children_of_root(d):
    return sum(1 for p in d.nodes if len(p) == 1)


def test_path_helpers():
    assert format_path(()) == "()"
    assert format_path((2, 1)) == "(2,1)"


def test_tree_accessors():
    d = d2()
    assert _children_of_root(d) == 3
    assert d.depth() == 2
    with pytest.raises(NoSuchNode):
        d.node((7,))


def test_fixtures_validate_in_their_modes():
    assert validate(d1(), MODE_PLS).ok
    assert validate(d1(), MODE_NPLS).ok
    assert validate(d2(), MODE_PLS).ok
    assert validate(d3(), MODE_NPLS).ok


def test_mode_mismatches_are_flagged():
    report = validate(d2(), MODE_NPLS)
    assert not report.ok
    assert any("cuts" in issue.message for issue in report.issues)
    report = validate(d3(), MODE_PLS)
    assert not report.ok
    assert any("quantifier class" in issue.message for issue in report.issues)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        validate(d2(), "fancy")


def _mutate(d, path, *, rule=None, sequent=None):
    nodes = dict(d.nodes)
    node = nodes[path]
    nodes[path] = ProofNode(
        sequent=node.sequent if sequent is None else sequent,
        rule=node.rule if rule is None else rule,
    )
    return Derivation(d.end_x, nodes)


def _paths_flagged(report):
    return {issue.path for issue in report.issues}


def test_false_initial_literal_is_flagged_with_its_path():
    d = d2()
    seq = d.sequent((0,))
    bad = tuple(
        LitFormula(f.lit.negate()) if isinstance(f, LitFormula) else f for f in seq
    )
    report = validate(_mutate(d, (0,), sequent=bad), MODE_PLS)
    assert not report.ok
    assert (0,) in _paths_flagged(report)
    assert any("false" in issue.message for issue in report.issues)


def test_witness_above_bound_is_flagged():
    d = d2()
    report = validate(_mutate(d, (1,), rule=ExistsRule(0, num(7))), MODE_PLS)
    assert not report.ok
    assert (1,) in _paths_flagged(report)
    assert any("not below the bound" in issue.message for issue in report.issues)


def test_upper_sequent_mismatch_is_flagged_at_the_child():
    d = d2()
    seq = d.sequent((1, 0))[:-1]
    report = validate(_mutate(d, (1, 0), sequent=seq), MODE_PLS)
    assert not report.ok
    assert (1, 0) in _paths_flagged(report)
    assert any("upper sequent mismatch" in issue.message for issue in report.issues)


_MISMATCH = "(1,0): upper sequent mismatch: "


@pytest.mark.parametrize(
    "edit, lines",
    [
        (lambda seq: seq + seq[:1], [_MISMATCH + "1 unexpected formula(s)"]),
        (
            lambda seq: seq[:-1],
            [_MISMATCH + "missing 1 formula(s)", "(1,0): initial literal index 2 out of range"],
        ),
        (
            lambda seq: seq[:-1] + seq[:1],
            [
                _MISMATCH + "missing 1 formula(s), 1 unexpected formula(s)",
                "(1,0): initial index 2 does not point at a literal",
            ],
        ),
    ],
    ids=["repeats a formula", "drops the added formula", "both"],
)
def test_upper_sequent_mismatches_count_the_formulas_that_differ(edit, lines):
    # (1,0) is a leaf whose initial rule points at the added formula,
    # the last of three; without it the rule fails too.
    d = d2()
    bad = _mutate(d, (1, 0), sequent=edit(d.sequent((1, 0))))
    assert validate(bad, MODE_PLS).lines() == lines


def test_the_added_formula_need_not_come_last():
    d = d2()
    seq = d.sequent((1, 0))
    moved = _mutate(d, (1, 0), sequent=seq[-1:] + seq[:-1], rule=InitialRule(0))
    report = validate(moved, MODE_PLS)
    assert report.ok
    table = report.table
    assert table.added[(1, 0)] == table.sequent[(1, 0)][0]
    assert table.multiset[(1, 0)] == sorted(table.sequent[(1, 0)])
    assert table.members[(1, 0)] == set(table.sequent[(1, 0)])


def test_missing_root_and_orphans_are_flagged():
    d = d2()
    nodes = {p: n for p, n in d.nodes.items() if p != ()}
    report = validate(Derivation(d.end_x, nodes), MODE_PLS)
    assert not report.ok
    assert report.issues[0].message == "missing root node"

    nodes = dict(d2().nodes)
    del nodes[(1,)]
    report = validate(Derivation(d.end_x, nodes), MODE_PLS)
    assert not report.ok
    assert any("parent" in i.message or "contiguous" in i.message for i in report.issues)


def test_open_witness_is_flagged():
    d = d2()
    report = validate(_mutate(d, (1,), rule=ExistsRule(0, var("q"))), MODE_PLS)
    assert not report.ok
    assert any("not closed" in issue.message for issue in report.issues)


def test_detect_mode():
    assert detect_mode(d1()) == MODE_PLS
    assert detect_mode(d2()) == MODE_PLS
    assert detect_mode(d3()) == MODE_NPLS


def test_template_expansion_reproduces_the_fixture():
    assert substitute_numeral(t_d2(), 0) == d2()


def test_template_family_replicates_by_bound_value():
    for x in (0, 1, 3):
        d = substitute_numeral(t_d3(), x)
        assert d.end_x == x
        assert _children_of_root(d) == x + 3
        assert len(d.nodes) == 2 * x + 10
        assert validate(d, MODE_NPLS).ok


def test_template_rejects_an_invalid_expansion():
    lit = Literal(False, num(0), num(1))
    root = TemplateNode((LitFormula(lit),), InitialRule(0))
    with pytest.raises(ValidationFailed) as info:
        substitute_numeral(DerivationTemplate(root), 0)
    assert info.value.report is not None
    assert not info.value.report.ok


def test_template_family_bound_can_depend_on_x():
    t = t_d3()
    spec = t.root.family
    assert isinstance(spec, FamilySpec)
    assert spec.bound == add(var("x"), num(2))


def _expand_per_occurrence(template, x):
    """Reference expansion: substitute every occurrence afresh."""
    nodes = {}

    def rule(r, env):
        if isinstance(r, ExistsRule):
            return ExistsRule(r.principal, substitute_term(r.witness, env))
        if isinstance(r, ExistsForallRule):
            return ExistsForallRule(r.principal, substitute_term(r.witness, env))
        if isinstance(r, CutRule):
            return CutRule(substitute_formula(r.formula, env))
        return r

    def expand(tnode, path, env):
        sequent = tuple(substitute_formula(f, env) for f in tnode.sequent)
        nodes[path] = ProofNode(sequent, rule(tnode.rule, env))
        index = 0
        if tnode.family is not None:
            width = eval_term(substitute_term(tnode.family.bound, env), x)
            for n in range(width):
                expand(tnode.family.body, path + (index,), {**env, tnode.family.index: num(n)})
                index += 1
        for child in tnode.children:
            expand(child, path + (index,), env)
            index += 1

    expand(template.root, (), {"x": num(x)})
    return Derivation(x, nodes)


def _mixed_family_template():
    """A family whose body mixes formulas with and without its index i.

    ``shadow`` binds a variable named i and ``half`` binds i in its
    body only, so the index is free in ``half``'s outer bound alone; a
    nested family over j mentions both indices.
    """
    closed = ExistsLit("y", num(3), Literal(False, var("y"), var("x")))
    indexed = LitFormula(Literal(False, var("i"), add(var("i"), num(1))))
    shadow = ExistsLit("i", add(var("x"), num(1)), Literal(False, var("i"), num(0)))
    body_zi = Literal(True, mul(var("z"), var("i")), num(1))
    half = ExistsForall("z", add(var("i"), num(1)), "i", num(2), body_zi)
    both = LitFormula(Literal(True, var("i"), var("j")))
    inner = TemplateNode((closed, both, shadow), ExistsRule(2, var("j")))
    body = TemplateNode(
        (closed, indexed, shadow, half),
        CutRule(half),
        (TemplateNode((closed, shadow), ExistsRule(1, num(0))),),
        FamilySpec("j", add(var("i"), num(1)), inner),
    )
    family = FamilySpec("i", add(var("x"), num(1)), body)
    root = TemplateNode((closed, shadow), CutRule(shadow), (), family)
    return DerivationTemplate(root)


@pytest.mark.parametrize(
    "template, x",
    [(t_d2(), 0), (t_d2(), 5)]
    + [(t_d3(), x) for x in (0, 1, 2, 3, 7, 50)]
    + [(_mixed_family_template(), x) for x in (0, 1, 3, 6)],
)
def test_memoised_expansion_matches_per_occurrence_substitution(template, x):
    want = derivation_to_json(_expand_per_occurrence(template, x))
    assert derivation_to_json(expand_template(template, x)) == want


def test_expansion_builds_a_formula_without_the_family_index_once():
    d = expand_template(_mixed_family_template(), 3)
    members = [d.nodes[(n,)] for n in range(4)]
    # closed and shadow do not mention i: one object for the family.
    for position in (0, 2):
        assert len({id(m.sequent[position]) for m in members}) == 1
    # indexed and half do: one object per value of i.
    for position in (1, 3):
        assert len({id(m.sequent[position]) for m in members}) == 4
    # The cut formula is the sequent's object at the same assignment.
    assert all(m.rule.formula is m.sequent[3] for m in members)


# A formula skeleton: shape (0 literal, 1 existential, 2 exists-forall),
# two bound values and a body whose terms name the first and second
# bound variable as "b0" and "b1".
_TOKENS = ("b0", "b1", "x", "0", "1", "b0+b1")
_skeletons = st.tuples(
    st.integers(0, 2),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.booleans(), st.sampled_from(_TOKENS), st.sampled_from(_TOKENS)),
)
_names = st.tuples(st.sampled_from("yzw"), st.sampled_from("yzw"))


def _formula(skeleton, names):
    shape, (b1, b2), (negated, lhs, rhs) = skeleton
    terms = {"b0": var(names[0]), "b1": var(names[1]), "x": var("x"), "0": num(0), "1": num(1)}
    terms["b0+b1"] = add(terms["b0"], terms["b1"])
    body = Literal(negated, terms[lhs], terms[rhs])
    if shape == 0:
        return LitFormula(body)
    if shape == 1:
        return ExistsLit(names[0], num(b1), body)
    return ExistsForall(names[0], num(b1), names[1], num(b2), body)


@st.composite
def _formula_pairs(draw):
    skeleton, names = draw(_skeletons), draw(_names)
    kind = draw(st.sampled_from(["rename", "bound", "body", "fresh"]))
    other = skeleton
    if kind == "bound":
        shape, (b1, b2), body = skeleton
        other = (shape, (b1 + 1, b2 + 1), body)
    elif kind in ("body", "fresh"):
        other = draw(_skeletons)
        if kind == "body":
            other = (skeleton[0], skeleton[1], other[2])
    other_names = draw(_names)
    return kind, skeleton, _formula(skeleton, names), names, _formula(other, other_names), other_names


@given(_formula_pairs())
def test_formula_ids_are_equal_exactly_when_the_formulas_are(pair):
    kind, skeleton, a, names_a, b, names_b = pair
    table = FormulaTable()
    ia, ib = table.intern(a), table.intern(b)
    assert (ia == ib) == formulas_equal(a, b)
    assert (table.intern(a), table.intern(b)) == (ia, ib)
    shape = skeleton[0]
    if kind == "rename" and shape == 2 and len(set(names_a)) == len(set(names_b)) == 2:
        # Renaming both bound variables apart changes nothing.
        assert ia == ib
    if kind == "bound" and shape > 0:
        assert ia != ib


def test_formula_ids_survive_formulas_that_are_dropped_at_once():
    # Each formula is built fresh and dropped after interning, so its
    # address is free for the next one; the table must not mistake the
    # next formula for it.
    def make(k):
        return LitFormula(Literal(False, num(k % 7), var("x")))

    table = FormulaTable()
    ids = [table.intern(make(k)) for k in range(2000)]
    for a in range(7):
        for b in range(7):
            assert (ids[a] == ids[b]) == formulas_equal(make(a), make(b))
    assert ids == [ids[k % 7] for k in range(2000)]
