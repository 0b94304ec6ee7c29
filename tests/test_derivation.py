from __future__ import annotations

import dataclasses
import operator
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npls.corpus import (
    d1,
    d2,
    d3,
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
from npls.errors import NoSuchNode, NplsError, ValidationFailed
from npls.serialization import (
    derivation_from_json,
    derivation_to_json,
    formula_from_json,
    formula_to_json,
    rule_from_json,
    rule_to_json,
)
from npls.terms import (
    _ARITY,
    OPS,
    ExistsForall,
    ExistsLit,
    LitFormula,
    Literal,
    Term,
    add,
    eval_term,
    exists_forall_instance,
    exists_instance,
    formulas_equal,
    mul,
    negated_instance,
    num,
    substitute_formula,
    substitute_literal,
    substitute_term,
    var,
)

from derivation_helpers import given_nodes, stated_t_d2, stated_t_d3


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
        d.sequent((7,))


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
    nodes = given_nodes(d)
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
    i = table.kb[(1, 0)]
    assert table.added[i] == table.intern(moved.sequent((1, 0))[0])
    assert moved.nodes[(1, 0)] == (seq[-1:] + seq[:-1], InitialRule(0), False)


def test_missing_root_and_orphans_are_flagged():
    d = d2()
    nodes = {p: n for p, n in given_nodes(d).items() if p != ()}
    report = validate(Derivation(d.end_x, nodes), MODE_PLS)
    assert not report.ok
    assert report.issues[0].message == "missing root node"

    nodes = given_nodes(d2())
    del nodes[(1,)]
    report = validate(Derivation(d.end_x, nodes), MODE_PLS)
    assert not report.ok
    assert any("parent" in i.message or "contiguous" in i.message for i in report.issues)


def test_orphans_and_child_index_gaps_are_flagged_in_path_order():
    nodes = given_nodes(d3())
    nodes[(2, 5)] = nodes.pop((2, 1, 1))
    nodes[(1, 3)] = nodes.pop((1, 0))
    nodes[(0, 1, 0)] = nodes[(0, 0)]
    nodes[(3, 0)] = nodes[(0, 0)]
    assert validate(Derivation(0, nodes), MODE_NPLS).lines() == [
        "(0,1,0): parent node is missing",
        "(3,0): parent node is missing",
        "(1): child indices [3] are not contiguous from 0",
        "(2): child indices [0, 1, 5] are not contiguous from 0",
    ]


def test_open_witness_is_flagged():
    d = d2()
    report = validate(_mutate(d, (1,), rule=ExistsRule(0, var("q"))), MODE_PLS)
    assert not report.ok
    assert any("not closed" in issue.message for issue in report.issues)


def test_detect_mode():
    assert detect_mode(d1()) == MODE_PLS
    assert detect_mode(d2()) == MODE_PLS
    assert detect_mode(d3()) == MODE_NPLS


def _root_only(sequent, rule):
    return Derivation(0, {(): ProofNode(sequent, rule)})


def test_detect_mode_finds_exists_forall_material_wherever_it_stands():
    ef = ExistsForall("z", num(1), "y", num(1), Literal(False, var("z"), var("y")))
    true = LitFormula(Literal(False, num(0), num(0)))
    assert detect_mode(_root_only((true,), InitialRule(0))) == MODE_PLS
    # As the cut formula alone, as a side formula alone, and as the
    # principal of an exists-forall rule.
    assert detect_mode(_root_only((true,), CutRule(ef))) == MODE_NPLS
    assert detect_mode(_root_only((true, ef), InitialRule(0))) == MODE_NPLS
    assert detect_mode(_root_only((ef,), ExistsForallRule(0, num(0)))) == MODE_NPLS


def test_an_unknown_rule_is_flagged_by_its_type_name():
    class Axiom:
        pass

    d = _root_only((LitFormula(Literal(False, num(0), num(0))),), Axiom())
    assert validate(d, MODE_PLS).lines() == ["(): unknown rule Axiom"]


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
        sequent = tnode.sequent
        if sequent is not None:
            sequent = tuple(substitute_formula(f, env) for f in sequent)
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
    [(t(), x) for t in (t_d2, stated_t_d2) for x in (0, 5)]
    + [(t(), x) for t in (t_d3, stated_t_d3) for x in (0, 1, 2, 3, 7, 50)]
    + [(_mixed_family_template(), x) for x in (0, 1, 3, 6)],
)
def test_memoised_expansion_matches_per_occurrence_substitution(template, x):
    want = derivation_to_json(_expand_per_occurrence(template, x))
    assert derivation_to_json(expand_template(template, x)) == want


def test_expansion_builds_a_formula_without_the_family_index_once():
    d = expand_template(_mixed_family_template(), 3)
    members = [(d.sequent((n,)), d.nodes[(n,)].rule) for n in range(4)]
    # closed and shadow do not mention i: one object for the family.
    for position in (0, 2):
        assert len({id(sequent[position]) for sequent, _ in members}) == 1
    # indexed and half do: one object per value of i.
    for position in (1, 3):
        assert len({id(sequent[position]) for sequent, _ in members}) == 4
    # The cut formula is the sequent's object at the same assignment.
    assert all(rule.formula is sequent[3] for sequent, rule in members)
    # So each member's cut rule is its own, one per value of i.
    assert len({id(rule) for _, rule in members}) == 4


def test_expansion_builds_a_rule_once_per_substituted_witness():
    d = expand_template(t_d3(), 5)
    family = [p for p in d.nodes if len(p) == 1][:-1]
    assert len(family) == 7
    # The family's existential rule has a closed witness: one rule object.
    assert len({id(d.nodes[p].rule) for p in family}) == 1


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
    table = FormulaTable({(): 0})
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

    table = FormulaTable({(): 0})
    ids = [table.intern(make(k)) for k in range(2000)]
    for a in range(7):
        for b in range(7):
            assert (ids[a] == ids[b]) == formulas_equal(make(a), make(b))
    assert ids == [ids[k % 7] for k in range(2000)]


# Validation shares its work between equal objects; sharing must not
# change a report.


def _template_sites(tnode, at=()):
    """Every (steps, kind, position) a one-leaf mutation can hit in a template.

    ``steps`` lead from the root to a template node: ``k`` to its k-th
    listed child, ``"f"`` to its family body.
    """
    sites = []
    if isinstance(tnode.rule, (ExistsRule, ExistsForallRule)):
        sites += [(at, "witness", None), (at, "principal", None)]
    for i, f in enumerate(tnode.sequent or ()):
        sites.append((at, "literal" if isinstance(f, LitFormula) else "bound", i))
    for k, child in enumerate(tnode.children):
        sites += _template_sites(child, at + (k,))
    if tnode.family is not None:
        sites += _template_sites(tnode.family.body, at + ("f",))
    return sites


def _mutated_node(tnode, kind, position, value):
    if kind == "witness":
        return dataclasses.replace(tnode, rule=dataclasses.replace(tnode.rule, witness=value))
    if kind == "principal":
        return dataclasses.replace(tnode, rule=dataclasses.replace(tnode.rule, principal=value))
    f = tnode.sequent[position]
    if kind == "literal":
        f = LitFormula(f.lit.negate())
    elif isinstance(f, ExistsLit):
        f = dataclasses.replace(f, bound=value)
    else:
        f = dataclasses.replace(f, bound2=value)
    sequent = tnode.sequent[:position] + (f,) + tnode.sequent[position + 1 :]
    return dataclasses.replace(tnode, sequent=sequent)


def _mutated_template(tnode, steps, kind, position, value):
    if not steps:
        return _mutated_node(tnode, kind, position, value)
    step, rest = steps[0], steps[1:]
    if step == "f":
        body = _mutated_template(tnode.family.body, rest, kind, position, value)
        return dataclasses.replace(tnode, family=dataclasses.replace(tnode.family, body=body))
    children = list(tnode.children)
    children[step] = _mutated_template(children[step], rest, kind, position, value)
    return dataclasses.replace(tnode, children=tuple(children))


# The fixtures state the root's sequent alone; their stated-sequent
# variants let a mutation reach any node's sequent.
_SHARING_TEMPLATES = {
    "T-D2": t_d2,
    "T-D3": t_d3,
    "stated T-D2": stated_t_d2,
    "stated T-D3": stated_t_d3,
    "mixed": _mixed_family_template,
}


def _assert_sharing_changes_no_report(shared, unshared):
    for mode in (MODE_PLS, MODE_NPLS):
        a, b = validate(shared, mode), validate(unshared, mode)
        assert a.issues == b.issues
        assert a.ok == b.ok


@pytest.mark.parametrize("x", [0, 1, 3, 7])
@pytest.mark.parametrize("name", sorted(_SHARING_TEMPLATES))
def test_validation_reports_alike_on_shared_and_per_occurrence_expansions(name, x):
    t = _SHARING_TEMPLATES[name]()
    _assert_sharing_changes_no_report(expand_template(t, x), _expand_per_occurrence(t, x))


_VALUES = st.one_of(
    st.integers(0, 5).map(num),
    st.sampled_from([var("x"), var("i"), var("q"), add(var("x"), num(1)), mul(var("i"), num(2))]),
)


@settings(deadline=None)
@given(
    st.sampled_from(sorted(_SHARING_TEMPLATES)),
    st.integers(0, 4),
    st.data(),
)
def test_validation_reports_alike_on_mutated_templates(name, x, data):
    t = _SHARING_TEMPLATES[name]()
    steps, kind, position = data.draw(st.sampled_from(_template_sites(t.root)))
    value = data.draw(st.integers(0, 4) if kind == "principal" else _VALUES)
    t = DerivationTemplate(_mutated_template(t.root, steps, kind, position, value))
    try:
        unshared = _expand_per_occurrence(t, x)
    except NplsError:
        # A family bound that no longer evaluates; expansion refuses it.
        with pytest.raises(NplsError):
            expand_template(t, x)
        return
    _assert_sharing_changes_no_report(expand_template(t, x), unshared)


def _per_occurrence_copy(d):
    """``d`` with every formula, witness and cut formula occurrence its own object."""
    return Derivation(
        d.end_x,
        {
            p: ProofNode(
                tuple(formula_from_json(formula_to_json(f)) for f in node.sequent),
                rule_from_json(rule_to_json(node.rule)),
            )
            for p, node in given_nodes(d).items()
        },
    )


@pytest.mark.parametrize("sigma", [1, 2])
def test_validation_reports_alike_on_random_derivations_without_sharing(sigma):
    generate = random_sigma1_derivation if sigma == 1 else random_sigma2_derivation
    for seed in range(60):
        d = generate(seed)
        _assert_sharing_changes_no_report(d, _per_occurrence_copy(d))


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_validation_checks_each_distinct_rule_and_literal_object_once(monkeypatch):
    import npls.derivation as derivation

    # Expansion builds the added formulas of T-D3's omitted sequents; the
    # counters start after it, so they count validation's calls alone.
    d = expand_template(t_d3(), 100)
    calls = _count_calls(monkeypatch, derivation, ("exists_instance", "eval_literal"))
    existential = []
    real = derivation._intern_added

    def intern_added(table, rule, f, n):
        if isinstance(rule, ExistsRule):
            existential.append(n)
        return real(table, rule, f, n)

    monkeypatch.setattr(derivation, "_intern_added", intern_added)
    assert validate(d, MODE_NPLS).ok
    # The 102 existential rules' children are derived: each holds its
    # added formula, which is interned as it stands and never built; the
    # 105 initial leaves share 4 literal objects.
    assert existential == []
    assert calls == {"exists_instance": 0, "eval_literal": 4}


def test_validation_builds_no_cut_instance_and_normalizes_each_quantified_object_once(
    monkeypatch,
):
    import npls.derivation as derivation

    built = []
    real_instance = derivation.negated_instance

    def negated_instance(f, n):
        built.append(n)
        return real_instance(f, n)

    monkeypatch.setattr(derivation, "negated_instance", negated_instance)
    d = expand_template(t_d3(), 100)
    # The root cut's 102 value-indexed uppers omit their sequents, so
    # expansion builds each one's negated instance exactly once.
    assert built == list(range(102))
    built.clear()
    normalized = []
    real = derivation.normalize
    monkeypatch.setattr(derivation, "normalize", lambda f: normalized.append(f) or real(f))
    assert validate(d, MODE_NPLS).ok
    # The root cut's 103 uppers each hold the formula they add, so
    # validation builds none and normalizes each as it stands.
    assert built == []
    quantified = [f for f in normalized if not isinstance(f, LitFormula)]
    objects = {id(f): f for node in d.nodes.values() for f in node.sequent}
    assert len({id(f) for f in quantified}) == len(quantified)
    assert all(objects.get(id(f)) is f for f in quantified)


def test_compact_expansion_substitutes_no_more_formulas_as_x_grows(monkeypatch):
    import npls.derivation as derivation

    calls = _count_calls(monkeypatch, derivation, ("substitute_formula",))
    counts = []
    for x in (10, 100):
        calls["substitute_formula"] = 0
        expand_template(t_d3(), x)
        counts.append(calls["substitute_formula"])
    # The root's end-formula and the cut formula; no other sequent is stated.
    assert counts == [2, 2]


@pytest.mark.parametrize("x", [0, 1, 3, 7, 50, 101, 400])
def test_compact_and_stated_templates_expand_alike(x):
    for compact, stated in ((t_d2, stated_t_d2), (t_d3, stated_t_d3)):
        got = derivation_to_json(expand_template(compact(), x))
        assert got == derivation_to_json(expand_template(stated(), x))


def _full_checks(monkeypatch, d, mode):
    """The children that ``validate`` hands to ``_check_child``, and its report."""
    import npls.derivation as derivation

    children = []
    real = derivation._check_child

    def check_child(table, child, *args):
        children.append(child)
        return real(table, child, *args)

    monkeypatch.setattr(derivation, "_check_child", check_child)
    return children, validate(d, mode)


def test_only_a_child_that_is_not_derived_takes_the_full_check(monkeypatch):
    from test_cli_golden import _broken_upper_d2

    for d in (expand_template(t_d3(), 50), random_sigma2_derivation(20)):
        children, report = _full_checks(monkeypatch, d, MODE_NPLS)
        assert report.ok
        assert children == []
    # D2's upper (1,0) adds 1+1 = 2 in place of the instance 2 = 1+1.
    broken = derivation_from_json(_broken_upper_d2())
    mismatch = "(1,0): upper sequent mismatch: missing 1 formula(s), 1 unexpected formula(s)"
    for mode, lines in (
        (MODE_PLS, [mismatch]),
        (MODE_NPLS, ["(): npls cuts must be on exists-forall formulas", mismatch]),
    ):
        children, report = _full_checks(monkeypatch, broken, mode)
        assert children == [(1, 0)], mode
        assert report.lines() == lines, mode


def test_a_derived_child_repeats_its_parents_class_flags(monkeypatch):
    # In pls mode the root's exists-forall formula exceeds the class at
    # index 0; the derived child states it again and adds a literal.
    ef = ExistsForall("z", num(1), "y", num(1), Literal(False, var("z"), var("y")))
    ex = ExistsLit("y", num(1), Literal(False, var("y"), num(0)))
    d = Derivation(
        0,
        {
            (): ProofNode((ef, ex), ExistsRule(1, num(0))),
            (0,): ProofNode((ef, ex, LitFormula(Literal(False, num(0), num(0)))), InitialRule(2)),
        },
    )
    children, report = _full_checks(monkeypatch, d, MODE_PLS)
    assert children == []
    assert report.lines() == [
        "(): formula 0 exceeds the pls quantifier class",
        "(0): formula 0 exceeds the pls quantifier class",
    ]


def test_a_huge_inner_bound_is_refused_by_the_child_count(monkeypatch):
    import npls.derivation as derivation

    built = []
    monkeypatch.setattr(
        derivation, "exists_forall_instance", lambda *args: built.append(args)
    )
    body = Literal(False, var("z"), var("y"))
    ef = ExistsForall("z", num(1), "y", num(2**63), body)
    lit = LitFormula(Literal(False, num(0), num(0)))
    d = Derivation(
        0,
        {
            (): ProofNode((ef,), ExistsForallRule(0, num(0))),
            (0,): ProofNode((ef, lit), InitialRule(1)),
        },
    )
    assert validate(d, MODE_NPLS).lines() == [
        f"(): exists-forall rule has 1 children, expected {2**63}"
    ]
    assert built == []


def _two_cuts_on_one_formula():
    """D2 with a second cut on D2's cut formula at the root cut's upper (1)."""
    end = ExistsLit("y", num(3), Literal(False, var("y"), add(num(1), num(1))))
    cut = ExistsLit("z", num(2), Literal(False, add(var("z"), num(1)), num(2)))
    end_inst = LitFormula(exists_instance(end, num(2)))
    cut_inst = LitFormula(exists_instance(cut, num(1)))
    neg0, neg1 = negated_instance(cut, 0), negated_instance(cut, 1)
    d = Derivation(
        0,
        {
            (): ProofNode((end,), CutRule(cut)),
            (0,): ProofNode((end, neg0), InitialRule(1)),
            (1,): ProofNode((end, neg1), CutRule(cut)),
            (1, 0): ProofNode((end, neg1, neg0), InitialRule(2)),
            (1, 1): ProofNode((end, neg1, neg1), ExistsRule(0, num(2))),
            (1, 1, 0): ProofNode((end, neg1, neg1, end_inst), InitialRule(3)),
            (1, 2): ProofNode((end, neg1, cut), ExistsRule(2, num(1))),
            (1, 2, 0): ProofNode((end, neg1, cut, cut_inst), InitialRule(3)),
            (2,): ProofNode((end, cut), ExistsRule(1, num(1))),
            (2, 0): ProofNode((end, cut, cut_inst), InitialRule(2)),
        },
    )
    return derivation_from_json(derivation_to_json(d))


def test_cuts_sharing_a_formula_are_checked_once_and_flagged_per_node():
    d = _two_cuts_on_one_formula()
    assert d.nodes[()].rule.formula is d.nodes[(1,)].rule.formula
    assert validate(d, MODE_PLS).ok
    # The root cut fills the shared facts first; the second cut's wrong
    # upper is still named by its own path.
    (end, neg1, neg0) = d.sequent((1, 0))
    bad = _mutate(d, (1, 0), sequent=(end, neg1, neg0, neg0))
    assert validate(bad, MODE_PLS).lines() == [
        "(1,0): upper sequent mismatch: 1 unexpected formula(s)"
    ]
    bad = _mutate(d, (1, 2), sequent=(end, neg1, neg1), rule=ExistsRule(0, num(2)))
    assert validate(bad, MODE_PLS).lines()[0] == (
        "(1,2): upper sequent mismatch: missing 1 formula(s), 1 unexpected formula(s)"
    )
    assert validate(d, MODE_NPLS).lines() == [
        "(): npls cuts must be on exists-forall formulas",
        "(1): npls cuts must be on exists-forall formulas",
    ]


# Validation decides which children are derived and builds the formula a
# stated child adds; it must decide, report and number formulas exactly
# as building by substitution, comparing with ``==`` and interning does.


def _built_added(f, witness, n):
    if n is None:
        return f
    if witness is None:
        return negated_instance(f, n)
    if isinstance(f, ExistsLit):
        return LitFormula(exists_instance(f, witness))
    return LitFormula(exists_forall_instance(f, witness, n))


def _oracle_added(rule, f, n):
    """What upper ``n`` of ``rule`` on ``f`` adds, built; None where it adds nothing."""
    if isinstance(rule, CutRule):
        if n is None or isinstance(f, (ExistsLit, ExistsForall)):
            return _built_added(f, None, n)
    elif isinstance(rule, ExistsRule):
        if n == 0 and isinstance(f, ExistsLit):
            return _built_added(f, rule.witness, n)
    elif isinstance(rule, ExistsForallRule):
        if isinstance(f, ExistsForall):
            return _built_added(f, rule.witness, n)
    return None


def _oracle_is_added(u, rule, f, n):
    added = _oracle_added(rule, f, n)
    return added is not None and u == added


def _oracle_intern_added(table, rule, f, n):
    """Build the added formula by substitution and intern it."""
    return table.intern(_oracle_added(rule, f, n))


def _agreeing(real, oracle):
    """``oracle``, asserting at each call that ``real`` answers the same."""

    def call(*args):
        want = oracle(*args)
        assert real(*args) == want, args
        return want

    return call


def _assert_derived_exactly_where_the_rule_adds(d):
    """A non-root node is derived exactly when its sequent is its parent's
    plus what the parent's rule adds there, the cut formula at a cut's
    last child, all read here from the whole sequents."""
    last = {}
    for p in d.nodes:
        if p:
            last[p[:-1]] = max(last.get(p[:-1], 0), p[-1])
    for p, node in d.nodes.items():
        q = p[:-1]
        added = None
        if p and q in d.nodes:
            rule, lower = d.nodes[q].rule, d.sequent(q)
            if isinstance(rule, CutRule):
                added = _oracle_added(rule, rule.formula, None if p[-1] == last[q] else p[-1])
            elif isinstance(rule, (ExistsRule, ExistsForallRule)):
                if 0 <= rule.principal < len(lower):
                    added = _oracle_added(rule, lower[rule.principal], p[-1])
        follows = added is not None and d.sequent(p) == lower + (added,)
        assert node.derived == follows, p


def _assert_validation_matches_oracle(d):
    import npls.derivation as derivation

    _assert_derived_exactly_where_the_rule_adds(d)
    # The same nodes given again, with each added formula and prefix
    # compared as built and with ``==``, and each stated child's added
    # formula built, where the package matches in place.
    oracle = {
        "_is_added": _agreeing(derivation._is_added, _oracle_is_added),
        "formula_is": _agreeing(derivation.formula_is, operator.eq),
        "_intern_added": _oracle_intern_added,
    }
    real = {name: getattr(derivation, name) for name in oracle}
    try:
        for name, value in oracle.items():
            setattr(derivation, name, value)
        rebuilt = Derivation(d.end_x, given_nodes(d))
        wants = [validate(rebuilt, mode) for mode in (MODE_PLS, MODE_NPLS)]
    finally:
        for name, value in real.items():
            setattr(derivation, name, value)
    assert rebuilt.nodes == d.nodes
    for mode, want in zip((MODE_PLS, MODE_NPLS), wants):
        got = validate(d, mode)
        assert got.issues == want.issues
        assert (got.table is None) == (want.table is None)
        if want.table is not None:
            assert got.table.formulas() == want.table.formulas()
            assert got.table.kb == want.table.kb
            assert got.table.added == want.table.added
            assert got.table.children == want.table.children
            assert got.table.rule == want.table.rule
            assert got.table.witness == want.table.witness
            assert got.table.principal == want.table.principal
            assert got.table.truth == want.table.truth
        if got.ok:
            # A valid derivation's numbering, counts and values, computed
            # from scratch.
            table = got.table
            kb = table.kb
            assert table.paths == list(postorder_index(d.nodes))
            assert all(table.parent[kb[p]] == kb[p[:-1]] for p in d.nodes if p)
            assert table.parent[kb[()]] == kb[()]
            children = {p: 0 for p in d.nodes}
            for p in d.nodes:
                if p:
                    children[p[:-1]] += 1
            assert table.children == [children[p] for p in table.paths]
            assert all(a is d.nodes[p].rule for a, p in zip(table.rule, table.paths))
            assert table.witness == [
                eval_term(node.rule.witness, d.end_x)
                if isinstance(node.rule, (ExistsRule, ExistsForallRule))
                else None
                for node in map(d.nodes.__getitem__, table.paths)
            ]
            # Each sequent is the root's plus what its branch added.
            root = list(map(table.intern, d.sequent(())))
            for p in d.nodes:
                branch = [table.added[kb[p[:k]]] for k in range(1, len(p) + 1)]
                assert sorted(map(table.intern, d.sequent(p))) == sorted(root + branch)


def _replace_sequents(d, edit):
    """``d`` with each non-root node's sequent replaced by ``edit(path, sequent)``."""
    nodes = {
        p: ProofNode(edit(p, node.sequent) if p else node.sequent, node.rule)
        for p, node in given_nodes(d).items()
    }
    return Derivation(d.end_x, nodes)


def _renamed(f, names):
    """``f`` with its bound variables renamed to ``names``, free ones kept."""
    if isinstance(f, ExistsLit):
        body = substitute_literal(f.body, {f.var: var(names[0])})
        return ExistsLit(names[0], f.bound, body)
    if isinstance(f, ExistsForall):
        body = substitute_literal(f.body, {f.var1: var(names[0]), f.var2: var(names[1])})
        return ExistsForall(names[0], f.bound1, names[1], f.bound2, body)
    return f


def _doubly_bound_cut():
    """A cut on ∃y<2 ∀y<2 (y·y = y), whose body only the inner y binds."""
    end = ExistsLit("y", num(4), Literal(False, mul(var("y"), var("y")), add(var("y"), var("y"))))
    cut = ExistsForall("y", num(2), "y", num(2), Literal(False, mul(var("y"), var("y")), var("y")))
    end_inst = LitFormula(exists_instance(end, num(2)))
    nodes = {(): ProofNode((end,), CutRule(cut))}
    for n in range(2):
        neg = negated_instance(cut, n)
        nodes[(n,)] = ProofNode((end, neg), ExistsRule(0, num(2)))
        nodes[(n, 0)] = ProofNode((end, neg, end_inst), InitialRule(2))
    nodes[(2,)] = ProofNode((end, cut), ExistsForallRule(1, num(0)))
    for m in range(2):
        branch = LitFormula(exists_forall_instance(cut, num(0), m))
        nodes[(2, m)] = ProofNode((end, cut, branch), InitialRule(2))
    return Derivation(0, nodes)


def test_a_doubly_bound_cut_validates_with_the_inner_binding():
    d = _doubly_bound_cut()
    assert d.sequent((1,))[1] == ExistsLit(
        "y", num(2), Literal(True, mul(var("y"), var("y")), var("y"))
    )
    assert validate(d, MODE_NPLS).ok
    _assert_validation_matches_oracle(d)
    # The uppers of the same cut with n put into the body do not match.
    outer = ExistsLit("y", num(2), Literal(True, mul(num(1), num(1)), num(1)))
    bad = _replace_sequents(d, lambda p, seq: seq[:1] + (outer,) + seq[2:] if p[0] == 1 else seq)
    assert validate(bad, MODE_NPLS).lines() == [
        "(1): upper sequent mismatch: missing 1 formula(s), 1 unexpected formula(s)"
    ]
    _assert_validation_matches_oracle(bad)


_MATCH_NAMES = ("x", "y", "z")
_match_terms = st.recursive(
    st.sampled_from(_MATCH_NAMES).map(var) | st.integers(0, 3).map(num),
    lambda inner: st.sampled_from(sorted(OPS)).flatmap(
        lambda op: st.tuples(*[inner] * _ARITY[op]).map(lambda args: Term(op, args))
    ),
    max_leaves=6,
)
_match_envs = st.dictionaries(
    st.sampled_from(_MATCH_NAMES), st.integers(0, 3) | _match_terms, max_size=3
)


def _as_terms(env):
    """``env`` with each int replaced by its numeral, as ``substitute_term`` takes it."""
    return {k: num(v) if isinstance(v, int) else v for k, v in env.items()}


@given(_match_terms, _match_envs, st.booleans(), _match_terms)
def test_the_term_matcher_is_equality_with_the_substituted_term(t, env, substituted, other):
    import npls.derivation as derivation

    want = substitute_term(t, _as_terms(env))
    u = want if substituted else other
    assert derivation._term_is(u, t, env) == (u == want)


_match_literals = st.builds(Literal, st.booleans(), _match_terms, _match_terms)
_match_bounds = st.integers(1, 3).map(num)


@st.composite
def _added_cases(draw, case):
    """One (f, witness, n) of ``case``: which rule or cut upper adds the formula."""
    if case in ("existential", "cut on an existential"):
        name = draw(st.sampled_from(_MATCH_NAMES))
        f = ExistsLit(name, draw(_match_bounds), draw(_match_literals))
    else:
        var1 = draw(st.sampled_from(_MATCH_NAMES))
        var2 = var1 if case.endswith("one name") else draw(st.sampled_from(_MATCH_NAMES))
        bound1, bound2 = draw(_match_bounds), draw(_match_bounds)
        f = ExistsForall(var1, bound1, var2, bound2, draw(_match_literals))
    witness = None if case.startswith("cut") else draw(_match_terms)
    if case == "existential":
        n = 0
    elif case.startswith("cut"):
        # None is the cut's final upper, which adds f itself.
        n = draw(st.none() | st.integers(0, 3))
    else:
        n = draw(st.integers(0, 3))
    return f, witness, n


_ADDED_CASES = (
    "existential",
    "cut on an existential",
    "exists-forall",
    "exists-forall on one name",
    "cut on an exists-forall",
    "cut on an exists-forall on one name",
)


@pytest.mark.parametrize("case", _ADDED_CASES)
@settings(deadline=None)
@given(st.data())
def test_the_added_formula_matcher_agrees_with_building_it(case, data):
    import npls.derivation as derivation

    f, witness, n = data.draw(_added_cases(case))
    # The upper's formula is the built one, or one built with some of f,
    # the witness and n drawn anew.
    g, w, m = data.draw(_added_cases(case))
    u = _built_added(
        g if data.draw(st.booleans()) else f,
        w if data.draw(st.booleans()) else witness,
        m if data.draw(st.booleans()) else n,
    )
    if witness is None:
        rule = CutRule(f)
    else:
        rule = (ExistsRule if isinstance(f, ExistsLit) else ExistsForallRule)(0, witness)
    assert derivation._is_added(u, rule, f, n) == (u == _built_added(f, witness, n))
    assert derivation._is_added(_built_added(f, witness, n), rule, f, n)


def _fixture_derivations():
    yield from (d1(), d2(), d3(), _doubly_bound_cut())
    for x in (0, 1, 3):
        yield expand_template(t_d2(), x)
        yield expand_template(t_d3(), x)


@pytest.mark.parametrize("names", [("w", "v"), ("@0", "@1"), ("@1", "@0"), ("y", "z")])
def test_validation_matches_the_oracle_on_renamed_bound_variables(names):
    for d in _fixture_derivations():
        _assert_validation_matches_oracle(
            _replace_sequents(d, lambda p, seq: tuple(_renamed(f, names) for f in seq))
        )
        _assert_validation_matches_oracle(
            _replace_sequents(d, lambda p, seq: seq[:-1] + (_renamed(seq[-1], names),))
        )


def test_validation_matches_the_oracle_when_the_added_formula_is_not_last():
    for d in _fixture_derivations():
        moved = _replace_sequents(d, lambda p, seq: seq[-1:] + seq[:-1])
        _assert_validation_matches_oracle(moved)
        _assert_validation_matches_oracle(_replace_sequents(d, lambda p, seq: seq[:-1]))


def _freed(f):
    """``f`` with the canonical names free where its bound variables stood.

    Normalizing renames the binders to those names, so ``f`` gets the
    id of the formula it was made from, though the two differ.
    """
    if isinstance(f, ExistsLit):
        return ExistsLit(f.var, f.bound, substitute_literal(f.body, {f.var: var("@0")}))
    if isinstance(f, ExistsForall):
        body = substitute_literal(f.body, {f.var1: var("@0"), f.var2: var("@1")})
        return ExistsForall(f.var1, f.bound1, f.var2, f.bound2, body)
    return LitFormula(Literal(f.lit.negated, f.lit.lhs, add(f.lit.rhs, var("@0"))))


def test_validation_matches_the_oracle_on_free_variables_named_like_canonical_ones():
    for d in _fixture_derivations():
        _assert_validation_matches_oracle(
            _replace_sequents(d, lambda p, seq: seq[:-1] + (_freed(seq[-1]),))
        )
        _assert_validation_matches_oracle(
            _replace_sequents(d, lambda p, seq: tuple(map(_freed, seq)))
        )
    # T-D3's value-indexed cut uppers, with the value left as a free @0.
    at0 = ExistsLit("y", num(2), Literal(True, mul(var("@0"), var("y")), var("y")))
    _assert_validation_matches_oracle(
        _replace_sequents(
            expand_template(t_d3(), 2), lambda p, seq: seq[:1] + (at0,) + seq[2:] if p[0] < 4 else seq
        )
    )


@pytest.mark.parametrize("sigma", [1, 2])
def test_validation_matches_the_oracle_on_random_derivations(sigma):
    generate = random_sigma1_derivation if sigma == 1 else random_sigma2_derivation
    for seed in range(60):
        _assert_validation_matches_oracle(generate(seed))


def _formula_leaves(doc, at=()):
    """Every (path, key) of a formula document whose value a one-leaf mutation replaces."""
    out = []
    for key, value in doc.items():
        if isinstance(value, dict):
            out += _formula_leaves(value, at + (key,))
        elif isinstance(value, list):
            for k, item in enumerate(value):
                out += _formula_leaves(item, at + (key, k))
        elif key in ("neg", "num", "var", "v"):
            out.append((at, key))
    return out


_LEAF_NAMES = st.sampled_from(["x", "y", "z", "w", "i", "@0", "@1"])


@settings(deadline=None)
@given(st.sampled_from(["T-D2", "T-D3"]), st.sampled_from([0, 1, 3, 7]), st.data())
def test_validation_matches_the_oracle_on_mutated_cut_uppers(name, x, data):
    d = expand_template(_SHARING_TEMPLATES[name](), x)
    n = data.draw(st.sampled_from(sorted(p[0] for p in d.nodes if len(p) == 1)))
    sequent = d.sequent((n,))
    position = data.draw(st.sampled_from(range(len(sequent))))
    doc = formula_to_json(sequent[position])
    at, key = data.draw(st.sampled_from(_formula_leaves(doc)))
    leaf = doc
    for step in at:
        leaf = leaf[step]
    if key == "neg":
        leaf[key] = not leaf[key]
    elif key == "num":
        leaf[key] = data.draw(st.integers(0, 4))
    else:
        leaf[key] = data.draw(_LEAF_NAMES)
    sequent = sequent[:position] + (formula_from_json(doc),) + sequent[position + 1 :]
    _assert_validation_matches_oracle(_mutate(d, (n,), sequent=sequent))
