from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from npls.errors import OpenTermError, ValueOverflow
from npls.terms import (
    ExistsForall,
    ExistsLit,
    LitFormula,
    Literal,
    Term,
    add,
    classify,
    cond,
    div2,
    eval_literal,
    eval_term,
    exists_forall_instance,
    exists_instance,
    formula_vars,
    formulas_equal,
    free_vars,
    length,
    monus,
    mul,
    negated_instance,
    normalize,
    num,
    smash,
    substitute_formula,
    substitute_literal,
    substitute_term,
    var,
)


def test_operation_semantics():
    cases = [
        (add(num(3), num(4)), 7),
        (mul(num(3), num(5)), 15),
        (monus(num(5), num(3)), 2),
        (monus(num(3), num(5)), 0),
        (length(num(0)), 0),
        (length(num(1)), 1),
        (length(num(5)), 3),
        (div2(num(7)), 3),
        (div2(num(0)), 0),
        (smash(num(3), num(5)), 64),
        (smash(num(0), num(9)), 1),
        (cond(num(2), num(8), num(9)), 8),
        (cond(num(0), num(8), num(9)), 9),
    ]
    for t, want in cases:
        assert eval_term(t) == want


def test_parameter_variable_binds_to_x():
    assert eval_term(add(var("x"), num(1)), 6) == 7
    assert eval_term(var("x")) == 0


def test_unbound_variable_raises():
    with pytest.raises(OpenTermError):
        eval_term(var("q"))


def test_bit_cap_rejects_large_values():
    with pytest.raises(ValueOverflow):
        eval_term(add(num(2**63), num(2**63)))
    with pytest.raises(ValueOverflow):
        eval_term(smash(num(2**40 - 1), num(2**40 - 1)))
    assert eval_term(num(2**64 - 1)) == 2**64 - 1
    with pytest.raises(ValueOverflow):
        eval_term(add(num(2**64 - 1), num(1)))
    assert eval_term(smash(num(2**8 - 1), num(2**7 - 1))) == 2**56
    with pytest.raises(ValueOverflow):
        eval_term(smash(num(2**8 - 1), num(2**8 - 1)))


def test_term_constructor_validation():
    with pytest.raises(ValueError):
        Term("bogus")
    with pytest.raises(ValueError):
        Term("add", (num(1),))
    with pytest.raises(ValueError):
        num(-1)
    with pytest.raises(ValueError):
        Term("var")


def test_free_vars_and_substitution():
    t = add(var("x"), mul(var("y"), num(2)))
    assert free_vars(t) == {"x", "y"}
    closed = substitute_term(t, {"x": num(1), "y": num(3)})
    assert free_vars(closed) == frozenset()
    assert eval_term(closed) == 7


_leaves = st.one_of(
    st.integers(min_value=0, max_value=7).map(num),
    st.just(var("x")),
)


def _branches(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: add(*ab)),
        pairs.map(lambda ab: mul(*ab)),
        pairs.map(lambda ab: monus(*ab)),
        children.map(length),
        children.map(div2),
        st.tuples(children, children, children).map(lambda abc: cond(*abc)),
    )


_terms = st.recursive(_leaves, _branches, max_leaves=8)


@given(_terms, st.integers(min_value=0, max_value=9))
def test_substitution_commutes_with_evaluation(t, k):
    closed = substitute_term(t, {"x": num(k)})
    assert free_vars(closed) == frozenset()
    assert eval_term(closed) == eval_term(t, k)


@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    st.booleans(),
)
def test_literal_negation_is_an_involution_and_flips_truth(a, b, neg):
    lit = Literal(neg, num(a), num(b))
    assert lit.negate().negate() == lit
    assert eval_literal(lit.negate()) == (not eval_literal(lit))


def test_classify():
    lit = Literal(False, num(1), num(1))
    assert classify(LitFormula(lit)) == 0
    assert classify(ExistsLit("y", num(3), lit)) == 1
    assert classify(ExistsForall("z", num(3), "y", num(2), lit)) == 2


@given(st.sampled_from(["y", "z", "w"]), st.sampled_from(["y", "z", "w"]))
def test_bound_variable_names_never_matter(n1, n2):
    a = ExistsLit(n1, num(5), Literal(False, var(n1), var("x")))
    b = ExistsLit(n2, num(5), Literal(False, var(n2), var("x")))
    assert formulas_equal(a, b)
    assert normalize(a) == normalize(normalize(a))
    c = ExistsForall(n1, num(5), n2, num(2), Literal(False, var(n1), var(n2)))
    if n1 != n2:
        d = ExistsForall(n2, num(5), n1, num(2), Literal(False, var(n2), var(n1)))
        assert formulas_equal(c, d)


def test_distinct_bounds_are_distinct_formulas():
    a = ExistsLit("y", num(5), Literal(False, var("y"), num(0)))
    b = ExistsLit("y", num(6), Literal(False, var("y"), num(0)))
    assert not formulas_equal(a, b)


def test_formula_vars_excludes_bound_and_includes_bound_terms():
    f = ExistsLit("y", add(var("x"), num(1)), Literal(False, var("y"), var("w")))
    assert formula_vars(f) == {"x", "w"}
    g = ExistsForall("z", var("a"), "y", var("b"), Literal(False, var("z"), var("y")))
    assert formula_vars(g) == {"a", "b"}


def test_substitute_formula_shadows_bound_variables():
    f = ExistsLit("y", var("x"), Literal(False, var("y"), var("x")))
    g = substitute_formula(f, {"x": num(3), "y": num(9)})
    assert g == ExistsLit("y", num(3), Literal(False, var("y"), num(3)))


def test_exists_instance():
    f = ExistsLit("y", num(4), Literal(False, add(var("y"), var("y")), num(4)))
    inst = exists_instance(f, num(2))
    assert inst == Literal(False, add(num(2), num(2)), num(4))
    assert eval_literal(inst)


def test_exists_forall_instance():
    f = ExistsForall("z", num(2), "y", num(2), Literal(False, mul(var("z"), var("y")), var("y")))
    inst = exists_forall_instance(f, num(1), 0)
    assert inst == Literal(False, mul(num(1), num(0)), num(0))


def test_negated_instance_shapes():
    ex = ExistsLit("y", num(3), Literal(False, var("y"), num(1)))
    assert negated_instance(ex, 2) == LitFormula(Literal(True, num(2), num(1)))
    ef = ExistsForall("z", num(2), "y", num(2), Literal(False, mul(var("z"), var("y")), var("y")))
    got = negated_instance(ef, 0)
    assert got == ExistsLit("y", num(2), Literal(True, mul(num(0), var("y")), var("y")))
    with pytest.raises(ValueError):
        negated_instance(LitFormula(Literal(False, num(1), num(1))), 0)


def test_negated_instance_lets_the_inner_binding_win():
    # Both quantifiers bind z, so z in the body is the inner one, as in
    # normalize and exists_forall_instance, and n does not reach it.
    body = Literal(False, mul(var("z"), var("z")), var("z"))
    ef = ExistsForall("z", num(3), "z", num(2), body)
    assert negated_instance(ef, 1) == ExistsLit("z", num(2), body.negate())
    assert normalize(ef).body.lhs == mul(var("@1"), var("@1"))
    assert exists_forall_instance(ef, num(1), 0) == Literal(False, mul(num(0), num(0)), num(0))


def test_normalize_never_captures_a_free_canonical_name():
    freed = ExistsLit("y", num(2), Literal(True, mul(num(0), var("@0")), var("@0")))
    bound = ExistsLit("y", num(2), Literal(True, mul(num(0), var("y")), var("y")))
    assert not formulas_equal(freed, bound)
    assert normalize(freed) == ExistsLit(
        "@1", num(2), Literal(True, mul(num(0), var("@0")), var("@0"))
    )
    # A canonical name free only in a bound is skipped too.
    ef = ExistsForall("z", var("@1"), "y", num(2), Literal(False, var("z"), add(var("y"), var("@0"))))
    assert normalize(ef) == ExistsForall(
        "@2", var("@1"), "@3", num(2), Literal(False, var("@2"), add(var("@3"), var("@0")))
    )


_NAMES = st.sampled_from(["y", "z", "@0", "@1", "@2"])


def _formula(binders, free, bound_free):
    """An exists-forall block over ``binders`` whose body and first bound name ``free``."""
    v1, v2 = binders
    body = Literal(False, mul(var(v1), var(free)), add(var(v2), num(1)))
    return ExistsForall(v1, var(bound_free), v2, num(2), body)


def _alpha_key(f):
    """``f`` with its binders renamed to names no formula here uses freely."""
    body = substitute_literal(f.body, {f.var1: var("#0"), f.var2: var("#1")})
    return ExistsForall("#0", f.bound1, "#1", f.bound2, body)


@given(st.tuples(_NAMES, _NAMES), st.tuples(_NAMES, _NAMES), _NAMES, _NAMES, _NAMES, _NAMES)
def test_normal_forms_are_equal_exactly_for_alpha_equivalent_formulas(b1, b2, f1, f2, g1, g2):
    f, g = _formula(b1, f1, g1), _formula(b2, f2, g2)
    assert formula_vars(normalize(f)) == formula_vars(f)
    assert normalize(normalize(f)) == normalize(f)
    assert (normalize(f) == normalize(g)) == (_alpha_key(f) == _alpha_key(g))
