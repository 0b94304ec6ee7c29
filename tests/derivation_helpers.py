"""Derivation helpers that several test modules share."""

from npls.derivation import (
    CutRule,
    DerivationTemplate,
    ExistsForallRule,
    ExistsRule,
    FamilySpec,
    InitialRule,
    ProofNode,
    TemplateNode,
)
from npls.terms import (
    ExistsForall,
    ExistsLit,
    Literal,
    LitFormula,
    add,
    exists_instance,
    mul,
    negated_instance,
    num,
    var,
)


def given_nodes(d):
    """``d``'s nodes as a derivation is given: each with its whole sequent."""
    return {p: ProofNode(d.sequent(p), node.rule) for p, node in d.nodes.items()}


def _eq(lhs, rhs):
    return Literal(False, lhs, rhs)


def stated_t_d2() -> DerivationTemplate:
    """T-D2 with every node's sequent stated, so a test can change any of them."""
    end = ExistsLit("y", num(3), _eq(var("y"), add(num(1), num(1))))
    cut = ExistsLit("z", num(2), _eq(add(var("z"), num(1)), num(2)))
    end_inst = LitFormula(exists_instance(end, num(2)))
    cut_inst = LitFormula(exists_instance(cut, num(1)))
    neg0 = negated_instance(cut, 0)
    neg1 = negated_instance(cut, 1)
    return DerivationTemplate(
        TemplateNode(
            (end,),
            CutRule(cut),
            (
                TemplateNode((end, neg0), InitialRule(1)),
                TemplateNode(
                    (end, neg1),
                    ExistsRule(0, num(2)),
                    (TemplateNode((end, neg1, end_inst), InitialRule(2)),),
                ),
                TemplateNode(
                    (end, cut),
                    ExistsRule(1, num(1)),
                    (TemplateNode((end, cut, cut_inst), InitialRule(2)),),
                ),
            ),
        )
    )


def stated_t_d3() -> DerivationTemplate:
    """T-D3 with every node's sequent stated; the family body's names the index i."""
    end = ExistsLit("y", num(4), _eq(mul(var("y"), var("y")), add(var("y"), var("y"))))
    bound = add(var("x"), num(2))
    cut = ExistsForall("z", bound, "y", num(2), _eq(mul(var("z"), var("y")), var("y")))
    neg_i = ExistsLit("y", num(2), Literal(True, mul(var("i"), var("y")), var("y")))
    end_inst = LitFormula(exists_instance(end, num(2)))
    left = TemplateNode(
        (end, neg_i),
        ExistsRule(0, num(2)),
        (TemplateNode((end, neg_i, end_inst), InitialRule(2)),),
    )
    b01 = LitFormula(_eq(mul(num(0), num(1)), num(1)))
    b00 = LitFormula(_eq(mul(num(0), num(0)), num(0)))
    b10 = LitFormula(_eq(mul(num(1), num(0)), num(0)))
    b11 = LitFormula(_eq(mul(num(1), num(1)), num(1)))
    right = TemplateNode(
        (end, cut),
        ExistsForallRule(1, num(0)),
        (
            TemplateNode((end, cut, b00), InitialRule(2)),
            TemplateNode(
                (end, cut, b01),
                ExistsForallRule(1, num(1)),
                (
                    TemplateNode((end, cut, b01, b10), InitialRule(3)),
                    TemplateNode((end, cut, b01, b11), InitialRule(3)),
                ),
            ),
        ),
    )
    return DerivationTemplate(
        TemplateNode((end,), CutRule(cut), (right,), FamilySpec("i", bound, left))
    )
