"""Built-in inputs: worked derivations, templates, graphs, generators.

The hand-built derivations are small enough to trace by hand and are
pinned down to exact node paths in the tests.  The random generators
grow derivations top down and are valid by construction: every rule
they emit satisfies its side conditions, and any sequent can be closed
through the end-formula, whose designed witness is known from the
start.
"""

from __future__ import annotations

import random

from .derivation import (
    CutRule,
    Derivation,
    DerivationTemplate,
    ExistsForallRule,
    ExistsRule,
    FamilySpec,
    InitialRule,
    NodePath,
    ProofNode,
    TemplateNode,
)
from .nested_graph import DigraphTable, NestedGraphFamily, generate_family
from .terms import (
    ExistsForall,
    ExistsLit,
    Formula,
    LitFormula,
    Literal,
    add,
    eval_literal,
    eval_term,
    exists_forall_instance,
    exists_instance,
    mul,
    negated_instance,
    num,
    var,
)


def _eq(lhs, rhs) -> Literal:
    return Literal(False, lhs, rhs)


def d1() -> Derivation:
    """One existential rule over an initial leaf.

    Proves that 4 splits into two equal halves; the plain search on it
    solves at the root in a single step.
    """
    end = ExistsLit("y", num(4), _eq(add(var("y"), var("y")), num(4)))
    instance = LitFormula(exists_instance(end, num(2)))
    return Derivation(
        0,
        {
            (): ProofNode((end,), ExistsRule(0, num(2))),
            (0,): ProofNode((end, instance), InitialRule(1)),
        },
    )


def d2() -> Derivation:
    """A cut on a bounded existential, with one useless upper.

    The end-formula asks for a value equal to 1+1 below 3.  The cut
    formula asks for a value below 2 whose successor is 2; its upper at
    index 0 refutes a true negation and closes immediately, the upper
    at index 1 is the one the search lands on.
    """
    end = ExistsLit("y", num(3), _eq(var("y"), add(num(1), num(1))))
    cut = ExistsLit("z", num(2), _eq(add(var("z"), num(1)), num(2)))
    end_inst = LitFormula(exists_instance(end, num(2)))
    cut_inst = LitFormula(exists_instance(cut, num(1)))
    neg0 = negated_instance(cut, 0)
    neg1 = negated_instance(cut, 1)
    return Derivation(
        0,
        {
            (): ProofNode((end,), CutRule(cut)),
            (0,): ProofNode((end, neg0), InitialRule(1)),
            (1,): ProofNode((end, neg1), ExistsRule(0, num(2))),
            (1, 0): ProofNode((end, neg1, end_inst), InitialRule(2)),
            (2,): ProofNode((end, cut), ExistsRule(1, num(1))),
            (2, 0): ProofNode((end, cut, cut_inst), InitialRule(2)),
        },
    )


def d3() -> Derivation:
    """A cut on an exists-forall formula; the smallest nested example.

    The end-formula asks for a value whose square equals its double.
    The cut formula claims some z below 2 fixes every y below 2 under
    multiplication; z=1 does, z=0 does not.  The final upper commits to
    the wrong value first, so the nested search must descend twice:
    once to learn the branch on which z=0 fails, once to solve the row
    that witnesses the end-formula directly.
    """
    end = ExistsLit("y", num(4), _eq(mul(var("y"), var("y")), add(var("y"), var("y"))))
    cut = ExistsForall("z", num(2), "y", num(2), _eq(mul(var("z"), var("y")), var("y")))
    neg0 = negated_instance(cut, 0)
    neg1 = negated_instance(cut, 1)
    neg0_inst = LitFormula(exists_instance(neg0, num(1)))
    end_inst = LitFormula(exists_instance(end, num(2)))
    b00 = LitFormula(exists_forall_instance(cut, num(0), 0))
    b01 = LitFormula(exists_forall_instance(cut, num(0), 1))
    b10 = LitFormula(exists_forall_instance(cut, num(1), 0))
    b11 = LitFormula(exists_forall_instance(cut, num(1), 1))
    return Derivation(
        0,
        {
            (): ProofNode((end,), CutRule(cut)),
            (0,): ProofNode((end, neg0), ExistsRule(1, num(1))),
            (0, 0): ProofNode((end, neg0, neg0_inst), InitialRule(2)),
            (1,): ProofNode((end, neg1), ExistsRule(0, num(2))),
            (1, 0): ProofNode((end, neg1, end_inst), InitialRule(2)),
            (2,): ProofNode((end, cut), ExistsForallRule(1, num(0))),
            (2, 0): ProofNode((end, cut, b00), InitialRule(2)),
            (2, 1): ProofNode((end, cut, b01), ExistsForallRule(1, num(1))),
            (2, 1, 0): ProofNode((end, cut, b01, b10), InitialRule(3)),
            (2, 1, 1): ProofNode((end, cut, b01, b11), InitialRule(3)),
        },
    )


def t_d2() -> DerivationTemplate:
    """A constant template whose expansion at any x is exactly ``d2``.

    The two uppers of the cut differ in shape, so both are spelled out
    explicitly rather than through a family schema.
    """
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


def t_d3() -> DerivationTemplate:
    """A genuinely parameterized template with an exists-forall cut.

    The cut bound grows with x, so the number of value-indexed uppers
    does too; they all share one family schema that proves the
    end-formula outright.  The explicit final upper commits to z=0,
    whose y=1 branch fails and continues with z=1.
    """
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


def g1() -> DigraphTable:
    """Six nodes, seven edges, one sink; descent from 0 visits 0, 1, 5."""
    return DigraphTable(
        6,
        [[0, 1], [0, 2], [1, 5], [2, 3], [3, 4], [4, 5], [5, 5]],
        [5, 4, 4, 2, 1, 0],
    )


def ng2() -> NestedGraphFamily:
    """A fixed rank-2 family drawn from the generator."""
    return generate_family(seed=7, max_rank=2, max_width=4)


FIXTURES = {
    "D1": d1,
    "D2": d2,
    "D3": d3,
    "T-D2": t_d2,
    "T-D3": t_d3,
    "G1": g1,
    "NG2": ng2,
}


# Random derivations


def _fresh_exists_cut(rng: random.Random) -> ExistsLit:
    b = 1 + rng.randrange(3)
    a = rng.randrange(3)
    t = rng.randrange(5)
    return ExistsLit("z", num(b), _eq(add(var("z"), num(a)), num(t)))


def _fresh_exists_forall_cut(rng: random.Random) -> ExistsForall:
    b1 = 1 + rng.randrange(3)
    b2 = 1 + rng.randrange(2)
    z, y = var("z"), var("y")
    body = rng.choice(
        (
            _eq(mul(z, y), y),
            _eq(add(z, y), y),
            _eq(mul(z, y), num(0)),
            Literal(True, add(z, num(rng.randrange(2))), num(rng.randrange(3))),
        )
    )
    return ExistsForall("z", num(b1), "y", num(b2), body)


# A generator's fresh cut formula, and the roll thresholds below which it
# cuts, applies an exists-forall rule and applies an existential rule.
_SIGMA1_MOVES = (_fresh_exists_cut, 0.35, 0.35, 0.6)
_SIGMA2_MOVES = (_fresh_exists_forall_cut, 0.3, 0.55, 0.75)


class _Grower:
    """The growth loop of both derivation generators; ``nodes`` is the tree.

    The end-formula is designed together with a witness value, so any
    sequent extending the end-sequent can be closed in at most two
    nodes; every other growth step preserves validity on its own.  The
    root cuts on a fresh formula.  ``grow`` closes a node on a true
    literal, or through the end-formula once the depth or node budget
    runs low; otherwise one roll against the generator's thresholds
    picks a fresh cut, the exists-forall rule (an empty range for
    Sigma-1, and a sequent without such a formula falls through), the
    existential rule, or closing.  The end-formula's bound is at least
    1, so the existential rule always has a formula to apply.
    """

    def __init__(self, seed: int, moves, max_depth: int, max_nodes: int):
        self.rng = rng = random.Random(seed)
        self.witness = w = rng.randrange(4)
        c = rng.randrange(4)
        b = w + 1 + rng.randrange(3)
        self.end = ExistsLit("y", num(b), _eq(add(var("y"), num(c)), num(w + c)))
        self.fresh_cut, self.cut_below, self.forall_below, self.exists_below = moves
        self.max_depth, self.max_nodes = max_depth, max_nodes
        self.nodes: dict[NodePath, ProofNode] = {}
        self.cut_step((), (self.end,), 0, self.fresh_cut(rng))

    def grow(self, path: NodePath, sequent: tuple[Formula, ...], depth: int) -> None:
        f = sequent[-1]  # the parent closed on no literal, so only the new one can hold
        if isinstance(f, LitFormula) and eval_literal(f.lit):
            self.nodes[path] = ProofNode(sequent, InitialRule(len(sequent) - 1))
            return
        if depth >= self.max_depth - 2 or self.max_nodes - len(self.nodes) < 16:
            self.close(path, sequent)
            return
        roll = self.rng.random()
        if roll < self.cut_below:
            self.cut_step(path, sequent, depth, self.fresh_cut(self.rng))
            return
        if roll < self.forall_below and self.forall_step(path, sequent, depth):
            return
        if roll < self.exists_below:
            self.exists_step(path, sequent, depth)
            return
        self.close(path, sequent)

    def close(self, path: NodePath, sequent: tuple[Formula, ...]) -> None:
        self.nodes[path] = ProofNode(sequent, ExistsRule(0, num(self.witness)))
        child = sequent + (LitFormula(exists_instance(self.end, num(self.witness))),)
        self.nodes[path + (0,)] = ProofNode(child, InitialRule(len(child) - 1))

    def exists_step(self, path: NodePath, sequent, depth) -> None:
        candidates = [
            i
            for i, f in enumerate(sequent)
            if isinstance(f, ExistsLit) and eval_term(f.bound) > 0
        ]
        k = self.rng.choice(candidates)
        f = sequent[k]
        v = num(self.rng.randrange(eval_term(f.bound)))
        self.nodes[path] = ProofNode(sequent, ExistsRule(k, v))
        self.grow(path + (0,), sequent + (LitFormula(exists_instance(f, v)),), depth + 1)

    def forall_step(self, path: NodePath, sequent, depth) -> bool:
        candidates = [i for i, f in enumerate(sequent) if isinstance(f, ExistsForall)]
        if not candidates:
            return False
        k = self.rng.choice(candidates)
        f = sequent[k]
        v = num(self.rng.randrange(eval_term(f.bound1)))
        self.nodes[path] = ProofNode(sequent, ExistsForallRule(k, v))
        for n in range(eval_term(f.bound2)):
            child = sequent + (LitFormula(exists_forall_instance(f, v, n)),)
            self.grow(path + (n,), child, depth + 1)
        return True

    def cut_step(self, path: NodePath, sequent, depth, formula) -> None:
        b = eval_term(formula.bound if isinstance(formula, ExistsLit) else formula.bound1)
        self.nodes[path] = ProofNode(sequent, CutRule(formula))
        for i in range(b):
            self.grow(path + (i,), sequent + (negated_instance(formula, i),), depth + 1)
        self.grow(path + (b,), sequent + (formula,), depth + 1)


def random_sigma1_derivation(
    seed: int, max_depth: int = 8, max_nodes: int = 400
) -> Derivation:
    """A random derivation in pls mode whose root is a cut.

    Growth chooses among cutting on a fresh bounded existential,
    instantiating some existential in the sequent with an arbitrary
    value below its bound, and closing through the end-formula.  Any
    true literal closes its node immediately.
    """
    return Derivation(seed % 3, _Grower(seed, _SIGMA1_MOVES, max_depth, max_nodes).nodes)


def random_sigma2_derivation(
    seed: int, max_depth: int = 10, max_nodes: int = 400
) -> Derivation:
    """A random derivation in npls mode whose root is an exists-forall cut.

    On top of the pls growth moves, a sequent containing an
    exists-forall formula may apply its rule with an arbitrary value
    below the outer bound, branching once per value below the inner
    bound.  Inner bounds stay positive so every such rule has uppers.
    """
    return Derivation(seed % 3, _Grower(seed, _SIGMA2_MOVES, max_depth, max_nodes).nodes)
