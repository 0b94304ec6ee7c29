"""Terms, literals and bounded formulas of the proof kernel.

The term signature is a small set of polynomial-time functions on
naturals: addition, multiplication, truncated subtraction, binary
length, smash (2 to the product of lengths), floor halving and a
conditional.  Every function is monotone in the size of its inputs, so
closed terms evaluate in time polynomial in their bit length.  A
fixed cap of ``BIT_CAP`` (64) bits turns runaway values into errors
instead of silently huge integers.

Formulas come in exactly three shapes: a literal (an equation or its
negation), a bounded existential over a literal, and a bounded
existential-universal block over a literal.  Deeper prefixes never
occur in the derivations this package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .errors import OpenTermError, ValueOverflow

BIT_CAP = 64

_ARITY = {
    "num": 0,
    "var": 0,
    "add": 2,
    "mul": 2,
    "monus": 2,
    "len": 1,
    "smash": 2,
    "div2": 1,
    "cond": 3,
}

OPS = frozenset(_ARITY) - {"num", "var"}

# Validation, evaluation and hashing all recurse on a term's nesting, so
# a term whose operations nest deeper than this is malformed input.
MAX_TERM_DEPTH = 256


@dataclass(frozen=True)
class Term:
    op: str
    args: tuple["Term", ...] = ()
    value: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _ARITY:
            raise ValueError(f"unknown term operation {self.op!r}")
        if len(self.args) != _ARITY[self.op]:
            raise ValueError(f"{self.op} expects {_ARITY[self.op]} arguments")
        if self.op == "num" and (self.value is None or self.value < 0):
            raise ValueError("numerals carry a non-negative value")
        if self.op == "var" and not self.name:
            raise ValueError("variables carry a name")


def num(value: int) -> Term:
    return Term("num", value=value)


def var(name: str) -> Term:
    return Term("var", name=name)


def add(a: Term, b: Term) -> Term:
    return Term("add", (a, b))


def mul(a: Term, b: Term) -> Term:
    return Term("mul", (a, b))


def monus(a: Term, b: Term) -> Term:
    return Term("monus", (a, b))


def length(a: Term) -> Term:
    return Term("len", (a,))


def smash(a: Term, b: Term) -> Term:
    return Term("smash", (a, b))


def div2(a: Term) -> Term:
    return Term("div2", (a,))


def cond(a: Term, b: Term, c: Term) -> Term:
    return Term("cond", (a, b, c))


def free_vars(t: Term) -> frozenset[str]:
    if t.op == "var":
        return frozenset((t.name,))
    if t.op == "num":
        return frozenset()
    out: frozenset[str] = frozenset()
    for a in t.args:
        out |= free_vars(a)
    return out


def nests_too_deep(terms: tuple[Term, ...]) -> bool:
    """Whether any of ``terms`` nests more than ``MAX_TERM_DEPTH`` operations.

    It steps down one level at a time, each distinct object once per
    level, so it recurses nowhere and a shared subterm is not copied.
    """
    level = terms
    for _ in range(MAX_TERM_DEPTH + 1):
        level = {id(a): a for t in level for a in t.args}.values()
        if not level:
            return False
    return True


def substitute_term(t: Term, env: Mapping[str, Term]) -> Term:
    """Replace free variables of t by the terms bound to them in env."""
    if t.op == "var":
        return env.get(t.name, t)
    if t.op == "num":
        return t
    return Term(t.op, tuple(substitute_term(a, env) for a in t.args))


def _eval(t: Term, env: Mapping[str, int]) -> int:
    if t.op == "num":
        out = t.value
    elif t.op == "var":
        if t.name not in env:
            raise OpenTermError(f"unbound variable {t.name!r}")
        out = env[t.name]
    else:
        vals = [_eval(a, env) for a in t.args]
        if t.op == "add":
            out = vals[0] + vals[1]
        elif t.op == "mul":
            out = vals[0] * vals[1]
        elif t.op == "monus":
            out = max(vals[0] - vals[1], 0)
        elif t.op == "len":
            out = vals[0].bit_length()
        elif t.op == "smash":
            exponent = vals[0].bit_length() * vals[1].bit_length()
            if exponent >= BIT_CAP:
                raise ValueOverflow(f"smash exponent {exponent} exceeds {BIT_CAP} bits")
            out = 1 << exponent
        elif t.op == "div2":
            out = vals[0] // 2
        else:  # cond
            out = vals[1] if vals[0] > 0 else vals[2]
    if out.bit_length() > BIT_CAP:
        raise ValueOverflow(f"value of {t.op} needs {out.bit_length()} bits, cap is {BIT_CAP}")
    return out


def eval_term(t: Term, x: int = 0) -> int:
    """Evaluate a term closed up to the parameter variable ``x``."""
    return _eval(t, {"x": x})


@dataclass(frozen=True)
class Literal:
    """An equation between two terms, possibly negated."""

    negated: bool
    lhs: Term
    rhs: Term

    def negate(self) -> "Literal":
        return Literal(not self.negated, self.lhs, self.rhs)


def literal_vars(lit: Literal) -> frozenset[str]:
    return free_vars(lit.lhs) | free_vars(lit.rhs)


def substitute_literal(lit: Literal, env: Mapping[str, Term]) -> Literal:
    return Literal(lit.negated, substitute_term(lit.lhs, env), substitute_term(lit.rhs, env))


def eval_literal(lit: Literal, x: int = 0) -> bool:
    env = {"x": x}
    holds = _eval(lit.lhs, env) == _eval(lit.rhs, env)
    return holds != lit.negated


# Bounded formulas


@dataclass(frozen=True)
class LitFormula:
    """A quantifier-free formula: a single literal."""

    lit: Literal


@dataclass(frozen=True)
class ExistsLit:
    """A bounded existential over a literal: exists var < bound, body."""

    var: str
    bound: Term
    body: Literal


@dataclass(frozen=True)
class ExistsForall:
    """A bounded exists-forall block: exists v1 < b1, forall v2 < b2, body."""

    var1: str
    bound1: Term
    var2: str
    bound2: Term
    body: Literal


Formula = Union[LitFormula, ExistsLit, ExistsForall]

# Canonical bound-variable names are "@0", "@1", ...; "@" keeps them out
# of the usual user namespace, and normalize skips any that occur free.
_CANON = ("@0", "@1")
_CANON_VARS = tuple(map(var, _CANON))


def _canonical_vars(free: frozenset[str]) -> tuple[Term, Term]:
    """The variables of the first two canonical names that are not in ``free``."""
    if free.isdisjoint(_CANON):
        return _CANON_VARS
    names = [f"@{k}" for k in range(len(free) + 2) if f"@{k}" not in free]
    return var(names[0]), var(names[1])


def classify(f: Formula) -> int:
    """Quantifier complexity of a formula: 0, 1 or 2."""
    if isinstance(f, LitFormula):
        return 0
    if isinstance(f, ExistsLit):
        return 1
    return 2


def normalize(f: Formula) -> Formula:
    """Rename bound variables to canonical names.

    Two formulas are treated as equal throughout the package exactly
    when their normal forms are equal, so the choice of bound-variable
    names in input files never matters.  Each bound variable gets the
    first canonical name, in the order ``@0``, ``@1``, ..., that is not
    free in the formula, so no free variable is captured.  The choice
    depends on the free variables alone, so formulas that differ only
    in their bound-variable names keep one normal form.
    """
    if isinstance(f, LitFormula):
        return f
    v0, v1 = _canonical_vars(formula_vars(f))
    if isinstance(f, ExistsLit):
        body = substitute_literal(f.body, {f.var: v0})
        return ExistsLit(v0.name, f.bound, body)
    body = substitute_literal(f.body, {f.var1: v0, f.var2: v1})
    return ExistsForall(v0.name, f.bound1, v1.name, f.bound2, body)


def formulas_equal(a: Formula, b: Formula) -> bool:
    return normalize(a) == normalize(b)


def formula_vars(f: Formula) -> frozenset[str]:
    """Free variables of a formula; bound variables are excluded."""
    if isinstance(f, LitFormula):
        return literal_vars(f.lit)
    if isinstance(f, ExistsLit):
        return (literal_vars(f.body) - {f.var}) | free_vars(f.bound)
    bound_vars = {f.var1, f.var2}
    return (literal_vars(f.body) - bound_vars) | free_vars(f.bound1) | free_vars(f.bound2)


def substitute_formula(f: Formula, env: Mapping[str, Term]) -> Formula:
    """Substitute into the free positions of a formula.

    Bound variables shadow the environment, so a quantifier never
    captures a substituted term.
    """
    if isinstance(f, LitFormula):
        return LitFormula(substitute_literal(f.lit, env))
    if isinstance(f, ExistsLit):
        inner = {k: v for k, v in env.items() if k != f.var}
        return ExistsLit(f.var, substitute_term(f.bound, env), substitute_literal(f.body, inner))
    inner = {k: v for k, v in env.items() if k not in (f.var1, f.var2)}
    return ExistsForall(
        f.var1,
        substitute_term(f.bound1, env),
        f.var2,
        substitute_term(f.bound2, env),
        substitute_literal(f.body, inner),
    )


def exists_instance(f: ExistsLit, witness: Term) -> Literal:
    """The literal obtained by plugging a witnessing term into the body."""
    return substitute_literal(f.body, {f.var: witness})


def exists_forall_instance(f: ExistsForall, witness: Term, branch: int) -> Literal:
    """The body literal at a witnessing term and one universal branch value."""
    return substitute_literal(f.body, {f.var1: witness, f.var2: num(branch)})


def negated_instance(f: Formula, n: int) -> Formula:
    """The negation of the formula instantiated at value n.

    For a bounded existential over a literal this is a negated literal;
    for an exists-forall block it is a bounded existential over the
    negated body.  These are exactly the formulas a cut introduces in
    its value-indexed upper sequents.  When both quantifiers of the
    block bind one name, the inner one binds the body, which n leaves
    unchanged.
    """
    if isinstance(f, ExistsLit):
        return LitFormula(exists_instance(f, num(n)).negate())
    if isinstance(f, ExistsForall):
        body = f.body if f.var1 == f.var2 else substitute_literal(f.body, {f.var1: num(n)})
        return ExistsLit(f.var2, f.bound2, body.negate())
    raise ValueError("negated instances exist only for quantified formulas")
