"""Nested polynomial local search over proof trees and graph families.

The package has three layers.  ``search_core`` defines nested local
search instances, of which a plain instance is the one-row rank-zero
case, one solver for both, and an enumerating checker for the nine
conditions every instance must satisfy.
``derivation`` and ``terms`` form a small sequent calculus for bounded
arithmetic; ``extraction`` compiles its derivations into search
instances whose solutions carry verified witnesses of the end-formula.
``nested_graph`` provides the combinatorial model: cost-decreasing
digraphs stacked into families, with a deterministic generator.
"""

from .corpus import (
    FIXTURES,
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
from .derivation import (
    MODE_NPLS,
    MODE_PLS,
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
    ValidationReport,
    detect_mode,
    expand_template,
    format_path,
    postorder_index,
    substitute_numeral,
    validate,
)
from .errors import (
    FormatError,
    ModeError,
    NplsError,
    NotASolution,
    StepBudgetExceeded,
    ValidationFailed,
)
from .extraction import (
    ExtractionContext,
    WitnessReport,
    build_npls,
    build_pls,
    extract_witness_npls,
    extract_witness_pls,
    pls_neighbor,
    rightmost_goal,
    source_condition,
    target_condition,
)
from .nested_graph import (
    DigraphTable,
    NestedGraphFamily,
    generate_family,
    npls_from_family,
    pls_from_digraph,
)
from .search_core import (
    CONDITION_NAMES,
    ConditionCheck,
    ConditionReport,
    NplsInstance,
    SearchTrace,
    TraceStep,
    brute_force_npls,
    plain_instance,
    solve_npls,
    solve_pls,
    verify_npls_conditions,
)
from .serialization import (
    derivation_from_json,
    derivation_to_json,
    digraph_to_json,
    document_from_json,
    document_to_json,
    dumps,
    family_to_json,
    loads_document,
    template_from_json,
    template_to_json,
)
from .terms import (
    BIT_CAP,
    ExistsForall,
    ExistsLit,
    Formula,
    LitFormula,
    Literal,
    Term,
    add,
    classify,
    cond,
    div2,
    eval_literal,
    eval_term,
    formulas_equal,
    length,
    monus,
    mul,
    negated_instance,
    normalize,
    num,
    smash,
    substitute_formula,
    substitute_term,
    var,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
