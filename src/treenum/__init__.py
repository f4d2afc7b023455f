"""treenum: number the derivation trees of a context-free grammar.

Every natural number names exactly one derivation tree and vice versa
(``decode``/``encode``), built from pairing functions and a stack of
naturals packed into a single natural.  A second decoder (``lz_decode``)
spends small indices on back-references to already-built subtrees.
"""

from .codec import (
    DEFAULT_STEP_BUDGET,
    DecodeStats,
    StepBudgetExceeded,
    decode,
    encode,
    enumerate_trees,
)
from .grammar import (
    DerivationTree,
    Grammar,
    GrammarSyntaxError,
    InvalidGrammarError,
    Rule,
    SexprSyntaxError,
    TreeNotInGrammarError,
    ValidationReport,
    Violation,
    check_grammar,
    format_grammar,
    leaves,
    load_grammar,
    node_count,
    parse_grammar,
    rule_index_of,
    sexpr_to_tree,
    subtrees,
    tree_to_json_obj,
    tree_to_sexpr,
    validate,
    verify_tree,
    yield_of,
)
from .intstack import IntegerizedStack, join
from .lz import MIN_TARGET_NODES, default_eligibility, diff_report, lz_decode
from .oracle import BijectionReport, all_trees, bijection_check
from .pairing import (
    LEAF,
    BinaryTree,
    cantor_pair,
    cantor_unpair,
    isqrt,
    mod_pair,
    mod_unpair,
    phi_decode,
    phi_encode,
    rs_pair,
    rs_unpair,
)

__version__ = "0.1.0"

__all__ = [
    "BijectionReport",
    "BinaryTree",
    "DEFAULT_STEP_BUDGET",
    "DecodeStats",
    "DerivationTree",
    "Grammar",
    "GrammarSyntaxError",
    "IntegerizedStack",
    "InvalidGrammarError",
    "LEAF",
    "MIN_TARGET_NODES",
    "Rule",
    "SexprSyntaxError",
    "StepBudgetExceeded",
    "TreeNotInGrammarError",
    "ValidationReport",
    "Violation",
    "all_trees",
    "bijection_check",
    "cantor_pair",
    "cantor_unpair",
    "check_grammar",
    "decode",
    "default_eligibility",
    "diff_report",
    "encode",
    "enumerate_trees",
    "format_grammar",
    "isqrt",
    "join",
    "leaves",
    "load_grammar",
    "lz_decode",
    "mod_pair",
    "mod_unpair",
    "node_count",
    "parse_grammar",
    "phi_decode",
    "phi_encode",
    "rs_pair",
    "rs_unpair",
    "rule_index_of",
    "sexpr_to_tree",
    "subtrees",
    "tree_to_json_obj",
    "tree_to_sexpr",
    "validate",
    "verify_tree",
    "yield_of",
]
