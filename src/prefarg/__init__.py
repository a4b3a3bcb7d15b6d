"""Preference-based argumentation over stratified propositional bases.

Build arguments from a knowledge base, derive defeat and attack
relations shaped by certainty preferences, and evaluate acceptability
through acceptance classes and fixed-point extensions, with a
coherence-based cross-check on the side.
"""

from .arguments import (
    DEFAULT_CAP,
    Argument,
    ArgumentUniverse,
    build_universe,
    candidate_conclusions,
    minimal_supports,
    supp_of,
)
from .coherence import (
    CorrespondenceReport,
    Subbase,
    arg_of,
    check_correspondence,
    incl_subbases,
    max_consistent_subbases,
)
from .errors import (
    AFFormatError,
    CapExceededError,
    FormulaSyntaxError,
    KBFormatError,
    PrefArgError,
)
from .formulas import (
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    atoms,
    entails,
    equivalent,
    is_consistent,
    negate_canonical,
    parse_formula,
    render,
)
from .framework import (
    Framework,
    build_framework,
    parse_abstract_framework,
)
from .kb import BeliefRef, StratifiedKB, parse_kb, render_kb
from .semantics import (
    ExtensionReport,
    SelfCheckReport,
    class_cr,
    class_cr_pref,
    complete_extensions,
    conflict_free,
    evaluate,
    f_step,
    g_step,
    greatest_fixed_point,
    grounded_extension,
    self_check,
    stable_extensions,
)

__version__ = "0.1.0"

__all__ = [
    "AFFormatError",
    "And",
    "Argument",
    "ArgumentUniverse",
    "Atom",
    "BeliefRef",
    "CapExceededError",
    "CorrespondenceReport",
    "DEFAULT_CAP",
    "ExtensionReport",
    "Formula",
    "FormulaSyntaxError",
    "Framework",
    "Iff",
    "Implies",
    "KBFormatError",
    "Not",
    "Or",
    "PrefArgError",
    "SelfCheckReport",
    "StratifiedKB",
    "Subbase",
    "arg_of",
    "atoms",
    "build_framework",
    "build_universe",
    "candidate_conclusions",
    "check_correspondence",
    "class_cr",
    "class_cr_pref",
    "complete_extensions",
    "conflict_free",
    "entails",
    "equivalent",
    "evaluate",
    "f_step",
    "g_step",
    "greatest_fixed_point",
    "grounded_extension",
    "incl_subbases",
    "is_consistent",
    "max_consistent_subbases",
    "minimal_supports",
    "negate_canonical",
    "parse_abstract_framework",
    "parse_formula",
    "parse_kb",
    "render",
    "render_kb",
    "self_check",
    "stable_extensions",
    "supp_of",
]
