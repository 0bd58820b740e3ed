"""Toolkit for the logic of reason-based belief.

The package splits along the usual lines: `syntax` defines formulas,
`parser` reads and prints them, `theory` names the family members,
`proof` checks Hilbert derivations, `library` carries the stock of
checked ones, `semantics` evaluates formulas on finite neighborhood
models, `search` hunts for bounded witnesses and countermodels, and
`jtb` builds knowledge ascriptions and analyzes the stock scenarios.
The names most callers need are re-exported here.
"""

from .jtb import (
    QueryResult,
    QueryStatus,
    Scenario,
    ScenarioReport,
    analyze_scenario,
    jtb_e,
    jtb_e_r,
    jtb_i,
    jtb_i_r,
    jtb_nil,
    nil,
    scenario,
)
from .library import derived_library
from .parser import ParseError, parse, print_formula
from .proof import (
    ACCEPTED,
    Axiom,
    Cite,
    E,
    Gen,
    MP,
    Proof,
    ProofStep,
    RN,
    Theorem,
    Verdict,
    check_proof,
    proof_from_doc,
    proof_to_doc,
)
from .search import (
    BudgetExceeded,
    Exhausted,
    SearchBounds,
    SearchOutcome,
    Witness,
    check_nonvalidity,
    find_model,
    find_models,
    iter_witnesses,
    outcome_to_doc,
)
from .semantics import (
    Model,
    PropertyReport,
    Violation,
    check_rc,
    ensure_in_language,
    extension,
    make_model,
    model_from_doc,
    model_to_doc,
    satisfies,
    validate_model,
)
from .syntax import (
    Adequate,
    App,
    Believes,
    Eq,
    ForAll,
    Formula,
    Letter,
    Not,
    Or,
    Reason,
    Supports,
    atom_term,
    conj,
    disj,
    exists,
    iff,
    impl,
)
from .theory import SchemeId, TheoryConfig, is_tautology_instance, match_axiom

__all__ = [name for name in dir() if not name.startswith("_")]
