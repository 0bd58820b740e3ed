"""Hilbert-style proof objects and the step checker.

A proof is a non-empty numbered list of formulas, each justified as an axiom
instance, by modus ponens, reason necessitation, belief extensionality,
generalization, or by citing a named theorem from a library.  Checking is a
pure function of the proof and the library: no deduction theorem, no
hypothetical reasoning, every step stands on earlier steps only.

Structural defects (bad indices, goal mismatch) raise at construction;
logical defects produce a :class:`Verdict` rejecting the earliest bad step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .parser import ParseError, parse, print_formula, print_reason
from .syntax import (
    Adequate,
    Believes,
    Formula,
    ForAll,
    Reason,
    Supports,
    _brief,
    as_iff,
    contains_app,
    iff,
    impl,
    term_name,
)
from .theory import SchemeId, SkeletonTooLarge, TheoryConfig, match_axiom


class UnknownCitation(ValueError):
    """A Cite justification names a theorem absent from the library."""


class TheoryMismatch(ValueError):
    """A cited theorem was checked under a theory the citing proof does not extend."""


class FixtureCorrupt(Exception):
    """A bundled library derivation failed its own check."""


@dataclass(frozen=True)
class Axiom:
    scheme: SchemeId


@dataclass(frozen=True)
class MP:
    """From step ``antecedent`` and step ``implication`` = (antecedent -> current)."""

    antecedent: int
    implication: int


@dataclass(frozen=True)
class RN:
    source: int
    reason: Reason


@dataclass(frozen=True)
class E:
    source: int


@dataclass(frozen=True)
class Gen:
    source: int
    var: str


@dataclass(frozen=True)
class Cite:
    name: str


Justification = Union[Axiom, MP, RN, E, Gen, Cite]


def _referenced(just: Justification) -> tuple[int, ...]:
    if isinstance(just, MP):
        return (just.antecedent, just.implication)
    if isinstance(just, (RN, E, Gen)):
        return (just.source,)
    return ()


@dataclass(frozen=True)
class ProofStep:
    index: int
    formula: Formula
    just: Justification


@dataclass(frozen=True)
class Proof:
    theory: TheoryConfig
    name: str
    goal: Formula
    steps: tuple[ProofStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("a proof needs at least one step")
        for pos, step in enumerate(self.steps, start=1):
            if step.index != pos:
                raise ValueError(f"step {pos} is numbered {step.index}")
            for ref in _referenced(step.just):
                if not 1 <= ref < pos:
                    raise ValueError(f"step {pos} references step {ref}")
        if self.steps[-1].formula != self.goal:
            raise ValueError("the last step must be the goal")


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step: int | None = None
    diagnostic: str | None = None

    @classmethod
    def rejected(cls, step: int, diagnostic: str) -> "Verdict":
        return cls(False, step, diagnostic)


ACCEPTED = Verdict(True)


@dataclass(frozen=True)
class Theorem:
    """A library entry: a derivation together with its check result."""

    proof: Proof
    verdict: Verdict


Library = Mapping[str, Theorem]


def _check_step(
    step: ProofStep,
    proof: Proof,
    library: Library,
) -> str | None:
    """None when the step is justified, else a diagnostic."""
    cfg = proof.theory
    cur = step.formula
    just = step.just

    if isinstance(just, Axiom):
        if just.scheme not in cfg.schemes:
            return f"scheme ({just.scheme.value}) is not part of {cfg.name}"
        try:
            matched = match_axiom(cur, cfg)
        except SkeletonTooLarge as exc:
            return str(exc)
        if matched is not just.scheme:
            if matched is None:
                return f"not an instance of ({just.scheme.value})"
            return (
                f"not an instance of ({just.scheme.value}); "
                f"matches ({matched.value}) instead"
            )
        return None

    if isinstance(just, MP):
        antecedent = proof.steps[just.antecedent - 1].formula
        implication = proof.steps[just.implication - 1].formula
        if implication != impl(antecedent, cur):
            return (
                f"(MP) needs step {just.implication} to be "
                f"(step {just.antecedent} -> step {step.index})"
            )
        return None

    if isinstance(just, RN):
        if contains_app(just.reason):
            if cfg.app:
                return "(RN) in the App variant is restricted to basic reasons"
            return "(RN) uses an application term outside the App variant"
        if term_name(just.reason) not in cfg.reasons:
            return f"(RN) uses undeclared reason {term_name(just.reason)!r}"
        source = proof.steps[just.source - 1].formula
        if cur != Supports(just.reason, source):
            return f"(RN) conclusion must be the reason applied to step {just.source}"
        return None

    if isinstance(just, E):
        source = proof.steps[just.source - 1].formula
        pair = as_iff(source)
        if pair is None:
            return f"(E) needs step {just.source} to be a biconditional"
        if cur != iff(Believes(pair[0]), Believes(pair[1])):
            return "(E) conclusion must be the biconditional under B"
        return None

    if isinstance(just, Gen):
        if not cfg.quantified:
            return f"(Gen) is not a rule of {cfg.name}"
        source = proof.steps[just.source - 1].formula
        if cur != ForAll(just.var, source):
            return f"(Gen) conclusion must bind {_brief(just.var)} over step {just.source}"
        return None

    entry = library.get(just.name)
    if entry is None:
        raise UnknownCitation(f"no theorem {_brief(just.name)} in the library")
    if not cfg.extends(entry.proof.theory):
        raise TheoryMismatch(
            f"{just.name!r} was checked under {entry.proof.theory.name}, "
            f"which {cfg.name} does not extend"
        )
    if cur != entry.proof.goal:
        return f"cited theorem {just.name!r} proves a different formula"
    if not entry.verdict.accepted:
        return f"cited theorem {just.name!r} is not accepted"
    return None


def check_proof(proof: Proof, library: Library | None = None) -> Verdict:
    """Check every step; report the earliest failure or acceptance.

    Citation of an unknown name or of a theorem checked under an incomparable
    theory raises (:class:`UnknownCitation`, :class:`TheoryMismatch`); those
    are defects of the request, not of the derivation.
    """
    library = library or {}
    for step in proof.steps:
        diagnostic = _check_step(step, proof, library)
        if diagnostic is not None:
            return Verdict.rejected(step.index, diagnostic)
    return ACCEPTED


# ---------------------------------------------------------------------------
# JSON wire format


def _just_to_doc(just: Justification) -> dict:
    if isinstance(just, Axiom):
        return {"axiom": just.scheme.value}
    if isinstance(just, MP):
        return {"mp": [just.antecedent, just.implication]}
    if isinstance(just, RN):
        return {"rn": [just.source, print_reason(just.reason)]}
    if isinstance(just, E):
        return {"e": just.source}
    if isinstance(just, Gen):
        return {"gen": [just.source, just.var]}
    return {"cite": just.name}


def _index(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"a step index must be a JSON integer, got {_brief(value)}")
    return value


def _just_from_doc(doc: dict, cfg: TheoryConfig) -> Justification:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError(f"malformed justification {_brief(doc)}")
    kind, value = next(iter(doc.items()))
    pair = {"mp": "[index, index]", "rn": "[index, reason]", "gen": "[index, variable]"}
    if kind in pair and not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{kind} needs a JSON array {pair[kind]}, got {_brief(value)}")
    if kind == "axiom":
        try:
            return Axiom(SchemeId(value))
        except ValueError:
            raise ValueError(f"unknown scheme {_brief(value)}") from None
    if kind == "mp":
        i, j = value
        return MP(_index(i), _index(j))
    if kind == "rn":
        i, text = value
        if not isinstance(text, str):
            raise ValueError(f"rn needs a reason term string, got {_brief(text)}")
        try:
            atom = parse(text, cfg)
        except ParseError as exc:
            raise ValueError(f"bad reason in rn: {exc}") from None
        if not isinstance(atom, Adequate):
            raise ValueError(f"rn needs a reason term, got {_brief(text)}")
        return RN(_index(i), atom.reason)
    if kind == "e":
        return E(_index(value))
    if kind == "gen":
        i, var = value
        if not isinstance(var, str):
            raise ValueError(f"gen needs a variable name string, got {_brief(var)}")
        return Gen(_index(i), var)
    if kind == "cite":
        if not isinstance(value, str):
            raise ValueError(f"cite needs a theorem name string, got {_brief(value)}")
        return Cite(value)
    raise ValueError(f"unknown justification kind {_brief(kind)}")


def proof_to_doc(proof: Proof) -> dict:
    return {
        "name": proof.name,
        "theory": proof.theory.to_doc(),
        "goal": print_formula(proof.goal),
        "steps": [
            {
                "i": step.index,
                "f": print_formula(step.formula),
                "by": _just_to_doc(step.just),
            }
            for step in proof.steps
        ],
    }


def proof_from_doc(doc: dict) -> Proof:
    """The inverse of :func:`proof_to_doc`; any other JSON shape is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a proof document must be a JSON object")
    cfg = TheoryConfig.from_doc(doc.get("theory"))
    if not isinstance(doc.get("goal"), str):
        raise ValueError("proof field 'goal' must be a string")
    if not isinstance(doc.get("steps"), list):
        raise ValueError("proof field 'steps' must be a JSON array")
    steps = []
    for pos, s in enumerate(doc["steps"], start=1):
        if not isinstance(s, dict) or not isinstance(s.get("f"), str):
            raise ValueError(f"proof step {pos} needs a string field 'f'")
        i, f = _index(s.get("i")), parse(s["f"], cfg)
        steps.append(ProofStep(i, f, _just_from_doc(s.get("by"), cfg)))
    return Proof(cfg, str(doc.get("name", "")), parse(doc["goal"], cfg), steps)
