"""Theory configurations and axiom-scheme recognition for the RBB family.

A :class:`TheoryConfig` fixes the variant flags (quantified, sigma,
sigma-plus, App), the finite reason and letter alphabets, and whether the two
alphabets may overlap.  The flags determine which axiom schemes and inference
rules are available:

* every variant has the classical schemes (CL), (A), (RB), (D) and the rules
  MP, RN, E; all but the App variant also have (RK);
* sigma variants add (MA), (MB), (MR), and sigma-plus additionally (MT);
* quantified variants add (UD), (UI), (EP), (EN) and the rule Gen;
* the App variant replaces (RK) by (APP) and restricts RN to basic reasons.

(CL) is decided by brute-force truth tables over the propositional skeleton:
maximal subformulas that are not negations or disjunctions are treated as
opaque atoms, identified up to structural equality.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Callable

from .syntax import (
    RESERVED_WORDS,
    SIGMA_NAME,
    Adequate,
    App,
    Believes,
    Eq,
    ForAll,
    Formula,
    Not,
    Or,
    Supports,
    as_implies,
    atom_term,
    free_reasons,
    is_free_for,
    substitute,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Hard cap on propositional skeleton size for the (CL) decision procedure.
MAX_SKELETON_ATOMS = 16

THEORY_NAMES = ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+", "RBB+App")


class SkeletonTooLarge(Exception):
    """The propositional skeleton exceeds the truth-table cap."""


class SchemeId(enum.Enum):
    CL = "CL"
    RK = "RK"
    A = "A"
    RB = "RB"
    D = "D"
    UD = "UD"
    UI = "UI"
    EP = "EP"
    EN = "EN"
    MA = "MA"
    MB = "MB"
    MR = "MR"
    MT = "MT"
    APP = "APP"


#: Fixed priority for match_axiom; earlier schemes win on overlap.
MATCH_ORDER = (
    SchemeId.CL,
    SchemeId.RK,
    SchemeId.A,
    SchemeId.RB,
    SchemeId.D,
    SchemeId.UD,
    SchemeId.UI,
    SchemeId.EP,
    SchemeId.EN,
    SchemeId.MA,
    SchemeId.MB,
    SchemeId.MR,
    SchemeId.MT,
    SchemeId.APP,
)


def _check_names(kind: str, names: tuple[str, ...]) -> None:
    if not names:
        raise ValueError(f"{kind} alphabet must be non-empty")
    seen = set()
    for name in names:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid {kind} name {name!r}")
        if name in RESERVED_WORDS:
            raise ValueError(f"{name!r} is reserved and cannot be a {kind}")
        if name in seen:
            raise ValueError(f"duplicate {kind} name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class TheoryConfig:
    """A member of the RBB family together with its session alphabets."""

    reasons: tuple[str, ...]
    letters: tuple[str, ...]
    quantified: bool = False
    sigma: bool = False
    sigma_plus: bool = False
    app: bool = False
    allow_overlap: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "reasons", tuple(self.reasons))
        object.__setattr__(self, "letters", tuple(self.letters))
        _check_names("reason", self.reasons)
        _check_names("letter", self.letters)
        if self.sigma_plus and not self.sigma:
            raise ValueError("sigma_plus requires sigma")
        if self.app and (self.quantified or self.sigma):
            raise ValueError("the App variant excludes quantified and sigma variants")
        if (SIGMA_NAME in self.reasons) != self.sigma:
            if self.sigma:
                raise ValueError("sigma theories must declare 'sigma' among the reasons")
            raise ValueError("'sigma' in the reason alphabet requires a sigma theory")
        if SIGMA_NAME in self.letters:
            raise ValueError("'sigma' cannot be a letter")
        overlap = set(self.reasons) & set(self.letters)
        if overlap and not self.allow_overlap:
            raise ValueError(f"alphabets overlap on {sorted(overlap)}; pass allow_overlap=True")

    # -- construction and serialization ------------------------------------

    @classmethod
    def from_name(
        cls,
        name: str,
        reasons: tuple[str, ...] | list[str],
        letters: tuple[str, ...] | list[str],
        allow_overlap: bool = False,
    ) -> "TheoryConfig":
        if name not in THEORY_NAMES:
            raise ValueError(f"unknown theory {name!r}; expected one of {THEORY_NAMES}")
        sigma = name in ("RBBs", "RBBs+", "QRBBs", "QRBBs+")
        reasons = tuple(reasons)
        if sigma and SIGMA_NAME not in reasons:
            reasons = reasons + (SIGMA_NAME,)
        return cls(
            reasons=reasons,
            letters=tuple(letters),
            quantified=name.startswith("Q"),
            sigma=sigma,
            sigma_plus=name.endswith("+") and name != "RBB+App",
            app=name == "RBB+App",
            allow_overlap=allow_overlap,
        )

    @property
    def name(self) -> str:
        if self.app:
            return "RBB+App"
        out = ("Q" if self.quantified else "") + "RBB"
        if self.sigma:
            out += "s+" if self.sigma_plus else "s"
        return out

    def to_doc(self) -> dict:
        return {
            "theory": self.name,
            "reasons": list(self.reasons),
            "letters": list(self.letters),
            "allow_overlap": self.allow_overlap,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TheoryConfig":
        return cls.from_name(
            doc["theory"],
            tuple(doc["reasons"]),
            tuple(doc["letters"]),
            bool(doc.get("allow_overlap", False)),
        )

    # -- derived views ------------------------------------------------------

    @property
    def basic_reasons(self) -> tuple[str, ...]:
        """The declared alphabet without sigma (R0 in the App variant)."""
        return tuple(r for r in self.reasons if r != SIGMA_NAME)

    @property
    def schemes(self) -> frozenset[SchemeId]:
        out = {SchemeId.CL, SchemeId.A, SchemeId.RB, SchemeId.D}
        if self.app:
            out.add(SchemeId.APP)
        else:
            out.add(SchemeId.RK)
        if self.sigma:
            out.update({SchemeId.MA, SchemeId.MB, SchemeId.MR})
        if self.sigma_plus:
            out.add(SchemeId.MT)
        if self.quantified:
            out.update({SchemeId.UD, SchemeId.UI, SchemeId.EP, SchemeId.EN})
        return frozenset(out)

    @property
    def rules(self) -> frozenset[str]:
        out = {"MP", "RN", "E"}
        if self.quantified:
            out.add("Gen")
        return frozenset(out)

    def extends(self, other: "TheoryConfig") -> bool:
        """True when every proof under ``other`` is also a proof under self.

        Requires scheme, rule, and alphabet containment plus an identical App
        flag (the App variant restricts RN, so it is incomparable with the
        rest of the family).
        """
        return (
            other.schemes <= self.schemes
            and other.rules <= self.rules
            and other.app == self.app
            and set(other.reasons) <= set(self.reasons)
            and set(other.letters) <= set(self.letters)
        )


# ---------------------------------------------------------------------------
# (CL): propositional-skeleton tautology checking


def _skeleton_atoms(formula: Formula) -> list[Formula]:
    atoms: list[Formula] = []
    seen: set[Formula] = set()

    def walk(f: Formula) -> None:
        if isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, Or):
            walk(f.left)
            walk(f.right)
        elif f not in seen:
            seen.add(f)
            atoms.append(f)

    walk(formula)
    return atoms


def _eval_skeleton(formula: Formula, value: dict[Formula, bool]) -> bool:
    if isinstance(formula, Not):
        return not _eval_skeleton(formula.sub, value)
    if isinstance(formula, Or):
        return _eval_skeleton(formula.left, value) or _eval_skeleton(formula.right, value)
    return value[formula]


def is_tautology_instance(formula: Formula) -> bool:
    """Decide (CL) membership by truth tables over the propositional skeleton.

    Maximal non-Boolean subformulas are opaque atoms, identified up to
    structural equality.  Skeletons beyond ``MAX_SKELETON_ATOMS`` atoms raise
    :class:`SkeletonTooLarge` rather than being silently accepted or refused.
    """
    atoms = _skeleton_atoms(formula)
    if len(atoms) > MAX_SKELETON_ATOMS:
        raise SkeletonTooLarge(
            f"propositional skeleton has {len(atoms)} atoms "
            f"(cap {MAX_SKELETON_ATOMS}); split the step into smaller pieces"
        )
    for bits in itertools.product((False, True), repeat=len(atoms)):
        if not _eval_skeleton(formula, dict(zip(atoms, bits))):
            return False
    return True


# ---------------------------------------------------------------------------
# Scheme matchers.  Each returns True when the formula (with abbreviations
# already expanded) is an instance of the scheme.


def _is_cl(f: Formula, cfg: TheoryConfig) -> bool:
    return is_tautology_instance(f)


def _is_rk(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], Supports):
        return False
    prem, rest = outer
    inner = as_implies(prem.sub)
    pair = as_implies(rest)
    if inner is None or pair is None:
        return False
    left, right = pair
    return (
        isinstance(left, Supports)
        and isinstance(right, Supports)
        and left.reason == prem.reason == right.reason
        and left.sub == inner[0]
        and right.sub == inner[1]
    )


def _is_a(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], Supports):
        return False
    prem, rest = outer
    pair = as_implies(rest)
    return (
        pair is not None
        and pair[0] == Adequate(prem.reason)
        and pair[1] == prem.sub
    )


def _is_rb(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], Supports):
        return False
    prem, rest = outer
    pair = as_implies(rest)
    return (
        pair is not None
        and pair[0] == Believes(Adequate(prem.reason))
        and pair[1] == Believes(prem.sub)
    )


def _is_d(f: Formula, cfg: TheoryConfig) -> bool:
    pair = as_implies(f)
    return (
        pair is not None
        and isinstance(pair[0], Believes)
        and pair[1] == Not(Believes(Not(pair[0].sub)))
    )


def _is_ud(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], ForAll):
        return False
    quant, rest = outer
    inner = as_implies(quant.sub)
    pair = as_implies(rest)
    if inner is None or pair is None or not isinstance(pair[1], ForAll):
        return False
    return (
        pair[0] == inner[0]
        and pair[1].var == quant.var
        and pair[1].sub == inner[1]
        and quant.var not in free_reasons(inner[0])
    )


def _is_ui(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], ForAll):
        return False
    quant, rest = outer
    for cand in cfg.reasons:
        if is_free_for(cand, quant.var, quant.sub) and substitute(quant.sub, quant.var, cand) == rest:
            return True
    return False


def _is_ep(f: Formula, cfg: TheoryConfig) -> bool:
    return isinstance(f, Eq) and f.left == f.right


def _is_en(f: Formula, cfg: TheoryConfig) -> bool:
    return isinstance(f, Not) and isinstance(f.sub, Eq) and f.sub.left != f.sub.right


def _is_ma(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or outer[0] != Adequate(atom_term(SIGMA_NAME)):
        return False
    pair = as_implies(outer[1])
    return (
        pair is not None
        and isinstance(pair[1], Adequate)
        and pair[0] == Believes(pair[1])
    )


def _is_mb(f: Formula, cfg: TheoryConfig) -> bool:
    return f == Believes(Adequate(atom_term(SIGMA_NAME)))


def _is_mr(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], Supports):
        return False
    prem, rest = outer
    pair = as_implies(rest)
    return (
        pair is not None
        and pair[0] == Believes(Adequate(prem.reason))
        and pair[1] == Supports(atom_term(SIGMA_NAME), prem.sub)
    )


def _is_mt(f: Formula, cfg: TheoryConfig) -> bool:
    pair = as_implies(f)
    return (
        pair is not None
        and isinstance(pair[0], Believes)
        and pair[1] == Supports(atom_term(SIGMA_NAME), pair[0].sub)
    )


def _is_app(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], Supports):
        return False
    prem, rest = outer
    inner = as_implies(prem.sub)
    pair = as_implies(rest)
    if inner is None or pair is None:
        return False
    left, right = pair
    return (
        isinstance(left, Supports)
        and isinstance(right, Supports)
        and left.sub == inner[0]
        and right.sub == inner[1]
        and right.reason == App(prem.reason, left.reason)
    )


# Only (UI) reads the configuration: it instantiates over the declared reasons.
_MATCHERS: dict[SchemeId, Callable[[Formula, TheoryConfig], bool]] = {
    SchemeId.CL: _is_cl,
    SchemeId.RK: _is_rk,
    SchemeId.A: _is_a,
    SchemeId.RB: _is_rb,
    SchemeId.D: _is_d,
    SchemeId.UD: _is_ud,
    SchemeId.UI: _is_ui,
    SchemeId.EP: _is_ep,
    SchemeId.EN: _is_en,
    SchemeId.MA: _is_ma,
    SchemeId.MB: _is_mb,
    SchemeId.MR: _is_mr,
    SchemeId.MT: _is_mt,
    SchemeId.APP: _is_app,
}


def match_axiom(formula: Formula, cfg: TheoryConfig) -> SchemeId | None:
    """The first scheme in the fixed priority order that the formula instantiates.

    Only schemes enabled by ``cfg`` are tried, so the result is never a
    disabled scheme.  Side conditions are enforced: (UD) requires the binder
    not free in the antecedent, (UI) quantifies the substituted instance over
    the declared alphabet with the free-for check, and (EN) requires
    syntactically different symbols.
    """
    enabled = cfg.schemes
    for sid in MATCH_ORDER:
        if sid in enabled and _MATCHERS[sid](formula, cfg):
            return sid
    return None
