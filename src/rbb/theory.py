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

Only :attr:`TheoryConfig.schemes` is listed; the rules follow from the
flags, so :meth:`TheoryConfig.extends` is scheme and alphabet containment.

(CL) is decided by a truth table over the propositional skeleton: maximal
subformulas that are not negations or disjunctions are treated as opaque
atoms, identified up to structural equality.  The table is one evaluation by
the package's bitmask evaluator, :class:`~rbb.semantics._Ctx`, over a context
whose worlds are the table's rows.

Every other scheme but (UI) is written once, as a template built with the
syntax constructors and read as the paper states the scheme.  In a template
a ``Letter`` stands for any formula, a ``Basic`` reason for any reason term
(``App`` compounds included), and a ``ForAll`` binder name for any variable;
``SIGMA`` stands only for itself.  Every occurrence of a metavariable must
take the same value, and distinct metavariables may take equal ones.  Two
side conditions are predicates on the bindings: in (UD) the binder is not
free in the antecedent, and in (EN) the two symbols differ.  (UI) is a
function, since it instantiates over the declared reasons.  The order of the
scheme table is the match priority: a formula is reported as the first
enabled scheme it instantiates.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable

from .semantics import _Ctx, superset_family
from .syntax import (
    RESERVED_WORDS,
    SIGMA,
    SIGMA_NAME,
    Adequate,
    App,
    Basic,
    Believes,
    Eq,
    ForAll,
    Formula,
    Letter,
    Not,
    Or,
    Supports,
    _brief,
    as_implies,
    free_reasons,
    impl,
    instances,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Hard cap on propositional skeleton size for the (CL) decision procedure.
MAX_SKELETON_ATOMS = 16

THEORY_NAMES = ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+", "RBB+App")


class SkeletonTooLarge(ValueError):
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


def _check_names(kind: str, names: tuple[str, ...]) -> None:
    if not names:
        raise ValueError(f"{kind} alphabet must be non-empty")
    seen = set()
    for name in names:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid {kind} name {_brief(name)}")
        if name in RESERVED_WORDS:
            raise ValueError(f"{name!r} is reserved and cannot be a {kind}")
        if name in seen:
            raise ValueError(f"duplicate {kind} name {_brief(name)}")
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
            raise ValueError(
                f"alphabets overlap on {_brief(sorted(overlap))}; pass allow_overlap=True"
            )

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
            raise ValueError(f"unknown theory {_brief(name)}; expected one of {THEORY_NAMES}")
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
        """The inverse of :meth:`to_doc`; any other JSON shape is a ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("a theory document must be a JSON object")
        if not isinstance(doc.get("theory"), str):
            raise ValueError("theory field 'theory' must be a JSON string")
        for key in ("reasons", "letters"):
            names = doc.get(key)
            if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
                raise ValueError(f"theory field {key!r} must be a JSON array of strings")
        overlap = doc.get("allow_overlap", False)
        if not isinstance(overlap, bool):
            raise ValueError("theory field 'allow_overlap' must be a JSON boolean")
        return cls.from_name(doc.get("theory"), doc["reasons"], doc["letters"], overlap)

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

    def extends(self, other: "TheoryConfig") -> bool:
        """True when every proof under ``other`` is also a proof under self.

        Requires scheme and alphabet containment.  The rules follow: (Gen)
        comes with the quantifier schemes, and the App variant, which
        restricts RN, has (APP) where the rest of the family has (RK), so it
        is incomparable with the rest.
        """
        return (
            other.schemes <= self.schemes
            and set(other.reasons) <= set(self.reasons)
            and set(other.letters) <= set(self.letters)
        )


# ---------------------------------------------------------------------------
# (CL): propositional-skeleton tautology checking


def _skeleton_atoms(formula: Formula) -> list[Formula]:
    """The skeleton's distinct atoms, left to right."""
    atoms: list[Formula] = []
    seen: set[Formula] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Not:
            stack.append(f.sub)
        elif kind is Or:
            stack.append(f.right)
            stack.append(f.left)
        elif f not in seen:
            seen.add(f)
            atoms.append(f)
    return atoms


def is_tautology_instance(formula: Formula) -> bool:
    """Decide (CL) membership by a truth table over the propositional skeleton.

    Maximal non-Boolean subformulas are opaque atoms, identified up to
    structural equality.  Skeletons beyond ``MAX_SKELETON_ATOMS`` atoms raise
    :class:`SkeletonTooLarge` rather than being silently accepted or refused.
    """
    atoms = _skeleton_atoms(formula)
    k = len(atoms)
    if k > MAX_SKELETON_ATOMS:
        raise SkeletonTooLarge(
            f"propositional skeleton has {k} atoms "
            f"(cap {MAX_SKELETON_ATOMS}); split the step into smaller pieces"
        )
    # Row j of the table is world j of 2^k worlds, and atom i is true at the
    # rows with bit i set.  Every atom is fixed before the walk, so the
    # context evaluates only Not and Or and never reads its configuration.
    ctx = _Ctx(None, 1 << k, {}, {}, {}, ())
    for i, atom in enumerate(atoms):
        ctx.assume(atom, superset_family(1 << i, k))
    return ctx.extension(formula) == ctx.full


# ---------------------------------------------------------------------------
# Scheme matching (templates and their reading: see the module docstring)


def _match(pattern, term, env: dict) -> bool:
    """Extend ``env`` so that ``pattern`` instantiates to ``term``, or say it cannot.

    Every occurrence of a metavariable must take the value of its first one.
    """
    if isinstance(pattern, (Letter, Basic, str)):
        return env.setdefault(pattern, term) == term
    if type(pattern) is not type(term):
        return False
    for name in pattern.__match_args__:
        if not _match(getattr(pattern, name), getattr(term, name), env):
            return False
    return True


def _template(pattern: Formula, side: Callable[[dict], bool] | None = None):
    """The matcher for ``pattern``, with an optional side condition on its bindings."""

    def matches(formula: Formula, cfg: TheoryConfig) -> bool:
        env: dict = {}
        return _match(pattern, formula, env) and (side is None or side(env))

    return matches


def _is_ui(f: Formula, cfg: TheoryConfig) -> bool:
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], ForAll):
        return False
    quant, rest = outer
    return rest in instances(quant, cfg.reasons)


PHI, PSI = Letter("phi"), Letter("psi")
T, U = Basic("t"), Basic("u")

#: Every scheme's matcher, in match priority: earlier schemes win on overlap.
#: Only (UI) reads the configuration: it instantiates over the declared reasons.
_SCHEMES: dict[SchemeId, Callable[[Formula, TheoryConfig], bool]] = {
    SchemeId.CL: lambda f, cfg: is_tautology_instance(f),
    SchemeId.RK: _template(
        impl(Supports(T, impl(PHI, PSI)), impl(Supports(T, PHI), Supports(T, PSI)))
    ),
    SchemeId.A: _template(impl(Supports(T, PHI), impl(Adequate(T), PHI))),
    SchemeId.RB: _template(
        impl(Supports(T, PHI), impl(Believes(Adequate(T)), Believes(PHI)))
    ),
    SchemeId.D: _template(impl(Believes(PHI), Not(Believes(Not(PHI))))),
    SchemeId.UD: _template(
        impl(ForAll("x", impl(PHI, PSI)), impl(PHI, ForAll("x", PSI))),
        lambda env: env["x"] not in free_reasons(env[PHI]),
    ),
    SchemeId.UI: _is_ui,
    SchemeId.EP: _template(Eq(T, T)),
    SchemeId.EN: _template(Not(Eq(T, U)), lambda env: env[T] != env[U]),
    SchemeId.MA: _template(
        impl(Adequate(SIGMA), impl(Believes(Adequate(T)), Adequate(T)))
    ),
    SchemeId.MB: _template(Believes(Adequate(SIGMA))),
    SchemeId.MR: _template(
        impl(Supports(T, PHI), impl(Believes(Adequate(T)), Supports(SIGMA, PHI)))
    ),
    SchemeId.MT: _template(impl(Believes(PHI), Supports(SIGMA, PHI))),
    SchemeId.APP: _template(
        impl(Supports(T, impl(PHI, PSI)), impl(Supports(U, PHI), Supports(App(T, U), PSI)))
    ),
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
    for sid, matches in _SCHEMES.items():
        if sid in enabled and matches(formula, cfg):
            return sid
    return None
