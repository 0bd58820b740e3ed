"""Finite neighborhood models and the satisfaction relation.

A model carries a finite world set, one accessibility relation per reason
symbol, a neighborhood family N(w) per world, and a letter valuation.  The
two derived views do most of the work: r(w) is the set of worlds r-reaches
from w, and the adequacy set r° collects the worlds that r-reach themselves.

Truth: a letter holds where the valuation says; r:phi holds at w when
r(w) lies inside the extension of phi; the adequacy atom r holds at w when
w is in r(w); B phi holds at w when the extension of phi is literally a
member of N(w); term equations compare symbols; a universal quantifier is
evaluated substitutionally over the declared reason alphabet, skipping
substituents that are not free for the variable.

One evaluator, :class:`_Ctx`, states these clauses over an interned
representation (worlds as bit positions, world sets as integers) with an
extension memo per context.  The public functions build a context from a
Model; the bounded search builds its contexts from raw masks, leaves the
families of worlds it has not fixed yet as None (belief is false there),
and shares one memo of quantifier instances across a whole search.  The
App variant gets no semantics here, matching its proof-theoretic-only
status.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
    Supports,
    formula_letters,
    free_reasons,
    is_free_for,
    subformulas,
    substitute,
    term_name,
)
from .theory import TheoryConfig

#: Validation quantifies over all subsets of W, so it refuses models beyond
#: this many worlds instead of silently taking minutes.
MAX_VALIDATION_WORLDS = 16


class UnknownWorld(Exception):
    pass


class UnknownReason(Exception):
    pass


class UnknownSymbol(Exception):
    """A formula mentions a letter or reason absent from the theory's alphabets."""


class AppSemanticsUndefined(Exception):
    """Model evaluation was requested for the App variant, which has none."""


def _sorted_pairs(pairs: Iterable[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(pairs))


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable finite model; prefer :func:`make_model` over direct construction.

    Equality and hashing go through a canonical key, so two models built
    from differently-ordered inputs compare equal when they describe the
    same structure.
    """

    worlds: tuple[str, ...]
    access: Mapping[str, frozenset[tuple[str, str]]]
    neighborhoods: Mapping[str, frozenset[frozenset[str]]]
    valuation: Mapping[str, frozenset[str]]

    @cached_property
    def _key(self) -> tuple:
        return (
            self.worlds,
            tuple(sorted((r, _sorted_pairs(ps)) for r, ps in self.access.items())),
            tuple(
                sorted(
                    (w, tuple(sorted(tuple(sorted(x)) for x in fam)))
                    for w, fam in self.neighborhoods.items()
                )
            ),
            tuple(sorted((w, tuple(sorted(v))) for w, v in self.valuation.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Model) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def make_model(
    worlds: Iterable[str],
    access: Mapping[str, Iterable[tuple[str, str]]],
    neighborhoods: Mapping[str, Iterable[Iterable[str]]] | None = None,
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> Model:
    """Normalize loose inputs (lists, sets, missing worlds) into a Model.

    Every world gets an explicit neighborhood family and valuation entry;
    pairs or keys that fall outside the world set are an error.
    """
    ws = tuple(worlds)
    if not ws:
        raise ValueError("a model needs at least one world")
    if len(set(ws)) != len(ws):
        raise ValueError("duplicate world ids")
    wset = set(ws)
    acc: dict[str, frozenset[tuple[str, str]]] = {}
    for reason, pairs in access.items():
        canon = frozenset((a, b) for a, b in pairs)
        for a, b in canon:
            if a not in wset or b not in wset:
                raise ValueError(f"relation [{reason}] uses unknown world in ({a}, {b})")
        acc[reason] = canon
    nbhd: dict[str, frozenset[frozenset[str]]] = {}
    for w, family in (neighborhoods or {}).items():
        if w not in wset:
            raise ValueError(f"neighborhood entry for unknown world {w!r}")
        fam = frozenset(frozenset(x) for x in family)
        for x in fam:
            if not x <= wset:
                raise ValueError(f"neighborhood of {w!r} contains unknown worlds")
        nbhd[w] = fam
    val: dict[str, frozenset[str]] = {}
    for w, letters in (valuation or {}).items():
        if w not in wset:
            raise ValueError(f"valuation entry for unknown world {w!r}")
        val[w] = frozenset(letters)
    for w in ws:
        nbhd.setdefault(w, frozenset())
        val.setdefault(w, frozenset())
    return Model(ws, acc, nbhd, val)


def successors(model: Model, reason: str, world: str) -> frozenset[str]:
    """r(w): the worlds reached from ``world`` along ``reason``."""
    if world not in model.worlds:
        raise UnknownWorld(f"unknown world {world!r}")
    if reason not in model.access:
        raise UnknownReason(f"unknown reason {reason!r}")
    return frozenset(b for a, b in model.access[reason] if a == world)


def reflexive_worlds(model: Model, reason: str) -> frozenset[str]:
    """The adequacy set r°: worlds that reach themselves along ``reason``."""
    if reason not in model.access:
        raise UnknownReason(f"unknown reason {reason!r}")
    return frozenset(a for a, b in model.access[reason] if a == b)


def ensure_in_language(formula: Formula, cfg: TheoryConfig) -> None:
    """Reject formulas outside the declared alphabets before evaluation.

    Free reason occurrences and letters must be declared; bound variables
    are exempt (a binder may rename any symbol).  Compound App terms are
    refused outright since they have no satisfaction clause.
    """
    if cfg.app:
        raise AppSemanticsUndefined("the App variant has no model semantics")
    for sub in subformulas(formula):
        if isinstance(sub, (Supports, Adequate)):
            if isinstance(sub.reason, App):
                raise AppSemanticsUndefined(
                    "compound reason terms have no satisfaction clause"
                )
        if isinstance(sub, (ForAll, Eq)) and not cfg.quantified:
            raise UnknownSymbol(
                "quantifiers and equations live in the quantified theories"
            )
        if isinstance(sub, Eq):
            if isinstance(sub.left, App) or isinstance(sub.right, App):
                raise AppSemanticsUndefined(
                    "compound reason terms have no satisfaction clause"
                )
    bad_letter = formula_letters(formula) - set(cfg.letters)
    if bad_letter:
        raise UnknownSymbol(f"undeclared letter {sorted(bad_letter)[0]!r}")
    bad_reason = free_reasons(formula) - set(cfg.reasons)
    if bad_reason:
        raise UnknownSymbol(f"undeclared reason {sorted(bad_reason)[0]!r}")


class _Ctx:
    """Bitmask evaluator: world i lives at bit i, a world set is an integer.

    A ``families`` entry may be None for a world whose neighborhood is not
    fixed yet.  ``instances`` maps each quantifier to its capture-free
    instances over the declared reasons; it may be shared between contexts
    over the same theory configuration.
    """

    __slots__ = ("cfg", "n", "full", "letters", "rows", "diag", "families",
                 "instances", "memo")

    def __init__(
        self,
        cfg: TheoryConfig,
        n: int,
        letters: Mapping[str, int],
        rows: Mapping[str, list[int]],
        diag: Mapping[str, int],
        families: Sequence[frozenset[int] | None],
        instances: dict[ForAll, tuple[Formula, ...]],
    ) -> None:
        self.cfg = cfg
        self.n = n
        self.full = (1 << n) - 1
        self.letters = letters
        self.rows = rows
        self.diag = diag
        self.families = families
        self.instances = instances
        self.memo: dict[Formula, int] = {}

    @classmethod
    def of_model(cls, model: Model, cfg: TheoryConfig) -> _Ctx:
        index = {w: i for i, w in enumerate(model.worlds)}
        n = len(model.worlds)
        rows: dict[str, list[int]] = {}
        diag: dict[str, int] = {}
        for reason, pairs in model.access.items():
            row = [0] * n
            adequate = 0
            for a, b in pairs:
                row[index[a]] |= 1 << index[b]
                if a == b:
                    adequate |= 1 << index[a]
            rows[reason] = row
            diag[reason] = adequate
        letters: dict[str, int] = {}
        for w, true in model.valuation.items():
            for letter in true:
                letters[letter] = letters.get(letter, 0) | 1 << index[w]
        families = []
        for w in model.worlds:
            family = set()
            for x in model.neighborhoods[w]:
                mask = 0
                for member in x:
                    mask |= 1 << index[member]
                family.add(mask)
            families.append(frozenset(family))
        return cls(cfg, n, letters, rows, diag, families, {})

    def extension(self, formula: Formula) -> int:
        cached = self.memo.get(formula)
        if cached is not None:
            return cached
        if isinstance(formula, Letter):
            out = self.letters.get(formula.name, 0)
        elif isinstance(formula, Not):
            out = self.full ^ self.extension(formula.sub)
        elif isinstance(formula, Or):
            out = self.extension(formula.left) | self.extension(formula.right)
        elif isinstance(formula, Supports):
            name = term_name(formula.reason)
            try:
                row = self.rows[name]
            except KeyError:
                raise UnknownReason(name) from None
            inside = self.extension(formula.sub)
            out = 0
            for i in range(self.n):
                if row[i] & ~inside == 0:
                    out |= 1 << i
        elif isinstance(formula, Adequate):
            name = term_name(formula.reason)
            try:
                out = self.diag[name]
            except KeyError:
                raise UnknownReason(name) from None
        elif isinstance(formula, Believes):
            inside = self.extension(formula.sub)
            out = 0
            for i, family in enumerate(self.families):
                if family is not None and inside in family:
                    out |= 1 << i
        elif isinstance(formula, Eq):
            same = term_name(formula.left) == term_name(formula.right)
            out = self.full if same else 0
        else:
            assert isinstance(formula, ForAll)
            insts = self.instances.get(formula)
            if insts is None:
                insts = self.instances[formula] = tuple(
                    substitute(formula.sub, formula.var, name)
                    for name in self.cfg.reasons
                    if is_free_for(name, formula.var, formula.sub)
                )
            out = self.full
            for inst in insts:
                out &= self.extension(inst)
                if out == 0:
                    break
        self.memo[formula] = out
        return out


def extension(model: Model, formula: Formula, cfg: TheoryConfig) -> frozenset[str]:
    """The set of worlds where ``formula`` holds."""
    ensure_in_language(formula, cfg)
    mask = _Ctx.of_model(model, cfg).extension(formula)
    return frozenset(w for i, w in enumerate(model.worlds) if mask >> i & 1)


def satisfies(model: Model, world: str, formula: Formula, cfg: TheoryConfig) -> bool:
    """Truth at a single world; see the module docstring for the clauses."""
    if world not in model.worlds:
        raise UnknownWorld(f"unknown world {world!r}")
    ensure_in_language(formula, cfg)
    mask = _Ctx.of_model(model, cfg).extension(formula)
    return bool(mask >> model.worlds.index(world) & 1)


# ---------------------------------------------------------------------------
# Frame-property validation


@dataclass(frozen=True)
class Violation:
    """One concrete property failure, with the sets that witness it."""

    prop: str
    world: str | None = None
    reasons: tuple[str, ...] = ()
    sets: tuple[frozenset[str], ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _require_entries(model: Model, cfg: TheoryConfig) -> None:
    missing = set(cfg.reasons) - set(model.access)
    if missing:
        raise UnknownReason(
            f"model has no relation entry for declared reason {sorted(missing)[0]!r}"
        )


def validate_model(model: Model, cfg: TheoryConfig) -> PropertyReport:
    """Check every frame property the theory class requires, at every world.

    Properties over arbitrary subsets X of W are checked exhaustively, so
    models beyond ``MAX_VALIDATION_WORLDS`` worlds are refused with a
    ValueError rather than silently churning.  Violations come back as data;
    an empty report means the model belongs to the class.
    """
    _require_entries(model, cfg)
    n = len(model.worlds)
    if n > MAX_VALIDATION_WORLDS:
        raise ValueError(
            f"validation is exhaustive over subsets and caps at "
            f"{MAX_VALIDATION_WORLDS} worlds; got {n}"
        )
    ctx = _Ctx.of_model(model, cfg)
    sigma_name = "sigma"
    out: list[Violation] = []

    def named(mask: int) -> frozenset[str]:
        return frozenset(w for i, w in enumerate(model.worlds) if mask >> i & 1)

    overlap = sorted(set(cfg.letters) & set(cfg.reasons))
    for i, w in enumerate(model.worlds):
        family = ctx.families[i]
        for x in overlap:
            in_val = x in model.valuation[w]
            reflexive = bool(ctx.rows[x][i] >> i & 1)
            if in_val != reflexive:
                out.append(
                    Violation(
                        "pr",
                        w,
                        (x,),
                        detail=f"{x!r} is {'' if in_val else 'not '}true at {w!r} "
                        f"but {w!r} is {'' if reflexive else 'not '}in {x}({w})",
                    )
                )
        for x_mask in family:
            if (ctx.full ^ x_mask) in family:
                out.append(
                    Violation(
                        "d",
                        w,
                        sets=(named(x_mask), named(ctx.full ^ x_mask)),
                        detail="a believed set and its complement are both in N",
                    )
                )
        for reason in sorted(cfg.reasons):
            row = ctx.rows[reason][i]
            if ctx.diag[reason] not in family:
                continue
            # r° is believed, so everything r(w) settles must be believed.
            for x_mask in range(1 << n):
                if row & ~x_mask == 0 and x_mask not in family:
                    out.append(
                        Violation(
                            "rb",
                            w,
                            (reason,),
                            sets=(named(row), named(x_mask)),
                            detail="r(w) is inside X, r-degree is believed, "
                            "but X is not in N(w)",
                        )
                    )
                    break
        if cfg.sigma:
            srow = ctx.rows[sigma_name][i]
            if ctx.diag[sigma_name] not in family:
                out.append(
                    Violation("mb", w, (sigma_name,), sets=(named(ctx.diag[sigma_name]),))
                )
            sigma_reflexive = bool(srow >> i & 1)
            for reason in sorted(cfg.reasons):
                if reason == sigma_name:
                    continue
                row = ctx.rows[reason][i]
                believed = ctx.diag[reason] in family
                if sigma_reflexive and believed and not row >> i & 1:
                    out.append(
                        Violation(
                            "ma",
                            w,
                            (reason,),
                            detail="sigma is adequate and r-degree believed, "
                            "but w is not in r(w)",
                        )
                    )
                if believed:
                    for x_mask in range(1 << n):
                        if row & ~x_mask == 0 and srow & ~x_mask != 0:
                            out.append(
                                Violation(
                                    "mr",
                                    w,
                                    (reason,),
                                    sets=(named(x_mask), named(srow)),
                                    detail="X covers r(w) but not sigma(w)",
                                )
                            )
                            break
            if cfg.sigma_plus:
                for x_mask in family:
                    if srow & ~x_mask != 0:
                        out.append(
                            Violation(
                                "mt",
                                w,
                                (sigma_name,),
                                sets=(named(x_mask), named(srow)),
                                detail="a believed set does not cover sigma(w)",
                            )
                        )
                        break
    return PropertyReport(tuple(out))


def check_rc(model: Model) -> PropertyReport:
    """Report world/reason pairs whose believed reasons settle disjoint sets.

    Every model that passes validation comes back clean here: (d) and (rb)
    jointly rule these configurations out, and this check makes that fact
    observable on its own.  No theory argument is needed.
    """
    report: list[Violation] = []
    reasons = sorted(model.access)
    for w in model.worlds:
        family = model.neighborhoods[w]
        believed = [
            r for r in reasons if reflexive_worlds(model, r) in family
        ]
        for a_pos, r in enumerate(believed):
            for s in believed[a_pos:]:
                if not successors(model, r, w) & successors(model, s, w):
                    report.append(
                        Violation(
                            "rc",
                            w,
                            (r, s),
                            sets=(successors(model, r, w), successors(model, s, w)),
                            detail="both reasons believed, successor sets disjoint",
                        )
                    )
    return PropertyReport(tuple(report))


# ---------------------------------------------------------------------------
# JSON wire format


def model_to_doc(model: Model, point: str | None = None) -> dict:
    doc: dict = {
        "worlds": list(model.worlds),
        "access": {
            r: [list(p) for p in _sorted_pairs(ps)]
            for r, ps in sorted(model.access.items())
        },
        "neighborhoods": {
            w: sorted(sorted(x) for x in model.neighborhoods[w])
            for w in model.worlds
        },
        "valuation": {w: sorted(model.valuation[w]) for w in model.worlds},
    }
    if point is not None:
        if point not in model.worlds:
            raise UnknownWorld(f"unknown point {point!r}")
        doc["point"] = point
    return doc


def model_from_doc(doc: dict) -> tuple[Model, str | None]:
    model = make_model(
        [str(w) for w in doc["worlds"]],
        {r: [(a, b) for a, b in ps] for r, ps in doc.get("access", {}).items()},
        doc.get("neighborhoods"),
        doc.get("valuation"),
    )
    point = doc.get("point")
    if point is not None and point not in model.worlds:
        raise UnknownWorld(f"unknown point {point!r}")
    return model, point
