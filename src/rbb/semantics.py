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

One class, :class:`_Ctx`, states these clauses over an interned
representation: worlds are bit positions, a world set is an integer, and a
neighborhood family is an integer too, with bit x set when the world set x
belongs to it.  The same class states the frame conditions of each theory
class once, as a per-world fault generator that `validate_model` reports
from and the bounded search prunes with.  The bounded search builds its
contexts from raw masks and gives the worlds it has not fixed yet the empty
family (belief is false there).  The public functions build a context
from a Model that keeps each family as a set of world-set masks, since an
integer over world sets has 2^n bits; `validate_model`, which caps the
world count, turns them into integers for the checker.  A Model encodes
itself once and keeps the encoding, so `validate_model`, `check_rc` and
every `satisfies` or `extension` call on the same model share it.  Each call
still gets a fresh context, with its own memo, over a view of that
encoding, kept per pair of alphabets, that maps exactly the theory's
declared letters and the declared reasons the model relates.

The walk reads a letter, and the adequacy atom of a basic or sigma term,
straight from the context's maps, so a leaf costs no memo lookup.  It
stops where it cannot go on: at a name outside the maps, or at a formula
outside the theory's language.  The public functions then let
:func:`ensure_in_language` name the fault, so they keep its tested
precedence and walk a formula once.  That check has no walk of its own:
it reads the formula's nodes through :func:`~rbb.syntax.subformulas` and
its free reasons through :func:`~rbb.syntax.free_reasons`.  The reports of
`validate_model` and `check_rc` build their violations as they are read,
so asking whether a model is in the class stops at the first fault.
Every context takes the instances of a quantifier from
:func:`~rbb.syntax.instances`, whose cache serves the whole process.  The
App variant gets no semantics here, matching its proof-theoretic-only
status.

:class:`_Ctx` also decides (CL) for the proof checker: a truth table over k
atoms is a context of 2^k worlds, one per row, and :meth:`_Ctx.assume`
fixes each atom's rows before the walk.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING

from .syntax import (
    SIGMA_NAME,
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
    _brief,
    free_reasons,
    instances,
    subformulas,
    term_name,
)

if TYPE_CHECKING:
    from .theory import TheoryConfig

#: Validation quantifies over all subsets of W, so it refuses models beyond
#: this many worlds instead of silently taking minutes.
MAX_VALIDATION_WORLDS = 16


class UnknownWorld(ValueError):
    pass


class UnknownReason(ValueError):
    pass


class UnknownSymbol(ValueError):
    """A formula mentions a letter or reason absent from the theory's alphabets."""


class AppSemanticsUndefined(ValueError):
    """Model evaluation was requested for the App variant, which has none."""


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable finite model; prefer :func:`make_model` over direct construction.

    Equality and hashing go through the wire document of
    :func:`model_to_doc`, so two models are equal exactly when their
    documents are, however their inputs were ordered.  A model caches that
    key, its bitmask encoding and that encoding's view under each pair of
    alphabets the first time they are needed, so mutating its mappings
    after construction is unsupported: the caches would go on describing
    the old structure.
    """

    worlds: tuple[str, ...]
    access: Mapping[str, frozenset[tuple[str, str]]]
    neighborhoods: Mapping[str, frozenset[frozenset[str]]]
    valuation: Mapping[str, frozenset[str]]

    @cached_property
    def _key(self) -> str:
        return json.dumps(model_to_doc(self), sort_keys=True)

    @cached_property
    def _masks(self) -> tuple:
        """``(n, letters, rows, diag, families)``, the encoding :class:`_Ctx` reads.

        World i is bit i.  ``letters`` maps a letter to the worlds where it is
        true, ``rows[r]`` is the tuple of r(w_i) and ``diag[r]`` is r°, and
        ``families[i]`` is N(w_i) as a frozenset of world-set masks.  Every
        context of this model shares these parts and none writes them.
        """
        index = {w: i for i, w in enumerate(self.worlds)}
        n = len(self.worlds)
        rows: dict[str, tuple[int, ...]] = {}
        diag: dict[str, int] = {}
        for reason, pairs in self.access.items():
            row = [0] * n
            adequate = 0
            for a, b in pairs:
                row[index[a]] |= 1 << index[b]
                if a == b:
                    adequate |= 1 << index[a]
            rows[reason] = tuple(row)
            diag[reason] = adequate
        letters: dict[str, int] = {}
        for w, true in self.valuation.items():
            for letter in true:
                letters[letter] = letters.get(letter, 0) | 1 << index[w]
        families = []
        for w in self.worlds:
            family = set()
            for x in self.neighborhoods[w]:
                mask = 0
                for member in x:
                    mask |= 1 << index[member]
                family.add(mask)
            families.append(frozenset(family))
        return n, letters, rows, diag, tuple(families)

    def _view(self, letters: tuple[str, ...], reasons: tuple[str, ...]) -> tuple:
        """``_masks`` with its maps limited to the given alphabets, kept per pair."""
        views = self.__dict__.setdefault("_views", {})
        view = views.get((letters, reasons))
        if view is None:
            n, true, rows, diag, families = self._masks
            view = views[letters, reasons] = (
                n,
                {p: true.get(p, 0) for p in letters},
                {r: rows[r] for r in reasons if r in rows},
                {r: diag[r] for r in reasons if r in diag},
                families,
            )
        return view

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Model) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _names(value: object, strings: bool = False) -> tuple:
    """The items of ``value``, a collection of names.

    A str or a mapping is refused with a TypeError, since its items would be
    read as its characters or keys, as is anything else that does not
    iterate, and with ``strings`` any item that is not a str.
    """
    if isinstance(value, (str, Mapping)):
        raise TypeError("a str or a mapping is not a collection of names")
    names = tuple(value)
    if strings and not all(isinstance(name, str) for name in names):
        raise TypeError("a name is not a string")
    return names


def _malformed(field: str, entry: object, items: str) -> ValueError:
    return ValueError(
        f"model field {field!r} entry {_brief(entry)} must be a JSON array of {items}"
    )


def make_model(
    worlds: Iterable[str],
    access: Mapping[str, Iterable[tuple[str, str]]],
    neighborhoods: Mapping[str, Iterable[Iterable[str]]] | None = None,
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> Model:
    """Check and normalize loose inputs (lists, sets, missing worlds) into a Model.

    Each name is looked at once, in the walk that builds the model.  World
    names and letters must be strings, and a world reference, a pair end or
    a neighborhood member, must name a world.  Names come in any collection
    but a str or a mapping, which is never read as its characters or keys.
    Any other input is a ValueError that names its field.  Every world gets
    an explicit neighborhood family and valuation entry.
    """
    try:
        ws = _names(worlds, strings=True)
    except TypeError:
        raise ValueError("model field 'worlds' must be a JSON array of strings") from None
    if not ws:
        raise ValueError("model field 'worlds' must name at least one world")
    wset = set(ws)
    if len(wset) != len(ws):
        raise ValueError("model field 'worlds' has duplicate world ids")
    acc: dict[str, frozenset[tuple[str, str]]] = {}
    for reason, pairs in access.items():
        try:
            acc[reason] = frozenset((a, b) for a, b in map(_names, _names(pairs)))
        except (TypeError, ValueError):
            raise _malformed("access", reason, "[from, to] pairs of strings") from None
        for pair in acc[reason]:
            if not wset.issuperset(pair):
                raise ValueError(
                    f"model field 'access' entry {_brief(reason)} uses unknown world "
                    f"in {_brief(pair)}"
                )
    nbhd: dict[str, frozenset[frozenset[str]]] = dict.fromkeys(ws, frozenset())
    for w, family in (neighborhoods or {}).items():
        if w not in wset:
            raise ValueError(f"neighborhood entry for unknown world {_brief(w)}")
        try:
            nbhd[w] = frozenset(frozenset(_names(x)) for x in _names(family))
        except TypeError:
            raise _malformed("neighborhoods", w, "arrays of strings") from None
        if not all(x <= wset for x in nbhd[w]):
            raise ValueError(f"neighborhood of {_brief(w)} contains unknown worlds")
    val: dict[str, frozenset[str]] = dict.fromkeys(ws, frozenset())
    for w, letters in (valuation or {}).items():
        if w not in wset:
            raise ValueError(f"valuation entry for unknown world {_brief(w)}")
        try:
            val[w] = frozenset(_names(letters, strings=True))
        except TypeError:
            raise _malformed("valuation", w, "strings") from None
    return Model(ws, acc, nbhd, val)


def _index(model: Model, world: object, role: str = "world") -> int:
    """The position of ``world`` in ``model``; UnknownWorld names it as ``role``."""
    try:
        return model.worlds.index(world)
    except ValueError:
        raise UnknownWorld(f"unknown {role} {_brief(world)}") from None


def successors(model: Model, reason: str, world: str) -> frozenset[str]:
    """r(w): the worlds reached from ``world`` along ``reason``."""
    _index(model, world)
    if reason not in model.access:
        raise UnknownReason(f"unknown reason {_brief(reason)}")
    return frozenset(b for a, b in model.access[reason] if a == world)


def reflexive_worlds(model: Model, reason: str) -> frozenset[str]:
    """The adequacy set r°: worlds that reach themselves along ``reason``."""
    if reason not in model.access:
        raise UnknownReason(f"unknown reason {_brief(reason)}")
    return frozenset(a for a, b in model.access[reason] if a == b)


_QUANTIFIED_ONLY = "quantifiers and equations live in the quantified theories"
_NO_COMPOUND_CLAUSE = "compound reason terms have no satisfaction clause"


def ensure_in_language(formula: Formula, cfg: TheoryConfig) -> None:
    """Reject formulas outside the declared alphabets before evaluation.

    Free reason occurrences and letters must be declared; bound variables
    are exempt (a binder may rename any symbol).  Compound App terms are
    refused outright since they have no satisfaction clause.

    The check reads the formula through :mod:`rbb.syntax`: one
    :func:`~rbb.syntax.subformulas` pass finds the structural faults and
    collects the letters, and :func:`~rbb.syntax.free_reasons` gives the free
    reasons.  The error follows a fixed, tested precedence: the App variant
    as a whole; then the first structural fault in preorder, which is a node
    that is not a formula, an App term, or a quantifier or equation outside
    the quantified theories; then the least undeclared letter; then the
    least undeclared free reason.
    """
    if cfg.app:
        raise AppSemanticsUndefined("the App variant has no model semantics")
    letters: set[str] = set()
    for f in subformulas(formula):
        # Syntax nodes are never subclassed, so the exact type decides.
        kind = type(f)
        if kind is Letter:
            letters.add(f.name)
        elif kind is Eq or kind is ForAll:
            if not cfg.quantified:
                raise UnknownSymbol(_QUANTIFIED_ONLY)
            if kind is Eq and App in (type(f.left), type(f.right)):
                raise AppSemanticsUndefined(_NO_COMPOUND_CLAUSE)
        elif kind is Supports or kind is Adequate:
            if type(f.reason) is App:
                raise AppSemanticsUndefined(_NO_COMPOUND_CLAUSE)
        elif kind is not Not and kind is not Or and kind is not Believes:
            raise TypeError(f"not a formula: {f!r}")
    bad_letter = letters - set(cfg.letters)
    if bad_letter:
        raise UnknownSymbol(f"undeclared letter {_brief(min(bad_letter))}")
    bad_reason = free_reasons(formula) - set(cfg.reasons)
    if bad_reason:
        raise UnknownSymbol(f"undeclared reason {_brief(min(bad_reason))}")


def superset_family(row: int, n: int) -> int:
    """The family, over n worlds, of every world set that includes ``row``."""
    family = 1
    for j in range(n):
        if row >> j & 1:
            family <<= 1 << j
        else:
            family |= family << (1 << j)
    return family


def _family_of(sets: Iterable[int], n: int) -> int:
    """The family, over n worlds, whose members are the world sets ``sets``."""
    bits = bytearray(((1 << n) + 7) >> 3)
    for x in sets:
        bits[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(bits, "little")


#: Every byte value with its eight bits in reverse order.
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mirror(family: int, n: int) -> int:
    """``family`` with each world set moved to its complement over n worlds."""
    size = ((1 << n) + 7) >> 3
    data = family.to_bytes(size, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(data, "big") >> (8 * size - (1 << n))


def _members(family: int) -> Iterator[int]:
    """The world sets in ``family``, ascending."""
    while family:
        low = family & -family
        yield low.bit_length() - 1
        family ^= low


def _symbol(term: object) -> str:
    """The name of an atomic reason term; a compound one has no clause."""
    if type(term) is App:
        raise TypeError(_NO_COMPOUND_CLAUSE)
    return term_name(term)


class _Ctx:
    """Bitmask evaluator and frame checker over the worlds 0..n-1.

    World i lives at bit i, a world set is an integer, and ``families[i]``
    is N(w_i) as an integer over world sets: bit x is set when the world
    set x is a member.  A world whose family is not fixed yet has 0.
    """

    __slots__ = ("cfg", "n", "full", "letters", "rows", "diag", "families", "memo")

    def __init__(
        self,
        cfg: TheoryConfig,
        n: int,
        letters: Mapping[str, int],
        rows: Mapping[str, Sequence[int]],
        diag: Mapping[str, int],
        families: Sequence[int] | Sequence[frozenset[int]],
    ) -> None:
        self.cfg = cfg
        self.n = n
        self.full = (1 << n) - 1
        self.letters = letters
        self.rows = rows
        self.diag = diag
        self.families = families
        self.memo: dict[Formula, int] = {}

    def believers(self, x: int) -> int:
        """The worlds whose family has the world set x."""
        out = 0
        for i, family in enumerate(self.families):
            if family >> x & 1:
                out |= 1 << i
        return out

    def faults(
        self, i: int, family: int, up: Mapping[int, int], world: str
    ) -> Iterator[tuple[str, tuple[str, ...], tuple[int, ...], str]]:
        """Each frame condition the class breaks at world i when N(w) = family.

        ``up[row]`` is the family of the supersets of ``row`` (see
        :func:`superset_family`), for every row of world i.  Yields
        ``(prop, reasons, world sets, detail)`` in report order: (pr), (d),
        (rb), then for sigma (mb), (ma) and (mr) reason by reason, and (mt)
        for sigma+.  ``world`` names world i in details.
        """
        cfg, rows, diag, full, here = self.cfg, self.rows, self.diag, self.full, 1 << i
        if cfg.allow_overlap:
            for x in sorted(set(cfg.letters) & set(cfg.reasons)):
                true = bool(self.letters.get(x, 0) & here)
                reflexive = bool(rows[x][i] & here)
                if true != reflexive:
                    yield "pr", (x,), (), (
                        f"{x!r} is {'' if true else 'not '}true at {world!r} "
                        f"but {world!r} is {'' if reflexive else 'not '}in {x}({world})"
                    )
        for x in _members(family & _mirror(family, self.n)):
            yield "d", (), (x, full ^ x), (
                "a believed set and its complement are both in N"
            )
        believed = [r for r in sorted(cfg.reasons) if family >> diag[r] & 1]
        for reason in believed:
            row = rows[reason][i]
            # r° is believed, so everything r(w) settles must be believed.
            missing = up[row] & ~family
            if missing:
                yield "rb", (reason,), (row, next(_members(missing))), (
                    "r(w) is inside X, r-degree is believed, but X is not in N(w)"
                )
        if not cfg.sigma:
            return
        srow = rows[SIGMA_NAME][i]
        if not family >> diag[SIGMA_NAME] & 1:
            yield "mb", (SIGMA_NAME,), (diag[SIGMA_NAME],), ""
        for reason in believed:
            if reason == SIGMA_NAME:
                continue
            row = rows[reason][i]
            if srow & here and not row & here:
                yield "ma", (reason,), (), (
                    "sigma is adequate and r-degree believed, but w is not in r(w)"
                )
            # The least X that covers r(w) is r(w) itself.
            if srow & ~row:
                yield "mr", (reason,), (row, srow), "X covers r(w) but not sigma(w)"
        if cfg.sigma_plus:
            uncovered = family & ~up[srow]
            if uncovered:
                yield "mt", (SIGMA_NAME,), (next(_members(uncovered)), srow), (
                    "a believed set does not cover sigma(w)"
                )

    def assume(self, atom: Formula, worlds: int) -> None:
        """Fix the extension of ``atom`` to ``worlds`` before a walk, where the
        walk reads it: a leaf in its map, any other formula in the memo."""
        if type(atom) is Letter:
            self.letters[atom.name] = worlds
        elif type(atom) is Adequate and type(atom.reason) is not App:
            self.diag[term_name(atom.reason)] = worlds
        else:
            self.memo[atom] = worlds

    def extension(self, formula: Formula) -> int:
        """The worlds where ``formula`` holds, as a mask.

        A letter, and the adequacy atom of a basic or sigma term, are read
        straight from ``letters`` and ``diag``.  A negation costs one XOR,
        less than a memo lookup, so only its operand goes through the memo,
        as every other formula does.  Where the walk cannot go on, at a
        name it cannot look up or a formula outside the theory's language,
        it raises KeyError, ValueError or TypeError; :func:`_evaluate` then
        lets :func:`ensure_in_language` name the fault.
        """
        kind = type(formula)
        if kind is Letter:
            return self.letters[formula.name]
        if kind is Adequate and type(formula.reason) is not App:
            return self.diag[term_name(formula.reason)]
        if kind is Not:
            return self.full ^ self.extension(formula.sub)
        cached = self.memo.get(formula)
        if cached is not None:
            return cached
        if kind is Or:
            out = self.extension(formula.left) | self.extension(formula.right)
        elif kind is Supports:
            row = self.rows[_symbol(formula.reason)]
            inside = self.extension(formula.sub)
            out = 0
            for i in range(self.n):
                if row[i] & ~inside == 0:
                    out |= 1 << i
        elif kind is Believes:
            out = self.believers(self.extension(formula.sub))
        elif kind is Eq or kind is ForAll:
            if not self.cfg.quantified:
                raise UnknownSymbol(_QUANTIFIED_ONLY)
            names = self.cfg.reasons
            if kind is Eq:
                # index() refuses an undeclared name.
                left, right = _symbol(formula.left), _symbol(formula.right)
                out = self.full if names.index(left) == names.index(right) else 0
            else:
                found = instances(formula, names)
                if not found:
                    # No instance visits the body, so check its language here.
                    ensure_in_language(formula, self.cfg)
                out = self.full
                for inst in found:
                    out &= self.extension(inst)
                    if out == 0:
                        break
        else:
            raise TypeError("no satisfaction clause")
        self.memo[formula] = out
        return out


class _ModelCtx(_Ctx):
    """The context of a public Model, of any size.

    Its families are frozensets of world-set masks, so its memory follows
    the number of sets in the model rather than 2^n; `validate_model`
    turns them into integers under its world cap.
    """

    __slots__ = ()

    def believers(self, x: int) -> int:
        out = 0
        for i, family in enumerate(self.families):
            if x in family:
                out |= 1 << i
        return out


def _evaluate(model: Model, formula: Formula, cfg: TheoryConfig) -> int:
    """The extension of ``formula`` in ``model``, as a mask, in one walk.

    Where the walk stops, :func:`ensure_in_language` names the fault; a
    formula it accepts stopped at a declared reason the model does not
    relate, or at the recursion limit.
    """
    if cfg.app:  # no formula has a clause there, so none is walked
        ensure_in_language(formula, cfg)
    ctx = _ModelCtx(cfg, *model._view(cfg.letters, cfg.reasons))
    try:
        return ctx.extension(formula)
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        ensure_in_language(formula, cfg)
        if type(exc) is KeyError:
            raise UnknownReason(f"model has no relation entry for {_brief(exc.args[0])}") from None
        raise


def _named(model: Model, mask: int) -> frozenset[str]:
    """The worlds of ``model`` in the world set ``mask``."""
    return frozenset(w for i, w in enumerate(model.worlds) if mask >> i & 1)


def extension(model: Model, formula: Formula, cfg: TheoryConfig) -> frozenset[str]:
    """The set of worlds where ``formula`` holds; see :func:`_evaluate`."""
    return _named(model, _evaluate(model, formula, cfg))


def satisfies(model: Model, world: str, formula: Formula, cfg: TheoryConfig) -> bool:
    """Truth at a single world; see the module docstring for the clauses.

    An unknown world is refused before the formula is read, and a formula
    outside the theory's language as :func:`ensure_in_language` refuses it.
    """
    i = _index(model, world)
    return bool(_evaluate(model, formula, cfg) >> i & 1)


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


class PropertyReport:
    """The frame faults of a model, in report order; none means it is in the class.

    The faults are built as they are read: ``ok`` builds at most the first,
    and ``violations`` the rest, once.  Equality, hashing, repr, pickles and
    copies go through ``violations``, as for a frozen dataclass with that
    one field, so how much of a report was read never shows.
    """

    __slots__ = ("_built", "_rest")

    def __init__(self, violations: Iterable[Violation] = ()) -> None:
        self._built: tuple[Violation, ...] = ()
        self._rest = iter(violations)

    @property
    def ok(self) -> bool:
        if not self._built:
            self._built = tuple(itertools.islice(self._rest, 1))
        return not self._built

    @property
    def violations(self) -> tuple[Violation, ...]:
        rest = tuple(self._rest)
        if rest:
            self._built += rest
        return self._built

    def __eq__(self, other: object) -> bool:
        if type(other) is not PropertyReport:
            return NotImplemented
        return self.violations == other.violations

    def __hash__(self) -> int:
        return hash((self.violations,))

    def __repr__(self) -> str:
        return f"PropertyReport(violations={self.violations!r})"

    def __reduce__(self) -> tuple:
        return PropertyReport, (self.violations,)


def validate_model(model: Model, cfg: TheoryConfig) -> PropertyReport:
    """Check every frame property the theory class requires, at every world.

    Properties over arbitrary subsets X of W are checked exhaustively, so
    models beyond ``MAX_VALIDATION_WORLDS`` worlds are refused with a
    ValueError rather than silently churning.  Violations come back as data,
    world by world in the order of :meth:`_Ctx.faults`; where a property
    names the first offending set, that is the least one as a bitmask over
    the world order.  An empty report means the model belongs to the class.
    The report builds them as they are read, so ``ok`` stops at the first.
    """
    missing = set(cfg.reasons) - set(model.access)
    if missing:
        raise UnknownReason(
            f"model has no relation entry for declared reason {_brief(min(missing))}"
        )
    n = len(model.worlds)
    if n > MAX_VALIDATION_WORLDS:
        raise ValueError(
            f"validation is exhaustive over subsets and caps at "
            f"{MAX_VALIDATION_WORLDS} worlds; got {n}"
        )
    ctx = _ModelCtx(cfg, *model._masks)
    up = {row: superset_family(row, n) for rows in ctx.rows.values() for row in rows}
    return PropertyReport(
        Violation(prop, w, reasons, tuple(_named(model, x) for x in sets), detail)
        for i, w in enumerate(model.worlds)
        for prop, reasons, sets, detail in ctx.faults(
            i, _family_of(ctx.families[i], n), up, w
        )
    )


def check_rc(model: Model) -> PropertyReport:
    """Report world/reason pairs whose believed reasons settle disjoint sets.

    Every model that passes validation comes back clean here: (d) and (rb)
    jointly rule these configurations out, and this check makes that fact
    observable on its own.  No theory argument is needed.  It reads the
    model's encoding, which it shares with `validate_model`, `satisfies` and
    `extension`: r(w_i) is ``rows[r][i]``, and r is believed at w_i when r°,
    ``diag[r]``, is in N(w_i).  Like `validate_model`'s report, this one
    builds its violations as they are read.
    """
    _, _, rows, diag, families = model._masks

    def faults() -> Iterator[Violation]:
        for i, w in enumerate(model.worlds):
            believed = [r for r in sorted(rows) if diag[r] in families[i]]
            for pos, r in enumerate(believed):
                for s in believed[pos:]:
                    if not rows[r][i] & rows[s][i]:
                        yield Violation(
                            "rc",
                            w,
                            (r, s),
                            (_named(model, rows[r][i]), _named(model, rows[s][i])),
                            "both reasons believed, successor sets disjoint",
                        )

    return PropertyReport(faults())


# ---------------------------------------------------------------------------
# JSON wire format


def model_to_doc(model: Model, point: str | None = None) -> dict:
    doc: dict = {
        "worlds": list(model.worlds),
        "access": {
            r: [list(p) for p in sorted(ps)]
            for r, ps in sorted(model.access.items())
        },
        "neighborhoods": {
            w: sorted(sorted(x) for x in model.neighborhoods[w])
            for w in model.worlds
        },
        "valuation": {w: sorted(model.valuation[w]) for w in model.worlds},
    }
    if point is not None:
        _index(model, point, "point")
        doc["point"] = point
    return doc


def model_from_doc(doc: dict) -> tuple[Model, str | None]:
    """The model and optional point of a wire document.

    The document must be a JSON object whose ``worlds`` is an array of
    strings.  ``access``, ``neighborhoods`` and ``valuation`` may be absent
    or null, which reads as empty, and are otherwise objects: ``access``
    maps a reason to an array of [from, to] pairs, ``neighborhoods`` a
    world to an array of world arrays, ``valuation`` a world to an array of
    letters.  This function checks the document and its three objects;
    :func:`make_model` checks every name in them as it builds the model.
    Any other shape is a ValueError that names the field; a string is never
    read as its characters.
    """
    if not isinstance(doc, dict):
        raise ValueError("a model document must be a JSON object")
    for key in ("access", "neighborhoods", "valuation"):
        value = doc.get(key)
        if value is not None and not isinstance(value, dict):
            raise ValueError(f"model field {key!r} must be a JSON object")
    model = make_model(
        doc.get("worlds"), doc.get("access") or {}, doc.get("neighborhoods"), doc.get("valuation")
    )
    point = doc.get("point")
    if point is not None:
        _index(model, point, "point")
    return model, point
