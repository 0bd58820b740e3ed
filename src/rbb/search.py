"""Bounded deterministic search for witness models and countermodels.

The candidate space is walked in a fixed order: world count ascending, then
the point's valuation, then a sorted multiset of valuations for the other
worlds, then accessibility relations reason by reason in lexicographic
bitmask order, then neighborhood families.  A family is an integer over
world sets, bit x set when the world set x is a member, as in
:class:`~rbb.semantics._Ctx`.  Families are never free subsets of the
powerset of the powerset: each candidate family is the (rb)-closure of a
small seed set drawn from the adequacy sets and the extensions of
belief-free goal subformulas, deduplicated after closure.  The closure ORs
in the forced sigma seed and then a superset family per believed reason's
row until nothing changes.  One test, `_admits`, decides whether a family
may stand at its world: it must hold the sets the point's belief literals
need, lack those they avoid, and pass the frame checker of
:meth:`~rbb.semantics._Ctx.faults`, the one `validate_model` reports from.

Two shape restrictions keep the space tractable, each applied only when
provably harmless for the goals at hand.  Relations collapse to a point row
plus a diagonal unless some support assertion is nested inside another
modality (or the theory has sigma, whose frame conditions couple all rows).
When no belief assertion is nested inside a modality, only the point's
family matters, and every other world's menu holds just the minimal family
its class permits: the closure of nothing, or of the sigma adequacy set
(an empty menu, when that breaks a frame condition, ends the assignment).
Enlarging a non-point family can only create frame obligations, so the
minimal choice is also the completeness-optimal one.  Otherwise families
are enumerated at every world from the same seed pool.

The quick checks evaluate goals on raw masks with the evaluator the
public functions use, :class:`~rbb.semantics._Ctx`, so the satisfaction
clauses are written down once.  Goal analysis happens once per search: the
formulas whose extensions seed the families, the active reasons' adequacy
atoms and then the Believes operands, are collected up front.  Quantifier
instances, here and in every context, come from :func:`~rbb.syntax.instances`.

One schedule, built by `_schedule`, puts each goal conjunct into exactly
one stage, the first in walk order that fixes its value at the point, and
each stage checks only its own conjuncts.  A top-level ``A t. phi`` holds
at the point exactly when each of its instances does, so the conjuncts of
its instances take its place.

Every goal holds at the point, so `_schedule` first propagates its
literals (letters, adequacy atoms, ``t:phi``, ``B phi``, equations, and
their negations), as unit propagation does.  Each other conjunct gets
their values, and ground equations theirs, where they occur outside
Supports and Believes, and is simplified: dropped when true, split again
when changed, until nothing changes.  A quantifier folds wherever a
literal does, as the conjunction of its instances: false when one of them
folds to false, true when all fold to true.  Opposite literals or a false
conjunct end the search at once.  This is exact, so the candidates and
their order do not change; the analyses that shape the space still read
the original goals.  What the later stages read of the schedule is worked
out once per search, not per valuation.

* valuation: conjuncts without Supports, adequacy atoms or Believes;
* reason k's shapes: Believes-free conjuncts with the one free reason k,
  an active one, and no quantifier;
* relation walk: every other Believes-free conjunct, at the first walk
  position that fixes every reason it reads (all of them, for a
  quantifier), and at the last position the point's base family;
* the point's family menu: top-level ``B phi`` and ``~B phi`` with a
  Believes-free phi, whose extension the relations already fix, so they
  keep just the point families that hold ext(phi) or lack it;
* staged: the conjuncts no earlier stage decides, on each combination of
  families.

The relation walk fixes the active reasons depth first, each through its
shapes in order, so the assignments come out in lexicographic order; walk
position k has the first k reasons fixed.  At the point a conjunct reads
each reason's point row and diagonal, and other rows only through Supports
nested in a modality; a belief operand's whole extension counts as nested.
So when no goal nests Supports, each check is decided once per tuple of
(point row, diagonal) keys, on stand-in restricted shapes, and with
forward checking: a key passes only when each later reason has a key that
completes it.  A reason's shapes with one point row are contiguous in
enumeration order and are made lazily, and a point row none of whose keys
passes is skipped as one step.  Otherwise each check runs on each shape
the walk reaches.  A reason whose own conjuncts admit no shape ends the
valuation at once.  A keyed check reads a world only through its vector
there: the letters of the relation conjuncts, of the point's belief
operands and of (pr), and each fixed key's point-row and diagonal bits.
So one memo per world count decides it once per class: its position, the
point's vector and the other worlds' vectors, sorted.  Whether a prefix
has a completion also reads the letters of later reasons' own conjuncts,
so a memo per valuation answers it once per orbit: the class with each
world's active-letter bits next to its vector.  With no adequacy atom
in Supports and an empty base family (no sigma, no positive point belief
literal), a point row is its one key.  A reason's own conjuncts that read
no diagonal beyond the point are decided for all its point rows in one
evaluation over the 2^n rows, as (CL) is over a truth table.

The base family of world i is the least family its menu can hold: the
(rb)-closure of the forced sigma seed and, at the point, of the sets the
belief literals need.  Each fault the frame checker finds on that closed
family, (pr), (d), (ma), (mr) or (mt), stays in every closed superset, and
so does a set the belief literals avoid.  So a base fault drops the
assignment before any menu is built: at the point in the walk, and at the
other worlds in the family stage.  There the base family, the closure of
the forced seed alone, is worked out once per world: it is the base check,
and without nested belief it is also the world's whole menu.  A forced reason's degree, sigma's by
(mb) or r's by a point literal ``B r``, is in the base family, and by (rb)
so is each superset of its point row.  So `_row_filter` drops a forced
row inside a set that a literal ``~B phi`` avoids and the letters fix
(rb), one that misses an earlier forced row (d), and a sigma row outside
one (mr): each fails the base check.  The walk skips such a row as one
step, and forward checks never ask its keys (Haralick & Elliott 1980).

The budget is polled at the first step and every 128th after it.  A step
is a relation step (a check or a completion asked, whether a memo
answers it or not, a shape walked, or a point row skipped) or a family
combination, and `BudgetExceeded` counts both.

A candidate that survives the quick checks is rebuilt as a public
:class:`~rbb.semantics.Model` and re-examined with `validate_model` and
`satisfies`, so the enumerator's bitmask shortcuts are never the final
authority.  Exhaustion means the bounded space holds no witness, nothing
more, and the Exhausted contract has one caveat: families outside the
seed-closure pool are not tried, so a belief operand that nests Believes
(``B B p``) can miss a witness.  A reason outside the active alphabet, which
the goals alone fix and which always holds sigma, sees every world, and a
shared name's letter holds everywhere, by (pr).  Then r-degree is W, (rb),
(ma) and (mr) hold for r, and a witness stays one if its goals do not read r.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .parser import print_formula
from .semantics import (
    Model,
    _Ctx,
    ensure_in_language,
    make_model,
    model_to_doc,
    satisfies,
    superset_family,
    validate_model,
)
from .syntax import (
    SIGMA_NAME,
    Adequate,
    Believes,
    Eq,
    ForAll,
    Formula,
    Letter,
    Not,
    Or,
    Supports,
    atom_term,
    formula_letters,
    free_reasons,
    instances,
    subformulas,
    term_name,
)
from .theory import TheoryConfig

MAX_WORLDS_CAP = 6
MAX_SEEDS_CAP = 8


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int = 3
    max_seeds: int = 4
    budget_secs: float | None = 30.0

    def __post_init__(self) -> None:
        if not 1 <= self.max_worlds <= MAX_WORLDS_CAP:
            raise ValueError(f"max_worlds must be in 1..{MAX_WORLDS_CAP}")
        if not 0 <= self.max_seeds <= MAX_SEEDS_CAP:
            raise ValueError(f"max_seeds must be in 0..{MAX_SEEDS_CAP}")
        # NaN and infinity too: no clock is ever past either, and JSON has neither.
        if self.budget_secs is not None and not 0 < self.budget_secs < math.inf:
            raise ValueError("budget_secs must be a positive finite number when given")


@dataclass(frozen=True)
class Witness:
    """A validated pointed model on which every goal came out true."""

    model: Model
    world: str


@dataclass(frozen=True)
class Exhausted:
    """The bounded space was walked to the end without finding a witness.

    Says nothing about larger models or the theory; see the module docstring.
    """

    bounds: SearchBounds


@dataclass(frozen=True)
class BudgetExceeded:
    progress: str


SearchOutcome = Witness | Exhausted | BudgetExceeded


class _OutOfTime(Exception):
    def __init__(self, progress: str) -> None:
        self.progress = progress


def _nests(formula: Formula, kind: type) -> bool:
    """True when a ``kind`` node sits strictly inside Supports or Believes."""
    return any(
        isinstance(f, (Supports, Believes)) and _mentions(f.sub, (kind,))
        for f in subformulas(formula)
    )


def _mentions(formula: Formula, kinds: tuple[type, ...]) -> bool:
    return any(isinstance(sub, kinds) for sub in subformulas(formula))


def _neg(formula: Formula) -> Formula:
    return formula.sub if isinstance(formula, Not) else Not(formula)


def _conjuncts(formula: Formula) -> Iterator[Formula]:
    """Split top-level conjunctive structure so each piece prunes early.

    A negated disjunction is two conjuncts by De Morgan, and since the
    conditional is sugar for a disjunction this also cracks open negated
    implications, the shape every nonvalidity query arrives in.
    """
    if isinstance(formula, Not) and isinstance(formula.sub, Not):
        yield from _conjuncts(formula.sub.sub)
    elif isinstance(formula, Not) and isinstance(formula.sub, Or):
        yield from _conjuncts(_neg(formula.sub.left))
        yield from _conjuncts(_neg(formula.sub.right))
    else:
        yield formula


def _rb_closure(family: int, i: int, ctx: _Ctx) -> int:
    """The least family above ``family`` and the forced sigma seed that
    meets (rb) at world i."""
    up = _superset_families(ctx.n)
    if ctx.cfg.sigma:
        family |= 1 << ctx.diag[SIGMA_NAME]
    while True:
        grown = family
        for name in ctx.cfg.reasons:
            if grown >> ctx.diag[name] & 1:
                grown |= up[ctx.rows[name][i]]
        if grown == family:
            return family
        family = grown


def _active_alphabets(
    goals: tuple[Formula, ...], cfg: TheoryConfig
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if any(_mentions(g, (ForAll,)) for g in goals):
        # A quantifier ranges over every declared reason, so narrowing to
        # the free ones would silently fix the bound ones' relations full.
        reasons = cfg.reasons
    else:
        used: set[str] = set()
        for goal in goals:
            used |= free_reasons(goal)
        if cfg.sigma:
            used.add(SIGMA_NAME)
        reasons = tuple(r for r in cfg.reasons if r in used)
    used_letters: set[str] = set()
    for goal in goals:
        used_letters |= formula_letters(goal)
    letters = tuple(p for p in cfg.letters if p in used_letters)
    # (pr) ties a shared name's letter to its reason: vary both sides or neither.
    shared = set(cfg.reasons) & set(cfg.letters) & {*reasons, *letters}
    reasons += tuple(x for x in cfg.reasons if x in shared - set(reasons))
    letters += tuple(x for x in cfg.letters if x in shared - set(letters))
    return reasons, letters


#: A relation shape of one reason: its row per world, and its diagonal.
_Shape = tuple[list[int], int]


def _shape(n: int, key: tuple[int, int]) -> _Shape:
    """The restricted shape with (point row, diagonal) ``key``: each other
    world sees itself when it is on the diagonal, and nothing otherwise."""
    return [key[0], *(key[1] & 1 << i for i in range(1, n))], key[1]


def _shapes(n: int, restricted: bool, point_row: int) -> Iterator[_Shape]:
    """One reason's relation shapes with ``point_row`` at w0, in enumeration
    order, made one at a time: an unrestricted reason has 32^5 at 5 worlds."""
    if restricted:
        for diag in range(point_row & 1, 1 << n, 2):
            yield _shape(n, (point_row, diag))
        return
    for rest in itertools.product(range(1 << n), repeat=n - 1):
        diag = point_row & 1
        for i, row in enumerate(rest, 1):
            diag |= row & 1 << i
        yield [point_row, *rest], diag


def _believed_operands(
    goal_list: tuple[Formula, ...], cfg: TheoryConfig
) -> tuple[Formula, ...]:
    """The formulas whose extensions seed the neighborhood families.

    Membership of N(w) is only ever tested against the extension of some
    Believes operand in the goals, so those extensions, the adequacy sets,
    and the forced sigma seed are the one complete pool: any valid witness
    family can be cut down to its intersection with this pool plus closure
    without disturbing a goal or a frame property.  Quantifiers contribute
    the operands of the instances the evaluator reads, which
    :func:`~rbb.syntax.instances` builds for both.
    Operands that themselves contain Believes are skipped; their extensions
    cannot be fixed ahead of the family assignment, and families outside
    the pool are already outside the advertised search space.
    """
    operands: list[Formula] = []

    def walk(f: Formula) -> None:
        if isinstance(f, ForAll):
            for inst in instances(f, cfg.reasons):
                walk(inst)
            return
        if isinstance(f, Believes) and not _mentions(f.sub, (Believes,)):
            operands.append(f.sub)
        if isinstance(f, Or):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (Not, Supports, Believes)):
            walk(f.sub)

    for goal in goal_list:
        walk(goal)
    return tuple(dict.fromkeys(operands))


@dataclass
class _Schedule:
    """The goal conjuncts of each stage, in walk order (see the module
    docstring).  ``relations`` maps a walk position, the number of active
    reasons fixed, to the conjuncts whose reasons are all fixed there;
    ``point`` holds (phi, believed) for each belief literal.  The unpruned
    walk gets the empty schedule with ``prune`` off, which keeps
    frame-faulty families too.  `settle` derives the rest once per search.
    """

    prune: bool
    valuation: list[Formula] = field(default_factory=list)
    reasons: dict[str, list[Formula]] = field(default_factory=dict)
    relations: dict[int, list[Formula]] = field(default_factory=dict)
    point: list[tuple[Formula, bool]] = field(default_factory=list)
    staged: list[Formula] = field(default_factory=list)
    atoms: dict[str, set[Formula]] = field(default_factory=dict)  # the Supports in ``reasons``
    nested: set[str] = field(default_factory=set)  # reasons whose own conjuncts nest an adequacy atom
    by_row: bool = False  # a keyed walk's point row is its one key
    read: list[str] = field(default_factory=list)  # the letters of `_letter_vectors`
    forced: set[str] = field(default_factory=set)  # the reasons `_row_filter` filters
    fixed: list[Formula] = field(default_factory=list)  # the sets (rb) bars them from

    def settle(self, cfg: TheoryConfig) -> _Schedule:
        """Work out what the walk reads of the stages, once per search."""
        own, walked, point = self.reasons.items(), [*itertools.chain(*self.relations.values())], self.point
        self.atoms = {k: {f for g in v for f in subformulas(g) if type(f) is Supports} for k, v in own}
        self.nested = {k for k, v in own if any(_nests(g, Adequate) for g in v)}
        self.by_row = not (cfg.sigma or self.nested or any(held for _, held in point))
        self.by_row = self.by_row and not any(_nests(g, Adequate) for g in walked)
        shared = set(cfg.letters) & set(cfg.reasons) if cfg.allow_overlap else set()
        self.read = sorted(shared.union(*map(formula_letters, [*walked, *(phi for phi, _ in point)])))
        self.forced = {term_name(phi.reason) for phi, held in point if held and isinstance(phi, Adequate)}
        self.forced |= {SIGMA_NAME} if cfg.sigma and self.prune else set()  # by (mb)
        self.fixed = [phi for phi, held in point if not (held or _mentions(phi, (Supports, Adequate)))]
        return self


_ATOMS = (Letter, Adequate, Supports, Believes)


def _fold(f: Formula, known: dict[Formula, bool], reasons: tuple[str, ...]) -> Formula | bool:
    """``f`` with its top-level atoms in ``known`` and equations replaced by
    their truth values, simplified; ``f`` itself when nothing changed.  A
    quantifier is the conjunction of its instances over ``reasons``: false
    when one folds to false, true when all fold to true, and kept whole
    otherwise."""
    if isinstance(f, Eq):
        return term_name(f.left) == term_name(f.right)
    if isinstance(f, ForAll):
        folded = [_fold(inst, known, reasons) for inst in instances(f, reasons)]
        if any(value is False for value in folded):
            return False
        return all(value is True for value in folded) or f
    if isinstance(f, Not):
        sub = _fold(f.sub, known, reasons)
        if isinstance(sub, bool):
            return not sub
        return f if sub is f.sub else _neg(sub)
    if isinstance(f, Or):
        left, right = _fold(f.left, known, reasons), _fold(f.right, known, reasons)
        if left is True or right is False:
            return left
        if right is True or left is False:
            return right
        return f if left is f.left and right is f.right else Or(left, right)
    return known.get(f, f)


def _schedule(
    goal_list: tuple[Formula, ...], active: tuple[str, ...], cfg: TheoryConfig
) -> _Schedule | None:
    """Propagate the point's literals (see the module docstring), then put
    each conjunct into the first stage that fixes its value; None when no
    candidate can meet the goals."""
    known: dict[Formula, bool] = {}
    goals: dict[Formula, None] = {}
    pending = list(goal_list)
    while pending:
        for g in pending:
            if isinstance(g, ForAll):
                # It holds at the point exactly when each of its instances does.
                pending.extend(c for inst in instances(g, cfg.reasons) for c in _conjuncts(inst))
                continue
            goals[g] = None
            atom, value = (g.sub, False) if isinstance(g, Not) else (g, True)
            if isinstance(atom, _ATOMS) and known.setdefault(atom, value) is not value:
                return None
        pending = []
        for g in list(goals):
            if isinstance(g.sub if isinstance(g, Not) else g, _ATOMS):
                continue
            folded = _fold(g, known, cfg.reasons)
            if folded is False:
                return None
            if folded is not g:
                del goals[g]
                if folded is not True:
                    pending.extend(_conjuncts(folded))
    out = _Schedule(True)
    for g in goals:
        literal = g.sub if isinstance(g, Not) else g
        if not _mentions(g, (Supports, Adequate, Believes)):
            out.valuation.append(g)
        elif not _mentions(g, (Believes,)):
            free = free_reasons(g)
            if _mentions(g, (ForAll,)):
                # A quantifier reads every reason, so it waits for them all.
                out.relations.setdefault(len(active), []).append(g)
            elif len(free) == 1 and free <= set(active):
                out.reasons.setdefault(next(iter(free)), []).append(g)
            else:
                at = max((active.index(r) + 1 for r in free if r in active), default=0)
                out.relations.setdefault(at, []).append(g)
        elif isinstance(literal, Believes) and not _mentions(literal.sub, (Believes,)):
            out.point.append((literal.sub, literal is g))
        else:
            out.staged.append(g)
    return out.settle(cfg)


def _letter_vectors(schedule: _Schedule, letters: dict[str, int], n: int, m: int) -> list[int]:
    """World i's vector before the walk fixes a key: bit 2m + j is the j-th
    letter that the keyed checks read (see the module docstring) at i."""
    masks = [letters.get(p, 0) for p in schedule.read]
    return [sum((x >> i & 1) << j for j, x in enumerate(masks)) << 2 * m for i in range(n)]


def _append_key(vectors: list[int], key: tuple[int, int], k: int) -> list[int]:
    """The vectors with active reason k's key bits at 2k + 1 (row), 2k (diagonal)."""
    row, d = key
    return [v | ((row >> i & 1) << 1 | d >> i & 1) << 2 * k for i, v in enumerate(vectors)]


def _class_key(k: int, vectors: list[int]) -> tuple[int, ...]:
    """The class of a keyed check at walk position k (module docstring)."""
    return (k, vectors[0], *sorted(vectors[1:]))


def _orbit_key(k: int, vectors: list[int], tags: list[int]) -> tuple:
    """The orbit of a prefix at walk position k: its class, with each
    world's active-letter bits ``tags`` next to its vector."""
    return (k, (vectors[0], tags[0]), *sorted(zip(vectors[1:], tags[1:])))


def _point_sets(schedule: _Schedule, ctx: _Ctx) -> tuple[int, int]:
    """The world sets the point's belief literals ask N(w0) to hold
    (``need``) and to lack (``avoid``), as families.  Their operands are
    Believes-free, so the relation context already fixes these sets."""
    need = avoid = 0
    for body, believed in schedule.point:
        bit = 1 << ctx.extension(body)
        if believed:
            need |= bit
        else:
            avoid |= bit
    return need, avoid


def _admits(ctx: _Ctx, i: int, family: int, need: int = 0, avoid: int = 0) -> bool:
    """True when ``family`` holds every world set of ``need``, none of
    ``avoid``, and no frame fault at world i."""
    up = _superset_families(ctx.n)
    return (
        family & need == need
        and not family & avoid
        and next(ctx.faults(i, family, up, f"w{i}"), None) is None
    )


def _base_fault(ctx: _Ctx, need: int, avoid: int) -> bool:
    """True when the point's base family (see the module docstring) is not
    admitted, so that its menu is empty."""
    return not _admits(ctx, 0, _rb_closure(need, 0, ctx), need, avoid)


@functools.cache
def _subset_families(n: int) -> list[int]:
    """Entry x is the family, over n worlds, of the subsets of x."""
    return [sum(1 << r for r in range(1 << n) if not r & ~x) for x in range(1 << n)]


@functools.cache
def _superset_families(n: int) -> list[int]:
    """Entry x is the family, over n worlds, of the supersets of x."""
    return [superset_family(x, n) for x in range(1 << n)]


def _own_rows(schedule: _Schedule, name: str, plain: _Ctx) -> int:
    """The family of point rows with which reason ``name``'s own conjuncts,
    nesting no adequacy atom, hold at the point of ``plain``.  Table world x
    is the point with point row x; with no quantifier, cfg is never read."""
    n, full, down = plain.n, (1 << (1 << plain.n)) - 1, _subset_families(plain.n)
    point = {p: full * (mask & 1) for p, mask in plain.letters.items()}
    table = _Ctx(None, 1 << n, point, {}, {name: superset_family(1, n)}, ())
    table.memo.update((f, down[plain.extension(f.sub)]) for f in schedule.atoms[name])
    return functools.reduce(int.__and__, map(table.extension, schedule.reasons[name]), full)


def _row_filter(
    schedule: _Schedule, active: tuple[str, ...], plain: _Ctx
) -> Callable[[list[int]], int]:
    """The point-row filter of the valuation ``plain`` evaluates (module
    docstring): given the point rows fixed so far, the family of rows the
    next active reason may take, -1 (every row) unless it is forced."""
    down, forced = _subset_families(plain.n), schedule.forced
    bar = 0  # (rb): the rows inside a set that N(w0) avoids
    for phi in schedule.fixed if forced else []:
        bar |= down[plain.extension(phi)]

    def allowed(rows: list[int]) -> int:
        name = active[len(rows)]
        if name not in forced:
            return -1
        family = ~bar
        for reason, row in zip(active, rows):
            if reason in forced:  # (d) drops the rows that miss it, (mr) sigma's outside it
                family &= ~down[plain.full ^ row] & (down[row] if name == SIGMA_NAME else -1)
        return family

    return allowed


def _family_menu(
    max_seeds: int, pool: list[int], ctx: _Ctx, i: int, prune: bool, need: int = 0, avoid: int = 0
) -> list[int]:
    """The distinct (rb)-closures at world i of up to ``max_seeds`` sets of
    ``pool``, smallest seed sets first; pruning keeps the admitted ones."""
    sizes = range(min(max_seeds, len(pool)) + 1)
    picks = itertools.chain.from_iterable(itertools.combinations(pool, k) for k in sizes)
    closures = dict.fromkeys(_rb_closure(sum(1 << x for x in seeds), i, ctx) for seeds in picks)
    return [family for family in closures if not prune or _admits(ctx, i, family, need, avoid)]


RELATION, FAMILY = "relation steps", "family combinations"


def iter_candidates(
    goals: Iterable[Formula],
    cfg: TheoryConfig,
    bounds: SearchBounds | None = None,
    prune: bool = True,
    deadline: float | None = None,
) -> Iterator[tuple[Model, str]]:
    """Enumerate candidate pointed models in the fixed deterministic order.

    With ``prune`` on, candidates failing the quick goal and frame checks
    are dropped before being built; with it off the whole closure-restricted
    space streams through, which is what the enumeration counting tests
    measure.  ``deadline`` is a monotonic-clock cutoff; past it the internal
    budget signal fires and `find_models` turns it into an outcome.
    """
    bounds = bounds or SearchBounds()
    split: set[Formula] = set()
    for goal in goals:
        ensure_in_language(goal, cfg)
        split.update(_conjuncts(goal))
    goal_list = tuple(sorted(split, key=print_formula))
    active_reasons, active_letters = _active_alphabets(goal_list, cfg)
    # The sets worth offering a family: adequacy sets, then belief operands.
    seeds = [Adequate(atom_term(name)) for name in active_reasons]
    seeds += _believed_operands(goal_list, cfg)

    # With no Supports nested in a goal, no relation-stage check reads a
    # row other than the point's.
    keyed = not any(_nests(g, Supports) for g in goal_list)
    point_ready = not any(_nests(g, Believes) for g in goal_list)
    schedule = _Schedule(False).settle(cfg)
    if prune:
        schedule = _schedule(goal_list, active_reasons, cfg)
        if schedule is None:
            return

    # By (pr), a shared name whose reason sees every world is a letter true everywhere.
    pinned = [x for x in cfg.letters if x in cfg.reasons and x not in active_reasons]
    done = dict.fromkeys((RELATION, FAMILY), 0)
    polls = itertools.count()
    n = 1

    def tick(kind: str) -> None:
        done[kind] += 1
        if (
            deadline is not None
            and next(polls) % 128 == 0
            and time.monotonic() > deadline
        ):
            counts = " and ".join(f"{count} {what}" for what, count in done.items())
            raise _OutOfTime(
                f"stopped after {counts}, {n} of {bounds.max_worlds} worlds"
            )

    for n in range(1, bounds.max_worlds + 1):
        verdicts: dict[tuple[int, ...], bool] = {}
        letter_space = range(1 << len(active_letters))
        for point_val in letter_space:
            for rest in itertools.combinations_with_replacement(letter_space, n - 1):
                letters = dict.fromkeys(active_letters, 0) | dict.fromkeys(pinned, (1 << n) - 1)
                for i, mask in enumerate((point_val, *rest)):
                    for j, name in enumerate(active_letters):
                        if mask >> j & 1:
                            letters[name] |= 1 << i
                walk = _relation_walk(cfg, n, letters, active_reasons, schedule, keyed, tick, verdicts)
                for ctx in walk:
                    yield from _family_stage(bounds.max_seeds, seeds, ctx, point_ready, schedule, tick)


def _relation_walk(
    cfg: TheoryConfig,
    n: int,
    letters: dict[str, int],
    active: tuple[str, ...],
    schedule: _Schedule,
    keyed: bool,
    tick: Callable[[str], None],
    verdicts: dict[tuple[int, ...], bool],
) -> Iterator[_Ctx]:
    """The relation assignments that pass the valuation and relation stages, in order.

    See the module docstring for the walk.  When ``keyed``, ``menus[k]``
    holds reason k's keys that pass its own conjuncts, and ``ok(prefix,
    i)`` says whether key i of ``menus[k]`` passes the checks at position
    k + 1 after the keys ``prefix`` and has a completion; the answers are
    kept per prefix, with its world vectors, in a bytearray: 0 unknown,
    1 fails, 2 passes.  Whether a prefix has a completion is kept per orbit.
    """
    m, unfixed, full = len(active), (0,) * n, (1 << n) - 1

    def context(named: dict[str, _Shape]) -> _Ctx:
        # A reason outside the active alphabet sees every world (module docstring).
        rows = {name: [full] * n for name in cfg.reasons}
        diag = dict.fromkeys(cfg.reasons, full)
        for name, (row_list, adequate) in named.items():
            rows[name], diag[name] = row_list, adequate
        return _Ctx(cfg, n, letters, rows, diag, unfixed)

    def holds(
        named: dict[str, _Shape], goals: list[Formula], base: bool = False
    ) -> bool:
        if not goals and not base:
            return True
        tick(RELATION)
        ctx = context(named)
        return all(ctx.extension(g) & 1 for g in goals) and not (
            base and _base_fault(ctx, *_point_sets(schedule, ctx))
        )

    def passes(shapes: list[_Shape], goals: list[Formula]) -> bool:
        k = len(shapes)
        goals = [*goals, *schedule.relations.get(k, [])]
        return holds(dict(zip(active, shapes)), goals, k == m and schedule.prune)

    own = [schedule.reasons.get(name, []) for name in active]
    plain = _Ctx(cfg, n, letters, {}, {}, unfixed)  # the valuation stage's context
    if not all(plain.extension(g) & 1 for g in schedule.valuation) or not passes([], []):
        return
    allowed = _row_filter(schedule, active, plain)
    if keyed:
        step = 1 << n if schedule.by_row else 2
        keys = [(row, d) for row in range(1 << n) for d in range(row & 1, 1 << n, step)]

        def menu(name: str, goals: list[Formula]) -> list[tuple[int, int]]:
            if name in schedule.nested:
                return [key for key in keys if holds({name: _shape(n, key)}, goals)]
            # All 2^n point rows in one evaluation, as (CL) is over a truth table.
            for _ in range(1 << n):
                tick(RELATION)  # a step per row, as when each was decided alone
            rows = _own_rows(schedule, name, plain)
            return [key for key in keys if rows >> key[0] & 1]

        menus = [menu(name, goals) if goals else keys for name, goals in zip(active, own)]
        if not all(menus):
            return
        index = [{key: i for i, key in enumerate(menu)} for menu in menus]

        def span(k: int, row: int) -> range:
            """Where reason k's keys with point row ``row`` lie in ``menus[k]``."""
            menu = menus[k]
            return range(bisect.bisect_left(menu, (row,)), bisect.bisect_left(menu, (row + 1,)))

        start = _letter_vectors(schedule, letters, n, m)
        tags = [sum((x >> i & 1) << j for j, x in enumerate(letters.values())) for i in range(n)]
        memo = {(): (bytearray(len(menus[0]) if m else 0), start)}
        completions: dict[tuple, bool] = {}

        def ok(prefix: tuple[tuple[int, int], ...], i: int) -> bool:
            k = len(prefix)
            state, vectors = memo[prefix]
            if not state[i]:
                chosen, grown = (*prefix, menus[k][i]), _append_key(vectors, menus[k][i], k)
                passed = True
                if schedule.relations.get(k + 1) or k + 1 == m and schedule.prune:
                    key = _class_key(k + 1, grown)
                    if key in verdicts:  # an answer from a memo is a step too
                        tick(RELATION)
                    else:
                        verdicts[key] = passes([_shape(n, c) for c in chosen], [])
                    passed = verdicts[key]
                if passed and k + 1 < m:
                    memo[chosen] = bytearray(len(menus[k + 1])), grown
                    orbit = _orbit_key(k + 1, grown, tags)
                    if orbit in completions:
                        tick(RELATION)
                    else:
                        cap = allowed([c[0] for c in chosen])
                        rows = (row for row in range(1 << n) if cap >> row & 1)
                        inside = (j for row in rows for j in span(k + 1, row))
                        completions[orbit] = any(ok(chosen, j) for j in inside)
                    passed = completions[orbit]
                state[i] = 1 + passed
            return state[i] == 2

    elif not all(
        any(
            holds({name: shape}, goals)
            for row in range(1 << n)
            for shape in _shapes(n, False, row)
        )
        for name, goals in zip(active, own)
    ):
        return

    def walk(prefix: tuple, shapes: list[_Shape]) -> Iterator[_Ctx]:
        k = len(shapes)
        if k == m:
            yield context(dict(zip(active, shapes)))
            return
        cap = allowed([shape[0][0] for shape in shapes])
        for row in range(1 << n):
            if not cap >> row & 1 or keyed and not any(ok(prefix, i) for i in span(k, row)):
                tick(RELATION)
                continue
            for shape in _shapes(n, keyed and not cfg.sigma, row):
                tick(RELATION)
                key = (row, row & 1 if keyed and schedule.by_row else shape[1])
                if keyed:
                    i = index[k].get(key)
                    if i is None or not ok(prefix, i):
                        continue
                elif not passes([*shapes, shape], own[k]):
                    continue
                yield from walk((*prefix, key), [*shapes, shape])

    yield from walk((), [])


def _family_stage(
    max_seeds: int, seeds: list[Formula], ctx: _Ctx, point_ready: bool, schedule: _Schedule,
    tick: Callable[[str], None],
) -> Iterator[tuple[Model, str]]:
    """The candidates of one relation assignment ``ctx``, one family per world.

    The relation walk has already checked the point's base family.  Each
    other world's least family, the closure of the forced seed alone, is
    its base check: one that is not admitted ends the assignment before any
    menu is built.  Without nested belief it is also that world's whole
    menu.  The point's menu comes next and keeps only the families that
    decide the schedule's belief literals the way the goals ask, so an
    empty menu ends the assignment before the other worlds' menus and the
    product.  The staged check then evaluates, on each combination of
    families, just the conjuncts no earlier stage decides; with none, every
    combination is a candidate and no staged context is built.
    """
    prune = schedule.prune
    menus = []
    for i in range(1, ctx.n):
        family = _rb_closure(0, i, ctx)
        if prune and not _admits(ctx, i, family):
            return
        menus.append([family])
    pool = list(dict.fromkeys(map(ctx.extension, seeds)))
    point_menu = _family_menu(max_seeds, pool, ctx, 0, prune, *_point_sets(schedule, ctx))
    if not point_menu:
        return
    if not point_ready:
        menus = [_family_menu(max_seeds, pool, ctx, i, prune) for i in range(1, ctx.n)]
    staged = schedule.staged
    for combo in itertools.product(point_menu, *menus):
        tick(FAMILY)
        if staged:
            at = _Ctx(ctx.cfg, ctx.n, ctx.letters, ctx.rows, ctx.diag, combo)
            if not all(at.extension(g) & 1 for g in staged):
                continue
        yield _assemble(ctx.letters, ctx.rows, combo), "w0"


def _assemble(
    letters: dict[str, int], rows: dict[str, list[int]], families: tuple[int, ...]
) -> Model:
    n = len(families)
    world_names = tuple(f"w{i}" for i in range(n))

    def named(mask: int) -> list[str]:
        return [world_names[j] for j in range(n) if mask >> j & 1]

    access = {
        name: {(world_names[i], w) for i, row in enumerate(row_list) for w in named(row)}
        for name, row_list in rows.items()
    }
    neighborhoods = {
        world_names[i]: [named(x) for x in range(1 << n) if families[i] >> x & 1]
        for i in range(n)
    }
    valuation = {
        world_names[i]: [
            name for name, mask in sorted(letters.items()) if mask >> i & 1
        ]
        for i in range(n)
    }
    return make_model(world_names, access, neighborhoods, valuation)


def iter_witnesses(
    goals: Iterable[Formula],
    cfg: TheoryConfig,
    bounds: SearchBounds | None = None,
    deadline: float | None = None,
) -> Iterator[Witness]:
    """Candidates that survive the authoritative public re-check."""
    goal_list = tuple(sorted(set(goals), key=print_formula))
    for model, point in iter_candidates(goal_list, cfg, bounds, True, deadline):
        if not validate_model(model, cfg).ok:
            continue
        if all(satisfies(model, point, g, cfg) for g in goal_list):
            yield Witness(model, point)


def find_model(
    goals: Iterable[Formula],
    cfg: TheoryConfig,
    bounds: SearchBounds | None = None,
) -> SearchOutcome:
    """First witness in enumeration order, or Exhausted, or BudgetExceeded."""
    witnesses, outcome = find_models(goals, cfg, bounds, limit=1)
    return witnesses[0] if witnesses else outcome


def find_models(
    goals: Iterable[Formula],
    cfg: TheoryConfig,
    bounds: SearchBounds | None = None,
    limit: int = 1,
) -> tuple[tuple[Witness, ...], SearchOutcome | None]:
    """Collect up to ``limit`` witnesses plus the terminal outcome.

    The terminal outcome is None when the limit stopped the walk, otherwise
    Exhausted or BudgetExceeded; the budget covers the whole collection.
    A ``limit`` below 1 is a ValueError.
    """
    if limit < 1:
        raise ValueError(f"the witness limit must be at least 1, got {limit}")
    bounds = bounds or SearchBounds()
    deadline = (
        time.monotonic() + bounds.budget_secs
        if bounds.budget_secs is not None
        else None
    )
    collected: list[Witness] = []
    try:
        for witness in iter_witnesses(goals, cfg, bounds, deadline):
            collected.append(witness)
            if len(collected) >= limit:
                return tuple(collected), None
    except _OutOfTime as exc:
        return tuple(collected), BudgetExceeded(exc.progress)
    return tuple(collected), Exhausted(bounds)


def bounds_to_doc(bounds: SearchBounds) -> dict:
    return {
        "max_worlds": bounds.max_worlds,
        "max_seeds": bounds.max_seeds,
        "budget_secs": bounds.budget_secs,
        # Constant nulls keep the pinned outcome documents byte-stable.
        "reasons": None,
        "letters": None,
    }


def outcome_to_doc(outcome: SearchOutcome) -> dict:
    if isinstance(outcome, Witness):
        return {"kind": "witness", "model": model_to_doc(outcome.model, outcome.world)}
    if isinstance(outcome, Exhausted):
        return {"kind": "exhausted", "bounds": bounds_to_doc(outcome.bounds)}
    return {"kind": "budget-exceeded", "progress": outcome.progress}


def check_nonvalidity(
    formula: Formula,
    cfg: TheoryConfig,
    bounds: SearchBounds | None = None,
) -> SearchOutcome:
    """Search for a pointed countermodel; a witness certifies non-theoremhood."""
    return find_model((Not(formula),), cfg, bounds)
