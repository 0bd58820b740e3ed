"""Bounded deterministic search for witness models and countermodels.

The candidate space is walked in a fixed order: world count ascending, then
the point's valuation, then a sorted multiset of valuations for the other
worlds, then accessibility relations reason by reason in lexicographic
bitmask order, then neighborhood families.  Families are never free subsets
of the powerset of the powerset: each candidate family is the (rb)-closure
of a small seed set drawn from the adequacy sets and the extensions of
belief-free goal subformulas, deduplicated after closure.

Two shape restrictions keep the space tractable, each applied only when
provably harmless for the goals at hand.  Relations collapse to a point row
plus a diagonal unless some support assertion is nested inside another
modality (or the theory has sigma, whose frame conditions couple all rows).
When no belief assertion is nested inside a modality, only the point's
family matters, and every other world keeps the minimal family its class
permits: empty, or the closure of the sigma adequacy set.  Enlarging a
non-point family can only create frame obligations, so the minimal choice
is also the completeness-optimal one.  Otherwise families are enumerated at
every world from the same seed pool.

The quick checks evaluate goals on raw masks with the evaluator the
public functions use, :class:`~rbb.semantics._Ctx`, so the satisfaction
clauses are written down once.  Goal analysis happens once per search: the
Believes operands that seed the families are collected up front, and one
memo of quantifier instances serves every context the search builds.
A candidate that survives the quick checks is rebuilt as a public
:class:`~rbb.semantics.Model` and re-examined with `validate_model` and
`satisfies`, so the enumerator's bitmask shortcuts are never the final
authority.  Exhaustion means the bounded space holds no witness, nothing
more; in particular families outside the seed-closure pool are not tried,
and that caveat is part of the Exhausted contract.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .parser import print_formula
from .semantics import (
    Model,
    _Ctx,
    ensure_in_language,
    make_model,
    model_to_doc,
    satisfies,
    validate_model,
)
from .syntax import (
    SIGMA_NAME,
    Adequate,
    Believes,
    ForAll,
    Formula,
    Not,
    Or,
    Supports,
    formula_letters,
    free_reasons,
    is_free_for,
    subformulas,
    substitute,
)
from .theory import TheoryConfig

MAX_WORLDS_CAP = 6
MAX_SEEDS_CAP = 8


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int = 3
    max_seeds: int = 4
    budget_secs: float | None = 30.0
    reasons: tuple[str, ...] | None = None
    letters: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.max_worlds <= MAX_WORLDS_CAP:
            raise ValueError(f"max_worlds must be in 1..{MAX_WORLDS_CAP}")
        if not 0 <= self.max_seeds <= MAX_SEEDS_CAP:
            raise ValueError(f"max_seeds must be in 0..{MAX_SEEDS_CAP}")
        if self.budget_secs is not None and self.budget_secs <= 0:
            raise ValueError("budget_secs must be positive when given")


@dataclass(frozen=True)
class Witness:
    """A validated pointed model on which every goal came out true."""

    model: Model
    world: str


@dataclass(frozen=True)
class Exhausted:
    """The bounded space was walked to the end without finding a witness.

    Says nothing about larger models, larger families, or the theory itself.
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

    def walk(f: Formula, inside: bool) -> bool:
        if inside and isinstance(f, kind):
            return True
        if isinstance(f, Not):
            return walk(f.sub, inside)
        if isinstance(f, Or):
            return walk(f.left, inside) or walk(f.right, inside)
        if isinstance(f, (Supports, Believes)):
            return walk(f.sub, True)
        if isinstance(f, ForAll):
            return walk(f.sub, inside)
        return False

    return walk(formula, False)


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


def _supersets(base: int, full: int) -> Iterator[int]:
    free = full & ~base
    sub = free
    while True:
        yield base | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def _rb_closure(
    seeds: Iterable[int],
    rows_here: dict[str, int],
    diag: dict[str, int],
    full: int,
    names: tuple[str, ...],
) -> frozenset[int]:
    family = set(seeds)
    changed = True
    while changed:
        changed = False
        for name in names:
            if diag[name] not in family:
                continue
            for mask in _supersets(rows_here[name], full):
                if mask not in family:
                    family.add(mask)
                    changed = True
    return frozenset(family)


def _violates_d(family: frozenset[int], full: int) -> bool:
    return any(full ^ mask in family for mask in family)


def _sigma_local_ok(
    cfg: TheoryConfig,
    family: frozenset[int],
    rows_here: dict[str, int],
    diag: dict[str, int],
    here_bit: int,
) -> bool:
    """Point-free reading of (mb), (ma), (mr) and, for sigma+, (mt)."""
    srow = rows_here[SIGMA_NAME]
    if diag[SIGMA_NAME] not in family:
        return False
    sigma_reflexive = bool(srow & here_bit)
    for name in cfg.reasons:
        if name == SIGMA_NAME or diag[name] not in family:
            continue
        if sigma_reflexive and not rows_here[name] & here_bit:
            return False
        if srow & ~rows_here[name]:
            return False
    if cfg.sigma_plus:
        for mask in family:
            if srow & ~mask:
                return False
    return True


def _active_alphabets(
    goals: tuple[Formula, ...], cfg: TheoryConfig, bounds: SearchBounds
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if bounds.reasons is not None:
        reasons = tuple(bounds.reasons)
    elif any(_mentions(g, (ForAll,)) for g in goals):
        # A quantifier ranges over every declared reason, so narrowing to
        # the free ones would silently fix the bound ones' relations empty.
        reasons = cfg.reasons
    else:
        used: set[str] = set()
        for goal in goals:
            used |= free_reasons(goal)
        if cfg.sigma:
            used.add(SIGMA_NAME)
        reasons = tuple(r for r in cfg.reasons if r in used)
    if bounds.letters is not None:
        letters = tuple(bounds.letters)
    else:
        used_letters: set[str] = set()
        for goal in goals:
            used_letters |= formula_letters(goal)
        letters = tuple(p for p in cfg.letters if p in used_letters)
    return reasons, letters


def _reason_options(n: int, restricted: bool) -> list[tuple[list[int], int]]:
    """All relation shapes one reason can take, in enumeration order."""
    per_reason: list[tuple[list[int], int]] = []
    if restricted:
        for point_row in range(1 << n):
            for rest_diag in range(1 << (n - 1)):
                rows = [point_row]
                diag = point_row & 1
                for i in range(1, n):
                    if rest_diag >> (i - 1) & 1:
                        rows.append(1 << i)
                        diag |= 1 << i
                    else:
                        rows.append(0)
                per_reason.append((rows, diag))
    else:
        for combo in itertools.product(range(1 << n), repeat=n):
            diag = 0
            for i in range(n):
                if combo[i] >> i & 1:
                    diag |= 1 << i
            per_reason.append((list(combo), diag))
    return per_reason


def _believed_operands(
    goal_list: tuple[Formula, ...], cfg: TheoryConfig
) -> tuple[Formula, ...]:
    """The formulas whose extensions seed the neighborhood families.

    Membership of N(w) is only ever tested against the extension of some
    Believes operand in the goals, so those extensions, the adequacy sets,
    and the forced sigma seed are the one complete pool: any valid witness
    family can be cut down to its intersection with this pool plus closure
    without disturbing a goal or a frame property.  Operands under a
    quantifier contribute one extension per capture-free instantiation.
    Operands that themselves contain Believes are skipped; their extensions
    cannot be fixed ahead of the family assignment, and families outside
    the pool are already outside the advertised search space.
    """
    declared = set(cfg.reasons)
    operands: list[Formula] = []
    for goal in goal_list:
        for sub in subformulas(goal):
            if not isinstance(sub, Believes) or _mentions(sub.sub, (Believes,)):
                continue
            body = sub.sub
            free_vars = sorted(free_reasons(body) - declared)
            if not free_vars:
                operands.append(body)
                continue
            for combo in itertools.product(cfg.reasons, repeat=len(free_vars)):
                inst = body
                blocked = False
                for var, name in zip(free_vars, combo):
                    if not is_free_for(name, var, inst):
                        blocked = True
                        break
                    inst = substitute(inst, var, name)
                if not blocked and not free_reasons(inst) - declared:
                    operands.append(inst)
    return tuple(dict.fromkeys(operands))


def _seed_pool(
    active: tuple[str, ...],
    diag: dict[str, int],
    operands: tuple[Formula, ...],
    ctx: _Ctx,
) -> list[int]:
    """Sets worth offering a neighborhood family, first occurrence first."""
    masks = [diag[name] for name in active]
    masks.extend(ctx.extension(body) for body in operands)
    return list(dict.fromkeys(masks))


def _family_menu(
    cfg: TheoryConfig,
    bounds: SearchBounds,
    pool: list[int],
    rows_here: dict[str, int],
    diag: dict[str, int],
    full: int,
    here_bit: int,
    forced: tuple[int, ...],
    prune: bool,
) -> list[frozenset[int]]:
    """Deduplicated seed closures for one world, smallest seed sets first."""
    names = tuple(cfg.reasons)
    menu: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    cap = min(bounds.max_seeds, len(pool))
    for size in range(cap + 1):
        for picks in itertools.combinations(range(len(pool)), size):
            seeds = tuple(pool[i] for i in picks) + forced
            family = _rb_closure(seeds, rows_here, diag, full, names)
            if family in seen:
                continue
            seen.add(family)
            if prune:
                if _violates_d(family, full):
                    continue
                if cfg.sigma and not _sigma_local_ok(
                    cfg, family, rows_here, diag, here_bit
                ):
                    continue
            menu.append(family)
    return menu


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
    active_reasons, active_letters = _active_alphabets(goal_list, cfg, bounds)
    operands = _believed_operands(goal_list, cfg)
    instances: dict[ForAll, tuple[Formula, ...]] = {}

    restricted = not cfg.sigma and not any(_nests(g, Supports) for g in goal_list)
    point_ready = not any(_nests(g, Believes) for g in goal_list)
    val_only = [
        g for g in goal_list if not _mentions(g, (Supports, Adequate, Believes))
    ]
    # Relation-stage goals, split so that a goal touching one reason can
    # filter that reason's options before the cross-reason product.
    single: dict[str, list[Formula]] = {}
    joint: list[Formula] = []
    for g in goal_list:
        if _mentions(g, (Believes,)):
            continue
        free = free_reasons(g)
        if (
            len(free) == 1
            and not _mentions(g, (ForAll,))
            and next(iter(free)) in active_reasons
        ):
            single.setdefault(next(iter(free)), []).append(g)
        else:
            joint.append(g)

    state = {"examined": 0, "worlds": 1}

    def tick() -> None:
        state["examined"] += 1
        if (
            deadline is not None
            and state["examined"] % 128 == 0
            and time.monotonic() > deadline
        ):
            raise _OutOfTime(
                f"stopped after {state['examined']} candidates, "
                f"{state['worlds']} of {bounds.max_worlds} worlds"
            )

    for n in range(1, bounds.max_worlds + 1):
        state["worlds"] = n
        world_names = tuple(f"w{i}" for i in range(n))
        base_options = _reason_options(n, restricted)
        unfixed = (None,) * n
        letter_space = range(1 << len(active_letters))
        for point_val in letter_space:
            for rest in itertools.combinations_with_replacement(letter_space, n - 1):
                letters = {name: 0 for name in active_letters}
                for i, mask in enumerate((point_val, *rest)):
                    for j, name in enumerate(active_letters):
                        if mask >> j & 1:
                            letters[name] |= 1 << i
                if prune and val_only:
                    stage0 = _Ctx(cfg, n, letters, {}, {}, unfixed, instances)
                    if not all(stage0.extension(g) & 1 for g in val_only):
                        continue
                menus = []
                for name in active_reasons:
                    if prune and name in single:
                        goals_here = single[name]
                        kept = []
                        for opt in base_options:
                            ctx = _Ctx(
                                cfg, n, letters, {name: opt[0]}, {name: opt[1]},
                                unfixed, instances,
                            )
                            if all(ctx.extension(g) & 1 for g in goals_here):
                                kept.append(opt)
                        menus.append(kept)
                    else:
                        menus.append(base_options)
                for assignment in itertools.product(*menus):
                    tick()
                    rows = {
                        name: list(assignment[k][0])
                        for k, name in enumerate(active_reasons)
                    }
                    diag = {
                        name: assignment[k][1]
                        for k, name in enumerate(active_reasons)
                    }
                    for name in cfg.reasons:
                        if name not in rows:
                            rows[name] = [0] * n
                            diag[name] = 0
                    ctx = _Ctx(cfg, n, letters, rows, diag, unfixed, instances)
                    if prune and joint and not all(
                        ctx.extension(g) & 1 for g in joint
                    ):
                        continue
                    yield from _family_stage(
                        cfg,
                        bounds,
                        goal_list,
                        world_names,
                        letters,
                        rows,
                        diag,
                        active_reasons,
                        operands,
                        ctx,
                        prune,
                        point_ready,
                        tick,
                    )


def _family_stage(
    cfg: TheoryConfig,
    bounds: SearchBounds,
    goal_list: tuple[Formula, ...],
    world_names: tuple[str, ...],
    letters: dict[str, int],
    rows: dict[str, list[int]],
    diag: dict[str, int],
    active: tuple[str, ...],
    operands: tuple[Formula, ...],
    ctx: _Ctx,
    prune: bool,
    point_ready: bool,
    tick: Callable[[], None],
) -> Iterator[tuple[Model, str]]:
    n = len(world_names)
    full = (1 << n) - 1
    rows_at = [{name: rows[name][i] for name in cfg.reasons} for i in range(n)]
    forced: tuple[int, ...] = (diag[SIGMA_NAME],) if cfg.sigma else ()
    pool = _seed_pool(active, diag, operands, ctx)

    if point_ready:
        if cfg.sigma:
            rests: list[frozenset[int]] = []
            for i in range(1, n):
                minimal = _rb_closure(
                    forced, rows_at[i], diag, full, tuple(cfg.reasons)
                )
                if prune and (
                    _violates_d(minimal, full)
                    or not _sigma_local_ok(cfg, minimal, rows_at[i], diag, 1 << i)
                ):
                    return
                rests.append(minimal)
        else:
            rests = [frozenset() for _ in range(n - 1)]
        for family in _family_menu(
            cfg, bounds, pool, rows_at[0], diag, full, 1, forced, prune
        ):
            tick()
            if prune:
                staged = _Ctx(
                    cfg, n, letters, rows, diag, (family,) + (None,) * (n - 1),
                    ctx.instances,
                )
                if not all(staged.extension(g) & 1 for g in goal_list):
                    continue
            yield _assemble(cfg, world_names, letters, rows, [family, *rests]), (
                world_names[0]
            )
        return

    menus = [
        _family_menu(
            cfg, bounds, pool, rows_at[i], diag, full, 1 << i, forced, prune
        )
        for i in range(n)
    ]
    for combo in itertools.product(*menus):
        tick()
        if prune:
            staged = _Ctx(cfg, n, letters, rows, diag, combo, ctx.instances)
            if not all(staged.extension(g) & 1 for g in goal_list):
                continue
        yield _assemble(cfg, world_names, letters, rows, list(combo)), world_names[0]


def _assemble(
    cfg: TheoryConfig,
    world_names: tuple[str, ...],
    letters: dict[str, int],
    rows: dict[str, list[int]],
    families: list[frozenset[int]],
) -> Model:
    n = len(world_names)
    access: dict[str, set[tuple[str, str]]] = {name: set() for name in cfg.reasons}
    for name, row_list in rows.items():
        for i in range(n):
            for j in range(n):
                if row_list[i] >> j & 1:
                    access[name].add((world_names[i], world_names[j]))
    neighborhoods = {
        world_names[i]: [
            [world_names[j] for j in range(n) if mask >> j & 1]
            for mask in sorted(families[i])
        ]
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
    """
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
        "reasons": list(bounds.reasons) if bounds.reasons is not None else None,
        "letters": list(bounds.letters) if bounds.letters is not None else None,
    }


def bounds_from_doc(doc: dict) -> SearchBounds:
    return SearchBounds(
        max_worlds=doc.get("max_worlds", 3),
        max_seeds=doc.get("max_seeds", 4),
        budget_secs=doc.get("budget_secs", 30.0),
        reasons=tuple(doc["reasons"]) if doc.get("reasons") is not None else None,
        letters=tuple(doc["letters"]) if doc.get("letters") is not None else None,
    )


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
    ensure_in_language(formula, cfg)
    return find_model((Not(formula),), cfg, bounds)
