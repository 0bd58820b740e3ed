"""Seeded random factories shared across the test modules.

Everything here is deterministic given a seed.  Models come out of a
construct-repair-validate loop: draw a random structure, repair it toward
the frame properties of the requested class, and keep it only if the public
validator signs off.  The validator is the arbiter; the repairs just keep
the acceptance rate high.
"""

from __future__ import annotations

import random

from rbb.semantics import Model, make_model, validate_model
from rbb.syntax import (
    SIGMA,
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
    atom_term,
    conj,
    disj,
    iff,
    impl,
    is_free_for,
    substitute,
)
from rbb.theory import SchemeId, TheoryConfig

WORLD_NAMES = ("w0", "w1", "w2", "w3")
REASON_POOL = ("r", "s", "t0")
LETTER_POOL = ("p", "q", "m")


def class_config(name: str, n_reasons: int = 3, n_letters: int = 3) -> TheoryConfig:
    probe = TheoryConfig.from_name(name, ("r",), ("p",))
    basic = n_reasons - (1 if probe.sigma else 0)
    return TheoryConfig.from_name(name, REASON_POOL[:basic], LETTER_POOL[:n_letters])


# ---------------------------------------------------------------------------
# Random formulas


def random_formula(
    rng: random.Random,
    cfg: TheoryConfig,
    depth: int = 3,
    scope: tuple[str, ...] = (),
    quantifiers: bool | None = None,
) -> Formula:
    """A random formula in cfg's language, quantifier depth capped at one.

    ``scope`` lists bound variables usable as reason atoms; ``quantifiers``
    overrides whether ForAll/Eq nodes may appear (default: cfg.quantified).
    """
    if quantifiers is None:
        quantifiers = cfg.quantified
    reasons = cfg.reasons + scope

    def term():
        return atom_term(rng.choice(reasons))

    if depth == 0:
        if rng.random() < 0.7 or not reasons:
            return Letter(rng.choice(cfg.letters))
        return Adequate(term())
    roll = rng.random()
    if roll < 0.2:
        return Letter(rng.choice(cfg.letters))
    if roll < 0.3:
        return Not(random_formula(rng, cfg, depth - 1, scope, quantifiers))
    if roll < 0.45:
        return Or(
            random_formula(rng, cfg, depth - 1, scope, quantifiers),
            random_formula(rng, cfg, depth - 1, scope, quantifiers),
        )
    if roll < 0.6:
        return Supports(
            term(), random_formula(rng, cfg, depth - 1, scope, quantifiers)
        )
    if roll < 0.7:
        return Adequate(term())
    if roll < 0.8:
        return Believes(random_formula(rng, cfg, depth - 1, scope, quantifiers))
    if quantifiers and roll < 0.9:
        var = next(v for v in ("u", "v", "x", "y", "z", "u1") if v not in reasons)
        return ForAll(
            var, random_formula(rng, cfg, depth - 1, scope + (var,), quantifiers)
        )
    if quantifiers and reasons:
        return Eq(term(), term())
    return Not(random_formula(rng, cfg, depth - 1, scope, quantifiers))


def random_quantifier(
    rng: random.Random, reasons: tuple[str, ...], depth: int = 3
) -> ForAll:
    """A random ``A x. phi`` whose binders, outer and inner, may reuse a
    declared name, so that some substituents are blocked by capture.

    Reason positions name the outer variable four times in ten, and
    otherwise draw from ``reasons`` (sigma included when declared), the
    binder names and the undeclared name ``t9``.
    """
    binders = tuple(r for r in reasons if r != SIGMA_NAME) + ("u", "v")
    names = reasons + binders + ("t9",)
    var = rng.choice(binders)

    def term():
        return atom_term(var if rng.random() < 0.4 else rng.choice(names))

    def walk(d: int) -> Formula:
        roll = rng.random()
        if d == 0 or roll < 0.15:
            return Letter("p") if rng.random() < 0.5 else Adequate(term())
        if roll < 0.3:
            return Not(walk(d - 1))
        if roll < 0.45:
            return Or(walk(d - 1), walk(d - 1))
        if roll < 0.6:
            return Supports(term(), walk(d - 1))
        if roll < 0.7:
            return Believes(walk(d - 1))
        if roll < 0.8:
            return Eq(term(), term())
        return ForAll(rng.choice(binders), walk(d - 1))

    return ForAll(var, walk(depth))


# ---------------------------------------------------------------------------
# Random validated models


def _random_alphabets(rng: random.Random, cfg: TheoryConfig) -> TheoryConfig:
    """Shrink the declared alphabets at random, keeping sigma when present."""
    basic = list(cfg.basic_reasons)
    letters = list(cfg.letters)
    rng.shuffle(basic)
    rng.shuffle(letters)
    keep_r = rng.randint(1, len(basic))
    keep_l = rng.randint(1, len(letters))
    return TheoryConfig.from_name(
        cfg.name, tuple(sorted(basic[:keep_r])), tuple(sorted(letters[:keep_l]))
    )


def _supersets(mask: int, full: int) -> list[int]:
    missing = full & ~mask
    out = []
    sub = missing
    while True:
        out.append(mask | sub)
        if sub == 0:
            return out
        sub = (sub - 1) & missing


def _attempt(rng: random.Random, cfg: TheoryConfig) -> Model | None:
    # Weighted toward larger models: small ones survive the (d) filter far
    # more often and would otherwise dominate the corpus.
    n = rng.choices((1, 2, 3, 4), weights=(1, 2, 3, 4))[0]
    worlds = WORLD_NAMES[:n]
    full = (1 << n) - 1
    rows: dict[str, list[int]] = {}
    for name in cfg.reasons:
        if name == SIGMA_NAME:
            # Reflexive everywhere; identity exactly in the plus class so
            # (mt) reduces to membership of the evaluation world.
            extra = 0.0 if cfg.sigma_plus else 0.15
            rows[name] = [
                (1 << i)
                | sum(1 << j for j in range(n) if j != i and rng.random() < extra)
                for i in range(n)
            ]
        else:
            rows[name] = [
                sum(1 << j for j in range(n) if rng.random() < 0.35)
                for _ in range(n)
            ]

    basic = list(cfg.basic_reasons)
    believed = [
        [name for name in basic if rng.random() < 0.4] for _ in range(n)
    ]
    for i in range(n):
        for name in believed[i]:
            if cfg.sigma:
                rows[name][i] |= rows[SIGMA_NAME][i]
            elif rows[name][i] == 0:
                rows[name][i] = 1 << rng.randrange(n)

    diag = {
        name: sum(1 << i for i in range(n) if rows[name][i] >> i & 1)
        for name in cfg.reasons
    }

    families: list[frozenset[int]] = []
    for i in range(n):
        seeds = {diag[name] for name in believed[i]}
        if cfg.sigma:
            seeds.add(diag[SIGMA_NAME])
        for _ in range(rng.randint(0, 2)):
            extra = rng.randrange(1 << n)
            if cfg.sigma:
                extra |= rows[SIGMA_NAME][i]
            seeds.add(extra)
        family = set()
        fresh = set(seeds)
        while fresh:
            family |= fresh
            fresh = set()
            for name in cfg.reasons:
                if diag[name] in family:
                    for sup in _supersets(rows[name][i], full):
                        if sup not in family:
                            fresh.add(sup)
        if any(full ^ x in family for x in family):
            return None
        families.append(frozenset(family))

    model = make_model(
        worlds,
        {
            name: [
                (worlds[i], worlds[j])
                for i in range(n)
                for j in range(n)
                if rows[name][i] >> j & 1
            ]
            for name in cfg.reasons
        },
        {
            worlds[i]: [
                [worlds[j] for j in range(n) if x >> j & 1] for x in families[i]
            ]
            for i in range(n)
        },
        {
            w: [letter for letter in cfg.letters if rng.random() < 0.5]
            for w in worlds
        },
    )
    return model if validate_model(model, cfg).ok else None


def model_corpus(
    class_name: str, count: int, seed: int
) -> list[tuple[TheoryConfig, Model]]:
    """``count`` validated models of the class, with varying alphabets."""
    rng = random.Random(seed)
    base = class_config(class_name)
    out: list[tuple[TheoryConfig, Model]] = []
    while len(out) < count:
        cfg = _random_alphabets(rng, base)
        model = _attempt(rng, cfg)
        if model is not None:
            out.append((cfg, model))
    return out


# ---------------------------------------------------------------------------
# Random axiom instances

_TAUTOLOGIES = (
    lambda a, b, c: impl(a, a),
    lambda a, b, c: impl(a, impl(b, a)),
    lambda a, b, c: impl(impl(a, impl(b, c)), impl(impl(a, b), impl(a, c))),
    lambda a, b, c: impl(impl(Not(a), Not(b)), impl(b, a)),
    lambda a, b, c: disj(a, Not(a)),
    lambda a, b, c: impl(conj(a, b), a),
    lambda a, b, c: impl(a, disj(a, b)),
    lambda a, b, c: iff(Not(Not(a)), a),
    lambda a, b, c: iff(Not(disj(a, b)), conj(Not(a), Not(b))),
)


def axiom_instance(
    rng: random.Random, scheme: SchemeId, cfg: TheoryConfig
) -> Formula | None:
    """One random instance of the scheme, or None when cfg is too small."""

    def sub(depth: int = 2, scope: tuple[str, ...] = (), quant: bool = False):
        return random_formula(rng, cfg, depth, scope, quant)

    def reason():
        return atom_term(rng.choice(cfg.reasons))

    if scheme is SchemeId.CL:
        template = rng.choice(_TAUTOLOGIES)
        return template(sub(), sub(), sub())
    if scheme is SchemeId.RK:
        t, a, b = reason(), sub(), sub()
        return impl(Supports(t, impl(a, b)), impl(Supports(t, a), Supports(t, b)))
    if scheme is SchemeId.A:
        t, a = reason(), sub()
        return impl(Supports(t, a), impl(Adequate(t), a))
    if scheme is SchemeId.RB:
        t, a = reason(), sub()
        return impl(Supports(t, a), impl(Believes(Adequate(t)), Believes(a)))
    if scheme is SchemeId.D:
        a = sub()
        return impl(Believes(a), Not(Believes(Not(a))))
    if scheme is SchemeId.UD:
        var = "u"
        a, b = sub(), sub(scope=(var,))
        return impl(
            ForAll(var, impl(a, b)), impl(a, ForAll(var, b))
        )
    if scheme is SchemeId.UI:
        var = "u"
        body = sub(scope=(var,))
        name = rng.choice(cfg.reasons)
        if not is_free_for(name, var, body):
            return None
        return impl(ForAll(var, body), substitute(body, var, name))
    if scheme is SchemeId.EP:
        t = reason()
        return Eq(t, t)
    if scheme is SchemeId.EN:
        if len(cfg.reasons) < 2:
            return None
        a, b = rng.sample(cfg.reasons, 2)
        return Not(Eq(atom_term(a), atom_term(b)))
    if scheme is SchemeId.MA:
        t = reason()
        return impl(
            Adequate(SIGMA), impl(Believes(Adequate(t)), Adequate(t))
        )
    if scheme is SchemeId.MB:
        return Believes(Adequate(SIGMA))
    if scheme is SchemeId.MR:
        t, a = reason(), sub()
        return impl(
            Supports(t, a),
            impl(Believes(Adequate(t)), Supports(SIGMA, a)),
        )
    if scheme is SchemeId.MT:
        a = sub()
        return impl(Believes(a), Supports(SIGMA, a))
    if scheme is SchemeId.APP:
        s, r = (atom_term(rng.choice(cfg.basic_reasons)) for _ in range(2))
        a, b = sub(), sub()
        return impl(
            Supports(s, impl(a, b)), impl(Supports(r, a), Supports(App(s, r), b))
        )
    raise ValueError(f"no instance factory for {scheme}")
