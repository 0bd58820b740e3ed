"""The search against brute force: every valid model at the smallest bounds.

`find_model` must return a Witness exactly when some model that
`validate_model` accepts satisfies the goals at a world.  Every model on
worlds w0..w(n-1) is enumerated, so a pointed model at any world has an
isomorphic copy pointed at w0.  The goal sets keep their belief operands
free of Believes, the scope of the family pool; the nested case is the
documented gap of the Exhausted contract.
"""

import itertools
import random

import pytest

import corpus
from rbb.parser import parse, print_formula
from rbb.search import Exhausted, SearchBounds, Witness, find_model
from rbb.semantics import make_model, satisfies, validate_model
from rbb.syntax import (
    SIGMA_NAME,
    Adequate,
    Believes,
    Not,
    atom_term,
    conj,
    free_reasons,
    subformulas,
)
from rbb.theory import TheoryConfig


def _subsets(items):
    return [list(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)]


def _valid_models(cfg, n):
    """Every model of ``cfg`` on n worlds that `validate_model` accepts."""
    worlds = tuple(f"w{i}" for i in range(n))
    relations = _subsets(list(itertools.product(worlds, repeat=2)))
    families = _subsets(_subsets(worlds))
    for access in itertools.product(relations, repeat=len(cfg.reasons)):
        for true in itertools.product(_subsets(worlds), repeat=len(cfg.letters)):
            valuation = {w: [p for p, t in zip(cfg.letters, true) if w in t] for w in worlds}
            for family in itertools.product(families, repeat=n):
                model = make_model(
                    worlds, dict(zip(cfg.reasons, access)), dict(zip(worlds, family)), valuation
                )
                if validate_model(model, cfg).ok:
                    yield model


TWO_WORLDS = ("w0", "w1")


def _passing_families(cfg, access, valuation):
    """For each of w0 and w1, the families that pass every frame check there,
    given the relations and the valuation.

    `_Ctx.faults` checks each world alone: it reads N(w_i), the rows at w_i,
    the degree sets and the letters at w_i, and the relations fix the degree
    sets.  Giving both worlds the same family checks it at both in one call.
    """
    passing = ([], [])
    for family in _subsets(_subsets(TWO_WORLDS)):
        model = make_model(TWO_WORLDS, access, dict.fromkeys(TWO_WORLDS, family), valuation)
        faulty = {v.world for v in validate_model(model, cfg).violations}
        for w, out in zip(TWO_WORLDS, passing):
            if w not in faulty:
                out.append(family)
    return passing


def _relation_valuation_pairs(cfg):
    relations = _subsets(list(itertools.product(TWO_WORLDS, repeat=2)))
    for access in itertools.product(relations, repeat=len(cfg.reasons)):
        for true in itertools.product(_subsets(TWO_WORLDS), repeat=len(cfg.letters)):
            valuation = {w: [p for p, t in zip(cfg.letters, true) if w in t] for w in TWO_WORLDS}
            yield dict(zip(cfg.reasons, access)), valuation


def _valid_two_world_models(cfg):
    """Every model of ``cfg`` on w0, w1 that `validate_model` accepts, factored
    by world: with the relations and the valuation fixed, the valid models
    are the product of the families that pass at each world."""
    for access, valuation in _relation_valuation_pairs(cfg):
        for pair in itertools.product(*_passing_families(cfg, access, valuation)):
            yield make_model(TWO_WORLDS, access, dict(zip(TWO_WORLDS, pair)), valuation)


def _nested(goals):
    return any(
        isinstance(f, Believes) and any(isinstance(g, Believes) for g in subformulas(f.sub))
        for goal in goals
        for f in subformulas(goal)
    )


def _goal_sets(cfg, count, seed):
    """``count`` seeded sets of one or two random formulas whose belief
    operands are Believes-free."""
    rng = random.Random(seed)
    while count:
        goals = [
            corpus.random_formula(rng, cfg, depth=rng.randint(1, 3))
            for _ in range(rng.randint(1, 2))
        ]
        if not _nested(goals):
            count -= 1
            yield goals


def _assert_search_agrees(cfg, models, goals, worlds):
    expected = any(all(satisfies(m, "w0", g, cfg) for g in goals) for m in models)
    outcome = find_model(goals, cfg, SearchBounds(max_worlds=worlds, budget_secs=None))
    assert isinstance(outcome, Witness) == expected, [print_formula(g) for g in goals]
    if expected:
        assert validate_model(outcome.model, cfg).ok


# Each needs a reason the goals do not mention to see every world: a
# relation left empty makes r-degree the empty set, which a family holding
# the empty set then believes, and (rb) fills the family past (d).
ONE_WORLD_REPROS = [("~B (p & ~p)",), ("~(B p -> p)",), ("~p", "B p"), ("B ~p", "p")]


@pytest.mark.parametrize("theory", ["RBB", "RBBs", "RBBs+", "QRBB", "QRBBs"])
def test_search_finds_a_one_world_model_when_one_exists(theory):
    cfg = TheoryConfig.from_name(theory, ("r",), ("p",))
    models = list(_valid_models(cfg, 1))
    repros = [[parse(t, cfg) for t in texts] for texts in ONE_WORLD_REPROS]
    for goals in [*repros, *_goal_sets(cfg, 200, seed=1)]:
        _assert_search_agrees(cfg, models, goals, 1)


def test_search_finds_a_two_world_model_when_one_exists():
    # All 16,384 models of one reason and one letter at two worlds, 3,056 of
    # them valid; the sigma theories have 16 times as many, which the
    # factored enumeration below reaches instead.
    cfg = TheoryConfig.from_name("RBB", ("r",), ("p",))
    models = [m for n in (1, 2) for m in _valid_models(cfg, n)]
    assert len(models) == 10 + 3056
    for goals in _goal_sets(cfg, 100, seed=2):
        _assert_search_agrees(cfg, models, goals, 2)


def test_the_two_world_models_factor_by_world():
    # The plain filter over all 256 family pairs, on a sample of the 1,024
    # relation-valuation pairs of each sigma theory.
    rng = random.Random(7)
    families = _subsets(_subsets(TWO_WORLDS))
    for theory in ("RBBs", "RBBs+"):
        cfg = TheoryConfig.from_name(theory, ("r",), ("p",))
        for access, valuation in rng.sample(list(_relation_valuation_pairs(cfg)), 6):
            plain = [
                pair
                for pair in itertools.product(families, repeat=2)
                if validate_model(
                    make_model(TWO_WORLDS, access, dict(zip(TWO_WORLDS, pair)), valuation),
                    cfg,
                ).ok
            ]
            assert plain == list(itertools.product(*_passing_families(cfg, access, valuation)))


@pytest.mark.parametrize("theory", ["RBBs", "RBBs+"])
def test_search_finds_a_two_world_sigma_model_when_one_exists(theory):
    # Sigma is always active, and r is active when the goals name it.  The
    # repro needs sigma(w0) narrower than W: fixed full, (mr) would force
    # r(w0) = W, and r:p would contradict ~p at w1.
    cfg = TheoryConfig.from_name(theory, ("r",), ("p",))
    models = [*_valid_models(cfg, 1), *_valid_two_world_models(cfg)]
    assert len(models) == {"RBBs": 4 + 868, "RBBs+": 4 + 324}[theory]
    # (mb) and (rb) for sigma put W in every family, so (d) keeps the empty
    # set out of all of them: a reason with the empty relation is never
    # believed here, and only the RBB and QRBB oracles can tell it from one
    # with the full relation.
    assert not any(frozenset() in m.neighborhoods[w] for m in models for w in m.worlds)
    repro = [parse(t, cfg) for t in ("B r", "r:p", "~p")]
    for goals in [repro, *_goal_sets(cfg, 300, seed=5)]:
        _assert_search_agrees(cfg, models, goals, 2)


def test_sigma_beside_an_unmentioned_reason_at_one_world():
    # Sigma is always active, and (mr) bounds its row by each believed
    # reason's; a basic reason the goals leave out sees every world, so it
    # bounds nothing.  8 of the 64 models are valid; the goal sets name r
    # alone, s alone, or both.
    cfg = TheoryConfig.from_name("RBBs", ("r", "s"), ("p",))
    models = list(_valid_models(cfg, 1))
    assert len(models) == 8
    for seed, named in enumerate([{"r"}, {"s"}, {"r", "s"}], start=3):
        sub = TheoryConfig.from_name("RBBs", sorted(named), ("p",))
        sets = (
            goals
            for goals in _goal_sets(sub, 10**6, seed)
            if set().union(*map(free_reasons, goals)) - {SIGMA_NAME} == named
        )
        for goals in itertools.islice(sets, 300):
            _assert_search_agrees(cfg, models, goals, 1)


def test_an_unmentioned_shared_name_is_a_letter_true_everywhere():
    # p is a reason and a letter; the goal reads neither.  Its reason sees
    # every world and, by (pr), its letter is true everywhere, so p-degree is
    # the whole set and the family {empty set} keeps (d).
    cfg = TheoryConfig.from_name("RBB", ("r", "p"), ("p",), allow_overlap=True)
    r = Adequate(atom_term("r"))
    goals = [Believes(conj(r, Not(r)))]
    _assert_search_agrees(cfg, list(_valid_models(cfg, 1)), goals, 1)


def test_a_nested_belief_operand_is_outside_the_searched_space():
    # B B p needs ext(B p) in N(w0).  That set depends on the families
    # themselves, so the seed pool does not hold it: a two-world model
    # exists, and the search exhausts, as its contract says it may.
    cfg = TheoryConfig.from_name("RBB", ("r",), ("p",))
    goals = [parse("B B p", cfg), parse("~p", cfg)]
    models = list(_valid_models(cfg, 2))
    assert any(all(satisfies(m, "w0", g, cfg) for g in goals) for m in models)
    outcome = find_model(goals, cfg, SearchBounds(max_worlds=2, budget_secs=None))
    assert isinstance(outcome, Exhausted)
