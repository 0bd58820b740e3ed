"""Bounded model search: outcomes, determinism, and the enumeration order."""

import random
import time

import pytest

import corpus
from rbb.parser import parse
from rbb.search import (
    BudgetExceeded,
    Exhausted,
    SearchBounds,
    Witness,
    bounds_from_doc,
    bounds_to_doc,
    check_nonvalidity,
    find_model,
    find_models,
    iter_candidates,
    outcome_to_doc,
)
from rbb.semantics import satisfies, validate_model
from rbb.theory import TheoryConfig

RBB = TheoryConfig.from_name("RBB", reasons=("r",), letters=("p",))
RBBS = TheoryConfig.from_name("RBBs", reasons=("r",), letters=("p",))
RBBSP = TheoryConfig.from_name("RBBs+", reasons=("r",), letters=("p",))
QRBB = TheoryConfig.from_name("QRBB", reasons=("r", "s"), letters=("p",))

W1 = SearchBounds(max_worlds=1)
W2 = SearchBounds(max_worlds=2)
W3 = SearchBounds(max_worlds=3)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_worlds=0)
    with pytest.raises(ValueError):
        SearchBounds(max_worlds=7)
    with pytest.raises(ValueError):
        SearchBounds(max_seeds=-1)
    with pytest.raises(ValueError):
        SearchBounds(max_seeds=9)
    with pytest.raises(ValueError):
        SearchBounds(budget_secs=0.0)
    with pytest.raises(ValueError):
        SearchBounds(budget_secs=-2.5)
    assert SearchBounds(budget_secs=None).budget_secs is None


def test_bounds_doc_round_trip():
    b = SearchBounds(max_worlds=4, max_seeds=2, budget_secs=None)
    assert bounds_from_doc(bounds_to_doc(b)) == b
    assert bounds_from_doc({}) == SearchBounds()


def test_outcome_docs():
    w = find_model([parse("p", RBB)], RBB, W1)
    assert isinstance(w, Witness)
    doc = outcome_to_doc(w)
    assert doc["kind"] == "witness"
    assert doc["model"]["point"] == w.world

    e = Exhausted(W2)
    assert outcome_to_doc(e) == {"kind": "exhausted", "bounds": bounds_to_doc(W2)}
    b = BudgetExceeded("stopped after 128 candidates, 2 of 3 worlds")
    assert outcome_to_doc(b)["kind"] == "budget-exceeded"
    assert "128" in outcome_to_doc(b)["progress"]


def test_contradiction_exhausts():
    out = find_model([parse("p & ~p", RBB)], RBB, W2)
    assert isinstance(out, Exhausted)
    assert out.bounds == W2


def test_factivity_fails():
    # Belief without truth: a countermodel to B p -> p must exist.
    out = check_nonvalidity(parse("B p -> p", RBB), RBB, W2)
    assert isinstance(out, Witness)
    report = validate_model(out.model, RBB)
    assert report.ok
    assert satisfies(out.model, out.world, parse("B p & ~p", RBB), RBB)


# The worked non-closure example.  Five commitments that no single belief
# set closed under supported implication could honour together; the search
# walks to this three-world witness and, because the walk is a fixed
# enumeration, to exactly this one.  The document below was produced once
# by the search itself and frozen; any change in enumeration order, model
# normalisation, or the document format will show up here first.
NO_CLOSURE_TEXTS = ("B s", "B r", "s:(p -> q)", "r:p", "~B q")
NO_CLOSURE_CFG = TheoryConfig.from_name("QRBB", reasons=("r", "s"), letters=("p", "q"))
NO_CLOSURE_DOC = {
    "worlds": ["w0", "w1", "w2"],
    "access": {
        "r": [["w0", "w1"], ["w0", "w2"], ["w1", "w1"], ["w2", "w2"]],
        "s": [["w0", "w0"], ["w0", "w2"], ["w1", "w1"]],
    },
    "neighborhoods": {
        "w0": [["w0", "w1"], ["w0", "w1", "w2"], ["w0", "w2"], ["w1", "w2"]],
        "w1": [],
        "w2": [],
    },
    "valuation": {"w0": [], "w1": ["p"], "w2": ["p", "q"]},
    "point": "w0",
}


def test_non_closure_witness_is_pinned():
    goals = [parse(t, NO_CLOSURE_CFG) for t in NO_CLOSURE_TEXTS]
    out = find_model(goals, NO_CLOSURE_CFG, W3)
    assert isinstance(out, Witness)
    assert outcome_to_doc(out)["model"] == NO_CLOSURE_DOC


# A Believes operand under a quantifier: the seed pool offers the extension
# of each capture-free instance, r:p | q and s:p | q.  Frozen the same way
# as the document above; a pool that skipped the instances finds a
# different, larger first witness.
QUANTIFIED_TEXTS = ("A t. B (t:p | q)", "~B q", "~B p", "E u. u")
QUANTIFIED_DOC = {
    "worlds": ["w0", "w1"],
    "access": {"r": [], "s": [["w0", "w0"]]},
    "neighborhoods": {"w0": [["w0", "w1"], ["w1"]], "w1": []},
    "valuation": {"w0": [], "w1": []},
    "point": "w0",
}


def test_quantified_operand_witness_is_pinned():
    goals = [parse(t, NO_CLOSURE_CFG) for t in QUANTIFIED_TEXTS]
    out = find_model(goals, NO_CLOSURE_CFG, W3)
    assert isinstance(out, Witness)
    assert outcome_to_doc(out)["model"] == QUANTIFIED_DOC


def test_search_is_deterministic():
    goals = [parse(t, NO_CLOSURE_CFG) for t in NO_CLOSURE_TEXTS]
    first, tail1 = find_models(goals, NO_CLOSURE_CFG, W3, limit=3)
    second, tail2 = find_models(goals, NO_CLOSURE_CFG, W3, limit=3)
    assert [outcome_to_doc(w) for w in first] == [outcome_to_doc(w) for w in second]
    assert tail1 is None and tail2 is None
    assert len(first) == 3


def test_sigma_separates_the_two_extensions():
    """B p -> sigma:p is the shape that tells the sigma theories apart."""
    mt = "B p -> sigma:p"
    out = check_nonvalidity(parse(mt, RBBS), RBBS, W2)
    assert isinstance(out, Witness)
    assert satisfies(out.model, out.world, parse(f"~({mt})", RBBS), RBBS)
    assert isinstance(check_nonvalidity(parse(mt, RBBSP), RBBSP, W2), Exhausted)
    # and the converse direction already holds in the weaker theory
    assert isinstance(
        check_nonvalidity(parse("sigma:p -> B p", RBBS), RBBS, W2), Exhausted
    )


def test_quantifier_outcomes():
    assert isinstance(
        check_nonvalidity(parse("(A u. u:p) -> r:p", QRBB), QRBB, W2), Exhausted
    )
    out = check_nonvalidity(parse("r:p -> (A u. u:p)", QRBB), QRBB, W2)
    assert isinstance(out, Witness)
    got = find_model([parse("(E u. u:p) & ~B p", QRBB)], QRBB, W2)
    assert isinstance(got, Witness)


def test_budget_signal_carries_progress():
    # The deadline is polled every 128 candidates, so an already-expired
    # budget stops at the first poll of a witness-free walk.
    out = check_nonvalidity(
        parse("sigma:p -> B p", RBBS),
        RBBS,
        SearchBounds(max_worlds=3, budget_secs=1e-9),
    )
    assert isinstance(out, BudgetExceeded)
    assert out.progress.startswith("stopped after 128 candidates")


def test_find_models_limit():
    witnesses, tail = find_models([parse("~B p", RBB)], RBB, W2, limit=4)
    assert len(witnesses) == 4
    assert tail is None
    for w in witnesses:
        assert validate_model(w.model, RBB).ok
        assert satisfies(w.model, w.world, parse("~B p", RBB), RBB)
    # distinct models, in a stable order
    docs = [outcome_to_doc(w)["model"] for w in witnesses]
    assert len({str(d) for d in docs}) == 4


# Unpruned enumeration sizes at one world, counted by hand.
#
# B p under RBB with alphabet r / p: the relation shape is restricted and
# r is inactive, so there is exactly one relation assignment; 2 valuations;
# the family menu is the empty seed set plus the closure of {ext(p)}, and
# the two never coincide, so 2 families.  2 * 1 * 2 = 4.
#
# r:p under the same alphabet: r is active with 2 one-world rows, no
# Believes operand so the seed pool is just adequacy(r), menu of 2 as
# before.  2 * 2 * 2 = 8.
#
# B p under RBBs: sigma is forced active with 2 rows and its diagonal is a
# forced seed in every family, which strikes the empty family from the
# menu; when ext(p) coincides with the sigma diagonal the one-seed and
# zero-seed closures collapse too.  Summing the four valuation/row cells
# gives 1 + 2 + 1 + 1 = 5.
@pytest.mark.parametrize(
    "text,cfg,expected",
    [
        ("B p", RBB, 4),
        ("r:p", RBB, 8),
        ("B p", RBBS, 5),
    ],
)
def test_unpruned_candidate_counts(text, cfg, expected):
    goal = parse(text, cfg)
    got = sum(1 for _ in iter_candidates((goal,), cfg, W1, prune=False))
    assert got == expected


def test_witnesses_revalidate(base_corpus):
    """Whatever the walk emits must survive the public checks it quotes."""
    rng = random.Random(77)
    cfg = base_corpus[0][0]
    t0 = time.perf_counter()
    found = 0
    for _ in range(40):
        goal = corpus.random_formula(rng, cfg, depth=2)
        out = find_model([goal], cfg, SearchBounds(max_worlds=2, budget_secs=5.0))
        if isinstance(out, Witness):
            found += 1
            assert validate_model(out.model, cfg).ok
            assert satisfies(out.model, out.world, goal, cfg)
    assert found >= 10
    assert time.perf_counter() - t0 < 30.0
