"""Bounded model search: outcomes, determinism, and the enumeration order."""

import itertools
import random
import time

import pytest

import corpus
import rbb.search
from rbb.parser import parse, print_formula
from rbb.search import (
    _admits,
    _append_key,
    _base_fault,
    _believed_operands,
    _class_key,
    _conjuncts,
    _letter_vectors,
    _mentions,
    _nests,
    _orbit_key,
    _own_rows,
    _point_sets,
    _rb_closure,
    _row_filter,
    _schedule,
    _shape,
    BudgetExceeded,
    Exhausted,
    SearchBounds,
    Witness,
    check_nonvalidity,
    find_model,
    find_models,
    iter_candidates,
    iter_witnesses,
    outcome_to_doc,
)
from rbb.semantics import _Ctx, make_model, satisfies, superset_family, validate_model
from rbb.syntax import (
    SIGMA_NAME,
    Adequate,
    Believes,
    Eq,
    ForAll,
    Letter,
    Not,
    Or,
    Supports,
    atom_term,
    conj,
    is_free_for,
    subformulas,
    substitute,
)
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
        SearchBounds(budget_secs=0.0)
    with pytest.raises(ValueError):
        SearchBounds(budget_secs=-2.5)
    assert SearchBounds(budget_secs=None).budget_secs is None


def test_bounds_name_no_alphabet():
    # The search takes both alphabets from the goals; a caller cannot narrow them.
    with pytest.raises(TypeError):
        SearchBounds(reasons=("r",))
    with pytest.raises(TypeError):
        SearchBounds(letters=("p",))
    # Nor bound the family menus: each closes every subset of its pool.
    with pytest.raises(TypeError):
        SearchBounds(max_seeds=4)


def test_nan_budget_is_refused():
    # NaN is not <= 0 and no clock is ever past it, so it would lift the budget.
    with pytest.raises(ValueError, match="budget"):
        SearchBounds(budget_secs=float("nan"))


def test_outcome_docs():
    w = find_model([parse("p", RBB)], RBB, W1)
    assert isinstance(w, Witness)
    doc = outcome_to_doc(w)
    assert doc["kind"] == "witness"
    assert doc["model"]["point"] == w.world

    e = Exhausted(W2)
    assert outcome_to_doc(e) == {
        "kind": "exhausted",
        "bounds": {"max_worlds": 2, "budget_secs": 30.0},
    }
    b = BudgetExceeded("stopped after 128 candidates, 2 of 3 worlds")
    assert outcome_to_doc(b)["kind"] == "budget-exceeded"
    assert "128" in outcome_to_doc(b)["progress"]


def test_point_menu_closes_every_subset_of_its_pool():
    # Eight pool formulas: the adequacy sets of r and s and six operands.
    # The first witness's N(w0) is the closure of five of their sets, so a
    # menu cut to subsets of at most four, as the seeds bound's default 4
    # cut it, returned a later witness first.
    cfg = TheoryConfig.from_name("RBB", reasons=("r", "s"), letters=("p", "q"))
    texts = ["B p", "B q", "~B (p & q)", "B (p | q)", "B (p <-> q)", "~B (q -> p)", "B r", "B s"]
    goals = [parse(text, cfg) for text in texts]
    out = find_model(goals, cfg, SearchBounds(max_worlds=4))
    assert isinstance(out, Witness)
    row = [["w0", "w0"], ["w0", "w1"], ["w0", "w2"], ["w1", "w1"], ["w2", "w2"]]
    assert outcome_to_doc(out)["model"] == {
        "worlds": ["w0", "w1", "w2", "w3"],
        "point": "w0",
        "access": {"r": row, "s": row},
        "neighborhoods": {
            "w0": [
                ["w0", "w1", "w2"], ["w0", "w1", "w2", "w3"], ["w0", "w3"],
                ["w1", "w2", "w3"], ["w1", "w3"], ["w2", "w3"],
            ],
            "w1": [], "w2": [], "w3": [],
        },
        "valuation": {"w0": [], "w1": ["p"], "w2": ["q"], "w3": ["p", "q"]},
    }


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


# The name p is both a reason and a letter, which (pr) ties together: the
# letter holds at a world exactly when the world sees itself under p.  Text
# resolves p to the reason, so the letter is built directly.  The goals
# without nested Supports take the keyed walk, which reads the shared letter
# at the point; the last two have no witness.
OVERLAP = TheoryConfig.from_name("RBB", ("r", "p"), ("p",), allow_overlap=True)
OVERLAP_GOALS = {
    "letter": [Letter("p")],
    "adequacy": [parse("p", OVERLAP)],
    "belief": [parse("B p", OVERLAP)],
    "keyed": [parse("r:p & r", OVERLAP)],
    "keyed-letter": [Supports(atom_term("r"), Letter("p")), parse("r", OVERLAP)],
    "nested": [parse("r:(r:p) & ~B p", OVERLAP), Letter("p")],
    "split": [Letter("p"), parse("~p", OVERLAP)],
    "keyed-split": [parse("r:p & r", OVERLAP), Not(Letter("p"))],
}


def test_sigma_is_varied_when_the_goals_leave_it_out():
    # Sigma is always active.  Fixed full like an unmentioned basic reason,
    # it would make (mr) force r(w0) = W under B r, and r:p would fail at a
    # point where p is false.
    cfg = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))
    goals = [parse(t, cfg) for t in ("B r", "r:p", "~p")]
    out = find_model(goals, cfg, W3)
    assert isinstance(out, Witness)
    assert validate_model(out.model, cfg).ok
    assert all(satisfies(out.model, out.world, g, cfg) for g in goals)


def _one_world_models():
    loops, family = [(), (("w0", "w0"),)], [[], ["w0"]]
    for r, p, true, size in itertools.product(loops, loops, [(), ("p",)], range(3)):
        for sets in itertools.combinations(family, size):
            yield make_model(("w0",), {"r": r, "p": p}, {"w0": sets}, {"w0": true})


@pytest.mark.parametrize("name", sorted(OVERLAP_GOALS))
def test_a_shared_name_is_varied_as_letter_and_reason(name):
    goals = OVERLAP_GOALS[name]
    expected = any(
        validate_model(model, OVERLAP).ok
        and all(satisfies(model, "w0", g, OVERLAP) for g in goals)
        for model in _one_world_models()
    )
    assert expected == (name not in ("split", "keyed-split"))
    outcome = find_model(goals, OVERLAP, W2)
    assert isinstance(outcome, Witness) == expected
    if expected:
        assert outcome.model.worlds == ("w0",)
        assert validate_model(outcome.model, OVERLAP).ok
        assert all(satisfies(outcome.model, "w0", g, OVERLAP) for g in goals)


@pytest.mark.parametrize("var", ["t", "r", "s"])
def test_binder_named_like_a_declared_reason_seeds_every_instance(var):
    # B must hold of both r:p and s:p; with only one of them in the seed
    # pool no family in the searched space could hold the other.
    texts = (f"A {var}. B ({var}:p)", "~B r", "~B s", "r:p", "~s:p")
    goals = [parse(t, QRBB) for t in texts]
    out = find_model(goals, QRBB, W3)
    assert isinstance(out, Witness)
    assert all(satisfies(out.model, out.world, g, QRBB) for g in goals)


def _instance_operands(f, cfg):
    """Belief-free Believes operands of every instance the evaluator visits."""
    if isinstance(f, ForAll):
        for name in cfg.reasons:
            if is_free_for(name, f.var, f.sub):
                yield from _instance_operands(substitute(f.sub, f.var, name), cfg)
        return
    if isinstance(f, Believes) and not any(
        isinstance(g, Believes) for g in subformulas(f.sub)
    ):
        yield f.sub
    if isinstance(f, Or):
        yield from _instance_operands(f.left, cfg)
        yield from _instance_operands(f.right, cfg)
    elif isinstance(f, (Not, Supports, Believes)):
        yield from _instance_operands(f.sub, cfg)


def test_seed_operands_are_the_quantifier_instances():
    cfg = TheoryConfig.from_name("QRBB", ("r", "s", "u"), ("p", "q"))
    texts = (
        "A r. B (r:p)",
        "A t. B (t:p)",
        "A s. A r. B (r:p | s:q)",
        "A r. A s. B (r:p | s:q)",
        "A t. (B (t:p) | A t. B (t:q))",
        "A s. (B (s:q) & A r. ~B (r:p | s:p))",
    )
    # Exactly the operands of the instances: an inner binder that reuses a
    # declared name blocks substituting that name for an outer variable.
    for text in texts:
        goal = parse(text, cfg)
        wanted = set(_instance_operands(goal, cfg))
        assert wanted and set(_believed_operands((goal,), cfg)) == wanted, text


def test_budget_signal_carries_progress():
    # The deadline is polled at the first step and every 128th after it,
    # so an already-expired budget stops at the first step of any walk.
    out = check_nonvalidity(
        parse("sigma:p -> B p", RBBS),
        RBBS,
        SearchBounds(max_worlds=3, budget_secs=1e-9),
    )
    assert isinstance(out, BudgetExceeded)
    assert out.progress == (
        "stopped after 1 relation steps and 0 family combinations, 1 of 3 worlds"
    )


@pytest.mark.parametrize(
    "theory,text,worlds",
    [
        ("RBBs", "B r & r:p -> sigma:p", 4),
        ("QRBBs", "(A t. t:p) -> sigma:p", 3),
        ("RBBs", "B s & B r & s:(p -> q) & r:p -> B q", 3),
        ("RBBs", "B s & B r & s:(p -> q) & r:p -> B q", 4),
    ],
)
def test_sigma_axiom_probes_are_decided(theory, text, worlds):
    # (mr) needs sigma(w0) inside r(w0), which r:p and ~sigma:p forbid: the
    # B r literal keeps every sigma point row outside r(w0) out of the walk,
    # and the rows left have no key that passes ~sigma:p.  The instance
    # sigma:p of the quantifier empties sigma's menu.  In RCL2, (mr) puts
    # sigma(w0) inside r(w0) and s(w0), which r:p and s:(p -> q) put inside
    # ext(q); (mb) and (rb) would then put ext(q) in N(w0), against ~B q.
    # So the walk drops every sigma point row before any check, and the base
    # check has no work left.
    cfg = TheoryConfig.from_name(theory, ("r", "s"), ("p", "q"))
    bounds = SearchBounds(max_worlds=worlds, budget_secs=30.0)
    assert isinstance(check_nonvalidity(parse(text, cfg), cfg, bounds), Exhausted)


def test_base_checks_are_decided_once_per_class(monkeypatch):
    # The B r literal bounds sigma's point row by r's through (mr), so the
    # walk drops each sigma key outside r(w0) before any check, and ~sigma:p
    # leaves the rows inside it with no key: no base check is left at four
    # worlds.  Before that filter each class of key tuples was decided once
    # across all valuations, 2,511 base checks, and before the verdict memo
    # each tuple of each valuation, 19,933.
    calls = []
    real = rbb.search._base_fault
    monkeypatch.setattr(
        rbb.search, "_base_fault", lambda *args: calls.append(1) or real(*args)
    )
    cfg = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))
    bounds = SearchBounds(max_worlds=4, budget_secs=None)
    goal = parse("B r & r:p -> sigma:p", cfg)
    assert isinstance(check_nonvalidity(goal, cfg, bounds), Exhausted)
    assert len(calls) == 0


def test_rcl2_makes_no_base_check(monkeypatch):
    # r:p and s:(p -> q) put each sigma point row that (mr) leaves inside
    # ext(q), which ~B q keeps out of N(w0) while (mb) and (rb) would force
    # it in.  So the walk drops those rows by (rb) too, and no key tuple
    # reaches the base check at three worlds.  With only the (mr) filter,
    # each class of key tuples left was decided there: 17,160 base checks,
    # every one a fault.
    calls = []
    real = rbb.search._base_fault
    monkeypatch.setattr(
        rbb.search, "_base_fault", lambda *args: calls.append(1) or real(*args)
    )
    cfg = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))
    bounds = SearchBounds(max_worlds=3, budget_secs=None)
    goal = parse("B s & B r & s:(p -> q) & r:p -> B q", cfg)
    assert isinstance(check_nonvalidity(goal, cfg, bounds), Exhausted)
    assert len(calls) == 0


def test_forward_checks_are_answered_once_per_orbit(monkeypatch):
    # Each forward check extends a prefix's world vectors once, so counting
    # the extensions counts the checks: 295 for the (mr) probe at four
    # worlds, since sigma keys outside r(w0) are never asked.  Asking them
    # made 11,960, and asking each prefix for its completion 20,228.
    calls = []
    real = rbb.search._append_key
    monkeypatch.setattr(
        rbb.search, "_append_key", lambda *args: calls.append(1) or real(*args)
    )
    cfg = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))
    bounds = SearchBounds(max_worlds=4, budget_secs=None)
    goal = parse("B r & r:p -> sigma:p", cfg)
    assert isinstance(check_nonvalidity(goal, cfg, bounds), Exhausted)
    assert len(calls) == 295


def test_five_worlds_stay_within_the_budget():
    # An unrestricted reason has 32^5 shapes at five worlds.  The walk makes
    # them one point row at a time and polls the budget as it goes, so it
    # neither runs out of memory nor overruns the budget.
    bounds = SearchBounds(max_worlds=5, budget_secs=0.5)
    t0 = time.perf_counter()
    out = check_nonvalidity(parse("B sigma", RBBS), RBBS, bounds)
    assert isinstance(out, Exhausted)
    assert time.perf_counter() - t0 < 1.5
    t0 = time.perf_counter()
    # A contradiction whose one reason reads all its own rows: no key decides it.
    goals = [parse("sigma:(sigma:sigma)", RBBS), parse("~sigma:(sigma:sigma)", RBBS)]
    assert isinstance(find_model(goals, RBBS, bounds), (Exhausted, BudgetExceeded))
    assert time.perf_counter() - t0 < 1.5


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


@pytest.mark.parametrize("limit", [0, -1])
def test_find_models_refuses_a_limit_below_one(limit):
    with pytest.raises(ValueError, match="witness limit"):
        find_models([parse("~B p", RBB)], RBB, W2, limit=limit)


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


# Goal sets for the pruning oracle: top-level B and ~B literals, a B and
# a ~B of the same set, nested belief, Supports and quantifiers inside the
# operand, and a valid sigma axiom whose negation has no model.  The next
# three reach the stages the others miss: a two-reason conjunct at the
# relation assignment, an equation at the valuation, and a quantifier whose
# instances need no model part at all.  The last six meet the relation
# walk's base check: (mr) with witnesses (the valid (mr) set is the
# eighth), the (ma) conflict, sigma's adequacy with ~sigma:p, a top-level
# quantifier whose instances are belief literals, a belief operand that
# reads the non-point rows of a reason the walk fixes before sigma, and two
# reasons under sigma, where B r keeps sigma's point rows inside r(w0).  In
# the last two a forced reason's point row is filtered by (rb), since ~B q
# keeps ext(q) out of N(w0), and, for B r and B s, by (d).
PRUNING_CASES = [
    ("RBB", ("r",), ("p", "q"), ("B p", "~B q")),
    ("RBB", ("r",), ("p", "q"), ("B (p | q)", "~B p", "~p")),
    ("RBB", ("r",), ("p",), ("~(B p -> p)",)),
    ("RBB", ("r",), ("p",), ("B p", "~B (p & p)")),
    ("RBB", ("r",), ("p",), ("B (r:p)", "~B p", "r")),
    ("RBB", ("r",), ("p",), ("~B (B p)", "B p", "r", "~p")),
    ("RBBs", ("r",), ("p",), ("B p", "~B r")),
    ("RBBs", ("r",), ("p",), ("~(B r & r:p -> sigma:p)",)),
    ("RBBs+", ("r",), ("p",), ("B p", "~B (~p)")),
    ("QRBB", ("r", "s"), ("p",), ("B (A t. t:p)", "~B p")),
    ("QRBB", ("r", "s"), ("p",), ("~B (A t. t:p | p)", "E t. t")),
    ("RBB", ("r", "s"), ("p",), ("r:p | s:p", "~r:p", "B p")),
    ("QRBB", ("r", "s"), ("p",), ("r != s", "B (r:p)", "~s")),
    ("QRBB", ("r", "s"), ("p",), ("A t. t = t", "~B p", "r")),
    ("RBBs", ("r",), ("p", "q"), ("B r", "r:p", "~sigma:q")),
    ("RBBs", ("r",), ("p",), ("sigma", "B r", "~r")),
    ("RBBs", ("r",), ("p",), ("sigma", "B r", "~sigma:p")),
    ("QRBB", ("r", "s"), ("p",), ("A t. ~B t", "B p", "E t. t")),
    ("RBBs", ("r",), ("p",), ("B (r:p)", "~B (sigma:p)")),
    ("RBBs", ("r", "s"), ("p",), ("B r", "r:p", "s:p", "~B s")),
    ("RBB", ("r", "s"), ("p", "q"), ("B r", "B s", "r:p", "~B q")),
    ("RBBs", ("r",), ("p", "q"), ("B r", "~B q")),
]


@pytest.mark.parametrize(
    "theory,reasons,letters,texts",
    PRUNING_CASES,
    ids=["".join(f"{case[0]}:{'/'.join(case[3])}".split()) for case in PRUNING_CASES],
)
def test_pruning_drops_no_witness(theory, reasons, letters, texts):
    _assert_pruning_drops_no_witness(theory, reasons, letters, texts, 2)


# Keyed cases whose unpruned walk at three worlds takes a few seconds at
# most: there two non-point worlds can share a valuation, so the relation
# walk's checks are decided once per class.  The third has a check at the
# second reason, and reads no diagonal beyond the point.  In the fourth only
# the second reason's own conjunct reads q, so whether r's keys have a
# completion turns on q at the worlds r's diagonal holds: the completion
# memo must tell those worlds apart.  In the last both reasons are forced,
# so the walk filters their point rows by (rb) and (d).
PRUNING_CASES_AT_THREE = [
    ("RBB", ("r",), ("p",), ("~B (B p)", "B p", "r", "~p")),
    ("RBBs+", ("r",), ("p",), ("B p", "~B (~p)")),
    ("RBB", ("r", "s"), ("p",), ("r:p | s", "~B r")),
    ("RBB", ("r", "s"), ("q",), ("~s:q", "s:r", "~B r")),
    ("RBB", ("r", "s"), ("p",), ("B r", "B s", "~B p")),
]


@pytest.mark.parametrize(
    "theory,reasons,letters,texts",
    PRUNING_CASES_AT_THREE,
    ids=["".join(f"{c[0]}:{'/'.join(c[3])}".split()) for c in PRUNING_CASES_AT_THREE],
)
def test_pruning_drops_no_witness_at_three_worlds(theory, reasons, letters, texts):
    _assert_pruning_drops_no_witness(theory, reasons, letters, texts, 3)


def _assert_pruning_drops_no_witness(theory, reasons, letters, texts, worlds):
    # The quick checks are exact: the pruned walk yields, in order, just the
    # unpruned candidates that pass the public checks.
    cfg = TheoryConfig.from_name(theory, reasons, letters)
    goals = tuple(parse(t, cfg) for t in texts)
    bounds = SearchBounds(max_worlds=worlds, budget_secs=None)
    wanted = [
        Witness(model, point)
        for model, point in iter_candidates(goals, cfg, bounds, prune=False)
        if validate_model(model, cfg).ok
        and all(satisfies(model, point, g, cfg) for g in goals)
    ]
    assert list(iter_witnesses(goals, cfg, bounds)) == wanted


@pytest.mark.parametrize(
    "theory,reasons,letters,texts",
    PRUNING_CASES,
    ids=["".join(f"{case[0]}:{'/'.join(case[3])}".split()) for case in PRUNING_CASES],
)
def test_pruned_candidates_pass_the_public_checks(theory, reasons, letters, texts):
    # Each conjunct is checked once, at the stage that fixes its value, so a
    # wrong stage would show only as a candidate the public re-check rejects:
    # there must be none.
    cfg = TheoryConfig.from_name(theory, reasons, letters)
    goals = tuple(parse(t, cfg) for t in texts)
    bounds = SearchBounds(max_worlds=2, budget_secs=None)
    for model, point in iter_candidates(goals, cfg, bounds, prune=True):
        assert validate_model(model, cfg).ok
        assert all(satisfies(model, point, g, cfg) for g in goals)


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


def _scheduled(goals, cfg):
    """The conjuncts the pruned walk checks for ``goals``, or None when the
    schedule finds that no candidate can meet them."""
    split = tuple(dict.fromkeys(c for g in goals for c in _conjuncts(g)))
    schedule = _schedule(split, cfg.reasons, cfg)
    if schedule is None:
        return None
    return [
        *schedule.valuation,
        *itertools.chain(*schedule.reasons.values()),
        *itertools.chain(*schedule.relations.values()),
        *(Believes(phi) if held else Not(Believes(phi)) for phi, held in schedule.point),
        *schedule.staged,
    ]


def _literal_goal_set(rng, cfg):
    """One to three literals on distinct atoms, and one or two conjuncts
    that mix literals, equations and random formulas, some negated."""

    def term():
        return atom_term(rng.choice(cfg.reasons))

    def literal(atom):
        return atom if rng.random() < 0.5 else Not(atom)

    letter = Letter(rng.choice(cfg.letters))
    atoms = [Letter(p) for p in cfg.letters]
    atoms += [Adequate(term()), Supports(term(), letter), Believes(letter)]
    goals = [literal(atom) for atom in rng.sample(atoms, rng.randint(1, 3))]
    for _ in range(rng.randint(1, 2)):
        pieces = [
            literal(rng.choice(atoms)) if roll < 0.6
            else Eq(term(), term()) if roll < 0.72
            else corpus.random_formula(rng, cfg, depth=2)
            for roll in (rng.random() for _ in range(rng.randint(1, 3)))
        ]
        goal = pieces[0]
        for piece in pieces[1:]:
            goal = Or(goal, piece) if rng.random() < 0.5 else conj(goal, piece)
        goals.append(goal if rng.random() < 0.8 else Not(goal))
    return goals


def test_literal_propagation_is_exact():
    # The schedule folds the point's literals into the other conjuncts; an
    # unpruned candidate must meet the folded conjuncts exactly when it
    # meets the goals, and a contradiction found there must have no model.
    cfgs = (
        TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q")),
        TheoryConfig.from_name("QRBBs", ("r",), ("p",)),
    )
    rng = random.Random(11)
    folded = contradicted = 0
    for k in range(150):
        cfg = cfgs[k % 2]
        goals = _literal_goal_set(rng, cfg)
        scheduled = _scheduled(goals, cfg)
        if scheduled is None:
            contradicted += 1
        elif set(scheduled) != {c for g in goals for c in _conjuncts(g)}:
            folded += 1
        bounds = SearchBounds(max_worlds=1 + k % 2, budget_secs=None)
        candidates = iter_candidates(goals, cfg, bounds, prune=False)
        for model, point in itertools.islice(candidates, 200):
            want = all(satisfies(model, point, g, cfg) for g in goals)
            got = scheduled is not None and all(
                satisfies(model, point, c, cfg) for c in scheduled
            )
            assert want == got, goals
    assert folded >= 30 and contradicted >= 30


def _quantified_goal_set(rng, cfg):
    """Two to five literals on the atoms a quantifier's instances read, and
    one or two conjuncts with ``A t.`` under ``~`` or ``|``."""
    t, u = atom_term("t"), atom_term("u")
    letters = [Letter(p) for p in cfg.letters]

    def atoms(x):
        return [Adequate(x), Supports(x, rng.choice(letters)), Believes(Adequate(x))]

    def literal(atom):
        return atom if rng.random() < 0.5 else Not(atom)

    pool = letters + [a for r in cfg.reasons for a in atoms(atom_term(r))]
    goals = [literal(atom) for atom in rng.sample(pool, rng.randint(2, 5))]
    for _ in range(rng.randint(1, 2)):
        pieces = [
            literal(rng.choice([*atoms(t), *letters, Eq(t, atom_term(rng.choice(cfg.reasons)))]))
            if rng.random() < 0.85
            else ForAll("u", Or(literal(rng.choice(atoms(u))), Eq(u, t)))
            for _ in range(rng.randint(1, 3))
        ]
        body = pieces[0]
        for piece in pieces[1:]:
            body = Or(body, piece) if rng.random() < 0.5 else conj(body, piece)
        quantifier = ForAll("t", body)
        other = literal(rng.choice(pool)) if rng.random() < 0.7 else corpus.random_formula(rng, cfg, 2)
        goals.append(rng.choice([Not(quantifier), Or(quantifier, other), Or(other, Not(quantifier))]))
    return goals


def test_quantifier_folding_is_exact():
    # The schedule folds a quantifier under ~ or | as the conjunction of its
    # instances; an unpruned candidate must meet the folded conjuncts
    # exactly when it meets the goals, and a contradiction found there must
    # have no model.
    cfgs = (
        TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q")),
        TheoryConfig.from_name("QRBBs", ("r",), ("p",)),
    )
    rng = random.Random(19)
    decided = contradicted = 0
    for k in range(150):
        cfg = cfgs[k % 2]
        goals = _quantified_goal_set(rng, cfg)
        scheduled = _scheduled(goals, cfg)
        quantified = {c for g in goals for c in _conjuncts(g) if _mentions(c, (ForAll,))}
        if scheduled is None:
            contradicted += 1
        elif not quantified & set(scheduled):
            decided += 1
        bounds = SearchBounds(max_worlds=1 + k % 2, budget_secs=None)
        candidates = iter_candidates(goals, cfg, bounds, prune=False)
        for model, point in itertools.islice(candidates, 200):
            want = all(satisfies(model, point, g, cfg) for g in goals)
            got = scheduled is not None and all(
                satisfies(model, point, c, cfg) for c in scheduled
            )
            assert want == got, goals
    assert decided >= 50 and contradicted >= 18, (decided, contradicted)


# Pieces that put r-degree or s-degree into the point's base family, or
# keep it out, or keep a set the letters fix out of it, next to checks on
# sigma and on the other reasons.
CEILING_PIECES = (
    "B r", "B s", "~B r", "r:p", "s:q", "~sigma:p", "sigma:q", "sigma", "r | s:p",
    "B (q | s)", "~B (p & r)", "~B q", "~B p",
)


def test_point_row_filter_is_exact():
    # The walk drops each point row of a forced reason that `_row_filter`
    # leaves out after the point rows fixed before it: by (mr), a sigma row
    # outside r(w0) for a point literal B r; by (rb), a row inside a set
    # that a point literal ~B phi avoids and the letters fix; by (d), a row
    # that misses an earlier forced row.  Each dropped row must be one the
    # base check at the last position rejects, whatever the valuation, its
    # diagonal and the later keys, so the filter changes no candidate.
    rng = random.Random(13)
    cfgs = [TheoryConfig.from_name(t, ("r", "s"), ("p", "q")) for t in ("RBB", "RBBs", "RBBs+")]
    sets = capped = 0
    cuts = dict.fromkeys(("mr", "rb", "d"), 0)

    def key(row=None):
        row = rng.randrange(1 << n) if row is None else row
        return row, rng.randrange(1 << n) & ~1 | row & 1

    while sets < 90:
        cfg = cfgs[sets % 3]
        pieces = [t for t in CEILING_PIECES if cfg.sigma or "sigma" not in t]
        texts = rng.sample(pieces, rng.randint(2, 4))
        goals = {
            c
            for t in texts
            for c in _conjuncts(parse(t if rng.random() < 0.8 else f"~({t})", cfg))
        }
        schedule = _schedule(tuple(sorted(goals, key=print_formula)), cfg.reasons, cfg)
        if schedule is None:
            continue
        sets += 1
        n, m, point = 3, len(cfg.reasons), dict(schedule.point)
        # Degrees in every point family: sigma's by (mb), r's by a literal B r.
        forced = {r for r in cfg.reasons if r == SIGMA_NAME or point.get(Adequate(atom_term(r)))}
        plain = [
            phi for phi, believed in schedule.point
            if not believed and not any(isinstance(f, (Supports, Adequate)) for f in subformulas(phi))
        ]
        for _ in range(4):
            letters = {p: rng.randrange(1 << n) for p in cfg.letters}
            ctx = _Ctx(cfg, n, letters, {}, {}, (0,) * n)
            avoided = [ctx.extension(phi) for phi in plain]
            allowed = _row_filter(schedule, cfg.reasons, ctx)
            for k, name in enumerate(cfg.reasons):
                prefix = tuple(key() for _ in range(k))
                family = allowed([row for row, _ in prefix])
                dropped = [row for row in range(1 << n) if not family >> row & 1]
                capped += name == SIGMA_NAME and bool(dropped)
                earlier = [row for r, (row, _) in zip(cfg.reasons, prefix) if r in forced]
                for row in dropped:
                    assert name in forced, texts
                    cuts["mr"] += name == SIGMA_NAME and any(row & ~e for e in earlier)
                    cuts["rb"] += any(not row & ~x for x in avoided)
                    cuts["d"] += any(not row & e for e in earlier)
                    for _ in range(3):
                        chosen = (*prefix, key(row), *(key() for _ in range(k + 1, m)))
                        assert not _keyed_check(cfg, n, letters, schedule, chosen), texts
    assert capped > 50 and min(cuts.values()) > 300, (capped, cuts)


def test_base_faults_are_monotone():
    # World i's base family, the (rb)-closure of the forced sigma seed and
    # ``need``, is admitted exactly when some (rb)-closed family holding both
    # is: each fault it has, and each member of ``avoid``, stays in every
    # closed superset.  The walk's base check and the family stage's least
    # families rely on this.  The oracle tries every family over n worlds.
    rng = random.Random(19)
    cfgs = (
        TheoryConfig.from_name("RBB", ("r", "s"), ("p",)),
        TheoryConfig.from_name("RBBs", ("r", "s"), ("p",)),
        TheoryConfig.from_name("RBBs+", ("r", "s"), ("p",)),
        TheoryConfig.from_name("RBB", ("r", "p"), ("p",), allow_overlap=True),
    )
    faults = 0
    for case in range(3600):
        cfg, n = cfgs[case % 4], case % 3 + 1
        sets = 1 << n
        rows = {name: [rng.randrange(sets) for _ in range(n)] for name in cfg.reasons}
        diag = {name: sum(row[i] & 1 << i for i in range(n)) for name, row in rows.items()}
        ctx = _Ctx(cfg, n, {"p": rng.randrange(sets)}, rows, diag, (0,) * n)
        i = rng.randrange(n)
        need, avoid = (sum(1 << x for x in rng.sample(range(sets), rng.randint(0, 2))) for _ in "na")
        up = [superset_family(row, n) for row in range(sets)]
        floor = need | (1 << diag[SIGMA_NAME] if cfg.sigma else 0)
        closed = (
            family
            for family in range(1 << sets)
            if family & floor == floor
            and all(up[rows[r][i]] & ~family == 0 for r in cfg.reasons if family >> diag[r] & 1)
        )
        admitted = any(
            not family & avoid and next(ctx.faults(i, family, up, "w"), None) is None
            for family in closed
        )
        assert _admits(ctx, i, _rb_closure(need, i, ctx), need, avoid) == admitted, (cfg.name, n)
        faults += not admitted
    assert faults > 1000, faults


def test_folding_expands_an_exposed_quantifier():
    # ~p turns p | A t. t:q into a top-level quantifier, which must give
    # way to its instances like any other.
    goals = [parse("p | A t. t:q", NO_CLOSURE_CFG), parse("~p", NO_CLOSURE_CFG)]
    scheduled = _scheduled(goals, NO_CLOSURE_CFG)
    assert set(scheduled) == {
        parse(t, NO_CLOSURE_CFG) for t in ("~p", "r:q", "s:q")
    }
    out = find_model(goals, NO_CLOSURE_CFG, W2)
    assert isinstance(out, Witness)
    assert all(satisfies(out.model, out.world, g, NO_CLOSURE_CFG) for g in goals)


def test_opposite_literals_exhaust_at_once():
    bounds = SearchBounds(max_worlds=6, budget_secs=10.0)
    t0 = time.perf_counter()
    out = find_model([parse("p", RBB), parse("~p", RBB)], RBB, bounds)
    assert isinstance(out, Exhausted) and out.bounds == bounds
    assert time.perf_counter() - t0 < 0.5


def test_false_equation_instance_is_dropped():
    # The instance r != r -> B p holds outright, so only s != r -> B p,
    # folded to the belief literal B p, is left to check.
    goal = parse("A t. t != r -> B p", QRBB)
    schedule = _schedule((goal,), QRBB.reasons, QRBB)
    assert schedule.point == [(parse("p", QRBB), True)]
    assert _scheduled([goal], QRBB) == [parse("B p", QRBB)]


def _keyed_check(cfg, n, letters, schedule, chosen):
    """The keyed check at walk position len(chosen), with every declared
    reason active, decided directly on the stand-in shapes of the keys
    ``chosen``: its conjuncts hold at the point and, at the last position,
    the point's base family has no fault."""
    rows = {name: [0] * n for name in cfg.reasons}
    diag = dict.fromkeys(cfg.reasons, 0)
    for name, key in zip(cfg.reasons, chosen):
        rows[name], diag[name] = _shape(n, key)
    ctx = _Ctx(cfg, n, letters, rows, diag, (0,) * n)
    k = len(chosen)
    return all(ctx.extension(g) & 1 for g in schedule.relations.get(k, [])) and not (
        k == len(cfg.reasons) and _base_fault(ctx, *_point_sets(schedule, ctx))
    )


def _class_of(cfg, n, letters, schedule, chosen):
    vectors = _letter_vectors(schedule, letters, n, len(cfg.reasons))
    for k, key in enumerate(chosen):
        vectors = _append_key(vectors, key, k)
    return _class_key(len(chosen), vectors)


def _near(n, letters, chosen):
    """The images of (valuation, keys) under each order of the non-point
    worlds, each one-bit change of a letter or a key, and its prefixes."""
    for order in itertools.permutations(range(1, n)):
        order = (0, *order)

        def move(mask):
            return sum((mask >> i & 1) << order[i] for i in range(n))

        yield {p: move(mask) for p, mask in letters.items()}, tuple(
            (move(row), move(d)) for row, d in chosen
        )
    for i in range(n):
        for p in letters:
            yield {**letters, p: letters[p] ^ 1 << i}, chosen
        for j, (row, d) in enumerate(chosen):
            # The point's diagonal bit is its own row's bit at the point.
            changed = [(row ^ 1 << i, d ^ (i == 0))] + [(row, d ^ 1 << i)] * (i > 0)
            for key in changed:
                yield letters, (*chosen[:j], key, *chosen[j + 1:])
    for k in range(len(chosen)):
        yield letters, chosen[:k]


# Keyed pieces, with no Supports inside another modality.  q is read only
# by the belief operand of B (q | s); r:(s | p) has an adequacy atom inside
# Supports; r:p | s:q and r:(s | p) are checked once both reasons are fixed.
# RBBs+ takes sigma for s.
KEYED_PIECES = (
    "r:p", "s:q", "r:(s | p)", "s:(~r | p)", "r:p | s:q", "r | s:p", "~r:p | s",
    "B (q | s)", "~B (p & r)", "B r", "p", "q",
)
SIGMA_PIECES = ("sigma:p", "sigma | r:q", "~sigma:(p | s)", "B (q | sigma)")


def test_keyed_checks_agree_within_a_class():
    # The verdict memo rests on this: a keyed check reads each world only
    # through the letters of `_letter_vectors` and each fixed key's point-row
    # bit and diagonal bit there, and the point only through its own, so
    # the checks of one class, from any valuation, give one verdict.
    rng = random.Random(5)
    cfgs = (
        TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q")),
        TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q")),
        TheoryConfig.from_name("RBBs+", ("r",), ("p", "q")),
    )
    sets = shared = 0
    while sets < 120:
        cfg = cfgs[sets % 3]
        pieces = KEYED_PIECES + SIGMA_PIECES * (cfg.name == "RBBs")
        texts = rng.sample(pieces, rng.randint(2, 4))
        if cfg.name == "RBBs+":
            texts = [t.replace("s", "sigma") for t in texts]
        goals = {
            c
            for t in texts
            for c in _conjuncts(parse(t if rng.random() < 0.7 else f"~({t})", cfg))
        }
        schedule = _schedule(tuple(sorted(goals, key=print_formula)), cfg.reasons, cfg)
        if schedule is None:
            continue
        n = 4 if sets % 4 == 0 else 3
        sets += 1
        verdicts = {}
        for _ in range(6):
            letters = {p: rng.randrange(1 << n) for p in cfg.letters}
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, len(cfg.reasons)))]
            keys = tuple((row, rng.randrange(1 << n) & ~1 | row & 1) for row in rows)
            for valuation, chosen in [(letters, keys), *_near(n, letters, keys)]:
                got = _keyed_check(cfg, n, valuation, schedule, chosen)
                group = _class_of(cfg, n, valuation, schedule, chosen)
                verdicts.setdefault(group, []).append(got)
        assert all(len(set(v)) == 1 for v in verdicts.values()), texts
        shared += sum(len(v) > 1 for v in verdicts.values())
    assert shared > 1000


def _completes(cfg, n, letters, schedule, chosen, menus, checks):
    """Whether the keys ``chosen`` have a completion: a key from ``menus``
    for each later reason such that every keyed check after them passes."""
    if len(chosen) == len(cfg.reasons):
        return True
    for key in menus[len(chosen)]:
        longer = (*chosen, key)
        if longer not in checks:
            checks[longer] = _keyed_check(cfg, n, letters, schedule, longer)
        if checks[longer] and _completes(cfg, n, letters, schedule, longer, menus, checks):
            return True
    return False


def _own_menus(cfg, n, letters, schedule):
    """Each reason's (point row, diagonal) keys that pass its own conjuncts,
    decided on its stand-in shape alone."""
    menus = []
    for name in cfg.reasons:
        keys = []
        for row, d in itertools.product(range(1 << n), range(0, 1 << n, 2)):
            rows = {r: [0] * n for r in cfg.reasons}
            diag = dict.fromkeys(cfg.reasons, 0)
            rows[name], diag[name] = _shape(n, (row, d | row & 1))
            ctx = _Ctx(cfg, n, letters, rows, diag, (0,) * n)
            if all(ctx.extension(g) & 1 for g in schedule.reasons.get(name, [])):
                keys.append((row, d | row & 1))
        menus.append(keys)
    return menus


# Pieces whose later reason's own conjuncts read a letter no keyed check
# reads: ~s:q asks s's point row for a q-less world, and s:r and
# s:(~r | p) keep that row inside r's diagonal, so whether r's keys have a
# completion turns on q at the worlds r's diagonal holds.
ORBIT_PIECES = ("~s:q", "s:q", "s:r", "s:(~r | p)", "r:p", "B r", "r | s:p", "~B (p & s)")


def test_completions_agree_within_an_orbit():
    # The completion memo rests on this: whether a prefix of keys has a
    # completion reads each world only through its vector and all its
    # active letters, and the point likewise, so the prefixes of one orbit,
    # from any valuation, give one answer.  A class alone does not.
    rng = random.Random(8)
    cfgs = (
        TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q")),
        TheoryConfig.from_name("RBBs+", ("r",), ("p", "q")),
        TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q")),
    )
    sets = shared = split = 0
    while sets < 45:
        cfg = cfgs[sets % 3]
        pieces = ORBIT_PIECES + KEYED_PIECES * (sets % 2)
        texts = rng.sample(pieces, rng.randint(2, 4))
        if cfg.name == "RBBs+":
            texts = [t.replace("s", "sigma") for t in texts]
        goals = {
            c
            for t in texts
            for c in _conjuncts(parse(t if rng.random() < 0.8 else f"~({t})", cfg))
        }
        schedule = _schedule(tuple(sorted(goals, key=print_formula)), cfg.reasons, cfg)
        if schedule is None:
            continue
        n = 4 if sets % 3 == 1 and sets % 2 == 0 else 3
        sets += 1
        answers, classes, menus, checks = {}, {}, {}, {}
        for _ in range(3):
            letters = {p: rng.randrange(1 << n) for p in cfg.letters}
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, len(cfg.reasons) - 1))]
            keys = tuple((row, rng.randrange(1 << n) & ~1 | row & 1) for row in rows)
            for valuation, chosen in [(letters, keys), *_near(n, letters, keys)]:
                if not chosen:
                    continue
                at = tuple(sorted(valuation.items()))
                if at not in menus:
                    menus[at] = _own_menus(cfg, n, valuation, schedule)
                if any(key not in menu for key, menu in zip(chosen, menus[at])):
                    continue
                got = _completes(
                    cfg, n, valuation, schedule, chosen, menus[at], checks.setdefault(at, {})
                )
                tags = [
                    sum((valuation[p] >> i & 1) << j for j, p in enumerate(cfg.letters))
                    for i in range(n)
                ]
                vectors = _letter_vectors(schedule, valuation, n, len(cfg.reasons))
                for k, key in enumerate(chosen):
                    vectors = _append_key(vectors, key, k)
                answers.setdefault(_orbit_key(len(chosen), vectors, tags), []).append(got)
                classes.setdefault(_class_key(len(chosen), vectors), set()).add(got)
        assert all(len(set(v)) == 1 for v in answers.values()), texts
        shared += sum(len(v) > 1 for v in answers.values())
        split += sum(len(v) > 1 for v in classes.values())
    assert shared > 100 and split > 0, (shared, split)


# Own conjuncts of one reason each: letters at the point, the reason's
# adequacy at the point, and Supports atoms over letters.  r:(r | p) nests
# an adequacy atom, so r's keys are then decided one by one.  RBBs+ takes
# sigma for r.
OWN_PIECES = (
    "r:p", "~r:q", "r:(p | ~q)", "r | r:p", "~r | ~r:(p & q)", "p | ~r:q",
    "~q | r", "r:(p -> q) -> r:p -> r:q", "r:(r | p)",
)
SIGMA_OWN_PIECES = ("sigma:p", "~sigma:(p | q)", "sigma | sigma:q", "~sigma | ~p")
S_OWN_PIECES = ("s:q", "s | ~s:(p | q)", "~p | s:p")
# The name p is a reason and a letter; text resolves p to the reason, so
# the letter is built directly.
SHARED = TheoryConfig.from_name("RBB", ("r", "p"), ("p", "q"), allow_overlap=True)
SHARED_PIECES = (
    Or(Letter("p"), parse("p:q", SHARED)),
    Supports(atom_term("p"), Or(Letter("p"), Not(Letter("q")))),
    Or(Not(parse("p", SHARED)), Supports(atom_term("p"), Not(Letter("p")))),
    Or(Not(Letter("p")), parse("~p:q", SHARED)),
    parse("r:q | q", SHARED),
)


def test_own_conjuncts_are_decided_in_one_evaluation():
    # The walk decides a reason's own conjuncts for every point row at
    # once, on a table whose world x is the point with point row x.  Its
    # rows must be exactly the point rows of the keys that pass on their
    # own stand-in shapes, whatever the diagonal off the point.
    rng = random.Random(17)
    cfgs = (
        TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q")),
        TheoryConfig.from_name("RBBs", ("r",), ("p", "q")),
        TheoryConfig.from_name("RBBs+", (), ("p", "q")),
        SHARED,
    )
    sets = partial = nested = 0
    while sets < 80:
        cfg = cfgs[sets % 4]
        if cfg is SHARED:
            pieces = rng.sample(SHARED_PIECES, rng.randint(1, 3))
        else:
            extra = SIGMA_OWN_PIECES if cfg.sigma else S_OWN_PIECES
            texts = rng.sample(OWN_PIECES + extra, rng.randint(1, 3))
            if cfg.sigma_plus:
                texts = [t.replace("r", "sigma") for t in texts]
            pieces = [parse(t, cfg) for t in texts]
        goals = {c for f in pieces for c in _conjuncts(f if rng.random() < 0.8 else Not(f))}
        schedule = _schedule(tuple(sorted(goals, key=print_formula)), cfg.reasons, cfg)
        if schedule is None or not schedule.reasons:
            continue
        sets += 1
        for n in range(1, 5):
            for _ in range(3):
                letters = {p: rng.randrange(1 << n) for p in cfg.letters}
                plain = _Ctx(cfg, n, letters, {}, {}, (0,) * n)
                oracle = _own_menus(cfg, n, letters, schedule)
                for name, want in zip(cfg.reasons, oracle):
                    own = schedule.reasons.get(name, [])
                    if not own or any(_nests(g, Adequate) for g in own):
                        nested += bool(own)
                        continue
                    rows = _own_rows(schedule, name, plain)
                    keys = itertools.product(range(1 << n), range(0, 1 << n, 2))
                    got = [(row, d | row & 1) for row, d in keys if rows >> row & 1]
                    assert got == want, (name, n, letters, goals)
                    partial += 0 < len(want) < 1 << 2 * n - 1
    assert partial > 400 and nested > 20, (partial, nested)
