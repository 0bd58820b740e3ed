import collections
import functools
import hashlib
import itertools
import pickle
import random
from copy import deepcopy

import pytest

import rbb
from corpus import random_formula
from rbb.semantics import (
    MAX_VALIDATION_WORLDS,
    AppSemanticsUndefined,
    Model,
    PropertyReport,
    UnknownReason,
    UnknownSymbol,
    UnknownWorld,
    Violation,
    _ModelCtx,
    check_rc,
    ensure_in_language,
    extension,
    make_model,
    model_from_doc,
    model_to_doc,
    reflexive_worlds,
    satisfies,
    successors,
    validate_model,
)
from rbb.syntax import (
    App,
    Adequate,
    Believes,
    Eq,
    ForAll,
    Letter,
    Not,
    Or,
    Supports,
    atom_term,
    is_free_for,
    substitute,
    term_name,
)
from rbb.theory import TheoryConfig

BASE = TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q"))
QUANT = TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q"))

P, Q = Letter("p"), Letter("q")
R, S = atom_term("r"), atom_term("s")


def tiny():
    """Two worlds, one believed reason; rich enough for every connective."""
    return make_model(
        ["w0", "w1"],
        {"r": [("w0", "w1"), ("w1", "w1")], "s": [("w0", "w0")]},
        {"w0": [["w1"], ["w0", "w1"]], "w1": []},
        {"w0": [], "w1": ["p"]},
    )


# -- an independent recursive evaluator -------------------------------------


def holds(model, w, f, cfg):
    """Direct transcription of the satisfaction clauses, sets not bitmasks."""
    if isinstance(f, Letter):
        return f.name in model.valuation[w]
    if isinstance(f, Not):
        return not holds(model, w, f.sub, cfg)
    if isinstance(f, Or):
        return holds(model, w, f.left, cfg) or holds(model, w, f.right, cfg)
    if isinstance(f, Supports):
        succ = successors(model, term_name(f.reason), w)
        return all(holds(model, v, f.sub, cfg) for v in succ)
    if isinstance(f, Adequate):
        return w in successors(model, term_name(f.reason), w)
    if isinstance(f, Believes):
        truth_set = frozenset(
            v for v in model.worlds if holds(model, v, f.sub, cfg)
        )
        return truth_set in model.neighborhoods[w]
    if isinstance(f, Eq):
        return term_name(f.left) == term_name(f.right)
    assert isinstance(f, ForAll)
    for name in cfg.reasons:
        if not is_free_for(name, f.var, f.sub):
            continue
        if not holds(model, w, substitute(f.sub, f.var, name), cfg):
            return False
    return True


def test_engine_agrees_with_the_recursive_oracle(
    base_corpus, sigma_corpus, sigma_plus_corpus
):
    rng = random.Random(31)
    jobs = [
        (base_corpus, "QRBB"),
        (sigma_corpus, "QRBBs"),
        (sigma_plus_corpus, "QRBBs+"),
    ]
    for corpus, quant_name in jobs:
        for cfg, model in corpus[:40]:
            qcfg = TheoryConfig.from_name(
                quant_name, cfg.basic_reasons, cfg.letters
            )
            for _ in range(8):
                f = random_formula(rng, qcfg, depth=3)
                ext = extension(model, f, qcfg)
                for w in model.worlds:
                    assert (w in ext) == holds(model, w, f, qcfg), (f, w)


def test_satisfies_is_extension_membership():
    m = tiny()
    for f in (P, Believes(P), Supports(R, P), Adequate(S), Not(Q)):
        ext = extension(m, f, BASE)
        for w in m.worlds:
            assert satisfies(m, w, f, BASE) == (w in ext)


# -- hand-checked clauses ---------------------------------------------------


def test_library_answers_a_formula_of_200_conjuncts():
    # Depth about 600: within reach now that a node's hash is not recomputed
    # recursively.
    deep = rbb.parse(" & ".join(["p"] * 200), BASE)
    model = tiny()
    assert rbb.satisfies(model, "w1", deep, BASE)
    assert not rbb.satisfies(model, "w0", deep, BASE)
    assert rbb.extension(model, deep, BASE) == {"w1"}
    found = rbb.find_model([Not(deep)], BASE, rbb.SearchBounds(max_worlds=1))
    assert isinstance(found, rbb.Witness)
    assert not rbb.satisfies(found.model, found.world, P, BASE)


def test_support_is_truth_in_all_successors():
    m = tiny()
    assert satisfies(m, "w0", Supports(R, P), BASE)
    assert not satisfies(m, "w0", Supports(S, P), BASE)
    # empty successor set supports anything
    assert satisfies(m, "w1", Supports(S, Q), BASE)


def test_adequacy_is_reflexivity():
    m = tiny()
    assert satisfies(m, "w0", Adequate(S), BASE)
    assert not satisfies(m, "w0", Adequate(R), BASE)
    assert satisfies(m, "w1", Adequate(R), BASE)


def test_belief_is_family_membership():
    m = tiny()
    assert satisfies(m, "w0", Believes(P), BASE)
    assert not satisfies(m, "w1", Believes(P), BASE)
    # the whole world set is in N(w0)
    assert satisfies(m, "w0", Believes(Or(P, Not(P))), BASE)


def test_belief_on_a_model_of_64_worlds():
    # Evaluation has no world cap: the family {{w63}} must cost one set,
    # not an integer of 2^63 bits over all world sets.
    worlds = [f"w{i}" for i in range(64)]
    m = make_model(worlds, {"r": [], "s": []}, {"w0": [["w63"]]}, {"w63": ["p"]})
    assert satisfies(m, "w0", Believes(P), BASE)
    assert not satisfies(m, "w1", Believes(P), BASE)
    assert extension(m, Believes(Not(Not(P))), BASE) == {"w0"}


def test_quantifier_ranges_over_declared_reasons():
    m = tiny()
    t = atom_term("t")
    every = ForAll("t", Supports(t, Or(P, Not(P))))
    assert satisfies(m, "w0", every, QUANT)
    some_adequate = Not(ForAll("t", Not(Adequate(t))))
    assert satisfies(m, "w0", some_adequate, QUANT)
    assert satisfies(m, "w0", Eq(R, R), QUANT)
    assert not satisfies(m, "w0", Eq(R, S), QUANT)


def test_equal_quantifiers_are_instantiated_once_across_calls(monkeypatch):
    # Two public calls on equal, separately parsed formulas: the second
    # finds the instances the first built, so each is substituted once.
    rbb.syntax.instances.cache_clear()
    calls = []
    real = rbb.syntax.substitute

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rbb.syntax, "substitute", counting)
    monkeypatch.setattr(rbb.semantics, "substitute", counting, raising=False)
    text = "A t. t:(p | q) -> B t"
    first, second = (rbb.parse(text, QUANT) for _ in range(2))
    assert first == second and first is not second
    model = tiny()
    assert satisfies(model, "w0", first, QUANT) == satisfies(model, "w0", second, QUANT)
    assert [name for _, _, name in calls] == list(QUANT.reasons)


def test_quantifier_skips_capture_blocked_substituents():
    m = tiny()
    # substituting s for t under a binder on s would capture, so the
    # conjunction effectively ranges over r alone
    body = ForAll("s", Or(Not(Adequate(atom_term("t"))), Adequate(S)))
    f = ForAll("t", body)
    expected = all(
        holds(m, "w0", substitute(body, "t", name), QUANT)
        for name in QUANT.reasons
        if is_free_for(name, "t", body)
    )
    assert satisfies(m, "w0", f, QUANT) == expected
    assert not is_free_for("s", "t", body)


# -- language checks --------------------------------------------------------


def test_undeclared_symbols_are_refused():
    with pytest.raises(UnknownSymbol):
        ensure_in_language(Letter("z"), BASE)
    with pytest.raises(UnknownSymbol):
        ensure_in_language(Adequate(atom_term("z")), BASE)
    # bound occurrences are fine
    ensure_in_language(ForAll("z", Adequate(atom_term("z"))), QUANT)


def test_quantifiers_are_not_propositional_language():
    with pytest.raises(UnknownSymbol):
        ensure_in_language(ForAll("t", P), BASE)
    with pytest.raises(UnknownSymbol):
        ensure_in_language(Eq(R, S), BASE)


def test_app_terms_have_no_semantics():
    app_cfg = TheoryConfig.from_name("RBB+App", ("r", "s"), ("p",))
    with pytest.raises(AppSemanticsUndefined):
        ensure_in_language(P, app_cfg)
    with pytest.raises(AppSemanticsUndefined):
        ensure_in_language(Supports(App(R, S), P), BASE)


# The three-walk language check that the one-pass `ensure_in_language`
# replaced, kept as its oracle together with the recursive walks it used.


def _preorder(f):
    yield f
    if isinstance(f, Or):
        yield from _preorder(f.left)
        yield from _preorder(f.right)
    elif isinstance(f, (Not, Supports, Believes, ForAll)):
        yield from _preorder(f.sub)


def _symbols(term):
    if isinstance(term, App):
        return _symbols(term.left) | _symbols(term.right)
    return {term_name(term)}


def _free(f, bound=frozenset()):
    if isinstance(f, Letter):
        return set()
    if isinstance(f, (Not, Believes)):
        return _free(f.sub, bound)
    if isinstance(f, Or):
        return _free(f.left, bound) | _free(f.right, bound)
    if isinstance(f, Supports):
        return (_symbols(f.reason) - bound) | _free(f.sub, bound)
    if isinstance(f, Adequate):
        return _symbols(f.reason) - bound
    if isinstance(f, Eq):
        return (_symbols(f.left) | _symbols(f.right)) - bound
    return _free(f.sub, bound | {f.var})


def three_walk_check(formula, cfg):
    if cfg.app:
        raise AppSemanticsUndefined("the App variant has no model semantics")
    for sub in _preorder(formula):
        if isinstance(sub, (Supports, Adequate)) and isinstance(sub.reason, App):
            raise AppSemanticsUndefined(
                "compound reason terms have no satisfaction clause"
            )
        if isinstance(sub, (ForAll, Eq)) and not cfg.quantified:
            raise UnknownSymbol(
                "quantifiers and equations live in the quantified theories"
            )
        if isinstance(sub, Eq) and (
            isinstance(sub.left, App) or isinstance(sub.right, App)
        ):
            raise AppSemanticsUndefined(
                "compound reason terms have no satisfaction clause"
            )
    letters = {f.name for f in _preorder(formula) if isinstance(f, Letter)}
    bad_letter = letters - set(cfg.letters)
    if bad_letter:
        raise UnknownSymbol(f"undeclared letter {sorted(bad_letter)[0]!r}")
    bad_reason = _free(formula) - set(cfg.reasons)
    if bad_reason:
        raise UnknownSymbol(f"undeclared reason {sorted(bad_reason)[0]!r}")


def _outcome(check, formula, cfg):
    try:
        check(formula, cfg)
    except (UnknownSymbol, AppSemanticsUndefined) as exc:
        return type(exc), str(exc)
    return None


def _wild_formula(rng, depth):
    """A formula that may leave any theory's language, in every way at once.

    Names mix declared reasons, undeclared ones and sigma; binders reuse
    declared and undeclared names; App terms appear in every reason position
    and equations appear whatever the theory.
    """

    def term():
        if rng.random() < 0.08:
            return App(atom_term(rng.choice("rt")), atom_term(rng.choice("sz")))
        return atom_term(rng.choice(("r", "s", "t", "z", "sigma")))

    leaf = rng.random()
    if depth == 0 or leaf < 0.15:
        return Letter(rng.choice("pqpqm")) if leaf < 0.1 else Adequate(term())
    roll = rng.random()
    if roll < 0.15:
        return Not(_wild_formula(rng, depth - 1))
    if roll < 0.45:
        return Or(_wild_formula(rng, depth - 1), _wild_formula(rng, depth - 1))
    if roll < 0.6:
        return Supports(term(), _wild_formula(rng, depth - 1))
    if roll < 0.7:
        return Believes(_wild_formula(rng, depth - 1))
    if roll < 0.78:
        return Eq(term(), term())
    return ForAll(rng.choice(("r", "s", "t", "z", "u")), _wild_formula(rng, depth - 1))


def test_language_check_matches_the_three_walk_oracle():
    rng = random.Random(20261018)
    configs = [
        TheoryConfig.from_name(name, ("r", "s"), ("p", "q"))
        for name in ("RBB", "QRBB", "QRBBs+", "RBB+App")
    ]
    verdicts = collections.Counter()
    for _ in range(10000):
        formula = _wild_formula(rng, rng.randint(1, 6))
        for cfg in configs:
            expected = _outcome(three_walk_check, formula, cfg)
            assert _outcome(ensure_in_language, formula, cfg) == expected, formula
            # The message without the symbol it names, or None when accepted.
            verdicts[expected and expected[1].partition(" '")[0]] += 1
    # All six verdicts are common, so a change of precedence shows.
    assert len(verdicts) == 6 and min(verdicts.values()) > 500, verdicts


def _checked_then_evaluated(model, formula, cfg):
    """The two walks the public functions made before: the language check,
    then evaluation over every declared name, a missing relation refused."""
    ensure_in_language(formula, cfg)
    n, letters, rows, diag, families = model._masks
    declared = {p: letters.get(p, 0) for p in cfg.letters}
    try:
        mask = _ModelCtx(cfg, n, declared, rows, diag, families).extension(formula)
    except KeyError as exc:
        raise UnknownReason(f"model has no relation entry for {exc.args[0]!r}") from None
    return frozenset(w for i, w in enumerate(model.worlds) if mask >> i & 1)


def _answer(call, *args):
    try:
        return call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_one_walk_answers_as_the_check_then_the_walk():
    # r is related, z is related but undeclared, and s is declared but
    # has no relation, so every way a walk can stop is reachable.
    model = make_model(
        ["w0", "w1"],
        {"r": [("w0", "w1"), ("w1", "w1")], "z": [("w0", "w0")]},
        {"w0": [["w1"], ["w0", "w1"]], "w1": [["w1"]]},
        {"w1": ["p"], "w0": ["m"]},
    )
    rng = random.Random(20261018)
    configs = [
        TheoryConfig.from_name(name, ("r", "s"), ("p", "q"))
        for name in ("RBB", "QRBB", "QRBBs+", "RBB+App")
    ]
    answers = collections.Counter()
    for _ in range(3000):
        formula = _wild_formula(rng, rng.randint(1, 6))
        for cfg in configs:
            expected = _answer(_checked_then_evaluated, model, formula, cfg)
            assert _answer(extension, model, formula, cfg) == expected, (formula, cfg.name)
            at_w1 = expected if isinstance(expected, tuple) else "w1" in expected
            assert _answer(satisfies, model, "w1", formula, cfg) == at_w1, (formula, cfg.name)
            answers[type(expected) if isinstance(expected, frozenset) else expected[0]] += 1
    # Answers, refusals of the language and missing relations all occur.
    assert answers.keys() == {
        frozenset, UnknownSymbol, AppSemanticsUndefined, UnknownReason
    }, answers


M = Letter("m")


@pytest.mark.parametrize(
    "formula",
    [
        # No name is free for x, so no instance visits the body.
        ForAll("x", rbb.syntax.conj(
            ForAll("r", Supports(atom_term("x"), P)),
            ForAll("s", Supports(atom_term("x"), P)),
            M,
        )),
        # r:p fails at both worlds, so the quantifier's conjunction is empty
        # after its first instance.
        rbb.syntax.conj(ForAll("x", Supports(atom_term("x"), P)), M),
        ForAll("x", rbb.syntax.conj(Supports(atom_term("x"), P), M)),
        # Too deep for the evaluator's recursion; the language check is not.
        rbb.syntax.conj(*[P] * 5000, M),
    ],
    ids=["no-instance", "after-the-exit", "inside-the-exit", "5001-conjuncts"],
)
def test_an_undeclared_letter_is_found_wherever_the_walk_stops(formula):
    model = make_model(
        ["w0", "w1"],
        {"r": [("w0", "w0"), ("w1", "w0")], "s": [("w0", "w1")]},
        valuation={"w1": ["p"]},
    )
    cfg = TheoryConfig.from_name("QRBB", ("r", "s"), ("p",))
    for call, args in ((satisfies, (model, "w0")), (extension, (model,))):
        with pytest.raises(UnknownSymbol) as refused:
            call(*args, formula, cfg)
        assert str(refused.value) == "undeclared letter 'm'"


def test_evaluation_requires_declared_relations():
    m = make_model(["w0"], {"r": []})
    with pytest.raises(UnknownReason):
        satisfies(m, "w0", Adequate(S), BASE)
    with pytest.raises(UnknownWorld):
        satisfies(m, "nowhere", P, BASE)


# -- construction and serialization -----------------------------------------


def test_make_model_normalizes_and_validates():
    with pytest.raises(ValueError):
        make_model([], {})
    with pytest.raises(ValueError):
        make_model(["w0", "w0"], {})
    with pytest.raises(ValueError):
        make_model(["w0"], {"r": [("w0", "w9")]})
    with pytest.raises(ValueError):
        make_model(["w0"], {}, {"w9": []})
    with pytest.raises(ValueError, match="neighborhood of 'w0' contains unknown worlds"):
        make_model(["w0"], {}, {"w0": [["w0"], ["w9"]]})
    with pytest.raises(ValueError, match="valuation entry for unknown world 'w9'"):
        make_model(["w0"], {}, valuation={"w9": ["p"]})
    m = make_model(["w0", "w1"], {"r": []})
    assert m.neighborhoods["w1"] == frozenset()
    assert m.valuation["w1"] == frozenset()


# Arguments to make_model where names, or a mapping keyed by names, are
# wanted but something else is given, with the field each error must name.
# A str would be read as its characters and a mapping as its keys, which
# name worlds and letters here.
NOT_NAMES = {
    "pair-string": ((["a", "b"], {"r": ["ab"]}), "access"),
    "pair-mapping": ((["a", "b"], {"r": [{"a": 1, "b": 2}]}), "access"),
    "pair-number": ((["a", "b"], {"r": [1]}), "access"),
    "pairs-string": ((["a", "b"], {"r": "ab"}), "access"),
    "member-string": ((["a", "b"], {}, {"a": ["ab"]}), "neighborhoods"),
    "member-mapping": ((["a", "b"], {}, {"a": [{"a": 1}]}), "neighborhoods"),
    "family-string": ((["a", "b"], {}, {"a": "ab"}), "neighborhoods"),
    "letters-string": ((["a", "b"], {}, None, {"a": "pq"}), "valuation"),
    "letters-mapping": ((["a", "b"], {}, None, {"a": {"p": 1}}), "valuation"),
    "letter-number": ((["a", "b"], {}, None, {"a": ["p", 1]}), "valuation"),
    "worlds-string": (("ab", {}), "worlds"),
    "worlds-mapping": (({"a": 1, "b": 2}, {}), "worlds"),
    "world-number": ((["a", 0], {}), "worlds"),
    "worlds-none": ((None, {}), "worlds"),
    # A field that is not a mapping: None reads as empty except for access.
    "access-list": ((["a"], ["r"]), "access"),
    "access-none": ((["a"], None), "access"),
    "neighborhoods-list": ((["a"], {}, ["a"]), "neighborhoods"),
    "neighborhoods-empty-list": ((["a"], {}, []), "neighborhoods"),
    "valuation-pairs": ((["a"], {}, None, [("a", ["p"])]), "valuation"),
    # 5 is not "5", which alone could name the reason a formula reads.
    "reason-number": ((["a"], {5: [("a", "a")]}), "access"),
}


@pytest.mark.parametrize("kind", sorted(NOT_NAMES))
def test_make_model_refuses_what_is_not_names(kind):
    args, field = NOT_NAMES[kind]
    with pytest.raises(ValueError, match=f"^model field '{field}'"):
        make_model(*args)


def test_make_model_reads_names_from_any_other_collection():
    loose = make_model(
        ("w0", "w1"),
        {"r": {("w0", "w1"), ("w1", "w1")}, "s": (pair for pair in [["w0", "w0"]])},
        {"w0": ({"w1"}, ("w0", "w1")), "w1": ()},
        {"w0": frozenset(), "w1": ("p",)},
    )
    assert loose == tiny()


def test_model_errors_do_not_echo_long_names():
    long = "z" * 5000
    m = tiny()
    calls = [
        lambda: satisfies(m, long, P, BASE),
        lambda: successors(m, "r", long),
        lambda: successors(m, long, "w0"),
        lambda: reflexive_worlds(m, long),
        lambda: model_to_doc(m, long),
        lambda: model_from_doc({**model_to_doc(m), "point": long}),
        lambda: make_model([long, long], {}),
        lambda: make_model(["w0"], {long: [["w0", long]]}),
        lambda: make_model(["w0"], {long: 5}),
        lambda: make_model(["w0"], {}, {long: []}),
        lambda: make_model(["w0"], {}, {"w0": [[long]]}),
        lambda: make_model(["w0"], {}, valuation={long: []}),
        lambda: make_model(["w0"], {}, valuation={long: 5}),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert len(str(info.value)) < 200, str(info.value)[:100]


def _value_paths(doc, path=()):
    """The path of every value in a JSON document, the document's own included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _value_paths(value, path + (key,))


# What a fuzzed model document's error must say for a fault in each field.
FIELD_WORDS = {
    "worlds": "worlds",
    "access": "access",
    "neighborhoods": "neighborhood",
    "valuation": "valuation",
    "point": "point",
}


def test_mutated_model_documents_are_read_or_refused_by_field(base_corpus):
    # Each round replaces one value of a valid document by a string, a
    # number, an object, null or a nested list.  The document must read,
    # or be refused with a ValueError that names a field: the mutated one,
    # unless the mutation renamed a world the other fields refer to.
    rng = random.Random(32)
    docs = [model_to_doc(m, m.worlds[-1]) for _, m in base_corpus[:20]]
    replacements = [
        "w0", "ab", "", 7, -1.5, True, {"w0": ["w0"]}, {}, None,
        [], [["w0"]], [["w0", "w1"]], [[["w0"]]], [[1, "w0"]], [{"w0": 1}],
    ]
    refused = 0
    for _ in range(3000):
        doc = deepcopy(rng.choice(docs))
        path = rng.choice(list(_value_paths(doc)))
        new = rng.choice(replacements)
        if not path:
            doc = new
        else:
            parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
            parent[path[-1]] = new
        try:
            model_from_doc(doc)
        except ValueError as exc:
            refused += 1
            message = str(exc)
            named = {f for f, word in FIELD_WORDS.items() if word in message}
            if not path:
                assert named or "JSON object" in message, (doc, message)
            elif path[0] == "worlds":
                assert named, (path, new, message)
            else:
                assert path[0] in named, (path, new, message)
    assert 0 < refused < 3000


def test_model_equality_ignores_input_order():
    a = make_model(
        ["w0", "w1"],
        {"r": [("w0", "w1"), ("w1", "w0")]},
        {"w0": [["w0", "w1"], ["w1"]]},
        {"w0": ["p", "q"]},
    )
    b = make_model(
        ["w0", "w1"],
        {"r": [("w1", "w0"), ("w0", "w1")]},
        {"w0": [["w1"], ["w1", "w0"]]},
        {"w0": ["q", "p"]},
    )
    assert a == b and hash(a) == hash(b)


@pytest.fixture
def mask_builds(monkeypatch):
    """The models whose bitmask encoding gets built, one entry per build."""
    builds = []
    encode = Model._masks.func

    def counted(model):
        builds.append(model)
        return encode(model)

    prop = functools.cached_property(counted)
    prop.__set_name__(Model, "_masks")
    monkeypatch.setattr(Model, "_masks", prop)
    return builds


def test_a_model_is_encoded_once(mask_builds):
    m = tiny()
    assert validate_model(m, BASE).ok
    for w in m.worlds:
        satisfies(m, w, Believes(P), BASE)
        satisfies(m, w, ForAll("t", Supports(atom_term("t"), P)), QUANT)
    assert extension(m, Supports(R, P), BASE) == {"w0", "w1"}
    assert mask_builds == [m]


def test_search_encodes_each_candidate_once(mask_builds):
    goals = [Believes(P), Not(Adequate(R)), Supports(S, Q)]
    found, _ = rbb.find_models(goals, BASE, rbb.SearchBounds(max_worlds=2), limit=3)
    assert len(found) == 3
    # Each re-checked candidate is encoded once, for validation and all goals.
    assert len(mask_builds) == len({id(m) for m in mask_builds}) >= 3


def test_an_encoded_model_still_compares_and_copies():
    m = tiny()
    goal = Or(Believes(P), Supports(S, Q))
    answers = [satisfies(m, w, goal, BASE) for w in m.worlds]
    assert "_masks" in vars(m)
    fresh = tiny()
    assert m == fresh and hash(m) == hash(fresh)
    for copy in (pickle.loads(pickle.dumps(m)), deepcopy(m)):
        assert copy == m and hash(copy) == hash(m)
        assert [satisfies(copy, w, goal, BASE) for w in m.worlds] == answers
        assert validate_model(copy, BASE) == validate_model(m, BASE)


def test_doc_round_trip_preserves_the_model(base_corpus):
    for cfg, model in base_corpus[:30]:
        doc = model_to_doc(model, model.worlds[0])
        back, point = model_from_doc(doc)
        assert back == model
        assert point == model.worlds[0]
    doc = model_to_doc(tiny())
    back, point = model_from_doc(doc)
    assert back == tiny() and point is None


def test_doc_with_unknown_point_is_refused():
    doc = model_to_doc(tiny(), "w0")
    doc["point"] = "w9"
    with pytest.raises(UnknownWorld):
        model_from_doc(doc)


def test_successors_and_reflexive_worlds():
    m = tiny()
    assert successors(m, "r", "w0") == {"w1"}
    assert reflexive_worlds(m, "r") == {"w1"}
    assert reflexive_worlds(m, "s") == {"w0"}


# -- frame-property validation ----------------------------------------------


def test_validation_accepts_the_corpus(base_corpus, sigma_plus_corpus):
    for cfg, model in base_corpus[:20] + sigma_plus_corpus[:20]:
        assert validate_model(model, cfg).ok


def test_d_violation_detected():
    m = make_model(
        ["w0", "w1"],
        {"r": [], "s": []},
        {"w0": [["w0"], ["w1"]]},
    )
    report = validate_model(m, BASE)
    assert any(v.prop == "d" for v in report.violations)


def test_rb_violation_detected():
    # r-degree believed but a superset of r(w0) is missing
    m = make_model(
        ["w0", "w1"],
        {"r": [("w0", "w0")], "s": []},
        {"w0": [["w0"]]},
    )
    report = validate_model(m, BASE)
    assert any(v.prop == "rb" for v in report.violations)


def _sigma_model(families, srow=None, rrow=()):
    pairs = srow if srow is not None else [("w0", "w0"), ("w1", "w1")]
    return make_model(
        ["w0", "w1"],
        {"r": list(rrow), "sigma": pairs},
        families,
        {},
    )


SIGMA_CFG = TheoryConfig.from_name("RBBs", ("r",), ("p",))


def test_mb_violation_detected():
    m = _sigma_model({"w0": [], "w1": []})
    report = validate_model(m, SIGMA_CFG)
    assert any(v.prop == "mb" for v in report.violations)


def test_ma_violation_detected():
    # r believed, sigma adequate at w0, but w0 not in r(w0)
    m = _sigma_model(
        {"w0": [["w0", "w1"], ["w1"]], "w1": [["w0", "w1"]]},
        rrow=[("w0", "w1"), ("w1", "w1")],
    )
    report = validate_model(m, SIGMA_CFG)
    assert any(v.prop == "ma" for v in report.violations)


def test_mr_violation_detected():
    # r believed with r(w0) = {w0}, but sigma(w0) = {w0, w1} is not covered
    m = _sigma_model(
        {"w0": [["w0", "w1"], ["w0"]], "w1": [["w0", "w1"]]},
        srow=[("w0", "w0"), ("w0", "w1"), ("w1", "w1")],
        rrow=[("w0", "w0"), ("w1", "w1")],
    )
    report = validate_model(m, SIGMA_CFG)
    assert any(v.prop == "mr" for v in report.violations)


def test_mt_violation_detected():
    plus = TheoryConfig.from_name("RBBs+", ("r",), ("p",))
    m = _sigma_model(
        {"w0": [["w0", "w1"], ["w1"]], "w1": [["w0", "w1"]]},
        rrow=[("w0", "w1"), ("w1", "w1")],
    )
    report = validate_model(m, plus)
    assert any(v.prop == "mt" for v in report.violations)


def frame_faults(model, cfg):
    """Direct transcription of the frame conditions, sets not bitmasks.

    One ``(prop, world, reasons)`` entry per violation `validate_model`
    reports: (d) once per ordered pair of complementary believed sets, the
    subset conditions (rb), (mr) and (mt) at most once per world and reason.
    """
    out = []
    everything = frozenset(model.worlds)
    subsets = [
        frozenset(c)
        for k in range(len(model.worlds) + 1)
        for c in itertools.combinations(model.worlds, k)
    ]
    degree = {r: reflexive_worlds(model, r) for r in cfg.reasons}
    for w in model.worlds:
        family = model.neighborhoods[w]
        settles = {r: successors(model, r, w) for r in cfg.reasons}
        for x in sorted(set(cfg.letters) & set(cfg.reasons)):
            if (x in model.valuation[w]) != (w in settles[x]):
                out.append(("pr", w, (x,)))
        for x in family:
            if everything - x in family:
                out.append(("d", w, ()))
        believed = [r for r in sorted(cfg.reasons) if degree[r] in family]
        for r in believed:
            if any(settles[r] <= x and x not in family for x in subsets):
                out.append(("rb", w, (r,)))
        if not cfg.sigma:
            continue
        master = settles["sigma"]
        if "sigma" not in believed:
            out.append(("mb", w, ("sigma",)))
        for r in believed:
            if r == "sigma":
                continue
            if w in master and w not in settles[r]:
                out.append(("ma", w, (r,)))
            if any(settles[r] <= x and not master <= x for x in subsets):
                out.append(("mr", w, (r,)))
        if cfg.sigma_plus and any(not master <= x for x in family):
            out.append(("mt", w, ("sigma",)))
    return out


#: sha256 of the frame-oracle corpus's violations as the reports list them.
DIGEST = "67ee5c05da38fbc443e6b3ad071582a61df8537c71fed138f1f268e5fdf53058"


def test_validation_agrees_with_the_set_based_frame_oracle():
    # Every model with reasons r and sigma on at most two worlds (up to the
    # w0/w1 relabeling), judged under RBBs and RBBs+.  The counts are pinned
    # so that a shrinking space cannot pass as agreement.
    sigma = TheoryConfig.from_name("RBBs", ("r",), ("p",))
    plus = TheoryConfig.from_name("RBBs+", ("r",), ("p",))

    def relabel(k, image):
        # Bit j of k moves to bit image[j].
        return sum(1 << image[j] for j in range(len(image)) if k >> j & 1)

    validated = collections.Counter()
    canonical = 0
    listed = hashlib.sha256()  # every report's violations, in report order
    for n in (1, 2):
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = list(itertools.product(range(n), repeat=2))
        sets = range(1 << n)
        relations = [
            frozenset(
                (worlds[a], worlds[b]) for j, (a, b) in enumerate(pairs) if k >> j & 1
            )
            for k in range(1 << len(pairs))
        ]
        families = [
            frozenset(
                frozenset(w for j, w in enumerate(worlds) if x >> j & 1)
                for x in sets
                if k >> x & 1
            )
            for k in range(1 << len(sets))
        ]
        # The swap of w0 and w1 (the identity on one world), on relation
        # and family indices.
        swap_pairs = [pairs.index((n - 1 - a, n - 1 - b)) for a, b in pairs]
        swap_sets = [relabel(x, range(n - 1, -1, -1)) for x in sets]
        swap_rel = [relabel(k, swap_pairs) for k in range(len(relations))]
        swap_fam = [relabel(k, swap_sets) for k in range(len(families))]
        space = itertools.product(
            range(len(relations)), range(len(relations)),
            *[range(len(families))] * n,
        )
        for key in space:
            r, s, *fams = key
            mirror = (swap_rel[r], swap_rel[s], *(swap_fam[f] for f in fams[::-1]))
            if mirror < key:
                continue
            canonical += 1
            model = Model(
                worlds,
                {"r": relations[r], "sigma": relations[s]},
                {w: families[f] for w, f in zip(worlds, fams)},
                {w: frozenset() for w in worlds},
            )
            for cfg in (sigma, plus):
                report = validate_model(model, cfg)
                ok = report.ok  # builds at most the first violation
                assert ok == (not report.violations)
                for v in report.violations:
                    sets = [sorted(x) for x in v.sets]
                    listed.update(repr((v.prop, v.world, v.reasons, sets, v.detail)).encode())
                got = collections.Counter(
                    (v.prop, v.world, v.reasons) for v in report.violations
                )
                assert got == collections.Counter(frame_faults(model, cfg)), (
                    model, cfg.name
                )
                validated[cfg.name] += ok
    assert canonical == 16 + 32896
    assert validated == {"RBBs": 117, "RBBs+": 46}
    # The reports, read for ``ok`` first, list what the eager reports of
    # earlier versions listed, in the same order.
    assert listed.hexdigest() == DIGEST


def test_a_model_in_the_class_is_known_at_its_first_fault(monkeypatch):
    # (d) breaks at w0 and at w1, yet asking only whether the model is in
    # the class builds the first violation alone.
    m = make_model(
        ["w0", "w1"], {"r": [], "s": []}, {"w0": [["w0"], ["w1"]], "w1": [["w0"], ["w1"]]}
    )
    built = []

    def counted(*args):
        built.append(args[:2])
        return Violation(*args)

    monkeypatch.setattr(rbb.semantics, "Violation", counted)
    report = validate_model(m, BASE)
    assert not report.ok and built == [("d", "w0")]
    assert {v.world for v in report.violations} == {"w0", "w1"}
    assert len(built) == len(report.violations) == 4


def test_a_report_behaves_as_the_frozen_record_it_was():
    empty = PropertyReport(())
    assert empty.ok and empty.violations == () and empty == PropertyReport()
    assert repr(empty) == "PropertyReport(violations=())" and hash(empty) == hash(((),))
    m = make_model(["w0", "w1"], {"r": [], "s": []}, {"w0": [["w0"], ["w1"]]})
    for report in (validate_model(m, BASE), check_rc(_DISJOINT)):
        assert not report.ok
        faults = report.violations
        assert faults and report.violations is faults
        assert repr(report) == f"PropertyReport(violations={faults!r})"
        assert hash(report) == hash((faults,))
        assert report == PropertyReport(faults) and report != PropertyReport(faults[1:])
        assert report != faults and report.__eq__(faults) is NotImplemented
        for copy in (pickle.loads(pickle.dumps(report)), deepcopy(report)):
            assert type(copy) is PropertyReport and copy == report
            assert copy.violations == faults and not copy.ok
    # A report read only for ``ok`` still compares, hashes and copies whole.
    partial = validate_model(m, BASE)
    assert not partial.ok and partial == validate_model(m, BASE)
    assert pickle.loads(pickle.dumps(validate_model(m, BASE))) == partial
    assert check_rc(tiny()) == empty and hash(check_rc(tiny())) == hash(empty)


def test_validation_reports_letter_reason_mismatch_as_pr():
    shared = TheoryConfig.from_name("RBB", ("r", "p"), ("p",), allow_overlap=True)
    m = make_model(
        ["w0", "w1"],
        {"r": [], "p": [("w0", "w0")]},
        valuation={"w1": ["p"]},
    )
    report = validate_model(m, shared)
    assert [(v.prop, v.world, v.reasons) for v in report.violations] == [
        ("pr", "w0", ("p",)),
        ("pr", "w1", ("p",)),
    ]
    assert report.violations[0].detail == (
        "'p' is not true at 'w0' but 'w0' is in p(w0)"
    )
    assert collections.Counter(frame_faults(m, shared)) == collections.Counter(
        (v.prop, v.world, v.reasons) for v in report.violations
    )


def test_validation_caps_world_count():
    worlds = [f"w{i}" for i in range(MAX_VALIDATION_WORLDS + 1)]
    m = make_model(worlds, {"r": []})
    with pytest.raises(ValueError):
        validate_model(m, TheoryConfig.from_name("RBB", ("r",), ("p",)))


def test_rc_clean_on_validated_models(base_corpus):
    for cfg, model in base_corpus[:40]:
        assert check_rc(model).ok


# Both degrees believed yet the successor sets are disjoint; such a model
# never validates, which is the point of the derived check.
_DISJOINT = make_model(
    ["w0", "w1"],
    {"r": [("w0", "w0")], "s": [("w0", "w1"), ("w1", "w1")]},
    {"w0": [["w0"], ["w1"]]},
)


def test_rc_reports_disjoint_believed_reasons():
    assert not validate_model(_DISJOINT, BASE).ok
    assert any(v.prop == "rc" for v in check_rc(_DISJOINT).violations)


def rc_oracle(model):
    """check_rc's definition, read from the access pairs as sets."""
    report = []
    reasons = sorted(model.access)
    for w in model.worlds:
        family = model.neighborhoods[w]
        believed = [r for r in reasons if reflexive_worlds(model, r) in family]
        for pos, r in enumerate(believed):
            for s in believed[pos:]:
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
    return tuple(report)


def _unchecked_model(rng):
    """A model on one to three worlds with random relations and families,
    most of which break the frame conditions."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 3))]
    subsets = [
        [w for j, w in enumerate(worlds) if k >> j & 1] for k in range(1 << len(worlds))
    ]
    pairs = list(itertools.product(worlds, repeat=2))
    return make_model(
        worlds,
        {r: [pair for pair in pairs if rng.random() < 0.3] for r in ("r", "s", "t")},
        {w: [x for x in subsets if rng.random() < 0.4] for w in worlds},
    )


def test_rc_matches_its_set_based_definition(base_corpus):
    assert all(check_rc(m).violations == rc_oracle(m) for _, m in base_corpus)
    assert check_rc(_DISJOINT).violations == rc_oracle(_DISJOINT)
    rng = random.Random(20261021)
    reported = collections.Counter()
    for _ in range(600):
        model = _unchecked_model(rng)
        assert check_rc(model).violations == rc_oracle(model), model
        for v in check_rc(model).violations:
            reported["r = s, r(w) empty" if v.reasons[0] == v.reasons[1] else "r != s"] += 1
    # Both kinds of violation are common, so the comparison is not vacuous.
    assert min(reported.values()) > 100 and len(reported) == 2, reported
