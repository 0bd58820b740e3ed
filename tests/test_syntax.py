import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from corpus import class_config, random_formula, random_quantifier
from rbb.parser import parse, print_formula
from rbb.semantics import UnknownSymbol, ensure_in_language
from rbb.syntax import (
    SIGMA,
    App,
    Adequate,
    Basic,
    Believes,
    CaptureError,
    Eq,
    ForAll,
    Letter,
    Not,
    Or,
    Sigma,
    Supports,
    as_and,
    as_exists,
    as_iff,
    as_implies,
    as_neq,
    atom_term,
    conj,
    contains_app,
    disj,
    exists,
    formula_letters,
    free_reasons,
    iff,
    impl,
    instances,
    is_free_for,
    neq,
    subformulas,
    substitute,
    term_name,
    term_symbols,
)
from rbb.theory import TheoryConfig

P = Letter("p")
Q = Letter("q")
R = atom_term("r")
S = atom_term("s")


def test_sigma_is_a_singleton_value():
    assert Sigma() == SIGMA
    assert atom_term("sigma") is SIGMA
    assert term_name(SIGMA) == "sigma"


def test_basic_refuses_the_sigma_spelling():
    with pytest.raises(ValueError):
        Basic("sigma")


def test_atom_term_round_trip():
    assert term_name(atom_term("r")) == "r"
    assert atom_term("r") == Basic("r")


def test_term_symbols_flattens_app_compounds():
    compound = App(App(R, S), SIGMA)
    assert term_symbols(compound) == {"r", "s", "sigma"}
    assert contains_app(compound)
    assert not contains_app(R)


def test_impl_is_sugar_for_not_or():
    assert impl(P, Q) == Or(Not(P), Q)
    assert as_implies(impl(P, Q)) == (P, Q)
    assert as_implies(Or(P, Q)) is None


def test_conj_and_disj_fold_left():
    three = conj(P, Q, Letter("m"))
    assert as_and(three) == (conj(P, Q), Letter("m"))
    assert disj(P) == P
    with pytest.raises(ValueError):
        conj()


def test_iff_unfolds_to_both_directions():
    both = iff(P, Q)
    assert as_iff(both) == (P, Q)
    assert as_iff(conj(impl(P, Q), impl(P, Q))) is None


def test_exists_is_negated_universal():
    e = exists("t", Supports(atom_term("t"), P))
    var, body = as_exists(e)
    assert var == "t"
    assert body == Supports(atom_term("t"), P)


def test_neq_helpers():
    f = neq(R, S)
    assert f == Not(Eq(R, S))
    assert as_neq(f) == (R, S)
    assert as_neq(Eq(R, S)) is None


def test_subformulas_visits_every_node_once():
    f = impl(Supports(R, P), Believes(Adequate(R)))
    seen = list(subformulas(f))
    assert f in seen
    assert P in seen
    assert Believes(Adequate(R)) in seen
    assert len(seen) == len(set(seen))


def test_subformulas_is_preorder():
    f = Or(Not(P), Supports(R, ForAll("t", Q)))
    assert list(subformulas(f)) == [
        f, Not(P), P, Supports(R, ForAll("t", Q)), ForAll("t", Q), Q
    ]


def test_walks_answer_a_formula_of_10000_conjuncts():
    # Far deeper than the interpreter's recursion limit.
    deep = conj(*[P] * 9999, Supports(R, Adequate(S)))
    assert sum(1 for _ in subformulas(deep)) == 5 * 10_000 - 3
    assert formula_letters(deep) == {"p"}
    assert free_reasons(deep) == {"r", "s"}
    cfg = TheoryConfig.from_name("RBB", ("r", "s"), ("p",))
    ensure_in_language(deep, cfg)
    with pytest.raises(UnknownSymbol, match="undeclared letter 'q'"):
        ensure_in_language(Or(deep, Q), cfg)


def test_formula_letters_ignores_reasons():
    f = conj(Supports(R, P), Adequate(S), Q)
    assert formula_letters(f) == {"p", "q"}


def test_free_reasons_excludes_bound_occurrences():
    open_f = Supports(R, impl(P, Adequate(S)))
    assert free_reasons(open_f) == {"r", "s"}
    closed = ForAll("r", ForAll("s", open_f))
    assert free_reasons(closed) == frozenset()
    half = ForAll("r", open_f)
    assert free_reasons(half) == {"s"}


def test_is_free_for_detects_capture():
    # substituting s for r under a binder on s would capture
    trap = ForAll("s", Supports(R, Adequate(S)))
    assert not is_free_for("s", "r", trap)
    assert is_free_for("t0", "r", trap)
    # no free r under the binder, nothing to capture
    safe = ForAll("s", Supports(S, P))
    assert is_free_for("s", "r", safe)


def test_substitute_rewrites_free_occurrences_only():
    f = Or(Supports(R, P), ForAll("r", Supports(R, Q)))
    out = substitute(f, "r", "s")
    assert out == Or(Supports(S, P), ForAll("r", Supports(R, Q)))


def test_substitute_raises_on_capture():
    trap = ForAll("s", Supports(R, Adequate(S)))
    with pytest.raises(CaptureError):
        substitute(trap, "r", "s")


def test_substitute_leaves_letters_alone():
    # a letter spelled like the reason is a different symbol
    f = Or(Letter("r"), Adequate(R))
    assert substitute(f, "r", "s") == Or(Letter("r"), Adequate(S))


_CFG = class_config("QRBBs")


@st.composite
def formulas(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_formula(random.Random(seed), _CFG, depth=3)


@given(formulas())
def test_self_substitution_is_identity(f):
    for name in free_reasons(f):
        assert substitute(f, name, name) == f


@given(formulas())
def test_substitution_round_trip(f):
    fresh = "zz"
    bound = {sub.var for sub in subformulas(f) if isinstance(sub, ForAll)}
    assert fresh not in free_reasons(f) | bound
    for name in sorted(free_reasons(f) - {"sigma"}):
        if name in bound:
            continue
        there = substitute(f, name, fresh)
        assert name not in free_reasons(there)
        assert substitute(there, fresh, name) == f


@given(formulas())
def test_free_reasons_never_exceed_mentioned_symbols(f):
    mentioned = set()
    for sub in subformulas(f):
        if isinstance(sub, (Supports, Adequate)):
            mentioned |= term_symbols(sub.reason)
        elif isinstance(sub, Eq):
            mentioned |= term_symbols(sub.left) | term_symbols(sub.right)
    assert free_reasons(f) <= mentioned


# -- cached node hashes -------------------------------------------------------


def _declared(node):
    """The node's constructor fields, in order: the plain dataclass value."""
    return tuple(getattr(node, f.name) for f in dataclasses.fields(node) if f.init)


def _nodes(node):
    """The node and every node below it, reason terms included."""
    yield node
    for value in _declared(node):
        if not isinstance(value, str):
            yield from _nodes(value)


@given(formulas())
def test_cached_hash_is_the_dataclass_hash(f):
    for node in _nodes(Supports(App(R, SIGMA), f)):
        assert hash(node) == hash(_declared(node))
        assert "_hash" not in repr(node)
        assert not hasattr(node, "__dict__")


@given(formulas())
def test_rebuilt_formula_is_equal_with_the_same_hash(f):
    for copy in (parse(print_formula(f), _CFG), substitute(f, "r", "r")):
        assert copy == f and hash(copy) == hash(f)


@given(formulas())
def test_pickle_rebuilds_through_the_constructor(f):
    # The cached hash of a str field is valid only in the process that
    # computed it, so it must not travel in the pickle.
    assert f.__reduce__() == (type(f), _declared(f))
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f)


def test_each_formula_class_defines_its_own_hash():
    for cls in (Letter, Not, Or, Supports, Adequate, Believes, Eq, ForAll):
        assert "__hash__" in cls.__dict__


def test_binders_are_checked_before_hashing():
    for var in ("sigma", "A"):
        with pytest.raises(ValueError):
            ForAll(var, P)


def _instances_oracle(quantifier, names):
    # The comprehension the evaluator ran before `instances` owned it.
    return tuple(
        substitute(quantifier.sub, quantifier.var, name)
        for name in names
        if is_free_for(name, quantifier.var, quantifier.sub)
    )


def test_instances_match_the_substitution_oracle():
    rng = random.Random(10)
    alphabets = (("r", "s"), ("r", "s", "sigma"), ("s", "r", "u"))
    blocked = 0
    for _ in range(1500):
        names = rng.choice(alphabets)
        quantifier = random_quantifier(rng, names)
        want = _instances_oracle(quantifier, names)
        # A fresh computation, a cache hit, and an equal but separate key.
        copy = pickle.loads(pickle.dumps(quantifier))
        for key in (quantifier, quantifier, copy):
            assert instances(key, names) == want, quantifier
        blocked += len(want) < len(names)
    assert blocked > 100


def test_instances_are_cached_in_a_bounded_cache():
    assert instances.cache_info().maxsize is not None


# -- one-walk substitution ----------------------------------------------------


def _formula_children(f):
    if isinstance(f, Or):
        return (f.left, f.right)
    if isinstance(f, (Not, Supports, Believes, ForAll)):
        return (f.sub,)
    return ()


def _assert_shared(before, after, r):
    """Every subtree of ``before`` without a free ``r`` is in ``after`` as is."""
    stack = [(before, after)]
    while stack:
        old, new = stack.pop()
        if r not in free_reasons(old):
            assert new is old, (old, new)
            continue
        assert type(new) is type(old) and new is not old
        stack.extend(zip(_formula_children(old), _formula_children(new)))


def _corpus(seed, count):
    """Seeded QRBBs formulas, and quantifiers whose binders reuse declared names."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_formula(rng, _CFG, depth=4)
        yield random_quantifier(rng, _CFG.reasons, depth=4)


def test_substitution_shares_every_untouched_subtree():
    names = _CFG.reasons + ("u", "zz")
    replaced = 0
    for f in _corpus(20, 300):
        for r in names:
            assert substitute(f, r, r) is f
            out = substitute(f, r, "zz")  # no binder on zz, so no capture
            _assert_shared(f, out, r)
            replaced += out is not f
    assert replaced > 300


def test_instances_share_the_body():
    rng = random.Random(21)
    names = _CFG.reasons
    for _ in range(300):
        quantifier = random_quantifier(rng, names, depth=4)
        body, var = quantifier.sub, quantifier.var
        free = [name for name in names if is_free_for(name, var, body)]
        # Uncached: a cached entry shares the body of an equal, earlier key.
        got = instances.__wrapped__(quantifier, names)
        assert len(got) == len(free)
        for name, inst in zip(free, got):
            if name != var:
                _assert_shared(body, inst, var)


def test_substitute_raises_exactly_when_not_free_for():
    names = _CFG.reasons + ("u", "v", "t9")
    captured = 0
    for f in _corpus(22, 300):
        for r in names:
            for s in names:
                try:
                    substitute(f, r, s)
                except CaptureError:
                    assert not is_free_for(s, r, f), (f, r, s)
                    captured += 1
                else:
                    assert is_free_for(s, r, f), (f, r, s)
    assert captured > 100


def _is_free_for_recursive(s, r, formula):
    """The recursive definition, kept as the oracle of the iterative walk."""
    if isinstance(formula, (Letter, Adequate, Eq)):
        return True
    if isinstance(formula, Or):
        return _is_free_for_recursive(s, r, formula.left) and _is_free_for_recursive(
            s, r, formula.right
        )
    if isinstance(formula, ForAll) and formula.var == r:
        return True
    if isinstance(formula, ForAll) and formula.var == s:
        return r not in free_reasons(formula.sub)
    return _is_free_for_recursive(s, r, formula.sub)


def test_is_free_for_agrees_with_the_recursive_definition():
    names = _CFG.reasons + ("u", "v", "t9")
    captured = 0
    for f in _corpus(23, 300):
        for r in names:
            for s in names:
                want = _is_free_for_recursive(s, r, f)
                assert is_free_for(s, r, f) == want, (f, r, s)
                captured += not want
    assert captured > 100


def test_is_free_for_needs_no_recursion():
    body = conj(*[Adequate(atom_term("t"))] * 10_000)
    assert is_free_for("r", "t", body)
    assert not is_free_for("r", "t", ForAll("r", body))
    # The capture sits under 10,000 conjunctions.
    assert not is_free_for("r", "t", conj(*[P] * 10_000, ForAll("r", Adequate(atom_term("t")))))
    with pytest.raises(RecursionError):
        _is_free_for_recursive("r", "t", body)


# -- iterative equality -------------------------------------------------------


def test_equality_of_deep_formulas_needs_no_recursion():
    text = " & ".join(["p"] * 10_000)
    first, second = parse(text, _CFG), parse(text, _CFG)
    assert first is not second and first == second
    assert {first: "found"}[second] == "found"
    changed = parse(" & ".join(["p"] * 5_000 + ["q"] + ["p"] * 4_999), _CFG)
    assert first != changed and changed != first


def test_equality_with_other_objects_is_left_to_them():
    assert P.__eq__("p") is NotImplemented
    assert P != "p" and P != Not(P) and Adequate(R) != Adequate(S)
