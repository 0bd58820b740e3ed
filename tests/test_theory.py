import hashlib
import itertools
import random

import pytest

from corpus import axiom_instance, class_config, random_quantifier
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
    Supports,
    as_implies,
    atom_term,
    disj,
    impl,
    is_free_for,
    substitute,
)
from rbb.theory import (
    SchemeId,
    SkeletonTooLarge,
    TheoryConfig,
    _is_ui,
    _skeleton_atoms,
    is_tautology_instance,
    match_axiom,
)

P, Q = Letter("p"), Letter("q")
R, S = atom_term("r"), atom_term("s")


# -- configuration ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,quantified,sigma,sigma_plus,app",
    [
        ("RBB", False, False, False, False),
        ("RBBs", False, True, False, False),
        ("RBBs+", False, True, True, False),
        ("QRBB", True, False, False, False),
        ("QRBBs", True, True, False, False),
        ("QRBBs+", True, True, True, False),
        ("RBB+App", False, False, False, True),
    ],
)
def test_from_name_flags(name, quantified, sigma, sigma_plus, app):
    cfg = TheoryConfig.from_name(name, ("r", "s"), ("p", "q"))
    assert (cfg.quantified, cfg.sigma, cfg.sigma_plus, cfg.app) == (
        quantified,
        sigma,
        sigma_plus,
        app,
    )
    assert cfg.name == name


def test_sigma_theories_get_the_master_reason_appended():
    cfg = TheoryConfig.from_name("RBBs", ("r", "s"), ("p",))
    assert cfg.reasons == ("r", "s", "sigma")
    assert cfg.basic_reasons == ("r", "s")


def test_unknown_theory_name():
    with pytest.raises(ValueError):
        TheoryConfig.from_name("RBB++", ("r",), ("p",))


def test_sigma_plus_requires_sigma():
    with pytest.raises(ValueError):
        TheoryConfig(reasons=("r",), letters=("p",), sigma_plus=True)


def test_app_excludes_other_variants():
    with pytest.raises(ValueError):
        TheoryConfig(reasons=("r",), letters=("p",), app=True, quantified=True)


def test_sigma_cannot_be_a_letter():
    with pytest.raises(ValueError):
        TheoryConfig.from_name("RBB", ("r",), ("sigma",))


def test_reserved_words_are_not_names():
    with pytest.raises(ValueError):
        TheoryConfig.from_name("RBB", ("B",), ("p",))


def test_overlap_needs_the_flag():
    with pytest.raises(ValueError):
        TheoryConfig.from_name("RBB", ("r", "p"), ("p",))
    cfg = TheoryConfig.from_name("RBB", ("r", "p"), ("p",), allow_overlap=True)
    assert "p" in cfg.reasons and "p" in cfg.letters


def test_doc_round_trip_every_theory():
    for name in ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+", "RBB+App"):
        cfg = TheoryConfig.from_name(name, ("r", "s"), ("p", "q"))
        assert TheoryConfig.from_doc(cfg.to_doc()) == cfg


def test_scheme_sets_grow_with_the_theory():
    base = TheoryConfig.from_name("RBB", ("r",), ("p",)).schemes
    sigma = TheoryConfig.from_name("RBBs", ("r",), ("p",)).schemes
    plus = TheoryConfig.from_name("RBBs+", ("r",), ("p",)).schemes
    quant = TheoryConfig.from_name("QRBB", ("r",), ("p",)).schemes
    assert base < sigma < plus
    assert SchemeId.MT in plus and SchemeId.MT not in sigma
    assert {SchemeId.UD, SchemeId.UI, SchemeId.EP, SchemeId.EN} <= quant
    app = TheoryConfig.from_name("RBB+App", ("r",), ("p",)).schemes
    assert SchemeId.APP in app and SchemeId.RK not in app


# -- tautology recognition --------------------------------------------------


def test_tautologies_over_modal_atoms():
    assert is_tautology_instance(impl(P, P))
    assert is_tautology_instance(disj(Believes(P), Not(Believes(P))))
    assert is_tautology_instance(impl(Supports(R, P), Supports(R, P)))


def test_non_tautologies():
    assert not is_tautology_instance(impl(P, Q))
    # structurally different atoms stay opaque even when equivalent
    assert not is_tautology_instance(impl(Believes(Not(Not(P))), Believes(P)))


def test_skeleton_cap():
    # seventeen distinct opaque atoms push past the truth-table cap
    distinct = P
    for i in range(17):
        distinct = Or(distinct, Supports(R, disj(*([P] * (i + 1)))))
    with pytest.raises(SkeletonTooLarge):
        is_tautology_instance(distinct)


def _row_oracle(formula):
    """(CL) by evaluating the skeleton once per truth-table row, and its atoms
    in order of first occurrence."""
    atoms = {}

    def source(f):
        if isinstance(f, Not):
            return f"(not {source(f.sub)})"
        if isinstance(f, Or):
            return f"({source(f.left)} or {source(f.right)})"
        return f"row[{atoms.setdefault(f, len(atoms))}]"

    value = eval(f"lambda row: {source(formula)}")
    rows = itertools.product((False, True), repeat=len(atoms))
    return all(value(row) for row in rows), list(atoms)


# Opaque atoms, each built afresh on every call, so that repeated draws are
# structurally equal but distinct objects.
_ATOMS = [
    lambda i: Letter(f"p{i}"),
    lambda i: Believes(disj(Letter(f"p{i}"), Not(P))),
    lambda i: Supports(R, Letter(f"p{i}")),
    lambda i: Adequate(atom_term(f"r{i}")),
]


def _random_skeleton(rng, k):
    """A random Not/Or skeleton over exactly k atoms, some drawn twice."""
    kinds = [rng.choice(_ATOMS) for _ in range(k)]
    picks = list(range(k)) + [rng.randrange(k) for _ in range(rng.randint(0, k))]
    rng.shuffle(picks)
    parts = [kinds[i](i) for i in picks]
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        parts.append(Or(a, b) if rng.random() < 0.7 else Not(Or(a, b)))
    top = parts[0]
    if rng.random() < 0.5:
        # A tautology over the same atoms: A | ~A, with A built twice.
        return Or(top, Not(_rebuilt(top)))
    return Not(top) if rng.random() < 0.3 else top


def _rebuilt(f):
    return type(f)(*(
        v if isinstance(v, str) else _rebuilt(v)
        for v in (getattr(f, name) for name in f.__match_args__)
    ))


def test_tautology_check_agrees_with_the_row_oracle():
    rng = random.Random(21)
    verdicts = {True: 0, False: 0}
    for case in range(160):
        k = case % 16 + 1
        f = _random_skeleton(rng, k)
        want, atoms = _row_oracle(f)
        assert len(atoms) == k and _skeleton_atoms(f) == atoms
        assert is_tautology_instance(f) == want, f
        verdicts[want] += 1
    assert min(verdicts.values()) > 40


def test_skeleton_cap_names_the_atom_count():
    atoms = [Supports(R, Letter(f"p{i}")) for i in range(17)]
    assert is_tautology_instance(disj(*atoms[:16], Not(atoms[0])))
    with pytest.raises(SkeletonTooLarge) as caught:
        is_tautology_instance(disj(*atoms, Not(atoms[0])))
    assert str(caught.value) == (
        "propositional skeleton has 17 atoms (cap 16); split the step into smaller pieces"
    )


def _rules(cfg):
    return {"MP", "RN", "E"} | ({"Gen"} if cfg.quantified else set())


def _old_extends(a, b):
    """``a.extends(b)`` as it read while configurations listed their rules."""
    return (
        b.schemes <= a.schemes
        and _rules(b) <= _rules(a)
        and b.app == a.app
        and set(b.reasons) <= set(a.reasons)
        and set(b.letters) <= set(a.letters)
    )


def test_extends_agrees_with_the_rule_listing_definition():
    cfgs = [
        TheoryConfig.from_name(name, reasons, letters)
        for name in ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+", "RBB+App")
        for reasons in (("r",), ("r", "s"))
        for letters in (("p",), ("p", "q"))
    ]
    verdicts = [a.extends(b) for a in cfgs for b in cfgs]
    assert len(verdicts) == 784
    assert verdicts == [_old_extends(a, b) for a in cfgs for b in cfgs]
    assert 0 < sum(verdicts) < 784


# -- scheme matching --------------------------------------------------------

BASE = TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q"))
SIGMA_T = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))
SIGMA_PLUS = TheoryConfig.from_name("RBBs+", ("r", "s"), ("p", "q"))
QUANT = TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q"))
APP_T = TheoryConfig.from_name("RBB+App", ("r", "s"), ("p", "q"))


def test_match_rk():
    f = impl(Supports(R, impl(P, Q)), impl(Supports(R, P), Supports(R, Q)))
    assert match_axiom(f, BASE) is SchemeId.RK
    # mixed reasons break the pattern
    g = impl(Supports(R, impl(P, Q)), impl(Supports(S, P), Supports(R, Q)))
    assert match_axiom(g, BASE) is None


def test_match_a():
    f = impl(Supports(R, P), impl(Adequate(R), P))
    assert match_axiom(f, BASE) is SchemeId.A


def test_match_rb():
    f = impl(Supports(R, P), impl(Believes(Adequate(R)), Believes(P)))
    assert match_axiom(f, BASE) is SchemeId.RB


def test_match_d():
    f = impl(Believes(P), Not(Believes(Not(P))))
    assert match_axiom(f, BASE) is SchemeId.D


def test_match_ud_side_condition():
    t = atom_term("t")
    good = impl(
        ForAll("t", impl(P, Supports(t, Q))), impl(P, ForAll("t", Supports(t, Q)))
    )
    assert match_axiom(good, QUANT) is SchemeId.UD
    # binder free in the antecedent voids the scheme
    bad = impl(
        ForAll("t", impl(Adequate(t), Supports(t, Q))),
        impl(Adequate(t), ForAll("t", Supports(t, Q))),
    )
    assert match_axiom(bad, QUANT) is None


def test_match_ui_over_the_declared_alphabet():
    t = atom_term("t")
    f = impl(ForAll("t", Supports(t, P)), Supports(R, P))
    assert match_axiom(f, QUANT) is SchemeId.UI
    undeclared = impl(ForAll("t", Supports(t, P)), Supports(atom_term("t0"), P))
    assert match_axiom(undeclared, QUANT) is None


def test_match_ep_en():
    assert match_axiom(Eq(R, R), QUANT) is SchemeId.EP
    assert match_axiom(Not(Eq(R, S)), QUANT) is SchemeId.EN
    assert match_axiom(Not(Eq(R, R)), QUANT) is None
    assert match_axiom(Eq(R, S), QUANT) is None


def test_match_sigma_schemes():
    ma = impl(Adequate(SIGMA), impl(Believes(Adequate(R)), Adequate(R)))
    mb = Believes(Adequate(SIGMA))
    mr = impl(
        Supports(R, P), impl(Believes(Adequate(R)), Supports(SIGMA, P))
    )
    mt = impl(Believes(P), Supports(SIGMA, P))
    assert match_axiom(ma, SIGMA_T) is SchemeId.MA
    assert match_axiom(mb, SIGMA_T) is SchemeId.MB
    assert match_axiom(mr, SIGMA_T) is SchemeId.MR
    assert match_axiom(mt, SIGMA_T) is None
    assert match_axiom(mt, SIGMA_PLUS) is SchemeId.MT


def test_match_app():
    f = impl(
        Supports(R, impl(P, Q)),
        impl(Supports(S, P), Supports(App(R, S), Q)),
    )
    assert match_axiom(f, APP_T) is SchemeId.APP
    assert match_axiom(f, BASE) is None


def test_disabled_schemes_never_match():
    quant_only = impl(ForAll("t", Supports(atom_term("t"), P)), Supports(R, P))
    assert match_axiom(quant_only, BASE) is None
    rk = impl(Supports(R, impl(P, Q)), impl(Supports(R, P), Supports(R, Q)))
    assert match_axiom(rk, APP_T) is None


def test_priority_prefers_cl():
    # an implication from a formula to itself is CL even when the formula
    # is Supports-shaped
    f = impl(Supports(R, P), Supports(R, P))
    assert match_axiom(f, BASE) is SchemeId.CL


def test_generated_instances_match_their_scheme():
    rng = random.Random(5)
    for name in ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+", "RBB+App"):
        cfg = class_config(name)
        for scheme in sorted(cfg.schemes, key=lambda s: s.value):
            hits = 0
            for _ in range(40):
                inst = axiom_instance(rng, scheme, cfg)
                if inst is None:
                    continue
                got = match_axiom(inst, cfg)
                assert got is not None, (name, scheme, inst)
                hits += 1
            assert hits > 0, (name, scheme)


THEORIES = ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+", "RBB+App")

# sha256 of the match_axiom results over the corpus below, frozen from the
# hand-written matchers that preceded the scheme templates.
MATCH_DIGEST = "3b73b1430603a279f5066a004fa0861d6660fb857c26c10fa819a0e5c420162a"


def _swap(f, a, b):
    """``f`` with the reason symbols a and b exchanged; None if that captures."""
    try:
        for old, new in ((a, "swap"), (b, a), ("swap", b)):
            f = substitute(f, old, new)
    except CaptureError:
        return None
    return f


def _near_misses(f):
    """Exchanges that break the agreement of reasons a scheme asks for.

    r and s are exchanged in the right disjunct only (the consequent of an
    implication), and sigma and r everywhere.
    """
    if isinstance(f, Or):
        right = _swap(f.right, "r", "s")
        yield None if right is None else Or(f.left, right)
    yield _swap(f, "sigma", "r")


def test_match_axiom_results_are_pinned():
    rng = random.Random(11)
    cfgs = [class_config(name) for name in THEORIES]
    corpus = []
    for cfg in cfgs:
        for scheme in sorted(cfg.schemes, key=lambda s: s.value):
            for _ in range(11):
                inst = axiom_instance(rng, scheme, cfg)
                if inst is not None:
                    corpus += [inst, *_near_misses(inst)]
    corpus = [f for f in corpus if f is not None]
    assert len(corpus) > 1800
    results = [match_axiom(f, cfg) for f in corpus for cfg in cfgs]
    assert {r for r in results if r is not None} == set(SchemeId)
    text = " ".join("-" if r is None else r.value for r in results)
    assert hashlib.sha256(text.encode()).hexdigest() == MATCH_DIGEST


def _is_ui_oracle(f, cfg):
    # The loop (UI) matching ran before quantifier instances had one owner.
    outer = as_implies(f)
    if outer is None or not isinstance(outer[0], ForAll):
        return False
    quant, rest = outer
    return any(
        is_free_for(cand, quant.var, quant.sub)
        and substitute(quant.sub, quant.var, cand) == rest
        for cand in cfg.reasons
    )


def _capturing_substitute(node, r, s):
    """``node`` with free ``r`` replaced by ``s``, captured or not."""
    if isinstance(node, Basic):
        return atom_term(s) if node.name == r else node
    if isinstance(node, ForAll) and node.var == r:
        return node
    return type(node)(*(
        v if isinstance(v, str) else _capturing_substitute(v, r, s)
        for v in (getattr(node, name) for name in node.__match_args__)
    ))


def test_ui_matching_agrees_with_the_instance_loop():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    blocked = 0
    for cfg in (QUANT, TheoryConfig.from_name("QRBBs", ("r", "s"), ("p",))):
        for _ in range(400):
            quant = random_quantifier(rng, cfg.reasons)
            body, var = quant.sub, quant.var
            blocked += sum(not is_free_for(name, var, body) for name in cfg.reasons)
            # True instances, blocked substituents forced through anyway,
            # and near misses: an undeclared name, a negated instance, the
            # body itself, a consequent that is no instance at all.
            rests = [_capturing_substitute(body, var, name) for name in cfg.reasons]
            rests += [Not(rest) for rest in rests]
            rests += [_capturing_substitute(body, var, "t9"), body, P]
            for rest in rests:
                f = impl(quant, rest)
                want = _is_ui_oracle(f, cfg)
                assert _is_ui(f, cfg) == want, f
                verdicts[want] += 1
            assert not _is_ui(impl(Not(quant), rests[0]), cfg)
    assert min(verdicts.values()) > 500 and blocked > 20
