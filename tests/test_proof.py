import hashlib
import json

import pytest

from rbb.library import derived_library
from rbb.proof import (
    ACCEPTED,
    Axiom,
    Cite,
    E,
    Gen,
    MP,
    Proof,
    ProofStep,
    RN,
    Theorem,
    TheoryMismatch,
    UnknownCitation,
    Verdict,
    check_proof,
    proof_from_doc,
    proof_to_doc,
)
from rbb.semantics import extension
from rbb.syntax import (
    Adequate,
    App,
    Believes,
    ForAll,
    Letter,
    Not,
    Supports,
    atom_term,
    iff,
    impl,
)
from rbb.theory import SchemeId, TheoryConfig

BASE = TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q"))
QUANT = TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q"))

P, Q = Letter("p"), Letter("q")
R = atom_term("r")


def steps(*pairs):
    return tuple(
        ProofStep(i, f, j) for i, (f, j) in enumerate(pairs, start=1)
    )


def test_minimal_mp_proof():
    # p -> p from the K-style axioms would need three steps; a tautology
    # instance plus MP over another tautology keeps it at three
    a = impl(P, impl(P, P))
    b = impl(a, impl(Q, a))
    proof = Proof(
        BASE,
        "tiny",
        impl(Q, a),
        steps((a, Axiom(SchemeId.CL)), (b, Axiom(SchemeId.CL)), (impl(Q, a), MP(1, 2))),
    )
    assert check_proof(proof) == ACCEPTED


def test_rn_introduces_a_support():
    taut = impl(P, P)
    proof = Proof(
        BASE,
        "rn",
        Supports(R, taut),
        steps((taut, Axiom(SchemeId.CL)), (Supports(R, taut), RN(1, R))),
    )
    assert check_proof(proof) == ACCEPTED


def test_e_lifts_biconditionals_under_belief():
    eq = iff(P, Not(Not(P)))
    lifted = iff(Believes(P), Believes(Not(Not(P))))
    proof = Proof(
        BASE,
        "e",
        lifted,
        steps((eq, Axiom(SchemeId.CL)), (lifted, E(1))),
    )
    assert check_proof(proof) == ACCEPTED


def test_gen_needs_a_quantified_theory():
    taut = impl(P, P)
    closed = ForAll("t", taut)
    proof = Proof(
        QUANT,
        "gen",
        closed,
        steps((taut, Axiom(SchemeId.CL)), (closed, Gen(1, "t"))),
    )
    assert check_proof(proof) == ACCEPTED
    demoted = Proof(
        BASE,
        "gen",
        closed,
        steps((taut, Axiom(SchemeId.CL)), (closed, Gen(1, "t"))),
    )
    verdict = check_proof(demoted)
    assert not verdict.accepted and verdict.step == 2


def test_axiom_claim_must_name_the_matched_scheme():
    rb = impl(Supports(R, P), impl(Believes(Adequate(R)), Believes(P)))
    proof = Proof(BASE, "claim", rb, steps((rb, Axiom(SchemeId.D))))
    verdict = check_proof(proof)
    assert not verdict.accepted
    assert "RB" in verdict.diagnostic


def test_mp_checks_the_implication_shape():
    a = impl(P, impl(Q, P))
    proof = Proof(
        BASE,
        "bad-mp",
        Q,
        steps((a, Axiom(SchemeId.CL)), (impl(P, P), Axiom(SchemeId.CL)), (Q, MP(1, 2))),
    )
    verdict = check_proof(proof)
    assert not verdict.accepted and verdict.step == 3


def test_malformed_structure_is_a_construction_error():
    taut = impl(P, P)
    with pytest.raises(ValueError):
        Proof(BASE, "empty", taut, ())
    with pytest.raises(ValueError):
        Proof(
            BASE,
            "forward",
            taut,
            (ProofStep(1, taut, MP(1, 1)),),
        )
    with pytest.raises(ValueError):
        Proof(
            BASE,
            "wrong-goal",
            Q,
            (ProofStep(1, taut, Axiom(SchemeId.CL)),),
        )


def test_citation_of_unknown_name_raises():
    lib = derived_library()
    rc = lib["RC"].proof
    citing = Proof(
        BASE,
        "cite",
        rc.goal,
        (ProofStep(1, rc.goal, Cite("NoSuchTheorem")),),
    )
    with pytest.raises(UnknownCitation):
        check_proof(citing, lib)
    with pytest.raises(UnknownCitation):
        check_proof(
            Proof(BASE, "c", rc.goal, (ProofStep(1, rc.goal, Cite("RC")),))
        )


def test_citation_respects_theory_extension():
    lib = derived_library()
    quant_goal = lib["DistributionRule"].proof.goal
    citing = Proof(
        BASE,
        "downcite",
        quant_goal,
        (ProofStep(1, quant_goal, Cite("DistributionRule")),),
    )
    with pytest.raises(TheoryMismatch):
        check_proof(citing, lib)
    lifted = Proof(
        QUANT,
        "upcite",
        lib["RC"].proof.goal,
        (ProofStep(1, lib["RC"].proof.goal, Cite("RC")),),
    )
    assert check_proof(lifted, lib).accepted


def test_doc_round_trip_with_e_and_a_citation():
    rc = derived_library()["RC"].proof.goal
    lifted = iff(Believes(P), Believes(Not(Not(P))))
    proof = Proof(
        BASE,
        "e-and-cite",
        rc,
        steps((iff(P, Not(Not(P))), Axiom(SchemeId.CL)), (lifted, E(1)), (rc, Cite("RC"))),
    )
    doc = proof_to_doc(proof)
    assert [s["by"] for s in doc["steps"][1:]] == [{"e": 1}, {"cite": "RC"}]
    assert proof_from_doc(doc) == proof
    assert check_proof(proof, derived_library()) == ACCEPTED


APP = TheoryConfig.from_name("RBB+App", ("r", "s"), ("p", "q"))
TAUT, EQ = impl(P, P), iff(P, Not(Not(P)))
SR = App(atom_term("s"), R)
# A library whose one entry failed its check: citing it must be refused.
UNACCEPTED = {
    "Bad": Theorem(
        Proof(BASE, "Bad", TAUT, steps((TAUT, Axiom(SchemeId.CL)))),
        Verdict.rejected(1, "broken"),
    )
}


@pytest.mark.parametrize(
    "cfg,third,diagnostic",
    [
        (BASE, (iff(Believes(P), Believes(P)), E(1)), "(E) needs step 1 to be a biconditional"),
        (BASE, (iff(Believes(P), Believes(P)), E(2)),
         "(E) conclusion must be the biconditional under B"),
        (BASE, (Supports(R, TAUT), Cite("Bad")), "cited theorem 'Bad' proves a different formula"),
        (BASE, (TAUT, Cite("Bad")), "cited theorem 'Bad' is not accepted"),
        (APP, (Supports(SR, TAUT), RN(1, SR)),
         "(RN) in the App variant is restricted to basic reasons"),
        (BASE, (Supports(SR, TAUT), RN(1, SR)),
         "(RN) uses an application term outside the App variant"),
    ],
)
def test_rejections_name_the_rule(cfg, third, diagnostic):
    premises = steps((TAUT, Axiom(SchemeId.CL)), (EQ, Axiom(SchemeId.CL)), third)
    proof = Proof(cfg, "bad", third[0], premises)
    assert check_proof(proof, UNACCEPTED) == Verdict.rejected(3, diagnostic)


# -- the bundled library ----------------------------------------------------


def test_library_is_fully_accepted():
    lib = derived_library()
    assert len(lib) == 14
    for name, thm in lib.items():
        assert thm.verdict.accepted, name
        assert check_proof(thm.proof, lib).accepted, name


# sha256 of the library's proof documents (14 theorems, 154 steps), frozen so
# that a rewrite of library.py must keep every step formula and justification
LIBRARY_DIGEST = "6a26bfde3b8da38ef28610695e970d4f301e56a93fff26f6b1b54d90d7263622"


def test_library_proofs_are_pinned():
    lib = derived_library()
    text = json.dumps([proof_to_doc(lib[n].proof) for n in sorted(lib)], sort_keys=True)
    assert sum(len(thm.proof.steps) for thm in lib.values()) == 154
    assert hashlib.sha256(text.encode()).hexdigest() == LIBRARY_DIGEST


def test_doc_round_trip_every_library_proof():
    lib = derived_library()
    for thm in lib.values():
        doc = proof_to_doc(thm.proof)
        assert proof_from_doc(doc) == thm.proof


def _mutations(proof):
    """One formula mutation per step, one justification mutation per late step."""
    poison = Letter(proof.theory.letters[0])
    for k in range(1, len(proof.steps) + 1):
        new_steps = [
            ProofStep(s.index, poison if s.index == k else s.formula, s.just)
            for s in proof.steps
        ]
        goal = poison if k == len(proof.steps) else proof.goal
        yield k, Proof(proof.theory, proof.name, goal, tuple(new_steps))
    for k in range(2, len(proof.steps) + 1):
        new_steps = [
            ProofStep(
                s.index,
                s.formula,
                MP(k - 1, k - 1) if s.index == k else s.just,
            )
            for s in proof.steps
        ]
        yield k, Proof(proof.theory, proof.name, proof.goal, tuple(new_steps))


def test_every_single_step_mutation_is_rejected():
    lib = derived_library()
    for name, thm in lib.items():
        for k, mutant in _mutations(thm.proof):
            verdict = check_proof(mutant, lib)
            assert not verdict.accepted, (name, k)


def test_library_goals_hold_on_sampled_models(base_corpus):
    lib = derived_library()
    picked = [
        (cfg, m)
        for cfg, m in base_corpus
        if {"r", "s"} <= set(cfg.reasons) and {"p", "q"} <= set(cfg.letters)
    ][:25]
    assert picked
    for name, thm in lib.items():
        cfg = thm.proof.theory
        if cfg.sigma:
            continue
        for _, model in picked:
            assert extension(model, thm.proof.goal, cfg) == frozenset(
                model.worlds
            ), name
