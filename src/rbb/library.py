"""Bundled machine-checked derivations.

Every theorem here is a concrete :class:`~rbb.proof.Proof` at fixed small
formulas, built step by step from axiom instances and the primitive rules.
There is no deduction theorem in the object logic, so multi-premise
arguments are glued together the long way: derive the premises, add one
classical tautology chaining them to the goal, and discharge with repeated
modus ponens.  The `_Builder.chain` helper packages that pattern, and
`_Builder.lift` packages the (Gen), (UD), (MP) ladder that moves a quantifier
into the consequent.  On top of them, `_Builder.under` lifts a tautology
``lo -> hi`` to ``(A x. lo) -> (A x. hi)``, and `_Builder.distribute` derives
the distributivity of ``A x.`` over ``->``.

Schema-shaped results (closure under consequence, the quantifier rule
lemmas) are shipped at representative instantiations; `closure_rule_instance`
re-instantiates the closure template at caller-supplied formulas.
"""

from __future__ import annotations

from functools import cache

from .proof import (
    Axiom,
    FixtureCorrupt,
    Gen,
    MP,
    Proof,
    ProofStep,
    RN,
    Theorem,
    check_proof,
)
from .syntax import (
    Adequate,
    Believes,
    Formula,
    ForAll,
    Letter,
    Not,
    Or,
    Reason,
    SIGMA,
    Supports,
    as_implies,
    atom_term,
    conj,
    exists,
    iff,
    impl,
)
from .theory import SchemeId, TheoryConfig


class _Builder:
    """Accumulates numbered steps; computes rule conclusions mechanically."""

    def __init__(self, cfg: TheoryConfig) -> None:
        self.cfg = cfg
        self._steps: list[ProofStep] = []

    def formula(self, index: int) -> Formula:
        return self._steps[index - 1].formula

    def _push(self, formula: Formula, just) -> int:
        self._steps.append(ProofStep(len(self._steps) + 1, formula, just))
        return len(self._steps)

    def axiom(self, scheme: SchemeId, formula: Formula) -> int:
        return self._push(formula, Axiom(scheme))

    def mp(self, antecedent: int, implication: int) -> int:
        pair = as_implies(self.formula(implication))
        assert pair is not None and pair[0] == self.formula(antecedent)
        return self._push(pair[1], MP(antecedent, implication))

    def rn(self, source: int, reason: Reason) -> int:
        return self._push(Supports(reason, self.formula(source)), RN(source, reason))

    def lift(self, source: int, var: str) -> int:
        """From ``A -> B``: (Gen), the (UD) instance, then ``A -> (A var. B)``."""
        pair = as_implies(self.formula(source))
        assert pair is not None
        closed = self._push(ForAll(var, self.formula(source)), Gen(source, var))
        ud = self.axiom(
            SchemeId.UD, impl(self.formula(closed), impl(pair[0], ForAll(var, pair[1])))
        )
        return self.mp(closed, ud)

    def under(self, var: str, lo: Formula, hi: Formula) -> int:
        """``(A var. lo) -> (A var. hi)`` from the tautology ``lo -> hi``:
        (CL), the (UI) instance, `chain`, then `lift`."""
        all_lo = ForAll(var, lo)
        taut = self.axiom(SchemeId.CL, impl(lo, hi))
        inst = self.axiom(SchemeId.UI, impl(all_lo, lo))
        return self.lift(self.chain(impl(all_lo, hi), taut, inst), var)

    def distribute(self, var: str, phi: Formula, psi: Formula) -> int:
        """``(A var. phi -> psi) -> (A var. phi) -> (A var. psi)``: both (UI)
        instances, `chain` to psi, `lift`, then curry."""
        all_impl, all_phi = ForAll(var, impl(phi, psi)), ForAll(var, phi)
        u1 = self.axiom(SchemeId.UI, impl(all_impl, impl(phi, psi)))
        u2 = self.axiom(SchemeId.UI, impl(all_phi, phi))
        body = self.lift(self.chain(impl(conj(all_impl, all_phi), psi), u1, u2), var)
        return self.chain(impl(all_impl, impl(all_phi, ForAll(var, psi))), body)

    def chain(self, goal: Formula, *premises: int) -> int:
        """Tautology step (prem1 -> (... -> goal)) plus the MP cascade."""
        taut = goal
        for index in reversed(premises):
            taut = impl(self.formula(index), taut)
        at = self.axiom(SchemeId.CL, taut)
        for index in premises:
            at = self.mp(index, at)
        return at

    def build(self, name: str) -> Proof:
        return Proof(self.cfg, name, self._steps[-1].formula, tuple(self._steps))


_BASE = TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q"))
_SIGMA = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))
_SIGMA_PLUS = TheoryConfig.from_name("RBBs+", ("r", "s"), ("p", "q"))
_QUANT = TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q"))

_R = atom_term("r")
_S = atom_term("s")
_P = Letter("p")
_Q = Letter("q")

_BR = Believes(Adequate(_R))
_BS = Believes(Adequate(_S))
_BSIG = Believes(Adequate(SIGMA))


def _consistency(name: str, other: Reason, believed: Formula) -> Proof:
    """RC and IC: ``believed -> (r:p -> ~other:~p)`` from (RB) for r:p and
    for other:~p, then (D)."""
    rp = Supports(_R, _P)
    onp = Supports(other, Not(_P))
    b = _Builder(_BASE)
    a1 = b.axiom(SchemeId.RB, impl(rp, impl(_BR, Believes(_P))))
    a2 = b.axiom(SchemeId.RB, impl(onp, impl(Believes(Adequate(other)), Believes(Not(_P)))))
    a3 = b.axiom(SchemeId.D, impl(Believes(_P), Not(Believes(Not(_P)))))
    b.chain(impl(believed, impl(rp, Not(onp))), a1, a2, a3)
    return b.build(name)


def _aic() -> Proof:
    rp = Supports(_R, _P)
    rnp = Supports(_R, Not(_P))
    b = _Builder(_BASE)
    a1 = b.axiom(SchemeId.A, impl(rnp, impl(Adequate(_R), Not(_P))))
    a2 = b.axiom(SchemeId.A, impl(rp, impl(Adequate(_R), _P)))
    b.chain(impl(rp, impl(Adequate(_R), Not(rnp))), a1, a2)
    return b.build("AIC")


def closure_rule_instance(
    cfg: TheoryConfig, reason: Reason, phi: Formula, psi: Formula, name: str = "RCLC"
) -> Proof:
    """The closure-under-consequence template at a concrete premise.

    Checkable only when ``phi -> psi`` is itself a classical tautology
    instance; `check_proof` is the arbiter.
    """
    b = _Builder(cfg)
    premise = b.axiom(SchemeId.CL, impl(phi, psi))
    cited = b.rn(premise, reason)
    dist = b.axiom(
        SchemeId.RK,
        impl(
            Supports(reason, impl(phi, psi)),
            impl(Supports(reason, phi), Supports(reason, psi)),
        ),
    )
    b.mp(cited, dist)
    return b.build(name)


def _rcl2() -> Proof:
    sp_impl = Supports(_S, impl(_P, _Q))
    rp = Supports(_R, _P)
    b = _Builder(_SIGMA)
    m1 = b.axiom(SchemeId.MR, impl(sp_impl, impl(_BS, Supports(SIGMA, impl(_P, _Q)))))
    m2 = b.axiom(SchemeId.MR, impl(rp, impl(_BR, Supports(SIGMA, _P))))
    rk = b.axiom(
        SchemeId.RK,
        impl(
            Supports(SIGMA, impl(_P, _Q)),
            impl(Supports(SIGMA, _P), Supports(SIGMA, _Q)),
        ),
    )
    mb = b.axiom(SchemeId.MB, _BSIG)
    rb = b.axiom(SchemeId.RB, impl(Supports(SIGMA, _Q), impl(_BSIG, Believes(_Q))))
    b.chain(impl(conj(_BS, _BR, sp_impl, rp), Believes(_Q)), m1, m2, rk, mb, rb)
    return b.build("RCL2")


def _bsigma() -> Proof:
    sp = Supports(SIGMA, _P)
    b = _Builder(_SIGMA_PLUS)
    mt = b.axiom(SchemeId.MT, impl(Believes(_P), sp))
    rb = b.axiom(SchemeId.RB, impl(sp, impl(_BSIG, Believes(_P))))
    mb = b.axiom(SchemeId.MB, _BSIG)
    back = b.chain(impl(sp, Believes(_P)), rb, mb)
    b.chain(iff(Believes(_P), sp), mt, back)
    return b.build("BSigma")


# -- quantifier lemmas, all under QRBB ---------------------------------------
#
# (UI) with the bound symbol itself as substituent yields the bare
# "instantiate to the body" step; `_Builder.lift` is the (Gen), (UD), (MP)
# ladder for moving a quantifier to the consequent, `_Builder.under` and
# `_Builder.distribute` are the two sequences built from it, and
# `_Builder.chain` glues the pieces together.


def _distributivity() -> Proof:
    b = _Builder(_QUANT)
    b.distribute("r", Supports(_R, _P), _BR)
    return b.build("Distributivity")


def _distribution_rule() -> Proof:
    b = _Builder(_QUANT)
    b.under("r", conj(Supports(_R, _P), _BR), Supports(_R, _P))
    return b.build("DistributionRule")


def _renaming_rule() -> Proof:
    all_r = ForAll("r", Supports(_R, _P))
    all_s = ForAll("s", Supports(_S, _P))
    b = _Builder(_QUANT)
    fwd = b.lift(b.axiom(SchemeId.UI, impl(all_r, Supports(_S, _P))), "s")
    bwd = b.lift(b.axiom(SchemeId.UI, impl(all_s, Supports(_R, _P))), "r")
    b.chain(iff(all_r, all_s), fwd, bwd)
    return b.build("RenamingRule")


def _equivalence_rule() -> Proof:
    phi = Supports(_R, _P)
    phi2 = Not(Not(phi))
    b = _Builder(_QUANT)
    fwd = b.under("r", phi, phi2)
    bwd = b.under("r", phi2, phi)
    b.chain(iff(ForAll("r", phi), ForAll("r", phi2)), fwd, bwd)
    return b.build("EquivalenceRule")


def _exists_elim() -> Proof:
    """(A r)(phi -> psi) -> ((E r)phi -> psi) with r not free in psi."""
    phi = Supports(_R, _P)
    psi = _Q
    all_impl = ForAll("r", impl(phi, psi))
    contra = impl(Not(psi), Not(phi))
    b = _Builder(_QUANT)
    lifted = b.under("r", impl(phi, psi), contra)
    ud = b.axiom(
        SchemeId.UD,
        impl(ForAll("r", contra), impl(Not(psi), ForAll("r", Not(phi)))),
    )
    b.chain(impl(all_impl, impl(exists("r", phi), psi)), lifted, ud)
    return b.build("ExistsElim")


def _exists_intro() -> Proof:
    """(E r)(psi -> phi) -> (psi -> (E r)phi) with r not free in psi."""
    phi = Supports(_R, _P)
    psi = _Q
    gap = conj(psi, Not(phi))
    all_psi = ForAll("r", psi)
    all_nphi = ForAll("r", Not(phi))
    all_gap = ForAll("r", gap)
    step = impl(Not(phi), gap)
    b = _Builder(_QUANT)

    shifted = b.under("r", psi, step)
    distributed = b.distribute("r", Not(phi), gap)
    merged = b.chain(impl(all_psi, impl(all_nphi, all_gap)), shifted, distributed)
    squashed = b.chain(impl(conj(all_psi, all_nphi), all_gap), merged)

    raise_psi = b.lift(b.axiom(SchemeId.CL, impl(psi, psi)), "r")

    halfway = b.chain(impl(conj(psi, all_nphi), all_gap), squashed, raise_psi)
    flipped = b.chain(impl(Not(all_gap), impl(psi, Not(all_nphi))), halfway)

    pushed = b.under("r", gap, Not(impl(psi, phi)))

    goal = impl(exists("r", impl(psi, phi)), impl(psi, exists("r", phi)))
    b.chain(goal, pushed, flipped)
    return b.build("ExistsIntro")


def _fixtures() -> tuple[Proof, ...]:
    return (
        _consistency("RC", _S, conj(_BR, _BS)),
        _consistency("IC", _R, _BR),
        _aic(),
        closure_rule_instance(_BASE, _R, _P, Or(_P, _Q), name="RCLC-disj"),
        closure_rule_instance(_BASE, _R, conj(_P, _Q), _P, name="RCLC-proj"),
        closure_rule_instance(_BASE, _S, _P, impl(_Q, _P), name="RCLC-weaken"),
        _rcl2(),
        _bsigma(),
        _distributivity(),
        _distribution_rule(),
        _renaming_rule(),
        _equivalence_rule(),
        _exists_elim(),
        _exists_intro(),
    )


def derived_library() -> dict[str, Theorem]:
    """All bundled theorems, each checked at first load.

    Returns a fresh dict per call; the cached entries themselves are frozen.
    Raises :class:`FixtureCorrupt` if any bundled derivation fails its own
    check, which would mean the package is miswired, not the caller.
    """
    return dict(_checked())


@cache
def _checked() -> dict[str, Theorem]:
    table: dict[str, Theorem] = {}
    for proof in _fixtures():
        verdict = check_proof(proof, table)
        if not verdict.accepted:
            raise FixtureCorrupt(
                f"{proof.name}: step {verdict.step}: {verdict.diagnostic}"
            )
        table[proof.name] = Theorem(proof, verdict)
    return table
