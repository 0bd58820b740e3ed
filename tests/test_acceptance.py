"""Acceptance gate: seven headline guarantees, one test and one line each.

These are the checks a release hangs on.  Each test covers one guarantee
end to end, asserts its time budget, and prints a single PASS line with
the load-bearing numbers; everything else in the suite exists to localise
a failure that first shows up here.
"""

import itertools
import random
import time

import corpus
from rbb.jtb import jtb_e, jtb_e_r, jtb_i_r, jtb_nil, scenario
from rbb.library import derived_library
from rbb.parser import parse, print_formula
from rbb.proof import MP, Proof, ProofStep, check_proof
from rbb.search import SearchBounds, Witness, check_nonvalidity, find_model, find_models
from rbb.semantics import (
    check_rc,
    extension,
    make_model,
    satisfies,
    validate_model,
)
from rbb.syntax import Believes, Letter, Not, Or, Supports, atom_term, conj, impl
from rbb.theory import TheoryConfig

# Corpus classes are built once per run and shared between the soundness
# and inclusion gates; the seeds are part of the contract.
_CORPUS_SEEDS = (("RBB", 101), ("RBBs", 102), ("RBBs+", 103))
_CORPORA: dict[str, list] = {}


def corpora500() -> dict[str, list]:
    if not _CORPORA:
        for name, seed in _CORPUS_SEEDS:
            _CORPORA[name] = corpus.model_corpus(name, 500, seed)
    return _CORPORA


def _cfg_for(theory_name: str, cfg: TheoryConfig) -> TheoryConfig:
    if cfg.name == theory_name:
        return cfg
    return TheoryConfig.from_name(theory_name, cfg.basic_reasons, cfg.letters)


def _mutants(proof: Proof):
    """Every single-step corruption of a proof: formula or justification."""
    poison = Letter(proof.theory.letters[0])
    for k in range(1, len(proof.steps) + 1):
        if proof.steps[k - 1].formula == poison:
            continue
        steps = tuple(
            ProofStep(s.index, poison if s.index == k else s.formula, s.just)
            for s in proof.steps
        )
        goal = poison if k == len(proof.steps) else proof.goal
        yield k, Proof(proof.theory, proof.name, goal, steps)
    for k in range(2, len(proof.steps) + 1):
        steps = tuple(
            ProofStep(s.index, s.formula, MP(k - 1, k - 1) if s.index == k else s.just)
            for s in proof.steps
        )
        yield k, Proof(proof.theory, proof.name, proof.goal, steps)


def test_c1_library_accepted_and_every_mutation_rejected():
    t0 = time.perf_counter()
    lib = derived_library()
    assert len(lib) == 14
    for name, thm in lib.items():
        assert check_proof(thm.proof, lib).accepted, name
    mutants = 0
    for name, thm in lib.items():
        for k, mutant in _mutants(thm.proof):
            assert not check_proof(mutant, lib).accepted, (name, k)
            mutants += 1
    dt = time.perf_counter() - t0
    assert mutants >= 280
    assert dt < 5.0
    print(f"PASS C1: 14 theorems accepted, {mutants} single-step mutants "
          f"all rejected in {dt:.2f}s")


def test_c2_axiom_soundness_on_sampled_models():
    t0 = time.perf_counter()
    corpora = corpora500()
    for models in corpora.values():
        assert len(models) == 500
        assert all(len(m.worlds) <= 4 for _, m in models)

    jobs = (
        ("RBB", "RBB"),
        ("RBBs", "RBBs"),
        ("RBBs+", "RBBs+"),
        ("QRBB", "RBB"),
        ("QRBBs", "RBBs"),
        ("QRBBs+", "RBBs+"),
    )
    rng = random.Random(5)
    instances = 0
    for theory_name, klass in jobs:
        models = corpora[klass]
        schemes = sorted(
            _cfg_for(theory_name, models[0][0]).schemes, key=lambda s: s.value
        )
        for scheme in schemes:
            need = 200
            for attempt in range(need * 60):
                cfg, model = models[attempt % len(models)]
                tcfg = _cfg_for(theory_name, cfg)
                inst = corpus.axiom_instance(rng, scheme, tcfg)
                if inst is None:
                    continue
                assert extension(model, inst, tcfg) == frozenset(model.worlds), (
                    theory_name,
                    scheme,
                    print_formula(inst),
                )
                instances += 1
                need -= 1
                if not need:
                    break
            assert not need, (theory_name, scheme)

    # Rule preservation: whatever MP, RN, and E are fed, truth survives.
    rng = random.Random(7)
    rn_conclusions = 0
    for klass in ("RBB", "RBBs", "RBBs+"):
        for cfg, model in corpora[klass][:150]:
            everywhere = frozenset(model.worlds)
            a = corpus.random_formula(rng, cfg, depth=2)
            b = corpus.random_formula(rng, cfg, depth=2)
            # MP at each world
            assert (
                extension(model, a, cfg) & extension(model, impl(a, b), cfg)
                <= extension(model, b, cfg)
            )
            # RN from a premise that holds everywhere
            theorem = corpus._TAUTOLOGIES[rng.randrange(9)](a, b, Not(a))
            assert extension(model, theorem, cfg) == everywhere
            for name in cfg.basic_reasons:
                conclusion = Supports(atom_term(name), theorem)
                assert extension(model, conclusion, cfg) == everywhere
                rn_conclusions += 1
            # E on an extensionally equal pair
            assert extension(model, Believes(a), cfg) == extension(
                model, Believes(Not(Not(a))), cfg
            )
    dt = time.perf_counter() - t0
    assert instances == 11200
    assert dt < 60.0
    print(f"PASS C2: {instances} axiom instances true everywhere on 3x500 "
          f"sampled models, MP/RN/E preserve truth "
          f"({rn_conclusions} RN conclusions) in {dt:.2f}s")


def test_c3_consistency_witnesses():
    rbb1 = TheoryConfig.from_name("RBB", reasons=("r",), letters=("p",))
    rbb2 = TheoryConfig.from_name("RBB", reasons=("r", "s"), letters=("p",))
    barn = scenario("Barn")
    jobs = [
        (
            "inadequate unbelieved reason",
            [parse(t, rbb1) for t in ("~B r", "r:p", "r:(~p)")],
            rbb1,
            1,
        ),
        (
            "belief with a disbelieved rival",
            [parse(t, rbb2) for t in ("B r", "~B s", "r:p", "s:(~p)")],
            rbb2,
            3,
        ),
        (
            "belief not closed under supported implication",
            list(scenario("noRCL").sorted_assumptions()),
            scenario("noRCL").theory,
            3,
        ),
        (
            "belief with no believed reason",
            [parse(t, rbb2) for t in ("B p", "r:p -> ~B r", "s:p -> ~B s")],
            rbb2,
            2,
        ),
        (
            "Barn with the reason adequate",
            list(barn.sorted_assumptions()) + [parse("r", barn.theory)],
            barn.theory,
            2,
        ),
        (
            "Barn with the reason inadequate",
            list(barn.sorted_assumptions()) + [parse("~r", barn.theory)],
            barn.theory,
            2,
        ),
        (
            "G2",
            list(scenario("G2").sorted_assumptions()),
            scenario("G2").theory,
            2,
        ),
        (
            "TDTD with no other reasons",
            list(scenario("TDTD+NoR").sorted_assumptions()),
            scenario("TDTD+NoR").theory,
            4,
        ),
    ]
    sizes = []
    for label, goals, cfg, cap in jobs:
        t0 = time.perf_counter()
        out = find_model(goals, cfg, SearchBounds(max_worlds=cap))
        dt = time.perf_counter() - t0
        assert isinstance(out, Witness), label
        assert len(out.model.worlds) <= cap, label
        assert validate_model(out.model, cfg).ok, label
        for goal in goals:
            assert satisfies(out.model, out.world, goal, cfg), (label, goal)
        assert dt < 60.0, label
        sizes.append(len(out.model.worlds))
    print(f"PASS C3: {len(jobs)} theory fragments each have a validated "
          f"witness, world counts {sizes}")


def test_c4_exhaustive_small_model_rc():
    # Every validated two-reason one-letter model on at most two worlds,
    # walked exhaustively (up to the w0/w1 relabeling) with plain loops:
    # no believed pair of reasons may settle disjoint sets.  The counts
    # are pinned so silent shrinkage of the space cannot pass as success.
    t0 = time.perf_counter()
    cfg = TheoryConfig.from_name("RBB", reasons=("r", "s"), letters=("p",))

    def family(fm, worlds):
        return [
            [w for j, w in enumerate(worlds) if s >> j & 1]
            for s in range(1 << len(worlds))
            if fm >> s & 1
        ]

    def pairs(rows, worlds):
        return [
            (worlds[i], w)
            for i, row in enumerate(rows)
            for j, w in enumerate(worlds)
            if row >> j & 1
        ]

    canonical = validated = 0

    one = ("w0",)
    for val, r0, s0, f0 in itertools.product(
        range(2), range(2), range(2), range(4)
    ):
        canonical += 1
        model = make_model(
            one,
            {"r": pairs((r0,), one), "s": pairs((s0,), one)},
            {"w0": family(f0, one)},
            {"w0": ["p"] if val else []},
        )
        if validate_model(model, cfg).ok:
            validated += 1
            assert check_rc(model).ok

    two = ("w0", "w1")

    def swap_row(row):
        return ((row & 1) << 1) | (row >> 1 & 1)

    swap_fam = [0] * 16
    for fm in range(16):
        for s in range(4):
            if fm >> s & 1:
                swap_fam[fm] |= 1 << (((s & 1) << 1) | (s >> 1 & 1))

    space = itertools.product(
        range(2), range(2), range(4), range(4), range(4), range(4),
        range(16), range(16),
    )
    for key in space:
        val0, val1, r0, r1, s0, s1, f0, f1 = key
        mirror = (
            val1, val0, swap_row(r1), swap_row(r0),
            swap_row(s1), swap_row(s0), swap_fam[f1], swap_fam[f0],
        )
        if mirror < key:
            continue
        canonical += 1
        model = make_model(
            two,
            {"r": pairs((r0, r1), two), "s": pairs((s0, s1), two)},
            {"w0": family(f0, two), "w1": family(f1, two)},
            {"w0": ["p"] if val0 else [], "w1": ["p"] if val1 else []},
        )
        if validate_model(model, cfg).ok:
            validated += 1
            assert check_rc(model).ok

    dt = time.perf_counter() - t0
    assert canonical == 131360
    assert validated == 16056
    assert dt < 60.0
    print(f"PASS C4: {validated} validated models out of {canonical} "
          f"canonical candidates, zero believed-reason conflicts in {dt:.1f}s")


def test_c5_gettier_separations():
    t0 = time.perf_counter()
    pq = Or(Letter("p"), Letter("q"))

    g2 = scenario("G2")
    found, _ = find_models(
        g2.sorted_assumptions(), g2.theory, SearchBounds(max_worlds=3), 4
    )
    assert len(found) >= 2
    for w in found:
        assert satisfies(w.model, w.world, jtb_i_r("r", pq), g2.theory)
        assert not satisfies(w.model, w.world, jtb_e_r("r", pq), g2.theory)

    nor = scenario("TDTD+NoR")
    nor_found, _ = find_models(
        nor.sorted_assumptions(), nor.theory, SearchBounds(max_worlds=4), 4
    )
    assert len(nor_found) == 4
    externalist = jtb_e(pq, nor.theory)
    for w in nor_found:
        assert satisfies(w.model, w.world, externalist, nor.theory)

    # and the no-false-lemmas repair does not follow from the scenario
    entailment = impl(
        conj(*nor.sorted_assumptions()), jtb_nil(pq, nor.theory)
    )
    attack = check_nonvalidity(entailment, nor.theory, SearchBounds(max_worlds=3))
    assert isinstance(attack, Witness)
    assert validate_model(attack.model, nor.theory).ok
    assert not satisfies(attack.model, attack.world, entailment, nor.theory)

    # internalist JTB of one claim says nothing about the reason's other work
    qcfg = TheoryConfig.from_name("QRBB", reasons=("r",), letters=("p", "q"))
    spillover = impl(
        jtb_i_r("r", Letter("p")),
        impl(Supports(atom_term("r"), Letter("q")), Letter("q")),
    )
    attack2 = check_nonvalidity(spillover, qcfg, SearchBounds(max_worlds=3))
    assert isinstance(attack2, Witness)

    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS C5: G2 separates internalist from externalist JTB on "
          f"{len(found)} witnesses, JTBe survives TDTD+NoR on {len(nor_found)}, "
          f"both repair entailments refuted in {dt:.2f}s")


def test_c6_parser_round_trip_fuzz():
    t0 = time.perf_counter()
    sentinel = TheoryConfig.from_name("RBB", reasons=("r",), letters=("p", "q"))
    assert parse("r:p -> q", sentinel) == impl(
        Supports(atom_term("r"), Letter("p")), Letter("q")
    )

    cfgs = [
        TheoryConfig.from_name(name, ("r", "s", "t0"), ("p", "q", "m"))
        for name in ("RBB", "RBBs", "RBBs+", "RBB+App", "QRBB", "QRBBs", "QRBBs+")
    ]
    rng = random.Random(2468)
    for i in range(10000):
        cfg = cfgs[i % len(cfgs)]
        formula = corpus.random_formula(rng, cfg, depth=3)
        assert parse(print_formula(formula), cfg) == formula
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"PASS C6: 10000 printed formulas re-parse to themselves across "
          f"7 theory configurations in {dt:.2f}s")


def test_c7_jtb_inclusions():
    t0 = time.perf_counter()
    corpora = corpora500()
    rng = random.Random(13)
    fired = 0
    for klass in ("RBB", "RBBs", "RBBs+"):
        for cfg, model in corpora[klass][:200]:
            phi = corpus.random_formula(rng, cfg, depth=2)
            believed = extension(model, Believes(phi), cfg)
            true_at = extension(model, phi, cfg)
            for name in cfg.basic_reasons:
                for build in (jtb_e_r, jtb_i_r):
                    held = extension(model, build(name, phi), cfg)
                    fired += len(held)
                    # closure: JTB in either sense yields belief
                    assert held <= believed, (klass, name, print_formula(phi))
                    # veridicality: and yields truth
                    assert held <= true_at, (klass, name, print_formula(phi))
    dt = time.perf_counter() - t0
    assert fired >= 100
    assert dt < 60.0
    print(f"PASS C7: both JTB readings imply belief and truth at "
          f"{fired} world/reason/formula triples in {dt:.2f}s")
