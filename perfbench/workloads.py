"""The three workloads, their inputs, and the hand-written answer table.

A workload is a list of queries.  Each query has a ``run`` callable, the
part that is timed, and a ``check`` callable that judges the output
afterwards against the answer table and the independent re-check in
``reference``.  Inputs come from the workload seed only; nothing here reads
the tests of the repository.

* ``scenarios``: ``rbb scenario NAME --format json`` for all ten named
  scenarios, through ``rbb.cli.main`` in-process.
* ``nonvalid``: ``rbb nonvalid`` on valid scheme instances (exit 3), on
  known non-valid formulas (exit 0 with a countermodel) and on two probes
  that the search cannot decide within a short fixed budget today.
* ``checking``: no search.  One batch per theory class of parse/print round
  trips, ``validate_model`` on random models, ``satisfies`` and
  ``extension`` on the accepted ones; one batch of ``check_proof`` on the
  library and its single-step mutants; one ``rbb library``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import rbb
import rbb.cli
from rbb.syntax import (
    SIGMA,
    Adequate,
    Believes,
    Eq,
    ForAll,
    Letter,
    Not,
    Or,
    Sigma,
    Supports,
    atom_term,
    conj,
    exists,
    iff,
    impl,
)

import reference

HOLDS = "holds-in-all-found-witnesses"
FAILS = "fails-in-some-witness"

# Budgets are always passed on the command line, so RBB_BUDGET_SECS cannot
# change a verdict.  Decided queries get far more than they need.
DECIDED_BUDGET = 120
PROBE_BUDGET = {"full": 2.0, "tiny": 0.3}
SCENARIO_WITNESSES = 4


@dataclass
class Query:
    qid: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str | None, bool]]
    probe: bool = False


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``rbb.cli.main`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rbb.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _public_countermodel(doc: dict, formula, cfg) -> bool:
    """rbb's own public re-check: the model is in the class, formula false."""
    model, point = rbb.model_from_doc(doc)
    return rbb.validate_model(model, cfg).ok and not rbb.satisfies(
        model, point, formula, cfg
    )


def _countermodel_error(doc: dict, formula, cfg) -> str | None:
    ref = reference.RefModel(doc)
    if not reference.frame_ok(ref, cfg):
        return "countermodel violates a frame property (reference check)"
    if reference.holds(ref, ref.point, formula, cfg.reasons):
        return "formula true at the countermodel's point (reference check)"
    if not _public_countermodel(doc, formula, cfg):
        return "countermodel rejected by rbb's public validate_model/satisfies"
    return None


# ---------------------------------------------------------------------------
# scenarios

# The paper's Gettier separations, one line per scenario: each focus query
# with its status and what the countermodel attack on (assumptions -> query)
# returns.  A query that holds has no countermodel in the searched space; a
# query that fails has one.
SCENARIO_ANSWERS: dict[str, dict[str, str]] = {
    # Gettier's second case: internal JTB of p|q holds, external fails
    # because r:p with ~p makes r inadequate.
    "G2": {"JTBi_r(p|q)": HOLDS, "JTBe_r(p|q)": FAILS},
    # External JTB of p carries over to the weaker p|q.
    "G2prime": {"JTBe_r(p|q)": HOLDS, "p|q": HOLDS},
    # Fake barns: internal JTB of p does not make r adequate.
    "Barn": {"JTBi_r(p)": HOLDS, "JTBe_r(p)": FAILS},
    # r:p with ~p: r is inadequate, so no external JTB.
    "BarnPrime": {"r": FAILS, "JTBe_r(p)": FAILS},
    "BarnAdequate": {"JTBe_r(p)": HOLDS},
    "BarnInadequate": {"JTBe_r(p)": FAILS},
    # Tweedle Dee / Tweedle Dum: the adequate s gives external JTB of p|q;
    # the inadequate but believed r:p breaks no-inadequate-lemmas.
    "TDTD": {"JTBe(p|q)": HOLDS, "JTB+NIL(p|q)": FAILS},
    "TDTD+NoR": {"JTBe(p|q)": HOLDS, "JTB+NIL(p|q)": FAILS},
    # Belief is not closed under consequence.
    "noRCL": {"Bq": FAILS},
    # Mixed reasons: adequate s, inadequate r, both believed, both support m.
    "MixedMersenne": {"JTBe(m)": HOLDS, "JTB+NIL(m)": FAILS},
}

TINY_SCENARIOS = ("G2", "G2prime", "Barn", "BarnPrime", "BarnAdequate",
                  "BarnInadequate", "noRCL")


def _scenario_check(name: str):
    answers = SCENARIO_ANSWERS[name]
    sc = rbb.scenario(name)
    cfg = sc.theory
    focus = dict(sc.focus)
    assumptions = sc.sorted_assumptions()

    def check(output) -> tuple[str, str | None, bool]:
        code, text = output
        if code != 0:
            return f"exit {code}", "expected exit 0", code == 4
        doc = json.loads(text)
        statuses = {q["label"]: q["status"] for q in doc["queries"]}
        verdict = " ".join(
            f"{label}={'holds' if s == HOLDS else 'fails' if s == FAILS else s}"
            for label, s in statuses.items()
        )
        if doc["consistency"]["kind"] != "witness":
            return verdict, "scenario found inconsistent", False
        if statuses != answers:
            return verdict, f"statuses {statuses} differ from {answers}", False
        if len(doc["witnesses"]) != SCENARIO_WITNESSES:
            return verdict, f"{len(doc['witnesses'])} witnesses stored", False
        refs = [reference.RefModel(w["model"]) for w in doc["witnesses"]]
        for ref in refs:
            if not reference.frame_ok(ref, cfg):
                return verdict, "stored witness violates a frame property", False
            for f in assumptions:
                if not reference.holds(ref, ref.point, f, cfg.reasons):
                    return verdict, "stored witness falsifies an assumption", False
        for q in doc["queries"]:
            formula = focus[q["label"]]
            attack = q["nonvalidity"]["kind"]
            if q["status"] == HOLDS:
                if attack != "exhausted":
                    return verdict, f"{q['label']}: attack returned {attack}", False
                if not all(reference.holds(r, r.point, formula, cfg.reasons) for r in refs):
                    return verdict, f"{q['label']} false at a stored witness", False
                continue
            if attack != "witness" or q["counterexample"] is None:
                return verdict, f"{q['label']}: no countermodel", False
            entailment = impl(conj(*assumptions), formula)
            for doc_model, target in (
                (q["nonvalidity"]["model"], entailment),
                (q["counterexample"]["model"], formula),
            ):
                if (error := _countermodel_error(doc_model, target, cfg)) is not None:
                    return verdict, f"{q['label']}: {error}", False
                ref = reference.RefModel(doc_model)
                if not all(reference.holds(ref, ref.point, f, cfg.reasons) for f in assumptions):
                    return verdict, f"{q['label']}: countermodel drops an assumption", False
        return verdict, None, False

    return check


def scenario_queries(seed: int, size: str) -> list[Query]:
    names = list(TINY_SCENARIOS if size == "tiny" else SCENARIO_ANSWERS)
    random.Random(seed).shuffle(names)
    bounds = f"worlds=3,seeds=4,budget={DECIDED_BUDGET}"
    return [
        Query(
            name,
            lambda name=name: call_cli(
                ["scenario", name, "--format", "json", "--bounds", bounds]
            ),
            _scenario_check(name),
        )
        for name in names
    ]


# ---------------------------------------------------------------------------
# nonvalid

VALID, NONVALID, PROBE = "valid", "nonvalid", "probe"

# (theory, formula, worlds, expectation).  Reasons r,s and letters p,q;
# the sigma theories add sigma.  Valid rows are scheme instances (and the
# AIC library goal), so any countermodel is wrong; probes are valid too.
NONVALID_ROWS = (
    ("RBB", "r:(p -> q) -> r:p -> r:q", 3, VALID),  # RK
    ("RBB", "r:p -> r -> p", 3, VALID),  # A
    ("RBB", "r:p & B r -> B p", 3, VALID),  # RB
    ("RBB", "B p -> ~B (~p)", 3, VALID),  # D
    ("RBB", "r:p -> r -> ~r:(~p)", 3, VALID),  # AIC
    ("RBBs", "B sigma", 3, VALID),  # MB
    ("RBBs", "sigma -> B r -> r", 3, VALID),  # MA
    ("RBBs", "B r & r:p -> sigma:p", 3, VALID),  # MR
    ("RBBs+", "B p -> sigma:p", 3, VALID),  # MT
    ("QRBB", "(A t. p -> t:q) -> p -> (A t. t:q)", 3, VALID),  # UD
    ("QRBB", "(A t. t:p) -> r:p", 3, VALID),  # UI
    ("QRBBs+", "B p -> sigma:p", 3, VALID),  # MT
    ("RBB", "r:(p -> q) -> r:p -> r:q", 4, VALID),
    ("RBB", "r:p -> r -> p", 4, VALID),
    ("RBB", "r:p & B r -> B p", 4, VALID),
    ("RBB", "B p -> ~B (~p)", 4, VALID),
    ("RBB", "r:p -> r -> ~r:(~p)", 4, VALID),
    ("QRBB", "(A t. t:p) -> r:p", 4, VALID),
    ("RBBs", "B sigma", 4, VALID),
    ("RBB", "B p & B q -> B (p & q)", 3, NONVALID),
    ("RBB", "B p -> p", 3, NONVALID),
    ("RBB", "r:p -> p", 3, NONVALID),
    ("RBBs", "B r -> r", 3, NONVALID),
    ("QRBB", "(E t. t:p) -> r:p", 3, NONVALID),
    ("RBBs", "B r & r:p -> sigma:p", 4, PROBE),
    ("QRBBs", "(A t. t:p) -> sigma:p", 3, PROBE),
)

# Rows dropped at the tiny size: each takes more than half a second.
_SLOW = {("RBBs", "sigma -> B r -> r", 3), ("RBBs", "B r & r:p -> sigma:p", 3),
         ("QRBB", "(A t. p -> t:q) -> p -> (A t. t:q)", 3),
         ("QRBB", "(A t. t:p) -> r:p", 4), ("RBBs", "B sigma", 4)}


def _nonvalid_check(theory: str, formula: str, expect: str):
    cfg = rbb.TheoryConfig.from_name(theory, ("r", "s"), ("p", "q"))
    parsed = rbb.parse(formula, cfg)

    def check(output) -> tuple[str, str | None, bool]:
        code, text = output
        if code not in (0, 3, 4):
            return f"exit {code}", text.strip()[:200], False
        doc = json.loads(text)
        verdict = f"exit {code} {doc['kind']}"
        undecided = doc["kind"] == "budget-exceeded"
        if expect == NONVALID:
            if code != 0:
                return verdict, "expected a countermodel", undecided
            return verdict, _countermodel_error(doc["model"], parsed, cfg), False
        if code == 0:
            return verdict, "a valid formula got a countermodel", False
        if expect == VALID and code != 3:
            return verdict, "expected exhaustion", undecided
        return verdict, None, undecided

    return check


def nonvalid_queries(seed: int, size: str) -> list[Query]:
    rows = [
        row for row in NONVALID_ROWS
        if size == "full" or row[:3] not in _SLOW
    ]
    random.Random(seed).shuffle(rows)
    out = []
    for theory, formula, worlds, expect in rows:
        budget = PROBE_BUDGET[size] if expect == PROBE else DECIDED_BUDGET
        argv = [
            "nonvalid", "--theory", theory, "--reasons", "r,s", "--letters", "p,q",
            "--format", "json", "--bounds", f"worlds={worlds},seeds=4,budget={budget}",
            formula,
        ]
        out.append(
            Query(
                f"{theory} w{worlds} {formula}",
                lambda argv=argv: call_cli(argv),
                _nonvalid_check(theory, formula, expect),
                probe=expect == PROBE,
            )
        )
    return out


# ---------------------------------------------------------------------------
# checking: generators

CLASSES = ("RBB", "RBBs", "RBBs+", "QRBB", "QRBBs", "QRBBs+")
BINDERS = ("u", "v")

# Per batch: formulas round-tripped, models validated, formulas evaluated
# with satisfies per accepted model, instances per scheme per accepted model.
CHECKING_SIZE = {"full": (1200, 360, 4, 2), "tiny": (20, 8, 1, 1)}


def random_formula(rng: random.Random, cfg, depth: int, scope: tuple[str, ...] = ()):
    """A random formula of the language of ``cfg``, sugar included."""
    names = cfg.reasons + scope

    def term():
        return atom_term(rng.choice(names))

    def sub():
        return random_formula(rng, cfg, depth - 1, scope)

    if depth <= 0:
        return Letter(rng.choice(cfg.letters)) if rng.random() < 0.65 else Adequate(term())
    kinds = ["letter", "not", "or", "and", "impl", "iff", "supports",
             "adequate", "believes"]
    if cfg.quantified:
        kinds += ["eq"]
        if len(scope) < len(BINDERS):
            kinds += ["forall", "exists"]
    kind = rng.choice(kinds)
    if kind == "letter":
        return Letter(rng.choice(cfg.letters))
    if kind == "adequate":
        return Adequate(term())
    if kind == "eq":
        return Eq(term(), term())
    if kind == "not":
        return Not(sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "and":
        return conj(sub(), sub())
    if kind == "impl":
        return impl(sub(), sub())
    if kind == "iff":
        return iff(sub(), sub())
    if kind == "supports":
        return Supports(term(), sub())
    if kind == "believes":
        return Believes(sub())
    var = BINDERS[len(scope)]
    body = random_formula(rng, cfg, depth - 1, scope + (var,))
    return ForAll(var, body) if kind == "forall" else exists(var, body)


def _rename(term, var: str, name: str):
    if isinstance(term, Sigma) or term.name != var:
        return term
    return atom_term(name)


def _substitute(f, var: str, name: str):
    """Free reason occurrences of ``var`` replaced by ``name``."""
    if isinstance(f, Letter):
        return f
    if isinstance(f, Not):
        return Not(_substitute(f.sub, var, name))
    if isinstance(f, Believes):
        return Believes(_substitute(f.sub, var, name))
    if isinstance(f, Or):
        return Or(_substitute(f.left, var, name), _substitute(f.right, var, name))
    if isinstance(f, Supports):
        return Supports(_rename(f.reason, var, name), _substitute(f.sub, var, name))
    if isinstance(f, Adequate):
        return Adequate(_rename(f.reason, var, name))
    if isinstance(f, Eq):
        return Eq(_rename(f.left, var, name), _rename(f.right, var, name))
    if f.var == var:
        return f
    return ForAll(f.var, _substitute(f.sub, var, name))


_TAUTOLOGIES = (
    lambda a, b, c: impl(a, impl(b, a)),
    lambda a, b, c: impl(impl(a, b), impl(impl(b, c), impl(a, c))),
    lambda a, b, c: Or(a, Not(a)),
    lambda a, b, c: iff(Not(conj(a, b)), Or(Not(a), Not(b))),
    lambda a, b, c: impl(conj(a, impl(a, b)), b),
    lambda a, b, c: iff(Or(a, conj(b, c)), conj(Or(a, b), Or(a, c))),
)


def axiom_instance(rng: random.Random, scheme: str, cfg):
    """A random instance of the named scheme over ``cfg``."""

    def sub(scope: tuple[str, ...] = ()):
        return random_formula(rng, cfg, 2, scope)

    t = atom_term(rng.choice(cfg.reasons))
    if scheme == "CL":
        return rng.choice(_TAUTOLOGIES)(sub(), sub(), sub())
    if scheme == "RK":
        a, b = sub(), sub()
        return impl(Supports(t, impl(a, b)), impl(Supports(t, a), Supports(t, b)))
    if scheme == "A":
        a = sub()
        return impl(Supports(t, a), impl(Adequate(t), a))
    if scheme == "RB":
        a = sub()
        return impl(Supports(t, a), impl(Believes(Adequate(t)), Believes(a)))
    if scheme == "D":
        a = sub()
        return impl(Believes(a), Not(Believes(Not(a))))
    if scheme == "UD":
        a, b = sub(), sub(("u",))
        return impl(ForAll("u", impl(a, b)), impl(a, ForAll("u", b)))
    if scheme == "UI":
        while True:
            body, name = sub(("u",)), rng.choice(cfg.reasons)
            if reference.free_for(name, "u", body):
                return impl(ForAll("u", body), _substitute(body, "u", name))
    if scheme == "EP":
        return Eq(t, t)
    if scheme == "EN":
        left, right = rng.sample(cfg.reasons, 2)
        return Not(Eq(atom_term(left), atom_term(right)))
    if scheme == "MA":
        return impl(Adequate(SIGMA), impl(Believes(Adequate(t)), Adequate(t)))
    if scheme == "MB":
        return Believes(Adequate(SIGMA))
    if scheme == "MR":
        a = sub()
        return impl(Supports(t, a), impl(Believes(Adequate(t)), Supports(SIGMA, a)))
    if scheme == "MT":
        a = sub()
        return impl(Believes(a), Supports(SIGMA, a))
    raise ValueError(f"no generator for scheme {scheme}")


def _upward(base: frozenset, worlds: tuple[str, ...]) -> list[frozenset]:
    rest = [w for w in worlds if w not in base]
    return [
        base | frozenset(w for i, w in enumerate(rest) if bits >> i & 1)
        for bits in range(1 << len(rest))
    ]


def random_model_doc(rng: random.Random, cfg) -> dict:
    """A random model document; about half are repaired toward the class.

    A repaired model takes its families as (rb)-closures of the adequacy
    sets of believed reasons plus a few random sets, and makes believed
    reasons cover sigma's row.  Unrepaired ones take random families.
    The reference checker, not this generator, decides membership.
    """
    n = rng.randint(1, 4)
    worlds = tuple(f"w{i}" for i in range(n))
    repair = rng.random() < 0.6

    def subset(p: float) -> set[str]:
        return {w for w in worlds if rng.random() < p}

    succ: dict[str, dict[str, set[str]]] = {}
    for reason in cfg.reasons:
        if reason == "sigma":
            succ[reason] = {
                w: {w} | (set() if cfg.sigma_plus else subset(0.15)) for w in worlds
            }
        else:
            succ[reason] = {w: subset(0.4) for w in worlds}
    believed = {w: [r for r in cfg.reasons if r != "sigma" and rng.random() < 0.4]
                for w in worlds}
    if repair:
        for w in worlds:
            for r in believed[w]:
                if cfg.sigma:
                    succ[r][w] |= succ["sigma"][w]
                elif not succ[r][w]:
                    succ[r][w] = {rng.choice(worlds)}

    def adequacy(r: str) -> frozenset:
        return frozenset(w for w in worlds if w in succ[r][w])

    neighborhoods = {}
    for w in worlds:
        if repair:
            family = {adequacy(r) for r in believed[w]}
            if cfg.sigma:
                family.add(adequacy("sigma"))
            for _ in range(rng.randint(0, 2)):
                extra = frozenset(subset(0.5))
                family.add(extra | succ["sigma"][w] if cfg.sigma else extra)
            grown = True
            while grown:
                grown = False
                for r in cfg.reasons:
                    if adequacy(r) in family:
                        for x in _upward(frozenset(succ[r][w]), worlds):
                            if x not in family:
                                family.add(x)
                                grown = True
        else:
            family = {frozenset(subset(0.5)) for _ in range(rng.randint(0, 3))}
        neighborhoods[w] = sorted(sorted(x) for x in family)
    return {
        "worlds": list(worlds),
        "point": worlds[0],
        "access": {
            r: sorted([a, b] for a in worlds for b in succ[r][a]) for r in cfg.reasons
        },
        "neighborhoods": neighborhoods,
        "valuation": {
            w: [p for p in cfg.letters if rng.random() < 0.5] for w in worlds
        },
    }


def class_config(name: str):
    return rbb.TheoryConfig.from_name(name, ("r", "s"), ("p", "q"))


# ---------------------------------------------------------------------------
# checking: queries


def _class_batch(name: str, seed: int, size: str) -> Query:
    cfg = class_config(name)
    n_formulas, n_models, n_sat, n_inst = CHECKING_SIZE[size]
    rng = random.Random(f"{seed}:{name}")
    formulas = [random_formula(rng, cfg, rng.randint(1, 4)) for _ in range(n_formulas)]
    schemes = sorted(s.value for s in cfg.schemes)
    models = []
    for _ in range(n_models):
        doc = random_model_doc(rng, cfg)
        ref = reference.RefModel(doc)
        ok = reference.frame_ok(ref, cfg)
        probes, instances = [], []
        if ok:
            for _ in range(n_sat):
                f = random_formula(rng, cfg, 3)
                probes.append((f, reference.holds(ref, ref.point, f, cfg.reasons)))
            instances = [
                axiom_instance(rng, scheme, cfg) for scheme in schemes for _ in range(n_inst)
            ]
        models.append((doc, ok, probes, instances))

    def run():
        texts = [rbb.print_formula(f) for f in formulas]
        parsed = [rbb.parse(text, cfg) for text in texts]
        verdicts, sat, ext = [], [], []
        for doc, _, probes, instances in models:
            model, point = rbb.model_from_doc(doc)
            report = rbb.validate_model(model, cfg)
            verdicts.append(report.ok)
            if not report.ok:
                continue
            sat.extend(rbb.satisfies(model, point, f, cfg) for f, _ in probes)
            everywhere = frozenset(model.worlds)
            ext.extend(rbb.extension(model, inst, cfg) == everywhere for inst in instances)
        return texts, parsed, verdicts, sat, ext

    def check(output) -> tuple[str, str | None, bool]:
        texts, parsed, verdicts, sat, ext = output
        accepted = sum(verdicts)
        verdict = (f"{len(texts)} round trips, {accepted}/{len(verdicts)} models "
                   f"accepted, {len(sat)} satisfies, {len(ext)} extensions")
        for f, text, back in zip(formulas, texts, parsed):
            if back != f:
                return verdict, f"round trip changed {text!r}", False
        expected = [ok for _, ok, _, _ in models]
        if verdicts != expected:
            bad = next(i for i, (a, b) in enumerate(zip(verdicts, expected)) if a != b)
            return verdict, f"validate_model disagrees on model {bad}", False
        if sat != [want for _, ok, probes, _ in models if ok for _, want in probes]:
            return verdict, "satisfies disagrees with the reference", False
        if not all(ext):
            return verdict, "a scheme instance is not true everywhere", False
        return verdict, None, False

    return Query(f"{name} batch", run, check)


def mutants(proof):
    """Every single-step corruption: a formula swapped for a letter, or a
    justification swapped for a self-referential modus ponens."""
    poison = Letter(proof.theory.letters[0])
    steps = proof.steps
    for k, step in enumerate(steps, start=1):
        if step.formula == poison:
            continue
        new = tuple(rbb.ProofStep(s.index, poison if s is step else s.formula, s.just)
                    for s in steps)
        goal = poison if k == len(steps) else proof.goal
        yield rbb.Proof(proof.theory, proof.name, goal, new)
    for k in range(2, len(steps) + 1):
        new = tuple(
            rbb.ProofStep(s.index, s.formula, rbb.MP(k - 1, k - 1) if s.index == k else s.just)
            for s in steps
        )
        yield rbb.Proof(proof.theory, proof.name, proof.goal, new)


def _proof_batch(size: str) -> Query:
    lib = rbb.derived_library()
    names = sorted(lib)
    if size == "tiny":
        names = names[:3]
    cases = [(lib[n].proof, True) for n in names]
    cases += [(m, False) for n in names for m in mutants(lib[n].proof)]

    def run():
        return [rbb.check_proof(proof, lib).accepted for proof, _ in cases]

    def check(output) -> tuple[str, str | None, bool]:
        verdict = (f"{sum(output)} accepted of {len(names)} theorems "
                   f"and {len(cases) - len(names)} mutants")
        if output != [want for _, want in cases]:
            return verdict, "a theorem was rejected or a mutant accepted", False
        return verdict, None, False

    return Query("check_proof library+mutants", run, check)


def _library_query() -> Query:
    total = len(rbb.derived_library())

    def check(output) -> tuple[str, str | None, bool]:
        code, text = output
        last = text.strip().splitlines()[-1]
        verdict = f"exit {code} {last}"
        if code != 0 or last != f"{total}/{total} accepted":
            return verdict, "library check failed", False
        return verdict, None, False

    return Query("rbb library", lambda: call_cli(["library"]), check)


def checking_queries(seed: int, size: str) -> list[Query]:
    return [_class_batch(name, seed, size) for name in CLASSES] + [
        _proof_batch(size),
        _library_query(),
    ]


# ---------------------------------------------------------------------------


def setup(workload: str) -> None:
    """Build the lazy tables the workload touches."""
    if workload == "scenarios":
        for name in SCENARIO_ANSWERS:
            rbb.scenario(name)
    elif workload == "checking":
        rbb.derived_library()


def queries(workload: str, seed: int, size: str) -> list[Query]:
    build = {
        "scenarios": scenario_queries,
        "nonvalid": nonvalid_queries,
        "checking": checking_queries,
    }[workload]
    return build(seed, size)
