"""JTB formula builders and a library of analyzed epistemic scenarios.

The builders assemble the externalist and internalist readings of
"justified true belief via reason r" and their quantified forms, plus the
no-inadequate-lemmas strengthening.  The scenario table collects the stock
cases (Gettier's second case, fake barn county and its variants, the
Tweedle Dee / Tweedle Dum situation, the mixed-reasons pattern) as
assumption sets over small fixed alphabets, each with a handful of status
queries.

`analyze_scenario` answers those queries with bounded search evidence, and
only that: a query HOLDS_IN_ALL_FOUND when it came out true at every
witness the search produced, which is far weaker than theoremhood, and
FAILS_IN_SOME when some stored witness falsifies it, which genuinely
refutes entailment.  Anything else is INCONCLUSIVE.  Reports carry the
witnesses so every verdict can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .parser import parse, print_formula
from .search import (
    SearchBounds,
    SearchOutcome,
    Witness,
    check_nonvalidity,
    find_models,
    outcome_to_doc,
)
from .semantics import ensure_in_language, satisfies
from .syntax import (
    SIGMA_NAME,
    Adequate,
    AtomicReason,
    Believes,
    ForAll,
    Formula,
    Letter,
    Supports,
    atom_term,
    conj,
    disj,
    exists,
    free_reasons,
    impl,
)
from .theory import TheoryConfig


class NoFreshVariable(ValueError):
    """Every declared reason symbol occurs free in the target formula."""


class UnknownScenario(ValueError):
    pass


def _term(reason: AtomicReason | str) -> AtomicReason:
    return atom_term(reason) if isinstance(reason, str) else reason


def jtb_e_r(reason: AtomicReason | str, formula: Formula) -> Formula:
    """r:phi and Br and r: truth via an adequate reason, externally so."""
    term = _term(reason)
    return conj(Supports(term, formula), Believes(Adequate(term)), Adequate(term))


def jtb_i_r(reason: AtomicReason | str, formula: Formula) -> Formula:
    """r:phi and Br and phi: the internalist variant swaps adequacy for truth."""
    term = _term(reason)
    return conj(Supports(term, formula), Believes(Adequate(term)), formula)


def _fresh(formula: Formula, cfg: TheoryConfig, second: bool = False) -> str:
    if not cfg.quantified:
        raise ValueError("quantified JTB forms need a quantified theory")
    free = free_reasons(formula)
    candidates = [
        name for name in cfg.reasons if name != SIGMA_NAME and name not in free
    ]
    if not candidates:
        raise NoFreshVariable(
            f"no declared reason is fresh for {print_formula(formula)!r}"
        )
    if second and len(candidates) > 1:
        return candidates[1]
    return candidates[0]


def jtb_e(formula: Formula, cfg: TheoryConfig) -> Formula:
    var = _fresh(formula, cfg)
    return exists(var, jtb_e_r(var, formula))


def jtb_i(formula: Formula, cfg: TheoryConfig) -> Formula:
    var = _fresh(formula, cfg)
    return exists(var, jtb_i_r(var, formula))


def nil(formula: Formula, cfg: TheoryConfig) -> Formula:
    """Every reason supporting an internal JTB of the formula is adequate.

    The binder prefers the second fresh symbol so that the printed form
    reads with a different letter than the existential builders use.
    """
    var = _fresh(formula, cfg, second=True)
    return ForAll(var, impl(jtb_i_r(var, formula), Adequate(atom_term(var))))


def jtb_nil(formula: Formula, cfg: TheoryConfig) -> Formula:
    return conj(jtb_i(formula, cfg), nil(formula, cfg))


@dataclass(frozen=True)
class Scenario:
    name: str
    theory: TheoryConfig
    assumptions: frozenset[Formula]
    focus: tuple[tuple[str, Formula], ...]

    def __post_init__(self) -> None:
        for formula in [*self.assumptions, *(f for _, f in self.focus)]:
            ensure_in_language(formula, self.theory)

    def sorted_assumptions(self) -> tuple[Formula, ...]:
        return tuple(sorted(self.assumptions, key=print_formula))


SCENARIO_NAMES = (
    "G2",
    "G2prime",
    "Barn",
    "BarnPrime",
    "BarnAdequate",
    "BarnInadequate",
    "TDTD",
    "TDTD+NoR",
    "noRCL",
    "MixedMersenne",
)

_R = atom_term("r")
_P = Letter("p")
_Q = Letter("q")
_M = Letter("m")


def _cfg(reasons: tuple[str, ...], letters: tuple[str, ...]) -> TheoryConfig:
    return TheoryConfig.from_name("QRBB", reasons=reasons, letters=letters)


@cache
def _table() -> dict[str, Scenario]:
    gettier = _cfg(("r",), ("p", "q"))
    barnish = _cfg(("r",), ("p",))
    tdtd_cfg = _cfg(("r", "s"), ("p", "q"))
    nor_cfg = _cfg(("r", "s", "t0"), ("p", "q"))
    mersenne_cfg = _cfg(("r", "s"), ("m",))

    pq = disj(_P, _Q)
    barn_core = jtb_i_r(_R, _P)
    tdtd_texts = (
        "s:(p | q)",
        "~(s:p)",
        "~(s:q)",
        "r:p",
        "B s",
        "B r",
        "s",
        "~p & q",
    )
    tdtd = frozenset(parse(t, tdtd_cfg) for t in tdtd_texts)
    nor = frozenset(parse(t, nor_cfg) for t in tdtd_texts) | {
        parse("A t. ((t != s & t != r) -> ~B t)", nor_cfg)
    }

    table = {
        "G2": Scenario(
            "G2",
            gettier,
            frozenset({parse("r:p & B r & (~p & q)", gettier)}),
            (
                ("JTBi_r(p|q)", jtb_i_r(_R, pq)),
                ("JTBe_r(p|q)", jtb_e_r(_R, pq)),
            ),
        ),
        "G2prime": Scenario(
            "G2prime",
            gettier,
            frozenset({jtb_e_r(_R, _P)}),
            (
                ("JTBe_r(p|q)", jtb_e_r(_R, pq)),
                ("p|q", pq),
            ),
        ),
        "Barn": Scenario(
            "Barn",
            barnish,
            frozenset({barn_core}),
            (
                ("JTBi_r(p)", jtb_i_r(_R, _P)),
                ("JTBe_r(p)", jtb_e_r(_R, _P)),
            ),
        ),
        "BarnPrime": Scenario(
            "BarnPrime",
            barnish,
            frozenset({parse("r:p & B r & ~p", barnish)}),
            (
                ("r", Adequate(_R)),
                ("JTBe_r(p)", jtb_e_r(_R, _P)),
            ),
        ),
        "BarnAdequate": Scenario(
            "BarnAdequate",
            barnish,
            frozenset({barn_core, Adequate(_R)}),
            (("JTBe_r(p)", jtb_e_r(_R, _P)),),
        ),
        "BarnInadequate": Scenario(
            "BarnInadequate",
            barnish,
            frozenset({barn_core, parse("~r", barnish)}),
            (("JTBe_r(p)", jtb_e_r(_R, _P)),),
        ),
        "TDTD": Scenario(
            "TDTD",
            tdtd_cfg,
            tdtd,
            (
                ("JTBe(p|q)", jtb_e(pq, tdtd_cfg)),
                ("JTB+NIL(p|q)", jtb_nil(pq, tdtd_cfg)),
            ),
        ),
        "TDTD+NoR": Scenario(
            "TDTD+NoR",
            nor_cfg,
            nor,
            (
                ("JTBe(p|q)", jtb_e(pq, nor_cfg)),
                ("JTB+NIL(p|q)", jtb_nil(pq, nor_cfg)),
            ),
        ),
        "noRCL": Scenario(
            "noRCL",
            tdtd_cfg,
            frozenset(
                parse(t, tdtd_cfg)
                for t in ("B s", "B r", "s:(p -> q)", "r:p", "~B q")
            ),
            (("Bq", parse("B q", tdtd_cfg)),),
        ),
        "MixedMersenne": Scenario(
            "MixedMersenne",
            mersenne_cfg,
            frozenset(
                parse(t, mersenne_cfg)
                for t in ("s:m", "r:m", "B s", "B r", "s", "~r")
            ),
            (
                ("JTBe(m)", jtb_e(_M, mersenne_cfg)),
                ("JTB+NIL(m)", jtb_nil(_M, mersenne_cfg)),
            ),
        ),
    }
    assert tuple(table) == SCENARIO_NAMES
    return table


def scenario(name: str) -> Scenario:
    try:
        return _table()[name]
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {name!r}; know {', '.join(SCENARIO_NAMES)}"
        ) from None


class QueryStatus(Enum):
    HOLDS_IN_ALL_FOUND = "holds-in-all-found-witnesses"
    FAILS_IN_SOME = "fails-in-some-witness"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class QueryResult:
    label: str
    formula: Formula
    status: QueryStatus
    true_in: int
    witness_count: int
    counterexample: Witness | None
    nonvalidity: SearchOutcome


@dataclass(frozen=True)
class ScenarioReport:
    scenario: Scenario
    consistency: SearchOutcome
    witnesses: tuple[Witness, ...]
    queries: tuple[QueryResult, ...]
    note: str | None


def analyze_scenario(
    sc: Scenario,
    bounds: SearchBounds | None = None,
    witness_cap: int = 4,
) -> ScenarioReport:
    """Search-backed status report for a scenario's focus queries.

    Consistency comes from witness search over the assumptions.  Each query
    is then evaluated at every stored witness, and independently attacked by
    a countermodel search against (assumptions -> query); a countermodel is
    itself a witness of the assumptions, so it is decisive for FAILS_IN_SOME.
    Witness search and attacks alike run at ``bounds``.
    """
    bounds = bounds or SearchBounds()
    assumptions = sc.sorted_assumptions()
    found, terminal = find_models(assumptions, sc.theory, bounds, witness_cap)
    consistency: SearchOutcome = found[0] if found else terminal

    queries = []
    for label, query in sc.focus:
        truths = [satisfies(w.model, w.world, query, sc.theory) for w in found]
        falsifier = next((w for w, true in zip(found, truths) if not true), None)
        entailment = impl(conj(*assumptions), query)
        nonvalidity = check_nonvalidity(entailment, sc.theory, bounds)
        if falsifier is None and isinstance(nonvalidity, Witness):
            falsifier = nonvalidity
        true_in = sum(truths)
        if falsifier is not None:
            status = QueryStatus.FAILS_IN_SOME
        elif found:
            status = QueryStatus.HOLDS_IN_ALL_FOUND
        else:
            status = QueryStatus.INCONCLUSIVE
        queries.append(
            QueryResult(
                label, query, status, true_in, len(found), falsifier, nonvalidity
            )
        )

    note = None
    if sc.theory.sigma:
        note = (
            "sigma theory: (MB) forces belief in the master reason at every "
            "world, which clashes with universal non-belief assumptions"
        )
    return ScenarioReport(sc, consistency, found, tuple(queries), note)


def scenario_to_doc(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "theory": sc.theory.to_doc(),
        "assumptions": [print_formula(f) for f in sc.sorted_assumptions()],
        "queries": [[label, print_formula(f)] for label, f in sc.focus],
    }


def report_to_doc(report: ScenarioReport) -> dict:
    return {
        "scenario": scenario_to_doc(report.scenario),
        "consistency": outcome_to_doc(report.consistency),
        "witnesses": [
            outcome_to_doc(w) for w in report.witnesses
        ],
        "queries": [
            {
                "label": q.label,
                "formula": print_formula(q.formula),
                "status": q.status.value,
                "true_in": q.true_in,
                "witness_count": q.witness_count,
                "counterexample": (
                    outcome_to_doc(q.counterexample)
                    if q.counterexample is not None
                    else None
                ),
                "nonvalidity": outcome_to_doc(q.nonvalidity),
            }
            for q in report.queries
        ],
        "note": report.note,
    }


def report_to_text(report: ScenarioReport) -> str:
    sc = report.scenario
    lines = [f"scenario {sc.name} over {sc.theory.name}"]
    for formula in sc.sorted_assumptions():
        lines.append(f"  assume {print_formula(formula)}")
    kind = type(report.consistency).__name__
    lines.append(
        f"consistency: {kind.lower()}"
        + (f" ({len(report.witnesses)} witnesses stored)" if report.witnesses else "")
    )
    for q in report.queries:
        lines.append(
            f"  {q.label}: {q.status.value} "
            f"[true in {q.true_in}/{q.witness_count}]"
        )
    if report.note:
        lines.append(f"note: {report.note}")
    return "\n".join(lines)
