"""JTB builders, the packaged scenarios, and the analysis reports."""

import json

import pytest

from rbb.jtb import (
    NoFreshVariable,
    QueryStatus,
    Scenario,
    SCENARIO_NAMES,
    UnknownScenario,
    analyze_scenario,
    jtb_e,
    jtb_e_r,
    jtb_i,
    jtb_i_r,
    jtb_nil,
    nil,
    report_to_doc,
    report_to_text,
    scenario,
)
from rbb.parser import parse, print_formula
from rbb.search import Exhausted, SearchBounds, Witness
from rbb.semantics import UnknownSymbol, satisfies, validate_model
from rbb.syntax import Adequate, Letter, Or, atom_term
from rbb.theory import TheoryConfig

QCFG = TheoryConfig.from_name("QRBB", reasons=("r", "s"), letters=("p", "q"))
P = Letter("p")


def test_named_builder_shapes():
    assert print_formula(jtb_e_r("r", Or(P, Letter("q")))) == "r:(p | q) & B r & r"
    assert print_formula(jtb_i_r("r", P)) == "r:p & B r & p"
    # string and term spellings agree
    assert jtb_e_r("r", P) == jtb_e_r(atom_term("r"), P)


def test_quantified_builder_shapes():
    assert print_formula(jtb_e(P, QCFG)) == "E r. r:p & B r & r"
    assert print_formula(jtb_i(P, QCFG)) == "E r. r:p & B r & p"
    assert print_formula(nil(P, QCFG)) == "A s. s:p & B s & p -> s"
    assert (
        print_formula(jtb_nil(P, QCFG))
        == "(E r. r:p & B r & p) & (A s. s:p & B s & p -> s)"
    )
    for builder in (jtb_e, jtb_i, nil, jtb_nil):
        assert parse(print_formula(builder(P, QCFG)), QCFG) == builder(P, QCFG)


def test_fresh_variable_selection():
    # Binders come from the declared alphabet, skipping symbols free in the
    # target; nil prefers the second survivor so its printed letter differs
    # from the existential builders, and settles for the first when only
    # one is left.
    one = TheoryConfig.from_name("QRBB", reasons=("r",), letters=("p",))
    assert print_formula(nil(P, one)) == "A r. r:p & B r & p -> r"
    taken = Adequate(atom_term("r"))
    with pytest.raises(NoFreshVariable):
        jtb_e(taken, one)
    with pytest.raises(ValueError):
        jtb_i(P, TheoryConfig.from_name("RBB", reasons=("r",), letters=("p",)))


def test_scenario_table():
    assert len(SCENARIO_NAMES) == 10
    for name in SCENARIO_NAMES:
        sc = scenario(name)
        assert sc.name == name
        assert sc.focus
    with pytest.raises(UnknownScenario):
        scenario("G3")


def test_scenario_construction_errors():
    # Every assumption and query is vetted against the theory's language.
    rbb = TheoryConfig.from_name("RBB", reasons=("r",), letters=("p",))
    with pytest.raises(UnknownSymbol):
        Scenario("bad", rbb, frozenset([parse("A u. u:p", QCFG)]), ())
    with pytest.raises(UnknownSymbol):
        Scenario("bad", rbb, frozenset(), (("q", Letter("q")),))


def test_non_closure_report():
    report = analyze_scenario(scenario("noRCL"), SearchBounds(max_worlds=3))
    assert isinstance(report.consistency, Witness)
    assert report.witnesses
    for w in report.witnesses:
        assert validate_model(w.model, report.scenario.theory).ok
        for assumption in report.scenario.assumptions:
            assert satisfies(w.model, w.world, assumption, report.scenario.theory)
    (bq,) = report.queries
    assert bq.label == "Bq"
    assert bq.status is QueryStatus.FAILS_IN_SOME
    assert bq.counterexample is not None
    assert report.note is None


def test_gettier_report():
    report = analyze_scenario(scenario("G2"), SearchBounds(max_worlds=2))
    statuses = {q.label: q.status for q in report.queries}
    assert statuses["JTBi_r(p|q)"] is QueryStatus.HOLDS_IN_ALL_FOUND
    assert statuses["JTBe_r(p|q)"] is QueryStatus.FAILS_IN_SOME
    internal = next(q for q in report.queries if q.label.startswith("JTBi"))
    assert internal.true_in == internal.witness_count
    assert isinstance(internal.nonvalidity, Exhausted)


def test_attacks_run_at_the_witness_bounds():
    # The assumptions' literals falsify the s instance of ~JTBe(p|q) at the
    # point, so this attack is decided before any model is walked.
    bounds = SearchBounds(max_worlds=4, budget_secs=20.0)
    report = analyze_scenario(scenario("TDTD+NoR"), bounds)
    attack = next(q for q in report.queries if q.label == "JTBe(p|q)").nonvalidity
    assert isinstance(attack, Exhausted)
    assert attack.bounds.max_worlds == 4


def test_inconclusive_without_witnesses():
    rbb = TheoryConfig.from_name("RBB", reasons=("r",), letters=("p", "q"))
    sc = Scenario(
        "contradictory",
        rbb,
        frozenset([parse("p", rbb), parse("~p", rbb)]),
        (("q", parse("q", rbb)),),
    )
    report = analyze_scenario(sc, SearchBounds(max_worlds=2))
    assert isinstance(report.consistency, Exhausted)
    assert not report.witnesses
    assert report.queries[0].status is QueryStatus.INCONCLUSIVE


def test_sigma_note():
    rbbs = TheoryConfig.from_name("RBBs", reasons=("r",), letters=("p",))
    sc = Scenario("tiny", rbbs, frozenset([parse("B p", rbbs)]), ())
    report = analyze_scenario(sc, SearchBounds(max_worlds=1))
    assert report.note is not None and "sigma" in report.note
    # No bundled scenario is over a sigma theory, so only this one prints
    # the note.
    assert report_to_text(report).splitlines() == [
        "scenario tiny over RBBs",
        "  assume B p",
        "consistency: witness (1 witnesses stored)",
        f"note: {report.note}",
    ]


def test_report_documents():
    report = analyze_scenario(scenario("noRCL"), SearchBounds(max_worlds=3))
    doc = report_to_doc(report)
    assert doc["scenario"]["name"] == "noRCL"
    assert doc["consistency"]["kind"] == "witness"
    assert doc["queries"][0]["status"] == "fails-in-some-witness"
    assert doc["queries"][0]["counterexample"] is not None
    json.dumps(doc, sort_keys=True)

    text = report_to_text(report)
    lines = text.splitlines()
    assert lines[0] == "scenario noRCL over QRBB"
    assert sum(1 for line in lines if line.startswith("  assume ")) == 5
    assert any("fails-in-some-witness" in line for line in lines)
