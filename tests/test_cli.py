"""Command-line interface: exit codes, output formats, file round trips.

Everything here drives `rbb.cli.main` in process; the one environment
variable the CLI reads is injected with monkeypatch.
"""

import json

import pytest

from rbb.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_REJECTED,
    main,
)

TINY_MODEL = {
    "worlds": ["w0"],
    "access": {"r": [["w0", "w0"]], "s": []},
    "neighborhoods": {"w0": [["w0"]]},
    "valuation": {"w0": ["p"]},
    "point": "w0",
}

IDENTITY_PROOF = {
    "name": "identity",
    "theory": {
        "theory": "RBB",
        "reasons": ["r"],
        "letters": ["p"],
        "allow_overlap": False,
    },
    "goal": "p -> p",
    "steps": [{"i": 1, "f": "p -> p", "by": {"axiom": "CL"}}],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_text(capsys):
    code, out, _ = run(capsys, "parse", "r:p->q")
    assert code == EXIT_OK
    assert out == "r:p -> q\n"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--format", "json", "B p & q")
    assert code == EXIT_OK
    assert json.loads(out) == {"formula": "B p & q", "theory": "RBB"}


def test_parse_rejects_garbage(capsys):
    code, out, err = run(capsys, "parse", "p & ")
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:")


def test_parse_respects_theory(capsys):
    code, _, err = run(capsys, "parse", "A u. u:p")
    assert code == EXIT_BAD_INPUT and "quantified" in err
    code, out, _ = run(capsys, "parse", "--theory", "QRBB", "A u. u:p")
    assert code == EXIT_OK and out == "A u. u:p\n"


def test_check_proof_accepts(capsys, tmp_path):
    path = write_json(tmp_path, "id.json", IDENTITY_PROOF)
    code, out, _ = run(capsys, "check-proof", path)
    assert code == EXIT_OK
    assert out == "Accepted (theory RBB, 1 steps)\n"


def test_check_proof_rejects(capsys, tmp_path):
    doc = json.loads(json.dumps(IDENTITY_PROOF))
    doc["steps"][0]["by"] = {"axiom": "RB"}
    path = write_json(tmp_path, "bad.json", doc)
    code, out, _ = run(capsys, "check-proof", path)
    assert code == EXIT_REJECTED
    assert out.startswith("Rejected at step 1 (theory RBB):")


def test_check_proof_json_format(capsys, tmp_path):
    path = write_json(tmp_path, "id.json", IDENTITY_PROOF)
    code, out, _ = run(capsys, "check-proof", "--format", "json", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["accepted"] is True and doc["steps"] == 1


def test_check_proof_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check-proof", str(path))
    assert code == EXIT_BAD_INPUT and err.startswith("error:")
    code, _, err = run(capsys, "check-proof", str(tmp_path / "missing.json"))
    assert code == EXIT_BAD_INPUT


def test_eval(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", TINY_MODEL)
    for formula, expected in (("B p", "true"), ("B q", "false"), ("r:p", "true")):
        code, out, _ = run(capsys, "eval", "--model", path, formula)
        assert code == EXIT_OK and out == expected + "\n"


def test_eval_needs_a_world(capsys, tmp_path):
    doc = {k: v for k, v in TINY_MODEL.items() if k != "point"}
    path = write_json(tmp_path, "m.json", doc)
    code, _, err = run(capsys, "eval", "--model", path, "p")
    assert code == EXIT_BAD_INPUT and "--at" in err
    code, out, _ = run(capsys, "eval", "--model", path, "--at", "w0", "p")
    assert code == EXIT_OK and out == "true\n"


@pytest.mark.parametrize(
    "command,conjuncts",
    [("eval", 200), ("nonvalid", 200), ("parse", 2000)],
)
def test_deep_formula_is_bad_input(capsys, tmp_path, command, conjuncts):
    # Too deep for the recursive traversals: malformed input, not "rejected".
    argv = [command, " & ".join(["p"] * conjuncts)]
    if command == "eval":
        argv[1:1] = ["--model", write_json(tmp_path, "m.json", TINY_MODEL)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "Traceback" not in out + err


def test_validate_model(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", TINY_MODEL)
    code, out, _ = run(capsys, "validate-model", path)
    assert code == EXIT_OK and out == "ok\n"

    broken = json.loads(json.dumps(TINY_MODEL))
    broken["neighborhoods"]["w0"] = [["w0"], []]
    path = write_json(tmp_path, "broken.json", broken)
    code, out, _ = run(capsys, "validate-model", path)
    assert code == EXIT_REJECTED
    assert out.startswith("(d)")
    code, out, _ = run(capsys, "validate-model", "--format", "json", path)
    assert code == EXIT_REJECTED
    doc = json.loads(out)
    assert doc["ok"] is False and doc["violations"][0]["prop"] == "d"


def test_find_model_round_trip(capsys, tmp_path):
    # A search hit fed back through eval and validate-model: the three
    # subcommands have to agree about one JSON document.
    code, out, _ = run(
        capsys, "find-model", "--format", "json", "B p", "~p", "--bounds", "worlds=2"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "witness"
    path = write_json(tmp_path, "found.json", doc["model"])

    code, out, _ = run(capsys, "validate-model", path)
    assert (code, out) == (EXIT_OK, "ok\n")
    code, out, _ = run(capsys, "eval", "--model", path, "B p & ~p")
    assert (code, out) == (EXIT_OK, "true\n")


def test_find_model_output_is_stable(capsys):
    argv = ("find-model", "--format", "json", "B p", "--bounds", "worlds=2,seeds=2")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_find_model_text_output(capsys):
    code, out, _ = run(capsys, "find-model", "B p")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "witness found"
    assert any(line.startswith("worlds:") for line in lines)
    assert any(line.startswith("N(w0):") for line in lines)


def test_nonvalid_exit_codes(capsys):
    code, out, _ = run(capsys, "nonvalid", "p | ~p")
    assert code == EXIT_EXHAUSTED
    assert out == "no countermodel within bounds (worlds<=3, seeds<=4)\n"
    code, out, _ = run(capsys, "nonvalid", "B p -> p")
    assert code == EXIT_OK
    assert out.startswith("not valid: countermodel found\n")


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RBB_BUDGET_SECS", "1e-9")
    code, out, _ = run(
        capsys, "nonvalid", "--theory", "RBBs", "--reasons", "r", "sigma:p -> B p"
    )
    assert code == EXIT_BUDGET
    assert out.startswith("budget exceeded: stopped after")


def test_bounds_parsing(capsys):
    code, _, err = run(capsys, "find-model", "p", "--bounds", "worlds3")
    assert code == EXIT_BAD_INPUT and "KEY=VALUE" in err
    code, _, err = run(capsys, "find-model", "p", "--bounds", "depth=3")
    assert code == EXIT_BAD_INPUT and "unknown bound" in err
    code, _, _ = run(capsys, "find-model", "p", "--bounds", "worlds=1,budget=none")
    assert code == EXIT_OK


def test_scenario_json_default(capsys):
    code, out, _ = run(capsys, "scenario", "noRCL")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["scenario"]["name"] == "noRCL"
    assert doc["consistency"]["kind"] == "witness"


def test_scenario_text(capsys):
    code, out, _ = run(capsys, "scenario", "noRCL", "--format", "text")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "scenario noRCL over QRBB"


def test_scenario_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "G3"])
    assert exc.value.code == EXIT_BAD_INPUT


def test_library_table(capsys):
    code, out, _ = run(capsys, "library")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "14/14 accepted"
    assert all("  pass  " in line for line in lines[:-1])
    code, out, _ = run(capsys, "library", "--format", "json")
    doc = json.loads(out)
    assert doc["accepted"] == doc["total"] == 14
