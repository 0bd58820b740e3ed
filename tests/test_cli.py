"""Command-line interface: exit codes, output formats, file round trips.

Everything here drives `rbb.cli.main` in process, except one test that
needs fresh interpreters under different hash seeds; the one environment
variable the CLI reads is injected with monkeypatch.
"""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rbb
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
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_eval(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", TINY_MODEL)
    for formula, expected in (("B p", "true"), ("B q", "false"), ("r:p", "true")):
        code, out, _ = run(capsys, "eval", "--model", path, formula)
        assert code == EXIT_OK and out == expected + "\n"


def test_eval_json_format(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", TINY_MODEL)
    code, out, err = run(capsys, "eval", "--model", path, "--format", "json", "B q")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out) == {"formula": "B q", "world": "w0", "value": False}


def test_eval_needs_a_world(capsys, tmp_path):
    doc = {k: v for k, v in TINY_MODEL.items() if k != "point"}
    path = write_json(tmp_path, "m.json", doc)
    code, _, err = run(capsys, "eval", "--model", path, "p")
    assert code == EXIT_BAD_INPUT and "--at" in err
    code, out, _ = run(capsys, "eval", "--model", path, "--at", "w0", "p")
    assert code == EXIT_OK and out == "true\n"


@pytest.mark.parametrize(
    "command,conjuncts",
    [("eval", 2000), ("nonvalid", 2000), ("parse", 2000)],
)
def test_deep_formula_is_bad_input(capsys, tmp_path, command, conjuncts):
    # Too deep for the recursive traversals: malformed input, not "rejected".
    argv = [command, " & ".join(["p"] * conjuncts)]
    if command == "eval":
        argv[1:1] = ["--model", write_json(tmp_path, "m.json", TINY_MODEL)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "Traceback" not in out + err


def test_formula_of_200_conjuncts_is_answered(capsys, tmp_path):
    # Depth about 600: hashing is no longer recursive, so both commands
    # answer instead of running out of stack.
    formula = " & ".join(["p"] * 200)
    path = write_json(tmp_path, "m.json", TINY_MODEL)
    code, out, err = run(capsys, "eval", "--model", path, formula)
    assert (code, out, err) == (EXIT_OK, "true\n", "")
    code, out, err = run(capsys, "nonvalid", "--format", "json", formula)
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["kind"] == "witness"
    assert "p" not in doc["model"]["valuation"][doc["model"]["point"]]


def _tdtd_nor_witness(t0_pairs):
    return {
        "kind": "witness",
        "model": {
            "access": {
                "r": [["w0", "w1"], ["w1", "w1"]],
                "s": [["w0", "w0"], ["w0", "w1"], ["w1", "w1"]],
                "t0": t0_pairs,
            },
            "neighborhoods": {"w0": [["w0", "w1"], ["w1"]], "w1": []},
            "point": "w0",
            "valuation": {"w0": ["q"], "w1": ["p"]},
            "worlds": ["w0", "w1"],
        },
    }


def test_tdtd_nor_report_is_pinned(capsys):
    # The paper's headline Gettier query, at the benchmark's bounds.  The
    # expected report is the one the search gave before node hashes were
    # cached, less the bounds keys that were dropped since (max_seeds and
    # the constant reasons and letters); the digest covers the whole
    # output, byte for byte.
    code, out, _ = run(
        capsys, "scenario", "TDTD+NoR", "--format", "json",
        "--bounds", "worlds=3,seeds=4,budget=120",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    first = _tdtd_nor_witness([])
    assert doc["consistency"] == first
    assert doc["witnesses"] == [
        _tdtd_nor_witness(t0)
        for t0 in ([], [["w0", "w0"]], [["w0", "w1"]], [["w0", "w0"], ["w0", "w1"]])
    ]
    verdicts = [
        (q["label"], q["status"], q["true_in"], q["witness_count"], q["nonvalidity"]["kind"])
        for q in doc["queries"]
    ]
    assert verdicts == [
        ("JTBe(p|q)", "holds-in-all-found-witnesses", 4, 4, "exhausted"),
        ("JTB+NIL(p|q)", "fails-in-some-witness", 0, 4, "witness"),
    ]
    assert doc["queries"][1]["counterexample"] == first
    assert doc["queries"][1]["nonvalidity"] == first
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "052d5e4380ad2178859c115a7c3bd57b8754b13ea3bf519829904770e7bc0312"
    )


# The other nine reports at the same bounds, frozen from the search as it
# stood before the point's belief literals filtered its family menu, less
# the dropped bounds keys; the digests cover the whole JSON output, byte
# for byte.
SCENARIO_DIGESTS = {
    "G2": "1d2d692fb6e8f4b4474b3a848a20ff2e9d7ebbb6d87876b56cf01c8266b8d9d6",
    "G2prime": "5a29d369ca7f3b2079734e11620e311847ea3769031c6cedb733ea1466fe3e7e",
    "Barn": "9c85670c062680dcc6f3e93c41c8d0665b477f541c9a8a6d9744bd2229bc5dca",
    "BarnPrime": "dcb3be17a5011093b7ddb79d4fc437e556e3c4dad09ff35800e33240d4d70cdb",
    "BarnAdequate": "ffc892fc0941bbdc7d43f542a843b4fb4898e8dc07a505b8fdffea9ca1ef2c20",
    "BarnInadequate": "f3d50d2e32ed9bf69ebf9f1d5540be97d6379ef55e7a929826e899e5621e03f7",
    "TDTD": "bed982e78b96ac24d57f02f1db32474c3c737d853501505c8d6c18ce30e27e2a",
    "noRCL": "6a6723d93e4ee1429da76b8969ed1bfc6b24d183a1165518c08395d85c24c019",
    "MixedMersenne": "5011db5701a2057b64a718db18f6ae3902963d27a0f28e49c45a942e19fe9dff",
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_report_is_pinned(capsys, name):
    code, out, _ = run(
        capsys, "scenario", name, "--format", "json",
        "--bounds", "worlds=3,seeds=4,budget=120",
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SCENARIO_DIGESTS[name]


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


def test_validate_model_report_is_independent_of_the_hash_seed(tmp_path):
    # Four worlds, so the masks of the believed sets run past 7 and a set
    # of them no longer iterates in ascending order: the (d) pairs must
    # still come in ascending order of the first set's mask.
    doc = {
        "worlds": ["w0", "w1", "w2", "w3"],
        "access": {"r": [], "s": []},
        "neighborhoods": {
            "w0": [["w0"], ["w1", "w2", "w3"], ["w0", "w3"], ["w1", "w2"]]
        },
        "valuation": {},
    }
    path = write_json(tmp_path, "d4.json", doc)
    src = str(pathlib.Path(rbb.__file__).resolve().parents[1])
    script = "import sys; from rbb.cli import main; sys.exit(main(sys.argv[1:]))"
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, "validate-model", "--format", "json", path],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == EXIT_REJECTED, proc.stderr
        report = json.loads(proc.stdout)
        assert [(v["prop"], v["world"], v["sets"]) for v in report["violations"]] == [
            ("d", "w0", [["w0"], ["w1", "w2", "w3"]]),
            ("d", "w0", [["w1", "w2"], ["w0", "w3"]]),
            ("d", "w0", [["w0", "w3"], ["w1", "w2"]]),
            ("d", "w0", [["w1", "w2", "w3"], ["w0"]]),
        ], seed


# Lists where the model document wants objects.
NOT_OBJECTS = {"access": [["w0", "w0"]], "neighborhoods": [["w0"]], "valuation": ["p"]}


@pytest.mark.parametrize("command", ["eval", "validate-model"])
@pytest.mark.parametrize("key", sorted(NOT_OBJECTS))
def test_model_field_that_is_not_an_object_is_bad_input(capsys, tmp_path, command, key):
    doc = {**TINY_MODEL, key: NOT_OBJECTS[key]}
    path = write_json(tmp_path, "m.json", doc)
    argv = ["eval", "--model", path, "p"] if command == "eval" else [command, path]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and key in err
    assert "internal error" not in err and "Traceback" not in out + err


# Values for `worlds` that are not a JSON array of strings, each with a world
# that its characters, keys or items would name.
NOT_WORLD_LISTS = {
    "string": ("ab", "a"),
    "object": ({"a": 1, "b": 2}, "a"),
    "nested": (["a", ["b"]], "a"),
    "numbers": ([0, 1], "0"),
}


@pytest.mark.parametrize("command", ["eval", "validate-model"])
@pytest.mark.parametrize("kind", sorted(NOT_WORLD_LISTS))
def test_worlds_that_are_not_an_array_of_strings_are_bad_input(
    capsys, tmp_path, command, kind
):
    worlds, world = NOT_WORLD_LISTS[kind]
    doc = {"worlds": worlds, "access": {"r": [], "s": []}}
    path = write_json(tmp_path, "m.json", doc)
    if command == "eval":
        argv = ["eval", "--model", path, "--at", world, "~p"]
    else:
        argv = [command, path]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "worlds" in err
    assert "internal error" not in err and "Traceback" not in out + err


# Entries of a model over the worlds a and b that are not arrays of strings
# where the format wants them: a string would be read as its characters,
# which name worlds and letters here.
NOT_STRING_ARRAYS = {
    "valuation-string": ("valuation", {"a": "pq"}),
    "valuation-number": ("valuation", {"a": 5}),
    "valuation-numbers": ("valuation", {"a": [1]}),
    "neighborhoods-string": ("neighborhoods", {"a": "ab"}),
    "neighborhoods-member-string": ("neighborhoods", {"a": ["ab"]}),
    "neighborhoods-member-number": ("neighborhoods", {"a": [1]}),
    "access-not-array": ("access", {"r": 5}),
    "access-pair-string": ("access", {"r": ["ab"]}),
    "access-pair-number": ("access", {"r": [1]}),
    "access-pair-triple": ("access", {"r": [["a", "b", "a"]]}),
    "access-pair-object": ("access", {"r": [{"a": 1, "b": 2}]}),
    "neighborhoods-member-object": ("neighborhoods", {"a": [{"a": 1}]}),
    "valuation-object": ("valuation", {"a": {"p": 1}}),
}


@pytest.mark.parametrize("command", ["eval", "validate-model"])
@pytest.mark.parametrize("kind", sorted(NOT_STRING_ARRAYS))
def test_model_entries_that_are_not_arrays_of_strings_are_bad_input(
    capsys, tmp_path, command, kind
):
    key, value = NOT_STRING_ARRAYS[kind]
    doc = {"worlds": ["a", "b"], "access": {"r": [], "s": []}, key: value}
    path = write_json(tmp_path, "m.json", doc)
    if command == "eval":
        argv = ["eval", "--model", path, "--at", "a", "~p"]
    else:
        argv = [command, path]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and key in err
    assert "internal error" not in err and "Traceback" not in out + err


LONG_NAME = "z" * 5000

# Model input that names a 5,000-character world, reason or point; the
# world to evaluate at, if any, is the last item.
LONG_NAMES = {
    "point": ({"worlds": ["w0"], "point": LONG_NAME}, None),
    "access-key": ({"worlds": ["w0"], "access": {LONG_NAME: 5}}, None),
    "valuation-key": ({"worlds": ["w0"], "valuation": {LONG_NAME: []}}, None),
    "pair-end": ({"worlds": ["w0"], "access": {"r": [["w0", LONG_NAME]]}}, None),
    "neighborhoods-key": ({"worlds": ["w0"], "neighborhoods": {LONG_NAME: []}}, None),
    "eval-at": (TINY_MODEL, LONG_NAME),
}


@pytest.mark.parametrize("kind", sorted(LONG_NAMES))
def test_model_input_errors_do_not_echo_long_names(capsys, tmp_path, kind):
    doc, world = LONG_NAMES[kind]
    path = write_json(tmp_path, "m.json", doc)
    if world is None:
        argv = ["validate-model", path]
    else:
        argv = ["eval", "--model", path, "--at", world, "p"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err[:100]
    assert "internal error" not in err and "Traceback" not in out + err


@pytest.mark.parametrize("command", ["eval", "validate-model"])
def test_model_document_that_is_not_an_object_is_bad_input(capsys, tmp_path, command):
    path = write_json(tmp_path, "m.json", [TINY_MODEL])
    argv = ["eval", "--model", path, "p"] if command == "eval" else [command, path]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and "JSON object" in err
    assert "internal error" not in err and "Traceback" not in out + err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # No exception may escape main: Python would exit 1, which means
    # "rejected".
    def broken(args):
        raise AttributeError("no such thing")

    monkeypatch.setattr("rbb.cli._cmd_parse", broken)
    code, out, err = run(capsys, "parse", "p")
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: internal error: AttributeError: no such thing\n"


class ClosedStdout(io.StringIO):
    """A standard output whose reader has gone, as after ``| head -c 0``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_malformed_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    code = main(["scenario", "Barn", "--witnesses", "1", "--bounds", "worlds=2"])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: standard output closed\n"


def test_closed_pipe_exits_without_a_traceback():
    # The pipe's reader is closed before the command starts, so the first
    # write fails; what is still buffered must not fail again at exit.
    src = str(pathlib.Path(rbb.__file__).resolve().parents[1])
    script = "import sys; from rbb.cli import main; sys.exit(main(sys.argv[1:]))"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, "parse", "p"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=writer,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
    finally:
        os.close(writer)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr == "error: standard output closed\n"


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
    assert out == "no countermodel within bounds (worlds<=3)\n"
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
    # A malformed variable is named, and an explicit budget bound wins over it.
    monkeypatch.setenv("RBB_BUDGET_SECS", "x")
    code, _, err = run(capsys, "find-model", "p")
    assert code == EXIT_BAD_INPUT
    assert err == "error: RBB_BUDGET_SECS needs a number, got 'x'\n"
    code, _, _ = run(capsys, "find-model", "p", "--bounds", "budget=1")
    assert code == EXIT_OK
    # The variable reads its value as the budget bound does: none and any
    # zero lift the cap.
    for value in ("none", "0", "0.0", "00", "-0"):
        monkeypatch.setenv("RBB_BUDGET_SECS", value)
        code, out, err = run(capsys, "nonvalid", "--bounds", "worlds=1", "B p -> p")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("not valid: countermodel found")
        monkeypatch.setenv("RBB_BUDGET_SECS", "1e-9")
        code, out, err = run(capsys, "nonvalid", "--bounds", f"worlds=1,budget={value}", "B p -> p")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("not valid: countermodel found")


def test_bounds_parsing(capsys):
    code, _, err = run(capsys, "find-model", "p", "--bounds", "worlds3")
    assert code == EXIT_BAD_INPUT and "KEY=VALUE" in err
    code, _, err = run(capsys, "find-model", "p", "--bounds", "depth=3")
    assert code == EXIT_BAD_INPUT and "unknown bound" in err
    code, _, _ = run(capsys, "find-model", "p", "--bounds", "worlds=1,budget=none")
    assert code == EXIT_OK
    # A malformed value names its bound instead of Python's conversion message.
    for bound, message in [
        ("worlds=x", "bound 'worlds' needs an integer, got 'x'"),
        ("seeds=1.5", "bound 'seeds' needs an integer, got '1.5'"),
        ("budget=abc", "bound 'budget' needs a number, got 'abc'"),
    ]:
        code, _, err = run(capsys, "nonvalid", "p", "--bounds", bound)
        assert code == EXIT_BAD_INPUT
        assert err == f"error: {message}\n"


def test_seeds_bound_is_accepted_and_has_no_effect(capsys):
    # Every family menu closes every subset of its pool, so seeds=N bounds
    # nothing; it is still read, and still checked as an integer.
    for formula, code in (("p | ~p", EXIT_EXHAUSTED), ("B p -> p", EXIT_OK)):
        for fmt in ("text", "json"):
            argv = ("nonvalid", "--format", fmt, formula, "--bounds")
            plain = run(capsys, *argv, "worlds=2")
            assert plain[0] == code
            assert run(capsys, *argv, "worlds=2,seeds=4") == plain


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


def test_scenario_attack_out_of_budget_exits_4(capsys, monkeypatch):
    # The consistency search finds a witness, but an attack that runs out
    # of budget leaves the report undecided: exit 4, not the witness's 0.
    monkeypatch.setattr(
        rbb.jtb, "check_nonvalidity", lambda *args: rbb.BudgetExceeded("stopped")
    )
    code, out, _ = run(capsys, "scenario", "noRCL")
    assert code == EXIT_BUDGET
    doc = json.loads(out)
    assert doc["consistency"]["kind"] == "witness"
    assert {q["nonvalidity"]["kind"] for q in doc["queries"]} == {"budget-exceeded"}


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_scenario_witness_cap_below_one_is_bad_input(capsys, cap):
    code, out, err = run(capsys, "scenario", "Barn", "--witnesses", cap, "--bounds", "worlds=2")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and "witness limit" in err


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
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4e3cc6d90f40fcaba4cfc60b6a9a7b6a4f9a938937dc33ebaabe33ab0fba89ed"
    )
    code, out, _ = run(capsys, "library", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["accepted"] == doc["total"] == 14
    assert all(row.keys() == {"name", "theory", "steps", "goal"} for row in doc["theorems"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ba50c21c7660cc389ac6b7045dd6b033078b68115fae06c3f91f142db4c197cb"
    )


def test_library_with_a_corrupt_fixture_exits_1(capsys, monkeypatch):
    cfg = rbb.TheoryConfig.from_name("RBB", ("r",), ("p",))
    p = rbb.Letter("p")
    broken = rbb.Proof(cfg, "Broken", p, (rbb.ProofStep(1, p, rbb.Axiom(rbb.SchemeId.CL)),))
    monkeypatch.setattr(rbb.library, "_fixtures", lambda: (broken,))
    rbb.library._checked.cache_clear()
    code, out, err = run(capsys, "library")
    assert code == EXIT_REJECTED and out == ""
    assert err == "library fixture failed: Broken: step 1: not an instance of (CL)\n"


def _proof_with(path, value):
    """A copy of IDENTITY_PROOF with ``value`` at the key path ``path``."""
    doc = json.loads(json.dumps(IDENTITY_PROOF))
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


# A justification value nested 400 deep, whose repr alone is 800
# characters, and a 5,000-character name.
DEEP = json.loads("[" * 400 + "]" * 400)
LONG = "x" * 5000

# Proof documents with a field of the wrong JSON type, each with the field
# that the error message must name.  A string for an array would be read as
# its characters, and the string "false" is truthy.  A justification that
# takes two values must be named with the shape it expects.  Three are
# justifications of the right type that name no scheme, no kind and no
# reason term, and one numbers its first step 2.  The rest are large or
# deeply nested values, which the message must describe, not echo whole.
BAD_PROOF_FIELDS = {
    "reasons-string": (_proof_with(("theory", "reasons"), "rs"), "reasons"),
    "letters-string": (_proof_with(("theory", "letters"), "pq"), "letters"),
    "allow-overlap-string": (
        _proof_with(("theory", "allow_overlap"), "false"), "allow_overlap"
    ),
    "goal-array": (_proof_with(("goal",), ["p"]), "goal"),
    "step-formula-object": (_proof_with(("steps", 0, "f"), {"a": 1}), "'f'"),
    "step-justification-string": (_proof_with(("steps", 0, "by"), "a"), "justification"),
    "step-index-string": (_proof_with(("steps", 0, "i"), "1"), "index"),
    "mp-one-index": (
        _proof_with(("steps", 0, "by"), {"mp": [1]}), "mp needs a JSON array [index, index]"
    ),
    "gen-number": (
        _proof_with(("steps", 0, "by"), {"gen": 3}), "gen needs a JSON array [index, variable]"
    ),
    "rn-string": (
        _proof_with(("steps", 0, "by"), {"rn": "ab"}), "rn needs a JSON array [index, reason]"
    ),
    "unknown-scheme": (_proof_with(("steps", 0, "by"), {"axiom": "XX"}), "unknown scheme 'XX'"),
    "unknown-justification": (
        _proof_with(("steps", 0, "by"), {"lemma": 1}), "unknown justification kind 'lemma'"
    ),
    "rn-formula": (
        _proof_with(("steps", 0, "by"), {"rn": [1, "r:p"]}), "rn needs a reason term, got 'r:p'"
    ),
    "step-misnumbered": (_proof_with(("steps", 0, "i"), 2), "step 1 is numbered 2"),
    "deep-justification": (_proof_with(("steps", 0, "by"), DEEP), "malformed justification"),
    "deep-mp": (_proof_with(("steps", 0, "by"), {"mp": DEEP}), "mp needs a JSON array"),
    "deep-index": (_proof_with(("steps", 0, "by"), {"e": DEEP}), "step index"),
    "deep-gen-variable": (_proof_with(("steps", 0, "by"), {"gen": [1, DEEP]}), "gen needs"),
    "deep-citation": (_proof_with(("steps", 0, "by"), {"cite": DEEP}), "cite needs"),
    "long-scheme": (_proof_with(("steps", 0, "by"), {"axiom": LONG}), "unknown scheme"),
    "long-kind": (_proof_with(("steps", 0, "by"), {LONG: 1}), "unknown justification kind"),
    "long-citation": (_proof_with(("steps", 0, "by"), {"cite": LONG}), "no theorem"),
    "long-step-symbol": (_proof_with(("steps", 0, "f"), LONG), "undeclared symbol"),
    "long-goal-symbol": (_proof_with(("goal",), LONG), "undeclared symbol"),
    "long-trailing": (_proof_with(("steps", 0, "f"), "p " + LONG), "unexpected trailing"),
    "long-rn-reason": (_proof_with(("steps", 0, "by"), {"rn": [1, LONG]}), "bad reason in rn"),
    "rn-number": (
        _proof_with(("steps", 0, "by"), {"rn": [1, 5]}), "rn needs a reason term string, got 5"
    ),
    "rn-undeclared": (
        _proof_with(("steps", 0, "by"), {"rn": [1, "z"]}),
        "bad reason in rn: undeclared symbol 'z'",
    ),
    "long-theory": (_proof_with(("theory", "theory"), LONG), "unknown theory"),
    "theory-array": (_proof_with(("theory", "theory"), list(range(1000))), "'theory'"),
    "long-reason": (_proof_with(("theory", "reasons"), ["r", "9" + LONG]), "invalid reason"),
    "long-duplicate-reason": (
        _proof_with(("theory", "reasons"), [LONG, LONG]), "duplicate reason"
    ),
    "long-overlap": (
        _proof_with(("theory",), {"theory": "RBB", "reasons": [LONG], "letters": [LONG]}),
        "alphabets overlap",
    ),
    "document-array": ([IDENTITY_PROOF], "a proof document must be a JSON object"),
    "steps-object": (_proof_with(("steps",), {}), "'steps'"),
    "name-null": (_proof_with(("name",), None), "proof field 'name' must be a string"),
    "name-number": (_proof_with(("name",), 5), "proof field 'name' must be a string"),
    "name-object": (_proof_with(("name",), {"x": [1]}), "proof field 'name' must be a string"),
}


@pytest.mark.parametrize("kind", sorted(BAD_PROOF_FIELDS))
def test_proof_field_of_the_wrong_type_is_bad_input(capsys, tmp_path, kind):
    doc, field = BAD_PROOF_FIELDS[kind]
    code, out, err = run(capsys, "check-proof", write_json(tmp_path, "p.json", doc))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and field in err
    assert err.count("\n") == 1 and len(err) < 200, err
    assert "internal error" not in err and "Traceback" not in out + err


# Command-line alphabets that no theory accepts, with the error each gives.
BAD_ALPHABETS = {
    "empty": (("--reasons", ""), "reason alphabet must be non-empty"),
    "duplicate": (("--reasons", "r,r"), "duplicate reason name 'r'"),
    "sigma-outside-sigma-theory": (
        ("--theory", "RBB", "--reasons", "sigma"),
        "'sigma' in the reason alphabet requires a sigma theory",
    ),
}


@pytest.mark.parametrize("kind", sorted(BAD_ALPHABETS))
def test_bad_alphabet_is_bad_input(capsys, kind):
    options, message = BAD_ALPHABETS[kind]
    assert run(capsys, "parse", *options, "p") == (EXIT_BAD_INPUT, "", f"error: {message}\n")


def test_justification_indices_are_not_read_from_a_string(capsys, tmp_path):
    # "12" must not pass for [1, 2].
    doc = {
        **IDENTITY_PROOF,
        "steps": [
            {"i": 1, "f": "p | ~p", "by": {"axiom": "CL"}},
            {"i": 2, "f": "(p | ~p) -> p -> p", "by": {"axiom": "CL"}},
            {"i": 3, "f": "p -> p", "by": {"mp": [1, 2]}},
        ],
    }
    code, _, _ = run(capsys, "check-proof", write_json(tmp_path, "p.json", doc))
    assert code == EXIT_OK
    doc["steps"][2]["by"] = {"mp": "12"}
    code, _, err = run(capsys, "check-proof", write_json(tmp_path, "p.json", doc))
    assert code == EXIT_BAD_INPUT and "index" in err


def test_eval_names_a_missing_relation(capsys, tmp_path):
    doc = {"worlds": ["w0"], "access": {"s": []}, "point": "w0"}
    path = write_json(tmp_path, "m.json", doc)
    code, _, err = run(capsys, "eval", "--model", path, "r:p")
    assert code == EXIT_BAD_INPUT
    assert err == "error: model has no relation entry for 'r'\n"


def test_nan_budget_is_bad_input(capsys, monkeypatch):
    # NaN compares false with every deadline, so it would lift the budget.
    argv = ("find-model", "B p", "--bounds", "worlds=1")
    code, _, err = run(capsys, *argv, "--bounds", "budget=nan")
    assert code == EXIT_BAD_INPUT and "bound 'budget'" in err
    monkeypatch.setenv("RBB_BUDGET_SECS", "nan")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT and "RBB_BUDGET_SECS" in err and "budget" in err
    code, _, _ = run(capsys, *argv, "--bounds", "budget=1")
    assert code == EXIT_OK


def test_infinite_budget_is_bad_input(capsys, monkeypatch):
    # No clock is ever past infinity, and JSON has no number to report it.
    argv = ("nonvalid", "--format", "json", "r:p -> r -> p")
    for value in ("inf", "1e999"):
        code, out, err = run(capsys, *argv, "--bounds", f"budget={value}")
        assert (code, out) == (EXIT_BAD_INPUT, "") and "budget" in err
        monkeypatch.setenv("RBB_BUDGET_SECS", value)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_BAD_INPUT, "") and "budget" in err
        monkeypatch.delenv("RBB_BUDGET_SECS")


def test_main_answers_each_call_as_if_it_were_the_first(capsys, monkeypatch):
    # The parser is built once per process; every later call must still get
    # its own arguments, defaults and exit code, and the handler that is
    # bound when it runs.
    def call(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def broken(args):
        raise AttributeError("no such thing")

    calls = [
        ("nonvalid", "B p -> p"),
        ("scenario", "Barn", "--witnesses", "1", "--bounds", "worlds=2"),
        ("parse", "--theory", "RBBs", "--format", "json", "sigma:p"),
        ("parse",),
        ("nonvalid", "--bounds", "worlds=1", "--format", "json", "r:p -> p"),
        ("parse", "p"),
    ]
    rbb.cli.build_parser.cache_clear()
    first = {argv: call(*argv) for argv in calls}
    assert [code for code, _, _ in first.values()] == [0, 0, 0, 2, 0, 0]
    patched = (EXIT_BAD_INPUT, "", "error: internal error: AttributeError: no such thing\n")
    for argv in [*calls[::-1], *calls]:
        assert call(*argv) == first[argv], argv
        monkeypatch.setattr("rbb.cli._cmd_parse", broken)
        assert call("parse", "p") == patched
        monkeypatch.undo()
    assert call("parse", "p") == first[("parse", "p")]


def test_a_formula_nested_too_deeply_is_bad_input(capsys):
    # Parsing is iterative, but printing and the search recurse, so a long
    # conjunction ends in RecursionError, which main reports as malformed
    # input.  ROADMAP item 5 will change this on purpose.
    deep = " & ".join(["p"] * 5000)
    for command in ("parse", "nonvalid"):
        code, out, err = run(capsys, command, deep)
        assert (code, out, err) == (EXIT_BAD_INPUT, "", "error: formula nested too deeply\n")


def _skeleton_proof(atoms):
    letters = [f"p{i}" for i in range(atoms)]
    goal = " | ".join([*letters, "~p0"])
    doc = _proof_with(("theory", "letters"), letters)
    doc["goal"] = doc["steps"][0]["f"] = goal
    return doc


# Checker diagnostics pinned through the CLI: (document, command, exit code,
# standard output, standard error).
DIAGNOSTICS = {
    "scheme-outside-theory": (
        _proof_with(("steps", 0, "by"), {"axiom": "MT"}) | {
            "theory": {"theory": "RBBs", "reasons": ["r"], "letters": ["p"]}
        },
        "check-proof",
        EXIT_REJECTED,
        "Rejected at step 1 (theory RBBs): scheme (MT) is not part of RBBs\n",
        "",
    ),
    "skeleton-over-cap": (
        _skeleton_proof(17),
        "check-proof",
        EXIT_REJECTED,
        "Rejected at step 1 (theory RBB): propositional skeleton has 17 atoms "
        "(cap 16); split the step into smaller pieces\n",
        "",
    ),
    "undeclared-relation": (
        {**TINY_MODEL, "access": {"r": [["w0", "w0"]]}},
        "validate-model",
        EXIT_BAD_INPUT,
        "",
        "error: model has no relation entry for declared reason 's'\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(DIAGNOSTICS))
def test_checker_diagnostic_is_pinned(capsys, tmp_path, kind):
    doc, command, *expected = DIAGNOSTICS[kind]
    result = run(capsys, command, write_json(tmp_path, "doc.json", doc))
    assert result == tuple(expected)


@pytest.mark.parametrize("command", ["check-proof", "validate-model", "eval"])
def test_json_nested_too_deeply_is_bad_input(capsys, tmp_path, command):
    # json.load recurses; its RecursionError is not a deep formula.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = ["eval", "--model", str(path), "p"] if command == "eval" else [command, str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        EXIT_BAD_INPUT, "", f"error: {path}: JSON document nested too deeply\n"
    )


@pytest.mark.parametrize("command", ["check-proof", "validate-model", "eval"])
@pytest.mark.parametrize(
    "data,reason",
    [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"worlds": ["a"],}', "Expecting property name enclosed in double quotes"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["empty", "trailing-comma", "not-utf-8"],
)
def test_a_file_that_is_not_json_is_named(capsys, tmp_path, command, data, reason):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    argv = ["eval", "--model", str(path), "p"] if command == "eval" else [command, str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith(f"error: {path}: not valid JSON: {reason}"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_at_an_empty_world_name_is_not_the_point(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", TINY_MODEL)
    code, out, err = run(capsys, "eval", "--model", path, "--at", "", "p")
    assert (code, out, err) == (EXIT_BAD_INPUT, "", "error: unknown world ''\n")


def test_input_errors_are_value_errors(capsys, monkeypatch):
    # main reports a ValueError as malformed input with its own message, so
    # every error class for a caller's bad input must be one.  A corrupt
    # bundled fixture is a defect of the package, not of the input.
    input_errors = (
        rbb.ParseError,
        rbb.semantics.UnknownWorld,
        rbb.semantics.UnknownReason,
        rbb.semantics.UnknownSymbol,
        rbb.semantics.AppSemanticsUndefined,
        rbb.proof.UnknownCitation,
        rbb.proof.TheoryMismatch,
        rbb.jtb.UnknownScenario,
        rbb.jtb.NoFreshVariable,
        rbb.theory.SkeletonTooLarge,
        rbb.syntax.CaptureError,
    )
    assert all(issubclass(cls, ValueError) for cls in input_errors)
    assert not issubclass(rbb.proof.FixtureCorrupt, ValueError)

    def raising(exc):
        def handler(args):
            raise exc
        return handler

    monkeypatch.setattr("rbb.cli._cmd_parse", raising(rbb.semantics.UnknownWorld("x")))
    assert run(capsys, "parse", "p") == (EXIT_BAD_INPUT, "", "error: x\n")
    # Any other exception, a KeyError included, is a bug in rbb.
    monkeypatch.setattr("rbb.cli._cmd_parse", raising(KeyError("k")))
    assert run(capsys, "parse", "p") == (
        EXIT_BAD_INPUT, "", "error: internal error: KeyError: 'k'\n"
    )
