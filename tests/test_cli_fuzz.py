"""Fuzz `rbb.cli.main` with random argv, formulas and malformed documents.

Whatever the input, the command must end in one of the exit codes 0-4 of
the `rbb.cli` table, print no traceback, and never fall through to the
"internal error" catch-all, which is the only sign of an unhandled case.
Searches stay small (worlds <= 2, budget <= 0.2 s), and the run is
derandomized, so it is the same every time.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from rbb.cli import main
from rbb.jtb import SCENARIO_NAMES
from rbb.theory import THEORY_NAMES

MODEL = {
    "worlds": ["w0", "w1"],
    "access": {"r": [["w0", "w1"], ["w1", "w1"]], "s": [["w0", "w0"]]},
    "neighborhoods": {"w0": [["w1"]], "w1": []},
    "valuation": {"w0": ["p"], "w1": []},
    "point": "w0",
}

PROOF = {
    "name": "mp",
    "theory": {
        "theory": "RBB", "reasons": ["r"], "letters": ["p"], "allow_overlap": False
    },
    "goal": "p -> p",
    "steps": [
        {"i": 1, "f": "p | ~p", "by": {"axiom": "CL"}},
        {"i": 2, "f": "(p | ~p) -> p -> p", "by": {"axiom": "CL"}},
        {"i": 3, "f": "p -> p", "by": {"mp": [1, 2]}},
    ],
}

TOKENS = (
    "p", "q", "m", "r", "s", "t", "u", "sigma", "A", "E", "B", "~", "&", "|",
    "->", "<->", "(", ")", ":", "=", "!=", "*", ".", "1", "@", "",
    "\u00e9", "\u00b2", "\u00a0",
)
FORMULAS = st.sampled_from(
    ["p", "B p -> p", "r:p & ~s:q", "A t. t:p", "E t. B t", "r = s", "s * r:p"]
) | st.lists(st.sampled_from(TOKENS), max_size=10).map(" ".join)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats()
    | st.text("pqrsw01 ", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("pqrsw01", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, path=()):
    """Every (path, key) at which a value of ``node`` can be replaced."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, (*path, key))


@st.composite
def documents(draw, base):
    """``base`` with one value replaced or dropped, or a broken file."""
    kind = draw(st.sampled_from(["slot", "slot", "slot", "whole", "text"]))
    if kind == "text":
        return draw(st.sampled_from(["", "{", "[1,", "{not json", "null", '"x"']))
    if kind == "whole":
        return json.dumps(draw(JSON))
    doc = json.loads(json.dumps(base))
    path, key = draw(st.sampled_from(list(_slots(doc))))
    node = doc
    for step in path:
        node = node[step]
    if draw(st.booleans()):
        node[key] = draw(JSON)
    elif isinstance(node, dict):
        del node[key]
    else:
        node.pop(key)
    return json.dumps(doc)


THEORY_OPTIONS = st.just([]) | st.lists(
    st.sampled_from(
        [
            *(["--theory", name] for name in THEORY_NAMES),
            ["--theory", "Q"],
            *(
                [flag, value]
                for flag in ("--reasons", "--letters")
                for value in ("r,s", "r", "p,q", "", "sigma", "B", "r,r", "1x", "r,,s")
            ),
            ["--format", "json"],
        ]
    ),
    max_size=3,
).map(lambda parts: [arg for part in parts for arg in part])

# The last clause always sets small worlds and budget; the clauses after it
# are bad or keep the search small.
SAFE_BOUNDS = st.builds(
    "worlds={},budget={}".format, st.sampled_from([1, 2]), st.sampled_from([0.05, 0.2])
)
BAD_BOUNDS = st.lists(
    st.sampled_from(
        [
            "worlds=0", "worlds=7", "worlds=x", "seeds=0", "seeds=2", "seeds=9",
            "seeds=-1", "budget=-1", "budget=nan", "budget=x", "depth=3",
            "worlds", "=", "worlds=1,,seeds=1",
        ]
    ),
    max_size=2,
)


@st.composite
def bounds(draw):
    clauses = [draw(SAFE_BOUNDS), *draw(BAD_BOUNDS)]
    return [arg for clause in clauses for arg in ("--bounds", clause)]


@st.composite
def invocations(draw):
    """``(argv, files, env)``; "@model" and "@proof" in argv name files."""
    command = draw(
        st.sampled_from(
            ["parse", "eval", "validate-model", "check-proof", "find-model",
             "nonvalid", "scenario", "library", "frobnicate"]
        )
    )
    files = {}
    if command in ("eval", "validate-model"):
        files["@model"] = draw(documents(MODEL))
    if command == "check-proof":
        files["@proof"] = draw(documents(PROOF))
    argv = [command]
    if command in ("parse", "eval", "validate-model", "find-model", "nonvalid"):
        argv += draw(THEORY_OPTIONS)
    if command in ("find-model", "nonvalid", "scenario"):
        argv += draw(bounds())
    if command == "parse" or command == "nonvalid":
        argv.append(draw(FORMULAS))
    elif command == "eval":
        argv += ["--model", "@model"]
        if draw(st.booleans()):
            argv += ["--at", draw(st.sampled_from(["w0", "w1", "w9"]))]
        argv.append(draw(FORMULAS))
    elif command == "validate-model":
        argv.append("@model")
    elif command == "check-proof":
        argv.append("@proof")
    elif command == "find-model":
        argv += draw(st.lists(FORMULAS, min_size=1, max_size=2))
    elif command == "scenario":
        argv.append(draw(st.sampled_from([*SCENARIO_NAMES, "G3"])))
        if draw(st.booleans()):
            argv += ["--witnesses", draw(st.sampled_from(["-1", "0", "2", "x"]))]
    env = draw(st.sampled_from([None, "0.1", "nan", "-1", "x"]))
    return argv, files, env


def _proof_case(goal=PROOF["goal"], **theory):
    doc = json.loads(json.dumps(PROOF))
    doc["goal"] = goal
    doc["theory"].update(theory)
    return ["check-proof", "@proof"], {"@proof": json.dumps(doc)}, None


def _step_case(**step):
    doc = json.loads(json.dumps(PROOF))
    doc["steps"][0].update(step)
    return ["check-proof", "@proof"], {"@proof": json.dumps(doc)}, None


def _call(argv, files, env):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        paths = {}
        for i, (name, text) in enumerate(files.items()):
            paths[name] = os.path.join(tmp, f"{i}.json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        os.environ.pop("RBB_BUDGET_SECS", None)
        if env is not None:
            os.environ["RBB_BUDGET_SECS"] = env
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([paths.get(arg, arg) for arg in argv])
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(invocations())
@example(_proof_case(reasons="rs"))
@example(_proof_case(letters="pq"))
@example(_proof_case(allow_overlap="false"))
@example(_proof_case(goal=["p"]))
@example(_step_case(f={"a": 1}))
@example(_step_case(by="a"))
@example(_step_case(i=float("inf")))
@example((["nonvalid", "--bounds", "worlds=1,budget=nan", "p"], {}, None))
@example((["nonvalid", "--bounds", "worlds=1", "p"], {}, "nan"))
def test_every_invocation_ends_in_a_contract_exit(case):
    argv, files, env = case
    code, out, err = _call(*case)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in out + err, (argv, err)
    assert "internal error" not in err, (argv, files, err)
