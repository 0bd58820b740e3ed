"""Command-line front end.

Each subcommand is a thin wrapper over one library entry point: parse the
inputs, call it, print the result as plain text or sorted-key JSON.  The
exit codes are part of the contract and scripts may rely on them:

    0  success: parsed, evaluated, validated, witness found
    1  rejected: a proof failed, a model violated its frame properties,
       or a library fixture did not check
    2  malformed input: unparsable formula, bad file, unknown name,
       or a formula nested too deeply to traverse
    3  bounded search exhausted without a witness
    4  search budget exceeded

The default search budget is 60 seconds.  The RBB_BUDGET_SECS environment
variable overrides it, and an explicit ``--bounds budget=...`` wins over
both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from .jtb import (
    SCENARIO_NAMES,
    UnknownScenario,
    analyze_scenario,
    report_to_doc,
    report_to_text,
    scenario,
)
from .library import derived_library
from .parser import ParseError, parse, print_formula
from .proof import (
    FixtureCorrupt,
    TheoryMismatch,
    UnknownCitation,
    check_proof,
    proof_from_doc,
)
from .search import (
    Exhausted,
    SearchBounds,
    Witness,
    check_nonvalidity,
    find_model,
    outcome_to_doc,
)
from .semantics import (
    AppSemanticsUndefined,
    UnknownReason,
    UnknownSymbol,
    UnknownWorld,
    Violation,
    model_from_doc,
    model_to_doc,
    satisfies,
    validate_model,
)
from .theory import THEORY_NAMES, TheoryConfig

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
EXIT_EXHAUSTED = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET_SECS = 60.0

# Everything a malformed invocation can raise.  json.JSONDecodeError is a
# ValueError subclass; KeyError and TypeError cover structurally bad docs.
_BAD_INPUT = (
    ParseError,
    ValueError,
    KeyError,
    TypeError,
    OSError,
    UnknownScenario,
    UnknownCitation,
    TheoryMismatch,
    UnknownWorld,
    UnknownReason,
    UnknownSymbol,
    AppSemanticsUndefined,
)


def _split(csv: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in csv.split(",") if part.strip())


def _theory(args: argparse.Namespace) -> TheoryConfig:
    return TheoryConfig.from_name(
        args.theory, _split(args.reasons), _split(args.letters)
    )


def _bounds(args: argparse.Namespace) -> SearchBounds:
    """Fold ``--bounds KEY=VALUE`` clauses over the defaults."""
    worlds, seeds = 3, 4
    budget: float | None = float(
        os.environ.get("RBB_BUDGET_SECS", DEFAULT_BUDGET_SECS)
    )
    for clause in args.bounds or ():
        for piece in clause.split(","):
            key, eq, value = piece.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                raise ValueError(f"bounds take KEY=VALUE, got {piece!r}")
            if key == "worlds":
                worlds = int(value)
            elif key == "seeds":
                seeds = int(value)
            elif key == "budget":
                budget = None if value in ("none", "0") else float(value)
            else:
                raise ValueError(
                    f"unknown bound {key!r}; expected worlds, seeds, or budget"
                )
    return SearchBounds(max_worlds=worlds, max_seeds=seeds, budget_secs=budget)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _model_lines(doc: dict) -> list[str]:
    out = [f"worlds: {' '.join(doc['worlds'])}"]
    if doc.get("point") is not None:
        out.append(f"point: {doc['point']}")
    for name in sorted(doc["access"]):
        pairs = " ".join(f"{a}>{b}" for a, b in doc["access"][name])
        out.append(f"access {name}: {pairs or '(empty)'}")
    for world in doc["worlds"]:
        sets = " ".join(
            "{" + ",".join(members) + "}" for members in doc["neighborhoods"][world]
        )
        out.append(f"N({world}): {sets or '(none)'}")
    for world in doc["worlds"]:
        true = " ".join(doc["valuation"][world])
        out.append(f"true at {world}: {true or '(none)'}")
    return out


def _outcome_exit(outcome) -> int:
    if isinstance(outcome, Witness):
        return EXIT_OK
    if isinstance(outcome, Exhausted):
        return EXIT_EXHAUSTED
    return EXIT_BUDGET


def _report_outcome(args, outcome, found_text: str, exhausted_text: str) -> int:
    if args.format == "json":
        _emit_json(outcome_to_doc(outcome))
    elif isinstance(outcome, Witness):
        print(found_text)
        for line in _model_lines(model_to_doc(outcome.model, outcome.world)):
            print(line)
    elif isinstance(outcome, Exhausted):
        bounds = outcome.bounds
        print(
            f"{exhausted_text} "
            f"(worlds<={bounds.max_worlds}, seeds<={bounds.max_seeds})"
        )
    else:
        print(f"budget exceeded: {outcome.progress}")
    return _outcome_exit(outcome)


# Subcommand handlers


def _cmd_parse(args: argparse.Namespace) -> int:
    cfg = _theory(args)
    text = print_formula(parse(args.formula, cfg))
    if args.format == "json":
        _emit_json({"formula": text, "theory": cfg.name})
    else:
        print(text)
    return EXIT_OK


def _cmd_check_proof(args: argparse.Namespace) -> int:
    proof = proof_from_doc(_load_json(args.proof))
    verdict = check_proof(proof, derived_library())
    name = proof.theory.name
    if args.format == "json":
        _emit_json(
            {
                "accepted": verdict.accepted,
                "theory": name,
                "steps": len(proof.steps),
                "step": verdict.step,
                "diagnostic": verdict.diagnostic,
            }
        )
    elif verdict.accepted:
        print(f"Accepted (theory {name}, {len(proof.steps)} steps)")
    else:
        print(f"Rejected at step {verdict.step} (theory {name}): {verdict.diagnostic}")
    return EXIT_OK if verdict.accepted else EXIT_REJECTED


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _theory(args)
    model, point = model_from_doc(_load_json(args.model))
    world = args.at or point
    if world is None:
        raise ValueError("the model file has no point; pass --at WORLD")
    value = satisfies(model, world, parse(args.formula, cfg), cfg)
    if args.format == "json":
        _emit_json({"formula": args.formula, "world": world, "value": value})
    else:
        print("true" if value else "false")
    return EXIT_OK


def _violation_doc(violation: Violation) -> dict:
    return {
        "prop": violation.prop,
        "world": violation.world,
        "reasons": list(violation.reasons),
        "sets": [sorted(members) for members in violation.sets],
        "detail": violation.detail,
    }


def _cmd_validate_model(args: argparse.Namespace) -> int:
    cfg = _theory(args)
    model, _ = model_from_doc(_load_json(args.model))
    report = validate_model(model, cfg)
    if args.format == "json":
        _emit_json(
            {
                "ok": report.ok,
                "theory": cfg.name,
                "violations": [_violation_doc(v) for v in report.violations],
            }
        )
    elif report.ok:
        print("ok")
    else:
        for violation in report.violations:
            where = f" at {violation.world}" if violation.world else ""
            print(f"({violation.prop}){where}: {violation.detail}")
    return EXIT_OK if report.ok else EXIT_REJECTED


def _cmd_find_model(args: argparse.Namespace) -> int:
    cfg = _theory(args)
    goals = tuple(parse(text, cfg) for text in args.goals)
    outcome = find_model(goals, cfg, _bounds(args))
    return _report_outcome(
        args, outcome, "witness found", "no model within bounds"
    )


def _cmd_nonvalid(args: argparse.Namespace) -> int:
    cfg = _theory(args)
    outcome = check_nonvalidity(parse(args.formula, cfg), cfg, _bounds(args))
    return _report_outcome(
        args,
        outcome,
        "not valid: countermodel found",
        "no countermodel within bounds",
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    report = analyze_scenario(
        scenario(args.name), bounds=_bounds(args), witness_cap=args.witnesses
    )
    if args.format == "text":
        print(report_to_text(report))
    else:
        _emit_json(report_to_doc(report))
    return _outcome_exit(report.consistency)


def _cmd_library(args: argparse.Namespace) -> int:
    try:
        lib = derived_library()
    except FixtureCorrupt as exc:
        print(f"library fixture failed: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    rows = []
    for name in sorted(lib):
        thm = lib[name]
        verdict = check_proof(thm.proof, lib)
        rows.append(
            (
                name,
                thm.proof.theory.name,
                len(thm.proof.steps),
                print_formula(thm.proof.goal),
                verdict.accepted and thm.verdict.accepted,
            )
        )
    passed = sum(1 for row in rows if row[4])
    if args.format == "json":
        _emit_json(
            {
                "theorems": [
                    {
                        "name": name,
                        "theory": theory,
                        "steps": steps,
                        "goal": goal,
                        "accepted": ok,
                    }
                    for name, theory, steps, goal, ok in rows
                ],
                "accepted": passed,
                "total": len(rows),
            }
        )
    else:
        name_w = max(len(row[0]) for row in rows)
        theory_w = max(len(row[1]) for row in rows)
        for name, theory, steps, goal, ok in rows:
            mark = "pass" if ok else "FAIL"
            print(f"{name:<{name_w}}  {theory:<{theory_w}}  {steps:>3}  {mark}  {goal}")
        print(f"{passed}/{len(rows)} accepted")
    return EXIT_OK if passed == len(rows) else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbb",
        description="Proof checking, model evaluation, and bounded model "
        "search for the logic of reason-based belief.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, fmt="text", theory=False, bounds=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument(
            "--format", choices=("text", "json"), default=fmt,
            help=f"output format (default {fmt})",
        )
        if theory:
            cmd.add_argument(
                "--theory", choices=THEORY_NAMES, default="RBB",
                help="theory class (default RBB)",
            )
            cmd.add_argument(
                "--reasons", default="r,s", metavar="CSV",
                help="declared reason names (default r,s)",
            )
            cmd.add_argument(
                "--letters", default="p,q", metavar="CSV",
                help="declared proposition letters (default p,q)",
            )
        if bounds:
            cmd.add_argument(
                "--bounds", action="append", metavar="KEY=VALUE",
                help="search bounds: worlds=N, seeds=N, budget=SECS "
                "(repeatable, comma-separable; budget=none lifts the cap)",
            )
        return cmd

    cmd = command("parse", _cmd_parse, "parse a formula and print its canonical form", theory=True)
    cmd.add_argument("formula")

    cmd = command("check-proof", _cmd_check_proof, "check a proof document")
    cmd.add_argument("proof", help="path to a proof JSON file")

    cmd = command("eval", _cmd_eval, "evaluate a formula on a model", theory=True)
    cmd.add_argument("--model", required=True, help="path to a model JSON file")
    cmd.add_argument("--at", metavar="WORLD", help="world to evaluate at (default: the model's point)")
    cmd.add_argument("formula")

    cmd = command("validate-model", _cmd_validate_model, "check a model's frame properties", theory=True)
    cmd.add_argument("model", help="path to a model JSON file")

    cmd = command("find-model", _cmd_find_model, "search for a model of the goals", theory=True, bounds=True)
    cmd.add_argument("goals", nargs="+", metavar="FORMULA")

    cmd = command("nonvalid", _cmd_nonvalid, "search for a countermodel to a formula", theory=True, bounds=True)
    cmd.add_argument("formula")

    cmd = command("scenario", _cmd_scenario, "analyze a built-in scenario", fmt="json", bounds=True)
    cmd.add_argument("name", choices=SCENARIO_NAMES)
    cmd.add_argument("--witnesses", type=int, default=4, metavar="N", help="witness cap per scenario (default 4)")

    cmd = command("library", _cmd_library, "check every library derivation and print a table")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
