"""Command-line front end.

Each subcommand is a thin wrapper over one library entry point: parse the
inputs, call it, print the result as plain text or sorted-key JSON.  The
exit codes are part of the contract and scripts may rely on them:

    0  success: parsed, evaluated, validated, witness found
    1  rejected: a proof failed, a model violated its frame properties,
       or a library fixture did not check
    2  malformed input: unparsable formula, bad file, unknown name,
       or a formula nested too deeply to traverse; also any other
       exception, reported as "error: internal error: <Type>: <message>",
       so that an uncaught exception never exits 1; also a closed
       standard output, reported as "error: standard output closed"
    3  bounded search exhausted without a witness
    4  search budget exceeded.  ``rbb scenario`` exits 4 when its
       consistency search or any attack ran out of budget, and otherwise
       as its consistency search does

Malformed input reaches ``main`` as a ValueError or, for a file that
cannot be read, an OSError.  Every error class rbb raises for a caller's
bad input or argument subclasses ValueError: ParseError, UnknownWorld,
UnknownReason, UnknownSymbol, AppSemanticsUndefined, UnknownCitation,
TheoryMismatch, UnknownScenario, NoFreshVariable, SkeletonTooLarge and
CaptureError.  FixtureCorrupt is not one: it is a defect of the package,
and ``rbb library`` reports it as a rejection.

The default search budget is 60 seconds.  RBB_BUDGET_SECS overrides it and
``--bounds budget=...`` wins over both; either lifts the cap with ``none``
or a zero such as ``0`` or ``0.0``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Sequence

from .jtb import (
    SCENARIO_NAMES,
    analyze_scenario,
    report_to_doc,
    report_to_text,
    scenario,
)
from .library import derived_library
from .parser import parse, print_formula
from .proof import FixtureCorrupt, check_proof, proof_from_doc
from .search import (
    BudgetExceeded,
    Exhausted,
    SearchBounds,
    Witness,
    check_nonvalidity,
    find_model,
    outcome_to_doc,
)
from .semantics import (
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

def _split(csv: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in csv.split(",") if part.strip())


def _theory(args: argparse.Namespace) -> TheoryConfig:
    return TheoryConfig.from_name(
        args.theory, _split(args.reasons), _split(args.letters)
    )


def _number(convert: type, text: str, what: str):
    """``convert(text)``, or a ValueError that names what the text is for."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{what} needs {kind}, got {text!r}") from None


def _budget(value: str, what: str) -> float | None:
    """Seconds, or None for ``none`` and any zero, which lift the cap."""
    secs = None if value == "none" else _number(float, value, what)
    # NaN is truthy and refused too: no clock is ever past it or infinity.
    if secs and not 0 < secs < math.inf:
        raise ValueError(f"{what} needs a positive finite budget, 0 or none, got {value!r}")
    return secs or None


def _bounds(args: argparse.Namespace) -> SearchBounds:
    """Fold ``--bounds KEY=VALUE`` clauses over the defaults."""
    given: dict = {}
    for clause in args.bounds or ():
        for piece in clause.split(","):
            key, eq, value = piece.partition("=")
            key, value = key.strip(), value.strip()
            if not eq:
                raise ValueError(f"bounds take KEY=VALUE, got {piece!r}")
            what = f"bound {key!r}"
            if key == "worlds":
                given["max_worlds"] = _number(int, value, what)
            elif key == "seeds":
                # Still read, so that callers passing it keep working, and
                # checked, but ignored: every family menu closes its whole pool.
                _number(int, value, what)
            elif key == "budget":
                given["budget_secs"] = _budget(value, what)
            else:
                raise ValueError(f"unknown bound {key!r}; expected worlds or budget")
    if "budget_secs" not in given:
        env = os.environ.get("RBB_BUDGET_SECS")
        given["budget_secs"] = (
            DEFAULT_BUDGET_SECS if env is None else _budget(env, "RBB_BUDGET_SECS")
        )
    return SearchBounds(**given)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON document nested too deeply") from None
        except ValueError as exc:  # bad syntax, bytes that are not UTF-8, a huge integer
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


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
        print(f"{exhausted_text} (worlds<={outcome.bounds.max_worlds})")
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
    world = point if args.at is None else args.at
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
    outcomes = [report.consistency, *(q.nonvalidity for q in report.queries)]
    if any(isinstance(outcome, BudgetExceeded) for outcome in outcomes):
        return EXIT_BUDGET
    return _outcome_exit(report.consistency)


def _cmd_library(args: argparse.Namespace) -> int:
    try:
        lib = derived_library()
    except FixtureCorrupt as exc:
        print(f"library fixture failed: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    # derived_library() checks every proof and raises on the first rejection.
    rows = [
        {
            "name": name,
            "theory": thm.proof.theory.name,
            "steps": len(thm.proof.steps),
            "goal": print_formula(thm.proof.goal),
        }
        for name, thm in sorted(lib.items())
    ]
    if args.format == "json":
        _emit_json({"theorems": rows, "accepted": len(rows), "total": len(rows)})
    else:
        widths = [max(len(row[key]) for row in rows) for key in ("name", "theory")]
        line = "{name:<{0}}  {theory:<{1}}  {steps:>3}  pass  {goal}"
        for row in rows:
            print(line.format(*widths, **row))
        print(f"{len(rows)}/{len(rows)} accepted")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rbb`` parser, built on the first call and shared after it.

    A subcommand's handler is ``_cmd_<name>``, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="rbb",
        description="Proof checking, model evaluation, and bounded model "
        "search for the logic of reason-based belief.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, fmt="text", theory=False, bounds=False):
        cmd = sub.add_parser(name, help=help_text)
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
                help="search bounds: worlds=N, budget=SECS (repeatable, "
                "comma-separable; budget=none lifts the cap; seeds=N is "
                "accepted and has no effect)",
            )
        return cmd

    cmd = command("parse", "parse a formula and print its canonical form", theory=True)
    cmd.add_argument("formula")

    cmd = command("check-proof", "check a proof document")
    cmd.add_argument("proof", help="path to a proof JSON file")

    cmd = command("eval", "evaluate a formula on a model", theory=True)
    cmd.add_argument("--model", required=True, help="path to a model JSON file")
    cmd.add_argument("--at", metavar="WORLD", help="world to evaluate at (default: the model's point)")
    cmd.add_argument("formula")

    cmd = command("validate-model", "check a model's frame properties", theory=True)
    cmd.add_argument("model", help="path to a model JSON file")

    cmd = command("find-model", "search for a model of the goals", theory=True, bounds=True)
    cmd.add_argument("goals", nargs="+", metavar="FORMULA")

    cmd = command("nonvalid", "search for a countermodel to a formula", theory=True, bounds=True)
    cmd.add_argument("formula")

    cmd = command("scenario", "analyze a built-in scenario", fmt="json", bounds=True)
    cmd.add_argument("name", choices=SCENARIO_NAMES)
    cmd.add_argument("--witnesses", type=int, default=4, metavar="N", help="witness cap per scenario (default 4)")

    cmd = command("library", "check every library derivation and print a table")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Send what is still buffered to the null device, so that the flush
        # at exit does not fail again and print "Exception ignored".
        try:
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        except (AttributeError, OSError, ValueError):
            pass  # a stream with no file descriptor keeps nothing for the exit
        print("error: standard output closed", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
