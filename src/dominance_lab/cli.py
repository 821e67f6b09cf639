"""Command-line front end.

Commands: ``apply`` (one operator application), ``solve`` (iterate to the
fixpoint), ``compare`` (two fixpoints), ``check-monotonic`` (witness
mining), ``verify`` (named property suites) and ``paper-examples`` (the
same as ``verify --suite paper``).  Output is JSON by default, an aligned
text table with ``--format table``.

Exit codes: 0 success, 1 bad input (I/O, parse or usage errors), 2 a verify
suite found a violated assertion, 3 an exhaustive budget was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TextIO

from .analysis import (
    BudgetExceededError,
    Exhaustive,
    Sampled,
    check_monotonic,
    compare_fixpoints,
)
from .game_model import Game, GameFormatError, Restriction, game_from_json_dict
from .operators import apply_operator, iterate, operator_from_name
from .suites import SUITE_NAMES, default_seed, run_suite

__all__ = ["build_parser", "load_game", "main", "run"]

OPERATOR_CHOICES = ("ls", "mls", "gs", "mgs", "lw", "mlw", "gw", "mgw")
DEFAULT_SAMPLES = 1000


def _parse_json(text: str, source: str) -> object:
    """Decode one JSON input of the CLI; any failure is a GameFormatError naming ``source``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise GameFormatError(f"{source}: JSON nested too deeply") from None


def load_game(path: str) -> Game:
    """Load and validate a game file; raises GameFormatError or OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return game_from_json_dict(_parse_json(text, path))


def _parse_restriction(game: Game, text: str) -> Restriction:
    doc = _parse_json(text, "--restriction")
    if not isinstance(doc, dict):
        raise GameFormatError("restriction must be an object keyed by player name")
    kept: list[tuple[int, ...]] = []
    for player, name in enumerate(game.players):
        if name not in doc:
            raise GameFormatError(f"restriction is missing player {name!r}")
        labels = doc[name]
        if not isinstance(labels, list):
            raise GameFormatError(f"kept strategies of {name!r} must be a list")
        try:
            kept.append(tuple(game.strategy_index(player, label) for label in labels))
        except KeyError as exc:
            raise GameFormatError(str(exc.args[0])) from None
    for name in doc:
        if name not in game.players:
            raise GameFormatError(f"restriction names no player {name!r}")
    return Restriction(game, tuple(kept))


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return (int(lo), int(hi))
    value = int(text)
    return (value, value)


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(doc: dict, out: TextIO) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _kept_lines(kept_names: dict) -> str:
    return " | ".join(f"{p}: {' '.join(s) if s else '-'}" for p, s in kept_names.items())


def _emit_table(doc: dict, out: TextIO) -> None:
    command = doc.get("command", "")
    if command in ("solve", "apply"):
        out.write(f"operator: {doc['operator']}\n")
        for i, step in enumerate(doc.get("steps", []), start=1):
            out.write(f"step {i}: {_kept_lines(step['after'])}\n")
        key = "fixpoint" if command == "solve" else "after"
        out.write(f"{key}: {_kept_lines(doc[key])}\n")
    elif command == "compare":
        out.write(
            f"{doc['left']} fixpoint: {_kept_lines(doc['left_fixpoint'])}\n"
            f"{doc['right']} fixpoint: {_kept_lines(doc['right_fixpoint'])}\n"
            f"relation: {doc['relation']}\n"
        )
    elif command == "check-monotonic":
        witness = doc.get("witness")
        if witness is None:
            out.write(f"{doc['operator']}: no violation found\n")
        else:
            out.write(
                f"{doc['operator']}: violated\n"
                f"  smaller: {_kept_lines(witness['smaller'])}\n"
                f"  larger:  {_kept_lines(witness['larger'])}\n"
                f"  evidence: {witness['evidence']['player']} / "
                f"{witness['evidence']['strategy']}\n"
            )
    else:  # suite reports
        for check in doc.get("checks", []):
            out.write(f"{'PASS' if check['passed'] else 'FAIL'}  {check['name']}\n")
        certs = doc.get("certificates")
        if certs:
            out.write(
                f"certificates: {certs['replayed']}/{certs['emitted']} replayed\n"
            )
        out.write(f"suite {doc['suite']}: {'PASS' if doc['passed'] else 'FAIL'}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``run``."""
    parser = argparse.ArgumentParser(
        prog="dominance-lab",
        description="Iterated dominance elimination with exact arithmetic "
        "and replayable certificates.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("json", "table"), default="json",
        help="output format (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="apply an operator once", parents=[shared])
    p_apply.add_argument("--operator", required=True, help=f"one of {', '.join(OPERATOR_CHOICES)}")
    p_apply.add_argument("game", help="path to a game JSON file")
    p_apply.add_argument(
        "--restriction",
        help='kept strategies as JSON, e.g. \'{"Row": ["A"], "Column": ["X"]}\' '
        "(default: the full game)",
    )

    p_solve = sub.add_parser("solve", help="iterate an operator to its fixpoint", parents=[shared])
    p_solve.add_argument("--operator", required=True)
    p_solve.add_argument("game")
    p_solve.add_argument("--trace", action="store_true", help="include every step")

    p_compare = sub.add_parser("compare", help="compare two operators' fixpoints", parents=[shared])
    p_compare.add_argument("--left", required=True)
    p_compare.add_argument("--right", required=True)
    p_compare.add_argument("game")

    p_mono = sub.add_parser("check-monotonic", help="search for a monotonicity violation", parents=[shared])
    p_mono.add_argument("--operator", required=True)
    p_mono.add_argument("game")
    p_mono.add_argument("--budget", choices=("exhaustive", "sampled"), default="exhaustive")
    p_mono.add_argument("--cap", type=_count, default=None,
                        help="largest lattice the exhaustive budget accepts "
                        f"(default: {Exhaustive().cap})")
    p_mono.add_argument("--samples", type=_count, default=None,
                        help="restrictions the sampled budget draws "
                        f"(default: {DEFAULT_SAMPLES})")
    p_mono.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="run a property suite (CI gate: exit 2 on failure)", parents=[shared])
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--games", type=_count, default=None,
                          help="random-game count for the chosen suite")
    p_verify.add_argument("--players", type=_parse_range, default=None, metavar="LO..HI")
    p_verify.add_argument("--strategies", type=_parse_range, default=None, metavar="LO..HI")
    p_verify.add_argument("--payoffs", type=_parse_range, default=None, metavar="LO..HI",
                          help="payoff grid; write --payoffs=-5..5 for negative bounds")
    p_verify.add_argument("--tie-bias", type=float, default=None)

    sub.add_parser("paper-examples", help="the same as verify --suite paper", parents=[shared])
    return parser


def _run_parsed(args: argparse.Namespace, out: TextIO) -> int:
    code = 0
    if args.command == "apply":
        kind = operator_from_name(args.operator)
        game = load_game(args.game)
        restriction = (
            _parse_restriction(game, args.restriction)
            if args.restriction
            else Restriction.full(game)
        )
        step = apply_operator(kind, restriction)
        doc = {
            "command": "apply",
            "operator": kind.name,
            "before": step.before.kept_names(),
            "after": step.after.kept_names(),
            "certificates": [c.to_dict() for c in step.certificates],
        }
    elif args.command == "solve":
        kind = operator_from_name(args.operator)
        game = load_game(args.game)
        trace = iterate(kind, game)
        doc = {
            "command": "solve",
            "operator": kind.name,
            "eliminating_steps": trace.eliminating_steps,
            "fixpoint": trace.fixpoint.kept_names(),
        }
        if args.trace:
            doc["steps"] = [s.to_dict() for s in trace.steps]
    elif args.command == "compare":
        game = load_game(args.game)
        report = compare_fixpoints(
            operator_from_name(args.left), operator_from_name(args.right), game
        )
        doc = {"command": "compare", **report.to_dict()}
    elif args.command == "check-monotonic":
        kind = operator_from_name(args.operator)
        game = load_game(args.game)
        if args.budget == "exhaustive":
            unused = {"--samples": args.samples, "--seed": args.seed}
            cap = args.cap if args.cap is not None else Exhaustive().cap
            budget: Exhaustive | Sampled = Exhaustive(cap=cap)
            budget_doc: dict = {"kind": "exhaustive", "cap": cap}
        else:
            unused = {"--cap": args.cap}
            seed = args.seed if args.seed is not None else default_seed()
            count = args.samples if args.samples is not None else DEFAULT_SAMPLES
            budget = Sampled(seed=seed, count=count)
            budget_doc = {"kind": "sampled", "seed": seed, "count": count}
        unused_flags = [flag for flag, value in unused.items() if value is not None]
        if unused_flags:
            raise ValueError(f"--budget {args.budget} does not use {', '.join(unused_flags)}")
        witness = check_monotonic(kind, game, budget)
        doc = {
            "command": "check-monotonic",
            "operator": kind.name,
            "budget": budget_doc,
            "witness": witness.to_dict() if witness else None,
        }
    elif args.command == "verify":
        # (flag, value, theorem_suite keyword) of each random-game setting.
        settings = (
            ("--players", args.players, "players"),
            ("--strategies", args.strategies, "strategies"),
            ("--payoffs", args.payoffs, "payoff_range"),
            ("--tie-bias", args.tie_bias, "tie_bias"),
        )
        unused = [] if args.suite in ("theorems", "all") else [
            flag for flag, value, _ in settings if value is not None
        ]
        if args.games is not None and args.suite in ("paper", "determinism"):
            unused.append("--games")
        if unused:
            raise ValueError(f"--suite {args.suite} does not use {', '.join(unused)}")
        theorem_config = {key: value for _, value, key in settings if value is not None}
        report = run_suite(
            args.suite, seed=args.seed, games=args.games, theorem_config=theorem_config
        )
        doc = report.to_dict()
        code = 0 if report.passed else 2

    if args.format == "json":
        _emit(doc, out)
    else:
        _emit_table(doc, out)
    return code


def run(argv: list[str], out: TextIO) -> int:
    """Parse and execute one command, writing results to ``out``."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verify failures.
        return 0 if exc.code in (0, None) else 1
    if args.command == "paper-examples":  # an alias of ``verify --suite paper``
        args = parser.parse_args(["verify", "--suite", "paper", "--format", args.format])
    try:
        return _run_parsed(args, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GameFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:], sys.stdout))
