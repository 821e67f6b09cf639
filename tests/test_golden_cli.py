"""Byte-identity of CLI output against recorded golden data.

``tests/golden/cli.json`` holds the stdout and exit code of each command in
``COMMANDS``.  A bundled game name in an argv stands for that game's file.
Regenerate the data (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
from importlib import resources
from pathlib import Path

import pytest

from dominance_lab.cli import OPERATOR_CHOICES, run

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
GAMES = ("section3", "example41")

COMMANDS = (
    [
        argv
        for game in GAMES
        for op in OPERATOR_CHOICES
        for argv in (
            ["solve", "--operator", op, "--trace", game],
            ["solve", "--operator", op, "--trace", "--format", "table", game],
            ["check-monotonic", "--operator", op, game],
        )
    ]
    + [
        ["compare", "--left", "mlw", "--right", "lw", "example41"],
        ["apply", "--operator", "ls", "section3",
         "--restriction", '{"Row": ["B"], "Column": ["X"]}'],
        ["verify", "--suite", "paper"],
        ["verify", "--suite", "determinism", "--seed", "99"],
        ["verify", "--suite", "theorems", "--games", "20"],
        ["verify", "--suite", "oracle", "--games", "10"],
        ["verify", "--suite", "monotonicity", "--games", "10"],
        ["paper-examples"],
        ["compare", "--left", "mlw", "--right", "lw", "--format", "table", "example41"],
        ["check-monotonic", "--operator", "ls", "--format", "table", "section3"],
        ["check-monotonic", "--operator", "gs", "--format", "table", "section3"],
    ]
)


def _run(argv: list[str]) -> tuple[int, str]:
    files = {
        name: str(resources.files("dominance_lab").joinpath(f"games/{name}.json"))
        for name in GAMES
    }
    out = io.StringIO()
    code = run([files.get(arg, arg) for arg in argv], out)
    return code, out.getvalue()


def _record() -> None:
    records = []
    for argv in COMMANDS:
        code, stdout = _run(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_every_command_is_recorded(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_the_recording(golden, argv):
    expected = golden[" ".join(argv)]
    code, stdout = _run(argv)
    assert stdout == expected["stdout"]
    assert code == expected["exit_code"]


def test_paper_examples_is_verify_suite_paper():
    assert _run(["paper-examples"]) == _run(["verify", "--suite", "paper"])


if __name__ == "__main__":
    _record()
