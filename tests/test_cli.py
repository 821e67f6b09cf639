import contextlib
import gc
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dominance_lab.cli import load_game, run
from dominance_lab.game_model import GameFormatError
from dominance_lab.suites import run_suite


@pytest.fixture(scope="session")
def g1_path():
    return str(resources.files("dominance_lab").joinpath("games/section3.json"))


@pytest.fixture(scope="session")
def g2_path():
    return str(resources.files("dominance_lab").joinpath("games/example41.json"))


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


class TestSolve:
    def test_mlw_fixpoint(self, g2_path):
        code, text = run_cli("solve", "--operator", "mlw", g2_path)
        assert code == 0
        doc = json.loads(text)
        assert doc["fixpoint"] == {"Row": ["A", "B"], "Column": ["X", "Y"]}
        assert doc["eliminating_steps"] == 1

    def test_lw_trace_has_three_eliminating_steps(self, g2_path):
        code, text = run_cli("solve", "--operator", "lw", g2_path, "--trace")
        doc = json.loads(text)
        assert code == 0
        assert doc["eliminating_steps"] == 3
        assert doc["fixpoint"] == {"Row": ["A"], "Column": ["X"]}
        assert len(doc["steps"]) == 4

    def test_table_format(self, g2_path):
        code, text = run_cli("solve", "--operator", "lw", g2_path, "--format", "table")
        assert code == 0
        assert "fixpoint: Row: A | Column: X" in text


class TestApply:
    def test_full_game_default(self, g1_path):
        code, text = run_cli("apply", "--operator", "ls", g1_path)
        doc = json.loads(text)
        assert code == 0
        assert doc["after"] == {"Row": ["A"], "Column": ["X"]}
        assert doc["certificates"][0]["eliminated"] == "B"

    def test_explicit_restriction(self, g1_path):
        code, text = run_cli(
            "apply", "--operator", "ls", g1_path,
            "--restriction", '{"Row": ["B"], "Column": ["X"]}',
        )
        doc = json.loads(text)
        assert code == 0
        assert doc["after"] == {"Row": ["B"], "Column": ["X"]}
        assert doc["certificates"] == []

    def test_unknown_strategy_name_in_restriction(self, g1_path):
        code, _ = run_cli(
            "apply", "--operator", "ls", g1_path, "--restriction", '{"Row": ["Q"], "Column": []}'
        )
        assert code == 1

    def test_unknown_player_name_in_restriction(self, g1_path):
        code, text, err = run_cli_stderr(
            "apply", "--operator", "ls", g1_path,
            "--restriction", '{"Row": ["A"], "Column": ["X"], "Colum": ["Y"]}',
        )
        assert (code, text, err) == (1, "", "error: restriction names no player 'Colum'\n")


class TestCompare:
    def test_mlw_vs_lw(self, g2_path):
        code, text = run_cli("compare", "--left", "mlw", "--right", "lw", g2_path)
        doc = json.loads(text)
        assert code == 0
        assert doc["relation"] == "superset"


class TestCheckMonotonic:
    def test_ls_witness(self, g1_path):
        code, text = run_cli("check-monotonic", "--operator", "ls", g1_path)
        doc = json.loads(text)
        assert code == 0
        assert doc["witness"]["smaller"] == {"Row": ["B"], "Column": ["X"]}
        assert doc["witness"]["larger"] == {"Row": ["A", "B"], "Column": ["X"]}

    def test_gs_has_no_witness(self, g1_path):
        code, text = run_cli("check-monotonic", "--operator", "gs", g1_path)
        assert code == 0
        assert json.loads(text)["witness"] is None

    def test_sampled_budget_flags(self, g2_path):
        code, text = run_cli(
            "check-monotonic", "--operator", "lw", g2_path,
            "--budget", "sampled", "--seed", "11", "--samples", "400",
        )
        doc = json.loads(text)
        assert code == 0
        assert doc["budget"] == {"kind": "sampled", "seed": 11, "count": 400}

    def test_budget_exceeded_exits_3(self, tmp_path):
        rows = [f"R{i}" for i in range(7)]
        cols = [f"C{j}" for j in range(6)]
        doc = {
            "players": [
                {"name": "P1", "strategies": rows},
                {"name": "P2", "strategies": cols},
            ],
            "payoffs": [[[0, 0] for _ in cols] for _ in rows],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("check-monotonic", "--operator", "ls", str(path))
        assert code == 3


class TestVerifyAndPaperExamples:
    def test_paper_examples_pass(self):
        code, text = run_cli("paper-examples")
        doc = json.loads(text)
        assert code == 0
        assert doc["passed"] is True
        assert doc["certificates"]["failed"] == 0

    def test_verify_paper_suite(self):
        code, text = run_cli("verify", "--suite", "paper")
        assert code == 0
        assert json.loads(text)["suite"] == "paper"

    def test_verify_small_theorem_suite_with_flags(self):
        code, text = run_cli(
            "verify", "--suite", "theorems", "--games", "10", "--seed", "5",
            "--players", "2..2", "--strategies", "2..3", "--payoffs=-3..3",
            "--tie-bias", "0.4",
        )
        doc = json.loads(text)
        assert code == 0 and doc["passed"]

    def test_verify_table_output(self):
        code, text = run_cli("verify", "--suite", "determinism", "--format", "table")
        assert code == 0
        assert "suite determinism: PASS" in text

    def test_env_var_overrides_the_default_seed(self, monkeypatch):
        monkeypatch.setenv("DOMINANCE_LAB_SEED", "4242")
        code, text = run_cli("verify", "--suite", "determinism")
        assert code == 0
        assert json.loads(text)["seed"] == 4242

    def test_explicit_seed_beats_the_env_var(self, monkeypatch):
        monkeypatch.setenv("DOMINANCE_LAB_SEED", "4242")
        code, text = run_cli("verify", "--suite", "determinism", "--seed", "7")
        assert code == 0
        assert json.loads(text)["seed"] == 7


class TestCountFlags:
    @pytest.mark.parametrize("suite", ["monotonicity", "theorems", "oracle"])
    @pytest.mark.parametrize("games", ["0", "-1"])
    def test_games_below_one_exits_1(self, suite, games):
        assert run_cli("verify", "--suite", suite, "--games", games) == (1, "")

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exits_1(self, g1_path, samples):
        code, text = run_cli(
            "check-monotonic", "--operator", "ls", g1_path,
            "--budget", "sampled", "--samples", samples,
        )
        assert (code, text) == (1, "")

    def test_run_suite_defaults_only_on_none(self):
        report = run_suite("theorems", seed=1, games=0)
        assert report.checks[0].name == "theorem and chain properties on 0 random games"


def run_cli_stderr(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run_cli(*argv)
    return code, text, err.getvalue()


class TestVerifyFlagValues:
    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--tie-bias", "5"], "tie_bias 5.0 must lie in [0, 1]"),
            (["--players", "1..2"], "players range (1, 2) must lie within 2..4"),
            (["--strategies", "3..2"], "strategies range (3, 2) is empty or invalid"),
            (["--payoffs=3..-3"], "payoff range (3, -3) is empty"),
            (["--tie-bias", "-0.1"], "tie_bias -0.1 must lie in [0, 1]"),
            (["--tie-bias", "nan"], "tie_bias nan must lie in [0, 1]"),
            (["--tie-bias", "inf"], "tie_bias inf must lie in [0, 1]"),
            (["--players", "2..5"], "players range (2, 5) must lie within 2..4"),
            (["--strategies", "0..2"], "strategies range (0, 2) is empty or invalid"),
        ],
        ids=["tie_bias", "players", "strategies", "payoffs", "tie_bias_negative",
             "tie_bias_nan", "tie_bias_inf", "players_above_4", "strategies_zero"],
    )
    def test_invalid_generator_flag_value_exits_1(self, flag, message):
        code, text, err = run_cli_stderr("verify", "--suite", "theorems", "--games", "1", *flag)
        assert (code, text, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--seed", "2.7"], "argument --seed: invalid int value: '2.7'"),
            (["--seed", "1e400"], "argument --seed: invalid int value: '1e400'"),
            (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["--players", "2.9..3.2"], "argument --players: invalid _parse_range value: '2.9..3.2'"),
            (["--players", "2.."], "argument --players: invalid _parse_range value: '2..'"),
            (["--players", "..3"], "argument --players: invalid _parse_range value: '..3'"),
            (["--players", "2..3..4"], "argument --players: invalid _parse_range value: '2..3..4'"),
            (["--strategies", "2..x"], "argument --strategies: invalid _parse_range value: '2..x'"),
            (["--payoffs=a..b"], "argument --payoffs: invalid _parse_range value: 'a..b'"),
            (["--tie-bias", "x"], "argument --tie-bias: invalid float value: 'x'"),
            (["--games", "0"], "argument --games: must be at least 1, got 0"),
            (["--games", "x"], "argument --games: invalid _count value: 'x'"),
        ],
        ids=["seed_fraction", "seed_overflow", "seed_word", "players_fractions",
             "players_no_hi", "players_no_lo", "players_three_bounds", "strategies_word",
             "payoffs_words", "tie_bias_word", "games_zero", "games_word"],
    )
    def test_unparsable_flag_value_is_a_usage_error(self, flag, message):
        # argparse rejects the value before any suite runs; run maps its exit to 1.
        code, text, err = run_cli_stderr("verify", "--suite", "theorems", "--games", "1", *flag)
        assert (code, text) == (1, "")
        assert err.rstrip().endswith(f"dominance-lab verify: error: {message}")
        assert "Traceback" not in err

    generator_flags = st.sampled_from(["--seed", "--players", "--strategies", "--payoffs",
                                       "--tie-bias"])
    flag_values = st.sampled_from(["0", "1", "3", "-1", "2..3", "3..2", "1..4", "0.5", "nan",
                                   "inf", "1e400", "..", ""])
    # Free text holds no digits, so no drawn range can ask for a huge game.
    flag_values |= st.text(st.characters(blacklist_categories=("Nd",)), max_size=5)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(generator_flags, flag_values), max_size=4))
    def test_any_generator_flag_values_exit_cleanly(self, pairs):
        argv = [f"{flag}={value}" for flag, value in pairs]
        code, text, err = run_cli_stderr("verify", "--suite", "theorems", "--games", "1", *argv)
        # A value the generator accepts runs a suite that passes; any other is an input error.
        assert code in (0, 1)
        assert (code == 1) == (text == "")
        assert "Traceback" not in err

    def test_config_option_is_unknown(self):
        code, text, err = run_cli_stderr("verify", "--suite", "theorems", "--config", "{}")
        assert (code, text) == (1, "")
        assert err.rstrip().endswith("error: unrecognized arguments: --config {}")
        assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-2, 4)
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["players", "name", "strategies", "payoffs"]) | st.text(max_size=3),
        children,
        max_size=4,
    ),
    max_leaves=8,
)


DEEP = "[" * 30_000


@st.composite
def game_documents(draw):
    """Game documents with 2 or 3 players and small shapes; one in four has
    payoff leaves that may be malformed or of the wrong length."""
    shape = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 3), (3, 2), (2, 2, 2), (1, 2, 2)]))
    n = len(shape)
    names = ["Row", "Column", "Third"][:n]
    leaf = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    if draw(st.integers(0, 3)) == 0:
        entry = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "x", "1/0", 1.5, None, True])
        leaf = leaf | st.lists(entry, min_size=n - 1, max_size=n + 1)

    def table(depth):
        if depth == n:
            return draw(leaf)
        return [table(depth + 1) for _ in range(shape[depth])]

    return {
        "players": [
            {"name": name, "strategies": ["ABC"[j] for j in range(count)]}
            for name, count in zip(names, shape)
        ],
        "payoffs": table(0),
    }


NOT_GAMES = JSON_VALUES.map(json.dumps) | st.text(max_size=12)


class TestCliFuzz:
    """Whatever the command line and the game file, ``run`` returns an exit
    code in {0, 1, 2, 3}, and no exception or traceback escapes it."""

    # A command that would run as given, then options drawn at random; a
    # repeated flag overrides the earlier one, so the options reach every path.
    heads = st.sampled_from([
        ["solve", "--operator", "mlw", "GAME"],
        ["apply", "--operator", "ls", "GAME"],
        ["compare", "--left", "mlw", "--right", "lw", "GAME"],
        ["check-monotonic", "--operator", "mgw", "GAME"],
        ["verify", "--suite", "theorems"],
        ["verify", "--suite", "oracle"],
        ["paper-examples"],
        [],
    ])
    flags = st.sampled_from([
        "--operator", "--restriction", "--left", "--right", "--budget", "--cap", "--samples",
        "--seed", "--suite", "--games", "--players", "--strategies", "--payoffs",
        "--tie-bias", "--format", "solve", "GAME",
    ])
    values = st.sampled_from([
        "ls", "mgw", "x", "table", "json", "sampled", "exhaustive", "paper", "determinism",
        "all", "0", "1", "2", "-1", "2..3", "0.5", "nan", "{}", "[]", '{"seed": 3}',
        '{"Row": ["A"], "Column": []}', "GAME", "/nonexistent.json",
    ]) | st.text(max_size=4)
    options = st.lists(
        st.tuples(flags, values).map(list) | st.just(["--trace"]), max_size=3
    ).map(lambda pairs: [token for pair in pairs for token in pair])
    argvs = st.tuples(heads, options).map(lambda parts: parts[0] + parts[1])
    game_texts = st.integers(0, 3).flatmap(
        lambda i: game_documents().map(json.dumps) if i else NOT_GAMES
    )

    @pytest.fixture(scope="class")
    def game_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "game.json"

    @settings(max_examples=150, deadline=None)
    @given(argv=argvs, game=game_texts)
    @example(argv=["solve", "--operator", "ls", "GAME"], game=DEEP)
    @example(argv=["apply", "--operator", "ls", "GAME", "--restriction", DEEP],
             game='{"players": [{"name": "Row", "strategies": ["A"]}, '
                  '{"name": "Column", "strategies": ["X"]}], "payoffs": [[[0, 0]]]}')
    def test_run_returns_an_exit_code(self, game_path, argv, game):
        game_path.write_text(game, encoding="utf-8")
        argv = [str(game_path) if token == "GAME" else token for token in argv]
        if "verify" in argv:
            argv += ["--games", "1"]  # keeps every suite that runs small
        try:
            code, _, err = run_cli_stderr(*argv)
        finally:
            # A new file per example: truncating one in place is slow on some file systems.
            game_path.unlink()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--operator", "ls", "GAME"],
        ["apply", "--operator", "ls", "SECTION3", "--restriction", DEEP],
        ["compare", "--left", "mlw", "--right", "lw", "GAME"],
        ["check-monotonic", "--operator", "mgw", "GAME"],
    ])
    def test_deeply_nested_json_is_an_input_error(self, tmp_path, g1_path, argv):
        path = tmp_path / "deep.json"
        path.write_text(DEEP, encoding="utf-8")
        replace = {"GAME": str(path), "SECTION3": g1_path}
        code, text, err = run_cli_stderr(*(replace.get(token, token) for token in argv))
        assert (code, text) == (1, "")
        assert err.startswith("error: ") and err.rstrip().endswith("JSON nested too deeply")


class TestVerifyUnusedFlags:
    @pytest.mark.parametrize("suite", ["paper", "monotonicity", "oracle", "determinism"])
    @pytest.mark.parametrize(
        "flag",
        [["--players", "3..3"], ["--strategies", "2..3"], ["--payoffs=-2..2"],
         ["--tie-bias", "0.5"], ["--players", "3..3", "--seed", "7"]],
    )
    def test_generator_flag_outside_theorems_exits_1(self, suite, flag):
        code, text, err = run_cli_stderr("verify", "--suite", suite, "--games", "1", *flag)
        if suite in ("paper", "determinism"):
            assert "--games" in err
        assert (code, text) == (1, "")
        assert err.startswith("error: ") and flag[0].split("=")[0] in err

    @pytest.mark.parametrize("suite", ["paper", "determinism"])
    def test_games_for_a_suite_without_random_games_exits_1(self, suite):
        code, text, err = run_cli_stderr("verify", "--suite", suite, "--games", "2")
        assert (code, text) == (1, "")
        assert err == f"error: --suite {suite} does not use --games\n"

    @pytest.mark.parametrize("suite", ["monotonicity", "oracle", "determinism"])
    def test_seed_seeds_every_suite(self, suite):
        games = ("--games", "1") if suite != "determinism" else ()
        code, text = run_cli("verify", "--suite", suite, *games, "--seed", "7")
        assert code == 0 and json.loads(text)["seed"] == 7

    def test_generator_flags_still_reach_the_theorem_suite(self):
        code, text = run_cli(
            "verify", "--suite", "theorems", "--games", "1", "--players", "3..3",
            "--strategies", "2..2", "--format", "table",
        )
        assert code == 0 and "suite theorems: PASS" in text

    def test_omitted_generator_flags_keep_the_suite_defaults(self):
        head = ("verify", "--suite", "theorems", "--games", "5", "--seed", "7")
        defaults = run_cli(*head)
        assert defaults[0] == 0
        assert run_cli(*head, "--players", "2..3", "--strategies", "2..4",
                       "--payoffs=-5..5", "--tie-bias", "0.25") == defaults
        assert run_cli(*head, "--players", "3..3") != defaults


class TestCheckMonotonicFlags:
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_exits_1(self, g1_path, cap):
        code, text, err = run_cli_stderr("check-monotonic", "--operator", "ls", g1_path, "--cap", cap)
        assert (code, text) == (1, "")
        assert "--cap: must be at least 1" in err

    @pytest.mark.parametrize(
        "budget, flags, named",
        [
            ("exhaustive", ["--seed", "3"], "--seed"),
            ("exhaustive", ["--samples", "5"], "--samples"),
            ("exhaustive", ["--seed", "3", "--samples", "5"], "--samples, --seed"),
            ("sampled", ["--cap", "10"], "--cap"),
        ],
    )
    def test_flags_the_budget_ignores_exit_1(self, g1_path, budget, flags, named):
        code, text, err = run_cli_stderr(
            "check-monotonic", "--operator", "ls", g1_path, "--budget", budget, *flags
        )
        assert (code, text) == (1, "")
        assert err == f"error: --budget {budget} does not use {named}\n"

    def test_default_budgets(self, g1_path):
        _, text = run_cli("check-monotonic", "--operator", "ls", g1_path)
        assert json.loads(text)["budget"] == {"kind": "exhaustive", "cap": 4096}
        _, text = run_cli(
            "check-monotonic", "--operator", "ls", g1_path, "--budget", "sampled", "--seed", "2"
        )
        assert json.loads(text)["budget"] == {"kind": "sampled", "seed": 2, "count": 1000}


class TestParserReuse:
    def test_second_run_leaves_no_argparse_garbage(self, g1_path):
        argv = ("solve", "--operator", "ls", g1_path)
        run_cli(*argv)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_cli(*argv)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestLoadGameErrors:
    def test_missing_file_exits_1(self):
        code, _ = run_cli("solve", "--operator", "ls", "/nonexistent/game.json")
        assert code == 1

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"players": [,]}')
        with pytest.raises(GameFormatError, match=r"line 1, column 14"):
            load_game(str(path))
        code, _ = run_cli("solve", "--operator", "ls", str(path))
        assert code == 1

    def test_shape_mismatch_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "players": [
                {"name": "P1", "strategies": ["A", "B"]},
                {"name": "P2", "strategies": ["X"]},
            ],
            "payoffs": [[[1, 0]]],
        }))
        with pytest.raises(GameFormatError, match="shape mismatch"):
            load_game(str(path))

    def test_duplicate_strategy_names_message(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "players": [
                {"name": "P1", "strategies": ["A", "A"]},
                {"name": "P2", "strategies": ["X"]},
            ],
            "payoffs": [[[1, 0]], [[0, 0]]],
        }))
        with pytest.raises(GameFormatError, match="duplicate strategy name"):
            load_game(str(path))

    def test_malformed_rational_message(self, tmp_path):
        path = tmp_path / "rat.json"
        path.write_text(json.dumps({
            "players": [
                {"name": "P1", "strategies": ["A"]},
                {"name": "P2", "strategies": ["X"]},
            ],
            "payoffs": [[["1.5", 0]]],
        }))
        with pytest.raises(GameFormatError, match="malformed rational"):
            load_game(str(path))

    def test_fractional_string_parses(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "players": [
                {"name": "P1", "strategies": ["A"]},
                {"name": "P2", "strategies": ["X"]},
            ],
            "payoffs": [[["1/3", "-2/2"]]],
        }))
        game = load_game(str(path))
        assert game.payoffs[0][0] == Fraction(1, 3)
        assert game.payoffs[1][0] == Fraction(-1)


class TestUsageErrors:
    def test_unknown_operator_exits_1(self, g1_path):
        code, _ = run_cli("solve", "--operator", "nope", g1_path)
        assert code == 1

    def test_unknown_flag_exits_1(self, g1_path):
        code, _ = run_cli("solve", "--operator", "ls", g1_path, "--bogus")
        assert code == 1

    def test_help_exits_0(self):
        code, _ = run_cli("--help")
        assert code == 0


class TestDeterminism:
    def test_repeated_in_process_runs_are_identical(self, g2_path):
        first = run_cli("solve", "--operator", "lw", g2_path, "--trace")
        second = run_cli("solve", "--operator", "lw", g2_path, "--trace")
        assert first == second
        first = run_cli("check-monotonic", "--operator", "mlw", g2_path)
        second = run_cli("check-monotonic", "--operator", "mlw", g2_path)
        assert first == second

    def test_subprocess_runs_are_byte_identical(self, g2_path):
        # Two separate interpreters, so hash randomization differs between them.
        command = [sys.executable, "-m", "dominance_lab", "solve",
                   "--operator", "mgw", g2_path, "--trace"]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout
