import contextlib
import functools
import gc
import inspect
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

from dominance_lab.cli import _emit, load_game, run
from dominance_lab.game_model import GameFormatError
from dominance_lab import suites
from dominance_lab.suites import SUITE_NAMES, SuiteReport, run_suite, suite_settings


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

    @pytest.mark.parametrize(
        "restriction, message",
        [
            # Only an omitted flag means the full game.
            ("", "--restriction: invalid JSON at line 1, column 1: Expecting value"),
            ('["A"]', "restriction must be an object keyed by player name"),
            ('{"Row": ["A"]}', "restriction is missing player 'Column'"),
            ('{"Row": "A", "Column": ["X"]}', "kept strategies of 'Row' must be a list"),
        ],
        ids=["empty", "not-an-object", "missing-player", "kept-not-a-list"],
    )
    def test_rejected_restriction_exits_1(self, g1_path, restriction, message):
        code, text, err = run_cli_stderr(
            "apply", "--operator", "ls", g1_path, "--restriction", restriction
        )
        assert (code, text, err) == (1, "", f"error: {message}\n")


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

    @staticmethod
    def zero_game_file(tmp_path, rows, cols):
        doc = {
            "players": [
                {"name": "P1", "strategies": [f"R{i}" for i in range(rows)]},
                {"name": "P2", "strategies": [f"C{j}" for j in range(cols)]},
            ],
            "payoffs": [[[0, 0] for _ in range(cols)] for _ in range(rows)],
        }
        path = tmp_path / f"zero-{rows}x{cols}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("operator, work", [("ls", 78), ("gw", 13)])
    def test_budget_exceeded_exits_3(self, tmp_path, operator, work):
        # On 7 x 6 strategies LS visits the C(13, 2) = 78 nodes of rank 2,
        # and GW the C(13, 1) = 13 of rank 1.
        path = self.zero_game_file(tmp_path, 7, 6)
        code, text, err = run_cli_stderr(
            "check-monotonic", "--operator", operator, path, "--cap", str(work - 1)
        )
        assert (code, text) == (3, "")
        assert err == (
            f"error: the check visits {work} nodes, above the exhaustive cap {work - 1}; "
            "raise the cap\n"
        )
        code, text = run_cli("check-monotonic", "--operator", operator, path, "--cap", str(work))
        assert code == 0 and json.loads(text)["witness"] is None

    def test_gs_on_a_17x17_game_exits_3_at_the_default_cap(self, tmp_path, monkeypatch):
        # 2 * (2^17 - 1) opponent contexts; the check refuses before it builds
        # an engine or a bit-set table.
        from dominance_lab import analysis
        from dominance_lab.operators import EliminationEngine

        def fail(*args):
            raise AssertionError("the check built an engine or a bit-set table")

        monkeypatch.setattr(EliminationEngine, "__init__", fail)
        monkeypatch.setattr(analysis, "_context_index", fail)
        monkeypatch.setattr(analysis, "_pure_strict_dominated", fail)
        path = self.zero_game_file(tmp_path, 17, 17)
        code, text, err = run_cli_stderr("check-monotonic", "--operator", "gs", path)
        assert (code, text) == (3, "")
        assert err == (
            "error: the check visits 262142 opponent contexts, above the exhaustive cap 65536; "
            "raise the cap\n"
        )

    @pytest.mark.parametrize(
        "operator, rows, cols", [("gw", 20, 20), ("ls", 20, 2), ("ls", 2, 20)]
    )
    def test_a_lopsided_game_is_checked_at_the_default_cap(self, tmp_path, operator, rows, cols):
        # One player's 2^20 masks are far above the cap, but the check walks
        # only the nodes it counts: the C(40, 1) = 40 of rank 1 for GW, and
        # the C(22, 2) = 231 of rank 2 for LS.
        path = self.zero_game_file(tmp_path, rows, cols)
        code, text = run_cli("check-monotonic", "--operator", operator, path)
        assert code == 0 and json.loads(text)["witness"] is None

    @pytest.mark.parametrize(
        "flags",
        [["--budget", "sampled"], ["--budget", "exhaustive"], ["--samples", "5"], ["--seed", "3"]],
        ids=" ".join,
    )
    def test_the_retired_sampling_flags_are_usage_errors(self, g2_path, flags):
        code, text, err = run_cli_stderr("check-monotonic", "--operator", "lw", g2_path, *flags)
        assert (code, text) == (1, "")
        assert err.startswith("usage: ")
        assert f"error: unrecognized arguments: {' '.join(flags)}\n" in err
        assert "Traceback" not in err


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

    def test_environment_does_not_set_the_default_seed(self, monkeypatch):
        monkeypatch.setenv("DOMINANCE_LAB_SEED", "4242")
        code, text = run_cli("verify", "--suite", "determinism")
        assert code == 0
        assert json.loads(text)["seed"] == 1729

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

    def test_run_suite_defaults_only_on_none(self):
        report = run_suite("theorems", seed=1, games=0)
        assert report.checks[0].name == "theorem and chain properties on 0 random games"


class TestRunSuite:
    def test_all_concatenates_every_suite_in_order(self):
        combined = run_suite("all", seed=1729, games=2)
        parts = [run_suite(name, seed=1729, games=2) for name in SUITE_NAMES if name != "all"]
        assert combined.checks == [check for part in parts for check in part.checks]
        assert len(combined.checks) == 39
        assert combined.certificates_emitted == sum(p.certificates_emitted for p in parts) == 56
        assert combined.certificates_failed == sum(p.certificates_failed for p in parts) == 0
        assert combined.passed

    def test_unknown_suite_names_the_suites(self):
        with pytest.raises(ValueError) as info:
            run_suite("nonesuch")
        assert str(info.value) == (
            "unknown suite 'nonesuch' (expected one of "
            "paper, monotonicity, theorems, oracle, determinism, all)"
        )


def record_suite_calls(monkeypatch):
    """Replace each suite with a recorder of its keyword arguments; the calls list.

    A recorder keeps its suite's signature, so it takes the suite's settings.
    """
    calls = []
    for name, suite in suites.SUITES.items():
        @functools.wraps(suite)
        def recorder(seed, _name=name, **settings):
            calls.append((_name, settings))
            return SuiteReport(suite=_name, seed=seed)

        monkeypatch.setitem(suites.SUITES, name, recorder)
    return calls


class TestSuiteSettings:
    def test_settings_are_the_keyword_parameters_other_than_seed(self):
        for name, suite in suites.SUITES.items():
            parameters = set(inspect.signature(suite).parameters)
            assert "seed" in parameters
            assert suite_settings(name) == parameters - {"seed"}
        assert suite_settings("paper") == suite_settings("determinism") == set()
        assert suite_settings("oracle") == {"games", "max_denominator"}
        assert suite_settings("all") == {
            "games", "players", "strategies", "payoff_range", "tie_bias", "max_denominator",
        }
        assert SUITE_NAMES == (*suites.SUITES, "all")

    def test_all_hands_each_suite_only_its_own_settings(self, monkeypatch):
        calls = record_suite_calls(monkeypatch)
        report = run_suite("all", games=1, players=(3, 3))
        assert calls == [
            ("paper", {}),
            ("monotonicity", {"games": 1}),
            ("theorems", {"games": 1, "players": (3, 3)}),
            ("oracle", {"games": 1}),
            ("determinism", {}),
        ]
        assert (report.suite, report.seed) == ("all", 1729)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_a_setting_given_as_none_keeps_the_default(self, monkeypatch, name):
        calls = record_suite_calls(monkeypatch)
        run_suite(name, seed=3, games=None, tie_bias=None)
        assert calls and all(settings == {} for _, settings in calls)

    def test_a_setting_no_suite_takes_is_a_type_error(self, monkeypatch):
        calls = record_suite_calls(monkeypatch)
        with pytest.raises(TypeError, match="no suite takes game"):
            run_suite("theorems", game=5)
        assert calls == []


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
            (["--players", "2.9..3.2"], "argument --players: expected an int or LO..HI, got '2.9..3.2'"),
            (["--players", "2.."], "argument --players: expected an int or LO..HI, got '2..'"),
            (["--players", "..3"], "argument --players: expected an int or LO..HI, got '..3'"),
            (["--players", "2..3..4"], "argument --players: expected an int or LO..HI, got '2..3..4'"),
            (["--strategies", "2..x"], "argument --strategies: expected an int or LO..HI, got '2..x'"),
            (["--payoffs=a..b"], "argument --payoffs: expected an int or LO..HI, got 'a..b'"),
            (["--tie-bias", "x"], "argument --tie-bias: invalid float value: 'x'"),
            (["--games", "0"], "argument --games: must be at least 1, got 0"),
            (["--games", "x"], "argument --games: expected an int, got 'x'"),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-monotonic", "--operator", "gs", "--cap", "1.5", "game.json"],
            ["verify", "--players", "2..x"],
            ["verify", "--games", "x"],
        ],
        ids=["cap_fraction", "players_word", "games_word"],
    )
    def test_usage_errors_name_no_private_converter(self, argv):
        code, text, err = run_cli_stderr(*argv)
        assert (code, text) == (1, "")
        assert "error: argument --" in err
        assert " _" not in err and "Traceback" not in err

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

    def test_default_budgets(self, g1_path):
        _, text = run_cli("check-monotonic", "--operator", "ls", g1_path)
        assert json.loads(text)["budget"] == {"kind": "exhaustive", "cap": 65536}
        _, text = run_cli("check-monotonic", "--operator", "ls", g1_path, "--cap", "7")
        assert json.loads(text)["budget"] == {"kind": "exhaustive", "cap": 7}


class TestParserReuse:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--operator", "mlw", "--trace", "section3"),
            ("verify", "--suite", "paper"),
            ("check-monotonic", "--operator", "ls", "section3"),
        ],
        ids=["solve", "verify", "check_monotonic"],
    )
    def test_second_run_leaves_no_cyclic_garbage(self, g1_path, argv):
        """Neither the cached parser nor the JSON writer leaves reference cycles."""
        argv = [g1_path if arg == "section3" else arg for arg in argv]
        run_cli(*argv)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_cli(*argv)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


# JSON strings with quotes, backslashes, control characters and non-ASCII text.
JSON_STRINGS = st.text() | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028\ud800😀aZ'))
JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-3, 3) | JSON_STRINGS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, children, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """``_emit`` writes the bytes of ``json.dumps(doc, indent=2)`` plus a newline."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(JSON_STRINGS, JSON_DOCUMENTS, max_size=5))
    @example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": [[[]]]}})
    @example({"big": [-(10**40), 10**40, 0, -1], "flags": [True, False, None]})
    def test_same_bytes_as_the_stdlib(self, doc):
        out = io.StringIO()
        _emit(doc, out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


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

    @pytest.mark.parametrize(
        "leaf, message",
        [
            ([[1], 0], "malformed rational: [1]"),
            ([{}, 0], "malformed rational: {}"),
            ([1, True], "malformed rational: True"),
            ([0, False], "malformed rational: False"),
            ([0, "x", "1/0"], "payoff tensor shape mismatch at payoffs[1][0]: "
                              "expected a list of 2 payoffs"),
        ],
    )
    def test_bad_payoff_entry_exits_1(self, tmp_path, leaf, message):
        # The earlier leaves hold 1 and 0, so a memo of parsed entries that
        # let True read 1 would accept the document.
        path = tmp_path / "entry.json"
        path.write_text(json.dumps({
            "players": [
                {"name": "P1", "strategies": ["A", "B"]},
                {"name": "P2", "strategies": ["X"]},
            ],
            "payoffs": [[[1, 0]], [leaf]],
        }))
        code, text, err = run_cli_stderr("solve", "--operator", "mls", str(path))
        assert (code, text, err) == (1, "", f"error: {message}\n")

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
