import dataclasses
import gc
from fractions import Fraction

import pytest

from dominance_lab import (
    Game,
    GameFormatError,
    InvalidDistributionError,
    InvalidProfileError,
    MixedStrategy,
    Restriction,
    builtin_game,
    game_from_json_dict,
    game_to_json_dict,
    payoff,
)
from dominance_lab.game_model import parse_rational
from dominance_lab.random_games import GeneratorConfig, generate

HALF = Fraction(1, 2)


class TestPayoff:
    def test_g1_values(self, g1):
        assert payoff(g1, 0, (0, 0)) == 1  # Row at (A, X)
        assert payoff(g1, 1, (0, 0)) == 0  # Column at (A, X)

    def test_g2_value(self, g2):
        assert payoff(g2, 0, (1, 1)) == 2  # Row at (B, Y)

    def test_out_of_range_profile(self, g1):
        with pytest.raises(InvalidProfileError):
            payoff(g1, 0, (2, 0))
        with pytest.raises(InvalidProfileError):
            payoff(g1, 0, (0,))
        with pytest.raises(InvalidProfileError):
            payoff(g1, 5, (0, 0))

    def test_pure_lookup_is_stable(self, g2):
        assert payoff(g2, 1, (3, 1)) == payoff(g2, 1, (3, 1))

    def test_scaled_payoffs_use_one_denominator_per_player(self):
        game = Game.from_tables(
            ["P1", "P2"],
            [["A", "B"], ["X"]],
            [[["1/2", "-3"]], [["-2/3", "5/4"]]],
        )
        # Player 1's payoffs 1/2, -2/3 times 6; player 2's -3, 5/4 times 4.
        assert game.scaled_payoffs == ((3, -4), (-12, 5))


class TestMixedStrategy:
    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidDistributionError):
            MixedStrategy(0, ((0, Fraction(3, 2)), (1, Fraction(-1, 2))))

    def test_bad_total_rejected(self):
        with pytest.raises(InvalidDistributionError):
            MixedStrategy(0, ((0, HALF),))

    def test_duplicate_weight_rejected(self):
        with pytest.raises(InvalidDistributionError, match="duplicate weight for strategy 0"):
            MixedStrategy(0, ((0, HALF), (0, HALF)))

    def test_zero_weights_dropped(self):
        mix = MixedStrategy(0, ((0, HALF), (1, Fraction(0)), (2, HALF)))
        assert mix.support == (0, 2)

    def test_point_mass(self):
        mass = MixedStrategy.point_mass(2, 1)
        assert mass.player == 2 and mass.weights == ((1, Fraction(1)),)


class TestRestriction:
    def test_full_restriction_is_the_game_itself(self, g1):
        top = Restriction.full(g1)
        assert top.kept == ((0, 1), (0,)) and top.is_subgame
        assert top == Restriction(g1, (range(2), range(1)))

    def test_valid_subgame(self, g1):
        sub = Restriction(g1, ((1,), (0,)))
        assert sub.is_subgame and sub != Restriction.full(g1)
        assert sub.kept == ((1,), (0,))

    def test_empty_component_is_allowed(self, g1):
        r = Restriction(g1, ((), (0,)))
        assert not r.is_subgame and r.kept == ((), (0,))

    def test_out_of_range_rejected(self, g1):
        with pytest.raises(InvalidProfileError):
            Restriction(g1, ((2,), (0,)))

    def test_kept_sets_are_normalized(self, g2):
        r = Restriction(g2, ((3, 1, 1), (2, 0)))
        assert r.kept == ((1, 3), (0, 2))


class TestGameConstruction:
    def test_needs_two_players(self):
        with pytest.raises(GameFormatError):
            Game(("Solo",), (("A",),), ((Fraction(0),),))

    def test_duplicate_strategy_names_rejected(self):
        with pytest.raises(GameFormatError, match="duplicate strategy name"):
            Game.from_tables(["P1", "P2"], [["A", "A"], ["X"]], [[[0, 0]], [[0, 0]]])

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(GameFormatError):
            Game.from_tables(["P1", "P2"], [["A"], []], [[]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GameFormatError, match="shape mismatch"):
            Game.from_tables(["P1", "P2"], [["A", "B"], ["X"]], [[[1, 0]]])

    @pytest.mark.parametrize(
        "strategies, payoffs, message",
        [
            ((("A",),), ((0,), (0,)), "one strategy list required per player"),
            ((("A",), ("X",)), ((0,),), "one payoff tensor required per player"),
            ((("A", "B"), ("X",)), ((0, 0), (0,)), "'P2': expected 2 entries, got 1"),
        ],
    )
    def test_direct_construction_checks(self, strategies, payoffs, message):
        with pytest.raises(GameFormatError, match=message):
            Game(("P1", "P2"), strategies, payoffs)

    @pytest.mark.parametrize(
        "players, strategies",
        [
            ("PQ", (("A", "B"), ("X",))),
            (("P", "Q"), ("AB", ("X",))),
            (("P", "Q"), (("A", "B"), "X")),
            (("P", "Q"), "AX"),
        ],
    )
    def test_a_string_is_not_a_label_sequence(self, players, strategies):
        # Split into characters, each string would make one-letter labels.
        with pytest.raises(GameFormatError, match="not strings"):
            Game(players, strategies, ((1, 0), (0, 0)))

    def test_label_sequences_of_any_kind_are_accepted(self):
        game = Game(["P", "Q"], (label for label in (["A", "B"], ("X",))), ((1, 0), (0, 0)))
        assert (game.players, game.strategies) == (("P", "Q"), (("A", "B"), ("X",)))

    def test_derived_tables_are_fields_outside_eq_hash_and_repr(self, g1):
        fields = {f.name: f for f in dataclasses.fields(Game)}
        for name in ("shape", "strides", "scaled_payoffs"):
            assert (fields[name].init, fields[name].compare, fields[name].repr) == (
                False, False, False,
            )
            assert name not in repr(g1)
        twin = Game(g1.players, g1.strategies, g1.payoffs)
        object.__setattr__(twin, "scaled_payoffs", ())
        assert twin == g1 and hash(twin) == hash(g1) and repr(twin) == repr(g1)
        replaced = dataclasses.replace(
            g1, payoffs=((HALF, Fraction(1, 3)), (Fraction(2), Fraction(0)))
        )
        assert (replaced.shape, replaced.strides) == ((2, 1), (1, 1))
        assert replaced.scaled_payoffs == ((3, 2), (2, 0))

    def test_shape_is_computed_once(self):
        game = Game.from_tables(["P1", "P2"], [["A", "B", "C"], ["X"]], [[[0, 0]]] * 3)
        assert game.shape == (3, 1)
        assert game.shape is game.shape

    def test_builtin_games_are_parsed_once(self):
        assert builtin_game("example41") is builtin_game("example41")
        assert builtin_game("section3").shape == (2, 1)
        with pytest.raises(KeyError, match="no bundled game"):
            builtin_game("nonesuch")

    def test_missing_leaf_rejected(self):
        with pytest.raises(GameFormatError, match="shape mismatch"):
            Game.from_tables(["P1", "P2"], [["A"], ["X", "Y"]], [[[1, 0]]])


class TestRationalParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/3", Fraction(1, 3)),
            ("-2/4", Fraction(-1, 2)),
            ("7", Fraction(7)),
            (5, Fraction(5)),
            (-3, Fraction(-3)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "a/b", "--2", "2/-3", 0.25, True, None])
    def test_invalid(self, bad):
        with pytest.raises(GameFormatError, match="malformed rational"):
            parse_rational(bad)

    def test_integral_float_accepted(self):
        assert parse_rational(2.0) == Fraction(2)


class TestJsonFormat:
    def test_round_trip(self, g2):
        three_players = {
            "players": [
                {"name": "P1", "strategies": ["A", "B"]},
                {"name": "P2", "strategies": ["X"]},
                {"name": "P3", "strategies": ["L", "M", "R"]},
            ],
            "payoffs": [
                [[[1, 0, -2], ["1/3", 2, 0], [0, "-5/2", 1]]],
                [[[4, 4, 4], [0, 0, "7/9"], [-1, 3, 2]]],
            ],
        }
        three = game_from_json_dict(three_players)
        assert game_to_json_dict(three) == three_players
        for game in (g2, three):
            assert game_from_json_dict(game_to_json_dict(game)) == game

    def test_to_json_dict_leaves_no_garbage(self, g2):
        game_to_json_dict(g2)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            game_to_json_dict(g2)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_fractional_payoff(self):
        doc = {
            "players": [
                {"name": "P1", "strategies": ["A"]},
                {"name": "P2", "strategies": ["X"]},
            ],
            "payoffs": [[["1/3", "-2/3"]]],
        }
        game = game_from_json_dict(doc)
        assert game.payoffs[0][0] == Fraction(1, 3)
        assert game.payoffs[1][0] == Fraction(-2, 3)

    def test_duplicate_player_names_rejected(self):
        doc = {
            "players": [
                {"name": "P", "strategies": ["A"]},
                {"name": "P", "strategies": ["X"]},
            ],
            "payoffs": [[[0, 0]]],
        }
        with pytest.raises(GameFormatError, match="duplicate player name"):
            game_from_json_dict(doc)

    @pytest.mark.parametrize(
        "first, message",
        [
            ({"name": "P1"}, "each player needs 'name' and 'strategies'"),
            ({"strategies": ["A"]}, "each player needs 'name' and 'strategies'"),
            ({"name": 1, "strategies": ["A"]}, "player 'name' must be a string"),
            ({"name": "P1", "strategies": ["A", 2]},
             "strategies of player 'P1' must be a list of strings"),
        ],
    )
    def test_malformed_player_entry_rejected(self, first, message):
        doc = {
            "players": [first, {"name": "P2", "strategies": ["X"]}],
            "payoffs": [[[0, 0]]],
        }
        with pytest.raises(GameFormatError, match=message):
            game_from_json_dict(doc)

    def test_missing_payoffs_rejected(self):
        with pytest.raises(GameFormatError, match="payoffs"):
            game_from_json_dict({"players": [
                {"name": "P1", "strategies": ["A"]},
                {"name": "P2", "strategies": ["X"]},
            ]})
