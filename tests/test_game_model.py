from fractions import Fraction

import pytest

from dominance_lab import (
    Game,
    GameFormatError,
    InvalidDistributionError,
    InvalidProfileError,
    MixedStrategy,
    Restriction,
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
        assert game_from_json_dict(game_to_json_dict(g2)) == g2

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

    def test_missing_payoffs_rejected(self):
        with pytest.raises(GameFormatError, match="payoffs"):
            game_from_json_dict({"players": [
                {"name": "P1", "strategies": ["A"]},
                {"name": "P2", "strategies": ["X"]},
            ]})
