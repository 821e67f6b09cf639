import dataclasses
import gc
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dominance_lab import game_model
from dominance_lab.game_model import indices_of, parse_rational
from dominance_lab.random_games import GeneratorConfig, generate

HALF = Fraction(1, 2)
# A 2x1 game whose row player's table (1/2, 1) is (1, 2) over scale 2.
HALF_PAIR = (("P", "Q"), (("A", "B"), ("X",)), ((HALF, Fraction(1)), (0, 0)))


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

    @pytest.mark.parametrize("weight", [1, Fraction(1)], ids=["int", "fraction"])
    def test_a_single_weight_of_one_is_a_point_mass(self, weight):
        mass = MixedStrategy(0, ((2, weight),))
        assert mass.weights == ((2, Fraction(1)),) and type(mass.weights[0][1]) is Fraction
        assert mass == MixedStrategy.point_mass(0, 2)

    @pytest.mark.parametrize(
        ("weight", "error", "message"),
        [
            (True, TypeError, "got True"),
            (1.0, TypeError, "got 1.0"),
            (HALF, InvalidDistributionError, "weights sum to 1/2, expected 1"),
            (0, InvalidDistributionError, "weights sum to 0, expected 1"),
        ],
        ids=["bool", "float", "half", "zero"],
    )
    def test_other_single_weights_are_rejected(self, weight, error, message):
        with pytest.raises(error, match=message):
            MixedStrategy(0, ((2, weight),))

    @pytest.mark.parametrize(
        ("player", "weights", "message"),
        [
            (0, ((0.0, Fraction(1)),), "strategy index 0.0 is not an int"),
            (0, ((True, Fraction(1)),), "strategy index True is not an int"),
            (0, ((-3, Fraction(1)),), "strategy index -3 out of range"),
            (0, (("1", Fraction(1)),), "strategy index '1' is not an int"),
            (0, ((0, HALF), (0.0, HALF)), "strategy index 0.0 is not an int"),
            (0, ((True, HALF), (2, HALF)), "strategy index True is not an int"),
            (0, ((1, HALF), (-1, HALF)), "strategy index -1 out of range"),
            (1.5, ((True, HALF), (2, HALF)), "player index 1.5 is not an int"),
            (False, ((0, Fraction(1)),), "player index False is not an int"),
            (-1, ((0, Fraction(1)),), "player index -1 out of range"),
            (None, ((0, HALF), (1, HALF)), "player index None is not an int"),
        ],
        ids=["float_point_mass", "bool_point_mass", "negative_point_mass", "str_point_mass",
             "float_equal_to_a_kept_int", "bool_in_a_mixture", "negative_in_a_mixture",
             "float_player", "bool_player", "negative_player", "none_player"],
    )
    def test_indices_that_are_not_nonnegative_ints_are_rejected(self, player, weights, message):
        with pytest.raises(InvalidProfileError, match=f"^{re.escape(message)}$"):
            MixedStrategy(player, weights)

    def test_point_mass_checks_its_indices(self):
        with pytest.raises(InvalidProfileError, match="strategy index -1 out of range"):
            MixedStrategy.point_mass(0, -1)
        with pytest.raises(InvalidProfileError, match="player index 0.0 is not an int"):
            MixedStrategy.point_mass(0.0, 1)


class TestIndicesOf:
    @staticmethod
    def by_position(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    def test_every_small_mask(self):
        for mask in range(1 << 12):
            assert indices_of(mask) == self.by_position(mask)

    @pytest.mark.parametrize(
        "mask", [0, 1 << 70 | 5, (1 << 130) - 1, 1 << 200, (1 << 130) - 1 ^ 1 << 64]
    )
    def test_wide_masks(self, mask):
        assert indices_of(mask) == self.by_position(mask)

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 70)])
    def test_negative_mask_rejected(self, mask):
        with pytest.raises(ValueError, match="negative mask"):
            indices_of(mask)


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

    @pytest.mark.parametrize("masks", [(0b100, 1), (-1, 1), (1, -2)])
    def test_out_of_range_masks_rejected(self, g1, masks):
        with pytest.raises(InvalidProfileError):
            Restriction.from_masks(g1, masks)

    @pytest.mark.parametrize(
        ("kept", "message"),
        [
            (((True,), (0,)), "kept index True of player 'Row' is not an int"),
            (((1.0,), (0,)), "kept index 1.0 of player 'Row' is not an int"),
            ((("1",), (0,)), "kept index '1' of player 'Row' is not an int"),
            (((0, 1), (0, None)), "kept index None of player 'Column' is not an int"),
            (((0, 9, 1.0), (0,)), "kept-set out of range for player 'Row'"),
        ],
        ids=["bool", "float", "str", "none", "range_checked_in_order"],
    )
    def test_kept_indices_that_are_not_ints_rejected(self, g2, kept, message):
        with pytest.raises(InvalidProfileError, match=f"^{re.escape(message)}$"):
            Restriction(g2, kept)

    def test_kept_sets_are_normalized(self, g2):
        r = Restriction(g2, ((3, 1, 1), (2, 0)))
        assert r.kept == ((1, 3), (0, 2))

    @pytest.mark.parametrize(
        "fields",
        [{"strategies": (1, 3)}, {"players": (3, 3), "strategies": (1, 3)},
         {"players": (4, 4), "strategies": (2, 2)}],
        ids=["2_players", "3_players", "4_players"],
    )
    def test_from_masks_equals_the_kept_sets_on_every_mask_tuple(self, fields):
        for seed in range(3):
            game = generate(GeneratorConfig(seed=seed, **fields))
            for masks in itertools.product(*(range(1 << k) for k in game.shape)):
                kept = tuple(indices_of(mask) for mask in masks)
                fast = Restriction.from_masks(game, masks)
                slow = Restriction(game, kept)
                assert fast == slow and hash(fast) == hash(slow) and repr(fast) == repr(slow)
                assert (fast.kept, fast.masks) == (slow.kept, slow.masks) == (kept, masks)

    def test_from_masks_reads_an_iterable_once(self, g2):
        assert Restriction.from_masks(g2, (m for m in (0b1010, 0b01))).kept == ((1, 3), (0,))

    @pytest.mark.parametrize(
        ("masks", "message"),
        [
            ((5.0, 1), "kept-set mask 5.0 of player 'Row' is not an int"),
            ((True, 2), "kept-set mask True of player 'Row' is not an int"),
            ((1, None), "kept-set mask None of player 'Column' is not an int"),
            ((1,), "one kept-set required per player"),
            ((1, 2, 3), "one kept-set required per player"),
        ],
        ids=["float", "bool", "none", "too_few", "too_many"],
    )
    def test_from_masks_rejects_masks_that_are_not_kept_sets(self, g2, masks, message):
        with pytest.raises(InvalidProfileError, match=f"^{message}$"):
            Restriction.from_masks(g2, masks)


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

    @pytest.mark.parametrize("players", [[], ["P1", "P2"]])
    def test_no_strategy_lists_rejected(self, players):
        with pytest.raises(GameFormatError):
            Game.from_tables(players, [], [[1, 0]])

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

    @pytest.mark.parametrize(
        "players, strategies, message",
        [
            ((1, 2), (("x",), ("y",)), "player name 1 must be a string"),
            (("P", None), (("x",), ("y",)), "player name None must be a string"),
            (("P", "Q"), (("x", 2), ("y",)), "strategy labels of player 'P' must be strings"),
            (("P", "Q"), (("x",), (("y",),)), "strategy labels of player 'Q' must be strings"),
        ],
    )
    def test_labels_that_are_not_strings_are_rejected(self, players, strategies, message):
        payoffs = tuple((0,) * len(strategies[0]) for _ in players)
        with pytest.raises(GameFormatError, match=f"^{message}$"):
            Game(players, strategies, payoffs)

    def test_construction_rejects_the_labels_the_loader_rejects(self):
        # So every game that constructs has a JSON document that loads back.
        doc = {"players": [{"name": 1, "strategies": ["x"]}, {"name": 2, "strategies": ["y"]}],
               "payoffs": [[[1, 0]]]}
        with pytest.raises(GameFormatError, match="must be a string"):
            game_from_json_dict(doc)
        with pytest.raises(GameFormatError, match="must be a string"):
            Game((1, 2), (("x",), ("y",)), ((1,), (0,)))
        game = Game(("1", "2"), (("x",), ("y",)), ((1,), (0,)))
        assert game_from_json_dict(game_to_json_dict(game)) == game

    def test_label_sequences_of_any_kind_are_accepted(self):
        game = Game(["P", "Q"], (label for label in (["A", "B"], ("X",))), ((1, 0), (0, 0)))
        assert (game.players, game.strategies) == (("P", "Q"), (("A", "B"), ("X",)))

    def test_derived_tables_are_fields_outside_eq_hash_and_repr(self, g1):
        fields = {f.name: f for f in dataclasses.fields(Game)}
        for name in ("shape", "strides", "scaled_payoffs", "scales"):
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

    @pytest.mark.parametrize("seed", range(5))
    def test_int_tables_make_the_game_fraction_tables_make(self, seed):
        game = generate(GeneratorConfig(seed=seed, players=(2, 4), strategies=(1, 3)))
        ints = tuple(tuple(int(x) for x in table) for table in game.payoffs)
        fractions = tuple(tuple(Fraction(x) for x in table) for table in ints)
        from_ints = Game(game.players, game.strategies, ints)
        from_fractions = Game(game.players, game.strategies, fractions)
        assert from_ints.payoffs == from_fractions.payoffs
        assert from_ints.scaled_payoffs == from_fractions.scaled_payoffs == ints
        assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
        assert repr(from_ints) == repr(from_fractions)
        assert all(type(x) is Fraction for table in from_ints.payoffs for x in table)
        assert all(type(x) is int for table in from_ints.scaled_payoffs for x in table)

    def test_the_suite_game_key_is_equal_exactly_when_the_games_are(self):
        # The theorem suite counts distinct games by a key of strings and
        # ints.  Games differing only by one player's payoff scale have the
        # same scaled tables but not the same scales; a game built from int
        # tables and from Fraction tables has one key.
        from dominance_lab.suites import _game_key

        games = []
        for seed in range(6):
            game = generate(GeneratorConfig(seed=seed % 4, players=(2, 3), strategies=(1, 3)))
            ints = tuple(tuple(int(x) for x in table) for table in game.payoffs)
            games.append(Game(game.players, game.strategies, ints))
            games.append(Game(game.players, game.strategies, tuple(map(tuple, game.payoffs))))
            for scale in (2, 3):
                halved = (tuple(x / scale for x in game.payoffs[0]), *game.payoffs[1:])
                games.append(Game(game.players, game.strategies, halved))
        keys = [_game_key(game) for game in games]
        assert len(set(games)) == len(set(keys)) < len(games)
        for a, b in itertools.product(range(len(games)), repeat=2):
            assert (keys[a] == keys[b]) == (games[a] == games[b]), (a, b)
        base, half = Game(*HALF_PAIR[:2], ((1, 2), (0, 0))), Game(*HALF_PAIR)
        assert base.scaled_payoffs == half.scaled_payoffs and base != half
        assert (base.scales, half.scales) == ((1, 1), (2, 1))
        assert _game_key(base) != _game_key(half)
        assert all(type(x) is int for x in _game_key(half)[3])

    @pytest.mark.parametrize("entry", [True, 1.0], ids=["bool", "float"])
    def test_bool_and_float_entries_are_rejected(self, entry):
        message = f"payoff entries must be Fraction or int, got {entry}"
        with pytest.raises(TypeError, match=message):
            Game(("P", "Q"), (("A", "B"), ("X",)), ((entry, 0), (0, 1)))

    def test_mixed_int_and_fraction_tables_are_scaled_per_player(self):
        game = Game(("P", "Q"), (("A", "B"), ("X",)), ((1, HALF), (Fraction(2, 3), 0)))
        assert game.payoffs == ((Fraction(1), HALF), (Fraction(2, 3), Fraction(0)))
        assert game.scaled_payoffs == ((2, 1), (2, 0))
        assert all(type(x) is Fraction for table in game.payoffs for x in table)

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


def three_player_doc(payoffs):
    """A 2x2x3 game document (players P1, P2, P3) around ``payoffs``."""
    return {
        "players": [
            {"name": "P1", "strategies": ["A", "B"]},
            {"name": "P2", "strategies": ["X", "Y"]},
            {"name": "P3", "strategies": ["L", "M", "R"]},
        ],
        "payoffs": payoffs,
    }


def three_player_table(value=0):
    """A well-formed 2x2x3 payoff table with every entry ``value``."""
    return [[[[value] * 3 for _ in range(3)] for _ in range(2)] for _ in range(2)]


def load_error(doc):
    with pytest.raises(GameFormatError) as caught:
        game_from_json_dict(doc)
    return str(caught.value)


class TestLoaderFaults:
    def test_shape_mismatch_at_the_first_axis(self):
        table = three_player_table()
        table.append(table[0])
        assert load_error(three_player_doc(table)) == (
            "payoff tensor shape mismatch at payoffs: expected 2 entries"
        )

    def test_shape_mismatch_at_an_inner_axis(self):
        table = three_player_table()
        table[1] = table[1][:1]
        assert load_error(three_player_doc(table)) == (
            "payoff tensor shape mismatch at payoffs[1]: expected 2 entries"
        )

    def test_shape_mismatch_at_the_leaf_axis(self):
        table = three_player_table()
        table[0][1] = table[0][1][:2]
        assert load_error(three_player_doc(table)) == (
            "payoff tensor shape mismatch at payoffs[0][1]: expected 3 entries"
        )

    @pytest.mark.parametrize("leaf", [[1, 2], [1, 2, 3, 4], 7, "123", {"a": 1}])
    def test_shape_mismatch_at_a_leaf(self, leaf):
        table = three_player_table()
        table[1][0][2] = leaf
        assert load_error(three_player_doc(table)) == (
            "payoff tensor shape mismatch at payoffs[1][0][2]: expected a list of 3 payoffs"
        )

    def test_malformed_rational_before_a_later_shape_mismatch(self):
        table = three_player_table()
        table[0][1][2] = [0, "1.5", 0]
        table[1] = table[1][:1]
        assert load_error(three_player_doc(table)) == "malformed rational: '1.5'"

    def test_shape_mismatch_before_a_later_malformed_rational(self):
        table = three_player_table()
        table[0][1] = table[0][1][:2]
        table[1][0][0] = [0, "1.5", 0]
        assert load_error(three_player_doc(table)) == (
            "payoff tensor shape mismatch at payoffs[0][1]: expected 3 entries"
        )

    def test_first_of_two_bad_entries_in_one_leaf(self):
        table = three_player_table()
        table[1][1][0] = [0, "x", "1/0"]
        assert load_error(three_player_doc(table)) == "malformed rational: 'x'"
        table[1][1][0] = [0, "1/0", "x"]
        assert load_error(three_player_doc(table)) == (
            "malformed rational: '1/0' (zero denominator)"
        )

    @pytest.mark.parametrize("number, flag", [(1, True), (0, False)])
    def test_booleans_rejected_after_equal_ints(self, number, flag):
        table = three_player_table(number)
        table[1][1][2] = [number, flag, number]
        assert load_error(three_player_doc(table)) == f"malformed rational: {flag!r}"

    @pytest.mark.parametrize("entry", [[1], {}, [], {"1": 1}])
    def test_unhashable_entries_rejected(self, entry):
        table = three_player_table(1)
        table[0][0][1] = [1, entry, 1]
        assert load_error(three_player_doc(table)) == f"malformed rational: {entry!r}"

    def test_equal_entries_share_one_fraction(self):
        table = three_player_table()
        table[0][0][0] = [7, "7", "14/2"]
        table[1][1][2] = [7, "7", "-1/3"]
        game = game_from_json_dict(three_player_doc(table))
        first, last = (game.flat_index(p) for p in ((0, 0, 0), (1, 1, 2)))
        assert game.payoffs[0][first] is game.payoffs[0][last] == 7
        assert game.payoffs[1][first] is game.payoffs[1][last] == 7
        assert game.payoffs[2][first] == 7 and game.payoffs[2][last] == Fraction(-1, 3)
        zeros = {id(x) for table in game.payoffs for x in table if x == 0}
        assert len(zeros) == 1


class TestEntriesBecomeExactInTheGame:
    """The loader passes int and Fraction entries on; ``Game`` alone shares them."""

    def test_only_entries_that_are_not_ints_or_fractions_are_parsed(self, monkeypatch):
        parsed = []

        def recording(value):
            parsed.append(value)
            return parse_rational(value)

        monkeypatch.setattr(game_model, "parse_rational", recording)
        game = game_from_json_dict(three_player_doc(three_player_table(3)))
        assert parsed == [] and game.scaled_payoffs == ((3,) * 12,) * 3
        table = three_player_table(3)
        table[0][1][2] = ["1/2", 4.0, Fraction(5, 3)]
        table[1][0][0] = [1, "-7", 2]
        game = game_from_json_dict(three_player_doc(table))
        assert parsed == ["1/2", 4.0, "-7"]
        assert game.payoffs[0][game.flat_index((0, 1, 2))] == HALF

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 3))
    def test_four_writings_of_one_game_agree(self, seed, fractional):
        game = generate(GeneratorConfig(
            seed=seed, players=(2, 4), strategies=(1, 3), payoff_range=(-4, 4), tie_bias=0.4
        ))
        rng = random.Random(seed)
        doc = game_to_json_dict(game)
        names = [player["name"] for player in doc["players"]]
        labels = [player["strategies"] for player in doc["players"]]
        fractional %= game.player_count

        def rewrite(write):
            """The payoff table with entry ``x`` of player ``i`` as ``write(i, x)``."""
            def walk(node):
                if isinstance(node[0], list):
                    return [walk(child) for child in node]
                return [write(i, x) for i, x in enumerate(node)]
            return walk(doc["payoffs"])

        def as_string(i, x):
            k = rng.choice((1, 1, 2, 3))
            return str(x) if k == 1 else f"{x * k}/{k}"

        games = [
            game_from_json_dict(doc),
            game_from_json_dict({**doc, "payoffs": rewrite(as_string)}),
            Game.from_tables(names, labels, rewrite(lambda i, x: Fraction(x))),
            Game.from_tables(
                names, labels, rewrite(lambda i, x: Fraction(x) if i == fractional else x)
            ),
        ]
        ints = tuple(tuple(map(int, table)) for table in game.payoffs)
        for other in games:
            assert other == game and other.payoffs == game.payoffs
            assert other.scaled_payoffs == ints
            assert all(type(x) is int for table in other.scaled_payoffs for x in table)
            entries = [x for table in other.payoffs for x in table]
            assert all(type(x) is Fraction for x in entries)
            assert len({id(x) for x in entries}) == len(set(entries))


# Entries that load: ints, integral floats, "p/q" strings and Fractions.
EXACT_ENTRIES = (
    st.integers(-4, 4)
    | st.sampled_from([1.0, -2.0, "3", "-1/2", "4/6", "0/5"])
    | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
)
# Entries that raise GameFormatError, each with its own message.
BAD_ENTRIES = st.sampled_from(
    [True, False, 0.5, -1.25, "1/0", "x", "1.5", " 1", "", "2/-3", None, [1], {"a": 1}]
)
# Nodes that are not a list or tuple where the table needs one.
NOT_SEQUENCES = st.sampled_from([7, "12", None, {"a": 1}, 1.0])


@st.composite
def payoff_tables(draw, shape, n):
    """A nested payoff table for ``shape`` and ``n`` players, lists and tuples
    mixed, with rare bad entries.  Half the tables are plain ints, and half
    may have shape faults: a node that is not a sequence, or one entry short
    or long, at any depth."""
    entries = st.integers(-4, 4) if draw(st.booleans()) else EXACT_ENTRIES
    shape_faults = draw(st.booleans())

    def node(axes):
        if shape_faults and draw(st.integers(0, 30)) == 0:
            return draw(NOT_SEQUENCES)
        count = axes[0] if axes else n
        if shape_faults and draw(st.integers(0, 30)) == 0:
            count += draw(st.sampled_from([-1, 1]))
        if axes:
            children = [node(axes[1:]) for _ in range(count)]
        else:
            children = [
                draw(BAD_ENTRIES if draw(st.integers(0, 60)) == 0 else entries)
                for _ in range(count)
            ]
        return tuple(children) if draw(st.booleans()) else children

    return node(shape)


def load_outcome(load, players, strategies, table):
    """The game ``load`` builds, with its payoffs and scaled tables, or its error message."""
    try:
        game = load(players, strategies, table)
    except GameFormatError as exc:
        return ("error", str(exc))
    return ("game", game, game.payoffs, game.scaled_payoffs)


def walk_alone(players, strategies, table):
    """``Game.from_tables`` as the recursive walk alone would load the table."""
    n = len(players)
    values = []
    game_model._flatten_payoffs(table, tuple(map(len, strategies)), n, values, ())
    return Game(players, strategies, [values[i::n] for i in range(n)])


class TestOnePassLoader:
    """A well-formed table is flattened level by level; the walk only names faults."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_loads_as_the_walk_alone_does(self, data):
        shape = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3).map(tuple))
        players = ["Row", "Column", "Third"][: len(shape)]
        strategies = [[f"s{j}" for j in range(count)] for count in shape]
        table = data.draw(payoff_tables(shape, len(shape)))
        assert load_outcome(Game.from_tables, players, strategies, table) == (
            load_outcome(walk_alone, players, strategies, table)
        )

    def test_a_well_formed_table_never_reaches_the_walk(self, monkeypatch):
        mixed = three_player_table(2)
        mixed[0][1] = ((1, "1/2", Fraction(2, 3)), [4.0, -1, "7"], (0, 0, 0))
        faulty = three_player_table(2)
        faulty[1][1][2] = [2, "1.5", 2]
        builtins = [builtin_game(name) for name in ("section3", "example41")]
        docs = [three_player_doc(mixed)] + [game_to_json_dict(game) for game in builtins]

        def fail(*args):
            raise AssertionError("a well-formed table reached the walk")

        monkeypatch.setattr(game_model, "_flatten_payoffs", fail)
        game, *games = [game_from_json_dict(doc) for doc in docs]
        assert games == builtins
        assert game.payoffs[1][game.flat_index((0, 1, 0))] == HALF
        assert game.payoffs[2][game.flat_index((0, 1, 0))] == Fraction(2, 3)
        assert load_error(three_player_doc(faulty)) == "malformed rational: '1.5'"


class TestMixedEntries:
    """Ints, "p/q" strings and Fractions load as one exact table; a bool never loads."""

    PLAYERS = ["Row", "Column"]
    STRATEGIES = [["A", "B"], ["X", "Y", "Z"]]
    # Each leaf is (Row, Column); equal values are written in several forms.
    MIXED = [
        [[1, "1/2"], ["2/4", Fraction(3)], [Fraction(1, 2), "-6/4"]],
        [["3", 1], [-2, Fraction(-3, 2)], ["0", "1/2"]],
    ]
    EXACT = [
        [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(3)],
         [Fraction(1, 2), Fraction(-3, 2)]],
        [[Fraction(3), Fraction(1)], [Fraction(-2), Fraction(-3, 2)],
         [Fraction(0), Fraction(1, 2)]],
    ]

    def test_payoffs_and_scaled_payoffs_match_an_all_fraction_build(self):
        game = Game.from_tables(self.PLAYERS, self.STRATEGIES, self.MIXED)
        exact = Game.from_tables(self.PLAYERS, self.STRATEGIES, self.EXACT)
        assert game == exact
        assert game.payoffs == exact.payoffs
        assert game.scaled_payoffs == exact.scaled_payoffs == (
            (2, 1, 1, 6, -4, 0), (1, 6, -3, 2, -3, 1)
        )
        assert all(type(x) is Fraction for table in game.payoffs for x in table)
        # Equal entries share one Fraction, across the two tables too.
        assert len({id(x) for table in game.payoffs for x in table}) == len(
            {x for table in game.payoffs for x in table}
        )

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_is_never_read_as_an_int(self, flag):
        # 1 and 0 are in the tables already, so a bool read as its int would
        # find a shared Fraction.
        table = [[list(leaf) for leaf in row] for row in self.MIXED]
        table[1][2][1] = flag
        with pytest.raises(GameFormatError, match=f"malformed rational: {flag}"):
            Game.from_tables(self.PLAYERS, self.STRATEGIES, table)
        payoffs = [[1, 0, 1, 0, 1, 0], [Fraction(1, 2), 1, 0, 1, 0, flag]]
        with pytest.raises(TypeError, match=f"got {flag}"):
            Game(self.PLAYERS, self.STRATEGIES, payoffs)
        payoffs[1][5] = Fraction(flag)
        assert Game(self.PLAYERS, self.STRATEGIES, payoffs).payoffs[1][5] == int(flag)


def rational_game(seed):
    """A seeded game whose payoffs include ``p/q`` fractions."""
    game = generate(GeneratorConfig(
        seed=seed, players=(2, 4), strategies=(1, 3), payoff_range=(-6, 6), tie_bias=0.4
    ))
    rng = random.Random(seed)
    payoffs = [
        [Fraction(x, rng.choice((1, 1, 2, 3, 4, 6))) for x in table] for table in game.payoffs
    ]
    return Game(game.players, game.strategies, payoffs)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_games_round_trip(self, seed):
        game = rational_game(seed)
        doc = game_to_json_dict(game)
        parsed = game_from_json_dict(doc)
        assert parsed == game
        assert parsed.scaled_payoffs == game.scaled_payoffs
        assert game_to_json_dict(parsed) == doc

    def test_seeded_games_have_fractional_payoffs(self):
        entries = [x for seed in range(30) for table in rational_game(seed).payoffs for x in table]
        assert any(x.denominator > 1 for x in entries)
        assert any(x.denominator == 1 for x in entries)

    def test_from_json_dict_leaves_no_garbage(self):
        doc = game_to_json_dict(rational_game(3))
        game_from_json_dict(doc)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            game_from_json_dict(doc)
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
