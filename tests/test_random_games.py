import hashlib
import json

import pytest

from dominance_lab import ALL_OPERATORS, Restriction, iterate
from dominance_lab.game_model import game_to_json_dict
from dominance_lab.random_games import GeneratorConfig, generate, strategy_label


class TestConfigValidation:
    def test_players_outside_2_to_4_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, players=(1, 2))
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, players=(2, 5))

    def test_bad_tie_bias_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, tie_bias=1.5)

    def test_empty_payoff_range_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, payoff_range=(3, -3))

    @pytest.mark.parametrize(
        "fields",
        [{"strategies": (0, 2)}, {"strategies": (3, 2)}, {"players": (3, 2)},
         {"tie_bias": -0.1}, {"tie_bias": float("nan")}],
        ids=["strategies_zero", "strategies_reversed", "players_reversed",
             "tie_bias_negative", "tie_bias_nan"],
    )
    def test_other_invalid_settings_rejected(self, fields):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, **fields)

    @pytest.mark.parametrize(
        ("field", "bounds"),
        [("players", (2, 3.5)), ("players", (2.0, 3)), ("strategies", (True, 2)),
         ("strategies", (2, "4")), ("payoff_range", (-5.0, 5.0)), ("payoff_range", (False, 1))],
        ids=["players_float_hi", "players_float_lo", "strategies_bool", "strategies_str",
             "payoffs_float", "payoffs_bool"],
    )
    def test_bounds_that_are_not_ints_rejected(self, field, bounds):
        with pytest.raises(ValueError, match=f"^{field} bounds .* must be ints$"):
            GeneratorConfig(seed=1, **{field: bounds})

    @pytest.mark.parametrize(
        "fields",
        [{"players": (2, 4)}, {"players": (4, 4)}, {"strategies": (1, 1)},
         {"payoff_range": (0, 0)}, {"tie_bias": 0.0}, {"tie_bias": 1.0}],
        ids=["players_2_to_4", "players_4", "strategies_1", "payoffs_single_value",
             "tie_bias_0", "tie_bias_1"],
    )
    def test_boundary_settings_accepted(self, fields):
        config = GeneratorConfig(seed=1, **fields)
        game = generate(config)
        assert config.players[0] <= len(game.players) <= config.players[1]


class TestGeneration:
    def test_same_config_same_game(self):
        config = GeneratorConfig(seed=42, players=(2, 3), strategies=(2, 4))
        assert generate(config) == generate(config)

    def test_distinct_seeds_rarely_collide(self):
        config = GeneratorConfig(seed=0, strategies=(2, 4))
        games = [generate(config.with_seed(s)) for s in range(50)]
        assert len(set(games)) == 50

    def test_shapes_respect_the_config(self):
        for seed in range(20):
            game = generate(GeneratorConfig(seed=seed, players=(2, 4), strategies=(2, 3)))
            assert 2 <= game.player_count <= 4
            assert all(2 <= k <= 3 for k in game.shape)

    def test_payoffs_stay_on_the_grid(self):
        game = generate(GeneratorConfig(seed=5, payoff_range=(-2, 2), tie_bias=0.5))
        for table in game.payoffs:
            for value in table:
                assert value.denominator == 1 and -2 <= value <= 2

    def test_strategy_labels(self):
        assert [strategy_label(i) for i in (0, 1, 25, 26)] == ["A", "B", "Z", "S27"]


class TestDegenerateShapes:
    def test_single_strategy_players_fix_immediately(self):
        game = generate(GeneratorConfig(seed=3, strategies=(1, 1)))
        for kind in ALL_OPERATORS:
            trace = iterate(kind, game)
            assert len(trace.steps) == 1 and trace.fixpoint == Restriction.full(game)


class TestPinnedOutput:
    """The games that seeds 0..299 of several configs make, as a digest.

    Recorded before the draw rule was rewritten, so any change to which
    game a seed and config make fails here, on every Python version the
    CI matrix runs.
    """

    @pytest.mark.parametrize(
        ("fields", "digest"),
        [
            ({}, "7c18eeaa721186d5be51c0c9ab000bd8b1b3f0ecbdf3823ba6ce8dcbc16b6f78"),
            ({"players": (2, 3), "strategies": (2, 4)},
             "3fc0bc6020182f4eaabc3823b60e2bf714a28b54ce12fde1487d93a171b6cd9c"),
            ({"players": (2, 4), "strategies": (1, 3), "tie_bias": 0.0},
             "ada3ed0276f727f72f04efa130d9097c99a779c9057ebd3a6e37889c28c97716"),
            ({"players": (3, 4), "strategies": (2, 3), "payoff_range": (-3, 3),
              "tie_bias": 1.0},
             "486ae17f71f7d61630265b8e5613be53ccaf4e8b60c732dfa09eaeb88b7c0e73"),
            ({"players": (2, 3), "strategies": (1, 1), "payoff_range": (7, 7)},
             "dbe9d0fca65cf608d8503249f27aa852c774368c50d5e6cb8095cf20949344fc"),
            ({"players": (2, 2), "strategies": (1, 5), "payoff_range": (-100, 100),
              "tie_bias": 0.5},
             "69d33e5dd779fd0edd39545b8b709836f3912e0e21c6d419f136f9e72124e644"),
        ],
        ids=["default", "theorems", "tie_bias_0", "tie_bias_1", "one_value_one_strategy",
             "wide_range"],
    )
    def test_seeds_0_to_299_make_the_recorded_games(self, fields, digest):
        h = hashlib.sha256()
        for seed in range(300):
            game = generate(GeneratorConfig(seed=seed, **fields))
            h.update(json.dumps(game_to_json_dict(game), sort_keys=True).encode())
        assert h.hexdigest() == digest
