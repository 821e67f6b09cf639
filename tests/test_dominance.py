from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominance_lab import (
    Game,
    MixedStrategy,
    Mode,
    NoCandidatesError,
    Pool,
    Restriction,
    apply_operator,
    dominates,
    find_mixed_dominator,
    replay_certificate,
)
from dominance_lab.dominance import _column, _mixed_dominator, _opponent_bases
from dominance_lab.operators import ALL_OPERATORS, GS, LS
from dominance_lab.random_games import GeneratorConfig, generate
from dominance_lab.suites import _grid_dominated

F = Fraction
HALF = F(1, 2)


def small_game(seed, players=(2, 2), strategies=(2, 3), tie_bias=0.3):
    return generate(
        GeneratorConfig(seed=seed, players=players, strategies=strategies, tie_bias=tie_bias)
    )


class TestDominates:
    def test_a_strictly_dominates_b_in_g1(self, g1):
        top = Restriction.full(g1)
        assert dominates(0, 1, top, 0, Mode.STRICT)

    def test_no_strategy_strictly_dominates_itself(self, g2):
        top = Restriction.full(g2)
        for player in range(2):
            for s in range(g2.shape[player]):
                assert not dominates(
                    MixedStrategy.point_mass(player, s), s, top, player, Mode.STRICT
                )

    def test_a_weakly_but_not_strictly_dominates_d(self, g2):
        top = Restriction.full(g2)
        assert dominates(0, 3, top, 0, Mode.WEAK)
        assert not dominates(0, 3, top, 0, Mode.STRICT)  # tie at Y

    def test_half_a_half_b_weakly_dominates_c(self, g2):
        top = Restriction.full(g2)
        mix = MixedStrategy(0, ((0, HALF), (1, HALF)))
        assert dominates(mix, 2, top, 0, Mode.WEAK)
        assert not dominates(mix, 2, top, 0, Mode.STRICT)

    def test_empty_opponent_set_semantics(self, g1):
        r = Restriction(g1, ((0, 1), ()))
        assert dominates(1, 0, r, 0, Mode.STRICT)  # vacuously true
        assert not dominates(1, 0, r, 0, Mode.WEAK)  # no strict witness exists

    def test_player_mismatch_rejected(self, g2):
        with pytest.raises(ValueError):
            dominates(MixedStrategy.point_mass(1, 0), 0, Restriction.full(g2), 0, Mode.WEAK)


class TestOpponentBases:
    def test_single_opponent_full_set(self, g2):
        # Column's strategies X, Y, Z sit at offsets 0, 1, 2 of Row's row.
        assert _opponent_bases(g2, 0, Restriction.full(g2).masks[1:]) == (0, 1, 2)

    def test_column_view(self, g2):
        r = Restriction(g2, ((0, 1), (0, 1)))
        # Row's A and B, one row of three columns apart.
        assert _opponent_bases(g2, 1, r.masks[:1]) == (0, 3)

    def test_empty_opponent_set(self, g1):
        r = Restriction(g1, ((0,), ()))
        assert _opponent_bases(g1, 0, r.masks[1:]) == ()

    def test_lexicographic_order_three_players_middle_target(self):
        game = generate(GeneratorConfig(seed=3, players=(3, 3), strategies=(2, 2)))
        masks = Restriction.full(game).masks
        profiles = ((0, 0), (0, 1), (1, 0), (1, 1))
        assert _opponent_bases(game, 1, masks[:1] + masks[2:]) == tuple(
            game.flat_index((a, 0, c)) for a, c in profiles
        )


def certificate_triples(step):
    return tuple((c.player, c.eliminated, c.dominator) for c in step.certificates)


class TestPureDominatorCertificates:
    def test_g1_local_strict(self, g1):
        step = apply_operator(LS, Restriction.full(g1))
        assert certificate_triples(step) == ((0, 1, 0),)  # A eliminates B

    def test_g1_frozen_subgame_has_no_local_dominator(self, g1):
        frozen = Restriction(g1, ((1,), (0,)))
        step = apply_operator(LS, frozen)
        assert not step.changed and step.certificates == ()

    def test_g1_frozen_subgame_has_global_dominator(self, g1):
        frozen = Restriction(g1, ((1,), (0,)))
        step = apply_operator(GS, frozen)
        assert certificate_triples(step) == ((0, 1, 0),)  # A, from outside the kept set

    def test_lowest_index_wins(self):
        game = Game.from_tables(
            ["P1", "P2"],
            [["A", "B", "C"], ["X"]],
            [[[5, 0]], [[5, 0]], [[0, 0]]],
        )
        step = apply_operator(LS, Restriction.full(game))
        assert certificate_triples(step) == ((0, 2, 0),)  # A and B both dominate C


class TestFindMixedDominator:
    def test_g2_target_c_weak_witness_replays(self, g2):
        top = Restriction.full(g2)
        witness = find_mixed_dominator(top, 0, 2, Pool.LOCAL, Mode.WEAK)
        assert witness is not None
        assert dominates(witness, 2, top, 0, Mode.WEAK)
        # The grid oracle confirms some dominator exists over this pool.
        bases = _opponent_bases(g2, 0, top.masks[1:])
        columns = [_column(g2, 0, s, bases) for s in range(4)]
        assert _grid_dominated(columns, columns[2], Mode.WEAK, 6)

    def test_single_strategy_pool_cannot_dominate_itself(self, g1):
        frozen = Restriction(g1, ((1,), (0,)))
        assert find_mixed_dominator(frozen, 0, 1, Pool.LOCAL, Mode.STRICT) is None

    def test_3x2_strict_witness_is_half_half(self):
        game = Game.from_tables(
            ["P1", "P2"],
            [["T", "M", "B"], ["L", "R"]],
            [[[3, 0], [0, 0]], [[0, 0], [3, 0]], [[1, 0], [1, 0]]],
        )
        top = Restriction.full(game)
        witness = find_mixed_dominator(top, 0, 2, Pool.LOCAL, Mode.STRICT)
        assert witness == MixedStrategy(0, ((0, HALF), (1, HALF)))
        assert dominates(witness, 2, top, 0, Mode.STRICT)

    def test_prefilter_boundary_ties_at_one_profile(self):
        # At X every margin over A is 0: that refutes strict dominance, but
        # not weak dominance, which the mixture 2/3 B + 1/3 C achieves.
        game = Game.from_tables(
            ["P1", "P2"],
            [["A", "B", "C"], ["X", "Y", "Z"]],
            [[[0, 0], [0, 0], [0, 0]], [[0, 0], [2, 0], [-1, 0]], [[0, 0], [-1, 0], [2, 0]]],
        )
        top = Restriction.full(game)
        assert find_mixed_dominator(top, 0, 0, Pool.LOCAL, Mode.STRICT) is None
        witness = find_mixed_dominator(top, 0, 0, Pool.LOCAL, Mode.WEAK)
        assert witness == MixedStrategy(0, ((1, F(2, 3)), (2, F(1, 3))))
        assert dominates(witness, 0, top, 0, Mode.WEAK)

    @pytest.mark.parametrize("mode", [Mode.STRICT, Mode.WEAK])
    @pytest.mark.parametrize(
        "rows",
        [
            # Target A; B and C lose at X, so X refutes every mixture.
            [[1, 1], [0, 2], [0, 3]],
            # Every row equals the target's: all margins are zero.
            [[1, 2], [1, 2], [1, 2]],
        ],
    )
    def test_prefilter_answers_with_the_target_in_the_pool(self, monkeypatch, rows, mode):
        # The local pool holds the target, whose margins are all zero; the
        # weak prefilter must look past that row instead of calling the LP.
        def no_lp(*args):
            raise AssertionError("the prefilter should have answered")

        monkeypatch.setattr("dominance_lab.dominance.solve_lp", no_lp)
        game = Game.from_tables(
            ["P1", "P2"],
            [["A", "B", "C"], ["X", "Y"]],
            [[[a, 0] for a in row] for row in rows],
        )
        assert find_mixed_dominator(Restriction.full(game), 0, 0, Pool.LOCAL, mode) is None

    def test_empty_opponents_strict_returns_point_mass(self, g2):
        r = Restriction(g2, ((0, 1, 2, 3), ()))
        witness = find_mixed_dominator(r, 0, 1, Pool.LOCAL, Mode.STRICT)
        assert witness == MixedStrategy.point_mass(0, 0)

    def test_empty_opponents_weak_returns_none(self, g2):
        r = Restriction(g2, ((0, 1, 2, 3), ()))
        assert find_mixed_dominator(r, 0, 1, Pool.LOCAL, Mode.WEAK) is None

    def test_empty_pool_raises(self, g2):
        r = Restriction(g2, ((), (0, 1, 2)))
        with pytest.raises(NoCandidatesError):
            _mixed_dominator(g2, 0, 0, (), _opponent_bases(g2, 0, (0b1,)), Mode.STRICT)
        # Public path: a local pool is empty only when the kept-set is.
        with pytest.raises(NoCandidatesError):
            find_mixed_dominator(r, 0, 0, Pool.LOCAL, Mode.STRICT)


class TestDominanceProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_strict_implies_weak_on_nonempty_profiles(self, seed):
        game = small_game(seed)
        top = Restriction.full(game)
        for player in range(game.player_count):
            pool = range(game.shape[player])
            for target in pool:
                for candidate in pool:
                    if dominates(candidate, target, top, player, Mode.STRICT):
                        assert dominates(candidate, target, top, player, Mode.WEAK)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([Mode.STRICT, Mode.WEAK]))
    def test_pure_dominator_implies_mixed_dominator(self, seed, mode):
        game = small_game(seed)
        top = Restriction.full(game)
        for player in range(game.player_count):
            pool = range(game.shape[player])
            for target in pool:
                if any(dominates(s, target, top, player, mode) for s in pool):
                    assert find_mixed_dominator(top, player, target, Pool.LOCAL, mode) is not None

    def test_strict_dominance_is_antitone_in_the_opponent_set(self):
        # Shrinking the opponent set preserves strict dominance.
        game = small_game(77, strategies=(2, 2))
        shape = game.shape
        subsets = [
            [tuple(i for i in range(k) if m >> i & 1) for m in range(1 << k)]
            for k in shape
        ]
        nodes = [Restriction(game, combo) for combo in product(*subsets)]
        for larger in nodes:
            for smaller in nodes:
                if not smaller.issubset(larger):
                    continue
                for player in range(game.player_count):
                    for target in range(shape[player]):
                        for candidate in range(shape[player]):
                            if dominates(candidate, target, larger, player, Mode.STRICT):
                                assert dominates(
                                    candidate, target, smaller, player, Mode.STRICT
                                )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_excluding_target_from_strict_pool_changes_nothing(self, seed):
        game = small_game(seed, strategies=(2, 4))
        top = Restriction.full(game)
        bases_by_player = {
            player: _opponent_bases(game, player, top.masks[:player] + top.masks[player + 1 :])
            for player in range(game.player_count)
        }
        for player in range(game.player_count):
            pool = tuple(range(game.shape[player]))
            for target in pool:
                with_target = _mixed_dominator(
                    game, player, target, pool, bases_by_player[player], Mode.STRICT
                )
                without_target = _mixed_dominator(
                    game,
                    player,
                    target,
                    tuple(s for s in pool if s != target),
                    bases_by_player[player],
                    Mode.STRICT,
                )
                assert (with_target is None) == (without_target is None)


class TestCertificates:
    def test_every_certificate_from_paper_games_replays(self, g1, g2):
        for game in (g1, g2):
            top = Restriction.full(game)
            for kind in ALL_OPERATORS:
                step = apply_operator(kind, top)
                assert len(step.certificates) == sum(
                    len(b) - len(a) for b, a in zip(step.before.kept, step.after.kept)
                )
                for certificate in step.certificates:
                    assert replay_certificate(certificate)

    def test_tampered_certificate_fails_replay(self, g1):
        step = apply_operator(ALL_OPERATORS[0], Restriction.full(g1))
        (certificate,) = step.certificates
        from dataclasses import replace

        swapped = replace(certificate, dominator=certificate.eliminated,
                          eliminated=certificate.dominator)
        assert not replay_certificate(swapped)

    @pytest.mark.parametrize(
        "field, value",
        [("player", 5), ("player", -1), ("eliminated", 7), ("eliminated", -1)],
    )
    def test_out_of_range_certificate_fails_replay(self, g1, field, value):
        from dataclasses import replace

        step = apply_operator(ALL_OPERATORS[0], Restriction.full(g1))
        (certificate,) = step.certificates
        assert not replay_certificate(replace(certificate, **{field: value}))

    @pytest.mark.parametrize(
        "field, value",
        [("player", 5), ("player", -1), ("eliminated", 7), ("eliminated", -1),
         ("dominator", 2), ("dominator", -1)],
    )
    def test_out_of_range_certificate_has_no_dict(self, g1, field, value):
        from dataclasses import replace

        step = apply_operator(ALL_OPERATORS[0], Restriction.full(g1))
        (certificate,) = step.certificates
        with pytest.raises(ValueError, match="out of range"):
            replace(certificate, **{field: value}).to_dict()

    def test_other_players_mixture_has_no_dict(self, g2):
        from dataclasses import replace

        from dominance_lab.operators import MLW

        step = apply_operator(MLW, Restriction.full(g2))
        certificate = next(
            c for c in step.certificates if isinstance(c.dominator, MixedStrategy)
        )
        foreign = MixedStrategy(1 - certificate.player, certificate.dominator.weights)
        with pytest.raises(ValueError, match="belongs to player"):
            replace(certificate, dominator=foreign).to_dict()

    def test_other_players_mixture_fails_replay(self, g2):
        from dataclasses import replace

        from dominance_lab.operators import MLW

        step = apply_operator(MLW, Restriction.full(g2))
        certificate = next(
            c for c in step.certificates if isinstance(c.dominator, MixedStrategy)
        )
        foreign = MixedStrategy(1 - certificate.player, certificate.dominator.weights)
        assert not replay_certificate(replace(certificate, dominator=foreign))

    def test_certificate_serialization(self, g2):
        from dominance_lab.operators import MLW

        step = apply_operator(MLW, Restriction.full(g2))
        docs = [c.to_dict() for c in step.certificates]
        assert all(
            set(d) == {"player", "eliminated", "dominator", "mode", "pool"} for d in docs
        )
        mixed_docs = [d for d in docs if isinstance(d["dominator"], dict)]
        assert mixed_docs, "at least one elimination needs a genuinely mixed dominator"
        for doc in mixed_docs:
            for weight in doc["dominator"].values():
                F(weight)  # "p/q" strings parse back to exact rationals
