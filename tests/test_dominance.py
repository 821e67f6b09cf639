import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominance_lab import (
    Game,
    InvalidProfileError,
    MixedStrategy,
    Mode,
    NoCandidatesError,
    Pool,
    Restriction,
    apply_operator,
    dominates,
    find_mixed_dominator,
    payoff,
    replay_certificate,
)
from dominance_lab.dominance import (
    _beats,
    _column,
    _columns,
    _mixed_dominator,
    _opponent_bases,
    _pure_dominator,
)
from dominance_lab.operators import ALL_OPERATORS, GS, LS, EliminationEngine
from dominance_lab.random_games import GeneratorConfig, generate
from dominance_lab.simplex import solve_lp
from dominance_lab import suites
from dominance_lab.suites import _grid_dominated, _grid_mixtures, _grid_weights

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


# Pairs of equal-length int columns; the narrow range makes ties and equal
# columns common.
column_pairs = st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(-2, 2)] * n)] * 2)
)


class TestEnumArguments:
    def test_dominates_rejects_a_mode_that_is_not_a_member(self, g2):
        top = Restriction.full(g2)
        assert not dominates(0, 3, top, 0, Mode.STRICT)
        with pytest.raises(ValueError, match="^mode must be a Mode member"):
            dominates(0, 3, top, 0, "strict")

    @pytest.mark.parametrize(
        "pool, mode, field",
        [("local", Mode.STRICT, "pool"), (Pool.LOCAL, "strict", "mode"), (None, Mode.WEAK, "pool")],
    )
    def test_find_mixed_dominator_rejects_non_members(self, g2, pool, mode, field):
        # The string "local" would read as a global pool, whose mixture on B
        # lies outside this restriction's kept set.
        restriction = Restriction(g2, ((0, 2), (0, 1, 2)))
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            find_mixed_dominator(restriction, 0, 3, pool, mode)

    @pytest.mark.parametrize("field", ["mode", "pool"])
    def test_a_certificate_with_a_non_member_does_not_replay(self, g1, field):
        from dataclasses import replace

        (certificate,) = apply_operator(LS, Restriction.full(g1)).certificates
        assert replay_certificate(certificate)
        value = getattr(certificate, field).value
        assert not replay_certificate(replace(certificate, **{field: value}))

    @pytest.mark.parametrize("field", ["mode", "pool"])
    def test_a_certificate_with_a_non_member_has_no_dict(self, g1, field):
        # The string value has no ``.value``; it must not leak AttributeError.
        from dataclasses import replace

        (certificate,) = apply_operator(LS, Restriction.full(g1)).certificates
        assert certificate.to_dict()[field] == getattr(certificate, field).value
        value = getattr(certificate, field).value
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            replace(certificate, **{field: value}).to_dict()


class TestBeatsKernel:
    @settings(max_examples=300, deadline=None)
    @given(column_pairs)
    def test_matches_the_literal_quantifiers(self, pair):
        candidate, target = pair
        entries = list(zip(candidate, target))
        strict = all(a > b for a, b in entries)
        weak = all(a >= b for a, b in entries) and any(a > b for a, b in entries)
        assert _beats(candidate, target, Mode.STRICT) == strict
        assert _beats(candidate, target, Mode.WEAK) == weak

    def test_empty_and_equal_columns(self):
        assert _beats((), (), Mode.STRICT)
        assert not _beats((), (), Mode.WEAK)
        # A local pool holds the target, so its column meets itself.
        column = (3, -1, 0)
        assert not _beats(column, column, Mode.WEAK)
        assert not _beats(column, column, Mode.STRICT)
        assert _beats((3, 0, 0), column, Mode.WEAK)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(-1, 1)] * n), min_size=1, max_size=5)
        ),
        st.data(),
    )
    def test_the_pure_kernel_states_the_same_rule(self, columns, data):
        # _pure_dominator's answer is the first pool strategy that _beats the
        # target, in pool order, with columns of any length, zero included.
        columns = tuple(columns)
        target = data.draw(st.integers(0, len(columns) - 1))
        pool = data.draw(st.permutations(range(len(columns))))
        for mode in Mode:
            expected = next(
                (s for s in pool if _beats(columns[s], columns[target], mode)), None
            )
            assert _pure_dominator(0, target, pool, columns, mode) == expected


def fraction_dominates(mixed, target, restriction, player, mode):
    """Reference for ``dominates`` with a mixture: Fraction payoffs, no scaling."""
    game = restriction.game
    others = [kept for j, kept in enumerate(restriction.kept) if j != player]

    def value(strategy, opponents):
        profile = list(opponents)
        profile.insert(player, strategy)
        return payoff(game, player, tuple(profile))

    gains = [
        sum(w * value(s, opponents) for s, w in mixed.weights) - value(target, opponents)
        for opponents in product(*others)
    ]
    if mode is Mode.STRICT:
        return all(g > 0 for g in gains)
    return all(g >= 0 for g in gains) and any(g > 0 for g in gains)


class TestMixedCandidates:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_mixtures_match_the_fraction_reference(self, seed):
        rng = random.Random(seed)
        game = small_game(seed, players=(2, 3), strategies=(1, 4), tie_bias=0.5)
        restriction = Restriction.from_masks(
            game, tuple(rng.randrange(1 << k) for k in game.shape)
        )
        for player in range(game.player_count):
            k = game.shape[player]
            for _ in range(4):
                support = rng.sample(range(k), rng.randint(1, k))
                counts = [rng.randint(1, 6) for _ in support]
                mixed = MixedStrategy(
                    player, tuple((s, F(c, sum(counts))) for s, c in zip(support, counts))
                )
                target = rng.randrange(k)
                for mode in Mode:
                    assert dominates(mixed, target, restriction, player, mode) == (
                        fraction_dominates(mixed, target, restriction, player, mode)
                    )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_ties_in_weak_mode(self, seed):
        # The target's payoffs are the mixture's, less a gap of 0 or 1/7 at
        # each column: a zero gap is an exact tie between rationals.
        rng = random.Random(seed)
        rows, cols = rng.randint(2, 4), rng.randint(1, 4)
        pool = [[F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        counts = [rng.randint(0, 4) for _ in range(rows)]
        counts[rng.randrange(rows)] += 1
        weights = [F(c, sum(counts)) for c in counts]
        gaps = [rng.choice((0, 0, F(1, 7))) for _ in range(cols)]
        target = [
            sum(w * row[c] for w, row in zip(weights, pool)) - gaps[c] for c in range(cols)
        ]
        game = Game.from_tables(
            ["Row", "Column"],
            [[f"R{i}" for i in range(rows + 1)], [f"C{j}" for j in range(cols)]],
            [[[v, 0] for v in row] for row in (*pool, target)],
        )
        mixed = MixedStrategy(0, tuple(enumerate(weights)))
        column_mask = rng.randrange(1 << cols)
        restriction = Restriction.from_masks(game, ((1 << (rows + 1)) - 1, column_mask))
        kept_gaps = [gaps[c] for c in range(cols) if column_mask >> c & 1]
        expected = {Mode.STRICT: all(kept_gaps), Mode.WEAK: any(kept_gaps)}
        for mode in Mode:
            assert dominates(mixed, rows, restriction, 0, mode) == expected[mode]
            assert fraction_dominates(mixed, rows, restriction, 0, mode) == expected[mode]


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
        columns = _columns(g2, 0, bases)
        assert _grid_dominated(_grid_mixtures(columns, 6), columns[2], Mode.WEAK)

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
            columns = _columns(g2, 0, _opponent_bases(g2, 0, (0b1,)))
            _mixed_dominator(0, 0, (), columns, Mode.STRICT)
        # Public path: a local pool is empty only when the kept-set is.
        with pytest.raises(NoCandidatesError):
            find_mixed_dominator(r, 0, 0, Pool.LOCAL, Mode.STRICT)


def margin_rule(pool, columns, target, mode):
    """The mixed query's prefilter stated on the margins, as an oracle.

    Returns ``("pure", s)`` for the first pure dominator ``s``, ``("none",
    None)`` when no profile is left or some profile refutes every mixture,
    and ``("lp", margins)`` with the margin rows, in pool order, that the LP
    must decide.  Refutation: a profile at which every margin is ``<= 0``
    (strict) or ``< 0`` (weak), over the rows that are not all zero.
    """
    target_col = columns[target]
    for s in pool:
        if _beats(columns[s], target_col, mode):
            return "pure", s
    if not target_col:
        return "none", None
    margins = [tuple(a - t for a, t in zip(columns[s], target_col)) for s in pool]
    live = [row for row in margins if any(row)]
    bound = 1 if mode is Mode.STRICT else 0
    for c in range(len(target_col)):
        if all(row[c] < bound for row in live):
            return "none", None
    return "lp", margins


@st.composite
def prefilter_queries(draw):
    """Small int columns with ties and copies of the target's column, and a pool."""
    count = draw(st.integers(1, 5))
    profiles = draw(st.integers(0, 4))
    target = draw(st.integers(0, count - 1))
    column = st.tuples(*[st.integers(-2, 2)] * profiles)
    target_col = draw(column)
    columns = tuple(
        target_col if s == target else draw(st.one_of(st.just(target_col), column))
        for s in range(count)
    )
    pool = tuple(sorted(draw(st.sets(st.integers(0, count - 1), min_size=1))))
    mode = draw(st.sampled_from([Mode.STRICT, Mode.WEAK]))
    return pool, columns, target, mode


def check_against_margin_rule(pool, columns, target, mode):
    """Assert that ``_mixed_dominator`` answers as :func:`margin_rule` says,
    calling the LP exactly when the rule needs it, on the same rows in the
    same order; return the rule's verdict."""
    calls = []

    def recording_lp(margins, strict):
        calls.append((list(margins), strict))
        return solve_lp(margins, strict)

    verdict, detail = margin_rule(pool, columns, target, mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("dominance_lab.dominance.solve_lp", recording_lp)
        got = _mixed_dominator(0, target, pool, columns, mode)
    if verdict == "pure":
        assert got == MixedStrategy.point_mass(0, detail)
    elif verdict == "none":
        assert got is None
    else:
        result = solve_lp(detail, mode is Mode.STRICT)
        expected = None if result.value <= 0 else MixedStrategy(
            0, tuple((s, w) for s, w in zip(pool, result.weights) if w)
        )
        assert got == expected
    assert calls == ([(detail, mode is Mode.STRICT)] if verdict == "lp" else [])
    return verdict


class TestPrefilterDifferential:
    @settings(max_examples=400, deadline=None)
    @given(prefilter_queries())
    def test_column_maxima_match_the_margin_rule(self, query):
        check_against_margin_rule(*query)

    @pytest.mark.parametrize("mode", [Mode.STRICT, Mode.WEAK])
    @pytest.mark.parametrize(
        "pool, target, verdict",
        [
            ((0, 1, 2, 3), 0, "lp"),  # the target and a copy of it in the pool
            ((1, 2), 0, "lp"),
            ((0, 3, 4), 0, "none"),  # only copies and a loser
            ((0, 3), 0, "none"),  # only copies
            ((4, 1, 0), 4, "pure"),
        ],
    )
    def test_each_verdict(self, pool, target, verdict, mode):
        columns = ((0, 0), (1, -1), (-1, 1), (0, 0), (-1, -1))
        assert check_against_margin_rule(pool, columns, target, mode) == verdict

    @pytest.mark.parametrize("mode, verdict", [(Mode.STRICT, "none"), (Mode.WEAK, "lp")])
    def test_a_tie_refutes_only_strict(self, mode, verdict):
        # At the first profile the best pool payoff ties the target's.
        columns = ((0, 0), (0, -1), (-1, 3))
        assert check_against_margin_rule((1, 2), columns, 0, mode) == verdict


def every_composition_dominated(columns, target_col, mode, max_denominator):
    """The grid search as one loop: every count vector at every denominator,
    common factors and repeats included, each mixed column built afresh."""
    profiles = range(len(target_col))
    for den in range(1, max_denominator + 1):
        scaled_target = [den * t for t in target_col]
        for counts in product(range(den + 1), repeat=len(columns)):
            if sum(counts) != den:
                continue
            mixed = [sum(k * col[c] for k, col in zip(counts, columns)) for c in profiles]
            pairs = list(zip(mixed, scaled_target))
            strict = all(a > b for a, b in pairs)
            weak = all(a >= b for a, b in pairs) and any(a > b for a, b in pairs)
            if strict if mode is Mode.STRICT else weak:
                return True
    return False


def per_weight_vector_mixtures(columns, max_denominator):
    """``_grid_mixtures`` as one sum per weight vector and profile."""
    scale, weights = _grid_weights(len(columns), max_denominator)
    sums = [[sum(w * x for w, x in zip(weight, row)) for weight in weights] for row in zip(*columns)]
    if not sums:
        return scale, [()]
    return scale, list(dict.fromkeys(zip(*sums)))


class TestGridOracle:
    def random_case(self, rng):
        """Int columns for a pool of 1 to 4 strategies, with ties and repeated
        columns; the target is a pool column or the floor of an even mix of
        two, perhaps lowered at one profile."""
        size, profiles = rng.randint(1, 4), rng.randint(0, 3)
        columns = [tuple(rng.randint(-2, 2) for _ in range(profiles)) for _ in range(size)]
        if size > 1 and rng.random() < 0.3:
            columns[rng.randrange(size)] = columns[rng.randrange(size)]
        a, b = rng.choice(columns), rng.choice(columns)
        target = [x if rng.random() < 0.5 else (x + y) // 2 for x, y in zip(a, b)]
        if target and rng.random() < 0.5:
            target[rng.randrange(profiles)] -= rng.randint(1, 2)
        return columns, tuple(target)

    def test_grid_agrees_with_every_composition(self):
        rng = random.Random(2024)
        outcomes = {}
        for _ in range(400):
            columns, target = self.random_case(rng)
            for max_denominator in range(1, 7):
                grid = _grid_mixtures(columns, max_denominator)
                for mode in (Mode.STRICT, Mode.WEAK):
                    found = _grid_dominated(grid, target, mode)
                    assert found == every_composition_dominated(
                        columns, target, mode, max_denominator
                    ), (columns, target, mode, max_denominator)
                    outcomes[mode, found] = outcomes.get((mode, found), 0) + 1
        # Both modes both find and miss dominators on these cases.
        assert len(outcomes) == 4

    def test_each_mixture_is_listed_once_at_its_smallest_denominator(self):
        # Unit columns: each mixed column is its weight vector, so the grid
        # lists each mixture with denominators <= 4 once, over lcm(1..4).
        columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        scale, vectors = _grid_mixtures(columns, 4)
        assert scale == 12
        assert vectors == list(_grid_weights(3, 4)[1])
        assert len(set(vectors)) == len(vectors) == 22
        # A repeated column adds no mixed column.
        repeated = _grid_mixtures(columns + [columns[0]], 4)
        assert repeated[0] == scale and set(repeated[1]) == set(vectors)
        assert _grid_mixtures([columns[0]] * 2, 3) == (6, [(6, 0, 0)])
        # Only the half-half mixture strictly dominates the target, so the
        # grid of the pure strategies alone misses it.
        grid = _grid_mixtures([(1, -1), (0, 0)], 2)
        assert grid == (2, [(2, -2), (0, 0), (1, -1)])
        assert _grid_dominated(grid, (0, -1), Mode.STRICT)
        assert not _grid_dominated(_grid_mixtures([(1, -1), (0, 0)], 1), (0, -1), Mode.STRICT)

    @pytest.mark.parametrize("count", range(1, 5))
    def test_weights_are_every_composition_once(self, count):
        for max_denominator in range(1, 7):
            scale, weights = _grid_weights(count, max_denominator)
            assert all(scale % den == 0 for den in range(1, max_denominator + 1))
            assert all(sum(w) == scale for w in weights)
            assert len(set(weights)) == len(weights)
            compositions = {
                tuple(F(k, den) for k in counts)
                for den in range(1, max_denominator + 1)
                for counts in product(range(den + 1), repeat=count)
                if sum(counts) == den
            }
            assert {tuple(F(x, scale) for x in w) for w in weights} == compositions
            # Listed in the order first reached: by smallest denominator.
            dens = [scale // gcd(scale, *w) for w in weights]
            assert dens == sorted(dens)

    def test_grid_mixtures_equal_one_sum_per_weight_vector(self):
        # Random columns of 1 to 4 strategies over 0 to 4 profiles, with
        # repeated columns, at every denominator bound.
        rng = random.Random(29)
        cases = 0
        for _ in range(300):
            size, profiles = rng.randint(1, 4), rng.randint(0, 4)
            columns = [tuple(rng.randint(-3, 3) for _ in range(profiles)) for _ in range(size)]
            if size > 1 and rng.random() < 0.4:
                columns[rng.randrange(size)] = columns[rng.randrange(size)]
            for max_denominator in range(1, 7):
                assert _grid_mixtures(columns, max_denominator) == per_weight_vector_mixtures(
                    columns, max_denominator
                ), (columns, max_denominator)
                cases += not profiles
        assert cases

    @pytest.mark.parametrize("seed", [0, 1000, suites.DEFAULT_SEED])
    def test_the_suites_lp_calls_equal_find_mixed_dominator(self, seed, monkeypatch):
        # The oracle suite decides the LP side on the columns it built for
        # the grid; each call must answer what the public query does on the
        # full restriction with a global pool.
        games, calls = [], []
        generate_game, kernel = suites.generate, suites._mixed_dominator

        def recorded_generate(config):
            games.append(generate_game(config))
            return games[-1]

        def recorded_kernel(*args):
            calls.append((args, kernel(*args)))
            return calls[-1][1]

        monkeypatch.setattr(suites, "generate", recorded_generate)
        monkeypatch.setattr(suites, "_mixed_dominator", recorded_kernel)
        suites.oracle_suite(seed=seed, games=40)
        expected_calls = []
        for game in games:
            top = Restriction.full(game)
            for player in range(game.player_count):
                pool = tuple(range(game.shape[player]))
                opp_masks = top.masks[:player] + top.masks[player + 1 :]
                columns = _columns(game, player, _opponent_bases(game, player, opp_masks))
                for target in pool:
                    for mode in (Mode.STRICT, Mode.WEAK):
                        witness = find_mixed_dominator(top, player, target, Pool.GLOBAL, mode)
                        expected_calls.append(((player, target, pool, columns, mode), witness))
        assert len(games) == 40
        assert calls == expected_calls
        answers = [got for _, got in calls]
        assert None in answers
        assert any(w is not None and len(w.support) > 1 for w in answers)
        assert any(w is not None and len(w.support) == 1 for w in answers)

    @pytest.mark.parametrize("seed", range(6))
    def test_cached_columns_equal_each_strategys_column(self, seed):
        game = small_game(seed, players=(2, 3), strategies=(1, 3))
        engine = EliminationEngine(game)
        rng = random.Random(seed)
        for player in range(game.player_count):
            others = [k for q, k in enumerate(game.shape) if q != player]
            for opp_masks in product(*(range(1 << k) for k in others)):
                if rng.random() < 0.5:
                    continue
                columns = engine.columns(player, opp_masks)
                bases = _opponent_bases(game, player, opp_masks)
                assert columns == tuple(
                    _column(game, player, s, bases) for s in range(game.shape[player])
                )
                assert engine.columns(player, opp_masks) is columns


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
        for player in range(game.player_count):
            bases = _opponent_bases(game, player, top.masks[:player] + top.masks[player + 1 :])
            columns = _columns(game, player, bases)
            pool = tuple(range(game.shape[player]))
            for target in pool:
                with_target = _mixed_dominator(player, target, pool, columns, Mode.STRICT)
                without_target = _mixed_dominator(
                    player, target, tuple(s for s in pool if s != target), columns, Mode.STRICT
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

    def test_pure_dominator_outside_the_local_pool_fails_replay(self, g1):
        from dataclasses import replace

        step = apply_operator(LS, Restriction.full(g1))
        (certificate,) = step.certificates
        assert (certificate.pool, certificate.dominator, certificate.eliminated) == (
            Pool.LOCAL, 0, 1,
        )
        # At B x X the inequalities still hold, but A is no longer kept.
        narrowed = Restriction(g1, ((1,), (0,)))
        assert dominates(0, 1, narrowed, 0, certificate.mode)
        assert not replay_certificate(replace(certificate, context=narrowed))

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


def _g1_evidence(g1):
    """The LS elimination certificate of section3 and the LS monotonicity witness."""
    from dominance_lab.analysis import Exhaustive, check_monotonic

    (certificate,) = apply_operator(LS, Restriction.full(g1)).certificates
    return certificate, check_monotonic(LS, g1, Exhaustive())


def _unchecked_mixture(player, weights):
    """A ``MixedStrategy`` with its fields set as given, past the constructor's checks."""
    mixture = object.__new__(MixedStrategy)
    object.__setattr__(mixture, "player", player)
    object.__setattr__(mixture, "weights", weights)
    return mixture


class TestIndicesThatAreNotInts:
    """A float or bool index is refused, never read as the int it equals."""

    @pytest.mark.parametrize(
        ("call", "error", "message"),
        [
            (lambda top, c, w: dominates(1.0, 1, top, 0, Mode.WEAK), InvalidProfileError,
             "strategy index 1.0 for player 'Row' is not an int"),
            (lambda top, c, w: dominates(True, 1, top, 0, Mode.WEAK), InvalidProfileError,
             "strategy index True for player 'Row' is not an int"),
            (lambda top, c, w: dominates(0, 1, top, 0.0, Mode.WEAK), InvalidProfileError,
             "player index 0.0 is not an int"),
            (lambda top, c, w: find_mixed_dominator(top, 0.0, 1, Pool.LOCAL, Mode.WEAK),
             InvalidProfileError, "player index 0.0 is not an int"),
            (lambda top, c, w: payoff(top.game, 0, (0.0, 0)), InvalidProfileError,
             "strategy index 0.0 for player 'Row' is not an int"),
            (lambda top, c, w: payoff(top.game, True, (0, 0)), InvalidProfileError,
             "player index True is not an int"),
            (lambda top, c, w: replace(c, dominator=0.0).to_dict(), InvalidProfileError,
             "strategy index 0.0 for player 'Row' is not an int"),
            (lambda top, c, w: replace(w, evidence=(0, 1.0)).to_dict(), ValueError,
             "evidence (0, 1.0) names no strategy of the game"),
        ],
        ids=["dominates_float_candidate", "dominates_bool_candidate", "dominates_float_player",
             "find_mixed_dominator_float_player", "payoff_float_profile", "payoff_bool_player",
             "certificate_float_dominator", "witness_float_evidence"],
    )
    def test_public_calls_raise(self, g1, call, error, message):
        certificate, witness = _g1_evidence(g1)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(Restriction.full(g1), certificate, witness)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c, w: replay_certificate(replace(c, player=0.0)),
            lambda c, w: replay_certificate(replace(c, player=False)),
            lambda c, w: replay_certificate(replace(c, eliminated=1.0)),
            lambda c, w: replay_certificate(replace(c, dominator=False)),
            lambda c, w: replay_certificate(
                replace(c, dominator=_unchecked_mixture(0, ((0.0, Fraction(1)),)))
            ),
            lambda c, w: replace(w, evidence=(0, 1.0)).replay(),
            lambda c, w: replace(w, evidence=(False, 1)).replay(),
        ],
        ids=["certificate_float_player", "certificate_bool_player",
             "certificate_float_eliminated", "certificate_bool_dominator",
             "certificate_float_support", "witness_float_strategy", "witness_bool_player"],
    )
    def test_replays_fail(self, g1, tamper):
        certificate, witness = _g1_evidence(g1)
        assert replay_certificate(certificate) and witness.replay()
        assert tamper(certificate, witness) is False
