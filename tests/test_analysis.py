import dataclasses
import json
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_
from types import SimpleNamespace

import pytest

from dominance_lab import (
    ALL_OPERATORS,
    GS,
    GW,
    LS,
    LW,
    MGS,
    MGW,
    MLS,
    MLW,
    BudgetExceededError,
    Exhaustive,
    Game,
    Restriction,
    check_monotonic,
    compare_fixpoints,
    lattice_size,
    pointwise_inclusion,
)
from dominance_lab import analysis, dominance, operators
from dominance_lab.analysis import (
    MonotonicityWitness,
    _first_excess,
    _monotonicity_work,
    enumerate_restriction_masks,
    relation_of,
)
from dominance_lab.dominance import Mode
from dominance_lab.game_model import MixedStrategy, builtin_game, indices_of
from dominance_lab.operators import EliminationEngine, Mixing, _lone_empty
from dominance_lab.random_games import GeneratorConfig, generate


GLOBAL_KINDS = (GS, MGS, GW, MGW)
# The kinds whose first failing node has rank at most the player count:
# each is decided by payoff comparisons at one rank, with no engine.
TRUNCATED_KINDS = (LS, MLS, LW, MLW, GW, MGW)


def zero_game(shape):
    """A game of ``shape`` whose payoffs are all zero."""
    strategies = [[f"S{j}" for j in range(count)] for count in shape]
    size = math.prod(shape)
    return Game([f"P{i + 1}" for i in range(len(shape))], strategies, [[0] * size for _ in shape])


def big_flat_game():
    # 7 x 6 strategies: 2^13 lattice nodes, C(13, 2) = 78 of them of rank 2.
    rows = [f"R{i}" for i in range(7)]
    cols = [f"C{j}" for j in range(6)]
    table = [[[0, 0] for _ in cols] for _ in rows]
    return Game.from_tables(["P1", "P2"], [rows, cols], table)


def _contexts_of(opp_shape):
    """The opponent contexts where every opponent keeps something, ascending lexicographically."""
    return list(product(*(range(1, 1 << n) for n in opp_shape)))


def _opp_shape(game, player):
    return game.shape[:player] + game.shape[player + 1 :]


def _assert_the_index_lists(opp_shape):
    """``analysis._context_index(opp_shape)`` places the i-th context of
    :func:`_contexts_of` at bit i, ``holding[j][x]`` holds exactly the
    contexts whose opponent ``j`` keeps ``x``, and each cover that adds
    ``x`` to ``j`` is one shift, over exactly the contexts that lack ``x``.
    Returns the contexts."""
    count, strides, holding, covers = analysis._context_index(opp_shape)
    contexts = _contexts_of(opp_shape)
    assert count == len(contexts)
    for at, opp in enumerate(contexts):
        assert [at // stride % ((1 << n) - 1) + 1 for stride, n in zip(strides, opp_shape)] == list(opp)
    for j, holds in enumerate(holding):
        assert len(holds) == opp_shape[j]
        for x, hold in enumerate(holds):
            assert hold == sum(1 << at for at, opp in enumerate(contexts) if opp[j] >> x & 1), (j, x)
    # Each cover's shift and the contexts that have it, read from the masks.
    position = {opp: at for at, opp in enumerate(contexts)}
    expected = Counter()
    for at, opp in enumerate(contexts):
        for j, n in enumerate(opp_shape):
            for x in indices_of((1 << n) - 1 & ~opp[j]):
                cover = opp[:j] + (opp[j] | 1 << x,) + opp[j + 1 :]
                expected[position[cover] - at, j, x] |= 1 << at
    assert sorted(covers) == sorted((shift, lacking) for (shift, _, _), lacking in expected.items())
    return contexts


def _count_gs_decisions(monkeypatch):
    """Count GS's bit-set tables, per player, and its decisions, per (player, opponent masks).

    Also asserts that each table is read over the dense context index, bit
    ``i`` the ``i``-th context in ascending lexicographic order of the
    masks, and that no ``D_t`` has a bit past the last context.
    """
    tables, decisions = Counter(), Counter()
    dominated = analysis._pure_strict_dominated

    def counted_dominated(game, player, index):
        tables[player] += 1
        contexts = _assert_the_index_lists(_opp_shape(game, player))
        assert index == analysis._context_index(_opp_shape(game, player))
        found = dominated(game, player, index)
        assert len(found) == game.shape[player]
        assert all(0 <= d < 1 << len(contexts) for d in found)
        decisions.update((player, opp) for opp in contexts)
        return found

    monkeypatch.setattr(analysis, "_pure_strict_dominated", counted_dominated)
    return tables, decisions


def _count_mgs_decisions(monkeypatch):
    """Count the column sets the exact checks build, per (player, opponent
    masks), and MGS's kernel calls, per (player, pool mask, opponent masks,
    target), at the names the checks look up.

    GS builds one column set per player, over the full opponent masks; MGS
    one per opponent context it decides.  (``_count_gs_decisions`` checks
    the context index both fill.)
    """
    built, decided = Counter(), Counter()
    # id of a bases or column tuple -> (the tuple, (player, opponent masks));
    # the tuple is held here, so its id is never reused for another.
    held = {}
    bases, columns, kernel = analysis._opponent_bases, analysis._columns, analysis._mixed_dominator

    def noted_bases(game, player, opp_masks):
        found = bases(game, player, opp_masks)
        held[id(found)] = (found, (player, tuple(opp_masks)))
        return found

    def counted_columns(game, player, found_bases):
        found = columns(game, player, found_bases)
        context = held[id(found_bases)][1]
        built[context] += 1
        held[id(found)] = (found, context)
        return found

    def counted_kernel(player, target, pool, cols, mode):
        owner, opp_masks = held[id(cols)][1]
        assert owner == player and mode is Mode.STRICT
        decided[player, sum(1 << s for s in pool), opp_masks, target] += 1
        return kernel(player, target, pool, cols, mode)

    monkeypatch.setattr(analysis, "_opponent_bases", noted_bases)
    monkeypatch.setattr(analysis, "_columns", counted_columns)
    monkeypatch.setattr(analysis, "_mixed_dominator", counted_kernel)
    return built, decided


def _every_mgs_decision(game):
    """Each (player, pool mask, opponent masks, target) that an exact MGS
    check on a monotone ``game`` asks the kernel once: every target, over
    the full pool, at each context where every opponent keeps something."""
    return Counter(
        (k, (1 << game.shape[k]) - 1, opp, target)
        for k, opp in _opponent_contexts(game)
        for target in range(game.shape[k])
    )


def _opponent_contexts(game):
    """Each (player, opponent masks) where every opponent keeps something."""
    shape = game.shape
    return [
        (k, opp)
        for k in range(len(shape))
        for opp in product(*(range(1, 1 << n) for n in shape[:k] + shape[k + 1 :]))
    ]


class TestCheckMonotonic:
    def test_ls_witness_on_g1_is_the_known_pair(self, g1):
        witness = check_monotonic(LS, g1, Exhaustive())
        assert witness is not None
        assert witness.smaller.kept == ((1,), (0,))
        assert witness.larger.kept == ((0, 1), (0,))
        assert witness.evidence == (0, 1)
        assert witness.replay()

    def test_mls_witness_on_g1_matches_ls(self, g1):
        witness = check_monotonic(MLS, g1, Exhaustive())
        assert witness is not None
        assert witness.smaller.kept == ((1,), (0,))
        assert witness.larger.kept == ((0, 1), (0,))

    @pytest.mark.parametrize("kind", [GS, MGS])
    def test_global_strict_operators_are_monotonic_on_paper_games(self, kind, g1, g2):
        assert check_monotonic(kind, g1, Exhaustive()) is None
        assert check_monotonic(kind, g2, Exhaustive()) is None

    @pytest.mark.parametrize("kind", [LW, MLW, GW, MGW])
    def test_weak_operators_fail_monotonicity_within_g2(self, kind, g2):
        witness = check_monotonic(kind, g2, Exhaustive())
        assert witness is not None
        assert witness.smaller.issubset(witness.larger)
        assert witness.replay()

    def test_exhaustive_cap_is_enforced(self):
        # The cap bounds the C(13, 2) = 78 nodes of rank P = 2 that LS walks,
        # not 2^13.
        game = big_flat_game()
        assert lattice_size(game) == 8192
        with pytest.raises(BudgetExceededError, match="visits 78 nodes, above the exhaustive cap 77"):
            check_monotonic(LS, game, Exhaustive(cap=77))
        assert check_monotonic(LS, game, Exhaustive(cap=78)) is None
        assert check_monotonic(LS, game, Exhaustive()) is None

    def test_cap_parameter_is_honored(self, g1):
        # GS decides the (2^1 - 1) + (2^2 - 1) opponent contexts of the 2x1
        # game where the opponent keeps something.
        with pytest.raises(BudgetExceededError, match="4 opponent contexts"):
            check_monotonic(GS, g1, Exhaustive(cap=3))
        assert check_monotonic(GS, g1, Exhaustive(cap=4)) is None

    def test_the_default_cap_is_2_to_the_16(self):
        assert Exhaustive().cap == 1 << 16


class TestBudgets:
    @pytest.mark.parametrize("cap", [0, -1])
    def test_exhaustive_budget_needs_a_positive_cap(self, cap):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            Exhaustive(cap=cap)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "3", None])
    def test_budgets_need_an_int(self, value):
        # A float cap would be printed in the exceeded message; a bool is
        # not a count.
        with pytest.raises(ValueError, match="cap must be an int"):
            Exhaustive(cap=value)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda g, bad: check_monotonic(bad, g, Exhaustive()), "kind"),
            (lambda g, bad: check_monotonic(GS, bad, Exhaustive()), "game"),
            (lambda g, bad: check_monotonic(GS, g, bad), "budget"),
            (lambda g, bad: pointwise_inclusion(bad, LW, g, Exhaustive()), "left"),
            (lambda g, bad: pointwise_inclusion(MLW, bad, g, Exhaustive()), "right"),
            (lambda g, bad: pointwise_inclusion(MLW, LW, bad, Exhaustive()), "game"),
            (lambda g, bad: pointwise_inclusion(MLW, LW, g, bad), "budget"),
            (lambda g, bad: compare_fixpoints(bad, LW, g), "left"),
            (lambda g, bad: compare_fixpoints(MLW, bad, g), "right"),
            (lambda g, bad: compare_fixpoints(MLW, LW, bad), "game"),
        ],
        ids=[
            "check_monotonic-kind", "check_monotonic-game", "check_monotonic-budget",
            "pointwise_inclusion-left", "pointwise_inclusion-right", "pointwise_inclusion-game",
            "pointwise_inclusion-budget", "compare_fixpoints-left", "compare_fixpoints-right",
            "compare_fixpoints-game",
        ],
    )
    @pytest.mark.parametrize("bad", ["GS", None, Mode.STRICT, 1 << 16], ids=repr)
    def test_a_wrong_argument_is_named_before_any_work(self, call, name, bad, g2, monkeypatch):
        # An operator must be an OperatorKind, a game a Game and a budget an
        # Exhaustive; each is refused by name, in signature order, before an
        # engine, a walk or a decider is built.
        def fail(*args):
            raise AssertionError("the check did some work")

        for target, attribute in [
            (EliminationEngine, "__init__"), (analysis, "_ranks"),
            (analysis, "_context_index"), (analysis, "_pure_strict_dominated"),
            (analysis, "_mixed_strict_dominated"),
        ]:
            monkeypatch.setattr(target, attribute, fail)
        kind = {"game": "a Game", "budget": "an Exhaustive"}.get(name, "an OperatorKind")
        with pytest.raises(ValueError, match=re.escape(f"{name} must be {kind}, got {bad!r}")):
            call(g2, bad)

    def test_the_first_wrong_argument_in_signature_order_is_named(self):
        with pytest.raises(ValueError, match="kind must be"):
            check_monotonic(None, None, None)
        with pytest.raises(ValueError, match="game must be"):
            check_monotonic(GS, None, None)
        with pytest.raises(ValueError, match="right must be"):
            pointwise_inclusion(MLW, None, None, None)
        with pytest.raises(ValueError, match="game must be"):
            pointwise_inclusion(MLW, LW, None, None)
        with pytest.raises(ValueError, match="right must be"):
            compare_fixpoints(MLW, None, None)

    def test_the_smallest_budgets_still_scan(self, g1):
        assert pointwise_inclusion(MLW, LW, g1, Exhaustive(cap=8)).checked == 8
        with pytest.raises(BudgetExceededError, match="8 restrictions"):
            pointwise_inclusion(MLW, LW, g1, Exhaustive(cap=7))
        with pytest.raises(BudgetExceededError):
            check_monotonic(GS, g1, Exhaustive(cap=1))


class TestOneDecisionPerContext:
    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_each_target_is_scanned_once_per_opponent_context(self, seed, kind, monkeypatch):
        game = generate(GeneratorConfig(seed=seed, strategies=(4, 4), tie_bias=0.3))
        assert game.shape == (4, 4)
        scans, queries, builds = Counter(), Counter(), Counter()
        # id of a column set -> (the set, its (player, opponent masks)); the
        # set is held here, so its id is never reused for another.
        contexts = {}
        query = EliminationEngine.dominator
        columns = EliminationEngine.columns
        bases = EliminationEngine.opponent_bases

        def counting(kernel):
            def counted_scan(player, target, pool, cols, mode):
                scans[contexts[id(cols)][1], sum(1 << s for s in pool), target] += 1
                return kernel(player, target, pool, cols, mode)

            return counted_scan

        def counted_query(engine, player, target, pool_mask, opp_masks, mode, mixing):
            queries[(player, opp_masks), pool_mask, target] += 1
            return query(engine, player, target, pool_mask, opp_masks, mode, mixing)

        def noted_columns(engine, player, opp_masks):
            found = columns(engine, player, opp_masks)
            held = contexts.setdefault(id(found), (found, (player, opp_masks)))
            assert held[1] == (player, opp_masks)
            return found

        def counted_bases(engine, player, opp_masks):
            builds[player, opp_masks] += 1
            return bases(engine, player, opp_masks)

        for name in ("_pure_dominator", "_mixed_dominator"):
            monkeypatch.setattr(operators, name, counting(getattr(operators, name)))
        monkeypatch.setattr(EliminationEngine, "dominator", counted_query)
        monkeypatch.setattr(EliminationEngine, "columns", noted_columns)
        monkeypatch.setattr(EliminationEngine, "opponent_bases", counted_bases)
        walked, engines = _spy_walk(monkeypatch)
        _, decisions = _count_gs_decisions(monkeypatch)
        built, decided = _count_mgs_decisions(monkeypatch)
        witness = check_monotonic(kind, game, Exhaustive())
        # No check builds an engine on these games: none asks the engine's
        # records, kernels or column sets.
        assert not engines and not queries and not scans and not builds
        if kind in TRUNCATED_KINDS:
            # A local, GW or MGW check compares payoffs: it decides no
            # target and builds no column set, it walks the nodes of its one
            # rank in scan order up to its witness, and its answer is the
            # full scan's.
            assert not decisions and not built and not decided
            assert walked == _walk_of(kind, game, witness)
            assert witness == _memo_free_witness(kind, game)
            return
        if kind == GS:
            # GS decides on bit sets over the opponent profiles, read from
            # one column set per player.  It is monotone on these games, and
            # it decides each of the 2 * 15 contexts where the opponent keeps
            # something once, for all 4 targets at once.
            assert witness is None
            assert decisions == Counter(_opponent_contexts(game))
            assert len(decisions) == 2 * ((1 << 4) - 1)
            assert built == Counter({(0, (0b1111,)): 1, (1, (0b1111,)): 1})
            assert not decided
            return
        assert not decisions
        # MGS is monotone on these games, so the walk runs to the end and,
        # with the one global pool, asks the mixed kernel about every
        # (player, opponent mask, target) but the empty opponent mask, where
        # every target is dominated vacuously, exactly once: 2 players, 15
        # opponent masks, 4 targets.
        assert witness is None
        assert decided == _every_mgs_decision(game)
        assert len(decided) == 2 * ((1 << 4) - 1) * 4
        assert all(opp != (0,) for _, _, opp, _ in decided)
        # Each (player, opponent masks) column set is built exactly once, and
        # only where some target is decided.
        assert set(built.values()) == {1}
        assert set(built) == {(k, opp) for k, _, opp, _ in decided}

    @pytest.mark.parametrize("kind", [GS, MGS], ids=str)
    def test_a_strict_walk_decides_each_3_player_context_once(self, kind, monkeypatch):
        # GS and MGS decide every target at every opponent context where each
        # opponent keeps something, once, and nothing anywhere else, with no
        # engine.  MGS makes sum_k n_k * prod_{j != k} (2^n_j - 1) = 3 * 3 *
        # 7 * 7 mixed-kernel calls, on 3 * 7 * 7 column sets; GS decides
        # each of the 3 * 7 * 7 contexts once, for all 3 targets at once, on
        # one set of bit-set tables and one column set per player.
        game = generate(GeneratorConfig(seed=0, players=(3, 3), strategies=(3, 3), tie_bias=0.3))
        assert game.shape == (3, 3, 3)
        queried, engine_bases = Counter(), Counter()
        dominator, bases = EliminationEngine.dominator, EliminationEngine.opponent_bases

        def counted_query(engine, player, target, pool_mask, opp_masks, mode, mixing):
            queried[player, pool_mask, opp_masks, target] += 1
            return dominator(engine, player, target, pool_mask, opp_masks, mode, mixing)

        def counted_bases(engine, player, opp_masks):
            engine_bases[player, opp_masks] += 1
            return bases(engine, player, opp_masks)

        monkeypatch.setattr(EliminationEngine, "dominator", counted_query)
        monkeypatch.setattr(EliminationEngine, "opponent_bases", counted_bases)
        _, engines = _spy_walk(monkeypatch)
        tables, decisions = _count_gs_decisions(monkeypatch)
        built, decided = _count_mgs_decisions(monkeypatch)
        assert check_monotonic(kind, game, Exhaustive()) is None
        assert not engines and not queried and not engine_bases
        contexts = [(k, opp) for k in range(3) for opp in product(range(1, 8), repeat=2)]
        assert len(contexts) == 147
        if kind == GS:
            assert tables == Counter(range(3))
            assert decisions == Counter(contexts)
            assert built == Counter((k, (0b111, 0b111)) for k in range(3))
            assert not decided
            return
        assert not tables and not decisions
        assert built == Counter(contexts)
        assert decided == Counter(
            (k, 0b111, opp, target) for k, opp in contexts for target in range(3)
        )
        assert sum(decided.values()) == 441

    @pytest.mark.parametrize("kind", [LS, MLS, LW, MLW], ids=str)
    def test_a_clean_scan_walks_each_rank_p_node_once(self, kind, monkeypatch):
        # A game without dominance has no witness, so the walk runs to the
        # end of the one rank the local kinds visit, P = 2: the C(8, 2) = 28
        # nodes of rank 2 of a 4x4 game (its 16 pure profiles and the 12
        # where one player keeps two strategies), each once, in scan order,
        # and no node of another rank.  It asks no survivors.
        game = zero_game((4, 4))
        expected = [m for m in enumerate_restriction_masks(game) if _rank(m) == 2]
        assert len(expected) == math.comb(8, 2) == 28
        walked = []
        ranks = analysis._ranks

        def noted(nodes):
            for node in nodes:
                walked.append(node)
                yield node

        def fail(*args):
            raise AssertionError("the check asked for survivors")

        monkeypatch.setattr(analysis, "_ranks", lambda shape: map(noted, ranks(shape)))
        monkeypatch.setattr(EliminationEngine, "survivors", fail)
        assert check_monotonic(kind, game, Exhaustive()) is None
        assert walked == expected


def _covers(masks, full):
    """Every restriction that keeps exactly one strategy more than ``masks``, in scan order."""
    for player, (m, f) in enumerate(zip(masks, full)):
        for strategy in indices_of(f & ~m):
            yield masks[:player] + (m | 1 << strategy,) + masks[player + 1 :]


def _rank(masks):
    return sum(map(int.bit_count, masks))


def _spy_walk(monkeypatch):
    """Note each node the rank walk yields and each engine built; returns (walked, engines)."""
    walked, engines = [], Counter()
    ranks, init = analysis._ranks, EliminationEngine.__init__

    def noted(nodes):
        for node in nodes:
            walked.append(node)
            yield node

    def counted_init(engine, game):
        engines["built"] += 1
        init(engine, game)

    monkeypatch.setattr(analysis, "_ranks", lambda shape: map(noted, ranks(shape)))
    monkeypatch.setattr(EliminationEngine, "__init__", counted_init)
    return walked, engines


def _walk_of(kind, game, witness):
    """The nodes a payoff walk of ``kind`` visits, listed without ``_ranks``.

    Those of rank P for a local kind and P - 1 for GW and MGW, in scan
    order, up to the witness's smaller node.
    """
    rank = game.player_count - (kind in (GW, MGW))
    nodes = sorted(
        (m for m in product(*(range(1 << n) for n in game.shape)) if _rank(m) == rank),
        key=lambda m: tuple(map(indices_of, m)),
    )
    return nodes if witness is None else nodes[: nodes.index(witness.smaller.masks) + 1]


def _memo_free_witness(kind, game):
    """The full node scan, with each pair's survivors asked of the engine afresh.

    It walks every node of the lattice and the covers above it, applying
    the operator at each, so it shares neither the payoff comparisons of
    ``check_monotonic``'s local walk, nor its stop at rank P, nor the
    opponent-lattice walk of its global path.
    """
    engine = EliminationEngine(game)
    for smaller in enumerate_restriction_masks(game):
        for larger in _covers(smaller, engine.full_masks):
            excess = _first_excess(
                engine.survivors(kind, smaller), engine.survivors(kind, larger)
            )
            if excess is not None:
                return MonotonicityWitness(
                    operator=kind,
                    smaller=Restriction.from_masks(game, smaller),
                    larger=Restriction.from_masks(game, larger),
                    evidence=excess,
                )
    return None


def _seeded_games_of_shape(shape, count):
    """The first ``count`` (seed, game) pairs, by seed, whose game has ``shape``."""
    config = GeneratorConfig(
        seed=0, players=(len(shape),) * 2, strategies=(min(shape), max(shape)), tie_bias=0.4
    )
    found = []
    seed = 0
    while len(found) < count:
        game = generate(config.with_seed(seed))
        if game.shape == shape:
            found.append((seed, game))
        seed += 1
    return found


class TestScanMemo:
    # Unequal per-player sizes give the players' masks and payoff strides
    # different widths, so the witnesses' evidence crosses them.
    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    @pytest.mark.parametrize(
        "shape",
        [(3, 3), (2, 2, 2), (4, 2), (2, 3), (3, 1, 2), (2, 3, 2)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_witnesses_match_a_memo_free_scan(self, shape, kind):
        for seed, game in _seeded_games_of_shape(shape, 6):
            assert check_monotonic(kind, game, Exhaustive()) == _memo_free_witness(kind, game), seed


def _tie_heavy_games(count, players=(2, 3), strategies=(1, 4), payoffs=(0, 1), tie_bias=0.6):
    """Seeded games of ``players`` players, at most 8 strategies in all, with
    payoffs 0..1 and many ties unless ``payoffs`` and ``tie_bias`` say otherwise."""
    games = []
    seed = 0
    while len(games) < count:
        config = GeneratorConfig(
            seed=seed, players=players, strategies=strategies, payoff_range=payoffs,
            tie_bias=tie_bias,
        )
        game = generate(config)
        if sum(game.shape) <= 8:
            games.append(game)
        seed += 1
    return games


def _indifferent_player_0(game):
    """``game`` with player 0's payoffs made 1 everywhere."""
    size = math.prod(game.shape)
    return Game(game.players, game.strategies, [[1] * size, *game.payoffs[1:]])


def _is_trivial(game):
    """Whether every player is indifferent among its strategies at every opponent profile."""
    for player, count in enumerate(game.shape):
        stride = game.strides[player]
        for profile in product(*map(range, game.shape)):
            if profile[player] == 0:
                base = game.flat_index(profile)
                column = {game.payoffs[player][base + s * stride] for s in range(count)}
                if len(column) > 1:
                    return False
    return True


INDIFFERENT_GAMES = [_indifferent_player_0(game) for game in _tie_heavy_games(12)]
TRUNCATION_GAMES = (
    [builtin_game("section3"), builtin_game("example41")]
    + _tie_heavy_games(24)
    + INDIFFERENT_GAMES
    + [zero_game(shape) for shape in [(1, 1), (2, 2), (3, 4), (1, 3, 2), (2, 2, 2)]]
)


class TestTruncatedScans:
    """LS, MLS, LW, MLW, GW and MGW stop at rank P, and return the full scan's answer."""

    @pytest.mark.parametrize("kind", TRUNCATED_KINDS, ids=str)
    def test_the_truncated_check_is_the_full_memo_free_scan(self, kind):
        found = 0
        for i, game in enumerate(TRUNCATION_GAMES):
            witness = check_monotonic(kind, game, Exhaustive())
            expected = _memo_free_witness(kind, game)
            assert witness == expected, i
            if witness is None:
                # No pair fails exactly on a game without a strict preference.
                assert _is_trivial(game), i
                continue
            found += 1
            assert json.dumps(witness.to_dict()) == json.dumps(expected.to_dict()), i
            assert _rank(witness.smaller.masks) <= game.player_count, i
        # The games are not all trivial, nor all witnessed at rank 0.
        assert 0 < found < len(TRUNCATION_GAMES)

    def test_the_games_cover_each_case(self):
        trivial = [_is_trivial(game) for game in TRUNCATION_GAMES]
        assert any(trivial) and not all(trivial)
        assert {game.player_count for game in TRUNCATION_GAMES} == {2, 3}
        assert any(not _is_trivial(game) for game in INDIFFERENT_GAMES)

    def test_the_g1_ls_witness_sits_at_rank_p(self, g1):
        # B x X against A B x X: a witness on the last rank the scan visits.
        witness = check_monotonic(LS, g1, Exhaustive())
        assert _rank(witness.smaller.masks) == g1.player_count == 2

    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    @pytest.mark.parametrize("shape", [(8, 8), (4, 4, 4)], ids=lambda s: "x".join(map(str, s)))
    def test_all_zero_games_above_the_old_cap_need_no_witness(self, shape, kind, monkeypatch):
        # 2^16 and 2^12 nodes: the local kinds compare payoffs at the nodes
        # of rank P, and GW and MGW at those of rank P - 1, each node once in
        # scan order, and build no engine, and neither do GS, which decides
        # on bit sets over the opponent profiles, and MGS, which asks the
        # mixed kernel once per context and target where every opponent
        # keeps something, on columns built once per context.  A game
        # without a strict preference has no witness (TestNonTrivialGames),
        # so None is the full scan's answer.
        game = zero_game(shape)
        asked = Counter()
        survivors = EliminationEngine.survivors

        def counted(engine, operator, masks):
            asked[_rank(masks)] += 1
            return survivors(engine, operator, masks)

        monkeypatch.setattr(EliminationEngine, "survivors", counted)
        walked, engines = _spy_walk(monkeypatch)
        built, decided = _count_mgs_decisions(monkeypatch)
        assert check_monotonic(kind, game, Exhaustive()) is None
        assert not asked
        assert not engines
        if kind in TRUNCATED_KINDS:
            assert walked == _walk_of(kind, game, None)
        if kind == MGS:
            assert decided == _every_mgs_decision(game)
            assert built == Counter(_opponent_contexts(game))
        else:
            assert not decided

    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    @pytest.mark.parametrize(
        "shape, local, weak, strict",
        [((8, 8), 120, 16, 2 * 255), ((4, 4, 4, 4), 1820, 560, 4 * 15**3)],
        ids=["8x8", "4x4x4x4"],
    )
    def test_the_work_the_cap_bounds(self, shape, local, weak, strict, kind):
        # The local kinds walk the C(N, P) nodes of rank P, C(16, 2) and
        # C(16, 4), and GW and MGW the C(N, P - 1) of rank P - 1, C(16, 1)
        # and C(16, 3).
        work, unit = _monotonicity_work(kind, shape)
        if kind in (GS, MGS):
            assert (work, unit) == (strict, "opponent contexts")
        else:
            assert (work, unit) == ((weak if kind in (GW, MGW) else local), "nodes")

    @pytest.mark.parametrize("kind", [GS, MGS], ids=str)
    def test_gs_on_four_4_strategy_players_runs_at_the_default_cap(self, kind):
        # 4 * 15^3 opponent contexts, within 2^16; the 2^16 nodes are not.
        assert check_monotonic(kind, zero_game((4, 4, 4, 4)), Exhaustive()) is None

    def test_gs_on_a_17x17_game_is_refused_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the check built an engine or a bit-set table")

        monkeypatch.setattr(EliminationEngine, "__init__", fail)
        monkeypatch.setattr(analysis, "_context_index", fail)
        monkeypatch.setattr(analysis, "_pure_strict_dominated", fail)
        with pytest.raises(BudgetExceededError, match="262142 opponent contexts"):
            check_monotonic(GS, zero_game((17, 17)), Exhaustive())

    @pytest.mark.parametrize(
        "kind, shape",
        [
            (GW, (20, 20)),
            (MGW, (20, 20)),
            (LS, (20, 2)),
            (LS, (2, 20)),
            (LS, (60, 60)),
            (LW, (8, 8, 8, 8)),
        ],
        ids=["gw-20x20", "mgw-20x20", "ls-20x2", "ls-2x20", "ls-60x60", "lw-8x8x8x8"],
    )
    def test_a_lopsided_game_costs_only_the_work_it_counts(self, kind, shape, monkeypatch):
        # A player with 20 strategies has 2^20 masks: listing them, or every
        # head of a rank, takes tens of MB.  The work the cap counts here is
        # 231 or 40 nodes on the lopsided games, and the check walks exactly
        # that: a local kind the C(N, P) nodes of rank P, GW and MGW the
        # C(N, P - 1) of rank P - 1.  A walk holds no more than one node at
        # a time, so the 7,140 of 60x60 and the 35,960 of 8x8x8x8 fit in the
        # same bound.
        expected, _ = _monotonicity_work(kind, shape)
        assert expected == math.comb(sum(shape), len(shape) - (kind in (GW, MGW)))
        walked = Counter()
        ranks = analysis._ranks

        def counted(nodes):
            for node in nodes:
                walked["nodes"] += 1
                yield node

        monkeypatch.setattr(analysis, "_ranks", lambda shape: map(counted, ranks(shape)))
        game = zero_game(shape)
        tracemalloc.start()
        try:
            assert check_monotonic(kind, game, Exhaustive()) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walked["nodes"] == expected
        assert peak < 1 << 23


# Single-strategy players, three and four players, all-zero games and games
# with one indifferent player: the nodes where a player keeps nothing are
# most of each lattice, and the weak kinds' first witnesses sit at them.
LEMMA_GAMES = (
    [
        game
        for shape in [(1, 3), (3, 1), (3, 1, 2), (2, 2, 2, 2)]
        for _, game in _seeded_games_of_shape(shape, 3)
    ]
    + [zero_game(shape) for shape in [(1, 3), (3, 1, 2), (2, 2, 2, 2)]]
    + INDIFFERENT_GAMES[:6]
)


class TestEmptyPlayerLemma:
    """With no opponent profile a strict kind eliminates everything and a weak kind nothing."""

    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    def test_only_a_cover_that_fills_the_lone_empty_player_can_fail(self, kind):
        # Over every node where a player keeps nothing and each of its covers.
        failing = 0
        for i, game in enumerate(LEMMA_GAMES):
            engine = EliminationEngine(game)
            for node in enumerate_restriction_masks(game):
                if all(node):
                    continue
                small = engine.survivors(kind, node)
                assert small == (node if kind.mode is Mode.WEAK else (0,) * len(node)), (i, node)
                empty = _lone_empty(kind.mode, node)
                for larger in _covers(node, engine.full_masks):
                    if _first_excess(small, engine.survivors(kind, larger)) is not None:
                        failing += 1
                        assert empty is not None and not node[empty] and larger[empty], (i, node)
        # The weak kinds do fail there, so the filling covers must be asked.
        assert (failing > 0) == (kind.mode is Mode.WEAK)

    def test_the_lone_empty_position(self):
        for mode in Mode:
            assert _lone_empty(mode, (0, 0)) is None
            assert _lone_empty(mode, (3, 0, 0, 1)) is None
        assert _lone_empty(Mode.STRICT, (0,)) is None
        assert _lone_empty(Mode.STRICT, (1, 0)) is None
        assert _lone_empty(Mode.WEAK, (0,)) == 0
        assert _lone_empty(Mode.WEAK, (1, 0, 6)) == 1

    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    def test_the_scans_are_the_full_memo_free_scan(self, kind):
        found = 0
        for i, game in enumerate(LEMMA_GAMES):
            witness = check_monotonic(kind, game, Exhaustive())
            expected = _memo_free_witness(kind, game)
            assert witness == expected, i
            if witness is not None:
                found += 1
                assert json.dumps(witness.to_dict()) == json.dumps(expected.to_dict()), i
        assert found == 0 if kind in (GS, MGS) else found > 0

    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=str)
    def test_no_decision_is_asked_where_a_player_keeps_nothing(self, kind, monkeypatch):
        # No check asks survivors, or decides a target, where a player keeps
        # nothing: GS and MGS ask no opponent context with an empty
        # opponent, and the kinds that compare payoffs ask the engine
        # nothing.  A weak kind's witness at a node with an empty player
        # ends on a cover that fills it.
        games = LEMMA_GAMES + TRUNCATION_GAMES
        expected = [_memo_free_witness(kind, game) for game in games]
        asked, decided = [], []
        survivors, dominator = EliminationEngine.survivors, EliminationEngine.dominator

        def noted_survivors(engine, operator, masks):
            asked.append(masks)
            return survivors(engine, operator, masks)

        def noted_dominator(engine, player, target, pool_mask, opp_masks, mode, mixing):
            decided.append(opp_masks)
            return dominator(engine, player, target, pool_mask, opp_masks, mode, mixing)

        monkeypatch.setattr(EliminationEngine, "survivors", noted_survivors)
        monkeypatch.setattr(EliminationEngine, "dominator", noted_dominator)
        walked, engines = _spy_walk(monkeypatch)
        _, decisions = _count_gs_decisions(monkeypatch)
        _, mixed = _count_mgs_decisions(monkeypatch)
        empty_witnesses = 0
        for i, game in enumerate(games):
            asked.clear()
            walked.clear()
            witness = check_monotonic(kind, game, Exhaustive())
            assert witness == expected[i], i
            assert all(map(all, asked)) and all(map(all, decided)), i
            assert all(all(opp) for _, opp in decisions), i
            assert all(all(opp) for _, _, opp, _ in mixed), i
            if kind in TRUNCATED_KINDS:
                assert not asked and not decided and not mixed and not engines, i
                assert walked == _walk_of(kind, game, witness), i
            if witness is not None and not all(witness.smaller.masks):
                empty_witnesses += 1
                empty = _lone_empty(kind.mode, witness.smaller.masks)
                assert witness.larger.masks[empty], i
        assert (empty_witnesses > 0) == (kind.mode is Mode.WEAK)


# Tie-heavy 2-4 player games and 3-4 player games with payoffs -3..3 and
# no tie bias, where two players often gain at once, each also with all
# payoffs zero and with player 0 indifferent everywhere.
COMPARISON_GAMES = [
    variant
    for game in _tie_heavy_games(40, players=(2, 4), strategies=(1, 3))
    + _tie_heavy_games(12, players=(3, 4), strategies=(1, 3), payoffs=(-3, 3), tie_bias=0.0)
    for variant in (game, zero_game(game.shape), _indifferent_player_0(game))
]


class TestPayoffComparisonScan:
    """LS, MLS, LW and MLW decide their check from payoff comparisons at rank
    P, and GW and MGW at rank P - 1."""

    @pytest.mark.parametrize("kind", TRUNCATED_KINDS, ids=str)
    def test_the_witness_is_the_full_memo_free_scan(self, kind):
        # A pure profile's cover fails on a strict gain, with the kept
        # strategy as evidence; an LW or MLW node with one empty player
        # fails on the first cover that fills it where the other player's
        # two strategies pay differently, with the lower-paid as evidence.
        # A GW or MGW node of rank P - 1 with one empty player fails on the
        # first cover that fills it where another player's kept strategy
        # has a strict gain, with the least such player's as evidence.
        cases = Counter()
        for i, game in enumerate(COMPARISON_GAMES):
            witness = check_monotonic(kind, game, Exhaustive())
            expected = _memo_free_witness(kind, game)
            assert witness == expected, i
            if witness is None:
                continue
            assert json.dumps(witness.to_dict()) == json.dumps(expected.to_dict()), i
            smaller = witness.smaller.masks
            assert _rank(smaller) == game.player_count - (kind in (GW, MGW)), i
            cases["pure" if all(smaller) else "one empty"] += 1
        if kind in (GW, MGW):
            assert cases["one empty"] and not cases["pure"]
        elif kind.mode is Mode.WEAK:
            assert cases["pure"] and cases["one empty"]
        else:
            assert cases["pure"] and not cases["one empty"]

    def test_the_games_cover_each_case(self):
        shapes = {game.shape for game in COMPARISON_GAMES}
        assert {len(shape) for shape in shapes} == {2, 3, 4}
        assert any(1 in shape for shape in shapes)
        assert any(_is_trivial(game) for game in COMPARISON_GAMES)
        assert sum(not _is_trivial(game) for game in COMPARISON_GAMES) > len(COMPARISON_GAMES) // 3
        # GW witnesses on 3 and 4 players whose evidence is not player 0's,
        # and ones where two players lose a strategy on the failing cover,
        # so the evidence must be the least of them.
        other, several = set(), set()
        for game in COMPARISON_GAMES:
            witness = _memo_free_witness(GW, game)
            if witness is None:
                continue
            if witness.evidence[0] != 0:
                other.add(game.player_count)
            engine = EliminationEngine(game)
            small = engine.survivors(GW, witness.smaller.masks)
            large = engine.survivors(GW, witness.larger.masks)
            if sum(s & ~l != 0 for s, l in zip(small, large)) > 1:
                several.add(game.player_count)
        assert {3, 4} <= other and {3, 4} <= several


def _opponents_only(game):
    """``game`` with each player paid, at every profile, what strategy 0 pays
    it against the same opponents: a trivial game that is not all zero."""
    payoffs = []
    for player, table in enumerate(game.payoffs):
        stride, count = game.strides[player], game.shape[player]
        payoffs.append([table[at - at // stride % count * stride] for at in range(len(table))])
    return Game(game.players, game.strategies, payoffs)


TRIVIAL_GAMES = [_opponents_only(game) for game in _tie_heavy_games(20, players=(2, 4))]


class TestNonTrivialGames:
    """Every kind but GS and MGS fails monotonicity exactly on the non-trivial games."""

    @pytest.mark.parametrize("kind", TRUNCATED_KINDS, ids=str)
    def test_a_witness_exists_exactly_when_a_player_strictly_prefers(self, kind):
        # Non-trivial: some player strictly prefers one strategy to another
        # at some opponent profile.  The paper shows non-monotonicity by
        # example; here it holds on every non-trivial game.  The trivial
        # games that are not all zero tell this apart from a zero test.
        nonzero = [game for game in TRIVIAL_GAMES if any(map(any, game.payoffs))]
        assert {game.player_count for game in nonzero} == {2, 3, 4}
        assert all(map(_is_trivial, TRIVIAL_GAMES))
        for i, game in enumerate(COMPARISON_GAMES + TRIVIAL_GAMES):
            witness = check_monotonic(kind, game, Exhaustive())
            assert (witness is not None) == (not _is_trivial(game)), i


class TestOpponentLatticeScan:
    """The exhaustive path of GS and MGS, each player's opponent lattice, and
    GW and MGW, which need none."""

    @pytest.mark.parametrize("kind", GLOBAL_KINDS, ids=str)
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 2)], ids=lambda s: "x".join(map(str, s)))
    def test_each_context_and_target_is_decided_at_most_once(self, shape, kind, monkeypatch):
        games = _seeded_games_of_shape(shape, 6)
        expected = [_memo_free_witness(kind, game) for _, game in games]
        queried = Counter()
        dominator = EliminationEngine.dominator

        def counted(engine, player, target, pool_mask, opp_masks, mode, mixing):
            queried[player, pool_mask, opp_masks, target] += 1
            return dominator(engine, player, target, pool_mask, opp_masks, mode, mixing)

        monkeypatch.setattr(EliminationEngine, "dominator", counted)
        walked, engines = _spy_walk(monkeypatch)
        _, decisions = _count_gs_decisions(monkeypatch)
        built, decided = _count_mgs_decisions(monkeypatch)
        for (seed, game), want in zip(games, expected):
            queried.clear()
            decisions.clear()
            built.clear()
            decided.clear()
            walked.clear()
            witness = check_monotonic(kind, game, Exhaustive())
            # No kind builds an engine on these games, so none asks it.
            assert not queried and not engines, seed
            if kind in (GW, MGW):
                # GW and MGW compare payoffs at the nodes of rank P - 1 up to
                # the witness and decide nothing.
                assert not decisions and not decided, seed
                assert walked == _walk_of(kind, game, witness), seed
                assert witness == want, seed
                continue
            assert witness is None, seed
            if kind == GS:
                # GS decides every context where each opponent keeps
                # something exactly once, all targets at once, on bit sets.
                assert decisions == Counter(_opponent_contexts(game)), seed
                assert not decided, seed
                continue
            # MGS asks the mixed kernel about every target at every such
            # context exactly once, on columns built once per context.
            assert not decisions, seed
            assert decided == _every_mgs_decision(game), seed
            assert built == Counter(_opponent_contexts(game)), seed

    @pytest.mark.parametrize("kind", GLOBAL_KINDS, ids=str)
    def test_survivors_are_asked_only_at_the_witness_node_and_its_covers(self, kind, monkeypatch):
        # GS and MGS are monotone on these games and ask for no survivors;
        # GW and MGW fail on most of them and compare payoffs at the nodes
        # of rank P - 1 up to the witness, asking for no survivors either.
        # (TestStrictWalkFailingBranch covers a failing GS or MGS node.)
        games = _seeded_games_of_shape((3, 3), 6) + _seeded_games_of_shape((2, 3, 2), 6)
        expected = [_memo_free_witness(kind, game) for _, game in games]
        assert any(expected) == (kind in (GW, MGW))
        asked = []
        survivors = EliminationEngine.survivors

        def noted(engine, operator, masks):
            asked.append(masks)
            return survivors(engine, operator, masks)

        monkeypatch.setattr(EliminationEngine, "survivors", noted)
        walked, engines = _spy_walk(monkeypatch)
        for (seed, game), want in zip(games, expected):
            walked.clear()
            witness = check_monotonic(kind, game, Exhaustive())
            assert witness == want, seed
            assert asked == [], seed
            if kind in (GW, MGW):
                assert not engines and walked == _walk_of(kind, game, witness), seed

    def test_an_8x8_gs_scan_is_bounded_by_its_opponent_contexts(self, monkeypatch):
        game = generate(GeneratorConfig(seed=0, players=(2, 2), strategies=(8, 8)))
        assert game.shape == (8, 8)
        calls = Counter()
        dominator = EliminationEngine.dominator

        def counted(engine, *args):
            calls["dominator"] += 1
            return dominator(engine, *args)

        monkeypatch.setattr(EliminationEngine, "dominator", counted)
        tables, decisions = _count_gs_decisions(monkeypatch)
        # GS is monotone, so the walk decides every opponent context where
        # the opponent keeps something, 2^8 - 1 per player, exactly once,
        # on bit sets, and asks the engine nothing.  The cap bounds the
        # 2 * 255 contexts, not the 2^16 nodes.
        assert check_monotonic(GS, game, Exhaustive(cap=510)) is None
        assert decisions == Counter(_opponent_contexts(game))
        assert len(decisions) == 2 * 255
        assert tables == Counter(range(2))
        assert not calls
        tables.clear()
        decisions.clear()
        with pytest.raises(BudgetExceededError, match="510 opponent contexts"):
            check_monotonic(GS, game, Exhaustive(cap=509))
        assert not tables and not decisions and not calls


def _inject_dominance(monkeypatch):
    """Patch the engine and the GS and MGS decisions of the exact walk so
    that strategy 0 dominates every other strategy the kernel leaves
    undominated, at contexts where every opponent keeps something and the
    opponents keep 3 strategies or more.

    A strict kind's lemma still holds, as contexts where an opponent keeps
    nothing are left alone, but GS and MGS now fail: a strategy the kernel
    leaves undominated at a 2-strategy context is dominated at its covers.
    The walk finds its candidates on the GS or MGS ``D_t`` and replays the
    failing node's covers on the engine, so both must agree.  Returns the
    count of context decisions the patch saw.
    """
    dominator = EliminationEngine.dominator
    seen = Counter()

    def injected(engine, player, target, pool_mask, opp_masks, mode, mixing):
        found = dominator(engine, player, target, pool_mask, opp_masks, mode, mixing)
        if found is None and target >= 1 and all(opp_masks) and _rank(opp_masks) >= 3:
            return 0 if mixing is Mixing.PURE else MixedStrategy.point_mass(player, 0)
        return found

    def injecting(decider):
        def injected_dominated(game, player, index):
            dominated = decider(game, player, index)
            wide = 0
            for at, opp in enumerate(_contexts_of(_opp_shape(game, player))):
                seen["decisions"] += 1
                if _rank(opp) >= 3:
                    wide |= 1 << at
            return [dominated[0], *(d | wide for d in dominated[1:])]

        return injected_dominated

    monkeypatch.setattr(EliminationEngine, "dominator", injected)
    for name in ("_pure_strict_dominated", "_mixed_strict_dominated"):
        monkeypatch.setattr(analysis, name, injecting(getattr(analysis, name)))
    return seen


class TestStrictWalkFailingBranch:
    """GS and MGS are monotone, so only injected dominance reaches a failing pair."""

    @pytest.mark.parametrize("kind", [GS, MGS], ids=str)
    @pytest.mark.parametrize(
        "shape", [(3, 3), (2, 3, 2), (4, 4), (3, 3, 3)], ids=lambda s: "x".join(map(str, s))
    )
    def test_the_witness_is_the_full_scans_first(self, shape, kind, monkeypatch):
        seen = _inject_dominance(monkeypatch)
        for seed, game in _seeded_games_of_shape(shape, 4):
            expected = _memo_free_witness(kind, game)
            assert expected is not None, seed
            seen.clear()
            witness = check_monotonic(kind, game, Exhaustive())
            assert witness == expected, seed
            assert json.dumps(witness.to_dict()) == json.dumps(expected.to_dict()), seed
            # Both found their candidate on the injected D_t, decided once
            # at each context where every opponent keeps something.
            assert seen == Counter(decisions=len(_opponent_contexts(game))), seed


# Seeded games, tie-heavy 2-4 player games, all-zero games, games with a
# one-strategy player and 4-player games.
BIT_SET_GAMES = (
    [
        game
        for shape in [(3, 3), (4, 4), (2, 3, 2), (3, 3, 3)]
        for _, game in _seeded_games_of_shape(shape, 4)
    ]
    + _tie_heavy_games(30, players=(2, 4), strategies=(1, 3))
    + [zero_game(shape) for shape in [(1, 1), (3, 3), (1, 3, 2), (2, 2, 2, 2)]]
    + [
        game
        for shape in [(1, 4), (4, 1), (1, 2, 3), (2, 1, 2), (2, 2, 2, 2), (1, 2, 2, 2), (3, 2, 2, 2)]
        for _, game in _seeded_games_of_shape(shape, 3)
    ]
)


def _assert_decided_as_the_engine_decides(kind, decider, games):
    """Each bit of each ``D_t`` is what an engine's ``survivors`` eliminates
    at its context, where the player keeps everything.

    A decision that answered from a cover's answer would be seen at the
    contexts whose answer differs from some cover's, and there are some.
    """
    seen = Counter()
    for i, game in enumerate(games):
        engine = EliminationEngine(game)
        full = engine.full_masks
        for k in range(game.player_count):
            opp_shape, opp_full = _opp_shape(game, k), full[:k] + full[k + 1 :]
            dominated = decider(game, k, analysis._context_index(opp_shape))
            contexts = _contexts_of(opp_shape)
            assert len(dominated) == game.shape[k], (i, k)
            assert all(0 <= d < 1 << len(contexts) for d in dominated), (i, k)
            answers = {}
            for at, opp in enumerate(contexts):
                node = opp[:k] + (full[k],) + opp[k:]
                answer = answers[opp] = full[k] & ~engine.survivors(kind, node)[k]
                assert sum(1 << t for t, d in enumerate(dominated) if d >> at & 1) == answer, (i, k, opp)
                seen["some dominated" if answer else "none dominated"] += 1
            for opp, answer in answers.items():
                if any(answers[cover] != answer for cover in _covers(opp, opp_full)):
                    seen["unlike a cover"] += 1
    assert seen["some dominated"] and seen["none dominated"] and seen["unlike a cover"]


class TestBitSetDecision:
    """GS decides every opponent context on bit sets, and MGS by the mixed
    kernel at each context, exactly as the engine does."""

    def test_every_context_is_decided_as_the_engine_decides_it(self):
        _assert_decided_as_the_engine_decides(GS, analysis._pure_strict_dominated, BIT_SET_GAMES)

    def test_every_mgs_context_is_decided_as_the_engine_decides_it(self):
        games = [game for game in BIT_SET_GAMES if game.player_count <= 3]
        assert {game.player_count for game in games} == {2, 3}
        _assert_decided_as_the_engine_decides(MGS, analysis._mixed_strict_dominated, games)

    @pytest.mark.parametrize(
        "players, strategies, lps",
        [
            ((3, 3), (3, 3), 24), ((2, 2), (8, 8), 775), ((3, 3), (5, 5), 1897),
            ((4, 4), (4, 4), 3213),
        ],
        ids=["3x3x3", "8x8", "5x5x5", "4x4x4x4"],
    )
    def test_mgs_solves_the_engines_lps(self, players, strategies, lps, monkeypatch):
        # The LPs an engine solved for MGS's walk on these seeded games: the
        # same kernel calls at each context, targets ascending, solve the
        # same programs.
        game = generate(
            GeneratorConfig(seed=0, players=players, strategies=strategies, payoff_range=(-5, 5))
        )
        solved = Counter()
        solve_lp = dominance.solve_lp

        def counted(margins, strict):
            solved["lps"] += 1
            return solve_lp(margins, strict)

        monkeypatch.setattr(dominance, "solve_lp", counted)
        assert check_monotonic(MGS, game, Exhaustive()) is None
        assert solved["lps"] == lps

    def test_the_games_cover_each_case(self):
        shapes = {game.shape for game in BIT_SET_GAMES}
        assert {len(shape) for shape in shapes} == {2, 3, 4}
        assert any(1 in shape for shape in shapes)
        assert any(_is_trivial(game) for game in BIT_SET_GAMES)


def _random_game(shape, seed, values=range(-2, 3)):
    """A seeded game of ``shape`` with payoffs drawn from ``values``, many of them tied."""
    rng = random.Random(seed)
    size = math.prod(shape)
    strategies = [[f"S{j}" for j in range(count)] for count in shape]
    tables = [[rng.choice(values) for _ in range(size)] for _ in shape]
    return Game([f"P{i + 1}" for i in range(len(shape))], strategies, tables)


def _staircase_game(shape):
    """Each player is paid its strategy index: every strategy strictly beats each lower one.

    So every strategy but the highest is dominated at every context, and
    the highest at none: an all-ones ``D_t`` beside an empty one.
    """
    size = math.prod(shape)
    strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
    strategies = [[f"S{j}" for j in range(count)] for count in shape]
    tables = [
        [index // stride % count for index in range(size)]
        for stride, count in zip(strides, shape)
    ]
    return Game([f"P{i + 1}" for i in range(len(shape))], strategies, tables)


def _explicit_gs(game, player, opp):
    """The targets some strategy strictly beats at every listed opponent profile.

    The rule ``all(u(s, c) > u(t, c))``, read from the Fraction payoffs
    over the profiles the opponents' masks ``opp`` keep.
    """
    table, count = game.payoffs[player], game.shape[player]
    profiles = list(product(*map(indices_of, opp)))

    def paid(s, c):
        return table[game.flat_index(c[:player] + (s,) + c[player:])]

    return sum(
        1 << t
        for t in range(count)
        if any(all(paid(s, c) > paid(t, c) for c in profiles) for s in range(count))
    )


# Shapes with a 1-strategy player, 8x8 (255 contexts), 2x12 and 12x2 (4,095
# contexts of the 2-strategy player, 144 pairs of the 12-strategy one) and
# 4x4x4x4 (3,375 contexts of R = 64 opponent profiles).
INDEX_SHAPES = [(1, 3), (3, 1, 2), (2, 2, 1, 3), (8, 8), (2, 12), (12, 2), (4, 4, 4, 4)]


def _scanned_candidate(game, tables):
    """The least candidate node of a per-context scan of every cover bit of every field.

    ``tables[k]`` is player ``k``'s ``D_t`` list, bit ``i`` the ``i``-th
    context of :func:`_contexts_of`.  At each context, the targets
    dominated at some cover and not there are newly dominated, and the
    least of them, kept alone, with the context's masks is a candidate.
    """
    candidates = []
    for k, dominated in enumerate(tables):
        opp_shape = _opp_shape(game, k)
        contexts = _contexts_of(opp_shape)
        answers = {
            opp: sum(1 << t for t, d in enumerate(dominated) if d >> at & 1)
            for at, opp in enumerate(contexts)
        }
        for opp in contexts:
            newly = 0
            for cover in _covers(opp, [(1 << n) - 1 for n in opp_shape]):
                newly |= answers[cover]
            newly &= ~answers[opp]
            if newly:
                candidates.append(opp[:k] + (newly & -newly,) + opp[k:])
    return min(candidates, key=lambda node: (_rank(node), tuple(map(indices_of, node))), default=None)


class TestContextIndexDecision:
    """GS's ``D_t`` over the dense context index is the explicit strict rule
    at every context, and one shift per cover finds the scan's candidate."""

    @pytest.mark.parametrize("shape", INDEX_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_every_bit_is_the_explicit_rule(self, shape):
        # Every context where there are at most 150, else the first, the
        # last and a seeded sample of 150.
        rng = random.Random(0)
        games = [_random_game(shape, seed) for seed in range(3)]
        games += [_random_game(shape, 10, values=[Fraction(1, 2), 1, Fraction(3, 2)])]
        games += [_staircase_game(shape), zero_game(shape)]
        dominated = 0
        for i, game in enumerate(games):
            for k in range(len(shape)):
                opp_shape = _opp_shape(game, k)
                tables = analysis._pure_strict_dominated(game, k, analysis._context_index(opp_shape))
                contexts = list(enumerate(_contexts_of(opp_shape)))
                assert len(tables) == shape[k]
                assert all(0 <= d < 1 << len(contexts) for d in tables), (i, k)
                if len(contexts) > 150:
                    contexts = [contexts[0], contexts[-1], *rng.sample(contexts, 150)]
                for at, opp in contexts:
                    answer = sum(1 << t for t, d in enumerate(tables) if d >> at & 1)
                    assert answer == _explicit_gs(game, k, opp), (i, k, opp)
                    dominated += answer != 0
        assert dominated

    @pytest.mark.parametrize("shape", INDEX_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_the_staircase_is_decided_at_every_context(self, shape):
        # Every strategy but the highest strictly beats each lower one at
        # every profile, so D_t is every context for t below the highest
        # and none for the highest: all ones beside all zeros.
        game = _staircase_game(shape)
        for k, n in enumerate(shape):
            index = analysis._context_index(_opp_shape(game, k))
            every = (1 << len(_contexts_of(_opp_shape(game, k)))) - 1
            assert analysis._pure_strict_dominated(game, k, index) == [every] * (n - 1) + [0], k

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2, 3)], ids=lambda s: "x".join(map(str, s)))
    def test_every_cover_bit_is_compared(self, shape, monkeypatch):
        # Player 0's D_t are injected at two contexts that differ in one
        # opponent field: O keeps c there and Y keeps b, every other
        # opponent keeping its strategy 0.  Y dominates target 1 and their
        # join X = O | Y targets 1 and 2; everything else dominates nothing.
        # Then O, whose one nonzero cover is X through bit b, is the least
        # candidate, keeping {1}; Y, through bit c, keeps {2}.  A walk that
        # skipped bit b's cover, or shifted to another context, would not
        # answer O's node.
        game = zero_game(shape)
        opp_shape = shape[1:]
        position = {opp: at for at, opp in enumerate(_contexts_of(opp_shape))}
        dominated = analysis._pure_strict_dominated
        cases = 0
        for f, n in enumerate(opp_shape):
            for b, c in product(range(n), repeat=2):
                if b == c:
                    continue
                here = tuple(1 << c if g == f else 1 for g in range(len(opp_shape)))
                there = tuple(1 << b if g == f else 1 for g in range(len(opp_shape)))
                join = tuple(map(int.__or__, here, there))
                tables = [0, 1 << position[there] | 1 << position[join], 1 << position[join]]

                def injected(game, player, index, tables=tables):
                    return tables if player == 0 else dominated(game, player, index)

                monkeypatch.setattr(analysis, "_pure_strict_dominated", injected)
                node = analysis._first_strict_global_violation(game, GS)
                others = [[0] * n for n in shape[1:]]
                assert node == (0b010, *here) == _scanned_candidate(game, [tables, *others]), (f, b, c)
                cases += 1
        assert cases == sum(n * (n - 1) for n in opp_shape)

    @pytest.mark.parametrize(
        "shape", [(3, 3), (4, 2), (1, 3), (3, 1, 2), (2, 3, 2), (2, 2, 1, 3), (2, 2, 2, 2)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_injected_tables_give_the_scans_candidate(self, shape, monkeypatch):
        # Seeded D_t tables, dense, sparse and empty, for every player:
        # the shifted cover test finds the candidate a per-context scan of
        # every cover bit of every field finds, or None with it.
        game = zero_game(shape)
        counts = [len(_contexts_of(_opp_shape(game, k))) for k in range(len(shape))]
        rng = random.Random(len(shape) * 100 + sum(shape))
        tables = []
        monkeypatch.setattr(
            analysis, "_pure_strict_dominated", lambda game, player, index: tables[player]
        )
        found = Counter()
        for trial in range(400):
            density = trial % 4
            tables[:] = [
                [
                    reduce(and_, (rng.getrandbits(count) for _ in range(density)), -1) if density else 0
                    for _ in range(n)
                ]
                for n, count in zip(shape, counts)
            ]
            expected = _scanned_candidate(game, tables)
            assert analysis._first_strict_global_violation(game, GS) == expected, trial
            found[expected is None] += 1
        assert found[True] and found[False]

    @pytest.mark.parametrize("kind", [GS, MGS], ids=str)
    def test_one_strategy_opponents_add_no_contexts(self, kind):
        # A one-strategy opponent has one mask, so it adds no contexts to
        # the index: of the 2^41 mask tuples below a player's full context
        # at most 3 are contexts, and the check stays as small as its
        # 1 + 40 * 3 contexts.
        game = _random_game((2,) + (1,) * 40, 0)
        assert _monotonicity_work(kind, game.shape) == (121, "opponent contexts")
        tracemalloc.start()
        try:
            assert check_monotonic(kind, game, Exhaustive()) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_2_to_the_11_check_keeps_little_once_it_returns(self):
        # 11 * 3^10 = 649,539 contexts of 1,024 profiles each.  A table of
        # every context's profile set, cached per opponent shape, kept about
        # 11 MB alive after this check and peaked at about 16 MB; the index
        # caches only its holding patterns, 20 ints of 3^10 bits.
        game = _random_game((2,) * 11, 0)
        tracemalloc.start()
        try:
            assert check_monotonic(GS, game, Exhaustive(cap=1 << 20)) is None
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20
        assert peak < 14 << 20


class TestOpponentLatticeMatchesTheNodeScan:
    """The exhaustive global path returns the node scan's first witness."""

    @pytest.mark.parametrize("kind", GLOBAL_KINDS, ids=str)
    @pytest.mark.parametrize(
        "players, strategies", [(2, 4), (3, 3), (2, 5)], ids=["4x4", "3x3x3", "5x5"]
    )
    def test_bench_lattice_games(self, players, strategies, kind):
        for seed in range(16):
            config = GeneratorConfig(
                seed=seed,
                players=(players, players),
                strategies=(strategies, strategies),
                payoff_range=(-5, 5),
                tie_bias=0.25,
            )
            game = generate(config)
            expected = _memo_free_witness(kind, game)
            assert check_monotonic(kind, game, Exhaustive()) == expected, seed

    @pytest.mark.parametrize("kind", GLOBAL_KINDS, ids=str)
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 4), (4, 1), (1, 2, 3), (2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 1, 2)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_one_strategy_players_and_four_players(self, shape, kind):
        for seed, game in _seeded_games_of_shape(shape, 4):
            expected = _memo_free_witness(kind, game)
            assert check_monotonic(kind, game, Exhaustive()) == expected, seed

    @pytest.mark.parametrize("kind", GLOBAL_KINDS, ids=str)
    @pytest.mark.parametrize(
        "shape", [(1, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2)], ids=lambda s: "x".join(map(str, s))
    )
    def test_all_zero_games(self, shape, kind):
        game = zero_game(shape)
        assert check_monotonic(kind, game, Exhaustive()) == _memo_free_witness(kind, game)


class TestWitnessReplay:
    @pytest.fixture
    def witness(self, g1):
        witness = check_monotonic(LS, g1, Exhaustive())
        assert witness.replay()
        return witness

    @pytest.mark.parametrize("evidence", [(5, 0), (-1, 0), (-2, 1), (0, -1), (0, 2)])
    def test_evidence_outside_the_game_does_not_replay(self, witness, evidence):
        assert not dataclasses.replace(witness, evidence=evidence).replay()

    def test_larger_from_another_game_does_not_replay(self, witness, g2):
        assert not dataclasses.replace(witness, larger=Restriction.full(g2)).replay()

    @pytest.mark.parametrize("evidence", [(5, 0), (-1, 0), (-2, 1), (0, -1), (0, 2)])
    def test_evidence_outside_the_game_has_no_dict(self, witness, evidence):
        with pytest.raises(ValueError, match="evidence"):
            dataclasses.replace(witness, evidence=evidence).to_dict()

    @pytest.mark.parametrize("operator", ["LW", "lw", None, Mode.WEAK], ids=repr)
    def test_an_operator_that_is_not_a_kind_neither_replays_nor_has_a_dict(self, operator, g2):
        witness = check_monotonic(LW, g2, Exhaustive())
        assert witness.replay()
        malformed = dataclasses.replace(witness, operator=operator)
        assert not malformed.replay()
        with pytest.raises(ValueError, match="operator"):
            malformed.to_dict()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("smaller", None),
            ("smaller", "x"),
            ("larger", None),
            ("larger", "x"),
            ("evidence", None),
            ("evidence", (0,)),
            ("evidence", ()),
            ("evidence", (1, 1, 0)),
            ("evidence", "01"),
            ("evidence", [1, 1]),
        ],
        ids=repr,
    )
    def test_a_malformed_witness_neither_replays_nor_has_a_dict(self, field, value, g2):
        witness = check_monotonic(LW, g2, Exhaustive())
        assert witness.replay()
        malformed = dataclasses.replace(witness, **{field: value})
        assert not malformed.replay()
        with pytest.raises(ValueError, match=field):
            malformed.to_dict()


def _reference_witness(kind, game):
    """A pair S < L, found over every comparable pair, with kind(S) not within kind(L)."""
    engine = EliminationEngine(game)
    nodes = list(product(*(range(1 << k) for k in game.shape)))
    survivors = {masks: engine.survivors(kind, masks) for masks in nodes}
    for small in nodes:
        for large in nodes:
            comparable = small != large and all(not s & ~l for s, l in zip(small, large))
            if comparable and any(
                a & ~b for a, b in zip(survivors[small], survivors[large])
            ):
                return small, large
    return None


def _is_covering_pair(witness):
    added = [l & ~s for s, l in zip(witness.smaller.masks, witness.larger.masks)]
    return witness.smaller.issubset(witness.larger) and sum(bin(a).count("1") for a in added) == 1


def _small_random_games(count):
    """Seeded games with 2 or 3 players and at most 7 strategies in total."""
    games = []
    seed = 0
    while len(games) < count:
        config = GeneratorConfig(seed=seed, players=(2, 3), strategies=(2, 3), tie_bias=0.4)
        game = generate(config)
        if sum(game.shape) <= 7:
            games.append(game)
        seed += 1
    return games


class TestCoveringPairs:
    @pytest.mark.parametrize("game", _small_random_games(20), ids=lambda g: "x".join(map(str, g.shape)))
    def test_verdicts_match_a_search_over_every_comparable_pair(self, game):
        for kind in ALL_OPERATORS:
            witness = check_monotonic(kind, game, Exhaustive())
            assert (witness is None) == (_reference_witness(kind, game) is None), kind.name
            assert witness is None or (_is_covering_pair(witness) and witness.replay())

    @pytest.mark.parametrize("kind", ALL_OPERATORS, ids=lambda k: k.name)
    def test_bundled_game_witnesses_are_replaying_covering_pairs(self, kind, g1, g2):
        for game in (g1, g2):
            witness = check_monotonic(kind, game, Exhaustive())
            assert witness is None or (_is_covering_pair(witness) and witness.replay())


class TestPointwiseInclusion:
    def test_mlw_within_lw_across_the_g2_lattice(self, g2):
        report = pointwise_inclusion(MLW, LW, g2, Exhaustive())
        assert report.holds and report.checked == 128

    def test_reversed_strict_query_documents_the_gap(self, g2):
        clean = pointwise_inclusion(MLS, LS, g2, Exhaustive())
        assert clean.holds
        reversed_report = pointwise_inclusion(LS, MLS, g2, Exhaustive())
        assert not reversed_report.holds

    def test_weak_pool_comparison_on_random_games(self):
        for seed in range(10):
            game = generate(GeneratorConfig(seed=seed, strategies=(2, 3), tie_bias=0.4))
            # Same-mode pool comparisons hold on every restriction.
            same_mode = pointwise_inclusion(MGW, GW, game, Exhaustive())
            assert same_mode.holds

    def test_cross_mode_inclusion_fails_only_at_empty_components(self):
        # Weak-inside-strict can break where an opponent set is empty: there
        # the strict sweep empties a component vacuously while the weak sweep
        # keeps it. On restrictions with all components non-empty it holds.
        for seed in range(10):
            game = generate(GeneratorConfig(seed=seed, strategies=(2, 3), tie_bias=0.4))
            report = pointwise_inclusion(GW, GS, game, Exhaustive())
            for violation in report.violations:
                assert any(not kept for kept in violation["restriction"].values())

    def test_budget_error_propagates(self):
        # Pointwise inclusion visits every restriction: 2^13 of them.
        with pytest.raises(BudgetExceededError, match="8192 restrictions"):
            pointwise_inclusion(LS, MLS, big_flat_game(), Exhaustive(cap=8191))


class TestCompareFixpoints:
    def test_mlw_vs_lw_on_g2_is_a_strict_superset(self, g2):
        report = compare_fixpoints(MLW, LW, g2)
        assert report.relation == "superset"
        assert report.left_fixpoint.kept == ((0, 1), (0, 1))
        assert report.right_fixpoint.kept == ((0,), (0,))

    def test_mls_vs_ls_is_subset_or_equal_on_random_games(self):
        for seed in range(25):
            game = generate(GeneratorConfig(seed=seed, strategies=(2, 4), tie_bias=0.3))
            report = compare_fixpoints(MLS, LS, game)
            assert report.relation in ("subset", "equal")

    def test_gs_vs_ls_is_always_equal(self):
        for seed in range(25):
            game = generate(GeneratorConfig(seed=seed, strategies=(2, 4), tie_bias=0.3))
            assert compare_fixpoints(GS, LS, game).relation == "equal"

    def test_restrictions_of_two_games_have_no_relation(self, g2):
        # A 4x3 game like g2: the two full restrictions keep the same indices.
        other = generate(GeneratorConfig(seed=0, players=(2, 2), strategies=(3, 4)))
        assert other.shape == g2.shape
        left, right = Restriction.full(g2), Restriction.full(other)
        assert relation_of(left, left) == "equal"
        for pair in ((left, right), (right, left), (left, Restriction(other, ((0,), (0,))))):
            with pytest.raises(ValueError, match="different games"):
                relation_of(*pair)

    def test_crossing_restrictions_are_incomparable(self, g2):
        left = Restriction(g2, ((0,), (0, 1)))
        right = Restriction(g2, ((0, 1), (0,)))
        assert relation_of(left, right) == relation_of(right, left) == "incomparable"

    def test_report_serialization(self, g2):
        doc = compare_fixpoints(MLW, LW, g2).to_dict()
        assert list(doc) == ["left", "right", "relation", "left_fixpoint", "right_fixpoint"]
        json.dumps(doc)


class TestLatticeEnumeration:
    def test_enumeration_is_lazy(self, g1):
        masks = enumerate_restriction_masks(g1)
        assert iter(masks) is masks

    def test_order_is_rank_then_lexicographic(self, g1):
        masks = list(enumerate_restriction_masks(g1))
        assert len(masks) == 8
        assert masks[0] == (0, 0)
        assert masks[-1] == (3, 1)
        ranks = [bin(a).count("1") + bin(b).count("1") for a, b in masks]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (3, 1), (4, 4), (3, 3, 3), (6, 1, 3), (2, 2, 2, 2)])
    def test_order_is_the_canonical_key_sort(self, shape):
        def canonical_key(masks):
            kept = tuple(indices_of(m) for m in masks)
            return (sum(len(k) for k in kept), kept)

        reference = sorted(product(*(range(1 << k) for k in shape)), key=canonical_key)
        # Only the shape is read, so a stand-in covers one-player shapes too.
        assert list(enumerate_restriction_masks(SimpleNamespace(shape=shape))) == reference
