import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Mode,
    Restriction,
    apply_operator,
    builtin_game,
    iterate,
    operator_from_name,
    payoff,
)
from dominance_lab.dominance import (
    _columns,
    _mixed_dominator,
    _opponent_bases,
    _pool_mask,
    _pure_dominator,
)
from dominance_lab.game_model import indices_of
from dominance_lab.operators import EliminationEngine, Mixing
from dominance_lab.random_games import GeneratorConfig, generate


def brute_pure_weak_sweep(game, kept):
    """Independent re-derivation of one pure local weak sweep, by raw loops."""
    n = game.player_count
    result = []
    for player in range(n):
        others = [kept[j] for j in range(n) if j != player]
        profiles = list(product(*others))

        def value(strategy, opp):
            full = list(opp)
            full.insert(player, strategy)
            return payoff(game, player, tuple(full))

        survivors = []
        for target in kept[player]:
            eliminated = False
            for candidate in kept[player]:
                if candidate == target or not profiles:
                    continue
                at_least = all(value(candidate, o) >= value(target, o) for o in profiles)
                somewhere = any(value(candidate, o) > value(target, o) for o in profiles)
                if at_least and somewhere:
                    eliminated = True
                    break
            if not eliminated:
                survivors.append(target)
        result.append(tuple(survivors))
    return tuple(result)


def brute_lw_sequence(game):
    kept = tuple(tuple(range(k)) for k in game.shape)
    sequence = [kept]
    while True:
        after = brute_pure_weak_sweep(game, kept)
        sequence.append(after)
        if after == kept:
            return sequence
        kept = after


def fresh_dominated(kind, game, masks, player):
    """The mask of ``player``'s kept strategies that ``kind`` eliminates at
    ``masks``, with no engine and no cache: one dominator query per kept
    target, straight from the dominance module."""
    find = _pure_dominator if kind.mixing is Mixing.PURE else _mixed_dominator
    bases = _opponent_bases(game, player, masks[:player] + masks[player + 1 :])
    columns = _columns(game, player, bases)
    pool = indices_of(_pool_mask(game, masks, player, kind.pool))
    dominated = 0
    for target in indices_of(masks[player]):
        if find(player, target, pool, columns, kind.mode) is not None:
            dominated |= 1 << target
    return dominated


def fresh_survivors(kind, game, masks):
    """One sweep of ``kind`` at ``masks`` with no engine and no cache."""
    return tuple(
        kept & ~fresh_dominated(kind, game, masks, player) for player, kept in enumerate(masks)
    )


class TestOperatorKinds:
    def test_the_eight_names(self):
        assert tuple(k.name for k in ALL_OPERATORS) == (
            "LS", "MLS", "GS", "MGS", "LW", "MLW", "GW", "MGW",
        )

    @pytest.mark.parametrize("name", ["ls", "MLS", "gw", "Mgw"])
    def test_round_trip_by_name(self, name):
        assert operator_from_name(name).name.lower() == name.lower()

    def test_name_is_computed_once_per_kind(self):
        assert LS.name is LS.name
        for kind in ALL_OPERATORS:
            assert type(kind)(kind.mode, kind.pool, kind.mixing).name == kind.name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            operator_from_name("xyz")

    @pytest.mark.parametrize("field", ["mode", "pool", "mixing"])
    def test_a_field_that_is_not_an_enum_member_is_rejected(self, field):
        # Its string value would compare unequal to every member: ("strict",
        # "local", "pure") would be named GW and run the mixed kernel.
        fields = {"mode": LS.mode, "pool": LS.pool, "mixing": LS.mixing}
        fields[field] = fields[field].value
        with pytest.raises(ValueError, match=f"^{field} must be a "):
            type(LS)(**fields)


class TestApplyOperator:
    def test_ls_on_g1(self, g1):
        step = apply_operator(LS, Restriction.full(g1))
        assert step.after.kept == ((0,), (0,))
        assert [c.to_dict() for c in step.certificates] == [
            {"player": "Row", "eliminated": "B", "dominator": "A",
             "mode": "strict", "pool": "local"},
        ]

    def test_ls_fixes_the_frozen_subgame(self, g1):
        frozen = Restriction(g1, ((1,), (0,)))
        step = apply_operator(LS, frozen)
        assert step.after == frozen and not step.changed

    def test_mlw_on_g2(self, g2):
        step = apply_operator(MLW, Restriction.full(g2))
        assert step.after.kept == ((0, 1), (0, 1))

    def test_mlw_is_idempotent_at_its_image(self, g2):
        once = apply_operator(MLW, Restriction.full(g2)).after
        again = apply_operator(MLW, once)
        assert again.after == once and not again.changed


class TestStepGameCheck:
    @pytest.mark.parametrize("name, strategies", [("example41", (3, 4)), ("section3", (2, 2))])
    def test_restriction_of_another_game_is_rejected(self, name, strategies):
        # The 4x3 game has the shape of example41; the 2x2 one is larger
        # than section3.
        other = generate(GeneratorConfig(seed=0, players=(2, 2), strategies=strategies))
        engine = EliminationEngine(builtin_game(name))
        message = "^restrictions of different games are not comparable$"
        for kind in (LW, MGS):
            with pytest.raises(ValueError, match=message):
                engine.step(kind, Restriction.full(other))


class TestIterate:
    def test_lw_on_g2_matches_the_brute_force_sequence(self, g2):
        trace = iterate(LW, g2)
        assert trace.fixpoint.kept == ((0,), (0,))
        assert trace.eliminating_steps == 3
        expected = [
            ((0, 1, 2, 3), (0, 1, 2)),
            ((0, 1, 2), (0, 1)),
            ((0, 1, 2), (0,)),
            ((0,), (0,)),
            ((0,), (0,)),
        ]
        got = [trace.steps[0].before.kept] + [s.after.kept for s in trace.steps]
        assert got == expected
        assert brute_lw_sequence(g2) == expected

    def test_mlw_on_g2(self, g2):
        trace = iterate(MLW, g2)
        assert trace.fixpoint.kept == ((0, 1), (0, 1))
        assert trace.eliminating_steps == 1

    def test_ls_on_g1(self, g1):
        trace = iterate(LS, g1)
        assert trace.fixpoint.kept == ((0,), (0,))
        assert trace.eliminating_steps == 1

    def test_trace_invariants(self, g2):
        for kind in ALL_OPERATORS:
            trace = iterate(kind, g2)
            assert trace.steps[0].before == Restriction.full(g2)
            for first, second in zip(trace.steps, trace.steps[1:]):
                assert first.after == second.before
            last = trace.steps[-1]
            assert last.after == last.before == trace.fixpoint

    @pytest.mark.parametrize(
        "game, kept",
        [
            (builtin_game("section3"), ((0,), (0,))),
            # Constant payoffs: nothing dominates, so every fixpoint is the full 2x2 game.
            (generate(GeneratorConfig(seed=0, strategies=(2, 2), payoff_range=(3, 3))),
             ((0, 1), (0, 1))),
        ],
        ids=["section3", "constant-payoffs"],
    )
    def test_all_eight_fixpoints(self, game, kept):
        for kind in ALL_OPERATORS:
            assert iterate(kind, game).fixpoint.kept == kept


class TestOperatorProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_contraction(self, seed):
        game = generate(GeneratorConfig(seed=seed, strategies=(2, 3), tie_bias=0.3))
        engine = EliminationEngine(game)
        import random

        rng = random.Random(seed)
        masks = tuple(rng.randrange(1 << k) for k in game.shape)
        for kind in ALL_OPERATORS:
            after = engine.survivors(kind, masks)
            assert all(a & ~b == 0 for a, b in zip(after, masks))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_global_removes_at_least_as_much_as_local(self, seed):
        game = generate(GeneratorConfig(seed=seed, strategies=(2, 3), tie_bias=0.3))
        engine = EliminationEngine(game)
        import random

        rng = random.Random(seed * 7 + 1)
        for _ in range(5):
            masks = tuple(rng.randrange(1 << k) for k in game.shape)
            for global_kind, local_kind in ((GS, LS), (MGS, MLS), (GW, LW), (MGW, MLW)):
                g_result = engine.survivors(global_kind, masks)
                l_result = engine.survivors(local_kind, masks)
                assert all(g & ~l == 0 for g, l in zip(g_result, l_result))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_inclusion_chains_along_iterates(self, seed):
        game = generate(GeneratorConfig(seed=seed, strategies=(2, 3), tie_bias=0.4))
        engine = EliminationEngine(game)
        iterates = set()
        for kind in ALL_OPERATORS:
            for step in engine.iterate(kind).steps:
                iterates.add(step.before.masks)
        for masks in iterates:
            chain = {k.name: engine.survivors(k, masks) for k in (MLW, LW, LS, MLS)}
            for small, large in (("MLW", "LW"), ("LW", "LS"), ("MLW", "MLS"), ("MLS", "LS")):
                assert all(
                    s & ~l == 0 for s, l in zip(chain[small], chain[large])
                ), f"{small} not within {large}"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(ALL_OPERATORS))
    def test_idempotence_at_the_fixpoint(self, seed, kind):
        game = generate(GeneratorConfig(seed=seed, strategies=(2, 3), tie_bias=0.3))
        fix = iterate(kind, game).fixpoint
        assert apply_operator(kind, fix).after == fix

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_strict_local_iteration_never_empties_a_component(self, seed):
        game = generate(GeneratorConfig(seed=seed, strategies=(2, 4), tie_bias=0.3))
        for kind in (LS, MLS):
            for step in iterate(kind, game).steps:
                assert step.after.is_subgame


class TestEngineCaches:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_survivors_match_a_fresh_sweep_in_either_query_order(self, seed):
        game = generate(
            GeneratorConfig(seed=seed, players=(2, 3), strategies=(1, 3), tie_bias=0.4)
        )
        rng = random.Random(seed)
        # Kept sets that share opponent contexts: each base restriction and
        # variants of it that change one player's own kept set only.
        queries = []
        for _ in range(4):
            base = tuple(rng.randrange(1 << k) for k in game.shape)
            queries.append(base)
            player = rng.randrange(game.player_count)
            for own in rng.sample(range(1 << game.shape[player]), min(3, 1 << game.shape[player])):
                queries.append(base[:player] + (own,) + base[player + 1 :])
        expected = {
            kind: [fresh_survivors(kind, game, masks) for masks in queries]
            for kind in ALL_OPERATORS
        }
        restrictions = {masks: Restriction.from_masks(game, masks) for masks in queries}
        cold = {
            kind: [apply_operator(kind, restrictions[masks]).certificates for masks in queries]
            for kind in ALL_OPERATORS
        }
        for order in (queries, queries[::-1]):
            engine = EliminationEngine(game)
            for kind in ALL_OPERATORS:
                got = [engine.survivors(kind, masks) for masks in order]
                want = expected[kind] if order is queries else expected[kind][::-1]
                assert got == want, kind.name
                # Witnesses read from records that other kept sets filled
                # equal those of a cold engine.
                got = [engine.step(kind, restrictions[masks]).certificates for masks in order]
                want = cold[kind] if order is queries else cold[kind][::-1]
                assert got == want, kind.name

    def test_kinds_built_anew_share_the_caches_of_the_constants(self, g2, monkeypatch):
        calls = []
        query = EliminationEngine.dominator

        def counted_query(engine, *args):
            calls.append(args)
            return query(engine, *args)

        monkeypatch.setattr(EliminationEngine, "dominator", counted_query)
        for kind in ALL_OPERATORS:
            twin = type(kind)(kind.mode, kind.pool, kind.mixing)
            assert twin == kind
            engine = EliminationEngine(g2)
            warm = engine.iterate(kind)
            assert calls
            calls.clear()
            # Every kept set of the twin's iteration was decided by the constant's.
            assert engine.iterate(twin) == warm
            assert calls == [], kind.name

class TestDeterminism:
    def test_repeated_iteration_is_structurally_identical(self, g2):
        for kind in ALL_OPERATORS:
            first = iterate(kind, g2)
            second = iterate(kind, g2)
            assert first == second
            assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_trace_serialization_shape(self, g2):
        doc = iterate(MLW, g2).to_dict()
        assert list(doc) == ["operator", "eliminating_steps", "steps", "fixpoint"]
        assert doc["operator"] == "MLW"
        assert doc["fixpoint"] == {"Row": ["A", "B"], "Column": ["X", "Y"]}
        weights = [
            c["dominator"]
            for s in doc["steps"]
            for c in s["certificates"]
            if isinstance(c["dominator"], dict)
        ]
        for mapping in weights:
            for value in mapping.values():
                Fraction(value)
