import json
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
    Restriction,
    apply_operator,
    builtin_game,
    iterate,
    operator_from_name,
    payoff,
)
from dominance_lab.operators import EliminationEngine
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


class TestOperatorKinds:
    def test_the_eight_names(self):
        assert tuple(k.name for k in ALL_OPERATORS) == (
            "LS", "MLS", "GS", "MGS", "LW", "MLW", "GW", "MGW",
        )

    @pytest.mark.parametrize("name", ["ls", "MLS", "gw", "Mgw"])
    def test_round_trip_by_name(self, name):
        assert operator_from_name(name).name.lower() == name.lower()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            operator_from_name("xyz")


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
