import random
from fractions import Fraction

import pytest

from dominance_lab.dominance import Mode
from dominance_lab.simplex import solve_lp

F = Fraction


def payoff_margins(margins, weights):
    """Per-profile margin of the mixture ``weights`` over the pool."""
    return [
        sum(row[c] * w for row, w in zip(margins, weights)) for c in range(len(margins[0]))
    ]


def test_solve_lp_reads_the_optimal_vertex():
    # Margins (3, -1) and (-1, 1): the strict max-min 4w - 1 = 1 - 2w meets at
    # w = 1/3; the weak total slack 2w is held to w <= 1/2 by the second profile.
    margins = [(3, -1), (-1, 1)]
    strict = solve_lp(margins, True)
    assert strict.value == F(1, 3)
    assert strict.weights == (F(1, 3), F(2, 3))
    weak = solve_lp(margins, False)
    assert weak.value == 1
    assert weak.weights == (F(1, 2), F(1, 2))


def test_unbounded_raises():
    # The strict program with no profile: s is bounded by nothing.
    with pytest.raises(ValueError, match="unbounded"):
        solve_lp([(), ()], True)


def test_weak_program_without_profiles_has_optimum_zero():
    # Only the strict program is unbounded with no profile; the weak one has
    # an all-zero objective and stays at the origin.
    result = solve_lp([(), ()], False)
    assert result.value == 0
    assert result.weights == (0, 0)


def test_single_strategy_pool_reads_its_own_margin():
    for strict in (True, False):
        result = solve_lp([(2,)], strict)
        assert result.value == 2
        assert result.weights == (1,)
        # A pool that loses to the target stays at the origin.
        assert solve_lp([(-2,)], strict).value == 0


def test_binding_constraint_gives_zero():
    # Mixing the two margins evens out at best: max-min is exactly 0.
    margins = [(1, -1), (-1, 1)]
    assert solve_lp(margins, True).value == 0
    assert solve_lp(margins, False).value == 0


def test_strict_3x2_program_has_optimum_one_half():
    # Margins of T, M, B over target B at the two columns: (2,-1), (-1,2), (0,0).
    result = solve_lp([(2, -1), (-1, 2), (0, 0)], True)
    assert result.value == F(1, 2)
    assert result.weights == (F(1, 2), F(1, 2), F(0))


def test_optimum_is_in_payoff_units():
    # The same program with margins times 3 has an optimum times 3.
    result = solve_lp([(6, -3), (-3, 6), (0, 0)], True)
    assert result.value == F(3, 2)
    assert result.weights == (F(1, 2), F(1, 2), F(0))


def test_weak_target_c_program_has_optimum_one(g2):
    # Total-slack program for eliminating row C of the 4x3 bundled game.
    table = g2.scaled_payoffs[0]
    margins = [
        tuple(table[g2.flat_index((s, c))] - table[g2.flat_index((2, c))] for c in range(3))
        for s in range(4)
    ]
    result = solve_lp(margins, False)
    assert result.value == 1
    # Slack sits entirely at the third column.
    assert payoff_margins(margins, result.weights) == [0, 0, 1]


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.WEAK])
def test_degenerate_program_terminates_under_blands_rule(mode):
    strict = mode is Mode.STRICT
    # Every right-hand side but one is 0, so pivots are degenerate: all-zero
    # margins, duplicate pool columns and ratio ties everywhere.
    zero = (0,) * 6
    up = (1, -1) * 3
    down = (-1, 1) * 3
    margins = [zero, up, up, down, zero, down, up]
    assert solve_lp(margins, strict).value == 0
    assert solve_lp([zero] * 5, strict).value == 0
    # Duplicates of the 1/2 program still reach 1/2, as the same mixture.
    margins = [(2, -1)] * 3 + [(-1, 2)] * 3 + [(0, 0)] * 2
    result = solve_lp(margins, strict)
    assert result.value == (F(1, 2) if strict else 1)
    assert sum(result.weights) == 1
    assert all(m >= 0 for m in payoff_margins(margins, result.weights))


def _grid_weights(parts, max_denominator):
    for den in range(1, max_denominator + 1):
        def rec(total, slots):
            if slots == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in rec(total - first, slots - 1):
                    yield (first,) + rest
        for combo in rec(den, parts):
            yield tuple(F(c, den) for c in combo)


def test_random_dominance_shaped_programs_are_sound():
    rng = random.Random(20240811)
    for _ in range(60):
        pool = rng.randint(2, 4)
        profiles = rng.randint(1, 4)
        # Half-integer margins, doubled to ints.
        margins = [
            tuple(rng.randint(-3, 3) * 2 // rng.choice((1, 2)) for _ in range(profiles))
            for _ in range(pool)
        ]
        grid = list(_grid_weights(pool, 4))

        strict = solve_lp(margins, True)
        assert strict.value >= 0
        if strict.value > 0:
            assert sum(strict.weights) == 1
            assert min(payoff_margins(margins, strict.weights)) == strict.value
        # No grid point on the simplex does better than the reported max-min.
        for weights in grid:
            assert min(payoff_margins(margins, weights)) <= strict.value

        weak = solve_lp(margins, False)
        assert weak.value >= 0
        if weak.value > 0:
            assert sum(weak.weights) == 1
            slack = payoff_margins(margins, weak.weights)
            assert min(slack) >= 0 and sum(slack) == weak.value
        for weights in grid:
            slack = payoff_margins(margins, weights)
            if min(slack) >= 0:
                assert sum(slack) <= weak.value
