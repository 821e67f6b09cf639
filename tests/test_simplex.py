import random
from fractions import Fraction

import pytest

from dominance_lab.dominance import Mode, _solve_dominance_program
from dominance_lab.simplex import solve_lp

F = Fraction


def payoff_margins(margins, weights):
    """Per-profile margin of the mixture ``weights`` over the pool."""
    return [
        sum(row[c] * w for row, w in zip(margins, weights)) for c in range(len(margins[0]))
    ]


def test_solve_lp_reads_the_optimal_vertex():
    # max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x <= 3.
    result = solve_lp([[1, 1], [1, 3], [1, 0]], [4, 6, 3], [3, 2])
    assert result.value == 11
    assert result.assignment == (3, 1)


def test_unbounded_raises():
    with pytest.raises(ValueError, match="unbounded"):
        solve_lp([[0, 1]], [1], [1, 0])


def test_negative_right_hand_side_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        solve_lp([[1]], [-1], [1])


def test_binding_constraint_gives_zero():
    # Mixing the two margins evens out at best: max-min is exactly 0.
    margins = [(F(1), F(-1)), (F(-1), F(1))]
    assert _solve_dominance_program(margins, 2, Mode.STRICT).value == 0
    assert _solve_dominance_program(margins, 2, Mode.WEAK).value == 0


def test_strict_3x2_program_has_optimum_one_half():
    # Margins of T, M, B over target B at the two columns: (2,-1), (-1,2), (0,0).
    margins = [(F(2), F(-1)), (F(-1), F(2)), (F(0), F(0))]
    result = _solve_dominance_program(margins, 2, Mode.STRICT)
    assert result.value == F(1, 2)
    assert result.assignment == (F(1, 2), F(1, 2), F(0))


def test_optimum_is_in_payoff_units():
    # The same program with margins divided by 6 has an optimum divided by 6.
    margins = [(F(2, 6), F(-1, 6)), (F(-1, 6), F(2, 6)), (F(0), F(0))]
    result = _solve_dominance_program(margins, 2, Mode.STRICT)
    assert result.value == F(1, 12)
    assert result.assignment == (F(1, 2), F(1, 2), F(0))


def test_weak_target_c_program_has_optimum_one(g2):
    # Total-slack program for eliminating row C of the 4x3 bundled game.
    margins = [
        tuple(
            g2.payoffs[0][g2.flat_index((s, c))] - g2.payoffs[0][g2.flat_index((2, c))]
            for c in range(3)
        )
        for s in range(4)
    ]
    result = _solve_dominance_program(margins, 3, Mode.WEAK)
    assert result.value == 1
    # Slack sits entirely at the third column.
    assert payoff_margins(margins, result.assignment) == [0, 0, 1]


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.WEAK])
def test_degenerate_program_terminates_under_blands_rule(mode):
    # Every right-hand side but one is 0, so pivots are degenerate: all-zero
    # margins, duplicate pool columns and ratio ties everywhere.
    zero = (F(0),) * 6
    up = (F(1), F(-1)) * 3
    down = (F(-1), F(1)) * 3
    margins = [zero, up, up, down, zero, down, up]
    assert _solve_dominance_program(margins, 6, mode).value == 0
    assert _solve_dominance_program([zero] * 5, 6, mode).value == 0
    # Duplicates of the 1/2 program still reach 1/2, as the same mixture.
    margins = [(F(2), F(-1))] * 3 + [(F(-1), F(2))] * 3 + [(F(0), F(0))] * 2
    result = _solve_dominance_program(margins, 2, mode)
    assert result.value == (F(1, 2) if mode is Mode.STRICT else 1)
    assert sum(result.assignment) == 1
    assert all(m >= 0 for m in payoff_margins(margins, result.assignment))


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
        margins = [
            tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(profiles))
            for _ in range(pool)
        ]
        grid = list(_grid_weights(pool, 4))

        strict = _solve_dominance_program(margins, profiles, Mode.STRICT)
        assert strict.value >= 0
        if strict.value > 0:
            assert sum(strict.assignment) == 1
            assert min(payoff_margins(margins, strict.assignment)) == strict.value
        # No grid point on the simplex does better than the reported max-min.
        for weights in grid:
            assert min(payoff_margins(margins, weights)) <= strict.value

        weak = _solve_dominance_program(margins, profiles, Mode.WEAK)
        assert weak.value >= 0
        if weak.value > 0:
            assert sum(weak.assignment) == 1
            slack = payoff_margins(margins, weak.assignment)
            assert min(slack) >= 0 and sum(slack) == weak.value
        for weights in grid:
            slack = payoff_margins(margins, weights)
            if min(slack) >= 0:
                assert sum(slack) <= weak.value
