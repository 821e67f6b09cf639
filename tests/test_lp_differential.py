"""Mixed-dominance decisions against sympy's independent exact LP solver.

For random small two-player games, every ``find_mixed_dominator`` answer
(pure scan, prefilter and LP paths alike) must agree with the normalised
dominance program solved by ``sympy.solvers.simplex.lpmax``: the same
decision, the same positive optimum, and a witness that replays.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominance_lab import Game, Mode, Pool, Restriction, dominates, find_mixed_dominator
from dominance_lab.simplex import solve_lp

sympy = pytest.importorskip("sympy")
from sympy.solvers.simplex import InfeasibleLPError, lpmax  # noqa: E402

payoffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))


def sympy_optimum(margins, mode):
    """Optimum of the normalised program over the simplex, or None if infeasible.

    Strict: ``max e  s.t.  sum_j a_jc w_j >= e``.  Weak: ``max sum_c sum_j
    a_jc w_j  s.t.  sum_j a_jc w_j >= 0``.  Both with ``w >= 0, sum w = 1``.
    """
    w = sympy.symbols(f"w0:{len(margins)}")
    e = sympy.Symbol("e")
    mixed = [
        sum(sympy.Rational(row[c].numerator, row[c].denominator) * x for row, x in zip(margins, w))
        for c in range(len(margins[0]))
    ]
    simplex = [sympy.Eq(sum(w), 1)] + [x >= 0 for x in w]
    try:
        if mode is Mode.STRICT:
            value, _ = lpmax(e, [m >= e for m in mixed] + simplex)
        else:
            value, _ = lpmax(sum(mixed), [m >= 0 for m in mixed] + simplex)
    except InfeasibleLPError:
        return None
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_dominator_agrees_with_sympy(data):
    rows = data.draw(st.integers(2, 4), label="rows")
    cols = data.draw(st.integers(1, 4), label="cols")
    table = data.draw(st.lists(payoffs, min_size=rows * cols, max_size=rows * cols))
    game = Game(
        ("Row", "Column"),
        (tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols))),
        (tuple(table), (0,) * (rows * cols)),
    )
    target = data.draw(st.integers(0, rows - 1), label="target")
    kept_rows = data.draw(st.sets(st.integers(0, rows - 1)), label="kept rows") | {target}
    kept_cols = data.draw(st.sets(st.integers(0, cols - 1), min_size=1), label="kept cols")
    restriction = Restriction(game, (sorted(kept_rows), sorted(kept_cols)))
    pool_kind = data.draw(st.sampled_from(Pool), label="pool")
    mode = data.draw(st.sampled_from(Mode), label="mode")

    pool = sorted(kept_rows) if pool_kind is Pool.LOCAL else range(rows)
    margins = [
        tuple(table[s * cols + c] - table[target * cols + c] for c in sorted(kept_cols))
        for s in pool
    ]
    expected = sympy_optimum(margins, mode)
    dominated = expected is not None and expected > 0

    witness = find_mixed_dominator(restriction, 0, target, pool_kind, mode)
    assert (witness is not None) == dominated
    if dominated:
        assert set(witness.support) <= set(pool)
        assert dominates(witness, target, restriction, 0, mode)
        scale = lcm(*(a.denominator for row in margins for a in row))
        scaled = [tuple(int(a * scale) for a in row) for row in margins]
        assert solve_lp(scaled, mode is Mode.STRICT).value / scale == expected
