"""Mixed-dominance decisions against sympy's independent exact LP solver.

For random small two-player games, every ``find_mixed_dominator`` answer
(pure scan, one- and two-profile refutation and LP paths alike) must agree
with the normalised dominance program solved by
``sympy.solvers.simplex.lpmax``: the same decision and a witness that
replays.  ``solve_lp`` itself is compared on every query, dominated or not,
since the kernel sends few undominated queries to it.

``lpmax`` can return a point that breaks a constraint (sympy 1.14.0 gives
``w1 = 1`` and the value 1/2 on the weak program of the regression game
below, whose optimum is 0), so each of its answers is checked against
every constraint, and an answer that fails the check, or a claim of
infeasibility, which no point can show, is decided by enumerating the
program's vertices over ``Fraction`` instead.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dominance_lab import Game, Mode, Pool, Restriction, dominates, find_mixed_dominator
from dominance_lab.simplex import solve_lp

sympy = pytest.importorskip("sympy")
from sympy.solvers.simplex import InfeasibleLPError, lpmax  # noqa: E402

payoffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))


def _dot(row, point):
    return sum(a * x for a, x in zip(row, point))


def _solve(rows, rhs):
    """The one solution of the square system ``rows x = rhs`` over Fractions, or None."""
    size = len(rows)
    matrix = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col]), None)
        if pivot is None:
            return None
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        for r in range(size):
            if r != col and matrix[r][col]:
                factor = matrix[r][col] / matrix[col][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
    return [matrix[r][size] / matrix[r][r] for r in range(size)]


def vertex_optimum(margins, mode):
    """The optimum of :func:`sympy_optimum`'s program, by enumerating its vertices.

    The variables are the weights and, in strict mode, the level ``e``.
    Every inequality reads ``row . x >= 0``.  A vertex makes ``sum w = 1``
    and as many inequalities tight as there are variables left, and is
    kept if it meets every inequality.  The feasible set holds no line (the
    weights are bounded, and ``e`` is bounded above), so a bounded optimum
    sits at a vertex.  None when no vertex is feasible.
    """
    n, strict = len(margins), mode is Mode.STRICT
    size = n + strict
    inequalities = [[row[c] for row in margins] + [-1] * strict for c in range(len(margins[0]))]
    inequalities += [[int(i == j) for i in range(size)] for j in range(n)]
    simplex = [1] * n + [0] * strict
    objective = [0] * n + [1] if strict else [sum(row) for row in margins]
    values = []
    for tight in combinations(inequalities, size - 1):
        point = _solve([*tight, simplex], [0] * (size - 1) + [1])
        if point is not None and all(_dot(row, point) >= 0 for row in inequalities):
            values.append(_dot(objective, point))
    return max(values, default=None)


def sympy_optimum(margins, mode):
    """Optimum of the normalised program over the simplex, or None if infeasible.

    Strict: ``max e  s.t.  sum_j a_jc w_j >= e``.  Weak: ``max sum_c sum_j
    a_jc w_j  s.t.  sum_j a_jc w_j >= 0``.  Both with ``w >= 0, sum w = 1``.
    ``lpmax``'s answer is kept only if its point meets every constraint and
    gives its value; otherwise :func:`vertex_optimum` decides.
    """
    w = sympy.symbols(f"w0:{len(margins)}")
    e = sympy.Symbol("e")
    mixed = [
        sum(sympy.Rational(row[c].numerator, row[c].denominator) * x for row, x in zip(margins, w))
        for c in range(len(margins[0]))
    ]
    simplex = [sympy.Eq(sum(w), 1)] + [x >= 0 for x in w]
    if mode is Mode.STRICT:
        objective, constraints = e, [m >= e for m in mixed] + simplex
    else:
        objective, constraints = sum(mixed), [m >= 0 for m in mixed] + simplex
    try:
        value, point = lpmax(objective, constraints)
    except InfeasibleLPError:
        return vertex_optimum(margins, mode)
    if sympy.simplify(objective.subs(point) - value) != 0 or not all(
        c.subs(point) is sympy.true for c in constraints
    ):
        return vertex_optimum(margins, mode)
    return Fraction(int(value.p), int(value.q))


def check_against_sympy(table, cols, target, kept_rows, kept_cols, pool_kind, mode):
    """Decide ``target`` of the row player at the restriction, and check it against sympy."""
    rows = len(table) // cols
    game = Game(
        ("Row", "Column"),
        (tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols))),
        (tuple(table), (0,) * (rows * cols)),
    )
    restriction = Restriction(game, (sorted(kept_rows), sorted(kept_cols)))
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
    # The LP on every query, not only the dominated ones: the kernel's
    # refutation stages settle most of the others before it.  Its weights
    # are unnormalised, so its optimum is the normalised one when positive,
    # and 0 otherwise (including when the normalised program is infeasible).
    scale = lcm(*(a.denominator for row in margins for a in row))
    scaled = [tuple(int(a * scale) for a in row) for row in margins]
    reference = max(Fraction(0), expected) if expected is not None else 0
    assert solve_lp(scaled, mode is Mode.STRICT).value / scale == reference


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_dominator_agrees_with_sympy(data):
    rows = data.draw(st.integers(2, 4), label="rows")
    cols = data.draw(st.integers(1, 4), label="cols")
    table = data.draw(st.lists(payoffs, min_size=rows * cols, max_size=rows * cols))
    target = data.draw(st.integers(0, rows - 1), label="target")
    kept_rows = data.draw(st.sets(st.integers(0, rows - 1)), label="kept rows") | {target}
    kept_cols = data.draw(st.sets(st.integers(0, cols - 1), min_size=1), label="kept cols")
    pool_kind = data.draw(st.sampled_from(Pool), label="pool")
    mode = data.draw(st.sampled_from(Mode), label="mode")
    check_against_sympy(table, cols, target, kept_rows, kept_cols, pool_kind, mode)


def test_a_game_where_lpmax_breaks_a_constraint():
    # Row 2 against the others: margins (-1/3, 1, 0), (0, 1, -1/2), 0 and
    # (-1/3, 1, -1/2).  Only weight on row 2 itself meets every column, so
    # the weak optimum is 0 and nothing dominates it.
    half, third = Fraction(1, 2), Fraction(1, 3)
    table = [0, 0, half, third, 0, 0, third, -1, half, 0, 0, 0]
    margins = [(-third, 1, 0), (0, 1, -half), (0, 0, 0), (-third, 1, -half)]
    assert vertex_optimum(margins, Mode.WEAK) == 0
    assert sympy_optimum(margins, Mode.WEAK) == 0
    check_against_sympy(table, 3, 2, {0, 1, 2, 3}, {0, 1, 2}, Pool.LOCAL, Mode.WEAK)


@pytest.mark.parametrize(
    "margins, mode, optimum",
    [
        ([(1, -1), (-1, 1)], Mode.STRICT, 0),
        ([(2, 1), (0, 0)], Mode.STRICT, 1),
        ([(1, 0), (0, 0)], Mode.WEAK, 1),
        ([(-1, 2), (2, -1)], Mode.WEAK, 1),
        ([(-1, -1)], Mode.WEAK, None),
        ([(-3,)], Mode.STRICT, -3),
    ],
)
def test_the_vertex_reference_on_small_programs(margins, mode, optimum):
    margins = [tuple(map(Fraction, row)) for row in margins]
    assert vertex_optimum(margins, mode) == optimum
