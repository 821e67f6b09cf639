"""Exact single-phase simplex for the two dominance programs.

:func:`solve_lp` states the strict and the weak program of
:mod:`dominance_lab.dominance`.  Every row of both is a ``<=`` row whose
right-hand side is 0 or 1, so the origin is feasible and the slack basis is
a starting vertex; there is no phase 1, no artificial variable and no free
variable.

The tableau is built straight from the int margins and the pivoting is
fraction-free (Bareiss 1968, as in Avis's lrs): the tableau holds integers
equal to the true tableau times ``d``, the determinant of the current basis,
which is positive because every pivot is.  A pivot updates each entry by one
exact integer division by the previous ``d``, and the ratio test compares
``rhs / entry`` by cross-multiplying, so no rational is built until the
answer is read out.  Bland's rule (the lowest-indexed improving variable
enters; ratio ties leave by the lowest basic index) makes the result
deterministic and rules out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LpResult", "solve_lp"]


@dataclass(frozen=True)
class LpResult:
    """The optimum of a dominance program and optimal pool weights."""

    value: Fraction
    weights: tuple[Fraction, ...]


def _pivot(rows: list[list[int]], r: int, k: int, d: int) -> int:
    """Integer pivot on row ``r``, column ``k`` of a dictionary tableau.

    Columns are the nonbasic variables plus the right-hand side last; the
    objective row is in ``rows`` too.  After the pivot, column ``k`` holds
    the leaving variable.  Returns the new determinant, the pivot entry.
    """
    prow = rows[r]
    p = prow[k]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[k]
        if f:
            new = [(a * p - f * b) // d for a, b in zip(row, prow)]
        else:
            new = [a * p // d for a in row]
        new[k] = -f
        rows[i] = new
    prow[k] = d
    return p


def solve_lp(margins: Sequence[Sequence[int]], strict: bool) -> LpResult:
    """Solve the strict or the weak dominance program over int ``margins``, exactly.

    ``margins[j][c]`` is the payoff advantage ``a_jc`` of pool strategy
    ``j`` over the target at opponent profile ``c``.  Over unnormalised pool
    weights ``v >= 0``:

    - strict: ``max s``  s.t.  ``s - sum_j a_jc v_j <= 0`` for every ``c``
      and ``sum v <= 1``;
    - weak: ``max sum_c sum_j a_jc v_j``  s.t.  ``-sum_j a_jc v_j <= 0``
      for every ``c`` and ``sum v <= 1``.

    The variables are ``v`` in pool order, then ``s``; the rows are the
    profiles in order, then ``sum v <= 1``.  Both programs are homogeneous
    in ``v``, so the target is dominated exactly when the optimum is
    positive, and then ``sum v = 1`` and the weights are a dominating
    mixture.  The value is in the margins' units.

    Raises ``ValueError`` when the objective is unbounded, which happens for
    the strict program with no profile.
    """
    pool = len(margins)
    n = pool + strict
    # Dictionary rows [coefficients of v (and s), right-hand side]; the
    # objective row holds the negated objective.
    rows = [[-a for a in profile] + [1] * strict + [0] for profile in zip(*margins)]
    rows.append([1] * pool + [0] * strict + [1])
    rows.append(([0] * pool + [-1] if strict else [-sum(row) for row in margins]) + [0])
    m = len(rows) - 1
    basis = list(range(n, n + m))  # the slack of row i is variable n + i
    cobasis = list(range(n))
    objective = rows[m]
    d = 1
    while True:
        enter = -1
        for j, reduced in enumerate(objective[:-1]):
            if reduced < 0 and (enter < 0 or cobasis[j] < cobasis[enter]):
                enter = j
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            row = rows[i]
            x = row[enter]
            if x > 0:
                if leave < 0:
                    leave = i
                    continue
                best = rows[leave]
                lhs = row[-1] * best[enter]
                rhs = best[-1] * x
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ValueError("objective is unbounded above")
        d = _pivot(rows, leave, enter, d)
        objective = rows[m]
        basis[leave], cobasis[enter] = cobasis[enter], basis[leave]
    weights = [Fraction(0)] * pool
    for i, var in enumerate(basis):
        if var < pool:
            weights[var] = Fraction(rows[i][-1], d)
    return LpResult(Fraction(objective[-1], d), tuple(weights))
