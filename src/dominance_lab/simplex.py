"""Exact single-phase simplex for ``max c.x  s.t.  A x <= b,  x >= 0``.

The dominance programs of :mod:`dominance_lab.dominance` are homogeneous:
every row is a ``<=`` row whose right-hand side is 0 or 1.  So ``b >= 0``,
the origin is feasible and the slack basis is a starting vertex; there is
no phase 1, no artificial variable and no free variable.

``A``, ``b`` and ``c`` are Python ints and the pivoting is fraction-free
(Bareiss 1968, as in Avis's lrs): the tableau holds integers equal to the
true tableau times ``d``, the determinant of the current basis, which is
positive because every pivot is.  A pivot updates each entry by one exact
integer division by the previous ``d``, and the ratio test compares
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
    """The optimum and an optimal assignment of a solved program."""

    value: Fraction
    assignment: tuple[Fraction, ...]


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


def solve_lp(a: Sequence[Sequence[int]], b: Sequence[int], c: Sequence[int]) -> LpResult:
    """Maximise ``c.x`` subject to ``a x <= b`` and ``x >= 0``, exactly.

    Raises ``ValueError`` when some ``b`` is negative (the origin is then not
    a feasible start) or when the objective is unbounded.
    """
    if any(x < 0 for x in b):
        raise ValueError("right-hand side must be nonnegative")
    n = len(c)
    m = len(a)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows.append([-x for x in c] + [0])
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
    assignment = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            assignment[var] = Fraction(rows[i][-1], d)
    return LpResult(Fraction(objective[-1], d), tuple(assignment))
