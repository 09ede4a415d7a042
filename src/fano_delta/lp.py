"""Exact rational linear programming (primal simplex, Bland's rule).

Solves  max c.x  subject to  A x = b, x >= 0  on an integer tableau: the
rows are scaled to integers by one common denominator and every pivot is
`linalg.pivot`'s fraction-free step, so the tableau T holds the rational
tableau as T / d with d > 0 the last pivot (Edmonds 1967; Azulay and Pique,
ACM TOMS 27, 2001).  Reduced costs and ratio tests compare cross-multiplied
integers, so every choice, and the final basis, is the one the rational
tableau gives.  Bland's rule guarantees termination; there is no numerical
tolerance anywhere.  Problems in this package have at most ~15 variables and
~8 constraints, so the dense tableau is fine.  An optimal result carries its
final basis, so a caller whose b moves can re-prove optimality from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .exactmath import numerators

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list[Fraction] | None = None
    value: Fraction | None = None
    # Basic column of each row phase 2 kept: a basis of A when A has full
    # row rank.
    basis: list[int] | None = None


def solve_max(
    c: Sequence[Fraction],
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> LPResult:
    """Maximize c.x subject to a x = b, x >= 0 (two-phase simplex)."""
    m, n = len(a), len(c)
    # Rows with b >= 0, times one common denominator: scaling every row by it
    # scales the artificial variables and the phase-1 objective alike, so the
    # rational tableau of every basis, and every choice below, is unchanged.
    rows, _ = linalg.integer_rows([[-x for x in row] + [-rhs] if rhs < 0 else list(row) + [rhs]
                                   for row, rhs in zip(a, b)])

    # Phase 1: artificial variables, minimize their sum.
    tableau = [row[:n] + [int(i == r) for r in range(m)] + row[n:] for i, row in enumerate(rows)]
    basis = [n + i for i in range(m)]
    d, value = _run_simplex(tableau, basis, [0] * n + [-1] * m, 1)
    if value is None or value < 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificial variables out of the basis where possible;
    # a row where that fails is zero on the original columns (redundant).
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                if tableau[i][pivot_col] < 0:  # keep d > 0: the row's rhs is 0
                    tableau[i] = [-x for x in tableau[i]]
                d = linalg.pivot(tableau, i, pivot_col, d)
                basis[i] = pivot_col

    # Phase 2 on the original columns only, with c over one denominator.
    keep = [r for r in range(m) if basis[r] < n]
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    d, value = _run_simplex(tableau, basis, list(numerators(c)[0]), d)
    if value is None:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = Fraction(tableau[r][-1], d)
    return LPResult(OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x)), basis)


def _run_simplex(tableau: list[list[int]], basis: list[int], cost: list[int],
                 d: int) -> tuple[int, int | None]:
    """Run primal simplex to optimality on the integer tableau over d > 0;
    returns (d, d times the objective), the objective None if unbounded.
    Entering/leaving choices use Bland's rule.  Basic columns are d times
    unit columns, so the simplex multipliers are just the basic costs."""
    while True:
        y = [cost[var] for var in basis]
        entering = None
        for j in range(len(cost)):
            if j in basis:
                continue
            if cost[j] * d - sum(y[r] * tableau[r][j] for r in range(len(tableau))) > 0:
                entering = j
                break  # Bland: smallest improving index
        if entering is None:
            return d, sum(y[r] * tableau[r][-1] for r in range(len(tableau)))
        leaving = None
        for r in range(len(tableau)):
            if tableau[r][entering] > 0:
                if leaving is None:
                    leaving = r
                    continue
                # Ratios rhs / entry over positive entries, cross-multiplied.
                lhs = tableau[r][-1] * tableau[leaving][entering]
                rhs = tableau[leaving][-1] * tableau[r][entering]
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                    leaving = r
        if leaving is None:
            return d, None  # unbounded
        d = linalg.pivot(tableau, leaving, entering, d)
        basis[leaving] = entering
