"""Exact rational linear programming (primal simplex, Bland's rule).

Solves  max c.x  subject to  A x = b, x >= 0  entirely over Fractions.
Bland's rule guarantees termination; there is no numerical tolerance
anywhere.  Problems in this package have at most ~15 variables and ~8
constraints, so the dense tableau is fine.  An optimal result carries its
final basis, so a caller whose b moves can re-prove optimality from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg

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
    rows = [list(row) for row in a]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial variables, minimize their sum.
    tableau = [rows[i] + [Fraction(i == r) for r in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    value = _run_simplex(tableau, basis, [Fraction(0)] * n + [Fraction(-1)] * m)
    if value is None or value < 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificial variables out of the basis where possible;
    # a row where that fails is zero on the original columns (redundant).
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                linalg.pivot(tableau, i, pivot_col)
                basis[i] = pivot_col

    # Phase 2 on the original columns only.
    keep = [r for r in range(m) if basis[r] < n]
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    if _run_simplex(tableau, basis, list(c)) is None:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    return LPResult(OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x)), basis)


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> Fraction | None:
    """Run primal simplex to optimality; returns the objective or None if
    unbounded.  Entering/leaving choices use Bland's rule.  The tableau is
    kept in reduced form (basic columns are unit columns), so the simplex
    multipliers are just the basic costs."""
    while True:
        y = [cost[var] for var in basis]
        entering = None
        for j in range(len(cost)):
            if j in basis:
                continue
            reduced = cost[j] - sum(y[r] * tableau[r][j] for r in range(len(tableau)))
            if reduced > 0:
                entering = j
                break  # Bland: smallest improving index
        if entering is None:
            return sum(y[r] * tableau[r][-1] for r in range(len(tableau)))
        leaving = None
        best = None
        for r in range(len(tableau)):
            if tableau[r][entering] > 0:
                ratio = tableau[r][-1] / tableau[r][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    best = ratio
                    leaving = r
        if leaving is None:
            return None  # unbounded
        linalg.pivot(tableau, leaving, entering)
        basis[leaving] = entering
