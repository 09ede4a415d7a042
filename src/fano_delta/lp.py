"""Exact rational linear programming (primal simplex, Bland's rule).

Solves  max c.x  subject to  A x = b, x >= 0  entirely over Fractions.
Bland's rule guarantees termination; there is no numerical tolerance
anywhere.  Problems in this package have at most ~15 variables and ~8
constraints, so the dense tableau is fine.
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
    tableau = [rows[i] + _unit(m, i) + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    value = _run_simplex(tableau, basis, cost1, n + m)
    if value is None or value < 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificial variables out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                linalg.pivot(tableau, i, pivot_col)
                basis[i] = pivot_col

    # Phase 2 on the original columns only.
    keep = [r for r in range(m) if basis[r] < n or any(tableau[r][j] != 0 for j in range(n))]
    tableau = [[tableau[r][j] for j in range(n)] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    cost2 = list(c)
    value = _run_simplex(tableau, basis, cost2, n)
    if value is None:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            x[var] = tableau[r][-1]
    return LPResult(OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x)))


def _unit(m: int, i: int) -> list[Fraction]:
    col = [Fraction(0)] * m
    col[i] = Fraction(1)
    return col


def _run_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    n_cols: int,
) -> Fraction | None:
    """Run primal simplex to optimality; returns the objective or None if
    unbounded.  Entering/leaving choices use Bland's rule."""
    while True:
        # Reduced costs z_j - c_j from the current basis.
        y = _dual_from_basis(tableau, basis, cost)
        entering = None
        for j in range(n_cols):
            if j in basis:
                continue
            reduced = cost[j] - sum(y[r] * tableau[r][j] for r in range(len(tableau)))
            if reduced > 0:
                entering = j
                break  # Bland: smallest improving index
        if entering is None:
            obj = sum(
                cost[basis[r]] * tableau[r][-1]
                for r in range(len(tableau))
                if basis[r] < len(cost)
            )
            return obj
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


def _dual_from_basis(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    # The tableau is kept in reduced form (basic columns are unit columns),
    # so the simplex multipliers are just the basic costs.
    return [
        cost[basis[r]] if basis[r] < len(cost) else Fraction(0)
        for r in range(len(tableau))
    ]
