"""Exact dense linear algebra over Q, computed in integers.

Fraction-free (Bareiss) elimination: a rational matrix is first scaled to
integers by one common denominator, and every later entry stays an integer,
because each step divides exactly by the previous pivot (Bareiss, Math.
Comp. 22, 1968).  The systems in this package are tiny (at most ~12 x 12),
so clarity wins over asymptotics.  One fraction-free Gauss-Jordan step,
`pivot`, serves `nullspace`, `inverse`, the definiteness test and the
integer simplex tableau in `lp`; the identity columns of `inverse` ride
along in the same rows.  A linear system is solved through `inverse` (the
3x3 integer systems of `toric3` by its one Cramer helper).  Entries are
ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .exactmath import numerators

def pivot(m: list[list[int]], row: int, col: int, d: int) -> int:
    """One fraction-free Gauss-Jordan step in place on p = m[row][col] != 0.

    d is the pivot of the step before (1 for the first).  Row `row` is kept;
    every other row r becomes (p * m[r] - m[r][col] * m[row]) / d, which
    clears `col` and divides exactly.  If m / d was a rational matrix before
    the step, m / p is it after one rational Gauss-Jordan step on the same
    entry.  Returns p, the next step's d.
    """
    p = m[row][col]
    lead = m[row]
    for r in range(len(m)):
        if r != row:
            f = m[r][col]
            if f:
                m[r] = [(p * x - f * y) // d for x, y in zip(m[r], lead)]
            else:
                m[r] = [p * x // d for x in m[r]]
    return p


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The rows as integers times one common denominator D, and D."""
    width = len(rows[0]) if rows else 0
    flat, den = numerators(x for row in rows for x in row)
    return [list(flat[i * width:i * width + width]) for i in range(len(rows))], den


def _eliminate(rows: Sequence[Sequence], n_cols: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan of D * rows, D their common denominator, on
    the first n_cols columns: (m, pivots, d, D), where a pivot row of m is d
    times its reduced row and every other row d * D times it."""
    m, den = integer_rows(rows)
    pivots: list[int] = []
    d = 1
    for col in range(n_cols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        d = pivot(m, rank, col, d)
        pivots.append(col)
    return m, pivots, d, den


def inverse(a: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int] | None:
    """(B, den) with B / den the inverse of the square matrix a, B integer
    and den > 0 the least common denominator; None if a is singular."""
    n = len(a)
    m, pivots, d, _ = _eliminate([list(row) + [int(i == r) for i in range(n)]
                                  for r, row in enumerate(a)], n)
    if len(pivots) < n:
        return None
    g = gcd(d, *(x for row in m for x in row[n:]))
    g = -g if d < 0 else g
    return [[x // g for x in row[n:]] for row in m], d // g


def nullspace(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the right nullspace of a (rows) as a list of vectors."""
    if not a:
        return []
    n_cols = len(a[0])
    m, pivots, d, _ = _eliminate(a, n_cols)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):  # pivot row r is d times its reduced row
            vec[pc] = Fraction(-m[r][fc], d)
        basis.append(vec)
    return basis


def det3(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """Determinant of the 3x3 matrix with rows u, v, w.

    Only ring operations are used, so it is exact on ints and Fractions.
    """
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def is_negative_definite(a: Sequence[Sequence[Fraction]]) -> bool:
    """Exact test by fraction-free elimination along the diagonal, without
    row swaps.

    On the integer matrix D*a, D > 0, pivot k is its leading principal minor
    det_(k+1), and the step before left d = det_k.  By Sylvester's criterion
    the matrix is negative definite iff every det_(k+1) / det_k is < 0; a
    zero minor means it is not definite.
    """
    m, _ = integer_rows(a)
    d = 1
    for k in range(len(m)):
        if m[k][k] * d >= 0:
            return False
        d = pivot(m, k, k, d)
    return True
