"""Exact dense linear algebra over Q (and over Q-linear rhs entries).

Gaussian elimination with Fraction pivots.  The systems in this package are
tiny (at most ~12 x 12), so clarity wins over asymptotics.  One Gauss-Jordan
step, `pivot`, serves `rref`, the definiteness test and the simplex tableau
in `lp`; `rref` serves every solver here, and right-hand-side columns ride
along in the same rows.  Right-hand sides may contain Poly entries: only
addition and scaling by Fractions is ever applied to them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def pivot(m: list[list], row: int, col: int) -> None:
    """One Gauss-Jordan step in place on the nonzero entry m[row][col].

    Scales `row` to a leading 1 in `col` and subtracts multiples of it to
    clear `col` from every other row.
    """
    inv = Fraction(1) / m[row][col]
    m[row] = lead = [x * inv for x in m[row]]
    for r in range(len(m)):
        if r != row and m[r][col] != 0:
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], lead)]


def rref(rows: Sequence[Sequence], n_cols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form, pivoting only in the first n_cols columns.

    Columns from n_cols on are right-hand sides: every row operation applies
    to them, but they are never pivoted on.  Returns the reduced rows and the
    pivot columns; row r < len(pivots) has its leading 1 in pivots[r].
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot(m, rank, col)
        pivots.append(col)
    return m, pivots


def solve(a: Sequence[Sequence[Fraction]], b: Sequence) -> list:
    """Solve a square nonsingular system a*x = b exactly.

    b entries may be Fractions or Polys.  Raises ValueError on a singular
    matrix.
    """
    n = len(a)
    m, pivots = rref([list(row) + [rhs] for row, rhs in zip(a, b)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n] for row in m]


def nullspace(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the right nullspace of a (rows) as a list of vectors."""
    if not a:
        return []
    n_cols = len(a[0])
    m, pivots = rref(a, n_cols)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def column_space_basis(a: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal set of linearly independent columns of a."""
    return rref(a, len(a[0]))[1] if a else []


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
    """Exact test by elimination along the diagonal, without row swaps.

    Pivot k is det_k / det_(k-1), the ratio of consecutive leading principal
    minors, so by Sylvester's criterion the matrix is negative definite iff
    every pivot is < 0; a zero pivot means it is not definite.
    """
    m = [list(r) for r in a]
    for k in range(len(m)):
        if m[k][k] >= 0:
            return False
        pivot(m, k, k)
    return True
