"""Exact linear algebra and the rational simplex."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fano_delta import linalg, lp

from helpers import column_space_basis, fraction_rref, fraction_solve, fraction_solve_max


def test_solve_and_singular():
    # A system is solved through its inverse; a singular matrix has none.
    rows, den = linalg.inverse([[F(2), F(1)], [F(1), F(3)]])
    assert (rows, den) == ([[3, -1], [-1, 2]], 5)
    assert [F(sum(x * b for x, b in zip(row, (4, 7))), den) for row in rows] == [F(1), F(2)]
    assert linalg.inverse([[F(1), F(2)], [F(2), F(4)]]) is None


def test_nullspace_of_gram_kernel():
    gram = [[F(0), F(1)], [F(1), F(0)]]
    assert linalg.nullspace(gram) == []
    rank1 = [[F(1), F(2)], [F(2), F(4)]]
    (vec,) = linalg.nullspace(rank1)
    assert vec[0] * 1 + vec[1] * 2 == 0


def test_determinant_and_negative_definite():
    rows = [[F(1, 2), F(2), F(0)], [F(3), F(4), F(0)], [F(0), F(0), F(1, 3)]]
    assert linalg.det3(*rows) == F(-4, 3)
    assert linalg.is_negative_definite([[F(-2), F(1)], [F(1), F(-1)]])
    assert not linalg.is_negative_definite([[F(-2), F(2)], [F(2), F(-1)]])
    assert not linalg.is_negative_definite([[F(0)]])


def _det_by_expansion(a):
    """Laplace expansion along the first row: the reference determinant."""
    if not a:
        return F(1)
    return sum((-1) ** j * a[0][j] * _det_by_expansion([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def _negative_definite_by_minors(a):
    """Sylvester's criterion as stated: (-1)^k det_k > 0 for every k."""
    return all((-1) ** k * _det_by_expansion([row[:k] for row in a[:k]]) > 0
               for k in range(1, len(a) + 1))


@st.composite
def _symmetric_matrices(draw):
    """Symmetric rational matrices up to 5x5.  Half are -M.M^T with M of n
    or n-1 columns, so negative definite and singular ones are common."""
    n = draw(st.integers(1, 5))
    gram = draw(st.booleans())
    k = n - draw(st.integers(0, 1)) if gram else n
    den = draw(st.integers(1, 6))
    cells = iter(draw(st.lists(st.integers(-12, 12), min_size=n * k, max_size=n * k)))
    m = [[F(next(cells), den) for _ in range(k)] for _ in range(n)]
    if gram:
        return [[-sum((x * y for x, y in zip(m[i], m[j])), F(0)) for j in range(n)]
                for i in range(n)]
    return [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(_symmetric_matrices())
def test_negative_definite_matches_leading_minors(a):
    assert linalg.is_negative_definite(a) == _negative_definite_by_minors(a)


def test_det3_integer():
    assert linalg.det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert linalg.det3((1, 3, -1), (0, 0, 1), (0, 1, 0)) == -1


def test_simplex_optimal():
    res = lp.solve_max([F(3), F(2)], [[F(1), F(1)]], [F(4)])
    assert res.status == lp.OPTIMAL and res.value == 12


def test_simplex_equality_system():
    # max v subject to  v + e1 = 2,  -v + e2 = 1  (so v <= 2).
    res = lp.solve_max(
        [F(1), F(0), F(0)],
        [[F(1), F(1), F(0)], [F(-1), F(0), F(1)]],
        [F(2), F(1)],
    )
    assert res.status == lp.OPTIMAL and res.value == 2


def test_simplex_infeasible():
    res = lp.solve_max([F(1)], [[F(1)], [F(1)]], [F(1), F(2)])
    assert res.status == lp.INFEASIBLE


def test_simplex_unbounded():
    res = lp.solve_max([F(1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert res.status == lp.UNBOUNDED


def test_simplex_degenerate_bland_terminates():
    # Classic cycling-prone instance; Bland's rule must terminate.
    a = [
        [F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    c = [F(3, 4), F(-20), F(1, 2), F(-6), F(0), F(0), F(0)]
    res = lp.solve_max(c, a, [F(0), F(0), F(1)])
    assert res.status == lp.OPTIMAL and res.value == F(5, 4)


def test_simplex_redundant_equality_row():
    # A duplicated constraint keeps an artificial variable basic at zero;
    # phase 2 must still reach the optimum.
    res = lp.solve_max(
        [F(1), F(1)],
        [[F(1), F(1)], [F(1), F(1)], [F(1), F(0)]],
        [F(4), F(4), F(3)],
    )
    assert res.status == lp.OPTIMAL and res.value == 4


OPTIMAL_LPS = [
    # (c, a, b, optimum): the optimal examples above.
    ([F(3), F(2)], [[F(1), F(1)]], [F(4)], 12),
    ([F(1), F(0), F(0)], [[F(1), F(1), F(0)], [F(-1), F(0), F(1)]], [F(2), F(1)], 2),
    ([F(3, 4), F(-20), F(1, 2), F(-6), F(0), F(0), F(0)],
     [[F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
      [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
      [F(0), F(0), F(1), F(0), F(0), F(0), F(1)]],
     [F(0), F(0), F(1)], F(5, 4)),
    ([F(1), F(1)], [[F(1), F(1)], [F(1), F(1)], [F(1), F(0)]], [F(4), F(4), F(3)], 4),
]


@pytest.mark.parametrize("c, a, b, optimum", OPTIMAL_LPS)
def test_returned_basis_certifies_the_optimum(c, a, b, optimum):
    res = lp.solve_max(c, a, b)
    assert res.status == lp.OPTIMAL and res.value == optimum
    # Redundant rows follow from the others; B is square on independent rows.
    rows = column_space_basis([list(col) for col in zip(*a)])
    assert len(res.basis) == len(rows) == len(set(res.basis))
    basis_cols = [[a[r][j] for j in res.basis] for r in rows]
    x_b = fraction_solve(basis_cols, [b[r] for r in rows])
    assert all(x >= 0 for x in x_b)
    assert res.x == [x_b[res.basis.index(j)] if j in res.basis else 0 for j in range(len(c))]
    # Dual y with y.B = c_B: no column may have a positive reduced cost.
    y = fraction_solve([list(col) for col in zip(*basis_cols)], [c[j] for j in res.basis])
    for j in range(len(c)):
        assert c[j] - sum(yi * a[r][j] for yi, r in zip(y, rows)) <= 0


# ---------------------------------------------------------------------------
# Differential tests against the Fraction oracles in helpers
# ---------------------------------------------------------------------------


@st.composite
def _rational_matrices(draw, rows=None, cols=None, integer=None):
    """Small rational or integer matrices; some rows are combinations of
    others, so singular and rank-deficient ones are common."""
    m = rows if rows is not None else draw(st.integers(1, 5))
    n = cols if cols is not None else draw(st.integers(1, 6))
    integer = draw(st.booleans()) if integer is None else integer
    dens = st.just(1) if integer else st.integers(1, 12)
    cell = st.builds(F, st.integers(-9, 9), dens)
    out = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(m)]
    for r in range(1, m):
        if draw(st.integers(0, 3)) == 0:  # a combination of earlier rows
            a, b = draw(cell), draw(cell)
            out[r] = [a * x + b * y for x, y in zip(out[draw(st.integers(0, r - 1))], out[0])]
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bareiss_nullspace_matches_fraction_rref(data):
    a = data.draw(_rational_matrices())
    n_cols = len(a[0])
    reduced, pivots = fraction_rref(a, n_cols)
    free = [col for col in range(n_cols) if col not in pivots]
    # One basis vector per free column: 1 there, 0 at the other free
    # columns, minus that column of the reduced rows at the pivots.
    expected = [[F(col == fc) - sum((row[fc] for row, pc in zip(reduced, pivots) if pc == col), F(0))
                 for col in range(n_cols)] for fc in free]
    assert linalg.nullspace(a) == expected
    assert all(sum(x * y for x, y in zip(row, vec)) == 0 for vec in expected for row in a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bareiss_solve_and_inverse_match_fraction_rref(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(_rational_matrices(rows=n, cols=n))
    b = data.draw(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 12)), min_size=n, max_size=n))
    reduced, pivots = fraction_rref([row + [F(i == r) for i in range(n)] for r, row in enumerate(a)], n)
    inverse = linalg.inverse(a)
    if len(pivots) < n:
        assert inverse is None
        with pytest.raises(ValueError, match="singular"):
            fraction_solve(a, b)
        return
    rows, den = inverse
    assert den > 0 and math.gcd(den, *(x for row in rows for x in row)) == 1
    assert [[F(x, den) for x in row] for row in rows] == [row[n:] for row in reduced]
    # Solving through the inverse, as `_check_sigmas` does.
    assert [sum(x * y for x, y in zip(row, b)) / den for row in rows] == fraction_solve(a, b)


@st.composite
def _random_lps(draw):
    """max c.x, a x = b, x >= 0 with small rational data: zero right-hand
    sides (degenerate), duplicated and combined rows (redundant), and sign
    patterns that make infeasible and unbounded problems common."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cell = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 5]))
    row = st.lists(cell, min_size=n, max_size=n)
    a = [draw(row) for _ in range(m)]
    b = [draw(st.one_of(st.just(F(0)), cell)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):  # a redundant row: a multiple of another
        k, s = draw(st.integers(0, m - 2)), draw(st.sampled_from([F(1), F(2), F(-1, 3)]))
        a[-1], b[-1] = [s * x for x in a[k]], s * b[k]
    return draw(row), a, b


@settings(max_examples=300, deadline=None)
@given(_random_lps())
def test_integer_simplex_matches_fraction_simplex(lp_data):
    c, a, b = lp_data
    got, want = lp.solve_max(c, a, b), fraction_solve_max(c, a, b)
    assert (got.status, got.x, got.value, got.basis) == (want.status, want.x, want.value, want.basis)


def test_random_lps_reach_every_status():
    """The strategy above meets every outcome and redundant rows."""
    seen = set()

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(_random_lps())
    def collect(lp_data):
        c, a, b = lp_data
        res = fraction_solve_max(c, a, b)
        seen.add(res.status)
        if res.status == lp.OPTIMAL and len(res.basis) < len(a):
            seen.add("redundant")

    collect()
    assert seen == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED, "redundant"}
