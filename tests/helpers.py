"""Helpers that only the tests use."""

from fractions import Fraction

from fano_delta import linalg
from fano_delta.exactmath import VARS, Chamber, ChamberFunction, Poly, integrate_chamber, integrate_univariate, q
from fano_delta.scenarios import builders, c_domain
from fano_delta.surfzar import ChamberedDecomposition, SurfaceModel, SurfDivisor
from fano_delta.toric3 import ToricDivisor


def random_pseudoeffective(model: SurfaceModel, rng) -> SurfDivisor:
    """A random divisor in the cone spanned by the basis curves."""
    coeffs = [
        Fraction(rng.randrange(0, 40), rng.randrange(1, 8)) for _ in range(model.n)
    ]
    if all(x == 0 for x in coeffs):
        coeffs[rng.randrange(model.n)] = Fraction(1)
    return SurfDivisor(model, coeffs)


def at_u(d: ToricDivisor, u0) -> ToricDivisor:
    """The divisor of a u-family at u = u0."""
    return ToricDivisor(d.fan, [co.subs(u=q(u0)) for co in d.coeffs])


def interpolate(samples, degree_bound, variables=None):
    """One-function `interpolate_many` on (point, value) pairs."""
    points = [point for point, _ in samples]
    return interpolate_many(points, [[value] for _, value in samples], degree_bound, variables)[0]


def evaluate(fn: ChamberFunction, u0, v0=None) -> Fraction:
    """The value of a chamber function at (u0, v0), from the first chamber
    that contains the point."""
    for ch, p in fn.pieces:
        if ch.contains(u0, v0):
            args = {"u": q(u0)}
            if v0 is not None:
                args["v"] = q(v0)
            return p(**args)
    raise ValueError(f"point ({u0}, {v0}) outside every chamber")


def integrate(fn: ChamberFunction) -> Fraction:
    """The integral of a chamber function: the sum over its pieces."""
    return sum((integrate_chamber(p, ch) for ch, p in fn.pieces), Fraction(0))


def reference_integrate_chamber(p: Poly, ch) -> Fraction:
    """Reference for the chamber-moment integration: the v-antiderivative of
    p between the affine bounds, then the u-integral."""
    if not ch.is_two_dimensional():
        return integrate_univariate(p, ch.u_lo, ch.u_hi, "u")
    anti = p.antiderivative("v")
    inner = anti.subs(v=ch.v_hi) - anti.subs(v=ch.v_lo)
    return integrate_univariate(inner, ch.u_lo, ch.u_hi, "u")


def build_218(case: str, c: Fraction):
    """Flag scenario for one section-2 configuration at exact parameter c."""
    c = q(c)
    lo, hi = c_domain()
    if not lo < c < hi:
        raise ValueError(f"c must lie strictly between {lo} and {hi}")
    return builders.Case218(case, c).scenario


def threshold_at(scan: ChamberedDecomposition, u0) -> Fraction:
    """The pseudoeffective threshold t(u0) of a chamber scan."""
    u0 = q(u0)
    for piece in scan.threshold:
        if piece.u_lo <= u0 <= piece.u_hi:
            return piece.t(u=u0)
    raise ValueError(f"u={u0} outside the scanned range")


# ---------------------------------------------------------------------------
# Continuity of chamber functions
# ---------------------------------------------------------------------------


def check_continuity(fn: ChamberFunction) -> list[str]:
    """Human-readable violations of boundary continuity: adjacent pieces
    must agree at two exact rational points of every shared boundary segment."""
    problems: list[str] = []
    pieces = fn.pieces
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            ch_a, p_a = pieces[a]
            ch_b, p_b = pieces[b]
            for u0, v0 in shared_boundary_samples(ch_a, ch_b):
                if v0 is None:
                    va, vb = p_a(u=u0), p_b(u=u0)
                else:
                    va, vb = p_a(u=u0, v=v0), p_b(u=u0, v=v0)
                if va != vb:
                    problems.append(f"discontinuity at (u,v)=({u0},{v0}): {va} != {vb}")
    return problems


def shared_boundary_samples(a: Chamber, b: Chamber) -> list[tuple[Fraction, Fraction | None]]:
    """Two exact sample points on each shared boundary segment of a and b."""
    if a.is_two_dimensional() != b.is_two_dimensional():
        return []
    if not a.is_two_dimensional():
        if a.u_hi == b.u_lo:
            return [(a.u_hi, None)]
        if b.u_hi == a.u_lo:
            return [(b.u_hi, None)]
        return []
    samples: list[tuple[Fraction, Fraction | None]] = []
    # Vertical boundary: same u-line, overlapping v-ranges.
    for u0 in {a.u_hi} & {b.u_lo} | {a.u_lo} & {b.u_hi}:
        lo = max(a.v_lo(u=u0), b.v_lo(u=u0))
        hi = min(a.v_hi(u=u0), b.v_hi(u=u0))
        if lo < hi:
            samples += [(u0, lo * Fraction(2, 3) + hi * Fraction(1, 3)),
                        (u0, lo * Fraction(1, 3) + hi * Fraction(2, 3))]
        elif lo == hi:
            samples.append((u0, lo))
    # Horizontal boundary: overlapping u-interval, touching v-bounds.
    u_lo, u_hi = max(a.u_lo, b.u_lo), min(a.u_hi, b.u_hi)
    if u_lo < u_hi:
        for upper, lower in ((a.v_hi, b.v_lo), (b.v_hi, a.v_lo)):
            if upper == lower:
                for t in (Fraction(1, 3), Fraction(2, 3)):
                    u0 = u_lo + (u_hi - u_lo) * t
                    samples.append((u0, upper(u=u0)))
    return samples


# ---------------------------------------------------------------------------
# Interpolation oracle
# ---------------------------------------------------------------------------

_DEFAULT_VARS = {1: ("v",), 2: ("u", "v"), 3: ("u", "v", "c")}


def interpolate_many(points, values, degree_bound: int, variables=None) -> list[Poly]:
    """Exact polynomial interpolation of several functions, cross-validated.

    ``values[p][k]`` is function k at ``points[p]``; the interpolant of each
    is the unique polynomial of total degree <= ``degree_bound`` in
    ``variables`` through its samples.  The sample matrix is eliminated once
    with one right-hand-side column per function.  At least one sample beyond
    the determining count must be supplied; every sample is checked against
    the solved interpolant, so a wrong degree bound cannot slip through.

    Raises ValueError("insufficient samples") if the system is
    underdetermined, and ValueError("not polynomial of stated degree") if an
    extra sample of some function disagrees with its unique interpolant.
    """
    if not points:
        raise ValueError("insufficient samples")
    arity = len(points[0])
    if variables is None:
        if arity not in _DEFAULT_VARS:
            raise ValueError(f"cannot infer variables for arity {arity}")
        variables = _DEFAULT_VARS[arity]
    if len(variables) != arity:
        raise ValueError("arity mismatch")

    monomials = _monomials(len(variables), degree_bound)
    rows = []
    for point in points:
        if len(point) != arity:
            raise ValueError("arity mismatch")
        coords = [q(x) for x in point]
        rows.append([_eval_monomial(m, coords) for m in monomials])

    if len(points) <= len(monomials):
        raise ValueError("insufficient samples")

    solution = solve_overdetermined(rows, [[q(x) for x in row] for row in values])
    if solution is None:
        raise ValueError("not polynomial of stated degree")
    if any(s is None for s in solution):
        raise ValueError("insufficient samples")

    exps = []
    for mono in monomials:
        exp = [0, 0, 0]
        for var, e in zip(variables, mono):
            exp[VARS.index(var)] = e
        exps.append(tuple(exp))
    out = []
    for k in range(len(values[0])):
        terms: dict = {}
        for exp, row in zip(exps, solution):
            terms[exp] = terms.get(exp, Fraction(0)) + row[k]
        out.append(Poly(terms))
    return out


def _monomials(nvars: int, bound: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, budget: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, bound)
    return out


def _eval_monomial(mono: tuple[int, ...], coords: list[Fraction]) -> Fraction:
    val = Fraction(1)
    for e, x in zip(mono, coords):
        val *= x**e
    return val


def solve_overdetermined(rows, rhs):
    """Solve a (possibly) overdetermined system for several right-hand sides.

    ``rhs[r]`` lists row r's value in each right-hand-side column.  Returns
    the unique solution, one row of column values per unknown, if every
    column is consistent and the matrix has full column rank; returns None
    if some column is inconsistent; returns a list of None if the solution
    is not unique (rank-deficient).
    """
    n_cols = len(rows[0]) if rows else 0
    m, pivots = linalg.rref([list(r) + list(b) for r, b in zip(rows, rhs)], n_cols)
    if any(x != 0 for row in m[len(pivots):] for x in row[n_cols:]):
        return None  # inconsistent
    if len(pivots) < n_cols:
        return [None] * n_cols  # underdetermined
    return [row[n_cols:] for row in m[:n_cols]]
