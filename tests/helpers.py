"""Helpers that only the tests use."""

from fractions import Fraction

import functools
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from fano_delta import linalg, lp
from fano_delta.exactmath import AFFINE, VARS, Chamber, Poly, Scalar, affine_poly, integer_rows, numerators, q
from fano_delta.flagdelta import FlagScenario, MarkedPoint
from fano_delta.scenarios import builders, c_domain
from fano_delta.surfzar import (
    ChamberedDecomposition,
    ConeAssumptionError,
    NotPseudoeffectiveError,
    RowMismatch,
    ScanChamber,
    ScanError,
    SurfaceModel,
    TableRow,
    ThresholdPiece,
    _Family,
    _threshold_lp,
    _threshold_pieces,
    chamber_scan,
)
from fano_delta.toric3 import (Fan3, HPolytope, StarSurface, ToricDivisor, Zariski3Interval, divisor_cube,
                               triple_product)


@dataclass(frozen=True)
class ChamberFunction:
    """A function given by one polynomial per chamber.

    The chambers are expected to have pairwise disjoint interiors; adjacent
    pieces of volume-type functions agree on shared boundaries.
    """

    pieces: tuple[tuple[Chamber, Poly], ...]

    def __init__(self, pieces: Iterable[tuple[Chamber, Poly]]):
        object.__setattr__(self, "pieces", tuple((ch, Poly.coerce(p)) for ch, p in pieces))


def poly_chamber(u_lo, u_hi, v_lo, v_hi) -> Chamber:
    """The Chamber between the walls v = v_lo(u) and v = v_hi(u), given as
    Polys or scalars affine in u."""
    ((a, b), (c, d)), den = forms_of([v_lo, v_hi])
    return Chamber(u_lo, u_hi, (a, b, den), (c, d, den))


def corners(ch: Chamber) -> tuple[tuple[Fraction, Fraction], ...]:
    """The four corners (u, v) of a chamber."""
    return tuple((u0, bound(u=u0)) for u0 in (ch.u_lo, ch.u_hi) for bound in (ch.v_lo, ch.v_hi))


@dataclass(frozen=True)
class SurfDivisor:
    model: SurfaceModel
    coeffs: tuple[Poly, ...]

    def __init__(self, model: SurfaceModel, coeffs: Sequence[Poly | Scalar]):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "coeffs", tuple(Poly.coerce(x) for x in coeffs))
        if len(self.coeffs) != model.n:
            raise ValueError("coefficient list length must match curve count")


def curve_vector(model: SurfaceModel, curve: int | Sequence[Scalar]) -> tuple[Fraction, ...]:
    """The coefficient vector of a curve class, or of basis curve number
    ``curve`` when it is an index."""
    if isinstance(curve, int):
        return tuple(Fraction(i == curve) for i in range(model.n))
    return tuple(q(x) for x in curve)


def pseff_threshold(
    model: SurfaceModel, d: SurfDivisor, curve: int | Sequence[Scalar]
) -> Fraction:
    """Largest v such that D - v*C stays in the span of the basis curves.

    Exact rational LP: maximize v subject to
        D - v*C + (relation combination) = e,  e >= 0.
    """
    threshold_lp = _threshold_lp(model, curve_vector(model, curve))
    return threshold_lp.solve([x.as_fraction() for x in d.coeffs]).value


def contains(ch: Chamber, u0, v0) -> bool:
    """Whether (u0, v0) lies in ch."""
    u0 = q(u0)
    return ch.u_lo <= u0 <= ch.u_hi and ch.v_lo(u=u0) <= q(v0) <= ch.v_hi(u=u0)


def random_pseudoeffective(model: SurfaceModel, rng) -> SurfDivisor:
    """A random divisor in the cone spanned by the basis curves."""
    coeffs = [
        Fraction(rng.randrange(0, 40), rng.randrange(1, 8)) for _ in range(model.n)
    ]
    if all(x == 0 for x in coeffs):
        coeffs[rng.randrange(model.n)] = Fraction(1)
    return SurfDivisor(model, coeffs)


def forms_of(coeffs: Sequence[Poly | Scalar]) -> tuple[tuple[tuple[int, int], ...], int]:
    """Polys or scalars affine in u as integer forms (a, b) over one den."""
    return integer_rows(map(Poly.coerce, coeffs), AFFINE[:2], "affine in u")


def polys_of(forms: Sequence[Sequence[int]], den: int) -> tuple[Poly, ...]:
    """Integer forms (a, b) over den as the Polys (a + b*u)/den."""
    return tuple(affine_poly(f, den) for f in forms)


def divisor(fan: Fan3, coeffs: Sequence[Poly | Scalar]) -> ToricDivisor:
    """The divisor on fan with these coefficients, affine in u."""
    return ToricDivisor(fan, *forms_of(coeffs))


def poly_coeffs(d: ToricDivisor) -> tuple[Poly, ...]:
    """A divisor's coefficients as Polys in u."""
    return polys_of(d.coeffs, d.den)


def wall_poly(w) -> Poly:
    """A wall (a, b, d) as the Poly (a + b*u)/d."""
    return affine_poly(w[:2], w[2])


def cube_poly(d: ToricDivisor) -> Poly:
    """`toric3.divisor_cube` as a Poly in u."""
    nums, den = divisor_cube(d)
    return Poly({(e, 0, 0): Fraction(x, den) for e, x in enumerate(nums)})


def poly_chamber_scan(model: SurfaceModel, base, curve, u_lo, u_hi) -> ChamberedDecomposition:
    """`chamber_scan` of a base given as Polys or scalars affine in u."""
    return chamber_scan(model, *forms_of(base), curve, u_lo, u_hi)


def at_u(d: ToricDivisor, u0) -> ToricDivisor:
    """The divisor of a u-family at u = u0."""
    u0 = q(u0)
    return ToricDivisor(d.fan, tuple((a * u0.denominator + b * u0.numerator, 0) for a, b in d.coeffs),
                        d.den * u0.denominator)


def interpolate(samples, degree_bound, variables=None):
    """One-function `interpolate_many` on (point, value) pairs."""
    points = [point for point, _ in samples]
    return interpolate_many(points, [[value] for _, value in samples], degree_bound, variables)[0]


def evaluate(fn: ChamberFunction, u0, v0) -> Fraction:
    """The value of a chamber function at (u0, v0), from the first chamber
    that contains the point."""
    for ch, p in fn.pieces:
        if contains(ch, u0, v0):
            return p(u=q(u0), v=q(v0))
    raise ValueError(f"point ({u0}, {v0}) outside every chamber")


def moment_integral(p: Poly, ch: Chamber) -> Fraction:
    """iint p over ch for p of degree <= 2 in u and v, by `Chamber.moments`
    alone, as the flag layers integrate: p = f + u*g + v*h with affine forms
    f, g, h, and iint p the moment of f against 1, g against u, h against v."""
    if p.total_degree() > 2 or p.degree_in("c"):
        raise ValueError(f"not of degree <= 2 in u, v: {p}")
    exps = ((0, 0), (1, 0), (0, 1), None, (2, 0), (1, 1), None, None, (0, 2))
    flat, den = numerators(p.coefficient((*e, 0)) if e else Fraction(0) for e in exps)
    total = delta = 0
    for i in range(3):
        moments, delta = ch.moments(flat[3 * i:3 * i + 3])
        total += moments[i]
    return Fraction(total, den * delta)


def integrate(fn: ChamberFunction) -> Fraction:
    """The integral of a chamber function: the sum over its pieces."""
    return sum((reference_integrate_chamber(p, ch) for ch, p in fn.pieces), Fraction(0))


def threshold_pieces(model: SurfaceModel, base, curve, u_lo, u_hi) -> list[ThresholdPiece]:
    """The certified threshold envelope of base(u) - v*C on [u_lo, u_hi]."""
    return _threshold_pieces(_Family(model, *forms_of(base), curve_vector(model, curve)), q(u_lo), q(u_hi))


def n_coeffs(ch: ScanChamber) -> tuple[Poly, ...]:
    """N of a scan chamber as Polys affine in (u, v)."""
    return tuple(affine_poly(f, ch.forms.den) for f in ch.forms.n)


def p_coeffs(ch: ScanChamber) -> tuple[Poly, ...]:
    """P of a scan chamber as Polys affine in (u, v)."""
    return tuple(affine_poly(f, ch.forms.den) for f in ch.forms.p)


def p_squared(scan: ChamberedDecomposition) -> ChamberFunction:
    """P^2 of a chamber scan as one Poly per chamber."""
    return ChamberFunction((ch.chamber, pair(scan.model, p_coeffs(ch), p_coeffs(ch)))
                           for ch in scan.chambers)


def form_poly(terms, den) -> Poly:
    """The Poly of integer numerators by (u, v) exponents over den."""
    return Poly({(a, b, 0): Fraction(x, den) for (a, b), x in terms.items()})


def reference_integrate_chamber(p: Poly, ch) -> Fraction:
    """Reference for the chamber-moment integration: the v-antiderivative of
    p between the affine bounds, then the u-integral."""
    anti = antiderivative(p, "v")
    inner = anti.subs(v=ch.v_hi) - anti.subs(v=ch.v_lo)
    return reference_integrate_univariate(inner, ch.u_lo, ch.u_hi)


def antiderivative(p: Poly, name: str) -> Poly:
    """The antiderivative of p in the variable `name`, with constant 0."""
    i = VARS.index(name)
    out = {}
    for exp, coef in p.terms.items():
        new = list(exp)
        new[i] += 1
        out[tuple(new)] = coef / new[i]
    return Poly(out)


def u_coefficients(p: Poly) -> tuple[tuple[int, ...], int]:
    """A Poly in u alone as its integer coefficients by rising degree over
    one positive den, as `flagdelta.s_from_volume` reads a volume."""
    (coeffs,), den = integer_rows([p], [(i, 0, 0) for i in range(p.degree_in("u") + 1)], "in u alone")
    return coeffs, den


def reference_integrate_univariate(p: Poly, lo, hi) -> Fraction:
    """The u-integral of p over [lo, hi] from its Poly antiderivative."""
    anti = antiderivative(p, "u")
    return anti(u=q(hi)) - anti(u=q(lo))


def marked_point(scenario: FlagScenario, name: str) -> MarkedPoint:
    """The marked point of a flag scenario by its name."""
    return next(p for p in scenario.points if p.name == name)


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
                va, vb = p_a(u=u0, v=v0), p_b(u=u0, v=v0)
                if va != vb:
                    problems.append(f"discontinuity at (u,v)=({u0},{v0}): {va} != {vb}")
    return problems


def shared_boundary_samples(a: Chamber, b: Chamber) -> list[tuple[Fraction, Fraction]]:
    """Two exact sample points on each shared boundary segment of a and b."""
    samples: list[tuple[Fraction, Fraction]] = []
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
    m, pivots = fraction_rref([list(r) + list(b) for r, b in zip(rows, rhs)], n_cols)
    if any(x != 0 for row in m[len(pivots):] for x in row[n_cols:]):
        return None  # inconsistent
    if len(pivots) < n_cols:
        return [None] * n_cols  # underdetermined
    return [row[n_cols:] for row in m[:n_cols]]


# ---------------------------------------------------------------------------
# Pointwise Zariski decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: SurfDivisor
    negative: SurfDivisor
    support: tuple[int, ...]

    def validate(self) -> list[str]:
        problems = []
        model = self.positive.model
        for j in self.support:
            if self.negative.coeffs[j].as_fraction() < 0:
                problems.append(f"negative coefficient at {model.curve_names[j]}")
        for j in range(model.n):
            val = dot_curve(model, self.positive.coeffs, j).as_fraction()
            if j in self.support and val != 0:
                problems.append(f"P.{model.curve_names[j]} = {val} != 0 on support")
            if val < 0:
                problems.append(f"P.{model.curve_names[j]} = {val} < 0")
        sub = [[model.gram[i][j] for j in self.support] for i in self.support]
        if self.support and not linalg.is_negative_definite(sub):
            problems.append("support Gram block not negative definite")
        return problems


def column_space_basis(a: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal set of linearly independent columns of a."""
    return fraction_rref(a, len(a[0]))[1] if a else []


@lru_cache(maxsize=None)
def effective_cone_facets(model: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """Facet functionals of the cone spanned by the basis curve classes, as
    primitive integer vectors acting on coefficient vectors: the class of x
    is pseudoeffective iff sum_i h_i x_i >= 0 for every facet h.

    Classes are coordinatized by their intersection vector against a maximal
    independent subset of the curves; the facets of the finitely generated
    cone are enumerated from (d-1)-subsets of the generators.
    """
    pivot_rows = column_space_basis([list(r) for r in model.gram])  # symmetric matrix
    d = len(pivot_rows)
    gens = [tuple(model.gram[r][i] for r in pivot_rows) for i in range(model.n)]
    facets: set[tuple[int, ...]] = set()

    def add(normal: Sequence[Fraction]) -> None:
        h, _ = numerators(sum(x * y for x, y in zip(normal, g)) for g in gens)
        k = math.gcd(*h)
        facets.add(tuple(x // k for x in h))

    if d == 1:
        for sign in (1, -1):
            if all(sign * g[0] >= 0 for g in gens):
                add((Fraction(sign),))
    else:
        for subset in itertools.combinations(range(model.n), d - 1):
            kernel = linalg.nullspace([list(gens[i]) for i in subset])
            if len(kernel) != 1:
                continue
            vals = [sum(x * y for x, y in zip(kernel[0], g)) for g in gens]
            if all(v >= 0 for v in vals):
                add(kernel[0])
            elif all(v <= 0 for v in vals):
                add([-x for x in kernel[0]])
    return tuple(sorted(facets))


def is_pseudoeffective(model: SurfaceModel, coeffs) -> bool:
    vec = [Poly.coerce(x).as_fraction() for x in coeffs]
    return all(
        sum(h[i] * vec[i] for i in range(model.n)) >= 0 for h in effective_cone_facets(model)
    )


def zariski_decompose(model: SurfaceModel, d: SurfDivisor) -> ZariskiDecomposition:
    """Zariski decomposition of a rational-coefficient divisor class."""
    coeffs = [x.as_fraction() for x in d.coeffs]
    if not is_pseudoeffective(model, coeffs):
        raise NotPseudoeffectiveError("divisor not pseudoeffective in model")
    support, n_vals = _expand_support(model, coeffs, _sign, lambda x, j: _dot(model, x, j))
    n_vec = [Fraction(0)] * model.n
    for j, val in zip(support, n_vals):
        n_vec[j] = val
    p_vec = [coeffs[i] - n_vec[i] for i in range(model.n)]
    dec = ZariskiDecomposition(
        positive=SurfDivisor(model, p_vec),
        negative=SurfDivisor(model, n_vec),
        support=tuple(support),
    )
    problems = dec.validate()
    if any("negative coefficient" in p for p in problems):
        raise NotPseudoeffectiveError("divisor not pseudoeffective in model")
    if problems:
        raise ConeAssumptionError("; ".join(problems))
    return dec


def _dot(model: SurfaceModel, x, j: int) -> Fraction:
    """`dot_curve` for a rational coefficient vector."""
    return sum((x[i] * model.gram[i][j] for i in range(model.n)), Fraction(0))


def dot_curve(model: SurfaceModel, x: Sequence[Poly | Scalar], j: int) -> Poly:
    """Intersection of a class, given by its coefficient vector, with basis curve j."""
    out: dict = {}
    for xi, row in zip(x, model.gram):
        if row[j]:
            for e, c in Poly.coerce(xi).terms.items():
                out[e] = out.get(e, 0) + c * row[j]
    return Poly(out)


def pair(model: SurfaceModel, x: Sequence[Poly | Scalar], y: Sequence[Poly | Scalar]) -> Poly:
    """Intersection number of two classes given by coefficient vectors."""
    return sum((dot_curve(model, x, j) * y[j] for j in range(model.n)), Poly())


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _expand_support(model: SurfaceModel, coeffs: Sequence, sign, dot) -> tuple[list[int], list]:
    """Support-growing decomposition loop.

    Runs on rational coefficients with ``dot = _dot`` and on symbolic ones
    with ``dot = dot_curve``.  ``sign`` maps an intersection value to
    its sign at the evaluation point; using one-sided signs lets the same
    loop compute the support valid just beyond a chamber boundary.  Returns
    (support, negative coefficients on the support).
    """
    support: list[int] = []
    n_vals: list = []
    for _ in range(model.n + 1):
        p_vec = list(coeffs)
        for j, val in zip(support, n_vals):
            p_vec[j] = p_vec[j] - val
        entering = []
        for k in range(model.n):
            if k in support:
                continue
            if sign(dot(p_vec, k)) < 0:
                entering.append(k)
        if not entering:
            return support, n_vals
        support = sorted(support + entering)
        sub = [[model.gram[i][j] for j in support] for i in support]
        rhs = [dot(coeffs, i) for i in support]
        try:
            n_vals = fraction_solve(sub, rhs)
        except ValueError as exc:
            raise ConeAssumptionError("cone assumption violated") from exc
    raise ConeAssumptionError("decomposition failed to stabilize")


# ---------------------------------------------------------------------------
# Reference chamber scan: the same algorithm as `chamber_scan` on Polys
# ---------------------------------------------------------------------------


def reference_chamber_scan(model: SurfaceModel, base, curve, u_lo, u_hi) -> ChamberedDecomposition:
    """`chamber_scan` with every decomposition, event and certificate step
    computed on rational Polys instead of integer numerators."""
    u_lo, u_hi = q(u_lo), q(u_hi)
    base = [Poly.coerce(b) for b in base]
    cvec = curve_vector(model, curve)
    family = [base[i] - Poly.var("v") * cvec[i] for i in range(model.n)]
    tpieces = threshold_pieces(model, base, cvec, u_lo, u_hi)
    chambers = [ch for piece in tpieces if not piece.t.is_zero()
                for ch in _reference_scan_piece(model, family, piece)]
    return ChamberedDecomposition(model=model, curve=cvec, u_lo=u_lo, u_hi=u_hi,
                                  threshold=tuple(tpieces), chambers=tuple(chambers))


class ReferenceChamber(NamedTuple):
    """A chamber of the reference scan: `ScanChamber` without integer forms."""

    chamber: Chamber
    support: tuple[int, ...]
    n_coeffs: tuple[Poly, ...]
    p_coeffs: tuple[Poly, ...]


class _Split(Exception):
    def __init__(self, at: Fraction):
        self.at = at


def _reference_scan_piece(model, family, piece: ThresholdPiece, depth: int = 0) -> list[ReferenceChamber]:
    if depth > 24:
        raise RuntimeError("chamber scan failed to stabilize")
    columns = _reference_columns(model, family, piece, piece.u_lo + (piece.u_hi - piece.u_lo) / 2)
    try:
        return _reference_certify(model, piece, columns)
    except _Split as split:
        at = split.at
        if not (piece.u_lo < at < piece.u_hi):
            raise RuntimeError(f"invalid split point u={at}") from None
        return (_reference_scan_piece(model, family, ThresholdPiece(piece.u_lo, at, piece.wall), depth + 1)
                + _reference_scan_piece(model, family, ThresholdPiece(at, piece.u_hi, piece.wall), depth + 1))


def _reference_columns(model, family, piece: ThresholdPiece, u0: Fraction) -> list:
    """(support, lower wall, N, P) of each column above u0, walking v up from 0."""
    t_at = piece.t(u=u0)
    fam_u0 = [f.subs(u=u0) for f in family]  # affine in v
    columns = []
    v_cur = Fraction(0)
    lower = Poly()
    for _ in range(60):
        def sign_above(value: Poly) -> int:
            b = value.coefficient((0, 1, 0))
            return _sign(value.coefficient((0, 0, 0)) + b * v_cur) or _sign(b)

        support, _ = _expand_support(model, fam_u0, sign_above, lambda x, k: dot_curve(model, x, k))
        support = tuple(support)
        n_sym, p_sym = _reference_decomposition(model, family, support)
        v_next, boundary = t_at, None
        for fn in [n_sym[j] for j in support] + [
                dot_curve(model, p_sym, k) for k in range(model.n) if k not in support]:
            at_u0 = fn.subs(u=u0)
            a, b = at_u0.coefficient((0, 0, 0)), at_u0.coefficient((0, 1, 0))
            if b < 0 and v_cur < -a / b < v_next:
                v_next, boundary = -a / b, fn
        columns.append((support, lower, n_sym, p_sym))
        if boundary is None or v_next >= t_at:
            return columns
        gamma_v = boundary.coefficient((0, 1, 0))
        lower = -(boundary - Poly.var("v") * gamma_v) / gamma_v
        v_cur = v_next
    raise RuntimeError("v-scan failed to terminate")


def _reference_decomposition(model, family, support):
    """Exact N and P coefficient polynomials for one fixed support."""
    n_sym = [Poly() for _ in range(model.n)]
    if support:
        sub = [[model.gram[i][j] for j in support] for i in support]
        try:
            n_vals = fraction_solve(sub, [dot_curve(model, family, i) for i in support])
        except ValueError as exc:
            raise ConeAssumptionError("cone assumption violated") from exc
        for j, val in zip(support, n_vals):
            n_sym[j] = val
    return tuple(n_sym), tuple(family[i] - n_sym[i] for i in range(model.n))


def _reference_certify(model, piece: ThresholdPiece, columns) -> list[ReferenceChamber]:
    """The certificate of `surfzar._certify_columns`, on Polys."""
    bounds = [lower for _, lower, _, _ in columns] + [piece.t]
    for lo, hi in zip(bounds, bounds[1:]):
        gap = hi - lo
        if gap(u=piece.u_lo) < 0 or gap(u=piece.u_hi) < 0:
            cross = _affine_root(gap, piece.u_lo, piece.u_hi)
            if cross is not None:
                raise _Split(cross)
            raise RuntimeError("inconsistent chamber boundaries")
    out = []
    for (support, _, n_sym, p_sym), lo, hi in zip(columns, bounds, bounds[1:]):
        if (hi - lo).is_zero():
            continue
        chamber = poly_chamber(piece.u_lo, piece.u_hi, lo, hi)

        def check(fn: Poly, failure: str) -> None:
            if any(fn(u=u0, v=v0) < 0 for u0, v0 in corners(chamber)):
                for bound in (lo, hi):
                    root = _affine_root(fn.subs(v=bound), piece.u_lo, piece.u_hi)
                    if root is not None:
                        raise _Split(root)
                raise RuntimeError(failure)

        for j in support:
            check(n_sym[j], "negative support coefficient in chamber")
        for k in range(model.n):
            val = dot_curve(model, p_sym, k)
            if k in support:
                if not val.is_zero():
                    raise RuntimeError("support orthogonality failed symbolically")
                continue
            check(val, "nef condition failed inside chamber")
        sub = [[model.gram[i][j] for j in support] for i in support]
        if support and not linalg.is_negative_definite(sub):
            raise ConeAssumptionError("cone assumption violated")
        out.append(ReferenceChamber(chamber, support, n_sym, p_sym))
    return out


# ---------------------------------------------------------------------------
# Reference thresholds and table-row checks: `surfzar._threshold_pieces` as
# the lower envelope of the effective cone's facets, and
# `surfzar.row_mismatches` on Polys
# ---------------------------------------------------------------------------


class ReferencePiece(NamedTuple):
    """A threshold piece of the reference envelope: t as a Poly affine in u."""

    u_lo: Fraction
    u_hi: Fraction
    t: Poly


def reference_threshold_pieces(model: SurfaceModel, base, curve, u_lo, u_hi) -> list[ReferencePiece]:
    """`threshold_pieces` from the facets of the effective cone, on rational
    Polys and without the LP.

    A facet h with h(C) > 0 bounds v from above by h(base(u)) / h(C), one
    with h(C) < 0 from below, and one with h(C) = 0 must stay >= 0 on the
    base family (affine: both ends suffice).  t is the lower envelope of the
    upper bounds, and the family leaves the cone wherever t falls below 0 or
    a lower bound (affine on each piece: its ends suffice).
    """
    u_lo, u_hi = q(u_lo), q(u_hi)
    base = [Poly.coerce(b) for b in base]
    cvec = curve_vector(model, curve)
    lines: list[Poly] = []
    floors: list[Poly] = [Poly()]
    for h in effective_cone_facets(model):
        hc = sum(h[i] * cvec[i] for i in range(model.n))
        hb = sum((b * hi for hi, b in zip(h, base) if hi), Poly())
        if hb.total_degree() > 1 or hb.degree_in("v") or hb.degree_in("c"):
            raise ValueError("base family must be affine in u")
        if hc > 0:
            lines.append(hb / hc)
        elif hc < 0:
            floors.append(hb / hc)
        else:
            for u0 in (u_lo, u_hi):
                if hb(u=u0) < 0:
                    raise NotPseudoeffectiveError(f"base family leaves the effective cone at u={u0}")
    if not lines:
        raise ValueError("threshold unbounded")
    pieces = _reference_lower_envelope(lines, u_lo, u_hi)
    for piece in pieces:
        for u0 in (piece.u_lo, piece.u_hi):
            if any(piece.t(u=u0) < floor(u=u0) for floor in floors):
                raise NotPseudoeffectiveError(f"base family leaves the effective cone at u={u0}")
    return pieces


def _reference_lower_envelope(lines: Sequence[Poly], u_lo: Fraction, u_hi: Fraction) -> list[ReferencePiece]:
    def slope(line: Poly) -> Fraction:
        return line.coefficient((1, 0, 0))

    pieces: list[ReferencePiece] = []
    cur = u_lo
    for _ in range(100):
        vmin = min(line(u=cur) for line in lines)
        active = min((line for line in lines if line(u=cur) == vmin), key=slope)
        if cur >= u_hi:
            if not pieces:  # u_lo == u_hi: the value there, whichever line is active
                pieces.append(ReferencePiece(u_lo, u_hi, Poly.const(vmin)))
            return pieces
        nxt = u_hi
        for line in lines:
            ds = slope(line) - slope(active)
            if line == active or ds >= 0:
                continue
            cross = (active(u=0) - line(u=0)) / ds  # line falls below active here
            if cur < cross < nxt:
                nxt = cross
        pieces.append(ReferencePiece(cur, nxt, active))
        if nxt >= u_hi:
            return pieces
        cur = nxt
    raise ScanError("lower envelope failed to terminate", u_lo, u_hi)


def table_row(u_lo, u_hi, v_lo, v_hi, p: Sequence[Poly], n: Sequence[Poly]) -> TableRow:
    """A printed row from Polys: its region between the walls v = v_lo(u)
    and v = v_hi(u), affine in u, and its P and N cells, affine in (u, v)."""
    return TableRow(poly_chamber(u_lo, u_hi, v_lo, v_hi), integer_rows(map(Poly.coerce, p), AFFINE, "affine"),
                    integer_rows(map(Poly.coerce, n), AFFINE, "affine"))


def row_cells(row: TableRow) -> tuple[list[Poly], list[Poly]]:
    """The P and N cells of a printed row as Polys."""
    (p, pden), (n, nden) = row.p, row.n
    return [affine_poly(f, pden) for f in p], [affine_poly(f, nden) for f in n]


def reference_check_row(scan: ChamberedDecomposition, row: TableRow) -> list[RowMismatch]:
    """`surfzar.row_mismatches` by Poly evaluation and Poly comparison."""
    out: list[RowMismatch] = []
    overlaps_found = False
    region = row.region
    row_p, row_n = row_cells(row)
    for ch in scan.chambers:
        u_lo, u_hi = max(region.u_lo, ch.chamber.u_lo), min(region.u_hi, ch.chamber.u_hi)
        if u_lo >= u_hi:
            continue
        crossings = [_affine_root(region.v_lo - ch.chamber.v_lo, u_lo, u_hi),
                     _affine_root(region.v_hi - ch.chamber.v_hi, u_lo, u_hi)]
        if not any(min(region.v_hi(u=u0), ch.chamber.v_hi(u=u0)) > max(region.v_lo(u=u0), ch.chamber.v_lo(u=u0))
                   for u0 in [u_lo, u_hi] + [x for x in crossings if x is not None]):
            continue
        overlaps_found = True
        n, p = n_coeffs(ch), p_coeffs(ch)
        for i in range(scan.model.n):
            for name, printed, recomputed in (("N", row_n[i], n[i]), ("P", row_p[i], p[i])):
                if printed != recomputed:
                    out.append(RowMismatch(name, scan.model.curve_names[i], str(printed), str(recomputed)))
    if not overlaps_found:
        out.append(RowMismatch("region", "-", f"v in [{region.v_lo}, {region.v_hi}]",
                               "row region lies outside the scanned decomposition"))
    return out


def _affine_root(fn: Poly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The root of the affine-in-u fn strictly between lo and hi, if any."""
    a, b = fn.coefficient((0, 0, 0)), fn.coefficient((1, 0, 0))
    if b != 0 and lo < -a / b < hi:
        return -a / b
    return None


# ---------------------------------------------------------------------------
# Fraction oracles of the integer linear algebra, the simplex, the pullback
# map and the polytope vertices
# ---------------------------------------------------------------------------


def fraction_pivot(m: list[list], row: int, col: int) -> None:
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


def fraction_rref(rows, n_cols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by Fraction Gauss-Jordan, pivoting only in
    the first n_cols columns: the reduced rows and the pivot columns.  The
    columns from n_cols on are right-hand sides and may hold Polys, to which
    only addition and scaling by Fractions apply."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        fraction_pivot(m, rank, col)
        pivots.append(col)
    return m, pivots


def fraction_solve(a, b) -> list:
    """The solution of the square system a*x = b by `fraction_rref`,
    ValueError if a is singular; b entries may be Fractions or Polys."""
    n = len(a)
    m, pivots = fraction_rref([list(row) + [rhs] for row, rhs in zip(a, b)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n] for row in m]


def fraction_solve_max(c, a, b) -> lp.LPResult:
    """`lp.solve_max` on a Fraction tableau: the two-phase simplex with
    Bland's rule, every pivot a `fraction_pivot`."""
    m, n = len(a), len(c)
    rows = [list(row) for row in a]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    tableau = [rows[i] + [Fraction(i == r) for r in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    value = _fraction_simplex(tableau, basis, [Fraction(0)] * n + [Fraction(-1)] * m)
    if value is None or value < 0:
        return lp.LPResult(lp.INFEASIBLE)
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                fraction_pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
    keep = [r for r in range(m) if basis[r] < n]
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    if _fraction_simplex(tableau, basis, list(c)) is None:
        return lp.LPResult(lp.UNBOUNDED)
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    return lp.LPResult(lp.OPTIMAL, x, sum(ci * xi for ci, xi in zip(c, x)), basis)


def _fraction_simplex(tableau, basis, cost):
    """Primal simplex with Bland's rule on a reduced Fraction tableau;
    returns the objective, or None if unbounded."""
    while True:
        y = [cost[var] for var in basis]
        entering = None
        for j in range(len(cost)):
            if j in basis:
                continue
            if cost[j] - sum(y[r] * tableau[r][j] for r in range(len(tableau))) > 0:
                entering = j
                break
        if entering is None:
            return sum(y[r] * tableau[r][-1] for r in range(len(tableau)))
        leaving = best = None
        for r in range(len(tableau)):
            if tableau[r][entering] > 0:
                ratio = tableau[r][-1] / tableau[r][entering]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best, leaving = ratio, r
        if leaving is None:
            return None
        fraction_pivot(tableau, leaving, entering)
        basis[leaving] = entering


def reference_cone_coordinates(vec, rays) -> list[Fraction] | None:
    """The coordinates of vec in the basis of three rays by a Fraction solve,
    if they are all >= 0; None if they are not or the rays are dependent."""
    try:
        coords = fraction_solve([[Fraction(rays[j][t]) for j in range(3)] for t in range(3)],
                                [Fraction(x) for x in vec])
    except ValueError:
        return None
    return coords if all(x >= 0 for x in coords) else None


def reference_pullback(fine: Fan3, coarse: Fan3, d: ToricDivisor) -> ToricDivisor:
    """`toric3.pullback` in Poly arithmetic, by solving for the support
    function's slope m on the first coarse cone holding each fine ray:
    <m, v_j> = -a_j."""
    a, coeffs = poly_coeffs(d), []
    for w in fine.rays:
        sigma = next(s for s in coarse.cones
                     if reference_cone_coordinates(w, [coarse.rays[j] for j in s]) is not None)
        m = fraction_solve([list(coarse.rays[j]) for j in sigma], [-a[j] for j in sigma])
        coeffs.append(-sum((m[t] * w[t] for t in range(3)), Poly()))
    return divisor(fine, coeffs)


# ---------------------------------------------------------------------------
# Poly oracles of the integer toric maps
# ---------------------------------------------------------------------------


def poly_curve_intersection(d: ToricDivisor, pair) -> Poly:
    """`toric3.curve_intersection` in Poly arithmetic: sum_r a_r T_r.T_i.T_j."""
    return sum((coeff * t for r, coeff in enumerate(poly_coeffs(d))
                if coeff.terms and (t := triple_product(d.fan, r, *pair))), Poly())


def poly_restrict_to_star(star: StarSurface, d: ToricDivisor) -> tuple[Poly, ...]:
    """`toric3.restrict_to_star` in Poly arithmetic: (a_r - a_0 * weights[k])
    * mults[k] for curve k, r = adjacent[k]."""
    a = poly_coeffs(d)
    a0 = a[star.ray_index]
    return tuple((a[r] - a0 * w) * mult for r, mult, w in zip(star.adjacent, star.mults, star.weights))


def poly_positive(iv: Zariski3Interval, l_u: Sequence[Poly]) -> tuple[Poly, ...]:
    """`Zariski3Interval.positive` in Poly arithmetic: L_u - N."""
    return tuple(x - n for x, n in zip(l_u, poly_coeffs(iv.negative), strict=True))


def reference_polytope_vertices(p: HPolytope) -> list[tuple[Fraction, Fraction, Fraction]]:
    """`HPolytope._vertices` by Fraction solves of every facet triple
    and Fraction feasibility tests."""
    n = len(p.normals)
    # Bounded iff the normals positively span R^3: their cone holds +-e_t.
    cols = [[Fraction(p.normals[j][t]) for j in range(n)] for t in range(3)]
    units = [[sign * (t == k) for t in range(3)] for k in range(3) for sign in (1, -1)]
    if any(fraction_solve_max([Fraction(0)] * n, cols, e).status != lp.OPTIMAL for e in units):
        raise ValueError("not a polytope")
    vertices = set()
    for trio in itertools.combinations(range(n), 3):
        try:
            x = fraction_solve([[Fraction(p.normals[i][t]) for t in range(3)] for i in trio],
                               [p.rhs[i] for i in trio])
        except ValueError:
            continue
        if all(sum(p.normals[i][t] * x[t] for t in range(3)) >= p.rhs[i] for i in range(n)):
            vertices.add(tuple(x))
    if not vertices:
        raise ValueError("empty polytope")
    return sorted(vertices)


def reference_nonneg_on_interval(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Whether p, read as a polynomial in u, is >= 0 on [lo, hi]: the Sturm chain of p
    itself counts the roots, bisection isolates them, and every sign is a
    Fraction evaluation of the chain.  The oracle of the integer-sign test in
    flagdelta where neither end is a root; with a root at an end it can
    answer wrongly or bisect until its guard raises."""
    coeffs = [p.coefficient((i, 0, 0)) for i in range(p.degree_in("u") + 1)]
    if len(coeffs) == 1:
        return coeffs[0] >= 0
    if _eval_dense(coeffs, lo) < 0 or _eval_dense(coeffs, hi) < 0:
        return False
    chain = [coeffs, [c * i for i, c in enumerate(coeffs)][1:]]
    while True:
        rem = [-c for c in _div_rem(chain[-2], chain[-1])]
        if rem == [0]:
            break
        chain.append(rem)
    checkpoints = [lo]
    for a, b in _reference_isolate(chain, lo, hi):
        checkpoints.extend([a, b])
    checkpoints.append(hi)
    if any(_eval_dense(coeffs, x) < 0 for x in checkpoints):
        return False
    return not any(x0 < x1 and _eval_dense(coeffs, (x0 + x1) / 2) < 0
                   for x0, x1 in zip(checkpoints, checkpoints[1:]))


def _eval_dense(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _div_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b) and any(x != 0 for x in a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i in range(len(b)):
            a[shift + i] -= factor * b[i]
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a if a else [Fraction(0)]


def _reference_sign_changes(chain, x: Fraction) -> int:
    signs = [v > 0 for v in (_eval_dense(poly, x) for poly in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_isolate(chain, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    intervals, out = [(lo, hi)], []
    for _ in range(10_000):
        if not intervals:
            return sorted(out)
        a, b = intervals.pop()
        count = _reference_sign_changes(chain, a) - _reference_sign_changes(chain, b)
        if count == 0:
            continue
        if count == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        while _eval_dense(chain[0], mid) == 0:
            out.append((mid, mid))
            mid += (b - a) / 7
            if not a < mid < b:
                break
        intervals.extend([(a, mid), (mid, b)])
    raise ScanError("root isolation failed to terminate", lo, hi)


def intersection_number(d1: ToricDivisor, d2: ToricDivisor, d3: ToricDivisor) -> Poly:
    """Trilinear extension of the invariant-divisor triple products, in Poly
    arithmetic: the oracle of the integer cube `toric3.divisor_cube`."""
    if not d1.fan == d2.fan == d3.fan:
        raise ValueError("different fans")
    s1, s2, s3 = ([(i, c) for i, c in enumerate(poly_coeffs(d)) if c.terms] for d in (d1, d2, d3))
    total = Poly()
    for i, ci in s1:
        for j, cj in s2:
            # sum_k T_ijk * d3_k, then one product with d1_i * d2_j.
            inner = sum((ck * t for k, ck in s3 if (t := triple_product(d1.fan, i, j, k))), Poly())
            total = total + ci * cj * inner
    return total


def _ccw_compare(a: Sequence[Fraction], b: Sequence[Fraction]) -> int:
    """Counterclockwise order of nonzero plane vectors from the positive
    x-axis, exactly; 0 for two vectors of one direction."""
    half_a, half_b = (0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1 for v in (a, b))
    cross = a[0] * b[1] - a[1] * b[0]
    return half_a - half_b or (cross < 0) - (cross > 0)


def surface_gram(rays: Sequence[tuple[int, int]]) -> list[list[Fraction]]:
    """Gram matrix of the invariant curves of the complete simplicial 2D fan
    whose cones join consecutive rays in counterclockwise order, from the
    plane's own character relations: the oracle of `StarSurface.gram`."""
    n = len(rays)
    order = sorted(range(n), key=functools.cmp_to_key(lambda i, j: _ccw_compare(rays[i], rays[j])))
    dets = {(i, j): rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0]
            for i, j in zip(order, order[1:] + order[:1])}
    if any(det <= 0 for det in dets.values()):
        raise ValueError("not complete")  # a gap of angle pi or more, or parallel rays
    gram = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), det in dets.items():
        gram[i][j] = gram[j][i] = Fraction(1, det)
    for i, w in enumerate(rays):
        m = (1, 0) if w[0] else (0, 1)
        gram[i][i] = -sum((m[0] * rays[j][0] + m[1] * rays[j][1]) * gram[i][j]
                          for j in range(n) if j != i) / (m[0] * w[0] + m[1] * w[1])
    return gram
