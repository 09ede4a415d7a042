"""Zariski decompositions on surfaces presented by a curve basis.

A surface model is a list of curve names plus the exact rational Gram matrix
of their intersection numbers, together with the declared assumption that
the curves generate the pseudoeffective cone (and hence span the numerical
lattice, so numerical relations among them are exactly the kernel of the
Gram matrix).  Fractional self-intersections are first-class: the models
here include singular del Pezzo surfaces and quotient toric surfaces.

Decomposition runs the classical iterative scheme: repeatedly add every
curve that meets the current candidate positive part negatively and solve
the Gram subsystem so the positive part becomes orthogonal to the support.
The result is order-independent; adding curves en bloc avoids order
questions.

Thresholds are an exact facet envelope, each piece proved on its whole
u-interval by an optimal basis of the exact threshold LP.  The chamber scan
finds the supports above one sample u, solves each support symbolically for
N and P as affine polynomials in (u, v), and proves the result on the whole
chamber: the Zariski conditions are affine, so corner checks, support-
orthogonality identities and a negative definite support block are a
complete certificate, and any failure exhibits an exact crossing point to
split at.  `zariski_decompose` is the pointwise reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg, lp
from .exactmath import Chamber, ChamberFunction, Poly, Scalar, integrate_chamber, q

Vec = tuple[Fraction, ...]


class NotPseudoeffectiveError(ValueError):
    pass


class ConeAssumptionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Surface models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceModel:
    """Curve basis with exact Gram matrix and the generation assumption."""

    curve_names: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    generates_pseff: bool = True

    def __init__(
        self,
        curve_names: Sequence[str],
        gram: Sequence[Sequence[Scalar]],
        generates_pseff: bool = True,
    ):
        names = tuple(curve_names)
        rows = tuple(tuple(q(x) for x in row) for row in gram)
        if len(rows) != len(names) or any(len(r) != len(names) for r in rows):
            raise ValueError("Gram matrix dimensions must match curve count")
        for i in range(len(rows)):
            for j in range(len(rows)):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "curve_names", names)
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "generates_pseff", bool(generates_pseff))
        # Nonzero (i, gram[i][j]) entries of each column j.
        object.__setattr__(self, "_columns", tuple(
            tuple((i, row[j]) for i, row in enumerate(rows) if row[j]) for j in range(len(rows))
        ))

    @property
    def n(self) -> int:
        return len(self.curve_names)

    def index(self, name: str) -> int:
        return self.curve_names.index(name)

    def relations(self) -> list[Vec]:
        """Numerical relations among the basis curves (Gram kernel)."""
        return self._cone[0]

    def facets(self) -> list[Vec]:
        """Linear functionals cutting out the effective cone.

        Each facet h acts on a coefficient vector x as sum_i h_i x_i; the
        class of x is pseudoeffective iff every facet value is >= 0.
        """
        return self._cone[1]

    @cached_property
    def _threshold_lps(self) -> dict[Vec, "_ThresholdLP"]:
        """Threshold LP per curve vector (see `_threshold_lp`)."""
        return {}

    @cached_property
    def _cone(self) -> tuple[list[Vec], list[Vec]]:
        relations = [tuple(v) for v in linalg.nullspace([list(r) for r in self.gram])]
        return relations, _effective_cone_facets(self, relations)

    def pair(self, x: Sequence[Poly | Scalar], y: Sequence[Poly | Scalar]) -> Poly:
        """Intersection number of two classes given by coefficient vectors."""
        out: dict = {}
        for j in range(self.n):
            for e, c in (self.dot_curve(x, j) * y[j]).terms.items():
                out[e] = out[e] + c if e in out else c
        return Poly._make(out)

    def dot_curve(self, x: Sequence[Poly | Scalar], j: int) -> Poly:
        """Intersection of a class with basis curve j."""
        out: dict = {}
        for i, g in self._columns[j]:
            xi = x[i]
            for e, c in xi.terms.items() if isinstance(xi, Poly) else (((0, 0, 0), q(xi)),):
                out[e] = out[e] + c * g if e in out else c * g
        return Poly._make(out)

    def _dot(self, x: Sequence[Fraction], j: int) -> Fraction:
        """`dot_curve` for a rational coefficient vector."""
        return sum((x[i] * g for i, g in self._columns[j]), Fraction(0))


def _effective_cone_facets(model: SurfaceModel, relations: list[Vec]) -> list[Vec]:
    """Facet functionals of the cone spanned by the basis curve classes.

    Classes are coordinatized by their intersection vector against a maximal
    independent subset of the curves; the facets of the finitely generated
    cone are enumerated from (d-1)-subsets of the generators.  The returned
    functionals act directly on coefficient vectors.
    """
    n = model.n
    gram_rows = [list(r) for r in model.gram]
    pivot_rows = linalg.column_space_basis(gram_rows)  # symmetric matrix
    d = len(pivot_rows)
    gens = [
        tuple(model.gram[r][i] for r in pivot_rows) for i in range(n)
    ]  # generator i in quotient coordinates
    normals: set[Vec] = set()
    if d == 1:
        if all(g[0] >= 0 for g in gens):
            normals.add((Fraction(1),))
        if all(g[0] <= 0 for g in gens):
            normals.add((Fraction(-1),))
    else:
        for subset in itertools.combinations(range(n), d - 1):
            rows = [list(gens[i]) for i in subset]
            kernel = linalg.nullspace(rows)
            if len(kernel) != 1:
                continue
            normal = kernel[0]
            vals = [sum(normal[t] * g[t] for t in range(d)) for g in gens]
            if all(v >= 0 for v in vals):
                normals.add(_canon(normal))
            elif all(v <= 0 for v in vals):
                normals.add(_canon([-x for x in normal]))
    # Express each facet as a functional on coefficient vectors.
    facets = []
    for normal in sorted(normals):
        facets.append(
            tuple(
                sum(normal[t] * gens[i][t] for t in range(len(normal)))
                for i in range(n)
            )
        )
    return facets


def _canon(vec: Sequence[Fraction]) -> Vec:
    scale = None
    for x in vec:
        if x != 0:
            scale = 1 / abs(x)
            break
    if scale is None:
        return tuple(vec)
    return tuple(x * scale for x in vec)


@dataclass(frozen=True)
class SurfDivisor:
    model: SurfaceModel
    coeffs: tuple[Poly, ...]

    def __init__(self, model: SurfaceModel, coeffs: Sequence[Poly | Scalar]):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "coeffs", tuple(Poly.coerce(x) for x in coeffs))
        if len(self.coeffs) != model.n:
            raise ValueError("coefficient list length must match curve count")


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: SurfDivisor
    negative: SurfDivisor
    support: tuple[int, ...]

    def validate(self) -> list[str]:
        problems = []
        model = self.positive.model
        d = [p + n for p, n in zip(self.positive.coeffs, self.negative.coeffs)]
        for j in self.support:
            if self.negative.coeffs[j].as_fraction() < 0:
                problems.append(f"negative coefficient at {model.curve_names[j]}")
        for j in range(model.n):
            val = model.dot_curve(self.positive.coeffs, j).as_fraction()
            if j in self.support and val != 0:
                problems.append(f"P.{model.curve_names[j]} = {val} != 0 on support")
            if val < 0:
                problems.append(f"P.{model.curve_names[j]} = {val} < 0")
        sub = [[model.gram[i][j] for j in self.support] for i in self.support]
        if self.support and not linalg.is_negative_definite(sub):
            problems.append("support Gram block not negative definite")
        return problems


# ---------------------------------------------------------------------------
# Pseudoeffectivity (exact LP) and decomposition
# ---------------------------------------------------------------------------


def is_pseudoeffective(model: SurfaceModel, coeffs: Sequence[Poly | Scalar]) -> bool:
    vec = [Poly.coerce(x).as_fraction() for x in coeffs]
    return all(
        sum(h[i] * vec[i] for i in range(model.n)) >= 0 for h in model.facets()
    )


def pseff_threshold(
    model: SurfaceModel, d: SurfDivisor, curve: int | Sequence[Scalar]
) -> Fraction:
    """Largest v such that D - v*C stays in the span of the basis curves.

    Exact rational LP: maximize v subject to
        D - v*C + (relation combination) = e,  e >= 0.
    """
    threshold_lp = _threshold_lp(model, _curve_vector(model, curve))
    return threshold_lp.solve([x.as_fraction() for x in d.coeffs]).value


@dataclass
class _ThresholdLP:
    """max v over v, lam+ (k), lam- (k), e (n) >= 0, one row per curve j:
    v*C_j - R_j.lam+ + R_j.lam- + e_j = D_j, with R the k relations.  Only D
    depends on the divisor.  ``bases`` holds (B^-1, c_B.B^-1) for each basis
    B proved dual feasible, hence optimal for every D with B^-1.D >= 0."""

    rows: list[list[Fraction]]
    bases: list[tuple[list[list[Fraction]], list[Fraction]]] = field(default_factory=list)

    def solve(self, dvec: Sequence[Fraction]) -> lp.LPResult:
        objective = [Fraction(1)] + [Fraction(0)] * (len(self.rows[0]) - 1)
        result = lp.solve_max(objective, self.rows, dvec)
        if result.status == lp.INFEASIBLE:
            raise NotPseudoeffectiveError("not pseudoeffective")
        if result.status == lp.UNBOUNDED:
            raise ValueError("threshold unbounded")
        return result

    def prove(self, basis: list[int]) -> tuple[list[list[Fraction]], list[Fraction]]:
        """Store the basis B once every reduced cost c_j - c_B.B^-1.A_j <= 0."""
        m = len(self.rows)
        reduced, pivots = linalg.rref([[row[j] for j in basis] + [Fraction(i == r) for i in range(m)]
                                       for r, row in enumerate(self.rows)], len(basis))
        if len(basis) != m or len(pivots) < m:
            raise AssertionError(f"LP basis {basis} is not a basis")
        inverse = [row[m:] for row in reduced]
        dual = inverse[basis.index(0)] if 0 in basis else [Fraction(0)] * m
        for j in range(len(self.rows[0])):
            reduced_cost = (j == 0) - _dot(dual, [row[j] for row in self.rows])
            if reduced_cost > 0:
                raise AssertionError(f"LP basis {basis} is not optimal at column {j}")
        self.bases.append((inverse, dual))
        return inverse, dual


def _threshold_lp(model: SurfaceModel, cvec: Vec) -> _ThresholdLP:
    """The threshold LP of (model, cvec), built once and kept on the model."""
    if not model.generates_pseff:
        raise ConeAssumptionError("cone assumption violated")
    if cvec not in model._threshold_lps:
        relations = model.relations()
        n = model.n
        rows = [[cvec[j]] + [-rel[j] for rel in relations] + [rel[j] for rel in relations]
                + [Fraction(i == j) for i in range(n)] for j in range(n)]
        model._threshold_lps[cvec] = _ThresholdLP(rows)
    return model._threshold_lps[cvec]


def _curve_vector(model: SurfaceModel, curve: int | Sequence[Scalar]) -> Vec:
    if isinstance(curve, int):
        vec = [Fraction(0)] * model.n
        vec[curve] = Fraction(1)
        return tuple(vec)
    return tuple(q(x) for x in curve)


def zariski_decompose(model: SurfaceModel, d: SurfDivisor) -> ZariskiDecomposition:
    """Zariski decomposition of a rational-coefficient divisor class."""
    if not model.generates_pseff:
        raise ConeAssumptionError("cone assumption violated")
    coeffs = [x.as_fraction() for x in d.coeffs]
    if not is_pseudoeffective(model, coeffs):
        raise NotPseudoeffectiveError("divisor not pseudoeffective in model")
    support, n_vals = _expand_support(model, coeffs, _sign, model._dot)
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


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _expand_support(model: SurfaceModel, coeffs: Sequence, sign, dot) -> tuple[list[int], list]:
    """Support-growing decomposition loop.

    Runs on rational coefficients with ``dot = model._dot`` and on symbolic
    ones with ``dot = model.dot_curve``.  ``sign`` maps an intersection
    value to its sign at the evaluation point; using one-sided signs lets
    the same loop compute the support valid just beyond a chamber boundary.
    Returns (support, negative coefficients on the support).
    """
    support: list[int] = []
    n_vals: list[Poly] = []
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
            n_vals = linalg.solve(sub, rhs)
        except ValueError as exc:
            raise ConeAssumptionError("cone assumption violated") from exc
    raise ConeAssumptionError("decomposition failed to stabilize")


# ---------------------------------------------------------------------------
# Pseudoeffective threshold as a function of u (exact lower envelope)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPiece:
    u_lo: Fraction
    u_hi: Fraction
    t: Poly  # affine in u


def threshold_pieces(
    model: SurfaceModel,
    base: Sequence[Poly],
    curve: Sequence[Scalar] | int,
    u_lo: Scalar,
    u_hi: Scalar,
) -> list[ThresholdPiece]:
    """t(u) for the family base(u) - v*C as exact affine pieces.

    Every effective-cone facet h with h(C) > 0 bounds v by the affine
    function h(base(u)) / h(C); t is their lower envelope, computed exactly.
    Facets with h(C) <= 0 never bound v from above; h(C) = 0 facets must stay
    nonnegative on the base family (affine: both ends suffice) or the
    family leaves the cone.  Each piece is proved to be the LP threshold on
    its whole interval by basis stability (parametric LP): the right-hand side
    base(u) is affine, so an optimal basis B kept on the model stays optimal
    where B^-1.base(u) >= 0 at both ends, and there c_B.B^-1.base(u) must be t.
    Else one cold solve at the midpoint gives B, split where it turns infeasible.
    """
    u_lo, u_hi = q(u_lo), q(u_hi)
    base = [Poly.coerce(b) for b in base]
    cvec = _curve_vector(model, curve)
    lines: list[Poly] = []
    for h in model.facets():
        hc = sum(h[i] * cvec[i] for i in range(model.n))
        terms: dict = {}
        for hi, b in zip(h, base):
            if hi:
                for e, c in b.terms.items():
                    terms[e] = terms[e] + c * hi if e in terms else c * hi
        hb = Poly._make(terms)
        if hb.total_degree() > 1 or hb.degree_in("v") or hb.degree_in("c"):
            raise ValueError("base family must be affine in u")
        if hc > 0:
            lines.append(hb / hc)
        elif hc == 0:
            for u0 in (u_lo, u_hi):
                if hb(u=u0) < 0:
                    raise NotPseudoeffectiveError(
                        f"base family leaves the effective cone at u={u0}"
                    )
    if not lines:
        raise ValueError("threshold unbounded")
    pieces = _lower_envelope(lines, u_lo, u_hi)
    threshold_lp = _threshold_lp(model, cvec)
    for piece in pieces:
        _certify_piece(threshold_lp, base, piece.t, piece.u_lo, piece.u_hi)
    return pieces


def _certify_piece(threshold_lp: _ThresholdLP, base: Sequence[Poly], t: Poly,
                   lo: Fraction, hi: Fraction, depth: int = 0) -> None:
    """Prove that t is the LP threshold of base(u) on all of [lo, hi]."""
    if depth > 24:
        raise RuntimeError("threshold certificate failed to stabilize")
    ends = [[b(u=u0) for b in base] for u0 in (lo, hi)]
    for inverse, dual in threshold_lp.bases:
        if all(_dot(row, end) >= 0 for end in ends for row in inverse):
            break
    else:
        mid = (lo + hi) / 2
        inverse, dual = threshold_lp.prove(threshold_lp.solve([b(u=mid) for b in base]).basis)
        for row in inverse:
            x_lo, x_hi = _dot(row, ends[0]), _dot(row, ends[1])
            if x_lo < 0 or x_hi < 0:
                # This basic variable is >= 0 at mid and reaches 0 at `at`.
                at = lo + (hi - lo) * x_lo / (x_lo - x_hi)
                _certify_piece(threshold_lp, base, t, lo, at, depth + 1)
                _certify_piece(threshold_lp, base, t, at, hi, depth + 1)
                return
    value = sum((b * y for b, y in zip(base, dual) if y), Poly())
    if value != t:
        raise AssertionError(f"threshold mismatch on [{lo}, {hi}]: envelope {t}, LP {value}")


def _dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(x, y) if a), Fraction(0))


def _lower_envelope(lines: Sequence[Poly], u_lo: Fraction, u_hi: Fraction) -> list[ThresholdPiece]:
    def slope(line: Poly) -> Fraction:
        return line.coefficient((1, 0, 0))

    pieces: list[ThresholdPiece] = []
    cur = u_lo
    guard = 0
    while True:
        guard += 1
        if guard > 100:
            raise RuntimeError("lower envelope failed to terminate")
        vmin = min(l(u=cur) for l in lines)
        active = min(
            (l for l in lines if l(u=cur) == vmin), key=slope
        )
        if cur >= u_hi:
            if not pieces:
                pieces.append(ThresholdPiece(u_lo, u_hi, active))
            break
        nxt = u_hi
        for line in lines:
            if line == active:
                continue
            ds = slope(line) - slope(active)
            if ds >= 0:
                continue
            # line falls below active at the crossing.
            cross = (active(u=0) - line(u=0)) / ds
            if cur < cross < nxt:
                nxt = cross
        pieces.append(ThresholdPiece(cur, nxt, active))
        if nxt >= u_hi:
            break
        cur = nxt
    return pieces


# ---------------------------------------------------------------------------
# Chamber scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanChamber:
    chamber: Chamber
    support: tuple[int, ...]
    n_coeffs: tuple[Poly, ...]  # affine in (u, v)
    p_coeffs: tuple[Poly, ...]


@dataclass(frozen=True)
class ChamberedDecomposition:
    model: SurfaceModel
    curve: Vec
    u_lo: Fraction
    u_hi: Fraction
    threshold: tuple[ThresholdPiece, ...]
    chambers: tuple[ScanChamber, ...]

    @cached_property
    def curve_terms(self) -> tuple[tuple[Poly, Fraction], ...]:
        """(P.C, iint (P.C)^2) per chamber, C = ``curve``: the part of a flag's
        point S-invariants that is the same for every point, computed once."""
        p_dots = [self.model.pair(ch.p_coeffs, self.curve) for ch in self.chambers]
        return tuple((p, integrate_chamber(p * p, ch.chamber)) for p, ch in zip(p_dots, self.chambers))

    def p_squared(self) -> ChamberFunction:
        return ChamberFunction(
            (ch.chamber, self.model.pair(ch.p_coeffs, ch.p_coeffs))
            for ch in self.chambers
        )


def chamber_scan(
    model: SurfaceModel,
    base: Sequence[Poly | Scalar],
    curve: Sequence[Scalar] | int,
    u_lo: Scalar,
    u_hi: Scalar,
) -> ChamberedDecomposition:
    """Chamber decomposition of the family base(u) - v*C over [u_lo, u_hi].

    The v-range for each u is [0, t(u)] with t the pseudoeffective
    threshold.  Chambers are maximal regions of constant negative support;
    their boundaries are exact affine loci where either a negative
    coefficient or an excluded-curve intersection vanishes.
    """
    u_lo, u_hi = q(u_lo), q(u_hi)
    base = [Poly.coerce(b) for b in base]
    for b in base:
        if b.total_degree() > 1 or b.degree_in("v") or b.degree_in("c"):
            raise ValueError("family coefficients must be affine in u")
    cvec = _curve_vector(model, curve)
    family = [base[i] - Poly.var("v") * cvec[i] for i in range(model.n)]

    chambers: list[ScanChamber] = []
    tpieces = threshold_pieces(model, base, curve, u_lo, u_hi)
    for piece in tpieces:
        chambers.extend(_scan_threshold_piece(model, family, piece))
    return ChamberedDecomposition(
        model=model,
        curve=cvec,
        u_lo=u_lo,
        u_hi=u_hi,
        threshold=tuple(tpieces),
        chambers=tuple(chambers),
    )


def _scan_threshold_piece(
    model: SurfaceModel,
    family: Sequence[Poly],
    piece: ThresholdPiece,
    depth: int = 0,
) -> list[ScanChamber]:
    if depth > 24:
        raise RuntimeError("chamber scan failed to stabilize")
    for sample_frac in (Fraction(1, 2), Fraction(2, 5), Fraction(3, 5), Fraction(3, 7)):
        u0 = piece.u_lo + (piece.u_hi - piece.u_lo) * sample_frac
        try:
            stack = _column_structure(model, family, piece, u0)
            break
        except _ResampleNeeded:
            continue
    else:
        raise RuntimeError("could not find a generic u sample for the scan")

    try:
        return _certify_columns(model, piece, stack)
    except _SplitNeeded as split:
        at = split.at
        if not (piece.u_lo < at < piece.u_hi):
            raise RuntimeError(f"invalid split point u={at}") from None
        left = ThresholdPiece(piece.u_lo, at, piece.t)
        right = ThresholdPiece(at, piece.u_hi, piece.t)
        return _scan_threshold_piece(model, family, left, depth + 1) + (
            _scan_threshold_piece(model, family, right, depth + 1)
        )


class _ResampleNeeded(Exception):
    pass


class _SplitNeeded(Exception):
    def __init__(self, at: Fraction):
        self.at = at


@dataclass
class _Column:
    support: tuple[int, ...]
    lower: Poly  # affine in u
    n_sym: tuple[Poly, ...]
    p_sym: tuple[Poly, ...]


def _column_structure(
    model: SurfaceModel, family: Sequence[Poly], piece: ThresholdPiece, u0: Fraction
) -> list[_Column]:
    """The stack of constant-support chambers above one generic u sample.

    Walks v upward from 0; at each boundary the support just beyond is
    computed with one-sided signs, the symbolic decomposition for that
    support determines the next boundary exactly, and the boundary's defining
    affine function is solved for v as an affine function of u.
    """
    t_at = piece.t(u=u0)
    fam_u0 = [f.subs(u=u0) for f in family]  # affine in v
    columns: list[_Column] = []
    v_cur = Fraction(0)
    lower_poly = Poly.const(0)
    guard = 0
    while True:
        guard += 1
        if guard > 60:
            raise RuntimeError("v-scan failed to terminate")
        support, _ = _expand_support(model, fam_u0, _sign_at_plus(v_cur), model.dot_curve)
        support = tuple(sorted(support))
        n_sym, p_sym = _symbolic_decomposition(model, family, support)
        # Next event: a support coefficient vanishing or an excluded-curve
        # intersection vanishing, whichever comes first along v at u0.
        events: list[tuple[Fraction, Poly]] = []
        for j, nj in zip(support, n_sym):
            _collect_event(nj, u0, v_cur, events)
        for k in range(model.n):
            if k not in support:
                _collect_event(model.dot_curve(p_sym, k), u0, v_cur, events)
        v_next = t_at
        boundary_fn: Poly | None = None
        for root, fn in events:
            if root < v_next:
                v_next, boundary_fn = root, fn
        columns.append(
            _Column(support=support, lower=lower_poly, n_sym=n_sym, p_sym=p_sym)
        )
        if boundary_fn is None:
            return columns
        lower_poly = _solve_boundary_for_v(boundary_fn, u0)
        v_cur = v_next
        if v_cur >= t_at:
            return columns


def _collect_event(
    fn: Poly, u0: Fraction, v_cur: Fraction, events: list[tuple[Fraction, Poly]]
) -> None:
    """Record where the affine-in-(u,v) function fn crosses zero from above
    along increasing v at u = u0."""
    at_u0 = fn.subs(u=u0)
    a = at_u0.coefficient((0, 0, 0))
    b = at_u0.coefficient((0, 1, 0))
    if b >= 0:
        return
    root = -a / b
    if root > v_cur:
        events.append((root, fn))


def _sign_at_plus(v0: Fraction):
    def sign(value: Poly) -> int:
        if any(e != (0, 0, 0) and e != (0, 1, 0) for e in value.terms):
            raise ValueError(f"not affine in v: {value}")
        b = value.coefficient((0, 1, 0))
        return _sign(value.coefficient((0, 0, 0)) + b * v0) or _sign(b)

    return sign


def _symbolic_decomposition(
    model: SurfaceModel, family: Sequence[Poly], support: tuple[int, ...]
) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """Exact N and P coefficient polynomials for one fixed support."""
    if support:
        sub = [[model.gram[i][j] for j in support] for i in support]
        rhs = [model.dot_curve(family, i) for i in support]
        try:
            n_vals = linalg.solve(sub, rhs)
        except ValueError as exc:
            raise ConeAssumptionError("cone assumption violated") from exc
    else:
        n_vals = []
    n_sym = [Poly() for _ in range(model.n)]
    for j, val in zip(support, n_vals):
        n_sym[j] = val
    p_sym = [family[i] - n_sym[i] for i in range(model.n)]
    return tuple(n_sym), tuple(p_sym)


def _solve_boundary_for_v(fn: Poly, u0: Fraction) -> Poly:
    """Solve the affine locus fn(u, v) = 0 for v as an affine poly in u."""
    gamma_v = fn.coefficient((0, 1, 0))
    if gamma_v == 0:
        raise _ResampleNeeded()
    rest = fn - Poly.var("v") * gamma_v
    return -rest / gamma_v


def _certify_columns(
    model: SurfaceModel, piece: ThresholdPiece, columns: list[_Column]
) -> list[ScanChamber]:
    """Prove the sampled column structure over the whole u-interval.

    This symbolic certificate is the proof of every chamber.  All
    decomposition data is affine and each chamber is convex with affine
    walls, so the Zariski conditions reduce to the ordering of the boundary
    lines, N_j >= 0 and P.C_k >= 0 (k off the support) at the corners,
    P.C_j = 0 on the support as a polynomial identity, and a negative
    definite support Gram block.  Since the curves generate the
    pseudoeffective cone, P is then nef and (P, N) is the unique Zariski
    decomposition at every point of the chamber.  Any violated affine
    condition has an exact root in u, which is raised as a split point.
    """
    bounds: list[Poly] = [col.lower for col in columns] + [piece.t]
    # Boundary ordering across the interval (affine: endpoints suffice).
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        gap = hi - lo
        g_lo, g_hi = gap(u=piece.u_lo), gap(u=piece.u_hi)
        if g_lo < 0 or g_hi < 0:
            cross = _affine_root(gap, piece.u_lo, piece.u_hi)
            if cross is not None:
                raise _SplitNeeded(cross)
            raise RuntimeError("inconsistent chamber boundaries")

    out: list[ScanChamber] = []
    for idx, col in enumerate(columns):
        lo, hi = bounds[idx], bounds[idx + 1]
        gap = hi - lo
        if gap.is_zero():
            continue
        chamber = Chamber(piece.u_lo, piece.u_hi, lo, hi)
        # Zariski conditions on the chamber, checked at the corners.
        for j, nj in zip(col.support, [col.n_sym[j] for j in col.support]):
            for u0, v0 in chamber.corners():
                if nj(u=u0, v=v0) < 0:
                    split = _corner_failure_split(nj, lo, hi, piece)
                    if split is not None:
                        raise _SplitNeeded(split)
                    raise RuntimeError("negative support coefficient in chamber")
        for k in range(model.n):
            val = model.dot_curve(col.p_sym, k)
            if k in col.support:
                if not val.is_zero():
                    raise RuntimeError("support orthogonality failed symbolically")
                continue
            for u0, v0 in chamber.corners():
                if val(u=u0, v=v0) < 0:
                    split = _corner_failure_split(val, lo, hi, piece)
                    if split is not None:
                        raise _SplitNeeded(split)
                    raise RuntimeError("nef condition failed inside chamber")
        sub = [[model.gram[i][j] for j in col.support] for i in col.support]
        if col.support and not linalg.is_negative_definite(sub):
            raise ConeAssumptionError("cone assumption violated")
        out.append(
            ScanChamber(
                chamber=chamber,
                support=col.support,
                n_coeffs=tuple(col.n_sym),
                p_coeffs=tuple(col.p_sym),
            )
        )
    return out


def _affine_root(fn: Poly, lo: Fraction, hi: Fraction) -> Fraction | None:
    a = fn.coefficient((0, 0, 0))
    b = fn.coefficient((1, 0, 0))
    if b == 0:
        return None
    root = -a / b
    return root if lo < root < hi else None


def _corner_failure_split(
    fn: Poly, lo: Poly, hi: Poly, piece: ThresholdPiece
) -> Fraction | None:
    for bound in (lo, hi):
        along = fn.subs(v=bound)
        root = _affine_root(along, piece.u_lo, piece.u_hi)
        if root is not None:
            return root
    return None


# ---------------------------------------------------------------------------
# Table verification
# ---------------------------------------------------------------------------


@dataclass
class RowMismatch:
    row_key: tuple[str, str]  # (u-interval, v-interval) as printed
    field: str  # "P", "N" or "region"
    curve: str
    printed: str
    recomputed: str


@dataclass
class TableReport:
    table_id: str
    accepted: bool
    mismatches: list[RowMismatch] = field(default_factory=list)
    rows_checked: int = 0


@dataclass(frozen=True)
class TableRow:
    u_lo: Fraction
    u_hi: Fraction
    v_lo: Poly
    v_hi: Poly
    p: tuple[Poly, ...]
    n: tuple[Poly, ...]

    def key(self) -> tuple[str, str]:
        return (f"[{self.u_lo},{self.u_hi}]", f"[{self.v_lo},{self.v_hi}]")


def verify_surface_table(
    scan: ChamberedDecomposition,
    rows: Sequence[TableRow],
    table_id: str,
) -> TableReport:
    """Compare printed chamber rows against the recomputed decomposition.

    Recomputation is authoritative: a row is accepted iff on its whole region
    the recomputed chamber structure matches the printed region, P and N
    exactly.  Mismatched cells are reported with the recomputed truth.
    """
    report = TableReport(table_id=table_id, accepted=True)
    for row in rows:
        report.rows_checked += 1
        for mismatch in _check_row(scan, row):
            report.mismatches.append(mismatch)
            report.accepted = False
    return report


def _check_row(scan: ChamberedDecomposition, row: TableRow) -> list[RowMismatch]:
    model = scan.model
    out: list[RowMismatch] = []
    overlaps_found = False
    for ch in scan.chambers:
        u_lo = max(row.u_lo, ch.chamber.u_lo)
        u_hi = min(row.u_hi, ch.chamber.u_hi)
        if u_lo >= u_hi:
            continue
        # The v-overlap min(v_hi) - max(v_lo) is concave and piecewise affine
        # in u, so it is positive somewhere on the common interval iff it is
        # positive at an end or where the two lower or two upper bounds cross.
        crossings = (_affine_root(row.v_lo - ch.chamber.v_lo, u_lo, u_hi),
                     _affine_root(row.v_hi - ch.chamber.v_hi, u_lo, u_hi))
        if not any(
            min(row.v_hi(u=u0), ch.chamber.v_hi(u=u0))
            > max(row.v_lo(u=u0), ch.chamber.v_lo(u=u0))
            for u0 in (u_lo, u_hi, *(x for x in crossings if x is not None))
        ):
            continue
        overlaps_found = True
        for i in range(model.n):
            for name, printed, recomputed in (("N", row.n[i], ch.n_coeffs[i]),
                                              ("P", row.p[i], ch.p_coeffs[i])):
                if printed != recomputed:
                    out.append(RowMismatch(row_key=row.key(), field=name, curve=model.curve_names[i],
                                           printed=str(printed), recomputed=str(recomputed)))
    if not overlaps_found:
        out.append(
            RowMismatch(
                row_key=row.key(),
                field="region",
                curve="-",
                printed=f"v in [{row.v_lo}, {row.v_hi}]",
                recomputed="row region lies outside the scanned decomposition",
            )
        )
    return out
