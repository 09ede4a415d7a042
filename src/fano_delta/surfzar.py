"""Zariski decompositions on surfaces presented by a curve basis.

A surface model is a list of curve names plus the exact rational Gram matrix
of their intersection numbers; the curves are assumed to generate the
pseudoeffective cone (and hence span the numerical lattice, so numerical
relations among them are exactly the kernel of the Gram matrix).
Fractional self-intersections are first-class: the models here include
singular del Pezzo surfaces and quotient toric surfaces.

The threshold t(u) is the exact threshold LP, walked parametrically over its
bases, with no facet envelope: an optimal basis gives t on the interval where
its basic variables stay >= 0, certified by its reduced costs and their
signs at both ends.  The chamber scan finds the supports above one sample u
by the classical iterative scheme (add every curve that meets the candidate
positive part negatively, en bloc, and make the positive part orthogonal to
the support), solves each support for N and P as affine functions of (u, v),
and proves the result on the whole chamber: the Zariski conditions are
affine, so corner checks, support-orthogonality identities and a negative
definite support block are a complete certificate, and any failure exhibits
an exact crossing point to split at.  A printed table row, a `TableRow` of
integers (its region a `Chamber`, its P and N cells integer forms over a
den), is checked against the scan one row at a time (`row_mismatches`), and
a printed threshold cell is a `ThresholdPiece`.  The threshold walk, the scan
and the row check run on integer numerators over one denominator per
support, with each support's Gram block inverted once per model; thresholds
and chamber walls are integer walls v = (a + b*u)/d, and every sign, gap,
root and corner test of a form or wall is exactmath's (`at`, `negative_end`,
`gap`, `root_inside`, `Chamber.nonnegative`, `Chamber.crossing`); the text
of t, a wall or a mismatched cell is `form_text` of its form.  The Poly
reference decomposition, facet envelope, pairing and N and P are test code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg, lp
from .exactmath import (Chamber, Form, Scalar, at, combine, form_text, gap, least, lowest, negative_end,
                        numerators, q, root_inside)

Vec = tuple[Fraction, ...]


class NotPseudoeffectiveError(ValueError):
    pass


class ConeAssumptionError(ValueError):
    pass


class ScanError(RuntimeError):
    """A chamber scan or threshold certificate that cannot be completed:
    ``reason``, the u-interval it was working on and its split depth."""

    def __init__(self, reason: str, u_lo: Fraction, u_hi: Fraction, depth: int | None = None):
        where = f"u in [{u_lo}, {u_hi}]" + ("" if depth is None else f", depth {depth}")
        super().__init__(f"{reason} ({where})")
        self.reason, self.u_lo, self.u_hi, self.depth = reason, u_lo, u_hi, depth


# ---------------------------------------------------------------------------
# Surface models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceModel:
    """Curve basis with exact Gram matrix, generating the pseudoeffective cone."""

    curve_names: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, curve_names: Sequence[str], gram: Sequence[Sequence[Scalar]]):
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
        # The nonzero (i, gram[i][j]) of each column j, scaled by the Gram
        # denominator to integers; column j is row j, the matrix being symmetric.
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        object.__setattr__(self, "_gram_scale", scale)
        object.__setattr__(self, "_int_columns", tuple(
            tuple((i, g.numerator * (scale // g.denominator)) for i, g in enumerate(row) if g) for row in rows
        ))

    @property
    def n(self) -> int:
        return len(self.curve_names)

    @cached_property
    def relations(self) -> list[Vec]:
        """Numerical relations among the basis curves (Gram kernel)."""
        return [tuple(v) for v in linalg.nullspace([list(r) for r in self.gram])]

    @cached_property
    def _threshold_lps(self) -> dict[Vec, "_ThresholdLP"]:
        """Threshold LP per curve vector (see `_threshold_lp`)."""
        return {}

    @cached_property
    def _support_blocks(self) -> dict[tuple[int, ...], "_SupportBlock"]:
        """Inverted Gram block per support (see `_support_block`)."""
        return {}


# ---------------------------------------------------------------------------
# Pseudoeffective threshold (exact LP)
# ---------------------------------------------------------------------------


@dataclass
class _ThresholdLP:
    """max v over v, lam+ (k), lam- (k), e (n) >= 0, one row per curve j:
    v*C_j - R_j.lam+ + R_j.lam- + e_j = D_j, with R the k relations.  Only D
    depends on the divisor.  ``bases`` holds (B^-1, c_B.B^-1, den), both as
    integer rows over the positive ``den``, for each basis B proved dual
    feasible, hence optimal for every D with B^-1.D >= 0."""

    rows: list[list[Fraction]]
    bases: list[tuple[list[list[int]], list[int], int]] = field(default_factory=list)

    def solve(self, dvec: Sequence[Fraction], where: str = "") -> lp.LPResult:
        objective = [Fraction(1)] + [Fraction(0)] * (len(self.rows[0]) - 1)
        result = lp.solve_max(objective, self.rows, dvec)
        if result.status == lp.INFEASIBLE:
            raise NotPseudoeffectiveError(f"not pseudoeffective{where}")
        if result.status == lp.UNBOUNDED:
            raise ValueError("threshold unbounded")
        return result

    def prove(self, basis: list[int]) -> tuple[list[list[int]], list[int], int]:
        """Store the basis B once every reduced cost c_j - c_B.B^-1.A_j <= 0."""
        m = len(self.rows)
        found = linalg.inverse([[row[j] for j in basis] for row in self.rows]) if len(basis) == m else None
        if found is None:
            raise AssertionError(f"LP basis {basis} is not a basis")
        inverse, den = found
        dual = inverse[basis.index(0)] if 0 in basis else [0] * m
        for j in range(len(self.rows[0])):
            if (j == 0) * den - _dot(dual, [row[j] for row in self.rows]) > 0:
                raise AssertionError(f"LP basis {basis} is not optimal at column {j}")
        self.bases.append((inverse, dual, den))
        return inverse, dual, den


def _threshold_lp(model: SurfaceModel, cvec: Vec) -> _ThresholdLP:
    """The threshold LP of (model, cvec), built once and kept on the model."""
    if cvec not in model._threshold_lps:
        relations = model.relations
        n = model.n
        rows = [[cvec[j]] + [-rel[j] for rel in relations] + [rel[j] for rel in relations]
                + [Fraction(i == j) for i in range(n)] for j in range(n)]
        model._threshold_lps[cvec] = _ThresholdLP(rows)
    return model._threshold_lps[cvec]


def _dot(x: Sequence, y: Sequence):
    return sum(a * b for a, b in zip(x, y) if a)


# ---------------------------------------------------------------------------
# Pseudoeffective threshold as a function of u (parametric LP)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPiece:
    u_lo: Fraction
    u_hi: Fraction
    wall: Form  # t(u) = (a + b*u)/d, in lowest terms

    @cached_property
    def t(self) -> str:
        return form_text(self.wall[:2], self.wall[2])


def _threshold_pieces(family: "_Family", u_lo: Fraction, u_hi: Fraction) -> list[ThresholdPiece]:
    """t(u) for the family base(u) - v*C as exact affine pieces, by a walk over
    the bases of the threshold LP (Gal and Nedoma, Management Sci. 18, 1972).

    Only base(u) moves, affinely in u, so a basis B proved optimal by its
    reduced costs gives t = c_B.B^-1.base(u) wherever its basic variables
    B^-1.base(u) are >= 0: on one interval.  The walk takes the middle of the
    part of [u_lo, u_hi] not yet covered, uses the first kept basis feasible
    there (else proves the basis of one cold solve), covers its interval,
    checks every basic variable >= 0 at both ends, and goes on with what is
    left on each side; adjacent pieces with the same wall merge.
    """
    threshold_lp = _threshold_lp(family.model, family.cvec)
    consts, slopes = [f[0] for f in family.forms], [f[1] for f in family.forms]
    pieces: list[ThresholdPiece] = []

    def walk(lo: Fraction, hi: Fraction, depth: int) -> None:
        if depth > 24:
            raise ScanError("threshold walk failed to terminate", lo, hi, depth)
        mid = (lo + hi) / 2
        for inverse, dual, den in threshold_lp.bases:
            # Each basic variable B^-1.base(u) as an affine form in u.
            basic = [(_dot(row, consts), _dot(row, slopes)) for row in inverse]
            if all(at(x, mid) >= 0 for x in basic):
                break
        else:
            dvec = [Fraction(at(f, mid), family.den * mid.denominator) for f in family.forms]
            inverse, dual, den = threshold_lp.prove(threshold_lp.solve(dvec, f" at u={mid}").basis)
            basic = [(_dot(row, consts), _dot(row, slopes)) for row in inverse]
            if any(at(x, mid) < 0 for x in basic):
                raise AssertionError(f"LP basis is not feasible at u={mid}")
        a, b = _basis_interval(basic, lo, hi)
        for x in basic:
            if (end := negative_end(x, a, b)) is not None:
                raise AssertionError(f"LP basis is not feasible at u={end}")
        if lo < a:
            walk(lo, a, depth + 1)
        t = lowest((_dot(dual, consts), _dot(dual, slopes), den * family.den))
        if u_lo == u_hi:  # a point: tied bases may slope either way, t(u_lo) is one value
            t = lowest((at(t, u_lo), 0, t[2] * u_lo.denominator))
        if pieces and pieces[-1].wall == t:
            pieces[-1] = ThresholdPiece(pieces[-1].u_lo, b, t)
        elif a < b or u_lo == u_hi:  # a point piece at a kink adds nothing
            pieces.append(ThresholdPiece(a, b, t))
        if b < hi:
            walk(b, hi, depth + 1)

    walk(u_lo, u_hi, 0)
    return pieces


def _basis_interval(basic: list[tuple[int, int]], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The part of [lo, hi] where every basic variable const + slope*u is
    >= 0, given a point of it where all are: each one's root bounds it."""
    for const, slope in basic:
        if slope > 0:
            lo = max(lo, Fraction(-const, slope))
        elif slope < 0:
            hi = min(hi, Fraction(-const, slope))
    return lo, hi


# ---------------------------------------------------------------------------
# Chamber scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanChamber:
    chamber: Chamber
    forms: _Forms  # the support, N and P, with P.C_k, as integer forms


@dataclass(frozen=True)
class ChamberedDecomposition:
    model: SurfaceModel
    curve: Vec
    u_lo: Fraction
    u_hi: Fraction
    threshold: tuple[ThresholdPiece, ...]
    chambers: tuple[ScanChamber, ...]

    @cached_property
    def curve_terms(self) -> tuple[tuple[Form, int, tuple[int, int, int], int], ...]:
        """(P.C as an integer form, its denominator, the integers iint (P.C)*(1,
        u, v), their denominator) per chamber, C = ``curve``: the part of a
        flag's point S-invariants that is the same for every point, computed
        once from the chamber's degree-2 moment table.  P.C = sum_k C_k (P.C_k)
        comes from the scan's integer forms."""
        weights, cden = numerators(self.curve)
        out = []
        for ch in self.chambers:
            pc, den = combine(enumerate(weights), ch.forms.pc), cden * ch.forms.den
            moments, delta = ch.chamber.moments(pc)
            out.append((pc, den, moments, den * delta))
        return tuple(out)


def chamber_scan(model: SurfaceModel, base: Sequence[tuple[int, int]], den: int, curve: Sequence[Scalar],
                 u_lo: Scalar, u_hi: Scalar) -> ChamberedDecomposition:
    """Chamber decomposition of the family base(u) - v*C over [u_lo, u_hi],
    base given by integer forms (a, b), (a + b*u)/den, and C the curve class
    with coefficient vector ``curve``.

    The v-range for each u is [0, t(u)] with t the pseudoeffective
    threshold.  Chambers are maximal regions of constant negative support;
    their boundaries are exact affine loci where either a negative
    coefficient or an excluded-curve intersection vanishes.
    """
    u_lo, u_hi = q(u_lo), q(u_hi)
    cvec = tuple(q(x) for x in curve)
    family = _Family(model, base, den, cvec)
    tpieces = _threshold_pieces(family, u_lo, u_hi)
    # A piece with t = 0 has the single line v = 0 as its v-range: no chamber.
    chambers = tuple(ch for piece in tpieces if any(piece.wall[:2])
                     for ch in _scan_threshold_piece(family, piece))
    return ChamberedDecomposition(model=model, curve=cvec, u_lo=u_lo, u_hi=u_hi,
                                  threshold=tuple(tpieces), chambers=chambers)


# The scan computes in integers, on exactmath's affine forms and walls over
# positive denominators, evaluated by exactmath's rule.  The one exception is
# the support search above a sample point (u, v): the point is the homogeneous
# triple (U, V, W) = (u*W, v*W, W), W > 0, where a form has the sign of
# a*W + b*U + c*V.
ZERO: Form = (0, 0, 0)


@dataclass(frozen=True)
class _SupportBlock:
    """The Gram block of one support: ``inverse``/``den`` is the inverse of
    the integer-scaled block, None when the block is singular."""

    inverse: tuple[tuple[int, ...], ...] | None
    den: int
    negative_definite: bool


def _support_block(model: SurfaceModel, support: tuple[int, ...]) -> _SupportBlock:
    """The block of ``support``, eliminated once per model."""
    block = model._support_blocks.get(support)
    if block is None:
        sub = [[model.gram[i][j] * model._gram_scale for j in support] for i in support]
        inverse = linalg.inverse(sub)
        block = _SupportBlock(None, 1, False) if inverse is None else _SupportBlock(
            tuple(map(tuple, inverse[0])), inverse[1], linalg.is_negative_definite(sub))
        model._support_blocks[support] = block
    return block


@dataclass(frozen=True)
class _Forms:
    """N, P and P.C_k of one support as forms over one denominator."""

    support: tuple[int, ...]
    den: int
    n: tuple[Form, ...]
    p: tuple[Form, ...]
    pc: tuple[Form, ...]


class _Family:
    """D - v*C as forms over one denominator ``den``, the least one, with the
    column forms of every support the scan has met, computed once each."""

    def __init__(self, model: SurfaceModel, base: Sequence[tuple[int, int]], den: int, cvec: Vec):
        (base, den), (weights, cden) = least(base, den), numerators(cvec)
        self.model, self.cvec, self.den = model, cvec, math.lcm(den, cden)
        s, t = self.den // den, self.den // cden
        self.forms = tuple((a * s, b * s, -w * t) for (a, b), w in zip(base, weights))
        # D.C_k times g * den, g the Gram denominator.
        self.gram_dots = tuple(combine(col, self.forms) for col in model._int_columns)
        self._columns: dict[tuple[int, ...], _Forms] = {}

    def column(self, support: tuple[int, ...]) -> _Forms:
        if support not in self._columns:
            self._columns[support] = _column_forms(self, support)
        return self._columns[support]


def _negative_part(family: _Family, support: tuple[int, ...]) -> tuple[int, list[Form]]:
    """(den, N): N_j = sum over the support of (G_SS^-1)_jk D.C_k, as forms
    over den, zero off the support."""
    n: list[Form] = [ZERO] * family.model.n
    if not support:
        return family.den, n
    block = _support_block(family.model, support)
    if block.inverse is None:
        raise ConeAssumptionError("cone assumption violated")
    dots = [family.gram_dots[k] for k in support]
    for j, row in zip(support, block.inverse):
        n[j] = combine(zip(range(len(support)), row), dots)
    return block.den * family.den, n


def _column_forms(family: _Family, support: tuple[int, ...]) -> _Forms:
    """N, P = D - N and P.C_k for one support."""
    den, n = _negative_part(family, support)
    scale = den // family.den
    p = [(scale * f[0] - x[0], scale * f[1] - x[1], scale * f[2] - x[2])
         for f, x in zip(family.forms, n)]
    # P.C_k = sum_i G_ik P_i: integer Gram columns put it over (Gram scale) * den.
    pc = tuple(combine(col, p) for col in family.model._int_columns)
    g = family.model._gram_scale
    if g != 1:
        n = [(g * a, g * b, g * c) for a, b, c in n]
        p = [(g * a, g * b, g * c) for a, b, c in p]
    return _Forms(support, g * den, tuple(n), tuple(p), pc)


def _scan_threshold_piece(family: _Family, piece: ThresholdPiece, depth: int = 0) -> list[ScanChamber]:
    if depth > 24:
        raise ScanError("chamber scan failed to stabilize", piece.u_lo, piece.u_hi, depth)
    stack = _column_structure(family, piece, (piece.u_lo + piece.u_hi) / 2, depth)
    try:
        return _certify_columns(family, piece, stack, depth)
    except _SplitNeeded as split:
        cut = split.at
        if not (piece.u_lo < cut < piece.u_hi):
            raise ScanError(f"invalid split point u={cut}", piece.u_lo, piece.u_hi, depth) from None
        left = ThresholdPiece(piece.u_lo, cut, piece.wall)
        right = ThresholdPiece(cut, piece.u_hi, piece.wall)
        return _scan_threshold_piece(family, left, depth + 1) + (
            _scan_threshold_piece(family, right, depth + 1)
        )


class _SplitNeeded(Exception):
    def __init__(self, at: Fraction):
        self.at = at


@dataclass
class _Column:
    lower: Form  # wall
    forms: _Forms


def _column_structure(family: _Family, piece: ThresholdPiece, u0: Fraction, depth: int) -> list[_Column]:
    """The stack of constant-support chambers above one generic u sample.

    Walks v upward from 0; at each boundary the support just beyond is
    computed with one-sided signs, the decomposition for that support
    determines the next boundary exactly, and the boundary's defining form
    is solved for v as an affine function of u.
    """
    p, q = u0.numerator, u0.denominator
    t_at = Fraction(at(piece.wall, u0), piece.wall[2] * q)
    n = family.model.n
    columns: list[_Column] = []
    v_cur = Fraction(0)
    lower: Form = (0, 0, 1)
    guard = 0
    while True:
        guard += 1
        if guard > 60:
            raise ScanError("v-scan failed to terminate", piece.u_lo, piece.u_hi, depth)
        r, s = v_cur.numerator, v_cur.denominator
        forms = _expand_support(family, (p * s, r * q, q * s))
        support = forms.support
        # Next event: a support coefficient vanishing or an excluded-curve
        # intersection vanishing, whichever comes first along v at u0.
        v_next, boundary = t_at, None
        for form in [forms.n[j] for j in support] + [forms.pc[k] for k in range(n) if k not in support]:
            if form[2] < 0:
                root = Fraction(at(form, u0), -form[2] * q)
                if v_cur < root < v_next:
                    v_next, boundary = root, form
        columns.append(_Column(lower=lower, forms=forms))
        if boundary is None:
            return columns
        a, b, c = boundary
        lower = (a, b, -c)  # c < 0: the wall solves for v
        v_cur = v_next
        if v_cur >= t_at:
            return columns


def _expand_support(family: _Family, point: Form) -> _Forms:
    """The forms of the support just above ``point`` along increasing v.

    Starting from the empty support, every curve k with P.C_k < 0 there
    (one-sided: the sign of P.C_k at the point, or of its v-coefficient
    where it vanishes) joins the support en bloc, until none is left.
    """
    U, V, W = point
    support: tuple[int, ...] = ()
    for _ in range(family.model.n + 1):
        forms = family.column(support)
        entering = tuple(k for k, (a, b, c) in enumerate(forms.pc) if k not in support
                         and ((s := a * W + b * U + c * V) < 0 or s == 0 and c < 0))
        if not entering:
            return forms
        support = tuple(sorted(support + entering))
    raise ConeAssumptionError("decomposition failed to stabilize")


def _certify_columns(
    family: _Family, piece: ThresholdPiece, columns: list[_Column], depth: int
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
    walls = [col.lower for col in columns] + [piece.wall]
    gaps = [gap(lo, hi) for lo, hi in zip(walls, walls[1:])]
    # Boundary ordering across the interval (affine: endpoints suffice).
    for g in gaps:
        if negative_end(g, piece.u_lo, piece.u_hi) is not None:
            cross = root_inside(*g, piece.u_lo, piece.u_hi)
            if cross is not None:
                raise _SplitNeeded(cross)
            raise ScanError("inconsistent chamber boundaries", piece.u_lo, piece.u_hi, depth)

    def check(chamber: Chamber, form: Form, reason: str) -> None:
        # A Zariski condition on the chamber, checked at its corners.
        if not chamber.nonnegative(form):
            split = chamber.crossing(form)
            if split is not None:
                raise _SplitNeeded(split)
            raise ScanError(reason, piece.u_lo, piece.u_hi, depth)

    out: list[ScanChamber] = []
    for col, lo, hi, g in zip(columns, walls, walls[1:], gaps):
        if g == (0, 0):
            continue
        chamber, forms = Chamber(piece.u_lo, piece.u_hi, lo, hi), col.forms
        for j in forms.support:
            check(chamber, forms.n[j], "negative support coefficient in chamber")
        for k, val in enumerate(forms.pc):
            if k in forms.support:
                if val != ZERO:
                    raise ScanError("support orthogonality failed symbolically",
                                    piece.u_lo, piece.u_hi, depth)
                continue
            check(chamber, val, "nef condition failed inside chamber")
        if forms.support and not _support_block(family.model, forms.support).negative_definite:
            raise ConeAssumptionError("cone assumption violated")
        out.append(ScanChamber(chamber, forms))
    return out


# ---------------------------------------------------------------------------
# Table verification
# ---------------------------------------------------------------------------


@dataclass
class RowMismatch:
    field: str  # "P", "N" or "region"
    curve: str
    printed: str
    recomputed: str


@dataclass(frozen=True)
class TableRow:
    """A printed chamber row: its region, and its P and N cells, one per
    curve, each as integer forms (a, b, c), meaning (a + b*u + c*v)/den, over
    one positive den."""

    region: Chamber
    p: tuple[tuple[Form, ...], int]
    n: tuple[tuple[Form, ...], int]


def row_mismatches(scan: ChamberedDecomposition, row: TableRow) -> list[RowMismatch]:
    """Compare one printed chamber row against the recomputed decomposition.

    Recomputation is authoritative: the row is accepted (no mismatch) iff on
    its whole region the recomputed chamber structure matches the printed
    region, P and N exactly.  Mismatched cells carry the recomputed truth.
    """
    model, region = scan.model, row.region
    out: list[RowMismatch] = []
    overlaps_found = False
    for ch in scan.chambers:
        u_lo = max(region.u_lo, ch.chamber.u_lo)
        u_hi = min(region.u_hi, ch.chamber.u_hi)
        if u_lo >= u_hi:
            continue
        # The v-overlap min(v_hi) - max(v_lo) is concave and piecewise affine
        # in u, so it is positive somewhere on the common interval iff it is
        # positive at an end or where the two lower or two upper walls cross.
        lows, highs = (region.lower, ch.chamber.lower), (region.upper, ch.chamber.upper)
        crossings = (root_inside(*gap(*lows), u_lo, u_hi), root_inside(*gap(*highs), u_lo, u_hi))
        gaps = [gap(lo, hi) for lo in lows for hi in highs]
        if not any(
            all(at(g, u0) > 0 for g in gaps)
            for u0 in (u_lo, u_hi, *(x for x in crossings if x is not None))
        ):
            continue
        overlaps_found = True
        forms = ch.forms
        for i, curve in enumerate(model.curve_names):
            for name, (cells, den), scanned in (("N", row.n, forms.n), ("P", row.p, forms.p)):
                # Equal over the common denominator.
                if any(x * forms.den != y * den for x, y in zip(cells[i], scanned[i])):
                    out.append(RowMismatch(field=name, curve=curve, printed=form_text(cells[i], den),
                                           recomputed=form_text(scanned[i], forms.den)))
    if not overlaps_found:
        out.append(RowMismatch(field="region", curve="-", printed=f"v in [{region.v_lo}, {region.v_hi}]",
                               recomputed="row region lies outside the scanned decomposition"))
    return out
