"""Flag S-invariants, F-corrections, log discrepancies and delta bounds.

A flag scenario packages one setup: the ambient degree L^3, a surface model
with a marked curve C in it, the positive/negative parts of the ambient
decomposition restricted to the surface (piecewise affine in u), and the
marked points of C with their local intersection multiplicities and log
discrepancies.  The S-invariants are then exact iterated integrals over the
chamber decomposition of the two-parameter family

    D(u, v) = base(u) - v * C.

The point-level invariant carries the correction term

    F_Q = (6/L^3) * double-integral of (P.C) * ord_Q((N'(u) + N(u,v)
                                        - (v + d(u)) * Sigma)|_C),

which subsumes the plain case (N' = 0, Sigma = 0, d = 0).  ord_Q along C is
linear in the divisor: each basis curve through Q contributes its coefficient
times the local intersection multiplicity with C at Q.  No Poly reaches this
module: volumes arrive as integer coefficients in u, bases as integer forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .exactmath import Chamber, Scalar, combine, horner, integral, numerators, q
from .surfzar import ChamberedDecomposition, ScanError, SurfaceModel, chamber_scan

Vec = tuple[Fraction, ...]


class DerivationError(ValueError):
    """Readable data that defines no value: a volume function negative or not
    vanishing at its end, an order of vanishing along the flag curve that is
    negative on a chamber, or no level or one with S <= 0."""


# ---------------------------------------------------------------------------
# Scenario data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkedPoint:
    """A point of the flag curve C.

    ``mults`` lists, per basis curve index j, the local intersection
    multiplicity of that curve with C at this point (so ord at the point of a
    divisor sum_j c_j * curve_j restricted to C is sum over these entries of
    c_j * mult).  ``a_value`` is the log discrepancy A_{C, Delta_C}(point).
    """

    name: str
    a_value: Fraction
    mults: tuple[tuple[int, Fraction], ...] = ()

    def ord_coefficients(self, n: int) -> Vec:
        out = [Fraction(0)] * n
        for j, m in self.mults:
            out[j] = m
        return tuple(out)


@dataclass(frozen=True)
class BasePiece:
    """One u-interval of the ambient restriction data, as integer forms
    (a, b), meaning (a + b*u)/den, over one positive ``den``.

    ``coeffs`` is the positive part's coefficient vector; ``d`` is ord_C of
    the ambient negative part and ``nprime`` the rest of that negative part,
    both zero in scenarios without an ambient negative part.
    """

    u_lo: Fraction
    u_hi: Fraction
    coeffs: tuple[tuple[int, int], ...]
    den: int = 1
    d: tuple[int, int] = (0, 0)
    nprime: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class FlagScenario:
    l_cubed: Fraction
    model: SurfaceModel
    curve_class: Vec
    pieces: tuple[BasePiece, ...]
    sigma: Vec = ()
    points: tuple[MarkedPoint, ...] = ()

    def __post_init__(self):
        # `scenario_scans` hashes its key on every lookup, down through the
        # model and the base forms; the fields are immutable, so hash once.
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _point_free(self) -> tuple[tuple[tuple[Chamber, Fraction], ...], Fraction]:
        """The chamber parts (3/L^3) iint (P.C)^2 of every point's S, from the
        scans' `curve_terms` (P.C and its moments), and their sum."""
        factor = Fraction(3) / self.l_cubed
        parts = tuple((ch.chamber, factor * Fraction(sum(x * m for x, m in zip(pc, moments)), den * pc_den))
                      for scan in scenario_scans(self)
                      for ch, (pc, den, moments, pc_den) in zip(scan.chambers, scan.curve_terms))
        return parts, sum((x for _, x in parts), Fraction(0))


@dataclass(frozen=True)
class SInvariantResult:
    """An S-value and its parts, each a (chamber or term label, value); a
    chamber's label is formatted only when ``breakdown`` is read."""

    value: Fraction
    parts: tuple[tuple[Chamber | str, Fraction], ...]

    @property
    def breakdown(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((where if isinstance(where, str) else where.label, x) for where, x in self.parts)

    def check(self) -> bool:
        """Whether the breakdown, as printed, sums to the value."""
        return self.value == sum((x for _, x in self.breakdown), Fraction(0))


# Bounded, as run_218 builds six new scenarios per c; the lookups of one
# scenario come close together, so eight entries lose no hit.
@lru_cache(maxsize=8)
def scenario_scans(scenario: FlagScenario) -> tuple[ChamberedDecomposition, ...]:
    """Chamber scans of every base piece (cached per scenario)."""
    return tuple(chamber_scan(scenario.model, piece.coeffs, piece.den, scenario.curve_class,
                              piece.u_lo, piece.u_hi) for piece in scenario.pieces)


# ---------------------------------------------------------------------------
# S-invariants
# ---------------------------------------------------------------------------


def s_from_volume(
    l_cubed: Scalar, pieces: Sequence[tuple[Scalar, Scalar, Sequence[int], int]]
) -> Fraction:
    """S = (1/L^3) * integral of the volume function over its support.

    A piece (lo, hi, coeffs, den) is the volume sum coeffs[i] * u^i / den on
    [lo, hi]: integer coefficients by rising degree over a positive den.
    The volume must be nonnegative on every piece and vanish at the right
    endpoint of the last piece.
    """
    total = Fraction(0)
    for lo, hi, coeffs, den in pieces:
        lo, hi = q(lo), q(hi)
        total += integral(coeffs, den, lo, hi)
        if not _nonneg_on_interval(coeffs, lo, hi):
            raise DerivationError("invalid volume function")
    if pieces and horner(coeffs, hi) != 0:
        raise DerivationError("invalid volume function")
    return total / q(l_cubed)


def s_curve_flag(scenario: FlagScenario) -> SInvariantResult:
    """S of the flag curve: (3/L^3) [ int P~(u)^2 d(u) du + iint P(u,v)^2 ]."""
    model = scenario.model
    parts: list[tuple[Chamber | str, Fraction]] = []
    factor = Fraction(3) / scenario.l_cubed
    for piece in scenario.pieces:
        if not any(piece.d):
            continue
        # P~^2 = sum_i P_i (P.C_i), a quadratic in u over (Gram scale) * den^2.
        p, sq = piece.coeffs, [0, 0, 0]
        for (a, b), col in zip(p, model._int_columns):
            c0, c1 = sum(g * p[j][0] for j, g in col), sum(g * p[j][1] for j, g in col)
            sq = [sq[0] + a * c0, sq[1] + a * c1 + b * c0, sq[2] + b * c1]
        d0, d1 = piece.d
        cubic = [sq[0] * d0, sq[0] * d1 + sq[1] * d0, sq[1] * d1 + sq[2] * d0, sq[2] * d1]
        val = factor * integral(cubic, model._gram_scale * piece.den**3, piece.u_lo, piece.u_hi)
        parts.append((f"ord-term u[{piece.u_lo},{piece.u_hi}]", val))
    for scan in scenario_scans(scenario):
        for ch in scan.chambers:
            # P^2 = sum_i P_i (P.C_i): each P_i form dotted with the moments of P.C_i.
            num = delta = 0
            for p, pc in zip(ch.forms.p, ch.forms.pc):
                moments, delta = ch.chamber.moments(pc)
                num += sum(x * m for x, m in zip(p, moments))
            parts.append((ch.chamber, factor * Fraction(num, ch.forms.den**2 * delta)))
    return SInvariantResult(sum((x for _, x in parts), Fraction(0)), tuple(parts))


def f_correction(scenario: FlagScenario, point: MarkedPoint) -> Fraction:
    """The point-level correction term F_Q (exact).

    Per chamber ord_Q is an integer affine form: the multiplicity-weighted N
    numerators plus the piece's sum_j mult_j (N'_j - (v + d) Sigma_j), from
    the piece's forms of N'_j and d.  An integer sign test at the
    corners certifies it nonnegative on the chamber, and its three
    coefficients dotted with the scan's moments iint (P.C)*(1, u, v) give
    the chamber's iint (P.C)*ord_Q.
    """
    mults = point.ord_coefficients(scenario.model.n)
    weights, mden = numerators(mults)
    weights = [(j, w) for j, w in enumerate(weights) if w]
    s = sum((m * x for m, x in zip(mults, scenario.sigma) if m), Fraction(0))  # no sigma: 0
    total, total_den = 0, 1  # the sum of iint (P.C)*ord_Q, kept as an integer ratio
    for piece, scan in zip(scenario.pieces, scenario_scans(scenario)):
        # sum_j mult_j N'_j - s (v + d), s = sum_j mult_j Sigma_j: zero without N' and Sigma.
        rest, rden = (0, 0, 0), 1
        if piece.nprime or s:
            a, b = (sum((m * f[t] for m, f in zip(mults, piece.nprime) if m), -s * piece.d[t]) for t in (0, 1))
            rest, rden = numerators((a / piece.den, b / piece.den, -s))
        for ch, (_, _, moments, pc_den) in zip(scan.chambers, scan.curve_terms):
            den = ch.forms.den * mden * rden  # of ord_Q
            n_part = combine(weights, ch.forms.n)
            ord_q = [rden * x + den // rden * y for x, y in zip(n_part, rest)]
            if not any(ord_q):
                continue
            if not ch.chamber.nonnegative(ord_q):
                raise DerivationError("invalid correction data")
            num, den = sum(x * m for x, m in zip(ord_q, moments)), den * pc_den
            total, total_den = total * den + num * total_den, total_den * den
    return Fraction(6 * total * scenario.l_cubed.denominator, total_den * scenario.l_cubed.numerator)


def s_point_flag(scenario: FlagScenario, point: MarkedPoint) -> SInvariantResult:
    """S of a point of the flag curve: (3/L^3) iint (P.C)^2 + F_Q.

    The per-chamber integrals of (P.C)^2 and their sum do not depend on the
    point: they are made once per scenario.
    """
    parts, value = scenario._point_free
    correction = f_correction(scenario, point)
    if correction != 0:
        parts, value = (*parts, (f"F({point.name})", correction)), value + correction
    return SInvariantResult(value, parts)


# ---------------------------------------------------------------------------
# Log discrepancies, differents and delta
# ---------------------------------------------------------------------------


def log_discrepancy_weighted(
    weights: Sequence[int], boundary: Sequence[tuple[Scalar, Scalar]] = ()
) -> Fraction:
    """Log discrepancy of a weighted blowup of a smooth 3-fold point.

    A = a + b + c0 - sum of boundary coefficient times its order along the
    blowup.
    """
    if len(weights) != 3 or any(w <= 0 for w in weights):
        raise ValueError("weights must be three positive integers")
    total = Fraction(sum(int(w) for w in weights))
    for coeff, order in boundary:
        total -= q(coeff) * q(order)
    if total <= 0:
        raise ValueError("not a log Fano discrepancy")
    return total


def a_point_on_curve(
    different: Sequence[tuple[str, Scalar]]
) -> dict[str, Fraction]:
    """A(O) = 1 - ord_O(Delta_C) for the marked points; generic points get 1."""
    out: dict[str, Fraction] = {}
    for name, coeff in different:
        coeff = q(coeff)
        if not 0 <= coeff < 1:
            raise ValueError("non-klt different")
        out[name] = 1 - coeff
    return out


def delta_lower_bound(levels: Sequence[tuple[Scalar, Scalar]]) -> Fraction:
    """min over comparison levels of A / S."""
    if not levels:
        raise DerivationError("no levels")
    ratios = []
    for a, s in levels:
        a, s = q(a), q(s)
        if s <= 0:
            raise DerivationError("degenerate level")
        ratios.append(a / s)
    return min(ratios)


# ---------------------------------------------------------------------------
# Exact nonnegativity of a univariate polynomial on an interval
# ---------------------------------------------------------------------------


def _nonneg_on_interval(coeffs: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    """Exact check that sum coeffs[i] * u^i (integers, rising degree) is >= 0
    on [lo, hi].

    A Sturm chain of its square-free part counts its distinct roots in
    half-open intervals (a, b]; bisection, off the roots, isolates each root
    in one with a > lo.  Then lo, hi and the ends of these intervals hold a
    point of every stretch between roots, so the sign there decides.  Every
    sign is that of `horner` on the integers.
    """
    top = list(coeffs)
    while len(top) > 1 and not top[-1]:
        top.pop()
    if len(top) == 1:
        return top[0] >= 0
    ends = (x for bracket in _isolate_roots(_sturm_chain(top), lo, hi) for x in bracket)
    return all(horner(top, x) >= 0 for x in (lo, *ends, hi))


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Integer quotient and remainder, by rising degree, of k*a by b for some
    k > 0; the remainder without trailing zeros."""
    rem, quotient, scale, sign = list(a), [], abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(rem) >= len(b):
        top = sign * rem.pop()
        quotient, rem = [scale * x for x in quotient] + [top], [scale * x for x in rem]
        for i, x in enumerate(b[:-1], len(rem) + 1 - len(b)):
            rem[i] -= top * x
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quotient[::-1], rem or [0]


def _sturm_chain(coeffs: list[int]) -> list[list[int]]:
    """The Sturm chain of p (integer coefficients, rising degree) over its
    last member gcd(p, p'), each member up to a positive factor: the chain
    of p's square-free part, whose members never all vanish at a root."""
    chain = [coeffs, [c * i for i, c in enumerate(coeffs)][1:]]
    while any(rem := [-x for x in _pdivmod(chain[-2], chain[-1])[1]]):
        chain.append(_primitive(rem))
    return [_primitive(_pdivmod(f, chain[-1])[0]) for f in chain]


def _primitive(f: list[int]) -> list[int]:
    """f over the gcd of its coefficients, a positive factor."""
    g = math.gcd(*f)
    return [x // g for x in f]


def _sign_changes(chain: list[list[int]], x: Fraction) -> int:
    signs = [val > 0 for val in (horner(poly, x) for poly in chain) if val]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_count(chain, lo: Fraction, hi: Fraction) -> int:
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _isolate_roots(chain, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    intervals, out = [(lo, hi)], []
    for _ in range(10_000):
        if not intervals:
            return sorted(out)
        a, b = intervals.pop()
        count = _root_count(chain, a, b)
        if count == 0:
            continue
        if count == 1 and a > lo:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        # Nudge the split point off a root.
        while horner(chain[0], mid) == 0:
            out.append((mid, mid))
            mid += (b - a) / 7
            if not a < mid < b:
                break
        intervals.extend([(a, mid), (mid, b)])
    raise ScanError("root isolation failed to terminate", lo, hi)
