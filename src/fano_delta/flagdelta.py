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
times the local intersection multiplicity with C at Q.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactmath import (_VAR_INDEX, Poly, Scalar, affine_form, combine, integrate_univariate, numerators,
                        products, q)
from .surfzar import ChamberedDecomposition, ScanError, SurfaceModel, chamber_scan

Vec = tuple[Fraction, ...]


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
    """One u-interval of the ambient restriction data.

    ``coeffs`` is the positive part's coefficient vector (affine in u);
    ``d`` is ord_C of the ambient negative part and ``nprime`` the rest of
    that negative part, both zero in scenarios without an ambient negative
    part.
    """

    u_lo: Fraction
    u_hi: Fraction
    coeffs: tuple[Poly, ...]
    d: Poly = Poly()
    nprime: tuple[Poly, ...] = ()


@dataclass(frozen=True)
class FlagScenario:
    name: str
    l_cubed: Fraction
    model: SurfaceModel
    curve_class: Vec
    pieces: tuple[BasePiece, ...]
    sigma: Vec = ()
    points: tuple[MarkedPoint, ...] = ()
    curve_a: Fraction = Fraction(1)

    def __post_init__(self):
        # `scenario_scans` hashes its key on every lookup, down through the
        # model and the base Polys; the fields are immutable, so hash once.
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash

    def sigma_vec(self) -> Vec:
        return self.sigma if self.sigma else tuple([Fraction(0)] * self.model.n)

    def point(self, name: str) -> MarkedPoint:
        for pt in self.points:
            if pt.name == name:
                return pt
        raise KeyError(f"no marked point {name!r} in scenario {self.name}")


@dataclass(frozen=True)
class SInvariantResult:
    value: Fraction
    breakdown: tuple[tuple[str, Fraction], ...]

    def check(self) -> bool:
        return self.value == sum((x for _, x in self.breakdown), Fraction(0))


# Bounded, as run_218 builds six new scenarios per c; the lookups of one
# scenario come close together, so eight entries lose no hit.
@lru_cache(maxsize=8)
def scenario_scans(scenario: FlagScenario) -> tuple[ChamberedDecomposition, ...]:
    """Chamber scans of every base piece (cached per scenario)."""
    return tuple(
        chamber_scan(
            scenario.model, piece.coeffs, scenario.curve_class, piece.u_lo, piece.u_hi
        )
        for piece in scenario.pieces
    )


# ---------------------------------------------------------------------------
# S-invariants
# ---------------------------------------------------------------------------


def s_from_volume(
    l_cubed: Scalar, pieces: Sequence[tuple[Scalar, Scalar, Poly]]
) -> Fraction:
    """S = (1/L^3) * integral of the volume function over its support.

    The volume must be nonnegative on every piece and vanish at the right
    endpoint of the last piece.
    """
    l_cubed = q(l_cubed)
    total = Fraction(0)
    last_hi, last_poly = None, None
    for lo, hi, poly in pieces:
        lo, hi = q(lo), q(hi)
        poly = Poly.coerce(poly)
        if not _nonneg_on_interval(poly, lo, hi):
            raise ValueError("invalid volume function")
        total += integrate_univariate(poly, lo, hi)
        last_hi, last_poly = hi, poly
    if last_poly is not None and last_poly(u=last_hi) != 0:
        raise ValueError("invalid volume function")
    return total / l_cubed


def s_curve_flag(scenario: FlagScenario) -> SInvariantResult:
    """S of the flag curve: (3/L^3) [ int P~(u)^2 d(u) du + iint P(u,v)^2 ]."""
    model = scenario.model
    breakdown: list[tuple[str, Fraction]] = []
    factor = Fraction(3) / scenario.l_cubed
    for piece in scenario.pieces:
        if piece.d.is_zero():
            continue
        p_sq = model.pair(piece.coeffs, piece.coeffs)
        val = factor * integrate_univariate(p_sq * piece.d, piece.u_lo, piece.u_hi)
        breakdown.append((f"ord-term u[{piece.u_lo},{piece.u_hi}]", val))
    for scan in scenario_scans(scenario):
        for ch in scan.chambers:
            # P^2 = sum_i P_i (P.C_i), from the scan's integer forms.
            p_sq = products(zip(ch.forms.p, ch.forms.pc))
            breakdown.append((ch.chamber.label, factor * ch.chamber.integrate(p_sq, ch.forms.den**2)))
    value = sum((x for _, x in breakdown), Fraction(0))
    return SInvariantResult(value=value, breakdown=tuple(breakdown))


def f_correction(scenario: FlagScenario, point: MarkedPoint | str) -> Fraction:
    """The point-level correction term F_Q (exact).

    Per chamber ord_Q is an integer affine form: the multiplicity-weighted N
    numerators plus the piece's sum_j mult_j (N'_j - (v + d) Sigma_j).  An
    integer sign test at the corners certifies it nonnegative on the chamber.
    """
    if isinstance(point, str):
        point = scenario.point(point)
    model = scenario.model
    mults = point.ord_coefficients(model.n)
    weights, mden = numerators(mults)
    sigma = scenario.sigma_vec()
    factor = Fraction(6) / scenario.l_cubed
    total = Fraction(0)
    for piece, scan in zip(scenario.pieces, scenario_scans(scenario)):
        nprime = piece.nprime if piece.nprime else tuple([Poly()] * model.n)
        v_d = Poly.var("v") + piece.d
        rest = sum(((nprime[j] - v_d * sigma[j]) * mults[j] for j in range(model.n) if mults[j]), Poly())
        if rest.total_degree() > 1 or rest.degree_in("c"):
            raise ValueError("invalid correction data")
        rest, rden = affine_form(rest)
        for ch, (p_dot, pden, _) in zip(scan.chambers, scan.curve_terms):
            den = ch.forms.den * mden * rden  # of ord_Q
            n_part = combine(enumerate(weights), ch.forms.n)
            ord_q = tuple(rden * x + den // rden * y for x, y in zip(n_part, rest))
            if not any(ord_q):
                continue
            if not ch.chamber.nonnegative(ord_q):
                raise ValueError("invalid correction data")
            total += factor * ch.chamber.integrate(products([(p_dot, ord_q)]), pden * den)
    return total


def s_point_flag(scenario: FlagScenario, point: MarkedPoint | str) -> SInvariantResult:
    """S of a point of the flag curve: (3/L^3) iint (P.C)^2 + F_Q.

    The per-chamber integrals of (P.C)^2 do not depend on the point: they are
    the scans' `curve_terms`, computed once for all points of the scenario.
    """
    if isinstance(point, str):
        point = scenario.point(point)
    factor = Fraction(3) / scenario.l_cubed
    breakdown: list[tuple[str, Fraction]] = []
    for scan in scenario_scans(scenario):
        for ch, (_, _, p_dot_sq) in zip(scan.chambers, scan.curve_terms):
            breakdown.append((ch.chamber.label, factor * p_dot_sq))
    correction = f_correction(scenario, point)
    if correction != 0:
        breakdown.append((f"F({point.name})", correction))
    value = sum((x for _, x in breakdown), Fraction(0))
    return SInvariantResult(value=value, breakdown=tuple(breakdown))


# ---------------------------------------------------------------------------
# Log discrepancies, differents, beta and delta
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


def beta(a: Scalar, s: Scalar) -> Fraction:
    return q(a) - q(s)


def delta_lower_bound(levels: Sequence[tuple[Scalar, Scalar]]) -> Fraction:
    """min over comparison levels of A / S."""
    if not levels:
        raise ValueError("no levels")
    ratios = []
    for a, s in levels:
        a, s = q(a), q(s)
        if s <= 0:
            raise ValueError("degenerate level")
        ratios.append(a / s)
    return min(ratios)


# ---------------------------------------------------------------------------
# Exact nonnegativity of a univariate polynomial on an interval
# ---------------------------------------------------------------------------


def _nonneg_on_interval(p: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Exact check that the univariate polynomial p is >= 0 on [lo, hi].

    Uses a Sturm chain to count distinct real roots; on root-free stretches
    one sample pins the sign.  Roots are isolated by bisection until each
    bracketing interval contains one root, and the sign is tested strictly
    between consecutive brackets.
    """
    used = p.variables()
    if len(used) > 1:
        raise ValueError("arity mismatch")
    var = used[0] if used else "u"
    coeffs = _dense_coeffs(p, var)
    if len(coeffs) == 1:
        return coeffs[0] >= 0
    if p(**{var: lo}) < 0 or p(**{var: hi}) < 0:
        return False
    chain = _sturm_chain(coeffs)
    brackets = _isolate_roots(chain, coeffs, lo, hi)
    checkpoints = [lo]
    for a, b in brackets:
        checkpoints.extend([a, b])
    checkpoints.append(hi)
    for x in checkpoints:
        if _eval_dense(coeffs, x) < 0:
            return False
    for x0, x1 in zip(checkpoints, checkpoints[1:]):
        if x1 <= x0:
            continue
        if _eval_dense(coeffs, (x0 + x1) / 2) < 0:
            return False
    return True


def _dense_coeffs(p: Poly, var: str) -> list[Fraction]:
    deg = p.degree_in(var)
    out = [Fraction(0)] * (deg + 1)
    idx = _VAR_INDEX[var]
    for exp, coef in p.terms.items():
        out[exp[idx]] += coef
    return out


def _eval_dense(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _poly_div_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
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


def _sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    p0 = list(coeffs)
    p1 = [c * i for i, c in enumerate(coeffs)][1:] or [Fraction(0)]
    chain = [p0, p1]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        rem = _poly_div_rem(chain[-2], chain[-1])
        rem = [-c for c in rem]
        if len(rem) == 1 and rem[0] == 0:
            break
        chain.append(rem)
    return chain


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for poly in chain:
        val = _eval_dense(poly, x)
        if val != 0:
            signs.append(1 if val > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_count(chain, lo: Fraction, hi: Fraction) -> int:
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _isolate_roots(chain, coeffs, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    intervals = [(lo, hi)]
    out: list[tuple[Fraction, Fraction]] = []
    guard = 0
    while intervals:
        guard += 1
        if guard > 10_000:
            raise ScanError("root isolation failed to terminate", lo, hi)
        a, b = intervals.pop()
        count = _root_count(chain, a, b)
        if count == 0:
            continue
        if count == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        # Nudge the split point off a root.
        while _eval_dense(coeffs, mid) == 0:
            out.append((mid, mid))
            mid += (b - a) / 7
            if not a < mid < b:
                break
        intervals.extend([(a, mid), (mid, b)])
    return sorted(out)
