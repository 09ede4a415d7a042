"""Exact rational arithmetic for small multivariate polynomials.

Everything in this package computes over Q.  A polynomial is a sparse map
from exponent triples to Fraction coefficients, always over the fixed
variable universe (u, v, c):

    5/3*u^2*v - 2  ->  {(2, 1, 0): Fraction(5, 3), (0, 0, 0): Fraction(-2)}

Zero coefficients are never stored, so structural equality of the term maps
is mathematical equality.  The module also provides

  * parse_poly / str round-trips for the compact text form of the JSON
    fixtures ("(8-u-3*v)/3", "-u^2 + 1"): Python's expression grammar and
    precedence, read by ``ast``, with ``^`` for ``**``, and `integer_rows`,
    the one reader of Polys into integer rows over one denominator,
  * exact definite integration of integer coefficients over u-intervals
    (`integral`), and over chambers (a
    u-interval between two integer walls v = (a + b*u)/d) by moments only:
    `Chamber.moments` gives iint f*(1, u, v) of an integer affine form f
    from the chamber's one degree-2 moment table, so every chamber integral
    (P^2, (P.C)^2, F_Q) is one affine form dotted with another's moments,
  * the one rule that evaluates the integer affine forms and walls of the
    exact layers: at a u, at both u-ends, gaps, roots, and a chamber's
    corners and crossings (`at`, `negative_end`, `gap`, `root_inside`,
    `Chamber.nonnegative`, `Chamber.crossing`), and its homogeneous form
    for integer coefficient lists of any degree (`horner`), which signs
    Sturm chains, integrates in u and folds fixture texts at a rational c.

No floating point exists anywhere in this package.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

VARS = ("u", "v", "c")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int]
Scalar = Union[int, str, Fraction]
# An integer affine form a + b*u + c*v is the triple (a, b, c), kept over a
# denominator beside it; a wall v = (a + b*u)/d is the triple (a, b, d), d > 0.
Form = tuple[int, int, int]


def _index(name: str) -> int:
    if name not in _VAR_INDEX:
        raise ValueError(f"unknown variable {name!r}")
    return _VAR_INDEX[name]


def q(x: Scalar) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x.strip())
    return Fraction(x)


class Poly:
    """Sparse exact polynomial in the variables u, v, c.

    Immutable after construction; arithmetic returns new objects.  Terms with
    coefficient zero are dropped on construction, so ``==`` on Poly objects is
    mathematical equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                coef = Fraction(coef) if not isinstance(coef, Fraction) else coef
                if coef != 0:
                    clean[(int(exp[0]), int(exp[1]), int(exp[2]))] = coef
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, terms: dict[Exponent, Fraction]) -> "Poly":
        # Trusted input from arithmetic (Fraction coefficients, int exponents): drop zeros only.
        p = object.__new__(cls)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(x: Scalar) -> "Poly":
        return Poly._make({(0, 0, 0): q(x)})

    @staticmethod
    def var(name: str) -> "Poly":
        i = _index(name)
        return Poly._make({tuple(int(k == i) for k in range(3)): Fraction(1)})

    @staticmethod
    def coerce(x: "Poly | Scalar") -> "Poly":
        return x if isinstance(x, Poly) else Poly.const(x)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0, 0), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        i = _VAR_INDEX[name]
        return max((e[i] for e in self.terms), default=0)

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = Poly.coerce(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out[exp] + coef if exp in out else coef
        return Poly._make(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-Poly.coerce(other))

    def __rsub__(self, other) -> "Poly":
        return Poly.coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            k = q(other)
            return Poly._make({e: c * k for e, c in self.terms.items()})
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[exp] = out[exp] + ca * cb if exp in out else ca * cb
        return Poly._make(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        d = q(other) if not isinstance(other, Poly) else other.as_fraction()
        if d == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return Poly._make({e: c / d for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, str)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- substitution ------------------------------------------------------

    def subs(self, **values: "Poly | Scalar") -> "Poly":
        """Substitute polynomials or rationals for variables (partial ok),
        expanding every term with the ring operations."""
        point = [Poly.var(name) for name in VARS]
        for name, val in values.items():
            point[_index(name)] = Poly.coerce(val)
        out = Poly()
        for exp, coef in self.terms.items():
            term = Poly.const(coef)
            for x, e in zip(point, exp):
                if e:
                    term = term * x**e
            out = out + term
        return out

    def __call__(self, **values: "Poly | Scalar") -> Fraction:
        """Full evaluation; raises if any occurring variable is left free.

        Equals ``self.subs(**values).as_fraction()``, summed term by term
        from rational powers of the values with no intermediate Poly.
        """
        point = {_index(name): q(val) for name, val in values.items()}
        total = Fraction(0)
        for exp, coef in self.terms.items():
            for i, e in enumerate(exp):
                if e:
                    if i not in point:
                        raise ValueError(f"not a constant polynomial: {self.subs(**values)}")
                    coef *= point[i] ** e
            total += coef
        return total

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        text = ""
        for exp in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coef = self.terms[exp]
            mono = "*".join(f"{VARS[i]}^{e}" if e > 1 else VARS[i] for i, e in enumerate(exp) if e)
            body = f"{abs(coef)}*{mono}" if mono and abs(coef) != 1 else mono or str(abs(coef))
            if text:
                text += f" {'-' if coef < 0 else '+'} {body}"
            else:
                text = f"-{body}" if coef < 0 else body
        return text or "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> Poly:
    """Parse a polynomial over u, v, c as the fixtures and ``str`` write it.

    Python's expression grammar and precedence, read by ``ast``, with ``^``
    for ``**``: int literals (no leading zeros), the names u, v and c, unary
    + and -, binary + - * /, ``^`` by a digit string, and parentheses; so
    "-u^2" is -(u^2).  Division is by a nonzero constant only, and text whose
    total degree or an exponent exceeds `MAX_DEGREE` is refused before any
    power or product is expanded.  Any other text raises ValueError naming
    it.
    """
    if not _TEXT.fullmatch(text) or _BAD_POWER.search(text):
        raise ValueError(f"bad character or exponent in {text!r}")
    try:
        return _walk(ast.parse(text.strip().replace("^", "**"), mode="eval").body, text)
    except (SyntaxError, RecursionError):
        raise ValueError(f"malformed expression {text!r}") from None


_TEXT = re.compile(r"[0-9uvc+\-*/^() ]*")
_BAD_POWER = re.compile(r"\*\*|\^(?!\s*\d)")
_RING = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
# The fixtures reach total degree 3 and exponent 2, and `str` writes at most
# u^3*v^3*c^3 in the round trip; past this bound expansion could take
# unbounded time.
MAX_DEGREE = 9


def _walk(node: ast.expr, text: str, budget: int = MAX_DEGREE) -> Poly:
    """The Poly of an expression node whose total degree may reach
    ``budget``: a power or product shares out the budget before either
    factor is expanded, so text past it is refused at once."""
    match node:
        case ast.Constant(value=int(n)):
            return Poly.const(n)
        case ast.Name(id=("u" | "v" | "c") as name) if budget >= 1:
            return Poly.var(name)
        case ast.UnaryOp(op=ast.UAdd() | ast.USub() as op, operand=x):
            return -_walk(x, text, budget) if isinstance(op, ast.USub) else _walk(x, text, budget)
        case ast.BinOp(left=x, op=ast.Pow(), right=ast.Constant(value=int(n))) if n <= MAX_DEGREE:
            return _walk(x, text, budget // max(n, 1)) ** n
        case ast.BinOp(left=x, op=ast.Div(), right=y):
            d = _walk(y, text, budget)
            if d.is_zero() or not d.is_constant():
                raise ValueError(f"division by {d} in {text!r}")
            return _walk(x, text, budget) / d
        case ast.BinOp(left=x, op=ast.Add() | ast.Sub() | ast.Mult() as op, right=y):
            a = _walk(x, text, budget)
            # A product's second factor may reach what the first leaves of the budget.
            rest = budget - a.total_degree() if isinstance(op, ast.Mult) else budget
            return _RING[type(op)](a, _walk(y, text, rest))
        case ast.Name(id=("u" | "v" | "c")) | ast.BinOp(op=ast.Pow(), right=ast.Constant(value=int())):
            raise ValueError(f"total degree or exponent above {MAX_DEGREE} in {text!r}")
    raise ValueError(f"unsupported {ast.unparse(node).replace('**', '^')!r} in {text!r}")


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def integral(coeffs: Sequence[int], den: int, lo: Fraction, hi: Fraction) -> Fraction:
    """The integral over u in [lo, hi] of sum coeffs[i] * u^i / den: `horner`
    of the antiderivative's integer numerators, over lcm(1, ..., k), at both
    ends."""
    if lo > hi:
        raise ValueError(f"inverted interval [{lo}, {hi}]")
    k = len(coeffs)
    scale = math.lcm(*range(1, k + 1))
    anti = [0, *(x * (scale // (i + 1)) for i, x in enumerate(coeffs))]
    return Fraction(horner(anti, hi) * lo.denominator**k - horner(anti, lo) * hi.denominator**k,
                    scale * den * (lo.denominator * hi.denominator) ** k)


@dataclass(frozen=True)
class Chamber:
    """A region u in [u_lo, u_hi], v between the integer walls ``lower`` and
    ``upper`` the chamber scan proved, each v = (a + b*u)/d as (a, b, d) in
    lowest terms, d > 0.  ``v_lo``, ``v_hi`` and ``label`` are read from the
    walls."""

    u_lo: Fraction
    u_hi: Fraction
    lower: Form
    upper: Form

    def __post_init__(self):
        object.__setattr__(self, "u_lo", q(self.u_lo))
        object.__setattr__(self, "u_hi", q(self.u_hi))
        if self.u_lo > self.u_hi:
            raise ValueError("empty or inverted chamber")
        lo, hi = lowest(self.lower), lowest(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # Affine walls: the sign of hi - lo at both u-ends certifies lo <= hi.
        if negative_end(gap(lo, hi), self.u_lo, self.u_hi) is not None:
            raise ValueError("empty or inverted chamber")

    @cached_property
    def v_lo(self) -> Poly:
        return affine_poly(self.lower[:2], self.lower[2])

    @cached_property
    def v_hi(self) -> Poly:
        return affine_poly(self.upper[:2], self.upper[2])

    @cached_property
    def label(self) -> str:
        """The chamber as S-value breakdowns print it."""
        return f"u[{self.u_lo},{self.u_hi}] v[{self.v_lo},{self.v_hi}]"

    @cached_property
    def _ends(self) -> tuple[tuple[int, int], ...]:
        """The u-ends as (numerator, denominator)."""
        return tuple((x.numerator, x.denominator) for x in (self.u_lo, self.u_hi))

    def nonnegative(self, form: Form) -> bool:
        """Whether a + b*u + c*v >= 0 on the chamber: the form is affine and
        the chamber convex, so its sign at the corners, as integer points
        (u*W, v*W, W) with W > 0, decides it."""
        a, b, c = form
        return all(a * m * d + b * n * d + c * (w0 * m + w1 * n) >= 0
                   for n, m in self._ends for w0, w1, d in (self.lower, self.upper))

    def crossing(self, form: Form) -> Fraction | None:
        """The u strictly inside the chamber where a + b*u + c*v vanishes on
        the lower wall, else on the upper wall; None if there is none."""
        a, b, c = form
        for w0, w1, d in (self.lower, self.upper):
            root = root_inside(a * d + c * w0, b * d + c * w1, self.u_lo, self.u_hi)
            if root is not None:
                return root
        return None

    def moments(self, form: Form) -> tuple[tuple[int, int, int], int]:
        """(m, Delta): m[i]/Delta is the iint of (a + b*u + c*v) times 1, u,
        v for i = 0, 1, 2 over the chamber, from its degree-2 moment table."""
        delta, t = self._table
        a, b, c = form
        return (a * t[0, 0] + b * t[1, 0] + c * t[0, 1], a * t[1, 0] + b * t[2, 0] + c * t[1, 1],
                a * t[0, 1] + b * t[1, 1] + c * t[0, 2]), delta

    @cached_property
    def _table(self) -> tuple[int, dict[tuple[int, int], int]]:
        """(Delta, m) with m[a, b] / Delta = iint u^a v^b, a + b <= 2, over the
        chamber A/q_a <= u <= B/q_b, (l0 + l1*u)/d_l <= v <= (h0 + h1*u)/d_h:
        the sum over j of C(b+1, j) (h0^(b+1-j) h1^j / d_h^(b+1) - l0^(b+1-j)
        l1^j / d_l^(b+1)) (u_hi^n - u_lo^n) / ((b+1) n), n = a + j + 1, over
        Delta = L^2 (d_l d_h)^3 (q_a q_b)^4, L = lcm(1, ..., 4) = 12."""
        (A, qa), (B, qb) = self._ends
        (l0, l1, dl), (h0, h1, dh) = self.lower, self.upper
        L, D, Q = 12, dl * dh, qa * qb
        # L/n (u_hi^n - u_lo^n) Q^4, by n.
        spans = [0] + [L // n * (B**n * qa**n - A**n * qb**n) * Q ** (4 - n) for n in range(1, 5)]
        table = {}
        for b in range(3):
            e = b + 1
            # L/e (v_hi^e - v_lo^e) D^3, by powers of u.
            scale = L // e * D ** (3 - e)
            rise = [scale * math.comb(e, j) * (h0 ** (e - j) * h1**j * dl**e - l0 ** (e - j) * l1**j * dh**e)
                    for j in range(e + 1)]
            for a in range(3 - b):
                table[a, b] = sum(r * spans[a + j + 1] for j, r in enumerate(rise))
        return L * L * D**3 * Q**4, table


def numerators(xs: Iterable[Fraction]) -> tuple[tuple[int, ...], int]:
    """The integer numerators of xs over their least common denominator."""
    xs = tuple(xs)
    den = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


def least(forms: Iterable[Sequence[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer forms over a positive den, divided by the gcd of den and all
    their entries: the same values over their least common denominator."""
    forms = tuple(map(tuple, forms))
    g = math.gcd(den, *(x for f in forms for x in f))
    return (forms, den) if g == 1 else (tuple(tuple(x // g for x in f) for f in forms), den // g)


# The exponents of 1, u and v: an affine form's terms.
AFFINE = ((0, 0, 0), (1, 0, 0), (0, 1, 0))


def integer_rows(polys: Iterable[Poly], exponents: Sequence[Exponent],
                 shape: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Each Poly's coefficients at ``exponents`` as one integer row, all over
    their least common denominator (positive); ValueError naming the first
    Poly with a term at any other exponent as not ``shape``."""
    polys, allowed = tuple(polys), set(exponents)
    if (bad := next((p for p in polys if p.terms.keys() - allowed), None)) is not None:
        raise ValueError(f"{bad} is not {shape}")
    flat, den = numerators(p.coefficient(e) for p in polys for e in exponents)
    k = len(exponents)
    return tuple(flat[i:i + k] for i in range(0, len(flat), k)), den


def lowest(w: Form) -> Form:
    """The wall w in lowest terms; ValueError unless its denominator is positive."""
    a, b, d = w
    if d <= 0:
        raise ValueError(f"wall {w} needs a positive denominator")
    g = math.gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def at(form: Sequence[int], u: Fraction) -> int:
    """a + b*u of a form or wall (a, b, ...) at u, times u's denominator: an
    integer with the sign of the form, or of the wall, at u."""
    return form[0] * u.denominator + form[1] * u.numerator


def horner(coeffs: Sequence[int], x: Fraction) -> int:
    """sum coeffs[i] * x^i, rising degree, times x.denominator^(len - 1): an
    integer with the sign of the polynomial at x; `at` is its degree 1."""
    total, scale = 0, 1
    for a in reversed(coeffs):
        total = total * x.numerator + a * scale
        scale *= x.denominator
    return total


def negative_end(form: Sequence[int], lo: Fraction, hi: Fraction) -> Fraction | None:
    """The first of lo, hi at which a + b*u is negative; None if it is >= 0
    at both, hence (affine) on all of [lo, hi]."""
    return next((u for u in (lo, hi) if at(form, u) < 0), None)


def gap(lo: Form, hi: Form) -> tuple[int, int]:
    """hi - lo of two walls as (const, u-coefficient), up to a positive factor."""
    return hi[0] * lo[2] - lo[0] * hi[2], hi[1] * lo[2] - lo[1] * hi[2]


def root_inside(a: int, b: int, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The root of a + b*u if it lies strictly between lo and hi."""
    if b == 0:
        return None
    root = Fraction(-a, b)
    return root if lo < root < hi else None


def affine_poly(form: Sequence[int], den: int) -> Poly:
    """The Poly (a + b*u + c*v)/den of an integer form (a, b, c), or
    (a + b*u)/den of (a, b): a wall v = (a + b*u)/d is affine_poly(w[:2], d)."""
    return Poly._make({e: Fraction(x, den) for e, x in zip(AFFINE, form)})


def combine(terms: Iterable[tuple[int, int]], forms: Sequence[Form]) -> Form:
    """sum of k * forms[i] over the (i, k) of ``terms``."""
    a = b = c = 0
    for i, k in terms:
        f = forms[i]
        a += k * f[0]
        b += k * f[1]
        c += k * f[2]
    return a, b, c
