"""Exact rational arithmetic for small multivariate polynomials.

Everything in this package computes over Q, in integers where it can.  The
module provides

  * `parse_poly` for the compact text form of the JSON fixtures
    ("(8-u-3*v)/3", "-u^2 + 1"): Python's expression grammar and precedence,
    read by ``ast``, with ``^`` for ``**``, expanded into the integer
    numerators of the terms u^i v^j c^m over one den; `form_text` writes an
    integer affine form as ``str`` writes a `Poly` (Fraction coefficients by
    exponent triple, zeros never stored, kept where a fixture expression's
    canonical form is compared or shown), and both texts parse back,
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
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, Mapping, Sequence, Union

VARS = ("u", "v", "c")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}

Exponent = tuple[int, int, int]
Scalar = Union[int, str, Fraction]
# An integer affine form a + b*u + c*v is the triple (a, b, c), kept over a
# denominator beside it; a wall v = (a + b*u)/d is the triple (a, b, d), d > 0.
Form = tuple[int, int, int]
# A polynomial as the integer numerators of its terms over one positive den.
Numerators = tuple[dict[Exponent, int], int]


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
        clean = {(int(e[0]), int(e[1]), int(e[2])): q(c) for e, c in (terms or {}).items()}
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

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
        return Poly._make({tuple(int(k == _index(name)) for k in range(3)): Fraction(1)})

    @staticmethod
    def coerce(x: "Poly | Scalar") -> "Poly":
        return x if isinstance(x, Poly) else Poly.const(x)

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
        d = other() if isinstance(other, Poly) else q(other)
        if d == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return Poly._make({e: c / d for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return reduce(Poly.__mul__, [self] * n, Poly.const(1))

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
        """The value at the given rationals, summed term by term with no
        intermediate Poly; ValueError naming the rest if a variable is left
        free, so that p() is the value of a constant p."""
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


def parse_poly(text: str) -> Numerators:
    """A polynomial over u, v, c, written as the fixtures, ``str`` and
    `form_text` write it, as {(i, j, m): a} for its terms a*u^i*v^j*c^m, no
    a zero, over one positive den in lowest terms.

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
        nums, den = _walk(ast.parse(text.strip().replace("^", "**"), mode="eval").body, text)
    except (SyntaxError, RecursionError):
        raise ValueError(f"malformed expression {text!r}") from None
    g = math.gcd(den, *nums.values())
    return {e: x // g for e, x in nums.items()}, den // g


_TEXT = re.compile(r"[0-9uvc+\-*/^() ]*")
_BAD_POWER = re.compile(r"\*\*|\^(?!\s*\d)")
# The fixtures reach total degree 3 and exponent 2, and `str` writes at most
# u^3*v^3*c^3 in the round trip; past this bound expansion could take
# unbounded time.
MAX_DEGREE = 9


def _walk(node: ast.expr, text: str, budget: int = MAX_DEGREE) -> Numerators:
    """The integer numerators and positive den of an expression node of total
    degree up to ``budget``: a power or product shares out the budget before
    either factor is expanded, so text past it is refused at once."""
    match node:
        case ast.Constant(value=int(n)):
            return {(0, 0, 0): n} if n else {}, 1
        case ast.Name(id=("u" | "v" | "c") as name) if budget >= 1:
            return {tuple(int(k == _VAR_INDEX[name]) for k in range(3)): 1}, 1
        case ast.UnaryOp(op=ast.UAdd() | ast.USub() as op, operand=x):
            nums, den = _walk(x, text, budget)
            return {e: -a for e, a in nums.items()} if isinstance(op, ast.USub) else nums, den
        case ast.BinOp(left=x, op=ast.Pow(), right=ast.Constant(value=int(n))) if n <= MAX_DEGREE:
            return reduce(_times, [_walk(x, text, budget // max(n, 1))] * n, ({(0, 0, 0): 1}, 1))
        case ast.BinOp(left=x, op=ast.Div(), right=y):
            d, e = _walk(y, text, budget)
            if d.keys() != {(0, 0, 0)}:
                raise ValueError(f"division by {Poly({k: Fraction(a, e) for k, a in d.items()})} in {text!r}")
            k = d[0, 0, 0]  # x / (k/e) is x * e/k, kept over a positive den
            return _times(_walk(x, text, budget), ({(0, 0, 0): e if k > 0 else -e}, abs(k)))
        case ast.BinOp(left=x, op=ast.Mult(), right=y):
            a = _walk(x, text, budget)
            # The second factor may reach what the first leaves of the budget.
            return _times(a, _walk(y, text, budget - max(map(sum, a[0]), default=0)))
        case ast.BinOp(left=x, op=ast.Add() | ast.Sub() as op, right=y):
            (a, da), (b, db) = _walk(x, text, budget), _walk(y, text, budget)
            out = {e: k * db for e, k in a.items()}
            for e, k in b.items():
                out[e] = out.get(e, 0) + (k if isinstance(op, ast.Add) else -k) * da
            return {e: k for e, k in out.items() if k}, da * db
        case ast.Name(id=("u" | "v" | "c")) | ast.BinOp(op=ast.Pow(), right=ast.Constant(value=int())):
            raise ValueError(f"total degree or exponent above {MAX_DEGREE} in {text!r}")
    raise ValueError(f"unsupported {ast.unparse(node).replace('**', '^')!r} in {text!r}")


def _times(x: Numerators, y: Numerators) -> Numerators:
    """The product of two integer-numerator polynomials, each over its den."""
    out: dict[Exponent, int] = {}
    for (a, b, c), k in x[0].items():
        for (i, j, m), n in y[0].items():
            out[a + i, b + j, c + m] = out.get((a + i, b + j, c + m), 0) + k * n
    return {e: k for e, k in out.items() if k}, x[1] * y[1]


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
    def v_lo(self) -> str:
        return form_text(self.lower[:2], self.lower[2])

    @cached_property
    def v_hi(self) -> str:
        return form_text(self.upper[:2], self.upper[2])

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


def form_text(form: Sequence[int], den: int) -> str:
    """The text of (a + b*u + c*v)/den for an integer form (a, b, c), or of
    (a + b*u)/den for (a, b), den > 0, as ``str`` writes its Poly: a wall
    v = (a + b*u)/d is form_text(w[:2], d)."""
    text = ""  # u, then v, then the constant term: the order of Poly.__str__
    for x, name in zip((*form[1:], form[0]), ("u", "v")[:len(form) - 1] + ("",)):
        if x:
            g = math.gcd(x, den)
            coef = f"{abs(x) // g}" if g == den else f"{abs(x) // g}/{den // g}"
            body = f"{coef}*{name}" if name and coef != "1" else name or coef
            text += (" - " if x < 0 else " + ") + body if text else ("-" if x < 0 else "") + body
    return text or "0"


def combine(terms: Iterable[tuple[int, int]], forms: Sequence[Form]) -> Form:
    """sum of k * forms[i] over the (i, k) of ``terms``."""
    a = b = c = 0
    for i, k in terms:
        f = forms[i]
        a += k * f[0]
        b += k * f[1]
        c += k * f[2]
    return a, b, c
