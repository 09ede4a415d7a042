"""Exact polynomial arithmetic, interpolation and chamber integration."""

import math
import operator
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fano_delta.exactmath import (
    AFFINE,
    MAX_DEGREE,
    Poly,
    at,
    form_text,
    gap,
    horner,
    integral,
    negative_end,
    numerators,
    parse_poly,
    root_inside,
)

from helpers import (
    ChamberFunction,
    affine_poly,
    as_poly,
    constant,
    grammar_expressions,
    check_continuity,
    coefficient,
    corners,
    evaluate,
    integer_rows,
    integrate,
    interpolate,
    interpolate_many,
    moment_integral,
    poly_chamber,
    reference_integrate_chamber,
    reference_integrate_univariate,
    reference_parse,
    total_degree,
    u_coefficients,
    walls,
)

U, V, C = Poly.var("u"), Poly.var("v"), Poly.var("c")


def rnd_poly(rng, deg=2, nvars=2):
    out = Poly()
    for _ in range(4):
        eu = rng.randrange(deg + 1)
        ev = rng.randrange(deg + 1 - eu) if nvars > 1 else 0
        coef = F(rng.randrange(-6, 7), rng.randrange(1, 5))
        out = out + coef * U**eu * V**ev
    return out


# ---------------------------------------------------------------------------
# Arithmetic and parsing
# ---------------------------------------------------------------------------


def test_canonical_terms_and_equality():
    p = (U + 1) * (U - 1)
    assert p == U**2 - 1
    assert p - U**2 + 1 == 0
    assert p.terms.get((1, 0, 0)) is None  # no zero coefficients stored


def test_parse_round_trip_on_table_style_expressions():
    for text in ("(8-u-3*v)/3", "u/2-2*v", "3*(4*v-u+1)/4", "-v", "2", "(7-6*c-u-v)^2/2"):
        p = as_poly(parse_poly(text))
        assert p == reference_parse(text)
        assert parse_poly(str(p)) == parse_poly(text)


@pytest.mark.parametrize("text, expected", [
    ("-u^2", -U**2),
    ("-2^2", F(-4)),
    ("2*-u^2", -2 * U**2),
    ("-u^2 + 1", 1 - U**2),
    ("(-u)^2", U**2),
    ("u^ 2", U**2),
    ("1/2/3", F(1, 6)),
])
def test_parse_follows_python_precedence(text, expected):
    # Unary minus binds looser than ^, as in Python: -u^2 is -(u^2).
    assert as_poly(parse_poly(text)) == expected


exponent_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
    max_size=6,
).map(Poly)


@settings(max_examples=300, deadline=None)
@given(exponent_polys)
def test_str_and_parse_round_trip(p):
    assert as_poly(parse_poly(str(p))) == p


@pytest.mark.parametrize("text", ["u^200000", "((1+u+v+c)^9)^9", "u^3*v^3*c^3*u", "2^10", "(u^5)^2"])
def test_parse_refuses_a_degree_past_the_bound_before_expanding(text):
    # Each text is refused before any power or product past degree 9 is
    # expanded: in well under 10 ms, where u^200000 used to take seconds.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"above {MAX_DEGREE} in {text!r}")):
        parse_poly(text)
    assert time.perf_counter() - start < 0.01


def test_parse_reaches_the_degree_bound():
    assert MAX_DEGREE == 9
    assert as_poly(parse_poly("u^3*v^3*c^3")) == U**3 * V**3 * C**3
    assert parse_poly("(u-u)^2*u^9") == ({}, 1)  # the product's degree is that of its value
    assert max(map(sum, parse_poly("(1+u)^9")[0])) == 9 and parse_poly("2^9") == ({(0, 0, 0): 512}, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("u +* v")
    with pytest.raises(ValueError):
        parse_poly("x + 1")
    for text in ("u/0", "1/0", "0/0", "(u+1)/(2-2)", "2^", "u^ ", "u/v", "u**2", "u^u",
                 "u^(2)", "u^2^2", "2^-1", "07", "()", "u v", "", "-" * 5000 + "1"):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_poly(text)


# The grammar's alphabet; at most one power with a one-digit exponent, so that
# no example expands a huge power.
grammar_text = st.text(alphabet="0123456789uvc+-*/^() ", max_size=24).filter(
    lambda text: text.count("^") <= 1 and not re.search(r"\^\s*\d\d", text))


@settings(max_examples=400, deadline=None)
@given(grammar_text)
def test_parse_returns_a_poly_or_raises_value_error(text):
    # A polynomial is its nonzero integer numerators over one positive den in lowest terms.
    try:
        nums, den = parse_poly(text)
    except ValueError:
        return
    assert type(den) is int and den > 0 and math.gcd(den, *nums.values()) == 1
    assert all(type(x) is int and x for x in nums.values())
    assert all(len(e) == 3 and all(type(k) is int and k >= 0 for k in e) for e in nums)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grammar_expressions)
def test_parse_equals_the_poly_oracle_or_refuses_as_it_does(text):
    # 400 texts: the same polynomial, or the same ValueError text.
    assert outcome(lambda: as_poly(parse_poly(text))) == outcome(lambda: reference_parse(text))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(["u", "v", "c", "(1+u)", "((u-2*v)/3)", "(c^2)"]), st.integers(1, 9)),
                min_size=1, max_size=4), st.booleans())
def test_a_text_past_the_budget_is_refused_with_the_oracle_message(factors, nested):
    # 150 products of powers whose total degree exceeds MAX_DEGREE, or the
    # same raised once more to the 2nd power.
    text = "*".join(f"{base}^{n}" for base, n in factors)
    degree = sum(n * (2 if base == "(c^2)" else 1) for base, n in factors)
    text, degree = (f"({text})^2", 2 * degree) if nested else (text, degree)
    if degree <= MAX_DEGREE:
        assert as_poly(parse_poly(text)) == reference_parse(text)
        return
    want = outcome(lambda: reference_parse(text))
    assert want == f"total degree or exponent above {MAX_DEGREE} in {text!r}"
    assert outcome(lambda: parse_poly(text)) == want


# Integer forms: zero and unit coefficients, multiples of small dens; dens
# that share factors with them.
form_entries = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-60, 60),
                         st.builds(operator.mul, st.integers(-5, 5), st.sampled_from((2, 3, 4, 6, 12))))
form_dens = st.one_of(st.sampled_from((1, 2, 3, 4, 6, 12)), st.integers(1, 90))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(form_entries, min_size=2, max_size=3), form_dens)
def test_form_text_is_the_oracle_text_and_parses_back(form, den):
    # 300 forms (a, b) or (a, b, c) over den.
    text = form_text(form, den)
    assert text == str(affine_poly(form, den))
    assert as_poly(parse_poly(text)) == affine_poly(form, den)


def test_division_only_by_constants():
    with pytest.raises(ValueError):
        (U + 1) / V


def test_substitution_partial_and_full():
    p = reference_parse("8*c^2+4*c*u-v^2-20*c-4*u+12")
    at_c = p.subs(c=F(1, 2))
    assert at_c == reference_parse("2+2*u-v^2-10-4*u+12")
    assert p(c=F(1, 2), u=1, v=0) == 2


def reference_subs(p, **values):
    """Reference for the kernel's differential tests: every term expanded
    with the Poly ring operations."""
    out = Poly()
    for exp, coef in p.terms.items():
        term = Poly.const(coef)
        for name, e in zip(("u", "v", "c"), exp):
            if e:
                term = term * Poly.coerce(values.get(name, Poly.var(name))) ** e
        out = out + term
    return out


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 5))
sparse_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    st.builds(F, st.integers(-30, 30), st.integers(1, 6)),
    max_size=6,
).map(Poly)
affine_polys = st.builds(lambda a, b, k: a * U + b * C + k, rationals, rationals, rationals)
kernel_settings = settings(max_examples=150, deadline=None)


def assert_canonical(p):
    assert all(type(c) is F and c != 0 for c in p.terms.values())
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in p.terms)


@kernel_settings
@given(sparse_polys, rationals, rationals, rationals)
def test_full_evaluation_matches_reference(p, u0, v0, c0):
    value = p(u=u0, v=v0, c=c0)
    assert type(value) is F
    assert value == constant(reference_subs(p, u=u0, v=v0, c=c0))


@kernel_settings
@given(sparse_polys, st.dictionaries(st.sampled_from("uvc"), rationals))
def test_partial_rational_subs_matches_reference(p, values):
    result = p.subs(**values)
    assert result == reference_subs(p, **values)
    assert_canonical(result)


@kernel_settings
@given(sparse_polys, affine_polys, affine_polys, st.one_of(st.none(), rationals))
def test_affine_subs_matches_reference(p, lo, hi, c0):
    for values in ({"v": hi}, {"v": lo, "u": hi}, {"v": hi, "c": c0}):
        values = {k: x for k, x in values.items() if x is not None}
        result = p.subs(**values)
        assert result == reference_subs(p, **values)
        assert_canonical(result)


@settings(max_examples=100, deadline=None)
@given(sparse_polys)
def test_power_equals_the_repeated_product(p):
    # 100 examples, each for n = 0..5.
    product = Poly.const(1)
    for n in range(6):
        assert p**n == product
        product = product * p


wide_fractions = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6), wide_fractions)
def test_horner_is_the_value_times_a_power_of_the_denominator(coeffs, x):
    # 200 examples; `at` is its degree-1 case.
    value = sum((a * x**i for i, a in enumerate(coeffs)), F(0))
    assert horner(coeffs, x) == value * x.denominator ** (len(coeffs) - 1)
    form = (coeffs + [0])[:2]
    assert at(form, x) == horner(form, x)


def test_evaluation_errors():
    p = reference_parse("u*v + c")
    with pytest.raises(ValueError, match="not a constant polynomial: "):
        p(u=1, c=2)
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        p(u=1, v=2, c=3, w=4)
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        p.subs(w=4)
    assert reference_parse("3*u")(u=F(1, 3), v=7) == 1  # values for absent variables are fine


# ---------------------------------------------------------------------------
# Interpolation (spec examples first)
# ---------------------------------------------------------------------------


def test_interpolate_affine_through_three_points():
    f = interpolate([((0, 0), 2), ((1, 0), 3), ((0, 1), 5), ((2, 3), F(13))], 1)
    assert f == 2 + U + 3 * V


def test_interpolate_univariate_square():
    f = interpolate([((0,), 0), ((1,), 1), ((2,), 4), ((3,), 9)], 2)
    assert f == V**2


def test_interpolate_requires_extra_sample():
    with pytest.raises(ValueError, match="insufficient samples"):
        interpolate([((0, 0), 2), ((1, 0), 3), ((0, 1), 5)], 1)


def test_interpolate_detects_wrong_degree():
    samples = [((x,), F(x) ** 3) for x in range(4)]
    with pytest.raises(ValueError, match="not polynomial of stated degree"):
        interpolate(samples, 2)


def test_interpolate_underdetermined_geometry():
    # Four collinear points cannot pin an affine function of two variables.
    samples = [((x, x), F(2 * x)) for x in range(4)]
    with pytest.raises(ValueError, match="insufficient samples"):
        interpolate(samples, 1)


def test_interpolate_round_trip_property():
    rng = random.Random(11)
    for _ in range(25):
        p = rnd_poly(rng, deg=2)
        pts = set()
        while len(pts) < 9:
            pts.add((F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5), 2)))
        samples = [((x, y), p(u=x, v=y)) for x, y in pts]
        assert interpolate(samples, 2, ("u", "v")) == p


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


# Affine in (u, v), plus a u*v term when the flag is set.
maybe_affine = st.builds(lambda a, b, k, bent: a * U + b * V + k + (U * V if bent else 0),
                         rationals, rationals, rationals, st.booleans())
plane_points = st.lists(st.tuples(rationals, rationals), min_size=4, max_size=6, unique=True)


@kernel_settings
@given(st.lists(maybe_affine, min_size=1, max_size=6), plane_points)
def test_shared_elimination_matches_per_column_interpolate(fns, points):
    values = [[f(u=u0, v=v0) for f in fns] for u0, v0 in points]
    per_column = [outcome(lambda col=col: interpolate(list(zip(points, col)), 1, ("u", "v")))
                  for col in zip(*values)]
    errors = {r for r in per_column if isinstance(r, str)}
    if not errors:
        expected = per_column
    elif "not polynomial of stated degree" in errors:
        expected = "not polynomial of stated degree"  # any non-affine column rejects all
    else:
        (expected,) = errors
    assert outcome(lambda: interpolate_many(points, values, 1, ("u", "v"))) == expected
    if not errors:  # the interpolant is exact on the affine columns
        assert all(got == f for got, f in zip(per_column, fns) if total_degree(f) <= 1)


def test_shared_elimination_rejects_one_bent_column():
    points = [(F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), F(2, 5)), (F(2, 3), F(3, 5))]
    fns = [U - 2 * V, 3 + V, U * V + U, F(1, 2) * U]
    values = [[f(u=u0, v=v0) for f in fns] for u0, v0 in points]
    straight = [[row[0], row[1], row[3]] for row in values]
    assert interpolate_many(points, straight, 1, ("u", "v")) == [fns[0], fns[1], fns[3]]
    with pytest.raises(ValueError, match="not polynomial of stated degree"):
        interpolate_many(points, values, 1, ("u", "v"))


# ---------------------------------------------------------------------------
# Integration (spec examples first)
# ---------------------------------------------------------------------------


def integrate_univariate(p: Poly, lo, hi) -> F:
    """`integral` of a Poly in u alone, read as integer coefficients."""
    return integral(*u_coefficients(p), F(lo), F(hi))


def test_univariate_paper_example():
    assert integrate_univariate(reference_parse("6*u*(1+u)"), 0, 1) == 5


def test_univariate_zero():
    assert integrate_univariate(Poly(), 0, 1) == 0


def test_univariate_against_antiderivative_oracle():
    # Oracle: the antiderivative of 6(1-c)(3-2c-u)^2 at c=1/2 is -(2-u)^3,
    # so the definite integral over [0, 3-2c] = [0, 2] is 2^3 = 8.
    c = F(1, 2)
    integrand = reference_parse("6*(1-c)*(3-2*c-u)^2").subs(c=c)
    hi = reference_parse("3-2*c")(c=c)
    oracle = -((2 - hi) ** 3) + 2**3
    assert integrate_univariate(integrand, 0, hi) == oracle == 8


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 5), st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 60)),
                       max_size=6),
       wide_fractions, wide_fractions)
def test_univariate_integral_equals_the_antiderivative_at_the_ends(coeffs, a, b):
    # 200 examples of degree <= 5 over ends with denominators up to 10^6.
    p = Poly({(i, 0, 0): x for i, x in coeffs.items()})
    lo, hi = min(a, b), max(a, b)
    assert integrate_univariate(p, lo, hi) == reference_integrate_univariate(p, lo, hi)


def test_univariate_arity_mismatch():
    # A volume is read as integers in u alone: a term in v is refused.
    with pytest.raises(ValueError, match=r"^u\*v is not in u alone$"):
        integrate_univariate(U * V, 0, 1)


def test_integer_rows_share_one_least_denominator():
    rows, den = integer_rows([reference_parse("u/2 - 1/3"), reference_parse("3*v + 1/4"), Poly()], AFFINE, "affine")
    assert (rows, den) == (((-4, 6, 0), (3, 0, 36), (0, 0, 0)), 12)
    assert integer_rows([reference_parse("2*u")], AFFINE[:2], "affine in u") == (((0, 2),), 1)
    assert integer_rows([], AFFINE, "affine") == ((), 1)
    with pytest.raises(ValueError, match=r"^u\^2 \+ 1 is not affine in u$"):
        integer_rows([reference_parse("u"), reference_parse("u^2+1")], AFFINE[:2], "affine in u")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(AFFINE), st.builds(F, st.integers(-50, 50), st.integers(1, 30)),
                                max_size=3), max_size=4))
def test_integer_rows_are_the_coefficients(terms):
    # Each row over the shared den is its Poly's coefficients, in lowest terms
    # over all of them.
    polys = [Poly(t) for t in terms]
    rows, den = integer_rows(polys, AFFINE, "affine")
    assert den > 0 and math.gcd(den, *(x for row in rows for x in row)) == 1
    assert [[F(x, den) for x in row] for row in rows] == [[coefficient(p, e) for e in AFFINE] for p in polys]


def test_chamber_trivial_unit_square():
    ch = poly_chamber(0, 1, Poly.const(0), Poly.const(1))
    assert moment_integral(reference_parse("2*(1-v)"), ch) == 1


def test_chamber_paper_half():
    # (1/3) [ iint 2(1-v) over [0,1]^2 + iint 2(1-v)(2-u) over [1,2]x[0,1] ]
    ch1 = poly_chamber(0, 1, Poly.const(0), Poly.const(1))
    ch2 = poly_chamber(1, 2, Poly.const(0), Poly.const(1))
    total = moment_integral(reference_parse("2*(1-v)"), ch1) + moment_integral(
        reference_parse("2*(1-v)*(2-u)"), ch2
    )
    assert total / 3 == F(1, 2)


def test_chamber_paper_seven_ninths():
    ch = poly_chamber(0, 1, Poly.const(0), reference_parse("1+u"))
    assert moment_integral(reference_parse("2*(1+u-v)"), ch) / 3 == F(7, 9)


def test_chamber_validation():
    with pytest.raises(ValueError, match="empty or inverted"):
        poly_chamber(1, 0, Poly.const(0), Poly.const(1))
    with pytest.raises(ValueError, match="empty or inverted"):
        poly_chamber(0, 1, Poly.const(1), Poly.const(0))
    with pytest.raises(ValueError, match="affine"):
        poly_chamber(0, 1, Poly.const(0), U**2)


def test_integration_linearity_property():
    rng = random.Random(5)
    ch = poly_chamber(0, 2, Poly.const(0), reference_parse("1+u"))
    for _ in range(20):
        p, q_ = rnd_poly(rng), rnd_poly(rng)
        a, b = F(rng.randrange(-5, 6), 3), F(rng.randrange(-5, 6), 2)
        lhs = moment_integral(a * p + b * q_, ch)
        assert lhs == a * moment_integral(p, ch) + b * moment_integral(q_, ch)


def test_fubini_on_rectangles():
    rng = random.Random(6)
    for _ in range(20):
        p = rnd_poly(rng)
        ch = poly_chamber(0, 3, Poly.const(-1), Poly.const(2))
        swapped = p.subs(u=V, v=U)
        ch_swapped = poly_chamber(-1, 2, Poly.const(0), Poly.const(3))
        assert moment_integral(p, ch) == moment_integral(swapped, ch_swapped)


affine_bounds = st.tuples(rationals, rationals).map(lambda ab: ab[0] + ab[1] * U)
# Integrands of degree <= 2, the degree of the chamber's one moment table.
uv_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2),
    st.builds(F, st.integers(-30, 30), st.integers(1, 6)),
    max_size=8,
).map(lambda terms: Poly({(a, b, 0): c for (a, b), c in terms.items()}))


@kernel_settings
@given(rationals, rationals, affine_bounds, affine_bounds, st.lists(uv_polys, min_size=1, max_size=3))
def test_chamber_moments_match_reference_integration(a, b, lo, hi, polys):
    u_lo, u_hi = min(a, b), max(a, b)
    # Shift hi so that lo <= hi at both ends, hence on the whole interval.
    gap = max(lo(u=u0) - hi(u=u0) for u0 in (u_lo, u_hi))
    if gap > 0:
        hi = hi + gap
    ch = poly_chamber(u_lo, u_hi, lo, hi)
    for p in polys:  # several integrands share the chamber's moment table
        assert moment_integral(p, ch) == reference_integrate_chamber(p, ch)


# Chambers as c-sweep's scans make them: u-ends and wall coefficients with
# denominators up to 10^6.
wide_rationals = st.integers(1, 10**6).flatmap(
    lambda d: st.builds(F, st.integers(-3 * d, 3 * d), st.just(d)))
wide_affine = st.tuples(wide_rationals, wide_rationals).map(lambda ab: ab[0] + ab[1] * U)


@st.composite
def wide_chambers(draw):
    u_lo = draw(wide_rationals)
    u_hi = u_lo + abs(draw(wide_rationals)) + F(1, draw(st.integers(1, 10**6)))
    lo = draw(wide_affine)
    # v_hi - v_lo: nonnegative at both ends, hence on the whole interval.
    g_lo, g_hi = (abs(draw(wide_rationals)) for _ in range(2))
    hi = lo + g_lo + (g_hi - g_lo) * (U - u_lo) / (u_hi - u_lo)
    return poly_chamber(u_lo, u_hi, lo, hi)


@kernel_settings
@given(wide_chambers(), st.lists(st.tuples(*[wide_rationals] * 3), min_size=1, max_size=3))
def test_integer_moment_table_matches_reference_on_wide_denominators(ch, forms):
    # Every chamber integral of the flag layers is an affine form f against
    # another form's moments iint f*(1, u, v).
    for coeffs in forms:  # several forms share the chamber's table
        (a, b, c), den = numerators(coeffs)
        moments, delta = ch.moments((a, b, c))
        f = (a + b * U + c * V) / den
        assert [F(m, den * delta) for m in moments] == [
            reference_integrate_chamber(f * x, ch) for x in (Poly.const(1), U, V)]


@kernel_settings
@given(wide_chambers(), st.tuples(wide_rationals, wide_rationals, wide_rationals))
def test_integer_corner_test_matches_rational_corners(ch, coeffs):
    a, b, c = coeffs
    form = a + b * U + c * V
    values = [form(u=u0, v=v0) for u0, v0 in corners(ch)]
    assert ch.nonnegative(numerators(coeffs)[0]) == (min(values) >= 0)
    # Shifted to vanish at its lowest corner, the form passes; any less fails.
    shifted, _ = numerators((a - min(values), b, c))
    assert ch.nonnegative(shifted)
    assert not ch.nonnegative((shifted[0] - 1, *shifted[1:]))


# exactmath's integer rule for forms and walls against the same values in
# Fractions: a + b*u of a form or wall (a, b, ...), its end values, and the
# root of an affine function from its values at two ends.

small_ints = st.integers(-40, 40)
int_walls = st.tuples(small_ints, small_ints, st.integers(1, 9))
u_intervals = st.lists(rationals, min_size=2, max_size=2, unique=True).map(sorted)


def sign(x):
    return (x > 0) - (x < 0)


def value_at(form, u0):
    """a + b*u of an integer form or wall (a, b, ...) at u0, as a Fraction."""
    return form[0] + form[1] * u0


def secant_root(f_lo, f_hi, lo, hi):
    """The root in (lo, hi) of the affine function with values f_lo at lo and
    f_hi at hi, where these have strictly opposite signs; else None."""
    return lo + (hi - lo) * f_lo / (f_lo - f_hi) if f_lo * f_hi < 0 else None


@kernel_settings
@given(int_walls, int_walls, u_intervals)
def test_form_rule_agrees_with_fractions(wall_, other, ends):
    lo, hi = ends
    for u0 in ends:
        # A wall v = (a + b*u)/d has the sign of its numerator; so does a form.
        assert sign(at(wall_, u0)) == sign(value_at(wall_, u0) / wall_[2])
        assert sign(at(wall_[:2], u0)) == sign(value_at(wall_, u0))
        # The gap of two walls has the sign of upper minus lower.
        rise = F(value_at(other, u0), other[2]) - F(value_at(wall_, u0), wall_[2])
        assert sign(at(gap(wall_, other), u0)) == sign(rise)
    negative = [u0 for u0 in ends if value_at(wall_, u0) < 0]
    assert negative_end(wall_[:2], lo, hi) == (negative[0] if negative else None)
    assert root_inside(*wall_[:2], lo, hi) == secant_root(value_at(wall_, lo), value_at(wall_, hi), lo, hi)


@kernel_settings
@given(wide_chambers(), st.tuples(small_ints, small_ints, small_ints),
       st.one_of(st.none(), st.tuples(st.booleans(), st.fractions(0, 1, max_denominator=9))))
def test_chamber_crossing_agrees_with_fractions(ch, form, pin):
    if pin is not None:  # the form moved to vanish at a point of one wall
        upper, s = pin
        u0 = ch.u_lo + (ch.u_hi - ch.u_lo) * s
        v0 = walls(ch)[upper](u=u0)
        form = numerators((-form[1] * u0 - form[2] * v0, F(form[1]), F(form[2])))[0]
    a, b, c = form
    # The form along each wall at the two u-ends: a crossing is a root
    # strictly inside, on the lower wall first.
    along = [[a + b * u0 + c * F(value_at(w, u0), w[2]) for u0 in (ch.u_lo, ch.u_hi)]
             for w in (ch.lower, ch.upper)]
    roots = [secant_root(*ends, ch.u_lo, ch.u_hi) for ends in along]
    expected = next((r for r in roots if r is not None), None)
    assert ch.crossing(form) == expected
    if expected is None:
        # None only when the form has one sign strictly inside on each wall,
        # or vanishes along it: sampled at interior points.
        for w in (ch.lower, ch.upper):
            inside = (ch.u_lo + (ch.u_hi - ch.u_lo) * F(k, 7) for k in range(1, 7))
            assert len({sign(a + b * u0 + c * F(value_at(w, u0), w[2])) for u0 in inside}) == 1
    else:
        w = ch.lower if roots[0] is not None else ch.upper
        assert ch.u_lo < expected < ch.u_hi
        assert a + b * expected + c * F(value_at(w, expected), w[2]) == 0


def test_chamber_function_continuity_check():
    good = ChamberFunction([
        (poly_chamber(0, 1, Poly.const(0), Poly.const(1)), U + V),
        (poly_chamber(1, 2, Poly.const(0), Poly.const(1)), U + V),
    ])
    assert check_continuity(good) == []
    bad = ChamberFunction([
        (poly_chamber(0, 1, Poly.const(0), Poly.const(1)), U + V),
        (poly_chamber(1, 2, Poly.const(0), Poly.const(1)), U + V + 1),
    ])
    assert check_continuity(bad)


def test_chamber_function_evaluate_and_integrate():
    fn = ChamberFunction([
        (poly_chamber(0, 1, Poly.const(0), U), Poly.const(1)),
        (poly_chamber(1, 2, Poly.const(0), Poly.const(1)), Poly.const(1)),
    ])
    assert evaluate(fn, F(1, 2), F(1, 4)) == 1
    assert integrate(fn) == F(3, 2)
    with pytest.raises(ValueError, match="outside"):
        evaluate(fn, F(1, 2), F(3, 4))

