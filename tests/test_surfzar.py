"""Surface Zariski decompositions, thresholds and chamber scans."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fano_delta import flagdelta, surfzar
from fano_delta.exactmath import Poly
from fano_delta.scenarios import builders, load_model, load_scenario_data, load_table
from fano_delta.surfzar import (
    NotPseudoeffectiveError,
    SurfaceModel,
    chamber_scan,
    row_mismatches,
)

from helpers import (
    ReferenceChamber,
    affine_poly,
    SurfDivisor,
    check_continuity,
    constant,
    curve_vector,
    dot_curve,
    evaluate,
    form_poly,
    interpolate,
    is_pseudoeffective,
    n_coeffs,
    p_coeffs,
    p_squared,
    pair,
    pseff_threshold,
    random_pseudoeffective,
    reference_chamber_scan,
    reference_check_row,
    reference_integrate_chamber,
    reference_parse,
    poly_chamber_scan,
    polys_of,
    reference_threshold_pieces,
    row_cells,
    table_row,
    threshold_at,
    threshold_pieces,
    wall_poly,
    walls,
    zariski_decompose,
)

U, V = Poly.var("u"), Poly.var("v")


@pytest.fixture(scope="module")
def d4():
    return load_model("d4-g")


@pytest.fixture(scope="module")
def a3():
    return load_model("a3-g")


@pytest.fixture(scope="module")
def heart():
    return load_model("m218-heart")


def ptilde_d4(interval):
    rows = {
        "24": ["u-6", "(u-4)/3", "1", "(8-u)/3", "7-u", "0"],
        "45": ["u-6", "0", "1", "(8-u)/3", "7-u", "0"],
        "56": ["u-6", "0", "(7-u)/2", "(7-u)/2", "7-u", "0"],
    }
    return [reference_parse(s) for s in rows[interval]]


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SurfaceModel(["a", "b"], [["0", "1"], ["2", "0"]])
    with pytest.raises(ValueError, match="dimensions"):
        SurfaceModel(["a"], [["0", "1"]])


def test_relations_annihilate_numerically(d4):
    for rel in d4.relations:
        for j in range(d4.n):
            assert dot_curve(d4, rel, j) == 0
    assert len(d4.relations) == 2


def reference_dot_curve(model, x, j):
    """The term-by-term expansion: one Poly product per Gram entry."""
    total = Poly()
    for i in range(model.n):
        total = total + Poly.coerce(x[i]) * Poly.const(model.gram[i][j])
    return total


def reference_pair(model, x, y):
    total = Poly()
    for i in range(model.n):
        for j in range(model.n):
            total = total + Poly.coerce(x[i]) * Poly.const(model.gram[i][j]) * Poly.coerce(y[j])
    return total


small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
coefficients = st.one_of(
    small_rationals,
    st.integers(-3, 3),
    st.builds(lambda a, b, k: a * U + b * V + k, small_rationals, small_rationals, small_rationals),
)


@st.composite
def models_and_classes(draw):
    n = draw(st.integers(1, 5))
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.one_of(st.just(F(0)), small_rationals))
    model = SurfaceModel([f"C{i}" for i in range(n)], gram)
    vec = st.lists(coefficients, min_size=n, max_size=n)
    return model, draw(vec), draw(vec)


@settings(max_examples=200, deadline=None)
@given(models_and_classes())
def test_sparse_gram_kernel_matches_reference(case):
    # The integer Gram columns of the scans, over the Gram scale, and the
    # Poly oracles of the tests both agree with the term-by-term expansion.
    model, x, y = case
    for j in range(model.n):
        want = reference_dot_curve(model, x, j)
        scaled = sum((Poly.coerce(x[i]) * g for i, g in model._int_columns[j]), Poly())
        assert all(g for _, g in model._int_columns[j]) and scaled / model._gram_scale == want
        got = dot_curve(model, x, j)
        assert isinstance(got, Poly) and got == want
    got = pair(model, x, y)
    assert isinstance(got, Poly) and got == reference_pair(model, x, y)
    assert all(c != 0 for c in got.terms.values())


def test_facets_agree_with_lp_feasibility(d4):
    rng = random.Random(2)
    for _ in range(30):
        coeffs = [F(rng.randrange(-3, 7), rng.randrange(1, 4)) for _ in range(6)]
        by_facets = is_pseudoeffective(d4, coeffs)
        try:
            pseff_threshold(d4, SurfDivisor(d4, coeffs), 0)
            by_lp = True
        except NotPseudoeffectiveError:
            by_lp = False
        assert by_facets == by_lp


# ---------------------------------------------------------------------------
# Decomposition (spec examples first)
# ---------------------------------------------------------------------------


def test_heart_decomposition_against_printed_formulas(heart):
    # Oracle: the printed heart-case closed forms at c=1/2, u=0, v=3 give
    # N = (v+u+2c-3)/2 * s + (v-4+4c) * f and P^2 = (7-6c-u-v)^2/2 = 1/2.
    c, u, v = F(1, 2), F(0), F(3)
    coeffs = [7 - 6 * c - u - v, 3 - 2 * c - u, 2 - 2 * c]  # order (z, f, s)
    dec = zariski_decompose(heart, SurfDivisor(heart, coeffs))
    n_s = (v + u + 2 * c - 3) / 2
    n_f = v - 4 + 4 * c
    assert [constant(x) for x in dec.negative.coeffs] == [0, n_f, n_s]
    # P = (7-6c-u-v)/2 * (s + 2f + 2z) = z + f + s/2 at this point.
    assert [constant(x) for x in dec.positive.coeffs] == [1, 1, F(1, 2)]
    p_sq = constant(pair(heart, dec.positive.coeffs, dec.positive.coeffs))
    assert p_sq == (7 - 6 * c - u - v) ** 2 / 2 == F(1, 2)
    assert dec.validate() == []


def test_nef_divisor_is_its_own_positive_part(heart):
    dec = zariski_decompose(heart, SurfDivisor(heart, [2, 1, 1]))
    assert dec.support == () and all(x == 0 for x in dec.negative.coeffs)


def test_not_pseudoeffective_errors(heart):
    with pytest.raises(NotPseudoeffectiveError):
        zariski_decompose(heart, SurfDivisor(heart, [-1, 0, 0]))


def test_decomposition_invariants_random(d4, a3, heart):
    rng = random.Random(17)
    for model in (d4, a3, heart, load_model("m34-s-weighted"), load_model("m34-quadric")):
        for _ in range(40):
            dec = zariski_decompose(model, random_pseudoeffective(model, rng))
            assert dec.validate() == []


def test_decomposition_permutation_invariance(d4):
    rng = random.Random(23)
    perm = [4, 0, 5, 2, 1, 3]
    inverse = {old: new for new, old in enumerate(perm)}
    permuted = SurfaceModel(
        [d4.curve_names[i] for i in perm],
        [[d4.gram[perm[i]][perm[j]] for j in range(6)] for i in range(6)],
    )
    for _ in range(20):
        d = random_pseudoeffective(d4, rng)
        dec = zariski_decompose(d4, d)
        shuffled = SurfDivisor(permuted, [d.coeffs[i] for i in perm])
        dec_p = zariski_decompose(permuted, shuffled)
        for old in range(6):
            assert dec.negative.coeffs[old] == dec_p.negative.coeffs[inverse[old]]


# ---------------------------------------------------------------------------
# Thresholds (spec examples first)
# ---------------------------------------------------------------------------


def test_threshold_d4_alpha1(d4):
    base = [p.subs(u=F(3, 2)) for p in [reference_parse(s) for s in
            ["u-6", "(u-4)/3", "1", "2", "7-u", "0"]]]
    assert pseff_threshold(d4, SurfDivisor(d4, base), 0) == 1


def test_threshold_single_curve():
    model = SurfaceModel(["c"], [["-1"]])
    assert pseff_threshold(model, SurfDivisor(model, [2]), 0) == 2


def test_threshold_a3_alpha0(a3):
    base = [reference_parse(s).subs(u=8) for s in
            ["0", "0", "(10-u)/6", "(10-u)/3", "(10-u)/2", "0"]]
    t = pseff_threshold(a3, SurfDivisor(a3, base), [1, 2, 1, 0, 0, 0])
    assert t == F(1, 4)


def test_threshold_pieces_are_affine_and_lp_checked(d4):
    pieces = threshold_pieces(d4, ptilde_d4("56"), [1, 1, 1, 0, 0, 0], 5, 6)
    assert [(p.u_lo, p.u_hi, str(p.t)) for p in pieces] == [(5, 6, "-1/3*u + 7/3")]


def test_threshold_not_pseudoeffective(d4):
    with pytest.raises(NotPseudoeffectiveError):
        pseff_threshold(d4, SurfDivisor(d4, [-1, 0, 0, 0, 0, 0]), 0)


# ---------------------------------------------------------------------------
# Threshold certificates (an optimal LP basis per piece)
# ---------------------------------------------------------------------------


def fresh(model):
    """An equal model with an empty basis store."""
    return SurfaceModel(model.curve_names, model.gram)


def test_certificate_refuses_a_feasible_basis_that_is_not_optimal(d4, monkeypatch):
    # The basis of the slack columns e is feasible for a nonnegative divisor
    # and has LP value 0, so only the reduced costs show that v can still grow.
    model = fresh(d4)
    k, n = len(model.relations), model.n
    slack = list(range(1 + 2 * k, 1 + 2 * k + n))
    monkeypatch.setattr(surfzar.lp, "solve_max", lambda c, a, b: surfzar.lp.LPResult(
        surfzar.lp.OPTIMAL, [F(0)] * (1 + 2 * k) + list(b), F(0), slack))
    with pytest.raises(AssertionError, match="not optimal"):
        threshold_pieces(model, [1] * n, 0, 0, 1)


def test_certificate_refuses_a_cold_basis_infeasible_at_its_sample(monkeypatch):
    # Two disjoint (-1)-curves and C = a + b: v <= D_a and v <= D_b.  A solve
    # that answers for the swapped divisor (2, 1) returns the basis with
    # v = D_b, optimal there, but e_a = D_a - D_b = -1 < 0 at the sample.
    solve = surfzar.lp.solve_max
    monkeypatch.setattr(surfzar.lp, "solve_max", lambda c, a, b: solve(c, a, b[::-1]))
    with pytest.raises(AssertionError, match="not feasible at u=1/2$"):
        threshold_pieces(two_curves(), [1, 2], [1, 1], 0, 1)


def test_certificate_refuses_a_piece_past_its_basis(monkeypatch):
    # With C = a, the basic variable e_b = 1 - u ends the first basis at
    # u = 1; an interval that runs past it is caught by the end signs.
    monkeypatch.setattr(surfzar, "_basis_interval", lambda basic, lo, hi: (lo, hi))
    with pytest.raises(AssertionError, match="not feasible at u=2$"):
        threshold_pieces(two_curves(), [1, 1 - U], 0, 0, 2)


def affine_families(model_names):
    @st.composite
    def draw(draw):
        model = load_model(draw(st.sampled_from(model_names)))
        coefficient = st.fractions(min_value=0, max_value=6, max_denominator=4)
        ends = [draw(st.lists(coefficient, min_size=model.n, max_size=model.n))
                for _ in range(2)]
        lo = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        hi = lo + draw(st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5))
        # base(u) runs from the first end at lo to the second at hi: a
        # convex combination of two effective classes, so pseudoeffective.
        base = [a + (b - a) * (U - lo) / (hi - lo) for a, b in zip(*ends)]
        curve = draw(st.one_of(
            st.integers(0, model.n - 1),
            st.lists(st.integers(0, 2), min_size=model.n, max_size=model.n).filter(any)))
        return model, base, curve, lo, hi
    return draw()


CERTIFIED_MODELS = ("d4-g", "a3-g", "m218-p2", "m218-ok", "m218-heart", "m218-diamond",
                    "m218-blowup", "m218-blowup-tangent")


@settings(max_examples=120, deadline=None)
@given(affine_families(CERTIFIED_MODELS), st.data())
def test_certified_pieces_equal_a_cold_lp_inside(case, data):
    model, base, curve, lo, hi = case
    pieces = threshold_pieces(model, base, curve, lo, hi)
    assert pieces[0].u_lo == lo and pieces[-1].u_hi == hi
    assert all(a.u_hi == b.u_lo for a, b in zip(pieces, pieces[1:]))
    for piece in pieces:
        at = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        u0 = piece.u_lo + (piece.u_hi - piece.u_lo) * at
        cold = pseff_threshold(model, SurfDivisor(model, [b(u=u0) for b in base]), curve)
        assert cold == wall_poly(piece.wall)(u=u0)


def count_solves(monkeypatch):
    calls = []
    solve = surfzar.lp.solve_max
    monkeypatch.setattr(surfzar.lp, "solve_max", lambda *a: calls.append(a) or solve(*a))
    return calls


def test_kept_basis_serves_another_u_range_without_a_solve(d4, monkeypatch):
    model = fresh(d4)
    calls = count_solves(monkeypatch)
    first = threshold_pieces(model, ptilde_d4("24"), 0, 2, 4)
    assert calls and len(model._threshold_lps) == 1
    del calls[:]
    again = threshold_pieces(model, ptilde_d4("24"), 0, F(5, 2), F(7, 2))
    assert calls == []
    assert [p.t for p in again] == [p.t for p in first if p.u_lo < F(7, 2) and p.u_hi > F(5, 2)]


def test_basis_store_stays_bounded_over_many_c(monkeypatch):
    names = sorted({spec["model"] for spec in load_scenario_data("218")["cases"].values()})

    def stored():
        return sum(len(t.bases) for name in names for t in load_model(name)._threshold_lps.values())

    def blocks():
        return {name: set(load_model(name)._support_blocks) for name in names}

    before = stored()
    calls = count_solves(monkeypatch)
    builders.run_218([F(k, 31) for k in range(1, 31, 3)])
    size = stored()
    assert size - before == len(calls) <= len(names)
    supports = blocks()
    assert any(supports.values())
    del calls[:]
    checks = builders.run_218([F(k, 31) for k in range(2, 31, 3)])
    assert not [c.label for c in checks if c.status == builders.FAIL]
    assert calls == [] and stored() == size
    # The Gram block of a support depends on the model only, not on c.
    assert blocks() == supports


def test_family_leaving_the_cone_inside_a_piece_raises():
    # t(u) = 1 - u is one envelope piece on [0, 3/2] and is negative past 1;
    # the LP at the midpoint 3/4 is feasible, so only a certificate of the
    # whole piece finds the infeasible part.
    model = SurfaceModel(["c"], [["-1"]])
    with pytest.raises(NotPseudoeffectiveError):
        threshold_pieces(model, [1 - U], 0, 0, F(3, 2))
    (piece,) = threshold_pieces(model, [1 - U], 0, 0, 1)
    assert piece.t == str(1 - U)


@pytest.mark.parametrize("second, end", [(1 - U, 2), (1 + U, -2)])
def test_zero_facet_is_checked_at_both_ends(second, end):
    # Two disjoint (-1)-curves: the facet x_2 >= 0 does not bound v for
    # C = curve 0.  The first basis holds until x_2 = 0 at u = end/2; the walk
    # samples the middle of the rest, 3/4 of the way to the end, and finds
    # the family outside the cone there.
    model = SurfaceModel(["a", "b"], [["-1", "0"], ["0", "-1"]])
    with pytest.raises(NotPseudoeffectiveError, match=f"at u={F(3, 4) * end}$"):
        threshold_pieces(model, [1, second], 0, min(0, end), max(0, end))


# ---------------------------------------------------------------------------
# Chamber scans (spec examples first)
# ---------------------------------------------------------------------------


def test_scan_d4_alpha1_splits_at_u_minus_4(d4):
    scan = poly_chamber_scan(d4, ptilde_d4("45"), curve_vector(d4, 0), 4, 5)
    assert len(scan.chambers) == 2
    first, second = scan.chambers
    assert first.forms.support == () and str(first.chamber.v_hi) == "u - 4"
    assert second.forms.support == (1,)
    assert n_coeffs(second)[1] == reference_parse("(v+4-u)/3")
    assert p_coeffs(second)[1] == reference_parse("(u-4-v)/3")


def test_scan_nef_family_single_chamber(d4):
    # On [0,1] for C = alpha0 the family stays nef up to the threshold...
    scan = poly_chamber_scan(
        d4,
        [reference_parse(s) for s in ["u-6", "u-2", "u", "2", "6", "0"]],
        [1, 1, 1, 0, 0, 0],
        0,
        1,
    )
    assert len(scan.chambers) == 1
    assert scan.chambers[0].forms.support == ()


def test_scan_a3_alpha1_splits(a3):
    base = [reference_parse(s) for s in ["(u-8)/2", "0", "1/2", "(11-u)/4", "(10-u)/2", "0"]]
    scan = poly_chamber_scan(a3, base, curve_vector(a3, 0), 5, 7)
    lows = [str(ch.chamber.v_lo) for ch in scan.chambers]
    assert lows == ["0", "1/2*u - 5/2"]
    assert n_coeffs(scan.chambers[1])[1] == reference_parse("(2*v-u+5)/4")


def test_scan_detects_crossing_split(a3):
    # alpha0 case on [5,7]: boundaries cross at u = 13/2.
    base = [reference_parse(s) for s in ["(u-8)/2", "0", "1/2", "(11-u)/4", "(10-u)/2", "0"]]
    scan = poly_chamber_scan(a3, base, [1, 2, 1, 0, 0, 0], 5, 7)
    boundaries = {(str(ch.chamber.u_lo), str(ch.chamber.u_hi)) for ch in scan.chambers}
    assert ("13/2", "7") in boundaries or ("6", "13/2") in boundaries


def test_scan_p_squared_continuity_and_monotonicity(d4):
    scan = poly_chamber_scan(d4, ptilde_d4("24"), curve_vector(d4, 0), 2, 4)
    p_sq = p_squared(scan)
    assert check_continuity(p_sq) == []
    for u0 in (F(5, 2), F(3), F(7, 2)):
        t = threshold_at(scan, u0)
        values = [evaluate(p_sq, u0, t * F(k, 8)) for k in range(9)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0


def test_scan_boundary_well_posedness(d4):
    # At v = t(u) the decomposition still exists and P^2 >= 0.
    base = ptilde_d4("24")
    cvec = [F(1), F(0), F(0), F(0), F(0), F(0)]
    for u0 in (F(5, 2), F(13, 4)):
        t = pseff_threshold(d4, SurfDivisor(d4, [b.subs(u=u0) for b in base]), 0)
        coeffs = [b.subs(u=u0) - t * c for b, c in zip(base, cvec)]
        dec = zariski_decompose(d4, SurfDivisor(d4, coeffs))
        assert dec.validate() == []
        assert constant(pair(d4, dec.positive.coeffs, dec.positive.coeffs)) >= 0


def test_scan_follows_a_curve_leaving_the_support(heart):
    # D = z + (4 - v)*s on the heart model (z, f, s): s carries N_s = 7/2 - v
    # until it leaves the support at v = 7/2, where z enters.  The v-walk must
    # take the vanishing of N_s as the wall.
    scan = poly_chamber_scan(heart, [1, 0, 4], curve_vector(heart, 2), 0, 1)
    assert [(str(ch.chamber.v_lo), str(ch.chamber.v_hi), ch.forms.support) for ch in scan.chambers] == [
        ("0", "7/2", (2,)), ("7/2", "4", (0,))]
    for ch in scan.chambers:
        lo, hi = walls(ch.chamber)
        for v0 in (lo(u=0) + F(1, 4), hi(u=0) - F(1, 4)):
            dec = zariski_decompose(heart, SurfDivisor(heart, [1, 0, 4 - v0]))
            assert dec.support == ch.forms.support
            assert [constant(x) for x in dec.negative.coeffs] == [
                n(u=F(1, 2), v=v0) for n in n_coeffs(ch)]


def test_zero_width_piece_has_no_chamber(d4):
    # t = 0 on all of [0, 1]: the v-range is the line v = 0, where the
    # support search just above it would meet a singular Gram block.
    for scan in (poly_chamber_scan, reference_chamber_scan):
        result = scan(load_model("d4-g"), [0] * 6, curve_vector(d4, 0), 0, 1)
        assert result.chambers == ()
        assert [(p.u_lo, p.u_hi, p.t) for p in result.threshold] == [(0, 1, str(Poly()))]


# The symbolic certificate is the only proof of a chamber: each wrong input
# it is handed must be rejected by the check that covers it.


def test_scan_rejects_shifted_support_coefficient(d4, monkeypatch):
    # N_j + 1/1000 with P = D - N: P.C_j is no longer 0 on the support.
    original = surfzar._negative_part

    def shifted(family, support):
        den, n = original(family, support)
        if not support:
            return den, n
        n = [(1000 * a, 1000 * b, 1000 * c) for a, b, c in n]
        a, b, c = n[support[0]]
        n[support[0]] = (a + den, b, c)
        return 1000 * den, n

    monkeypatch.setattr(surfzar, "_negative_part", shifted)
    with pytest.raises(surfzar.ScanError, match="support orthogonality failed symbolically") as info:
        poly_chamber_scan(d4, ptilde_d4("56"), curve_vector(d4, 5), 5, 6)
    error = info.value
    assert (error.reason, error.u_lo, error.u_hi, error.depth) == (
        "support orthogonality failed symbolically", 5, 6, 0)
    assert str(error) == "support orthogonality failed symbolically (u in [5, 6], depth 0)"


@pytest.mark.parametrize("shift, failure", [
    # The empty-support chamber below reaches past its wall, where P is not nef.
    (F(1, 100), "nef condition failed inside chamber"),
    # The chamber above reaches below its wall, where N_j < 0.
    (F(-1, 100), "negative support coefficient in chamber"),
])
def test_scan_rejects_shifted_wall(d4, monkeypatch, shift, failure):
    original = surfzar._column_structure

    def shifted(*args):
        columns = original(*args)
        # The wall v = (a + b*u)/d moved up by shift.
        a, b, d = columns[1].lower
        columns[1].lower = (a * shift.denominator + shift.numerator * d,
                            b * shift.denominator, d * shift.denominator)
        return columns

    monkeypatch.setattr(surfzar, "_column_structure", shifted)
    # Unpatched: v = 3 - u/2 is the one wall, between supports () and (alpha0,).
    with pytest.raises(surfzar.ScanError, match=failure):
        poly_chamber_scan(d4, ptilde_d4("56"), curve_vector(d4, 5), 5, 6)


# The integer scan against the same algorithm on rational Polys.

def scan_outcome(scan, *args):
    """The chambers of a scan with their N and P, or the kind and reason of
    the error it raises (a `ScanError` carries the reason a bare
    RuntimeError of the Poly scan prints)."""
    try:
        return [tuple(ch) if isinstance(ch, ReferenceChamber) else
                (ch.chamber, ch.forms.support, n_coeffs(ch), p_coeffs(ch)) for ch in scan(*args).chambers]
    except RuntimeError as exc:
        return "RuntimeError", getattr(exc, "reason", str(exc))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def boundary_weights():
    """c in (0, 1), with denominators up to 10^6."""
    return st.one_of(
        st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12),
        st.integers(2, 10**6).flatmap(lambda d: st.builds(F, st.integers(1, d - 1), st.just(d))))


@st.composite
def families_at_c(draw):
    model = load_model(draw(st.sampled_from(CERTIFIED_MODELS)))
    c = draw(boundary_weights())
    small = st.fractions(min_value=0, max_value=4, max_denominator=4)
    coefficient = st.builds(lambda a, b: a + b * c, small, small)
    ends = [draw(st.lists(coefficient, min_size=model.n, max_size=model.n)) for _ in range(2)]
    lo = draw(st.fractions(min_value=-2, max_value=2, max_denominator=5))
    hi = lo + draw(st.fractions(min_value=0, max_value=3, max_denominator=5)) + c
    # A convex combination of two effective classes: pseudoeffective.
    base = [a + (b - a) * (U - lo) / (hi - lo) for a, b in zip(*ends)]
    curve = draw(st.one_of(
        st.integers(0, model.n - 1),
        st.lists(st.integers(0, 2), min_size=model.n, max_size=model.n).filter(any)))
    return model, base, curve_vector(model, curve), lo, hi


@settings(max_examples=150, deadline=None)
@given(families_at_c())
def test_integer_scan_equals_reference_scan_on_random_families(case):
    assert scan_outcome(poly_chamber_scan, *case) == scan_outcome(reference_chamber_scan, *case)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(load_scenario_data("218")["cases"])), boundary_weights())
def test_integer_scan_equals_reference_scan_on_218_families(case, c):
    scenario = builders.Case218(case, c).scenario
    for piece in scenario.pieces:
        args = (scenario.curve_class, piece.u_lo, piece.u_hi)
        assert scan_outcome(chamber_scan, scenario.model, piece.coeffs, piece.den, *args) == scan_outcome(
            reference_chamber_scan, scenario.model, polys_of(piece.coeffs, piece.den), *args)


# The threshold walk against the facet envelope on rational Polys.

def threshold_outcome(pieces_of, model, *args):
    """The pieces (u_lo, u_hi, t) on a fresh copy of the model, or the type
    of the error raised."""
    try:
        return [(p.u_lo, p.u_hi, str(p.t)) for p in pieces_of(fresh(model), *args)]
    except (ValueError, RuntimeError, AssertionError) as exc:
        return type(exc)


def two_curves():
    # Two disjoint (-1)-curves: facets x_a >= 0 and x_b >= 0.
    return SurfaceModel(["a", "b"], [["-1", "0"], ["0", "-1"]])


@pytest.mark.parametrize("model, base, curve, lo, hi", [
    (two_curves(), [1, 1], [1, 1], 0, 1),  # tied lines: both facets give t = 1
    (two_curves(), [1 + U, 2 - U], [1, 1], 0, 1),  # the lines cross at u = 1/2
    (two_curves(), [1, 1 - U], 0, 0, 2),  # h(C) = 0 facet negative at u = 2
    (two_curves(), [1 - U, 1], 0, 0, 2),  # the envelope leaves the cone inside
    (two_curves(), [U * U, 1], 0, 0, 1),  # not affine in u
    (SurfaceModel(["c"], [["-1"]]), [1], [-1], 0, 1),  # no facet bounds v
    (load_model("d4-g"), ptilde_d4("24"), 0, 3, 3),  # a zero-width piece
    (load_model("d4-g"), [0] * 6, 0, 0, 1),  # t = 0
    (load_model("a3-g"), [reference_parse(s) for s in ["(u-8)/2", "0", "1/2", "(11-u)/4", "(10-u)/2", "0"]],
     [1, 2, 1, 0, 0, 0], 5, 7),
    # A point where bases of t = u and t = 0 tie: the piece is the value 0.
    (SurfaceModel(["a", "b", "c"], [["-1", "1", "1"], ["1", "-1", "0"], ["1", "0", "-1"]]), [U, 0, 0],
     [1, 0, 1], 0, 0),
])
def test_integer_thresholds_equal_reference_on_edge_cases(model, base, curve, lo, hi):
    got = threshold_outcome(threshold_pieces, model, base, curve, lo, hi)
    assert got == threshold_outcome(reference_threshold_pieces, model, base, curve, lo, hi)


@settings(max_examples=200, deadline=None)
@given(families_at_c(), st.sampled_from(["as drawn", "apex", "zero width", "reversed curve"]))
def test_integer_thresholds_equal_reference_on_random_families(case, variant):
    model, base, curve, lo, hi = case
    if variant == "apex":  # base(lo) = 0: every line passes through 0 there, a tie
        base = [b(u=hi) * (U - lo) / (hi - lo) for b in base]
    elif variant == "zero width":
        hi = lo
    elif variant == "reversed curve":  # C with negative weights: facets with h(C) <= 0
        curve = [-x for x in curve]
    got = threshold_outcome(threshold_pieces, model, base, curve, lo, hi)
    assert got == threshold_outcome(reference_threshold_pieces, model, base, curve, lo, hi)


def test_thresholds_of_a_full_report_equal_the_facet_reference(monkeypatch):
    """Every chamber scan of a cold full report has the threshold pieces of
    the facet envelope."""
    from fano_delta import cli, scenarios

    scans = []
    scan = flagdelta.chamber_scan
    monkeypatch.setattr(flagdelta, "chamber_scan", lambda *args: scans.append((args, scan(*args))) or scans[-1][1])
    for cache in (scenarios.fixture, scenarios._parsed, flagdelta.scenario_scans):
        cache.cache_clear()
    cli.build_report("all", None)
    assert len(scans) == 104
    for (model, base, den, *args), result in scans:
        assert [(p.u_lo, p.u_hi, p.t) for p in result.threshold] == [
            (r.u_lo, r.u_hi, str(r.t)) for r in reference_threshold_pieces(model, polys_of(base, den), *args)]


# The threshold on a sub-interval is the envelope of the whole interval
# clipped to it: the toric runner reads each cell's threshold from its scan.

def clipped(pieces, a, b):
    """(u_lo, u_hi, wall) of each piece that meets [a, b] in positive width,
    cut to [a, b]."""
    return [(max(a, p.u_lo), min(b, p.u_hi), p.wall) for p in pieces
            if max(a, p.u_lo) < min(b, p.u_hi)]


def sub_interval_pieces(model, base, curve, a, b):
    return [(p.u_lo, p.u_hi, p.wall) for p in threshold_pieces(model, base, curve, a, b)]


@settings(max_examples=150, deadline=None)
@given(families_at_c(), st.data())
def test_sub_interval_threshold_is_the_clipped_envelope(case, data):
    model, base, curve, lo, hi = case
    try:
        whole = threshold_pieces(model, base, curve, lo, hi)
    except (ValueError, RuntimeError):
        return  # no threshold on [lo, hi]; the edge-case tests cover the errors
    # Ends at rational points of [lo, hi], or at the envelope's breakpoints.
    ends = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=7).map(lambda s: lo + s * (hi - lo)),
        st.sampled_from([p.u_lo for p in whole] + [whole[-1].u_hi]))
    a, b = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    assert sub_interval_pieces(model, base, curve, a, b) == clipped(whole, a, b)


@pytest.mark.parametrize("family", builders.TORIC_FAMILIES)
def test_printed_threshold_cells_read_the_clipped_envelope(family):
    """Every printed threshold cell meets each base piece in an interval on
    which a cold envelope equals the scan's envelope clipped to it."""
    fam = builders.ToricFamily(family)
    cells = load_table(fam.data["star"]["table_threshold"]).cells
    compared = 0
    for curve, rows in cells.items():
        scenario = fam.flag_scenario(curve)
        for piece, scan in zip(scenario.pieces, flagdelta.scenario_scans(scenario)):
            for cell in rows:
                a, b = max(cell.u_lo, piece.u_lo), min(cell.u_hi, piece.u_hi)
                if a < b:
                    got = sub_interval_pieces(fam.surface, polys_of(piece.coeffs, piece.den), scenario.curve_class, a, b)
                    assert got == clipped(scan.threshold, a, b)
                    compared += 1
    assert compared >= sum(map(len, cells.values()))  # every cell meets a piece


# ---------------------------------------------------------------------------
# Table verification
# ---------------------------------------------------------------------------


def table_04_row_at_4(d4):
    """The scan of table 04's alpha1 flag over [4, 5] and its printed row
    there with v_lo = 0."""
    scan = poly_chamber_scan(d4, ptilde_d4("45"), curve_vector(d4, 0), 4, 5)
    rows = [r for r in load_table("table-04").rows if r.region.u_lo == 4 and str(r.region.v_lo) == "0"]
    assert len(rows) == 1
    return scan, rows[0]


def test_verify_accepts_correct_rows(d4):
    scan, row = table_04_row_at_4(d4)
    assert row_mismatches(scan, row) == []


def test_verify_flags_tampered_row(d4):
    scan, row = table_04_row_at_4(d4)
    p, n = row_cells(row)
    region = row.region
    tampered = table_row(region.u_lo, region.u_hi, *walls(region), p, [reference_parse("v/7"), *n[1:]])
    (mm,) = row_mismatches(scan, tampered)
    assert mm.field == "N" and mm.curve == "alpha1"
    assert mm.printed == "1/7*v" and mm.recomputed == "0"


def test_verify_flags_region_outside_threshold(d4):
    scan = poly_chamber_scan(d4, ptilde_d4("45"), curve_vector(d4, 0), 4, 5)
    row = table_row(F(4), F(5), reference_parse("3"), reference_parse("4"), [Poly()] * 6, [Poly()] * 6)
    assert [mm.field for mm in row_mismatches(scan, row)] == ["region"]


@pytest.mark.parametrize("v_lo, v_hi, printed", [
    ("0", "1/10", 0),  # meets the second chamber only for u < 41/10
    ("9/10", "1", 1),  # meets the first chamber only for u > 49/10
    # A steep band that crosses both chambers between u = 9/2 and 19/4,
    # where no bound of the row is an end of the u-interval.
    ("929/20-10*u", "931/20-10*u", 0),
])
def test_verify_flags_row_overlapping_a_chamber_off_the_probes(d4, v_lo, v_hi, printed):
    # Over [4, 5] the chambers are v in [0, u-4] with empty support and
    # v in [u-4, 1] with support alpha2.  Each row prints the data of one
    # chamber and overlaps the other only away from u = 17/4, 9/2 and 19/4.
    scan = poly_chamber_scan(d4, ptilde_d4("45"), curve_vector(d4, 0), 4, 5)
    shown = scan.chambers[printed]
    row = table_row(F(4), F(5), reference_parse(v_lo), reference_parse(v_hi), p_coeffs(shown), n_coeffs(shown))
    assert {(mm.field, mm.curve) for mm in row_mismatches(scan, row)} == {("N", "alpha2"), ("P", "alpha2")}


def chamber_table_rows():
    """(scan, row) for every printed chamber row of tables 01-14 (tables 04-07
    and 11-14; the others print no v-range), with the scan that covers it."""
    for name in ("34-d4", "34-a3"):
        family = builders.ToricFamily(name)
        for curve, case in family.data["curve_cases"].items():
            scans = flagdelta.scenario_scans(family.flag_scenario(curve))
            for row in load_table(case["table"]).rows:
                yield next(s for s in scans if s.u_lo <= row.region.u_lo and row.region.u_hi <= s.u_hi), row


def moved(row, lift=Poly(), n0=Poly(), p1=None):
    """The row with its v-range lifted by ``lift``, ``n0`` added to its first
    N cell and its second P cell replaced by ``p1``."""
    p, n = row_cells(row)
    p[1] = p[1] if p1 is None else p1
    region, (lo, hi) = row.region, walls(row.region)
    return table_row(region.u_lo, region.u_hi, lo + lift, hi + lift, p, [n[0] + n0, *n[1:]])


def test_integer_row_check_equals_reference_on_the_printed_tables():
    fields = set()
    rows = list(chamber_table_rows())
    assert len(rows) > 50
    for scan, row in rows:
        for copy in (row, moved(row, lift=F(1, 5)), moved(row, lift=F(-1, 2)),
                     moved(row, lift=(U - row.region.u_lo) / 3), moved(row, lift=F(-1, 7) - U / 5),
                     moved(row, n0=V / 7), moved(row, p1=U - 2 * V), moved(row, p1=V / 3 + 1)):
            got = row_mismatches(scan, copy)
            assert got == reference_check_row(scan, copy)
            fields |= {mm.field for mm in got}
    assert fields == {"N", "P", "region"}


def test_p_squared_reconstruction_by_interpolation(d4):
    # Oracle-first: exact decompositions at four rational v values determine
    # P^2 as a quadratic in v; the interpolant must agree with the symbolic
    # chamber polynomial.
    u0 = F(1, 2)
    base = [reference_parse(s).subs(u=u0) for s in
            ["u-6", "u-2", "u", "2", "6", "0"]]
    samples = []
    for v0 in (F(1, 16), F(1, 8), F(1, 4), F(3, 8)):
        coeffs = [b - (v0 if i == 0 else 0) for i, b in enumerate(base)]
        dec = zariski_decompose(d4, SurfDivisor(d4, coeffs))
        samples.append(((v0,), constant(pair(d4, dec.positive.coeffs, dec.positive.coeffs))))
    reconstructed = interpolate(samples, 2, ("v",))
    scan = poly_chamber_scan(d4, [reference_parse(s) for s in ["u-6", "u-2", "u", "2", "6", "0"]],
                        curve_vector(d4, 0), 0, 1)
    (chamber,) = scan.chambers
    symbolic = pair(d4, p_coeffs(chamber), p_coeffs(chamber)).subs(u=u0)
    assert reconstructed == symbolic


def test_scan_chambers_match_pointwise_decompositions(d4, a3):
    # Safety net for the scan machinery: at random interior points of every
    # chamber the symbolic data must equal a direct decomposition.
    rng = random.Random(31)
    cases = [
        (d4, ptilde_d4("24"), [F(1), 0, 0, 0, 0, 0], F(2), F(4)),
        (d4, ptilde_d4("56"), [0, 0, 0, 0, 0, F(1)], F(5), F(6)),
        (a3, [reference_parse(s) for s in
              ["(u-8)/2", "0", "1/2", "(11-u)/4", "(10-u)/2", "0"]],
         [F(1), F(2), F(1), 0, 0, 0], F(5), F(7)),
    ]
    for model, base, cvec, lo, hi in cases:
        scan = poly_chamber_scan(model, base, cvec, lo, hi)
        for ch in scan.chambers:
            c = ch.chamber
            for _ in range(3):
                t = F(rng.randrange(1, 8), 8)
                u0 = c.u_lo + (c.u_hi - c.u_lo) * t
                vlo, vhi = (w(u=u0) for w in walls(c))
                if vlo == vhi:
                    continue
                v0 = vlo + (vhi - vlo) * F(rng.randrange(1, 8), 8)
                coeffs = [b.subs(u=u0) - v0 * q for b, q in zip(base, cvec)]
                dec = zariski_decompose(model, SurfDivisor(model, coeffs))
                assert dec.support == ch.forms.support
                got = [constant(x) for x in dec.negative.coeffs]
                want = [n(u=u0, v=v0) for n in n_coeffs(ch)]
                assert got == want


def test_family_scans_match_pointwise_decompositions(monkeypatch):
    # Differential check of the symbolic certificate on every scan that the
    # toric and 2.18 runs make: at two interior rational points of each
    # chamber, N and P must equal a direct decomposition.
    scans = []

    def recording(model, base, den, curve, u_lo, u_hi):
        scan = chamber_scan(model, base, den, curve, u_lo, u_hi)
        scans.append((polys_of(base, den), scan))
        return scan

    monkeypatch.setattr(surfzar, "chamber_scan", recording)
    monkeypatch.setattr(flagdelta, "chamber_scan", recording)
    flagdelta.scenario_scans.cache_clear()  # cached scans would not be recorded
    for family in ("34-d4", "34-a3", "218"):
        builders.run_family(family)
    flagdelta.scenario_scans.cache_clear()
    assert len(scans) > 50
    for base, scan in scans:
        model = scan.model
        for ch in scan.chambers:
            c = ch.chamber
            for s, t in ((F(1, 3), F(1, 3)), (F(2, 3), F(3, 5))):
                u0 = c.u_lo + (c.u_hi - c.u_lo) * s
                vlo, vhi = (w(u=u0) for w in walls(c))
                v0 = vlo + (vhi - vlo) * t
                coeffs = [Poly.coerce(b)(u=u0) - v0 * x for b, x in zip(base, scan.curve)]
                dec = zariski_decompose(model, SurfDivisor(model, coeffs))
                assert dec.support == ch.forms.support
                assert [constant(x) for x in dec.negative.coeffs] == [
                    n(u=u0, v=v0) for n in n_coeffs(ch)]
                assert [constant(x) for x in dec.positive.coeffs] == [
                    p(u=u0, v=v0) for p in p_coeffs(ch)]


@pytest.fixture(scope="module")
def family_scans():
    """Every chamber scan of cold runs of the toric and 2.18 families."""
    scans = []

    def recording(*args):
        scans.append(chamber_scan(*args))
        return scans[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surfzar, "chamber_scan", recording)
        patch.setattr(flagdelta, "chamber_scan", recording)
        flagdelta.scenario_scans.cache_clear()  # cached scans would not be recorded
        for family in ("34-d4", "34-a3", "218"):
            builders.run_family(family)
    flagdelta.scenario_scans.cache_clear()
    assert len(scans) > 50
    return scans


def test_family_scans_integer_forms_equal_the_pairings(family_scans):
    # For every chamber that the toric and 2.18 runs scan, P^2 = sum_i P_i
    # (P.C_i) of the integer forms and P.C equal the Poly pairings of the
    # chamber's P, and iint (P.C)^2 read from the kept moments of P.C equals
    # the reference integral.
    for scan in family_scans:
        model = scan.model
        for ch, (pc, pden, moments, mden) in zip(scan.chambers, scan.curve_terms):
            forms = ch.forms
            assert sum((affine_poly(p, forms.den) * affine_poly(pc_i, forms.den)
                        for p, pc_i in zip(forms.p, forms.pc)), Poly()) == pair(model, p_coeffs(ch), p_coeffs(ch))
            p_dot = pair(model, p_coeffs(ch), scan.curve)
            assert form_poly(dict(zip(((0, 0), (1, 0), (0, 1)), pc)), pden) == p_dot
            assert F(sum(x * m for x, m in zip(pc, moments)), pden * mden) == reference_integrate_chamber(
                p_dot * p_dot, ch.chamber)


def test_family_scans_keep_the_moments_of_p_dot(family_scans):
    # Each chamber's three kept integers over their denominator are iint
    # (P.C)*1, (P.C)*u and (P.C)*v, by the reference integral.
    chambers = 0
    for scan in family_scans:
        for ch, (_, _, moments, mden) in zip(scan.chambers, scan.curve_terms):
            p_dot = pair(scan.model, p_coeffs(ch), scan.curve)
            assert [F(m, mden) for m in moments] == [
                reference_integrate_chamber(p_dot * x, ch.chamber) for x in (Poly.const(1), U, V)]
            chambers += 1
    assert chambers > 100
