"""Flag S-invariants, corrections, discrepancies and delta bounds."""

import dataclasses
import gc
import math
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from fano_delta import flagdelta
from fano_delta.exactmath import AFFINE, Chamber, Poly, parse_poly
from fano_delta.flagdelta import (
    BasePiece,
    FlagScenario,
    MarkedPoint,
    a_point_on_curve,
    delta_lower_bound,
    f_correction,
    log_discrepancy_weighted,
    s_curve_flag,
    s_from_volume,
    s_point_flag,
    scenario_scans,
)
from fano_delta.scenarios import builders, load_model

from helpers import (forms_of, marked_point, n_coeffs, p_coeffs, pair, reference_integrate_chamber,
                     reference_nonneg_on_interval, u_coefficients)


def weighted_scenario():
    model = load_model("m34-s-weighted")
    return FlagScenario(
        l_cubed=F(9),
        model=model,
        curve_class=(F(1), F(0), F(0)),
        pieces=(
            BasePiece(F(0), F(1), *forms_of([3, 1, 1])),
            BasePiece(F(1), F(2), *forms_of([parse_poly(s) for s in ("4-u", "1", "2-u")])),
        ),
        points=(
            MarkedPoint("z", F(1), ((1, F(1)),)),
            MarkedPoint("q", F(1, 2), ((2, F(1, 2)),)),
            MarkedPoint("generic", F(1)),
        ),
    )


def volume(lo, hi, text):
    """A volume piece (lo, hi, integer coefficients in u, den) of a text."""
    return (lo, hi, *u_coefficients(parse_poly(text)))


def nonneg_on(p: Poly, lo, hi) -> bool:
    """`flagdelta._nonneg_on_interval` of a Poly in u alone."""
    return flagdelta._nonneg_on_interval(u_coefficients(p)[0], lo, hi)


def test_s_from_volume_values():
    assert s_from_volume(9, [volume(0, 1, "9-9*u")]) == F(1, 2)
    assert s_from_volume(9, [volume(0, 1, "9-6*u-3*u^2")]) == F(5, 9)
    assert s_from_volume(
        9, [volume(0, 1, "9-6*u"), volume(1, 2, "3*(2-u)^2")]
    ) == F(7, 9)


def test_root_isolation_guard_raises_scan_error(monkeypatch):
    # A root count that never falls to 0 or 1 bisects without end; no split
    # point is a root.
    monkeypatch.setattr(flagdelta, "_root_count", lambda chain, lo, hi: 2)
    monkeypatch.setattr(flagdelta, "horner", lambda coeffs, x: 1)
    with pytest.raises(flagdelta.ScanError, match="root isolation failed to terminate") as info:
        s_from_volume(9, [volume(0, 1, "9-9*u^2")])
    assert (info.value.reason, info.value.u_lo, info.value.u_hi) == (
        "root isolation failed to terminate", 0, 1)


small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
# Degree <= 4 in u: dense coefficients, or a scaled product of linear factors,
# each root once or twice, so that intervals meet rational and double roots.
dense_polys = st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 4)), min_size=1, max_size=5).map(
    lambda cs: sum((k * Poly.var("u") ** i for i, k in enumerate(cs)), Poly()))
scales = st.sampled_from((-2, -1, 1, F(1, 3)))


def factored(k, roots, twice) -> Poly:
    """k * prod (u - r) over the roots, each once or, if twice, twice."""
    return k * math.prod((Poly.var("u") - r for r in roots * (1 + twice)), start=Poly.const(1))


rooted_polys = st.builds(factored, scales, st.lists(small_rationals, max_size=2), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_polys, rooted_polys), small_rationals, small_rationals)
def test_integer_sign_nonnegativity_equals_the_fraction_chain(p, a, b):
    # 300 examples: the square-free chain with integer signs decides as the
    # chain of p with every sign a Fraction evaluation.  That chain is sound
    # only where neither end is a root; the factored test below covers those.
    lo, hi = min(a, b), max(a, b)
    assume(p(u=lo) != 0 and p(u=hi) != 0)
    assert nonneg_on(p, lo, hi) == reference_nonneg_on_interval(p, lo, hi)


@settings(max_examples=300, deadline=None)
@given(scales, st.lists(small_rationals, max_size=2), st.booleans(), st.data())
def test_nonnegativity_of_factored_polynomials(k, roots, twice, data):
    # 300 examples of k * prod (u - r), each root once or twice, on intervals
    # whose ends are often roots: between consecutive roots the sign of p is
    # that at any point, so a point in each gap decides.
    ends = st.one_of(small_rationals, st.sampled_from(roots)) if roots else small_rationals
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    p = factored(k, roots, twice)
    cuts = sorted({lo, hi, *(r for r in roots if lo < r < hi)})
    want = all(p(u=x) >= 0 for x in cuts + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])])
    assert nonneg_on(p, lo, hi) is want


@pytest.mark.parametrize("text, lo, hi, nonneg", [
    ("u*(4*u-1)", 0, 1, False),  # a simple root at lo, negative just above it
    ("u^2*(u-1)", 0, 2, False),  # a double root at lo
    ("(6*u-11)^2*(u-2)^2", F(-1, 2), F(11, 6), True),  # a double root at hi, another beyond it
    ("(u-2)^2*(3-u)", 0, 2, True),
])
def test_nonnegativity_with_roots_at_the_ends(text, lo, hi, nonneg):
    # The chain of p itself, unreduced, and a root bracket starting at lo
    # call the first two nonnegative and bisect the last two until the
    # guard raises ScanError.
    assert nonneg_on(parse_poly(text), F(lo), F(hi)) is nonneg


def test_nonnegativity_reads_past_zero_top_coefficients():
    # A cube of divisor_cube is four coefficients whatever its degree in u.
    assert flagdelta._nonneg_on_interval([2, 0, 0, 0], F(0), F(1))
    assert not flagdelta._nonneg_on_interval([-2, 0, 0], F(0), F(1))
    assert flagdelta._nonneg_on_interval([0, 1, 0, 0], F(0), F(1))
    assert not flagdelta._nonneg_on_interval([1, -3, 0, 0], F(0), F(1))
    assert s_from_volume(3, [(0, 1, (3, -3, 0, 0), 1)]) == F(1, 2)


def test_scenario_hash_is_kept_and_equality_is_by_value():
    sc, twin = weighted_scenario(), weighted_scenario()
    assert sc is not twin and sc == twin and hash(sc) == hash(twin)
    assert hash(sc) == hash(tuple(getattr(sc, f.name) for f in dataclasses.fields(sc)))
    other = dataclasses.replace(twin, l_cubed=F(10))
    assert other != sc and hash(other) != hash(sc)
    # The hash is not recomputed from the fields on a lookup.
    object.__setattr__(sc, "l_cubed", F(10))
    assert hash(sc) == hash(twin)


def test_s_from_volume_rejects_negative_volume():
    with pytest.raises(ValueError, match="invalid volume function"):
        s_from_volume(9, [volume(0, 3, "(u-1)*(u-2)")])
    with pytest.raises(ValueError, match="invalid volume function"):
        s_from_volume(9, [volume(0, 1, "1-u/2")])  # nonzero right endpoint
    with pytest.raises(ValueError, match="invalid volume function"):
        s_from_volume(9, [volume(0, 1, "u*(4*u-1)*(1-u)")])  # negative on (0, 1/4)


def test_s_curve_weighted_case():
    result = s_curve_flag(weighted_scenario())
    assert result.value == F(13, 9)
    assert result.check()


def test_s_point_values_weighted_case():
    sc = weighted_scenario()
    assert s_point_flag(sc, marked_point(sc, "generic")).value == F(3, 16)
    assert s_point_flag(sc, marked_point(sc, "q")).value == F(2, 9)
    assert s_point_flag(sc, marked_point(sc, "z")).value == F(1, 2)


def test_f_correction_examples():
    sc = weighted_scenario()
    assert f_correction(sc, marked_point(sc, "generic")) == 0
    # Derived: difference of the point total and the base double integral.
    assert f_correction(sc, marked_point(sc, "q")) == F(2, 9) - F(3, 16) == F(5, 144)


def test_f_correction_is_point_total_minus_base():
    sc = weighted_scenario()
    model = sc.model
    base = F(0)
    for scan in scenario_scans(sc):
        for ch in scan.chambers:
            p_dot = pair(model, p_coeffs(ch), sc.curve_class)
            base += F(3, 9) * reference_integrate_chamber(p_dot * p_dot, ch.chamber)
    for pt in sc.points:
        assert s_point_flag(sc, pt).value == base + f_correction(sc, pt)


def count_point_free_integrals(monkeypatch, sc):
    """Patch `Chamber.moments`, from which every point-free chamber integral
    of a flag is read, to count per chamber the moments of P.C taken."""
    p_dots = {}
    for scan in scenario_scans(sc):
        for ch in scan.chambers:
            p_dots[ch.chamber] = pair(sc.model, p_coeffs(ch), sc.curve_class)
    counts = dict.fromkeys(p_dots, 0)
    moments = Chamber.moments

    def counting(chamber, form):
        # Count a form that is P.C times a positive factor.
        if chamber in p_dots:
            coeffs = [p_dots[chamber].coefficient(e) for e in AFFINE]
            k = next((F(x) / y for x, y in zip(form, coeffs) if y), None)
            if k is not None and k > 0 and all(x == k * y for x, y in zip(form, coeffs)):
                counts[chamber] += 1
        return moments(chamber, form)

    monkeypatch.setattr(Chamber, "moments", counting)
    return counts


def test_points_of_a_scenario_share_the_point_free_integrals(monkeypatch):
    scenario_scans.cache_clear()  # an equal scenario may hold finished scans
    sc = weighted_scenario()
    counts = count_point_free_integrals(monkeypatch, sc)
    for pt in sc.points:
        s_point_flag(sc, pt)
    assert counts and set(counts.values()) == {1}


def test_f_correction_integrates_nothing(monkeypatch):
    # F_Q dots each chamber's ord_Q form with the scan's three moments of
    # P.C: it makes no chamber integral of its own, so the only moments
    # taken are those of P.C, once per chamber.
    scenario_scans.cache_clear()  # so the moments, too, are made below
    family = builders.ToricFamily("34-d4")
    scenarios = [weighted_scenario()] + [family.flag_scenario(c) for c in family.data["curve_cases"]]
    calls = []
    moments = Chamber.moments
    monkeypatch.setattr(Chamber, "moments",
                        lambda ch, form: calls.append((ch, tuple(form))) or moments(ch, form))
    values = [f_correction(sc, pt) for sc in scenarios for pt in sc.points]
    made = list(calls)
    scans = [scan for sc in scenarios for scan in scenario_scans(sc)]
    p_dots = {(ch.chamber, tuple(pc))
              for scan in scans for ch, (pc, *_) in zip(scan.chambers, scan.curve_terms)}
    assert sum(1 for x in values if x) >= 5
    assert set(made) <= p_dots and len(made) == sum(len(scan.chambers) for scan in scans)


def test_point_breakdown_matches_per_point_formula():
    sc = weighted_scenario()
    model, factor = sc.model, F(3) / sc.l_cubed
    for pt in sc.points:
        want, correction = [], F(0)
        mults = pt.ord_coefficients(model.n)
        for scan in scenario_scans(sc):
            for ch in scan.chambers:
                c = ch.chamber
                p_dot = pair(model, p_coeffs(ch), sc.curve_class)
                want.append((f"u[{c.u_lo},{c.u_hi}] v[{c.v_lo},{c.v_hi}]",
                             factor * reference_integrate_chamber(p_dot * p_dot, c)))
                ord_poly = sum((n_coeffs(ch)[j] * mults[j] for j in range(model.n)), Poly())
                correction += 2 * factor * reference_integrate_chamber(p_dot * ord_poly, c)
        if correction:
            want.append((f"F({pt.name})", correction))
        result = s_point_flag(sc, pt)
        assert result.breakdown == tuple(want)
        assert result.value == sum((x for _, x in want), F(0))


def test_log_discrepancy_examples():
    assert log_discrepancy_weighted((1, 3, 1), [(F(1, 2), 3)]) == F(7, 2)
    assert log_discrepancy_weighted((2, 4, 1), [(F(1, 2), 4)]) == 5
    assert log_discrepancy_weighted((1, 1, 1)) == 3
    with pytest.raises(ValueError, match="not a log Fano"):
        log_discrepancy_weighted((1, 1, 1), [(1, 4)])
    with pytest.raises(ValueError, match="positive"):
        log_discrepancy_weighted((0, 1, 1))


def test_a_point_on_curve():
    a_map = a_point_on_curve([("Q16", F(2, 3)), ("Q14", F(1, 2))])
    assert a_map == {"Q16": F(1, 3), "Q14": F(1, 2)}
    assert a_point_on_curve([("Q16", F(3, 4))])["Q16"] == F(1, 4)
    with pytest.raises(ValueError, match="non-klt"):
        a_point_on_curve([("bad", 1)])


def test_delta_lower_bound():
    assert delta_lower_bound([(1, F(7, 9)), (1, F(1, 2)), (1, F(5, 9))]) == F(9, 7)
    assert delta_lower_bound([(F(5, 3), F(5, 3))]) == 1
    assert delta_lower_bound([(F(7, 2), F(59, 18))]) == F(63, 59)
    with pytest.raises(ValueError, match="degenerate level"):
        delta_lower_bound([(1, 0)])


def test_delta_scaling_invariance():
    levels = [(F(7, 2), F(59, 18)), (1, F(1, 2)), (F(2, 3), F(4, 9))]
    scaled = [(a * F(5, 7), s * F(5, 7)) for a, s in levels]
    assert delta_lower_bound(levels) == delta_lower_bound(scaled)


def test_breakdown_additivity():
    sc = weighted_scenario()
    for result in (s_curve_flag(sc), s_point_flag(sc, marked_point(sc, "z"))):
        assert result.value == sum((x for _, x in result.breakdown), F(0))


def test_invalid_correction_data_detected():
    model = load_model("m34-s-weighted")
    sc = FlagScenario(
        l_cubed=F(9),
        model=model,
        curve_class=(F(1), F(0), F(0)),
        pieces=(BasePiece(F(0), F(1), *forms_of([3, 1, 1])),),
        sigma=(F(0), F(5), F(0)),  # oversubtraction makes the order negative
        points=(MarkedPoint("z", F(1), ((1, F(1)),)),),
    )
    with pytest.raises(ValueError, match="invalid correction data"):
        f_correction(sc, marked_point(sc, "z"))


def module_cache_sizes():
    """Size of every module-level cache and container of the package."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fano_delta":
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if hasattr(value, "cache_info"):
                sizes[name, attr] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[name, attr] = len(value)
    return sizes


def test_scan_cache_stays_bounded_over_many_c(monkeypatch):
    # Weak references to the chambers, which hold their moment tables, and to
    # the integer forms of every scan that the first batch makes.
    chambers, forms = [], []
    scan = flagdelta.chamber_scan

    def recording(*args):
        result = scan(*args)
        chambers.extend(weakref.ref(ch.chamber) for ch in result.chambers)
        forms.extend(weakref.ref(ch.forms) for ch in result.chambers)
        return result

    def live(refs):
        gc.collect()
        return [x for x in (ref() for ref in refs) if x is not None]

    sizes = []
    for batch in (range(1, 11), range(11, 21)):
        with monkeypatch.context() as patch:
            if not sizes:
                patch.setattr(flagdelta, "chamber_scan", recording)
            checks = builders.run_218([F(k, 23) for k in batch])
        assert not [c.label for c in checks if c.status == builders.FAIL]
        assert scenario_scans.cache_info().currsize <= 8
        sizes.append(module_cache_sizes())
        if len(sizes) == 1:
            # Only the cached scans' chambers live, each with its moment table.
            assert 0 < len(live(chambers)) < len(chambers) / 2
            assert all("_table" in vars(ch) for ch in live(chambers))
    # The second batch has evicted every scan of the first.
    assert chambers and not live(chambers) and not live(forms)
    assert sizes[0][flagdelta.__name__, "scenario_scans"] == 8
    # Only the caches of fixture expressions, parsed and folded in c, may
    # grow: the second batch, all above c = 1/2, reads a branch of a closed
    # form for the first time.
    assert sizes[1].keys() == sizes[0].keys()
    grown = {key for key in sizes[0] if sizes[1][key] != sizes[0][key]}
    assert {attr for _, attr in grown} <= {"_parsed", "_c_fold"}
