"""Fixture integrity and the family re-derivation runs."""

import ast
import json
import sys
import traceback
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fano_delta.exactmath import Poly, parse_poly, q
from fano_delta.scenarios import (
    FixtureError,
    UsageError,
    _Record,
    at_c,
    builders,
    default_c_samples,
    fixture,
    fixtures_dir,
    fixture_poly,
    load_table,
    rf_eval,
)

from helpers import (build_218, marked_point, p_coeffs, pair, reference_integrate_chamber,
                     reference_integrate_univariate, row_cells)


def test_fixture_files_round_trip():
    for path in sorted((fixtures_dir()).rglob("*.json")):
        data = json.loads(path.read_text())
        assert json.loads(json.dumps(data)) == data


def test_table_poly_cells_parse_and_reprint():
    for idx in range(1, 15):
        table = fixture(fixtures_dir(), f"tables/table-{idx:02d}.json")
        cells = []
        for row in table.get("rows", []):
            cells.extend(row["P"])
            cells.extend(row["N"])
            cells.extend(row["u"])
            cells.extend(row.get("v", []))
        for per_curve in table.get("cells", {}).values():
            for cell in per_curve:
                cells.append(cell["t"])
                cells.extend(cell["u"])
        for text in cells:
            p = parse_poly(text)
            assert parse_poly(str(p)) == p
    # Every other fixture string that parses: the c-forms and volume pieces
    # of the scenario files, the registry's bounds, the fan and model data.
    reprinted = set()
    for path in sorted(fixtures_dir().rglob("*.json")):
        for text in _string_leaves(json.loads(path.read_text())):
            try:
                p = parse_poly(text)
            except ValueError:
                continue
            assert parse_poly(str(p)) == p
            reprinted.add(path.parent.name)
    assert reprinted >= {"scenarios", "tables", "models"}


def _string_leaves(data):
    if isinstance(data, str):
        yield data
    elif isinstance(data, (list, dict)):
        for item in data.values() if isinstance(data, dict) else data:
            yield from _string_leaves(item)


def test_build_218_validates_c():
    with pytest.raises(ValueError):
        build_218("easy", F(3, 2))
    with pytest.raises(UsageError):
        build_218("nonsense", F(1, 2))
    scenario = build_218("heart", F(1, 2))
    assert scenario.l_cubed == 6 * (1 - F(1, 2)) * (3 - 1) ** 2


def test_every_check_is_built_by_compare():
    # One verdict path: every CheckResult of builders is made in `_compare`,
    # so `_compare` alone decides PASS, FLAGGED or FAIL.
    tree = ast.parse(Path(builders.__file__).read_text())
    compare = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_compare")
    inside = {id(node) for node in ast.walk(compare)}
    built = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in inside
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"]
    assert built == []


def test_default_c_samples():
    assert default_c_samples() == [F(1,10), F(1,4), F(1,3), F(1,2), F(2,3), F(3,4), F(9,10)]


def test_known_discrepancy_registry_well_formed():
    kinds = {"table-cell", "ratio", "printed-range", "fan-cones", "point-value"}
    for entry in fixture(fixtures_dir(), "known_discrepancies.json"):
        assert entry["kind"] in kinds
        assert "note" in entry and "printed" in entry and "recomputed" in entry


def test_runs_have_no_failures(family_runs):
    for fam, checks in family_runs.items():
        fails = [c for c in checks if c.status == builders.FAIL]
        assert fails == [], f"{fam}: {[c.label for c in fails]}"


def test_flag_sets_match_registry_exactly(family_runs):
    for fam, checks in family_runs.items():
        observed = builders.flagged_identities(checks)
        expected = builders.expected_flag_identities([fam])
        assert observed == expected, fam


def test_flag_scenario_values_recomputable_from_clean_tables(family_runs):
    # Tables 11 and 14 carry no known discrepancy, so integrating the fixture
    # rows directly must reproduce the flag invariants computed by the scans.
    family = builders.ToricFamily("34-a3")
    for curve, table_id, expected in (("alpha1", "table-11", F(1, 2)),
                                      ("alpha0", "table-14", F(3, 16))):
        model = family.surface
        total = F(0)
        for row in load_table(table_id).rows:
            p, _ = row_cells(row)
            p_sq = pair(model, p, p)
            total += F(3, 9) * reference_integrate_chamber(p_sq, row.region)
        if curve == "alpha1":
            # ord-term of the ambient negative part along alpha1 (table 9).
            for row in load_table("table-09").rows:
                p_tilde, (d, *_) = row_cells(row)
                if d.is_zero():
                    continue
                p_sq = pair(model, p_tilde, p_tilde)
                total += F(3, 9) * reference_integrate_univariate(p_sq * d, row.region.u_lo, row.region.u_hi)
        assert total == expected


def test_zd3_tables_match_certificate_intervals(family_runs):
    for fam in ("34-d4", "34-a3"):
        data = builders.load_scenario_data(fam)
        table = load_table(data["star"]["table_zd3"])
        cert_intervals = [(q(iv["u"][0]), q(iv["u"][1])) for iv in data["certificate"]]
        table_intervals = [(r.region.u_lo, r.region.u_hi) for r in table.rows]
        assert cert_intervals == table_intervals


def test_218_printed_range_annotations_flagged(family_runs):
    flagged = builders.flagged_identities(family_runs["218"])
    assert len([i for i in flagged if i[0] == "printed-range"]) == 3


def test_point_value_recomputable_from_clean_tables(family_runs):
    # S at a point with no correction term equals the fixture-row integral of
    # (P.C)^2; table 11 is discrepancy-free, and the marked point Q16 of its
    # curve meets no component of any negative part, so F vanishes.
    family = builders.ToricFamily("34-a3")
    model = family.surface
    e1 = [F(1), F(0), F(0), F(0), F(0), F(0)]
    total = F(0)
    for row in load_table("table-11").rows:
        p_dot = pair(model, row_cells(row)[0], e1)
        total += F(3, 9) * reference_integrate_chamber(p_dot * p_dot, row.region)
    assert total == F(1, 9)
    from fano_delta import flagdelta

    scenario = family.flag_scenario("alpha1")
    q16 = marked_point(scenario, "Q16")
    assert flagdelta.f_correction(scenario, q16) == 0
    assert flagdelta.s_point_flag(scenario, q16).value == total


def test_218_closed_forms_at_stress_weights():
    # The chamber topology changes with c; exercise regimes well away from
    # the default samples, including near-degenerate boundary weights.
    extremes = [F(1, 100), F(5, 7), F(13, 17), F(99, 100)]
    checks = builders.run_218(extremes)
    fails = [c for c in checks if c.status == builders.FAIL]
    assert fails == [], [c.label for c in fails]


HEART_BRANCHES_MAIN = [
    # (v_lo, v_hi, P^2, P.z) in the regime where the first split comes from
    # the s-curve (c <= 1/2, or c > 1/2 with u >= 2c-1)
    ("0", "3-2*c-u", "8*c^2+4*c*u+12-20*c-4*u-v^2/2", "v/2"),
    ("3-2*c-u", "4-4*c", "(3-2*c-u)*(11-10*c-u-2*v)/2", "(3-u-2*c)/2"),
    ("4-4*c", "7-6*c-u", "(7-6*c-u-v)^2/2", "(7-6*c-u-v)/2"),
]
HEART_BRANCHES_LOW_U = [
    # c > 1/2, u <= 2c-1: the f-curve enters first
    ("0", "4-4*c", "8*c^2+4*c*u+12-20*c-4*u-v^2/2", "v/2"),
    ("4-4*c", "3-2*c-u", "4*(1-c)*(5-4*c-u-v)", "2-2*c"),
    ("3-2*c-u", "7-6*c-u", "(7-6*c-u-v)^2/2", "(7-6*c-u-v)/2"),
]


@pytest.mark.parametrize("c,regimes", [
    (F(1, 4), [(F(0), F(5, 2), HEART_BRANCHES_MAIN)]),
    (F(3, 4), [(F(0), F(1, 2), HEART_BRANCHES_LOW_U),
               (F(1, 2), F(3, 2), HEART_BRANCHES_MAIN)]),
])
def test_heart_piecewise_formulas_symbolically(c, regimes):
    # Branch-level check of the printed closed forms: every scan chamber's
    # symbolic P^2 and P.z must equal the corresponding printed branch after
    # substituting the boundary weight.
    from fano_delta import flagdelta

    scenario = build_218("heart", c)
    scans = flagdelta.scenario_scans(scenario)
    model = scenario.model
    matched = 0
    for u_lo, u_hi, branches in regimes:
        for ch in [ch for scan in scans for ch in scan.chambers
                   if u_lo <= ch.chamber.u_lo and ch.chamber.u_hi <= u_hi]:
            for v_lo, v_hi, p_sq, p_dot in branches:
                if (parse_poly(v_lo).subs(c=c) == ch.chamber.v_lo
                        and parse_poly(v_hi).subs(c=c) == ch.chamber.v_hi):
                    assert pair(model, p_coeffs(ch), p_coeffs(ch)) == \
                        parse_poly(p_sq).subs(c=c)
                    assert pair(model, p_coeffs(ch), scenario.curve_class) == \
                        parse_poly(p_dot).subs(c=c)
                    matched += 1
                    break
            else:
                raise AssertionError(
                    f"no printed branch for chamber {ch.chamber} at c={c}")
    assert matched >= 3 * len(regimes)


DIAMOND_BRANCHES_LOW_U = [
    ("0", "2-2*c", "8*c^2+4*c*u+12-20*c-4*u-v^2/2", "v/2"),
    ("2-2*c", "6-4*c-2*u", "2*(1-c)*(7-5*c-2*u-v)", "1-c"),
    ("6-4*c-2*u", "8-6*c-2*u", "(8-6*c-2*u-v)^2/2", "(8-6*c-2*u-v)/2"),
]
DIAMOND_BRANCHES_HIGH_U = [
    ("0", "6-4*c-2*u", "8*c^2+4*c*u+12-20*c-4*u-v^2/2", "v/2"),
    ("6-4*c-2*u", "2-2*c", "2*(3-2*c-u)*(5-4*c-u-v)", "3-2*c-u"),
    ("2-2*c", "8-6*c-2*u", "(8-6*c-2*u-v)^2/2", "(8-6*c-2*u-v)/2"),
]


def test_diamond_piecewise_formulas_symbolically():
    from fano_delta import flagdelta

    c = F(1, 2)
    scenario = build_218("diamond", c)
    scans = flagdelta.scenario_scans(scenario)
    model = scenario.model
    regimes = [(F(0), F(3, 2), DIAMOND_BRANCHES_LOW_U),
               (F(3, 2), F(2), DIAMOND_BRANCHES_HIGH_U)]
    matched = 0
    for u_lo, u_hi, branches in regimes:
        for ch in [ch for scan in scans for ch in scan.chambers
                   if u_lo <= ch.chamber.u_lo and ch.chamber.u_hi <= u_hi]:
            for v_lo, v_hi, p_sq, p_dot in branches:
                if (parse_poly(v_lo).subs(c=c) == ch.chamber.v_lo
                        and parse_poly(v_hi).subs(c=c) == ch.chamber.v_hi):
                    assert pair(model, p_coeffs(ch), p_coeffs(ch)) == \
                        parse_poly(p_sq).subs(c=c)
                    assert pair(model, p_coeffs(ch), scenario.curve_class) == \
                        parse_poly(p_dot).subs(c=c)
                    matched += 1
                    break
            else:
                raise AssertionError(f"no printed branch for chamber {ch.chamber}")
    assert matched >= 6


def _match_branches(case, c, regimes):
    from fano_delta import flagdelta

    scenario = build_218(case, c)
    scans = flagdelta.scenario_scans(scenario)
    model = scenario.model
    matched = 0
    for u_lo, u_hi, branches in regimes:
        chambers = [ch for scan in scans for ch in scan.chambers
                    if u_lo <= ch.chamber.u_lo and ch.chamber.u_hi <= u_hi]
        assert chambers, (case, c, u_lo, u_hi)
        for ch in chambers:
            for v_lo, v_hi, p_sq, p_dot in branches:
                if (parse_poly(v_lo).subs(c=c) == ch.chamber.v_lo
                        and parse_poly(v_hi).subs(c=c) == ch.chamber.v_hi):
                    assert pair(model, p_coeffs(ch), p_coeffs(ch)) == \
                        parse_poly(p_sq).subs(c=c), (case, c, v_lo)
                    assert pair(model, p_coeffs(ch), scenario.curve_class) == \
                        parse_poly(p_dot).subs(c=c), (case, c, v_lo)
                    matched += 1
                    break
            else:
                raise AssertionError(f"no stored branch for {ch.chamber} in {case}@{c}")
    return matched


def test_ok_case_piecewise_formulas_symbolically():
    low_u = [
        ("0", "2-2*c", "8*c^2+4*c*u-v^2-20*c-4*u+12", "v"),
        ("2-2*c", "3-2*c-u", "4*(1-c)*(4-3*c-u-v)", "2-2*c"),
        ("3-2*c-u", "5-4*c-u", "(5-4*c-u-v)^2", "5-4*c-u-v"),
    ]
    high_u = [
        ("0", "3-2*c-u", "8*c^2+4*c*u-v^2-20*c-4*u+12", "v"),
        ("3-2*c-u", "2-2*c", "(3-2*c-u)*(7-6*c-u-2*v)", "3-2*c-u"),
        ("2-2*c", "5-4*c-u", "(5-4*c-u-v)^2", "5-4*c-u-v"),
    ]
    c = F(1, 3)
    assert _match_branches("ok", c, [(F(0), F(1), low_u), (F(1), F(7, 3), high_u)]) >= 6


def test_blowup_case_piecewise_formulas_symbolically():
    low_u = [
        ("0", "u", "(4-4*c)*u-v^2", "v"),
        ("u", "2-2*c", "u*(4-4*c+u-2*v)", "u"),
        ("2-2*c", "2-2*c+u", "(2-2*c+u-v)^2", "2-2*c+u-v"),
    ]
    high_u = [
        ("0", "2-2*c", "(4-4*c)*u-v^2", "v"),
        ("2-2*c", "u", "4*(1-c)*(1-c+u-v)", "2-2*c"),
        ("u", "2-2*c+u", "(2-2*c+u-v)^2", "2-2*c+u-v"),
    ]
    c = F(1, 2)
    assert _match_branches("blowup", c, [(F(0), F(1), low_u), (F(1), F(2), high_u)]) >= 6


def test_blowup_tangent_piecewise_formulas_symbolically():
    # The branch formulas themselves are consistent; only three of the
    # printed v-range endpoints are wrong (registered as flags), and the
    # derived upper bound 2-2c+2u is used here.
    low_u = [
        ("0", "2*u", "(4-4*c)*u-v^2/2", "v/2"),
        ("2*u", "2-2*c", "2*u*(2-2*c+u-v)", "u"),
        ("2-2*c", "2-2*c+2*u", "(2-2*c+2*u-v)^2/2", "(2-2*c+2*u-v)/2"),
    ]
    high_u = [
        ("0", "2-2*c", "(4-4*c)*u-v^2/2", "v/2"),
        ("2-2*c", "2*u", "2*(1-c)*(1-c+2*u-v)", "1-c"),
        ("2*u", "2-2*c+2*u", "(2-2*c+2*u-v)^2/2", "(2-2*c+2*u-v)/2"),
    ]
    c = F(1, 3)
    assert _match_branches("blowup-tangent", c,
                           [(F(0), F(2, 3), low_u), (F(2, 3), F(7, 3), high_u)]) >= 6


def test_full_report_work_counts(monkeypatch):
    """One cold full report makes at most 72 `linalg.inverse` and 28
    `lp.solve_max` calls, and the pullbacks, the star surface and the
    polytope vertices call no `linalg.inverse`: their 3x3 systems go
    through `toric3._cramer`."""
    from fano_delta import cli, flagdelta, linalg, lp, scenarios

    callers = {"inverse": [], "solve_max": []}
    for module, name in ((linalg, "inverse"), (lp, "solve_max")):
        def counting(*args, _original=getattr(module, name), _calls=callers[name]):
            _calls.append({frame.name for frame in traceback.extract_stack()})
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    # Cold caches: the fixtures, which keep the fans' pullback maps and the
    # models' LP bases, the parsed expressions and the scans.
    for cache in (scenarios.fixture, scenarios._parsed, flagdelta.scenario_scans):
        cache.cache_clear()
    cli.build_report("all", None)
    assert len(callers["inverse"]) <= 72
    assert len(callers["solve_max"]) <= 28
    toric = {"pullback", "_pullback_map", "_vertices", "star_surface"}
    assert not [stack for stack in callers["inverse"] if stack & toric]
    # The full report builds each family's L polytope once.
    assert sum("_vertices" in stack for stack in callers["solve_max"]) == 2


def test_full_report_poly_work(monkeypatch):
    """One cold full report makes at most 2,000 `Poly.__call__` and
    28 `lp.solve_max` calls, and the threshold walk, the chamber scan's
    column walk, chamber construction, the table-row check, the nef test and
    the Zariski interval check evaluate no Poly: they run on integer forms
    and walls."""
    from fano_delta import cli, exactmath, flagdelta, lp, scenarios, surfzar, toric3

    integer_only = {fn.__code__ for fn in (
        surfzar._threshold_pieces, surfzar._column_structure, exactmath.Chamber.__post_init__,
        surfzar.row_mismatches, toric3.nef_on_interval, toric3._check_interval)}
    evaluations, offending, solves = [], [], []

    def counting(self, _original=exactmath.Poly.__call__, **values):
        evaluations.append(None)
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in integer_only:
                offending.append(frame.f_code.co_name)
            frame = frame.f_back
        return _original(self, **values)

    def solve_max(*args, _original=lp.solve_max):
        solves.append(None)
        return _original(*args)

    monkeypatch.setattr(exactmath.Poly, "__call__", counting)
    monkeypatch.setattr(lp, "solve_max", solve_max)
    for cache in (scenarios.fixture, scenarios._parsed, flagdelta.scenario_scans):
        cache.cache_clear()
    cli.build_report("all", None)
    assert len(evaluations) <= 2000
    assert offending == []
    assert len(solves) <= 28


def test_full_report_one_threshold_envelope_per_scan(monkeypatch):
    """A cold full report walks the threshold LP once per chamber scan:
    the toric threshold check reads the pieces of the flag scans."""
    from fano_delta import cli, flagdelta, scenarios, surfzar

    calls = {"envelope": 0, "scan": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(surfzar, "_threshold_pieces", counted("envelope", surfzar._threshold_pieces))
    monkeypatch.setattr(flagdelta, "chamber_scan", counted("scan", flagdelta.chamber_scan))
    for cache in (scenarios.fixture, scenarios._parsed, flagdelta.scenario_scans):
        cache.cache_clear()
    cli.build_report("all", None)
    assert calls["scan"] > 0
    assert calls["envelope"] == calls["scan"]


uvc_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 4)),
    st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
    max_size=6,
).map(Poly)
c_values = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(uvc_polys, uvc_polys, c_values)
def test_c_fold_equals_substitution(p, d, c):
    # 200 examples: the integer fold of a text in c is its Poly with c
    # substituted, and a closed form in c alone evaluates as the Poly does.
    assert at_c(str(p), c) == fixture_poly(str(p)).subs(c=c)
    num, den = p.subs(u=0, v=0), d.subs(u=0, v=0)
    assert rf_eval(closed_forms(x=str(num)), "x", c) == num(c=c)
    if den(c=c) != 0:
        assert rf_eval(closed_forms(x=closed_forms(num=str(num), den=str(den))), "x", c) == num(c=c) / den(c=c)


def closed_forms(**pairs) -> _Record:
    """A fixture record of closed forms in c, as the file closed-forms.json holds them."""
    return _Record(Path("closed-forms.json"), pairs)


def test_closed_forms_in_c_must_not_hold_u_or_v():
    with pytest.raises(FixtureError, match="closed-forms.json: 'den': '2-u' is not a closed form in c"):
        rf_eval(closed_forms(x=closed_forms(num="1", den="2-u")), "x", F(1, 2))
    with pytest.raises(FixtureError, match="closed-forms.json: 'x': bad character or exponent in '1\\^\\^2'"):
        rf_eval(closed_forms(x="1^^2"), "x", F(1, 2))
    with pytest.raises(FixtureError, match="u\\^\\^2"):
        at_c("u^^2", F(1, 2))
