"""Re-derivation pipelines for every verified family.

Each runner re-derives the family's constants from the raw inputs (fans,
Gram matrices, divisor data) and cross-checks every stored fixture along the
way: certificates, pullback lists, restriction tables, thresholds, chamber
tables, and the final flag invariants.  The runners read records that the
`scenarios` builders make once per fixture root (`Spec218`, `Spec34`,
tables, fans, models); what the toric runner reads itself, a curve case's
values included, it reads once per run.  Every expected rational is read by
`fixture_constants` where its record is built, never at a check.
Recomputation is authoritative: a fixture cell that disagrees with the
recomputed value becomes a *flagged* check when it is listed in the
known-discrepancy registry and a failure otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .. import flagdelta, linalg, surfzar, toric3
from ..exactmath import form_text
from ..flagdelta import BasePiece, DerivationError, FlagScenario, MarkedPoint, SInvariantResult
from ..surfzar import ConeAssumptionError, NotPseudoeffectiveError, ScanError
from ..toric3 import Fan3, ToricDivisor
from . import (FixtureError, Table, UsageError, array, curve_index, curve_indices, default_c_samples, fixture,
               fixture_constant, fixture_constants, fixture_divisor, fixture_ends, fixture_poly, fixture_text,
               fixtures_dir, load_34_surfaces, load_218, load_fan, load_model, load_scenario_data, load_table, lookup,
               mapping, marked_points, ray_indices, ray_texts, rows_at, sized)

PASS, FAIL, FLAGGED = "pass", "fail", "flagged"

# Derivations from readable fixture data that define no value.
DERIVATION_ERRORS = (DerivationError, ScanError, NotPseudoeffectiveError, ConeAssumptionError)


@dataclass
class CheckResult:
    scenario: str
    label: str
    computed: str
    expected: str | None
    status: str
    identity: tuple | None = None


def _entry(checks: list[CheckResult], scenario: str, label: str, make) -> None:
    """Add the checks make() returns; if their derivation defines no value,
    one FAIL naming why stands for the checks left unmade."""
    try:
        checks.extend(make())
    except DERIVATION_ERRORS as exc:
        checks.append(_compare(scenario, f"{label}: derivation", False, True,
                               shown=(f"{type(exc).__name__}: {exc}", None)))


def _compare(scenario, label, got, want, identity=None, shown=None,
             flag_label=None, flag_shown=None) -> CheckResult:
    """Compare a recomputed value with the value it must equal.

    Equal values PASS.  A mismatch is FLAGGED when `identity` is a registered
    known discrepancy and FAILs otherwise.  The check records `shown`, the
    (computed, expected) strings, by default str(got) and str(want); a
    mismatch records `flag_label` and `flag_shown` instead where given.
    """
    computed, expected = shown or (str(got), str(want))
    if got == want:
        return CheckResult(scenario, label, computed, expected, PASS)
    if flag_shown:
        computed, expected = flag_shown
    status = FLAGGED if identity in _known_identities() else FAIL
    return CheckResult(scenario, flag_label or label, computed, expected, status,
                       identity=identity)


def _known_identities() -> frozenset[tuple]:
    return fixture(fixtures_dir(), "known_discrepancies.json", _registry_identities)


# The registry fields that identify an entry of each kind, in identity order;
# the cell bounds are canonical expressions.  Entries of other kinds are skipped.
_REGISTRY_FIELDS = {
    "table-cell": ("table", "u_lo", "u_hi", "v_lo", "v_hi", "field", "curve"),
    "ratio": ("scenario",),
    "printed-range": ("scenario", "case", "where"),
    "fan-cones": ("fan",),
    "point-value": ("scenario", "curve", "point"),
}
_CANONICAL_FIELDS = {"u_lo", "u_hi", "v_lo", "v_hi"}


def _registry_identities(registry) -> frozenset[tuple]:
    """The identities of the registry's entries, an array at its root; every
    field read is a string, and a bound a canonical expression."""
    return frozenset(
        (kind, *(str(fixture_poly(entry[f], entry, f)) if f in _CANONICAL_FIELDS else fixture_text(entry, f)
                 for f in _REGISTRY_FIELDS[kind]))
        for entry in array(registry, "root") if (kind := fixture_text(entry, "kind")) in _REGISTRY_FIELDS)


# ---------------------------------------------------------------------------
# Toric families (34-d4, 34-a3)
# ---------------------------------------------------------------------------


TORIC_FAMILIES = ("34-d4", "34-a3")


def _checked_names(data: dict) -> dict[str, tuple[str, ...]]:
    """The tables and the fans a toric family checks, by the registry kind
    of their discrepancies; fans in check order, each once."""
    star = data["star"]
    return {
        "table-cell": (star["table_zd3"], star["table_restriction"], star["table_threshold"],
                       *(case["table"] for case in data["curve_cases"].values())),
        "fan-cones": tuple(dict.fromkeys((data["ambient_fan"],
                                          *(iv["model"] for iv in array(data, "certificate")),
                                          data["resolution_fan"]))),
    }


@dataclass
class ToricFamily:
    """Everything the d4/a3 pipelines derive, with fixture cross-checks."""

    scenario_id: str
    data: dict = field(init=False)
    checks: list[CheckResult] = field(default_factory=list)

    def __post_init__(self):
        data = self.data = load_scenario_data(self.scenario_id)
        self.resolution = load_fan(data["resolution_fan"])
        self.ambient = load_fan(data["ambient_fan"])
        # W0, zeta0's coarse fan and the first model of the certificate, carries L_u.
        self.w0 = load_fan(data["pullbacks"]["zeta0"]["coarse"])
        self.l_u = fixture_divisor(self.w0, data, "l_u")
        self.l_div = fixture_divisor(self.ambient, data, "l_on_y", constant=True)
        self.weight = tuple(sized(data, "weight_vector", data["weight_vector"], 3, "coordinate"))
        if not all(type(w) is int for w in self.weight):
            raise FixtureError(f"{data.path}: 'weight_vector': {list(self.weight)!r} are not integers")
        self.surface = load_model(data["star"]["surface_model"])
        self.expected = mapping(data, "expected")
        self.l_cubed, self.a_g, self.s_g = (fixture_constant(self.expected, key) for key in ("L^3", "A(G)", "S_L(G)"))

    # -- building blocks --------------------------------------------------

    @cached_property
    def certificate(self) -> tuple[toric3.Zariski3Interval, ...]:
        """The fixture's interval-wise Zariski decomposition of L_u, not empty."""
        intervals = []
        for iv in array(self.data, "certificate"):
            fan = load_fan(iv["model"])
            n = len(fan.rays)
            negative = fixture_divisor(fan, iv, "N", ray_texts(iv, "N", n))
            forcing = tuple((curve_index(iv, "forcing", r, n, "ray"),
                             ray_indices(iv, "forcing", pair, fan, 2)) for r, pair in mapping(iv, "forcing").items())
            u_lo, u_hi = fixture_ends(iv, "u")
            intervals.append(toric3.Zariski3Interval(u_lo=u_lo, u_hi=u_hi, model=fan,
                                                     negative=negative, forcing=forcing))
        if not intervals:
            raise FixtureError(f"{self.data.path}: 'certificate': [] holds no interval")
        return tuple(intervals)

    @cached_property
    def l_resolved(self) -> ToricDivisor:
        """L_u pulled back to the resolution."""
        return toric3.pullback(self.resolution, self.w0, self.l_u)

    @cached_property
    def resolved_decomposition(self):
        """Per interval: (u_lo, u_hi, P and N pulled back to the resolution)."""
        out = []
        for iv in self.certificate:
            p_res = toric3.pullback(self.resolution, iv.model, iv.positive(self.l_u))
            out.append((iv.u_lo, iv.u_hi, p_res, self.l_resolved - p_res))
        return out

    @cached_property
    def star(self) -> toric3.StarSurface:
        """The star surface of the fixture's `star` block, its curves in
        `alpha_order`; a block that defines none is a FixtureError."""
        spec = self.data["star"]
        try:
            pinned = {int(k): v for k, v in mapping(spec, "pinned").items()}
            return toric3.star_surface(self.resolution, spec["ray"], pinned, spec["alpha_order"], spec["self_character"])
        except ValueError as exc:
            raise FixtureError(f"{self.data.path}: 'star': {exc}") from None

    @cached_property
    def surface_pieces(self):
        """(u_lo, u_hi, P~, N~): P~ and N~ in the alpha basis, each as integer
        forms over a denominator."""
        star = self.star
        return [(lo, hi, toric3.restrict_to_star(star, p), toric3.restrict_to_star(star, n))
                for lo, hi, p, n in self.resolved_decomposition]

    def flag_scenario(self, curve: str) -> FlagScenario:
        return _named(self.curve_cases, curve, "curve")[0]

    @cached_property
    def curve_cases(self) -> dict[str, tuple]:
        """Each curve case read once: its flag scenario, the curve's A and expected S, the
        different's coefficient by point, and each point's expected S (None: none printed)."""
        return {curve: self._curve_case(case) for curve, case in mapping(self.data, "curve_cases").items()}

    def _curve_case(self, case) -> tuple:
        n = self.surface.n
        cvec = fixture_constants(case, "class", sized(case, "class", case["class"], n))
        index = _basis_index(cvec)
        pieces = []
        for lo, hi, (ptilde, pden), (ntilde, nden) in self.surface_pieces:
            den = math.lcm(pden, nden)
            ptilde, ntilde = ([(a * (den // x), b * (den // x)) for a, b in forms]
                              for forms, x in ((ptilde, pden), (ntilde, nden)))
            d = ntilde[index] if index is not None else (0, 0)
            if index is not None:
                ntilde[index] = (0, 0)
            pieces.append(BasePiece(lo, hi, tuple(ptilde), den, d, tuple(ntilde)))
        points, different = array(case, "points"), mapping(case, "different")
        scenario = FlagScenario(l_cubed=self.l_cubed, model=self.surface, curve_class=cvec, pieces=tuple(pieces),
                                sigma=fixture_constants(case, "sigma", sized(case, "sigma", case["sigma"], n)),
                                points=marked_points(points, n))
        expected_s = tuple(None if p["expected_s"] is None else fixture_constant(p, "expected_s") for p in points)
        return (scenario, fixture_constant(case, "curve_a"), fixture_constant(case, "expected_s_curve"),
                {name: fixture_constant(different, name) for name in different}, expected_s)

    # -- quantities -------------------------------------------------------

    def toric_s(self, target: str) -> Fraction:
        """S_L of the toric valuation G (the weight vector), E, F or S."""
        vectors = {"G": self.weight, "E": (0, 0, 1), "F": (1, 0, 0), "S": (0, 1, 0)}
        return toric3.s_invariant_toric(self.l_polytope, _named(vectors, target, "toric-s target"))

    @cached_property
    def l_polytope(self) -> toric3.HPolytope:
        return toric3.divisor_polytope(self.l_div)

    def s_curve(self, curve: str) -> SInvariantResult:
        return flagdelta.s_curve_flag(self.flag_scenario(curve))

    def s_point(self, curve: str, point: str) -> SInvariantResult:
        scenario = self.flag_scenario(curve)
        return flagdelta.s_point_flag(scenario, _point(scenario, point))

    # -- checks -----------------------------------------------------------

    def run(self) -> list[CheckResult]:
        self.checks = []
        for stage in (self._check_fans, self._check_polytope, self._check_certificate,
                      self._check_pullbacks, self._check_intersection_fixtures,
                      self._check_resolution_table, self._check_volume_route, self._check_star,
                      self._check_restriction_table, self._check_sigmas, self._check_thresholds,
                      self._check_chamber_tables, self._check_flag_values):
            # A stage emits its checks as it goes; an error ends the stage.
            _entry(self.checks, self.scenario_id, stage.__name__.removeprefix("_check_"), lambda: stage() or ())
        return self.checks

    def _emit(self, label, got, want, **how):
        self.checks.append(_compare(self.scenario_id, label, got, want, **how))

    def _check_fans(self):
        for name in _checked_names(self.data)["fan-cones"]:
            self._emit(f"fan {name} valid", toric3.validate_fan(load_fan(name)) or True, True)
            raw = fixture(fixtures_dir(), f"fans/{name}.json")
            if "printed_cones" in raw and raw["printed_cones"] != raw["cones"]:
                issues = toric3.validate_fan(Fan3(raw["rays"], raw["printed_cones"]))
                self._emit(f"fan {name} cone list as printed", raw["printed_cones"], raw["cones"],
                           identity=("fan-cones", name),
                           shown=(f"invalid as printed: {issues[0] if issues else 'differs'}",
                                  "corrected cone list used"))

    def _check_polytope(self):
        weights = sized(self.data, "blowup_weights", self.data["blowup_weights"], 3, "coordinate")
        if not all(type(w) is int and w > 0 for w in weights):
            raise FixtureError(f"{self.data.path}: 'blowup_weights': {weights!r} are not positive integers")
        branch = tuple(fixture_constant(self.data, key) for key in ("branch_coeff", "branch_ord"))
        a_val = flagdelta.log_discrepancy_weighted(weights, [branch])
        self._emit("A(G)", a_val, self.a_g)
        l_div, p = self.l_div, self.l_polytope
        self._emit("3!*vol(P_L)", 6 * toric3.polytope_volume(p), self.l_cubed)
        cube, den = toric3.divisor_cube(l_div)  # l_div is constant: the cube is its u^0 term
        self._emit("L^3 via intersection", Fraction(cube[0], den), self.l_cubed)
        s_val = self.toric_s("G")
        self._emit("S_L(G) [polytope]", s_val, self.s_g)
        self._emit("lattice minimum equals vertex minimum", toric3.lattice_min(p, self.weight),
                   toric3.polytope_min(p, self.weight))
        ratio = a_val / s_val
        printed = self.expected.get("printed_ratio")
        if printed is not None:
            self._emit("A(G)/S_L(G)", ratio, fixture_constant(self.expected, "printed_ratio"),
                       identity=("ratio", self.scenario_id),
                       shown=(str(ratio), printed), flag_label="A(G)/S_L(G) vs printed")

    def _check_certificate(self):
        self._emit("zariski3 certificate", toric3.verify_zariski3(self.l_u, self.certificate) or True, True)
        windows = mapping(self.expected, "nef_windows")
        for model_name, window in windows.items():
            u_lo, u_hi = fixture_ends(windows, model_name)
            not_nef = toric3.nef_on_interval(ToricDivisor(load_fan(model_name), self.l_u.coeffs, self.l_u.den),
                                             u_lo, u_hi)
            self._emit(f"L_u nef on {model_name} for u in {window}", not_nef or True, True)

    def _check_pullbacks(self):
        n = len(self.resolution.rays)
        for zeta, spec in self.data["pullbacks"].items():
            coarse = load_fan(spec["coarse"])
            for t_label in (key for key in spec if key != "coarse"):
                j = int(t_label[1:])
                unit = ToricDivisor(coarse, tuple((int(k == j), 0) for k in range(len(coarse.rays))))
                computed = toric3.pullback(self.resolution, coarse, unit)
                self._emit(f"{zeta}*({t_label})", [form_text(x, computed.den) for x in computed.coeffs],
                           [str(fixture_poly(x)) for x in ray_texts(spec, t_label, n)])

    def _check_intersection_fixtures(self):
        printed = mapping(self.data, "printed_triples")
        for model_name in printed:
            fan, triples = load_fan(model_name), mapping(printed, model_name)
            for key in triples:
                i, j, k = ray_indices(triples, key, key.split(","), fan, 3)
                self._emit(f"{model_name}: T{i}.T{j}.T{k}", toric3.triple_product(fan, i, j, k),
                           fixture_constant(triples, key))
        relations = self.data["character_relations"]
        for model_name, rels in relations.items():
            fan = load_fan(model_name)
            for idx, rel in enumerate(rels):
                div_chi = fixture_divisor(fan, relations, model_name, rel, constant=True)
                self._emit(f"{model_name}: div(chi_{idx+1}) annihilates",
                           toric3.principal_residual(div_chi), Fraction(0))
        divisors = {"L": self.data["l_u"], **self.data["auxiliary_divisors"]}
        for block in array(self.data, "printed_curve_values"):
            fan, values = load_fan(block["model"]), mapping(block, "values")
            texts = lookup(block, "divisor", divisors, fixture_text(block, "divisor"), "divisor")
            d = fixture_divisor(fan, block, "divisor", texts)
            for key, val in values.items():
                i, j = ray_indices(values, key, key.split(","), fan, 2)
                a, b, e = toric3.curve_intersection(d, (i, j))
                self._emit(f"{block['model']}: {block['divisor']}.T{i}T{j}", form_text((a, b), e),
                           str(fixture_poly(val, values, key)))

    def _surface_table(self, table_id: str) -> Table:
        """The printed table `table_id`, whose columns must be the surface's curves."""
        table = load_table(table_id)
        if table.columns != self.surface.curve_names:
            raise FixtureError(f"{table.path}: 'columns': {list(table.columns)} are not the curves "
                               f"{list(self.surface.curve_names)}")
        return table

    def _check_table_cells(self, table: Table, pieces, entries: Sequence[int]):
        """The row count and the P and N cells of a table printing one row per
        piece (u_lo, u_hi, P, N), P and N as integer forms over a den; printed
        column k is entry entries[k] of P and N."""
        self._emit(f"{table.id} row count", len(table.rows), len(pieces))
        for row, (_, _, *parts) in zip(table.rows, pieces):
            region = row.region
            for which, (cells, den), (forms, forms_den) in zip("PN", (row.p, row.n), parts):
                for col, cell, k in zip(table.columns, cells, entries):
                    self._emit(f"{table.id} [{region.u_lo},{region.u_hi}] {which}({col})",
                               form_text(forms[k], forms_den), form_text(cell, den),
                               identity=_cell_identity(table, region, which, col))

    def _check_resolution_table(self):
        table = load_table(self.data["star"]["table_zd3"])
        rays = {f"T{r}": r for r in range(len(self.resolution.rays))}
        resolved = self.resolved_decomposition
        self._check_table_cells(table, [(lo, hi, (p.coeffs, p.den), (n.coeffs, n.den)) for lo, hi, p, n in resolved],
                                [lookup(table, "columns", rays, col, "ray column") for col in table.columns])
        # On the resolution's rays the table leaves out, N vanishes: P is L.
        hidden = [r for col, r in rays.items() if col not in table.columns]
        l_res = self.l_resolved
        for row, (lo, hi, p_res, n_res) in zip(table.rows, resolved):
            ends = f"[{row.region.u_lo},{row.region.u_hi}]"
            self._emit(f"{table.id} interval {ends}", (str(lo), str(hi)),
                       (str(row.region.u_lo), str(row.region.u_hi)))
            for ray in (r for r in hidden if any(n_res.coeffs[r])):
                self._emit(f"{table.id} {ends} hidden ray {ray}",
                           form_text(p_res.coeffs[ray], p_res.den), form_text(l_res.coeffs[ray], l_res.den))

    def _check_volume_route(self):
        volume = [(lo, hi, *toric3.divisor_cube(p_res)) for lo, hi, p_res, _ in self.resolved_decomposition]
        self._emit("S_L(G) [volume of positive parts]", flagdelta.s_from_volume(self.l_cubed, volume), self.s_g)

    def _check_star(self):
        spec, star = self.data["star"], self.star
        self._emit("star quotient rays",
                   [list(r) for r in star.images], spec["expected_rays"])
        mults = fixture_constants(spec, "expected_mults", array(spec, "expected_mults", str, "rational"))
        self._emit("star restriction multipliers", [str(m) for m in star.mults], [str(m) for m in mults])
        self._emit("quotient-surface intersection matrix",
                   [[str(x) for x in row] for row in star.gram],
                   [[str(x) for x in row] for row in self.surface.gram])

    def _check_restriction_table(self):
        self._check_table_cells(self._surface_table(self.data["star"]["table_restriction"]), self.surface_pieces,
                                range(self.surface.n))

    def _check_sigmas(self):
        gram, n = self.surface.gram, self.surface.n
        contracted = curve_indices(self.data["star"], "contracted", n)
        # sigma of basis curve i solves the contracted block against -C_i.C_b.
        found = linalg.inverse([[gram[a][b] for b in contracted] for a in contracted])
        if found is None:
            raise DerivationError(f"singular Gram block of the contracted curves {contracted}")
        inv, den = found
        for curve in self.data["curve_cases"]:
            scenario = self.flag_scenario(curve)
            i = _basis_index(scenario.curve_class)
            computed = [Fraction(0)] * n
            if i is not None:
                for a, row in zip(contracted, inv):
                    computed[a] = -sum(x * gram[i][b] for x, b in zip(row, contracted)) / den
            self._emit(f"sigma({curve})", computed, list(scenario.sigma))

    def _check_thresholds(self):
        table = load_table(self.data["star"]["table_threshold"])
        for curve, cells in table.cells.items():
            lookup(table, "cells", self.data["curve_cases"], curve, "curve")
            scans = flagdelta.scenario_scans(self.flag_scenario(curve))
            for want in cells:
                lo, hi = want.u_lo, want.u_hi
                # The threshold on the cell is the scans' envelope clipped to
                # it, each piece already proved by its LP basis; the pieces
                # that meet the cell must cover all of it.
                met = [piece for scan in scans for piece in scan.threshold
                       if max(lo, piece.u_lo) < min(hi, piece.u_hi)]
                covered = bool(met) and sum(
                    min(hi, piece.u_hi) - max(lo, piece.u_lo) for piece in met) == hi - lo
                got = [piece.t for piece in met] + ([] if covered else ["uncovered"])
                self._emit(f"{table.id} t({curve}) on [{lo},{hi}]",
                           covered and all(piece.wall == want.wall for piece in met), True,
                           shown=("; ".join(got), want.t))
        # Each curve case's cells must cover its scans' u-range, without gap
        # or overlap; a cell past the range is uncovered above.
        for curve in self.data["curve_cases"]:
            scans = flagdelta.scenario_scans(self.flag_scenario(curve))
            lo, hi = scans[0].u_lo, scans[-1].u_hi
            cells = sorted(table.cells.get(curve, ()), key=lambda cell: (cell.u_lo, cell.u_hi))
            if not cells or cells[0].u_lo > lo or cells[-1].u_hi < hi or any(
                    a.u_hi != b.u_lo for a, b in zip(cells, cells[1:])):
                self._emit(f"{table.id} t({curve}) coverage", False, True, shown=(
                    " ".join(f"[{cell.u_lo},{cell.u_hi}]" for cell in cells) or "no cells", f"[{lo},{hi}]"))

    def _check_chamber_tables(self):
        for curve, case in self.data["curve_cases"].items():
            table = self._surface_table(case["table"])
            scans = flagdelta.scenario_scans(self.flag_scenario(curve))
            for row in table.rows:
                region = row.region
                scan = next((s for s in scans if s.u_lo <= region.u_lo and region.u_hi <= s.u_hi), None)
                label = f"{table.id} row {region.label}"
                if scan is None:
                    self._emit(label, False, True, shown=("no scan covers the row", None))
                    continue
                mismatches = surfzar.row_mismatches(scan, row)
                if not mismatches:
                    self._emit(label, True, True, shown=("recomputation matches", "match"))
                for mm in mismatches:
                    self._emit(f"{label} {mm.field}({mm.curve})", mm.recomputed, mm.printed,
                               identity=_cell_identity(table, region, mm.field, mm.curve),
                               shown=(f"recomputed {mm.recomputed}", f"printed {mm.printed}"))

    def _check_flag_values(self):
        for curve, case in self.data["curve_cases"].items():
            scenario, curve_a, want_curve, different, want_points = self.curve_cases[curve]
            points = {point.name: point for point in scenario.points}
            for key, names in (("different", different), ("check_points", array(case, "check_points", str, "name"))):
                for name in names:
                    lookup(case, key, points, name, "marked point")
            s_curve = self.s_curve(curve)
            self._emit(f"S_L(W^G;{curve})", s_curve.value, want_curve)
            self._emit(f"S_L(W^G;{curve}) breakdown sums", s_curve.check(), True)
            a_map = flagdelta.a_point_on_curve(different.items())
            for point, printed, want in zip(scenario.points, case["points"], want_points):
                s_pt = self.s_point(curve, point.name)
                if want is not None:
                    label = f"S(W^G,{curve};{point.name})"
                    self._emit(label, s_pt.value, want, identity=("point-value", self.scenario_id, curve, point.name),
                               flag_label=f"{label} vs printed", flag_shown=(str(s_pt.value), printed["expected_s"]))
                if point.name in a_map:
                    self._emit(f"A({curve}:{point.name}) from different", a_map[point.name], point.a_value)
                if point.name in case["check_points"]:
                    self._emit(f"inequality S <= A at {curve}:{point.name}", s_pt.value <= point.a_value, True)
            self._emit(f"inequality S_L(W^G;{curve}) <= A_G({curve})", s_curve.value <= curve_a, True)


# ---------------------------------------------------------------------------
# Family 3.4 surface-level lemmas (34-surfaces)
# ---------------------------------------------------------------------------


def surface_s(name: str) -> Fraction:
    """S_L(name) from the volume pieces of the divisor."""
    spec = load_34_surfaces()
    return flagdelta.s_from_volume(spec.l_cubed, _named(spec.volumes, name, "divisor")[0])


def surface_flag_s(name: str, point: str | None = None) -> Fraction:
    """S of flag `name` at its curve, or at its marked point `point`."""
    scenario = _named(load_34_surfaces().flags, name, "flag")[0]
    return (flagdelta.s_curve_flag(scenario) if point is None else
            flagdelta.s_point_flag(scenario, _point(scenario, point))).value


def surface_delta(name: str) -> Fraction:
    """The delta bound assembled from the stored (A, S) levels."""
    return flagdelta.delta_lower_bound(_named(load_34_surfaces().deltas, name, "delta assembly")[0])


def run_34_surfaces() -> list[CheckResult]:
    spec, sid = load_34_surfaces(), "34-surfaces"
    checks: list[CheckResult] = []
    for name, (_, want_s, want_beta) in spec.volumes.items():
        _entry(checks, sid, f"S_L({name})", lambda: [
            _compare(sid, f"S_L({name})", s_val := surface_s(name), want_s),
            _compare(sid, f"beta({name})", 1 - s_val, want_beta)])
    for name, (scenario, want_curve, want_points) in spec.flags.items():
        _entry(checks, sid, f"S_L(W;{name})", lambda: [
            _compare(sid, f"S_L(W;{name})", surface_flag_s(name), want_curve),
            *(_compare(sid, f"S(W;{name};{point.name})", surface_flag_s(name, point.name), want)
              for point, want in zip(scenario.points, want_points))])
    for name, (_, want) in spec.deltas.items():
        _entry(checks, sid, f"delta[{name}]", lambda: [
            _compare(sid, f"delta[{name}]", bound := surface_delta(name), want),
            _compare(sid, f"delta[{name}] >= 1", bound >= 1, True)])
    return checks


def _cell_identity(table: Table, region, field: str, column: str) -> tuple:
    """The registry identity of a printed cell: its table, region, field and column."""
    return ("table-cell", table.id, str(region.u_lo), str(region.u_hi), region.v_lo, region.v_hi, field, column)


def _basis_index(cvec) -> int | None:
    """The index of a curve class's one nonzero entry; None unless it has exactly one."""
    nonzero = [i for i, x in enumerate(cvec) if x]
    return nonzero[0] if len(nonzero) == 1 else None


def _named(table, name: str, kind: str):
    """table[name]; an unknown name is a UsageError."""
    if name not in table:
        raise UsageError(f"unknown {kind} {name!r}")
    return table[name]


def _point(scenario: FlagScenario, name: str) -> MarkedPoint:
    return _named({p.name: p for p in scenario.points}, name, "marked point")


# ---------------------------------------------------------------------------
# Family 2.18 (parameter c)
# ---------------------------------------------------------------------------


class Case218:
    """One 2.18 configuration at an exact boundary weight c, its `Spec218`
    folded at c.  Each value is derived on first use and kept, so the verify
    run and `compute` read one derivation."""

    def __init__(self, name: str, c: Fraction):
        spec = _named(load_218(), name, "2.18 case")
        self.name, self.c, self.spec = name, c, spec
        base = BasePiece(Fraction(0), spec.u_hi(c), *rows_at(spec.base, c))
        self.scenario = FlagScenario(
            l_cubed=spec.l_cubed(c), model=spec.model, curve_class=spec.curve_class, pieces=(base,),
            points=tuple(MarkedPoint(point, a(c), mults) for point, a, mults, _ in spec.points))
        self._s_points: dict[str, SInvariantResult] = {}

    @cached_property
    def s_ambient(self) -> Fraction:
        """S of the ambient divisor from its stored volume pieces."""
        c, pieces = self.c, []
        for lo, hi, volume in self.spec.volume:
            (coeffs,), den = rows_at(volume, c)
            pieces.append((lo(c), hi(c), coeffs, den))
        return flagdelta.s_from_volume(self.scenario.l_cubed, pieces)

    @cached_property
    def s_curve(self) -> SInvariantResult:
        return flagdelta.s_curve_flag(self.scenario)

    def s_point(self, point: str) -> SInvariantResult:
        if point not in self._s_points:
            self._s_points[point] = flagdelta.s_point_flag(self.scenario, _point(self.scenario, point))
        return self._s_points[point]

    @cached_property
    def delta(self) -> Fraction:
        """min A/S over the ambient divisor, the curve and each marked point."""
        levels = [(self.spec.ambient_a(self.c), self.s_ambient), (self.spec.curve_a(self.c), self.s_curve.value)]
        levels += [(pt.a_value, self.s_point(pt.name).value) for pt in self.scenario.points]
        return flagdelta.delta_lower_bound(levels)


def run_218(c_values: Sequence[Fraction] | None = None) -> list[CheckResult]:
    sid = "218"
    checks: list[CheckResult] = []
    if c_values is None:
        c_values = default_c_samples()
    for case, spec in load_218().items():
        for where, printed, derived, same, _ in spec.ranges:
            checks.append(_compare(
                sid, f"{case} range: {where}", same, True,
                identity=("printed-range", sid, case, where), shown=(printed, derived),
                flag_label=f"{case} printed range: {where}", flag_shown=(f"derived {derived}", f"printed {printed}")))
        for c in c_values:
            _entry(checks, sid, f"{case}@c={c}", lambda: _run_218_case(sid, Case218(case, c)))
    return checks


def _run_218_case(sid, case: Case218) -> list[CheckResult]:
    spec, c = case.spec, case.c
    tag = f"{case.name}@c={c}"
    checks = [
        _compare(sid, f"{tag}: {spec.ambient_label}", case.s_ambient, spec.ambient_expected(c)),
        _compare(sid, f"{tag}: S_curve", case.s_curve.value, spec.expected_s_curve(c)),
        *(_compare(sid, f"{tag}: S({point})", case.s_point(point).value, expected(c))
          for point, _, _, expected in spec.points),
    ]
    bound = case.delta
    conclusion = bound > 1 if spec.conclusion == ">1" else bound >= 1
    checks.append(_compare(sid, f"{tag}: delta bound {spec.conclusion} (= {bound})", conclusion, True))
    # Every derived pseudoeffective range must be the scan's threshold; the
    # printed ranges were compared with the derived ones above.
    if spec.ranges:
        pieces = flagdelta.scenario_scans(case.scenario)[0].threshold
        walls = [rows_at(wall, c) for *_, wall in spec.ranges]
        ok = all(piece.wall == (a, b, den) for ((a, b),), den in walls for piece in pieces)
        checks.append(_compare(sid, f"{tag}: derived range is the threshold", ok, True))
    return checks


# ---------------------------------------------------------------------------
# Entry point used by the CLI
# ---------------------------------------------------------------------------


def run_family(family: str, c_values=None) -> list[CheckResult]:
    if family == "218":
        return run_218(c_values)
    if family == "34-surfaces":
        return run_34_surfaces()
    if family in TORIC_FAMILIES:
        return ToricFamily(family).run()
    raise KeyError(f"unknown family {family!r}")


def flagged_identities(checks: Iterable[CheckResult]) -> set[tuple]:
    return {c.identity for c in checks if c.status == FLAGGED and c.identity}


def expected_flag_identities(families: Sequence[str]) -> set[tuple]:
    """The registered known-discrepancy identities relevant to the families:
    by family name, or by the tables and fans a toric family checks."""
    checked: dict[str, set[str]] = {"table-cell": set(), "fan-cones": set()}
    for family in set(families) & set(TORIC_FAMILIES):
        for kind, names in _checked_names(load_scenario_data(family)).items():
            checked[kind].update(names)
    return {identity for identity in _known_identities()
            if identity[1] in checked.get(identity[0], families)}
