"""Machine-readable encodings of every verified configuration.

Fixture files live under ``fixtures/`` (override the directory with the
FANO_DELTA_FIXTURES environment variable):

    fixtures/fans/*.json         fan schema {"rays": [[i,j,k],...], "cones": [[a,b,c],...]}
    fixtures/models/*.json       {"curves": [...], "gram": [["p/q",...],...], "generates_pseff": true}
    fixtures/tables/table-NN.json  appendix tables as verbatim row data
    fixtures/scenarios/*.json    per-family scenario data
    fixtures/known_discrepancies.json

Fixture data is cached per directory: a process reads each file once for
each fixture directory it uses, so a changed directory is read afresh.  Each
expression is parsed once per process into integers and folded into integer
polynomials in c (`fixture_c_rows`), read by `fixture_rows` as rows over one
den: divisors (`fixture_forms`), volumes (`fixture_volume`) and rationals
(`fixture_constants`, the one rule for every rational a runner compares,
read where its record is built).  Tables, the 2.18 cases and the 3.4
surface lemmas are built like fans and models (`Table`, `Spec218`,
`Spec34`), so a new c costs integer Horner passes (`rows_at`, `CForm`) and
a flag scenario is built once per root.  Every reader names the file and
key of a value it cannot read.  All rationals are "p/q" strings; small
polynomials are compact expressions like "(8-u-3*v)/3".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from ..exactmath import AFFINE, Chamber, Poly, horner, least, lowest, parse_poly
from ..flagdelta import BasePiece, FlagScenario, MarkedPoint
from ..surfzar import SurfaceModel, TableRow, ThresholdPiece
from ..toric3 import Fan3, ToricDivisor


_PACKAGE_FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixtures_dir() -> Path:
    override = os.environ.get("FANO_DELTA_FIXTURES")
    if override:
        # Absolute, so that a relative setting names one cache entry per
        # directory even when the working directory changes.
        return Path(override).resolve()
    return _PACKAGE_FIXTURES


class FixtureError(Exception):
    """A fixture file that cannot be read, is not JSON, or lacks a key that
    a runner reads; the message names the file and the key."""


class UsageError(Exception):
    """A name or value on the command line that the fixtures do not define."""


class _Record(dict):
    """A JSON object of the fixture file `path`: a missing key is a FixtureError."""

    __slots__ = ("path",)

    def __init__(self, path: Path, pairs: dict):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise FixtureError(f"{self.path}: missing key {key!r}")


def lookup(record: _Record, key: str, table, name: str, kind: str):
    """table[name] for a name read from record[key]; an unknown name is a
    FixtureError naming the record's file and the key."""
    if name not in table:
        raise FixtureError(f"{record.path}: {key!r}: unknown {kind} {name!r}")
    return table[name]


def curve_index(record: _Record, key: str, index, n: int, noun: str = "curve") -> int:
    """The index of one of n curves (or rays, as ``noun`` names them) read
    from record[key]; anything but an int or digit string below n is a
    FixtureError naming the record's file and the key."""
    text = str(index)
    if not (text.isdecimal() and int(text) < n):
        raise FixtureError(f"{record.path}: {key!r}: {index!r} is no {noun} index of {n} {noun}s")
    return int(text)


def curve_indices(record: _Record, key: str, n: int) -> list[int]:
    """The curve indices listed at record[key], each read by `curve_index`;
    a repeated one is a FixtureError naming the record's file and the key."""
    indices = [curve_index(record, key, x, n) for x in record[key]]
    if len(set(indices)) < len(indices):
        raise FixtureError(f"{record.path}: {key!r}: repeated curve index in {record[key]!r}")
    return indices


def sized(record: _Record, key: str, items, n: int, noun: str = "curve"):
    """items, read from record[key], if they are a list (a JSON array) or a
    tuple of n, one per curve (or whatever ``noun`` names); else a
    FixtureError naming the record's file and the key."""
    if not isinstance(items, (list, tuple)):
        raise FixtureError(f"{record.path}: {key!r}: {items!r} is no array of {n} {noun}s")
    if len(items) != n:
        raise FixtureError(f"{record.path}: {key!r}: {len(items)} entries for {n} {noun}s")
    return items


def array(record: _Record, key: str, kind: type = _Record, noun: str = "object") -> list:
    """record[key] if it is a JSON array of ``kind`` values; else a
    FixtureError naming the record's file and the key."""
    items = record[key]
    if not isinstance(items, list) or not all(isinstance(x, kind) for x in items):
        raise FixtureError(f"{record.path}: {key!r}: {items!r} is no array of {noun}s")
    return items


def mapping(record: _Record, key: str) -> _Record:
    """record[key] if it is a JSON object; else a FixtureError naming the file and key."""
    if not isinstance(record[key], _Record):
        raise FixtureError(f"{record.path}: {key!r}: {record[key]!r} is no object")
    return record[key]


def fixture_text(record: _Record, key: str) -> str:
    """record[key] if it is a string; else a FixtureError naming the file and key."""
    if not isinstance(record[key], str):
        raise FixtureError(f"{record.path}: {key!r}: {record[key]!r} is no string")
    return record[key]


def ray_indices(record: _Record, key: str, items, fan: Fan3, size: int) -> tuple[int, ...]:
    """items, read from record[key], as a list of `size` ray indices of fan,
    each read by `curve_index`; a pair must span a 2-cone of fan.  Else a
    FixtureError naming the record's file and the key."""
    rays = [curve_index(record, key, x, len(fan.rays), "ray") for x in items] if isinstance(items, list) else items
    if rays is items or len(rays) != size or size == 2 and tuple(sorted(rays)) not in fan.two_cones:
        raise FixtureError(f"{record.path}: {key!r}: {rays!r} is no "
                           f"{'2-cone' if size == 2 else 'ray triple'} of the fan")
    return tuple(rays)


@lru_cache(maxsize=None)
def fixture(root: Path, relative: str, build: Callable | None = None):
    """The parsed JSON file `relative` under `root`, or `build` of it.

    The one store of fixture data: each (root, file, build) is read and
    built once per process, and a different root is read afresh.  Every
    failure to read it, and every key a reader misses in it, is one
    FixtureError.  `build` reads a JSON object: a root that is none is
    given as the key "root" of one.
    """
    path = root / relative
    try:
        data = json.loads(path.read_text(), object_hook=partial(_Record, path))
    except OSError as exc:
        raise FixtureError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: {exc}") from None
    return data if build is None else build(data if isinstance(data, _Record) else _Record(path, {"root": data}))


def _fan_from_dict(data) -> Fan3:
    return Fan3(data["rays"], data["cones"])


def _model_from_dict(data) -> SurfaceModel:
    if data.get("generates_pseff", True) is not True:  # every scan assumes it
        raise FixtureError(f"{data.path}: 'generates_pseff': only true is supported")
    try:
        return SurfaceModel(data["curves"], data["gram"])
    except ValueError as exc:
        raise FixtureError(f"{data.path}: 'gram': {exc}") from None


def load_fan(name: str) -> Fan3:
    return fixture(fixtures_dir(), f"fans/{name}.json", _fan_from_dict)


def load_model(name: str) -> SurfaceModel:
    return fixture(fixtures_dir(), f"models/{name}.json", _model_from_dict)


@dataclass(frozen=True)
class Table:
    """A printed table: its rows, or for a threshold table its cells by curve."""

    path: Path
    id: str
    columns: tuple[str, ...]
    rows: tuple[TableRow, ...]
    cells: dict[str, tuple[ThresholdPiece, ...]]


def _table_from_dict(data) -> Table:
    if data["id"] != data.path.stem:
        raise FixtureError(f"{data.path}: 'id': {data['id']!r} is not the file's name")
    if data["kind"] == "threshold":
        cells = mapping(data, "cells")
        return Table(data.path, data["id"], (), (),
                     {curve: tuple(map(_threshold_cell, array(cells, curve))) for curve in cells})
    columns = tuple(array(data, "columns", str, "name"))
    return Table(data.path, data["id"], columns, tuple(_table_row(row, len(columns)) for row in array(data, "rows")), {})


def _threshold_cell(cell: _Record) -> ThresholdPiece:
    """A printed threshold t on [u_lo, u_hi], affine in u."""
    ((a, b),), den = fixture_forms(cell, "t", [cell["t"]])
    return ThresholdPiece(*fixture_ends(cell, "u"), lowest((a, b, den)))


def _table_row(row: _Record, n: int) -> TableRow:
    """A printed row of n columns."""
    u_lo, u_hi = fixture_ends(row, "u")
    (lo, hi), den = ((0, 0), (0, 0)), 1  # a table of u-intervals prints no v: v in [0, 0]
    if "v" in row:
        (lo, hi), den = fixture_forms(row, "v", sized(row, "v", row["v"], 2, "end"))
    try:
        region = Chamber(u_lo, u_hi, (*lo, den), (*hi, den))
    except ValueError as exc:
        raise FixtureError(f"{row.path}: {'u' if u_lo > u_hi else 'v'!r}: {exc}") from None
    return TableRow(region, *(fixture_rows(row, key, sized(row, key, row[key], n, "column"), "affine", AFFINE)
                              for key in "PN"))


def load_table(table_id: str) -> Table:
    return fixture(fixtures_dir(), f"tables/{table_id}.json", _table_from_dict)


def load_scenario_data(scenario_id: str) -> dict:
    return fixture(fixtures_dir(), f"scenarios/family-{scenario_id}.json")


def fixture_poly(text: str, record: _Record | None = None, key: str | None = None) -> Poly:
    """The Poly of a fixture expression whose canonical form is compared or
    shown, built once per process from its fold.  Text that does not parse,
    or a value that is not a string, is a FixtureError naming it, and
    record's file and the key where given."""
    try:
        if not isinstance(text, str):
            raise ValueError(f"expression {text!r} is not a string")
        return _parsed(text)
    except ValueError as exc:
        raise FixtureError(exc if record is None else f"{record.path}: {key!r}: {exc}") from None


@lru_cache(maxsize=1024)
def _parsed(text: str) -> Poly:
    """The Poly of text, built from its one parse (`_c_fold`)."""
    return Poly({(i, j, m): Fraction(x, den) for (i, j), (nums, den) in _c_fold(text).items() for m, x in enumerate(nums)})


def fixture_c_rows(record: _Record, key: str, texts, shape: str, exponents=None, in_c: bool = False) -> tuple:
    """The expressions read from record[key] as integer polynomials in c:
    each text's coefficient at each of ``exponents``, by default 1, u, ...,
    u^k to their degree k in u, as (integer coefficients in c by rising
    degree, den).  Text that does not parse, has another term, or holds c
    unless ``in_c``, is a FixtureError naming the record's file and the key."""
    try:
        # `fixture_poly` names a value that is no string.
        folds = [_c_fold(text) if isinstance(text, str) else fixture_poly(text) for text in texts]
        exponents = exponents or [(i, 0, 0) for i in range(max((i for fold in folds for i, _ in fold), default=0) + 1)]
        keys = [(i, j) for i, j, _ in exponents]
        allowed = set(keys)
        for text, fold in zip(texts, folds):
            if not fold.keys() <= allowed or not in_c and any(len(nums) > 1 for nums, _ in fold.values()):
                raise ValueError(f"{fixture_poly(text)} is not {shape}")
        return tuple(tuple(fold.get(ij, ((0,), 1)) for ij in keys) for fold in folds)
    except (ValueError, FixtureError) as exc:
        raise FixtureError(f"{record.path}: {key!r}: {exc}") from None


def rows_at(rows, c: Fraction | None = None) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer polynomials in c (`fixture_c_rows`) at c by one Horner pass
    each, or their constant terms, as integer rows over their least common
    denominator."""
    if c is not None:
        rows = [[((horner(nums, c),), den * c.denominator ** (len(nums) - 1)) for nums, den in row] for row in rows]
    den = math.lcm(*(d for row in rows for _, d in row))
    return least((tuple(nums[0] * (den // d) for nums, d in row) for row in rows), den)


def fixture_rows(record: _Record, key: str, texts, shape: str, exponents=None):
    """The expressions read from record[key], free of c, as integer rows
    over one positive den (`fixture_c_rows`, `rows_at`)."""
    return rows_at(fixture_c_rows(record, key, texts, shape, exponents))


def fixture_forms(record: _Record, key: str, texts):
    """`fixture_rows` of expressions affine in u: forms (a, b), meaning
    (a + b*u)/den, over one positive den."""
    return fixture_rows(record, key, texts, "affine in u", AFFINE[:2])


def fixture_volume(record: _Record, key: str) -> tuple[tuple[int, ...], int]:
    """The volume function at record[key] as its integer coefficients in u
    by rising degree over one positive denominator."""
    (coeffs,), den = fixture_rows(record, key, [record[key]], "a polynomial in u alone")
    return coeffs, den


def fixture_constants(record: _Record, key: str, texts) -> tuple[Fraction, ...]:
    """The rational constants read from record[key]: the one rule for a fixture rational."""
    return tuple(Fraction(*nums, den) for ((nums, den),) in fixture_c_rows(record, key, texts, "constant", AFFINE[:1]))


def fixture_constant(record: _Record, key: str) -> Fraction:
    """The rational constant at record[key]."""
    return fixture_constants(record, key, [record[key]])[0]


def fixture_ends(record: _Record, key: str) -> tuple[Fraction, ...]:
    """The two rational ends of the interval at record[key]."""
    return fixture_constants(record, key, sized(record, key, record[key], 2, "end"))


def fixture_divisor(fan: Fan3, record: _Record, key: str, texts=None, constant: bool = False) -> ToricDivisor:
    """The divisor on fan whose coefficients are the expressions at
    record[key], or the texts read from it, one per ray, constant if asked."""
    texts = sized(record, key, record[key] if texts is None else texts, len(fan.rays), "ray")
    if constant:
        fixture_rows(record, key, texts, "constant", exponents=AFFINE[:1])
    return ToricDivisor(fan, *fixture_forms(record, key, texts))


def ray_texts(record: _Record, key: str, n: int) -> list[str]:
    """record[key], a map {ray: expression}, as expressions over n rays, "0"
    at rays it leaves out; each ray is read by `curve_index`."""
    texts = ["0"] * n
    for ray, expr in mapping(record, key).items():
        texts[curve_index(record, key, ray, n, "ray")] = expr
    return texts


# ---------------------------------------------------------------------------
# Rational functions of the boundary weight c
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _c_fold(text: str) -> dict[tuple[int, int], tuple[tuple[int, ...], int]]:
    """parse_poly(text) as {(i, j): ((a_0, ..., a_k), den)}, its coefficient
    of u^i v^j being sum a_m c^m / den in lowest terms, a_k nonzero."""
    nums, den = parse_poly(text)
    # Each (i, j)'s row is made last at its highest m, which sorts last.
    rows = {(i, j): [nums.get((i, j, k), 0) for k in range(m + 1)] for i, j, m in sorted(nums)}
    return {ij: (tuple(x // g for x in row), den // g) for ij, row in rows.items() for g in [math.gcd(den, *row)]}


@dataclass(frozen=True)
class CForm:
    """A closed form in c, read once (`closed_form`): branches (c_min, c_max,
    num, den), None an open end, num and den integer polynomials in c."""

    path: Path
    branches: tuple

    def __call__(self, c: Fraction) -> Fraction:
        """The first branch with c_min < c <= c_max, at c."""
        for lo, hi, (num, a), (den, b) in self.branches:
            if (lo is None or c > lo) and (hi is None or c <= hi):
                d = c.denominator
                return Fraction(horner(num, c) * b * d ** (len(den) - 1), a * d ** (len(num) - 1) * horner(den, c))
        raise FixtureError(f"{self.path}: 'c_min'/'c_max': no branch covers c={c}")


def closed_form(record: _Record, key: str) -> CForm:
    """The closed form in c at record[key]: an "expr" string, a {"num": ...,
    "den": ...} pair or a branched list [{"c_max": "1/2", ...}, {"c_min":
    "1/2", ...}] of pairs.  Text that does not parse or holds u or v, and a
    branch end that is no rational, is a FixtureError naming file and key."""
    if not isinstance(record[key], list):
        return CForm(record.path, ((None, None, *_ratio(record, key, record[key])),))
    return CForm(record.path, tuple(
        (*(fixture_constant(branch, end) if end in branch else None for end in ("c_min", "c_max")),
         *_ratio(branch, key, branch)) for branch in array(record, key)))


def _ratio(record: _Record, key: str, spec) -> tuple:
    """(num, den) of a closed form read from record[key], a text or a {"num":
    ..., "den": ...} pair: integer coefficients in c, each over a den."""
    pairs = [(spec, "num", spec["num"]), (spec, "den", spec.get("den", "1"))] if isinstance(spec, _Record) else [
        (record, key, spec), (record, key, "1")]
    return tuple(fixture_c_rows(r, k, [text], "a closed form in c", AFFINE[:1], True)[0][0] for r, k, text in pairs)


def basis_curve(spec: _Record) -> tuple[SurfaceModel, tuple[Fraction, ...]]:
    """The model spec["model"] and the class of its basis curve spec["curve"]."""
    model = load_model(spec["model"])
    curve = curve_index(spec, "curve", spec["curve"], model.n)
    return model, tuple(Fraction(int(i == curve)) for i in range(model.n))


def fixture_mults(point: _Record, n: int) -> tuple[tuple[int, Fraction], ...]:
    """A marked point's multiplicities {curve index: value}, by key, on a model of n curves."""
    mults = sorted(mapping(point, "mults").items())
    return tuple(zip((curve_index(point, "mults", k, n) for k, _ in mults),
                     fixture_constants(point, "mults", [v for _, v in mults])))


def marked_points(specs, n: int) -> tuple[MarkedPoint, ...]:
    """The marked points read from specs, each a name, a and mults, on a model of n curves."""
    return tuple(MarkedPoint(fixture_text(p, "name"), fixture_constant(p, "a"), fixture_mults(p, n)) for p in specs)


class Spec34:
    """The surface lemmas of family 3.4 as read once per fixture root: L^3;
    per divisor its volume pieces (lo, hi, integer u-coefficients, den) and
    expected S and beta; per flag its `FlagScenario` and the expected S of
    its curve and of each marked point; per delta assembly its (A, S)
    levels and expected value."""

    def __init__(self, data: _Record):
        self.l_cubed = fixture_constant(data, "l_cubed")
        volumes, flags = mapping(data, "volumes"), mapping(data, "flags")
        # (pieces, expected S, expected beta) per divisor
        self.volumes = {name: (tuple((fixture_constant(p, "lo"), fixture_constant(p, "hi"), *fixture_volume(p, "poly"))
                                     for p in array(mapping(volumes, name), "pieces")),
                               *(fixture_constant(volumes[name], key) for key in ("expected_s", "expected_beta")))
                        for name in volumes}
        # (scenario, expected S of the curve, expected S per marked point) per flag
        self.flags = {name: self._flag(mapping(flags, name)) for name in flags}
        # (levels, expected) per delta assembly
        self.deltas = {fixture_text(d, "name"): (
            tuple(fixture_constants(d, "levels", sized(d, "levels", level, 2, "value"))
                  for level in array(d, "levels", object, "level")), fixture_constant(d, "expected"))
            for d in array(data, "deltas")}

    def _flag(self, spec: _Record) -> tuple:
        model, curve_class = basis_curve(spec)
        pieces = tuple(BasePiece(*fixture_ends(p, "u"), *fixture_forms(p, "base", sized(p, "base", p["base"], model.n)))
                       for p in array(spec, "pieces"))
        points = array(spec, "points")
        return (FlagScenario(l_cubed=self.l_cubed, model=model, curve_class=curve_class, pieces=pieces,
                             points=marked_points(points, model.n)),
                fixture_constant(spec, "expected_s_curve"), tuple(fixture_constant(p, "expected_s") for p in points))


def load_34_surfaces() -> Spec34:
    """The surface lemmas of family 3.4, built once per fixture root."""
    return fixture(fixtures_dir(), "scenarios/family-34-surfaces.json", Spec34)


class Spec218:
    """A 2.18 case as read once per fixture root: its model and curve class,
    its base forms, volumes and derived walls as integer polynomials in c
    (`fixture_c_rows`), and each closed form in c compiled (`CForm`)."""

    def __init__(self, spec: _Record, l_cubed: CForm):
        self.model, self.curve_class = basis_curve(spec)
        n, amb = self.model.n, spec["ambient"]
        self.l_cubed, self.u_hi = l_cubed, closed_form(spec, "u_hi")
        self.base = fixture_c_rows(spec, "base", sized(spec, "base", spec["base"], n), "affine in u", AFFINE[:2], True)
        # (name, a, mults, expected_s) per marked point
        self.points = tuple((p["name"], closed_form(p, "a"), fixture_mults(p, n), closed_form(p, "expected_s"))
                            for p in array(spec, "points"))
        self.ambient_label, self.ambient_a, self.ambient_expected = (
            amb["label"], closed_form(amb, "a"), closed_form(amb, "expected"))
        self.volume = tuple((closed_form(p, "lo"), closed_form(p, "hi"),
                             fixture_c_rows(p, "poly", [p["poly"]], "a polynomial in u alone", in_c=True))
                            for p in array(amb, "volume"))
        self.curve_a, self.expected_s_curve = closed_form(spec, "curve_a"), closed_form(spec, "expected_s_curve")
        self.conclusion = spec["conclusion"]
        # (where, printed, derived, printed == derived, the derived wall) per printed range
        self.ranges = tuple((r["where"], r["printed"], r["derived"],
                             fixture_poly(r["printed"], r, "printed") == fixture_poly(r["derived"], r, "derived"),
                             fixture_c_rows(r, "derived", [r["derived"]], "affine in u", AFFINE[:2], True))
                            for r in spec.get("printed_ranges", ()))


def _cases_218(data) -> dict[str, Spec218]:
    l_cubed = closed_form(data, "l_cubed")
    return {name: Spec218(spec, l_cubed) for name, spec in data["cases"].items()}


def load_218() -> dict[str, Spec218]:
    """The cases of family 2.18, built once per fixture root."""
    return fixture(fixtures_dir(), "scenarios/family-218.json", _cases_218)


def c_domain() -> tuple[Fraction, Fraction]:
    """The open interval of boundary weights c on which family 2.18 is stated."""
    return fixture_ends(load_scenario_data("218"), "c_domain")


def default_c_samples() -> list[Fraction]:
    data = load_scenario_data("218")
    return list(fixture_constants(data, "default_c_samples", data["default_c_samples"]))
