"""Machine-readable encodings of every verified configuration.

Fixture files live under ``fixtures/`` (override the directory with the
FANO_DELTA_FIXTURES environment variable):

    fixtures/fans/*.json         fan schema {"rays": [[i,j,k],...], "cones": [[a,b,c],...]}
    fixtures/models/*.json       {"curves": [...], "gram": [["p/q",...],...], "generates_pseff": true}
    fixtures/tables/table-NN.json  appendix tables as verbatim row data
    fixtures/scenarios/*.json    per-family scenario data
    fixtures/known_discrepancies.json

Fixture data is cached per directory: a process reads each file once for
each fixture directory it uses, so a changed directory is read afresh.
Each fixture expression is parsed once per process, and each one read at a
boundary weight c is also compiled once into integer coefficient lists in c,
so a new c costs integer Horner passes (`at_c`, `rf_eval`).  A divisor is
read as integer forms affine in u (`fixture_forms`), a volume as integer
coefficients in u (`fixture_volume`), interval ends as Fractions
(`fixture_ends`), all by one reader (`fixture_rows`) that, like `rf_eval`,
names the file and key of text it cannot read.

Tables are stored as data, never as code, so the verification harness and
the source tables stay diffable, and are built like fans and models: each
row one `TableRow` of integers, each threshold cell one `ThresholdPiece`.
All rationals are "p/q" strings; small polynomials are compact expressions
like "(8-u-3*v)/3".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from ..exactmath import AFFINE, Chamber, Poly, horner, integer_rows, lowest, numerators, parse_poly, q
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


def ray_indices(record: _Record, key: str, items, fan: Fan3, size: int) -> tuple[int, ...]:
    """items, read from record[key], as `size` ray indices of fan, each read
    by `curve_index`; a pair must span a 2-cone of fan.  Else a
    FixtureError naming the record's file and the key."""
    rays = tuple(curve_index(record, key, x, len(fan.rays), "ray") for x in items)
    if len(rays) != size or size == 2 and tuple(sorted(rays)) not in fan.two_cones:
        raise FixtureError(f"{record.path}: {key!r}: {list(rays)} is no "
                           f"{'2-cone' if size == 2 else 'ray triple'} of the fan")
    return rays


@lru_cache(maxsize=None)
def fixture(root: Path, relative: str, build: Callable | None = None):
    """The parsed JSON file `relative` under `root`, or `build` of it.

    The one store of fixture data: each (root, file, build) is read and
    built once per process, and a different root is read afresh.  Every
    failure to read it, and every key a reader misses in it, is one
    FixtureError.
    """
    path = root / relative
    try:
        data = json.loads(path.read_text(), object_hook=partial(_Record, path))
    except OSError as exc:
        raise FixtureError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: {exc}") from None
    return data if build is None else build(data)


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
        cells = data["cells"]
        if not isinstance(cells, _Record):
            raise FixtureError(f"{data.path}: 'cells': {cells!r} is no object")
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
    """`parse_poly` of a fixture expression, parsed once per process.

    The same closed forms are read for every c sample and every table check;
    Poly is immutable, so all readers share one parsed result.  Text that
    does not parse, or a value that is not a string, is a FixtureError
    naming it, and record's file and the key where given.
    """
    try:
        if not isinstance(text, str):
            raise ValueError(f"expression {text!r} is not a string")
        return _parsed(text)
    except ValueError as exc:
        raise FixtureError(exc if record is None else f"{record.path}: {key!r}: {exc}") from None


@lru_cache(maxsize=1024)
def _parsed(text: str) -> Poly:
    return parse_poly(text)


def fixture_rows(record: _Record, key: str, texts, shape: str, exponents=None, c: Fraction | None = None):
    """The expressions read from record[key], at the boundary weight c where
    given, as `integer_rows` at ``exponents``, by default 1, u, ..., u^k to
    their degree k in u; text that does not parse, or has another term, is
    a FixtureError naming the record's file and the key."""
    try:
        polys = [fixture_poly(t) if c is None else at_c(t, c) for t in texts]
        exponents = exponents or [(i, 0, 0) for i in range(max(p.degree_in("u") for p in polys) + 1)]
        return integer_rows(polys, exponents, shape)
    except (ValueError, FixtureError) as exc:
        raise FixtureError(f"{record.path}: {key!r}: {exc}") from None


def fixture_forms(record: _Record, key: str, texts, c: Fraction | None = None):
    """`fixture_rows` of expressions affine in u: forms (a, b), meaning
    (a + b*u)/den, over one positive den."""
    return fixture_rows(record, key, texts, "affine in u", AFFINE[:2], c)


def fixture_volume(record: _Record, key: str, c: Fraction | None = None) -> tuple[tuple[int, ...], int]:
    """The volume function at record[key], at c where given, as its integer
    coefficients in u by rising degree over one positive denominator."""
    (coeffs,), den = fixture_rows(record, key, [record[key]], "a polynomial in u alone", c=c)
    return coeffs, den


def fixture_ends(record: _Record, key: str) -> tuple[Fraction, ...]:
    """The two rational ends of the interval at record[key]."""
    ends, den = fixture_rows(record, key, sized(record, key, record[key], 2, "end"), "constant", AFFINE[:1])
    return tuple(Fraction(x, den) for (x,) in ends)


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
    for ray, expr in record[key].items():
        texts[curve_index(record, key, ray, n, "ray")] = expr
    return texts


# ---------------------------------------------------------------------------
# Rational functions of the boundary weight c
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _c_fold(text: str) -> dict[tuple[int, int], tuple[tuple[int, ...], int]]:
    """fixture_poly(text) as {(i, j): ((a_0, ..., a_k), den)}, its coefficient
    of u^i v^j being sum a_m c^m / den."""
    p = fixture_poly(text)
    return {(i, j): numerators(p.coefficient((i, j, m)) for m in range(p.degree_in("c") + 1))
            for i, j, _ in p.terms}


def at_c(text: str, c: Fraction) -> Poly:
    """fixture_poly(text).subs(c=c): one integer Horner pass and one Fraction
    for each monomial in u and v."""
    return Poly({(i, j, 0): Fraction(horner(nums, c), den * c.denominator ** (len(nums) - 1))
                 for (i, j), (nums, den) in _c_fold(text).items()})


def _c_value(record: _Record, key: str, c: Fraction) -> tuple[int, int]:
    """The closed form in c alone at record[key] at c, as (numerator,
    positive denominator)."""
    text = record[key]
    fixture_poly(text, record, key)  # text that does not parse, named with its file and key
    if _c_fold(text).keys() - {(0, 0)}:
        raise FixtureError(f"{record.path}: {key!r}: {text!r} is not a closed form in c")
    nums, den = _c_fold(text).get((0, 0), ((0,), 1))
    return horner(nums, c), den * c.denominator ** (len(nums) - 1)


def rf_eval(record: _Record, key: str, c: Fraction) -> Fraction:
    """The fixture closed form at record[key] at an exact c.

    Accepts "expr" strings, {"num": ..., "den": ...} pairs, and branched
    lists [{"c_max": "1/2", ...}, {"c_min": "1/2", ...}] of pairs; text that
    does not parse, or holds u or v, is a FixtureError naming the file and
    the key.
    """
    spec = record[key]
    if isinstance(spec, list):
        spec = next((branch for branch in spec if ("c_min" not in branch or c > q(branch["c_min"]))
                     and ("c_max" not in branch or c <= q(branch["c_max"]))), None)
        if spec is None:
            raise FixtureError(f"{record.path}: 'c_min'/'c_max': no branch covers c={c}")
    if not isinstance(spec, dict):
        return Fraction(*_c_value(record, key, c))
    num, num_den = _c_value(spec, "num", c)
    den, den_den = _c_value(spec, "den", c) if "den" in spec else (1, 1)
    return Fraction(num * den_den, num_den * den)


def c_domain() -> tuple[Fraction, Fraction]:
    """The open interval of boundary weights c on which family 2.18 is stated."""
    lo, hi = load_scenario_data("218")["c_domain"]
    return q(lo), q(hi)


def default_c_samples() -> list[Fraction]:
    return [q(s) for s in load_scenario_data("218")["default_c_samples"]]
