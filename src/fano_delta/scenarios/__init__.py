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
coefficients in u (`fixture_volume`), both by one reader (`fixture_rows`)
that names the file and key of text it cannot read.

Tables are stored as data, never as code, so the verification harness and
the source tables stay diffable.  All rationals are "p/q" strings; small
polynomials are compact expressions like "(8-u-3*v)/3".
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

from ..exactmath import AFFINE, Poly, horner, integer_rows, numerators, parse_poly, q
from ..surfzar import SurfaceModel, TableRow
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


def load_table(table_id: str) -> dict:
    return fixture(fixtures_dir(), f"tables/{table_id}.json")


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


def table_rows(table_id: str) -> list[TableRow]:
    return [
        TableRow(
            *map(q, sized(row, "u", row["u"], 2, "end")),
            *(fixture_poly(s, row, "v") for s in sized(row, "v", row["v"], 2, "end")),
            p=tuple(fixture_poly(s, row, "P") for s in row["P"]),
            n=tuple(fixture_poly(s, row, "N") for s in row["N"]),
        )
        for row in load_table(table_id)["rows"]
    ]


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


def _c_value(text: str, c: Fraction) -> tuple[int, int]:
    """A closed form in c alone at c, as (numerator, positive denominator)."""
    if _c_fold(text).keys() - {(0, 0)}:
        raise FixtureError(f"{text!r} is not a closed form in c")
    nums, den = _c_fold(text).get((0, 0), ((0,), 1))
    return horner(nums, c), den * c.denominator ** (len(nums) - 1)


def rf_eval(spec, c: Fraction) -> Fraction:
    """Evaluate a fixture closed form at an exact c.

    Accepts "expr" strings, {"num": ..., "den": ...} pairs, and branched
    lists [{"c_max": "1/2", ...}, {"c_min": "1/2", ...}].
    """
    if isinstance(spec, list):
        for branch in spec:
            if ("c_min" not in branch or c > q(branch["c_min"])) and (
                    "c_max" not in branch or c <= q(branch["c_max"])):
                return rf_eval(branch, c)
        where = f"{spec[0].path}: " if spec else ""
        raise FixtureError(f"{where}'c_min'/'c_max': no branch covers c={c}")
    if isinstance(spec, str):
        return Fraction(*_c_value(spec, c))
    num, num_den = _c_value(spec["num"], c)
    den, den_den = _c_value(spec.get("den", "1"), c)
    return Fraction(num * den_den, num_den * den)


def c_domain() -> tuple[Fraction, Fraction]:
    """The open interval of boundary weights c on which family 2.18 is stated."""
    lo, hi = load_scenario_data("218")["c_domain"]
    return q(lo), q(hi)


def default_c_samples() -> list[Fraction]:
    return [q(s) for s in load_scenario_data("218")["default_c_samples"]]
