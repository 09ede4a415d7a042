"""Seeded inputs and output checks for the three benchmark workloads.

Expected values come straight from the fixture JSON files, read and
evaluated here with the benchmark's own code; nothing is taken from the
program under test.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

FIXTURES = Path("src") / "fano_delta" / "scenarios" / "fixtures"
REFERENCE = Path(__file__).resolve().parent / "reference" / "full-report.json"
TORIC = ("34-d4", "34-a3")


def load_fixture(root: Path, relative: str):
    with open(root / FIXTURES / relative) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Closed forms in c, evaluated exactly
# ---------------------------------------------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def eval_expr(text: str, c: Fraction | None = None) -> Fraction:
    """Exact value of a fixture expression such as "3*(3-2*c)^2/4"."""

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id == "c" and c is not None:
            return c
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            right = walk(node.right)
            if isinstance(node.op, ast.Pow) and right.denominator != 1:
                raise ValueError(f"non-integer exponent in {text!r}")
            return _BINOPS[type(node.op)](walk(node.left), right)
        raise ValueError(f"unsupported expression {text!r}")

    return walk(ast.parse(text.replace("^", "**"), mode="eval"))


def eval_closed_form(spec, c: Fraction) -> Fraction:
    """A 2.18 closed form: "expr", {"num", "den"} or c-branches.

    A branch with "c_max" covers c <= c_max; one with "c_min" covers c > c_min.
    """
    if isinstance(spec, str):
        return eval_expr(spec, c)
    if isinstance(spec, list):
        for branch in spec:
            if "c_min" in branch and not c > Fraction(branch["c_min"]):
                continue
            if "c_max" in branch and not c <= Fraction(branch["c_max"]):
                continue
            return eval_closed_form({"num": branch["num"], "den": branch.get("den", "1")}, c)
        raise ValueError(f"no branch covers c={c}")
    return eval_expr(spec["num"], c) / eval_expr(spec.get("den", "1"), c)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _fraction_in(rng: random.Random, lo: Fraction, hi: Fraction, min_den: int,
                 max_den: int) -> Fraction:
    """A fraction strictly between lo and hi, its denominator drawn first."""
    while True:
        den = rng.randint(min_den, max_den)
        low, high = math.floor(lo * den) + 1, math.ceil(hi * den) - 1
        if low <= high:
            return Fraction(rng.randint(low, high), den)


def c_sweep_values(root: Path, seed: int, strata: int = 6) -> list[Fraction]:
    """Distinct c in the open interval c_domain of family 2.18.

    Always the branch point 1/2, then one c with a small denominator
    (<= 12), one with a medium one (<= 1000) and one with a large one
    (<= 10^6) in each of `strata` equal parts of c_domain.  How long a c
    takes to verify depends on where it lies, so every seed spreads its c
    alike and runs of different seeds do the same amount of work.
    """
    lo, hi = (Fraction(x) for x in load_fixture(root, "scenarios/family-218.json")["c_domain"])
    rng = random.Random(seed)
    values = [Fraction(1, 2)]
    width = (hi - lo) / strata
    for part in range(strata):
        for min_den, max_den in ((2, 12), (13, 1000), (1001, 10**6)):
            while True:
                c = _fraction_in(rng, lo + part * width, lo + (part + 1) * width,
                                 min_den, max_den)
                if c not in values:
                    values.append(c)
                    break
    rng.shuffle(values)
    return values


def compute_catalogue(root: Path, c_pool: list[Fraction]) -> dict[str, list[tuple[list[str], Fraction]]]:
    """Every `compute` query with a stored expected value, per scenario.

    Each entry is (argv, expected).  A point value listed in the
    known-discrepancy registry is expected to equal its recomputed value.
    """
    recomputed = {
        (e["scenario"], e["curve"], e["point"]): Fraction(e["recomputed"])
        for e in load_fixture(root, "known_discrepancies.json")
        if e["kind"] == "point-value"
    }

    def query(scenario, op, target, expected, c=None):
        argv = ["compute", "--scenario", scenario, "--op", op, "--target", target]
        if c is not None:
            argv += ["--c", str(c)]
        return argv, Fraction(expected)

    out: dict[str, list] = {}
    for sid in TORIC:
        data = load_fixture(root, f"scenarios/family-{sid}.json")
        entries = [query(sid, "toric-s", "G", data["expected"]["S_L(G)"])]
        for curve, case in data["curve_cases"].items():
            entries.append(query(sid, "s-curve", curve, case["expected_s_curve"]))
            for point in case["points"]:
                if point["expected_s"] is None:
                    continue
                want = recomputed.get((sid, curve, point["name"]), point["expected_s"])
                entries.append(query(sid, "s-point", f"{curve}:{point['name']}", want))
        out[sid] = entries

    data = load_fixture(root, "scenarios/family-34-surfaces.json")
    entries = []
    for name, vol in data["volumes"].items():
        entries.append(query("34-surfaces", "s-divisor", name, vol["expected_s"]))
        entries.append(query("34-surfaces", "beta", name, vol["expected_beta"]))
    for name, flag in data["flags"].items():
        entries.append(query("34-surfaces", "s-curve", name, flag["expected_s_curve"]))
        for point in flag["points"]:
            entries.append(query("34-surfaces", "s-point", f"{name}:{point['name']}",
                                 point["expected_s"]))
    for delta in data["deltas"]:
        entries.append(query("34-surfaces", "delta", delta["name"], delta["expected"]))
    out["34-surfaces"] = entries

    data = load_fixture(root, "scenarios/family-218.json")
    entries = []
    for c in c_pool:
        for case, spec in data["cases"].items():
            entries.append(query("218", "s-divisor", case,
                                 eval_closed_form(spec["ambient"]["expected"], c), c))
            entries.append(query("218", "s-curve", case,
                                 eval_closed_form(spec["expected_s_curve"], c), c))
            for point in spec["points"]:
                entries.append(query("218", "s-point", f"{case}:{point['name']}",
                                     eval_closed_form(point["expected_s"], c), c))
    out["218"] = entries
    return out


def requery_stream(root: Path, seed: int) -> list[tuple[list[str], Fraction]]:
    """Every catalogue query once, plus repeats, in a seeded order.

    The c pool is the stored default_c_samples of family 2.18; each 2.18
    query is asked at three c drawn from it.  Four queries of each scenario
    are asked a second time.
    """
    rng = random.Random(seed)
    pool = [Fraction(x) for x in load_fixture(root, "scenarios/family-218.json")["default_c_samples"]]
    stream = []
    for sid, entries in compute_catalogue(root, pool).items():
        if sid == "218":
            variants: dict[tuple, list] = {}
            for argv, want in entries:
                variants.setdefault(tuple(argv[:-2]), []).append((argv, want))
            entries = [e for at_c in variants.values() for e in rng.sample(at_c, 3)]
        stream.extend(entries)
        stream.extend(rng.sample(entries, 4))
    rng.shuffle(stream)
    return stream


# ---------------------------------------------------------------------------
# Jobs and output checks
# ---------------------------------------------------------------------------

WORKLOADS = ("full-report", "c-sweep", "requery")
REPORT_ARGV = ["report", "--family", "all", "--format", "json"]
SUMMARY = re.compile(r"(\d+) passed, (\d+) flagged \(known discrepancies\), (\d+) failed")


def make_job(workload: str, root: Path, seed: int) -> tuple[list[list[str]], object]:
    """The argv items of one run and what the checks need to judge them."""
    if workload == "full-report":
        with open(REFERENCE) as fh:
            return [REPORT_ARGV], json.load(fh)
    if workload == "c-sweep":
        return [["verify", "--family", "218", "--c", str(c)]
                for c in c_sweep_values(root, seed)], None
    if workload == "requery":
        stream = requery_stream(root, seed)
        return [argv for argv, _ in stream], [want for _, want in stream]
    raise ValueError(f"unknown workload {workload!r}")


def check_items(workload: str, expect, items: list[dict]) -> tuple[int, int, int]:
    """(attempted, failed, decided) for the items of one run.

    Attempted counts the checks or answers the run should decide; failed
    counts failed checks, crashed items, wrong answers and output
    mismatches; decided counts the verdicts and answers the program printed.
    """
    if workload == "full-report":
        return _check_report(expect, items[0])
    totals = [0, 0, 0]
    for index, item in enumerate(items):
        if workload == "c-sweep":
            counts = _check_verify(item)
        else:
            counts = _check_answer(item, expect[index])
        totals = [t + n for t, n in zip(totals, counts)]
    return tuple(totals)


def _check_verify(item: dict) -> tuple[int, int, int]:
    match = SUMMARY.search(item["out"])
    passed, flagged, failed = (int(x) for x in match.groups()) if match else (0, 0, 0)
    decided = passed + flagged + failed
    if item["code"] != 0 or not match or failed:
        failed = max(failed, 1)
    return max(decided, 1), failed, decided


def _check_answer(item: dict, expected: Fraction) -> tuple[int, int, int]:
    try:
        answer = Fraction(item["out"].strip())
    except (ValueError, ZeroDivisionError):
        answer = None
    return 1, int(item["code"] != 0 or answer != expected), int(answer is not None)


def _check_report(reference: dict, item: dict) -> tuple[int, int, int]:
    attempted = len(reference["entries"])
    try:
        report = json.loads(item["out"])
    except ValueError:
        return attempted, attempted, 0
    entries = report.get("entries", [])
    if item["code"] == 0 and report == reference:
        return attempted, 0, len(entries)
    want = {(e["scenario"], e["label"]): e for e in reference["entries"]}
    got = {(e.get("scenario"), e.get("label")): e for e in entries}
    failed = sum(got.get(key) != entry for key, entry in want.items())
    failed += len(got.keys() - want.keys())
    return attempted, max(failed, 1), len(entries)
