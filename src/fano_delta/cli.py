"""Command-line verification and computation interface.

Subcommands:
  verify   run every registry entry and table verification for a family
  compute  print one exact invariant as "p/q"
  report   machine- or human-readable report with deterministic ordering

Exit codes: 0 all checks pass and the flagged set equals the registered
known-discrepancy set; 1 any mismatch beyond the registered set; 2 usage
errors.  All values print as exact fractions; --decimal appends a 6-digit
approximation clearly marked as approximate.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .scenarios import FixtureError, UsageError, builders, c_domain

FAMILIES = ("218", "34-surfaces", "34-d4", "34-a3")


@dataclass
class Report:
    families: tuple[str, ...]
    entries: list[builders.CheckResult] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if any(e.status == builders.FAIL for e in self.entries):
            return 1
        expected = builders.expected_flag_identities(self.families)
        return 0 if builders.flagged_identities(self.entries) == expected else 1

    def sorted_entries(self) -> list[builders.CheckResult]:
        return sorted(self.entries, key=lambda e: (e.scenario, e.label))

    def to_json(self) -> dict:
        return {
            "families": list(self.families),
            "entries": [
                {
                    "scenario": e.scenario,
                    "label": e.label,
                    "computed": e.computed,
                    "expected": e.expected,
                    "status": e.status,
                }
                for e in self.sorted_entries()
            ],
            "flagged": sorted(str(i) for i in builders.flagged_identities(self.entries)),
            "exit_code": self.exit_code,
        }


def build_report(family: str, c_values) -> Report:
    families = FAMILIES if family == "all" else (family,)
    report = Report(families=families)
    for fam in families:
        report.entries.extend(builders.run_family(fam, c_values))
    return report


def _print_table(report: Report, decimal: bool) -> None:
    counts = {"pass": 0, "fail": 0, "flagged": 0}
    for entry in report.sorted_entries():
        counts[entry.status] += 1
        if entry.status == builders.PASS:
            continue
        print(f"[{entry.status.upper():7s}] {entry.scenario}: {entry.label}")
        print(f"          computed: {_fmt_value(entry.computed, decimal)}")
        if entry.expected is not None:
            print(f"          expected: {_fmt_value(entry.expected, decimal)}")
    print(
        f"{counts['pass']} passed, {counts['flagged']} flagged (known discrepancies), "
        f"{counts['fail']} failed"
    )


def _fmt_value(text: str, decimal: bool) -> str:
    if not decimal:
        return text
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text
    return f"{text} (~{float(value):.6f}, approximate)"


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _split(target: str) -> tuple[str, str]:
    name, sep, point = target.partition(":")
    if not sep:
        raise UsageError("s-point target must look like name:point")
    return name, point


# (scenario, op) -> the builders quantity `compute` prints, given the scenario,
# the --target text and the parsed --c.  The verify run reads the same
# quantities; builders is looked up on each call.
_QUANTITIES = {
    ("34-surfaces", "s-divisor"): lambda sid, t, c: builders.surface_s(t),
    ("34-surfaces", "beta"): lambda sid, t, c: builders.surface_beta(t),
    ("34-surfaces", "s-curve"): lambda sid, t, c: builders.surface_s_curve(t).value,
    ("34-surfaces", "s-point"): lambda sid, t, c: builders.surface_s_point(*_split(t)).value,
    ("34-surfaces", "delta"): lambda sid, t, c: builders.surface_delta(t),
    ("218", "s-divisor"): lambda sid, t, c: builders.Case218(t, c).s_ambient,
    ("218", "s-curve"): lambda sid, t, c: builders.Case218(t, c).s_curve.value,
    ("218", "s-point"): lambda sid, t, c: _case_218_point(t, c),
    ("218", "delta"): lambda sid, t, c: builders.Case218(t, c).delta,
}
for _sid in ("34-d4", "34-a3"):
    _QUANTITIES[_sid, "toric-s"] = lambda sid, t, c: builders.ToricFamily(sid).toric_s(t)
    _QUANTITIES[_sid, "s-curve"] = lambda sid, t, c: builders.ToricFamily(sid).s_curve(t).value
    _QUANTITIES[_sid, "s-point"] = (
        lambda sid, t, c: builders.ToricFamily(sid).s_point(*_split(t)).value)


def _case_218_point(target: str, c: Fraction) -> Fraction:
    case, point = _split(target)
    return builders.Case218(case, c).s_point(point).value


def _compute(scenario: str, op: str, target: str, c: Fraction | None) -> Fraction:
    if (scenario, op) not in _QUANTITIES:
        raise UsageError(f"op {op!r} not available for scenario {scenario!r}")
    if scenario == "218" and c is None:
        raise UsageError("--c is required for scenario 218")
    return _QUANTITIES[scenario, op](scenario, target, c)


def _parse_c(text: str) -> Fraction:
    """A boundary weight p/q inside the open c_domain of family 2.18."""
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--c {text!r} is not a rational number p/q") from None
    lo, hi = c_domain()
    if not lo < c < hi:
        raise UsageError(f"--c {text} lies outside the open interval ({lo}, {hi})")
    return c


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process."""
    parser = argparse.ArgumentParser(
        prog="fano-delta",
        description="Exact verification of the surface/toric flag invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all checks for a family")
    p_verify.add_argument("--family", choices=FAMILIES + ("all",), default="all")
    p_verify.add_argument("--c", action="append",
                          help="rational boundary weight p/q (repeatable; default: the seven stored samples)")
    p_verify.add_argument("--decimal", action="store_true",
                          help="append approximate decimals to printed values")

    p_compute = sub.add_parser("compute", help="print one exact invariant")
    p_compute.add_argument("--scenario", required=True, choices=FAMILIES)
    p_compute.add_argument("--op", required=True,
                           choices=["s-divisor", "s-curve", "s-point", "delta", "beta", "toric-s"])
    p_compute.add_argument("--target", required=True)
    p_compute.add_argument("--c")
    p_compute.add_argument("--decimal", action="store_true")

    p_report = sub.add_parser("report", help="emit a full report")
    p_report.add_argument("--family", choices=FAMILIES + ("all",), default="all")
    p_report.add_argument("--format", choices=["text", "json"], default="text")
    p_report.add_argument("--c", action="append")
    p_report.add_argument("--decimal", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except FixtureError as exc:
        # Any command: a fixture file that is unreadable, not JSON or missing
        # a key ends the run.
        print(f"error: unreadable fixture: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "compute":
            c = None if args.c is None else _parse_c(args.c)
            value = _compute(args.scenario, args.op, args.target, c)
        else:
            # Equal values (1/2, 2/4) name one c: run it once, first-seen order.
            c_values = list(dict.fromkeys(map(_parse_c, args.c))) if args.c else None
    except UsageError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except builders.DERIVATION_ERRORS as exc:
        # `compute` derives outside any check; run_218 reports these as FAIL entries.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.command == "compute":
        print(_fmt_value(str(value), args.decimal))
        return 0

    report = build_report(args.family, c_values)
    if args.command == "verify" or args.format == "text":
        _print_table(report, args.decimal)
    else:
        print(json.dumps(report.to_json(), indent=1))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
