"""fano-delta benchmark: cold-process workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-reference

Workloads (BENCHMARK.json records why each measured one exists):

  full-report  `report --family all --format json` with the stored c samples;
               an item is one family.  The report must equal the reference
               in perfbench/reference/full-report.json.
  c-sweep      `verify --family 218 --c <c>` for 19 seeded c spread alike
               over c_domain; an item is one c.  Every c must exit 0 with no
               failed check.
  requery      a seeded stream of single `compute` queries over all four
               scenarios; an item is one query.  Each printed value must equal
               the expected value read from the fixture JSON.  It is not
               in BENCHMARK.json: three workloads fit the time limit of the
               checks on the benchmark only with runs too short to be steady
               on a 2-core shared VM.  The two kept workloads cover every
               layer and the case that bypasses toric3, with 60 s runs.

Every repetition runs in a fresh child process (perfbench/child.py), because
the program's module caches survive inside a process and every user or CI
invocation pays the cold cost.  The loop is closed, with one client and no
threads: run.py starts repetitions one after another until the next one
would end after --seconds.

A small shared VM runs a process at full speed at some times and up to half
as fast at others, as its neighbours load the host; the share of slow time
changes from minute to minute, so raw medians moved by a quarter between
runs.  Each timed child therefore also samples the host's speed while the
program runs: an interval timer interrupts it every 0.1 s to time a fixed
kernel of the benchmark's own (perfbench/calibrate.py), and the kernel's
time is taken out of the child's timings.  The child's timings are divided
by its slowdown, the median kernel time over calibrate.REFERENCE_S, the
kernel's median on a quiet host.  A change to the program never changes the
kernel.  The kernel is less sensitive to a busy host than the program, so
this shrinks the drift rather than removing it.

End-to-end metrics (--trace 0), each the median over the run's children of
a time divided by the child's slowdown: setup_s (spawn until fano_delta.cli
is imported, over import-only children, three per repetition, divided by
the median slowdown of the run), run_s (all items of a repetition),
item_p50_s (median item), checks_per_s (verdicts or answers per second of
run_s) and peak_rss_mb (the child's ru_maxrss, not scaled).  error_rate,
the failed share of what was attempted, is printed with them; the result
line carries it as "failed" over "attempted".  The raw run_s of every
repetition is printed too.

Per-layer metrics (--trace 1): repetitions alternate between an untraced
child and one traced by perfbench/tracer.py.  The traced children give each
layer's self time (median) and counts (which must repeat exactly), and
trace.overhead_ratio is the median traced run_s over the median untraced one.
The traced outputs must equal the untraced outputs.  The spans of the last
traced child are written to .perfbench/spans-<workload>.json.

Children run with PYTHONHASHSEED=0, so that set iteration order, and with it
every count, repeats from run to run.  The first line of standard output
records the Python version, nproc and the load average at start; the last
line is one JSON object with the keys correct, attempted, failed and metrics.

The benchmark's own tests: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench"
DEADLINE_S = 170  # a run must end within 180 s
SETUPS_PER_ROUND = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**tracer.METRIC_UNITS, "trace.overhead_ratio": "ratio"}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def spawn(root: Path, items, trace: bool, family_probe: bool, spans_out, timeout: float):
    """Run one child; return its result with setup_s added."""
    job = json.dumps({"items": items, "trace": trace, "family_probe": family_probe,
                      "speed_probe": bool(items) and not trace, "spans_out": spans_out})
    env = {k: v for k, v in os.environ.items() if k != "FANO_DELTA_FIXTURES"}
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence counts, repeat
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(root)],
        input=job, capture_output=True, text=True, env=env, cwd=root, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["imported"] - spawned
    return result


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items, expect = workloads.make_job(workload, root, seed)
    probe = workload == "full-report"
    started = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    # Untimed warm-up: byte-compiles the program and fills the page cache.
    spawn(root, [], False, False, None, remaining())

    kinds = (False, True) if trace else (False,)
    spans_out = f"{OUT_DIR}/spans-{workload}.json"
    if trace:
        os.makedirs(root / OUT_DIR, exist_ok=True)
    plain, traced, rounds, setups = [], [], [], []
    measure_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for _ in range(SETUPS_PER_ROUND):
            setups.append(spawn(root, [], False, False, None, remaining())["setup_s"])
        for kind in kinds:
            child = spawn(root, items, kind, probe, spans_out if kind else None, remaining())
            (traced if kind else plain).append(child)
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - measure_start
        if elapsed + statistics.median(rounds) > seconds:
            break

    attempted = failed = 0
    for child in plain + traced:
        child_attempted, child_failed, child["decided"] = workloads.check_items(
            workload, expect, child["items"])
        attempted += child_attempted
        failed += child_failed
    reference = [(i["code"], i["out"]) for i in plain[0]["items"]]
    for child in traced:
        mismatched = sum(ref != (i["code"], i["out"]) for ref, i in zip(reference, child["items"]))
        attempted += len(reference)
        failed += mismatched

    if trace:
        metrics, units = layer_metrics(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(plain, setups, probe), END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "run_s": {"untraced": [round(c["run_s"], 4) for c in plain],
                  "traced": [round(c["run_s"], 4) for c in traced]},
    }


def slowdown(samples) -> float:
    """How many times longer than on a quiet host the kernel took."""
    return statistics.median(samples) / calibrate.REFERENCE_S


def end_to_end_metrics(children: list[dict], setups: list[float],
                       probe: bool) -> dict[str, float]:
    median = statistics.median
    runs, items, rates, slow = [], [], [], []
    for child in children:
        slow.append(slowdown(child["speed_samples"]))
        times = child["family_s"] if probe else [i["s"] for i in child["items"]]
        runs.append(child["run_s"] / slow[-1])
        items.append(median(times) / slow[-1])
        rates.append(child["decided"] / runs[-1])
    return {
        # Import-only children run no kernel; the run's children tell how
        # slow the host was around them.
        "setup_s": median(setups) / median(slow),
        "run_s": median(runs),
        "item_p50_s": median(items),
        "checks_per_s": median(rates),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in children),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    first = traced[0]["layers"]
    for child in traced[1:]:
        changed = [k for k, unit in tracer.METRIC_UNITS.items()
                   if unit != "s" and child["layers"][k] != first[k]]
        if changed:
            print(f"warning: counts differ between traced children: {changed}", file=sys.stderr)
    out = {}
    for name, unit in tracer.METRIC_UNITS.items():
        if unit == "s":
            out[name] = statistics.median(c["layers"][name] for c in traced)
        else:
            out[name] = first[name]
    out["trace.overhead_ratio"] = (statistics.median(c["run_s"] for c in traced)
                                   / statistics.median(c["run_s"] for c in plain))
    return out


def record_reference(root: Path) -> None:
    child = spawn(root, [workloads.REPORT_ARGV], False, False, None, DEADLINE_S)
    item = child["items"][0]
    if item["code"] != 0:
        raise SystemExit(f"report exited with {item['code']}: {item['err']}")
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(json.loads(item["out"]), fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_summary(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:12s} {name:36s} {metric['value']:14.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload:12s} {'error_rate':36s} {rate:14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for kind, values in result["run_s"].items():
        if values:
            print(f"{workload:12s} run_s of each {kind} repetition: {values}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the full-report reference from this checkout")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fano_delta" / "cli.py").is_file():
        print(f"error: no fano_delta sources under {root / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    print("env:", json.dumps(environment()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, results[name])
    if args.workload == "all":
        print(json.dumps(results))
    else:
        result = results[args.workload]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
