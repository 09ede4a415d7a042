"""Tests of the benchmark itself: python3 -m pytest perfbench -q (about a minute)."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]

ALIAS_CHECK = """
import inspect, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import tracer
tracer.Recorder().install()
layer_of = {module: layer for layer, module in tracer.LAYERS.items()}
missing = []
for name, module in sorted(sys.modules.items()):
    if not name.startswith("fano_delta"):
        continue
    for attr, value in vars(module).items():
        if (tracer.is_traceable(value) and value.__module__ in layer_of
                and not value.__name__.startswith("_")
                and layer_of[value.__module__] + "." + value.__name__ not in tracer.SKIP
                and not hasattr(value, "__traced__")):
            missing.append(name + "." + attr)
for layer, classes in tracer.METHODS.items():
    module = sys.modules[tracer.LAYERS[layer]]
    for cls_name, attrs in classes.items():
        cls = getattr(module, cls_name)
        for attr in attrs or [a for a, v in vars(cls).items()
                              if not a.startswith("_") and inspect.isfunction(v)]:
            value = vars(cls)[attr]
            value = value.fget if isinstance(value, property) else value
            if not hasattr(value, "__traced__"):
                missing.append(f"{cls.__module__}.{cls_name}.{attr}")
print(json.dumps(missing))
"""


def test_every_alias_of_a_layer_function_is_traced():
    proc = subprocess.run([sys.executable, "-c", ALIAS_CHECK, str(ROOT)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == []


def _job(workload, seed, limit):
    items, expect = workloads.make_job(workload, ROOT, seed)
    if workload == "requery":
        expect = expect[:limit]
    return items[:limit], expect


def test_traced_outputs_equal_untraced_and_counts_repeat():
    # Prefixes of the c-sweep and requery jobs keep the test short; the
    # full report is a single item.
    for workload, limit in (("full-report", 1), ("c-sweep", 4), ("requery", 60)):
        items, expect = _job(workload, 7, limit)
        assert (items, expect) == _job(workload, 7, limit)
        plain = run.spawn(ROOT, items, False, False, None, 170)
        traced = [run.spawn(ROOT, items, True, False, None, 170) for _ in range(2)]
        outputs = [(i["code"], i["out"]) for i in plain["items"]]
        # Only untraced children sample the host's speed.
        assert plain["speed_samples"] and not traced[0]["speed_samples"]
        for child in traced:
            assert [(i["code"], i["out"]) for i in child["items"]] == outputs
            attempted, failed, _ = workloads.check_items(workload, expect, child["items"])
            assert attempted > 0 and failed == 0
        counts = [{k: v for k, v in c["layers"].items() if tracer.METRIC_UNITS[k] != "s"}
                  for c in traced]
        assert counts[0] == counts[1]
        assert counts[0]["cli.calls"] > 0 and counts[0]["exactmath.poly_evals"] > 0


def test_checks_catch_wrong_outputs():
    item = {"code": 0, "out": "1/3\n"}
    assert workloads.check_items("requery", [Fraction(1, 3)], [item]) == (1, 0, 1)
    assert workloads.check_items("requery", [Fraction(1, 2)], [item]) == (1, 1, 1)
    assert workloads.check_items("requery", [Fraction(1, 3)], [{**item, "code": 1}])[1] == 1

    line = "40 passed, 3 flagged (known discrepancies), {} failed\n"
    assert workloads.check_items("c-sweep", None, [{"code": 0, "out": line.format(0)}]) == (43, 0, 43)
    assert workloads.check_items("c-sweep", None, [{"code": 1, "out": line.format(2)}])[1] == 2
    assert workloads.check_items("c-sweep", None, [{"code": None, "out": ""}])[1] == 1

    reference = json.loads(workloads.REFERENCE.read_text())
    good = {"code": 0, "out": json.dumps(reference)}
    assert workloads.check_items("full-report", reference, [good])[1] == 0
    tampered = json.loads(good["out"])
    tampered["entries"][5]["computed"] = "0"
    bad = {"code": 0, "out": json.dumps(tampered)}
    assert workloads.check_items("full-report", reference, [bad])[1] == 1
    assert workloads.check_items("full-report", reference, [{"code": 0, "out": ""}])[1] == len(
        reference["entries"])


def test_timings_are_divided_by_the_slowdown():
    quiet = run.calibrate.REFERENCE_S
    children = [
        {"run_s": 4.0, "items": [{"s": 1.0}, {"s": 3.0}], "family_s": [], "decided": 8,
         "speed_samples": [quiet * 2] * 3, "peak_rss_mb": 20.0},
        {"run_s": 2.0, "items": [{"s": 0.5}, {"s": 1.5}], "family_s": [], "decided": 8,
         "speed_samples": [quiet, quiet, 9.0], "peak_rss_mb": 22.0},
    ]
    metrics = run.end_to_end_metrics(children, [0.3, 0.1, 0.2], probe=False)
    assert metrics["run_s"] == 2.0 and metrics["item_p50_s"] == 1.0
    assert metrics["checks_per_s"] == 4.0 and metrics["peak_rss_mb"] == 21.0
    assert abs(metrics["setup_s"] - 0.2 / 1.5) < 1e-12


def test_c_sweep_spreads_c_alike():
    for seed in (1, 2):
        values = workloads.c_sweep_values(ROOT, seed)
        assert len(set(values)) == len(values) == 19 and Fraction(1, 2) in values
        others = [c for c in values if c != Fraction(1, 2)]
        assert sorted(int(c * 6) for c in others) == [k for k in range(6) for _ in range(3)]
    assert workloads.c_sweep_values(ROOT, 1) != workloads.c_sweep_values(ROOT, 2)


def test_closed_forms():
    heart_r = json.loads((ROOT / workloads.FIXTURES / "scenarios" / "family-218.json")
                         .read_text())["cases"]["heart"]["points"][2]["expected_s"]
    c = Fraction(1, 2)  # the branch point belongs to the c_max branch
    assert workloads.eval_closed_form(heart_r, c) == (96 * (1 - c) ** 2 - (68 * c ** 2 - 124 * c + 57)) / (96 * (1 - c))
    assert workloads.eval_expr("3*(3-2*c)^2/4", Fraction(1, 3)) == Fraction(49, 12)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
