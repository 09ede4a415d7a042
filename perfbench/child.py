"""One cold fano-delta process: import the CLI, run a job's items, report.

Usage: python3 perfbench/child.py ROOT < job.json

ROOT is the checkout whose src/ holds the program.  The job is a JSON object
{"items": [argv, ...], "trace": bool, "family_probe": bool, "speed_probe":
bool, "spans_out": path or null}.  Each item is one call of
fano_delta.cli.main(argv), made as the console script makes it, with its
standard output and error captured.  With "family_probe" the wall time of
each builders.run_family call is recorded too, which times the families of a
single `report --family all`.  With "speed_probe" an interval timer
interrupts the program every PERIOD_S to time the fixed kernel of
perfbench/calibrate.py, so that the kernel samples the host's speed at the
same moments as the program runs; the kernel's time is taken out of every
timing.  The result is one JSON object on standard output.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

PERIOD_S = 0.1


class SpeedProbe:
    """Times `calibrate.kernel` on a wall-clock interval timer."""

    def __init__(self):
        import calibrate

        self.kernel = calibrate.kernel
        self.samples = []
        self.spent = 0.0  # seconds the kernel took, to subtract from timings
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


class NoProbe:
    samples = ()
    spent = 0.0

    def stop(self):
        pass


def timer(probe):
    """A clock that excludes the probe's kernel time."""
    return lambda: time.perf_counter() - probe.spent


def run_item(cli, argv, clock):
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed item, reported to run.py
        code = None
        err.write(traceback.format_exc())
    elapsed = clock() - start
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()[-2000:], "s": elapsed}


def main(root: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    from fano_delta import cli

    imported = time.monotonic()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"fano_delta imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    job = json.load(sys.stdin)

    recorder = None
    if job["trace"]:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()

    probe = SpeedProbe() if job.get("speed_probe") else NoProbe()
    clock = timer(probe)
    family_s = []
    if job["family_probe"]:
        builders = cli.builders
        run_family = builders.run_family

        def timed_run_family(*args, **kwargs):
            start = clock()
            try:
                return run_family(*args, **kwargs)
            finally:
                family_s.append(clock() - start)

        builders.run_family = timed_run_family

    start = clock()
    items = [run_item(cli, argv, clock) for argv in job["items"]]
    run_s = clock() - start
    probe.stop()

    result = {
        "imported": imported,
        "run_s": run_s,
        "items": items,
        "family_s": family_s,
        "speed_samples": list(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        result["layers"] = recorder.metrics()
        if job.get("spans_out"):
            recorder.dump(os.path.join(root, job["spans_out"]))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
