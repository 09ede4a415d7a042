"""Single-node mutation sweep over fixture files.

    PYTHONPATH=src python tests/mutation_sweep.py [--seed 2] [--nodes 40] [FILE=FAMILY ...]

For each fixture file, named relative to the fixture directory, the sweep
samples up to --nodes JSON nodes below the root (seeded by --seed and the
file name) and applies every mutation to every sampled node: the text
"u^^2", the int 99, null and an empty list in its place, and deleting it,
or for a list element duplicating it and dropping it.  Each mutated tree
runs `verify --family FAMILY` in process.  A run ends in one `error:` line,
in a report (exit 0 or 1), or in an exception that escapes `main`; the
exceptions are grouped by type and by the last frame inside the package.
Without FILE=FAMILY arguments it sweeps the 34-surfaces and 34-d4 scenario
files and the known-discrepancy registry.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from fano_delta import cli, scenarios

DEFAULT = ("scenarios/family-34-surfaces.json=34-surfaces", "scenarios/family-34-d4.json=34-d4",
           "known_discrepancies.json=all")
DELETED, DUPLICATED = object(), object()


def node_paths(data, path=()):
    """The key path of every node below the root of a JSON document."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from node_paths(value, (*path, key))


def mutations(path):
    """The mutations of the node at path: replacements, then a deletion, or
    for a list element a duplication and a deletion."""
    return ["u^^2", 99, None, [], DELETED] + ([DUPLICATED] if isinstance(path[-1], int) else [])


def mutated(data, path, value):
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    elif value is DUPLICATED:
        parent.insert(path[-1], parent[path[-1]])
    else:
        parent[path[-1]] = value
    return data


def outcome(family: str) -> str:
    """How `verify --family family` ends on the fixture directory in use."""
    scenarios.fixture.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--family", family])
    except Exception as exc:  # noqa: BLE001 -- every escape is what the sweep counts
        frames = traceback.extract_tb(exc.__traceback__)
        frame = next((f for f in reversed(frames) if f"{os.sep}fano_delta{os.sep}" in f.filename), frames[-1])
        return f"traceback {type(exc).__name__} at {Path(frame.filename).stem}.{frame.name}"
    if err.getvalue():
        lines = err.getvalue().count("\n")
        return "error line" if (code, out.getvalue(), lines) == (1, "", 1) else f"error output, exit {code}"
    return f"report, exit {code}"


def sweep(root: Path, relative: str, family: str, seed: int, nodes: int) -> Counter:
    path = root / relative
    original = path.read_text()
    data = json.loads(original)
    paths = list(node_paths(data))
    picked = random.Random(f"{seed}:{relative}").sample(paths, min(nodes, len(paths)))
    counts = Counter()
    try:
        for node in picked:
            for value in mutations(node):
                path.write_text(json.dumps(mutated(data, node, value)))
                counts[outcome(family)] += 1
    finally:
        path.write_text(original)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument("files", nargs="*", default=DEFAULT, metavar="FILE=FAMILY")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "fixtures"
        shutil.copytree(scenarios.fixtures_dir(), root)
        os.environ["FANO_DELTA_FIXTURES"] = str(root)
        for spec in args.files:
            relative, family = spec.split("=")
            counts = sweep(root, relative, family, args.seed, args.nodes)
            escaped = sum(n for kind, n in counts.items() if kind.startswith("traceback"))
            print(f"{relative} (verify --family {family}): {sum(counts.values())} mutations, "
                  f"{escaped} tracebacks")
            for kind, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
                print(f"  {n:4d}  {kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
