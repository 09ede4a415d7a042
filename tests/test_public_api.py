"""Every function, method and property of the package, public or private
(dunders aside), has a caller in the package: API or a helper that only the
tests call belongs in the tests.  Every name a module imports is read in
that module."""

import ast
import fractions
import importlib.util
from collections import defaultdict
from pathlib import Path

import fano_delta
from fano_delta import flagdelta

SRC = Path(fano_delta.__file__).resolve().parent

# Names kept without a caller in the package, each with its reason.
ALLOWED: dict[str, str] = {}

# A method named like a method of a builtin type cannot be told apart from
# that method by name, so it counts as uncalled.
BUILTIN_METHODS = {name for t in (list, tuple, dict, set, str, int, fractions.Fraction)
                   for name in dir(t) if not name.startswith("_")}


def _checked(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__"))


def definitions(tree):
    """(definition, is a method) for the module's functions and the methods
    and properties of its classes, dunders aside."""
    for node in tree.body:
        if _checked(node):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if _checked(item):
                    yield item, True


def uncalled(root: Path) -> list[str]:
    """path:name of each definition under root that nothing under root
    reads outside the definition itself: a method or property by attribute
    (x.name), a function also by name or import."""
    trees = {path.relative_to(root): ast.parse(path.read_text()) for path in sorted(root.rglob("*.py"))}
    reads = defaultdict(list)  # name -> (path, line, read as an attribute)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr].append((path, node.lineno, True))
            elif isinstance(node, ast.Name):
                reads[node.id].append((path, node.lineno, False))
            elif isinstance(node, ast.alias):
                reads[node.name].append((path, node.lineno, False))
    found = []
    for path, tree in trees.items():
        for node, method in definitions(tree):
            called = node.name in ALLOWED or not (method and node.name in BUILTIN_METHODS) and any(
                (attribute or not method) and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line, attribute in reads[node.name])
            if not called:
                found.append(f"{path}:{node.name}")
    return found


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled(SRC) == []


def test_uncalled_names_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
        "def _helper():\n    return 2\n\n\n"
        "class K:\n    def __init__(self):\n        self._set()\n\n"
        "    def _set(self):\n        pass\n\n"
        "    def _unset(self):\n        pass\n\n"
        "    def index(self):\n        return [].index(0)\n\n"
        "    @property\n    def size(self):\n        return self.size\n")
    assert uncalled(tmp_path) == ["m.py:unused", "m.py:_helper", "m.py:_unset", "m.py:index", "m.py:size"]


def unread_imports(root: Path) -> list[str]:
    """path:name of each name that a module under root binds by an import
    (``from __future__`` aside) and never reads."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append(f"{path.relative_to(root)}:{bound}")
    return found


def test_every_imported_name_is_read():
    assert unread_imports(SRC) == []


def test_unread_imports_are_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n\nimport math\nimport os.path\nimport json as j\n"
        "from fractions import Fraction, gcd as g\n\n\ndef f(x: Fraction) -> int:\n    return math.floor(x)\n")
    assert unread_imports(tmp_path) == ["m.py:os", "m.py:j", "m.py:g"]


def test_the_benchmark_tracer_finds_every_name_it_reads():
    # perfbench/tracer.py wraps names of the package by name: the Poly
    # methods it counts, Report.to_json and exit_code, every public method
    # of builders.ToricFamily, and it reads the scan cache's statistics.  A
    # name dropped or renamed in src/ fails here, not in a traced benchmark run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {name for name, *_ in tracer.layer_functions()}
    assert {"exactmath.parse_poly", "exactmath.Poly.__call__", "exactmath.Poly.subs", "cli.Report.to_json",
            "cli.Report.exit_code", "flagdelta.scenario_scans"} <= names
    assert any(name.startswith("builders.ToricFamily.") for name in names)
    assert callable(flagdelta.scenario_scans.cache_info)
