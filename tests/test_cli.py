"""Command-line interface: compute, verify, report, exit codes."""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fano_delta import cli, scenarios
from fano_delta.scenarios import load_scenario_data


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_full_report_equals_the_reference(family_runs):
    # `report --family all --format json` must not change unless the
    # verdicts do; the benchmark checks its outputs against this file.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "full-report.json"
    report = cli.Report(cli.FAMILIES, [e for fam in cli.FAMILIES for e in family_runs[fam]])
    assert report.to_json() == json.loads(reference.read_text())


def test_compute_toric_s(capsys):
    code, out, _ = run_cli(capsys, "compute", "--scenario", "34-a3",
                           "--op", "toric-s", "--target", "G")
    assert code == 0 and out.strip() == "41/9"


def test_compute_beta(capsys):
    code, out, _ = run_cli(capsys, "compute", "--scenario", "34-surfaces",
                           "--op", "beta", "--target", "E")
    assert code == 0 and out.strip() == "4/9"


def test_compute_s_point(capsys):
    code, out, _ = run_cli(capsys, "compute", "--scenario", "34-d4",
                           "--op", "s-point", "--target", "alpha0:generic")
    assert code == 0 and out.strip() == "5/24"


def test_compute_218_requires_c(capsys):
    code, _, err = run_cli(capsys, "compute", "--scenario", "218",
                           "--op", "s-curve", "--target", "diamond")
    assert code == 2 and "--c" in err


def test_compute_usage_error(capsys):
    # A curve name given on the command line, not one a fixture reads.
    code, out, err = run_cli(capsys, "compute", "--scenario", "34-d4",
                             "--op", "s-curve", "--target", "alpha9")
    assert (code, out, err) == (2, "", "error: unknown curve 'alpha9'\n")


def test_compute_decimal_marked_approximate(capsys):
    code, out, _ = run_cli(capsys, "compute", "--scenario", "218", "--op",
                           "s-divisor", "--target", "easy", "--c", "1/2",
                           "--decimal")
    assert code == 0 and "approximate" in out


def test_verify_34_surfaces_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "34-surfaces")
    assert code == 0
    assert "0 failed" in out


def test_verify_218_single_c(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "218", "--c", "1/2")
    assert code == 0
    assert "3 flagged" in out


def test_report_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "report", "--family", "34-surfaces", "--format", "json")
    code2, out2, _ = run_cli(capsys, "report", "--family", "34-surfaces", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["exit_code"] == 0
    labels = [e["label"] for e in data["entries"]]
    assert labels == sorted(labels)


def _fixture_copy(dst, relative, edit):
    """A copy of the fixture directory at dst with `edit` applied to the
    parsed JSON of one file."""
    from fano_delta import scenarios

    shutil.copytree(scenarios.fixtures_dir(), dst)
    path = dst / relative
    data = json.loads(path.read_text())
    path.write_text(json.dumps(edit(data)))
    return dst


@pytest.mark.parametrize("fixtures, argv, named", [
    ("missing", ("compute", "--scenario", "34-d4", "--op", "toric-s", "--target", "G"),
     "family-34-d4.json"),
    ("missing", ("verify", "--family", "218", "--c", "1/2"), "family-218.json"),  # read by --c
    ("missing", ("verify", "--family", "34-d4"), "family-34-d4.json"),
    ("malformed", ("verify", "--family", "34-d4"), "table-02.json"),  # the file is "{"
    ("empty", ("verify", "--family", "34-d4"), "table-02.json: missing key 'id'"),
    ("keyless", ("compute", "--scenario", "34-d4", "--op", "toric-s", "--target", "G"),
     "family-34-d4.json: missing key 'weight_vector'"),
    ("keyless", ("verify", "--family", "34-d4"), "family-34-d4.json: missing key 'weight_vector'"),
    ("directory", ("verify", "--family", "34-d4"), "table-02.json: Is a directory"),
    ("bad-expression", ("verify", "--family", "34-d4"), "'u^^2'"),  # one P cell is "u^^2"
])
def test_unreadable_fixture_is_one_error_line(tmp_path, capsys, monkeypatch, fixtures, argv, named):
    from fano_delta import scenarios

    root = tmp_path / "fixtures"
    if fixtures != "missing":
        shutil.copytree(scenarios.fixtures_dir(), root)
    table = root / "tables" / "table-02.json"
    if fixtures in ("malformed", "empty"):
        table.write_text("{" if fixtures == "malformed" else "{}")
    elif fixtures == "directory":
        table.unlink()
        table.mkdir()
    elif fixtures == "bad-expression":
        data = json.loads(table.read_text())
        data["rows"][0]["P"][0] = "u^^2"
        table.write_text(json.dumps(data))
    elif fixtures == "keyless":
        family = root / "scenarios" / "family-34-d4.json"
        data = json.loads(family.read_text())
        del data["weight_vector"]
        family.write_text(json.dumps(data))
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(root))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: unreadable fixture: ") and err.count("\n") == 1
    assert named in err


def test_verify_218_folds_c_in_integers_and_formats_no_label(capsys, monkeypatch):
    # At a c, every fixture text is read through its integer fold in c, and
    # no S-value breakdown is formatted, as nothing on this path reads one.
    from fano_delta.exactmath import Chamber, Poly

    with_c, labels = [], []
    for name in ("subs", "__call__"):
        def counting(self, _original=getattr(Poly, name), _name=name, **values):
            if "c" in values:
                with_c.append(_name)
            return _original(self, **values)

        monkeypatch.setattr(Poly, name, counting)
    label = Chamber.label.func
    monkeypatch.setattr(Chamber, "label", property(lambda ch: labels.append(ch) or label(ch)))
    code, out, _ = run_cli(capsys, "verify", "--family", "218", "--c", "3/7")
    assert code == 0 and out.endswith("40 passed, 3 flagged (known discrepancies), 0 failed\n")
    assert with_c == [] and labels == []


def _set(*path):
    """An edit that sets data[path[0]]...[path[-2]] to path[-1]."""
    def edit(data):
        node = data
        for key in path[:-2]:
            node = node[key]
        node[path[-2]] = path[-1]
        return data
    return edit


def _resized(*path):
    """An edit that gives the list data[path[0]]...[path[-2]] path[-1] more
    entries, copies of its first, or for a negative path[-1] that many fewer."""
    def edit(data):
        node = data
        for key in path[:-2]:
            node = node[key]
        items, by = node[path[-2]], path[-1]
        node[path[-2]] = items + items[:1] * by if by > 0 else items[:by]
        return data
    return edit


S_POINT_34_D4 = ("compute", "--scenario", "34-d4", "--op", "s-point", "--target", "alpha0:generic")


@pytest.mark.parametrize("edit, argv, named", [
    (_set("star", "alpha_order", [99, 9, 8, 3, 7, 4]), S_POINT_34_D4, "once each"),
    (_set("star", "alpha_order", [99, 9, 8, 3, 7, 4]), ("verify", "--family", "34-d4"), "once each"),
    (_set("star", "self_character", [1, 0, 1]), S_POINT_34_D4, "self_character"),  # <m, (1,3,-1)> = 0
    (_set("star", "ray", 99), ("verify", "--family", "34-d4"), "isolated ray"),
    (_set("star", "pinned", {"1": [1, 0], "3": [0, 2]}), S_POINT_34_D4, "lattice basis"),
])
def test_bad_star_block_is_one_fixture_error(tmp_path, capsys, monkeypatch, edit, argv, named):
    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-34-d4.json", edit)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: unreadable fixture: ") and err.count("\n") == 1
    assert "family-34-d4.json: 'star': " in err and named in err


@pytest.mark.parametrize("argv, point", [
    (("--scenario", "34-d4", "--target", "alpha0:nonsense"), "nonsense"),
    (("--scenario", "218", "--target", "heart:zz", "--c", "1/2"), "zz"),
    (("--scenario", "34-surfaces", "--target", "S-weighted:zz"), "zz"),
])
def test_unknown_marked_point_is_a_usage_error(capsys, argv, point):
    code, out, err = run_cli(capsys, "compute", "--op", "s-point", *argv)
    assert code == 2 and out == ""
    assert err == f"error: unknown marked point {point!r}\n"


def test_key_error_inside_a_builder_is_not_a_usage_error(capsys, monkeypatch):
    def broken(self, target):
        raise KeyError("weight_vector")

    monkeypatch.setattr(cli.builders.ToricFamily, "toric_s", broken)
    with pytest.raises(KeyError):
        cli.main(["compute", "--scenario", "34-d4", "--op", "toric-s", "--target", "G"])
    assert capsys.readouterr().err == ""


def _rename_threshold_curve(data):
    data["cells"]["alpha9"] = data["cells"].pop("alpha1")
    return data


def _rename_check_point(data):
    case = data["curve_cases"]["alpha1"]
    case["check_points"] = ["Q99" if name == "Q16" else name for name in case["check_points"]]
    return data


def _rename_different_point(data):
    different = data["curve_cases"]["alpha1"]["different"]
    different["Q99"] = different.pop("Q16")
    return data


def _unknown_printed_divisor(data):
    data["printed_curve_values"][0]["divisor"] = "Z"
    return data


@pytest.mark.parametrize("relative, edit, named", [
    ("tables/table-03.json", _rename_threshold_curve, "table-03.json: 'cells': unknown curve 'alpha9'"),
    ("scenarios/family-34-d4.json", _rename_check_point,
     "family-34-d4.json: 'check_points': unknown marked point 'Q99'"),
    ("scenarios/family-34-d4.json", _rename_different_point,
     "family-34-d4.json: 'different': unknown marked point 'Q99'"),
    ("scenarios/family-34-d4.json", _unknown_printed_divisor,
     "family-34-d4.json: 'divisor': unknown divisor 'Z'"),
], ids=["threshold-curve", "check-point", "different-point", "printed-divisor"])
def test_unknown_name_in_a_fixture_is_one_fixture_error(tmp_path, capsys, monkeypatch, relative, edit,
                                                        named):
    # A name a fixture reads that nothing defines ends the run with one line
    # naming the file and key: no check drops out silently.
    dst = _fixture_copy(tmp_path / "fixtures", relative, edit)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "verify", "--family", "34-d4")
    assert code == 1 and out == ""
    assert err.startswith("error: unreadable fixture: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("relative, edit, family, named", [
    ("scenarios/family-34-d4.json", _set("star", "contracted", [99]), "34-d4",
     "family-34-d4.json: 'contracted': 99 is no curve index of 6 curves"),
    ("scenarios/family-34-d4.json", _set("curve_cases", "alpha1", "class", ["1", "0", "0"]), "34-d4",
     "family-34-d4.json: 'class': 3 entries for 6 curves"),
    ("scenarios/family-34-surfaces.json", _set("flags", "S-weighted", "points", 0, "mults", "9", "1"),
     "34-surfaces", "family-34-surfaces.json: 'mults': '9' is no curve index of 3 curves"),
    ("scenarios/family-34-surfaces.json", _set("flags", "S-weighted", "points", 0, "mults", "x", "1"),
     "34-surfaces", "family-34-surfaces.json: 'mults': 'x' is no curve index of 3 curves"),
    ("scenarios/family-34-surfaces.json", _set("flags", "S-Z", "curve", 2), "34-surfaces",
     "family-34-surfaces.json: 'curve': 2 is no curve index of 2 curves"),
    ("models/m34-quadric.json", _set("generates_pseff", False), "34-surfaces",
     "m34-quadric.json: 'generates_pseff': only true is supported"),
    ("scenarios/family-34-d4.json", _set("star", "contracted", [1, 1]), "34-d4",
     "family-34-d4.json: 'contracted': repeated curve index in [1, 1]"),
    ("models/m34-quadric.json", _set("gram", [["0", "1"]]), "34-surfaces",
     "m34-quadric.json: 'gram': Gram matrix dimensions must match curve count"),
    ("models/m34-quadric.json", _set("gram", 0, 1, "2"), "34-surfaces",
     "m34-quadric.json: 'gram': Gram matrix must be symmetric"),
    ("scenarios/family-34-d4.json", _set("certificate", 2, "N", {"99": "(u-2)/3"}), "34-d4",
     "family-34-d4.json: 'N': '99' is no ray index of 7 rays"),
    ("scenarios/family-34-d4.json", _set("certificate", 2, "forcing", {"x": [0, 3]}), "34-d4",
     "family-34-d4.json: 'forcing': 'x' is no ray index of 7 rays"),
    ("scenarios/family-34-d4.json", _set("pullbacks", "zeta0", "T0", {"42": "1"}), "34-d4",
     "family-34-d4.json: 'T0': '42' is no ray index of 11 rays"),
    ("tables/table-02.json", lambda data: {**data, "columns": data["columns"][:-1]}, "34-d4",
     "table-02.json: 'P': 6 entries for 5 columns"),
    ("scenarios/family-34-d4.json", _set("printed_curve_values", 0, "values", "0,99", "1"), "34-d4",
     "family-34-d4.json: '0,99': '99' is no ray index of 7 rays"),
    ("scenarios/family-34-d4.json", _set("printed_curve_values", 0, "values", "1,6", "1"), "34-d4",
     "family-34-d4.json: '1,6': [1, 6] is no 2-cone of the fan"),
    ("scenarios/family-34-d4.json", _set("certificate", 2, "forcing", {"3": [0, 9]}), "34-d4",
     "family-34-d4.json: 'forcing': 9 is no ray index of 7 rays"),
    ("scenarios/family-34-d4.json", _set("certificate", 2, "forcing", {"3": [1, 6]}), "34-d4",
     "family-34-d4.json: 'forcing': [1, 6] is no 2-cone of the fan"),
    ("scenarios/family-218.json", _set("cases", "heart", "points", 2, "expected_s", 0, "c_max", "1/3"), "218",
     "family-218.json: 'c_min'/'c_max': no branch covers c=1/2"),
    # The triple table answers 0 off its keys: a key naming no ray must not
    # pass as a triple that vanishes.
    ("scenarios/family-34-d4.json", _set("printed_triples", "d4-w0", "0,1,99", "0"), "34-d4",
     "family-34-d4.json: '0,1,99': '99' is no ray index of 7 rays"),
    ("scenarios/family-34-d4.json", _set("printed_triples", "d4-w0", "99,99,99", "0"), "34-d4",
     "family-34-d4.json: '99,99,99': '99' is no ray index of 7 rays"),
    ("scenarios/family-34-d4.json", _set("printed_triples", "d4-w0", "0,1", "0"), "34-d4",
     "family-34-d4.json: '0,1': [0, 1] is no ray triple of the fan"),
    # A list of the wrong length, checked where it meets its model or fan:
    # one entry too many must not be dropped, one too few must not crash.
    ("scenarios/family-218.json", _resized("cases", "easy", "base", 1), "218",
     "family-218.json: 'base': 2 entries for 1 curves"),
    ("scenarios/family-218.json", _resized("cases", "heart", "base", 1), "218",
     "family-218.json: 'base': 4 entries for 3 curves"),
    ("scenarios/family-218.json", _resized("cases", "heart", "base", -1), "218",
     "family-218.json: 'base': 2 entries for 3 curves"),
    ("scenarios/family-34-surfaces.json", _resized("flags", "E-l", "pieces", 0, "base", 1), "34-surfaces",
     "family-34-surfaces.json: 'base': 3 entries for 2 curves"),
    ("scenarios/family-34-surfaces.json", _resized("flags", "E-l", "pieces", 0, "base", -1), "34-surfaces",
     "family-34-surfaces.json: 'base': 1 entries for 2 curves"),
    ("scenarios/family-34-d4.json", _resized("l_u", -1), "34-d4", "family-34-d4.json: 'l_u': 6 entries for 7 rays"),
    ("scenarios/family-34-d4.json", _resized("l_u", 1), "34-d4", "family-34-d4.json: 'l_u': 8 entries for 7 rays"),
    ("scenarios/family-34-d4.json", _resized("l_on_y", -1), "34-d4",
     "family-34-d4.json: 'l_on_y': 5 entries for 6 rays"),
    ("scenarios/family-34-d4.json", _resized("weight_vector", -1), "34-d4",
     "family-34-d4.json: 'weight_vector': 2 entries for 3 coordinates"),
    ("scenarios/family-34-d4.json", _resized("character_relations", "d4-w0", 0, -1), "34-d4",
     "family-34-d4.json: 'd4-w0': 6 entries for 7 rays"),
    ("scenarios/family-34-d4.json", _resized("auxiliary_divisors", "P1", -1), "34-d4",
     "family-34-d4.json: 'divisor': 6 entries for 7 rays"),
    ("scenarios/family-34-d4.json", _resized("blowup_weights", -1), "34-d4",
     "family-34-d4.json: 'blowup_weights': 2 entries for 3 coordinates"),
    ("scenarios/family-34-d4.json", _resized("certificate", 0, "u", -1), "34-d4",
     "family-34-d4.json: 'u': 1 entries for 2 ends"),
    # A list key holding a scalar or a string, and a weight that is not positive.
    ("scenarios/family-34-d4.json", _set("certificate", 0, "u", 5), "34-d4",
     "family-34-d4.json: 'u': 5 is no array of 2 ends"),
    ("scenarios/family-34-d4.json", _set("certificate", 0, "u", "01"), "34-d4",
     "family-34-d4.json: 'u': '01' is no array of 2 ends"),
    ("scenarios/family-34-d4.json", _set("blowup_weights", [0, 3, 1]), "34-d4",
     "family-34-d4.json: 'blowup_weights': [0, 3, 1] are not positive integers"),
    ("scenarios/family-34-d4.json", _resized("expected", "nef_windows", "d4-w0", -1), "34-d4",
     "family-34-d4.json: 'd4-w0': 1 entries for 2 ends"),
    ("tables/table-02.json", _resized("rows", 0, "u", -1), "34-d4",
     "table-02.json: 'u': 1 entries for 2 ends"),
    ("tables/table-04.json", _resized("rows", 0, "u", -1), "34-d4",
     "table-04.json: 'u': 1 entries for 2 ends"),
    ("tables/table-04.json", _resized("rows", 0, "v", -1), "34-d4",
     "table-04.json: 'v': 1 entries for 2 ends"),
    ("tables/table-03.json", _resized("cells", "alpha1", 0, "u", -1), "34-d4",
     "table-03.json: 'u': 1 entries for 2 ends"),
    ("scenarios/family-34-surfaces.json", _resized("deltas", 0, "levels", 0, -1), "34-surfaces",
     "family-34-surfaces.json: 'levels': 1 entries for 2 values"),
    # N must be affine in u: the endpoints of an interval certify it there.
    ("scenarios/family-34-d4.json", _set("certificate", 2, "N", {"3": "(u-2)/3+v"}), "34-d4",
     "family-34-d4.json: 'N': 1/3*u + v - 2/3 is not affine in u"),
    ("scenarios/family-34-d4.json", _set("certificate", 2, "N", {"3": "u^2"}), "34-d4",
     "family-34-d4.json: 'N': u^2 is not affine in u"),
    # An expression that is not a string, one past the parser's degree bound
    # (refused before it is expanded), and a divisor text not affine in u.
    ("scenarios/family-34-d4.json", _set("l_u", 0, 99), "34-d4",
     "family-34-d4.json: 'l_u': expression 99 is not a string"),
    ("scenarios/family-34-surfaces.json", _set("volumes", "F", "pieces", 0, "poly", "u^200000"), "34-surfaces",
     "family-34-surfaces.json: 'poly': total degree or exponent above 9 in 'u^200000'"),
    ("scenarios/family-34-surfaces.json", _set("flags", "E-l", "pieces", 0, "base", 0, "u^2"), "34-surfaces",
     "family-34-surfaces.json: 'base': u^2 is not affine in u"),
    # A volume is read as a polynomial in u alone, here and at each c.
    ("scenarios/family-34-surfaces.json", _set("volumes", "F", "pieces", 0, "poly", "v+9-9*u"), "34-surfaces",
     "family-34-surfaces.json: 'poly': -9*u + v + 9 is not a polynomial in u alone"),
    ("scenarios/family-218.json", _set("cases", "easy", "ambient", "volume", 0, "poly", "v+3*(3-2*c)^2*(2-2*c-u)"),
     "218", "family-218.json: 'poly': -588/25*u + v + 5292/125 is not a polynomial in u alone"),
    # A divisor read as constant has no u-term.
    ("scenarios/family-34-d4.json", _set("l_on_y", 0, "u+1"), "34-d4",
     "family-34-d4.json: 'l_on_y': u + 1 is not constant"),
    ("scenarios/family-34-d4.json", _set("character_relations", "d4-w0", 0, 0, "u+1"), "34-d4",
     "family-34-d4.json: 'd4-w0': u + 1 is not constant"),
    # Text that does not parse, in a table cell, a chamber row and a threshold cell.
    ("tables/table-02.json", _set("rows", 0, "P", 0, "u^^2"), "34-d4",
     "table-02.json: 'P': bad character or exponent in 'u^^2'"),
    ("tables/table-04.json", _set("rows", 0, "v", 1, "u^^2"), "34-d4",
     "table-04.json: 'v': bad character or exponent in 'u^^2'"),
    ("tables/table-04.json", _set("rows", 0, "N", 0, "u^^2"), "34-d4",
     "table-04.json: 'N': bad character or exponent in 'u^^2'"),
    ("tables/table-03.json", _set("cells", "alpha1", 0, "t", "u^^2"), "34-d4",
     "table-03.json: 't': bad character or exponent in 'u^^2'"),
    # A table is built once into integer rows: a wall not affine in u, a
    # cell not affine in (u, v), a value that is no string or no array, and
    # a region that is no chamber.
    ("tables/table-04.json", _set("rows", 0, "v", 1, "u^2"), "34-d4", "table-04.json: 'v': u^2 is not affine in u"),
    ("tables/table-04.json", _set("rows", 0, "P", 1, "u*v"), "34-d4", "table-04.json: 'P': u*v is not affine"),
    ("tables/table-04.json", _set("rows", 0, "u", 0, None), "34-d4",
     "table-04.json: 'u': expression None is not a string"),
    ("tables/table-02.json", _set("rows", 0, "P", None), "34-d4", "table-02.json: 'P': None is no array of 6 columns"),
    ("tables/table-02.json", _set("rows", 0, "P", 0, 99), "34-d4", "table-02.json: 'P': expression 99 is not a string"),
    ("tables/table-03.json", _set("cells", "alpha1", 0, "t", None), "34-d4",
     "table-03.json: 't': expression None is not a string"),
    ("tables/table-04.json", lambda data: _set("rows", 1, "v", data["rows"][1]["v"][::-1])(data), "34-d4",
     "table-04.json: 'v': empty or inverted chamber"),
    # Columns are read where a table meets its fan or model.
    ("tables/table-01.json", _set("columns", 7, "T99"), "34-d4", "table-01.json: 'columns': unknown ray column 'T99'"),
    ("tables/table-04.json", _set("columns", 0, "alphaX"), "34-d4",
     "table-04.json: 'columns': ['alphaX', 'alpha2', 'alpha3', 'alpha4', 'alpha5', 'alpha6'] are not the curves "
     "['alpha1', 'alpha2', 'alpha3', 'alpha4', 'alpha5', 'alpha6']"),
    # A closed form in c names its file and key.
    ("scenarios/family-218.json", _set("cases", "easy", "curve_a", "1^^2"), "218",
     "family-218.json: 'curve_a': bad character or exponent in '1^^2'"),
], ids=["contracted", "class", "mults", "mults-text", "flag-curve", "generates-pseff", "contracted-repeated",
        "gram-rows", "gram-asymmetric", "certificate-ray", "forcing-ray", "pullback-ray", "table-columns",
        "curve-value-ray", "curve-value-pair", "forcing-pair-ray", "forcing-pair", "branch-gap",
        "triple-ray", "triple-repeated-ray", "triple-two-rays", "base-long", "base-long-heart", "base-short",
        "flag-base-long", "flag-base-short", "l_u-short", "l_u-long", "l_on_y-short", "weight-vector-short",
        "relation-short", "aux-divisor-short", "blowup-weights-short", "interval-u-short",
        "interval-u-scalar", "interval-u-string", "blowup-weights-zero", "nef-window-short",
        "table-u-short", "chamber-row-u-short", "chamber-row-v-short", "threshold-cell-u-short",
        "delta-level-short", "N-not-in-u", "N-quadratic", "l_u-not-a-string", "volume-degree",
        "flag-base-quadratic", "volume-not-in-u", "volume-not-in-u-at-c", "l_on_y-not-constant",
        "relation-not-constant", "table-cell-unparsed", "chamber-row-v-unparsed", "chamber-row-cell-unparsed",
        "threshold-cell-unparsed", "chamber-row-v-quadratic", "chamber-row-cell-not-affine", "chamber-row-u-null",
        "table-cells-null", "table-cell-number", "threshold-cell-null", "chamber-row-v-swapped",
        "zd3-column-ray", "chamber-table-column", "closed-form-unparsed"])
def test_out_of_range_fixture_value_is_one_fixture_error(tmp_path, capsys, monkeypatch, relative, edit, family,
                                                        named):
    dst = _fixture_copy(tmp_path / "fixtures", relative, edit)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "verify", "--family", family)
    assert code == 1 and out == ""
    assert err.startswith("error: unreadable fixture: ") and err.count("\n") == 1
    assert named in err


def _node_paths(data, path=()):
    """The key path of every node below the root of a JSON document."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _node_paths(value, (*path, key))


# Every node of the restriction, threshold and first chamber table of 34-d4.
TABLE_NODES = [(name, path) for name in ("table-02", "table-03", "table-04")
               for path in _node_paths(json.loads((scenarios.fixtures_dir() / "tables" / f"{name}.json").read_text()))]
DELETED = object()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(TABLE_NODES), st.sampled_from([None, 99, "u^^2", [], DELETED]))
def test_a_mutated_table_node_is_one_fixture_error_or_a_report(tmp_path_factory, node, value):
    # One node of a table set to null, 99, unparsable text or [], or deleted:
    # nothing escapes `main` as an exception, and the run ends in one error
    # line with nothing on stdout, or in a report.
    (name, path), root = node, tmp_path_factory.mktemp("fixtures") / "fixtures"

    def edit(data):
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return data

    _fixture_copy(root, f"tables/{name}.json", edit)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setenv("FANO_DELTA_FIXTURES", str(root))
        code = cli.main(["verify", "--family", "34-d4"])
    out, err = out.getvalue(), err.getvalue()
    if err:
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and re.search(r"\d+ passed, \d+ flagged \(known discrepancies\), \d+ failed\n$", out)
    shutil.rmtree(root)


def test_derivation_error_in_a_toric_stage_is_one_fail_entry(tmp_path, capsys, monkeypatch, family_runs):
    # sigma(alpha1) five times too large gives invalid correction data: the
    # flag-value stage ends in one FAIL naming the cause, and every earlier
    # stage reports its checks as before.
    from fano_delta.scenarios import builders

    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-34-d4.json",
                        _set("curve_cases", "alpha1", "sigma", ["0", "5", "5", "0", "0", "0"]))
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "verify", "--family", "34-d4")
    assert (code, err) == (1, "") and "Traceback" not in out
    assert sorted(re.findall(r"\[FAIL   \] 34-d4: (.*)\n +computed: (.*)", out)) == [
        ("flag_values: derivation", "DerivationError: invalid correction data"),
        ("sigma(alpha1)", "[Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), "
                          "Fraction(0, 1)]")]
    checks = builders.run_family("34-d4")
    clean = [e.label for e in family_runs["34-d4"]]
    first = next(i for i, label in enumerate(clean) if label.startswith("S_L(W^G;"))
    assert [e.label for e in checks[:first]] == clean[:first]
    assert (checks[-1].label, checks[-1].expected, checks[-1].status) == ("flag_values: derivation", None, "fail")


def test_derivation_error_in_a_34_surfaces_entry_is_one_fail(tmp_path, capsys, monkeypatch, family_runs):
    # The F volume negative on [0, 1] defines no S: its volume entry ends in
    # one FAIL naming the cause, and every other entry is checked as before.
    from fano_delta.scenarios import builders

    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-34-surfaces.json",
                        _set("volumes", "F", "pieces", 0, "poly", "-1-u"))
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "verify", "--family", "34-surfaces")
    assert (code, err) == (1, "") and "Traceback" not in out
    assert re.findall(r"\[FAIL   \] 34-surfaces: (.*)\n +computed: (.*)", out) == [
        ("S_L(F): derivation", "DerivationError: invalid volume function")]
    clean = [e.label for e in family_runs["34-surfaces"]]
    labels = [e.label for e in builders.run_family("34-surfaces")]
    assert labels == ["S_L(F): derivation", *(label for label in clean if label not in ("S_L(F)", "beta(F)"))]


def test_singular_contracted_block_is_one_sigmas_fail(tmp_path, capsys, monkeypatch, family_runs):
    # gram[5][5] = 0: the contracted block defines no sigma.  The sigma stage
    # ends in one FAIL naming why, and every other check is made as before.
    from fano_delta.scenarios import builders

    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-34-d4.json", _set("star", "contracted", [5]))
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "verify", "--family", "34-d4")
    assert (code, err) == (1, "") and "Traceback" not in out
    assert re.findall(r"\[FAIL   \] 34-d4: (.*)\n +computed: (.*)", out) == [
        ("sigmas: derivation", "DerivationError: singular Gram block of the contracted curves [5]")]
    clean = [e.label for e in family_runs["34-d4"]]
    first = next(i for i, label in enumerate(clean) if label.startswith("sigma("))
    labels = [e.label for e in builders.run_family("34-d4")]
    assert labels == [*clean[:first], "sigmas: derivation",
                      *(label for label in clean[first:] if not label.startswith("sigma("))]


def _easy_volume_negative(data):
    # Negative on the upper half of its piece [0, 2-2*c].
    data["cases"]["easy"]["ambient"]["volume"][0]["poly"] = "3*(3-2*c)^2*(1-2*c-u)"
    return data


def _ok_volume_zero(data):
    data["cases"]["ok"]["ambient"]["volume"][0]["poly"] = "0"
    return data


@pytest.mark.parametrize("edit, case, cause", [
    (_easy_volume_negative, "easy", "DerivationError: invalid volume function"),
    (_ok_volume_zero, "ok", "DerivationError: degenerate level"),
], ids=["negative-volume", "zero-volume"])
def test_derivation_error_is_one_fail_entry_per_case_and_c(tmp_path, capsys, monkeypatch, family_runs, edit,
                                                          case, cause):
    # The case's checks at each c give way to one FAIL naming the cause; the
    # other cases, and the case's printed ranges, are checked as before.
    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-218.json", edit)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "verify", "--family", "218")
    samples = load_scenario_data("218")["default_c_samples"]
    kept = [e for e in family_runs["218"] if not e.label.startswith(f"{case}@c=")]
    counts = {status: sum(e.status == status for e in kept) for status in ("pass", "flagged", "fail")}
    assert (code, err) == (1, "") and "Traceback" not in out
    assert re.findall(r"\[FAIL   \] 218: (.*)\n +computed: (.*)", out) == [
        (f"{case}@c={c}: derivation", cause) for c in sorted(samples)]
    assert out.splitlines()[-1] == (f"{counts['pass']} passed, {counts['flagged']} flagged (known discrepancies), "
                                    f"{counts['fail'] + len(samples)} failed")


def test_derivation_error_in_compute_is_one_error_line(tmp_path, capsys, monkeypatch):
    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-218.json", _easy_volume_negative)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, err = run_cli(capsys, "compute", "--scenario", "218", "--op", "delta", "--target", "easy",
                             "--c", "1/2")
    assert (code, out, err) == (1, "", "error: DerivationError: invalid volume function\n")


def _tamper_table_02(data):
    data["rows"][0]["P"][3] = "5"  # one restriction coefficient
    return data


def _unregister_table_02(entries):
    return [e for e in entries if e.get("table") != "table-02"]


def test_tampered_fixture_fails(tmp_path, capsys, monkeypatch):
    dst = _fixture_copy(tmp_path / "fixtures", "tables/table-02.json", _tamper_table_02)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, _ = run_cli(capsys, "verify", "--family", "34-d4")
    assert code == 1
    assert "table-02" in out and "5" in out


def _tamper_threshold(data):
    data["cells"]["alpha1"][0]["t"] = "2*u"  # computed: u
    return data


def _uncovered_threshold(data):
    data["cells"]["alpha1"].append({"u": ["7", "8"], "t": "1"})  # past u = 7
    return data


def _widened_threshold(data):
    data["cells"]["alpha1"][-1]["u"][1] = "9"  # [6,7] -> [6,9], past u = 7
    return data


@pytest.mark.parametrize("edit, label, computed", [
    (_tamper_threshold, "table-03 t(alpha1) on [0,1]", "u"),
    (_uncovered_threshold, "table-03 t(alpha1) on [7,8]", "uncovered"),
    (_widened_threshold, "table-03 t(alpha1) on [6,9]", "-u + 7; uncovered"),
])
def test_threshold_cell_failures(tmp_path, capsys, monkeypatch, edit, label, computed):
    dst = _fixture_copy(tmp_path / "fixtures", "tables/table-03.json", edit)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, _ = run_cli(capsys, "verify", "--family", "34-d4")
    assert code == 1
    assert f"[FAIL   ] 34-d4: {label}\n          computed: {computed}\n" in out
    assert out.endswith(", 1 failed\n")


def _misderived_range(data):
    # The second of three printed ranges; the threshold is 2-2*c+2*u.
    data["cases"]["blowup-tangent"]["printed_ranges"][1]["derived"] = "3-2*c+2*u"
    return data


def test_every_derived_range_is_checked_against_the_threshold(tmp_path, capsys, monkeypatch):
    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-218.json", _misderived_range)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, _ = run_cli(capsys, "verify", "--family", "218", "--c", "1/2")
    assert code == 1
    assert "[FAIL   ] 218: blowup-tangent@c=1/2: derived range is the threshold\n" in out
    assert out.endswith(", 1 failed\n")


def _non_principal_relation(data):
    # (15, 21, 0, 0, 0, 0, -1) is div(chi^m) for no m: the residual at ray 3
    # of d4-w0 is 2, where one intersection number with fixed probes was 0.
    data["character_relations"]["d4-w0"][0] = ["15", "21", "0", "0", "0", "0", "-1"]
    return data


def test_character_relation_must_be_principal(tmp_path, capsys, monkeypatch):
    dst = _fixture_copy(tmp_path / "fixtures", "scenarios/family-34-d4.json",
                        _non_principal_relation)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, _ = run_cli(capsys, "verify", "--family", "34-d4")
    assert code == 1
    assert "[FAIL   ] 34-d4: d4-w0: div(chi_1) annihilates\n          computed: 2\n" in out
    assert out.endswith(", 1 failed\n")


def _drop_t10(data):
    i = data["columns"].index("T10")
    for cells in [data["columns"]] + [row[f] for row in data["rows"] for f in ("P", "N")]:
        del cells[i]
    return data


def test_rays_left_out_of_the_resolution_table_must_have_no_negative_part(
        tmp_path, capsys, monkeypatch):
    # Ray 10's N is u - 4 on [4, 7]: leaving its column out of table-01 must fail.
    dst = _fixture_copy(tmp_path / "fixtures", "tables/table-01.json", _drop_t10)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    code, out, _ = run_cli(capsys, "verify", "--family", "34-d4")
    assert code == 1
    failed = re.findall(r"\[FAIL   \] 34-d4: (.*)", out)
    assert failed == [f"table-01 [{lo},{hi}] hidden ray 10" for lo, hi in ((4, 5), (5, 6), (6, 7))]


def _register_a3_only(entries):
    return entries + [
        {"kind": "table-cell", "table": "table-10", "u_lo": "0", "u_hi": "1",
         "v_lo": "0", "v_hi": "0", "field": "P", "curve": "alpha1"},
        {"kind": "fan-cones", "fan": "a3-w3"},
    ]


def test_registry_scope_follows_the_checked_tables_and_fans(tmp_path, capsys, monkeypatch):
    # Entries for a table and a fan that only 34-a3 checks: never flagged,
    # so they are missing from 34-a3's run and out of 34-d4's scope.
    dst = _fixture_copy(tmp_path / "fixtures", "known_discrepancies.json", _register_a3_only)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", str(dst))
    assert run_cli(capsys, "verify", "--family", "34-d4")[0] == 0
    assert run_cli(capsys, "verify", "--family", "34-a3")[0] == 1


def test_verdict_follows_the_fixture_directory(tmp_path, capsys, monkeypatch):
    # One process, four fixture directories in turn: each verdict must come
    # from the files of the directory the run reads, not from data kept
    # from an earlier directory.
    tampered = _fixture_copy(tmp_path / "cell", "tables/table-02.json", _tamper_table_02)
    unregistered = _fixture_copy(tmp_path / "registry", "known_discrepancies.json",
                                 _unregister_table_02)
    codes = []
    for root in (None, tampered, unregistered, None):
        if root is None:
            monkeypatch.delenv("FANO_DELTA_FIXTURES", raising=False)
        else:
            monkeypatch.setenv("FANO_DELTA_FIXTURES", str(root))
        codes.append(run_cli(capsys, "verify", "--family", "34-d4")[0])
    assert codes == [0, 1, 1, 0]


def test_relative_fixture_directory_follows_the_working_directory(tmp_path, capsys,
                                                                  monkeypatch):
    from fano_delta import scenarios

    shutil.copytree(scenarios.fixtures_dir(), tmp_path / "good" / "fixtures")
    _fixture_copy(tmp_path / "bad" / "fixtures", "tables/table-02.json", _tamper_table_02)
    monkeypatch.setenv("FANO_DELTA_FIXTURES", "fixtures")
    codes = []
    for cwd in ("good", "bad"):
        monkeypatch.chdir(tmp_path / cwd)
        codes.append(run_cli(capsys, "verify", "--family", "34-d4")[0])
    assert codes == [0, 1]


def test_verify_218_two_c_values(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "218",
                           "--c", "1/2", "--c", "2/3")
    assert code == 0 and "0 failed" in out


def test_verify_218_equal_c_values_run_once(capsys):
    once = run_cli(capsys, "verify", "--family", "218", "--c", "1/2")
    repeated = run_cli(capsys, "verify", "--family", "218",
                       "--c", "1/2", "--c", "2/4", "--c", "1/2")
    assert repeated == once
    assert "40 passed, 3 flagged" in once[1]


def test_report_text_shows_ratio_flag(capsys):
    code, out, _ = run_cli(capsys, "report", "--family", "34-d4", "--format", "text")
    assert code == 0
    assert "63/59" in out and "63/58" in out


@pytest.mark.parametrize("command", [
    ("verify", "--family", "218"),
    ("report", "--family", "218", "--format", "json"),
    ("compute", "--scenario", "218", "--op", "s-curve", "--target", "heart"),
])
@pytest.mark.parametrize("c", ["abc", "1/0", "0", "3/2", "2"])
def test_bad_c_is_a_usage_error(capsys, command, c):
    code, out, err = run_cli(capsys, *command, "--c", c)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and c in err


@pytest.mark.parametrize("scenario", ["218xyz", "218-blowup"])
def test_compute_unknown_scenario_is_a_usage_error(capsys, scenario):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--scenario", scenario, "--op", "s-curve",
                  "--target", "heart", "--c", "1/2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _verified(capsys, family, *c):
    """Label -> computed string of every check of one report run."""
    code, out, _ = run_cli(capsys, "report", "--family", family, "--format", "json", *c)
    assert code == 0
    return {e["label"]: e["computed"] for e in json.loads(out)["entries"]}


def test_compute_prints_what_verify_computes(capsys):
    # Differential test: every value `compute` prints must be the computed
    # string of the matching check of a verify run.
    pairs = []  # ((scenario, op, target), verify label)
    data = load_scenario_data("34-surfaces")
    for name in data["volumes"]:
        pairs.append((("34-surfaces", "s-divisor", name), f"S_L({name})"))
        pairs.append((("34-surfaces", "beta", name), f"beta({name})"))
    for name, flag in data["flags"].items():
        pairs.append((("34-surfaces", "s-curve", name), f"S_L(W;{name})"))
        for point in flag["points"]:
            pairs.append((("34-surfaces", "s-point", f"{name}:{point['name']}"),
                          f"S(W;{name};{point['name']})"))
    for spec in data["deltas"]:
        pairs.append((("34-surfaces", "delta", spec["name"]), f"delta[{spec['name']}]"))
    pairs.append((("34-d4", "toric-s", "G"), "S_L(G) [polytope]"))
    pairs.append((("34-d4", "s-curve", "alpha1"), "S_L(W^G;alpha1)"))
    verified = {fam: _verified(capsys, fam) for fam in ("34-surfaces", "34-d4")}
    verified["218"] = checks_218 = _verified(capsys, "218", "--c", "1/2")
    for case, spec in load_scenario_data("218")["cases"].items():
        tag = f"{case}@c=1/2"
        pairs.append((("218", "s-divisor", case), f"{tag}: {spec['ambient']['label']}"))
        pairs.append((("218", "s-curve", case), f"{tag}: S_curve"))
        for point in spec["points"]:
            pairs.append((("218", "s-point", f"{case}:{point['name']}"),
                          f"{tag}: S({point['name']})"))
        # The delta check records the bound in its label: "... (= 6/5)".
        label = next(k for k in checks_218 if k.startswith(f"{tag}: delta bound"))
        checks_218[f"{tag}: delta"] = re.search(r"\(= (.+)\)$", label).group(1)
        pairs.append((("218", "delta", case), f"{tag}: delta"))
    assert len(pairs) > 60
    for (scenario, op, target), label in pairs:
        argv = ["compute", "--scenario", scenario, "--op", op, "--target", target]
        code, out, err = run_cli(capsys, *argv, *(["--c", "1/2"] if scenario == "218" else []))
        assert code == 0, err
        assert out.strip() == verified[scenario][label], (argv, label)
