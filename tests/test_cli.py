import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qtrig import Interval, collocation, sample_curve, total_positivity_check
from qtrig.cli import main, parse_angle, parse_interval
from qtrig.export import read_polygon_json, render_csv, render_json_records, sig_str
from qtrig.kernel import _evaluation_plan
from oracles import basis_row_mp, total_positivity_reference

ARCH = {"points": [[0.0, 0.0], [1.0, 2.0], [2.0, 2.0], [3.0, 0.0]], "weights": [1, 1, 1, 1]}


def write_polygon(tmp_path, data=ARCH, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_parse_angle_forms():
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("pi") == math.pi
    assert parse_angle("3pi/4") == 3 * math.pi / 4
    assert parse_angle("-pi/8") == -math.pi / 8
    assert parse_angle("2*pi/5") == 2 * math.pi / 5
    assert parse_angle("0.75") == 0.75
    assert parse_angle("+1.5") == 1.5
    for bad in ("", "pix", "pi*2", "x"):
        with pytest.raises(ValueError):
            parse_angle(bad)


def test_parse_interval():
    iv = parse_interval("pi/8,pi/4")
    assert iv.a == math.pi / 8 and iv.b == math.pi / 4
    with pytest.raises(ValueError):
        parse_interval("0")
    with pytest.raises(ValueError):
        parse_interval("0,1,2")


def test_basis_csv_matches_frozen_value(tmp_path):
    out = tmp_path / "basis.csv"
    code = main(["basis", "--degree", "3", "--q", "2", "--interval", "0,pi/2",
                 "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["x", "B0", "B1", "B2", "B3"]
    assert data.shape == (129, 5)
    # 129 uniform samples on [0, pi/2] hit pi/4 exactly at index 64
    assert data[64, 0] == math.pi / 4
    assert abs(data[64, 2] - 0.6187184335382291) <= 1e-15
    assert abs(data[64, 1] - math.sqrt(2.0) / 4) <= 1e-15


def test_basis_json_schema(capsys):
    code = main(["basis", "--degree", "2", "--q", "1.5", "--interval", "0,pi/2",
                 "--format", "json", "--samples", "5"])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 5
    assert set(records[0]) == {"x", "values"}
    assert len(records[0]["values"]) == 3
    assert records[0]["values"] == [1.0, 0.0, 0.0]


def test_basis_svg_well_formed(tmp_path):
    out = tmp_path / "fig.svg"
    code = main(["basis", "--degree", "3", "--interval", "pi/8,pi/4",
                 "--q", "1.1", "--q", "1.2", "--q", "1.3",
                 "--format", "svg", "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib
    polylines = [el for el in root if el.tag.endswith("polyline")]
    assert len(polylines) == 12  # 3 q values x 4 basis functions


def test_multiple_q_rejected_for_tabular_output(tmp_path):
    code = main(["basis", "--degree", "3", "--q", "1", "--q", "2",
                 "--interval", "0,pi/2", "--out", str(tmp_path / "x.csv")])
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["basis", "--degree", "3", "--q", "2", "--interval", "0,pi/2", "--samples", "0"],
     "need at least 1 sample, got 0"),
    (["check", "tp", "--degree", "3", "--q", "1.5", "--q", "2", "--interval", "0,pi/2"],
     "check takes exactly one --q"),
])
def test_refused_arguments_exit_1_with_the_reason(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"qtrig: error: {message}"


@pytest.mark.parametrize("points, expect", [
    ([], '"points" must be a non-empty array'),
    ([0.0, 1.0, 3.0], [[0.0], [1.0], [3.0]]),  # a flat list reads as one column
])
def test_polygon_file_points(tmp_path, points, expect):
    path = write_polygon(tmp_path, {"points": points})
    if isinstance(expect, str):
        with pytest.raises(ValueError) as info:
            read_polygon_json(path)
        assert info.type is ValueError and str(info.value) == f"{path}: {expect}"
    else:
        read, weights = read_polygon_json(path)
        assert read.tolist() == expect and weights is None


def test_end_basis_columns_do_not_depend_on_q(tmp_path):
    outs = []
    for q in ("1.1", "1.3"):
        out = tmp_path / f"b{q}.csv"
        assert main(["basis", "--degree", "3", "--q", q, "--interval", "0,pi/2",
                     "--out", str(out)]) == 0
        outs.append(read_csv(out)[1])
    assert np.max(np.abs(outs[0][:, 1] - outs[1][:, 1])) <= 1e-12  # B0 = cos^3
    assert np.max(np.abs(outs[0][:, 4] - outs[1][:, 4])) <= 1e-12  # B3 = sin^3
    assert np.max(np.abs(outs[0][:, 2] - outs[1][:, 2])) > 1e-3    # B1 moves


def test_output_is_deterministic(tmp_path):
    args = ["basis", "--degree", "4", "--q", "1.7", "--interval", "pi/8,pi/4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_methods_give_identical_rounded_output(tmp_path):
    poly = write_polygon(tmp_path)
    outs = []
    for method in ("direct", "alg1"):
        out = tmp_path / f"{method}.csv"
        code = main(["curve", "--polygon", poly, "--q", "2", "--interval", "0,pi/2",
                     "--method", method, "--digits", "12", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_curve_json_frozen_point(tmp_path, capsys):
    poly = write_polygon(tmp_path)
    code = main(["curve", "--polygon", poly, "--q", "2", "--interval", "0,pi/2",
                 "--format", "json"])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    rec = records[64]
    assert rec["x"] == math.pi / 4
    assert abs(rec["point"][0] - 2.9168154723945085) <= 1e-14
    assert abs(rec["point"][1] - 2.4748737341529163) <= 1e-14


def test_curve_svg_overlay_with_polygon(tmp_path):
    poly = write_polygon(tmp_path)
    out = tmp_path / "curves.svg"
    code = main(["curve", "--polygon", poly, "--q", "1", "--q", "2", "--q", "3",
                 "--interval", "0,pi/2", "--format", "svg", "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text())
    polylines = [el for el in root if el.tag.endswith("polyline")]
    circles = [el for el in root if el.tag.endswith("circle")]
    assert len(polylines) == 4  # 3 curves + dashed control polygon
    assert len(circles) == 4    # control point markers


def test_rational_basis_mode_rows_sum_to_one(tmp_path):
    out = tmp_path / "rat.csv"
    code = main(["rational", "--basis", "--degree", "3", "--q", "2",
                 "--interval", "0,pi/2", "--out", str(out)])
    assert code == 0
    _, data = read_csv(out)
    sums = data[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert abs(data[64, 2] - 7.0 / 22.0) <= 1e-15


def test_rational_curve_from_file_weights(tmp_path, capsys):
    poly = write_polygon(tmp_path)
    code = main(["rational", "--polygon", poly, "--q", "3", "--interval", "0,pi/2",
                 "--format", "json", "--samples", "129"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)[64]
    assert abs(rec["point"][0] - 1.5) <= 1e-14
    assert abs(rec["point"][1] - 13.0 / 11.0) <= 1e-14


def test_exit_code_invalid_interval(tmp_path):
    code = main(["basis", "--degree", "3", "--q", "1.5", "--interval", "0,pi",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_degree_40_on_the_second_quarter_period_is_certified(tmp_path):
    # d(pi/2, pi; 3^i) = 1 for every i; the affine form of the kernel
    # computed 0 at i = 34 and rejected the interval
    out = tmp_path / "b40.csv"
    code = main(["basis", "--degree", "40", "--q", "3", "--interval", "pi/2,pi",
                 "--samples", "9", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["x"] + [f"B{k}" for k in range(41)]
    x = data[4, 0]
    want = basis_row_mp(40, x, 3.0, math.pi / 2, math.pi)
    assert max(abs((g - w) / w) for g, w in zip(data[4, 1:].tolist(), want)) <= 1e-13


def test_exit_code_singular_denominator(tmp_path):
    # (cos x - sin x)^2 denominator touches zero at pi/4; the pointwise
    # guard trips on the exact sample there
    data = {"points": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]}
    poly = write_polygon(tmp_path, data)
    code = main(["rational", "--polygon", poly, "--weights", "1,-1,1",
                 "--q", "1", "--interval", "0,pi/2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_rational_basis_certifies_mixed_weights(tmp_path):
    # the denominator of these weights crosses zero inside [0, pi/2]; the
    # basis route runs the same certificate as the --polygon route
    out = tmp_path / "x.csv"
    code = main(["rational", "--basis", "--degree", "3", "--weights", "1,-3,-3,1",
                 "--q", "1.5", "--interval", "0,pi/2", "--out", str(out)])
    assert code == 3
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rational_basis_rejects_nan_rows(tmp_path, capsys):
    # at degree 200 and q = 3 the basis would be inf/inf = NaN in every row;
    # the q-binomial row overflows first and the range error is a usage error
    out = tmp_path / "x.csv"
    code = main(["rational", "--basis", "--degree", "200", "--q", "3",
                 "--interval", "0,pi/2", "--samples", "3", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("qtrig: error: q-binomial row 200 at q=3.0 overflows float64")
    assert "Traceback" not in err


def test_a_basis_table_that_leaves_float64_exits_1_without_warnings(tmp_path, capsys):
    # at (34, 4) on [-1, 0.2] the running products of the kernel tables
    # overflow from x = -0.88 on while the row and the denominator product
    # stay finite; RuntimeWarnings are errors under this suite's settings
    out = tmp_path / "b.csv"
    argv = ["--degree", "34", "--q", "4", "--interval", "-1,0.2", "--samples", "11", "--out", str(out)]
    assert main(["basis", *argv]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "qtrig: error: degree 34, q=4.0: the basis leaves float64 at x = -0.88\n"
    assert main(["rational", "--basis", *argv]) == 3  # the rational family refuses its NaN rows first
    assert capsys.readouterr().err.startswith("qtrig: singular denominator:")
    assert not out.exists()


def test_rational_basis_rejects_overflowing_sums(tmp_path, capsys):
    # 1.7e308 (B_0 + B_1) overflows where both B_k are near 1/sqrt(2)
    out = tmp_path / "x.csv"
    code = main(["rational", "--basis", "--degree", "1", "--weights", "1.7e308,1.7e308",
                 "--q", "1", "--interval", "0,pi/2", "--samples", "3", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("qtrig: singular denominator:") and "Traceback" not in err


def test_curve_with_non_finite_interval_denominators(tmp_path, capsys):
    # degree 700 at q = 3: the q-powers of the tables overflow, which the
    # interval scan reports as a range error before any stage is run
    poly = write_polygon(tmp_path, {"points": [[i, i % 3] for i in range(701)]})
    for method in ("direct", "alg1", "alg2"):
        code = main(["curve", "--polygon", poly, "--q", "3", "--interval", "0,pi/2",
                     "--method", method, "--samples", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qtrig: error:") and "float64" in captured.err
        assert "Traceback" not in captured.err


def test_basis_outside_float_range_is_a_usage_error(tmp_path, capsys):
    # (150, 0.9): prod d(a,b;q^i) underflows to 0; (700, 3): q ** 699 overflows
    for degree, q in (("150", "0.9"), ("700", "3")):
        out = tmp_path / f"b{degree}.csv"
        code = main(["basis", "--degree", degree, "--q", q, "--interval", "0,pi/2",
                     "--samples", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("qtrig: error:") and "float64" in err
        assert "Traceback" not in err


def test_a_huge_overflowing_degree_fails_fast():
    # at q = 1 row 1030 is the first to leave float64; building all 200000
    # rows would take about an hour
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qtrig", "basis", "--degree", "200000", "--q", "1",
         "--interval", "0,pi/2"],
        capture_output=True, text=True, env=env, cwd=root, timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "qtrig: error: q-binomial row 200000 at q=1.0 overflows float64\n"


def test_an_invalid_interval_exits_2_though_its_row_overflows(tmp_path, capsys):
    # the certificate comes before the q-binomial row: [0, pi] fails it at
    # i = 0, and row 200 at q = 3, which overflows, is never checked
    out = tmp_path / "b.csv"
    code = main(["basis", "--degree", "200", "--q", "3", "--interval", "0,pi", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("qtrig: invalid interval:")


def test_an_uncertified_degree_exits_2_without_building_its_row(capsys):
    # d(0, pi/2; 0.5^i) = 0.5^i is at most 1e-12 from i = 40 on; the O(n^2)
    # row of degree 6000 would stay in range, but no verdict reads it
    code = main(["basis", "--degree", "6000", "--q", "0.5", "--interval", "0,pi/2", "--samples", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("qtrig: invalid interval:")
    hits = _evaluation_plan.cache_info().hits
    plan = _evaluation_plan(0.0, math.pi / 2, 0.5, 6000)
    assert _evaluation_plan.cache_info().hits == hits + 1  # the entry the command filled
    assert plan.failing == 40 and plan.row is None


def test_digits_below_one_are_refused(tmp_path, capsys):
    for digits in (0, -2):
        message = f"digits must be at least 1, got {digits}"
        for render in (lambda: sig_str(math.pi / 2, digits), lambda: render_csv(["x"], [[0.5]], digits),
                       lambda: render_json_records([{"x": 0.5, "B": [1.0]}], digits)):
            with pytest.raises(ValueError, match=message):
                render()
        for fmt in ("csv", "json"):
            out = tmp_path / f"basis.{fmt}"
            code = main(["basis", "--degree", "3", "--q", "1.5", "--interval", "0,pi/2", "--samples", "3",
                         "--format", fmt, "--digits", str(digits), "--out", str(out)])
            assert code == 1
            assert capsys.readouterr().err == f"qtrig: error: {message}\n"
            assert not out.exists()
    assert sig_str(math.pi / 2, 1) == "2"


def test_exit_code_usage_errors(tmp_path, capsys):
    assert main(["curve", "--polygon", str(tmp_path / "missing.json"),
                 "--q", "1", "--interval", "0,pi/2"]) == 1
    assert main(["basis", "--degree", "3", "--q", "1",
                 "--interval", "zero,pi/2"]) == 1
    assert main(["basis", "--q", "1", "--interval", "0,pi/2"]) == 1  # no degree
    assert main(["rational", "--q", "1", "--interval", "0,pi/2"]) == 1
    capsys.readouterr()


def test_exit_code_tp_violation(capsys):
    code = main(["check", "tp", "--degree", "2", "--q", "-0.5",
                 "--interval", "0,pi/2"])
    assert code == 4
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "tp: FAIL"
    payload = json.loads(out[-1])
    assert payload["pass"] is False
    assert payload["worst_scaled"] < 0
    assert payload["route"] == "exhaustive"


def test_check_tp_passes_on_quarter_interval(capsys):
    code = main(["check", "tp", "--degree", "3", "--q", "1.5",
                 "--interval", "pi/2,pi"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "tp: PASS"
    payload = json.loads(out[-1])
    assert payload["is_tp"] is True
    assert payload["family"] == "quantum"
    # decided by the quarter-period factorisation: no minor, and null worst fields
    assert payload["route"] == "quarter-period Vandermonde"
    assert payload["minors_checked"] == 0
    assert payload["worst_minor"] is None and payload["worst_scaled"] is None
    # the same collocation, checked minor by minor
    interval = Interval(math.pi / 2, math.pi)
    pts = [interval.a + interval.length * (j + 1) / 7 for j in range(6)]
    entries = collocation("quantum", 3, 1.5, interval, pts).entries
    rep = total_positivity_check(entries)
    assert rep.is_tp and rep.minors_checked == 209
    assert rep == total_positivity_reference(entries)


def test_check_tp_degree_9_on_12_points(capsys):
    # 646,645 minors, which the quarter-period route does not enumerate;
    # tests/test_shape.py checks them on the same collocation
    code = main(["check", "tp", "--degree", "9", "--q", "1.5", "--interval", "0,pi/2", "--grid", "12"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "tp: PASS"
    payload = json.loads(out[-1])
    assert payload["route"] == "quarter-period Vandermonde"
    assert payload["minors_checked"] == 0
    assert (payload["worst_minor"], payload["worst_scaled"]) == (None, None)


def test_check_tp_refuses_before_collocating(capsys, monkeypatch):
    def no_collocation(*args, **kwargs):
        raise AssertionError("collocated a matrix the minor cap refuses")

    monkeypatch.setattr("qtrig.cli.collocation", no_collocation)
    cases = (("1", "4000000", "matrix has 8000006000000 square submatrices"),
             # C(20000001, 10000000) - 1 minors: over the cap without counting them
             ("10000000", "10000000", "matrix has more than 1000000 square submatrices"))
    for degree, grid, message in cases:
        code = main(["check", "tp", "--degree", degree, "--q", "1.5", "--interval", "0,pi/2",
                     "--grid", grid])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qtrig: error: {message}, refusing to enumerate more than 1000000\n"


@pytest.mark.parametrize("argv,flag,value,code", [
    (["basis", "--degree", "2", "--q", "2"], "--interval", "-pi/8,pi/4", 0),
    (["basis", "--degree", "2", "--interval", "0,pi/2"], "--q", "-1e-3", 0),
    (["rational", "--basis", "--degree", "2", "--q", "1", "--interval", "0,pi/2"], "--weights", "-1,-2,-1", 0),
])
def test_values_may_start_with_a_minus(capsys, argv, flag, value, code):
    assert main(argv + ["--samples", "5", flag, value]) == code
    separate = capsys.readouterr()
    assert main(argv + ["--samples", "5", f"{flag}={value}"]) == code
    assert separate == capsys.readouterr()


def test_check_tp_rational_family(capsys):
    code = main(["check", "tp", "--degree", "3", "--q", "2", "--weights", "1,2,0.5,1",
                 "--interval", "0,pi/2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payload["family"] == "rational"
    assert payload["pass"] is True


def test_check_tp_rejects_unusable_tolerances(capsys):
    # nan failed a TP matrix and inf passed any, each printing invalid JSON
    for tolerance in ("nan", "inf", "-1e-9"):
        code = main(["check", "tp", "--degree", "3", "--q", "1.5", "--interval", "0,pi/2",
                     f"--tolerance={tolerance}"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and >= 0" in captured.err


def test_check_hull_vdp_signs(tmp_path, capsys):
    poly = write_polygon(tmp_path)
    assert main(["check", "hull", "--polygon", poly, "--q", "2",
                 "--interval", "0,pi/2"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payload["violations"] == 0

    assert main(["check", "vdp", "--polygon", poly, "--q", "2",
                 "--interval", "0,pi/2", "--samples", "513"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payload["violations"] == 0
    assert payload["lines"] == 50

    scalar = write_polygon(tmp_path, {"points": [[0.5], [-1.0], [1.0]]}, "scalar.json")
    assert main(["check", "signs", "--polygon", scalar, "--q", "1.5",
                 "--interval", "0,pi/2"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payload["curve_sign_changes"] <= payload["control_sign_changes"]


def test_check_vdp_honours_explicit_defaults(tmp_path, capsys):
    # 129 samples and 6 lines are the sampling and tp defaults, not "unset"
    poly = write_polygon(tmp_path)
    assert main(["check", "vdp", "--polygon", poly, "--q", "2", "--interval", "0,pi/2",
                 "--samples", "129", "--grid", "6"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payload["curve_samples"] == 129
    assert payload["lines"] == 6


def test_polygon_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": [[0, 0],\n [1, ]]}')
    assert main(["curve", "--polygon", str(bad), "--q", "1",
                 "--interval", "0,pi/2"]) == 1
    assert "line" in capsys.readouterr().err

    mismatched = write_polygon(
        tmp_path, {"points": [[0, 0], [1, 1]], "weights": [1, 2, 3]}, "w.json"
    )
    assert main(["curve", "--polygon", mismatched, "--q", "1",
                 "--interval", "0,pi/2"]) == 1
    capsys.readouterr()

    keyed = write_polygon(tmp_path, {"points": [[0, 0], [1, 1]], "weights": {"w": 1}}, "k.json")
    assert main(["curve", "--polygon", keyed, "--q", "1", "--interval", "0,pi/2"]) == 1
    assert capsys.readouterr().err.endswith("weights are not a numeric array\n")

    for name, points in (("ragged.json", [[0, 1], [2]]), ("string.json", [["a"], ["b"]])):
        assert main(["curve", "--polygon", write_polygon(tmp_path, {"points": points}, name),
                     "--q", "1", "--interval", "0,pi/2"]) == 1
        assert capsys.readouterr().err.endswith(f"{name}: points are not numeric rows of equal length\n")


def test_polygon_file_ints_beyond_float_range(tmp_path, capsys):
    # json reads them as Python ints, which numpy cannot turn into floats
    huge = 10**400
    for name, data, tail in (("point.json", {"points": [[huge, 0], [1, 2]]}, "points must be finite rows"),
                             ("weight.json", {"points": [[0, 0], [1, 2]], "weights": [1, -huge]},
                              "weights must be finite")):
        poly = write_polygon(tmp_path, data, name)
        for command in ("curve", "rational"):
            assert main([command, "--polygon", poly, "--q", "2", "--interval", "0,pi/2"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("qtrig: error:") and "Traceback" not in err
            assert f"{name}: {tail}" in err


def test_svg_requires_planar_polygon(tmp_path, capsys):
    scalar = write_polygon(tmp_path, {"points": [[0.5], [1.0]]}, "s.json")
    assert main(["curve", "--polygon", scalar, "--q", "1", "--interval", "0,pi/2",
                 "--format", "svg"]) == 1
    capsys.readouterr()


def test_checks_require_polygon_dimension(tmp_path, capsys):
    spatial = write_polygon(tmp_path, {"points": [[0, 0, 0], [1, 2, 1], [3, 0, 2]]}, "p3.json")
    for prop, poly, need in (("hull", spatial, "2-d"), ("vdp", spatial, "2-d"),
                             ("signs", write_polygon(tmp_path), "scalar")):
        assert main(["check", prop, "--polygon", poly, "--q", "2", "--interval", "0,pi/2"]) == 1
        assert capsys.readouterr().err == f"qtrig: error: check {prop} needs {need} control points\n"


def test_zero_divisor_angle_is_a_usage_error(capsys):
    with pytest.raises(ValueError):
        parse_angle("pi/0")
    assert main(["basis", "--degree", "3", "--q", "1", "--interval", "0,pi/0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qtrig: error: cannot parse angle") and "Traceback" not in err


def test_check_vdp_needs_at_least_one_line(tmp_path, capsys):
    poly = write_polygon(tmp_path)
    for grid in ("0", "-3"):
        assert main(["check", "vdp", "--polygon", poly, "--q", "2",
                     "--interval", "0,pi/2", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qtrig: error: check vdp needs at least 1 line, got --grid {grid}\n"


def test_check_vdp_refuses_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a curve for a line count check vdp refuses")

    # weights 1, -3, 1 give a denominator that changes sign: exit 3 once sampled
    poly = write_polygon(tmp_path, {"points": [[0, 0], [1, 2], [3, 0]], "weights": [1, -3, 1]})
    argv = ["check", "vdp", "--polygon", poly, "--q", "2", "--interval", "0,pi/2", "--grid"]
    assert main(argv + ["1"]) == 3
    capsys.readouterr()
    monkeypatch.setattr("qtrig.cli.rational_sample", no_sampling)
    for grid in ("0", "-3"):
        assert main(argv + [grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qtrig: error: check vdp needs at least 1 line, got --grid {grid}\n"


def test_check_rejects_output_flags(tmp_path, capsys):
    # check prints its verdict; --format, --out and --digits belong to the
    # subcommands that write tables
    out = tmp_path / "x.svg"
    for flags in (["--format", "svg", "--out", str(out)], ["--digits", "5"]):
        assert main(["check", "tp", "--degree", "2", "--q", "1.5",
                     "--interval", "0,pi/2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
    assert not out.exists()


# flag-command pairs whose flag the command does not read
IGNORED_FLAGS = [
    ("check tp --degree 3", ["--polygon", "POLY"]),
    ("check tp --degree 3", ["--samples", "9"]),
    ("check hull --polygon POLY", ["--degree", "3"]),
    ("check hull --polygon POLY", ["--grid", "6"]),
    ("check hull --polygon POLY", ["--tolerance", "1e-6"]),
    ("check vdp --polygon POLY", ["--degree", "3"]),
    ("check vdp --polygon POLY", ["--tolerance", "1e-6"]),
    ("check signs --polygon SCALAR", ["--degree", "2"]),
    ("check signs --polygon SCALAR", ["--weights", "1,1,1"]),
    ("check signs --polygon SCALAR", ["--grid", "6"]),
    ("check signs --polygon SCALAR", ["--tolerance", "1e-6"]),
    ("rational --polygon POLY", ["--degree", "3"]),
    ("rational --basis --degree 3", ["--polygon", "POLY"]),
]


@pytest.mark.parametrize("command,flag", IGNORED_FLAGS,
                         ids=[f"{' '.join(c.split()[:2])} {f[0]}" for c, f in IGNORED_FLAGS])
def test_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys, command, flag):
    files = {"POLY": write_polygon(tmp_path),
             "SCALAR": write_polygon(tmp_path, {"points": [[0.5], [-1.0], [1.0]]}, "scalar.json")}
    out = tmp_path / "x.csv"
    argv = [files.get(a, a) for a in command.split() + flag]
    tail = ["--q", "2", "--interval", "0,pi/2"]
    if argv[0] == "rational":
        tail += ["--out", str(out)]
    assert main(argv[:-len(flag)] + tail) == 0  # the same command without the flag
    capsys.readouterr()
    out.unlink(missing_ok=True)
    assert main(argv + tail) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qtrig: error:") and "Traceback" not in captured.err
    assert not out.exists()


def test_check_defaults(tmp_path, capsys, monkeypatch):
    poly = write_polygon(tmp_path)
    scalar = write_polygon(tmp_path, {"points": [[0.5], [-1.0], [1.0]]}, "scalar.json")
    payloads = {}
    for prop, source in (("tp", ["--degree", "2"]), ("vdp", ["--polygon", poly]),
                         ("hull", ["--polygon", poly]), ("signs", ["--polygon", scalar])):
        assert main(["check", prop, *source, "--q", "2", "--interval", "0,pi/2"]) == 0
        payloads[prop] = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert payloads["tp"]["grid"] == 6 and payloads["tp"]["tolerance"] == 1e-9
    assert (payloads["vdp"]["lines"], payloads["vdp"]["curve_samples"]) == (50, 2048)
    assert payloads["hull"]["samples"] == 129
    counts = []  # signs reports no sample count; count the samples it asks for

    def counting(polygon, q, interval, count):
        counts.append(count)
        return sample_curve(polygon, q, interval, count)

    monkeypatch.setattr("qtrig.cli.sample_curve", counting)
    assert main(["check", "signs", "--polygon", scalar, "--q", "2", "--interval", "0,pi/2"]) == 0
    assert counts == [512]
    capsys.readouterr()


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    # as in `qtrig check tp ... | head -1` once head has gone
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["check", "tp", "--degree", "3", "--q", "1.5", "--interval", "0,pi/2"])
    assert code == 1
    assert sys.stdout.name == os.devnull  # the flush at exit writes nowhere
    sys.stdout.close()
    assert capsys.readouterr().err == ""
