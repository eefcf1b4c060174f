"""Acceptance gate: the eleven binding criteria, one test each.

Every test prints a single PASS/FAIL line (visible under pytest -s or in the
captured output of a failing run) and then asserts.  Tolerances here are the
contractual ones; the per-module suites pin tighter values where the
implementation warrants it.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from qtrig import (
    ControlPolygon,
    CurveSamples,
    Interval,
    basis_all_direct,
    basis_all_recurrence1,
    basis_all_recurrence2,
    chord_distance_profile,
    collocation,
    convex_hull,
    evaluate_alg1,
    evaluate_alg2,
    evaluate_direct,
    intermediate_explicit,
    point_in_hull,
    rational_evaluate,
    rational_sample,
    sample_curve,
    sign_changes_seq,
    total_positivity_check,
)
from qtrig.cli import main as cli_main
from conftest import ARCH_POINTS, random_curve_case
from oracles import classical_trig_basis, tn_membership_residual

QUARTER = Interval(0.0, math.pi / 2)
NARROW = Interval(math.pi / 8, math.pi / 4)
RESIDUE_INTERVALS = [Interval.quarter(k) for k in (0, 1, 2, -1)]  # k mod 4 = 0,1,2,3
TP_DEGREES = (1, 2, 3, 4)
TP_QS = (0.5, 1.0, 1.5, 3.0)


def _report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def _interior_points(interval, count=6):
    return [interval.a + interval.length * (j + 1) / (count + 1) for j in range(count)]


def test_criterion_01_classical_reduction():
    start = time.perf_counter()
    worst = 0.0
    for interval in (QUARTER, NARROW):
        xs = np.linspace(interval.a, interval.b, 200)
        for n in range(1, 11):
            for x in xs:
                row = basis_all_direct(n, float(x), 1.0, interval).values
                for k in range(n + 1):
                    want = classical_trig_basis(n, k, float(x), interval)
                    worst = max(worst, abs(row[k] - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and elapsed < 1.0
    _report(1, "classical-reduction", passed, f"worst rel {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_three_way_evaluation_agreement():
    rng = np.random.default_rng(97)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        poly, x, q, iv = random_curve_case(rng, max_degree=10)
        direct = evaluate_direct(poly, x, q, iv)
        a1 = evaluate_alg1(poly, x, q, iv).apex
        a2 = evaluate_alg2(poly, x, q, iv).apex
        err = max(float(np.max(np.abs(a1 - direct))), float(np.max(np.abs(a2 - direct))))
        worst = max(worst, err / poly.diameter)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-11 and elapsed < 5.0
    _report(2, "three-way-agreement", passed, f"worst rel {worst:.2e}, {elapsed:.2f} s")


def test_criterion_03_explicit_tableau_identity():
    rng = np.random.default_rng(98)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        poly, x, q, iv = random_curve_case(rng, max_degree=6)
        for variant, run in (("alg1", evaluate_alg1), ("alg2", evaluate_alg2)):
            tab = run(poly, x, q, iv)
            scale = max(
                poly.diameter, 1.0, max(float(np.max(np.abs(r))) for r in tab.rows)
            )
            for r in range(poly.degree + 1):
                for k in range(poly.degree - r + 1):
                    want = intermediate_explicit(variant, r, k, x, poly, q, iv)
                    err = float(np.max(np.abs(tab.rows[r][k] - want)))
                    worst = max(worst, err / scale)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-11 and elapsed < 5.0
    _report(3, "explicit-tableau-identity", passed, f"worst rel {worst:.2e}, {elapsed:.2f} s")


def test_criterion_04_endpoint_properties():
    rng = np.random.default_rng(99)
    worst_basis = 0.0
    worst_curve = 0.0
    for iv in (QUARTER, NARROW):
        for q in (0.5, 1.0, 2.0, 3.0):
            for n in range(1, 9):
                for method in (basis_all_direct, basis_all_recurrence1, basis_all_recurrence2):
                    e0 = np.zeros(n + 1)
                    e0[0] = 1.0
                    en = np.zeros(n + 1)
                    en[n] = 1.0
                    worst_basis = max(
                        worst_basis,
                        float(np.max(np.abs(method(n, iv.a, q, iv).values - e0))),
                        float(np.max(np.abs(method(n, iv.b, q, iv).values - en))),
                    )
                poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(n + 1, 2)))
                for evaluate in (
                    evaluate_direct,
                    lambda p, x, qq, i: evaluate_alg1(p, x, qq, i).apex,
                    lambda p, x, qq, i: evaluate_alg2(p, x, qq, i).apex,
                ):
                    worst_curve = max(
                        worst_curve,
                        float(np.max(np.abs(evaluate(poly, iv.a, q, iv) - poly.points[0])))
                        / poly.diameter,
                        float(np.max(np.abs(evaluate(poly, iv.b, q, iv) - poly.points[n])))
                        / poly.diameter,
                    )
    passed = worst_basis <= 1e-14 and worst_curve <= 1e-12
    _report(
        4,
        "endpoint-properties",
        passed,
        f"basis abs {worst_basis:.2e}, curve rel {worst_curve:.2e}",
    )


def test_criterion_05_total_positivity_grid():
    start = time.perf_counter()
    worst = math.inf
    checked = 0
    structural = 0
    for interval in RESIDUE_INTERVALS:
        pts = _interior_points(interval)
        for n in TP_DEGREES:
            for q in TP_QS:
                mat = collocation("quantum", n, q, interval, pts)
                rep = total_positivity_check(mat.entries)  # every minor
                checked += rep.minors_checked
                worst = min(worst, rep.worst_scaled)
                structural += total_positivity_check(mat).route == "quarter-period Vandermonde"
    elapsed = time.perf_counter() - start
    total = len(RESIDUE_INTERVALS) * len(TP_DEGREES) * len(TP_QS)
    passed = worst >= -1e-9 and elapsed < 30.0 and structural == total
    _report(
        5,
        "total-positivity-grid",
        passed,
        f"{checked} minors, worst scaled {worst:.2e}, {structural}/{total} by the quarter-period route, "
        f"{elapsed:.2f} s",
    )


def test_criterion_06_rational_normalization_and_tp():
    rng = np.random.default_rng(100)
    worst_sum = 0.0
    worst_minor = math.inf
    structural = 0
    for interval in RESIDUE_INTERVALS:
        pts = _interior_points(interval)
        for n in TP_DEGREES:
            for q in TP_QS:
                w = rng.uniform(0.2, 3.0, size=n + 1)
                mat = collocation("rational", n, q, interval, pts, weights=w)
                worst_sum = max(worst_sum, float(np.max(np.abs(mat.entries.sum(axis=0) - 1.0))))
                rep = total_positivity_check(mat.entries)  # every minor
                worst_minor = min(worst_minor, rep.worst_scaled)
                structural += total_positivity_check(mat).route == "quarter-period Vandermonde"
    total = len(RESIDUE_INTERVALS) * len(TP_DEGREES) * len(TP_QS)
    passed = worst_sum <= 1e-12 and worst_minor >= -1e-9 and structural == total
    _report(
        6,
        "rational-normalization-tp",
        passed,
        f"column sums off by {worst_sum:.2e}, worst scaled minor {worst_minor:.2e}, "
        f"{structural}/{total} by the quarter-period route",
    )


def test_criterion_07_sign_change_bound():
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        controls = rng.uniform(-2.0, 2.0, size=n + 1)
        q = float(rng.choice([0.5, 1.0, 2.0]))
        poly = ControlPolygon(controls)
        samples = sample_curve(poly, q, QUARTER, 512)
        curve_changes = sign_changes_seq([float(s.point[0]) for s in samples])
        if curve_changes > sign_changes_seq(controls):
            violations += 1
    passed = violations == 0
    _report(7, "sign-change-bound", passed, f"{violations} violations in 100 cases")


def test_criterion_08_shape_properties():
    rng = np.random.default_rng(102)
    hull_violations = 0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        poly = ControlPolygon(rng.uniform(-3.0, 3.0, size=(n + 1, 2)))
        w = rng.uniform(0.2, 3.0, size=n + 1)
        q = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        hull = convex_hull(poly.points)
        for s in rational_sample(poly, w, q, QUARTER, 129):
            if not point_in_hull(s.point, hull):
                hull_violations += 1

    worst_affine = 0.0
    for _ in range(10):
        poly = ControlPolygon(rng.uniform(-2.0, 2.0, size=(4, 2)))
        w = rng.uniform(0.3, 2.0, size=4)
        mat = rng.uniform(-1.5, 1.5, size=(2, 2))
        shift = rng.uniform(-3.0, 3.0, size=2)
        mapped = ControlPolygon(poly.points @ mat.T + shift)
        for x in np.linspace(0.0, math.pi / 2, 17):
            lhs = rational_evaluate(poly, w, float(x), 2.0, QUARTER) @ mat.T + shift
            rhs = rational_evaluate(mapped, w, float(x), 2.0, QUARTER)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            worst_affine = max(worst_affine, float(np.max(np.abs(lhs - rhs))) / scale)

    vdp_violations = 0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        poly = ControlPolygon(rng.uniform(-3.0, 3.0, size=(n + 1, 2)))
        w = rng.uniform(0.3, 2.0, size=n + 1)
        pts = np.vstack([s.point for s in rational_sample(poly, w, 2.0, QUARTER, 513)])
        lo, hi = poly.points.min(axis=0), poly.points.max(axis=0)
        for _ in range(10):
            center = lo + rng.random(2) * (hi - lo)
            theta = rng.random() * math.pi
            normal = np.array([math.cos(theta), math.sin(theta)])
            offset = float(normal @ center)
            if sign_changes_seq(pts @ normal - offset) > sign_changes_seq(
                (poly.points - center) @ normal
            ):
                vdp_violations += 1

    passed = hull_violations == 0 and worst_affine <= 1e-11 and vdp_violations == 0
    _report(
        8,
        "shape-properties",
        passed,
        f"hull {hull_violations}, affine {worst_affine:.2e}, vdp {vdp_violations}",
    )


def test_criterion_09_figure_reproduction(tmp_path):
    polygon = tmp_path / "arch.json"
    polygon.write_text(json.dumps({"points": ARCH_POINTS, "weights": [1, 1, 1, 1]}))
    jobs = [
        ("f1.svg", ["basis", "--degree", "3", "--q", "1.1", "--q", "1.2", "--q", "1.3",
                    "--interval", "pi/8,pi/4"]),
        ("f2.svg", ["basis", "--degree", "3", "--q", "1.1", "--q", "1.2", "--q", "1.3",
                    "--interval", "0,pi/2"]),
        ("f3.svg", ["rational", "--basis", "--degree", "3", "--weights", "1,1,1,1",
                    "--q", "1.1", "--q", "1.2", "--q", "1.3", "--interval", "0,pi/2"]),
        ("f4.svg", ["rational", "--polygon", str(polygon), "--q", "1", "--q", "2",
                    "--q", "3", "--interval", "0,pi/2"]),
    ]
    all_ok = True
    for name, args in jobs:
        target = tmp_path / name
        code = cli_main(args + ["--format", "svg", "--out", str(target)])
        ok = code == 0
        if ok:
            root = ET.fromstring(target.read_text())
            ok = root.tag.endswith("svg") and any(
                el.tag.endswith("polyline") for el in root
            )
        all_ok = all_ok and ok

    arch = ControlPolygon(np.array(ARCH_POINTS, dtype=float))
    profile = [
        chord_distance_profile(
            rational_sample(arch, np.ones(4), q, QUARTER, 129),
            arch.points[0],
            arch.points[3],
        )
        for q in (1.0, 2.0, 3.0)
    ]
    decreasing = profile[0] > profile[1] > profile[2]
    passed = all_ok and decreasing
    _report(
        9,
        "figure-reproduction",
        passed,
        f"4 SVGs ok={all_ok}, chord profile {profile[0]:.4f} > {profile[1]:.4f} > {profile[2]:.4f}",
    )


def test_criterion_10_non_partition_of_unity_witness():
    total = float(np.sum(basis_all_direct(3, math.pi / 4, 2.0, QUARTER).values))
    matches_oracle = abs(total - 1.9445436482630057) <= 1e-12
    departs_from_one = abs(total - 1.0) > 0.5
    passed = matches_oracle and departs_from_one
    _report(10, "unity-deviation-witness", passed, f"sum {total:.16f}")


def test_criterion_11_trig_space_membership():
    arch = ControlPolygon(np.array(ARCH_POINTS, dtype=float))
    curve_resid = tn_membership_residual(sample_curve(arch, 2.0, QUARTER, 24), 3)
    xs = np.linspace(0.0, 2 * math.pi, 64)
    control = CurveSamples(xs, np.array([[math.sin(2 * x)] for x in xs]), "direct")
    control_resid = tn_membership_residual(control, 3)
    passed = curve_resid <= 1e-8 and control_resid > 1e-3
    _report(
        11,
        "trig-space-membership",
        passed,
        f"curve residual {curve_resid:.2e}, sin(2x) control {control_resid:.2e}",
    )
