"""Command-line interface.

Subcommands:
    basis     sample a quantum trigonometric Bernstein basis
    curve     sample a quantum trigonometric Bezier-type curve
    rational  sample a rational basis or curve
    check     brute-force shape checks: tp, vdp, hull, signs

Exit codes: 0 success, 1 usage or input error, 2 invalid interval,
3 singular rational denominator, 4 property violation.
"""

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .basis import basis_matrix
from .curve import ControlPolygon, sample_curve
from .errors import (
    InvalidIntervalError,
    MinorCapExceededError,
    QTrigError,
    SingularDenominatorError,
)
from .export import Polyline, render_csv, render_json_records, render_svg, read_polygon_json
from .kernel import Interval
from .rational import rational_basis_matrix, rational_sample
from .shape import (
    collocation,
    convex_hull,
    point_in_hull,
    sign_changes_function,
    sign_changes_seq,
    total_positivity_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERVAL = 2
EXIT_SINGULAR = 3
EXIT_VIOLATION = 4

PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#ff7f0e", "#9467bd", "#8c564b")
VDP_SEED = 20240811
# --samples and --grid defaults; check vdp and check signs sample more densely
SAMPLES = 129
TP_GRID = 6
VDP_SAMPLES, VDP_LINES = 2048, 50
SIGNS_SAMPLES = 512


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for invalid intervals, so usage
    # errors must not use argparse's default exit(2)
    def error(self, message):
        raise _UsageError(message)


def parse_angle(text: str) -> float:
    """Parse '0.7', 'pi', 'pi/2', '3pi/4', '-pi/8', '2*pi/5' to radians."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty angle")
    sign = 1.0
    if t[0] in "+-":
        sign = -1.0 if t[0] == "-" else 1.0
        t = t[1:]
    if "pi" in t:
        pre, _, post = t.partition("pi")
        if pre.endswith("*"):
            pre = pre[:-1]
        coef = float(pre) if pre else 1.0
        if post:
            if not post.startswith("/"):
                raise ValueError(f"cannot parse angle {text!r}")
            coef /= float(post[1:])
        return sign * coef * math.pi
    return sign * float(t)


def parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f'interval must be "a,b", got {text!r}')
    return Interval(parse_angle(parts[0]), parse_angle(parts[1]))


def _parse_weights(text: str) -> np.ndarray:
    return np.array([float(p) for p in text.split(",")], dtype=float)


def _count(value: Optional[int], default: int) -> int:
    """An explicit --samples or --grid, else the subcommand's own default."""
    return default if value is None else value


def _weights(cfg: argparse.Namespace, file_weights, n: int) -> np.ndarray:
    """--weights, else the polygon file's weights, else all ones."""
    if cfg.weights is not None:
        return cfg.weights
    if file_weights is not None:
        return file_weights
    return np.ones(n + 1)


def _emit(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _require_single_q(cfg: argparse.Namespace) -> float:
    if len(cfg.qs) != 1:
        raise _UsageError(f"{cfg.fmt} output supports exactly one --q, got {len(cfg.qs)}")
    return cfg.qs[0]


def _basis_series(cfg: argparse.Namespace, ratio_weights=None):
    """[(q, xs, values (samples, n+1))], via the rational family if weighted."""
    n, interval = cfg.degree, cfg.interval
    samples = _count(cfg.samples, SAMPLES)
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    xs = np.linspace(interval.a, interval.b, samples)
    if ratio_weights is None:
        return [(q, xs, basis_matrix(n, xs, q, interval)) for q in cfg.qs]
    return [(q, xs, rational_basis_matrix(n, xs, q, interval, ratio_weights)) for q in cfg.qs]


def _write_basis_output(cfg: argparse.Namespace, series) -> int:
    n = cfg.degree
    if cfg.fmt == "svg":
        polylines = []
        for qi, (q, xs, vals) in enumerate(series):
            color = PALETTE[qi % len(PALETTE)]
            for k in range(n + 1):
                pts = tuple(zip(xs.tolist(), vals[:, k].tolist()))
                polylines.append(Polyline(points=pts, stroke=color))
        _emit(cfg.out, render_svg(polylines))
        return EXIT_OK
    _require_single_q(cfg)
    q, xs, vals = series[0]
    if cfg.fmt == "csv":
        header = ["x"] + [f"B{k}" for k in range(n + 1)]
        rows = [[xs[i], *vals[i]] for i in range(len(xs))]
        _emit(cfg.out, render_csv(header, rows, cfg.digits))
    else:
        records = [{"x": xs[i], "values": list(vals[i])} for i in range(len(xs))]
        _emit(cfg.out, render_json_records(records, cfg.digits))
    return EXIT_OK


def cmd_basis(cfg: argparse.Namespace) -> int:
    if cfg.degree is None:
        raise _UsageError("basis needs --degree")
    return _write_basis_output(cfg, _basis_series(cfg))


def _polygon_polyline(polygon: ControlPolygon) -> Polyline:
    pts = tuple((float(p[0]), float(p[1])) for p in polygon.points)
    return Polyline(points=pts, stroke="#555555", dash="4 3", width_scale=0.7)


def _write_curve_output(cfg: argparse.Namespace, per_q_samples, polygon: Optional[ControlPolygon]) -> int:
    if cfg.fmt == "svg":
        if polygon is not None and polygon.dim != 2:
            raise _UsageError("svg output needs 2-d control points")
        polylines = []
        markers = ()
        for qi, (q, samples) in enumerate(per_q_samples):
            pts = tuple((s.x, float(s.point[0])) if s.point.size == 1
                        else (float(s.point[0]), float(s.point[1]))
                        for s in samples)
            polylines.append(Polyline(points=pts, stroke=PALETTE[qi % len(PALETTE)]))
        if polygon is not None and polygon.dim == 2:
            polylines.append(_polygon_polyline(polygon))
            markers = tuple((float(p[0]), float(p[1])) for p in polygon.points)
        _emit(cfg.out, render_svg(polylines, markers))
        return EXIT_OK
    _require_single_q(cfg)
    q, samples = per_q_samples[0]
    dim = samples[0].point.size
    if cfg.fmt == "csv":
        header = ["x"] + [f"p_{j + 1}" for j in range(dim)]
        rows = [[s.x, *np.atleast_1d(s.point)] for s in samples]
        _emit(cfg.out, render_csv(header, rows, cfg.digits))
    else:
        records = [{"x": s.x, "point": list(np.atleast_1d(s.point))} for s in samples]
        _emit(cfg.out, render_json_records(records, cfg.digits))
    return EXIT_OK


def cmd_curve(cfg: argparse.Namespace, polygon_path: str) -> int:
    points, _ = read_polygon_json(polygon_path)
    polygon = ControlPolygon(points)
    per_q = [
        (q, sample_curve(polygon, q, cfg.interval, _count(cfg.samples, SAMPLES), cfg.method))
        for q in cfg.qs
    ]
    return _write_curve_output(cfg, per_q, polygon)


def cmd_rational(cfg: argparse.Namespace, polygon_path: Optional[str]) -> int:
    if cfg.basis_mode:
        if cfg.degree is None:
            raise _UsageError("rational --basis needs --degree")
        weights = _weights(cfg, None, cfg.degree)
        return _write_basis_output(cfg, _basis_series(cfg, ratio_weights=weights))
    if polygon_path is None:
        raise _UsageError("rational needs --polygon (or --basis with --degree)")
    points, file_weights = read_polygon_json(polygon_path)
    polygon = ControlPolygon(points)
    weights = _weights(cfg, file_weights, polygon.degree)
    per_q = [
        (q, rational_sample(polygon, weights, q, cfg.interval, _count(cfg.samples, SAMPLES)))
        for q in cfg.qs
    ]
    return _write_curve_output(cfg, per_q, polygon)


def _report(payload: dict, passed: bool) -> int:
    status = "PASS" if passed else "FAIL"
    print(f"{payload['check']}: {status}")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if passed else EXIT_VIOLATION


def _check_tp(cfg: argparse.Namespace) -> int:
    if cfg.degree is None:
        raise _UsageError("check tp needs --degree")
    q = cfg.qs[0]
    a, b = cfg.interval.a, cfg.interval.b
    grid = _count(cfg.grid, TP_GRID)
    pts = [a + (b - a) * (j + 1) / (grid + 1) for j in range(grid)]
    family = "quantum" if cfg.weights is None else "rational"
    mat = collocation(family, cfg.degree, q, cfg.interval, pts, weights=cfg.weights)
    rep = total_positivity_check(mat, cfg.tolerance)
    payload = {
        "check": "tp",
        "family": family,
        "degree": cfg.degree,
        "q": q,
        "interval": [a, b],
        "grid": grid,
        "minors_checked": rep.minors_checked,
        "worst_minor": rep.worst_minor,
        "worst_scaled": rep.worst_scaled,
        "tolerance": rep.tolerance,
        "is_tp": rep.is_tp,
        "pass": rep.is_tp,
    }
    return _report(payload, rep.is_tp)


def _check_hull(cfg: argparse.Namespace, polygon_path: str) -> int:
    points, file_weights = read_polygon_json(polygon_path)
    polygon = ControlPolygon(points)
    if polygon.dim != 2:
        raise _UsageError("check hull needs 2-d control points")
    weights = _weights(cfg, file_weights, polygon.degree)
    q = cfg.qs[0]
    n_samples = _count(cfg.samples, SAMPLES)
    samples = rational_sample(polygon, weights, q, cfg.interval, n_samples)
    hull = convex_hull(polygon.points)
    violations = sum(
        0 if point_in_hull(s.point, hull, slack=1e-12) else 1 for s in samples
    )
    payload = {
        "check": "hull",
        "q": q,
        "samples": n_samples,
        "violations": violations,
        "pass": violations == 0,
    }
    return _report(payload, violations == 0)


def _check_vdp(cfg: argparse.Namespace, polygon_path: str) -> int:
    points, file_weights = read_polygon_json(polygon_path)
    polygon = ControlPolygon(points)
    if polygon.dim != 2:
        raise _UsageError("check vdp needs 2-d control points")
    weights = _weights(cfg, file_weights, polygon.degree)
    q = cfg.qs[0]
    n_samples = _count(cfg.samples, VDP_SAMPLES)
    samples = rational_sample(polygon, weights, q, cfg.interval, n_samples)
    pts = np.vstack([s.point for s in samples])
    ctrl = polygon.points
    lo = ctrl.min(axis=0)
    hi = ctrl.max(axis=0)
    rng = np.random.default_rng(VDP_SEED)
    lines = _count(cfg.grid, VDP_LINES)
    violations = 0
    worst = (0, 0)
    for _ in range(lines):
        center = lo + rng.random(2) * np.maximum(hi - lo, 1e-9)
        theta = rng.random() * math.pi
        normal = np.array([math.cos(theta), math.sin(theta)])
        offset = float(normal @ center)
        curve_changes = sign_changes_function(pts @ normal - offset)
        ctrl_changes = sign_changes_seq(ctrl @ normal - offset)
        if curve_changes > ctrl_changes:
            violations += 1
        if curve_changes > worst[0]:
            worst = (curve_changes, ctrl_changes)
    payload = {
        "check": "vdp",
        "q": q,
        "lines": lines,
        "curve_samples": n_samples,
        "violations": violations,
        "max_curve_crossings": worst[0],
        "pass": violations == 0,
    }
    return _report(payload, violations == 0)


def _check_signs(cfg: argparse.Namespace, polygon_path: str) -> int:
    points, _ = read_polygon_json(polygon_path)
    polygon = ControlPolygon(points)
    if polygon.dim != 1:
        raise _UsageError("check signs needs scalar control points")
    q = cfg.qs[0]
    n_samples = _count(cfg.samples, SIGNS_SAMPLES)
    samples = sample_curve(polygon, q, cfg.interval, n_samples)
    curve_changes = sign_changes_function([float(s.point[0]) for s in samples])
    ctrl_changes = sign_changes_seq(polygon.points[:, 0])
    passed = curve_changes <= ctrl_changes
    payload = {
        "check": "signs",
        "q": q,
        "curve_sign_changes": curve_changes,
        "control_sign_changes": ctrl_changes,
        "pass": passed,
    }
    return _report(payload, passed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtrig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=False):
        p.add_argument("--q", dest="qs", metavar="Q", action="append", type=float,
                       required=True, help="deformation parameter, repeatable for overlays")
        p.add_argument("--interval", required=True,
                       help='parameter interval "a,b"; accepts pi fractions like pi/2')
        p.add_argument("--samples", type=int,
                       help=f"sample count (default {SAMPLES}; check vdp {VDP_SAMPLES}, "
                            f"check signs {SIGNS_SAMPLES})")
        p.add_argument("--format", dest="fmt", choices=("csv", "json", "svg"),
                       default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--digits", type=int, default=17,
                       help="significant digits in csv/json output")
        if with_method:
            p.add_argument("--method", choices=("direct", "alg1", "alg2"),
                           default="direct")

    p_basis = sub.add_parser("basis", help="sample the quantum basis functions")
    p_basis.add_argument("--degree", type=int, required=True)
    common(p_basis)

    p_curve = sub.add_parser("curve", help="sample a quantum curve")
    p_curve.add_argument("--polygon", required=True, help="control polygon JSON file")
    common(p_curve, with_method=True)

    p_rat = sub.add_parser("rational", help="sample a rational basis or curve")
    p_rat.add_argument("--polygon", help="control polygon JSON file")
    p_rat.add_argument("--degree", type=int)
    p_rat.add_argument("--weights", type=_parse_weights,
                       help='comma-separated weights, e.g. "1,1,1,1"')
    p_rat.add_argument("--basis", action="store_true", dest="basis_mode",
                       help="emit the rational basis functions instead of a curve")
    common(p_rat)

    p_check = sub.add_parser("check", help="run a brute-force shape check")
    p_check.add_argument("property", choices=("tp", "vdp", "hull", "signs"))
    p_check.add_argument("--polygon")
    p_check.add_argument("--degree", type=int)
    p_check.add_argument("--weights", type=_parse_weights)
    p_check.add_argument("--grid", type=int,
                         help=f"collocation points (tp, default {TP_GRID}) "
                              f"or random lines (vdp, default {VDP_LINES})")
    p_check.add_argument("--tolerance", type=float, default=1e-9)
    common(p_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        cfg.interval = parse_interval(cfg.interval)
        if cfg.command == "basis":
            return cmd_basis(cfg)
        if cfg.command == "curve":
            return cmd_curve(cfg, cfg.polygon)
        if cfg.command == "rational":
            return cmd_rational(cfg, cfg.polygon)
        if len(cfg.qs) != 1:
            raise _UsageError("check takes exactly one --q")
        if cfg.property == "tp":
            return _check_tp(cfg)
        if cfg.property in ("vdp", "hull", "signs") and not cfg.polygon:
            raise _UsageError(f"check {cfg.property} needs --polygon")
        if cfg.property == "vdp":
            return _check_vdp(cfg, cfg.polygon)
        if cfg.property == "hull":
            return _check_hull(cfg, cfg.polygon)
        return _check_signs(cfg, cfg.polygon)
    except _UsageError as exc:
        print(f"qtrig: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidIntervalError as exc:
        print(f"qtrig: invalid interval: {exc}", file=sys.stderr)
        return EXIT_INTERVAL
    except SingularDenominatorError as exc:
        print(f"qtrig: singular denominator: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except MinorCapExceededError as exc:
        print(f"qtrig: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, QTrigError) as exc:
        print(f"qtrig: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
