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
import os
import sys
from typing import Optional

import numpy as np

from .basis import basis_matrix
from .curve import ControlPolygon, sample_curve
from .errors import FloatRangeError, InvalidIntervalError, QTrigError, SingularDenominatorError
from .export import Polyline, render_csv, render_json_records, render_svg, read_polygon_json
from .kernel import Interval
from .rational import rational_basis_matrix, rational_sample
from .shape import (
    DEFAULT_TP_TOL,
    _refuse_over_cap,
    collocation,
    convex_hull,
    point_in_hull,
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
# --samples defaults; check vdp and check signs sample more densely
SAMPLES = 129
VDP_SAMPLES = 2048
SIGNS_SAMPLES = 512


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for invalid intervals, so usage
    # errors must not use argparse's default exit(2)
    def error(self, message):
        raise _UsageError(message)

    # every flag is long, so a value such as -pi/8,pi/4, -1e-3 or -1,2,1
    # is an argument, where argparse would read it as an unknown flag
    def _parse_optional(self, arg_string):
        if arg_string[1:2] not in ("", "-") and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


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
            if not post.startswith("/") or float(post[1:]) == 0.0:
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


def _polygon(cfg: argparse.Namespace, dim: Optional[int] = None):
    """(ControlPolygon, weights) from --polygon.

    Weights are --weights, else the file's, else all ones.  A check passes
    the point dimension it needs as dim.
    """
    points, file_weights = read_polygon_json(cfg.polygon)
    polygon = ControlPolygon(points)
    if dim is not None and polygon.dim != dim:
        kind = "2-d" if dim == 2 else "scalar"
        raise _UsageError(f"check {cfg.property} needs {kind} control points")
    weights = getattr(cfg, "weights", None)  # curve and check signs have no --weights
    if weights is None:
        weights = np.ones(polygon.degree + 1) if file_weights is None else file_weights
    return polygon, weights


def _emit(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_table(cfg: argparse.Namespace, xs, values, labels, key: str) -> int:
    """CSV rows (x, *labels) or JSON records {"x": x, key: row}; one --q only."""
    if len(cfg.qs) != 1:
        raise _UsageError(f"{cfg.fmt} output supports exactly one --q, got {len(cfg.qs)}")
    pairs = zip(xs.tolist(), values.tolist())
    if cfg.fmt == "csv":
        rows = [[x, *row] for x, row in pairs]
        _emit(cfg.out, render_csv(["x", *labels], rows, cfg.digits))
    else:
        _emit(cfg.out, render_json_records([{"x": x, key: row} for x, row in pairs], cfg.digits))
    return EXIT_OK


def _polyline(xs, ys, stroke: str, **style) -> Polyline:
    return Polyline(points=tuple(zip(xs.tolist(), ys.tolist())), stroke=stroke, **style)


def cmd_basis(cfg: argparse.Namespace, weights=None) -> int:
    """One basis table per --q; the rational family if weights are given."""
    n, interval = cfg.degree, cfg.interval
    if cfg.samples < 1:
        raise ValueError(f"need at least 1 sample, got {cfg.samples}")
    xs = np.linspace(interval.a, interval.b, cfg.samples)
    tables = []
    for q in cfg.qs:
        with np.errstate(over="ignore", invalid="ignore"):  # a table that leaves float64 is refused below
            tables.append(basis_matrix(n, xs, q, interval) if weights is None
                          else rational_basis_matrix(n, xs, q, interval, weights))
        finite = np.isfinite(tables[-1]).all(axis=1)
        if not finite.all():
            x = float(xs[finite.argmin()])
            raise FloatRangeError(f"degree {n}, q={q!r}: the basis leaves float64 at x = {x!r}")
    if cfg.fmt == "svg":
        polylines = [_polyline(xs, column, PALETTE[qi % len(PALETTE)])
                     for qi, table in enumerate(tables) for column in table.T]
        _emit(cfg.out, render_svg(polylines))
        return EXIT_OK
    return _write_table(cfg, xs, tables[0], [f"B{k}" for k in range(n + 1)], "values")


def _write_curve_output(cfg: argparse.Namespace, sweeps, polygon: ControlPolygon) -> int:
    """One sampled curve per --q; SVG adds the dashed control polygon."""
    if cfg.fmt == "svg":
        if polygon.dim != 2:
            raise _UsageError("svg output needs 2-d control points")
        polylines = [_polyline(*s.points.T, PALETTE[qi % len(PALETTE)])
                     for qi, s in enumerate(sweeps)]
        outline = _polyline(*polygon.points.T, "#555555", dash="4 3", width_scale=0.7)
        _emit(cfg.out, render_svg(polylines + [outline], outline.points))
        return EXIT_OK
    labels = [f"p_{j + 1}" for j in range(polygon.dim)]
    return _write_table(cfg, sweeps[0].x, sweeps[0].points, labels, "point")


def cmd_curve(cfg: argparse.Namespace) -> int:
    polygon, _ = _polygon(cfg)
    sweeps = [sample_curve(polygon, q, cfg.interval, cfg.samples, cfg.method) for q in cfg.qs]
    return _write_curve_output(cfg, sweeps, polygon)


def cmd_rational(cfg: argparse.Namespace) -> int:
    """The rational basis with --basis, else the curve of --polygon."""
    if cfg.basis_mode != (cfg.degree is not None):
        raise _UsageError("rational takes --basis and --degree together")
    if cfg.basis_mode:
        weights = np.ones(cfg.degree + 1) if cfg.weights is None else cfg.weights
        return cmd_basis(cfg, weights)
    polygon, weights = _polygon(cfg)
    sweeps = [rational_sample(polygon, weights, q, cfg.interval, cfg.samples) for q in cfg.qs]
    return _write_curve_output(cfg, sweeps, polygon)


def _check_tp(cfg: argparse.Namespace) -> dict:
    _refuse_over_cap(cfg.degree + 1, cfg.grid)  # before collocating, whose cost grows with --grid
    q = cfg.qs[0]
    a, b = cfg.interval.a, cfg.interval.b
    pts = [a + (b - a) * (j + 1) / (cfg.grid + 1) for j in range(cfg.grid)]
    family = "quantum" if cfg.weights is None else "rational"
    mat = collocation(family, cfg.degree, q, cfg.interval, pts, weights=cfg.weights)
    rep = total_positivity_check(mat, cfg.tolerance)
    return {
        "check": "tp",
        "family": family,
        "degree": cfg.degree,
        "q": q,
        "interval": [a, b],
        "grid": cfg.grid,
        "minors_checked": rep.minors_checked,
        "worst_minor": rep.worst_minor,
        "worst_scaled": rep.worst_scaled,
        "tolerance": rep.tolerance,
        "is_tp": rep.is_tp,
        "route": rep.route,
        "pass": rep.is_tp,
    }


def _check_hull(cfg: argparse.Namespace) -> dict:
    polygon, weights = _polygon(cfg, dim=2)
    q = cfg.qs[0]
    pts = rational_sample(polygon, weights, q, cfg.interval, cfg.samples).points
    violations = int(np.count_nonzero(~point_in_hull(pts, convex_hull(polygon.points))))
    return {
        "check": "hull",
        "q": q,
        "samples": cfg.samples,
        "violations": violations,
        "pass": violations == 0,
    }


def _check_vdp(cfg: argparse.Namespace) -> dict:
    if cfg.grid < 1:  # before the polygon is read and sampled
        raise _UsageError(f"check vdp needs at least 1 line, got --grid {cfg.grid}")
    polygon, weights = _polygon(cfg, dim=2)
    q = cfg.qs[0]
    pts = rational_sample(polygon, weights, q, cfg.interval, cfg.samples).points
    ctrl = polygon.points
    lo, hi = ctrl.min(axis=0), ctrl.max(axis=0)
    rng = np.random.default_rng(VDP_SEED)
    violations = max_crossings = 0
    for _ in range(cfg.grid):
        center = lo + rng.random(2) * np.maximum(hi - lo, 1e-9)
        theta = rng.random() * math.pi
        normal = np.array([math.cos(theta), math.sin(theta)])
        offset = float(normal @ center)
        curve_changes = sign_changes_seq(pts @ normal - offset)
        ctrl_changes = sign_changes_seq(ctrl @ normal - offset)
        violations += curve_changes > ctrl_changes
        max_crossings = max(max_crossings, curve_changes)
    return {
        "check": "vdp",
        "q": q,
        "lines": cfg.grid,
        "curve_samples": cfg.samples,
        "violations": violations,
        "max_curve_crossings": max_crossings,
        "pass": violations == 0,
    }


def _check_signs(cfg: argparse.Namespace) -> dict:
    polygon, _ = _polygon(cfg, dim=1)
    q = cfg.qs[0]
    sweep = sample_curve(polygon, q, cfg.interval, cfg.samples)
    curve_changes = sign_changes_seq(sweep.points[:, 0])
    ctrl_changes = sign_changes_seq(polygon.points[:, 0])
    return {
        "check": "signs",
        "q": q,
        "curve_sign_changes": curve_changes,
        "control_sign_changes": ctrl_changes,
        "pass": curve_changes <= ctrl_changes,
    }


def cmd_check(cfg: argparse.Namespace) -> int:
    if len(cfg.qs) != 1:
        raise _UsageError("check takes exactly one --q")
    payload = cfg.check(cfg)
    print(f"{payload['check']}: {'PASS' if payload['pass'] else 'FAIL'}")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if payload["pass"] else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtrig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, samples=SAMPLES, writes=True):
        p.add_argument("--q", dest="qs", metavar="Q", action="append", type=float,
                       required=True, help="deformation parameter, repeatable for overlays")
        p.add_argument("--interval", required=True,
                       help='parameter interval "a,b"; accepts pi fractions like pi/2')
        if samples is not None:  # check tp collocates on --grid instead
            p.add_argument("--samples", type=int, default=samples,
                           help="sample count (default %(default)s)")
        if not writes:  # check prints a verdict, no table
            return
        p.add_argument("--format", dest="fmt", choices=("csv", "json", "svg"),
                       default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--digits", type=int, default=17,
                       help="significant digits in csv/json output")

    def weights(p):
        p.add_argument("--weights", type=_parse_weights,
                       help='comma-separated weights, e.g. "1,1,1,1"')

    p_basis = sub.add_parser("basis", help="sample the quantum basis functions")
    p_basis.add_argument("--degree", type=int, required=True)
    p_basis.set_defaults(run=cmd_basis)
    common(p_basis)

    p_curve = sub.add_parser("curve", help="sample a quantum curve")
    p_curve.add_argument("--polygon", required=True, help="control polygon JSON file")
    p_curve.set_defaults(run=cmd_curve)
    common(p_curve)
    p_curve.add_argument("--method", choices=("direct", "alg1", "alg2"), default="direct")

    p_rat = sub.add_parser("rational", help="sample a rational basis or curve")
    mode = p_rat.add_mutually_exclusive_group(required=True)
    mode.add_argument("--polygon", help="control polygon JSON file")
    mode.add_argument("--basis", action="store_true", dest="basis_mode",
                      help="emit the rational basis functions of --degree instead of a curve")
    p_rat.add_argument("--degree", type=int, help="basis degree, with --basis only")
    weights(p_rat)
    p_rat.set_defaults(run=cmd_rational)
    common(p_rat)

    p_check = sub.add_parser("check", help="run a brute-force shape check")
    p_check.set_defaults(run=cmd_check)
    checks = p_check.add_subparsers(dest="property", required=True)

    def check(name, run, help, samples=None, polygon=True, weighted=True):
        """The sub-parser of one check, with only the flags that check reads."""
        p = checks.add_parser(name, help=help)
        p.set_defaults(check=run)
        common(p, samples, writes=False)
        if polygon:
            p.add_argument("--polygon", required=True, help="control polygon JSON file")
        if weighted:
            weights(p)
        return p

    p_tp = check("tp", _check_tp, "total positivity of a collocation matrix", polygon=False)
    p_tp.add_argument("--degree", type=int, required=True)
    p_tp.add_argument("--grid", type=int, default=6,
                      help="collocation points (default %(default)s)")
    p_tp.add_argument("--tolerance", type=float, default=DEFAULT_TP_TOL,
                      help="scaled minor tolerance (default %(default)s)")
    p_vdp = check("vdp", _check_vdp, "variation diminishing along random lines", VDP_SAMPLES)
    p_vdp.add_argument("--grid", type=int, default=50,
                       help="random lines, at least 1 (default %(default)s)")
    check("hull", _check_hull, "convex-hull containment of the samples", SAMPLES)
    check("signs", _check_signs, "sign changes of a scalar curve", SIGNS_SAMPLES, weighted=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
        cfg.interval = parse_interval(cfg.interval)
        return cfg.run(cfg)
    except _UsageError as exc:
        print(f"qtrig: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidIntervalError as exc:
        print(f"qtrig: invalid interval: {exc}", file=sys.stderr)
        return EXIT_INTERVAL
    except SingularDenominatorError as exc:
        print(f"qtrig: singular denominator: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except BrokenPipeError:  # the reader closed stdout: there is no one left to tell
        sys.stdout = open(os.devnull, "w")  # so the flush at exit writes nowhere
        return EXIT_USAGE
    except (ValueError, OSError, QTrigError) as exc:
        print(f"qtrig: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
