"""Deterministic CSV, JSON and SVG writers plus polygon-file parsing.

All numeric output is formatted with a fixed number of significant digits
(17 by default, enough to round-trip float64), so identical inputs produce
byte-identical files.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "sig_str",
    "round_sig",
    "render_csv",
    "render_json_records",
    "Polyline",
    "render_svg",
    "read_polygon_json",
]


def sig_str(value: float, digits: int = 17) -> str:
    return f"{float(value):.{digits}g}"


def round_sig(value: float, digits: int = 17) -> float:
    return float(sig_str(value, digits))


def render_csv(header: list[str], rows, digits: int = 17) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(sig_str(v, digits) for v in row))
    return "\n".join(lines) + "\n"


def render_json_records(records: list[dict], digits: int = 17) -> str:
    def conv(obj):
        if isinstance(obj, dict):
            return {k: conv(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple, np.ndarray)):
            return [conv(v) for v in obj]
        if isinstance(obj, (float, np.floating)):
            return round_sig(obj, digits)
        return obj

    return json.dumps(conv(records)) + "\n"


@dataclass(frozen=True)
class Polyline:
    points: tuple  # ((x, y), ...) in data coordinates, y up
    stroke: str
    width_scale: float = 1.0
    dash: Optional[str] = None


def _fmt(v: float) -> str:
    return f"{v:.8g}"


def render_svg(polylines: list[Polyline], markers=(), margin: float = 0.05) -> str:
    """Render polylines and point markers as a standalone SVG document.

    The viewBox is the data bounding box plus a margin fraction per axis.
    SVG's y axis points down, so y coordinates are negated on output.
    """
    xs, ys = [], []
    for pl in polylines:
        for x, y in pl.points:
            xs.append(float(x))
            ys.append(float(y))
    for x, y in markers:
        xs.append(float(x))
        ys.append(float(y))
    if not xs:
        raise ValueError("nothing to draw")
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = maxx - minx or 1.0
    spany = maxy - miny or 1.0
    mx, my = margin * spanx, margin * spany
    width = spanx + 2 * mx
    height = spany + 2 * my
    view = f"{_fmt(minx - mx)} {_fmt(-maxy - my)} {_fmt(width)} {_fmt(height)}"
    stroke_w = 0.006 * max(width, height)
    radius = 0.012 * max(width, height)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">']
    for pl in polylines:
        coords = " ".join(f"{_fmt(float(x))},{_fmt(-float(y))}" for x, y in pl.points)
        dash = f' stroke-dasharray="{pl.dash}"' if pl.dash else ""
        parts.append(
            f'<polyline fill="none" stroke="{pl.stroke}" '
            f'stroke-width="{_fmt(stroke_w * pl.width_scale)}"{dash} points="{coords}"/>'
        )
    for x, y in markers:
        parts.append(
            f'<circle cx="{_fmt(float(x))}" cy="{_fmt(-float(y))}" '
            f'r="{_fmt(radius)}" fill="#333333"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_polygon_json(path: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Load {"points": [[...], ...], "weights": [...]} from a JSON file.

    Weights are optional.  Points must be non-empty rows of equal length.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f'{path}: expected an object with a "points" array')
    raw = data["points"]
    if not isinstance(raw, list) or not raw:
        raise ValueError(f'{path}: "points" must be a non-empty array')
    try:
        points = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: points are not numeric rows of equal length") from exc
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or not np.all(np.isfinite(points)):
        raise ValueError(f"{path}: points must be finite rows of equal length")
    weights = None
    if data.get("weights") is not None:
        weights = np.asarray(data["weights"], dtype=float)
        if weights.shape != (points.shape[0],):
            raise ValueError(
                f"{path}: expected {points.shape[0]} weights, got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"{path}: weights must be finite")
    return points, weights
