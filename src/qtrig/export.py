"""Deterministic CSV, JSON and SVG writers plus polygon-file parsing.

All numeric output is formatted with a fixed number of significant digits
(17 by default, enough to round-trip float64), so identical inputs produce
byte-identical files.  A digit count below 1 raises ValueError.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import _finite_input

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
    # the one place digits becomes a format: ".0g" would print one digit
    if digits < 1:
        raise ValueError(f"digits must be at least 1, got {digits}")
    return f"{float(value):.{digits}g}"


def round_sig(value: float, digits: int = 17) -> float:
    return float(sig_str(value, digits))


def render_csv(header: list[str], rows, digits: int = 17) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(sig_str(v, digits) for v in row))
    return "\n".join(lines) + "\n"


def render_json_records(records: list[dict], digits: int = 17) -> str:
    """A JSON array of {"x": x, key: [v, ...]} records, every float at digits."""
    rounded = [{k: round_sig(v, digits) if k == "x" else [round_sig(e, digits) for e in v]
                for k, v in record.items()} for record in records]
    return json.dumps(rounded) + "\n"


@dataclass(frozen=True)
class Polyline:
    points: tuple  # ((x, y), ...) in data coordinates, y up
    stroke: str
    width_scale: float = 1.0
    dash: Optional[str] = None


# Fraction of the data span added on each side of the SVG viewBox.
SVG_MARGIN = 0.05


def _fmt(v: float) -> str:
    return f"{v:.8g}"


def render_svg(polylines: list[Polyline], markers=()) -> str:
    """Render polylines and point markers as a standalone SVG document.

    The viewBox is the data bounding box plus SVG_MARGIN of its span per axis.
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
    mx, my = SVG_MARGIN * spanx, SVG_MARGIN * spany
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
    points = _numeric(raw, f"{path}: points must be finite rows of equal length",
                      f"{path}: points are not numeric rows of equal length")
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"{path}: points must be finite rows of equal length")
    weights = None
    if data.get("weights") is not None:
        weights = _numeric(data["weights"], f"{path}: weights must be finite",
                           f"{path}: weights are not a numeric array")
        if weights.shape != (points.shape[0],):
            raise ValueError(
                f"{path}: expected {points.shape[0]} weights, got {weights.shape}"
            )
    return points, weights


def _numeric(values, not_finite: str, not_numeric: str) -> np.ndarray:
    """values through _finite_input; numpy's error for ragged or non-numeric values becomes not_numeric."""
    try:
        return _finite_input(values, not_finite)
    except (TypeError, ValueError) as exc:
        if exc.args == (not_finite,):
            raise
        raise ValueError(not_numeric) from exc
