"""Minimal hand-emitted SVG: an origin-centered polyline with axes.

No charting dependency; output is deterministic down to the byte.
"""

from __future__ import annotations

import math

from .errors import NumericalError, ValidationError

SIZE = 640  # width and height in pixels
MARGIN = 30  # pixels between the farthest point and the edge


def spiral_svg(points: list[tuple[float, float]]) -> str:
    """Render complex-plane points as an auto-scaled polyline around the origin."""
    if not points:
        raise ValidationError("no points to render")
    if not all(math.isfinite(v) for point in points for v in point):
        raise NumericalError("spiral points overflow a double; the SVG cannot scale them")
    extent = max(max(abs(x), abs(y)) for x, y in points)
    if extent == 0:
        extent = 1.0
    half = SIZE / 2.0
    scale = (half - MARGIN) / extent

    def sx(x: float) -> float:
        return half + x * scale

    def sy(y: float) -> float:
        return half - y * scale  # SVG y axis points down

    coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in points)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<line x1="0" y1="{half:.1f}" x2="{SIZE}" y2="{half:.1f}" '
        'stroke="#999999" stroke-width="1"/>',
        f'<line x1="{half:.1f}" y1="0" x2="{half:.1f}" y2="{SIZE}" '
        'stroke="#999999" stroke-width="1"/>',
        f'<polyline points="{coords}" fill="none" stroke="#1f4e9c" stroke-width="1"/>',
        f'<circle cx="{sx(points[0][0]):.3f}" cy="{sy(points[0][1]):.3f}" r="3" fill="#1f9c4e"/>',
        f'<circle cx="{sx(points[-1][0]):.3f}" cy="{sy(points[-1][1]):.3f}" r="3" fill="#9c1f1f"/>',
        "</svg>",
        "",
    ]
    return "\n".join(lines)
