"""Minimal hand-emitted SVG: an origin-centered polyline with axes.

No charting dependency; output is deterministic down to the byte.
"""

from __future__ import annotations

import itertools
import math

from .errors import NumericalError, ValidationError

SIZE = 640  # width and height in pixels
MARGIN = 30  # pixels between the farthest point and the edge


def spiral_svg(points: list[tuple[float, float]]) -> str:
    """Render complex-plane points as an auto-scaled polyline around the origin."""
    if not points:
        raise ValidationError("no points to render")
    flat = list(itertools.chain.from_iterable(points))  # x0, y0, x1, y1, ...
    if not all(map(math.isfinite, flat)):
        raise NumericalError("spiral points overflow a double; the SVG cannot scale them")
    extent = max(map(abs, flat)) or 1.0
    half = SIZE / 2.0
    scale = (half - MARGIN) / extent
    # to pixels, half + x scale and half - y scale: the SVG y axis points down
    flat[0::2] = map(half.__add__, map(scale.__mul__, flat[0::2]))
    flat[1::2] = map(half.__sub__, map(scale.__mul__, flat[1::2]))
    coords = " ".join(["%.3f,%.3f"] * len(points)) % tuple(flat)
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
        f'<circle cx="{flat[0]:.3f}" cy="{flat[1]:.3f}" r="3" fill="#1f9c4e"/>',
        f'<circle cx="{flat[-2]:.3f}" cy="{flat[-1]:.3f}" r="3" fill="#9c1f1f"/>',
        "</svg>",
        "",
    ]
    return "\n".join(lines)
