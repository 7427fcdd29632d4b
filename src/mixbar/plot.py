"""Deterministic SVG rendering of mixup barcodes.

Every bar is drawn as its image sub-bar [b, d') in the light color and its
mixup sub-bar [d', d) in the dark color, over a shared value axis. The
output is plain text built in a fixed order, so identical barcodes give
byte-identical files.
"""

from __future__ import annotations

from .errors import InputError
from .stats import MixupBarcode

WIDTH = 720.0
ROW_HEIGHT = 16.0
BAR_HEIGHT = 10.0
MARGIN_LEFT = 60.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 30.0
LIGHT_COLOR = "#9ecae1"
DARK_COLOR = "#08306b"
AXIS_COLOR = "#444444"
FONT = "sans-serif"
FONT_SIZE = 11.0
TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_value(x: float) -> str:
    return f"{x:.6g}"


def plot_mixup_barcode(bc: MixupBarcode) -> str:
    """Render one degree's barcode as an SVG document string."""
    try:
        rows = bc.clamped.tolist()
    except InputError:
        raise InputError(
            "barcode holds infinite deaths and no clamp value; set a clamp before plotting"
        ) from None
    bars = sorted(rows, key=lambda t: (t[0], -(t[2] - t[0])))

    lo = min([b for b, _, _ in bars] + [0.0])
    hi = max((d for _, _, d in bars), default=0.0)
    if bc.clamp is not None:
        hi = max(hi, bc.clamp)
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    height = MARGIN_TOP + max(len(bars), 1) * ROW_HEIGHT + MARGIN_BOTTOM
    axis_y = height - MARGIN_BOTTOM

    def x_of(v: float) -> float:
        return MARGIN_LEFT + (v - lo) / span * plot_w

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(height)}">'
    )
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP - 14.0)}" '
        f'font-family="{FONT}" font-size="{_fmt(FONT_SIZE + 2.0)}" '
        f'fill="{AXIS_COLOR}">degree {bc.degree} mixup barcode '
        f"({len(bars)} bars)</text>"
    )
    for row, (b, dp, d) in enumerate(bars):
        y = MARGIN_TOP + row * ROW_HEIGHT
        x_b, x_di, x_d = x_of(b), x_of(dp), x_of(d)
        if x_di > x_b:
            parts.append(
                f'<rect x="{_fmt(x_b)}" y="{_fmt(y)}" width="{_fmt(x_di - x_b)}" '
                f'height="{_fmt(BAR_HEIGHT)}" fill="{LIGHT_COLOR}"/>'
            )
        if x_d > x_di:
            parts.append(
                f'<rect x="{_fmt(x_di)}" y="{_fmt(y)}" width="{_fmt(x_d - x_di)}" '
                f'height="{_fmt(BAR_HEIGHT)}" fill="{DARK_COLOR}"/>'
            )
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(MARGIN_LEFT + plot_w)}" y2="{_fmt(axis_y)}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for i in range(TICKS):
        v = lo + span * i / (TICKS - 1)
        x = x_of(v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 4.0)}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 16.0)}" text-anchor="middle" '
            f'font-family="{FONT}" font-size="{_fmt(FONT_SIZE)}" '
            f'fill="{AXIS_COLOR}">{_fmt_value(v)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
