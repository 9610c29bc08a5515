"""Dependency-free static SVG boxplot of the per-strategy summaries."""

from __future__ import annotations

from .simulation import TRUE_MEAN, StrategySummary

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 30
_MARGIN_B = 60
_BOX_FRAC = 0.4

_LABELS = {
    "available_case": "(i) available case",
    "impute_then_query": "(ii) impute, inflate",
    "dp_impute_then_query": "(iii) DP impute",
}


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    span = hi - lo
    step = span / (count - 1)
    return [lo + i * step for i in range(count)]


def render_boxplot(summary: dict[str, StrategySummary]) -> str:
    """Boxes with whiskers at min/max and a red line at the true mean."""
    names = list(summary)
    if not names:
        raise ValueError("nothing to plot")
    stats = [summary[n] for n in names]
    lo = min(min(s.min for s in stats), TRUE_MEAN)
    hi = max(max(s.max for s in stats), TRUE_MEAN)
    pad = 0.05 * (hi - lo or 1.0)
    lo -= pad
    hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def ypix(v: float) -> float:
        return _MARGIN_T + plot_h * (hi - v) / (hi - lo)

    slot = plot_w / len(names)
    half = slot * _BOX_FRAC / 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" stroke="black"/>',
    ]
    for t in _ticks(lo, hi):
        y = ypix(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{t:.3g}</text>'
        )

    for i, (name, s) in enumerate(zip(names, stats)):
        cx = _MARGIN_L + slot * (i + 0.5)
        for v in (s.min, s.max):  # whisker caps
            parts.append(
                f'<line x1="{cx - half / 2:.2f}" y1="{ypix(v):.2f}" '
                f'x2="{cx + half / 2:.2f}" y2="{ypix(v):.2f}" stroke="black"/>'
            )
        parts.append(
            f'<line x1="{cx:.2f}" y1="{ypix(s.min):.2f}" x2="{cx:.2f}" '
            f'y2="{ypix(s.q1):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx:.2f}" y1="{ypix(s.q3):.2f}" x2="{cx:.2f}" '
            f'y2="{ypix(s.max):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<rect x="{cx - half:.2f}" y="{ypix(s.q3):.2f}" width="{2 * half:.2f}" '
            f'height="{ypix(s.q1) - ypix(s.q3):.2f}" fill="#cfe2f3" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{cx - half:.2f}" y1="{ypix(s.median):.2f}" '
            f'x2="{cx + half:.2f}" y2="{ypix(s.median):.2f}" '
            f'stroke="black" stroke-width="2"/>'
        )
        label = _LABELS.get(name, name)
        parts.append(
            f'<text x="{cx:.2f}" y="{_MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )

    y_true = ypix(TRUE_MEAN)
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{y_true:.2f}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{y_true:.2f}" stroke="red" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w}" y="{y_true - 5:.2f}" font-size="11" '
        f'text-anchor="end" fill="red" font-family="sans-serif">'
        f"true mean {TRUE_MEAN:g}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
