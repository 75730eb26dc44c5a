"""Minimal deterministic SVG line charts (no plotting dependency)."""

from __future__ import annotations

from pathlib import Path

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_W, _H = 640, 400
_MARGIN = 56


def _scale(vals: list[float], lo: float, hi: float, out_lo: float, out_hi: float) -> list[float]:
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def svg_line_chart(
    path: str | Path,
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>',
        f'<text x="{_MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="middle">{x_lo:.4g}</text>',
        f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 16}" text-anchor="middle">{x_hi:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_H - _MARGIN}" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end">{y_hi:.4g}</text>',
    ]
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        px = _scale([x for x, _ in pts], x_lo, x_hi, _MARGIN, _W - _MARGIN)
        py = _scale([y for _, y in pts], y_lo, y_hi, _H - _MARGIN, _MARGIN)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        lines.append(
            f'<text x="{_W - _MARGIN + 4}" y="{_MARGIN + 14 * i + 10}" fill="{color}">{name}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
