"""Static SVG plots by direct text emission (no rendering dependency).

Each figure is a 720x480 line/scatter panel with axes, optional error
bars, and the plotted rows embedded verbatim in a <desc> block so the
artifact stays self-describing.
"""

from __future__ import annotations

import numpy as np

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + step / 2, step)


class Figure:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.curves = []
        self.table_rows: list[str] = []

    def add(self, x, y, yerr=None, label: str = "", kind: str = "line"):
        self.curves.append((np.asarray(x, float), np.asarray(y, float),
                            None if yerr is None else np.asarray(yerr, float),
                            label, kind))

    def embed_table(self, header: str, rows) -> None:
        self.table_rows = [header] + [str(r) for r in rows]

    def _scale(self):
        xs = np.concatenate([c[0] for c in self.curves])
        ys = np.concatenate([np.concatenate([c[1] + (c[2] if c[2] is not None else 0),
                                             c[1] - (c[2] if c[2] is not None else 0)])
                             for c in self.curves])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        padx, pady = 0.05 * (x1 - x0), 0.08 * (y1 - y0)
        return x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def render(self) -> str:
        """The figure as SVG text."""
        if not self.curves:
            raise ValueError("nothing to plot")
        x0, x1, y0, y1 = self._scale()

        def px(x):
            return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

        def py(y):
            return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">']
        if self.table_rows:
            body = "\n".join(self.table_rows).replace("&", "&amp;").replace("<", "&lt;")
            parts.append(f"<desc>{body}</desc>")
        parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        parts.append(f'<text x="{_W/2}" y="22" text-anchor="middle" font-size="15">'
                     f"{self.title}</text>")
        # axes box and ticks
        parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" '
                     f'height="{_H-_MT-_MB}" fill="none" stroke="#333"/>')
        for tx in _ticks(x0, x1):
            parts.append(f'<line x1="{px(tx):.1f}" y1="{_H-_MB}" x2="{px(tx):.1f}" '
                         f'y2="{_H-_MB+5}" stroke="#333"/>')
            parts.append(f'<text x="{px(tx):.1f}" y="{_H-_MB+18}" text-anchor="middle">'
                         f"{tx:.4g}</text>")
        for ty in _ticks(y0, y1):
            parts.append(f'<line x1="{_ML-5}" y1="{py(ty):.1f}" x2="{_ML}" '
                         f'y2="{py(ty):.1f}" stroke="#333"/>')
            parts.append(f'<text x="{_ML-8}" y="{py(ty)+4:.1f}" text-anchor="end">'
                         f"{ty:.4g}</text>")
        parts.append(f'<text x="{_W/2}" y="{_H-12}" text-anchor="middle">{self.xlabel}</text>')
        parts.append(f'<text x="16" y="{_H/2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_H/2})">{self.ylabel}</text>')
        for ci, (x, y, yerr, label, kind) in enumerate(self.curves):
            color = _COLORS[ci % len(_COLORS)]
            if yerr is not None:
                for xi, yi, ei in zip(x, y, yerr):
                    parts.append(f'<line x1="{px(xi):.1f}" y1="{py(yi-ei):.1f}" '
                                 f'x2="{px(xi):.1f}" y2="{py(yi+ei):.1f}" '
                                 f'stroke="{color}" stroke-width="1"/>')
            if kind == "line":
                pts = " ".join(f"{px(xi):.1f},{py(yi):.1f}" for xi, yi in zip(x, y))
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                             f'stroke-width="1.5"/>')
            else:
                for xi, yi in zip(x, y):
                    parts.append(f'<circle cx="{px(xi):.1f}" cy="{py(yi):.1f}" r="3" '
                                 f'fill="{color}"/>')
            if label:
                parts.append(f'<text x="{_W-_MR-8}" y="{_MT+16+14*ci}" text-anchor="end" '
                             f'fill="{color}">{label}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
