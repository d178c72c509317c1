"""CSV and SVG emission.

CSV is the canonical output: UTF-8, comma separators, LF line endings,
reals at 12 significant digits. The SVG plots are best-effort sketches
written directly, with no plotting dependency.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .hypercube import index_pattern
from .lindblad import Trajectory

__all__ = [
    "write_trajectory_csv",
    "write_classical_csv",
    "write_sweep_csv",
    "write_coin_csv",
    "write_hopfield_csv",
    "svg_line_plot",
    "svg_heatmap",
]

_REAL = "%.12g"  # the text of format(float(x), ".12g")

# Rows per formatted block of a real table. Writing the seed-1
# simulate-n6 CSV (401 rows of 68 cells; median of 60 calls, 2 vCPUs,
# Python 3.11) took 6.61 / 5.96 / 5.82 / 5.75 / 5.70 / 5.70 ms with
# blocks of 1 / 8 / 16 / 32 / 64 / 256 rows, and its tracemalloc peak
# was 80 / 80 / 80 / 143 / 280 / 1098 KB. The row-at-a-time writer
# took 6.06 ms and peaked at 239 KB with its copy of the table.
_CSV_BLOCK_ROWS = 32


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_table(path: str, header: str, row_format: str, rows) -> None:
    """Write ``header``, then ``row_format % row`` for each tuple, one row at a time."""
    _write_lines(path, chain([header], (row_format % row for row in rows)))


def _write_real_table(path: str, header: str, table) -> None:
    """Write ``header``, then each row of the 2-D float ``table`` as ``_REAL`` cells.

    A column that is +0.0 in every row is written as its ``_REAL`` text,
    the literal ``0``, so that only the populated columns are formatted.
    """
    empty = ((table == 0) & ~np.signbit(table)).all(axis=0)
    row_format = ",".join(["0" if e else _REAL for e in empty.tolist()]) + "\n"
    populated = ~empty
    # Rows are formatted and written _CSV_BLOCK_ROWS at a time, with one
    # % of the joined row template per block: neither a whole-table list
    # nor a copy of the populated columns is held.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS, populated]
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _pattern_header(dim: int) -> str:
    """``t,pattern_<bits>...`` for the 2^n patterns of a table ``dim`` = 2^n columns wide."""
    n = dim.bit_length() - 1
    return "t," + ",".join(f"pattern_{index_pattern(v, n)}" for v in range(dim))


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Header ``t,pattern_<bits>...,trace_drift,min_eig,purity``."""
    columns = [traj.times, traj.populations, traj.trace_drift, traj.min_eigenvalue, traj.purity]
    header = _pattern_header(traj.populations.shape[1]) + ",trace_drift,min_eig,purity"
    _write_real_table(path, header, np.column_stack(columns))


def write_classical_csv(path: str, times, distributions) -> None:
    header = _pattern_header(distributions.shape[1])
    _write_real_table(path, header, np.column_stack([times, distributions]))


def write_sweep_csv(path: str, rows) -> None:
    """Rows of (kappa, gamma, mixing_time, diagnostics), pre-sorted."""
    _write_table(path, "kappa,gamma,mixing_time,diagnostics", f"{_REAL},{_REAL},{_REAL},%s", rows)


def write_coin_csv(path: str, rows) -> None:
    _write_table(
        path, "p,kind,deviation,unitary", f"{_REAL},%s,{_REAL},%s",
        ((p, kind, dev, "true" if unitary else "false") for p, kind, dev, unitary in rows),
    )


def write_hopfield_csv(path: str, rows) -> None:
    _write_table(
        path, "input,output,steps,converged,energy_trace", "%s,%s,%s,%s,%s",
        (
            (inp, out, steps, "true" if converged else "false",
             ";".join(_REAL % e for e in energies))
            for inp, out, steps, converged, energies in rows
        ),
    )


# ---------------------------------------------------------------------------
# SVG sketches

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
]

_W, _H = 820, 520
_ML, _MR, _MT, _MB = 70, 150, 40, 55


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _svg_open(title: str, axes: list, x_label: str, x_label_y: int, y_label: str) -> list:
    """A plot's opening: svg tag, white background, title, ``axes``, x label, rotated y label."""
    mid_y = (_H - _MB + _MT) / 2
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-size="16">{title}</text>',
        *axes,
        f'<text x="{(_W - _MR + _ML) / 2:.1f}" y="{x_label_y}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="18" y="{mid_y:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {mid_y:.1f})">{y_label}</text>',
    ]


def svg_line_plot(path: str, x, series: dict, title: str, x_label: str, y_label: str) -> None:
    """One polyline per labeled series over a shared x axis."""
    x = np.asarray(x, dtype=float)
    y_min = min(float(np.min(v)) for v in series.values())
    y_max = max(float(np.max(v)) for v in series.values())
    if y_max - y_min < 1e-12:
        y_max = y_min + 1.0
    x_min, x_max = float(x[0]), float(x[-1])

    def sx(v):
        return _ML + (v - x_min) / (x_max - x_min) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_min) / (y_max - y_min) * (_H - _MT - _MB)

    axes = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    parts = _svg_open(title, axes, x_label, _H - 12, y_label)
    for tick in _ticks(x_min, x_max):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(y_min, y_max):
        parts.append(
            f'<text x="{_ML - 8}" y="{sy(tick) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{tick:.3g}</text>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{sy(tick):.1f}" x2="{_W - _MR}" y2="{sy(tick):.1f}" '
            f'stroke="#dddddd"/>'
        )
    # sx and sy take whole arrays; "%.2f" formats each float as f"{v:.2f}" does.
    # The x are formatted once per plot, into one template for a series' y.
    template = " ".join(["%.2f," % v + "%.2f" for v in sx(x).tolist()])
    for idx, (label, values) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        points = template % tuple(sy(np.asarray(values, dtype=float)).tolist())
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if len(series) <= len(_PALETTE):
            ly = _MT + 16 * idx
            parts.append(
                f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 34}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_W - _MR + 40}" y="{ly + 4}" font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    _write_lines(path, parts)


def _heat_color(fraction: float) -> str:
    """Dark blue to yellow ramp."""
    f = min(max(fraction, 0.0), 1.0)
    r = int(round(253 * f * f + 20 * (1 - f)))
    g = int(round(231 * f + 40 * (1 - f)))
    b = int(round(37 * f + 120 * (1 - f)))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(path: str, x_values, y_values, grid, title: str, x_label: str, y_label: str) -> None:
    """Colored cell per (x, y) grid point; -1 cells are drawn dark red."""
    grid = np.asarray(grid, dtype=float)
    ny, nx = grid.shape
    cell_w = (_W - _ML - _MR) / nx
    cell_h = (_H - _MT - _MB) / ny
    finite = grid[grid >= 0]
    top = float(np.max(finite)) if finite.size else 1.0
    top = top if top > 0 else 1.0

    parts = _svg_open(title, [], x_label, _H - 10, y_label)
    for iy in range(ny):
        for ix in range(nx):
            value = grid[iy, ix]
            color = "#7f0000" if value < 0 else _heat_color(value / top)
            x0 = _ML + ix * cell_w
            y0 = _H - _MB - (iy + 1) * cell_h
            parts.append(
                f'<rect x="{x0:.1f}" y="{y0:.1f}" width="{cell_w:.1f}" '
                f'height="{cell_h:.1f}" fill="{color}" stroke="white"/>'
            )
            label = "x" if value < 0 else f"{value:.3g}"
            parts.append(
                f'<text x="{x0 + cell_w / 2:.1f}" y="{y0 + cell_h / 2 + 4:.1f}" '
                f'text-anchor="middle" font-size="11" fill="#202020">{label}</text>'
            )
    for ix, xv in enumerate(x_values):
        parts.append(
            f'<text x="{_ML + (ix + 0.5) * cell_w:.1f}" y="{_H - _MB + 18}" '
            f'text-anchor="middle" font-size="11">{xv:.3g}</text>'
        )
    for iy, yv in enumerate(y_values):
        parts.append(
            f'<text x="{_ML - 8}" y="{_H - _MB - (iy + 0.5) * cell_h + 4:.1f}" '
            f'text-anchor="end" font-size="11">{yv:.3g}</text>'
        )
    parts.append("</svg>")
    _write_lines(path, parts)
