"""Serialization: CSV for fields and profiles, JSON for results, SVG plots.

Grid functions serialize one row per cell, coordinates first, then the
value, all printed with 17 significant digits so the float64 round-trip is
exact.  Plots are small self-contained SVG files: a polyline for 1-d data,
a cell heat map for 2-d fields; the raw data always lands in a CSV next to
the figure.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np

from .errors import DomainError
from .grid import Grid, GridFunction
from .rearrange import StepFunction

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _write_rows(path, header: str, columns) -> None:
    """A CSV of ``columns`` under ``header``, one line per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(_FMT % float(v) for v in row) + "\n")


def write_grid_function(gf: GridFunction, path) -> None:
    _write_rows(path, ",".join(["x", "y"][: gf.grid.dim] + ["value"]),
                [*gf.grid.centers.T, gf.values])


def read_grid_function(grid: Grid, path) -> GridFunction:
    """Grid function from the value column of a CSV (coordinates are ignored)."""
    try:
        raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    except OSError as err:
        raise DomainError(f"cannot read grid-function file {path!r}: {err}") from err
    if raw.size == 0:
        raise DomainError(f"grid-function file {path!r} is empty")
    vals = np.atleast_2d(raw)[:, -1]
    if vals.shape != (grid.n_cells,):
        raise DomainError(
            f"file {path!r} holds {vals.shape[0]} values, grid has {grid.n_cells} cells"
        )
    return GridFunction(grid, vals)


def write_step_function(sf: StepFunction, path) -> None:
    _write_rows(path, "breakpoint,level", (sf.breakpoints[1:], sf.levels))


def write_series(x: Sequence[float], y: Sequence[float], path) -> None:
    _write_rows(path, "x,y", (x, y))


# ---------------------------------------------------------------------------
# JSON results
# ---------------------------------------------------------------------------

def write_result_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(result_json_bytes(payload).decode("utf-8"))


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def result_json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, indent=2,
                      separators=(",", ": "), default=_json_default).encode("utf-8")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_W, _H, _PAD = 640, 420, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return out_lo + (np.asarray(vals, float) - lo) / span * (out_hi - out_lo)


def _svg_header() -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]


def _line_svg(x: np.ndarray, y: np.ndarray) -> str:
    xs = _scale(x, float(x.min()), float(x.max()), _PAD, _W - _PAD)
    ys = _scale(y, float(y.min()), float(y.max()), _H - _PAD, _PAD)
    pts = " ".join(f"{a:.6g},{b:.6g}" for a, b in zip(xs, ys))
    parts = _svg_header()
    parts.append(f'<line x1="{_PAD}" y1="{_H-_PAD}" x2="{_W-_PAD}" y2="{_H-_PAD}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H-_PAD}" '
                 'stroke="black"/>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" '
                 'stroke-width="1.5"/>')
    parts.append(f'<text x="{_PAD}" y="{_H-_PAD+20}" font-size="11">{x.min():.6g}</text>')
    parts.append(f'<text x="{_W-_PAD-40}" y="{_H-_PAD+20}" font-size="11">'
                 f'{x.max():.6g}</text>')
    parts.append(f'<text x="4" y="{_H-_PAD}" font-size="11">{y.min():.6g}</text>')
    parts.append(f'<text x="4" y="{_PAD}" font-size="11">{y.max():.6g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _color(t: float) -> str:
    # three-stop map: dark blue -> pale yellow -> dark red
    stops = [(20, 40, 120), (245, 240, 180), (150, 20, 30)]
    if t <= 0.5:
        a, b, frac = stops[0], stops[1], 2 * t
    else:
        a, b, frac = stops[1], stops[2], 2 * t - 1
    rgb = tuple(int(round(ai + (bi - ai) * frac)) for ai, bi in zip(a, b))
    return "#%02x%02x%02x" % rgb


def _heat_svg(field: GridFunction) -> str:
    n = field.grid.cells_per_dim
    vals = field.values.reshape(n, n)
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo or 1.0
    side = min(_W, _H) - 2 * _PAD
    cell = side / n
    parts = _svg_header()
    for i in range(n):
        for j in range(n):
            t = (vals[i, j] - lo) / span
            x = _PAD + i * cell
            y = _H - _PAD - (j + 1) * cell
            parts.append(f'<rect x="{x:.6g}" y="{y:.6g}" width="{cell:.6g}" '
                         f'height="{cell:.6g}" fill="{_color(t)}"/>')
    parts.append(f'<text x="{_PAD}" y="{_H-_PAD+20}" font-size="11">'
                 f'range [{lo:.6g}, {hi:.6g}]</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plot(data, path) -> None:
    """Write an SVG figure plus a CSV of the raw data.

    Accepts a 1-d GridFunction or StepFunction (line plot), a 2-d
    GridFunction (heat map), or an (x, y) series pair.  Empty data is
    rejected.
    """
    path = os.fspath(path)
    csv_path = os.path.splitext(path)[0] + ".csv"
    if isinstance(data, StepFunction):
        if data.levels.size == 0:
            raise DomainError("cannot plot an empty step function")
        x, y = data.breakpoints[1:], data.levels
        svg = _line_svg(np.asarray(x), np.asarray(y))
        write_step_function(data, csv_path)
    elif isinstance(data, GridFunction):
        if data.grid.dim == 1:
            svg = _line_svg(data.grid.centers[:, 0], data.values)
        else:
            svg = _heat_svg(data)
        write_grid_function(data, csv_path)
    else:
        x, y = data
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if x.size == 0 or x.size != y.size:
            raise DomainError("series must be non-empty with matching lengths")
        svg = _line_svg(x, y)
        write_series(x, y, csv_path)
    with open(path, "w") as fh:
        fh.write(svg + "\n")
