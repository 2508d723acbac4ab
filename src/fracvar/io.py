"""Serialization: CSV for fields and profiles, JSON for results, SVG plots.

Grid functions serialize one row per cell, coordinates first, then the
value, all printed with 17 significant digits so the float64 round-trip is
exact.  Every CSV row is one ``%`` of a row format, "%.17g" once per
column joined by commas, on the row's floats; rows are formatted and
written in chunks of ``_CHUNK_ROWS``, so no string of the whole file is
built.  Plots are small self-contained SVG files: a polyline for 1-d data,
a cell heat map for 2-d fields; the raw data always lands in a CSV next to
the figure.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Sequence

import numpy as np

from .errors import DomainError
from .grid import Grid, GridFunction
from .rearrange import StepFunction

_FMT = "%.17g"
_CHUNK_ROWS = 4096


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _write_rows(path, header: str, columns) -> None:
    """A CSV of ``columns`` under ``header``, one line per row, written
    ``_CHUNK_ROWS`` rows at a time."""
    columns = [np.asarray(c, float) for c in columns]
    row = ",".join([_FMT] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for a in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = (c[a:a + _CHUNK_ROWS].tolist() for c in columns)
            fh.write("".join([row % values for values in zip(*chunk)]))


def write_grid_function(gf: GridFunction, path) -> None:
    _write_rows(path, ",".join(["x", "y"][: gf.grid.dim] + ["value"]),
                [*gf.grid.centers.T, gf.values])


def read_grid_function(grid: Grid, path) -> GridFunction:
    """Grid function from the last column of a CSV after its header line, one
    row per cell; coordinate columns, if any, are ignored."""
    try:
        raw = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float, ndmin=2)
    except OSError as err:
        raise DomainError(f"cannot read grid-function file {path!r}: {err}") from err
    if raw.size == 0:
        raise DomainError(f"grid-function file {path!r} is empty")
    vals = raw[:, -1]
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


# three-stop map: dark blue -> pale yellow -> dark red
_STOPS = np.array([(20, 40, 120), (245, 240, 180), (150, 20, 30)], float)
_HEX = ["%02x" % v for v in range(256)]


def _colors(t: np.ndarray) -> list[str]:
    """'#rrggbb' of the colour map at each t in [0, 1]; t = 0.5 is the middle stop."""
    upper = (t > 0.5).astype(int)
    a, b = _STOPS[upper], _STOPS[upper + 1]
    frac = np.where(upper, 2 * t - 1, 2 * t)
    rgb = np.rint(a + (b - a) * frac[:, None]).astype(int)  # half to even, as round()
    return ["#" + _HEX[r] + _HEX[g] + _HEX[b] for r, g, b in rgb.tolist()]


def _heat_svg(field: GridFunction) -> str:
    n = field.grid.cells_per_dim
    vals = field.values.reshape(n, n)
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo or 1.0
    side = min(_W, _H) - 2 * _PAD
    cell = side / n
    xs = [f"{_PAD + i * cell:.6g}" for i in range(n)]
    ys = [f"{_H - _PAD - (j + 1) * cell:.6g}" for j in range(n)]
    w = f"{cell:.6g}"
    parts = _svg_header()
    parts.extend(f'<rect x="{x}" y="{y}" width="{w}" height="{w}" fill="{fill}"/>'
                 for (x, y), fill in zip(itertools.product(xs, ys),
                                         _colors(((vals - lo) / span).ravel())))
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
