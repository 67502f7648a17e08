"""Diagnostics CSV writer and VTK legacy snapshot writer.

The CSV schema is fixed at 16 columns; floats are printed with 17
significant digits so a reread reproduces the binary values exactly.
Snapshots use the legacy ASCII STRUCTURED_POINTS dataset, one file per
field per snapshot step, cell data only; vectors are interpolated to
cell centers and always carry three components (z = 0 in 2D).
"""

from __future__ import annotations

import os

import numpy as np

from . import operators as ops
from .diagnostics import CSV_COLUMNS

_INT_COLUMNS = {"step", "picard_iters"}


def _format_value(name, value):
    if name in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


class SeriesWriter:
    """Streaming CSV writer, flushed per row so aborts keep the prefix."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(CSV_COLUMNS) + "\n")
        self._fh.flush()

    def write_row(self, diag):
        vals = [_format_value(c, getattr(diag, c)) for c in CSV_COLUMNS]
        self._fh.write(",".join(vals) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _vtk_header(fh, title, grid):
    nd = grid.dim
    dims = [n + 1 for n in grid.cells] + [1] * (3 - nd)
    spacing = list(grid.h) + [1.0] * (3 - nd)
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write(title + "\n")
    fh.write("ASCII\n")
    fh.write("DATASET STRUCTURED_POINTS\n")
    fh.write("DIMENSIONS {} {} {}\n".format(*dims))
    fh.write("ORIGIN 0 0 0\n")
    fh.write("SPACING {} {} {}\n".format(*(format(s, ".17g") for s in spacing)))
    fh.write(f"CELL_DATA {int(np.prod(grid.cells))}\n")


def _write_cell_scalars(path, name, grid, values, step):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _vtk_header(fh, f"{name} at step {step}", grid)
        fh.write(f"SCALARS {name} double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        fh.write("".join(map("{:.17g}\n".format, values.ravel(order="F").tolist())))


def _write_cell_vectors(path, name, grid, centered, step):
    ncell = int(np.prod(grid.cells))
    cols = [c.ravel(order="F").tolist() for c in centered]
    cols += [[0.0] * ncell] * (3 - grid.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _vtk_header(fh, f"{name} at step {step}", grid)
        fh.write(f"VECTORS {name} double\n")
        fh.write("".join(map("{:.17g} {:.17g} {:.17g}\n".format, *cols)))


def write_snapshot(state, grid, out_dir, step, fields, obstacle=None):
    """Write the requested fields of a state; returns the paths."""
    paths = []
    for field in fields:
        path = os.path.join(out_dir, f"{field}_{step:06d}.vtk")
        if field in ("u", "w", "P"):
            _write_cell_scalars(path, field, grid, getattr(state, field).values, step)
        elif field == "obstacle":
            if obstacle is None:
                raise ValueError("snapshot of the obstacle requested but none supplied")
            _write_cell_scalars(path, "obstacle", grid, obstacle.values, step)
        elif field == "v":
            centered = ops.center_average(state.v.comps)
            _write_cell_vectors(path, "velocity", grid, centered, step)
        else:
            raise ValueError(f"unknown snapshot field {field!r}")
        paths.append(path)
    return paths
