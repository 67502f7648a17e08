"""Axis-aligned box grid with MAC staggering.

Scalars (biomass, nutrient, pressure) live at cell centers; each
velocity component lives on the faces normal to its axis, so component
``ax`` has shape ``cells`` except ``cells[ax]+1`` along ``ax``. The
same index arithmetic serves 2D and 3D.

Part of the boundary is tagged ``gamma0``: the biomass is pinned to
zero there and the boundary cutoff field ramps down towards it. The
rest of the boundary is ``wall`` (zero-flux for the scalars). gamma0
is restricted to unions of whole box edges so that the distance from a
cell center to the gamma0 set is an exact coordinate difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# edge naming per axis: (low side, high side)
_EDGE_PAIRS = (("left", "right"), ("bottom", "top"), ("back", "front"))


def edge_names(dim):
    """All boundary edge names of a dim-dimensional box, axis by axis."""
    names = []
    for ax in range(dim):
        names.extend(_EDGE_PAIRS[ax])
    return tuple(names)


def edge_axis_side(name, dim):
    """Map an edge name to (axis, side) with side 0 = low, 1 = high."""
    for ax in range(dim):
        lo, hi = _EDGE_PAIRS[ax]
        if name == lo:
            return ax, 0
        if name == hi:
            return ax, 1
    raise ConfigError(f"unknown boundary edge {name!r} for a {dim}D grid")


@dataclass(frozen=True)
class Grid:
    """Immutable structured grid.

    gamma0_edges may be empty; that is a test-only configuration (all
    walls, conservative) which build_grid refuses for real runs.
    """

    extents: tuple
    cells: tuple
    gamma0_edges: frozenset = frozenset()

    def __post_init__(self):
        extents = tuple(float(e) for e in self.extents)
        cells = tuple(int(c) for c in self.cells)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "gamma0_edges", frozenset(self.gamma0_edges))
        if len(extents) != len(cells):
            raise ConfigError("extents and cells must have equal length")
        if len(cells) not in (2, 3):
            raise ConfigError("grid must be 2D or 3D")
        if any(c < 1 for c in cells):
            raise ConfigError("cell counts must be >= 1")
        # the operators divide by h^2: h^2 and 1/h^2 must be finite and
        # positive (nan and inf fail the comparisons)
        for e, c in zip(extents, cells):
            hh = (e / c) * (e / c)
            if not (e > 0 and 0 < hh < math.inf and 1 / hh < math.inf):
                raise ConfigError(
                    f"extents must be finite and positive, with 1/h^2 a finite "
                    f"positive float on {cells} cells; got {extents}"
                )
        for name in self.gamma0_edges:
            edge_axis_side(name, len(cells))

    @property
    def dim(self):
        return len(self.cells)

    @property
    def h(self):
        return tuple(e / c for e, c in zip(self.extents, self.cells))

    @property
    def cell_volume(self):
        return math.prod(self.h)

    def cell_centers(self, axis):
        n = self.cells[axis]
        return (np.arange(n) + 0.5) * self.h[axis]

    def center_mesh(self):
        """Cell-center coordinates, broadcastable to the cell shape."""
        out = []
        for ax in range(self.dim):
            shape = [1] * self.dim
            shape[ax] = self.cells[ax]
            out.append(self.cell_centers(ax).reshape(shape))
        return out

    def face_shape(self, axis):
        s = list(self.cells)
        s[axis] += 1
        return tuple(s)

    def gamma0_distance(self):
        """Per-cell distance to the gamma0 boundary set (inf if empty).

        Exact because gamma0 edges are whole box faces: the nearest
        point is the perpendicular foot, so the distance is a single
        coordinate difference.
        """
        dist = np.full(self.cells, np.inf)
        mesh = self.center_mesh()
        for name in self.gamma0_edges:
            ax, side = edge_axis_side(name, self.dim)
            coord = mesh[ax]
            d = coord if side == 0 else self.extents[ax] - coord
            dist = np.minimum(dist, np.broadcast_to(d, self.cells))
        return dist


def build_grid(dim, extents, cells, gamma0_edges):
    """Validated grid constructor used by the config layer.

    Rejects an empty gamma0 set and a gamma0 set covering the whole
    boundary: the zero-flux part of the boundary must stay nonempty.
    """
    grid = Grid(tuple(extents), tuple(cells), frozenset(gamma0_edges))
    if grid.dim != dim:
        raise ConfigError(f"dim={dim} inconsistent with {len(cells)} axis entries")
    if not grid.gamma0_edges:
        raise ConfigError("gamma0 must select at least one boundary edge")
    if grid.gamma0_edges == set(edge_names(grid.dim)):
        raise ConfigError("gamma0 must not cover the entire boundary")
    return grid


@dataclass
class ScalarField:
    """Cell-centered scalar values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.cells:
            raise ValueError(
                f"scalar field shape {self.values.shape} != cells {self.grid.cells}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.cells))

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, np.full(grid.cells, float(c)))


@dataclass
class VectorField:
    """Face-staggered vector field (one array per axis)."""

    grid: Grid
    comps: tuple

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=float) for c in self.comps)
        object.__setattr__(self, "comps", comps)
        if len(comps) != self.grid.dim:
            raise ValueError("component count != grid dimension")
        for ax, c in enumerate(comps):
            if c.shape != self.grid.face_shape(ax):
                raise ValueError(
                    f"component {ax} shape {c.shape} != {self.grid.face_shape(ax)}"
                )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, tuple(np.zeros(grid.face_shape(ax)) for ax in range(grid.dim)))

