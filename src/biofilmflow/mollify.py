"""Discrete mollifier, boundary cutoff, and zero-extended convolution.

The kernel is a plain stencil array: the scaled bump exp(-1/(1 - |x/r|^2))
sampled at cell-offset positions, times the cell volume, renormalized so
the *discrete* weights sum to exactly 1; the continuous normalizer would
not give that, and constant preservation away from the boundary is the
property everything else leans on. A single-entry stencil is the
identity. Fields are extended by zero outside the box before convolving,
so cells near the boundary lose mass by design. The convolution is an
``operators.Stencil`` built once per (radius, grid) and shared by every
solver; each cell sums the taps in the order scipy.ndimage.correlate
does, so the result equals ndimage's bit for bit. The boundary cutoff is
a read-only cell array, likewise built once per (grid, mu).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .operators import Stencil


def build_kernel(radius, grid):
    """Dimensionless mollifier stencil for the grid spacing; sums to 1.

    A radius below the largest axis spacing cannot reach any neighbor,
    so it degrades to the identity stencil (single cell, weight 1)
    rather than erroring; refinement studies may sweep the radius
    across the grid scale.
    """
    radius = float(radius)
    if radius <= 0:
        raise ConfigError("mollifier radius must be positive")
    h = grid.h
    if radius < max(h):
        return np.ones((1,) * grid.dim)

    half = [int(math.floor(radius / h[ax])) for ax in range(grid.dim)]
    axes = [np.arange(-m, m + 1) * h[ax] for ax, m in enumerate(half)]
    r2 = sum(coord**2 for coord in np.meshgrid(*axes, indexing="ij"))
    w = np.zeros_like(r2)
    inside = r2 < radius**2
    # scaled bump exp(-1/(1 - |x/radius|^2)): center weight e^-1 at every
    # radius, so the samples never underflow collectively
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside] / radius**2))
    vol = grid.cell_volume
    raw_sum = float(w.sum() * vol)
    if not raw_sum > 0.0:
        raise ConfigError(
            f"mollifier kernel of radius {radius:g} collapsed to zero weights"
        )
    return w / raw_sum * vol


@lru_cache(maxsize=16)
def mollifier(radius, grid):
    """``correlation_stencil`` of ``build_kernel(radius, grid)``, built
    once per (radius, grid) and shared by the solvers."""
    return correlation_stencil(build_kernel(radius, grid), grid.cells)


def correlation_stencil(w, cells):
    """Zero-extended correlation of cell arrays with the stencil w (odd
    extent per axis) as a ``Stencil``.

    For the symmetric mollifier kernels correlation and convolution
    agree. The taps run in kernel C order, scipy.ndimage.correlate's
    order, and like ndimage it drops taps with |w| <= DBL_EPSILON, which
    keeps the result bit for bit equal to ndimage's mode="constant".
    """
    taps = np.argwhere(np.abs(w) > np.finfo(float).eps)  # C order
    offsets = taps - (np.array(w.shape) - 1) // 2
    return Stencil(cells, zip(offsets, w[tuple(taps.T)].tolist()))


def mollify_array(values, smoother):
    """Zero-extended discrete convolution of a cell array by a ``mollifier``
    stencil, as a new array; preserves the [min(0, min f), max f] range."""
    return smoother(values)


def smoothstep(t):
    """C^1 ramp 3t^2 - 2t^3 on [0,1], clamped outside."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@lru_cache(maxsize=16)
def build_cutoff(grid, mu):
    """Per-cell cutoff array: 0 within mu/2 of gamma0, 1 beyond mu.

    Distance is measured from cell centers to the gamma0 face set; with
    an empty gamma0 the cutoff is identically 1. Built once per (grid,
    mu) and shared read-only by the solvers.
    """
    mu = float(mu)
    if mu <= 0:
        raise ConfigError("cutoff width mu must be positive")
    dist = grid.gamma0_distance()
    vals = np.ones(grid.cells)
    finite = np.isfinite(dist)
    if np.any(finite):
        t = (dist - 0.5 * mu) / (0.5 * mu)
        vals = np.where(finite, smoothstep(t), 1.0)
    vals.setflags(write=False)
    return vals
