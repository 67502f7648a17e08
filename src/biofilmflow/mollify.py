"""Discrete mollifier, boundary cutoff, and zero-extended convolution.

The kernel is a plain stencil array: the scaled bump exp(-1/(1 - |x/r|^2))
sampled at cell-offset positions, times the cell volume, renormalized so
the *discrete* weights sum to exactly 1; the continuous normalizer would
not give that, and constant preservation away from the boundary is the
property everything else leans on. A single-entry stencil is the
identity. Fields are extended by zero outside the box before convolving,
so cells near the boundary lose mass by design. The boundary cutoff is a
plain cell array too.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .errors import ConfigError


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


def mollify_array(values, kernel):
    """Zero-extended discrete convolution of a cell array with a stencil;
    preserves the [min(0, min f), max f] range."""
    if kernel.size == 1:
        return np.array(values, dtype=float, copy=True)
    # kernel is symmetric under offset negation, so correlate == convolve
    return ndimage.correlate(
        np.asarray(values, dtype=float), kernel, mode="constant", cval=0.0
    )


def smoothstep(t):
    """C^1 ramp 3t^2 - 2t^3 on [0,1], clamped outside."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def build_cutoff(grid, mu):
    """Per-cell cutoff array: 0 within mu/2 of gamma0, 1 beyond mu.

    Distance is measured from cell centers to the gamma0 face set; with
    an empty gamma0 the cutoff is identically 1.
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
    return vals
