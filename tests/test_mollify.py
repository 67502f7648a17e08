import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from biofilmflow.constitutive import ModelParams
from biofilmflow.errors import ConfigError
from biofilmflow.grid import Grid, build_grid
from biofilmflow.mollify import (
    build_cutoff,
    build_kernel,
    mollifier,
    mollify_array,
    smoothstep,
)


def test_subgrid_radius_identity_kernel():
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    k = build_kernel(0.4 * max(g.h), g)
    assert k.shape == (1, 1)
    assert k[0, 0] == 1.0


def test_kernel_normalization():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    for radius in (0.035, 0.06, 0.125, 0.5):
        k = build_kernel(radius, g)
        assert abs(k.sum() - 1.0) < 1e-14


def test_kernel_tiny_radius_does_not_underflow():
    # sharp kernels used to collapse: all samples of the unscaled bump
    # underflow below radius ~ 0.04, which must not happen
    g = build_grid(2, (1.0, 1.0), (64, 64), ("left",))
    k = build_kernel(0.02, g)
    assert np.isfinite(k).all()
    assert k.sum() == pytest.approx(1.0, abs=1e-14)


def test_kernel_symmetry_and_support():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    radius = 0.1
    w = build_kernel(radius, g)
    assert np.allclose(w, w[::-1, :]) and np.allclose(w, w[:, ::-1])
    assert (w >= 0).all()
    # offsets at or beyond the radius carry zero weight
    half = [(n - 1) // 2 for n in w.shape]
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            r2 = ((i - half[0]) * g.h[0]) ** 2 + ((j - half[1]) * g.h[1]) ** 2
            if r2 >= radius**2:
                assert w[i, j] == 0.0


def test_kernel_radial_symmetry_anisotropic_offsets():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    w = build_kernel(0.12, g)
    # same |offset| one axis apart must give the same weight (square cells)
    half = (np.array(w.shape) - 1) // 2
    assert w[half[0] + 1, half[1]] == pytest.approx(w[half[0], half[1] + 1], rel=1e-12)


def test_nonpositive_radius_rejected():
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    with pytest.raises(ConfigError):
        build_kernel(0.0, g)
    with pytest.raises(ConfigError):
        build_kernel(-0.1, g)


def test_constant_preserved_in_interior():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    radius = 0.1
    out = mollify_array(np.full(g.cells, 0.7), mollifier(radius, g))
    # cells farther than the radius from the boundary see the full kernel
    xc, yc = np.meshgrid(g.cell_centers(0), g.cell_centers(1), indexing="ij")
    interior = (
        (xc > radius) & (xc < 1 - radius) & (yc > radius) & (yc < 1 - radius)
    )
    assert np.abs(out[interior] - 0.7).max() < 1e-12


def test_zero_extension_loses_mass_at_boundary():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    out = mollify_array(np.ones(g.cells), mollifier(0.1, g))
    edge = out[0, :]  # cells hugging x=0
    assert (edge > 0).all() and (edge < 1.0 - 1e-6).all()


def test_spike_reproduces_kernel_weights():
    g = build_grid(2, (1.0, 1.0), (33, 33), ("left",))
    k = build_kernel(0.1, g)
    vals = np.zeros(g.cells)
    c = 16
    vals[c, c] = 1.0
    out = mollify_array(vals, mollifier(0.1, g))
    half = [(n - 1) // 2 for n in k.shape]
    block = out[c - half[0]: c + half[0] + 1, c - half[1]: c + half[1] + 1]
    assert np.allclose(block, k, atol=1e-15)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1), radius=st.floats(0.01, 0.3))
def test_monotone_and_bound_preserving(seed, radius):
    g = Grid((1.0, 1.0), (12, 12))
    rng = np.random.default_rng(seed)
    k = mollifier(radius, g)
    f = rng.uniform(0.0, 2.0, g.cells)
    gfield = f + rng.uniform(0.0, 1.0, g.cells)
    mf, mg = mollify_array(f, k), mollify_array(gfield, k)
    assert (mf <= mg + 1e-12).all()
    assert mf.min() >= -1e-13 and mf.max() <= 2.0 + 1e-12


def test_mollify_linear_in_field():
    g = Grid((1.0, 1.0), (10, 10))
    rng = np.random.default_rng(5)
    k = mollifier(0.15, g)
    a, b = rng.standard_normal(g.cells), rng.standard_normal(g.cells)
    lhs = mollify_array(2.5 * a - 1.25 * b, k)
    rhs = 2.5 * mollify_array(a, k) - 1.25 * mollify_array(b, k)
    assert np.allclose(lhs, rhs, atol=1e-13)


_MU, _EPS = ModelParams().mu, ModelParams().eps


@pytest.mark.parametrize(
    "extents, cells, radius",
    [
        ((1.0, 1.0), (64, 64), _MU),
        ((1.0, 1.0), (64, 64), _EPS),
        ((1.0, 1.0), (64, 64), 0.1),
        ((1.0, 1.0, 1.0), (24, 24, 24), _EPS),
        ((1.0, 1.0, 1.0), (24, 24, 24), 0.1),
        ((1.5, 1.0), (48, 32), _MU),
        ((1.5, 1.0), (48, 32), _EPS),
        ((1.0, 0.5), (40, 32), _EPS),
        ((1.0, 0.6, 0.75), (16, 12, 12), 0.1),
        # thin and odd boxes, some one cell thick along an axis
        ((1.0, 0.7), (17, 9), 0.3),
        ((0.2, 0.02), (12, 1), _MU),
        ((0.02, 0.2), (1, 5), _EPS),
        ((1.0, 0.8, 0.9), (5, 6, 7), 0.3),
        ((0.4, 0.1, 0.3), (4, 1, 3), 0.3),
    ],
)
def test_mollify_equals_ndimage_correlate_bit_for_bit(extents, cells, radius):
    g = Grid(extents, cells)
    k = build_kernel(radius, g)
    assert k.size > 1
    f = np.random.default_rng(len(cells)).uniform(-1.0, 2.0, g.cells)
    ref = ndimage.correlate(f, k, mode="constant", cval=0.0)
    assert mollify_array(f, mollifier(radius, g)).tobytes() == ref.tobytes()


def test_mollifier_drops_sub_epsilon_taps():
    # radius 0.1 on 64^2 has rim weights below DBL_EPSILON, which ndimage
    # skips; a product that kept them would differ in some cells
    g = Grid((1.0, 1.0), (64, 64))
    k = build_kernel(0.1, g)
    kept = np.abs(k) > np.finfo(float).eps
    assert np.count_nonzero(k) > np.count_nonzero(kept)
    op = mollifier(0.1, g)
    assert isinstance(op.taps, tuple)
    assert all(isinstance(w, float) for _, w in op.taps)
    assert len(op.taps) == np.count_nonzero(kept)
    # the centre cell sums exactly the kept taps, in kernel C order
    f = np.random.default_rng(3).standard_normal(g.cells)
    m = (np.array(k.shape) - 1) // 2
    acc = None
    for t in np.argwhere(kept):
        term = k[tuple(t)] * f[tuple(t - m + 32)]
        acc = term if acc is None else acc + term
    assert mollify_array(f, op)[32, 32] == acc


def test_identity_stencil_returns_a_copy():
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    f = np.random.default_rng(3).standard_normal(g.cells)
    out = mollify_array(f, mollifier(0.4 * max(g.h), g))
    assert out is not f and not np.shares_memory(out, f)
    assert np.array_equal(out, f)


# --- boundary cutoff ---------------------------------------------------------

def test_cutoff_zero_on_gamma0_adjacent():
    g = build_grid(2, (1.0, 1.0), (64, 64), ("left",))
    mu = 0.1
    c = build_cutoff(g, mu)
    dist = g.gamma0_distance()
    assert (c[dist <= mu / 2] == 0.0).all()
    assert (c[dist >= mu] == 1.0).all()
    assert ((c >= 0) & (c <= 1)).all()


def test_cutoff_smoothstep_midpoint():
    # at distance 3mu/4 the ramp argument is 1/2, so the value is exactly 0.5
    g = build_grid(2, (1.0, 1.0), (64, 64), ("left",))
    # centers sit at (i+0.5)h; want (i+0.5)h = 3mu/4 -> mu = (i+0.5)h*4/3
    mu = (1 + 0.5) * g.h[0] * 4.0 / 3.0
    c = build_cutoff(g, mu)
    assert c[1, 7] == pytest.approx(smoothstep(0.5), abs=1e-14)
    assert smoothstep(0.5) == 0.5


def test_cutoff_monotone_in_distance():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    c = build_cutoff(g, 0.2)
    col = c[:, 16]
    assert (np.diff(col) >= -1e-15).all()


def test_cutoff_tends_to_one_as_mu_shrinks():
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    cell = (16, 16)
    dist = g.gamma0_distance()[cell]
    assert build_cutoff(g, 0.9 * dist)[cell] == 1.0
    assert build_cutoff(g, 2.5 * dist)[cell] < 1.0


def test_cutoff_built_once_per_grid_and_mu_and_read_only():
    # the flow and biomass workspaces and the initial-data check share it
    c = build_cutoff(build_grid(2, (1.0, 1.0), (32, 32), ("left",)), 0.2)
    assert build_cutoff(build_grid(2, (1.0, 1.0), (32, 32), ("left",)), 0.2) is c
    assert not c.flags.writeable


def test_cutoff_all_walls_identity():
    g = Grid((1.0, 1.0), (8, 8))
    assert (build_cutoff(g, 0.1) == 1.0).all()
