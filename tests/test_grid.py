import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofilmflow import operators as ops
from biofilmflow.errors import ConfigError
from biofilmflow.grid import (
    Grid,
    ScalarField,
    VectorField,
    build_grid,
    edge_names,
)


def test_spacing():
    g = build_grid(2, (1.0, 1.0), (64, 64), ("left",))
    assert g.h == (1.0 / 64, 1.0 / 64)
    assert g.cell_volume == pytest.approx(1.0 / 64**2, rel=1e-15)


def test_gamma0_whole_boundary_rejected():
    with pytest.raises(ConfigError):
        build_grid(2, (1.0, 1.0), (8, 8), ("left", "right", "bottom", "top"))


def test_gamma0_empty_rejected():
    with pytest.raises(ConfigError):
        build_grid(2, (1.0, 1.0), (8, 8), ())


def test_bare_grid_allows_all_walls():
    g = Grid((1.0, 1.0), (8, 8))
    assert np.isinf(g.gamma0_distance()).all()


def test_unknown_edge_rejected():
    with pytest.raises(ConfigError):
        build_grid(2, (1.0, 1.0), (8, 8), ("north",))
    with pytest.raises(ConfigError):
        build_grid(2, (1.0, 1.0), (8, 8), ("front",))  # 3D-only edge


def test_3d_counts():
    g = build_grid(3, (1.0, 1.0, 1.0), (4, 5, 6), ("left", "top"))
    assert g.gamma0_edges == {"left", "top"}
    assert edge_names(3) == ("left", "right", "bottom", "top", "back", "front")


def test_anisotropic_spacing():
    g = build_grid(2, (2.0, 1.0), (10, 40), ("bottom",))
    assert g.h == (0.2, 0.025)


def test_gamma0_distance_left_edge():
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    d = g.gamma0_distance()
    # distance from a cell center to the x=0 plane is its x coordinate
    assert np.allclose(d, g.center_mesh()[0] * np.ones(g.cells))


def test_interp_uniform_faces():
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    vf = VectorField(g, (np.full(g.face_shape(0), 3.0), np.full(g.face_shape(1), -1.5)))
    m = ops.interp_centers(list(vf.comps))
    assert np.allclose(m[..., 0], 3.0)
    assert np.allclose(m[..., 1], -1.5)


def test_interp_zero():
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    m = ops.interp_centers(list(VectorField.zeros(g).comps))
    assert not m.any()


def test_interp_linear_exact():
    # face data linear in the face coordinate must reproduce the same
    # linear function evaluated at the cell centers exactly
    g = build_grid(2, (1.0, 2.0), (8, 5), ("left",))
    xf = np.linspace(0.0, g.extents[0], g.cells[0] + 1)
    vx = np.broadcast_to((2.0 * xf - 0.7)[:, None], g.face_shape(0)).copy()
    yf = np.linspace(0.0, g.extents[1], g.cells[1] + 1)
    vy = np.broadcast_to((0.5 - 3.0 * yf)[None, :], g.face_shape(1)).copy()
    m = ops.interp_centers([vx, vy])
    xc = g.center_mesh()[0]
    yc = g.center_mesh()[1]
    assert np.allclose(m[..., 0], np.broadcast_to(2.0 * xc - 0.7, g.cells), atol=1e-14)
    assert np.allclose(m[..., 1], np.broadcast_to(0.5 - 3.0 * yc, g.cells), atol=1e-14)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_interp_linearity(seed, a, b):
    g = Grid((1.0, 1.0), (6, 7))
    rng = np.random.default_rng(seed)
    f = VectorField(g, tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(2)))
    k = VectorField(g, tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(2)))
    combo = VectorField(g, tuple(a * fc + b * kc for fc, kc in zip(f.comps, k.comps)))
    lhs = ops.interp_centers(list(combo.comps))
    rhs = a * ops.interp_centers(list(f.comps)) + b * ops.interp_centers(list(k.comps))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * (1 + np.abs(rhs).max()))


def test_scalar_field_shape_guard():
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 7)))
    with pytest.raises(ValueError):
        VectorField(g, (np.zeros((9, 8)), np.zeros((9, 8))))
