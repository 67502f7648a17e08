"""Checks of the discrete operator kernels against dense references."""

import numpy as np
import pytest

from biofilmflow import operators as ops
from biofilmflow.grid import Grid, build_grid

from conftest import component_laplacian, stream_field_2d, potential_field_3d


def _rand_faces(grid, rng):
    return [rng.standard_normal(grid.face_shape(ax)) for ax in range(grid.dim)]


def test_divergence_of_stream_field_is_zero():
    g = Grid((1.0, 1.0), (12, 9))
    rng = np.random.default_rng(3)
    v = stream_field_2d(g, rng, amplitude=2.0)
    assert np.abs(ops.divergence(list(v.comps), g.h)).max() < 1e-13


def test_divergence_of_potential_field_3d_is_zero():
    g = Grid((1.0, 1.0, 1.0), (6, 5, 4))
    rng = np.random.default_rng(4)
    v = potential_field_3d(g, rng, amplitude=1.0)
    assert np.abs(ops.divergence(list(v.comps), g.h)).max() < 1e-13


def test_gradient_divergence_adjoint():
    # <grad phi, v> = -<phi, div v> for v with zero boundary faces
    g = Grid((1.0, 2.0), (8, 6))
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(g.cells)
    v = _rand_faces(g, rng)
    for ax, c in enumerate(v):
        c[ops.axslice(2, ax, 0)] = 0.0
        c[ops.axslice(2, ax, -1)] = 0.0
    grad = ops.gradient_faces(phi, g.h)
    lhs = sum(float(np.sum(gc * vc)) for gc, vc in zip(grad, v)) * g.cell_volume
    rhs = -float(np.sum(phi * ops.divergence(v, g.h))) * g.cell_volume
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_poisson_neumann_against_dense_solve():
    g = Grid((1.0, 1.5), (6, 5))
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(g.cells)
    rhs -= rhs.mean()  # compatibility
    phi = ops.poisson_neumann(rhs, g.h)
    # dense no-flux Laplacian built independently from 1D stencils
    def lap1(n, h):
        A = np.zeros((n, n))
        for i in range(n):
            if i > 0:
                A[i, i] += 1.0 / h**2
                A[i, i - 1] -= 1.0 / h**2
            if i < n - 1:
                A[i, i] += 1.0 / h**2
                A[i, i + 1] -= 1.0 / h**2
        return A
    nx, ny = g.cells
    A = np.kron(lap1(nx, g.h[0]), np.eye(ny)) + np.kron(np.eye(nx), lap1(ny, g.h[1]))
    # lap1 assembles the negative of the divergence-form operator, so flip
    # the data; pin the mean to fix the nullspace
    K = np.vstack([A, np.ones((1, nx * ny))])
    b = np.concatenate([-rhs.ravel(), [0.0]])
    ref, *_ = np.linalg.lstsq(K, b, rcond=None)
    assert np.abs(phi.ravel() - ref).max() < 1e-10
    assert abs(phi.mean()) < 1e-13
    # and the matching matrix-free apply reproduces the rhs
    assert np.abs(ops.neumann_laplacian_apply(phi, g.h) - rhs).max() < 1e-10


def test_upwind_divergence_conservative():
    g = Grid((1.0, 1.0), (10, 10))
    rng = np.random.default_rng(7)
    c = rng.uniform(0.0, 1.0, g.cells)
    v = stream_field_2d(g, rng, amplitude=1.0)
    flux = ops.upwind_flux_divergence(c, list(v.comps), g.h)
    assert abs(flux.sum() * g.cell_volume) < 1e-14


def test_upwind_picks_upstream_value():
    g = Grid((1.0, 1.0), (4, 1))
    c = np.array([[1.0], [2.0], [3.0], [4.0]])
    vx = np.zeros(g.face_shape(0))
    vx[2, 0] = 1.0  # single face between cells 1 and 2, positive flow
    out = ops.upwind_flux_divergence(c, [vx, np.zeros(g.face_shape(1))], g.h)
    # positive velocity carries the upstream (cell 1) value c=2
    assert out[1, 0] == pytest.approx(2.0 / g.h[0])
    assert out[2, 0] == pytest.approx(-2.0 / g.h[0])


def test_centered_divergence_skew():
    g = Grid((1.0, 1.0), (16, 16))
    rng = np.random.default_rng(8)
    w = rng.standard_normal(g.cells)
    v = stream_field_2d(g, rng, amplitude=1.0)
    flux = ops.centered_flux_divergence(w, list(v.comps), g.h)
    val = float(np.sum(flux * w)) * g.cell_volume
    assert abs(val) < 1e-13 * np.sum(w * w) * g.cell_volume / min(g.h)


def test_component_laplacian_symmetric_positive():
    g = Grid((1.0, 1.0), (6, 5))
    for ax in range(2):
        A = component_laplacian(g, ax).toarray()
        assert np.allclose(A, A.T)
        eig = np.linalg.eigvalsh(A)
        assert eig.min() > 0  # Dirichlet on own axis ends makes it definite


def test_scalar_laplacian_gamma0_dirichlet_row():
    g = build_grid(2, (1.0, 1.0), (4, 4), ("left",))
    A = ops.scalar_laplacian_gamma0(g).toarray()
    assert np.allclose(A, A.T)
    # constant field: only the gamma0-adjacent cells feel the pinned face
    c = np.ones(16)
    r = (A @ c).reshape(4, 4)
    assert np.abs(r[1:, :]).max() < 1e-14
    assert (r[0, :] > 0).all()


def test_mac_advection_skew_2d_anisotropic():
    g = Grid((2.0, 1.0), (12, 18))
    rng = np.random.default_rng(9)
    a = stream_field_2d(g, rng, amplitude=1.5)
    b = _rand_faces(g, rng)
    for ax, c in enumerate(b):
        c[ops.axslice(2, ax, 0)] = 0.0
        c[ops.axslice(2, ax, -1)] = 0.0
    adv = ops.mac_advection(list(a.comps), b, g.h)
    val = ops.face_dot(adv, b, g.cell_volume)
    scale = ops.face_l2_sq(b, g.cell_volume) * max(np.abs(c).max() for c in a.comps)
    assert abs(val) < 1e-14 * scale / min(g.h)


def test_mac_advection_skew_3d():
    g = Grid((1.0, 1.0, 1.0), (6, 6, 6))
    rng = np.random.default_rng(10)
    a = potential_field_3d(g, rng, amplitude=1.0)
    b = _rand_faces(g, rng)
    for ax, c in enumerate(b):
        c[ops.axslice(3, ax, 0)] = 0.0
        c[ops.axslice(3, ax, -1)] = 0.0
    adv = ops.mac_advection(list(a.comps), b, g.h)
    val = ops.face_dot(adv, b, g.cell_volume)
    scale = ops.face_l2_sq(b, g.cell_volume) / min(g.h)
    assert abs(val) < 1e-13 * scale


def test_interior_embed_roundtrip():
    g = Grid((1.0, 1.0), (5, 4))
    rng = np.random.default_rng(11)
    for ax in range(2):
        c = rng.standard_normal(g.face_shape(ax))
        inner = ops.interior_faces(c, ax)
        back = ops.embed_interior(inner, g, ax)
        assert np.allclose(ops.interior_faces(back, ax), inner)
        assert (back[ops.axslice(2, ax, 0)] == 0).all()
        assert (back[ops.axslice(2, ax, -1)] == 0).all()


def test_norm_helpers():
    g = Grid((1.0, 1.0), (4, 4))
    vals = np.full(g.cells, 2.0)
    assert ops.scalar_l2_sq(vals, g.cell_volume) == pytest.approx(4.0)
    assert ops.scalar_mass(vals, g.cell_volume) == pytest.approx(2.0)
    comps = [np.ones(g.face_shape(0)), np.zeros(g.face_shape(1))]
    assert ops.face_l2_sq(comps, g.cell_volume) == pytest.approx(
        g.face_shape(0)[0] * g.face_shape(0)[1] * g.cell_volume
    )


def test_poisson_neumann_eigenvalue_cache_stays_fixed():
    # the eigenvalues are built once per (shape, h) and shared: a solve
    # must neither write into them nor depend on an earlier call
    g = Grid((1.0, 2.0), (6, 5))
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal(g.cells)
    first = ops.poisson_neumann(rhs, g.h)
    lam = ops._neumann_eigenvalues(g.cells, g.h)
    assert not lam.flags.writeable
    before = lam.copy()
    ops.poisson_neumann(rng.standard_normal(g.cells), g.h)
    assert np.array_equal(lam, before)
    assert ops.poisson_neumann(rhs, list(g.h)).tobytes() == first.tobytes()


@pytest.mark.parametrize("cells", [(5, 7), (3, 4, 5)])
def test_interp_centers_adjoint_is_the_transpose(cells):
    rng = np.random.default_rng(12)
    nd = len(cells)
    comps = []
    for ax in range(nd):
        shape = list(cells)
        shape[ax] += 1
        comps.append(rng.standard_normal(shape))
    m = rng.standard_normal((*cells, nd))
    lhs = np.sum(ops.interp_centers(comps) * m)
    rhs = sum(np.sum(c * f) for c, f in zip(comps, ops.interp_centers_adjoint(m)))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
