"""Shared test fixtures and independent reference implementations.

The helpers here deliberately avoid the package's own operator kernels
wherever they serve as oracles: the dense projection reference builds
its constraint matrices by explicit row stuffing and solves the QP with
a general-purpose interior-point method, and the divergence-free field
factories construct exactness from stream functions / vector
potentials rather than from the solver's projection.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import LinearConstraint, NonlinearConstraint, lsq_linear, minimize

from biofilmflow import operators as ops
from biofilmflow.constitutive import ModelParams
from biofilmflow.grid import Grid, VectorField, build_grid


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def params():
    return ModelParams()


@pytest.fixture
def grid16():
    return build_grid(2, (1.0, 1.0), (16, 16), ("left",))


@pytest.fixture
def grid16_walls():
    # test-only all-wall grid: conservative boundary everywhere
    return Grid((1.0, 1.0), (16, 16))


def make_rng(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# exactly divergence-free random fields
# ---------------------------------------------------------------------------

def stream_field_2d(grid, rng, amplitude=1.0, smooth=True):
    """Random 2D velocity from a node stream function.

    psi sits at grid nodes and vanishes on the boundary ring, so the
    face field (dpsi/dy, -dpsi/dx) has zero boundary faces and its
    discrete divergence telescopes to zero identically.
    """
    nx, ny = grid.cells
    hx, hy = grid.h
    psi = np.zeros((nx + 1, ny + 1))
    psi[1:-1, 1:-1] = rng.standard_normal((nx - 1, ny - 1))
    if smooth:
        for _ in range(2):
            psi[1:-1, 1:-1] = 0.25 * (
                psi[:-2, 1:-1] + psi[2:, 1:-1] + psi[1:-1, :-2] + psi[1:-1, 2:]
            )
    vx = (psi[:, 1:] - psi[:, :-1]) / hy
    vy = -(psi[1:, :] - psi[:-1, :]) / hx
    scale = max(np.abs(vx).max(), np.abs(vy).max(), 1e-30)
    f = amplitude / scale
    return VectorField(grid, (f * vx, f * vy))


def potential_field_3d(grid, rng, amplitude=1.0):
    """Random 3D velocity as the discrete curl of an edge potential.

    Each potential component is zeroed on the boundary planes of its
    node-centered axes, which makes every boundary face value zero and
    keeps the face divergence exactly telescoping to zero.
    """
    nx, ny, nz = grid.cells
    hx, hy, hz = grid.h
    ax_ = np.zeros((nx, ny + 1, nz + 1))
    ay_ = np.zeros((nx + 1, ny, nz + 1))
    az_ = np.zeros((nx + 1, ny + 1, nz))
    ax_[:, 1:-1, 1:-1] = rng.standard_normal((nx, ny - 1, nz - 1))
    ay_[1:-1, :, 1:-1] = rng.standard_normal((nx - 1, ny, nz - 1))
    az_[1:-1, 1:-1, :] = rng.standard_normal((nx - 1, ny - 1, nz))
    vx = (az_[:, 1:, :] - az_[:, :-1, :]) / hy - (ay_[:, :, 1:] - ay_[:, :, :-1]) / hz
    vy = (ax_[:, :, 1:] - ax_[:, :, :-1]) / hz - (az_[1:, :, :] - az_[:-1, :, :]) / hx
    vz = (ay_[1:, :, :] - ay_[:-1, :, :]) / hx - (ax_[:, 1:, :] - ax_[:, :-1, :]) / hy
    scale = max(np.abs(vx).max(), np.abs(vy).max(), np.abs(vz).max(), 1e-30)
    f = amplitude / scale
    return VectorField(grid, (f * vx, f * vy, f * vz))


# ---------------------------------------------------------------------------
# assembled viscous operator (oracle for the sine-transform apply and solve)
# ---------------------------------------------------------------------------

def laplace_1d_nodes(n_cells, h):
    """1D negative Laplacian on the n_cells-1 interior face nodes.

    End values (the boundary faces) are Dirichlet zero and eliminated.
    """
    m = n_cells - 1
    if m <= 0:
        return sp.csr_matrix((max(m, 0), max(m, 0)))
    main = np.full(m, 2.0)
    off = np.full(m - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def component_laplacian(grid, axis):
    """Vector-Laplacian block for velocity component ``axis`` (CSR).

    Unknowns are the interior faces of that component in C order.
    Along the component's own axis the boundary faces are Dirichlet
    nodes (eliminated); along the other axes the walls act through
    ghost reflection of the tangential value.
    """
    blocks = []
    for ax in range(grid.dim):
        if ax == axis:
            blocks.append(laplace_1d_nodes(grid.cells[ax], grid.h[ax]))
        else:
            blocks.append(
                ops.laplace_1d(grid.cells[ax], grid.h[ax], "dirichlet_face", "dirichlet_face")
            )
    return ops.kron_sum(blocks)


# ---------------------------------------------------------------------------
# dense reference projection onto {div-free, zero boundary} ∩ {speed balls}
# ---------------------------------------------------------------------------

def _sl(nd, axis, s):
    out = [slice(None)] * nd
    out[axis] = s
    return tuple(out)


def face_layout(cells):
    """Flat dof layout over all face arrays: (shapes, offsets, total)."""
    shapes = []
    for ax in range(len(cells)):
        s = list(cells)
        s[ax] += 1
        shapes.append(tuple(s))
    offs = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    return shapes, offs[:-1], int(offs[-1])


def pack(comps, shapes, offs, ntot):
    z = np.zeros(ntot)
    for c, s, o in zip(comps, shapes, offs):
        z[o:o + c.size] = c.ravel()
    return z


def unpack(z, shapes, offs):
    return [z[o:o + int(np.prod(s))].reshape(s) for s, o in zip(shapes, offs)]


def build_dense_constraints(cells, h):
    """Equality rows G (boundary faces + per-cell divergence) and the
    per-cell center-averaging tensors E, all dense."""
    nd = len(cells)
    shapes, offs, ntot = face_layout(cells)
    ncell = int(np.prod(cells))
    brows = []
    for ax, (s, o) in enumerate(zip(shapes, offs)):
        idx = np.arange(int(np.prod(s))).reshape(s)
        for side in (0, -1):
            for i in idx[_sl(nd, ax, side)].ravel():
                r = np.zeros(ntot)
                r[o + i] = 1.0
                brows.append(r)
    drows = np.zeros((ncell, ntot))
    cidx = np.arange(ncell).reshape(cells)
    for ax, (s, o) in enumerate(zip(shapes, offs)):
        fidx = np.arange(int(np.prod(s))).reshape(s)
        lo = fidx[_sl(nd, ax, slice(None, -1))].ravel()
        hi = fidx[_sl(nd, ax, slice(1, None))].ravel()
        drows[cidx.ravel(), o + hi] += 1.0 / h[ax]
        drows[cidx.ravel(), o + lo] -= 1.0 / h[ax]
    G = np.vstack(brows + [drows])
    E = np.zeros((ncell, nd, ntot))
    for ax, (s, o) in enumerate(zip(shapes, offs)):
        fidx = np.arange(int(np.prod(s))).reshape(s)
        lo = fidx[_sl(nd, ax, slice(None, -1))].ravel()
        hi = fidx[_sl(nd, ax, slice(1, None))].ravel()
        E[cidx.ravel(), ax, o + lo] += 0.5
        E[cidx.ravel(), ax, o + hi] += 0.5
    return G, E


def kkt_certificate(z, y, G, E, r, act_tol=1e-6):
    """First-order optimality residuals of a candidate projection.

    Solves the stationarity system for nonnegative ball multipliers and
    free equality multipliers in least squares; small `stat`, `eq`,
    `ineq` together certify z as the metric projection of y.
    """
    ncell, nd, ntot = E.shape
    E2 = E.reshape(ncell * nd, ntot)
    m = (E2 @ z).reshape(ncell, nd)
    speed = np.linalg.norm(m, axis=1)
    grad = z - y
    acells = np.flatnonzero(speed >= r - act_tol)
    neq = G.shape[0]
    cols = [G.T] + [((m[c] / max(speed[c], 1e-300)) @ E[c])[:, None] for c in acells]
    M = np.hstack(cols)
    lb = np.full(M.shape[1], -np.inf)
    lb[neq:] = 0.0
    res = lsq_linear(M, -grad, bounds=(lb, np.full(M.shape[1], np.inf)),
                     tol=1e-15, lsmr_tol=1e-15, max_iter=1000)
    coef = res.x
    return {
        "stat": float(np.abs(grad + M @ coef).max()),
        "eq": float(np.abs(G @ z).max()),
        "ineq": float((speed - r).max()),
    }


def dense_projection_reference(comps, obs, h, starts=("zero", "input", "half")):
    """Reference metric projection by a dense constrained QP solve.

    Multi-start interior-point minimization of ||z - y||^2 subject to
    the stacked equality rows and the per-cell quadratic speed caps;
    the best KKT-certified candidate wins. Only viable on tiny grids.
    """
    cells = obs.shape
    nd = len(cells)
    shapes, offs, ntot = face_layout(cells)
    G, E = build_dense_constraints(cells, h)
    G = G[:-1]  # divergence rows sum to zero: drop one to keep full rank
    y = pack(comps, shapes, offs, ntot)
    r = obs.ravel()
    ncell = r.size
    E2 = E.reshape(ncell * nd, ntot)
    nlc = NonlinearConstraint(
        lambda z: np.sum((E2 @ z).reshape(ncell, nd) ** 2, axis=1), -np.inf, r**2,
        jac=lambda z: 2.0 * np.einsum("cd,cdn->cn", (E2 @ z).reshape(ncell, nd), E),
        hess=lambda z, v: 2.0 * np.einsum("c,cdn,cdm->nm", v, E, E),
    )
    lc = LinearConstraint(G, 0.0, 0.0)
    best = None
    for start in starts:
        x0 = {"zero": np.zeros(ntot), "input": y.copy(), "half": 0.5 * y}[start]
        res = minimize(
            lambda z: 0.5 * np.sum((z - y) ** 2), x0,
            jac=lambda z: z - y, hess=lambda z: np.eye(ntot),
            method="trust-constr", constraints=[lc, nlc],
            options={"gtol": 1e-13, "xtol": 1e-16, "barrier_tol": 1e-14,
                     "maxiter": 5000},
        )
        z = res.x
        cert = kkt_certificate(z, y, G, E, r)
        score = max(cert["stat"], cert["eq"], cert["ineq"])
        if best is None or score < best[2]:
            best = (z, cert, score)
        if score <= 1e-8:
            break
    z, cert, score = best
    return unpack(z, shapes, offs), cert
