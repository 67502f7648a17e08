"""Grid calculus on the staggered box: differences, transforms, stencils.

Everything here works for 2D and 3D alike by slicing along a runtime
axis. Conventions used throughout:

* velocity components carry their boundary faces; a component is zero
  on its own-axis boundary faces (no-penetration) and the wall value of
  tangential components is imposed through ghost reflection, giving the
  end coefficient 3 in the 1D viscous stencils;
* scalar no-flux boundaries simply omit boundary-face fluxes;
* a scalar Dirichlet condition sits on the face, not the cell, so the
  adjacent cell keeps its unknown and the one-sided half-spacing flux
  contributes 2/h^2 to the diagonal (end coefficient 3 again).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.fft import dctn, idctn

from .grid import edge_axis_side


def axslice(nd, axis, s):
    """Slice tuple selecting ``s`` along ``axis`` of an nd array."""
    out = [slice(None)] * nd
    out[axis] = s
    return tuple(out)


def divergence(comps, h):
    """Cell-centered divergence of face data."""
    div = None
    for ax, c in enumerate(comps):
        d = np.diff(c, axis=ax) / h[ax]
        div = d if div is None else div + d
    return div


def gradient_faces(phi, h):
    """Face-centered gradient of a cell field; boundary faces get 0."""
    nd = phi.ndim
    out = []
    for ax in range(nd):
        shape = list(phi.shape)
        shape[ax] += 1
        g = np.zeros(shape)
        g[axslice(nd, ax, slice(1, -1))] = np.diff(phi, axis=ax) / h[ax]
        out.append(g)
    return out


def scatter_faces(faces):
    """Cell sums of interior-face values: faces[ax] (the cell shape less
    one along ax) is added to each face's low cell, subtracted from its high."""
    nd = len(faces)
    shape = list(faces[0].shape)
    shape[0] += 1
    out = np.zeros(shape)
    for ax, f in enumerate(faces):
        out[axslice(nd, ax, slice(None, -1))] += f
        out[axslice(nd, ax, slice(1, None))] -= f
    return out


def interp_centers(comps):
    """Face-to-center average; shape (*cells, nd)."""
    nd = len(comps)
    cols = []
    for ax, c in enumerate(comps):
        cols.append(
            0.5 * (c[axslice(nd, ax, slice(None, -1))] + c[axslice(nd, ax, slice(1, None))])
        )
    return np.stack(cols, axis=-1)


def interp_centers_adjoint(m):
    """Transpose of ``interp_centers``: spread (*cells, nd) cell data onto
    the faces, half to each of a cell's two faces per component."""
    nd = m.shape[-1]
    out = []
    for ax in range(nd):
        half = 0.5 * m[..., ax]
        shape = list(half.shape)
        shape[ax] += 1
        f = np.zeros(shape)
        f[axslice(nd, ax, slice(None, -1))] += half
        f[axslice(nd, ax, slice(1, None))] += half
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Poisson solve with pure no-flux boundaries (cosine diagonalization)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _neumann_eigenvalues(cells, h):
    """Cosine-basis eigenvalues of the no-flux Laplacian, read-only.

    The zero eigenvalue of the constant mode is replaced by 1, so the
    solve can divide by every entry before it zeroes that mode.
    """
    lam = np.zeros(cells)
    for ax, n in enumerate(cells):
        la = (2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0) / h[ax] ** 2
        shape = [1] * len(cells)
        shape[ax] = n
        lam = lam + la.reshape(shape)
    lam.flat[0] = 1.0
    lam.setflags(write=False)
    return lam


def poisson_neumann(rhs, h):
    """Solve the 5/7-point no-flux Poisson problem; mean-zero output.

    The operator is diagonal in the type-2 cosine basis; the zero
    eigenvalue (constant mode) is projected out, which silently fixes
    any compatibility defect in the right-hand side.
    """
    coef = dctn(rhs, type=2)
    coef = coef / _neumann_eigenvalues(rhs.shape, tuple(h))
    coef.flat[0] = 0.0
    phi = idctn(coef, type=2)
    return phi - phi.mean()


def neumann_laplacian_apply(phi, h):
    """Matching 5/7-point no-flux Laplacian, for residual checks."""
    return scatter_faces([np.diff(phi, axis=ax) / h[ax] / h[ax] for ax in range(phi.ndim)])


# ---------------------------------------------------------------------------
# Advection
# ---------------------------------------------------------------------------

def mac_advection(a, b, h):
    """Flux-form advection of face field b by face field a.

    Component j gets sum_k d/dx_k (a_k b_j) with products of two-point
    averages. For discretely divergence-free a (with zero boundary
    faces) the form is skew in b: <N(a,b), b> = 0 to rounding, which is
    what the energy bookkeeping of the flow step relies on. Boundary
    j-faces of the result are left zero (Dirichlet data lives there).
    """
    nd = len(a)
    out = [np.zeros_like(c) for c in b]
    for j in range(nd):
        # k == j: flux at cell centers
        aj_c = 0.5 * (a[j][axslice(nd, j, slice(None, -1))] + a[j][axslice(nd, j, slice(1, None))])
        bj_c = 0.5 * (b[j][axslice(nd, j, slice(None, -1))] + b[j][axslice(nd, j, slice(1, None))])
        flux = aj_c * bj_c
        out[j][axslice(nd, j, slice(1, -1))] += np.diff(flux, axis=j) / h[j]
        # k != j: flux at cell edges (j-face position shifted half cell in k)
        for k in range(nd):
            if k == j:
                continue
            edge_shape = list(b[j].shape)
            edge_shape[k] += 1
            ak_e = np.zeros(edge_shape)
            bj_e = np.zeros(edge_shape)
            # average a_k across the j direction onto edges; walls stay zero
            ak_pair = 0.5 * (
                a[k][axslice(nd, j, slice(None, -1))] + a[k][axslice(nd, j, slice(1, None))]
            )
            ak_e[axslice(nd, j, slice(1, -1))] = ak_pair
            # average b_j across the k direction onto edges
            bj_e[axslice(nd, k, slice(1, -1))] = 0.5 * (
                b[j][axslice(nd, k, slice(None, -1))] + b[j][axslice(nd, k, slice(1, None))]
            )
            flux = ak_e * bj_e
            out[j] += np.diff(flux, axis=k) / h[k]
            # keep Dirichlet rows clean
            out[j][axslice(nd, j, 0)] = 0.0
            out[j][axslice(nd, j, -1)] = 0.0
    return out


def upwind_flux_divergence(c, v, h):
    """div(c v) with first-order upwinding of the cell field c.

    Boundary faces carry v = 0 for every field this is used on, so no
    boundary flux is added: the form is exactly conservative.
    """
    nd = c.ndim
    faces = []
    for ax in range(nd):
        vf = v[ax][axslice(nd, ax, slice(1, -1))]
        lo = c[axslice(nd, ax, slice(None, -1))]
        hi = c[axslice(nd, ax, slice(1, None))]
        faces.append(vf * np.where(vf >= 0.0, lo, hi) / h[ax])
    return scatter_faces(faces)


def centered_flux_divergence(c, v, h):
    """div(c v) with two-point averaged face values (energy form).

    Against c itself this form is skew for discretely divergence-free
    v with zero boundary faces.
    """
    nd = c.ndim
    faces = []
    for ax in range(nd):
        vf = v[ax][axslice(nd, ax, slice(1, -1))]
        avg = 0.5 * (c[axslice(nd, ax, slice(None, -1))] + c[axslice(nd, ax, slice(1, None))])
        faces.append(vf * avg / h[ax])
    return scatter_faces(faces)


# ---------------------------------------------------------------------------
# 1D stencil factories and separable assembly
# ---------------------------------------------------------------------------

def laplace_1d(n, h, lo, hi):
    """1D negative Laplacian (CSR) on n cells with given end conditions.

    lo/hi each one of:
      "neumann"        no flux through the end face (end coefficient 1)
      "dirichlet_face" zero value on the end face itself, half-spacing
                       one-sided flux (end coefficient 3)
    """
    if n == 1:
        coeff = {"neumann": 0.0, "dirichlet_face": 2.0}
        return sp.csr_matrix(([coeff[lo] + coeff[hi]], ([0], [0])), shape=(1, 1)) / h**2
    main = np.full(n, 2.0)
    for idx, bc in ((0, lo), (n - 1, hi)):
        if bc == "neumann":
            main[idx] = 1.0
        elif bc == "dirichlet_face":
            main[idx] = 3.0
        else:
            raise ValueError(f"unknown end condition {bc!r}")
    off = np.full(n - 1, -1.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


def kron_sum(ops):
    """sum_i I x ... x ops[i] x ... x I for a list of square operators."""
    sizes = [op.shape[0] for op in ops]
    total = None
    for i, op in enumerate(ops):
        term = sp.identity(1, format="csr")
        for j, n in enumerate(sizes):
            factor = op if j == i else sp.identity(n, format="csr")
            term = sp.kron(term, factor, format="csr")
        total = term if total is None else total + term
    return total


@lru_cache(maxsize=32)
def scalar_laplacian_gamma0(grid):
    """Scalar stiffness with Dirichlet faces on gamma0 edges, no-flux walls.

    Applied to the diffusion variable (the transformed biomass), so
    Dirichlet means the transformed value vanishes on the gamma0 faces.
    """
    ops = []
    for ax in range(grid.dim):
        lo = "neumann"
        hi = "neumann"
        for name in grid.gamma0_edges:
            eax, side = edge_axis_side(name, grid.dim)
            if eax != ax:
                continue
            if side == 0:
                lo = "dirichlet_face"
            else:
                hi = "dirichlet_face"
        ops.append(laplace_1d(grid.cells[ax], grid.h[ax], lo, hi))
    return kron_sum(ops)


def interior_faces(comp, axis):
    """View of a component without its own-axis boundary faces."""
    return comp[axslice(comp.ndim, axis, slice(1, -1))]


def embed_interior(values, grid, axis):
    """Inverse of interior_faces: zero boundary faces around the data."""
    full = np.zeros(grid.face_shape(axis))
    full[axslice(grid.dim, axis, slice(1, -1))] = values
    return full


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def scalar_l2_sq(values, cell_volume):
    return float(np.sum(values * values) * cell_volume)


def scalar_mass(values, cell_volume):
    return float(np.sum(values) * cell_volume)


def face_l2_sq(comps, cell_volume):
    """Squared L2 norm of a face field (every face weighted by h^n)."""
    return float(sum(np.sum(c * c) for c in comps) * cell_volume)


def face_dot(a, b, cell_volume):
    return float(sum(np.sum(x * y) for x, y in zip(a, b)) * cell_volume)


def gradient_sq_sum(values, h, cell_volume):
    """Sum over interior faces of squared differences / h^2, h^n-weighted."""
    nd = values.ndim
    total = 0.0
    for ax in range(nd):
        d = np.diff(values, axis=ax) / h[ax]
        total += float(np.sum(d * d))
    return total * cell_volume
