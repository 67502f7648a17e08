"""Grid calculus on the staggered box: differences, transforms, stencils.

Everything here works for 2D and 3D alike by slicing along a runtime
axis. The orthonormal DCT-II, DST-I and DST-II are dense matrices built
once per size from their closed forms and applied along each axis by a
matrix product; the inverse is the transpose, so a diagonalization by
them is exact to rounding. On grids of at most 64 cells per axis the
products beat an FFT library's call overhead; on 128^2 the cosine
Poisson solve is about 1.4 times slower. Conventions used throughout:

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

import math
from functools import lru_cache

import numpy as np

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


def center_average(comps):
    """Face-to-center average as one (dim, *cells) array; row ax is
    0.5 * (lo + hi) of component ax's two faces along ax."""
    nd = len(comps)
    out = np.empty((nd, *comps[0][1:].shape))  # component 0 has one more face along axis 0
    for ax, c in enumerate(comps):
        np.add(c[axslice(nd, ax, slice(None, -1))], c[axslice(nd, ax, slice(1, None))], out=out[ax])
    out *= 0.5
    return out


def cell_norm(m):
    """Euclidean norm per cell of (dim, *cells) data, e.g. the cell speed
    ``cell_norm(center_average(comps))``.

    The squares are summed row by row, in axis order.
    """
    sq = m[0] * m[0]
    for c in m[1:]:
        sq += c * c
    return np.sqrt(sq)


# ---------------------------------------------------------------------------
# Orthonormal trigonometric transforms as matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def trig_matrix(n, kind):
    """Orthonormal n x n transform, read-only; row k is basis vector k.

    kind "dst1", "dst2" or "dct2": the norm="ortho" DST-I, DST-II and
    DCT-II of scipy.fft,
        DST-I   sqrt(2/(n+1)) sin(pi (k+1)(j+1) / (n+1)),
        DST-II  sqrt(2/n) sin(pi (k+1)(2j+1) / (2n)), last row over sqrt 2,
        DCT-II  sqrt(2/n) cos(pi k (2j+1) / (2n)), first row over sqrt 2.
    The integer phase is reduced modulo its period before the scaling by
    pi, so every entry is accurate to rounding.
    """
    k = np.arange(n)
    if kind == "dst1":
        phase = np.outer(k + 1, k + 1) % (2 * n + 2)
        mat = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
    elif kind == "dst2":
        phase = np.outer(k + 1, 2 * k + 1) % (4 * n)
        mat = math.sqrt(2.0 / n) * np.sin(np.pi * phase / (2 * n))
        mat[-1] /= math.sqrt(2.0)
    elif kind == "dct2":
        phase = np.outer(k, 2 * k + 1) % (4 * n)
        mat = math.sqrt(2.0 / n) * np.cos(np.pi * phase / (2 * n))
        mat[0] /= math.sqrt(2.0)
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    mat.setflags(write=False)
    return mat


def _apply_along(mat, x, axis):
    """``mat`` applied to every line of x along ``axis``, one matrix product."""
    shape = x.shape
    n = shape[axis]
    if axis == x.ndim - 1:
        y = x.reshape(-1, n) @ mat.T
    else:
        y = mat @ x.reshape(math.prod(shape[:axis]), n, -1)
    return y.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1:])


def to_basis(x, mats):
    """Coefficients of x in the separable basis with one matrix per axis."""
    for ax, mat in enumerate(mats):
        x = _apply_along(mat, x, ax)
    return x


def from_basis(coef, mats):
    """Inverse of ``to_basis``: the matrices are orthonormal, so transposes."""
    for ax, mat in enumerate(mats):
        coef = _apply_along(mat.T, coef, ax)
    return coef


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
    mats = [trig_matrix(n, "dct2") for n in rhs.shape]
    coef = to_basis(rhs, mats) / _neumann_eigenvalues(rhs.shape, tuple(h))
    coef.flat[0] = 0.0
    phi = from_basis(coef, mats)
    return phi - phi.mean()


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


# ---------------------------------------------------------------------------
# Fixed-tap stencils
# ---------------------------------------------------------------------------

class Stencil:
    """Zero-extended correlation of a cell array with fixed taps.

    ``taps`` pairs an integer offset per axis with a weight, a float or a
    read-only cell array; the result is sum over taps of weight * x[i +
    offset], with x zero outside the box. Every cell sums its taps in the
    given order, starting from the first product, so with the taps in a CSR
    row's order the result equals that CSR product bit for bit; the final
    ``+ 0.0`` turns a -0.0 sum into the +0.0 that a row sum from 0 gives.
    The field is copied into a zero-padded buffer in which each tap is one
    contiguous slice. The buffers are reused across calls, so one Stencil
    must not be applied concurrently.
    """

    def __init__(self, cells, taps):
        self.cells = tuple(cells)
        self.taps = tuple((tuple(int(o) for o in off), w) for off, w in taps)
        halo = np.abs([off for off, _ in self.taps]).max(axis=0)
        self._buf = np.zeros([n + 2 * r for n, r in zip(self.cells, halo)])
        self._inner = tuple(slice(r, r + n) for r, n in zip(halo, self.cells))
        # C strides of the padded buffer, in elements
        strides = np.cumprod((1,) + self._buf.shape[:0:-1])[::-1]
        lo = int(halo @ strides)
        hi = lo + int((np.array(self.cells) - 1) @ strides) + 1
        self._acc = np.zeros(self._buf.size)
        self._window = self._acc[lo:hi]
        self._tmp = np.empty(hi - lo)
        flat = self._buf.reshape(-1)
        self._plan = []
        for off, w in self.taps:
            if np.ndim(w):
                padded = np.zeros(self._buf.shape)
                padded[self._inner] = w
                w = padded.reshape(-1)[lo:hi]
            shift = int(np.dot(off, strides))
            self._plan.append((flat[lo + shift:hi + shift], w))

    def __call__(self, x):
        """The stencil applied to the cell array x, as a new cell array."""
        self._buf[self._inner] = x
        (view, w), *rest = self._plan
        np.multiply(view, w, out=self._window)
        for view, w in rest:
            np.multiply(view, w, out=self._tmp)
            self._window += self._tmp
        return self._acc.reshape(self._buf.shape)[self._inner] + 0.0


@lru_cache(maxsize=32)
def scalar_laplacian_gamma0(grid):
    """Scalar stiffness with Dirichlet faces on gamma0 edges, no-flux walls.

    Applied to the diffusion variable (the transformed biomass), so
    Dirichlet means the transformed value vanishes on the gamma0 faces.
    Per axis a cell couples to each neighbor in the box by -1/h^2, and
    its diagonal gets 1/h^2 per neighbor plus 2/h^2 per gamma0 face, the
    one-sided half-spacing flux. The taps run in increasing flat column
    order and each coefficient is scaled by 1/h^2 as a product, which is
    how the assembled CSR matrix rounds, so products agree bit for bit.
    """
    nd = grid.dim
    diag = 0.0
    lower, upper = [], []
    for ax, (n, h) in enumerate(zip(grid.cells, grid.h)):
        main = np.full(n, 2.0)
        main[0] -= 1.0
        main[-1] -= 1.0
        for name in grid.gamma0_edges:
            eax, side = edge_axis_side(name, nd)
            if eax == ax:
                main[-side] += 2.0
        inv = 1.0 / h**2
        diag = diag + (main * inv).reshape([n if a == ax else 1 for a in range(nd)])
        unit = np.eye(nd, dtype=int)[ax]
        lower.append((-unit, -inv))
        upper.insert(0, (unit, -inv))
    diag.setflags(write=False)
    return Stencil(grid.cells, lower + [((0,) * nd, diag)] + upper)


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


def clamp_ledger(x, hi, cell_volume):
    """Clip x to [0, hi]: the clipped array, and the step report fields
    that record the clip (x's extrema and the clamped mass |clip(x) - x| h^n)."""
    pre_min = float(x.min())
    pre_max = float(x.max())
    clamped = np.clip(x, 0.0, hi)
    mass = float(np.abs(clamped - x).sum() * cell_volume)
    return clamped, dict(pre_clamp_min=pre_min, pre_clamp_max=pre_max, clamp_mass=mass)
