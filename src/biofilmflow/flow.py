"""Constrained flow step: viscous predictor plus projection onto the
divergence-free, speed-limited set.

Per step, with the biomass-dependent obstacle field r >= 0 at cell
centers, the velocity set is

    K(r) = { v : div_h v = 0, v = 0 on boundary faces,
                 |(face-to-center average of v)_c| <= r_c  for every cell }.

The predictor treats viscosity and convection implicitly but freezes
the advecting field at the old velocity, so the convection operator is
exactly skew against the new iterate and the discrete kinetic-energy
inequality holds with no quadrature defect. Its viscous part is
diagonal in a sine basis (DST-I along a component's own axis, DST-II
across it) and solved exactly by the orthonormal transform matrices of
``operators.trig_matrix``; the eigenvalues are cached per grid. The
predictor does not depend on the biomass, so it runs once per time
step; only the projection sees the biomass iterate. The projection
onto K(r) is solved in its dual, one multiplier per cell for the speed
ball, by a proximal gradient iteration with Anderson acceleration: each
iteration is one exact affine projection (a cosine transform Poisson
solve), one cellwise soft-threshold and a small least-squares fit over
the last residuals, so it converges to the true metric projection. The
multipliers are one (dim, *cells) array, a d-vector per cell. A
projection may start from given multipliers and returns its final ones;
the coupling loop hands each round's multipliers to the next round of
the same step and starts every step from zero, so a step depends on its
start state only. The coupling loop may also ask for a looser stopping
tolerance than FEAS_TOL/STEP_TOL (its first round does); the report
then says whether the result met the tight ones anyway, which it does
at once where the obstacle is inactive. The potential of the final
affine projection, divided by dt, serves as the pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators as ops
from .constitutive import speed_limit_reg
from .errors import ConfigError, NonConvergenceError, StabilityError
from .grid import ScalarField, VectorField
from .mollify import build_cutoff, mollifier, mollify_array


# projection onto K: speed excess and divergence bound, primal increment
# bound, iteration cap
FEAS_TOL = 1e-9
STEP_TOL = 1e-9
PROJECT_MAX_ITERS = 200000
# Anderson acceleration of the projection: residual history length,
# Tikhonov weight relative to the trace of the Gram matrix
ANDERSON_DEPTH = 10
ANDERSON_REG = 1e-10
# predictor fixed point: relative increment bound, iteration cap
PREDICT_TOL = 1e-14
PREDICT_MAX_ITERS = 60


@dataclass
class FlowStepReport:
    """What ``project_K`` returns about one projection onto K.

    dykstra_sweeps counts the iterations of the projection, Anderson-
    accelerated dual proximal gradient steps. The name is older than the
    dual method; it stays because perfbench/tracing.py reads the field by
    name, so the two are renamed together. A projection started from the
    previous coupling round's multipliers counts only the iterations it
    needed from there: one where the obstacle is inactive, up to a few
    hundred where it binds on a dense block. lam holds the final
    multipliers as one (dim, *cells) array. tight tells whether the
    projection met FEAS_TOL and STEP_TOL, whatever tolerance it was asked
    to stop at."""

    dykstra_sweeps: int
    max_excess: float
    max_div: float
    lam: np.ndarray
    tight: bool


@dataclass
class FlowWorkspace:
    grid: object
    params: object
    dt: float
    mollifier_eps: object
    cutoff: np.ndarray
    helmholtz_eig: tuple  # per component: 1 + dt nu (eigenvalues of A_ax)


def make_flow_workspace(grid, params, dt):
    if not dt > 0:
        raise ConfigError("flow step requires dt > 0")
    c = dt * params.nu
    return FlowWorkspace(
        grid=grid,
        params=params,
        dt=dt,
        mollifier_eps=mollifier(params.eps, grid),
        cutoff=build_cutoff(grid, params.mu),
        helmholtz_eig=tuple(
            1.0 + c * _sine_eigenvalues(grid, ax) for ax in range(grid.dim)
        ),
    )


def _laplace_1d_eig(n, h, k):
    """Eigenvalues (2 - 2 cos(pi k / n)) / h^2 of a 1D sine-basis stencil."""
    return (2.0 - 2.0 * np.cos(np.pi * k / n)) / h**2


@lru_cache(maxsize=32)
def _sine_eigenvalues(grid, axis):
    """Eigenvalues of the vector-Laplacian block A_axis, laid out on the
    interior faces of component axis; built once per grid, read-only.

    The block is a Kronecker sum of 1D stencils. Along its own axis the
    boundary faces are pinned at zero and the n - 1 Dirichlet nodes are
    diagonalized by DST-I (k = 1..n-1); along the other axes the wall
    value acts by ghost reflection and the cell stencil (end coefficient
    3) is diagonalized by DST-II (k = 1..n). Schumann & Sweet, J. Comput.
    Phys. 75 (1988).
    """
    lam = np.zeros(_interior_shape(grid, axis))
    for ax, n in enumerate(grid.cells):
        k = np.arange(1, n if ax == axis else n + 1)
        shape = [1] * grid.dim
        shape[ax] = k.size
        lam = lam + _laplace_1d_eig(n, grid.h[ax], k).reshape(shape)
    lam.setflags(write=False)
    return lam


def _sine_apply(x, diag, axis, op):
    """Combine the interior faces x of component axis with a diagonal in
    the orthonormal sine basis of ``_sine_eigenvalues``: transform,
    op(coefficients, diag), transform back.

    With np.multiply and the eigenvalues this applies A_axis; with
    np.divide and 1 + dt nu (eigenvalues) it solves the Helmholtz block
    I + dt nu A_axis exactly.
    """
    if x.size == 0:
        return x.copy()
    mats = [
        ops.trig_matrix(n, "dst1" if ax == axis else "dst2")
        for ax, n in enumerate(x.shape)
    ]
    return ops.from_basis(op(ops.to_basis(x, mats), diag), mats)


def poincare_constant(grid):
    """Discrete Poincare constant: |z| <= L_P ||z||_A for face fields.

    1/sqrt(lambda_min), with lambda_min = sum_ax (2 - 2cos(pi/n_ax))/h_ax^2
    the smallest eigenvalue shared by every component block (the k = 1
    mode of each 1D factor, see ``_sine_eigenvalues``). The eigenvalue
    is shrunk by a hair, as a margin for rounding, so the constant stays
    a valid upper bound.
    """
    lam = sum(_laplace_1d_eig(n, h, 1) for n, h in zip(grid.cells, grid.h))
    return float(1.0 / np.sqrt(lam * (1.0 - 1e-9)))


def vector_laplacian(grid, comps):
    """A v for a face field, component by component; boundary faces stay 0.

    A_ax acts on the interior faces of component ax and is applied in the
    sine basis that diagonalizes it, the basis the predictor solves in.
    """
    return [
        ops.embed_interior(
            _sine_apply(ops.interior_faces(c, ax), _sine_eigenvalues(grid, ax), ax, np.multiply),
            grid,
            ax,
        )
        for ax, c in enumerate(comps)
    ]


def obstacle_density(u_values, cutoff, smoother, u_star):
    """Biomass density the speed obstacle sees.

    The biomass is gated by the boundary-layer cutoff and smoothed with
    the wide mollifier. Smoothing is an average of values in [0, u*], but
    rounding can poke out of the interval, hence the clip.
    """
    return np.clip(mollify_array(cutoff * u_values, smoother), 0.0, u_star)


def workspace_obstacle(ws, u):
    """Pointwise speed bound r induced by a biomass field, one value per
    cell: its ``obstacle_density`` pushed through the regularized speed
    law."""
    dens = obstacle_density(u.values, ws.cutoff, ws.mollifier_eps, ws.params.u_star)
    return speed_limit_reg(dens, ws.params)


# ---------------------------------------------------------------------------
# Elementary projections
# ---------------------------------------------------------------------------

def _zero_normal_boundary(comps):
    nd = len(comps)
    out = []
    for ax, c in enumerate(comps):
        c = c.copy()
        c[ops.axslice(nd, ax, 0)] = 0.0
        c[ops.axslice(nd, ax, -1)] = 0.0
        out.append(c)
    return out


def _project_affine(comps, h, lam):
    """Exact projection of y = comps - M^T lam onto {zero boundary faces,
    div_h = 0}, with lam a (dim, *cells) array. Zero multipliers give
    y = comps bit for bit, since c - (+0.0) is c.

    Returns (projected comps, potential phi, div_h y: the right-hand
    side phi solves for). Zeroing the boundary faces and the interior
    pressure correction are orthogonal steps, so the composition is
    itself the metric projection onto the affine set. Only interior
    faces are computed. M^T lam puts half of each cell's multiplier on
    each of its two faces, summed as a zero-filled face array would sum
    them, so y has the bits of that full-face composition.
    """
    nd = len(comps)
    inner = [ops.axslice(nd, ax, slice(1, -1)) for ax in range(nd)]
    y = [np.zeros(c.shape) for c in comps]
    for ax, (c, yc) in enumerate(zip(comps, y)):
        half = 0.5 * lam[ax]
        # a zero-filled array sums (0 + a) + b, which is (a + b) + 0: -0 + -0 is +0
        adj = half[ops.axslice(nd, ax, slice(1, None))] + half[ops.axslice(nd, ax, slice(None, -1))]
        adj += 0.0
        np.subtract(c[inner[ax]], adj, out=yc[inner[ax]])
    rhs = ops.divergence(y, h)
    phi = ops.poisson_neumann(rhs, h)
    for ax, yc in enumerate(y):
        yc[inner[ax]] -= np.diff(phi, axis=ax) / h[ax]
    return y, phi, rhs


def pressure_project(v, dt):
    """Project a face field onto the divergence-free affine set.

    Returns (projected field, pressure = potential / dt). The potential
    is mean-zero.
    """
    grid = v.grid
    out, phi, _ = _project_affine(v.comps, grid.h, np.zeros((grid.dim, *grid.cells)))
    return VectorField(grid, tuple(out)), ScalarField(grid, phi / dt)


def _shrink_cells(z, obs):
    """Group soft-threshold z_c max(0, 1 - r_c/|z_c|) per cell.

    The proximal map of the support function of the speed balls, i.e.
    z minus its projection onto the balls. z and the result are
    (dim, *cells) arrays. Inside a ball 1 - r_c/|z_c| <= 0,
    or -inf at z_c = 0, or NaN at z_c = 0 = r_c; fmax turns all three
    into 0.
    """
    norm = ops.cell_norm(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        keep = np.fmax(1.0 - obs / norm, 0.0)
    return z * keep


def project_K(v, r, dt, feas_tol=FEAS_TOL, step_tol=STEP_TOL, lam=None):
    """Metric projection onto K(r), r the speed bound per cell, by an
    Anderson-accelerated dual proximal gradient.

    With M the face-to-center average and lam the per-cell multipliers
    of the speed balls, the primal point of lam is
    x(lam) = P_A(v - M^T lam), P_A the affine projection (one Poisson
    solve). The dual solution is the fixed point of the proximal
    gradient map G(lam) = S_r(lam + M x(lam)) with step 1 (valid since
    ||M P_A M^T|| <= ||M||^2 <= 1), S_r the cellwise group
    soft-threshold. Type-II Anderson acceleration (Walker & Ni 2011;
    Mai & Johansson 2020 for proximal gradient) takes
    lam+ = G(lam) - dG gamma, gamma the least-squares fit of the newest
    residual f = G(lam) - lam by the differences dF of the last
    ANDERSON_DEPTH residuals, Tikhonov-regularized by ANDERSON_REG times
    the trace of dF^T dF. The Gram matrix and dF^T f gain one row per
    iteration. A residual above 4 times the smallest |f|^2 of the call
    drops the history, so the next step is a plain G(lam). The history
    lives within one call and each iteration costs one solve.

    lam, a (dim, *cells) array, is the starting dual point; with
    None it is zero and the first affine projection is of v itself.
    Multipliers returned by a projection of the same v onto a nearby
    obstacle are a good start. If G fixes the start bit for bit, x of
    the start is returned after one iteration. Returns (VectorField,
    pressure ScalarField, FlowStepReport); the report counts the
    iterations, holds the final multipliers and says whether the result
    met FEAS_TOL and STEP_TOL. Termination requires the
    speed excess and the divergence to sit under feas_tol *and* the last
    primal increment to be below step_tol; plain feasibility is reached
    early by iterates that are still far from the projection, so it
    alone is not a safe stop. The divergence and the increment are
    measured only once the excess is under feas_tol. The pressure is the
    potential of the final affine projection over dt. A non-finite
    excess or divergence (speeds whose squares overflow) raises
    StabilityError at once; no iteration can recover from it.
    """
    grid = v.grid
    h = grid.h
    if lam is None:
        lam = np.zeros((grid.dim, *r.shape))
    x, phi, _ = _project_affine(v.comps, h, lam)
    m = ops.center_average(x)
    f_prev = g_prev = hist = None
    best, cols = np.inf, 0
    for it in range(PROJECT_MAX_ITERS):
        g = _shrink_cells(lam + m, r)
        if it == 0 and np.array_equal(g, lam):
            lam_new, x_new, m_new = g, x, m
        else:
            f = g - lam
            # row by row, as fit[j] below: one dot over all rows rounds differently
            fsq = sum(float(np.vdot(c, c)) for c in f)
            if f_prev is None or fsq > 4.0 * best:
                lam_new, cols = g, 0
            else:
                if hist is None:
                    hist = np.empty((2, ANDERSON_DEPTH, *f.shape))
                    gram = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
                    fit = np.zeros(ANDERSON_DEPTH)
                d_f, d_g = hist
                j = cols % ANDERSON_DEPTH
                cols += 1
                n = min(cols, ANDERSON_DEPTH)
                np.subtract(f, f_prev, out=d_f[j])
                np.subtract(g, g_prev, out=d_g[j])
                flat = d_f.reshape(ANDERSON_DEPTH, -1)
                row = flat[:n] @ flat[j]
                gram[j, :n] = gram[:n, j] = row
                fit[:n] += row  # f = f_prev + d_f[j]
                fit[j] = sum(float(np.vdot(a, b)) for a, b in zip(d_f[j], f))
                lhs = gram[:n, :n].copy()
                # tiny: a history of zeros (a stalled iterate) solves to gamma = 0
                lhs.flat[:: n + 1] += ANDERSON_REG * max(np.trace(lhs), np.finfo(float).tiny)
                gamma = np.linalg.solve(lhs, fit[:n])
                corr = (gamma @ d_g[:n].reshape(n, -1)).reshape(g.shape)
                lam_new = g - corr
            best = min(best, fsq)
            f_prev, g_prev = f, g
            x_new, phi, _ = _project_affine(v.comps, h, lam_new)
            m_new = ops.center_average(x_new)
        excess = float(np.max(ops.cell_norm(m_new) - r))
        if excess <= feas_tol or not np.isfinite(excess):
            dv = float(np.abs(ops.divergence(x_new, h)).max())
            if not (np.isfinite(excess) and np.isfinite(dv)):
                raise StabilityError(
                    f"constraint projection met non-finite speeds (excess {excess:.3e}, "
                    f"div {dv:.3e}); reduce dt or the forcing",
                    residual=max(excess, dv),
                )
            inc = max(float(np.abs(a - b).max()) for a, b in zip(x_new, x))
            if dv <= feas_tol and inc <= step_tol:
                report = FlowStepReport(
                    dykstra_sweeps=it + 1,
                    max_excess=excess,
                    max_div=dv,
                    lam=lam_new,
                    tight=excess <= FEAS_TOL and dv <= FEAS_TOL and inc <= STEP_TOL,
                )
                return VectorField(grid, tuple(x_new)), ScalarField(grid, phi / dt), report
        lam, x_prev, x, m = lam_new, x, x_new, m_new
    dv = float(np.abs(ops.divergence(x, h)).max())
    inc = max(float(np.abs(a - b).max()) for a, b in zip(x, x_prev))
    raise NonConvergenceError(
        f"constraint projection did not settle in {PROJECT_MAX_ITERS} iterations "
        f"(excess {excess:.3e}, div {dv:.3e}, step {inc:.3e})",
        residual=max(excess, dv),
    )


# ---------------------------------------------------------------------------
# Predictor and full step
# ---------------------------------------------------------------------------

def predict_velocity(ws, v, g):
    """Solve (I + dt nu A + dt N(v_old, .)) v* = v_old + dt g.

    Matrix-free fixed point on the convection term; each pass solves the
    Helmholtz part exactly by sine transforms (``_sine_apply``). The
    contraction factor is O(dt |v| / h), so at advective CFL numbers well
    below one this settles in a handful of iterations. Failure to
    contract is reported as a stability problem (the remedy is a smaller
    dt). The predictor does not see the biomass, so a time step needs it
    once, before the coupling iteration. Returns (comps list, iterations,
    viscous form (A v*, v*) h^n).
    """
    grid = ws.grid
    dt = ws.dt
    rhs = [
        ops.interior_faces(vc, ax) + dt * ops.interior_faces(gc, ax)
        for ax, (vc, gc) in enumerate(zip(v.comps, g.comps))
    ]
    comps = _zero_normal_boundary(v.comps)
    iters = 0
    for it in range(PREDICT_MAX_ITERS):
        adv = ops.mac_advection(v.comps, comps, grid.h)
        new = [
            ops.embed_interior(
                _sine_apply(
                    rhs[ax] - dt * ops.interior_faces(adv[ax], ax),
                    ws.helmholtz_eig[ax],
                    ax,
                    np.divide,
                ),
                grid,
                ax,
            )
            for ax in range(grid.dim)
        ]
        if not all(np.isfinite(a).all() for a in new):
            raise StabilityError(
                "velocity predictor produced non-finite values; reduce dt or the forcing"
            )
        diff = max(float(np.abs(a - b).max(initial=0.0)) for a, b in zip(new, comps))
        scale = max(1.0, max(float(np.abs(a).max(initial=0.0)) for a in new))
        comps = new
        iters = it + 1
        if diff <= PREDICT_TOL * scale:
            break
    else:
        raise StabilityError(
            "velocity predictor fixed point failed to contract; "
            "the advective CFL number is too large, reduce dt",
            residual=diff,
        )
    # a finite v* can still overflow here; report that as an error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        viscous = ops.face_dot(vector_laplacian(grid, comps), comps, grid.cell_volume)
    if not np.isfinite(viscous):
        raise StabilityError(
            "velocity predictor's viscous form (A v*, v*) is non-finite; "
            "reduce dt or the forcing"
        )
    return comps, iters, viscous


def _interior_shape(grid, axis):
    shape = list(grid.cells)
    shape[axis] -= 1
    return tuple(shape)


def step_flow(ws, v_star, u, lam=None, tol=None):
    """Project the predictor v_star onto K(r(u)), the biomass iterate's
    speed obstacle, starting the dual iteration from lam (None: zero).

    tol, when given, replaces FEAS_TOL and STEP_TOL as the projection's
    excess, divergence and increment bound; the report's tight flag
    still compares the result against FEAS_TOL and STEP_TOL.
    Returns (VectorField, pressure ScalarField, FlowStepReport); the
    report's lam, one (dim, *cells) array, holds the final multipliers,
    to start the next coupling round of the same step from. The pressure
    collects the affine multipliers of the projection scaled by 1/dt,
    mean-zero by construction.
    """
    r = workspace_obstacle(ws, u)
    feas_tol, step_tol = (FEAS_TOL, STEP_TOL) if tol is None else (tol, tol)
    return project_K(
        VectorField(ws.grid, tuple(v_star)), r, ws.dt,
        feas_tol=feas_tol, step_tol=step_tol, lam=lam,
    )


# ---------------------------------------------------------------------------
# Energy bookkeeping
# ---------------------------------------------------------------------------

def flow_energy_check(kinetic_sq, viscous_sq, forcing_sq, nu, poincare, dt):
    """Max ratio of the kinetic-energy ledger to its a priori bound.

    kinetic_sq: |v^n|^2 for n = 0..N; viscous_sq: (A v*_m, v*_m) h^n per
    step; forcing_sq: |g_m|^2 per step. Checks for every n

        |v^n|^2 + nu dt sum_{m<n} viscous_sq[m]
            <= |v^0|^2 + (L_P^2/nu) dt sum_{m<n} forcing_sq[m]

    and returns the largest LHS/RHS.
    """
    kinetic_sq = np.asarray(kinetic_sq, dtype=float)
    viscous_sq = np.asarray(viscous_sq, dtype=float)
    forcing_sq = np.asarray(forcing_sq, dtype=float)
    lhs = kinetic_sq[1:] + nu * dt * np.cumsum(viscous_sq)
    rhs = kinetic_sq[0] + (poincare**2 / nu) * dt * np.cumsum(forcing_sq)
    worst = 0.0
    for num, den in zip(lhs, rhs):
        if den == 0.0:
            if num > 0.0:
                return np.inf
            continue
        worst = max(worst, num / den)
    return float(worst)
