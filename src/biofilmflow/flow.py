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
``operators.trig_matrix``; its eigenvalues are ``operators.spectrum``'s,
the table the projection's cosine Poisson solve divides by too. The
viscous form (A v*, v*) of the energy inequality is read from v*'s
coefficients in that basis, so A is never applied. The predictor does
not depend on the biomass, so it runs once per time step; only the
projection sees the biomass iterate. The projection
onto K(r) is solved in its dual, one multiplier per cell for the speed
ball, by a proximal gradient iteration with Anderson acceleration: each
iteration is one exact affine projection (a cosine transform Poisson
solve), one cellwise soft-threshold and a small least-squares fit over
the last residuals, so it converges to the true metric projection. The
multipliers are one (dim, *cells) array, a d-vector per cell. The
residual history is kept packed on the multipliers' support, the
entries the start or an iterate of the call has made nonzero, since
every residual difference vanishes off it; where biofilm is dense
that is a tenth of the entries or less. A
projection may start from the (velocity, pressure, multipliers) an
earlier projection of the same v returned, or cold, from
``pressure_project`` and zero multipliers; the coupling loop hands each
round's result to the next round of the same step and starts every step
cold, so a step depends on its start state only. Where the start is
already the dual fixed point, as after an inactive round, the
projection returns it with no Poisson solve. The coupling loop may also
ask for a looser stopping tolerance than FEAS_TOL/STEP_TOL (its first
round does); the report then says whether the result met the tight
ones anyway, which it does at once where the obstacle is inactive. The divergence bound has a
floor at the rounding an exact affine projection leaves. The potential
of the final affine projection, divided by dt, serves as the pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# floor under the divergence bound in units of eps max|x| / min(h), which
# is about what rounding leaves in an exact affine projection x
DIV_ROUNDING = 256
# Anderson acceleration of the projection: residual history length,
# Tikhonov weight relative to the trace of the Gram matrix
ANDERSON_DEPTH = 10
ANDERSON_REG = 1e-10
# predictor fixed point: relative error bound, iteration cap
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
    needed from there: one where the obstacle is inactive, with no
    Poisson solve, up to a few hundred where it binds on a dense block.
    lam holds the final multipliers as one (dim, *cells) array; with the
    returned velocity and pressure they are the start of the next
    round's projection. tight tells whether the projection met FEAS_TOL
    (for the divergence, or its rounding floor) and STEP_TOL, whatever
    tolerance it was asked to stop at."""

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


def _sine_kinds(nd, axis):
    """Transform per axis for the interior faces of component axis: DST-I
    along its own axis (Dirichlet nodes), DST-II across it (walls)."""
    return tuple("dst1" if ax == axis else "dst2" for ax in range(nd))


def _sine_eigenvalues(grid, axis):
    """Eigenvalues of the vector-Laplacian block A_axis, laid out on the
    interior faces of component axis; read-only, one table per grid."""
    shape = tuple(n - (ax == axis) for ax, n in enumerate(grid.cells))
    return ops.spectrum(shape, grid.h, _sine_kinds(grid.dim, axis))


def _sine_apply(x, diag, axis):
    """Apply the inverse of the Helmholtz block I + dt nu A_axis to the
    interior faces x of component axis, diag its eigenvalues
    1 + dt nu (``_sine_eigenvalues``): transform, divide, transform back.

    Returns (solution, its coefficients in the orthonormal sine basis).
    """
    if x.size == 0:
        return x.copy(), x.copy()
    mats = [ops.trig_matrix(n, kind) for n, kind in zip(x.shape, _sine_kinds(x.ndim, axis))]
    coef = ops.to_basis(x, mats) / diag
    return ops.from_basis(coef, mats), coef


def poincare_constant(grid):
    """Discrete Poincare constant: |z| <= L_P ||z||_A for face fields.

    1/sqrt(lambda_min), with lambda_min the smallest eigenvalue shared by
    every component block: the first entry of the cells' all-DST-II
    spectrum, sum_ax (2 - 2cos(pi/n_ax))/h_ax^2. The eigenvalue is
    shrunk by a hair, as a margin for rounding, so the constant stays a
    valid upper bound.
    """
    lam = ops.spectrum(grid.cells, grid.h, ("dst2",) * grid.dim).flat[0]
    return float(1.0 / np.sqrt(lam * (1.0 - 1e-9)))


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

def _project_affine(comps, h, lam, out=None):
    """Exact projection of y = comps - M^T lam onto {zero boundary faces,
    div_h = 0}, with lam a (dim, *cells) array. Zero multipliers give
    y = comps bit for bit, since c - (+0.0) is c.

    Returns (projected comps, potential phi). Zeroing the boundary faces
    and the interior pressure correction are orthogonal steps, so the
    composition is itself the metric projection onto the affine set.
    Only interior faces are computed. M^T lam puts half of each cell's
    multiplier on each of its two faces, summed as a zero-filled face
    array would sum them, so y has the bits of that full-face
    composition. out, face arrays shaped as comps whose boundary faces
    are zero, receives the result in place of fresh zeros; only its
    interior faces are written.
    """
    nd = len(comps)
    inner = [ops.axslice(nd, ax, slice(1, -1)) for ax in range(nd)]
    y = [np.zeros(c.shape) for c in comps] if out is None else out
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
    return y, phi


def pressure_project(v, dt):
    """Project a face field onto the divergence-free affine set.

    Returns (projected field, pressure = potential / dt). The potential
    is mean-zero.
    """
    grid = v.grid
    out, phi = _project_affine(v.comps, grid.h, np.zeros((grid.dim, *grid.cells)))
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


def project_K(v, r, dt, feas_tol=FEAS_TOL, step_tol=STEP_TOL, start=None):
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
    lives within one call and each iteration costs one solve. It is kept
    packed on a support that only grows, the flat entries where the
    start multipliers or a G(lam) of the call are nonzero: f, dF and dG
    vanish off it, so the fit and the correction run on packed vectors,
    and the stored vectors are extended with zeros where entries join.
    The soft-threshold and the stop tests still see every cell.

    start, a (velocity, pressure, multipliers) triple that a projection
    of the same v returned, is the starting dual point with its primal
    point and pressure; None is (*pressure_project(v, dt), zeros), the
    affine projection of v itself. The triple of a projection onto a
    nearby obstacle is a good start. If G fixes the start bit for bit,
    the start's velocity and pressure are returned after one iteration
    with no Poisson solve. Returns (VectorField, pressure ScalarField,
    FlowStepReport); the report counts the iterations, holds the final
    multipliers and says whether the result met FEAS_TOL and STEP_TOL.
    Termination requires the speed excess and the divergence to sit
    under feas_tol *and* the last primal increment to be below
    step_tol; plain feasibility is reached early by iterates that are
    still far from the projection, so it alone is not a safe stop. The divergence and the increment are
    measured only once the excess is under feas_tol. The divergence bound
    is at least DIV_ROUNDING eps max|x| / min(h), so fast fields stop too.
    The pressure is the potential of the final affine projection over dt.
    A non-finite excess or divergence (speeds whose squares overflow)
    raises StabilityError at once; no iteration can recover from it.
    """
    grid = v.grid
    h = grid.h
    if start is None:
        # the multipliers are only read, so the zeros are a read-only view:
        # a (dim, *cells) array of them costs a 24^3 run about 0.8 MB of RSS
        start = (*pressure_project(v, dt), np.broadcast_to(0.0, (grid.dim, *r.shape)))
    x, pressure, lam = start
    x = list(x.comps)
    m = ops.center_average(x)
    free = None  # set up once the start is not the dual fixed point
    best, cols = np.inf, -1  # cols < 0: no residual yet
    for it in range(PROJECT_MAX_ITERS):
        g = _shrink_cells(lam + m, r)
        if it == 0 and np.array_equal(g, lam):
            lam_new, x_new, m_new = g, x, m
        else:
            flat = g.reshape(-1)
            if free is None:
                # idx, the support: flat entries where the start or a g of
                # this call is nonzero. Every Anderson vector vanishes off it,
                # so work holds them packed, side 0 for f and side 1 for g:
                # rows :ANDERSON_DEPTH the differences, the last the newest
                free = (lam == 0).reshape(-1)
                idx = np.flatnonzero(~free)
                work = np.zeros((2, ANDERSON_DEPTH + 1, 0))
                gram = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
                fit = np.zeros(ANDERSON_DEPTH)
                faces = [[np.zeros(c.shape) for c in x] for _ in range(2)]
            new = np.flatnonzero(free & (flat != 0))
            if new.size:
                free[new] = False
                idx = np.concatenate((idx, new))
            if idx.size > work.shape[2]:
                # every stored vector is zero on the entries that join
                grown = np.zeros((*work.shape[:2], min(2 * idx.size, flat.size)))
                grown[..., : work.shape[2]] = work
                work = grown
            d_f, d_g = work[..., : idx.size]
            g_s = flat[idx]
            f = g_s - lam.reshape(-1)[idx]
            fsq = float(f @ f)
            if cols < 0 or fsq > 4.0 * best:
                cols = 0
            else:
                j = cols % ANDERSON_DEPTH
                cols += 1
                n = min(cols, ANDERSON_DEPTH)
                np.subtract(f, d_f[-1], out=d_f[j])
                np.subtract(g_s, d_g[-1], out=d_g[j])
                row = d_f[:n] @ d_f[j]
                gram[j, :n] = gram[:n, j] = row
                fit[:n] += row  # f = f_prev + d_f[j]
                fit[j] = d_f[j] @ f
                lhs = gram[:n, :n].copy()
                # tiny: a history of zeros (a stalled iterate) solves to gamma = 0
                lhs.flat[:: n + 1] += ANDERSON_REG * max(np.trace(lhs), np.finfo(float).tiny)
                gamma = np.linalg.solve(lhs, fit[:n])
                flat[idx] -= gamma @ d_g[:n]  # lam+ = g - dG gamma, in g itself
            best = min(best, fsq)
            d_f[-1], d_g[-1] = f, g_s
            lam_new = g
            # two face buffers in turn: x, the iterate before, is the other
            x_new, phi = _project_affine(v.comps, h, lam_new, out=faces[it % 2])
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
            scale = max(float(np.abs(c).max()) for c in x_new)
            floor = DIV_ROUNDING * np.finfo(float).eps * scale / min(h)
            if dv <= max(feas_tol, floor) and inc <= step_tol:
                report = FlowStepReport(
                    dykstra_sweeps=it + 1,
                    max_excess=excess,
                    max_div=dv,
                    lam=lam_new,
                    tight=excess <= FEAS_TOL and dv <= max(FEAS_TOL, floor) and inc <= STEP_TOL,
                )
                if x_new is not x:  # else G fixed the start: its pressure stands
                    pressure = ScalarField(grid, phi / dt)
                return VectorField(grid, tuple(x_new)), pressure, report
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
    below one this settles in a handful of iterations. It stops once the
    increment d_k (sup-norm) is at most PREDICT_TOL max(1, |v*|), or
    once the error bound rho/(1 - rho) d_k of a contraction is, with
    rho = d_k / d_(k-1) < 1 the latest observed factor; the second test
    saves the pass that only confirms a small increment. Failure to
    contract is reported as a stability problem (the remedy is a smaller
    dt). The predictor does not see the biomass, so a time step needs it
    once, before the coupling iteration. Returns (comps list, iterations,
    viscous form (A v*, v*) h^n). The form is h^n sum_ax sum lambda c^2
    over the last pass's sine coefficients c of v* and the eigenvalues
    lambda of A_ax: the basis is orthonormal, so this is (A v*, v*) h^n
    to rounding.
    """
    grid = ws.grid
    dt = ws.dt
    rhs = [
        ops.interior_faces(vc, ax) + dt * ops.interior_faces(gc, ax)
        for ax, (vc, gc) in enumerate(zip(v.comps, g.comps))
    ]
    comps = [
        ops.embed_interior(ops.interior_faces(c, ax), grid, ax) for ax, c in enumerate(v.comps)
    ]
    # the old velocity advects every pass, so its averages are taken once
    averages = ops.advecting_averages(v.comps)
    iters = 0
    prev = 0.0
    for it in range(PREDICT_MAX_ITERS):
        # the last pass's coefficients give the viscous form; the previous
        # pass's go before this one allocates, which keeps block2d's peak RSS
        new, coefs = [], []
        adv = ops.mac_advection(v.comps, comps, grid.h, averages)
        for ax in range(grid.dim):
            x, c = _sine_apply(
                rhs[ax] - dt * ops.interior_faces(adv[ax], ax), ws.helmholtz_eig[ax], ax
            )
            new.append(ops.embed_interior(x, grid, ax))
            coefs.append(c)
        if not all(np.isfinite(a).all() for a in new):
            raise StabilityError(
                "velocity predictor produced non-finite values; reduce dt or the forcing"
            )
        diff = max(float(np.abs(a - b).max(initial=0.0)) for a, b in zip(new, comps))
        scale = max(1.0, max(float(np.abs(a).max(initial=0.0)) for a in new))
        comps = new
        iters = it + 1
        bound = PREDICT_TOL * scale
        # a map contracting by rho leaves v* within rho / (1 - rho) diff of
        # its fixed point; prev > 0 here, since diff = 0 stops at once
        rho = diff / prev if it else 1.0
        if diff <= bound or (rho < 1.0 and rho / (1.0 - rho) * diff <= bound):
            break
        prev = diff
    else:
        raise StabilityError(
            "velocity predictor fixed point failed to contract; "
            "the advective CFL number is too large, reduce dt",
            residual=diff,
        )
    # a finite v* can still overflow here; report that as an error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        viscous = float(
            sum(np.sum(_sine_eigenvalues(grid, ax) * c * c) for ax, c in enumerate(coefs))
            * grid.cell_volume
        )
    if not np.isfinite(viscous):
        raise StabilityError(
            "velocity predictor's viscous form (A v*, v*) is non-finite; "
            "reduce dt or the forcing"
        )
    return comps, iters, viscous


def step_flow(ws, v_star, u, start=None, tol=None):
    """Project the predictor v_star onto K(r(u)), the biomass iterate's
    speed obstacle, starting the dual iteration from start, a
    (velocity, pressure, multipliers) triple an earlier projection of
    v_star returned (None: the affine projection of v_star, zero
    multipliers).

    tol, when given, replaces FEAS_TOL and STEP_TOL as the projection's
    excess, divergence and increment bound; the report's tight flag
    still compares the result against FEAS_TOL and STEP_TOL.
    Returns (VectorField, pressure ScalarField, FlowStepReport); these
    two fields and the report's lam, one (dim, *cells) array of the
    final multipliers, start the next coupling round of the same step.
    The pressure collects the affine multipliers of the projection
    scaled by 1/dt, mean-zero by construction.
    """
    r = workspace_obstacle(ws, u)
    feas_tol, step_tol = (FEAS_TOL, STEP_TOL) if tol is None else (tol, tol)
    return project_K(
        VectorField(ws.grid, tuple(v_star)), r, ws.dt,
        feas_tol=feas_tol, step_tol=step_tol, start=start,
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
