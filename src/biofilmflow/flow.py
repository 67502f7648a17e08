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
diagonal in a sine basis and solved exactly by fast transforms. The
predictor does not depend on the biomass, so it runs once per time
step; only the projection sees the biomass iterate. The projection
onto K(r) is solved in its dual, one multiplier per cell for the speed
ball, by an accelerated proximal gradient (FISTA) with adaptive
restart: each iteration is one exact affine projection (a cosine
transform Poisson solve) and one cellwise soft-threshold, so it
converges to the true metric projection. The potential of the final
affine projection, divided by dt, serves as the pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst, idst

from . import operators as ops
from .constitutive import speed_limit_reg
from .errors import ConfigError, NonConvergenceError, StabilityError
from .grid import ScalarField, VectorField
from .mollify import build_cutoff, build_kernel, mollify_array


# projection onto K: speed excess and divergence bound, primal increment
# bound, iteration cap
FEAS_TOL = 1e-9
STEP_TOL = 1e-9
PROJECT_MAX_ITERS = 200000
# predictor fixed point: relative increment bound, iteration cap
PREDICT_TOL = 1e-14
PREDICT_MAX_ITERS = 60


@dataclass
class FlowStepReport:
    """dykstra_sweeps counts the iterations of the projection onto K;
    the name is older than the dual method."""

    dykstra_sweeps: int
    max_excess: float
    max_div: float
    pressure_residual: float


@dataclass(frozen=True)
class ObstacleField:
    grid: object
    values: np.ndarray = field(compare=False)


@dataclass
class FlowWorkspace:
    grid: object
    params: object
    dt: float
    kernel_eps: object
    cutoff: np.ndarray
    helmholtz_eig: tuple  # per component: 1 + dt nu (eigenvalues of A_ax)
    poincare: float


def make_flow_workspace(grid, params, dt):
    if not dt > 0:
        raise ConfigError("flow step requires dt > 0")
    c = dt * params.nu
    return FlowWorkspace(
        grid=grid,
        params=params,
        dt=dt,
        kernel_eps=build_kernel(params.eps, grid),
        cutoff=build_cutoff(grid, params.mu),
        helmholtz_eig=tuple(
            1.0 + c * _sine_eigenvalues(grid, ax) for ax in range(grid.dim)
        ),
        poincare=poincare_constant(grid),
    )


def _laplace_1d_eig(n, h, k):
    """Eigenvalues (2 - 2 cos(pi k / n)) / h^2 of a 1D sine-basis stencil."""
    return (2.0 - 2.0 * np.cos(np.pi * k / n)) / h**2


def _sine_eigenvalues(grid, axis):
    """Eigenvalues of the vector-Laplacian block A_axis, laid out on the
    interior faces of component axis.

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
    kinds = [1 if ax == axis else 2 for ax in range(x.ndim)]
    coef = x
    for ax, kind in enumerate(kinds):
        coef = dst(coef, type=kind, axis=ax, norm="ortho")
    coef = op(coef, diag)
    for ax, kind in enumerate(kinds):
        coef = idst(coef, type=kind, axis=ax, norm="ortho")
    return coef


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


def workspace_obstacle(ws, u):
    """Pointwise speed bound induced by a biomass field.

    The biomass is gated by the boundary-layer cutoff, smoothed with the
    wide kernel, and pushed through the regularized speed law. Smoothing
    is an average of values in [0, u*], but rounding can poke out of the
    interval, hence the clip before the speed law.
    """
    dens = mollify_array(ws.cutoff * u.values, ws.kernel_eps)
    dens = np.clip(dens, 0.0, ws.params.u_star)
    return ObstacleField(u.grid, speed_limit_reg(dens, ws.params))


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


def _project_affine(comps, h):
    """Exact projection onto {zero boundary faces, div_h = 0}.

    Returns (projected comps, potential phi). Zeroing the boundary faces
    and the interior pressure correction are orthogonal steps, so the
    composition is itself the metric projection onto the affine set.
    """
    out = _zero_normal_boundary(comps)
    phi = ops.poisson_neumann(ops.divergence(out, h), h)
    grad = ops.gradient_faces(phi, h)
    return [c - g for c, g in zip(out, grad)], phi


def _affine_residual(phi, comps, h):
    """Largest Poisson residual of the potential phi that
    ``_project_affine(comps, h)`` returned."""
    res = ops.neumann_laplacian_apply(phi, h) - ops.divergence(_zero_normal_boundary(comps), h)
    return float(np.abs(res).max())


def constraint_excess(comps, obs):
    m = ops.interp_centers(comps)
    speed = np.sqrt(np.sum(m * m, axis=-1))
    return float(np.max(speed - obs))


def pressure_project(v, dt):
    """Project a face field onto the divergence-free affine set.

    Returns (projected field, pressure = potential / dt, solver
    residual). The potential is mean-zero.
    """
    grid = v.grid
    out, phi = _project_affine(list(v.comps), grid.h)
    scale = max(1.0, float(np.abs(phi).max()) / min(grid.h) ** 2)
    residual = _affine_residual(phi, list(v.comps), grid.h) / scale
    return VectorField(grid, tuple(out)), ScalarField(grid, phi / dt), residual


def _shrink_cells(z, obs):
    """Group soft-threshold z_c max(0, 1 - r_c/|z_c|) per cell.

    The proximal map of the support function of the speed balls, i.e.
    z minus its projection onto the balls.
    """
    norm = np.sqrt(np.sum(z * z, axis=-1))
    keep = np.zeros_like(norm)
    np.divide(obs, norm, out=keep, where=norm > obs)
    np.subtract(1.0, keep, out=keep, where=norm > obs)
    return z * keep[..., None]


def project_K(v, obs, dt, feas_tol=FEAS_TOL, step_tol=STEP_TOL):
    """Metric projection onto K(obs) by an accelerated dual gradient.

    With M the face-to-center average and lam the per-cell multipliers
    of the speed balls, the primal point of lam is
    x(lam) = P_A(v - M^T lam), P_A the affine projection (one Poisson
    solve). FISTA with step 1 (valid since ||M P_A M^T|| <= ||M||^2 <= 1)
    ascends the dual, whose proximal step is a cellwise group
    soft-threshold; the momentum is reset whenever the dual step points
    against it (gradient restart, O'Donoghue & Candes 2015). x(.) is
    affine, so M x(y) at the extrapolated dual point y is extrapolated
    from the last two iterates and each iteration costs one solve.

    Starts from lam = 0 on every call. Returns (VectorField, pressure
    ScalarField, info dict); info["sweeps"] counts the iterations.
    Termination requires the speed excess and the divergence to sit
    under feas_tol *and* the last primal increment to be below
    step_tol; plain feasibility is reached early by iterates that are
    still far from the projection, so it alone is not a safe stop. The
    pressure is the potential of the final affine projection over dt.
    A non-finite excess or divergence (speeds whose squares overflow)
    raises StabilityError at once; no iteration can recover from it.
    """
    grid = v.grid
    h = grid.h
    r = obs.values
    lam = np.zeros(r.shape + (grid.dim,))
    y_in = list(v.comps)
    x, phi = _project_affine(y_in, h)
    m = ops.interp_centers(x)
    y, m_y, t = lam, m, 1.0
    for it in range(PROJECT_MAX_ITERS):
        lam_new = _shrink_cells(y + m_y, r)
        if not np.array_equal(lam_new, lam):
            # x(lam) moves only with lam; an unmoved dual keeps x and phi
            y_in = [a - b for a, b in zip(v.comps, ops.interp_centers_adjoint(lam_new))]
            x_new, phi = _project_affine(y_in, h)
            m_new = ops.interp_centers(x_new)
        else:
            x_new, m_new = x, m
        excess = float(np.max(np.sqrt(np.sum(m_new * m_new, axis=-1)) - r))
        dv = float(np.abs(ops.divergence(x_new, h)).max())
        if not (np.isfinite(excess) and np.isfinite(dv)):
            raise StabilityError(
                f"constraint projection met non-finite speeds (excess {excess:.3e}, "
                f"div {dv:.3e}); reduce dt or the forcing",
                residual=max(excess, dv),
            )
        inc = max(float(np.abs(a - b).max()) for a, b in zip(x_new, x))
        if excess <= feas_tol and dv <= feas_tol and inc <= step_tol:
            info = {
                "sweeps": it + 1,
                "max_excess": excess,
                "max_div": dv,
                "pressure_residual": _affine_residual(phi, y_in, h),
            }
            return VectorField(grid, tuple(x_new)), ScalarField(grid, phi / dt), info
        if np.sum((y - lam_new) * (lam_new - lam)) > 0.0:
            y, m_y, t = lam_new, m_new, 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            y = lam_new + beta * (lam_new - lam)
            m_y = m_new + beta * (m_new - m)
            t = t_new
        lam, x, m = lam_new, x_new, m_new
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


def step_flow(ws, v_star, u):
    """Project the predictor v_star onto K(r(u)), the biomass iterate's
    speed obstacle.

    Returns (VectorField, pressure ScalarField, FlowStepReport,
    ObstacleField). The pressure collects the affine multipliers of the
    projection scaled by 1/dt, mean-zero by construction.
    """
    obs = workspace_obstacle(ws, u)
    v_new, pressure, info = project_K(VectorField(ws.grid, tuple(v_star)), obs, ws.dt)
    report = FlowStepReport(
        dykstra_sweeps=info["sweeps"],
        max_excess=info["max_excess"],
        max_div=info["max_div"],
        pressure_residual=info["pressure_residual"],
    )
    return v_new, pressure, report, obs


def convection_form(a, b, c, grid):
    """Trilinear form <N(a, b), c> with h^n face weights."""
    adv = ops.mac_advection(a.comps, list(b.comps), grid.h)
    return ops.face_dot(adv, list(c.comps), grid.cell_volume)


def make_feasible(eta, obs_new, obs_old, mu):
    """Shrink a field feasible for obs_old into K(obs_new).

    Uses the uniform factor (1 - s/mu) with s the sup drift between the
    two obstacles. Valid whenever the old obstacle is at least mu on
    the cells where eta is active (the construction the compactness
    argument uses); collapses, hence errors, when s >= mu.
    """
    s = float(np.abs(obs_new.values - obs_old.values).max())
    if s >= mu:
        raise ValueError(
            f"obstacle drift {s:.3e} >= mu {mu:.3e}: feasibility scaling collapses"
        )
    factor = 1.0 - s / mu
    return VectorField(eta.grid, tuple(factor * c for c in eta.comps)), factor


# ---------------------------------------------------------------------------
# Energy and variational-inequality bookkeeping
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


@dataclass
class FlowTrajectory:
    """Per-step record needed by the inequality defect computation."""

    grid: object
    dt: float
    nu: float
    v: list = field(default_factory=list)  # N+1 velocity fields
    v_star: list = field(default_factory=list)  # N predictor fields
    g: list = field(default_factory=list)  # N forcing fields
    obstacles: list = field(default_factory=list)  # N obstacle cell arrays

    def start(self, v0):
        self.v = [VectorField(self.grid, tuple(c.copy() for c in v0.comps))]

    def append(self, v_new, v_star, g, obs_values):
        self.v.append(VectorField(self.grid, tuple(c.copy() for c in v_new.comps)))
        self.v_star.append(tuple(c.copy() for c in v_star))
        self.g.append(tuple(c.copy() for c in g.comps))
        self.obstacles.append(obs_values.copy())


def vi_residual(traj, etas, feas_tol=1e-7):
    """Global defect of the summed variational inequality.

    etas: one comparison field per step, each required to lie in the
    step's constraint set (checked up to feas_tol). Returns RHS - LHS of
    the summed inequality; for trajectories produced by the projection
    step this is nonnegative up to projection and rounding slack.
    """
    grid = traj.grid
    vol = grid.cell_volume
    h = grid.h
    dt = traj.dt
    n_steps = len(traj.v_star)
    if len(etas) != n_steps or len(traj.v) != n_steps + 1:
        raise ValueError("trajectory record and eta list lengths disagree")

    for n, eta in enumerate(etas):
        for ax, c in enumerate(eta.comps):
            b0 = float(np.abs(c[ops.axslice(grid.dim, ax, 0)]).max(initial=0.0))
            b1 = float(np.abs(c[ops.axslice(grid.dim, ax, -1)]).max(initial=0.0))
            if max(b0, b1) > feas_tol:
                raise ValueError(f"eta[{n}] has nonzero boundary faces")
        dv = float(np.abs(ops.divergence(list(eta.comps), h)).max())
        excess = constraint_excess(list(eta.comps), traj.obstacles[n])
        if dv > feas_tol or excess > feas_tol:
            raise ValueError(
                f"eta[{n}] infeasible: div {dv:.3e}, speed excess {excess:.3e}"
            )

    def dot(a, b):
        return ops.face_dot(list(a), list(b), vol)

    def norm_sq(a):
        return ops.face_l2_sq(list(a), vol)

    def diff(a, b):
        return [x - y for x, y in zip(a, b)]

    lhs = 0.5 * norm_sq(diff(traj.v[n_steps].comps, etas[n_steps - 1].comps))
    rhs = 0.5 * norm_sq(diff(traj.v[0].comps, etas[0].comps))
    for n in range(n_steps):
        vn = traj.v[n].comps
        vn1 = traj.v[n + 1].comps
        star = traj.v_star[n]
        eta = etas[n].comps
        eta_prev = etas[n - 1].comps if n > 0 else eta
        test = diff(vn1, eta)

        deta = diff(eta, eta_prev)
        lhs += dot(deta, diff(vn, eta_prev)) - 0.5 * norm_sq(deta)
        lhs += 0.5 * norm_sq(diff(vn1, vn))

        a_star = vector_laplacian(grid, star)
        lhs += dt * traj.nu * dot(a_star, test)
        adv = ops.mac_advection(list(vn), list(star), h)
        lhs += dt * dot(adv, test)
        rhs += dt * dot(traj.g[n], test)
    return float(rhs - lhs)
