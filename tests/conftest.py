"""Shared test fixtures and independent reference implementations.

The helpers here deliberately avoid the package's own operator kernels
wherever they serve as oracles: the dense projection reference builds
its constraint matrices by explicit row stuffing and solves the QP with
a general-purpose interior-point method, and the divergence-free field
factories construct exactness from stream functions / vector
potentials rather than from the solver's projection.

The convection probes of C05 and the variational-inequality oracle of
C11 are the exception, on purpose: they check discrete identities of
the solver's own operators (skewness of its advection forms, the summed
inequality of its flow steps), so they are built from those operators.
The oracle applies the viscous operator A through the assembled
``component_laplacian`` blocks, though, not through the solver's sine
transforms.
The full-length Anderson iteration is another: it is ``project_K``'s
algorithm with every vector kept at full length, a reference for the
solver's packed history, so it uses the solver's affine projection and
soft-threshold.
The spies watch the coupling loop's inner solves without changing them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import LinearConstraint, NonlinearConstraint, lsq_linear, minimize

from biofilmflow import coupling, flow
from biofilmflow import operators as ops
from biofilmflow.constitutive import ModelParams, biomass_diffusion_reg_deriv
from biofilmflow.flow import workspace_obstacle
from biofilmflow.grid import Grid, VectorField, build_grid, edge_axis_side


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


def face_dot(a, b, cell_volume):
    """Inner product of two face fields, every face weighted by h^n."""
    return float(sum(np.sum(x * y) for x, y in zip(a, b)) * cell_volume)


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
# assembled CSR operators (oracles for the stencils and the transforms)
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


def scalar_laplacian_csr(grid):
    """Assembled scalar stiffness with Dirichlet faces on gamma0 edges
    (oracle for ``operators.scalar_laplacian_gamma0``)."""
    ops_1d = []
    for ax in range(grid.dim):
        ends = ["neumann", "neumann"]
        for name in grid.gamma0_edges:
            eax, side = edge_axis_side(name, grid.dim)
            if eax == ax:
                ends[side] = "dirichlet_face"
        ops_1d.append(laplace_1d(grid.cells[ax], grid.h[ax], *ends))
    return kron_sum(ops_1d)


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
                laplace_1d(grid.cells[ax], grid.h[ax], "dirichlet_face", "dirichlet_face")
            )
    return kron_sum(blocks)


# ---------------------------------------------------------------------------
# assembled biomass Jacobian (oracle for the matrix-free Newton directions)
# ---------------------------------------------------------------------------

def biomass_jacobian(x, growth, ws, dt):
    """Newton matrix I/dt + diag(b - growth) + S diag(beta'(x)), convection
    frozen (see the biomass module docstring).

    S is weakly column diagonally dominant with nonpositive off-diagonals
    and beta' >= 0, so the matrix is strictly column diagonally dominant by
    1/dt + b - growth wherever that is positive. The product drops the
    columns of S whose slope is zero, and the sparsity pattern follows.
    """
    slope = biomass_diffusion_reg_deriv(x, ws.params).ravel()
    return (
        sp.identity(x.size, format="csr") / dt
        + sp.diags((ws.params.b - growth).ravel())
        + scalar_laplacian_csr(ws.grid) @ sp.diags(slope)
    )


# ---------------------------------------------------------------------------
# dense reference projection onto {div-free, zero boundary} ∩ {speed balls},
# and the face operators the dual projection composes, as oracles
# ---------------------------------------------------------------------------

def _sl(nd, axis, s):
    out = [slice(None)] * nd
    out[axis] = s
    return tuple(out)


def gradient_faces(phi, h):
    """Face-centered gradient of a cell field; boundary faces get 0."""
    nd = phi.ndim
    out = []
    for ax in range(nd):
        shape = list(phi.shape)
        shape[ax] += 1
        g = np.zeros(shape)
        g[_sl(nd, ax, slice(1, -1))] = np.diff(phi, axis=ax) / h[ax]
        out.append(g)
    return out


def neumann_laplacian_apply(phi, h):
    """The 5/7-point no-flux Laplacian that ``poisson_neumann`` inverts,
    applied matrix-free, for residual checks: each interior face's flux
    goes into its low cell and out of its high one."""
    nd = phi.ndim
    out = np.zeros(phi.shape)
    for ax in range(nd):
        flux = np.diff(phi, axis=ax) / h[ax] / h[ax]
        out[_sl(nd, ax, slice(None, -1))] += flux
        out[_sl(nd, ax, slice(1, None))] -= flux
    return out


def interp_centers_adjoint(m):
    """Transpose of ``center_average``: spread (dim, *cells) data onto
    the faces, row ax half to each of a cell's two faces along ax."""
    nd = len(m)
    out = []
    for ax, c in enumerate(m):
        half = 0.5 * c
        shape = list(half.shape)
        shape[ax] += 1
        f = np.zeros(shape)
        f[_sl(nd, ax, slice(None, -1))] += half
        f[_sl(nd, ax, slice(1, None))] += half
        out.append(f)
    return out


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


def full_anderson_projection(v, obs, start, feas_tol, step_tol):
    """``project_K``'s Anderson-accelerated dual iteration, started from
    start and stopped at feas_tol and step_tol, with the residual differences, the Gram
    matrix and the correction formed on every multiplier entry, newest
    history column last and nothing updated in place. Returns (velocity
    comps, iterations)."""
    h = v.grid.h
    x, _, lam = start
    x = list(x.comps)
    m = ops.center_average(x)
    d_f, d_g, f_prev, best = [], [], None, np.inf
    for it in range(1, 100000):
        g = flow._shrink_cells(lam + m, obs)
        f = (g - lam).ravel()
        fsq = f @ f
        if f_prev is None or fsq > 4.0 * best:
            d_f, d_g, lam_new = [], [], g
        else:
            d_f = (d_f + [f - f_prev])[-flow.ANDERSON_DEPTH:]
            d_g = (d_g + [(g - g_prev).ravel()])[-flow.ANDERSON_DEPTH:]
            df = np.array(d_f)
            gram = df @ df.T
            gram += flow.ANDERSON_REG * max(np.trace(gram), np.finfo(float).tiny) * np.eye(len(df))
            gamma = np.linalg.solve(gram, df @ f)
            lam_new = g - (gamma @ np.array(d_g)).reshape(g.shape)
        best = min(best, fsq)
        f_prev, g_prev = f, g
        x_new, _ = flow._project_affine(v.comps, h, lam_new)
        m_new = ops.center_average(x_new)
        excess = (ops.cell_norm(m_new) - obs).max()
        div = np.abs(ops.divergence(x_new, h)).max()
        floor = flow.DIV_ROUNDING * np.finfo(float).eps * max(np.abs(c).max() for c in x_new) / min(h)
        inc = max(np.abs(a - b).max() for a, b in zip(x_new, x))
        if excess <= feas_tol and div <= max(feas_tol, floor) and inc <= step_tol:
            return x_new, it
        lam, x, m = lam_new, x_new, m_new
    raise AssertionError("the full-length Anderson iteration did not settle")


# ---------------------------------------------------------------------------
# spies on the coupling loop's inner solves
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def spy_calls(module, *names):
    """Replace the named functions of ``module`` by spies that call them
    unchanged; yields one list that gets (name, args, kwargs, result) per
    call, in call order. The originals are back on exit."""
    log = []

    def spy(name, fn):
        def watched(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((name, args, kwargs, out))
            return out

        return watched

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(module, name, spy(name, getattr(module, name)))
        yield log


def recorded_run(cfg):
    """``coupling.run(cfg)`` with its accepted flow sub-steps recorded;
    returns (final SimState, StepDiagnostics list, FlowTrajectory).

    Each step calls the predictor once, then ``step_flow`` once per
    coupling round; the step's last ``step_flow`` call is its accepted
    round. The record keeps the predictor's start velocity, v*, and
    forcing, the accepted velocity, and the obstacle of the accepted
    round's biomass iterate.
    """
    with spy_calls(coupling, "predict_velocity", "step_flow") as log:
        state, diags, _ = coupling.run(cfg)
    steps = []  # per step: predictor args, its result, the last step_flow's (args, result)
    for name, args, _, out in log:
        if name == "predict_velocity":
            steps.append([args, out, None])
        else:
            steps[-1][2] = (args, out)
    traj = FlowTrajectory(cfg.grid, cfg.dt, cfg.params.nu)
    traj.start(steps[0][0][1] if steps else state.v)
    for (_, _, g), (v_star, _, _), ((ws, _, u), (v_new, _, _)) in steps:
        traj.append(v_new, v_star, g, workspace_obstacle(ws, u))
    return state, diags, traj


# ---------------------------------------------------------------------------
# convection probes (C05): skewness of the solver's advection forms
# ---------------------------------------------------------------------------

def centered_flux_divergence(c, v, h):
    """div(c v) with two-point averaged face values (energy form).

    Against c itself this form is skew for discretely divergence-free
    v with zero boundary faces.
    """
    nd = c.ndim
    faces = []
    for ax in range(nd):
        vf = v[ax][ops.axslice(nd, ax, slice(1, -1))]
        avg = 0.5 * (
            c[ops.axslice(nd, ax, slice(None, -1))] + c[ops.axslice(nd, ax, slice(1, None))]
        )
        faces.append(vf * avg / h[ax])
    return ops.scatter_faces(faces)


def skew_convection_check(w, v, grid):
    """Energy pairing <div_c(w v), w> of the centered transport operator.

    Vanishes to rounding for discretely divergence-free v with zero
    boundary faces.
    """
    flux = centered_flux_divergence(w.values, v.comps, grid.h)
    return float(np.sum(flux * w.values) * grid.cell_volume)


def convection_form(a, b, c, grid):
    """Trilinear form <N(a, b), c> of ``ops.mac_advection`` with h^n face
    weights."""
    adv = ops.mac_advection(a.comps, list(b.comps), grid.h)
    return face_dot(adv, list(c.comps), grid.cell_volume)


# ---------------------------------------------------------------------------
# the summed variational inequality of the flow steps (C11)
# ---------------------------------------------------------------------------

def constraint_excess(comps, obs):
    """Largest cell speed of a face field above the obstacle cell array."""
    return float(np.max(ops.cell_norm(ops.center_average(comps)) - obs))


def make_feasible(eta, obs_new, obs_old, mu):
    """Shrink a field feasible for obs_old into K(obs_new), both obstacles
    cell arrays.

    Uses the uniform factor (1 - s/mu) with s the sup drift between the
    two obstacles. Valid whenever the old obstacle is at least mu on
    the cells where eta is active (the construction the compactness
    argument uses); collapses, hence errors, when s >= mu.
    """
    s = float(np.abs(obs_new - obs_old).max())
    if s >= mu:
        raise ValueError(
            f"obstacle drift {s:.3e} >= mu {mu:.3e}: feasibility scaling collapses"
        )
    factor = 1.0 - s / mu
    return VectorField(eta.grid, tuple(factor * c for c in eta.comps)), factor


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

    def append(self, v_new, v_star, g, obstacle):
        self.v.append(VectorField(self.grid, tuple(c.copy() for c in v_new.comps)))
        self.v_star.append(tuple(c.copy() for c in v_star))
        self.g.append(tuple(c.copy() for c in g.comps))
        self.obstacles.append(obstacle.copy())


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
        return face_dot(list(a), list(b), vol)

    def norm_sq(a):
        return ops.face_l2_sq(list(a), vol)

    blocks = [component_laplacian(grid, ax) for ax in range(grid.dim)]

    def apply_a(comps):
        out = []
        for ax, c in enumerate(comps):
            x = ops.interior_faces(c, ax)
            out.append(ops.embed_interior((blocks[ax] @ x.ravel()).reshape(x.shape), grid, ax))
        return out

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

        lhs += dt * traj.nu * dot(apply_a(star), test)
        adv = ops.mac_advection(list(vn), list(star), h)
        lhs += dt * dot(adv, test)
        rhs += dt * dot(traj.g[n], test)
    return float(rhs - lhs)
