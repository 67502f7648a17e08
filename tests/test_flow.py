"""Tests for the constrained flow step and its projection machinery."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import fft

from conftest import (
    FlowTrajectory,
    build_dense_constraints,
    component_laplacian,
    constraint_excess,
    convection_form,
    dense_projection_reference,
    face_dot,
    face_layout,
    full_anderson_projection,
    gradient_faces,
    interp_centers_adjoint,
    kkt_certificate,
    make_feasible,
    neumann_laplacian_apply,
    pack,
    stream_field_2d,
    vi_residual,
)

from biofilmflow import flow
from biofilmflow import operators as ops
from biofilmflow.constitutive import speed_limit, speed_limit_reg
from biofilmflow.errors import ConfigError, NonConvergenceError, StabilityError
from biofilmflow.flow import (
    flow_energy_check,
    make_flow_workspace,
    poincare_constant,
    pressure_project,
    predict_velocity,
    project_K,
    step_flow,
    workspace_obstacle,
)
from biofilmflow.grid import Grid, ScalarField, VectorField, build_grid


def _workspace(params, cells=(16, 16), dt=1e-3, gamma0=("left",)):
    g = build_grid(2, (1.0, 1.0), cells, gamma0)
    return make_flow_workspace(g, params, dt), g


def _full_step(ws, v, u, gforce):
    """Predictor, then projection: (v_new, pressure, report, obstacle, v*, viscous)."""
    star, _, viscous = predict_velocity(ws, v, gforce)
    v_new, pressure, rep = step_flow(ws, star, u)
    return v_new, pressure, rep, workspace_obstacle(ws, u), star, viscous


# --- obstacle construction ---------------------------------------------------

def test_obstacle_from_clear_fluid(params):
    ws, g = _workspace(params)
    obs = workspace_obstacle(ws, ScalarField.zeros(g))
    top = speed_limit_reg(0.0, params)
    assert np.allclose(obs, top, rtol=0, atol=1e-15)
    # clear fluid: the bound sits at the regularized cap, near p0(mu)
    assert top == pytest.approx(speed_limit(params.mu, params), rel=1e-6)


def test_obstacle_solid_block_floor(params):
    ws, g = _workspace(params, cells=(32, 32))
    u = ScalarField.zeros(g)
    u.values[10:22, 10:22] = params.u_star
    obs = workspace_obstacle(ws, u)
    # deeper than the smoothing radius the density is exactly u*, so the
    # bound is the regularized floor mu
    inner = obs[14:18, 14:18]
    assert np.allclose(inner, params.mu, rtol=0, atol=1e-12)
    assert obs.min() >= params.mu - 1e-12


def test_obstacle_monotone_in_biomass(params):
    ws, g = _workspace(params)
    rng = np.random.default_rng(0)
    u1 = ScalarField(g, rng.uniform(0.0, 0.5, g.cells))
    u2 = ScalarField(g, np.minimum(u1.values + rng.uniform(0.0, 0.4, g.cells), params.u_star))
    o1 = workspace_obstacle(ws, u1)
    o2 = workspace_obstacle(ws, u2)
    assert np.all(o2 <= o1 + 1e-12)


# --- convection form ---------------------------------------------------------

def _random_zero_boundary(g, rng):
    comps = []
    for ax in range(g.dim):
        c = rng.standard_normal(g.face_shape(ax))
        c[ops.axslice(g.dim, ax, 0)] = 0.0
        c[ops.axslice(g.dim, ax, -1)] = 0.0
        comps.append(c)
    return VectorField(g, tuple(comps))


def test_convection_skew_identities(params):
    g = Grid((1.0, 1.3), (12, 10))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = stream_field_2d(g, rng, amplitude=1.0)
        b = _random_zero_boundary(g, rng)
        c = _random_zero_boundary(g, rng)
        scale = (
            np.sqrt(ops.face_l2_sq(list(a.comps), g.cell_volume))
            * np.sqrt(ops.face_l2_sq(list(b.comps), g.cell_volume))
            * np.sqrt(ops.face_l2_sq(list(c.comps), g.cell_volume))
            / min(g.h)
        )
        sym = convection_form(a, b, c, g) + convection_form(a, c, b, g)
        assert abs(sym) <= 1e-12 * scale
        assert abs(convection_form(a, b, b, g)) <= 1e-12 * scale
        zero = VectorField.zeros(g)
        assert convection_form(zero, b, c, g) == 0.0


def _mac_sample(g, fx, fy):
    nodes = [np.arange(g.cells[ax] + 1) * g.h[ax] for ax in range(2)]
    cents = [(np.arange(g.cells[ax]) + 0.5) * g.h[ax] for ax in range(2)]
    X, Y = np.meshgrid(nodes[0], cents[1], indexing="ij")
    cx = fx(X, Y)
    X, Y = np.meshgrid(cents[0], nodes[1], indexing="ij")
    cy = fy(X, Y)
    return VectorField(g, (cx, cy))


def test_convection_form_consistency_order(params):
    # smooth transported/test fields on the unit square, all components
    # vanishing on the boundary; reference value by Gauss-Legendre quadrature
    pi = np.pi
    # exponential modulation keeps the reference integral away from zero
    # (pure trig products cancel by orthogonality)
    ax_f = lambda x, y: np.sin(pi * x) ** 2 * np.sin(2 * pi * y)
    ay_f = lambda x, y: -np.sin(2 * pi * x) * np.sin(pi * y) ** 2
    bx_f = lambda x, y: np.sin(pi * x) * np.sin(pi * y) * np.exp(x)
    by_f = lambda x, y: np.sin(2 * pi * x) * np.sin(pi * y) * np.exp(-y)
    cx_f = lambda x, y: np.sin(pi * x) * np.sin(2 * pi * y) * np.exp(y)
    cy_f = lambda x, y: np.sin(pi * x) * np.sin(pi * y) * np.exp(x - y)

    def integrand(x, y):
        ax, ay = ax_f(x, y), ay_f(x, y)
        dbx_dx = np.exp(x) * np.sin(pi * y) * (pi * np.cos(pi * x) + np.sin(pi * x))
        dbx_dy = pi * np.sin(pi * x) * np.cos(pi * y) * np.exp(x)
        dby_dx = 2 * pi * np.cos(2 * pi * x) * np.sin(pi * y) * np.exp(-y)
        dby_dy = np.sin(2 * pi * x) * np.exp(-y) * (pi * np.cos(pi * y) - np.sin(pi * y))
        return (ax * dbx_dx + ay * dbx_dy) * cx_f(x, y) + (
            ax * dby_dx + ay * dby_dy
        ) * cy_f(x, y)

    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1.0)
    wq = 0.5 * weights
    X, Y = np.meshgrid(t, t, indexing="ij")
    ref = float(np.einsum("i,j,ij->", wq, wq, integrand(X, Y)))

    errs = []
    for n in (16, 32):
        g = Grid((1.0, 1.0), (n, n))
        a = _mac_sample(g, ax_f, ay_f)
        b = _mac_sample(g, bx_f, by_f)
        c = _mac_sample(g, cx_f, cy_f)
        errs.append(abs(convection_form(a, b, c, g) - ref))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


# --- predictor ---------------------------------------------------------------

def test_predict_zero_is_fixed_point(params):
    ws, g = _workspace(params)
    comps, iters, viscous = predict_velocity(ws, VectorField.zeros(g), VectorField.zeros(g))
    assert all(np.all(c == 0.0) for c in comps)
    assert viscous == 0.0


def test_predict_matches_direct_helmholtz_solve(params):
    # with zero transporting velocity the predictor reduces to one linear
    # solve per component; reproduce it with an assembled factorization
    ws, g = _workspace(params, cells=(12, 10))
    rng = np.random.default_rng(1)
    gforce = _random_zero_boundary(g, rng)
    comps, _, _ = predict_velocity(ws, VectorField.zeros(g), gforce)
    dt = ws.dt
    for ax in range(2):
        A = component_laplacian(g, ax)
        M = sp.identity(A.shape[0], format="csr") + dt * params.nu * A
        rhs = dt * ops.interior_faces(gforce.comps[ax], ax).ravel()
        ref = spla.spsolve(M.tocsc(), rhs)
        got = ops.interior_faces(comps[ax], ax).ravel()
        assert np.abs(got - ref).max() < 1e-12
        # boundary faces of the predictor stay pinned at zero
        assert np.abs(comps[ax][ops.axslice(2, ax, 0)]).max() == 0.0
        assert np.abs(comps[ax][ops.axslice(2, ax, -1)]).max() == 0.0


def test_predict_matches_direct_convective_solve(params):
    # with a transporting velocity the predictor's fixed point solves
    # (I + dt nu A + dt N(v_old, .)) v* = v_old + dt g, which couples the
    # components; assemble N column by column from mac_advection and solve
    # the whole system directly
    ws, g = _workspace(params, cells=(12, 10), dt=0.02)
    rng = np.random.default_rng(4)
    v = stream_field_2d(g, rng, amplitude=2.0)
    gforce = _random_zero_boundary(g, rng)
    comps, passes, _ = predict_velocity(ws, v, gforce)
    assert passes > 2

    def inner(field):
        return np.concatenate([ops.interior_faces(c, ax).ravel() for ax, c in enumerate(field)])

    shapes = [ops.interior_faces(c, ax).shape for ax, c in enumerate(v.comps)]
    ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    n = int(ends[-1])
    conv = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        field = [
            ops.embed_interior(e[ends[ax]:ends[ax + 1]].reshape(shapes[ax]), g, ax)
            for ax in range(g.dim)
        ]
        conv[:, j] = inner(ops.mac_advection(v.comps, field, g.h))
    lap = sp.block_diag([component_laplacian(g, ax) for ax in range(g.dim)])
    system = sp.identity(n) + ws.dt * params.nu * lap + ws.dt * sp.csr_matrix(conv)
    rhs = inner(v.comps) + ws.dt * inner(gforce.comps)
    ref = spla.spsolve(system.tocsc(), rhs)
    got = inner(comps)
    assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(got).max())


def test_predictor_that_does_not_contract_raises(params, monkeypatch):
    # at an advective CFL near 50 each pass grows the increment by a
    # bounded factor, so the iterates stay finite for all PREDICT_MAX_ITERS
    # passes; the contraction stop needs rho < 1 and never ends them early
    ws, g = _workspace(params, cells=(12, 10), dt=0.2)
    v = stream_field_2d(g, np.random.default_rng(3), amplitude=20.0)
    passes = []
    advect = ops.mac_advection
    monkeypatch.setattr(ops, "mac_advection", lambda *a: passes.append(1) or advect(*a))
    with pytest.raises(StabilityError, match="failed to contract") as exc:
        predict_velocity(ws, v, VectorField.zeros(g))
    assert len(passes) == flow.PREDICT_MAX_ITERS
    assert 1.0 < exc.value.residual < np.inf


@pytest.mark.parametrize(
    "extents, cells",
    [
        ((2.0, 0.7), (17, 9)),
        ((1.0, 0.3), (12, 1)),
        ((1.0, 2.0, 3.0), (5, 6, 7)),
        ((1.5, 0.4, 1.0), (4, 1, 3)),
    ],
)
def test_helmholtz_transform_solve_residual(params, extents, cells):
    # at rest the predictor is one sine-transform solve per component;
    # apply the assembled block I + c A to its output and compare with
    # the right-hand side (dt large, so the Laplacian dominates)
    g = build_grid(len(cells), extents, cells, ("left",))
    dt = 0.5
    ws = make_flow_workspace(g, params, dt)
    rng = np.random.default_rng(sum(cells))
    gforce = VectorField(g, tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(g.dim)))
    comps, _, _ = predict_velocity(ws, VectorField.zeros(g), gforce)
    for ax in range(g.dim):
        A = component_laplacian(g, ax)
        x = ops.interior_faces(comps[ax], ax).ravel()
        rhs = dt * ops.interior_faces(gforce.comps[ax], ax).ravel()
        assert x.size == A.shape[0]
        if x.size == 0:
            continue
        res = x + dt * params.nu * (A @ x) - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize(
    "extents, cells",
    [
        ((1.0, 1.0), (64, 64)),
        ((2.0, 0.7), (17, 9)),
        ((1.0, 0.3), (12, 1)),
        ((1.0, 2.0, 3.0), (5, 6, 7)),
        ((1.0, 1.0, 1.0), (24, 24, 24)),
        ((1.5, 0.4, 1.0), (4, 1, 3)),
    ],
)
def test_vector_laplacian_matches_assembled_operator(params, extents, cells):
    # the predictor's viscous form (A v*, v*) h^n, read from its sine
    # coefficients, against x^T A x h^n of the Kronecker-assembled blocks
    g = build_grid(len(cells), extents, cells, ("left",))
    ws = make_flow_workspace(g, params, 0.5)
    rng = np.random.default_rng(sum(cells))
    gforce = VectorField(g, tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(g.dim)))
    comps, _, viscous = predict_velocity(ws, VectorField.zeros(g), gforce)
    ref = 0.0
    for ax in range(g.dim):
        x = ops.interior_faces(comps[ax], ax).ravel()
        ref += float(x @ (component_laplacian(g, ax) @ x))
    ref *= g.cell_volume
    assert abs(viscous - ref) <= 1e-13 * ref


@pytest.mark.parametrize(
    "extents, cells",
    [
        ((2.0, 0.7), (40, 17)),
        ((1.0, 0.3), (12, 1)),
        ((1.0, 2.0, 3.0), (5, 6, 7)),
        ((1.5, 0.4, 1.0), (24, 9, 13)),
    ],
)
def test_sine_apply_matches_scipy_fft(extents, cells):
    # the transform matrices against scipy.fft's orthonormal DST-I/DST-II
    # in the Helmholtz solve; the coefficients returned are the divided ones
    g = build_grid(len(cells), extents, cells, ("left",))
    rng = np.random.default_rng(sum(cells))
    for ax in range(g.dim):
        lam = flow._sine_eigenvalues(g, ax)
        x = rng.standard_normal(lam.shape)
        if x.size == 0:
            continue
        kinds = [1 if a == ax else 2 for a in range(g.dim)]
        diag = 1.0 + 0.3 * lam
        coef = x
        for a, kind in enumerate(kinds):
            coef = fft.dst(coef, type=kind, axis=a, norm="ortho")
        coef = coef / diag
        ref = coef
        for a, kind in enumerate(kinds):
            ref = fft.idst(ref, type=kind, axis=a, norm="ortho")
        got, got_coef = flow._sine_apply(x, diag, ax)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(got_coef - coef).max() <= 1e-12 * np.abs(coef).max()


def test_sine_eigenvalues_built_once_per_grid():
    g = build_grid(3, (1.0, 2.0, 3.0), (5, 6, 7), ("left",))
    lam = flow._sine_eigenvalues(g, 1)
    assert not lam.flags.writeable
    assert flow._sine_eigenvalues(build_grid(3, (1.0, 2.0, 3.0), (5, 6, 7), ("left",)), 1) is lam


def test_predict_unforced_contracts_kinetic_energy(params):
    ws, g = _workspace(params)
    rng = np.random.default_rng(2)
    v0 = stream_field_2d(g, rng, amplitude=1.0)
    comps, _, viscous = predict_velocity(ws, v0, VectorField.zeros(g))
    assert viscous > 0.0
    e0 = ops.face_l2_sq(list(v0.comps), g.cell_volume)
    e1 = ops.face_l2_sq(comps, g.cell_volume)
    assert e1 <= e0 * (1.0 + 1e-12)


# --- elementary projections --------------------------------------------------

def test_pressure_project_contracts(params):
    g = Grid((1.0, 1.5), (12, 10))
    rng = np.random.default_rng(3)
    comps = tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(2))
    v = VectorField(g, comps)
    out, pressure = pressure_project(v, dt=1e-3)
    vmax = max(float(np.abs(c).max()) for c in out.comps)
    div = np.abs(ops.divergence(list(out.comps), g.h)).max()
    assert div <= 1e-12 * (vmax / min(g.h) + 1.0)
    # the potential solves the no-flux Poisson problem for the divergence
    # of v with its boundary faces zeroed
    walled = [c.copy() for c in comps]
    for ax, c in enumerate(walled):
        c[ops.axslice(2, ax, 0)] = 0.0
        c[ops.axslice(2, ax, -1)] = 0.0
    phi = pressure.values * 1e-3
    scale = max(1.0, float(np.abs(phi).max()) / min(g.h) ** 2)
    lap = neumann_laplacian_apply(phi, g.h) - ops.divergence(walled, g.h)
    assert float(np.abs(lap).max()) / scale < 1e-10
    for ax in range(2):
        assert np.abs(out.comps[ax][ops.axslice(2, ax, 0)]).max() == 0.0
        assert np.abs(out.comps[ax][ops.axslice(2, ax, -1)]).max() == 0.0
    # idempotent
    again, _ = pressure_project(out, dt=1e-3)
    assert max(np.abs(a - b).max() for a, b in zip(again.comps, out.comps)) < 1e-12
    assert abs(pressure.values.mean()) < 1e-12


def test_pressure_project_annihilates_gradients(params):
    g = Grid((1.0, 1.0), (14, 14))
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(g.cells)
    grad = gradient_faces(phi, g.h)
    out, _ = pressure_project(VectorField(g, tuple(grad)), dt=1.0)
    scale = max(np.abs(c).max() for c in grad)
    assert max(np.abs(c).max() for c in out.comps) < 1e-11 * scale


def test_pressure_project_keeps_solenoidal_fields(params):
    g = Grid((1.0, 1.0), (16, 16))
    v = stream_field_2d(g, np.random.default_rng(5), amplitude=1.0)
    out, _ = pressure_project(v, dt=1.0)
    assert max(np.abs(a - b).max() for a, b in zip(out.comps, v.comps)) < 1e-12


@pytest.mark.parametrize("cells", [(12, 10), (5, 4, 6)])
def test_project_affine_equals_the_composed_projection(cells):
    # P_A(v - M^T lam) on interior faces only has the bits of the
    # composition of full face arrays it replaces, signed zeros included:
    # the adjoint sums -0.0 + -0.0 to +0.0, and on a field at rest the
    # sign of a zero reaches the result
    g = Grid((1.0,) * len(cells), cells)
    rng = np.random.default_rng(13)
    comps = [rng.standard_normal(g.face_shape(ax)) for ax in range(g.dim)]
    lam = np.stack([rng.standard_normal(g.cells) for _ in range(g.dim)])
    lam[:, 1:3] = 0.0
    lam[0, 1:3] *= -1.0
    rest = [np.full(c.shape, -0.0) for c in comps]
    zero = np.zeros(lam.shape)
    for field, mult in ((comps, zero), (comps, lam), (rest, np.full(lam.shape, -0.0))):
        y = [a - b for a, b in zip(field, interp_centers_adjoint(mult))]
        for ax, c in enumerate(y):
            c[ops.axslice(g.dim, ax, 0)] = 0.0
            c[ops.axslice(g.dim, ax, -1)] = 0.0
        rhs = ops.divergence(y, g.h)
        phi = ops.poisson_neumann(rhs, g.h)
        ref = [a - b for a, b in zip(y, gradient_faces(phi, g.h))]
        x, phi_got = flow._project_affine(field, g.h, mult)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(x, ref))
        assert phi_got.tobytes() == phi.tobytes()


# --- metric projection onto the constraint set -------------------------------

def test_project_K_fixes_feasible_input(params):
    g = Grid((1.0, 1.0), (12, 12))
    v = stream_field_2d(g, np.random.default_rng(7), amplitude=0.01)
    obs = np.full(g.cells, 9.0)
    out, pressure, rep = project_K(v, obs, dt=1e-3)
    assert max(np.abs(a - b).max() for a, b in zip(out.comps, v.comps)) < 1e-14
    assert rep.dykstra_sweeps <= 2
    assert np.abs(pressure.values).max() < 1e-12


def test_project_K_with_loose_obstacle_is_leray(params):
    g = Grid((1.0, 1.0), (10, 10))
    rng = np.random.default_rng(8)
    comps = tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(2))
    v = VectorField(g, comps)
    obs = np.full(g.cells, 1e6)
    got, p_got, rep = project_K(v, obs, dt=1e-3)
    ref, p_ref = pressure_project(v, dt=1e-3)
    assert max(np.abs(a - b).max() for a, b in zip(got.comps, ref.comps)) < 1e-10
    assert np.abs(p_got.values - p_ref.values).max() < 1e-7 * np.abs(p_ref.values).max()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_project_K_fails_fast_on_nonfinite_speeds(params):
    # finite face speeds whose squares overflow: no iteration can make the
    # excess finite, so the projection stops at its first one rather than
    # spending its whole iteration budget
    ws, g = _workspace(params, cells=(8, 4), dt=0.04)
    vy = np.full(g.face_shape(1), 4e304)
    vy[:, [0, -1]] = 0.0  # the walls' own faces stay closed
    star = VectorField(g, (np.zeros(g.face_shape(0)), vy))
    assert all(np.isfinite(c).all() for c in star.comps)
    obs = workspace_obstacle(ws, ScalarField.zeros(g))
    with pytest.raises(StabilityError, match="non-finite"):
        project_K(star, obs, ws.dt)


def test_project_K_that_cannot_settle_hits_the_iteration_cap(params, monkeypatch):
    # a negative increment bound lets no iterate pass the test; the
    # inactive obstacle keeps the dual point fixed, and a history of zero
    # residual differences must still end at the cap, not in a singular
    # least-squares solve
    monkeypatch.setattr(flow, "PROJECT_MAX_ITERS", 30)
    g = Grid((1.0, 1.0), (16, 16))
    rng = np.random.default_rng(14)
    v = VectorField(g, tuple(1e8 * rng.standard_normal(g.face_shape(ax)) for ax in range(2)))
    with pytest.raises(NonConvergenceError, match="did not settle in 30 iterations"):
        project_K(v, np.full(g.cells, 1e12), dt=1.0, step_tol=-1.0)


def test_project_K_of_a_fast_field_stops_at_its_rounding_floor(params):
    # at speeds of 1e8 rounding alone leaves the exact affine projection's
    # divergence near 1e-5, far above FEAS_TOL; the bound's rounding floor
    # accepts it at once, where an absolute bound ran the whole budget
    g = Grid((1.0, 1.0), (16, 16))
    rng = np.random.default_rng(14)
    v = VectorField(g, tuple(1e8 * rng.standard_normal(g.face_shape(ax)) for ax in range(2)))
    out, _, rep = project_K(v, np.full(g.cells, 1e12), dt=1.0)
    assert rep.dykstra_sweeps == 1
    scale = max(np.abs(c).max() for c in out.comps)
    assert flow.FEAS_TOL < rep.max_div <= flow.DIV_ROUNDING * np.finfo(float).eps * scale / min(g.h)
    assert rep.tight


@pytest.mark.filterwarnings("error")
def test_predictor_rejects_nonfinite_viscous_form(params):
    # v* stays finite (about 4e304), but (A v*, v*) overflows: the
    # predictor raises before that value reaches the energy ledger, and
    # without an overflow warning on the way
    ws, g = _workspace(params, cells=(8, 4), dt=0.04)
    gforce = VectorField(g, (np.full(g.face_shape(0), 4.2), np.full(g.face_shape(1), 1e306)))
    with pytest.raises(StabilityError, match="non-finite"):
        predict_velocity(ws, VectorField.zeros(g), gforce)


def _check_against_dense_oracle(cells, first_seed, warm=False):
    # small instances against an independent dense constrained solver;
    # warm starts each projection from the result of the same field
    # projected onto a tighter, unrelated obstacle
    for seed in range(first_seed, first_seed + 3):
        rng = np.random.default_rng(seed)
        g = Grid((1.0,) * len(cells), cells)
        comps = tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(g.dim))
        obs = rng.uniform(0.25, 0.6, g.cells)
        start = None
        if warm:
            other = rng.uniform(0.05, 0.2, g.cells)
            x, p, rep = project_K(VectorField(g, comps), other, dt=1.0)
            start = (x, p, rep.lam)
        out, _, rep = project_K(
            VectorField(g, comps), obs, dt=1.0,
            feas_tol=1e-10, step_tol=1e-12, start=start,
        )
        ref, cert = dense_projection_reference([c.copy() for c in comps], obs, g.h)
        assert cert["stat"] < 1e-7, f"reference KKT stationarity {cert['stat']:.2e}"
        gap = max(np.abs(a - b).max() for a, b in zip(out.comps, ref))
        assert gap < 1e-6
        assert rep.max_excess <= 1e-10
        assert rep.max_div <= 1e-10


def test_project_K_matches_dense_oracle(params):
    _check_against_dense_oracle((4, 4), 40)


def test_project_K_matches_dense_oracle_3d(params):
    _check_against_dense_oracle((3, 3, 3), 60)


@pytest.mark.parametrize("cells, first_seed", [((4, 4), 40), ((3, 3, 3), 60)])
def test_project_K_warm_started_elsewhere_matches_dense_oracle(params, cells, first_seed):
    # multipliers are a starting point only: the limit is the projection
    # onto the obstacle at hand, whatever they came from
    _check_against_dense_oracle(cells, first_seed, warm=True)


@pytest.mark.parametrize("cells, seed, share", [((4, 4), 43, 1.0), ((3, 3, 3), 40, 0.5)])
def test_project_K_support_grows_after_the_history_exists(params, cells, seed, share, monkeypatch):
    # the start binds in one cell only; the obstacle halves that cell's
    # bound and sits 5% above the start's speed in the fastest share of
    # the cells, so more cells bind as the flow moves and multiplier
    # entries join once the Anderson history holds columns. The packed
    # history follows the full-length one, where only the summation order
    # may move the stop by an iteration, and the limit is the dense QP's
    rng = np.random.default_rng(seed)
    g = Grid((1.0,) * len(cells), cells)
    comps = tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(g.dim))
    v = VectorField(g, comps)
    speed = ops.cell_norm(ops.center_average(pressure_project(v, dt=1.0)[0].comps))
    fastest = np.unravel_index(np.argmax(speed), g.cells)
    loose = np.full(g.cells, 1e3)
    loose[fastest] = 0.5 * speed[fastest]
    x, p, rep = project_K(v, loose, dt=1.0)
    speed = ops.cell_norm(ops.center_average(x.comps))
    obs = np.where(speed >= np.quantile(speed, 1.0 - share), 1.05 * speed, 1e3)
    obs[fastest] = 0.5 * loose[fastest]
    shrunk = []
    shrink = flow._shrink_cells
    monkeypatch.setattr(flow, "_shrink_cells", lambda z, r: shrunk.append(shrink(z, r)) or shrunk[-1])
    out, _, rep_out = project_K(v, obs, dt=1.0, feas_tol=1e-10, step_tol=1e-12, start=(x, p, rep.lam))
    monkeypatch.undo()
    held, joined = rep.lam != 0, []
    for it, gk in enumerate(shrunk):
        if (gk != 0)[~held].any():
            joined.append(it)
        held |= gk != 0
    assert max(joined) >= 2, joined
    assert set(np.flatnonzero(rep.lam)) < set(np.flatnonzero(rep_out.lam))
    full, iters = full_anderson_projection(v, obs, (x, p, rep.lam), 1e-10, 1e-12)
    assert abs(rep_out.dykstra_sweeps - iters) <= 1, (rep_out.dykstra_sweeps, iters)
    ref, cert = dense_projection_reference([c.copy() for c in comps], obs, g.h)
    assert cert["stat"] < 1e-7, f"reference KKT stationarity {cert['stat']:.2e}"
    assert max(np.abs(a - b).max() for a, b in zip(out.comps, ref)) < 1e-6
    assert max(np.abs(a - b).max() for a, b in zip(out.comps, full)) < 1e-9
    assert rep_out.max_excess <= 1e-10
    assert rep_out.max_div <= 1e-10


def test_project_K_restarts_from_its_own_multipliers(params):
    g = Grid((1.0, 1.0), (12, 12))
    rng = np.random.default_rng(9)
    v = VectorField(g, tuple(0.6 * rng.standard_normal(g.face_shape(ax)) for ax in range(2)))
    obs = np.full(g.cells, 0.3)
    first, p_first, rep = project_K(v, obs, dt=1.0)
    assert rep.dykstra_sweeps > 2  # the obstacle binds
    assert isinstance(rep.lam, np.ndarray) and rep.lam.shape == (2, *g.cells)
    again, p_again, rep_again = project_K(v, obs, dt=1.0, start=(first, p_first, rep.lam))
    assert rep_again.dykstra_sweeps <= 2
    assert max(np.abs(a - b).max() for a, b in zip(first.comps, again.comps)) < 1e-9
    assert np.abs(p_first.values - p_again.values).max() < 1e-9
    # the affine projection and zero multipliers are the cold start, bit for bit
    cold = (*pressure_project(v, dt=1.0), np.zeros((2, *g.cells)))
    zero, _, _ = project_K(v, obs, dt=1.0, start=cold)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first.comps, zero.comps))


def test_project_K_certified_where_a_block_binds(params):
    # a divergence-free field through a 4 x 4 block of tight speed balls:
    # the first-order conditions certify the result as the projection,
    # reached in well under the 593 iterations FISTA with restart took
    g = Grid((1.0, 1.0), (16, 16))
    v = stream_field_2d(g, np.random.default_rng(3), amplitude=3.0)
    obs = np.full(g.cells, 9.0)
    obs[6:10, 6:10] = 0.035
    out, _, rep = project_K(v, obs, dt=1.0)
    shapes, offs, ntot = face_layout(g.cells)
    G, E = build_dense_constraints(g.cells, g.h)
    cert = kkt_certificate(
        pack(out.comps, shapes, offs, ntot), pack(v.comps, shapes, offs, ntot),
        G[:-1], E, obs.ravel(),
    )
    assert cert["stat"] < 1e-7, cert
    assert rep.dykstra_sweeps <= 400, rep.dykstra_sweeps


def test_project_K_inactive_is_one_solve(params, monkeypatch):
    # an obstacle that never binds: the start is the dual fixed point, so
    # the projection is the affine one, after one iteration and one solve
    g = Grid((1.0, 1.5), (12, 10))
    rng = np.random.default_rng(11)
    v = VectorField(g, tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(2)))
    ref, p_ref = pressure_project(v, dt=1e-3)
    calls = []
    solve = ops.poisson_neumann

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(ops, "poisson_neumann", counted)
    out, pressure, rep = project_K(v, np.full(g.cells, 1e6), dt=1e-3)
    assert len(calls) == 1
    assert rep.dykstra_sweeps == 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out.comps, ref.comps))
    assert pressure.values.tobytes() == p_ref.values.tobytes()


def test_projection_variational_characterization(params):
    # the projection v_bar of v satisfies <v - v_bar, z - v_bar> <= 0 for
    # every feasible z
    g = Grid((1.0, 1.0), (12, 12))
    rng = np.random.default_rng(9)
    comps = tuple(0.6 * rng.standard_normal(g.face_shape(ax)) for ax in range(2))
    v = VectorField(g, comps)
    obs = np.full(g.cells, 0.3)
    vbar, _, _ = project_K(v, obs, dt=1.0, feas_tol=1e-11, step_tol=1e-13)
    resid = [a - b for a, b in zip(v.comps, vbar.comps)]
    for seed in range(5):
        z = stream_field_2d(g, np.random.default_rng(70 + seed), amplitude=1.0)
        speed = ops.cell_norm(ops.center_average(z.comps)).max()
        z = VectorField(g, tuple(0.9 * 0.3 / speed * c for c in z.comps))
        gap = [a - b for a, b in zip(z.comps, vbar.comps)]
        inner = face_dot(resid, gap, g.cell_volume)
        scale = np.sqrt(ops.face_l2_sq(resid, g.cell_volume)) * np.sqrt(
            ops.face_l2_sq(gap, g.cell_volume)
        )
        assert inner <= 1e-7 * max(scale, 1e-30)


# --- full flow step ----------------------------------------------------------

def test_step_flow_rest_state(params):
    ws, g = _workspace(params)
    v, pressure, rep, obs, _, _ = _full_step(
        ws, VectorField.zeros(g), ScalarField.zeros(g), VectorField.zeros(g)
    )
    assert all(np.all(c == 0.0) for c in v.comps)
    assert np.abs(pressure.values).max() == 0.0
    assert rep.max_excess <= 0.0
    assert np.allclose(obs, speed_limit_reg(0.0, params))


def test_step_flow_solid_block_caps_speed(params):
    ws, g = _workspace(params, cells=(32, 32))
    u = ScalarField.zeros(g)
    u.values[10:22, 10:22] = params.u_star
    rng = np.random.default_rng(10)
    gforce = stream_field_2d(g, rng, amplitude=600.0)
    v = VectorField.zeros(g)
    p0_mu = speed_limit(params.mu, params)
    for n in range(3):
        v, _, rep, obs, _, _ = _full_step(ws, v, u, gforce)
        # every step honors its own obstacle to projection tolerance
        assert rep.max_excess <= 1e-8 * p0_mu
        assert rep.max_div <= 1e-8
    speed = ops.cell_norm(ops.center_average(v.comps))
    assert speed[14:18, 14:18].max() <= params.mu + 1e-8
    # the fluid region is allowed to move much faster
    assert speed.max() > 10 * params.mu


def test_step_flow_energy_ledger(params):
    ws, g = _workspace(params)
    rng = np.random.default_rng(11)
    gforce = stream_field_2d(g, rng, amplitude=2.0)
    u = ScalarField(g, rng.uniform(0.0, 0.5, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.2)
    vol = g.cell_volume
    kin = [ops.face_l2_sq(list(v.comps), vol)]
    visc, forc = [], []
    for _ in range(15):
        v, _, _, _, _, viscous = _full_step(ws, v, u, gforce)
        kin.append(ops.face_l2_sq(list(v.comps), vol))
        visc.append(viscous)
        forc.append(ops.face_l2_sq(list(gforce.comps), vol))
    ratio = flow_energy_check(kin, visc, forc, params.nu, poincare_constant(g), ws.dt)
    assert ratio <= 1.0 + 1e-6


def test_step_flow_unforced_is_dissipative(params):
    ws, g = _workspace(params)
    rng = np.random.default_rng(12)
    v = stream_field_2d(g, rng, amplitude=1.0)
    u = ScalarField(g, rng.uniform(0.0, 0.6, g.cells))
    e = ops.face_l2_sq(list(v.comps), g.cell_volume)
    for _ in range(10):
        v, _, _, _, _, _ = _full_step(ws, v, u, VectorField.zeros(g))
        e_new = ops.face_l2_sq(list(v.comps), g.cell_volume)
        assert e_new <= e * (1.0 + 1e-12)
        e = e_new


# --- feasibility transfer and inequality defect ------------------------------

def test_make_feasible_examples(params):
    g = Grid((1.0, 1.0), (12, 12))
    eta = stream_field_2d(g, np.random.default_rng(13), amplitude=1.0)
    speed = ops.cell_norm(ops.center_average(eta.comps)).max()
    eta = VectorField(g, tuple(0.3 / speed * c for c in eta.comps))
    obs_old = np.full(g.cells, 0.3)

    same, factor = make_feasible(eta, obs_old, obs_old, params.mu)
    assert factor == 1.0
    assert all(np.array_equal(a, b) for a, b in zip(same.comps, eta.comps))

    s = 0.4 * params.mu
    obs_new = obs_old - s
    out, factor = make_feasible(eta, obs_new, obs_old, params.mu)
    assert factor == pytest.approx(1.0 - s / params.mu, rel=1e-14)
    assert constraint_excess(list(out.comps), obs_new) <= 1e-12

    too_far = obs_old - 2.0 * params.mu
    with pytest.raises(ValueError):
        make_feasible(eta, too_far, obs_old, params.mu)


def _recorded_trajectory(params, n_steps=5):
    ws, g = _workspace(params, cells=(16, 16))
    rng = np.random.default_rng(14)
    u = ScalarField.zeros(g)
    u.values[5:11, 5:11] = 0.8
    gforce = stream_field_2d(g, rng, amplitude=20.0)
    traj = FlowTrajectory(g, ws.dt, params.nu)
    v = VectorField.zeros(g)
    traj.start(v)
    for _ in range(n_steps):
        v, _, _, obs, star, _ = _full_step(ws, v, u, gforce)
        traj.append(v, star, gforce, obs)
    return traj, g


def test_vi_residual_nonnegative_for_solver_iterates(params):
    traj, g = _recorded_trajectory(params)
    ke0 = ops.face_l2_sq(list(traj.v[-1].comps), g.cell_volume)
    etas = traj.v[1:]
    assert vi_residual(traj, etas) >= -1e-8 * (1.0 + ke0)
    zeros = [VectorField.zeros(g) for _ in range(len(traj.v_star))]
    assert vi_residual(traj, zeros) >= -1e-8 * (1.0 + ke0)


def test_vi_residual_rejects_infeasible_eta(params):
    traj, g = _recorded_trajectory(params, n_steps=2)
    huge = [
        VectorField(
            g,
            tuple(100.0 * c for c in stream_field_2d(g, np.random.default_rng(s)).comps),
        )
        for s in range(2)
    ]
    with pytest.raises(ValueError):
        vi_residual(traj, huge)
    with pytest.raises(ValueError):
        vi_residual(traj, traj.v[1:2])  # wrong length


# --- Poincare constant -------------------------------------------------------

def test_poincare_constant_against_dense_eig(params):
    g = Grid((1.0, 1.5), (6, 5))
    lam = min(
        np.linalg.eigvalsh(component_laplacian(g, ax).toarray())[0]
        for ax in range(2)
    )
    expected = 1.0 / np.sqrt(lam * (1.0 - 1e-9))
    assert poincare_constant(g) == pytest.approx(expected, rel=1e-9)


def test_poincare_constant_near_continuum(params):
    # unit square, velocity pinned on the whole boundary: L_P -> 1/(pi sqrt 2)
    g = Grid((1.0, 1.0), (32, 32))
    assert poincare_constant(g) == pytest.approx(1.0 / (np.pi * np.sqrt(2.0)), rel=0.01)


def test_flow_config_guards(params):
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    with pytest.raises(ConfigError):
        make_flow_workspace(g, params, 0.0)
