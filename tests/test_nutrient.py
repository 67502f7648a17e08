"""Tests for the nutrient advection-diffusion-consumption step."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from conftest import potential_field_3d, skew_convection_check, stream_field_2d

from biofilmflow import nutrient
from biofilmflow import operators as ops
from biofilmflow.constitutive import ModelParams, nutrient_diffusivity
from biofilmflow.errors import ConfigError, NonConvergenceError, StabilityError
from biofilmflow.grid import Grid, ScalarField, VectorField, build_grid
from biofilmflow.mollify import mollify_array
from biofilmflow.nutrient import (
    _face_diffusivity,
    convection_cfl,
    make_nutrient_workspace,
    nutrient_energy_check,
    step_nutrient,
)


def _diffusion_indices(grid):
    """Raveled (row, col) index arrays per axis for face-flux assembly."""
    idx = np.arange(int(np.prod(grid.cells))).reshape(grid.cells)
    out = []
    for ax in range(grid.dim):
        lo = idx[ops.axslice(grid.dim, ax, slice(None, -1))].ravel()
        hi = idx[ops.axslice(grid.dim, ax, slice(1, None))].ravel()
        out.append((lo, hi))
    return out


def scalar_diffusion_matrix(grid, face_diff):
    """Stiffness matrix from per-axis interior-face diffusivities.

    face_diff[ax] has the shape of interior faces along ax. No-flux
    boundaries everywhere (boundary faces simply absent). Rows sum to
    zero, off-diagonals are nonpositive: an M-matrix. The assembled
    oracle for the nutrient step's matrix-free diffusion.
    """
    ncell = int(np.prod(grid.cells))
    rows, cols, vals = [], [], []
    for ax, (lo, hi) in enumerate(_diffusion_indices(grid)):
        d = (face_diff[ax] / grid.h[ax] ** 2).ravel()
        rows.extend([lo, hi, lo, hi])
        cols.extend([lo, hi, hi, lo])
        vals.extend([d, d, -d, -d])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ncell, ncell))


def test_scalar_diffusion_matrix_m_matrix():
    g = Grid((1.0, 1.0), (5, 5))
    rng = np.random.default_rng(12)
    fd = [rng.uniform(0.5, 2.0, (4, 5)), rng.uniform(0.5, 2.0, (5, 4))]
    A = scalar_diffusion_matrix(g, fd).toarray()
    assert np.allclose(A, A.T)
    off = A - np.diag(np.diag(A))
    assert (off <= 1e-15).all()
    assert (np.diag(A) >= 0).all()
    assert np.abs(A.sum(axis=1)).max() < 1e-12  # no-flux rows sum to zero

def test_saturated_medium_is_fixed_point(params):
    g = Grid((1.0, 1.0), (12, 12))
    ws = make_nutrient_workspace(g, params)
    w = ScalarField.constant(g, 1.0)
    u = ScalarField.zeros(g)
    out, rep = step_nutrient(ws, w, u, VectorField.zeros(g), 1e-3)
    assert np.all(out.values == 1.0)
    assert rep.clamp_mass == 0.0


def test_uniform_consumption_matches_ode(params):
    # uniform state on a closed box: diffusion and transport drop out and the
    # cell value obeys the Monod depletion ODE
    g = Grid((1.0, 1.0), (8, 8))
    ws = make_nutrient_workspace(g, params)
    u = ScalarField.constant(g, 0.5)
    w0, t_end = 0.9, 0.05
    ref = solve_ivp(
        lambda t, y: -params.k1 * 0.5 * y / (params.k2 + y),
        (0.0, t_end),
        [w0],
        rtol=1e-12,
        atol=1e-14,
    ).y[0, -1]
    errs = []
    for dt in (1e-3, 5e-4):
        w = ScalarField.constant(g, w0)
        for _ in range(round(t_end / dt)):
            w, _ = step_nutrient(ws, w, u, VectorField.zeros(g), dt)
        assert np.ptp(w.values) == 0.0
        errs.append(abs(w.values[0, 0] - ref))
    assert errs[0] < 5e-5
    # the consumption freeze is first order: halving dt roughly halves the error
    assert errs[0] / errs[1] > 1.7


def test_hundred_random_steps_stay_in_bounds(params):
    g = build_grid(2, (1.0, 1.0), (16, 16), ("right",))
    ws = make_nutrient_workspace(g, params)
    rng = np.random.default_rng(2)
    w = ScalarField(g, rng.uniform(0.0, 1.0, g.cells))
    u = ScalarField(g, rng.uniform(0.0, params.u_star, g.cells))
    v = stream_field_2d(g, rng, amplitude=1.0)
    dt = 1e-3
    assert convection_cfl(v, dt, g.h) < 1.0
    for _ in range(100):
        w, rep = step_nutrient(ws, w, u, v, dt)
        assert rep.pre_clamp_min >= -1e-10
        assert rep.pre_clamp_max <= 1.0 + 1e-10


def test_face_diffusivities_respect_bounds(params):
    g = Grid((1.0, 1.0), (16, 16))
    rng = np.random.default_rng(4)
    u = rng.uniform(0.0, params.u_star, g.cells)
    face = _face_diffusivity(nutrient_diffusivity(u, params), g)
    for arr in face:
        assert arr.min() >= params.c_d - 1e-15
        assert arr.max() <= params.c_d_prime + 1e-15


def test_single_step_diffusion_energy_identity(params):
    # backward Euler on pure diffusion satisfies, exactly,
    #   |w+|^2 + |w+ - w|^2 + 2 dt sum_faces d_f (dw+/h)^2 vol = |w|^2
    p = ModelParams(k1=0.0)
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_nutrient_workspace(g, p)
    rng = np.random.default_rng(9)
    w = ScalarField(g, rng.uniform(0.1, 0.9, g.cells))
    u = ScalarField(g, rng.uniform(0.0, p.u_star, g.cells))
    dt = 2e-3
    out, _ = step_nutrient(ws, w, u, VectorField.zeros(g), dt)
    wp = out.values
    u_tilde = np.clip(mollify_array(u.values, ws.mollifier_mu), 0.0, p.u_star)
    face = _face_diffusivity(nutrient_diffusivity(u_tilde, p), g)
    vol = g.cell_volume
    diss = 0.0
    for ax in range(2):
        d = np.diff(wp, axis=ax) / g.h[ax]
        diss += float(np.sum(face[ax] * d * d)) * vol
    lhs = (
        ops.scalar_l2_sq(wp, vol)
        + ops.scalar_l2_sq(wp - w.values, vol)
        + 2.0 * dt * diss
    )
    assert lhs == pytest.approx(ops.scalar_l2_sq(w.values, vol), rel=1e-11)


def test_dissipation_ledger_stays_under_growth_bound(params):
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_nutrient_workspace(g, params)
    rng = np.random.default_rng(5)
    w = ScalarField(g, rng.uniform(0.1, 1.0, g.cells))
    u = ScalarField(g, rng.uniform(0.0, params.u_star, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.5)
    dt = 1e-3
    vol = g.cell_volume
    w_sq = [ops.scalar_l2_sq(w.values, vol)]
    grad_sq = []
    for _ in range(30):
        w, _ = step_nutrient(ws, w, u, v, dt)
        w_sq.append(ops.scalar_l2_sq(w.values, vol))
        grad_sq.append(ops.gradient_sq_sum(w.values, g.h, vol))
    assert nutrient_energy_check(w_sq, grad_sq, params, dt) <= 1.0


def test_energy_check_flags_fabricated_growth(params):
    # negative control: inflate the ledger past the bound
    w_sq = [1.0, 5.0]
    grad_sq = [0.1]
    assert nutrient_energy_check(w_sq, grad_sq, params, 1e-3) > 1.0


def test_skew_pairing_vanishes_for_solenoidal_fields(params):
    g = Grid((1.0, 1.3), (12, 10))
    rng = np.random.default_rng(8)
    w = ScalarField(g, rng.uniform(0.0, 1.0, g.cells))
    zero = skew_convection_check(w, VectorField.zeros(g), g)
    assert zero == 0.0
    for seed in range(5):
        v = stream_field_2d(g, np.random.default_rng(seed), amplitude=1.0)
        scale = ops.face_l2_sq(list(v.comps), g.cell_volume) + ops.scalar_l2_sq(
            w.values, g.cell_volume
        )
        assert abs(skew_convection_check(w, v, g)) <= 1e-12 * scale

    # non-solenoidal control: same magnitude fields must NOT cancel
    hits = 0
    for seed in range(5):
        ctrl = np.random.default_rng(100 + seed)
        comps = []
        for ax in range(2):
            c = ctrl.standard_normal(g.face_shape(ax))
            c[0] = c[-1] = 0.0
            if ax == 1:
                c[:, 0] = c[:, -1] = 0.0
            comps.append(c)
        v_bad = VectorField(g, tuple(comps))
        scale = ops.face_l2_sq(list(v_bad.comps), g.cell_volume) + ops.scalar_l2_sq(
            w.values, g.cell_volume
        )
        if abs(skew_convection_check(w, v_bad, g)) > 1e-3 * scale:
            hits += 1
    assert hits >= 4


def test_cfl_violation_raises(params):
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_nutrient_workspace(g, params)
    w = ScalarField.constant(g, 0.5)
    u = ScalarField.zeros(g)
    comps = tuple(np.full(g.face_shape(ax), 40.0) for ax in range(2))
    v = VectorField(g, comps)
    with pytest.raises(StabilityError):
        step_nutrient(ws, w, u, v, 2e-3)
    with pytest.raises(ConfigError):
        step_nutrient(ws, w, u, VectorField.zeros(g), 0.0)


def test_mass_conserved_without_consumption():
    p = ModelParams(k1=0.0)
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_nutrient_workspace(g, p)
    rng = np.random.default_rng(3)
    w = ScalarField(g, rng.uniform(0.1, 0.9, g.cells))
    u = ScalarField(g, rng.uniform(0.0, p.u_star, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.8)
    m0 = ops.scalar_mass(w.values, g.cell_volume)
    for _ in range(20):
        w, rep = step_nutrient(ws, w, u, v, 1e-3)
        assert rep.clamp_mass == 0.0
    assert abs(ops.scalar_mass(w.values, g.cell_volume) - m0) <= 1e-9 * abs(m0)


def test_iterative_solve_matches_direct_factorization(params):
    # dual route for the linear algebra: assemble the same system as an
    # explicit sparse matrix and solve it directly
    g = Grid((1.0, 1.0), (12, 12))
    ws = make_nutrient_workspace(g, params)
    rng = np.random.default_rng(21)
    w = ScalarField(g, rng.uniform(0.2, 0.8, g.cells))
    u = ScalarField(g, rng.uniform(0.0, params.u_star, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.5)
    dt = 1e-3
    out, _ = step_nutrient(ws, w, u, v, dt)

    u_tilde = np.clip(mollify_array(u.values, ws.mollifier_mu), 0.0, params.u_star)
    face = _face_diffusivity(nutrient_diffusivity(u_tilde, params), g)
    stiff = scalar_diffusion_matrix(g, face)
    coeff = dt * params.k1 * u_tilde / (params.k2 + np.maximum(w.values, 0.0))
    ncell = stiff.shape[0]
    system = sp.eye(ncell) + dt * stiff + sp.diags(coeff.ravel())
    rhs = w.values - dt * ops.upwind_flux_divergence(w.values, v.comps, g.h)
    ref = spla.spsolve(system.tocsc(), rhs.ravel()).reshape(g.cells)
    assert np.abs(out.values - np.clip(ref, 0.0, 1.0)).max() < 1e-11


@pytest.mark.parametrize("cells", [(12, 10), (6, 5, 4)], ids=["2d", "3d"])
def test_cg_stop_bounds_the_error_in_the_sup_norm(params, monkeypatch, cells):
    # the system has nonpositive off-diagonals and row sums 1 + dt c >= 1,
    # so its inverse has sup-norm at most 1 and CG's stop on the residual's
    # sup-norm bounds the error of the pre-clamp solution: within CG_TOL
    # of a direct solve, with biomass-free cells where the row sum is 1
    g = Grid((1.0,) * len(cells), cells)
    ws = make_nutrient_workspace(g, params)
    rng = np.random.default_rng(len(cells))
    w = ScalarField(g, rng.uniform(0.2, 0.8, g.cells))
    u_vals = rng.uniform(0.0, params.u_star, g.cells)
    u_vals[: cells[0] // 2] = 0.0
    u = ScalarField(g, u_vals)
    field = stream_field_2d if len(cells) == 2 else potential_field_3d
    v = field(g, rng, amplitude=0.5)
    dt = 0.05
    assert convection_cfl(v, dt, g.h) < 1.0

    solves = []
    solve = nutrient._solve_spd

    def recording_solve(apply_op, rhs, x0):
        out = solve(apply_op, rhs, x0)
        solves.append((apply_op, rhs, out[0]))
        return out

    monkeypatch.setattr(nutrient, "_solve_spd", recording_solve)
    step_nutrient(ws, w, u, v, dt)
    (apply_op, rhs, got), = solves

    n = rhs.size
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(apply_op(e.reshape(g.cells)).ravel())
    system = np.array(cols).T
    assert np.abs(system - system.T).max() <= 1e-12 * np.abs(system).max()
    assert (system - np.diag(np.diag(system)) <= 0.0).all()
    row_sums = apply_op(np.ones(g.cells))
    assert row_sums.min() == 1.0
    assert np.abs(np.linalg.inv(system)).sum(axis=1).max() <= 1.0 + 1e-12

    ref = spla.spsolve(sp.csc_matrix(system), rhs.ravel()).reshape(g.cells)
    assert np.abs(got - ref).max() <= nutrient.CG_TOL


def test_solve_that_misses_its_stop_raises_after_one_iteration_per_cell(params, monkeypatch):
    # with CG_TOL at 0 no residual meets the stop: CG runs to its cap of
    # one iteration per cell and the step raises, naming that count
    g = Grid((1.0, 1.0), (6, 5))
    ws = make_nutrient_workspace(g, params)
    rng = np.random.default_rng(4)
    w = ScalarField(g, rng.uniform(0.2, 0.8, g.cells))
    u = ScalarField(g, rng.uniform(0.0, params.u_star, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.5)
    monkeypatch.setattr(nutrient, "CG_TOL", 0.0)
    with pytest.raises(NonConvergenceError, match="nutrient linear solve stalled") as exc:
        step_nutrient(ws, w, u, v, 0.05)
    assert str(exc.value) == f"nutrient linear solve stalled after {w.values.size} iterations"
    assert 0.0 < exc.value.residual < 1e-12
