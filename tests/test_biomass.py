"""Tests for the degenerate biomass diffusion step."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import stream_field_2d

from biofilmflow import biomass
from biofilmflow import operators as ops
from biofilmflow.biomass import (
    NEWTON_TOL,
    BiomassStepConfig,
    _jacobian,
    biomass_energy,
    make_biomass_workspace,
    step_biomass,
)
from biofilmflow.constitutive import ModelParams, consumption_rate, diffusion_energy
from biofilmflow.errors import ConfigError, NonConvergenceError
from biofilmflow.grid import Grid, ScalarField, VectorField, build_grid


def test_zero_biomass_is_fixed_point(params):
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    ws = make_biomass_workspace(g, params)
    cfg = BiomassStepConfig(dt=1e-3)
    u = ScalarField.zeros(g)
    w = ScalarField.constant(g, 0.7)
    rng = np.random.default_rng(3)
    v = stream_field_2d(g, rng, amplitude=0.5)
    out, rep = step_biomass(ws, u, w, v, cfg)
    assert np.all(out.values == 0.0)
    assert rep.clamp_mass == 0.0


def test_far_field_matches_growth_ode(params):
    # In the interior, away from the outflow edge, a uniform state evolves by
    # the pointwise ODE u' = (f(w) - b) u: diffusion and transport both vanish.
    g = build_grid(2, (1.0, 1.0), (32, 32), ("left",))
    ws = make_biomass_workspace(g, params)
    u0, w0 = 0.3, 0.8
    rate = consumption_rate(w0, params) - params.b
    errs = []
    for dt in (1e-3, 5e-4):
        cfg = BiomassStepConfig(dt=dt)
        u = ScalarField.constant(g, u0)
        w = ScalarField.constant(g, w0)
        out, _ = step_biomass(ws, u, w, VectorField.zeros(g), cfg)
        ref = solve_ivp(
            lambda t, y: rate * y, (0.0, dt), [u0], rtol=1e-12, atol=1e-14
        ).y[0, -1]
        errs.append(abs(out.values[16, 16] - ref))
    assert errs[0] < 1e-7
    # backward Euler local error is O(dt^2): halving dt should shrink it ~4x
    assert errs[0] / errs[1] > 3.0


def test_hundred_random_steps_stay_in_bounds(params):
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    ws = make_biomass_workspace(g, params)
    cfg = BiomassStepConfig(dt=1e-3)
    rng = np.random.default_rng(0)
    u = ScalarField(g, rng.uniform(0.0, 0.98 * params.u_star, g.cells))
    w = ScalarField(g, rng.uniform(0.0, 1.0, g.cells))
    for _ in range(100):
        u, rep = step_biomass(ws, u, w, VectorField.zeros(g), cfg)
        assert rep.pre_clamp_min >= -1e-10
        assert rep.pre_clamp_max <= params.u_star + 1e-10
        assert rep.residual <= NEWTON_TOL


def test_mass_conserved_without_reaction():
    # no outflow edge, no growth/decay terms: total biomass is conserved even
    # with a divergence-free transport field
    p = ModelParams(b=0.0, k1=0.0)
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_biomass_workspace(g, p)
    cfg = BiomassStepConfig(dt=1e-3)
    rng = np.random.default_rng(7)
    u = ScalarField(g, rng.uniform(0.05, 0.6, g.cells))
    w = ScalarField(g, rng.uniform(0.0, 1.0, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.8)
    m0 = ops.scalar_mass(u.values, g.cell_volume)
    for _ in range(20):
        u, rep = step_biomass(ws, u, w, v, cfg)
        assert rep.clamp_mass == 0.0
    m1 = ops.scalar_mass(u.values, g.cell_volume)
    # drift budget: per-step Newton residual tolerance summed over the run
    assert abs(m1 - m0) <= 1e-9 * abs(m0)


def test_outflow_edge_drains_biomass():
    p = ModelParams(b=0.0, k1=0.0)
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    ws = make_biomass_workspace(g, p)
    cfg = BiomassStepConfig(dt=1e-3)
    u = ScalarField.constant(g, 0.5)
    w = ScalarField.zeros(g)
    m0 = ops.scalar_mass(u.values, g.cell_volume)
    left0 = u.values[0].mean()
    for _ in range(30):
        u, _ = step_biomass(ws, u, w, VectorField.zeros(g), cfg)
    assert ops.scalar_mass(u.values, g.cell_volume) < m0
    assert u.values[0].mean() < left0
    # cells far from the outflow edge barely move
    assert u.values[-1].mean() > 0.499


def test_energy_decreases_along_pure_diffusion():
    p = ModelParams(b=0.0, k1=0.0)
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_biomass_workspace(g, p)
    cfg = BiomassStepConfig(dt=2e-3)
    rng = np.random.default_rng(11)
    u = ScalarField(g, rng.uniform(0.0, 0.8, g.cells))
    w = ScalarField.zeros(g)
    e = biomass_energy(u, p)
    for _ in range(15):
        u, _ = step_biomass(ws, u, w, VectorField.zeros(g), cfg)
        e_new = biomass_energy(u, p)
        assert e_new <= e + 1e-12
        e = e_new


def test_biomass_energy_examples(params):
    g = Grid((1.0, 1.0), (8, 8))
    assert biomass_energy(ScalarField.zeros(g), params) == 0.0
    c = 0.4
    e = biomass_energy(ScalarField.constant(g, c), params)
    # unit square: the density integrates to the pointwise potential
    assert e == pytest.approx(diffusion_energy(c, params), rel=1e-12)
    g2 = Grid((2.0, 1.5), (8, 6))
    e2 = biomass_energy(ScalarField.constant(g2, c), params)
    assert e2 == pytest.approx(3.0 * diffusion_energy(c, params), rel=1e-12)


def test_transport_perturbation_is_lipschitz(params):
    # regression bound: doubling the velocity moves the result by at most
    # C * ||v|| * dt with C about 1.2 measured; frozen at 4.0
    g = Grid((1.0, 1.0), (16, 16))
    ws = make_biomass_workspace(g, params)
    dt = 1e-3
    cfg = BiomassStepConfig(dt=dt)
    rng = np.random.default_rng(42)
    u = ScalarField(g, rng.uniform(0.1, 0.6, g.cells))
    w = ScalarField(g, rng.uniform(0.3, 1.0, g.cells))
    for seed in range(3):
        v = stream_field_2d(g, np.random.default_rng(seed), amplitude=1.0)
        v2 = VectorField(g, tuple(2.0 * c for c in v.comps))
        a, _ = step_biomass(ws, u, w, v, cfg)
        b, _ = step_biomass(ws, u, w, v2, cfg)
        diff = np.sqrt(ops.scalar_l2_sq(a.values - b.values, g.cell_volume))
        vnorm = np.sqrt(ops.face_l2_sq(list(v.comps), g.cell_volume))
        assert diff <= 4.0 * vnorm * dt


def test_result_independent_of_workspace_history(params):
    # the cached Jacobian factorization is an accelerator only: a warm
    # workspace must give the same answer as a fresh one
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    cfg = BiomassStepConfig(dt=1e-3)
    rng = np.random.default_rng(5)
    u = ScalarField(g, rng.uniform(0.0, 0.7, g.cells))
    w = ScalarField(g, rng.uniform(0.2, 1.0, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.4)

    ws_warm = make_biomass_workspace(g, params)
    for _ in range(5):
        _ = step_biomass(ws_warm, u, w, v, cfg)
    out_warm, _ = step_biomass(ws_warm, u, w, v, cfg)

    ws_fresh = make_biomass_workspace(g, params)
    out_fresh, _ = step_biomass(ws_fresh, u, w, v, cfg)
    # both runs satisfy the same residual tolerance; answers agree to solver tol
    assert np.abs(out_warm.values - out_fresh.values).max() <= 1e-9


def test_jacobian_is_column_dominant_by_reaction_margin(params):
    # S is weakly column dominant with nonpositive off-diagonals and the
    # slopes are >= 0, so every column of J beats its off-diagonal sum by
    # at least 1/dt + b - growth; that is what makes diagonal pivots stable
    g = build_grid(3, (1.0, 1.0, 1.0), (5, 4, 3), ("left",))
    ws = make_biomass_workspace(g, params)
    dt = 1e-3
    rng = np.random.default_rng(2)
    # the u < 0 penalty branch, slope-free zeros and the frozen cap slope
    x = rng.uniform(-0.05, params.u_star, g.cells)
    x[0, 0, :] = 0.0
    x[-1, -1, :] = params.u_star
    growth = consumption_rate(rng.uniform(0.0, 1.0, g.cells), params)
    jac = _jacobian(x, growth, ws, dt).toarray()
    diag = np.abs(np.diag(jac))
    margin = diag - (np.abs(jac).sum(axis=0) - diag)
    floor = 1.0 / dt + params.b - growth.max()
    assert floor > 0.0
    assert margin.min() >= floor * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "k1, dt",
    [(0.5, 1e-3), (20.0, 0.6)],  # dt (k1 - b) = 4e-4, then 11.9 > 1
)
def test_factorization_directions_match_dense_solve(monkeypatch, k1, dt):
    # every factorization a step makes solves its Jacobian as well as a
    # dense solve: with diagonal pivots while the Jacobian is column
    # dominant, with row pivoting once growth outruns 1/dt + b
    factored = []
    splu = biomass.splu

    def recording_splu(a, **kwargs):
        lu = splu(a, **kwargs)
        factored.append((a.toarray(), lu))
        return lu

    monkeypatch.setattr(biomass, "splu", recording_splu)
    p = ModelParams(k1=k1)
    g = build_grid(3, (1.0, 1.0, 1.0), (5, 4, 3), ("left",))
    ws = make_biomass_workspace(g, p)
    rng = np.random.default_rng(1)
    u = ScalarField(g, rng.uniform(0.5, 0.9, g.cells))
    w = ScalarField(g, rng.uniform(0.5, 1.0, g.cells))
    _, rep = step_biomass(ws, u, w, VectorField.zeros(g), BiomassStepConfig(dt=dt))
    assert rep.residual <= NEWTON_TOL
    assert factored
    dominant = dt * (k1 - p.b) < 1.0
    diagonal_pivots = []
    for jac, lu in factored:
        diag = np.abs(np.diag(jac))
        margin = (diag - (np.abs(jac).sum(axis=0) - diag)).min()
        assert (margin > 0.0) == dominant
        diagonal_pivots.append(np.array_equal(lu.perm_r, lu.perm_c))
        rhs = rng.standard_normal(jac.shape[0])
        ref = np.linalg.solve(jac, rhs)
        assert np.abs(lu.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert all(diagonal_pivots) == dominant


def test_newton_failure_raises_with_history(params):
    g = Grid((1.0, 1.0), (8, 8))
    ws = make_biomass_workspace(g, params)
    cfg = BiomassStepConfig(dt=1e-3, newton_max=1)
    rng = np.random.default_rng(1)
    u = ScalarField(g, rng.uniform(0.1, 0.8, g.cells))
    w = ScalarField(g, rng.uniform(0.2, 1.0, g.cells))
    with pytest.raises(NonConvergenceError) as exc:
        step_biomass(ws, u, w, VectorField.zeros(g), cfg)
    assert exc.value.history is not None
    assert len(exc.value.history) >= 1


def test_step_config_rejects_bad_dt():
    with pytest.raises(ConfigError):
        BiomassStepConfig(dt=0.0)
    with pytest.raises(ConfigError):
        BiomassStepConfig(dt=-1e-3)


def test_shape_mismatch_rejected(params):
    g = Grid((1.0, 1.0), (8, 8))
    g2 = Grid((1.0, 1.0), (16, 16))
    ws = make_biomass_workspace(g, params)
    cfg = BiomassStepConfig(dt=1e-3)
    u = ScalarField.zeros(g2)
    w = ScalarField.zeros(g2)
    with pytest.raises((ConfigError, ValueError)):
        step_biomass(ws, u, w, VectorField.zeros(g2), cfg)
