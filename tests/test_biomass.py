"""Tests for the degenerate biomass diffusion step."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import biomass_jacobian, scalar_laplacian_csr, stream_field_2d

from biofilmflow import biomass
from biofilmflow import operators as ops
from biofilmflow.biomass import (
    NEWTON_TOL,
    BiomassStepConfig,
    biomass_energy,
    make_biomass_workspace,
    step_biomass,
)
from biofilmflow.constitutive import (
    ModelParams,
    biomass_diffusion_reg,
    consumption_rate,
    diffusion_energy,
)
from biofilmflow.errors import ConfigError, NonConvergenceError
from biofilmflow.grid import Grid, ScalarField, VectorField, build_grid
from biofilmflow.mollify import mollify_array


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
    # the workspace holds precomputations only and a step carries nothing
    # to the next: a workspace that has taken steps gives the same answer,
    # bit for bit, as a fresh one
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
    assert np.array_equal(out_warm.values, out_fresh.values)


def test_loose_tolerance_stops_at_first_iterate_below_it(monkeypatch, params):
    # a coupling round that cannot be accepted passes a loose tol: Newton
    # takes the iterates of the tight solve and stops at the first whose
    # dt |g|_inf is at most tol; with no tol nothing changes
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    ws = make_biomass_workspace(g, params)
    cfg = BiomassStepConfig(dt=1e-3)
    rng = np.random.default_rng(5)
    u = ScalarField(g, rng.uniform(0.0, 0.7, g.cells))
    w = ScalarField(g, rng.uniform(0.2, 1.0, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.4)

    iterates = []
    slope_of = biomass.biomass_diffusion_reg_deriv

    def recording_slope(x, p):
        iterates.append(x.copy())
        return slope_of(x, p)

    monkeypatch.setattr(biomass, "biomass_diffusion_reg_deriv", recording_slope)
    out, rep = step_biomass(ws, u, w, v, cfg)
    monkeypatch.undo()
    iterates.append(rep.iterate)
    assert rep.residual <= NEWTON_TOL
    for tol in (None, NEWTON_TOL):
        again, _ = step_biomass(ws, u, w, v, cfg, tol=tol)
        assert np.array_equal(again.values, out.values)

    growth = consumption_rate(mollify_array(w.values, ws.mollifier_mu), params)
    res = [
        cfg.dt * np.abs(biomass._residual(x, u.values, growth, v.comps, ws, cfg.dt)).max()
        for x in iterates
    ]
    first = next(k for k, r in enumerate(res) if r <= 1e-3)
    assert 0 < first < rep.newton_iters
    loose_out, loose = step_biomass(ws, u, w, v, cfg, tol=1e-3)
    assert loose.newton_iters == first
    assert np.array_equal(loose.iterate, iterates[first])
    assert loose.residual == res[first] > NEWTON_TOL
    assert np.array_equal(loose_out.values, np.clip(iterates[first], 0.0, params.u_star))


def test_jacobian_is_column_dominant_by_reaction_margin(params):
    # S is weakly column dominant with nonpositive off-diagonals and the
    # slopes are >= 0, so every column of J beats its off-diagonal sum by
    # at least 1/dt + b - growth; that is what keeps the Jacobi-preconditioned
    # Newton systems positive definite
    g = build_grid(3, (1.0, 1.0, 1.0), (5, 4, 3), ("left",))
    ws = make_biomass_workspace(g, params)
    dt = 1e-3
    rng = np.random.default_rng(2)
    # the u < 0 penalty branch, slope-free zeros and the frozen cap slope
    x = rng.uniform(-0.05, params.u_star, g.cells)
    x[0, 0, :] = 0.0
    x[-1, -1, :] = params.u_star
    growth = consumption_rate(rng.uniform(0.0, 1.0, g.cells), params)
    jac = biomass_jacobian(x, growth, ws, dt).toarray()
    diag = np.abs(np.diag(jac))
    margin = diag - (np.abs(jac).sum(axis=0) - diag)
    floor = 1.0 / dt + params.b - growth.max()
    assert floor > 0.0
    assert margin.min() >= floor * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "k1, dt",
    [(0.5, 1e-3), (20.0, 0.6)],  # dt (k1 - b) = 4e-4, then 11.9 > 1
)
def test_newton_directions_meet_forcing_term_on_dense_jacobian(monkeypatch, k1, dt):
    # every matrix-free direction a step takes leaves a true linear residual
    # against the assembled Jacobian within the forcing term, both while the
    # Jacobian is column dominant and once growth outruns 1/dt + b; Newton
    # moves tau, so by the chain rule the step in u is U'(tau) delta
    iterates, directions = [], []
    slope_of = biomass.biomass_diffusion_reg_deriv
    direction_of = biomass._newton_direction

    def recording_slope(x, p):
        iterates.append(x.copy())
        return slope_of(x, p)

    def recording_direction(ws, g, s, c, eta):
        delta, its = direction_of(ws, g, s, c, eta)
        directions.append((g.copy(), eta, delta))
        return delta, its

    monkeypatch.setattr(biomass, "biomass_diffusion_reg_deriv", recording_slope)
    monkeypatch.setattr(biomass, "_newton_direction", recording_direction)
    p = ModelParams(k1=k1)
    g = build_grid(3, (1.0, 1.0, 1.0), (5, 4, 3), ("left",))
    ws = make_biomass_workspace(g, p)
    rng = np.random.default_rng(1)
    u = ScalarField(g, rng.uniform(0.5, 0.9, g.cells))
    w = ScalarField(g, rng.uniform(0.5, 1.0, g.cells))
    _, rep = step_biomass(ws, u, w, VectorField.zeros(g), BiomassStepConfig(dt=dt))
    assert rep.residual <= NEWTON_TOL
    assert rep.newton_iters == len(directions) == len(iterates)
    assert rep.krylov_iters > 0
    growth = consumption_rate(mollify_array(w.values, ws.mollifier_mu), p)
    dominant = dt * (k1 - p.b) < 1.0
    for x, (res, eta, delta) in zip(iterates, directions):
        jac = biomass_jacobian(x, growth, ws, dt).toarray()
        diag = np.abs(np.diag(jac))
        margin = (diag - (np.abs(jac).sum(axis=0) - diag)).min()
        assert (margin > 0.0) == dominant
        du = biomass._du_dtau(biomass._tau_of_u(x, p), p)
        step = delta if du is None else du * delta
        assert np.abs(jac @ step.ravel() + res.ravel()).max() <= eta * np.abs(res).max()


def test_newton_parametrization_is_the_identity_on_the_middle_branch(params):
    # on [0, u_s] tau is u itself, bit for bit, and an array inside that
    # range comes back as the same object, with no slope array made
    u_s = biomass._TAU_SPLIT * params.u_star
    u = np.linspace(0.0, u_s, 1001)
    assert biomass._tau_of_u(u, params) is u
    assert biomass._u_of_tau(u, params) is u
    assert biomass._du_dtau(u, params) is None
    # entries of a mixed array that lie in [0, u_s] keep their bits too
    mixed = np.concatenate([u, [-0.2, 0.95, params.u_star, 3.0]])
    assert np.array_equal(biomass._tau_of_u(mixed, params)[: u.size], u)
    assert np.array_equal(biomass._u_of_tau(mixed, params)[: u.size], u)
    assert np.array_equal(biomass._du_dtau(mixed, params)[: u.size], np.ones(u.size))


# the last two lie above K = 0.1 u*: the cap node is below 0.9 u*, the log
# branch is empty and U is the identity on tau >= 0
TAU_LAMBDAS = [1e-3, 1e-9, 0.2, 0.5]


@pytest.mark.parametrize("lam", TAU_LAMBDAS)
def test_newton_parametrization_round_trips(lam):
    # U(T(u)) returns u to a few ulps on every branch: the penalty branch,
    # the identity, the log branch up to the cap, past the cap and at u*
    # itself; T is increasing, and on the penalty branch tau is beta(u)
    p = ModelParams(beta_reg_lambda=lam)
    u_s, _, cap, _, tau_cap = biomass._tau_knots(p)
    below = -np.geomspace(1.0, 1e-12, 60)
    u = np.unique(np.concatenate([
        below,
        np.linspace(0.0, p.u_star, 401),
        np.linspace(u_s, cap, 301),
        cap + np.geomspace(1e-10, 1.0, 60),
    ]))
    tau = biomass._tau_of_u(u, p)
    assert np.all(np.diff(tau) > 0.0)
    assert np.array_equal(tau[: below.size], biomass_diffusion_reg(below, p))
    assert tau[-1] > tau_cap
    back = biomass._u_of_tau(tau, p)
    assert np.all(np.abs(back - u) <= 4.0 * np.spacing(np.abs(u))), np.abs(back - u).max()


@pytest.mark.parametrize("lam", TAU_LAMBDAS)
def test_newton_parametrization_slope(lam):
    # U' matches a centered difference of U away from the kink at 0, and
    # is continuous at u_s and at the cap node
    p = ModelParams(beta_reg_lambda=lam)
    u_s, k, _, gap, tau_cap = biomass._tau_knots(p)
    knots = [-50.0, 0.0, u_s, tau_cap, tau_cap + 5.0]
    tau = np.concatenate([
        np.linspace(a, b, 42)[1:-1] for a, b in zip(knots, knots[1:]) if b > a
    ])
    h = 1e-6
    fd = (biomass._u_of_tau(tau + h, p) - biomass._u_of_tau(tau - h, p)) / (2.0 * h)
    slope = biomass._du_dtau(tau, p)
    # the truncation error is far below 1e-6; the rounding of U is not
    rounding = 4.0 * np.spacing(np.abs(biomass._u_of_tau(tau, p))) / h
    assert np.all(np.abs(fd - slope) <= 1e-6 * slope + rounding)
    for knot, value in ((u_s, 1.0), (tau_cap, gap / k)):
        near = biomass._du_dtau(np.array([knot * (1 - 1e-13), knot * (1 + 1e-13)]), p)
        assert np.allclose(near, value, rtol=1e-11, atol=0.0)
    # U is continuous and increasing, with no step larger than its slope
    # bound allows: lambda below zero and at most 1 above
    grid = np.linspace(-1.0, tau_cap + 1.0, 200001)
    rise = np.diff(biomass._u_of_tau(grid, p))
    assert np.all(rise > 0.0)
    assert np.all(rise <= max(lam, 1.0) * np.diff(grid) + 1e-15), rise.max()


def test_step_converges_with_lambda_above_the_log_branch():
    # lambda = 0.2 puts the cap node at 0.8 u*, below 0.9 u*: a field with
    # cells between the two still settles, and a warm start there is kept
    p = ModelParams(beta_reg_lambda=0.2)
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    ws = make_biomass_workspace(g, p)
    cfg = BiomassStepConfig(dt=1e-3)
    rng = np.random.default_rng(11)
    u = ScalarField(g, rng.uniform(0.88, 0.95, g.cells))
    w = ScalarField(g, rng.uniform(0.0, 1.0, g.cells))
    out, rep = step_biomass(ws, u, w, VectorField.zeros(g), cfg)
    assert rep.residual <= NEWTON_TOL
    assert np.any((rep.iterate > 0.9) & (rep.iterate < 0.94))
    again, rep2 = step_biomass(ws, u, w, VectorField.zeros(g), cfg, x0=rep.iterate)
    assert rep2.newton_iters == 0
    assert np.array_equal(again.values, out.values)


def test_line_search_failure_names_growth_beyond_the_step(monkeypatch):
    # backward Euler has no nonnegative solution here: growth outruns
    # 1/dt + b everywhere, and the error says so and what to change. Each
    # failed line search solves the direction again a thousand times
    # tighter, with no floor under the forcing, down to 1e-10
    forcing = []
    direction_of = biomass._newton_direction

    def recording_direction(ws, g, s, c, eta):
        forcing.append(eta)
        return direction_of(ws, g, s, c, eta)

    monkeypatch.setattr(biomass, "_newton_direction", recording_direction)
    p = ModelParams(k1=20.0)
    g = build_grid(3, (1.0, 1.0, 1.0), (5, 4, 3), ("left",))
    ws = make_biomass_workspace(g, p)
    rng = np.random.default_rng(1)
    u = ScalarField(g, rng.uniform(0.0, 0.6, g.cells))
    w = ScalarField(g, rng.uniform(0.5, 1.0, g.cells))
    with pytest.raises(NonConvergenceError, match="line search failed") as exc:
        step_biomass(ws, u, w, VectorField.zeros(g), BiomassStepConfig(dt=1.0))
    growth = consumption_rate(mollify_array(w.values, ws.mollifier_mu), p)
    c = 1.0 + p.b - growth
    assert (c <= 0.0).all()
    msg = str(exc.value)
    assert f"growth outruns 1/dt + b in {c.size} cells" in msg
    assert f"(min 1/dt + b - growth {c.min():.3e})" in msg
    assert msg.endswith("reduce dt")
    assert forcing == pytest.approx([1e-4, 1e-7, 1e-10], rel=1e-12)


def test_forcing_floor_saves_cg_near_convergence(monkeypatch, params):
    # started near its converged iterate, a tight solve needs directions
    # only as accurate as the Newton stop can see: the floor
    # NEWTON_TOL / (4 res) spends fewer CG iterations than ETA alone, and
    # the step still ends at NEWTON_TOL
    g = build_grid(2, (1.0, 1.0), (16, 16), ("left",))
    ws = make_biomass_workspace(g, params)
    cfg = BiomassStepConfig(dt=1e-3)
    rng = np.random.default_rng(5)
    u = ScalarField(g, rng.uniform(0.0, 0.7, g.cells))
    w = ScalarField(g, rng.uniform(0.2, 1.0, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.4)
    _, near = step_biomass(ws, u, w, v, cfg, tol=1e-8)
    assert near.residual > NEWTON_TOL
    _, floored = step_biomass(ws, u, w, v, cfg, x0=near.iterate)

    direction_of = biomass._newton_direction
    monkeypatch.setattr(
        biomass,
        "_newton_direction",
        lambda ws, g, s, c, eta: direction_of(ws, g, s, c, min(eta, biomass.ETA)),
    )
    _, plain = step_biomass(ws, u, w, v, cfg, x0=near.iterate)
    assert floored.residual <= NEWTON_TOL and plain.residual <= NEWTON_TOL
    assert floored.newton_iters >= 1
    assert floored.krylov_iters < plain.krylov_iters


@pytest.mark.parametrize("react", [-10.0, -60.0])
def test_newton_direction_stops_cleanly_on_indefinite_system(params, react):
    # growth beyond 1/dt + b makes c < 0: with unit slopes the symmetric
    # form is indefinite (-10), or even its Jacobi diagonal is (-60); CG
    # must stop early with a finite direction instead of dividing by a
    # curvature that is not positive
    g = build_grid(3, (1.0, 1.0, 1.0), (5, 4, 3), ("left",))
    ws = make_biomass_workspace(g, params)
    res = np.random.default_rng(0).standard_normal(g.cells)
    delta, its = biomass._newton_direction(
        ws, res, np.ones(g.cells), np.full(g.cells, react), biomass.ETA
    )
    assert its < res.size
    assert np.all(np.isfinite(delta))


def _direction_inputs(g, seed):
    """A residual, slopes (zero on a tenth of the cells, up to 1e3 on the
    others) and reactions of about 1/dt for one Newton direction on g."""
    rng = np.random.default_rng(seed)
    res = rng.standard_normal(g.cells)
    slope = rng.uniform(0.0, 1.0, g.cells) ** 4 * 1e3
    slope[rng.uniform(size=g.cells) < 0.1] = 0.0
    return res, slope, rng.uniform(500.0, 1000.0, g.cells)


@pytest.mark.parametrize("eta", [biomass.ETA, 1e-9])
@pytest.mark.parametrize(
    "extents, cells", [((2.0, 0.7), (17, 9)), ((1.0, 0.8, 0.9), (5, 6, 7))]
)
def test_reduced_direction_meets_forcing_term_on_dense_jacobian(params, extents, cells, eta):
    # CG on the black cells' Schur complement, the red cells recovered from
    # it: the true linear residual against the assembled J = diag(c) +
    # S diag(s) is within the forcing term, on odd axes that need two
    # dummy cells per line and on a 3D grid
    g = Grid(extents, cells, frozenset(("left", "top")))
    ws = make_biomass_workspace(g, params)
    res, slope, c = _direction_inputs(g, sum(cells))
    delta, its = biomass._newton_direction(ws, res, slope, c, eta)
    assert 0 < its <= ws.layout.n
    jac = np.diag(c.ravel()) + scalar_laplacian_csr(g).toarray() * slope.ravel()
    assert np.abs(jac @ delta.ravel() + res.ravel()).max() <= eta * np.abs(res).max()


def test_reduced_direction_keeps_dummy_cells_zero(monkeypatch, params):
    # every vector CG applies the Schur complement to, its start, iterate
    # and residual are 0 on the black dummy cells
    g = Grid((0.875, 1.125, 0.75), (7, 9, 4), frozenset(("left",)))
    ws = make_biomass_workspace(g, params)
    dummy = ws.layout.pack(np.zeros(g.cells), fill=1.0)[1] == 1.0
    assert dummy.any()
    seen = []
    cg = ops.cg

    def recording_cg(apply, rhs, x, diag, done):
        seen.extend([rhs, x.copy()])
        out = cg(lambda d: seen.append(d.copy()) or apply(d), rhs, x, diag, done)
        seen.extend(out[:2])
        return out

    monkeypatch.setattr(ops, "cg", recording_cg)
    res, slope, c = _direction_inputs(g, 3)
    biomass._newton_direction(ws, res, slope, c, 1e-9)
    assert len(seen) > 10
    assert all(np.all(v[dummy] == 0.0) for v in seen)


@pytest.mark.parametrize(
    "module", ["scipy.sparse.linalg", "scipy.fft", "scipy.special", "scipy.ndimage"]
)
def test_package_import_leaves_scipy_sparse_linalg_out(module):
    # the package needs numpy alone; run against the copy of the package
    # this module imported
    src = str(Path(biomass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = f"import sys, biofilmflow; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_package_import_loads_no_scipy_and_demo_setup_no_numpy_random():
    # the package runs on numpy alone, and a config whose presets draw no
    # random numbers builds no generator; run against the copy of the
    # package this module imported
    src = Path(biomass.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    code = (
        "import sys, biofilmflow\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from biofilmflow.config import initial_state, load_config\n"
        "initial_state(load_config(sys.argv[1]))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    demo = src.parent / "configs" / "demo.ini"
    out = subprocess.run(
        [sys.executable, "-c", code, str(demo)],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert out.stdout.split("\n")[:2] == ["[]", "False"]


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
