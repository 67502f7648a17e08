"""Tests for initial-data validation and the per-step coupling loop."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import biomass_jacobian, recorded_run, spy_calls, stream_field_2d

from biofilmflow import biomass
from biofilmflow import coupling as coupling_mod
from biofilmflow import operators as ops
from biofilmflow.biomass import NEWTON_TOL, BiomassStepConfig, step_biomass
from biofilmflow.config import initial_state, parse_config
from biofilmflow.constitutive import ModelParams
from biofilmflow.coupling import (
    CouplingConfig,
    SimState,
    check_initial_data,
    make_stepper,
    picard_step,
    run,
)
from biofilmflow.diagnostics import invariant_report
from biofilmflow.errors import ConfigError, NonConvergenceError
from biofilmflow.flow import FEAS_TOL, predict_velocity, step_flow, workspace_obstacle
from biofilmflow.grid import ScalarField, VectorField, build_grid
from biofilmflow.nutrient import step_nutrient
from biofilmflow.presets import build_vector


def _state_fields(params, cells=(16, 16), seed=0, u_hi=0.3):
    g = build_grid(2, (1.0, 1.0), cells, ("left",))
    rng = np.random.default_rng(seed)
    u = ScalarField(g, rng.uniform(0.0, u_hi, g.cells))
    w = ScalarField(g, rng.uniform(0.3, 1.0, g.cells))
    v = stream_field_2d(g, rng, amplitude=0.05)
    return g, u, w, v


# --- initial data ------------------------------------------------------------

def test_initial_data_accepts_valid_fields(params):
    g, u, w, v = _state_fields(params)
    u2, w2, v2 = check_initial_data(u, w, v, params)
    assert u2 is u and w2 is w
    assert all(np.array_equal(a, b) for a, b in zip(v2.comps, v.comps))


def test_initial_data_rejects_out_of_range(params):
    g, u, w, v = _state_fields(params)
    bad_u = ScalarField(g, u.values.copy())
    bad_u.values[3, 4] = -0.01
    with pytest.raises(ConfigError, match=r"\(3, 4\)"):
        check_initial_data(bad_u, w, v, params)
    bad_u.values[3, 4] = params.u_star + 0.01
    with pytest.raises(ConfigError):
        check_initial_data(bad_u, w, v, params)
    bad_w = ScalarField(g, w.values.copy())
    bad_w.values[0, 0] = 1.5
    with pytest.raises(ConfigError):
        check_initial_data(u, bad_w, v, params)
    nan_u = ScalarField(g, u.values.copy())
    nan_u.values[2, 2] = np.nan
    with pytest.raises(ConfigError):
        check_initial_data(nan_u, w, v, params)


def test_initial_data_solid_region_needs_rest(params):
    g, _, w, v = _state_fields(params, cells=(32, 32))
    u = ScalarField.zeros(g)
    u.values[10:22, 10:22] = params.u_star
    moving = stream_field_2d(g, np.random.default_rng(5), amplitude=1.0)
    with pytest.raises(ConfigError, match="strict feasibility"):
        check_initial_data(u, w, moving, params)
    # the same biomass at rest is fine
    _, _, v0 = check_initial_data(u, w, VectorField.zeros(g), params)
    assert all(np.all(c == 0.0) for c in v0.comps)


def test_initial_data_projects_compressible_velocity(params):
    g, u, w, _ = _state_fields(params)
    rng = np.random.default_rng(7)
    raw = VectorField(
        g, tuple(0.01 * rng.standard_normal(g.face_shape(ax)) for ax in range(2))
    )
    _, _, v = check_initial_data(u, w, raw, params)
    vmax = max(float(np.abs(c).max()) for c in v.comps)
    div = np.abs(ops.divergence(list(v.comps), g.h)).max()
    assert div <= 1e-12 * (vmax / min(g.h) + 1.0)
    assert any(not np.array_equal(a, b) for a, b in zip(v.comps, raw.comps))


# --- picard loop -------------------------------------------------------------

def test_sterile_run_converges_immediately(params):
    # u = 0 decouples the system: the biomass stays at zero and the first
    # coupling sweep is already the fixed point
    g, _, w, _ = _state_fields(params)
    coupling = CouplingConfig(dt=1e-3, t_end=1e-2)
    stepper = make_stepper(g, params, coupling)
    gforce = stream_field_2d(g, np.random.default_rng(1), amplitude=2.0)
    state = SimState(t=0.0, u=ScalarField.zeros(g), w=w, v=VectorField.zeros(g),
                     P=ScalarField.zeros(g))
    for _ in range(5):
        state, diag = picard_step(stepper, state, gforce)
        assert diag.picard_iters <= 2
        assert np.all(state.u.values == 0.0)
    assert ops.face_l2_sq(list(state.v.comps), g.cell_volume) > 0.0


def test_update_order_does_not_move_the_fixed_point(params):
    # resolve the same implicit step with the two sub-solver orders
    # (nutrient before biomass and the reverse); at tight tolerance both
    # settle on the same triple
    g, u, w, v = _state_fields(params, u_hi=0.6)
    dt = 1e-3
    coupling = CouplingConfig(dt=dt, t_end=dt, picard_tol=1e-13, picard_max=60)
    stepper = make_stepper(g, params, coupling)
    gforce = stream_field_2d(g, np.random.default_rng(3), amplitude=2.0)
    state = SimState(t=0.0, u=u, w=w, v=v, P=ScalarField.zeros(g))
    ref, _ = picard_step(stepper, state, gforce)

    uk, wk = u, w
    v_star, _, _ = predict_velocity(stepper.flow_ws, v, gforce)
    for _ in range(60):
        v_new, _, _ = step_flow(stepper.flow_ws, v_star, uk)
        u_new, _ = step_biomass(
            stepper.bio_ws, u, wk, v_new, stepper.bio_cfg, x0=uk.values
        )
        w_new, _ = step_nutrient(stepper.nut_ws, w, u_new, v_new, dt)
        res_u = np.sqrt(ops.scalar_l2_sq(u_new.values - uk.values, g.cell_volume))
        res_w = np.sqrt(ops.scalar_l2_sq(w_new.values - wk.values, g.cell_volume))
        uk, wk = u_new, w_new
        if res_u + res_w <= 1e-13 * (
            np.sqrt(ops.scalar_l2_sq(uk.values, g.cell_volume))
            + np.sqrt(ops.scalar_l2_sq(wk.values, g.cell_volume))
        ):
            break
    assert np.abs(uk.values - ref.u.values).max() < 1e-9
    assert np.abs(w_new.values - ref.w.values).max() < 1e-9
    assert max(
        np.abs(a - b).max() for a, b in zip(v_new.comps, ref.v.comps)
    ) < 1e-9


def test_picard_runs_out_raises_with_history(params):
    g, u, w, v = _state_fields(params, u_hi=0.6)
    coupling = CouplingConfig(
        dt=1e-3, t_end=1e-3, picard_tol=1e-16, picard_abs_floor=0.0, picard_max=2
    )
    stepper = make_stepper(g, params, coupling)
    gforce = stream_field_2d(g, np.random.default_rng(4), amplitude=2.0)
    state = SimState(t=0.0, u=u, w=w, v=v, P=ScalarField.zeros(g))
    with pytest.raises(NonConvergenceError) as exc:
        picard_step(stepper, state, gforce)
    assert len(exc.value.history) == 2


def test_stepper_rejects_mismatched_dt(params):
    g = build_grid(2, (1.0, 1.0), (8, 8), ("left",))
    coupling = CouplingConfig(dt=1e-3, t_end=1e-2)
    with pytest.raises(ConfigError):
        make_stepper(g, params, coupling, bio_cfg=BiomassStepConfig(dt=2e-3))


def test_coupling_config_guards():
    with pytest.raises(ConfigError):
        CouplingConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        CouplingConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ConfigError):
        CouplingConfig(dt=1e-3, t_end=1.0, picard_max=0)


# --- full driver -------------------------------------------------------------

_RUN_INI = """
[grid]
cells = 8 8
gamma0 = left

[time]
t_end = {t_end}
dt = 1e-3

[output]
out_dir = {out_dir}
snapshot_every = 0

[initial]
u = gaussian-blob amplitude=0.4 width=0.25
w = uniform value=0.9
g = swirl amplitude=2.0
"""


def test_zero_horizon_echoes_initial_state(tmp_path):
    cfg = parse_config(_RUN_INI.format(t_end="0.0", out_dir="none"))
    state, diags, record = run(cfg)
    assert state.t == 0.0
    assert diags == []
    init = initial_state(cfg)
    assert np.array_equal(state.u.values, init["u"].values)
    assert np.array_equal(state.w.values, init["w"].values)


def test_rerun_is_bitwise_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1, d1, _ = run(parse_config(_RUN_INI.format(t_end="0.005", out_dir=out1)))
    s2, d2, _ = run(parse_config(_RUN_INI.format(t_end="0.005", out_dir=out2)))
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert np.array_equal(s1.u.values, s2.u.values)
    assert np.array_equal(s1.w.values, s2.w.values)
    assert all(np.array_equal(a, b) for a, b in zip(s1.v.comps, s2.v.comps))


def test_run_final_state_passes_invariants(params, tmp_path):
    cfg = parse_config(_RUN_INI.format(t_end="0.01", out_dir="none"))
    state, diags, _ = run(cfg)
    assert state.t == pytest.approx(0.01)
    assert len(diags) == 10
    coupling = CouplingConfig(dt=cfg.dt, t_end=cfg.t_end)
    stepper = make_stepper(cfg.grid, cfg.params, coupling)
    rep = invariant_report(
        state, cfg.params, obstacle=workspace_obstacle(stepper.flow_ws, state.u)
    )
    assert all(c.passed for c in rep.checks)


def _failed(rep):
    return {c.name: c.location for c in rep.failures()}


def test_invariant_report_flags_each_violation(params):
    # negative controls: a valid state passes, and each defect fails
    # exactly its own check
    g, u, w, v = _state_fields(params, cells=(8, 8))
    state = SimState(t=0.0, u=u, w=w, v=v, P=ScalarField.zeros(g))
    speed = ops.cell_norm(ops.center_average(v.comps))
    obstacle = speed + 1.0
    assert invariant_report(state, params, obstacle=obstacle).ok

    # one cell whose speed exceeds its bound
    assert speed[3, 5] > 0.0
    tight = obstacle.copy()
    tight[3, 5] = 0.5 * speed[3, 5]
    assert _failed(invariant_report(state, params, obstacle=tight)) == {
        "speed_constraint": (3, 5)
    }

    # a divergent field
    vx = v.comps[0].copy()
    vx[4, 2] += 1e-3
    leaky = replace(state, v=VectorField(g, (vx, v.comps[1])))
    assert _failed(invariant_report(leaky, params, obstacle=obstacle + 1e-3)) == {
        "divergence": None
    }

    # biomass below zero
    low = u.values.copy()
    low[2, 6] = -0.01
    negative = replace(state, u=ScalarField(g, low))
    assert _failed(invariant_report(negative, params, obstacle=obstacle)) == {
        "biomass_bounds": (2, 6)
    }


def _bits(v):
    return [c.tobytes() for c in v.comps]


def test_run_records_trajectory(tmp_path):
    cfg = parse_config(_RUN_INI.format(t_end="0.003", out_dir="none"))
    with spy_calls(coupling_mod, "predict_velocity") as predictor:
        state, diags, record = recorded_run(cfg)
    assert len(record.v) == 4  # initial field plus three steps
    assert len(record.v_star) == 3
    assert len(record.obstacles) == 3
    # the recorder keeps each step's accepted round: the velocity the next
    # step's predictor starts from, and at the end run's final velocity
    starts = [args[1] for _, args, _, _ in predictor]
    assert len(starts) == 3
    assert [_bits(v) for v in record.v[:3]] == [_bits(v) for v in starts]
    assert _bits(record.v[3]) == _bits(state.v)
    assert any(d.picard_iters > 1 for d in diags)


def _block_stepper(params, coupling, n=64):
    """The saturated block on n^2 cells: a u* patch over the middle quarter
    of each axis, at rest in a swirl of amplitude 600."""
    g = build_grid(2, (1.0, 1.0), (n, n), ("left",))
    stepper = make_stepper(
        g, params, coupling, bio_cfg=BiomassStepConfig(dt=coupling.dt, newton_max=120)
    )
    u = ScalarField.zeros(g)
    patch = slice(3 * n // 8, 5 * n // 8)
    u.values[patch, patch] = params.u_star
    state = SimState(
        t=0.0,
        u=u,
        w=ScalarField.constant(g, 1.0),
        v=VectorField.zeros(g),
        P=ScalarField.zeros(g),
    )
    force = build_vector("swirl amplitude=600 cx=0.5 cy=0.5", g, None)
    return stepper, state, force


def _spied_step(stepper, state, force):
    """One picard_step with spies on its inner solves; returns (new state,
    StepDiagnostics, [(kwargs, FlowStepReport)] per flow call,
    [(kwargs, (u, BiomassStepReport))] per biomass call)."""
    with spy_calls(coupling_mod, "step_flow", "step_biomass") as log:
        state, diag = picard_step(stepper, state, force)
    flows = [(kwargs, out[2]) for name, _, kwargs, out in log if name == "step_flow"]
    bios = [(kwargs, out) for name, _, kwargs, out in log if name == "step_biomass"]
    return state, diag, flows, bios


@pytest.fixture(scope="module")
def saturated_steps():
    """C02's 3-step saturated block: one _spied_step result per step."""
    stepper, state, force = _block_stepper(
        ModelParams(), CouplingConfig(dt=1e-3, t_end=3e-3)
    )
    steps = []
    for _ in range(3):
        steps.append(_spied_step(stepper, state, force))
        state = steps[-1][0]
    return steps


@pytest.fixture(scope="module")
def saturated_block(saturated_steps):
    """The same run as (Newton iterations of every biomass call,
    StepDiagnostics of every step, (lam passed in, FlowStepReport) of
    every flow call)."""
    iters = [out[1].newton_iters for *_, bios in saturated_steps for _, out in bios]
    diags = [diag for _, diag, _, _ in saturated_steps]
    flows = [
        (kwargs.get("lam"), rep)
        for _, _, step_flows, _ in saturated_steps
        for kwargs, rep in step_flows
    ]
    return iters, diags, flows


def test_saturated_block_newton_stays_short(saturated_block):
    # thousands of cells cross u = 0 during a Newton solve, where the
    # surrogate's slope jumps from 0 to 1/lambda, and the block's edge
    # sits near u*, where it grows to the cap slope; every biomass call
    # must still settle well inside newton_max
    iters, _, _ = saturated_block
    assert iters
    assert max(iters) <= 40, iters


def test_saturated_block_newton_in_tau_halves_the_work(saturated_block):
    # Newton on tau, where the surrogate's kinks are softened, halves
    # the work: Newton on u itself took 88 iterations
    # and 9241 CG iterations on these 3 steps. The flow sees the same
    # biomass to the Newton tolerance, so every round's projection count,
    # and with them the Picard counts, are as they were
    iters, diags, _ = saturated_block
    assert sum(iters) <= 50, iters
    krylov = sum((d.round_krylov_iters for d in diags), [])
    assert sum(krylov) <= 3000, krylov
    assert [d.round_projection_iters for d in diags] == [
        [10, 82, 1], [12, 127, 75, 15], [15, 130, 83, 14]
    ]


def test_saturated_block_projection_stays_short(saturated_block):
    # the obstacle binds on the whole block; the accelerated dual
    # gradient must keep every accepted round's projection to a few
    # hundred iterations
    _, diags, flows = saturated_block
    sweeps = [d.round_projection_iters[-1] for d in diags]
    assert len(sweeps) == 3
    assert max(sweeps) <= 500, sweeps
    # every round counts, not just the accepted ones: a round started
    # from the previous round's multipliers needs far fewer iterations
    total = sum(rep.dykstra_sweeps for _, rep in flows)
    assert total <= 1600, [rep.dykstra_sweeps for _, rep in flows]
    # the Anderson-accelerated projection needs far fewer than FISTA
    # with restart took: 1042 in all, up to 268 in one round
    assert total <= 700, [rep.dykstra_sweeps for _, rep in flows]
    assert max(rep.dykstra_sweeps for _, rep in flows) <= 150


def test_picard_rounds_hand_multipliers_forward(saturated_block):
    # the first round of a step starts the projection from zero, so the
    # step depends on its start state only; each later round starts from
    # the multipliers the round before it returned
    _, diags, flows = saturated_block
    assert any(d.picard_iters > 1 for d in diags)
    rounds = iter(flows)
    for d in diags:
        prev = None
        for k in range(d.picard_iters):
            lam, rep = next(rounds)
            if k == 0:
                assert lam is None
            else:
                assert lam is prev.lam
            prev = rep
        assert prev.dykstra_sweeps == d.round_projection_iters[-1]
    assert next(rounds, None) is None


def test_first_round_projection_is_loose(saturated_block, saturated_steps):
    # the first round's residual is the whole change over the step, so its
    # projection stops at FIRST_ROUND_TOL; every later round is solved to
    # the tight tolerances
    iters, diags, flows = saturated_block
    assert [d.picard_iters for d in diags] == [3, 4, 4]
    assert all(d.round_projection_iters[0] <= 30 for d in diags), diags
    # the per-round record matches what the inner solves returned
    assert sum((d.round_projection_iters for d in diags), []) == [
        rep.dykstra_sweeps for _, rep in flows
    ]
    assert sum((d.round_newton_iters for d in diags), []) == iters
    assert sum((d.round_krylov_iters for d in diags), []) == [
        out[1].krylov_iters for *_, bios in saturated_steps for _, out in bios
    ]
    for _, diag, step_flows, _ in saturated_steps:
        later = diag.picard_iters - 1
        tols = [kwargs["tol"] for kwargs, _ in step_flows]
        assert tols == [coupling_mod.FIRST_ROUND_TOL] + [None] * later
        # the loose first projection stops short of the tight tolerances
        assert [rep.tight for _, rep in step_flows] == [False] + [True] * later


def test_loose_round_stops_newton_loosely(saturated_steps):
    # a round whose projection was loose cannot be accepted, so its Newton
    # solve stops at FIRST_ROUND_TOL; a tight round, and so the accepted
    # one, solves to NEWTON_TOL (test_first_round_projection_is_loose
    # checks that the Picard counts stay [3, 4, 4])
    for _, diag, step_flows, bios in saturated_steps:
        assert len(bios) == len(step_flows) == diag.picard_iters
        for (_, flow_rep), (kwargs, (_, bio_rep)) in zip(step_flows, bios):
            if flow_rep.tight:
                assert kwargs["tol"] is None
            else:
                assert kwargs["tol"] == coupling_mod.FIRST_ROUND_TOL
                assert bio_rep.residual <= coupling_mod.FIRST_ROUND_TOL
        assert not step_flows[0][1].tight
        # the loose solve stopped well short of the tight tolerance
        assert bios[0][1][1].residual > NEWTON_TOL
        assert bios[-1][1][1].residual <= NEWTON_TOL


def test_picard_rounds_hand_pre_clamp_iterate_forward(saturated_steps):
    # each round's Newton solve starts from the previous round's iterate
    # as it was before the clamp to [0, u*]; the first from the old biomass
    clamped_away = False
    for *_, bios in saturated_steps:
        assert len(bios) > 1
        assert bios[0][0]["x0"] is None
        for (kwargs, _), (_, (u_prev, rep_prev)) in zip(bios[1:], bios):
            assert kwargs["x0"] is rep_prev.iterate
            clamped_away |= not np.array_equal(rep_prev.iterate, u_prev.values)
    # the clamp acts here, so the pre-clamp iterate is not the clamped field
    assert clamped_away


def test_newton_directions_meet_forcing_term_on_saturated_block(monkeypatch, params):
    # at the patch's edge the slopes reach thousands while the reaction
    # falls to U'/dt: every direction of two saturated steps must still
    # leave a true linear residual, against the assembled Jacobian in tau,
    # within its forcing term. Started at the reaction-only point alone,
    # one of them was 11 times over, whatever the forcing
    slopes, growths, directions = [], [], []
    slope_of = biomass.biomass_diffusion_reg_deriv
    growth_of = biomass.consumption_rate
    direction_of = biomass._newton_direction

    def recording_slope(x, p):
        slopes.append(x.copy())
        return slope_of(x, p)

    def recording_growth(w, p):
        growths.append(growth_of(w, p))
        return growths[-1]

    def recording_direction(ws, g, s, c, eta):
        delta, its = direction_of(ws, g, s, c, eta)
        directions.append((ws, slopes[-1], growths[-1], g.copy(), eta, delta))
        return delta, its

    monkeypatch.setattr(biomass, "biomass_diffusion_reg_deriv", recording_slope)
    monkeypatch.setattr(biomass, "consumption_rate", recording_growth)
    monkeypatch.setattr(biomass, "_newton_direction", recording_direction)
    dt = 1e-3
    stepper, state, force = _block_stepper(params, CouplingConfig(dt=dt, t_end=2 * dt), n=32)
    for _ in range(2):
        state, _ = picard_step(stepper, state, force)
    assert len(directions) == len(slopes) > 20
    over = []
    for ws, x, growth, res, eta, delta in directions:
        jac = biomass_jacobian(x, growth, ws, dt)
        du = biomass._du_dtau(biomass._tau_of_u(x, params), params)
        step = delta if du is None else du * delta
        linear = np.abs(jac @ step.ravel() + res.ravel()).max()
        over.append(linear / (eta * np.abs(res).max()))
    assert max(over) <= 1.0, over


def test_loose_round_is_never_accepted(params):
    # with picard_tol = 1e3 every round passes the Picard test; the
    # saturated block's loose first round must still be followed by a
    # tight one, which is accepted
    coupling = CouplingConfig(dt=1e-3, t_end=1e-3, picard_tol=1e3)
    _, diag, flows, bios = _spied_step(*_block_stepper(params, coupling))
    assert diag.picard_iters == 2
    assert [rep.tight for _, rep in flows] == [False, True]
    assert [kwargs["tol"] for kwargs, _ in bios] == [coupling_mod.FIRST_ROUND_TOL, None]
    assert diag.max_constraint_excess <= FEAS_TOL
    assert diag.max_div <= FEAS_TOL

    # an inactive obstacle meets the tight tolerances in the loose round's
    # first iteration, so that round is accepted
    g, u, w, v = _state_fields(params)
    stepper = make_stepper(g, params, coupling)
    gforce = stream_field_2d(g, np.random.default_rng(2), amplitude=2.0)
    state = SimState(t=0.0, u=u, w=w, v=v, P=ScalarField.zeros(g))
    _, diag, flows, bios = _spied_step(stepper, state, gforce)
    assert diag.picard_iters == 1
    assert flows[0][0]["tol"] == coupling_mod.FIRST_ROUND_TOL
    # and its Newton solve is the tight one
    assert bios[0][0]["tol"] is None
    assert flows[0][1].tight and flows[0][1].dykstra_sweeps == 1
