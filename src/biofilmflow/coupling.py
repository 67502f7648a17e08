"""Time loop: per-step Picard coupling of flow, nutrient, and biomass.

Each step advances all three fields from time t to t+dt by successive
substitution on the biomass iterate: the flow solve sees the current
biomass iterate through its speed obstacle, the nutrient solve sees the
new velocity, the biomass solve sees both, and the loop repeats until
the biomass iterate is stationary in L2. All three solves restart from
the time-level-t fields in every iteration; only the coupling fields
move, so the accepted state is a fixed point of the composed map.

Besides the coupling fields, rounds differ only in where their inner
solves start and in the first round's projection tolerance. Each round's
projection starts from the velocity, pressure and multipliers of the
round before it (so a round after an inactive one does no Poisson
solve), and
each round's biomass Newton solve from the previous round's iterate as
it was before the clamp to [0, u*]. The first round's residual is the
whole change over the step, so where the obstacle binds that round is
never accepted; its projection stops at FIRST_ROUND_TOL instead of the
tight FEAS_TOL/STEP_TOL. A round is accepted only when its projection
met the tight tolerances, so a first round that passes the Picard test
on a loose projection is followed by a tight one that faces the same
test. A round whose projection was loose also stops its biomass Newton
solve at FIRST_ROUND_TOL instead of NEWTON_TOL: it only seeds the next
round, so every accepted biomass iterate is still solved to NEWTON_TOL.
Where the obstacle is inactive the projection meets the tight
tolerances in its first iteration whatever it was asked for, and the
first round, Newton solve included, can be accepted as before.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import operators as ops
from .biomass import (
    BiomassStepConfig,
    biomass_energy,
    make_biomass_workspace,
    step_biomass,
)
from .config import CouplingConfig
from .constitutive import speed_limit, validate_params
from .diagnostics import StepDiagnostics, invariant_report
from .errors import ConfigError, InvariantError, NonConvergenceError
from .flow import (
    make_flow_workspace,
    obstacle_density,
    predict_velocity,
    pressure_project,
    step_flow,
    workspace_obstacle,
)
from .grid import ScalarField, VectorField
from .mollify import build_cutoff, mollifier
from .nutrient import make_nutrient_workspace, step_nutrient

# relative divergence above which the initial velocity is projected
INITIAL_DIV_TOL = 1e-12
# stopping tolerance of the first coupling round's projection onto K
# (speed excess, divergence and increment)
FIRST_ROUND_TOL = 1e-3


@dataclass
class SimState:
    t: float
    u: ScalarField
    w: ScalarField
    v: VectorField
    P: ScalarField


@dataclass
class Stepper:
    """Solver workspaces bound to one (grid, params, dt) triple."""

    grid: object
    params: object
    coupling: CouplingConfig
    flow_ws: object
    bio_ws: object
    nut_ws: object
    bio_cfg: BiomassStepConfig


def make_stepper(grid, params, coupling, bio_cfg=None):
    validate_params(params)
    if bio_cfg is None:
        bio_cfg = BiomassStepConfig(dt=coupling.dt)
    if bio_cfg.dt != coupling.dt:
        raise ConfigError("biomass step dt differs from the coupling dt")
    return Stepper(
        grid=grid,
        params=params,
        coupling=coupling,
        flow_ws=make_flow_workspace(grid, params, coupling.dt),
        bio_ws=make_biomass_workspace(grid, params),
        nut_ws=make_nutrient_workspace(grid, params),
        bio_cfg=bio_cfg,
    )


def check_initial_data(u0, w0, v0, params):
    """Validate the starting fields; returns (u0, w0, v0) with v0
    divergence-projected when needed.

    Requirements: 0 <= u0 <= u*, 0 <= w0 <= 1, finite energy integral,
    and strict pointwise feasibility of the initial speed against the
    sharp ceiling of the smoothed initial biomass: |v_c| < p0 where the
    smoothed density is below the blow-up point, v_c = 0 elsewhere.
    """
    grid = u0.grid
    uv = u0.values
    if not np.isfinite(uv).all() or uv.min() < 0 or uv.max() > params.u_star:
        bad = np.unravel_index(
            np.argmin(np.minimum(uv, params.u_star - uv)), uv.shape
        )
        raise ConfigError(
            f"initial biomass out of [0, u_star] at cell {tuple(int(i) for i in bad)} "
            f"(value {uv[bad]:.6g})"
        )
    wv = w0.values
    if not np.isfinite(wv).all() or wv.min() < 0 or wv.max() > 1.0:
        bad = np.unravel_index(np.argmin(np.minimum(wv, 1.0 - wv)), wv.shape)
        raise ConfigError(
            f"initial nutrient out of [0, 1] at cell {tuple(int(i) for i in bad)} "
            f"(value {wv[bad]:.6g})"
        )
    phi0 = biomass_energy(u0, params)
    if not np.isfinite(phi0):
        raise ConfigError("initial biomass energy integral is not finite")

    dv = float(np.abs(ops.divergence(list(v0.comps), grid.h)).max())
    vmax = float(max(np.abs(c).max() for c in v0.comps))
    if dv > INITIAL_DIV_TOL * (vmax / min(grid.h) + 1.0):
        v0, _ = pressure_project(v0, dt=1.0)

    dens = obstacle_density(
        uv, build_cutoff(grid, params.mu), mollifier(params.eps, grid), params.u_star
    )
    with np.errstate(over="ignore"):  # an overflowing speed is inf; the test below names it
        speed = ops.cell_norm(ops.center_average(v0.comps))
    ceiling = np.full(grid.cells, np.inf)
    porous = (dens > 0.0) & (dens < params.delta0)
    ceiling[porous] = speed_limit(dens[porous], params)
    ceiling[dens >= params.delta0] = 0.0
    margin = ceiling - speed
    solid = dens >= params.delta0
    bad_solid = solid & (speed > 1e-14)
    bad_porous = ~solid & (margin <= 0.0)
    if bad_solid.any() or bad_porous.any():
        which = bad_solid if bad_solid.any() else bad_porous
        bad = np.unravel_index(np.argmax(which), which.shape)
        raise ConfigError(
            "initial velocity violates strict feasibility at cell "
            f"{tuple(int(i) for i in bad)}: speed {speed[bad]:.6g} vs ceiling "
            f"{ceiling[bad]:.6g}"
        )
    return u0, w0, v0


def picard_step(stepper, state, g):
    """Advance one dt; returns (SimState, StepDiagnostics)."""
    cc = stepper.coupling
    grid = stepper.grid
    vol = grid.cell_volume
    # the predictor sees only the old velocity and the forcing, not the
    # biomass iterate, so every coupling round projects the same v*
    v_star, _, viscous = predict_velocity(stepper.flow_ws, state.v, g)
    uk = state.u
    # each round's projection starts from the previous round's velocity,
    # pressure and multipliers and its Newton solve from the previous
    # round's pre-clamp iterate; the first starts cold and from the old
    # biomass, so the step depends on its start state only
    start = None
    x0 = None
    residuals = []
    projection_iters = []
    newton_iters = []
    krylov_iters = []
    for k in range(cc.picard_max):
        v_new, pressure, flow_rep = step_flow(
            stepper.flow_ws,
            v_star,
            uk,
            start=start,
            tol=FIRST_ROUND_TOL if k == 0 else None,
        )
        start = (v_new, pressure, flow_rep.lam)
        w_new, nut_rep = step_nutrient(stepper.nut_ws, state.w, uk, v_new, cc.dt)
        u_new, bio_rep = step_biomass(
            stepper.bio_ws,
            state.u,
            w_new,
            v_new,
            stepper.bio_cfg,
            x0=x0,
            tol=None if flow_rep.tight else FIRST_ROUND_TOL,
        )
        x0 = bio_rep.iterate
        norm_prev = np.sqrt(ops.scalar_l2_sq(uk.values, vol))
        res = float(
            np.sqrt(ops.scalar_l2_sq(u_new.values - uk.values, vol))
        )
        residuals.append(res)
        projection_iters.append(flow_rep.dykstra_sweeps)
        newton_iters.append(bio_rep.newton_iters)
        krylov_iters.append(bio_rep.krylov_iters)
        uk = u_new
        if (
            flow_rep.tight
            and k + 1 >= cc.picard_min_iters
            and res <= cc.picard_tol * norm_prev + cc.picard_abs_floor
        ):
            break
    else:
        raise NonConvergenceError(
            f"coupling iteration did not settle in {cc.picard_max} rounds "
            f"(last residual {residuals[-1]:.3e}); a smaller dt shrinks the "
            "contraction constant",
            residual=residuals[-1],
            history=residuals,
        )

    new_state = SimState(t=state.t + cc.dt, u=u_new, w=w_new, v=v_new, P=pressure)
    nutrient_sq = ops.scalar_l2_sq(w_new.values, vol)
    diag = StepDiagnostics(
        step=-1,
        t=new_state.t,
        picard_iters=len(residuals),
        u_min=bio_rep.pre_clamp_min,
        u_max=bio_rep.pre_clamp_max,
        w_min=nut_rep.pre_clamp_min,
        w_max=nut_rep.pre_clamp_max,
        kinetic_energy=0.5 * ops.face_l2_sq(list(v_new.comps), vol),
        phi_u=biomass_energy(u_new, stepper.params),
        nutrient_l2=float(np.sqrt(nutrient_sq)),
        max_constraint_excess=flow_rep.max_excess,
        max_div=flow_rep.max_div,
        mass_u=ops.scalar_mass(u_new.values, vol),
        mass_w=ops.scalar_mass(w_new.values, vol),
        clamp_u=bio_rep.clamp_mass,
        clamp_w=nut_rep.clamp_mass,
        picard_residuals=residuals,
        round_projection_iters=projection_iters,
        round_newton_iters=newton_iters,
        round_krylov_iters=krylov_iters,
        viscous_grad_sq=viscous,
        nutrient_sq=nutrient_sq,
        nutrient_grad_sq=ops.gradient_sq_sum(w_new.values, grid.h, vol),
        forcing_sq=ops.face_l2_sq(list(g.comps), vol),
    )
    return new_state, diag


def run(cfg):
    """Drive a full simulation from a parsed configuration.

    Returns (final SimState, list of StepDiagnostics, None). Each step's
    row and snapshot are written before the invariants are enforced, so
    partial output survives an abort. The third value is always None; it
    stays because perfbench/workloads.py unpacks three values, so the two
    change together.
    """
    from .config import initial_state, num_steps
    from .output import SeriesWriter, write_snapshot

    grid = cfg.grid
    params = cfg.params
    stepper = make_stepper(grid, params, cfg)
    state = initial_state(cfg)
    g = state.pop("g")
    state = SimState(t=0.0, **state)

    steps = num_steps(cfg)
    writer = None
    out_dir = cfg.output.out_dir
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            writer = SeriesWriter(os.path.join(out_dir, cfg.output.series_name))
        except OSError as exc:
            raise ConfigError(f"cannot write output to out_dir {out_dir!r}: {exc}") from None
    diags = []
    try:
        for n in range(steps):
            state, diag = picard_step(stepper, state, g)
            diag = replace(diag, step=n + 1)
            diags.append(diag)
            obstacle = workspace_obstacle(stepper.flow_ws, state.u)
            if writer is not None:
                try:
                    writer.write_row(diag)
                    if cfg.output.snapshot_every and (n + 1) % cfg.output.snapshot_every == 0:
                        write_snapshot(
                            state,
                            grid,
                            out_dir,
                            n + 1,
                            cfg.output.snapshot_fields,
                            obstacle=obstacle,
                        )
                except OSError as exc:
                    raise ConfigError(
                        f"cannot write output of step {n + 1} to out_dir {out_dir!r}: {exc}"
                    ) from None
            rep = invariant_report(state, params, obstacle=obstacle, feas_tol=1e-6)
            if not rep.ok:
                names = ", ".join(
                    f"{c.name} (margin {c.margin:.3e})" for c in rep.failures()
                )
                raise InvariantError(f"invariant violated after step {n + 1}: {names}")
    finally:
        if writer is not None:
            writer.close()
    return state, diags, None
