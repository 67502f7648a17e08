"""Invariant margins and per-step bookkeeping records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops

# slack allowed on the biomass and nutrient bounds
BOUND_TOL = 1e-12


@dataclass
class InvariantCheck:
    name: str
    passed: bool
    margin: float
    location: tuple | None = None


@dataclass
class InvariantReport:
    checks: list

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def invariant_report(state, params, obstacle=None, feas_tol=1e-8):
    """Measure the pointwise invariants of a coupled state.

    Pure function of the inputs. margin > 0 means slack, margin < 0 a
    violation; `passed` compares against BOUND_TOL and feas_tol. When an
    obstacle (the speed bound per cell, as ``flow.workspace_obstacle``
    returns it) is supplied the velocity feasibility and divergence
    checks are included (feasibility threshold feas_tol * max obstacle).
    """
    checks = []
    u = state.u.values
    w = state.w.values
    grid = state.u.grid

    def bound_check(name, vals, lo, hi):
        lo_m = float(vals.min() - lo)
        hi_m = float(hi - vals.max())
        margin = min(lo_m, hi_m)
        loc = None
        if margin < -BOUND_TOL:
            bad = np.argmin(np.minimum(vals - lo, hi - vals))
            loc = tuple(int(i) for i in np.unravel_index(bad, vals.shape))
        checks.append(InvariantCheck(name, margin >= -BOUND_TOL, margin, loc))

    bound_check("biomass_bounds", u, 0.0, params.u_star)
    bound_check("nutrient_bounds", w, 0.0, 1.0)

    finite = all(
        bool(np.isfinite(a).all())
        for a in (u, w, *state.v.comps)
    )
    checks.append(InvariantCheck("finite", finite, 0.0 if finite else -np.inf))

    if obstacle is not None:
        speed = ops.cell_norm(ops.center_average(state.v.comps))
        excess = float(np.max(speed - obstacle))
        tol = feas_tol * float(obstacle.max())
        loc = None
        if excess > tol:
            bad = np.argmax(speed - obstacle)
            loc = tuple(int(i) for i in np.unravel_index(bad, speed.shape))
        checks.append(InvariantCheck("speed_constraint", excess <= tol, -excess, loc))

        dv = float(np.abs(ops.divergence(list(state.v.comps), grid.h)).max())
        vmax = float(max(np.abs(c).max() for c in state.v.comps))
        scale = vmax / min(grid.h) + 1.0
        checks.append(InvariantCheck("divergence", dv <= feas_tol * scale, -dv))
    return InvariantReport(checks)


@dataclass
class StepDiagnostics:
    """Everything the series writer and the acceptance checks consume."""

    step: int
    t: float
    picard_iters: int
    u_min: float  # pre-clamp extrema of the biomass solve
    u_max: float
    w_min: float
    w_max: float
    kinetic_energy: float  # 0.5 |v|^2 with h^n face weights
    phi_u: float
    nutrient_l2: float
    max_constraint_excess: float
    max_div: float
    mass_u: float
    mass_w: float
    clamp_u: float
    clamp_w: float
    # not serialized: energy-ledger raw terms and iteration telemetry
    picard_residuals: list = field(default_factory=list)
    # per coupling round, beside picard_residuals: projection, Newton and
    # Newton's summed CG iterations; the last entry is the accepted round,
    # whose projection counts from the previous round's multipliers when
    # the step took more than one round
    round_projection_iters: list = field(default_factory=list)
    round_newton_iters: list = field(default_factory=list)
    round_krylov_iters: list = field(default_factory=list)
    viscous_grad_sq: float = 0.0
    nutrient_sq: float = 0.0
    nutrient_grad_sq: float = 0.0
    forcing_sq: float = 0.0


CSV_COLUMNS = (
    "step",
    "t",
    "picard_iters",
    "u_min",
    "u_max",
    "w_min",
    "w_max",
    "kinetic_energy",
    "phi_u",
    "nutrient_l2",
    "max_constraint_excess",
    "max_div",
    "mass_u",
    "mass_w",
    "clamp_u",
    "clamp_w",
)
