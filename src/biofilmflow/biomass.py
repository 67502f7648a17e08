"""Implicit time step of the degenerate biomass equation.

Backward Euler for

    (u+ - u)/dt - lap beta(u+) + div( (rho_mu * (gamma_mu u+)) v ) + b u+
        = f(rho_mu * w) u+

with beta the Lipschitz surrogate of the diffusion graph, Dirichlet
value 0 for u and beta(u) on the gamma0 faces, no flux elsewhere. The
convected quantity is the mollified cutoff density at the *new* time
level, so the whole step is one nonlinear system; it is solved by a
damped Newton method whose Jacobian keeps the diffusion and reaction
terms exact but freezes the convection term (its contribution is
O(dt |v|/h) and chasing it buys nothing at the step sizes of interest).

The converged solution obeys the discrete comparison bounds up to the
Newton tolerance plus the surrogate's penalty undershoot (which scales
with beta_reg_lambda); the final clamp to [0, u_star] is a rounding
guard whose magnitude is reported, not a modeling device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import operators as ops
from .constitutive import (
    biomass_diffusion_reg,
    biomass_diffusion_reg_deriv,
    consumption_rate,
    diffusion_energy,
)
from .errors import ConfigError, NonConvergenceError
from .grid import ScalarField
from .mollify import build_cutoff, build_kernel, mollify_array


@dataclass(frozen=True)
class BiomassStepConfig:
    dt: float
    newton_tol: float = 1e-11
    newton_max: int = 40

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("biomass step requires dt > 0")
        if not self.newton_tol > 0:
            raise ConfigError("newton_tol must be positive")


@dataclass
class BiomassStepReport:
    newton_iters: int
    residual: float
    pre_clamp_min: float
    pre_clamp_max: float
    clamp_mass: float


@dataclass
class BiomassWorkspace:
    """Per-(grid, params) precomputations for the biomass step."""

    grid: object
    params: object
    kernel_mu: object
    cutoff: np.ndarray
    stiffness: sp.csr_matrix  # acts on the transformed variable beta(u)
    # most recent Jacobian factorization, reused across Newton iterations
    # and coupling rounds while it still contracts (see step_biomass)
    jac_lu: object = None
    jac_key: tuple = None
    # cells on the u < 0 penalty branch when jac_lu was factored
    jac_neg: np.ndarray = None


def make_biomass_workspace(grid, params):
    return BiomassWorkspace(
        grid=grid,
        params=params,
        kernel_mu=build_kernel(params.mu, grid),
        cutoff=build_cutoff(grid, params.mu).values,
        stiffness=ops.scalar_laplacian_gamma0(grid),
    )


def biomass_energy(u, params):
    """Diffusion energy integral of a biomass field (nonnegative)."""
    return float(np.sum(diffusion_energy(u.values, params)) * u.grid.cell_volume)


def _residual(x, u_old, growth, v, ws, dt):
    p = ws.params
    beta = biomass_diffusion_reg(x, p)
    conv_field = mollify_array(ws.cutoff * x, ws.kernel_mu)
    conv = ops.upwind_flux_divergence(conv_field, v, ws.grid.h)
    diff = (ws.stiffness @ beta.ravel()).reshape(ws.grid.cells)
    return (x - u_old) / dt + diff + conv + (p.b - growth) * x


def step_biomass(ws, u, w, v, cfg, x0=None):
    """Advance the biomass field one implicit step.

    u, w: ScalarField; v: VectorField (discretely divergence-free,
    zero boundary faces). Returns (ScalarField, BiomassStepReport).
    x0 optionally warm-starts Newton (e.g. the previous Picard iterate).
    """
    p = ws.params
    dt = cfg.dt
    grid = ws.grid
    w_tilde = mollify_array(np.clip(w.values, 0.0, 1.0), ws.kernel_mu)
    growth = consumption_rate(w_tilde, p)

    u_old = u.values
    x = np.array(u_old if x0 is None else x0, dtype=float, copy=True)
    g_vec = _residual(x, u_old, growth, v.comps, ws, dt)
    res = float(np.abs(g_vec).max()) * dt
    history = [res]
    ncell = x.size
    eye = sp.identity(ncell, format="csr")

    # Modified Newton: the factorization is the expensive primitive, so the
    # last one is cached on the workspace and reused while it keeps halving
    # the residual. The diagonal moves O(dt) per step and the beta' slopes
    # drift slowly along a trajectory, so in quiet stretches whole steps run
    # on an old factorization; the contraction monitor refreshes it the
    # moment that stops being true. The slope of beta jumps from 0 to
    # 1/lambda across u = 0, so a factorization is also dropped as soon as
    # any cell crosses to the other side of 0 than it was factored at: an
    # old branch there gives directions that barely reduce the residual.
    # Acceptance is always on the true residual, never on the quality of
    # the Jacobian.
    cache_key = (dt,)
    lu = ws.jac_lu if ws.jac_key == cache_key else None
    lu_fresh = False

    it = 0
    while res > cfg.newton_tol:
        if it >= cfg.newton_max:
            raise NonConvergenceError(
                f"biomass Newton stalled at residual {res:.3e} "
                f"after {it} iterations (tol {cfg.newton_tol:.1e})",
                residual=res,
                history=history,
            )
        neg = x < 0.0
        if lu is not None and not np.array_equal(neg, ws.jac_neg):
            lu = None
        if lu is None:
            slope = biomass_diffusion_reg_deriv(x, p).ravel()
            jac = (
                eye / dt
                + sp.diags((p.b - growth).ravel())
                + ws.stiffness @ sp.diags(slope)
            )
            lu = splu(jac.tocsc())
            ws.jac_lu, ws.jac_key, ws.jac_neg = lu, cache_key, neg
            lu_fresh = True
        delta = lu.solve(-g_vec.ravel()).reshape(grid.cells)
        # backtracking on the sup-norm of the residual
        step = 1.0
        accepted = False
        for _ in range(30):
            x_try = x + step * delta
            g_try = _residual(x_try, u_old, growth, v.comps, ws, dt)
            res_try = float(np.abs(g_try).max()) * dt
            if res_try <= (1.0 - 1e-4 * step) * res or res_try <= cfg.newton_tol:
                accepted = True
                break
            step *= 0.5
        it += 1
        if not accepted:
            if lu_fresh:
                raise NonConvergenceError(
                    f"biomass Newton line search failed at residual {res:.3e} "
                    f"with a current Jacobian (tol {cfg.newton_tol:.1e})",
                    residual=res,
                    history=history,
                )
            lu = None  # stale direction went uphill: refactor here and retry
            continue
        slow = res_try > 0.5 * res
        x, g_vec, res = x_try, g_try, res_try
        history.append(res)
        if slow and not lu_fresh:
            lu = None  # stale and barely contracting: next pass refactors
        lu_fresh = False

    pre_min = float(x.min())
    pre_max = float(x.max())
    clamped = np.clip(x, 0.0, p.u_star)
    clamp_mass = float(np.abs(clamped - x).sum() * grid.cell_volume)
    report = BiomassStepReport(
        newton_iters=it,
        residual=res,
        pre_clamp_min=pre_min,
        pre_clamp_max=pre_max,
        clamp_mass=clamp_mass,
    )
    return ScalarField(grid, clamped), report
