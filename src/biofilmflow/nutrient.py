"""Nutrient advection-diffusion-consumption step.

Splitting per step: explicit conservative upwinding for the transport
term, implicit diffusion with the biomass-dependent diffusivity (harmonic
face averages), and a semi-implicit consumption term

    k1 u~ / (k2 + max(w_old, 0)) * w_new,    u~ = clip(rho_mu * u, 0, u*)

whose coefficient is nonnegative, so the system matrix

    I + dt A_d + dt diag(c)

is a symmetric M-matrix and the step inherits a discrete maximum
principle up to the explicit convection CFL margin; a step with
dt max|v|/h > 1 raises StabilityError instead. The system is solved
matrix-free by conjugate gradients, and the solution is clamped to
[0, 1] with the clamped mass reported. No-flux boundaries all around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .constitutive import nutrient_diffusivity
from .errors import ConfigError, NonConvergenceError, StabilityError
from .grid import ScalarField
from .mollify import mollifier, mollify_array

# conjugate gradients: relative residual bound, iteration cap
CG_RTOL = 1e-13
CG_MAX_ITERS = 500


@dataclass
class NutrientStepReport:
    pre_clamp_min: float
    pre_clamp_max: float
    clamp_mass: float


@dataclass
class NutrientWorkspace:
    grid: object
    params: object
    mollifier_mu: object


def make_nutrient_workspace(grid, params):
    return NutrientWorkspace(grid=grid, params=params, mollifier_mu=mollifier(params.mu, grid))


def _face_diffusivity(d_center, grid):
    """Harmonic mean of the cell diffusivity on interior faces, per axis."""
    out = []
    for ax in range(grid.dim):
        lo = d_center[ops.axslice(grid.dim, ax, slice(None, -1))]
        hi = d_center[ops.axslice(grid.dim, ax, slice(1, None))]
        out.append(2.0 * lo * hi / (lo + hi))
    return out


def convection_cfl(v, dt, h):
    return max(
        dt * float(np.abs(c).max()) / hx if c.size else 0.0
        for c, hx in zip(v.comps, h)
    )


def _apply_diffusion(x, face_diff, h):
    """Matrix-free -div(d grad x) with no-flux boundaries.

    Each interior face exchanges the flux d (x_hi - x_lo) / h^2 between
    its two cells; boundary faces carry none.
    """
    return ops.scatter_faces(
        [-(face_diff[ax] * np.diff(x, axis=ax) / h[ax] ** 2) for ax in range(x.ndim)]
    )


def _solve_spd(apply_op, rhs, x0):
    """Plain conjugate gradients; the nutrient system I + dt A_d + dt diag(c)
    is symmetric positive definite with condition numbers near 1 at the
    stable time steps, so a handful of matrix-free sweeps beats refactoring.
    """
    x = x0.copy()
    r = rhs - apply_op(x)
    p = r.copy()
    rs = float((r * r).sum())
    target = CG_RTOL * float(np.sqrt((rhs * rhs).sum()))
    for it in range(CG_MAX_ITERS):
        if np.sqrt(rs) <= target:
            return x, it
        ap = apply_op(p)
        alpha = rs / float((p * ap).sum())
        x += alpha * p
        r -= alpha * ap
        rs_new = float((r * r).sum())
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NonConvergenceError(
        f"nutrient linear solve stalled after {CG_MAX_ITERS} iterations",
        residual=float(np.sqrt(rs)),
    )


def step_nutrient(ws, w, u, v, dt):
    """One nutrient step; returns (ScalarField, NutrientStepReport)."""
    if not dt > 0:
        raise ConfigError("nutrient step requires dt > 0")
    grid = ws.grid
    p = ws.params
    cfl = convection_cfl(v, dt, grid.h)
    if cfl > 1.0:
        raise StabilityError(
            f"explicit nutrient convection violates CFL (dt max|v|/h = {cfl:.3f} > 1); "
            "reduce dt",
            residual=cfl,
        )

    u_tilde = np.clip(mollify_array(u.values, ws.mollifier_mu), 0.0, p.u_star)
    face_diff = _face_diffusivity(nutrient_diffusivity(u_tilde, p), grid)

    rhs = w.values - dt * ops.upwind_flux_divergence(w.values, v.comps, grid.h)
    coeff = dt * p.k1 * u_tilde / (p.k2 + np.maximum(w.values, 0.0))

    def system(x):
        return x + dt * _apply_diffusion(x, face_diff, grid.h) + coeff * x

    w_new, _ = _solve_spd(system, rhs, rhs)

    clamped, ledger = ops.clamp_ledger(w_new, 1.0, grid.cell_volume)
    return ScalarField(grid, clamped), NutrientStepReport(**ledger)


def nutrient_energy_check(w_sq, grad_sq, params, dt):
    """Largest ratio of the dissipation bookkeeping to its growth bound.

    w_sq: list of |w(t_n)|_2^2 for n = 0..N; grad_sq: list of
    |grad w(t_n)|^2 (interior faces, h^n weights) for n = 1..N, each taken
    on the post-step field. Checks, for every n,

        w_sq[n] + 2 c_d dt sum_{m<=n} grad_sq[m]
            <= exp(2 u* (k1/k2) T) w_sq[0]

    with T the full horizon, and returns max_n LHS/RHS (so values <= 1
    certify the estimate).
    """
    w_sq = np.asarray(w_sq, dtype=float)
    grad_sq = np.asarray(grad_sq, dtype=float)
    n_steps = len(grad_sq)
    if len(w_sq) != n_steps + 1:
        raise ValueError("w_sq must have one more entry than grad_sq")
    horizon = n_steps * dt
    lipschitz = params.k1 / params.k2
    bound = float(np.exp(2.0 * params.u_star * lipschitz * horizon) * w_sq[0])
    lhs = w_sq[1:] + 2.0 * params.c_d * dt * np.cumsum(grad_sq)
    if bound == 0.0:
        return 0.0 if float(lhs.max(initial=0.0)) == 0.0 else np.inf
    return float(lhs.max(initial=0.0) / bound)
