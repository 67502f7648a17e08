"""Implicit time step of the degenerate biomass equation.

Backward Euler for

    (u+ - u)/dt - lap beta(u+) + div( (rho_mu * (gamma_mu u+)) v ) + b u+
        = f(rho_mu * w) u+

with beta the Lipschitz surrogate of the diffusion graph, Dirichlet
value 0 for u and beta(u) on the gamma0 faces, no flux elsewhere. The
convected quantity is the mollified cutoff density at the *new* time
level, so the whole step is one nonlinear system; it is solved by a
damped inexact Newton method whose Jacobian keeps the diffusion and
reaction terms exact but freezes the convection term (its contribution
is O(dt |v|/h) and chasing it buys nothing at the step sizes of
interest). Each Newton system is solved matrix-free on its symmetrized
form, reduced in red-black order to the black cells' Schur complement,
by ops.cg, the package's one Jacobi-preconditioned CG loop, capped at
one iteration per black cell, to a forcing term on the true linear
residual (see _newton_direction). The forcing term is ETA, but never
tighter than a quarter of NEWTON_TOL over the current residual: near
convergence a direction is solved only as far as the Newton stop can
see (the "don't oversolve" safeguard of Eisenstat & Walker, SIAM J.
Sci. Comput. 17, 1996).

beta has slope 0 at u = 0+, 1/lambda below zero and a slope that grows
towards u_star up to its cap value, and Newton on u keeps crossing these
kinks. So Newton's unknown is a parameter tau with u = U(tau) (Brenner &
Cances, SIAM J. Numer. Anal. 55, 2017): tau = beta(u) below zero, tau = u
on [0, u_s] with u_s = 0.9 u_star, and a log branch above u_s
(_tau_of_u, _u_of_tau). U has slope lambda below zero and at most 1
above. In tau the penalty branch of beta(U) has slope 1 instead of
1/lambda, and on the log branch the slope of beta(U) is that of beta(u)
times (u_star - u)/K, K = u_star - u_s: a factor lambda/K smaller at the
cap. This softens the kinks but does not remove them; the slope of
beta(U) still jumps at tau = 0, and at the cap it still grows as lambda
shrinks. On [0, u_s] U is the identity bit for bit, so a run whose
iterates stay there takes exactly the steps Newton on u takes.
Residuals, tolerances and the warm start stay in u.

The converged solution obeys the discrete comparison bounds up to the
Newton tolerance plus the surrogate's penalty undershoot (which scales
with beta_reg_lambda); the final clamp to [0, u_star] is a rounding
guard whose magnitude is reported, not a modeling device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .constitutive import (
    biomass_diffusion_reg,
    biomass_diffusion_reg_deriv,
    consumption_rate,
    diffusion_energy,
    surrogate_cap,
)
from .errors import ConfigError, NonConvergenceError
from .grid import ScalarField
from .mollify import build_cutoff, mollifier, mollify_array

# Newton stops once dt times the sup-norm of the residual is below this
NEWTON_TOL = 1e-11
# forcing term: each Newton direction leaves a linear residual of at most
# ETA times the nonlinear one (sup-norms), or dt times it at most
# NEWTON_TOL / 4 where that is looser
ETA = 1e-4
# Newton's unknown tau is the identity of u on [0, _TAU_SPLIT * u_star]
_TAU_SPLIT = 0.9
# a Newton direction's CG starts from the Jacobi point, not the reaction-only
# one, on cells whose stiffness diagonal exceeds this many times the reaction
_STIFF_START = 100.0


@dataclass(frozen=True)
class BiomassStepConfig:
    dt: float
    newton_max: int = 40

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError("biomass step requires dt > 0")


@dataclass
class BiomassStepReport:
    newton_iters: int
    krylov_iters: int
    residual: float
    pre_clamp_min: float
    pre_clamp_max: float
    clamp_mass: float
    # the converged Newton iterate before the clamp to [0, u_star]; the
    # next coupling round starts its Newton solve from it
    iterate: np.ndarray


@dataclass(frozen=True)
class BiomassWorkspace:
    """Per-(grid, params) precomputations for the biomass step."""

    grid: object
    params: object
    mollifier_mu: object
    cutoff: np.ndarray
    stiffness: ops.Stencil  # acts on the transformed variable beta(u)
    stiffness_norm: float  # sup-norm: the largest absolute row sum
    layout: ops.RedBlack  # the stiffness's red-black packing


def make_biomass_workspace(grid, params):
    stiffness = ops.scalar_laplacian_gamma0(grid)
    # the off-diagonals are nonpositive and couple cells of opposite parity,
    # so on a +-1 checkerboard each row's products are its absolute values
    # times the cell's sign, summed in row order
    checker = 1.0 - 2.0 * (np.indices(grid.cells).sum(axis=0) % 2)
    return BiomassWorkspace(
        grid=grid,
        params=params,
        mollifier_mu=mollifier(params.mu, grid),
        cutoff=build_cutoff(grid, params.mu),
        stiffness=stiffness,
        stiffness_norm=float(np.abs(stiffness(checker)).max()),
        layout=ops.RedBlack(stiffness),
    )


def biomass_energy(u, params):
    """Diffusion energy integral of a biomass field (nonnegative)."""
    return float(np.sum(diffusion_energy(u.values, params)) * u.grid.cell_volume)


def _tau_knots(p):
    """(u_s, K, cap, u_star - cap, tau at the cap) of the parametrization.

    u_s is _TAU_SPLIT * u_star, or the cap node if that lies lower (lambda
    of at least K); then K = u_star - cap, the log branch is empty and U
    is the identity on the whole half-line tau >= 0.
    """
    cap = surrogate_cap(p)[0]
    u_s = min(_TAU_SPLIT * p.u_star, cap)
    k = p.u_star - u_s
    gap = p.u_star - cap
    return u_s, k, cap, gap, u_s + k * math.log(k / gap)


def _on_identity(a, u_s):
    """Whether every entry of a lies in [0, u_s], where tau is u."""
    return a.min() >= 0.0 and a.max() <= u_s


def _tau_of_u(u, p):
    """Newton's unknown tau = T(u), the inverse of _u_of_tau.

    tau is beta(u) = u/lambda below zero, u on [0, u_s], and
    u_s + K ln(K/(u_star - u)) with K = u_star - u_s up to the cap node,
    then linear with slope K/lambda. An array inside [0, u_s] is returned
    as it is.
    """
    u_s, k, cap, gap, tau_cap = _tau_knots(p)
    if _on_identity(u, u_s):
        return u
    mid = u_s + k * np.log(k / (p.u_star - np.clip(u, u_s, cap)))
    top = tau_cap + (u - cap) * (k / gap)
    inner = np.where(u <= u_s, u, np.where(u <= cap, mid, top))
    return np.where(u < 0.0, u / p.beta_reg_lambda, inner)


def _u_of_tau(tau, p):
    """u = U(tau): lambda tau below zero, tau on [0, u_s], then
    u_star - K exp(-(tau - u_s)/K) up to the cap node and linear past it.
    U's slope is at most max(lambda, 1), and U is C^1 at u_s and at the cap.
    An array inside [0, u_s] is returned as it is."""
    u_s, k, cap, gap, tau_cap = _tau_knots(p)
    if _on_identity(tau, u_s):
        return tau
    mid = p.u_star - k * np.exp((u_s - np.clip(tau, u_s, tau_cap)) / k)
    top = cap + (tau - tau_cap) * (gap / k)
    inner = np.where(tau <= u_s, tau, np.where(tau <= tau_cap, mid, top))
    return np.where(tau < 0.0, p.beta_reg_lambda * tau, inner)


def _du_dtau(tau, p):
    """U'(tau), or None where U is the identity on all of tau."""
    u_s, k, _, gap, tau_cap = _tau_knots(p)
    if _on_identity(tau, u_s):
        return None
    mid = np.exp((u_s - np.clip(tau, u_s, tau_cap)) / k)
    inner = np.where(tau <= u_s, 1.0, np.where(tau <= tau_cap, mid, gap / k))
    return np.where(tau < 0.0, p.beta_reg_lambda, inner)


def _residual(x, u_old, growth, v, ws, dt):
    p = ws.params
    beta = biomass_diffusion_reg(x, p)
    conv_field = mollify_array(ws.cutoff * x, ws.mollifier_mu)
    conv = ops.upwind_flux_divergence(conv_field, v, ws.grid.h)
    diff = ws.stiffness(beta)
    return (x - u_old) / dt + diff + conv + (p.b - growth) * x


def _newton_direction(ws, g, s, c, eta):
    """Inexact solve of J delta = -g, J = diag(c) + S diag(s), all cell arrays.

    step_biomass passes the Jacobian in tau, J_u diag(U'): c is 1/dt + b -
    growth times U' and s is beta'(U) U', so delta is a step in tau.

    With y = sqrt(s) delta, sqrt(s) times the system reads M y = -sqrt(s) g
    for the symmetric M = diag(c) + sqrt(s) S sqrt(s), and the first row
    block gives delta = (-g - S(sqrt(s) y)) / c, which never divides by s.
    For a residual rho = -sqrt(s) g - M y that delta leaves the true
    linear residual J delta + g = S(sqrt(s) rho / c).

    S = diag(S_ii) - A couples only cells of opposite colour (ws.layout),
    so in red-black order M = [[D_r, -B], [-B^T, D_b]] with D = c + s S_ii
    and B = sqrt(s_r) A sqrt(s_b). CG runs on the black cells' Schur
    complement D_b - B^T D_r^-1 B, Jacobi-preconditioned by D_b, which
    takes about half the iterations of CG on M, on half the unknowns
    (Reid, SIAM J. Numer. Anal. 9, 1972; Elman & Golub, Math. Comp. 54,
    1990). The red cells follow as y_r = D_r^-1 (rhs_r + B y_b), so rho
    is zero on them to rounding and the Schur residual is rho on the black
    cells: CG stops once |S| |sqrt(s) rho / c| <= eta |g| there, in the
    sup-norm. It starts from the black part of the reaction-only solution
    y = -sqrt(s) g / c, which is exact where the slopes vanish, except on
    cells where s S_ii > _STIFF_START |c|. There, near the cap,
    -sqrt(s) g / c can be 1e6 times the solution, and the rounding of its
    first residual stays in the true residual while CG drives its
    recurrence residual below the stop (the residual gap of Greenbaum,
    SIAM J. Matrix Anal. Appl. 18, 1997); those cells start from the
    Jacobi point -sqrt(s) g / (c + s S_ii). Once dt (k1 - b) >= 1, c can
    be negative and M (even its diagonal) indefinite; CG then stops early,
    without dividing by it, on a curvature or preconditioned residual
    product that is not positive, and the line search judges the
    direction it has.
    Returns (delta, CG iterations).
    """
    rb = ws.layout
    g_p = rb.pack(g)
    s_p = rb.pack(s)
    c_p = rb.pack(c, fill=1.0)  # a dummy cell's row is y = 0
    root = np.sqrt(s_p)
    rhs = -root * g_p
    stiff_diag = s_p * rb.diag
    diag = c_p + stiff_diag
    weight = ws.stiffness_norm * root[1] / np.abs(c_p[1])
    target = eta * float(np.abs(g).max())
    # B^T D_r^-1 B y = sqrt(s_b) A^T (s_r / D_r) A sqrt(s_b) y
    s_red = s_p[0] / diag[0]

    def schur(y):
        return diag[1] * y - root[1] * rb.neighbour_sum(s_red * rb.neighbour_sum(root[1] * y, 0), 1)

    y_b, _, its = ops.cg(
        schur,
        rhs[1] + root[1] * rb.neighbour_sum(root[0] * rhs[0] / diag[0], 1),
        rhs[1] / np.where(stiff_diag[1] > _STIFF_START * np.abs(c_p[1]), diag[1], c_p[1]),
        diag[1],
        lambda r: float(np.abs(weight * r).max()) <= target,
    )
    # z = sqrt(s) y, its red half from y_r = D_r^-1 (rhs_r + B y_b), and
    # S z = diag(S_ii) z - A z
    z_b = root[1] * y_b
    az_r = rb.neighbour_sum(z_b, 0)
    z = np.stack((root[0] * (rhs[0] + root[0] * az_r) / diag[0], z_b))
    s_z = rb.diag * z - np.stack((az_r, rb.neighbour_sum(z[0], 1)))
    return rb.unpack((-g_p - s_z) / c_p), its


def step_biomass(ws, u, w, v, cfg, x0=None, tol=None):
    """Advance the biomass field one implicit step.

    u, w: ScalarField; v: VectorField (discretely divergence-free,
    zero boundary faces). Returns (ScalarField, BiomassStepReport).
    x0 optionally warm-starts Newton, e.g. from the previous Picard
    round's pre-clamp iterate (the report's iterate). Newton stops once
    dt times the sup-norm of the residual is at most tol (None means
    NEWTON_TOL); a coupling round whose projection onto K was loose,
    and so cannot be accepted, passes FIRST_ROUND_TOL.

    Newton moves tau = T(u) (see the module docstring): each direction
    solves the Jacobian in tau and the line search steps tau, but every
    residual, the acceptance test, x0 and the report's iterate are in u.
    """
    p = ws.params
    dt = cfg.dt
    tol = NEWTON_TOL if tol is None else tol
    grid = ws.grid
    w_tilde = mollify_array(np.clip(w.values, 0.0, 1.0), ws.mollifier_mu)
    growth = consumption_rate(w_tilde, p)
    react = 1.0 / dt + p.b - growth

    u_old = u.values
    x = np.array(u_old if x0 is None else x0, dtype=float, copy=True)
    tau = _tau_of_u(x, p)
    g_vec = _residual(x, u_old, growth, v.comps, ws, dt)
    res = float(np.abs(g_vec).max()) * dt
    history = [res]

    # Inexact Newton-Krylov: every iteration takes fresh slopes of beta and
    # solves its Jacobian system to the forcing term eta (_newton_direction),
    # so nothing is carried from one call to the next. While eta is ETA the
    # forcing is floored at NEWTON_TOL / (4 res): a direction then leaves
    # dt times a linear residual of at most NEWTON_TOL / 4, below what the
    # Newton stop tests for. The floor uses NEWTON_TOL, not tol, so a loose
    # round is solved as before. The slopes jump from 0 to 1/lambda across
    # u = 0 and reach the cap slope near u*, where the recovered direction
    # amplifies the inner error most; a direction that the line search
    # cannot use is solved again with eta a thousand times smaller and no
    # floor, down to 1e-10, and only a failure there ends the step.
    # Acceptance is always on the true residual, never on the quality of
    # the inner solve.
    eta = ETA
    it = 0
    krylov_iters = 0
    while res > tol:
        if it >= cfg.newton_max:
            raise NonConvergenceError(
                f"biomass Newton stalled at residual {res:.3e} "
                f"after {it} iterations (tol {tol:.1e})",
                residual=res,
                history=history,
            )
        slope = biomass_diffusion_reg_deriv(x, p)
        c = react
        du = _du_dtau(tau, p)
        if du is not None:
            # the Jacobian in tau is the one in u times diag(U')
            slope *= du
            c = react * du
        forcing = max(eta, 0.25 * NEWTON_TOL / res) if eta == ETA else eta
        delta, its = _newton_direction(ws, g_vec, slope, c, forcing)
        krylov_iters += its
        # backtracking on the sup-norm of the residual
        step = 1.0
        accepted = False
        for _ in range(30):
            tau_try = tau + step * delta
            x_try = _u_of_tau(tau_try, p)
            g_try = _residual(x_try, u_old, growth, v.comps, ws, dt)
            res_try = float(np.abs(g_try).max()) * dt
            if res_try <= (1.0 - 1e-4 * step) * res or res_try <= tol:
                accepted = True
                break
            step *= 0.5
        it += 1
        if not accepted:
            if eta * 1e-3 < 1e-12:
                # where growth outruns 1/dt + b, backward Euler need not
                # have a nonnegative solution; name that cause
                short = int((react <= 0.0).sum())
                cause = (
                    f"; growth outruns 1/dt + b in {short} cells (min "
                    f"1/dt + b - growth {react.min():.3e}): reduce dt"
                ) if short else ""
                raise NonConvergenceError(
                    f"biomass Newton line search failed at residual {res:.3e} "
                    f"with a direction solved to {eta:.0e} (tol {tol:.1e}){cause}",
                    residual=res,
                    history=history,
                )
            eta *= 1e-3
            continue
        x, tau, g_vec, res = x_try, tau_try, g_try, res_try
        history.append(res)

    clamped, ledger = ops.clamp_ledger(x, p.u_star, grid.cell_volume)
    report = BiomassStepReport(
        newton_iters=it, krylov_iters=krylov_iters, residual=res, iterate=x, **ledger
    )
    return ScalarField(grid, clamped), report
