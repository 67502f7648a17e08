"""Scalar constitutive laws.

All closed forms are explicit so every qualitative requirement
(monotonicity, degeneracy at zero biomass, blow-up at the packing
density, Monod saturation) is testable:

* speed ceiling   p0(r) = v_max * (delta0/r - 1) on (0, delta0), 0 beyond;
* its bounded regularization p_mu, constant p0(mu) below mu and
  constant mu above the density where p0 crosses mu;
* nutrient diffusivity d(r) linear between c_d_prime and c_d;
* Monod consumption f(w) = k1 w/(k2 + w), linearly extended for w < 0
  to keep a global Lipschitz constant k1/k2;
* biomass diffusion slope d1(r) = kappa r^alpha / (u_star - r)^gamma
  with alpha > 1 (degenerate at 0, singular at u_star), its primitive
  (the diffusion energy density), and a globally Lipschitz surrogate
  used by the implicit solver: d1 clamped at u_star - lambda, extended
  linearly above with the clamped slope, and extended below zero with
  slope 1/lambda (a stiff penalty pushing negative densities back).

Parameter validation lives in validate_params, not the constructor, so
tests may build degenerate parameter sets (k1 = 0, b = 0) on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

_ENERGY_TABLE_SIZE = 2**18 + 1


@dataclass(frozen=True)
class ModelParams:
    """Physical and regularization constants.

    beta_reg_lambda defaults to 1e-3 * u_star for the default u_star;
    runs that need pre-clamp bound violations at the 1e-8 level should
    shrink it (the negative-branch penalty slope is 1/lambda, so the
    admissible undershoot scales linearly with lambda).
    """

    nu: float = 0.1
    b: float = 0.1
    u_star: float = 1.0
    delta0: float = 0.35
    eps: float = 0.06
    mu: float = 0.035
    k1: float = 0.5
    k2: float = 0.5
    c_d: float = 0.005
    c_d_prime: float = 0.02
    v_max: float = 1.0
    kappa: float = 0.5
    alpha_exp: float = 2.0
    gamma_exp: float = 1.0
    beta_reg_lambda: float = 1e-3


def validate_params(p):
    """Raise ConfigError on any violated parameter invariant."""
    positive = [
        ("nu", p.nu), ("b", p.b), ("u_star", p.u_star), ("delta0", p.delta0),
        ("eps", p.eps), ("mu", p.mu), ("k1", p.k1), ("k2", p.k2),
        ("c_d", p.c_d), ("c_d_prime", p.c_d_prime), ("v_max", p.v_max),
        ("kappa", p.kappa), ("alpha (alpha_exp)", p.alpha_exp),
        ("gamma (gamma_exp)", p.gamma_exp), ("beta_reg_lambda", p.beta_reg_lambda),
    ]
    for name, val in positive:
        if not (val > 0) or not math.isfinite(val):
            raise ConfigError(f"model parameter {name} must be finite and > 0, got {val}")
    if not p.delta0 < p.u_star:
        raise ConfigError(f"delta0 must lie below u_star ({p.delta0} >= {p.u_star})")
    if not p.mu < p.delta0:
        raise ConfigError(f"mu must lie below delta0 ({p.mu} >= {p.delta0})")
    if not p.mu < 1.0:
        raise ConfigError(f"mu must lie below 1 ({p.mu})")
    # the regularized ceiling must stay above its own plateau value
    if not p.mu < speed_limit(p.mu, p):
        raise ConfigError(
            f"mu={p.mu} violates mu < p0(mu)={speed_limit(p.mu, p)}; "
            "lower mu or raise v_max"
        )
    if not p.alpha_exp > 1:
        raise ConfigError("alpha (alpha_exp) must exceed 1 so d1(r)/r -> 0 at r=0")
    if not p.c_d <= p.c_d_prime:
        raise ConfigError(f"c_d must not exceed c_d_prime ({p.c_d} > {p.c_d_prime})")
    if not p.beta_reg_lambda < p.u_star:
        raise ConfigError("beta_reg_lambda must lie below u_star")
    return p


def speed_limit(r, p):
    """Speed ceiling p0: decays like delta0/r near 0, hits 0 at delta0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("speed_limit undefined at r <= 0; use speed_limit_reg")
    out = np.where(r < p.delta0, p.v_max * (p.delta0 / np.maximum(r, 1e-300) - 1.0), 0.0)
    return out if out.ndim else float(out)


def speed_limit_inflection(p):
    """Density where p0 equals mu (analytic inverse of the closed form)."""
    return p.delta0 * p.v_max / (p.v_max + p.mu)


def speed_limit_reg(r, p):
    """Bounded regularization of the speed ceiling.

    Constant p0(mu) for r <= mu, follows p0 in the middle, constant mu
    once p0 would drop below mu. Values always lie in [mu, p0(mu)].
    """
    r = np.asarray(r, dtype=float)
    slack = 1e-12 * p.u_star
    if np.any(r < -slack) or np.any(r > p.u_star + slack):
        raise ValueError("speed_limit_reg expects densities in [0, u_star]")
    r = np.clip(r, 0.0, p.u_star)
    top = p.v_max * (p.delta0 / p.mu - 1.0)  # p0(mu)
    r_mid = np.clip(r, p.mu, speed_limit_inflection(p))
    mid = p.v_max * (p.delta0 / r_mid - 1.0)
    out = np.where(r <= p.mu, top, np.where(r > speed_limit_inflection(p), p.mu, mid))
    return out if out.ndim else float(out)


def nutrient_diffusivity(r, p):
    """Diffusivity between c_d_prime (no biomass) and c_d (packed)."""
    r = np.asarray(r, dtype=float)
    out = p.c_d_prime - (p.c_d_prime - p.c_d) * np.clip(r / p.u_star, 0.0, 1.0)
    return out if out.ndim else float(out)


def consumption_rate(w, p):
    """Monod consumption, linear below zero (global Lipschitz k1/k2)."""
    w = np.asarray(w, dtype=float)
    out = np.where(w >= 0.0, p.k1 * w / (p.k2 + np.maximum(w, 0.0)), p.k1 * w / p.k2)
    return out if out.ndim else float(out)


def biomass_diffusion(r, p):
    """Degenerate diffusion slope d1 on [0, u_star); blows up at u_star."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= p.u_star):
        raise ValueError("biomass_diffusion defined on [0, u_star) only")
    out = p.kappa * r**p.alpha_exp / (p.u_star - r) ** p.gamma_exp
    return out if out.ndim else float(out)


def biomass_diffusion_deriv(r, p):
    """d1' on [0, u_star)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= p.u_star):
        raise ValueError("biomass_diffusion_deriv defined on [0, u_star) only")
    a, g = p.alpha_exp, p.gamma_exp
    out = (
        p.kappa
        * r ** (a - 1.0)
        * (a * (p.u_star - r) + g * r)
        / (p.u_star - r) ** (g + 1.0)
    )
    return out if out.ndim else float(out)


def biomass_diffusion_reg(r, p):
    """Globally Lipschitz, monotone surrogate of the diffusion graph.

    Equals d1 on [0, u_star - lambda]; continues with the frozen slope
    d1'(u_star - lambda) above; drops with slope 1/lambda below zero.
    """
    lam = p.beta_reg_lambda
    r = np.asarray(r, dtype=float)
    cap = p.u_star - lam
    rc = np.clip(r, 0.0, cap)
    slope_top = biomass_diffusion_deriv(cap, p)
    out = (
        biomass_diffusion(rc, p)
        + np.maximum(r - cap, 0.0) * slope_top
        - np.maximum(-r, 0.0) / lam
    )
    return out if out.ndim else float(out)


def biomass_diffusion_reg_deriv(r, p):
    """Slope of the surrogate graph (1/lambda below 0, frozen above cap)."""
    lam = p.beta_reg_lambda
    r = np.asarray(r, dtype=float)
    cap = p.u_star - lam
    slope_top = biomass_diffusion_deriv(cap, p)
    mid = biomass_diffusion_deriv(np.clip(r, 0.0, cap), p)
    out = np.where(r < 0.0, 1.0 / lam, np.where(r > cap, slope_top, mid))
    return out if out.ndim else float(out)


def _simpson_panels(f, dx):
    """Three-point Simpson integral over the first interval of every node
    triple (x_i, x_i+1, x_i+2), for unequal spacings dx."""
    h1, h2 = dx[:-1], dx[1:]
    q = h1 / (h1 + h2)
    qr = q * (h1 / h2)
    return h1 / 6 * ((3 - q) * f[:-2] + (3 + qr + q) * f[1:-1] - qr * f[2:])


def _cumulative_simpson(f, x):
    """Cumulative composite Simpson integral of f over the nodes x, from 0.

    Even intervals take the rule of the triple they open, odd ones (and
    the last) the rule of the triple they close. The arithmetic is
    SciPy's cumulative Simpson rule for unequal intervals, term for term,
    so the table agrees with it bit for bit.
    """
    dx = np.diff(x)
    opened = _simpson_panels(f, dx)
    closed = _simpson_panels(f[::-1], dx[::-1])[::-1]
    sub = np.empty(dx.size)
    sub[:-1:2] = opened[::2]
    sub[1::2] = closed[::2]
    sub[-1] = closed[-1]
    return np.concatenate(([0.0], np.cumsum(sub)))


@lru_cache(maxsize=8)
def _energy_table(u_star, kappa, alpha, gamma, lam):
    """Cumulative integral of d1 on [0, u_star - lam].

    Tabulated on a grid uniform in y = ln(u_star/(u_star - r)); the
    substitution absorbs the near-singularity so a Simpson rule on
    2^18 panels is accurate even for lam as small as 1e-9 * u_star.
    """
    p = ModelParams(u_star=u_star, kappa=kappa, alpha_exp=alpha, gamma_exp=gamma)
    y_end = math.log(u_star / lam)
    y = np.linspace(0.0, y_end, _ENERGY_TABLE_SIZE)
    r = u_star * (-np.expm1(-y))
    # d1(r) dr = d1(r) (u_star - r) dy
    integrand = kappa * r**alpha * (u_star - r) ** (1.0 - gamma)
    cum = _cumulative_simpson(integrand, y)
    cap = u_star - lam
    return y, cum, float(cum[-1]), biomass_diffusion(cap, p), biomass_diffusion_deriv(cap, p)


def diffusion_energy(r, p):
    """Primitive of the (regularized) diffusion slope, zero at zero.

    Quadratic extensions outside [0, u_star - lambda] integrate the
    surrogate's linear branches, so the energy is finite and convex on
    the whole line with its minimum at 0.
    """
    lam = p.beta_reg_lambda
    y_grid, cum, b_end, d1_end, slope_top = _energy_table(
        p.u_star, p.kappa, p.alpha_exp, p.gamma_exp, lam
    )
    r = np.asarray(r, dtype=float)
    cap = p.u_star - lam
    rc = np.clip(r, 0.0, cap)
    y = np.log(p.u_star / (p.u_star - rc))
    # bracketing node plus a short trapezoid panel to the query point;
    # the panel is ~1e-5 wide so its error is far below the table's
    idx = np.clip(np.searchsorted(y_grid, y) - 1, 0, len(y_grid) - 2)
    y0 = y_grid[idx]
    r0 = p.u_star * (-np.expm1(-y0))
    f0 = p.kappa * r0**p.alpha_exp * (p.u_star - r0) ** (1.0 - p.gamma_exp)
    fq = p.kappa * rc**p.alpha_exp * (p.u_star - rc) ** (1.0 - p.gamma_exp)
    out = cum[idx] + 0.5 * (y - y0) * (f0 + fq)
    over = np.maximum(r - cap, 0.0)
    out = out + d1_end * over + 0.5 * slope_top * over**2
    under = np.maximum(-r, 0.0)
    out = out + 0.5 * under**2 / lam
    return out if out.ndim else float(out)
