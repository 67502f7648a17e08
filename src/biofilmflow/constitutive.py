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
  (the diffusion energy density, read from a table of 4096 Simpson
  panels uniform in s = sqrt(ln(u_star/(u_star - r))), where the
  integrand is smooth up to the cap; built once per parameter set),
  and a globally Lipschitz surrogate used by the implicit solver: d1
  clamped at u_star - lambda, extended linearly above with the clamped
  slope, and extended below zero with slope 1/lambda (a stiff penalty
  pushing negative densities back).

Parameter validation lives in validate_params, not the constructor, so
tests may build degenerate parameter sets (k1 = 0, b = 0) on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

_ENERGY_PANELS = 4096  # Simpson panels of the diffusion-energy table


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
    # below u_star's float resolution, lambda would put the cap on d1's pole
    if not 0.0 < p.u_star - p.beta_reg_lambda < p.u_star:
        raise ConfigError(
            f"beta_reg_lambda must lie below u_star, and u_star - beta_reg_lambda "
            f"must round below u_star, got {p.beta_reg_lambda}"
        )
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


@lru_cache(maxsize=8)
def surrogate_cap(p):
    """(cap, d1(cap), d1'(cap)) at the surrogate's cap node u_star - lambda,
    computed once per parameter set."""
    cap = p.u_star - p.beta_reg_lambda
    return cap, biomass_diffusion(cap, p), biomass_diffusion_deriv(cap, p)


def biomass_diffusion_reg(r, p):
    """Globally Lipschitz, monotone surrogate of the diffusion graph.

    Equals d1 on [0, u_star - lambda]; continues with the frozen slope
    d1'(u_star - lambda) above; drops with slope 1/lambda below zero.
    """
    r = np.asarray(r, dtype=float)
    cap, _, slope_top = surrogate_cap(p)
    rc = np.clip(r, 0.0, cap)
    out = (
        biomass_diffusion(rc, p)
        + np.maximum(r - cap, 0.0) * slope_top
        - np.maximum(-r, 0.0) / p.beta_reg_lambda
    )
    return out if out.ndim else float(out)


def biomass_diffusion_reg_deriv(r, p):
    """Slope of the surrogate graph (1/lambda below 0, frozen above cap)."""
    r = np.asarray(r, dtype=float)
    cap, _, slope_top = surrogate_cap(p)
    mid = biomass_diffusion_deriv(np.clip(r, 0.0, cap), p)
    out = np.where(r < 0.0, 1.0 / p.beta_reg_lambda, np.where(r > cap, slope_top, mid))
    return out if out.ndim else float(out)


def _energy_integrand(s, r, p):
    """d1(r) dr/ds = 2 s kappa r^alpha (u_star - r)^(1 - gamma) at
    s = sqrt(ln(u_star/(u_star - r))): like s^(2 alpha + 1) at 0, smooth at the cap."""
    return 2.0 * s * p.kappa * r**p.alpha_exp * (p.u_star - r) ** (1.0 - p.gamma_exp)


@lru_cache(maxsize=8)
def _energy_table(p):
    """(step, cum, f) of d1's primitive on [0, u_star - lambda], in s.

    The _ENERGY_PANELS intervals of width ``step`` are uniform in
    s = sqrt(ln(u_star/(u_star - r))), from 0 to the cap's s, and each is
    integrated by one Simpson panel with its midpoint. ``cum[k]`` is the
    integral up to node k = s/step and ``f[k]`` the integrand there. The
    arrays are read-only: one table per parameter set serves every lookup.
    """
    step = math.sqrt(math.log(p.u_star / p.beta_reg_lambda)) / _ENERGY_PANELS
    # nodes and midpoints; node k is bit for bit the lookup's k * step
    s = np.arange(2 * _ENERGY_PANELS + 1) * (0.5 * step)
    f = _energy_integrand(s, p.u_star * -np.expm1(-s * s), p)
    cum = np.zeros(_ENERGY_PANELS + 1)
    np.cumsum(step / 6.0 * (f[:-2:2] + 4.0 * f[1::2] + f[2::2]), out=cum[1:])
    f = f[::2].copy()
    cum.flags.writeable = f.flags.writeable = False
    return step, cum, f


def diffusion_energy(r, p):
    """Primitive of the (regularized) diffusion slope, zero at zero.

    Up to the cap, the table's entry at the node below r plus one Simpson
    panel on to r: within 1e-9 relative for r >= 0.05 u_star. Quadratic
    extensions outside [0, u_star - lambda] integrate the surrogate's
    linear branches, so the energy is finite and convex on the whole line
    with its minimum at 0.
    """
    lam = p.beta_reg_lambda
    step, cum, f = _energy_table(p)
    r = np.asarray(r, dtype=float)
    cap, d1_cap, slope_top = surrogate_cap(p)
    rc = np.clip(r, 0.0, cap)
    s = np.sqrt(np.log(p.u_star / (p.u_star - rc)))
    # fmax and fmin send a NaN to a valid node before the cast
    idx = np.fmin(np.fmax(s * (1.0 / step), 0.0), _ENERGY_PANELS - 1).astype(np.intp)
    s0 = idx * step
    mid = 0.5 * (s0 + s)
    f_mid = _energy_integrand(mid, p.u_star * -np.expm1(-mid * mid), p)
    out = cum[idx] + (s - s0) / 6.0 * (f[idx] + 4.0 * f_mid + _energy_integrand(s, rc, p))
    over = np.maximum(r - cap, 0.0)
    out = out + d1_cap * over + 0.5 * slope_top * over**2
    under = np.maximum(-r, 0.0)
    out = out + 0.5 * under**2 / lam
    return out if out.ndim else float(out)
