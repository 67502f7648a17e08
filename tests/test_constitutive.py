import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from biofilmflow import constitutive
from biofilmflow.constitutive import (
    ModelParams,
    biomass_diffusion,
    biomass_diffusion_deriv,
    biomass_diffusion_reg,
    biomass_diffusion_reg_deriv,
    consumption_rate,
    diffusion_energy,
    nutrient_diffusivity,
    speed_limit,
    speed_limit_inflection,
    speed_limit_reg,
    validate_params,
)
from biofilmflow.errors import ConfigError


@pytest.fixture
def p():
    return ModelParams()


# --- speed ceiling -----------------------------------------------------------

def test_speed_limit_zero_at_delta0(p):
    assert speed_limit(p.delta0, p) == 0.0
    assert speed_limit(p.delta0 + 0.1, p) == 0.0


def test_speed_limit_half_delta0(p):
    assert speed_limit(p.delta0 / 2, p) == pytest.approx(p.v_max, rel=1e-14)


def test_speed_limit_blows_up(p):
    assert speed_limit(1e-6 * p.delta0, p) > 1e5 * p.v_max


def test_speed_limit_rejects_nonpositive(p):
    with pytest.raises(ValueError):
        speed_limit(0.0, p)
    with pytest.raises(ValueError):
        speed_limit(-0.2, p)


def test_speed_limit_reg_branches(p):
    top = speed_limit(p.mu, p)
    assert speed_limit_reg(p.mu / 2, p) == pytest.approx(top, rel=1e-14)
    assert speed_limit_reg(0.0, p) == pytest.approx(top, rel=1e-14)
    assert speed_limit_reg(p.u_star, p) == pytest.approx(p.mu, rel=1e-14)
    r_mid = 0.5 * (p.mu + speed_limit_inflection(p))
    assert speed_limit_reg(r_mid, p) == pytest.approx(speed_limit(r_mid, p), rel=1e-14)


def test_speed_limit_reg_continuity_at_joints(p):
    e = 1e-11
    lo, hi = speed_limit_reg(p.mu - e, p), speed_limit_reg(p.mu + e, p)
    assert abs(lo - hi) < 1e-6
    j = speed_limit_inflection(p)
    lo, hi = speed_limit_reg(j - e, p), speed_limit_reg(j + e, p)
    assert abs(lo - hi) < 1e-6
    assert speed_limit_reg(j, p) == pytest.approx(p.mu, rel=1e-12)


def test_speed_limit_reg_bounds_and_monotone(p):
    r = np.linspace(0.0, p.u_star, 2001)
    vals = speed_limit_reg(r, p)
    assert vals.min() >= p.mu - 1e-15
    assert vals.max() <= speed_limit(p.mu, p) + 1e-12
    assert (np.diff(vals) <= 1e-15).all()


def test_speed_limit_reg_domain_guard(p):
    with pytest.raises(ValueError):
        speed_limit_reg(-0.01, p)
    with pytest.raises(ValueError):
        speed_limit_reg(p.u_star + 0.01, p)


# --- nutrient diffusivity ----------------------------------------------------

def test_diffusivity_endpoints(p):
    assert nutrient_diffusivity(0.0, p) == p.c_d_prime
    assert nutrient_diffusivity(p.u_star, p) == pytest.approx(p.c_d, rel=1e-14)


def test_diffusivity_lipschitz(p):
    rng = np.random.default_rng(0)
    L = (p.c_d_prime - p.c_d) / p.u_star
    r1, r2 = rng.uniform(-1, 2, 500), rng.uniform(-1, 2, 500)
    lhs = np.abs(nutrient_diffusivity(r1, p) - nutrient_diffusivity(r2, p))
    assert (lhs <= L * np.abs(r1 - r2) + 1e-15).all()


def test_diffusivity_bounds(p):
    r = np.linspace(-1, 2, 301)
    d = nutrient_diffusivity(r, p)
    assert d.min() >= p.c_d and d.max() <= p.c_d_prime


# --- Monod consumption -------------------------------------------------------

def test_consumption_zero(p):
    assert consumption_rate(0.0, p) == 0.0


def test_consumption_half_saturation(p):
    assert consumption_rate(p.k2, p) == pytest.approx(p.k1 / 2, rel=1e-14)


def test_consumption_lipschitz_scan(p):
    # finite-difference slope over [0,1] peaks at w = 0 with value k1/k2
    w = np.linspace(0.0, 1.0, 20001)
    slopes = np.diff(consumption_rate(w, p)) / np.diff(w)
    assert slopes.max() <= p.k1 / p.k2 + 1e-9
    assert slopes[0] == pytest.approx(p.k1 / p.k2, rel=1e-3)


def test_consumption_signs(p):
    assert consumption_rate(1.0, p) >= 0.0
    assert consumption_rate(-0.5, p) == pytest.approx(-0.5 * p.k1 / p.k2, rel=1e-14)


def test_consumption_nondecreasing(p):
    w = np.linspace(-1.0, 3.0, 4001)
    assert (np.diff(consumption_rate(w, p)) >= -1e-15).all()


# --- degenerate diffusion slope and energy ------------------------------------

def test_d1_zero_at_zero(p):
    assert biomass_diffusion(0.0, p) == 0.0


def test_d1_degenerate_ratio(p):
    r_small = 1e-4 * p.u_star
    mid = p.u_star / 2
    small_ratio = biomass_diffusion(r_small, p) / r_small
    mid_ratio = biomass_diffusion(mid, p) / mid
    assert small_ratio < 1e-3 * mid_ratio


def test_d1_domain_guard(p):
    with pytest.raises(ValueError):
        biomass_diffusion(p.u_star, p)
    with pytest.raises(ValueError):
        biomass_diffusion(-0.1, p)


def test_d1_strictly_increasing(p):
    r = np.linspace(0.0, p.u_star - 1e-6, 4001)
    assert (np.diff(biomass_diffusion(r, p)) > 0).all()


def test_d1_deriv_matches_finite_difference(p):
    r = np.linspace(0.01, 0.9 * p.u_star, 50)
    e = 1e-7
    fd = (biomass_diffusion(r + e, p) - biomass_diffusion(r - e, p)) / (2 * e)
    assert np.allclose(fd, biomass_diffusion_deriv(r, p), rtol=1e-5)


def test_energy_matches_quadrature_oracle(p):
    # independent adaptive quadrature of the slope on [0, r]
    for r in (0.1, p.u_star / 2, 0.9, p.u_star - p.beta_reg_lambda):
        ref, err = quad(
            lambda s: biomass_diffusion(s, p), 0.0, r,
            limit=800, epsabs=1e-13, epsrel=1e-13,
        )
        assert err < 1e-10 * max(1.0, ref)
        assert diffusion_energy(r, p) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize(
    "u_star, kappa, alpha, gamma, lam",
    [
        (1.0, 0.5, 2.0, 1.0, 1e-3),
        (2.0, 0.3, 1.5, 2.0, 1e-6),
        (1.0, 1.0, 3.0, 0.5, 1e-9),
        (0.7, 0.2, 1.1, 1.3, 0.05),
    ],
)
def test_energy_table_equals_scipy_cumulative_simpson(u_star, kappa, alpha, gamma, lam):
    # one bit of difference in the table moves phi_u in the series
    from scipy.integrate import cumulative_simpson

    y, cum, *_ = constitutive._energy_table(u_star, kappa, alpha, gamma, lam)
    r = u_star * (-np.expm1(-y))
    integrand = kappa * r**alpha * (u_star - r) ** (1.0 - gamma)
    assert np.array_equal(cum, cumulative_simpson(integrand, x=y, initial=0.0))


def test_package_import_leaves_scipy_integrate_out():
    # run against the copy of the package this module imported
    src = str(Path(constitutive.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, biofilmflow; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_energy_zero_and_convex_extensions(p):
    assert diffusion_energy(0.0, p) == 0.0
    lam = p.beta_reg_lambda
    cap = p.u_star - lam
    # above the cap the energy integrates the frozen linear slope
    over = 0.5 * lam
    expect = (
        diffusion_energy(cap, p)
        + biomass_diffusion(cap, p) * over
        + 0.5 * biomass_diffusion_deriv(cap, p) * over**2
    )
    assert diffusion_energy(cap + over, p) == pytest.approx(expect, rel=1e-12)
    # below zero the penalty branch integrates slope 1/lambda
    assert diffusion_energy(-0.003, p) == pytest.approx(0.5 * 0.003**2 / lam, rel=1e-12)


def test_reg_graph_equals_d1_below_cap(p):
    r = np.linspace(0.0, p.u_star - p.beta_reg_lambda, 200)
    assert np.allclose(biomass_diffusion_reg(r, p), biomass_diffusion(r, p), rtol=1e-14)


def test_reg_graph_monotone_pairs(p):
    rng = np.random.default_rng(1)
    r1 = rng.uniform(-0.5, 1.5, 400)
    r2 = rng.uniform(-0.5, 1.5, 400)
    d = (biomass_diffusion_reg(r1, p) - biomass_diffusion_reg(r2, p)) * (r1 - r2)
    assert (d >= -1e-15).all()


def test_reg_graph_lipschitz(p):
    lam = p.beta_reg_lambda
    slope_max = max(1.0 / lam, biomass_diffusion_deriv(p.u_star - lam, p))
    rng = np.random.default_rng(2)
    r1 = rng.uniform(-0.5, 1.5, 400)
    r2 = rng.uniform(-0.5, 1.5, 400)
    lhs = np.abs(biomass_diffusion_reg(r1, p) - biomass_diffusion_reg(r2, p))
    assert (lhs <= slope_max * np.abs(r1 - r2) * (1 + 1e-12) + 1e-12).all()


def test_reg_deriv_branches(p):
    lam = p.beta_reg_lambda
    assert biomass_diffusion_reg_deriv(-1.0, p) == pytest.approx(1.0 / lam)
    top = biomass_diffusion_deriv(p.u_star - lam, p)
    assert biomass_diffusion_reg_deriv(p.u_star + 1.0, p) == pytest.approx(top)


@settings(deadline=None, max_examples=40)
@given(
    r1=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 1.0),
)
def test_monotone_laws_property(r1, r2):
    p = ModelParams()
    if r1 > r2:
        r1, r2 = r2, r1
    assert speed_limit_reg(r1, p) >= speed_limit_reg(r2, p) - 1e-12
    assert nutrient_diffusivity(r1, p) >= nutrient_diffusivity(r2, p) - 1e-15
    assert biomass_diffusion_reg(r1, p) <= biomass_diffusion_reg(r2, p) + 1e-12


# --- parameter validation ----------------------------------------------------

def test_validate_defaults_ok(p):
    assert validate_params(p) is p


def test_validate_rejects_mu_at_delta0():
    with pytest.raises(ConfigError):
        validate_params(ModelParams(mu=0.35))


def test_validate_rejects_alpha_one():
    with pytest.raises(ConfigError):
        validate_params(ModelParams(alpha_exp=1.0))


def test_validate_rejects_inverted_diffusivity():
    with pytest.raises(ConfigError):
        validate_params(ModelParams(c_d=0.05, c_d_prime=0.01))


def test_validate_rejects_mu_above_plateau():
    # huge mu with tiny v_max drives p0(mu) below mu
    with pytest.raises(ConfigError):
        validate_params(ModelParams(mu=0.3, v_max=0.05))


def test_validate_rejects_nonpositive():
    with pytest.raises(ConfigError):
        validate_params(ModelParams(nu=0.0))
    with pytest.raises(ConfigError):
        validate_params(ModelParams(k1=-1.0))
