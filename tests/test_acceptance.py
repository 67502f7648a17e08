"""Acceptance gate: twelve end-to-end checks, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test prints `[Cxx] name: PASS|FAIL (detail)` before asserting, so a
red run still reports every measured margin. The randomized-run ensemble
is built once per module and shared by the first four checks. The whole
file targets well under five minutes on one laptop core.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import biofilmflow
from biofilmflow import operators as ops
from biofilmflow.biomass import BiomassStepConfig, make_biomass_workspace, step_biomass
from biofilmflow.config import initial_state, parse_config
from biofilmflow.constitutive import ModelParams, speed_limit
from biofilmflow.coupling import CouplingConfig, SimState, make_stepper, picard_step, run
from biofilmflow.flow import flow_energy_check, poincare_constant, project_K
from biofilmflow.grid import Grid, ScalarField, VectorField, build_grid
from biofilmflow.nutrient import make_nutrient_workspace, nutrient_energy_check, step_nutrient
from biofilmflow.presets import build_vector

from conftest import (
    convection_form,
    dense_projection_reference,
    make_feasible,
    recorded_run,
    skew_convection_check,
    stream_field_2d,
    vi_residual,
)


def _verdict(tag, name, ok, detail):
    print(f"[{tag}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared ensemble: 20 short randomized coupled runs at the desk-scale grid

N_ENSEMBLE = 20

ENSEMBLE_TEXT = """
[grid]
cells = 64 64
gamma0 = left

[time]
t_end = 0.025
dt = 1e-3

[output]
out_dir = none

[initial]
u = random-smooth amplitude={amp} floor=0.02 corr={corr}
w = random-smooth amplitude=0.5 floor=0.45
g = swirl amplitude={force} cx={cx} cy={cy}
seed = {seed}
"""


@pytest.fixture(scope="module")
def ensemble():
    """(cfg, diags, |w0|_2^2) for 20 seeded random runs, 25 steps each."""
    runs = []
    for k in range(N_ENSEMBLE):
        r = np.random.default_rng(1000 + k)
        cfg = parse_config(
            ENSEMBLE_TEXT.format(
                amp=f"{0.15 + 0.15 * r.uniform():.3f}",
                corr=f"{0.06 + 0.04 * r.uniform():.3f}",
                force=f"{2.0 + 6.0 * r.uniform():.3f}",
                cx=f"{0.3 + 0.4 * r.uniform():.3f}",
                cy=f"{0.3 + 0.4 * r.uniform():.3f}",
                seed=k,
            )
        )
        w_sq0 = ops.scalar_l2_sq(initial_state(cfg)["w"].values, cfg.grid.cell_volume)
        state, diags, _ = run(cfg)
        runs.append((cfg, diags, w_sq0))
    return runs


def test_bounds_and_clamp_ledger(ensemble):
    p = ensemble[0][0].params
    viol = 0.0
    worst_clamp = 0.0
    for cfg, diags, _ in ensemble:
        for d in diags:
            viol = max(viol, -d.u_min, d.u_max - p.u_star, -d.w_min, d.w_max - 1.0)
        clamped = sum(abs(d.clamp_u) + abs(d.clamp_w) for d in diags)
        mass = min(min(d.mass_u for d in diags), min(d.mass_w for d in diags))
        worst_clamp = max(worst_clamp, clamped / mass)
    ok = viol <= 1e-8 and worst_clamp < 1e-6
    _verdict(
        "C01",
        "bounds-and-clamp-ledger",
        ok,
        f"{N_ENSEMBLE} runs, worst pre-clamp violation {viol:.3e}, "
        f"clamped mass fraction {worst_clamp:.3e}",
    )


def test_speed_obstacle_everywhere_and_saturated_block(ensemble):
    # part 1: audited cellwise excess over the recorded obstacle, every step
    p = ensemble[0][0].params
    tol = 1e-8 * speed_limit(p.mu, p)
    excess = max(d.max_constraint_excess for _, diags, _ in ensemble for d in diags)

    # part 2: a block pinned at the ceiling must drop to plateau speed mu
    # while the surrounding fluid keeps moving under strong forcing
    g = build_grid(2, (1.0, 1.0), (64, 64), ("left",))
    dt = 1e-3
    stepper = make_stepper(
        g,
        p,
        CouplingConfig(dt=dt, t_end=3 * dt),
        bio_cfg=BiomassStepConfig(dt=dt, newton_max=120),
    )
    u = ScalarField.zeros(g)
    u.values[24:40, 24:40] = p.u_star
    state = SimState(
        t=0.0,
        u=u,
        w=ScalarField.constant(g, 1.0),
        v=VectorField.zeros(g),
        P=ScalarField.zeros(g),
    )
    force = build_vector("swirl amplitude=600 cx=0.5 cy=0.5", g, None)
    inner = (slice(30, 34), slice(30, 34))
    block_ok = True
    fluid_max = 0.0
    for _ in range(3):
        state, _diag = picard_step(stepper, state, force)
        speed = ops.cell_norm(ops.center_average(list(state.v.comps)))
        block_ok = block_ok and speed[inner].max() <= p.mu + 1e-8
        fluid_max = max(fluid_max, float(speed.max()))
    ok = excess <= tol and block_ok and fluid_max > 10 * p.mu
    _verdict(
        "C02",
        "pointwise-speed-obstacle",
        ok,
        f"max excess {excess:.3e} <= {tol:.1e}; block core <= mu+1e-8 for 3 steps, "
        f"free fluid peaks at {fluid_max:.3f}",
    )


def test_incompressibility(ensemble):
    # 1e-8 flat is stricter than the 1e-8*(max|v|/h + 1) budget
    worst = max(d.max_div for _, diags, _ in ensemble for d in diags)
    ok = worst <= 1e-8
    _verdict("C03", "discrete-incompressibility", ok, f"max |div v| {worst:.3e}")


def test_energy_inequalities(ensemble):
    lp = poincare_constant(ensemble[0][0].grid)
    worst_flow = 0.0
    worst_nut = 0.0
    for cfg, diags, w_sq0 in ensemble:
        kin = [0.0] + [d.kinetic_sq for d in diags]
        visc = [d.viscous_grad_sq for d in diags]
        forc = [d.forcing_sq for d in diags]
        worst_flow = max(
            worst_flow, flow_energy_check(kin, visc, forc, cfg.params.nu, lp, cfg.dt)
        )
        wsq = [w_sq0] + [d.nutrient_sq for d in diags]
        gsq = [d.nutrient_grad_sq for d in diags]
        worst_nut = max(worst_nut, nutrient_energy_check(wsq, gsq, cfg.params, cfg.dt))
    ok = worst_flow <= 1.0 + 1e-6 and worst_nut <= 1.0 + 1e-6
    _verdict(
        "C04",
        "energy-dissipation-bounds",
        ok,
        f"flow ratio {worst_flow:.4f}, nutrient ratio {worst_nut:.4f} (L_P {lp:.4f})",
    )


# ---------------------------------------------------------------------------


def test_convection_skew_identities():
    g = Grid((1.0, 1.0), (16, 16))
    vol = g.cell_volume
    hmin = min(g.h)
    rng = np.random.default_rng(501)
    worst_tri = 0.0
    worst_tra = 0.0
    for _ in range(50):
        v = stream_field_2d(g, rng, amplitude=1.0)
        maxv = max(np.abs(c).max() for c in v.comps)
        tri_scale = ops.face_l2_sq(list(v.comps), vol) * maxv / hmin
        worst_tri = max(worst_tri, abs(convection_form(v, v, v, g)) / tri_scale)
        w = ScalarField(g, rng.uniform(0.0, 1.0, g.cells))
        tra_scale = ops.scalar_l2_sq(w.values, vol) * maxv / hmin
        worst_tra = max(worst_tra, abs(skew_convection_check(w, v, g)) / tra_scale)
    pos_ok = worst_tri <= 1e-12 and worst_tra <= 1e-12

    # negative controls: boundary-respecting but not solenoidal. Coupled
    # components keep the trilinear form away from the separable
    # cancellation; a linear ramp in w exposes the transport pairing.
    xf = np.linspace(0.0, 1.0, 17)
    xc = (np.arange(16) + 0.5) / 16.0
    yf = np.linspace(0.0, 1.0, 17)
    ctrl_tri = np.inf
    ctrl_tra = np.inf
    for j in range(10):
        r = np.random.default_rng(900 + j)
        amp = 1.0 + 0.2 * r.uniform(-1.0, 1.0)
        a1 = 0.8 + 0.1 * r.uniform(-1.0, 1.0)
        vx = amp * np.sin(np.pi * xf)[:, None] * (1.0 + a1 * xc)[None, :]
        vy = amp * xc[:, None] * np.sin(np.pi * yf)[None, :]
        v = VectorField(g, (vx, vy))
        maxv = max(np.abs(c).max() for c in v.comps)
        scale = ops.face_l2_sq(list(v.comps), vol) * maxv / hmin
        ctrl_tri = min(ctrl_tri, abs(convection_form(v, v, v, g)) / scale)

        slope = 0.9 + 0.08 * r.uniform(-1.0, 1.0)
        vx = amp * (xf * (1.0 - xf))[:, None] * np.ones((1, 16))
        v = VectorField(g, (vx, np.zeros((16, 17))))
        w = ScalarField(g, (1.0 - slope * xc)[:, None] * np.ones((1, 16)))
        scale = ops.scalar_l2_sq(w.values, vol) * (amp * 0.25) / hmin
        ctrl_tra = min(ctrl_tra, abs(skew_convection_check(w, v, g)) / scale)
    ctrl_ok = ctrl_tri >= 1e-3 and ctrl_tra >= 1e-3
    ok = pos_ok and ctrl_ok
    _verdict(
        "C05",
        "convection-skew-identities",
        ok,
        f"50 div-free fields: trilinear {worst_tri:.2e}, transport {worst_tra:.2e} "
        f"(<= 1e-12); controls violate by >= {min(ctrl_tri, ctrl_tra):.2e} (>= 1e-3)",
    )


def test_projection_matches_dense_qp():
    g = Grid((1.0, 1.0), (4, 4))
    worst_gap = 0.0
    worst_feas = 0.0
    for s in range(10):
        rng = np.random.default_rng(40 + s)
        comps = [rng.standard_normal(g.face_shape(ax)) for ax in range(2)]
        obs = rng.uniform(0.25, 0.6, g.cells)
        vp, _pressure, rep = project_K(
            VectorField(g, tuple(comps)),
            obs,
            dt=1.0,
            feas_tol=1e-10,
            step_tol=1e-12,
        )
        ref, cert = dense_projection_reference([c.copy() for c in comps], obs, g.h)
        gap = max(np.abs(a - b).max() for a, b in zip(vp.comps, ref))
        worst_gap = max(worst_gap, gap)
        worst_feas = max(worst_feas, rep.max_excess, rep.max_div)
        assert cert["stat"] < 1e-7, f"reference KKT stationarity {cert['stat']:.2e}"
    ok = worst_gap < 1e-6 and worst_feas <= 1e-10
    _verdict(
        "C06",
        "projection-vs-dense-qp",
        ok,
        f"10 instances, worst l-inf gap {worst_gap:.3e}, feasibility {worst_feas:.1e}",
    )


def test_reaction_kinetics_local_order():
    g = Grid((1.0, 1.0), (8, 8))
    p = ModelParams()
    u0, w0 = 0.3, 0.8
    dts = (1e-3, 5e-4, 2.5e-4)
    ref_kw = dict(method="DOP853", rtol=1e-12, atol=1e-14)
    bio_errs = []
    nut_errs = []
    for dt in dts:
        bws = make_biomass_workspace(g, p)
        u1, _ = step_biomass(
            bws,
            ScalarField.constant(g, u0),
            ScalarField.constant(g, w0),
            VectorField.zeros(g),
            BiomassStepConfig(dt=dt, newton_max=120),
        )
        assert np.ptp(u1.values) == 0.0
        ref = solve_ivp(
            lambda t, y: (p.k1 * w0 / (p.k2 + w0) - p.b) * y, (0.0, dt), [u0], **ref_kw
        ).y[0, -1]
        bio_errs.append(abs(u1.values[4, 4] - ref))

        nws = make_nutrient_workspace(g, p)
        w1, _ = step_nutrient(
            nws,
            ScalarField.constant(g, w0),
            ScalarField.constant(g, u0),
            VectorField.zeros(g),
            dt,
        )
        assert np.ptp(w1.values) == 0.0
        refw = solve_ivp(
            lambda t, y: -p.k1 * u0 * y / (p.k2 + y), (0.0, dt), [w0], **ref_kw
        ).y[0, -1]
        nut_errs.append(abs(w1.values[4, 4] - refw))
    bio_ord = min(np.log2(bio_errs[i] / bio_errs[i + 1]) for i in range(2))
    nut_ord = min(np.log2(nut_errs[i] / nut_errs[i + 1]) for i in range(2))
    ok = (
        bio_ord >= 1.9
        and nut_ord >= 1.9
        and bio_errs[0] <= dts[0] ** 2
        and nut_errs[0] <= dts[0] ** 2
    )
    _verdict(
        "C07",
        "reaction-kinetics-order",
        ok,
        f"one-step errors {bio_errs[0]:.2e}/{nut_errs[0]:.2e} at dt={dts[0]:g}, "
        f"observed orders {bio_ord:.3f}/{nut_ord:.3f}",
    )


def _beta(r, p):
    return p.kappa * r**p.alpha_exp * (p.u_star - r) ** (-p.gamma_exp)


def test_degenerate_diffusion_spatial_order():
    # pure diffusion: no forcing, no flow, reaction switched off
    p = replace(ModelParams(), b=1e-12, k1=1e-12)
    T = 0.02

    def prof(x):
        return 0.05 + 0.45 * np.exp(-(((x - 0.5) / 0.15) ** 2))

    # explicit fine reference differencing the flux potential directly,
    # stable step from the max slope over the occupied density range
    nf = 1024
    hf = 1.0 / nf
    uf = prof((np.arange(nf) + 0.5) * hf)
    rr = np.linspace(1e-4, 0.55, 2001)
    slope = p.kappa * (
        p.alpha_exp * rr ** (p.alpha_exp - 1) * (p.u_star - rr) ** (-p.gamma_exp)
        + p.gamma_exp * rr**p.alpha_exp * (p.u_star - rr) ** (-p.gamma_exp - 1)
    )
    nref = int(np.ceil(T / (0.4 * hf * hf / slope.max())))
    dtf = T / nref
    for _ in range(nref):
        b = _beta(uf, p)
        bg = np.concatenate(([b[0]], b, [b[-1]]))
        uf = uf + dtf / hf**2 * (bg[2:] - 2.0 * b + bg[:-2])

    errs = []
    for n in (32, 64, 128):
        g = Grid((1.0, 1.0 / n), (n, 1))
        dt = 2.5e-4 * (32.0 / n) ** 2
        ws = make_biomass_workspace(g, p)
        cfg = BiomassStepConfig(dt=dt, newton_max=120)
        u = ScalarField(g, prof((np.arange(n) + 0.5) / n)[:, None].copy())
        w = ScalarField.zeros(g)
        v = VectorField.zeros(g)
        for _ in range(int(round(T / dt))):
            u, _ = step_biomass(ws, u, w, v, cfg)
        coarse = uf.reshape(n, nf // n).mean(axis=1)
        errs.append(float(np.sqrt(np.mean((u.values[:, 0] - coarse) ** 2))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = errs[0] > errs[1] > errs[2] and min(orders) >= 0.9
    _verdict(
        "C08",
        "degenerate-diffusion-order",
        ok,
        f"L2 errors {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e}, "
        f"orders {orders[0]:.3f}/{orders[1]:.3f}",
    )


PICARD_TEXT = """
[grid]
cells = 32 32
gamma0 = left

[time]
t_end = {t_end}
dt = {dt}

[coupling]
picard_tol = 1e-13
picard_min_iters = 3

[output]
out_dir = none

[initial]
u = random-smooth amplitude=0.3 floor=0.02
w = random-smooth amplitude=0.5 floor=0.45
g = swirl amplitude={force} cx={cx} cy=0.5
seed = {seed}
"""


def test_picard_contraction():
    medians = {}
    worst = 0.0
    for dt in (1e-3, 5e-4):
        ratios = []
        for seed in range(6):
            r = np.random.default_rng(7000 + seed)
            cfg = parse_config(
                PICARD_TEXT.format(
                    t_end=repr(30 * dt),
                    dt=repr(dt),
                    force=f"{2.0 + 4.0 * r.uniform():.3f}",
                    cx=f"{0.3 + 0.4 * r.uniform():.3f}",
                    seed=seed,
                )
            )
            _, diags, _ = run(cfg)
            for d in diags:
                res = d.picard_residuals
                if len(res) >= 2 and res[0] > 1e-8:
                    ratios.append(res[1] / res[0])
        assert ratios, "no usable residual pairs recorded"
        medians[dt] = float(np.median(ratios))
        worst = max(worst, max(ratios))
    ok = worst < 1.0 and medians[5e-4] < medians[1e-3]
    _verdict(
        "C09",
        "coupling-contraction",
        ok,
        f"max ratio {worst:.3e} < 1; median at dt=1e-3 {medians[1e-3]:.3e} -> "
        f"{medians[5e-4]:.3e} at dt=5e-4",
    )


MU_TEXT = """
[grid]
cells = 64 64
gamma0 = left

[model]
mu = {mu}

[time]
t_end = 0.1
dt = 1e-3

[output]
out_dir = none

[initial]
u = gaussian-blob amplitude=0.75 width=0.12
w = uniform value=1.0
g = swirl amplitude=30.0 cx=0.35 cy=0.5
seed = 5
"""


def test_smoothing_width_consistency():
    # halving the averaging radius mu should move the solution less and
    # less: || u_{mu/4} - u_{mu/2} || <= || u_{mu/2} - u_{mu} || in L2 over
    # space and time. delta0 = 0.35, so these are 0.2/0.1/0.05 of it.
    dt = 1e-3
    frames = {}
    for mu in (0.07, 0.035, 0.0175):
        cfg = parse_config(MU_TEXT.format(mu=repr(mu)))
        init = initial_state(cfg)
        g_force = init.pop("g")
        state = SimState(t=0.0, **init)
        stepper = make_stepper(
            cfg.grid,
            cfg.params,
            CouplingConfig(dt=dt, t_end=0.1),
            bio_cfg=BiomassStepConfig(dt=dt, newton_max=150),
        )
        us = []
        for _ in range(100):
            state, _ = picard_step(stepper, state, g_force)
            us.append(state.u.values.copy())
        frames[mu] = (cfg.grid.cell_volume, us)

    def l2q(a, b, vol):
        return float(
            np.sqrt(dt * sum(ops.scalar_l2_sq(x - y, vol) for x, y in zip(a, b)))
        )

    vol = frames[0.07][0]
    gap_coarse = l2q(frames[0.07][1], frames[0.035][1], vol)
    gap_fine = l2q(frames[0.035][1], frames[0.0175][1], vol)
    ok = 0.0 < gap_fine <= gap_coarse
    _verdict(
        "C10",
        "smoothing-width-consistency",
        ok,
        f"gap(mu: .07->.035) {gap_coarse:.3e} >= gap(.035->.0175) {gap_fine:.3e}",
    )


VI_TEXT = """
[grid]
cells = 32 32
gamma0 = left

[model]
mu = 0.2

[time]
t_end = 2.5e-3
dt = 5e-4

[output]
out_dir = none

[initial]
u = random-smooth amplitude={amp} floor=0.02
w = random-smooth amplitude=0.5 floor=0.45
g = swirl amplitude={force} cx={cx} cy=0.5
seed = {seed}
"""


def test_variational_inequality_residuals():
    # 4 recorded runs x 5 feasible test-field families = 20 trajectories.
    # Strong forcing makes the obstacle bind in some runs (an accepted
    # step whose speed excess reaches -1e-6, the saturated threshold of
    # perfbench) while others stay unconstrained; both regimes must occur,
    # and both must keep RHS - LHS above -1e-6 * scale. The wide mu keeps
    # the averaged obstacle's per-step drift small enough for the shifted
    # test fields.
    worst = 0.0
    count = 0
    binding = []
    for k in range(4):
        r = np.random.default_rng(8100 + k)
        cfg = parse_config(
            VI_TEXT.format(
                amp=f"{0.2 + 0.1 * r.uniform():.3f}",
                force=f"{400.0 + 400.0 * r.uniform():.3f}",
                cx=f"{0.3 + 0.4 * r.uniform():.3f}",
                seed=k,
            )
        )
        _, diags, traj = recorded_run(cfg)
        g = cfg.grid
        mu = cfg.params.mu
        n = len(traj.v_star)
        binding.append(any(d.max_constraint_excess >= -1e-6 for d in diags))
        scale = 1.0 + max(ops.face_l2_sq(list(v.comps), g.cell_volume) for v in traj.v)

        def feasible_step(eta, m):
            out, _ = make_feasible(eta, traj.obstacles[m], traj.obstacles[m - 1], mu)
            return out

        chain = [VectorField(g, tuple(0.5 * c for c in traj.v[1].comps))]
        for m in range(1, n):
            chain.append(feasible_step(chain[-1], m))
        shift = [traj.v[0]]
        for m in range(1, n):
            shift.append(feasible_step(traj.v[m], m))
        families = {
            "rest": [VectorField.zeros(g) for _ in range(n)],
            "solver": traj.v[1:],
            "halved": [
                VectorField(g, tuple(0.5 * c for c in v.comps)) for v in traj.v[1:]
            ],
            "chained": chain,
            "shifted": shift,
        }

        for etas in families.values():
            res = vi_residual(traj, etas)
            worst = min(worst, res / scale)
            count += 1
    ok = count == 20 and worst >= -1e-6 and any(binding) and not all(binding)
    _verdict(
        "C11",
        "inequality-residuals",
        ok,
        f"{count} feasible trajectories, worst scaled residual {worst:+.3e}, "
        f"{sum(binding)} of {len(binding)} runs binding",
    )


DET_TEXT = """
[grid]
cells = 32 32
gamma0 = left

[time]
t_end = 0.01
dt = 1e-3

[initial]
u = random-smooth amplitude=0.3 floor=0.02
w = random-smooth amplitude=0.5 floor=0.45
g = swirl amplitude=4.0 cx=0.4 cy=0.5
seed = 3
"""


def _cli(tmp, *args, threads=None):
    """Run the CLI in `tmp` on the copy of the package this module imported.

    `threads`, when given, is passed as `--threads` and also caps the
    BLAS/OpenMP pools through the environment the child starts with:
    numpy sizes them at import, before `--threads` is parsed.
    """
    env = dict(os.environ)
    src = str(Path(biofilmflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if threads is not None:
        args = (*args, "--threads", str(threads))
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "biofilmflow.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_csv_determinism_and_threads(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(DET_TEXT)
    series = {}
    for name, threads in (("a", None), ("b", None), ("t1", 1), ("t4", 4)):
        out = tmp_path / name
        _cli(tmp_path, "--config", str(cfg_path), "--out-dir", str(out), threads=threads)
        series[name] = (out / "series.csv").read_bytes()
    ok = series["a"] == series["b"] and series["t1"] == series["t4"]
    _verdict(
        "C12",
        "bytewise-determinism",
        ok,
        f"{len(series['a'])} byte series identical across reruns and threads 1/4",
    )
