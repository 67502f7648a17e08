"""Randomized short-run ensemble with a margin table.

Launches seeded random initial data (smooth biomass and nutrient noise,
random swirl forcing) and tabulates, per run, the observable safety
margins: pre-clamp bound violations, obstacle excess, divergence, and
both energy-dissipation ratios. Everything should sit far inside its
tolerance; this is the quick smoke check before trusting a longer run.

Usage: python3 scripts/random_ensemble.py [--runs 8] [--steps 25]
"""

import argparse

import numpy as np

from biofilmflow import operators as ops
from biofilmflow.config import initial_state, parse_config
from biofilmflow.coupling import run
from biofilmflow.flow import flow_energy_check, poincare_constant
from biofilmflow.nutrient import nutrient_energy_check

TEMPLATE = """
[grid]
cells = {cells} {cells}
gamma0 = left

[time]
t_end = {t_end}
dt = {dt}

[output]
out_dir = none

[initial]
u = random-smooth amplitude={amp:.3f} floor=0.02 corr={corr:.3f}
w = random-smooth amplitude=0.5 floor=0.45
g = swirl amplitude={force:.3f} cx={cx:.3f} cy={cy:.3f}
seed = {seed}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=8)
    ap.add_argument("--cells", type=int, default=64)
    ap.add_argument("--steps", type=int, default=25)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()

    print(
        f"{'seed':>4} {'u_max':>8} {'w_max':>8} {'bound_viol':>10} "
        f"{'excess':>10} {'max_div':>10} {'flow_E':>8} {'nut_E':>8} {'picard':>6}"
    )
    lp = None
    for k in range(args.runs):
        r = np.random.default_rng(1000 + k)
        cfg = parse_config(
            TEMPLATE.format(
                cells=args.cells,
                t_end=repr(args.steps * args.dt),
                dt=repr(args.dt),
                amp=0.15 + 0.15 * r.uniform(),
                corr=0.06 + 0.04 * r.uniform(),
                force=2.0 + 6.0 * r.uniform(),
                cx=0.3 + 0.4 * r.uniform(),
                cy=0.3 + 0.4 * r.uniform(),
                seed=k,
            )
        )
        if lp is None:
            lp = poincare_constant(cfg.grid)
        w_sq0 = ops.scalar_l2_sq(initial_state(cfg)["w"].values, cfg.grid.cell_volume)
        _, diags, _ = run(cfg)
        p = cfg.params
        viol = max(
            max(-d.u_min, d.u_max - p.u_star, -d.w_min, d.w_max - 1.0) for d in diags
        )
        flow_ratio = flow_energy_check(
            [0.0] + [2.0 * d.kinetic_energy for d in diags],
            [d.viscous_grad_sq for d in diags],
            [d.forcing_sq for d in diags],
            p.nu,
            lp,
            cfg.dt,
        )
        nut_ratio = nutrient_energy_check(
            [w_sq0] + [d.nutrient_sq for d in diags],
            [d.nutrient_grad_sq for d in diags],
            p,
            cfg.dt,
        )
        print(
            f"{k:>4} {max(d.u_max for d in diags):8.4f} "
            f"{max(d.w_max for d in diags):8.4f} {viol:10.2e} "
            f"{max(d.max_constraint_excess for d in diags):10.2e} "
            f"{max(d.max_div for d in diags):10.2e} "
            f"{flow_ratio:8.4f} {nut_ratio:8.4f} "
            f"{max(d.picard_iters for d in diags):>6}"
        )


if __name__ == "__main__":
    main()
