"""Saturated-block experiment.

A square biomass patch pinned at the ceiling u* sits in the middle of a
strongly stirred box. The averaged density pushes the local speed bound
down to its plateau mu, so the patch behaves like a near-rigid body while
the surrounding fluid keeps circulating. Prints the core/fluid speed
split and the projection, Newton and CG iterations of every coupling
round per step, writes a CSV series plus VTK snapshots, and ends with
one line of totals over the run: newton N krylov M projection P.

Usage: python3 scripts/solid_block.py [--steps 20] [--cells 64] [--out-dir out/block]
"""

import argparse
import os
from dataclasses import replace

from biofilmflow import operators as ops
from biofilmflow.biomass import BiomassStepConfig
from biofilmflow.constitutive import ModelParams
from biofilmflow.coupling import CouplingConfig, SimState, make_stepper, picard_step
from biofilmflow.flow import workspace_obstacle
from biofilmflow.grid import ScalarField, VectorField, build_grid
from biofilmflow.output import SeriesWriter, write_snapshot
from biofilmflow.presets import build_vector


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--cells", type=int, default=64)
    ap.add_argument("--force", type=float, default=600.0)
    ap.add_argument("--out-dir", default="out/block")
    args = ap.parse_args()
    if args.cells < 4:
        ap.error("--cells must be at least 4, so the block covers a cell")

    n = args.cells
    g = build_grid(2, (1.0, 1.0), (n, n), ("left",))
    p = ModelParams()
    dt = 1e-3
    # the saturated core makes the implicit biomass solve stiff; give the
    # inner iteration more room than the run defaults
    stepper = make_stepper(
        g,
        p,
        CouplingConfig(dt=dt, t_end=args.steps * dt),
        bio_cfg=BiomassStepConfig(dt=dt, newton_max=150),
    )

    u = ScalarField.zeros(g)
    lo, hi = (3 * n) // 8, (5 * n) // 8
    u.values[lo:hi, lo:hi] = p.u_star
    state = SimState(
        t=0.0,
        u=u,
        w=ScalarField.constant(g, 1.0),
        v=VectorField.zeros(g),
        P=ScalarField.zeros(g),
    )
    force = build_vector(f"swirl amplitude={args.force} cx=0.5 cy=0.5", g, None)

    os.makedirs(args.out_dir, exist_ok=True)
    writer = SeriesWriter(os.path.join(args.out_dir, "series.csv"))
    # the core leaves out up to 4 cells next to the block's edge, and at
    # least one cell in the middle
    inset = min(4, (hi - lo - 1) // 2)
    core = (slice(lo + inset, hi - inset),) * 2
    print(f"block [{lo}:{hi})^2 at u*={p.u_star}, plateau mu={p.mu}, force={args.force}")
    newton = krylov = projection = 0
    for k in range(args.steps):
        state, diag = picard_step(stepper, state, force)
        newton += sum(diag.round_newton_iters)
        krylov += sum(diag.round_krylov_iters)
        projection += sum(diag.round_projection_iters)
        writer.write_row(replace(diag, step=k + 1))
        speed = ops.cell_norm(ops.center_average(state.v.comps))
        print(
            f"step {k + 1:3d}: core speed {speed[core].max():.4e}"
            f"  fluid max {speed.max():.4f}"
            f"  projection iters per round {diag.round_projection_iters}"
            f"  newton per round {diag.round_newton_iters}"
            f"  krylov per round {diag.round_krylov_iters}"
        )
        if (k + 1) % 5 == 0 or k + 1 == args.steps:
            write_snapshot(
                state,
                g,
                args.out_dir,
                k + 1,
                ("u", "v", "obstacle"),
                obstacle=workspace_obstacle(stepper.flow_ws, state.u),
            )
    writer.close()
    print(f"series + snapshots in {args.out_dir}/")
    print(f"newton {newton} krylov {krylov} projection {projection}")


if __name__ == "__main__":
    main()
