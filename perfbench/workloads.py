"""The benchmark's three workloads: their inputs and how each is driven.

Every workload has VARIANTS input variants; the run's seed selects one
(seed mod VARIANTS), so every run can be checked against a stored
reference series. A variant sets the initial nutrient level. That
changes every series but not the obstacle regime, which run.py checks
on every series, nor the solver's work: the biomass geometry, which
drives the Jacobian refreshes and the projection, stays fixed.

Nothing here imports the solver at module level: run.py imports this
file without numpy, and episode.py imports it only after timing
``import biofilmflow``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

VARIANTS = 8


def _nutrient_level(variant, committed, lo, hi):
    """Variant 0 keeps the committed set-up's level; the others draw one in [lo, hi]."""
    if variant == 0:
        return committed
    return f"{random.Random(variant).uniform(lo, hi):.4f}"


def demo2d_config(variant, in_dir, out_dir):
    """configs/demo.ini, output into out_dir; variant 0 is that file's input."""
    w = _nutrient_level(variant, "0.9", 0.85, 0.95)
    return f"""
[grid]
cells = 64 64
gamma0 = left

[time]
t_end = 0.1
dt = 1e-3

[output]
out_dir = {out_dir}
snapshot_every = 20
snapshot_fields = u w v P

[initial]
u = gaussian-blob amplitude=0.6 width=0.15 cx=0.5 cy=0.5
w = uniform value={w}
g = swirl amplitude=8.0 cx=0.4 cy=0.5
seed = 1
"""


def block2d_config(variant, in_dir, out_dir):
    """scripts/solid_block.py at 64 cells: a square patch pinned at u* = 1 in a
    swirl of amplitude 600. The patch is passed to the solver as a file."""
    import numpy as np

    n = 64
    lo, hi = (3 * n) // 8, (5 * n) // 8
    u0 = np.zeros((n, n))
    u0[lo:hi, lo:hi] = 1.0
    path = os.path.join(in_dir, "u0.npy")
    np.save(path, u0)
    w = _nutrient_level(variant, "1.0", 0.8, 1.0)
    return f"""
[grid]
cells = {n} {n}
gamma0 = left

[time]
t_end = 0.002
dt = 1e-3

[output]
out_dir = {out_dir}

[initial]
u = file path={path}
w = uniform value={w}
g = swirl amplitude=600.0 cx=0.5 cy=0.5
"""


def box3d_config(variant, in_dir, out_dir):
    """A 24^3 biomass blob in the demo's swirl; series plus one u snapshot."""
    w = _nutrient_level(variant, "0.9", 0.85, 0.95)
    return f"""
[grid]
dim = 3
extents = 1.0 1.0 1.0
cells = 24 24 24
gamma0 = left

[time]
t_end = 0.003
dt = 1e-3

[output]
out_dir = {out_dir}
snapshot_every = 3
snapshot_fields = u

[initial]
u = gaussian-blob amplitude=0.6 width=0.15 cx=0.5 cy=0.5 cz=0.5
w = uniform value={w}
g = swirl amplitude=8.0 cx=0.4 cy=0.5
"""


def drive_run(cfg):
    """The CLI's path: coupling.run writes the series and the snapshots."""
    from biofilmflow import coupling

    _, diags, _ = coupling.run(cfg)
    return len(diags)


def drive_block(cfg):
    """scripts/solid_block.py's path: make_stepper and picard_step driven
    directly with newton_max=150, plus the per-step invariant check that
    coupling.run would make. Writes the series and a final snapshot."""
    from dataclasses import replace

    from biofilmflow import config, coupling, diagnostics, flow, output
    from biofilmflow.biomass import BiomassStepConfig
    from biofilmflow.errors import InvariantError

    stepper = coupling.make_stepper(
        cfg.grid,
        cfg.params,
        coupling.CouplingConfig(
            dt=cfg.dt,
            t_end=cfg.t_end,
            picard_tol=cfg.picard_tol,
            picard_abs_floor=cfg.picard_abs_floor,
            picard_max=cfg.picard_max,
            picard_min_iters=cfg.picard_min_iters,
        ),
        bio_cfg=BiomassStepConfig(dt=cfg.dt, newton_max=150),
    )
    fields = config.initial_state(cfg)
    g = fields.pop("g")
    state = coupling.SimState(t=0.0, **fields)
    steps = config.num_steps(cfg)
    out_dir = cfg.output.out_dir
    with output.SeriesWriter(os.path.join(out_dir, cfg.output.series_name)) as writer:
        for n in range(steps):
            state, diag = coupling.picard_step(stepper, state, g)
            writer.write_row(replace(diag, step=n + 1))
            obstacle = flow.workspace_obstacle(stepper.flow_ws, state.u)
            rep = diagnostics.invariant_report(state, cfg.params, obstacle=obstacle, feas_tol=1e-6)
            if not rep.ok:
                names = ", ".join(f"{c.name} (margin {c.margin:.3e})" for c in rep.failures())
                raise InvariantError(f"invariant violated after step {n + 1}: {names}")
    output.write_snapshot(state, cfg.grid, out_dir, steps, ("u", "v", "obstacle"), obstacle=obstacle)
    return steps


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    # "inactive": the speed obstacle never binds; "saturated": it binds
    regime: str
    config: object
    drive: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo2d", 100, "inactive", demo2d_config, drive_run),
        Workload("block2d", 2, "saturated", block2d_config, drive_block),
        Workload("box3d", 3, "inactive", box3d_config, drive_run),
    )
}
