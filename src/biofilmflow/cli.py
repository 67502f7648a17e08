"""Command-line driver.

Exit codes: 0 success, 2 configuration problem, 3 solver
non-convergence (including CFL aborts), 4 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_threads(n):
    """Ask the numerical thread pools to use `n` threads.

    By the time this runs numpy is imported, and BLAS/OpenMP have
    already sized their pools from the environment. The cap takes
    effect in this process only through `threadpoolctl`, when it is
    installed; otherwise the variables set here reach only processes
    started later. To fix the thread counts of a run, set
    `OMP_NUM_THREADS`/`OPENBLAS_NUM_THREADS` before launching it.

    The stencils run in numpy alone; the transforms and dot products go
    through BLAS, which may split them across threads on 3D and larger
    2D grids and so move the last bits of a result (see README).
    """
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biofilmflow",
        description="Coupled biofilm growth / nutrient / constrained flow solver",
    )
    parser.add_argument("--config", required=True, help="path to an INI run configuration")
    parser.add_argument(
        "--out-dir", default=None, help="override [output] out_dir; none turns output off"
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="run exactly this many steps (overrides t_end)"
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="echo the parsed configuration in canonical form and exit",
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="parse the config and validate the initial data, then exit",
    )
    parser.add_argument("--seed", type=int, default=None, help="override [initial] seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap numerical thread pools via threadpoolctl if installed; "
        "otherwise set OMP_NUM_THREADS/OPENBLAS_NUM_THREADS before launch",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            parser.error(f"--threads must be at least 1, got {args.threads}")
        _apply_threads(args.threads)

    from dataclasses import replace

    from .config import initial_state, load_config, num_steps, parse_out_dir, print_config
    from .coupling import run
    from .errors import ConfigError, InvariantError, NonConvergenceError

    cfg = None
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, initial=replace(cfg.initial, seed=args.seed))
        if args.out_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, out_dir=parse_out_dir(args.out_dir)))
        if args.steps is not None:
            if args.steps < 0:
                raise ConfigError("--steps must be nonnegative")
            try:
                t_end = args.steps * cfg.dt
            except OverflowError:
                raise ConfigError(
                    f"--steps is too large: a {len(str(args.steps))}-digit step count "
                    f"does not fit in a float"
                ) from None
            cfg = replace(cfg, t_end=t_end)

        if args.print_config:
            sys.stdout.write(print_config(cfg))
            return 0
        if args.validate_only:
            initial_state(cfg)
            print(
                f"config ok: {cfg.grid.dim}D grid {'x'.join(map(str, cfg.grid.cells))}, "
                f"{num_steps(cfg)} steps of dt={cfg.dt:g}"
            )
            return 0

        state, diags, _ = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        cells = "x".join(map(str, cfg.grid.cells)) if cfg else "configured"
        print(f"config error: the {cells} grid does not fit in memory: {exc}", file=sys.stderr)
        return 2

    last = diags[-1] if diags else None
    if last is None:
        print("0 steps requested; initial state echoed, nothing to solve")
    else:
        print(
            f"done: {last.step} steps to t={last.t:g}; "
            f"mass_u={last.mass_u:.6g} mass_w={last.mass_w:.6g} "
            f"kinetic={last.kinetic_energy:.6g} "
            f"max_excess={last.max_constraint_excess:.3e} max_div={last.max_div:.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
