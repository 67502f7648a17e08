"""One benchmark episode in a fresh interpreter.

Usage: python3 perfbench/episode.py WORKLOAD VARIANT EPISODE_DIR TRACE

run.py starts one of these per episode, with the BLAS thread pools
capped through the environment. The episode times ``import
biofilmflow``, builds the workload's inputs under EPISODE_DIR/in,
runs the workload (solver output goes to EPISODE_DIR/out) and prints
one JSON object: its timings, peak RSS and, with TRACE 1, the
per-layer metrics. A solver error is reported in that object, not
raised.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    name, variant, ep_dir, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import biofilmflow

    import_s = time.perf_counter() - start

    import json
    import platform
    import resource

    import numpy
    import scipy
    from biofilmflow import config, coupling

    import tracing
    from workloads import WORKLOADS

    if not os.path.abspath(biofilmflow.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"biofilmflow imported from {biofilmflow.__file__}, not from {ROOT}/src")

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    # set-up ends when the first step starts
    step_starts = []
    picard_step = coupling.picard_step

    def first_step_mark(*args, **kwargs):
        if not step_starts:
            step_starts.append(time.perf_counter())
        return picard_step(*args, **kwargs)

    coupling.picard_step = first_step_mark

    workload = WORKLOADS[name]
    in_dir, out_dir = os.path.join(ep_dir, "in"), os.path.join(ep_dir, "out")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    record = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "thread_caps": {
                k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")
            },
        },
        "import_s": import_s,
    }
    try:
        cfg = config.parse_config(workload.config(variant, in_dir, out_dir))
        start = time.perf_counter()
        steps = workload.drive(cfg)
        wall_s = time.perf_counter() - start
        record.update(ok=True, wall_s=wall_s, setup_s=step_starts[0] - start, steps=steps)
    except Exception as exc:  # reported to run.py, which counts the failure
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["layers"]["output.bytes_written"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
