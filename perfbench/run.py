"""biofilmflow benchmark: three solver regimes, timed end to end and traced per layer.

Usage:
    python3 perfbench/run.py --workload demo2d|block2d|box3d|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each episode runs in a fresh
single-process interpreter (perfbench/episode.py) with the BLAS thread
pools capped at 1, one episode at a time, until --seconds have passed
and at least MIN_EPISODES have run. The seed selects one of the
workload's input variants.

--trace 0 reports the end-to-end metrics as medians over the episodes.
--trace 1 alternates untraced and traced episodes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every episode's series.csv is checked: obstacle regime, byte-identity
with the run's other episodes, and the stored reference (SHA-256, or
column by column within TOLERANCE when the bytes differ). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import import_seconds  # noqa: E402
from workloads import VARIANTS, WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
MIN_EPISODES = 3
# no episode starts once this much time has passed, so a run ends within 180 s
START_LIMIT_S = 150.0
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

# Per series column (relative, absolute) tolerance for a series whose bytes
# differ from the reference; a value passes when |x - ref| <= atol + rtol |ref|.
# The constraint residuals are solver tolerances, so only an absolute bound
# applies to them; an inner solve may move the Picard count by one.
_FIELD = (1e-6, 1e-9)
TOLERANCE = {
    "step": (0.0, 0.0),
    "t": (1e-12, 0.0),
    "picard_iters": (0.0, 1.0),
    "u_min": _FIELD,
    "u_max": _FIELD,
    "w_min": _FIELD,
    "w_max": _FIELD,
    "kinetic_energy": _FIELD,
    "phi_u": _FIELD,
    "nutrient_l2": _FIELD,
    "max_constraint_excess": (1e-6, 1e-8),
    "max_div": (0.0, 1e-8),
    "mass_u": _FIELD,
    "mass_w": _FIELD,
    "clamp_u": (0.0, 1e-9),
    "clamp_w": (0.0, 1e-9),
}
# the obstacle binds when the largest speed excess reaches the feasibility
# tolerance from below; an inactive obstacle keeps a clear margin
INACTIVE_EXCESS = -1e-3
SATURATED_EXCESS = -1e-6

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "step_s": "s",
    "import_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def parse_series(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if tuple(header) != tuple(TOLERANCE):
        raise ValueError(f"series header {header} is not {list(TOLERANCE)}")
    return [[float(x) for x in row] for row in body]


def reference_rows(rows, steps):
    """The rows kept in the reference: about ten, always the last."""
    stride = max(1, steps // 10)
    return [row for row in rows if int(row[0]) % stride == 0 or int(row[0]) == steps]


def compare_rows(rows, ref_rows):
    """Problems found comparing series rows to the reference rows."""
    by_step = {int(row[0]): row for row in rows}
    problems = []
    for ref in ref_rows:
        row = by_step.get(int(ref[0]))
        if row is None:
            problems.append(f"step {int(ref[0])} missing")
            continue
        for col, x, r in zip(TOLERANCE, row, ref):
            rtol, atol = TOLERANCE[col]
            if not abs(x - r) <= atol + rtol * abs(r):
                problems.append(f"step {int(ref[0])} {col} = {x!r}, reference {r!r}")
    return problems


def check_series(workload, text, ref):
    """One episode's series: its SHA-256, its rows and the problems found.

    With ref None only the row count and the obstacle regime are checked.
    """
    sha = hashlib.sha256(text.encode()).hexdigest()
    try:
        rows = parse_series(text)
    except ValueError as exc:
        return sha, [], [f"unreadable series: {exc}"]
    problems = []
    if len(rows) != workload.steps:
        problems.append(f"{len(rows)} series rows, expected {workload.steps}")
    excess = [row[list(TOLERANCE).index("max_constraint_excess")] for row in rows]
    if workload.regime == "inactive" and not max(excess, default=0.0) <= INACTIVE_EXCESS:
        problems.append(f"obstacle binds (max excess {max(excess):.3e}) in an inactive regime")
    if workload.regime == "saturated" and not min(excess, default=-1.0) >= SATURATED_EXCESS:
        problems.append(f"obstacle released (excess {min(excess):.3e}) in a saturated regime")
    if ref is not None and sha != ref["sha256"]:
        problems += compare_rows(rows, ref["rows"])
    return sha, rows, problems


def comparator_rejects_perturbation(ref):
    """The column check must reject a reference with one value moved by 1e-5."""
    col = list(TOLERANCE).index("mass_u")
    bad = [list(row) for row in ref["rows"]]
    bad[-1][col] *= 1.0 + 1e-5
    return bool(compare_rows(bad, ref["rows"]))


def load_reference(name, variant):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(name, {}).get(str(variant))
    except FileNotFoundError:
        return None


def run_episode(name, variant, ep_dir, traced, timeout):
    """Run one episode in a fresh interpreter; returns (record, series text)."""
    env = dict(os.environ, **{k: "1" for k in THREAD_CAPS})
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "episode.py"), name, str(variant), ep_dir, "1" if traced else "0"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"episode exceeded {timeout:.0f} s"}, None
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"ok": False, "error": f"episode exited {proc.returncode}: {tail}"}, None
    if traced and "layers" in record:
        record["layers"]["import.scipy_integrate_s"] = import_seconds(proc.stderr, "scipy.integrate")
    series = None
    path = os.path.join(ep_dir, "out", "series.csv")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            series = fh.read()
    return record, series


def measure(name, seed, seconds, trace):
    """All episodes of one workload; returns the result object and a report."""
    workload = WORKLOADS[name]
    variant = seed % VARIANTS
    ref = load_reference(name, variant)
    problems = []
    if ref is None:
        problems.append("no stored reference for this workload and variant")
    elif not comparator_rejects_perturbation(ref):
        problems.append("the series comparison accepts a perturbed reference")
    episodes = []
    first_series = None
    t0 = time.perf_counter()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        while True:
            elapsed = time.perf_counter() - t0
            # a traced run ends on a complete (untraced, traced) pair
            enough = (
                len(episodes) >= (2 if trace else MIN_EPISODES)
                and elapsed >= seconds
                and not (trace and len(episodes) % 2)
            )
            last = episodes[-1]["duration_s"] if episodes else 0.0
            if enough or (episodes and elapsed + last > START_LIMIT_S):
                break
            traced = trace and len(episodes) % 2 == 1
            ep_dir = os.path.join(scratch, f"episode{len(episodes)}")
            start = time.perf_counter()
            record, series = run_episode(
                name, variant, ep_dir, traced, timeout=max(10.0, 175.0 - elapsed)
            )
            record["traced"] = traced
            record["duration_s"] = time.perf_counter() - start
            shutil.rmtree(ep_dir, ignore_errors=True)
            if record["ok"]:
                if series is None:
                    record["problems"] = ["no series.csv written"]
                else:
                    record["series_sha256"], _, record["problems"] = check_series(
                        workload, series, ref
                    )
                    if first_series is None:
                        first_series = series
                    elif series != first_series:
                        record["problems"].append("series differs from the run's first episode")
                record["ok"] = not record["problems"]
            episodes.append(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    good = [e for e in episodes if e["ok"]]
    failed = len(episodes) - len(good)
    metrics = {}
    if good:
        untraced = [e for e in good if not e["traced"]]
        traced = [e for e in good if e["traced"]]
        if not trace:
            values = {
                "wall_s": [e["wall_s"] for e in good],
                "setup_s": [e["setup_s"] for e in good],
                "step_s": [(e["wall_s"] - e["setup_s"]) / e["steps"] for e in good],
                "import_s": [e["import_s"] for e in good],
                "peak_rss_mb": [e["peak_rss_mb"] for e in good],
            }
            for key, vals in values.items():
                metrics[key] = {"value": statistics.median(vals), "unit": END_TO_END[key]}
            metrics["ok_frac"] = {"value": len(good) / len(episodes), "unit": "fraction"}
        elif traced and untraced:
            for key in traced[0]["layers"]:
                vals = [e["layers"][key] for e in traced]
                unit = (
                    "s" if key.endswith("_s")
                    else "bytes" if key.endswith("bytes_written")
                    else "ratio" if "_per_" in key
                    else "count"
                )
                metrics[key] = {"value": statistics.median(vals), "unit": unit}
            overhead = statistics.median(e["wall_s"] for e in traced) - statistics.median(
                e["wall_s"] for e in untraced
            )
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.traced_wall_s"] = {
                "value": statistics.median(e["wall_s"] for e in traced),
                "unit": "s",
            }
    result = {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": len(episodes),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "trace": trace,
        "env": next((e["env"] for e in episodes if "env" in e), None),
        "reference_sha256": ref and ref["sha256"],
        "problems": problems,
        "episodes": [
            {k: v for k, v in e.items() if k not in ("env", "layers")} for e in episodes
        ],
    }
    return result, report


def print_table(result, report):
    verdict = "correct" if result["correct"] else "NOT CORRECT"
    print(
        f"== {report['workload']}  seed {report['seed']} (variant {report['variant']})"
        f"  episodes {result['attempted']}  failed {result['failed']}  {verdict}"
    )
    for problem in report["problems"]:
        print(f"   problem: {problem}")
    for i, e in enumerate(report["episodes"]):
        if not e["ok"]:
            for problem in (e.get("problems") or [e.get("error")])[:5]:
                print(f"   episode {i}: {problem}")
    for key, m in result["metrics"].items():
        print(f"   {key:36s} {m['value']:14.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "biofilmflow", "__init__.py")):
        print(f"perfbench: no solver sources at {ROOT}/src/biofilmflow", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, report = measure(name, args.seed, args.seconds, bool(args.trace))
        print_table(result, report)
        print("record " + json.dumps(report))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
