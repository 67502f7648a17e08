"""Write perfbench/reference.json: the series every benchmark run is checked against.

Usage: python3 perfbench/make_reference.py [--workload NAME ...]

Runs one untraced episode per workload and input variant and stores the
series' SHA-256 and about ten of its rows. Regenerate only when a change
is meant to alter the series, and say so in the change.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import REFERENCE, ROOT, check_series, reference_rows, run_episode
from workloads import VARIANTS, WORKLOADS


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = ap.parse_args()
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name in args.workload or list(WORKLOADS):
            workload = WORKLOADS[name]
            entries = {}
            for variant in range(VARIANTS):
                ep_dir = os.path.join(scratch, f"{name}-{variant}")
                record, series = run_episode(name, variant, ep_dir, False, timeout=170.0)
                if not record["ok"] or series is None:
                    sys.exit(f"{name} variant {variant}: {record.get('error', 'no series')}")
                sha, rows, problems = check_series(workload, series, None)
                if problems:
                    sys.exit(f"{name} variant {variant}: {'; '.join(problems)}")
                entries[str(variant)] = {
                    "sha256": sha,
                    "rows": reference_rows(rows, workload.steps),
                }
                print(f"{name} variant {variant}: {sha} ({record['wall_s']:.2f} s)")
            stored[name] = entries
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
