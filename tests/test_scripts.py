"""Smoke tests for the experiment scripts under scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import biofilmflow

SRC = Path(biofilmflow.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


def _script(name, *args):
    """Run a script against the copy of the package this module imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_solid_block_runs_on_a_small_grid(tmp_path):
    # a 16-cell grid leaves a 4-cell block, narrower than the core inset
    # that suits 64 cells
    out = _script("solid_block.py", "--steps", "2", "--cells", "16", "--out-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    steps = [line for line in out.stdout.splitlines() if line.startswith("step")]
    assert len(steps) == 2
    rounds = r"\[\d+(, \d+)*\]"
    for line in steps:
        for label in ("projection iters per round", "newton per round", "krylov per round"):
            assert re.search(f"{label} {rounds}", line), line
    assert (tmp_path / "series.csv").is_file()

    def total(label):
        counts = (re.search(label + r" \[(.*?)\]", line).group(1) for line in steps)
        return sum(int(n) for text in counts for n in text.split(", "))

    # the last line totals every round's counts over the run
    assert out.stdout.splitlines()[-1] == (
        f"newton {total('newton per round')} krylov {total('krylov per round')}"
        f" projection {total('projection iters per round')}"
    )


def test_solid_block_refuses_a_grid_without_a_block(tmp_path):
    out = _script("solid_block.py", "--steps", "1", "--cells", "3", "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert "--cells must be at least 4" in out.stderr
    assert "Traceback" not in out.stderr


def test_random_ensemble_runs_one_member():
    out = _script("random_ensemble.py", "--runs", "1", "--cells", "16", "--steps", "2")
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split()[0] == "seed" and header.split()[-1] == "picard"
    assert len(rows) == 1
    assert len(rows[0].split()) == len(header.split())


def test_mu_refinement_compares_two_mus():
    out = _script("mu_refinement.py", "--mus", "0.07", "0.035", "--cells", "16", "--steps", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == ["mu = 0.07 ...", "mu = 0.035 ..."]
    gap = re.fullmatch(r"\s*\|\| u_0\.035 - u_0\.07 \|\|_L2\(Q\) = (\S+)", lines[-1])
    assert gap and 0.0 <= float(gap.group(1)) < 1.0, lines[-1]
