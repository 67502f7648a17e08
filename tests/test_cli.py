"""End-to-end command line checks, via subprocess and in process."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biofilmflow
from biofilmflow import coupling
from biofilmflow.cli import main

CONFIG = """
[grid]
cells = 8 8
gamma0 = left

[time]
t_end = 0.004
dt = 1e-3

[output]
out_dir = {out_dir}
snapshot_every = {every}

[initial]
u = gaussian-blob amplitude=0.3 width=0.25
w = uniform value=0.9
g = swirl amplitude=2.0
"""


def _cli(*args, cwd=None, threads=None):
    """Run the CLI on the copy of the package this module imported.

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
    return subprocess.run(
        [sys.executable, "-m", "biofilmflow.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def _write_cfg(tmp_path, **fmt):
    fmt.setdefault("out_dir", str(tmp_path / "out"))
    fmt.setdefault("every", 0)
    path = tmp_path / "run.ini"
    path.write_text(CONFIG.format(**fmt))
    return path


def test_print_config_is_canonical_fixed_point(tmp_path):
    cfg = _write_cfg(tmp_path)
    first = _cli("--config", str(cfg), "--print-config")
    assert first.returncode == 0, first.stderr
    echoed = tmp_path / "echo.ini"
    echoed.write_text(first.stdout)
    second = _cli("--config", str(echoed), "--print-config")
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout


def test_validate_only_reports_and_exits_zero(tmp_path):
    cfg = _write_cfg(tmp_path)
    res = _cli("--config", str(cfg), "--validate-only")
    assert res.returncode == 0, res.stderr
    assert "config ok" in res.stdout
    assert "8x8" in res.stdout
    assert not (tmp_path / "out").exists()


def test_bad_config_exits_two(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\ncelgs = 8 8\n")
    res = _cli("--config", str(path))
    assert res.returncode == 2
    assert "config error" in res.stderr

    path.write_text("[model]\nmu = 0.9\n")
    res = _cli("--config", str(path), "--validate-only")
    assert res.returncode == 2
    assert "mu" in res.stderr


@pytest.mark.parametrize(
    "text",
    [
        "picard_max = 0",
        "picard_min_iters = 5\npicard_max = 3",
        "picard_abs_floor = nan",
        "picard_abs_floor = -1",
    ],
)
def test_validate_only_checks_coupling_settings(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text(f"[grid]\ncells = 8 8\n\n[coupling]\n{text}\n")
    assert main(["--config", str(path), "--validate-only"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def _unreadable_input(tmp_path, case):
    """Set up one case of outside input that cannot be read; returns the
    CLI arguments that meet it and the path the error must name."""
    ini = tmp_path / "run.ini"
    field = tmp_path / "u.npy"
    grid = "[grid]\ncells = 8 8\n\n"
    if case == "config missing":
        ini = tmp_path / "missing.ini"
    elif case == "config is a directory":
        ini = tmp_path
    elif case == "config not utf-8":
        ini.write_bytes(b"[grid]\ncells = 8 8 \xff\n")
    elif case == "out_dir under a file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        ini.write_text(grid + f"[output]\nout_dir = {out}\n")
        return ["--config", str(ini), "--steps", "1"], out
    else:
        if case == "preset empty":
            field.write_bytes(b"")
        elif case == "preset pickled":
            np.save(field, np.array([{}], dtype=object), allow_pickle=True)
        elif case == "preset is an npz":
            field = tmp_path / "u.npz"
            np.savez(field, u=np.zeros((8, 8)))
        ini.write_text(grid + f"[initial]\nu = file path={field}\n")
        return ["--config", str(ini), "--validate-only"], field
    return ["--config", str(ini), "--validate-only"], ini


@pytest.mark.parametrize(
    "case",
    [
        "config missing",
        "config is a directory",
        "config not utf-8",
        "preset missing",
        "preset empty",
        "preset pickled",
        "preset is an npz",
        "out_dir under a file",
    ],
)
def test_unreadable_input_exits_two_without_traceback(tmp_path, case):
    args, named = _unreadable_input(tmp_path, case)
    res = _cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:")
    assert str(named) in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_speeds_exit_three_at_once(tmp_path, capsys):
    # the predictor stays finite (about 4e304) but the projection's squared
    # speeds overflow; the run must stop there, not spin through the
    # projection's iteration budget
    path = tmp_path / "huge.ini"
    path.write_text(
        "[grid]\ncells = 8 4\n\n[time]\ndt = 0.04\n\n"
        "[initial]\ng = constant gx=4.2 gy=1e306\n"
    )
    assert main(["--config", str(path), "--steps", "1", "--out-dir", "none"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_invariant_violation_exits_four(tmp_path, capsys, monkeypatch):
    # the real check against a zero speed bound, which the swirl-driven
    # flow exceeds after its first step
    check = coupling.invariant_report

    def at_rest(state, params, obstacle, feas_tol):
        return check(state, params, obstacle=np.zeros_like(obstacle), feas_tol=feas_tol)

    monkeypatch.setattr(coupling, "invariant_report", at_rest)
    cfg = _write_cfg(tmp_path)
    assert main(["--config", str(cfg), "--steps", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: invariant violated after step 1: speed_constraint")
    # the failed step's row was written before the check
    assert len((tmp_path / "out" / "series.csv").read_text().splitlines()) == 2


def test_infeasible_initial_data_exits_two(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[initial]\nu = uniform value=2.0\n")
    res = _cli("--config", str(path), "--validate-only")
    assert res.returncode == 2
    assert "outside" in res.stderr


def test_short_run_writes_series_and_summary(tmp_path):
    cfg = _write_cfg(tmp_path, every=2)
    res = _cli("--config", str(cfg), "--steps", "4")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("done: 4 steps")
    out = tmp_path / "out"
    lines = (out / "series.csv").read_text().splitlines()
    assert len(lines) == 5  # header + one row per step
    assert lines[1].split(",")[0] == "1"
    # snapshots land on multiples of snapshot_every only
    names = sorted(p.name for p in out.glob("u_*.vtk"))
    assert names == ["u_000002.vtk", "u_000004.vtk"]
    assert (out / "v_000004.vtk").exists()


def test_zero_steps_echo(tmp_path):
    cfg = _write_cfg(tmp_path)
    res = _cli("--config", str(cfg), "--steps", "0")
    assert res.returncode == 0, res.stderr
    assert "nothing to solve" in res.stdout


def test_steps_too_large_for_a_float_is_a_config_error(tmp_path):
    # the step count times dt must be a finite end time; an integer too
    # large to convert to a float used to escape as an OverflowError
    cfg = _write_cfg(tmp_path)
    res = _cli("--config", str(cfg), "--steps", "1" + "0" * 400, "--validate-only")
    assert res.returncode == 2
    assert "--steps" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("extent", ["nan", "1e200", "1e-300", "inf"])
def test_extreme_extents_are_a_config_error(tmp_path, extent):
    # a spacing whose 1/h^2 is not a finite positive float would break the
    # mollifier, the sine eigenvalues or the Laplacian: refuse it up front
    path = tmp_path / "run.ini"
    path.write_text(f"[grid]\ncells = 8 8\nextents = {extent} 1.0\n")
    res = _cli("--config", str(path), "--validate-only")
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: extents")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("mode", [["--validate-only"], ["--out-dir", "none"]])
def test_dt_too_small_to_count_steps_is_a_config_error(tmp_path, mode):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\ncells = 8 8\n\n[time]\ndt = 1e-320\nt_end = 1\n")
    res = _cli("--config", str(path), *mode)
    assert res.returncode == 2, res.stderr
    assert "t_end / dt" in res.stderr
    assert "Traceback" not in res.stderr


def test_out_dir_override_beats_config(tmp_path):
    cfg = _write_cfg(tmp_path, out_dir="none")
    target = tmp_path / "elsewhere"
    res = _cli("--config", str(cfg), "--steps", "1", "--out-dir", str(target))
    assert res.returncode == 0, res.stderr
    assert (target / "series.csv").exists()


def test_out_dir_none_on_cli_disables_output(tmp_path):
    # same word, same meaning as out_dir = none in the INI file
    cfg = _write_cfg(tmp_path)
    res = _cli("--config", str(cfg), "--steps", "1", "--out-dir", "none", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("done: 1 steps")
    assert not (tmp_path / "none").exists()
    assert not (tmp_path / "out").exists()


def test_threads_flag_does_not_change_results(tmp_path):
    cfg1 = _write_cfg(tmp_path, out_dir=str(tmp_path / "t1"))
    res = _cli("--config", str(cfg1), "--steps", "3", threads=1)
    assert res.returncode == 0, res.stderr
    cfg2 = _write_cfg(tmp_path, out_dir=str(tmp_path / "t4"))
    res = _cli("--config", str(cfg2), "--steps", "3", threads=4)
    assert res.returncode == 0, res.stderr
    b1 = (tmp_path / "t1" / "series.csv").read_bytes()
    b2 = (tmp_path / "t4" / "series.csv").read_bytes()
    assert b1 == b2


# Small random configurations: each is plausible, except that one value may
# be replaced by a bad word. The CLI must end every run with a documented
# exit code, never a traceback.
_BAD_WORDS = ("0", "-1", "nan", "inf", "-inf", "1e400", "abc", "")


def _num(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


_MODEL = {
    "nu": _num(1e-3, 10.0),
    "mu": _num(0.01, 0.3),
    "delta0": _num(0.3, 0.9),
    "eps": _num(0.01, 0.5),
    "v_max": _num(0.1, 10.0),
    "k1": _num(0.1, 100.0),
    "alpha": _num(1.5, 4.0),
    "beta_reg_lambda": _num(1e-4, 0.1),
}

_SCALAR_PRESETS = st.one_of(
    st.builds("uniform value={}".format, _num(0.0, 1.0)),
    st.builds("gaussian-blob amplitude={} width={}".format, _num(0.0, 1.0), _num(0.05, 0.5)),
    st.builds("random-smooth amplitude={} floor={}".format, _num(0.0, 0.5), _num(0.0, 0.5)),
    st.builds("stripe axis={} inside={}".format, st.integers(0, 1), _num(0.0, 1.0)),
)

_VECTOR_PRESETS = st.one_of(
    st.just("zero"),
    st.builds("swirl amplitude={}".format, _num(-50.0, 50.0)),
    st.builds("constant gx={} gy={}".format, _num(-5.0, 5.0), _num(-5.0, 5.0)),
)


@st.composite
def _configs(draw):
    dim = draw(st.sampled_from((2, 2, 3)))
    n_max = 12 if dim == 2 else 5
    values = {
        ("grid", "dim"): str(dim),
        ("grid", "cells"): " ".join(str(draw(st.integers(4, n_max))) for _ in range(dim)),
        ("grid", "gamma0"): "left",
        ("time", "dt"): draw(_num(1e-5, 0.05)),
        ("time", "t_end"): "1.0",
        ("initial", "u"): draw(_SCALAR_PRESETS),
        ("initial", "w"): draw(_SCALAR_PRESETS),
        ("initial", "v"): draw(_VECTOR_PRESETS),
        ("initial", "g"): draw(_VECTOR_PRESETS),
        ("initial", "seed"): str(draw(st.integers(0, 99))),
    }
    for key in draw(st.sets(st.sampled_from(sorted(_MODEL)), max_size=3)):
        values[("model", key)] = draw(_MODEL[key])
    if draw(st.booleans()):
        slot = draw(st.sampled_from(sorted(values)))
        bad = draw(st.sampled_from(_BAD_WORDS))
        old = values[slot]
        # a preset keeps its name and gets the bad word as one value
        values[slot] = old.rsplit("=", 1)[0] + "=" + bad if "=" in old else bad
    lines = []
    for section in ("grid", "model", "time", "initial"):
        lines.append(f"[{section}]")
        lines += [f"{key} = {val}" for (sec, key), val in sorted(values.items()) if sec == section]
    return "\n".join(lines) + "\n", draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_configs())
def test_random_configs_end_in_a_documented_exit_code(case):
    text, steps = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = main(["--config", path, "--steps", str(steps), "--out-dir", "none"])
    assert code in (0, 2, 3, 4)
