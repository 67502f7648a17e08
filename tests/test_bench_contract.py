"""The benchmark's drivers still run on the package.

The names perfbench/tracing.py traces still exist: the tracer skips a
layer whose function is missing and reads report fields with a default
of 0, so a rename in the package alone would leave its metric reading 0
on working code. The values it unpacks keep their shape: the
predictor's pass count is its second return value, and so is the
nutrient solve's CG iteration count. And one episode of
each workload, run by run.py's own driver, succeeds and writes a series
that run.py's own check accepts against the stored reference. These
tests execute the perfbench sources from their text with bytecode off,
in this process and in the episode, so they write nothing under
perfbench/.
"""

import dataclasses
import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import stream_field_2d

import biofilmflow
from biofilmflow import nutrient
from biofilmflow import operators as ops
from biofilmflow.biomass import BiomassStepReport
from biofilmflow.constitutive import ModelParams
from biofilmflow.diagnostics import StepDiagnostics
from biofilmflow.flow import FlowStepReport, make_flow_workspace, predict_velocity
from biofilmflow.grid import VectorField, build_grid

PERFBENCH = Path(biofilmflow.__file__).resolve().parents[2] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"
# the sparse LU factorizations are gone from the solver; the
# perfbench-only change drops their layers
GONE = {("biofilmflow.flow", "splu"), ("biofilmflow.biomass", "splu")}


def _tracing():
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def test_every_traced_layer_resolves_to_a_callable():
    missing = []
    for modname, attr, *_ in _tracing().LAYERS:
        if (modname, attr) in GONE:
            continue
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_report_fields_the_tracer_counts_exist():
    for cls, name in (
        (FlowStepReport, "dykstra_sweeps"),
        (BiomassStepReport, "newton_iters"),
        (StepDiagnostics, "picard_residuals"),
    ):
        assert name in {f.name for f in dataclasses.fields(cls)}, f"{cls.__name__}.{name}"


def test_predictor_returns_components_passes_and_viscous_form():
    # a counter of predictor passes reads the second value
    g = build_grid(2, (1.0, 1.0), (8, 6), ("left",))
    ws = make_flow_workspace(g, ModelParams(), 1e-2)
    rng = np.random.default_rng(0)
    force = VectorField(g, tuple(rng.standard_normal(g.face_shape(ax)) for ax in range(g.dim)))
    out = predict_velocity(ws, stream_field_2d(g, rng), force)
    assert isinstance(out, tuple) and len(out) == 3
    comps, passes, viscous = out
    assert [c.shape for c in comps] == [g.face_shape(ax) for ax in range(g.dim)]
    assert isinstance(passes, int) and passes > 1
    assert isinstance(viscous, float) and viscous > 0.0


def test_nutrient_solve_returns_solution_and_cg_iterations():
    # the nutrient CG counter adds up the second value; the solve applies
    # its operator once for the start residual and once per iteration
    rng = np.random.default_rng(2)
    rhs = rng.uniform(0.0, 1.0, (9, 7))
    calls = []

    def apply_op(x):
        calls.append(1)
        return x + 0.5 * ops.scatter_faces([-np.diff(x, axis=ax) for ax in range(x.ndim)])

    out = nutrient._solve_spd(apply_op, rhs, rhs)
    assert isinstance(out, tuple) and len(out) == 2
    x, its = out
    assert isinstance(x, np.ndarray) and x.shape == rhs.shape
    assert isinstance(its, int) and its > 1
    assert its == len(calls) - 1
    assert np.abs(apply_op(x) - rhs).max() <= 2.0 * nutrient.CG_TOL


@pytest.fixture(scope="module")
def run_py():
    # run.py puts perfbench/ on sys.path to import its siblings
    mod = types.ModuleType("perfbench_run")
    mod.__file__ = str(RUN)
    path, no_bytecode = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        exec(compile(RUN.read_text(), str(RUN), "exec"), mod.__dict__)
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = no_bytecode
    return mod


@pytest.mark.parametrize("name", ["demo2d", "block2d", "box3d"])
def test_bench_episode_succeeds_and_matches_reference(run_py, name, tmp_path, monkeypatch):
    # the episode inherits this environment, with run.py's thread caps
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    record, series = run_py.run_episode(name, 0, str(tmp_path), traced=False, timeout=300.0)
    assert record["ok"], record.get("error")
    ref = run_py.load_reference(name, 0)
    assert ref is not None
    _, _, problems = run_py.check_series(run_py.WORKLOADS[name], series, ref)
    assert problems == []
