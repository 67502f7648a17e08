"""The names perfbench/tracing.py traces still exist in the package.

The tracer skips a layer whose function is missing and reads report
fields with a default of 0, so a rename in the package alone would
leave its metric reading 0 on working code. These tests read the
tracer's table without importing it as a module, so they write
nothing under perfbench/.
"""

import dataclasses
import importlib
import types
from pathlib import Path

import biofilmflow
from biofilmflow.biomass import BiomassStepReport
from biofilmflow.diagnostics import StepDiagnostics
from biofilmflow.flow import FlowStepReport

TRACING = Path(biofilmflow.__file__).resolve().parents[2] / "perfbench" / "tracing.py"
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
