"""Per-layer tracing of the solver from outside.

The tracer replaces functions of the biofilmflow modules with timing
wrappers, so the solver itself stays untouched. Each wrapper is a span:
a layer's self time is its duration minus the time of the spans nested
inside it. Counters are taken from the values the wrapped functions
return, so they count every call, including the Picard rounds that
StepDiagnostics does not keep.

A layer whose function no longer exists is skipped; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter


def _flow_counts(counts, out):
    report = out[2]
    counts["flow.dykstra_sweeps"] += getattr(report, "dykstra_sweeps", 0)
    counts["flow.predict_iters"] += getattr(report, "predict_iters", 0)


def _biomass_counts(counts, out):
    counts["biomass.newton_iters"] += getattr(out[1], "newton_iters", 0)


def _cg_counts(counts, out):
    counts["nutrient.cg_iters"] += out[1]


def _picard_counts(counts, out):
    counts["coupling.picard_rounds"] += len(getattr(out[1], "picard_residuals", ()))


# (module, attribute, span name, counter hook, patch every binding).
# A span name of None only counts: the time stays with the caller.
# With the last flag set, every biofilmflow module that imported the same
# function object gets the wrapper; splu is bound in two modules that are
# traced as separate layers, so it is patched where it is named only.
LAYERS = (
    ("biofilmflow.coupling", "picard_step", "coupling.picard_step", _picard_counts, True),
    ("biofilmflow.coupling", "make_stepper", "coupling.make_stepper", None, True),
    ("biofilmflow.config", "initial_state", "config.initial_state", None, True),
    ("biofilmflow.flow", "make_flow_workspace", "flow.make_flow_workspace", None, True),
    ("biofilmflow.flow", "poincare_constant", "flow.poincare_constant", None, True),
    ("biofilmflow.flow", "splu", "flow.lu_factor", None, False),
    ("biofilmflow.flow", "step_flow", "flow.step_flow", _flow_counts, True),
    ("biofilmflow.flow", "predict_velocity", "flow.predict_velocity", None, True),
    ("biofilmflow.flow", "project_K", "flow.project_K", None, True),
    ("biofilmflow.operators", "mac_advection", "operators.mac_advection", None, True),
    ("biofilmflow.operators", "poisson_neumann", "operators.poisson_neumann", None, True),
    ("biofilmflow.nutrient", "step_nutrient", "nutrient.step_nutrient", None, True),
    ("biofilmflow.nutrient", "_solve_spd", None, _cg_counts, True),
    ("biofilmflow.biomass", "step_biomass", "biomass.step_biomass", _biomass_counts, True),
    ("biofilmflow.biomass", "splu", "biomass.lu_factor", None, False),
    ("biofilmflow.mollify", "mollify_array", "mollify.mollify_array", None, True),
    ("biofilmflow.diagnostics", "invariant_report", "diagnostics.invariant_report", None, True),
    ("biofilmflow.output", "write_snapshot", "output.write_snapshot", None, True),
    ("biofilmflow.output", "SeriesWriter.write_row", "output.write_row", None, False),
)

# Self time (s) is reported for every span; call counts for these.
CALL_COUNTS = {
    "flow.project_K": "flow.project_K_calls",
    "flow.lu_factor": "flow.lu_factorizations",
    "biomass.lu_factor": "biomass.lu_factorizations",
    "mollify.mollify_array": "mollify.mollify_array_calls",
    "operators.poisson_neumann": "operators.poisson_neumann_calls",
}
COUNTERS = (
    "flow.dykstra_sweeps",
    "flow.predict_iters",
    "biomass.newton_iters",
    "nutrient.cg_iters",
    "coupling.picard_rounds",
)


class Tracer:
    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._open = []  # time covered by child spans, one entry per open span

    def wrap(self, name, fn, count=None):
        open_spans = self._open

        if name is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                count(self.counts, out)
                return out

            return counted

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - open_spans.pop()
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
            if count is not None:
                count(self.counts, out)
            return out

        return span

    def install(self):
        """Wrap every layer of the biofilmflow package."""
        for modname, _, _, _, _ in LAYERS:
            try:
                importlib.import_module(modname)
            except ImportError:
                pass
        modules = [
            m for n, m in sys.modules.items() if n.split(".")[0] == "biofilmflow"
        ]
        for modname, attr, name, count, everywhere in LAYERS:
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            wrapped = self.wrap(name, fn, count)
            setattr(owner, leaf, wrapped)
            if everywhere:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def metrics(self):
        out = {f"{name}_s": 0.0 for _, _, name, _, _ in LAYERS if name is not None}
        out.update({f"{name}_s": t for name, t in self.self_s.items()})
        out.update({metric: self.calls[name] for name, metric in CALL_COUNTS.items()})
        out.update({name: self.counts[name] for name in COUNTERS})
        out["flow.sweeps_per_projection"] = out["flow.dykstra_sweeps"] / max(
            out["flow.project_K_calls"], 1
        )
        out["biomass.newton_per_factorization"] = out["biomass.newton_iters"] / max(
            out["biomass.lu_factorizations"], 1
        )
        return out


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_seconds(importtime_log, module):
    """Cumulative import time of one module from ``python -X importtime``."""
    for line in importtime_log.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) == module:
            return int(m.group(1)) / 1e6
    return 0.0
