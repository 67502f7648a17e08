"""INI-style run configuration: parsing, validation, canonical echo.

Sections and keys are fixed; anything unrecognized is an error rather
than a silently ignored typo. parse -> print -> parse is a fixed point
(floats are emitted with shortest round-trip repr, preset strings are
kept verbatim).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from functools import cache

from .constitutive import ModelParams, validate_params
from .errors import ConfigError
from .grid import ScalarField, build_grid
from .presets import build_scalar, build_vector

_MODEL_KEYS = {
    "nu": "nu",
    "b": "b",
    "u_star": "u_star",
    "delta0": "delta0",
    "eps": "eps",
    "mu": "mu",
    "k1": "k1",
    "k2": "k2",
    "c_d": "c_d",
    "c_d_prime": "c_d_prime",
    "v_max": "v_max",
    "kappa": "kappa",
    "alpha": "alpha_exp",
    "gamma": "gamma_exp",
    "beta_reg_lambda": "beta_reg_lambda",
}

_SNAPSHOT_FIELDS = ("u", "w", "v", "P", "obstacle")


@dataclass(frozen=True)
class OutputSpec:
    out_dir: str | None = "out"
    snapshot_every: int = 100
    series_name: str = "series.csv"
    snapshot_fields: tuple = ("u", "w", "v", "P")

    def __post_init__(self):
        # 0 disables field snapshots; the series file is always written
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        bad = [f for f in self.snapshot_fields if f not in _SNAPSHOT_FIELDS]
        if bad:
            raise ConfigError(
                f"unknown snapshot field(s) {bad}; valid: {list(_SNAPSHOT_FIELDS)}"
            )


@dataclass(frozen=True)
class InitialSpec:
    u: str = "uniform value=0.2"
    w: str = "uniform value=1.0"
    v: str = "zero"
    g: str = "zero"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CouplingConfig:
    """Time step, horizon and the settling rule of the Picard sweep."""

    dt: float
    t_end: float
    picard_tol: float = 1e-9
    picard_abs_floor: float = 1e-13
    picard_max: int = 40
    picard_min_iters: int = 1

    def __post_init__(self):
        # nan and inf slip past plain sign checks and fail the run later
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ConfigError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigError(
                f"t_end / dt must be finite, got {self.t_end} / {self.dt}; dt is too small"
            )
        if not 0 < self.picard_tol < math.inf:
            raise ConfigError(f"picard_tol must be positive and finite, got {self.picard_tol}")
        if not 0 <= self.picard_abs_floor < math.inf:
            raise ConfigError(
                f"picard_abs_floor must be nonnegative and finite, got {self.picard_abs_floor}"
            )
        if self.picard_max < 1 or self.picard_min_iters < 1:
            raise ConfigError("picard iteration counts must be >= 1")
        if self.picard_min_iters > self.picard_max:
            raise ConfigError("picard_min_iters exceeds picard_max")


@dataclass(frozen=True, kw_only=True)
class SimConfig(CouplingConfig):
    """A whole run: the coupling settings, checked on construction, plus
    the grid, the model, the output and the initial data."""

    grid: object
    params: ModelParams
    output: OutputSpec = OutputSpec()
    initial: InitialSpec = InitialSpec()


def _get(section, key, conv, default, used):
    used.add(key)
    if key not in section:
        return default
    raw = section[key]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {raw!r} for {key}: {exc}") from None


def _floats(raw):
    return tuple(float(tok) for tok in str(raw).split())


def _ints(raw):
    return tuple(int(tok) for tok in str(raw).split())


def _names(raw):
    return tuple(str(raw).split())


def parse_out_dir(text):
    """An out_dir setting as the run uses it: the word none turns output off."""
    return None if text == "none" else text


def parse_config(text):
    """Parse configuration text into a validated SimConfig."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    known_sections = {"grid", "model", "time", "coupling", "output", "initial"}
    extra = set(cp.sections()) - known_sections
    if extra:
        raise ConfigError(f"unknown config section(s) {sorted(extra)}")

    def section(name):
        return cp[name] if cp.has_section(name) else {}

    def check_leftovers(name, used):
        sec = section(name)
        unknown = set(sec.keys()) - used
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{name}]")

    used = set()
    sec = section("grid")
    dim = _get(sec, "dim", int, 2, used)
    extents = _get(sec, "extents", _floats, tuple([1.0] * dim), used)
    cells = _get(sec, "cells", _ints, tuple([64] * dim), used)
    gamma0 = _get(sec, "gamma0", _names, ("left",), used)
    check_leftovers("grid", used)
    grid = build_grid(dim, extents, cells, gamma0)

    used = set()
    sec = section("model")
    kwargs = {}
    defaults = ModelParams()
    for key, attr in _MODEL_KEYS.items():
        kwargs[attr] = _get(sec, key, float, getattr(defaults, attr), used)
    check_leftovers("model", used)
    params = ModelParams(**kwargs)
    validate_params(params)

    used = set()
    sec = section("time")
    t_end = _get(sec, "t_end", float, 0.5, used)
    dt = _get(sec, "dt", float, 1e-3, used)
    check_leftovers("time", used)

    used = set()
    sec = section("coupling")
    picard_tol = _get(sec, "picard_tol", float, 1e-9, used)
    picard_abs_floor = _get(sec, "picard_abs_floor", float, 1e-13, used)
    picard_max = _get(sec, "picard_max", int, 40, used)
    picard_min_iters = _get(sec, "picard_min_iters", int, 1, used)
    check_leftovers("coupling", used)

    used = set()
    sec = section("output")
    out_dir = parse_out_dir(_get(sec, "out_dir", str, "out", used))
    snapshot_every = _get(sec, "snapshot_every", int, 100, used)
    series_name = _get(sec, "series_name", str, "series.csv", used)
    snap_fields = _get(sec, "snapshot_fields", _names, ("u", "w", "v", "P"), used)
    check_leftovers("output", used)
    output = OutputSpec(
        out_dir=out_dir,
        snapshot_every=snapshot_every,
        series_name=series_name,
        snapshot_fields=tuple(snap_fields),
    )

    used = set()
    sec = section("initial")
    initial = InitialSpec(
        u=_get(sec, "u", str, InitialSpec.u, used),
        w=_get(sec, "w", str, InitialSpec.w, used),
        v=_get(sec, "v", str, InitialSpec.v, used),
        g=_get(sec, "g", str, InitialSpec.g, used),
        seed=_get(sec, "seed", int, 0, used),
    )
    check_leftovers("initial", used)

    return SimConfig(
        grid=grid,
        params=params,
        t_end=t_end,
        dt=dt,
        picard_tol=picard_tol,
        picard_abs_floor=picard_abs_floor,
        picard_max=picard_max,
        picard_min_iters=picard_min_iters,
        output=output,
        initial=initial,
    )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config(text)


def print_config(cfg):
    """Canonical text form; parse(print_config(parse(text))) is stable."""
    out = io.StringIO()
    g = cfg.grid
    p = cfg.params

    def emit(section, pairs):
        out.write(f"[{section}]\n")
        for key, val in pairs:
            out.write(f"{key} = {val}\n")
        out.write("\n")

    emit(
        "grid",
        [
            ("dim", g.dim),
            ("extents", " ".join(repr(x) for x in g.extents)),
            ("cells", " ".join(str(n) for n in g.cells)),
            ("gamma0", " ".join(sorted(g.gamma0_edges))),
        ],
    )
    emit("model", [(key, repr(getattr(p, attr))) for key, attr in _MODEL_KEYS.items()])
    emit("time", [("t_end", repr(cfg.t_end)), ("dt", repr(cfg.dt))])
    emit(
        "coupling",
        [
            ("picard_tol", repr(cfg.picard_tol)),
            ("picard_abs_floor", repr(cfg.picard_abs_floor)),
            ("picard_max", cfg.picard_max),
            ("picard_min_iters", cfg.picard_min_iters),
        ],
    )
    emit(
        "output",
        [
            ("out_dir", cfg.output.out_dir if cfg.output.out_dir is not None else "none"),
            ("snapshot_every", cfg.output.snapshot_every),
            ("series_name", cfg.output.series_name),
            ("snapshot_fields", " ".join(cfg.output.snapshot_fields)),
        ],
    )
    emit(
        "initial",
        [
            ("u", cfg.initial.u),
            ("w", cfg.initial.w),
            ("v", cfg.initial.v),
            ("g", cfg.initial.g),
            ("seed", cfg.initial.seed),
        ],
    )
    return out.getvalue()


def num_steps(cfg):
    return max(0, int(math.floor(cfg.t_end / cfg.dt + 1e-9)))


def initial_state(cfg):
    """Materialize and validate the starting fields.

    Returns a dict with u, w, v, P and the forcing g. The random presets
    draw in turn from one generator seeded from the config, so identical
    configs produce identical fields; it is built only when one draws.
    """
    import numpy as np

    from .coupling import check_initial_data

    grid = cfg.grid
    rng = cache(lambda: np.random.default_rng(cfg.initial.seed))
    u0 = build_scalar(cfg.initial.u, grid, rng, 0.0, cfg.params.u_star, "biomass")
    w0 = build_scalar(cfg.initial.w, grid, rng, 0.0, 1.0, "nutrient")
    v0 = build_vector(cfg.initial.v, grid, rng, "velocity")
    g = build_vector(cfg.initial.g, grid, rng, "forcing")
    u0, w0, v0 = check_initial_data(u0, w0, v0, cfg.params)
    return {
        "u": u0,
        "w": w0,
        "v": v0,
        "P": ScalarField.zeros(grid),
        "g": g,
    }
