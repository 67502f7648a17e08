"""INI-style run configuration: parsing, validation, canonical echo.

Sections and keys are fixed, and listed once, in _SECTIONS; anything
unrecognized is an error rather than a silently ignored typo. parse ->
print -> parse is a fixed point (floats are emitted with shortest
round-trip repr, preset strings are kept verbatim, and a value that
would not read back as itself is refused).
"""

from __future__ import annotations

import configparser
import io
import math
import os
import re
from dataclasses import dataclass
from functools import cache

from .constitutive import ModelParams, validate_params
from .errors import ConfigError
from .grid import ScalarField, build_grid
from .presets import build_scalar, build_vector

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
        # the series is written into out_dir, never beside or below it
        name = self.series_name
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ConfigError(
                f"series_name must be a plain file name inside out_dir, got {name!r}"
            )
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
    the grid, the model, the output and the initial data. The horizon
    defaults are those of a config text that sets none."""

    dt: float = 1e-3
    t_end: float = 0.5
    grid: object
    params: ModelParams
    output: OutputSpec = OutputSpec()
    initial: InitialSpec = InitialSpec()


def _floats(raw):
    return tuple(float(tok) for tok in str(raw).split())


def _ints(raw):
    return tuple(int(tok) for tok in str(raw).split())


def _names(raw):
    return tuple(str(raw).split())


def _joined(values):
    return " ".join(map(str, values))


def parse_out_dir(text):
    """An out_dir setting as the run uses it: the word none turns output off."""
    return None if text == "none" else text


def _grid(dim=2, extents=None, cells=None, gamma0_edges=("left",)):
    """The [grid] section's grid; the box and cell defaults follow dim."""
    if dim not in (2, 3):
        raise ConfigError(f"grid must be 2D or 3D, got dim = {dim}")
    return build_grid(
        dim,
        (1.0,) * dim if extents is None else extents,
        (64,) * dim if cells is None else cells,
        gamma0_edges,
    )


def _params(**values):
    params = ModelParams(**values)
    validate_params(params)
    return params


def _key(name, parse=float, show=str, attr=None):
    """One INI key: (key, the attribute it sets, read, print)."""
    return name, attr or name, parse, show


# Every setting once: per INI section, the SimConfig field its object
# fills ("" for SimConfig's own fields), the builder of that object and
# the keys. Each default is that of the dataclass the attribute belongs
# to ([grid]'s: _grid's). Sections are read and printed in this order.
_SECTIONS = {
    "grid": ("grid", _grid, (
        _key("dim", int),
        _key("extents", _floats, _joined),
        _key("cells", _ints, _joined),
        _key("gamma0", _names, lambda edges: _joined(sorted(edges)), "gamma0_edges"),
    )),
    "model": ("params", _params, (
        *map(_key, ("nu", "b", "u_star", "delta0", "eps", "mu", "k1", "k2")),
        *map(_key, ("c_d", "c_d_prime", "v_max", "kappa")),
        _key("alpha", attr="alpha_exp"),
        _key("gamma", attr="gamma_exp"),
        _key("beta_reg_lambda"),
    )),
    "time": ("", None, (_key("t_end"), _key("dt"))),
    "coupling": ("", None, (
        _key("picard_tol"),
        _key("picard_abs_floor"),
        _key("picard_max", int),
        _key("picard_min_iters", int),
    )),
    "output": ("output", OutputSpec, (
        _key("out_dir", parse_out_dir, lambda d: "none" if d is None else d),
        _key("snapshot_every", int),
        _key("series_name", str),
        _key("snapshot_fields", _names, _joined),
    )),
    "initial": ("initial", InitialSpec, (
        *(_key(name, str) for name in ("u", "w", "v", "g")),
        _key("seed", int),
    )),
}

# what configparser (comments start at # or ; after whitespace, values
# are stripped) and a text-mode file read (lines end at \n or \r) would
# not give back
_UNREADABLE = re.compile(r"^\s|\s$|[\n\r]|(^|\s)[#;]")


def _read_section(cp, name, keys):
    """The keys a section sets, converted, as {attribute: value}."""
    sec = cp[name] if cp.has_section(name) else {}
    values = {}
    for key, attr, parse, _ in keys:
        if key in sec:
            try:
                values[attr] = parse(sec[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {sec[key]!r} for {key}: {exc}") from None
    unknown = set(sec) - {key for key, *_ in keys}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{name}]")
    return values


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

    if cp.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"a [DEFAULT] section is not allowed (keys {sorted(cp.defaults())})")
    extra = set(cp.sections()) - set(_SECTIONS)
    if extra:
        raise ConfigError(f"unknown config section(s) {sorted(extra)}")

    fields = {}
    for name, (field, build, keys) in _SECTIONS.items():
        values = _read_section(cp, name, keys)
        if field:
            fields[field] = build(**values)
        else:
            fields.update(values)
    return SimConfig(**fields)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config(text)


def print_config(cfg):
    """Canonical text form; parse(print_config(parse(text))) is stable.

    A value that would not read back as itself, such as text with a
    newline, edge whitespace or a comment mark after a space, is a
    ConfigError naming its key.
    """
    out = io.StringIO()
    for name, (field, _, keys) in _SECTIONS.items():
        owner = getattr(cfg, field) if field else cfg
        out.write(f"[{name}]\n")
        for key, attr, _, show in keys:
            text = show(getattr(owner, attr))
            if _UNREADABLE.search(text):
                raise ConfigError(
                    f"[{name}] {key} = {text!r} would not read back as itself "
                    f"from the printed config"
                )
            out.write(f"{key} = {text}\n")
        out.write("\n")
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
