"""Built-in initial fields, parsed from short preset strings.

A preset string is a name followed by key=value pairs, e.g.

    u = gaussian-blob amplitude=0.6 width=0.12 cx=0.4 cy=0.55
    w = uniform value=1.0
    v = zero
    g = swirl amplitude=20

Scalar presets: uniform, gaussian-blob, stripe, random-smooth, file.
Vector presets: zero, constant, swirl, file. Unknown names or keys are
rejected outright so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import ScalarField, VectorField
from .mollify import build_kernel, correlation_stencil, mollify_array


def _parse_tokens(spec, what):
    parts = str(spec).split()
    if not parts:
        raise ConfigError(f"empty preset string for {what}")
    name = parts[0]
    kv = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed token {tok!r} in {what} preset (expected key=value)")
        key, val = tok.split("=", 1)
        if key in kv:
            raise ConfigError(f"duplicate key {key!r} in {what} preset")
        kv[key] = val
    return name, kv


def _take(kv, key, default=None, conv=float):
    if key in kv:
        raw = kv.pop(key)
        try:
            val = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value {raw!r} for preset key {key!r}: {exc}") from None
        if conv is float and not np.isfinite(val):
            raise ConfigError(f"non-finite value {raw!r} for preset key {key!r}")
        return val
    if default is None:
        raise ConfigError(f"preset is missing required key {key!r}")
    return default


def _reject_leftovers(kv, name, what):
    if kv:
        raise ConfigError(
            f"unknown key(s) {sorted(kv)} for {what} preset {name!r}"
        )


def _load_file(path, what):
    """np.load a preset file, an .npz archive as a dict of its arrays; a
    file it cannot read is a ConfigError."""
    try:
        data = np.load(path)
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                return dict(data)
        return data
    except (OSError, EOFError, ValueError) as exc:
        raise ConfigError(f"cannot load {what} file {path!r}: {exc}") from None


def _centers(grid, kv, prefix="c"):
    names = ("x", "y", "z")[: grid.dim]
    return [
        _take(kv, prefix + n, 0.5 * grid.extents[ax])
        for ax, n in enumerate(names)
    ]


def build_scalar(spec, grid, rng, lo=0.0, hi=np.inf, what="scalar field"):
    """Materialize a scalar preset; values verified to lie in [lo, hi].

    rng: a callable returning the generator that random presets draw from.
    """
    name, kv = _parse_tokens(spec, what)
    if name == "uniform":
        value = _take(kv, "value", 0.0)
        _reject_leftovers(kv, name, what)
        vals = np.full(grid.cells, value)
    elif name == "gaussian-blob":
        amp = _take(kv, "amplitude", 0.5)
        width = _take(kv, "width", 0.1)
        floor = _take(kv, "floor", 0.0)
        centers = _centers(grid, kv)
        _reject_leftovers(kv, name, what)
        if width <= 0:
            raise ConfigError("gaussian-blob width must be positive")
        mesh = grid.center_mesh()
        r2 = sum((m - c) ** 2 for m, c in zip(mesh, centers))
        vals = floor + amp * np.exp(-r2 / (2.0 * width**2))
    elif name == "stripe":
        axis = _take(kv, "axis", 0, conv=int)
        if not 0 <= axis < grid.dim:
            raise ConfigError(f"stripe axis {axis} out of range for dim {grid.dim}")
        lo_c = _take(kv, "lo", 0.25 * grid.extents[axis])
        hi_c = _take(kv, "hi", 0.75 * grid.extents[axis])
        inside = _take(kv, "inside", 0.5)
        outside = _take(kv, "outside", 0.0)
        _reject_leftovers(kv, name, what)
        x = grid.center_mesh()[axis]
        vals = np.where(np.broadcast_to((x >= lo_c) & (x <= hi_c), grid.cells), inside, outside)
    elif name == "random-smooth":
        amp = _take(kv, "amplitude", 0.3)
        floor = _take(kv, "floor", 0.0)
        corr = _take(kv, "corr", 4.0 * max(grid.h))
        _reject_leftovers(kv, name, what)
        if corr <= 0:
            raise ConfigError("random-smooth corr must be positive")
        noise = rng().standard_normal(grid.cells)
        smooth = mollify_array(noise, correlation_stencil(build_kernel(corr, grid), grid.cells))
        span = smooth.max() - smooth.min()
        if span > 0:
            smooth = (smooth - smooth.min()) / span
        else:
            smooth = np.zeros_like(smooth)
        vals = floor + amp * smooth
    elif name == "file":
        path = _take(kv, "path", None, conv=str)
        _reject_leftovers(kv, name, what)
        vals = _load_file(path, what)
        if not isinstance(vals, np.ndarray):
            raise ConfigError(f"field file {path!r} is not a single .npy array")
        if vals.shape != grid.cells:
            raise ConfigError(
                f"field file {path!r} has shape {vals.shape}, grid wants {grid.cells}"
            )
        vals = np.array(vals, dtype=float)
    else:
        raise ConfigError(f"unknown {what} preset {name!r}")
    if vals.min() < lo - 1e-15 or vals.max() > hi + 1e-15:
        raise ConfigError(
            f"{what} preset {name!r} produced values in "
            f"[{vals.min():.6g}, {vals.max():.6g}] outside [{lo:.6g}, {hi:.6g}]"
        )
    return ScalarField(grid, np.clip(vals, lo, min(hi, np.inf)))


def _face_mesh(grid, axis):
    """Coordinate arrays at the face positions of one velocity component."""
    coords = []
    for ax in range(grid.dim):
        if ax == axis:
            c = np.linspace(0.0, grid.extents[ax], grid.cells[ax] + 1)
        else:
            c = grid.cell_centers(ax)
        coords.append(c)
    return np.meshgrid(*coords, indexing="ij")


def build_vector(spec, grid, rng, what="vector field"):
    """Materialize a vector preset; every face value verified finite."""
    field = _vector_preset(spec, grid, what)
    if not all(np.isfinite(c).all() for c in field.comps):
        raise ConfigError(f"{what} preset {spec!r} produced non-finite values")
    return field


def _vector_preset(spec, grid, what):
    name, kv = _parse_tokens(spec, what)
    if name == "zero":
        _reject_leftovers(kv, name, what)
        return VectorField.zeros(grid)
    if name == "constant":
        names = ("x", "y", "z")[: grid.dim]
        vals = [_take(kv, "g" + n, 0.0) for n in names]
        _reject_leftovers(kv, name, what)
        return VectorField(
            grid, tuple(np.full(grid.face_shape(ax), vals[ax]) for ax in range(grid.dim))
        )
    if name == "swirl":
        # rigid rotation about the (cx, cy) axis in the x-y plane
        amp = _take(kv, "amplitude", 1.0)
        centers = _centers(grid, kv)
        _reject_leftovers(kv, name, what)
        comps = []
        for ax in range(grid.dim):
            mesh = _face_mesh(grid, ax)
            if ax == 0:
                comps.append(-amp * (mesh[1] - centers[1]))
            elif ax == 1:
                comps.append(amp * (mesh[0] - centers[0]))
            else:
                comps.append(np.zeros(grid.face_shape(ax)))
        return VectorField(grid, tuple(comps))
    if name == "file":
        path = _take(kv, "path", None, conv=str)
        _reject_leftovers(kv, name, what)
        data = _load_file(path, what)
        keys = [f"v{ax}" for ax in range(grid.dim)]
        missing = [k for k in keys if k not in data]
        if missing:
            raise ConfigError(f"vector file {path!r} lacks component(s) {missing}")
        comps = []
        for ax, k in enumerate(keys):
            c = np.array(data[k], dtype=float)
            if c.shape != grid.face_shape(ax):
                raise ConfigError(
                    f"component {k} in {path!r} has shape {c.shape}, "
                    f"grid wants {grid.face_shape(ax)}"
                )
            comps.append(c)
        return VectorField(grid, tuple(comps))
    raise ConfigError(f"unknown {what} preset {name!r}")
