"""CSV series format and legacy-VTK snapshot files.

The VTK checks use a deliberately strict line-level parser rather than a
library reader: the on-disk layout (header order, F-ordered cell data,
three-component vectors) is part of the contract.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from biofilmflow.diagnostics import CSV_COLUMNS, StepDiagnostics
from biofilmflow.grid import ScalarField, VectorField, build_grid
from biofilmflow.output import SeriesWriter, _write_cell_vectors, write_snapshot


def _fake_diag(step=3, **overrides):
    vals = dict(
        step=step,
        t=step * 0.1 + 0.2,  # not exactly representable
        picard_iters=4,
        u_min=-1.2345678901234567e-9,
        u_max=0.9999999999999999,
        w_min=1.0 / 3.0,
        w_max=1.0,
        kinetic_energy=math.pi,
        phi_u=2.5e-4,
        nutrient_l2=0.70710678118654746,
        max_constraint_excess=5e-17,
        max_div=-0.0,
        mass_u=0.2,
        mass_w=0.95,
        clamp_u=0.0,
        clamp_w=1e-300,
    )
    vals.update(overrides)
    return StepDiagnostics(**vals)


def test_series_header_matches_schema(tmp_path):
    path = tmp_path / "series.csv"
    with SeriesWriter(path) as w:
        w.write_row(_fake_diag())
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(CSV_COLUMNS) == 16


def test_series_floats_round_trip_exactly(tmp_path):
    diag = _fake_diag()
    path = tmp_path / "series.csv"
    with SeriesWriter(path) as w:
        w.write_row(diag)
    row = path.read_text().splitlines()[1].split(",")
    for col, text in zip(CSV_COLUMNS, row):
        ref = getattr(diag, col)
        if col in ("step", "picard_iters"):
            assert text == str(ref)
        else:
            # 17 significant digits reproduce the double bit for bit
            assert float(text) == ref


def test_series_rerun_is_byte_identical(tmp_path):
    entries = [_fake_diag(step=k, t=k * 1e-3) for k in range(5)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for path in (p1, p2):
        with SeriesWriter(path) as w:
            for entry in entries:
                w.write_row(entry)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_text().splitlines()) == 6


def test_series_flushes_per_row(tmp_path):
    path = tmp_path / "series.csv"
    w = SeriesWriter(path)
    w.write_row(_fake_diag(step=0))
    # readable before close; an aborted run keeps the finished prefix
    assert len(path.read_text().splitlines()) == 2
    w.close()
    w.close()  # idempotent


def _parse_vtk(path):
    """Strict reader for the exact legacy layout the writer emits."""
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    dims = tuple(int(t) for t in lines[4].split()[1:])
    assert lines[4] == "DIMENSIONS {} {} {}".format(*dims)
    assert lines[5] == "ORIGIN 0 0 0"
    spacing = tuple(float(t) for t in lines[6].split()[1:])
    ncell = int(lines[7].split()[1])
    assert lines[7] == f"CELL_DATA {ncell}"
    head = lines[8].split()
    if head[0] == "SCALARS":
        assert head[2:] == ["double", "1"]
        assert lines[9] == "LOOKUP_TABLE default"
        body, rest = lines[10 : 10 + ncell], lines[10 + ncell :]
        data = np.array([float(x) for x in body])
    else:
        assert head[0] == "VECTORS" and head[2] == "double"
        body, rest = lines[9 : 9 + ncell], lines[9 + ncell :]
        data = np.array([[float(x) for x in ln.split()] for ln in body])
        assert data.shape == (ncell, 3)
    assert len(body) == ncell
    assert all(not ln for ln in rest)
    return dims, spacing, ncell, head[1], data


def _grid_and_state():
    grid = build_grid(2, (1.0, 0.75), (4, 3), ("left",))
    u = ScalarField(grid, np.arange(12, dtype=float).reshape(4, 3) / 16.0)
    w = ScalarField(grid, np.full(grid.cells, 0.5))
    comps = (np.full(grid.face_shape(0), 1.0), np.full(grid.face_shape(1), 2.0))
    state = SimpleNamespace(
        u=u, w=w, v=VectorField(grid, comps), P=ScalarField.zeros(grid)
    )
    return grid, state


def test_vtk_scalar_layout_and_fortran_order(tmp_path):
    grid, state = _grid_and_state()
    (path,) = write_snapshot(state, grid, tmp_path, 7, ("u",))
    assert path.endswith("u_000007.vtk")
    dims, spacing, ncell, name, data = _parse_vtk(tmp_path / "u_000007.vtk")
    # point dims are cells+1, padded to 3 axes with 1
    assert dims == (5, 4, 1)
    assert spacing == (0.25, 0.25, 1.0)
    assert ncell == 12
    assert name == "u"
    assert np.array_equal(data.reshape(grid.cells, order="F"), state.u.values)


def test_vtk_vectors_carry_three_components(tmp_path):
    grid, state = _grid_and_state()
    write_snapshot(state, grid, tmp_path, 0, ("v",))
    dims, spacing, ncell, name, data = _parse_vtk(tmp_path / "v_000000.vtk")
    assert name == "velocity"
    # constant face values interpolate to the same constants; z pads to 0
    assert np.allclose(data[:, 0], 1.0)
    assert np.allclose(data[:, 1], 2.0)
    assert np.all(data[:, 2] == 0.0)


def test_vtk_constant_round_trip_all_fields(tmp_path):
    grid, state = _grid_and_state()
    paths = write_snapshot(state, grid, tmp_path, 12, ("u", "w", "P"))
    assert len(paths) == 3
    _, _, _, _, data = _parse_vtk(tmp_path / "w_000012.vtk")
    assert np.all(data == 0.5)
    _, _, _, _, data = _parse_vtk(tmp_path / "P_000012.vtk")
    assert np.all(data == 0.0)


def test_vtk_obstacle_needs_the_field(tmp_path):
    grid, state = _grid_and_state()
    with pytest.raises(ValueError, match="obstacle"):
        write_snapshot(state, grid, tmp_path, 0, ("obstacle",))
    obs = ScalarField(grid, np.full(grid.cells, 3.0))
    write_snapshot(state, grid, tmp_path, 0, ("obstacle",), obstacle=obs)
    _, _, _, name, data = _parse_vtk(tmp_path / "obstacle_000000.vtk")
    assert name == "obstacle"
    assert np.all(data == 3.0)


def test_vtk_unknown_field_rejected(tmp_path):
    grid, state = _grid_and_state()
    with pytest.raises(ValueError, match="unknown snapshot field"):
        write_snapshot(state, grid, tmp_path, 0, ("vorticity",))


# values whose 17-digit text is easy to get wrong: signed zero, tiny and
# huge magnitudes, a subnormal
_AWKWARD = [-0.0, 1e-300, 5e-324, 2.5e-310, 1e300, -1e300, 1.0 / 3.0, -math.pi]


def _awkward_field(shape, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(int(np.prod(shape)))
    vals[: len(_AWKWARD)] = _AWKWARD
    return rng.permutation(vals).reshape(shape)


def _per_value_body(rows):
    """The writer's former output: one format(float(x), ".17g") per value."""
    return "".join(" ".join(format(float(x), ".17g") for x in row) + "\n" for row in rows)


def _body(path, header_lines):
    return "".join(path.read_text().splitlines(keepends=True)[header_lines:])


@pytest.mark.parametrize(
    "dim,cells", [(2, (5, 3)), (3, (3, 4, 2))], ids=["2d-nonsquare", "3d"]
)
def test_vtk_body_matches_per_value_formatting(tmp_path, dim, cells):
    grid = build_grid(dim, (1.0,) * dim, cells, ("left",))
    u = _awkward_field(grid.cells, seed=dim)
    state = SimpleNamespace(u=ScalarField(grid, u))
    write_snapshot(state, grid, tmp_path, 1, ("u",))
    # header (8 lines) plus SCALARS and LOOKUP_TABLE; cells in Fortran order
    expect = _per_value_body([[x] for x in u.ravel(order="F")])
    assert _body(tmp_path / "u_000001.vtk", 10) == expect

    centered = [_awkward_field(grid.cells, seed=10 + ax) for ax in range(dim)]
    path = tmp_path / "velocity.vtk"
    _write_cell_vectors(path, "velocity", grid, centered, 1)
    cols = [c.ravel(order="F") for c in centered]
    cols += [np.zeros(u.size)] * (3 - dim)
    expect = _per_value_body(zip(*cols))
    # header (8 lines) plus VECTORS
    assert _body(path, 9) == expect
