"""Config parsing, canonical printing, and initial-field presets."""

from dataclasses import replace

import numpy as np
import pytest

from biofilmflow.config import (
    initial_state,
    num_steps,
    parse_config,
    print_config,
)
from biofilmflow.constitutive import ModelParams
from biofilmflow.errors import ConfigError

FULL_TEXT = """
[grid]
dim = 2
extents = 2.0 1.0
cells = 24 12
gamma0 = left right

[model]
nu = 0.2
mu = 0.05
k1 = 0.4

[time]
t_end = 0.25
dt = 5e-4

[coupling]
picard_tol = 1e-8
picard_max = 25

[output]
out_dir = results
snapshot_every = 50
series_name = run.csv
snapshot_fields = u v

[initial]
u = gaussian-blob amplitude=0.4 width=0.2
w = uniform value=0.8
g = swirl amplitude=5.0
seed = 7
"""


def test_empty_text_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.grid.dim == 2
    assert cfg.grid.cells == (64, 64)
    assert cfg.grid.extents == (1.0, 1.0)
    assert set(cfg.grid.gamma0_edges) == {"left"}
    assert cfg.params == ModelParams()
    assert cfg.t_end == 0.5
    assert cfg.dt == 1e-3
    assert cfg.picard_tol == 1e-9
    assert cfg.picard_max == 40
    assert cfg.output.out_dir == "out"
    assert cfg.output.snapshot_every == 100
    assert cfg.output.snapshot_fields == ("u", "w", "v", "P")
    assert cfg.initial.u.startswith("uniform")
    assert cfg.initial.seed == 0


def test_print_then_parse_is_a_fixed_point():
    cfg = parse_config(FULL_TEXT)
    text1 = print_config(cfg)
    cfg2 = parse_config(text1)
    text2 = print_config(cfg2)
    # one round through the printer must be idempotent byte for byte
    assert text1 == text2
    assert cfg2.grid.cells == (24, 12)
    assert cfg2.grid.extents == (2.0, 1.0)
    assert cfg2.params.nu == 0.2
    assert cfg2.params.mu == 0.05
    assert cfg2.dt == 5e-4
    assert cfg2.output.series_name == "run.csv"
    assert cfg2.initial.u == "gaussian-blob amplitude=0.4 width=0.2"
    assert cfg2.initial.seed == 7


def test_printer_survives_reprs_of_awkward_floats():
    cfg = parse_config("[time]\ndt = 0.1\nt_end = 0.30000000000000004\n")
    cfg2 = parse_config(print_config(cfg))
    assert cfg2.dt == cfg.dt
    assert cfg2.t_end == cfg.t_end


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[grd]\ncells = 8 8\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['cell'\]"):
        parse_config("[grid]\ncell = 8 8\n")
    with pytest.raises(ConfigError, match=r"\[model\]"):
        parse_config("[model]\nviscosity = 0.1\n")


def test_malformed_values_name_the_key():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("[time]\ndt = fast\n")
    with pytest.raises(ConfigError, match="cells"):
        parse_config("[grid]\ncells = 8 eight\n")


def test_model_invariants_enforced():
    with pytest.raises(ConfigError, match="mu"):
        parse_config("[model]\nmu = 0.4\n")  # >= delta0
    with pytest.raises(ConfigError, match=r"alpha \(alpha_exp\) must exceed 1"):
        parse_config("[model]\nalpha = 1.0\n")
    with pytest.raises(ConfigError, match="c_d"):
        parse_config("[model]\nc_d = 0.03\nc_d_prime = 0.02\n")
    with pytest.raises(ConfigError, match="nu"):
        parse_config("[model]\nnu = -0.1\n")


def test_time_section_guards():
    with pytest.raises(ConfigError, match="dt"):
        parse_config("[time]\ndt = 0\n")
    with pytest.raises(ConfigError, match="t_end"):
        parse_config("[time]\nt_end = -1\n")


def test_nonfinite_time_and_negative_seed_rejected():
    # nan and inf slip past plain sign checks and crash num_steps later
    for text in ("dt = nan", "dt = inf", "t_end = nan", "t_end = inf"):
        with pytest.raises(ConfigError, match=text.split()[0]):
            parse_config(f"[time]\n{text}\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("[initial]\nseed = -1\n")


@pytest.mark.parametrize(
    "text, match",
    [
        ("picard_max = 0", "iteration counts"),
        ("picard_min_iters = 5\npicard_max = 3", "picard_min_iters exceeds"),
        ("picard_abs_floor = nan", "picard_abs_floor"),
        ("picard_abs_floor = -1", "picard_abs_floor"),
        ("picard_tol = inf", "picard_tol"),
        ("picard_tol = nan", "picard_tol"),
    ],
)
def test_coupling_section_checked_at_parse(text, match):
    # the run used to be the first to check these: after "config ok"
    with pytest.raises(ConfigError, match=match):
        parse_config(f"[coupling]\n{text}\n")


def test_gamma0_must_be_proper_subset():
    with pytest.raises(ConfigError):
        parse_config("[grid]\ngamma0 = left right bottom top\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\ngamma0 = north\n")


def test_out_dir_none_disables_output_and_round_trips():
    cfg = parse_config("[output]\nout_dir = none\n")
    assert cfg.output.out_dir is None
    assert "out_dir = none" in print_config(cfg)
    assert parse_config(print_config(cfg)).output.out_dir is None


def test_snapshot_fields_validated():
    with pytest.raises(ConfigError, match="unknown snapshot field"):
        parse_config("[output]\nsnapshot_fields = u q\n")
    with pytest.raises(ConfigError, match="snapshot_every"):
        parse_config("[output]\nsnapshot_every = -1\n")
    cfg = parse_config("[output]\nsnapshot_every = 0\n")
    assert cfg.output.snapshot_every == 0


@pytest.mark.parametrize(
    "t_end, dt, n",
    [
        (0.5, 1e-3, 500),
        (0.1, 0.01, 10),  # 0.1/0.01 is not exact in binary; nudge must absorb it
        (0.0995, 0.01, 9),
        (0.0, 1e-3, 0),
        (3e-3, 1e-3, 3),
    ],
)
def test_num_steps_floors_with_safety_nudge(t_end, dt, n):
    cfg = parse_config(f"[time]\nt_end = {t_end!r}\ndt = {dt!r}\n")
    assert num_steps(cfg) == n


def test_initial_state_is_seed_deterministic():
    text = (
        "[grid]\ncells = 16 16\n\n"
        "[initial]\nu = random-smooth amplitude=0.25 floor=0.01\nseed = 3\n"
    )
    s1 = initial_state(parse_config(text))
    s2 = initial_state(parse_config(text))
    assert np.array_equal(s1["u"].values, s2["u"].values)
    assert np.ptp(s1["u"].values) > 0.1
    cfg = parse_config(text)
    s3 = initial_state(replace(cfg, initial=replace(cfg.initial, seed=4)))
    assert not np.array_equal(s1["u"].values, s3["u"].values)
    assert np.all(s1["P"].values == 0.0)
    assert all(np.all(c == 0.0) for c in s1["v"].comps)


def test_initial_state_rejects_out_of_range_presets():
    with pytest.raises(ConfigError, match="outside"):
        initial_state(parse_config("[initial]\nu = uniform value=2.0\n"))
    with pytest.raises(ConfigError, match="outside"):
        initial_state(parse_config("[initial]\nw = uniform value=-0.5\n"))
    with pytest.raises(ConfigError, match="unknown"):
        initial_state(parse_config("[initial]\nv = vortex\n"))


def test_preset_token_errors():
    with pytest.raises(ConfigError, match="malformed token"):
        initial_state(parse_config("[initial]\nu = uniform value 0.2\n"))
    with pytest.raises(ConfigError, match="duplicate key"):
        initial_state(parse_config("[initial]\nu = uniform value=0.1 value=0.2\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        initial_state(parse_config("[initial]\nu = uniform val=0.2\n"))


def test_preset_values_and_vectors_validated():
    with pytest.raises(ConfigError, match="amplitude"):
        initial_state(parse_config("[initial]\nu = gaussian-blob amplitude=high\n"))
    with pytest.raises(ConfigError, match="non-finite"):
        initial_state(parse_config("[initial]\ng = constant gx=1 gy=inf\n"))


@pytest.mark.filterwarnings("error")
def test_nonfinite_preset_number_rejected_before_use():
    # inf * 0 at the swirl centre would warn before the field is checked
    cfg = parse_config("[grid]\ncells = 5 5\n\n[initial]\ng = swirl amplitude=inf\n")
    with pytest.raises(ConfigError, match="non-finite.*amplitude"):
        initial_state(cfg)


def test_stripe_preset_fills_the_grid():
    cfg = parse_config(
        "[grid]\ncells = 8 4\n\n[initial]\nu = stripe axis=1 lo=0.5 hi=1.0 inside=0.3\n"
    )
    u = initial_state(cfg)["u"].values
    assert u.shape == (8, 4)
    assert np.all(u[:, :2] == 0.0) and np.all(u[:, 2:] == 0.3)


def test_inline_comments_are_stripped():
    cfg = parse_config("[time]\ndt = 2e-3  # coarse\n")
    assert cfg.dt == 2e-3
