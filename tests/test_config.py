import math
import re
from pathlib import Path

import numpy as np
import pytest

from nlispec.config import (
    build_axes,
    build_gas,
    build_geometry,
    build_vacuum,
    gas_grid,
    load_lines,
    load_run_config,
)
from nlispec.errors import ConfigError, ValidityRangeError
from nlispec.lineshape import line_grid_step
from nlispec.resources import data_path

MINIMAL = """\
[crystal]
coefficients = mgo_linbo3_zelmon.nlc
cut_angle_deg = 47.5

[pump]
wavelength_nm = 532.0

[geometry]
crystal_length_mm = 0.5
gap_length_mm = 25.0

[signal_axis]
min_nm = 604.0
max_nm = 612.0
samples = 16

[angle_axis]
min_mrad = -6.0
max_mrad = 6.0
samples = 33

[gas]
lines = co2_synthetic_lines.csv
molar_mass_g_mol = 44.0095
pressure_torr = 10.5
temperature_k = 300.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.pump_axis_angle_rad is None
    assert cfg.aperture_cm is None
    assert cfg.crystal_length_cm == pytest.approx(0.05)
    assert cfg.gap_length_cm == pytest.approx(2.5)
    assert cfg.self_fraction == 1.0
    assert cfg.wing_cutoff_cm == 25.0
    assert cfg.partition_ratio == 1.0
    assert cfg.visible is None
    assert cfg.grid_step_cm is None
    assert cfg.grid_pad_cm == 30.0
    assert cfg.noise_sigma_rel == 0.0
    assert cfg.crystal_path == data_path("mgo_linbo3_zelmon.nlc")
    assert cfg.lines_path == data_path("co2_synthetic_lines.csv")


def test_demo_config_loads():
    cfg = load_run_config(data_path("co2_demo.cfg"))
    assert cfg.signal_samples == 512
    assert cfg.angle_axis_rad.shape == (640,)
    assert cfg.noise_seed == 20260814
    assert cfg.visible is not None
    assert cfg.visible.n0 == pytest.approx(1.000449)


def test_angle_axis_span_form(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.angle_axis_rad[0] == pytest.approx(-6.0e-3)
    assert cfg.angle_axis_rad[-1] == pytest.approx(6.0e-3)
    assert cfg.angle_axis_rad.shape == (33,)


def test_explicit_pump_angle(tmp_path):
    text = MINIMAL.replace("wavelength_nm = 532.0",
                           "wavelength_nm = 532.0\naxis_angle_deg = 47.35")
    cfg = load_run_config(write_cfg(tmp_path, text))
    assert cfg.pump_axis_angle_rad == pytest.approx(math.radians(47.35))


def test_build_geometry_solves_auto_angle(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, MINIMAL))
    geom = build_geometry(cfg)
    # solved angle must null the collinear mismatch at the centre wavelength
    from nlispec.interferometer import crystal_phase_mismatch
    centre = 0.5 * (cfg.signal_min_nm + cfg.signal_max_nm)
    delta = crystal_phase_mismatch(geom, np.array([centre]), np.array([0.0]))
    assert abs(delta[0, 0]) < 1e-6


def test_build_axes_shape(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, MINIMAL))
    axes = build_axes(cfg)
    assert axes.shape == (16, 33)
    assert axes.wavelength_nm[0] == 604.0
    assert axes.wavelength_nm[-1] == 612.0


def test_build_axes_rejects_collapsed_signal_axis(tmp_path):
    # 16 samples across one rounding step of 604 nm cannot be distinct
    text = MINIMAL.replace("max_nm = 612.0", "max_nm = 604.0000000000001")
    path = write_cfg(tmp_path, text)
    cfg = load_run_config(path)
    with pytest.raises(ConfigError) as err:
        build_axes(cfg)
    assert err.value.key == f"{path}:[signal_axis]"


def test_gas_grid_covers_map(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, MINIMAL))
    lines = load_lines(cfg)
    grid = gas_grid(cfg, lines)
    # idler for the signal extremes, padded
    lo = 1e7 / 532.0 - 1e7 / 604.0
    hi = 1e7 / 532.0 - 1e7 / 612.0
    assert grid.min() <= min(lo, hi) - 29.9
    assert grid.max() >= max(lo, hi) + 29.9
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0], rtol=1e-8)
    # without grid_step_cm the step is line_grid_step, shortened just
    # enough to divide the span
    fine = line_grid_step(lines, cfg.pressure_torr, cfg.temperature_k,
                          cfg.molar_mass_g_mol, cfg.self_fraction)
    assert grid.size == math.ceil((grid[-1] - grid[0]) / fine) + 1
    assert steps[0] == pytest.approx(fine, rel=1e-3)
    assert steps[0] <= fine * (1 + 1e-12)


def test_build_gas_and_vacuum(tmp_path):
    text = MINIMAL + "grid_step_cm = 0.5\nvisible_n0 = 1.000449\n"
    cfg = load_run_config(write_cfg(tmp_path, text))
    gas = build_gas(cfg)
    assert gas.idler_absorption_at(np.array([1e7 / 2349.0]))[0] > 0.1
    assert gas.visible_index() > 1.0
    vac = build_vacuum(cfg)
    assert vac.visible_index() == 1.0
    assert vac.t_k == cfg.temperature_k


@pytest.mark.parametrize("mutate, fragment", [
    ("unknown_section", "[typo]"),
    ("unknown_key", "[pump].typo_key"),
    ("missing_section", "missing section [gas]"),
    ("missing_key", "[gas].pressure_torr"),
    ("bad_value", "[gas].pressure_torr"),
    ("mixed_angle_keys", "angle_axis"),
    ("inverted_signal", "max_nm must exceed"),
    ("negative_length", "positive"),
])
def test_rejects_malformed(tmp_path, mutate, fragment):
    text = MINIMAL
    if mutate == "unknown_section":
        text += "\n[typo]\nx = 1\n"
    elif mutate == "unknown_key":
        text = text.replace("[pump]", "[pump]\ntypo_key = 3")
    elif mutate == "missing_section":
        text = text[:text.index("[gas]")]
    elif mutate == "missing_key":
        text = text.replace("pressure_torr = 10.5\n", "")
    elif mutate == "bad_value":
        text = text.replace("pressure_torr = 10.5", "pressure_torr = ten")
    elif mutate == "mixed_angle_keys":
        text = text.replace("min_mrad = -6.0", "pixels = 64")
    elif mutate == "inverted_signal":
        text = text.replace("max_nm = 612.0", "max_nm = 600.0")
    elif mutate == "negative_length":
        text = text.replace("gap_length_mm = 25.0", "gap_length_mm = -1")
    with pytest.raises(ConfigError) as err:
        load_run_config(write_cfg(tmp_path, text))
    assert fragment in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("pressure_torr", "-1"),
    ("self_fraction", "1.5"),
    ("self_fraction", "-0.1"),
    ("wing_cutoff_cm", "0"),
    ("grid_step_cm", "0"),
    ("grid_pad_cm", "-1"),
    ("temperature_k", "inf"),
    ("pressure_torr", "nan"),
    ("partition_ratio", "-1"),
    ("visible_n0", "0.5"),
    ("visible_n0", "nan"),
    ("visible_p0_torr", "-5"),
    ("visible_t0_k", "nan"),
])
def test_rejects_out_of_range_gas_key(tmp_path, key, value):
    text = re.sub(rf"^{key} = .*\n", "", MINIMAL, flags=re.MULTILINE)
    with pytest.raises(ConfigError) as err:
        load_run_config(write_cfg(tmp_path, text + f"{key} = {value}\n"))
    assert err.value.key.endswith(f"[gas].{key}")


@pytest.mark.parametrize("old, new, where", [
    ("cut_angle_deg = 47.5", "cut_angle_deg = 120", "[crystal].cut_angle_deg"),
    ("wavelength_nm = 532.0", "wavelength_nm = 532.0\naxis_angle_deg = 0",
     "[pump].axis_angle_deg"),
    ("wavelength_nm = 532.0", "wavelength_nm = 532.0\naxis_angle_deg = nan",
     "[pump].axis_angle_deg"),
    ("min_mrad = -6.0", "min_mrad = -inf", "[angle_axis]"),
    ("min_mrad = -6.0\nmax_mrad = 6.0\nsamples = 33",
     "pixels = 0\npixel_pitch_um = 13.0\nfocal_length_mm = 500.0",
     "[angle_axis].pixels"),
    ("min_mrad = -6.0\nmax_mrad = 6.0\nsamples = 33",
     "pixels = 64\npixel_pitch_um = 5e-324\nfocal_length_mm = 500.0",
     "[angle_axis]"),
    ("min_mrad = -6.0\nmax_mrad = 6.0\nsamples = 33",
     "pixels = 64\npixel_pitch_um = 13.0\nfocal_length_mm = 5e-324",
     "[angle_axis]"),
])
def test_rejects_out_of_range_angle(tmp_path, old, new, where):
    with pytest.raises(ConfigError) as err:
        load_run_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))
    assert err.value.key.endswith(where)


def test_pump_outside_crystal_range_exits_at_geometry(tmp_path):
    text = MINIMAL.replace("wavelength_nm = 532.0",
                           "wavelength_nm = 1e-3\naxis_angle_deg = 30")
    cfg = load_run_config(write_cfg(tmp_path, text))
    with pytest.raises(ValidityRangeError, match="validity range"):
        build_geometry(cfg)


def test_accepts_gas_range_edges(tmp_path):
    text = MINIMAL.replace("pressure_torr = 10.5", "pressure_torr = 0") + \
        "self_fraction = 0\ngrid_pad_cm = 0\n"
    cfg = load_run_config(write_cfg(tmp_path, text))
    assert cfg.pressure_torr == 0.0
    assert cfg.self_fraction == 0.0
    assert cfg.grid_pad_cm == 0.0


def test_readme_quick_start_import_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    line = re.search(r"^from nlispec import \(.*?\)$", readme,
                     re.MULTILINE | re.DOTALL).group(0)
    exec(line, {})


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_run_config(tmp_path / "absent.cfg")


def test_missing_lines_file_named(tmp_path):
    text = MINIMAL.replace("co2_synthetic_lines.csv", "nowhere.csv")
    with pytest.raises(ConfigError) as err:
        load_run_config(write_cfg(tmp_path, text))
    assert "nowhere.csv" in str(err.value)
