"""Run configuration: one INI file describes a complete simulated run.

`_KEYS` is the schema.  For each section and key it declares, once, the
`RunConfig` field the value lands in, the converter to the unit the
model uses, the range rule and the default (or `_REQUIRED`).  One loop
over it rejects unknown sections and keys, reports a missing section or
required key, and converts and range-checks every key that is given,
even one that another key leaves unused.  Each failure raises
ConfigError naming the offending `path:[section].key`.  Only the rules
that tie several keys together are code after that loop.  The
builders' rules, checked later, name the same `path:[section].key`
through `RunConfig.config_path`.  Keys carry their unit in the name,
so a config file can be read without consulting the docs.

The [gas] section's `lines` (and [crystal] `coefficients`) accept
either a path, a relative one taken from the config file's directory,
or the bare name of a file shipped with the package.
`axis_angle_deg = auto` solves the collinear phase-matching condition
at the centre of the signal axis instead of using a fixed pump angle.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dispersion import GasIndexModel, load_uniaxial_crystal, read_ini
from .errors import ConfigError
from .interferometer import (
    InterferometerGeometry,
    MapAxes,
    collinear_phase_matching_angle,
    detector_angle_axis,
    idler_wavelength_nm,
    nu_cm_from_lambda_nm,
)
from .resources import data_path

if TYPE_CHECKING:
    from .gas import GasState
    from .lineshape import LineArrays


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a run configuration file."""

    config_path: str  # the file itself, which later errors name
    crystal_path: str
    cut_angle_rad: float
    pump_wavelength_nm: float
    pump_axis_angle_rad: float | None  # None: solve at the axis centre
    crystal_length_cm: float
    gap_length_cm: float
    aperture_cm: float | None
    signal_min_nm: float
    signal_max_nm: float
    signal_samples: int
    angle_axis_rad: np.ndarray
    lines_path: str
    molecule_id: int | None
    isotopologue_id: int | None
    molar_mass_g_mol: float
    pressure_torr: float
    temperature_k: float
    self_fraction: float
    wing_cutoff_cm: float
    partition_ratio: float
    visible: GasIndexModel | None
    grid_step_cm: float | None
    grid_pad_cm: float
    noise_sigma_rel: float
    noise_seed: int


# range rules: None for a value in range, else the rule that it breaks
def _positive(value):
    return None if 0 < value < math.inf else "must be positive and finite"


def _nonnegative(value):
    return None if 0 <= value < math.inf else "must be non-negative and finite"


def _above_one(value):
    return None if 1 < value < math.inf else "must exceed 1 and be finite"


def _fraction(value):
    return None if 0 <= value <= 1 else "must lie in [0, 1]"


def _axis_angle(value):
    return None if 0 < value <= math.pi / 2 else "must lie in (0, 90] degrees"


def _two_or_more(value):
    return None if value >= 2 else "need at least 2 samples"


# converters, so that range rules see the unit the model uses
def _radians(raw: str) -> float:
    return math.radians(float(raw))


def _scaled(factor: float):
    return lambda raw: factor * float(raw)


def _auto_or_radians(raw: str) -> float | None:
    return None if raw.lower() == "auto" else _radians(raw)


_REQUIRED = object()  # the default of a key that must be given

# section -> key -> (field, converter, range rule, default).  A field
# that RunConfig lacks feeds a rule over several keys after the loop.
_KEYS = {
    "crystal": {
        "coefficients": ("crystal_path", str, None, _REQUIRED),
        "cut_angle_deg": ("cut_angle_rad", _radians, _axis_angle, _REQUIRED),
    },
    "pump": {
        "wavelength_nm": ("pump_wavelength_nm", float, _positive, _REQUIRED),
        "axis_angle_deg": ("pump_axis_angle_rad", _auto_or_radians,
                           _axis_angle, None),
    },
    "geometry": {
        "crystal_length_mm": ("crystal_length_cm", _scaled(0.1), _positive,
                              _REQUIRED),
        "gap_length_mm": ("gap_length_cm", _scaled(0.1), _positive, _REQUIRED),
        "aperture_mm": ("aperture_cm", _scaled(0.1), _positive, None),
    },
    "signal_axis": {
        "min_nm": ("signal_min_nm", float, _positive, _REQUIRED),
        "max_nm": ("signal_max_nm", float, _positive, _REQUIRED),
        "samples": ("signal_samples", int, _two_or_more, _REQUIRED),
    },
    "angle_axis": {
        "pixels": ("pixels", int, _positive, None),
        "pixel_pitch_um": ("pixel_pitch_um", float, _positive, None),
        "focal_length_mm": ("focal_length_mm", float, _positive, None),
        "min_mrad": ("min_rad", _scaled(1e-3), None, None),
        "max_mrad": ("max_rad", _scaled(1e-3), None, None),
        "samples": ("angle_samples", int, _two_or_more, None),
    },
    "gas": {
        "lines": ("lines_path", str, None, _REQUIRED),
        "molecule_id": ("molecule_id", int, None, None),
        "isotopologue_id": ("isotopologue_id", int, None, None),
        "molar_mass_g_mol": ("molar_mass_g_mol", float, _positive, _REQUIRED),
        "pressure_torr": ("pressure_torr", float, _nonnegative, _REQUIRED),
        "temperature_k": ("temperature_k", float, _positive, _REQUIRED),
        "self_fraction": ("self_fraction", float, _fraction, 1.0),
        "wing_cutoff_cm": ("wing_cutoff_cm", float, _positive, 25.0),
        "partition_ratio": ("partition_ratio", float, _positive, 1.0),
        "visible_n0": ("visible_n0", float, _above_one, None),
        "visible_p0_torr": ("visible_p0_torr", float, _positive, 760.0),
        "visible_t0_k": ("visible_t0_k", float, _positive, 273.15),
        "grid_step_cm": ("grid_step_cm", float, _positive, None),
        "grid_pad_cm": ("grid_pad_cm", float, _nonnegative, 30.0),
    },
    "noise": {
        "sigma_rel": ("noise_sigma_rel", float, _nonnegative, 0.0),
        "seed": ("noise_seed", int, _nonnegative, 0),
    },
}


def _resolve_data(name: str, config_path, where: str) -> str:
    local = os.path.join(os.path.dirname(str(config_path)), name)
    if os.path.exists(local):
        return local
    shipped = data_path(os.path.basename(name))
    if os.path.basename(name) == name and os.path.exists(shipped):
        return shipped
    raise ConfigError(f"file not found: {name}", key=where)


def _parse(raw: str, convert, rule, where: str):
    raw = raw.strip()
    try:
        value = convert(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r}",
                          key=where) from None
    broken = None if rule is None or value is None else rule(value)
    if broken:
        raise ConfigError(f"{broken}, got {raw}", key=where)
    return value


def load_run_config(path) -> RunConfig:
    cp = read_ini(path)
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]", key=str(path))
    fields = {"config_path": str(path)}
    for section, keys in _KEYS.items():
        given = cp[section] if cp.has_section(section) else {}
        for key in given:
            if key not in keys:
                raise ConfigError("unknown key",
                                  key=f"{path}:[{section}].{key}")
        for key, (field, convert, rule, default) in keys.items():
            where = f"{path}:[{section}].{key}"
            if key in given:
                fields[field] = _parse(given[key], convert, rule, where)
            elif default is not _REQUIRED:
                fields[field] = default
            elif cp.has_section(section):
                raise ConfigError("missing required key", key=where)
            else:
                raise ConfigError(f"missing section [{section}]",
                                  key=str(path))

    if not fields["signal_max_nm"] > fields["signal_min_nm"]:
        raise ConfigError("max_nm must exceed min_nm",
                          key=f"{path}:[signal_axis]")
    fields["angle_axis_rad"] = _angle_axis(fields, f"{path}:[angle_axis]")
    n0 = fields.pop("visible_n0")
    p0, t0 = fields.pop("visible_p0_torr"), fields.pop("visible_t0_k")
    fields["visible"] = None if n0 is None else \
        GasIndexModel(n0=n0, p0_torr=p0, t0_k=t0)
    fields["crystal_path"] = _resolve_data(
        fields["crystal_path"], path, f"{path}:[crystal].coefficients")
    fields["lines_path"] = _resolve_data(fields["lines_path"], path,
                                         f"{path}:[gas].lines")
    return RunConfig(**fields)


def _angle_axis(fields: dict, where: str) -> np.ndarray:
    """Detector angles from exactly one of the two [angle_axis] key sets."""
    detector = tuple(fields.pop(name) for name in
                     ("pixels", "pixel_pitch_um", "focal_length_mm"))
    span = tuple(fields.pop(name) for name in
                 ("min_rad", "max_rad", "angle_samples"))
    with np.errstate(all="ignore"):  # a collapsed axis is rejected below
        if None not in detector and span == (None,) * 3:
            axis = detector_angle_axis(*detector)
        elif None not in span and detector == (None,) * 3:
            axis = np.linspace(*span)
        else:
            raise ConfigError(
                "give either {pixels, pixel_pitch_um, focal_length_mm} or "
                "{min_mrad, max_mrad, samples}", key=where)
    return _increasing(axis, where)


def _increasing(axis: np.ndarray, where: str) -> np.ndarray:
    # extreme values can collapse an axis onto repeated or infinite values
    if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0)):
        raise ConfigError("axis values must be finite and strictly "
                          "increasing", key=where)
    return axis


# ------------------------------------------------------------ builders
# The line and gas modules are imported by the builders that use them,
# so that a command that builds no gas (`retrieve`) never compiles them.

def build_axes(cfg: RunConfig) -> MapAxes:
    wavelength = np.linspace(cfg.signal_min_nm, cfg.signal_max_nm,
                             cfg.signal_samples)
    return MapAxes(_increasing(wavelength, f"{cfg.config_path}:[signal_axis]"),
                   cfg.angle_axis_rad)


def build_geometry(cfg: RunConfig) -> InterferometerGeometry:
    crystal = load_uniaxial_crystal(cfg.crystal_path, cfg.cut_angle_rad)
    crystal.ordinary.check_range(cfg.pump_wavelength_nm * 1e-3)
    angle = cfg.pump_axis_angle_rad
    if angle is None:
        centre = 0.5 * (cfg.signal_min_nm + cfg.signal_max_nm)
        angle = collinear_phase_matching_angle(
            crystal, cfg.pump_wavelength_nm, centre)
    return InterferometerGeometry(
        crystal=crystal,
        crystal_length_cm=cfg.crystal_length_cm,
        gap_length_cm=cfg.gap_length_cm,
        pump_wavelength_nm=cfg.pump_wavelength_nm,
        pump_axis_angle_rad=angle,
        aperture_cm=cfg.aperture_cm,
    )


def load_lines(cfg: RunConfig) -> LineArrays:
    """The run's line list, read into arrays from `.par` or CSV."""
    from .lineshape import load_line_csv, load_par_file

    if cfg.lines_path.endswith(".par"):
        return load_par_file(cfg.lines_path, molecule=cfg.molecule_id,
                             isotopologue=cfg.isotopologue_id)
    return load_line_csv(cfg.lines_path)


# an explicit grid step may be at most this many times `line_grid_step`
_COARSEST_STEP = 16
# one cap for every idler grid; the FFT KK transform takes tens of ms here
_MAX_GRID_POINTS = 200001


def gas_grid(cfg: RunConfig, lines: LineArrays) -> np.ndarray:
    """Uniform idler wavenumber grid covering the map plus padding.

    Its step is `[gas].grid_step_cm`, or `line_grid_step` where that is
    not given.  A gas above 0 Torr whose explicit step exceeds
    16 x `line_grid_step` is rejected: such a grid falls between the
    line cores and shows aliased absorption.  The grid has at least the
    3 points the KK transform needs and at most 200,001.
    """
    from .lineshape import line_grid_step

    lam_i_edges = idler_wavelength_nm(
        cfg.pump_wavelength_nm,
        np.array([cfg.signal_min_nm, cfg.signal_max_nm]))
    nu_edges = nu_cm_from_lambda_nm(lam_i_edges)
    lo = nu_edges.min() - cfg.grid_pad_cm
    hi = nu_edges.max() + cfg.grid_pad_cm
    where = f"{cfg.config_path}:[gas]"
    if not lo > 0:
        raise ConfigError(f"idler grid starts at {lo:.6g} cm^-1, not above 0",
                          key=f"{where}.grid_pad_cm")
    step = cfg.grid_step_cm
    if step is None or cfg.pressure_torr > 0:
        fine = line_grid_step(lines, cfg.pressure_torr, cfg.temperature_k,
                              cfg.molar_mass_g_mol, cfg.self_fraction)
        if step is None:
            step = fine
        elif step > _COARSEST_STEP * fine:
            raise ConfigError(
                f"{step:g} cm^-1 is over {_COARSEST_STEP} x {fine:.3g} "
                "cm^-1, the step that resolves the narrowest line; a "
                "coarser grid aliases the lines", key=f"{where}.grid_step_cm")
    npts = np.ceil((hi - lo) / step) + 1
    if not npts <= _MAX_GRID_POINTS:
        raise ConfigError(
            f"idler grid needs {npts:.0f} points (> {_MAX_GRID_POINTS}); "
            "set a coarser grid_step_cm", key=f"{where}.grid_step_cm")
    return np.linspace(lo, hi, max(int(npts), 3))


def build_gas(cfg: RunConfig) -> GasState:
    from .gas import GasState

    lines = load_lines(cfg)
    return GasState.from_lines(
        lines, cfg.pressure_torr, cfg.temperature_k, cfg.molar_mass_g_mol,
        visible=cfg.visible, nu_grid_cm=gas_grid(cfg, lines),
        x_self=cfg.self_fraction, wing_cutoff_cm=cfg.wing_cutoff_cm,
        partition_ratio=cfg.partition_ratio,
    )


def build_vacuum(cfg: RunConfig) -> GasState:
    from .gas import GasState

    return GasState.vacuum(t_k=cfg.temperature_k)
