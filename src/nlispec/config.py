"""Run configuration: one INI file describes a complete simulated run.

Sections and keys are validated strictly: unknown sections, unknown
keys, missing required keys and unparseable values all raise
ConfigError naming the offending path.  Keys carry their unit in the
name, so a config file can be read without consulting the docs.

The [gas] section's `lines` (and [crystal] `coefficients`) accept
either a path, a relative one taken from the config file's directory,
or the bare name of a file shipped with the package.
`axis_angle_deg = auto` solves the collinear phase-matching condition
at the centre of the signal axis instead of using a fixed pump angle.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .dispersion import GasIndexModel, load_uniaxial_crystal
from .errors import ConfigError
from .gas import (GasState, line_grid_step, nu_cm_from_lambda_nm,
                  uniform_grid)
from .interferometer import (
    InterferometerGeometry,
    MapAxes,
    collinear_phase_matching_angle,
    detector_angle_axis,
    idler_wavelength_nm,
)
from .lineshape import load_line_csv, load_par_file
from .resources import data_path

_SCHEMA = {
    "crystal": {
        "required": {"coefficients", "cut_angle_deg"},
        "optional": set(),
    },
    "pump": {
        "required": {"wavelength_nm"},
        "optional": {"axis_angle_deg"},
    },
    "geometry": {
        "required": {"crystal_length_mm", "gap_length_mm"},
        "optional": {"aperture_mm"},
    },
    "signal_axis": {
        "required": {"min_nm", "max_nm", "samples"},
        "optional": set(),
    },
    "angle_axis": {
        "required": set(),
        "optional": {"pixels", "pixel_pitch_um", "focal_length_mm",
                     "min_mrad", "max_mrad", "samples"},
    },
    "gas": {
        "required": {"lines", "molar_mass_g_mol", "pressure_torr",
                     "temperature_k"},
        "optional": {"self_fraction", "wing_cutoff_cm", "partition_ratio",
                     "visible_n0", "visible_p0_torr", "visible_t0_k",
                     "grid_step_cm", "grid_pad_cm", "molecule_id",
                     "isotopologue_id"},
    },
    "noise": {
        "required": set(),
        "optional": {"sigma_rel", "seed"},
    },
}

_DETECTOR_KEYS = {"pixels", "pixel_pitch_um", "focal_length_mm"}
_SPAN_KEYS = {"min_mrad", "max_mrad", "samples"}


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a run configuration file."""

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


def _resolve_data(name: str, config_path, where: str) -> str:
    local = os.path.join(os.path.dirname(str(config_path)), name)
    if os.path.exists(local):
        return local
    shipped = data_path(os.path.basename(name))
    if os.path.basename(name) == name and os.path.exists(shipped):
        return shipped
    raise ConfigError(f"file not found: {name}", key=where)


def _get(section, key, where, convert=float, default=None, required=True,
         check=None):
    """Parsed `key`; `check(value, key_path)` raises if it is out of range."""
    if key not in section:
        if required:
            raise ConfigError("missing required key", key=f"{where}.{key}")
        return default
    raw = section[key].strip()
    try:
        value = convert(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r}",
                          key=f"{where}.{key}") from None
    if check is not None:
        check(value, f"{where}.{key}")
    return value


def _positive(value, where):
    if not 0 < value < math.inf:
        raise ConfigError(f"must be positive and finite, got {value}",
                          key=where)


def _nonnegative(value, where):
    if not 0 <= value < math.inf:
        raise ConfigError(f"must not be negative or infinite, got {value}",
                          key=where)


def _above_one(value, where):
    if not 1 < value < math.inf:
        raise ConfigError(f"must exceed 1 and be finite, got {value}",
                          key=where)


def _axis_angle(value, where):
    if not 0 < value <= math.pi / 2:
        raise ConfigError(
            f"must lie in (0, 90] degrees, got {math.degrees(value)}",
            key=where)


# converters for `_get`, so that range checks see the unit the model uses
def _radians(raw: str) -> float:
    return math.radians(float(raw))


def _cm_from_mm(raw: str) -> float:
    return 0.1 * float(raw)


def _fraction(value, where):
    if not 0 <= value <= 1:
        raise ConfigError(f"must lie in [0, 1], got {value}", key=where)


def load_run_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except FileNotFoundError:
        raise
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config: {exc}", key=str(path))

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]", key=str(path))
        allowed = _SCHEMA[section]["required"] | _SCHEMA[section]["optional"]
        for key in cp[section]:
            if key not in allowed:
                raise ConfigError("unknown key", key=f"{path}:[{section}].{key}")
    for section, spec in _SCHEMA.items():
        if spec["required"] and not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]", key=str(path))
        for key in spec["required"]:
            if key not in cp[section]:
                raise ConfigError("missing required key",
                                  key=f"{path}:[{section}].{key}")

    crystal = cp["crystal"]
    pump = cp["pump"]
    geometry = cp["geometry"]
    signal = cp["signal_axis"]
    gas = cp["gas"]

    angle_raw = pump.get("axis_angle_deg", "auto").strip().lower()
    if angle_raw == "auto":
        pump_angle = None
    else:
        pump_angle = _get(pump, "axis_angle_deg", f"{path}:[pump]",
                          convert=_radians, check=_axis_angle)

    angle_axis = _angle_axis(cp, path)

    lo = _get(signal, "min_nm", f"{path}:[signal_axis]", check=_positive)
    hi = _get(signal, "max_nm", f"{path}:[signal_axis]", check=_positive)
    if not hi > lo:
        raise ConfigError("max_nm must exceed min_nm",
                          key=f"{path}:[signal_axis]")
    samples = _get(signal, "samples", f"{path}:[signal_axis]", convert=int)
    if samples < 2:
        raise ConfigError("need at least 2 samples",
                          key=f"{path}:[signal_axis].samples")

    n0 = _get(gas, "visible_n0", f"{path}:[gas]", required=False,
              check=_above_one)
    visible = None
    if n0 is not None:
        visible = GasIndexModel(
            n0=n0,
            p0_torr=_get(gas, "visible_p0_torr", f"{path}:[gas]",
                         default=760.0, required=False, check=_positive),
            t0_k=_get(gas, "visible_t0_k", f"{path}:[gas]",
                      default=273.15, required=False, check=_positive),
        )

    noise = cp["noise"] if cp.has_section("noise") else {}
    sigma_rel = _get(noise, "sigma_rel", f"{path}:[noise]", default=0.0,
                     required=False, check=_nonnegative)
    seed = _get(noise, "seed", f"{path}:[noise]", convert=int, default=0,
                required=False, check=_nonnegative)

    return RunConfig(
        crystal_path=_resolve_data(crystal["coefficients"].strip(), path,
                                   f"{path}:[crystal].coefficients"),
        cut_angle_rad=_get(crystal, "cut_angle_deg", f"{path}:[crystal]",
                           convert=_radians, check=_axis_angle),
        pump_wavelength_nm=_get(pump, "wavelength_nm", f"{path}:[pump]",
                                check=_positive),
        pump_axis_angle_rad=pump_angle,
        crystal_length_cm=_get(geometry, "crystal_length_mm",
                               f"{path}:[geometry]", convert=_cm_from_mm,
                               check=_positive),
        gap_length_cm=_get(geometry, "gap_length_mm", f"{path}:[geometry]",
                           convert=_cm_from_mm, check=_positive),
        aperture_cm=_get(geometry, "aperture_mm", f"{path}:[geometry]",
                         convert=_cm_from_mm, required=False,
                         check=_positive),
        signal_min_nm=lo, signal_max_nm=hi, signal_samples=samples,
        angle_axis_rad=angle_axis,
        lines_path=_resolve_data(gas["lines"].strip(), path,
                                 f"{path}:[gas].lines"),
        molecule_id=_get(gas, "molecule_id", f"{path}:[gas]", convert=int,
                         required=False),
        isotopologue_id=_get(gas, "isotopologue_id", f"{path}:[gas]",
                             convert=int, required=False),
        molar_mass_g_mol=_get(gas, "molar_mass_g_mol", f"{path}:[gas]",
                              check=_positive),
        pressure_torr=_get(gas, "pressure_torr", f"{path}:[gas]",
                           check=_nonnegative),
        temperature_k=_get(gas, "temperature_k", f"{path}:[gas]",
                           check=_positive),
        self_fraction=_get(gas, "self_fraction", f"{path}:[gas]", default=1.0,
                           required=False, check=_fraction),
        wing_cutoff_cm=_get(gas, "wing_cutoff_cm", f"{path}:[gas]",
                            default=25.0, required=False, check=_positive),
        partition_ratio=_get(gas, "partition_ratio", f"{path}:[gas]",
                             default=1.0, required=False, check=_positive),
        visible=visible,
        grid_step_cm=_get(gas, "grid_step_cm", f"{path}:[gas]",
                          required=False, check=_positive),
        grid_pad_cm=_get(gas, "grid_pad_cm", f"{path}:[gas]", default=30.0,
                         required=False, check=_nonnegative),
        noise_sigma_rel=sigma_rel,
        noise_seed=seed,
    )


def _angle_axis(cp, path) -> np.ndarray:
    if not cp.has_section("angle_axis"):
        raise ConfigError("missing section [angle_axis]", key=str(path))
    section = cp["angle_axis"]
    keys = set(section.keys())
    where = f"{path}:[angle_axis]"
    if keys == _DETECTOR_KEYS:
        return detector_angle_axis(
            _get(section, "pixels", where, convert=int, check=_positive),
            _get(section, "pixel_pitch_um", where, check=_positive),
            _get(section, "focal_length_mm", where, check=_positive),
        )
    if keys == _SPAN_KEYS:
        lo = _get(section, "min_mrad", where) * 1e-3
        hi = _get(section, "max_mrad", where) * 1e-3
        n = _get(section, "samples", where, convert=int)
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError("max_mrad must exceed min_mrad, both finite",
                              key=where)
        if n < 2:
            raise ConfigError("need at least 2 samples", key=f"{where}.samples")
        return np.linspace(lo, hi, n)
    raise ConfigError(
        "give either {pixels, pixel_pitch_um, focal_length_mm} or "
        "{min_mrad, max_mrad, samples}", key=where)


# ------------------------------------------------------------ builders

def build_axes(cfg: RunConfig) -> MapAxes:
    return MapAxes(
        np.linspace(cfg.signal_min_nm, cfg.signal_max_nm, cfg.signal_samples),
        cfg.angle_axis_rad,
    )


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


def load_lines(cfg: RunConfig):
    if cfg.lines_path.endswith(".par"):
        return load_par_file(cfg.lines_path, molecule=cfg.molecule_id,
                             isotopologue=cfg.isotopologue_id)
    return load_line_csv(cfg.lines_path)


def gas_grid(cfg: RunConfig, lines) -> np.ndarray:
    """Uniform idler wavenumber grid covering the map plus padding."""
    lam_i_edges = idler_wavelength_nm(
        cfg.pump_wavelength_nm,
        np.array([cfg.signal_min_nm, cfg.signal_max_nm]))
    nu_edges = nu_cm_from_lambda_nm(lam_i_edges)
    lo = nu_edges.min() - cfg.grid_pad_cm
    hi = nu_edges.max() + cfg.grid_pad_cm
    if not lo > 0:
        raise ConfigError(f"idler grid starts at {lo:.6g} cm^-1, not above 0",
                          key="[gas].grid_pad_cm")
    step = cfg.grid_step_cm
    if step is None:
        step = line_grid_step(lines, cfg.pressure_torr, cfg.temperature_k,
                              cfg.molar_mass_g_mol, cfg.self_fraction)
    try:
        return uniform_grid(lo, hi, step, "set a coarser grid_step_cm")
    except ValueError as exc:
        raise ConfigError(f"idler {exc}", key="[gas].grid_step_cm") from None


def build_gas(cfg: RunConfig) -> GasState:
    lines = load_lines(cfg)
    return GasState.from_lines(
        lines, cfg.pressure_torr, cfg.temperature_k, cfg.molar_mass_g_mol,
        visible=cfg.visible, nu_grid_cm=gas_grid(cfg, lines),
        x_self=cfg.self_fraction, wing_cutoff_cm=cfg.wing_cutoff_cm,
        partition_ratio=cfg.partition_ratio,
        label=os.path.basename(cfg.lines_path),
    )


def build_vacuum(cfg: RunConfig) -> GasState:
    return GasState.vacuum(t_k=cfg.temperature_k)
