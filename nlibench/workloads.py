"""Workload inputs and accuracy gates of the nlispec benchmark.

Every input is made from the run's seed, written into a scratch
directory, and handed to the program only as files (a config, a line
list, maps).  The truth each gate compares against is `build_gas` on
the same config, evaluated at the idler wavelengths of the retrieved
rows.

Only entry points the roadmap keeps are used here: builders come from
`nlispec.config` (the package root does not export `load_run_config`),
grid sizes are read from `GasState.idler_nu_cm`, and result tables are
read back only through `load_result_csv`.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import numpy as np

from nlispec.config import build_axes, build_gas, load_lines, load_run_config
from nlispec.dispersion import gas_index
from nlispec.gas import GasState
from nlispec.lineshape import (SpectralLine, absorption_coefficient,
                               save_line_csv)
from nlispec.resources import data_path
from nlispec.retrieval import load_result_csv

# (fit every Nth row, map format retrieve reads, mean shot-noise counts)
WORKLOADS = {
    "demo": (1, ".nlm", None),
    "dense_band": (4, ".nlm", None),
    "noisy": (1, ".csv", 1e4),
}

DENSE_LINES = 2000
DENSE_BAND_CM = (2180.0, 2520.0)
# Narrowest self-broadening coefficient [cm^-1/atm].  At the demo's
# 10.5 Torr it is a 0.164 cm^-1 HWHM, so the automatic grid rule
# (narrowest HWHM / 8) gives about 20k points over the idler band.
# One line is pinned to it so every seed gets the same grid size.
DENSE_GAMMA_MIN = 12.0
PEAK_ALPHA_CM = 0.45

NOISELESS_ALPHA_TOL_CM = 1e-8
NOISELESS_INDEX_TOL = 1e-11
NOISY_BAND_CM = (2294.0, 2404.0)
NOISY_INDEX_RMS = 5e-6
NOISY_ALPHA_RMS_CM = 1e-3

# reduced sizes used by the smoke test only
SMALL_SIGNAL_SAMPLES = 48
SMALL_DENSE_LINES = 200
SMALL_DENSE_GAMMA_MIN = 60.0


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run needs, made from its seed."""

    name: str
    seed: int
    config_path: str
    every: int
    map_suffix: str
    shot_counts: float | None
    rows: np.ndarray           # wavelength rows retrieve is asked for
    truth: GasState
    visible_index: float
    sizes: dict


@dataclass(frozen=True)
class Gate:
    ok: bool
    detail: str
    finite_rows: int = 0


def _write_config(path, *, lines=None, drop_grid_step=False,
                  signal_samples=None) -> str:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(data_path("co2_demo.cfg"), encoding="utf-8") as fh:
        cp.read_file(fh)
    if lines is not None:
        cp["gas"]["lines"] = os.path.abspath(lines)
    if drop_grid_step:
        cp.remove_option("gas", "grid_step_cm")
    if signal_samples is not None:
        cp["signal_axis"]["samples"] = str(signal_samples)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return os.path.abspath(path)


def dense_line_list(rng, n_lines, gamma_min, cfg) -> list[SpectralLine]:
    """Random lines across the idler band, scaled to the demo's peak alpha."""
    nu0 = rng.uniform(*DENSE_BAND_CM, n_lines)
    gamma_self = gamma_min * (1.0 + 2.0 * rng.random(n_lines))
    gamma_self[0] = gamma_min
    strength = 10.0 ** rng.uniform(-1.0, 0.0, n_lines)
    elow = rng.uniform(0.0, 600.0, n_lines)

    def make(scale):
        return [SpectralLine(nu0_cm=float(c), strength=float(scale * s),
                             gamma_air=float(0.7 * g), gamma_self=float(g),
                             elow_cm=float(e), n_air=0.75, mol_id=2, iso_id=1)
                for c, s, g, e in zip(nu0, strength, gamma_self, elow)]

    probe = np.linspace(*DENSE_BAND_CM, 8001)
    alpha = absorption_coefficient(
        make(1.0), probe, cfg.pressure_torr, cfg.temperature_k,
        cfg.molar_mass_g_mol, x_self=cfg.self_fraction,
        wing_cutoff_cm=cfg.wing_cutoff_cm)
    return make(PEAK_ALPHA_CM / float(alpha.max()))


def prepare(name: str, seed: int, workdir: str, small: bool = False) -> Inputs:
    """Generate the inputs of workload `name` into `workdir`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    every, suffix, shot_counts = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    samples = SMALL_SIGNAL_SAMPLES if small else None
    if name == "dense_band":
        base = load_run_config(data_path("co2_demo.cfg"))
        lines = dense_line_list(
            np.random.default_rng(seed),
            SMALL_DENSE_LINES if small else DENSE_LINES,
            SMALL_DENSE_GAMMA_MIN if small else DENSE_GAMMA_MIN, base)
        line_path = os.path.join(workdir, "dense_lines.csv")
        save_line_csv(line_path, lines)
        config_path = _write_config(os.path.join(workdir, "dense_band.cfg"),
                                    lines=line_path, drop_grid_step=True,
                                    signal_samples=samples)
    elif small:
        config_path = _write_config(os.path.join(workdir, "demo_small.cfg"),
                                    signal_samples=samples)
    else:
        config_path = data_path("co2_demo.cfg")

    cfg = load_run_config(config_path)
    truth = build_gas(cfg)
    n_rows = build_axes(cfg).shape[0]
    rows = np.arange(0, n_rows, every)
    sizes = {
        "map_shape": list(build_axes(cfg).shape),
        "lines": len(load_lines(cfg)),
        "grid_points": int(truth.idler_nu_cm.size),
        "rows_fitted": int(rows.size),
    }
    return Inputs(name=name, seed=seed, config_path=config_path, every=every,
                  map_suffix=suffix, shot_counts=shot_counts, rows=rows,
                  truth=truth,
                  visible_index=gas_index(cfg.visible, cfg.pressure_torr,
                                          cfg.temperature_k),
                  sizes=sizes)


def shot_noise(sample, reference, counts, rng):
    """Poisson frames of a map pair, `counts` mean counts per sample pixel."""
    scale = counts / float(np.mean(sample))
    return (rng.poisson(sample * scale).astype(float),
            rng.poisson(reference * scale).astype(float))


def check_result(path, inputs: Inputs) -> Gate:
    """Accuracy gate on a result table written by `retrieve`."""
    try:
        res = load_result_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return Gate(False, f"unreadable result table: {exc}")
    finite = int(np.count_nonzero(np.isfinite(res.alpha_cm)))
    if not np.array_equal(res.rows, inputs.rows):
        return Gate(False, f"table has rows {res.rows[:4]}..., expected "
                           f"{inputs.rows.size} rows every {inputs.every}",
                    finite)
    true_alpha = inputs.truth.idler_absorption_at(res.idler_wavelength_nm)
    true_index = inputs.truth.idler_index_at(res.idler_wavelength_nm)
    err_alpha = res.alpha_cm - true_alpha
    err_index = inputs.visible_index + res.index_offset - true_index
    if inputs.shot_counts is None:
        worst_a = float(np.max(np.abs(err_alpha)))
        worst_n = float(np.max(np.abs(err_index)))
        ok = (worst_a <= NOISELESS_ALPHA_TOL_CM
              and worst_n <= NOISELESS_INDEX_TOL)  # NaN fails both
        return Gate(ok, f"max |alpha err| {worst_a:.3g} cm^-1 (<= "
                        f"{NOISELESS_ALPHA_TOL_CM:g}), max |index err| "
                        f"{worst_n:.3g} (<= {NOISELESS_INDEX_TOL:g})",
                    finite)
    band = ((res.idler_nu_cm > NOISY_BAND_CM[0])
            & (res.idler_nu_cm < NOISY_BAND_CM[1]))
    if not band.any():
        return Gate(False, "no retrieved row inside the gate band", finite)
    rms_a = float(np.sqrt(np.mean(err_alpha[band] ** 2)))
    rms_n = float(np.sqrt(np.mean(err_index[band] ** 2)))
    ok = rms_a < NOISY_ALPHA_RMS_CM and rms_n < NOISY_INDEX_RMS
    return Gate(ok, f"band RMS alpha err {rms_a:.3g} cm^-1 (< "
                    f"{NOISY_ALPHA_RMS_CM:g}), index err {rms_n:.3g} "
                    f"(< {NOISY_INDEX_RMS:g})", finite)
