"""Command line front end.

    nlispec simulate   CONFIG -o MAP [--vacuum] [--noise REL] [--seed N]
    nlispec retrieve   SAMPLE REFERENCE CONFIG -o TABLE [options]
    nlispec pump-angle CONFIG [--signal-nm NM]
    nlispec info       MAP

Exit codes: 0 success, 1 unreadable or unparseable input, 2 bad
configuration or out-of-range physics, 3 inputs that are individually
fine but mutually inconsistent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config import build_axes, build_gas, build_geometry, build_vacuum, \
    load_run_config
from .dispersion import gas_index
from .errors import (
    AxisMismatchError,
    ConfigError,
    LineParseError,
    MapFormatError,
    NegativeAbsorptionError,
    ValidityRangeError,
)
from .interferometer import (
    collinear_phase_matching_angle,
    simulate_map,
    with_gaussian_noise,
)
from .mapio import IntensityMap, load_map, save_map
from .retrieval import retrieve, save_result_csv


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nlispec",
        description="Simulate and invert gas-cell nonlinear "
                    "interferometer maps.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate",
                         help="render an angular-spectral intensity map")
    sim.add_argument("config")
    sim.add_argument("-o", "--output", required=True,
                     help="map file (.nlm, .csv or .pgm)")
    sim.add_argument("--vacuum", action="store_true",
                     help="evacuated cell: reference arm of a measurement")
    sim.add_argument("--noise", type=float, default=None, metavar="REL",
                     help="override [noise].sigma_rel from the config")
    sim.add_argument("--seed", type=int, default=None,
                     help="override [noise].seed from the config")

    ret = sub.add_parser("retrieve",
                         help="invert a sample/reference map pair")
    ret.add_argument("sample")
    ret.add_argument("reference")
    ret.add_argument("config")
    ret.add_argument("-o", "--output", required=True,
                     help="result table (.csv)")
    ret.add_argument("--engine", choices=("model", "extrema"),
                     default="model")
    ret.add_argument("--every", type=int, default=1, metavar="N",
                     help="fit every Nth wavelength row")
    ret.add_argument("--no-polish", action="store_true",
                     help="skip the nonlinear refinement stage")
    ret.add_argument("--on-negative", choices=("keep", "clip", "raise"),
                     default="keep",
                     help="policy for visibility ratios above 1")

    ang = sub.add_parser("pump-angle",
                         help="solve the collinear phase-matching angle")
    ang.add_argument("config")
    ang.add_argument("--signal-nm", type=float, default=None,
                     help="signal wavelength (default: axis centre)")

    info = sub.add_parser("info", help="describe a stored map")
    info.add_argument("map")
    return p


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    geom = build_geometry(cfg)
    axes = build_axes(cfg)
    gas = build_vacuum(cfg) if args.vacuum else build_gas(cfg)
    intensity = simulate_map(geom, gas, axes)

    sigma_rel = cfg.noise_sigma_rel if args.noise is None else args.noise
    seed = cfg.noise_seed if args.seed is None else args.seed
    if sigma_rel > 0:
        rng = np.random.default_rng(seed)
        intensity = with_gaussian_noise(
            intensity, sigma_rel * float(intensity.max()), rng)

    meta = {
        "kind": "reference" if args.vacuum else "sample",
        "pressure_torr": 0.0 if args.vacuum else cfg.pressure_torr,
        "temperature_k": cfg.temperature_k,
        "pump_wavelength_nm": cfg.pump_wavelength_nm,
        "pump_axis_angle_deg": math.degrees(geom.pump_angle),
        "gap_length_cm": cfg.gap_length_cm,
        "noise_sigma_rel": sigma_rel,
        "noise_seed": seed if sigma_rel > 0 else None,
        "generator": f"nlispec {__version__}",
    }
    save_map(args.output, IntensityMap(axes, intensity, meta))
    print(f"wrote {meta['kind']} map "
          f"{intensity.shape[0]}x{intensity.shape[1]} to {args.output}")
    return 0


def _cmd_retrieve(args) -> int:
    cfg = load_run_config(args.config)
    geom = build_geometry(cfg)
    sample = load_map(args.sample)
    reference = load_map(args.reference)
    if args.every < 1:
        raise ConfigError("--every must be at least 1", key="--every")
    rows = None
    if args.every > 1:
        rows = range(0, sample.intensity.shape[0], args.every)
    sample_vis = gas_index(cfg.visible, cfg.pressure_torr, cfg.temperature_k)
    result = retrieve(sample, reference, geom, engine=args.engine,
                      rows=rows, polish=not args.no_polish,
                      on_negative=args.on_negative,
                      sample_visible_index=sample_vis)
    save_result_csv(args.output, result)
    n = len(result.rows)
    finite = np.isfinite(result.alpha_cm)
    peak = float(result.alpha_cm[finite].max()) if finite.any() else math.nan
    print(f"retrieved {n} rows to {args.output} "
          f"(peak absorption {peak:.4g} cm^-1)")
    return 0


def _cmd_pump_angle(args) -> int:
    cfg = load_run_config(args.config)
    geom = build_geometry(cfg)
    signal = args.signal_nm
    if signal is None:
        signal = 0.5 * (cfg.signal_min_nm + cfg.signal_max_nm)
    angle = collinear_phase_matching_angle(
        geom.crystal, cfg.pump_wavelength_nm, signal)
    print(f"collinear phase matching at signal {signal:g} nm: "
          f"{math.degrees(angle):.6f} deg")
    return 0


def _cmd_info(args) -> int:
    m = load_map(args.map)
    lam = m.axes.wavelength_nm
    ang = m.axes.angle_rad
    print(f"{args.map}: {lam.size} wavelengths x {ang.size} angles")
    print(f"  wavelength {lam[0]:.6g} .. {lam[-1]:.6g} nm")
    print(f"  angle {ang[0] * 1e3:.6g} .. {ang[-1] * 1e3:.6g} mrad")
    print(f"  intensity {m.intensity.min():.6g} .. {m.intensity.max():.6g}")
    if m.meta:
        print("  meta: " + json.dumps(m.meta, sort_keys=True))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "retrieve": _cmd_retrieve,
    "pump-angle": _cmd_pump_angle,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValidityRangeError) as exc:
        print(f"nlispec: config error: {exc}", file=sys.stderr)
        return 2
    except (AxisMismatchError, NegativeAbsorptionError) as exc:
        print(f"nlispec: inconsistent inputs: {exc}", file=sys.stderr)
        return 3
    except (MapFormatError, LineParseError, OSError) as exc:
        print(f"nlispec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
