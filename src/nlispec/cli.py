"""Command line front end.

    nlispec simulate   CONFIG -o MAP [--vacuum] [--noise REL] [--seed N]
    nlispec retrieve   SAMPLE REFERENCE CONFIG -o TABLE [options]
    nlispec pump-angle CONFIG [--signal-nm NM]
    nlispec info       MAP

Exit codes: 0 success, 1 unreadable or unparseable input, 2 bad
configuration or out-of-range physics, 3 sample and reference maps
whose axes do not match.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config import _nonnegative, build_axes, build_gas, build_geometry, \
    build_vacuum, load_run_config
from .dispersion import gas_index
from .errors import (
    AxisMismatchError,
    ConfigError,
    LineParseError,
    MapFormatError,
    ValidityRangeError,
)
from .interferometer import (
    collinear_phase_matching_angle,
    render_blocks,
    row_blocks,
    with_gaussian_noise,
)
from .mapio import open_map, save_map_blocks


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

    ang = sub.add_parser("pump-angle",
                         help="solve the collinear phase-matching angle")
    ang.add_argument("config")
    ang.add_argument("--signal-nm", type=float, default=None,
                     help="signal wavelength (default: axis centre)")

    info = sub.add_parser("info", help="describe a stored map")
    info.add_argument("map")
    return p


# Each command imports the modules only it needs (the gas model for
# `simulate`, the fitter for `retrieve`) first, before it allocates any
# array, so that compiling them never adds to a peak of live arrays.

def _cmd_simulate(args) -> int:
    from . import gas  # noqa: F401  (for build_gas and build_vacuum)

    for option, value in (("--noise", args.noise), ("--seed", args.seed)):
        broken = None if value is None else _nonnegative(value)
        if broken:
            raise ConfigError(f"{broken}, got {value}", key=option)
    cfg = load_run_config(args.config)
    geom = build_geometry(cfg)
    axes = build_axes(cfg)
    gas = build_vacuum(cfg) if args.vacuum else build_gas(cfg)

    sigma_rel = cfg.noise_sigma_rel if args.noise is None else args.noise
    seed = cfg.noise_seed if args.seed is None else args.seed
    if sigma_rel > 0:
        # the noise level scales with the map's maximum: a first
        # rendering pass finds it
        sigma = sigma_rel * max(float(b.max())
                                for b in render_blocks(geom, gas, axes))

    def blocks():
        """One pass over the map's rows: rendered, noised and written a
        row block at a time, with the same noise on every pass."""
        rendered = render_blocks(geom, gas, axes)
        if sigma_rel == 0:
            return rendered
        # sample and reference get independent draws from one seed
        rng = np.random.default_rng([seed, int(args.vacuum)])
        return (with_gaussian_noise(b, sigma, rng) for b in rendered)

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
    save_map_blocks(args.output, axes, meta, blocks)
    print(f"wrote {meta['kind']} map "
          f"{axes.shape[0]}x{axes.shape[1]} to {args.output}")
    return 0


def _cmd_retrieve(args) -> int:
    from .retrieval import retrieve, save_result_csv

    cfg = load_run_config(args.config)
    geom = build_geometry(cfg)
    if args.every < 1:
        raise ConfigError("--every must be at least 1", key="--every")
    sample_vis = gas_index(cfg.visible, cfg.pressure_torr, cfg.temperature_k)
    result = retrieve(args.sample, args.reference, geom, engine=args.engine,
                      rows=slice(None, None, args.every),
                      sample_visible_index=sample_vis)
    save_result_csv(args.output, result)
    # the peak is the row whose absorption stands highest above its own
    # 2-sigma error, so a dim, noisy edge row cannot pose as the band peak
    alpha, sigma = result.alpha_cm, result.alpha_sigma_cm
    lower = alpha - 2.0 * np.nan_to_num(sigma, nan=0.0)
    lower[~np.isfinite(lower)] = -np.inf
    i = int(np.argmax(lower))
    peak = (f"peak absorption {alpha[i]:.4g} +/- {sigma[i]:.2g} cm^-1 at "
            f"row {result.rows[i]}" if np.isfinite(lower[i])
            else "no finite rows")
    print(f"retrieved {len(result.rows)} rows to {args.output} ({peak})")
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
    # a running range over row blocks, so no whole map is held
    low, high = math.inf, -math.inf
    with open_map(args.map) as reader:
        lam, ang = reader.axes.wavelength_nm, reader.axes.angle_rad
        for blk in row_blocks(lam.size):
            rows = reader.rows(range(lam.size)[blk])
            low, high = min(low, rows.min()), max(high, rows.max())
    print(f"{args.map}: {lam.size} wavelengths x {ang.size} angles")
    print(f"  wavelength {lam[0]:.6g} .. {lam[-1]:.6g} nm")
    print(f"  angle {ang[0] * 1e3:.6g} .. {ang[-1] * 1e3:.6g} mrad")
    print(f"  intensity {low:.6g} .. {high:.6g}")
    if reader.meta:
        print("  meta: " + json.dumps(reader.meta, sort_keys=True))
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
        # extreme config values can overflow numpy on the way to a result
        # that the builders then reject as non-finite (exit 2)
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (ConfigError, ValidityRangeError) as exc:
        print(f"nlispec: config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a value in range on its own whose arithmetic under- or overflows
        print(f"nlispec: config error: value out of numeric range: {exc}",
              file=sys.stderr)
        return 2
    except AxisMismatchError as exc:
        print(f"nlispec: inconsistent inputs: {exc}", file=sys.stderr)
        return 3
    except (MapFormatError, LineParseError, OSError) as exc:
        print(f"nlispec: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
