"""Map-sized stages run one block of rows at a time: the same bits as the
whole-map computation, and a memory peak of a block, not of a map."""

import configparser
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nlispec import data_path
from nlispec.config import (build_axes, build_gas, build_geometry,
                            build_vacuum, load_run_config)
from nlispec.dispersion import gas_index
from nlispec.interferometer import (
    MapAxes,
    crystal_phase_mismatch,
    gap_response,
    interference_intensity,
    row_blocks,
    simulate_map,
    with_gaussian_noise,
)
from nlispec.cli import main
from nlispec.mapio import IntensityMap, load_map, open_map, save_map
from nlispec.retrieval import _model_pattern, fit_rows_model, retrieve

MIB = 2 ** 20
DEMO_CFG = str(data_path("co2_demo.cfg"))


@pytest.fixture(scope="module")
def demo():
    cfg = load_run_config(DEMO_CFG)
    return SimpleNamespace(
        cfg=cfg, geom=build_geometry(cfg), axes=build_axes(cfg),
        gas=build_gas(cfg),
        vacuum=build_vacuum(cfg),
        n_vis=gas_index(cfg.visible, cfg.pressure_torr, cfg.temperature_k))


@pytest.fixture(scope="module")
def demo_maps(demo):
    return (IntensityMap(demo.axes, simulate_map(demo.geom, demo.gas,
                                                 demo.axes)),
            IntensityMap(demo.axes, simulate_map(demo.geom, demo.vacuum,
                                                 demo.axes)))


def _peak_bytes(call):
    """(result, tracemalloc peak of `call` above what was live before)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ------------------------------------------------------ memory on the demo

def test_simulate_map_peak_is_its_output_plus_a_block(demo):
    out, peak = _peak_bytes(
        lambda: simulate_map(demo.geom, demo.gas, demo.axes))
    assert out.shape == (512, 640)
    assert peak <= out.nbytes + 2 * MIB


def test_retrieve_peak_beside_its_two_maps(demo, demo_maps):
    res, peak = _peak_bytes(lambda: retrieve(
        *demo_maps, demo.geom, sample_visible_index=demo.n_vis))
    assert res.rows.size == 512
    assert peak <= 6 * MIB


def test_native_map_io_peaks(demo_maps, tmp_path):
    path = tmp_path / "s.nlm"
    _, save_peak = _peak_bytes(lambda: save_map(path, demo_maps[0]))
    back, load_peak = _peak_bytes(lambda: load_map(path))
    assert np.array_equal(back.intensity, demo_maps[0].intensity)
    assert save_peak <= 0.5 * MIB
    assert load_peak <= 1.2 * back.intensity.nbytes


def test_csv_map_load_peak_is_the_map_and_a_block(demo_maps, tmp_path):
    path = tmp_path / "s.csv"
    save_map(path, demo_maps[0])
    back, peak = _peak_bytes(lambda: load_map(path))
    assert np.array_equal(back.intensity, demo_maps[0].intensity)
    assert peak <= back.intensity.nbytes + 1 * MIB


def test_csv_map_save_peak_is_a_block(demo_maps, tmp_path):
    path = tmp_path / "s.csv"
    _, peak = _peak_bytes(lambda: save_map(path, demo_maps[0]))
    assert np.array_equal(load_map(path).intensity, demo_maps[0].intensity)
    assert peak <= 1 * MIB


def test_pgm_map_io_peaks(demo_maps, tmp_path):
    # levels are quantized and read back one block of rows at a time
    path = tmp_path / "s.pgm"
    _, save_peak = _peak_bytes(lambda: save_map(path, demo_maps[0]))
    back, load_peak = _peak_bytes(lambda: load_map(path))
    truth = demo_maps[0].intensity
    step = (truth.max() - truth.min()) / 65535
    assert np.abs(back.intensity - truth).max() <= 0.5 * step * (1 + 1e-9)
    assert save_peak <= 1 * MIB
    assert load_peak <= back.intensity.nbytes + 0.5 * MIB


# ------------------------------------------- simulate holds no whole map

@pytest.fixture(scope="module")
def tall_config(tmp_path_factory):
    """The demo config with twice its 512 rows."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(DEMO_CFG)
    cp["crystal"]["coefficients"] = str(data_path(
        cp["crystal"]["coefficients"]))
    cp["gas"]["lines"] = str(data_path(cp["gas"]["lines"]))
    cp["signal_axis"]["samples"] = "1024"
    path = tmp_path_factory.mktemp("tall_cfg") / "tall.cfg"
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


@pytest.fixture(scope="module")
def warm_simulate(tmp_path_factory):
    # the first noisy run allocates numpy's generator state and caches
    d = tmp_path_factory.mktemp("warm")
    assert main(["simulate", DEMO_CFG, "--noise", "0.01",
                 "-o", str(d / "w.nlm")]) == 0


def _cli_simulate_peak(cfg, out, options):
    code, peak = _peak_bytes(lambda: main(
        ["simulate", cfg, "-o", str(out), *options]))
    assert code == 0
    return peak


NOISE = pytest.mark.parametrize("options", [(), ("--noise", "0.01")],
                                ids=["noiseless", "noisy"])
SUFFIX = pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])


@NOISE
@SUFFIX
def test_cli_simulate_peak_is_a_block(warm_simulate, tmp_path, suffix,
                                      options):
    # a demo map is 2.5 MiB; the gas build and one block stay below 2
    assert _cli_simulate_peak(DEMO_CFG, tmp_path / f"s{suffix}",
                              options) <= 2 * MIB


@SUFFIX
def test_cli_simulate_peak_does_not_grow_with_the_map(warm_simulate,
                                                      tall_config, tmp_path,
                                                      suffix):
    peaks = [_cli_simulate_peak(cfg, tmp_path / f"{k}{suffix}",
                                ("--noise", "0.01"))
             for k, cfg in enumerate((DEMO_CFG, tall_config))]
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("vacuum", [False, True], ids=["sample", "vacuum"])
@NOISE
@SUFFIX
def test_cli_simulate_writes_the_bytes_of_save_map(demo, tmp_path, suffix,
                                                   options, vacuum):
    # rendering, noising and writing block by block changes no bit of
    # the file that the whole-map functions give
    kind = ("--vacuum",) if vacuum else ()
    streamed = tmp_path / f"cli{suffix}"
    assert main(["simulate", DEMO_CFG, "-o", str(streamed), *kind,
                 *options]) == 0
    intensity = simulate_map(demo.geom, demo.vacuum if vacuum else demo.gas,
                             demo.axes)
    if options:
        rng = np.random.default_rng([demo.cfg.noise_seed, int(vacuum)])
        intensity = with_gaussian_noise(
            intensity, float(options[1]) * float(intensity.max()), rng)
    with open_map(streamed) as reader:
        meta = reader.meta
    whole = tmp_path / f"whole{suffix}"
    save_map(whole, IntensityMap(demo.axes, intensity, meta))
    assert streamed.read_bytes() == whole.read_bytes()
    if suffix == ".pgm":
        assert (tmp_path / "cli.pgm.json").read_bytes() == \
            (tmp_path / "whole.pgm.json").read_bytes()


# ----------------------------------------- retrieve holds one map at a time

@pytest.fixture(scope="module")
def demo_files(demo, demo_maps, tmp_path_factory):
    """The demo maps under 1e-3 noise, in memory and as .nlm, .csv and
    .pgm."""
    d = tmp_path_factory.mktemp("maps")
    rng = np.random.default_rng(15)
    maps = [IntensityMap(demo.axes, with_gaussian_noise(m.intensity, 1e-3,
                                                        rng), {"map": kind})
            for m, kind in zip(demo_maps, ("sample", "reference"))]
    for m, kind in zip(maps, ("sample", "reference")):
        for suffix in (".nlm", ".csv", ".pgm"):
            save_map(d / f"{kind}{suffix}", m)
    return d, maps


@pytest.mark.parametrize("engine", ["model", "extrema"])
@pytest.mark.parametrize("suffix", [".nlm", ".csv"])
def test_retrieve_from_paths_equals_from_maps(demo, demo_files, suffix,
                                              engine):
    d, maps = demo_files
    n = maps[0].axes.shape[0]
    from_maps = retrieve(*maps, demo.geom, engine=engine,
                         rows=range(0, n, 3), sample_visible_index=demo.n_vis)
    from_paths = retrieve(str(d / f"sample{suffix}"),
                          str(d / f"reference{suffix}"), demo.geom,
                          engine=engine, rows=slice(None, None, 3),
                          sample_visible_index=demo.n_vis)
    assert from_paths.meta == from_maps.meta
    for name in ("rows", "wavelength_nm", "idler_wavelength_nm", "visibility",
                 "alpha_cm", "alpha_sigma_cm", "phase_shift_rad",
                 "index_offset", "index_offset_sigma"):
        np.testing.assert_array_equal(getattr(from_paths, name),
                                      getattr(from_maps, name), err_msg=name)
    assert from_paths.rows.size == 171


@pytest.mark.parametrize("suffix, options", [
    (".nlm", ()), (".csv", ()),
    (".nlm", ("--engine", "extrema")), (".csv", ("--engine", "extrema")),
], ids=[".nlm", ".csv", ".nlm-extrema", ".csv-extrema"])
def test_cli_retrieve_peak_is_one_map_and_a_block(demo_files, suffix,
                                                  options, tmp_path):
    d, maps = demo_files
    code, peak = _peak_bytes(lambda: main([
        "retrieve", str(d / f"sample{suffix}"), str(d / f"reference{suffix}"),
        str(data_path("co2_demo.cfg")), "-o", str(tmp_path / "r.csv"),
        *options]))
    assert code == 0
    assert peak <= maps[0].intensity.nbytes + 2.5 * MIB


# a .pgm reader holds the file's 16-bit levels, a quarter of the map
@pytest.mark.parametrize("suffix, bound", [
    (".nlm", 1 * MIB), (".csv", 1 * MIB), (".pgm", 2 * MIB)])
def test_cli_info_reads_one_block_at_a_time(demo_files, suffix, bound,
                                            capsys):
    path = str(demo_files[0] / f"sample{suffix}")
    code, peak = _peak_bytes(lambda: main(["info", path]))
    assert code == 0
    assert peak <= bound
    m = load_map(path)
    assert f"intensity {m.intensity.min():.6g} .. {m.intensity.max():.6g}\n" \
        in capsys.readouterr().out


@pytest.fixture(scope="module")
def tall_files(demo, tmp_path_factory):
    """A noisy map pair with twice the demo's rows, as .nlm and .csv."""
    d = tmp_path_factory.mktemp("tall")
    lam = demo.axes.wavelength_nm
    axes = MapAxes(np.linspace(lam[0], lam[-1], 2 * lam.size),
                   demo.axes.angle_rad)
    rng = np.random.default_rng(16)
    for gas, kind in ((demo.gas, "sample"), (demo.vacuum, "reference")):
        m = IntensityMap(axes, with_gaussian_noise(
            simulate_map(demo.geom, gas, axes), 1e-3, rng))
        for suffix in (".nlm", ".csv"):
            save_map(d / f"{kind}{suffix}", m)
    return d


@pytest.mark.parametrize("suffix, options", [
    (".nlm", ()), (".csv", ()),
    (".nlm", ("--engine", "extrema")), (".csv", ("--engine", "extrema")),
], ids=[".nlm", ".csv", ".nlm-extrema", ".csv-extrema"])
def test_cli_retrieve_peak_is_blocks_not_maps(demo_files, tall_files, suffix,
                                              options, tmp_path):
    # the maps stream: no map-sized buffer, so twice the rows costs
    # only the per-row results
    peaks = []
    for d in (demo_files[0], tall_files):
        code, peak = _peak_bytes(lambda: main([
            "retrieve", str(d / f"sample{suffix}"),
            str(d / f"reference{suffix}"), str(data_path("co2_demo.cfg")),
            "-o", str(tmp_path / "r.csv"), *options]))
        assert code == 0
        peaks.append(peak)
    assert peaks[0] <= 3 * MIB
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("suffix", [".nlm", ".csv", ".pgm"])
def test_retrieve_returns_rows_in_the_order_asked(demo, demo_files, suffix):
    d, _ = demo_files
    paths = str(d / f"sample{suffix}"), str(d / f"reference{suffix}")
    maps = [load_map(p) for p in paths]
    asked = [300, 7, 511, 7, 0, 64, 300, 65]
    fitted = np.unique(asked)
    where = np.searchsorted(fitted, asked)
    in_order = retrieve(*maps, demo.geom, rows=fitted,
                        sample_visible_index=demo.n_vis)
    for source in (paths, maps):
        res = retrieve(*source, demo.geom, rows=asked,
                       sample_visible_index=demo.n_vis)
        np.testing.assert_array_equal(res.rows, asked)
        for name in ("wavelength_nm", "idler_nu_cm", "visibility", "alpha_cm",
                     "alpha_sigma_cm", "phase_shift_rad", "index_offset",
                     "index_offset_sigma"):
            np.testing.assert_array_equal(getattr(res, name), getattr(
                in_order, name)[where], err_msg=name)


# ------------------------------------ the same bits with a partial block

@pytest.fixture(scope="module")
def axes150(demo):
    # 150 rows: four full 32-row blocks and a partial one of 22
    lam = demo.axes.wavelength_nm
    return MapAxes(np.linspace(lam[0], lam[-1], 150), demo.axes.angle_rad)


def test_simulate_map_equals_the_whole_map_composition(demo, axes150):
    lam, theta = axes150.wavelength_nm, axes150.angle_rad
    whole = interference_intensity(
        crystal_phase_mismatch(demo.geom, lam, theta),
        *gap_response(demo.geom, demo.gas, lam, theta))
    assert np.array_equal(simulate_map(demo.geom, demo.gas, axes150), whole)


def _fit_in_blocks(rows, envelope, phase, steepening):
    parts = [fit_rows_model(rows[blk], envelope[blk], phase[blk],
                            steepening[blk]) for blk in row_blocks(len(rows))]
    return SimpleNamespace(**{
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in ("contrast", "phase_rad", "sigma_contrast",
                     "sigma_phase")})


@pytest.mark.parametrize("rows", [None, range(1, 150, 2)],
                         ids=["all", "odd"])
def test_retrieve_equals_block_fits_of_whole_map_templates(demo, axes150,
                                                           rows):
    # under noise the rows settle after different numbers of passes
    rng = np.random.default_rng(6)
    sample, reference = (IntensityMap(axes150, with_gaussian_noise(
        simulate_map(demo.geom, gas, axes150), 1e-3, rng))
        for gas in (demo.gas, demo.vacuum))
    res = retrieve(sample, reference, demo.geom, rows=rows,
                   sample_visible_index=demo.n_vis)

    idx = np.arange(150) if rows is None else np.asarray(rows)
    lam, theta = axes150.wavelength_nm[idx], axes150.angle_rad
    phase_s, envelope, steepening = _model_pattern(demo.geom, lam, theta,
                                                   demo.n_vis)
    phase_r, _, _ = _model_pattern(demo.geom, lam, theta)
    est_s = _fit_in_blocks(sample.intensity[idx], envelope, phase_s,
                           steepening)
    est_r = _fit_in_blocks(reference.intensity[idx], envelope, phase_r,
                           steepening)
    gap = demo.geom.gap_length_cm
    vis = est_s.contrast / est_r.contrast
    vis_sigma = vis * np.hypot(est_s.sigma_contrast / est_s.contrast,
                               est_r.sigma_contrast / est_r.contrast)
    offset_sigma = (res.idler_wavelength_nm * 1e-7) / (2.0 * math.pi * gap) \
        * np.hypot(est_s.sigma_phase, est_r.sigma_phase)
    np.testing.assert_array_equal(res.rows, idx)
    np.testing.assert_array_equal(res.visibility, vis)
    np.testing.assert_array_equal(res.alpha_sigma_cm, vis_sigma / (vis * gap))
    np.testing.assert_array_equal(res.phase_shift_rad,
                                  est_s.phase_rad - est_r.phase_rad)
    np.testing.assert_array_equal(res.index_offset_sigma, offset_sigma)
